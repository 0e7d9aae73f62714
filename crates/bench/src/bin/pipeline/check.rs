//! `check A.json B.json` — compares two result sets (`--all --out`)
//! against the `check_bound` of each end-to-end metric, the failed share
//! of ops, and `serve_failover`'s longest stall. A is the baseline.

use crate::spec::{Better, EndToEnd, END_TO_END, WORKLOADS};
use crate::stats::{iqr_share, median};
use accelviz_trace::chrome::{parse_json, Json};

/// What a metric's two sets of runs say about it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the baseline by more than the bound, and the runs
    /// are steady enough to say so.
    Ok,
    /// Worse than the baseline by more than the bound.
    Regressed,
    /// The run-to-run spread is wider than the bound: the sets cannot
    /// tell a regression of that size from noise.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Run-to-run spread of a metric as a share of its median: the
/// interquartile distance, or 0 for a single run.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        0.0
    } else {
        iqr_share(values)
    }
}

/// By what share of the baseline median `change` is worse (negative:
/// better).
pub fn worse_by(metric: &EndToEnd, base: &[f64], change: &[f64]) -> f64 {
    let (b, c) = (median(base), median(change));
    let delta = match metric.better {
        Better::Lower => c - b,
        Better::Higher => b - c,
    };
    delta / b.abs().max(f64::MIN_POSITIVE)
}

/// Judges one metric on one workload. When the spread of either set is
/// wider than the bound, only a clean separation decides: every run of
/// one set on the same side of every run of the other.
pub fn judge(metric: &EndToEnd, base: &[f64], change: &[f64]) -> Verdict {
    let worse = worse_by(metric, base, change) > metric.check_bound;
    if spread(base) <= metric.check_bound && spread(change) <= metric.check_bound {
        return if worse {
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
    }
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let (all_worse, all_better) = match metric.better {
        Better::Lower => (min(change) > max(base), max(change) < min(base)),
        Better::Higher => (max(change) < min(base), min(change) > max(base)),
    };
    if worse && all_worse {
        Verdict::Regressed
    } else if !worse && all_better {
        Verdict::Ok
    } else {
        Verdict::Unresolved
    }
}

/// How far `serve_failover`'s longest op may grow before that is a
/// regression: a tenth of the baseline or 50 ms, whichever is larger.
/// The stall at the kill is one op in thousands — no percentile sees
/// it — and it repeats to within a few milliseconds.
pub fn worst_op_allowance_ms(base_ms: f64) -> f64 {
    (0.10 * base_ms).max(50.0)
}

/// One workload's runs in a result set.
struct WorkloadRuns<'a>(&'a Json);

impl WorkloadRuns<'_> {
    fn values(&self, metric: &str) -> Option<Vec<f64>> {
        let list = self.0.get("metrics")?.get(metric)?.get("values")?;
        list.as_array()?.iter().map(Json::as_f64).collect()
    }

    /// The per-run numbers stored beside the metrics under `key`.
    fn per_run(&self, key: &str) -> Vec<f64> {
        self.0
            .get(key)
            .and_then(Json::as_array)
            .map_or(Vec::new(), |v| v.iter().filter_map(Json::as_f64).collect())
    }

    fn total(&self, key: &str) -> f64 {
        self.per_run(key).iter().sum()
    }

    fn failed_share(&self) -> f64 {
        self.total("failed") / self.total("attempted").max(1.0)
    }
}

fn runs_of<'a>(doc: &'a Json, workload: &str) -> Option<&'a Json> {
    doc.get("workloads")?.get(workload)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_json(&text).map_err(|e| format!("{path}: {e}"))
}

/// Prints the `worst_op_ms` row of a workload; returns 1 if it regressed.
fn worst_op_row(workload: &str, ra: &WorkloadRuns, rb: &WorkloadRuns) -> usize {
    let (wa, wb) = (ra.per_run("worst_op_ms"), rb.per_run("worst_op_ms"));
    if wa.is_empty() || wb.is_empty() {
        return 0;
    }
    let (a, b) = (median(&wa), median(&wb));
    let allowed = worst_op_allowance_ms(a);
    let verdict = if b > a + allowed {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    println!(
        "{:<17} {:<19} {:>12.4} {:>7.1}% {:>12.4} {:>7.1}% {:>+8.1}% {:>5.0}ms  {}",
        workload,
        "worst_op_ms",
        a,
        100.0 * spread(&wa),
        b,
        100.0 * spread(&wb),
        100.0 * (b - a) / a,
        allowed,
        verdict.as_str()
    );
    usize::from(verdict == Verdict::Regressed)
}

/// Compares result sets `a` (baseline) and `b`, printing one row per
/// (workload, metric). Returns how many rows regressed.
pub fn check(a: &str, b: &str) -> Result<usize, String> {
    let (doc_a, doc_b) = (load(a)?, load(b)?);
    println!(
        "{:<17} {:<19} {:>12} {:>8} {:>12} {:>8} {:>9} {:>7}  verdict",
        "workload", "metric", "base median", "spread", "new median", "spread", "worse by", "bound"
    );
    let mut regressed = 0;
    for w in &WORKLOADS {
        let (Some(ra), Some(rb)) = (runs_of(&doc_a, w.name), runs_of(&doc_b, w.name)) else {
            println!("{:<17} missing from one of the sets", w.name);
            continue;
        };
        let (ra, rb) = (WorkloadRuns(ra), WorkloadRuns(rb));
        for m in &END_TO_END {
            let (Some(va), Some(vb)) = (ra.values(m.name), rb.values(m.name)) else {
                continue;
            };
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let verdict = judge(m, &va, &vb);
            regressed += usize::from(verdict == Verdict::Regressed);
            println!(
                "{:<17} {:<19} {:>12.4} {:>7.1}% {:>12.4} {:>7.1}% {:>+8.1}% {:>6.1}%  {}",
                w.name,
                m.name,
                median(&va),
                100.0 * spread(&va),
                median(&vb),
                100.0 * spread(&vb),
                100.0 * worse_by(m, &va, &vb),
                100.0 * m.check_bound,
                verdict.as_str()
            );
        }
        // Failures have no bound: any increase in the failed share of
        // attempted ops is a regression.
        let (fa, fb) = (ra.failed_share(), rb.failed_share());
        let verdict = if fb > fa {
            regressed += 1;
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
        println!(
            "{:<17} {:<19} {:>12.6} {:>8} {:>12.6} {:>8} {:>9} {:>7}  {}",
            w.name,
            "failed_share",
            fa,
            "",
            fb,
            "",
            "",
            "any",
            verdict.as_str()
        );
        if w.name == "serve_failover" {
            regressed += worst_op_row(w.name, &ra, &rb);
        }
    }
    println!("percentages are shares of the base median of the same row");
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::end_to_end;

    #[test]
    fn bounds_apply_in_the_metrics_direction() {
        let latency = end_to_end("op_ms_p50").unwrap(); // lower is better, 10 %
        let steady = [10.0, 10.1, 9.9];
        assert_eq!(judge(latency, &steady, &[10.8, 10.9, 10.7]), Verdict::Ok);
        assert_eq!(
            judge(latency, &steady, &[11.2, 11.3, 11.1]),
            Verdict::Regressed
        );
        assert_eq!(judge(latency, &steady, &[5.0, 5.1, 4.9]), Verdict::Ok);

        let rate = end_to_end("ops_per_s").unwrap(); // higher is better, 10 %
        assert_eq!(judge(rate, &steady, &[8.8, 8.9, 8.7]), Verdict::Regressed);
        assert_eq!(judge(rate, &steady, &[13.0, 13.1, 12.9]), Verdict::Ok);
        assert!((worse_by(rate, &steady, &[8.0]) - 0.2).abs() < 1e-12);

        // The stall may grow by a tenth, or by 50 ms where that is more.
        assert_eq!(worst_op_allowance_ms(2044.0), 204.4);
        assert_eq!(worst_op_allowance_ms(30.0), 50.0);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let latency = end_to_end("op_ms_p50").unwrap(); // bound 10 %
        let noisy = [7.0, 10.0, 13.0];
        // Same median, but the sets could hide a 10 % regression.
        assert_eq!(
            judge(latency, &noisy, &[7.5, 10.0, 12.5]),
            Verdict::Unresolved
        );
        // Worse median, overlapping runs: still not a finding.
        assert_eq!(
            judge(latency, &noisy, &[9.0, 13.0, 17.0]),
            Verdict::Unresolved
        );
        // Every run of the change beyond every run of the base decides.
        assert_eq!(
            judge(latency, &noisy, &[14.0, 16.0, 18.0]),
            Verdict::Regressed
        );
        assert_eq!(judge(latency, &noisy, &[4.0, 5.0, 6.0]), Verdict::Ok);
        // One run each: no spread to judge by, the bound alone decides.
        assert_eq!(judge(latency, &[10.0], &[10.9]), Verdict::Ok);
        assert_eq!(judge(latency, &[10.0], &[11.1]), Verdict::Regressed);
    }
}
