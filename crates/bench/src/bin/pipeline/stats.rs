//! Order statistics for the benchmark's samples: the percentile picker,
//! the "ten samples beyond" rule that decides which percentile may be
//! reported, and the spread a result set is compared by.

/// Ops a run must complete before `p95` may be reported: the 95th
/// percentile needs at least ten samples beyond it.
pub const MIN_OPS: usize = 200;

/// The `q`-quantile (0 ≤ q ≤ 1) of `sorted` by the nearest-rank rule:
/// the smallest sample with at least `q` of the samples at or below it.
/// Nearest-rank returns a value that was actually measured, so the
/// samples beyond it can be counted.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `q`-quantile of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Whether the `q`-quantile of `n` samples has the ten samples beyond it
/// that make it reportable.
pub fn reportable(n: usize, q: f64) -> bool {
    n > 0 && samples_beyond(n, q) >= 10
}

/// Chunks a run's latencies are cut into, at most, for
/// [`chunked_percentile`].
pub const MAX_CHUNKS: usize = 12;

/// How many chunks of at least [`MIN_OPS`] samples `n` samples make.
pub fn chunk_count(n: usize) -> usize {
    (n / MIN_OPS).clamp(1, MAX_CHUNKS)
}

/// The `q`-quantile of a run's latencies, steady against a disturbed
/// stretch of the run: `in_order` (the latencies in completion order) is
/// cut into [`chunk_count`] equal chunks, each gives its own nearest-rank
/// quantile, and the median of those is the run's. A neighbour that takes
/// the machine for a second slows more than a twentieth of a fast
/// workload's ops — enough to set the `p95` of the whole run, but of one
/// chunk in twelve only.
pub fn chunked_percentile(in_order: &[f64], q: f64) -> f64 {
    let (n, chunks) = (in_order.len(), chunk_count(in_order.len()));
    let each: Vec<f64> = (0..chunks)
        .map(|i| {
            let chunk = &in_order[i * n / chunks..(i + 1) * n / chunks];
            percentile(&sorted(chunk.to_vec()), q)
        })
        .collect();
    median(&each)
}

/// Sorts a sample vector (no NaNs are ever recorded; `total_cmp` keeps
/// the sort total anyway).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// The median of unsorted samples — the mean of the two middle ones for
/// an even count, as `statistics.median` computes it.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples.to_vec());
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartile by the exclusive method, the default of
/// Python's `statistics.quantiles(values, n=4)` that the acceptance
/// spread is defined by. Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let s = sorted(samples.to_vec());
    let n = s.len();
    assert!(n >= 2, "quartiles need two samples");
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median — the run-to-run
/// spread a bound is judged against.
pub fn iqr_share(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    (q3 - q1) / median(samples).abs().max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 100.0);
        assert_eq!(percentile(&s, 0.95), 190.0);
        assert_eq!(percentile(&s, 1.0), 200.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn chunked_percentile_shrugs_off_a_disturbed_stretch() {
        // 2 400 ops at 1 ms, of which a stretch of 160 (one in fifteen)
        // took 9 ms: the p95 of the whole run is the stretch's, the
        // chunked one is the steady state's.
        let mut ms = vec![1.0; 2400];
        ms[1000..1160].fill(9.0);
        assert_eq!(chunk_count(ms.len()), 12);
        assert_eq!(percentile(&sorted(ms.clone()), 0.95), 9.0);
        assert_eq!(chunked_percentile(&ms, 0.95), 1.0);
        // Under 400 ops there is one chunk: the plain percentile.
        let few: Vec<f64> = (1..=399).map(f64::from).collect();
        assert_eq!(chunk_count(few.len()), 1);
        assert_eq!(chunked_percentile(&few, 0.95), percentile(&few, 0.95));
        // Every chunk keeps the ten samples beyond its p95.
        assert!((MIN_OPS..5000).all(|n| reportable(n / chunk_count(n), 0.95)));
    }

    #[test]
    fn p95_needs_two_hundred_samples() {
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert!(reportable(MIN_OPS, 0.95));
        assert!(!reportable(MIN_OPS - 1, 0.95));
        assert!(reportable(20, 0.5));
        assert!(!reportable(19, 0.5));
        assert!(!reportable(0, 0.5));
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(median(&v), 5.5);
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }
}
