//! The closed loop every workload's clients run, and the samples it
//! leaves behind.
//!
//! All loops are closed: a client starts its next op only when the
//! previous one is done, because a viewer waits for its frame before
//! asking for the next. A run lasts a fixed time; the op schedule is a
//! function of the seed and the op index alone.

use crate::stats::{chunked_percentile, MIN_OPS};
use crate::sys::process_cpu_seconds;
use crate::tracer::Tracer;
use accelviz_trace::registry::Span;
use std::time::{Duration, Instant};

/// A traced run splits its first third into four slices, records spans in
/// the first and the last of them (on, off, off, on — so a steady drift in
/// op cost weighs on both kinds alike), and from then on throughout. A
/// slice is this share of the run. The untraced slices against the traced
/// ones give `trace.overhead_share`; all four end before `serve_failover`
/// kills its shard at one third of the run.
pub const TRACE_SLICE_SHARE: f64 = 1.0 / 12.0;

/// Whether a traced run of `seconds` records spans `elapsed` seconds in.
pub fn traced_at(elapsed: f64, seconds: f64) -> bool {
    let slice = (elapsed / (seconds * TRACE_SLICE_SHARE)) as usize;
    slice != 1 && slice != 2
}

/// What the clients of one run share.
pub struct RunCtl<'a> {
    pub tracer: &'a Tracer,
    /// Name of the per-op parent span, `bench.<workload>.op`.
    pub op_span: &'static str,
    pub start: Instant,
    pub length: Duration,
    /// Whether this is the traced run.
    pub traced: bool,
}

impl RunCtl<'_> {
    /// Seconds since the run began.
    pub fn elapsed(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Seconds the run lasts.
    pub fn seconds(&self) -> f64 {
        self.length.as_secs_f64()
    }

    /// Blocks until `share` of the run has passed.
    pub fn sleep_until(&self, share: f64) {
        let due = self.length.mul_f64(share);
        if let Some(left) = due.checked_sub(self.start.elapsed()) {
            std::thread::sleep(left);
        }
    }
}

/// One completed op.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Seconds from the start of the run to the end of the op.
    pub end_s: f64,
    /// Op latency, request to final pixels or bytes on disk.
    pub op_ms: f64,
    /// Request to the first usable image; the op latency itself where an
    /// op produces a single result.
    pub first_ms: f64,
    /// Bytes the op delivered, where the client can count them itself.
    pub bytes: u64,
    /// Whether the op completed and, where checked, verified.
    pub ok: bool,
    /// Whether the op's output was verified (not every op is).
    pub verified: bool,
    /// Seconds the client spent verifying the output before its next op.
    pub verify_s: f64,
    /// CPU seconds of that pause: its wall time — one thread computing —
    /// unless the body measured it ([`Op::untimed`]).
    pub pause_cpu_s: f64,
}

/// The stopwatch and span scope of one op, handed to the op body.
pub struct Op<'a> {
    tracer: &'a Tracer,
    /// The op's index on its client.
    pub k: usize,
    begun: Instant,
    parent: Option<Span<'a>>,
    first: Option<Duration>,
    done: Option<Duration>,
    bytes: u64,
    verified: bool,
    /// CPU seconds of the pause after the op beyond its wall time.
    pause_cpu_beyond_wall_s: f64,
}

impl<'a> Op<'a> {
    /// A child span around one call into a layer.
    pub fn span(&self, name: &'static str) -> Span<'a> {
        self.tracer.span(name, self.k)
    }

    /// Marks the first usable image.
    pub fn first_image(&mut self) {
        self.first.get_or_insert(self.begun.elapsed());
    }

    /// Marks the end of the op: everything after this call (output
    /// verification) is outside the timed interval.
    pub fn done(&mut self, bytes: u64) {
        if self.done.is_none() {
            self.done = Some(self.begun.elapsed());
            self.bytes = bytes;
            self.parent = None;
        }
    }

    /// Records that the body verified this op's output.
    pub fn verified(&mut self) {
        self.verified = true;
    }

    /// Runs `f` — work between two ops, after [`Op::done`] — and reads the
    /// CPU time it used from the process's clock. The rest of the pause is
    /// taken to be one thread computing; work that runs on several threads
    /// is wrapped in this.
    pub fn untimed<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let (wall, cpu) = (Instant::now(), process_cpu_seconds());
        let result = f();
        if let Some((before, after)) = cpu.zip(process_cpu_seconds()) {
            self.pause_cpu_beyond_wall_s += after - before - wall.elapsed().as_secs_f64();
        }
        result
    }
}

/// Runs `body` as op `k`; `origin` is the instant sample times count from.
fn run_op<'a>(
    tracer: &'a Tracer,
    op_span: &'static str,
    k: usize,
    origin: Instant,
    body: &mut impl FnMut(&mut Op<'a>) -> bool,
) -> Sample {
    let mut op = Op {
        tracer,
        k,
        begun: Instant::now(),
        parent: None,
        first: None,
        done: None,
        bytes: 0,
        verified: false,
        pause_cpu_beyond_wall_s: 0.0,
    };
    op.parent = Some(tracer.span(op_span, k));
    let ok = body(&mut op);
    op.done(0);
    let done = op.done.expect("set above");
    let verify_s = (op.begun.elapsed() - done).as_secs_f64();
    Sample {
        end_s: (op.begun + done).duration_since(origin).as_secs_f64(),
        op_ms: done.as_secs_f64() * 1e3,
        first_ms: op.first.unwrap_or(done).as_secs_f64() * 1e3,
        bytes: op.bytes,
        ok,
        verified: op.verified,
        verify_s,
        pause_cpu_s: verify_s + op.pause_cpu_beyond_wall_s,
    }
}

/// Runs `body` in a closed loop until the run's time is up. `body`
/// returns whether the op succeeded; an op it never marked
/// [`Op::done`] ends when `body` returns.
pub fn closed_loop<'a>(ctl: &RunCtl<'a>, mut body: impl FnMut(&mut Op<'a>) -> bool) -> Vec<Sample> {
    let mut samples = Vec::new();
    for k in 0.. {
        let now = ctl.elapsed();
        if now >= ctl.seconds() {
            break;
        }
        if ctl.traced {
            ctl.tracer.set_enabled(traced_at(now, ctl.seconds()));
        }
        samples.push(run_op(ctl.tracer, ctl.op_span, k, ctl.start, &mut body));
    }
    samples
}

/// A closed loop whose ops come in cycles: op `k` does the work of
/// position `k % cycle`, so a whole cycle is the same work however many
/// ops the machine gets through, and a run of whole cycles has one op mix.
/// The clock is read between cycles only: the next one starts if, going by
/// the longest so far, it ends within the run. At least one is run.
pub fn closed_loop_cycles<'a>(
    ctl: &RunCtl<'a>,
    cycle: usize,
    mut body: impl FnMut(&mut Op<'a>) -> bool,
) -> Vec<Sample> {
    let mut samples = Vec::new();
    let mut longest = 0.0_f64;
    loop {
        let began = ctl.elapsed();
        if !samples.is_empty() && began + longest > ctl.seconds() {
            break;
        }
        for _ in 0..cycle {
            if ctl.traced {
                ctl.tracer
                    .set_enabled(traced_at(ctl.elapsed(), ctl.seconds()));
            }
            let k = samples.len();
            samples.push(run_op(ctl.tracer, ctl.op_span, k, ctl.start, &mut body));
        }
        longest = longest.max(ctl.elapsed() - began);
    }
    samples
}

/// Runs `body` for `ops` untimed, untraced ops — a workload's warm-up
/// cycle. Returns whether every op succeeded.
pub fn warm_up(ops: usize, mut body: impl FnMut(&mut Op<'_>) -> bool) -> bool {
    let tracer = Tracer::new();
    let origin = Instant::now();
    (0..ops).all(|k| run_op(&tracer, "bench.warm_up", k, origin, &mut body).ok)
}

/// What a run's samples add up to.
#[derive(Debug)]
pub struct Summary {
    pub attempted: usize,
    pub failed: usize,
    pub verified: usize,
    pub ops_per_s: f64,
    pub op_ms_p50: f64,
    pub op_ms_p95: f64,
    pub first_image_ms_p50: f64,
    pub worst_op_ms: f64,
    /// Mean bytes per op as the clients counted them.
    pub client_bytes_per_op: f64,
    /// CPU seconds all clients together spent between ops, verifying
    /// outputs and preparing inputs.
    pub pause_cpu_s: f64,
}

/// Ops per second of all clients together, with the pauses in which a
/// client verified an output taken out of its window: each client's
/// completed ops over the time to the end of its last op less the
/// verification before it, summed over the clients.
fn ops_per_s(clients: &[Vec<Sample>]) -> f64 {
    clients
        .iter()
        .filter_map(|c| {
            let (last, before) = c.split_last()?;
            let paused: f64 = before.iter().map(|s| s.verify_s).sum();
            let ok = c.iter().filter(|s| s.ok).count();
            Some(ok as f64 / (last.end_s - paused))
        })
        .sum()
}

/// Mean bytes per op by the clients' own count, over the ops every run
/// of a seed has — the first [`MIN_OPS`] of the schedule, shared out among
/// the clients — so a seed gives one number however many ops the machine
/// got through. (An op's bytes depend on its place in the schedule:
/// `field_lines` draws longer lines as its cavity fills, `prep_series`
/// writes a halo that grows.)
fn client_bytes_per_op(clients: &[Vec<Sample>]) -> f64 {
    let each = (MIN_OPS / clients.len().max(1)).max(1);
    let shared: Vec<u64> = clients
        .iter()
        .flat_map(|c| c.iter().take(each).map(|s| s.bytes))
        .collect();
    shared.iter().sum::<u64>() as f64 / shared.len() as f64
}

/// Summarises the samples of all clients. A failed op counts as the
/// slowest sample: it is ranked beyond every op that completed. The
/// latency percentiles are [`chunked_percentile`]s.
pub fn summarize(clients: &[Vec<Sample>]) -> Summary {
    let mut all: Vec<&Sample> = clients.iter().flatten().collect();
    assert!(!all.is_empty(), "a run completes at least one op");
    // In completion order, for the chunked percentiles.
    all.sort_by(|a, b| a.end_s.total_cmp(&b.end_s));
    let rank = |s: &Sample, ms: f64| if s.ok { ms } else { f64::INFINITY };
    let op_ms: Vec<f64> = all.iter().map(|s| rank(s, s.op_ms)).collect();
    let first_ms: Vec<f64> = all.iter().map(|s| rank(s, s.first_ms)).collect();
    let ok = all.iter().filter(|s| s.ok).count();
    Summary {
        attempted: all.len(),
        failed: all.len() - ok,
        verified: all.iter().filter(|s| s.verified).count(),
        ops_per_s: ops_per_s(clients),
        op_ms_p50: chunked_percentile(&op_ms, 0.5),
        op_ms_p95: chunked_percentile(&op_ms, 0.95),
        first_image_ms_p50: chunked_percentile(&first_ms, 0.5),
        worst_op_ms: all.iter().map(|s| s.op_ms).fold(0.0, f64::max),
        client_bytes_per_op: client_bytes_per_op(clients),
        pause_cpu_s: all.iter().map(|s| s.pause_cpu_s).sum(),
    }
}

/// Ops completed per second within `[from_s, to_s)` of the run.
pub fn ops_per_s_between(clients: &[Vec<Sample>], from_s: f64, to_s: f64) -> f64 {
    let n = clients
        .iter()
        .flatten()
        .filter(|s| s.ok && s.end_s >= from_s && s.end_s < to_s)
        .count();
    n as f64 / (to_s - from_s)
}

/// Tracing overhead of a traced run: by what share the mean op latency of
/// the traced slices of the first third exceeds that of the untraced
/// slices. Where ops come in cycles of `cycle` (1 otherwise), like is
/// compared with like: the means are taken per position in the cycle and
/// summed over the positions both kinds of slice saw. `None` if there is
/// no such position.
pub fn trace_overhead_share(clients: &[Vec<Sample>], seconds: f64, cycle: usize) -> Option<f64> {
    // Per position: (sum of ms, ops) untraced and traced.
    let mut seen = vec![[(0.0, 0_usize); 2]; cycle.max(1)];
    for client in clients {
        for (k, s) in client.iter().enumerate() {
            if s.ok && s.end_s < seconds / 3.0 {
                let kind = &mut seen[k % cycle.max(1)][traced_at(s.end_s, seconds) as usize];
                *kind = (kind.0 + s.op_ms, kind.1 + 1);
            }
        }
    }
    let mean = |(ms, ops): (f64, usize)| ms / ops as f64;
    let (untraced, traced) = seen
        .iter()
        .filter(|kinds| kinds.iter().all(|kind| kind.1 > 0))
        .fold((0.0, 0.0), |(u, t), kinds| {
            (u + mean(kinds[0]), t + mean(kinds[1]))
        });
    (untraced > 0.0).then(|| traced / untraced - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(end_s: f64, op_ms: f64, ok: bool) -> Sample {
        Sample {
            end_s,
            op_ms,
            first_ms: op_ms / 2.0,
            bytes: 10,
            ok,
            verified: ok,
            verify_s: 0.0,
            pause_cpu_s: 0.0,
        }
    }

    #[test]
    fn failed_ops_rank_as_the_slowest_samples() {
        let mut samples: Vec<Sample> = (0..199)
            .map(|i| sample(i as f64 * 0.01, 1.0 + i as f64 * 0.001, true))
            .collect();
        samples.push(sample(2.0, 0.1, false));
        let s = summarize(&[samples]);
        assert_eq!((s.attempted, s.failed, s.verified), (200, 1, 199));
        assert_eq!(s.ops_per_s, 199.0 / 2.0);
        // The failed op's 0.1 ms does not pull the percentiles down.
        assert_eq!(s.op_ms_p50, 1.099);
        assert_eq!(s.client_bytes_per_op, 10.0);
    }

    #[test]
    fn tracing_alternates_through_the_first_third_then_stays_on() {
        let on: Vec<bool> = (0..12).map(|i| traced_at(i as f64 + 0.5, 12.0)).collect();
        assert_eq!(on[..4], [true, false, false, true]);
        assert!(on[4..].iter().all(|&t| t));
        // 2 ms untraced, 3 ms traced: half again as slow.
        let samples: Vec<Sample> = (0..12)
            .map(|i| sample(i as f64 + 0.5, if on[i] { 3.0 } else { 2.0 }, true))
            .collect();
        let share = trace_overhead_share(&[samples], 12.0, 1).unwrap();
        assert!((share - 0.5).abs() < 1e-12);
        assert_eq!(
            trace_overhead_share(&[vec![sample(11.0, 1.0, true)]], 12.0, 1),
            None
        );
        // Cycles of a 1 ms and a 10 ms op: position 1 was never traced in
        // the first third, so position 0 alone is compared, like with like.
        let cycled: Vec<Sample> = [
            (0.25, 1.5),
            (1.25, 10.0),
            (1.75, 1.0),
            (2.25, 10.0),
            (3.25, 1.5),
        ]
        .iter()
        .map(|&(end_s, ms)| sample(end_s, ms, true))
        .collect();
        let share = trace_overhead_share(&[cycled], 12.0, 2).unwrap();
        assert!((share - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cycled_loop_runs_whole_cycles_within_the_run() {
        let tracer = Tracer::new();
        let ctl = RunCtl {
            tracer: &tracer,
            op_span: "bench.test.op",
            start: Instant::now(),
            length: Duration::from_millis(50),
            traced: false,
        };
        let mut cpu_of_pauses = 0.0;
        let samples = closed_loop_cycles(&ctl, 4, |op| {
            std::thread::sleep(Duration::from_millis(1));
            op.done(op.k as u64 % 4);
            // A pause that sleeps uses no CPU, whatever its wall time.
            op.untimed(|| std::thread::sleep(Duration::from_millis(1)));
            true
        });
        assert!(samples.len() >= 4 && samples.len() % 4 == 0);
        assert!(samples
            .iter()
            .enumerate()
            .all(|(k, s)| s.bytes == k as u64 % 4));
        assert!(ctl.elapsed() <= 0.06, "the last cycle overran the run");
        for s in &samples {
            assert!(s.verify_s >= 0.001);
            cpu_of_pauses += s.pause_cpu_s;
        }
        if process_cpu_seconds().is_some() {
            assert!(cpu_of_pauses.abs() < 0.02, "{cpu_of_pauses}");
        }
        // A run too short for one cycle still runs one.
        let short = RunCtl {
            length: Duration::ZERO,
            start: Instant::now(),
            ..ctl
        };
        assert_eq!(closed_loop_cycles(&short, 4, |_| true).len(), 4);
    }

    #[test]
    fn closed_loop_times_the_op_not_its_verification() {
        let tracer = Tracer::new();
        let ctl = RunCtl {
            tracer: &tracer,
            op_span: "bench.test.op",
            start: Instant::now(),
            length: Duration::from_millis(60),
            traced: true,
        };
        let samples = closed_loop(&ctl, |op| {
            {
                let _s = op.span("layer.work");
                std::thread::sleep(Duration::from_millis(2));
            }
            op.first_image();
            op.done(5);
            std::thread::sleep(Duration::from_millis(4));
            op.verified();
            true
        });
        assert!(
            samples.len() >= 3 && samples.len() <= 10,
            "{}",
            samples.len()
        );
        assert!(samples.iter().all(|s| s.op_ms < 4.0 && s.bytes == 5));
        assert!(samples.iter().all(|s| s.first_ms <= s.op_ms && s.verified));
        // The second and third slice of a traced run are untraced: not
        // every op has its two spans.
        let spans = tracer.spans();
        assert!(spans.iter().any(|s| s.name == "bench.test.op"));
        assert!(spans.len() < 2 * samples.len());
        let windows = ops_per_s_between(std::slice::from_ref(&samples), 0.0, 0.06);
        assert_eq!(windows, samples.len() as f64 / 0.06);
        // Throughput counts the 2 ms ops, not the 4 ms pauses between
        // them (with the pauses it could not pass 1000 / 6 per second).
        let summary = summarize(&[samples]);
        assert!(summary.ops_per_s > 170.0, "{}", summary.ops_per_s);
        assert!(summary.pause_cpu_s > 0.004 * 3.0);
    }
}
