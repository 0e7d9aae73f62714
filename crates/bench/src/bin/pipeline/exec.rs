//! Runs one workload once: set-up (repeated, for a steady `setup_s`),
//! the timed closed loop, verification, and — in the traced run — the
//! layer probes. Produces the run's metrics by name.

use crate::data::Scale;
use crate::run::{summarize, trace_overhead_share, RunCtl};
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::{chunk_count, median, reportable, samples_beyond, MIN_OPS};
use crate::sys::{peak_rss_mib, process_cpu_seconds, Scratch};
use crate::tracer::{self_times_ms, Tracer};
use crate::workloads::{fields, prep, render, serve, view, Layers, Traced, Workload};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-ups of an untraced run: at least this many, more while they are
/// short, so the median set-up time is steady.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;
const SETUP_BUDGET_S: f64 = 1.5;

/// How one run is to be made.
pub struct RunOpts {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    /// Where the traced run writes its Chrome trace, if anywhere.
    pub trace_out: Option<PathBuf>,
}

impl RunOpts {
    fn scale(&self) -> Scale {
        if self.smoke {
            Scale::SMOKE
        } else {
            Scale::FULL
        }
    }
}

/// What one run measured.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    /// Every output verified, enough ops for `p95`, optimized build.
    pub correct: bool,
    /// Why `correct` is false, if it is.
    pub problems: Vec<String>,
    /// `(name, value, unit)` of every end-to-end metric.
    pub end_to_end: Vec<(&'static str, f64, &'static str)>,
    /// The same for every per-layer metric, traced runs only; `None`
    /// where this run did not measure it.
    pub per_layer: Vec<(&'static str, Option<f64>, &'static str)>,
    /// Samples behind `op_ms_p95`, the chunks they were cut into, and
    /// the samples beyond the percentile in each chunk; printed beside it.
    pub p95_samples: (usize, usize, usize),
    /// The longest single op: how long a client froze.
    pub worst_op_ms: f64,
}

/// Runs the workload called `name`; `None` if there is no such workload.
pub fn run_workload(name: &str, opts: &RunOpts) -> Option<Outcome> {
    Some(match name {
        "prep_series" => execute::<prep::PrepSeries>(opts),
        "view_remote" => execute::<view::ViewRemote>(opts),
        "view_progressive" => execute::<view::ViewProgressive>(opts),
        "serve_churn" => execute::<serve::ServeChurn>(opts),
        "serve_failover" => execute::<serve::ServeFailover>(opts),
        "render_local" => execute::<render::RenderLocal>(opts),
        "field_lines" => execute::<fields::FieldLines>(opts),
        _ => return None,
    })
}

fn execute<W: Workload>(opts: &RunOpts) -> Outcome {
    let scale = opts.scale();
    let scratch = Scratch::create().expect("create the scratch directory");

    // Set-up, timed. An untraced full run sets up several times and keeps
    // the last; the others are torn down at once so memory peaks once.
    let timed_setup = || {
        let t0 = Instant::now();
        let w = W::setup(opts.seed, &scale, scratch.path());
        (w, t0.elapsed().as_secs_f64())
    };
    let (mut workload, first) = timed_setup();
    let mut setup_s = vec![first];
    if !opts.traced && !opts.smoke {
        while setup_s.len() < MIN_SETUPS
            || (setup_s.iter().sum::<f64>() < SETUP_BUDGET_S && setup_s.len() < MAX_SETUPS)
        {
            workload.teardown();
            let (w, s) = timed_setup();
            workload = w;
            setup_s.push(s);
        }
    }

    // The timed window.
    let tracer = Tracer::new();
    let bytes_before = workload.bytes_sent();
    let cpu_before = process_cpu_seconds();
    let ctl = RunCtl {
        tracer: &tracer,
        op_span: W::OP_SPAN,
        start: Instant::now(),
        length: Duration::from_secs_f64(opts.seconds),
        traced: opts.traced,
    };
    let samples = workload.run(&ctl);
    let cpu_s = process_cpu_seconds()
        .zip(cpu_before)
        .map_or(0.0, |(after, before)| after - before);
    let server_bytes = workload
        .bytes_sent()
        .zip(bytes_before)
        .map(|(after, before)| after - before);

    let summary = summarize(&samples);
    let deferred_failures = workload.verify_deferred();
    let failed = summary.failed + deferred_failures;
    let ok_ops = (summary.attempted - summary.failed).max(1) as f64;
    let bytes_per_op = server_bytes.map_or(summary.client_bytes_per_op, |b| b as f64 / ok_ops);

    let mut per_layer = Vec::new();
    let mut problems = Vec::new();
    if opts.traced {
        let spans = tracer.spans();
        let mut layers = Layers::default();
        let traced = Traced {
            spans: &spans,
            samples: &samples,
            seconds: opts.seconds,
        };
        workload.layers(&traced, &mut layers);

        if let Some(share) = trace_overhead_share(&samples, opts.seconds, workload.cycle_ops()) {
            layers.set("trace.overhead_share", share);
        }
        if let Some(own) = self_times_ms(&spans).get(W::OP_SPAN) {
            layers.set_median("bench.op_self_ms_p50", own);
        }
        layers.set("bench.ops", summary.attempted as f64);
        layers.set("bench.verified_ops", summary.verified as f64);
        layers.set(
            "bench.failed_share",
            failed as f64 / summary.attempted as f64,
        );
        layers.set("bench.worst_op_ms", summary.worst_op_ms);
        if let Some(path) = &opts.trace_out {
            tracer.write_chrome(path).expect("write the Chrome trace");
        }
        per_layer = PER_LAYER
            .iter()
            .map(|m| (m.name, layers.get(m.name), m.unit))
            .collect();
        // A smoke run is too short for the waits of the full one.
        if !opts.smoke {
            problems = layers.problems;
        }
    }
    workload.teardown();

    let value = |name: &str| match name {
        "setup_s" => median(&setup_s),
        "ops_per_s" => summary.ops_per_s,
        "op_ms_p50" => summary.op_ms_p50,
        "op_ms_p95" => summary.op_ms_p95,
        "first_image_ms_p50" => summary.first_image_ms_p50,
        "bytes_per_op" => bytes_per_op,
        // Without the pauses between ops: verification, which is one
        // thread computing, so its wall time stands for its CPU time, and
        // what a workload measured itself (`Op::untimed`).
        "cpu_ms_per_op" => (cpu_s - summary.pause_cpu_s) * 1e3 / ok_ops,
        "peak_rss_mib" => peak_rss_mib().unwrap_or(0.0),
        other => unreachable!("no value for end-to-end metric {other}"),
    };
    let end_to_end: Vec<_> = END_TO_END
        .iter()
        .map(|m| (m.name, value(m.name), m.unit))
        .collect();

    if failed > 0 {
        problems.push(format!(
            "{failed} of {} ops failed or did not verify",
            summary.attempted
        ));
    }
    if !opts.smoke && !reportable(summary.attempted, 0.95) {
        problems.push(format!(
            "{} ops completed; {MIN_OPS} are needed for p95 to have ten samples beyond it",
            summary.attempted
        ));
    }
    if summary.verified == 0 {
        problems.push("no op's output was verified".to_string());
    }
    // A zero is a measurement that did not happen (a byte counter that
    // is gone, a clock that did not tick), not the best possible value.
    for &(name, v, _) in &end_to_end {
        if !(v.is_finite() && v > 0.0) {
            problems.push(format!("{name} is {v}: not measured"));
        }
    }
    Outcome {
        attempted: summary.attempted,
        failed,
        correct: problems.is_empty(),
        problems,
        end_to_end,
        per_layer,
        p95_samples: (
            summary.attempted,
            chunk_count(summary.attempted),
            samples_beyond(summary.attempted / chunk_count(summary.attempted), 0.95),
        ),
        worst_op_ms: summary.worst_op_ms,
    }
}
