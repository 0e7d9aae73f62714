//! The seven workloads. Each sets itself up from the seed, runs its
//! clients' closed loops, verifies what they produced, and — in the traced
//! run — probes the layers on its path.

pub mod fields;
pub mod prep;
pub mod render;
pub mod serve;
pub mod view;

use crate::data::Scale;
use crate::run::{RunCtl, Sample};
use crate::stats::median;
use accelviz_trace::registry::{Registry, SpanRecord};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// One workload: set-up, the timed run, and the layer probes.
pub trait Workload: Sized {
    /// The per-op parent span, `bench.<workload>.op`.
    const OP_SPAN: &'static str;

    /// Everything before the first timed op: data generation, server
    /// spawn, and one warm-up cycle. Timed as `setup_s`.
    fn setup(seed: u64, scale: &Scale, scratch: &Path) -> Self;

    /// Runs every client's closed loop for the length of the run and
    /// returns their samples, one vector per client.
    fn run(&mut self, ctl: &RunCtl<'_>) -> Vec<Vec<Sample>>;

    /// Ops in one cycle of the schedule, where op `k` does the work of
    /// position `k % cycle` and the run is made of whole cycles; 1 where
    /// every op is like the next.
    fn cycle_ops(&self) -> usize {
        1
    }

    /// Bytes the servers count as sent so far, where the workload has a
    /// server; the run's delta is its delivered bytes. `None` where the
    /// clients count bytes themselves.
    fn bytes_sent(&self) -> Option<u64> {
        None
    }

    /// Outputs whose verification was put off until after the run;
    /// returns how many failed it.
    fn verify_deferred(&mut self) -> usize {
        0
    }

    /// The traced run's extras: this workload's layer probes — direct
    /// calls on the same inputs — and the counters of the layers on its
    /// path, recorded by name into `out`.
    fn layers(&mut self, traced: &Traced<'_>, out: &mut Layers);

    /// Stops servers and joins their threads.
    fn teardown(self) {}
}

/// What the traced loop left for [`Workload::layers`] to read.
pub struct Traced<'a> {
    pub spans: &'a [SpanRecord],
    pub samples: &'a [Vec<Sample>],
    /// Seconds the run lasted.
    pub seconds: f64,
}

impl Traced<'_> {
    /// Durations in milliseconds of every span called `name`.
    pub fn span_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 / 1e6)
            .collect()
    }

    /// Argument `arg` of every span called `name` that carries it.
    pub fn span_args(&self, name: &str, arg: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| s.args.iter().find(|(k, _)| *k == arg).map(|&(_, v)| v))
            .collect()
    }
}

/// Per-layer values by metric name. A metric the run did not measure —
/// its layer is not on this workload's path, or the counter it reads is
/// not in the registry — has no value: it is never reported as a
/// measured 0.
#[derive(Default)]
pub struct Layers {
    values: BTreeMap<String, f64>,
    /// Measurements this workload owes and could not take.
    pub problems: Vec<String>,
}

impl Layers {
    pub fn set(&mut self, name: &str, value: f64) {
        debug_assert!(
            crate::spec::PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not a per-layer metric"
        );
        self.values.insert(name.to_string(), value);
    }

    /// Records the median of `samples`, if there are any.
    pub fn set_median(&mut self, name: &str, samples: &[f64]) {
        if !samples.is_empty() {
            self.set(name, median(samples));
        }
    }

    /// Records that `name`, which this workload exists to measure, could
    /// not be measured; the run is then not correct.
    pub fn fail(&mut self, name: &str, why: &str) {
        self.problems
            .push(format!("{name} was not measured: {why}"));
    }

    /// Records counter `key` of `reg`, read by string so a renamed
    /// counter cannot break the build. A counter the registry does not
    /// hold (never incremented, or renamed) is left unmeasured.
    pub fn set_counter(&mut self, name: &str, reg: &Registry, key: &str) {
        if let Some(&count) = reg.counters().get(key) {
            self.set(name, count as f64);
        }
    }

    /// Records what a frame server's registry says about the run — cache
    /// hit ratio, its own latency histogram's p95 bucket edge, sheds,
    /// accept errors, handler panics — and the client-side resilience
    /// counters of the process.
    pub fn set_server_counters(&mut self, reg: &Registry) {
        let (hits, misses) = (
            reg.counter("serve.cache_hits"),
            reg.counter("serve.cache_misses"),
        );
        if let Some(share) = ratio(hits, hits + misses) {
            self.set("serve.cache_hit_ratio", share);
        }
        let p95 = reg
            .histogram("serve.request_latency")
            .and_then(|h| h.quantile_upper_bound(0.95));
        if let Some(seconds) = p95 {
            self.set("serve.request_latency_p95_upper_ms", seconds * 1e3);
        }
        for name in [
            "serve.shed_connections",
            "serve.shed_extractions",
            "serve.accept_errors",
            "serve.handler_panics",
        ] {
            self.set_counter(name, reg, name);
        }
        for name in [
            "client.retries",
            "client.reconnects",
            "client.degraded_frames",
        ] {
            self.set_counter(name, accelviz_trace::global(), name);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }
}

/// Times `samples` calls of `f`, in milliseconds each.
pub fn probe_ms(samples: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

/// part ÷ whole; `None` when nothing was counted.
pub fn ratio(part: u64, whole: u64) -> Option<f64> {
    (whole > 0).then(|| part as f64 / whole as f64)
}
