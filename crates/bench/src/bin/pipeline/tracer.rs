//! The benchmark's own span recorder: an `accelviz_trace::Registry` it
//! owns, so the program's global tracer stays off and every span here is
//! taken from outside, around a call into a layer's public functions.
//!
//! One parent span `bench.<workload>.op` per op, one child span around
//! each call inside it. Parent and children carry the same `op` argument.
//! Spans stay in memory until the run ends.

use accelviz_trace::registry::{Registry, Span, SpanRecord};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;

/// The recorder. Off until [`Tracer::set_enabled`]; an inert span costs one
/// relaxed atomic load.
pub struct Tracer {
    reg: Registry,
}

impl Tracer {
    /// A recorder with span recording off.
    pub fn new() -> Tracer {
        Tracer {
            reg: Registry::new(),
        }
    }

    /// Turns span recording on or off. Every client thread calls this
    /// with the same function of the run's clock, so they agree.
    pub fn set_enabled(&self, enabled: bool) {
        self.reg.set_spans_enabled(enabled);
    }

    /// Opens a span tagged with the op it belongs to. Nests under the
    /// calling thread's innermost open span.
    pub fn span(&self, name: &'static str, op: usize) -> Span<'_> {
        let mut span = self.reg.span(name);
        span.arg("op", op as f64);
        span
    }

    /// Every finished span, in completion order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.reg.spans()
    }

    /// Writes the spans as Chrome trace JSON (`chrome://tracing`,
    /// Perfetto).
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        accelviz_trace::chrome::write_trace(path, &self.reg)
    }
}

/// Nanoseconds of `[start, start + dur)` that the union of `children`
/// intervals covers. Children are clipped to the parent and may overlap
/// each other (spans of pool threads do).
fn covered_ns(start: u64, dur: u64, children: &mut [(u64, u64)]) -> u64 {
    let end = start + dur;
    children.sort_unstable();
    let (mut covered, mut cursor) = (0u64, start);
    for &(c_start, c_dur) in children.iter() {
        let s = c_start.max(cursor);
        let e = (c_start + c_dur).min(end);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Self time of every span — its duration minus the part of that interval
/// its child spans cover — as milliseconds, grouped by span name.
pub fn self_times_ms(spans: &[SpanRecord]) -> BTreeMap<String, Vec<f64>> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.dur_ns));
        }
    }
    let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |c| covered_ns(s.start_ns, s.dur_ns, c));
        out.entry(s.name.to_string())
            .or_default()
            .push((s.dur_ns - covered) as f64 / 1e6);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, name: &'static str, start_ns: u64, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: name.into(),
            track: 1,
            start_ns,
            dur_ns,
            args: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = [
            rec(1, 0, "op", 1_000_000, 10_000_000),
            rec(2, 1, "a", 2_000_000, 3_000_000),
            rec(3, 1, "b", 6_000_000, 2_000_000),
            rec(4, 2, "a.inner", 2_500_000, 1_000_000),
        ];
        let t = self_times_ms(&spans);
        assert_eq!(t["op"], vec![5.0]);
        assert_eq!(t["a"], vec![2.0]);
        assert_eq!(t["b"], vec![2.0]);
        assert_eq!(t["a.inner"], vec![1.0]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // Two children overlap by 1 ms; a third runs 2 ms past the parent.
        let spans = [
            rec(1, 0, "op", 0, 10_000_000),
            rec(2, 1, "x", 1_000_000, 3_000_000),
            rec(3, 1, "x", 3_000_000, 3_000_000),
            rec(4, 1, "y", 9_000_000, 3_000_000),
        ];
        assert_eq!(self_times_ms(&spans)["op"], vec![4.0]);
    }

    #[test]
    fn recorder_nests_children_under_the_op_span() {
        let tracer = Tracer::new();
        drop(tracer.span("off", 0));
        assert!(tracer.spans().is_empty(), "recording starts off");
        tracer.set_enabled(true);
        {
            let _op = tracer.span("bench.t.op", 7);
            drop(tracer.span("layer.call", 7));
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let parent = spans.iter().find(|s| s.name == "bench.t.op").unwrap();
        let child = spans.iter().find(|s| s.name == "layer.call").unwrap();
        assert_eq!(child.parent, parent.id);
        assert_eq!(child.args, vec![("op", 7.0)]);
    }
}
