//! The thread-safe metrics registry and the span guard.
//!
//! A [`Registry`] owns named counters, gauges, and log-bucket histograms
//! plus a buffer of finished [`SpanRecord`]s. Counters and histograms are
//! always live; [`Registry::snapshot`] copies them out as one
//! [`Snapshot`], which is what an `accelviz-serve` `Stats` reply carries.
//! Span recording is gated by a per-registry atomic so instrumentation in
//! hot paths costs one relaxed load when tracing is off.
//!
//! Timing is monotonic: all timestamps are nanoseconds since a
//! process-wide anchor captured on first use ([`now_ns`]), so spans from
//! different threads land on one consistent timeline.

use crate::hist::LogHistogram;
use std::borrow::Cow;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Nanoseconds since the process-wide monotonic anchor (captured the
/// first time any trace timestamp is taken).
pub fn now_ns() -> u64 {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    ANCHOR.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

static NEXT_TRACK: AtomicU64 = AtomicU64::new(1);

fn track_names() -> &'static Mutex<Vec<(u64, String)>> {
    static NAMES: OnceLock<Mutex<Vec<(u64, String)>>> = OnceLock::new();
    NAMES.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static TRACK: Cell<u64> = const { Cell::new(0) };
    static CURRENT_SPAN: Cell<u64> = const { Cell::new(0) };
}

/// The calling thread's track id — a small process-unique integer
/// assigned on first use, used as the `tid` of Chrome trace events. One
/// OS thread keeps one track for the life of the process.
pub fn track_id() -> u64 {
    TRACK.with(|t| {
        let existing = t.get();
        if existing != 0 {
            return existing;
        }
        let id = NEXT_TRACK.fetch_add(1, Ordering::Relaxed);
        t.set(id);
        let name = std::thread::current()
            .name()
            .map(str::to_string)
            .unwrap_or_else(|| format!("thread-{id}"));
        track_names()
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((id, name));
        id
    })
}

/// Snapshot of `(track id, thread name)` pairs seen so far, for the
/// exporter's thread-name metadata events.
pub fn track_names_snapshot() -> Vec<(u64, String)> {
    track_names()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone()
}

/// Identity of a recorded span, used to parent spans across threads.
/// `SpanId::NONE` (`0`) means "no parent".
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The absent parent.
    pub const NONE: SpanId = SpanId(0);
}

/// One finished span: what ran, where, for how long, under whom.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Process-unique span id (ids start at 1).
    pub id: u64,
    /// Parent span id, `0` for a root span.
    pub parent: u64,
    /// Span name, e.g. `"octree.partition"`.
    pub name: Cow<'static, str>,
    /// Track (OS thread) the span ran on — see [`track_id`].
    pub track: u64,
    /// Start time, nanoseconds since the process anchor.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Numeric annotations attached via [`Span::arg`].
    pub args: Vec<(&'static str, f64)>,
}

/// Every counter and every histogram of a [`Registry`] at one instant,
/// keyed by name — what a server's `Stats` reply carries and what a
/// router sums over its shards. Gauges are last-write values, not sums,
/// so they stay out.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, LogHistogram>,
}

impl Snapshot {
    /// Value of counter `name` (zero if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Histogram `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<LogHistogram> {
        self.histograms.get(name).copied()
    }

    /// Adds `other` into `self`, name by name. Sums saturate: the values
    /// may come off a socket, and a peer reporting counters near
    /// `u64::MAX` must not wrap (or, in debug builds, panic) the sum.
    pub fn merge(&mut self, other: &Snapshot) {
        for (name, &value) in &other.counters {
            let sum = self.counters.entry(name.clone()).or_insert(0);
            *sum = sum.saturating_add(value);
        }
        for (name, hist) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(hist);
        }
    }
}

#[derive(Default)]
struct Inner {
    metrics: Snapshot,
    gauges: BTreeMap<String, f64>,
    spans: Vec<SpanRecord>,
}

/// A thread-safe registry of counters, gauges, histograms, and spans.
///
/// Create one per subsystem whose metrics must stay isolated (each
/// `accelviz-serve` server owns one), or use the process-wide
/// [`crate::global`] registry for trace export.
pub struct Registry {
    spans_enabled: AtomicBool,
    next_span_id: AtomicU64,
    inner: Mutex<Inner>,
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

impl Registry {
    /// A registry with span recording **off** (counters, gauges, and
    /// histograms still work — they are cheap and always wanted).
    pub fn new() -> Registry {
        Registry {
            spans_enabled: AtomicBool::new(false),
            next_span_id: AtomicU64::new(0),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// A registry with span recording **on** — the test/tooling
    /// convenience.
    pub fn with_spans() -> Registry {
        let reg = Registry::new();
        reg.set_spans_enabled(true);
        reg
    }

    /// Turns span recording on or off. Counters are unaffected.
    pub fn set_spans_enabled(&self, enabled: bool) {
        self.spans_enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether spans opened on this registry are currently recorded.
    pub fn spans_enabled(&self) -> bool {
        self.spans_enabled.load(Ordering::Relaxed)
    }

    /// Adds `delta` to counter `name` (creating it at zero), returning
    /// the new value.
    pub fn add(&self, name: &str, delta: u64) -> u64 {
        let counters = &mut self.lock().metrics.counters;
        match counters.get_mut(name) {
            Some(v) => {
                *v += delta;
                *v
            }
            None => {
                counters.insert(name.to_string(), delta);
                delta
            }
        }
    }

    /// Current value of counter `name` (zero if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().metrics.counter(name)
    }

    /// Snapshot of all counters.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        self.lock().metrics.counters.clone()
    }

    /// Sets gauge `name` to `value` (last write wins).
    pub fn set_gauge(&self, name: &str, value: f64) {
        let mut g = self.lock();
        match g.gauges.get_mut(name) {
            Some(v) => *v = value,
            None => {
                g.gauges.insert(name.to_string(), value);
            }
        }
    }

    /// Current value of gauge `name`, if ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.lock().gauges.get(name).copied()
    }

    /// Snapshot of all gauges.
    pub fn gauges(&self) -> BTreeMap<String, f64> {
        self.lock().gauges.clone()
    }

    /// Records a duration sample into histogram `name` (creating it).
    pub fn record_seconds(&self, name: &str, seconds: f64) {
        let histograms = &mut self.lock().metrics.histograms;
        match histograms.get_mut(name) {
            Some(h) => h.record(seconds),
            None => {
                let mut h = LogHistogram::default();
                h.record(seconds);
                histograms.insert(name.to_string(), h);
            }
        }
    }

    /// Snapshot of histogram `name`, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<LogHistogram> {
        self.lock().metrics.histogram(name)
    }

    /// Every counter and histogram, taken under one lock so they come
    /// from the same instant.
    pub fn snapshot(&self) -> Snapshot {
        self.lock().metrics.clone()
    }

    /// Opens a span named `name`, implicitly parented to the calling
    /// thread's innermost live span. When span recording is off this is
    /// one atomic load and the returned guard does nothing.
    ///
    /// The guard must be dropped on the thread that opened it (the
    /// ordinary RAII pattern); the span is recorded at drop.
    pub fn span(&self, name: impl Into<Cow<'static, str>>) -> Span<'_> {
        self.open_span(name.into(), None)
    }

    /// Opens a span with an explicit parent — for code running on pool
    /// worker threads, where the OS thread's implicit span stack does not
    /// reflect the logical computation (see `DESIGN.md` §9).
    pub fn span_child(&self, name: impl Into<Cow<'static, str>>, parent: SpanId) -> Span<'_> {
        self.open_span(name.into(), Some(parent.0))
    }

    fn open_span(&self, name: Cow<'static, str>, parent: Option<u64>) -> Span<'_> {
        if !self.spans_enabled() {
            return Span { state: None };
        }
        let id = self.next_span_id.fetch_add(1, Ordering::Relaxed) + 1;
        let parent = parent.unwrap_or_else(|| CURRENT_SPAN.with(Cell::get));
        let prev_current = CURRENT_SPAN.with(|c| c.replace(id));
        Span {
            state: Some(SpanState {
                reg: self,
                id,
                parent,
                prev_current,
                name,
                start_ns: now_ns(),
                args: Vec::new(),
            }),
        }
    }

    /// All finished spans, in completion order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.lock().spans.clone()
    }

    /// Number of finished spans.
    pub fn span_count(&self) -> usize {
        self.lock().spans.len()
    }

    /// Drops every recorded metric and span (the buffers, not the
    /// enabled flag).
    pub fn clear(&self) {
        let mut g = self.lock();
        g.metrics = Snapshot::default();
        g.gauges.clear();
        g.spans.clear();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // Metrics must survive a panicking recorder (the serve cache
        // intentionally panics through instrumented paths in tests), so
        // poisoning is ignored, as every lock in the workspace does.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn finish(&self, record: SpanRecord) {
        self.lock().spans.push(record);
    }
}

struct SpanState<'r> {
    reg: &'r Registry,
    id: u64,
    parent: u64,
    prev_current: u64,
    name: Cow<'static, str>,
    start_ns: u64,
    args: Vec<(&'static str, f64)>,
}

/// An open span. Records itself into its registry when dropped; inert
/// (and free) when the registry had span recording off at open time.
pub struct Span<'r> {
    state: Option<SpanState<'r>>,
}

impl Span<'_> {
    /// This span's id, for explicit cross-thread parenting —
    /// [`SpanId::NONE`] when the span is inert.
    pub fn id(&self) -> SpanId {
        SpanId(self.state.as_ref().map_or(0, |s| s.id))
    }

    /// Whether this span will be recorded.
    pub fn is_active(&self) -> bool {
        self.state.is_some()
    }

    /// Attaches a numeric annotation (dropped silently on an inert
    /// span). Non-finite values export as quoted strings in JSON.
    pub fn arg(&mut self, key: &'static str, value: f64) {
        if let Some(s) = self.state.as_mut() {
            s.args.push((key, value));
        }
    }

    /// Seconds since the span opened (0 for an inert span) — handy for
    /// derived args like particles/second.
    pub fn elapsed_seconds(&self) -> f64 {
        self.state
            .as_ref()
            .map_or(0.0, |s| (now_ns().saturating_sub(s.start_ns)) as f64 / 1e9)
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let Some(state) = self.state.take() else {
            return;
        };
        CURRENT_SPAN.with(|c| c.set(state.prev_current));
        let end = now_ns();
        state.reg.finish(SpanRecord {
            id: state.id,
            parent: state.parent,
            name: state.name,
            track: track_id(),
            start_ns: state.start_ns,
            dur_ns: end.saturating_sub(state.start_ns),
            args: state.args,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let reg = Registry::new();
        assert_eq!(reg.counter("x"), 0);
        assert_eq!(reg.add("x", 3), 3);
        assert_eq!(reg.add("x", 4), 7);
        assert_eq!(reg.counter("x"), 7);
        assert_eq!(reg.counters().get("x"), Some(&7));
    }

    #[test]
    fn concurrent_counter_increments_are_exact() {
        let reg = Arc::new(Registry::new());
        let threads = 8;
        let per_thread = 1_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let reg = Arc::clone(&reg);
                std::thread::spawn(move || {
                    for _ in 0..per_thread {
                        reg.add("hits", 1);
                        reg.record_seconds("lat", 1e-5);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reg.counter("hits"), threads as u64 * per_thread);
        assert_eq!(
            reg.histogram("lat").unwrap().total(),
            threads as u64 * per_thread
        );
    }

    #[test]
    fn snapshot_holds_every_counter_and_histogram_but_no_gauge() {
        let reg = Registry::new();
        reg.add("b", 2);
        reg.add("a", 1);
        reg.record_seconds("lat", 0.002);
        reg.set_gauge("mem", 4.0);
        let snap = reg.snapshot();
        assert_eq!(snap.counters, reg.counters());
        assert_eq!((snap.counter("a"), snap.counter("b")), (1, 2));
        assert_eq!(snap.counter("absent"), 0);
        assert_eq!(snap.histogram("lat").unwrap().total(), 1);
        assert_eq!(snap.histogram("mem"), None);
        assert_eq!(Registry::new().snapshot(), Snapshot::default());
    }

    #[test]
    fn merge_sums_by_name_and_keeps_names_only_one_side_has() {
        let (a, b) = (Registry::new(), Registry::new());
        a.add("shared", 5);
        a.add("only_a", 1);
        b.add("shared", 7);
        a.record_seconds("lat", 0.002);
        b.record_seconds("lat", 2.0);
        b.record_seconds("only_b", 0.002);
        let mut total = a.snapshot();
        total.merge(&b.snapshot());
        assert_eq!(total.counter("shared"), 12);
        assert_eq!(total.counter("only_a"), 1);
        let lat = total.histogram("lat").unwrap();
        assert_eq!((lat.counts[2], lat.counts[5]), (1, 1));
        assert_eq!(total.histogram("only_b").unwrap().total(), 1);
    }

    #[test]
    fn merge_saturates_counters_and_histogram_buckets() {
        let near = u64::MAX - 1;
        let peer = Snapshot {
            counters: [("serve.requests".to_string(), near)].into(),
            histograms: [(
                "serve.request_latency".to_string(),
                LogHistogram {
                    counts: [near; crate::hist::LATENCY_BUCKETS],
                },
            )]
            .into(),
        };
        let mut total = peer.clone();
        total.merge(&peer);
        assert_eq!(total.counter("serve.requests"), u64::MAX);
        let hist = total.histogram("serve.request_latency").unwrap();
        assert!(hist.counts.iter().all(|&c| c == u64::MAX));
        assert_eq!(hist.total(), u64::MAX);
    }

    #[test]
    fn gauges_keep_the_last_value() {
        let reg = Registry::new();
        assert_eq!(reg.gauge("mem"), None);
        reg.set_gauge("mem", 10.0);
        reg.set_gauge("mem", 4.0);
        assert_eq!(reg.gauge("mem"), Some(4.0));
    }

    #[test]
    fn spans_nest_implicitly_within_a_thread() {
        let reg = Registry::with_spans();
        {
            let outer = reg.span("outer");
            let outer_id = outer.id().0;
            {
                let inner = reg.span("inner");
                assert_ne!(inner.id().0, outer_id);
            }
            let sibling = reg.span("sibling");
            drop(sibling);
        }
        let spans = reg.spans();
        assert_eq!(spans.len(), 3);
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
        let outer = by_name("outer");
        assert_eq!(outer.parent, 0, "outer is a root span");
        assert_eq!(by_name("inner").parent, outer.id);
        assert_eq!(by_name("sibling").parent, outer.id);
        // Nesting in time: the parent contains its children.
        for child in ["inner", "sibling"].map(by_name) {
            assert!(child.start_ns >= outer.start_ns);
            assert!(child.start_ns + child.dur_ns <= outer.start_ns + outer.dur_ns);
        }
    }

    #[test]
    fn explicit_parenting_crosses_threads() {
        let reg = Arc::new(Registry::with_spans());
        let parent_id = {
            let parent = reg.span("logical-root");
            let pid = parent.id();
            let workers: Vec<_> = (0..4)
                .map(|i| {
                    let reg = Arc::clone(&reg);
                    std::thread::spawn(move || {
                        let mut s = reg.span_child("worker-job", pid);
                        s.arg("index", i as f64);
                    })
                })
                .collect();
            for w in workers {
                w.join().unwrap();
            }
            pid.0
        };
        let spans = reg.spans();
        let jobs: Vec<_> = spans.iter().filter(|s| s.name == "worker-job").collect();
        assert_eq!(jobs.len(), 4);
        for job in &jobs {
            assert_eq!(job.parent, parent_id, "explicit parent wins on workers");
        }
        // The jobs ran on other OS threads, so their tracks differ from
        // the root's.
        let root = spans.iter().find(|s| s.name == "logical-root").unwrap();
        assert!(jobs.iter().all(|j| j.track != root.track));
    }

    #[test]
    fn disabled_spans_record_nothing_and_have_no_id() {
        let reg = Registry::new();
        {
            let mut s = reg.span("ghost");
            assert!(!s.is_active());
            assert_eq!(s.id(), SpanId::NONE);
            s.arg("ignored", 1.0);
            assert_eq!(s.elapsed_seconds(), 0.0);
        }
        assert_eq!(reg.span_count(), 0);
    }

    #[test]
    fn span_args_and_durations_are_recorded() {
        let reg = Registry::with_spans();
        {
            let mut s = reg.span("work");
            s.arg("items", 42.0);
            std::thread::sleep(std::time::Duration::from_millis(2));
            assert!(s.elapsed_seconds() > 0.0);
        }
        let spans = reg.spans();
        assert_eq!(spans[0].args, vec![("items", 42.0)]);
        assert!(spans[0].dur_ns >= 1_000_000, "slept ≥1ms");
    }

    #[test]
    fn clear_resets_buffers_but_not_the_switch() {
        let reg = Registry::with_spans();
        reg.add("c", 1);
        drop(reg.span("s"));
        reg.clear();
        assert_eq!(reg.counter("c"), 0);
        assert_eq!(reg.span_count(), 0);
        assert!(reg.spans_enabled());
    }

    #[test]
    fn now_ns_is_monotone() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
