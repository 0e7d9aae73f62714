//! End-to-end pipeline observability for the `accelviz` workspace.
//!
//! The paper's whole argument is a latency/size budget — partition on the
//! supercomputer (§2.3), extract a compact hybrid representation (§2.3),
//! ship it to a desktop (§2.1), render interactively (§2.4–2.5) — and a
//! budget you cannot measure is a budget you cannot keep. This crate is
//! the measuring instrument: a thread-safe registry of **counters**,
//! **gauges**, and **log-bucket histograms**, plus nestable **spans** with
//! monotonic timing, exportable as a `chrome://tracing`-compatible JSON
//! trace ([`chrome`]) or a plain-text summary ([`report`]).
//!
//! It depends on nothing but `std`, so every crate in the workspace can
//! use it without dependency cycles or vendored shims.
//!
//! # Two kinds of registry
//!
//! - The **global registry** ([`global`]) is the process-wide trace sink.
//!   Spans recorded through the free functions [`span`] and [`span_child`]
//!   land here. Span recording is **off by default** and enabled by the
//!   `ACCELVIZ_TRACE=path.json` environment switch (or explicitly via
//!   [`registry::Registry::set_spans_enabled`]); a disabled span is a
//!   single atomic load and no clock read, so instrumentation left in hot
//!   paths costs nothing measurable when tracing is off.
//! - **Private registries** ([`registry::Registry::new`]) isolate one
//!   subsystem's metrics — `accelviz-serve` gives each server its own, so
//!   two servers in one process never mix request counters.
//!
//! # Spans across the thread pool
//!
//! Within one thread, spans nest implicitly: a span opened while another
//! is live becomes its child. Across the rayon pool that rule breaks —
//! a worker (or a cooperatively-stealing waiter) runs jobs on an OS
//! thread with no relation to the logical computation — so fan-out sites
//! pass the logical parent explicitly with [`span_child`]. See
//! `DESIGN.md` §9 for the full argument.
//!
//! # Example
//!
//! ```
//! use accelviz_trace::registry::Registry;
//!
//! let reg = Registry::with_spans();
//! {
//!     let mut outer = reg.span("octree.partition");
//!     outer.arg("particles", 50_000.0);
//!     let _inner = reg.span("octree.project"); // implicit child of outer
//! }
//! reg.add("frames_served", 1);
//! reg.record_seconds("request_latency", 0.004);
//!
//! let spans = reg.spans();
//! assert_eq!(spans.len(), 2);
//! let json = accelviz_trace::chrome::trace_json(&reg);
//! assert!(json.contains("octree.partition"));
//! println!("{}", accelviz_trace::report::summary(&reg));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod chrome;
pub mod hist;
pub mod registry;
pub mod report;

use registry::{Registry, Span, SpanId};
use std::borrow::Cow;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// The process-wide registry that the free-function span API records
/// into. Span recording is enabled iff `ACCELVIZ_TRACE` was set when the
/// registry was first touched (or [`registry::Registry::set_spans_enabled`]
/// was called on it); counters and histograms always work.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let reg = Registry::new();
        if trace_path().is_some() {
            reg.set_spans_enabled(true);
        }
        reg
    })
}

/// The trace artifact path from the `ACCELVIZ_TRACE` environment
/// variable, read once per process. `None` when unset or empty —
/// tracing stays off and [`flush`] is a no-op.
pub fn trace_path() -> Option<&'static Path> {
    static PATH: OnceLock<Option<PathBuf>> = OnceLock::new();
    PATH.get_or_init(|| {
        std::env::var_os("ACCELVIZ_TRACE")
            .filter(|v| !v.is_empty())
            .map(PathBuf::from)
    })
    .as_deref()
}

/// Opens a span on the [`global`] registry, implicitly parented to the
/// current thread's innermost live span. Inert (no clock read, nothing
/// recorded) unless tracing is enabled.
pub fn span(name: impl Into<Cow<'static, str>>) -> Span<'static> {
    global().span(name)
}

/// Opens a span on the [`global`] registry with an **explicit** parent —
/// the cross-thread form used at parallel fan-out sites, where the OS
/// thread's implicit span stack does not reflect the logical computation.
pub fn span_child(name: impl Into<Cow<'static, str>>, parent: SpanId) -> Span<'static> {
    global().span_child(name, parent)
}

/// Writes the global registry's Chrome trace to the `ACCELVIZ_TRACE`
/// path, returning the path written, or `Ok(None)` when the variable is
/// unset. Call this at the end of an example or benchmark run; the
/// artifact opens directly in `chrome://tracing` / Perfetto.
pub fn flush() -> io::Result<Option<PathBuf>> {
    match trace_path() {
        Some(path) => {
            chrome::write_trace(path, global())?;
            Ok(Some(path.to_path_buf()))
        }
        None => Ok(None),
    }
}

/// The plain-text summary of the global registry — counters, gauges,
/// histograms, and per-name span aggregates.
pub fn summary() -> String {
    report::summary(global())
}
