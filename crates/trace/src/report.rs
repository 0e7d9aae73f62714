//! Plain-text summary reports.
//!
//! Where [`crate::chrome`] targets a tracing UI, this module renders the
//! same registry for a terminal: counters and gauges as aligned tables,
//! histograms as labeled bucket rows, and spans aggregated by name
//! (count / total / mean / max) followed by an indented tree of the
//! logical span hierarchy — explicit cross-thread parents included, which
//! is exactly what the Chrome view cannot show.

use crate::hist::{LogHistogram, LATENCY_BUCKETS};
use crate::registry::{Registry, Snapshot, SpanRecord};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Renders the whole registry as a human-readable report.
pub fn summary(reg: &Registry) -> String {
    let mut out = metrics(&reg.snapshot());

    let gauges = reg.gauges();
    if !gauges.is_empty() {
        out.push_str("gauges:\n");
        let width = gauges.keys().map(String::len).max().unwrap_or(0);
        for (name, value) in &gauges {
            let _ = writeln!(out, "  {name:<width$}  {value}");
        }
    }

    let spans = reg.spans();
    if !spans.is_empty() {
        out.push_str(&span_aggregates(&spans));
        out.push_str(&span_tree(&spans));
    }

    if out.is_empty() {
        out.push_str("(registry is empty)\n");
    }
    out
}

/// Renders a [`Snapshot`] — a registry's own, or one a `Stats` reply
/// carried — as [`summary`]'s counter table and histogram rows.
pub fn metrics(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    let counters = &snapshot.counters;
    if !counters.is_empty() {
        out.push_str("counters:\n");
        let width = counters.keys().map(String::len).max().unwrap_or(0);
        for (name, value) in counters {
            let _ = writeln!(out, "  {name:<width$}  {value}");
        }
    }
    for (name, hist) in &snapshot.histograms {
        let _ = writeln!(out, "histogram {name} ({} samples):", hist.total());
        for i in 0..LATENCY_BUCKETS {
            if hist.counts[i] > 0 {
                let _ = writeln!(out, "  {:<8}  {}", LogHistogram::label(i), hist.counts[i]);
            }
        }
    }
    out
}

fn span_aggregates(spans: &[SpanRecord]) -> String {
    struct Agg {
        count: u64,
        total_ns: u64,
        max_ns: u64,
    }
    let mut by_name: BTreeMap<&str, Agg> = BTreeMap::new();
    for span in spans {
        let agg = by_name.entry(span.name.as_ref()).or_insert(Agg {
            count: 0,
            total_ns: 0,
            max_ns: 0,
        });
        agg.count += 1;
        agg.total_ns += span.dur_ns;
        agg.max_ns = agg.max_ns.max(span.dur_ns);
    }
    let width = by_name.keys().map(|n| n.len()).max().unwrap_or(0).max(4);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "spans by name:\n  {:<width$}  {:>6}  {:>10}  {:>10}  {:>10}",
        "name", "count", "total", "mean", "max"
    );
    for (name, agg) in &by_name {
        let _ = writeln!(
            out,
            "  {name:<width$}  {:>6}  {:>10}  {:>10}  {:>10}",
            agg.count,
            fmt_ns(agg.total_ns),
            fmt_ns(agg.total_ns / agg.count),
            fmt_ns(agg.max_ns),
        );
    }
    out
}

fn span_tree(spans: &[SpanRecord]) -> String {
    // Rebuild the logical hierarchy from parent ids (the explicit
    // cross-thread links included), children in start order.
    let mut children: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
    let known: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.id).collect();
    for span in spans {
        // A parent that was never recorded (still open at export, or from
        // a cleared buffer) degrades to a root rather than vanishing.
        let parent = if known.contains(&span.parent) {
            span.parent
        } else {
            0
        };
        children.entry(parent).or_default().push(span);
    }
    for list in children.values_mut() {
        list.sort_by_key(|s| s.start_ns);
    }

    let mut out = String::from("span tree:\n");
    fn emit(out: &mut String, children: &BTreeMap<u64, Vec<&SpanRecord>>, id: u64, depth: usize) {
        let Some(kids) = children.get(&id) else {
            return;
        };
        for span in kids {
            let indent = "  ".repeat(depth + 1);
            let _ = write!(out, "{indent}{} [{}]", span.name, fmt_ns(span.dur_ns));
            for (key, value) in &span.args {
                let _ = write!(out, " {key}={value}");
            }
            out.push('\n');
            emit(out, children, span.id, depth + 1);
        }
    }
    emit(&mut out, &children, 0, 0);
    out
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_registry_reports_as_empty() {
        let reg = Registry::new();
        assert_eq!(summary(&reg), "(registry is empty)\n");
    }

    #[test]
    fn report_covers_all_four_sections() {
        let reg = Registry::with_spans();
        reg.add("serve.requests", 3);
        reg.set_gauge("render.texture_bytes", 4096.0);
        reg.record_seconds("serve.request_latency", 0.002);
        {
            let outer = reg.span("octree.partition");
            let mut child = reg.span_child("octree.octant", outer.id());
            child.arg("octant", 5.0);
        }
        let text = summary(&reg);
        assert!(text.contains("counters:"));
        assert!(text.contains("serve.requests"));
        assert!(text.contains("gauges:"));
        assert!(text.contains("histogram serve.request_latency (1 samples):"));
        assert!(text.contains("spans by name:"));
        assert!(text.contains("span tree:"));
        // The child nests under its explicit parent in the tree.
        let tree_at = text.find("span tree:").unwrap();
        let tree = &text[tree_at..];
        let outer_at = tree.find("octree.partition").unwrap();
        let child_at = tree.find("octree.octant").unwrap();
        assert!(child_at > outer_at);
        assert!(tree.contains("octant=5"));
    }

    #[test]
    fn orphaned_parents_degrade_to_roots() {
        let reg = Registry::with_spans();
        // Parent id 999 was never recorded.
        drop(reg.span_child("stray", crate::registry::SpanId(999)));
        let text = summary(&reg);
        assert!(text.contains("stray"), "orphan still appears: {text}");
    }
}
