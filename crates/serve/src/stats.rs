//! Per-request observability: counters and a latency histogram the server
//! accumulates and reports through the `Stats` reply.
//!
//! The counters live in an [`accelviz_trace::registry::Registry`] owned by
//! each server (so two servers in one process never mix numbers), under
//! the `serve.*` names below; [`ServerStats::from_registry`] assembles the
//! wire-shaped snapshot from it. The histogram type is the shared
//! [`accelviz_trace::hist::LogHistogram`] — the bucket layout the `Stats`
//! reply has always carried — re-exported under its historical name so the
//! wire codec and existing callers are untouched.

use accelviz_trace::registry::Registry;

pub use accelviz_trace::hist::{
    LogHistogram as LatencyHistogram, LATENCY_BUCKETS, LATENCY_EDGES_US,
};

/// Registry counter: requests handled, across all clients and kinds.
pub const CTR_REQUESTS: &str = "serve.requests";
/// Registry counter: frame replies sent.
pub const CTR_FRAMES_SERVED: &str = "serve.frames_served";
/// Registry counter: payload + framing bytes written to clients.
pub const CTR_BYTES_SENT: &str = "serve.bytes_sent";
/// Registry counter: frame requests answered from the extraction cache.
pub const CTR_CACHE_HITS: &str = "serve.cache_hits";
/// Registry counter: frame requests that ran a fresh extraction.
pub const CTR_CACHE_MISSES: &str = "serve.cache_misses";
/// Registry histogram: request service-time distribution.
pub const HIST_LATENCY: &str = "serve.request_latency";
/// Registry counter: connections refused at the connection cap (the
/// client got an in-band `ERR_BUSY` and the socket was closed).
pub const CTR_SHED_CONNECTIONS: &str = "serve.shed_connections";
/// Registry counter: frame requests refused at the in-flight extraction
/// limit (in-band `ERR_BUSY`; the connection stays usable).
pub const CTR_SHED_EXTRACTIONS: &str = "serve.shed_extractions";
/// Registry counter: read-ahead hints the door handed the server — frame
/// requests that continued a forward step sequence. Registry-only, like
/// the two below: the `Stats` wire shape is frozen.
pub const CTR_READAHEAD_HINTS: &str = "serve.readahead_hints";
/// Registry counter: extractions the read-ahead helper ran (each one a
/// page-in, extraction and encode that a later request finds done).
/// Never also a `serve.cache_misses`: that counts requests.
pub const CTR_READAHEAD_FETCHES: &str = "serve.readahead_fetches";
/// Registry counter: hints dropped unserved — the helper's one-slot
/// queue was full (or the helper absent), no extraction permit was free,
/// or the run's residency budget cannot hold two frames. Never also a
/// `serve.shed_extractions`: nothing was refused to anyone.
pub const CTR_READAHEAD_DROPPED: &str = "serve.readahead_dropped";
/// Registry counter: `accept(2)` failures on the listener (fd
/// exhaustion, transient kernel errors). Registry-only — the `Stats`
/// wire shape is unchanged; tests and embedders read it via
/// [`crate::server::FrameServer::metrics`].
pub const CTR_ACCEPT_ERRORS: &str = "serve.accept_errors";
/// Registry counter: request handlers that panicked and were isolated
/// (the client got `ERR_INTERNAL`; the listener and the other
/// connections were unaffected).
pub const CTR_HANDLER_PANICS: &str = "serve.handler_panics";
/// Registry counter: what served frames would have occupied as raw v1
/// payloads — the numerator of the compression ratio.
pub const CTR_FRAME_BYTES_RAW: &str = "serve.frame_bytes_raw";
/// Registry counter: frame payload bytes actually written to the wire
/// (compressed under AVWF v2).
pub const CTR_FRAME_BYTES_WIRE: &str = "serve.frame_bytes_wire";
/// Registry counter: progressive (LOD) frame requests served. Each also
/// counts once under `serve.frames_served`; this isolates the
/// progressive share. Registry-only — the `Stats` wire shape is frozen.
pub const CTR_LOD_REQUESTS: &str = "serve.lod_requests";
/// Registry counter: progressive chunk records written (every stream is
/// at least 2: the coarse head and the final tail).
pub const CTR_LOD_CHUNKS: &str = "serve.lod_chunks";
/// Registry counter: wire bytes of progressive chunk envelopes.
/// Registry-only.
pub const CTR_LOD_BYTES_WIRE: &str = "serve.lod_bytes_wire";

/// A snapshot of the server's lifetime counters, as carried by the
/// `Stats` reply.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServerStats {
    /// Requests handled, across all clients and kinds.
    pub requests: u64,
    /// Frame replies sent.
    pub frames_served: u64,
    /// Payload + framing bytes written to clients.
    pub bytes_sent: u64,
    /// Frame requests answered from the extraction cache.
    pub cache_hits: u64,
    /// Frame requests that ran a fresh extraction.
    pub cache_misses: u64,
    /// Request service-time distribution.
    pub latency: LatencyHistogram,
    /// What served frames would have occupied as raw v1 payloads.
    pub frame_bytes_raw: u64,
    /// Frame payload bytes actually written (compressed under v2).
    pub frame_bytes_wire: u64,
}

impl ServerStats {
    /// Assembles the wire snapshot from a server's metrics registry.
    pub fn from_registry(reg: &Registry) -> ServerStats {
        ServerStats {
            requests: reg.counter(CTR_REQUESTS),
            frames_served: reg.counter(CTR_FRAMES_SERVED),
            bytes_sent: reg.counter(CTR_BYTES_SENT),
            cache_hits: reg.counter(CTR_CACHE_HITS),
            cache_misses: reg.counter(CTR_CACHE_MISSES),
            latency: reg.histogram(HIST_LATENCY).unwrap_or_default(),
            frame_bytes_raw: reg.counter(CTR_FRAME_BYTES_RAW),
            frame_bytes_wire: reg.counter(CTR_FRAME_BYTES_WIRE),
        }
    }

    /// Adds `other`'s counts into `self`, field by field — the one sum
    /// behind the router's aggregated `Stats` reply and
    /// [`crate::router::ShardedFrameService::stats`].
    pub fn absorb(&mut self, other: &ServerStats) {
        self.requests += other.requests;
        self.frames_served += other.frames_served;
        self.bytes_sent += other.bytes_sent;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.frame_bytes_raw += other.frame_bytes_raw;
        self.frame_bytes_wire += other.frame_bytes_wire;
        for (t, c) in self.latency.counts.iter_mut().zip(&other.latency.counts) {
            *t += c;
        }
    }

    /// Raw-to-wire compression ratio of served frames; 1.0 when nothing
    /// has been served.
    pub fn compression_ratio(&self) -> f64 {
        if self.frame_bytes_wire == 0 {
            1.0
        } else {
            self.frame_bytes_raw as f64 / self.frame_bytes_wire as f64
        }
    }

    /// Fraction of frame requests served from the cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// A printable multi-line summary.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "requests {}  frames {}  bytes {}  cache {}/{} ({:.0}% hit)\nlatency:",
            self.requests,
            self.frames_served,
            self.bytes_sent,
            self.cache_hits,
            self.cache_hits + self.cache_misses,
            self.hit_rate() * 100.0,
        );
        for (i, &c) in self.latency.counts.iter().enumerate() {
            if c > 0 {
                s.push_str(&format!(" {}:{}", LatencyHistogram::label(i), c));
            }
        }
        if self.frame_bytes_wire > 0 {
            s.push_str(&format!(
                "\nframe payload: {} B raw -> {} B wire ({:.2}x)",
                self.frame_bytes_raw,
                self.frame_bytes_wire,
                self.compression_ratio()
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log_spaced() {
        let mut h = LatencyHistogram::default();
        h.record(50e-6); // 50 µs -> bucket 0
        h.record(0.5e-3); // 0.5 ms -> bucket 1
        h.record(5e-3); // 5 ms -> bucket 2
        h.record(2.0); // 2 s -> bucket 5
        h.record(60.0); // 60 s -> overflow
        assert_eq!(h.counts, [1, 1, 1, 0, 0, 1, 1]);
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn labels_read_naturally() {
        assert_eq!(LatencyHistogram::label(0), "<=100us");
        assert_eq!(LatencyHistogram::label(1), "<=1ms");
        assert_eq!(LatencyHistogram::label(5), "<=10s");
        assert_eq!(LatencyHistogram::label(6), ">10s");
    }

    #[test]
    fn hit_rate_handles_zero() {
        assert_eq!(ServerStats::default().hit_rate(), 0.0);
        let s = ServerStats {
            cache_hits: 3,
            cache_misses: 1,
            ..Default::default()
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert!(s.summary().contains("75% hit"));
    }

    #[test]
    fn snapshot_mirrors_the_registry() {
        let reg = Registry::new();
        reg.add(CTR_REQUESTS, 5);
        reg.add(CTR_FRAMES_SERVED, 3);
        reg.add(CTR_BYTES_SENT, 9_000);
        reg.add(CTR_CACHE_HITS, 2);
        reg.add(CTR_CACHE_MISSES, 1);
        reg.add(CTR_FRAME_BYTES_RAW, 8_000);
        reg.add(CTR_FRAME_BYTES_WIRE, 2_000);
        reg.record_seconds(HIST_LATENCY, 0.002);
        let s = ServerStats::from_registry(&reg);
        assert_eq!(s.requests, 5);
        assert_eq!(s.frames_served, 3);
        assert_eq!(s.bytes_sent, 9_000);
        assert_eq!(s.cache_hits, 2);
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.frame_bytes_raw, 8_000);
        assert_eq!(s.frame_bytes_wire, 2_000);
        assert!((s.compression_ratio() - 4.0).abs() < 1e-12);
        assert!(s.summary().contains("4.00x"));
        assert_eq!(s.latency.total(), 1);
        assert_eq!(s.latency.counts[2], 1);
    }

    #[test]
    fn absorbing_two_snapshots_equals_the_snapshot_of_the_merged_counts() {
        // (counter, value in a, value in b); latency samples land in
        // different buckets so the histogram sum is checked per bucket.
        let counts = [
            (CTR_REQUESTS, 5, 7),
            (CTR_FRAMES_SERVED, 3, 4),
            (CTR_BYTES_SENT, 9_000, 1_000),
            (CTR_CACHE_HITS, 2, 6),
            (CTR_CACHE_MISSES, 1, 0),
            (CTR_FRAME_BYTES_RAW, 8_000, 500),
            (CTR_FRAME_BYTES_WIRE, 2_000, 250),
        ];
        let (a, b, merged) = (Registry::new(), Registry::new(), Registry::new());
        for (name, in_a, in_b) in counts {
            a.add(name, in_a);
            b.add(name, in_b);
            merged.add(name, in_a + in_b);
        }
        for (reg, seconds) in [(&a, 0.002), (&b, 0.002), (&b, 2.0)] {
            reg.record_seconds(HIST_LATENCY, seconds);
            merged.record_seconds(HIST_LATENCY, seconds);
        }
        let mut total = ServerStats::from_registry(&a);
        total.absorb(&ServerStats::from_registry(&b));
        assert_eq!(total, ServerStats::from_registry(&merged));
        assert_eq!(total.latency.total(), 3);
    }

    #[test]
    fn empty_registry_snapshots_as_default() {
        assert_eq!(
            ServerStats::from_registry(&Registry::new()),
            ServerStats::default()
        );
    }
}
