//! The `serve.*` metric names a server counts under.
//!
//! Each server owns a private [`accelviz_trace::registry::Registry`] (so
//! two servers in one process never mix numbers), and a `Stats` reply
//! carries that whole registry as a
//! [`accelviz_trace::registry::Snapshot`]: adding a metric is adding its
//! name here and counting it.

/// Registry counter: requests handled, across all clients and kinds.
pub const CTR_REQUESTS: &str = "serve.requests";
/// Registry counter: frame replies sent.
pub const CTR_FRAMES_SERVED: &str = "serve.frames_served";
/// Registry counter: payload + framing bytes written to clients.
pub const CTR_BYTES_SENT: &str = "serve.bytes_sent";
/// Registry counter: frame requests answered from the extraction cache
/// (including coalesced waiters).
pub const CTR_CACHE_HITS: &str = "serve.cache_hits";
/// Registry counter: frame requests that ran a fresh extraction.
pub const CTR_CACHE_MISSES: &str = "serve.cache_misses";
/// Registry counter: frame requests that coalesced into an extraction
/// already in flight (a subset of `serve.cache_hits` — the herd collapse
/// at work).
pub const CTR_COALESCED: &str = "serve.coalesced_fetches";
/// Registry histogram: request service-time distribution.
pub const HIST_LATENCY: &str = "serve.request_latency";
/// Registry counter: connections refused at the connection cap (the
/// client got an in-band `ERR_BUSY` and the socket was closed).
pub const CTR_SHED_CONNECTIONS: &str = "serve.shed_connections";
/// Registry counter: frame requests refused at the in-flight extraction
/// limit (in-band `ERR_BUSY`; the connection stays usable).
pub const CTR_SHED_EXTRACTIONS: &str = "serve.shed_extractions";
/// Registry counter: read-ahead hints a session ran once its reply was
/// written — frame requests that continued a forward step sequence.
pub const CTR_READAHEAD_HINTS: &str = "serve.readahead_hints";
/// Registry counter: extractions a stepping session ran ahead, before
/// reading its next request (each one a page-in, extraction and encode
/// that a later request finds done).
/// Never also a `serve.cache_misses`: that counts requests.
pub const CTR_READAHEAD_FETCHES: &str = "serve.readahead_fetches";
/// Registry counter: hints dropped unserved — another session's
/// read-ahead fetch was running (one per server at a time), no extraction
/// permit was free, or the run's residency budget cannot hold two frames. Never also a
/// `serve.shed_extractions`: nothing was refused to anyone.
pub const CTR_READAHEAD_DROPPED: &str = "serve.readahead_dropped";
/// Registry counter: `accept(2)` failures on the listener (fd
/// exhaustion, transient kernel errors).
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
/// progressive share.
pub const CTR_LOD_REQUESTS: &str = "serve.lod_requests";
/// Registry counter: progressive chunk records written (every stream is
/// at least 2: the coarse head and the final tail).
pub const CTR_LOD_CHUNKS: &str = "serve.lod_chunks";
/// Registry counter: wire bytes of progressive chunk envelopes.
pub const CTR_LOD_BYTES_WIRE: &str = "serve.lod_bytes_wire";
