//! The names a frame service counts under: one table per role.
//!
//! Each server and each router owns a private
//! [`accelviz_trace::registry::Registry`] (so two services in one process
//! never mix numbers), and a `Stats` reply carries that whole registry as
//! a [`accelviz_trace::registry::Snapshot`]. A server and a router are one
//! frame service, so they count the same things: every name either role
//! counts, spans and opens, or gives a thread, is a field of its
//! [`CounterNames`] — [`SERVE`] for a server, [`ROUTER`] for a router —
//! spelled once, as a suffix that `counter_names!` joins to the role.
//! Adding a metric is adding its field there and counting it. Only the
//! router's own upstream counters (`router::CTR_ROUTER_*`) sit outside the
//! tables, since no server counts them.

/// The registry keys and span names one role counts under, each
/// `<role>.<name>`, and the names of the threads its door starts, each
/// `<role>-<name>`. A field's doc says what it counts, for either role.
#[derive(Clone, Copy, Debug)]
pub struct CounterNames {
    /// Counter: requests handled, across all clients and kinds, in-band
    /// errors included.
    pub requests: &'static str,
    /// Counter: reply bytes written to clients, envelopes included.
    pub bytes_sent: &'static str,
    /// Counter: frame replies sent, plain or progressive.
    pub frames_served: &'static str,
    /// Counter: connections refused at the connection cap (the client got
    /// an in-band `ERR_BUSY` and the socket was closed).
    pub shed_connections: &'static str,
    /// Counter: `accept(2)` failures on the listener (fd exhaustion,
    /// transient kernel errors).
    pub accept_errors: &'static str,
    /// Counter: request handlers that panicked and were isolated (the
    /// client got `ERR_INTERNAL`; the listener and the other connections
    /// were unaffected).
    pub handler_panics: &'static str,
    /// Histogram: request service time; a router's includes the upstream
    /// hop of a cache miss.
    pub latency: &'static str,
    /// Counter: what the frames sent would have occupied as raw v1
    /// payloads — the numerator of the compression ratio.
    pub frame_bytes_raw: &'static str,
    /// Counter: frame payload bytes actually written (AVWF v2).
    pub frame_bytes_wire: &'static str,
    /// Counter: progressive (LOD) frame requests served; each also counts
    /// once under `frames_served`.
    pub lod_requests: &'static str,
    /// Counter: progressive chunk records written (every stream is at
    /// least 2: the coarse head and the final tail).
    pub lod_chunks: &'static str,
    /// Counter: wire bytes of progressive chunk envelopes.
    pub lod_bytes_wire: &'static str,
    /// Counter: frame requests answered from the frame cache, coalesced
    /// waiters included.
    pub cache_hits: &'static str,
    /// Counter: frame requests that ran a fetch of their own: an
    /// extraction on a server, an upstream walk on a router.
    pub cache_misses: &'static str,
    /// Counter: frame requests that waited on a fetch already in flight
    /// and shared its outcome (a subset of `cache_hits`).
    pub coalesced_fetches: &'static str,
    /// Level: bytes the frame cache holds, as its entries were weighed on
    /// admission.
    pub cache_held_bytes: &'static str,
    /// Level: entries the frame cache holds.
    pub cache_entries: &'static str,
    /// Counter: one-touch entries — frames nobody had asked for, not asked
    /// for again — evicted past the frame cache's one-touch cap.
    pub cache_one_touch_evictions: &'static str,
    /// Counter: misses refused at the fetch-permit limit (in-band
    /// `ERR_BUSY`; the connection stays usable). A server's only: a
    /// router's shards shed for it.
    pub shed_extractions: &'static str,
    /// Counter: read-ahead hints a session ran once its reply was
    /// written. A server's only: a router does not read ahead.
    pub readahead_hints: &'static str,
    /// Counter: fetches a stepping session ran ahead of the request for
    /// them; never also a `cache_misses`, which counts requests.
    pub readahead_fetches: &'static str,
    /// Counter: hints dropped unserved — another read-ahead was running,
    /// no permit was free, or the origin vetoed the frame. Never also a
    /// `shed_extractions`: nothing was refused to anyone.
    pub readahead_dropped: &'static str,
    /// Span: one dispatched request.
    pub span_request: &'static str,
    /// Span: encoding and writing one full frame.
    pub span_send: &'static str,
    /// Span: planning and writing one progressive stream.
    pub span_lod_send: &'static str,
    /// Span: one frame request's cache lookup, its fetch included; `None`
    /// opens none.
    pub span_lookup: Option<&'static str>,
    /// Span: one hint's read-ahead, on the session that stepped.
    pub span_readahead: &'static str,
    /// Thread: the door's accept loop.
    pub thread_accept: &'static str,
    /// Thread: one admitted connection's session.
    pub thread_session: &'static str,
    /// Thread: a worker that answers shed connections.
    pub thread_shed: &'static str,
}

/// The [`CounterNames`] of role `$role`: every name is `$role` joined to
/// its suffix by `concat!`, so a role's table is a `const`. A thread name
/// must fit Linux's 15 bytes, which a role of up to 7 bytes does.
macro_rules! counter_names {
    ($role:literal) => {
        $crate::stats::CounterNames {
            requests: concat!($role, ".requests"),
            bytes_sent: concat!($role, ".bytes_sent"),
            frames_served: concat!($role, ".frames_served"),
            shed_connections: concat!($role, ".shed_connections"),
            accept_errors: concat!($role, ".accept_errors"),
            handler_panics: concat!($role, ".handler_panics"),
            latency: concat!($role, ".request_latency"),
            frame_bytes_raw: concat!($role, ".frame_bytes_raw"),
            frame_bytes_wire: concat!($role, ".frame_bytes_wire"),
            lod_requests: concat!($role, ".lod_requests"),
            lod_chunks: concat!($role, ".lod_chunks"),
            lod_bytes_wire: concat!($role, ".lod_bytes_wire"),
            cache_hits: concat!($role, ".cache_hits"),
            cache_misses: concat!($role, ".cache_misses"),
            coalesced_fetches: concat!($role, ".coalesced_fetches"),
            cache_held_bytes: concat!($role, ".cache_held_bytes"),
            cache_entries: concat!($role, ".cache_entries"),
            cache_one_touch_evictions: concat!($role, ".cache_one_touch_evictions"),
            shed_extractions: concat!($role, ".shed_extractions"),
            readahead_hints: concat!($role, ".readahead_hints"),
            readahead_fetches: concat!($role, ".readahead_fetches"),
            readahead_dropped: concat!($role, ".readahead_dropped"),
            span_request: concat!($role, ".request"),
            span_send: concat!($role, ".send"),
            span_lod_send: concat!($role, ".lod_send"),
            span_lookup: Some(concat!($role, ".extract")),
            span_readahead: concat!($role, ".readahead"),
            thread_accept: concat!($role, "-accept"),
            thread_session: concat!($role, "-session"),
            thread_shed: concat!($role, "-shed"),
        }
    };
}

/// What a [`crate::server::FrameServer`] counts under: `serve.*`.
pub const SERVE: CounterNames = counter_names!("serve");

/// What a [`crate::router::FrameRouter`] counts under: `router.*`. Its
/// lookup opens no span of its own: its misses show as the upstream
/// client's `serve.fetch` spans.
pub const ROUTER: CounterNames = CounterNames {
    span_lookup: None,
    ..counter_names!("router")
};

#[cfg(test)]
pub(crate) use counter_names;

#[cfg(test)]
mod tests {
    use super::*;

    /// Every name of a table, in field order. The pattern is exhaustive,
    /// so a new field does not compile until it is listed here and pinned
    /// below.
    fn every_name(n: CounterNames) -> Vec<&'static str> {
        let CounterNames {
            requests,
            bytes_sent,
            frames_served,
            shed_connections,
            accept_errors,
            handler_panics,
            latency,
            frame_bytes_raw,
            frame_bytes_wire,
            lod_requests,
            lod_chunks,
            lod_bytes_wire,
            cache_hits,
            cache_misses,
            coalesced_fetches,
            cache_held_bytes,
            cache_entries,
            cache_one_touch_evictions,
            shed_extractions,
            readahead_hints,
            readahead_fetches,
            readahead_dropped,
            span_request,
            span_send,
            span_lod_send,
            span_readahead,
            thread_accept,
            thread_session,
            thread_shed,
            span_lookup: _,
        } = n;
        vec![
            requests,
            bytes_sent,
            frames_served,
            shed_connections,
            accept_errors,
            handler_panics,
            latency,
            frame_bytes_raw,
            frame_bytes_wire,
            lod_requests,
            lod_chunks,
            lod_bytes_wire,
            cache_hits,
            cache_misses,
            coalesced_fetches,
            cache_held_bytes,
            cache_entries,
            cache_one_touch_evictions,
            shed_extractions,
            readahead_hints,
            readahead_fetches,
            readahead_dropped,
            span_request,
            span_send,
            span_lod_send,
            span_readahead,
            thread_accept,
            thread_session,
            thread_shed,
        ]
    }

    /// Each name is spelled out in full, as OPERATIONS.md's glossary and
    /// the benchmark read it: the table is the names' only spelling in
    /// the code, so an edited suffix fails here rather than renaming a
    /// counter on the wire.
    #[test]
    fn every_name_of_both_roles_is_pinned() {
        let serve = [
            "serve.requests",
            "serve.bytes_sent",
            "serve.frames_served",
            "serve.shed_connections",
            "serve.accept_errors",
            "serve.handler_panics",
            "serve.request_latency",
            "serve.frame_bytes_raw",
            "serve.frame_bytes_wire",
            "serve.lod_requests",
            "serve.lod_chunks",
            "serve.lod_bytes_wire",
            "serve.cache_hits",
            "serve.cache_misses",
            "serve.coalesced_fetches",
            "serve.cache_held_bytes",
            "serve.cache_entries",
            "serve.cache_one_touch_evictions",
            "serve.shed_extractions",
            "serve.readahead_hints",
            "serve.readahead_fetches",
            "serve.readahead_dropped",
            "serve.request",
            "serve.send",
            "serve.lod_send",
            "serve.readahead",
            "serve-accept",
            "serve-session",
            "serve-shed",
        ];
        let router = [
            "router.requests",
            "router.bytes_sent",
            "router.frames_served",
            "router.shed_connections",
            "router.accept_errors",
            "router.handler_panics",
            "router.request_latency",
            "router.frame_bytes_raw",
            "router.frame_bytes_wire",
            "router.lod_requests",
            "router.lod_chunks",
            "router.lod_bytes_wire",
            "router.cache_hits",
            "router.cache_misses",
            "router.coalesced_fetches",
            "router.cache_held_bytes",
            "router.cache_entries",
            "router.cache_one_touch_evictions",
            "router.shed_extractions",
            "router.readahead_hints",
            "router.readahead_fetches",
            "router.readahead_dropped",
            "router.request",
            "router.send",
            "router.lod_send",
            "router.readahead",
            "router-accept",
            "router-session",
            "router-shed",
        ];
        assert_eq!(every_name(SERVE), serve);
        assert_eq!(every_name(ROUTER), router);
        assert_eq!(SERVE.span_lookup, Some("serve.extract"));
        assert_eq!(ROUTER.span_lookup, None, "a router's lookup opens no span");
    }
}
