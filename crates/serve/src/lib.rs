//! Remote visualization as a working service (§2.1's transfer story made
//! real).
//!
//! The paper argues the hybrid representation's payoff is that compact
//! frames "can be more efficiently transferred from the computer where it
//! was generated to a remote computer on a scientist's desk thousands of
//! miles away". The rest of the workspace models that with
//! [`accelviz_core::remote::TransferModel`] arithmetic; this crate
//! implements it: a TCP frame server that owns the partitioned stores,
//! extracts hybrid frames on demand, and serves them to many concurrent
//! viewers over a versioned, checksummed wire format.
//!
//! - [`wire`] — the envelope framing and the one [`HybridFrame`] codec:
//!   the compressed AVWF v2 encoding every session speaks, built from
//!   `accelviz-store`'s codec blocks, whose trailer hashes the frame's
//!   header, columns and cells in FNV-1a lanes, and the raw v1 encoding
//!   whose length the trailer promises.
//! - [`protocol`] — `Hello` / `ListFrames` / `RequestFrame` / `Stats`
//!   requests and their replies, including structured errors.
//! - [`lod`] — progressive multi-resolution streaming: the
//!   coarse-to-fine chunk planner ([`lod::plan_frame_chunks`]) and the
//!   verifying reassembler ([`lod::ProgressiveAssembler`]), on top of
//!   the record framing in `accelviz_store::progressive`.
//! - [`cache`] — the frame cache key `(frame, threshold)` over
//!   `accelviz-store`'s one coalescing LRU: a server's extractions, a
//!   router's fetched frames.
//! - `service` — the one frame service, generic over where frames come
//!   from: the frame cache and its hit / miss / coalesced ledger, fetch
//!   permits and shedding, and read-ahead (DESIGN.md §13). A server and a
//!   router are this service over two origins.
//! - [`server`] — [`server::FrameServer`], the service over one
//!   [`server::Origin`] — a residency window over a run file, or one
//!   seeded with partitions in memory — counting under `serve.*`.
//!   `Origin::layout` is the one place an origin is spread across
//!   shards, and every shard shares it whole.
//! - `frontdoor` — how a service is run: one blocking accept loop with
//!   accept-error backoff, admission with in-band shedding, one
//!   thread-per-connection session loop, one protocol dispatcher, one
//!   stop.
//! - [`client`] — [`client::Client`] and [`client::RemoteFrames`], a
//!   [`accelviz_core::viewer::FrameSource`] so a `ViewerSession` runs
//!   unmodified against a remote server, fetching frame n + 1 on its one
//!   connection while frame n is drawn.
//! - [`stats`] — the names each role counts under, one
//!   [`stats::CounterNames`] table per role ([`stats::SERVE`],
//!   [`stats::ROUTER`]). A `Stats` reply carries the answering service's
//!   whole registry as one [`accelviz_trace::registry::Snapshot`].
//! - [`router`] — the scale-out layer: [`router::ShardedFrameService`]
//!   and [`router::FrameRouter`], the service over a replica set of N
//!   shard servers with rendezvous-hashed (optionally replicated) frame
//!   ownership, pooled upstream connections, one walk over a frame's
//!   replicas per request (the client's retry policy is the only
//!   backoff), and aggregated `Stats`.
//! - [`breaker`] — per-shard circuit breakers on the upstream leg, so a
//!   dead shard fast-fails in microseconds instead of costing a dial per
//!   request; Open is a latch with no clock, released by one success.
//! - [`health`] — the background prober that pings every shard with
//!   cheap `Stats` round trips on a seeded-jitter interval: it ejects a
//!   hung shard on short timeouts and is the one automatic way a
//!   recovered shard is reinstated, with no operator in the loop.
//! - [`retry`] — the deterministic backoff policy behind the client's
//!   reconnect-and-replay resilience.
//! - [`fault`] — seeded, scheduled fault injection for chaos testing
//!   (delays, disconnects, truncations, bit flips at byte offsets).
//!
//! The failure model — which faults exist, why replay is idempotent, when
//! the server sheds, and how the viewer degrades — is written up in
//! DESIGN.md §11.
//!
//! [`HybridFrame`]: accelviz_core::hybrid::HybridFrame

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod breaker;
pub mod cache;
pub mod client;
pub mod error;
pub mod fault;
mod frontdoor;
pub mod health;
pub mod lod;
pub mod protocol;
pub mod retry;
pub mod router;
pub mod server;
mod service;
pub mod stats;
pub mod wire;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use client::{
    Client, ClientConfig, ClientStats, Connector, FaultyConnector, FetchMetrics, RemoteFrames,
    TcpConnector, Transport,
};
pub use error::{Result, ServeError};
pub use fault::{FaultDirection, FaultEvent, FaultKind, FaultPlan, FaultScript, FaultyTransport};
pub use health::HealthConfig;
pub use retry::RetryPolicy;
pub use router::{FrameRouter, RouterConfig, ShardMap, ShardedFrameService};
pub use server::{FrameServer, Origin, ServerConfig};

/// Locks, ignoring poison: a panicked holder leaves nothing half-updated
/// that the next holder could trip over.
pub(crate) fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}
