//! One retry ladder per request: behind a router, a failed replica walk
//! is handed straight back to the client as `ERR_BUSY`, so the client's
//! retry policy is the only backoff and the only attempt budget a routed
//! request has — one upstream attempt per client attempt, never a
//! client schedule times a router schedule.

use accelviz_beam::distribution::Distribution;
use accelviz_octree::builder::{partition, BuildParams};
use accelviz_octree::plots::PlotType;
use accelviz_octree::sorted_store::PartitionedData;
use accelviz_serve::protocol::{ERR_BUSY, ERR_INTERNAL};
use accelviz_serve::router::{
    CTR_ROUTER_BREAKER_FAST_FAILS, CTR_ROUTER_UPSTREAM_ERRORS, CTR_ROUTER_UPSTREAM_RETRIES,
};
use accelviz_serve::{
    BreakerState, Client, ClientConfig, RetryPolicy, RouterConfig, ServeError, ServerConfig,
    ShardedFrameService,
};
use std::time::{Duration, Instant};

fn stores(n: usize) -> Vec<PartitionedData> {
    (0..n)
        .map(|i| {
            let ps = Distribution::default_beam().sample(400, i as u64 + 1);
            partition(&ps, PlotType::XYZ, BuildParams::default())
        })
        .collect()
}

/// The in-band code and message of a failed fetch.
fn refusal(fetched: Result<impl std::fmt::Debug, ServeError>) -> (u16, String) {
    match fetched {
        Err(ServeError::Remote { code, message }) => (code, message),
        other => panic!("expected an in-band refusal, got {other:?}"),
    }
}

/// A busy shard behind a default router: every client attempt costs the
/// shard exactly one upstream attempt, and the client's own policy
/// decides when to stop — its `max_attempts` is the whole ladder.
#[test]
fn a_busy_shard_costs_one_upstream_attempt_per_client_attempt() {
    let busy = ServerConfig {
        max_inflight_extractions: 0,
        ..ServerConfig::default()
    };
    let service = ShardedFrameService::spawn_loopback_replicated(
        stores(2),
        1,
        1,
        busy,
        RouterConfig::default(),
    )
    .unwrap();
    let policy = RetryPolicy::fast(30);
    let config = ClientConfig {
        retry: Some(policy),
        ..ClientConfig::default()
    };
    let mut client = Client::connect_with(service.addr(), config).unwrap();
    let (code, message) = refusal(client.fetch(0, f64::INFINITY));
    assert_eq!(code, ERR_BUSY, "{message}");

    let attempts = u64::from(policy.max_attempts);
    assert_eq!(client.client_stats().retries, attempts - 1);
    let metrics = service.router().metrics();
    assert_eq!(metrics.counter(CTR_ROUTER_UPSTREAM_ERRORS), attempts);
    assert_eq!(metrics.counter(CTR_ROUTER_UPSTREAM_RETRIES), attempts);
    assert_eq!(service.router().breaker_state(0), BreakerState::Closed);
    drop(client);
    service.shutdown();
}

/// A dead shard at replication 1 behind a default router: the first
/// fetch is handed back as `ERR_BUSY` after one refused dial and no
/// router backoff; once the default breaker has tripped, the walk cannot
/// succeed on replay and the refusal is `ERR_INTERNAL`, by fast-fail.
#[test]
fn a_dead_shard_is_handed_back_busy_until_its_breaker_trips() {
    let mut service = ShardedFrameService::spawn_loopback_replicated(
        stores(2),
        1,
        1,
        ServerConfig::default(),
        RouterConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect_with(service.addr(), ClientConfig::no_retry()).unwrap();
    service.kill_shard(0);
    let metrics = service.router().metrics();

    let t0 = Instant::now();
    let (code, message) = refusal(client.fetch(0, f64::INFINITY));
    let elapsed = t0.elapsed();
    assert_eq!(code, ERR_BUSY, "{message}");
    assert!(message.contains("retry"), "hint missing: {message}");
    assert_eq!(metrics.counter(CTR_ROUTER_UPSTREAM_ERRORS), 1);
    assert_eq!(metrics.counter(CTR_ROUTER_UPSTREAM_RETRIES), 1);
    // A default policy's first backoff alone is 100 ms.
    assert!(
        elapsed < Duration::from_millis(100),
        "the router backed off: {elapsed:?}"
    );

    // Each further fetch is one more refused dial, until the one that
    // trips the breaker is answered `ERR_INTERNAL`.
    while service.router().breaker_state(0) == BreakerState::Closed {
        let (code, message) = refusal(client.fetch(0, f64::INFINITY));
        let tripped = service.router().breaker_state(0) == BreakerState::Open;
        assert_eq!(
            code,
            if tripped { ERR_INTERNAL } else { ERR_BUSY },
            "{message}"
        );
    }
    let errors = metrics.counter(CTR_ROUTER_UPSTREAM_ERRORS);
    let (code, message) = refusal(client.fetch(0, f64::INFINITY));
    assert_eq!(code, ERR_INTERNAL, "{message}");
    assert_eq!(metrics.counter(CTR_ROUTER_BREAKER_FAST_FAILS), 1);
    assert_eq!(metrics.counter(CTR_ROUTER_UPSTREAM_ERRORS), errors);
    drop(client);
    service.shutdown();
}
