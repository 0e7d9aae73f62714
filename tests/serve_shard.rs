//! Acceptance for the shard/router layer: a thundering herd collapses to
//! one upstream extraction per shard, a dead shard degrades per the PR 5
//! model and recovers on restart, and `Stats` through the router is the
//! sum of the shards. That a sharded service answers byte for byte like
//! one big server is `serve_origin_parity.rs`'s to assert.

mod common;

use accelviz::core::shard::ShardSpec;
use accelviz::core::viewer::FrameSource;
use accelviz::serve::protocol::ERR_BUSY;
use accelviz::serve::router::{
    CTR_ROUTER_CACHE_HITS, CTR_ROUTER_CACHE_MISSES, CTR_ROUTER_COALESCED,
    CTR_ROUTER_SHED_CONNECTIONS, CTR_ROUTER_UPSTREAM_ERRORS, CTR_ROUTER_UPSTREAM_FETCHES,
};
use accelviz::serve::stats::{
    CTR_BYTES_SENT, CTR_CACHE_MISSES, CTR_FRAMES_SERVED, CTR_FRAME_BYTES_RAW, CTR_FRAME_BYTES_WIRE,
    CTR_READAHEAD_FETCHES, HIST_LATENCY,
};
use accelviz::serve::{
    Client, ClientConfig, FrameRouter, FrameServer, Origin, RemoteFrames, RetryPolicy,
    RouterConfig, ServeError, ServerConfig, ShardMap, ShardedFrameService,
};
use common::stores;
use std::io;
use std::sync::{Arc, Barrier};

/// The fig-1 frame set this suite serves (same convention as the other
/// serve suites: frame `i` is an 800-particle beam seeded `i + 1`).
const FRAMES: usize = 5;

/// A minimal router cache byte budget (only the most recent frame stays
/// resident), so the kill test exercises the upstream hop instead of the
/// router's own cache.
fn one_frame_cache() -> RouterConfig {
    RouterConfig {
        cache_bytes: 1,
        ..RouterConfig::default()
    }
}

#[test]
fn empty_shard_set_is_rejected_at_construction() {
    let err = ShardedFrameService::spawn_loopback_replicated(
        stores(2, 800),
        0,
        1,
        ServerConfig::default(),
        RouterConfig::default(),
    )
    .map(|_| ())
    .unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidInput);

    let err = FrameRouter::spawn(
        "127.0.0.1:0",
        Vec::new(),
        ShardMap::shared_replicated(&ShardSpec::new(1), 3, 1),
        RouterConfig::default(),
    )
    .map(|_| ())
    .unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidInput);

    // A shard list that disagrees with the map is just as malformed.
    let lone = FrameServer::spawn_loopback(stores(1, 800), ServerConfig::default()).unwrap();
    let err = FrameRouter::spawn(
        "127.0.0.1:0",
        vec![lone.addr()],
        ShardMap::shared_replicated(&ShardSpec::new(2), 3, 1),
        RouterConfig::default(),
    )
    .map(|_| ())
    .unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    lone.shutdown();
}

/// Shards come up before their router: the spawn-time catalog fetch is
/// one attempt per shard (the router never retries), so a shard that is
/// not accepting yet fails the spawn at once with `ConnectionRefused`.
#[test]
fn a_shard_not_yet_listening_fails_the_spawn_at_once() {
    let vacant = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        probe.local_addr().unwrap()
    };
    let t0 = std::time::Instant::now();
    let err = FrameRouter::spawn(
        "127.0.0.1:0",
        vec![vacant],
        ShardMap::shared_replicated(&ShardSpec::new(1), 3, 1),
        RouterConfig::default(),
    )
    .map(|_| ())
    .unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
    // The default policy's first backoff alone is 100 ms.
    assert!(t0.elapsed() < std::time::Duration::from_millis(100));
}

/// A 32-client thundering herd — 16 on a shard-0 frame, 16 on a shard-1
/// frame — costs each shard exactly one extraction: the router coalesces
/// identical in-flight requests and caches the result, counter-asserted
/// on both sides of the hop.
#[test]
fn thundering_herd_collapses_to_one_upstream_extraction_per_shard() {
    let service = ShardedFrameService::spawn_loopback_replicated(
        stores(FRAMES, 800),
        2,
        1,
        ServerConfig::default(),
        RouterConfig::default(),
    )
    .unwrap();
    let spec = ShardSpec::new(2);
    let of_shard = |s: usize| {
        (0..FRAMES as u32)
            .find(|&f| spec.owner_of(f) == s)
            .expect("both shards own frames")
    };
    let targets = [of_shard(0), of_shard(1)];

    const HERD: usize = 32;
    let gun = Arc::new(Barrier::new(HERD));
    let addr = service.addr();
    let herd: Vec<_> = (0..HERD)
        .map(|i| {
            let gun = Arc::clone(&gun);
            let frame = targets[i % 2];
            std::thread::spawn(move || {
                let config = ClientConfig {
                    retry: Some(RetryPolicy::fast(7_000 + i as u64)),
                    ..ClientConfig::default()
                };
                let mut client = Client::connect_with(addr, config).expect("herd connect");
                gun.wait();
                let (f, _) = client.fetch(frame, f64::INFINITY).expect("herd fetch");
                assert_eq!(f.step, frame as usize);
            })
        })
        .collect();
    for h in herd {
        h.join().expect("herd client must not panic");
    }

    // Each shard ran exactly one extraction and served exactly one frame.
    for s in 0..2 {
        let m = service.shard(s).metrics();
        assert_eq!(
            m.counter(CTR_FRAMES_SERVED),
            1,
            "shard {s} answered more than one upstream fetch"
        );
        assert_eq!(m.counter(CTR_CACHE_MISSES), 1);
    }
    // And the router's ledger shows the collapse: 2 upstream fetches, 30
    // requests absorbed by coalescing or the cache.
    let rm = service.router().metrics();
    assert_eq!(rm.counter(CTR_ROUTER_UPSTREAM_FETCHES), 2);
    assert_eq!(rm.counter(CTR_ROUTER_CACHE_MISSES), 2);
    assert_eq!(rm.counter(CTR_ROUTER_CACHE_HITS), (HERD - 2) as u64);
    assert!(rm.counter(CTR_ROUTER_COALESCED) <= (HERD - 2) as u64);
    service.shutdown();
}

/// Killing one shard mid-session degrades only that shard's frames — the
/// viewer-facing client falls back to its flagged stale frame, the other
/// shard keeps serving genuine frames — and repointing the router at a
/// restarted shard heals the same requests.
#[test]
fn shard_kill_mid_session_degrades_and_recovers_on_restart() {
    let data = stores(FRAMES, 800);
    let spec = ShardSpec::new(2);
    let (map, slices) = Origin::from(data.clone()).layout(2, 1).unwrap();
    let shard0 = FrameServer::spawn_loopback(slices[0].clone(), ServerConfig::default()).unwrap();
    let shard1 = FrameServer::spawn_loopback(slices[1].clone(), ServerConfig::default()).unwrap();
    let router = FrameRouter::spawn(
        "127.0.0.1:0",
        vec![shard0.addr(), shard1.addr()],
        map,
        one_frame_cache(),
    )
    .unwrap();

    // Reference frames from a direct server of the unsliced data.
    let direct = FrameServer::spawn_loopback(data, ServerConfig::default()).unwrap();
    let mut reference = Vec::new();
    let mut clean = Client::connect_with(direct.addr(), ClientConfig::no_retry()).unwrap();
    for f in 0..FRAMES as u32 {
        reference.push(clean.fetch(f, f64::INFINITY).unwrap().0);
    }
    drop(clean);
    direct.shutdown();

    let survivor = (0..FRAMES as u32).find(|&f| spec.owner_of(f) == 0).unwrap();
    let victim = (0..FRAMES as u32).find(|&f| spec.owner_of(f) == 1).unwrap();

    let client = Client::connect_with(router.addr(), ClientConfig::no_retry()).unwrap();
    let mut remote = RemoteFrames::new(client, f64::INFINITY, 2);

    // Healthy session: both shards' frames arrive genuine.
    let (got, load) = remote.load(survivor as usize).unwrap();
    assert!(!load.degraded);
    assert_eq!(&*got, &reference[survivor as usize]);
    let (got, load) = remote.load(victim as usize).unwrap();
    assert!(!load.degraded);
    assert_eq!(&*got, &reference[victim as usize]);

    // Kill shard 1 mid-session. Its frames degrade to the client's stale
    // resident frame — flagged, not errored — while shard 0's keep
    // flowing genuine. (The client holds 2 resident frames, so the
    // killed shard's frame is evicted before being re-requested below.)
    shard1.shutdown();
    let (_, load) = remote.load(survivor as usize).unwrap();
    assert!(!load.degraded, "the surviving shard must be unaffected");
    // Force the victim frame out of the client's resident set.
    let other_survivor = (0..FRAMES as u32)
        .filter(|&f| spec.owner_of(f) == 0)
        .nth(1)
        .unwrap_or(survivor);
    remote.load(other_survivor as usize).unwrap();
    let (stale, load) = remote.load(victim as usize).unwrap();
    assert!(
        load.degraded,
        "a dead shard must degrade its frames, not fail the session"
    );
    assert_ne!(
        &*stale, &reference[victim as usize],
        "the degraded answer is a stale substitute, not the real frame"
    );
    assert!(remote.degraded_loads >= 1);
    assert!(
        router.metrics().counter(CTR_ROUTER_UPSTREAM_ERRORS) >= 1,
        "the router must record the exhausted upstream retries"
    );

    // Restart the shard (new port — the OS may not rebind the old one
    // promptly) and repoint the router. The same request heals.
    let shard1b = FrameServer::spawn_loopback(slices[1].clone(), ServerConfig::default()).unwrap();
    router.set_shard_addr(1, shard1b.addr()).unwrap();
    let (healed, load) = remote.load(victim as usize).unwrap();
    assert!(!load.degraded, "a restarted shard must heal the session");
    assert_eq!(&*healed, &reference[victim as usize]);

    assert!(router.set_shard_addr(9, shard1b.addr()).is_err());
    router.shutdown();
    shard0.shutdown();
    shard1b.shutdown();
}

/// `Stats` through the router is the sum of the shards' counters; the
/// local [`ShardedFrameService::stats`] sum agrees with the wire reply.
#[test]
fn stats_through_the_router_aggregate_the_shards() {
    let service = ShardedFrameService::spawn_loopback_replicated(
        stores(FRAMES, 800),
        2,
        1,
        ServerConfig::default(),
        RouterConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect_with(service.addr(), ClientConfig::no_retry()).unwrap();
    for f in 0..FRAMES as u32 {
        client.fetch(f, f64::INFINITY).unwrap();
    }
    // Revisit one frame: served from the router cache, invisible to the
    // shards.
    client.fetch(0, f64::INFINITY).unwrap();

    let wire = client.stats().unwrap();
    assert_eq!(wire.counter(CTR_FRAMES_SERVED), FRAMES as u64);
    // Each frame was extracted once on its shard — for the router's
    // request (a miss), or ahead of it: the router's pooled connection to
    // a shard is one session, and where that shard's local indices
    // ascend one by one the shard reads ahead of the router. Misses count
    // requests, so a read-ahead extraction is counted on its own.
    let read_ahead: u64 = (0..service.shard_count())
        .map(|i| service.shard(i).metrics().counter(CTR_READAHEAD_FETCHES))
        .sum();
    assert_eq!(wire.counter(CTR_CACHE_MISSES) + read_ahead, FRAMES as u64);
    assert!(wire.counter(CTR_BYTES_SENT) > 0);
    assert!(wire.histogram(HIST_LATENCY).unwrap_or_default().total() > 0);
    assert!(
        wire.counter(CTR_FRAME_BYTES_WIRE) < wire.counter(CTR_FRAME_BYTES_RAW),
        "v2 shard hops must compress"
    );

    let local = service.stats();
    for name in [CTR_FRAMES_SERVED, CTR_CACHE_MISSES, CTR_FRAME_BYTES_RAW] {
        assert_eq!(local.counter(name), wire.counter(name), "{name}");
    }
    service.shutdown();
}

/// A router at its connection cap sheds exactly like a server: the
/// arrival is counted and answered `ERR_BUSY` in-band, and the admitted
/// session never notices.
#[test]
fn router_at_its_connection_cap_answers_err_busy_in_band() {
    let config = RouterConfig {
        max_connections: 1,
        ..RouterConfig::default()
    };
    let service = ShardedFrameService::spawn_loopback_replicated(
        stores(2, 800),
        2,
        1,
        ServerConfig::default(),
        config,
    )
    .unwrap();
    let mut admitted = Client::connect_with(service.addr(), ClientConfig::no_retry()).unwrap();
    admitted.fetch(0, f64::INFINITY).unwrap();

    match Client::connect_with(service.addr(), ClientConfig::no_retry()) {
        Err(ServeError::Remote { code, .. }) => assert_eq!(code, ERR_BUSY),
        Err(other) => panic!("expected in-band ERR_BUSY, got {other:?}"),
        Ok(_) => panic!("the second client was admitted past the cap"),
    }
    let router = service.router().metrics();
    assert_eq!(router.counter(CTR_ROUTER_SHED_CONNECTIONS), 1);

    admitted.fetch(1, f64::INFINITY).unwrap();
    service.shutdown();
}
