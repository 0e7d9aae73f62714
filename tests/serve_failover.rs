//! Acceptance for the self-healing shard layer: replicated ownership
//! keeps a session bit-identical through shard kills (zero degraded
//! frames at replication 2, under shipping defaults too), circuit
//! breakers turn a dead shard's cost from a retry budget into
//! microseconds at replication 1, a failed walk is handed back to the
//! client's retry policy once the walk — not one connection — is
//! exhausted, a pooled connection gone stale (restart on the old port,
//! shard idle timeout) is redialed without a verdict, breaker and
//! failover transitions land on the router's counters, and the
//! background prober both discovers death
//! without client traffic and reinstates a shard that comes back on its
//! old address with no operator in the loop — the one way back in, so no
//! client request is ever handed to a shard it ejected.

mod common;

use accelviz::core::shard::ShardSpec;
use accelviz::core::viewer::FrameSource;
use accelviz::octree::sorted_store::PartitionedData;
use accelviz::serve::client::{CTR_CLIENT_RECONNECTS, CTR_CLIENT_RETRIES};
use accelviz::serve::protocol::{ERR_BUSY, ERR_INTERNAL};
use accelviz::serve::router::{
    CTR_ROUTER_BREAKER_CLOSED, CTR_ROUTER_BREAKER_FAST_FAILS, CTR_ROUTER_BREAKER_OPEN,
    CTR_ROUTER_PROBE_FAIL, CTR_ROUTER_PROBE_OK, CTR_ROUTER_REPLICA_FAILOVERS,
    CTR_ROUTER_UPSTREAM_ERRORS, CTR_ROUTER_UPSTREAM_RETRIES,
};
use accelviz::serve::stats::SERVE;
use accelviz::serve::{
    BreakerConfig, BreakerState, Client, ClientConfig, FrameRouter, FrameServer, HealthConfig,
    Origin, RemoteFrames, RetryPolicy, RouterConfig, ServeError, ServerConfig, ShardMap,
    ShardedFrameService,
};
use common::stores;
use std::net::SocketAddr;
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// The 10-frame session the chaos scenarios walk (same convention as
/// the other serve suites: frame `i` is an 800-particle beam seeded
/// `i + 1`).
const FRAMES: usize = 10;

/// Reference frames from a direct server of the unsliced data — the
/// bit-identity bar every chaos session is held to.
fn reference_frames(data: &[PartitionedData]) -> Vec<accelviz::core::hybrid::HybridFrame> {
    let direct = FrameServer::spawn_loopback(data.to_vec(), ServerConfig::default()).unwrap();
    let mut client = Client::connect_with(direct.addr(), ClientConfig::no_retry()).unwrap();
    let frames = (0..data.len() as u32)
        .map(|f| client.fetch(f, f64::INFINITY).unwrap().0)
        .collect();
    drop(client);
    direct.shutdown();
    frames
}

/// The chaos-test router tuning: a 1-byte cache so every request pays
/// the upstream hop (nothing hides behind the router cache), a
/// hair-trigger breaker, and the prober off for deterministic counters —
/// the prober gets its own tests. With the prober off, only a
/// reinstatement closes a tripped breaker.
fn chaos_router() -> RouterConfig {
    RouterConfig {
        cache_bytes: 1,
        breaker: BreakerConfig {
            failure_threshold: 1,
        },
        health: HealthConfig {
            probe_interval: Duration::ZERO,
            ..HealthConfig::default()
        },
        ..RouterConfig::default()
    }
}

/// A frame whose replica set starts (or does not start) at `shard`.
fn frame_with_primary(spec: &ShardSpec, shard: usize) -> u32 {
    (0..FRAMES as u32)
        .find(|&f| spec.owner_of(f) == shard)
        .expect("every shard should primary-own a frame in a 10-frame catalog")
}

/// Held by the tests whose viewers touch the global `client.*` ledger —
/// one asserts on it, one retries — so neither sees the other's counts.
static VIEWER_LEDGER: Mutex<()> = Mutex::new(());

/// Respawns a shard on the very port it died on — rebinding can lose a
/// race against the OS releasing it, so retry briefly.
fn respawn_on(addr: SocketAddr, slice: &Origin) -> FrameServer {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match FrameServer::spawn(&addr.to_string(), slice.clone(), ServerConfig::default()) {
            Ok(server) => return server,
            Err(e) if Instant::now() >= deadline => panic!("the old port never came back: {e}"),
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

/// The headline acceptance: at replication 2, killing a shard mid-
/// session costs **zero** degraded frames — every fetch falls through
/// to the surviving replica and arrives bit-identical to a direct
/// server of the unsliced data, counter-asserted.
#[test]
fn replicated_kill_mid_session_yields_zero_degraded_frames() {
    let _ledger = VIEWER_LEDGER.lock().unwrap_or_else(|e| e.into_inner());
    let data = stores(FRAMES, 800);
    let reference = reference_frames(&data);
    let mut service = ShardedFrameService::spawn_loopback_replicated(
        data,
        3,
        2,
        ServerConfig::default(),
        chaos_router(),
    )
    .unwrap();
    let spec = ShardSpec::new(3);
    let victim = spec.owner_of(0);
    let global = accelviz::trace::global();
    let viewer_retries_before = global.counter(CTR_CLIENT_RETRIES);
    let viewer_reconnects_before = global.counter(CTR_CLIENT_RECONNECTS);

    let client = Client::connect_with(service.addr(), ClientConfig::no_retry()).unwrap();
    let mut remote = RemoteFrames::new(client, f64::INFINITY, 2);

    // A few healthy loads, then the kill, then the whole catalog.
    for (f, want) in reference.iter().enumerate().take(3) {
        let (got, load) = remote.load(f).unwrap();
        assert!(!load.degraded);
        assert_eq!(&*got, want);
    }
    service.kill_shard(victim);
    for (f, want) in reference.iter().enumerate() {
        let (got, load) = remote.load(f).unwrap();
        assert!(
            !load.degraded,
            "frame {f} degraded despite a surviving replica"
        );
        assert_eq!(&*got, want, "frame {f} differs after failover");
    }
    assert_eq!(remote.degraded_loads, 0);

    let rm = service.router().metrics();
    assert!(
        rm.counter(CTR_ROUTER_REPLICA_FAILOVERS) >= 1,
        "the victim's primaries must have been served by their fallback"
    );
    assert!(
        rm.counter(CTR_ROUTER_UPSTREAM_ERRORS) >= 1,
        "the first post-kill fetch pays the discovery cost"
    );
    assert!(
        rm.counter(CTR_ROUTER_BREAKER_OPEN) >= 1,
        "the dead shard's breaker must trip"
    );
    assert_eq!(service.router().breaker_state(victim), BreakerState::Open);
    // `client.*` on the global registry is the *viewer's* ledger: what
    // the router does on its own upstream leg must not land there. (The
    // one viewer in this binary that retries holds `VIEWER_LEDGER` too,
    // and none loses its router, so concurrent tests add nothing.)
    let viewer = remote.client().client_stats();
    assert_eq!(
        global.counter(CTR_CLIENT_RETRIES) - viewer_retries_before,
        viewer.retries,
        "router internals leaked into the viewer-side client.retries"
    );
    assert_eq!(
        global.counter(CTR_CLIENT_RECONNECTS) - viewer_reconnects_before,
        viewer.reconnects,
        "router internals leaked into the viewer-side client.reconnects"
    );
    service.shutdown();
}

/// Failover is fast under *shipping* defaults — no tuned breaker, no
/// fast retry policy, the prober left on: a dead primary costs its
/// replica walk one refused dial, not a retry schedule, so every fetch
/// returns genuine in well under a probe interval and the third one has
/// tripped the default breaker.
#[test]
fn default_config_failover_is_fast_and_never_backs_off() {
    let data = stores(FRAMES, 800);
    let reference = reference_frames(&data);
    let mut service = ShardedFrameService::spawn_loopback_replicated(
        data,
        3,
        2,
        ServerConfig::default(),
        RouterConfig::default(),
    )
    .unwrap();
    // Ten frames over three shards: some shard is primary for three.
    let spec = ShardSpec::new(3);
    let primaries = |shard| (0..FRAMES as u32).filter(move |&f| spec.owner_of(f) == shard);
    let victim = (0..3).max_by_key(|&s| primaries(s).count()).unwrap();
    let doomed: Vec<u32> = primaries(victim).take(3).collect();
    assert_eq!(doomed.len(), 3);

    let client = Client::connect_with(service.addr(), ClientConfig::no_retry()).unwrap();
    let mut remote = RemoteFrames::new(client, f64::INFINITY, FRAMES);
    service.kill_shard(victim);
    for &f in &doomed {
        let t0 = Instant::now();
        let (got, load) = remote.load(f as usize).unwrap();
        let elapsed = t0.elapsed();
        assert!(!load.degraded, "frame {f} degraded despite its replica");
        assert_eq!(&*got, &reference[f as usize], "frame {f} differs");
        assert!(
            elapsed < Duration::from_millis(250),
            "frame {f} took {elapsed:?} to fail over under default config"
        );
    }
    assert_eq!(remote.degraded_loads, 0);
    assert_eq!(service.router().breaker_state(victim), BreakerState::Open);
    let rm = service.router().metrics();
    assert_eq!(rm.counter(CTR_ROUTER_REPLICA_FAILOVERS), 3);
    assert_eq!(rm.counter(CTR_ROUTER_UPSTREAM_RETRIES), 0);
    service.shutdown();
}

/// The flapping-shard chaos session: kill → reinstate → kill across the
/// 10-frame catalog, full pass after each transition. Replication 2
/// means no pass ever hard-fails or degrades, the final session is
/// bit-identical to a fault-free run, and every breaker transition is
/// visible on the counters.
#[test]
fn flapping_shard_session_stays_bit_identical_with_replication() {
    let data = stores(FRAMES, 800);
    let reference = reference_frames(&data);
    let mut service = ShardedFrameService::spawn_loopback_replicated(
        data,
        3,
        2,
        ServerConfig::default(),
        chaos_router(),
    )
    .unwrap();
    let spec = ShardSpec::new(3);
    let victim = spec.owner_of(0);
    frame_with_primary(&spec, victim); // the kill must actually bite

    let client = Client::connect_with(service.addr(), ClientConfig::no_retry()).unwrap();
    let mut remote = RemoteFrames::new(client, f64::INFINITY, 2);
    let full_pass = |remote: &mut RemoteFrames, phase: &str| {
        for (f, want) in reference.iter().enumerate() {
            let (got, load) = remote.load(f).unwrap();
            assert!(!load.degraded, "frame {f} degraded during phase {phase}");
            assert_eq!(&*got, want, "frame {f} differs in phase {phase}");
        }
    };

    full_pass(&mut remote, "healthy");
    service.kill_shard(victim);
    full_pass(&mut remote, "first kill");
    assert_eq!(service.router().breaker_state(victim), BreakerState::Open);

    service.reinstate_shard(victim).unwrap();
    assert_eq!(
        service.router().breaker_state(victim),
        BreakerState::Closed,
        "reinstatement must reset the breaker"
    );
    full_pass(&mut remote, "reinstated");

    service.kill_shard(victim);
    full_pass(&mut remote, "second kill");

    assert_eq!(remote.degraded_loads, 0, "no phase may degrade a frame");
    let rm = service.router().metrics();
    assert!(
        rm.counter(CTR_ROUTER_BREAKER_OPEN) >= 2,
        "one trip per kill"
    );
    assert!(
        rm.counter(CTR_ROUTER_BREAKER_CLOSED) >= 1,
        "the reinstatement reset must be counted"
    );
    assert!(
        rm.counter(CTR_ROUTER_BREAKER_FAST_FAILS) >= 1,
        "post-trip fetches must skip the dead primary in microseconds"
    );
    assert!(rm.counter(CTR_ROUTER_REPLICA_FAILOVERS) >= 2);
    service.shutdown();
}

/// At replication 1 there is no replica to fall through, so the breaker
/// changes the *speed* of degradation, not the outcome: once tripped,
/// requests for the dead shard's frames fast-fail to the in-band
/// `ERR_INTERNAL` degraded path in well under 10 ms instead of burning
/// the upstream retry budget.
#[test]
fn replication_one_fast_fails_to_the_degraded_path_once_tripped() {
    let data = stores(FRAMES, 800);
    let mut service = ShardedFrameService::spawn_loopback_replicated(
        data,
        2,
        1,
        ServerConfig::default(),
        chaos_router(),
    )
    .unwrap();
    let spec = ShardSpec::new(2);
    let victim = spec.owner_of(0);
    let doomed = frame_with_primary(&spec, victim);
    let safe = frame_with_primary(&spec, 1 - victim);

    let mut client = Client::connect_with(service.addr(), ClientConfig::no_retry()).unwrap();
    service.kill_shard(victim);

    // The first fetch pays the discovery cost (one refused dial) and
    // trips the hair-trigger breaker.
    match client.fetch(doomed, f64::INFINITY) {
        Err(ServeError::Remote { code, .. }) => assert_eq!(code, ERR_INTERNAL),
        other => panic!("expected the in-band degraded path, got {other:?}"),
    }
    assert_eq!(service.router().breaker_state(victim), BreakerState::Open);

    // Every subsequent fetch fast-fails: same in-band error, but in
    // microseconds — bounded here at 10 ms with a wide margin.
    for attempt in 0..5 {
        let t0 = Instant::now();
        match client.fetch(doomed, f64::INFINITY) {
            Err(ServeError::Remote { code, .. }) => assert_eq!(code, ERR_INTERNAL),
            other => panic!("expected the in-band degraded path, got {other:?}"),
        }
        let elapsed = t0.elapsed();
        assert!(
            elapsed < Duration::from_millis(10),
            "fast-fail attempt {attempt} took {elapsed:?}; the breaker is not breaking"
        );
    }
    assert!(
        service
            .router()
            .metrics()
            .counter(CTR_ROUTER_BREAKER_FAST_FAILS)
            >= 5
    );

    // The surviving shard is untouched by its neighbor's open breaker.
    let (frame, _) = client.fetch(safe, f64::INFINITY).unwrap();
    assert_eq!(frame.step, safe as usize);
    service.shutdown();
}

/// A shard that answers `ERR_BUSY` is alive. Its extraction-limit sheds
/// must not count toward tripping its breaker — that would eject a
/// healthy, merely loaded shard for a cooldown — and the client must
/// receive the one code its retry policy acts on, not a flattened
/// `ERR_INTERNAL`.
#[test]
fn a_busy_shard_passes_err_busy_through_and_keeps_its_breaker_closed() {
    // Limit 0: the shard sheds every fresh extraction, deterministically.
    let busy = ServerConfig {
        max_inflight_extractions: 0,
        ..ServerConfig::default()
    };
    let router = RouterConfig::default();
    let service =
        ShardedFrameService::spawn_loopback_replicated(stores(2, 800), 1, 1, busy, router).unwrap();
    let mut client = Client::connect_with(service.addr(), ClientConfig::no_retry()).unwrap();
    // More sheds than the default failure threshold (3).
    for _ in 0..5 {
        match client.fetch(0, f64::INFINITY) {
            Err(ServeError::Remote { code, message }) => {
                assert_eq!(code, ERR_BUSY, "{message}");
                assert!(message.contains("retry"), "hint missing: {message}");
            }
            other => panic!("expected the shard's ERR_BUSY, got {other:?}"),
        }
    }
    assert_eq!(service.router().breaker_state(0), BreakerState::Closed);
    let metrics = service.router().metrics();
    assert_eq!(metrics.counter(CTR_ROUTER_BREAKER_OPEN), 0);
    assert_eq!(metrics.counter(CTR_ROUTER_UPSTREAM_ERRORS), 5);
    service.shutdown();

    // With a replica to go to, a busy primary is simply left for it —
    // at once: the walk never backs off, and a walk that found the
    // frame hands nothing back to the client's retry policy.
    let data = stores(2, 800);
    let reference = reference_frames(&data);
    let spec = ShardSpec::new(2);
    let primary = spec.owner_of(0);
    let shards: Vec<FrameServer> = (0..2)
        .map(|s| {
            let config = if s == primary {
                busy
            } else {
                ServerConfig::default()
            };
            FrameServer::spawn_loopback(data.clone(), config).unwrap()
        })
        .collect();
    let router = FrameRouter::spawn(
        "127.0.0.1:0",
        shards.iter().map(|s| s.addr()).collect(),
        ShardMap::shared_replicated(&spec, 2, 2),
        RouterConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect_with(router.addr(), ClientConfig::no_retry()).unwrap();
    let (frame, _) = client.fetch(0, f64::INFINITY).unwrap();
    assert_eq!(frame, reference[0]);
    let metrics = router.metrics();
    assert_eq!(metrics.counter(CTR_ROUTER_UPSTREAM_ERRORS), 1);
    assert_eq!(metrics.counter(CTR_ROUTER_REPLICA_FAILOVERS), 1);
    assert_eq!(metrics.counter(CTR_ROUTER_UPSTREAM_RETRIES), 0);
    assert_eq!(router.breaker_state(primary), BreakerState::Closed);
    drop(client);
    router.shutdown();
    for shard in shards {
        shard.shutdown();
    }
}

/// A two-shard, replication-1 deployment the test holds by its parts, so
/// shard 1 can die and come back on the very port it had.
struct RestartRig {
    reference: Vec<accelviz::core::hybrid::HybridFrame>,
    slice1: Origin,
    shard0: FrameServer,
    shard1: FrameServer,
    router: FrameRouter,
    victim_frame: u32,
}

/// Prober off and default breaker.
fn restart_rig() -> RestartRig {
    let data = stores(4, 800);
    let reference = reference_frames(&data);
    let spec = ShardSpec::new(2);
    let (map, mut slices) = Origin::from(data).layout(2, 1).unwrap();
    let shard0 = FrameServer::spawn_loopback(slices[0].clone(), ServerConfig::default()).unwrap();
    let shard1 = FrameServer::spawn_loopback(slices[1].clone(), ServerConfig::default()).unwrap();
    let router = FrameRouter::spawn(
        "127.0.0.1:0",
        vec![shard0.addr(), shard1.addr()],
        map,
        RouterConfig {
            health: HealthConfig {
                probe_interval: Duration::ZERO,
                ..HealthConfig::default()
            },
            ..RouterConfig::default()
        },
    )
    .unwrap();
    RestartRig {
        reference,
        slice1: slices.swap_remove(1),
        shard0,
        shard1,
        router,
        victim_frame: frame_with_primary(&spec, 1),
    }
}

/// The walk-then-retry order at replication 1: the shard is down for the
/// first walk and back for a later one. The failed walk is handed back
/// as `ERR_BUSY` and the viewer's retry policy is the one backoff — one
/// per failed walk — so the client sees a genuine frame, never the
/// in-band `ERR_INTERNAL`.
#[test]
fn a_failed_walk_is_retried_once_the_shard_is_back() {
    let _ledger = VIEWER_LEDGER.lock().unwrap_or_else(|e| e.into_inner());
    let rig = restart_rig();
    let victim_addr = rig.shard1.addr();
    // A first delay long enough to restart a shard in.
    let patient = ClientConfig {
        retry: Some(RetryPolicy {
            base_delay: Duration::from_millis(300),
            max_delay: Duration::from_millis(300),
            ..RetryPolicy::fast(808)
        }),
        ..ClientConfig::default()
    };
    let mut viewer = Client::connect_with(rig.router.addr(), patient).unwrap();
    rig.shard1.shutdown();

    let rm = rig.router.metrics();
    let (revived, fetched) = std::thread::scope(|scope| {
        // The restart waits for the router to have handed a failed walk
        // back to the viewer.
        let revived = scope.spawn(|| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while rm.counter(CTR_ROUTER_UPSTREAM_RETRIES) == 0 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            respawn_on(victim_addr, &rig.slice1)
        });
        let fetched = viewer.fetch(rig.victim_frame, f64::INFINITY);
        (revived.join().unwrap(), fetched)
    });
    let (frame, _) = fetched.expect("the re-walk must reach the restarted shard");
    assert_eq!(frame, rig.reference[rig.victim_frame as usize]);
    // One failed walk when the restart beat the viewer's first delay (it
    // is 300 ms).
    let rewalks = rm.counter(CTR_ROUTER_UPSTREAM_RETRIES);
    assert!((1..=2).contains(&rewalks), "{rewalks} re-walks");
    assert_eq!(
        rm.counter(CTR_ROUTER_UPSTREAM_ERRORS),
        rewalks,
        "one refused dial per failed walk, one backoff per failed walk"
    );
    assert_eq!(rm.counter(CTR_ROUTER_BREAKER_OPEN), 0);
    assert_eq!(rig.router.breaker_state(1), BreakerState::Closed);

    drop(viewer);
    rig.router.shutdown();
    rig.shard0.shutdown();
    revived.shutdown();
}

/// The stale-pool regression: a shard restarted on its old address
/// behind a router that was told nothing. Every idle connection belongs
/// to the dead incarnation — three of them would be three consecutive
/// failures, a tripped default breaker on a healthy shard. Instead the
/// first one found hung up empties the pool and the same attempt redials:
/// a genuine frame, no error counted, no backoff, no verdict.
#[test]
fn a_stale_pool_does_not_eject_a_restarted_shard() {
    let rig = restart_rig();
    let victim_addr = rig.shard1.addr();

    // Warm the pool. Every connection the router ever dialed to the
    // victim said one `Hello`, and with fewer than the pool's cap (4)
    // of them none was dropped — so the shard's own ledger counts the
    // pool: requests − frames − the one catalog fetch at spawn. Herds of
    // concurrent fetches at fresh thresholds (no cache hit, no
    // coalescing) force overlapping upstream calls, hence more dials.
    let pooled = || {
        let m = rig.shard1.metrics();
        m.counter(SERVE.requests) - m.counter(SERVE.frames_served) - 1
    };
    const HERD: usize = 6;
    let mut viewers: Vec<Client> = (0..HERD)
        .map(|_| Client::connect_with(rig.router.addr(), ClientConfig::no_retry()).unwrap())
        .collect();
    for round in 0..200 {
        if pooled() >= 3 {
            break;
        }
        let gun = Barrier::new(HERD);
        std::thread::scope(|scope| {
            for (i, viewer) in viewers.iter_mut().enumerate() {
                let gun = &gun;
                scope.spawn(move || {
                    gun.wait();
                    let threshold = 1.0 + (round * HERD + i) as f64;
                    viewer.fetch(rig.victim_frame, threshold).unwrap();
                });
            }
        });
    }
    assert!(pooled() >= 3, "could not warm 3 pooled connections");

    rig.shard1.shutdown();
    let revived = respawn_on(victim_addr, &rig.slice1);

    let (frame, _) = viewers[0].fetch(rig.victim_frame, f64::INFINITY).unwrap();
    assert_eq!(frame, rig.reference[rig.victim_frame as usize]);
    let rm = rig.router.metrics();
    assert_eq!(rm.counter(CTR_ROUTER_UPSTREAM_RETRIES), 0);
    assert_eq!(rm.counter(CTR_ROUTER_UPSTREAM_ERRORS), 0);
    assert_eq!(rm.counter(CTR_ROUTER_BREAKER_OPEN), 0);
    assert_eq!(rig.router.breaker_state(1), BreakerState::Closed);

    drop(viewers);
    rig.router.shutdown();
    rig.shard0.shutdown();
    revived.shutdown();
}

/// Pooled connections also go stale with no restart at all: a shard
/// closes any connection idle past its `read_timeout`. A quiet period
/// must cost the next operation a silent redial — not a zeroed `Stats`
/// total, not an upstream error, and (threshold 1: one charged failure
/// would trip it) nothing on a healthy shard's breaker.
#[test]
fn an_idle_gap_is_redialed_without_an_error_or_a_verdict() {
    let impatient = ServerConfig {
        read_timeout: Some(Duration::from_millis(200)),
        ..ServerConfig::default()
    };
    let router = RouterConfig {
        breaker: BreakerConfig {
            failure_threshold: 1,
        },
        health: HealthConfig {
            probe_interval: Duration::ZERO,
            ..HealthConfig::default()
        },
        ..RouterConfig::default()
    };
    let service =
        ShardedFrameService::spawn_loopback_replicated(stores(6, 800), 3, 1, impatient, router)
            .unwrap();
    let mut viewer = Client::connect_with(service.addr(), ClientConfig::no_retry()).unwrap();
    for f in 0..6 {
        viewer.fetch(f, f64::INFINITY).unwrap();
    }
    let idle = Duration::from_millis(600);

    std::thread::sleep(idle);
    let polled = viewer.stats().unwrap();
    let frames_served = polled.counter(SERVE.frames_served);
    assert_eq!(frames_served, 6, "a shard was polled as zeros");
    assert_eq!(frames_served, service.stats().counter(SERVE.frames_served));

    std::thread::sleep(idle);
    // A fresh threshold: the router cache cannot answer this one.
    viewer.fetch(0, 1.0).unwrap();

    let rm = service.router().metrics();
    assert_eq!(rm.counter(CTR_ROUTER_UPSTREAM_ERRORS), 0);
    assert_eq!(rm.counter(CTR_ROUTER_BREAKER_OPEN), 0);
    for shard in 0..3 {
        assert_eq!(service.router().breaker_state(shard), BreakerState::Closed);
    }
    drop(viewer);
    service.shutdown();
}

/// The background prober discovers a dead shard with **no client
/// traffic at all**: its failed `Stats` pings trip the breaker, so the
/// first real request after the death fast-fails instead of paying the
/// discovery cost itself.
#[test]
fn prober_trips_the_breaker_without_client_traffic() {
    let data = stores(4, 800);
    let mut service = ShardedFrameService::spawn_loopback_replicated(
        data,
        2,
        1,
        ServerConfig::default(),
        RouterConfig {
            cache_bytes: 1,
            breaker: BreakerConfig {
                failure_threshold: 2,
            },
            health: HealthConfig {
                probe_interval: Duration::from_millis(20),
                probe_timeout: Duration::from_millis(500),
                probe_seed: 404,
            },
            ..RouterConfig::default()
        },
    )
    .unwrap();
    let victim = ShardSpec::new(2).owner_of(0);
    service.kill_shard(victim);

    // No requests issued: the prober alone must observe the death.
    let rm = service.router().metrics();
    let deadline = Instant::now() + Duration::from_secs(10);
    while service.router().breaker_state(victim) != BreakerState::Open && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        service.router().breaker_state(victim),
        BreakerState::Open,
        "probe failures alone must trip the breaker"
    );
    assert!(rm.counter(CTR_ROUTER_PROBE_FAIL) >= 2);
    assert!(
        rm.counter(CTR_ROUTER_PROBE_OK) >= 1,
        "the live shard's pings keep answering"
    );
    service.shutdown();
}

/// The prober also closes the loop: a shard that comes back on its
/// *old* address (no `set_shard_addr`, no operator) is reinstated by a
/// successful ping, and requests flow again.
#[test]
fn prober_reinstates_a_shard_that_returns_on_its_old_address() {
    let data = stores(4, 800);
    let spec = ShardSpec::new(2);
    let (map, slices) = Origin::from(data).layout(2, 1).unwrap();
    let shard0 = FrameServer::spawn_loopback(slices[0].clone(), ServerConfig::default()).unwrap();
    let shard1 = FrameServer::spawn_loopback(slices[1].clone(), ServerConfig::default()).unwrap();
    let victim_addr = shard1.addr();
    let router = FrameRouter::spawn(
        "127.0.0.1:0",
        vec![shard0.addr(), shard1.addr()],
        map,
        RouterConfig {
            cache_bytes: 1,
            breaker: BreakerConfig {
                failure_threshold: 1,
            },
            health: HealthConfig {
                probe_interval: Duration::from_millis(20),
                probe_timeout: Duration::from_millis(500),
                probe_seed: 505,
            },
            ..RouterConfig::default()
        },
    )
    .unwrap();
    let victim_frame = (0..4u32)
        .find(|&f| spec.owner_of(f) == 1)
        .expect("shard 1 should primary-own a frame in a 4-frame catalog");

    shard1.shutdown();
    let deadline = Instant::now() + Duration::from_secs(10);
    while router.breaker_state(1) != BreakerState::Open && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(router.breaker_state(1), BreakerState::Open);

    // The shard returns on the very same port.
    let revived = respawn_on(victim_addr, &slices[1]);

    // No operator action: probing must reinstate the shard on its own.
    let deadline = Instant::now() + Duration::from_secs(10);
    while router.breaker_state(1) != BreakerState::Closed && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        router.breaker_state(1),
        BreakerState::Closed,
        "a returning shard must be reinstated without set_shard_addr"
    );
    assert!(router.metrics().counter(CTR_ROUTER_PROBE_OK) >= 1);

    let mut client = Client::connect_with(router.addr(), ClientConfig::no_retry()).unwrap();
    let (frame, _) = client.fetch(victim_frame, f64::INFINITY).unwrap();
    assert_eq!(frame.step, victim_frame as usize);

    drop(client);
    router.shutdown();
    shard0.shutdown();
    revived.shutdown();
}

/// An ejected shard gets no client request. The victim accepts
/// connections but never answers (a listener nobody accepts from), so
/// every request handed to it would stall a whole upstream read. Probes
/// eject it; after that, over four more failed probes, every fetch of
/// its primary frames is served by the replica at once and not one
/// upstream attempt fails: the prober, not a client, finds out whether
/// the shard came back. The probes' 1 s timeout leaves second-long gaps
/// between their failures, in which a breaker that reopened on a clock
/// would hand a client request to the hung shard.
#[test]
fn an_ejected_hung_shard_gets_no_client_request() {
    let data = stores(FRAMES, 800);
    let reference = reference_frames(&data);
    let service = ShardedFrameService::spawn_loopback_replicated(
        data,
        3,
        2,
        ServerConfig::default(),
        RouterConfig {
            cache_bytes: 1,
            health: HealthConfig {
                probe_interval: Duration::from_millis(20),
                probe_timeout: Duration::from_secs(1),
                probe_seed: 606,
            },
            ..RouterConfig::default()
        },
    )
    .unwrap();
    let spec = ShardSpec::new(3);
    let primaries = |shard| (0..FRAMES as u32).filter(move |&f| spec.owner_of(f) == shard);
    let victim = (0..3).max_by_key(|&s| primaries(s).count()).unwrap();
    let doomed: Vec<u32> = primaries(victim).collect();
    assert!(doomed.len() >= 2, "alternate frames past the 1-byte cache");

    let hung = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let router = service.router();
    router
        .set_shard_addr(victim, hung.local_addr().unwrap())
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while router.breaker_state(victim) != BreakerState::Open && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(router.breaker_state(victim), BreakerState::Open);

    let rm = router.metrics();
    let errors = rm.counter(CTR_ROUTER_UPSTREAM_ERRORS);
    let probe_fails = rm.counter(CTR_ROUTER_PROBE_FAIL);
    let impatient = ClientConfig {
        read_timeout: Some(Duration::from_secs(2)),
        ..ClientConfig::no_retry()
    };
    let mut client = Client::connect_with(service.addr(), impatient).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    for &f in doomed.iter().cycle() {
        if rm.counter(CTR_ROUTER_PROBE_FAIL) >= probe_fails + 4 || Instant::now() >= deadline {
            break;
        }
        let t0 = Instant::now();
        let fetched = client.fetch(f, f64::INFINITY);
        let elapsed = t0.elapsed();
        let (got, _) = fetched.unwrap_or_else(|e| panic!("frame {f} after {elapsed:?}: {e}"));
        assert_eq!(got, reference[f as usize], "frame {f} differs");
        assert!(
            elapsed < Duration::from_millis(250),
            "frame {f} took {elapsed:?}: a client request reached the ejected shard"
        );
    }
    assert!(rm.counter(CTR_ROUTER_PROBE_FAIL) >= probe_fails + 4);
    assert_eq!(
        rm.counter(CTR_ROUTER_UPSTREAM_ERRORS),
        errors,
        "no upstream attempt may go to an ejected shard"
    );
    assert_eq!(router.breaker_state(victim), BreakerState::Open);
    drop(client);
    drop(hung);
    service.shutdown();
}

/// `spawn_loopback_replicated` provisioning is sound: at replication 2
/// every shard a frame's replica set names serves it under the local
/// index the map routes by — so every replica serves bytes identical to
/// the primary's.
#[test]
fn every_replica_serves_identical_bytes() {
    let data = stores(6, 800);
    let reference = reference_frames(&data);
    let (map, _) = Origin::from(data.clone()).layout(3, 2).unwrap();
    let mut service = ShardedFrameService::spawn_loopback_replicated(
        data,
        3,
        2,
        ServerConfig::default(),
        chaos_router(),
    )
    .unwrap();

    // Ask each live shard directly for each of its local frames and
    // check them against the global reference.
    for g in 0..6u32 {
        for &(shard, local) in map.replicas(g).unwrap() {
            let mut direct = Client::connect_with(
                service.shard(shard as usize).addr(),
                ClientConfig::no_retry(),
            )
            .unwrap();
            let (frame, _) = direct.fetch(local, f64::INFINITY).unwrap();
            assert_eq!(frame.step, g as usize, "shards serve global steps");
            assert_eq!(
                frame, reference[g as usize],
                "shard {shard} local {local} differs from global frame {g}"
            );
        }
    }

    // Zero replication is rejected up front.
    let err = ShardedFrameService::spawn_loopback_replicated(
        stores(2, 800),
        2,
        0,
        ServerConfig::default(),
        RouterConfig::default(),
    )
    .map(|_| ())
    .unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);

    // kill_shard / reinstate_shard round-trip bookkeeping.
    assert!(service.shard_alive(0));
    service.kill_shard(0);
    assert!(!service.shard_alive(0));
    service.kill_shard(0); // idempotent
    service.reinstate_shard(0).unwrap();
    assert!(service.shard_alive(0));
    service.reinstate_shard(0).unwrap(); // idempotent
    service.shutdown();
}

/// An out-of-range shard is refused with `InvalidInput` by
/// `reinstate_shard`, as `FrameRouter::set_shard_addr` refuses it — an
/// `io::Result` that panics instead is no result.
#[test]
fn reinstating_a_shard_out_of_range_is_invalid_input() {
    let mut service = ShardedFrameService::spawn_loopback_replicated(
        stores(2, 800),
        2,
        1,
        ServerConfig::default(),
        chaos_router(),
    )
    .unwrap();
    for shard in [2, usize::MAX] {
        let err = service.reinstate_shard(shard).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    }
    assert!(service.shard_alive(0) && service.shard_alive(1));
    service.shutdown();
}
