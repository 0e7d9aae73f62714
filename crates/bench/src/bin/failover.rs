//! BENCH — self-healing shard serving: what a shard kill actually costs
//! a live session, at replication 1 versus 2.
//!
//! Three operational numbers per replication factor, all measured
//! against a 3-shard loopback service with a hair-trigger breaker and a
//! fast background prober:
//!
//! - `time_to_eject_ms` — wall time from the kill until the victim's
//!   circuit breaker is Open (the prober and in-flight traffic racing
//!   to discover the death). After this point requests stop paying the
//!   upstream retry budget.
//! - `availability_during_kill` — fraction of requests answered with a
//!   genuine frame while the shard stays dead. Replication 2 should
//!   hold this at 1.0 (every frame has a live replica); replication 1
//!   drops to roughly the surviving shards' share of the catalog.
//! - `time_to_reinstate_ms` — wall time from the reinstate call (shard
//!   respawned, router repointed, breaker reset) until a frame whose
//!   primary is the revived shard is served genuinely again.
//!
//! As with the other serve benches, wall times on a small shared box
//! swing with OS scheduling; compare replication rows within one run.
//!
//! Usage:
//!   cargo run -p accelviz-bench --release --bin failover            # full, writes BENCH_failover.json
//!   cargo run -p accelviz-bench --release --bin failover -- --smoke # small CI workload, no JSON
//!
//! Writes `BENCH_failover.json` into the current directory (full mode
//! only).

use accelviz_beam::distribution::Distribution;
use accelviz_core::shard::ShardSpec;
use accelviz_octree::builder::{partition, BuildParams};
use accelviz_octree::plots::PlotType;
use accelviz_octree::sorted_store::PartitionedData;
use accelviz_serve::router::{CTR_ROUTER_BREAKER_FAST_FAILS, CTR_ROUTER_REPLICA_FAILOVERS};
use accelviz_serve::{
    BreakerConfig, BreakerState, Client, ClientConfig, HealthConfig, RetryPolicy, RouterConfig,
    ServerConfig, ShardedFrameService,
};
use std::io::Write;
use std::time::{Duration, Instant};

const SHARDS: usize = 3;

struct Scale {
    particles: usize,
    frames: usize,
    /// How long requests keep flowing against the dead shard.
    kill_window: Duration,
}

fn scale(smoke: bool) -> Scale {
    if smoke {
        Scale {
            particles: 5_000,
            frames: 6,
            kill_window: Duration::from_millis(400),
        }
    } else {
        Scale {
            particles: 20_000,
            frames: 10,
            kill_window: Duration::from_secs(2),
        }
    }
}

fn stores(frames: usize, particles: usize) -> Vec<PartitionedData> {
    (0..frames)
        .map(|i| {
            let ps = Distribution::default_beam().sample(particles, i as u64 + 7);
            partition(&ps, PlotType::XYZ, BuildParams::default())
        })
        .collect()
}

fn service(data: &[PartitionedData], replication: usize, seed: u64) -> ShardedFrameService {
    // A 1-byte router cache so every request pays the upstream hop —
    // availability here must measure the shards, not the router cache.
    let router_config = RouterConfig {
        cache_bytes: 1,
        upstream: ClientConfig {
            retry: Some(RetryPolicy::fast(seed)),
            ..ClientConfig::default()
        },
        breaker: BreakerConfig {
            failure_threshold: 1,
            open_cooldown: Duration::from_millis(150),
        },
        health: HealthConfig {
            probe_interval: Duration::from_millis(20),
            probe_timeout: Duration::from_millis(500),
            probe_seed: seed,
            ..HealthConfig::default()
        },
        ..RouterConfig::default()
    };
    ShardedFrameService::spawn_loopback_replicated(
        data.to_vec(),
        SHARDS,
        replication,
        ServerConfig::default(),
        router_config,
    )
    .expect("spawn replicated service")
}

struct Row {
    replication: usize,
    time_to_eject_ms: f64,
    availability: f64,
    requests: u64,
    genuine: u64,
    time_to_reinstate_ms: f64,
    fast_fails: u64,
    failovers: u64,
}

fn run(data: &[PartitionedData], replication: usize, s: &Scale) -> Row {
    let mut svc = service(data, replication, 40 + replication as u64);
    let spec = ShardSpec::new(SHARDS);
    let victim = spec.owner_of(0);
    let victim_frame = (0..s.frames as u32)
        .find(|&f| spec.owner_of(f) == victim)
        .expect("the victim primary-owns frame 0 by construction");
    let mut client = Client::connect_with(svc.addr(), ClientConfig::no_retry()).expect("connect");

    // Fault-free pass: everything must serve.
    for f in 0..s.frames as u32 {
        client.fetch(f, f64::INFINITY).expect("healthy fetch");
    }

    // Kill, then watch the prober discover the death: with no client
    // traffic at all, the breaker trip is pure detection latency.
    svc.kill_shard(victim);
    let t_kill = Instant::now();
    let ejected = loop {
        if svc.router().breaker_state(victim) == BreakerState::Open {
            break t_kill.elapsed();
        }
        if t_kill.elapsed() > Duration::from_secs(10) {
            panic!("prober never tripped the breaker for shard {victim}");
        }
        std::thread::sleep(Duration::from_millis(1));
    };

    // Availability while the shard stays dead: round-robin the whole
    // catalog for the window and count genuine replies. Victim-primary
    // frames either fail over (replication >= 2) or fast-fail to the
    // degraded path — punctuated by a full-price retry whenever the
    // breaker's cooldown lapses into a half-open trial.
    let (mut requests, mut genuine) = (0u64, 0u64);
    let mut f = 0u32;
    let t_window = Instant::now();
    while t_window.elapsed() < s.kill_window {
        requests += 1;
        if client.fetch(f, f64::INFINITY).is_ok() {
            genuine += 1;
        }
        f = (f + 1) % s.frames as u32;
    }

    // Reinstate and time the road back to a genuine frame from the
    // revived shard's own slice.
    svc.reinstate_shard(victim).expect("reinstate");
    let t_back = Instant::now();
    let reinstated = loop {
        if client.fetch(victim_frame, f64::INFINITY).is_ok() {
            break t_back.elapsed();
        }
        if t_back.elapsed() > Duration::from_secs(30) {
            panic!("revived shard never served frame {victim_frame} again");
        }
        std::thread::sleep(Duration::from_millis(2));
    };

    let rm = svc.router().metrics();
    let row = Row {
        replication,
        time_to_eject_ms: ejected.as_secs_f64() * 1e3,
        availability: genuine as f64 / requests as f64,
        requests,
        genuine,
        time_to_reinstate_ms: reinstated.as_secs_f64() * 1e3,
        fast_fails: rm.counter(CTR_ROUTER_BREAKER_FAST_FAILS),
        failovers: rm.counter(CTR_ROUTER_REPLICA_FAILOVERS),
    };
    drop(client);
    svc.shutdown();
    row
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let s = scale(smoke);
    let data = stores(s.frames, s.particles);
    println!(
        "workload: {} particles x {} frames over {SHARDS} shards, {:?} kill window",
        s.particles, s.frames, s.kill_window
    );

    let mut rows = Vec::new();
    for replication in [1usize, 2] {
        let row = run(&data, replication, &s);
        println!(
            "replication={}  eject={:>7.1}ms  availability={:.3} ({}/{})  reinstate={:>7.1}ms  fast_fails={} failovers={}",
            row.replication,
            row.time_to_eject_ms,
            row.availability,
            row.genuine,
            row.requests,
            row.time_to_reinstate_ms,
            row.fast_fails,
            row.failovers,
        );
        // The headline claims, asserted so CI smoke runs catch a
        // regression rather than just printing one.
        if row.replication >= 2 {
            assert_eq!(
                row.genuine, row.requests,
                "replication 2 must hold availability at 1.0 through the kill"
            );
        } else {
            assert!(
                row.genuine < row.requests,
                "replication 1 should lose the victim's share of the catalog"
            );
        }
        rows.push(format!(
            "    {{\"replication\": {}, \"time_to_eject_ms\": {:.2}, \"availability_during_kill\": {:.4}, \"requests\": {}, \"genuine\": {}, \"time_to_reinstate_ms\": {:.2}, \"breaker_fast_fails\": {}, \"replica_failovers\": {}}}",
            row.replication,
            row.time_to_eject_ms,
            row.availability,
            row.requests,
            row.genuine,
            row.time_to_reinstate_ms,
            row.fast_fails,
            row.failovers,
        ));
    }

    if smoke {
        println!("smoke mode: skipping BENCH_failover.json");
        return;
    }

    let json = format!(
        "{{\n  \"bench\": \"failover\",\n  \"workload\": {{\"particles\": {}, \"frames\": {}, \"shards\": {SHARDS}, \"kill_window_ms\": {}}},\n  \"runs\": [\n{}\n  ]\n}}\n",
        s.particles,
        s.frames,
        s.kill_window.as_millis(),
        rows.join(",\n")
    );
    let path = "BENCH_failover.json";
    let mut file = std::fs::File::create(path).expect("create json");
    file.write_all(json.as_bytes()).expect("write json");
    println!("wrote {path}");
    let _ = accelviz_trace::flush();
}
