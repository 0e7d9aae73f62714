//! Self-healing sharded serving: kill a shard mid-session and watch the
//! viewer not notice.
//!
//! A terascale catalog spread over shards is only as available as its
//! least reliable node — unless every frame lives on more than one. This
//! example spins up a [`ShardedFrameService`] with three shards at
//! replication 2, fetches the whole catalog, then kills the primary
//! owner of frame 0 and fetches everything again: every frame still
//! arrives, byte-identical, because the router's circuit breaker ejects
//! the dead shard and the rendezvous replica list says who to ask
//! instead. Reinstating the shard resets its breaker and the session
//! carries on as if nothing happened.
//!
//! Run: `cargo run --release --example failover_viz`
//!
//! [`ShardedFrameService`]: accelviz::serve::ShardedFrameService

use accelviz::beam::distribution::Distribution;
use accelviz::core::shard::ShardSpec;
use accelviz::octree::builder::{partition, BuildParams};
use accelviz::octree::plots::PlotType;
use accelviz::serve::router::{
    CTR_ROUTER_BREAKER_FAST_FAILS, CTR_ROUTER_BREAKER_OPEN, CTR_ROUTER_REPLICA_FAILOVERS,
    CTR_ROUTER_UPSTREAM_RETRIES,
};
use accelviz::serve::{
    BreakerConfig, BreakerState, Client, RouterConfig, ServerConfig, ShardedFrameService,
};

fn main() {
    // Eight frames of a 40k-particle beam: the catalog to protect.
    let frames = 8usize;
    let data: Vec<_> = (0..frames)
        .map(|i| {
            let ps = Distribution::default_beam().sample(40_000, i as u64 + 1);
            partition(&ps, PlotType::XYZ, BuildParams::default())
        })
        .collect();

    // The replica layout is pure arithmetic: top-2 rendezvous scores per
    // frame. The first entry is the primary — identical to the old
    // single-owner layout — and the second is where the frame goes when
    // the primary dies.
    let spec = ShardSpec::new(3);
    println!("replica layout for {frames} frames over 3 shards (replication 2):");
    for frame in 0..frames as u32 {
        println!("  frame {frame} -> shards {:?}", spec.owners(frame, 2));
    }

    // A hair-trigger breaker makes the failover visible in a short
    // example; production defaults are gentler. The router walks a
    // frame's replicas once and never backs off: a dead replica is left
    // for the next at once. The 1-byte router cache forces every fetch to
    // the shards — otherwise the second pass would be absorbed by the
    // router's frame cache and the outage would never reach the breaker
    // at all.
    let service = ShardedFrameService::spawn_loopback_replicated(
        data,
        3,
        2,
        ServerConfig::default(),
        RouterConfig {
            cache_bytes: 1,
            breaker: BreakerConfig {
                failure_threshold: 1,
            },
            ..RouterConfig::default()
        },
    )
    .expect("spawn replicated service");
    let mut service = service;
    println!(
        "\nsharded service on {} (3 shards behind it)",
        service.addr()
    );

    // Healthy pass: record every frame's bytes as the reference.
    let mut client = Client::connect(service.addr()).expect("connect");
    let reference: Vec<_> = (0..frames as u32)
        .map(|f| client.fetch(f, f64::INFINITY).expect("healthy fetch").0)
        .collect();
    println!("healthy pass: {} frames fetched", reference.len());

    // Kill the primary owner of frame 0, mid-session.
    let victim = spec.owner_of(0);
    service.kill_shard(victim);
    println!("\nkilled shard {victim} (primary owner of frame 0)");

    // Full second pass against the degraded service. Every frame must
    // still arrive — and match the healthy bytes exactly.
    for f in 0..frames as u32 {
        let (got, metrics) = client.fetch(f, f64::INFINITY).expect("degraded fetch");
        let matches = got == reference[f as usize];
        assert!(matches, "frame {f} changed bytes during failover");
        let owners = spec.owners(f, 2);
        let note = if owners[0] == victim {
            format!("failed over to shard {}", owners[1])
        } else {
            format!("served by shard {}", owners[0])
        };
        println!(
            "  frame {f}: {:>6} points in {:.4} s, bit-identical ({note})",
            got.points.len(),
            metrics.seconds
        );
    }

    let rm = service.router().metrics();
    println!(
        "\nrouter during the outage: breaker opened {} time(s), {} replica \
         failovers, {} fast-fails, {} walks handed back for a client retry",
        rm.counter(CTR_ROUTER_BREAKER_OPEN),
        rm.counter(CTR_ROUTER_REPLICA_FAILOVERS),
        rm.counter(CTR_ROUTER_BREAKER_FAST_FAILS),
        rm.counter(CTR_ROUTER_UPSTREAM_RETRIES),
    );
    println!(
        "shard {victim} breaker state: {:?}",
        service.router().breaker_state(victim)
    );

    // Bring the shard back: reinstate respawns it from its slice and
    // resets the breaker, so traffic returns to the primary immediately.
    service.reinstate_shard(victim).expect("reinstate");
    assert_eq!(service.router().breaker_state(victim), BreakerState::Closed);
    let (got, _) = client.fetch(0, f64::INFINITY).expect("healed fetch");
    assert!(got == reference[0]);
    println!(
        "\nreinstated shard {victim}: breaker reset to {:?}, frame 0 served \
         from its primary again, still bit-identical",
        service.router().breaker_state(victim)
    );
    service.shutdown();
}
