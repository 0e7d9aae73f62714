//! Sharded remote visualization: one AVWF front door over two frame
//! servers, each owning half the catalog.
//!
//! A terascale run's frame catalog outgrows one server's memory and one
//! NIC long before it outgrows the wire format. This example spins up a
//! [`ShardedFrameService`] on loopback — two shard servers behind a
//! router, frame ownership decided by rendezvous hashing — and shows
//! that a completely ordinary [`Client`] session works unchanged
//! against it: same handshake, same catalog, same frames, while the
//! router's counters expose where each frame actually came from.
//!
//! Run: `cargo run --release --example sharded_viz`
//!
//! [`ShardedFrameService`]: accelviz::serve::ShardedFrameService
//! [`Client`]: accelviz::serve::Client

use accelviz::beam::distribution::Distribution;
use accelviz::core::shard::ShardSpec;
use accelviz::octree::builder::{partition, BuildParams};
use accelviz::octree::plots::PlotType;
use accelviz::serve::router::{
    CTR_ROUTER_CACHE_HITS, CTR_ROUTER_CACHE_MISSES, CTR_ROUTER_COALESCED, CTR_ROUTER_REQUESTS,
    CTR_ROUTER_UPSTREAM_FETCHES,
};
use accelviz::serve::stats::{CTR_CACHE_HITS, CTR_CACHE_MISSES, CTR_FRAMES_SERVED};
use accelviz::serve::{Client, RouterConfig, ServerConfig, ShardedFrameService};

fn main() {
    // Eight frames of a 50k-particle beam: the "catalog" to spread.
    let frames = 8usize;
    let data: Vec<_> = (0..frames)
        .map(|i| {
            let ps = Distribution::default_beam().sample(50_000, i as u64 + 1);
            partition(&ps, PlotType::XYZ, BuildParams::default())
        })
        .collect();

    // Who owns what is pure arithmetic — any router, client, or operator
    // can recompute the layout from the shard count alone.
    let spec = ShardSpec::new(2);
    println!("rendezvous layout for {frames} frames over 2 shards:");
    for (frame, owner) in spec.assignments(frames).iter().enumerate() {
        println!("  frame {frame} -> shard {owner}");
    }

    let service = ShardedFrameService::spawn_loopback_replicated(
        data,
        2,
        1,
        ServerConfig::default(),
        RouterConfig::default(),
    )
    .expect("spawn sharded service");
    println!(
        "\nsharded service on {} (2 shards behind it)",
        service.addr()
    );

    // An unmodified client session against the router: the shard layer
    // is invisible to the protocol.
    let mut client = Client::connect(service.addr()).expect("connect");
    let catalog = client.list_frames().expect("list");
    println!("merged catalog: {} frames", catalog.len());
    let mut wire_total = 0u64;
    for frame in 0..frames as u32 {
        let (got, metrics) = client.fetch(frame, f64::INFINITY).expect("fetch");
        wire_total += metrics.wire_bytes;
        println!(
            "  frame {frame}: {:>6} points, {:>8} wire bytes, {:.4} s (served by shard {})",
            got.points.len(),
            metrics.wire_bytes,
            metrics.seconds,
            spec.owner_of(frame)
        );
    }

    // Stats through the router carry the sum of the shards' `serve.*`
    // counters beside the router's own `router.*` bookkeeping.
    let merged = client.stats().expect("stats");
    println!(
        "\nmerged shard stats: {} frames served, cache {} hits / {} misses",
        merged.counter(CTR_FRAMES_SERVED),
        merged.counter(CTR_CACHE_HITS),
        merged.counter(CTR_CACHE_MISSES),
    );
    for s in 0..service.shard_count() {
        println!(
            "  shard {s}: {} frames served",
            service.shard(s).metrics().counter(CTR_FRAMES_SERVED)
        );
    }
    println!(
        "router: {} requests, {} upstream fetches, {} cache hits / {} misses, {} coalesced",
        merged.counter(CTR_ROUTER_REQUESTS),
        merged.counter(CTR_ROUTER_UPSTREAM_FETCHES),
        merged.counter(CTR_ROUTER_CACHE_HITS),
        merged.counter(CTR_ROUTER_CACHE_MISSES),
        merged.counter(CTR_ROUTER_COALESCED),
    );
    println!(
        "session moved {:.2} MB over one connection; each shard only \
         extracted its own half of the catalog",
        wire_total as f64 / 1e6
    );
    service.shutdown();
}
