//! Chaos session: the resilience layer under a seeded fault plan.
//!
//! Spins up a loopback frame server, then runs a viewer session whose
//! transport is wrapped in a `FaultyTransport` driven by a deterministic
//! `FaultPlan` — delays, mid-message disconnects, truncations, and bit
//! flips at scheduled byte offsets. The session should not notice: the
//! retry/reconnect machinery heals every injected fault and each frame
//! arrives bit-identical to a fault-free run.
//!
//! The run prints, per step, whether the frame was genuine or a
//! degraded fallback, then the fault/client/server counters that make
//! the recovery work visible, and finally the measured *no-fault
//! overhead* of the resilience layer (retry-enabled vs retry-disabled
//! fetch timing against a healthy server) — the number quoted in
//! EXPERIMENTS.md.
//!
//! Run: `cargo run --release --example chaos_session`
//! Seed override: `ACCELVIZ_CHAOS_SEED=31337 cargo run --release --example chaos_session`

use accelviz::beam::distribution::Distribution;
use accelviz::core::session::{SessionOp, ViewerSession};
use accelviz::core::viewer::FrameSource;
use accelviz::octree::builder::{partition, BuildParams};
use accelviz::octree::plots::PlotType;
use accelviz::render::framebuffer::Framebuffer;
use accelviz::serve::client::{FaultyConnector, TcpConnector};
use accelviz::serve::stats::SERVE;
use accelviz::serve::{
    Client, ClientConfig, FaultPlan, FrameServer, RemoteFrames, RetryPolicy, ServerConfig,
};
use std::sync::Arc;
use std::time::Instant;

const FRAMES: usize = 5;

fn main() {
    let seed: u64 = std::env::var("ACCELVIZ_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_260_806);

    // Five modest beam snapshots on the "simulation" side.
    let stores: Vec<_> = (0..FRAMES)
        .map(|i| {
            let ps = Distribution::default_beam().sample(2_000, i as u64 + 1);
            partition(&ps, PlotType::XYZ, BuildParams::default())
        })
        .collect();
    let server = FrameServer::spawn_loopback(stores, ServerConfig::default()).expect("bind");

    // Fault-free reference run — both the ground truth for bit-identity
    // and the reply-volume measurement that calibrates the chaos plan.
    let mut clean = Client::connect_with(server.addr(), ClientConfig::no_retry()).expect("connect");
    let mut reference = Vec::new();
    let mut reply_bytes = 0u64;
    for frame in 0..FRAMES as u32 {
        let (f, m) = clean.fetch(frame, f64::INFINITY).expect("clean fetch");
        reply_bytes += m.wire_bytes;
        reference.push(f);
    }
    drop(clean);

    // The chaos plan: 8 seeded faults spread over the session's reply
    // volume, guaranteed to include at least one delay, one disconnect,
    // and one truncation.
    let plan = FaultPlan::chaos(seed, 8, reply_bytes);
    println!(
        "chaos plan (seed {seed}, {} faults over {reply_bytes} reply bytes):",
        plan.events().len()
    );
    for e in plan.events() {
        println!("  {:?} at byte {:>8}: {:?}", e.direction, e.at_byte, e.kind);
    }

    let script = plan.script();
    let config = ClientConfig {
        retry: Some(RetryPolicy::fast(seed)),
        ..ClientConfig::default()
    };
    let connector = FaultyConnector::new(
        TcpConnector::new(server.addr(), &config).expect("resolve"),
        Arc::clone(&script),
    );
    let client = Client::connect_via(Box::new(connector), config).expect("chaos connect");
    let mut remote = RemoteFrames::new(client, f64::INFINITY, FRAMES);

    println!("\nsession under chaos:");
    let start = Instant::now();
    let mut identical = 0;
    for (i, want) in reference.iter().enumerate() {
        let (got, load) = remote.load(i).expect("chaos load");
        let verdict = if load.degraded {
            "DEGRADED (stale fallback)"
        } else if &*got == want {
            identical += 1;
            "ok, bit-identical to fault-free run"
        } else {
            "MISMATCH"
        };
        println!(
            "  frame {i}: {:>7} points in {:.4} s — {verdict}",
            got.points.len(),
            load.seconds
        );
    }
    let elapsed = start.elapsed();
    let cs = remote.client().client_stats();
    let fired = script.stats();
    println!(
        "\n{identical}/{FRAMES} frames bit-identical in {:.3} s despite {} injected faults",
        elapsed.as_secs_f64(),
        fired.total()
    );
    println!(
        "  faults fired : {} delays, {} disconnects, {} truncations, {} bit flips",
        fired.delays, fired.disconnects, fired.truncations, fired.bit_flips
    );
    println!(
        "  client healed: {} retries, {} reconnects, {} giveups",
        cs.retries, cs.reconnects, cs.giveups
    );
    println!(
        "  server side  : {} handler panics, {} shed connections, {} shed extractions",
        server.metrics().counter(SERVE.handler_panics),
        server.metrics().counter(SERVE.shed_connections),
        server.metrics().counter(SERVE.shed_extractions),
    );

    // Render the last (chaos-delivered) frame so the trace, if enabled,
    // covers the full pipeline.
    let mut session = ViewerSession::open_with(Box::new(remote));
    session.apply(SessionOp::StepTo(FRAMES - 1));
    let boundary = session.preprocessing_boundary();
    session.apply(SessionOp::SetBoundary(boundary));
    let mut fb = Framebuffer::new(128, 128);
    let scene = session.render(&mut fb);
    println!(
        "  rendered chaos-delivered frame: {} points drawn, {} volume samples",
        scene.points_drawn, scene.volume_samples
    );

    // What does resilience cost when nothing goes wrong? Fetch the same
    // (now cached) frame repeatedly with retries disabled vs enabled:
    // the delta is pure bookkeeping — the fault hooks are compiled out
    // of the plain transport path entirely.
    const ROUNDS: usize = 200;
    let mut plain = Client::connect_with(server.addr(), ClientConfig::no_retry()).expect("plain");
    let t = Instant::now();
    for _ in 0..ROUNDS {
        plain.fetch(0, f64::INFINITY).expect("plain fetch");
    }
    let plain_s = t.elapsed().as_secs_f64() / ROUNDS as f64;
    drop(plain);

    let mut armed = Client::connect(server.addr()).expect("armed");
    let t = Instant::now();
    for _ in 0..ROUNDS {
        armed.fetch(0, f64::INFINITY).expect("armed fetch");
    }
    let armed_s = t.elapsed().as_secs_f64() / ROUNDS as f64;

    println!("\nno-fault resilience overhead ({ROUNDS} warm fetches each):");
    println!("  retries disabled: {:.1} µs/fetch", plain_s * 1e6);
    println!("  retries enabled : {:.1} µs/fetch", armed_s * 1e6);
    println!(
        "  overhead        : {:+.1}% (retry state is consulted only on error paths)",
        100.0 * (armed_s - plain_s) / plain_s
    );

    server.shutdown();
    if let Some(path) = accelviz::trace::flush().expect("trace write") {
        println!("\nwrote pipeline trace to {}", path.display());
    }
}
