//! Remote visualization: why the hybrid representation makes desktop and
//! wide-area visualization practical (§2.1, §2.5) — and the real frame
//! service that implements it.
//!
//! Builds successively tighter hybrid representations of one beam
//! snapshot and prints the transfer/load-time picture for each, then
//! spins up an actual `accelviz-serve` server on loopback, fetches the
//! same frames over TCP with a real client, and prints the *measured*
//! wire size and transfer time next to the analytic `TransferModel`
//! prediction.
//!
//! Run: `cargo run --release --example remote_viz`
//!
//! With `ACCELVIZ_TRACE=trace.json` set, the run also writes a Chrome
//! trace-event file covering the whole pipeline — partition, extraction,
//! wire transfer, and render spans — which opens directly in
//! `chrome://tracing` or <https://ui.perfetto.dev>. See the "Reading a
//! trace" section of the README.

use accelviz::beam::io::snapshot_bytes;
use accelviz::beam::simulation::{BeamConfig, BeamSimulation};
use accelviz::core::hybrid::HybridFrame;
use accelviz::core::remote::{TransferModel, TransferReport};
use accelviz::core::session::{SessionOp, ViewerSession};
use accelviz::octree::builder::{partition, BuildParams};
use accelviz::octree::extraction::threshold_for_budget;
use accelviz::octree::plots::PlotType;
use accelviz::serve::{Client, FrameServer, RemoteFrames, ServerConfig};

fn main() {
    let n = 200_000usize;
    let mut sim = BeamSimulation::new(BeamConfig::halo_study(n, 9));
    for _ in 0..32 * 20 {
        sim.step();
    }
    let snapshot = sim.snapshot(20);
    let data = partition(
        &snapshot.particles,
        PlotType::XYZ,
        BuildParams {
            max_depth: 6,
            leaf_capacity: 256,
            gradient_refinement: None,
        },
    );

    println!("one time step of {n} particles:");
    println!(
        "  raw dump           : {:10.2} MB",
        snapshot_bytes(n as u64) as f64 / 1e6
    );
    println!(
        "  partitioned (octree): {:10.2} MB (+{:.1}% node file, reusable for any threshold)",
        data.total_bytes() as f64 / 1e6,
        100.0 * data.node_file_bytes() as f64 / data.particle_file_bytes() as f64
    );

    let wan = TransferModel::wide_area();
    println!("\nthreshold dial (point budget → size → WAN transfer → disk load):");
    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>10}",
        "points", "size MB", "compression", "WAN s", "load s"
    );
    let budgets = [n, n / 5, n / 20, n / 100];
    for budget in budgets {
        let t = threshold_for_budget(&data, budget);
        let frame = HybridFrame::from_partition(&data, 0, t, [64, 64, 64]);
        let bytes = frame.total_bytes();
        println!(
            "{:>10} {:>12.3} {:>11.1}x {:>12.2} {:>10.3}",
            frame.points.len(),
            bytes as f64 / 1e6,
            frame.compression_factor(),
            wan.seconds_for(bytes),
            bytes as f64 / 10.0e6, // the paper's ~10 MB/s desktop disk
        );
    }

    println!("\npaper-scale arithmetic (100 M particles):");
    for report in [
        TransferReport::new("raw 5 GB step", snapshot_bytes(100_000_000)),
        TransferReport::new("hybrid 100 MB", 100 << 20),
        TransferReport::new("hybrid 10 MB", 10 << 20),
    ] {
        println!(
            "  {:16}: {:9.1} MB → WAN {:8.1} s, LAN {:7.2} s",
            report.label,
            report.bytes as f64 / 1e6,
            report.wan_seconds,
            report.lan_seconds
        );
    }

    // Now the served version of the same story: the partitioned store
    // stays on the "simulation" side, and a real TCP client pulls hybrid
    // frames at whatever threshold the remote scientist dials.
    let config = ServerConfig {
        volume_dims: [64, 64, 64],
        ..Default::default()
    };
    let thresholds: Vec<f64> = budgets
        .iter()
        .map(|&b| threshold_for_budget(&data, b))
        .collect();
    let server = FrameServer::spawn_loopback(vec![data], config).expect("loopback bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    let lan = TransferModel::local_area();

    println!("\nserved over TCP (loopback) — measured vs TransferModel prediction:");
    println!(
        "{:>10} {:>12} {:>14} {:>14} {:>14}",
        "points", "wire MB", "measured s", "LAN model s", "WAN model s"
    );
    for &t in &thresholds {
        let (frame, metrics) = client.fetch(0, t).expect("fetch");
        println!(
            "{:>10} {:>12.3} {:>14.4} {:>14.4} {:>14.2}",
            frame.points.len(),
            metrics.wire_bytes as f64 / 1e6,
            metrics.seconds,
            lan.seconds_for(metrics.wire_bytes),
            wan.seconds_for(metrics.wire_bytes),
        );
    }
    println!(
        "  (loopback beats the modeled LAN: the models predict real links, \
         the measurement validates the encode/transfer/decode path)"
    );

    // Refetch the tightest frame: the server's extraction cache answers.
    let (_, warm) = client
        .fetch(0, *thresholds.last().unwrap())
        .expect("refetch");
    println!(
        "  warm refetch of the tightest frame: {:.4} s (server cache hit)",
        warm.seconds
    );
    let stats = client.stats().expect("stats");
    print!(
        "\nserver stats after this session (the whole registry, over the wire):\n{}",
        accelviz::trace::report::metrics(&stats)
    );

    // A viewer session over the network source — the same session code
    // the local viewer runs, with frames that now arrive over TCP.
    use accelviz::core::viewer::FrameSource;
    let remote_client = Client::connect(server.addr()).expect("connect");
    let mut remote = RemoteFrames::new(remote_client, thresholds[1], 8);
    let (_, cold) = remote.load(0).expect("cold remote load");
    let mut session = ViewerSession::open_with(Box::new(remote));
    let warm = session.apply(SessionOp::StepTo(0));
    println!(
        "\nremote viewer session: first frame {:.4} s over the wire \
         ({} B), re-step {:.4} s ({} points on screen)",
        cold.seconds,
        cold.bytes_loaded,
        warm.io_seconds,
        session.frame().points.len()
    );
    // Render the remote frame so a captured trace covers the full
    // pipeline: partition → extract → wire → render.
    let mut fb = accelviz::render::framebuffer::Framebuffer::new(256, 256);
    let scene = session.render(&mut fb);
    println!(
        "  rendered remotely-fetched frame: {} volume samples, {} points drawn",
        scene.volume_samples, scene.points_drawn
    );
    server.shutdown();

    if let Some(path) = accelviz::trace::flush().expect("trace write") {
        println!("\nwrote pipeline trace to {}", path.display());
        println!("{}", accelviz::trace::summary());
    }
}
