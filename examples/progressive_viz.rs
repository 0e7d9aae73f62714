//! Progressive streaming: time-to-first-pixel on the AVWF v2 wire.
//!
//! A full-fidelity hybrid frame of a large beam snapshot is tens of
//! megabytes; over a wide-area link that is seconds of blank screen. The
//! progressive wire sends the same frame as a density-ordered
//! coarse-to-fine chunk sequence instead: the first chunk alone — a
//! low-depth volume grid plus the brightest halo points — decodes to a
//! renderable partial frame, and every following chunk splices more
//! refinement into the resident frame until it is bit-identical to a
//! full fetch.
//!
//! This example builds one snapshot, walks the chunk plan offline to
//! show what each refinement step adds, then serves the frame over
//! loopback and compares a progressive session against a full fetch:
//! wire bytes until *something* is on screen, versus wire bytes until
//! everything is.
//!
//! Run: `cargo run --release --example progressive_viz`

use accelviz::beam::simulation::{BeamConfig, BeamSimulation};
use accelviz::core::hybrid::HybridFrame;
use accelviz::core::remote::TransferModel;
use accelviz::core::viewer::FrameSource;
use accelviz::octree::builder::{partition, BuildParams};
use accelviz::octree::extraction::threshold_for_budget;
use accelviz::octree::plots::PlotType;
use accelviz::serve::lod::{plan_frame_chunks, ProgressiveAssembler, DEFAULT_CHUNK_BYTES};
use accelviz::serve::{Client, FrameServer, RemoteFrames, ServerConfig};

fn main() {
    let n = 200_000usize;
    let mut sim = BeamSimulation::new(BeamConfig::halo_study(n, 9));
    for _ in 0..32 * 10 {
        sim.step();
    }
    let snapshot = sim.snapshot(10);
    let data = partition(&snapshot.particles, PlotType::XYZ, BuildParams::default());
    let threshold = threshold_for_budget(&data, n / 5);
    let dims = [64, 64, 64];
    let frame = HybridFrame::from_partition(&data, 0, threshold, dims);
    println!(
        "snapshot of {n} particles → hybrid frame: {} halo points, {:?} grid, {:.2} MB resident",
        frame.points.len(),
        dims,
        frame.total_bytes() as f64 / 1e6
    );

    // The chunk plan, walked offline: each record splices into the
    // assembler exactly as it would arriving over TCP.
    let budget = DEFAULT_CHUNK_BYTES;
    let records = plan_frame_chunks(&frame, budget);
    let wan = TransferModel::wide_area();
    println!(
        "\nchunk plan at a {} KiB budget ({} records):",
        budget / 1024,
        records.len()
    );
    println!(
        "{:>6} {:>10} {:>12} {:>14} {:>12}",
        "seq", "bytes", "points", "cumulative MB", "WAN s so far"
    );
    let mut asm = ProgressiveAssembler::new();
    let mut cumulative = 0u64;
    for (seq, record) in records.iter().enumerate() {
        let done = asm.accept(record).expect("record applies");
        cumulative += record.len() as u64;
        let resident = if done {
            frame.points.len()
        } else {
            asm.points_resident()
        };
        // Only print the head, a middle sample, and the tail — the full
        // plan can run to hundreds of records.
        if seq < 3 || seq + 2 >= records.len() || seq % (records.len() / 4).max(1) == 0 {
            println!(
                "{:>6} {:>10} {:>12} {:>14.3} {:>12.2}{}",
                seq,
                record.len(),
                resident,
                cumulative as f64 / 1e6,
                wan.seconds_for(cumulative),
                if seq == 0 {
                    "   ← first pixels: coarse grid + brightest points"
                } else if done {
                    "   ← bit-identical to the full frame"
                } else {
                    ""
                }
            );
        }
        if done {
            assert_eq!(asm.into_frame().expect("complete"), frame);
            break;
        }
    }
    println!(
        "  first chunk is {:.1}% of the stream — the viewer has a usable \
         picture after {:.2} modeled WAN seconds instead of {:.2}",
        100.0 * records[0].len() as f64 / cumulative as f64,
        wan.seconds_for(records[0].len() as u64),
        wan.seconds_for(cumulative)
    );

    // The same story over a real socket: serve the store on loopback and
    // fetch both ways.
    let config = ServerConfig {
        volume_dims: dims,
        ..Default::default()
    };
    let server = FrameServer::spawn_loopback(vec![data], config).expect("loopback bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    let (full, full_metrics) = client.fetch(0, threshold).expect("full fetch");
    let (refined, prog_metrics) = client
        .fetch_progressive(0, threshold, budget)
        .expect("progressive fetch");
    assert_eq!(refined, full, "refined frame must be bit-identical");
    println!(
        "\nover TCP: full fetch {:.2} MB in {:.4} s; progressive {:.2} MB \
         in {:.4} s, refined frame bit-identical",
        full_metrics.wire_bytes as f64 / 1e6,
        full_metrics.seconds,
        prog_metrics.wire_bytes as f64 / 1e6,
        prog_metrics.seconds,
    );

    // And as a viewer session source: `RemoteFrames::progressive` makes
    // every cold load stream chunks, degrading to a *partial* frame of
    // the requested step if the link dies mid-refinement.
    let session_client = Client::connect(server.addr()).expect("connect");
    let mut remote = RemoteFrames::new(session_client, threshold, 1).progressive(budget);
    let (shown, load) = remote.load(0).expect("progressive load");
    println!(
        "session load: {} points on screen, degraded={}, partial={}, {:.2} MB over the wire",
        shown.points.len(),
        load.degraded,
        load.partial,
        load.bytes_loaded as f64 / 1e6
    );
    server.shutdown();

    if let Some(path) = accelviz::trace::flush().expect("trace write") {
        println!("\nwrote pipeline trace to {}", path.display());
    }
}
