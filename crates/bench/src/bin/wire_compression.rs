//! BENCH — AVWF v2 wire compression and the out-of-core store on the
//! Figure 1 workload.
//!
//! Measures, for a developed-halo hybrid frame:
//! - bytes per frame over the v1 (raw) and v2 (compressed) encodings,
//!   and the resulting compression ratio (the issue's acceptance bar is
//!   ≥2x, asserted in full mode);
//! - v2 encode and decode throughput;
//! - modeled remote-transfer time for both encodings over the paper-era
//!   wide-area link (`TransferModel::wide_area`);
//! - cold (disk, checksummed chunk reads) vs warm (resident) fetch
//!   latency through `ResidentRun` under a one-frame budget.
//!
//! Usage:
//!   cargo run -p accelviz-bench --release --bin wire_compression            # full, writes BENCH_wire.json
//!   cargo run -p accelviz-bench --release --bin wire_compression -- --smoke # small CI workload, no JSON
//!
//! Writes `BENCH_wire.json` into the current directory (full mode only).

use accelviz_bench::workloads;
use accelviz_core::hybrid::HybridFrame;
use accelviz_core::remote::TransferModel;
use accelviz_octree::builder::{partition, BuildParams};
use accelviz_octree::extraction::threshold_for_budget;
use accelviz_octree::plots::PlotType;
use accelviz_octree::sorted_store::PartitionedData;
use accelviz_serve::wire::{decode_frame_v2, encode_frame, encode_frame_v2};
use accelviz_store::run::write_run_file;
use accelviz_store::ResidentRun;
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

struct Scale {
    particles: usize,
    cells: usize,
    grid: [usize; 3],
    reps: usize,
    store_frames: usize,
}

/// The Figure 1 halo workload at full scale, or a fast CI smoke cut.
fn scale(smoke: bool) -> Scale {
    if smoke {
        Scale {
            particles: 20_000,
            cells: 10,
            grid: [32, 32, 32],
            reps: 3,
            store_frames: 3,
        }
    } else {
        Scale {
            particles: 100_000,
            cells: 40,
            grid: [64, 64, 64],
            reps: 10,
            store_frames: 4,
        }
    }
}

fn best_of(reps: usize, mut run: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        run();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let s = scale(smoke);
    let seed = 11u64;

    let snap = workloads::halo_snapshot(s.particles, s.cells, seed);
    let data = partition(&snap.particles, PlotType::X_PX_Y, BuildParams::default());
    let budget = s.particles / 25;
    let threshold = threshold_for_budget(&data, budget);
    let frame = HybridFrame::from_partition(&data, snap.step as usize, threshold, s.grid);
    println!(
        "workload: {} particles, {} halo points, {}^3 grid",
        s.particles,
        frame.points.len(),
        s.grid[0]
    );

    // Bytes per frame, both encodings.
    let raw = encode_frame(&frame);
    let (wire, raw_len) = encode_frame_v2(&frame);
    assert_eq!(raw.len() as u64, raw_len, "v2 trailer must record v1 size");
    let ratio = raw.len() as f64 / wire.len() as f64;
    println!(
        "v1 frame: {} B   v2 frame: {} B   ratio: {ratio:.2}x",
        raw.len(),
        wire.len()
    );
    let decoded = decode_frame_v2(&wire).expect("own encoding must decode");
    assert_eq!(decoded, frame, "v2 roundtrip must be bit-identical");
    if !smoke {
        assert!(
            ratio >= 2.0,
            "acceptance: fig-1 frame must compress >= 2x, got {ratio:.2}x"
        );
    }

    // Encode / decode throughput over the *decoded* frame size (the
    // bytes the pipeline actually produces and consumes).
    let encode_s = best_of(s.reps, || {
        std::hint::black_box(encode_frame_v2(std::hint::black_box(&frame)));
    });
    let decode_s = best_of(s.reps, || {
        std::hint::black_box(decode_frame_v2(std::hint::black_box(&wire)).unwrap());
    });
    let mib = raw.len() as f64 / (1024.0 * 1024.0);
    println!(
        "v2 encode: {:.1} MiB/s   v2 decode: {:.1} MiB/s",
        mib / encode_s,
        mib / decode_s
    );

    // What compression buys on the paper's remote link.
    let wan = TransferModel::wide_area();
    let (t_raw, t_wire) = (
        wan.seconds_for(raw.len() as u64),
        wan.seconds_for(wire.len() as u64),
    );
    println!("wide-area transfer: {t_raw:.3}s raw -> {t_wire:.3}s compressed");

    // Cold vs warm fetch through the residency layer: a multi-frame run
    // under a one-frame budget, alternating frames so every cold fetch
    // pays the full checksummed chunk-read path.
    let frames: Vec<PartitionedData> = (0..s.store_frames)
        .map(|i| {
            let snap =
                workloads::halo_snapshot(s.particles / s.store_frames, s.cells, seed + i as u64);
            partition(&snap.particles, PlotType::X_PX_Y, BuildParams::default())
        })
        .collect();
    let path = std::env::temp_dir().join(format!("accelviz-bench-wire-{}", std::process::id()));
    write_run_file(&path, &frames, accelviz_store::DEFAULT_CHUNK_BYTES).unwrap();
    let frame_bytes = frames[0].particles().len() as u64 * 48;
    let run = Arc::new(ResidentRun::open(&path, frame_bytes).unwrap());

    let cold_s = best_of(s.reps, || {
        // Ping-pong between two frames under a one-frame budget: every
        // fetch evicts the other, so both loads are cold.
        run.fetch(0).unwrap();
        run.fetch(1).unwrap();
    }) / 2.0;
    run.fetch(0).unwrap();
    let warm_s = best_of(s.reps, || {
        run.fetch(0).unwrap();
    });
    let rs = run.stats();
    println!(
        "store fetch: cold {:.1} us, warm {:.2} us ({} cold loads, {} evictions)",
        cold_s * 1e6,
        warm_s * 1e6,
        rs.cold_loads,
        rs.evictions
    );
    assert!(rs.evictions > 0, "the one-frame budget must force paging");
    let _ = std::fs::remove_file(&path);

    if smoke {
        println!("smoke mode: skipping BENCH_wire.json");
        return;
    }

    let json = format!(
        "{{\n  \"bench\": \"wire_compression\",\n  \"workload\": {{\"figure\": 1, \"particles\": {}, \"cells\": {}, \"seed\": {seed}, \"point_budget\": {budget}, \"grid\": [{}, {}, {}], \"halo_points\": {}}},\n  \"v1_frame_bytes\": {},\n  \"v2_frame_bytes\": {},\n  \"compression_ratio\": {ratio:.3},\n  \"encode_mib_s\": {:.1},\n  \"decode_mib_s\": {:.1},\n  \"wide_area_raw_s\": {t_raw:.4},\n  \"wide_area_v2_s\": {t_wire:.4},\n  \"store\": {{\"cold_fetch_us\": {:.1}, \"warm_fetch_us\": {:.2}, \"frame_bytes\": {frame_bytes}}}\n}}\n",
        s.particles,
        s.cells,
        s.grid[0],
        s.grid[1],
        s.grid[2],
        frame.points.len(),
        raw.len(),
        wire.len(),
        mib / encode_s,
        mib / decode_s,
        cold_s * 1e6,
        warm_s * 1e6,
    );
    let path = "BENCH_wire.json";
    let mut f = std::fs::File::create(path).expect("create json");
    f.write_all(json.as_bytes()).expect("write json");
    println!("wrote {path}");
    let _ = accelviz_trace::flush();
}
