//! End-to-end acceptance for the out-of-core run store: a `FrameServer`
//! backed by a run file whose particle payload exceeds its residency
//! budget serves every frame bit-identical to in-memory extraction,
//! pages frames in and out under the byte budget (visible on the
//! residency counters), counts the v2 bytes its clients receive, and
//! pages a cold frame in once for concurrent sessions.

use accelviz::beam::distribution::Distribution;
use accelviz::core::hybrid::HybridFrame;
use accelviz::octree::builder::{partition, BuildParams};
use accelviz::octree::plots::PlotType;
use accelviz::octree::sorted_store::PartitionedData;
use accelviz::serve::cache::Served;
use accelviz::serve::stats::SERVE;
use accelviz::serve::wire::{encode_frame, CHECKSUM_BYTES, HEADER_BYTES};
use accelviz::serve::{Client, ClientConfig, FrameServer, ServerConfig};
use accelviz::store::run::{round_chunk_bytes, write_run_file};
use accelviz::store::ResidentRun;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};

const FRAMES: usize = 6;
const PARTICLES: usize = 900;
const PARTICLE_BYTES: u64 = 48;
/// An envelope's bytes around its payload: the header and the checksum.
const ENVELOPE_FRAMING: u64 = HEADER_BYTES + CHECKSUM_BYTES;

fn build_frames() -> Vec<PartitionedData> {
    (0..FRAMES)
        .map(|i| {
            let ps = Distribution::default_beam().sample(PARTICLES, i as u64 + 7);
            partition(&ps, PlotType::X_PX_Y, BuildParams::default())
        })
        .collect()
}

fn run_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("accelviz-ooc-{tag}-{}", std::process::id()))
}

/// The acceptance bar for the store tentpole: the served run's
/// particle bytes exceed the residency budget, yet every frame a client
/// fetches is bit-identical to extracting from the in-memory partition.
#[test]
fn stored_server_serves_a_run_bigger_than_its_residency_budget() {
    let frames = build_frames();
    let path = run_path("serve");
    write_run_file(&path, &frames, 4_096).unwrap();

    // Two frames' worth of budget against six frames of data.
    let budget = 2 * PARTICLES as u64 * PARTICLE_BYTES;
    let run = Arc::new(ResidentRun::open(&path, budget).unwrap());
    assert!(
        run.total_particle_bytes() > budget,
        "the run must not fit: {} B of particles, {budget} B of budget",
        run.total_particle_bytes()
    );

    // A frame cache that holds two of these frames whole and not three,
    // so revisiting frames cannot be absorbed above the residency layer —
    // stale frames must re-page from disk. An entry weighs its frame plus
    // the v2 payload a plain fetch fills before admission.
    let dims = ServerConfig::default().volume_dims;
    let weights: Vec<u64> = frames
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let served = Served::new(HybridFrame::from_partition(d, i, f64::INFINITY, dims));
            served.v2();
            served.held_bytes()
        })
        .collect();
    let heaviest = *weights.iter().max().unwrap();
    let lightest = *weights.iter().min().unwrap();
    assert!(3 * lightest > 2 * heaviest, "{weights:?}");
    let config = ServerConfig {
        cache_bytes: 2 * heaviest,
        ..ServerConfig::default()
    };
    let server = FrameServer::spawn_loopback(Arc::clone(&run), config).unwrap();
    let mut client = Client::connect_with(server.addr(), ClientConfig::no_retry()).unwrap();

    // The catalog answers from directory metadata alone — correct
    // counts, no particle I/O beyond what opening already did.
    let catalog = client.list_frames().unwrap();
    assert_eq!(catalog.len(), FRAMES);
    for (i, info) in catalog.iter().enumerate() {
        assert_eq!(info.particles, PARTICLES as u64, "frame {i}");
        // 900 particles fit the 1000-point default budget whole, so the
        // suggested threshold is "keep everything".
        assert!(info.default_threshold > 0.0);
    }

    // Every frame, twice over (forward then backward, so the second
    // pass re-pages evicted frames), bit-identical to local extraction.
    for &threshold in &[f64::INFINITY, 2.5] {
        for i in (0..FRAMES).chain((0..FRAMES).rev()) {
            let (got, _) = client.fetch(i as u32, threshold).unwrap();
            let want = HybridFrame::from_partition(&frames[i], i, threshold, dims);
            assert_eq!(got, want, "frame {i} at threshold {threshold}");
        }
    }

    // The residency layer did real paging under its budget. It weighs a
    // frame as its grid plus its kept prefix: at +Inf that is more than
    // one raw frame, so revisits re-page; at 2.5 it is a fraction of one,
    // so the budget of two raw frames holds more than two.
    let rs = run.stats();
    assert!(rs.resident_bytes <= rs.budget_bytes);
    assert!(
        rs.resident_frames > 2,
        "compact frames: more than two resident, {rs:?}"
    );
    assert!(
        rs.cold_loads > FRAMES as u64,
        "revisits must re-page: {rs:?}"
    );
    assert!(rs.evictions >= 1, "an over-budget run must evict: {rs:?}");
    // A cold load reads the whole frame once and bins it once.
    assert!(rs.bytes_read >= rs.cold_loads * PARTICLES as u64 * PARTICLE_BYTES);
    assert_eq!(rs.grids_binned, rs.cold_loads, "{rs:?}");

    // The v2 session moved compressed frame payloads.
    let stats = client.stats().unwrap();
    let (wire, raw) = (
        stats.counter(SERVE.frame_bytes_wire),
        stats.counter(SERVE.frame_bytes_raw),
    );
    assert!(
        wire < raw,
        "v2 session moved {wire} wire bytes against {raw} raw"
    );
    assert!(raw as f64 / wire as f64 > 1.0, "compression ratio");

    server.shutdown();
    let _ = std::fs::remove_file(&path);
}

/// A stored server's byte counters are what its clients received: the
/// v2 payload bytes are the reply envelopes minus their framing, and the
/// raw bytes are the frames' v1 encodings (the trailer's hash input).
#[test]
fn stored_server_counts_the_v2_bytes_its_clients_receive() {
    let frames = build_frames();
    let path = run_path("counters");
    write_run_file(&path, &frames, 4_096).unwrap();

    let budget = 2 * PARTICLES as u64 * PARTICLE_BYTES;
    let run = Arc::new(ResidentRun::open(&path, budget).unwrap());
    let config = ServerConfig::default();
    let dims = config.volume_dims;
    let server = FrameServer::spawn_loopback(run, config).unwrap();
    let mut client = Client::connect_with(server.addr(), ClientConfig::no_retry()).unwrap();

    let (mut wire, mut raw) = (0, 0);
    for (i, data) in frames.iter().enumerate() {
        let (got, metrics) = client.fetch(i as u32, f64::INFINITY).unwrap();
        let want = HybridFrame::from_partition(data, i, f64::INFINITY, dims);
        assert_eq!(got, want, "frame {i}");
        wire += metrics.wire_bytes - ENVELOPE_FRAMING;
        raw += encode_frame(&got).len() as u64;
    }

    let stats = client.stats().unwrap();
    assert_eq!(stats.counter(SERVE.frame_bytes_wire), wire);
    assert_eq!(stats.counter(SERVE.frame_bytes_raw), raw);
    assert_eq!(stats.counter(SERVE.frames_served), FRAMES as u64);

    server.shutdown();
    let _ = std::fs::remove_file(&path);
}

/// Four sessions ask for the same cold frame at four thresholds at once:
/// four distinct extraction-cache keys, so nothing above the residency
/// window can coalesce them — the window itself pages the frame in once
/// and bins it once.
#[test]
fn four_thresholds_of_one_cold_frame_page_it_in_once() {
    let frames = build_frames();
    let path = run_path("herd");
    write_run_file(&path, &frames, 4_096).unwrap();

    let run = Arc::new(ResidentRun::open(&path, u64::MAX).unwrap());
    let at_open = run.stats();
    let config = ServerConfig::default();
    let dims = config.volume_dims;
    let server = FrameServer::spawn_loopback(Arc::clone(&run), config).unwrap();

    let thresholds = [f64::INFINITY, 2.5, 1.0, 0.25];
    let start = Barrier::new(thresholds.len());
    std::thread::scope(|s| {
        for &threshold in &thresholds {
            let (server, start, frames) = (&server, &start, &frames);
            s.spawn(move || {
                let mut client =
                    Client::connect_with(server.addr(), ClientConfig::no_retry()).unwrap();
                start.wait();
                let (got, _) = client.fetch(3, threshold).unwrap();
                let want = HybridFrame::from_partition(&frames[3], 3, threshold, dims);
                assert_eq!(got, want, "threshold {threshold}");
            });
        }
    });
    // One page-in and one grid. The other three read nothing, or — when
    // they asked more than the prefix the page-in kept — only the records
    // beyond it: extensions take turns, so between them they read the
    // frame's chunks at most once more, plus the one chunk each may share
    // with the prefix it extends. Re-reading a whole frame per request
    // would read four frames' chunks.
    let rs = run.stats();
    assert_eq!((rs.cold_loads, rs.grids_binned), (1, 1), "{rs:?}");
    let requests = rs.cold_loads + rs.prefix_extensions + rs.warm_hits;
    assert_eq!(requests, 4, "{rs:?}");
    let frame_chunks = (PARTICLES as u64 * PARTICLE_BYTES).div_ceil(round_chunk_bytes(4_096));
    let read = rs.chunks_read - at_open.chunks_read;
    assert!(
        read <= 2 * frame_chunks + rs.prefix_extensions,
        "{read} chunks of a {frame_chunks}-chunk frame: {rs:?}"
    );

    server.shutdown();
    let _ = std::fs::remove_file(&path);
}

/// A stored server's `Stats` reply carries its residency window's
/// counters under their `store.resident_*` names, equal to the run's own.
#[test]
fn a_stored_servers_stats_reply_carries_the_windows_counters() {
    let frames = build_frames();
    let path = run_path("wire-counters");
    write_run_file(&path, &frames, 4_096).unwrap();

    let budget = 2 * PARTICLES as u64 * PARTICLE_BYTES;
    let run = Arc::new(ResidentRun::open(&path, budget).unwrap());
    let server = FrameServer::spawn_loopback(Arc::clone(&run), ServerConfig::default()).unwrap();
    let mut client = Client::connect_with(server.addr(), ClientConfig::no_retry()).unwrap();

    // No two requests in a row step by one frame at one threshold, so no
    // read-ahead runs behind the reply. Three page-ins, and frame 3 asked
    // again for its whole prefix: one extension.
    for (frame, threshold) in [(3, 0.25), (0, 2.5), (3, f64::INFINITY), (5, 2.5)] {
        client.fetch(frame, threshold).unwrap();
    }
    let stats = client.stats().unwrap();
    let rs = run.stats();
    assert_eq!((rs.cold_loads, rs.prefix_extensions), (3, 1), "{rs:?}");
    for (name, value) in rs.counters() {
        assert_eq!(stats.counter(name), value, "{name}");
    }
    assert_eq!(stats.counter("store.resident_loads"), rs.cold_loads);

    server.shutdown();
    let _ = std::fs::remove_file(&path);
}
