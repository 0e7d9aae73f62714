//! End-to-end progressive (LOD) streaming: a progressive fetch must
//! refine to a frame bit-identical to a full fetch — through a direct
//! server, and under a seeded chaos plan with reconnect-and-replay
//! mid-stream (the router's streams are held to a direct server's bytes
//! by `serve_origin_parity.rs`) — while the first chunk alone is a
//! renderable partial frame at a fraction of the full wire bytes. Every
//! session speaks v2: a client offering less is refused in-band.
//!
//! NOTE for CI: no test in this file may legitimately print
//! "panicked at" — the chaos job greps for that string.

mod common;

use accelviz::beam::simulation::{BeamConfig, BeamSimulation};
use accelviz::core::hybrid::HybridFrame;
use accelviz::core::session::{SessionOp, ViewerSession};
use accelviz::core::viewer::FrameSource;
use accelviz::octree::builder::{partition, BuildParams};
use accelviz::octree::extraction::threshold_for_budget;
use accelviz::octree::plots::PlotType;
use accelviz::serve::client::{FaultyConnector, TcpConnector};
use accelviz::serve::fault::{FaultDirection, FaultEvent, FaultKind, FaultPlan};
use accelviz::serve::lod;
use accelviz::serve::protocol::{
    read_request, read_response, write_request, write_response, Request, Response, ERR_BAD_REQUEST,
    REQ_HELLO, RESP_FRAME,
};
use accelviz::serve::stats::SERVE;
use accelviz::serve::wire::{
    decode_frame_v2, encode_frame, encode_frame_v2, read_sealed, write_envelope_v, MAX_PAYLOAD, V2,
};
use accelviz::serve::{
    Client, ClientConfig, FrameServer, RemoteFrames, RetryPolicy, ServeError, ServerConfig,
};
use accelviz::store::codec::encode_f32s;
use common::{chaos_seed, stores};
use std::net::TcpStream;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// This suite's seed when `ACCELVIZ_CHAOS_SEED` is unset.
const DEFAULT_SEED: u64 = 20_260_807;

/// Direct server: every (frame, threshold, budget) cell of the matrix
/// refines to the bit-identical full fetch, the first chunk undercuts
/// the full v2 payload, and both request kinds share one extraction.
#[test]
fn progressive_refines_bit_identical_to_full_fetch_direct() {
    let config = ServerConfig::default();
    let server = FrameServer::spawn_loopback(stores(2, 2_000), config).unwrap();
    let local = stores(2, 2_000);
    let mut client = Client::connect(server.addr()).unwrap();

    for (frame_idx, data) in local.iter().enumerate() {
        for budget in [300usize, 1_200] {
            let threshold = threshold_for_budget(data, budget);
            let (full, full_metrics) = client.fetch(frame_idx as u32, threshold).unwrap();
            for chunk_bytes in [lod::MIN_CHUNK_BYTES, 8 * 1024, 0] {
                let (refined, metrics) = client
                    .fetch_progressive(frame_idx as u32, threshold, chunk_bytes)
                    .unwrap();
                assert_eq!(
                    refined, full,
                    "frame {frame_idx} budget {budget} chunk {chunk_bytes}"
                );
                assert!(metrics.wire_bytes > 0);
                // The reference frame extracted locally matches too —
                // the stream is the *same data*, not merely
                // self-consistent.
                let reference =
                    HybridFrame::from_partition(data, frame_idx, threshold, config.volume_dims);
                assert_eq!(refined, reference);
                let _ = full_metrics;
            }
        }
    }

    // The coarse head alone is a fraction of the full v2 payload: the
    // time-to-first-pixel claim. (The <25%-at-default-budget bar is
    // asserted on a fig-1-shaped frame, much larger than one chunk, in
    // `fig1_frame_compresses_2x_and_leads_with_under_a_quarter`; this
    // frame is not, so pin a budget well under the frame size.)
    let threshold = threshold_for_budget(&local[0], 1_200);
    let reference = HybridFrame::from_partition(&local[0], 0, threshold, config.volume_dims);
    let records = lod::plan_frame_chunks(&reference, 4 * 1024);
    let (full_v2, _) = encode_frame_v2(&reference);
    assert!(
        records[0].len() * 4 < full_v2.len(),
        "first chunk {} B vs full {} B",
        records[0].len(),
        full_v2.len()
    );

    // Observability: progressive traffic is counted, and the shared
    // extraction cache served both request kinds (no double builds).
    let reg = server.metrics();
    assert!(reg.counter(SERVE.lod_requests) >= 12);
    assert!(reg.counter(SERVE.lod_chunks) >= 2 * reg.counter(SERVE.lod_requests));
    let stats = client.stats().unwrap();
    assert!(
        stats.counter(SERVE.cache_hits) >= 12,
        "progressive refetches must hit the same cache entries: {stats:?}"
    );
    server.shutdown();
}

/// A figure-1-shaped frame: a halo beam in `X_PX_Y`, a 64³ grid, one
/// particle in 25 kept as points, from the 100 000 particles of the
/// harness's fig-1 beams. The halo develops for 10 cells instead of the
/// harness's 40: the bars below move by 2–5 % and a debug build takes
/// 1.4 s instead of 4.3 s. Built once for the tests that measure it.
fn fig1_frame() -> &'static HybridFrame {
    static FRAME: OnceLock<HybridFrame> = OnceLock::new();
    FRAME.get_or_init(|| {
        const PARTICLES: usize = 100_000;
        const CELLS: usize = 10;
        let mut sim = BeamSimulation::new(BeamConfig::halo_study(PARTICLES, 11));
        for _ in 0..32 * CELLS {
            sim.step();
        }
        let data = partition(sim.particles(), PlotType::X_PX_Y, BuildParams::default());
        let threshold = threshold_for_budget(&data, PARTICLES / 25);
        HybridFrame::from_partition(&data, 0, threshold, [64, 64, 64])
    })
}

/// The two size bars of the compressed wire and the progressive stream
/// on [`fig1_frame`]: the v2 frame is at least 2× smaller than v1, and at
/// the server's default chunk budget the first progressive chunk is under
/// a quarter of the full v2 frame. The grid ships at its content's size
/// and the points barely compress, so the ratio falls as particles are
/// added (25.4 at 10 000, 8.97 at 50 000, 5.57 at 100 000) while the first
/// chunk's share falls with them (0.52, 0.31, 0.145): a frame of few
/// points is mostly its first chunk. The harness's fig-1 beams record the
/// same two numbers as `wire.v2_ratio` and `lod.first_chunk_fraction`.
#[test]
fn fig1_frame_compresses_2x_and_leads_with_under_a_quarter() {
    let frame = fig1_frame();
    let v1 = encode_frame(frame);
    let (v2, _) = encode_frame_v2(frame);
    let ratio = v1.len() as f64 / v2.len() as f64;
    assert!(
        ratio >= 2.0,
        "v2 frame {} B vs v1 {} B: {ratio:.2}x",
        v2.len(),
        v1.len()
    );

    let records = lod::plan_frame_chunks(frame, lod::DEFAULT_CHUNK_BYTES);
    let fraction = records[0].len() as f64 / v2.len() as f64;
    assert!(
        fraction < 0.25,
        "first chunk {} B is {:.1}% of the {} B v2 frame",
        records[0].len(),
        100.0 * fraction,
        v2.len()
    );
}

/// A grid ships at the size of what it holds: on [`fig1_frame`] (94 % of
/// its cells empty) the grid block of a v2 frame costs at most 4 B per
/// occupied cell, plus a two-byte run token per 256 cells and the block's
/// header. The frame measures 1.7 B per occupied cell; a codec that
/// spends a byte on every empty cell measures 16.
#[test]
fn fig1_grid_block_costs_what_its_occupied_cells_hold() {
    const PER_OCCUPIED: usize = 4;
    const PER_256_CELLS: usize = 2;
    const HEADER: usize = 16;
    let cells = fig1_frame().grid.data();
    let occupied = cells.iter().filter(|c| **c != 0.0).count();
    let block = encode_f32s(cells).len();
    let bound = PER_OCCUPIED * occupied + PER_256_CELLS * cells.len().div_ceil(256) + HEADER;
    assert!(
        block <= bound,
        "grid block {block} B for {occupied} occupied of {} cells: bound {bound} B",
        cells.len()
    );
}

/// Chaos: a seeded fault plan (delay, disconnect, truncation guaranteed
/// in the first half) against a progressive session must still refine
/// every frame bit-identically — mid-stream failures reconnect, replay
/// the request, and skip already-applied records at the assembler's
/// high-water mark.
#[test]
fn chaos_progressive_session_refines_bit_identically() {
    let frames = 5usize;
    let seed = chaos_seed(DEFAULT_SEED);
    let server = FrameServer::spawn_loopback(stores(frames, 800), ServerConfig::default()).unwrap();

    // Fault-free reference pass, measuring the progressive reply volume
    // that calibrates the chaos plan's byte span.
    let mut reference = Vec::new();
    let mut reply_bytes = 0u64;
    let mut clean = Client::connect_with(server.addr(), ClientConfig::no_retry()).unwrap();
    for frame in 0..frames as u32 {
        let (f, m) = clean
            .fetch_progressive(frame, f64::INFINITY, 2_048)
            .unwrap();
        reply_bytes += m.wire_bytes;
        reference.push(f);
    }
    drop(clean);

    let plan = FaultPlan::chaos(seed, 8, reply_bytes);
    let script = plan.script();
    let config = ClientConfig {
        retry: Some(RetryPolicy::fast(seed)),
        ..ClientConfig::default()
    };
    let connector = FaultyConnector::new(
        TcpConnector::new(server.addr(), &config).unwrap(),
        Arc::clone(&script),
    );
    let client = Client::connect_via(Box::new(connector), config).unwrap();
    let mut remote = RemoteFrames::new(client, f64::INFINITY, frames).progressive(2_048);

    for (i, want) in reference.iter().enumerate() {
        let (got, load) = remote.load(i).unwrap();
        assert!(
            !load.degraded && !load.partial,
            "frame {i} must be fully refined, not a fallback"
        );
        assert_eq!(&*got, want, "frame {i} differs from the fault-free run");
    }
    assert!(
        script.stats().total() > 0,
        "the plan must actually have fired"
    );
    server.shutdown();
}

/// An unrecoverable mid-stream failure past the coarse head degrades to
/// a *partial* rendition of the requested frame: the session advances
/// to it (unlike a stale fallback) and the resident points are a prefix
/// of the real frame.
#[test]
fn midstream_failure_degrades_to_a_partial_of_the_requested_frame() {
    let config = ServerConfig::default();
    let server = FrameServer::spawn_loopback(stores(1, 2_000), config).unwrap();
    let reference = {
        let data = stores(1, 2_000);
        HybridFrame::from_partition(&data[0], 0, f64::INFINITY, config.volume_dims)
    };
    let records = lod::plan_frame_chunks(&reference, lod::MIN_CHUNK_BYTES);
    assert!(records.len() > 3, "the plan must have refinement records");

    // Truncate the read side mid-way through the second chunk: after
    // the hello ack and the first chunk envelope, but before the stream
    // completes. Envelope overhead is 16 B header + 8 B checksum.
    let hello_bytes = {
        let mut buf = Vec::new();
        write_response(
            &mut buf,
            &Response::HelloAck {
                version: V2,
                frame_count: 1,
            },
        )
        .unwrap()
    };
    let cut = hello_bytes + (records[0].len() as u64 + 24) + 12;
    let plan = FaultPlan::new(vec![FaultEvent {
        direction: FaultDirection::Read,
        at_byte: cut,
        kind: FaultKind::Truncate,
    }]);
    let config_client = ClientConfig::no_retry();
    let connector = FaultyConnector::new(
        TcpConnector::new(server.addr(), &config_client).unwrap(),
        plan.script(),
    );
    let client = Client::connect_via(Box::new(connector), config_client).unwrap();
    let remote = RemoteFrames::new(client, f64::INFINITY, 4).progressive(lod::MIN_CHUNK_BYTES);

    let mut session = ViewerSession::open_with(Box::new(remote));
    // Frame 0 loaded eagerly at open — but over a dead-by-now transport
    // with no retries the *session step* is what we exercise: force a
    // reload by stepping to 0 again is a cache hit, so instead assert
    // on the initial load's partiality through the frame content.
    let shown = session.frame().clone();
    assert!(
        shown.points.len() < reference.points.len(),
        "the partial must hold a strict prefix: {} vs {}",
        shown.points.len(),
        reference.points.len()
    );
    assert!(!shown.points.is_empty(), "the coarse head was renderable");
    assert_eq!(
        &reference.points[..shown.points.len()],
        &shown.points[..],
        "partial points are a prefix of the real frame"
    );
    // The coarse grid carries the full density mass at reduced dims.
    assert_eq!(shown.grid.total(), reference.grid.total());
    let _ = session.apply(SessionOp::Orbit(0.3, 0.1));
    server.shutdown();
}

/// One wire version. A `Hello` below v2 is refused in-band, and the same
/// connection then handshakes at v2 and serves the frame any client
/// gets. A request envelope framed at version 1 is not read at all.
#[test]
fn hello_below_v2_is_refused_in_band_and_the_connection_serves_on() {
    let server = FrameServer::spawn_loopback(stores(1, 800), ServerConfig::default()).unwrap();
    let connect = || {
        let stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream
    };
    let ask = |stream: &mut TcpStream, req: Request| {
        write_request(stream, &req).unwrap();
        read_response(stream).unwrap().0
    };

    let mut stream = connect();
    match ask(&mut stream, Request::Hello { version: 1 }) {
        Response::Error { code, message } => {
            assert_eq!(code, ERR_BAD_REQUEST);
            assert!(message.contains("protocol version 2 required"), "{message}");
        }
        other => panic!("expected an in-band refusal, got {other:?}"),
    }
    let ack = ask(&mut stream, Request::Hello { version: V2 });
    assert_eq!(
        ack,
        Response::HelloAck {
            version: V2,
            frame_count: 1
        }
    );
    let fetch = Request::RequestFrame {
        frame: 0,
        threshold: f64::INFINITY,
    };
    write_request(&mut stream, &fetch).unwrap();
    let reply = read_sealed(&mut stream, MAX_PAYLOAD).unwrap();
    assert_eq!(reply.kind(), RESP_FRAME, "expected a frame");
    let raw = decode_frame_v2(reply.payload()).unwrap();
    let (via_client, _) = Client::connect(server.addr())
        .unwrap()
        .fetch(0, f64::INFINITY)
        .unwrap();
    assert_eq!(encode_frame(&raw), encode_frame(&via_client));

    let mut v1_hello = Vec::new();
    write_envelope_v(&mut v1_hello, 1, REQ_HELLO, &1u16.to_le_bytes()).unwrap();
    assert!(matches!(
        read_request(&mut v1_hello.as_slice()),
        Err(ServeError::UnsupportedVersion(1))
    ));
    server.shutdown();
}
