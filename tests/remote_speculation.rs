//! `RemoteFrames` fetches frame n + 1 while frame n is drawn: after a
//! stride-1 step it speculates one frame ahead on its one connection
//! when the viewer starts drawing. Speculation must save the round trips
//! it promises — a stepping, drawing playback asks the server for each
//! frame once — and must never change what a load returns: a jump gets
//! the frame it asked for, and a speculative reply cut by a fault leaves
//! the next load genuine, plain or progressive, with or without retries.
//! A source dropped mid speculation joins its helper, the connection
//! stays usable for `Stats` in the middle of playback, and a viewer that
//! never draws is never fetched ahead for.
//!
//! The chaos test's seed comes from `ACCELVIZ_CHAOS_SEED`, as in
//! `serve_faults.rs`. NOTE for CI: no test in this file may legitimately
//! print "panicked at" — the chaos steps grep for that string.

mod common;

use accelviz::core::hybrid::HybridFrame;
use accelviz::core::session::{SessionOp, ViewerSession};
use accelviz::core::viewer::FrameSource;
use accelviz::render::framebuffer::Framebuffer;
use accelviz::serve::client::{
    FaultyConnector, TcpConnector, CTR_CLIENT_SPECULATIVE_FETCHES, CTR_CLIENT_SPECULATIVE_UNUSED,
    CTR_CLIENT_SPECULATIVE_USED,
};
use accelviz::serve::fault::{FaultDirection, FaultEvent, FaultKind, FaultPlan, FaultScript};
use accelviz::serve::lod;
use accelviz::serve::protocol::{write_response, Response};
use accelviz::serve::stats::SERVE;
use accelviz::serve::wire::V2;
use accelviz::serve::{Client, ClientConfig, FrameServer, RemoteFrames, RetryPolicy, ServerConfig};
use common::{chaos_seed, stores};
use std::sync::Arc;
use std::time::Duration;

const FRAMES: usize = 12;

/// This suite's seed when `ACCELVIZ_CHAOS_SEED` is unset.
const DEFAULT_SEED: u64 = 20_260_806;

fn fast_retry(seed: u64) -> ClientConfig {
    ClientConfig {
        retry: Some(RetryPolicy::fast(seed)),
        ..ClientConfig::default()
    }
}

fn global(name: &str) -> u64 {
    accelviz::trace::global().counter(name)
}

/// A server of `FRAMES` frames and what each must be bit-identical to.
fn serve() -> (FrameServer, Vec<HybridFrame>) {
    let config = ServerConfig::default();
    let data = stores(FRAMES, 800);
    let reference = data
        .iter()
        .enumerate()
        .map(|(i, d)| HybridFrame::from_partition(d, i, f64::INFINITY, config.volume_dims))
        .collect();
    (
        FrameServer::spawn_loopback(data, config).unwrap(),
        reference,
    )
}

/// Loads `index`, checks it is the genuine, complete frame, and starts
/// drawing it, as a viewer session does.
fn load_genuine(remote: &mut RemoteFrames, index: usize, reference: &[HybridFrame]) {
    let (got, load) = remote.load(index).unwrap();
    assert!(
        !load.degraded && !load.partial,
        "frame {index} must be genuine: {load:?}"
    );
    assert_eq!(&*got, &reference[index], "frame {index} differs");
    remote.drawing();
}

/// Read-side bytes a fault-free session takes to reach the reply to
/// `frame`, when it fetched frames `0..frame` before it: the hello ack
/// and each earlier reply, plain or progressive under `progressive`.
fn offset_of_reply(server: &FrameServer, frame: u32, progressive: Option<u64>) -> (u64, u64) {
    let mut clean = Client::connect_with(server.addr(), ClientConfig::no_retry()).unwrap();
    let mut reply = |f| match progressive {
        Some(budget) => clean.fetch_progressive(f, f64::INFINITY, budget).unwrap().1,
        None => clean.fetch(f, f64::INFINITY).unwrap().1,
    };
    let before: u64 = (0..frame).map(|f| reply(f).wire_bytes).sum();
    let hello = {
        let ack = Response::HelloAck {
            version: V2,
            frame_count: FRAMES as u32,
        };
        write_response(&mut Vec::new(), &ack).unwrap()
    };
    (hello + before, reply(frame).wire_bytes)
}

fn faulty_remote(
    server: &FrameServer,
    events: Vec<FaultEvent>,
    config: ClientConfig,
    resident: usize,
) -> (RemoteFrames, Arc<FaultScript>) {
    let script = FaultPlan::new(events).script();
    let connector = FaultyConnector::new(
        TcpConnector::new(server.addr(), &config).unwrap(),
        Arc::clone(&script),
    );
    let client = Client::connect_via(Box::new(connector), config).unwrap();
    (RemoteFrames::new(client, f64::INFINITY, resident), script)
}

/// A stride-1 playback in a viewer session that draws every frame:
/// every frame equal to local extraction, each fetched once — the first
/// two on demand, the rest speculatively while the one before is drawn.
#[test]
fn a_drawing_playback_fetches_each_frame_once_ahead_of_its_load() {
    let (server, reference) = serve();
    let used_before = global(CTR_CLIENT_SPECULATIVE_USED);
    let client = Client::connect(server.addr()).unwrap();
    let remote = RemoteFrames::new(client, f64::INFINITY, 2);
    let mut session = ViewerSession::open_with(Box::new(remote));
    let mut fb = Framebuffer::new(32, 32);
    session.render(&mut fb);
    for (index, want) in reference.iter().enumerate().skip(1) {
        let cost = session.apply(SessionOp::StepTo(index));
        assert!(!cost.failed && !cost.degraded, "frame {index}: {cost:?}");
        assert_eq!(session.frame(), want, "frame {index} differs");
        session.render(&mut fb);
    }
    // Frames 2..12 came from speculation; the last frame drawn fetched
    // frame 0, long evicted, ahead: 12 + 1 requests at most.
    let used = global(CTR_CLIENT_SPECULATIVE_USED) - used_before;
    assert!(used >= 10, "{used} speculative frames used");
    drop(session);
    let served = server.metrics().counter(SERVE.frames_served);
    assert!(served <= FRAMES as u64 + 1, "{served} frame requests");
    server.shutdown();
}

/// A viewer that steps without drawing is fetched nothing ahead: each
/// load is one demand fetch.
#[test]
fn loads_without_drawing_fetch_nothing_ahead() {
    let (server, reference) = serve();
    let client = Client::connect(server.addr()).unwrap();
    let mut remote = RemoteFrames::new(client, f64::INFINITY, 2);
    for (index, want) in reference.iter().enumerate().take(4) {
        let (got, _) = remote.load(index).unwrap();
        assert_eq!(&*got, want);
    }
    let stats = remote.client().stats().unwrap();
    assert_eq!(stats.counter(SERVE.frames_served), 4);
    server.shutdown();
}

/// A jump gets the frame it asked for, not the speculated successor,
/// and the discarded speculation is counted.
#[test]
fn a_jump_discards_the_speculation_and_loads_the_frame_asked_for() {
    let (server, reference) = serve();
    let unused_before = global(CTR_CLIENT_SPECULATIVE_UNUSED);
    let client = Client::connect(server.addr()).unwrap();
    let mut remote = RemoteFrames::new(client, f64::INFINITY, 2);
    for index in [0, 1, 2, 7] {
        load_genuine(&mut remote, index, &reference);
    }
    assert!(global(CTR_CLIENT_SPECULATIVE_UNUSED) > unused_before);
    // 0 and 1 on demand, 2 and 3 speculatively, 7 on demand — and no
    // speculation after a jump.
    let stats = remote.client().stats().unwrap();
    assert_eq!(stats.counter(SERVE.frames_served), 5);
    server.shutdown();
}

/// A fault that cuts the speculative reply — the one to frame 2, which
/// only the speculation asks for — leaves load 2 genuine: with retries
/// the speculation heals itself, without them it is discarded and the
/// demand fetch reconnects.
#[test]
fn a_cut_speculative_reply_leaves_the_next_load_genuine() {
    let (server, reference) = serve();
    let (at, len) = offset_of_reply(&server, 2, None);
    for config in [
        fast_retry(chaos_seed(DEFAULT_SEED)),
        ClientConfig::no_retry(),
    ] {
        let cut = FaultEvent {
            direction: FaultDirection::Read,
            at_byte: at + len / 2,
            kind: FaultKind::Truncate,
        };
        let (mut remote, script) = faulty_remote(&server, vec![cut], config, 2);
        for index in 0..4 {
            load_genuine(&mut remote, index, &reference);
        }
        assert_eq!(script.stats().truncations, 1, "the cut fired");
        assert!(remote.client().client_stats().reconnects >= 1);
        assert_eq!(remote.degraded_loads + remote.partial_loads, 0);
    }
    server.shutdown();
}

/// The same cut in a progressive session, past the speculative
/// stream's renderable head: the partial it leaves is discarded, never
/// shown, and load 2 is the whole frame.
#[test]
fn a_cut_speculative_stream_shows_no_partial() {
    let (server, reference) = serve();
    let budget = lod::MIN_CHUNK_BYTES;
    let (at, len) = offset_of_reply(&server, 2, Some(budget));
    let head = lod::plan_frame_chunks(&reference[2], budget)[0].len() as u64 + 24;
    assert!(head < len * 3 / 4, "the cut must fall past the head");
    for config in [
        fast_retry(chaos_seed(DEFAULT_SEED)),
        ClientConfig::no_retry(),
    ] {
        let cut = FaultEvent {
            direction: FaultDirection::Read,
            at_byte: at + len * 3 / 4,
            kind: FaultKind::Truncate,
        };
        let (remote, script) = faulty_remote(&server, vec![cut], config, 2);
        let mut remote = remote.progressive(budget);
        for index in 0..4 {
            load_genuine(&mut remote, index, &reference);
        }
        assert_eq!(script.stats().truncations, 1, "the cut fired");
        assert!(remote.client().client_stats().reconnects >= 1);
        assert_eq!(remote.degraded_loads + remote.partial_loads, 0);
    }
    server.shutdown();
}

/// Dropping the source while its speculation stalls on the link returns
/// once the helper has handed the connection back: nothing outlives the
/// source — the helper's client held the fault script, and it is gone.
#[test]
fn dropping_the_source_mid_speculation_joins_its_helper() {
    let (server, reference) = serve();
    let (at, _) = offset_of_reply(&server, 2, None);
    let stall = FaultEvent {
        direction: FaultDirection::Read,
        at_byte: at + 8,
        kind: FaultKind::Delay(Duration::from_millis(200)),
    };
    let (mut remote, script) = faulty_remote(&server, vec![stall], ClientConfig::no_retry(), 2);
    load_genuine(&mut remote, 0, &reference);
    load_genuine(&mut remote, 1, &reference);
    drop(remote);
    assert_eq!(script.stats().delays, 1, "the speculation was in flight");
    assert_eq!(
        Arc::strong_count(&script),
        1,
        "the helper's connection outlived the source"
    );
    server.shutdown();
}

/// `Stats` in the middle of playback: the running speculation is
/// settled first, and its frame still serves the next load.
#[test]
fn stats_mid_playback_waits_for_the_speculation_and_keeps_it() {
    let (server, reference) = serve();
    let client = Client::connect(server.addr()).unwrap();
    let mut remote = RemoteFrames::new(client, f64::INFINITY, 2);
    load_genuine(&mut remote, 0, &reference);
    load_genuine(&mut remote, 1, &reference);
    let stats = remote.client().stats().unwrap();
    assert_eq!(
        stats.counter(SERVE.frames_served),
        3,
        "0, 1 and speculative 2"
    );
    load_genuine(&mut remote, 2, &reference);
    let stats = remote.client().stats().unwrap();
    assert_eq!(
        stats.counter(SERVE.frames_served),
        4,
        "frame 2 was not fetched again; 3 was speculated"
    );
    server.shutdown();
}

/// A seeded chaos plan over a speculating playback: two full loops,
/// every frame bit-identical, no load degraded, no handler panic.
#[test]
fn a_speculating_playback_survives_a_seeded_chaos_plan() {
    let seed = chaos_seed(DEFAULT_SEED);
    let (server, reference) = serve();
    let (span, _) = offset_of_reply(&server, FRAMES as u32 - 1, None);
    let fetches_before = global(CTR_CLIENT_SPECULATIVE_FETCHES);
    let script = FaultPlan::chaos(seed, 8, span).script();
    let config = fast_retry(seed);
    let connector = FaultyConnector::new(
        TcpConnector::new(server.addr(), &config).unwrap(),
        Arc::clone(&script),
    );
    let client = Client::connect_via(Box::new(connector), config).unwrap();
    let mut remote = RemoteFrames::new(client, f64::INFINITY, 2);
    for index in (0..2 * FRAMES).map(|i| i % FRAMES) {
        load_genuine(&mut remote, index, &reference);
    }
    let fired = script.stats();
    assert!(
        fired.disconnects >= 1 && fired.truncations >= 1,
        "{fired:?}"
    );
    assert!(global(CTR_CLIENT_SPECULATIVE_FETCHES) - fetches_before >= FRAMES as u64);
    assert!(remote.client().client_stats().retries >= 1);
    assert_eq!(server.metrics().counter(SERVE.handler_panics), 0);
    server.shutdown();
}
