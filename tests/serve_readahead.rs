//! Acceptance for server-side read-ahead: a session stepping through the
//! series finds every frame after its second already extracted and
//! encoded, the bytes it receives are exactly what a cold server sends,
//! `serve.cache_hits` / `serve.cache_misses` keep counting requests, and a
//! run whose residency budget cannot hold two frames is never read ahead.
//! Beside it, the frame cache's byte budget: a viewer's loop that fits is
//! extracted and encoded once, and a shard behind a router holds only the
//! frame it is sending.
//!
//! No test here waits on the clock or spins on a counter: ordering comes
//! from the session itself, which runs a step's read-ahead after writing
//! the step's reply and before reading its next request, so by the time a
//! client's next reply arrives the read-ahead before it is done.

mod common;

use accelviz::core::hybrid::HybridFrame;
use accelviz::serve::protocol::{Request, RESP_ERROR};
use accelviz::serve::stats::SERVE;
use accelviz::serve::wire::V2;
use accelviz::serve::{
    Client, ClientConfig, FrameServer, RouterConfig, ServerConfig, ShardedFrameService,
};
use accelviz::store::run::write_run_file;
use accelviz::store::ResidentRun;
use common::{raw_reply, stores};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

const FRAMES: usize = 6;
const PARTICLES: usize = 1_500;

fn count(server: &FrameServer, name: &str) -> u64 {
    server.metrics().counter(name)
}

/// A session that steps through the whole series is a miss twice — the
/// frame it starts on and the one that makes it a sequence — and a hit
/// from then on, every frame bit-identical to local extraction, each
/// extracted exactly once.
#[test]
fn a_stepping_session_misses_twice_and_then_hits_read_ahead_entries() {
    let data = stores(FRAMES, PARTICLES);
    let config = ServerConfig::default();
    let server = FrameServer::spawn_loopback(data.clone(), config).unwrap();
    let mut client = Client::connect_with(server.addr(), ClientConfig::no_retry()).unwrap();
    for (k, d) in data.iter().enumerate() {
        // From `k = 2` on, frame `k` was read ahead after `k - 1` was
        // written and before this request was read: a hit.
        let (got, _) = client.fetch(k as u32, 2.5).unwrap();
        let want = HybridFrame::from_partition(d, k, 2.5, config.volume_dims);
        assert_eq!(got, want, "frame {k}");
    }
    let n = FRAMES as u64;
    assert_eq!(count(&server, SERVE.cache_misses), 2);
    assert_eq!(count(&server, SERVE.cache_hits), n - 2);
    assert_eq!(count(&server, SERVE.readahead_fetches), n - 2);
    // Each hint found no read-ahead running: the one before it finished
    // before its session read the request that made this one.
    assert_eq!(count(&server, SERVE.readahead_dropped), 0);
    assert_eq!(count(&server, SERVE.shed_extractions), 0);
    // Looping on is a step too, and its successors (frames 0 and 1) are
    // resident: hinted, never fetched again. The `Stats` request is read
    // after the last hint's read-ahead, and its reply counts the same
    // requests.
    client.fetch(0, 2.5).unwrap();
    let wire = client.stats().unwrap();
    assert_eq!(count(&server, SERVE.readahead_hints), n);
    assert_eq!(count(&server, SERVE.readahead_fetches), n - 2);
    assert_eq!(
        (
            wire.counter(SERVE.cache_hits),
            wire.counter(SERVE.cache_misses)
        ),
        (n - 1, 2)
    );
    drop(client);
    server.shutdown();
}

/// Sessions that do not step forward one frame at a time at one
/// threshold never read ahead.
#[test]
fn sessions_that_do_not_step_hint_nothing() {
    let server =
        FrameServer::spawn_loopback(stores(FRAMES, PARTICLES), ServerConfig::default()).unwrap();
    let connect = || Client::connect_with(server.addr(), ClientConfig::no_retry()).unwrap();
    // One fetch per session, as connection-churning clients do.
    for frame in 0..3 {
        connect().fetch(frame, 2.5).unwrap();
    }
    // A fresh threshold per step, a stride, a step backward.
    let mut client = connect();
    for (frame, threshold) in [(0, 1.0), (1, 1.5), (3, 1.5), (2, 1.5)] {
        client.fetch(frame, threshold).unwrap();
    }
    assert_eq!(count(&server, SERVE.readahead_hints), 0);
    assert_eq!(count(&server, SERVE.cache_misses), 7);
    drop(client);
    server.shutdown();
}

/// A stored server reads ahead only when the run's residency budget
/// holds the frame being served and its successor together.
#[test]
fn a_residency_budget_of_one_frame_is_never_read_ahead() {
    let path = std::env::temp_dir().join(format!("accelviz-readahead-{}", std::process::id()));
    write_run_file(&path, &stores(FRAMES, PARTICLES), 4_096).unwrap();
    let frame_bytes = PARTICLES as u64 * 48;
    // A zero budget holds the newest extraction only, so every step needs
    // its frame's particles.
    let config = ServerConfig {
        cache_bytes: 0,
        ..ServerConfig::default()
    };
    // Every hint is settled, fetched or dropped, before its session reads
    // the next request.
    for (budget, reads_ahead) in [(frame_bytes, false), (2 * frame_bytes, true)] {
        let run = Arc::new(ResidentRun::open(&path, budget).unwrap());
        let server = FrameServer::spawn_loopback(Arc::clone(&run), config).unwrap();
        let mut client = Client::connect_with(server.addr(), ClientConfig::no_retry()).unwrap();
        for k in 0..FRAMES as u32 {
            client.fetch(k, 2.5).unwrap();
        }
        // The last step's hint as well, whose successor is frame 0, which
        // the zero-budget cache no longer holds: it is settled by the time
        // the next request is answered.
        client.stats().unwrap();
        let n = FRAMES as u64;
        let dropped = if reads_ahead { 0 } else { n - 1 };
        assert_eq!(count(&server, SERVE.readahead_dropped), dropped, "{budget}");
        let (ahead, misses) = if reads_ahead { (n - 1, 2) } else { (0, n) };
        assert_eq!(count(&server, SERVE.readahead_fetches), ahead, "{budget}");
        assert_eq!(count(&server, SERVE.cache_misses), misses, "{budget}");
        // One window request per extraction, whoever ran it: read-ahead
        // moves requests ahead of their sessions, it does not add any.
        // Each frame is paged in once: it is new to the window when first
        // asked, and the last hint's frame 0 is still held — the window
        // keeps frames as their grid and kept prefix — so it is not read
        // again.
        let stats = run.stats();
        let requests = stats.cold_loads + stats.prefix_extensions + stats.warm_hits;
        assert_eq!(requests, misses + ahead, "{budget}: {stats:?}");
        assert_eq!(stats.cold_loads, n, "{budget}: {stats:?}");
        assert!(stats.resident_bytes <= budget, "{budget}: {stats:?}");
        drop(client);
        server.shutdown();
    }
    let _ = std::fs::remove_file(&path);
}

fn session(server: &FrameServer) -> TcpStream {
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    raw_reply(&mut stream, Request::Hello { version: V2 });
    stream
}

/// Byte parity: whatever shape a session asks in, the reply it gets from
/// an entry its read-ahead produced (and encoded) is, byte for
/// byte, the reply a fresh server gives the same request cold.
#[test]
fn replies_from_read_ahead_entries_equal_cold_replies_byte_for_byte() {
    let plain = |frame| Request::RequestFrame {
        frame,
        threshold: 2.5,
    };
    let progressive = |chunk_bytes| {
        move |frame| Request::RequestFrameProgressive {
            frame,
            threshold: 2.5,
            chunk_bytes,
        }
    };
    // (the shape a session steps in, another shape asked of the same
    // entry afterwards).
    type Shape = Box<dyn Fn(u32) -> Request>;
    let cases: Vec<(Shape, Shape)> = vec![
        (Box::new(plain), Box::new(progressive(2_048))),
        // The stepped budget is the one the entry keeps; the other is
        // planned for its request alone.
        (Box::new(progressive(2_048)), Box::new(progressive(8_192))),
        (Box::new(progressive(0)), Box::new(plain)),
    ];
    let data = stores(FRAMES, PARTICLES);
    for (i, (stepped, other)) in cases.iter().enumerate() {
        let ahead = FrameServer::spawn_loopback(data.clone(), ServerConfig::default()).unwrap();
        let mut stepping = session(&ahead);
        raw_reply(&mut stepping, stepped(0));
        raw_reply(&mut stepping, stepped(1));
        let misses = count(&ahead, SERVE.cache_misses);
        let from_ahead = [
            raw_reply(&mut stepping, stepped(2)),
            raw_reply(&mut stepping, other(2)),
        ];
        assert_eq!(
            count(&ahead, SERVE.cache_misses),
            misses,
            "case {i}: frame 2 came from the read-ahead entry"
        );

        let cold = FrameServer::spawn_loopback(data.clone(), ServerConfig::default()).unwrap();
        let mut fresh = session(&cold);
        let from_cold = [
            raw_reply(&mut fresh, stepped(2)),
            raw_reply(&mut fresh, other(2)),
        ];
        assert_eq!(count(&cold, SERVE.readahead_hints), 0);
        assert_ne!(
            from_ahead[0][6], RESP_ERROR,
            "case {i}: a frame, not an error"
        );
        assert!(from_ahead == from_cold, "case {i}: reply bytes differ");

        drop((stepping, fresh));
        ahead.shutdown();
        cold.shutdown();
    }
}

/// Stopping a server while a stepping session reads ahead is as bounded
/// as stopping an idle one: the drain waits for replies, not for a
/// read-ahead.
#[test]
fn shutdown_mid_step_is_prompt() {
    let server =
        FrameServer::spawn_loopback(stores(FRAMES, PARTICLES), ServerConfig::default()).unwrap();
    let mut client = Client::connect_with(server.addr(), ClientConfig::no_retry()).unwrap();
    for frame in 0..3 {
        client.fetch(frame, 2.5).unwrap();
    }
    let t0 = Instant::now();
    server.shutdown();
    assert!(t0.elapsed() < Duration::from_secs(2), "{:?}", t0.elapsed());
    assert!(client.fetch(4, 2.5).is_err(), "the server is gone");
}

/// Frames in a viewer's loop: `view_remote`'s series length.
const LOOP: usize = 12;

/// A viewer cycling a 12-frame stored run on the default config pays for
/// each frame once: after the first cycle the byte-weighed cache holds
/// the whole loop, so two more cycles neither miss nor read anything
/// ahead, and every frame is bit-identical to local extraction.
#[test]
fn a_default_server_extracts_and_encodes_a_viewers_loop_once() {
    let data = stores(LOOP, PARTICLES);
    let path = std::env::temp_dir().join(format!("accelviz-loop-{}", std::process::id()));
    write_run_file(&path, &data, 4_096).unwrap();
    // A window of a third of the run, as the viewer workload opens it: the
    // frame cache, not the window, is what must absorb the revisits.
    let run_bytes = std::fs::metadata(&path).unwrap().len();
    let run = Arc::new(ResidentRun::open(&path, run_bytes / 3).unwrap());
    let config = ServerConfig::default();
    let server = FrameServer::spawn_loopback(Arc::clone(&run), config).unwrap();
    let mut client = Client::connect_with(server.addr(), ClientConfig::no_retry()).unwrap();
    let produced = || count(&server, SERVE.cache_misses) + count(&server, SERVE.readahead_fetches);
    let mut after_first_cycle = 0;
    for cycle in 0..3 {
        for (k, d) in data.iter().enumerate() {
            let (got, _) = client.fetch(k as u32, 2.5).unwrap();
            let want = HybridFrame::from_partition(d, k, 2.5, config.volume_dims);
            assert_eq!(got, want, "cycle {cycle}, frame {k}");
        }
        if cycle == 0 {
            after_first_cycle = produced();
            assert_eq!(after_first_cycle, LOOP as u64, "each frame produced once");
        }
    }
    assert_eq!(
        produced() - after_first_cycle,
        0,
        "the loop is resident after one cycle"
    );
    drop(client);
    server.shutdown();
    let _ = std::fs::remove_file(&path);
}

/// A shard behind a router holds only the frame it is sending: with the
/// router's cache at one byte, fetching a frame the router has evicted
/// goes back to the shard, and is a miss there too.
#[test]
fn a_frame_the_router_evicted_is_a_shard_miss() {
    let router = RouterConfig {
        cache_bytes: 1,
        ..RouterConfig::default()
    };
    let service = ShardedFrameService::spawn_loopback_replicated(
        stores(FRAMES, PARTICLES),
        1,
        1,
        ServerConfig::default(),
        router,
    )
    .unwrap();
    let mut client = Client::connect_with(service.addr(), ClientConfig::no_retry()).unwrap();
    // Different thresholds, so no step: the shard is never read ahead.
    client.fetch(0, 2.5).unwrap();
    client.fetch(1, 1.5).unwrap();
    let misses = count(service.shard(0), SERVE.cache_misses);
    assert_eq!(misses, 2);
    client.fetch(0, 2.5).unwrap();
    assert_eq!(count(service.shard(0), SERVE.cache_misses), misses + 1);
    assert_eq!(count(service.shard(0), SERVE.cache_hits), 0);
    drop(client);
    service.shutdown();
}
