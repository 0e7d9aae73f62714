//! End-to-end remote visualization over a real loopback TCP server: the
//! served frames must be bit-identical to locally extracted ones, a
//! `ViewerSession` must run unmodified over the network source, and
//! concurrent clients must share the server's extraction cache.

mod common;

use accelviz::core::hybrid::HybridFrame;
use accelviz::core::session::{SessionOp, ViewerSession};
use accelviz::octree::extraction::threshold_for_budget;
use accelviz::serve::stats::SERVE;
use accelviz::serve::{Client, FrameServer, RemoteFrames, ServeError, ServerConfig};
use common::stores;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Deterministic beam snapshots: the same seeds give the server and the
/// local reference byte-identical partitioned stores.
/// Waits, up to a deadline, until the server has counted `n` served
/// frames. The door counts a frame *after* writing its reply, on the
/// serving connection's thread, so any other thread can hold the reply
/// before the count; the assertion that follows still decides the test.
fn wait_for_frames_served(server: &FrameServer, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.metrics().counter(SERVE.frames_served) < n && Instant::now() < deadline {
        std::thread::yield_now();
    }
}

#[test]
fn viewer_session_runs_unmodified_over_the_network() {
    let config = ServerConfig::default();
    let server = FrameServer::spawn_loopback(stores(3, 1_500), config).unwrap();
    let local = stores(3, 1_500);
    let threshold = threshold_for_budget(&local[0], 500);

    let client = Client::connect(server.addr()).unwrap();
    let remote = RemoteFrames::new(client, threshold, 8);
    let mut session = ViewerSession::open_with(Box::new(remote));
    assert_eq!(session.frame_count(), 3);

    // Step to a cold frame: the load pays real wire time.
    let first = session.apply(SessionOp::StepTo(2));
    assert!(
        first.io_seconds > 0.0,
        "cold remote frame pays transfer time"
    );
    assert!(!first.failed);
    assert_eq!(session.current(), 2);

    // The remote session shows exactly the frame a local session would.
    let reference = HybridFrame::from_partition(&local[2], 2, threshold, config.volume_dims);
    assert_eq!(*session.frame(), reference);

    // Revisit: client-side resident set makes it free, like the local cache.
    let again = session.apply(SessionOp::StepTo(2));
    assert_eq!(again.io_seconds, 0.0, "revisited remote frame is resident");

    // Boundary edits still never reprocess, locally or remotely.
    let cost = session.apply(SessionOp::SetBoundary(0.01));
    assert!(!cost.reprocessed);

    server.shutdown();
}

#[test]
fn out_of_range_frame_is_an_error_reply_not_a_dead_connection() {
    let server = FrameServer::spawn_loopback(stores(1, 800), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    match client.fetch(5, 0.5) {
        Err(ServeError::Remote { code, message }) => {
            assert_eq!(code, accelviz::serve::protocol::ERR_NO_SUCH_FRAME);
            assert!(message.contains('5'), "{message}");
        }
        other => panic!("expected a remote error, got {other:?}"),
    }
    // The connection survives the error and keeps serving.
    let (frame, _) = client.fetch(0, f64::INFINITY).unwrap();
    assert_eq!(frame.step, 0);

    server.shutdown();
}

#[test]
fn concurrent_clients_share_the_extraction_cache() {
    let config = ServerConfig::default();
    let server = FrameServer::spawn_loopback(stores(2, 1_200), config).unwrap();
    let local = stores(2, 1_200);
    let thresholds: Vec<f64> = [300usize, 900]
        .iter()
        .map(|&b| threshold_for_budget(&local[0], b))
        .collect();
    let addr = server.addr();

    // N >= 4 clients all request the same overlapping (frame, threshold)
    // pairs; every client must see identical frames.
    let n_clients = 5;
    let workers: Vec<_> = (0..n_clients)
        .map(|_| {
            let thresholds = thresholds.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut fetched = Vec::new();
                for frame in 0..2u32 {
                    for &t in &thresholds {
                        let (f, _) = client.fetch(frame, t).unwrap();
                        fetched.push(f);
                    }
                }
                fetched
            })
        })
        .collect();

    let per_client: Vec<Vec<HybridFrame>> =
        workers.into_iter().map(|w| w.join().unwrap()).collect();
    for other in &per_client[1..] {
        assert_eq!(
            &per_client[0], other,
            "all clients must decode identical frames"
        );
    }

    // 5 clients x 4 pairs, only 4 distinct extractions: the shared cache
    // must have absorbed the overlap.
    wait_for_frames_served(&server, (n_clients * 4) as u64);
    let stats = server.metrics().snapshot();
    assert_eq!(stats.counter(SERVE.frames_served), (n_clients * 4) as u64);
    assert_eq!(
        stats.counter(SERVE.cache_misses),
        4,
        "one extraction per distinct pair"
    );
    assert_eq!(stats.counter(SERVE.cache_hits), (n_clients * 4 - 4) as u64);
    assert!(stats.counter(SERVE.cache_hits) > 0);

    // The served frames also match a local reference extraction.
    let reference = HybridFrame::from_partition(&local[0], 0, thresholds[0], config.volume_dims);
    assert_eq!(per_client[0][0], reference);

    server.shutdown();
}

#[test]
fn stats_counters_are_shared_across_connections() {
    let server = FrameServer::spawn_loopback(stores(1, 800), ServerConfig::default()).unwrap();
    let t = 0.25;
    let mut a = Client::connect(server.addr()).unwrap();
    let mut b = Client::connect(server.addr()).unwrap();
    a.fetch(0, t).unwrap();
    b.fetch(0, t).unwrap(); // second connection, same pair: a cache hit
    wait_for_frames_served(&server, 2);
    let stats = b.stats().unwrap();
    assert_eq!(stats.counter(SERVE.frames_served), 2);
    assert_eq!(stats.counter(SERVE.cache_hits), 1);
    assert_eq!(stats.counter(SERVE.cache_misses), 1);
    // 2 hellos + 2 fetches; the snapshot is taken before the stats
    // request itself is counted.
    assert_eq!(stats.counter(SERVE.requests), 4);
    let latency = stats.histogram(SERVE.latency).unwrap_or_default();
    assert_eq!(latency.total(), stats.counter(SERVE.requests));
    drop(a);
    drop(b);
    server.shutdown();
}

#[test]
fn remote_source_shares_frames_via_arc() {
    // The Arc<HybridFrame> contract of FrameSource: repeated loads of a
    // resident frame hand back the same allocation.
    let server = FrameServer::spawn_loopback(stores(1, 600), ServerConfig::default()).unwrap();
    let client = Client::connect(server.addr()).unwrap();
    let mut remote = RemoteFrames::new(client, f64::INFINITY, 2);
    use accelviz::core::viewer::FrameSource;
    let (first, load) = remote.load(0).unwrap();
    assert!(!load.cache_hit);
    let (second, load) = remote.load(0).unwrap();
    assert!(load.cache_hit);
    assert!(Arc::ptr_eq(&first, &second));
    server.shutdown();
}
