//! Concurrency acceptance for the frame service: a 200-client storm
//! must come back bit-identical, a connect flood past the connection cap
//! must be answered in-band without spawning a thread per shed socket,
//! and shutdown of an idle server must complete in bounded time without
//! waiting for a next connection.

mod common;

use accelviz::serve::protocol::{read_response, write_request, Request, Response, ERR_BUSY};
use accelviz::serve::stats::SERVE;
use accelviz::serve::{Client, ClientConfig, FrameServer, ServerConfig};
use common::stores;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Live OS threads in this process, when the platform exposes them.
fn live_threads() -> Option<usize> {
    std::fs::read_dir("/proc/self/task")
        .ok()
        .map(|dir| dir.count())
}

/// Spins until `done` reaches `target` (all parked at the barrier), then
/// returns a thread-count snapshot taken while every party is alive.
fn snapshot_when_parked(done: &AtomicUsize, target: usize) -> Option<usize> {
    let deadline = Instant::now() + Duration::from_secs(30);
    while done.load(Ordering::SeqCst) < target {
        assert!(Instant::now() < deadline, "storm never converged");
        std::thread::sleep(Duration::from_millis(2));
    }
    live_threads()
}

/// ≥200 simultaneous loopback sessions, all held open at once, every
/// frame bit-identical to an uncontended fetch.
#[test]
fn two_hundred_clients_fetch_bit_identical_frames() {
    const CLIENTS: usize = 200;
    let data = stores(2, 600);
    let config = ServerConfig {
        max_connections: 256,
        ..ServerConfig::default()
    };
    let server = FrameServer::spawn_loopback(data.clone(), config).unwrap();

    // The uncontended reference fetch, per frame.
    let mut reference = Vec::new();
    let mut probe = Client::connect_with(server.addr(), ClientConfig::no_retry()).unwrap();
    for frame in 0..data.len() as u32 {
        reference.push(probe.fetch(frame, f64::INFINITY).unwrap().0);
    }
    drop(probe);

    let reference = Arc::new(reference);
    // Every client holds its connection open until all are in, so the
    // server carries all 200 sessions live at once.
    let release = Arc::new(Barrier::new(CLIENTS));
    let addr = server.addr();
    let workers: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let reference = Arc::clone(&reference);
            let release = Arc::clone(&release);
            std::thread::spawn(move || {
                let mut client = Client::connect_with(addr, ClientConfig::no_retry()).unwrap();
                let frame = (i % reference.len()) as u32;
                let (got, _) = client.fetch(frame, f64::INFINITY).unwrap();
                let identical = got == reference[frame as usize];
                release.wait();
                identical
            })
        })
        .collect();
    for handle in workers {
        assert!(
            handle.join().expect("client thread must not panic"),
            "a storm client saw a frame differing from the reference"
        );
    }
    assert_eq!(server.metrics().counter(SERVE.handler_panics), 0);
    server.shutdown();
}

/// Regression for the shed path: a connect flood past the connection cap
/// used to spawn one unbounded OS thread per shed socket. Now every shed
/// arrival is counted and answered in-band (`ERR_BUSY`) or closed
/// cleanly, and the process thread count during the flood is just the
/// flood's own threads.
#[test]
fn connect_flood_past_the_cap_is_shed_without_thread_growth() {
    const FLOOD: usize = 48;
    let data = stores(1, 600);
    let config = ServerConfig {
        max_connections: 1,
        ..ServerConfig::default()
    };
    let server = FrameServer::spawn_loopback(data, config).unwrap();

    // Occupy the only slot, and prove it is actually held.
    let mut admitted = Client::connect_with(server.addr(), ClientConfig::no_retry()).unwrap();
    admitted.fetch(0, f64::INFINITY).unwrap();

    let baseline = live_threads();
    let parked = Arc::new(AtomicUsize::new(0));
    let release = Arc::new(Barrier::new(FLOOD + 1));
    let addr = server.addr();
    let floods: Vec<_> = (0..FLOOD)
        .map(|_| {
            let parked = Arc::clone(&parked);
            let release = Arc::clone(&release);
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).unwrap();
                // Park *before* sending anything: the old shed path
                // blocked one fresh thread per connection right here,
                // waiting for this request to arrive.
                parked.fetch_add(1, Ordering::SeqCst);
                release.wait();
                probe_shed_outcome(stream)
            })
        })
        .collect();

    let during = snapshot_when_parked(&parked, FLOOD);
    if let (Some(baseline), Some(during)) = (baseline, during) {
        assert!(
            during <= baseline + FLOOD + 4,
            "{during} threads during a {FLOOD}-connection flood against a \
             baseline of {baseline}: shed connections must not each get a thread"
        );
    }
    release.wait();
    let mut busy = 0usize;
    let mut closed = 0usize;
    for handle in floods {
        match handle.join().expect("flood thread must not panic") {
            ShedOutcome::Busy => busy += 1,
            ShedOutcome::Closed => closed += 1,
        }
    }
    assert_eq!(busy + closed, FLOOD, "every flood socket is accounted for");
    assert!(busy >= 1, "at least some arrivals get the in-band ERR_BUSY");
    // Counted, not silently dropped — every arrival shows on the shed
    // counter even when the bounded answer queue was full.
    assert_eq!(
        server.metrics().counter(SERVE.shed_connections),
        FLOOD as u64,
        "every shed arrival must be counted"
    );

    // The admitted session never noticed the flood.
    admitted.fetch(0, f64::INFINITY).unwrap();
    server.shutdown();
}

enum ShedOutcome {
    /// The server answered `ERR_BUSY` in-band.
    Busy,
    /// The socket was closed (or reset) without a reply — the bounded
    /// answer queue was full.
    Closed,
}

fn probe_shed_outcome(mut stream: TcpStream) -> ShedOutcome {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut hello = Vec::new();
    write_request(&mut hello, &Request::Hello { version: 1 }).unwrap();
    if stream.write_all(&hello).is_err() {
        return ShedOutcome::Closed;
    }
    let mut reply = Vec::new();
    if stream.read_to_end(&mut reply).is_err() && reply.is_empty() {
        return ShedOutcome::Closed;
    }
    if reply.is_empty() {
        return ShedOutcome::Closed;
    }
    match read_response(&mut reply.as_slice()) {
        Ok((Response::Error { code, message }, _)) => {
            assert_eq!(code, ERR_BUSY);
            assert!(message.contains("retry"), "hint missing: {message}");
            ShedOutcome::Busy
        }
        other => panic!("shed socket got an unexpected reply: {other:?}"),
    }
}

/// Regression for the acceptor wake: shutting down an idle server used to
/// block until `listener.incoming()` happened to yield one more
/// connection. The acceptor must observe shutdown deterministically.
#[test]
fn idle_server_shutdown_latency_is_bounded() {
    let data = stores(1, 600);
    let server = FrameServer::spawn_loopback(data, ServerConfig::default()).unwrap();
    // Fully idle: nobody connected, nobody will.
    std::thread::sleep(Duration::from_millis(50));
    let t0 = Instant::now();
    server.shutdown();
    let latency = t0.elapsed();
    assert!(
        latency < Duration::from_secs(2),
        "idle shutdown took {latency:?}; the acceptor was not woken"
    );
}
