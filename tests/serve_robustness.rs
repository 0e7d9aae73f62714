//! Robustness of the frame service against misbehaving clients: stalled
//! and byte-dribbling connections must not pin worker threads, and
//! non-finite thresholds must be rejected in-band without killing the
//! connection.

mod common;

use accelviz::serve::protocol::{
    read_response, Request, Response, ERR_BAD_REQUEST, ERR_BAD_THRESHOLD, ERR_INTERNAL,
};
use accelviz::serve::stats::SERVE;
use accelviz::serve::wire::{MAGIC, V2};
use accelviz::serve::{
    Client, ClientConfig, FrameServer, RouterConfig, ServeError, ServerConfig, ShardedFrameService,
};
use common::{raw_reply, stores};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn short_timeout_config() -> ServerConfig {
    ServerConfig {
        read_timeout: Some(Duration::from_millis(100)),
        write_timeout: Some(Duration::from_millis(100)),
        ..ServerConfig::default()
    }
}

/// Reads until EOF or `deadline`; returns whether the peer closed.
fn peer_closed_within(stream: &mut TcpStream, deadline: Duration) -> bool {
    let start = Instant::now();
    stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    let mut buf = [0u8; 64];
    while start.elapsed() < deadline {
        match stream.read(&mut buf) {
            Ok(0) => return true,
            Ok(_) => continue,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue
            }
            // Reset also proves the worker gave up on us.
            Err(_) => return true,
        }
    }
    false
}

#[test]
fn silent_client_is_disconnected_by_the_read_timeout() {
    let server = FrameServer::spawn_loopback(stores(1, 800), short_timeout_config()).unwrap();

    // Connect and send nothing at all.
    let mut mute = TcpStream::connect(server.addr()).unwrap();
    assert!(
        peer_closed_within(&mut mute, Duration::from_secs(5)),
        "server must drop a client that never sends a request"
    );

    // The freed server still serves well-behaved clients.
    let mut client = Client::connect(server.addr()).unwrap();
    let (frame, _) = client.fetch(0, f64::INFINITY).unwrap();
    assert_eq!(frame.step, 0);
    server.shutdown();
}

#[test]
fn byte_dribbling_client_cannot_pin_a_worker() {
    let server = FrameServer::spawn_loopback(stores(1, 800), short_timeout_config()).unwrap();

    // Send a lone byte — the worker now blocks mid-envelope — then stall.
    let mut dribble = TcpStream::connect(server.addr()).unwrap();
    dribble.write_all(&[0x41]).unwrap();
    assert!(
        peer_closed_within(&mut dribble, Duration::from_secs(5)),
        "server must drop a client stalled mid-request"
    );

    let client = Client::connect(server.addr()).unwrap();
    assert_eq!(client.frame_count(), 1);
    server.shutdown();
}

/// A 16-byte header may not buy memory or a session thread: a request
/// header declaring far more than any request carries is rejected on
/// the header alone — default (30 s) read timeout, no payload ever sent.
#[test]
fn oversized_request_declaration_is_rejected_before_its_payload() {
    let server = FrameServer::spawn_loopback(stores(1, 800), ServerConfig::default()).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(1)))
        .unwrap();
    let mut header = [0u8; 16];
    header[0..4].copy_from_slice(&MAGIC);
    header[4..6].copy_from_slice(&V2.to_le_bytes());
    header[6] = 0x03; // REQ_FRAME
    header[8..16].copy_from_slice(&(1u64 << 20).to_le_bytes());
    stream.write_all(&header).unwrap();
    match read_response(&mut stream) {
        Ok((Response::Error { code, .. }, _)) => assert_eq!(code, ERR_BAD_REQUEST),
        other => panic!("expected ERR_BAD_REQUEST within 1 s, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn nan_thresholds_are_rejected_in_band() {
    let server = FrameServer::spawn_loopback(stores(1, 800), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // Both the canonical NaN and an arbitrary payload NaN: each bit
    // pattern would otherwise occupy its own cache slot.
    let payload_nan = f64::from_bits(f64::NAN.to_bits() ^ 0x5_5555);
    assert!(payload_nan.is_nan());
    for bad in [f64::NAN, payload_nan] {
        match client.fetch(0, bad) {
            Err(ServeError::Remote { code, message }) => {
                assert_eq!(code, ERR_BAD_THRESHOLD);
                assert!(message.contains("NaN"), "{message}");
            }
            other => panic!("NaN threshold: expected a remote error, got {other:?}"),
        }
        // The connection survives each rejection and keeps serving.
        let (frame, _) = client.fetch(0, 1.0).unwrap();
        assert_eq!(frame.step, 0);
    }

    // Rejected requests never reach the extraction cache.
    let stats = client.stats().unwrap();
    assert_eq!(
        stats.counter(SERVE.cache_misses),
        1,
        "only the threshold-1.0 extraction"
    );
    server.shutdown();
}

#[test]
fn infinite_thresholds_remain_valid_dials() {
    // +Inf is the catalog's own unlimited-budget sentinel ("serve
    // everything"); -Inf dials an empty extraction. Neither is an error.
    let server = FrameServer::spawn_loopback(stores(1, 800), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let (all, _) = client.fetch(0, f64::INFINITY).unwrap();
    assert_eq!(all.points.len(), 800, "+Inf serves every particle");
    let (none, _) = client.fetch(0, f64::NEG_INFINITY).unwrap();
    assert!(none.points.is_empty(), "-Inf serves none");
    server.shutdown();
}

#[test]
fn panicking_handler_is_isolated_to_err_internal() {
    // A zero volume dimension makes the extraction itself panic
    // ("grid dims must be positive") — a stand-in for any poisoned
    // request. The panic must not take down the connection, let alone
    // the listener: the client gets ERR_INTERNAL in-band and keeps the
    // session.
    let config = ServerConfig {
        volume_dims: [0, 16, 16],
        ..ServerConfig::default()
    };
    let server = FrameServer::spawn_loopback(stores(1, 800), config).unwrap();
    let mut client = Client::connect_with(server.addr(), ClientConfig::no_retry()).unwrap();

    match client.fetch(0, f64::INFINITY) {
        Err(ServeError::Remote { code, .. }) => assert_eq!(code, ERR_INTERNAL),
        other => panic!("expected in-band ERR_INTERNAL, got {other:?}"),
    }
    assert_eq!(server.metrics().counter(SERVE.handler_panics), 1);

    // The same connection still answers cheap requests...
    assert_eq!(client.list_frames().unwrap().len(), 1);
    // ...and the listener still admits fresh clients.
    let mut second = Client::connect_with(server.addr(), ClientConfig::no_retry()).unwrap();
    assert!(second.stats().unwrap().counter(SERVE.requests) >= 1);
    server.shutdown();
}

#[test]
fn negative_zero_threshold_hits_the_positive_zero_cache_slot() {
    let server = FrameServer::spawn_loopback(stores(1, 800), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let (a, _) = client.fetch(0, 0.0).unwrap();
    let (b, _) = client.fetch(0, -0.0).unwrap();
    assert_eq!(a, b);
    let stats = client.stats().unwrap();
    assert_eq!(
        stats.counter(SERVE.cache_misses),
        1,
        "-0.0 must reuse the 0.0 extraction"
    );
    assert_eq!(stats.counter(SERVE.cache_hits), 1);
    server.shutdown();
}

/// `-0.0` and `0.0` share a cache slot, so they must share reply bytes:
/// a served frame's header (and the trailer hash through it) carries the
/// threshold the slot stands for, not whichever sign a fresh server or
/// router happened to be asked first. `PartialEq` on the decoded frames
/// cannot tell, because `-0.0 == 0.0`.
#[test]
fn negative_and_positive_zero_get_byte_identical_replies_from_fresh_origins() {
    let zero = |threshold: f64| Request::RequestFrame {
        frame: 0,
        threshold,
    };
    let direct = |threshold: f64| {
        let server = FrameServer::spawn_loopback(stores(1, 800), ServerConfig::default()).unwrap();
        let reply = raw_reply(
            &mut TcpStream::connect(server.addr()).unwrap(),
            zero(threshold),
        );
        server.shutdown();
        reply
    };
    let routed = |threshold: f64| {
        let (shards, config) = (ServerConfig::default(), RouterConfig::default());
        let service =
            ShardedFrameService::spawn_loopback_replicated(stores(1, 800), 1, 1, shards, config)
                .unwrap();
        let reply = raw_reply(
            &mut TcpStream::connect(service.addr()).unwrap(),
            zero(threshold),
        );
        service.shutdown();
        reply
    };
    let want = direct(0.0);
    assert!(direct(-0.0) == want, "direct server, -0.0 first");
    assert!(routed(0.0) == want, "router, +0.0 first");
    assert!(routed(-0.0) == want, "router, -0.0 first");
}
