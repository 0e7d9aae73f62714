//! End-to-end observability: the wire `Stats` reply must be the serve
//! metrics registry itself, and a trace captured across the whole
//! pipeline must export as valid, monotonic Chrome trace-event JSON.

mod common;

use accelviz::beam::distribution::Distribution;
use accelviz::core::hybrid::HybridFrame;
use accelviz::core::shard::ShardSpec;
use accelviz::octree::builder::{partition, BuildParams};
use accelviz::octree::extraction::threshold_for_budget;
use accelviz::octree::plots::PlotType;
use accelviz::serve::router::{CTR_ROUTER_BREAKER_OPEN, CTR_ROUTER_UPSTREAM_ERRORS};
use accelviz::serve::stats::{
    CTR_CACHE_HITS, CTR_CACHE_MISSES, CTR_FRAMES_SERVED, CTR_READAHEAD_HINTS, CTR_REQUESTS,
    HIST_LATENCY,
};
use accelviz::serve::{
    Client, ClientConfig, FrameServer, RouterConfig, ServerConfig, ShardedFrameService,
};
use accelviz::trace::chrome::{parse_json, trace_json, Json};
use accelviz::trace::registry::Registry;
use common::stores;
use std::time::{Duration, Instant};

/// Waits until `reg` has finished counting `requests` requests: the
/// latency sample is the last thing a session records for a request, and
/// it lands just after the reply is on the wire.
fn settle(reg: &Registry, requests: u64) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while reg.histogram(HIST_LATENCY).unwrap_or_default().total() != requests {
        assert!(Instant::now() < deadline, "request counters never settled");
        std::thread::yield_now();
    }
}

#[test]
fn registry_cache_counts_match_wire_stats_and_cache_counters() {
    let server = FrameServer::spawn_loopback(stores(2, 1_500), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // 2 distinct (frame, threshold) extractions, each refetched once.
    let t0 = threshold_for_budget(&stores(1, 1_500)[0], 400);
    for _ in 0..2 {
        client.fetch(0, t0).unwrap();
        client.fetch(1, f64::INFINITY).unwrap();
    }

    // Quiescent after the hello and four fetches, the registry...
    let reg = server.metrics();
    settle(reg, 5);
    let local = reg.snapshot();
    // ...is exactly what the `Stats` reply carries: the reply is taken
    // before the Stats request itself is counted.
    let wire = client.stats().unwrap();
    assert_eq!(wire, local);
    assert_eq!(
        wire.counter(CTR_CACHE_MISSES),
        2,
        "two distinct extractions"
    );
    assert_eq!(wire.counter(CTR_CACHE_HITS), 2, "each refetched once");
    assert_eq!(wire.counter(CTR_FRAMES_SERVED), 4);

    // The Stats request lands in the registry after its reply.
    settle(reg, 6);
    assert_eq!(reg.counter(CTR_REQUESTS), wire.counter(CTR_REQUESTS) + 1);

    server.shutdown();
}

#[test]
fn two_servers_in_one_process_keep_separate_metrics() {
    let a = FrameServer::spawn_loopback(stores(1, 1_000), ServerConfig::default()).unwrap();
    let b = FrameServer::spawn_loopback(stores(1, 1_000), ServerConfig::default()).unwrap();
    let mut ca = Client::connect(a.addr()).unwrap();
    ca.fetch(0, f64::INFINITY).unwrap();
    ca.fetch(0, f64::INFINITY).unwrap();
    // The counter bump trails the reply slightly; poll for it.
    let deadline = Instant::now() + Duration::from_secs(5);
    while a.metrics().counter(CTR_FRAMES_SERVED) != 2 {
        assert!(Instant::now() < deadline, "frame counter never settled");
        std::thread::yield_now();
    }
    assert_eq!(
        b.metrics().counter(CTR_FRAMES_SERVED),
        0,
        "server B saw no traffic"
    );
    a.shutdown();
    b.shutdown();
}

/// Counters that once lived only in process are read over the wire: a
/// router's breaker and upstream-error counts after a shard dies, and a
/// server's read-ahead hints after a viewer steps.
#[test]
fn breaker_and_read_ahead_counters_are_readable_over_the_wire() {
    let mut service = ShardedFrameService::spawn_loopback_replicated(
        stores(6, 800),
        2,
        1,
        ServerConfig::default(),
        RouterConfig::default(),
    )
    .unwrap();
    service.kill_shard(1);
    let dead = (0..6).find(|&f| ShardSpec::new(2).owner_of(f) == 1);
    let dead = dead.expect("shard 1 owns a frame");
    let mut client = Client::connect_with(service.addr(), ClientConfig::no_retry()).unwrap();
    // The third failed walk trips the breaker.
    for _ in 0..3 {
        assert!(client.fetch(dead, f64::INFINITY).is_err());
    }
    let wire = client.stats().unwrap();
    assert!(wire.counter(CTR_ROUTER_BREAKER_OPEN) >= 1, "{wire:?}");
    assert!(wire.counter(CTR_ROUTER_UPSTREAM_ERRORS) >= 1, "{wire:?}");
    service.shutdown();

    let server = FrameServer::spawn_loopback(stores(4, 800), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.fetch(0, 2.5).unwrap();
    client.fetch(1, 2.5).unwrap();
    let wire = client.stats().unwrap();
    assert!(wire.counter(CTR_READAHEAD_HINTS) > 0, "{wire:?}");
    server.shutdown();
}

/// The golden trace test: run partition → extract → hybrid build with
/// spans enabled on the global registry and validate the exported JSON —
/// it parses, the expected pipeline spans are present, and every span's
/// timestamps are non-negative with children contained in their parents.
#[test]
fn pipeline_trace_exports_valid_monotonic_chrome_json() {
    // The global registry is shared across tests in this binary; use its
    // explicit switch rather than the env var (reading ACCELVIZ_TRACE is
    // once-per-process and other tests must stay un-traced by default).
    let reg = accelviz::trace::global();
    reg.set_spans_enabled(true);
    let ps = Distribution::default_beam().sample(3_000, 7);
    let data = partition(&ps, PlotType::XYZ, BuildParams::default());
    let t = threshold_for_budget(&data, 500);
    let _frame = HybridFrame::from_partition(&data, 0, t, [8, 8, 8]);
    reg.set_spans_enabled(false);

    let doc = parse_json(&trace_json(reg)).expect("export must parse");
    let events = doc.get("traceEvents").unwrap().as_array().unwrap();

    let span_events: Vec<&Json> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .collect();
    let names: Vec<&str> = span_events
        .iter()
        .filter_map(|e| e.get("name").and_then(Json::as_str))
        .collect();
    for expected in ["octree.partition", "octree.extract", "core.hybrid_frame"] {
        assert!(
            names.contains(&expected),
            "missing span {expected}: {names:?}"
        );
    }

    // Timestamps: non-negative, and logical children contained within
    // their parents' intervals.
    let interval = |e: &Json| -> (f64, f64, f64, Option<f64>) {
        let ts = e.get("ts").unwrap().as_f64().unwrap();
        let dur = e.get("dur").unwrap().as_f64().unwrap();
        let id = e
            .get("args")
            .unwrap()
            .get("span_id")
            .unwrap()
            .as_f64()
            .unwrap();
        let parent = e
            .get("args")
            .unwrap()
            .get("parent_id")
            .and_then(Json::as_f64);
        (ts, dur, id, parent)
    };
    let intervals: Vec<_> = span_events.iter().map(|e| interval(e)).collect();
    for &(ts, dur, _, _) in &intervals {
        assert!(ts >= 0.0 && dur >= 0.0);
    }
    for &(ts, dur, _, parent) in &intervals {
        let Some(pid) = parent else { continue };
        let Some(&(pts, pdur, _, _)) = intervals.iter().find(|&&(_, _, id, _)| id == pid) else {
            continue; // parent span may still have been open at export
        };
        assert!(
            ts >= pts && ts + dur <= pts + pdur + 1e-6,
            "child [{ts}, {}] escapes parent [{pts}, {}]",
            ts + dur,
            pts + pdur
        );
    }
}

#[test]
fn private_registry_spans_do_not_leak_into_the_global_trace() {
    let private = Registry::with_spans();
    drop(private.span("private.only"));
    let global_json = trace_json(accelviz::trace::global());
    assert!(!global_json.contains("private.only"));
    assert!(trace_json(&private).contains("private.only"));
}
