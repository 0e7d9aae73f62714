//! `serve_churn` and `serve_failover` — the serving stack under two
//! closed-loop clients (as many as this box has cores), with shipping
//! defaults throughout: `ServerConfig::default()`,
//! `RouterConfig::default()`, `ClientConfig::default()`, and whatever
//! connection backend those select.

use super::{probe_ms, ratio, Layers, Traced, Workload};
use crate::data::{
    frame_digest, frame_matches, pooled_threshold, sampled_series, scheduled_fetch, Scale,
};
use crate::run::{closed_loop, ops_per_s_between, warm_up, Op, RunCtl, Sample};
use crate::stats::median;
use accelviz_core::hybrid::HybridFrame;
use accelviz_core::shard::ShardSpec;
use accelviz_octree::sorted_store::PartitionedData;
use accelviz_serve::{
    BreakerState, Client, FrameServer, RouterConfig, ServerConfig, ShardMap, ShardedFrameService,
};
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

/// Closed-loop clients of both workloads: one per core of the reference
/// machine, so the load generator never outnumbers what it runs on.
const CLIENTS: usize = 2;

/// The threshold clients fetch at — the server's configured point budget
/// pooled over the series — and the in-process reference frame of every
/// index at it.
fn references(data: &[PartitionedData], config: &ServerConfig) -> (f64, Vec<HybridFrame>) {
    let threshold = pooled_threshold(data, config.point_budget);
    let frames = data
        .iter()
        .enumerate()
        .map(|(i, d)| HybridFrame::from_partition(d, i, threshold, config.volume_dims))
        .collect();
    (threshold, frames)
}

// ---------------------------------------------------------------------------
// serve_churn
// ---------------------------------------------------------------------------

/// Frames the churn server holds; all fit its extraction cache.
const CHURN_FRAMES: usize = 8;

/// ROADMAP's "storm" at a load two threads sustain: every op is a whole
/// session — connect, hello, one cached fetch, close. Payload cost is
/// negligible, so accept, admission, dispatch and the counter path are
/// what is measured.
pub struct ServeChurn {
    scale: Scale,
    data: Vec<PartitionedData>,
    server: FrameServer,
    threshold: f64,
    references: Vec<HybridFrame>,
}

/// One session against `addr`: connect + hello, fetch frame
/// `(k + offset) % frames` at `threshold`, close.
fn session(
    op: &mut Op<'_>,
    addr: SocketAddr,
    offset: usize,
    threshold: f64,
    references: &[HybridFrame],
) -> bool {
    let frame = (op.k + offset) % references.len();
    let connected = {
        let _s = op.span("serve.connect_hello");
        Client::connect(addr)
    };
    let Ok(mut client) = connected else {
        return false;
    };
    let fetched = {
        let _s = op.span("serve.fetch");
        client.fetch(frame as u32, threshold)
    };
    {
        let _s = op.span("serve.close");
        drop(client);
    }
    let Ok((got, metrics)) = fetched else {
        return false;
    };
    op.done(metrics.wire_bytes);
    op.verified();
    frame_matches(op.k, &got, &references[frame])
}

/// Both clients' session loops against `addr`.
fn churn(
    ctl: &RunCtl<'_>,
    addr: SocketAddr,
    threshold: f64,
    references: &[HybridFrame],
) -> Vec<Vec<Sample>> {
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let offset = c * references.len() / CLIENTS;
                scope.spawn(move || {
                    closed_loop(ctl, |op| session(op, addr, offset, threshold, references))
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    })
}

/// Spawns a default-config server over `data` and fetches every frame
/// once, so each session's fetch is a cache hit.
fn warmed_server(
    data: Vec<PartitionedData>,
    threshold: f64,
    references: &[HybridFrame],
) -> FrameServer {
    let server = FrameServer::spawn_loopback(data, ServerConfig::default()).expect("loopback bind");
    let addr = server.addr();
    let ok = warm_up(references.len(), |op| {
        session(op, addr, 0, threshold, references)
    });
    assert!(ok, "serve_churn warm-up failed verification");
    server
}

impl Workload for ServeChurn {
    const OP_SPAN: &'static str = "bench.serve_churn.op";

    fn setup(seed: u64, scale: &Scale, _scratch: &Path) -> ServeChurn {
        let data = sampled_series(scale.serve_particles, CHURN_FRAMES, seed);
        let (threshold, references) = references(&data, &ServerConfig::default());
        ServeChurn {
            scale: *scale,
            server: warmed_server(data.clone(), threshold, &references),
            data,
            threshold,
            references,
        }
    }

    fn run(&mut self, ctl: &RunCtl<'_>) -> Vec<Vec<Sample>> {
        churn(ctl, self.server.addr(), self.threshold, &self.references)
    }

    fn bytes_sent(&self) -> Option<u64> {
        Some(self.server.metrics().counter("serve.bytes_sent"))
    }

    fn layers(&mut self, traced: &Traced<'_>, out: &mut Layers) {
        out.set_median(
            "serve.connect_hello_ms_p50",
            &traced.span_ms("serve.connect_hello"),
        );
        out.set_median("serve.session_ms_p50", &traced.span_ms(Self::OP_SPAN));
        out.set_median("serve.fetch_hit_ms_p50", &traced.span_ms("serve.fetch"));
        out.set_server_counters(self.server.metrics());

        // A `Stats` round trip on a persistent session: dispatch and the
        // counter snapshot with no frame behind it.
        let mut client = Client::connect(self.server.addr()).expect("probe connects");
        let stats = probe_ms(self.scale.probe_samples * 8, || {
            std::hint::black_box(client.stats().expect("stats reply"));
        });
        out.set("serve.stats_roundtrip_us_p50", median(&stats) * 1e3);
        drop(client);

        // The same session loop against the other connection backend,
        // selected through the environment knob only. The knob is read
        // when `ServerConfig::default()` is built, so it is set around
        // that one call, while no other thread of this process reads the
        // environment.
        std::env::set_var("ACCELVIZ_SERVE_BACKEND", "threaded");
        let alt = warmed_server(self.data.clone(), self.threshold, &self.references);
        std::env::remove_var("ACCELVIZ_SERVE_BACKEND");
        let tracer = crate::tracer::Tracer::new();
        let ctl = RunCtl {
            tracer: &tracer,
            op_span: Self::OP_SPAN,
            start: Instant::now(),
            length: Duration::from_secs_f64(traced.seconds / 8.0),
            traced: false,
        };
        let sessions = churn(&ctl, alt.addr(), self.threshold, &self.references);
        alt.shutdown();
        let ms: Vec<f64> = sessions.iter().flatten().map(|s| s.op_ms).collect();
        out.set_median("serve.alt_backend_session_ms_p50", &ms);
    }

    fn teardown(self) {
        self.server.shutdown();
    }
}

// ---------------------------------------------------------------------------
// serve_failover
// ---------------------------------------------------------------------------

const FAILOVER_FRAMES: usize = 12;
const SHARDS: usize = 3;
const REPLICATION: usize = 2;
/// One fetch in this many is kept for bit-exact verification after the
/// run (its reference is not precomputed: every threshold is fresh).
const VERIFY_EVERY: usize = 8;

/// A fetch kept for verification after the run.
struct Kept {
    frame: u32,
    threshold: f64,
    digest: u64,
}

/// Router + 3 shards at replication 2. Every fetch carries a freshly
/// jittered threshold, so router cache and shard cache both miss and each
/// op crosses the router hop into an extraction. A third of the way in,
/// the shard that owns frame 0 is killed; two thirds in, it is
/// reinstated. Guards ROADMAP item 2(b): retry, breaker, prober and
/// replica fall-through as shipped.
pub struct ServeFailover {
    scale: Scale,
    seed: u64,
    data: Vec<PartitionedData>,
    /// The threshold every fetch jitters upward from.
    threshold: f64,
    svc: ShardedFrameService,
    clients: Vec<Client>,
    victim: usize,
    kept: Vec<Kept>,
    /// Milliseconds from the kill to the victim's breaker opening, and
    /// from the reinstate call to the respawned shard serving its first
    /// frame (traced run only).
    eject_ms: Option<f64>,
    reinstate_ms: Option<f64>,
}

/// One jittered fetch through `client`; keeps every `VERIFY_EVERY`th.
fn jittered_fetch(
    op: &mut Op<'_>,
    client: &mut Client,
    seed: u64,
    id: usize,
    base_threshold: f64,
    kept: &mut Vec<Kept>,
) -> bool {
    let (frame, jitter) = scheduled_fetch(seed, id, op.k, FAILOVER_FRAMES);
    let threshold = base_threshold * (1.0 + jitter);
    let fetched = {
        let _s = op.span("router.fetch");
        client.fetch(frame, threshold)
    };
    let Ok((got, metrics)) = fetched else {
        return false;
    };
    op.done(metrics.wire_bytes);
    if op.k.is_multiple_of(VERIFY_EVERY) {
        op.verified();
        kept.push(Kept {
            frame,
            threshold,
            digest: frame_digest(&got),
        });
    }
    got.step == frame as usize && got.threshold == threshold
}

/// Polls `reached` every millisecond, from `since`, until it holds or
/// `give_up` passes; returns the milliseconds since `since`.
fn wait_for(since: Instant, give_up: Duration, reached: impl Fn() -> bool) -> Option<f64> {
    while since.elapsed() < give_up {
        if reached() {
            return Some(since.elapsed().as_secs_f64() * 1e3);
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    None
}

impl Workload for ServeFailover {
    const OP_SPAN: &'static str = "bench.serve_failover.op";

    fn setup(seed: u64, scale: &Scale, _scratch: &Path) -> ServeFailover {
        let data = sampled_series(scale.serve_particles, FAILOVER_FRAMES, seed);
        let shard_config = ServerConfig::default();
        let svc = ShardedFrameService::spawn_loopback_replicated(
            data.clone(),
            SHARDS,
            REPLICATION,
            shard_config,
            RouterConfig::default(),
        )
        .expect("spawn router and shards");
        let mut clients: Vec<Client> = (0..CLIENTS)
            .map(|_| Client::connect(svc.addr()).expect("client connects"))
            .collect();
        // Warm-up: one full cycle through the router at the default
        // thresholds, verified against in-process extraction.
        let (threshold, references) = references(&data, &shard_config);
        let ok = warm_up(FAILOVER_FRAMES, |op| {
            clients[0]
                .fetch(op.k as u32, threshold)
                .is_ok_and(|(got, _)| frame_matches(0, &got, &references[op.k]))
        });
        assert!(ok, "serve_failover warm-up cycle failed verification");
        ServeFailover {
            scale: *scale,
            seed,
            data,
            threshold,
            svc,
            clients,
            victim: ShardSpec::new(SHARDS).owner_of(0),
            kept: Vec::new(),
            eject_ms: None,
            reinstate_ms: None,
        }
    }

    fn run(&mut self, ctl: &RunCtl<'_>) -> Vec<Vec<Sample>> {
        let (seed, threshold, victim) = (self.seed, self.threshold, self.victim);
        let svc = &mut self.svc;
        let (samples, kept, eject_ms, reinstate_ms) = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(id, client)| {
                    scope.spawn(move || {
                        let mut kept = Vec::new();
                        let samples = closed_loop(ctl, |op| {
                            jittered_fetch(op, client, seed, id, threshold, &mut kept)
                        });
                        (samples, kept)
                    })
                })
                .collect();

            // The controller. Watching the breaker is part of the traced
            // run only, so the untraced run carries no extra poller.
            let give_up = ctl.length / 4;
            ctl.sleep_until(1.0 / 3.0);
            let killed = Instant::now();
            svc.kill_shard(victim);
            let eject_ms = ctl
                .traced
                .then(|| {
                    wait_for(killed, give_up, || {
                        svc.router().breaker_state(victim) == BreakerState::Open
                    })
                })
                .flatten();
            ctl.sleep_until(2.0 / 3.0);
            let reinstated = Instant::now();
            svc.reinstate_shard(victim).expect("respawn the shard");
            let reinstate_ms = ctl
                .traced
                .then(|| {
                    wait_for(reinstated, give_up, || {
                        svc.shard(victim).metrics().counter("serve.frames_served") > 0
                    })
                })
                .flatten();

            let mut samples = Vec::new();
            let mut kept = Vec::new();
            for h in handles {
                let (s, k) = h.join().expect("client thread");
                samples.push(s);
                kept.extend(k);
            }
            (samples, kept, eject_ms, reinstate_ms)
        });
        self.kept = kept;
        self.eject_ms = eject_ms;
        self.reinstate_ms = reinstate_ms;
        samples
    }

    fn bytes_sent(&self) -> Option<u64> {
        Some(self.svc.router().metrics().counter("router.bytes_sent"))
    }

    fn verify_deferred(&mut self) -> usize {
        let dims = ServerConfig::default().volume_dims;
        self.kept
            .drain(..)
            .filter(|k| {
                let d = &self.data[k.frame as usize];
                let reference = HybridFrame::from_partition(d, k.frame as usize, k.threshold, dims);
                frame_digest(&reference) != k.digest
            })
            .count()
    }

    fn layers(&mut self, traced: &Traced<'_>, out: &mut Layers) {
        let t = traced.seconds;
        let phase = |from: f64, to: f64| ops_per_s_between(traced.samples, from, to);
        out.set("router.healthy_ops_per_s", phase(0.0, t / 3.0));
        out.set("router.killed_ops_per_s", phase(t / 3.0, 2.0 * t / 3.0));
        out.set("router.reinstated_ops_per_s", phase(2.0 * t / 3.0, t));
        match self.eject_ms {
            Some(ms) => out.set("router.time_to_eject_ms", ms),
            None => out.fail(
                "router.time_to_eject_ms",
                "the killed shard's breaker did not open within a quarter of the run",
            ),
        }
        match self.reinstate_ms {
            Some(ms) => out.set("router.time_to_reinstate_ms", ms),
            None => out.fail(
                "router.time_to_reinstate_ms",
                "the respawned shard served no frame within a quarter of the run",
            ),
        }

        let reg = self.svc.router().metrics();
        let (hits, misses) = (
            reg.counter("router.cache_hits"),
            reg.counter("router.cache_misses"),
        );
        if let Some(share) = ratio(hits, hits + misses) {
            out.set("router.cache_hit_ratio", share);
        }
        for name in [
            "router.upstream_fetches",
            "router.coalesced_fetches",
            "router.upstream_errors",
            "router.upstream_retries",
            "router.replica_failovers",
            "router.breaker_fast_fails",
            "router.probe_fail",
        ] {
            out.set_counter(name, reg, name);
        }
        let stats: Vec<_> = self.clients.iter().map(Client::client_stats).collect();
        out.set(
            "client.retries",
            stats.iter().map(|s| s.retries).sum::<u64>() as f64,
        );
        out.set(
            "client.reconnects",
            stats.iter().map(|s| s.reconnects).sum::<u64>() as f64,
        );
        out.set_counter(
            "client.degraded_frames",
            accelviz_trace::global(),
            "client.degraded_frames",
        );

        // The router hop: the same frame, a fresh threshold each time,
        // through the router and straight from a shard that holds it.
        let map =
            ShardMap::sliced_replicated(&ShardSpec::new(SHARDS), FAILOVER_FRAMES, REPLICATION);
        let &(shard, local) = map
            .replicas(0)
            .and_then(|r| r.first())
            .expect("frame 0 has a replica");
        let mut direct =
            Client::connect(self.svc.shard(shard as usize).addr()).expect("shard connects");
        let through = &mut self.clients[0];
        let base = self.threshold;
        let (mut via_router, mut via_shard) = (Vec::new(), Vec::new());
        for i in 0..self.scale.probe_samples {
            let fresh = |salt: usize| base * (1.006 + 1e-5 * (2 * i + salt) as f64);
            let t0 = Instant::now();
            std::hint::black_box(through.fetch(0, fresh(0)).expect("router fetch"));
            let t1 = Instant::now();
            std::hint::black_box(direct.fetch(local, fresh(1)).expect("shard fetch"));
            let t2 = Instant::now();
            via_router.push((t1 - t0).as_secs_f64() * 1e3);
            via_shard.push((t2 - t1).as_secs_f64() * 1e3);
        }
        out.set(
            "router.hop_ms_p50",
            median(&via_router) - median(&via_shard),
        );
    }

    fn teardown(self) {
        drop(self.clients);
        self.svc.shutdown();
    }
}
