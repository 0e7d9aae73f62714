//! The differential oracle: one run, in a window seeded from memory or
//! in a window over its run file paged under a residency budget of one
//! and a half frames, in four deployments each — a direct server, and a
//! router over 1 shard, over 2 shards, and over 3 shards at replication
//! 2 — and a client that cannot tell which of the eight it talks to.
//! This is the one place where byte-equality across deployments is
//! asserted.
//!
//! Each seed's script is drawn from the proptest shim's `TestRng`: `Hello`
//! at versions 0 to 2, `ListFrames` (often a fresh socket's first
//! request), plain and progressive fetches and forward-stepping runs of
//! either shape (so servers read ahead) at `+Inf`, the catalog default, a
//! quarter of the particles, `0.0`, `-0.0` and `-Inf`, NaN thresholds and
//! frames past the end — interleaved with `Reconnect` (every socket
//! redialed), `Kill` (each 3×2 router loses one shard unless one is down;
//! each direct server restarts over the same origin) and `Reinstate`. At
//! most one shard is down at a time, so every frame keeps a live replica
//! and every reply stays byte-determined. Every reply must be byte-equal
//! across the eight (`Stats`, which counts each deployment's own work, is
//! never asked), every frame must equal in-process extraction, and every
//! catalog the expected one. Services live across seeds, so no reply may
//! depend on what earlier seeds left in the caches either.
//!
//! A failure names the seed, the op index and the op. A script is a pure
//! function of its seed: to replay one, make it the only entry of `SEEDS`.

mod common;

use accelviz::beam::io::BYTES_PER_PARTICLE;
use accelviz::core::hybrid::HybridFrame;
use accelviz::octree::extraction::threshold_for_budget;
use accelviz::octree::sorted_store::PartitionedData;
use accelviz::serve::lod::ProgressiveAssembler;
use accelviz::serve::protocol::{
    read_chunk_reply, read_response, ChunkReply, FrameInfo, Request, Response, ERR_BAD_REQUEST,
    RESP_FRAME,
};
use accelviz::serve::router::{CTR_ROUTER_BREAKER_OPEN, CTR_ROUTER_REPLICA_FAILOVERS};
use accelviz::serve::stats::SERVE;
use accelviz::serve::wire::{decode_frame_v2, read_sealed, MAX_PAYLOAD, V2};
use accelviz::serve::{FrameServer, Origin, RouterConfig, ServerConfig, ShardedFrameService};
use accelviz::store::run::write_run_file;
use accelviz::store::ResidentRun;
use common::{raw_reply, stores};
use proptest::TestRng;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

const FRAMES: usize = 6;
const PARTICLES: usize = 400;
/// Ops per seed. A stepping run may overshoot it by a few, and a script
/// goes on until it has killed, reinstated and reconnected.
const OPS: usize = 60;
const SEEDS: [u64; 16] = [
    1, 2, 3, 5, 7, 11, 13, 42, 99, 1234, 2026, 4242, 31337, 65537, 314159, 20260806,
];

/// Every server's settings: the defaults with a coarse grid, so that a
/// debug build encodes and decodes each reply quickly.
fn server_config() -> ServerConfig {
    ServerConfig {
        volume_dims: [8, 8, 8],
        ..ServerConfig::default()
    }
}

/// One step of a script.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Every service answers this request on its current socket.
    Send(Request),
    /// Every service drops its socket and dials a fresh one.
    Reconnect,
    /// Each 3×2 router loses this shard unless one is down already; each
    /// direct server is shut down, respawned over its origin and redialed.
    Kill(usize),
    /// Each 3×2 router gets its down shard back.
    Reinstate,
}

fn below(rng: &mut TestRng, n: usize) -> usize {
    rng.usize_in(0, n - 1)
}

/// One seed's script. `dials[f]` are the thresholds frame `f` is asked at.
fn script(seed: u64, dials: &[[f64; 6]]) -> Vec<Op> {
    let mut rng = TestRng::new(seed);
    let has = |ops: &[Op], kind: fn(&Op) -> bool| ops.iter().any(kind);
    let (mut ops, mut fresh) = (Vec::new(), true);
    while ops.len() < OPS
        || !has(&ops, |op| matches!(op, Op::Kill(_)))
        || !has(&ops, |op| matches!(op, Op::Reinstate))
        || !has(&ops, |op| matches!(op, Op::Reconnect))
    {
        if std::mem::take(&mut fresh) && below(&mut rng, 2) == 0 {
            ops.push(Op::Send(Request::ListFrames));
        }
        let frame = below(&mut rng, FRAMES) as u32;
        let threshold = dials[frame as usize][below(&mut rng, 6)];
        let chunk_bytes = [0, 1_024, 4_096][below(&mut rng, 3)];
        let progressive = below(&mut rng, 2) == 0;
        // A request of the drawn shape.
        let ask = |frame, threshold| {
            Op::Send(match progressive {
                true => Request::RequestFrameProgressive {
                    frame,
                    threshold,
                    chunk_bytes,
                },
                false => Request::RequestFrame { frame, threshold },
            })
        };
        match below(&mut rng, 12) {
            0 => ops.push(Op::Send(Request::ListFrames)),
            1 => ops.push(Op::Send(Request::Hello {
                version: below(&mut rng, 3) as u16,
            })),
            // A forward run at one threshold: from its second request on
            // the door hints the next frame.
            2..=4 => {
                let steps = 2 + below(&mut rng, 4) as u32;
                ops.extend((0..steps).map(|k| ask((frame + k) % FRAMES as u32, threshold)));
            }
            5 | 6 => ops.push(ask(frame, threshold)),
            7 => ops.push(ask(frame, f64::NAN)),
            8 => ops.push(ask((FRAMES + below(&mut rng, 3)) as u32, threshold)),
            9 => {
                ops.push(Op::Reconnect);
                fresh = true;
            }
            10 => ops.push(Op::Kill(below(&mut rng, 3))),
            _ => ops.push(Op::Reinstate),
        }
    }
    ops
}

/// Names the op under way in any failure inside it.
struct At(String);

impl Drop for At {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("failed at {}", self.0);
        }
    }
}

fn dial(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    // A request envelope is three small writes; without this, each one
    // waits out a delayed ACK.
    stream.set_nodelay(true).unwrap();
    stream
}

/// What answers one service's socket.
enum Deployment {
    /// A server, respawned over `origin` at every kill; `read_ahead` sums
    /// what its shut-down instances fetched ahead.
    Direct {
        origin: Origin,
        server: FrameServer,
        read_ahead: u64,
    },
    /// A router over shards; `served[i]` sums the frames shard `i`'s
    /// killed instances served.
    Sharded {
        service: ShardedFrameService,
        replication: usize,
        served: Vec<u64>,
    },
}

impl Deployment {
    fn addr(&self) -> SocketAddr {
        match self {
            Deployment::Direct { server, .. } => server.addr(),
            Deployment::Sharded { service, .. } => service.addr(),
        }
    }
}

/// One deployment and the socket the session talks to it on.
struct Service {
    name: String,
    deployment: Deployment,
    stream: TcpStream,
}

impl Service {
    fn new(name: String, deployment: Deployment) -> Service {
        let stream = dial(deployment.addr());
        Service {
            name,
            deployment,
            stream,
        }
    }

    fn redial(&mut self) {
        self.stream = dial(self.deployment.addr());
    }

    fn kill(&mut self, shard: usize) {
        match &mut self.deployment {
            Deployment::Direct {
                origin,
                server,
                read_ahead,
            } => {
                let fresh = FrameServer::spawn_loopback(origin.clone(), server_config());
                let old = std::mem::replace(server, fresh.unwrap());
                *read_ahead += old.metrics().counter(SERVE.readahead_fetches);
                old.shutdown();
                self.redial();
            }
            Deployment::Sharded {
                service,
                replication: 2,
                served,
            } => {
                if (0..service.shard_count()).all(|i| service.shard_alive(i)) {
                    served[shard] += service.shard(shard).metrics().counter(SERVE.frames_served);
                    service.kill_shard(shard);
                }
            }
            Deployment::Sharded { .. } => {}
        }
    }

    fn reinstate(&mut self) {
        if let Deployment::Sharded { service, .. } = &mut self.deployment {
            // A no-op for a live shard.
            for i in 0..service.shard_count() {
                service.reinstate_shard(i).unwrap();
            }
        }
    }

    /// The checks on a whole run, with killed instances' counters summed
    /// in: a direct server read ahead exactly when its origin holds two
    /// frames at once (the seeded window does, the budgeted file window
    /// does not), every shard served a frame, and every 3×2 router failed
    /// over to a replica and opened a breaker.
    fn check_counters(&self) {
        match &self.deployment {
            Deployment::Direct {
                server, read_ahead, ..
            } => {
                let fetched = read_ahead + server.metrics().counter(SERVE.readahead_fetches);
                let seeded = self.name.starts_with("seeded window");
                assert_eq!(fetched > 0, seeded, "{fetched} frames read ahead");
            }
            Deployment::Sharded {
                service,
                replication,
                served,
            } => {
                for (i, killed) in served.iter().enumerate() {
                    let live = service.shard_alive(i).then(|| service.shard(i).metrics());
                    let live = live.map_or(0, |m| m.counter(SERVE.frames_served));
                    assert!(killed + live > 0, "shard {i} served no frame");
                }
                if *replication == 2 {
                    let router = service.router().metrics();
                    assert!(router.counter(CTR_ROUTER_REPLICA_FAILOVERS) > 0);
                    assert!(router.counter(CTR_ROUTER_BREAKER_OPEN) > 0);
                }
            }
        }
    }

    fn shutdown(self) {
        match self.deployment {
            Deployment::Direct { server, .. } => server.shutdown(),
            Deployment::Sharded { service, .. } => service.shutdown(),
        }
    }
}

/// The frame a reply carries, if it is a frame: a plain one decoded, a
/// progressive stream assembled.
fn decoded_frame(req: Request, reply: &[u8]) -> Option<HybridFrame> {
    let mut bytes = reply;
    match req {
        Request::RequestFrame { .. } => {
            let reply = read_sealed(&mut bytes, MAX_PAYLOAD).unwrap();
            (reply.kind() == RESP_FRAME).then(|| decode_frame_v2(reply.payload()).unwrap())
        }
        Request::RequestFrameProgressive { .. } => {
            let mut assembler = ProgressiveAssembler::new();
            while !bytes.is_empty() {
                match read_chunk_reply(&mut bytes).unwrap().0 {
                    ChunkReply::Chunk(record) => {
                        assembler.accept(&record).unwrap();
                    }
                    ChunkReply::Error { .. } => return None,
                }
            }
            assembler.into_frame()
        }
        _ => None,
    }
}

/// What a frame request must decode to; `None` for a request the door
/// refuses.
fn expected(req: Request, data: &[PartitionedData]) -> Option<HybridFrame> {
    let (frame, threshold) = match req {
        Request::RequestFrame { frame, threshold }
        | Request::RequestFrameProgressive {
            frame, threshold, ..
        } => (frame as usize, threshold),
        _ => return None,
    };
    let d = data.get(frame).filter(|_| !threshold.is_nan())?;
    Some(HybridFrame::from_partition(
        d,
        frame,
        threshold,
        server_config().volume_dims,
    ))
}

/// Checks a reply, by now byte-equal across the services, against what
/// its request must get.
fn check(req: Request, reply: &[u8], data: &[PartitionedData], catalog: &[FrameInfo]) {
    let response = || read_response(&mut &reply[..]).unwrap().0;
    match req {
        Request::Hello { version } if version < V2 => {
            let refused = response();
            assert!(matches!(
                refused,
                Response::Error {
                    code: ERR_BAD_REQUEST,
                    ..
                }
            ));
        }
        Request::Hello { .. } => {
            let frame_count = FRAMES as u32;
            let ack = Response::HelloAck {
                version: V2,
                frame_count,
            };
            assert_eq!(response(), ack);
        }
        Request::ListFrames => assert_eq!(response(), Response::FrameList(catalog.to_vec())),
        _ => assert_eq!(decoded_frame(req, reply), expected(req, data)),
    }
}

#[test]
fn four_deployments_of_one_run_answer_a_seeded_session_byte_for_byte() {
    let data = stores(FRAMES, PARTICLES);
    let path = std::env::temp_dir().join(format!("accelviz-origin-parity-{}", std::process::id()));
    write_run_file(&path, &data, 4_096).unwrap();
    // One and a half frames of particles: never two frames resident.
    let budget = 3 * PARTICLES as u64 * BYTES_PER_PARTICLE / 2;
    let seeded = || Origin::from(data.clone());
    let file = || Origin::from(Arc::new(ResidentRun::open(&path, budget).unwrap()));
    let config = server_config();
    // A router cache of no bytes holds the newest frame only, so requests
    // keep reaching the shards after a kill.
    let router = RouterConfig {
        cache_bytes: 0,
        ..RouterConfig::default()
    };
    let origins: [(&str, &dyn Fn() -> Origin); 2] =
        [("seeded window", &seeded), ("file window", &file)];
    let mut services = Vec::new();
    for (kind, origin) in origins {
        let direct = origin();
        let server = FrameServer::spawn_loopback(direct.clone(), config).unwrap();
        let deployment = Deployment::Direct {
            origin: direct,
            server,
            read_ahead: 0,
        };
        services.push(Service::new(format!("{kind} direct"), deployment));
        for (shards, replication) in [(1, 1), (2, 1), (3, 2)] {
            let service = ShardedFrameService::spawn_loopback_replicated(
                origin(),
                shards,
                replication,
                config,
                router,
            )
            .unwrap();
            let deployment = Deployment::Sharded {
                service,
                replication,
                served: vec![0; shards],
            };
            services.push(Service::new(
                format!("{kind} {shards}x{replication}"),
                deployment,
            ));
        }
    }

    let catalog: Vec<FrameInfo> = data
        .iter()
        .enumerate()
        .map(|(i, d)| FrameInfo {
            frame: i as u32,
            step: i as u64,
            particles: PARTICLES as u64,
            default_threshold: threshold_for_budget(d, config.point_budget),
        })
        .collect();
    let dials: Vec<[f64; 6]> = data
        .iter()
        .zip(&catalog)
        .map(|(d, info)| {
            let quarter = threshold_for_budget(d, PARTICLES / 4);
            let default = info.default_threshold;
            [
                f64::INFINITY,
                default,
                quarter,
                0.0,
                -0.0,
                f64::NEG_INFINITY,
            ]
        })
        .collect();
    for seed in SEEDS {
        services.iter_mut().for_each(Service::redial);
        for (i, op) in script(seed, &dials).into_iter().enumerate() {
            let _at = At(format!("seed {seed}, op {i} ({op:?})"));
            let req = match op {
                Op::Send(req) => req,
                Op::Reconnect => {
                    services.iter_mut().for_each(Service::redial);
                    continue;
                }
                Op::Kill(shard) => {
                    services.iter_mut().for_each(|s| s.kill(shard));
                    continue;
                }
                Op::Reinstate => {
                    services.iter_mut().for_each(Service::reinstate);
                    continue;
                }
            };
            let replies: Vec<Vec<u8>> = services
                .iter_mut()
                .map(|s| raw_reply(&mut s.stream, req))
                .collect();
            for (service, reply) in services.iter().zip(&replies).skip(1) {
                let first = &services[0].name;
                assert!(
                    *reply == replies[0],
                    "{} differs from {first}",
                    service.name
                );
            }
            check(req, &replies[0], &data, &catalog);
        }
    }
    for service in services {
        let _at = At(format!("the end of the run, {}", service.name));
        service.check_counters();
        service.shutdown();
    }
    let _ = std::fs::remove_file(&path);
}
