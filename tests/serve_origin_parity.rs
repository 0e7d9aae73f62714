//! One run served four ways — partitions in memory or a run file paged
//! under a residency budget smaller than two frames, each direct or as
//! 3 shards × replication 2 behind a router — and a client that cannot
//! tell which. The same seeded request sequence goes to all four over
//! raw sockets; every reply must be byte-equal across them (`Stats`,
//! which counts each deployment's own work, is never asked), and every
//! frame must decode to in-process extraction.
//!
//! The sequence mixes `Hello` and `ListFrames`, forward-stepping
//! `RequestFrame` runs (so servers read ahead) at `+Inf`, the catalog
//! default, `0.0`, `-0.0` and `-Inf`, progressive requests at chunk sizes
//! 0, 1 KiB and 4 KiB, a NaN threshold and frames past the end. Services
//! live across seeds, so a reply must not depend on what earlier seeds
//! left in the caches either.

mod common;

use accelviz::beam::io::BYTES_PER_PARTICLE;
use accelviz::core::hybrid::HybridFrame;
use accelviz::octree::extraction::threshold_for_budget;
use accelviz::octree::sorted_store::PartitionedData;
use accelviz::serve::lod::ProgressiveAssembler;
use accelviz::serve::protocol::{read_chunk_reply, read_response, ChunkReply, Request, Response};
use accelviz::serve::wire::V2;
use accelviz::serve::{FrameServer, Origin, RouterConfig, ServerConfig, ShardedFrameService};
use accelviz::store::run::write_run_file;
use accelviz::store::ResidentRun;
use common::{raw_reply, stores};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

const FRAMES: usize = 6;
const PARTICLES: usize = 800;
/// Requests per seed (a stepping run may overshoot it by a few).
const REQUESTS: usize = 40;
const SEEDS: [u64; 6] = [1, 7, 42, 2026, 31337, 20260806];

/// SplitMix64: each seed's sequence is a pure function of the seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One seed's session. `defaults[f]` is frame `f`'s catalog threshold.
fn session(seed: u64, defaults: &[f64]) -> Vec<Request> {
    let mut rng = Rng(seed);
    let mut script = vec![Request::Hello { version: V2 }];
    while script.len() < REQUESTS {
        let frame = rng.below(FRAMES) as u32;
        let threshold = match rng.below(5) {
            0 => f64::INFINITY,
            1 => defaults[frame as usize],
            2 => 0.0,
            3 => -0.0,
            _ => f64::NEG_INFINITY,
        };
        let progressive = |frame, threshold, rng: &mut Rng| Request::RequestFrameProgressive {
            frame,
            threshold,
            chunk_bytes: [0, 1_024, 4_096][rng.below(3)],
        };
        match rng.below(7) {
            0 => script.push(Request::ListFrames),
            1 => script.push(Request::Hello { version: V2 }),
            // A forward run at one threshold: from its second request on
            // the door hints the next frame.
            2 | 3 => {
                let steps = 2 + rng.below(4) as u32;
                script.extend((0..steps).map(|k| Request::RequestFrame {
                    frame: (frame + k) % FRAMES as u32,
                    threshold,
                }));
            }
            4 => script.push(progressive(frame, threshold, &mut rng)),
            5 => script.push(Request::RequestFrame {
                frame,
                threshold: f64::NAN,
            }),
            _ => {
                let past = (FRAMES + rng.below(3)) as u32;
                script.push(match rng.below(2) {
                    0 => Request::RequestFrame {
                        frame: past,
                        threshold,
                    },
                    _ => progressive(past, threshold, &mut rng),
                });
            }
        }
    }
    script
}

/// The frame a reply carries, if it is a frame: a plain one decoded, a
/// progressive stream assembled.
fn decoded_frame(req: &Request, reply: &[u8]) -> Option<HybridFrame> {
    let mut bytes = reply;
    match req {
        Request::RequestFrame { .. } => match read_response(&mut bytes).unwrap().0 {
            Response::Frame(frame) => Some(frame),
            _ => None,
        },
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
fn expected(req: &Request, data: &[PartitionedData], dims: [usize; 3]) -> Option<HybridFrame> {
    let (frame, threshold) = match *req {
        Request::RequestFrame { frame, threshold }
        | Request::RequestFrameProgressive {
            frame, threshold, ..
        } => (frame as usize, threshold),
        _ => return None,
    };
    let d = data.get(frame).filter(|_| !threshold.is_nan())?;
    Some(HybridFrame::from_partition(d, frame, threshold, dims))
}

#[test]
fn four_deployments_of_one_run_answer_a_seeded_session_byte_for_byte() {
    let data = stores(FRAMES, PARTICLES);
    let path = std::env::temp_dir().join(format!("accelviz-origin-parity-{}", std::process::id()));
    write_run_file(&path, &data, 4_096).unwrap();
    // One and a half frames of particles: never two frames resident.
    let budget = 3 * PARTICLES as u64 * BYTES_PER_PARTICLE / 2;
    let run = || Arc::new(ResidentRun::open(&path, budget).unwrap());
    let config = ServerConfig::default();
    let sharded = |origin: Origin| {
        let router = RouterConfig::default();
        ShardedFrameService::spawn_loopback_replicated(origin, 3, 2, config, router).unwrap()
    };

    let memory_direct = FrameServer::spawn_loopback(data.clone(), config).unwrap();
    let run_direct = FrameServer::spawn_loopback(run(), config).unwrap();
    let memory_sharded = sharded(data.clone().into());
    let run_sharded = sharded(run().into());
    let services: [(&str, SocketAddr); 4] = [
        ("memory direct", memory_direct.addr()),
        ("run direct", run_direct.addr()),
        ("memory 3x2", memory_sharded.addr()),
        ("run 3x2", run_sharded.addr()),
    ];

    let defaults: Vec<f64> = data
        .iter()
        .map(|d| threshold_for_budget(d, config.point_budget))
        .collect();
    for seed in SEEDS {
        let mut streams: Vec<TcpStream> = services
            .iter()
            .map(|(_, addr)| {
                let stream = TcpStream::connect(addr).unwrap();
                // A request envelope is three small writes; without this,
                // each one waits out a delayed ACK.
                stream.set_nodelay(true).unwrap();
                stream
            })
            .collect();
        for (i, req) in session(seed, &defaults).into_iter().enumerate() {
            let replies: Vec<Vec<u8>> = streams
                .iter_mut()
                .map(|stream| raw_reply(stream, req))
                .collect();
            for ((name, _), reply) in services.iter().zip(&replies).skip(1) {
                assert!(
                    *reply == replies[0],
                    "seed {seed}, request {i} ({req:?}): {name} differs from {}",
                    services[0].0
                );
            }
            let got = decoded_frame(&req, &replies[0]);
            let want = expected(&req, &data, config.volume_dims);
            assert_eq!(got, want, "seed {seed}, request {i} ({req:?})");
        }
    }
    // The sessions stepped: the memory server read ahead, while the run
    // under its tight budget dropped every hint.
    let read_ahead = |server: &FrameServer| server.metrics().counter("serve.readahead_fetches");
    assert!(read_ahead(&memory_direct) > 0);
    assert_eq!(read_ahead(&run_direct), 0);

    memory_sharded.shutdown();
    run_sharded.shutdown();
    memory_direct.shutdown();
    run_direct.shutdown();
    let _ = std::fs::remove_file(&path);
}
