//! `view_remote` and `view_progressive` — the scientist's desk (§2.1):
//! one viewer plays through a stored 12-frame series over loopback TCP.
//! The series is cyclic and longer than the server's extraction cache
//! (8) and the store's resident window (a third of the run, 4 frames),
//! so every op is a store page-in and an extraction miss. Store **read**,
//! extract, v2 encode, socket, v2 decode and render sit on one serial
//! chain; the two workloads use the same server and data through the
//! plain fetch and through the chunked progressive stream.

use super::{probe_ms, Layers, Traced, Workload};
use crate::data::{frame_matches, halo_series, pooled_threshold, Scale};
use crate::run::{closed_loop, warm_up, Op, RunCtl, Sample};
use crate::stats::median;
use accelviz_core::hybrid::HybridFrame;
use accelviz_core::scene::{render_hybrid_frame, RenderMode};
use accelviz_core::session::{SessionOp, ViewerSession};
use accelviz_core::transfer::TransferFunctionPair;
use accelviz_math::Rgba;
use accelviz_octree::plots::PlotType;
use accelviz_render::camera::Camera;
use accelviz_render::framebuffer::Framebuffer;
use accelviz_render::points::PointStyle;
use accelviz_render::volume::VolumeStyle;
use accelviz_serve::lod::{plan_frame_chunks, ProgressiveAssembler, DEFAULT_CHUNK_BYTES};
use accelviz_serve::protocol::{
    read_chunk_reply, read_response, write_request, ChunkReply, Request, Response,
};
use accelviz_serve::wire::{
    decode_frame, decode_frame_v2, encode_frame, encode_frame_v2, read_envelope, write_envelope_v,
    V2,
};
use accelviz_serve::{Client, FrameServer, RemoteFrames, ServerConfig};
use accelviz_store::run::{write_run_file, DEFAULT_CHUNK_BYTES as RUN_CHUNK_BYTES};
use accelviz_store::ResidentRun;
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;

/// Frames in the stored series.
const FRAMES: usize = 12;

/// The stored series behind a loopback server, with the in-process
/// reference frame of every index.
struct ViewServer {
    scale: Scale,
    server: FrameServer,
    run: Arc<ResidentRun>,
    /// The one extraction threshold the viewer fetches at.
    threshold: f64,
    /// `HybridFrame::from_partition` of the same stores and threshold:
    /// what every served frame must be bit-identical to.
    references: Vec<HybridFrame>,
}

impl ViewServer {
    fn spawn(seed: u64, scale: &Scale, scratch: &Path) -> ViewServer {
        let series = halo_series(scale, FRAMES, PlotType::XYZ, seed);
        let threshold = pooled_threshold(&series, scale.point_budget());
        let references = series
            .iter()
            .enumerate()
            .map(|(i, d)| HybridFrame::from_partition(d, i, threshold, scale.grid_dims()))
            .collect();
        let path = scratch.join("view_series.run");
        write_run_file(&path, &series, RUN_CHUNK_BYTES).expect("write the stored series");
        drop(series);
        let run_bytes = std::fs::metadata(&path).expect("run file exists").len();
        let run = Arc::new(ResidentRun::open(&path, run_bytes / 3).expect("reopen the series"));
        let config = ServerConfig {
            volume_dims: scale.grid_dims(),
            point_budget: scale.point_budget(),
            ..ServerConfig::default()
        };
        let server =
            FrameServer::spawn_stored_loopback(Arc::clone(&run), config).expect("loopback bind");
        ViewServer {
            scale: *scale,
            server,
            run,
            threshold,
            references,
        }
    }

    fn bytes_sent(&self) -> u64 {
        self.server.metrics().counter("serve.bytes_sent")
    }

    /// Counters of the serve and store layers, as the run left them.
    fn counters(&self, out: &mut Layers) {
        out.set_server_counters(self.server.metrics());
        let stats = self.run.stats();
        out.set("store.resident_loads", stats.cold_loads as f64);
        out.set("store.resident_evictions", stats.evictions as f64);
    }
}

/// The camera and styles `ViewerSession::render` uses, for the workload
/// that renders without a session.
fn render_like_session(fb: &mut Framebuffer, frame: &HybridFrame) {
    let aspect = fb.width() as f64 / fb.height() as f64;
    let b = frame.bounds;
    let camera = Camera::orbit(b.center(), b.longest_edge() * 2.2, 0.5, 0.35, aspect);
    fb.clear(Rgba::BLACK);
    render_hybrid_frame(
        fb,
        &camera,
        frame,
        &TransferFunctionPair::linked_at(0.05, 0.02),
        RenderMode::Hybrid,
        &VolumeStyle {
            steps: 48,
            ..Default::default()
        },
        &PointStyle::default(),
    );
}

pub struct ViewRemote {
    base: ViewServer,
    session: ViewerSession,
    fb: Framebuffer,
    /// Frame the next op steps to; continues across warm-up and run.
    next: usize,
}

impl ViewRemote {
    /// One op: step to the next frame of the cycle and render it.
    fn step_and_render(&mut self, op: &mut Op<'_>) -> bool {
        let frame = self.next;
        self.next = (self.next + 1) % FRAMES;
        let cost = {
            let _s = op.span("core.session_step");
            self.session.apply(SessionOp::StepTo(frame))
        };
        {
            let _s = op.span("core.session_render");
            self.fb.clear(Rgba::BLACK);
            self.session.render(&mut self.fb);
        }
        op.done(0);
        op.verified();
        !cost.failed
            && !cost.degraded
            && self.session.current() == frame
            && frame_matches(op.k, self.session.frame(), &self.base.references[frame])
    }
}

impl Workload for ViewRemote {
    const OP_SPAN: &'static str = "bench.view_remote.op";

    fn setup(seed: u64, scale: &Scale, scratch: &Path) -> ViewRemote {
        let base = ViewServer::spawn(seed, scale, scratch);
        let client = Client::connect(base.server.addr()).expect("viewer connects");
        let source = RemoteFrames::new(client, base.threshold, 1);
        let mut w = ViewRemote {
            session: ViewerSession::open_with(Box::new(source)),
            fb: Framebuffer::new(scale.view_px, scale.view_px),
            next: 1,
            base,
        };
        // Warm-up: one full cycle, so the server's cache and the store's
        // resident window are in their steady cyclic state.
        let ok = warm_up(FRAMES, |op| w.step_and_render(op));
        assert!(ok, "view_remote warm-up cycle failed verification");
        w
    }

    fn run(&mut self, ctl: &RunCtl<'_>) -> Vec<Vec<Sample>> {
        vec![closed_loop(ctl, |op| self.step_and_render(op))]
    }

    fn bytes_sent(&self) -> Option<u64> {
        Some(self.base.bytes_sent())
    }

    fn layers(&mut self, traced: &Traced<'_>, out: &mut Layers) {
        out.set_median(
            "core.session_step_ms_p50",
            &traced.span_ms("core.session_step"),
        );
        out.set_median(
            "core.session_render_ms_p50",
            &traced.span_ms("core.session_render"),
        );
        self.base.counters(out);
        let samples = self.base.scale.probe_samples;
        let reference = &self.base.references[0];

        // The wire codec on a served frame, both protocol versions.
        let v1 = encode_frame(reference);
        let (v2, _) = encode_frame_v2(reference);
        out.set_median(
            "wire.v1_encode_ms_p50",
            &probe_ms(samples, || {
                std::hint::black_box(encode_frame(std::hint::black_box(reference)));
            }),
        );
        out.set_median(
            "wire.v1_decode_ms_p50",
            &probe_ms(samples, || {
                std::hint::black_box(decode_frame(&v1).expect("own encoding"));
            }),
        );
        let v2_encode = median(&probe_ms(samples, || {
            std::hint::black_box(encode_frame_v2(std::hint::black_box(reference)));
        }));
        let v2_decode = median(&probe_ms(samples, || {
            std::hint::black_box(decode_frame_v2(&v2).expect("own encoding"));
        }));
        out.set("wire.v2_encode_ms_p50", v2_encode);
        out.set("wire.v2_decode_ms_p50", v2_decode);
        out.set("wire.v1_frame_bytes", v1.len() as f64);
        out.set("wire.v2_frame_bytes", v2.len() as f64);
        out.set("wire.v2_ratio", v1.len() as f64 / v2.len() as f64);

        // The store's resident window: a frame paged in from disk (every
        // third frame of the cycle is cold by construction) and the same
        // frame fetched again at once.
        let (mut cold, mut warm) = (Vec::new(), Vec::new());
        for i in 0..samples {
            let frame = (i * 5) % FRAMES;
            let t0 = std::time::Instant::now();
            let first = self.base.run.fetch(frame).expect("stored frame");
            let t1 = std::time::Instant::now();
            let again = self.base.run.fetch(frame).expect("stored frame");
            let t2 = std::time::Instant::now();
            if !first.warm && again.warm {
                cold.push((t1 - t0).as_secs_f64() * 1e3);
                warm.push((t2 - t1).as_secs_f64() * 1e6);
            }
        }
        out.set_median("store.resident_fetch_cold_ms_p50", &cold);
        out.set_median("store.resident_fetch_warm_us_p50", &warm);

        // Extraction of the same frame in process, for the residual.
        let data = self.base.run.fetch(0).expect("stored frame").data;
        let (threshold, dims) = (self.base.threshold, self.base.scale.grid_dims());
        let extract = median(&probe_ms(samples, || {
            std::hint::black_box(HybridFrame::from_partition(&data, 0, threshold, dims));
        }));
        out.set("octree.extract_ms_p50", extract);
        out.set("octree.extract_points", reference.points.len() as f64);

        // One frame over a persistent session: a miss (a threshold the
        // cache has not seen, frame resident in the store) and a hit (the
        // same request again). Neither pays a page-in.
        let mut client = Client::connect(self.base.server.addr()).expect("probe connects");
        let (mut miss, mut hit) = (Vec::new(), Vec::new());
        for i in 0..samples {
            let fresh = threshold * (1.0 + 1e-6 * (i + 1) as f64);
            for times in [&mut miss, &mut hit] {
                let t0 = std::time::Instant::now();
                let (frame, _) = client.fetch(0, fresh).expect("probe fetch");
                times.push(t0.elapsed().as_secs_f64() * 1e3);
                std::hint::black_box(frame);
            }
        }
        out.set_median("serve.fetch_miss_ms_p50", &miss);
        out.set_median("serve.fetch_hit_ms_p50", &hit);
        // What is left of a miss after extraction and the codec: socket,
        // framing, dispatch, cache bookkeeping.
        out.set(
            "serve.fetch_residual_ms",
            median(&miss) - extract - v2_encode - v2_decode,
        );
    }

    fn teardown(self) {
        drop(self.session);
        self.base.server.shutdown();
    }
}

pub struct ViewProgressive {
    base: ViewServer,
    stream: TcpStream,
    fb: Framebuffer,
    next: usize,
}

impl ViewProgressive {
    /// One op: request the next frame progressively, render the first
    /// renderable partial, drain to the final record, render the refined
    /// frame.
    fn stream_and_render(&mut self, op: &mut Op<'_>) -> bool {
        let frame = self.next;
        self.next = (self.next + 1) % FRAMES;
        let request = Request::RequestFrameProgressive {
            frame: frame as u32,
            threshold: self.base.threshold,
            chunk_bytes: DEFAULT_CHUNK_BYTES,
        };
        if write_request(&mut self.stream, &request).is_err() {
            return false;
        }
        let mut asm = ProgressiveAssembler::new();
        let mut wire_bytes = 0;
        let mut first_drawn = false;
        loop {
            let reply = {
                let _s = op.span("serve.read_chunk");
                read_chunk_reply(&mut self.stream)
            };
            let Ok((ChunkReply::Chunk(record), bytes)) = reply else {
                return false;
            };
            wire_bytes += bytes;
            let done = {
                let _s = op.span("lod.accept");
                asm.accept(&record)
            };
            let Ok(done) = done else {
                return false;
            };
            if !first_drawn {
                let _s = op.span("render.partial");
                let Some(partial) = asm.partial_frame() else {
                    return false;
                };
                render_like_session(&mut self.fb, &partial);
                op.first_image();
                first_drawn = true;
            }
            if done {
                break;
            }
        }
        let Some(refined) = asm.into_frame() else {
            return false;
        };
        {
            let _s = op.span("render.refined");
            render_like_session(&mut self.fb, &refined);
        }
        op.done(wire_bytes);
        op.verified();
        frame_matches(op.k, &refined, &self.base.references[frame])
    }
}

impl Workload for ViewProgressive {
    const OP_SPAN: &'static str = "bench.view_progressive.op";

    fn setup(seed: u64, scale: &Scale, scratch: &Path) -> ViewProgressive {
        let base = ViewServer::spawn(seed, scale, scratch);
        let mut stream = TcpStream::connect(base.server.addr()).expect("viewer connects");
        stream.set_nodelay(true).expect("nodelay");
        write_request(&mut stream, &Request::Hello { version: V2 }).expect("hello");
        let granted = read_response(&mut stream).expect("hello ack").0;
        assert!(
            matches!(granted, Response::HelloAck { version: V2, .. }),
            "progressive streaming needs a v2 session, got {granted:?}"
        );
        let mut w = ViewProgressive {
            base,
            stream,
            fb: Framebuffer::new(scale.view_px, scale.view_px),
            next: 0,
        };
        // Warm-up: one full cycle, as in `view_remote`.
        let ok = warm_up(FRAMES, |op| w.stream_and_render(op));
        assert!(ok, "view_progressive warm-up cycle failed verification");
        w
    }

    fn run(&mut self, ctl: &RunCtl<'_>) -> Vec<Vec<Sample>> {
        vec![closed_loop(ctl, |op| self.stream_and_render(op))]
    }

    fn bytes_sent(&self) -> Option<u64> {
        Some(self.base.bytes_sent())
    }

    fn layers(&mut self, _traced: &Traced<'_>, out: &mut Layers) {
        self.base.counters(out);
        let samples = self.base.scale.probe_samples;
        let reference = &self.base.references[0];

        // The chunk plan of a served frame and its client-side assembly.
        let records = plan_frame_chunks(reference, DEFAULT_CHUNK_BYTES);
        let (full, _) = encode_frame_v2(reference);
        out.set_median(
            "lod.plan_ms_p50",
            &probe_ms(samples, || {
                std::hint::black_box(plan_frame_chunks(reference, DEFAULT_CHUNK_BYTES));
            }),
        );
        out.set("lod.records", records.len() as f64);
        out.set("lod.first_chunk_bytes", records[0].len() as f64);
        out.set(
            "lod.first_chunk_fraction",
            records[0].len() as f64 / full.len() as f64,
        );
        out.set_median(
            "lod.assemble_ms_p50",
            &probe_ms(samples, || {
                let mut asm = ProgressiveAssembler::new();
                for record in &records {
                    std::hint::black_box(asm.accept(record).expect("own plan"));
                }
            }),
        );

        // One 64 KiB envelope written to and read back from memory,
        // checksum included: the framing cost every message pays.
        let payload = vec![0xA5u8; 64 * 1024];
        let roundtrip = probe_ms(samples.max(1) * 4, || {
            let mut buf = Vec::with_capacity(payload.len() + 32);
            write_envelope_v(&mut buf, V2, 0x86, &payload).expect("write to memory");
            std::hint::black_box(read_envelope(&mut buf.as_slice()).expect("own envelope"));
        });
        out.set("wire.envelope_roundtrip_us_p50", median(&roundtrip) * 1e3);
    }

    fn teardown(self) {
        drop(self.stream);
        self.base.server.shutdown();
    }
}
