//! A viewer stepping a loop longer than the server's frame cache — the
//! traffic server-side read-ahead is for (DESIGN.md §13).
//!
//! 100 frames of a 100 000-particle halo beam, 32 steps apart, go into a
//! run file served from a residency window of a third of the run, at the
//! default server config with a 64³ grid. Each frame's cache entry (the
//! frame and its encoding) is ≈ 1.6 MB, so the loop does not fit the
//! default 128 MiB frame cache: every frame is evicted before the viewer
//! comes round to it again, and a step is served fast only if the server
//! read it ahead. A `RemoteFrames` viewer steps the loop once to warm up,
//! then steps and renders (256²) for `--seconds`. It prints:
//!
//! - op p50 and p95 (one op is a step and its render), and ops/s;
//! - process CPU per op (`/proc/self/stat`; "n/a" off Linux) — the server
//!   runs in this process, so this is server and viewer together;
//! - `(serve.cache_misses + serve.readahead_fetches)` per op: frames the
//!   server produced per step, 1.0 when the loop does not fit;
//! - the p50 of a jump of half the loop that follows a step, which waits
//!   for whatever the step started producing;
//! - resident memory at the end.
//!
//! Run: `cargo run --release --example long_loop -- [--seconds 14]`

use accelviz::beam::simulation::{BeamConfig, BeamSimulation};
use accelviz::core::session::{SessionOp, ViewerSession};
use accelviz::math::Rgba;
use accelviz::octree::builder::{partition, BuildParams};
use accelviz::octree::extraction::threshold_for_budget;
use accelviz::octree::plots::PlotType;
use accelviz::render::framebuffer::Framebuffer;
use accelviz::serve::stats::SERVE;
use accelviz::serve::{Client, FrameServer, RemoteFrames, ServerConfig};
use accelviz::store::run::{write_run_file, DEFAULT_CHUNK_BYTES};
use accelviz::store::ResidentRun;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const FRAMES: usize = 100;
const PARTICLES: usize = 100_000;
/// Halo points each frame keeps, about: frame 0's threshold for it.
const POINT_BUDGET: usize = 4_000;
const VIEW_PX: usize = 256;
/// Jumps timed after the stepping run.
const JUMPS: usize = 40;

fn main() {
    let seconds = seconds_from_args();
    let name = format!("accelviz-long-loop-{}.run", std::process::id());
    let file = RunFile(std::env::temp_dir().join(name));
    run(&file.0, seconds).print();
}

/// The run file, deleted when the program ends, by return or by panic.
struct RunFile(PathBuf);

impl Drop for RunFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// What one run measured.
struct Report {
    ops: usize,
    elapsed: Duration,
    op_ms: Vec<f64>,
    cpu_s: Option<f64>,
    produced: u64,
    jump_ms: Vec<f64>,
    failed: usize,
}

fn run(path: &Path, seconds: f64) -> Report {
    let params = BuildParams {
        max_depth: 6,
        leaf_capacity: 256,
        gradient_refinement: None,
    };
    let mut sim = BeamSimulation::new(BeamConfig::halo_study(PARTICLES, 11));
    for _ in 0..32 * 40 {
        sim.step();
    }
    let series: Vec<_> = (0..FRAMES)
        .map(|i| {
            if i > 0 {
                for _ in 0..32 {
                    sim.step();
                }
            }
            partition(&sim.snapshot(i).particles, PlotType::XYZ, params)
        })
        .collect();
    drop(sim);
    let threshold = threshold_for_budget(&series[0], POINT_BUDGET);
    write_run_file(path, &series, DEFAULT_CHUNK_BYTES).expect("write the run");
    drop(series);
    let run_bytes = std::fs::metadata(path).expect("the run file").len();
    let run = Arc::new(ResidentRun::open(path, run_bytes / 3).expect("open the run"));
    let config = ServerConfig {
        volume_dims: [64; 3],
        ..ServerConfig::default()
    };
    let server = FrameServer::spawn_loopback(run, config).expect("loopback bind");
    let client = Client::connect(server.addr()).expect("the viewer connects");
    let mut session = ViewerSession::open_with(Box::new(RemoteFrames::new(client, threshold, 1)));
    let mut fb = Framebuffer::new(VIEW_PX, VIEW_PX);
    let mut failed = 0;
    let mut op = |session: &mut ViewerSession, frame: usize| {
        let t0 = Instant::now();
        let cost = session.apply(SessionOp::StepTo(frame));
        fb.clear(Rgba::BLACK);
        session.render(&mut fb);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        failed += usize::from(cost.failed || cost.degraded || session.current() != frame);
        ms
    };

    // Warm-up: one cycle, so the cache and the window are in their
    // steady cyclic state.
    let mut next = 1;
    for _ in 0..FRAMES {
        op(&mut session, next);
        next = (next + 1) % FRAMES;
    }
    let produced = || {
        let m = server.metrics();
        m.counter(SERVE.cache_misses) + m.counter(SERVE.readahead_fetches)
    };
    let (produced0, cpu0, t0) = (produced(), process_cpu_seconds(), Instant::now());
    let mut op_ms = Vec::new();
    while t0.elapsed().as_secs_f64() < seconds {
        op_ms.push(op(&mut session, next));
        next = (next + 1) % FRAMES;
    }
    let elapsed = t0.elapsed();
    let cpu_s = process_cpu_seconds()
        .zip(cpu0)
        .map(|(end, start)| end - start);
    let produced = produced() - produced0;

    // A jump of half the loop, right after a step.
    let mut jump_ms = Vec::with_capacity(JUMPS);
    for _ in 0..JUMPS {
        op(&mut session, next);
        next = (next + FRAMES / 2) % FRAMES;
        jump_ms.push(op(&mut session, next));
        next = (next + 1) % FRAMES;
    }
    drop(session);
    server.shutdown();
    Report {
        ops: op_ms.len(),
        elapsed,
        op_ms,
        cpu_s,
        produced,
        jump_ms,
        failed,
    }
}

impl Report {
    fn print(mut self) {
        let ops = self.ops.max(1) as f64;
        println!(
            "{FRAMES} frames of {PARTICLES} particles, 64^3 grid, {VIEW_PX}^2 render, \
             {} ops in {:.1} s after one warm-up cycle",
            self.ops,
            self.elapsed.as_secs_f64()
        );
        println!("op_ms_p50        {:.3}", percentile(&mut self.op_ms, 0.50));
        println!("op_ms_p95        {:.3}", percentile(&mut self.op_ms, 0.95));
        println!("ops_per_s        {:.1}", ops / self.elapsed.as_secs_f64());
        match self.cpu_s {
            Some(cpu) => println!("cpu_ms_per_op    {:.3}", cpu * 1e3 / ops),
            None => println!("cpu_ms_per_op    n/a"),
        }
        println!("produced_per_op  {:.3}", self.produced as f64 / ops);
        println!(
            "jump_ms_p50      {:.3}",
            percentile(&mut self.jump_ms, 0.50)
        );
        match resident_mib() {
            Some(mib) => println!("end_rss_mib      {mib:.1}"),
            None => println!("end_rss_mib      n/a"),
        }
        println!("failed_ops       {}", self.failed);
    }
}

/// `--seconds S` from the command line; 14 without it.
fn seconds_from_args() -> f64 {
    let args: Vec<String> = std::env::args().collect();
    match args.iter().position(|a| a == "--seconds") {
        Some(i) => args
            .get(i + 1)
            .and_then(|s| s.parse().ok())
            .expect("--seconds takes a number"),
        None => 14.0,
    }
}

/// The `q` quantile of `xs` (nearest rank); 0 when empty.
fn percentile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

/// User + system CPU seconds of this process, all threads, from
/// `/proc/self/stat` (in `USER_HZ`, 100 on Linux). `None` off Linux.
fn process_cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the command name, which may hold spaces; utime and
    // stime are the 12th and 13th of them.
    let rest = stat.rsplit_once(')')?.1;
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// This process's resident set now, in MiB (`VmRSS`). `None` off Linux.
fn resident_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kib: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
