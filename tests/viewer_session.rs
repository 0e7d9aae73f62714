//! Integration tests of the interactive session and the on-disk run
//! store, crossing the full stack through real files.

use accelviz::beam::simulation::{BeamConfig, BeamSimulation};
use accelviz::core::hybrid::HybridFrame;
use accelviz::core::scene::RenderMode;
use accelviz::core::session::{SessionOp, ViewerSession};
use accelviz::octree::builder::{partition, BuildParams};
use accelviz::octree::extraction::{extract, kept_prefix_tree, threshold_for_budget};
use accelviz::octree::plots::PlotType;
use accelviz::render::framebuffer::Framebuffer;
use accelviz::store::resident::ResidentRun;
use accelviz::store::run::{write_run_file, RunStore};
use std::fs;

fn frames(n: usize) -> Vec<HybridFrame> {
    let mut sim = BeamSimulation::new(BeamConfig::zero_current(2_000, 3));
    let series = sim.run(n - 1, 4);
    series
        .iter()
        .map(|snap| {
            let data = partition(&snap.particles, PlotType::XYZ, BuildParams::default());
            let t = threshold_for_budget(&data, 600);
            HybridFrame::from_partition(&data, snap.step, t, [16, 16, 16])
        })
        .collect()
}

#[test]
fn scripted_session_stays_interactive() {
    let mut s = ViewerSession::open(frames(4));
    // A realistic user script: step, drag the boundary, rotate, toggle
    // modes, render after each — no operation may reprocess.
    let script = [
        SessionOp::StepTo(1),
        SessionOp::SetBoundary(0.02),
        SessionOp::Orbit(0.4, 0.1),
        SessionOp::SetMode(RenderMode::VolumeOnly),
        SessionOp::StepTo(2),
        SessionOp::SetMode(RenderMode::Hybrid),
        SessionOp::SetBoundary(0.005),
        SessionOp::Orbit(-0.7, 0.0),
        SessionOp::StepTo(1), // revisit: must be a cache hit
    ];
    let mut io_total = 0.0;
    for (i, op) in script.iter().enumerate() {
        let cost = s.apply(*op);
        assert!(!cost.reprocessed, "op {i} reprocessed");
        io_total += cost.io_seconds;
        let mut fb = Framebuffer::new(48, 48);
        let stats = s.render(&mut fb);
        assert!(
            stats.volume_samples > 0
                || stats.points_drawn > 0
                || matches!(op, SessionOp::SetMode(_))
        );
    }
    // Only the two first visits of frames 1 and 2 cost disk time; the
    // revisit was free.
    assert!(io_total > 0.0);
    let revisit = s.apply(SessionOp::StepTo(2));
    assert_eq!(revisit.io_seconds, 0.0);
}

#[test]
fn two_part_store_roundtrips_through_the_filesystem() {
    let mut sim = BeamSimulation::new(BeamConfig::zero_current(3_000, 9));
    sim.run(1, 4);
    let snap = sim.snapshot(1);
    let data = partition(&snap.particles, PlotType::X_PX_Y, BuildParams::default());

    let path = std::env::temp_dir().join(format!("accelviz_store_{}", std::process::id()));
    write_run_file(&path, std::slice::from_ref(&data), 4_096).unwrap();
    let store = RunStore::open(&path).unwrap();

    // Full read-back: the tree and every particle.
    let (tree, plot) = store.read_tree(0).unwrap();
    assert_eq!(plot, data.plot());
    assert_eq!(store.load_particles(0).unwrap(), data.particles());

    // Prefix-only extraction from disk: the kept count from the tree, and
    // less than half the frame's particle bytes read.
    let t = threshold_for_budget(&data, 400);
    let expected = extract(&data, t);
    let before = store.io_stats().1;
    let prefix = store.load_prefix(0, kept_prefix_tree(&tree, t)).unwrap();
    assert_eq!(prefix, expected.particles);
    let read = store.io_stats().1 - before;
    assert!(
        read < store.frame_bytes(0) / 2,
        "prefix read {read} of {} bytes",
        store.frame_bytes(0)
    );

    fs::remove_file(&path).ok();
}

#[test]
fn session_over_reloaded_frames_matches_original() {
    // Save one frame's partition to disk, reload, rebuild the hybrid
    // frame, and check the session renders identically.
    let mut sim = BeamSimulation::new(BeamConfig::zero_current(2_000, 5));
    sim.run(1, 4);
    let snap = sim.snapshot(1);
    let data = partition(&snap.particles, PlotType::XYZ, BuildParams::default());
    let t = threshold_for_budget(&data, 500);

    let path = std::env::temp_dir().join(format!("accelviz_reload_{}", std::process::id()));
    write_run_file(&path, std::slice::from_ref(&data), 4_096).unwrap();
    let run = ResidentRun::open(&path, u64::MAX).unwrap();
    let reloaded = run.fetch(0).unwrap().data;
    fs::remove_file(&path).ok();

    let frame_a = HybridFrame::from_partition(&data, 1, t, [16, 16, 16]);
    let frame_b = HybridFrame::from_partition(&reloaded, 1, t, [16, 16, 16]);

    let mut sa = ViewerSession::open(vec![frame_a]);
    let mut sb = ViewerSession::open(vec![frame_b]);
    for s in [&mut sa, &mut sb] {
        s.apply(SessionOp::SetBoundary(0.01));
        s.apply(SessionOp::Orbit(0.3, 0.2));
    }
    let mut fa = Framebuffer::new(64, 64);
    let mut fb = Framebuffer::new(64, 64);
    sa.render(&mut fa);
    sb.render(&mut fb);
    assert_eq!(fa.mse(&fb), 0.0, "reloaded data must render identically");
}
