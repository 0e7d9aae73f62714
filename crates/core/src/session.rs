//! The interactive viewing session (§2.4–2.5): the state machine behind
//! the paper's desktop "view program with an interactive transfer
//! function editor".
//!
//! The session owns a frame series, the linked transfer-function pair,
//! the orbit camera, and the render mode. Its invariants encode the
//! paper's interactivity argument:
//!
//! - Stepping frames touches only the frame cache (disk on a miss,
//!   nothing on a hit).
//! - Dragging the TF boundary is O(1) state mutation — extraction is
//!   *never* re-run; the point TF re-filters and the volume TF re-colors
//!   at the next render. But the boundary can only move "up until the
//!   boundary specified during preprocessing, beyond which no points are
//!   available" — the session clamps and reports it.
//! - Rotating the camera re-renders but recomputes nothing else.

use crate::hybrid::HybridFrame;
use crate::scene::{render_hybrid_frame, RenderMode, SceneStats};
use crate::transfer::TransferFunctionPair;
use crate::viewer::{FrameSource, LocalFrames};
use accelviz_render::camera::Camera;
use accelviz_render::framebuffer::Framebuffer;
use accelviz_render::points::PointStyle;
use accelviz_render::volume::VolumeStyle;
use std::sync::Arc;

/// One user interaction.
#[derive(Clone, Copy, Debug)]
pub enum SessionOp {
    /// Keyboard-step to a frame.
    StepTo(usize),
    /// Drag the linked transfer-function boundary to a normalized
    /// density.
    SetBoundary(f64),
    /// Orbit the camera by (Δazimuth, Δelevation) radians.
    Orbit(f64, f64),
    /// Switch the render mode (Figure 4's decomposition toggle).
    SetMode(RenderMode),
}

/// What an interaction cost.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OpCost {
    /// Disk seconds spent (only frame misses pay this).
    pub io_seconds: f64,
    /// Whether any preprocessing (partitioning/extraction) re-ran. The
    /// session guarantees this stays `false` — that is the hybrid
    /// method's point.
    pub reprocessed: bool,
    /// Whether a `SetBoundary` request was clamped to the preprocessing
    /// threshold.
    pub clamped: bool,
    /// Whether a `StepTo` load failed (only remote sources can fail; the
    /// session keeps showing the previous frame).
    pub failed: bool,
    /// Whether the source served a *stale* frame in place of the
    /// requested one (remote retries exhausted, graceful degradation).
    /// The session stays on its previous frame index and keeps
    /// rendering; the UI should badge the display as stale.
    pub degraded: bool,
    /// Whether the source served a *partially refined* rendition of the
    /// requested frame (a progressive stream that could not finish).
    /// Always paired with `degraded`, but unlike a stale frame the
    /// session *does* advance — the data really is the requested frame,
    /// at reduced fidelity.
    pub partial: bool,
}

/// An interactive viewing session over a hybrid frame series. The frames
/// come from a [`FrameSource`] — local memory for the paper's desktop
/// viewer, or a TCP connection to an `accelviz-serve` server; the session
/// logic is identical either way.
pub struct ViewerSession {
    source: Box<dyn FrameSource>,
    current_frame: Arc<HybridFrame>,
    /// The linked transfer functions (public for inspection; mutate via
    /// [`ViewerSession::apply`]).
    pub tfs: TransferFunctionPair,
    mode: RenderMode,
    current: usize,
    theta: f64,
    phi: f64,
    distance_factor: f64,
}

impl ViewerSession {
    /// Opens a session over an in-memory frame series with the
    /// paper-desktop cache.
    pub fn open(frames: Vec<HybridFrame>) -> ViewerSession {
        assert!(!frames.is_empty(), "a session needs at least one frame");
        ViewerSession::open_with(Box::new(LocalFrames::paper_desktop(frames)))
    }

    /// Opens a session over any frame source. Loads frame 0 eagerly so
    /// the session always has a current frame; panics if the source is
    /// empty or the initial load fails.
    pub fn open_with(mut source: Box<dyn FrameSource>) -> ViewerSession {
        assert!(
            source.frame_count() > 0,
            "a session needs at least one frame"
        );
        let (current_frame, _) = source.load(0).expect("initial frame load must succeed");
        ViewerSession {
            source,
            current_frame,
            tfs: TransferFunctionPair::linked_at(0.05, 0.02),
            mode: RenderMode::Hybrid,
            current: 0,
            theta: 0.5,
            phi: 0.35,
            distance_factor: 2.2,
        }
    }

    /// The current frame index.
    pub fn current(&self) -> usize {
        self.current
    }

    /// The current frame.
    pub fn frame(&self) -> &HybridFrame {
        &self.current_frame
    }

    /// Number of frames in the session.
    pub fn frame_count(&self) -> usize {
        self.source.frame_count()
    }

    /// The maximum normalized density at which the current frame still
    /// has points — the preprocessing boundary the paper says the user
    /// cannot drag past.
    pub fn preprocessing_boundary(&self) -> f64 {
        self.frame().point_densities.last().copied().unwrap_or(0.0)
    }

    /// Applies one interaction and reports its cost.
    pub fn apply(&mut self, op: SessionOp) -> OpCost {
        match op {
            SessionOp::StepTo(frame) => {
                let frame = frame.min(self.source.frame_count() - 1);
                match self.source.load(frame) {
                    // A degraded load hands back a stale resident frame:
                    // keep rendering it, but do not pretend we moved —
                    // `current` stays where the data actually is. The
                    // exception is a *partial* degraded load: that is the
                    // requested frame at reduced refinement, so the
                    // session really did move.
                    Ok((f, load)) if load.degraded => {
                        self.current_frame = f;
                        if load.partial {
                            self.current = frame;
                        }
                        OpCost {
                            io_seconds: load.seconds,
                            degraded: true,
                            partial: load.partial,
                            ..Default::default()
                        }
                    }
                    Ok((f, load)) => {
                        self.current_frame = f;
                        self.current = frame;
                        OpCost {
                            io_seconds: load.seconds,
                            ..Default::default()
                        }
                    }
                    // A failed load (remote transport error) leaves the
                    // session on the previous frame.
                    Err(_) => OpCost {
                        failed: true,
                        ..Default::default()
                    },
                }
            }
            SessionOp::SetBoundary(d) => {
                let limit = self.preprocessing_boundary();
                let clamped = d > limit && limit > 0.0;
                let applied = if clamped { limit } else { d };
                let ramp = self.tfs.volume.ramp_width;
                self.tfs.set_boundary(applied, ramp);
                OpCost {
                    clamped,
                    ..Default::default()
                }
            }
            SessionOp::Orbit(dtheta, dphi) => {
                self.theta += dtheta;
                self.phi = (self.phi + dphi).clamp(-1.4, 1.4);
                OpCost::default()
            }
            SessionOp::SetMode(mode) => {
                self.mode = mode;
                OpCost::default()
            }
        }
    }

    /// The current camera.
    pub fn camera(&self, aspect: f64) -> Camera {
        let b = self.frame().bounds;
        Camera::orbit(
            b.center(),
            b.longest_edge() * self.distance_factor,
            self.theta,
            self.phi,
            aspect,
        )
    }

    /// Renders the current state. The source is told first, so a remote
    /// one fetches ahead while the frame is drawn.
    pub fn render(&mut self, fb: &mut Framebuffer) -> SceneStats {
        self.source.drawing();
        let mut span = accelviz_trace::span("session.render_frame");
        let cam = self.camera(fb.width() as f64 / fb.height() as f64);
        let stats = render_hybrid_frame(
            fb,
            &cam,
            self.frame(),
            &self.tfs,
            self.mode,
            &VolumeStyle {
                steps: 48,
                ..Default::default()
            },
            &PointStyle::default(),
        );
        if span.is_active() {
            span.arg("frame", self.current as f64);
            span.arg("volume_samples", stats.volume_samples as f64);
            span.arg("points_drawn", stats.points_drawn as f64);
        }
        stats
    }

    /// Writes the whole-frame Chrome trace accumulated so far (every span
    /// the pipeline recorded into the global registry — partition,
    /// extraction, wire transfer, render) to `path`. Requires tracing to
    /// be on (`ACCELVIZ_TRACE` set, or
    /// [`accelviz_trace::registry::Registry::set_spans_enabled`] called on
    /// the global registry); with tracing off the file is written but
    /// contains no span events.
    pub fn dump_trace(&self, path: &std::path::Path) -> std::io::Result<()> {
        accelviz_trace::chrome::write_trace(path, accelviz_trace::global())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelviz_beam::distribution::Distribution;
    use accelviz_octree::builder::{partition, BuildParams};
    use accelviz_octree::extraction::threshold_for_budget;
    use accelviz_octree::plots::PlotType;

    fn session(n_frames: usize) -> ViewerSession {
        let frames: Vec<HybridFrame> = (0..n_frames)
            .map(|i| {
                let ps = Distribution::default_beam().sample(2_000, i as u64 + 1);
                let data = partition(&ps, PlotType::XYZ, BuildParams::default());
                let t = threshold_for_budget(&data, 600);
                HybridFrame::from_partition(&data, i, t, [16, 16, 16])
            })
            .collect();
        ViewerSession::open(frames)
    }

    #[test]
    fn boundary_edits_never_reprocess() {
        let mut s = session(2);
        for d in [0.01, 0.02, 0.001, 0.03] {
            let cost = s.apply(SessionOp::SetBoundary(d));
            assert!(!cost.reprocessed);
            assert_eq!(cost.io_seconds, 0.0);
        }
        // The edit is visible in the next render: a tiny boundary draws
        // fewer points than a generous one.
        s.apply(SessionOp::SetBoundary(1e-6));
        let mut fb = Framebuffer::new(64, 64);
        let few = s.render(&mut fb).points_drawn;
        s.apply(SessionOp::SetBoundary(s.preprocessing_boundary()));
        let mut fb = Framebuffer::new(64, 64);
        let many = s.render(&mut fb).points_drawn;
        assert!(
            many > few,
            "boundary must control drawn points: {many} vs {few}"
        );
    }

    #[test]
    fn boundary_clamps_at_preprocessing_threshold() {
        let mut s = session(1);
        let limit = s.preprocessing_boundary();
        assert!(limit > 0.0);
        let cost = s.apply(SessionOp::SetBoundary(limit * 10.0));
        assert!(
            cost.clamped,
            "no points exist beyond the preprocessing boundary"
        );
        assert!((s.tfs.point.threshold - limit).abs() < 1e-12);
        // Inside the available range: no clamp.
        let cost = s.apply(SessionOp::SetBoundary(limit * 0.5));
        assert!(!cost.clamped);
    }

    #[test]
    fn stepping_costs_io_once_then_nothing() {
        let mut s = session(3);
        let first = s.apply(SessionOp::StepTo(2));
        assert!(first.io_seconds > 0.0, "cold frame pays disk time");
        let again = s.apply(SessionOp::StepTo(2));
        assert_eq!(again.io_seconds, 0.0, "warm frame is instantaneous");
        assert_eq!(s.current(), 2);
        // Out-of-range steps clamp to the last frame.
        s.apply(SessionOp::StepTo(99));
        assert_eq!(s.current(), 2);
    }

    #[test]
    fn orbiting_changes_the_image_only() {
        let mut s = session(1);
        let mut before = Framebuffer::new(64, 64);
        s.render(&mut before);
        let cost = s.apply(SessionOp::Orbit(0.8, 0.2));
        assert_eq!(cost, OpCost::default());
        let mut after = Framebuffer::new(64, 64);
        s.render(&mut after);
        assert!(before.mse(&after) > 0.0, "the view must actually rotate");
    }

    #[test]
    fn mode_toggle_reproduces_figure4_decomposition() {
        let mut s = session(1);
        s.apply(SessionOp::SetMode(RenderMode::VolumeOnly));
        let mut fb = Framebuffer::new(64, 64);
        let vol = s.render(&mut fb);
        assert_eq!(vol.points_drawn, 0);
        s.apply(SessionOp::SetMode(RenderMode::PointsOnly));
        let mut fb = Framebuffer::new(64, 64);
        let pts = s.render(&mut fb);
        assert_eq!(pts.volume_samples, 0);
        assert!(pts.points_drawn > 0);
    }

    #[test]
    #[should_panic]
    fn empty_session_panics() {
        let _ = ViewerSession::open(Vec::new());
    }
}
