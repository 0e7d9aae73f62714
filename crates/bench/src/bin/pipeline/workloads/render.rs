//! `render_local` — the desktop viewer with nothing between it and its
//! frames: four fig-1 hybrid frames in memory, an orbiting camera, a
//! 512×512 hybrid render per op. Render does all the work and serving
//! none: render gains must show here, serve changes must not.

use super::{Layers, Traced, Workload};
use crate::data::{check_image, halo_series, image_bytes, pooled_threshold, Scale};
use crate::run::{closed_loop, Op, RunCtl, Sample};
use crate::stats::median;
use accelviz_core::hybrid::HybridFrame;
use accelviz_core::scene::{RenderMode, SceneStats};
use accelviz_core::session::{SessionOp, ViewerSession};
use accelviz_math::Rgba;
use accelviz_octree::plots::PlotType;
use accelviz_render::framebuffer::Framebuffer;
use std::path::Path;
use std::time::Instant;

const FRAMES: usize = 4;
/// Ops the viewer stays on one frame before stepping to the next.
const OPS_PER_FRAME: usize = 8;
/// One op in this many has its image checked.
const VERIFY_EVERY: usize = 8;

pub struct RenderLocal {
    scale: Scale,
    session: ViewerSession,
    fb: Framebuffer,
    /// Counters of the last rendered image.
    last: SceneStats,
}

impl RenderLocal {
    fn clear_and_render(&mut self) -> SceneStats {
        self.fb.clear(Rgba::BLACK);
        self.session.render(&mut self.fb)
    }

    /// One op: step (a local cache hit), orbit, render.
    fn orbit_and_render(&mut self, op: &mut Op<'_>) -> bool {
        let frame = (op.k / OPS_PER_FRAME) % FRAMES;
        let cost = {
            let _s = op.span("core.local_step");
            self.session.apply(SessionOp::StepTo(frame))
        };
        self.session.apply(SessionOp::Orbit(0.05, 0.01));
        self.last = {
            let _s = op.span("render.hybrid");
            self.clear_and_render()
        };
        op.done(image_bytes(&self.fb));
        let stepped = !cost.failed && !cost.degraded && self.session.current() == frame;
        if !op.k.is_multiple_of(VERIFY_EVERY) {
            return stepped;
        }
        op.verified();
        stepped && check_image(&self.fb).sane && self.last.volume_samples > 0
    }
}

impl Workload for RenderLocal {
    const OP_SPAN: &'static str = "bench.render_local.op";

    fn setup(seed: u64, scale: &Scale, _scratch: &Path) -> RenderLocal {
        let series = halo_series(scale, FRAMES, PlotType::XYZ, seed);
        let threshold = pooled_threshold(&series, scale.point_budget());
        let frames: Vec<HybridFrame> = series
            .iter()
            .enumerate()
            .map(|(i, d)| HybridFrame::from_partition(d, i, threshold, scale.grid_dims()))
            .collect();
        drop(series);
        let mut w = RenderLocal {
            scale: *scale,
            session: ViewerSession::open(frames),
            fb: Framebuffer::new(scale.render_px, scale.render_px),
            last: SceneStats::default(),
        };
        // Warm-up, and the determinism check: one camera, two renders,
        // one image.
        w.clear_and_render();
        let first = check_image(&w.fb);
        w.clear_and_render();
        let second = check_image(&w.fb);
        assert!(first.sane, "render_local's first image is not sane");
        assert_eq!(
            first.digest, second.digest,
            "one camera rendered two images"
        );
        w
    }

    fn run(&mut self, ctl: &RunCtl<'_>) -> Vec<Vec<Sample>> {
        vec![closed_loop(ctl, |op| self.orbit_and_render(op))]
    }

    fn layers(&mut self, traced: &Traced<'_>, out: &mut Layers) {
        let step_us: Vec<f64> = traced
            .span_ms("core.local_step")
            .iter()
            .map(|ms| ms * 1e3)
            .collect();
        out.set_median("core.local_step_us_p50", &step_us);
        out.set_median("render.hybrid_ms_p50", &traced.span_ms("render.hybrid"));

        // The two passes of the hybrid image on their own, over the same
        // cameras: the session keeps orbiting as it did in the run.
        let mut pass = |mode: RenderMode| -> (f64, SceneStats) {
            self.session.apply(SessionOp::SetMode(mode));
            let mut stats = SceneStats::default();
            let ms: Vec<f64> = (0..self.scale.probe_samples)
                .map(|_| {
                    self.session.apply(SessionOp::Orbit(0.05, 0.0));
                    let t0 = Instant::now();
                    stats = self.clear_and_render();
                    t0.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            (median(&ms), stats)
        };
        let (volume_ms, volume) = pass(RenderMode::VolumeOnly);
        let (points_ms, points) = pass(RenderMode::PointsOnly);
        self.session.apply(SessionOp::SetMode(RenderMode::Hybrid));
        out.set("render.volume_ms_p50", volume_ms);
        out.set("render.points_ms_p50", points_ms);
        out.set("render.volume_samples", volume.volume_samples as f64);
        out.set(
            "render.volume_msamples_per_s",
            volume.volume_samples as f64 / 1e6 / (volume_ms / 1e3),
        );
        out.set("render.points_drawn", points.points_drawn as f64);
        self.clear_and_render();
        eprintln!(
            "render.image_digest {:016x} (informational)",
            check_image(&self.fb).digest
        );
    }
}
