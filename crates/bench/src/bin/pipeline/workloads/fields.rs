//! `field_lines` — the paper's §3 half: an FDTD cavity simulation, a
//! field capture, density-proportional line seeding, and the lines drawn
//! as self-orienting surfaces. The render crate is used through triangles
//! instead of rays, so a change to shared math or the framebuffer that
//! helps one renderer and hurts the other shows here.
//!
//! The lines an op traces are as long as the field of its moment makes
//! them: four times longer near a zero crossing of the standing wave than
//! at its crest, and which of the two an op meets drifts for hundreds of
//! ops as the cavity rings up. So the ops come in cycles: the cavity is
//! restarted, between two ops, every [`Scale::fdtd_cycle_ops`], every
//! cycle is the same fields, seeds and lines, and a run is whole cycles —
//! one op mix however fast the machine is.

use super::{probe_ms, Layers, Traced, Workload};
use crate::data::{check_image, Scale};
use crate::run::{closed_loop_cycles, Op, RunCtl, Sample};
use crate::stats::median;
use accelviz_core::scene::{render_line_set, LineRepresentation, SceneStats};
use accelviz_emsim::cavity::{CavityGeometry, CavitySpec};
use accelviz_emsim::fdtd::{FdtdSim, FdtdSpec};
use accelviz_emsim::sample::{FieldKind, FieldSampler, VectorField3};
use accelviz_fieldlines::compact::compact_bytes;
use accelviz_fieldlines::integrate::TraceParams;
use accelviz_fieldlines::line::FieldLine;
use accelviz_fieldlines::seeding::{seed_lines, SeedingParams};
use accelviz_fieldlines::sos::{sos_strip, sos_triangle_count, SosParams};
use accelviz_fieldlines::style::LineStyle;
use accelviz_math::Rgba;
use accelviz_render::camera::Camera;
use accelviz_render::framebuffer::Framebuffer;
use std::path::Path;

/// FDTD steps between two captured fields.
const STEPS_PER_OP: usize = 10;
/// Half-width of a line's surface strip, in cavity radii.
const HALF_WIDTH: f64 = 0.012;
/// One op in this many has its image checked.
const VERIFY_EVERY: usize = 8;

pub struct FieldLines {
    scale: Scale,
    seed: u64,
    sim: FdtdSim,
    fb: Framebuffer,
    /// Line-set bytes and triangles of each op of the first cycle: what
    /// every later cycle must produce again.
    first_cycle: Vec<(u64, usize)>,
    /// The last op's lines and camera, kept for the probes.
    last: Option<(Vec<FieldLine>, Camera)>,
}

/// The cavity, driven from rest for the scale's warm-up steps.
fn filled_cavity(scale: &Scale) -> FdtdSim {
    let geometry = CavityGeometry::new(CavitySpec::three_cell());
    let mut sim = FdtdSim::new(FdtdSpec::for_geometry(geometry, scale.fdtd_res));
    sim.run(scale.fdtd_warm_steps);
    sim
}

impl FieldLines {
    /// Seeds the lines of the op at `position` in its cycle on a captured
    /// field. The seeding stream is a function of the run seed and the
    /// position.
    fn seed(&self, field: &FieldSampler, position: usize) -> Vec<FieldLine> {
        let params = SeedingParams {
            n_lines: self.scale.lines,
            trace: TraceParams {
                step: 0.04,
                max_steps: 250,
                min_magnitude: 1e-6 * field.max_magnitude().max(1e-300),
                bidirectional: true,
            },
            seed: self.seed.wrapping_add(position as u64),
            min_magnitude_frac: 1e-3,
        };
        seed_lines(field, &params)
            .into_iter()
            .map(|seeded| seeded.line)
            .collect()
    }

    /// Draws `lines` as self-orienting surfaces, seen from outside the
    /// cavity, styled by the field's magnitude.
    fn draw(&mut self, field: &FieldSampler, lines: &[FieldLine]) -> (Camera, SceneStats) {
        let bounds = field.bounds();
        let camera = Camera::orbit(bounds.center(), bounds.longest_edge() * 1.8, 0.9, 0.35, 1.0);
        self.fb.clear(Rgba::BLACK);
        let stats = render_line_set(
            &mut self.fb,
            &camera,
            lines,
            LineRepresentation::SelfOrientingSurfaces,
            &LineStyle::electric(field.max_magnitude()),
            HALF_WIDTH,
        );
        (camera, stats)
    }

    /// One op: advance the cavity, capture E, seed lines, draw them. After
    /// the last op of a cycle the cavity is restarted.
    fn simulate_and_draw(&mut self, op: &mut Op<'_>) -> bool {
        let position = op.k % self.scale.fdtd_cycle_ops;
        {
            let _s = op.span("emsim.run");
            self.sim.run(STEPS_PER_OP);
        }
        let field = {
            let _s = op.span("emsim.capture");
            FieldSampler::capture(&self.sim, FieldKind::Electric)
        };
        let lines = {
            let mut s = op.span("fieldlines.seed");
            let lines = self.seed(&field, position);
            s.arg(
                "vertices",
                lines.iter().map(FieldLine::len).sum::<usize>() as f64,
            );
            s.arg("compact_bytes", compact_bytes(&lines) as f64);
            lines
        };
        let (camera, stats) = {
            let mut s = op.span("render.lines_sos");
            let (camera, stats) = self.draw(&field, &lines);
            s.arg("triangles", stats.triangles as f64);
            s.arg("fragments", stats.fragments as f64);
            (camera, stats)
        };
        let produced = (compact_bytes(&lines), stats.triangles);
        op.done(produced.0);

        let expected: usize = lines.iter().map(|l| sos_triangle_count(l.len())).sum();
        let mut ok = !lines.is_empty() && stats.triangles == expected;
        match self.first_cycle.get(position) {
            Some(first) => ok &= *first == produced,
            None => self.first_cycle.push(produced),
        }
        if op.k.is_multiple_of(VERIFY_EVERY) {
            op.verified();
            ok &= check_image(&self.fb).sane;
        }
        self.last = Some((lines, camera));
        if position + 1 == self.scale.fdtd_cycle_ops {
            // The solver steps on every core: its CPU time is measured.
            self.sim = op.untimed(|| filled_cavity(&self.scale));
        }
        ok
    }
}

impl Workload for FieldLines {
    const OP_SPAN: &'static str = "bench.field_lines.op";

    fn setup(seed: u64, scale: &Scale, _scratch: &Path) -> FieldLines {
        let mut w = FieldLines {
            scale: *scale,
            seed,
            sim: filled_cavity(scale),
            fb: Framebuffer::new(scale.lines_px, scale.lines_px),
            first_cycle: Vec::new(),
            last: None,
        };
        // The determinism check: one field, one seed, one camera — two
        // line sets and two images that must agree.
        let field = FieldSampler::capture(&w.sim, FieldKind::Electric);
        let mut image_of_a_seeding = || {
            let lines = w.seed(&field, 0);
            w.draw(&field, &lines);
            (compact_bytes(&lines), check_image(&w.fb).digest)
        };
        assert_eq!(
            image_of_a_seeding(),
            image_of_a_seeding(),
            "one seed and one camera gave two line sets or two images"
        );
        w
    }

    fn run(&mut self, ctl: &RunCtl<'_>) -> Vec<Vec<Sample>> {
        let cycle = self.cycle_ops();
        vec![closed_loop_cycles(ctl, cycle, |op| {
            self.simulate_and_draw(op)
        })]
    }

    fn cycle_ops(&self) -> usize {
        self.scale.fdtd_cycle_ops
    }

    fn layers(&mut self, traced: &Traced<'_>, out: &mut Layers) {
        let per_step: Vec<f64> = traced
            .span_ms("emsim.run")
            .iter()
            .map(|ms| ms / STEPS_PER_OP as f64)
            .collect();
        out.set_median("emsim.step_ms_p50", &per_step);
        out.set("emsim.cells", self.sim.vacuum_cell_count() as f64);
        out.set_median("emsim.capture_ms_p50", &traced.span_ms("emsim.capture"));
        out.set_median("fieldlines.seed_ms_p50", &traced.span_ms("fieldlines.seed"));
        let draw_ms = traced.span_ms("render.lines_sos");
        out.set_median("render.lines_sos_ms_p50", &draw_ms);
        // The lines differ from op to op as the cavity fills: the counts
        // are medians over the traced ops, like the times beside them.
        for (metric, span, arg) in [
            ("fieldlines.vertices", "fieldlines.seed", "vertices"),
            (
                "fieldlines.compact_bytes",
                "fieldlines.seed",
                "compact_bytes",
            ),
            ("render.triangles", "render.lines_sos", "triangles"),
            ("render.fragments", "render.lines_sos", "fragments"),
        ] {
            out.set_median(metric, &traced.span_args(span, arg));
        }
        if let (Some(tris), false) = (out.get("render.triangles"), draw_ms.is_empty()) {
            out.set("render.mtris_per_s", tris / 1e6 / (median(&draw_ms) / 1e3));
        }

        let Some((lines, camera)) = self.last.take() else {
            return;
        };
        // Building the strips alone, without rasterizing them.
        let params = SosParams {
            half_width: HALF_WIDTH,
            ..Default::default()
        };
        let build = probe_ms(self.scale.probe_samples, || {
            for line in &lines {
                std::hint::black_box(sos_strip(line, camera.eye, &params));
            }
        });
        out.set_median("fieldlines.sos_build_ms_p50", &build);
    }
}
