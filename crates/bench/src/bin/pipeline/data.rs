//! Inputs, made from the seed and nothing else: beams, partitioned
//! series, op schedules, reference frames and the digests outputs are
//! verified by. The program under test sees only what is generated here.

use accelviz_beam::distribution::Distribution;
use accelviz_beam::particle::Particle;
use accelviz_beam::simulation::{BeamConfig, BeamSimulation};
use accelviz_core::hybrid::HybridFrame;
use accelviz_octree::builder::{partition, BuildParams};
use accelviz_octree::plots::PlotType;
use accelviz_octree::sorted_store::PartitionedData;
use accelviz_render::framebuffer::Framebuffer;
use accelviz_serve::wire::{encode_frame, fnv1a64};

/// How large a run is: the sizes the issue fixes, or the ~1/20 cut of
/// `--smoke`.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Particles of the fig-1 beams (`prep_series`, `view_*`,
    /// `render_local`).
    pub beam_particles: usize,
    /// Lattice cells (32 steps each) the halo develops for in set-up.
    pub develop_cells: usize,
    /// Particles per frame of the serving workloads.
    pub serve_particles: usize,
    /// Edge of the density volume in fig-1 frames.
    pub grid: usize,
    /// FDTD cells across the cavity diameter, steps the drive fills the
    /// cavity for before the first op, and ops until it is restarted.
    pub fdtd_res: usize,
    pub fdtd_warm_steps: usize,
    pub fdtd_cycle_ops: usize,
    /// Field lines seeded per op.
    pub lines: usize,
    /// Edge of the image of `view_*`, `render_local`, `field_lines`.
    pub view_px: usize,
    pub render_px: usize,
    pub lines_px: usize,
    /// Samples a layer probe takes (at least 30 at full scale).
    pub probe_samples: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        beam_particles: 100_000,
        develop_cells: 40,
        serve_particles: 20_000,
        grid: 64,
        fdtd_res: 24,
        fdtd_warm_steps: 150,
        fdtd_cycle_ops: 45,
        lines: 150,
        view_px: 256,
        render_px: 512,
        lines_px: 384,
        probe_samples: 30,
    };

    pub const SMOKE: Scale = Scale {
        beam_particles: 8_000,
        develop_cells: 4,
        serve_particles: 2_000,
        grid: 24,
        fdtd_res: 10,
        fdtd_warm_steps: 100,
        fdtd_cycle_ops: 6,
        lines: 24,
        view_px: 96,
        render_px: 128,
        lines_px: 128,
        probe_samples: 5,
    };

    /// Point budget of fig-1 extractions: one particle in 25.
    pub fn point_budget(&self) -> usize {
        self.beam_particles / 25
    }

    pub fn grid_dims(&self) -> [usize; 3] {
        [self.grid; 3]
    }
}

/// SplitMix64 — the schedule generator. Small, seedable, and the same on
/// every platform.
#[derive(Clone, Debug)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn next_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The frame and threshold jitter of op `k` on `client`: a pure function
/// of the seed, so a seed reproduces the schedule exactly whatever the
/// machine's speed. The jitter (0 ≤ ε < 0.005) makes every threshold
/// fresh, so no cache on the path can answer it, while moving the cut
/// across few leaf groups, so the bytes an op ships stay steady.
pub fn scheduled_fetch(seed: u64, client: usize, k: usize, frames: usize) -> (u32, f64) {
    let mut rng = SplitMix64(
        seed ^ (client as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F)
            ^ (k as u64).wrapping_mul(0xE703_7ED1_A0B4_28DB),
    );
    let frame = (rng.next_u64() % frames as u64) as u32;
    (frame, 0.005 * rng.next_unit())
}

/// Partition parameters of every store in the benchmark (the paper's
/// depth-6, 256-per-leaf build).
pub fn build_params() -> BuildParams {
    BuildParams {
        max_depth: 6,
        leaf_capacity: 256,
        gradient_refinement: None,
    }
}

/// A halo-study beam advanced `cells` lattice cells (32 steps each).
pub fn developed_beam(particles: usize, cells: usize, seed: u64) -> BeamSimulation {
    let mut sim = BeamSimulation::new(BeamConfig::halo_study(particles, seed));
    for _ in 0..32 * cells {
        sim.step();
    }
    sim
}

/// `frames` snapshots of a developed halo beam, 32 steps apart, each
/// partitioned for `plot`.
pub fn halo_series(
    scale: &Scale,
    frames: usize,
    plot: PlotType,
    seed: u64,
) -> Vec<PartitionedData> {
    let mut sim = developed_beam(scale.beam_particles, scale.develop_cells, seed);
    (0..frames)
        .map(|i| {
            if i > 0 {
                for _ in 0..32 {
                    sim.step();
                }
            }
            partition(&sim.snapshot(i).particles, plot, build_params())
        })
        .collect()
}

/// `frames` independent default-beam samples, partitioned in
/// configuration space — the small frames of the serving workloads.
pub fn sampled_series(particles: usize, frames: usize, seed: u64) -> Vec<PartitionedData> {
    (0..frames)
        .map(|i| {
            let ps: Vec<Particle> =
                Distribution::default_beam().sample(particles, seed.wrapping_add(i as u64));
            partition(&ps, PlotType::XYZ, build_params())
        })
        .collect()
}

/// One extraction threshold for a whole series: the leaf density below
/// which the frames together keep `budget_per_frame` particles each on
/// average (at most, rounding down to whole leaf groups). A threshold
/// taken from one frame's own leaves cuts at that frame's leaf groups of
/// up to 256 particles, so the bytes an op ships would swing by several
/// per cent with the seed; pooling the leaves of all frames makes the
/// work of one pass through the series steady from seed to seed.
pub fn pooled_threshold(series: &[PartitionedData], budget_per_frame: usize) -> f64 {
    let mut leaves: Vec<(f64, u64)> = series
        .iter()
        .flat_map(|d| {
            d.sorted_leaves().iter().map(|&li| {
                let n = &d.tree().nodes[li as usize];
                (n.density, n.len)
            })
        })
        .collect();
    leaves.sort_by(|a, b| a.0.total_cmp(&b.0));
    let budget = (budget_per_frame * series.len()) as u64;
    let mut kept = 0;
    for (density, len) in leaves {
        if kept + len > budget {
            return density;
        }
        kept += len;
    }
    f64::INFINITY
}

/// FNV-1a of a frame's v1 wire encoding: equal digests mean bit-identical
/// frames.
pub fn frame_digest(frame: &HybridFrame) -> u64 {
    fnv1a64(&encode_frame(frame))
}

/// Verifies a served frame against the in-process reference: field-wise
/// equality on every op, the bit-exact digest on every eighth (the digest
/// walks the whole encoding, so it is rationed to keep the pause between
/// ops short).
pub fn frame_matches(k: usize, got: &HybridFrame, reference: &HybridFrame) -> bool {
    got == reference && (!k.is_multiple_of(8) || frame_digest(got) == frame_digest(reference))
}

/// What an image check reports.
pub struct ImageCheck {
    /// FNV-1a of the pixels' bit patterns.
    pub digest: u64,
    /// Whether every channel is finite and the lit share of pixels is
    /// neither nothing nor everything.
    pub sane: bool,
}

/// Checks a rendered image: finite pixels, a lit-pixel share in a sane
/// band, and the digest two renders of one camera must agree on.
pub fn check_image(fb: &Framebuffer) -> ImageCheck {
    let mut bytes = Vec::with_capacity(fb.pixels().len() * 16);
    let mut finite = true;
    for p in fb.pixels() {
        for c in [p.r, p.g, p.b, p.a] {
            finite &= c.is_finite();
            bytes.extend_from_slice(&c.to_bits().to_le_bytes());
        }
    }
    let lit = fb.lit_pixel_count(0.01) as f64 / fb.pixels().len() as f64;
    ImageCheck {
        digest: fnv1a64(&bytes),
        sane: finite && (0.002..0.98).contains(&lit),
    }
}

/// Bytes of one image as the renderer holds it (RGBA, `f32` channels).
pub fn image_bytes(fb: &Framebuffer) -> u64 {
    fb.pixels().len() as u64 * 16
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelviz_octree::extraction::threshold_for_budget;

    #[test]
    fn a_seed_reproduces_the_schedule_and_thresholds_exactly() {
        let schedule = |seed| -> Vec<(u32, f64)> {
            (0..2)
                .flat_map(|c| (0..64).map(move |k| scheduled_fetch(seed, c, k, 12)))
                .collect()
        };
        assert_eq!(schedule(11), schedule(11));
        assert_ne!(schedule(11), schedule(12));
        let a = schedule(11);
        assert!(a.iter().all(|&(f, e)| f < 12 && (0.0..0.005).contains(&e)));
        // Clients draw different streams, and the jitter does not repeat.
        assert_ne!(a[..64], a[64..]);
        let mut eps: Vec<u64> = a.iter().map(|&(_, e)| e.to_bits()).collect();
        eps.sort_unstable();
        eps.dedup();
        assert_eq!(eps.len(), a.len());

        let thresholds = |seed| -> Vec<u64> {
            sampled_series(1_500, 3, seed)
                .iter()
                .map(|d| threshold_for_budget(d, 100).to_bits())
                .collect()
        };
        assert_eq!(thresholds(5), thresholds(5));
        assert_ne!(thresholds(5), thresholds(6));
    }

    #[test]
    fn pooled_threshold_keeps_the_budget_across_the_series() {
        let series = sampled_series(4_000, 6, 9);
        let threshold = pooled_threshold(&series, 400);
        let kept: usize = series
            .iter()
            .map(|d| {
                accelviz_octree::extraction::extract(d, threshold)
                    .particles
                    .len()
            })
            .sum();
        assert!(kept <= 6 * 400, "kept {kept}");
        assert!(
            kept > 6 * 400 - 256,
            "kept {kept}: within one leaf group of the budget"
        );
        assert_eq!(pooled_threshold(&series, 4_001), f64::INFINITY);
    }

    #[test]
    fn frames_verify_by_equality_and_digest() {
        let data = &sampled_series(1_000, 1, 3)[0];
        let thr = threshold_for_budget(data, 100);
        let a = HybridFrame::from_partition(data, 0, thr, [8, 8, 8]);
        let mut b = a.clone();
        assert!(frame_matches(0, &a, &b));
        b.points[0].position.x += 1e-9;
        assert!(!frame_matches(0, &a, &b) && !frame_matches(1, &a, &b));
        assert_ne!(frame_digest(&a), frame_digest(&b));
    }

    #[test]
    fn image_check_wants_finite_and_partly_lit() {
        let mut fb = Framebuffer::new(16, 16);
        assert!(!check_image(&fb).sane, "an empty image is not sane");
        for x in 0..16 {
            fb.set(x, 3, accelviz_math::Rgba::WHITE);
        }
        let lit = check_image(&fb);
        assert!(lit.sane);
        assert_eq!(lit.digest, check_image(&fb).digest);
        fb.set(0, 0, accelviz_math::Rgba::new(f32::NAN, 0.0, 0.0, 1.0));
        assert!(!check_image(&fb).sane);
        assert_eq!(image_bytes(&fb), 16 * 16 * 16);
    }
}
