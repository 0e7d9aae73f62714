//! Ray-cast volume rendering — the software equivalent of the
//! texture-mapping-hardware volume rendering the hybrid method uses for
//! its high-density regions (§2).
//!
//! The pass evaluates only samples that can be visible: rays are cast
//! only for the screen rectangle the volume's box covers, and a sample is
//! skipped when a per-block bound on the cells its trilinear taps can read
//! proves it lies below the transfer function's transparent level. Every
//! skipped sample is one that would have had opacity 0, so the image is
//! bit-identical to marching every step of every ray (DESIGN.md §17).

use crate::camera::Camera;
use crate::framebuffer::Framebuffer;
use accelviz_math::{sample_grid, Aabb, Ray, Rgba, Vec3};
use rayon::prelude::*;
use std::ops::{Add, Range};
use std::sync::OnceLock;

/// Edge, in cells, of the cubic blocks the empty-space bound is kept at.
const BLOCK: usize = 2;

/// Relative slack on the skip test. A trilinear tap and the divide by
/// the max round by a few ulps; this is six orders of magnitude more.
const ROUNDING_SLACK: f64 = 1e-9;

/// A volume transfer function the pass can skip with.
pub trait VolumeTransfer: Sync {
    /// Every normalized density strictly below this level maps to
    /// opacity 0 (`-inf` if there is no such level).
    fn transparent_below(&self) -> f64;
    /// Color and opacity at normalized density `d`.
    fn sample(&self, d: f64) -> Rgba;
}

/// Volume rendering parameters.
#[derive(Clone, Copy, Debug)]
pub struct VolumeStyle {
    /// Number of samples along each ray through the volume.
    pub steps: usize,
    /// Early-termination opacity: stop compositing once accumulated alpha
    /// exceeds this.
    pub early_termination: f32,
}

impl Default for VolumeStyle {
    fn default() -> VolumeStyle {
        VolumeStyle {
            steps: 128,
            early_termination: 0.98,
        }
    }
}

/// What a volume pass cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VolumeCost {
    /// Ray steps through the volume up to early termination, skipped or
    /// not: the fill cost a texture-slicing GPU pays for the image (the
    /// Figure 1 measure), independent of the skip.
    pub samples: u64,
    /// The steps whose field value and transfer function were computed;
    /// the rest were provably transparent.
    pub evaluated: u64,
}

impl Add for VolumeCost {
    type Output = VolumeCost;
    fn add(self, o: VolumeCost) -> VolumeCost {
        VolumeCost {
            samples: self.samples + o.samples,
            evaluated: self.evaluated + o.evaluated,
        }
    }
}

/// A borrowed dense, cell-centred grid (x-fastest `data` of `dims` cells
/// over `bounds`, largest value `max`): the field the volume pass renders.
#[derive(Clone, Copy, Debug)]
pub struct GridView<'a> {
    data: &'a [f32],
    dims: [usize; 3],
    bounds: Aabb,
    max: f32,
    bound: &'a OnceLock<Vec<f32>>,
}

impl<'a> GridView<'a> {
    /// A view of one grid. `bound` is that grid's own slot for the
    /// empty-space bound: filled on the first render, reused by every
    /// later one, and never to be shared with other data.
    pub fn new(
        data: &'a [f32],
        dims: [usize; 3],
        bounds: Aabb,
        max: f32,
        bound: &'a OnceLock<Vec<f32>>,
    ) -> GridView<'a> {
        assert!(dims.iter().all(|&d| d > 0), "grid dims must be positive");
        assert_eq!(
            data.len(),
            dims.iter().product(),
            "cell data must match grid dims"
        );
        GridView {
            data,
            dims,
            bounds,
            max,
            bound,
        }
    }

    /// Per `BLOCK`³ block, the largest |cell| within one block of it:
    /// every cell a tap can read from a sample located in the block, even
    /// when the location is off by one cell.
    fn block_bound(&self) -> &'a [f32] {
        self.bound.get_or_init(|| {
            let (d, nb) = (self.dims, self.dims.map(|n| n.div_ceil(BLOCK)));
            let mut bound = vec![0.0f32; nb.iter().product()];
            // One slab of blocks per task: each row of blocks takes the max
            // of its cell rows, then of the cells within one block along x;
            // the slab is then dilated along y, and the whole along z.
            bound
                .par_chunks_mut(nb[0] * nb[1])
                .zip(self.data.par_chunks(BLOCK * d[0] * d[1]))
                .for_each(|(slab, cells)| {
                    let mut rows = vec![0.0f32; d[0]];
                    for (by, out) in slab.chunks_mut(nb[0]).enumerate() {
                        rows.fill(0.0);
                        for plane in cells.chunks(d[0] * d[1]) {
                            for row in plane[BLOCK * by * d[0]..].chunks(d[0]).take(BLOCK) {
                                for (m, &v) in rows.iter_mut().zip(row) {
                                    // A NaN cell makes its block unskippable.
                                    *m = m.max(if v.is_nan() { f32::INFINITY } else { v.abs() });
                                }
                            }
                        }
                        for (bx, o) in out.iter_mut().enumerate() {
                            let apron = BLOCK * bx.saturating_sub(1)..(BLOCK * (bx + 2)).min(d[0]);
                            *o = rows[apron].iter().fold(0.0, |m, &v| m.max(v));
                        }
                    }
                    dilate(slab, nb[0], nb[1]);
                });
            dilate(&mut bound, nb[0] * nb[1], nb[2]);
            bound
        })
    }
}

/// Max-dilates `buf` by one entry along the axis whose `n` entries lie
/// `s` apart.
fn dilate(buf: &mut [f32], s: usize, n: usize) {
    let src = buf.to_vec();
    for (out, src) in buf.chunks_mut(s * n).zip(src.chunks(s * n)) {
        for (c, out) in out.chunks_mut(s).enumerate() {
            let lo = &src[c.saturating_sub(1) * s..][..s];
            let hi = &src[(c + 1).min(n - 1) * s..][..s];
            let here = &src[c * s..][..s];
            for (((o, &a), &b), &h) in out.iter_mut().zip(lo).zip(hi).zip(here) {
                *o = a.max(b).max(h);
            }
        }
    }
}

/// Renders a grid through a transfer function into the framebuffer with
/// front-to-back compositing, parallelized over bands of the rows the
/// volume covers. Returns the steps marched (the fill cost) and, of
/// those, the samples evaluated.
pub fn render_volume<T: VolumeTransfer>(
    fb: &mut Framebuffer,
    camera: &Camera,
    grid: &GridView<'_>,
    transfer: &T,
    style: &VolumeStyle,
) -> VolumeCost {
    assert!(style.steps > 0);
    let mut span = accelviz_trace::span("render.volume_pass");
    let (w, h) = (fb.width(), fb.height());
    let bounds = grid.bounds;
    let view_proj_inv = match camera.view_projection().inverse() {
        Some(m) => m,
        None => return VolumeCost::default(),
    };
    let eye = camera.eye;
    let (xs, ys) = covered_rect(camera, &bounds, w, h);

    // Beer–Lambert step correction: the transfer function's alpha is the
    // opacity accumulated over one reference length (the volume's longest
    // edge), so a step of world length ℓ contributes 1 − (1 − a)^(ℓ/L).
    // This makes the image independent of the step count and longer
    // chords correctly more opaque.
    let ref_len = bounds.longest_edge().max(1e-300);
    // The skip: a sample in a block whose bound, normalized, is below the
    // transparent level would have had opacity 0.
    let level = transfer.transparent_below();
    let scale = if grid.max <= 0.0 {
        0.0 // every sample is 0
    } else {
        (1.0 + ROUNDING_SLACK) / grid.max as f64
    };
    let bound = grid.block_bound();
    let nb = grid.dims.map(|n| n.div_ceil(BLOCK));
    let size = bounds.size();
    let per_world = Vec3::from_array([0, 1, 2].map(|i| {
        // Degenerate axes map to coordinate 0, as `normalized_coords` does.
        if size[i].abs() < 1e-300 {
            0.0
        } else {
            grid.dims[i] as f64 / size[i]
        }
    }));
    let last = grid.dims.map(|n| n as i32 - 1);
    let block_of = |c: Vec3| {
        // Truncation is the floor wherever the clamp keeps the result.
        let b = |i: usize| (c[i] as i32).clamp(0, last[i]) as usize / BLOCK;
        b(0) + nb[0] * (b(1) + nb[1] * b(2))
    };

    let march = |x: usize, y: usize, pixel: &mut Rgba| -> VolumeCost {
        // Unproject the pixel center on the far plane to get the ray
        // direction.
        let ndc = Vec3::new(
            (x as f64 + 0.5) / w as f64 * 2.0 - 1.0,
            1.0 - (y as f64 + 0.5) / h as f64 * 2.0,
            1.0,
        );
        let mut cost = VolumeCost::default();
        let Some(far_pt) = view_proj_inv.project_point(ndc) else {
            return cost;
        };
        let ray = Ray::new(eye, far_pt - eye);
        let Some((t0, t1)) = bounds.intersect_ray(&ray) else {
            return cost;
        };
        if t1 <= t0 {
            return cost;
        }
        let dt = (t1 - t0) / style.steps as f64;
        let exponent = (dt * ray.dir.length() / ref_len) as f32;
        // The cell coordinate of each sample, stepped along: within a hair
        // of where the exact sample lands, and the bound's apron absorbs a
        // whole cell.
        let mut at = (ray.at(t0 + 0.5 * dt) - bounds.min).mul_elem(per_world);
        let stride = (ray.dir * dt).mul_elem(per_world);
        let locatable = at.is_finite() && stride.is_finite();
        let mut acc = Rgba::TRANSPARENT; // premultiplied accumulator
        for s in 0..style.steps {
            cost.samples += 1;
            let here = at;
            at += stride;
            if locatable && (bound[block_of(here)] as f64) * scale < level {
                continue;
            }
            let t = t0 + (s as f64 + 0.5) * dt;
            let v = sample_grid(grid.data, grid.dims, &bounds, grid.max, ray.at(t));
            cost.evaluated += 1;
            let c = transfer.sample(v);
            if c.a <= 0.0 {
                continue;
            }
            let corrected = 1.0 - (1.0 - c.a.clamp(0.0, 1.0)).powf(exponent);
            acc = Rgba::front_to_back(acc, c.with_alpha(corrected));
            if acc.a >= style.early_termination {
                break;
            }
        }
        if acc.a > 0.0 {
            *pixel = acc.unpremultiply().over(*pixel);
        }
        cost
    };

    let cost = fb.pixels_mut()[ys.start * w..ys.end * w]
        .par_chunks_mut(w)
        .enumerate()
        .map(|(i, row)| {
            let y = ys.start + i;
            xs.clone().fold(VolumeCost::default(), |acc, x| {
                acc + march(x, y, &mut row[x])
            })
        })
        .reduce(VolumeCost::default, Add::add);
    if span.is_active() {
        span.arg("samples", cost.samples as f64);
        span.arg("evaluated", cost.evaluated as f64);
        span.arg("pixels", (xs.len() * ys.len()) as f64);
        span.arg("steps", style.steps as f64);
    }
    cost
}

/// The pixel columns and rows whose rays can reach `bounds`: the box of
/// its eight projected corners, a pixel wider all round. The whole screen
/// when a corner is behind the eye or outside the depth range.
fn covered_rect(
    camera: &Camera,
    bounds: &Aabb,
    w: usize,
    h: usize,
) -> (Range<usize>, Range<usize>) {
    let projector = camera.projector(w, h);
    let (mut lo, mut hi) = ([f64::INFINITY; 2], [f64::NEG_INFINITY; 2]);
    for corner in bounds.corners() {
        match projector.to_pixel(corner) {
            Some((x, y, z)) if (-1.0..=1.0).contains(&z) && x.is_finite() && y.is_finite() => {
                lo = [lo[0].min(x), lo[1].min(y)];
                hi = [hi[0].max(x), hi[1].max(y)];
            }
            _ => return (0..w, 0..h),
        }
    }
    let span = |lo: f64, hi: f64, n: usize| {
        let n = n as f64;
        (lo.floor() - 1.0).clamp(0.0, n) as usize..(hi.ceil() + 1.0).clamp(0.0, n) as usize
    };
    (span(lo[0], hi[0], w), span(lo[1], hi[1], h))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cam() -> Camera {
        Camera::look_at(Vec3::new(0.0, 0.0, 5.0), Vec3::ZERO, 1.0)
    }

    /// A transfer function from a closure that is transparent at and
    /// below density 0.
    struct Tf<F>(F);

    impl<F: Fn(f64) -> Rgba + Sync> VolumeTransfer for Tf<F> {
        fn transparent_below(&self) -> f64 {
            0.0
        }
        fn sample(&self, d: f64) -> Rgba {
            (self.0)(d)
        }
    }

    /// A solid box of uniform normalized density 1 over [-1, 1]³.
    struct Solid {
        data: Vec<f32>,
        bound: OnceLock<Vec<f32>>,
    }

    impl Solid {
        fn view(&self) -> GridView<'_> {
            let bounds = Aabb::new(Vec3::splat(-1.0), Vec3::splat(1.0));
            GridView::new(&self.data, [4, 4, 4], bounds, 1.0, &self.bound)
        }
    }

    fn solid() -> Solid {
        Solid {
            data: vec![1.0; 64],
            bound: OnceLock::new(),
        }
    }

    #[test]
    fn volume_fills_center_not_corners() {
        let mut fb = Framebuffer::new(64, 64);
        let tf = Tf(|v: f64| Rgba::new(1.0, 1.0, 1.0, v as f32));
        let n = render_volume(
            &mut fb,
            &cam(),
            &solid().view(),
            &tf,
            &VolumeStyle::default(),
        );
        assert!(n.evaluated > 0);
        assert!(fb.get(32, 32).a > 0.5, "center must be filled");
        assert_eq!(fb.get(1, 1).a, 0.0, "corner ray misses the box");
    }

    #[test]
    fn transparent_transfer_function_renders_nothing() {
        let mut fb = Framebuffer::new(32, 32);
        let tf = Tf(|_v: f64| Rgba::TRANSPARENT);
        render_volume(
            &mut fb,
            &cam(),
            &solid().view(),
            &tf,
            &VolumeStyle::default(),
        );
        assert!(fb.pixels().iter().all(|c| c.a == 0.0));
    }

    #[test]
    fn sample_count_scales_with_resolution_and_steps() {
        // The fill-rate proxy: more pixels and more steps cost more
        // samples — this asymmetry is the heart of the Figure 1 claim.
        let tf = Tf(|v: f64| Rgba::new(1.0, 1.0, 1.0, (v * 0.05) as f32));
        let mut small = Framebuffer::new(32, 32);
        let mut large = Framebuffer::new(64, 64);
        let n_small = render_volume(
            &mut small,
            &cam(),
            &solid().view(),
            &tf,
            &VolumeStyle {
                steps: 32,
                early_termination: 1.1,
            },
        );
        let n_large = render_volume(
            &mut large,
            &cam(),
            &solid().view(),
            &tf,
            &VolumeStyle {
                steps: 128,
                early_termination: 1.1,
            },
        );
        assert!(
            n_large.samples > n_small.samples * 10,
            "{n_large:?} vs {n_small:?}"
        );
    }

    #[test]
    fn early_termination_cuts_samples() {
        let tf = Tf(|v: f64| Rgba::new(1.0, 1.0, 1.0, v as f32)); // opaque immediately
        let mut a = Framebuffer::new(32, 32);
        let mut b = Framebuffer::new(32, 32);
        let with = render_volume(
            &mut a,
            &cam(),
            &solid().view(),
            &tf,
            &VolumeStyle {
                steps: 256,
                early_termination: 0.95,
            },
        );
        let without = render_volume(
            &mut b,
            &cam(),
            &solid().view(),
            &tf,
            &VolumeStyle {
                steps: 256,
                early_termination: 1.1,
            },
        );
        assert!(
            with.samples < without.samples / 2,
            "{with:?} vs {without:?}"
        );
    }

    #[test]
    fn deeper_volume_region_is_more_opaque() {
        // A ray through the box center is longer than one near the edge,
        // so the accumulated opacity is higher with a translucent TF.
        let mut fb = Framebuffer::new(128, 128);
        let tf = Tf(|v: f64| Rgba::new(1.0, 1.0, 1.0, (v * 0.3) as f32));
        render_volume(
            &mut fb,
            &cam(),
            &solid().view(),
            &tf,
            &VolumeStyle {
                steps: 64,
                early_termination: 1.1,
            },
        );
        let center = fb.get(64, 64).a;
        // Pixel at the very edge of the projected box face.
        let edge = fb.get(64, 42).a;
        assert!(center >= edge, "center {center} vs edge {edge}");
        // Center chord spans one full reference length → alpha ≈ the TF's.
        assert!((center - 0.3).abs() < 0.05, "center alpha {center}");
    }

    #[test]
    fn accumulated_opacity_matches_beer_lambert() {
        // Analytic check: compositing N samples of constant per-step
        // alpha α (after the step-length correction) approximates the
        // continuous absorption 1 − (1 − a)^1 for a per-unit-ray alpha a.
        // With the opacity correction in render_volume, the result must
        // be independent of the step count.
        let a = 0.6f32;
        let tf = Tf(move |v: f64| Rgba::new(1.0, 1.0, 1.0, if v > 0.5 { a } else { 0.0 }));
        let mut alphas = Vec::new();
        for steps in [16usize, 64, 256] {
            let mut fb = Framebuffer::new(33, 33);
            render_volume(
                &mut fb,
                &cam(),
                &solid().view(),
                &tf,
                &VolumeStyle {
                    steps,
                    early_termination: 1.1,
                },
            );
            alphas.push(fb.get(16, 16).a);
        }
        for w in alphas.windows(2) {
            assert!(
                (w[0] - w[1]).abs() < 0.02,
                "opacity must be step-count invariant: {alphas:?}"
            );
        }
        // And equal to the per-ray alpha itself (the ray crosses exactly
        // one unit of normalized depth).
        assert!(
            (alphas[2] - a).abs() < 0.05,
            "expected ≈{a}, got {}",
            alphas[2]
        );
    }

    #[test]
    fn rendering_is_deterministic() {
        let tf = Tf(|v: f64| Rgba::new(0.3, 0.7, 1.0, (v * 0.5) as f32));
        let mut a = Framebuffer::new(48, 48);
        let mut b = Framebuffer::new(48, 48);
        render_volume(
            &mut a,
            &cam(),
            &solid().view(),
            &tf,
            &VolumeStyle::default(),
        );
        render_volume(
            &mut b,
            &cam(),
            &solid().view(),
            &tf,
            &VolumeStyle::default(),
        );
        assert_eq!(a.mse(&b), 0.0);
    }

    #[test]
    fn the_bound_is_built_once_and_covers_a_block_of_apron() {
        // One hot cell at (0, 0, 0) of an 8³ grid: blocks 0 and 1 along
        // each axis see it, block 2 onwards do not.
        let mut data = vec![0.0f32; 512];
        data[0] = 3.0;
        let slot = OnceLock::new();
        let bounds = Aabb::new(Vec3::ZERO, Vec3::ONE);
        let view = GridView::new(&data, [8, 8, 8], bounds, 3.0, &slot);
        let bound = view.block_bound();
        assert_eq!(bound.len(), 64);
        assert_eq!(bound[0], 3.0);
        assert_eq!(bound[1 + 4 * (1 + 4)], 3.0);
        assert_eq!(bound[2], 0.0);
        assert!(std::ptr::eq(bound, view.block_bound()), "built once");
        assert!(std::ptr::eq(bound, slot.get().unwrap().as_slice()));
    }
}
