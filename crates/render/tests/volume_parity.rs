//! Bit-identity oracle for the volume pass: the covered-rectangle bands
//! and the empty-space skip must produce exactly the pixels of marching
//! every step of every ray, while evaluating no more samples.

use accelviz_math::{smoothstep, trilinear, Aabb, Ray, Rgba, Vec3};
use accelviz_render::camera::Camera;
use accelviz_render::framebuffer::Framebuffer;
use accelviz_render::volume::{render_volume, GridView, VolumeCost, VolumeStyle, VolumeTransfer};
use proptest::prelude::*;
use std::f64::consts::PI;
use std::sync::OnceLock;

/// The field of the reference: a verbatim copy of the sampler the pass
/// used before it took a grid view (`DensityGrid::sample_normalized`).
struct RefGrid<'a> {
    dims: [usize; 3],
    bounds: Aabb,
    data: &'a [f32],
    max_value: f32,
}

impl RefGrid<'_> {
    fn at(&self, x: usize, y: usize, z: usize) -> f32 {
        let x = x.min(self.dims[0] - 1);
        let y = y.min(self.dims[1] - 1);
        let z = z.min(self.dims[2] - 1);
        self.data[x + self.dims[0] * (y + self.dims[1] * z)]
    }

    fn sample_normalized(&self, p: Vec3) -> f64 {
        if self.max_value <= 0.0 {
            return 0.0;
        }
        let t = self.bounds.normalized_coords(p);
        if !(0.0..=1.0).contains(&t.x) || !(0.0..=1.0).contains(&t.y) || !(0.0..=1.0).contains(&t.z)
        {
            return 0.0;
        }
        // Cell-centered sampling.
        let fx = (t.x * self.dims[0] as f64 - 0.5).clamp(0.0, (self.dims[0] - 1) as f64);
        let fy = (t.y * self.dims[1] as f64 - 0.5).clamp(0.0, (self.dims[1] - 1) as f64);
        let fz = (t.z * self.dims[2] as f64 - 0.5).clamp(0.0, (self.dims[2] - 1) as f64);
        let (x0, y0, z0) = (
            fx.floor() as usize,
            fy.floor() as usize,
            fz.floor() as usize,
        );
        let (x1, y1, z1) = (
            (x0 + 1).min(self.dims[0] - 1),
            (y0 + 1).min(self.dims[1] - 1),
            (z0 + 1).min(self.dims[2] - 1),
        );
        let c = [
            self.at(x0, y0, z0) as f64,
            self.at(x1, y0, z0) as f64,
            self.at(x0, y1, z0) as f64,
            self.at(x1, y1, z0) as f64,
            self.at(x0, y0, z1) as f64,
            self.at(x1, y0, z1) as f64,
            self.at(x0, y1, z1) as f64,
            self.at(x1, y1, z1) as f64,
        ];
        trilinear(&c, fx - x0 as f64, fy - y0 as f64, fz - z0 as f64) / self.max_value as f64
    }
}

/// The reference: a verbatim copy of the per-sample march before the
/// skip and the covered rectangle, run serially over every pixel.
fn render_reference(
    fb: &mut Framebuffer,
    camera: &Camera,
    field: &RefGrid<'_>,
    transfer: &dyn Fn(f64) -> Rgba,
    style: &VolumeStyle,
) -> u64 {
    assert!(style.steps > 0);
    let (w, h) = (fb.width(), fb.height());
    let bounds = field.bounds;
    let view_proj_inv = match camera.view_projection().inverse() {
        Some(m) => m,
        None => return 0,
    };
    let eye = camera.eye;
    let mut samples_total = 0u64;
    for y in 0..h {
        for x in 0..w {
            let ndc = Vec3::new(
                (x as f64 + 0.5) / w as f64 * 2.0 - 1.0,
                1.0 - (y as f64 + 0.5) / h as f64 * 2.0,
                1.0,
            );
            let Some(far_pt) = view_proj_inv.project_point(ndc) else {
                continue;
            };
            let ray = Ray::new(eye, far_pt - eye);
            let Some((t0, t1)) = bounds.intersect_ray(&ray) else {
                continue;
            };
            if t1 <= t0 {
                continue;
            }
            let dt = (t1 - t0) / style.steps as f64;
            let ref_len = bounds.longest_edge().max(1e-300);
            let step_world = dt * ray.dir.length();
            let exponent = (step_world / ref_len) as f32;
            let mut acc = Rgba::TRANSPARENT; // premultiplied accumulator
            for s in 0..style.steps {
                let t = t0 + (s as f64 + 0.5) * dt;
                let v = field.sample_normalized(ray.at(t));
                samples_total += 1;
                let c = transfer(v);
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
                fb.set(x, y, acc.unpremultiply().over(fb.get(x, y)));
            }
        }
    }
    samples_total
}

/// The paper's step transfer function with a smooth ramp (the shape of
/// `accelviz_core::transfer::VolumeTransferFunction`).
#[derive(Clone, Copy, Debug)]
struct StepTf {
    threshold: f64,
    ramp_width: f64,
    max_opacity: f32,
}

impl VolumeTransfer for StepTf {
    fn transparent_below(&self) -> f64 {
        self.threshold - self.ramp_width
    }
    fn sample(&self, d: f64) -> Rgba {
        let w = smoothstep(self.threshold - self.ramp_width, self.threshold, d);
        if w <= 0.0 {
            return Rgba::TRANSPARENT;
        }
        let t = ((d - self.threshold) / (1.0 - self.threshold).max(1e-9)).clamp(0.0, 1.0) as f32;
        Rgba::rgb(0.15, 0.3, 0.9)
            .lerp(Rgba::rgb(1.0, 0.95, 0.5), t)
            .with_alpha(self.max_opacity * w as f32)
    }
}

#[derive(Debug)]
struct Case {
    dims: [usize; 3],
    bounds: Aabb,
    data: Vec<f32>,
    camera: Camera,
    fb: (usize, usize),
    tf: StepTf,
    style: VolumeStyle,
}

/// Renders `case` both ways from a framebuffer with a background and
/// checks every bit and the sample counts; returns the new pass's cost.
fn check(case: &Case) -> Result<VolumeCost, TestCaseError> {
    let max_value = case.data.iter().copied().fold(0.0f32, f32::max);
    let background =
        |x: usize, y: usize| Rgba::new(0.1, (x % 7) as f32 * 0.1, (y % 5) as f32 * 0.2, 0.5);
    let (w, h) = case.fb;
    let mut fresh = Framebuffer::new(w, h);
    for y in 0..h {
        for x in 0..w {
            fresh.set(x, y, background(x, y));
        }
    }
    let mut expect = fresh.clone();
    let reference = RefGrid {
        dims: case.dims,
        bounds: case.bounds,
        data: &case.data,
        max_value,
    };
    let n_ref = render_reference(
        &mut expect,
        &case.camera,
        &reference,
        &|d| case.tf.sample(d),
        &case.style,
    );
    let slot = OnceLock::new();
    let grid = GridView::new(&case.data, case.dims, case.bounds, max_value, &slot);
    // Twice through the same slot: a bound built by an earlier render is
    // as good as a fresh one.
    let mut cost = VolumeCost::default();
    for _ in 0..2 {
        let mut got = fresh.clone();
        cost = render_volume(&mut got, &case.camera, &grid, &case.tf, &case.style);
        for (i, (a, b)) in got.pixels().iter().zip(expect.pixels()).enumerate() {
            let bits = |c: &Rgba| [c.r, c.g, c.b, c.a].map(f32::to_bits);
            prop_assert!(
                bits(a) == bits(b),
                "pixel ({}, {}): {:?}, the reference {:?}",
                i % w,
                i / w,
                a,
                b
            );
        }
        // The fill cost is the reference's sample count; what is evaluated
        // of it can only be less.
        prop_assert_eq!(cost.samples, n_ref);
        prop_assert!(cost.evaluated <= n_ref, "{:?} vs {}", cost, n_ref);
    }
    Ok(cost)
}

fn cell(dims: [usize; 3], x: usize, y: usize, z: usize) -> usize {
    x + dims[0] * (y + dims[1] * z)
}

/// A beam-like count grid: a dense gaussian core and a sparse halo of
/// single counts, seeded.
fn halo(dims: [usize; 3], seed: u64) -> Vec<f32> {
    let mut data = vec![0.0f32; dims.iter().product()];
    let mut rng = seed;
    for z in 0..dims[2] {
        for y in 0..dims[1] {
            for x in 0..dims[0] {
                let q = |i: usize, n: usize| (i as f64 + 0.5) / n as f64 - 0.5;
                let r2 = q(x, dims[0]).powi(2) + q(y, dims[1]).powi(2) + q(z, dims[2]).powi(2);
                rng = rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let sparse =
                    (rng >> 60 == 0 && r2 > 0.05) as u32 as f64 * ((rng >> 40) % 3 + 1) as f64;
                data[cell(dims, x, y, z)] = ((300.0 * (-r2 / 0.01).exp()).floor() + sparse) as f32;
            }
        }
    }
    data
}

/// Sum-pools by `f` (the progressive stream's coarse grid).
fn coarse(dims: [usize; 3], data: &[f32], f: usize) -> ([usize; 3], Vec<f32>) {
    let nd = dims.map(|n| n.div_ceil(f));
    let mut out = vec![0.0f32; nd.iter().product()];
    for z in 0..dims[2] {
        for y in 0..dims[1] {
            for x in 0..dims[0] {
                out[cell(nd, x / f, y / f, z / f)] += data[cell(dims, x, y, z)];
            }
        }
    }
    (nd, out)
}

fn grid(kind: u8, dims: [usize; 3], seed: u64, u: f64) -> ([usize; 3], Vec<f32>) {
    let n = dims.iter().product();
    match kind {
        0..=3 => (dims, halo(dims, seed)),
        4 => (dims, vec![0.0; n]),
        5 => (dims, vec![(1.0 + 40.0 * u) as f32; n]),
        6 => {
            // One hot cell on a face, an edge or a corner.
            let pick = |axis: usize, k: u64| match k % 3 {
                0 => 0,
                1 => dims[axis] - 1,
                _ => dims[axis] / 2,
            };
            let (x, y, z) = (pick(0, seed), pick(1, 0), pick(2, seed >> 3));
            let mut data = vec![0.0; n];
            data[cell(dims, x, y, z)] = (1.0 + 99.0 * u) as f32;
            (dims, data)
        }
        _ => coarse([17, 16, 8], &halo([17, 16, 8], seed), 4),
    }
}

fn camera(kind: u8, b: &Aabb, aspect: f64, a: f64, c: f64) -> Camera {
    let (center, edge) = (b.center(), b.longest_edge());
    match kind {
        0 | 1 => Camera::orbit(
            center,
            edge * (1.2 + 3.0 * a),
            2.0 * PI * c,
            2.8 * a - 1.4,
            aspect,
        ),
        2 => {
            let eye = b.min
                + b.size()
                    .mul_elem(Vec3::new(0.1 + 0.8 * a, 0.1 + 0.8 * c, 0.3));
            let off = Vec3::new((2.0 * PI * c).cos(), a - 0.5, (2.0 * PI * c).sin()) * 0.2;
            Camera::look_at(eye, center + off, aspect)
        }
        _ => {
            // The eye in the plane of the top face, outside the box: the
            // middle rows graze that face.
            let eye = Vec3::new(
                center.x + (a - 0.5) * edge,
                b.max.y,
                b.max.z + edge * (0.5 + c),
            );
            Camera::look_at(eye, Vec3::new(center.x, b.max.y, center.z), aspect)
        }
    }
}

const FRAMEBUFFERS: [(usize, usize); 6] =
    [(1, 1), (37, 23), (16, 40), (48, 48), (48, 48), (48, 48)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn skip_and_rectangle_are_bit_identical_to_marching_everything(
        (kind, d, seed, u) in (0u8..8, (2usize..33, 2usize..33, 2usize..33), 0u64..1 << 40, 0.0..1.0f64),
        (origin, size) in ((-2.0..2.0f64, -2.0..2.0f64, -2.0..2.0f64), (0.5..3.0f64, 0.5..3.0f64, 0.5..3.0f64)),
        (cam_kind, a, c, fb) in (0u8..4, 0.0..1.0f64, 0.0..1.0f64, 0usize..6),
        (threshold_kind, t, ramp, opacity) in (0u8..10, 0.0..1.0f64, 0.0..0.2f64, 0.05..1.0f32),
        (steps, hard_ramp, early) in (1usize..=192, 0u8..2, 0u8..2),
    ) {
        let (dims, data) = grid(kind, [d.0, d.1, d.2], seed, u);
        let min = Vec3::new(origin.0, origin.1, origin.2);
        let bounds = Aabb::new(min, min + Vec3::new(size.0, size.1, size.2));
        let fb = FRAMEBUFFERS[fb];
        let threshold = match threshold_kind {
            0 => 0.0,
            1 => 1.0,
            2 => 1.5,
            _ => 10f64.powf(-3.0 + 3.0 * t), // where halo and core live
        };
        let case = Case {
            dims,
            bounds,
            data,
            camera: camera(cam_kind, &bounds, fb.0 as f64 / fb.1 as f64, a, c),
            fb,
            tf: StepTf {
                threshold,
                ramp_width: if hard_ramp == 1 { 0.0 } else { ramp },
                max_opacity: opacity,
            },
            style: VolumeStyle {
                steps,
                early_termination: [0.5, 1.1][early as usize],
            },
        };
        check(&case)?;
    }
}

fn halo_case(camera: Camera, fb: (usize, usize), steps: usize) -> Case {
    let dims = [24, 24, 24];
    let bounds = Aabb::new(Vec3::new(-1.0, -0.5, -2.0), Vec3::new(1.0, 0.5, 2.0));
    Case {
        dims,
        bounds,
        data: halo(dims, 7),
        camera,
        fb,
        tf: StepTf {
            threshold: 0.05,
            ramp_width: 0.02,
            max_opacity: 0.08,
        },
        style: VolumeStyle {
            steps,
            early_termination: 0.98,
        },
    }
}

#[test]
fn a_512_square_frame_is_bit_identical_and_skips() {
    let b = Aabb::new(Vec3::new(-1.0, -0.5, -2.0), Vec3::new(1.0, 0.5, 2.0));
    let cam = Camera::orbit(b.center(), b.longest_edge() * 2.2, 0.5, 0.35, 1.0);
    let cost = check(&halo_case(cam, (512, 512), 48)).unwrap();
    assert!(cost.evaluated > 0, "the core is visible");
    assert!(
        2 * cost.evaluated < cost.samples,
        "most samples are skipped: {cost:?}"
    );
}

#[test]
fn a_sample_on_a_block_boundary_next_to_a_live_cell_is_evaluated() {
    // Unit cells over [0, 8]³, one hot cell at (2, 4, 4). The 1×1 frame's
    // ray runs along +x through the middle of cell row (·, 4, 4); with two
    // steps its first sample lands on x = 2, the boundary between blocks
    // 0 and 1 — half on the hot cell, so exactly at a hard step of 0.5.
    let dims = [8, 8, 8];
    let mut data = vec![0.0; 512];
    data[cell(dims, 2, 4, 4)] = 10.0;
    let eye = Vec3::new(-4.0, 4.5, 4.5);
    let case = Case {
        dims,
        bounds: Aabb::new(Vec3::ZERO, Vec3::splat(8.0)),
        data,
        camera: Camera::look_at(eye, Vec3::new(8.0, 4.5, 4.5), 1.0),
        fb: (1, 1),
        tf: StepTf {
            threshold: 0.5,
            ramp_width: 0.0,
            max_opacity: 0.5,
        },
        style: VolumeStyle {
            steps: 2,
            early_termination: 1.1,
        },
    };
    let cost = check(&case).unwrap();
    assert_eq!(cost.samples, 2);
    assert!(
        cost.evaluated >= 1,
        "the boundary sample must not be skipped"
    );
}
