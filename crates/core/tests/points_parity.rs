//! Bit-identity oracle for the point pass: the hybrid pass and attribute
//! recolouring, each splatting through the one point splatter, must draw
//! exactly the colour and depth bits and count exactly the points of the
//! loops they replaced, each of which projected, culled and splatted a
//! point by hand.

use accelviz_beam::particle::Particle;
use accelviz_core::hybrid::HybridFrame;
use accelviz_core::scene::{render_hybrid_frame, render_points_by_attribute, PointAttribute};
use accelviz_core::scene::{RenderMode, SceneStats};
use accelviz_core::transfer::TransferFunctionPair;
use accelviz_math::{Aabb, Rgba, Vec3};
use accelviz_octree::density::DensityGrid;
use accelviz_octree::plots::PlotType;
use accelviz_render::camera::Camera;
use accelviz_render::framebuffer::Framebuffer;
use accelviz_render::points::PointStyle;
use accelviz_render::volume::VolumeStyle;
use proptest::prelude::*;
use std::f64::consts::PI;

/// The reference: verbatim copies of the point loops of
/// `core::scene::render_hybrid_frame` and `render_points_by_attribute`
/// before they called `render::points::splat`.
mod reference {
    use accelviz_core::hybrid::HybridFrame;
    use accelviz_core::scene::PointAttribute;
    use accelviz_core::transfer::TransferFunctionPair;
    use accelviz_math::Rgba;
    use accelviz_render::camera::Camera;
    use accelviz_render::framebuffer::Framebuffer;
    use accelviz_render::points::{keep_point, PointStyle};

    /// The point pass of `render_hybrid_frame`; returns the points drawn.
    pub fn hybrid_points(
        fb: &mut Framebuffer,
        camera: &Camera,
        frame: &HybridFrame,
        tfs: &TransferFunctionPair,
        point_style: &PointStyle,
    ) -> usize {
        let mut points_drawn = 0;
        let positions = frame.point_positions();
        let (w, h) = (fb.width(), fb.height());
        let projector = camera.projector(w, h);
        for (i, &p) in positions.iter().enumerate() {
            let fraction = tfs.point.fraction(frame.point_densities[i]);
            // Also honor any global subsample in the style.
            let keep = fraction * point_style.fraction;
            if keep < 1.0 && !keep_point(i as u64, keep) {
                continue;
            }
            let Some((px, py, z)) = projector.to_pixel(p) else {
                continue;
            };
            if !(-1.0..=1.0).contains(&z) {
                continue;
            }
            let radius = point_style.size_px.max(0.5);
            let x0 = (px - radius).floor().max(0.0) as isize;
            let y0 = (py - radius).floor().max(0.0) as isize;
            let x1 = ((px + radius).ceil() as isize).min(w as isize - 1);
            let y1 = ((py + radius).ceil() as isize).min(h as isize - 1);
            for y in y0.max(0)..=y1.max(-1) {
                for x in x0.max(0)..=x1.max(-1) {
                    let dx = x as f64 + 0.5 - px;
                    let dy = y as f64 + 0.5 - py;
                    let d2 = (dx * dx + dy * dy) / (radius * radius);
                    if d2 > 1.0 {
                        continue;
                    }
                    let falloff = (1.0 - d2).sqrt() as f32;
                    let c = point_style.color.with_alpha(point_style.color.a * falloff);
                    fb.blend_fragment(x as usize, y as usize, z as f32, c, point_style.write_depth);
                }
            }
            points_drawn += 1;
        }
        points_drawn
    }

    /// `render_points_by_attribute`.
    pub fn render_points_by_attribute(
        fb: &mut Framebuffer,
        camera: &Camera,
        frame: &HybridFrame,
        attribute: PointAttribute,
        palette: &dyn Fn(f64) -> Rgba,
        size_px: f64,
    ) -> usize {
        let positions = frame.point_positions();
        // Normalize the attribute over the frame.
        let values: Vec<f64> = frame
            .points
            .iter()
            .zip(&frame.point_densities)
            .map(|(p, &d)| attribute.eval(p, d))
            .collect();
        let (lo, hi) = values
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            });
        let span = (hi - lo).max(1e-300);
        let (w, h) = (fb.width(), fb.height());
        let projector = camera.projector(w, h);
        let mut drawn = 0;
        for (i, &pos) in positions.iter().enumerate() {
            let Some((px, py, z)) = projector.to_pixel(pos) else {
                continue;
            };
            if !(-1.0..=1.0).contains(&z) {
                continue;
            }
            let color = palette((values[i] - lo) / span);
            let r = size_px.max(0.5);
            let x0 = (px - r).floor().max(0.0) as isize;
            let y0 = (py - r).floor().max(0.0) as isize;
            let x1 = ((px + r).ceil() as isize).min(w as isize - 1);
            let y1 = ((py + r).ceil() as isize).min(h as isize - 1);
            for y in y0.max(0)..=y1.max(-1) {
                for x in x0.max(0)..=x1.max(-1) {
                    let dx = x as f64 + 0.5 - px;
                    let dy = y as f64 + 0.5 - py;
                    let d2 = (dx * dx + dy * dy) / (r * r);
                    if d2 > 1.0 {
                        continue;
                    }
                    fb.blend_fragment(x as usize, y as usize, z as f32, color, false);
                }
            }
            drawn += 1;
        }
        drawn
    }
}

/// splitmix64: deterministic cases from a proptest seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Where a point lies seen from `camera`: in the unit cube the camera
/// looks at, far off to a side (off-screen), behind the eye, or on or a
/// hair either side of the near and the far plane (NDC z = −1 and +1).
fn point(rng: &mut Rng, camera: &Camera) -> Vec3 {
    let forward = camera.forward();
    let edge = |plane: f64, rng: &mut Rng| {
        let hair = [0.0, 1e-12, -1e-12, 1e-6, -1e-6][rng.below(5)];
        camera.eye + forward * (plane * (1.0 + hair))
    };
    match rng.below(10) {
        0 => Vec3::new(
            rng.range(-40.0, 40.0),
            rng.range(-40.0, 40.0),
            rng.range(-2.0, 2.0),
        ),
        1 => camera.eye - forward * rng.range(0.0, 3.0) + Vec3::new(rng.unit(), rng.unit(), 0.0),
        2 => edge(camera.near, rng),
        3 => edge(camera.far, rng),
        _ => Vec3::new(
            rng.range(-1.0, 1.0),
            rng.range(-1.0, 1.0),
            rng.range(-1.0, 1.0),
        ),
    }
}

/// A frame holding `n` particles at such points, with node densities in
/// [0, 1] (now and then exactly 0 or 1) and a 4³ grid of them.
fn frame(rng: &mut Rng, camera: &Camera, n: usize) -> HybridFrame {
    let points: Vec<Particle> = (0..n)
        .map(|_| {
            let p = point(rng, camera);
            let momentum = [
                rng.range(-1.0, 1.0),
                rng.range(-1.0, 1.0),
                rng.range(-1.0, 1.0),
            ];
            Particle::from_array([p.x, momentum[0], p.y, momentum[1], p.z, momentum[2]])
        })
        .collect();
    let point_densities = (0..n)
        .map(|_| match rng.below(8) {
            0 => 0.0,
            1 => 1.0,
            _ => rng.unit(),
        })
        .collect();
    let bounds = Aabb::new(Vec3::new(-1.0, -1.0, -1.0), Vec3::new(1.0, 1.0, 1.0));
    let grid = DensityGrid::from_particles(&points, PlotType::XYZ, bounds, [4, 4, 4]);
    HybridFrame {
        step: 0,
        plot: PlotType::XYZ,
        bounds,
        points,
        point_densities,
        grid,
        threshold: 0.5,
        discarded: 0,
    }
}

/// Outside the cube, inside it (points behind the eye), or square on to
/// it along −z, where the cube's centre projects to a pixel centre of an
/// odd framebuffer and discs meet pixel centres on their rims.
fn camera(kind: u8, aspect: f64, a: f64, c: f64) -> Camera {
    match kind {
        0 => Camera::orbit(
            Vec3::ZERO,
            2.5 + 4.0 * a,
            2.0 * PI * c,
            2.4 * a - 1.2,
            aspect,
        ),
        1 => {
            let eye = Vec3::new(a - 0.5, c - 0.5, 0.3 * (a - c));
            Camera::look_at(eye, Vec3::new(c, a, -0.5), aspect)
        }
        _ => Camera::look_at(Vec3::new(0.0, 0.0, 5.0), Vec3::ZERO, aspect),
    }
}

/// A framebuffer with a background, so blending reads something.
fn background(w: usize, h: usize) -> Framebuffer {
    let mut fb = Framebuffer::new(w, h);
    for y in 0..h {
        for x in 0..w {
            fb.set(
                x,
                y,
                Rgba::new(0.1, (x % 7) as f32 * 0.1, (y % 5) as f32 * 0.2, 0.5),
            );
        }
    }
    fb
}

/// Every pixel's colour and depth bits must be equal.
fn same_bits(got: &Framebuffer, want: &Framebuffer) -> Result<(), TestCaseError> {
    let w = got.width();
    for (i, (a, b)) in got.pixels().iter().zip(want.pixels()).enumerate() {
        let bits = |c: &Rgba| [c.r, c.g, c.b, c.a].map(f32::to_bits);
        let (x, y) = (i % w, i / w);
        prop_assert!(
            bits(a) == bits(b),
            "pixel ({}, {}): {:?}, the reference {:?}",
            x,
            y,
            a,
            b
        );
        let (da, db) = (got.get_depth(x, y), want.get_depth(x, y));
        prop_assert!(
            da.to_bits() == db.to_bits(),
            "depth ({}, {}): {}, the reference {}",
            x,
            y,
            da,
            db
        );
    }
    Ok(())
}

const FRAMEBUFFERS: [(usize, usize); 5] = [(1, 1), (37, 23), (16, 40), (48, 48), (65, 65)];

const ATTRIBUTES: [PointAttribute; 5] = [
    PointAttribute::NodeDensity,
    PointAttribute::TransverseMomentum,
    PointAttribute::LongitudinalMomentum,
    PointAttribute::TransverseRadius,
    PointAttribute::AngularMomentum,
];

fn palette(t: f64) -> Rgba {
    Rgba::new(t as f32, 0.3, (1.0 - t) as f32, 0.4 + 0.5 * t as f32)
}

/// The hybrid pass both ways into copies of one framebuffer: the new one
/// in `mode`, the reference as the volume pass alone followed by the
/// copied points loop. Checks every bit and count; returns the points
/// drawn.
fn check_hybrid(
    camera: &Camera,
    fb: (usize, usize),
    frame: &HybridFrame,
    tfs: &TransferFunctionPair,
    mode: RenderMode,
    style: &PointStyle,
) -> Result<usize, TestCaseError> {
    let volume = VolumeStyle {
        steps: 16,
        ..Default::default()
    };
    let mut got = background(fb.0, fb.1);
    let mut want = got.clone();
    let new = render_hybrid_frame(&mut got, camera, frame, tfs, mode, &volume, style);
    let mut old = SceneStats::default();
    if mode == RenderMode::Hybrid {
        let only = RenderMode::VolumeOnly;
        old = render_hybrid_frame(&mut want, camera, frame, tfs, only, &volume, style);
    }
    old.points_drawn = reference::hybrid_points(&mut want, camera, frame, tfs, style);
    prop_assert_eq!(new.points_drawn, old.points_drawn);
    prop_assert_eq!(new.volume_samples, old.volume_samples);
    same_bits(&got, &want)?;
    Ok(new.points_drawn)
}

/// Attribute recolouring both ways; checks every bit and the count.
fn check_attribute(
    camera: &Camera,
    fb: (usize, usize),
    frame: &HybridFrame,
    attribute: PointAttribute,
    size_px: f64,
) -> Result<usize, TestCaseError> {
    let mut got = background(fb.0, fb.1);
    let mut want = got.clone();
    let new = render_points_by_attribute(&mut got, camera, frame, attribute, &palette, size_px);
    let old = reference::render_points_by_attribute(
        &mut want, camera, frame, attribute, &palette, size_px,
    );
    prop_assert_eq!(new, old);
    same_bits(&got, &want)?;
    Ok(new)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn the_point_pass_is_bit_identical_to_its_hand_copied_loop(
        (seed, n, size_px, fb) in (0u64..1 << 40, 0usize..300, 0.2..3.0f64, 0usize..5),
        (cam_kind, a, c) in (0u8..3, 0.0..1.0f64, 0.0..1.0f64),
        (threshold, ramp, style_fraction, depth, hybrid) in
            (0.0..1.2f64, 0.0..0.5f64, 0u8..4, 0u8..2, 0u8..2),
    ) {
        let mut rng = Rng(seed);
        let fb = FRAMEBUFFERS[fb];
        let camera = camera(cam_kind, fb.0 as f64 / fb.1 as f64, a, c);
        let frame = frame(&mut rng, &camera, n);
        let tfs = TransferFunctionPair::linked_at(threshold, ramp);
        let style = PointStyle {
            color: Rgba::new(1.0, 0.9, 0.6, rng.range(0.2, 1.0) as f32),
            size_px,
            // Mostly whole, now and then a share below 1.
            fraction: if style_fraction == 0 { rng.range(0.0, 1.0) } else { 1.0 },
            write_depth: depth == 1,
        };
        let mode = if hybrid == 1 { RenderMode::Hybrid } else { RenderMode::PointsOnly };
        check_hybrid(&camera, fb, &frame, &tfs, mode, &style)?;
    }

    #[test]
    fn attribute_recolouring_is_bit_identical_to_its_hand_copied_loop(
        (seed, n, size_px, fb) in (0u64..1 << 40, 0usize..300, 0.2..3.0f64, 0usize..5),
        (cam_kind, a, c, attribute) in (0u8..3, 0.0..1.0f64, 0.0..1.0f64, 0usize..5),
    ) {
        let mut rng = Rng(seed);
        let fb = FRAMEBUFFERS[fb];
        let camera = camera(cam_kind, fb.0 as f64 / fb.1 as f64, a, c);
        let frame = frame(&mut rng, &camera, n);
        check_attribute(&camera, fb, &frame, ATTRIBUTES[attribute], size_px)?;
    }
}

/// Points at the centre of a pixel, splatted at whole radii: the pixel
/// centres exactly on each disc's rim are drawn (and, with depth writes
/// on, take the point's depth) as they were.
#[test]
fn discs_keep_the_pixel_centres_on_their_rims() {
    let camera = Camera::look_at(Vec3::new(0.0, 0.0, 5.0), Vec3::ZERO, 1.0);
    let projector = camera.projector(65, 65);
    let (px, py, _) = projector.to_pixel(Vec3::ZERO).unwrap();
    assert_eq!((px, py), (32.5, 32.5), "the centre of pixel (32, 32)");
    let mut rng = Rng(7);
    let mut frame = frame(&mut rng, &camera, 0);
    frame.points = vec![Particle::from_array([0.0, 0.5, 0.0, -0.5, 0.0, 1.0]); 3];
    frame.point_densities = vec![0.0, 0.5, 1.0];
    let tfs = TransferFunctionPair::linked_at(2.0, 0.1);
    for size_px in [1.0, 2.0, 3.0] {
        for (fb, write_depth) in [((65, 65), true), ((65, 65), false), ((1, 1), true)] {
            let style = PointStyle {
                size_px,
                write_depth,
                ..Default::default()
            };
            let run = || -> Result<(), TestCaseError> {
                for mode in [RenderMode::PointsOnly, RenderMode::Hybrid] {
                    assert_eq!(check_hybrid(&camera, fb, &frame, &tfs, mode, &style)?, 3);
                }
                let attribute = PointAttribute::NodeDensity;
                assert_eq!(check_attribute(&camera, fb, &frame, attribute, size_px)?, 3);
                Ok(())
            };
            if let Err(e) = run() {
                panic!("size {size_px}, framebuffer {fb:?}, depth {write_depth}: {e:?}");
            }
        }
    }
}
