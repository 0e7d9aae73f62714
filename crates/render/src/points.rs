//! Point splatting — the point-rendering half of the hybrid method (§2.4).
//!
//! The point transfer function "maps density to number of points rendered
//! ... When the transfer function's value is at 0.75 for some density, it
//! means that three out of every four points are drawn for areas of that
//! density." The fraction is honored here by a deterministic per-index
//! hash, so exactly the same subset is drawn every frame (no shimmer).

use crate::camera::Camera;
use crate::framebuffer::Framebuffer;
use accelviz_math::{Rgba, Vec3};

/// Point rendering style.
#[derive(Clone, Copy, Debug)]
pub struct PointStyle {
    /// Base color of the points.
    pub color: Rgba,
    /// Splat radius in pixels at the reference distance (scaled by
    /// perspective when `perspective_size` is set).
    pub size_px: f64,
    /// When set, the splat size follows perspective: this is the
    /// world-space point radius instead of a fixed pixel size.
    pub perspective_size: Option<f64>,
    /// Fraction of points drawn, in [0, 1].
    pub fraction: f64,
    /// Write the depth buffer (points in the paper's viewer are drawn
    /// opaque in Figure 4; translucent points skip depth writes).
    pub write_depth: bool,
}

impl Default for PointStyle {
    fn default() -> PointStyle {
        PointStyle {
            color: Rgba::new(1.0, 0.9, 0.6, 0.8),
            size_px: 1.0,
            perspective_size: None,
            fraction: 1.0,
            write_depth: false,
        }
    }
}

/// Deterministic per-index uniform in [0, 1) (splitmix64 finalizer).
#[inline]
pub fn hash_unit(i: u64) -> f64 {
    let mut z = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z = z ^ (z >> 31);
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// `true` when point `i` is kept at draw fraction `fraction`.
#[inline]
pub fn keep_point(i: u64, fraction: f64) -> bool {
    hash_unit(i) < fraction
}

/// Splats a set of world-space points. Returns the number of points
/// actually drawn (post-subsampling and culling).
pub fn splat_points(
    fb: &mut Framebuffer,
    camera: &Camera,
    points: &[Vec3],
    style: &PointStyle,
) -> usize {
    let h = fb.height();
    let projector = camera.projector(fb.width(), h);
    let mut drawn = 0usize;
    for (i, &p) in points.iter().enumerate() {
        if style.fraction < 1.0 && !keep_point(i as u64, style.fraction) {
            continue;
        }
        let Some((px, py, z)) = projector.to_pixel(p) else {
            continue;
        };
        if !(-1.0..=1.0).contains(&z) {
            continue;
        }
        let radius = match style.perspective_size {
            Some(world_r) => {
                let dist = p.distance(camera.eye);
                (world_r * camera.pixels_per_world_unit(dist, h)).clamp(0.5, 64.0)
            }
            None => style.size_px,
        };
        splat_one(fb, px, py, z as f32, radius, style);
        drawn += 1;
    }
    drawn
}

fn splat_one(fb: &mut Framebuffer, px: f64, py: f64, z: f32, radius: f64, style: &PointStyle) {
    let r = radius.max(0.5);
    let x0 = (px - r).floor().max(0.0) as usize;
    let y0 = (py - r).floor().max(0.0) as usize;
    let x1 = ((px + r).ceil() as isize).min(fb.width() as isize - 1);
    let y1 = ((py + r).ceil() as isize).min(fb.height() as isize - 1);
    if x1 < x0 as isize || y1 < y0 as isize {
        return;
    }
    for y in y0..=(y1 as usize) {
        for x in x0..=(x1 as usize) {
            let dx = x as f64 + 0.5 - px;
            let dy = y as f64 + 0.5 - py;
            let d2 = (dx * dx + dy * dy) / (r * r);
            if d2 > 1.0 {
                continue;
            }
            // Smooth radial falloff keeps single-pixel points visible and
            // larger splats round.
            let falloff = (1.0 - d2).sqrt() as f32;
            let c = style.color.with_alpha(style.color.a * falloff);
            fb.blend_fragment(x, y, z, c, style.write_depth);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cam() -> Camera {
        Camera::look_at(Vec3::new(0.0, 0.0, 5.0), Vec3::ZERO, 1.0)
    }

    #[test]
    fn single_point_lights_center() {
        let mut fb = Framebuffer::new(65, 65);
        let style = PointStyle {
            color: Rgba::WHITE,
            size_px: 2.0,
            ..Default::default()
        };
        let n = splat_points(&mut fb, &cam(), &[Vec3::ZERO], &style);
        assert_eq!(n, 1);
        assert!(fb.get(32, 32).luminance() > 0.5);
    }

    #[test]
    fn points_behind_camera_are_culled() {
        let mut fb = Framebuffer::new(32, 32);
        let n = splat_points(
            &mut fb,
            &cam(),
            &[Vec3::new(0.0, 0.0, 20.0)],
            &PointStyle::default(),
        );
        assert_eq!(n, 0);
    }

    #[test]
    fn fraction_draws_the_right_share() {
        let mut fb = Framebuffer::new(64, 64);
        let pts: Vec<Vec3> = (0..10_000)
            .map(|i| {
                Vec3::new(
                    (i % 100) as f64 * 0.01 - 0.5,
                    (i / 100) as f64 * 0.01 - 0.5,
                    0.0,
                )
            })
            .collect();
        for fraction in [0.25, 0.5, 0.75] {
            let style = PointStyle {
                fraction,
                ..Default::default()
            };
            let n = splat_points(&mut fb, &cam(), &pts, &style);
            let expect = fraction * pts.len() as f64;
            assert!(
                (n as f64 - expect).abs() < 0.05 * pts.len() as f64,
                "fraction {fraction}: drew {n}, expected ≈{expect}"
            );
        }
    }

    #[test]
    fn subsampling_is_deterministic() {
        let kept: Vec<bool> = (0..1000).map(|i| keep_point(i, 0.5)).collect();
        let again: Vec<bool> = (0..1000).map(|i| keep_point(i, 0.5)).collect();
        assert_eq!(kept, again);
        // Monotone in fraction: a point kept at 0.3 is kept at 0.6.
        for i in 0..1000u64 {
            if keep_point(i, 0.3) {
                assert!(keep_point(i, 0.6));
            }
        }
    }

    #[test]
    fn perspective_size_shrinks_with_distance() {
        let c = cam();
        let mut fb_near = Framebuffer::new(65, 65);
        let mut fb_far = Framebuffer::new(65, 65);
        let style = PointStyle {
            color: Rgba::WHITE,
            perspective_size: Some(0.1),
            write_depth: false,
            ..Default::default()
        };
        splat_points(&mut fb_near, &c, &[Vec3::new(0.0, 0.0, 2.0)], &style);
        splat_points(&mut fb_far, &c, &[Vec3::new(0.0, 0.0, -4.0)], &style);
        let lit_near = fb_near.lit_pixel_count(0.01);
        let lit_far = fb_far.lit_pixel_count(0.01);
        assert!(
            lit_near > lit_far,
            "near splat must cover more pixels ({lit_near} vs {lit_far})"
        );
    }

    #[test]
    fn opaque_points_respect_depth() {
        let mut fb = Framebuffer::new(65, 65);
        let c = cam();
        let mut front = PointStyle {
            color: Rgba::rgb(1.0, 0.0, 0.0),
            size_px: 3.0,
            ..Default::default()
        };
        front.write_depth = true;
        front.color = front.color.with_alpha(1.0);
        splat_points(&mut fb, &c, &[Vec3::new(0.0, 0.0, 1.0)], &front);
        let mut back = front;
        back.color = Rgba::rgb(0.0, 1.0, 0.0).with_alpha(1.0);
        splat_points(&mut fb, &c, &[Vec3::new(0.0, 0.0, -1.0)], &back);
        assert!(
            fb.get(32, 32).r > 0.9,
            "front point must occlude back point"
        );
    }

    #[test]
    fn hash_unit_is_uniform_ish() {
        let mean: f64 = (0..10_000).map(hash_unit).sum::<f64>() / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }
}
