//! Point splatting — the point-rendering half of the hybrid method (§2.4).
//!
//! The point transfer function "maps density to number of points rendered
//! ... When the transfer function's value is at 0.75 for some density, it
//! means that three out of every four points are drawn for areas of that
//! density." The fraction is honored here by a deterministic per-index
//! hash, so exactly the same subset is drawn every frame (no shimmer).
//!
//! [`splat`] is the one rule by which a world-space point becomes
//! fragments; the hybrid pass, attribute recolouring and display-list
//! replay call it and keep only their own rules: which points are kept,
//! what colour a fragment gets, and what they count.

use crate::camera::Projector;
use crate::framebuffer::Framebuffer;
use accelviz_math::{Rgba, Vec3};

/// Point rendering style.
#[derive(Clone, Copy, Debug)]
pub struct PointStyle {
    /// Base color of the points.
    pub color: Rgba,
    /// Splat radius in pixels.
    pub size_px: f64,
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
            fraction: 1.0,
            write_depth: false,
        }
    }
}

impl PointStyle {
    /// The style's colour at squared normalized distance `d2` ∈ [0, 1]
    /// from a splat's centre: a smooth radial falloff of its alpha, which
    /// keeps single-pixel points visible and larger splats round.
    #[inline]
    pub fn falloff(&self, d2: f64) -> Rgba {
        let falloff = (1.0 - d2).sqrt() as f32;
        self.color.with_alpha(self.color.a * falloff)
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

/// Splats world point `p`: projects it, culls it outside the depth range
/// z ∈ [−1, 1], and blends every pixel of the framebuffer whose centre
/// lies in its disc of radius `size_px` (at least half a pixel) with the
/// colour `shade` gives for that centre's squared distance over the
/// squared radius, d² ∈ [0, 1]. Returns the fragments blended, or `None`
/// when the point is culled.
#[inline]
pub fn splat(
    fb: &mut Framebuffer,
    projector: &Projector,
    p: Vec3,
    size_px: f64,
    write_depth: bool,
    shade: impl Fn(f64) -> Rgba,
) -> Option<usize> {
    let (px, py, z) = projector.to_pixel(p)?;
    if !(-1.0..=1.0).contains(&z) {
        return None;
    }
    let r = size_px.max(0.5);
    let rr = r * r;
    let x0 = (px - r).floor().max(0.0) as isize;
    let y0 = (py - r).floor().max(0.0) as isize;
    let x1 = ((px + r).ceil() as isize).min(fb.width() as isize - 1);
    let y1 = ((py + r).ceil() as isize).min(fb.height() as isize - 1);
    let mut fragments = 0;
    for y in y0..=y1 {
        for x in x0..=x1 {
            let dx = x as f64 + 0.5 - px;
            let dy = y as f64 + 0.5 - py;
            // The same test as `q / rr > 1.0`, the d² handed to `shade`:
            // correctly rounded division keeps `q / rr > 1` exactly when
            // `q > rr` (rr ≥ ¼), and both let a NaN through.
            let q = dx * dx + dy * dy;
            if q > rr {
                continue;
            }
            fb.blend_fragment(x as usize, y as usize, z as f32, shade(q / rr), write_depth);
            fragments += 1;
        }
    }
    Some(fragments)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::camera::Camera;

    fn cam() -> Camera {
        Camera::look_at(Vec3::new(0.0, 0.0, 5.0), Vec3::ZERO, 1.0)
    }

    /// Splats the kept share of `points` in `style`; returns the points
    /// drawn.
    fn splat_all(fb: &mut Framebuffer, points: &[Vec3], style: &PointStyle) -> usize {
        let projector = cam().projector(fb.width(), fb.height());
        let shade = |d2| style.falloff(d2);
        let mut drawn = 0;
        for (i, &p) in points.iter().enumerate() {
            if style.fraction < 1.0 && !keep_point(i as u64, style.fraction) {
                continue;
            }
            if splat(fb, &projector, p, style.size_px, style.write_depth, shade).is_some() {
                drawn += 1;
            }
        }
        drawn
    }

    #[test]
    fn single_point_lights_center() {
        let mut fb = Framebuffer::new(65, 65);
        let style = PointStyle {
            color: Rgba::WHITE,
            size_px: 2.0,
            ..Default::default()
        };
        let projector = cam().projector(65, 65);
        let fragments = splat(&mut fb, &projector, Vec3::ZERO, 2.0, false, |d2| {
            style.falloff(d2)
        });
        // The 13 pixel centres within 2 px of pixel (32, 32)'s.
        assert_eq!(fragments, Some(13));
        assert!(fb.get(32, 32).luminance() > 0.5);
        assert_eq!(splat_all(&mut fb, &[Vec3::ZERO], &style), 1);
    }

    #[test]
    fn points_behind_camera_are_culled() {
        let mut fb = Framebuffer::new(32, 32);
        let projector = cam().projector(32, 32);
        let behind = Vec3::new(0.0, 0.0, 20.0);
        assert_eq!(
            splat(&mut fb, &projector, behind, 1.0, true, |_| Rgba::WHITE),
            None
        );
        assert_eq!(fb.lit_pixel_count(0.0), 0);
    }

    #[test]
    fn a_point_beside_the_framebuffer_is_drawn_with_no_fragment() {
        let mut fb = Framebuffer::new(1, 1);
        let projector = cam().projector(1, 1);
        let beside = Vec3::new(10.0, 0.0, 0.0);
        assert_eq!(
            splat(&mut fb, &projector, beside, 0.2, false, |_| Rgba::WHITE),
            Some(0)
        );
        assert_eq!(fb.get(0, 0), Rgba::TRANSPARENT);
        assert_eq!(
            splat(&mut fb, &projector, Vec3::ZERO, 0.2, false, |_| Rgba::WHITE),
            Some(1)
        );
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
            let n = splat_all(&mut fb, &pts, &style);
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
    fn opaque_points_respect_depth() {
        let mut fb = Framebuffer::new(65, 65);
        let front = PointStyle {
            color: Rgba::rgb(1.0, 0.0, 0.0).with_alpha(1.0),
            size_px: 3.0,
            write_depth: true,
            ..Default::default()
        };
        splat_all(&mut fb, &[Vec3::new(0.0, 0.0, 1.0)], &front);
        let back = PointStyle {
            color: Rgba::rgb(0.0, 1.0, 0.0).with_alpha(1.0),
            ..front
        };
        splat_all(&mut fb, &[Vec3::new(0.0, 0.0, -1.0)], &back);
        assert!(
            fb.get(32, 32).r > 0.9,
            "front point must occlude back point"
        );
    }

    /// A pixel centre on the rim of the disc is in it: the test agrees
    /// with d² = q / r² ≤ 1 one ulp either side of the rim, and through
    /// the splatter a centre exactly `r` from the point's is lit, and
    /// dark when the radius is a hair shorter.
    #[test]
    fn the_disc_holds_its_rim() {
        for r in [0.5f64, 0.7, 1.0, 1.3, 2.0, 2.9, 3.0, 1e3] {
            let rr = r * r;
            for q in [rr, rr.next_up(), rr.next_down()] {
                assert_eq!(q / rr > 1.0, q > rr, "q {q:e}, rr {rr:e}");
            }
        }
        let projector = cam().projector(65, 65);
        let (px, py, _) = projector.to_pixel(Vec3::ZERO).unwrap();
        assert_eq!((px, py), (32.5, 32.5), "the centre of pixel (32, 32)");
        // Pixel (32, 34)'s centre is 2 px from the point's: q = 4.
        for (r, lit) in [
            (2.0, true),
            (2.0f64.next_up(), true),
            (2.0f64.next_down(), false),
        ] {
            let mut fb = Framebuffer::new(65, 65);
            splat(&mut fb, &projector, Vec3::ZERO, r, false, |_| Rgba::WHITE);
            assert_eq!(fb.get(32, 34) == Rgba::WHITE, lit, "radius {r:e}");
            assert_eq!(fb.get(32, 35), Rgba::TRANSPARENT, "radius {r:e}");
        }
    }

    #[test]
    fn falloff_fades_to_the_rim() {
        let style = PointStyle::default();
        assert_eq!(style.falloff(0.0), style.color);
        assert_eq!(style.falloff(1.0).a, 0.0);
        assert!(style.falloff(0.5).a < style.color.a);
    }

    #[test]
    fn hash_unit_is_uniform_ish() {
        let mean: f64 = (0..10_000).map(hash_unit).sum::<f64>() / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }
}
