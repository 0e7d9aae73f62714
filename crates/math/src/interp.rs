//! Scalar interpolation kernels shared by the transfer functions, the
//! volume sampler, and the field interpolators.

use crate::aabb::Aabb;
use crate::vec3::Vec3;

/// Linear interpolation `a + t (b - a)`.
#[inline]
pub fn lerp(a: f64, b: f64, t: f64) -> f64 {
    a + (b - a) * t
}

/// Hermite smoothstep: 0 below `e0`, 1 above `e1`, smooth in between.
/// Used for the "ramp" transition of the paper's volume transfer function
/// (§2.4), which softens the artificial boundary of the volume region.
pub fn smoothstep(e0: f64, e1: f64, x: f64) -> f64 {
    if e0 >= e1 {
        // Degenerate ramp: behave as a step at e0.
        return if x < e0 { 0.0 } else { 1.0 };
    }
    let t = ((x - e0) / (e1 - e0)).clamp(0.0, 1.0);
    t * t * (3.0 - 2.0 * t)
}

/// Trilinear interpolation of the 8 corner values of a cell.
///
/// `c[i]` uses the same bit convention as `Aabb::octant_index`: bit 0 = x
/// high, bit 1 = y high, bit 2 = z high. `(u, v, w)` are the fractional
/// coordinates in \[0,1\].
#[inline]
pub fn trilinear(c: &[f64; 8], u: f64, v: f64, w: f64) -> f64 {
    let x00 = lerp(c[0], c[1], u);
    let x10 = lerp(c[2], c[3], u);
    let x01 = lerp(c[4], c[5], u);
    let x11 = lerp(c[6], c[7], u);
    let y0 = lerp(x00, x10, v);
    let y1 = lerp(x01, x11, v);
    lerp(y0, y1, w)
}

/// Trilinearly interpolated, cell-centred value of an x-fastest `dims`
/// grid over `bounds` at `p`, divided by `max`: 0 outside the bounds or
/// when `max <= 0`. The "3-D texture fetch" of the volume renderer; the
/// octree's `DensityGrid` and the renderer's grid view both sample
/// through it, so they cannot disagree by a bit.
#[inline]
pub fn sample_grid(data: &[f32], dims: [usize; 3], bounds: &Aabb, max: f32, p: Vec3) -> f64 {
    if max <= 0.0 {
        return 0.0;
    }
    let t = bounds.normalized_coords(p);
    if !(0.0..=1.0).contains(&t.x) || !(0.0..=1.0).contains(&t.y) || !(0.0..=1.0).contains(&t.z) {
        return 0.0;
    }
    let fx = (t.x * dims[0] as f64 - 0.5).clamp(0.0, (dims[0] - 1) as f64);
    let fy = (t.y * dims[1] as f64 - 0.5).clamp(0.0, (dims[1] - 1) as f64);
    let fz = (t.z * dims[2] as f64 - 0.5).clamp(0.0, (dims[2] - 1) as f64);
    // Clamped non-negative, so truncation is the floor (without a libm call).
    let (x0, y0, z0) = (fx as usize, fy as usize, fz as usize);
    let (x1, y1, z1) = (
        (x0 + 1).min(dims[0] - 1),
        (y0 + 1).min(dims[1] - 1),
        (z0 + 1).min(dims[2] - 1),
    );
    let at = |x: usize, y: usize, z: usize| data[x + dims[0] * (y + dims[1] * z)] as f64;
    let c = [
        at(x0, y0, z0),
        at(x1, y0, z0),
        at(x0, y1, z0),
        at(x1, y1, z0),
        at(x0, y0, z1),
        at(x1, y0, z1),
        at(x0, y1, z1),
        at(x1, y1, z1),
    ];
    trilinear(&c, fx - x0 as f64, fy - y0 as f64, fz - z0 as f64) / max as f64
}

/// Centripetal-flavoured Catmull-Rom interpolation through `p1`..`p2` with
/// neighbours `p0`, `p3`, at parameter `t` in \[0,1\]. Used to smooth sparse
/// field-line polylines before strip generation.
pub fn catmull_rom(p0: f64, p1: f64, p2: f64, p3: f64, t: f64) -> f64 {
    let t2 = t * t;
    let t3 = t2 * t;
    0.5 * ((2.0 * p1)
        + (-p0 + p2) * t
        + (2.0 * p0 - 5.0 * p1 + 4.0 * p2 - p3) * t2
        + (-p0 + 3.0 * p1 - 3.0 * p2 + p3) * t3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lerp_basics() {
        assert_eq!(lerp(0.0, 10.0, 0.0), 0.0);
        assert_eq!(lerp(0.0, 10.0, 1.0), 10.0);
        assert_eq!(lerp(0.0, 10.0, 0.25), 2.5);
        // Extrapolation is allowed.
        assert_eq!(lerp(0.0, 10.0, 1.5), 15.0);
    }

    #[test]
    fn smoothstep_clamps_and_is_monotone() {
        assert_eq!(smoothstep(0.2, 0.8, 0.0), 0.0);
        assert_eq!(smoothstep(0.2, 0.8, 1.0), 1.0);
        assert!((smoothstep(0.2, 0.8, 0.5) - 0.5).abs() < 1e-12);
        let mut prev = -1.0;
        for i in 0..=100 {
            let v = smoothstep(0.2, 0.8, i as f64 / 100.0);
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn smoothstep_degenerate_is_step() {
        assert_eq!(smoothstep(0.5, 0.5, 0.4), 0.0);
        assert_eq!(smoothstep(0.5, 0.5, 0.6), 1.0);
        assert_eq!(smoothstep(0.5, 0.5, 0.5), 1.0);
    }

    #[test]
    fn trilinear_corners_and_center() {
        let c = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        assert_eq!(trilinear(&c, 0.0, 0.0, 0.0), 0.0);
        assert_eq!(trilinear(&c, 1.0, 0.0, 0.0), 1.0);
        assert_eq!(trilinear(&c, 0.0, 1.0, 0.0), 2.0);
        assert_eq!(trilinear(&c, 0.0, 0.0, 1.0), 4.0);
        assert_eq!(trilinear(&c, 1.0, 1.0, 1.0), 7.0);
        // Center is the mean of the corners.
        let mean: f64 = c.iter().sum::<f64>() / 8.0;
        assert!((trilinear(&c, 0.5, 0.5, 0.5) - mean).abs() < 1e-12);
    }

    #[test]
    fn trilinear_constant_field() {
        let c = [3.5; 8];
        for &(u, v, w) in &[(0.1, 0.9, 0.3), (0.5, 0.5, 0.5), (0.0, 1.0, 0.7)] {
            assert!((trilinear(&c, u, v, w) - 3.5).abs() < 1e-12);
        }
    }

    #[test]
    fn catmull_rom_interpolates_endpoints() {
        assert_eq!(catmull_rom(0.0, 1.0, 2.0, 3.0, 0.0), 1.0);
        assert_eq!(catmull_rom(0.0, 1.0, 2.0, 3.0, 1.0), 2.0);
        // On collinear data it reproduces the line.
        assert!((catmull_rom(0.0, 1.0, 2.0, 3.0, 0.5) - 1.5).abs() < 1e-12);
    }
}
