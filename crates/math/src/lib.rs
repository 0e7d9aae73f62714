//! Linear-algebra and geometry substrate for the `accelviz` workspace.
//!
//! This crate provides the small, dependency-free mathematical core used by
//! every other crate in the reproduction of *"Advanced Visualization
//! Technology for Terascale Particle Accelerator Simulations"* (SC 2002):
//! 3-/4-component vectors, 4×4 matrices, quaternions, axis-aligned bounding
//! boxes, rays, RGBA colors, interpolation kernels, the statistics
//! helpers used by the benchmark harness (correlation, regression,
//! histograms), and the bounded [`Reader`] every decoder reads its input
//! through.
//!
//! All physics-facing types use `f64`; color-facing types use `f32`, which
//! mirrors the double-precision simulation / single-precision framebuffer
//! split of the original system.

#![forbid(unsafe_code)]

pub mod aabb;
pub mod color;
pub mod interp;
pub mod mat4;
pub mod quat;
pub mod ray;
pub mod reader;
pub mod stats;
pub mod vec3;
pub mod vec4;

pub use aabb::Aabb;
pub use color::Rgba;
pub use interp::{catmull_rom, lerp, sample_grid, smoothstep, trilinear};
pub use mat4::Mat4;
pub use quat::Quat;
pub use ray::Ray;
pub use reader::{ReadError, Reader};
pub use stats::{Histogram, LinearFit, OnlineStats};
pub use vec3::{Axis, Vec3};
pub use vec4::Vec4;

/// Relative/absolute tolerance comparison used across the workspace tests.
///
/// Returns `true` when `a` and `b` differ by at most `tol` absolutely or by
/// `tol` relative to the larger magnitude.
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    let diff = (a - b).abs();
    if diff <= tol {
        return true;
    }
    let scale = a.abs().max(b.abs());
    diff <= tol * scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_absolute() {
        assert!(approx_eq(1.0, 1.0 + 1e-12, 1e-9));
        assert!(!approx_eq(1.0, 1.1, 1e-9));
    }

    #[test]
    fn approx_eq_relative_for_large_magnitudes() {
        assert!(approx_eq(1e12, 1e12 + 1.0, 1e-9));
        assert!(!approx_eq(1e12, 1.01e12, 1e-9));
    }

    #[test]
    fn approx_eq_zero() {
        assert!(approx_eq(0.0, 0.0, 1e-12));
        assert!(approx_eq(0.0, 1e-13, 1e-12));
    }
}
