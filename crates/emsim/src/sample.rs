//! Point sampling of E and B fields for streamline integration.
//!
//! The field-line tracer needs E/B at arbitrary points. This module
//! collocates the staggered Yee components to cell centers once, then
//! serves trilinearly interpolated vectors — the standard postprocessing
//! view of a time-domain solver's output (and what gets written to disk
//! per "time step of the electric and magnetic fields together").

use crate::fdtd::FdtdSim;
use accelviz_math::{trilinear, Aabb, Vec3};

/// A vector field over a bounded domain.
pub trait VectorField3: Sync {
    /// Domain bounds.
    fn bounds(&self) -> Aabb;
    /// Field vector at a point (zero outside the domain).
    fn sample(&self, p: Vec3) -> Vec3;
}

/// Cell-centered, trilinearly interpolated snapshot of one field (E or B)
/// of an [`FdtdSim`].
#[derive(Clone, Debug)]
pub struct FieldSampler {
    dims: [usize; 3],
    bounds: Aabb,
    /// Cell-centered vectors, x-fastest layout.
    vectors: Vec<Vec3>,
    /// Vacuum mask per cell (field forced to zero in metal).
    vacuum: Vec<bool>,
}

/// Which field of the simulation to snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FieldKind {
    /// The electric field.
    Electric,
    /// The magnetic field.
    Magnetic,
}

impl FieldSampler {
    /// Snapshots the chosen field of the simulation at the current step.
    pub fn capture(sim: &FdtdSim, kind: FieldKind) -> FieldSampler {
        let dims = sim.dims();
        let [nx, ny, nz] = dims;
        let mut vectors = Vec::with_capacity(nx * ny * nz);
        let mut vacuum = Vec::with_capacity(nx * ny * nz);
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    let v = match kind {
                        FieldKind::Electric => sim.e_at_cell(i, j, k),
                        FieldKind::Magnetic => sim.b_at_cell(i, j, k),
                    };
                    vectors.push(v);
                    vacuum.push(sim.cell_inside()[i + nx * (j + ny * k)]);
                }
            }
        }
        FieldSampler {
            dims,
            bounds: sim.spec().geometry.bounds,
            vectors,
            vacuum,
        }
    }

    /// Builds a sampler from explicit data (used by tests and synthetic
    /// fields).
    pub fn from_vectors(dims: [usize; 3], bounds: Aabb, vectors: Vec<Vec3>) -> FieldSampler {
        assert_eq!(vectors.len(), dims[0] * dims[1] * dims[2]);
        let n = vectors.len();
        FieldSampler {
            dims,
            bounds,
            vectors,
            vacuum: vec![true; n],
        }
    }

    /// Grid dimensions.
    pub fn dims(&self) -> [usize; 3] {
        self.dims
    }

    /// Cell-centered vector at integer cell coordinates.
    pub fn at_cell(&self, i: usize, j: usize, k: usize) -> Vec3 {
        let [nx, ny, _] = self.dims;
        self.vectors[i + nx * (j + ny * k)]
    }

    /// `true` when cell (i, j, k) is vacuum.
    pub fn cell_is_vacuum(&self, i: usize, j: usize, k: usize) -> bool {
        let [nx, ny, _] = self.dims;
        self.vacuum[i + nx * (j + ny * k)]
    }

    /// The largest field magnitude over all vacuum cells.
    pub fn max_magnitude(&self) -> f64 {
        self.vectors
            .iter()
            .zip(&self.vacuum)
            .filter(|(_, &v)| v)
            .map(|(v, _)| v.length())
            .fold(0.0, f64::max)
    }
}

impl VectorField3 for FieldSampler {
    fn bounds(&self) -> Aabb {
        self.bounds
    }

    #[inline]
    fn sample(&self, p: Vec3) -> Vec3 {
        let t = self.bounds.normalized_coords(p);
        if !(0.0..=1.0).contains(&t.x) || !(0.0..=1.0).contains(&t.y) || !(0.0..=1.0).contains(&t.z)
        {
            return Vec3::ZERO;
        }
        let [nx, ny, nz] = self.dims;
        let fx = (t.x * nx as f64 - 0.5).clamp(0.0, (nx - 1) as f64);
        let fy = (t.y * ny as f64 - 0.5).clamp(0.0, (ny - 1) as f64);
        let fz = (t.z * nz as f64 - 0.5).clamp(0.0, (nz - 1) as f64);
        // The clamp keeps every coordinate ≥ 0, where truncation is the
        // floor.
        let (x0, y0, z0) = (fx as usize, fy as usize, fz as usize);
        let (x1, y1, z1) = (
            (x0 + 1).min(nx - 1),
            (y0 + 1).min(ny - 1),
            (z0 + 1).min(nz - 1),
        );
        let (u, v, w) = (fx - x0 as f64, fy - y0 as f64, fz - z0 as f64);
        let at = |i: usize, j: usize, k: usize| self.vectors[i + nx * (j + ny * k)];
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
        let component = |a: usize| {
            let corners = [
                c[0][a], c[1][a], c[2][a], c[3][a], c[4][a], c[5][a], c[6][a], c[7][a],
            ];
            trilinear(&corners, u, v, w)
        };
        Vec3::new(component(0), component(1), component(2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn constant_field(v: Vec3) -> FieldSampler {
        let bounds = Aabb::new(Vec3::ZERO, Vec3::ONE);
        FieldSampler::from_vectors([4, 4, 4], bounds, vec![v; 64])
    }

    #[test]
    fn constant_field_samples_constant() {
        let f = constant_field(Vec3::new(1.0, -2.0, 0.5));
        for p in [
            Vec3::splat(0.5),
            Vec3::new(0.1, 0.9, 0.3),
            Vec3::splat(0.01),
        ] {
            assert!(f.sample(p).distance(Vec3::new(1.0, -2.0, 0.5)) < 1e-12);
        }
    }

    #[test]
    fn outside_is_zero() {
        let f = constant_field(Vec3::ONE);
        assert_eq!(f.sample(Vec3::splat(1.5)), Vec3::ZERO);
        assert_eq!(f.sample(Vec3::new(-0.1, 0.5, 0.5)), Vec3::ZERO);
    }

    #[test]
    fn linear_field_is_reproduced_between_cell_centers() {
        // vectors[x] = x-index: sampling halfway between cell centers
        // must interpolate linearly.
        let bounds = Aabb::new(Vec3::ZERO, Vec3::new(4.0, 1.0, 1.0));
        let mut vectors = Vec::new();
        for _k in 0..1 {
            for _j in 0..1 {
                for i in 0..4 {
                    vectors.push(Vec3::new(i as f64, 0.0, 0.0));
                }
            }
        }
        let f = FieldSampler::from_vectors([4, 1, 1], bounds, vectors);
        // Cell centers are at x = 0.5, 1.5, 2.5, 3.5.
        let v = f.sample(Vec3::new(2.0, 0.5, 0.5));
        assert!(
            (v.x - 1.5).abs() < 1e-12,
            "midpoint of cells 1 and 2: {}",
            v.x
        );
    }

    #[test]
    fn max_magnitude() {
        let bounds = Aabb::new(Vec3::ZERO, Vec3::ONE);
        let mut vectors = vec![Vec3::ZERO; 27];
        vectors[13] = Vec3::new(0.0, 3.0, 4.0);
        let f = FieldSampler::from_vectors([3, 3, 3], bounds, vectors);
        assert!((f.max_magnitude() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn capture_from_simulation() {
        use crate::cavity::{CavityGeometry, CavitySpec};
        use crate::fdtd::{FdtdSim, FdtdSpec};
        let geometry = CavityGeometry::new(CavitySpec::three_cell());
        let mut sim = FdtdSim::new(FdtdSpec::for_geometry(geometry, 10));
        sim.run(150);
        let e = FieldSampler::capture(&sim, FieldKind::Electric);
        let b = FieldSampler::capture(&sim, FieldKind::Magnetic);
        assert!(e.max_magnitude() > 0.0, "driven sim must have E field");
        assert!(b.max_magnitude() > 0.0, "driven sim must have B field");
        // Samples inside the first cell are finite vectors.
        let v = e.sample(Vec3::new(0.0, 0.0, 0.4));
        assert!(v.is_finite());
    }
}
