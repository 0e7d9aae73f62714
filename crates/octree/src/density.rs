//! Low-resolution density grids: the "volume texture" side of the hybrid
//! representation.
//!
//! The hybrid method renders high-density regions with "fast
//! low-resolution volume rendering" (§2.2); this module bins particles
//! into a regular grid of point density that the software volume renderer
//! consumes as a 3-D texture.

use crate::plots::PlotType;
use accelviz_beam::particle::Particle;
use accelviz_math::{sample_grid, Aabb, Vec3};
use rayon::prelude::*;
use std::sync::OnceLock;

/// A regular 3-D grid of particle density over a bounding box.
#[derive(Clone, Debug)]
pub struct DensityGrid {
    dims: [usize; 3],
    bounds: Aabb,
    /// Density values, x-fastest layout (`data[x + dims0*(y + dims1*z)]`),
    /// in particles per cell.
    data: Vec<f32>,
    max_value: f32,
    /// See [`DensityGrid::volume_bound`].
    volume_bound: OnceLock<Vec<f32>>,
}

/// Equality is over what the grid *is* — dims, bounds, cells (and the max
/// derived from them) — never over the renderer's cached bound.
impl PartialEq for DensityGrid {
    fn eq(&self, other: &DensityGrid) -> bool {
        self.dims == other.dims
            && self.bounds == other.bounds
            && self.data == other.data
            && self.max_value == other.max_value
    }
}

impl DensityGrid {
    /// Bins projected particles into a `dims`-resolution grid over
    /// `bounds`. Counts are per cell; out-of-bounds particles are ignored.
    pub fn from_particles(
        particles: &[Particle],
        plot: PlotType,
        bounds: Aabb,
        dims: [usize; 3],
    ) -> DensityGrid {
        assert!(dims.iter().all(|&d| d > 0), "grid dims must be positive");
        let n = dims[0] * dims[1] * dims[2];

        // Parallel binning: per-thread chunks produce partial histograms
        // that are then reduced. For the grid sizes used here (≤ 256³) a
        // chunked fold keeps memory reasonable. The chunking (and thus
        // the grouping of the f32 additions) depends on the pool size,
        // but the result does not: cells hold integer counts, and f32
        // sums of integers are exact far beyond any realistic per-cell
        // occupancy, so every grouping produces identical bits.
        let chunk = (particles.len() / rayon::current_num_threads().max(1)).max(1024);
        let data = particles
            .par_chunks(chunk)
            .fold(
                || vec![0.0f32; n],
                |mut acc, ps| {
                    for p in ps {
                        let q = plot.project(p);
                        if let Some(idx) = cell_index(&bounds, dims, q) {
                            acc[idx] += 1.0;
                        }
                    }
                    acc
                },
            )
            .reduce(
                || vec![0.0f32; n],
                |mut a, b| {
                    for (x, y) in a.iter_mut().zip(&b) {
                        *x += y;
                    }
                    a
                },
            );
        DensityGrid::from_raw(bounds, dims, data)
    }

    /// An all-zero grid (useful for incremental accumulation in tests).
    pub fn zeros(bounds: Aabb, dims: [usize; 3]) -> DensityGrid {
        DensityGrid::from_raw(bounds, dims, vec![0.0; dims.iter().product()])
    }

    /// Reconstructs a grid from previously computed cell values, e.g. when
    /// decoding a grid that was serialized for network transfer. `data`
    /// must be in x-fastest layout with exactly `dims[0]*dims[1]*dims[2]`
    /// entries.
    pub fn from_raw(bounds: Aabb, dims: [usize; 3], data: Vec<f32>) -> DensityGrid {
        assert!(dims.iter().all(|&d| d > 0), "grid dims must be positive");
        assert_eq!(
            data.len(),
            dims[0] * dims[1] * dims[2],
            "cell data must match grid dims"
        );
        let max_value = data.iter().copied().fold(0.0f32, f32::max);
        DensityGrid {
            dims,
            bounds,
            data,
            max_value,
            volume_bound: OnceLock::new(),
        }
    }

    /// Grid resolution.
    pub fn dims(&self) -> [usize; 3] {
        self.dims
    }

    /// Bounds the grid covers.
    pub fn bounds(&self) -> &Aabb {
        &self.bounds
    }

    /// Raw cell values (x-fastest layout).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Largest cell value.
    pub fn max_value(&self) -> f32 {
        self.max_value
    }

    /// Total of all cells (= number of binned particles).
    pub fn total(&self) -> f64 {
        self.data.iter().map(|&v| v as f64).sum()
    }

    /// Cell value at integer coordinates (clamped to the grid).
    pub fn at(&self, x: usize, y: usize, z: usize) -> f32 {
        let x = x.min(self.dims[0] - 1);
        let y = y.min(self.dims[1] - 1);
        let z = z.min(self.dims[2] - 1);
        self.data[x + self.dims[0] * (y + self.dims[1] * z)]
    }

    /// Trilinearly interpolated, max-normalized density at a world-space
    /// point (0 outside the grid, in [0, 1] inside). This is the "3-D
    /// texture fetch" of the software volume renderer.
    pub fn sample_normalized(&self, p: Vec3) -> f64 {
        sample_grid(&self.data, self.dims, &self.bounds, self.max_value, p)
    }

    /// The grid's slot for the volume renderer's empty-space bound
    /// (`accelviz_render::volume::GridView`): filled on the first render
    /// and kept as long as the grid, so an orbiting camera never rebuilds
    /// it. Derived from the cells alone, it is not part of equality, the
    /// wire format or a cache weight.
    pub fn volume_bound(&self) -> &OnceLock<Vec<f32>> {
        &self.volume_bound
    }

    /// Size of this grid as a 3-D texture: one byte per voxel after the
    /// transfer-function palette lookup (the paletted-texture mode the
    /// paper's hardware used).
    pub fn texture_bytes(&self) -> u64 {
        (self.dims[0] * self.dims[1] * self.dims[2]) as u64
    }

    /// Sum-pools the grid by `factor` along each axis: the low-depth
    /// volume a progressive stream sends first. Each coarse cell holds
    /// the exact particle count of the `factor`³ fine cells it covers
    /// (edge cells cover the remainder), so `total()` is preserved and
    /// the result is still a count grid — `f32` sums of integer counts
    /// are exact far beyond any realistic occupancy, and the serial
    /// x-fastest accumulation order makes the output deterministic.
    pub fn downsample(&self, factor: usize) -> DensityGrid {
        assert!(factor > 0, "downsample factor must be positive");
        let nd = [
            self.dims[0].div_ceil(factor),
            self.dims[1].div_ceil(factor),
            self.dims[2].div_ceil(factor),
        ];
        let mut data = vec![0.0f32; nd[0] * nd[1] * nd[2]];
        for z in 0..self.dims[2] {
            for y in 0..self.dims[1] {
                for x in 0..self.dims[0] {
                    let coarse = (x / factor) + nd[0] * ((y / factor) + nd[1] * (z / factor));
                    data[coarse] += self.data[x + self.dims[0] * (y + self.dims[1] * z)];
                }
            }
        }
        DensityGrid::from_raw(self.bounds, nd, data)
    }
}

/// Flat cell index of a point, or `None` when outside the bounds.
fn cell_index(bounds: &Aabb, dims: [usize; 3], p: Vec3) -> Option<usize> {
    let t = bounds.normalized_coords(p);
    if !(0.0..=1.0).contains(&t.x) || !(0.0..=1.0).contains(&t.y) || !(0.0..=1.0).contains(&t.z) {
        return None;
    }
    let x = ((t.x * dims[0] as f64) as usize).min(dims[0] - 1);
    let y = ((t.y * dims[1] as f64) as usize).min(dims[1] - 1);
    let z = ((t.z * dims[2] as f64) as usize).min(dims[2] - 1);
    Some(x + dims[0] * (y + dims[1] * z))
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelviz_beam::distribution::Distribution;

    fn unit_bounds() -> Aabb {
        Aabb::new(Vec3::ZERO, Vec3::ONE)
    }

    #[test]
    fn binning_counts_every_inside_particle() {
        let ps = Distribution::default_beam().sample(5_000, 3);
        let bounds = Aabb::from_points(ps.iter().map(|p| PlotType::XYZ.project(p)));
        let grid = DensityGrid::from_particles(&ps, PlotType::XYZ, bounds, [16, 16, 16]);
        assert_eq!(grid.total() as usize, 5_000);
        assert!(grid.max_value() >= 1.0);
    }

    #[test]
    fn out_of_bounds_particles_are_ignored() {
        let ps = Distribution::default_beam().sample(1_000, 3);
        let tiny = Aabb::new(Vec3::splat(10.0), Vec3::splat(11.0));
        let grid = DensityGrid::from_particles(&ps, PlotType::XYZ, tiny, [4, 4, 4]);
        assert_eq!(grid.total(), 0.0);
        assert_eq!(grid.max_value(), 0.0);
        assert_eq!(grid.sample_normalized(Vec3::splat(10.5)), 0.0);
    }

    #[test]
    fn single_particle_lands_in_the_right_cell() {
        let p = accelviz_beam::particle::Particle::at_rest(Vec3::new(0.9, 0.1, 0.5));
        let grid = DensityGrid::from_particles(&[p], PlotType::XYZ, unit_bounds(), [2, 2, 2]);
        // x = 0.9 → cell 1, y = 0.1 → cell 0, z = 0.5 → cell 1.
        assert_eq!(grid.at(1, 0, 1), 1.0);
        assert_eq!(grid.total(), 1.0);
    }

    #[test]
    fn sample_normalized_is_in_unit_range_and_peaks_at_mass() {
        let ps = Distribution::default_beam().sample(20_000, 3);
        let bounds = Aabb::from_points(ps.iter().map(|p| PlotType::XYZ.project(p)));
        let grid = DensityGrid::from_particles(&ps, PlotType::XYZ, bounds, [32, 32, 32]);
        let center = grid.sample_normalized(bounds.center());
        let corner = grid.sample_normalized(bounds.min);
        assert!((0.0..=1.0).contains(&center));
        assert!(center > corner, "gaussian beam peaks at center");
    }

    #[test]
    fn texture_bytes_budget() {
        let g64 = DensityGrid::zeros(unit_bounds(), [64, 64, 64]);
        let g256 = DensityGrid::zeros(unit_bounds(), [256, 256, 256]);
        assert_eq!(g64.texture_bytes(), 64 * 64 * 64);
        // The paper's Figure 1 contrast: 256³ needs 64× the texture memory
        // of 64³.
        assert_eq!(g256.texture_bytes() / g64.texture_bytes(), 64);
    }

    #[test]
    fn sampling_outside_returns_zero() {
        let ps = Distribution::default_beam().sample(100, 3);
        let bounds = unit_bounds();
        let grid = DensityGrid::from_particles(&ps, PlotType::XYZ, bounds, [4, 4, 4]);
        assert_eq!(grid.sample_normalized(Vec3::splat(2.0)), 0.0);
        assert_eq!(grid.sample_normalized(Vec3::splat(-0.1)), 0.0);
    }

    #[test]
    #[should_panic]
    fn zero_dims_panic() {
        let _ = DensityGrid::zeros(unit_bounds(), [0, 4, 4]);
    }

    #[test]
    fn downsample_preserves_mass_and_covers_remainders() {
        let ps = Distribution::default_beam().sample(10_000, 7);
        let bounds = Aabb::from_points(ps.iter().map(|p| PlotType::XYZ.project(p)));
        // 17 is deliberately not divisible by 4: edge cells must absorb
        // the remainder instead of dropping it.
        let grid = DensityGrid::from_particles(&ps, PlotType::XYZ, bounds, [17, 16, 8]);
        let coarse = grid.downsample(4);
        assert_eq!(coarse.dims(), [5, 4, 2]);
        assert_eq!(coarse.bounds(), grid.bounds());
        assert_eq!(coarse.total(), grid.total(), "sum pooling preserves counts");
        assert!(coarse.max_value() >= grid.max_value());
        assert_eq!(coarse.texture_bytes(), 5 * 4 * 2);
    }

    #[test]
    fn downsample_by_one_is_identity() {
        let ps = Distribution::default_beam().sample(1_000, 9);
        let bounds = Aabb::from_points(ps.iter().map(|p| PlotType::XYZ.project(p)));
        let grid = DensityGrid::from_particles(&ps, PlotType::XYZ, bounds, [8, 8, 8]);
        assert_eq!(grid.downsample(1), grid);
    }

    #[test]
    fn downsample_known_cells() {
        // 4×2×1 grid, factor 2 → 2×1×1; coarse cells sum their quadrants.
        let data = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let grid = DensityGrid::from_raw(unit_bounds(), [4, 2, 1], data);
        let coarse = grid.downsample(2);
        assert_eq!(coarse.dims(), [2, 1, 1]);
        assert_eq!(
            coarse.data(),
            &[1.0 + 2.0 + 5.0 + 6.0, 3.0 + 4.0 + 7.0 + 8.0]
        );
    }
}
