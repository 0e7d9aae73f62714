//! The hybrid representation: extracted halo points + low-resolution
//! density volume (§2.1–2.3).

use accelviz_beam::io::BYTES_PER_PARTICLE;
use accelviz_beam::particle::Particle;
use accelviz_math::{Aabb, Vec3};
use accelviz_octree::density::DensityGrid;
use accelviz_octree::extraction::extract_sorted;
use accelviz_octree::node::Octree;
use accelviz_octree::plots::PlotType;
use accelviz_octree::sorted_store::PartitionedData;

/// One time step in hybrid form: the low-density particles kept for point
/// rendering plus the density volume for texture-based volume rendering.
#[derive(Clone, Debug, PartialEq)]
pub struct HybridFrame {
    /// Recorded step index this frame came from.
    pub step: usize,
    /// The plot projection this frame was built for.
    pub plot: PlotType,
    /// Plot-space bounds.
    pub bounds: Aabb,
    /// The kept (halo) particles, in ascending-leaf-density order.
    pub points: Vec<Particle>,
    /// Normalized leaf density of each kept particle's octree node,
    /// parallel to `points` — what the point transfer function consumes.
    pub point_densities: Vec<f64>,
    /// The low-resolution density volume.
    pub grid: DensityGrid,
    /// The extraction threshold (absolute leaf density).
    pub threshold: f64,
    /// Particles discarded by extraction (represented only by the volume).
    pub discarded: u64,
}

impl HybridFrame {
    /// Builds a hybrid frame from partitioned data: extraction at
    /// `threshold` for the points, plus binning of *all* particles into a
    /// `volume_dims` grid — [`HybridFrame::from_parts`] with a freshly
    /// binned grid.
    pub fn from_partition(
        data: &PartitionedData,
        step: usize,
        threshold: f64,
        volume_dims: [usize; 3],
    ) -> HybridFrame {
        let bounds = data.tree().bounds;
        let grid = DensityGrid::from_particles(data.particles(), data.plot(), bounds, volume_dims);
        HybridFrame::from_parts(
            data.tree(),
            data.sorted_leaves(),
            data.plot(),
            data.particles(),
            grid,
            step,
            threshold,
        )
    }

    /// The one extraction: [`extract_sorted`] of `tree`'s leaves in
    /// `store_order` at `threshold`, taking the points from `prefix` — the
    /// frame's density-sorted particles, at least the
    /// [`kept_prefix`](accelviz_octree::extraction::kept_prefix) of them —
    /// beside `grid`, the whole frame already binned over `tree.bounds`. A
    /// reader that holds a frame's grid and kept prefix, not its
    /// particles, extracts with this; `store_order` must satisfy the store
    /// invariant ([`accelviz_octree::sorted_store::checked_store_order`]).
    pub fn from_parts(
        tree: &Octree,
        store_order: &[u32],
        plot: PlotType,
        prefix: &[Particle],
        grid: DensityGrid,
        step: usize,
        threshold: f64,
    ) -> HybridFrame {
        let mut span = accelviz_trace::span("core.hybrid_frame");
        let ex = extract_sorted(tree, store_order, prefix, threshold);
        if span.is_active() {
            span.arg("step", step as f64);
            span.arg("threshold", threshold);
            span.arg("points_kept", ex.particles.len() as f64);
            span.arg("voxelized", ex.discarded as f64);
        }
        debug_assert_eq!(grid.bounds(), &tree.bounds, "grid binned over the tree");

        // Per-particle normalized node densities (for the point TF): walk
        // the kept leaves in order; their groups tile the kept prefix.
        let max_density = store_order
            .iter()
            .map(|&li| tree.nodes[li as usize].density)
            .fold(0.0f64, f64::max)
            .max(1e-300);
        let mut point_densities = Vec::with_capacity(ex.particles.len());
        for &li in store_order.iter().take(ex.leaves_kept) {
            let n = &tree.nodes[li as usize];
            for _ in 0..n.len {
                point_densities.push(n.density / max_density);
            }
        }
        debug_assert_eq!(point_densities.len(), ex.particles.len());

        HybridFrame {
            step,
            plot,
            bounds: tree.bounds,
            points: ex.particles.to_vec(),
            point_densities,
            grid,
            threshold,
            discarded: ex.discarded,
        }
    }

    /// Projected plot-space positions of the kept points.
    pub fn point_positions(&self) -> Vec<Vec3> {
        self.points.iter().map(|p| self.plot.project(p)).collect()
    }

    /// Size of the point part in bytes (raw particle layout).
    pub fn point_bytes(&self) -> u64 {
        self.points.len() as u64 * BYTES_PER_PARTICLE
    }

    /// Size of the volume part in bytes (paletted 3-D texture).
    pub fn volume_bytes(&self) -> u64 {
        self.grid.texture_bytes()
    }

    /// Total hybrid frame size — the number the paper's "smaller than
    /// 100 MB" and frame-cache budgets are about.
    pub fn total_bytes(&self) -> u64 {
        self.point_bytes() + self.volume_bytes()
    }

    /// Compression relative to the raw dump this frame represents.
    pub fn compression_factor(&self) -> f64 {
        let raw = (self.points.len() as u64 + self.discarded) * BYTES_PER_PARTICLE;
        if self.total_bytes() == 0 {
            f64::INFINITY
        } else {
            raw as f64 / self.total_bytes() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelviz_beam::distribution::Distribution;
    use accelviz_octree::builder::{partition, BuildParams};
    use accelviz_octree::extraction::threshold_for_budget;

    fn partitioned(n: usize) -> PartitionedData {
        let ps = Distribution::default_beam().sample(n, 33);
        partition(
            &ps,
            PlotType::XYZ,
            BuildParams {
                max_depth: 4,
                leaf_capacity: 64,
                gradient_refinement: None,
            },
        )
    }

    #[test]
    fn frame_keeps_prefix_and_bins_everything() {
        let data = partitioned(5_000);
        let t = threshold_for_budget(&data, 1_000);
        let frame = HybridFrame::from_partition(&data, 7, t, [16, 16, 16]);
        assert_eq!(frame.step, 7);
        assert!(frame.points.len() <= 1_000);
        assert_eq!(frame.points.len() as u64 + frame.discarded, 5_000);
        // The volume bins ALL particles, not just the kept ones.
        assert_eq!(frame.grid.total() as u64, 5_000);
        assert_eq!(frame.point_densities.len(), frame.points.len());
    }

    #[test]
    fn point_densities_are_normalized_and_sorted() {
        let data = partitioned(5_000);
        let t = threshold_for_budget(&data, 2_000);
        let frame = HybridFrame::from_partition(&data, 0, t, [8, 8, 8]);
        for w in frame.point_densities.windows(2) {
            assert!(w[0] <= w[1], "densities follow the sorted store order");
        }
        for &d in &frame.point_densities {
            assert!((0.0..=1.0).contains(&d));
        }
    }

    #[test]
    fn byte_accounting() {
        let data = partitioned(2_000);
        let frame = HybridFrame::from_partition(&data, 0, f64::INFINITY, [16, 16, 16]);
        assert_eq!(frame.point_bytes(), 2_000 * 48);
        assert_eq!(frame.volume_bytes(), 16 * 16 * 16);
        assert_eq!(frame.total_bytes(), 2_000 * 48 + 4_096);
    }

    #[test]
    fn tighter_threshold_compresses_more() {
        let data = partitioned(5_000);
        let loose =
            HybridFrame::from_partition(&data, 0, threshold_for_budget(&data, 4_000), [16, 16, 16]);
        let tight =
            HybridFrame::from_partition(&data, 0, threshold_for_budget(&data, 200), [16, 16, 16]);
        assert!(tight.total_bytes() < loose.total_bytes());
        assert!(tight.compression_factor() > loose.compression_factor());
        assert!(tight.compression_factor() > 1.0);
    }

    #[test]
    fn point_positions_lie_in_bounds() {
        let data = partitioned(3_000);
        let t = threshold_for_budget(&data, 1_500);
        let frame = HybridFrame::from_partition(&data, 0, t, [8, 8, 8]);
        for p in frame.point_positions() {
            assert!(frame.bounds.contains(p));
        }
    }
}
