//! Shared workload builders, so every figure of the `experiments` binary
//! is regenerated from the same data.

use accelviz_beam::simulation::{BeamConfig, BeamSimulation, Snapshot};
use accelviz_core::hybrid::HybridFrame;
use accelviz_emsim::cavity::{CavityGeometry, CavitySpec};
use accelviz_emsim::fdtd::{FdtdSim, FdtdSpec};
use accelviz_emsim::sample::{FieldKind, FieldSampler, VectorField3};
use accelviz_fieldlines::integrate::TraceParams;
use accelviz_fieldlines::seeding::{seed_lines, SeededLine, SeedingParams};
use accelviz_octree::builder::{partition, BuildParams};
use accelviz_octree::extraction::threshold_for_budget;
use accelviz_octree::plots::PlotType;
use accelviz_octree::sorted_store::PartitionedData;
use accelviz_render::camera::Camera;

/// A beam snapshot with a developed halo, at the given particle count.
/// Deterministic in `seed`.
pub fn halo_snapshot(n_particles: usize, cells: usize, seed: u64) -> Snapshot {
    let mut sim = BeamSimulation::new(BeamConfig::halo_study(n_particles, seed));
    for _ in 0..32 * cells {
        sim.step();
    }
    sim.snapshot(cells)
}

/// A full recorded time series of the halo study (the Figure 5 workload).
pub fn halo_series(n_particles: usize, recorded_steps: usize, seed: u64) -> Vec<Snapshot> {
    let mut sim = BeamSimulation::new(BeamConfig::halo_study(n_particles, seed));
    sim.run(recorded_steps, 8)
}

/// Standard partitioning of a snapshot for a plot type.
pub fn partitioned(snapshot: &Snapshot, plot: PlotType) -> PartitionedData {
    partition(
        &snapshot.particles,
        plot,
        BuildParams {
            max_depth: 6,
            leaf_capacity: 256,
            gradient_refinement: None,
        },
    )
}

/// A hybrid frame with the given point budget and volume resolution.
pub fn hybrid_frame(
    data: &PartitionedData,
    step: usize,
    point_budget: usize,
    volume_dims: [usize; 3],
) -> HybridFrame {
    let threshold = threshold_for_budget(data, point_budget);
    HybridFrame::from_partition(data, step, threshold, volume_dims)
}

/// A camera orbiting a hybrid frame's bounds.
pub fn frame_camera(frame: &HybridFrame, aspect: f64) -> Camera {
    Camera::orbit(
        frame.bounds.center(),
        frame.bounds.longest_edge() * 2.2,
        0.5,
        0.35,
        aspect,
    )
}

/// The electric-field snapshot of a driven 3-cell cavity advanced to a
/// ringing state. `res` = grid cells across the cavity diameter.
pub fn three_cell_e_field(res: usize, warmup_steps: usize) -> FieldSampler {
    let geometry = CavityGeometry::new(CavitySpec::three_cell());
    let mut sim = FdtdSim::new(FdtdSpec::for_geometry(geometry, res));
    sim.run(warmup_steps);
    FieldSampler::capture(&sim, FieldKind::Electric)
}

/// Seeds `n_lines` E-field lines on a captured cavity field.
pub fn cavity_lines(field: &FieldSampler, n_lines: usize, seed: u64) -> Vec<SeededLine> {
    let cavity_radius = 1.0; // three_cell spec, normalized units
    seed_lines(
        field,
        &SeedingParams {
            n_lines,
            trace: TraceParams {
                step: 0.04 * cavity_radius,
                max_steps: 250,
                min_magnitude: 1e-6 * field.max_magnitude().max(1e-300),
                bidirectional: true,
            },
            seed,
            min_magnitude_frac: 1e-3,
        },
    )
}

/// A camera looking into the cavity from outside.
pub fn cavity_camera(field: &FieldSampler, aspect: f64) -> Camera {
    let b = field.bounds();
    Camera::orbit(b.center(), b.longest_edge() * 1.8, 0.9, 0.35, aspect)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn halo_snapshot_is_deterministic_and_sized() {
        let a = halo_snapshot(500, 2, 9);
        let b = halo_snapshot(500, 2, 9);
        assert_eq!(a.particles, b.particles);
        assert_eq!(a.particles.len(), 500);
    }

    #[test]
    fn hybrid_frame_workload_respects_budget() {
        let snap = halo_snapshot(2_000, 1, 3);
        let data = partitioned(&snap, PlotType::XYZ);
        let frame = hybrid_frame(&data, 0, 400, [8, 8, 8]);
        assert!(frame.points.len() <= 400);
    }

    #[test]
    fn cavity_workload_produces_lines() {
        let field = three_cell_e_field(8, 150);
        assert!(field.max_magnitude() > 0.0);
        let lines = cavity_lines(&field, 20, 1);
        assert!(!lines.is_empty());
    }
}
