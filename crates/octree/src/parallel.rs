//! Domain-decomposed parallel partitioning.
//!
//! "If the data exceeds the amount of memory available on one node of the
//! supercomputer, it can also be run on multiple nodes: the volume is
//! divided up between nodes and particles are assigned to the
//! corresponding node once they are read from disk" (§2.3). Here the
//! "nodes" are Rayon tasks: projection and octant assignment run as
//! chunked parallel passes, the root's octants are built independently in
//! parallel (sharing the serial builder's `grow_subtree` and `padded_bounds`, so
//! splitting and gradient-refinement decisions are identical by
//! construction), and the pieces are grafted under a common root. The
//! result is bit-identical to the serial build for the same parameters at
//! every pool size: routing preserves ascending particle order, and the
//! sorted store orders equal-density groups by leaf geometry rather than
//! node layout.
//!

use crate::builder::{grow_subtree, padded_bounds, BuildParams, Subtree};
use crate::node::{Node, Octree};
use crate::plots::PlotType;
use crate::sorted_store::PartitionedData;
use accelviz_beam::particle::Particle;
use accelviz_math::Vec3;
use rayon::prelude::*;

/// Partitions a particle dump using the multi-node (domain-decomposed)
/// strategy: the root volume is split into its 8 octants, particles are
/// routed to their octant, each octant's subtree is built in parallel, and
/// the pieces are merged into one density-sorted store. Produces the same
/// store as [`crate::builder::partition`], bit for bit.
pub fn partition_parallel(
    particles: &[Particle],
    plot: PlotType,
    params: BuildParams,
) -> PartitionedData {
    let mut span = accelviz_trace::span("octree.parallel_partition");
    span.arg("particles", particles.len() as f64);
    span.arg("pool_threads", rayon::current_num_threads() as f64);
    // Match the serial builder: non-finite particles (lost particles some
    // codes write as NaN/Inf) would poison bounds and octant assignment.
    let data = if particles.iter().all(|p| p.is_finite()) {
        partition_parallel_finite(particles, plot, params)
    } else {
        let finite: Vec<Particle> = particles
            .iter()
            .copied()
            .filter(|p| p.is_finite())
            .collect();
        partition_parallel_finite(&finite, plot, params)
    };
    let secs = span.elapsed_seconds();
    if secs > 0.0 {
        span.arg("particles_per_sec", particles.len() as f64 / secs);
    }
    data
}

fn partition_parallel_finite(
    particles: &[Particle],
    plot: PlotType,
    params: BuildParams,
) -> PartitionedData {
    // Inputs the serial builder keeps as a single root leaf (or cannot
    // subdivide at all) must not be fanned out into octants: the eager
    // 8-way split would produce a different tree shape than the serial
    // build for the same parameters.
    if particles.len() <= params.leaf_capacity || params.max_depth == 0 {
        return crate::builder::partition(particles, plot, params);
    }

    // Projection is embarrassingly parallel; collect preserves order.
    let points: Vec<Vec3> = {
        let _span = accelviz_trace::span("octree.project");
        particles.par_iter().map(|p| plot.project(p)).collect()
    };
    let bounds = padded_bounds(&points);

    // Route particles to root octants (the "assignment" phase) in chunks:
    // per-chunk histograms concatenated in chunk order leave every bucket
    // in ascending particle order — exactly the order the serial builder's
    // single pass produces.
    let route_span = accelviz_trace::span("octree.route");
    let chunk = points
        .len()
        .div_ceil((rayon::current_num_threads() * 4).max(1))
        .max(1024);
    let partials: Vec<[Vec<u32>; 8]> = points
        .par_chunks(chunk)
        .enumerate()
        .map(|(ci, ch)| {
            let base = (ci * chunk) as u32;
            let mut b: [Vec<u32>; 8] = Default::default();
            for (j, &q) in ch.iter().enumerate() {
                b[bounds.octant_index(q)].push(base + j as u32);
            }
            b
        })
        .collect();
    let mut buckets: [Vec<u32>; 8] = Default::default();
    for part in partials {
        for (o, v) in part.into_iter().enumerate() {
            buckets[o].extend(v);
        }
    }
    drop(route_span);

    // Build each octant subtree in parallel with the serial builder's own
    // subdivision routine (depths are global, so depth-limit and
    // gradient-refinement decisions match the serial build exactly).
    // The octant jobs run on pool worker threads, so each span names its
    // logical parent (the fan-out span) explicitly — the worker's own
    // thread-local span stack belongs to whatever it stole last.
    let fanout = accelviz_trace::span("octree.build_octants");
    let fanout_id = fanout.id();
    let pieces: Vec<Subtree> = buckets
        .into_par_iter()
        .enumerate()
        .map(|(oct, items)| {
            let mut span = accelviz_trace::span_child("octree.octant", fanout_id);
            span.arg("octant", oct as f64);
            span.arg("particles", items.len() as f64);
            grow_subtree(&points, bounds.octant(oct), 1, items, &params)
        })
        .collect();
    drop(fanout);

    // Graft the 8 subtrees under one root, re-basing child pointers.
    let mut nodes = vec![Node::leaf(bounds, 0)];
    nodes[0].count = particles.len() as u64;
    // The root's 8 children must be consecutive: reserve their slots first.
    let first_child = nodes.len() as u32; // == 1
    let mut piece_base = Vec::with_capacity(8);
    let mut extra_base = first_child as usize + 8;
    for piece in &pieces {
        piece_base.push((extra_base, piece.nodes.len()));
        extra_base += piece.nodes.len().saturating_sub(1);
    }
    nodes[0].set_children(first_child);
    // Place each piece's root at slot first_child+oct and its remaining
    // nodes at its reserved extra block.
    let mut leaf_slots: Vec<u32> = Vec::new();
    let mut leaf_items: Vec<Vec<u32>> = Vec::new();
    for _ in 0..8 {
        nodes.push(Node::leaf(bounds, 1)); // placeholders, fixed below
    }
    for (oct, piece) in pieces.into_iter().enumerate() {
        let (base, _) = piece_base[oct];
        let remap = |local: u32| -> u32 {
            if local == 0 {
                first_child + oct as u32
            } else {
                (base + local as usize - 1) as u32
            }
        };
        for (local, n) in piece.nodes.iter().enumerate() {
            let mut copy = *n;
            if !n.is_leaf() {
                // Children of `n` are 8 consecutive local slots starting at
                // some local index c; after remapping, non-root locals stay
                // consecutive because only slot 0 is relocated (and slot 0
                // is never a *child*).
                let c = n.child(0).unwrap();
                copy.set_children(remap(c));
            }
            let global = remap(local as u32) as usize;
            if global >= nodes.len() {
                nodes.resize(global + 1, Node::leaf(bounds, 0));
            }
            nodes[global] = copy;
        }
        for (slot, items) in piece.leaves {
            leaf_slots.push(remap(slot));
            leaf_items.push(items);
        }
    }

    let tree = Octree {
        nodes,
        bounds,
        max_depth: params.max_depth,
    };
    PartitionedData::from_build(tree, leaf_slots, leaf_items, particles, plot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GradientRefinement;
    use crate::extraction::extract;
    use accelviz_beam::distribution::Distribution;

    #[test]
    fn parallel_build_covers_all_particles() {
        let ps = Distribution::default_beam().sample(4_000, 13);
        let params = BuildParams {
            max_depth: 4,
            leaf_capacity: 64,
            gradient_refinement: None,
        };
        let data = partition_parallel(&ps, PlotType::XYZ, params);
        data.validate().unwrap();
        assert_eq!(data.particles().len(), ps.len());
    }

    #[test]
    fn parallel_matches_serial_leaf_statistics() {
        let ps = Distribution::default_beam().sample(3_000, 17);
        let params = BuildParams {
            max_depth: 4,
            leaf_capacity: 32,
            gradient_refinement: None,
        };
        let serial = crate::builder::partition(&ps, PlotType::XYZ, params);
        let par = partition_parallel(&ps, PlotType::XYZ, params);
        // Same number of particles, same multiset of (density, len) leaf
        // groups (node layout may differ).
        let mut a: Vec<(u64, u64)> = serial
            .sorted_leaves()
            .iter()
            .map(|&li| {
                let n = &serial.tree().nodes[li as usize];
                (n.density.to_bits(), n.len)
            })
            .filter(|&(_, len)| len > 0)
            .collect();
        let mut b: Vec<(u64, u64)> = par
            .sorted_leaves()
            .iter()
            .map(|&li| {
                let n = &par.tree().nodes[li as usize];
                (n.density.to_bits(), n.len)
            })
            .filter(|&(_, len)| len > 0)
            .collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_particle_file_is_bit_identical_to_serial() {
        let ps = Distribution::default_beam().sample(6_000, 23);
        let params = BuildParams {
            max_depth: 5,
            leaf_capacity: 32,
            gradient_refinement: None,
        };
        let serial = crate::builder::partition(&ps, PlotType::XYZ, params);
        let par = partition_parallel(&ps, PlotType::XYZ, params);
        assert_eq!(serial.particles(), par.particles());
        assert_eq!(serial.tree().nodes.len(), par.tree().nodes.len());
        let dens = |d: &PartitionedData| -> Vec<(u64, u64)> {
            d.sorted_leaves()
                .iter()
                .map(|&li| {
                    let n = &d.tree().nodes[li as usize];
                    (n.density.to_bits(), n.len)
                })
                .collect()
        };
        assert_eq!(dens(&serial), dens(&par));
    }

    #[test]
    fn parallel_applies_gradient_refinement_like_serial() {
        let ps = Distribution::default_beam().sample(20_000, 29);
        let params = BuildParams {
            max_depth: 3,
            leaf_capacity: 32,
            gradient_refinement: Some(GradientRefinement {
                extra_depth: 2,
                contrast_threshold: 6.0,
            }),
        };
        let serial = crate::builder::partition(&ps, PlotType::XYZ, params);
        let par = partition_parallel(&ps, PlotType::XYZ, params);
        assert!(par.tree().deepest_level() > 3, "refinement must deepen");
        assert_eq!(serial.tree().deepest_level(), par.tree().deepest_level());
        assert_eq!(serial.tree().nodes.len(), par.tree().nodes.len());
        assert_eq!(serial.particles(), par.particles());
    }

    #[test]
    fn parallel_drops_non_finite_particles_like_serial() {
        let mut ps = Distribution::default_beam().sample(2_000, 31);
        ps[7].position.y = f64::NAN;
        ps[600].momentum.x = f64::INFINITY;
        let params = BuildParams {
            max_depth: 4,
            leaf_capacity: 32,
            gradient_refinement: None,
        };
        let serial = crate::builder::partition(&ps, PlotType::XYZ, params);
        let par = partition_parallel(&ps, PlotType::XYZ, params);
        assert_eq!(par.particles().len(), 1_998);
        assert_eq!(serial.particles(), par.particles());
    }

    #[test]
    fn parallel_extraction_matches_serial() {
        let ps = Distribution::default_beam().sample(3_000, 19);
        let params = BuildParams {
            max_depth: 4,
            leaf_capacity: 32,
            gradient_refinement: None,
        };
        let serial = crate::builder::partition(&ps, PlotType::XYZ, params);
        let par = partition_parallel(&ps, PlotType::XYZ, params);
        for t in [1e3, 1e6, 1e9] {
            assert_eq!(
                extract(&serial, t).particles.len(),
                extract(&par, t).particles.len(),
                "threshold {t}"
            );
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let data = partition_parallel(&[], PlotType::XYZ, BuildParams::default());
        assert_eq!(data.particles().len(), 0);
        let ps = Distribution::default_beam().sample(5, 1);
        let data = partition_parallel(&ps, PlotType::XYZ, BuildParams::default());
        data.validate().unwrap();
        assert_eq!(data.particles().len(), 5);
        // Inputs under the leaf capacity stay a single root leaf, exactly
        // like the serial build (the old fan-out split them into octants).
        assert_eq!(data.tree().nodes.len(), 1);
    }
}
