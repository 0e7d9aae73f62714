//! Octree construction: the paper's *partitioning* program (§2.3).
//!
//! "The partitioning program organizes the unstructured point data into an
//! octree. It is provided a time-step number, a plot type ... and a maximal
//! subdivision level. It then reads in all the points and inserts them into
//! an octree."

use crate::node::{Node, Octree};
use crate::plots::PlotType;
use crate::sorted_store::PartitionedData;
use accelviz_beam::particle::Particle;
use accelviz_math::{Aabb, Vec3};

/// Gradient-driven extra refinement (§2.5).
///
/// "One important effect that occurs in larger simulations is that the
/// octree must be subdivided more finely where there is a high gradient.
/// ... If a higher level of subdivision is not used, the outline of the
/// lowest level octree nodes will be visible at the boundary of the halo
/// region. For low gradients, a shallower depth of octree subdivision can
/// be used without introducing significant artifacts, saving valuable
/// space."
#[derive(Clone, Copy, Debug)]
pub struct GradientRefinement {
    /// How many levels past `max_depth` a high-gradient node may subdivide.
    pub extra_depth: u32,
    /// Occupancy contrast between a node's fullest and emptiest octants
    /// (max/(min+1)) above which the node counts as high-gradient.
    pub contrast_threshold: f64,
}

impl Default for GradientRefinement {
    fn default() -> GradientRefinement {
        GradientRefinement {
            extra_depth: 2,
            contrast_threshold: 8.0,
        }
    }
}

/// Parameters of the octree build.
#[derive(Clone, Copy, Debug)]
pub struct BuildParams {
    /// Maximal subdivision level. Deeper nodes are never created (except
    /// by gradient refinement) — the paper's guard that "prevents the
    /// octree from becoming impractically large".
    pub max_depth: u32,
    /// A node with at most this many particles is kept as a leaf even if
    /// the depth limit would allow further subdivision.
    pub leaf_capacity: usize,
    /// Optional gradient-driven refinement beyond `max_depth`.
    pub gradient_refinement: Option<GradientRefinement>,
}

impl Default for BuildParams {
    fn default() -> BuildParams {
        BuildParams {
            max_depth: 6,
            leaf_capacity: 256,
            gradient_refinement: None,
        }
    }
}

/// Partitions a particle dump into a density-sorted octree representation
/// for the given plot type. This is the expensive one-time step of the
/// paper's pipeline; see [`crate::extraction`] for the fast repeatable
/// step.
pub fn partition(particles: &[Particle], plot: PlotType, params: BuildParams) -> PartitionedData {
    let mut span = accelviz_trace::span("octree.partition");
    span.arg("particles", particles.len() as f64);
    let data = partition_impl(particles, plot, params);
    let secs = span.elapsed_seconds();
    if secs > 0.0 {
        span.arg("particles_per_sec", particles.len() as f64 / secs);
    }
    data
}

fn partition_impl(particles: &[Particle], plot: PlotType, params: BuildParams) -> PartitionedData {
    // Production dumps occasionally contain non-finite particles (lost
    // particles written as NaN/Inf by some codes); they would poison the
    // bounds and octant assignment, so they are dropped here.
    if particles.iter().all(|p| p.is_finite()) {
        let points: Vec<Vec3> = particles.iter().map(|p| plot.project(p)).collect();
        partition_projected(particles, points, plot, params)
    } else {
        let finite: Vec<Particle> = particles
            .iter()
            .copied()
            .filter(|p| p.is_finite())
            .collect();
        let points: Vec<Vec3> = finite.iter().map(|p| plot.project(p)).collect();
        partition_projected(&finite, points, plot, params)
    }
}

/// Partitioning core, reused by the parallel (domain-decomposed) build:
/// takes pre-projected points.
pub(crate) fn partition_projected(
    particles: &[Particle],
    points: Vec<Vec3>,
    plot: PlotType,
    params: BuildParams,
) -> PartitionedData {
    let bounds = padded_bounds(&points);
    let all: Vec<u32> = (0..points.len() as u32).collect();
    let sub = grow_subtree(&points, bounds, 0, all, &params);
    let (leaf_slots, leaf_items): (Vec<u32>, Vec<Vec<u32>>) = sub.leaves.into_iter().unzip();
    let tree = Octree {
        nodes: sub.nodes,
        bounds,
        max_depth: params.max_depth,
    };
    PartitionedData::from_build(tree, leaf_slots, leaf_items, particles, plot)
}

/// One grown subtree: nodes indexed locally (root at 0) plus the live
/// leaves as `(local node index, particle indices)`.
pub(crate) struct Subtree {
    pub(crate) nodes: Vec<Node>,
    pub(crate) leaves: Vec<(u32, Vec<u32>)>,
}

/// Grows one subtree breadth-first from a root at `root_depth` holding
/// `items`. This single routine serves both the serial build (root depth
/// 0, all particles) and the parallel domain-decomposed build (one call
/// per root octant at depth 1), so the two paths cannot diverge on
/// splitting or gradient-refinement decisions.
pub(crate) fn grow_subtree(
    points: &[Vec3],
    bounds: Aabb,
    root_depth: u32,
    items: Vec<u32>,
    params: &BuildParams,
) -> Subtree {
    let mut nodes = vec![Node::leaf(bounds, root_depth)];
    nodes[0].count = items.len() as u64;

    // Per-leaf particle index lists; `leaf_items[i]` belongs to `nodes`
    // entry `leaf_slots[i]`.
    let mut leaf_items: Vec<Vec<u32>> = vec![items];
    let mut leaf_slots: Vec<u32> = vec![0];

    // Breadth-first subdivision.
    let hard_cap = params.max_depth + params.gradient_refinement.map_or(0, |g| g.extra_depth);
    let mut cursor = 0;
    while cursor < leaf_slots.len() {
        let node_idx = leaf_slots[cursor] as usize;
        let (depth, node_bounds, count) = {
            let n = &nodes[node_idx];
            (n.depth, n.bounds, n.count as usize)
        };
        if depth >= hard_cap || count <= params.leaf_capacity {
            cursor += 1;
            continue;
        }

        // Bucket first; past max_depth the split only happens when the
        // octant occupancy contrast marks this as a high-gradient node.
        let items = std::mem::take(&mut leaf_items[cursor]);
        let mut buckets: [Vec<u32>; 8] = Default::default();
        for &idx in &items {
            let o = node_bounds.octant_index(points[idx as usize]);
            buckets[o].push(idx);
        }
        if depth >= params.max_depth {
            let refinement = params
                .gradient_refinement
                .expect("past max_depth only reachable with refinement enabled");
            let max_occ = buckets.iter().map(Vec::len).max().unwrap_or(0) as f64;
            let min_occ = buckets.iter().map(Vec::len).min().unwrap_or(0) as f64;
            if max_occ / (min_occ + 1.0) < refinement.contrast_threshold {
                // Low gradient: stay a leaf, restore the items.
                leaf_items[cursor] = items;
                cursor += 1;
                continue;
            }
        }

        // Split this leaf into 8 children.
        let first_child = nodes.len() as u32;
        for i in 0..8 {
            let mut child = Node::leaf(node_bounds.octant(i), depth + 1);
            child.count = 0;
            nodes.push(child);
        }
        nodes[node_idx].set_children(first_child);
        for (i, bucket) in buckets.into_iter().enumerate() {
            let child_idx = first_child as usize + i;
            nodes[child_idx].count = bucket.len() as u64;
            leaf_slots.push(first_child + i as u32);
            leaf_items.push(bucket);
        }
        cursor += 1;
    }

    let leaves = leaf_slots
        .into_iter()
        .zip(leaf_items)
        .filter(|(slot, _)| nodes[*slot as usize].is_leaf())
        .collect();
    Subtree { nodes, leaves }
}

/// Smallest box around the points, padded so that points on the max faces
/// satisfy the half-open octant convention; degenerate/empty inputs get a
/// unit box.
pub(crate) fn padded_bounds(points: &[Vec3]) -> Aabb {
    let raw = Aabb::from_points(points.iter().copied());
    if raw.is_empty() {
        return Aabb::new(Vec3::ZERO, Vec3::ONE);
    }
    let size = raw.size();
    let pad = Vec3::new(
        (size.x * 1e-9).max(1e-12),
        (size.y * 1e-9).max(1e-12),
        (size.z * 1e-9).max(1e-12),
    );
    Aabb::new(raw.min, raw.max + pad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelviz_beam::distribution::Distribution;

    fn sample(n: usize) -> Vec<Particle> {
        Distribution::default_beam().sample(n, 42)
    }

    #[test]
    fn every_particle_lands_in_exactly_one_leaf() {
        let ps = sample(3_000);
        let data = partition(&ps, PlotType::XYZ, BuildParams::default());
        let total: u64 = data
            .tree()
            .leaf_indices()
            .map(|i| data.tree().nodes[i].len)
            .sum();
        assert_eq!(total, ps.len() as u64);
        assert_eq!(data.particles().len(), ps.len());
    }

    #[test]
    fn leaves_respect_depth_limit() {
        let ps = sample(5_000);
        let params = BuildParams {
            max_depth: 3,
            leaf_capacity: 1,
            gradient_refinement: None,
        };
        let data = partition(&ps, PlotType::XYZ, params);
        assert!(data.tree().deepest_level() <= 3);
    }

    #[test]
    fn gradient_refinement_subdivides_only_high_contrast_nodes() {
        // A focused beam: octants near the core have sharply differing
        // occupancy (high gradient), the tails are smooth. Refinement
        // should deepen the tree but far less than raising max_depth
        // globally would.
        let ps = sample(20_000);
        let base = BuildParams {
            max_depth: 3,
            leaf_capacity: 32,
            gradient_refinement: None,
        };
        let refined = BuildParams {
            gradient_refinement: Some(GradientRefinement {
                extra_depth: 2,
                contrast_threshold: 6.0,
            }),
            ..base
        };
        let global = BuildParams {
            max_depth: 5,
            leaf_capacity: 32,
            gradient_refinement: None,
        };
        let d_base = partition(&ps, PlotType::XYZ, base);
        let d_ref = partition(&ps, PlotType::XYZ, refined);
        let d_glob = partition(&ps, PlotType::XYZ, global);
        assert!(d_ref.tree().deepest_level() > d_base.tree().deepest_level());
        assert!(d_ref.tree().deepest_level() <= 5);
        // "Saving valuable space": selective refinement costs fewer nodes
        // than globally deepening to the same level.
        assert!(
            d_ref.tree().nodes.len() < d_glob.tree().nodes.len(),
            "selective {} vs global {}",
            d_ref.tree().nodes.len(),
            d_glob.tree().nodes.len()
        );
        d_ref.validate().unwrap();
        // All particles still covered.
        let total: u64 = d_ref
            .tree()
            .leaf_indices()
            .map(|i| d_ref.tree().nodes[i].len)
            .sum();
        assert_eq!(total, ps.len() as u64);
    }

    #[test]
    fn refinement_reduces_halo_boundary_blockiness() {
        // The artifact the paper describes: without refinement, "the
        // outline of the lowest level octree nodes will be visible at the
        // boundary of the halo region". Metric: mean edge length of the
        // leaves straddling a fixed extraction threshold.
        use crate::extraction::threshold_for_budget;
        let ps = sample(20_000);
        let coarse = partition(
            &ps,
            PlotType::XYZ,
            BuildParams {
                max_depth: 3,
                leaf_capacity: 32,
                gradient_refinement: None,
            },
        );
        let refined = partition(
            &ps,
            PlotType::XYZ,
            BuildParams {
                max_depth: 3,
                leaf_capacity: 32,
                gradient_refinement: Some(GradientRefinement {
                    extra_depth: 3,
                    contrast_threshold: 4.0,
                }),
            },
        );
        let blockiness = |d: &PartitionedData| -> f64 {
            let t = threshold_for_budget(d, ps.len() / 10);
            // Leaves just below and just above the cutoff: the visible
            // halo boundary.
            let leaves = d.sorted_leaves();
            let cut = leaves.partition_point(|&li| d.tree().nodes[li as usize].density < t);
            let window = 8.min(leaves.len() / 2);
            let lo = cut.saturating_sub(window);
            let hi = (cut + window).min(leaves.len());
            let mut sum = 0.0;
            let mut n = 0;
            for &li in &leaves[lo..hi] {
                sum += d.tree().nodes[li as usize].bounds.longest_edge();
                n += 1;
            }
            sum / n.max(1) as f64
        };
        let b_coarse = blockiness(&coarse);
        let b_refined = blockiness(&refined);
        assert!(
            b_refined < b_coarse,
            "refined boundary leaves must be smaller: {b_refined} vs {b_coarse}"
        );
    }

    #[test]
    fn small_inputs_stay_single_leaf() {
        let ps = sample(10);
        let data = partition(&ps, PlotType::XYZ, BuildParams::default());
        assert_eq!(data.tree().leaf_count(), 1);
        assert_eq!(data.tree().nodes.len(), 1);
    }

    #[test]
    fn non_finite_particles_are_dropped_not_fatal() {
        let mut ps = sample(500);
        ps[10].position.x = f64::NAN;
        ps[20].momentum.z = f64::INFINITY;
        ps[30].position = accelviz_math::Vec3::splat(f64::NEG_INFINITY);
        let data = partition(&ps, PlotType::XYZ, BuildParams::default());
        data.validate().unwrap();
        assert_eq!(data.particles().len(), 497);
        assert!(data.particles().iter().all(|p| p.is_finite()));
    }

    #[test]
    fn empty_input_builds_empty_tree() {
        let data = partition(&[], PlotType::XYZ, BuildParams::default());
        assert_eq!(data.particles().len(), 0);
        assert_eq!(data.tree().root().count, 0);
    }

    #[test]
    fn particles_lie_within_their_leaf_bounds() {
        let ps = sample(2_000);
        let params = BuildParams {
            max_depth: 4,
            leaf_capacity: 32,
            gradient_refinement: None,
        };
        let data = partition(&ps, PlotType::X_PX_Y, params);
        let tree = data.tree();
        for li in tree.leaf_indices() {
            let n = &tree.nodes[li];
            for p in data.leaf_particles(li) {
                let q = PlotType::X_PX_Y.project(p);
                assert!(
                    n.bounds.contains(q),
                    "particle {q} escaped leaf bounds {:?}",
                    n.bounds
                );
            }
        }
    }

    #[test]
    fn subtree_counts_are_consistent() {
        let ps = sample(2_000);
        let data = partition(
            &ps,
            PlotType::XYZ,
            BuildParams {
                max_depth: 4,
                leaf_capacity: 64,
                gradient_refinement: None,
            },
        );
        let tree = data.tree();
        for (i, n) in tree.nodes.iter().enumerate() {
            if !n.is_leaf() {
                let child_sum: u64 = (0..8)
                    .map(|c| tree.nodes[n.child(c).unwrap() as usize].count)
                    .sum();
                assert_eq!(child_sum, n.count, "node {i} count mismatch");
            }
        }
    }

    #[test]
    fn children_tile_parent_bounds() {
        let ps = sample(2_000);
        let data = partition(
            &ps,
            PlotType::XYZ,
            BuildParams {
                max_depth: 3,
                leaf_capacity: 64,
                gradient_refinement: None,
            },
        );
        let tree = data.tree();
        for n in &tree.nodes {
            if !n.is_leaf() {
                let vol: f64 = (0..8)
                    .map(|c| tree.nodes[n.child(c).unwrap() as usize].bounds.volume())
                    .sum();
                assert!((vol - n.bounds.volume()).abs() < 1e-9 * n.bounds.volume().max(1e-30));
            }
        }
    }
}
