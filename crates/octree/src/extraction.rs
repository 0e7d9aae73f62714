//! Threshold extraction: the paper's fast second preprocessing step
//! (§2.3).
//!
//! "The extraction program converts the partitioned data into the hybrid
//! representation. It is given a partitioned frame and a threshold density.
//! Particles in octree nodes below the threshold density are stored in the
//! hybrid representation. All other points ... are discarded. ... Since the
//! particle file is sorted in order of increasing density, all particles
//! required for any hybrid representation are in a contiguous block at the
//! beginning of the file. This portion of the particle data is just copied
//! to the output; no computation is necessary for the particles, and
//! discarded particles are never read from disk."

use crate::node::Octree;
use crate::sorted_store::PartitionedData;
use accelviz_beam::io::BYTES_PER_PARTICLE;
use accelviz_beam::particle::Particle;

/// The result of extracting a hybrid representation at a threshold
/// density: a borrowed prefix of the particle file (the point-rendered
/// halo) plus bookkeeping for the paper's size/accuracy trade-off.
#[derive(Clone, Copy, Debug)]
pub struct HybridExtract<'a> {
    /// The kept particles — exactly the contiguous prefix of the sorted
    /// particle file whose leaf densities are below the threshold.
    pub particles: &'a [Particle],
    /// The threshold density that was applied.
    pub threshold: f64,
    /// Number of leaves whose groups were kept.
    pub leaves_kept: usize,
    /// Number of particles discarded (never read in the on-disk model).
    pub discarded: u64,
}

impl<'a> HybridExtract<'a> {
    /// Size of the extracted point data in bytes.
    pub fn point_bytes(&self) -> u64 {
        self.particles.len() as u64 * BYTES_PER_PARTICLE
    }

    /// Fraction of the original particles kept.
    pub fn kept_fraction(&self) -> f64 {
        let total = self.particles.len() as u64 + self.discarded;
        if total == 0 {
            0.0
        } else {
            self.particles.len() as f64 / total as f64
        }
    }
}

/// Extracts the hybrid point set at `threshold` density from a partitioned
/// frame: [`extract_sorted`] over its sorted leaves and particles.
///
/// Runs in O(log L) in the number of leaves (binary search over the sorted
/// leaf densities) — the extraction itself is a zero-copy prefix borrow,
/// faithfully modeling "no computation is necessary for the particles".
pub fn extract(data: &PartitionedData, threshold: f64) -> HybridExtract<'_> {
    extract_sorted(
        data.tree(),
        data.sorted_leaves(),
        data.particles(),
        threshold,
    )
}

/// The one extraction: `tree`'s leaves, in `store_order`, below
/// `threshold`, and their particles — the first [`kept_prefix`] records
/// of `particles`, which need hold only that many. A reader holding a
/// frame's tree and kept prefix, not its whole particle file, extracts
/// with this; `store_order` must satisfy the store invariant (groups tile
/// the particle file in ascending density, as
/// [`crate::sorted_store::checked_store_order`] checks).
pub fn extract_sorted<'a>(
    tree: &Octree,
    store_order: &[u32],
    particles: &'a [Particle],
    threshold: f64,
) -> HybridExtract<'a> {
    let mut span = accelviz_trace::span("octree.extract");
    let visits = std::cell::Cell::new(0u64);
    let (cut, prefix_len) = kept_cut(tree, store_order, threshold, &visits);
    let total = store_order.last().map_or(0, |&li| {
        let last = &tree.nodes[li as usize];
        last.offset + last.len
    });
    let result = HybridExtract {
        particles: &particles[..prefix_len as usize],
        threshold,
        leaves_kept: cut,
        discarded: total - prefix_len,
    };
    if span.is_active() {
        span.arg("threshold", threshold);
        span.arg("node_visits", visits.get() as f64);
        span.arg("leaves_kept", result.leaves_kept as f64);
        span.arg("kept", result.particles.len() as f64);
        span.arg("discarded", result.discarded as f64);
    }
    result
}

/// How many particles [`extract_sorted`] keeps at `threshold`: the end of
/// the last group, in `store_order`, below the threshold. This is the
/// length of the prefix of the particle store to read — "discarded
/// particles are never read from disk".
pub fn kept_prefix(tree: &Octree, store_order: &[u32], threshold: f64) -> u64 {
    kept_cut(tree, store_order, threshold, &std::cell::Cell::new(0)).1
}

/// The kept leaves and the kept prefix length at `threshold`, counting in
/// `visits` the node visits of the binary search.
fn kept_cut(
    tree: &Octree,
    store_order: &[u32],
    threshold: f64,
    visits: &std::cell::Cell<u64>,
) -> (usize, u64) {
    // partition_point: first leaf whose density is >= threshold. The
    // comparator count is the real number of node visits the binary
    // search performed — the instrumented evidence for the O(log L)
    // claim on [`extract`].
    let cut = store_order.partition_point(|&li| {
        visits.set(visits.get() + 1);
        tree.nodes[li as usize].density < threshold
    });
    let prefix_len = match cut {
        0 => 0,
        _ => {
            let last = &tree.nodes[store_order[cut - 1] as usize];
            last.offset + last.len
        }
    };
    (cut, prefix_len)
}

/// Finds the threshold density that keeps (approximately, rounding up to a
/// whole leaf group) the requested number of particles. Supports the
/// paper's workflow of tuning output size: "the threshold density
/// parameter ... allows the user to balance file size and visual
/// accuracy".
pub fn threshold_for_budget(data: &PartitionedData, max_particles: usize) -> f64 {
    budget_threshold(data.tree(), data.sorted_leaves(), max_particles)
}

/// The density of the first leaf, in store order, whose group would take
/// the kept count past `max_particles`; `+∞` when every group fits.
fn budget_threshold(tree: &Octree, store_order: &[u32], max_particles: usize) -> f64 {
    let mut kept = 0u64;
    for &li in store_order {
        let n = &tree.nodes[li as usize];
        if kept + n.len > max_particles as u64 {
            return n.density;
        }
        kept += n.len;
    }
    f64::INFINITY
}

/// Plans a coarse-to-fine refinement schedule over a density-sorted
/// point prefix.
///
/// `run_lengths` are the sizes of consecutive equal-density groups (the
/// octree leaf groups, in the sorted store's ascending-density order) and
/// `chunk_points` is the per-cut point budget. Returns ascending,
/// group-aligned cumulative point counts: a progressive stream sends
/// points `[0, cuts[0])` first, then the deltas `[cuts[i-1], cuts[i])`.
/// Cuts never split a group — a partial frame therefore always holds
/// *complete* leaf groups, so its point set is exactly what a lower
/// extraction threshold would have produced (the prefix property of the
/// sorted store). The last cut is always the full prefix length, and at
/// least one cut is returned even for an empty prefix.
pub fn align_cuts(run_lengths: &[usize], chunk_points: usize) -> Vec<usize> {
    let chunk = chunk_points.max(1);
    let mut cuts = Vec::new();
    let mut total = 0usize;
    let mut since_cut = 0usize;
    for &len in run_lengths {
        total += len;
        since_cut += len;
        if since_cut >= chunk {
            cuts.push(total);
            since_cut = 0;
        }
    }
    if cuts.last() != Some(&total) {
        cuts.push(total);
    }
    cuts
}

/// The progressive cut schedule for an extraction at `threshold`:
/// [`align_cuts`] over the kept leaf groups. Because the particle file
/// is density-sorted, every cut is a contiguous prefix — "no computation
/// is necessary for the particles" holds for each refinement slice just
/// as it does for the full extraction.
pub fn progressive_cuts(data: &PartitionedData, threshold: f64, chunk_points: usize) -> Vec<usize> {
    let ex = extract(data, threshold);
    let runs: Vec<usize> = data
        .sorted_leaves()
        .iter()
        .take(ex.leaves_kept)
        .map(|&li| data.tree().nodes[li as usize].len as usize)
        .collect();
    let cuts = align_cuts(&runs, chunk_points);
    debug_assert_eq!(cuts.last().copied(), Some(ex.particles.len()));
    cuts
}

/// [`threshold_for_budget`] from the octree alone, without the particle
/// array. The density order is recovered from the leaf offsets
/// ([`Octree::leaves_in_store_order`]; the store invariant is that groups
/// appear in ascending density) — so an out-of-core server can answer
/// "what threshold fits this budget?" for a frame whose particles are not
/// resident, reading only the node blob.
pub fn threshold_for_budget_tree(tree: &Octree, max_particles: usize) -> f64 {
    budget_threshold(tree, &tree.leaves_in_store_order(), max_particles)
}

/// [`kept_prefix`] from the octree alone, its store order recovered from
/// the leaf offsets ([`Octree::leaves_in_store_order`]); equals
/// `extract(data, threshold).particles.len()`.
pub fn kept_prefix_tree(tree: &Octree, threshold: f64) -> u64 {
    kept_prefix(tree, &tree.leaves_in_store_order(), threshold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{partition, BuildParams};
    use crate::plots::PlotType;
    use accelviz_beam::distribution::Distribution;

    fn build(n: usize) -> PartitionedData {
        let ps = Distribution::default_beam().sample(n, 21);
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
    fn extraction_equals_filter_by_threshold() {
        let data = build(5_000);
        for threshold in [0.0, 1e3, 1e6, 1e9, f64::INFINITY] {
            let ex = extract(&data, threshold);
            // Reference: brute-force filter over leaves.
            let expected: u64 = data
                .sorted_leaves()
                .iter()
                .map(|&li| &data.tree().nodes[li as usize])
                .filter(|n| n.density < threshold)
                .map(|n| n.len)
                .sum();
            assert_eq!(ex.particles.len() as u64, expected, "threshold {threshold}");
            assert_eq!(ex.discarded, data.particles().len() as u64 - expected);
        }
    }

    #[test]
    fn zero_threshold_keeps_nothing_infinite_keeps_everything() {
        let data = build(2_000);
        assert_eq!(extract(&data, 0.0).particles.len(), 0);
        let all = extract(&data, f64::INFINITY);
        assert_eq!(all.particles.len(), 2_000);
        assert_eq!(all.discarded, 0);
        assert!((all.kept_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn extracted_particles_really_come_from_low_density_leaves() {
        let data = build(5_000);
        let leaves = data.sorted_leaves();
        let mid = data.tree().nodes[leaves[leaves.len() / 2] as usize].density;
        let ex = extract(&data, mid);
        // Every kept particle must belong to a leaf with density < mid.
        let mut covered = 0usize;
        for &li in leaves {
            let n = &data.tree().nodes[li as usize];
            if n.density < mid {
                covered += n.len as usize;
            }
        }
        assert_eq!(ex.particles.len(), covered);
    }

    #[test]
    fn higher_threshold_keeps_superset() {
        let data = build(5_000);
        let low = extract(&data, 1e5);
        let high = extract(&data, 1e8);
        assert!(high.particles.len() >= low.particles.len());
        // Prefix property: the low extraction is literally a prefix of the
        // high one.
        assert_eq!(&high.particles[..low.particles.len()], low.particles);
    }

    #[test]
    fn point_bytes_accounting() {
        let data = build(1_000);
        let ex = extract(&data, f64::INFINITY);
        assert_eq!(ex.point_bytes(), 48_000);
    }

    #[test]
    fn budget_threshold_respects_budget() {
        let data = build(5_000);
        for budget in [0usize, 10, 500, 2_500, 5_000, 10_000] {
            let t = threshold_for_budget(&data, budget);
            let ex = extract(&data, t);
            assert!(
                ex.particles.len() <= budget.max(ex.particles.len().min(budget)),
                "budget {budget} exceeded: kept {}",
                ex.particles.len()
            );
            assert!(ex.particles.len() <= budget || budget == 0);
        }
        // An over-generous budget keeps everything.
        let t = threshold_for_budget(&data, usize::MAX);
        assert_eq!(extract(&data, t).particles.len(), 5_000);
    }

    #[test]
    fn tree_only_budget_threshold_agrees_with_the_full_store() {
        let data = build(5_000);
        for budget in [0usize, 1, 99, 500, 2_500, 5_000, usize::MAX] {
            assert_eq!(
                threshold_for_budget_tree(data.tree(), budget).to_bits(),
                threshold_for_budget(&data, budget).to_bits(),
                "budget {budget}"
            );
        }
    }

    #[test]
    fn tree_only_kept_prefix_equals_the_extraction_length() {
        // Seeded frames of varied size, plot and tree shape; thresholds at
        // every leaf density, between each neighbouring pair, and at the
        // special values.
        let plots = PlotType::FIGURE2;
        for seed in 0..12u64 {
            let ps = Distribution::default_beam().sample(200 + 700 * seed as usize, seed);
            let params = BuildParams {
                max_depth: 2 + (seed % 5) as u32,
                leaf_capacity: 8 << (seed % 4),
                gradient_refinement: None,
            };
            let data = partition(&ps, plots[seed as usize % plots.len()], params);
            let mut densities: Vec<f64> = data
                .sorted_leaves()
                .iter()
                .map(|&li| data.tree().nodes[li as usize].density)
                .collect();
            densities.dedup();
            let mids: Vec<f64> = densities.windows(2).map(|w| 0.5 * (w[0] + w[1])).collect();
            let special = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
            for t in densities.iter().chain(&mids).chain(&special).copied() {
                assert_eq!(
                    kept_prefix_tree(data.tree(), t),
                    extract(&data, t).particles.len() as u64,
                    "seed {seed}, threshold {t}"
                );
            }
        }
    }

    #[test]
    fn align_cuts_is_group_aligned_ascending_and_complete() {
        let runs = [3usize, 5, 1, 0, 7, 2, 2];
        let total: usize = runs.iter().sum();
        for chunk in [1usize, 2, 4, 6, 100] {
            let cuts = align_cuts(&runs, chunk);
            assert_eq!(cuts.last().copied(), Some(total), "chunk {chunk}");
            // Strictly gaining ground (no empty refinement slices) and
            // every cut lies on a group boundary.
            let mut boundaries = vec![];
            let mut acc = 0;
            for &r in &runs {
                acc += r;
                boundaries.push(acc);
            }
            let mut prev = 0;
            for &c in &cuts {
                assert!(c >= prev, "cuts must ascend");
                assert!(boundaries.contains(&c) || c == 0, "cut {c} splits a group");
                prev = c;
            }
        }
        // Degenerate inputs still yield a terminal cut.
        assert_eq!(align_cuts(&[], 8), vec![0]);
        assert_eq!(align_cuts(&[0, 0], 8), vec![0]);
    }

    #[test]
    fn progressive_cuts_end_at_the_extraction_length() {
        let data = build(5_000);
        let mid = {
            let leaves = data.sorted_leaves();
            data.tree().nodes[leaves[leaves.len() / 2] as usize].density
        };
        for threshold in [0.0, mid, f64::INFINITY] {
            let ex = extract(&data, threshold);
            for chunk in [1usize, 64, 1_000, 100_000] {
                let cuts = progressive_cuts(&data, threshold, chunk);
                assert_eq!(cuts.last().copied(), Some(ex.particles.len()));
                // Each cut is itself a valid extraction prefix: the points
                // below it are exactly the first `cut` sorted particles.
                for &c in &cuts {
                    assert_eq!(
                        &ex.particles[..c.min(ex.particles.len())],
                        &data.particles()[..c]
                    );
                }
            }
        }
    }

    #[test]
    fn empty_partition_extracts_empty() {
        let data = partition(&[], PlotType::XYZ, BuildParams::default());
        let ex = extract(&data, 1.0);
        assert_eq!(ex.particles.len(), 0);
        assert_eq!(ex.kept_fraction(), 0.0);
    }
}
