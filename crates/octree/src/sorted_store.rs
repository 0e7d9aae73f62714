//! The density-sorted two-part storage layout of the paper (§2.3):
//!
//! "This octree is written out to disk in two parts: one part contains all
//! the particles of the simulation, the other contains the octree nodes
//! themselves. In the particle files, particles in the same octree node are
//! grouped together, and the groups are sorted in order of increasing
//! density. Each node in the octree then contains an offset into the
//! particle file and the number of particles in its group."

use crate::node::Octree;
use crate::plots::PlotType;
use accelviz_beam::io::BYTES_PER_PARTICLE;
use accelviz_beam::particle::Particle;

/// A partitioned time step: the octree (node file) plus the density-sorted
/// particle array (particle file). All of the original data is present, so
/// — as the paper notes — the raw dump could be discarded.
#[derive(Clone, Debug)]
pub struct PartitionedData {
    tree: Octree,
    /// Particles reordered so that each leaf's group is contiguous and the
    /// groups appear in order of increasing density.
    particles: Vec<Particle>,
    /// Leaf node indices in the order their groups appear in `particles`
    /// (i.e. ascending density).
    sorted_leaves: Vec<u32>,
    plot: PlotType,
}

impl PartitionedData {
    /// Assembles the sorted store from the builder's raw output.
    pub(crate) fn from_build(
        mut tree: Octree,
        leaf_slots: Vec<u32>,
        leaf_items: Vec<Vec<u32>>,
        particles: &[Particle],
        plot: PlotType,
    ) -> PartitionedData {
        // Compute per-leaf density = group size / node volume.
        let mut order: Vec<usize> = Vec::new();
        for (slot_pos, &node_idx) in leaf_slots.iter().enumerate() {
            let n = &mut tree.nodes[node_idx as usize];
            if !n.is_leaf() {
                continue;
            }
            let vol = n.bounds.volume().max(1e-300);
            n.len = leaf_items[slot_pos].len() as u64;
            n.density = n.len as f64 / vol;
            order.push(slot_pos);
        }
        // Sort leaf groups by increasing density. Ties are broken by leaf
        // geometry (min corner, then depth) rather than node index: node
        // layout differs between the serial and the grafted parallel
        // build, and this keeps their stores bit-identical. Distinct
        // leaves always have distinct min corners — two octree boxes
        // sharing a corner are nested, and nested nodes cannot both be
        // leaves.
        order.sort_by(|&a, &b| {
            let na = &tree.nodes[leaf_slots[a] as usize];
            let nb = &tree.nodes[leaf_slots[b] as usize];
            na.density
                .partial_cmp(&nb.density)
                .unwrap()
                .then_with(|| na.bounds.min.x.partial_cmp(&nb.bounds.min.x).unwrap())
                .then_with(|| na.bounds.min.y.partial_cmp(&nb.bounds.min.y).unwrap())
                .then_with(|| na.bounds.min.z.partial_cmp(&nb.bounds.min.z).unwrap())
                .then_with(|| na.depth.cmp(&nb.depth))
        });

        let mut sorted = Vec::with_capacity(particles.len());
        let mut sorted_leaves = Vec::with_capacity(order.len());
        for &slot_pos in &order {
            let node_idx = leaf_slots[slot_pos] as usize;
            let offset = sorted.len() as u64;
            for &pi in &leaf_items[slot_pos] {
                sorted.push(particles[pi as usize]);
            }
            let n = &mut tree.nodes[node_idx];
            n.offset = offset;
            sorted_leaves.push(node_idx as u32);
        }
        PartitionedData {
            tree,
            particles: sorted,
            sorted_leaves,
            plot,
        }
    }

    /// Reassembles a store from parts that are *already* in the sorted
    /// layout — a deserialized octree plus its density-ordered particle
    /// array (the run store in `accelviz-store` decodes particle chunks
    /// and rebuilds frames through it). The sorted-leaf order is
    /// recovered from the leaf offsets ([`Octree::leaves_in_store_order`])
    /// and the store invariants are validated before anything is
    /// returned, so corrupt inputs fail here rather than during
    /// extraction.
    pub fn from_sorted_parts(
        tree: Octree,
        particles: Vec<Particle>,
        plot: PlotType,
    ) -> Result<PartitionedData, String> {
        Ok(PartitionedData {
            sorted_leaves: checked_store_order(&tree, particles.len() as u64)?,
            tree,
            particles,
            plot,
        })
    }

    /// The octree ("node file").
    pub fn tree(&self) -> &Octree {
        &self.tree
    }

    /// The density-sorted particle array ("particle file").
    pub fn particles(&self) -> &[Particle] {
        &self.particles
    }

    /// The plot type this partitioning was built for.
    pub fn plot(&self) -> PlotType {
        self.plot
    }

    /// Leaf node indices in ascending-density order.
    pub fn sorted_leaves(&self) -> &[u32] {
        &self.sorted_leaves
    }

    /// The particle group of leaf `node_idx`.
    pub fn leaf_particles(&self, node_idx: usize) -> &[Particle] {
        let n = &self.tree.nodes[node_idx];
        debug_assert!(n.is_leaf());
        &self.particles[n.offset as usize..(n.offset + n.len) as usize]
    }

    /// Size of the particle file in bytes (48 B per particle, as in the
    /// raw dump — partitioning reorders but does not grow the data).
    pub fn particle_file_bytes(&self) -> u64 {
        self.particles.len() as u64 * BYTES_PER_PARTICLE
    }

    /// Size of the node file in bytes.
    pub fn node_file_bytes(&self) -> u64 {
        self.tree.node_file_bytes()
    }

    /// Total stored size.
    pub fn total_bytes(&self) -> u64 {
        self.particle_file_bytes() + self.node_file_bytes()
    }

    /// Converts this partitioning to a different plot type — the feature
    /// the paper marks as future work: "Since the partitioned
    /// representation contains all the data present in the original
    /// representation, it is possible (although not yet implemented) to
    /// discard the original data and convert between different plot type
    /// partitionings" (§2.3). No access to the raw dump is needed.
    pub fn repartition(
        &self,
        new_plot: PlotType,
        params: crate::builder::BuildParams,
    ) -> PartitionedData {
        crate::builder::partition(&self.particles, new_plot, params)
    }

    /// Checks the store invariants (used by tests and debug assertions):
    /// groups are contiguous, cover the particle array exactly, and appear
    /// in ascending density order.
    pub fn validate(&self) -> Result<(), String> {
        check_groups(&self.tree, &self.sorted_leaves, self.particles.len() as u64)
    }
}

/// `tree`'s leaves in store order ([`Octree::leaves_in_store_order`]),
/// checked as [`PartitionedData::validate`] checks a store: their groups
/// tile `particles` records in ascending density. What lets a reader that
/// holds only a prefix of the particles trust the tree to say how long
/// the kept prefix is.
pub fn checked_store_order(tree: &Octree, particles: u64) -> Result<Vec<u32>, String> {
    let order = tree.leaves_in_store_order();
    check_groups(tree, &order, particles)?;
    Ok(order)
}

fn check_groups(tree: &Octree, order: &[u32], particles: u64) -> Result<(), String> {
    let mut expected_offset = 0u64;
    let mut last_density = f64::NEG_INFINITY;
    for &li in order {
        let n = &tree.nodes[li as usize];
        if !n.is_leaf() {
            return Err(format!("sorted leaf {li} is not a leaf"));
        }
        if n.offset != expected_offset {
            return Err(format!(
                "group of leaf {li} starts at {} expected {expected_offset}",
                n.offset
            ));
        }
        // A NaN density is out of order: nothing sorts it.
        if n.density.is_nan() || n.density < last_density {
            return Err(format!(
                "density order violated at leaf {li}: {} after {last_density}",
                n.density
            ));
        }
        last_density = n.density;
        expected_offset = expected_offset
            .checked_add(n.len)
            .ok_or_else(|| format!("group of leaf {li} overflows the store"))?;
    }
    if expected_offset != particles {
        return Err(format!(
            "groups cover {expected_offset} of {particles} particles"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{partition, BuildParams};
    use accelviz_beam::distribution::Distribution;

    fn build(n: usize) -> PartitionedData {
        let ps = Distribution::default_beam().sample(n, 11);
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
    fn store_invariants_hold() {
        let data = build(5_000);
        data.validate().unwrap();
    }

    #[test]
    fn groups_are_sorted_by_increasing_density() {
        let data = build(5_000);
        let densities: Vec<f64> = data
            .sorted_leaves()
            .iter()
            .map(|&li| data.tree().nodes[li as usize].density)
            .collect();
        for w in densities.windows(2) {
            assert!(w[0] <= w[1], "density order violated: {} > {}", w[0], w[1]);
        }
        // A beam has real density contrast: max over min-nonzero should be
        // large (the paper quotes thousands for core vs halo).
        let nonzero: Vec<f64> = densities.iter().copied().filter(|&d| d > 0.0).collect();
        assert!(nonzero.last().unwrap() / nonzero.first().unwrap() > 10.0);
    }

    #[test]
    fn offsets_tile_particle_file() {
        let data = build(3_000);
        let mut seen = vec![false; data.particles().len()];
        for &li in data.sorted_leaves() {
            let n = &data.tree().nodes[li as usize];
            for i in n.offset..n.offset + n.len {
                assert!(!seen[i as usize], "particle {i} covered twice");
                seen[i as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn reassembling_from_the_tree_alone_recovers_the_store() {
        let data = build(3_000);
        let back = PartitionedData::from_sorted_parts(
            data.tree().clone(),
            data.particles().to_vec(),
            data.plot(),
        )
        .unwrap();
        // The recovered order may permute the empty groups at offset 0;
        // every leaf with particles sits where the build put it.
        let groups = |d: &PartitionedData| -> Vec<u32> {
            d.sorted_leaves()
                .iter()
                .copied()
                .filter(|&li| d.tree().nodes[li as usize].len > 0)
                .collect()
        };
        assert_eq!(groups(&back), groups(&data));
        assert_eq!(back.sorted_leaves().len(), data.sorted_leaves().len());
        // Particles that do not match the tree are refused.
        let short = data.particles()[..100].to_vec();
        assert!(
            PartitionedData::from_sorted_parts(data.tree().clone(), short, data.plot()).is_err()
        );
    }

    #[test]
    fn a_nan_density_breaks_the_store_order() {
        let data = build(3_000);
        let n = data.particles().len() as u64;
        assert_eq!(
            checked_store_order(data.tree(), n).unwrap(),
            data.tree().leaves_in_store_order()
        );
        // NaN compares false both ways, so `NaN < last` alone lets it pass
        // and the leaves after it would no longer form a prefix.
        for at in [
            0,
            data.sorted_leaves().len() / 2,
            data.sorted_leaves().len() - 1,
        ] {
            let mut tree = data.tree().clone();
            tree.nodes[data.sorted_leaves()[at] as usize].density = f64::NAN;
            let err = checked_store_order(&tree, n).unwrap_err();
            assert!(err.contains("density order"), "leaf {at}: {err}");
            let parts =
                PartitionedData::from_sorted_parts(tree, data.particles().to_vec(), data.plot());
            assert!(parts.is_err(), "leaf {at}");
        }
    }

    #[test]
    fn storage_accounting() {
        let data = build(1_000);
        assert_eq!(data.particle_file_bytes(), 48_000);
        assert_eq!(data.node_file_bytes(), data.tree().nodes.len() as u64 * 88);
        assert_eq!(data.total_bytes(), 48_000 + data.node_file_bytes());
    }

    #[test]
    fn repartitioning_changes_plot_without_the_raw_dump() {
        let data = build(3_000);
        assert_eq!(data.plot(), PlotType::XYZ);
        let converted = data.repartition(
            PlotType::MOMENTUM,
            BuildParams {
                max_depth: 4,
                leaf_capacity: 64,
                gradient_refinement: None,
            },
        );
        converted.validate().unwrap();
        assert_eq!(converted.plot(), PlotType::MOMENTUM);
        assert_eq!(converted.particles().len(), data.particles().len());
        // The conversion is lossless: converting back reproduces the same
        // leaf statistics as the original build.
        let back = converted.repartition(
            PlotType::XYZ,
            BuildParams {
                max_depth: 4,
                leaf_capacity: 64,
                gradient_refinement: None,
            },
        );
        let stats = |d: &PartitionedData| {
            let mut v: Vec<(u64, u64)> = d
                .sorted_leaves()
                .iter()
                .map(|&li| {
                    let n = &d.tree().nodes[li as usize];
                    (n.density.to_bits(), n.len)
                })
                .filter(|&(_, len)| len > 0)
                .collect();
            v.sort();
            v
        };
        assert_eq!(stats(&back), stats(&data));
    }

    #[test]
    fn partitioning_preserves_the_multiset_of_particles() {
        let ps = Distribution::default_beam().sample(2_000, 5);
        let data = partition(&ps, PlotType::XYZ, BuildParams::default());
        // Compare sorted coordinate lists (cheap multiset equality).
        let mut orig: Vec<[u64; 2]> = ps
            .iter()
            .map(|p| [p.position.x.to_bits(), p.momentum.y.to_bits()])
            .collect();
        let mut part: Vec<[u64; 2]> = data
            .particles()
            .iter()
            .map(|p| [p.position.x.to_bits(), p.momentum.y.to_bits()])
            .collect();
        orig.sort();
        part.sort();
        assert_eq!(orig, part);
    }
}
