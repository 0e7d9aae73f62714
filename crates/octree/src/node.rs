//! Octree node storage.

use accelviz_math::Aabb;

/// Sentinel meaning "no children".
const NO_CHILD: u32 = u32::MAX;

/// One octree node. Interior nodes have children; leaf nodes own a
/// contiguous group of particles in the density-sorted particle store
/// (`offset`, `len`) and carry the group's density.
#[derive(Clone, Copy, Debug)]
pub struct Node {
    /// Spatial bounds of the node in plot space.
    pub bounds: Aabb,
    /// Depth below the root (root = 0).
    pub depth: u32,
    /// Index of the first child in [`Octree::nodes`], or `u32::MAX` for a
    /// leaf. Children are stored as 8 consecutive nodes.
    first_child: u32,
    /// Total number of particles in the subtree.
    pub count: u64,
    /// Leaf only: offset of the node's particle group in the sorted store.
    pub offset: u64,
    /// Leaf only: number of particles in the group.
    pub len: u64,
    /// Leaf only: particle density of the node (particles per unit plot
    /// volume).
    pub density: f64,
}

impl Node {
    /// A fresh leaf covering `bounds` at `depth`.
    pub fn leaf(bounds: Aabb, depth: u32) -> Node {
        Node {
            bounds,
            depth,
            first_child: NO_CHILD,
            count: 0,
            offset: 0,
            len: 0,
            density: 0.0,
        }
    }

    /// `true` when the node has no children.
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.first_child == NO_CHILD
    }

    /// Index of child `i` (0–7), if the node is interior.
    #[inline]
    pub fn child(&self, i: usize) -> Option<u32> {
        debug_assert!(i < 8);
        if self.is_leaf() {
            None
        } else {
            Some(self.first_child + i as u32)
        }
    }

    /// Marks this node as interior with children at `first_child..first_child+8`.
    pub(crate) fn set_children(&mut self, first_child: u32) {
        self.first_child = first_child;
    }
}

/// A fully built octree over projected particle positions. Node 0 is the
/// root; children of an interior node occupy 8 consecutive slots.
#[derive(Clone, Debug)]
pub struct Octree {
    /// Flat node array, root first.
    pub nodes: Vec<Node>,
    /// Root bounds.
    pub bounds: Aabb,
    /// The maximal subdivision level used during the build.
    pub max_depth: u32,
}

impl Octree {
    /// The root node.
    pub fn root(&self) -> &Node {
        &self.nodes[0]
    }

    /// Iterates over the indices of all leaf nodes.
    pub fn leaf_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.is_leaf())
            .map(|(i, _)| i)
    }

    /// Leaf indices in the order their groups appear in the density-sorted
    /// particle store, recovered from the leaf offsets alone. Empty groups
    /// share offset 0 with the first real group; they come first (they
    /// occupy zero bytes there), then ties go by index.
    pub fn leaves_in_store_order(&self) -> Vec<u32> {
        let mut leaves: Vec<u32> = self.leaf_indices().map(|i| i as u32).collect();
        leaves.sort_unstable_by_key(|&li| {
            let n = &self.nodes[li as usize];
            (n.offset, n.len > 0, li)
        });
        leaves
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_leaf()).count()
    }

    /// Maximum depth actually present in the tree.
    pub fn deepest_level(&self) -> u32 {
        self.nodes.iter().map(|n| n.depth).max().unwrap_or(0)
    }

    /// On-disk size of the node file: each node stores bounds (6×f64),
    /// depth + child pointer (2×u32), count/offset/len (3×u64) and density
    /// (f64) — 88 bytes. This is the "octree nodes" part of the paper's
    /// two-part layout.
    pub fn node_file_bytes(&self) -> u64 {
        self.nodes.len() as u64 * 88
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelviz_math::Vec3;

    #[test]
    fn leaf_roundtrip() {
        let b = Aabb::new(Vec3::ZERO, Vec3::ONE);
        let mut n = Node::leaf(b, 3);
        assert!(n.is_leaf());
        assert_eq!(n.child(0), None);
        n.set_children(17);
        assert!(!n.is_leaf());
        assert_eq!(n.child(0), Some(17));
        assert_eq!(n.child(7), Some(24));
    }

    #[test]
    fn node_file_accounting() {
        let b = Aabb::new(Vec3::ZERO, Vec3::ONE);
        let t = Octree {
            nodes: vec![Node::leaf(b, 0); 9],
            bounds: b,
            max_depth: 1,
        };
        assert_eq!(t.node_file_bytes(), 9 * 88);
        assert_eq!(t.leaf_count(), 9);
    }

    #[test]
    fn store_order_puts_empty_groups_first_then_follows_offsets() {
        let b = Aabb::new(Vec3::ZERO, Vec3::ONE);
        let group = |offset, len| Node {
            offset,
            len,
            ..Node::leaf(b, 1)
        };
        let mut root = Node::leaf(b, 0);
        root.set_children(1);
        // Index: 0 root, then leaves holding [5, 7), [0, 3), empty,
        // [3, 5), empty, [7, 8), empty, empty.
        let mut nodes = vec![root, group(5, 2), group(0, 3), group(0, 0), group(3, 2)];
        nodes.extend([group(0, 0), group(7, 1), group(0, 0), group(0, 0)]);
        let t = Octree {
            nodes,
            bounds: b,
            max_depth: 1,
        };
        assert_eq!(t.leaves_in_store_order(), vec![3, 5, 7, 8, 2, 4, 1, 6]);
    }
}
