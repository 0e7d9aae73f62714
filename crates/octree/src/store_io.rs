//! The node-blob codec (§2.3's "octree nodes" part).
//!
//! "This octree is written out to disk in two parts: one part contains
//! all the particles of the simulation, the other contains the octree
//! nodes themselves." The run store (`accelviz-store`'s `AVRUNST1`)
//! holds both parts per frame: it embeds this codec's output as each
//! frame's node blob beside the density-sorted particle chunks, and reads
//! the kept prefix of those chunks. A node blob is a 72-byte header
//! followed by 88 bytes per node.

use crate::node::{Node, Octree};
use crate::plots::PlotType;
use crate::sorted_store::PartitionedData;
use accelviz_beam::particle::PhaseCoord;
use accelviz_math::{Aabb, Reader};
use std::io::{self, Write};

/// Magic bytes of the node file.
pub const NODE_MAGIC: [u8; 8] = *b"AVIZNODE";

/// Node-file header size: magic + count + depth + plot + root bounds.
const NODE_HEADER_BYTES: usize = 72;
/// Serialized size of one node record.
const NODE_RECORD_BYTES: usize = 88;
/// Nodes staged per write call by [`write_node_file`] (≈ 90 KiB a call).
const IO_CHUNK_NODES: usize = 1_024;

/// Writes the node file. Records are staged through a bounded buffer so
/// the sink sees a few large writes, not a dozen tiny ones per node.
pub fn write_node_file<W: Write>(data: &PartitionedData, w: &mut W) -> io::Result<()> {
    let tree = data.tree();
    let mut buf = Vec::with_capacity(
        NODE_HEADER_BYTES + tree.nodes.len().min(IO_CHUNK_NODES) * NODE_RECORD_BYTES,
    );
    buf.extend_from_slice(&NODE_MAGIC);
    buf.extend_from_slice(&(tree.nodes.len() as u64).to_le_bytes());
    buf.extend_from_slice(&tree.max_depth.to_le_bytes());
    // Plot type as three coordinate indices.
    for c in data.plot().coords {
        buf.push(c.code());
    }
    buf.push(0u8); // padding
    for v in [tree.bounds.min, tree.bounds.max] {
        for x in v.to_array() {
            buf.extend_from_slice(&x.to_le_bytes());
        }
    }
    for n in &tree.nodes {
        for v in [n.bounds.min, n.bounds.max] {
            for x in v.to_array() {
                buf.extend_from_slice(&x.to_le_bytes());
            }
        }
        buf.extend_from_slice(&n.depth.to_le_bytes());
        buf.extend_from_slice(&n.child(0).unwrap_or(u32::MAX).to_le_bytes());
        buf.extend_from_slice(&n.count.to_le_bytes());
        buf.extend_from_slice(&n.offset.to_le_bytes());
        buf.extend_from_slice(&n.len.to_le_bytes());
        buf.extend_from_slice(&n.density.to_le_bytes());
        if buf.len() >= IO_CHUNK_NODES * NODE_RECORD_BYTES {
            w.write_all(&buf)?;
            buf.clear();
        }
    }
    if !buf.is_empty() {
        w.write_all(&buf)?;
    }
    Ok(())
}

/// Reads a node blob from the front of `bytes`: the octree plus the plot
/// type. `bytes` is left at what follows the last node record — the run
/// store reads node blobs out of a larger file, where the bytes after one
/// belong to someone else. A node count the bytes cannot hold is refused
/// before anything is sized from it.
pub fn read_node_file(bytes: &mut &[u8]) -> io::Result<(Octree, PlotType)> {
    let mut r = Reader::new(bytes);
    if r.array()? != NODE_MAGIC {
        return Err(invalid("bad node-file magic"));
    }
    let n_nodes = r.u64()?;
    let max_depth = r.u32()?;
    let plot = PlotType {
        coords: PhaseCoord::read_axes(&mut r, |_| invalid("bad coord code"))?,
    };
    r.u8()?; // padding
    let bounds = checked_bounds(&mut r)?;
    let nodes = r.vec(n_nodes, NODE_RECORD_BYTES, |r| {
        let mut node = Node::leaf(checked_bounds(r)?, r.u32()?);
        let first_child = r.u32()?;
        node.count = r.u64()?;
        node.offset = r.u64()?;
        node.len = r.u64()?;
        node.density = r.f64()?;
        if first_child != u32::MAX {
            if u64::from(first_child) + 7 >= n_nodes {
                return Err(invalid("child pointer out of range"));
            }
            node.set_children(first_child);
        }
        Ok(node)
    })?;
    *bytes = r.rest();
    Ok((
        Octree {
            nodes,
            bounds,
            max_depth,
        },
        plot,
    ))
}

fn invalid(msg: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// A box as [`Aabb::read`] reads it, refused unless ordered and finite.
fn checked_bounds(r: &mut Reader<'_>) -> io::Result<Aabb> {
    let b = Aabb::read(r)?;
    if b.is_empty() || !b.min.is_finite() || !b.max.is_finite() {
        return Err(invalid("corrupt bounds"));
    }
    Ok(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{partition, BuildParams};
    use accelviz_beam::distribution::Distribution;

    fn build(n: usize) -> PartitionedData {
        let ps = Distribution::default_beam().sample(n, 11);
        partition(&ps, PlotType::X_PX_Y, BuildParams::default())
    }

    #[test]
    fn node_file_size_matches_accounting() {
        let data = build(1_000);
        let mut node_file = Vec::new();
        write_node_file(&data, &mut node_file).unwrap();
        // Header: 8 magic + 8 count + 4 depth + 4 plot + 48 bounds = 72.
        assert_eq!(node_file.len() as u64, 72 + data.node_file_bytes());
    }

    #[test]
    fn node_file_reads_are_chunked_and_exact() {
        let data = build(5_000);
        let mut node_file = Vec::new();
        write_node_file(&data, &mut node_file).unwrap();
        // Trailing bytes that belong to "someone else" in a container.
        node_file.extend_from_slice(b"TRAILERDATA");
        let mut rest = node_file.as_slice();
        let (tree, _) = read_node_file(&mut rest).unwrap();
        assert_eq!(tree.nodes.len(), data.tree().nodes.len());
        // Exact consumption: the trailer is untouched.
        assert_eq!(rest, b"TRAILERDATA");
    }

    #[test]
    fn node_file_writes_are_chunked_not_per_field() {
        struct CountingWriter {
            buf: Vec<u8>,
            writes: u64,
        }
        impl Write for CountingWriter {
            fn write(&mut self, b: &[u8]) -> io::Result<usize> {
                self.writes += 1;
                self.buf.extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let data = build(5_000);
        let mut plain = Vec::new();
        write_node_file(&data, &mut plain).unwrap();
        let mut counting = CountingWriter {
            buf: Vec::new(),
            writes: 0,
        };
        write_node_file(&data, &mut counting).unwrap();
        assert_eq!(counting.buf, plain, "chunking must not change the bytes");
        let nodes = data.tree().nodes.len() as u64;
        assert!(
            counting.writes <= nodes.div_ceil(1_024) + 1,
            "node write used {} calls for {nodes} nodes",
            counting.writes
        );
    }

    #[test]
    fn corrupt_node_file_is_rejected() {
        let data = build(500);
        let mut node_file = Vec::new();
        write_node_file(&data, &mut node_file).unwrap();
        // Corrupt bounds (min > max).
        let mut swapped = node_file.clone();
        // Root bounds start at offset 24; swap min.x with max.x.
        for i in 0..8 {
            swapped.swap(24 + i, 24 + 24 + i);
        }
        assert!(read_node_file(&mut swapped.as_slice()).is_err());
        // A plot code past the six coordinates.
        let mut plot = node_file.clone();
        plot[21] = 6;
        let err = read_node_file(&mut plot.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), "bad coord code");
    }
}
