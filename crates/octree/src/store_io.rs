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
use accelviz_math::{Aabb, Vec3};
use std::io::{self, Read, Write};

/// Magic bytes of the node file.
pub const NODE_MAGIC: [u8; 8] = *b"AVIZNODE";

/// Node-file header size: magic + count + depth + plot + root bounds.
const NODE_HEADER_BYTES: usize = 72;
/// Serialized size of one node record.
const NODE_RECORD_BYTES: usize = 88;
/// Nodes moved per I/O call by the chunked paths (≈ 90 KiB per call).
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

/// Reads the node file: the octree plus the plot type.
///
/// Consumption is exact (header + `n_nodes` records, nothing more) and
/// reads are sized: one header read, then bulk reads of up to
/// `IO_CHUNK_NODES` records. A plain `BufReader` would be wrong here —
/// it over-reads past the node records, and callers stream node files
/// out of larger containers (the run store) where trailing bytes belong
/// to someone else.
pub fn read_node_file<R: Read>(r: &mut R) -> io::Result<(Octree, PlotType)> {
    let mut header = [0u8; NODE_HEADER_BYTES];
    r.read_exact(&mut header)?;
    if header[..8] != NODE_MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "bad node-file magic",
        ));
    }
    let n_nodes = u64::from_le_bytes(header[8..16].try_into().unwrap());
    if n_nodes > (1 << 32) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "implausible node count",
        ));
    }
    let max_depth = u32::from_le_bytes(header[16..20].try_into().unwrap());
    let plot = PlotType {
        coords: [
            coord_from_code(header[20])?,
            coord_from_code(header[21])?,
            coord_from_code(header[22])?,
        ],
    };
    let bounds = aabb_from_bytes(&header[24..72])?;
    // `n_nodes` is only the header's claim: reserve one I/O chunk and let
    // the vector grow with the records that actually arrive.
    let mut nodes = Vec::with_capacity((n_nodes as usize).min(IO_CHUNK_NODES));
    let mut buf = vec![0u8; (n_nodes as usize).min(IO_CHUNK_NODES) * NODE_RECORD_BYTES];
    let mut remaining = n_nodes as usize;
    while remaining > 0 {
        let n = remaining.min(IO_CHUNK_NODES);
        let bytes = &mut buf[..n * NODE_RECORD_BYTES];
        r.read_exact(bytes)?;
        for rec in bytes.chunks_exact(NODE_RECORD_BYTES) {
            let nb = aabb_from_bytes(&rec[..48])?;
            let depth = u32::from_le_bytes(rec[48..52].try_into().unwrap());
            let first_child = u32::from_le_bytes(rec[52..56].try_into().unwrap());
            let mut node = Node::leaf(nb, depth);
            node.count = u64::from_le_bytes(rec[56..64].try_into().unwrap());
            node.offset = u64::from_le_bytes(rec[64..72].try_into().unwrap());
            node.len = u64::from_le_bytes(rec[72..80].try_into().unwrap());
            node.density = f64::from_bits(u64::from_le_bytes(rec[80..88].try_into().unwrap()));
            if first_child != u32::MAX {
                if first_child as u64 + 7 >= n_nodes {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "child pointer out of range",
                    ));
                }
                node.set_children(first_child);
            }
            nodes.push(node);
        }
        remaining -= n;
    }
    Ok((
        Octree {
            nodes,
            bounds,
            max_depth,
        },
        plot,
    ))
}

fn coord_from_code(b: u8) -> io::Result<PhaseCoord> {
    PhaseCoord::from_code(b)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad coord code"))
}

fn aabb_from_bytes(b: &[u8]) -> io::Result<Aabb> {
    debug_assert_eq!(b.len(), 48);
    let mut v = [0.0f64; 6];
    for (i, x) in v.iter_mut().enumerate() {
        *x = f64::from_le_bytes(b[i * 8..(i + 1) * 8].try_into().unwrap());
    }
    if v[0] > v[3] || v[1] > v[4] || v[2] > v[5] || v.iter().any(|x| !x.is_finite()) {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "corrupt bounds"));
    }
    Ok(Aabb::new(
        Vec3::new(v[0], v[1], v[2]),
        Vec3::new(v[3], v[4], v[5]),
    ))
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

    /// A reader wrapper counting consumed bytes and read calls — each
    /// call here is what a syscall would be on a real fd.
    struct CountingReader<R> {
        inner: R,
        bytes: u64,
        reads: u64,
    }

    impl<R: Read> Read for CountingReader<R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.bytes += n as u64;
            self.reads += 1;
            Ok(n)
        }
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
        let mut counting = CountingReader {
            inner: node_file.as_slice(),
            bytes: 0,
            reads: 0,
        };
        let (tree, _) = read_node_file(&mut counting).unwrap();
        assert_eq!(tree.nodes.len(), data.tree().nodes.len());
        // Exact consumption: the trailer is untouched.
        assert_eq!(counting.bytes, node_file.len() as u64 - 11);
        // Sized reads: header + one bulk read per 1 Ki nodes.
        let expected_reads = 1 + (tree.nodes.len() as u64).div_ceil(1_024);
        assert!(
            counting.reads <= expected_reads,
            "node read used {} calls for {} nodes",
            counting.reads,
            tree.nodes.len()
        );
        assert!(counting.reads >= 2);
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
        // Bad magic.
        let mut bad = node_file.clone();
        bad[0] ^= 0xFF;
        assert!(read_node_file(&mut bad.as_slice()).is_err());
        // Truncated.
        let cut = &node_file[..node_file.len() - 10];
        assert!(read_node_file(&mut &cut[..]).is_err());
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
