//! A node-file reader's memory is bounded by the records that arrived,
//! not by a count a header declared. Alone in its test binary, one read
//! at a time, so the counting allocator sees only the read under test
//! (`tests/common/alloc.rs`, the same instrument as `accelviz-serve`'s
//! `bounded_reads.rs` and `accelviz-store`'s `bounded_prefix.rs`).

use accelviz_octree::store_io::{read_node_file, NODE_MAGIC};
use alloc::peak_of;
use std::io::ErrorKind;

#[path = "../../../tests/common/alloc.rs"]
mod alloc;

/// A valid node-file header over the unit cube declaring `n_nodes`.
fn node_header(n_nodes: u64) -> Vec<u8> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&NODE_MAGIC);
    bytes.extend_from_slice(&n_nodes.to_le_bytes());
    bytes.extend_from_slice(&0u32.to_le_bytes()); // max depth
    bytes.extend_from_slice(&[0, 2, 4, 0]); // plot x, y, z + padding
    unit_cube(&mut bytes);
    bytes
}

fn unit_cube(bytes: &mut Vec<u8>) {
    for x in [0.0f64, 0.0, 0.0, 1.0, 1.0, 1.0] {
        bytes.extend_from_slice(&x.to_le_bytes());
    }
}

#[test]
fn a_node_header_claiming_four_billion_nodes_then_eof_allocates_under_a_mebibyte() {
    // The largest count the plausibility check admits.
    let file = node_header(1 << 32);

    let (outcome, peak) = peak_of(|| read_node_file(&mut file.as_slice()));

    let err = outcome.expect_err("no records behind the header");
    assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
    assert!(
        peak < 1 << 20,
        "a {}-byte header bought {peak} bytes of allocation",
        file.len()
    );
}
