//! A two-part-store reader's memory is bounded by the records that
//! arrived, not by a count a header declared. Alone in its test binary,
//! one read at a time, so the counting allocator sees only the read
//! under test (`tests/common/alloc.rs`, the same instrument as
//! `accelviz-serve`'s `bounded_reads.rs`).

use accelviz_beam::io::{HEADER_BYTES, MAGIC};
use accelviz_octree::store_io::{extract_from_files, read_node_file, NODE_MAGIC};
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

#[test]
fn a_prefix_claiming_a_trillion_particles_then_eof_allocates_under_a_mebibyte() {
    const CLAIMED: u64 = 1 << 40;
    // One leaf whose group is the whole claimed store, sparser than any
    // threshold: the prefix to read is every claimed particle…
    let mut node_file = node_header(1);
    unit_cube(&mut node_file);
    node_file.extend_from_slice(&0u32.to_le_bytes()); // depth
    node_file.extend_from_slice(&u32::MAX.to_le_bytes()); // leaf
    node_file.extend_from_slice(&CLAIMED.to_le_bytes()); // count
    node_file.extend_from_slice(&0u64.to_le_bytes()); // offset
    node_file.extend_from_slice(&CLAIMED.to_le_bytes()); // len
    node_file.extend_from_slice(&0.0f64.to_le_bytes()); // density

    // …and a particle header that agrees, over no particles at all.
    let mut particle_file = Vec::new();
    particle_file.extend_from_slice(&MAGIC);
    particle_file.extend_from_slice(&0u64.to_le_bytes()); // step
    particle_file.extend_from_slice(&CLAIMED.to_le_bytes());
    assert_eq!(particle_file.len() as u64, HEADER_BYTES);

    let (outcome, peak) = peak_of(|| {
        extract_from_files(
            &mut node_file.as_slice(),
            &mut particle_file.as_slice(),
            f64::INFINITY,
        )
    });

    let err = outcome.expect_err("no particles behind the header");
    assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
    assert!(
        peak < 1 << 20,
        "{} bytes of headers bought {peak} bytes of allocation",
        node_file.len() + particle_file.len()
    );
}
