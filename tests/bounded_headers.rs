//! A snapshot or line-set reader's memory is bounded by the records that
//! arrived, not by a count its header declared. Alone in its test binary,
//! one read at a time, so the counting allocator (`common/alloc.rs`, the
//! instrument of `bounded_reads.rs` and `bounded_reservations.rs`) sees
//! only the read under test.

use accelviz::beam::io::{self as snapshot, read_snapshot};
use accelviz::fieldlines::compact::{self, deserialize_lines};
use alloc::peak_of;
use std::io::ErrorKind;

#[path = "common/alloc.rs"]
mod alloc;

#[test]
fn a_snapshot_header_claiming_eight_billion_particles_then_eof_allocates_under_a_mebibyte() {
    // The largest count the plausibility check admits: 412 GB of records.
    let mut file = Vec::new();
    file.extend_from_slice(&snapshot::MAGIC);
    file.extend_from_slice(&0u64.to_le_bytes()); // step
    file.extend_from_slice(&(1u64 << 33).to_le_bytes());
    assert_eq!(file.len() as u64, snapshot::HEADER_BYTES);

    let (outcome, peak) = peak_of(|| read_snapshot(&mut file.as_slice()));

    let err = outcome.expect_err("no particles behind the header");
    assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
    assert!(
        peak < 1 << 20,
        "a {}-byte header bought {peak} bytes of allocation",
        file.len()
    );
}

#[test]
fn a_line_set_claiming_four_billion_lines_or_vertices_then_eof_allocates_under_a_mebibyte() {
    // The largest line count the plausibility check admits, over no lines…
    let mut no_lines = Vec::new();
    no_lines.extend_from_slice(&compact::MAGIC);
    no_lines.extend_from_slice(&(1u64 << 32).to_le_bytes());

    // …and one line declaring the largest vertex count a `u32` holds,
    // over a hundred vertices.
    let mut one_short_line = Vec::new();
    one_short_line.extend_from_slice(&compact::MAGIC);
    one_short_line.extend_from_slice(&1u64.to_le_bytes());
    one_short_line.extend_from_slice(&u32::MAX.to_le_bytes());
    one_short_line.extend_from_slice(&[0u8; 100 * compact::BYTES_PER_VERTEX as usize]);

    for file in [no_lines, one_short_line] {
        let (outcome, peak) = peak_of(|| deserialize_lines(&mut file.as_slice()));

        let err = outcome.expect_err("the declared records never arrive");
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
        assert!(
            peak < 1 << 20,
            "a {}-byte line set bought {peak} bytes of allocation",
            file.len()
        );
    }
}
