//! A reader's memory is bounded by the bytes that arrived, not by the
//! length or count a peer declared. Alone in its test binary, one test
//! at a time, so the counting allocator sees only the read under test.

use accelviz_serve::wire::{decode_frame_v2, read_envelope, PayloadWriter, MAGIC, MAX_PAYLOAD, V2};
use accelviz_serve::ServeError;
use accelviz_store::codec::{put_uvarint, CODEC_BITPACK};
use alloc::peak_of;

#[path = "../../../tests/common/alloc.rs"]
mod alloc;

#[test]
fn a_header_declaring_a_gibibyte_then_eof_allocates_under_a_mebibyte() {
    let mut header = [0u8; 16];
    header[0..4].copy_from_slice(&MAGIC);
    header[4..6].copy_from_slice(&V2.to_le_bytes());
    header[6] = 0x83; // RESP_FRAME
    header[8..16].copy_from_slice(&MAX_PAYLOAD.to_le_bytes());

    let (outcome, peak) = peak_of(|| read_envelope(&mut header.as_slice()));

    match outcome {
        Err(ServeError::Truncated { needed, got: 0 }) => assert_eq!(needed, MAX_PAYLOAD),
        other => panic!("expected Truncated, got {other:?}"),
    }
    assert!(
        peak < 1 << 20,
        "a 16-byte header bought {peak} bytes of allocation"
    );
}

#[test]
fn a_frame_declaring_millions_of_points_over_16_bytes_allocates_under_a_mebibyte() {
    // A v2 frame header declaring the most points the decoder admits…
    let n_points = MAX_PAYLOAD / 48;
    let mut w = PayloadWriter::new();
    w.put_u64(0); // step
    for coord in [0, 2, 4] {
        w.put_u8(coord); // plot: x, y, z
    }
    for bound in [0.0, 0.0, 0.0, 1.0, 1.0, 1.0] {
        w.put_f64(bound);
    }
    w.put_f64(1.0); // threshold
    w.put_u64(0); // discarded
    w.put_u64(n_points);
    // …over a first column block of that count in 16 packed bytes.
    let mut block = vec![CODEC_BITPACK];
    put_uvarint(&mut block, n_points);
    put_uvarint(&mut block, 16);
    block.extend_from_slice(&[0u8; 16]);
    w.put_bytes(&block);
    let payload = w.into_bytes();

    let (outcome, peak) = peak_of(|| decode_frame_v2(&payload));

    assert!(
        matches!(outcome, Err(ServeError::Corrupt(_))),
        "got {outcome:?}"
    );
    assert!(
        peak < 1 << 20,
        "a {}-byte payload bought {peak} bytes of allocation",
        payload.len()
    );
}
