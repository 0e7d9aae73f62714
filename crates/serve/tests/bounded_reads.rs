//! A reader's memory is bounded by the bytes that arrived, not by the
//! length or count a peer declared. Alone in its test binary, one test
//! at a time, so the counting allocator sees only the read under test.

use accelviz_beam::particle::Particle;
use accelviz_core::hybrid::HybridFrame;
use accelviz_math::{Aabb, Vec3};
use accelviz_octree::density::DensityGrid;
use accelviz_octree::plots::PlotType;
use accelviz_serve::lod::{plan_frame_chunks, ProgressiveAssembler, MIN_CHUNK_BYTES};
use accelviz_serve::protocol::{read_response, RESP_STATS};
use accelviz_serve::wire::{
    decode_frame, decode_frame_v2, read_envelope, write_envelope, PayloadWriter, MAGIC,
    MAX_PAYLOAD, V2,
};
use accelviz_serve::ServeError;
use accelviz_store::codec::{put_uvarint, CODEC_BITPACK};
use accelviz_store::progressive::{decode_record, encode_record, Record, RECORD_DELTA};
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

#[test]
fn a_stats_reply_declaring_four_billion_counters_then_eof_allocates_under_a_mebibyte() {
    let mut envelope = Vec::new();
    write_envelope(&mut envelope, RESP_STATS, &u32::MAX.to_le_bytes()).unwrap();

    let (outcome, peak) = peak_of(|| read_response(&mut envelope.as_slice()));

    match outcome {
        Err(ServeError::Corrupt(msg)) => assert!(msg.contains("entries"), "{msg}"),
        other => panic!("expected Corrupt, got {other:?}"),
    }
    assert!(peak < 1 << 20, "a hostile count bought {peak} bytes");
}

/// A v1 frame header for an empty frame: step, plot, bounds, threshold,
/// discarded, and a point count of zero.
fn empty_frame_header() -> PayloadWriter {
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
    w.put_u64(0); // points
    w
}

#[test]
fn a_v1_grid_whose_byte_count_overflows_is_corrupt_not_a_panic() {
    // 2^62 cells pass the dims product, but their 4-byte cells do not fit
    // a u64: the decoder must refuse the grid before sizing it.
    let mut w = empty_frame_header();
    for dim in [1u64 << 62, 1, 1] {
        w.put_u64(dim);
    }
    for bound in [0.0, 0.0, 0.0, 1.0, 1.0, 1.0] {
        w.put_f64(bound);
    }
    let payload = w.into_bytes();

    let (outcome, peak) = peak_of(|| decode_frame(&payload));

    match outcome {
        Err(ServeError::Corrupt(msg)) => assert!(msg.contains("grid"), "{msg}"),
        other => panic!("expected Corrupt, got {other:?}"),
    }
    assert!(peak < 1 << 20, "a hostile grid bought {peak} bytes");
}

#[test]
fn a_delta_whose_point_range_wraps_is_corrupt_not_a_panic() {
    // A genuine coarse head, then a delta starting where it ended and
    // declaring u64::MAX - 1 points: start + len wraps below the frame's
    // point count unless the range is added with a check.
    let bounds = Aabb {
        min: Vec3::new(0.0, 0.0, 0.0),
        max: Vec3::new(1.0, 1.0, 1.0),
    };
    let frame = HybridFrame {
        step: 0,
        plot: PlotType::XYZ,
        bounds,
        points: (0..100)
            .map(|i| Particle::from_array([i as f64; 6]))
            .collect(),
        point_densities: (0..100).map(|i| (i / 10) as f64).collect(),
        grid: DensityGrid::from_raw(bounds, [4, 4, 4], vec![1.0; 64]),
        threshold: 1.0,
        discarded: 0,
    };
    let records = plan_frame_chunks(&frame, MIN_CHUNK_BYTES);
    assert!(records.len() > 2, "the stream must have a delta to forge");
    let mut asm = ProgressiveAssembler::new();
    assert!(!asm.accept(&records[0]).unwrap());
    let head = decode_record(&records[0]).unwrap();
    let mut w = PayloadWriter::new();
    w.put_u64(asm.points_resident() as u64);
    w.put_u64(u64::MAX - 1);
    let hostile = encode_record(&Record {
        kind: RECORD_DELTA,
        seq: 1,
        total: head.total,
        payload: w.into_bytes(),
    });

    let (outcome, peak) = peak_of(|| asm.accept(&hostile));

    match outcome {
        Err(ServeError::Corrupt(msg)) => assert!(msg.contains("point"), "{msg}"),
        other => panic!("expected Corrupt, got {other:?}"),
    }
    assert!(peak < 1 << 20, "a hostile delta bought {peak} bytes");
}
