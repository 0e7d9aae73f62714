//! A progressive assembler's memory is bounded by the records that
//! arrived, not by a point range a record declared. (Every decoder's
//! bound against a declared length or count is `tests/decoders_total.rs`;
//! this is the one that depends on an assembler's state.) Alone in its
//! test binary, so the counting allocator sees only the read under test.

use accelviz_beam::particle::Particle;
use accelviz_core::hybrid::HybridFrame;
use accelviz_math::{Aabb, Vec3};
use accelviz_octree::density::DensityGrid;
use accelviz_octree::plots::PlotType;
use accelviz_serve::lod::{plan_frame_chunks, ProgressiveAssembler, MIN_CHUNK_BYTES};
use accelviz_serve::wire::PayloadWriter;
use accelviz_serve::ServeError;
use accelviz_store::progressive::{decode_record, encode_record, Record, RECORD_DELTA};
use alloc::peak_of;

#[path = "../../../tests/common/alloc.rs"]
mod alloc;

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
