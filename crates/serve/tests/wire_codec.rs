//! Wire-codec hardening: property-tested roundtrips plus corruption
//! handling. The contract under test: any `HybridFrame` survives
//! encode → decode bit-identically, and any damaged stream produces a
//! structured [`ServeError`] — never a panic.

use accelviz_beam::particle::Particle;
use accelviz_core::hybrid::HybridFrame;
use accelviz_math::{Aabb, Vec3};
use accelviz_octree::density::DensityGrid;
use accelviz_octree::plots::PlotType;
use accelviz_serve::error::ServeError;
use accelviz_serve::protocol::{read_response, write_response, Response};
use accelviz_serve::wire::{
    decode_frame, decode_frame_v2, encode_frame, encode_frame_v2, read_envelope, write_envelope,
};
use proptest::prelude::*;

/// A strategy over arbitrary (well-formed) hybrid frames.
fn arb_frame() -> impl Strategy<Value = HybridFrame> {
    let particle = (
        -10.0..10.0f64,
        -1.0..1.0f64,
        -10.0..10.0f64,
        -1.0..1.0f64,
        -10.0..10.0f64,
        -1.0..1.0f64,
    );
    (
        (0usize..10_000, 0usize..4),
        prop::collection::vec((particle, 0.0..1.0f64), 0..32),
        (1usize..5, 1usize..5, 1usize..5),
        prop::collection::vec(0.0..50.0f32, 64..=64),
        (1e-9..10.0f64, 0u64..100_000),
        (
            (-5.0..0.0f64, -5.0..0.0f64, -5.0..0.0f64),
            (0.1..5.0f64, 0.1..5.0f64, 0.1..5.0f64),
        ),
    )
        .prop_map(
            |((step, plot_idx), pts, dims, cells, (threshold, discarded), bounds)| {
                let ((x0, y0, z0), (dx, dy, dz)) = bounds;
                let bounds = Aabb {
                    min: Vec3::new(x0, y0, z0),
                    max: Vec3::new(x0 + dx, y0 + dy, z0 + dz),
                };
                let mut points = Vec::new();
                let mut point_densities = Vec::new();
                for ((x, px, y, py, z, pz), d) in pts {
                    points.push(Particle::from_array([x, px, y, py, z, pz]));
                    point_densities.push(d);
                }
                let dims = [dims.0, dims.1, dims.2];
                let n_cells = dims[0] * dims[1] * dims[2];
                HybridFrame {
                    step,
                    plot: PlotType::FIGURE2[plot_idx],
                    bounds,
                    points,
                    point_densities,
                    grid: DensityGrid::from_raw(bounds, dims, cells[..n_cells].to_vec()),
                    threshold,
                    discarded,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn frame_payloads_roundtrip_bit_identically(frame in arb_frame()) {
        let payload = encode_frame(&frame);
        let decoded = decode_frame(&payload).expect("well-formed payload must decode");
        prop_assert_eq!(decoded, frame);
    }

    #[test]
    fn frame_responses_roundtrip_through_envelopes(frame in arb_frame()) {
        let mut buf = Vec::new();
        let written = write_response(&mut buf, &Response::Frame(frame.clone())).unwrap();
        prop_assert_eq!(written as usize, buf.len());
        let (resp, wire_bytes) = read_response(&mut buf.as_slice()).unwrap();
        prop_assert_eq!(wire_bytes as usize, buf.len());
        match resp {
            Response::Frame(decoded) => prop_assert_eq!(decoded, frame),
            other => return Err(TestCaseError::fail(format!("expected Frame, got {other:?}"))),
        }
    }

    #[test]
    fn truncation_anywhere_is_a_structured_error(frame in arb_frame(), cut in 0.0..1.0f64) {
        let mut buf = Vec::new();
        write_response(&mut buf, &Response::Frame(frame)).unwrap();
        // Cut the stream at a proportional point strictly before the end.
        let keep = ((buf.len() - 1) as f64 * cut) as usize;
        let result = read_envelope(&mut &buf[..keep]);
        prop_assert!(
            matches!(result, Err(ServeError::Truncated { .. })),
            "cut at {}/{} gave {:?}", keep, buf.len(), result
        );
    }

    #[test]
    fn v2_frame_payloads_roundtrip_bit_identically(frame in arb_frame()) {
        let (payload, raw_len) = encode_frame_v2(&frame);
        prop_assert_eq!(raw_len as usize, encode_frame(&frame).len());
        let decoded = decode_frame_v2(&payload).expect("well-formed v2 payload must decode");
        prop_assert_eq!(decoded, frame);
    }

    #[test]
    fn v2_truncation_anywhere_is_a_structured_error(frame in arb_frame(), cut in 0.0..1.0f64) {
        let (payload, _) = encode_frame_v2(&frame);
        let keep = ((payload.len() - 1) as f64 * cut) as usize;
        match decode_frame_v2(&payload[..keep]) {
            Err(ServeError::Corrupt(_)) | Err(ServeError::Truncated { .. }) => {}
            other => return Err(TestCaseError::fail(format!(
                "v2 cut at {keep}/{} gave {other:?}", payload.len()
            ))),
        }
    }

    #[test]
    fn v2_payload_bitflips_never_decode_silently(frame in arb_frame(), at in 0.0..1.0f64) {
        // Straight at the v2 payload codec, no envelope checksum in the
        // way: a flipped byte must never decode to a *different* frame —
        // it surfaces as a structured error (truncated/corrupt blocks, or
        // the trailing checksum over the decoded frame), except when the
        // flip lands in a bitpack block's dead padding bits, where the
        // identical frame decoding back is correct.
        let (payload, _) = encode_frame_v2(&frame);
        let mut bad = payload.clone();
        let idx = ((payload.len() - 1) as f64 * at) as usize;
        bad[idx] ^= 0x40;
        match decode_frame_v2(&bad) {
            Err(ServeError::Corrupt(_)) | Err(ServeError::Truncated { .. }) => {}
            Ok(decoded) => prop_assert_eq!(decoded, frame),
            Err(other) => return Err(TestCaseError::fail(format!(
                "v2 bitflip at {idx} gave unexpected error {other:?}"
            ))),
        }
    }

    #[test]
    fn payload_bitflips_never_decode_silently(frame in arb_frame(), at in 0.0..1.0f64) {
        let payload = encode_frame(&frame);
        if payload.is_empty() {
            return Ok(());
        }
        let mut buf = Vec::new();
        write_envelope(&mut buf, 0x83, &payload).unwrap();
        // Flip one payload byte (past the 16-byte header).
        let idx = 16 + ((payload.len() - 1) as f64 * at) as usize;
        buf[idx] ^= 0x40;
        let result = read_envelope(&mut buf.as_slice());
        prop_assert!(
            matches!(result, Err(ServeError::ChecksumMismatch { .. })),
            "bitflip at {idx} gave {result:?}"
        );
    }
}

#[test]
fn bad_magic_is_rejected_before_anything_else() {
    let mut buf = Vec::new();
    write_envelope(&mut buf, 0x01, b"payload").unwrap();
    buf[0] = b'X';
    match read_envelope(&mut buf.as_slice()) {
        Err(ServeError::BadMagic(m)) => assert_eq!(&m[1..], b"VWF"),
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

#[test]
fn unknown_protocol_version_is_rejected() {
    let mut buf = Vec::new();
    write_envelope(&mut buf, 0x01, b"payload").unwrap();
    buf[4..6].copy_from_slice(&99u16.to_le_bytes());
    match read_envelope(&mut buf.as_slice()) {
        Err(ServeError::UnsupportedVersion(99)) => {}
        other => panic!("expected UnsupportedVersion(99), got {other:?}"),
    }
}

#[test]
fn corrupted_checksum_trailer_is_rejected() {
    let mut buf = Vec::new();
    write_envelope(&mut buf, 0x01, b"payload").unwrap();
    let last = buf.len() - 1;
    buf[last] ^= 0xff;
    assert!(matches!(
        read_envelope(&mut buf.as_slice()),
        Err(ServeError::ChecksumMismatch { .. })
    ));
}

#[test]
fn garbage_frame_payload_is_corrupt_not_a_panic() {
    // A syntactically valid envelope whose payload is noise.
    for len in [0usize, 1, 7, 16, 64, 300] {
        let noise: Vec<u8> = (0..len)
            .map(|i| (i as u8).wrapping_mul(37).wrapping_add(11))
            .collect();
        match decode_frame(&noise) {
            Err(ServeError::Corrupt(_)) => {}
            Ok(_) => panic!("noise of {len} bytes decoded as a frame"),
            Err(other) => panic!("expected Corrupt, got {other:?}"),
        }
    }
}

#[test]
fn empty_frame_roundtrips() {
    let bounds = Aabb {
        min: Vec3::new(0.0, 0.0, 0.0),
        max: Vec3::new(1.0, 1.0, 1.0),
    };
    let frame = HybridFrame {
        step: 0,
        plot: PlotType::XYZ,
        bounds,
        points: Vec::new(),
        point_densities: Vec::new(),
        grid: DensityGrid::from_raw(bounds, [1, 1, 1], vec![0.0]),
        threshold: 0.5,
        discarded: 0,
    };
    let decoded = decode_frame(&encode_frame(&frame)).unwrap();
    assert_eq!(decoded, frame);
}
