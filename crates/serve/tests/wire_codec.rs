//! Wire-codec roundtrips, property-tested: any `HybridFrame` survives
//! encode → decode bit-identically. Envelope verdicts that name a
//! variant are pinned here; that damaged input of every kind is an error
//! and never a panic is `tests/decoders_total.rs`.

use accelviz_beam::particle::Particle;
use accelviz_core::hybrid::HybridFrame;
use accelviz_math::{Aabb, Vec3};
use accelviz_octree::density::DensityGrid;
use accelviz_octree::plots::PlotType;
use accelviz_serve::error::ServeError;
use accelviz_serve::protocol::RESP_FRAME;
use accelviz_serve::wire::{
    decode_frame, decode_frame_v2, encode_frame, encode_frame_v2, read_envelope, read_sealed,
    write_envelope, Sealed, MAX_PAYLOAD,
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
        let sealed = Sealed::new(RESP_FRAME, encode_frame_v2(&frame).0);
        let written = sealed.write_to(&mut buf).unwrap();
        prop_assert_eq!(written as usize, buf.len());
        let reply = read_sealed(&mut buf.as_slice(), MAX_PAYLOAD).unwrap();
        prop_assert_eq!(reply.wire_bytes() as usize, buf.len());
        prop_assert_eq!(reply.kind(), RESP_FRAME);
        prop_assert_eq!(decode_frame_v2(reply.payload()).unwrap(), frame);
    }

    #[test]
    fn v2_frame_payloads_roundtrip_bit_identically(frame in arb_frame()) {
        let (payload, raw_len) = encode_frame_v2(&frame);
        prop_assert_eq!(raw_len as usize, encode_frame(&frame).len());
        let decoded = decode_frame_v2(&payload).expect("well-formed v2 payload must decode");
        prop_assert_eq!(decoded, frame);
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
