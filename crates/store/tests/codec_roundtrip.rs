//! Property-tested roundtrips of the `accelviz-store` codecs: any value
//! stream — random bits, smooth ramps, constants, alternating pairs,
//! count grids, or IEEE special values — survives encode → decode
//! bit-identically through *every* codec, and a block decoded at the
//! wrong count is refused. That damaged blocks are an error and never a
//! panic is `tests/decoders_total.rs`.

use accelviz_store::codec::{
    decode_f32s, decode_f64s, encode_f32s, encode_f32s_as, encode_f64s, encode_f64s_as,
    CODEC_BITPACK, CODEC_DELTA_VARINT, CODEC_RAW,
};
use proptest::prelude::*;

/// Bit-exact equality, so `NaN != NaN` and `-0.0 == 0.0` cannot hide
/// codec defects the way float comparison would.
fn same_bits_f32(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn same_bits_f64(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// SplitMix64 — the same generator the vendored proptest shim uses, so
/// streams are reproducible from the drawn `(shape, seed, n)` triple.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The f32 shapes that exercise each codec's distinct paths: raw bit
/// patterns (NaNs/infinities included → raw fallback), quantized counts
/// and mostly-zero grids (the INT sub-mode's home turf), constants,
/// alternating pairs, and smooth ramps.
fn f32_stream(shape: u8, seed: u64, n: usize) -> Vec<f32> {
    let mut s = seed;
    match shape % 6 {
        0 => (0..n).map(|_| f32::from_bits(mix(&mut s) as u32)).collect(),
        1 => (0..n).map(|_| (mix(&mut s) % 5_000) as f32).collect(),
        2 => (0..n)
            .map(|_| {
                let r = mix(&mut s);
                if r.is_multiple_of(10) {
                    (1 + (r >> 8) % 100) as f32
                } else {
                    0.0
                }
            })
            .collect(),
        3 => vec![f32::from_bits(mix(&mut s) as u32); n],
        4 => {
            let (a, b) = (
                f32::from_bits(mix(&mut s) as u32),
                f32::from_bits(mix(&mut s) as u32),
            );
            (0..n).map(|i| if i % 2 == 0 { a } else { b }).collect()
        }
        _ => {
            let start = (mix(&mut s) % 2_000) as f32 - 1_000.0;
            let step = (mix(&mut s) % 97) as f32 * 0.125 + 0.25;
            (0..n).map(|i| start + step * i as f32).collect()
        }
    }
}

/// The f64 shapes: raw bit patterns, constants, alternating pairs, and
/// sorted smooth data — the bitpack codec's best case.
fn f64_stream(shape: u8, seed: u64, n: usize) -> Vec<f64> {
    let mut s = seed;
    match shape % 4 {
        0 => (0..n).map(|_| f64::from_bits(mix(&mut s))).collect(),
        1 => vec![f64::from_bits(mix(&mut s)); n],
        2 => {
            let (a, b) = (f64::from_bits(mix(&mut s)), f64::from_bits(mix(&mut s)));
            (0..n).map(|i| if i % 2 == 0 { a } else { b }).collect()
        }
        _ => {
            let mut v: Vec<f64> = (0..n)
                .map(|_| (mix(&mut s) % 2_000_000) as f64 - 1e6)
                .collect();
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn f32_streams_roundtrip_through_every_codec(
        shape in 0u8..6, seed in 0u64..=u64::MAX, n in 0usize..300,
    ) {
        let values = f32_stream(shape, seed, n);

        // The auto-selecting encoder, which must consume exactly its
        // own bytes.
        let auto = encode_f32s(&values);
        let mut pos = 0;
        let back = decode_f32s(&auto, &mut pos, values.len()).unwrap();
        prop_assert_eq!(pos, auto.len());
        prop_assert!(same_bits_f32(&back, &values));

        // Each codec forced explicitly.
        for codec in [CODEC_RAW, CODEC_DELTA_VARINT] {
            let buf = encode_f32s_as(codec, &values).unwrap();
            let mut pos = 0;
            let back = decode_f32s(&buf, &mut pos, values.len()).unwrap();
            prop_assert_eq!(pos, buf.len());
            prop_assert!(same_bits_f32(&back, &values), "codec {} broke bits", codec);
        }
    }

    #[test]
    fn f64_streams_roundtrip_through_every_codec(
        shape in 0u8..4, seed in 0u64..=u64::MAX, n in 0usize..300,
    ) {
        let values = f64_stream(shape, seed, n);

        let auto = encode_f64s(&values);
        let mut pos = 0;
        let back = decode_f64s(&auto, &mut pos, values.len()).unwrap();
        prop_assert_eq!(pos, auto.len());
        prop_assert!(same_bits_f64(&back, &values));

        for codec in [CODEC_RAW, CODEC_BITPACK] {
            let buf = encode_f64s_as(codec, &values).unwrap();
            let mut pos = 0;
            let back = decode_f64s(&buf, &mut pos, values.len()).unwrap();
            prop_assert_eq!(pos, buf.len());
            prop_assert!(same_bits_f64(&back, &values), "codec {} broke bits", codec);
        }
    }

    #[test]
    fn blocks_decode_identically_from_a_longer_stream(
        shape in 0u8..4, seed in 0u64..=u64::MAX, n in 0usize..300,
        trailer in prop::collection::vec(0u8..=255, 0..64),
    ) {
        // Blocks are consumed mid-payload in AVWF v2 frames: trailing
        // bytes after a block belong to the *next* field and must be
        // left unread, not rejected.
        let values = f64_stream(shape, seed, n);
        let mut buf = encode_f64s(&values);
        let block_len = buf.len();
        buf.extend_from_slice(&trailer);
        let mut pos = 0;
        let back = decode_f64s(&buf, &mut pos, values.len()).unwrap();
        prop_assert_eq!(pos, block_len);
        prop_assert!(same_bits_f64(&back, &values));
    }

    #[test]
    fn count_mismatches_are_rejected(
        shape in 0u8..6, seed in 0u64..=u64::MAX, n in 0usize..300,
        off_by in 1usize..10,
    ) {
        let values = f32_stream(shape, seed, n);
        let buf = encode_f32s(&values);
        let mut pos = 0;
        prop_assert!(decode_f32s(&buf, &mut pos, values.len() + off_by).is_err());
        if values.len() >= off_by {
            let mut pos = 0;
            prop_assert!(decode_f32s(&buf, &mut pos, values.len() - off_by).is_err());
        }
    }
}

#[test]
fn compression_wins_where_the_design_says_it_must() {
    // A mostly-zero count grid — the shape real binned densities take —
    // must compress hard, and sorted density arrays must undercut raw.
    let mut grid = vec![0.0f32; 4096];
    for (i, c) in grid.iter_mut().enumerate().step_by(31) {
        *c = (i % 90) as f32;
    }
    let encoded = encode_f32s(&grid);
    assert!(
        encoded.len() * 3 < grid.len() * 4,
        "count grid compressed to {} B of {} raw — less than 3x",
        encoded.len(),
        grid.len() * 4
    );

    // A slowly varying stream within one binade: consecutive values
    // share sign, exponent, and the high mantissa bits, so the XOR
    // residuals stay narrow — the bitpack codec's design target.
    let densities: Vec<f64> = (0..4096).map(|i| 1.0 + i as f64 * 1e-9).collect();
    let encoded = encode_f64s(&densities);
    assert!(
        encoded.len() * 2 < densities.len() * 8,
        "smooth densities compressed to {} B of {} raw — less than 2x",
        encoded.len(),
        densities.len() * 8
    );
}
