//! The four-lane checksum is the one-lane checksum, lane by lane: for
//! any four byte strings — all empty, one empty, all equal, all
//! different in length and content — `fnv1a64_x4(lanes)[k]` equals
//! `fnv1a64(lanes[k])`, so the run store's grouped page-in verifies
//! exactly what the per-chunk loop it replaced verified.
//!
//! The lane digests built on it are their serial definitions: the bulk
//! checksum `fnv1a64_lanes` (envelopes, progressive records) at every
//! short length and over long zero runs, the grid's cell lanes over NaN,
//! `-0.0` and subnormal cells, and column chains continued slice by
//! slice.

use accelviz_store::{fnv1a64, fnv1a64_cell_lanes, fnv1a64_lanes, fnv1a64_x4, fnv1a64_x4_update};
use proptest::prelude::*;

fn bytes() -> prop::collection::VecStrategy<std::ops::RangeInclusive<u8>> {
    prop::collection::vec(0u8..=255, 0..=300)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn every_lane_equals_the_one_lane_hash(
        shape in 0u8..6,
        which in 0usize..4,
        drawn in (bytes(), bytes(), bytes(), bytes()).prop_map(|(a, b, c, d)| [a, b, c, d]),
    ) {
        let mut lanes = drawn;
        match shape {
            0 => lanes.iter_mut().for_each(Vec::clear),
            1 => lanes[which].clear(),
            2 => lanes = [(); 4].map(|()| lanes[which].clone()),
            // Equal lengths, different bytes: no lane has a tail.
            3 => {
                let shortest = lanes.iter().map(Vec::len).min().unwrap_or(0);
                lanes.iter_mut().for_each(|lane| lane.truncate(shortest));
            }
            _ => {}
        }
        let together = fnv1a64_x4([&lanes[0], &lanes[1], &lanes[2], &lanes[3]]);
        for (k, lane) in lanes.iter().enumerate() {
            prop_assert!(
                together[k] == fnv1a64(lane),
                "lane {} of shape {} ({} bytes)", k, shape, lane.len()
            );
        }
    }
}

/// A small deterministic generator for the sweeps below.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// `n` bytes, about half of them in zero runs of up to 5 000 bytes.
    fn zero_runs(&mut self, n: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let run = (1 + self.below(5_000) as usize).min(n - out.len());
            if self.below(2) == 0 {
                out.resize(out.len() + run, 0);
            } else {
                out.extend((0..run).map(|_| self.next() as u8));
            }
        }
        out
    }
}

/// The serial definition of `fnv1a64_lanes`: four quarters of `⌈len/4⌉`
/// bytes, `fnv1a64` of each, then `fnv1a64` of the four hashes'
/// little-endian bytes.
fn lanes_reference(bytes: &[u8]) -> u64 {
    let q = bytes.len().div_ceil(4);
    let mut folded = Vec::new();
    for k in 0..4 {
        let part = &bytes[(k * q).min(bytes.len())..((k + 1) * q).min(bytes.len())];
        folded.extend_from_slice(&fnv1a64(part).to_le_bytes());
    }
    fnv1a64(&folded)
}

#[test]
fn the_bulk_checksum_is_its_serial_definition_at_every_short_length() {
    let mut rng = Mix(1);
    for len in 0..=67 {
        let random: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        for bytes in [random, vec![0u8; len], vec![0xff; len]] {
            assert_eq!(
                fnv1a64_lanes(&bytes),
                lanes_reference(&bytes),
                "length {len}"
            );
        }
    }
}

#[test]
fn the_bulk_checksum_is_its_serial_definition_over_long_zero_runs() {
    let mut rng = Mix(2);
    for case in 0..24 {
        let len = rng.below(256 << 10) as usize + usize::from(case == 0) * (256 << 10);
        let bytes = rng.zero_runs(len);
        assert_eq!(
            fnv1a64_lanes(&bytes),
            lanes_reference(&bytes),
            "case {case}, {len} bytes"
        );
    }
}

#[test]
fn the_bulk_checksum_sees_one_flipped_bit_in_every_quarter() {
    let mut rng = Mix(3);
    let bytes = rng.zero_runs(4_097);
    let sealed = fnv1a64_lanes(&bytes);
    for at in [0, 1_024, 1_025, 2_050, 3_075, 4_096] {
        let mut bad = bytes.clone();
        bad[at] ^= 0x10;
        assert_ne!(fnv1a64_lanes(&bad), sealed, "flip at {at}");
    }
}

/// `fnv1a64` of each quarter of `⌈len/4⌉` cells' little-endian bytes.
fn cell_lanes_reference(cells: &[f32]) -> [u64; 4] {
    let q = cells.len().div_ceil(4);
    std::array::from_fn(|k| {
        let quarter = &cells[(k * q).min(cells.len())..((k + 1) * q).min(cells.len())];
        let bytes: Vec<u8> = quarter.iter().flat_map(|c| c.to_le_bytes()).collect();
        fnv1a64(&bytes)
    })
}

#[test]
fn the_cell_lanes_are_each_quarters_hash() {
    const SPECIAL: [u32; 8] = [
        0x7fc0_0000, // NaN
        0x7fa0_0001, // signalling NaN with a payload
        0x8000_0000, // -0.0
        0x0000_0001, // smallest subnormal
        0x807f_ffff, // largest negative subnormal
        0x7f80_0000, // +inf
        0x3f80_0000, // 1.0
        0x4220_0000, // 40.0
    ];
    let mut rng = Mix(4);
    for case in 0..400 {
        let len = match case {
            0..=40 => case,
            _ => rng.below(70_000) as usize,
        };
        // Mostly empty, like a binned volume: runs of +0.0 between cells
        // drawn from the specials and from arbitrary bit patterns.
        let mut bits = Vec::with_capacity(len);
        while bits.len() < len {
            let run = (1 + rng.below(300) as usize).min(len - bits.len());
            match rng.below(3) {
                0 => bits.resize(bits.len() + run, 0),
                1 => bits.extend((0..run).map(|_| SPECIAL[rng.below(8) as usize])),
                _ => bits.extend((0..run).map(|_| rng.next() as u32)),
            }
        }
        let cells: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        assert_eq!(
            fnv1a64_cell_lanes(&cells),
            cell_lanes_reference(&cells),
            "case {case}, {len} cells"
        );
    }
}

#[test]
fn column_chains_continue_across_slices() {
    // Four columns hashed in slices of every size chain to the hash of
    // each whole column, zero values and specials included.
    let mut rng = Mix(5);
    let columns: [Vec<f64>; 4] = std::array::from_fn(|_| {
        (0..3_000)
            .map(|_| match rng.below(5) {
                0 => 0.0,
                1 => -0.0,
                2 => f64::NAN,
                _ => f64::from_bits(rng.next()),
            })
            .collect()
    });
    let whole: Vec<u64> = columns
        .iter()
        .map(|col| {
            fnv1a64(
                &col.iter()
                    .flat_map(|v| v.to_le_bytes())
                    .collect::<Vec<u8>>(),
            )
        })
        .collect();
    let mut hashes = [fnv1a64(b""); 4];
    let mut at = 0;
    while at < 3_000 {
        let end = (at + rng.below(700) as usize).min(3_000);
        hashes = fnv1a64_x4_update(hashes, std::array::from_fn(|k| &columns[k][at..end]));
        at = end;
    }
    assert_eq!(hashes.to_vec(), whole);
}
