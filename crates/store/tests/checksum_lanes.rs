//! The four-lane checksum is the one-lane checksum, lane by lane: for
//! any four byte strings — all empty, one empty, all equal, all
//! different in length and content — `fnv1a64_x4(lanes)[k]` equals
//! `fnv1a64(lanes[k])`, so the run store's grouped page-in verifies
//! exactly what the per-chunk loop it replaced verified.

use accelviz_store::{fnv1a64, fnv1a64_x4};
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
