//! Property-tested progressive record framing: any record survives
//! encode → decode bit-identically, and the [`RecordAssembler`] accepts
//! exactly the in-order grammar — every shuffled, duplicated, or gapped
//! delivery of an otherwise-valid stream is rejected at the first
//! out-of-place record. That damaged records are an error and never a
//! panic is `tests/decoders_total.rs`.

use accelviz_store::progressive::{
    decode_record, encode_record, Record, RecordAssembler, RECORD_COARSE, RECORD_DELTA,
    RECORD_FINAL,
};
use proptest::prelude::*;

/// SplitMix64 — the same generator the vendored proptest shim uses.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A grammar-correct stream of `total` records with pseudorandom
/// payloads derived from `seed`.
fn stream(total: u32, seed: u64) -> Vec<Record> {
    let mut s = seed;
    (0..total)
        .map(|seq| {
            let len = (mix(&mut s) % 200) as usize;
            Record {
                kind: if seq == 0 {
                    RECORD_COARSE
                } else if seq == total - 1 {
                    RECORD_FINAL
                } else {
                    RECORD_DELTA
                },
                seq,
                total,
                payload: (0..len).map(|_| mix(&mut s) as u8).collect(),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn records_roundtrip_bit_identically(
        total in 2u32..10, seed in 0u64..=u64::MAX, pick in 0.0..1.0f64,
    ) {
        let recs = stream(total, seed);
        let rec = &recs[((total - 1) as f64 * pick) as usize];
        let bytes = encode_record(rec);
        prop_assert_eq!(&decode_record(&bytes).unwrap(), rec);
    }

    #[test]
    fn in_order_delivery_always_assembles(
        total in 2u32..12, seed in 0u64..=u64::MAX,
    ) {
        let mut asm = RecordAssembler::new();
        let recs = stream(total, seed);
        for (i, rec) in recs.iter().enumerate() {
            // Through the wire bytes, as a receiver sees them.
            let rec = decode_record(&encode_record(rec)).unwrap();
            let done = asm.accept(&rec).unwrap();
            prop_assert_eq!(done, i as u32 == total - 1);
        }
        prop_assert!(asm.is_complete());
        prop_assert_eq!(asm.next_seq(), total);
    }

    #[test]
    fn any_out_of_order_delivery_is_rejected(
        total in 2u32..8, seed in 0u64..=u64::MAX, swap in 0usize..64,
    ) {
        // Deliver the stream with one adjacent pair swapped (position
        // drawn from `swap`): the assembler must fail at or before the
        // swapped pair, never complete.
        let recs = stream(total, seed);
        let i = swap % (total as usize - 1);
        let mut order: Vec<usize> = (0..total as usize).collect();
        order.swap(i, i + 1);
        let mut asm = RecordAssembler::new();
        let mut failed = false;
        for &j in &order {
            if asm.accept(&recs[j]).is_err() {
                failed = true;
                break;
            }
        }
        prop_assert!(failed, "swapped delivery assembled");
        prop_assert!(!asm.is_complete());
    }

    #[test]
    fn duplicates_are_rejected_at_every_position(
        total in 2u32..8, seed in 0u64..=u64::MAX, dup in 0usize..64,
    ) {
        let recs = stream(total, seed);
        let d = dup % total as usize;
        let mut asm = RecordAssembler::new();
        for rec in &recs[..=d] {
            asm.accept(rec).unwrap();
        }
        prop_assert!(asm.accept(&recs[d]).is_err(), "duplicate {} accepted", d);
    }

    #[test]
    fn replay_skips_below_the_high_water_mark(
        total in 3u32..10, seed in 0u64..=u64::MAX, drop_at in 0usize..64,
    ) {
        // The client replay discipline: a transport failure mid-stream
        // restarts the sender from seq 0; the receiver discards records
        // below `next_seq()` and applies the rest. The assembler must
        // complete over that delivery pattern.
        let recs = stream(total, seed);
        let cut = 1 + drop_at % (total as usize - 1);
        let mut asm = RecordAssembler::new();
        for rec in &recs[..cut] {
            asm.accept(rec).unwrap();
        }
        // Replay from 0: skip what is already applied, accept the rest.
        for rec in &recs {
            if rec.seq < asm.next_seq() {
                continue;
            }
            asm.accept(rec).unwrap();
        }
        prop_assert!(asm.is_complete());
    }
}
