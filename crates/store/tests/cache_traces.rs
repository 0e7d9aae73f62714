//! Deterministic traces replayed against `Cache`: what a one-touch cap
//! keeps of a hot loop that one-touch keys run through, beside what plain
//! LRU keeps of it, and that the budget holds under ragged weights.

use accelviz_store::cache::{Cache, Lookup, REMEMBERED_KEYS};
use std::collections::BTreeSet;
use std::sync::Arc;

type TraceCache = Cache<u64, Vec<u8>, ()>;

/// Keys of the hot loop.
const HOT: u64 = 12;
/// The budget, in entries, of the per-entry traces.
const SLOTS: u64 = 16;
/// Cycles replayed through the hot loop.
const CYCLES: u64 = 10;

fn per_entry(budget: u64) -> TraceCache {
    Cache::new(budget, |_| 1)
}

/// A tenth of the budget for one-touch entries, as a frame cache has.
fn a_tenth(cache: TraceCache, budget: u64) -> TraceCache {
    cache.with_one_touch_cap(budget / 10)
}

/// Looks `key` up, fetching a value of `len` bytes when it is not
/// resident; whether it hit.
fn hit(cache: &TraceCache, key: u64, len: usize) -> bool {
    let (value, lookup) = cache.get_or_fetch(key, || Ok(Arc::new(vec![0; len])));
    assert_eq!(value.unwrap().len(), len);
    lookup == Lookup::Hit
}

/// Replays `CYCLES` of the hot loop; after each hot lookup, `between`
/// one-touch keys that are never asked for again. Returns the hot hits of
/// each cycle, and checks after every lookup that the one-touch entries
/// weigh at most `cap` plus the newest entry.
fn hot_loop(cache: &TraceCache, between: u64, cap: u64) -> Vec<u64> {
    let mut fresh = 1_000_000;
    (0..CYCLES)
        .map(|_| {
            let mut hits = 0;
            for key in 0..HOT {
                hits += hit(cache, key, 1) as u64;
                for _ in 0..between {
                    fresh += 1;
                    hit(cache, fresh, 1);
                    let s = cache.stats();
                    assert!(s.one_touch_weight <= cap + 1, "{s:?}");
                    assert!(s.weight <= SLOTS, "{s:?}");
                }
            }
            hits
        })
        .collect()
}

#[test]
fn a_hot_loop_beside_one_touch_keys_hits_from_the_third_cycle_under_a_tenth() {
    let capped = a_tenth(per_entry(SLOTS), SLOTS);
    let hits = hot_loop(&capped, 1, SLOTS / 10);
    // Cycle 1 admits the loop as one-touch and the fresh keys push it out
    // past the cap, remembered; cycle 2 fetches it again, as ordinary
    // entries; from cycle 3 on every hot lookup hits.
    assert_eq!(hits[..2], [0, 0]);
    assert!(hits[2..].iter().all(|&h| h == HOT), "{hits:?}");
    assert!(capped.stats().one_touch_evictions > 0);

    // Plain LRU on the same trace: 24 distinct keys between two lookups
    // of a hot key, in 16 slots, so no hot lookup ever hits.
    let lru = per_entry(SLOTS);
    let hits = hot_loop(&lru, 1, SLOTS);
    assert_eq!(hits, vec![0; CYCLES as usize]);
    let s = lru.stats();
    assert_eq!((s.one_touch_evictions, s.entries as u64), (0, SLOTS));
}

#[test]
fn the_hot_loop_alone_hits_from_the_third_cycle_under_a_tenth() {
    let capped = a_tenth(per_entry(SLOTS), SLOTS);
    let hits = hot_loop(&capped, 0, SLOTS / 10);
    // Cycle 1 leaves only its last key held; cycle 2 hits it and fetches
    // the rest again, as ordinary entries.
    assert_eq!(hits[..2], [0, 1]);
    assert!(hits[2..].iter().all(|&h| h == HOT), "{hits:?}");
    // The loop fits, so LRU hits from the second cycle: the cap costs one
    // cycle of misses.
    let hits = hot_loop(&per_entry(SLOTS), 0, SLOTS);
    assert_eq!(hits[0], 0);
    assert!(hits[1..].iter().all(|&h| h == HOT), "{hits:?}");
}

/// What key `key` weighs in the ragged trace: 1 to 2 999 bytes, and now
/// and then more than the whole budget.
fn ragged_len(key: u64) -> usize {
    let mixed = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
    if mixed.is_multiple_of(97) {
        12_000
    } else {
        1 + (mixed % 2_999) as usize
    }
}

#[test]
fn ragged_weights_keep_the_budget_after_every_admission() {
    const BUDGET: u64 = 10_000;
    for cap in [BUDGET / 10, u64::MAX] {
        let cache = Cache::new(BUDGET, |v: &Vec<u8>| v.len() as u64).with_one_touch_cap(cap);
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut seen = BTreeSet::new();
        for op in 0..2_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Half the lookups go to 20 hot keys, half to keys never
            // asked for again.
            let key = if (x >> 63) == 0 {
                (x >> 33) % 20
            } else {
                1_000 + op
            };
            let len = ragged_len(key);
            hit(&cache, key, len);
            seen.insert(key);
            // The books balance: what is resident weighs what the cache
            // says it holds.
            let resident: Vec<u64> = seen.iter().copied().filter(|k| cache.contains(k)).collect();
            let held: u64 = resident.iter().map(|&k| ragged_len(k) as u64).sum();
            let s = cache.stats();
            assert_eq!((s.entries, s.weight), (resident.len(), held), "op {op}");
            assert!(s.one_touch_weight <= s.weight, "op {op}: {s:?}");
            // The budget holds, unless the one value resident is heavier
            // than all of it: the newest admission, held until the next.
            if s.weight > BUDGET {
                assert_eq!(resident, [key], "op {op}: {s:?}");
            }
            // Past the cap, one one-touch value is held: the newest.
            let one_value = |k: &u64| ragged_len(*k) as u64 == s.one_touch_weight;
            if s.one_touch_weight > cap {
                assert!(resident.iter().any(one_value), "op {op}: {s:?}");
            }
        }
        let capped = cap < BUDGET;
        assert_eq!(cache.stats().one_touch_evictions > 0, capped);
    }
}

#[test]
fn the_history_holds_the_newest_keys_only() {
    // A cap of 0: each one-touch entry is evicted, remembered, by the
    // next one.
    let cache = per_entry(SLOTS).with_one_touch_cap(0);
    let n = REMEMBERED_KEYS as u64 + 10;
    for key in 0..n {
        hit(&cache, key, 1);
    }
    // Whether a fetch of `key` is admitted one-touch: it then evicts the
    // one-touch entry resident before it.
    let one_touch = |key| {
        let before = cache.stats().one_touch_evictions;
        assert!(!hit(&cache, key, 1));
        cache.stats().one_touch_evictions > before
    };
    assert!(!one_touch(n - 2), "remembered: an ordinary entry");
    assert!(one_touch(0), "forgotten: one-touch again");
    // `insert` admits an ordinary entry, whatever the key's history.
    cache.insert(n, Arc::new(vec![1]));
    assert_eq!(cache.stats().one_touch_weight, 1, "only key 0");
}
