//! The coalescing frame cache behind both services.
//!
//! Producing a frame is the expensive part of answering a frame request:
//! an extraction on a server (walk the density-sorted store, bin the
//! volume), an upstream fetch on the router. Clients stepping through
//! the same animation ask for the same `(frame, threshold)` pairs over
//! and over, so each service keeps its most recent frames keyed exactly
//! that way, LRU under a weight budget — "1 per entry" on the server
//! (`ServerConfig::cache_capacity`), resident bytes on the router
//! (`RouterConfig::cache_bytes`).
//!
//! Concurrency: the map lock is held only for bookkeeping, never across
//! a fetch. A cold key is marked *fetching* and its fetch runs outside
//! the lock, so distinct cold keys are produced concurrently on their
//! own session threads; concurrent requests for the *same* cold key
//! coalesce — later arrivals block on that key's condition variable and
//! share the first caller's outcome, so a herd of M costs one fetch.
//!
//! Failure: a fetch that is *refused* (shed, dead shard, disk error)
//! hands its [`Refusal`] to every coalesced waiter and vacates the key —
//! refusals are never cached, so recovery is observed on the very next
//! request. A fetch that *panics* also vacates the key, and its waiters
//! go round again (one of them becomes the new fetcher): no outcome of
//! one request can park the requests behind it.

use crate::lru::LruOrder;
use crate::protocol::Refusal;
use accelviz_core::hybrid::HybridFrame;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex as StdMutex};

/// Cache key: frame index plus the exact threshold bits. Using `to_bits`
/// sidesteps float equality — a client re-requesting the same dialed
/// threshold hits; any different dial is a different extraction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Frame index.
    pub frame: u32,
    /// `f64::to_bits` of the extraction threshold.
    pub threshold_bits: u64,
}

impl CacheKey {
    /// Key for `frame` extracted at `threshold`. `-0.0` is normalized to
    /// `0.0`: the two compare equal everywhere in extraction, so they
    /// must not occupy two cache slots for the same result.
    pub fn new(frame: u32, threshold: f64) -> CacheKey {
        let threshold = if threshold == 0.0 { 0.0 } else { threshold };
        CacheKey {
            frame,
            threshold_bits: threshold.to_bits(),
        }
    }
}

/// What a frame lookup yields: the shared frame, or why there is none.
pub type Fetched = Result<Arc<HybridFrame>, Refusal>;

/// How [`CoalescingCache::get_or_fetch`] answered a lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lookup {
    /// The frame was resident.
    Hit,
    /// Joined a fetch another caller had in flight and shared its
    /// outcome, refusal included.
    Coalesced,
    /// This caller ran the fetch.
    Fetched,
}

/// How an in-flight fetch ended, as its waiters see it.
enum Settled {
    /// The fetcher returned; its outcome is every waiter's outcome.
    Done(Fetched),
    /// The fetcher panicked; the key is vacant again.
    Abandoned,
}

/// In-flight fetch of one key. Waiters block on `cv` until `settled` is
/// filled.
#[derive(Default)]
struct Pending {
    settled: StdMutex<Option<Settled>>,
    cv: Condvar,
}

enum Entry {
    Ready(Arc<HybridFrame>),
    Fetching(Arc<Pending>),
}

struct Inner {
    /// Summed weight of the `Ready` entries.
    resident: u64,
    /// LRU order over *ready* keys. Fetching keys are not listed and
    /// therefore cannot be evicted mid-fetch.
    order: LruOrder<CacheKey>,
    entries: HashMap<CacheKey, Entry>,
}

/// An LRU cache of frames shared by all session threads of one service,
/// with same-key coalescing. See the [module docs](self).
pub struct CoalescingCache {
    budget: u64,
    weigh: fn(&HybridFrame) -> u64,
    inner: Mutex<Inner>,
}

impl CoalescingCache {
    /// A cache whose resident frames weigh at most `budget` in total,
    /// each weighed by `weigh`. A frame heavier than the whole budget is
    /// still admitted — it must be resident to serve its coalesced
    /// waiters — and is simply the next eviction victim.
    pub fn new(budget: u64, weigh: fn(&HybridFrame) -> u64) -> CoalescingCache {
        assert!(budget > 0, "cache needs a positive budget");
        CoalescingCache {
            budget,
            weigh,
            inner: Mutex::new(Inner {
                resident: 0,
                order: LruOrder::new(),
                entries: HashMap::new(),
            }),
        }
    }

    /// Returns the frame for `key`, running `fetch` when it is neither
    /// resident nor already in flight. Concurrent calls with the same
    /// cold key run one `fetch` and share its outcome; calls with
    /// distinct cold keys fetch concurrently.
    pub fn get_or_fetch(
        &self,
        key: CacheKey,
        fetch: impl FnOnce() -> Fetched,
    ) -> (Fetched, Lookup) {
        loop {
            let pending = {
                let mut g = self.inner.lock();
                match g.entries.get(&key) {
                    Some(Entry::Ready(frame)) => {
                        let frame = Arc::clone(frame);
                        g.order.touch(key);
                        return (Ok(frame), Lookup::Hit);
                    }
                    Some(Entry::Fetching(p)) => Arc::clone(p),
                    None => {
                        let p = Arc::new(Pending::default());
                        g.entries.insert(key, Entry::Fetching(Arc::clone(&p)));
                        drop(g);
                        return (self.run_fetch(key, &p, fetch), Lookup::Fetched);
                    }
                }
            };
            // Wait outside every lock for the in-flight fetch.
            let mut settled = pending.settled.lock().unwrap_or_else(|e| e.into_inner());
            while settled.is_none() {
                settled = pending.cv.wait(settled).unwrap_or_else(|e| e.into_inner());
            }
            if let Some(Settled::Done(outcome)) = &*settled {
                return (outcome.clone(), Lookup::Coalesced);
            }
            // Abandoned: look again (this caller may become the fetcher).
        }
    }

    /// Runs `fetch` for a key this thread just marked in flight, then
    /// publishes the outcome to the map (a frame only) and to every
    /// coalesced waiter (whatever it was).
    fn run_fetch(
        &self,
        key: CacheKey,
        pending: &Pending,
        fetch: impl FnOnce() -> Fetched,
    ) -> Fetched {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(fetch));
        {
            let mut g = self.inner.lock();
            match &outcome {
                Ok(Ok(frame)) => {
                    // The newcomer is not in `order` yet, so it can never
                    // evict itself.
                    let incoming = (self.weigh)(frame);
                    while g.resident + incoming > self.budget {
                        let Some(victim) = g.order.pop_oldest() else {
                            break;
                        };
                        if let Some(Entry::Ready(evicted)) = g.entries.remove(&victim) {
                            g.resident -= (self.weigh)(&evicted);
                        }
                    }
                    g.order.touch(key);
                    g.resident += incoming;
                    g.entries.insert(key, Entry::Ready(Arc::clone(frame)));
                }
                // Refused or panicked: vacate the key, cache nothing.
                _ => {
                    g.entries.remove(&key);
                }
            }
        }
        let settled = match &outcome {
            Ok(fetched) => Settled::Done(fetched.clone()),
            Err(_panic) => Settled::Abandoned,
        };
        *pending.settled.lock().unwrap_or_else(|e| e.into_inner()) = Some(settled);
        pending.cv.notify_all();
        outcome.unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ERR_INTERNAL;
    use accelviz_beam::distribution::Distribution;
    use accelviz_octree::builder::{partition, BuildParams};
    use accelviz_octree::plots::PlotType;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Barrier;
    use std::time::Duration;

    fn frame(step: usize) -> Arc<HybridFrame> {
        let ps = Distribution::default_beam().sample(100, step as u64 + 1);
        let data = partition(&ps, PlotType::XYZ, BuildParams::default());
        Arc::new(HybridFrame::from_partition(
            &data,
            step,
            f64::INFINITY,
            [2, 2, 2],
        ))
    }

    /// The server's weighing: a budget of `n` is `n` entries.
    fn per_entry(n: u64) -> CoalescingCache {
        CoalescingCache::new(n, |_| 1)
    }

    /// The router's weighing: a budget in resident bytes.
    fn per_byte(budget: u64) -> CoalescingCache {
        CoalescingCache::new(budget, HybridFrame::total_bytes)
    }

    fn key(frame: u32) -> CacheKey {
        CacheKey::new(frame, 1.0)
    }

    /// Whether `key` is resident: a lookup whose fetch must not run.
    fn resident(cache: &CoalescingCache, key: CacheKey) -> bool {
        let mut fetched = false;
        let _ = cache.get_or_fetch(key, || {
            fetched = true;
            Err(Refusal::new(ERR_INTERNAL, "residency check"))
        });
        !fetched
    }

    #[test]
    fn second_request_hits_and_shares_the_arc() {
        let cache = per_entry(4);
        let (a, first) = cache.get_or_fetch(key(0), || Ok(frame(0)));
        let (b, second) = cache.get_or_fetch(key(0), || panic!("must not refetch"));
        assert_eq!((first, second), (Lookup::Fetched, Lookup::Hit));
        assert!(Arc::ptr_eq(&a.unwrap(), &b.unwrap()));
    }

    #[test]
    fn distinct_thresholds_are_distinct_entries() {
        let cache = per_entry(4);
        let _ = cache.get_or_fetch(CacheKey::new(0, 0.25), || Ok(frame(0)));
        let (_, lookup) = cache.get_or_fetch(CacheKey::new(0, 0.5), || Ok(frame(0)));
        assert_eq!(
            lookup,
            Lookup::Fetched,
            "a different threshold is a different extraction"
        );
        assert!(
            resident(&cache, CacheKey::new(0, 0.25)) && resident(&cache, CacheKey::new(0, 0.5))
        );
    }

    #[test]
    fn negative_zero_threshold_shares_the_positive_zero_slot() {
        assert_eq!(CacheKey::new(3, -0.0), CacheKey::new(3, 0.0));
        let cache = per_entry(4);
        let _ = cache.get_or_fetch(CacheKey::new(0, 0.0), || Ok(frame(0)));
        let (_, lookup) = cache.get_or_fetch(CacheKey::new(0, -0.0), || panic!("same slot"));
        assert_eq!(
            lookup,
            Lookup::Hit,
            "-0.0 and 0.0 request the same extraction"
        );
    }

    #[test]
    fn lru_evicts_the_oldest_untouched_key_under_both_weighings() {
        // Budgets of exactly two frames: the third insert must evict
        // the least recently used resident frame.
        for cache in [per_entry(2), per_byte(2 * frame(0).total_bytes())] {
            let _ = cache.get_or_fetch(key(0), || Ok(frame(0)));
            let _ = cache.get_or_fetch(key(1), || Ok(frame(1)));
            assert!(resident(&cache, key(0))); // touch key 0
            let _ = cache.get_or_fetch(key(2), || Ok(frame(2))); // evicts key 1
            assert!(resident(&cache, key(0)), "key 0 survived");
            assert!(!resident(&cache, key(1)), "key 1 was the LRU victim");
        }
    }

    #[test]
    fn admits_frames_larger_than_the_whole_budget() {
        let cache = per_byte(1);
        let big = frame(0);
        let (got, _) = cache.get_or_fetch(key(0), || Ok(Arc::clone(&big)));
        assert!(Arc::ptr_eq(&got.unwrap(), &big));
        // Still resident: the just-inserted frame is never its own
        // eviction victim, so its coalesced waiters are served.
        let (again, _) = cache.get_or_fetch(key(0), || panic!("resident"));
        assert!(Arc::ptr_eq(&again.unwrap(), &big));
        // The next distinct insert evicts it.
        let _ = cache.get_or_fetch(key(1), || Ok(frame(1)));
        assert!(
            !resident(&cache, key(0)),
            "the oversized frame was the next victim"
        );
    }

    #[test]
    fn same_cold_key_fetches_once_across_threads() {
        let cache = Arc::new(per_entry(4));
        let fetches = Arc::new(AtomicU64::new(0));
        let barrier = Arc::new(Barrier::new(4));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let (cache, fetches, barrier) = (
                    Arc::clone(&cache),
                    Arc::clone(&fetches),
                    Arc::clone(&barrier),
                );
                std::thread::spawn(move || {
                    barrier.wait();
                    cache.get_or_fetch(key(0), || {
                        fetches.fetch_add(1, Ordering::SeqCst);
                        // Long enough that the other threads arrive mid-fetch.
                        std::thread::sleep(Duration::from_millis(50));
                        Ok(frame(0))
                    })
                })
            })
            .collect();
        let results: Vec<(Fetched, Lookup)> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(fetches.load(Ordering::SeqCst), 1, "fetch ran exactly once");
        let fetched = |l: &Lookup| *l == Lookup::Fetched;
        assert_eq!(results.iter().filter(|(_, l)| fetched(l)).count(), 1);
        let first = results[0].0.as_ref().unwrap();
        for (f, _) in &results[1..] {
            assert!(
                Arc::ptr_eq(first, f.as_ref().unwrap()),
                "all callers share one Arc"
            );
        }
    }

    #[test]
    fn distinct_cold_keys_fetch_concurrently() {
        let cache = Arc::new(per_entry(8));
        let in_fetch = Arc::new(Barrier::new(2));
        let handles: Vec<_> = (0..2u32)
            .map(|i| {
                let (cache, in_fetch) = (Arc::clone(&cache), Arc::clone(&in_fetch));
                std::thread::spawn(move || {
                    cache.get_or_fetch(key(i), || {
                        // Both fetchers must be inside their fetches at
                        // the same time for this rendezvous to pass; a
                        // lock held across the fetch would deadlock.
                        in_fetch.wait();
                        Ok(frame(i as usize))
                    })
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap().1, Lookup::Fetched);
        }
    }

    /// Runs `first` as key 0's fetch and, while it is in flight, a second
    /// lookup of key 0 whose own fetch would be `second`. Returns the
    /// first caller's outcome (`Err` if its fetch panicked) and the
    /// second's.
    fn join_in_flight(
        cache: &Arc<CoalescingCache>,
        first: impl FnOnce() -> Fetched,
        second: impl FnOnce() -> Fetched + Send + 'static,
    ) -> (std::thread::Result<(Fetched, Lookup)>, (Fetched, Lookup)) {
        let gate = Arc::new(Barrier::new(2));
        let waiter = {
            let (cache, gate) = (Arc::clone(cache), Arc::clone(&gate));
            std::thread::spawn(move || {
                gate.wait(); // the first caller is inside its fetch
                cache.get_or_fetch(key(0), second)
            })
        };
        let first = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_fetch(key(0), || {
                gate.wait();
                // Give the waiter time to park on the pending slot.
                std::thread::sleep(Duration::from_millis(50));
                first()
            })
        }));
        (first, waiter.join().unwrap())
    }

    #[test]
    fn coalesces_and_shares_refusals_without_caching_them() {
        let cache = Arc::new(per_byte(1 << 20));
        let down = Refusal::new(ERR_INTERNAL, "shard down");

        // First wave: the fetch is refused; a waiter that arrives
        // mid-fetch shares the refusal.
        let refuse = || Err(down.clone());
        let (first, (shared, lookup)) =
            join_in_flight(&cache, refuse, || panic!("waiter must coalesce, not fetch"));
        assert_eq!(first.unwrap().0.unwrap_err(), down);
        assert_eq!(
            (shared.unwrap_err(), lookup),
            (down.clone(), Lookup::Coalesced)
        );

        // The refusal was not cached: the next call fetches again and a
        // success is then served from cache.
        let served = frame(0);
        let (second, lookup) = cache.get_or_fetch(key(0), || Ok(Arc::clone(&served)));
        assert_eq!(lookup, Lookup::Fetched);
        assert!(Arc::ptr_eq(&second.unwrap(), &served));
        let (third, _) = cache.get_or_fetch(key(0), || panic!("cached now"));
        assert!(Arc::ptr_eq(&third.unwrap(), &served));
    }

    #[test]
    fn panicking_fetch_vacates_the_key_for_retry() {
        let cache = per_entry(4);
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = cache.get_or_fetch(key(0), || panic!("extraction failed"));
        }));
        assert!(poisoned.is_err());
        let (_, lookup) = cache.get_or_fetch(key(0), || Ok(frame(0)));
        assert_eq!(
            lookup,
            Lookup::Fetched,
            "key is refetchable after a failed fetch"
        );
    }

    /// No wedge: the fetcher panics while a waiter is parked on its key;
    /// the waiter wakes, becomes the fetcher, and the key serves on.
    #[test]
    fn a_waiter_parked_on_a_panicking_fetch_refetches_under_both_weighings() {
        for cache in [per_entry(4), per_byte(1 << 20)] {
            let cache = Arc::new(cache);
            let (doomed, (got, lookup)) =
                join_in_flight(&cache, || panic!("fetch failed"), || Ok(frame(0)));
            assert!(doomed.is_err() && got.is_ok());
            // Parked → refetched; arrived after the vacate → plain fetch.
            assert_eq!(lookup, Lookup::Fetched);
            assert!(resident(&cache, key(0)), "the key serves on");
        }
    }
}
