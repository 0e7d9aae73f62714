//! The one coalescing LRU cache in the pipeline.
//!
//! The run store's residency window ([`crate::resident::ResidentRun`]),
//! each service's frame cache (`accelviz_serve::cache`) and the remote
//! viewer's resident set (`RemoteFrames`) are all this type: values
//! keyed by `K`, least recently used out first, under a weight budget
//! whose unit — entries, bytes — the caller picks with `weigh`.
//!
//! Concurrency: the map lock is held only for bookkeeping, never across
//! a fetch. A cold key is marked *fetching* and its fetch runs outside
//! the lock, so distinct cold keys are produced concurrently on their
//! callers' threads; concurrent requests for the *same* cold key
//! coalesce — later arrivals block on that key's condition variable and
//! share the first caller's outcome, so a herd of M costs one fetch.
//!
//! Failure: a fetch that returns `Err` hands a clone of the error to
//! every coalesced waiter and vacates the key — errors are never cached,
//! so recovery is observed on the very next request. A fetch that
//! *panics* also vacates the key, and its waiters go round again (one of
//! them becomes the new fetcher): no outcome of one request can park the
//! requests behind it.
//!
//! Budget: a value heavier than the whole budget is still admitted — it
//! must be resident to serve its coalesced waiters — and is simply the
//! next eviction victim. A zero budget is that rule applied to every
//! value: the cache holds exactly the newest one.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// How [`Cache::get_or_fetch`] answered a lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lookup {
    /// The value was resident.
    Hit,
    /// Joined a fetch another caller had in flight and shared its
    /// outcome, error included.
    Coalesced,
    /// This caller ran the fetch.
    Fetched,
}

/// Snapshot of a [`Cache`]'s occupancy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheStats {
    /// Resident values.
    pub entries: usize,
    /// Their summed weight.
    pub weight: u64,
    /// Values evicted so far to stay under budget.
    pub evictions: u64,
}

/// How an in-flight fetch ended, as its waiters see it.
enum Settled<V, E> {
    /// The fetcher returned; its outcome is every waiter's outcome.
    Done(Result<Arc<V>, E>),
    /// The fetcher panicked; the key is vacant again.
    Abandoned,
}

/// In-flight fetch of one key. Waiters block on `cv` until `settled` is
/// filled.
struct Pending<V, E> {
    settled: Mutex<Option<Settled<V, E>>>,
    cv: Condvar,
    /// Waiters that have taken the `settled` lock: the fetcher publishes
    /// under that lock, so a fetch still running that counts `n` here
    /// will hand its outcome to all `n`.
    parked: AtomicUsize,
}

enum Entry<V, E> {
    Ready {
        value: Arc<V>,
        /// What `weigh` said on admission — the amount eviction refunds.
        weight: u64,
        /// This entry's key in `Inner::order`.
        tick: u64,
    },
    Fetching(Arc<Pending<V, E>>),
}

struct Inner<K, V, E> {
    /// Summed weight of the `Ready` entries.
    weight: u64,
    evictions: u64,
    /// The last recency tick handed out.
    tick: u64,
    /// Recency order over *ready* keys, oldest tick first. Fetching keys
    /// are not listed and therefore cannot be evicted mid-fetch.
    order: BTreeMap<u64, K>,
    entries: HashMap<K, Entry<V, E>>,
}

impl<K: Clone + Eq + Hash, V, E> Inner<K, V, E> {
    /// The ready value under `key`, now the most recently used.
    fn touch(&mut self, key: &K) -> Option<Arc<V>> {
        let Some(Entry::Ready { value, tick, .. }) = self.entries.get_mut(key) else {
            return None;
        };
        self.order.remove(tick);
        self.tick += 1;
        *tick = self.tick;
        self.order.insert(self.tick, key.clone());
        Some(Arc::clone(value))
    }
}

/// An LRU cache shared by the threads of one service, with same-key
/// coalescing. See the [module docs](self).
pub struct Cache<K, V, E> {
    budget: u64,
    weigh: fn(&V) -> u64,
    inner: Mutex<Inner<K, V, E>>,
}

impl<K: Clone + Eq + Hash, V, E: Clone> Cache<K, V, E> {
    /// A cache whose resident values weigh at most `budget` in total,
    /// each weighed once, on admission, by `weigh`.
    pub fn new(budget: u64, weigh: fn(&V) -> u64) -> Cache<K, V, E> {
        Cache {
            budget,
            weigh,
            inner: Mutex::new(Inner {
                weight: 0,
                evictions: 0,
                tick: 0,
                order: BTreeMap::new(),
                entries: HashMap::new(),
            }),
        }
    }

    /// Current occupancy and evictions so far.
    pub fn stats(&self) -> CacheStats {
        let g = lock(&self.inner);
        CacheStats {
            entries: g.order.len(),
            weight: g.weight,
            evictions: g.evictions,
        }
    }

    /// The resident value under `key`, marked most recently used.
    pub fn get(&self, key: &K) -> Option<Arc<V>> {
        lock(&self.inner).touch(key)
    }

    /// Whether a value is resident under `key`; its recency is untouched.
    pub fn contains(&self, key: &K) -> bool {
        matches!(
            lock(&self.inner).entries.get(key),
            Some(Entry::Ready { .. })
        )
    }

    /// Lookups parked on `key`'s fetch in flight: each is answered
    /// [`Lookup::Coalesced`] with its outcome, unless the fetch panics.
    /// 0 when no fetch of `key` is in flight.
    pub fn parked(&self, key: &K) -> usize {
        match lock(&self.inner).entries.get(key) {
            Some(Entry::Fetching(p)) => p.parked.load(Ordering::SeqCst),
            _ => 0,
        }
    }

    /// Makes `value` the resident, most recently used value under `key`,
    /// evicting least recently used values until the budget holds.
    pub fn insert(&self, key: K, value: Arc<V>) {
        self.admit(&mut lock(&self.inner), key, value);
    }

    /// Returns the value for `key`, running `fetch` when it is neither
    /// resident nor already in flight. Concurrent calls with the same
    /// cold key run one `fetch` and share its outcome; calls with
    /// distinct cold keys fetch concurrently.
    pub fn get_or_fetch(
        &self,
        key: K,
        fetch: impl FnOnce() -> Result<Arc<V>, E>,
    ) -> (Result<Arc<V>, E>, Lookup) {
        loop {
            let pending = {
                let mut g = lock(&self.inner);
                if let Some(value) = g.touch(&key) {
                    return (Ok(value), Lookup::Hit);
                }
                match g.entries.get(&key) {
                    Some(Entry::Fetching(p)) => Arc::clone(p),
                    _ => {
                        let p = Arc::new(Pending {
                            settled: Mutex::new(None),
                            cv: Condvar::new(),
                            parked: AtomicUsize::new(0),
                        });
                        g.entries
                            .insert(key.clone(), Entry::Fetching(Arc::clone(&p)));
                        drop(g);
                        return (self.run_fetch(key, &p, fetch), Lookup::Fetched);
                    }
                }
            };
            // Wait outside every lock for the in-flight fetch.
            let mut settled = lock(&pending.settled);
            pending.parked.fetch_add(1, Ordering::SeqCst);
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
    /// publishes the outcome to the map (a value only) and to every
    /// coalesced waiter (whatever it was).
    fn run_fetch(
        &self,
        key: K,
        pending: &Pending<V, E>,
        fetch: impl FnOnce() -> Result<Arc<V>, E>,
    ) -> Result<Arc<V>, E> {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(fetch));
        {
            let mut g = lock(&self.inner);
            match &outcome {
                Ok(Ok(value)) => self.admit(&mut g, key, Arc::clone(value)),
                // Failed or panicked: vacate the key, cache nothing —
                // unless an `insert` has made it ready meanwhile.
                _ => {
                    let ours = matches!(g.entries.get(&key),
                        Some(Entry::Fetching(p)) if std::ptr::eq(Arc::as_ptr(p), pending));
                    if ours {
                        g.entries.remove(&key);
                    }
                }
            }
        }
        let settled = match &outcome {
            Ok(fetched) => Settled::Done(fetched.clone()),
            Err(_panic) => Settled::Abandoned,
        };
        *lock(&pending.settled) = Some(settled);
        pending.cv.notify_all();
        outcome.unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }

    /// Replaces whatever `key` maps to with `value`, evicting from the
    /// old end of `order` first. The newcomer is listed only afterwards,
    /// so it can never evict itself.
    fn admit(&self, g: &mut Inner<K, V, E>, key: K, value: Arc<V>) {
        if let Some(Entry::Ready { weight, tick, .. }) = g.entries.remove(&key) {
            g.weight -= weight;
            g.order.remove(&tick);
        }
        let incoming = (self.weigh)(&value);
        while g.weight + incoming > self.budget {
            let Some((_, victim)) = g.order.pop_first() else {
                break;
            };
            if let Some(Entry::Ready { weight, .. }) = g.entries.remove(&victim) {
                g.weight -= weight;
                g.evictions += 1;
            }
        }
        g.tick += 1;
        let tick = g.tick;
        g.order.insert(tick, key.clone());
        g.weight += incoming;
        g.entries.insert(
            key,
            Entry::Ready {
                value,
                weight: incoming,
                tick,
            },
        );
    }
}

/// Locks, ignoring poison: a panicked holder leaves nothing half-updated
/// that the next holder could trip over.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Barrier;

    type TestCache = Cache<u32, Vec<u8>, String>;
    type Fetched = Result<Arc<Vec<u8>>, String>;

    /// A value whose size differs per step, like frames do.
    fn frame(step: usize) -> Arc<Vec<u8>> {
        Arc::new(vec![step as u8; 1_000 + step])
    }

    /// A server's weighing: a budget of `n` is `n` entries.
    fn per_entry(n: u64) -> TestCache {
        Cache::new(n, |_| 1)
    }

    /// A router's or a residency window's weighing: a budget in bytes.
    fn per_byte(budget: u64) -> TestCache {
        Cache::new(budget, |v| v.len() as u64)
    }

    /// Whether `key` is resident: a lookup whose fetch must not run.
    fn resident(cache: &TestCache, key: u32) -> bool {
        let mut fetched = false;
        let _ = cache.get_or_fetch(key, || {
            fetched = true;
            Err("residency check".to_string())
        });
        !fetched
    }

    #[test]
    fn second_request_hits_and_shares_the_arc() {
        let cache = per_entry(4);
        let (a, first) = cache.get_or_fetch(0, || Ok(frame(0)));
        let (b, second) = cache.get_or_fetch(0, || panic!("must not refetch"));
        assert_eq!((first, second), (Lookup::Fetched, Lookup::Hit));
        assert!(Arc::ptr_eq(&a.unwrap(), &b.unwrap()));
    }

    #[test]
    fn lru_evicts_the_oldest_untouched_key_under_both_weighings() {
        // Budgets of exactly two frames: the third insert must evict
        // the least recently used resident frame.
        for cache in [per_entry(2), per_byte(2 * frame(2).len() as u64)] {
            let _ = cache.get_or_fetch(0, || Ok(frame(0)));
            let _ = cache.get_or_fetch(1, || Ok(frame(1)));
            assert!(resident(&cache, 0)); // touch key 0
            let _ = cache.get_or_fetch(2, || Ok(frame(2))); // evicts key 1
            assert!(resident(&cache, 0), "key 0 survived");
            assert!(!resident(&cache, 1), "key 1 was the LRU victim");
        }
    }

    #[test]
    fn recency_order_matches_a_reference_vec_model() {
        // One lookup stream drives the cache and a Vec kept in recency
        // order; the residents and their order must stay identical.
        let cache = per_entry(8);
        let mut model: Vec<u32> = Vec::new();
        let mut x = 0x9E37_79B9u64;
        for _ in 0..2_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = ((x >> 33) % 12) as u32;
            let _ = cache.get_or_fetch(key, || Ok(frame(0)));
            model.retain(|&k| k != key);
            model.push(key);
            if model.len() > 8 {
                model.remove(0);
            }
            let order: Vec<u32> = lock(&cache.inner).order.values().copied().collect();
            assert_eq!(order, model);
        }
    }

    #[test]
    fn get_and_insert_share_the_recency_order_and_the_budget() {
        let cache = per_byte(2 * frame(2).len() as u64);
        assert!(cache.get(&0).is_none());
        cache.insert(0, frame(0));
        cache.insert(1, frame(1));
        cache.insert(1, frame(1)); // replaced, charged once
        let held = (frame(0).len() + frame(1).len()) as u64;
        assert_eq!((cache.stats().entries, cache.stats().weight), (2, held));
        assert!(cache.get(&0).is_some()); // touch key 0
        cache.insert(2, frame(2)); // evicts key 1
        assert!(cache.get(&0).is_some() && cache.get(&1).is_none());
        assert_eq!(cache.stats().evictions, 1);
        // Eviction refunds what admission charged.
        let held = (frame(0).len() + frame(2).len()) as u64;
        assert_eq!(cache.stats().weight, held);
    }

    #[test]
    fn contains_leaves_the_recency_order_alone() {
        let cache = per_byte(2 * frame(2).len() as u64);
        cache.insert(0, frame(0));
        cache.insert(1, frame(1));
        assert!(cache.contains(&0) && !cache.contains(&2));
        cache.insert(2, frame(2)); // key 0 is still the oldest: evicted
        assert!(!cache.contains(&0) && cache.contains(&1));
    }

    #[test]
    fn admits_frames_larger_than_the_whole_budget() {
        let cache = per_byte(1);
        let big = frame(0);
        let (got, _) = cache.get_or_fetch(0, || Ok(Arc::clone(&big)));
        assert!(Arc::ptr_eq(&got.unwrap(), &big));
        // Still resident: the just-inserted frame is never its own
        // eviction victim, so its coalesced waiters are served.
        let (again, _) = cache.get_or_fetch(0, || panic!("resident"));
        assert!(Arc::ptr_eq(&again.unwrap(), &big));
        // The next distinct insert evicts it.
        let _ = cache.get_or_fetch(1, || Ok(frame(1)));
        assert!(
            !resident(&cache, 0),
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
                    cache.get_or_fetch(0, || {
                        fetches.fetch_add(1, Ordering::SeqCst);
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
        for cache in [per_entry(8), per_byte(1 << 20)] {
            let cache = Arc::new(cache);
            let in_fetch = Arc::new(Barrier::new(2));
            let handles: Vec<_> = (0..2u32)
                .map(|i| {
                    let (cache, in_fetch) = (Arc::clone(&cache), Arc::clone(&in_fetch));
                    std::thread::spawn(move || {
                        cache.get_or_fetch(i, || {
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
    }

    /// Runs `first` as key 0's fetch and, once a second lookup of key 0
    /// (whose own fetch would be `second`) is parked on it, lets it
    /// finish. Returns the first caller's outcome (`Err` if its fetch
    /// panicked) and the second's.
    fn join_in_flight(
        cache: &Arc<TestCache>,
        first: impl FnOnce() -> Fetched,
        second: impl FnOnce() -> Fetched + Send + 'static,
    ) -> (std::thread::Result<(Fetched, Lookup)>, (Fetched, Lookup)) {
        let gate = Arc::new(Barrier::new(2));
        let waiter = {
            let (cache, gate) = (Arc::clone(cache), Arc::clone(&gate));
            std::thread::spawn(move || {
                gate.wait(); // the first caller is inside its fetch
                cache.get_or_fetch(0, second)
            })
        };
        let first = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_fetch(0, || {
                gate.wait();
                while cache.parked(&0) == 0 {
                    std::thread::yield_now();
                }
                first()
            })
        }));
        (first, waiter.join().unwrap())
    }

    #[test]
    fn coalesces_and_shares_refusals_without_caching_them() {
        let cache = Arc::new(per_byte(1 << 20));
        let down = "shard down".to_string();

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
        let (second, lookup) = cache.get_or_fetch(0, || Ok(Arc::clone(&served)));
        assert_eq!(lookup, Lookup::Fetched);
        assert!(Arc::ptr_eq(&second.unwrap(), &served));
        let (third, _) = cache.get_or_fetch(0, || panic!("cached now"));
        assert!(Arc::ptr_eq(&third.unwrap(), &served));
    }

    #[test]
    fn a_zero_budget_serves_a_herd_from_one_fetch_and_holds_the_newest_entry() {
        for cache in [per_entry(0), per_byte(0)] {
            let cache = Arc::new(cache);
            let (first, (shared, lookup)) =
                join_in_flight(&cache, || Ok(frame(0)), || panic!("one fetch for the herd"));
            assert_eq!(lookup, Lookup::Coalesced);
            assert!(Arc::ptr_eq(&first.unwrap().0.unwrap(), &shared.unwrap()));
            assert!(resident(&cache, 0), "the newest entry stays");
            let _ = cache.get_or_fetch(1, || Ok(frame(1)));
            assert!(resident(&cache, 1) && !resident(&cache, 0));
            let s = cache.stats();
            assert_eq!((s.entries, s.evictions), (1, 1));
        }
    }

    #[test]
    fn a_failed_fetch_keeps_a_value_inserted_while_it_ran() {
        // A fetch that fails or panics after an `insert` of its key
        // leaves the inserted value resident and the books balanced.
        for panics in [false, true] {
            let cache = per_byte(10_000);
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                cache.get_or_fetch(0, || {
                    cache.insert(0, frame(1));
                    if panics {
                        panic!("fetch panicked");
                    }
                    Err("fetch failed".to_string())
                })
            }));
            assert_eq!(run.is_err(), panics);
            let s = cache.stats();
            assert_eq!((s.entries, s.weight), (1, frame(1).len() as u64), "{s:?}");
            assert_eq!(cache.get(&0).unwrap().len(), frame(1).len());
            // Evicting it refunds exactly its weight.
            cache.insert(1, Arc::new(vec![0; 10_000]));
            let s = cache.stats();
            assert_eq!((s.entries, s.weight, s.evictions), (1, 10_000, 1), "{s:?}");
        }
    }

    #[test]
    fn panicking_fetch_vacates_the_key_for_retry() {
        let cache = per_entry(4);
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = cache.get_or_fetch(0, || panic!("extraction failed"));
        }));
        assert!(poisoned.is_err());
        let (_, lookup) = cache.get_or_fetch(0, || Ok(frame(0)));
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
            assert_eq!(lookup, Lookup::Fetched);
            assert!(resident(&cache, 0), "the key serves on");
        }
    }
}
