//! The frame cache behind both services: `accelviz-store`'s coalescing
//! LRU [`Cache`], keyed by `(frame, threshold)`.
//!
//! Producing a frame is the expensive part of answering a frame request:
//! an extraction on a server (walk the density-sorted store, bin the
//! volume), an upstream fetch on the router. Clients stepping through
//! the same animation ask for the same `(frame, threshold)` pairs over
//! and over, so each service keeps its most recent frames keyed exactly
//! that way, LRU under a weight budget — "1 per entry" on the server
//! (`ServerConfig::cache_capacity`), resident bytes on the router
//! (`RouterConfig::cache_bytes`). Coalescing, the budget rule and what a
//! refused or panicking fetch leaves behind are the cache's own rules
//! ([`accelviz_store::cache`]); here the error a fetch shares with its
//! waiters is a [`Refusal`].

use crate::protocol::Refusal;
use accelviz_core::hybrid::HybridFrame;
use accelviz_store::cache::Cache;
use std::sync::Arc;

pub use accelviz_store::cache::Lookup;

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

/// The frame cache of one service, shared by all its session threads.
pub type CoalescingCache = Cache<CacheKey, HybridFrame, Refusal>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ERR_INTERNAL;
    use accelviz_beam::distribution::Distribution;
    use accelviz_octree::builder::{partition, BuildParams};
    use accelviz_octree::plots::PlotType;

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
}
