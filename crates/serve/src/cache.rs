//! The frame cache behind both services: `accelviz-store`'s coalescing
//! LRU [`Cache`], keyed by `(frame, threshold)`, holding frames in the
//! form they go out in.
//!
//! Producing a frame is the expensive part of answering a frame request:
//! an extraction on a server (walk the density-sorted store, bin the
//! volume), an upstream fetch on the router — and then its encoding, which
//! costs more than the extraction. Clients stepping through the same
//! animation ask for the same `(frame, threshold)` pairs over and over,
//! so each service keeps its most recent frames keyed exactly that way,
//! each as a [`Served`]: the frame beside the wire bytes already made
//! from it, so a hit is a write, not an encode.
//!
//! One unit on both services: LRU under a byte budget, each entry weighed
//! on admission by what it holds ([`Served::held_bytes`]). The fetch fills
//! the encoding its request's shape asks for before the entry is
//! admitted, so the budget bounds frame plus payload. The budget is
//! `ServerConfig::cache_bytes` on a server and `RouterConfig::cache_bytes`
//! on a router; both default to [`DEFAULT_CACHE_BYTES`]. Coalescing, the
//! budget rule (0 holds the newest entry only) and what a refused or
//! panicking fetch leaves behind are the cache's own rules
//! ([`accelviz_store::cache`]); here the error a fetch shares with its
//! waiters is a [`Refusal`].

use crate::frontdoor::Shape;
use crate::lod::{chunk_budget, plan_frame_chunks};
use crate::protocol::{Refusal, RESP_FRAME, RESP_FRAME_CHUNK};
use crate::wire::{encode_frame_v2, Sealed};
use accelviz_core::hybrid::HybridFrame;
use accelviz_store::cache::Cache;
use std::borrow::Cow;
use std::sync::{Arc, OnceLock};

pub use accelviz_store::cache::Lookup;

/// Both services' default frame-cache budget: 128 MiB of frames and their
/// encodings. A viewer's loop of `view_remote`-sized frames (≈ 1.6 MiB
/// each with their payload) fits many times over, so it is extracted and
/// encoded once however often it is stepped through.
pub const DEFAULT_CACHE_BYTES: u64 = 128 << 20;

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

    /// The threshold this key stands for: what an origin extracts at, so
    /// a frame's bytes never depend on which of `±0.0` came first.
    pub(crate) fn threshold(&self) -> f64 {
        f64::from_bits(self.threshold_bits)
    }
}

/// One cached frame and the encodings already made from it, each sealed
/// in its reply envelope. Every session that sends this entry —
/// coalesced on its fetch or hitting it later — shares them, so a frame
/// costs one extraction, one encoding per shape *and* one envelope
/// checksum per reply however many clients ask: a send is a write. Both
/// encoders are deterministic: the bytes held are the bytes a fresh
/// encode would give.
pub struct Served {
    frame: HybridFrame,
    /// `encode_frame_v2(frame)` sealed as a frame reply, and the raw
    /// (v1) length it stands for.
    v2: OnceLock<(Sealed, u64)>,
    /// The chunk records of the first budget a progressive session asked
    /// for, each sealed as a chunk reply, with that budget.
    chunks: OnceLock<(u64, Vec<Sealed>)>,
}

impl Served {
    /// `frame`, nothing encoded yet.
    pub fn new(frame: HybridFrame) -> Served {
        Served {
            frame,
            v2: OnceLock::new(),
            chunks: OnceLock::new(),
        }
    }

    /// The frame itself.
    pub fn frame(&self) -> &HybridFrame {
        &self.frame
    }

    /// The frame's v2 reply and raw length, encoded and sealed by the
    /// first caller and shared from then on.
    pub fn v2(&self) -> &(Sealed, u64) {
        self.v2.get_or_init(|| {
            let (payload, raw_len) = encode_frame_v2(&self.frame);
            (Sealed::new(RESP_FRAME, payload), raw_len)
        })
    }

    /// The frame's progressive records under `budget` (already resolved
    /// by [`chunk_budget`]), sealed as chunk replies. The first budget
    /// asked for is planned once and kept; any other is planned for its
    /// caller alone.
    pub fn chunks(&self, budget: u64) -> Cow<'_, [Sealed]> {
        let (kept_budget, kept) = self.kept_chunks(budget);
        if *kept_budget == budget {
            Cow::Borrowed(kept)
        } else {
            Cow::Owned(self.sealed_chunks(budget))
        }
    }

    /// The records this entry keeps and their budget: `budget`'s, planned
    /// here, when nobody asked before.
    fn kept_chunks(&self, budget: u64) -> &(u64, Vec<Sealed>) {
        self.chunks
            .get_or_init(|| (budget, self.sealed_chunks(budget)))
    }

    fn sealed_chunks(&self, budget: u64) -> Vec<Sealed> {
        plan_frame_chunks(&self.frame, budget)
            .into_iter()
            .map(|record| Sealed::new(RESP_FRAME_CHUNK, record))
            .collect()
    }

    /// Fills whichever encoding this entry keeps for a reply of `shape`,
    /// unless it is filled already.
    pub(crate) fn prefill(&self, shape: Shape) {
        match shape {
            Shape::Plain => {
                self.v2();
            }
            Shape::Progressive { chunk_bytes } => {
                self.kept_chunks(chunk_budget(chunk_bytes));
            }
        }
    }

    /// Bytes this entry holds right now: the frame plus whatever has
    /// been encoded from it. Both services weigh their entries with this,
    /// after filling the encoding the fetching request's shape asks for.
    pub fn held_bytes(&self) -> u64 {
        let payload = self
            .v2
            .get()
            .map_or(0, |(sealed, _)| sealed.payload().len());
        let records = self.chunks.get().map_or(0, |(_, records)| {
            records.iter().map(|record| record.payload().len()).sum()
        });
        self.frame.total_bytes() + (payload + records) as u64
    }
}

/// What a frame lookup yields: the shared entry, or why there is none.
pub type Fetched = Result<Arc<Served>, Refusal>;

/// The frame cache of one service, shared by all its session threads.
pub type CoalescingCache = Cache<CacheKey, Served, Refusal>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ERR_INTERNAL;
    use accelviz_beam::distribution::Distribution;
    use accelviz_octree::builder::{partition, BuildParams};
    use accelviz_octree::plots::PlotType;

    fn hybrid(step: usize, particles: usize) -> HybridFrame {
        let ps = Distribution::default_beam().sample(particles, step as u64 + 1);
        let data = partition(&ps, PlotType::XYZ, BuildParams::default());
        HybridFrame::from_partition(&data, step, f64::INFINITY, [4, 4, 4])
    }

    fn frame(step: usize) -> Arc<Served> {
        Arc::new(Served::new(hybrid(step, 100)))
    }

    /// Both services' weighing, at their default budget: room for many
    /// of these small frames.
    fn weighed() -> CoalescingCache {
        CoalescingCache::new(DEFAULT_CACHE_BYTES, Served::held_bytes)
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
        let cache = weighed();
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
        let cache = weighed();
        let _ = cache.get_or_fetch(CacheKey::new(0, 0.0), || Ok(frame(0)));
        let (_, lookup) = cache.get_or_fetch(CacheKey::new(0, -0.0), || panic!("same slot"));
        assert_eq!(
            lookup,
            Lookup::Hit,
            "-0.0 and 0.0 request the same extraction"
        );
    }

    /// Eight sessions sending one entry at once encode it once: every
    /// caller gets the same allocation, and it is what a fresh encode
    /// gives.
    #[test]
    fn concurrent_senders_of_one_entry_share_one_encoding() {
        let served = Served::new(hybrid(0, 2_000));
        let start = std::sync::Barrier::new(8);
        let payloads: Vec<&(Sealed, u64)> = std::thread::scope(|s| {
            let senders: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        served.v2()
                    })
                })
                .collect();
            senders.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for payload in &payloads {
            assert!(std::ptr::eq(*payload, payloads[0]), "one shared encoding");
        }
        let (sealed, raw_len) = payloads[0];
        assert_eq!(
            (sealed.payload().to_vec(), *raw_len),
            encode_frame_v2(served.frame())
        );
    }

    /// A cached send writes exactly what framing the payload afresh
    /// writes, for a plain reply and for a chunk record alike.
    #[test]
    fn a_cached_send_writes_the_envelope_a_fresh_write_would() {
        use crate::wire::write_envelope;
        let served = Served::new(hybrid(0, 2_000));
        let fresh = |kind, payload: &[u8]| {
            let mut buf = Vec::new();
            write_envelope(&mut buf, kind, payload).unwrap();
            buf
        };
        let cached = |sealed: &Sealed| {
            let mut buf = Vec::new();
            let n = sealed.write_to(&mut buf).unwrap();
            assert_eq!(n as usize, buf.len());
            buf
        };
        let (reply, _) = served.v2();
        assert_eq!(cached(reply), fresh(RESP_FRAME, reply.payload()));
        let records = served.chunks(2_048);
        assert!(records.len() > 1);
        for record in records.iter() {
            assert_eq!(cached(record), fresh(RESP_FRAME_CHUNK, record.payload()));
        }
    }

    #[test]
    fn the_first_chunk_budget_is_kept_and_any_other_is_planned_per_call() {
        let served = Served::new(hybrid(0, 2_000));
        let (small, large) = (2_048, 16_384);
        let first = served.chunks(small);
        assert!(matches!(first, Cow::Borrowed(_)));
        let payloads = |records: &[Sealed]| -> Vec<Vec<u8>> {
            records.iter().map(|r| r.payload().to_vec()).collect()
        };
        assert_eq!(payloads(&first), plan_frame_chunks(served.frame(), small));
        let again = served.chunks(small);
        assert!(std::ptr::eq(first.as_ptr(), again.as_ptr()), "kept");
        let other = served.chunks(large);
        assert!(matches!(other, Cow::Owned(_)), "not kept");
        assert_eq!(payloads(&other), plan_frame_chunks(served.frame(), large));
        assert_ne!(first.len(), other.len());
    }

    #[test]
    fn prefill_fills_the_shapes_slot_once() {
        let served = Served::new(hybrid(0, 500));
        let bare = served.held_bytes();
        served.prefill(Shape::Plain);
        let with_payload = served.held_bytes();
        assert_eq!(with_payload, bare + served.v2().0.payload().len() as u64);
        // 0 is "server default", resolved before planning.
        served.prefill(Shape::Progressive { chunk_bytes: 0 });
        let default_plan = plan_frame_chunks(served.frame(), chunk_budget(0));
        assert!(matches!(served.chunks(chunk_budget(0)), Cow::Borrowed(kept)
            if kept.iter().map(Sealed::payload).eq(default_plan.iter().map(Vec::as_slice))));
        // A second budget is nobody's to keep: nothing is planned for it.
        let full = served.held_bytes();
        served.prefill(Shape::Progressive { chunk_bytes: 2_048 });
        assert_eq!(served.held_bytes(), full);
        assert!(matches!(served.chunks(2_048), Cow::Owned(_)));
    }

    #[test]
    fn held_bytes_grow_by_exactly_what_is_encoded() {
        let served = Served::new(hybrid(0, 500));
        let bare = served.held_bytes();
        assert_eq!(bare, served.frame().total_bytes());
        let payload = served.v2().0.payload().len() as u64;
        assert_eq!(served.held_bytes(), bare + payload);
        let records: usize = served.chunks(4_096).iter().map(|r| r.payload().len()).sum();
        assert_eq!(served.held_bytes(), bare + payload + records as u64);
    }
}
