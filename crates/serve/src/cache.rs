//! The frame cache behind both services: `accelviz-store`'s coalescing
//! LRU [`Cache`], keyed by `(frame, threshold)`, holding frames in the
//! form they go out in.
//!
//! Producing a frame is the expensive part of answering a frame request:
//! an extraction on a server (walk the density-sorted store, bin the
//! volume) and then its encoding, which costs more than the extraction;
//! an upstream fetch on the router. Clients stepping through the same
//! animation ask for the same `(frame, threshold)` pairs over and over,
//! so each service keeps its most recent frames keyed exactly that way,
//! each as a [`Served`]: on a server the frame beside the wire bytes
//! already made from it, on a router the shard's reply as it was read, so
//! a hit is a write, not an encode. A router's entry decodes its frame
//! only when a progressive request needs records planned from it; that
//! decode can fail, and a fetch whose decode fails is refused, never
//! cached.
//!
//! One unit on both services: LRU under a byte budget, each entry weighed
//! on admission by what it holds ([`Served::held_bytes`]). The fetch fills
//! the encoding its request's shape asks for before the entry is
//! admitted, so the budget bounds what the entry holds: frame plus
//! payload on a server, the payload (and a frame only once decoded) on a
//! router. The budget is
//! `ServerConfig::cache_bytes` on a server and `RouterConfig::cache_bytes`
//! on a router; both default to [`DEFAULT_CACHE_BYTES`]. Coalescing, the
//! budget rule (0 holds the newest entry only) and what a refused or
//! panicking fetch leaves behind are the cache's own rules
//! ([`accelviz_store::cache`]); here the error a fetch shares with its
//! waiters is a [`Refusal`].

use crate::frontdoor::Shape;
use crate::lod::{chunk_budget, plan_frame_chunks};
use crate::protocol::{Refusal, ERR_INTERNAL, RESP_FRAME, RESP_FRAME_CHUNK};
use crate::wire::{decode_frame_v2, encode_frame_v2, Sealed};
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
///
/// A server's entry starts from its extracted frame ([`Served::new`]); a
/// router's from the shard's reply as read (`Served::forwarded`), which
/// it sends on byte for byte. Such an entry's frame is decoded only if a
/// progressive session asks for records planned from it.
pub struct Served {
    /// The frame: given, or decoded from the v2 reply by the first caller
    /// that needs it — once, and a reply that does not decode stays
    /// refused.
    frame: OnceLock<Result<HybridFrame, Refusal>>,
    /// `encode_frame_v2(frame)` sealed as a frame reply, or the shard's
    /// reply as read; and the raw (v1) length it stands for.
    v2: OnceLock<(Sealed, u64)>,
    /// The chunk records of the first budget a progressive session asked
    /// for, each sealed as a chunk reply, with that budget.
    chunks: OnceLock<(u64, Vec<Sealed>)>,
}

impl Served {
    /// `frame`, nothing encoded yet.
    pub fn new(frame: HybridFrame) -> Served {
        Served {
            frame: OnceLock::from(Ok(frame)),
            v2: OnceLock::new(),
            chunks: OnceLock::new(),
        }
    }

    /// A frame `reply` read whole, its envelope checksum verified, and the
    /// raw length its trailer promises ([`crate::wire::FramePeek`]): sent
    /// as it was read, nothing decoded yet.
    pub(crate) fn forwarded(reply: Sealed, raw_len: u64) -> Served {
        Served {
            frame: OnceLock::new(),
            v2: OnceLock::from((reply, raw_len)),
            chunks: OnceLock::new(),
        }
    }

    /// The frame itself, decoded from the reply on a forwarded entry's
    /// first call, or why the reply does not decode to the frame its
    /// trailer promises.
    pub fn frame(&self) -> Result<&HybridFrame, Refusal> {
        let decoded = self.frame.get_or_init(|| {
            let (reply, _) = self
                .v2
                .get()
                .expect("an entry holds its frame or its reply");
            decode_frame_v2(reply.payload()).map_err(|e| {
                Refusal::new(
                    ERR_INTERNAL,
                    format!("the frame reply does not decode: {e}"),
                )
            })
        });
        decoded.as_ref().map_err(Refusal::clone)
    }

    /// The frame's v2 reply and raw length, encoded and sealed by the
    /// first caller and shared from then on.
    pub fn v2(&self) -> &(Sealed, u64) {
        self.v2.get_or_init(|| {
            let frame = self
                .frame()
                .expect("an entry without a reply holds its frame");
            let (payload, raw_len) = encode_frame_v2(frame);
            (Sealed::new(RESP_FRAME, payload), raw_len)
        })
    }

    /// The frame's progressive records under `budget` (already resolved
    /// by [`chunk_budget`]), sealed as chunk replies. The first budget
    /// asked for is planned once and kept; any other is planned for its
    /// caller alone. Refused when a forwarded frame does not decode.
    pub fn chunks(&self, budget: u64) -> Result<Cow<'_, [Sealed]>, Refusal> {
        let (kept_budget, kept) = self.kept_chunks(budget)?;
        Ok(if *kept_budget == budget {
            Cow::Borrowed(kept)
        } else {
            Cow::Owned(sealed_chunks(self.frame()?, budget))
        })
    }

    /// The records this entry keeps and their budget: `budget`'s, planned
    /// here, when nobody asked before.
    fn kept_chunks(&self, budget: u64) -> Result<&(u64, Vec<Sealed>), Refusal> {
        let frame = self.frame()?;
        Ok(self
            .chunks
            .get_or_init(|| (budget, sealed_chunks(frame, budget))))
    }

    /// Fills whichever encoding this entry keeps for a reply of `shape`,
    /// unless it is filled already; refused when that needs a forwarded
    /// frame that does not decode.
    pub(crate) fn prefill(&self, shape: Shape) -> Result<(), Refusal> {
        match shape {
            Shape::Plain => {
                self.v2();
            }
            Shape::Progressive { chunk_bytes } => {
                self.kept_chunks(chunk_budget(chunk_bytes))?;
            }
        }
        Ok(())
    }

    /// Bytes this entry holds right now: the frame once it is decoded (or
    /// was given), plus whatever has been encoded from it or read. Both
    /// services weigh their entries with this, after filling the encoding
    /// the fetching request's shape asks for.
    pub fn held_bytes(&self) -> u64 {
        let frame = self.frame.get().and_then(|f| f.as_ref().ok());
        let payload = self
            .v2
            .get()
            .map_or(0, |(sealed, _)| sealed.payload().len());
        let records = self.chunks.get().map_or(0, |(_, records)| {
            records.iter().map(|record| record.payload().len()).sum()
        });
        frame.map_or(0, HybridFrame::total_bytes) + (payload + records) as u64
    }
}

/// `frame`'s records under `budget`, each sealed as a chunk reply.
fn sealed_chunks(frame: &HybridFrame, budget: u64) -> Vec<Sealed> {
    plan_frame_chunks(frame, budget)
        .into_iter()
        .map(|record| Sealed::new(RESP_FRAME_CHUNK, record))
        .collect()
}

/// What a frame lookup yields: the shared entry, or why there is none.
pub type Fetched = Result<Arc<Served>, Refusal>;

/// The frame cache of one service, shared by all its session threads.
pub type CoalescingCache = Cache<CacheKey, Served, Refusal>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{read_sealed, MAX_PAYLOAD};
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
            encode_frame_v2(served.frame().unwrap())
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
        let records = served.chunks(2_048).unwrap();
        assert!(records.len() > 1);
        for record in records.iter() {
            assert_eq!(cached(record), fresh(RESP_FRAME_CHUNK, record.payload()));
        }
    }

    #[test]
    fn the_first_chunk_budget_is_kept_and_any_other_is_planned_per_call() {
        let served = Served::new(hybrid(0, 2_000));
        let (small, large) = (2_048, 16_384);
        let first = served.chunks(small).unwrap();
        assert!(matches!(first, Cow::Borrowed(_)));
        let payloads = |records: &[Sealed]| -> Vec<Vec<u8>> {
            records.iter().map(|r| r.payload().to_vec()).collect()
        };
        let frame = served.frame().unwrap();
        assert_eq!(payloads(&first), plan_frame_chunks(frame, small));
        let again = served.chunks(small).unwrap();
        assert!(std::ptr::eq(first.as_ptr(), again.as_ptr()), "kept");
        let other = served.chunks(large).unwrap();
        assert!(matches!(other, Cow::Owned(_)), "not kept");
        assert_eq!(payloads(&other), plan_frame_chunks(frame, large));
        assert_ne!(first.len(), other.len());
    }

    #[test]
    fn prefill_fills_the_shapes_slot_once() {
        let served = Served::new(hybrid(0, 500));
        let bare = served.held_bytes();
        served.prefill(Shape::Plain).unwrap();
        let with_payload = served.held_bytes();
        assert_eq!(with_payload, bare + served.v2().0.payload().len() as u64);
        // 0 is "server default", resolved before planning.
        served
            .prefill(Shape::Progressive { chunk_bytes: 0 })
            .unwrap();
        let default_plan = plan_frame_chunks(served.frame().unwrap(), chunk_budget(0));
        assert!(
            matches!(served.chunks(chunk_budget(0)).unwrap(), Cow::Borrowed(kept)
            if kept.iter().map(Sealed::payload).eq(default_plan.iter().map(Vec::as_slice)))
        );
        // A second budget is nobody's to keep: nothing is planned for it.
        let full = served.held_bytes();
        served
            .prefill(Shape::Progressive { chunk_bytes: 2_048 })
            .unwrap();
        assert_eq!(served.held_bytes(), full);
        assert!(matches!(served.chunks(2_048).unwrap(), Cow::Owned(_)));
    }

    #[test]
    fn held_bytes_grow_by_exactly_what_is_encoded() {
        let served = Served::new(hybrid(0, 500));
        let bare = served.held_bytes();
        assert_eq!(bare, served.frame().unwrap().total_bytes());
        let payload = served.v2().0.payload().len() as u64;
        assert_eq!(served.held_bytes(), bare + payload);
        let records = served.chunks(4_096).unwrap();
        let records: usize = records.iter().map(|r| r.payload().len()).sum();
        assert_eq!(served.held_bytes(), bare + payload + records as u64);
    }

    /// `served`'s frame reply as a router reads it off the socket.
    fn as_read(served: &Served) -> (Sealed, u64) {
        let (reply, raw_len) = served.v2();
        let mut wire = Vec::new();
        reply.write_to(&mut wire).unwrap();
        (
            read_sealed(&mut wire.as_slice(), MAX_PAYLOAD).unwrap(),
            *raw_len,
        )
    }

    /// A forwarded entry sends the reply it was given byte for byte and
    /// weighs only those bytes; its frame is decoded once, for records,
    /// which are the records a server's entry plans.
    #[test]
    fn a_forwarded_entry_is_decoded_only_for_records() {
        let server = Served::new(hybrid(0, 2_000));
        let (reply, raw_len) = as_read(&server);
        let forwarded = Served::forwarded(reply.clone(), raw_len);
        assert_eq!(forwarded.held_bytes(), reply.payload().len() as u64);
        forwarded.prefill(Shape::Plain).unwrap();
        assert_eq!(forwarded.v2(), &(reply.clone(), raw_len), "sent as read");
        assert_eq!(forwarded.held_bytes(), reply.payload().len() as u64);
        let records = forwarded.chunks(4_096).unwrap();
        assert!(records.iter().eq(server.chunks(4_096).unwrap().iter()));
        let frame = forwarded.frame().unwrap();
        assert!(
            std::ptr::eq(frame, forwarded.frame().unwrap()),
            "decoded once"
        );
        assert_eq!(frame, server.frame().unwrap());
        let records: usize = records.iter().map(|r| r.payload().len()).sum();
        let held = frame.total_bytes() + (reply.payload().len() + records) as u64;
        assert_eq!(forwarded.held_bytes(), held);
    }

    /// A reply whose envelope is sound but whose frame fails its trailer
    /// can still be sent — the client's decode refuses it — but has no
    /// records: a progressive prefill is refused, every time, and the
    /// entry weighs its bytes only.
    #[test]
    fn a_forwarded_frame_that_does_not_decode_is_refused_records() {
        let (reply, raw_len) = as_read(&Served::new(hybrid(0, 500)));
        let mut payload = reply.payload().to_vec();
        let last = payload.len() - 1;
        payload[last] ^= 1; // the trailer's hash
        let forwarded = Served::forwarded(Sealed::new(RESP_FRAME, payload), raw_len);
        assert!(forwarded.prefill(Shape::Plain).is_ok());
        for _ in 0..2 {
            let refused = forwarded.prefill(Shape::Progressive { chunk_bytes: 0 });
            assert_eq!(refused.unwrap_err().code, ERR_INTERNAL);
        }
        assert_eq!(forwarded.held_bytes(), reply.payload().len() as u64);
    }
}
