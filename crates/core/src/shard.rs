//! Deterministic frame-to-shard ownership for scale-out serving.
//!
//! The paper's remote pipeline assumed one server per viewer; serving one
//! terascale run to many concurrent dashboards means spreading the frame
//! catalog across N shard servers and routing each request to the shard
//! that owns it. [`ShardSpec`] is that ownership function: a pure,
//! seedless map from frame index to shard, shared by the router, the
//! shard launcher, and any client that wants to predict placement.
//!
//! Ownership uses rendezvous (highest-random-weight) hashing: every
//! `(frame, shard)` pair gets a deterministic 64-bit score and the frame
//! belongs to the shard with the highest score. The payoff over
//! `frame % N` is *minimal movement on reshard*: growing N→N+1 only
//! moves the frames whose new shard outscores every old one — about
//! `1/(N+1)` of the catalog — instead of reshuffling nearly everything.
//! The viewer and examples can construct a `ShardSpec` without touching
//! the serve crate, which is why the type lives here.

/// A deterministic assignment of frame indices to `shards` shard
/// servers, by rendezvous hashing. Copyable, comparable, and stable
/// across processes and platforms — two sides that agree on the shard
/// count agree on every frame's owner.
///
/// ```
/// use accelviz_core::shard::ShardSpec;
///
/// let spec = ShardSpec::new(4);
/// // Ownership is a pure function of (frame, shard count)...
/// assert_eq!(spec.owner_of(7), ShardSpec::new(4).owner_of(7));
/// // ...and every frame lands on a real shard.
/// assert!((0..100).all(|f| spec.owner_of(f) < 4));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    shards: usize,
}

impl ShardSpec {
    /// A layout over `shards` shard servers.
    ///
    /// # Panics
    /// Panics if `shards` is zero — an empty shard set owns nothing and
    /// can serve nothing. (The serve-layer constructors reject an empty
    /// set with an error before ever building a spec.)
    pub fn new(shards: usize) -> ShardSpec {
        assert!(shards > 0, "a shard layout needs at least one shard");
        ShardSpec { shards }
    }

    /// How many shards this layout spreads frames over.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard that owns `frame`: the highest-scoring shard under
    /// rendezvous hashing. Always `< self.shards()`.
    pub fn owner_of(&self, frame: u32) -> usize {
        let mut best = 0usize;
        let mut best_score = score(frame, 0);
        for shard in 1..self.shards {
            let s = score(frame, shard);
            if s > best_score {
                best = shard;
                best_score = s;
            }
        }
        best
    }

    /// Owner of every frame in `0..frame_count`, as one vector — the
    /// shape the router's shard map and the shard launcher both consume.
    pub fn assignments(&self, frame_count: usize) -> Vec<usize> {
        (0..frame_count).map(|f| self.owner_of(f as u32)).collect()
    }

    /// The top-`k` shards for `frame` under rendezvous hashing, in
    /// descending score order — the frame's *replica set*, with the
    /// primary owner first and each later entry the next-preferred
    /// fallback. `k` is clamped to the shard count, and `k == 0` is
    /// rejected (a frame with no owners can never be served).
    ///
    /// `owners(frame, 1)` is exactly `[owner_of(frame)]`: the argmax of
    /// the same per-`(frame, shard)` scores, so a single-replica layout
    /// reproduces the pre-replication placement bit for bit. Growing `k`
    /// only *appends* lower-scored shards — it never reorders the
    /// prefix — so raising the replication factor of a deployment keeps
    /// every frame's primary (and the data already resident there) in
    /// place.
    ///
    /// ```
    /// use accelviz_core::shard::ShardSpec;
    ///
    /// let spec = ShardSpec::new(4);
    /// for f in 0..100 {
    ///     let owners = spec.owners(f, 2);
    ///     assert_eq!(owners[0], spec.owner_of(f));
    ///     assert_ne!(owners[0], owners[1], "replicas are distinct shards");
    /// }
    /// ```
    pub fn owners(&self, frame: u32, k: usize) -> Vec<usize> {
        assert!(k > 0, "a frame needs at least one owner");
        let k = k.min(self.shards);
        // Scores are 64-bit SplitMix64 outputs; collisions across the
        // handful of shards a deployment runs are vanishingly unlikely,
        // but the tie-break on shard index keeps the order total and
        // platform-independent regardless.
        let mut scored: Vec<(u64, usize)> =
            (0..self.shards).map(|s| (score(frame, s), s)).collect();
        scored.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        scored.truncate(k);
        scored.into_iter().map(|(_, s)| s).collect()
    }

    /// Replica set of every frame in `0..frame_count` at replication
    /// `k` — the replicated twin of [`ShardSpec::assignments`].
    pub fn replica_assignments(&self, frame_count: usize, k: usize) -> Vec<Vec<usize>> {
        (0..frame_count).map(|f| self.owners(f as u32, k)).collect()
    }
}

/// The rendezvous score of a `(frame, shard)` pair: both identities are
/// pre-mixed with distinct odd constants, combined, and finished with a
/// SplitMix64 avalanche so no low-entropy input pattern (sequential
/// frames, small shard ids) biases the argmax.
fn score(frame: u32, shard: usize) -> u64 {
    let f = (frame as u64)
        .wrapping_add(1)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let s = (shard as u64)
        .wrapping_add(1)
        .wrapping_mul(0xA24B_AED4_963E_E407);
    splitmix64(f ^ s)
}

/// SplitMix64's output function: `x` advanced by the golden-ratio
/// increment, then avalanched. The workspace's one seed mixer — the
/// rendezvous scores here, and every seeded schedule in `accelviz-serve`
/// (retry jitter, probe jitter, per-dial seeds, chaos plans).
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_shard_owns_everything() {
        let spec = ShardSpec::new(1);
        assert!((0..1000).all(|f| spec.owner_of(f) == 0));
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_is_rejected() {
        ShardSpec::new(0);
    }

    #[test]
    fn ownership_is_deterministic_and_in_range() {
        for n in 1..=8 {
            let spec = ShardSpec::new(n);
            for f in 0..500u32 {
                let owner = spec.owner_of(f);
                assert!(owner < n);
                assert_eq!(owner, spec.owner_of(f), "pure function of (frame, n)");
            }
        }
    }

    #[test]
    fn assignments_match_owner_of() {
        let spec = ShardSpec::new(3);
        let owners = spec.assignments(64);
        assert_eq!(owners.len(), 64);
        for (f, &owner) in owners.iter().enumerate() {
            assert_eq!(owner, spec.owner_of(f as u32));
        }
    }

    #[test]
    fn load_is_roughly_balanced() {
        let spec = ShardSpec::new(4);
        let mut counts = [0usize; 4];
        for f in 0..10_000u32 {
            counts[spec.owner_of(f)] += 1;
        }
        // Fair share is 2500; rendezvous hashing should stay well within
        // 2x of it in both directions on 10k keys.
        for (shard, &c) in counts.iter().enumerate() {
            assert!(
                (1_500..=3_500).contains(&c),
                "shard {shard} owns {c} of 10000 frames"
            );
        }
    }

    #[test]
    fn owners_at_k1_reproduce_the_single_owner_layout() {
        // The replication acceptance bar: `owners(f, 1)` must be the
        // PR 8 placement exactly, for every frame at every shard count.
        for n in 1..=8 {
            let spec = ShardSpec::new(n);
            for f in 0..2_000u32 {
                assert_eq!(
                    spec.owners(f, 1),
                    vec![spec.owner_of(f)],
                    "k=1 must be bit-compatible at n={n}, frame {f}"
                );
            }
        }
    }

    #[test]
    fn owners_are_distinct_prefix_stable_and_clamped() {
        let spec = ShardSpec::new(5);
        for f in 0..500u32 {
            let all = spec.owners(f, 5);
            // Distinct shards, all in range.
            let mut seen = [false; 5];
            for &s in &all {
                assert!(s < 5);
                assert!(!seen[s], "shard {s} appears twice for frame {f}");
                seen[s] = true;
            }
            // Growing k appends — it never reorders the preference
            // prefix, so replication bumps keep primaries in place.
            for k in 1..=5 {
                assert_eq!(spec.owners(f, k), all[..k], "prefix at k={k}");
            }
            // k past the shard count clamps to every shard.
            assert_eq!(spec.owners(f, 99), all);
        }
    }

    #[test]
    #[should_panic(expected = "at least one owner")]
    fn zero_replication_is_rejected() {
        ShardSpec::new(3).owners(0, 0);
    }

    #[test]
    fn replica_sets_spread_secondaries_across_shards() {
        // Secondary replicas are rendezvous-scored too, so they balance
        // like primaries instead of piling onto one backup shard.
        let spec = ShardSpec::new(4);
        let mut secondary_counts = [0usize; 4];
        for f in 0..10_000u32 {
            secondary_counts[spec.owners(f, 2)[1]] += 1;
        }
        for (shard, &c) in secondary_counts.iter().enumerate() {
            assert!(
                (1_500..=3_500).contains(&c),
                "shard {shard} backs up {c} of 10000 frames"
            );
        }
    }

    #[test]
    fn replica_assignments_match_owners() {
        let spec = ShardSpec::new(3);
        let sets = spec.replica_assignments(64, 2);
        assert_eq!(sets.len(), 64);
        for (f, set) in sets.iter().enumerate() {
            assert_eq!(set, &spec.owners(f as u32, 2));
        }
    }

    #[test]
    fn resharding_moves_frames_only_to_the_new_shard() {
        // The rendezvous property: growing N -> N+1 relocates a frame
        // only when the new shard outscores every existing one, so every
        // moved frame lands on the new shard and the old shards never
        // trade frames among themselves.
        for n in 1..=6 {
            let old = ShardSpec::new(n);
            let new = ShardSpec::new(n + 1);
            let mut moved = 0usize;
            for f in 0..2_000u32 {
                let (a, b) = (old.owner_of(f), new.owner_of(f));
                if a != b {
                    assert_eq!(b, n, "frame {f} moved {a}->{b}, not to the new shard");
                    moved += 1;
                }
            }
            // Expected movement is ~2000/(n+1); it must never be the
            // near-total reshuffle a modulo map would cause.
            assert!(
                moved < 2_000 * 2 / (n + 1),
                "n={n}: {moved} of 2000 frames moved"
            );
            assert!(moved > 0, "n={n}: growth must hand the new shard work");
        }
    }
}
