//! Compressed frame codecs and an out-of-core run store.
//!
//! The paper's terascale premise is that the data does not fit: a single
//! time step of the primary simulation is 5 GB raw, and the visualization
//! pipeline lives or dies by how little of it must move or be resident.
//! This crate supplies the two halves of that discipline downstream of
//! partitioning:
//!
//! - [`codec`] — pure, zero-dependency compression for the hybrid frame's
//!   payloads: delta+zigzag+varint for quantized density grids, with a
//!   run of repeated cells (empty space) as one token, XOR bitpacking for
//!   halo point columns, raw passthrough as the safety net. The serve layer's AVWF v2 frame encoding is built from these
//!   blocks.
//! - [`run`] / [`resident`] / [`source`] — the on-disk run format
//!   (chunked, checksummed, one file per time series) read through
//!   bounds-checked positioned reads, a byte-budgeted residency window,
//!   and a `FrameSource` adapter so a viewer or frame server can serve a
//!   run larger than RAM.
//! - [`progressive`] — the chunk/delta record framing under progressive
//!   (coarse-to-fine) frame streaming: checksummed records and the
//!   strict in-order [`progressive::RecordAssembler`] grammar.
//! - [`cache`] — the one coalescing LRU cache: the residency window
//!   here, and the serve layer's frame caches and remote resident set.
//!
//! [`fnv1a64`] / [`fnv1a64_update`] at the crate root are the one
//! checksum every layer uses — run-file chunks and node blobs,
//! progressive records, and the serve layer's wire envelopes — so
//! bit-identity arguments compose across store and wire.
//! [`fnv1a64_x4`] is the same function over four inputs at a time, for
//! the run writer and the page-in path, which have many chunks to hash at
//! once; [`fnv1a64_x4_update`] continues four chains over columns of
//! `f64`s where they lie, and [`fnv1a64_cell_lanes`] hashes a grid's
//! cells in four lanes the same way; [`fnv1a64_lanes`] is the bulk
//! checksum of one buffer in four lanes, which seals wire envelopes and
//! progressive records.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cache;
pub mod codec;
pub mod progressive;
pub mod resident;
pub mod run;
pub mod source;

pub use resident::{Fetch, ResidentRun, ResidentStats};
pub use run::{RunStore, DEFAULT_CHUNK_BYTES};
pub use source::StoredRunSource;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over 64 bits of `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_update(FNV_OFFSET, bytes)
}

/// `FNV_PRIME^(2^j)` for `j` in `0..64`: the multipliers that fold a run
/// of zero bytes (see [`fnv1a64_update`]).
const PRIME_POW2: [u64; 64] = {
    let mut table = [0u64; 64];
    let mut p = FNV_PRIME;
    let mut j = 0;
    while j < 64 {
        table[j] = p;
        p = p.wrapping_mul(p);
        j += 1;
    }
    table
};

/// `hash` after `zeros` zero bytes: `hash · FNV_PRIME^zeros`, one
/// multiply per set bit of `zeros`.
fn fold_zeros(mut hash: u64, mut zeros: u64) -> u64 {
    while zeros != 0 {
        hash = hash.wrapping_mul(PRIME_POW2[zeros.trailing_zeros() as usize]);
        zeros &= zeros - 1;
    }
    hash
}

/// Continues an FNV-1a 64 chain: `fnv1a64_update(fnv1a64(a), b)` is
/// `fnv1a64(a ++ b)` without the concatenation.
///
/// Costs what the content costs. A zero byte's step is `h ^ 0 == h`
/// followed by one multiply by the prime, so a run of `k` zero bytes is
/// exactly one multiply by `FNV_PRIME^k`. The input is walked 8 bytes at
/// a time; all-zero words only count, and the count is folded in (at most
/// popcount(k) multiplies) before the next non-zero word, which runs the
/// byte loop. Mostly-empty frames — zero density cells, zero padding —
/// hash at memory speed, and input with no zero word runs the plain byte
/// loop plus one compare per word.
pub fn fnv1a64_update(mut hash: u64, bytes: &[u8]) -> u64 {
    let (words, tail) = bytes.as_chunks::<8>();
    let mut zeros = 0u64;
    for word in words {
        if u64::from_ne_bytes(*word) == 0 {
            zeros += 8;
            continue;
        }
        hash = fold_zeros(hash, zeros);
        zeros = 0;
        for &b in word {
            hash = (hash ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }
    hash = fold_zeros(hash, zeros);
    for &b in tail {
        hash = (hash ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    hash
}

/// [`fnv1a64`] of four byte strings at once: `fnv1a64_x4(l)[k] ==
/// fnv1a64(l[k])`. One FNV-1a chain is serial — every byte waits for the
/// previous byte's multiply — so a single hash runs at the multiplier's
/// latency; four independent chains in one loop keep the multiplier
/// busy. The lanes advance together over their shortest common length
/// and each tail finishes on its own.
pub fn fnv1a64_x4(lanes: [&[u8]; 4]) -> [u64; 4] {
    let common = lanes.iter().map(|lane| lane.len()).min().unwrap_or(0);
    let [a, b, c, d] = lanes.map(|lane| &lane[..common]);
    let mut h = [FNV_OFFSET; 4];
    for (((&a, &b), &c), &d) in a.iter().zip(b).zip(c).zip(d) {
        h[0] = (h[0] ^ u64::from(a)).wrapping_mul(FNV_PRIME);
        h[1] = (h[1] ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        h[2] = (h[2] ^ u64::from(c)).wrapping_mul(FNV_PRIME);
        h[3] = (h[3] ^ u64::from(d)).wrapping_mul(FNV_PRIME);
    }
    for (hash, lane) in h.iter_mut().zip(lanes) {
        *hash = fnv1a64_update(*hash, &lane[common..]);
    }
    h
}

/// One FNV-1a step: `hash` over one more byte.
#[inline(always)]
fn fnv_step(hash: u64, byte: u8) -> u64 {
    (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME)
}

/// A fixed-width value that a lane hashes as its little-endian bytes, in
/// place: columns and cells are read where they lie, never copied into
/// a byte buffer first.
trait LaneWord: Copy {
    /// Bytes per value.
    const BYTES: u64;
    /// The OR of the value's bit patterns: zero exactly when every byte
    /// is.
    fn any_bits(self) -> u64;
    /// `hash` continued over the value's little-endian bytes, given its
    /// [`any_bits`](LaneWord::any_bits).
    fn hash_into(self, hash: u64, any_bits: u64) -> u64;
}

impl LaneWord for f64 {
    const BYTES: u64 = 8;
    fn any_bits(self) -> u64 {
        self.to_bits()
    }
    fn hash_into(self, hash: u64, _: u64) -> u64 {
        self.to_le_bytes().into_iter().fold(hash, fnv_step)
    }
}

impl LaneWord for f32 {
    const BYTES: u64 = 4;
    fn any_bits(self) -> u64 {
        u64::from(self.to_bits())
    }
    fn hash_into(self, hash: u64, _: u64) -> u64 {
        self.to_le_bytes().into_iter().fold(hash, fnv_step)
    }
}

/// Four `f32`s as one 16-byte word: the unit a grid's cells are hashed
/// in, so that a lane tests for empty space once per four cells.
impl LaneWord for [f32; 4] {
    const BYTES: u64 = 16;
    fn any_bits(self) -> u64 {
        u64::from(self.iter().fold(0, |any, v| any | v.to_bits()))
    }
    fn hash_into(self, mut hash: u64, any_bits: u64) -> u64 {
        // A count below 256 is an `f32` whose two low bytes are zero, and
        // a zero byte's step is `h ^ 0 == h` then one multiply: when all
        // four cells are such counts (or empty), each costs one multiply
        // by `FNV_PRIME^2` and two byte steps instead of four.
        if any_bits & 0xffff == 0 {
            for v in self {
                let [_, _, b2, b3] = v.to_le_bytes();
                hash = fnv_step(fnv_step(hash.wrapping_mul(PRIME_POW2[1]), b2), b3);
            }
            return hash;
        }
        self.into_iter().fold(hash, |hash, v| {
            v.to_le_bytes().into_iter().fold(hash, fnv_step)
        })
    }
}

/// One word of one lane: a zero word only counts (`zeros`), a non-zero
/// word first folds the count in and then hashes its bytes.
#[inline(always)]
fn lane_step<W: LaneWord>(hash: &mut u64, zeros: &mut u64, word: W) {
    let any_bits = word.any_bits();
    if any_bits == 0 {
        *zeros += W::BYTES;
        return;
    }
    *hash = word.hash_into(fold_zeros(*hash, *zeros), any_bits);
    *zeros = 0;
}

/// Continues four FNV-1a 64 chains, each over the little-endian bytes of
/// its lane's words. Zero words fold as in [`fnv1a64_update`]. The lanes
/// advance together over their shortest common length and each tail
/// finishes on its own, so an empty lane leaves the other three to run
/// one at a time.
fn chains_x4<W: LaneWord>(hashes: [u64; 4], lanes: [&[W]; 4]) -> [u64; 4] {
    let common = lanes.iter().map(|lane| lane.len()).min().unwrap_or(0);
    let [a, b, c, d] = lanes.map(|lane| &lane[..common]);
    let [mut h0, mut h1, mut h2, mut h3] = hashes;
    let [mut z0, mut z1, mut z2, mut z3] = [0u64; 4];
    for (((&a, &b), &c), &d) in a.iter().zip(b).zip(c).zip(d) {
        lane_step(&mut h0, &mut z0, a);
        lane_step(&mut h1, &mut z1, b);
        lane_step(&mut h2, &mut z2, c);
        lane_step(&mut h3, &mut z3, d);
    }
    let mut out = [h0, h1, h2, h3];
    for ((hash, mut zeros), lane) in out.iter_mut().zip([z0, z1, z2, z3]).zip(lanes) {
        for &word in &lane[common..] {
            lane_step(hash, &mut zeros, word);
        }
        *hash = fold_zeros(*hash, zeros);
    }
    out
}

/// Continues four FNV-1a 64 chains over four `f64` columns, read where
/// they lie: `fnv1a64_x4_update(h, c)[k]` is `fnv1a64_update(h[k], ..)`
/// over the little-endian bytes of `c[k]`'s values, so a column hashed in
/// slices chains to the hash of the whole column. Give all four lanes
/// the same length: an empty lane leaves the other three to run one at a
/// time.
pub fn fnv1a64_x4_update(hashes: [u64; 4], columns: [&[f64]; 4]) -> [u64; 4] {
    chains_x4(hashes, columns)
}

/// `items` cut into four contiguous quarters of `⌈len/4⌉` items each;
/// the last quarters are shorter, or empty, when four does not divide
/// `len`.
fn quarters<T>(items: &[T]) -> [&[T]; 4] {
    let q = items.len().div_ceil(4);
    std::array::from_fn(|k| &items[(k * q).min(items.len())..((k + 1) * q).min(items.len())])
}

/// The four lane hashes of a grid's cells: [`fnv1a64`] of the
/// little-endian bytes of each of the four quarters of `⌈len/4⌉` cells,
/// hashed side by side, four cells to a word, so that empty space costs
/// one test per four cells and one multiply per run.
pub fn fnv1a64_cell_lanes(cells: &[f32]) -> [u64; 4] {
    let split = quarters(cells).map(|quarter| quarter.as_chunks::<4>());
    let hashes = chains_x4([FNV_OFFSET; 4], split.map(|(words, _)| words));
    chains_x4(hashes, split.map(|(_, tail)| tail))
}

/// The bulk checksum: `bytes` cut into four quarters of `⌈len/4⌉` bytes,
/// hashed side by side ([`fnv1a64_x4`]), then [`fnv1a64`] of the four
/// hashes' little-endian bytes. It runs at four bytes per multiply
/// latency where [`fnv1a64`] runs at one; the wire envelope and the
/// progressive record seal their payloads with it.
pub fn fnv1a64_lanes(bytes: &[u8]) -> u64 {
    let mut folded = [0u8; 32];
    for (out, hash) in folded.chunks_exact_mut(8).zip(fnv1a64_x4(quarters(bytes))) {
        out.copy_from_slice(&hash.to_le_bytes());
    }
    fnv1a64(&folded)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a64_update(fnv1a64(b"foo"), b"bar"), fnv1a64(b"foobar"));
    }
}
