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
//! once; [`Fnv1a64Sink`] is the same function over a stream of pieces,
//! for a digest of bytes that are never assembled in one buffer.

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

/// Bytes a [`Fnv1a64Sink`] stages before hashing them.
const SINK_BYTES: usize = 4096;

/// A streaming [`fnv1a64`] that also counts its input: write any
/// sequence of pieces, and [`finish`](Fnv1a64Sink::finish) returns the
/// length and hash of their concatenation without ever holding it.
/// Pieces are staged in a small buffer and hashed a buffer at a time
/// through [`fnv1a64_update`], so small writes (one `f32` at a time) still
/// fold zero runs.
pub struct Fnv1a64Sink {
    hash: u64,
    len: u64,
    buf: [u8; SINK_BYTES],
    fill: usize,
}

impl Default for Fnv1a64Sink {
    fn default() -> Fnv1a64Sink {
        Fnv1a64Sink {
            hash: FNV_OFFSET,
            len: 0,
            buf: [0; SINK_BYTES],
            fill: 0,
        }
    }
}

impl Fnv1a64Sink {
    /// An empty stream: `finish()` is `(0, fnv1a64(b""))`.
    pub fn new() -> Fnv1a64Sink {
        Fnv1a64Sink::default()
    }

    /// Appends `bytes` to the stream.
    pub fn write(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        while !bytes.is_empty() {
            let n = bytes.len().min(SINK_BYTES - self.fill);
            self.buf[self.fill..self.fill + n].copy_from_slice(&bytes[..n]);
            self.fill += n;
            bytes = &bytes[n..];
            if self.fill == SINK_BYTES {
                self.hash = fnv1a64_update(self.hash, &self.buf);
                self.fill = 0;
            }
        }
    }

    /// `(length, fnv1a64)` of everything written.
    pub fn finish(self) -> (u64, u64) {
        (self.len, fnv1a64_update(self.hash, &self.buf[..self.fill]))
    }
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
