//! Compressed frame codecs and an out-of-core run store.
//!
//! The paper's terascale premise is that the data does not fit: a single
//! time step of the primary simulation is 5 GB raw, and the visualization
//! pipeline lives or dies by how little of it must move or be resident.
//! This crate supplies the two halves of that discipline downstream of
//! partitioning:
//!
//! - [`codec`] — pure, zero-dependency compression for the hybrid frame's
//!   payloads: delta+zigzag+varint for quantized density grids, XOR
//!   bitpacking for halo point columns, raw passthrough as the safety
//!   net. The serve layer's AVWF v2 frame encoding is built from these
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
//! the page-in path that has many chunks to verify at once.

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

/// Continues an FNV-1a 64 chain: `fnv1a64_update(fnv1a64(a), b)` is
/// `fnv1a64(a ++ b)` without the concatenation.
pub fn fnv1a64_update(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
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
