//! Pure, zero-dependency compression codecs for frame payloads.
//!
//! Three codecs, every encoding self-describing (a one-byte codec id, the
//! element count, and the encoded length travel with the payload):
//!
//! - [`CODEC_RAW`] — passthrough little-endian bytes. The guard against
//!   pathological inputs: the auto-selecting encoders fall back to it
//!   whenever a "compressed" form would be larger than raw.
//! - [`CODEC_DELTA_VARINT`] — for `f32` density grids: consecutive-cell
//!   deltas, zigzag-mapped, LEB128-varint coded. Grids are quantized
//!   particle counts, so an `INT` sub-mode deltas the integer values
//!   directly (a zero cell costs one byte); anything else — non-integral,
//!   non-finite, or a negative zero, whose bits are not `+0.0`'s — uses
//!   the `BITS` sub-mode, which deltas the raw IEEE bit patterns. A cell
//!   is `INT` only if its bits equal the bits of its integer, so every
//!   stream round-trips bit-exactly: NaN payloads, ±Inf and `-0.0`
//!   included.
//! - [`CODEC_BITPACK`] — for `f64` streams (halo point coordinates and
//!   the sorted per-point densities): XOR against the previous value's
//!   bit pattern, then blocks of 64 residuals packed at the block's
//!   maximum significant width. Sorted density arrays are long runs of
//!   repeats — all-zero residual blocks cost one byte per 64 values —
//!   and spatially clustered coordinates share sign/exponent/high
//!   mantissa bits, trimming every value.
//!
//! Corruption handling mirrors the wire layer's contract: truncated or
//! inconsistent blocks are a structured [`CodecError`], never a panic.
//! A bit flip *inside* a block may decode to different values — block
//! containers carry no checksum of their own; the consumer (AVWF v2
//! frames, the run store's chunks) checksums the **decoded** payload,
//! which catches every silent alteration end to end.

use accelviz_math::{ReadError, Reader};
use std::fmt;

/// Codec id: passthrough little-endian bytes.
pub const CODEC_RAW: u8 = 0;
/// Codec id: delta + zigzag + varint over `f32` cells.
pub const CODEC_DELTA_VARINT: u8 = 1;
/// Codec id: XOR-delta + 64-value block bitpacking over `f64` bit
/// patterns.
pub const CODEC_BITPACK: u8 = 2;

/// Delta-varint sub-mode: values are exact small non-negative integers,
/// deltas run over the integers themselves.
const MODE_INT: u8 = 0;
/// Delta-varint sub-mode: deltas run over raw IEEE-754 bit patterns
/// (the non-finite-safe path).
const MODE_BITS: u8 = 1;

/// Largest integer the `INT` sub-mode stores: beyond 2^24 an `f32` can
/// no longer represent every integer exactly.
const INT_MODE_MAX: f32 = 16_777_216.0;

/// What went wrong decoding a codec block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the block did.
    Truncated {
        /// Bytes the decoder still needed.
        needed: usize,
        /// Offset it had reached.
        at: usize,
    },
    /// The block framed correctly but its contents are inconsistent.
    Corrupt(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { needed, at } => {
                write!(
                    f,
                    "truncated block: needed {needed} more bytes at offset {at}"
                )
            }
            CodecError::Corrupt(why) => write!(f, "corrupt block: {why}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A read past the end of a block is [`CodecError::Truncated`]; bytes
/// left over are [`CodecError::Corrupt`].
impl From<ReadError> for CodecError {
    fn from(e: ReadError) -> CodecError {
        match e.wanted {
            0 => CodecError::Corrupt(e.to_string()),
            wanted => CodecError::Truncated {
                needed: wanted - e.have,
                at: e.at,
            },
        }
    }
}

/// Codec-layer result alias.
pub type Result<T> = std::result::Result<T, CodecError>;

// ---------------------------------------------------------------------
// Primitives: varint, zigzag, bit packing.
// ---------------------------------------------------------------------

/// Appends `v` as an LEB128 varint (1–10 bytes). Inline: the one-byte
/// case (every zero cell and small delta of a count grid) is one compare
/// and one push.
#[inline]
pub fn put_uvarint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Reads an LEB128 varint. Inline: the one-byte case (every zero cell
/// and small delta of a count grid) is one compare.
#[inline(always)]
pub fn get_uvarint(r: &mut Reader<'_>) -> Result<u64> {
    match r.u8()? {
        b if b < 0x80 => Ok(u64::from(b)),
        b => uvarint_tail(r, b),
    }
}

/// The bytes of a varint after its first, `first`.
fn uvarint_tail(r: &mut Reader<'_>, first: u8) -> Result<u64> {
    let mut v = u64::from(first & 0x7f);
    let mut shift = 7u32;
    loop {
        let b = r.u8()?;
        if shift == 63 && b > 1 {
            return Err(CodecError::Corrupt("varint overflows u64".into()));
        }
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(CodecError::Corrupt("varint longer than 10 bytes".into()));
        }
    }
}

/// Maps a signed delta to an unsigned varint-friendly value
/// (0, -1, 1, -2 → 0, 1, 2, 3).
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// LSB-first bit accumulator for the bitpack codec, appending straight
/// to the block's output. Between pushes it holds fewer than 64 bits.
struct BitWriter<'a> {
    out: &'a mut Vec<u8>,
    acc: u64,
    nbits: u32,
}

impl<'a> BitWriter<'a> {
    fn new(out: &'a mut Vec<u8>) -> BitWriter<'a> {
        BitWriter {
            out,
            acc: 0,
            nbits: 0,
        }
    }

    /// Appends the low `width` bits of `v`.
    fn push(&mut self, v: u64, width: u32) {
        debug_assert!(width <= 64);
        let v = v & ones(width);
        self.acc |= v << self.nbits;
        let filled = self.nbits + width;
        if filled < 64 {
            self.nbits = filled;
        } else {
            self.out.extend_from_slice(&self.acc.to_le_bytes());
            // The bits of `v` that did not fit (none when it started a
            // fresh word).
            self.acc = v.checked_shr(64 - self.nbits).unwrap_or(0);
            self.nbits = filled - 64;
        }
    }

    /// Flushes the partial accumulator to a byte boundary.
    fn align(self) {
        if self.nbits > 0 {
            let bytes = self.nbits.div_ceil(8) as usize;
            self.out.extend_from_slice(&self.acc.to_le_bytes()[..bytes]);
        }
    }
}

fn ones(n: u32) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// LSB-first bit cursor over one packed block's bytes. It loads 8 bytes
/// at a time while at least 8 remain and single bytes at the tail, so it
/// never reads past the block.
struct BitReader<'a> {
    r: Reader<'a>,
    /// Loaded bits not yet pulled, in the low `nbits` bits.
    acc: u64,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    fn new(packed: &'a [u8]) -> BitReader<'a> {
        BitReader {
            r: Reader::new(packed),
            acc: 0,
            nbits: 0,
        }
    }

    /// Loads the next 8 bytes, or the next byte at the tail. Past the
    /// block's last byte it loads zeros: the block holds every bit a
    /// caller pulls.
    fn refill(&mut self) {
        (self.acc, self.nbits) = match self.r.u64() {
            Ok(word) => (word, 64),
            Err(_) => (u64::from(self.r.u8().unwrap_or(0)), 8),
        };
    }

    /// Reads `width` bits, LSB-first.
    fn pull(&mut self, width: u32) -> u64 {
        debug_assert!(width <= 64);
        if width <= self.nbits {
            let v = self.acc & ones(width);
            self.acc = self.acc.checked_shr(width).unwrap_or(0);
            self.nbits -= width;
            return v;
        }
        let mut v = self.acc;
        let mut got = self.nbits;
        while got < width {
            self.refill();
            let take = self.nbits.min(width - got);
            v |= (self.acc & ones(take)) << got;
            self.acc = self.acc.checked_shr(take).unwrap_or(0);
            self.nbits -= take;
            got += take;
        }
        v
    }
}

// ---------------------------------------------------------------------
// Block container: `u8 codec | uvarint count | uvarint len | payload`.
// ---------------------------------------------------------------------

fn put_block(out: &mut Vec<u8>, codec: u8, count: usize, payload: &[u8]) {
    out.push(codec);
    put_uvarint(out, count as u64);
    put_uvarint(out, payload.len() as u64);
    out.extend_from_slice(payload);
}

/// Reads a block: returns `(codec, payload)`. `expect` is the element
/// count the caller knows from context; a mismatched count is rejected
/// before anything is allocated.
fn get_block<'a>(r: &mut Reader<'a>, expect: usize) -> Result<(u8, &'a [u8])> {
    let codec = r.u8()?;
    let count = get_uvarint(r)?;
    if count != expect as u64 {
        return Err(CodecError::Corrupt(format!(
            "block holds {count} elements, expected {expect}"
        )));
    }
    let len = get_uvarint(r)?;
    let payload = r.take(usize::try_from(len).unwrap_or(usize::MAX))?;
    Ok((codec, payload))
}

// ---------------------------------------------------------------------
// f32 streams (density grids): delta + zigzag + varint.
// ---------------------------------------------------------------------

/// The integer an `INT`-mode cell stores, if `v` is one: a non-negative
/// integer no larger than [`INT_MODE_MAX`] whose bits are exactly the
/// bits of that integer as an `f32`. `-0.0` is not `+0.0`'s bits, so a
/// negative zero (like a NaN, ±Inf, a negative or a fraction) is `None`.
/// Only integer conversions and a bit compare: no rounding call.
#[inline(always)]
fn int_cell(v: f32) -> Option<u32> {
    let bits = v.to_bits();
    // Sign-clear finite floats order like their bits; everything with
    // the sign bit set, and every NaN, lies above the bound.
    if bits > INT_MODE_MAX.to_bits() {
        return None;
    }
    let i = v as u32;
    ((i as f32).to_bits() == bits).then_some(i)
}

fn delta_varint_encode_f32(values: &[f32]) -> Vec<u8> {
    // The INT sub-mode applies only when every value is an exact small
    // non-negative integer — the natural state of a count grid. One NaN,
    // Inf, negative, negative-zero or fractional cell drops the whole
    // stream to BITS, where deltas run over bit patterns and nothing is
    // ever rounded. The stream is written as INT in the same pass that
    // checks it and rewritten as BITS from the first cell that fails.
    // Every cell costs at least a byte.
    let mut out = Vec::with_capacity(values.len() + 1);
    out.push(MODE_INT);
    let mut prev: i64 = 0;
    for &v in values {
        let Some(i) = int_cell(v) else {
            out.clear();
            out.push(MODE_BITS);
            let mut prev: i64 = 0;
            for &v in values {
                let iv = i64::from(v.to_bits());
                put_uvarint(&mut out, zigzag(iv - prev));
                prev = iv;
            }
            return out;
        };
        let iv = i64::from(i);
        put_uvarint(&mut out, zigzag(iv - prev));
        prev = iv;
    }
    out
}

/// Decodes `count` delta varints, handing each running value to `cell`,
/// which turns it into a value or refuses it.
#[inline(always)]
fn delta_chain(
    r: &mut Reader<'_>,
    count: usize,
    values: &mut Vec<f32>,
    cell: impl Fn(i64) -> Result<f32>,
) -> Result<()> {
    let mut prev: i64 = 0;
    for _ in 0..count {
        let iv = prev
            .checked_add(unzigzag(get_uvarint(r)?))
            .ok_or_else(|| CodecError::Corrupt("delta chain overflows".into()))?;
        prev = iv;
        values.push(cell(iv)?);
    }
    Ok(())
}

fn delta_varint_decode_f32(payload: &[u8], count: usize) -> Result<Vec<f32>> {
    let mut r = Reader::new(payload);
    let mode = r.u8()?;
    // `count` is the peer's word; a varint is at least a byte per value.
    let count = r.count(count as u64, 1).map_err(|e| {
        CodecError::Corrupt(format!("{count} varints cannot fit in {} bytes", e.have))
    })?;
    let mut values = Vec::with_capacity(count);
    match mode {
        MODE_INT => delta_chain(&mut r, count, &mut values, |iv| {
            if iv < 0 || iv > INT_MODE_MAX as i64 {
                return Err(CodecError::Corrupt(format!(
                    "INT-mode value {iv} out of range"
                )));
            }
            Ok(iv as f32)
        })?,
        MODE_BITS => delta_chain(&mut r, count, &mut values, |iv| {
            if iv < 0 || iv > i64::from(u32::MAX) {
                return Err(CodecError::Corrupt(format!(
                    "BITS-mode pattern {iv} exceeds u32"
                )));
            }
            Ok(f32::from_bits(iv as u32))
        })?,
        // The first varint is read (and may fail) before the sub-mode is
        // refused, as a per-cell check would.
        other if count > 0 => {
            get_uvarint(&mut r)?;
            return Err(CodecError::Corrupt(format!(
                "unknown delta-varint sub-mode {other}"
            )));
        }
        _ => {}
    }
    if r.remaining() != 0 {
        return Err(CodecError::Corrupt(format!(
            "{} trailing bytes after delta stream",
            r.remaining()
        )));
    }
    Ok(values)
}

/// Encodes an `f32` stream with an explicit codec (tests force each path;
/// production uses the auto-selecting [`encode_f32s`]).
pub fn encode_f32s_as(codec: u8, values: &[f32]) -> Result<Vec<u8>> {
    let payload = match codec {
        CODEC_RAW => {
            let mut raw = Vec::with_capacity(values.len() * 4);
            for &v in values {
                raw.extend_from_slice(&v.to_le_bytes());
            }
            raw
        }
        CODEC_DELTA_VARINT => delta_varint_encode_f32(values),
        other => {
            return Err(CodecError::Corrupt(format!(
                "codec {other} cannot carry f32 streams"
            )))
        }
    };
    let mut out = Vec::with_capacity(payload.len() + 12);
    put_block(&mut out, codec, values.len(), &payload);
    Ok(out)
}

/// Encodes an `f32` stream (a density grid), choosing delta-varint when
/// it wins and raw passthrough when it does not.
pub fn encode_f32s(values: &[f32]) -> Vec<u8> {
    let delta = encode_f32s_as(CODEC_DELTA_VARINT, values).expect("delta-varint carries f32");
    if delta.len() < values.len() * 4 + 12 {
        delta
    } else {
        encode_f32s_as(CODEC_RAW, values).expect("raw carries anything")
    }
}

/// Reads an `f32` block. `expect` is the element count known from
/// context (grid dims); the block is rejected if it disagrees.
pub fn read_f32s(r: &mut Reader<'_>, expect: usize) -> Result<Vec<f32>> {
    let (codec, payload) = get_block(r, expect)?;
    match codec {
        CODEC_RAW => raw_values(payload, expect, "f32", Reader::f32s),
        CODEC_DELTA_VARINT => delta_varint_decode_f32(payload, expect),
        other => Err(CodecError::Corrupt(format!("unknown f32 codec {other}"))),
    }
}

/// [`read_f32s`] of the block at `buf[*pos..]`, advancing `*pos` past it.
pub fn decode_f32s(buf: &[u8], pos: &mut usize, expect: usize) -> Result<Vec<f32>> {
    let mut r = Reader::new(buf);
    r.advance(*pos)?;
    let values = read_f32s(&mut r, expect)?;
    *pos = buf.len() - r.remaining();
    Ok(values)
}

/// The `expect` values of a raw block, each `size_of::<T>()` bytes.
fn raw_values<'a, T>(
    payload: &'a [u8],
    expect: usize,
    name: &str,
    values: fn(&mut Reader<'a>, u64) -> std::result::Result<Vec<T>, ReadError>,
) -> Result<Vec<T>> {
    if expect.checked_mul(size_of::<T>()) != Some(payload.len()) {
        return Err(CodecError::Corrupt(format!(
            "raw {name} block of {} bytes cannot hold {expect} values",
            payload.len()
        )));
    }
    Ok(values(&mut Reader::new(payload), expect as u64)?)
}

// ---------------------------------------------------------------------
// f64 streams (point columns, densities): XOR-delta + block bitpacking.
// ---------------------------------------------------------------------

/// Values per bitpack block: one width byte amortized over 64 residuals.
const PACK_BLOCK: usize = 64;

fn bitpack_encode_f64(values: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 4);
    // The first value is stored raw: XOR-ing it against zero would set a
    // ~60-bit width for its whole block and sink constant streams.
    let Some((&first, rest)) = values.split_first() else {
        return out;
    };
    out.extend_from_slice(&first.to_le_bytes());
    let mut prev: u64 = first.to_bits();
    let mut residuals = [0u64; PACK_BLOCK];
    for chunk in rest.chunks(PACK_BLOCK) {
        let mut width = 0u32;
        for (i, &v) in chunk.iter().enumerate() {
            let bits = v.to_bits();
            let x = bits ^ prev;
            prev = bits;
            residuals[i] = x;
            width = width.max(64 - x.leading_zeros());
        }
        out.push(width as u8);
        if width > 0 {
            let mut bw = BitWriter::new(&mut out);
            for &x in &residuals[..chunk.len()] {
                bw.push(x, width);
            }
            bw.align();
        }
    }
    out
}

fn bitpack_decode_f64(payload: &[u8], count: usize) -> Result<Vec<f64>> {
    if count == 0 {
        if !payload.is_empty() {
            return Err(CodecError::Corrupt(
                "bytes in an empty packed stream".into(),
            ));
        }
        return Ok(Vec::new());
    }
    // `count` is the peer's word; past the raw first value every block
    // of 64 costs at least its width byte.
    let blocks = (count - 1).div_ceil(PACK_BLOCK);
    Reader::new(payload.get(8..).unwrap_or_default())
        .count(blocks as u64, 1)
        .map_err(|_| {
            CodecError::Corrupt(format!(
                "{count} packed values cannot fit in {} bytes",
                payload.len()
            ))
        })?;
    let mut values = Vec::with_capacity(count);
    let mut r = Reader::new(payload);
    let first = r.f64()?;
    values.push(first);
    let mut prev: u64 = first.to_bits();
    let mut remaining = count - 1;
    while remaining > 0 {
        let width = u32::from(r.u8()?);
        if width > 64 {
            return Err(CodecError::Corrupt(format!("pack width {width} > 64")));
        }
        let in_block = remaining.min(PACK_BLOCK);
        if width == 0 {
            for _ in 0..in_block {
                values.push(f64::from_bits(prev));
            }
        } else {
            // The block's residuals fill exactly these bytes. A stream cut
            // inside them fails at its first missing byte, where a
            // bit-at-a-time reader would.
            let packed = r
                .take((in_block * width as usize).div_ceil(8))
                .map_err(|e| CodecError::Truncated {
                    needed: 1,
                    at: e.at + e.have,
                })?;
            let mut br = BitReader::new(packed);
            for _ in 0..in_block {
                let x = br.pull(width);
                let bits = x ^ prev;
                prev = bits;
                values.push(f64::from_bits(bits));
            }
        }
        remaining -= in_block;
    }
    if r.remaining() != 0 {
        return Err(CodecError::Corrupt(format!(
            "{} trailing bytes after packed stream",
            r.remaining()
        )));
    }
    Ok(values)
}

/// Encodes an `f64` stream with an explicit codec (tests force each path;
/// production uses the auto-selecting [`encode_f64s`]).
pub fn encode_f64s_as(codec: u8, values: &[f64]) -> Result<Vec<u8>> {
    let payload = match codec {
        CODEC_RAW => {
            let mut raw = Vec::with_capacity(values.len() * 8);
            for &v in values {
                raw.extend_from_slice(&v.to_le_bytes());
            }
            raw
        }
        CODEC_BITPACK => bitpack_encode_f64(values),
        other => {
            return Err(CodecError::Corrupt(format!(
                "codec {other} cannot carry f64 streams"
            )))
        }
    };
    let mut out = Vec::with_capacity(payload.len() + 12);
    put_block(&mut out, codec, values.len(), &payload);
    Ok(out)
}

/// Encodes an `f64` stream (a point-coordinate column or the sorted
/// per-point densities), choosing XOR-bitpack when it wins and raw
/// passthrough when it does not.
pub fn encode_f64s(values: &[f64]) -> Vec<u8> {
    let packed = encode_f64s_as(CODEC_BITPACK, values).expect("bitpack carries f64");
    if packed.len() < values.len() * 8 + 12 {
        packed
    } else {
        encode_f64s_as(CODEC_RAW, values).expect("raw carries anything")
    }
}

/// Reads an `f64` block. `expect` is the element count known from
/// context.
pub fn read_f64s(r: &mut Reader<'_>, expect: usize) -> Result<Vec<f64>> {
    let (codec, payload) = get_block(r, expect)?;
    match codec {
        CODEC_RAW => raw_values(payload, expect, "f64", Reader::f64s),
        CODEC_BITPACK => bitpack_decode_f64(payload, expect),
        other => Err(CodecError::Corrupt(format!("unknown f64 codec {other}"))),
    }
}

/// [`read_f64s`] of the block at `buf[*pos..]`, advancing `*pos` past it.
pub fn decode_f64s(buf: &[u8], pos: &mut usize, expect: usize) -> Result<Vec<f64>> {
    let mut r = Reader::new(buf);
    r.advance(*pos)?;
    let values = read_f64s(&mut r, expect)?;
    *pos = buf.len() - r.remaining();
    Ok(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_f32(values: &[f32]) -> Vec<f32> {
        let enc = encode_f32s(values);
        let mut pos = 0;
        let back = decode_f32s(&enc, &mut pos, values.len()).unwrap();
        assert_eq!(pos, enc.len(), "decode must consume the whole block");
        back
    }

    fn roundtrip_f64(values: &[f64]) -> Vec<f64> {
        let enc = encode_f64s(values);
        let mut pos = 0;
        let back = decode_f64s(&enc, &mut pos, values.len()).unwrap();
        assert_eq!(pos, enc.len());
        back
    }

    fn bits32(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn bits64(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn varint_roundtrips_boundaries() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            put_uvarint(&mut buf, v);
            let mut r = Reader::new(&buf);
            assert_eq!(get_uvarint(&mut r).unwrap(), v);
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn zigzag_is_a_bijection_on_extremes() {
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -123_456_789] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn count_grid_compresses_hard_and_roundtrips() {
        // A 64³-style mostly-zero count grid: the fig-1 shape.
        let mut grid = vec![0.0f32; 4096];
        for i in 0..200 {
            grid[i * 7 % 4096] = (i % 9) as f32;
        }
        let enc = encode_f32s(&grid);
        assert!(enc.len() * 3 < grid.len() * 4, "counts must compress ≥3x");
        assert_eq!(bits32(&roundtrip_f32(&grid)), bits32(&grid));
    }

    #[test]
    fn non_finite_cells_roundtrip_bit_exactly() {
        // The satellite bugfix: NaN payloads (including non-canonical
        // ones) and ±Inf must survive delta coding untouched.
        let weird = [
            f32::NAN,
            f32::from_bits(0x7fc0_0001), // NaN with a payload
            f32::from_bits(0xffc0_0002), // negative NaN
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            1.5,
            3.0,
        ];
        assert_eq!(bits32(&roundtrip_f32(&weird)), bits32(&weird));
        // Forced through the delta codec (not raw fallback) as well.
        let enc = encode_f32s_as(CODEC_DELTA_VARINT, &weird).unwrap();
        let mut pos = 0;
        let back = decode_f32s(&enc, &mut pos, weird.len()).unwrap();
        assert_eq!(bits32(&back), bits32(&weird));
    }

    #[test]
    fn a_negative_zero_among_integral_cells_roundtrips_bit_exactly() {
        // `-0.0` passes a range test and has no fraction, but it is not
        // `+0.0`: it must send the stream to BITS, not decode as `+0.0`.
        let cells = [1.0f32, -0.0, 2.0];
        let enc = encode_f32s_as(CODEC_DELTA_VARINT, &cells).unwrap();
        let mut pos = 0;
        let back = decode_f32s(&enc, &mut pos, cells.len()).unwrap();
        assert_eq!(bits32(&back), [0x3f80_0000, 0x8000_0000, 0x4000_0000]);
        assert_eq!(bits32(&roundtrip_f32(&cells)), bits32(&cells));
    }

    #[test]
    fn one_nan_demotes_the_whole_stream_to_bits_mode() {
        let mut grid = vec![1.0f32; 100];
        grid[50] = f32::NAN;
        let back = roundtrip_f32(&grid);
        assert_eq!(bits32(&back), bits32(&grid));
        assert!(back[50].is_nan());
    }

    #[test]
    fn constant_f64_stream_costs_about_a_byte_per_block() {
        let values = vec![0.125f64; 1000];
        let enc = encode_f64s(&values);
        assert!(enc.len() < 64, "constant run must collapse: {}", enc.len());
        assert_eq!(bits64(&roundtrip_f64(&values)), bits64(&values));
    }

    #[test]
    fn f64_specials_roundtrip() {
        let weird = [
            f64::NAN,
            f64::from_bits(0x7ff8_0000_0000_0001),
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            f64::MIN_POSITIVE,
            f64::MAX,
        ];
        assert_eq!(bits64(&roundtrip_f64(&weird)), bits64(&weird));
    }

    #[test]
    fn raw_fallback_bounds_expansion() {
        // Adversarial noise: full-range bit patterns defeat both
        // transforms; the auto-encoder must fall back to raw + header.
        let mut x = 0x2545F4914F6CDD1Du64;
        let noisy64: Vec<f64> = (0..256)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                f64::from_bits(x)
            })
            .collect();
        let enc = encode_f64s(&noisy64);
        assert!(enc.len() <= noisy64.len() * 8 + 12);
        assert_eq!(bits64(&roundtrip_f64(&noisy64)), bits64(&noisy64));
    }

    #[test]
    fn empty_streams_roundtrip() {
        assert!(roundtrip_f32(&[]).is_empty());
        assert!(roundtrip_f64(&[]).is_empty());
    }

    #[test]
    fn count_mismatch_is_rejected_before_allocation() {
        let enc = encode_f64s(&[1.0, 2.0]);
        let mut pos = 0;
        assert!(matches!(
            decode_f64s(&enc, &mut pos, 3),
            Err(CodecError::Corrupt(_))
        ));
    }

    /// The count is the peer's word: the largest count a payload can
    /// honestly hold still decodes, one more is refused unallocated.
    #[test]
    fn a_count_the_payload_cannot_hold_is_rejected_at_the_exact_boundary() {
        // 8 raw bytes + one zero-width byte: 65 constant values.
        let mut packed = 7.5f64.to_le_bytes().to_vec();
        packed.push(0);
        assert_eq!(bitpack_decode_f64(&packed, 65).unwrap(), vec![7.5; 65]);
        assert!(matches!(
            bitpack_decode_f64(&packed, 66),
            Err(CodecError::Corrupt(_))
        ));
        // Mode byte + one zero-delta byte per value.
        let varints = [MODE_INT, 0, 0, 0];
        assert_eq!(delta_varint_decode_f32(&varints, 3).unwrap(), vec![0.0; 3]);
        assert!(matches!(
            delta_varint_decode_f32(&varints, 4),
            Err(CodecError::Corrupt(_))
        ));
    }

    #[test]
    fn unknown_codec_id_is_rejected() {
        let mut enc = encode_f32s(&[1.0]);
        enc[0] = 9;
        let mut pos = 0;
        assert!(matches!(
            decode_f32s(&enc, &mut pos, 1),
            Err(CodecError::Corrupt(_))
        ));
    }

    #[test]
    fn forced_raw_is_bytes_plus_header() {
        let vals = [1.0f32, 2.0, 3.0];
        let enc = encode_f32s_as(CODEC_RAW, &vals).unwrap();
        // id + varint(3) + varint(12) + 12 payload bytes.
        assert_eq!(enc.len(), 3 + 12);
    }
}
