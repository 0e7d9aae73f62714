//! The serial kernels against their byte-at-a-time originals.
//!
//! `fnv1a64_update` folds zero runs, the delta-varint codec finds runs 8
//! cells at a time and fills them whole, and the bitpack codec writes
//! into its block and reads 8 bytes at a time. None of that may change a
//! hash, an encoded byte, a decoded value or a decode verdict. The
//! `oracle` module below holds simple kernels — FNV-1a and bitpack as
//! they were before their fast paths, and a reference of the run-coded
//! delta stream that encodes a cell and decodes a byte at a time — and
//! every seeded case here must agree with them:
//!
//! - FNV-1a over zero runs of every length 0–70 at every offset mod 8,
//!   all-zero, zero-free and random streams, and chains split inside a
//!   zero run;
//! - the encoded bytes of both codecs on count grids, specials, ramps and
//!   noise;
//! - decode results, bit for bit, and error verdicts, variant and
//!   message, on valid, truncated, bit-flipped and count-inflated blocks.

use accelviz_store::codec::{
    decode_f32s, decode_f64s, encode_f32s_as, encode_f64s_as, CodecError, CODEC_BITPACK,
    CODEC_DELTA_VARINT,
};
use accelviz_store::{fnv1a64, fnv1a64_update};

/// FNV-1a and bitpack as they were before the fast paths, verbatim, and
/// the run-coded delta stream one cell and one byte at a time.
mod oracle {
    use accelviz_store::codec::CodecError;

    type Result<T> = std::result::Result<T, CodecError>;

    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

    pub fn fnv1a64_update(mut hash: u64, bytes: &[u8]) -> u64 {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
        hash
    }

    const MODE_INT: u8 = 2;
    const MODE_BITS: u8 = 3;
    const INT_MODE_MAX: f32 = 16_777_216.0;
    /// Cells one run token carries at most.
    const RUN_MAX: usize = 256;

    pub fn put_uvarint(buf: &mut Vec<u8>, mut v: u64) {
        while v >= 0x80 {
            buf.push((v as u8) | 0x80);
            v >>= 7;
        }
        buf.push(v as u8);
    }

    pub fn get_uvarint(buf: &[u8], pos: &mut usize) -> Result<u64> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let b = *buf.get(*pos).ok_or(CodecError::Truncated {
                needed: 1,
                at: *pos,
            })?;
            *pos += 1;
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

    fn byte(buf: &[u8], pos: usize) -> Result<u8> {
        buf.get(pos)
            .copied()
            .ok_or(CodecError::Truncated { needed: 1, at: pos })
    }

    fn zigzag(v: i64) -> u64 {
        ((v << 1) ^ (v >> 63)) as u64
    }

    fn unzigzag(v: u64) -> i64 {
        ((v >> 1) as i64) ^ -((v & 1) as i64)
    }

    struct BitWriter {
        buf: Vec<u8>,
        acc: u64,
        nbits: u32,
    }

    impl BitWriter {
        fn new() -> BitWriter {
            BitWriter {
                buf: Vec::new(),
                acc: 0,
                nbits: 0,
            }
        }

        fn push(&mut self, v: u64, width: u32) {
            debug_assert!(width <= 64);
            let mut v = if width == 64 {
                v
            } else {
                v & ((1u64 << width) - 1)
            };
            let mut width = width;
            while width > 0 {
                let take = (64 - self.nbits).min(width);
                self.acc |= (v & ones(take)) << self.nbits;
                self.nbits += take;
                v = if take == 64 { 0 } else { v >> take };
                width -= take;
                if self.nbits == 64 {
                    self.buf.extend_from_slice(&self.acc.to_le_bytes());
                    self.acc = 0;
                    self.nbits = 0;
                }
            }
        }

        fn align(&mut self) {
            if self.nbits > 0 {
                let bytes = self.nbits.div_ceil(8) as usize;
                self.buf.extend_from_slice(&self.acc.to_le_bytes()[..bytes]);
                self.acc = 0;
                self.nbits = 0;
            }
        }

        fn into_bytes(mut self) -> Vec<u8> {
            self.align();
            self.buf
        }
    }

    fn ones(n: u32) -> u64 {
        if n >= 64 {
            u64::MAX
        } else {
            (1u64 << n) - 1
        }
    }

    struct BitReader<'a> {
        buf: &'a [u8],
        pos: usize,
        acc: u64,
        nbits: u32,
    }

    impl<'a> BitReader<'a> {
        fn new(buf: &'a [u8], pos: usize) -> BitReader<'a> {
            BitReader {
                buf,
                pos,
                acc: 0,
                nbits: 0,
            }
        }

        fn pull(&mut self, width: u32) -> Result<u64> {
            debug_assert!(width <= 64);
            let mut v: u64 = 0;
            let mut got = 0u32;
            while got < width {
                if self.nbits == 0 {
                    let b = *self.buf.get(self.pos).ok_or(CodecError::Truncated {
                        needed: 1,
                        at: self.pos,
                    })?;
                    self.pos += 1;
                    self.acc = u64::from(b);
                    self.nbits = 8;
                }
                let take = self.nbits.min(width - got);
                v |= (self.acc & ones(take)) << got;
                self.acc >>= take;
                self.nbits -= take;
                got += take;
            }
            Ok(v)
        }

        fn align(&mut self) {
            self.acc = 0;
            self.nbits = 0;
        }

        fn byte_pos(&self) -> usize {
            self.pos
        }
    }

    /// A cell the INT sub-mode holds: a non-negative whole number up to
    /// 2^24 with a clear sign bit, so `-0.0` is not one.
    fn is_int(v: f32) -> bool {
        v.is_finite()
            && (0.0..=INT_MODE_MAX).contains(&v)
            && v.fract() == 0.0
            && v.is_sign_positive()
    }

    /// One cell at a time: a cell equal to the one before extends the
    /// pending run, which is written out when a different cell comes, when
    /// it reaches `RUN_MAX`, or at the end.
    pub fn delta_run_encode_f32(values: &[f32]) -> Vec<u8> {
        let int_ok = values.iter().all(|&v| is_int(v));
        let mut out = vec![if int_ok { MODE_INT } else { MODE_BITS }];
        let mut prev: i64 = 0;
        let mut run = 0usize;
        for &v in values {
            let iv = if int_ok {
                v as i64
            } else {
                i64::from(v.to_bits())
            };
            if iv == prev {
                run += 1;
                if run == RUN_MAX {
                    out.extend([0, (run - 1) as u8]);
                    run = 0;
                }
                continue;
            }
            if run > 0 {
                out.extend([0, (run - 1) as u8]);
                run = 0;
            }
            put_uvarint(&mut out, zigzag(iv - prev));
            prev = iv;
        }
        if run > 0 {
            out.extend([0, (run - 1) as u8]);
        }
        out
    }

    /// The value a running `iv` stands for in `mode`, or why it cannot.
    fn cell(mode: u8, iv: i64) -> Result<f32> {
        if mode == MODE_INT {
            if iv < 0 || iv > INT_MODE_MAX as i64 {
                return Err(CodecError::Corrupt(format!(
                    "INT-mode value {iv} out of range"
                )));
            }
            Ok(iv as f32)
        } else {
            if iv < 0 || iv > i64::from(u32::MAX) {
                return Err(CodecError::Corrupt(format!(
                    "BITS-mode pattern {iv} exceeds u32"
                )));
            }
            Ok(f32::from_bits(iv as u32))
        }
    }

    /// One byte at a time: `0x00` and the byte after it are a run of
    /// repeats of the last value, any other first byte starts a varint.
    pub fn delta_run_decode_f32(payload: &[u8], count: usize) -> Result<Vec<f32>> {
        let mode = byte(payload, 0)?;
        let mut pos = 1;
        let body = payload.len() - 1;
        if count > body.saturating_mul(RUN_MAX / 2) {
            return Err(CodecError::Corrupt(format!(
                "{count} cells cannot fit in {body} bytes"
            )));
        }
        if mode != MODE_INT && mode != MODE_BITS {
            return Err(CodecError::Corrupt(format!(
                "unknown delta-varint sub-mode {mode}"
            )));
        }
        let mut values = Vec::new();
        let mut prev: i64 = 0;
        while values.len() < count {
            if byte(payload, pos)? == 0 {
                let n = 1 + usize::from(byte(payload, pos + 1)?);
                pos += 2;
                let left = count - values.len();
                if n > left {
                    return Err(CodecError::Corrupt(format!(
                        "a run of {n} cells passes the {left} left"
                    )));
                }
                for _ in 0..n {
                    values.push(cell(mode, prev)?);
                }
                continue;
            }
            let iv = prev
                .checked_add(unzigzag(get_uvarint(payload, &mut pos)?))
                .ok_or_else(|| CodecError::Corrupt("delta chain overflows".into()))?;
            prev = iv;
            values.push(cell(mode, iv)?);
        }
        if pos != payload.len() {
            return Err(CodecError::Corrupt(format!(
                "{} trailing bytes after delta stream",
                payload.len() - pos
            )));
        }
        Ok(values)
    }

    const PACK_BLOCK: usize = 64;

    pub fn bitpack_encode_f64(values: &[f64]) -> Vec<u8> {
        let mut out = Vec::with_capacity(values.len() * 4);
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
                let mut bw = BitWriter::new();
                for &x in &residuals[..chunk.len()] {
                    bw.push(x, width);
                }
                out.extend_from_slice(&bw.into_bytes());
            }
        }
        out
    }

    pub fn bitpack_decode_f64(payload: &[u8], count: usize) -> Result<Vec<f64>> {
        let mut pos = 0usize;
        if count == 0 {
            if !payload.is_empty() {
                return Err(CodecError::Corrupt(
                    "bytes in an empty packed stream".into(),
                ));
            }
            return Ok(Vec::new());
        }
        let width_bytes = payload.len().saturating_sub(8);
        if count - 1 > width_bytes.saturating_mul(PACK_BLOCK) {
            return Err(CodecError::Corrupt(format!(
                "{count} packed values cannot fit in {} bytes",
                payload.len()
            )));
        }
        let mut values = Vec::with_capacity(count);
        let first_bytes = payload.get(..8).ok_or(CodecError::Truncated {
            needed: 8usize.saturating_sub(payload.len()),
            at: 0,
        })?;
        let first = f64::from_le_bytes(first_bytes.try_into().unwrap());
        pos += 8;
        values.push(first);
        let mut prev: u64 = first.to_bits();
        let mut remaining = count - 1;
        while remaining > 0 {
            let width = u32::from(
                *payload
                    .get(pos)
                    .ok_or(CodecError::Truncated { needed: 1, at: pos })?,
            );
            pos += 1;
            if width > 64 {
                return Err(CodecError::Corrupt(format!("pack width {width} > 64")));
            }
            let in_block = remaining.min(PACK_BLOCK);
            if width == 0 {
                for _ in 0..in_block {
                    values.push(f64::from_bits(prev));
                }
            } else {
                let mut br = BitReader::new(payload, pos);
                for _ in 0..in_block {
                    let x = br.pull(width)?;
                    let bits = x ^ prev;
                    prev = bits;
                    values.push(f64::from_bits(bits));
                }
                br.align();
                pos = br.byte_pos();
            }
            remaining -= in_block;
        }
        if pos != payload.len() {
            return Err(CodecError::Corrupt(format!(
                "{} trailing bytes after packed stream",
                payload.len() - pos
            )));
        }
        Ok(values)
    }
}

/// SplitMix64: every case below is a pure function of its seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next() as u8).collect()
    }

    /// `n` bytes none of which is zero.
    fn nonzero_bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| 1 + self.below(255) as u8).collect()
    }
}

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

// ---------------------------------------------------------------------
// FNV-1a.
// ---------------------------------------------------------------------

fn assert_fnv(h: u64, bytes: &[u8], case: &str) {
    assert_eq!(
        fnv1a64_update(h, bytes),
        oracle::fnv1a64_update(h, bytes),
        "{case} ({} bytes)",
        bytes.len()
    );
}

#[test]
fn zero_runs_of_every_length_at_every_offset_hash_as_bytes() {
    let mut rng = Mix(1);
    for offset in 0..8 {
        for run in 0..=70 {
            // Non-zero bytes on both sides, so the run is exactly `run`
            // long and starts `offset` bytes into a word.
            let mut bytes = rng.nonzero_bytes(offset);
            bytes.extend(std::iter::repeat_n(0u8, run));
            let after = rng.below(20) as usize;
            bytes.extend(rng.nonzero_bytes(after));
            let h = rng.next();
            assert_fnv(h, &bytes, &format!("run {run} at offset {offset}"));
            assert_fnv(
                OFFSET_BASIS,
                &bytes,
                &format!("run {run} at offset {offset}"),
            );
            // Two runs back to back with one non-zero byte between.
            let mut twice = bytes.clone();
            twice.push(0x5a);
            twice.extend(std::iter::repeat_n(0u8, run));
            assert_fnv(h, &twice, &format!("two runs of {run} at offset {offset}"));
        }
    }
}

#[test]
fn all_zero_zero_free_and_random_streams_hash_as_bytes() {
    let mut rng = Mix(2);
    let lens = [0usize, 1, 7, 8, 9, 63, 64, 65, 4095, 4096, 4097, 100_003];
    for &n in &lens {
        assert_fnv(OFFSET_BASIS, &vec![0u8; n], "all zero");
        assert_fnv(rng.next(), &vec![0u8; n], "all zero from a random hash");
        assert_fnv(rng.next(), &rng.nonzero_bytes(n), "zero free");
        assert_fnv(rng.next(), &rng.bytes(n), "random");
    }
    // Sparse content in a mostly-zero stream, like a density volume.
    for seed in 0..32 {
        let mut bytes = vec![0u8; 1 + rng.below(20_000) as usize];
        for _ in 0..rng.below(64) {
            let at = rng.below(bytes.len() as u64) as usize;
            bytes[at] = rng.next() as u8;
        }
        assert_fnv(rng.next(), &bytes, &format!("sparse stream {seed}"));
    }
    // Long runs need the high powers of the prime.
    assert_fnv(
        OFFSET_BASIS,
        &vec![0u8; (1 << 20) + 24],
        "a mebibyte of zeros",
    );
}

#[test]
fn chains_split_inside_a_zero_run_hash_as_one_stream() {
    let mut rng = Mix(3);
    for case in 0..400 {
        let (before, run, after) = (rng.below(24), 1 + rng.below(80), rng.below(24));
        let (before, run, after) = (before as usize, run as usize, after as usize);
        let mut bytes = rng.bytes(before);
        let run_start = bytes.len();
        bytes.extend(std::iter::repeat_n(0u8, run));
        bytes.extend(rng.bytes(after));
        let split = run_start + rng.below(run as u64 + 1) as usize;
        let (a, b) = bytes.split_at(split);
        let whole = oracle::fnv1a64_update(OFFSET_BASIS, &bytes);
        assert_eq!(
            fnv1a64_update(fnv1a64_update(OFFSET_BASIS, a), b),
            whole,
            "case {case}: split at {split} of {} inside a run of {run}",
            bytes.len()
        );
        assert_eq!(fnv1a64(&bytes), whole, "case {case}");
    }
}

// ---------------------------------------------------------------------
// Codecs.
// ---------------------------------------------------------------------

/// A block around `payload`, as the codec writes one.
fn block(codec: u8, count: usize, payload: &[u8]) -> Vec<u8> {
    let mut out = vec![codec];
    oracle::put_uvarint(&mut out, count as u64);
    oracle::put_uvarint(&mut out, payload.len() as u64);
    out.extend_from_slice(payload);
    out
}

fn bits32(r: Result<Vec<f32>, CodecError>) -> Result<Vec<u32>, CodecError> {
    r.map(|v| v.iter().map(|x| x.to_bits()).collect())
}

fn bits64(r: Result<Vec<f64>, CodecError>) -> Result<Vec<u64>, CodecError> {
    r.map(|v| v.iter().map(|x| x.to_bits()).collect())
}

fn decode32(payload: &[u8], count: usize) -> Result<Vec<u32>, CodecError> {
    let bytes = block(CODEC_DELTA_VARINT, count, payload);
    let mut pos = 0;
    bits32(decode_f32s(&bytes, &mut pos, count))
}

fn decode64(payload: &[u8], count: usize) -> Result<Vec<u64>, CodecError> {
    let bytes = block(CODEC_BITPACK, count, payload);
    let mut pos = 0;
    bits64(decode_f64s(&bytes, &mut pos, count))
}

/// Every damaged form of `payload` the decoders must judge alike:
/// truncations and bit flips (all of them for short payloads; for long
/// ones a sample, and every cut in the last 80 bytes), and counts above
/// and below the true one.
fn damaged(payload: &[u8], count: usize, rng: &mut Mix) -> Vec<(Vec<u8>, usize)> {
    let mut cases = vec![(payload.to_vec(), count)];
    let cuts: Vec<usize> = if payload.len() <= 512 {
        (0..payload.len()).collect()
    } else {
        (0..128)
            .map(|_| rng.below(payload.len() as u64) as usize)
            .chain(payload.len() - 80..payload.len())
            .collect()
    };
    for cut in cuts {
        cases.push((payload[..cut].to_vec(), count));
    }
    let flips: Vec<usize> = if payload.len() * 8 <= 2_048 {
        (0..payload.len() * 8).collect()
    } else {
        (0..512)
            .map(|_| rng.below(payload.len() as u64 * 8) as usize)
            .collect()
    };
    for bit in flips {
        let mut bad = payload.to_vec();
        bad[bit / 8] ^= 1 << (bit % 8);
        cases.push((bad, count));
    }
    for more in [1, 2, 63, 64, 65, 1_000] {
        cases.push((payload.to_vec(), count + more));
    }
    if count > 0 {
        cases.push((payload.to_vec(), count - 1));
    }
    cases
}

/// `f32` streams of the shapes grids take, some of them `INT`-able.
fn f32_streams(rng: &mut Mix) -> Vec<Vec<f32>> {
    let mut streams = vec![
        vec![],
        vec![0.0],
        vec![16_777_216.0],
        vec![16_777_216.0, 16_777_218.0],
        vec![0.5],
        vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 3.0],
        vec![f32::from_bits(0x7fc0_0001), 1.0, -1.0],
        vec![f32::MIN_POSITIVE, f32::MAX, 0.0],
    ];
    for n in [1usize, 2, 63, 64, 65, 300, 4_096] {
        // A mostly-zero count grid.
        let mut grid = vec![0.0f32; n];
        for _ in 0..n / 7 + 1 {
            grid[rng.below(n as u64) as usize] = rng.below(40) as f32;
        }
        streams.push(grid.clone());
        // Mostly empty space: runs longer than one token.
        let mut sparse = vec![0.0f32; n * 3];
        for _ in 0..n / 97 + 1 {
            sparse[rng.below(n as u64 * 3) as usize] = 1.0 + rng.below(3) as f32;
        }
        streams.push(sparse);
        // Counts with big jumps: multi-byte varints.
        streams.push(
            (0..n)
                .map(|_| {
                    let bits = rng.below(25);
                    rng.below(1 << bits) as f32
                })
                .collect(),
        );
        // A fraction, late in the stream.
        let mut late = grid.clone();
        late[n - 1] = 0.25;
        streams.push(late);
        // Noise over every bit pattern.
        streams.push((0..n).map(|_| f32::from_bits(rng.next() as u32)).collect());
        // A smooth ramp.
        streams.push((0..n).map(|i| i as f32 * 0.01 - 1.0).collect());
        // Runs of NaN payloads and negative zeros: BITS-mode runs.
        streams.push(
            (0..n)
                .map(|i| match i / 70 % 3 {
                    0 => f32::from_bits(0x7fc0_0001),
                    1 => -0.0,
                    _ => (i / 70) as f32,
                })
                .collect(),
        );
    }
    streams
}

#[test]
fn delta_varint_bytes_and_verdicts_match_the_oracle() {
    let mut rng = Mix(5);
    for (s, values) in f32_streams(&mut rng).iter().enumerate() {
        let payload = oracle::delta_run_encode_f32(values);
        assert_eq!(
            encode_f32s_as(CODEC_DELTA_VARINT, values).unwrap(),
            block(CODEC_DELTA_VARINT, values.len(), &payload),
            "stream {s}: encoded bytes"
        );
        for (i, (bytes, count)) in damaged(&payload, values.len(), &mut rng).iter().enumerate() {
            assert_eq!(
                decode32(bytes, *count),
                bits32(oracle::delta_run_decode_f32(bytes, *count)),
                "stream {s}, case {i}: {} bytes, count {count}",
                bytes.len()
            );
        }
    }
}

#[test]
fn delta_varint_payloads_of_every_shape_decode_alike() {
    // Random bytes under both sub-modes, an old one and any other: run
    // tokens of every length, overlong and overflowing varints, chains
    // that overflow or leave the range, counts short of and past the
    // cells the tokens hold.
    let mut rng = Mix(6);
    for case in 0..3_000 {
        let n = rng.below(24) as usize;
        let mode = match rng.below(6) {
            0 => rng.next() as u8,
            1 => rng.below(2) as u8,
            m => 2 + (m % 2) as u8,
        };
        let mut payload = vec![mode];
        let mut cells = 0;
        for _ in 0..n {
            match rng.below(5) {
                0 => payload.push(rng.below(0x80) as u8),
                1 => oracle::put_uvarint(&mut payload, rng.next()),
                2 => payload.extend(std::iter::repeat_n(0xff, rng.below(12) as usize)),
                3 => {
                    let k = rng.next() as u8;
                    payload.extend([0, k]);
                    cells += usize::from(k);
                }
                _ => payload.push(rng.next() as u8),
            }
            cells += 1;
        }
        let count = rng.below(cells as u64 + 2) as usize;
        assert_eq!(
            decode32(&payload, count),
            bits32(oracle::delta_run_decode_f32(&payload, count)),
            "case {case}: {payload:?}, count {count}"
        );
    }
}

#[test]
fn a_negative_zero_among_integral_cells_sends_the_stream_to_bits() {
    for values in [
        vec![1.0f32, -0.0, 2.0],
        vec![-0.0],
        vec![0.0, -0.0, 0.0, 7.0],
        vec![-0.0; 600],
    ] {
        let enc = encode_f32s_as(CODEC_DELTA_VARINT, &values).unwrap();
        let payload = oracle::delta_run_encode_f32(&values);
        assert_eq!(payload[0], 3, "{values:?} is a BITS stream");
        assert_eq!(enc, block(CODEC_DELTA_VARINT, values.len(), &payload));
        let mut pos = 0;
        let want: Vec<u32> = values.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits32(decode_f32s(&enc, &mut pos, values.len())), Ok(want));
    }
}

/// `f64` streams of the shapes point columns take.
fn f64_streams(rng: &mut Mix) -> Vec<Vec<f64>> {
    let mut streams = vec![
        vec![],
        vec![1.5],
        vec![f64::NAN, f64::INFINITY, -0.0, f64::MIN_POSITIVE, f64::MAX],
    ];
    for n in [2usize, 9, 64, 65, 66, 129, 200, 1_000] {
        streams.push(vec![0.125; n]);
        // Clustered coordinates: shared sign, exponent, high mantissa.
        streams.push(
            (0..n)
                .map(|_| 1.0 + rng.below(1 << 20) as f64 * 1e-9)
                .collect(),
        );
        // A sorted density column: long runs of repeats.
        streams.push((0..n).map(|i| (i / 17) as f64).collect());
        // Noise over every bit pattern: full 64-bit widths.
        streams.push((0..n).map(|_| f64::from_bits(rng.next())).collect());
        // Widths that vary block by block.
        streams.push(
            (0..n)
                .map(|i| f64::from_bits(rng.next() >> (i / 64 * 7 % 64)))
                .collect(),
        );
    }
    streams
}

#[test]
fn bitpack_bytes_and_verdicts_match_the_oracle() {
    let mut rng = Mix(7);
    for (s, values) in f64_streams(&mut rng).iter().enumerate() {
        let payload = oracle::bitpack_encode_f64(values);
        assert_eq!(
            encode_f64s_as(CODEC_BITPACK, values).unwrap(),
            block(CODEC_BITPACK, values.len(), &payload),
            "stream {s}: encoded bytes"
        );
        for (i, (bytes, count)) in damaged(&payload, values.len(), &mut rng).iter().enumerate() {
            assert_eq!(
                decode64(bytes, *count),
                bits64(oracle::bitpack_decode_f64(bytes, *count)),
                "stream {s}, case {i}: {} bytes, count {count}",
                bytes.len()
            );
        }
    }
}

#[test]
fn bitpack_payloads_of_every_shape_decode_alike() {
    // A raw first value, then width bytes — some above 64 — each followed
    // by fewer, exactly or more bytes than its block needs.
    let mut rng = Mix(8);
    for case in 0..3_000 {
        let first = rng.below(10) as usize;
        let mut payload = rng.bytes(first);
        let mut count = 1;
        for _ in 0..rng.below(4) {
            let width = rng.below(70) as usize;
            let in_block = 1 + rng.below(64) as usize;
            count += in_block;
            payload.push(width as u8);
            let need = (width * in_block).div_ceil(8);
            let slack = rng.below(20) as usize;
            let have = (need + slack).saturating_sub(10);
            payload.extend(rng.bytes(have));
        }
        let count = match rng.below(4) {
            0 => rng.below(count as u64 + 70) as usize,
            _ => count,
        };
        assert_eq!(
            decode64(&payload, count),
            bits64(oracle::bitpack_decode_f64(&payload, count)),
            "case {case}: {} bytes, count {count}",
            payload.len()
        );
    }
}
