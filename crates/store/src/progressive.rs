//! Chunk and delta record framing for progressive frame streaming.
//!
//! A progressive reply is a short sequence of *records*, each travelling
//! in its own wire envelope. This module owns the record container and
//! the strict ordering discipline; what the payloads *mean* (coarse
//! frame, point-range delta, final grid + trailer) belongs to the serve
//! layer's `lod` module, which builds them from the block codecs in
//! [`crate::codec`].
//!
//! ```text
//! offset size  field
//! 0      1    record kind (RECORD_COARSE / RECORD_DELTA / RECORD_FINAL)
//! 1      4    seq, little-endian u32 (0-based position in the stream)
//! 5      4    total, little-endian u32 (records in the whole stream)
//! 9      8    payload length, little-endian u64
//! 17     n    payload
//! 17+n   8    checksum, little-endian: FNV-1a 64 over bytes [0, 17),
//!             chained on over the 8 little-endian bytes of
//!             fnv1a64_lanes(payload)
//! ```
//!
//! [`fnv1a64_lanes`] hashes the payload as four quarters side by side, so
//! sealing and checking a record cost a quarter of one serial chain. The
//! trailing checksum covers the header *and* payload, so a record
//! re-framed with a forged `seq` fails verification even when the wire
//! envelope around it is rebuilt. A stream always holds at least two
//! records — the coarse head and the final trailer — and
//! [`RecordAssembler`] enforces the grammar: seq 0 is `RECORD_COARSE`,
//! seq `total-1` is `RECORD_FINAL`, everything between is
//! `RECORD_DELTA`, accepted strictly in order with duplicates and
//! reordering rejected. Replay after a transport failure re-sends from
//! seq 0; the assembler's [`RecordAssembler::next_seq`] high-water mark
//! is what lets a client skip records it already applied.

use crate::codec::{CodecError, Result};
use crate::{fnv1a64, fnv1a64_lanes, fnv1a64_update};
use accelviz_math::Reader;

/// Record kind: the stream head — frame header, coarse volume, and the
/// first point slice. Always seq 0.
pub const RECORD_COARSE: u8 = 1;
/// Record kind: a refinement delta — one contiguous point range that
/// splices onto the resident partial frame.
pub const RECORD_DELTA: u8 = 2;
/// Record kind: the stream tail — the full-resolution volume and the
/// whole-frame verification trailer. Always seq `total - 1`.
pub const RECORD_FINAL: u8 = 3;

/// Record header size in bytes (kind + seq + total + payload length).
pub const RECORD_HEADER_BYTES: usize = 17;
/// Record checksum trailer size in bytes.
pub const RECORD_CHECKSUM_BYTES: usize = 8;

/// One record of a progressive stream: its kind, position, the stream
/// length it claims, and the still-encoded payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Record {
    /// One of [`RECORD_COARSE`], [`RECORD_DELTA`], [`RECORD_FINAL`].
    pub kind: u8,
    /// 0-based position in the stream.
    pub seq: u32,
    /// Number of records in the whole stream (every record repeats it,
    /// so a receiver knows the shape from the first record it sees).
    pub total: u32,
    /// The record payload, still encoded.
    pub payload: Vec<u8>,
}

/// The record checksum: [`fnv1a64`] of the header, chained on over the
/// little-endian bytes of the payload's [`fnv1a64_lanes`].
fn record_checksum(header: &[u8], payload: &[u8]) -> u64 {
    fnv1a64_update(fnv1a64(header), &fnv1a64_lanes(payload).to_le_bytes())
}

/// Encodes one record: header, payload, checksum.
pub fn encode_record(rec: &Record) -> Vec<u8> {
    let mut out =
        Vec::with_capacity(RECORD_HEADER_BYTES + rec.payload.len() + RECORD_CHECKSUM_BYTES);
    out.push(rec.kind);
    out.extend_from_slice(&rec.seq.to_le_bytes());
    out.extend_from_slice(&rec.total.to_le_bytes());
    out.extend_from_slice(&(rec.payload.len() as u64).to_le_bytes());
    let checksum = record_checksum(&out, &rec.payload);
    out.extend_from_slice(&rec.payload);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Decodes one record from `buf`, which must hold exactly the record —
/// trailing bytes, truncation, a length that disagrees with the buffer,
/// an unknown kind, or a checksum mismatch are all structured errors.
pub fn decode_record(buf: &[u8]) -> Result<Record> {
    let mut r = Reader::new(buf);
    let kind = r.u8()?;
    if !matches!(kind, RECORD_COARSE | RECORD_DELTA | RECORD_FINAL) {
        return Err(CodecError::Corrupt(format!("unknown record kind {kind}")));
    }
    let seq = r.u32()?;
    let total = r.u32()?;
    let len = r.u64()?;
    let payload = r.take(usize::try_from(len).unwrap_or(usize::MAX))?;
    let expected = r.u64()?;
    if r.remaining() != 0 {
        return Err(CodecError::Corrupt(format!(
            "{} trailing bytes after record",
            r.remaining()
        )));
    }
    let actual = record_checksum(&buf[..RECORD_HEADER_BYTES], payload);
    if actual != expected {
        return Err(CodecError::Corrupt(format!(
            "record checksum mismatch: computed {actual:#018x}, trailer says {expected:#018x}"
        )));
    }
    Ok(Record {
        kind,
        seq,
        total,
        payload: payload.to_vec(),
    })
}

/// Enforces the stream grammar over a sequence of [`Record`]s: strictly
/// ascending seq from 0, a consistent `total` of at least 2, kind
/// `RECORD_COARSE` exactly at seq 0, `RECORD_FINAL` exactly at the last
/// seq, `RECORD_DELTA` everywhere between. Duplicates, gaps, reordering,
/// records after completion, and mid-stream `total` changes are all
/// rejected.
#[derive(Debug, Default)]
pub struct RecordAssembler {
    next: u32,
    total: Option<u32>,
    done: bool,
}

impl RecordAssembler {
    /// An assembler expecting seq 0 next.
    pub fn new() -> RecordAssembler {
        RecordAssembler::default()
    }

    /// The seq this assembler will accept next — the replay high-water
    /// mark: after a reconnect the sender restarts from 0 and the
    /// receiver discards (without applying) every record below this.
    pub fn next_seq(&self) -> u32 {
        self.next
    }

    /// Whether the final record has been accepted.
    pub fn is_complete(&self) -> bool {
        self.done
    }

    /// Validates `rec` against the grammar and advances. Returns `true`
    /// when `rec` completed the stream.
    pub fn accept(&mut self, rec: &Record) -> Result<bool> {
        if self.done {
            return Err(CodecError::Corrupt(
                "record after the stream completed".into(),
            ));
        }
        if rec.total < 2 {
            return Err(CodecError::Corrupt(format!(
                "stream of {} records (minimum is coarse + final)",
                rec.total
            )));
        }
        match self.total {
            None => self.total = Some(rec.total),
            Some(t) if t != rec.total => {
                return Err(CodecError::Corrupt(format!(
                    "stream length changed mid-stream: {t} then {}",
                    rec.total
                )))
            }
            Some(_) => {}
        }
        if rec.seq != self.next {
            return Err(CodecError::Corrupt(format!(
                "record {} out of order (expected {})",
                rec.seq, self.next
            )));
        }
        let total = self.total.unwrap();
        let expected_kind = if rec.seq == 0 {
            RECORD_COARSE
        } else if rec.seq == total - 1 {
            RECORD_FINAL
        } else {
            RECORD_DELTA
        };
        if rec.kind != expected_kind {
            return Err(CodecError::Corrupt(format!(
                "record {} of {} has kind {}, grammar requires {}",
                rec.seq, total, rec.kind, expected_kind
            )));
        }
        self.next += 1;
        self.done = self.next == total;
        Ok(self.done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(total: u32) -> Vec<Record> {
        (0..total)
            .map(|seq| Record {
                kind: if seq == 0 {
                    RECORD_COARSE
                } else if seq == total - 1 {
                    RECORD_FINAL
                } else {
                    RECORD_DELTA
                },
                seq,
                total,
                payload: vec![seq as u8; 3 + seq as usize],
            })
            .collect()
    }

    #[test]
    fn records_roundtrip() {
        for rec in stream(4) {
            let bytes = encode_record(&rec);
            assert_eq!(decode_record(&bytes).unwrap(), rec);
        }
    }

    #[test]
    fn assembler_accepts_in_order_and_completes() {
        let mut asm = RecordAssembler::new();
        let recs = stream(5);
        for (i, rec) in recs.iter().enumerate() {
            let done = asm.accept(rec).unwrap();
            assert_eq!(done, i == recs.len() - 1);
            assert_eq!(asm.next_seq(), i as u32 + 1);
        }
        assert!(asm.is_complete());
        assert!(asm.accept(&recs[0]).is_err(), "records after completion");
    }

    #[test]
    fn reorder_duplicate_and_gap_are_rejected() {
        let recs = stream(4);
        // Duplicate seq 0.
        let mut asm = RecordAssembler::new();
        asm.accept(&recs[0]).unwrap();
        assert!(asm.accept(&recs[0]).is_err());
        // Gap: 0 then 2.
        let mut asm = RecordAssembler::new();
        asm.accept(&recs[0]).unwrap();
        assert!(asm.accept(&recs[2]).is_err());
        // Starting mid-stream.
        let mut asm = RecordAssembler::new();
        assert!(asm.accept(&recs[1]).is_err());
    }

    #[test]
    fn grammar_violations_are_rejected() {
        let recs = stream(3);
        // Wrong kind at seq 0.
        let mut asm = RecordAssembler::new();
        let mut bad = recs[0].clone();
        bad.kind = RECORD_DELTA;
        assert!(asm.accept(&bad).is_err());
        // total changing mid-stream.
        let mut asm = RecordAssembler::new();
        asm.accept(&recs[0]).unwrap();
        let mut bad = recs[1].clone();
        bad.total = 4;
        assert!(asm.accept(&bad).is_err());
        // A one-record stream can never satisfy coarse + final.
        let mut asm = RecordAssembler::new();
        let lone = Record {
            kind: RECORD_COARSE,
            seq: 0,
            total: 1,
            payload: vec![],
        };
        assert!(asm.accept(&lone).is_err());
    }
}
