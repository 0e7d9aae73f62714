//! The request/response protocol spoken over envelopes.
//!
//! A connection is a strict request/reply loop: the client writes one
//! request envelope, the server answers with exactly one response
//! envelope. Request kinds live in `0x0_`, responses in `0x8_`; a server
//! that cannot satisfy a request answers in-band with [`Response::Error`]
//! rather than dropping the connection, so one malformed request does not
//! kill an interactive session.

use crate::error::{Result, ServeError};
use crate::wire::{
    decode_frame_v2, encode_frame_v2, read_envelope, read_envelope_within, write_envelope,
    PayloadReader, PayloadWriter,
};
use accelviz_core::hybrid::HybridFrame;
use accelviz_trace::hist::{LogHistogram, LATENCY_BUCKETS};
use accelviz_trace::registry::Snapshot;
use std::collections::BTreeMap;
use std::io::{Read, Write};

/// Request kind: protocol handshake.
pub const REQ_HELLO: u8 = 0x01;
/// Request kind: frame catalog listing.
pub const REQ_LIST: u8 = 0x02;
/// Request kind: one frame at one extraction threshold.
pub const REQ_FRAME: u8 = 0x03;
/// Request kind: the answering service's metrics snapshot.
pub const REQ_STATS: u8 = 0x04;
/// Request kind: one frame streamed progressively (coarse-to-fine). The
/// one request answered by *multiple* envelopes: a sequence of
/// [`RESP_FRAME_CHUNK`]s.
pub const REQ_FRAME_PROGRESSIVE: u8 = 0x05;

/// Response kind: handshake acknowledgment.
pub const RESP_HELLO_ACK: u8 = 0x81;
/// Response kind: frame catalog.
pub const RESP_LIST: u8 = 0x82;
/// Response kind: an encoded hybrid frame.
pub const RESP_FRAME: u8 = 0x83;
/// Response kind: metrics snapshot — every counter, then every
/// histogram, each table sorted by name.
pub const RESP_STATS: u8 = 0x84;
/// Response kind: structured error reply.
pub const RESP_ERROR: u8 = 0x85;
/// Response kind: one record of a progressive frame stream. The payload
/// is an `accelviz-store` progressive record (its own header + FNV
/// trailer) inside the envelope's checksummed framing — per-chunk
/// integrity at both layers. `total` inside the record says how many
/// chunks the stream holds.
pub const RESP_FRAME_CHUNK: u8 = 0x86;

/// Error code: the request could not be understood.
pub const ERR_BAD_REQUEST: u16 = 1;
/// Error code: the requested frame index does not exist.
pub const ERR_NO_SUCH_FRAME: u16 = 2;
/// Error code: the server failed internally.
pub const ERR_INTERNAL: u16 = 3;
/// Error code: the request carried a NaN extraction threshold. (±Inf are
/// valid dials: `+Inf` serves everything — it is the catalog's own
/// unlimited-budget sentinel — and `-Inf` serves an empty extraction.)
pub const ERR_BAD_THRESHOLD: u16 = 4;
/// Error code: the server is shedding load (connection cap or in-flight
/// extraction limit reached). The message carries a retry-after hint;
/// this is the one in-band error a client should retry with backoff.
pub const ERR_BUSY: u16 = 5;

/// Largest payload a *request* envelope may declare. Every request this
/// protocol defines fits in 20 bytes ([`Request::RequestFrameProgressive`]);
/// a header claiming more is rejected before its payload is awaited, so a
/// 16-byte header can neither reserve memory nor park a session thread
/// for a read timeout.
pub const MAX_REQUEST_PAYLOAD: u64 = 64;

/// One catalog entry in a [`Response::FrameList`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FrameInfo {
    /// Frame index, the `frame` field of a [`Request::RequestFrame`].
    pub frame: u32,
    /// The simulation step the frame records.
    pub step: u64,
    /// Particles in the partitioned store behind this frame.
    pub particles: u64,
    /// The threshold the server suggests (its configured point budget).
    pub default_threshold: f64,
}

/// A client-to-server message.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Request {
    /// Opens the session; carries the client's protocol version.
    Hello {
        /// The protocol version the client speaks; below
        /// [`crate::wire::V2`] it is refused.
        version: u16,
    },
    /// Asks for the frame catalog.
    ListFrames,
    /// Asks for frame `frame` extracted at `threshold`.
    RequestFrame {
        /// Frame index from the catalog.
        frame: u32,
        /// Absolute extraction threshold (leaf density).
        threshold: f64,
    },
    /// Asks for the service's metrics snapshot.
    Stats,
    /// Asks for frame `frame` at `threshold`, streamed coarse-to-fine as
    /// [`RESP_FRAME_CHUNK`] records of roughly `chunk_bytes` each.
    RequestFrameProgressive {
        /// Frame index from the catalog.
        frame: u32,
        /// Absolute extraction threshold (leaf density).
        threshold: f64,
        /// Requested refinement-chunk size in bytes; the server clamps
        /// it (and 0 means "server default").
        chunk_bytes: u64,
    },
}

/// A server-to-client message.
// A frame is the reply that matters, moved once to its caller; boxing it
// would cost every frame an allocation to keep the rarer replies small.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Handshake accepted.
    HelloAck {
        /// The version the server speaks: always [`crate::wire::V2`].
        version: u16,
        /// Frames available.
        frame_count: u32,
    },
    /// The frame catalog.
    FrameList(Vec<FrameInfo>),
    /// One hybrid frame.
    Frame(HybridFrame),
    /// The service's metrics registry: a server's own, or a router's
    /// merged with every reachable shard's.
    Stats(Snapshot),
    /// The request failed; the connection stays usable.
    Error {
        /// One of the `ERR_*` codes.
        code: u16,
        /// Human-readable cause.
        message: String,
    },
}

/// A request declined in-band: the content of a [`Response::Error`]
/// before it is framed. The one error value both services' frame origins
/// return and the coalescing cache shares with a failed fetch's waiters.
#[derive(Clone, Debug, PartialEq)]
pub struct Refusal {
    /// One of the `ERR_*` codes.
    pub code: u16,
    /// Human-readable cause.
    pub message: String,
}

impl Refusal {
    /// A refusal with `code` and `message`.
    pub fn new(code: u16, message: impl Into<String>) -> Refusal {
        Refusal {
            code,
            message: message.into(),
        }
    }
}

impl From<Refusal> for Response {
    fn from(refusal: Refusal) -> Response {
        Response::Error {
            code: refusal.code,
            message: refusal.message,
        }
    }
}

/// Writes one request; returns wire bytes written.
pub fn write_request<W: Write>(w: &mut W, req: &Request) -> Result<u64> {
    let mut p = PayloadWriter::new();
    let kind = match req {
        Request::Hello { version } => {
            p.put_u16(*version);
            REQ_HELLO
        }
        Request::ListFrames => REQ_LIST,
        Request::RequestFrame { frame, threshold } => {
            p.put_u32(*frame);
            p.put_f64(*threshold);
            REQ_FRAME
        }
        Request::Stats => REQ_STATS,
        Request::RequestFrameProgressive {
            frame,
            threshold,
            chunk_bytes,
        } => {
            p.put_u32(*frame);
            p.put_f64(*threshold);
            p.put_u64(*chunk_bytes);
            REQ_FRAME_PROGRESSIVE
        }
    };
    write_envelope(w, kind, &p.into_bytes())
}

/// Reads one request envelope (payload bounded by
/// [`MAX_REQUEST_PAYLOAD`]) and decodes it.
pub fn read_request<R: Read>(r: &mut R) -> Result<Request> {
    let env = read_envelope_within(r, MAX_REQUEST_PAYLOAD)?;
    let mut p = PayloadReader::new(&env.payload);
    let req = match env.kind {
        REQ_HELLO => Request::Hello { version: p.u16()? },
        REQ_LIST => Request::ListFrames,
        REQ_FRAME => Request::RequestFrame {
            frame: p.u32()?,
            threshold: p.f64()?,
        },
        REQ_STATS => Request::Stats,
        REQ_FRAME_PROGRESSIVE => Request::RequestFrameProgressive {
            frame: p.u32()?,
            threshold: p.f64()?,
            chunk_bytes: p.u64()?,
        },
        other => return Err(ServeError::UnknownKind(other)),
    };
    p.finish()?;
    Ok(req)
}

/// Writes one response; returns wire bytes written. Frame payloads go
/// out compressed.
pub fn write_response<W: Write>(w: &mut W, resp: &Response) -> Result<u64> {
    let mut p = PayloadWriter::new();
    let kind = match resp {
        Response::HelloAck {
            version: ack,
            frame_count,
        } => {
            p.put_u16(*ack);
            p.put_u32(*frame_count);
            RESP_HELLO_ACK
        }
        Response::FrameList(frames) => {
            p.put_u32(frames.len() as u32);
            for f in frames {
                p.put_u32(f.frame);
                p.put_u64(f.step);
                p.put_u64(f.particles);
                p.put_f64(f.default_threshold);
            }
            RESP_LIST
        }
        Response::Frame(frame) => {
            let (payload, _raw) = encode_frame_v2(frame);
            return write_envelope(w, RESP_FRAME, &payload);
        }
        Response::Stats(snapshot) => {
            p.put_u32(snapshot.counters.len() as u32);
            for (name, &value) in &snapshot.counters {
                p.put_str(name);
                p.put_u64(value);
            }
            p.put_u32(snapshot.histograms.len() as u32);
            for (name, hist) in &snapshot.histograms {
                p.put_str(name);
                for &count in &hist.counts {
                    p.put_u64(count);
                }
            }
            RESP_STATS
        }
        Response::Error { code, message } => {
            p.put_u16(*code);
            p.put_str(message);
            RESP_ERROR
        }
    };
    write_envelope(w, kind, &p.into_bytes())
}

/// Reads one response envelope and decodes it. An in-band
/// [`Response::Error`] is returned as `Ok` — deciding whether that is
/// fatal belongs to the caller.
pub fn read_response<R: Read>(r: &mut R) -> Result<(Response, u64)> {
    let env = read_envelope(r)?;
    let wire_bytes = env.wire_bytes();
    let mut p = PayloadReader::new(&env.payload);
    let resp = match env.kind {
        RESP_HELLO_ACK => Response::HelloAck {
            version: p.u16()?,
            frame_count: p.u32()?,
        },
        RESP_LIST => {
            let n = p.u32()? as usize;
            let mut frames = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                frames.push(FrameInfo {
                    frame: p.u32()?,
                    step: p.u64()?,
                    particles: p.u64()?,
                    default_threshold: p.f64()?,
                });
            }
            Response::FrameList(frames)
        }
        RESP_FRAME => {
            let frame = decode_frame_v2(&env.payload)?;
            return Ok((Response::Frame(frame), wire_bytes));
        }
        RESP_STATS => Response::Stats(Snapshot {
            counters: read_table(&mut p, 8, PayloadReader::u64)?,
            histograms: read_table(&mut p, 8 * LATENCY_BUCKETS, |p| {
                let mut hist = LogHistogram::default();
                for count in &mut hist.counts {
                    *count = p.u64()?;
                }
                Ok(hist)
            })?,
        }),
        RESP_ERROR => Response::Error {
            code: p.u16()?,
            message: p.str()?,
        },
        other => return Err(ServeError::UnknownKind(other)),
    };
    p.finish()?;
    Ok((resp, wire_bytes))
}

/// Reads one name-sorted table of a `Stats` reply: `u32 n`, then `n` ×
/// (name, value), each value `value_bytes` long. A count the remaining
/// bytes cannot hold is refused before the first entry is read, and a
/// name not strictly after its predecessor (unsorted or repeated) is
/// corrupt: a table decodes to exactly the map that encoded it.
fn read_table<'a, T>(
    p: &mut PayloadReader<'a>,
    value_bytes: usize,
    mut value: impl FnMut(&mut PayloadReader<'a>) -> Result<T>,
) -> Result<BTreeMap<String, T>> {
    let n = p.u32()? as usize;
    // Every entry is at least a 4-byte name length and its value.
    if n > p.remaining() / (4 + value_bytes) {
        return Err(ServeError::Corrupt(format!(
            "stats table declares {n} entries, {} bytes follow",
            p.remaining()
        )));
    }
    let mut table: BTreeMap<String, T> = BTreeMap::new();
    for _ in 0..n {
        let name = p.str()?;
        if table
            .last_key_value()
            .is_some_and(|(last, _)| *last >= name)
        {
            return Err(ServeError::Corrupt(format!(
                "stats name {name:?} is out of order"
            )));
        }
        table.insert(name, value(p)?);
    }
    Ok(table)
}

/// One streamed reply to a [`Request::RequestFrameProgressive`]: either
/// the next record of the stream or the terminal in-band error (a server
/// that answers with an error sends nothing further for that request).
#[derive(Clone, Debug, PartialEq)]
pub enum ChunkReply {
    /// The next record's encoded bytes (feed to a progressive assembler).
    Chunk(Vec<u8>),
    /// The request failed; the connection stays usable.
    Error {
        /// One of the `ERR_*` codes.
        code: u16,
        /// Human-readable cause.
        message: String,
    },
}

/// Writes one progressive chunk envelope; returns wire bytes written.
pub fn write_chunk<W: Write>(w: &mut W, record: &[u8]) -> Result<u64> {
    write_envelope(w, RESP_FRAME_CHUNK, record)
}

/// Reads one reply envelope of a progressive stream; returns the reply
/// and its wire bytes. Any kind other than a chunk or an in-band error
/// means the stream lost framing and is a structured failure.
pub fn read_chunk_reply<R: Read>(r: &mut R) -> Result<(ChunkReply, u64)> {
    let env = read_envelope(r)?;
    let wire_bytes = env.wire_bytes();
    match env.kind {
        RESP_FRAME_CHUNK => Ok((ChunkReply::Chunk(env.payload), wire_bytes)),
        RESP_ERROR => {
            let mut p = PayloadReader::new(&env.payload);
            let reply = ChunkReply::Error {
                code: p.u16()?,
                message: p.str()?,
            };
            p.finish()?;
            Ok((reply, wire_bytes))
        }
        other => Err(ServeError::UnknownKind(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelviz_trace::registry::Registry;

    fn roundtrip_request(req: Request) -> Request {
        let mut buf = Vec::new();
        write_request(&mut buf, &req).unwrap();
        read_request(&mut buf.as_slice()).unwrap()
    }

    fn roundtrip_response(resp: &Response) -> Response {
        let mut buf = Vec::new();
        write_response(&mut buf, resp).unwrap();
        read_response(&mut buf.as_slice()).unwrap().0
    }

    #[test]
    fn requests_roundtrip() {
        for req in [
            Request::Hello { version: 2 },
            Request::ListFrames,
            Request::RequestFrame {
                frame: 7,
                threshold: 0.125,
            },
            Request::Stats,
            Request::RequestFrameProgressive {
                frame: 3,
                threshold: 1.5e6,
                chunk_bytes: 65_536,
            },
        ] {
            assert_eq!(roundtrip_request(req), req);
        }
    }

    #[test]
    fn chunk_replies_roundtrip_and_reject_foreign_kinds() {
        let mut buf = Vec::new();
        write_chunk(&mut buf, b"record bytes").unwrap();
        let (reply, wire) = read_chunk_reply(&mut buf.as_slice()).unwrap();
        assert_eq!(reply, ChunkReply::Chunk(b"record bytes".to_vec()));
        assert_eq!(wire as usize, buf.len());

        // An in-band error terminates the stream but stays structured.
        let mut buf = Vec::new();
        write_response(
            &mut buf,
            &Response::Error {
                code: ERR_BUSY,
                message: "retry".into(),
            },
        )
        .unwrap();
        match read_chunk_reply(&mut buf.as_slice()).unwrap().0 {
            ChunkReply::Error { code, .. } => assert_eq!(code, ERR_BUSY),
            other => panic!("expected Error, got {other:?}"),
        }

        // A whole-frame reply in a progressive stream is lost framing.
        let mut buf = Vec::new();
        write_response(
            &mut buf,
            &Response::HelloAck {
                version: 2,
                frame_count: 0,
            },
        )
        .unwrap();
        assert!(matches!(
            read_chunk_reply(&mut buf.as_slice()),
            Err(ServeError::UnknownKind(RESP_HELLO_ACK))
        ));
    }

    #[test]
    fn responses_roundtrip() {
        let list = Response::FrameList(vec![
            FrameInfo {
                frame: 0,
                step: 10,
                particles: 5_000,
                default_threshold: 0.5,
            },
            FrameInfo {
                frame: 1,
                step: 20,
                particles: 5_000,
                default_threshold: 0.25,
            },
        ]);
        for resp in [
            Response::HelloAck {
                version: 2,
                frame_count: 3,
            },
            list,
            Response::Stats(sample_snapshot()),
            Response::Stats(Snapshot::default()),
            Response::Error {
                code: ERR_NO_SUCH_FRAME,
                message: "frame 9 of 3".into(),
            },
        ] {
            assert_eq!(roundtrip_response(&resp), resp);
        }
    }

    #[test]
    fn unknown_request_kind_is_structured() {
        let mut buf = Vec::new();
        crate::wire::write_envelope(&mut buf, 0x7f, b"").unwrap();
        match read_request(&mut buf.as_slice()) {
            Err(ServeError::UnknownKind(0x7f)) => {}
            other => panic!("expected UnknownKind, got {other:?}"),
        }
    }

    /// A registry's snapshot with two counters and two histograms.
    fn sample_snapshot() -> Snapshot {
        let reg = Registry::new();
        reg.add("serve.requests", 9);
        reg.add("router.upstream_errors", u64::MAX);
        reg.record_seconds("serve.request_latency", 0.002);
        reg.record_seconds("router.upstream_latency", 60.0);
        reg.snapshot()
    }

    fn stats_envelope(payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_envelope(&mut buf, RESP_STATS, payload).unwrap();
        buf
    }

    fn stats_payload(snapshot: &Snapshot) -> Vec<u8> {
        let mut buf = Vec::new();
        write_response(&mut buf, &Response::Stats(snapshot.clone())).unwrap();
        read_envelope(&mut buf.as_slice()).unwrap().payload
    }

    fn corrupt_message(envelope: &[u8]) -> String {
        match read_response(&mut &envelope[..]) {
            Err(ServeError::Corrupt(why)) => why,
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn stats_tables_are_name_sorted_counters_then_histograms() {
        let mut w = PayloadWriter::new();
        w.put_u32(2);
        w.put_str("router.upstream_errors");
        w.put_u64(u64::MAX);
        w.put_str("serve.requests");
        w.put_u64(9);
        w.put_u32(2);
        w.put_str("router.upstream_latency");
        for count in [0, 0, 0, 0, 0, 0, 1] {
            w.put_u64(count);
        }
        w.put_str("serve.request_latency");
        for count in [0, 0, 1, 0, 0, 0, 0] {
            w.put_u64(count);
        }
        assert_eq!(stats_payload(&sample_snapshot()), w.into_bytes());
    }

    #[test]
    fn a_truncated_stats_reply_is_an_error() {
        let mut full = Vec::new();
        write_response(&mut full, &Response::Stats(sample_snapshot())).unwrap();
        for len in 0..full.len() {
            assert!(
                read_response(&mut &full[..len]).is_err(),
                "a {len}-byte prefix of {} decoded",
                full.len()
            );
        }
        // Truncated inside the payload, framed with a good checksum.
        let payload = stats_payload(&sample_snapshot());
        for len in 0..payload.len() {
            assert!(read_response(&mut stats_envelope(&payload[..len]).as_slice()).is_err());
        }
    }

    #[test]
    fn a_bit_flipped_stats_reply_is_an_error_and_a_reframed_one_never_panics() {
        let mut full = Vec::new();
        write_response(&mut full, &Response::Stats(sample_snapshot())).unwrap();
        let payload = stats_payload(&sample_snapshot());
        for bit in 0..full.len() * 8 {
            let mut flipped = full.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert!(
                read_response(&mut flipped.as_slice()).is_err(),
                "flip of bit {bit} decoded"
            );
        }
        // Past the checksum, the decoder itself: every flip decodes to an
        // error or to a snapshot that re-encodes to exactly those bytes.
        for bit in 0..payload.len() * 8 {
            let mut flipped = payload.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            if let Ok((Response::Stats(s), _)) =
                read_response(&mut stats_envelope(&flipped).as_slice())
            {
                assert_eq!(stats_payload(&s), flipped, "flip of payload bit {bit}");
            }
        }
    }

    #[test]
    fn unsorted_or_duplicate_stats_names_are_corrupt() {
        for names in [["serve.requests", "router.requests"], ["a", "a"]] {
            let mut w = PayloadWriter::new();
            w.put_u32(2);
            for name in names {
                w.put_str(name);
                w.put_u64(1);
            }
            w.put_u32(0);
            let why = corrupt_message(&stats_envelope(&w.into_bytes()));
            assert!(why.contains("out of order"), "{why}");
        }
        // The histogram table obeys the same rule.
        let mut w = PayloadWriter::new();
        w.put_u32(0);
        w.put_u32(2);
        for name in ["b", "a"] {
            w.put_str(name);
            for _ in 0..LATENCY_BUCKETS {
                w.put_u64(0);
            }
        }
        let why = corrupt_message(&stats_envelope(&w.into_bytes()));
        assert!(why.contains("out of order"), "{why}");
    }

    #[test]
    fn a_stats_count_larger_than_the_bytes_that_follow_is_corrupt() {
        // One counter entry follows, two are declared.
        let mut w = PayloadWriter::new();
        w.put_u32(2);
        w.put_str("a");
        w.put_u64(1);
        w.put_u32(0);
        let why = corrupt_message(&stats_envelope(&w.into_bytes()));
        assert!(why.contains("declares 2 entries"), "{why}");
        // A histogram count over an empty tail.
        let mut w = PayloadWriter::new();
        w.put_u32(0);
        w.put_u32(u32::MAX);
        let why = corrupt_message(&stats_envelope(&w.into_bytes()));
        assert!(why.contains("entries"), "{why}");
    }
}
