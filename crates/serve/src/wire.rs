//! The versioned, checksummed binary wire format.
//!
//! Every message travels in one *envelope*:
//!
//! ```text
//! offset size  field
//! 0      4    magic "AVWF"
//! 4      2    protocol version, little-endian u16: always `V2`
//! 6      1    message kind (see `protocol`)
//! 7      1    reserved, must be 0
//! 8      8    payload length, little-endian u64
//! 16     n    payload
//! 16+n   8    FNV-1a 64 checksum over header + payload
//! ```
//!
//! All integers are little-endian, matching the on-disk formats
//! (`accelviz-store`'s run file and `accelviz-beam::io`), and plot types
//! travel as [`PhaseCoord::code`] bytes, as node blobs store them.
//! Payload decoding is strict: trailing bytes, overruns, and out-of-range
//! enum codes are [`ServeError::Corrupt`], never panics.

use crate::error::{Result, ServeError};
use accelviz_beam::particle::{Particle, PhaseCoord};
use accelviz_core::hybrid::HybridFrame;
use accelviz_math::{Aabb, Reader};
use accelviz_octree::density::DensityGrid;
use accelviz_octree::plots::PlotType;
use accelviz_store::codec::{encode_f32s, encode_f64s, read_f32s, read_f64s};
use accelviz_store::{fnv1a64_update, Fnv1a64Sink};
use std::io::{Read, Write};
use std::ops::Range;

/// FNV-1a 64-bit hash — the envelope checksum, and the store's.
pub use accelviz_store::fnv1a64;

/// Envelope magic: "accelviz wire format".
pub const MAGIC: [u8; 4] = *b"AVWF";
/// The protocol version every envelope carries: frame payloads
/// compressed with the `accelviz-store` codecs, stats with byte counters.
pub const V2: u16 = 2;
/// Envelope header size in bytes (before the payload).
pub const HEADER_BYTES: u64 = 16;
/// Checksum trailer size in bytes (after the payload).
pub const CHECKSUM_BYTES: u64 = 8;
/// Largest payload a peer may declare: 1 GiB, comfortably above the
/// paper's ~100 MB frames but small enough to reject garbage lengths
/// before allocating.
pub const MAX_PAYLOAD: u64 = 1 << 30;
/// What [`read_envelope`] reserves for a payload up front, whatever the
/// header declares; beyond it the buffer grows as bytes arrive.
const PAYLOAD_FIRST_RESERVE: u64 = 64 << 10;

/// One framed message: its kind byte and raw payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Envelope {
    /// Message kind (request kinds are `0x0_`, responses `0x8_`).
    pub kind: u8,
    /// The message payload, still encoded.
    pub payload: Vec<u8>,
}

impl Envelope {
    /// Total bytes this envelope occupies on the wire.
    pub fn wire_bytes(&self) -> u64 {
        HEADER_BYTES + self.payload.len() as u64 + CHECKSUM_BYTES
    }
}

/// Writes one envelope at [`V2`]; returns the wire bytes written.
pub fn write_envelope<W: Write>(w: &mut W, kind: u8, payload: &[u8]) -> Result<u64> {
    write_envelope_v(w, V2, kind, payload)
}

/// Writes one envelope stamped with `version`; returns the wire bytes
/// written. Readers accept only [`V2`]: any other version is an envelope
/// the peer refuses.
pub fn write_envelope_v<W: Write>(
    w: &mut W,
    version: u16,
    kind: u8,
    payload: &[u8],
) -> Result<u64> {
    let header = envelope_header(version, kind, payload);
    write_parts(w, &header, payload, envelope_checksum(&header, payload))
}

/// The 16 header bytes of an envelope carrying `payload`.
fn envelope_header(version: u16, kind: u8, payload: &[u8]) -> [u8; 16] {
    let mut header = [0u8; 16];
    header[0..4].copy_from_slice(&MAGIC);
    header[4..6].copy_from_slice(&version.to_le_bytes());
    header[6] = kind;
    header[7] = 0;
    header[8..16].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    header
}

/// `fnv1a64(header ++ payload)`, chained without concatenating.
fn envelope_checksum(header: &[u8; 16], payload: &[u8]) -> u64 {
    fnv1a64_update(fnv1a64(header), payload)
}

fn write_parts<W: Write>(w: &mut W, header: &[u8; 16], payload: &[u8], hash: u64) -> Result<u64> {
    w.write_all(header)?;
    w.write_all(payload)?;
    w.write_all(&hash.to_le_bytes())?;
    w.flush()?;
    Ok(HEADER_BYTES + payload.len() as u64 + CHECKSUM_BYTES)
}

/// A payload framed once as a [`V2`] envelope of one kind, checksum
/// included: the form a cached reply keeps, so that every send of it is
/// a write and hashes nothing. [`Sealed::write_to`] writes exactly the
/// bytes [`write_envelope`] writes for the same kind and payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Sealed {
    header: [u8; 16],
    payload: Vec<u8>,
    checksum: u64,
}

impl Sealed {
    /// Frames `payload` as an envelope of `kind`, hashing it once.
    pub fn new(kind: u8, payload: Vec<u8>) -> Sealed {
        let header = envelope_header(V2, kind, &payload);
        let checksum = envelope_checksum(&header, &payload);
        Sealed {
            header,
            payload,
            checksum,
        }
    }

    /// The payload, as a reader of the envelope gets it.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Writes the envelope; returns the wire bytes written.
    pub fn write_to<W: Write>(&self, w: &mut W) -> Result<u64> {
        write_parts(w, &self.header, &self.payload, self.checksum)
    }
}

/// Reads exactly `buf.len()` bytes, reporting a short stream as
/// [`ServeError::Truncated`] with how far it got.
fn read_exact_or_truncated<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<()> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(ServeError::Truncated {
                    needed: (buf.len() - filled) as u64,
                    got: filled as u64,
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ServeError::Io(e)),
        }
    }
    Ok(())
}

/// Reads and validates one envelope: magic, version ([`V2`] only),
/// length bound, and checksum, in that order.
pub fn read_envelope<R: Read>(r: &mut R) -> Result<Envelope> {
    read_envelope_within(r, MAX_PAYLOAD)
}

/// [`read_envelope`] with a caller-chosen payload bound: a header that
/// declares more than `max_payload` bytes is [`ServeError::Corrupt`]
/// before a single payload byte is read. The server side reads requests
/// through this with a request-sized bound
/// ([`crate::protocol::MAX_REQUEST_PAYLOAD`]).
pub fn read_envelope_within<R: Read>(r: &mut R, max_payload: u64) -> Result<Envelope> {
    let mut header = [0u8; 16];
    read_exact_or_truncated(r, &mut header)?;
    let mut h = Reader::new(&header);
    let magic = h.array()?;
    if magic != MAGIC {
        return Err(ServeError::BadMagic(magic));
    }
    let version = h.u16()?;
    if version != V2 {
        return Err(ServeError::UnsupportedVersion(version));
    }
    let kind = h.u8()?;
    h.u8()?; // reserved
    let len = h.u64()?;
    if len > max_payload {
        return Err(ServeError::Corrupt(format!(
            "declared payload of {len} bytes exceeds the {max_payload} limit"
        )));
    }

    // The declared length is the peer's claim, not yet its bytes: the
    // buffer grows with what actually arrives, so a 16-byte header
    // cannot buy a gigabyte of zeroed memory.
    let mut payload = Vec::with_capacity(len.min(PAYLOAD_FIRST_RESERVE) as usize);
    let got = r.by_ref().take(len).read_to_end(&mut payload)? as u64;
    if got < len {
        return Err(ServeError::Truncated {
            needed: len - got,
            got,
        });
    }
    let mut trailer = [0u8; 8];
    read_exact_or_truncated(r, &mut trailer)?;
    let expected = Reader::new(&trailer).u64()?;

    let actual = fnv1a64_update(fnv1a64(&header), &payload);
    if actual != expected {
        return Err(ServeError::ChecksumMismatch { expected, actual });
    }
    Ok(Envelope { kind, payload })
}

/// Where a [`PayloadWriter`]'s bytes go.
pub trait PayloadSink {
    /// Appends `bytes`.
    fn put(&mut self, bytes: &[u8]);
}

/// The payload itself.
impl PayloadSink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// Only the payload's length and FNV-1a 64: a digest of bytes never held.
impl PayloadSink for Fnv1a64Sink {
    fn put(&mut self, bytes: &[u8]) {
        self.write(bytes);
    }
}

/// Little-endian payload builder, over a buffer by default or any
/// [`PayloadSink`].
#[derive(Default)]
pub struct PayloadWriter<S = Vec<u8>> {
    sink: S,
}

impl PayloadWriter {
    /// An empty payload.
    pub fn new() -> PayloadWriter {
        PayloadWriter::default()
    }

    /// The finished payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.sink
    }
}

/// Values per batch in [`PayloadWriter::put_f32s`] and
/// [`PayloadWriter::put_f64s`].
const PUT_BATCH: usize = 128;

impl<S: PayloadSink> PayloadWriter<S> {
    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.sink.put(&[v]);
    }

    /// Appends a `u16`, little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.sink.put(&v.to_le_bytes());
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.sink.put(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.sink.put(&v.to_le_bytes());
    }

    /// Appends an `f32`, little-endian.
    pub fn put_f32(&mut self, v: f32) {
        self.sink.put(&v.to_le_bytes());
    }

    /// Appends an `f64`, little-endian.
    pub fn put_f64(&mut self, v: f64) {
        self.sink.put(&v.to_le_bytes());
    }

    /// Appends `f32`s, little-endian: the bytes of a [`put_f32`] per
    /// value, handed to the sink a batch at a time.
    ///
    /// [`put_f32`]: PayloadWriter::put_f32
    pub(crate) fn put_f32s(&mut self, vs: &[f32]) {
        let mut batch = [0u8; 4 * PUT_BATCH];
        for chunk in vs.chunks(PUT_BATCH) {
            for (b, v) in batch.chunks_exact_mut(4).zip(chunk) {
                b.copy_from_slice(&v.to_le_bytes());
            }
            self.sink.put(&batch[..4 * chunk.len()]);
        }
    }

    /// Appends `f64`s, little-endian: the bytes of a [`put_f64`] per
    /// value, handed to the sink a batch at a time.
    ///
    /// [`put_f64`]: PayloadWriter::put_f64
    pub(crate) fn put_f64s(&mut self, vs: &[f64]) {
        let mut batch = [0u8; 8 * PUT_BATCH];
        for chunk in vs.chunks(PUT_BATCH) {
            for (b, v) in batch.chunks_exact_mut(8).zip(chunk) {
                b.copy_from_slice(&v.to_le_bytes());
            }
            self.sink.put(&batch[..8 * chunk.len()]);
        }
    }

    /// Length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.sink.put(s.as_bytes());
    }

    /// Appends pre-encoded bytes verbatim (self-describing codec blocks).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.sink.put(bytes);
    }
}

/// The payload cursor: [`accelviz_math::Reader`], whose overruns and
/// leftover bytes are [`ServeError::Corrupt`].
pub use accelviz_math::Reader as PayloadReader;

/// Reads a length-prefixed UTF-8 string.
pub(crate) fn read_str(r: &mut Reader<'_>) -> Result<String> {
    let len = r.u32()? as usize;
    String::from_utf8(r.take(len)?.to_vec())
        .map_err(|_| ServeError::Corrupt("string is not UTF-8".into()))
}

fn put_aabb<S: PayloadSink>(w: &mut PayloadWriter<S>, b: &Aabb) {
    for v in [b.min, b.max] {
        w.put_f64(v.x);
        w.put_f64(v.y);
        w.put_f64(v.z);
    }
}

// The frame codec. A hybrid frame goes out in three shapes — the v1
// payload (the trailer's hash input), the v2 payload, and the progressive
// records — and all three are sequences of the pieces below: a header,
// point columns, a grid, and the trailer that proves the decoded frame.

/// The fields every encoding of a frame opens with: step, plot codes,
/// bounds, threshold, discarded, and the point count.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FrameHeader {
    step: usize,
    plot: PlotType,
    bounds: Aabb,
    threshold: f64,
    discarded: u64,
    /// Points the whole frame holds.
    pub(crate) points: usize,
}

impl FrameHeader {
    /// Writes `frame`'s header.
    pub(crate) fn put<S: PayloadSink>(w: &mut PayloadWriter<S>, frame: &HybridFrame) {
        w.put_u64(frame.step as u64);
        for c in frame.plot.coords {
            w.put_u8(c.code());
        }
        put_aabb(w, &frame.bounds);
        w.put_f64(frame.threshold);
        w.put_u64(frame.discarded);
        w.put_u64(frame.points.len() as u64);
    }

    /// Reads a header. A compressed payload can be far smaller than the
    /// points it carries, so the point count is capped by what the
    /// *decoded* frame could occupy, not by the bytes left.
    pub(crate) fn read(r: &mut Reader<'_>) -> Result<FrameHeader> {
        let step = r.u64()? as usize;
        let plot = PlotType {
            coords: PhaseCoord::read_axes(r, |b| {
                ServeError::Corrupt(format!("invalid phase-coord code {b}"))
            })?,
        };
        let bounds = Aabb::read(r)?;
        let threshold = r.f64()?;
        let discarded = r.u64()?;
        let points = r.u64()?;
        if points > MAX_PAYLOAD / 48 {
            return Err(ServeError::Corrupt(format!(
                "declared point count {points} exceeds the decoded-payload limit"
            )));
        }
        Ok(FrameHeader {
            step,
            plot,
            bounds,
            threshold,
            discarded,
            points: points as usize,
        })
    }

    /// The frame this header opens, around its points and grid.
    pub(crate) fn frame(
        &self,
        points: Vec<Particle>,
        point_densities: Vec<f64>,
        grid: DensityGrid,
    ) -> HybridFrame {
        HybridFrame {
            step: self.step,
            plot: self.plot,
            bounds: self.bounds,
            points,
            point_densities,
            grid,
            threshold: self.threshold,
            discarded: self.discarded,
        }
    }
}

/// Writes points `range` of `frame` column by column: the six coordinate
/// columns, then the densities, each one `f64` codec block.
pub(crate) fn put_columns(w: &mut PayloadWriter, frame: &HybridFrame, range: Range<usize>) {
    let points = &frame.points[range.clone()];
    let mut col = vec![0.0f64; points.len()];
    for c in 0..6 {
        for (slot, p) in col.iter_mut().zip(points) {
            *slot = p.to_array()[c];
        }
        w.put_bytes(&encode_f64s(&col));
    }
    w.put_bytes(&encode_f64s(&frame.point_densities[range]));
}

/// Reads the column blocks of points `[start, start + len)` of a frame
/// of `total` points, written by [`put_columns`]. A range that does not
/// fit in `total` is refused before any block is decoded.
pub(crate) fn read_columns(
    r: &mut Reader<'_>,
    start: usize,
    len: usize,
    total: usize,
) -> Result<(Vec<Particle>, Vec<f64>)> {
    if start.checked_add(len).is_none_or(|end| end > total) {
        return Err(ServeError::Corrupt(format!(
            "point range of {len} from {start} exceeds the declared {total} points"
        )));
    }
    let mut cols = Vec::with_capacity(6);
    for _ in 0..6 {
        cols.push(read_f64s(r, len)?);
    }
    let densities = read_f64s(r, len)?;
    let points = (0..len)
        .map(|i| {
            Particle::from_array([
                cols[0][i], cols[1][i], cols[2][i], cols[3][i], cols[4][i], cols[5][i],
            ])
        })
        .collect();
    Ok((points, densities))
}

/// How a grid's cells follow its dims and bounds.
#[derive(Clone, Copy)]
pub(crate) enum Cells {
    /// One raw little-endian `f32` per cell (the v1 payload).
    Raw,
    /// One `f32` codec block (the v2 payload and the progressive records).
    Packed,
}

/// Writes a grid: dims, bounds, then its cells as `cells` says.
pub(crate) fn put_grid<S: PayloadSink>(w: &mut PayloadWriter<S>, grid: &DensityGrid, cells: Cells) {
    for d in grid.dims() {
        w.put_u64(d as u64);
    }
    put_aabb(w, grid.bounds());
    match cells {
        Cells::Raw => w.put_f32s(grid.data()),
        Cells::Packed => w.put_bytes(&encode_f32s(grid.data())),
    }
}

/// Reads a grid written by [`put_grid`]. The cell count is capped by what
/// the decoded grid could occupy before anything is sized from it.
pub(crate) fn read_grid(r: &mut Reader<'_>, cells: Cells) -> Result<DensityGrid> {
    let dims = [r.u64()? as usize, r.u64()? as usize, r.u64()? as usize];
    if dims.contains(&0) {
        return Err(ServeError::Corrupt("grid dims must be positive".into()));
    }
    let n_cells = dims[0]
        .checked_mul(dims[1])
        .and_then(|n| n.checked_mul(dims[2]))
        .filter(|&n| n as u64 <= MAX_PAYLOAD / 4)
        .ok_or_else(|| {
            ServeError::Corrupt(format!(
                "declared grid {dims:?} exceeds the decoded-payload limit"
            ))
        })?;
    let bounds = Aabb::read(r)?;
    let data = match cells {
        Cells::Raw => r.f32s(n_cells as u64)?,
        Cells::Packed => read_f32s(r, n_cells)?,
    };
    Ok(DensityGrid::from_raw(bounds, dims, data))
}

/// `(length, FNV-1a 64)` of `frame`'s v1 encoding, streamed through
/// [`put_v1`] into a digest: `fnv1a64(&encode_frame(frame))` without the
/// buffer.
fn v1_digest(frame: &HybridFrame) -> (u64, u64) {
    let mut w = PayloadWriter::<Fnv1a64Sink>::default();
    put_v1(&mut w, frame);
    w.sink.finish()
}

/// Writes the trailer: the length and FNV-1a 64 of `frame`'s v1
/// encoding. Returns that length.
pub(crate) fn put_trailer(w: &mut PayloadWriter, frame: &HybridFrame) -> u64 {
    let (raw_len, raw_fnv) = v1_digest(frame);
    w.put_u64(raw_len);
    w.put_u64(raw_fnv);
    raw_len
}

/// Reads a trailer and checks `frame` against it: the decoded frame's v1
/// encoding must be exactly the bytes the encoder hashed, so a codec or
/// splice defect fails loudly instead of rendering subtly wrong.
pub(crate) fn verify_trailer(r: &mut Reader<'_>, frame: &HybridFrame) -> Result<()> {
    let raw_len = r.u64()?;
    let raw_fnv = r.u64()?;
    let (len, fnv) = v1_digest(frame);
    if len != raw_len || fnv != raw_fnv {
        return Err(ServeError::Corrupt(format!(
            "frame re-encodes to {len} bytes (fnv {fnv:#018x}), trailer promised {raw_len} \
             (fnv {raw_fnv:#018x})"
        )));
    }
    Ok(())
}

/// The v1 layout, written once for both of its consumers: the header,
/// every point as six raw `f64`s, the raw `f64` densities, and the grid
/// with raw cells.
fn put_v1<S: PayloadSink>(w: &mut PayloadWriter<S>, frame: &HybridFrame) {
    FrameHeader::put(w, frame);
    for p in &frame.points {
        w.put_f64s(&p.to_array());
    }
    w.put_f64s(&frame.point_densities);
    put_grid(w, &frame.grid, Cells::Raw);
}

/// Encodes a [`HybridFrame`] as the v1 payload: the header, every point
/// as six raw `f64`s, the raw `f64` densities, and the grid with raw
/// cells. No session sends it; it is what the v2 trailer hashes.
pub fn encode_frame(frame: &HybridFrame) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    put_v1(&mut w, frame);
    w.into_bytes()
}

/// Decodes a v1 payload. The result compares equal (bit-identical
/// fields) to the frame that was encoded.
pub fn decode_frame(payload: &[u8]) -> Result<HybridFrame> {
    let mut r = Reader::new(payload);
    let header = FrameHeader::read(&mut r)?;
    let n = header.points as u64;
    let points = r.records(n, Particle::from_le_bytes)?;
    let point_densities = r.f64s(n)?;
    let grid = read_grid(&mut r, Cells::Raw)?;
    r.finish()?;
    Ok(header.frame(points, point_densities, grid))
}

/// Encodes a [`HybridFrame`] as the AVWF v2 compressed payload.
///
/// Layout: the frame header (step, plot codes, bounds, threshold,
/// discarded, point count), seven self-describing codec blocks (six
/// `f64` point columns and the point densities), the grid dims and
/// bounds, one `f32` codec block for the grid cells — delta-varint with
/// runs of repeated cells as one token, so a grid costs what it holds
/// rather than a byte per cell — and finally the trailer: length and FNV-1a 64 of the frame's *v1 encoding*. The
/// trailer is over the decoded content, not the compressed bytes:
/// [`decode_frame_v2`] re-encodes what it decoded and must land on these
/// exact bytes, so any codec defect is caught end-to-end rather than
/// trusted.
///
/// Returns `(payload, raw_len)` where `raw_len` is the size the same
/// frame occupies under [`encode_frame`] — the numerator of the
/// compression ratio the server's stats report.
pub fn encode_frame_v2(frame: &HybridFrame) -> (Vec<u8>, u64) {
    let mut w = PayloadWriter::new();
    FrameHeader::put(&mut w, frame);
    put_columns(&mut w, frame, 0..frame.points.len());
    put_grid(&mut w, &frame.grid, Cells::Packed);
    let raw_len = put_trailer(&mut w, frame);
    (w.into_bytes(), raw_len)
}

/// Decodes an AVWF v2 frame payload, then verifies it against its
/// trailer.
pub fn decode_frame_v2(payload: &[u8]) -> Result<HybridFrame> {
    let mut r = Reader::new(payload);
    let header = FrameHeader::read(&mut r)?;
    let (points, point_densities) = read_columns(&mut r, 0, header.points, header.points)?;
    let grid = read_grid(&mut r, Cells::Packed)?;
    let frame = header.frame(points, point_densities, grid);
    verify_trailer(&mut r, &frame)?;
    r.finish()?;
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelviz_math::Vec3;

    #[test]
    fn envelope_roundtrips() {
        let mut buf = Vec::new();
        let n = write_envelope(&mut buf, 0x03, b"hello payload").unwrap();
        assert_eq!(n as usize, buf.len());
        let env = read_envelope(&mut buf.as_slice()).unwrap();
        assert_eq!(env.kind, 0x03);
        assert_eq!(env.payload, b"hello payload");
        assert_eq!(env.wire_bytes(), n);
    }

    #[test]
    fn empty_payload_roundtrips() {
        let mut buf = Vec::new();
        write_envelope(&mut buf, 0x01, b"").unwrap();
        let env = read_envelope(&mut buf.as_slice()).unwrap();
        assert_eq!(env.kind, 0x01);
        assert!(env.payload.is_empty());
    }

    #[test]
    fn oversized_declared_length_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        write_envelope(&mut buf, 0x01, b"x").unwrap();
        buf[8..16].copy_from_slice(&(u64::MAX).to_le_bytes());
        match read_envelope(&mut buf.as_slice()) {
            Err(ServeError::Corrupt(msg)) => assert!(msg.contains("limit"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn payload_reader_rejects_overrun_and_trailing() {
        let mut r = PayloadReader::new(&[1, 2, 3]);
        assert_eq!(r.u8().unwrap(), 1);
        match ServeError::from(r.u64().unwrap_err()) {
            ServeError::Corrupt(msg) => assert!(msg.contains("payload overrun"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        match ServeError::from(PayloadReader::new(&[1, 2, 3]).finish().unwrap_err()) {
            ServeError::Corrupt(msg) => assert!(msg.contains("3 trailing bytes"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn strings_roundtrip() {
        let mut w = PayloadWriter::new();
        w.put_str("x–px–y"); // non-ASCII on purpose
        let bytes = w.into_bytes();
        let mut r = PayloadReader::new(&bytes);
        assert_eq!(read_str(&mut r).unwrap(), "x–px–y");
        r.finish().unwrap();
    }

    #[test]
    fn only_v2_envelopes_are_read() {
        let mut buf = Vec::new();
        write_envelope(&mut buf, 0x03, b"payload").unwrap();
        assert_eq!(PayloadReader::new(&buf[4..6]).u16().unwrap(), V2);
        for bad in [0u16, 1, V2 + 1, 99] {
            let mut buf = Vec::new();
            write_envelope_v(&mut buf, bad, 0x01, b"x").unwrap();
            match read_envelope(&mut buf.as_slice()) {
                Err(ServeError::UnsupportedVersion(v)) => assert_eq!(v, bad),
                other => panic!("version {bad} gave {other:?}"),
            }
        }
    }

    fn sample_frame(n_points: usize) -> HybridFrame {
        let bounds = Aabb {
            min: Vec3::new(-1.0, -2.0, -3.0),
            max: Vec3::new(1.0, 2.0, 3.0),
        };
        let points: Vec<Particle> = (0..n_points)
            .map(|i| {
                let t = i as f64 * 0.37;
                Particle::from_array([t.sin(), t.cos() * 1e-3, -t.sin(), t * 1e-4, t, -t])
            })
            .collect();
        let point_densities: Vec<f64> = (0..n_points).map(|i| 1.0 + i as f64).collect();
        let dims = [8, 8, 8];
        // A mostly-zero count grid, like real binned density volumes.
        let mut cells = vec![0.0f32; 512];
        for (i, c) in cells.iter_mut().enumerate().step_by(17) {
            *c = (i % 40) as f32;
        }
        HybridFrame {
            step: 11,
            plot: PlotType::X_PX_Y,
            bounds,
            points,
            point_densities,
            grid: DensityGrid::from_raw(bounds, dims, cells),
            threshold: 2.5,
            discarded: 940,
        }
    }

    #[test]
    fn v2_frames_roundtrip_bit_identically_and_compress() {
        let frame = sample_frame(100);
        let (payload, raw_len) = encode_frame_v2(&frame);
        assert_eq!(raw_len as usize, encode_frame(&frame).len());
        assert!(
            (payload.len() as u64) < raw_len,
            "v2 payload of {} B did not beat the raw {} B",
            payload.len(),
            raw_len
        );
        let decoded = decode_frame_v2(&payload).unwrap();
        assert_eq!(decoded, frame);
    }

    #[test]
    fn a_negative_zero_cell_survives_a_v2_roundtrip() {
        // Among integral cells, `-0.0` once decoded as `+0.0`: the frame
        // then failed its own trailer on every client.
        let mut frame = sample_frame(10);
        let mut cells = frame.grid.data().to_vec();
        cells[3] = -0.0;
        frame.grid = DensityGrid::from_raw(frame.bounds, [8, 8, 8], cells);
        let (payload, _) = encode_frame_v2(&frame);
        let decoded = decode_frame_v2(&payload).unwrap();
        assert_eq!(decoded.grid.data()[3].to_bits(), (-0.0f32).to_bits());
        assert_eq!(encode_frame(&decoded), encode_frame(&frame));
    }

    #[test]
    fn the_v1_digest_is_the_hash_of_the_v1_bytes() {
        let mut empty = sample_frame(0);
        empty.grid = DensityGrid::from_raw(empty.bounds, [1, 1, 1], vec![0.0]);
        let mut dense = sample_frame(300);
        dense.grid = DensityGrid::from_raw(dense.bounds, [8, 8, 8], vec![3.5; 512]);
        for frame in [
            sample_frame(0),
            sample_frame(1),
            sample_frame(257),
            empty,
            dense,
        ] {
            let raw = encode_frame(&frame);
            assert_eq!(v1_digest(&frame), (raw.len() as u64, fnv1a64(&raw)));
        }
    }

    #[test]
    fn v2_empty_frame_roundtrips() {
        let mut frame = sample_frame(0);
        frame.grid = DensityGrid::from_raw(frame.bounds, [1, 1, 1], vec![0.0]);
        let (payload, _) = encode_frame_v2(&frame);
        assert_eq!(decode_frame_v2(&payload).unwrap(), frame);
    }
}
