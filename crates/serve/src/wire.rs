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
//! 16+n   8    checksum: FNV-1a 64 over the header's 16 bytes, chained
//!             on over the 8 little-endian bytes of fnv1a64_lanes(payload)
//! ```
//!
//! `fnv1a64_lanes` (from `accelviz-store`) cuts the payload into four
//! quarters of `⌈n/4⌉` bytes, hashes them side by side as four FNV-1a 64
//! chains, and returns FNV-1a 64 of the four hashes' little-endian bytes:
//! one pass at four bytes per multiply latency instead of one.
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
use accelviz_store::{fnv1a64_cell_lanes, fnv1a64_lanes, fnv1a64_update, fnv1a64_x4_update};
use std::io::{IoSlice, Read, Write};
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
/// What [`read_sealed`] reserves for a payload up front, whatever the
/// header declares; beyond it the buffer grows as bytes arrive.
const PAYLOAD_FIRST_RESERVE: u64 = 64 << 10;

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

/// The envelope checksum: [`fnv1a64`] of the header, chained on over the
/// little-endian bytes of the payload's [`fnv1a64_lanes`].
fn envelope_checksum(header: &[u8; 16], payload: &[u8]) -> u64 {
    fnv1a64_update(fnv1a64(header), &fnv1a64_lanes(payload).to_le_bytes())
}

/// Writes header, payload and checksum as one vectored write, looping
/// over partial writes: on a `TCP_NODELAY` socket one envelope is then
/// one syscall, not three.
fn write_parts<W: Write>(w: &mut W, header: &[u8; 16], payload: &[u8], hash: u64) -> Result<u64> {
    let checksum = hash.to_le_bytes();
    let mut parts = [
        IoSlice::new(header),
        IoSlice::new(payload),
        IoSlice::new(&checksum),
    ];
    let mut left = &mut parts[..];
    while !left.is_empty() {
        match w.write_vectored(left) {
            Ok(0) => return Err(std::io::Error::from(std::io::ErrorKind::WriteZero).into()),
            Ok(n) => IoSlice::advance_slices(&mut left, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    w.flush()?;
    Ok(HEADER_BYTES + payload.len() as u64 + CHECKSUM_BYTES)
}

/// A payload framed once as a [`V2`] envelope of one kind, checksum
/// included: the form a cached reply keeps, so that every send of it is
/// a write and hashes nothing. [`Sealed::write_to`] writes exactly the
/// bytes [`write_envelope`] writes for the same kind and payload — or,
/// for an envelope [`read_sealed`] read, exactly the bytes it read.
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

    /// The payload, kept and no longer framed.
    pub fn into_payload(self) -> Vec<u8> {
        self.payload
    }

    /// The message kind.
    pub fn kind(&self) -> u8 {
        self.header[6]
    }

    /// Total bytes this envelope occupies on the wire.
    pub fn wire_bytes(&self) -> u64 {
        HEADER_BYTES + self.payload.len() as u64 + CHECKSUM_BYTES
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

/// [`read_sealed`] at the largest payload any peer may declare,
/// [`MAX_PAYLOAD`].
pub fn read_envelope<R: Read>(r: &mut R) -> Result<Sealed> {
    read_sealed(r, MAX_PAYLOAD)
}

/// The one envelope reader: reads and validates one envelope — magic,
/// version ([`V2`] only), `max_payload` bound, and checksum, in that
/// order — and keeps it as read, checksum included, so that writing it
/// on ([`Sealed::write_to`]) is a copy that hashes nothing. A header that
/// declares more than `max_payload` bytes is [`ServeError::Corrupt`]
/// before a single payload byte is read.
pub fn read_sealed<R: Read>(r: &mut R, max_payload: u64) -> Result<Sealed> {
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
    h.u8()?; // kind: any byte frames; the protocol judges it
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

    let actual = envelope_checksum(&header, &payload);
    if actual != expected {
        return Err(ServeError::ChecksumMismatch { expected, actual });
    }
    Ok(Sealed {
        header,
        payload,
        checksum: expected,
    })
}

/// Little-endian payload builder.
#[derive(Default)]
pub struct PayloadWriter {
    buf: Vec<u8>,
}

/// Values per batch in [`PayloadWriter::put_f32s`] and
/// [`PayloadWriter::put_f64s`].
const PUT_BATCH: usize = 128;

impl PayloadWriter {
    /// An empty payload.
    pub fn new() -> PayloadWriter {
        PayloadWriter::default()
    }

    /// The finished payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16`, little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f32`, little-endian.
    pub fn put_f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64`, little-endian.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends `f32`s, little-endian: the bytes of a [`put_f32`] per
    /// value, staged and appended a batch at a time.
    ///
    /// [`put_f32`]: PayloadWriter::put_f32
    pub(crate) fn put_f32s(&mut self, vs: &[f32]) {
        let mut batch = [0u8; 4 * PUT_BATCH];
        for chunk in vs.chunks(PUT_BATCH) {
            for (b, v) in batch.chunks_exact_mut(4).zip(chunk) {
                b.copy_from_slice(&v.to_le_bytes());
            }
            self.buf.extend_from_slice(&batch[..4 * chunk.len()]);
        }
    }

    /// Appends `f64`s, little-endian: the bytes of a [`put_f64`] per
    /// value, staged and appended a batch at a time.
    ///
    /// [`put_f64`]: PayloadWriter::put_f64
    pub(crate) fn put_f64s(&mut self, vs: &[f64]) {
        let mut batch = [0u8; 8 * PUT_BATCH];
        for chunk in vs.chunks(PUT_BATCH) {
            for (b, v) in batch.chunks_exact_mut(8).zip(chunk) {
                b.copy_from_slice(&v.to_le_bytes());
            }
            self.buf.extend_from_slice(&batch[..8 * chunk.len()]);
        }
    }

    /// Length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends pre-encoded bytes verbatim (self-describing codec blocks).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
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

fn put_aabb(w: &mut PayloadWriter, b: &Aabb) {
    for v in [b.min, b.max] {
        w.put_f64(v.x);
        w.put_f64(v.y);
        w.put_f64(v.z);
    }
}

// The frame codec. A hybrid frame goes out in three shapes — the v1
// payload, the v2 payload, and the progressive records — and all three
// are sequences of the pieces below: a header, point columns, a grid, and
// (v2 and progressive) the trailer that proves the decoded frame.

/// Bytes of the header [`FrameHeader::put`] writes: step, three plot
/// codes, bounds, threshold, discarded, point count.
const HEADER_BYTES_V1: u64 = 8 + 3 + 48 + 8 + 8 + 8;
/// Bytes of a grid's dims and bounds.
const GRID_HEAD_BYTES: u64 = 24 + 48;
/// Bytes of one point in the v1 payload: six `f64` coordinates and its
/// `f64` density.
const POINT_BYTES_V1: u64 = 56;

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
    /// `frame`'s header.
    pub(crate) fn of(frame: &HybridFrame) -> FrameHeader {
        FrameHeader {
            step: frame.step,
            plot: frame.plot,
            bounds: frame.bounds,
            threshold: frame.threshold,
            discarded: frame.discarded,
            points: frame.points.len(),
        }
    }

    /// Writes the header.
    pub(crate) fn put(&self, w: &mut PayloadWriter) {
        w.put_u64(self.step as u64);
        for c in self.plot.coords {
            w.put_u8(c.code());
        }
        put_aabb(w, &self.bounds);
        w.put_f64(self.threshold);
        w.put_u64(self.discarded);
        w.put_u64(self.points as u64);
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

/// The trailer's column lanes: one FNV-1a 64 chain per column — the six
/// coordinates, then the densities — over the little-endian bytes of
/// every point so far. A column cut into progressive slices continues
/// its chain slice by slice, so a frame's chains do not depend on how
/// it was cut.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ColumnChains([u64; 7]);

impl Default for ColumnChains {
    fn default() -> ColumnChains {
        ColumnChains([fnv1a64(&[]); 7])
    }
}

impl ColumnChains {
    /// Continues the chains over the next points, four columns at a time
    /// ([`fnv1a64_x4_update`]). The spare fourth lane of the second group
    /// repeats the densities, since an empty lane would leave the other
    /// three to run one at a time, and its hash is dropped.
    fn extend(&mut self, coords: &[Vec<f64>; 6], densities: &[f64]) {
        let h = &mut self.0;
        let [x, px, y, py, z, pz] = coords.each_ref().map(Vec::as_slice);
        let first = fnv1a64_x4_update([h[0], h[1], h[2], h[3]], [x, px, y, py]);
        let second = fnv1a64_x4_update([h[4], h[5], h[6], h[6]], [z, pz, densities, densities]);
        h[..4].copy_from_slice(&first);
        h[4..].copy_from_slice(&second[..3]);
    }
}

/// Writes points `range` of `frame` column by column: the six coordinate
/// columns, then the densities, each one `f64` codec block. `columns`
/// goes on over the same points while each column is in hand.
pub(crate) fn put_columns(
    w: &mut PayloadWriter,
    frame: &HybridFrame,
    range: Range<usize>,
    columns: &mut ColumnChains,
) {
    let points = &frame.points[range.clone()];
    let coords: [Vec<f64>; 6] =
        std::array::from_fn(|c| points.iter().map(|p| p.to_array()[c]).collect());
    let densities = &frame.point_densities[range];
    for col in &coords {
        w.put_bytes(&encode_f64s(col));
    }
    w.put_bytes(&encode_f64s(densities));
    columns.extend(&coords, densities);
}

/// Reads the column blocks of points `[start, start + len)` of a frame
/// of `total` points, written by [`put_columns`], and goes on with
/// `columns` over them. A range that does not fit in `total` is refused
/// before any block is decoded.
pub(crate) fn read_columns(
    r: &mut Reader<'_>,
    start: usize,
    len: usize,
    total: usize,
    columns: &mut ColumnChains,
) -> Result<(Vec<Particle>, Vec<f64>)> {
    if start.checked_add(len).is_none_or(|end| end > total) {
        return Err(ServeError::Corrupt(format!(
            "point range of {len} from {start} exceeds the declared {total} points"
        )));
    }
    let mut coords: [Vec<f64>; 6] = Default::default();
    for col in &mut coords {
        *col = read_f64s(r, len)?;
    }
    let densities = read_f64s(r, len)?;
    columns.extend(&coords, &densities);
    let [x, px, y, py, z, pz] = &coords;
    let points = (0..len)
        .map(|i| Particle::from_array([x[i], px[i], y[i], py[i], z[i], pz[i]]))
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

/// Writes a grid's dims and bounds.
fn put_grid_head(w: &mut PayloadWriter, grid: &DensityGrid) {
    for d in grid.dims() {
        w.put_u64(d as u64);
    }
    put_aabb(w, grid.bounds());
}

/// Writes a grid: dims, bounds, then its cells as `cells` says.
pub(crate) fn put_grid(w: &mut PayloadWriter, grid: &DensityGrid, cells: Cells) {
    put_grid_head(w, grid);
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

/// The trailer's two words for a frame of `header`, column chains
/// `columns` and `grid`: the length of the frame's v1 encoding, counted
/// from its points and cells, and FNV-1a 64 over the little-endian bytes
/// of twelve lane hashes taken from the frame's own data — [`fnv1a64`]
/// of the header with the grid's dims and bounds, the seven column
/// chains, and the grid's four [`fnv1a64_cell_lanes`].
fn trailer(header: &FrameHeader, columns: &ColumnChains, grid: &DensityGrid) -> (u64, u64) {
    let mut head = PayloadWriter::new();
    header.put(&mut head);
    put_grid_head(&mut head, grid);
    let mut lanes = PayloadWriter::new();
    lanes.put_u64(fnv1a64(&head.into_bytes()));
    for hash in columns.0.into_iter().chain(fnv1a64_cell_lanes(grid.data())) {
        lanes.put_u64(hash);
    }
    let cells = grid.data().len() as u64;
    let raw_len =
        HEADER_BYTES_V1 + POINT_BYTES_V1 * header.points as u64 + GRID_HEAD_BYTES + 4 * cells;
    (raw_len, fnv1a64(&lanes.into_bytes()))
}

/// Writes the trailer of the frame `header`, `columns` and `grid`
/// describe (see [`encode_frame_v2`]). Returns its v1 length.
pub(crate) fn put_trailer(
    w: &mut PayloadWriter,
    header: &FrameHeader,
    columns: &ColumnChains,
    grid: &DensityGrid,
) -> u64 {
    let (raw_len, hash) = trailer(header, columns, grid);
    w.put_u64(raw_len);
    w.put_u64(hash);
    raw_len
}

/// Reads a trailer and checks the decoded frame against it: the decoder
/// must hold exactly what the encoder held, so a codec or splice defect
/// fails loudly instead of rendering subtly wrong.
pub(crate) fn verify_trailer(
    r: &mut Reader<'_>,
    header: &FrameHeader,
    columns: &ColumnChains,
    grid: &DensityGrid,
) -> Result<()> {
    let raw_len = r.u64()?;
    let raw_hash = r.u64()?;
    let (len, hash) = trailer(header, columns, grid);
    if (len, hash) != (raw_len, raw_hash) {
        return Err(ServeError::Corrupt(format!(
            "frame digests to {len} bytes (hash {hash:#018x}), trailer promised {raw_len} \
             (hash {raw_hash:#018x})"
        )));
    }
    Ok(())
}

/// Encodes a [`HybridFrame`] as the v1 payload: the header, every point
/// as six raw `f64`s, the raw `f64` densities, and the grid with raw
/// cells. No session sends it; its length is what the v2 trailer
/// promises, and the compression ratio's numerator.
pub fn encode_frame(frame: &HybridFrame) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    FrameHeader::of(frame).put(&mut w);
    for p in &frame.points {
        w.put_f64s(&p.to_array());
    }
    w.put_f64s(&frame.point_densities);
    put_grid(&mut w, &frame.grid, Cells::Raw);
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
/// Layout:
/// - the frame header: step, plot codes, bounds, threshold, discarded,
///   point count;
/// - seven self-describing codec blocks: six `f64` point columns and the
///   point densities;
/// - the grid's dims and bounds, then one `f32` codec block for its
///   cells — delta-varint with runs of repeated cells as one token, so a
///   grid costs what it holds rather than a byte per cell;
/// - the 16-byte trailer: the length of the frame's [`encode_frame`]
///   encoding, counted from its points and cells, and FNV-1a 64 over the
///   little-endian bytes of twelve lane hashes: [`fnv1a64`] of the header
///   with the grid's dims and bounds (the v1 bytes that are neither
///   points nor cells), one FNV-1a 64 per column over its little-endian
///   values (x, px, y, py, z, pz, density), and the grid's four
///   `fnv1a64_cell_lanes`: FNV-1a 64 of each quarter of `⌈cells/4⌉`
///   cells' little-endian bytes.
///
/// The trailer is over the decoded content, not the compressed bytes:
/// [`decode_frame_v2`] hashes what it decoded, column by column as it
/// decodes them, and must land on the same words, so a codec defect is
/// caught end to end rather than trusted. Nothing is re-encoded to check
/// it: every lane is hashed from the frame's own columns and cells.
///
/// Returns `(payload, raw_len)` where `raw_len` is the size the same
/// frame occupies under [`encode_frame`] — the numerator of the
/// compression ratio the server's stats report.
pub fn encode_frame_v2(frame: &HybridFrame) -> (Vec<u8>, u64) {
    let header = FrameHeader::of(frame);
    let mut w = PayloadWriter::new();
    header.put(&mut w);
    let mut columns = ColumnChains::default();
    put_columns(&mut w, frame, 0..frame.points.len(), &mut columns);
    put_grid(&mut w, &frame.grid, Cells::Packed);
    let raw_len = put_trailer(&mut w, &header, &columns, &frame.grid);
    (w.into_bytes(), raw_len)
}

/// Decodes an AVWF v2 frame payload, then verifies it against its
/// trailer.
pub fn decode_frame_v2(payload: &[u8]) -> Result<HybridFrame> {
    let mut r = Reader::new(payload);
    let header = FrameHeader::read(&mut r)?;
    let mut columns = ColumnChains::default();
    let (points, point_densities) =
        read_columns(&mut r, 0, header.points, header.points, &mut columns)?;
    let grid = read_grid(&mut r, Cells::Packed)?;
    verify_trailer(&mut r, &header, &columns, &grid)?;
    r.finish()?;
    Ok(header.frame(points, point_densities, grid))
}

/// What a v2 frame payload says of itself without being decoded: the
/// step its header carries and the raw (v1) length its trailer promises.
/// A router reads this much of a shard's reply and forwards the rest
/// unread; the trailer's hash is checked where the frame is decoded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FramePeek {
    /// The frame's step, from its header.
    pub step: u64,
    /// The length of the frame's v1 encoding, from its trailer.
    pub raw_len: u64,
}

impl FramePeek {
    /// Reads the header and the trailer of a v2 frame `payload` (as
    /// [`encode_frame_v2`] writes it); the columns and the grid between
    /// them are skipped, not decoded. A payload too short to hold the
    /// header and the 16-byte trailer is [`ServeError::Corrupt`].
    pub fn read(payload: &[u8]) -> Result<FramePeek> {
        let mut r = Reader::new(payload);
        let header = FrameHeader::read(&mut r)?;
        // Whatever is left past the trailer's 16 bytes is the body; a
        // shorter rest overruns in the reads below.
        r.advance(r.remaining().saturating_sub(16))?;
        let raw_len = r.u64()?;
        r.u64()?; // the trailer's hash, checked by the decoder
        r.finish()?;
        Ok(FramePeek {
            step: header.step as u64,
            raw_len,
        })
    }
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
        assert_eq!(env.kind(), 0x03);
        assert_eq!(env.payload(), b"hello payload");
        assert_eq!(env.wire_bytes(), n);
    }

    #[test]
    fn empty_payload_roundtrips() {
        let mut buf = Vec::new();
        write_envelope(&mut buf, 0x01, b"").unwrap();
        let env = read_envelope(&mut buf.as_slice()).unwrap();
        assert_eq!(env.kind(), 0x01);
        assert!(env.payload().is_empty());
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

    /// The trailer's length is counted from the frame's points and
    /// cells, never encoded: it must still be the v1 encoding's length,
    /// which the compression ratio in the stats reads.
    #[test]
    fn the_trailer_length_is_the_v1_length() {
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
            let (payload, raw_len) = encode_frame_v2(&frame);
            assert_eq!(raw_len, encode_frame(&frame).len() as u64);
            assert_eq!(FramePeek::read(&payload).unwrap().raw_len, raw_len);
        }
    }

    /// A writer that takes one to three bytes a call, across the
    /// boundaries between the slices of a vectored write.
    struct Trickle {
        got: Vec<u8>,
        calls: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            let mut take = 1 + self.calls % 3;
            let before = self.got.len();
            for buf in bufs {
                let n = take.min(buf.len());
                self.got.extend_from_slice(&buf[..n]);
                take -= n;
            }
            Ok(self.got.len() - before)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// An envelope leaves in one vectored write that resumes after every
    /// partial write: a writer taking one to three bytes a call still
    /// receives exactly the envelope's bytes.
    #[test]
    fn partial_writes_deliver_the_whole_envelope() {
        for payload in [&b""[..], b"x", b"partially written payload"] {
            let mut whole = Vec::new();
            write_envelope(&mut whole, 0x83, payload).unwrap();
            let mut trickle = Trickle {
                got: Vec::new(),
                calls: 0,
            };
            let n = write_envelope_v(&mut trickle, V2, 0x83, payload).unwrap();
            assert_eq!(
                (trickle.got.as_slice(), n),
                (whole.as_slice(), whole.len() as u64)
            );
            let mut trickle = Trickle {
                got: Vec::new(),
                calls: 0,
            };
            Sealed::new(0x83, payload.to_vec())
                .write_to(&mut trickle)
                .unwrap();
            assert_eq!(trickle.got, whole);
            assert!(trickle.calls >= whole.len() / 3);
        }
    }

    /// What the one reader reads is what it writes back: the envelope,
    /// byte for byte, and `read_envelope` reads the same envelope.
    #[test]
    fn a_sealed_read_writes_back_the_bytes_it_read() {
        let mut wire = Vec::new();
        write_envelope(&mut wire, 0x83, b"forwarded payload").unwrap();
        let sealed = read_sealed(&mut wire.as_slice(), MAX_PAYLOAD).unwrap();
        assert_eq!(
            (sealed.kind(), sealed.wire_bytes()),
            (0x83, wire.len() as u64)
        );
        let mut again = Vec::new();
        sealed.write_to(&mut again).unwrap();
        assert_eq!(again, wire);
        let env = read_envelope(&mut wire.as_slice()).unwrap();
        assert_eq!(sealed, env);
    }

    /// The peek reads a v2 payload's step and raw length without
    /// decoding it; a payload too short for the 83-byte header and the
    /// 16-byte trailer is corrupt. (What lies between them is not read:
    /// the decoder judges it.)
    #[test]
    fn a_peek_reads_the_step_and_the_raw_length_only() {
        let frame = sample_frame(40);
        let (payload, raw_len) = encode_frame_v2(&frame);
        let peek = FramePeek::read(&payload).unwrap();
        assert_eq!(peek, FramePeek { step: 11, raw_len });
        for cut in [0, 8, 82, 83 + 15] {
            match FramePeek::read(&payload[..cut]) {
                Err(ServeError::Corrupt(_)) => {}
                other => panic!("cut at {cut}: {other:?}"),
            }
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
