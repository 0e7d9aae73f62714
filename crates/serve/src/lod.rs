//! Progressive multi-resolution frame streaming (AVWF v2 LOD).
//!
//! The paper's incremental field-line scheme — "the first *n* lines are
//! always a near-optimal portrait of the field" — applied to the wire:
//! instead of blocking on a full frame, a v2 session can ask for a
//! *coarse-to-fine cut sequence* and render something after one chunk.
//! The octree store makes this nearly free: the particle file is sorted
//! by ascending leaf density, so every refinement is a contiguous suffix
//! slice of the same arrays a full fetch would send, and a partial frame
//! is *exactly* the extraction a lower threshold would have produced
//! (`accelviz_octree::extraction::align_cuts` never splits a leaf group).
//!
//! A stream is planned by [`plan_frame_chunks`] and reassembled by
//! [`ProgressiveAssembler`]:
//!
//! 1. **Coarse head** (`RECORD_COARSE`) — the frame header, the volume
//!    grid sum-pooled by [`COARSE_GRID_FACTOR`] (1/64th of the texture
//!    bytes), and the first point slice: the lowest-density leaf groups,
//!    which are precisely the halo extremes the paper's point pass
//!    exists to show. This chunk alone decodes to a renderable
//!    [`HybridFrame`].
//! 2. **Refinement deltas** (`RECORD_DELTA`) — contiguous point ranges
//!    that splice onto the resident partial frame, in store order.
//! 3. **Final tail** (`RECORD_FINAL`) — the full-resolution grid plus
//!    the length and FNV-1a 64 of the frame's *v1 encoding*. The
//!    assembler re-encodes the spliced frame and must land on those
//!    exact bytes, so any splice defect — a wrong range, a damaged
//!    block, a grid swap — fails loudly instead of rendering subtly
//!    wrong. This is the same end-to-end discipline as
//!    [`decode_frame_v2`](crate::wire::decode_frame_v2), which is why
//!    a fully-refined progressive
//!    frame is bit-identical to a full v2 fetch.
//!
//! Planning is a pure function of `(frame, chunk budget)` — no clocks,
//! no randomness — so a router that re-chunks a cached frame produces
//! byte-identical records to the shard server it fetched from, and a
//! replay after a transport failure re-produces the records the client
//! already holds (it skips them by the assembler's high-water mark).

use crate::error::{Result, ServeError};
use crate::wire::{
    put_columns, put_grid, put_trailer, read_columns, read_grid, verify_trailer, Cells,
    FrameHeader, PayloadWriter,
};
use accelviz_beam::particle::Particle;
use accelviz_core::hybrid::HybridFrame;
use accelviz_math::Reader;
use accelviz_octree::density::DensityGrid;
use accelviz_octree::extraction::align_cuts;
use accelviz_store::progressive::{
    decode_record, encode_record, Record, RecordAssembler, RECORD_COARSE, RECORD_DELTA,
    RECORD_FINAL,
};

/// Default refinement-chunk budget in bytes when the client asks for the
/// server default.
pub const DEFAULT_CHUNK_BYTES: u64 = 64 * 1024;
/// Smallest honored chunk budget: below this the per-record framing
/// overhead dominates the payload.
pub const MIN_CHUNK_BYTES: u64 = 1024;
/// Largest honored chunk budget (a chunk is still one envelope).
pub const MAX_CHUNK_BYTES: u64 = 64 * 1024 * 1024;
/// Sum-pooling factor for the coarse head's volume grid: each axis
/// shrinks by 4×, the texture by 64×.
pub const COARSE_GRID_FACTOR: usize = 4;
/// Wire cost of one point used to convert a byte budget into a point
/// budget: six `f64` coordinates plus the `f64` density, uncompressed.
const POINT_WIRE_BYTES: u64 = 56;

/// Resolves a request's `chunk_bytes` into the budget the planner uses:
/// `0` means "server default" ([`DEFAULT_CHUNK_BYTES`]), and everything
/// is clamped to `[MIN_CHUNK_BYTES, MAX_CHUNK_BYTES]`.
pub fn chunk_budget(requested: u64) -> u64 {
    let raw = if requested == 0 {
        DEFAULT_CHUNK_BYTES
    } else {
        requested
    };
    raw.clamp(MIN_CHUNK_BYTES, MAX_CHUNK_BYTES)
}

/// The run lengths of equal-density groups in the frame's sorted
/// `point_densities` — the leaf-group boundaries, recovered from the
/// frame alone (adjacent leaves with identical density merge into one
/// run, which only makes cuts coarser, never unaligned).
fn density_runs(densities: &[f64]) -> Vec<usize> {
    let mut runs = Vec::new();
    let mut i = 0;
    while i < densities.len() {
        let bits = densities[i].to_bits();
        let start = i;
        while i < densities.len() && densities[i].to_bits() == bits {
            i += 1;
        }
        runs.push(i - start);
    }
    runs
}

/// Encodes one contiguous point range `[start, start + len)` of the
/// frame: start, length, then its columns.
fn put_point_slice(w: &mut PayloadWriter, frame: &HybridFrame, start: usize, len: usize) {
    w.put_u64(start as u64);
    w.put_u64(len as u64);
    put_columns(w, frame, start..start + len);
}

/// Plans the chunk sequence for `frame` under a `chunk_bytes` budget
/// (already resolved via [`chunk_budget`]). Returns the encoded records
/// in send order — always at least two (coarse head, final tail).
/// Deterministic: the same frame and budget always produce the same
/// bytes, on a shard server or on a router re-chunking its cache.
pub fn plan_frame_chunks(frame: &HybridFrame, chunk_bytes: u64) -> Vec<Vec<u8>> {
    let chunk_points = (chunk_bytes / POINT_WIRE_BYTES).max(1) as usize;
    let runs = density_runs(&frame.point_densities);
    let cuts = align_cuts(&runs, chunk_points);
    debug_assert_eq!(cuts.last().copied(), Some(frame.points.len()));

    let total = (cuts.len() + 1) as u32;
    let mut records = Vec::with_capacity(total as usize);

    // Coarse head: header, downsampled grid, first point slice.
    let mut w = PayloadWriter::new();
    FrameHeader::put(&mut w, frame);
    put_grid(
        &mut w,
        &frame.grid.downsample(COARSE_GRID_FACTOR),
        Cells::Packed,
    );
    put_point_slice(&mut w, frame, 0, cuts[0]);
    records.push(encode_record(&Record {
        kind: RECORD_COARSE,
        seq: 0,
        total,
        payload: w.into_bytes(),
    }));

    // Refinement deltas: the suffix slices between consecutive cuts.
    for (i, pair) in cuts.windows(2).enumerate() {
        let mut w = PayloadWriter::new();
        put_point_slice(&mut w, frame, pair[0], pair[1] - pair[0]);
        records.push(encode_record(&Record {
            kind: RECORD_DELTA,
            seq: (i + 1) as u32,
            total,
            payload: w.into_bytes(),
        }));
    }

    // Final tail: the full-resolution grid and the v1 trailer.
    let mut w = PayloadWriter::new();
    put_grid(&mut w, &frame.grid, Cells::Packed);
    put_trailer(&mut w, frame);
    records.push(encode_record(&Record {
        kind: RECORD_FINAL,
        seq: total - 1,
        total,
        payload: w.into_bytes(),
    }));
    records
}

/// Reassembles a progressive stream into a [`HybridFrame`], exposing a
/// renderable partial frame after every accepted record.
///
/// Feed each received record to [`accept`]; after the coarse head,
/// [`partial_frame`] yields the current "render what you have" state
/// (coarse grid + points so far). When [`accept`] returns `true` the
/// stream is complete and verified — [`into_frame`] is the
/// bit-identical equal of a full v2 fetch. On a replay after transport
/// failure, skip records whose seq is below [`next_seq`].
///
/// [`accept`]: ProgressiveAssembler::accept
/// [`partial_frame`]: ProgressiveAssembler::partial_frame
/// [`into_frame`]: ProgressiveAssembler::into_frame
/// [`next_seq`]: ProgressiveAssembler::next_seq
pub struct ProgressiveAssembler {
    records: RecordAssembler,
    /// The coarse head's frame header.
    header: Option<FrameHeader>,
    points: Vec<Particle>,
    point_densities: Vec<f64>,
    coarse_grid: Option<DensityGrid>,
    final_frame: Option<HybridFrame>,
}

impl Default for ProgressiveAssembler {
    fn default() -> Self {
        Self::new()
    }
}

impl ProgressiveAssembler {
    /// An assembler expecting the coarse head.
    pub fn new() -> ProgressiveAssembler {
        ProgressiveAssembler {
            records: RecordAssembler::new(),
            header: None,
            points: Vec::new(),
            point_densities: Vec::new(),
            coarse_grid: None,
            final_frame: None,
        }
    }

    /// The seq this assembler will apply next — the replay high-water
    /// mark.
    pub fn next_seq(&self) -> u32 {
        self.records.next_seq()
    }

    /// Whether the final record has been accepted and verified.
    pub fn is_complete(&self) -> bool {
        self.final_frame.is_some()
    }

    /// Points spliced in so far (of [`total_points`]).
    ///
    /// [`total_points`]: ProgressiveAssembler::total_points
    pub fn points_resident(&self) -> usize {
        self.points.len()
    }

    /// Points the complete frame will hold (0 before the coarse head).
    pub fn total_points(&self) -> usize {
        self.header.map_or(0, |h| h.points)
    }

    /// Validates and applies one encoded record. Returns `true` when the
    /// stream completed (and the reassembled frame verified against the
    /// v1 trailer).
    pub fn accept(&mut self, record_bytes: &[u8]) -> Result<bool> {
        let rec = decode_record(record_bytes)?;
        self.accept_record(rec)
    }

    /// [`accept`](ProgressiveAssembler::accept) for a record the caller
    /// already decoded (and checksummed) — e.g. to read its `seq` first.
    pub fn accept_record(&mut self, rec: Record) -> Result<bool> {
        self.records.accept(&rec)?;
        let mut r = Reader::new(&rec.payload);
        match rec.kind {
            RECORD_COARSE => {
                self.header = Some(FrameHeader::read(&mut r)?);
                self.coarse_grid = Some(read_grid(&mut r, Cells::Packed)?);
                self.apply_slice(&mut r)?;
            }
            RECORD_DELTA => {
                self.apply_slice(&mut r)?;
            }
            RECORD_FINAL => {
                let header = self
                    .header
                    .ok_or_else(|| ServeError::Corrupt("final record before header".into()))?;
                if self.points.len() != header.points {
                    return Err(ServeError::Corrupt(format!(
                        "final record with {} of {} points resident",
                        self.points.len(),
                        header.points
                    )));
                }
                let grid = read_grid(&mut r, Cells::Packed)?;
                let frame = header.frame(
                    std::mem::take(&mut self.points),
                    std::mem::take(&mut self.point_densities),
                    grid,
                );
                // The splice-correctness proof: the reassembled frame's
                // v1 encoding must be the exact bytes the planner hashed.
                verify_trailer(&mut r, &frame)?;
                self.final_frame = Some(frame);
            }
            _ => unreachable!("RecordAssembler admits only known kinds"),
        }
        r.finish()?;
        Ok(self.is_complete())
    }

    /// Splices one point range; the range must start exactly where the
    /// resident points end (contiguity is what makes replay and splice
    /// order provable).
    fn apply_slice(&mut self, r: &mut Reader<'_>) -> Result<()> {
        let start = r.u64()? as usize;
        let len = r.u64()? as usize;
        if start != self.points.len() {
            return Err(ServeError::Corrupt(format!(
                "point range starts at {start}, resident frame ends at {}",
                self.points.len()
            )));
        }
        let (points, densities) = read_columns(r, start, len, self.total_points())?;
        self.points.extend(points);
        self.point_densities.extend(densities);
        Ok(())
    }

    /// The current renderable partial frame: the header, the coarse
    /// grid, and every point spliced so far. `None` before the coarse
    /// head arrives; after completion it is the final frame itself.
    pub fn partial_frame(&self) -> Option<HybridFrame> {
        if let Some(frame) = &self.final_frame {
            return Some(frame.clone());
        }
        let header = self.header.as_ref()?;
        let grid = self.coarse_grid.as_ref()?;
        Some(header.frame(
            self.points.clone(),
            self.point_densities.clone(),
            grid.clone(),
        ))
    }

    /// The verified final frame, consuming the assembler. `None` until
    /// [`accept`](ProgressiveAssembler::accept) returned `true`.
    pub fn into_frame(self) -> Option<HybridFrame> {
        self.final_frame
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::encode_frame_v2;
    use accelviz_math::{Aabb, Vec3};
    use accelviz_octree::plots::PlotType;

    fn sample_frame(n_points: usize, dims: [usize; 3]) -> HybridFrame {
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
        // Sorted leaf-style densities: runs of equal values, ascending.
        let point_densities: Vec<f64> = (0..n_points).map(|i| 1.0 + (i / 7) as f64).collect();
        let n = dims[0] * dims[1] * dims[2];
        let mut cells = vec![0.0f32; n];
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

    fn assemble(records: &[Vec<u8>]) -> ProgressiveAssembler {
        let mut asm = ProgressiveAssembler::new();
        for (i, rec) in records.iter().enumerate() {
            let done = asm.accept(rec).unwrap();
            assert_eq!(done, i == records.len() - 1);
        }
        asm
    }

    #[test]
    fn streams_reassemble_bit_identically_at_every_budget() {
        let frame = sample_frame(500, [16, 16, 16]);
        for budget in [MIN_CHUNK_BYTES, 4096, DEFAULT_CHUNK_BYTES, MAX_CHUNK_BYTES] {
            let records = plan_frame_chunks(&frame, budget);
            assert!(records.len() >= 2, "budget {budget}");
            let asm = assemble(&records);
            assert_eq!(asm.into_frame().unwrap(), frame, "budget {budget}");
        }
    }

    #[test]
    fn planning_is_deterministic() {
        let frame = sample_frame(300, [8, 8, 8]);
        assert_eq!(
            plan_frame_chunks(&frame, 4096),
            plan_frame_chunks(&frame, 4096)
        );
    }

    #[test]
    fn the_coarse_head_is_renderable_and_small() {
        let frame = sample_frame(2_000, [32, 32, 32]);
        let records = plan_frame_chunks(&frame, 4096);
        assert!(records.len() > 3, "small budget must produce many chunks");
        let mut asm = ProgressiveAssembler::new();
        assert!(asm.partial_frame().is_none(), "nothing to render yet");
        asm.accept(&records[0]).unwrap();
        let partial = asm.partial_frame().unwrap();
        // Renderable: header intact, points present, coarse grid carries
        // the full mass at 1/64th the texture bytes.
        assert_eq!(partial.step, frame.step);
        assert!(!partial.points.is_empty());
        assert!(partial.points.len() < frame.points.len());
        assert_eq!(partial.grid.total(), frame.grid.total());
        assert_eq!(partial.grid.dims(), [8, 8, 8]);
        assert_eq!(&frame.points[..partial.points.len()], &partial.points[..]);
        // And cheap: the head undercuts the full v2 payload.
        let (full_v2, _) = encode_frame_v2(&frame);
        assert!(records[0].len() * 2 < full_v2.len());
    }

    #[test]
    fn partial_frames_grow_monotonically_and_end_at_the_final_frame() {
        let frame = sample_frame(700, [16, 16, 16]);
        let records = plan_frame_chunks(&frame, 2048);
        let mut asm = ProgressiveAssembler::new();
        let mut last = 0usize;
        for rec in &records {
            asm.accept(rec).unwrap();
            let partial = asm.partial_frame().unwrap();
            assert!(partial.points.len() >= last);
            assert_eq!(&frame.points[..partial.points.len()], &partial.points[..]);
            last = partial.points.len();
        }
        assert_eq!(asm.partial_frame().unwrap(), frame);
    }

    #[test]
    fn reordered_and_duplicated_records_are_rejected() {
        let frame = sample_frame(400, [8, 8, 8]);
        let records = plan_frame_chunks(&frame, 1024);
        assert!(records.len() >= 4);
        let mut asm = ProgressiveAssembler::new();
        assert!(asm.accept(&records[1]).is_err(), "starting mid-stream");
        let mut asm = ProgressiveAssembler::new();
        asm.accept(&records[0]).unwrap();
        assert!(asm.accept(&records[0]).is_err(), "duplicate head");
        assert!(asm.accept(&records[2]).is_err(), "gap");
    }

    #[test]
    fn damaged_records_never_complete_a_stream() {
        let frame = sample_frame(300, [8, 8, 8]);
        let records = plan_frame_chunks(&frame, 2048);
        for (i, rec) in records.iter().enumerate() {
            for at in [0, rec.len() / 2, rec.len() - 1] {
                let mut bad = rec.clone();
                bad[at] ^= 0x20;
                let mut asm = ProgressiveAssembler::new();
                for good in &records[..i] {
                    asm.accept(good).unwrap();
                }
                assert!(asm.accept(&bad).is_err(), "record {i} flipped at {at}");
            }
        }
    }

    #[test]
    fn a_forged_final_grid_fails_the_trailer_check() {
        // Splice correctness end-to-end: swap the final record of one
        // frame into another frame's stream. Records themselves are
        // valid, and the difference (one point) is resident *before* the
        // final record arrives — the v1 trailer must catch the mismatch
        // between the promised frame and the spliced one.
        let a = sample_frame(210, [8, 8, 8]);
        let mut b = sample_frame(210, [8, 8, 8]);
        b.points[0] = Particle::from_array([9.0, 9.0, 9.0, 9.0, 9.0, 9.0]);
        let ra = plan_frame_chunks(&a, 2048);
        let rb = plan_frame_chunks(&b, 2048);
        assert_eq!(ra.len(), rb.len());
        let mut asm = ProgressiveAssembler::new();
        for rec in &ra[..ra.len() - 1] {
            asm.accept(rec).unwrap();
        }
        let err = asm.accept(&rb[rb.len() - 1]).unwrap_err();
        assert!(err.to_string().contains("trailer promised"), "{err}");
    }

    #[test]
    fn empty_frames_stream_as_head_plus_tail() {
        let mut frame = sample_frame(0, [1, 1, 1]);
        frame.grid = DensityGrid::from_raw(frame.bounds, [1, 1, 1], vec![0.0]);
        let records = plan_frame_chunks(&frame, DEFAULT_CHUNK_BYTES);
        assert_eq!(records.len(), 2);
        let asm = assemble(&records);
        assert_eq!(asm.into_frame().unwrap(), frame);
    }

    #[test]
    fn chunk_budget_resolves_defaults_and_clamps() {
        assert_eq!(chunk_budget(4096), 4096);
        assert_eq!(chunk_budget(1), MIN_CHUNK_BYTES);
        assert_eq!(chunk_budget(u64::MAX), MAX_CHUNK_BYTES);
        assert_eq!(chunk_budget(0), DEFAULT_CHUNK_BYTES);
    }
}
