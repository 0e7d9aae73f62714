//! Byte-identity oracle for the frame codec: the v2 payload and the
//! progressive records are written by one shared header / column / grid /
//! trailer codec, and must be exactly the bytes the standalone encoders
//! produced. The reference below is a verbatim copy of those encoders and
//! decoders (`encode_frame_v2`, `decode_frame_v2`, `plan_frame_chunks`,
//! `ProgressiveAssembler::accept`) and the helpers they called, except
//! for the trailer: [`reference::trailer`] is the lane definition computed
//! serially over materialised column and cell bytes. Damaged input must
//! get the same verdict from both sides: `Ok` with the same frame, or
//! `Err`.

use accelviz_beam::particle::{Particle, PhaseCoord};
use accelviz_core::hybrid::HybridFrame;
use accelviz_math::{Aabb, Vec3};
use accelviz_octree::density::DensityGrid;
use accelviz_octree::extraction::align_cuts;
use accelviz_octree::plots::PlotType;
use accelviz_serve::error::{Result, ServeError};
use accelviz_serve::lod::{
    plan_frame_chunks, ProgressiveAssembler, COARSE_GRID_FACTOR, DEFAULT_CHUNK_BYTES,
    MAX_CHUNK_BYTES, MIN_CHUNK_BYTES,
};
use accelviz_serve::wire::{
    decode_frame_v2, encode_frame_v2, fnv1a64, PayloadReader, PayloadWriter, MAX_PAYLOAD,
};
use accelviz_store::codec::{decode_f32s, decode_f64s, encode_f32s, encode_f64s};
use accelviz_store::progressive::{
    decode_record, encode_record, Record, RecordAssembler, RECORD_COARSE, RECORD_DELTA,
    RECORD_FINAL,
};
use proptest::prelude::*;

/// Every budget the planner is checked under.
const BUDGETS: [u64; 4] = [MIN_CHUNK_BYTES, 4096, DEFAULT_CHUNK_BYTES, MAX_CHUNK_BYTES];

/// The reference codec, copied from the encoders it checks.
mod reference {
    use super::*;

    const POINT_WIRE_BYTES: u64 = 56;

    fn coord_code(c: PhaseCoord) -> u8 {
        match c {
            PhaseCoord::X => 0,
            PhaseCoord::Px => 1,
            PhaseCoord::Y => 2,
            PhaseCoord::Py => 3,
            PhaseCoord::Z => 4,
            PhaseCoord::Pz => 5,
        }
    }

    fn coord_from_code(b: u8) -> Result<PhaseCoord> {
        Ok(match b {
            0 => PhaseCoord::X,
            1 => PhaseCoord::Px,
            2 => PhaseCoord::Y,
            3 => PhaseCoord::Py,
            4 => PhaseCoord::Z,
            5 => PhaseCoord::Pz,
            other => {
                return Err(ServeError::Corrupt(format!(
                    "invalid phase-coord code {other}"
                )))
            }
        })
    }

    fn put_aabb(w: &mut PayloadWriter, b: &Aabb) {
        for v in [b.min, b.max] {
            w.put_f64(v.x);
            w.put_f64(v.y);
            w.put_f64(v.z);
        }
    }

    fn read_aabb(r: &mut PayloadReader<'_>) -> Result<Aabb> {
        let min = Vec3::new(r.f64()?, r.f64()?, r.f64()?);
        let max = Vec3::new(r.f64()?, r.f64()?, r.f64()?);
        Ok(Aabb { min, max })
    }

    /// The v1 payload: its length is the trailer's first word, and it is
    /// how frames are compared here (bit patterns, so NaN payloads
    /// compare too).
    pub fn encode_frame(frame: &HybridFrame) -> Vec<u8> {
        let mut w = PayloadWriter::new();
        w.put_u64(frame.step as u64);
        for c in frame.plot.coords {
            w.put_u8(coord_code(c));
        }
        put_aabb(&mut w, &frame.bounds);
        w.put_f64(frame.threshold);
        w.put_u64(frame.discarded);

        w.put_u64(frame.points.len() as u64);
        for p in &frame.points {
            for v in p.to_array() {
                w.put_f64(v);
            }
        }
        for &d in &frame.point_densities {
            w.put_f64(d);
        }

        let dims = frame.grid.dims();
        for d in dims {
            w.put_u64(d as u64);
        }
        put_aabb(&mut w, frame.grid.bounds());
        for &v in frame.grid.data() {
            w.put_f32(v);
        }
        w.into_bytes()
    }

    /// The trailer, one byte string and one serial hash at a time: the
    /// v1 length, and `fnv1a64` over the little-endian bytes of twelve
    /// lane hashes — the header with the grid's dims and bounds, each of
    /// the seven columns (x, px, y, py, z, pz, density), and each quarter
    /// of `⌈cells/4⌉` cells.
    pub fn trailer(frame: &HybridFrame) -> (u64, u64) {
        let mut head = PayloadWriter::new();
        head.put_u64(frame.step as u64);
        for c in frame.plot.coords {
            head.put_u8(coord_code(c));
        }
        put_aabb(&mut head, &frame.bounds);
        head.put_f64(frame.threshold);
        head.put_u64(frame.discarded);
        head.put_u64(frame.points.len() as u64);
        for d in frame.grid.dims() {
            head.put_u64(d as u64);
        }
        put_aabb(&mut head, frame.grid.bounds());
        let mut lanes = vec![fnv1a64(&head.into_bytes())];

        let mut columns: Vec<Vec<u8>> = (0..6)
            .map(|c| {
                let mut bytes = Vec::new();
                for p in &frame.points {
                    bytes.extend_from_slice(&p.to_array()[c].to_le_bytes());
                }
                bytes
            })
            .collect();
        let mut densities = Vec::new();
        for d in &frame.point_densities {
            densities.extend_from_slice(&d.to_le_bytes());
        }
        columns.push(densities);
        lanes.extend(columns.iter().map(|bytes| fnv1a64(bytes)));

        let cells = frame.grid.data();
        let mut cell_bytes = Vec::new();
        for v in cells {
            cell_bytes.extend_from_slice(&v.to_le_bytes());
        }
        let q = cells.len().div_ceil(4);
        for k in 0..4 {
            let (from, to) = ((k * q).min(cells.len()), ((k + 1) * q).min(cells.len()));
            lanes.push(fnv1a64(&cell_bytes[4 * from..4 * to]));
        }

        let mut folded = Vec::new();
        for hash in lanes {
            folded.extend_from_slice(&hash.to_le_bytes());
        }
        (encode_frame(frame).len() as u64, fnv1a64(&folded))
    }

    pub fn encode_frame_v2(frame: &HybridFrame) -> (Vec<u8>, u64) {
        let (raw_len, raw_fnv) = trailer(frame);

        let mut w = PayloadWriter::new();
        w.put_u64(frame.step as u64);
        for c in frame.plot.coords {
            w.put_u8(coord_code(c));
        }
        put_aabb(&mut w, &frame.bounds);
        w.put_f64(frame.threshold);
        w.put_u64(frame.discarded);

        let n = frame.points.len();
        w.put_u64(n as u64);
        let mut col = vec![0.0f64; n];
        for c in 0..6 {
            for (slot, p) in col.iter_mut().zip(&frame.points) {
                *slot = p.to_array()[c];
            }
            w.put_bytes(&encode_f64s(&col));
        }
        w.put_bytes(&encode_f64s(&frame.point_densities));

        let dims = frame.grid.dims();
        for d in dims {
            w.put_u64(d as u64);
        }
        put_aabb(&mut w, frame.grid.bounds());
        w.put_bytes(&encode_f32s(frame.grid.data()));

        w.put_u64(raw_len);
        w.put_u64(raw_fnv);
        (w.into_bytes(), raw_len)
    }

    fn read_f64_block(r: &mut PayloadReader<'_>, expect: usize) -> Result<Vec<f64>> {
        let mut pos = 0;
        let values = decode_f64s(r.rest(), &mut pos, expect)
            .map_err(|e| ServeError::Corrupt(e.to_string()))?;
        r.advance(pos)?;
        Ok(values)
    }

    pub fn decode_frame_v2(payload: &[u8]) -> Result<HybridFrame> {
        let mut r = PayloadReader::new(payload);
        let step = r.u64()? as usize;
        let plot = PlotType {
            coords: [
                coord_from_code(r.u8()?)?,
                coord_from_code(r.u8()?)?,
                coord_from_code(r.u8()?)?,
            ],
        };
        let bounds = read_aabb(&mut r)?;
        let threshold = r.f64()?;
        let discarded = r.u64()?;

        let n_points = r.u64()?;
        if n_points > MAX_PAYLOAD / 48 {
            return Err(ServeError::Corrupt(format!(
                "declared point count {n_points} exceeds the decoded-payload limit"
            )));
        }
        let n_points = n_points as usize;
        let mut cols = Vec::with_capacity(6);
        for _ in 0..6 {
            cols.push(read_f64_block(&mut r, n_points)?);
        }
        let points: Vec<Particle> = (0..n_points)
            .map(|i| {
                Particle::from_array([
                    cols[0][i], cols[1][i], cols[2][i], cols[3][i], cols[4][i], cols[5][i],
                ])
            })
            .collect();
        let point_densities = read_f64_block(&mut r, n_points)?;

        let dims = [r.u64()? as usize, r.u64()? as usize, r.u64()? as usize];
        let n_cells = dims[0]
            .checked_mul(dims[1])
            .and_then(|n| n.checked_mul(dims[2]))
            .ok_or_else(|| ServeError::Corrupt("grid dims overflow".into()))?;
        if dims.contains(&0) {
            return Err(ServeError::Corrupt("grid dims must be positive".into()));
        }
        if n_cells as u64 > MAX_PAYLOAD / 4 {
            return Err(ServeError::Corrupt(format!(
                "declared grid of {n_cells} cells exceeds the decoded-payload limit"
            )));
        }
        let grid_bounds = read_aabb(&mut r)?;
        let data = {
            let mut pos = 0;
            let values = decode_f32s(r.rest(), &mut pos, n_cells)
                .map_err(|e| ServeError::Corrupt(e.to_string()))?;
            r.advance(pos)?;
            values
        };
        let raw_len = r.u64()?;
        let raw_fnv = r.u64()?;
        r.finish()?;

        let frame = HybridFrame {
            step,
            plot,
            bounds,
            points,
            point_densities,
            grid: DensityGrid::from_raw(grid_bounds, dims, data),
            threshold,
            discarded,
        };
        let (len, fnv) = trailer(&frame);
        if len != raw_len || fnv != raw_fnv {
            return Err(ServeError::Corrupt(format!(
                "decoded frame digests to {len} bytes (fnv {fnv:#018x}), trailer promised \
                 {raw_len} (fnv {raw_fnv:#018x})"
            )));
        }
        Ok(frame)
    }

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

    fn put_point_slice(w: &mut PayloadWriter, frame: &HybridFrame, start: usize, len: usize) {
        w.put_u64(start as u64);
        w.put_u64(len as u64);
        let slice = &frame.points[start..start + len];
        let mut col = vec![0.0f64; len];
        for c in 0..6 {
            for (slot, p) in col.iter_mut().zip(slice) {
                *slot = p.to_array()[c];
            }
            w.put_bytes(&encode_f64s(&col));
        }
        w.put_bytes(&encode_f64s(&frame.point_densities[start..start + len]));
    }

    fn put_grid(w: &mut PayloadWriter, grid: &DensityGrid) {
        for d in grid.dims() {
            w.put_u64(d as u64);
        }
        put_aabb(w, grid.bounds());
        w.put_bytes(&encode_f32s(grid.data()));
    }

    fn read_grid(r: &mut PayloadReader<'_>) -> Result<DensityGrid> {
        let dims = [r.u64()? as usize, r.u64()? as usize, r.u64()? as usize];
        let n_cells = dims[0]
            .checked_mul(dims[1])
            .and_then(|n| n.checked_mul(dims[2]))
            .ok_or_else(|| ServeError::Corrupt("grid dims overflow".into()))?;
        if dims.contains(&0) {
            return Err(ServeError::Corrupt("grid dims must be positive".into()));
        }
        if n_cells as u64 > MAX_PAYLOAD / 4 {
            return Err(ServeError::Corrupt(format!(
                "declared grid of {n_cells} cells exceeds the decoded-payload limit"
            )));
        }
        let bounds = read_aabb(r)?;
        let mut pos = 0;
        let data = decode_f32s(r.rest(), &mut pos, n_cells)
            .map_err(|e| ServeError::Corrupt(e.to_string()))?;
        r.advance(pos)?;
        Ok(DensityGrid::from_raw(bounds, dims, data))
    }

    pub fn plan_frame_chunks(frame: &HybridFrame, chunk_bytes: u64) -> Vec<Vec<u8>> {
        let chunk_points = (chunk_bytes / POINT_WIRE_BYTES).max(1) as usize;
        let runs = density_runs(&frame.point_densities);
        let cuts = align_cuts(&runs, chunk_points);
        debug_assert_eq!(cuts.last().copied(), Some(frame.points.len()));

        let (raw_len, raw_fnv) = trailer(frame);
        let total = (cuts.len() + 1) as u32;
        let mut records = Vec::with_capacity(total as usize);

        // Coarse head: header, downsampled grid, first point slice.
        let mut w = PayloadWriter::new();
        w.put_u64(frame.step as u64);
        for c in frame.plot.coords {
            w.put_u8(coord_code(c));
        }
        put_aabb(&mut w, &frame.bounds);
        w.put_f64(frame.threshold);
        w.put_u64(frame.discarded);
        w.put_u64(frame.points.len() as u64);
        put_grid(&mut w, &frame.grid.downsample(COARSE_GRID_FACTOR));
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

        // Final tail: the full-resolution grid and the trailer.
        let mut w = PayloadWriter::new();
        put_grid(&mut w, &frame.grid);
        w.put_u64(raw_len);
        w.put_u64(raw_fnv);
        records.push(encode_record(&Record {
            kind: RECORD_FINAL,
            seq: total - 1,
            total,
            payload: w.into_bytes(),
        }));
        records
    }

    struct PartialHeader {
        step: usize,
        plot: PlotType,
        bounds: accelviz_math::Aabb,
        threshold: f64,
        discarded: u64,
    }

    pub struct ProgressiveAssembler {
        records: RecordAssembler,
        header: Option<PartialHeader>,
        total_points: usize,
        points: Vec<Particle>,
        point_densities: Vec<f64>,
        coarse_grid: Option<DensityGrid>,
        final_frame: Option<HybridFrame>,
    }

    impl ProgressiveAssembler {
        pub fn new() -> ProgressiveAssembler {
            ProgressiveAssembler {
                records: RecordAssembler::new(),
                header: None,
                total_points: 0,
                points: Vec::new(),
                point_densities: Vec::new(),
                coarse_grid: None,
                final_frame: None,
            }
        }

        pub fn is_complete(&self) -> bool {
            self.final_frame.is_some()
        }

        pub fn accept(&mut self, record_bytes: &[u8]) -> Result<bool> {
            let rec =
                decode_record(record_bytes).map_err(|e| ServeError::Corrupt(e.to_string()))?;
            self.records
                .accept(&rec)
                .map_err(|e| ServeError::Corrupt(e.to_string()))?;
            let mut r = PayloadReader::new(&rec.payload);
            match rec.kind {
                RECORD_COARSE => {
                    let step = r.u64()? as usize;
                    let plot = PlotType {
                        coords: [
                            coord_from_code(r.u8()?)?,
                            coord_from_code(r.u8()?)?,
                            coord_from_code(r.u8()?)?,
                        ],
                    };
                    let bounds = read_aabb(&mut r)?;
                    let threshold = r.f64()?;
                    let discarded = r.u64()?;
                    let n_points = r.u64()?;
                    if n_points > MAX_PAYLOAD / 48 {
                        return Err(ServeError::Corrupt(format!(
                            "declared point count {n_points} exceeds the decoded-payload limit"
                        )));
                    }
                    self.header = Some(PartialHeader {
                        step,
                        plot,
                        bounds,
                        threshold,
                        discarded,
                    });
                    self.total_points = n_points as usize;
                    self.coarse_grid = Some(read_grid(&mut r)?);
                    self.apply_slice(&mut r)?;
                }
                RECORD_DELTA => {
                    self.apply_slice(&mut r)?;
                }
                RECORD_FINAL => {
                    if self.points.len() != self.total_points {
                        return Err(ServeError::Corrupt(format!(
                            "final record with {} of {} points resident",
                            self.points.len(),
                            self.total_points
                        )));
                    }
                    let grid = read_grid(&mut r)?;
                    let raw_len = r.u64()?;
                    let raw_fnv = r.u64()?;
                    let header = self
                        .header
                        .take()
                        .ok_or_else(|| ServeError::Corrupt("final record before header".into()))?;
                    let frame = HybridFrame {
                        step: header.step,
                        plot: header.plot,
                        bounds: header.bounds,
                        points: std::mem::take(&mut self.points),
                        point_densities: std::mem::take(&mut self.point_densities),
                        grid,
                        threshold: header.threshold,
                        discarded: header.discarded,
                    };
                    let (len, fnv) = trailer(&frame);
                    if len != raw_len || fnv != raw_fnv {
                        return Err(ServeError::Corrupt(format!(
                            "reassembled frame digests to {len} bytes (fnv {fnv:#018x}), \
                             trailer promised {raw_len} (fnv {raw_fnv:#018x})"
                        )));
                    }
                    self.final_frame = Some(frame);
                }
                _ => unreachable!("RecordAssembler admits only known kinds"),
            }
            r.finish()?;
            Ok(self.is_complete())
        }

        fn apply_slice(&mut self, r: &mut PayloadReader<'_>) -> Result<()> {
            let start = r.u64()? as usize;
            let len = r.u64()? as usize;
            if start != self.points.len() {
                return Err(ServeError::Corrupt(format!(
                    "point range starts at {start}, resident frame ends at {}",
                    self.points.len()
                )));
            }
            if start + len > self.total_points {
                return Err(ServeError::Corrupt(format!(
                    "point range [{start}, {}) exceeds the declared {} points",
                    start + len,
                    self.total_points
                )));
            }
            let mut cols = Vec::with_capacity(6);
            for _ in 0..6 {
                cols.push(read_f64_block(r, len)?);
            }
            self.points.extend((0..len).map(|i| {
                Particle::from_array([
                    cols[0][i], cols[1][i], cols[2][i], cols[3][i], cols[4][i], cols[5][i],
                ])
            }));
            self.point_densities.extend(read_f64_block(r, len)?);
            Ok(())
        }

        pub fn partial_frame(&self) -> Option<HybridFrame> {
            if let Some(frame) = &self.final_frame {
                return Some(frame.clone());
            }
            let header = self.header.as_ref()?;
            let grid = self.coarse_grid.as_ref()?;
            Some(HybridFrame {
                step: header.step,
                plot: header.plot,
                bounds: header.bounds,
                points: self.points.clone(),
                point_densities: self.point_densities.clone(),
                grid: grid.clone(),
                threshold: header.threshold,
                discarded: header.discarded,
            })
        }
    }
}

/// A small deterministic generator, so one proptest seed is one frame.
struct SplitMix(u64);

impl SplitMix {
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

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Mostly ordinary values, one in eight a NaN, an infinity, a signed
    /// zero or an extreme.
    fn value(&mut self, scale: f64) -> f64 {
        const SPECIAL: [f64; 7] = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1e300,
        ];
        if self.below(8) == 0 {
            SPECIAL[self.below(SPECIAL.len() as u64) as usize]
        } else {
            (self.unit() - 0.5) * scale
        }
    }
}

/// Frame `n` points over a `dims` grid, drawn from `seed`. Densities come
/// in runs of equal values (leaf groups) — mostly short, some longer than
/// a whole chunk, so cuts land inside and across runs at every budget.
fn frame_from(seed: u64, n: usize, dims: [usize; 3]) -> HybridFrame {
    let mut rng = SplitMix(seed);
    let points = (0..n)
        .map(|_| Particle::from_array(std::array::from_fn(|_| rng.value(20.0))))
        .collect();
    let mut point_densities = Vec::with_capacity(n);
    let mut level = 0.0;
    while point_densities.len() < n {
        let run = if rng.below(8) == 0 {
            1 + rng.below(3_000)
        } else {
            1 + rng.below(120)
        } as usize;
        level += 1.0 + rng.unit();
        let d = if rng.below(10) == 0 {
            rng.value(1.0)
        } else {
            level
        };
        let take = run.min(n - point_densities.len());
        point_densities.extend(std::iter::repeat_n(d, take));
    }
    let cells = (0..dims[0] * dims[1] * dims[2])
        .map(|_| {
            if rng.below(3) == 0 {
                0.0
            } else {
                rng.value(100.0) as f32
            }
        })
        .collect();
    let bounds = Aabb {
        min: Vec3::new(-1.0, -2.0, -3.0),
        max: Vec3::new(rng.unit() + 1.0, 2.0, 3.0),
    };
    HybridFrame {
        step: rng.below(1 << 20) as usize,
        plot: PlotType::FIGURE2[rng.below(4) as usize],
        bounds,
        points,
        point_densities,
        grid: DensityGrid::from_raw(bounds, dims, cells),
        threshold: rng.value(10.0),
        discarded: rng.next(),
    }
}

/// Seeded frames: one in eight has no points, one in eight one point,
/// one in eight 5 000; a third sit on a single cell, the rest on grids
/// of up to 9 cells a side, mostly non-cubic.
fn arb_frame() -> impl Strategy<Value = HybridFrame> {
    let dims = (0usize..3, 1usize..10, 1usize..10, 1usize..10);
    (0u64..u64::MAX, 0usize..8, 2usize..600, dims).prop_map(|(seed, pick, some, dims)| {
        let n = match pick {
            0 => 0,
            1 => 1,
            2 => 5_000,
            _ => some,
        };
        let dims = match dims {
            (0, ..) => [1, 1, 1],
            (_, x, y, z) => [x, y, z],
        };
        frame_from(seed, n, dims)
    })
}

/// A frame's identity as bytes: NaN payloads and signed zeros included.
fn bits(frame: &HybridFrame) -> Vec<u8> {
    reference::encode_frame(frame)
}

/// The verdict on one decode: the decoded frame's bytes, or an error.
fn verdict(decoded: Result<HybridFrame>) -> std::result::Result<Vec<u8>, ()> {
    decoded.map(|frame| bits(&frame)).map_err(|_| ())
}

/// What feeding `records` in order leaves behind: each accept's outcome
/// up to the first error and, when none failed, the frame the assembler
/// holds (partial, or complete once the final record verified).
type Assembled = (Vec<std::result::Result<bool, ()>>, Option<Vec<u8>>);

/// Feeds `records` through the assembler under test.
fn assemble(records: &[Vec<u8>]) -> Assembled {
    let mut asm = ProgressiveAssembler::new();
    let mut outcomes = Vec::new();
    for rec in records {
        let outcome = asm.accept(rec).map_err(|_| ());
        outcomes.push(outcome);
        if outcome.is_err() {
            return (outcomes, None);
        }
    }
    (outcomes, asm.partial_frame().map(|f| bits(&f)))
}

/// [`assemble`] through the reference assembler.
fn assemble_reference(records: &[Vec<u8>]) -> Assembled {
    let mut asm = reference::ProgressiveAssembler::new();
    let mut outcomes = Vec::new();
    for rec in records {
        let outcome = asm.accept(rec).map_err(|_| ());
        outcomes.push(outcome);
        if outcome.is_err() {
            return (outcomes, None);
        }
    }
    (outcomes, asm.partial_frame().map(|f| bits(&f)))
}

/// The byte positions a damage sweep visits in a buffer of `len`: the
/// first 96 (every header field), then a spread, then the last 24
/// (trailers).
fn positions(len: usize) -> Vec<usize> {
    let mut at: Vec<usize> = (0..len.min(96)).collect();
    at.extend((1..16).map(|k| len * k / 16));
    at.extend(len.saturating_sub(24)..len);
    at.sort_unstable();
    at.dedup();
    at
}

/// `record` with its payload changed by `damage` and sealed again, so the
/// damage reaches the payload codec instead of the record checksum.
fn resealed(record: &[u8], damage: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut rec = decode_record(record).expect("own record");
    damage(&mut rec.payload);
    encode_record(&rec)
}

fn check_identity(frame: &HybridFrame) {
    let (payload, raw_len) = encode_frame_v2(frame);
    let (expected, expected_raw) = reference::encode_frame_v2(frame);
    assert_eq!(raw_len, expected_raw);
    assert!(payload == expected, "v2 payload differs from the reference");
    let decoded = verdict(decode_frame_v2(&payload));
    assert_eq!(decoded, verdict(reference::decode_frame_v2(&payload)));
    assert_eq!(decoded, Ok(bits(frame)));

    for budget in BUDGETS {
        let records = plan_frame_chunks(frame, budget);
        let expected = reference::plan_frame_chunks(frame, budget);
        assert_eq!(records.len(), expected.len(), "budget {budget}");
        for (i, (rec, want)) in records.iter().zip(&expected).enumerate() {
            assert!(rec == want, "record {i} differs at budget {budget}");
        }
        let assembled = assemble(&records);
        assert_eq!(assembled, assemble_reference(&records), "budget {budget}");
        assert_eq!(assembled.1, Some(bits(frame)), "budget {budget}");
    }
}

fn check_damage(frame: &HybridFrame) {
    let (payload, _) = encode_frame_v2(frame);
    for at in positions(payload.len()) {
        for cut in [payload[..at].to_vec(), {
            let mut bad = payload.clone();
            bad[at] ^= 1 << (at % 8);
            bad
        }] {
            assert_eq!(
                verdict(decode_frame_v2(&cut)),
                verdict(reference::decode_frame_v2(&cut)),
                "v2 payload damaged at {at} of {}",
                payload.len()
            );
        }
    }

    // The stream up to and including one damaged record: its first
    // records at the smallest budget (hundreds of records for 5 000
    // points), every kind at the default budget.
    for budget in [MIN_CHUNK_BYTES, DEFAULT_CHUNK_BYTES] {
        let records = plan_frame_chunks(frame, budget);
        let last = records.len() - 1;
        let mut targets = if budget == MIN_CHUNK_BYTES {
            vec![0, 1.min(last)]
        } else {
            vec![0, 1.min(last), last / 2, last]
        };
        targets.dedup();
        for i in targets {
            let payload_len = decode_record(&records[i])
                .expect("own record")
                .payload
                .len();
            for at in positions(payload_len) {
                let damaged = [
                    resealed(&records[i], |p| p.truncate(at)),
                    resealed(&records[i], |p| p[at] ^= 1 << (at % 8)),
                ];
                for bad in damaged {
                    let mut stream = records[..=i].to_vec();
                    stream[i] = bad;
                    assert_eq!(
                        assemble(&stream),
                        assemble_reference(&stream),
                        "record {i} of {} damaged at {at}, budget {budget}",
                        records.len()
                    );
                }
            }
            // Damage the record's own framing too: the record checksum's
            // verdict must not depend on the codec behind it.
            let mut stream = records[..=i].to_vec();
            stream[i][records[i].len() / 2] ^= 0x20;
            assert_eq!(assemble(&stream), assemble_reference(&stream));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn payloads_and_records_are_the_reference_bytes(frame in arb_frame()) {
        check_identity(&frame);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn damaged_payloads_and_records_get_the_reference_verdict(frame in arb_frame()) {
        check_damage(&frame);
    }
}

/// The sizes the strategy only samples, every time: no points, one point
/// and 5 000, over a single cell and over a non-cubic grid.
#[test]
fn edge_sizes_are_the_reference_bytes() {
    for (seed, n) in [(1u64, 0usize), (2, 1), (3, 5_000)] {
        for dims in [[1, 1, 1], [9, 2, 5]] {
            let frame = frame_from(seed, n, dims);
            check_identity(&frame);
            check_damage(&frame);
        }
    }
}
