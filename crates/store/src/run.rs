//! The chunked, checksummed on-disk run format (`AVRUNST1`).
//!
//! A *run* is a whole time series in one file, and the one on-disk
//! layout of partitioned particles (§2.3's two parts, per frame): each
//! frame's octree is an embedded *node blob* ([`write_node_file`] output)
//! and its density-sorted particle array is split into fixed-size
//! *chunks* of 48-byte records ([`Particle::to_le_bytes`]). Every blob and
//! every chunk carries an FNV-1a-64 checksum that is verified on each
//! read, so a flipped bit anywhere in the data region surfaces as a
//! structured I/O error, never as silently wrong particles.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! "AVRUNST1" | u32 version | u32 frame_count | u64 chunk_bytes
//! frame directory: frame_count × { node_off, node_len, node_fnv,
//!                                  first_chunk, n_chunks, particle_count }
//! u64 chunk_count
//! chunk table: chunk_count × { off, len, fnv }
//! data region: node blobs and particle chunks
//! ```
//!
//! The split layout exists for out-of-core serving: directories and node
//! blobs are small and read eagerly; particle chunks — the bulk — are
//! fetched on demand with bounds-checked positioned reads, so a run much
//! larger than RAM never has to be resident at once. Chunk size is always
//! a multiple of the 48-byte particle record so a record never straddles
//! chunks, and [`RunStore::load_prefix`] reads only the chunks covering a
//! threshold extraction's kept prefix: "discarded particles are never
//! read from disk".

use accelviz_beam::io::BYTES_PER_PARTICLE;
use accelviz_beam::particle::Particle;
use accelviz_octree::node::Octree;
use accelviz_octree::plots::PlotType;
use accelviz_octree::sorted_store::PartitionedData;
use accelviz_octree::store_io::{read_node_file, write_node_file};
use std::fs::File;
use std::io::{self, Write};
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Magic bytes of a run file.
pub const RUN_MAGIC: [u8; 8] = *b"AVRUNST1";
/// Format version written by this build.
pub const RUN_VERSION: u32 = 1;
/// Default chunk size: 64 KiB rounded to whole particle records.
pub const DEFAULT_CHUNK_BYTES: u64 = 65_520;

const HEADER_BYTES: u64 = 24;
const FRAME_DIR_BYTES: u64 = 48;
const CHUNK_DIR_BYTES: u64 = 24;
/// Upper bound on plausible frame/chunk counts (header-corruption guard).
const MAX_TABLE_ENTRIES: u64 = 1 << 28;

pub use crate::fnv1a64;
use crate::fnv1a64_x4;

/// Chunks [`RunStore::load_range`] reads and verifies per group.
const CHECKSUM_LANES: usize = 4;

/// Rounds a requested chunk size up to a positive multiple of the
/// 48-byte particle record.
pub fn round_chunk_bytes(requested: u64) -> u64 {
    let c = requested.max(BYTES_PER_PARTICLE);
    c.div_ceil(BYTES_PER_PARTICLE) * BYTES_PER_PARTICLE
}

#[derive(Clone, Copy, Debug)]
struct FrameDir {
    node_off: u64,
    node_len: u64,
    node_fnv: u64,
    first_chunk: u64,
    n_chunks: u64,
    particle_count: u64,
}

#[derive(Clone, Copy, Debug)]
struct ChunkDir {
    off: u64,
    len: u64,
    fnv: u64,
}

fn particle_bytes(particles: &[Particle]) -> Vec<u8> {
    let mut out = Vec::with_capacity(particles.len() * BYTES_PER_PARTICLE as usize);
    for p in particles {
        out.extend_from_slice(&p.to_le_bytes());
    }
    out
}

/// [`fnv1a64`] of every piece, in order, hashed [`CHECKSUM_LANES`] at a
/// time ([`fnv1a64_x4`]). A ragged last group repeats its first piece in
/// the spare lanes: an empty lane would end the lanes' common length at
/// zero and leave every piece to the one-lane tail.
fn hash_in_lanes(pieces: &[&[u8]]) -> Vec<u64> {
    let mut hashes = Vec::with_capacity(pieces.len());
    for group in pieces.chunks(CHECKSUM_LANES) {
        let lanes = std::array::from_fn(|k| *group.get(k).unwrap_or(&group[0]));
        hashes.extend_from_slice(&fnv1a64_x4(lanes)[..group.len()]);
    }
    hashes
}

/// Writes `frames` as one run file. Returns the total bytes written.
/// `chunk_bytes` is rounded up to a whole number of particle records.
pub fn write_run<W: Write>(
    w: &mut W,
    frames: &[PartitionedData],
    chunk_bytes: u64,
) -> io::Result<u64> {
    let chunk_bytes = round_chunk_bytes(chunk_bytes);

    // Serialize every frame's node blob and particle bytes up front so
    // all offsets are known before the first header byte goes out —
    // this keeps the writer a plain `Write` sink (no Seek required).
    let mut node_blobs = Vec::with_capacity(frames.len());
    let mut payloads = Vec::with_capacity(frames.len());
    for data in frames {
        let mut blob = Vec::new();
        write_node_file(data, &mut blob)?;
        node_blobs.push(blob);
        payloads.push(particle_bytes(data.particles()));
    }

    let chunks: Vec<&[u8]> = payloads
        .iter()
        .flat_map(|p| p.chunks(chunk_bytes as usize))
        .collect();
    let total_chunks = chunks.len() as u64;
    let mut chunk_fnvs = hash_in_lanes(&chunks).into_iter();
    let blobs: Vec<&[u8]> = node_blobs.iter().map(Vec::as_slice).collect();
    let mut blob_fnvs = hash_in_lanes(&blobs).into_iter();
    let mut off =
        HEADER_BYTES + frames.len() as u64 * FRAME_DIR_BYTES + 8 + total_chunks * CHUNK_DIR_BYTES;

    let mut frame_dirs = Vec::with_capacity(frames.len());
    let mut chunk_dirs = Vec::with_capacity(chunks.len());
    for (data, blob) in frames.iter().zip(&node_blobs) {
        let payload = &payloads[frame_dirs.len()];
        let node_off = off;
        off += blob.len() as u64;
        let first_chunk = chunk_dirs.len() as u64;
        for (chunk, fnv) in payload.chunks(chunk_bytes as usize).zip(&mut chunk_fnvs) {
            chunk_dirs.push(ChunkDir {
                off,
                len: chunk.len() as u64,
                fnv,
            });
            off += chunk.len() as u64;
        }
        frame_dirs.push(FrameDir {
            node_off,
            node_len: blob.len() as u64,
            node_fnv: blob_fnvs.next().expect("one hash per blob"),
            first_chunk,
            n_chunks: chunk_dirs.len() as u64 - first_chunk,
            particle_count: data.particles().len() as u64,
        });
    }

    w.write_all(&RUN_MAGIC)?;
    w.write_all(&RUN_VERSION.to_le_bytes())?;
    w.write_all(&(frames.len() as u32).to_le_bytes())?;
    w.write_all(&chunk_bytes.to_le_bytes())?;
    for d in &frame_dirs {
        for v in [
            d.node_off,
            d.node_len,
            d.node_fnv,
            d.first_chunk,
            d.n_chunks,
            d.particle_count,
        ] {
            w.write_all(&v.to_le_bytes())?;
        }
    }
    w.write_all(&total_chunks.to_le_bytes())?;
    for c in &chunk_dirs {
        for v in [c.off, c.len, c.fnv] {
            w.write_all(&v.to_le_bytes())?;
        }
    }
    for (blob, payload) in node_blobs.iter().zip(&payloads) {
        w.write_all(blob)?;
        w.write_all(payload)?;
    }
    Ok(off)
}

/// Writes `frames` to a run file at `path` (create/truncate).
pub fn write_run_file(
    path: &Path,
    frames: &[PartitionedData],
    chunk_bytes: u64,
) -> io::Result<u64> {
    let mut f = File::create(path)?;
    let n = write_run(&mut f, frames, chunk_bytes)?;
    f.flush()?;
    Ok(n)
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn u64_at(buf: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(buf[off..off + 8].try_into().unwrap())
}

/// Random-access bytes of an open run file. The length is captured at
/// open and every read is checked against it before anything is
/// allocated or read, so an offset or length taken from the file's own
/// tables can cost an error, never a short read or a huge buffer.
struct ChunkSource {
    file: File,
    len: u64,
}

impl ChunkSource {
    fn open(path: &Path) -> io::Result<ChunkSource> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        Ok(ChunkSource { file, len })
    }

    fn check(&self, off: u64, len: usize) -> io::Result<()> {
        match off.checked_add(len as u64) {
            Some(end) if end <= self.len => Ok(()),
            _ => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("read of {len} bytes at {off} runs past end ({})", self.len),
            )),
        }
    }

    /// Fills `buf` from byte offset `off` — the one read.
    fn read_into(&self, off: u64, buf: &mut [u8]) -> io::Result<()> {
        self.check(off, buf.len())?;
        #[cfg(unix)]
        {
            std::os::unix::fs::FileExt::read_exact_at(&self.file, buf, off)
        }
        #[cfg(not(unix))]
        {
            // No positioned-read primitive: seek + read on a duplicated
            // handle so `&self` reads stay possible.
            use std::io::{Read, Seek, SeekFrom};
            let mut f = self.file.try_clone()?;
            f.seek(SeekFrom::Start(off))?;
            f.read_exact(buf)
        }
    }

    /// Reads exactly `len` bytes at byte offset `off` into a fresh buffer.
    fn read_at(&self, off: u64, len: usize) -> io::Result<Vec<u8>> {
        self.check(off, len)?;
        let mut buf = vec![0u8; len];
        self.read_into(off, &mut buf)?;
        Ok(buf)
    }
}

/// An open run file: parsed directories plus on-demand chunk access.
/// Directory and chunk checksums are verified on every read; I/O volume
/// is tracked in atomic counters for the bench and serve stats.
pub struct RunStore {
    src: ChunkSource,
    chunk_bytes: u64,
    frames: Vec<FrameDir>,
    chunks: Vec<ChunkDir>,
    chunks_read: AtomicU64,
    bytes_read: AtomicU64,
}

impl RunStore {
    /// Opens and validates a run file. The directories are read eagerly;
    /// the data region stays on disk until a frame is loaded.
    pub fn open(path: &Path) -> io::Result<RunStore> {
        let src = ChunkSource::open(path)?;
        let file_len = src.len;
        let header = src.read_at(0, HEADER_BYTES as usize)?;
        if header[..8] != RUN_MAGIC {
            return Err(bad("bad run-file magic"));
        }
        let version = u32::from_le_bytes(header[8..12].try_into().unwrap());
        if version != RUN_VERSION {
            return Err(bad(format!("unsupported run-format version {version}")));
        }
        let frame_count = u64::from(u32::from_le_bytes(header[12..16].try_into().unwrap()));
        let chunk_bytes = u64_at(&header, 16);
        if chunk_bytes == 0 || !chunk_bytes.is_multiple_of(BYTES_PER_PARTICLE) {
            return Err(bad(format!(
                "chunk size {chunk_bytes} is not a record multiple"
            )));
        }
        if frame_count > MAX_TABLE_ENTRIES {
            return Err(bad(format!("implausible frame count {frame_count}")));
        }

        let dir_bytes = frame_count * FRAME_DIR_BYTES;
        let dir = src.read_at(HEADER_BYTES, dir_bytes as usize)?;
        let mut frames = Vec::with_capacity(frame_count as usize);
        for i in 0..frame_count as usize {
            let b = i * FRAME_DIR_BYTES as usize;
            frames.push(FrameDir {
                node_off: u64_at(&dir, b),
                node_len: u64_at(&dir, b + 8),
                node_fnv: u64_at(&dir, b + 16),
                first_chunk: u64_at(&dir, b + 24),
                n_chunks: u64_at(&dir, b + 32),
                particle_count: u64_at(&dir, b + 40),
            });
        }

        let count_off = HEADER_BYTES + dir_bytes;
        let chunk_count = u64_at(&src.read_at(count_off, 8)?, 0);
        if chunk_count > MAX_TABLE_ENTRIES {
            return Err(bad(format!("implausible chunk count {chunk_count}")));
        }
        let table = src.read_at(count_off + 8, (chunk_count * CHUNK_DIR_BYTES) as usize)?;
        let mut chunks = Vec::with_capacity(chunk_count as usize);
        for i in 0..chunk_count as usize {
            let b = i * CHUNK_DIR_BYTES as usize;
            let c = ChunkDir {
                off: u64_at(&table, b),
                len: u64_at(&table, b + 8),
                fnv: u64_at(&table, b + 16),
            };
            if c.len > chunk_bytes || !c.len.is_multiple_of(BYTES_PER_PARTICLE) {
                return Err(bad(format!("chunk {i} has invalid length {}", c.len)));
            }
            if c.off.checked_add(c.len).is_none_or(|e| e > file_len) {
                return Err(bad(format!("chunk {i} runs past end of file")));
            }
            chunks.push(c);
        }

        for (i, f) in frames.iter().enumerate() {
            if f.node_off
                .checked_add(f.node_len)
                .is_none_or(|e| e > file_len)
            {
                return Err(bad(format!("frame {i} node blob runs past end of file")));
            }
            let last = f
                .first_chunk
                .checked_add(f.n_chunks)
                .ok_or_else(|| bad(format!("frame {i} chunk range overflows")))?;
            if last > chunk_count {
                return Err(bad(format!("frame {i} references missing chunks")));
            }
            let covered: u64 = chunks[f.first_chunk as usize..last as usize]
                .iter()
                .map(|c| c.len)
                .sum();
            if f.particle_count.checked_mul(BYTES_PER_PARTICLE) != Some(covered) {
                return Err(bad(format!(
                    "frame {i} chunks cover {covered} bytes for {} particles",
                    f.particle_count
                )));
            }
        }

        Ok(RunStore {
            src,
            chunk_bytes,
            frames,
            chunks,
            chunks_read: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
        })
    }

    /// Number of frames in the run.
    pub fn frame_count(&self) -> usize {
        self.frames.len()
    }

    /// Chunk size of the data region.
    pub fn chunk_bytes(&self) -> u64 {
        self.chunk_bytes
    }

    /// Particle count of frame `i` (directory lookup, no data read).
    pub fn particle_count(&self, i: usize) -> u64 {
        self.frames[i].particle_count
    }

    /// Particle bytes of frame `i` — what residency accounting charges.
    pub fn frame_bytes(&self, i: usize) -> u64 {
        self.frames[i].particle_count * BYTES_PER_PARTICLE
    }

    /// `(chunks_read, bytes_read)` so far: the particle chunks
    /// [`RunStore::load_range`] has read, and their bytes plus the
    /// node blobs [`RunStore::read_tree`] has read. The header and tables
    /// read once by [`RunStore::open`] are not counted.
    pub fn io_stats(&self) -> (u64, u64) {
        (
            self.chunks_read.load(Ordering::Relaxed),
            self.bytes_read.load(Ordering::Relaxed),
        )
    }

    /// Reads and checksum-verifies frame `i`'s node blob, parsing it into
    /// the octree and plot type.
    pub fn read_tree(&self, i: usize) -> io::Result<(Octree, PlotType)> {
        let d = &self.frames[i];
        let blob = self.src.read_at(d.node_off, d.node_len as usize)?;
        self.bytes_read
            .fetch_add(blob.len() as u64, Ordering::Relaxed);
        if fnv1a64(&blob) != d.node_fnv {
            return Err(bad(format!("frame {i} node blob failed checksum")));
        }
        read_node_file(&mut blob.as_slice())
    }

    /// Reads and checksum-verifies all particle chunks of frame `i`:
    /// [`RunStore::load_prefix`] of the whole frame.
    pub fn load_particles(&self, i: usize) -> io::Result<Vec<Particle>> {
        self.load_prefix(i, self.particle_count(i))
    }

    /// Frame `i`'s first `n` particles — the kept prefix of a threshold
    /// extraction when `n` is
    /// [`kept_prefix_tree`](accelviz_octree::extraction::kept_prefix_tree)
    /// of the frame's tree: [`RunStore::load_range`] from record 0.
    pub fn load_prefix(&self, i: usize, n: u64) -> io::Result<Vec<Particle>> {
        self.load_range(i, 0..n)
    }

    /// Frame `i`'s records `records.start..records.end`. Only the chunks
    /// covering those records are read, four to a group: read the group,
    /// hash its chunks side by side ([`fnv1a64_x4`]), compare every hash
    /// with its table entry, and only then decode the group's records. So
    /// a reader holding a prefix extends it by the chunks beyond it alone
    /// (the chunk its last record ends in is read again when that record
    /// ends mid-chunk). An empty range reads nothing; a reversed range or
    /// one past the frame's particle count is `InvalidInput`, refused
    /// before anything is sized.
    pub fn load_range(&self, i: usize, records: Range<u64>) -> io::Result<Vec<Particle>> {
        let d = &self.frames[i];
        let Range { start, end } = records;
        if start > end || end > d.particle_count {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "records {start}..{end} asked of frame {i}'s {}",
                    d.particle_count
                ),
            ));
        }
        if start == end {
            return Ok(Vec::new());
        }
        // Byte offsets within the frame. The frame's chunks cover exactly
        // its `particle_count` records (checked at open), so both walks
        // stay in the table.
        let (lo, hi) = (start * BYTES_PER_PARTICLE, end * BYTES_PER_PARTICLE);
        let mut begin = d.first_chunk as usize;
        let mut at = 0;
        while at + self.chunks[begin].len <= lo {
            at += self.chunks[begin].len;
            begin += 1;
        }
        // Bytes of the first chunk before the range, then bytes of
        // records still to decode.
        let mut skip = lo - at;
        let mut want = hi - lo;
        let mut end_chunk = begin;
        while at < hi {
            at += self.chunks[end_chunk].len;
            end_chunk += 1;
        }
        let chunks = &self.chunks[begin..end_chunk];
        // One scratch buffer per load, one group wide, sized from these
        // chunks' own table entries (each checked against the file length
        // at open) — never from the header's `chunk_bytes`, which is only
        // a claim.
        let largest = chunks.iter().map(|c| c.len).max().unwrap_or(0);
        let mut scratch = vec![0u8; CHECKSUM_LANES * largest as usize];
        // Room for the records those entries hold, and never more than
        // the file could: two entries may name the same bytes.
        let capacity = (end - start).min(self.src.len / BYTES_PER_PARTICLE);
        let mut particles = Vec::with_capacity(capacity as usize);
        for (group, ci) in chunks
            .chunks(CHECKSUM_LANES)
            .zip((begin..).step_by(CHECKSUM_LANES))
        {
            // A ragged last group leaves its spare lanes empty.
            let mut lanes: [&[u8]; CHECKSUM_LANES] = [&[]; CHECKSUM_LANES];
            let mut free = scratch.as_mut_slice();
            for (lane, c) in lanes.iter_mut().zip(group) {
                let (bytes, rest) = free.split_at_mut(c.len as usize);
                free = rest;
                self.src.read_into(c.off, bytes)?;
                self.chunks_read.fetch_add(1, Ordering::Relaxed);
                self.bytes_read.fetch_add(c.len, Ordering::Relaxed);
                *lane = bytes;
            }
            let hashes = fnv1a64_x4(lanes);
            for ((ci, c), hash) in (ci..).zip(group).zip(hashes) {
                if hash != c.fnv {
                    return Err(bad(format!("chunk {ci} of frame {i} failed checksum")));
                }
            }
            // The first chunk read may start before the range, the last
            // may run past it.
            for bytes in &lanes[..group.len()] {
                let from = skip.min(bytes.len() as u64);
                skip -= from;
                let bytes = &bytes[from as usize..];
                let kept = &bytes[..bytes.len().min(want as usize)];
                want -= kept.len() as u64;
                particles.extend(kept.as_chunks().0.iter().map(Particle::from_le_bytes));
            }
        }
        Ok(particles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelviz_beam::distribution::Distribution;
    use accelviz_octree::builder::{partition, BuildParams};
    use accelviz_octree::extraction::{extract, kept_prefix_tree, threshold_for_budget_tree};

    fn build_frames(n_frames: usize, particles_each: usize) -> Vec<PartitionedData> {
        (0..n_frames)
            .map(|i| {
                let ps = Distribution::default_beam().sample(particles_each, i as u64 + 1);
                partition(&ps, PlotType::X_PX_Y, BuildParams::default())
            })
            .collect()
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("accelviz-run-{name}-{}", std::process::id()))
    }

    #[test]
    fn roundtrip_preserves_trees_and_particles() {
        let frames = build_frames(3, 1_200);
        let path = scratch("roundtrip");
        let written = write_run_file(&path, &frames, 4_096).unwrap();
        assert_eq!(written, std::fs::metadata(&path).unwrap().len());

        let store = RunStore::open(&path).unwrap();
        assert_eq!(store.frame_count(), 3);
        // 4096 rounds up to the next record multiple.
        assert_eq!(store.chunk_bytes() % BYTES_PER_PARTICLE, 0);
        for (i, data) in frames.iter().enumerate() {
            assert_eq!(store.particle_count(i) as usize, data.particles().len());
            let (tree, plot) = store.read_tree(i).unwrap();
            assert_eq!(plot, data.plot());
            assert_eq!(tree.nodes.len(), data.tree().nodes.len());
            let particles = store.load_particles(i).unwrap();
            assert_eq!(particles, data.particles());
        }
        let (chunks, bytes) = store.io_stats();
        assert!(
            chunks > 3,
            "1200 particles at ~4KiB chunks span many chunks"
        );
        assert!(bytes > 3 * 1_200 * 48);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn data_region_bitflip_fails_the_chunk_checksum() {
        let frames = build_frames(1, 500);
        let path = scratch("bitflip");
        let total = write_run_file(&path, &frames, 1_024).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.len() as u64, total);
        // Flip one bit near the end of the data region (inside the last
        // particle chunk).
        let n = bytes.len();
        bytes[n - 7] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let store = RunStore::open(&path).unwrap();
        let err = store.load_particles(0).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    /// 10-record chunks over frames of 85, 95 and 105 particles: 9, 10
    /// and 11 chunks, so every ragged last group (one, two and three
    /// lanes in use) occurs, each ending in a short chunk.
    fn ragged_frames() -> Vec<PartitionedData> {
        [85, 95, 105]
            .iter()
            .map(|&n| {
                let ps = Distribution::default_beam().sample(n, n as u64);
                partition(&ps, PlotType::X_PX_Y, BuildParams::default())
            })
            .collect()
    }

    #[test]
    fn ragged_last_groups_roundtrip() {
        let frames = ragged_frames();
        let path = scratch("ragged");
        write_run_file(&path, &frames, 480).unwrap();
        let store = RunStore::open(&path).unwrap();
        for (i, data) in frames.iter().enumerate() {
            let n_chunks = store.frames[i].n_chunks as usize;
            assert_eq!(n_chunks % CHECKSUM_LANES, i + 1, "frame {i}");
            let last = &store.chunks[store.frames[i].first_chunk as usize + n_chunks - 1];
            assert!(last.len < store.chunk_bytes(), "short last chunk");
            assert_eq!(store.load_particles(i).unwrap(), data.particles());
        }
        assert_eq!(store.io_stats().0, 9 + 10 + 11, "every chunk read once");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_bitflip_in_any_lane_names_that_lanes_chunk() {
        let frames = ragged_frames();
        let path = scratch("lane-flip");
        write_run_file(&path, &frames, 480).unwrap();
        let clean = std::fs::read(&path).unwrap();
        let frame = 2;
        let (first, offsets) = {
            let store = RunStore::open(&path).unwrap();
            let d = store.frames[frame];
            let (first, n) = (d.first_chunk as usize, d.n_chunks as usize);
            let table = &store.chunks[first..first + n];
            (
                first,
                table.iter().map(|c| c.off as usize).collect::<Vec<_>>(),
            )
        };
        // Every chunk of the frame in turn: each lane of the two full
        // groups, then each used lane of the ragged last one.
        for (ci, off) in (first..).zip(offsets) {
            let mut bytes = clean.clone();
            bytes[off + 17] ^= 0x04;
            std::fs::write(&path, &bytes).unwrap();
            let store = RunStore::open(&path).unwrap();
            let err = store.load_particles(frame).unwrap_err().to_string();
            let named = format!("chunk {ci} of frame {frame} failed checksum");
            assert_eq!(err, named);
            // The other frames' chunks are untouched and still verify.
            assert_eq!(store.load_particles(0).unwrap(), frames[0].particles());
            std::fs::write(&path, &clean).unwrap();
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_file_is_rejected_at_open() {
        let frames = build_frames(1, 300);
        let path = scratch("trunc");
        write_run_file(&path, &frames, 2_048).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 100]).unwrap();
        assert!(RunStore::open(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_header_is_rejected() {
        let frames = build_frames(1, 100);
        let path = scratch("header");
        write_run_file(&path, &frames, 2_048).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(RunStore::open(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_run_and_empty_frames_are_legal() {
        let path = scratch("empty");
        write_run_file(&path, &[], 1_024).unwrap();
        let store = RunStore::open(&path).unwrap();
        assert_eq!(store.frame_count(), 0);

        let empty = partition(&[], PlotType::XYZ, BuildParams::default());
        write_run_file(&path, &[empty], 1_024).unwrap();
        let store = RunStore::open(&path).unwrap();
        assert_eq!(store.frame_count(), 1);
        assert_eq!(store.particle_count(0), 0);
        assert!(store.load_particles(0).unwrap().is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn write_run_bytes_are_pinned() {
        // The digest of this seeded 3-frame run as `AVRUNST1` v1 has
        // always written it: a change to any byte of the format fails here.
        let frames = build_frames(3, 1_000);
        let mut bytes = Vec::new();
        let written = write_run(&mut bytes, &frames, 4_096).unwrap();
        assert_eq!((written, bytes.len()), (147_632, 147_632));
        assert_eq!(fnv1a64(&bytes), 0xf8f4_a25b_a52b_c5d4);
    }

    #[test]
    fn a_directory_particle_count_that_overflows_its_bytes_is_rejected() {
        // 10 + 2^60 records claim (10 + 2^60) · 48 bytes, which wraps to
        // exactly the 480 the frame's one chunk covers.
        let frames = build_frames(1, 10);
        let path = scratch("count-overflow");
        write_run_file(&path, &frames, 480).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let claimed = 10u64 + (1 << 60);
        // Frame 0's `particle_count`: header 24 + five u64 fields.
        bytes[64..72].copy_from_slice(&claimed.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = match RunStore::open(&path) {
            Err(e) => e,
            Ok(store) => store
                .load_particles(0)
                .expect_err("a count the chunks do not hold"),
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn extraction_reads_only_the_kept_prefix_of_a_frame() {
        // §2.3: "discarded particles are never read from disk". The kept
        // count comes from the frame's tree alone; the prefix read from
        // the run is the extraction, and it costs exactly the chunks that
        // hold it.
        let frames = build_frames(1, 5_000);
        let path = scratch("prefix-proof");
        write_run_file(&path, &frames, 4_096).unwrap();
        let store = RunStore::open(&path).unwrap();
        let (tree, _) = store.read_tree(0).unwrap();
        let t = threshold_for_budget_tree(&tree, 700);
        let kept = kept_prefix_tree(&tree, t);
        let expected = extract(&frames[0], t);
        assert!(kept > 0 && kept <= 700, "kept {kept}");

        let (chunks_before, bytes_before) = store.io_stats();
        let prefix = store.load_prefix(0, kept).unwrap();
        let (chunks_after, bytes_after) = store.io_stats();
        assert_eq!(prefix, expected.particles);
        let chunks = (kept * BYTES_PER_PARTICLE).div_ceil(store.chunk_bytes());
        assert_eq!(chunks_after - chunks_before, chunks);
        let read = bytes_after - bytes_before;
        assert_eq!(
            read,
            chunks * store.chunk_bytes(),
            "whole chunks, none past the prefix"
        );
        assert!(
            read < store.frame_bytes(0) / 2,
            "read {read} of the frame's {} particle bytes",
            store.frame_bytes(0)
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn prefix_reads_stop_at_the_chunk_that_holds_the_last_record() {
        // 4_128-byte chunks hold 86 records; 1_000 particles end in a
        // ragged 12th chunk of 54.
        let frames = build_frames(1, 1_000);
        let path = scratch("prefix-edges");
        write_run_file(&path, &frames, 4_096).unwrap();
        let store = RunStore::open(&path).unwrap();
        let all = frames[0].particles();
        let per_chunk = store.chunk_bytes() / BYTES_PER_PARTICLE;
        assert_eq!(per_chunk, 86);
        for (n, chunks) in [
            (0, 0),
            (1, 1),
            (per_chunk, 1),
            (per_chunk + 1, 2),
            (4 * per_chunk, 4),
            (5 * per_chunk, 5),
            (11 * per_chunk + 1, 12),
            (999, 12),
            (1_000, 12),
        ] {
            let before = store.io_stats().0;
            let prefix = store.load_prefix(0, n).unwrap();
            assert_eq!(prefix, &all[..n as usize], "n = {n}");
            assert_eq!(
                store.io_stats().0 - before,
                chunks,
                "chunks read for n = {n}"
            );
        }
        assert_eq!(
            store.load_prefix(0, 1_000).unwrap(),
            store.load_particles(0).unwrap()
        );
        for n in [1_001, 1 << 40, u64::MAX] {
            let err = store.load_prefix(0, n).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "n = {n}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_range_reads_the_chunks_it_touches_and_no_others() {
        // 86 records to a chunk, 1_000 records in 12 chunks.
        let frames = build_frames(1, 1_000);
        let path = scratch("range-edges");
        write_run_file(&path, &frames, 4_096).unwrap();
        let store = RunStore::open(&path).unwrap();
        let all = frames[0].particles();
        for (start, end, chunks) in [
            (0, 0, 0),
            (500, 500, 0),
            (0, 86, 1),
            (86, 87, 1),
            (85, 87, 2),
            (100, 400, 4),
            (86, 1_000, 11),
            (999, 1_000, 1),
            (1_000, 1_000, 0),
        ] {
            let before = store.io_stats().0;
            let got = store.load_range(0, start..end).unwrap();
            assert_eq!(got, &all[start as usize..end as usize], "{start}..{end}");
            let read = store.io_stats().0 - before;
            assert_eq!(read, chunks, "chunks read for {start}..{end}");
        }
        for (start, end) in [(2, 1), (0, 1_001), (1_001, 1_001)] {
            let err = store.load_range(0, start..end).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{start}..{end}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn chunk_rounding_is_record_aligned() {
        assert_eq!(round_chunk_bytes(0), 48);
        assert_eq!(round_chunk_bytes(1), 48);
        assert_eq!(round_chunk_bytes(48), 48);
        assert_eq!(round_chunk_bytes(49), 96);
        assert_eq!(round_chunk_bytes(65_536), 65_568);
        assert_eq!(DEFAULT_CHUNK_BYTES % 48, 0);
    }

    #[test]
    fn a_terabyte_chunk_size_claim_costs_no_memory() {
        // One short chunk per frame under a header that claims 1 TiB
        // chunks: legal, and sizing the read buffer from that claim
        // instead of the chunk table would abort on allocation.
        let frames = build_frames(2, 300);
        let path = scratch("tib");
        write_run_file(&path, &frames, 1 << 40).unwrap();
        let store = RunStore::open(&path).unwrap();
        assert!(store.chunk_bytes() >= 1 << 40);
        for (i, data) in frames.iter().enumerate() {
            assert_eq!(store.load_particles(i).unwrap(), data.particles());
        }
        assert_eq!(store.io_stats().0, 2, "one chunk per frame");
        let _ = std::fs::remove_file(&path);
    }

    fn source_over(name: &str, bytes: &[u8]) -> (ChunkSource, std::path::PathBuf) {
        let path = scratch(name);
        std::fs::write(&path, bytes).unwrap();
        (ChunkSource::open(&path).unwrap(), path)
    }

    #[test]
    fn positioned_reads_return_the_files_bytes() {
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 255) as u8).collect();
        let (src, path) = source_over("src-bytes", &payload);
        for (off, len) in [(0u64, 16usize), (9_984, 16), (123, 4_096), (0, 10_000)] {
            assert_eq!(
                src.read_at(off, len).unwrap(),
                payload[off as usize..off as usize + len]
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn out_of_range_reads_are_errors_not_panics() {
        let (src, path) = source_over("src-oob", &[1, 2, 3, 4]);
        assert!(src.read_at(0, 5).is_err());
        assert!(src.read_at(4, 1).is_err());
        assert!(src.read_at(u64::MAX, 1).is_err());
        assert_eq!(src.read_at(4, 0).unwrap(), Vec::<u8>::new());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_files_are_servable() {
        let (src, path) = source_over("src-empty", &[]);
        assert_eq!(src.len, 0);
        assert_eq!(src.read_at(0, 0).unwrap(), Vec::<u8>::new());
        assert!(src.read_at(0, 1).is_err());
        let _ = std::fs::remove_file(&path);
    }
}
