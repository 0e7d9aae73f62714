//! Residency management over a run: what of each frame is in memory.
//!
//! A [`ResidentRun`] keeps every frame's octree resident (node blobs are
//! tiny — 88 bytes per node — and reading them eagerly doubles as a
//! fail-fast pass over all directory metadata: checksums and the store
//! invariant). Of a frame's particles it keeps what extraction uses: the
//! frame's density grid, binned when the frame is first read, and the
//! longest kept prefix asked of it since — so after a frame's first read,
//! "discarded particles are never read from disk" (§2.3). The window is
//! a [`Cache`] keyed by frame index and weighed in the bytes an entry
//! holds, prefix records plus grid cells, so the whole pipeline shares
//! one eviction policy.
//!
//! A request is one of three things, each counted:
//! - *cold*: the frame is not resident. Every chunk is read and verified
//!   once, the grid is binned from them, and only the asked prefix is
//!   kept, copied out of the read.
//! - *extension*: the entry holds a shorter prefix, or a grid at other
//!   dims. Only the records beyond the held prefix are read; a grid at
//!   new dims needs the whole frame, so it reads the rest of it.
//! - *warm*: the entry holds what was asked. Nothing is read.
//!
//! An entry holds one grid, at the dims last asked for: a run serves
//! one `volume_dims` efficiently. Servers at different dims that share
//! one run replace each other's grids, and each switch re-reads the
//! records beyond the held prefix and bins again.
//!
//! Loads run outside the window's lock: distinct cold frames page in
//! concurrently, a warm hit never waits behind another frame's disk
//! read, and concurrent requests of the *same* cold frame coalesce onto
//! one load. A coalesced request that wanted a longer prefix than the
//! load kept extends it. Extensions of one frame take turns, so an entry
//! only grows while it is resident, and a request that waited on another
//! extension reads only what that one did not.
//!
//! A run already in memory ([`ResidentRun::from_memory`]) is the same
//! window seeded with every frame whole, with no file behind it and so no
//! bound on its budget: nothing is evicted or read, a frame's first
//! request at some dims bins its grid, and every later one is warm.

use crate::cache::{Cache, Lookup};
use crate::run::RunStore;
use accelviz_beam::io::BYTES_PER_PARTICLE;
use accelviz_beam::particle::Particle;
use accelviz_core::hybrid::HybridFrame;
use accelviz_octree::density::DensityGrid;
use accelviz_octree::extraction::kept_prefix;
use accelviz_octree::node::Octree;
use accelviz_octree::plots::PlotType;
use accelviz_octree::sorted_store::{checked_store_order, PartitionedData};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A run's frames behind an in-memory residency window: paged in from a
/// run file, or seeded with frames already in memory.
pub struct ResidentRun {
    /// The run file; `None` for a window seeded from memory.
    store: Option<RunStore>,
    /// Every frame's octree and plot type, always resident.
    trees: Vec<(Octree, PlotType)>,
    /// Every frame's leaves in store order, checked once.
    store_orders: Vec<Vec<u32>>,
    /// Every frame's particle count.
    counts: Vec<u64>,
    /// One turn at extending each frame's entry.
    extending: Vec<Mutex<()>>,
    budget_bytes: u64,
    /// What is held of each frame, by frame index. A failed load travels
    /// to its coalesced waiters as the `io::Error`'s kind and message.
    window: Cache<u32, Held, (io::ErrorKind, String)>,
    cold_loads: AtomicU64,
    prefix_extensions: AtomicU64,
    warm_hits: AtomicU64,
    grids_binned: AtomicU64,
}

/// What the window holds of one frame.
struct Held {
    particles: Kept,
    /// The frame binned at the dims last asked for; `None` while only
    /// [`ResidentRun::fetch`] has asked.
    grid: Option<Arc<DensityGrid>>,
}

/// A held prefix of a frame's density-sorted particles.
#[derive(Clone)]
enum Kept {
    /// Fewer than all of them.
    Prefix(Vec<Particle>),
    /// All of them, as the frame's store: what [`ResidentRun::fetch`]
    /// shares.
    Whole(Arc<PartitionedData>),
}

impl Held {
    fn particles(&self) -> &[Particle] {
        match &self.particles {
            Kept::Prefix(prefix) => prefix,
            Kept::Whole(data) => data.particles(),
        }
    }

    /// What the window charges: prefix records plus grid cells.
    fn weight(&self) -> u64 {
        let cells = self.grid.as_ref().map_or(0, |g| g.data().len() as u64);
        self.particles().len() as u64 * BYTES_PER_PARTICLE + cells * 4
    }

    /// Whether this entry answers a request for `want` records and, when
    /// `dims` is given, a grid at those dims.
    fn holds(&self, want: u64, dims: Option<[usize; 3]>) -> bool {
        self.particles().len() as u64 >= want && self.has_grid(dims)
    }

    /// Whether this entry holds a grid at `dims`, if any are asked for.
    fn has_grid(&self, dims: Option<[usize; 3]>) -> bool {
        dims.is_none_or(|d| self.grid.as_ref().is_some_and(|g| g.dims() == d))
    }
}

/// One frame's kept prefix and grid, as [`ResidentRun::frame`] returns
/// them.
pub struct Paged {
    held: Arc<Held>,
    /// Whether this request read nothing from disk.
    pub warm: bool,
    /// Particle bytes this request read from disk (0 when warm).
    pub bytes_loaded: u64,
}

impl Paged {
    /// The held prefix of the frame's density-sorted particles: at least
    /// the records asked for, perhaps more.
    pub fn prefix(&self) -> &[Particle] {
        self.held.particles()
    }

    /// The whole frame binned at the dims asked for.
    pub fn grid(&self) -> &DensityGrid {
        let grid = self.held.grid.as_deref();
        grid.expect("ResidentRun::frame returns a binned grid")
    }
}

/// Result of fetching one frame's partitioned data.
pub struct Fetch {
    /// The frame, shared with whatever else holds it resident.
    pub data: Arc<PartitionedData>,
    /// Whether this fetch read nothing from disk: the frame was resident,
    /// or another caller's in-flight load of it was joined.
    pub warm: bool,
    /// Particle bytes read from disk for this fetch (0 when warm).
    pub bytes_loaded: u64,
}

/// Snapshot of a [`ResidentRun`]'s residency counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResidentStats {
    /// Frames currently resident.
    pub resident_frames: usize,
    /// Bytes the window holds: kept prefixes plus grids.
    pub resident_bytes: u64,
    /// The configured residency budget.
    pub budget_bytes: u64,
    /// Requests that read a whole frame that was not resident.
    pub cold_loads: u64,
    /// Requests that read only the records beyond a held prefix.
    pub prefix_extensions: u64,
    /// Requests answered without reading.
    pub warm_hits: u64,
    /// Density grids binned, each from a whole frame.
    pub grids_binned: u64,
    /// Frames evicted to stay under budget.
    pub evictions: u64,
    /// Checksum-verified chunks read from disk so far.
    pub chunks_read: u64,
    /// Bytes read from disk so far.
    pub bytes_read: u64,
}

impl ResidentStats {
    /// The counters, under the registry names a stored server's `Stats`
    /// reply carries them by.
    pub fn counters(&self) -> [(&'static str, u64); 7] {
        [
            ("store.resident_loads", self.cold_loads),
            ("store.resident_extensions", self.prefix_extensions),
            ("store.resident_warm_hits", self.warm_hits),
            ("store.resident_grids_binned", self.grids_binned),
            ("store.resident_evictions", self.evictions),
            ("store.resident_chunks_read", self.chunks_read),
            ("store.resident_bytes_read", self.bytes_read),
        ]
    }
}

fn invalid_input(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, message)
}

impl ResidentRun {
    /// Opens a run file with a residency budget of `budget_bytes`. All
    /// octrees are loaded, checksum-verified and checked against their
    /// frame's particle count eagerly; particle data stays on disk until
    /// asked for.
    pub fn open(path: &Path, budget_bytes: u64) -> io::Result<ResidentRun> {
        let store = RunStore::open(path)?;
        let mut trees = Vec::with_capacity(store.frame_count());
        let mut store_orders = Vec::with_capacity(store.frame_count());
        for i in 0..store.frame_count() {
            let (tree, plot) = store.read_tree(i)?;
            let order = checked_store_order(&tree, store.particle_count(i)).map_err(|e| {
                io::Error::new(io::ErrorKind::InvalidData, format!("frame {i}: {e}"))
            })?;
            trees.push((tree, plot));
            store_orders.push(order);
        }
        let counts = (0..trees.len()).map(|i| store.particle_count(i)).collect();
        let run = ResidentRun::new(Some(store), trees, store_orders, counts, budget_bytes);
        Ok(run)
    }

    /// A run over frames already in memory, in frame order: the window
    /// seeded with each frame whole (see the [module docs](self)). A
    /// frame's store order is its [`PartitionedData::sorted_leaves`].
    pub fn from_memory(frames: Vec<PartitionedData>) -> ResidentRun {
        let trees = frames.iter().map(|d| (d.tree().clone(), d.plot()));
        let orders = frames.iter().map(|d| d.sorted_leaves().to_vec());
        let counts = frames.iter().map(|d| d.particles().len() as u64);
        let (trees, orders, counts) = (trees.collect(), orders.collect(), counts.collect());
        let run = ResidentRun::new(None, trees, orders, counts, u64::MAX);
        for (i, data) in frames.into_iter().enumerate() {
            let particles = Kept::Whole(Arc::new(data));
            let held = Held {
                particles,
                grid: None,
            };
            run.window.insert(i as u32, Arc::new(held));
        }
        run
    }

    /// A run over every frame's metadata, with an empty window.
    fn new(
        store: Option<RunStore>,
        trees: Vec<(Octree, PlotType)>,
        store_orders: Vec<Vec<u32>>,
        counts: Vec<u64>,
        budget_bytes: u64,
    ) -> ResidentRun {
        ResidentRun {
            extending: store_orders.iter().map(|_| Mutex::new(())).collect(),
            store,
            trees,
            store_orders,
            counts,
            budget_bytes,
            window: Cache::new(budget_bytes, Held::weight),
            cold_loads: AtomicU64::new(0),
            prefix_extensions: AtomicU64::new(0),
            warm_hits: AtomicU64::new(0),
            grids_binned: AtomicU64::new(0),
        }
    }

    /// Whether frames page in from a run file, unlike a seeded window.
    pub fn pages(&self) -> bool {
        self.store.is_some()
    }

    /// Number of frames in the run.
    pub fn frame_count(&self) -> usize {
        self.trees.len()
    }

    /// Frame `i`'s always-resident octree and plot type.
    pub fn tree(&self, i: usize) -> &(Octree, PlotType) {
        &self.trees[i]
    }

    /// Particle count of frame `i` (metadata, no fetch).
    pub fn particle_count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Total particle bytes across the run — compare against
    /// [`ResidentStats::budget_bytes`] to see how out-of-core a run is.
    pub fn total_particle_bytes(&self) -> u64 {
        self.counts.iter().map(|c| c * BYTES_PER_PARTICLE).sum()
    }

    /// Frame `i`'s first `kept` particles (or more) and its density grid
    /// at `dims`: what [`HybridFrame::from_parts`] extracts from, with
    /// `kept` the [`kept_prefix`] of [`ResidentRun::tree`]. Reads what the window does not hold (see
    /// the [module docs](self)), after evicting least-recently-used
    /// frames until the budget has room. The frame just paged is never
    /// evicted, so one larger than the whole budget still serves.
    pub fn frame(&self, i: usize, kept: u64, dims: [usize; 3]) -> io::Result<Paged> {
        self.page(i, Some(kept), Some(dims))
    }

    /// Frame `i` extracted at `threshold` beside its grid at `dims`:
    /// [`ResidentRun::frame`] of the [`kept_prefix`], then
    /// [`HybridFrame::from_parts`] — bit-identical to
    /// [`HybridFrame::from_partition`] of the frame in memory. The
    /// [`Paged`] says what the read cost.
    pub fn hybrid_frame(
        &self,
        i: usize,
        threshold: f64,
        dims: [usize; 3],
    ) -> io::Result<(HybridFrame, Paged)> {
        self.key(i)?;
        let ((tree, plot), order) = (&self.trees[i], &self.store_orders[i]);
        let paged = self.frame(i, kept_prefix(tree, order, threshold), dims)?;
        let grid = paged.grid().clone();
        let frame = HybridFrame::from_parts(tree, order, *plot, paged.prefix(), grid, i, threshold);
        Ok((frame, paged))
    }

    /// Frame `i` whole, as its partitioned store: the prefix of all its
    /// particles, through the same window as [`ResidentRun::frame`].
    pub fn fetch(&self, i: usize) -> io::Result<Fetch> {
        let paged = self.page(i, None, None)?;
        let Kept::Whole(data) = &paged.held.particles else {
            unreachable!("a prefix of every record is kept whole")
        };
        Ok(Fetch {
            data: Arc::clone(data),
            warm: paged.warm,
            bytes_loaded: paged.bytes_loaded,
        })
    }

    /// The run file, which a seeded window never asks for: it evicts nothing.
    fn store(&self) -> io::Result<&RunStore> {
        let seeded = || invalid_input("a run seeded from memory has no file to read".to_string());
        self.store.as_ref().ok_or_else(seeded)
    }

    fn key(&self, i: usize) -> io::Result<u32> {
        u32::try_from(i)
            .ok()
            .filter(|_| i < self.frame_count())
            .ok_or_else(|| invalid_input("frame index out of range".to_string()))
    }

    /// The one window lookup: `want` records of frame `i` (all of them
    /// if `None`) and, when `dims` is given, its grid at those dims.
    fn page(&self, i: usize, want: Option<u64>, dims: Option<[usize; 3]>) -> io::Result<Paged> {
        let key = self.key(i)?;
        let count = self.counts[i];
        let want = want.unwrap_or(count);
        if want > count {
            let why = format!("prefix of {want} records asked of frame {i}'s {count}");
            return Err(invalid_input(why));
        }
        let (held, lookup) = self.window.get_or_fetch(key, || {
            self.cold(i, want, dims)
                .map(Arc::new)
                .map_err(|e| (e.kind(), e.to_string()))
        });
        let held = held.map_err(|(kind, message)| io::Error::new(kind, message))?;
        let (held, bytes_loaded) = if lookup == Lookup::Fetched {
            self.cold_loads.fetch_add(1, Ordering::Relaxed);
            (held, count * BYTES_PER_PARTICLE)
        } else if held.holds(want, dims) {
            (held, 0)
        } else {
            // Extend what is held now: an extension this one waited on
            // may already have read what it asks.
            let _turn = self.extending[i].lock().unwrap_or_else(|e| e.into_inner());
            let held = self.window.get(&key).unwrap_or(held);
            if held.holds(want, dims) {
                (held, 0)
            } else {
                let (extended, bytes) = self.extend(i, &held, want, dims)?;
                let extended = Arc::new(extended);
                self.window.insert(key, Arc::clone(&extended));
                if bytes > 0 {
                    self.prefix_extensions.fetch_add(1, Ordering::Relaxed);
                }
                (extended, bytes)
            }
        };
        if bytes_loaded == 0 {
            self.warm_hits.fetch_add(1, Ordering::Relaxed);
        }
        Ok(Paged {
            held,
            warm: bytes_loaded == 0,
            bytes_loaded,
        })
    }

    /// Frame `i` paged in: every chunk read once, the grid binned from
    /// them when `dims` asks for one, `want` records kept.
    fn cold(&self, i: usize, want: u64, dims: Option<[usize; 3]>) -> io::Result<Held> {
        let particles = self.store()?.load_particles(i)?;
        let grid = dims.map(|d| self.bin(i, &particles, d));
        self.keep(i, particles, want, grid)
    }

    /// `held` grown to `want` records and, if `dims` asks for a grid it
    /// lacks, re-binned — reading only the records beyond its prefix.
    /// Returns the new entry and the particle bytes read.
    fn extend(
        &self,
        i: usize,
        held: &Held,
        want: u64,
        dims: Option<[usize; 3]>,
    ) -> io::Result<(Held, u64)> {
        let have = held.particles();
        let held_len = have.len() as u64;
        let rebin = !held.has_grid(dims);
        // Binning needs the whole frame.
        let through = if rebin { self.counts[i] } else { want };
        if through == held_len {
            // A whole frame in hand, binned anew: nothing to read.
            let grid = dims.map(|d| self.bin(i, have, d));
            let particles = held.particles.clone();
            return Ok((Held { particles, grid }, 0));
        }
        let rest = self.store()?.load_range(i, held_len..through)?;
        let mut particles = Vec::with_capacity(through as usize);
        particles.extend_from_slice(have);
        particles.extend_from_slice(&rest);
        let grid = match dims {
            Some(d) if rebin => Some(self.bin(i, &particles, d)),
            _ => held.grid.clone(),
        };
        let bytes = rest.len() as u64 * BYTES_PER_PARTICLE;
        Ok((self.keep(i, particles, want.max(held_len), grid)?, bytes))
    }

    /// Frame `i` binned at `dims` from all of its `particles`.
    fn bin(&self, i: usize, particles: &[Particle], dims: [usize; 3]) -> Arc<DensityGrid> {
        self.grids_binned.fetch_add(1, Ordering::Relaxed);
        let (tree, plot) = &self.trees[i];
        Arc::new(DensityGrid::from_particles(
            particles,
            *plot,
            tree.bounds,
            dims,
        ))
    }

    /// The entry for frame `i` keeping the first `want` of `particles`
    /// (which hold at least that many) beside `grid`. A strict prefix is
    /// copied out, so the entry never carries the read's capacity.
    fn keep(
        &self,
        i: usize,
        particles: Vec<Particle>,
        want: u64,
        grid: Option<Arc<DensityGrid>>,
    ) -> io::Result<Held> {
        let particles = if want < self.counts[i] {
            let exact = particles.len() as u64 == want;
            Kept::Prefix(match exact {
                true => particles,
                false => particles[..want as usize].to_vec(),
            })
        } else {
            let (tree, plot) = &self.trees[i];
            let data = PartitionedData::from_sorted_parts(tree.clone(), particles, *plot)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            Kept::Whole(Arc::new(data))
        };
        Ok(Held { particles, grid })
    }

    /// Current residency counters.
    pub fn stats(&self) -> ResidentStats {
        let held = self.window.stats();
        let (chunks_read, bytes_read) = self.store.as_ref().map_or((0, 0), RunStore::io_stats);
        let count = |c: &AtomicU64| c.load(Ordering::Relaxed);
        ResidentStats {
            resident_frames: held.entries,
            resident_bytes: held.weight,
            budget_bytes: self.budget_bytes,
            cold_loads: count(&self.cold_loads),
            prefix_extensions: count(&self.prefix_extensions),
            warm_hits: count(&self.warm_hits),
            grids_binned: count(&self.grids_binned),
            evictions: held.evictions,
            chunks_read,
            bytes_read,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::write_run_file;
    use accelviz_beam::distribution::Distribution;
    use accelviz_octree::builder::{partition, BuildParams};
    use accelviz_octree::extraction::threshold_for_budget;
    use std::sync::Barrier;

    fn frames(n_frames: usize, particles_each: usize) -> Vec<PartitionedData> {
        (0..n_frames)
            .map(|i| {
                let ps = Distribution::default_beam().sample(particles_each, i as u64 + 1);
                partition(&ps, PlotType::X_PX_Y, BuildParams::default())
            })
            .collect()
    }

    fn run_file(name: &str, n_frames: usize, particles_each: usize) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("accelviz-resident-{name}-{}", std::process::id()));
        write_run_file(&path, &frames(n_frames, particles_each), 4_096).unwrap();
        path
    }

    #[test]
    fn a_window_seeded_from_memory_extracts_like_the_partitions_and_never_reads() {
        let data = frames(3, 600);
        let expected = data.clone();
        let seeded: Vec<*const Particle> = data.iter().map(|d| d.particles().as_ptr()).collect();
        let run = ResidentRun::from_memory(data);
        let dims = [8, 8, 8];
        for _pass in 0..2 {
            for (i, d) in expected.iter().enumerate() {
                for t in [f64::INFINITY, threshold_for_budget(d, 150), 0.0] {
                    let (got, paged) = run.hybrid_frame(i, t, dims).unwrap();
                    assert!(paged.warm && paged.bytes_loaded == 0, "frame {i} at {t}");
                    let want = HybridFrame::from_partition(d, i, t, dims);
                    assert_eq!(got, want, "frame {i} at {t}");
                }
            }
        }
        let s = run.stats();
        assert_eq!(s.grids_binned, 3, "each frame binned once: {s:?}");
        assert_eq!((s.cold_loads, s.bytes_read, s.evictions), (0, 0, 0));
        for (i, &particles) in seeded.iter().enumerate() {
            let first = run.fetch(i).unwrap();
            assert_eq!(
                first.data.particles().as_ptr(),
                particles,
                "no particle copied"
            );
            assert!(Arc::ptr_eq(&first.data, &run.fetch(i).unwrap().data));
        }
    }

    #[test]
    fn a_window_seeded_with_no_frames_is_an_empty_run() {
        let run = ResidentRun::from_memory(vec![]);
        assert_eq!((run.frame_count(), run.total_particle_bytes()), (0, 0));
        let err = run.fetch(0).err().expect("no such frame");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let s = run.stats();
        assert_eq!((s.resident_frames, s.cold_loads, s.bytes_read), (0, 0, 0));
    }

    #[test]
    fn fetches_match_direct_reads_and_warm_up() {
        let path = run_file("warm", 3, 800);
        // Budget fits everything: no eviction.
        let run = ResidentRun::open(&path, u64::MAX).unwrap();
        assert_eq!(run.frame_count(), 3);
        let first = run.fetch(1).unwrap();
        assert!(!first.warm);
        assert_eq!(first.bytes_loaded, 800 * 48);
        let again = run.fetch(1).unwrap();
        assert!(again.warm);
        assert_eq!(again.bytes_loaded, 0);
        assert!(Arc::ptr_eq(&first.data, &again.data));
        first.data.validate().unwrap();
        let s = run.stats();
        assert_eq!((s.cold_loads, s.warm_hits, s.evictions), (1, 1, 0));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn budget_smaller_than_the_run_forces_eviction() {
        let path = run_file("evict", 4, 600);
        let frame_bytes = 600 * 48u64;
        // Room for two frames.
        let run = ResidentRun::open(&path, 2 * frame_bytes).unwrap();
        assert!(run.total_particle_bytes() > 2 * frame_bytes);
        for i in 0..4 {
            run.fetch(i).unwrap();
        }
        let s = run.stats();
        assert_eq!(s.cold_loads, 4);
        assert_eq!(s.evictions, 2);
        assert_eq!(s.resident_frames, 2);
        assert!(s.resident_bytes <= s.budget_bytes);
        // Frames 2 and 3 are resident; 0 is the coldest possible fetch.
        assert!(run.fetch(3).unwrap().warm);
        assert!(!run.fetch(0).unwrap().warm);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_frame_bigger_than_the_budget_still_serves() {
        let path = run_file("oversize", 2, 500);
        // A zero budget is the same rule: hold the newest frame only.
        for budget in [1, 0] {
            let run = ResidentRun::open(&path, budget).unwrap();
            let f = run.fetch(0).unwrap();
            assert!(!f.warm);
            assert_eq!(f.data.particles().len(), 500);
            // The oversize frame stays (never evict the just-loaded frame)…
            assert_eq!(run.stats().resident_frames, 1);
            // …until the next fetch displaces it.
            run.fetch(1).unwrap();
            let s = run.stats();
            assert_eq!(s.resident_frames, 1);
            assert_eq!(s.evictions, 1);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fetch_past_the_end_is_an_error_not_a_panic() {
        let path = run_file("past-end", 2, 100);
        let run = ResidentRun::open(&path, u64::MAX).unwrap();
        for i in [run.frame_count(), usize::MAX] {
            let err = run.fetch(i).err().expect("no such frame");
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "fetch({i})");
        }
        assert_eq!(run.stats().cold_loads, 0, "the store was never touched");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn eviction_follows_recency_not_insertion() {
        let path = run_file("recency", 3, 400);
        let run = ResidentRun::open(&path, 2 * 400 * 48).unwrap();
        run.fetch(0).unwrap();
        run.fetch(1).unwrap();
        run.fetch(0).unwrap(); // touch 0: now 1 is the eviction victim
        run.fetch(2).unwrap();
        assert!(
            run.fetch(0).unwrap().warm,
            "recently touched frame survives"
        );
        assert!(!run.fetch(1).unwrap().warm, "LRU frame was evicted");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_herd_on_one_cold_frame_reads_it_from_disk_once() {
        let path = run_file("herd", 2, 800);
        let run = ResidentRun::open(&path, u64::MAX).unwrap();
        let read_at_open = run.stats().bytes_read;
        let start = Barrier::new(8);
        let fetched: Vec<Fetch> = std::thread::scope(|s| {
            let herd: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        run.fetch(1).unwrap()
                    })
                })
                .collect();
            herd.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let s = run.stats();
        assert_eq!((s.cold_loads, s.cold_loads + s.warm_hits), (1, 8));
        assert_eq!(s.bytes_read - read_at_open, 800 * 48, "one frame's bytes");
        for f in &fetched {
            assert!(Arc::ptr_eq(&f.data, &fetched[0].data), "one shared Arc");
        }
        let loaded: Vec<u64> = fetched.iter().map(|f| f.bytes_loaded).collect();
        assert_eq!(loaded.iter().sum::<u64>(), 800 * 48, "{loaded:?}");
        assert_eq!(fetched.iter().filter(|f| !f.warm).count(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn concurrent_fetches_of_distinct_frames_stay_correct_and_under_budget() {
        let in_memory = frames(6, 300);
        let path = run_file("distinct", 6, 300);
        let run = ResidentRun::open(&path, 2 * 300 * 48).unwrap();
        std::thread::scope(|s| {
            for t in 0..4 {
                let (run, in_memory) = (&run, &in_memory);
                s.spawn(move || {
                    // Each thread walks the run from its own offset.
                    for i in (0..6).map(|k| (k + t) % 6) {
                        let got = run.fetch(i).unwrap().data;
                        assert_eq!(got.particles(), in_memory[i].particles(), "frame {i}");
                    }
                });
            }
        });
        let s = run.stats();
        assert!(s.resident_bytes <= s.budget_bytes, "{s:?}");
        assert_eq!(
            s.cold_loads - s.evictions,
            s.resident_frames as u64,
            "{s:?}"
        );
        assert_eq!(s.cold_loads + s.warm_hits, 4 * 6);
        let _ = std::fs::remove_file(&path);
    }
}
