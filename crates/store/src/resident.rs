//! Residency management over an on-disk run: which frames are in memory.
//!
//! A [`ResidentRun`] keeps every frame's octree resident (node blobs are
//! tiny — 88 bytes per node — and reading them eagerly doubles as a
//! fail-fast checksum pass over all directory metadata) while particle
//! arrays, the bulk of a run, page in on demand and page out under an
//! explicit byte budget. Recency is tracked by the same
//! [`LruOrder`] the serve layer's caches use, so
//! the whole pipeline shares one eviction policy.
//!
//! Loads happen under the residency lock: a simplification that trades
//! concurrent cold loads for the guarantee that a frame is never fetched
//! twice in a race. The serve layer already bounds concurrent extraction
//! work above this layer, so the serialization is not the bottleneck.

use crate::lru::LruOrder;
use crate::run::RunStore;
use accelviz_octree::node::Octree;
use accelviz_octree::plots::PlotType;
use accelviz_octree::sorted_store::PartitionedData;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// A run file plus an in-memory residency window over its frames.
pub struct ResidentRun {
    store: RunStore,
    /// Every frame's octree and plot type, always resident.
    trees: Vec<(Octree, PlotType)>,
    budget_bytes: u64,
    state: Mutex<Residency>,
}

struct Residency {
    lru: LruOrder<u32>,
    resident: HashMap<u32, Arc<PartitionedData>>,
    resident_bytes: u64,
    cold_loads: u64,
    warm_hits: u64,
    evictions: u64,
}

/// Result of fetching one frame's partitioned data.
pub struct Fetch {
    /// The frame, shared with whatever else holds it resident.
    pub data: Arc<PartitionedData>,
    /// Whether the frame was already resident (no disk I/O).
    pub warm: bool,
    /// Bytes read from disk for this fetch (0 when warm).
    pub bytes_loaded: u64,
}

/// Snapshot of a [`ResidentRun`]'s residency counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResidentStats {
    /// Frames currently resident.
    pub resident_frames: usize,
    /// Particle bytes currently resident.
    pub resident_bytes: u64,
    /// The configured residency budget.
    pub budget_bytes: u64,
    /// Fetches that had to read from disk.
    pub cold_loads: u64,
    /// Fetches satisfied from memory.
    pub warm_hits: u64,
    /// Frames evicted to stay under budget.
    pub evictions: u64,
    /// Checksum-verified chunks read from disk so far.
    pub chunks_read: u64,
    /// Bytes read from disk so far.
    pub bytes_read: u64,
}

impl ResidentRun {
    /// Opens a run file with a particle-residency budget of
    /// `budget_bytes`. All octrees are loaded (and checksum-verified)
    /// eagerly; particle data stays on disk until fetched.
    pub fn open(path: &Path, budget_bytes: u64) -> io::Result<ResidentRun> {
        let store = RunStore::open(path)?;
        let mut trees = Vec::with_capacity(store.frame_count());
        for i in 0..store.frame_count() {
            trees.push(store.read_tree(i)?);
        }
        Ok(ResidentRun {
            store,
            trees,
            budget_bytes,
            state: Mutex::new(Residency {
                lru: LruOrder::new(),
                resident: HashMap::new(),
                resident_bytes: 0,
                cold_loads: 0,
                warm_hits: 0,
                evictions: 0,
            }),
        })
    }

    /// Number of frames in the run.
    pub fn frame_count(&self) -> usize {
        self.trees.len()
    }

    /// Frame `i`'s always-resident octree and plot type.
    pub fn tree(&self, i: usize) -> &(Octree, PlotType) {
        &self.trees[i]
    }

    /// Particle count of frame `i` (directory metadata, no fetch).
    pub fn particle_count(&self, i: usize) -> u64 {
        self.store.particle_count(i)
    }

    /// Total particle bytes across the run — compare against
    /// [`ResidentStats::budget_bytes`] to see how out-of-core a run is.
    pub fn total_particle_bytes(&self) -> u64 {
        (0..self.frame_count())
            .map(|i| self.store.frame_bytes(i))
            .sum()
    }

    /// Fetches frame `i`, reading and checksum-verifying its chunks if it
    /// is not resident, then evicting least-recently-used frames until
    /// the residency budget holds again. The just-fetched frame is never
    /// evicted, so a single frame larger than the whole budget still
    /// serves (the budget is then transiently exceeded).
    pub fn fetch(&self, i: usize) -> io::Result<Fetch> {
        let key = u32::try_from(i)
            .ok()
            .filter(|_| i < self.frame_count())
            .ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidInput, "frame index out of range")
            })?;
        let mut g = self.state.lock();
        if let Some(data) = g.resident.get(&key) {
            let data = Arc::clone(data);
            g.lru.touch(key);
            g.warm_hits += 1;
            return Ok(Fetch {
                data,
                warm: true,
                bytes_loaded: 0,
            });
        }

        let particles = self.store.load_particles(i)?;
        let (tree, plot) = &self.trees[i];
        let data = PartitionedData::from_sorted_parts(tree.clone(), particles, *plot)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let data = Arc::new(data);
        let bytes = self.store.frame_bytes(i);
        g.resident.insert(key, Arc::clone(&data));
        g.lru.touch(key);
        g.resident_bytes += bytes;
        g.cold_loads += 1;
        while g.resident_bytes > self.budget_bytes && g.resident.len() > 1 {
            // The most-recently-touched key is the frame just loaded, so
            // pop_oldest can never pick it while anything else remains.
            let victim = g.lru.pop_oldest().expect("resident set is non-empty");
            if let Some(evicted) = g.resident.remove(&victim) {
                g.resident_bytes -= evicted.particle_file_bytes();
                g.evictions += 1;
            }
        }
        Ok(Fetch {
            data,
            warm: false,
            bytes_loaded: bytes,
        })
    }

    /// Current residency counters.
    pub fn stats(&self) -> ResidentStats {
        let g = self.state.lock();
        let (chunks_read, bytes_read) = self.store.io_stats();
        ResidentStats {
            resident_frames: g.resident.len(),
            resident_bytes: g.resident_bytes,
            budget_bytes: self.budget_bytes,
            cold_loads: g.cold_loads,
            warm_hits: g.warm_hits,
            evictions: g.evictions,
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

    fn run_file(name: &str, n_frames: usize, particles_each: usize) -> std::path::PathBuf {
        let frames: Vec<PartitionedData> = (0..n_frames)
            .map(|i| {
                let ps = Distribution::default_beam().sample(particles_each, i as u64 + 1);
                partition(&ps, PlotType::X_PX_Y, BuildParams::default())
            })
            .collect();
        let path =
            std::env::temp_dir().join(format!("accelviz-resident-{name}-{}", std::process::id()));
        write_run_file(&path, &frames, 4_096).unwrap();
        path
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
        let run = ResidentRun::open(&path, 1).unwrap();
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
}
