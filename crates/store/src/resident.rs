//! Residency management over an on-disk run: which frames are in memory.
//!
//! A [`ResidentRun`] keeps every frame's octree resident (node blobs are
//! tiny — 88 bytes per node — and reading them eagerly doubles as a
//! fail-fast checksum pass over all directory metadata) while particle
//! arrays, the bulk of a run, page in on demand and page out under an
//! explicit byte budget. The window is a [`Cache`] keyed by frame index
//! and weighed in particle bytes, so the whole pipeline shares one
//! eviction policy.
//!
//! Loads run outside every lock: distinct cold frames page in
//! concurrently, a warm hit never waits behind another frame's disk
//! read, and concurrent fetches of the *same* cold frame coalesce onto
//! one load. A fetch that joined another caller's load read nothing
//! itself and reports `warm: true, bytes_loaded: 0`.

use crate::cache::{Cache, Lookup};
use crate::run::RunStore;
use accelviz_octree::node::Octree;
use accelviz_octree::plots::PlotType;
use accelviz_octree::sorted_store::PartitionedData;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A run file plus an in-memory residency window over its frames.
pub struct ResidentRun {
    store: RunStore,
    /// Every frame's octree and plot type, always resident.
    trees: Vec<(Octree, PlotType)>,
    budget_bytes: u64,
    /// Resident particle data by frame index. A failed load travels to
    /// its coalesced waiters as the `io::Error`'s kind and message.
    resident: Cache<u32, PartitionedData, (io::ErrorKind, String)>,
    cold_loads: AtomicU64,
    warm_hits: AtomicU64,
}

/// Result of fetching one frame's partitioned data.
pub struct Fetch {
    /// The frame, shared with whatever else holds it resident.
    pub data: Arc<PartitionedData>,
    /// Whether this fetch read nothing from disk: the frame was resident,
    /// or another caller's in-flight load of it was joined.
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
            resident: Cache::new(budget_bytes, PartitionedData::particle_file_bytes),
            cold_loads: AtomicU64::new(0),
            warm_hits: AtomicU64::new(0),
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
    /// is not resident, after evicting least-recently-used frames until
    /// the residency budget has room for it. The just-fetched frame is
    /// never evicted, so a single frame larger than the whole budget
    /// still serves (the budget is then transiently exceeded).
    pub fn fetch(&self, i: usize) -> io::Result<Fetch> {
        let key = u32::try_from(i)
            .ok()
            .filter(|_| i < self.frame_count())
            .ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidInput, "frame index out of range")
            })?;
        let (loaded, lookup) = self.resident.get_or_fetch(key, || {
            let particles = self
                .store
                .load_particles(i)
                .map_err(|e| (e.kind(), e.to_string()))?;
            let (tree, plot) = &self.trees[i];
            PartitionedData::from_sorted_parts(tree.clone(), particles, *plot)
                .map(Arc::new)
                .map_err(|e| (io::ErrorKind::InvalidData, e))
        });
        let data = loaded.map_err(|(kind, message)| io::Error::new(kind, message))?;
        let warm = lookup != Lookup::Fetched;
        let (counter, bytes_loaded) = if warm {
            (&self.warm_hits, 0)
        } else {
            (&self.cold_loads, data.particle_file_bytes())
        };
        counter.fetch_add(1, Ordering::Relaxed);
        Ok(Fetch {
            data,
            warm,
            bytes_loaded,
        })
    }

    /// Current residency counters.
    pub fn stats(&self) -> ResidentStats {
        let held = self.resident.stats();
        let (chunks_read, bytes_read) = self.store.io_stats();
        ResidentStats {
            resident_frames: held.entries,
            resident_bytes: held.weight,
            budget_bytes: self.budget_bytes,
            cold_loads: self.cold_loads.load(Ordering::Relaxed),
            warm_hits: self.warm_hits.load(Ordering::Relaxed),
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
