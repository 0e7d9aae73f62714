//! The desktop viewer's frame cache (§2.5).
//!
//! "The hybrid method can produce very compact representations, allowing
//! multiple time steps to fit into memory. ... a high-end PC is capable of
//! holding around 10 time steps in memory at once. The previewing program
//! allows the user to step through frames using the keyboard. If a frame
//! is already in memory, it can be displayed instantaneously: the volume
//! texture and display lists are already loaded into video memory, or can
//! be quickly swapped in by the display driver. If a frame is not in
//! memory, it is loaded from disk, a process that takes around 10 seconds
//! for a 100 MB time step."

use crate::hybrid::HybridFrame;
use accelviz_render::texmem::TextureMemory;
use std::io;
use std::sync::Arc;
use std::sync::{Mutex, MutexGuard};

/// Result of stepping the viewer to a frame.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FrameLoad {
    /// Whether the frame was already in main memory (display is
    /// "instantaneous").
    pub cache_hit: bool,
    /// Bytes read from disk (0 on a hit).
    pub bytes_loaded: u64,
    /// Latency to display the frame. A local source models it: disk read
    /// (on miss) plus any texture re-upload. A remote source measures it:
    /// what the viewer waited in `load` (0 for a resident frame).
    pub seconds: f64,
    /// Whether the frame's volume texture was still resident in video
    /// memory.
    pub texture_resident: bool,
    /// Whether this is a *stale* frame served in place of the requested
    /// one because the source's data path failed (remote retries
    /// exhausted). Local sources never set this; the viewer should badge
    /// the display rather than freeze it.
    pub degraded: bool,
    /// Whether the frame is a *partially refined* rendition of the
    /// requested frame: a progressive stream that could not finish left
    /// a renderable coarse frame behind (always paired with
    /// `degraded`). Unlike a stale degraded load this IS the requested
    /// frame — just at reduced fidelity — so the viewer advances to it.
    pub partial: bool,
}

/// Where a viewing session gets its frames. The paper's desktop viewer
/// reads hybrid frames from local disk ([`LocalFrames`]); the remote
/// service serves the same frames over TCP (`accelviz-serve`'s
/// `RemoteFrames`). A [`crate::session::ViewerSession`] runs unmodified
/// over either.
pub trait FrameSource: Send {
    /// Number of frames available from this source.
    fn frame_count(&self) -> usize;

    /// Loads frame `index`, returning the frame and what the load cost.
    /// `index` must be `< frame_count()`. Local sources are infallible;
    /// remote sources surface transport errors here.
    fn load(&mut self, index: usize) -> io::Result<(Arc<HybridFrame>, FrameLoad)>;

    /// The viewer starts drawing the frame the last `load` returned: time
    /// a remote source can spend fetching the frame it expects to be
    /// asked for next. Local sources have nothing to do.
    fn drawing(&mut self) {}
}

/// The in-memory frame series backing the paper's desktop viewer: frames
/// held locally, with a [`FrameCache`] modeling which are resident and
/// what a cold load costs.
pub struct LocalFrames {
    frames: Vec<Arc<HybridFrame>>,
    cache: FrameCache,
}

impl LocalFrames {
    /// A local source over `frames` with an explicit cache model.
    pub fn new(frames: Vec<HybridFrame>, cache: FrameCache) -> LocalFrames {
        LocalFrames {
            frames: frames.into_iter().map(Arc::new).collect(),
            cache,
        }
    }

    /// A local source with the paper-era desktop cache (1 GB memory,
    /// 10 MB/s disk, GeForce-class texture memory).
    pub fn paper_desktop(frames: Vec<HybridFrame>) -> LocalFrames {
        let sizes: Vec<(u64, u64)> = frames
            .iter()
            .map(|f| (f.total_bytes(), f.volume_bytes()))
            .collect();
        LocalFrames::new(frames, FrameCache::paper_desktop(sizes))
    }

    /// The underlying cache model (hit/miss statistics, residency).
    pub fn cache(&self) -> &FrameCache {
        &self.cache
    }
}

impl FrameSource for LocalFrames {
    fn frame_count(&self) -> usize {
        self.frames.len()
    }

    fn load(&mut self, index: usize) -> io::Result<(Arc<HybridFrame>, FrameLoad)> {
        let load = self.cache.step_to(index);
        Ok((Arc::clone(&self.frames[index]), load))
    }
}

/// A frame cache over a sequence of hybrid frames with known sizes. Holds
/// frames in an LRU set bounded by a main-memory budget, and tracks volume
/// textures in a [`TextureMemory`] model. Thread-safe: the viewer's UI
/// thread and prefetcher share it.
pub struct FrameCache {
    inner: Mutex<Inner>,
}

struct Inner {
    /// (frame size in bytes, volume texture bytes) per frame.
    frames: Vec<(u64, u64)>,
    memory_budget: u64,
    disk_bandwidth: f64,
    resident: Vec<usize>, // LRU order, front = oldest
    resident_bytes: u64,
    texmem: TextureMemory,
    hits: u64,
    misses: u64,
}

impl FrameCache {
    /// A cache over frames of the given `(total_bytes, texture_bytes)`
    /// sizes, with a main-memory budget and a disk bandwidth
    /// (bytes/second). The paper's desktop: ~1 GB budget, 10 MB/s disk
    /// (100 MB loads in ~10 s).
    pub fn new(
        frames: Vec<(u64, u64)>,
        memory_budget: u64,
        disk_bandwidth: f64,
        texmem: TextureMemory,
    ) -> FrameCache {
        assert!(disk_bandwidth > 0.0);
        FrameCache {
            inner: Mutex::new(Inner {
                frames,
                memory_budget,
                disk_bandwidth,
                resident: Vec::new(),
                resident_bytes: 0,
                texmem,
                hits: 0,
                misses: 0,
            }),
        }
    }

    /// The paper-era desktop configuration for a given list of frame
    /// sizes: 1 GB of frame memory, 10 MB/s disk, GeForce-class texture
    /// memory.
    pub fn paper_desktop(frames: Vec<(u64, u64)>) -> FrameCache {
        FrameCache::new(frames, 1 << 30, 10.0e6, TextureMemory::geforce_class())
    }

    /// Number of frames the cache knows about.
    pub fn frame_count(&self) -> usize {
        lock(&self.inner).frames.len()
    }

    /// Number of frames currently resident in main memory.
    pub fn resident_count(&self) -> usize {
        lock(&self.inner).resident.len()
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        lock(&self.inner).hits
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        lock(&self.inner).misses
    }

    /// Prefetches the frames around `current` (the keyboard-stepping
    /// workflow of §2.5 almost always moves to a neighbor), warming the
    /// cache in both directions up to `radius`. Returns the number of
    /// frames actually loaded. Never evicts the current frame: the
    /// prefetch stops at the first load that would.
    pub fn prefetch_window(&self, current: usize, radius: usize) -> usize {
        let n = self.frame_count();
        if n == 0 {
            return 0;
        }
        let mut loaded = 0;
        // Touch the current frame first so it is the most-recently-used
        // and only frames older than it are evicted to make room.
        let keep = current.min(n - 1);
        self.step_to(keep);
        for d in 1..=radius {
            for idx in [current.checked_sub(d), Some(current + d)]
                .into_iter()
                .flatten()
                .filter(|&idx| idx < n)
            {
                match self.step_to_internal(idx, Some(keep)) {
                    None => return loaded,
                    Some(load) if !load.cache_hit => loaded += 1,
                    Some(_) => {}
                }
            }
        }
        loaded
    }

    /// Steps the viewer to `frame`, loading from "disk" if needed and
    /// binding its volume texture.
    pub fn step_to(&self, frame: usize) -> FrameLoad {
        self.step_to_internal(frame, None)
            .expect("only a prefetch declines a load")
    }

    /// Steps to `frame`; a prefetch (`keep` is the frame it must keep
    /// resident) is uncounted, and declines with `None` a load that would
    /// evict `keep`.
    fn step_to_internal(&self, frame: usize, keep: Option<usize>) -> Option<FrameLoad> {
        let prefetch = keep.is_some();
        let mut g = lock(&self.inner);
        assert!(frame < g.frames.len(), "frame {frame} out of range");
        let (total, tex) = g.frames[frame];

        let pos = g.resident.iter().position(|&f| f == frame);
        let (cache_hit, bytes_loaded, mut seconds) = match pos {
            Some(p) => {
                // LRU touch.
                let f = g.resident.remove(p);
                g.resident.push(f);
                if !prefetch {
                    g.hits += 1;
                }
                (true, 0, 0.0)
            }
            None => {
                if keep.is_some_and(|keep| g.load_evicts(total, keep)) {
                    return None;
                }
                // Evict LRU frames until the new one fits.
                while g.resident_bytes + total > g.memory_budget && !g.resident.is_empty() {
                    let victim = g.resident.remove(0);
                    g.resident_bytes -= g.frames[victim].0;
                    g.texmem.evict(victim as u64);
                }
                g.resident.push(frame);
                g.resident_bytes += total;
                if !prefetch {
                    g.misses += 1;
                }
                (false, total, total as f64 / g.disk_bandwidth)
            }
        };

        // Bind the volume texture (may re-upload if the driver evicted
        // it — the "quickly swapped in by the display driver" path).
        let tex_result = g.texmem.request(frame as u64, tex);
        let texture_resident = match tex_result {
            Some(r) => {
                seconds += r.upload_seconds;
                r.was_resident
            }
            None => false,
        };

        Some(FrameLoad {
            cache_hit,
            bytes_loaded,
            seconds,
            texture_resident,
            degraded: false,
            partial: false,
        })
    }
}

impl Inner {
    /// Whether loading `bytes` more would evict frame `keep`: evicting
    /// every frame older than it would not make room.
    fn load_evicts(&self, bytes: u64, keep: usize) -> bool {
        let older: u64 = self
            .resident
            .iter()
            .take_while(|&&f| f != keep)
            .map(|&f| self.frames[f].0)
            .sum();
        self.resident_bytes - older + bytes > self.memory_budget
    }
}

/// Locks, ignoring poison: a panicked holder leaves nothing half-updated
/// that the next holder could trip over.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ten 100 MB frames with 256 KB volume textures (64³).
    fn paper_frames(n: usize) -> Vec<(u64, u64)> {
        vec![(100 << 20, 64 * 64 * 64); n]
    }

    #[test]
    fn first_visit_misses_revisit_hits() {
        let cache = FrameCache::paper_desktop(paper_frames(5));
        let first = cache.step_to(2);
        assert!(!first.cache_hit);
        assert_eq!(first.bytes_loaded, 100 << 20);
        // ~10 s for a 100 MB load at 10 MB/s — the paper's number.
        assert!(
            (first.seconds - 10.49).abs() < 0.2,
            "load took {}",
            first.seconds
        );
        let again = cache.step_to(2);
        assert!(again.cache_hit);
        assert_eq!(again.bytes_loaded, 0);
        assert!(
            again.seconds < 1e-3,
            "cached frame displays instantaneously"
        );
        assert!(again.texture_resident);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn about_ten_100mb_frames_fit_in_a_1gb_budget() {
        let cache = FrameCache::paper_desktop(paper_frames(20));
        for f in 0..20 {
            cache.step_to(f);
        }
        // The paper: "a high-end PC is capable of holding around 10 time
        // steps in memory at once."
        assert_eq!(cache.resident_count(), 10);
    }

    #[test]
    fn lru_eviction_prefers_old_frames() {
        let cache = FrameCache::new(
            vec![(400, 10); 4],
            1000,
            1e6,
            TextureMemory::new(1 << 20, 1e9),
        );
        cache.step_to(0);
        cache.step_to(1);
        cache.step_to(0); // touch 0 so 1 is LRU
        cache.step_to(2); // evicts 1
        assert!(cache.step_to(0).cache_hit);
        assert!(!cache.step_to(1).cache_hit);
    }

    #[test]
    fn stepping_through_cached_frames_is_free() {
        // The time-animation workflow of Figure 5: after one pass, paging
        // through the resident window costs nothing.
        let cache = FrameCache::paper_desktop(paper_frames(8));
        for f in 0..8 {
            cache.step_to(f);
        }
        let mut total = 0.0;
        for f in 0..8 {
            total += cache.step_to(f).seconds;
        }
        assert!(
            total < 1e-6,
            "stepping through resident frames cost {total}"
        );
    }

    #[test]
    fn prefetch_makes_neighbor_steps_hits() {
        let cache = FrameCache::paper_desktop(paper_frames(9));
        cache.step_to(4);
        let loaded = cache.prefetch_window(4, 2);
        assert_eq!(loaded, 4, "frames 2, 3, 5, 6 must be prefetched");
        // Stepping to any of them is now instantaneous.
        for f in [3usize, 5, 2, 6] {
            let load = cache.step_to(f);
            assert!(load.cache_hit, "frame {f} should be warm");
            assert!(load.seconds < 1e-3);
        }
        // Prefetch loads don't pollute the hit/miss statistics.
        assert_eq!(cache.misses(), 1, "only the explicit step_to(4) missed");
    }

    /// Ten 100 MB frames fit the 1 GB budget: a prefetch of ten
    /// neighbours loads nine, the tenth would evict the current frame.
    #[test]
    fn prefetch_never_evicts_the_current_frame() {
        let cache = FrameCache::paper_desktop(paper_frames(20));
        cache.step_to(10);
        assert_eq!(cache.prefetch_window(10, 5), 9);
        assert_eq!(cache.resident_count(), 10);
        assert!(cache.step_to(10).cache_hit, "the current frame is resident");
        assert!(
            !cache.step_to(15).cache_hit,
            "the farthest was never loaded"
        );
    }

    #[test]
    fn prefetch_clamps_at_series_edges() {
        let cache = FrameCache::paper_desktop(paper_frames(3));
        let loaded = cache.prefetch_window(0, 5);
        assert_eq!(loaded, 2, "only frames 1 and 2 exist to the right");
        assert_eq!(cache.resident_count(), 3);
        // Empty cache case.
        let empty = FrameCache::paper_desktop(Vec::new());
        assert_eq!(empty.prefetch_window(0, 3), 0);
    }

    #[test]
    #[should_panic]
    fn out_of_range_frame_panics() {
        let cache = FrameCache::paper_desktop(paper_frames(2));
        cache.step_to(5);
    }
}
