//! The residency window holds each frame's grid and longest kept prefix,
//! and reads only what it lacks. Reads are counted where every chunk
//! passes: the run store's one checksum-verifying read path, whose
//! per-chunk counter `ResidentStats::chunks_read` reports.
//!
//! - A cold frame reads each of its chunks once and bins its grid once.
//! - A prefix the window already holds reads nothing.
//! - A longer prefix reads exactly the chunks beyond the held one, also
//!   when many requests ask it at once.
//! - [`HybridFrame::from_parts`] over the window
//!   (`ResidentRun::hybrid_frame`) equals [`HybridFrame::from_partition`]
//!   over the in-memory frame, at every
//!   threshold that matters, under a budget that holds one and a half
//!   compact frames.

use accelviz_beam::distribution::Distribution;
use accelviz_beam::io::BYTES_PER_PARTICLE;
use accelviz_core::hybrid::HybridFrame;
use accelviz_octree::builder::{partition, BuildParams};
use accelviz_octree::extraction::{kept_prefix_tree, threshold_for_budget};
use accelviz_octree::plots::PlotType;
use accelviz_octree::sorted_store::PartitionedData;
use accelviz_store::run::{round_chunk_bytes, write_run_file};
use accelviz_store::{ResidentRun, ResidentStats};
use std::path::PathBuf;

const FRAMES: usize = 4;
const PARTICLES: usize = 3_000;
const DIMS: [usize; 3] = [8, 8, 8];
/// Grid bytes a window entry is charged at [`DIMS`].
const GRID_BYTES: u64 = 8 * 8 * 8 * 4;

fn frames() -> Vec<PartitionedData> {
    (0..FRAMES)
        .map(|i| {
            let ps = Distribution::default_beam().sample(PARTICLES, i as u64 + 3);
            partition(&ps, PlotType::XYZ, BuildParams::default())
        })
        .collect()
}

/// The frames written to a run of 4 KiB chunks (86 records each), and
/// the records one chunk holds.
fn run_file(tag: &str, frames: &[PartitionedData]) -> (PathBuf, u64) {
    let path = std::env::temp_dir().join(format!(
        "accelviz-resident-prefix-{tag}-{}",
        std::process::id()
    ));
    write_run_file(&path, frames, 4_096).unwrap();
    (path, round_chunk_bytes(4_096) / BYTES_PER_PARTICLE)
}

/// Chunks holding any of records `from..to`.
fn chunks_spanning(from: u64, to: u64, per_chunk: u64) -> u64 {
    if from == to {
        0
    } else {
        to.div_ceil(per_chunk) - from / per_chunk
    }
}

/// Counters moved by `f`.
fn delta(run: &ResidentRun, f: impl FnOnce()) -> ResidentStats {
    let before = run.stats();
    f();
    let after = run.stats();
    ResidentStats {
        cold_loads: after.cold_loads - before.cold_loads,
        prefix_extensions: after.prefix_extensions - before.prefix_extensions,
        warm_hits: after.warm_hits - before.warm_hits,
        grids_binned: after.grids_binned - before.grids_binned,
        chunks_read: after.chunks_read - before.chunks_read,
        ..after
    }
}

#[test]
fn a_cold_frame_reads_each_chunk_once_and_bins_once_then_nothing_after_warm_up() {
    let data = frames();
    let (path, per_chunk) = run_file("cold", &data);
    let run = ResidentRun::open(&path, u64::MAX).unwrap();
    let kept: Vec<u64> = data
        .iter()
        .map(|d| kept_prefix_tree(d.tree(), threshold_for_budget(d, 300)))
        .collect();
    for (i, d) in data.iter().enumerate() {
        assert!(kept[i] > 0 && kept[i] < PARTICLES as u64, "frame {i}");
        let mut paged = None;
        let moved = delta(&run, || paged = Some(run.frame(i, kept[i], DIMS).unwrap()));
        let paged = paged.unwrap();
        assert_eq!(moved.cold_loads, 1, "frame {i}");
        assert_eq!(moved.grids_binned, 1, "frame {i}");
        let every_chunk = chunks_spanning(0, PARTICLES as u64, per_chunk);
        assert_eq!(moved.chunks_read, every_chunk, "frame {i}");
        assert!(!paged.warm);
        assert_eq!(paged.bytes_loaded, PARTICLES as u64 * BYTES_PER_PARTICLE);
        // Only the asked prefix is kept.
        assert_eq!(paged.prefix(), &d.particles()[..kept[i] as usize]);
    }
    // The window holds every frame as its grid and kept prefix.
    let held: u64 = kept
        .iter()
        .map(|k| k * BYTES_PER_PARTICLE + GRID_BYTES)
        .sum();
    let s = run.stats();
    assert_eq!((s.resident_frames, s.resident_bytes), (FRAMES, held));

    // Warm: every frame again, at its prefix and at shorter ones.
    for round in 0..3 {
        for (i, &k) in kept.iter().enumerate() {
            let mut paged = None;
            let moved = delta(&run, || {
                paged = Some(run.frame(i, k >> round, DIMS).unwrap())
            });
            assert_eq!(moved.chunks_read, 0, "frame {i}, round {round}");
            assert_eq!(moved.grids_binned, 0, "frame {i}, round {round}");
            assert_eq!(moved.warm_hits, 1, "frame {i}, round {round}");
            assert!(paged.unwrap().warm);
        }
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_held_prefix_reads_nothing_and_a_longer_one_reads_only_the_chunks_beyond_it() {
    let data = frames();
    let (path, per_chunk) = run_file("extend", &data);
    let run = ResidentRun::open(&path, u64::MAX).unwrap();
    let all = data[1].particles();
    let n = all.len() as u64;
    // Prefixes that end mid-chunk and on a chunk boundary.
    let (short, boundary, longer) = (100, 6 * per_chunk, 1_000);
    run.frame(1, short, DIMS).unwrap();

    for (want, held, reads) in [
        (short / 2, short, 0),
        (short, short, 0),
        (
            boundary,
            boundary,
            chunks_spanning(short, boundary, per_chunk),
        ),
        (boundary, boundary, 0),
        (longer, longer, chunks_spanning(boundary, longer, per_chunk)),
        (0, longer, 0),
        (n, n, chunks_spanning(longer, n, per_chunk)),
        (longer, n, 0),
    ] {
        let mut paged = None;
        let moved = delta(&run, || paged = Some(run.frame(1, want, DIMS).unwrap()));
        let paged = paged.unwrap();
        assert_eq!(moved.chunks_read, reads, "want {want}");
        assert_eq!(moved.grids_binned, 0, "want {want}: the grid is kept");
        assert_eq!(paged.warm, reads == 0, "want {want}");
        assert_eq!(moved.prefix_extensions, u64::from(reads > 0), "want {want}");
        // The longest prefix asked so far, and its bytes charged.
        assert_eq!(paged.prefix(), &all[..held as usize], "want {want}");
        let weight = held * BYTES_PER_PARTICLE + GRID_BYTES;
        assert_eq!(run.stats().resident_bytes, weight, "want {want}");
    }

    // The whole frame held: `fetch` shares it, and a grid at other dims
    // is binned from memory.
    let moved = delta(&run, || {
        let fetched = run.fetch(1).unwrap();
        assert!(fetched.warm);
        assert_eq!(fetched.data.particles(), all);
    });
    assert_eq!(moved.chunks_read, 0);
    let moved = delta(&run, || {
        assert_eq!(
            run.frame(1, 10, [4, 4, 4]).unwrap().grid().dims(),
            [4, 4, 4]
        );
    });
    assert_eq!((moved.chunks_read, moved.grids_binned), (0, 1));

    // A grid at other dims over a strict prefix needs the rest of the
    // frame: the chunks beyond the prefix, once, and one binning.
    let moved = delta(&run, || {
        run.frame(2, short, DIMS).unwrap();
        let paged = run.frame(2, short, [4, 4, 4]).unwrap();
        assert_eq!(paged.prefix(), &data[2].particles()[..short as usize]);
    });
    let rest = chunks_spanning(short, n, per_chunk);
    assert_eq!(moved.chunks_read, chunks_spanning(0, n, per_chunk) + rest);
    assert_eq!((moved.cold_loads, moved.prefix_extensions), (1, 1));
    assert_eq!(moved.grids_binned, 2);

    // Past the frame is refused before anything is read.
    let moved = delta(&run, || {
        let err = run.frame(1, n + 1, DIMS).err().expect("no such prefix");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(run.frame(FRAMES, 0, DIMS).is_err());
    });
    assert_eq!(moved.chunks_read, 0);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_herd_extending_one_prefix_reads_the_chunks_beyond_it_once() {
    let data = frames();
    let (path, per_chunk) = run_file("herd", &data);
    let run = ResidentRun::open(&path, u64::MAX).unwrap();
    let n = PARTICLES as u64;
    run.frame(0, 100, DIMS).unwrap();
    let start = std::sync::Barrier::new(8);
    let moved = delta(&run, || {
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    start.wait();
                    let paged = run.frame(0, n, DIMS).unwrap();
                    assert_eq!(paged.prefix(), data[0].particles());
                });
            }
        })
    });
    // Extensions take turns: the first reads the rest of the frame, and
    // the seven behind it find it held.
    assert_eq!(moved.chunks_read, chunks_spanning(100, n, per_chunk));
    assert_eq!((moved.prefix_extensions, moved.warm_hits), (1, 7));
    assert_eq!((moved.cold_loads, moved.grids_binned), (0, 0));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn from_parts_over_the_window_equals_from_partition_at_every_threshold() {
    let data = frames();
    let (path, _) = run_file("parity", &data);
    // The catalog's default: the threshold a 1 000-point budget suggests.
    let catalog = |d: &PartitionedData| threshold_for_budget(d, 1_000);
    let compact =
        kept_prefix_tree(data[0].tree(), catalog(&data[0])) * BYTES_PER_PARTICLE + GRID_BYTES;
    let run = ResidentRun::open(&path, 3 * compact / 2).unwrap();
    let thresholds =
        |d: &PartitionedData| [f64::NEG_INFINITY, -0.0, 0.0, catalog(d), 2.5, f64::INFINITY];
    // Each threshold over the run forwards, then backwards, so frames
    // are paged in, extended, evicted and paged in again.
    for k in 0..6 {
        for i in (0..FRAMES).chain((0..FRAMES).rev()) {
            let t = thresholds(&data[i])[k];
            // What a stored server serves: `from_parts` over the window.
            let (got, _) = run.hybrid_frame(i, t, DIMS).unwrap();
            let want = HybridFrame::from_partition(&data[i], i, t, DIMS);
            assert_eq!(got, want, "frame {i} at threshold {t}");
        }
    }
    let s = run.stats();
    assert!(s.evictions > 0 && s.cold_loads > FRAMES as u64, "{s:?}");
    assert!(s.prefix_extensions > 0, "{s:?}");
    let _ = std::fs::remove_file(&path);
}
