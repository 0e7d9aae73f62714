//! A [`FrameSource`] backed by an on-disk run: the desktop viewer (and
//! the frame server) reading a dataset bigger than RAM.
//!
//! [`StoredRunSource`] closes the loop the paper's §2.5 opens: the
//! viewer steps through frames, warm frames display instantaneously, and
//! cold frames stream from disk — except here the disk path is real
//! (checksum-verified positioned chunk reads), not a latency model.
//! Residency and extraction are delegated to [`ResidentRun`]; this
//! adapter only picks each frame's threshold and turns what the window
//! read into load reports.

use crate::resident::ResidentRun;
use accelviz_core::hybrid::HybridFrame;
use accelviz_core::viewer::{FrameLoad, FrameSource};
use accelviz_octree::extraction::threshold_for_budget_tree;
use std::io;
use std::sync::Arc;
use std::time::Instant;

/// Serves hybrid frames straight out of a run file, paging kept prefixes
/// and grids in and out under [`ResidentRun`]'s byte budget.
pub struct StoredRunSource {
    run: Arc<ResidentRun>,
    point_budget: usize,
    volume_dims: [usize; 3],
}

impl StoredRunSource {
    /// A source over `run`, extracting at the threshold that keeps about
    /// `point_budget` halo points and binning density into a
    /// `volume_dims` grid.
    pub fn new(
        run: Arc<ResidentRun>,
        point_budget: usize,
        volume_dims: [usize; 3],
    ) -> StoredRunSource {
        StoredRunSource {
            run,
            point_budget,
            volume_dims,
        }
    }

    /// The shared residency layer (counters, budget, tree access).
    pub fn run(&self) -> &Arc<ResidentRun> {
        &self.run
    }
}

impl FrameSource for StoredRunSource {
    fn frame_count(&self) -> usize {
        self.run.frame_count()
    }

    fn load(&mut self, index: usize) -> io::Result<(Arc<HybridFrame>, FrameLoad)> {
        let started = Instant::now();
        if index >= self.run.frame_count() {
            let why = format!("frame {index} of {}", self.run.frame_count());
            return Err(io::Error::new(io::ErrorKind::InvalidInput, why));
        }
        let threshold = threshold_for_budget_tree(&self.run.tree(index).0, self.point_budget);
        let (frame, paged) = self.run.hybrid_frame(index, threshold, self.volume_dims)?;
        Ok((
            Arc::new(frame),
            FrameLoad {
                cache_hit: paged.warm,
                bytes_loaded: paged.bytes_loaded,
                seconds: started.elapsed().as_secs_f64(),
                texture_resident: paged.warm,
                degraded: false,
                partial: false,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::write_run_file;
    use accelviz_beam::distribution::Distribution;
    use accelviz_octree::builder::{partition, BuildParams};
    use accelviz_octree::extraction::threshold_for_budget;
    use accelviz_octree::plots::PlotType;
    use accelviz_octree::sorted_store::PartitionedData;

    fn build(i: u64, n: usize) -> PartitionedData {
        let ps = Distribution::default_beam().sample(n, i + 1);
        partition(&ps, PlotType::X_PX_Y, BuildParams::default())
    }

    #[test]
    fn stored_frames_match_in_memory_frames_bit_for_bit() {
        let frames: Vec<PartitionedData> = (0..3).map(|i| build(i, 700)).collect();
        let path =
            std::env::temp_dir().join(format!("accelviz-source-match-{}", std::process::id()));
        write_run_file(&path, &frames, 4_096).unwrap();

        // A budget of one frame's particles, and every forward step is to
        // a frame not yet read: a cold load.
        let run = Arc::new(ResidentRun::open(&path, 700 * 48).unwrap());
        let mut source = StoredRunSource::new(run, 200, [8, 8, 8]);
        assert_eq!(source.frame_count(), 3);
        for (i, data) in frames.iter().enumerate() {
            let (frame, load) = source.load(i).unwrap();
            let threshold = threshold_for_budget(data, 200);
            let expected = HybridFrame::from_partition(data, i, threshold, [8, 8, 8]);
            assert_eq!(*frame, expected, "frame {i} must be bit-identical");
            assert!(!load.cache_hit);
            assert_eq!(load.bytes_loaded, 700 * 48);
        }
        // Revisiting the last frame is warm.
        let (_, load) = source.load(2).unwrap();
        assert!(load.cache_hit);
        assert_eq!(load.bytes_loaded, 0);
        // Past the end is an error, not a panic.
        let err = source.load(3).expect_err("no frame 3");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let _ = std::fs::remove_file(&path);
    }
}
