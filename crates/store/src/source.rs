//! A [`FrameSource`] backed by an on-disk run: the desktop viewer (and
//! the frame server) reading a dataset bigger than RAM.
//!
//! [`StoredRunSource`] closes the loop the paper's §2.5 opens: the
//! viewer steps through frames, warm frames display instantaneously, and
//! cold frames stream from disk — except here the disk path is real
//! (checksum-verified positioned chunk reads), not a latency model.
//! Residency is delegated to [`ResidentRun`]; this adapter only converts
//! fetches into hybrid frames and load reports.

use crate::resident::ResidentRun;
use accelviz_core::hybrid::HybridFrame;
use accelviz_core::viewer::{FrameLoad, FrameSource};
use accelviz_octree::extraction::threshold_for_budget;
use std::io;
use std::sync::Arc;
use std::time::Instant;

/// Serves hybrid frames straight out of a run file, paging particle data
/// in and out under [`ResidentRun`]'s byte budget.
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
        let fetch = self.run.fetch(index)?;
        let threshold = threshold_for_budget(&fetch.data, self.point_budget);
        let frame = HybridFrame::from_partition(&fetch.data, index, threshold, self.volume_dims);
        Ok((
            Arc::new(frame),
            FrameLoad {
                cache_hit: fetch.warm,
                bytes_loaded: fetch.bytes_loaded,
                seconds: started.elapsed().as_secs_f64(),
                texture_resident: fetch.warm,
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

        // Budget of one frame: every forward step is a cold load.
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
        let _ = std::fs::remove_file(&path);
    }
}
