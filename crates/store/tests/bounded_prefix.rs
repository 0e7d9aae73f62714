//! A prefix read's memory is bounded by the records the frame holds, not
//! by the count a caller asks for: `RunStore::load_prefix` refuses a count
//! past the frame before it sizes anything. Alone in its test binary, one
//! read at a time, so the counting allocator sees only the read under
//! test (`tests/common/alloc.rs`, the same instrument as `accelviz-octree`'s
//! `bounded_reservations.rs`).

use accelviz_beam::distribution::Distribution;
use accelviz_octree::builder::{partition, BuildParams};
use accelviz_octree::plots::PlotType;
use accelviz_store::run::{write_run_file, RunStore};
use alloc::peak_of;
use std::io::ErrorKind;

#[path = "../../../tests/common/alloc.rs"]
mod alloc;

#[test]
fn a_prefix_past_the_frame_is_refused_under_a_mebibyte() {
    let ps = Distribution::default_beam().sample(300, 7);
    let data = partition(&ps, PlotType::X_PX_Y, BuildParams::default());
    let path = std::env::temp_dir().join(format!("accelviz-bounded-prefix-{}", std::process::id()));
    write_run_file(&path, &[data], 4_096).unwrap();
    let store = RunStore::open(&path).unwrap();

    for n in [store.particle_count(0) + 1, 1 << 40] {
        let (outcome, peak) = peak_of(|| store.load_prefix(0, n));
        let err = outcome.expect_err("more records than the frame holds");
        assert_eq!(err.kind(), ErrorKind::InvalidInput, "n = {n}");
        assert!(peak < 1 << 20, "asking for {n} records bought {peak} bytes");
    }
    assert_eq!(store.io_stats(), (0, 0), "nothing was read");
    let _ = std::fs::remove_file(&path);
}
