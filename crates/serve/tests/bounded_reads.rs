//! A reader's memory is bounded by the bytes that arrived, not by the
//! length or count a peer declared. Alone in its test binary, one test
//! at a time, so the counting allocator sees only the read under test.

use accelviz_serve::wire::{decode_frame_v2, read_envelope, PayloadWriter, MAGIC, MAX_PAYLOAD, V2};
use accelviz_serve::ServeError;
use accelviz_store::codec::{put_uvarint, CODEC_BITPACK};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The system allocator, tracking live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grew(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `read` alone and returns its outcome with the bytes of
/// allocation it peaked at.
fn peak_of<T>(read: impl FnOnce() -> T) -> (T, usize) {
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let outcome = read();
    (outcome, PEAK.load(Ordering::Relaxed).saturating_sub(before))
}

#[test]
fn a_header_declaring_a_gibibyte_then_eof_allocates_under_a_mebibyte() {
    let mut header = [0u8; 16];
    header[0..4].copy_from_slice(&MAGIC);
    header[4..6].copy_from_slice(&V2.to_le_bytes());
    header[6] = 0x83; // RESP_FRAME
    header[8..16].copy_from_slice(&MAX_PAYLOAD.to_le_bytes());

    let (outcome, peak) = peak_of(|| read_envelope(&mut header.as_slice()));

    match outcome {
        Err(ServeError::Truncated { needed, got: 0 }) => assert_eq!(needed, MAX_PAYLOAD),
        other => panic!("expected Truncated, got {other:?}"),
    }
    assert!(
        peak < 1 << 20,
        "a 16-byte header bought {peak} bytes of allocation"
    );
}

#[test]
fn a_frame_declaring_millions_of_points_over_16_bytes_allocates_under_a_mebibyte() {
    // A v2 frame header declaring the most points the decoder admits…
    let n_points = MAX_PAYLOAD / 48;
    let mut w = PayloadWriter::new();
    w.put_u64(0); // step
    for coord in [0, 2, 4] {
        w.put_u8(coord); // plot: x, y, z
    }
    for bound in [0.0, 0.0, 0.0, 1.0, 1.0, 1.0] {
        w.put_f64(bound);
    }
    w.put_f64(1.0); // threshold
    w.put_u64(0); // discarded
    w.put_u64(n_points);
    // …over a first column block of that count in 16 packed bytes.
    let mut block = vec![CODEC_BITPACK];
    put_uvarint(&mut block, n_points);
    put_uvarint(&mut block, 16);
    block.extend_from_slice(&[0u8; 16]);
    w.put_bytes(&block);
    let payload = w.into_bytes();

    let (outcome, peak) = peak_of(|| decode_frame_v2(&payload));

    assert!(
        matches!(outcome, Err(ServeError::Corrupt(_))),
        "got {outcome:?}"
    );
    assert!(
        peak < 1 << 20,
        "a {}-byte payload bought {peak} bytes of allocation",
        payload.len()
    );
}
