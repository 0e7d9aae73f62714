//! A reader's memory is bounded by the bytes that arrived, not by the
//! length a peer declared. Alone in its test binary so the counting
//! allocator sees only this read.

use accelviz_serve::wire::{read_envelope, MAGIC, MAX_PAYLOAD, V2};
use accelviz_serve::ServeError;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

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

#[test]
fn a_header_declaring_a_gibibyte_then_eof_allocates_under_a_mebibyte() {
    let mut header = [0u8; 16];
    header[0..4].copy_from_slice(&MAGIC);
    header[4..6].copy_from_slice(&V2.to_le_bytes());
    header[6] = 0x83; // RESP_FRAME
    header[8..16].copy_from_slice(&MAX_PAYLOAD.to_le_bytes());

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let outcome = read_envelope(&mut header.as_slice());
    let peak = PEAK.load(Ordering::Relaxed).saturating_sub(before);

    match outcome {
        Err(ServeError::Truncated { needed, got: 0 }) => assert_eq!(needed, MAX_PAYLOAD),
        other => panic!("expected Truncated, got {other:?}"),
    }
    assert!(
        peak < 1 << 20,
        "a 16-byte header bought {peak} bytes of allocation"
    );
}
