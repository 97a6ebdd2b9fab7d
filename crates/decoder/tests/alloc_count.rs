//! Allocation-regression harness for the union-find decoder: a counting
//! [`GlobalAlloc`] shim wraps the system allocator. The steady-state
//! contract is that a [`UnionFindDecoder`] reuses one decode workspace, so
//! once it has seen a tile and a chunk length, a `decode_ready_at` call on
//! them samples, decodes, folds the correction into the Pauli frame and
//! checks the logical cut without a single heap allocation.
//!
//! This file holds one test on purpose: the counter is process-wide, and a
//! second test running concurrently would pollute it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rescq_decoder::{DecoderConfig, DecoderModel, ErrorChannel, UnionFindDecoder};

/// Counts every `alloc`/`realloc` passed through to the system allocator.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s allocator guarantees hold; the counter touches no memory the
// allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Window lengths in rounds: at d = 7 these decode as chunks of 3, 7, 1, 5
/// and 7 + 2 rounds.
const ROUNDS: [u32; 5] = [3, 7, 1, 5, 9];
const TILES: u32 = 6;

#[test]
fn warm_union_find_decodes_allocate_nothing() {
    let mut decoder = UnionFindDecoder::new(
        &DecoderConfig::union_find(1.0),
        7,
        ErrorChannel::new(1e-2, 11),
    );
    let mut now = 0u64;
    let mut submit = |decoder: &mut UnionFindDecoder, i: u32| {
        now += 3;
        let ready = decoder.decode_ready_at(i % TILES, ROUNDS[(i / TILES) as usize % 5], now);
        assert!(ready > now);
    };
    // Warm-up: every tile sees every window length, which builds the
    // detector graphs, the tiles' Pauli frames and the workspace.
    for i in 0..TILES * ROUNDS.len() as u32 * 2 {
        submit(&mut decoder, i);
    }
    decoder.take_work();

    let before = ALLOCS.load(Ordering::Relaxed);
    for i in 0..1500 {
        submit(&mut decoder, i);
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    let work = decoder.take_work();
    assert_eq!(
        allocs, 0,
        "1500 warm decode_ready_at calls allocated {allocs} times"
    );
    assert!(
        work.defects > 0 && work.growth_steps > 0 && work.peeled_edges > 0,
        "the measured calls must do real decode work: {work:?}"
    );
}
