//! Shared fixtures for the Criterion micro-benchmarks.
//!
//! One bench target per micro-measurement in the paper's evaluation:
//!
//! * `partition` — §4.5: default hash vs `partition+` over 6.48M pairs,
//! * `keymap` — the `K → K′` extraction translation (§3 Area 2),
//! * `scifile_write` — Table 2: dense vs sentinel vs pair output,
//! * `deps` — §3.2.1: dependency derivation (store) vs one-keyblock
//!   recomputation,
//! * `coords_ops` — geometry primitives underneath everything.
//!
//! Anything end to end (merge, wire, serve, fleet, spill) is measured
//! by `bash benchmark/run.sh`, not here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use sidr_coords::{Coord, Shape};
use sidr_core::{Operator, StructuralQuery};

/// The laptop-scale Query 1 used across benches.
pub fn bench_query() -> StructuralQuery {
    StructuralQuery::new(
        "windspeed",
        Shape::new(vec![720, 36, 72, 50]).expect("valid"),
        Shape::new(vec![2, 36, 36, 10]).expect("valid"),
        Operator::Median,
    )
    .expect("query is valid")
}

/// `n` intermediate keys cycling through the query's `K′ᵀ`.
pub fn intermediate_keys(query: &StructuralQuery, n: usize) -> Vec<Coord> {
    let base: Vec<Coord> = query.intermediate_space().iter_coords().collect();
    (0..n).map(|i| base[i % base.len()].clone()).collect()
}

// ---------------------------------------------------------------
// Counting allocator: bytes, calls, and the live-byte high water.
// The one `unsafe` file of the workspace (docs/UNSAFE.md);
// `tests/alloc.rs` installs it with `#[global_allocator]`.
// ---------------------------------------------------------------

static ALLOCATED: AtomicU64 = AtomicU64::new(0);
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Forwards to the system allocator, counting as it goes.
pub struct CountingAlloc;

impl CountingAlloc {
    fn on_alloc(size: usize) {
        ALLOCATED.fetch_add(size as u64, Ordering::Relaxed);
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }

    fn on_dealloc(size: usize) {
        LIVE.fetch_sub(size, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: caller upholds GlobalAlloc::alloc's contract; we
        // forward the layout to the system allocator unchanged.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            Self::on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: caller guarantees `ptr` came from this allocator
        // with this layout; `alloc` delegates to System, so System
        // owns the block.
        unsafe { System.dealloc(ptr, layout) };
        Self::on_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: same delegation as alloc/dealloc — the caller's
        // realloc contract transfers directly to System.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            Self::on_dealloc(layout.size());
            Self::on_alloc(new_size);
        }
        p
    }
}

/// Allocation counters over one measured region (meaningful only in
/// a binary whose global allocator is [`CountingAlloc`]).
pub struct AllocScope {
    allocated_before: u64,
    calls_before: u64,
    live_before: usize,
}

impl AllocScope {
    pub fn start() -> Self {
        // Reset the high-water mark to the current live level so the
        // reported peak is the region's own contribution.
        PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
        AllocScope {
            allocated_before: ALLOCATED.load(Ordering::Relaxed),
            calls_before: ALLOC_CALLS.load(Ordering::Relaxed),
            live_before: LIVE.load(Ordering::Relaxed),
        }
    }

    /// `(bytes allocated, allocator calls, peak live above start)`.
    pub fn finish(self) -> (u64, u64, u64) {
        let allocated = ALLOCATED.load(Ordering::Relaxed) - self.allocated_before;
        let calls = ALLOC_CALLS.load(Ordering::Relaxed) - self.calls_before;
        let peak = PEAK
            .load(Ordering::Relaxed)
            .saturating_sub(self.live_before) as u64;
        (allocated, calls, peak)
    }
}
