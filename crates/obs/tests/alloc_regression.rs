//! Allocation lock on the metric primitives themselves: once registered,
//! `inc`/`add`/`observe`/`set` perform ZERO heap allocations — the obs half of the workspace-wide zero-allocation
//! steady-state contract (the NoC half lives in
//! `crates/noc/tests/alloc_regression.rs`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use htpb_obs::{pow2_bounds, Class, Registry};

/// Same body as the `CountingAlloc` of `crates/noc/tests/alloc_regression.rs`
/// and `crates/manycore/tests/alloc_regression.rs`: a `#[global_allocator]`
/// must be defined in the test crate that installs it, so the three copies
/// are kept identical rather than shared.
struct CountingAlloc;

thread_local! {
    /// Per-thread, because libtest's main thread allocates while the test
    /// thread is inside the measured loop: a process-wide counter would
    /// charge those allocations to the loop. Const-initialised and without
    /// a destructor, so touching it from inside the allocator never
    /// allocates and is valid for the thread's whole life.
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    ALLOC_CALLS.with(|c| c.set(c.get() + 1));
}

fn alloc_calls() -> u64 {
    ALLOC_CALLS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

#[test]
fn hot_path_operations_do_not_allocate() {
    // Registration allocates (names, buckets) — that is the deal:
    // all allocation happens at enable time, before steady state.
    let r = Registry::new();
    let c = r.counter("c_total", "counter", Class::Sim);
    let g = r.gauge("g", "gauge", Class::Timing);
    let h = r.histogram("h_us", &pow2_bounds(11), "histogram", Class::Timing);

    let before = alloc_calls();
    for i in 0..100_000u64 {
        c.inc();
        c.add(3);
        g.set(i as i64);
        g.add(-1);
        h.observe(i % 1_000);
        h.observe_n(i % 17, 2);
    }
    let after = alloc_calls();
    assert_eq!(
        after - before,
        0,
        "metric hot-path operations heap-allocated"
    );

    // The work above was real, not optimised away.
    assert_eq!(c.get(), 400_000);
    assert_eq!(h.snapshot().count(), 300_000);
}
