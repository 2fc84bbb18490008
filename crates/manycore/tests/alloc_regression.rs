//! Allocation regression lock: a warmed [`ManyCoreSystem::step`] performs
//! ZERO heap allocations on every cycle that is neither an epoch boundary
//! (request injection) nor the allocation point (the manager builds its
//! grant list) — in the analytic tile model and in detailed-cache mode with
//! memory traffic on.
//!
//! Same shape as `crates/noc/tests/alloc_regression.rs`: a counting
//! [`GlobalAlloc`] wraps the system allocator, the counter is per-thread so
//! the two tests below can run concurrently, and the whole file is compiled
//! out under `debug_assertions` (the NoC's debug-build invariant audits
//! allocate). CI runs it with
//! `cargo test --release -p htpb-manycore --test alloc_regression`.
#![cfg(not(debug_assertions))]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use htpb_manycore::{AppRole, Benchmark, ManyCoreSystem, SystemBuilder, Workload};
use htpb_noc::Mesh2d;

struct CountingAlloc;

thread_local! {
    /// Const-initialised and without a destructor: touching it from inside
    /// the allocator never allocates and is valid for the thread's whole
    /// life.
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    ALLOC_CALLS.with(|c| c.set(c.get() + 1));
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

const EPOCH: u64 = 2_000;

/// The paper's chip: 16×16, Mix-1 (Table III) at 63 threads per
/// application, manager at the centre.
fn mix1_chip(detailed: bool) -> ManyCoreSystem {
    let workload = Workload::new()
        .app(Benchmark::Barnes, 63, AppRole::Malicious)
        .app(Benchmark::Canneal, 63, AppRole::Malicious)
        .app(Benchmark::Blackscholes, 63, AppRole::Legitimate)
        .app(Benchmark::Raytrace, 63, AppRole::Legitimate);
    SystemBuilder::new(Mesh2d::new(16, 16).unwrap())
        .workload(workload)
        .epoch_cycles(EPOCH)
        .memory_traffic(true)
        .detailed_caches(detailed)
        .build()
        .unwrap()
}

fn run_zero_alloc_scenario(detailed: bool, warmup_epochs: u64) {
    const MEASURED_EPOCHS: u64 = 2;

    let mut sys = mix1_chip(detailed);
    sys.run_epochs(warmup_epochs);
    let delivered_before = sys.network().stats().delivered_packets();
    for _ in 0..MEASURED_EPOCHS * EPOCH {
        let cycle = sys.cycle();
        let phase = cycle % EPOCH;
        let before = ALLOC_CALLS.with(Cell::get);
        sys.step();
        let after = ALLOC_CALLS.with(Cell::get);
        if phase == 0 || phase == EPOCH * 6 / 10 {
            continue;
        }
        assert_eq!(
            after - before,
            0,
            "ManyCoreSystem::step() heap-allocated at cycle {cycle} (phase {phase}, detailed caches: \
             {detailed}, after {warmup_epochs} warm-up epochs)"
        );
    }
    // Sanity: the measured window carried real traffic.
    let delivered = sys.network().stats().delivered_packets() - delivered_before;
    assert!(
        delivered > 1_000,
        "measured window delivered only {delivered} packets — the lock would be vacuous"
    );
    if detailed {
        assert!(sys.invalidations_sent() > 0 || sys.tiles().iter().any(|t| t.l1_hit_rate() > 0.0));
    }
}

/// Analytic tiles: the NoC's packet store and ejection buffers and the
/// reply-event heap reach their steady-state capacity within the first
/// epochs.
#[test]
fn steady_state_step_performs_zero_heap_allocations_analytic() {
    run_zero_alloc_scenario(false, 4);
}

/// Detailed caches, memory traffic on. "Warmed" here means every home
/// directory has reached its 4 096-line capacity: until then its line
/// pools legitimately grow by amortised doubling (nothing is reserved up
/// front — see `Directory`), and the slowest of the 256 homes gets there in
/// epoch 208 of this workload. From then on the FIFO ring recycles entries
/// in place and nothing allocates.
#[test]
fn steady_state_step_performs_zero_heap_allocations_detailed() {
    run_zero_alloc_scenario(true, 220);
}
