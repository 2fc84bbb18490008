//! Allocation regression lock: steady-state [`Network::step`] performs
//! ZERO heap allocations.
//!
//! A counting [`GlobalAlloc`] wraps the system allocator; after a warm-up
//! phase (which is allowed to allocate: injection queues, the packet-store
//! slab and the ejection buffer all grow to their steady-state capacity),
//! every individual `step()` call on a loaded 16×16 mesh must leave the
//! allocation counter untouched. Traffic generation, injection and draining
//! happen *outside* the counted region — they are the caller's loop, not
//! the simulator hot path.
//!
//! Debug builds deliberately allocate inside `step()`: the every-64-cycles
//! invariant auditor collects worklist snapshots. The whole test is
//! therefore compiled out under `debug_assertions`; CI runs it explicitly
//! with `cargo test --release -p htpb-noc --test alloc_regression`.
#![cfg(not(debug_assertions))]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use htpb_noc::{Mesh2d, Network, NetworkConfig, PacketKind, TrafficPattern, UniformTraffic};

/// Counts every allocator call that can hand out fresh memory. Frees are
/// not counted: returning memory is allowed (and `step()` does not do that
/// either, but the lock is specifically on *acquiring* heap memory).
struct CountingAlloc;

thread_local! {
    /// Per-thread, because the harness runs the tests of this file on
    /// concurrent threads: a process-wide counter would charge one test's
    /// warm-up allocations to the other's measured `step()`. Const-
    /// initialised and without a destructor, so touching it from inside the
    /// allocator never allocates and is valid for the thread's whole life.
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

/// 16×16 mesh at 0.05 uniform load — the `uniform16_rate005` benchmark
/// scenario. 2 000 warm-up cycles grow every buffer to steady state; the
/// following 2 000 cycles must not allocate inside `step()`.
#[test]
fn steady_state_step_performs_zero_heap_allocations() {
    run_zero_alloc_scenario(false);
}

/// Same lock with live metrics enabled: [`Network::enable_metrics`] boxes
/// its tallies up front, so the instrumented hot loop must stay just as
/// allocation-free as the bare one.
#[test]
fn steady_state_step_with_metrics_performs_zero_heap_allocations() {
    run_zero_alloc_scenario(true);
}

fn run_zero_alloc_scenario(metrics: bool) {
    const WARMUP: u64 = 2_000;
    const MEASURED: u64 = 2_000;

    let mesh = Mesh2d::new(16, 16).unwrap();
    let mut traffic = UniformTraffic::new(mesh, 0.05, PacketKind::Meta, 42);
    let mut net = Network::new(NetworkConfig::new(mesh));
    if metrics {
        net.enable_metrics();
    }
    let mut delivered = Vec::with_capacity(1024);

    for cycle in 0..WARMUP {
        for p in traffic.generate(cycle) {
            let _ = net.inject(p);
        }
        net.step();
        net.drain_ejected_into(&mut delivered);
    }

    let mut total_delivered = 0u64;
    for cycle in WARMUP..WARMUP + MEASURED {
        // Traffic generation and injection are the caller's business and
        // may allocate; only the step itself is counted.
        for p in traffic.generate(cycle) {
            let _ = net.inject(p);
        }
        let before = alloc_calls();
        net.step();
        let after = alloc_calls();
        assert_eq!(
            after - before,
            0,
            "Network::step() heap-allocated at cycle {cycle} (after {} warm-up cycles)",
            WARMUP
        );
        net.drain_ejected_into(&mut delivered);
        total_delivered += delivered.len() as u64;
    }

    // Sanity: the measured window exercised real traffic, not an idle mesh.
    assert!(
        total_delivered > 1_000,
        "measured window delivered only {total_delivered} packets — load too low for the lock to mean anything"
    );
    if metrics {
        let m = net.metrics().expect("metrics were enabled");
        assert!(
            m.active_router_cycles > 0 && m.vc_occupancy_total() > 0,
            "metrics-on run recorded nothing — hooks are dead, lock is vacuous"
        );
    }
}
