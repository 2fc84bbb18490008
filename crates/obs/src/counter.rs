//! Atomic counters and gauges.
//!
//! Every instrumented layer adds its counts once, when its run ends, and
//! the harness pool increments once per job, so nothing contends on a
//! counter: each one is a single relaxed `AtomicU64`.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A monotonically increasing counter.
///
/// `inc`/`add` are wait-free relaxed atomic adds with no allocation;
/// [`Counter::get`] is exact once writers quiesce — the conservation
/// property pinned by `tests/proptest_obs.rs`.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A fresh zero counter.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    // htpb-lint: hot
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }
    // htpb-lint: end-hot

    /// The current total.
    ///
    /// Concurrent readers see a value between the total before and after
    /// any in-flight increments — never a torn or decreasing one.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets the counter to zero (exposition tooling only — never called
    /// from instrumented code).
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A last-value-wins signed gauge (queue depths, in-flight work).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A fresh zero gauge.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    // htpb-lint: hot
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }
    // htpb-lint: end-hot

    /// The current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets the gauge to zero (exposition tooling only).
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_sums_across_threads() {
        let c = Arc::new(Counter::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    c.inc();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 80_000);
    }

    #[test]
    fn counter_reset_zeroes_all_shards() {
        let c = Counter::new();
        c.add(41);
        c.inc();
        assert_eq!(c.get(), 42);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn gauge_set_add() {
        let g = Gauge::new();
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
        g.reset();
        assert_eq!(g.get(), 0);
    }
}
