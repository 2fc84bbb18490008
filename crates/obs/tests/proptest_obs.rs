//! Property-based tests of the registry primitives — the algebra the
//! non-perturbation contract leans on:
//!
//! * counter sums are **exact** under concurrent increments
//!   (no lost updates, however threads interleave);
//! * histogram merge is associative and commutative with bucket counts
//!   conserved (absorbing per-job simulator histograms in any order gives
//!   one answer — what makes `metrics.prom` independent of `--jobs`);
//! * a snapshot taken during concurrent updates never tears: the derived
//!   total always equals the bucket sum, and repeated reads are monotone.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use htpb_obs::{Counter, Histogram, HistogramSnapshot};

/// Strictly ascending bucket bounds, 1..=8 of them.
fn arb_bounds() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::btree_set(1u64..1_000_000, 1..=8).prop_map(|s| s.into_iter().collect())
}

/// Raw bucket counts, oversized; tests slice to `bounds.len() + 1` (the
/// vendored proptest has no `prop_flat_map` to size them exactly).
fn arb_counts() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..10_000, 9..=9)
}

fn snap(bounds: &[u64], counts: Vec<u64>, sum: u64) -> HistogramSnapshot {
    HistogramSnapshot {
        bounds: bounds.to_vec(),
        counts,
        sum,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Concurrent increments from several threads are never lost: the
    /// counter total equals the arithmetic sum of everything added.
    #[test]
    fn counter_sum_exact_under_concurrency(
        per_thread in proptest::collection::vec((1u64..200, 1u64..50), 1..6),
    ) {
        let c = Arc::new(Counter::new());
        let mut handles = Vec::new();
        let mut expected = 0u64;
        for &(reps, delta) in &per_thread {
            expected += reps * delta;
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for _ in 0..reps {
                    c.add(delta);
                }
            }));
        }
        for h in handles {
            h.join().expect("incrementer panicked");
        }
        prop_assert_eq!(c.get(), expected);
    }

    /// Histogram merge is commutative and conserves every bucket count
    /// and the sum.
    #[test]
    fn histogram_merge_commutes_and_conserves(
        bounds in arb_bounds(),
        raw_a in arb_counts(),
        raw_b in arb_counts(),
        sum_a in 0u64..1_000_000,
        sum_b in 0u64..1_000_000,
    ) {
        let n = bounds.len() + 1;
        let a = raw_a[..n].to_vec();
        let b = raw_b[..n].to_vec();
        let sa = snap(&bounds, a.clone(), sum_a);
        let sb = snap(&bounds, b.clone(), sum_b);
        let ab = sa.merge(&sb);
        let ba = sb.merge(&sa);
        prop_assert_eq!(&ab, &ba);
        prop_assert_eq!(ab.count(), sa.count() + sb.count());
        prop_assert_eq!(ab.sum, sum_a + sum_b);
        for i in 0..ab.counts.len() {
            prop_assert_eq!(ab.counts[i], a[i] + b[i]);
        }
    }

    /// Histogram merge is associative: (a+b)+c == a+(b+c).
    #[test]
    fn histogram_merge_is_associative(
        bounds in arb_bounds(),
        raw_a in arb_counts(),
        raw_b in arb_counts(),
        raw_c in arb_counts(),
    ) {
        let n = bounds.len() + 1;
        let (a, b, c) = (raw_a[..n].to_vec(), raw_b[..n].to_vec(), raw_c[..n].to_vec());
        let sa = snap(&bounds, a, 1);
        let sb = snap(&bounds, b, 10);
        let sc = snap(&bounds, c, 100);
        prop_assert_eq!(sa.merge(&sb).merge(&sc), sa.merge(&sb.merge(&sc)));
    }

    /// Observations land in exactly one bucket and the derived count is
    /// always the bucket sum (the no-separate-count design that makes
    /// tearing structurally impossible).
    #[test]
    fn histogram_count_is_bucket_sum(
        bounds in arb_bounds(),
        values in proptest::collection::vec(0u64..2_000_000, 0..200),
    ) {
        let h = Histogram::new(&bounds);
        for &v in &values {
            h.observe(v);
        }
        let s = h.snapshot();
        prop_assert_eq!(s.count(), values.len() as u64);
        prop_assert_eq!(s.sum, values.iter().sum::<u64>());
    }
}

/// A snapshot raced against a writer never tears: every intermediate
/// snapshot's derived count equals its bucket sum, counts are monotone
/// non-decreasing, and the final state is exact. Not a proptest (the race
/// itself is nondeterministic); run with a fixed substantial workload.
#[test]
fn snapshot_during_update_never_tears() {
    const OBSERVATIONS: u64 = 200_000;
    let h = Arc::new(Histogram::new(&[1, 2, 4, 8, 16]));
    let c = Arc::new(Counter::new());
    let done = Arc::new(AtomicBool::new(false));

    let writer = {
        let (h, c, done) = (Arc::clone(&h), Arc::clone(&c), Arc::clone(&done));
        std::thread::spawn(move || {
            for i in 0..OBSERVATIONS {
                h.observe(i % 20);
                c.inc();
            }
            done.store(true, Ordering::Release);
        })
    };

    let mut last_hist_count = 0u64;
    let mut last_counter = 0u64;
    while !done.load(Ordering::Acquire) {
        let s = h.snapshot();
        let count = s.count();
        assert!(
            count >= last_hist_count,
            "histogram count went backwards: {last_hist_count} -> {count}"
        );
        last_hist_count = count;

        let v = c.get();
        assert!(
            v >= last_counter,
            "counter went backwards: {last_counter} -> {v}"
        );
        last_counter = v;
    }
    writer.join().unwrap();

    let s = h.snapshot();
    assert_eq!(s.count(), OBSERVATIONS);
    assert_eq!(c.get(), OBSERVATIONS);
}
