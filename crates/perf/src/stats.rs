//! Order statistics over timing samples.

/// The reported value, median and quartiles of one metric's samples.
///
/// The reported value of a timing is its **lower decile** (nearest rank;
/// the minimum below ten samples), not its median: this machine shares
/// its cores, and a neighbour's burst adds seconds-long runs of slow
/// iterations on top of a steady floor. The floor is the program; the
/// median moves with the neighbour (measured: 10 % interquartile spread
/// between 10 s windows for the median, 3 % for the lower decile). Median
/// and quartiles are reported alongside. Quartiles follow Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method), so a spread
/// computed here equals the one the benchmark driver computes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The reported value: the lower decile of the samples.
    pub value: f64,
    /// Second quartile.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarises `samples`. A single sample is its own median and
    /// quartiles.
    ///
    /// # Panics
    /// Panics on an empty slice: a metric without a sample is a bug in the
    /// benchmark.
    #[must_use]
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "metric without samples");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        if n == 1 {
            return Summary::single(sorted[0]);
        }
        let quartile = |i: usize| {
            let j = (i * (n + 1) / 4).clamp(1, n - 1);
            let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
            (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
        };
        Summary {
            value: sorted[n / 10],
            median: quartile(2),
            q1: quartile(1),
            q3: quartile(3),
            n,
        }
    }

    /// A metric measured once per run (peak memory, a count).
    #[must_use]
    pub fn single(value: f64) -> Summary {
        Summary {
            value,
            median: value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// Interquartile distance as a share of the median.
    #[must_use]
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    /// The same summary with every statistic mapped through `f`, which must
    /// be monotonic (a unit conversion or a reciprocal rate). A decreasing
    /// `f` swaps the quartiles so `q1 <= q3` still holds.
    #[must_use]
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Summary {
        let (a, b) = (f(self.q1), f(self.q3));
        Summary {
            value: f(self.value),
            median: f(self.median),
            q1: a.min(b),
            q3: a.max(b),
            n: self.n,
        }
    }
}

/// The `p`-th percentile (nearest rank) of `samples`.
///
/// # Panics
/// Panics on an empty slice.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of nothing");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // Ten samples: the lower decile is the second smallest.
        assert_eq!(s.value, 2.0);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.value, s.q1, s.median, s.q3), (1.0, 1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn reciprocal_map_keeps_quartile_order() {
        let s = Summary::of(&[1.0, 2.0, 4.0]).map(|x| 1.0 / x);
        assert!(s.q1 <= s.median && s.median <= s.q3);
        assert_eq!((s.median, s.value), (0.5, 1.0));
    }

    #[test]
    fn p99_is_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }
}
