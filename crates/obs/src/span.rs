//! Lightweight span timers: scope-guard wall-clock timing into a
//! [`Histogram`].
//!
//! A [`SpanTimer`] reads the monotonic clock twice and performs one
//! histogram observation — no allocation, no locks. Spans measure wall
//! clock, so the histograms they feed must be registered as
//! [`Class::Timing`](crate::Class::Timing): their values are real but
//! scheduling-dependent, and never enter the Prometheus exposition.

use std::time::Instant;

use crate::histogram::Histogram;

/// Default bucket bounds for span histograms, in microseconds: 100us to
/// ~100s in powers of four — wide enough for a cache probe and a paper-
/// scale job alike.
pub const SPAN_BOUNDS_US: [u64; 11] = [
    100,
    400,
    1_600,
    6_400,
    25_600,
    102_400,
    409_600,
    1_638_400,
    6_553_600,
    26_214_400,
    104_857_600,
];

/// Times the enclosing scope into a histogram of **microseconds**.
#[derive(Debug)]
pub struct SpanTimer<'a> {
    hist: &'a Histogram,
    start: Instant,
}

impl<'a> SpanTimer<'a> {
    /// Starts timing; the observation happens on drop.
    #[must_use]
    pub fn start(hist: &'a Histogram) -> Self {
        SpanTimer {
            hist,
            start: Instant::now(),
        }
    }
}

impl Drop for SpanTimer<'_> {
    fn drop(&mut self) {
        let us = self.start.elapsed().as_micros();
        self.hist.observe(u64::try_from(us).unwrap_or(u64::MAX));
    }
}

/// Runs `f`, recording its wall-clock duration (microseconds) into `hist`.
pub fn timed<T>(hist: &Histogram, f: impl FnOnce() -> T) -> T {
    let _span = SpanTimer::start(hist);
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_one_observation() {
        let h = Histogram::new(&SPAN_BOUNDS_US);
        let v = timed(&h, || 7);
        assert_eq!(v, 7);
        assert_eq!(h.snapshot().count(), 1);
    }

    #[test]
    fn nested_spans_record_independently() {
        let h = Histogram::new(&SPAN_BOUNDS_US);
        {
            let _outer = SpanTimer::start(&h);
            let _inner = SpanTimer::start(&h);
        }
        assert_eq!(h.snapshot().count(), 2);
    }
}
