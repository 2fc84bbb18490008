//! The metric registry: named, labelled, class-tagged instrument handles.
//!
//! Registration is get-or-create under a mutex and returns an `Arc` handle;
//! instrumented code registers once at setup time and thereafter touches
//! only the lock-free instrument through its `Arc`. The mutex is never on a
//! hot path.

use std::sync::{Arc, Mutex};

use crate::counter::{Counter, Gauge};
use crate::histogram::Histogram;
use crate::snapshot::{Series, SeriesValue, Snapshot};

/// Determinism class of a metric — what its value may depend on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Derived purely from simulation state. Sums commute across worker
    /// threads, so aggregates are identical for `--jobs 1` and `--jobs N`.
    /// The only class admitted into the Prometheus exposition.
    Sim,
    /// Derived from wall-clock time or scheduling (latencies, queue depth,
    /// cache hits). JSON snapshot and stderr summary only.
    Timing,
}

impl Class {
    /// Stable lowercase name used in the JSON snapshot.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Class::Sim => "sim",
            Class::Timing => "timing",
        }
    }
}

/// One registered instrument.
#[derive(Debug, Clone)]
pub(crate) enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Instrument {
    fn kind(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
        }
    }
}

#[derive(Debug)]
pub(crate) struct Entry {
    pub(crate) name: String,
    /// `(key, value)` pairs in registration order (rendered as given).
    pub(crate) labels: Vec<(String, String)>,
    pub(crate) help: String,
    pub(crate) class: Class,
    pub(crate) inst: Instrument,
}

/// A collection of named metrics. Most code uses the process-wide
/// [`crate::global`] registry; tests build private ones.
#[derive(Debug, Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn get_or_insert(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
        class: Class,
        make: impl FnOnce() -> Instrument,
    ) -> Instrument {
        let mut entries = self.entries.lock().expect("registry poisoned");
        if let Some(e) = entries.iter().find(|e| {
            e.name == name && e.labels.len() == labels.len() && {
                e.labels
                    .iter()
                    .zip(labels)
                    .all(|((k, v), (lk, lv))| k == lk && v == lv)
            }
        }) {
            assert_eq!(
                e.class, class,
                "metric {name} re-registered with a different class"
            );
            let inst = e.inst.clone();
            return inst;
        }
        let inst = make();
        if let Some(family) = entries.iter().find(|e| e.name == name) {
            assert_eq!(
                family.inst.kind(),
                inst.kind(),
                "metric {name} re-registered with a different kind"
            );
        }
        entries.push(Entry {
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            help: help.to_string(),
            class,
            inst: inst.clone(),
        });
        inst
    }

    /// Gets or creates an unlabelled counter.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered with a different kind or
    /// class.
    pub fn counter(&self, name: &str, help: &str, class: Class) -> Arc<Counter> {
        self.counter_with(name, &[], help, class) // htpb-lint: allow(obs/class-explicit) -- registry-internal delegation; the literal Class lives at the caller's registration site
    }

    /// Gets or creates a counter carrying the given label pairs (one series
    /// of a family; the family shares `name`, kind and class).
    ///
    /// # Panics
    ///
    /// Panics on kind or class mismatch with an existing registration.
    pub fn counter_with(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
        class: Class,
    ) -> Arc<Counter> {
        match self.get_or_insert(name, labels, help, class, || {
            Instrument::Counter(Arc::new(Counter::new()))
        }) {
            Instrument::Counter(c) => c,
            _ => unreachable!("kind checked at registration"),
        }
    }

    /// Gets or creates an unlabelled gauge.
    ///
    /// # Panics
    ///
    /// Panics on kind or class mismatch with an existing registration.
    pub fn gauge(&self, name: &str, help: &str, class: Class) -> Arc<Gauge> {
        match self.get_or_insert(name, &[], help, class, || {
            Instrument::Gauge(Arc::new(Gauge::new()))
        }) {
            Instrument::Gauge(g) => g,
            _ => unreachable!("kind checked at registration"),
        }
    }

    /// Gets or creates an unlabelled histogram with the given bucket
    /// bounds (see [`Histogram::new`]).
    ///
    /// # Panics
    ///
    /// Panics on kind or class mismatch, or (from [`Histogram::new`]) on
    /// invalid bounds.
    pub fn histogram(
        &self,
        name: &str,
        bounds: &[u64],
        help: &str,
        class: Class,
    ) -> Arc<Histogram> {
        match self.get_or_insert(name, &[], help, class, || {
            Instrument::Histogram(Arc::new(Histogram::new(bounds)))
        }) {
            Instrument::Histogram(h) => h,
            _ => unreachable!("kind checked at registration"),
        }
    }

    /// A point-in-time snapshot of every registered series, sorted by
    /// metric name then numeric-aware label values — the canonical order
    /// all three expositions share.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let entries = self.entries.lock().expect("registry poisoned");
        let mut series: Vec<Series> = entries
            .iter()
            .map(|e| Series {
                name: e.name.clone(),
                labels: e.labels.clone(),
                help: e.help.clone(),
                class: e.class,
                value: match &e.inst {
                    Instrument::Counter(c) => SeriesValue::Counter(c.get()),
                    Instrument::Gauge(g) => SeriesValue::Gauge(g.get()),
                    Instrument::Histogram(h) => SeriesValue::Histogram(h.snapshot()),
                },
            })
            .collect();
        drop(entries);
        series.sort_by(|a, b| {
            a.name
                .cmp(&b.name)
                .then_with(|| cmp_labels(&a.labels, &b.labels))
        });
        Snapshot { series }
    }

    /// Zeroes every registered instrument, keeping registrations (and any
    /// `Arc` handles instrumented code holds) valid. Lets one process run
    /// several independent `--metrics` campaigns (tests, tools).
    pub fn reset(&self) {
        let entries = self.entries.lock().expect("registry poisoned");
        for e in entries.iter() {
            match &e.inst {
                Instrument::Counter(c) => c.reset(),
                Instrument::Gauge(g) => g.reset(),
                Instrument::Histogram(h) => h.reset(),
            }
        }
    }
}

/// Orders label sets key-by-key, comparing values numerically when both
/// parse as integers (`router="2"` before `router="10"`).
fn cmp_labels(a: &[(String, String)], b: &[(String, String)]) -> std::cmp::Ordering {
    for ((ka, va), (kb, vb)) in a.iter().zip(b) {
        let ord = ka
            .cmp(kb)
            .then_with(|| match (va.parse::<u64>(), vb.parse::<u64>()) {
                (Ok(na), Ok(nb)) => na.cmp(&nb),
                _ => va.cmp(vb),
            });
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    a.len().cmp(&b.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent() {
        let r = Registry::new();
        let a = r.counter("x_total", "help", Class::Sim);
        let b = r.counter("x_total", "help", Class::Sim);
        a.add(3);
        b.add(4);
        assert_eq!(a.get(), 7);
        assert_eq!(r.snapshot().series.len(), 1);
    }

    #[test]
    fn families_share_a_name_with_distinct_labels() {
        let r = Registry::new();
        r.counter_with("f_total", &[("router", "10")], "h", Class::Sim)
            .add(1);
        r.counter_with("f_total", &[("router", "2")], "h", Class::Sim)
            .add(2);
        let snap = r.snapshot();
        assert_eq!(snap.series.len(), 2);
        // Numeric-aware ordering: 2 before 10.
        assert_eq!(snap.series[0].labels[0].1, "2");
        assert_eq!(snap.series[1].labels[0].1, "10");
    }

    #[test]
    #[should_panic(expected = "different class")]
    fn class_mismatch_panics() {
        let r = Registry::new();
        let _ = r.counter("x_total", "h", Class::Sim);
        let _ = r.counter("x_total", "h", Class::Timing);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        let _ = r.counter_with("x", &[("a", "1")], "h", Class::Sim);
        let _ = r.gauge("x", "h", Class::Sim);
    }

    #[test]
    fn reset_keeps_handles_live() {
        let r = Registry::new();
        let c = r.counter("x_total", "h", Class::Sim);
        c.add(9);
        r.reset();
        assert_eq!(c.get(), 0);
        c.inc();
        assert_eq!(c.get(), 1);
    }
}
