//! The benchmark's own span recorder.
//!
//! No span lives inside the program: a traced run re-composes a workload
//! from the layers' public calls and wraps each call in
//! [`Tracer::span`]. Spans are kept in memory and written out when the run
//! ends. A span's layer is the part of its name before the first dot.

use std::collections::BTreeMap;
use std::time::Instant;

use htpb_harness::json::Value;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// One row of the per-layer table.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    /// Layer (crate) name.
    pub layer: &'static str,
    /// Time inside the layer's outermost spans.
    pub busy_s: f64,
    /// Busy time minus the part covered by child spans.
    pub self_s: f64,
    /// Number of spans.
    pub spans: u64,
}

/// Records nested spans of one traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder; span times count from now.
    #[must_use]
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`. `f` gets the tracer back so
    /// the calls it makes can nest their own spans.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// All spans, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total time of the root spans: the traced wall.
    #[must_use]
    pub fn wall_s(&self) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::dur_ns)
            .sum();
        ns as f64 / 1e9
    }

    /// Total time of the spans called `name`.
    #[must_use]
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum();
        ns as f64 / 1e9
    }

    /// Busy time, self time and span count per layer, largest self time
    /// first. Self times are whole nanoseconds of disjoint intervals, so
    /// they sum to [`Tracer::wall_s`] exactly.
    #[must_use]
    pub fn layer_table(&self) -> Vec<LayerRow> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut rows: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let row = rows.entry(s.layer()).or_default();
            // A span nested in its own layer is already inside that layer's
            // busy time.
            if s.parent.map(|p| self.spans[p].layer()) != Some(s.layer()) {
                row.0 += s.dur_ns();
            }
            row.1 += s.dur_ns() - child_ns[i];
            row.2 += 1;
        }
        let mut table: Vec<LayerRow> = rows
            .into_iter()
            .map(|(layer, (busy, own, spans))| LayerRow {
                layer,
                busy_s: busy as f64 / 1e9,
                self_s: own as f64 / 1e9,
                spans,
            })
            .collect();
        table.sort_by(|a, b| b.self_s.total_cmp(&a.self_s));
        table
    }

    /// The spans as a JSON array (name, start, end, parent).
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Value::obj(vec![
                        ("name", Value::Str(s.name.to_string())),
                        ("start_ns", Value::Int(s.start_ns as i64)),
                        ("end_ns", Value::Int(s.end_ns as i64)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::Int(p as i64)),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_the_wall() {
        let mut t = Tracer::new();
        for _ in 0..3 {
            t.span("core.root", |t| {
                t.span("noc.a", |t| {
                    t.span("noc.inner", |_| std::hint::black_box(1 + 1));
                });
                t.span("manycore.b", |_| ());
            });
        }
        let table = t.layer_table();
        let self_sum: f64 = table.iter().map(|r| r.self_s).sum();
        assert!((self_sum - t.wall_s()).abs() < 1e-9);
        let noc = table.iter().find(|r| r.layer == "noc").unwrap();
        assert_eq!(noc.spans, 6);
        // The nested noc span is not counted twice in the busy time.
        assert!(noc.busy_s <= t.total_s("noc.a") + 1e-12);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[2].parent, Some(1));
    }
}
