//! Drives one workload and renders what it measured.
//!
//! A timed run (`--trace 0`) reports the end-to-end metrics; a traced run
//! (`--trace 1`) reports the per-layer metrics. End-to-end metrics are
//! never measured with tracing on.

use std::io;
use std::time::Instant;

use htpb_harness::json::Value;

use crate::layers;
use crate::spec::{self, MetricDef};
use crate::stats::Summary;
use crate::tmp::TempRoot;
use crate::trace::{LayerRow, Tracer};
use crate::workloads::{self, Ctx};

/// Set-up repetitions of a timed run; `setup_s` is their fastest.
const SETUP_REPS: usize = 5;
/// Fewest timed iterations of a full-scale run.
const MIN_ITERS: usize = 3;
/// Timed iterations of a smoke run (two, so the digest is checked to
/// repeat).
const SMOKE_ITERS: usize = 2;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Measurement window in seconds.
    pub seconds: f64,
    /// Shrink every size to seconds.
    pub smoke: bool,
    /// Traced run (per-layer metrics) instead of a timed one.
    pub trace: bool,
}

/// One measured metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Catalogue entry.
    pub def: MetricDef,
    /// Median, quartiles and sample count over this run's samples.
    pub summary: Summary,
}

/// Everything one run produced.
#[derive(Debug)]
pub struct RunDoc {
    /// What was asked.
    pub args: RunArgs,
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// FNV over the simulated outputs of one iteration. Informational: the
    /// golden tests own whether it may change, but two commits can be
    /// compared exactly with it.
    pub sim_digest: u64,
    /// The metrics, in catalogue order.
    pub metrics: Vec<Metric>,
    /// Timed runs: host seconds of every timed iteration, in order.
    pub wall_samples: Vec<f64>,
    /// Remarks (what `--seed` means here, scale).
    pub notes: Vec<String>,
    /// Traced runs: the per-layer table.
    pub layers: Vec<LayerRow>,
    /// Traced runs: every span.
    pub spans: Option<Value>,
}

/// Peak resident set of this process, from `VmHWM` in `/proc/self/status`.
fn peak_rss_mb() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM in /proc/self/status"))
}

/// Runs `args.workload` once, timed or traced.
pub fn run_workload(args: &RunArgs) -> io::Result<RunDoc> {
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        tmp: TempRoot::new()?,
    };
    let unknown = || {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("unknown workload `{}`", args.workload),
        )
    };
    let def = spec::workload(&args.workload).ok_or_else(unknown)?;
    let mut workload = workloads::build(def.name, &ctx).ok_or_else(unknown)?;
    let mut doc = RunDoc {
        args: args.clone(),
        attempted: 0,
        failed: 0,
        sim_digest: 0,
        metrics: Vec::new(),
        wall_samples: Vec::new(),
        notes: vec![format!(
            "work_per_s counts {} per host second",
            def.work_unit
        )],
        layers: Vec::new(),
        spans: None,
    };
    doc.notes.extend(workload.note());
    if args.smoke {
        doc.notes
            .push("--smoke: sizes are shrunk, values are not comparable with a full run".into());
    }
    if args.trace {
        traced(workload.as_mut(), &mut ctx, &mut doc)?;
    } else {
        timed(workload.as_mut(), &mut ctx, &mut doc)?;
    }
    Ok(doc)
}

fn timed(
    workload: &mut dyn workloads::Workload,
    ctx: &mut Ctx,
    doc: &mut RunDoc,
) -> io::Result<()> {
    let reps = if ctx.smoke { 1 } else { SETUP_REPS };
    let mut setups = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        workload.setup(ctx)?;
        setups.push(t0.elapsed().as_secs_f64());
    }

    let mut walls = Vec::new();
    let mut parts: Vec<Vec<f64>> = Vec::new();
    let window = Instant::now();
    loop {
        let iter = workload.iterate(ctx)?;
        if walls.is_empty() {
            doc.sim_digest = iter.digest;
            parts = vec![Vec::new(); iter.parts.len()];
        }
        walls.push(iter.secs());
        assert_eq!(
            iter.parts.len(),
            parts.len(),
            "an iteration's parts are fixed"
        );
        for (samples, part) in parts.iter_mut().zip(iter.parts) {
            samples.push(part);
        }
        // One more check per iteration: the simulated outputs repeat.
        doc.attempted += iter.attempted + 1;
        doc.failed += iter.failed + u64::from(iter.digest != doc.sim_digest);
        let done = if ctx.smoke {
            walls.len() >= SMOKE_ITERS
        } else {
            walls.len() >= MIN_ITERS && window.elapsed().as_secs_f64() >= ctx.seconds
        };
        if done {
            break;
        }
    }

    // Each part's own floor: a burst slows a few parts of every iteration,
    // rarely the same ones.
    let mut wall = Summary::of(&walls);
    wall.value = parts.iter().map(|samples| Summary::of(samples).value).sum();
    let units = workload.units();
    let values = [
        wall,
        wall.map(|s| units / s),
        Summary::single(peak_rss_mb()?),
        Summary::of(&setups),
    ];
    doc.metrics = spec::end_to_end()
        .into_iter()
        .zip(values)
        .map(|(def, summary)| Metric { def, summary })
        .collect();
    doc.wall_samples = walls;
    Ok(())
}

fn traced(
    workload: &mut dyn workloads::Workload,
    ctx: &mut Ctx,
    doc: &mut RunDoc,
) -> io::Result<()> {
    workload.setup(ctx)?;
    let base = workload.iterate(ctx)?;
    let mut tracer = Tracer::new();
    let composed = workload.traced(ctx, &mut tracer)?;
    doc.sim_digest = base.digest;
    // One more check: the re-composed program computes what the public
    // entry point computes, or the trace attributes a different program.
    doc.attempted = base.attempted + composed.attempted + 1;
    doc.failed = base.failed + composed.failed + u64::from(composed.digest != base.digest);

    let mut values = layers::measure_all(ctx)?.0;
    let wall = tracer.wall_s();
    let below_root: f64 = tracer
        .spans()
        .iter()
        .filter(|s| s.parent == Some(0))
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
        .sum();
    doc.layers = tracer.layer_table();
    values.push(("trace.wall_s".into(), wall));
    values.push(("trace.overhead_ratio".into(), wall / base.secs()));
    // Time the public entry point spends outside the traced layer calls:
    // on `repro_quick`, the harness around the jobs.
    values.push(("trace.residual_s".into(), base.secs() - below_root));
    values.push(("trace.spans".into(), tracer.spans().len() as f64));
    for layer in spec::TRACE_LAYERS {
        let own = doc.layers.iter().find(|r| r.layer == layer);
        values.push((
            format!("trace.self_s.{layer}"),
            own.map_or(0.0, |r| r.self_s),
        ));
    }
    doc.spans = Some(tracer.to_json());

    let catalogue = spec::per_layer();
    assert_eq!(
        values.len(),
        catalogue.len(),
        "the layers measured something the catalogue does not list"
    );
    doc.metrics = catalogue
        .into_iter()
        .map(|def| {
            let value = values
                .iter()
                .find(|(name, _)| *name == def.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", def.name))
                .1;
            Metric {
                def,
                summary: Summary::single(value),
            }
        })
        .collect();
    Ok(())
}

fn hex(digest: u64) -> String {
    format!("{digest:016x}")
}

impl RunDoc {
    /// No operation failed and every check held.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The layer with the largest self time.
    #[must_use]
    pub fn top_layer(&self) -> Option<&'static str> {
        self.layers.first().map(|r| r.layer)
    }

    /// The line the benchmark driver reads: exactly `correct`,
    /// `attempted`, `failed` and `metrics` (value and unit).
    #[must_use]
    pub fn contract_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.def.name.clone(),
                    Value::obj(vec![
                        ("value", Value::Num(m.summary.value)),
                        ("unit", Value::Str(m.def.unit.into())),
                    ]),
                )
            })
            .collect();
        Value::obj(vec![
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Int(self.attempted as i64)),
            ("failed", Value::Int(self.failed as i64)),
            ("metrics", Value::Obj(metrics)),
        ])
        .render()
    }

    /// The full document `--out` writes and `perf compare` reads.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let mut fields = vec![
                    ("value", Value::Num(m.summary.value)),
                    ("unit", Value::Str(m.def.unit.into())),
                    ("better", Value::Str(m.def.better.as_str().into())),
                    ("median", Value::Num(m.summary.median)),
                    ("q1", Value::Num(m.summary.q1)),
                    ("q3", Value::Num(m.summary.q3)),
                    ("n", Value::Int(m.summary.n as i64)),
                ];
                if let Some(bound) = m.def.bound {
                    fields.push(("bound", Value::Num(bound)));
                }
                (m.def.name.clone(), Value::obj(fields))
            })
            .collect();
        let mut fields = vec![
            ("bench", Value::Str("htpb-perf".into())),
            ("workload", Value::Str(self.args.workload.clone())),
            ("seed", Value::Str(self.args.seed.to_string())),
            ("seconds", Value::Num(self.args.seconds)),
            ("smoke", Value::Bool(self.args.smoke)),
            ("trace", Value::Bool(self.args.trace)),
            // A closed loop with one client: nothing runs concurrently.
            ("clients", Value::Int(1)),
            ("workers", Value::Int(1)),
            (
                "available_parallelism",
                Value::Int(std::thread::available_parallelism().map_or(1, |n| n.get() as i64)),
            ),
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Int(self.attempted as i64)),
            ("failed", Value::Int(self.failed as i64)),
            (
                "fail_ratio",
                Value::Num(self.failed as f64 / self.attempted.max(1) as f64),
            ),
            ("sim_digest", Value::Str(hex(self.sim_digest))),
            (
                "notes",
                Value::Arr(self.notes.iter().cloned().map(Value::Str).collect()),
            ),
            ("metrics", Value::Obj(metrics)),
        ];
        if !self.args.trace {
            let samples = self.wall_samples.iter().map(|&s| Value::Num(s)).collect();
            fields.push(("wall_samples", Value::Arr(samples)));
        }
        if self.args.trace {
            let layers = self
                .layers
                .iter()
                .map(|r| {
                    Value::obj(vec![
                        ("layer", Value::Str(r.layer.into())),
                        ("busy_s", Value::Num(r.busy_s)),
                        ("self_s", Value::Num(r.self_s)),
                        ("spans", Value::Int(r.spans as i64)),
                    ])
                })
                .collect();
            fields.push(("layers", Value::Arr(layers)));
            fields.push((
                "top_layer",
                self.top_layer()
                    .map_or(Value::Null, |l| Value::Str(l.into())),
            ));
            fields.push(("spans", self.spans.clone().unwrap_or(Value::Null)));
        }
        Value::obj(fields)
    }

    /// Every metric by name with unit, direction and bound, then the
    /// checks, for a person.
    #[must_use]
    pub fn table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let a = &self.args;
        let _ = writeln!(
            out,
            "== {} ({}, seed {}, {} s window{}) ==",
            a.workload,
            if a.trace { "traced" } else { "timed" },
            a.seed,
            a.seconds,
            if a.smoke { ", smoke" } else { "" }
        );
        let _ = writeln!(
            out,
            "{:<48} {:>16} {:<6} {:<7} {:>6}  median q1..q3 (n)",
            "metric", "value", "unit", "better", "bound"
        );
        for m in &self.metrics {
            let s = &m.summary;
            let _ = writeln!(
                out,
                "{:<48} {:>16.6} {:<6} {:<7} {:>6}  {:.6} {:.6}..{:.6} ({})",
                m.def.name,
                s.value,
                m.def.unit,
                m.def.better.as_str(),
                m.def
                    .bound
                    .map_or("-".into(), |b| format!("{:.0}%", b * 100.0)),
                s.median,
                s.q1,
                s.q3,
                s.n
            );
        }
        if a.trace {
            let wall: f64 = self.layers.iter().map(|r| r.self_s).sum();
            let _ = writeln!(
                out,
                "{:<12} {:>12} {:>12} {:>8} {:>7}",
                "layer", "busy_s", "self_s", "spans", "share"
            );
            for r in &self.layers {
                let _ = writeln!(
                    out,
                    "{:<12} {:>12.6} {:>12.6} {:>8} {:>6.1}%",
                    r.layer,
                    r.busy_s,
                    r.self_s,
                    r.spans,
                    100.0 * r.self_s / wall
                );
            }
            let _ = writeln!(
                out,
                "self times sum to {wall:.6} s of traced wall; top layer: {}",
                self.top_layer().unwrap_or("-")
            );
        }
        let _ = writeln!(
            out,
            "checks: {} attempted, {} failed (fail_ratio {}); sim_digest {}",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64,
            hex(self.sim_digest)
        );
        for note in &self.notes {
            let _ = writeln!(out, "note: {note}");
        }
        out
    }
}
