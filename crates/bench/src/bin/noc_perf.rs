//! Cycles-per-second meter for the NoC hot path.
//!
//! Times a handful of fixed scenarios once and prints one JSON line per
//! scenario — cheap enough to run in CI for trend-spotting and to capture the
//! before/after numbers of `results/BENCH_noc.json`. Scenarios cover the
//! regimes the active-set stepping is designed around: low uniform-random
//! injection on the paper's 16×16 platform, bursty hotspot (`POWER_REQ`)
//! epochs with idle gaps, an all-to-center drain, and a fully idle mesh.
//!
//! Usage: `noc_perf [--smoke] [--json <out.json>] [--check <BENCH_noc.json>] [--metrics]`
//!
//! - `--smoke` shrinks cycle counts ~10× for CI smoke runs;
//! - `--json` additionally writes the measurements as one machine-readable
//!   JSON document;
//! - `--check` compares the measured cycles/sec against the committed
//!   `after_cycles_per_sec` of `results/BENCH_noc.json` and exits non-zero
//!   on a >25% regression. The gate is ratio-based (measured/committed per
//!   scenario), and scenarios whose cycle counts differ more than 2× from
//!   the committed run are skipped — a `--smoke` run is not "matched
//!   scale" and must not trip the gate;
//! - `--metrics` enables live NoC metrics on every timed network and prints
//!   the registry summary on stderr at exit. Combining `--metrics` with
//!   `--check` is the observability layer's standing overhead gate: the
//!   timed hot loop must clear the same 0.75× bar with metrics on.
//!   Counter totals cover all [`RUNS`] timing runs of each scenario, not
//!   just the best one.

#![forbid(unsafe_code)]

use std::process::ExitCode;
use std::time::Instant;

use htpb_harness::cli::flag_value;
use htpb_harness::json::{self, Value};
use htpb_noc::{
    HotspotTraffic, Mesh2d, Network, NetworkConfig, NodeId, Packet, TrafficPattern, UniformTraffic,
};
use htpb_trojan::{TamperRule, TrojanFleet};

/// Best-of-N timing runs per scenario (the container may jitter).
const RUNS: usize = 3;

/// A measured run regresses when it falls below this fraction of the
/// committed cycles/sec (`--check`).
const CHECK_RATIO: f64 = 0.75;

struct Outcome {
    cycles: u64,
    delivered: u64,
    wall_s: f64,
}

impl Outcome {
    fn cycles_per_sec(&self) -> f64 {
        self.cycles as f64 / self.wall_s.max(1e-12)
    }
}

fn time_scenario(mut run: impl FnMut() -> (u64, u64)) -> Outcome {
    let mut best = Outcome {
        cycles: 0,
        delivered: 0,
        wall_s: f64::INFINITY,
    };
    for _ in 0..RUNS {
        let start = Instant::now();
        let (cycles, delivered) = run();
        let wall_s = start.elapsed().as_secs_f64();
        if wall_s < best.wall_s {
            best = Outcome {
                cycles,
                delivered,
                wall_s,
            };
        }
    }
    best
}

fn report(scenario: &str, o: &Outcome) {
    println!(
        "{{\"scenario\":\"{scenario}\",\"cycles\":{},\"delivered\":{},\"wall_s\":{:.6},\"cycles_per_sec\":{:.0}}}",
        o.cycles,
        o.delivered,
        o.wall_s,
        o.cycles_per_sec()
    );
}

/// Drives a 16×16 mesh with a per-cycle traffic generator for `cycles`
/// cycles, then drains. Returns (total cycles stepped, packets delivered).
fn drive(mesh: Mesh2d, mut traffic: impl TrafficPattern, cycles: u64) -> (u64, u64) {
    let mut net = Network::new(NetworkConfig::new(mesh));
    if htpb_obs::enabled() {
        net.enable_metrics();
    }
    for c in 0..cycles {
        for p in traffic.generate(c) {
            let _ = net.inject(p);
        }
        net.step();
    }
    net.run_until_idle(1_000_000);
    if htpb_obs::enabled() {
        htpb_manycore::obs_bridge::absorb_network(&net);
    }
    (net.cycle(), net.stats().delivered_packets())
}

fn run_scenarios(scale: u64) -> Vec<(&'static str, Outcome)> {
    let mesh16 = Mesh2d::new(16, 16).unwrap();
    let mesh8 = Mesh2d::new(8, 8).unwrap();
    let mut results = Vec::new();

    // Low and moderate uniform-random injection on the paper's platform.
    for (name, rate) in [("uniform16_rate001", 0.01), ("uniform16_rate005", 0.05)] {
        let cycles = 20_000 / scale;
        let o = time_scenario(|| {
            drive(
                mesh16,
                UniformTraffic::new(mesh16, rate, htpb_noc::PacketKind::Meta, 42),
                cycles,
            )
        });
        results.push((name, o));
    }

    // Bursty POWER_REQ epochs: one all-nodes burst to the manager every
    // 2000 cycles, long idle gaps in between (the Fig. 5 traffic shape).
    {
        let cycles = 40_000 / scale;
        let o = time_scenario(|| {
            drive(
                mesh16,
                HotspotTraffic::new(mesh16, mesh16.center(), 2_000, 0, 7),
                cycles,
            )
        });
        results.push(("hotspot16_epoch2k", o));
    }

    // All-to-center drain on 8×8 (the original noc_throughput shape),
    // with an armed 16-Trojan fleet so the inspector hot path is included.
    {
        let o = time_scenario(|| {
            let nodes: Vec<NodeId> = (0..16).map(|i| NodeId(i * 4)).collect();
            let mut fleet = TrojanFleet::new(&nodes, TamperRule::Zero);
            fleet.configure_all(&[], mesh8.center(), true);
            let mut net = Network::with_inspector(NetworkConfig::new(mesh8), fleet);
            if htpb_obs::enabled() {
                net.enable_metrics();
            }
            for _ in 0..4 {
                for src in mesh8.iter_nodes() {
                    if src != mesh8.center() {
                        let _ = net.inject(Packet::power_request(src, mesh8.center(), 1_000));
                    }
                }
            }
            net.run_until_idle(1_000_000);
            if htpb_obs::enabled() {
                htpb_manycore::obs_bridge::absorb_network(&net);
            }
            (net.cycle(), net.stats().delivered_packets())
        });
        results.push(("hotspot8_drain_trojan", o));
    }

    // Fully idle 16×16 mesh: the pure cost of stepping a quiet network.
    {
        let cycles = 2_000_000 / scale;
        let o = time_scenario(|| {
            let mut net = Network::new(NetworkConfig::new(mesh16));
            if htpb_obs::enabled() {
                net.enable_metrics();
            }
            net.step_n(cycles);
            if htpb_obs::enabled() {
                htpb_manycore::obs_bridge::absorb_network(&net);
            }
            (net.cycle(), 0)
        });
        results.push(("idle16_empty", o));
    }

    results
}

fn write_json(path: &str, smoke: bool, results: &[(&str, Outcome)]) -> std::io::Result<()> {
    let scenarios = results
        .iter()
        .map(|(name, o)| {
            Value::obj(vec![
                ("scenario", Value::Str((*name).to_string())),
                ("cycles", Value::Int(o.cycles as i64)),
                ("delivered", Value::Int(o.delivered as i64)),
                ("wall_s", Value::Num(o.wall_s)),
                ("cycles_per_sec", Value::Num(o.cycles_per_sec().round())),
            ])
        })
        .collect();
    let doc = Value::obj(vec![
        ("bench", Value::Str("noc_perf".to_string())),
        (
            "scale",
            Value::Str(if smoke { "smoke" } else { "full" }.to_string()),
        ),
        ("runs", Value::Int(RUNS as i64)),
        ("scenarios", Value::Arr(scenarios)),
    ]);
    htpb_harness::commit_file(
        &htpb_harness::StdFs,
        path.as_ref(),
        (doc.render() + "\n").as_bytes(),
    )
}

/// Gates the measured numbers on the committed `BENCH_noc.json`. Returns
/// `false` when any matched-scale scenario regresses below [`CHECK_RATIO`]
/// of its committed `after_cycles_per_sec`.
fn check_against(path: &str, results: &[(&str, Outcome)]) -> bool {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("noc_perf: --check: reading {path}: {e}");
            return false;
        }
    };
    let doc = match json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("noc_perf: --check: parsing {path}: {e}");
            return false;
        }
    };
    let Some(committed) = doc.get("scenarios").and_then(Value::as_arr) else {
        eprintln!("noc_perf: --check: {path} has no `scenarios` array");
        return false;
    };
    let mut ok = true;
    let mut compared = 0usize;
    for entry in committed {
        let Some(name) = entry.get("scenario").and_then(Value::as_str) else {
            continue;
        };
        let (Some(ref_cycles), Some(ref_cps)) = (
            entry.get("cycles").and_then(Value::as_f64),
            entry.get("after_cycles_per_sec").and_then(Value::as_f64),
        ) else {
            continue;
        };
        let Some((_, measured)) = results.iter().find(|(n, _)| *n == name) else {
            eprintln!("perf-check: {name}: not measured, skipped");
            continue;
        };
        // "Matched scale" guard: a --smoke run steps ~10× fewer cycles and
        // has a different warm-up/drain mix — not comparable.
        let cycles = measured.cycles as f64;
        if !(ref_cycles / 2.0..=ref_cycles * 2.0).contains(&cycles) {
            eprintln!(
                "perf-check: {name}: cycle count {cycles:.0} vs committed {ref_cycles:.0}, scale mismatch, skipped"
            );
            continue;
        }
        compared += 1;
        let ratio = measured.cycles_per_sec() / ref_cps;
        let verdict = if ratio >= CHECK_RATIO {
            "ok"
        } else {
            "REGRESSED"
        };
        eprintln!(
            "perf-check: {name}: {:.0} c/s vs committed {ref_cps:.0} (ratio {ratio:.2}) {verdict}",
            measured.cycles_per_sec()
        );
        if ratio < CHECK_RATIO {
            ok = false;
        }
    }
    if compared == 0 {
        eprintln!("perf-check: no scenario compared (scale mismatch everywhere?) — failing");
        return false;
    }
    ok
}

fn main() -> ExitCode {
    let mut smoke = false;
    let mut metrics = false;
    let mut json_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let parsed = if let Some(v) = flag_value("--json", &a, &mut args) {
            v.map(|path| json_path = Some(path))
        } else if let Some(v) = flag_value("--check", &a, &mut args) {
            v.map(|path| check_path = Some(path))
        } else {
            match a.as_str() {
                "--smoke" => {
                    smoke = true;
                    Ok(())
                }
                "--metrics" => {
                    metrics = true;
                    Ok(())
                }
                other => Err(format!("unknown flag `{other}`")),
            }
        };
        if let Err(e) = parsed {
            eprintln!("noc_perf: {e}");
            return ExitCode::FAILURE;
        }
    }

    htpb_obs::set_enabled(metrics);

    let scale = if smoke { 10 } else { 1 };
    let results = run_scenarios(scale);
    for (name, o) in &results {
        report(name, o);
    }
    if metrics {
        eprint!("{}", htpb_obs::global().snapshot().to_summary());
    }
    if let Some(path) = &json_path {
        if let Err(e) = write_json(path, smoke, &results) {
            eprintln!("noc_perf: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &check_path {
        if !check_against(path, &results) {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
