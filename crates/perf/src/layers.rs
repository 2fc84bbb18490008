//! The per-layer metrics: each layer (crate) measured from outside by
//! timing calls to its public functions.
//!
//! Inputs are fixed (their seeds do not follow `--seed`), so every count
//! repeats bit for bit and a timing of one commit is comparable with the
//! same timing of another. The NoC scenarios have the shapes of
//! `noc_perf`, so `results/BENCH_noc.json` history stays comparable.

use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use htpb_attack::{
    AttackModel, AttackOutcome, AttackSample, Mix, Placement, PlacementOptimizer, PlacementStrategy,
};
use htpb_core::experiments::{
    fig3_point, optimal_vs_random, regression_dataset, regression_placements, run_campaign,
    CampaignConfig, ManagerLocation,
};
use htpb_harness::json::{self, Value};
use htpb_harness::{
    commit_append, commit_file, run_jobs, std_fs, BaselineCache, Campaign, Fs, JobOutput, JobSpec,
    Journal, ResultCache, RunOptions, StdFs,
};
use htpb_manycore::SystemBuilder;
use htpb_noc::{
    HotspotTraffic, Mesh2d, Network, NetworkConfig, NodeId, Packet, PacketInspector, PacketKind,
    TrafficPattern, UniformTraffic, FLITS_PER_META_PACKET,
};
use htpb_obs::{pow2_bounds, Class, Registry};
use htpb_power::{AllocatorKind, GlobalManager, PowerModel, PowerRequest};
use htpb_trojan::{TamperRule, TrojanFleet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::memfs::MemFs;
use crate::spec::ALLOC_SIZES;
use crate::stats::{percentile, Summary};
use crate::trace::Tracer;
use crate::workloads::{campaign_pass, composed_campaign, noop_jobs, ComposedCampaign, Ctx};

/// Problem sizes of one suite run. `--smoke` keeps every metric name and
/// shrinks what is behind it.
struct Sizes {
    /// Time spent sampling one looped metric.
    budget: Duration,
    /// Side of the mesh behind the `16` scenarios.
    mesh16: u16,
    /// Side of the mesh behind the `8` scenarios.
    mesh8: u16,
    /// Divisor of the `noc_perf` cycle counts.
    noc_div: u64,
    /// Nodes behind `n64`, `n256`, `n512`.
    n64: u32,
    n256: u32,
    n512: u32,
    /// Jobs in a harness pass.
    jobs: u64,
    /// Records in the journal `journal_read` parses.
    journal_records: u64,
    /// Divisor of the allocator requester counts.
    alloc_div: usize,
    smoke: bool,
}

impl Sizes {
    fn of(ctx: &Ctx) -> Sizes {
        if ctx.smoke {
            Sizes {
                budget: Duration::from_millis(2),
                mesh16: 6,
                mesh8: 4,
                noc_div: 100,
                n64: 16,
                n256: 36,
                n512: 64,
                jobs: 40,
                journal_records: 200,
                alloc_div: 8,
                smoke: true,
            }
        } else {
            Sizes {
                budget: Duration::from_secs_f64(ctx.seconds * 0.004),
                mesh16: 16,
                mesh8: 8,
                noc_div: 4,
                n64: 64,
                n256: 256,
                n512: 512,
                jobs: 1_000,
                journal_records: 10_000,
                alloc_div: 1,
                smoke: false,
            }
        }
    }

    /// The Mix-1 campaign on `nodes` nodes.
    fn campaign(&self, nodes: u32, detailed: bool) -> CampaignConfig {
        let mut cfg = if self.smoke {
            CampaignConfig::tiny(Mix::Mix1)
        } else {
            CampaignConfig::new(Mix::Mix1)
        };
        cfg.nodes = nodes;
        cfg.detailed_caches = detailed;
        cfg
    }

    /// Host ns per call of `f`: batches of about a millisecond, sampled for
    /// the budget (3 to 30 batches), lower decile (see [`Summary`]).
    fn ns_per_call(&self, mut f: impl FnMut()) -> f64 {
        let t0 = Instant::now();
        f();
        let first = t0.elapsed().as_nanos().max(1) as u64;
        let batch = (1_000_000 / first).clamp(1, 1_000_000);
        let started = Instant::now();
        let mut samples = Vec::new();
        while samples.len() < 3 || (started.elapsed() < self.budget && samples.len() < 30) {
            let t0 = Instant::now();
            for _ in 0..batch {
                f();
            }
            samples.push(t0.elapsed().as_nanos() as f64 / batch as f64);
        }
        Summary::of(&samples).value
    }

    /// Host seconds of `f`, the fastest of three calls (for calls of 10 ms
    /// and up); a smoke run calls once.
    fn secs_of_3<T>(&self, mut f: impl FnMut() -> T) -> f64 {
        let samples: Vec<f64> = (0..if self.smoke { 1 } else { 3 })
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(f());
                t0.elapsed().as_secs_f64()
            })
            .collect();
        Summary::of(&samples).value
    }
}

/// Collected `(metric name, value)` pairs.
#[derive(Debug, Default)]
pub struct LayerMetrics(pub Vec<(String, f64)>);

impl LayerMetrics {
    fn put(&mut self, name: impl Into<String>, value: f64) {
        self.0.push((name.into(), value));
    }
}

/// Measures every layer.
pub fn measure_all(ctx: &mut Ctx) -> io::Result<LayerMetrics> {
    let sizes = Sizes::of(ctx);
    let mut out = LayerMetrics::default();
    noc(&sizes, &mut out);
    trojan(&sizes, &mut out);
    power(&sizes, &mut out);
    let n64 = chips(&sizes, &mut out);
    manycore(&sizes, &mut out);
    attack(&sizes, &n64, &mut out);
    core(&sizes, &mut out);
    harness(&sizes, ctx, &mut out)?;
    obs(&sizes, &mut out);
    Ok(out)
}

fn square(side: u16) -> Mesh2d {
    Mesh2d::new(side, side).expect("valid mesh")
}

// ------------------------------------------------------------------ noc

/// Drives `mesh` with `traffic` for `cycles` cycles, then drains.
fn drive(mesh: Mesh2d, mut traffic: impl TrafficPattern, cycles: u64) -> Network {
    let mut net = Network::new(NetworkConfig::new(mesh));
    for c in 0..cycles {
        for p in traffic.generate(c) {
            let _ = net.inject(p);
        }
        net.step();
    }
    net.run_until_idle(1_000_000);
    net
}

fn noc(s: &Sizes, out: &mut LayerMetrics) {
    let mesh = square(s.mesh16);
    for (name, rate) in [("uniform16_r001", 0.01), ("uniform16_r005", 0.05)] {
        let mut flit_hops = 0;
        let mut cycles = 0;
        let secs = s.secs_of_3(|| {
            let traffic = UniformTraffic::new(mesh, rate, PacketKind::Meta, 42);
            let net = drive(mesh, traffic, 20_000 / s.noc_div);
            cycles = net.cycle();
            // Every packet of this scenario is a meta packet.
            flit_hops = net.stats().total_hops() * FLITS_PER_META_PACKET as u64;
        });
        out.put(format!("noc.step_ns.{name}"), secs * 1e9 / cycles as f64);
        if rate == 0.05 {
            out.put(
                format!("noc.ns_per_flit_hop.{name}"),
                secs * 1e9 / flit_hops as f64,
            );
        }
    }
    {
        let mut cycles = 0;
        let secs = s.secs_of_3(|| {
            let traffic = HotspotTraffic::new(mesh, mesh.center(), 2_000, 0, 7);
            cycles = drive(mesh, traffic, 40_000 / s.noc_div).cycle();
        });
        out.put("noc.step_ns.hotspot16_epoch2k", secs * 1e9 / cycles as f64);
    }
    {
        // `step` call by call: `step_n` would fast-forward the quiet mesh.
        let cycles = 2_000_000 / s.noc_div;
        let mut net = Network::new(NetworkConfig::new(mesh));
        let secs = s.secs_of_3(|| {
            for _ in 0..cycles {
                net.step();
            }
        });
        out.put("noc.step_ns.idle16", secs * 1e9 / cycles as f64);
    }
    {
        // All-to-center drain through an armed 16-Trojan fleet.
        let mesh8 = square(s.mesh8);
        let mut delivered = 0;
        let secs = s.secs_of_3(|| {
            let mut net = Network::with_inspector(NetworkConfig::new(mesh8), armed_fleet(mesh8));
            for _ in 0..4 {
                for src in mesh8.iter_nodes().filter(|&n| n != mesh8.center()) {
                    let _ = net.inject(Packet::power_request(src, mesh8.center(), 1_000));
                }
            }
            net.run_until_idle(1_000_000);
            delivered = net.stats().delivered_packets();
        });
        out.put(
            "noc.drain_ns_per_pkt.hotspot8_trojan",
            secs * 1e9 / delivered as f64,
        );
    }
    let ns = s.ns_per_call(|| {
        std::hint::black_box(Network::new(NetworkConfig::new(mesh)));
    });
    out.put("noc.new_ms.16x16", ns / 1e6);
}

/// Sixteen Trojans on every fourth node, armed against `mesh`'s center.
fn armed_fleet(mesh: Mesh2d) -> TrojanFleet {
    let step = (mesh.nodes() / 16).max(1) as u16;
    let nodes: Vec<NodeId> = (0..16).map(|i| NodeId(i * step)).collect();
    let mut fleet = TrojanFleet::new(&nodes, TamperRule::Zero);
    fleet.configure_all(&[], mesh.center(), true);
    fleet
}

// --------------------------------------------------------------- trojan

fn trojan(s: &Sizes, out: &mut LayerMetrics) {
    let mesh = square(s.mesh8);
    let mut fleet = armed_fleet(mesh);
    // Half power requests (the Trojan's target), half other traffic, seen
    // by infected and by clean routers.
    let mut packets: Vec<(NodeId, Packet)> = mesh
        .iter_nodes()
        .filter(|&n| n != mesh.center())
        .flat_map(|src| {
            [
                (src, Packet::power_request(src, mesh.center(), 1_000)),
                (src, Packet::new(src, mesh.center(), PacketKind::Meta, 7)),
            ]
        })
        .collect();
    let per_pass = packets.len() as f64;
    let ns = s.ns_per_call(|| {
        for (router, packet) in &mut packets {
            std::hint::black_box(fleet.inspect(*router, 0, packet));
        }
    });
    out.put("trojan.inspect_ns", ns / per_pass);

    // The campaign's fleet: five Trojans around the manager, one agent per
    // attacker core (half the chip under Mix-1).
    let chip = Mesh2d::with_nodes(s.n256).expect("valid node count");
    let manager = chip.center();
    let placement = Placement::generate(
        chip,
        5,
        &PlacementStrategy::ClusterAround { anchor: manager },
        &[],
    );
    let agents: Vec<NodeId> = chip.iter_nodes().take(chip.nodes() as usize / 2).collect();
    let mut fleet = TrojanFleet::new(placement.nodes(), TamperRule::Zero);
    let ns = s.ns_per_call(|| fleet.configure_all(&agents, manager, true));
    out.put("trojan.configure_all_us.n256", ns / 1e3);
}

// ---------------------------------------------------------------- power

/// `n` requests drawn uniformly from the model's plausible range.
fn requests(n: usize, model: &PowerModel) -> Vec<PowerRequest> {
    let mut rng = StdRng::seed_from_u64(0x9E37);
    (0..n)
        .map(|core| {
            let mw = rng.gen_range(model.min_power_mw()..model.peak_power_mw());
            PowerRequest::new(core as u16, mw)
        })
        .collect()
}

fn power(s: &Sizes, out: &mut LayerMetrics) {
    let model = PowerModel::default_45nm();
    for kind in AllocatorKind::ALL {
        for n in ALLOC_SIZES {
            let reqs = requests(n / s.alloc_div, &model);
            let budget = 0.6 * reqs.iter().map(|r| r.milliwatts).sum::<f64>();
            let mut allocator = kind.build();
            let ns = s.ns_per_call(|| {
                std::hint::black_box(allocator.allocate(&reqs, budget, &model));
            });
            out.put(format!("power.alloc_ns.{}.n{n}", kind.name()), ns);
        }
    }
    let reqs = requests(256 / s.alloc_div, &model);
    let budget = 0.6 * reqs.iter().map(|r| r.milliwatts).sum::<f64>();
    let mut manager = GlobalManager::new(budget, AllocatorKind::FairShare.build());
    let ns = s.ns_per_call(|| {
        for r in &reqs {
            manager.submit(*r);
        }
        std::hint::black_box(manager.run_epoch(&model));
    });
    out.put("power.run_epoch_us.fair-share.n256", ns / 1e3);
}

// ------------------------------------------------------- campaign chips

/// One re-composed Mix-1 campaign per chip size and cache model. Build,
/// run and whole-campaign times come from its spans; the n256 chips also
/// give the exact counts. Returns the n64 analytic campaign for the
/// `attack` layer.
fn chips(s: &Sizes, out: &mut LayerMetrics) -> ComposedCampaign {
    let mut n64_analytic = None;
    for (size, nodes) in [("n64", s.n64), ("n256", s.n256)] {
        for detailed in [false, true] {
            let cfg = s.campaign(nodes, detailed);
            let mut t = Tracer::new();
            let campaign = composed_campaign(&mut t, &cfg);
            let model = if detailed { "detailed" } else { "analytic" };
            // The clean chip's run is the first `manycore.run` span.
            let clean_run = t
                .spans()
                .iter()
                .find(|s| s.name == "manycore.run")
                .expect("a campaign runs its clean chip");
            out.put(
                format!("manycore.run_ns_per_cycle.{size}.{model}"),
                (clean_run.end_ns - clean_run.start_ns) as f64
                    / (campaign.counts.cycles / 2) as f64,
            );
            let c = campaign.counts;
            if size == "n256" {
                let chip = if detailed {
                    "campaign256_detailed"
                } else {
                    "campaign256"
                };
                out.put(
                    format!("noc.delivered_packets.{chip}"),
                    c.delivered_packets as f64,
                );
                out.put(format!("noc.total_hops.{chip}"), c.total_hops as f64);
            }
            if detailed {
                continue;
            }
            out.put(
                format!("manycore.build_ms.{size}"),
                t.total_s("manycore.build") / 2.0 * 1e3,
            );
            out.put(
                format!("core.run_campaign_ms.{size}"),
                t.total_s("core.campaign") * 1e3,
            );
            if size == "n256" {
                out.put(
                    "trojan.modified_power_requests.campaign256",
                    c.modified_power_requests as f64,
                );
                out.put("manycore.cycles.campaign256", c.cycles as f64);
                out.put("manycore.epochs.campaign256", c.epochs as f64);
            } else {
                n64_analytic = Some(campaign);
            }
        }
    }
    n64_analytic.expect("the n64 analytic chip ran")
}

// ------------------------------------------------------------- manycore

fn manycore(s: &Sizes, out: &mut LayerMetrics) {
    let cfg = s.campaign(s.n256, false);
    let mesh = cfg.mesh();
    // No workload mapped: every tile idles and `run` fast-forwards between
    // epoch boundaries.
    let mut idle = SystemBuilder::new(mesh)
        .manager(mesh.center())
        .build()
        .expect("idle chip builds");
    let cycles = 200_000 / s.noc_div;
    let secs = s.secs_of_3(|| idle.run(cycles));
    out.put(
        "manycore.idle_run_ns_per_cycle.n256",
        secs * 1e9 / cycles as f64,
    );

    let mut busy = SystemBuilder::new(mesh)
        .manager(mesh.center())
        .workload(cfg.mix.workload_for_mesh(mesh))
        .allocator(cfg.allocator)
        .build()
        .expect("campaign chip builds");
    busy.run_epochs(1);
    let ns = s.ns_per_call(|| {
        std::hint::black_box(busy.performance_report());
    });
    out.put("manycore.report_us.n256", ns / 1e3);
}

// --------------------------------------------------------------- attack

fn attack(s: &Sizes, n64: &ComposedCampaign, out: &mut LayerMetrics) {
    let ns = s.ns_per_call(|| {
        std::hint::black_box(AttackOutcome::compare(&n64.attacked, &n64.clean));
    });
    out.put("attack.compare_us", ns / 1e3);

    let chip = Mesh2d::with_nodes(s.n256).expect("valid node count");
    let manager = chip.center();
    for (name, strategy) in [
        (
            "cluster",
            PlacementStrategy::ClusterAround { anchor: manager },
        ),
        ("random", PlacementStrategy::Random { seed: 16 }),
    ] {
        let ns = s.ns_per_call(|| {
            std::hint::black_box(Placement::generate(chip, 16, &strategy, &[manager]));
        });
        out.put(format!("attack.placement_us.{name}.n256"), ns / 1e3);
    }

    let small = Mesh2d::with_nodes(s.n64).expect("valid node count");
    let optimizer = PlacementOptimizer::new(small, small.center(), 8).exclude(&[small.center()]);
    let ns = s.ns_per_call(|| {
        std::hint::black_box(optimizer.optimize());
    });
    out.put("attack.optimize_ms.n64.m8", ns / 1e6);

    // 24 samples of a noisy linear law, as many as a two-mix regression.
    let mut rng = StdRng::seed_from_u64(0xE9);
    let samples: Vec<AttackSample> = (0..24)
        .map(|_| {
            let (rho, eta, m) = (
                rng.gen_range(0.0..8.0),
                rng.gen_range(0.5..4.0),
                rng.gen_range(4.0..16.0),
            );
            let (phi_victims, phi_attackers) = (rng.gen_range(0.5..2.0), rng.gen_range(0.5..2.0));
            AttackSample {
                rho,
                eta,
                m,
                phi_victims,
                phi_attackers,
                q: 2.0 - 0.1 * rho + 0.05 * eta + 0.1 * m + 0.3 * phi_victims - 0.2 * phi_attackers
                    + rng.gen_range(-0.05..0.05),
            }
        })
        .collect();
    assert!(
        AttackModel::fit(&samples).is_some(),
        "samples are well-conditioned"
    );
    let ns = s.ns_per_call(|| {
        std::hint::black_box(AttackModel::fit(&samples));
    });
    out.put("attack.model_fit_us", ns / 1e3);
}

// ----------------------------------------------------------------- core

fn core(s: &Sizes, out: &mut LayerMetrics) {
    let seeds: Vec<u64> = (0..8).collect();
    let secs = s.secs_of_3(|| fig3_point(s.n512, ManagerLocation::Center, 30, &seeds));
    out.put("core.fig3_point_ms.n512", secs * 1e3);

    let small = if s.smoke {
        CampaignConfig::tiny(Mix::Mix1)
    } else {
        CampaignConfig::small(Mix::Mix1)
    };
    let secs = s.secs_of_3(|| optimal_vs_random(&small, 8, &[100, 101]));
    out.put("core.optimal_vs_random_ms.small", secs * 1e3);

    // Four of the twelve canonical placements: one baseline plus four
    // attacked chips, the shape of a `reg-*` job at a third of its size.
    let base = s.campaign(s.n64, false);
    let mesh = base.mesh();
    let placements = regression_placements(mesh, base.manager.resolve(mesh));
    let secs = s.secs_of_3(|| regression_dataset(&base, &[Mix::Mix1], &placements[..4]));
    out.put("core.regression_dataset_ms.n64", secs * 1e3);
}

// -------------------------------------------------------------- harness

fn harness(s: &Sizes, ctx: &mut Ctx, out: &mut LayerMetrics) -> io::Result<()> {
    let dir = ctx.tmp.fresh("layers")?;

    let page = vec![b'x'; 4096];
    let target = dir.join("page.bin");
    let ns = s.ns_per_call(|| {
        commit_file(&StdFs, &target, &page).expect("commit_file on scratch");
    });
    out.put("harness.commit_file_us.4k", ns / 1e3);

    let log = dir.join("append.log");
    let record = vec![b'r'; 160];
    let ns = s.ns_per_call(|| {
        commit_append(&StdFs, &log, &record).expect("commit_append on scratch");
    });
    out.put("harness.commit_append_us", ns / 1e3);

    let journal = Journal::open(&dir.join("record.jsonl"))?;
    let ns = s.ns_per_call(|| {
        journal.record("probe", vec![("id", Value::Str("conf-n0-s0".into()))]);
    });
    out.put("harness.journal_record_us", ns / 1e3);

    // A journal of the usual record mix, written through the null
    // filesystem and put on disk in one piece.
    let mem = Arc::new(MemFs::default());
    let history = dir.join("history.jsonl");
    {
        let writer = Journal::open_with_fs(&history, Arc::clone(&mem) as Arc<dyn Fs>)?;
        for i in 0..s.journal_records / 2 {
            let id = format!("conf-n0-s{i:x}");
            writer.job_start(&id, "conf", 0, 1);
            writer.job_done(&id, "conf", 0, false, true, true, 0.001, None);
        }
    }
    commit_file(&StdFs, &history, &mem.read(&history)?)?;
    let secs = s.secs_of_3(|| Journal::read_events(&history).expect("journal reads back"));
    out.put("harness.journal_read_ms.10k", secs * 1e3);

    let cache = ResultCache::open(dir.join("cache"))?;
    let spec = JobSpec::SweepPoint {
        mix: Mix::Mix1,
        scale: htpb_harness::CampaignScale::Small,
        duty_tenths: 5,
    };
    let output = JobOutput::Sweep {
        duty: 0.5,
        infection: 0.48,
        q: 2.37,
        changes: vec![1.21, 1.18, 0.52, 0.61],
    };
    let ns = s.ns_per_call(|| cache.store(&spec, &output).expect("cache store on scratch"));
    out.put("harness.cache_store_us", ns / 1e3);
    let ns = s.ns_per_call(|| {
        std::hint::black_box(cache.load(&spec));
    });
    out.put("harness.cache_load_us", ns / 1e3);

    // A document shaped like a cache of sweep points.
    let doc = Value::Arr((0..64).map(|_| output.to_json()).collect());
    let text = doc.render();
    let kb = text.len() as f64 / 1024.0;
    let ns = s.ns_per_call(|| {
        std::hint::black_box(doc.render());
    });
    out.put("harness.json_render_ns_per_kb", ns / kb);
    let ns = s.ns_per_call(|| {
        std::hint::black_box(json::parse(&text).expect("rendered JSON parses"));
    });
    out.put("harness.json_parse_ns_per_kb", ns / kb);

    let jobs = noop_jobs(0, s.jobs);
    let secs = s.secs_of_3(|| run_jobs(&jobs, &RunOptions::sequential(), &Journal::disabled()));
    out.put(
        "harness.dispatch_us_per_job",
        secs * 1e6 / jobs.len() as f64,
    );

    // One cold pass on disk: the price of crash safety next to the
    // `harness_cold` workload's rate over the null filesystem, and the
    // job-time tail — the only tail reported, because only it has ten
    // samples beyond the percentile.
    let cold = dir.join("cold");
    let t0 = Instant::now();
    let reports = campaign_pass(&cold, &jobs, std_fs())?;
    out.put(
        "harness.disk_jobs_per_s",
        jobs.len() as f64 / t0.elapsed().as_secs_f64(),
    );
    let job_us: Vec<f64> = reports.iter().map(|r| r.secs * 1e6).collect();
    out.put("harness.job_p99_us", percentile(&job_us, 99.0));

    // The resume scan over the journal that pass left.
    let opts = RunOptions {
        cache: Some(ResultCache::for_outdir(&cold)?),
        ..RunOptions::sequential()
    };
    let secs = s.secs_of_3(|| {
        Campaign::start("perf", &cold, &jobs, &opts, std_fs(), vec![]).expect("campaign resumes")
    });
    out.put("harness.campaign_start_ms.resume1k", secs * 1e3);

    // What the same pass asks the disk to make durable: exact, and not
    // visible in any timing taken over the null filesystem.
    let mem = Arc::new(MemFs::default());
    campaign_pass(&dir.join("mem"), &jobs, Arc::clone(&mem) as Arc<dyn Fs>)?;
    out.put(
        "harness.fsyncs_per_job",
        mem.syncs() as f64 / jobs.len() as f64,
    );

    let baselines = BaselineCache::in_memory();
    let tiny = CampaignConfig::tiny(Mix::Mix1);
    baselines.get_or_compute(&tiny);
    let ns = s.ns_per_call(|| {
        std::hint::black_box(baselines.get_or_compute(&tiny));
    });
    out.put("harness.baseline_hit_ns", ns);

    ctx.tmp.discard(&dir);
    Ok(())
}

// ------------------------------------------------------------------ obs

fn obs(s: &Sizes, out: &mut LayerMetrics) {
    let registry = Registry::new();
    let counter = registry.counter("perf_probe_total", "probe", Class::Timing);
    let ns = s.ns_per_call(|| counter.inc());
    out.put("obs.counter_inc_ns", ns);
    let histogram = registry.histogram("perf_probe_ms", &pow2_bounds(16), "probe", Class::Timing);
    let mut v = 0u64;
    let ns = s.ns_per_call(|| {
        v = (v + 37) % 4096;
        histogram.observe(v);
    });
    out.put("obs.histogram_observe_ns", ns);
    for i in 0..24 {
        registry.gauge(&format!("perf_probe_gauge_{i}"), "probe", Class::Timing);
    }
    let ns = s.ns_per_call(|| {
        std::hint::black_box(registry.snapshot());
    });
    out.put("obs.snapshot_us", ns / 1e3);

    // Metrics are off in every workload; this is what turning them on
    // costs a whole campaign.
    let cfg = s.campaign(s.n64, false);
    let off = s.secs_of_3(|| run_campaign(&cfg, 1.0));
    htpb_obs::set_enabled(true);
    let on = s.secs_of_3(|| run_campaign(&cfg, 1.0));
    htpb_obs::set_enabled(false);
    out.put("obs.enabled_overhead_ratio.n64", on / off);
}
