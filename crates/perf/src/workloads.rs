//! The six workloads.
//!
//! Each one is a closed loop with a single client: one process, one
//! thread, `RunOptions.workers = 1`, the next iteration starts when the
//! previous one returned. A workload has three parts: `setup`
//! (construction and a warm-up), `iterate` (one timed call of the public
//! entry point a user would call) and `traced` (the same program
//! re-composed from the layers' public calls, one span per call).

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use htpb_attack::{AttackOutcome, Mix, Placement, PlacementStrategy};
use htpb_core::experiments::{
    fig3_point, run_campaign_with_baseline, run_clean_baseline, CampaignConfig, ManagerLocation,
};
use htpb_harness::hash::fnv1a64;
use htpb_harness::json::Value;
use htpb_harness::{
    commit_file, verify_artefacts, BaselineCache, Campaign, Fs, JobOutput, JobReport, JobSpec,
    Journal, ReproPlan, ReproScale, ResultCache, RunOptions, StdFs,
};
use htpb_manycore::{AppRole, PerformanceReport, SystemBuilder};
use htpb_noc::{Digest, Mesh2d, Network, NetworkConfig, NodeId, Packet, RoutingKind};
use htpb_trojan::{ActivationSchedule, TamperRule, TrojanFleet, TrojanMode};

use crate::memfs::MemFs;
use crate::tmp::TempRoot;
use crate::trace::Tracer;

/// What a run was asked to do.
#[derive(Debug)]
pub struct Ctx {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the measurement window.
    pub seconds: f64,
    /// Shrink every size to seconds (CI); values are not comparable with
    /// full-scale ones.
    pub smoke: bool,
    /// Scratch space.
    pub tmp: TempRoot,
}

/// One iteration's result.
#[derive(Debug, Clone)]
pub struct Iter {
    /// Host seconds inside the measured call, split into the parts the
    /// call is made of where they can be told apart from outside (the jobs
    /// of a reproduction, the points of a sweep, the chips of a campaign);
    /// one part otherwise. A neighbour's burst slows a few parts of every
    /// iteration, rarely the same ones, so the runner takes each part's
    /// own floor. A traced iteration has none: its spans carry the time.
    pub parts: Vec<f64>,
    /// FNV over the simulated outputs.
    pub digest: u64,
    /// Operations and shape checks attempted.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
}

impl Iter {
    /// Host seconds inside the measured call.
    #[must_use]
    pub fn secs(&self) -> f64 {
        self.parts.iter().sum()
    }
}

/// A workload the runner can drive.
pub trait Workload {
    /// Construction plus a warm-up; repeatable, the last call wins.
    fn setup(&mut self, ctx: &mut Ctx) -> io::Result<()>;
    /// One timed iteration through the public entry point.
    fn iterate(&mut self, ctx: &mut Ctx) -> io::Result<Iter>;
    /// The same program re-composed from public calls with a span around
    /// each. Its digest must equal [`Workload::iterate`]'s, or the trace
    /// attributes a different program. Its `parts` are not used.
    fn traced(&mut self, ctx: &mut Ctx, t: &mut Tracer) -> io::Result<Iter>;
    /// Work units in one iteration (the numerator of `work_per_s`).
    fn units(&self) -> f64;
    /// A remark for the output document.
    fn note(&self) -> Option<String> {
        None
    }
}

/// Builds the workload called `name`.
#[must_use]
pub fn build(name: &str, ctx: &Ctx) -> Option<Box<dyn Workload>> {
    Some(match name {
        "repro_quick" => Box::new(ReproQuick::new(ctx)),
        "campaign256" => Box::new(Campaign256::new(ctx, false)),
        "campaign256_detailed" => Box::new(Campaign256::new(ctx, true)),
        "infection512" => Box::new(Infection512::new(ctx)),
        "harness_cold" => Box::new(HarnessCold::new(ctx)),
        "harness_warm" => Box::new(HarnessWarm::new(ctx)),
        _ => return None,
    })
}

fn digest_of(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut d = Digest::new();
    for w in words {
        d.u64(w);
    }
    d.finish()
}

// ---------------------------------------------------------------- repro

/// `run_repro` with the result cache off and a fresh in-memory baseline
/// cache per iteration, then `verify_artefacts`.
struct ReproQuick {
    scale: ReproScale,
    plan: ReproPlan,
}

impl ReproQuick {
    fn new(ctx: &Ctx) -> Self {
        let scale = if ctx.smoke {
            ReproScale::Tiny
        } else {
            ReproScale::Quick
        };
        ReproQuick {
            scale,
            plan: ReproPlan::plan(scale),
        }
    }

    fn options(cache: Option<ResultCache>) -> RunOptions {
        RunOptions {
            cache,
            baselines: Some(Arc::new(BaselineCache::in_memory())),
            ..RunOptions::sequential()
        }
    }

    /// Runs the reproduction into `dir` and checks it. The digest covers
    /// the bytes of every artefact (the journal records their FNV).
    fn run_into(&self, dir: &Path, opts: &RunOptions) -> io::Result<Iter> {
        let t0 = Instant::now();
        let outcome = htpb_harness::run_repro(self.scale, dir, opts)?;
        let secs = t0.elapsed().as_secs_f64();
        let verify = verify_artefacts(dir)?;
        let journal = dir.join("journal.jsonl");
        let mut listing = String::new();
        for (name, bytes, fnv) in Journal::artefact_digests(&journal)? {
            listing.push_str(&format!("{name}:{bytes}:{fnv}\n"));
        }
        // The journal times every job; what is left of the wall is the
        // harness around them (start, assemble, emit, finish).
        let mut parts: Vec<f64> = Journal::read_events(&journal)?
            .iter()
            .filter(|e| e.get("event").and_then(Value::as_str) == Some("job_done"))
            .filter_map(|e| e.get("secs").and_then(Value::as_f64))
            .collect();
        parts.push((secs - parts.iter().sum::<f64>()).max(0.0));
        Ok(Iter {
            parts,
            digest: fnv1a64(listing.as_bytes()),
            attempted: outcome.jobs as u64 + 1,
            failed: outcome.failed as u64 + u64::from(!verify.ok() || verify.verified == 0),
        })
    }
}

fn job_span(kind: &str) -> &'static str {
    match kind {
        "fig3" => "core.fig3",
        "fig4" => "core.fig4",
        "sweep" => "core.sweep",
        "opt" => "core.opt",
        "regression" => "core.regression",
        "conf" => "core.conf",
        _ => "core.job",
    }
}

impl Workload for ReproQuick {
    fn setup(&mut self, ctx: &mut Ctx) -> io::Result<()> {
        let dir = ctx.tmp.fresh("repro-warmup")?;
        // A smoke run's iterations are already the smallest reproduction.
        if !ctx.smoke {
            htpb_harness::run_repro(ReproScale::Tiny, &dir, &Self::options(None))?;
        }
        ctx.tmp.discard(&dir);
        Ok(())
    }

    fn iterate(&mut self, ctx: &mut Ctx) -> io::Result<Iter> {
        let dir = ctx.tmp.fresh("repro")?;
        let iter = self.run_into(&dir, &Self::options(None))?;
        ctx.tmp.discard(&dir);
        Ok(iter)
    }

    fn traced(&mut self, ctx: &mut Ctx, t: &mut Tracer) -> io::Result<Iter> {
        let baselines = BaselineCache::in_memory();
        let outputs: Vec<JobOutput> = t.span("perf.repro_quick", |t| {
            self.plan
                .jobs
                .iter()
                .map(|spec| {
                    t.span(job_span(spec.kind()), |_| {
                        spec.execute_with(Some(&baselines)).0
                    })
                })
                .collect()
        });
        // Hand the traced outputs to the real pipeline through its result
        // cache: every job hits, so `run_repro` only assembles and emits,
        // and the artefact bytes are comparable with an untraced run's.
        let dir = ctx.tmp.fresh("repro-traced")?;
        let cache = ResultCache::for_outdir(&dir)?;
        for (spec, output) in self.plan.jobs.iter().zip(&outputs) {
            cache.store(spec, output)?;
        }
        let iter = self.run_into(&dir, &Self::options(Some(cache)))?;
        ctx.tmp.discard(&dir);
        Ok(iter)
    }

    fn units(&self) -> f64 {
        self.plan.jobs.len() as f64
    }

    fn note(&self) -> Option<String> {
        Some("--seed does not apply to repro_quick: the reproduction plan fixes its seeds".into())
    }
}

// ------------------------------------------------------------- campaign

/// `run_campaign` on the paper's 16x16 chip at duty 1.0: a clean and an
/// attacked run of 12 epochs each, as the two public calls it consists of
/// (`run_clean_baseline`, `run_campaign_with_baseline`).
struct Campaign256 {
    cfg: CampaignConfig,
}

/// Budgeting epoch length `run_campaign` resolves for `cfg`.
fn epoch_cycles(cfg: &CampaignConfig) -> u64 {
    cfg.epoch_cycles
        .unwrap_or_else(|| (4 * u64::from(cfg.nodes)).max(1_000))
}

fn outcome_digest(outcome: &AttackOutcome) -> u64 {
    digest_of(
        [outcome.q_value.to_bits(), outcome.infection_rate.to_bits()]
            .into_iter()
            .chain(outcome.changes.iter().map(|(_, _, c)| c.to_bits())),
    )
}

/// Counts read from the chips of one re-composed campaign.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChipCounts {
    /// Simulated system cycles, both chips.
    pub cycles: u64,
    /// Budgeting epochs the managers ran, both chips.
    pub epochs: u64,
    /// Packets the NoCs delivered, both chips.
    pub delivered_packets: u64,
    /// Hops of those packets.
    pub total_hops: u64,
    /// Power requests a Trojan rewrote.
    pub modified_power_requests: u64,
}

/// One re-composed campaign.
#[derive(Debug, Clone)]
pub struct ComposedCampaign {
    /// Report of the clean chip.
    pub clean: PerformanceReport,
    /// Report of the attacked chip.
    pub attacked: PerformanceReport,
    /// Q and the per-application changes.
    pub outcome: AttackOutcome,
    /// Counts of both chips.
    pub counts: ChipCounts,
}

/// `run_campaign(cfg, 1.0)` re-composed from the public calls of
/// `manycore`, `attack` and `trojan`, with a span around each. Produces
/// the same `AttackOutcome`, bit for bit.
pub fn composed_campaign(t: &mut Tracer, cfg: &CampaignConfig) -> ComposedCampaign {
    t.span("core.campaign", |t| {
        let mesh = cfg.mesh();
        let manager = cfg.manager.resolve(mesh);
        let mut counts = ChipCounts::default();
        let mut chip = |t: &mut Tracer, fleet: TrojanFleet, attacked: bool| {
            let mut system = t.span("manycore.build", |_| {
                SystemBuilder::new(mesh)
                    .manager(manager)
                    .workload(cfg.mix.workload_for_mesh(mesh))
                    .allocator(cfg.allocator)
                    .routing(cfg.routing)
                    .epoch_cycles(epoch_cycles(cfg))
                    .budget_fraction(cfg.budget_fraction)
                    .memory_traffic(cfg.memory_traffic)
                    .detailed_caches(cfg.detailed_caches)
                    .seed(cfg.seed)
                    .build_with_inspector(fleet)
                    .expect("campaign configuration is internally consistent")
            });
            if attacked {
                t.span("trojan.configure_all", |_| {
                    let agents: Vec<NodeId> = system
                        .tiles()
                        .iter()
                        .filter(|t| t.assignment().is_some_and(|a| a.role == AppRole::Malicious))
                        .map(|t| t.node())
                        .collect();
                    system.inspector_mut().configure_all(&agents, manager, true);
                });
            }
            t.span("manycore.run", |_| {
                system.run_epochs(cfg.warmup_epochs);
                system.begin_measurement();
                system.run_epochs(cfg.measure_epochs);
            });
            let report = t.span("manycore.report", |_| system.performance_report());
            let stats = system.network().stats();
            counts.cycles += system.cycle();
            counts.epochs += system.manager().epochs_run();
            counts.delivered_packets += stats.delivered_packets();
            counts.total_hops += stats.total_hops();
            counts.modified_power_requests += stats.modified_power_requests();
            report
        };
        let clean = chip(t, TrojanFleet::clean(), false);
        let placement = t.span("attack.placement", |_| {
            cfg.placement.clone().unwrap_or_else(|| {
                Placement::generate(
                    mesh,
                    5,
                    &PlacementStrategy::ClusterAround { anchor: manager },
                    &[],
                )
            })
        });
        let fleet = t.span("trojan.new", |_| {
            TrojanFleet::new(placement.nodes(), cfg.tamper_rule)
                .with_schedule(ActivationSchedule::AlwaysOn)
                .with_mode(TrojanMode::FalseData)
        });
        let attacked = chip(t, fleet, true);
        let outcome = t.span("attack.compare", |_| {
            AttackOutcome::compare(&attacked, &clean)
                .expect("mixes always contain attackers and victims with live baselines")
        });
        ComposedCampaign {
            clean,
            attacked,
            outcome,
            counts,
        }
    })
}

impl Campaign256 {
    fn new(ctx: &Ctx, detailed: bool) -> Self {
        let mut cfg = if ctx.smoke {
            CampaignConfig::tiny(Mix::Mix1)
        } else {
            CampaignConfig::new(Mix::Mix1)
        };
        cfg.seed = ctx.seed;
        cfg.detailed_caches = detailed;
        Campaign256 { cfg }
    }

    fn checked(outcome: &AttackOutcome, parts: Vec<f64>) -> Iter {
        Iter {
            parts,
            digest: outcome_digest(outcome),
            attempted: 1,
            // The attack must work at duty 1.0.
            failed: u64::from(
                outcome.q_value.partial_cmp(&1.0) != Some(std::cmp::Ordering::Greater),
            ),
        }
    }
}

impl Workload for Campaign256 {
    fn setup(&mut self, _ctx: &mut Ctx) -> io::Result<()> {
        // Warm-up: build the chip and run one epoch of it.
        let mut warm = self.cfg.clone();
        warm.warmup_epochs = 0;
        warm.measure_epochs = 1;
        std::hint::black_box(run_clean_baseline(&warm));
        Ok(())
    }

    fn iterate(&mut self, _ctx: &mut Ctx) -> io::Result<Iter> {
        // `run_campaign` is these two calls; made apart, each chip is a
        // part with a floor of its own.
        let t0 = Instant::now();
        let clean = run_clean_baseline(&self.cfg);
        let clean_secs = t0.elapsed().as_secs_f64();
        let result = run_campaign_with_baseline(&self.cfg, 1.0, &clean);
        let secs = t0.elapsed().as_secs_f64();
        Ok(Self::checked(
            &result.outcome,
            vec![clean_secs, secs - clean_secs],
        ))
    }

    fn traced(&mut self, _ctx: &mut Ctx, t: &mut Tracer) -> io::Result<Iter> {
        let composed = t.span("perf.campaign256", |t| composed_campaign(t, &self.cfg));
        Ok(Self::checked(&composed.outcome, Vec::new()))
    }

    fn units(&self) -> f64 {
        let epochs = self.cfg.warmup_epochs + self.cfg.measure_epochs;
        (2 * epochs * epoch_cycles(&self.cfg)) as f64
    }
}

// ------------------------------------------------------------ infection

/// The Fig. 3 curves at paper scale: both manager locations, 0..=60
/// Trojans in steps of 5, eight random placements per point.
struct Infection512 {
    nodes: u32,
    counts: Vec<usize>,
    seeds: Vec<u64>,
}

const MANAGERS: [ManagerLocation; 2] = [ManagerLocation::Center, ManagerLocation::Corner];

impl Infection512 {
    fn new(ctx: &Ctx) -> Self {
        let (nodes, max, step, seeds) = if ctx.smoke {
            (64, 30, 15, 2)
        } else {
            (512, 60, 5, 8)
        };
        Infection512 {
            nodes,
            counts: (0..=max).step_by(step).collect(),
            seeds: (0..seeds).map(|i| ctx.seed.wrapping_add(i)).collect(),
        }
    }

    /// Runs every point through `point` and applies the shape checks.
    fn sweep(&self, mut point: impl FnMut(ManagerLocation, usize) -> f64) -> Iter {
        let mut rates = Vec::new();
        let mut parts = Vec::new();
        for manager in MANAGERS {
            for &m in &self.counts {
                let t0 = Instant::now();
                rates.push((m, point(manager, m)));
                parts.push(t0.elapsed().as_secs_f64());
            }
        }
        let last = *self.counts.last().expect("at least one Trojan count");
        let failed = rates
            .iter()
            .filter(|&&(m, rate)| {
                !(0.0..=1.0).contains(&rate)
                    || (m == 0 && rate != 0.0)
                    || (m == last && rate <= 0.0)
            })
            .count();
        Iter {
            parts,
            digest: digest_of(rates.iter().map(|(_, r)| r.to_bits())),
            attempted: rates.len() as u64,
            failed: failed as u64,
        }
    }
}

/// `InfectionExperiment::measure` on one random placement, re-composed.
fn composed_infection(t: &mut Tracer, mesh: Mesh2d, manager: NodeId, m: usize, seed: u64) -> f64 {
    let placement = t.span("attack.placement", |_| {
        Placement::generate(mesh, m, &PlacementStrategy::Random { seed }, &[manager])
    });
    let fleet = t.span("trojan.configure_all", |_| {
        let mut fleet = TrojanFleet::new(placement.nodes(), TamperRule::Zero);
        fleet.configure_all(&[], manager, true);
        fleet
    });
    let mut net = t.span("noc.new", |_| {
        Network::with_inspector(
            NetworkConfig::new(mesh).with_routing(RoutingKind::Xy),
            fleet,
        )
    });
    t.span("noc.inject", |_| {
        for src in mesh.iter_nodes().filter(|&src| src != manager) {
            net.inject(Packet::power_request(
                src,
                manager,
                1_000 + u32::from(src.0),
            ))
            .expect("infection rig injection");
        }
    });
    t.span("noc.drain", |_| {
        assert!(
            net.run_until_idle(4_000_000),
            "infection rig failed to drain"
        );
    });
    net.stats().infection_rate()
}

impl Workload for Infection512 {
    fn setup(&mut self, _ctx: &mut Ctx) -> io::Result<()> {
        for manager in MANAGERS {
            std::hint::black_box(fig3_point(self.nodes, manager, 30, &self.seeds));
        }
        Ok(())
    }

    fn iterate(&mut self, _ctx: &mut Ctx) -> io::Result<Iter> {
        Ok(self.sweep(|manager, m| fig3_point(self.nodes, manager, m, &self.seeds)))
    }

    fn traced(&mut self, _ctx: &mut Ctx, t: &mut Tracer) -> io::Result<Iter> {
        let mesh = Mesh2d::with_nodes(self.nodes).expect("valid node count");
        Ok(t.span("perf.infection512", |t| {
            self.sweep(|manager, m| {
                t.span("core.fig3_point", |t| {
                    let sum: f64 = self
                        .seeds
                        .iter()
                        .map(|&seed| composed_infection(t, mesh, manager.resolve(mesh), m, seed))
                        .sum();
                    sum / self.seeds.len() as f64
                })
            })
        }))
    }

    fn units(&self) -> f64 {
        (MANAGERS.len() * self.counts.len()) as f64
    }
}

// -------------------------------------------------------------- harness

/// `n` jobs that simulate nothing: what is left is journal, cache codec
/// and dispatch.
#[must_use]
pub fn noop_jobs(seed: u64, n: u64) -> Vec<JobSpec> {
    (0..n)
        .map(|i| JobSpec::Conformance {
            scenarios: 0,
            seed: seed.wrapping_add(i),
        })
        .collect()
}

/// One campaign over `jobs` in `dir` on `fs`: start (journal open, resume
/// scan), the job pool, finish. Cold on an empty directory, warm on a
/// finished one.
pub fn campaign_pass(dir: &Path, jobs: &[JobSpec], fs: Arc<dyn Fs>) -> io::Result<Vec<JobReport>> {
    let opts = RunOptions {
        cache: Some(ResultCache::open_with_fs(
            dir.join(".cache"),
            Arc::clone(&fs),
        )?),
        ..RunOptions::sequential()
    };
    let campaign = Campaign::start("perf", dir, jobs, &opts, fs, vec![])?;
    let reports = campaign.execute(jobs, &opts);
    campaign.finish(true, vec![]);
    Ok(reports)
}

/// [`campaign_pass`] re-composed: the pool's per-job steps as direct
/// calls, one span each.
fn composed_pass(
    t: &mut Tracer,
    dir: &Path,
    jobs: &[JobSpec],
    fs: Arc<dyn Fs>,
) -> io::Result<Vec<(JobOutput, bool)>> {
    let cache = t.span("harness.cache_open", |_| {
        ResultCache::open_with_fs(dir.join(".cache"), Arc::clone(&fs))
    })?;
    let opts = RunOptions {
        cache: Some(cache.clone()),
        ..RunOptions::sequential()
    };
    let campaign = t.span("harness.campaign_start", |_| {
        Campaign::start("perf", dir, jobs, &opts, fs, vec![])
    })?;
    let journal = campaign.journal();
    let mut results = Vec::with_capacity(jobs.len());
    for spec in jobs {
        let id = spec.id();
        let t0 = Instant::now();
        let (output, hit) = match t.span("harness.cache_load", |_| cache.load(spec)) {
            Some(output) => (output, true),
            None => {
                t.span("harness.journal_record", |_| {
                    journal.job_start(&id, spec.kind(), 0, 1);
                });
                let output = t.span(job_span(spec.kind()), |_| spec.execute_with(None).0);
                t.span("harness.cache_store", |_| cache.store(spec, &output))?;
                (output, false)
            }
        };
        t.span("harness.journal_record", |_| {
            let secs = t0.elapsed().as_secs_f64();
            journal.job_done(&id, spec.kind(), 0, hit, true, true, secs, None);
        });
        results.push((output, hit));
    }
    t.span("harness.campaign_finish", |_| campaign.finish(true, vec![]));
    Ok(results)
}

/// Folds a pass into an [`Iter`]: every job must be `Ok`, and served from
/// the cache exactly when `expect_hit`. The digest covers each job's id
/// next to its output: a no-op job's output says nothing about its seed.
fn checked_pass<'a>(
    results: impl Iterator<Item = (&'a JobSpec, Result<&'a JobOutput, &'a String>, bool)>,
    expect_hit: bool,
    parts: Vec<f64>,
) -> Iter {
    let mut digest = Digest::new();
    let (mut attempted, mut failed) = (0, 0);
    for (spec, output, hit) in results {
        attempted += 1;
        match output {
            Ok(output) if hit == expect_hit => {
                digest.u64(fnv1a64(spec.id().as_bytes()));
                digest.u64(fnv1a64(output.to_json().render().as_bytes()));
            }
            _ => failed += 1,
        }
    }
    Iter {
        parts,
        digest: digest.finish(),
        attempted,
        failed,
    }
}

fn checked_reports(reports: &[JobReport], expect_hit: bool, secs: f64) -> Iter {
    checked_pass(
        reports
            .iter()
            .map(|r| (&r.spec, r.output.as_ref(), r.cache_hit)),
        expect_hit,
        vec![secs],
    )
}

fn checked_composed(jobs: &[JobSpec], results: &[(JobOutput, bool)], expect_hit: bool) -> Iter {
    checked_pass(
        jobs.iter()
            .zip(results)
            .map(|(spec, (o, hit))| (spec, Ok(o), *hit)),
        expect_hit,
        Vec::new(),
    )
}

fn job_count(ctx: &Ctx) -> u64 {
    if ctx.smoke {
        40
    } else {
        1_000
    }
}

// Both harness workloads run over the null filesystem. On this machine's
// shared disk a cold pass took 0.9 s, 3.0 s and 1.4 s within one hour, and
// no statistic of a 10 s window came within 10 % of the next window's, so
// a timing that waits for fsync measures the neighbours. What is left is
// what a change to the harness can move: journal framing and checksums,
// the cache codec and its commit protocol, dispatch. The disk's share is
// reported per layer (`harness.disk_jobs_per_s`, `harness.fsyncs_per_job`).

/// The write path: a cold campaign in an empty directory.
struct HarnessCold {
    jobs: Vec<JobSpec>,
}

impl HarnessCold {
    fn new(ctx: &Ctx) -> Self {
        HarnessCold {
            jobs: noop_jobs(ctx.seed, job_count(ctx)),
        }
    }
}

impl Workload for HarnessCold {
    fn setup(&mut self, _ctx: &mut Ctx) -> io::Result<()> {
        campaign_pass(Path::new("cold"), &self.jobs, Arc::new(MemFs::default()))?;
        Ok(())
    }

    fn iterate(&mut self, _ctx: &mut Ctx) -> io::Result<Iter> {
        let fs = Arc::new(MemFs::default());
        let t0 = Instant::now();
        let reports = campaign_pass(Path::new("cold"), &self.jobs, fs)?;
        let secs = t0.elapsed().as_secs_f64();
        Ok(checked_reports(&reports, false, secs))
    }

    fn traced(&mut self, _ctx: &mut Ctx, t: &mut Tracer) -> io::Result<Iter> {
        let fs = Arc::new(MemFs::default());
        let results = t.span("perf.harness_cold", |t| {
            composed_pass(t, Path::new("cold"), &self.jobs, fs)
        })?;
        Ok(checked_composed(&self.jobs, &results, false))
    }

    fn units(&self) -> f64 {
        self.jobs.len() as f64
    }
}

/// The read path: a campaign resumed on a finished directory, every job
/// served from the result cache.
struct HarnessWarm {
    jobs: Vec<JobSpec>,
    /// The finished campaign: its directory (the journal, on disk, where
    /// the resume scan reads it) and its filesystem (the cache entries).
    finished: Option<(PathBuf, Arc<MemFs>)>,
}

impl HarnessWarm {
    fn new(ctx: &Ctx) -> Self {
        HarnessWarm {
            jobs: noop_jobs(ctx.seed, job_count(ctx)),
            finished: None,
        }
    }

    /// Drops what the previous resumed campaign appended to the in-memory
    /// journal, so memory stays flat. The history the resume scan reads is
    /// the copy on disk, which no pass appends to.
    fn rewind(&self) -> io::Result<(&Path, Arc<dyn Fs>)> {
        let (dir, fs) = self.finished.as_ref().expect("setup ran");
        fs.remove_file(&dir.join("journal.jsonl"))?;
        Ok((dir, Arc::clone(fs) as Arc<dyn Fs>))
    }
}

impl Workload for HarnessWarm {
    fn setup(&mut self, ctx: &mut Ctx) -> io::Result<()> {
        if let Some((old, _)) = self.finished.take() {
            ctx.tmp.discard(&old);
        }
        let dir = ctx.tmp.fresh("warm")?;
        let fs = Arc::new(MemFs::default());
        campaign_pass(&dir, &self.jobs, Arc::clone(&fs) as Arc<dyn Fs>)?;
        // `Campaign::start` reads the history from the real path.
        let journal = dir.join("journal.jsonl");
        commit_file(&StdFs, &journal, &fs.read(&journal)?)?;
        self.finished = Some((dir, fs));
        Ok(())
    }

    fn iterate(&mut self, _ctx: &mut Ctx) -> io::Result<Iter> {
        let (dir, fs) = self.rewind()?;
        let t0 = Instant::now();
        let reports = campaign_pass(dir, &self.jobs, fs)?;
        let secs = t0.elapsed().as_secs_f64();
        Ok(checked_reports(&reports, true, secs))
    }

    fn traced(&mut self, _ctx: &mut Ctx, t: &mut Tracer) -> io::Result<Iter> {
        let (dir, fs) = self.rewind()?;
        let results = t.span("perf.harness_warm", |t| {
            composed_pass(t, dir, &self.jobs, fs)
        })?;
        Ok(checked_composed(&self.jobs, &results, true))
    }

    fn units(&self) -> f64 {
        self.jobs.len() as f64
    }
}
