//! The resilience campaign: attack effect under injected transport faults.
//!
//! `ResiliencePlan` fans the grid *fault rate × allocator policy ×
//! hardening × Trojan duty* out as independent [`JobSpec::Resilience`]
//! jobs; [`run_resilience_sweep`] executes them on the worker pool
//! (cached, journalled, resumable like `repro_all`) and emits:
//!
//! - `resilience.tsv` — one row per cell: attack effect Q against the
//!   equally-faulty clean baseline, victim θ in both arms, and the
//!   manager's degradation tallies (timeouts / rejects / clamps);
//! - `RESILIENCE.txt` — shape checks, headlined by *graceful
//!   degradation*: with faults but no Trojan, victim throughput must stay
//!   within a bounded factor of the fault-free cell.
//!
//! Every job is a pure function of its spec, so the sweep is
//! byte-deterministic: same plan, same artefacts.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use htpb_attack::Mix;
use htpb_power::AllocatorKind;

use crate::campaign::Campaign;
use crate::job::{CampaignScale, JobOutput, JobSpec};
use crate::repro::{drive_campaign, ReproOutcome, ReproScale};
use crate::runner::{JobReport, RunOptions};

/// Fault-plan seed shared by every cell of the standard sweep, so runs are
/// reproducible and cells differ only in their declared parameters.
pub(crate) const FAULT_SEED: u64 = 0xFA17;

/// Victim-throughput retention bound the summary asserts for the
/// faults-only hardened cells: θ must stay within `[RETENTION_BOUND, 1 /
/// RETENTION_BOUND]` of the fault-free cell.
pub(crate) const RETENTION_BOUND: f64 = 0.7;

/// The resilience sweep as an explicit job grid.
pub(crate) struct ResiliencePlan {
    /// All jobs, in deterministic order (drops, then allocator, then
    /// hardening, then duty — the TSV row order).
    pub jobs: Vec<JobSpec>,
}

impl ResiliencePlan {
    /// The standard grid for a reproduction scale: packet-drop rates ×
    /// every allocator policy × {soft, hardened} × {faults only, full
    /// attack}.
    #[must_use]
    pub fn plan(scale: ReproScale) -> ResiliencePlan {
        let (campaign, drops): (CampaignScale, &[u32]) = match scale {
            ReproScale::Tiny => (CampaignScale::Tiny, &[0, 10_000]),
            ReproScale::Quick => (CampaignScale::Small, &[0, 2_500, 10_000, 40_000]),
            ReproScale::Paper => (CampaignScale::Paper, &[0, 2_500, 10_000, 40_000]),
        };
        ResiliencePlan::custom(
            campaign,
            Mix::Mix1,
            drops,
            &AllocatorKind::ALL,
            &[false, true],
            &[0, 9],
            FAULT_SEED,
        )
    }

    /// A fully parameterized grid (tests and ad-hoc studies).
    #[must_use]
    pub(crate) fn custom(
        scale: CampaignScale,
        mix: Mix,
        drops: &[u32],
        allocators: &[AllocatorKind],
        hardening: &[bool],
        duty_tenths: &[u32],
        fault_seed: u64,
    ) -> ResiliencePlan {
        let mut jobs = Vec::new();
        for &drop_ppm in drops {
            for &allocator in allocators {
                for &hardened in hardening {
                    for &duty in duty_tenths {
                        jobs.push(JobSpec::Resilience {
                            mix,
                            scale,
                            allocator,
                            drop_ppm,
                            fault_seed,
                            hardened,
                            duty_tenths: duty,
                        });
                    }
                }
            }
        }
        ResiliencePlan { jobs }
    }
}

/// One assembled TSV row: the spec's cell parameters plus its output.
struct Row {
    allocator: AllocatorKind,
    drop_ppm: u32,
    hardened: bool,
    duty_tenths: u32,
    infection: f64,
    q: f64,
    victim_theta: f64,
    baseline_victim_theta: f64,
    timeouts: u64,
    rejects: u64,
    clamps: u64,
    faults_applied: u64,
}

/// Runs the standard resilience sweep for `scale` into `outdir`.
pub fn run_resilience_sweep(
    scale: ReproScale,
    outdir: &Path,
    opts: &RunOptions,
) -> io::Result<ReproOutcome> {
    run_resilience_plan(&ResiliencePlan::plan(scale), scale.label(), outdir, opts)
}

/// Runs an explicit plan (the standard sweep or a custom grid) and emits
/// `resilience.tsv` + `RESILIENCE.txt`.
pub(crate) fn run_resilience_plan(
    plan: &ResiliencePlan,
    label: &str,
    outdir: &Path,
    opts: &RunOptions,
) -> io::Result<ReproOutcome> {
    drive_campaign(
        "resilience_sweep",
        ("resilience sweep", "RESILIENCE.txt"),
        label,
        &plan.jobs,
        outdir,
        opts,
        |reports, campaign| emit(reports, label, campaign),
    )
}

/// The TSV row of one successful cell.
fn row(r: &JobReport) -> Row {
    let JobSpec::Resilience {
        allocator,
        drop_ppm,
        hardened,
        duty_tenths,
        ..
    } = r.spec
    else {
        panic!("resilience plan contains a foreign job: {}", r.spec.id())
    };
    let JobOutput::Resilience {
        infection,
        q,
        victim_theta,
        baseline_victim_theta,
        timeouts,
        rejects,
        clamps,
        faults_applied,
    } = *r.expect_output()
    else {
        panic!("job {}: expected a resilience cell", r.spec.id())
    };
    Row {
        allocator,
        drop_ppm,
        hardened,
        duty_tenths,
        infection,
        q,
        victim_theta,
        baseline_victim_theta,
        timeouts,
        rejects,
        clamps,
        faults_applied,
    }
}

/// Writes `resilience.tsv` and `RESILIENCE.txt` through the campaign's
/// durable artefact path, returning the summary text. Pure function of
/// the reports, so equal results give byte-identical artefacts.
fn emit(reports: &[JobReport], label: &str, campaign: &Campaign) -> io::Result<String> {
    let rows: Vec<Row> = reports.iter().map(row).collect();
    let mut tsv = String::from(
        "# allocator\tdrop_ppm\thardened\tduty\tinfection\tQ\tvictim_theta\t\
         baseline_victim_theta\ttimeouts\trejects\tclamps\tfaults_applied\n",
    );
    for r in &rows {
        let _ = writeln!(
            tsv,
            "{}\t{}\t{}\t{:.1}\t{:.4}\t{:.4}\t{:.6}\t{:.6}\t{}\t{}\t{}\t{}",
            r.allocator.name(),
            r.drop_ppm,
            u8::from(r.hardened),
            f64::from(r.duty_tenths) / 10.0,
            r.infection,
            r.q,
            r.victim_theta,
            r.baseline_victim_theta,
            r.timeouts,
            r.rejects,
            r.clamps,
            r.faults_applied
        );
    }
    campaign.emit_artefact("resilience.tsv", tsv.as_bytes())?;

    let mut summary = String::new();
    let mut note = |line: String| {
        println!("{line}");
        summary.push_str(&line);
        summary.push('\n');
    };
    note(format!("== resilience sweep ({label}) =="));

    // The fault-free victim θ per (allocator, hardened, duty): the
    // reference each faulty cell's retention is measured against.
    let reference = |allocator: AllocatorKind, hardened: bool, duty_tenths: u32| -> Option<f64> {
        rows.iter()
            .find(|r| {
                r.drop_ppm == 0
                    && r.allocator == allocator
                    && r.hardened == hardened
                    && r.duty_tenths == duty_tenths
            })
            .map(|r| r.victim_theta)
    };

    // Graceful degradation is judged on the hardened faults-only cells at
    // the paper-map rate of 1% packet drops (falling back to the heaviest
    // swept rate): no Trojan, so any victim starvation is pure fault
    // damage the manager failed to bridge.
    let max_drop = rows.iter().map(|r| r.drop_ppm).max().unwrap_or(0);
    let judge_drop = if rows.iter().any(|r| r.drop_ppm == 10_000) {
        10_000
    } else {
        max_drop
    };
    let mut worst_retention: Option<(f64, &Row)> = None;
    for r in &rows {
        if r.duty_tenths != 0 || !r.hardened || r.drop_ppm == 0 {
            continue;
        }
        let Some(reference_theta) = reference(r.allocator, r.hardened, r.duty_tenths) else {
            continue;
        };
        if reference_theta <= 0.0 {
            continue;
        }
        let retention = r.victim_theta / reference_theta;
        note(format!(
            "faults-only {} @{}ppm (hardened): retention={:.3} timeouts={} rejects={} clamps={}",
            r.allocator.name(),
            r.drop_ppm,
            retention,
            r.timeouts,
            r.rejects,
            r.clamps
        ));
        if r.drop_ppm == judge_drop
            && worst_retention.is_none_or(|(w, _)| (retention - 1.0).abs() > (w - 1.0).abs())
        {
            worst_retention = Some((retention, r));
        }
    }
    if let Some((retention, row)) = worst_retention {
        let graceful = (RETENTION_BOUND..=1.0 / RETENTION_BOUND).contains(&retention);
        note(format!(
            "graceful degradation @{judge_drop}ppm: worst retention={:.3} on {} (within [{:.1},{:.2}]: {})",
            retention,
            row.allocator.name(),
            RETENTION_BOUND,
            1.0 / RETENTION_BOUND,
            graceful
        ));
    }

    for r in &rows {
        // The attack-effect headline: does the Trojan still bite on a
        // degraded substrate, and does hardening blunt it?
        if r.duty_tenths == 0 || r.drop_ppm != max_drop {
            continue;
        }
        note(format!(
            "attack d{} {} @{}ppm ({}): Q={:.2} infection={:.2} degradation={}t/{}r/{}c",
            r.duty_tenths,
            r.allocator.name(),
            r.drop_ppm,
            if r.hardened { "hardened" } else { "soft" },
            r.q,
            r.infection,
            r.timeouts,
            r.rejects,
            r.clamps
        ));
    }

    note(format!(
        "== done; {} cells written to resilience.tsv ==",
        rows.len()
    ));
    campaign.emit_artefact("RESILIENCE.txt", summary.as_bytes())?;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("htpb-resilience-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn standard_plans_have_unique_ids_and_expected_sizes() {
        // drops x allocators x hardening x duties.
        let tiny = ResiliencePlan::plan(ReproScale::Tiny);
        assert_eq!(tiny.jobs.len(), 2 * 5 * 2 * 2);
        let quick = ResiliencePlan::plan(ReproScale::Quick);
        assert_eq!(quick.jobs.len(), 4 * 5 * 2 * 2);
        let ids: std::collections::BTreeSet<String> = quick.jobs.iter().map(JobSpec::id).collect();
        assert_eq!(ids.len(), quick.jobs.len(), "cell ids must be unique");
    }

    #[test]
    fn tiny_sweep_is_byte_deterministic() {
        let plan = ResiliencePlan::custom(
            CampaignScale::Tiny,
            Mix::Mix1,
            &[0, 10_000],
            &[AllocatorKind::Greedy],
            &[true],
            &[0, 9],
            FAULT_SEED,
        );
        let read = |dir: &Path| {
            let tsv = fs::read_to_string(dir.join("resilience.tsv")).unwrap();
            let txt = fs::read_to_string(dir.join("RESILIENCE.txt")).unwrap();
            (tsv, txt)
        };
        let dir_a = tmpdir("det-a");
        let dir_b = tmpdir("det-b");
        let out_a = run_resilience_plan(&plan, "tiny", &dir_a, &RunOptions::sequential()).unwrap();
        let out_b = run_resilience_plan(&plan, "tiny", &dir_b, &RunOptions::sequential()).unwrap();
        assert_eq!(out_a.failed, 0);
        assert_eq!(out_b.failed, 0);
        let (tsv_a, txt_a) = read(&dir_a);
        let (tsv_b, txt_b) = read(&dir_b);
        assert_eq!(tsv_a, tsv_b, "TSV must be byte-identical across runs");
        assert_eq!(txt_a, txt_b, "summary must be byte-identical across runs");
        assert_eq!(out_a.summary, txt_a);

        // The summary must carry both headlines: graceful degradation on
        // the faults-only cells and the attack line for the duty-0.9 ones.
        assert!(txt_a.contains("graceful degradation"), "{txt_a}");
        assert!(txt_a.contains("attack d9"), "{txt_a}");
        assert_eq!(tsv_a.lines().count(), 1 + plan.jobs.len());
        let _ = fs::remove_dir_all(&dir_a);
        let _ = fs::remove_dir_all(&dir_b);
    }

    /// The warm path through the shared campaign driver: a cold run fills
    /// the result cache, a warm rerun serves every cell from it and emits
    /// byte-identical artefacts, and both `run_end` records carry the
    /// (zero) baseline tallies.
    #[test]
    fn warm_rerun_serves_every_cell_from_cache_with_identical_bytes() {
        let plan = ResiliencePlan::custom(
            CampaignScale::Tiny,
            Mix::Mix1,
            &[0, 10_000],
            &[AllocatorKind::Greedy],
            &[true],
            &[0],
            FAULT_SEED,
        );
        let dir = tmpdir("warm");
        let opts = RunOptions {
            cache: Some(crate::ResultCache::for_outdir(&dir).unwrap()),
            ..RunOptions::sequential()
        };
        let read = || {
            let tsv = fs::read(dir.join("resilience.tsv")).unwrap();
            let txt = fs::read(dir.join("RESILIENCE.txt")).unwrap();
            (tsv, txt)
        };
        let cold = run_resilience_plan(&plan, "tiny", &dir, &opts).unwrap();
        assert_eq!((cold.failed, cold.cache_hits), (0, 0));
        let cold_bytes = read();
        let warm = run_resilience_plan(&plan, "tiny", &dir, &opts).unwrap();
        assert_eq!(warm.failed, 0);
        assert_eq!(warm.cache_hits, warm.jobs);
        assert_eq!(read(), cold_bytes, "warm artefacts must be byte-identical");
        assert_eq!(warm.summary, cold.summary);

        let journal = fs::read_to_string(dir.join("journal.jsonl")).unwrap();
        let run_ends: Vec<&str> = journal
            .lines()
            .filter(|l| l.contains("\"event\":\"run_end\""))
            .collect();
        assert_eq!(run_ends.len(), 2);
        for line in run_ends {
            assert!(
                line.contains("\"baseline_hits\":0,\"baseline_misses\":0"),
                "{line}"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Graceful degradation at a fault seed other than the standard
    /// [`FAULT_SEED`]: the hardened faults-only cells must keep victim
    /// throughput within `[RETENTION_BOUND, 1 / RETENTION_BOUND]` of the
    /// fault-free cell, and the TSV must be byte-identical whether the grid
    /// runs sequentially or on four workers.
    #[test]
    fn second_seed_retention_bound_and_worker_count_invariance() {
        const SECOND_SEED: u64 = 0xBEEF;
        let plan = ResiliencePlan::custom(
            CampaignScale::Tiny,
            Mix::Mix1,
            &[0, 10_000],
            &[AllocatorKind::Greedy],
            &[true],
            &[0],
            SECOND_SEED,
        );
        let dir_seq = tmpdir("seed2-seq");
        let dir_par = tmpdir("seed2-par");
        let seq = run_resilience_plan(&plan, "tiny", &dir_seq, &RunOptions::sequential()).unwrap();
        let par = run_resilience_plan(
            &plan,
            "tiny",
            &dir_par,
            &RunOptions {
                workers: 4,
                ..RunOptions::sequential()
            },
        )
        .unwrap();
        assert_eq!(seq.failed, 0);
        assert_eq!(par.failed, 0);
        let tsv_seq = fs::read_to_string(dir_seq.join("resilience.tsv")).unwrap();
        let tsv_par = fs::read_to_string(dir_par.join("resilience.tsv")).unwrap();
        assert_eq!(
            tsv_seq, tsv_par,
            "resilience.tsv must be byte-identical across --jobs 1 and --jobs 4"
        );

        // Retention from the TSV itself (column 7 is victim_theta): the
        // faulty hardened cell against its fault-free reference.
        let victim_theta = |drop_ppm: &str| -> f64 {
            tsv_seq
                .lines()
                .map(|l| l.split('\t').collect::<Vec<_>>())
                .find(|cols| cols.first() == Some(&"greedy") && cols.get(1) == Some(&drop_ppm))
                .unwrap_or_else(|| panic!("no greedy @{drop_ppm}ppm row in\n{tsv_seq}"))[6]
                .parse()
                .unwrap()
        };
        let reference = victim_theta("0");
        assert!(reference > 0.0, "fault-free victim theta must be positive");
        let retention = victim_theta("10000") / reference;
        assert!(
            (RETENTION_BOUND..=1.0 / RETENTION_BOUND).contains(&retention),
            "seed {SECOND_SEED:#x}: retention {retention:.3} outside [{RETENTION_BOUND}, {:.2}]",
            1.0 / RETENTION_BOUND
        );
        let _ = fs::remove_dir_all(&dir_seq);
        let _ = fs::remove_dir_all(&dir_par);
    }
}
