//! Cross-job memoization of clean (un-attacked) baseline campaigns.
//!
//! The duty-cycle sweep, the optimal-vs-random placement comparison and the
//! regression dataset all need the *same* clean baseline per campaign
//! configuration: the attack side varies per job, the clean side does not.
//! A whole-series driver naturally computes each baseline once; cut into
//! per-point jobs for the worker pool, every job would recompute it — on
//! the `--quick` scale that is 40+ redundant clean campaigns.
//!
//! [`BaselineCache`] closes the gap with two layers keyed by
//! [`CampaignConfig::baseline_id`] (which covers exactly the
//! baseline-relevant fields — attack knobs like the tamper rule or duty
//! cycle are excluded, so all duty points of one config share an entry):
//!
//! 1. an in-process memo map. Each key owns a `OnceLock`, so two workers
//!    hitting the same config block on one computation and share the result
//!    while *different* configs still compute in parallel;
//! 2. an optional on-disk layer under the run's `.cache/` directory
//!    (`baseline-<16 hex>.json`, committed via [`crate::fs::commit_file`]
//!    with a unique temp name so two *processes* racing on one entry both
//!    succeed; entries are checksummed and corrupt ones degrade to misses)
//!    so warm re-runs skip baselines entirely.
//!
//! Substituting a memoized baseline is bit-identical to recomputing it: the
//! clean and attacked systems are constructed and seeded independently, and
//! the JSON layer round-trips `f64`s bit-exactly.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use htpb_core::experiments::{run_clean_baseline, CampaignConfig};
use htpb_manycore::{AppId, AppPerformance, AppRole, Benchmark, PerformanceReport};

use crate::cache::{read_entry, write_entry, SCHEMA_VERSION};
use crate::fs::{std_fs, Fs};
use crate::hash::fnv1a64_parts;
use crate::json::Value;

/// Memoizes clean baseline reports across jobs, with an optional on-disk
/// layer for warm re-runs.
pub struct BaselineCache {
    memo: Mutex<HashMap<u64, Arc<OnceLock<Arc<PerformanceReport>>>>>,
    dir: Option<PathBuf>,
    fs: Arc<dyn Fs>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl std::fmt::Debug for BaselineCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BaselineCache")
            .field("dir", &self.dir)
            .field("hits", &self.hits.load(Ordering::Relaxed))
            .field("misses", &self.misses.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl BaselineCache {
    /// A purely in-process cache (no disk layer).
    #[must_use]
    pub fn in_memory() -> BaselineCache {
        BaselineCache {
            memo: Mutex::new(HashMap::new()),
            dir: None,
            fs: std_fs(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// A cache that additionally persists baselines under `dir` (created if
    /// needed; if creation fails the cache silently stays memory-only).
    #[must_use]
    pub fn with_dir(dir: impl Into<PathBuf>) -> BaselineCache {
        BaselineCache::with_dir_fs(dir, std_fs())
    }

    /// Like [`BaselineCache::with_dir`], on an explicit [`Fs`]
    /// (fault-injection tests).
    #[must_use]
    pub fn with_dir_fs(dir: impl Into<PathBuf>, fs: Arc<dyn Fs>) -> BaselineCache {
        let dir = dir.into();
        let dir = fs.create_dir_all(&dir).ok().map(|()| dir);
        BaselineCache {
            memo: Mutex::new(HashMap::new()),
            dir,
            fs,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The cache key of a configuration: FNV-1a over (schema version,
    /// baseline id). Shares [`SCHEMA_VERSION`] with the result cache — any
    /// change to what a cached result means invalidates both layers.
    #[must_use]
    pub fn key(cfg: &CampaignConfig) -> u64 {
        fnv1a64_parts(&[&SCHEMA_VERSION.to_string(), &cfg.baseline_id()])
    }

    /// Baselines served from memo or disk so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Baselines actually computed so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Returns the clean baseline for `cfg`, computing it at most once per
    /// key. The `bool` is `true` on a hit (memo or disk), `false` when this
    /// call ran the campaign.
    pub fn get_or_compute(&self, cfg: &CampaignConfig) -> (Arc<PerformanceReport>, bool) {
        let key = Self::key(cfg);
        // Each key gets its own cell so two workers racing on the SAME
        // config block on one computation, while different configs still
        // compute concurrently (the map lock is only held to fetch the
        // cell, never across the campaign run).
        let cell = {
            let mut memo = self.memo.lock().expect("baseline memo poisoned");
            Arc::clone(memo.entry(key).or_default())
        };
        let mut computed = false;
        let report = cell.get_or_init(|| {
            if let Some(report) = self.load(key, cfg) {
                return Arc::new(report);
            }
            computed = true;
            let report = run_clean_baseline(cfg);
            self.store(key, cfg, &report);
            Arc::new(report)
        });
        // `computed` is only true when OUR closure ran the campaign; a disk
        // load, a memo hit, or losing the init race all count as hits.
        if computed {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        (Arc::clone(report), !computed)
    }

    fn entry_path(&self, key: u64) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|d| d.join(format!("baseline-{key:016x}.json")))
    }

    fn load(&self, key: u64, cfg: &CampaignConfig) -> Option<PerformanceReport> {
        read_entry(
            self.fs.as_ref(),
            &self.entry_path(key)?,
            &cfg.baseline_id(),
            "report",
            report_from_json,
        )
    }

    fn store(&self, key: u64, cfg: &CampaignConfig, report: &PerformanceReport) {
        let Some(path) = self.entry_path(key) else {
            return;
        };
        // Committed with a per-process unique temp name, so two processes
        // racing on the same entry each rename a complete file — last
        // writer wins with identical bytes. Persistence stays an
        // optimization; failures just cost a recompute.
        let _ = write_entry(
            self.fs.as_ref(),
            &path,
            cfg.baseline_id(),
            "report",
            report_to_json(report),
        );
    }
}

/// Serializes a [`PerformanceReport`] with bit-exact floats.
#[must_use]
pub fn report_to_json(report: &PerformanceReport) -> Value {
    Value::obj(vec![
        ("window_cycles", int_u64(report.window_cycles)),
        (
            "apps",
            Value::Arr(report.apps.iter().map(app_to_json).collect()),
        ),
        ("delivered", int_u64(report.power_requests_delivered)),
        ("modified", int_u64(report.power_requests_modified)),
        ("timed_out", int_u64(report.requests_timed_out)),
        ("rejected", int_u64(report.requests_rejected)),
        ("clamped", int_u64(report.requests_clamped)),
    ])
}

/// Parses a [`PerformanceReport`]; `None` on any structural mismatch.
#[must_use]
pub(crate) fn report_from_json(value: &Value) -> Option<PerformanceReport> {
    let apps = value
        .get("apps")?
        .as_arr()?
        .iter()
        .map(app_from_json)
        .collect::<Option<Vec<_>>>()?;
    Some(PerformanceReport {
        window_cycles: u64_field(value, "window_cycles")?,
        apps,
        power_requests_delivered: u64_field(value, "delivered")?,
        power_requests_modified: u64_field(value, "modified")?,
        requests_timed_out: u64_field(value, "timed_out")?,
        requests_rejected: u64_field(value, "rejected")?,
        requests_clamped: u64_field(value, "clamped")?,
    })
}

fn app_to_json(app: &AppPerformance) -> Value {
    Value::obj(vec![
        ("id", Value::Int(i64::from(app.id.0))),
        ("benchmark", Value::Str(app.benchmark.name().to_string())),
        (
            "role",
            Value::Str(
                match app.role {
                    AppRole::Legitimate => "legit",
                    AppRole::Malicious => "malicious",
                }
                .to_string(),
            ),
        ),
        ("threads", int_u64(app.threads as u64)),
        ("theta", Value::Num(app.theta)),
        ("starved_cores", int_u64(app.starved_cores as u64)),
    ])
}

fn app_from_json(value: &Value) -> Option<AppPerformance> {
    let role = match value.get("role")?.as_str()? {
        "legit" => AppRole::Legitimate,
        "malicious" => AppRole::Malicious,
        _ => return None,
    };
    Some(AppPerformance {
        id: AppId(u16::try_from(value.get("id")?.as_i64()?).ok()?),
        benchmark: Benchmark::from_name(value.get("benchmark")?.as_str()?)?,
        role,
        threads: usize::try_from(value.get("threads")?.as_i64()?).ok()?,
        theta: value.get("theta")?.as_f64()?,
        starved_cores: usize::try_from(value.get("starved_cores")?.as_i64()?).ok()?,
    })
}

fn int_u64(v: u64) -> Value {
    Value::Int(i64::try_from(v).unwrap_or(i64::MAX))
}

fn u64_field(value: &Value, key: &str) -> Option<u64> {
    u64::try_from(value.get(key)?.as_i64()?).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use htpb_attack::Mix;
    use std::fs;

    fn report() -> PerformanceReport {
        PerformanceReport {
            window_cycles: 123_456,
            apps: vec![
                AppPerformance {
                    id: AppId(0),
                    benchmark: Benchmark::Barnes,
                    role: AppRole::Malicious,
                    threads: 4,
                    theta: 1.0 / 3.0,
                    starved_cores: 0,
                },
                AppPerformance {
                    id: AppId(1),
                    benchmark: Benchmark::Raytrace,
                    role: AppRole::Legitimate,
                    threads: 8,
                    theta: 6.891_234_567_8e-12,
                    starved_cores: 3,
                },
            ],
            power_requests_delivered: 10,
            power_requests_modified: 4,
            requests_timed_out: 1,
            requests_rejected: 2,
            requests_clamped: 3,
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("htpb-baseline-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn report_json_roundtrip_is_bit_exact() {
        let r = report();
        let text = report_to_json(&r).render();
        let back = report_from_json(&crate::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
        for (a, b) in r.apps.iter().zip(&back.apps) {
            assert_eq!(a.theta.to_bits(), b.theta.to_bits());
        }
    }

    /// The on-disk entry, byte for byte — same envelope as the result
    /// cache's, with the report under its own key.
    #[test]
    fn stored_entry_bytes_are_pinned() {
        let dir = tmpdir("pin");
        let cache = BaselineCache::with_dir(&dir);
        let cfg = CampaignConfig::tiny(Mix::Mix1);
        cache.store(BaselineCache::key(&cfg), &cfg, &report());
        assert_eq!(
            fs::read_to_string(dir.join("baseline-a937b50873aa3176.json")).unwrap(),
            "{\"schema\":2,\"id\":\"baseline-n32-mix-1-center-fair-share-xy-e400-\
             b3fe3333333333333-w1-m5-mem1-dc0-sa77ac\",\"fnv\":\"dd8b8117a4e85769\",\
             \"report\":{\"window_cycles\":123456,\"apps\":[{\"id\":0,\
             \"benchmark\":\"barnes\",\"role\":\"malicious\",\"threads\":4,\
             \"theta\":0.3333333333333333,\"starved_cores\":0},{\"id\":1,\
             \"benchmark\":\"raytrace\",\"role\":\"legit\",\"threads\":8,\
             \"theta\":6.8912345678e-12,\"starved_cores\":3}],\"delivered\":10,\
             \"modified\":4,\"timed_out\":1,\"rejected\":2,\"clamped\":3}}\n"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_tracks_baseline_id_not_attack_knobs() {
        let base = CampaignConfig::tiny(Mix::Mix1);
        let mut attacked = base.clone();
        attacked.tamper_rule = htpb_trojan::TamperRule::ScalePercent(25);
        assert_eq!(BaselineCache::key(&base), BaselineCache::key(&attacked));
        let mut other = base.clone();
        other.seed ^= 1;
        assert_ne!(BaselineCache::key(&base), BaselineCache::key(&other));
    }

    #[test]
    fn memoizes_within_a_process() {
        let cache = BaselineCache::in_memory();
        let cfg = CampaignConfig::tiny(Mix::Mix1);
        let (first, hit1) = cache.get_or_compute(&cfg);
        assert!(!hit1);
        let (second, hit2) = cache.get_or_compute(&cfg);
        assert!(hit2);
        assert_eq!(*first, *second);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        // And matches a direct computation bit for bit.
        assert_eq!(*first, run_clean_baseline(&cfg));
    }

    #[test]
    fn disk_layer_survives_a_new_instance_and_rejects_id_mismatch() {
        let dir = tmpdir("disk");
        let cfg = CampaignConfig::tiny(Mix::Mix2);
        let direct = {
            let cache = BaselineCache::with_dir(&dir);
            let (r, hit) = cache.get_or_compute(&cfg);
            assert!(!hit);
            r
        };
        // Fresh instance: memo is cold, disk is warm.
        let cache = BaselineCache::with_dir(&dir);
        let (reloaded, hit) = cache.get_or_compute(&cfg);
        assert!(hit);
        assert_eq!(cache.misses(), 0);
        assert_eq!(*reloaded, *direct);
        // A tampered id degrades to a miss instead of serving a wrong report.
        let key = BaselineCache::key(&cfg);
        let path = dir.join(format!("baseline-{key:016x}.json"));
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, text.replace(&cfg.baseline_id(), "baseline-bogus")).unwrap();
        let cold = BaselineCache::with_dir(&dir);
        let (_, hit) = cold.get_or_compute(&cfg);
        assert!(!hit);
        assert_eq!(cold.misses(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_entry_degrades_to_miss() {
        let dir = tmpdir("corrupt");
        let cfg = CampaignConfig::tiny(Mix::Mix3);
        {
            let cache = BaselineCache::with_dir(&dir);
            let _ = cache.get_or_compute(&cfg);
        }
        let key = BaselineCache::key(&cfg);
        fs::write(dir.join(format!("baseline-{key:016x}.json")), "{not json").unwrap();
        let cache = BaselineCache::with_dir(&dir);
        let (_, hit) = cache.get_or_compute(&cfg);
        assert!(!hit);
        let _ = fs::remove_dir_all(&dir);
    }
}
