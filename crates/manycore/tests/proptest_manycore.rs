//! Property-based tests of the many-core system: throughput curves are
//! well-behaved for every benchmark at every operating point, the cache
//! substrate preserves basic invariants, and random workloads always run
//! the budgeting protocol to completion.

use proptest::prelude::*;

use htpb_manycore::{
    AppRole, Benchmark, CacheConfig, Directory, SetAssocCache, SystemBuilder, Workload,
};
use htpb_noc::Mesh2d;
use htpb_power::DvfsTable;

/// The directory this crate shipped before the FNV-indexed one, kept
/// verbatim as the model the new one is checked against: a linear scan over
/// a `Vec` of entries in allocation order, `Vec::remove(0)` eviction, one
/// `BTreeSet` of sharers per line.
mod model {
    use std::collections::BTreeSet;

    use htpb_manycore::LineState;

    struct DirEntry {
        line: u64,
        state: LineState,
        sharers: BTreeSet<u16>,
    }

    pub struct DirectoryAction {
        pub invalidate: Vec<u16>,
        pub was_tracked: bool,
    }

    pub struct Directory {
        entries: Vec<DirEntry>,
        capacity: usize,
    }

    impl Directory {
        pub fn new(capacity: usize) -> Self {
            Directory {
                entries: Vec::new(),
                capacity: capacity.max(1),
            }
        }

        fn find(&mut self, line: u64) -> Option<usize> {
            self.entries.iter().position(|e| e.line == line)
        }

        pub fn read(&mut self, line: u64, core: u16) -> DirectoryAction {
            match self.find(line) {
                Some(i) => {
                    let entry = &mut self.entries[i];
                    let mut invalidate = Vec::new();
                    if entry.state == LineState::Modified {
                        invalidate = entry
                            .sharers
                            .iter()
                            .copied()
                            .filter(|s| *s != core)
                            .collect();
                        entry.sharers.retain(|s| *s == core);
                        entry.state = LineState::Shared;
                    }
                    entry.sharers.insert(core);
                    DirectoryAction {
                        invalidate,
                        was_tracked: true,
                    }
                }
                None => {
                    let evict_invalidations = self.allocate(line, core, LineState::Shared);
                    DirectoryAction {
                        invalidate: evict_invalidations,
                        was_tracked: false,
                    }
                }
            }
        }

        pub fn write(&mut self, line: u64, core: u16) -> DirectoryAction {
            match self.find(line) {
                Some(i) => {
                    let entry = &mut self.entries[i];
                    let invalidate: Vec<u16> = entry
                        .sharers
                        .iter()
                        .copied()
                        .filter(|s| *s != core)
                        .collect();
                    entry.sharers.clear();
                    entry.sharers.insert(core);
                    entry.state = LineState::Modified;
                    DirectoryAction {
                        invalidate,
                        was_tracked: true,
                    }
                }
                None => {
                    let evict_invalidations = self.allocate(line, core, LineState::Modified);
                    DirectoryAction {
                        invalidate: evict_invalidations,
                        was_tracked: false,
                    }
                }
            }
        }

        fn allocate(&mut self, line: u64, core: u16, state: LineState) -> Vec<u16> {
            let mut invalidations = Vec::new();
            if self.entries.len() >= self.capacity {
                let victim = self.entries.remove(0);
                invalidations = victim.sharers.into_iter().collect();
            }
            let mut sharers = BTreeSet::new();
            sharers.insert(core);
            self.entries.push(DirEntry {
                line,
                state,
                sharers,
            });
            invalidations
        }

        pub fn state(&self, line: u64) -> LineState {
            self.entries
                .iter()
                .find(|e| e.line == line)
                .map_or(LineState::Invalid, |e| e.state)
        }

        pub fn sharers(&self, line: u64) -> Vec<u16> {
            self.entries
                .iter()
                .find(|e| e.line == line)
                .map_or_else(Vec::new, |e| e.sharers.iter().copied().collect())
        }

        pub fn tracked_lines(&self) -> usize {
            self.entries.len()
        }
    }
}

fn arb_benchmark() -> impl Strategy<Value = Benchmark> {
    proptest::sample::select(Benchmark::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Throughput is positive, strictly increasing in frequency, and IPC
    /// stays within architectural bounds for every benchmark at every
    /// table frequency.
    #[test]
    fn throughput_curves_are_sane(bench in arb_benchmark()) {
        let table = DvfsTable::default_six_level();
        let p = bench.profile();
        let mut last = 0.0;
        for level in table.iter_levels() {
            let f = table.freq_ghz(level);
            let t = p.throughput(f);
            prop_assert!(t > last);
            prop_assert!(t < p.throughput_ceiling());
            prop_assert!(p.ipc(f) > 0.0 && p.ipc(f) < 4.0);
            last = t;
        }
    }

    /// Any feasible random workload runs two epochs with the protocol
    /// completing: correct requester count and budget-bounded grants.
    #[test]
    fn random_workloads_complete_protocol(
        apps in proptest::collection::vec((arb_benchmark(), 1usize..5, any::<bool>()), 1..4),
        budget_fraction in 0.2f64..1.5,
        seed in any::<u64>(),
    ) {
        let mesh = Mesh2d::new(4, 4).unwrap();
        let mut w = Workload::new();
        let mut threads = 0;
        for (b, t, malicious) in &apps {
            let t = (*t).min(15 - threads);
            if t == 0 {
                break;
            }
            threads += t;
            let role = if *malicious { AppRole::Malicious } else { AppRole::Legitimate };
            w = w.app(*b, t, role);
        }
        prop_assume!(w.total_threads() > 0);
        let expected = w.total_threads();
        let mut sys = SystemBuilder::new(mesh)
            .workload(w)
            .budget_fraction(budget_fraction)
            .seed(seed)
            .build()
            .expect("feasible workload");
        sys.run_epochs(2);
        prop_assert!(sys.manager().epochs_run() >= 2);
        let s = sys.manager().last_summary().expect("epoch ran");
        prop_assert_eq!(s.requesters, expected);
        prop_assert!(s.total_granted_mw <= sys.manager().budget_mw() + 1e-6);
        // Conservation: every assigned tile retired instructions.
        for t in sys.tiles() {
            if t.is_assigned() {
                prop_assert!(t.retired_total() > 0.0);
            }
        }
    }

    /// Cache invariant: after accessing an address, probing it hits until
    /// an eviction or invalidation removes it; hit/miss counters add up.
    #[test]
    fn cache_access_probe_consistency(addrs in proptest::collection::vec(any::<u32>(), 1..200)) {
        let mut c = SetAssocCache::new(CacheConfig::l1_data());
        for a in &addrs {
            let addr = u64::from(*a);
            c.access(addr);
            prop_assert!(c.probe(addr), "just-accessed line must be present");
        }
        prop_assert_eq!(c.hits() + c.misses(), addrs.len() as u64);
    }

    /// Directory invariant: after any sequence of reads/writes, a line has
    /// at most one owner when Modified, and the sharer set is exactly the
    /// cores whose last access wasn't invalidated.
    #[test]
    fn directory_single_writer(ops in proptest::collection::vec((any::<bool>(), 0u16..8, 0u64..16), 1..100)) {
        let mut d = Directory::new(1024);
        for (is_write, core, line_idx) in ops {
            let line = line_idx * 64;
            if is_write {
                d.write(line, core);
                prop_assert_eq!(d.sharers(line), vec![core], "writer is sole owner");
            } else {
                d.read(line, core);
                prop_assert!(d.sharers(line).contains(&core));
            }
        }
    }

    /// The FNV-indexed directory is the old one: on any read/write sequence
    /// — capacities small enough that most allocations evict, few enough
    /// lines that they come back after eviction — every request reports the
    /// same `was_tracked` and the same invalidation list in the same order,
    /// and afterwards every line has the same state and sharers.
    #[test]
    fn directory_matches_the_linear_scan_model(
        capacity in 1usize..=24,
        ops in proptest::collection::vec((any::<bool>(), 0u16..12, 0u64..40), 1..400),
    ) {
        let mut new = Directory::new(capacity);
        let mut old = model::Directory::new(capacity);
        for (step, &(is_write, core, line_idx)) in ops.iter().enumerate() {
            // Spread lines the way coherence packets do (64 B apart) plus a
            // few far apart, so FNV home buckets collide and wrap.
            let line = (line_idx * 64) << (line_idx % 3 * 9);
            let (got, want) = if is_write {
                (new.write(line, core), old.write(line, core))
            } else {
                (new.read(line, core), old.read(line, core))
            };
            prop_assert_eq!(got.was_tracked, want.was_tracked, "step {}", step);
            prop_assert_eq!(got.invalidate, &want.invalidate[..], "step {}", step);
            prop_assert_eq!(new.tracked_lines(), old.tracked_lines());
            for idx in 0..40u64 {
                let line = (idx * 64) << (idx % 3 * 9);
                prop_assert_eq!(new.state(line), old.state(line), "step {} line {:#x}", step, line);
                prop_assert_eq!(new.sharers(line), old.sharers(line), "step {} line {:#x}", step, line);
            }
        }
    }
}
