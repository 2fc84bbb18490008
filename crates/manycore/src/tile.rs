use htpb_noc::NodeId;
use htpb_power::{FrequencyLevel, PowerModel};

use crate::app::{AppId, AppRole};
use crate::benchmark::BenchmarkProfile;
use crate::cache::{AddressStream, CacheConfig, SetAssocCache};

/// Memory references issued per 1000 retired instructions in detailed-cache
/// mode (loads + stores reaching the L1 data cache).
pub(crate) const REFS_PER_KINSTR: f64 = 300.0;

/// L1 misses a tile may send towards their L2 home per tick (detailed
/// mode): the network interface's injection width. Further misses of the
/// same tick still allocate in the L1 but generate no traffic.
pub(crate) const MISSES_PER_TICK: usize = 2;

/// One tile of the chip: a core (with its private L1 and shared-L2 slice)
/// plus its network interface state.
///
/// Tiles either run one application thread or sit idle (unassigned tiles
/// and the global-manager tile do not execute workload instructions).
#[derive(Debug, Clone)]
pub struct Tile {
    node: NodeId,
    assignment: Option<Assignment>,
    level: FrequencyLevel,
    /// Set when the last grant could not sustain even the lowest DVFS level.
    starved: bool,
    /// Lifetime retired instructions.
    retired_total: f64,
    /// Instructions retired since the measurement window began.
    retired_window: f64,
    /// Fractional accumulator of pending shared-L2 accesses.
    l2_credit: f64,
    /// The per-tick rates at the `(level, starved)` they were computed for;
    /// `None` until the first tick. Only a grant changes that key: the
    /// power model, the profile and the starvation duty a tile is ticked
    /// with are fixed for its system's life, so a key match means the
    /// cached rates are the very f64s a recomputation would produce.
    rates: Option<TickRates>,
    /// Detailed L1 + reference stream (None in rate-based mode).
    detailed: Option<DetailedL1>,
}

/// What one tick adds at a given operating point.
#[derive(Debug, Clone, Copy)]
struct TickRates {
    level: FrequencyLevel,
    starved: bool,
    /// Instructions retired per ns.
    retired: f64,
    /// Shared-L2 accesses per ns.
    l2_accesses: f64,
}

impl TickRates {
    fn new(
        profile: &BenchmarkProfile,
        model: &PowerModel,
        level: FrequencyLevel,
        starved: bool,
        starvation_duty: f64,
    ) -> Self {
        let mut retired = profile.throughput(model.table().freq_ghz(level));
        if starved {
            retired *= starvation_duty.clamp(0.0, 1.0);
        }
        TickRates {
            level,
            starved,
            retired,
            l2_accesses: retired * profile.l2_accesses_per_kinstr / 1_000.0,
        }
    }
}

/// Detailed per-tile memory state: a real L1 data cache fed by a synthetic
/// reference stream (enabled by `SystemConfig::detailed_caches`).
#[derive(Debug, Clone)]
struct DetailedL1 {
    cache: SetAssocCache,
    stream: AddressStream,
    ref_credit: f64,
    /// Outstanding L2/memory requests (MSHR occupancy).
    outstanding: u32,
    /// Cycles the core spent stalled on a full MSHR.
    stall_cycles: u64,
}

/// The thread assigned to a tile.
#[derive(Debug, Clone, Copy)]
pub struct Assignment {
    /// Owning application.
    pub app: AppId,
    /// Role inherited from the application.
    pub role: AppRole,
    /// Request inflation factor inherited from the application.
    pub greed: f64,
    /// Workload profile of the benchmark.
    pub profile: BenchmarkProfile,
}

impl Tile {
    /// Creates an idle tile.
    #[must_use]
    pub fn idle(node: NodeId) -> Self {
        Tile {
            node,
            assignment: None,
            level: FrequencyLevel::MIN,
            starved: false,
            retired_total: 0.0,
            retired_window: 0.0,
            l2_credit: 0.0,
            rates: None,
            detailed: None,
        }
    }

    /// This tile's node id (also its core id in power requests).
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Assigns an application thread to this tile.
    pub(crate) fn assign(&mut self, assignment: Assignment) {
        self.assignment = Some(assignment);
    }

    /// Switches this tile to detailed-cache mode: a real L1 data cache fed
    /// by a synthetic address stream calibrated to the benchmark's L2
    /// access rate (hot fraction = 1 − rate/refs so the emergent L1 miss
    /// rate lands near the profile's).
    pub(crate) fn enable_detailed_cache(&mut self) {
        let Some(a) = self.assignment.as_ref() else {
            return;
        };
        let miss_ratio = (a.profile.l2_accesses_per_kinstr / REFS_PER_KINSTR).clamp(0.0, 1.0);
        self.detailed = Some(DetailedL1 {
            cache: SetAssocCache::new(CacheConfig::l1_data()),
            stream: AddressStream::new(self.node.raw(), 8, 1.0 - miss_ratio, 0.25),
            ref_credit: 0.0,
            outstanding: 0,
            stall_cycles: 0,
        });
    }

    /// Whether detailed-cache mode is active.
    #[must_use]
    pub fn has_detailed_cache(&self) -> bool {
        self.detailed.is_some()
    }

    /// L1 hit rate in detailed mode (0.0 otherwise).
    #[must_use]
    pub fn l1_hit_rate(&self) -> f64 {
        self.detailed.as_ref().map_or(0.0, |d| d.cache.hit_rate())
    }

    /// Invalidates an L1 line (directory-initiated coherence action).
    pub(crate) fn l1_invalidate(&mut self, addr: u64) {
        if let Some(d) = self.detailed.as_mut() {
            d.cache.invalidate(addr);
        }
    }

    /// Records outstanding misses entering the network (MSHR allocation).
    pub(crate) fn note_misses_sent(&mut self, n: u32) {
        if let Some(d) = self.detailed.as_mut() {
            d.outstanding += n;
        }
    }

    /// Records a returning data reply (MSHR release).
    pub(crate) fn note_reply(&mut self) {
        if let Some(d) = self.detailed.as_mut() {
            d.outstanding = d.outstanding.saturating_sub(1);
        }
    }

    /// Current MSHR occupancy (detailed mode; 0 otherwise).
    #[must_use]
    pub fn outstanding_misses(&self) -> u32 {
        self.detailed.as_ref().map_or(0, |d| d.outstanding)
    }

    /// Cycles spent stalled on a full MSHR (detailed mode).
    #[must_use]
    pub fn stall_cycles(&self) -> u64 {
        self.detailed.as_ref().map_or(0, |d| d.stall_cycles)
    }

    /// The assigned thread, if any.
    #[must_use]
    pub fn assignment(&self) -> Option<&Assignment> {
        self.assignment.as_ref()
    }

    /// Whether the tile runs a thread.
    #[must_use]
    pub fn is_assigned(&self) -> bool {
        self.assignment.is_some()
    }

    /// Current DVFS level.
    #[must_use]
    pub fn level(&self) -> FrequencyLevel {
        self.level
    }

    /// Whether the last grant could not afford even the lowest level.
    #[must_use]
    pub fn is_starved(&self) -> bool {
        self.starved
    }

    /// Lifetime retired instructions.
    #[must_use]
    pub fn retired_total(&self) -> f64 {
        self.retired_total
    }

    /// Instructions retired in the current measurement window.
    #[must_use]
    pub(crate) fn retired_window(&self) -> f64 {
        self.retired_window
    }

    /// Resets the measurement window.
    pub(crate) fn reset_window(&mut self) {
        self.retired_window = 0.0;
    }

    /// Applies a power grant: the core moves to the highest level its grant
    /// affords. A grant below the lowest operating point pins the core to
    /// the lowest level (retention floor) and marks it starved.
    pub(crate) fn apply_grant(&mut self, grant_mw: f64, model: &PowerModel) {
        match model.level_for_grant(grant_mw) {
            Some(level) => {
                self.level = level;
                self.starved = false;
            }
            None => {
                self.level = FrequencyLevel::MIN;
                self.starved = true;
            }
        }
    }

    /// The power this tile's thread honestly needs (mW): the cost of the
    /// lowest DVFS level achieving `efficiency` of its top-level throughput.
    /// Malicious threads inflate this by their greed factor (capped at the
    /// chip's peak per-core power — asking beyond peak is a giveaway).
    #[must_use]
    pub fn desired_request_mw(&self, model: &PowerModel, efficiency: f64) -> Option<f64> {
        let a = self.assignment.as_ref()?;
        let level = a.profile.desired_level(model.table(), efficiency);
        let honest = model.power_mw(level);
        let asked = match a.role {
            AppRole::Legitimate => honest,
            AppRole::Malicious => (honest * a.greed).min(model.peak_power_mw()),
        };
        Some(asked)
    }

    /// Advances the core by one nanosecond of wall-clock time, retiring
    /// instructions at the current operating point, and returns the number
    /// of whole shared-L2 accesses generated this tick.
    ///
    /// A starved core (grant below the lowest operating point) is mostly
    /// power-gated: the runtime wakes it for a `starvation_duty` fraction
    /// of the time at the lowest level so its threads keep making minimal
    /// forward progress, and it retires instructions at that duty-cycled
    /// rate.
    pub(crate) fn tick(&mut self, model: &PowerModel, starvation_duty: f64) -> u32 {
        let Some(rates) = self.retire(model, starvation_duty) else {
            return 0;
        };
        self.l2_credit += rates.l2_accesses;
        // The credit was in [0, 1) and grew by a finite, non-negative rate,
        // so truncation is `floor` and the whole part fits a `u32`.
        debug_assert!((0.0..=1.0 + rates.l2_accesses).contains(&self.l2_credit));
        let whole = self.l2_credit as u32;
        self.l2_credit -= f64::from(whole);
        whole
    }

    /// Detailed-mode tick: retires instructions, then runs the tick's
    /// memory references through the real L1 and returns the misses (as
    /// `(line address, is_write)`) that must travel to their L2 home: the
    /// first `n` entries of the returned array, `n <= MISSES_PER_TICK`.
    // htpb-lint: hot
    pub(crate) fn tick_detailed(
        &mut self,
        model: &PowerModel,
        starvation_duty: f64,
        mshr_limit: u32,
    ) -> ([(u64, bool); MISSES_PER_TICK], usize) {
        let mut misses = [(0, false); MISSES_PER_TICK];
        // A full MSHR stalls the core for the cycle: no retirement, no new
        // references. This couples core performance to real NoC and memory
        // latency.
        if let Some(d) = self.detailed.as_mut() {
            if d.outstanding >= mshr_limit {
                d.stall_cycles += 1;
                return (misses, 0);
            }
        }
        let Some(rates) = self.retire(model, starvation_duty) else {
            return (misses, 0);
        };
        let Some(d) = self.detailed.as_mut() else {
            return (misses, 0);
        };
        d.ref_credit += rates.retired * REFS_PER_KINSTR / 1_000.0;
        let whole = d.ref_credit.floor() as usize;
        d.ref_credit -= whole as f64;
        let mut n = 0;
        for _ in 0..whole {
            let (addr, is_write) = d.stream.next_ref();
            let result = d.cache.access(addr);
            if !result.hit && n < MISSES_PER_TICK {
                misses[n] = (addr, is_write);
                n += 1;
            }
        }
        (misses, n)
    }
    // htpb-lint: end-hot

    /// Retires one nanosecond of instructions and returns the rates it
    /// retired at; `None` for idle tiles.
    fn retire(&mut self, model: &PowerModel, starvation_duty: f64) -> Option<TickRates> {
        let a = self.assignment.as_ref()?;
        let rates = match self.rates {
            Some(r) if r.level == self.level && r.starved == self.starved => r,
            _ => {
                let r =
                    TickRates::new(&a.profile, model, self.level, self.starved, starvation_duty);
                self.rates = Some(r);
                r
            }
        };
        self.retired_total += rates.retired;
        self.retired_window += rates.retired;
        Some(rates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmark::Benchmark;

    fn assigned_tile(b: Benchmark, role: AppRole, greed: f64) -> Tile {
        let mut t = Tile::idle(NodeId(3));
        t.assign(Assignment {
            app: AppId(0),
            role,
            greed,
            profile: b.profile(),
        });
        t
    }

    #[test]
    fn idle_tile_retires_nothing() {
        let mut t = Tile::idle(NodeId(0));
        let model = PowerModel::default_45nm();
        assert_eq!(t.tick(&model, 1.0), 0);
        assert_eq!(t.retired_total(), 0.0);
        assert!(!t.is_assigned());
        assert!(t.desired_request_mw(&model, 0.95).is_none());
    }

    #[test]
    fn tick_retires_more_at_higher_level() {
        let model = PowerModel::default_45nm();
        let mut slow = assigned_tile(Benchmark::Blackscholes, AppRole::Legitimate, 1.0);
        let mut fast = assigned_tile(Benchmark::Blackscholes, AppRole::Legitimate, 1.0);
        fast.apply_grant(model.peak_power_mw(), &model);
        for _ in 0..100 {
            slow.tick(&model, 1.0);
            fast.tick(&model, 1.0);
        }
        assert!(fast.retired_total() > slow.retired_total() * 3.0);
    }

    #[test]
    fn starvation_pins_to_min_level() {
        let model = PowerModel::default_45nm();
        let mut t = assigned_tile(Benchmark::Vips, AppRole::Legitimate, 1.0);
        t.apply_grant(model.peak_power_mw(), &model);
        assert_eq!(t.level(), model.table().max_level());
        t.apply_grant(0.0, &model);
        assert_eq!(t.level(), FrequencyLevel::MIN);
        assert!(t.is_starved());
        t.apply_grant(model.min_power_mw() + 1.0, &model);
        assert!(!t.is_starved());
    }

    #[test]
    fn malicious_request_is_inflated_but_capped() {
        let model = PowerModel::default_45nm();
        let honest = assigned_tile(Benchmark::Blackscholes, AppRole::Legitimate, 1.0)
            .desired_request_mw(&model, 0.95)
            .unwrap();
        let greedy = assigned_tile(Benchmark::Blackscholes, AppRole::Malicious, 1.5)
            .desired_request_mw(&model, 0.95)
            .unwrap();
        assert!(greedy >= honest);
        assert!(greedy <= model.peak_power_mw() + 1e-9);
        let absurd = assigned_tile(Benchmark::Blackscholes, AppRole::Malicious, 100.0)
            .desired_request_mw(&model, 0.95)
            .unwrap();
        assert!((absurd - model.peak_power_mw()).abs() < 1e-9);
    }

    #[test]
    fn l2_accesses_accumulate_fractionally() {
        let model = PowerModel::default_45nm();
        let mut t = assigned_tile(Benchmark::Canneal, AppRole::Legitimate, 1.0);
        t.apply_grant(model.peak_power_mw(), &model);
        let mut total = 0u32;
        for _ in 0..10_000 {
            total += t.tick(&model, 1.0);
        }
        // canneal at top level: throughput(3.0) ≈ 0.76 GIPS, 34 accesses per
        // kinstr → ≈ 26 accesses per 1000 ns.
        let expected = t.retired_total() * 34.0 / 1000.0;
        assert!(
            (total as f64 - expected).abs() <= 1.0,
            "got {total}, expected ≈{expected}"
        );
    }

    #[test]
    fn starved_tile_runs_duty_cycled() {
        let model = PowerModel::default_45nm();
        let mut healthy = assigned_tile(Benchmark::Raytrace, AppRole::Legitimate, 1.0);
        let mut starved = assigned_tile(Benchmark::Raytrace, AppRole::Legitimate, 1.0);
        starved.apply_grant(0.0, &model);
        assert!(starved.is_starved());
        for _ in 0..1_000 {
            healthy.tick(&model, 0.25);
            starved.tick(&model, 0.25);
        }
        // Both sit at the lowest level, but the starved one runs at a
        // quarter of its throughput.
        let ratio = starved.retired_total() / healthy.retired_total();
        assert!((ratio - 0.25).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn cached_rates_match_a_per_tick_recomputation_bit_for_bit() {
        let model = PowerModel::default_45nm();
        let duty = 0.25;
        let mut t = assigned_tile(Benchmark::Canneal, AppRole::Legitimate, 1.0);
        let profile = Benchmark::Canneal.profile();
        // The model: every f64 recomputed from scratch on every tick.
        let (mut total, mut window, mut l2_credit) = (0.0f64, 0.0f64, 0.0f64);
        let grants = [
            None,                                    // MIN, never granted
            Some(model.peak_power_mw()),             // level up
            Some(model.power_mw(FrequencyLevel(2))), // level down
            Some(0.0),                               // starve
            Some(model.min_power_mw() + 1.0),        // un-starve
        ];
        let mut seen = Vec::new();
        for grant in grants {
            if let Some(mw) = grant {
                t.apply_grant(mw, &model);
            }
            seen.push((t.level(), t.is_starved()));
            for _ in 0..300 {
                let accesses = t.tick(&model, duty);
                let mut retired = profile.throughput(model.table().freq_ghz(t.level()));
                if t.is_starved() {
                    retired *= duty;
                }
                total += retired;
                window += retired;
                l2_credit += retired * profile.l2_accesses_per_kinstr / 1_000.0;
                let whole = l2_credit.floor();
                l2_credit -= whole;
                assert_eq!(t.retired_total().to_bits(), total.to_bits());
                assert_eq!(t.retired_window().to_bits(), window.to_bits());
                assert_eq!(accesses, whole as u32);
            }
        }
        // The grants really moved the operating point four times.
        assert!(seen[1].0 > seen[0].0 && seen[2].0 < seen[1].0);
        assert_eq!(seen[3], (FrequencyLevel::MIN, true));
        assert!(!seen[4].1);
    }

    #[test]
    fn detailed_tick_produces_bounded_l1_misses() {
        let model = PowerModel::default_45nm();
        let mut t = assigned_tile(Benchmark::Canneal, AppRole::Legitimate, 1.0);
        t.enable_detailed_cache();
        assert!(t.has_detailed_cache());
        t.apply_grant(model.peak_power_mw(), &model);
        let mut total_misses = 0usize;
        for _ in 0..5_000 {
            let (_, n) = t.tick_detailed(&model, 1.0, u32::MAX);
            assert!(n <= MISSES_PER_TICK);
            total_misses += n;
        }
        assert!(total_misses > 0, "no L1 misses at all");
        // The L1 absorbs the hot set: hit rate must be substantial but not
        // perfect (canneal's profile demands real L2 traffic).
        let hr = t.l1_hit_rate();
        assert!(hr > 0.5 && hr < 1.0, "hit rate {hr}");
        assert!(t.retired_total() > 0.0);
    }

    #[test]
    fn detailed_mode_requires_assignment() {
        let mut t = Tile::idle(NodeId(1));
        t.enable_detailed_cache();
        assert!(!t.has_detailed_cache());
        let model = PowerModel::default_45nm();
        assert_eq!(t.tick_detailed(&model, 1.0, u32::MAX).1, 0);
    }

    #[test]
    fn full_mshr_stalls_the_core() {
        let model = PowerModel::default_45nm();
        let mut t = assigned_tile(Benchmark::Canneal, AppRole::Legitimate, 1.0);
        t.enable_detailed_cache();
        t.note_misses_sent(8);
        let before = t.retired_total();
        let (_, misses) = t.tick_detailed(&model, 1.0, 8);
        assert_eq!(misses, 0);
        assert_eq!(t.retired_total(), before, "stalled core retires nothing");
        assert_eq!(t.stall_cycles(), 1);
        // A reply frees an MSHR and execution resumes.
        t.note_reply();
        assert_eq!(t.outstanding_misses(), 7);
        t.tick_detailed(&model, 1.0, 8);
        assert!(t.retired_total() > before);
    }

    #[test]
    fn window_reset_only_clears_window() {
        let model = PowerModel::default_45nm();
        let mut t = assigned_tile(Benchmark::Vips, AppRole::Legitimate, 1.0);
        for _ in 0..10 {
            t.tick(&model, 1.0);
        }
        let total = t.retired_total();
        t.reset_window();
        assert_eq!(t.retired_window(), 0.0);
        assert_eq!(t.retired_total(), total);
    }
}
