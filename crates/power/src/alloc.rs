use crate::model::PowerModel;
use crate::request::{PowerGrant, PowerRequest};

/// A power-budget allocation policy run by the global manager each epoch.
///
/// # Contract
///
/// For any input, an implementation must return exactly one grant per
/// request (same core ids, any order) such that every grant is
/// non-negative, no grant exceeds its request, and the grant total does not
/// exceed `budget_mw` (up to floating-point slack). These invariants are
/// what make the false-data attack effective *irrespective of the
/// algorithm* (Section I): a lowered request is a hard ceiling on what the
/// victim can receive.
pub trait PowerAllocator: Send {
    /// Divides `budget_mw` among `requests`.
    fn allocate(
        &mut self,
        requests: &[PowerRequest],
        budget_mw: f64,
        model: &PowerModel,
    ) -> Vec<PowerGrant>;

    /// Short policy name for logs and bench output.
    fn name(&self) -> &'static str;

    /// Resets any controller state between independent runs.
    fn reset(&mut self) {}
}

/// Selects one of the built-in allocation policies by name — handy for
/// configuration structs that must be `Clone`/`Copy` while the allocators
/// themselves are stateful trait objects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AllocatorKind {
    /// [`GreedyAllocator`] — the default; descending-size first-fit.
    #[default]
    Greedy,
    /// [`FairShareAllocator`] — max-min fair water-filling.
    FairShare,
    /// [`PiAllocator`] — PI-controlled global throttle.
    Pi,
    /// [`DpAllocator`] — dynamic-programming optimal over DVFS points.
    Dp,
    /// [`MarketAllocator`] — bidding with per-core currency rebates.
    Market,
}

impl AllocatorKind {
    /// All built-in policies, for ablation sweeps.
    pub const ALL: [AllocatorKind; 5] = [
        AllocatorKind::Greedy,
        AllocatorKind::FairShare,
        AllocatorKind::Pi,
        AllocatorKind::Dp,
        AllocatorKind::Market,
    ];

    /// Instantiates the policy with default parameters.
    #[must_use]
    pub fn build(self) -> Box<dyn PowerAllocator> {
        match self {
            AllocatorKind::Greedy => Box::new(GreedyAllocator::new()),
            AllocatorKind::FairShare => Box::new(FairShareAllocator::new()),
            AllocatorKind::Pi => Box::new(PiAllocator::default()),
            AllocatorKind::Dp => Box::new(DpAllocator),
            AllocatorKind::Market => Box::new(MarketAllocator::default()),
        }
    }

    /// The policy's short name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AllocatorKind::Greedy => "greedy",
            AllocatorKind::FairShare => "fair-share",
            AllocatorKind::Pi => "pi-control",
            AllocatorKind::Dp => "dp-optimal",
            AllocatorKind::Market => "market",
        }
    }
}

/// Audits a finished grant vector against the allocator contract: one grant
/// per request (same cores, same order), every grant finite and within
/// `[0, request]`, and the total within `budget_mw` — up to a small
/// floating-point tolerance for the rescale in `enforce_contract`.
///
/// Returns a description of the first violation, or `None` when the
/// contract holds. [`crate::GlobalManager::run_epoch`] asserts this in
/// debug builds after every allocation.
#[must_use]
pub fn audit_grant_contract(
    grants: &[PowerGrant],
    requests: &[PowerRequest],
    budget_mw: f64,
) -> Option<String> {
    const TOL: f64 = 1e-9;
    let budget = if budget_mw.is_nan() {
        0.0
    } else {
        budget_mw.clamp(0.0, f64::MAX)
    };
    if grants.len() != requests.len() {
        return Some(format!(
            "{} grants for {} requests",
            grants.len(),
            requests.len()
        ));
    }
    let mut total = 0.0f64;
    for (g, r) in grants.iter().zip(requests) {
        if g.core != r.core {
            return Some(format!(
                "grant core {} answers request core {}",
                g.core, r.core
            ));
        }
        if !g.milliwatts.is_finite() || g.milliwatts < 0.0 {
            return Some(format!(
                "core {}: non-finite/negative grant {}",
                g.core, g.milliwatts
            ));
        }
        let ceiling = if r.milliwatts.is_nan() {
            0.0
        } else {
            r.milliwatts.max(0.0)
        };
        if g.milliwatts > ceiling * (1.0 + TOL) + TOL {
            return Some(format!(
                "core {}: grant {} exceeds request {}",
                g.core, g.milliwatts, r.milliwatts
            ));
        }
        total += g.milliwatts;
    }
    if total > budget * (1.0 + TOL) + TOL {
        return Some(format!("total grants {total} exceed budget {budget}"));
    }
    None
}

/// Clamps grants so they satisfy the allocator contract exactly: each grant
/// in `[0, request]` and the total within `budget_mw`.
///
/// Hostile inputs must not escape: a `NaN` request caps its grant at zero, a
/// `NaN` grant becomes zero, and every grant is additionally capped at the
/// budget so an infinite request can never push the total to `∞` (where the
/// rescale `budget / total` would turn *other* cores' grants into
/// `∞ × 0 = NaN`).
fn enforce_contract(grants: &mut [PowerGrant], requests: &[PowerRequest], budget_mw: f64) {
    let budget = if budget_mw.is_nan() {
        0.0
    } else {
        budget_mw.clamp(0.0, f64::MAX)
    };
    for (g, r) in grants.iter_mut().zip(requests) {
        debug_assert_eq!(g.core, r.core);
        let ceiling = if r.milliwatts.is_nan() {
            0.0
        } else {
            r.milliwatts.max(0.0)
        };
        if g.milliwatts.is_nan() {
            g.milliwatts = 0.0;
        }
        g.milliwatts = g.milliwatts.clamp(0.0, ceiling.min(budget));
    }
    let total: f64 = grants.iter().map(|g| g.milliwatts).sum();
    if total > budget && total > 0.0 {
        let scale = budget / total;
        for g in grants.iter_mut() {
            g.milliwatts *= scale;
        }
    }
}

/// Greedy heuristic allocator (the SmartCap \[8\] family): requests are served
/// in descending size order, each receiving as much of the remaining budget
/// as it asked for.
///
/// Performance-first and deliberately unfair — large requesters (busy,
/// compute-bound applications) are fully satisfied before small ones see any
/// budget.
#[derive(Debug, Clone, Default)]
pub struct GreedyAllocator;

impl GreedyAllocator {
    /// Creates the allocator.
    #[must_use]
    pub fn new() -> Self {
        GreedyAllocator
    }
}

impl PowerAllocator for GreedyAllocator {
    fn allocate(
        &mut self,
        requests: &[PowerRequest],
        budget_mw: f64,
        _model: &PowerModel,
    ) -> Vec<PowerGrant> {
        let mut order: Vec<usize> = (0..requests.len()).collect();
        order.sort_by(|&a, &b| {
            requests[b]
                .milliwatts
                .total_cmp(&requests[a].milliwatts)
                .then(requests[a].core.cmp(&requests[b].core))
        });
        let mut remaining = budget_mw.max(0.0);
        let mut grants: Vec<PowerGrant> = requests
            .iter()
            .map(|r| PowerGrant::new(r.core, 0.0))
            .collect();
        for idx in order {
            let want = requests[idx].milliwatts.max(0.0);
            let give = want.min(remaining);
            grants[idx].milliwatts = give;
            remaining -= give;
        }
        enforce_contract(&mut grants, requests, budget_mw);
        grants
    }

    fn name(&self) -> &'static str {
        "greedy"
    }
}

/// Max-min fair (water-filling) allocator: the budget is raised uniformly
/// across all requesters until each is either satisfied or the budget is
/// exhausted. Small requests are always fully served first.
#[derive(Debug, Clone, Default)]
pub struct FairShareAllocator;

impl FairShareAllocator {
    /// Creates the allocator.
    #[must_use]
    pub fn new() -> Self {
        FairShareAllocator
    }
}

impl PowerAllocator for FairShareAllocator {
    fn allocate(
        &mut self,
        requests: &[PowerRequest],
        budget_mw: f64,
        _model: &PowerModel,
    ) -> Vec<PowerGrant> {
        let mut order: Vec<usize> = (0..requests.len()).collect();
        order.sort_by(|&a, &b| requests[a].milliwatts.total_cmp(&requests[b].milliwatts));
        let mut grants: Vec<PowerGrant> = requests
            .iter()
            .map(|r| PowerGrant::new(r.core, 0.0))
            .collect();
        let mut remaining = budget_mw.max(0.0);
        let mut left = requests.len();
        for idx in order {
            let fair = remaining / left as f64;
            let give = requests[idx].milliwatts.max(0.0).min(fair);
            grants[idx].milliwatts = give;
            remaining -= give;
            left -= 1;
        }
        enforce_contract(&mut grants, requests, budget_mw);
        grants
    }

    fn name(&self) -> &'static str {
        "fair-share"
    }
}

/// PI-controlled allocator (the PGCapping \[12\] family): a proportional–
/// integral controller tracks a global throttle factor `u ∈ (0, 1]` that
/// scales every request so the aggregate converges onto the budget, instead
/// of recomputing an exact division every epoch.
#[derive(Debug, Clone)]
pub struct PiAllocator {
    throttle: f64,
    integral: f64,
}

/// [`PiAllocator`]'s proportional gain, relative to the budget magnitude.
const PI_KP: f64 = 0.6;
/// [`PiAllocator`]'s integral gain, relative to the budget magnitude.
const PI_KI: f64 = 0.2;

impl Default for PiAllocator {
    fn default() -> Self {
        PiAllocator {
            throttle: 1.0,
            integral: 0.0,
        }
    }
}

impl PiAllocator {
    /// The current throttle factor (diagnostics).
    #[must_use]
    #[cfg(test)]
    pub(crate) fn throttle(&self) -> f64 {
        self.throttle
    }
}

impl PowerAllocator for PiAllocator {
    fn allocate(
        &mut self,
        requests: &[PowerRequest],
        budget_mw: f64,
        _model: &PowerModel,
    ) -> Vec<PowerGrant> {
        let demand: f64 = requests.iter().map(|r| r.milliwatts.max(0.0)).sum();
        if demand > 0.0 && budget_mw > 0.0 {
            // Error: how far the throttled demand is from the budget,
            // normalised to the budget.
            let error = (budget_mw - demand * self.throttle) / budget_mw;
            self.integral = (self.integral + error).clamp(-5.0, 5.0);
            self.throttle =
                (self.throttle + PI_KP * error + PI_KI * self.integral).clamp(0.01, 1.0);
        }
        let mut grants: Vec<PowerGrant> = requests
            .iter()
            .map(|r| PowerGrant::new(r.core, r.milliwatts.max(0.0) * self.throttle))
            .collect();
        enforce_contract(&mut grants, requests, budget_mw);
        grants
    }

    fn name(&self) -> &'static str {
        "pi-control"
    }

    fn reset(&mut self) {
        self.throttle = 1.0;
        self.integral = 0.0;
    }
}

/// Dynamic-programming optimal allocator (the fine-grained runtime budgeting
/// \[9\] family): picks one DVFS operating point per requester to maximise a
/// concave aggregate utility `Σ √(granted)` under the budget, via a
/// multiple-choice knapsack over discretised budget bins.
///
/// The concave utility makes the optimum spread power across cores
/// (diminishing returns), which is the qualitative behaviour of
/// performance-optimal budgeting.
#[derive(Debug, Clone, Default)]
pub struct DpAllocator;

/// The number of bins [`DpAllocator`] discretises the budget into.
const DP_BINS: usize = 256;

impl PowerAllocator for DpAllocator {
    fn allocate(
        &mut self,
        requests: &[PowerRequest],
        budget_mw: f64,
        model: &PowerModel,
    ) -> Vec<PowerGrant> {
        let mut grants: Vec<PowerGrant> = requests
            .iter()
            .map(|r| PowerGrant::new(r.core, 0.0))
            .collect();
        if requests.is_empty() || budget_mw <= 0.0 {
            return grants;
        }
        let bin_mw = budget_mw / DP_BINS as f64;
        // Candidate operating points per request: every DVFS level whose
        // power fits the request, expressed in whole bins.
        let options: Vec<Vec<(usize, f64)>> = requests
            .iter()
            .map(|r| {
                let mut opts = vec![(0usize, 0.0f64)]; // power-gated: zero grant
                for level in model.table().iter_levels() {
                    let p = model.power_mw(level);
                    if p <= r.milliwatts {
                        let w = (p / bin_mw).ceil() as usize;
                        if w <= DP_BINS {
                            opts.push((w, p.sqrt()));
                        }
                    }
                }
                opts
            })
            .collect();
        // dp[j] = best value using at most j bins; choice[i][j] = option index.
        let neg = f64::NEG_INFINITY;
        let mut dp = vec![0.0f64; DP_BINS + 1];
        let mut choice = vec![vec![0usize; DP_BINS + 1]; requests.len()];
        for (i, opts) in options.iter().enumerate() {
            let mut next = vec![neg; DP_BINS + 1];
            for j in 0..=DP_BINS {
                for (oi, &(w, v)) in opts.iter().enumerate() {
                    if w <= j {
                        let cand = dp[j - w] + v;
                        if cand > next[j] {
                            next[j] = cand;
                            choice[i][j] = oi;
                        }
                    }
                }
            }
            dp = next;
        }
        // Backtrack from the best bin count.
        let mut j = (0..=DP_BINS)
            .max_by(|&a, &b| dp[a].total_cmp(&dp[b]))
            .unwrap_or(DP_BINS);
        for i in (0..requests.len()).rev() {
            let oi = choice[i][j];
            let (w, _) = options[i][oi];
            if w > 0 {
                // Grant the exact power of the chosen operating point.
                let level_power = options[i][oi].1.powi(2);
                grants[i].milliwatts = level_power;
            }
            j -= w;
        }
        enforce_contract(&mut grants, requests, budget_mw);
        grants
    }

    fn name(&self) -> &'static str {
        "dp-optimal"
    }
}

/// Market-based allocator (the ReBudget \[6\] family): each core holds a
/// currency balance; a request is a bid, power is divided
/// proportionally to `balance-weighted` bids, and cores that received less
/// than they bid are rebated currency, raising their weight in future
/// epochs. Over time the market self-corrects chronic under-allocation —
/// unless, of course, a Trojan keeps shrinking a victim's bids, in which
/// case the victim's *budget currency piles up uselessly while its power
/// grant stays capped by the tampered bid* — exactly the
/// "irrespective of the algorithm" property the paper exploits.
#[derive(Debug, Clone, Default)]
pub struct MarketAllocator {
    /// Per-core currency balance (defaults to 1.0 for new bidders),
    /// sorted by core id so lookups bisect and iteration is deterministic.
    balances: Vec<(u16, f64)>,
}

/// [`MarketAllocator`]'s rebate rate for unmet demand, per epoch.
const MARKET_REBATE: f64 = 0.1;

impl MarketAllocator {
    /// A core's current currency balance.
    fn balance(&self, core: u16) -> f64 {
        match self.balances.binary_search_by_key(&core, |&(c, _)| c) {
            Ok(i) => self.balances[i].1,
            Err(_) => 1.0,
        }
    }

    /// Mutable balance for `core`, inserting the neutral 1.0 at its sorted
    /// position for first-time bidders.
    fn balance_mut(&mut self, core: u16) -> &mut f64 {
        let i = match self.balances.binary_search_by_key(&core, |&(c, _)| c) {
            Ok(i) => i,
            Err(i) => {
                self.balances.insert(i, (core, 1.0));
                i
            }
        };
        &mut self.balances[i].1
    }
}

impl PowerAllocator for MarketAllocator {
    fn allocate(
        &mut self,
        requests: &[PowerRequest],
        budget_mw: f64,
        _model: &PowerModel,
    ) -> Vec<PowerGrant> {
        // Weighted water-filling: power is divided proportionally to
        // currency balances, bids act as caps, and surplus from capped
        // bidders is re-divided among the still-unmet ones.
        let mut grants: Vec<PowerGrant> = requests
            .iter()
            .map(|r| PowerGrant::new(r.core, 0.0))
            .collect();
        let mut remaining = budget_mw.max(0.0);
        let mut active: Vec<usize> = (0..requests.len())
            .filter(|&i| requests[i].milliwatts > 0.0)
            .collect();
        for _round in 0..16 {
            if active.is_empty() || remaining <= 1e-9 {
                break;
            }
            let total_weight: f64 = active.iter().map(|&i| self.balance(requests[i].core)).sum();
            if total_weight <= 0.0 {
                break;
            }
            let pool = remaining;
            for &i in &active {
                let offer = pool * self.balance(requests[i].core) / total_weight;
                let want = requests[i].milliwatts - grants[i].milliwatts;
                let take = offer.min(want);
                grants[i].milliwatts += take;
                remaining -= take;
            }
            active.retain(|&i| requests[i].milliwatts - grants[i].milliwatts > 1e-9);
        }
        enforce_contract(&mut grants, requests, budget_mw);
        // Rebate unmet demand into balances; satisfied bidders decay back
        // towards the neutral balance of 1.0.
        for (g, r) in grants.iter().zip(requests) {
            let bid = if r.milliwatts.is_nan() {
                0.0
            } else {
                r.milliwatts.max(0.0)
            };
            let balance = self.balance_mut(r.core);
            if bid > 0.0 && g.milliwatts < bid {
                // An infinite bid is fully unmet by definition; dividing by
                // it would make the unmet fraction `∞/∞ = NaN` and poison
                // the balance for every future epoch.
                let unmet = if bid.is_finite() {
                    (bid - g.milliwatts) / bid
                } else {
                    1.0
                };
                *balance += MARKET_REBATE * unmet;
            } else {
                *balance = 1.0 + (*balance - 1.0) * 0.5;
            }
            *balance = balance.clamp(0.25, 8.0);
        }
        grants
    }

    fn name(&self) -> &'static str {
        "market"
    }

    fn reset(&mut self) {
        self.balances.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> PowerModel {
        PowerModel::default_45nm()
    }

    fn reqs(vals: &[f64]) -> Vec<PowerRequest> {
        vals.iter()
            .enumerate()
            .map(|(i, &v)| PowerRequest::new(i as u16, v))
            .collect()
    }

    fn all_allocators() -> Vec<Box<dyn PowerAllocator>> {
        AllocatorKind::ALL.iter().map(|k| k.build()).collect()
    }

    #[test]
    fn contract_holds_for_all_allocators() {
        let m = model();
        let requests = reqs(&[2_500.0, 100.0, 1_800.0, 900.0, 2_500.0]);
        for mut a in all_allocators() {
            for budget in [0.0, 500.0, 3_000.0, 10_000.0] {
                let grants = a.allocate(&requests, budget, &m);
                assert_eq!(grants.len(), requests.len(), "{}", a.name());
                let total: f64 = grants.iter().map(|g| g.milliwatts).sum();
                assert!(
                    total <= budget + 1e-6,
                    "{} exceeded budget: {total} > {budget}",
                    a.name()
                );
                for (g, r) in grants.iter().zip(&requests) {
                    assert_eq!(g.core, r.core, "{}", a.name());
                    assert!(g.milliwatts >= 0.0, "{}", a.name());
                    assert!(
                        g.milliwatts <= r.milliwatts + 1e-9,
                        "{} granted more than requested",
                        a.name()
                    );
                }
            }
        }
    }

    #[test]
    fn ample_budget_fully_satisfies_everyone() {
        let m = model();
        let requests = reqs(&[1_000.0, 2_000.0, 500.0]);
        for mut a in all_allocators() {
            let grants = a.allocate(&requests, 1e6, &m);
            let total: f64 = grants.iter().map(|g| g.milliwatts).sum();
            let asked: f64 = requests.iter().map(|r| r.milliwatts).sum();
            // DP grants quantised level powers, so allow a tolerance.
            assert!(
                total >= asked * 0.75,
                "{} under-served with ample budget: {total} vs {asked}",
                a.name()
            );
        }
    }

    #[test]
    fn greedy_serves_largest_first() {
        let m = model();
        let requests = reqs(&[500.0, 3_000.0, 1_000.0]);
        let grants = GreedyAllocator::new().allocate(&requests, 3_200.0, &m);
        assert!((grants[1].milliwatts - 3_000.0).abs() < 1e-9);
        assert!((grants[2].milliwatts - 200.0).abs() < 1e-9);
        assert!(grants[0].milliwatts < 1e-9);
    }

    #[test]
    fn fair_share_serves_smallest_fully() {
        let m = model();
        let requests = reqs(&[100.0, 5_000.0, 5_000.0]);
        let grants = FairShareAllocator::new().allocate(&requests, 3_100.0, &m);
        assert!((grants[0].milliwatts - 100.0).abs() < 1e-9);
        assert!((grants[1].milliwatts - 1_500.0).abs() < 1e-9);
        assert!((grants[2].milliwatts - 1_500.0).abs() < 1e-9);
    }

    #[test]
    fn pi_converges_towards_budget() {
        let m = model();
        let requests = reqs(&[2_000.0; 10]);
        let mut pi = PiAllocator::default();
        let mut total = 0.0;
        for _ in 0..50 {
            let grants = pi.allocate(&requests, 8_000.0, &m);
            total = grants.iter().map(|g| g.milliwatts).sum();
        }
        assert!(
            (total - 8_000.0).abs() / 8_000.0 < 0.05,
            "PI did not converge: {total}"
        );
    }

    #[test]
    fn pi_reset_restores_full_throttle() {
        let m = model();
        let requests = reqs(&[5_000.0; 8]);
        let mut pi = PiAllocator::default();
        for _ in 0..20 {
            pi.allocate(&requests, 1_000.0, &m);
        }
        assert!(pi.throttle() < 0.9);
        pi.reset();
        assert!((pi.throttle() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dp_grants_are_operating_points_or_zero() {
        let m = model();
        let requests = reqs(&[2_600.0, 2_600.0, 2_600.0, 400.0]);
        let grants = DpAllocator.allocate(&requests, 4_000.0, &m);
        let level_powers: Vec<f64> = m.table().iter_levels().map(|l| m.power_mw(l)).collect();
        for g in &grants {
            let is_point = g.milliwatts.abs() < 1e-9
                || level_powers.iter().any(|p| (p - g.milliwatts).abs() < 1.0);
            assert!(is_point, "grant {} is not an operating point", g.milliwatts);
        }
        let total: f64 = grants.iter().map(|g| g.milliwatts).sum();
        assert!(total <= 4_000.0 + 1e-6);
        assert!(total > 1_000.0, "DP left the budget unused: {total}");
    }

    #[test]
    fn dp_prefers_spreading_over_concentration() {
        let m = model();
        // Budget for roughly two mid-level cores; concave utility should
        // power at least two requesters rather than one at max.
        let requests = reqs(&[2_600.0, 2_600.0, 2_600.0]);
        let grants = DpAllocator.allocate(&requests, 2_400.0, &m);
        let powered = grants.iter().filter(|g| g.milliwatts > 1.0).count();
        assert!(powered >= 2, "DP concentrated power: {grants:?}");
    }

    #[test]
    fn market_rebates_unmet_bidders() {
        let m = model();
        let mut market = MarketAllocator::default();
        // Equal balances split 2000 mW evenly: core 0's 1000 mW bid is
        // fully met, core 1 is left 3000 mW short and accumulates currency,
        // growing its share in later epochs.
        let requests = reqs(&[1_000.0, 4_000.0]);
        let first = market.allocate(&requests, 2_000.0, &m)[1].milliwatts;
        assert!((first - 1_000.0).abs() < 1e-6, "first split: {first}");
        for _ in 0..10 {
            market.allocate(&requests, 2_000.0, &m);
        }
        assert!(market.balance(1) > 1.0, "balance {}", market.balance(1));
        let later = market.allocate(&requests, 2_000.0, &m)[1].milliwatts;
        assert!(
            later > first * 1.1,
            "rebates should raise the unmet bidder's share: {first} -> {later}"
        );
    }

    #[test]
    fn market_water_fills_caps_and_redistributes() {
        let m = model();
        let mut market = MarketAllocator::default();
        // Three equal balances over 3000 mW: the 200 mW bid is capped and
        // its surplus flows to the two big bidders.
        let grants = market.allocate(&reqs(&[200.0, 4_000.0, 4_000.0]), 3_000.0, &m);
        assert!((grants[0].milliwatts - 200.0).abs() < 1e-6);
        assert!((grants[1].milliwatts - 1_400.0).abs() < 1.0);
        assert!((grants[2].milliwatts - 1_400.0).abs() < 1.0);
    }

    #[test]
    fn market_reset_clears_balances() {
        let m = model();
        let mut market = MarketAllocator::default();
        market.allocate(&reqs(&[1_000.0, 4_000.0]), 1_000.0, &m);
        market.reset();
        assert_eq!(market.balance(0), 1.0);
    }

    #[test]
    fn zeroed_request_gets_nothing_from_every_allocator() {
        // The attack's key invariant: a request tampered to 0 mW yields a
        // 0 mW grant no matter the policy.
        let m = model();
        let requests = reqs(&[0.0, 2_000.0, 2_000.0]);
        for mut a in all_allocators() {
            let grants = a.allocate(&requests, 3_000.0, &m);
            assert!(
                grants[0].milliwatts < 1e-9,
                "{} granted power to a zeroed request",
                a.name()
            );
        }
    }

    #[test]
    fn empty_request_set_is_fine() {
        let m = model();
        for mut a in all_allocators() {
            assert!(a.allocate(&[], 1_000.0, &m).is_empty());
        }
    }

    /// Asserts the full allocator contract on a hostile request mix: one
    /// grant per request, each finite, non-negative, within the (finite
    /// part of the) request, total within budget.
    fn assert_contract_on(
        a: &mut dyn PowerAllocator,
        requests: &[PowerRequest],
        budget: f64,
        m: &PowerModel,
    ) {
        let grants = a.allocate(requests, budget, m);
        assert_eq!(grants.len(), requests.len(), "{}", a.name());
        let mut total = 0.0;
        for (g, r) in grants.iter().zip(requests) {
            assert_eq!(g.core, r.core, "{}", a.name());
            assert!(
                g.milliwatts.is_finite(),
                "{} produced a non-finite grant {} for request {}",
                a.name(),
                g.milliwatts,
                r.milliwatts
            );
            assert!(g.milliwatts >= 0.0, "{} negative grant", a.name());
            if r.milliwatts.is_finite() {
                assert!(
                    g.milliwatts <= r.milliwatts.max(0.0) + 1e-9,
                    "{} granted {} over request {}",
                    a.name(),
                    g.milliwatts,
                    r.milliwatts
                );
            }
            total += g.milliwatts;
        }
        assert!(
            total <= budget + 1e-6,
            "{} exceeded budget: {total} > {budget}",
            a.name()
        );
    }

    #[test]
    fn nan_request_poisons_nothing() {
        let m = model();
        let requests = reqs(&[f64::NAN, 1_000.0, 2_000.0]);
        for mut a in all_allocators() {
            assert_contract_on(a.as_mut(), &requests, 2_000.0, &m);
            let grants = a.allocate(&requests, 2_000.0, &m);
            assert!(
                grants[0].milliwatts < 1e-9,
                "{} granted power to a NaN request",
                a.name()
            );
            // The honest requesters still share the budget.
            let honest: f64 = grants[1].milliwatts + grants[2].milliwatts;
            assert!(
                honest > 1_000.0,
                "{} starved honest cores: {honest}",
                a.name()
            );
        }
    }

    #[test]
    fn negative_request_poisons_nothing() {
        let m = model();
        let requests = reqs(&[-500.0, f64::NEG_INFINITY, 1_500.0]);
        for mut a in all_allocators() {
            assert_contract_on(a.as_mut(), &requests, 2_000.0, &m);
            let grants = a.allocate(&requests, 2_000.0, &m);
            assert!(grants[0].milliwatts < 1e-9, "{}", a.name());
            assert!(grants[1].milliwatts < 1e-9, "{}", a.name());
            // DP quantises grants to DVFS operating points, so only require
            // the honest core to get the bulk of its request.
            assert!(
                grants[2].milliwatts > 1_000.0,
                "{} mis-served the honest core: {}",
                a.name(),
                grants[2].milliwatts
            );
        }
    }

    #[test]
    fn infinite_request_poisons_nothing() {
        // The historical failure mode: an ∞ request drove `total` to ∞ in
        // enforce_contract, whose rescale then multiplied every other grant
        // by `budget/∞ = 0` — or worse, `∞ × 0 = NaN` for the ∞ grant.
        let m = model();
        let requests = reqs(&[f64::INFINITY, 1_000.0, 1_000.0]);
        for mut a in all_allocators() {
            assert_contract_on(a.as_mut(), &requests, 2_500.0, &m);
        }
    }

    #[test]
    fn hostile_mix_respects_contract_at_every_budget() {
        let m = model();
        let requests = reqs(&[
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -1.0,
            0.0,
            1_800.0,
        ]);
        for mut a in all_allocators() {
            for budget in [0.0, 1.0, 900.0, 1e9] {
                assert_contract_on(a.as_mut(), &requests, budget, &m);
            }
        }
    }

    #[test]
    fn market_balances_survive_infinite_bids() {
        let m = model();
        let mut market = MarketAllocator::default();
        let requests = reqs(&[f64::INFINITY, 1_000.0]);
        for _ in 0..10 {
            market.allocate(&requests, 1_500.0, &m);
        }
        for core in [0u16, 1] {
            let balance = market.balance(core);
            assert!(
                balance.is_finite() && (0.25..=8.0).contains(&balance),
                "balance for core {core} poisoned: {balance}"
            );
        }
        // The market must still function for honest bidders afterwards.
        let grants = market.allocate(&reqs(&[500.0, 500.0]), 1_500.0, &m);
        assert!((grants[0].milliwatts - 500.0).abs() < 1e-6);
        assert!((grants[1].milliwatts - 500.0).abs() < 1e-6);
    }

    #[test]
    fn pi_controller_state_survives_hostile_epochs() {
        let m = model();
        let mut pi = PiAllocator::default();
        for _ in 0..5 {
            pi.allocate(&reqs(&[f64::INFINITY, f64::NAN]), 1_000.0, &m);
        }
        assert!(pi.throttle().is_finite());
        // After the hostile episode the controller still converges.
        let requests = reqs(&[2_000.0; 10]);
        let mut total = 0.0;
        for _ in 0..50 {
            let grants = pi.allocate(&requests, 8_000.0, &m);
            total = grants.iter().map(|g| g.milliwatts).sum();
        }
        assert!(
            (total - 8_000.0).abs() / 8_000.0 < 0.05,
            "PI did not recover from hostile inputs: {total}"
        );
    }
}
