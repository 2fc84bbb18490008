//! Property-based verification of the allocator contract shared by all five
//! budgeting policies: grants are per-request bounded, budget-bounded and
//! non-negative — the invariants the false-data attack relies on.

use proptest::prelude::*;

use htpb_power::{
    audit_grant_contract, AllocatorKind, DpAllocator, FairShareAllocator, GreedyAllocator,
    MarketAllocator, PiAllocator, PowerAllocator, PowerModel, PowerRequest,
};

fn arb_requests() -> impl Strategy<Value = Vec<PowerRequest>> {
    proptest::collection::vec(0.0f64..6_000.0, 0..32).prop_map(|vals| {
        vals.into_iter()
            .enumerate()
            .map(|(i, v)| PowerRequest::new(i as u16, v))
            .collect()
    })
}

fn check_contract(
    allocator: &mut dyn PowerAllocator,
    requests: &[PowerRequest],
    budget: f64,
) -> Result<(), TestCaseError> {
    let model = PowerModel::default_45nm();
    // Run a few epochs so stateful controllers (PI) are also exercised
    // mid-transient.
    for _ in 0..5 {
        let grants = allocator.allocate(requests, budget, &model);
        prop_assert_eq!(grants.len(), requests.len(), "{}", allocator.name());
        let mut total = 0.0;
        for (g, r) in grants.iter().zip(requests) {
            prop_assert_eq!(g.core, r.core);
            prop_assert!(g.milliwatts >= 0.0, "{} negative grant", allocator.name());
            prop_assert!(
                g.milliwatts <= r.milliwatts + 1e-6,
                "{} granted {} for request {}",
                allocator.name(),
                g.milliwatts,
                r.milliwatts
            );
            total += g.milliwatts;
        }
        prop_assert!(
            total <= budget + 1e-6,
            "{} total {} over budget {}",
            allocator.name(),
            total,
            budget
        );
    }
    Ok(())
}

/// Monotonicity in budget for the two work-conserving policies: over the
/// same requests, budgets `b1 <= b2` give every core a grant at `b1` no
/// larger than its grant at `b2` (within 1e-9 relative slack).
fn check_monotone_in_budget(
    requests: &[PowerRequest],
    b1: f64,
    b2: f64,
) -> Result<(), TestCaseError> {
    let model = PowerModel::default_45nm();
    for kind in [AllocatorKind::Greedy, AllocatorKind::FairShare] {
        let low = kind.build().allocate(requests, b1, &model);
        let high = kind.build().allocate(requests, b2, &model);
        for (g1, g2) in low.iter().zip(&high) {
            prop_assert!(
                g1.milliwatts <= g2.milliwatts + 1e-9 * g2.milliwatts.max(1.0),
                "{}: core {} granted {} at budget {} but {} at budget {}",
                kind.name(),
                g1.core,
                g1.milliwatts,
                b1,
                g2.milliwatts,
                b2
            );
        }
    }
    Ok(())
}

/// One request per core, core `i` asking for `mws[i]` mW.
fn requests_of(mws: &[f64]) -> Vec<PowerRequest> {
    mws.iter()
        .enumerate()
        .map(|(i, &mw)| PowerRequest::new(i as u16, mw))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Raising the budget never lowers a greedy or fair-share grant, for
    /// 1–64 requesters and budgets up to twice the mean demand.
    #[test]
    fn grants_are_monotone_in_budget(
        mws in proptest::collection::vec(0.0f64..6_000.0, 1..65),
        lo_frac in 0.0f64..2.0,
        extra_frac in 0.0f64..1.0,
    ) {
        let scale = 3_000.0 * mws.len() as f64;
        let b1 = lo_frac * scale;
        check_monotone_in_budget(&requests_of(&mws), b1, b1 + extra_frac * scale)?;
    }

    #[test]
    fn greedy_contract(requests in arb_requests(), budget in 0.0f64..100_000.0) {
        check_contract(&mut GreedyAllocator::new(), &requests, budget)?;
    }

    #[test]
    fn fair_share_contract(requests in arb_requests(), budget in 0.0f64..100_000.0) {
        check_contract(&mut FairShareAllocator::new(), &requests, budget)?;
    }

    #[test]
    fn pi_contract(requests in arb_requests(), budget in 0.0f64..100_000.0) {
        check_contract(&mut PiAllocator::default(), &requests, budget)?;
    }

    #[test]
    fn dp_contract(requests in arb_requests(), budget in 0.0f64..100_000.0) {
        check_contract(&mut DpAllocator, &requests, budget)?;
    }

    #[test]
    fn market_contract(requests in arb_requests(), budget in 0.0f64..100_000.0) {
        check_contract(&mut MarketAllocator::default(), &requests, budget)?;
    }

    /// Monotonicity-in-request for the stateless policies: lowering one
    /// request never increases that requester's grant. This is the formal
    /// core of the attack: tampering a request downward can only hurt the
    /// victim.
    #[test]
    fn lowering_a_request_never_helps(
        requests in arb_requests().prop_filter("nonempty", |r| !r.is_empty()),
        victim_scale in 0.0f64..1.0,
        budget in 100.0f64..50_000.0,
    ) {
        let model = PowerModel::default_45nm();
        for mk in [
            || Box::new(GreedyAllocator::new()) as Box<dyn PowerAllocator>,
            || Box::new(FairShareAllocator::new()) as Box<dyn PowerAllocator>,
            || Box::new(DpAllocator) as Box<dyn PowerAllocator>,
            || Box::new(MarketAllocator::default()) as Box<dyn PowerAllocator>,
        ] {
            let mut clean_alloc = mk();
            let clean = clean_alloc.allocate(&requests, budget, &model);
            let mut tampered_reqs = requests.clone();
            tampered_reqs[0].milliwatts *= victim_scale;
            let mut tampered_alloc = mk();
            let tampered = tampered_alloc.allocate(&tampered_reqs, budget, &model);
            prop_assert!(
                tampered[0].milliwatts <= clean[0].milliwatts + 1e-6,
                "{}: victim grant rose from {} to {} after tampering",
                clean_alloc.name(),
                clean[0].milliwatts,
                tampered[0].milliwatts
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The contract at chip scale, for every policy over five epochs:
    /// 64–1024 requesters, budgets from zero to twice the mean demand.
    /// `GlobalManager::run_epoch` audits grants only in debug builds, so
    /// this is the release-mode check. Greedy and fair-share must also be
    /// work-conserving: they grant `min(Σ requests, budget)`, and monotone
    /// in the budget.
    #[test]
    #[ignore = "release-scale allocator sweep; CI runs it with --release -- --ignored"]
    fn contract_holds_at_release_scale(
        mws in proptest::collection::vec(0.0f64..6_000.0, 64..1025),
        budget_frac in 0.0f64..2.0,
        extra_frac in 0.0f64..1.0,
    ) {
        let requests = requests_of(&mws);
        let demand: f64 = mws.iter().sum();
        let budget = budget_frac * 3_000.0 * mws.len() as f64;
        check_monotone_in_budget(
            &requests,
            budget,
            budget + extra_frac * 3_000.0 * mws.len() as f64,
        )?;
        let model = PowerModel::default_45nm();
        for kind in AllocatorKind::ALL {
            let mut allocator = kind.build();
            for epoch in 0..5 {
                let grants = allocator.allocate(&requests, budget, &model);
                if let Some(violation) = audit_grant_contract(&grants, &requests, budget) {
                    return Err(TestCaseError::fail(format!(
                        "{} epoch {epoch}: {violation}",
                        kind.name()
                    )));
                }
                if matches!(kind, AllocatorKind::Greedy | AllocatorKind::FairShare) {
                    let granted: f64 = grants.iter().map(|g| g.milliwatts).sum();
                    let expected = demand.min(budget);
                    prop_assert!(
                        (granted - expected).abs() <= 1e-9 * expected.max(1.0),
                        "{} epoch {epoch}: granted {granted}, expected {expected}",
                        kind.name()
                    );
                }
            }
        }
    }
}
