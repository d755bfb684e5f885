//! Property tests: the exploration kernels — the legacy cloned-map
//! explorer and the one frontier driver over the resident arena and over
//! the out-of-core spill store — must be **bit-identical** on random
//! nets: same state sequence, same edge lists, same deadlock sets, and
//! the same exhaustion statistics under equal budgets, including budgets
//! that are cancelled or past their deadline before the first state.
//!
//! Driven by the deterministic `cpn-testkit` harness: failures print a
//! case seed, replayable via `CPN_TESTKIT_SEED=<seed>`.

use cpn_petri::{
    reachability_bounded_spilled, Bounded, Budget, CancelScope, PetriNet, ReachabilityGraph,
    Resource, SpillConfig, SpilledReachability, StateId,
};
use cpn_testkit::{check, prop_assert, prop_assert_eq, NetStrategy};

/// Random nets: 2–5 places, 1–5 uniquely-labeled transitions, up to
/// **three** tokens per place so multiset (non-safe) markings are
/// exercised, not just safe ones.
fn raw_net() -> NetStrategy {
    NetStrategy::new(5, 5, 1).max_tokens(3)
}

/// Asserts two reachability graphs are bit-identical: same state
/// numbering, same markings per state, same ordered edge lists.
fn assert_graphs_identical(
    a: &ReachabilityGraph,
    b: &ReachabilityGraph,
    what: &str,
) -> Result<(), cpn_testkit::PropFail> {
    prop_assert_eq!(a.state_count(), b.state_count(), "{}: state count", what);
    prop_assert_eq!(a.edge_count(), b.edge_count(), "{}: edge count", what);
    prop_assert_eq!(a.initial_state(), b.initial_state(), "{}: initial", what);
    for s in a.state_ids() {
        prop_assert_eq!(
            a.marking_slice(s),
            b.marking_slice(s),
            "{}: marking of {}",
            what,
            s
        );
        prop_assert_eq!(a.edges(s), b.edges(s), "{}: edges of {}", what, s);
    }
    Ok(())
}

fn explorers(
    net: &PetriNet<String>,
    budget: &Budget,
) -> Vec<(&'static str, Bounded<ReachabilityGraph>)> {
    vec![
        ("legacy", net.reachability_bounded_legacy(budget)),
        ("compiled", net.reachability_bounded(budget)),
    ]
}

/// Asserts a spilled graph equals a resident one: counts, token bound,
/// deadlocks, and every marking (decoded through the page cache) and
/// edge list.
fn assert_spilled_matches(
    sp: &mut SpilledReachability,
    rg: &ReachabilityGraph,
) -> Result<(), cpn_testkit::PropFail> {
    prop_assert_eq!(sp.state_count(), rg.state_count(), "state count");
    prop_assert_eq!(sp.edge_count(), rg.edge_count(), "edge count");
    prop_assert_eq!(sp.initial_state(), rg.initial_state(), "initial");
    prop_assert_eq!(sp.token_bound(), rg.token_bound(), "token bound");
    prop_assert_eq!(sp.deadlock_states(), rg.deadlock_states(), "deadlocks");
    let mut buf = Vec::new();
    for s in rg.state_ids() {
        let Ok(()) = sp.marking_into(s, &mut buf) else {
            prop_assert!(false, "spill read failed for {}", s);
            return Ok(());
        };
        prop_assert_eq!(buf.as_slice(), rg.marking_slice(s), "marking {}", s);
        prop_assert_eq!(sp.edges(s), rg.edges(s), "edges {}", s);
    }
    Ok(())
}

/// A spill config so small that every segment seals after 4 rows and no
/// payload is allowed to stay resident — maximal page traffic.
fn aggressive_spill() -> SpillConfig {
    SpillConfig {
        resident_payload_bytes: 0,
        segment_rows: 4,
        ..SpillConfig::default()
    }
}

#[test]
fn all_kernels_agree_on_complete_exploration() {
    check(
        "all_kernels_agree_on_complete_exploration",
        &raw_net(),
        |raw| {
            let net = raw.build_indexed();
            let budget = Budget::states(50_000);
            let results = explorers(&net, &budget);
            let (_, reference) = &results[0];
            let Bounded::Complete(ref_rg) = reference else {
                return Ok(()); // budget: skip pathological instances
            };
            for (what, result) in &results[1..] {
                let Bounded::Complete(rg) = result else {
                    prop_assert!(false, "{} exhausted where legacy completed", what);
                    return Ok(());
                };
                assert_graphs_identical(ref_rg, rg, what)?;
                prop_assert_eq!(
                    ref_rg.deadlock_states(),
                    rg.deadlock_states(),
                    "{}: deadlock set",
                    what
                );
                prop_assert_eq!(
                    ref_rg.token_bound(),
                    rg.token_bound(),
                    "{}: token bound",
                    what
                );
            }
            Ok(())
        },
    );
}

#[test]
fn all_kernels_agree_under_tight_budgets() {
    check("all_kernels_agree_under_tight_budgets", &raw_net(), |raw| {
        let net = raw.build_indexed();
        for budget in [
            Budget::states(0),
            Budget::states(1),
            Budget::states(3),
            Budget::new(100, 5),
            Budget::new(4, 100),
        ] {
            let results = explorers(&net, &budget);
            let (_, reference) = &results[0];
            let ref_info = reference.exhausted().copied();
            let ref_rg = reference.value();
            for (what, result) in &results[1..] {
                prop_assert_eq!(
                    result.exhausted().copied(),
                    ref_info,
                    "{}: exhaustion stats under {:?}",
                    what,
                    budget
                );
                assert_graphs_identical(ref_rg, result.value(), what)?;
            }
        }
        Ok(())
    });
}

#[test]
fn spill_explorer_matches_resident_kernel_exactly() {
    // Zero resident budget + 4-row segments turns every lookup into
    // page traffic, so the state budget is kept small: the point is
    // roundtrip fidelity under maximal thrash, not scale (scale is the
    // bench's job).
    let config = cpn_testkit::Config {
        cases: 32,
        ..cpn_testkit::Config::default()
    };
    cpn_testkit::check_with(
        "spill_explorer_matches_resident_kernel_exactly",
        &config,
        &raw_net(),
        |raw| {
            let net = raw.build_indexed();
            let compiled = net.compile();
            let m0 = net.initial_marking();
            for budget in [
                Budget::states(1_500),
                Budget::states(7),
                Budget::new(100, 9),
            ] {
                let resident = net.reachability_bounded(&budget);
                let spilled = reachability_bounded_spilled(
                    &compiled,
                    m0.as_slice(),
                    &budget,
                    &aggressive_spill(),
                );
                prop_assert_eq!(
                    spilled.exhausted().copied(),
                    resident.exhausted().copied(),
                    "exhaustion stats under {:?}",
                    budget
                );
                let ref_rg = resident.value();
                let mut sp = spilled.into_value();
                // Every row decodes back byte-identical through the page
                // cache (segments of 4 rows, zero resident budget, so
                // this thrashes page-in/page-out on purpose).
                assert_spilled_matches(&mut sp, ref_rg)?;
                if ref_rg.state_count() > 8 {
                    let stats = sp.spill_stats();
                    prop_assert!(
                        stats.page_outs > 0,
                        "zero-budget spill config never paged out ({} states)",
                        ref_rg.state_count()
                    );
                }
            }
            Ok(())
        },
    );
}

/// Runs every explorer under `budget` and asserts each stops exactly
/// where the legacy reference does: same stop statistics, same prefix.
fn assert_interrupted_alike(
    net: &PetriNet<String>,
    budget: &Budget,
) -> Result<(), cpn_testkit::PropFail> {
    let reference = net.reachability_bounded_legacy(budget);
    prop_assert!(!reference.is_complete(), "interrupted run completed");
    let compiled = net.reachability_bounded(budget);
    prop_assert_eq!(
        compiled.exhausted().copied(),
        reference.exhausted().copied(),
        "compiled stats"
    );
    assert_graphs_identical(reference.value(), compiled.value(), "compiled")?;
    let spilled = reachability_bounded_spilled(
        &net.compile(),
        net.initial_marking().as_slice(),
        budget,
        &aggressive_spill(),
    );
    prop_assert_eq!(
        spilled.exhausted().copied(),
        reference.exhausted().copied(),
        "spilled stats"
    );
    assert_spilled_matches(&mut spilled.into_value(), reference.value())?;
    Ok(())
}

#[test]
fn cancellation_mid_exploration_is_deterministic() {
    // A pre-cancelled token: every explorer observes the interrupt at
    // its first poll and must report the same one-state prefix and stop
    // statistics — the resident and the spill tier share the driver's
    // interrupt path, the legacy explorer is the reference.
    check(
        "cancellation_mid_exploration_is_deterministic",
        &raw_net(),
        |raw| {
            let net = raw.build_indexed();
            let scope = CancelScope::new();
            scope.cancel();
            let budget = Budget::states(50_000).with_cancel(scope.token());
            assert_interrupted_alike(&net, &budget)
        },
    );
}

#[test]
fn expired_deadline_stops_every_explorer_alike() {
    // An already-expired deadline on a 2^14-state workload: every
    // explorer must stop at its first poll with the same prefix.
    let net = cpn_testkit::sync_pipeline_net(14);
    let budget = Budget::states(1 << 20).with_deadline(std::time::Duration::ZERO);
    if let Err(fail) = assert_interrupted_alike(&net, &budget) {
        panic!("{fail:?}");
    }
}

#[test]
fn spill_io_failure_stops_with_store_resource() {
    // Two-row segments, nothing resident, and a spill directory that
    // does not exist: the first eviction fails. The run must say it was
    // cut short (unexpanded states would otherwise read as deadlocks)
    // and keep a sound prefix of the resident graph.
    let net = cpn_testkit::sync_pipeline_net(6);
    let config = SpillConfig {
        resident_payload_bytes: 0,
        segment_rows: 2,
        spill_dir: Some(std::env::temp_dir().join("cpn-spill-missing-dir/nested")),
    };
    let budget = Budget::default();
    let spilled = reachability_bounded_spilled(
        &net.compile(),
        net.initial_marking().as_slice(),
        &budget,
        &config,
    );
    assert_eq!(
        spilled.exhausted().map(|i| i.resource),
        Some(Resource::Store)
    );
    let full = net.reachability_bounded(&budget).into_value();
    let mut sp = spilled.into_value();
    assert!(sp.state_count() < full.state_count());
    let mut buf = Vec::new();
    for i in 0..sp.state_count() {
        let s = StateId::from_index(i);
        sp.marking_into(s, &mut buf).unwrap();
        assert_eq!(buf.as_slice(), full.marking_slice(s), "marking {s}");
        assert!(full.edges(s).starts_with(sp.edges(s)), "edges {s}");
    }
}

#[test]
fn deadlock_and_membership_queries_agree() {
    check("deadlock_and_membership_queries_agree", &raw_net(), |raw| {
        let net = raw.build_indexed();
        let Bounded::Complete(rg) = net.reachability_bounded(&Budget::states(50_000)) else {
            return Ok(());
        };
        // Every stored marking is found by the hash index, at its own id.
        for s in rg.state_ids() {
            prop_assert_eq!(rg.find_state(&rg.marking(s)), Some(s));
        }
        // Deadlock states are exactly the edge-free ones.
        let deadlocks = rg.deadlock_states();
        for s in rg.state_ids() {
            prop_assert_eq!(rg.edges(s).is_empty(), deadlocks.contains(&s));
        }
        Ok(())
    });
}
