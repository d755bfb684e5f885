//! The marking index is sized by the states an exploration finds, never
//! by its state cap: the same net explored under a cap far above its
//! state count and under no cap at all must build the same graph *and*
//! hold the same resident index. `sync_pipeline_net(16)` has 2^16
//! states, well past the size where a cap-driven table jump would show.

use cpn_petri::{
    reachability_bounded_spilled, Bounded, Budget, PetriNet, ReachabilityGraph, SpillConfig,
    StateId,
};
use cpn_testkit::workload::sync_pipeline_net;

const STAGES: usize = 16;
const STATES: usize = 1 << STAGES;

fn capped() -> Budget {
    Budget::states(4_000_000)
}

fn complete<T>(b: Bounded<T>, what: &str) -> T {
    b.complete()
        .unwrap_or_else(|| panic!("{what}: exploration exhausted"))
}

fn assert_same_graph(a: &ReachabilityGraph, b: &ReachabilityGraph, what: &str) {
    assert_eq!(a.state_count(), b.state_count(), "{what}: state count");
    assert_eq!(a.edge_count(), b.edge_count(), "{what}: edge count");
    for s in a.state_ids() {
        assert_eq!(
            a.marking_slice(s),
            b.marking_slice(s),
            "{what}: marking of {s}"
        );
        assert_eq!(a.edges(s), b.edges(s), "{what}: edges of {s}");
    }
}

#[test]
fn compiled_explorer_ignores_the_state_cap() {
    let net = sync_pipeline_net(STAGES);
    let capped = complete(net.reachability_bounded(&capped()), "capped");
    let uncapped = complete(net.reachability_bounded(&Budget::unlimited()), "uncapped");
    assert_eq!(capped.state_count(), STATES);
    assert_same_graph(&capped, &uncapped, "compiled");
    assert_eq!(
        capped.resident_marking_bytes(),
        uncapped.resident_marking_bytes(),
        "resident index must not depend on the cap"
    );
}

#[test]
fn stubborn_explorer_ignores_the_state_cap() {
    let net: PetriNet<String> = sync_pipeline_net(STAGES);
    // Watching every place forces every transition into each stubborn
    // set, so the reduced graph is the full 2^16-state one.
    let watched: Vec<_> = net.place_ids().collect();
    let capped = complete(
        net.reachability_stubborn_bounded(&capped(), &watched),
        "capped",
    );
    let uncapped = complete(
        net.reachability_stubborn_bounded(&Budget::unlimited(), &watched),
        "uncapped",
    );
    assert_eq!(capped.state_count(), STATES);
    assert_same_graph(&capped, &uncapped, "stubborn");
    assert_eq!(
        capped.resident_marking_bytes(),
        uncapped.resident_marking_bytes(),
        "resident index must not depend on the cap"
    );
}

#[test]
fn spill_explorer_ignores_the_state_cap() {
    let net = sync_pipeline_net(STAGES);
    let compiled = net.compile();
    let m0 = net.initial_marking();
    let config = SpillConfig::default();
    let mut capped = complete(
        reachability_bounded_spilled(&compiled, m0.as_slice(), &capped(), &config),
        "capped",
    );
    let mut uncapped = complete(
        reachability_bounded_spilled(&compiled, m0.as_slice(), &Budget::unlimited(), &config),
        "uncapped",
    );
    assert_eq!(capped.state_count(), STATES);
    assert_eq!(capped.state_count(), uncapped.state_count());
    assert_eq!(capped.edge_count(), uncapped.edge_count());
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for i in 0..capped.state_count() {
        let s = StateId::from_index(i);
        capped.marking_into(s, &mut a).expect("page-in");
        uncapped.marking_into(s, &mut b).expect("page-in");
        assert_eq!(a, b, "spill: marking of {s}");
        assert_eq!(capped.edges(s), uncapped.edges(s), "spill: edges of {s}");
    }
    assert_eq!(
        capped.resident_bytes(),
        uncapped.resident_bytes(),
        "resident index must not depend on the cap"
    );
}
