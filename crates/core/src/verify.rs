//! Receptiveness verification (Section 5.3 of the paper).
//!
//! A system must be *receptive* in its inputs: whenever the environment
//! offers an input, the system must be ready to synchronize. The
//! rendez-vous composition itself never mis-fires — but if two modules
//! are synthesized **individually** and then abutted, a module may emit
//! an output its peer cannot yet accept. Proposition 5.5 characterizes
//! the failure on the composed net: a reachable marking in which the
//! *producer's* preset part of a fused transition is fully marked while
//! the *consumer's* part is not.
//!
//! Two checks are provided:
//!
//! * [`check_receptiveness`] — exhaustive, on the reachability graph of
//!   the composition (exact for bounded nets);
//! * [`check_receptiveness_structural_mg`] — the polynomial structural
//!   check of Theorem 5.7 for live-safe strongly-connected **marked
//!   graphs**, via the marked-graph state equation reduced to difference
//!   constraints (Bellman–Ford, no state space).

use crate::parallel::{parallel_tracked_common, Composition};
use cpn_petri::graph::{solve_difference_constraints, DiffConstraint};
use cpn_petri::{
    AlphaSet, Budget, Label, Marking, Meter, PetriError, PetriNet, PlaceId, ReachabilityOptions,
    Sym, Verdict,
};
use std::collections::BTreeSet;
use std::fmt;

/// Which operand acts as the producer (output side) of a failing
/// synchronization.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// The left operand produces the output.
    Left,
    /// The right operand produces the output.
    Right,
}

impl fmt::Display for Side {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Side::Left => "left",
            Side::Right => "right",
        })
    }
}

/// A receptiveness violation: the producer can commit to `label` while
/// the consumer is not ready.
#[derive(Clone, Debug)]
pub struct ReceptivenessFailure<L: Label> {
    /// The synchronized action that can mis-fire.
    pub label: L,
    /// Which operand is the producer.
    pub producer: Side,
    /// A witness marking of the composed net (available from the
    /// exhaustive check; the structural check proves existence without
    /// materializing one).
    pub witness: Option<Marking>,
}

/// Result of a receptiveness check.
#[derive(Clone, Debug)]
pub struct ReceptivenessReport<L: Label> {
    /// All failures found (empty ⇒ the composition is receptive,
    /// Proposition 5.6).
    pub failures: Vec<ReceptivenessFailure<L>>,
}

impl<L: Label> ReceptivenessReport<L> {
    /// Whether the composition is receptive (no failure possible).
    pub fn is_receptive(&self) -> bool {
        self.failures.is_empty()
    }
}

/// One checkable obligation: a producer-side transition (its preset part
/// in composed-net ids) against **all** consumer-side alternatives for
/// the same label. With several equally-labeled transitions on each side,
/// a failure exists only when the producer is committed and *no*
/// consumer alternative is ready — checking fused pairs individually
/// would flag spurious cross-pairings.
///
/// Obligations identify actions by their composed-net [`Sym`]; the label
/// is resolved only when a failure is reported.
struct Obligation {
    sym: Sym,
    producer: Side,
    producer_pre: BTreeSet<PlaceId>,
    consumer_pres: Vec<BTreeSet<PlaceId>>,
}

impl Obligation {
    fn fail<L: Label>(
        &self,
        comp: &Composition<L>,
        witness: Option<Marking>,
    ) -> ReceptivenessFailure<L> {
        ReceptivenessFailure {
            label: comp.net.resolve(self.sym).clone(),
            producer: self.producer,
            witness,
        }
    }
}

/// Interns an output-label set into the composed net's symbol space;
/// labels the composition never saw cannot mis-fire and are dropped.
fn output_syms<L: Label>(comp: &Composition<L>, outputs: &BTreeSet<L>) -> AlphaSet {
    outputs.iter().filter_map(|l| comp.net.sym_of(l)).collect()
}

fn obligations<L: Label>(
    comp: &Composition<L>,
    left_outputs: &BTreeSet<L>,
    right_outputs: &BTreeSet<L>,
) -> Vec<Obligation> {
    let left_out = output_syms(comp, left_outputs);
    let right_out = output_syms(comp, right_outputs);
    // Group fused transitions by (symbol, producer preset part).
    let mut out: Vec<Obligation> = Vec::new();
    for sync in &comp.sync_transitions {
        let (side, ppre, cpre) = if left_out.contains(sync.sym) {
            (Side::Left, &sync.left_preset, &sync.right_preset)
        } else if right_out.contains(sync.sym) {
            (Side::Right, &sync.right_preset, &sync.left_preset)
        } else {
            continue;
        };
        match out
            .iter_mut()
            .find(|o| o.sym == sync.sym && o.producer == side && o.producer_pre == *ppre)
        {
            Some(o) => o.consumer_pres.push(cpre.clone()),
            None => out.push(Obligation {
                sym: sync.sym,
                producer: side,
                producer_pre: ppre.clone(),
                consumer_pres: vec![cpre.clone()],
            }),
        }
    }
    out
}

/// Exhaustive receptiveness check (Propositions 5.5/5.6).
///
/// Composes `n1 ‖ n2` on their common alphabet and searches the
/// reachability graph for a marking in which, for some fused transition
/// whose label is an output of one side (`left_outputs` /
/// `right_outputs`), the producer's preset part is fully marked but the
/// consumer's is not.
///
/// Labels that are outputs of neither side (pure synchronization between
/// two inputs) are not checked — no side can autonomously commit to them.
///
/// # Errors
///
/// Returns the reachability errors of the composed net (state budget).
///
/// # Example
///
/// ```
/// use cpn_core::check_receptiveness;
/// use cpn_petri::{PetriNet, ReachabilityOptions};
///
/// # fn main() -> Result<(), cpn_petri::PetriError> {
/// // A producer that can push `req` twice against a strict alternator.
/// let mut fast: PetriNet<&str> = PetriNet::new();
/// let a0 = fast.add_place("a0");
/// let a1 = fast.add_place("a1");
/// let a2 = fast.add_place("a2");
/// fast.add_transition([a0], "req", [a1])?;
/// fast.add_transition([a1], "req", [a2])?;
/// fast.add_transition([a2], "ack", [a0])?;
/// fast.set_initial(a0, 1);
///
/// let mut strict: PetriNet<&str> = PetriNet::new();
/// let b0 = strict.add_place("b0");
/// let b1 = strict.add_place("b1");
/// strict.add_transition([b0], "req", [b1])?;
/// strict.add_transition([b1], "ack", [b0])?;
/// strict.set_initial(b0, 1);
///
/// let report = check_receptiveness(
///     &fast, &strict, &["req"].into(), &["ack"].into(),
///     &ReachabilityOptions::default(),
/// )?;
/// assert!(!report.is_receptive()); // the second req finds no listener
/// # Ok(())
/// # }
/// ```
pub fn check_receptiveness<L: Label>(
    n1: &PetriNet<L>,
    n2: &PetriNet<L>,
    left_outputs: &BTreeSet<L>,
    right_outputs: &BTreeSet<L>,
    options: &ReachabilityOptions,
) -> Result<ReceptivenessReport<L>, PetriError> {
    let comp = parallel_tracked_common(n1, n2)?;
    check_receptiveness_composed(&comp, left_outputs, right_outputs, options)
}

/// The exhaustive check on an already-built tracked composition.
///
/// # Errors
///
/// Returns the reachability errors of the composed net (state budget).
pub fn check_receptiveness_composed<L: Label>(
    comp: &Composition<L>,
    left_outputs: &BTreeSet<L>,
    right_outputs: &BTreeSet<L>,
    options: &ReachabilityOptions,
) -> Result<ReceptivenessReport<L>, PetriError> {
    match check_receptiveness_composed_bounded(
        comp,
        left_outputs,
        right_outputs,
        &Budget::states(options.max_states),
    ) {
        Verdict::Holds => Ok(ReceptivenessReport {
            failures: Vec::new(),
        }),
        Verdict::Fails(report) => Ok(report),
        Verdict::Unknown(_) => Err(PetriError::StateBudgetExceeded {
            budget: options.max_states,
        }),
    }
}

/// Budgeted exhaustive receptiveness check (Propositions 5.5/5.6),
/// degrading gracefully.
///
/// Explores the composition's reachability graph under `budget` and
/// returns a tri-state [`Verdict`]:
///
/// * `Fails(report)` — a violation was found; witnesses live on the
///   *explored prefix* of the state space, so they are definite even
///   when exploration was cut short.
/// * `Holds` — the full state space was explored and no violation
///   exists.
/// * `Unknown(stats)` — the budget ran out with no violation on the
///   explored prefix; a larger budget could answer either way.
///
/// # Errors
///
/// Propagates [`PetriError`] from composing the operands (impossible for
/// well-formed nets).
pub fn check_receptiveness_bounded<L: Label>(
    n1: &PetriNet<L>,
    n2: &PetriNet<L>,
    left_outputs: &BTreeSet<L>,
    right_outputs: &BTreeSet<L>,
    budget: &Budget,
) -> Result<Verdict<ReceptivenessReport<L>>, PetriError> {
    let comp = parallel_tracked_common(n1, n2)?;
    Ok(check_receptiveness_composed_bounded(
        &comp,
        left_outputs,
        right_outputs,
        budget,
    ))
}

/// The budgeted exhaustive check on an already-built tracked
/// composition; see [`check_receptiveness_bounded`].
pub fn check_receptiveness_composed_bounded<L: Label>(
    comp: &Composition<L>,
    left_outputs: &BTreeSet<L>,
    right_outputs: &BTreeSet<L>,
    budget: &Budget,
) -> Verdict<ReceptivenessReport<L>> {
    let obs = obligations(comp, left_outputs, right_outputs);
    let built = comp.net.reachability_bounded(budget);
    scan_obligations(comp, &obs, built)
}

/// Stubborn-set variant of [`check_receptiveness_bounded`]: same
/// tri-state verdict, typically a fraction of the states.
///
/// The composition is explored with partial-order reduction
/// ([`PetriNet::reachability_stubborn_bounded`]), watching exactly the
/// places the obligations read (every producer and consumer preset).
/// Every transition touching a watched place is forced into each
/// stubborn set, so the reduced graph reaches the same set of watched
/// valuations as the full graph — `Holds`/`Fails` answers and the
/// failing label set agree with the exhaustive check exactly. Witness
/// markings are genuine reachable failure states but may differ from the
/// full explorer's, and `Unknown` budgets are not comparable
/// state-for-state between the two explorers.
///
/// # Errors
///
/// Propagates [`PetriError`] from composing the operands (impossible for
/// well-formed nets).
pub fn check_receptiveness_stubborn_bounded<L: Label>(
    n1: &PetriNet<L>,
    n2: &PetriNet<L>,
    left_outputs: &BTreeSet<L>,
    right_outputs: &BTreeSet<L>,
    budget: &Budget,
) -> Result<Verdict<ReceptivenessReport<L>>, PetriError> {
    let comp = parallel_tracked_common(n1, n2)?;
    Ok(check_receptiveness_composed_stubborn_bounded(
        &comp,
        left_outputs,
        right_outputs,
        budget,
    ))
}

/// The stubborn-set check on an already-built tracked composition; see
/// [`check_receptiveness_stubborn_bounded`].
pub fn check_receptiveness_composed_stubborn_bounded<L: Label>(
    comp: &Composition<L>,
    left_outputs: &BTreeSet<L>,
    right_outputs: &BTreeSet<L>,
    budget: &Budget,
) -> Verdict<ReceptivenessReport<L>> {
    let obs = obligations(comp, left_outputs, right_outputs);
    let mut watched: BTreeSet<PlaceId> = BTreeSet::new();
    for ob in &obs {
        watched.extend(ob.producer_pre.iter().copied());
        for cpre in &ob.consumer_pres {
            watched.extend(cpre.iter().copied());
        }
    }
    let watched: Vec<PlaceId> = watched.into_iter().collect();
    let built = comp.net.reachability_stubborn_bounded(budget, &watched);
    scan_obligations(comp, &obs, built)
}

/// Place indices of a preset, for probing raw marking rows.
fn preset_indices(pre: &BTreeSet<PlaceId>) -> Vec<usize> {
    pre.iter().map(|p| p.index()).collect()
}

/// Shared failure scan: walks the explored markings once in BFS order,
/// records the first witness of each obligation, stops as soon as every
/// obligation has one, and folds the exploration outcome into a
/// [`Verdict`]. Failures keep obligation order.
fn scan_obligations<L: Label>(
    comp: &Composition<L>,
    obs: &[Obligation],
    built: cpn_petri::Bounded<cpn_petri::ReachabilityGraph>,
) -> Verdict<ReceptivenessReport<L>> {
    let exhausted = built.exhausted().copied();
    let rg = built.value();
    let probes: Vec<(Vec<usize>, Vec<Vec<usize>>)> = obs
        .iter()
        .map(|ob| {
            let consumers = ob.consumer_pres.iter().map(preset_indices).collect();
            (preset_indices(&ob.producer_pre), consumers)
        })
        .collect();
    let mut witnesses = vec![None; obs.len()];
    let mut open = obs.len();
    for s in rg.state_ids() {
        if open == 0 {
            break;
        }
        // Probe the raw arena row; a `Marking` is materialized only for
        // the witnesses themselves.
        let m = rg.marking_slice(s);
        let marked = |pre: &[usize]| pre.iter().all(|&p| m[p] > 0);
        for (witness, (producer, consumers)) in witnesses.iter_mut().zip(&probes) {
            if witness.is_none() && marked(producer) && !consumers.iter().any(|c| marked(c)) {
                *witness = Some(s);
                open -= 1;
            }
        }
    }
    let failures: Vec<_> = obs
        .iter()
        .zip(witnesses)
        .filter_map(|(ob, w)| w.map(|s| ob.fail(comp, Some(rg.marking(s)))))
        .collect();
    if !failures.is_empty() {
        Verdict::Fails(ReceptivenessReport { failures })
    } else {
        match exhausted {
            None => Verdict::Holds,
            Some(info) => Verdict::Unknown(info),
        }
    }
}

/// Structural receptiveness check for **marked graphs** (Theorem 5.7):
/// polynomial in the net size, no state-space construction.
///
/// The composed net must be a marked graph (every place with exactly one
/// producer and one consumer). For live strongly-connected marked graphs
/// the state equation `M = M0 + C·σ, M ≥ 0` characterizes reachability
/// exactly, so "producer part markable while a consumer place is empty"
/// becomes a system of difference constraints over firing counts, decided
/// by Bellman–Ford:
///
/// * for every place `p`: `σ(cons(p)) − σ(prod(p)) ≤ M0(p)`  (`M(p) ≥ 0`)
/// * for every producer-preset place `p`:
///   `σ(cons(p)) − σ(prod(p)) ≤ M0(p) − 1`  (`M(p) ≥ 1`)
/// * for the probed consumer place `p₀`:
///   `σ(prod(p₀)) − σ(cons(p₀)) ≤ −M0(p₀)`  (`M(p₀) = 0`)
///
/// On non-live compositions the check is conservative (it may report a
/// failure that liveness would mask); the paper's Proposition 5.6 reads
/// failures the same way — "a failure is guaranteed to be *possible*".
///
/// # Errors
///
/// * [`PetriError::NotMarkedGraph`] if the composed net is not a marked
///   graph.
pub fn check_receptiveness_structural_mg<L: Label>(
    n1: &PetriNet<L>,
    n2: &PetriNet<L>,
    left_outputs: &BTreeSet<L>,
    right_outputs: &BTreeSet<L>,
) -> Result<ReceptivenessReport<L>, PetriError> {
    let comp = parallel_tracked_common(n1, n2)?;
    check_receptiveness_structural_mg_composed(&comp, left_outputs, right_outputs)
}

/// The structural check on an already-built tracked composition.
///
/// # Errors
///
/// * [`PetriError::NotMarkedGraph`] if the composed net is not a marked
///   graph.
pub fn check_receptiveness_structural_mg_composed<L: Label>(
    comp: &Composition<L>,
    left_outputs: &BTreeSet<L>,
    right_outputs: &BTreeSet<L>,
) -> Result<ReceptivenessReport<L>, PetriError> {
    let net = &comp.net;
    let flows = net.marked_graph_flows()?;
    let m0 = net.initial_marking();
    let n_vars = net.transition_count();

    // Base constraints: M(p) ≥ 0 for every place.
    let base: Vec<DiffConstraint> = flows
        .iter()
        .enumerate()
        .map(|(p, &(prod, cons))| DiffConstraint {
            a: cons.index(),
            b: prod.index(),
            w: i64::from(m0.as_slice()[p]),
        })
        .collect();

    let mut failures = Vec::new();
    for ob in obligations(comp, left_outputs, right_outputs) {
        // A failure marking must starve *every* consumer alternative:
        // pick one empty place per consumer preset (places the producer
        // needs marked are excluded — a consumer whose preset lies inside
        // the producer's can never be unready while the producer is).
        let choice_sets: Vec<Vec<PlaceId>> = ob
            .consumer_pres
            .iter()
            .map(|cpre| {
                cpre.iter()
                    .copied()
                    .filter(|p| !ob.producer_pre.contains(p))
                    .collect::<Vec<_>>()
            })
            .collect();
        if choice_sets.iter().any(Vec::is_empty) {
            // Some consumer is ready whenever the producer is: receptive.
            continue;
        }
        let combos: usize = choice_sets.iter().map(Vec::len).product();
        if combos > 4096 {
            return Err(PetriError::Precondition(format!(
                "receptiveness obligation for {} needs {combos} starvation \
                 combinations; beyond the structural check's budget",
                comp.net.resolve(ob.sym)
            )));
        }
        let mut found = false;
        let mut pick = vec![0usize; choice_sets.len()];
        'combos: loop {
            let mut cs = base.clone();
            for &p in &ob.producer_pre {
                let (prod, cons) = flows[p.index()];
                cs.push(DiffConstraint {
                    a: cons.index(),
                    b: prod.index(),
                    w: i64::from(m0.tokens(p)) - 1,
                });
            }
            for (ci, &k) in pick.iter().enumerate() {
                let p0 = choice_sets[ci][k];
                let (prod0, cons0) = flows[p0.index()];
                cs.push(DiffConstraint {
                    a: prod0.index(),
                    b: cons0.index(),
                    w: -i64::from(m0.tokens(p0)),
                });
            }
            if solve_difference_constraints(n_vars, &cs).is_some() {
                found = true;
                break 'combos;
            }
            // Next combination.
            let mut i = 0;
            loop {
                if i == pick.len() {
                    break 'combos;
                }
                pick[i] += 1;
                if pick[i] < choice_sets[i].len() {
                    break;
                }
                pick[i] = 0;
                i += 1;
            }
        }
        if found {
            failures.push(ob.fail(comp, None));
        }
    }
    Ok(ReceptivenessReport { failures })
}

/// Budgeted structural receptiveness check (Theorem 5.7), degrading
/// gracefully.
///
/// Where [`check_receptiveness_structural_mg`] hard-errors when an
/// obligation needs too many starvation combinations, this variant
/// meters each difference-constraint solve against `budget.max_states`
/// and answers `Unknown(stats)` when the budget runs out. Failures found
/// before exhaustion are definite.
///
/// # Errors
///
/// [`PetriError::NotMarkedGraph`] (wrapped in
/// [`CoreError`](crate::CoreError)) if the composition is not a marked
/// graph — that is a precondition violation, not a budget problem.
pub fn check_receptiveness_structural_mg_bounded<L: Label>(
    n1: &PetriNet<L>,
    n2: &PetriNet<L>,
    left_outputs: &BTreeSet<L>,
    right_outputs: &BTreeSet<L>,
    budget: &Budget,
) -> Result<Verdict<ReceptivenessReport<L>>, crate::CoreError> {
    let comp = parallel_tracked_common(n1, n2).map_err(crate::CoreError::Net)?;
    check_receptiveness_structural_mg_composed_bounded(&comp, left_outputs, right_outputs, budget)
}

/// The budgeted structural check on an already-built tracked
/// composition; see [`check_receptiveness_structural_mg_bounded`].
///
/// # Errors
///
/// [`PetriError::NotMarkedGraph`] wrapped in
/// [`CoreError`](crate::CoreError).
pub fn check_receptiveness_structural_mg_composed_bounded<L: Label>(
    comp: &Composition<L>,
    left_outputs: &BTreeSet<L>,
    right_outputs: &BTreeSet<L>,
    budget: &Budget,
) -> Result<Verdict<ReceptivenessReport<L>>, crate::CoreError> {
    let net = &comp.net;
    let flows = net.marked_graph_flows()?;
    let m0 = net.initial_marking();
    let n_vars = net.transition_count();
    let mut meter = Meter::new(budget);

    let base: Vec<DiffConstraint> = flows
        .iter()
        .enumerate()
        .map(|(p, &(prod, cons))| DiffConstraint {
            a: cons.index(),
            b: prod.index(),
            w: i64::from(m0.as_slice()[p]),
        })
        .collect();

    let mut failures = Vec::new();
    'obligations: for ob in obligations(comp, left_outputs, right_outputs) {
        let choice_sets: Vec<Vec<PlaceId>> = ob
            .consumer_pres
            .iter()
            .map(|cpre| {
                cpre.iter()
                    .copied()
                    .filter(|p| !ob.producer_pre.contains(p))
                    .collect::<Vec<_>>()
            })
            .collect();
        if choice_sets.iter().any(Vec::is_empty) {
            continue;
        }
        let mut found = false;
        let mut pick = vec![0usize; choice_sets.len()];
        'combos: loop {
            // Each combination costs one difference-constraint solve.
            if !meter.take_state() {
                break 'obligations;
            }
            let mut cs = base.clone();
            for &p in &ob.producer_pre {
                let (prod, cons) = flows[p.index()];
                cs.push(DiffConstraint {
                    a: cons.index(),
                    b: prod.index(),
                    w: i64::from(m0.tokens(p)) - 1,
                });
            }
            for (ci, &k) in pick.iter().enumerate() {
                let p0 = choice_sets[ci][k];
                let (prod0, cons0) = flows[p0.index()];
                cs.push(DiffConstraint {
                    a: prod0.index(),
                    b: cons0.index(),
                    w: -i64::from(m0.tokens(p0)),
                });
            }
            if solve_difference_constraints(n_vars, &cs).is_some() {
                found = true;
                break 'combos;
            }
            let mut i = 0;
            loop {
                if i == pick.len() {
                    break 'combos;
                }
                pick[i] += 1;
                if pick[i] < choice_sets[i].len() {
                    break;
                }
                pick[i] = 0;
                i += 1;
            }
        }
        if found {
            failures.push(ob.fail(comp, None));
        }
    }

    Ok(if !failures.is_empty() {
        Verdict::Fails(ReceptivenessReport { failures })
    } else {
        match meter.report() {
            None => Verdict::Holds,
            Some(info) => Verdict::Unknown(info),
        }
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    /// A well-behaved handshake: producer emits `req`, waits for `ack`;
    /// consumer waits for `req`, emits `ack`. Receptive by construction.
    fn handshake() -> (PetriNet<&'static str>, PetriNet<&'static str>) {
        let mut prod: PetriNet<&str> = PetriNet::new();
        let a0 = prod.add_place("a0");
        let a1 = prod.add_place("a1");
        prod.add_transition([a0], "req", [a1]).unwrap();
        prod.add_transition([a1], "ack", [a0]).unwrap();
        prod.set_initial(a0, 1);

        let mut cons: PetriNet<&str> = PetriNet::new();
        let b0 = cons.add_place("b0");
        let b1 = cons.add_place("b1");
        cons.add_transition([b0], "req", [b1]).unwrap();
        cons.add_transition([b1], "ack", [b0]).unwrap();
        cons.set_initial(b0, 1);
        (prod, cons)
    }

    /// A broken pair: the producer can emit `req` twice before any `ack`,
    /// but the consumer insists on strict alternation.
    fn broken() -> (PetriNet<&'static str>, PetriNet<&'static str>) {
        let mut prod: PetriNet<&str> = PetriNet::new();
        // (req.req.ack)* — producer double-fires.
        let a0 = prod.add_place("a0");
        let a1 = prod.add_place("a1");
        let a2 = prod.add_place("a2");
        prod.add_transition([a0], "req", [a1]).unwrap();
        prod.add_transition([a1], "req", [a2]).unwrap();
        prod.add_transition([a2], "ack", [a0]).unwrap();
        prod.set_initial(a0, 1);

        let mut cons: PetriNet<&str> = PetriNet::new();
        let b0 = cons.add_place("b0");
        let b1 = cons.add_place("b1");
        cons.add_transition([b0], "req", [b1]).unwrap();
        cons.add_transition([b1], "ack", [b0]).unwrap();
        cons.set_initial(b0, 1);
        (prod, cons)
    }

    #[test]
    fn receptive_handshake_passes_exhaustive() {
        let (p, c) = handshake();
        let report = check_receptiveness(
            &p,
            &c,
            &["req"].into(),
            &["ack"].into(),
            &ReachabilityOptions::default(),
        )
        .unwrap();
        assert!(report.is_receptive(), "{:?}", report.failures);
    }

    #[test]
    fn broken_pair_fails_exhaustive() {
        let (p, c) = broken();
        let report = check_receptiveness(
            &p,
            &c,
            &["req"].into(),
            &["ack"].into(),
            &ReachabilityOptions::default(),
        )
        .unwrap();
        assert!(!report.is_receptive());
        // The producer's early second `req` is the primary failure; the
        // consumer's `ack` offered to an unready producer is also found.
        let req_failure = report
            .failures
            .iter()
            .find(|f| f.label == "req")
            .expect("req failure reported");
        assert_eq!(req_failure.producer, Side::Left);
        assert!(req_failure.witness.is_some());
    }

    #[test]
    fn scan_reports_first_bfs_witness_per_obligation() {
        let (p, c) = broken();
        let comp = parallel_tracked_common(&p, &c).unwrap();
        let (louts, routs) = (["req"].into(), ["ack"].into());
        let budget = Budget::unlimited();
        let Verdict::Fails(report) =
            check_receptiveness_composed_bounded(&comp, &louts, &routs, &budget)
        else {
            panic!("broken pair must fail");
        };
        // Reference: one full walk of the graph per obligation.
        let rg = comp.net.reachability_bounded(&budget).complete().unwrap();
        let ready = |m: &[u32], pre: &BTreeSet<PlaceId>| pre.iter().all(|q| m[q.index()] > 0);
        let expected: Vec<_> = obligations(&comp, &louts, &routs)
            .iter()
            .filter_map(|ob| {
                rg.state_ids()
                    .find(|&s| {
                        let m = rg.marking_slice(s);
                        ready(m, &ob.producer_pre)
                            && !ob.consumer_pres.iter().any(|cp| ready(m, cp))
                    })
                    .map(|s| (*comp.net.resolve(ob.sym), ob.producer, rg.marking(s)))
            })
            .collect();
        let got: Vec<_> = report
            .failures
            .into_iter()
            .map(|f| (f.label, f.producer, f.witness.unwrap()))
            .collect();
        assert_eq!(got.len(), 2, "req and ack both mis-fire");
        assert_eq!(got, expected);
    }

    #[test]
    fn receptive_handshake_passes_structural() {
        let (p, c) = handshake();
        let report =
            check_receptiveness_structural_mg(&p, &c, &["req"].into(), &["ack"].into()).unwrap();
        assert!(report.is_receptive(), "{:?}", report.failures);
    }

    /// A marked-graph mismatch: the consumer starts half a handshake
    /// ahead (expects `ack` before any `req`), so the producer can offer
    /// `req` when the consumer is not ready. Unlike [`broken`], the
    /// composition stays a marked graph, so the structural check applies.
    fn broken_mg() -> (PetriNet<&'static str>, PetriNet<&'static str>) {
        let mut prod: PetriNet<&str> = PetriNet::new();
        let a0 = prod.add_place("a0");
        let a1 = prod.add_place("a1");
        prod.add_transition([a0], "req", [a1]).unwrap();
        prod.add_transition([a1], "ack", [a0]).unwrap();
        prod.set_initial(a0, 1);

        let mut cons: PetriNet<&str> = PetriNet::new();
        let b0 = cons.add_place("b0");
        let b1 = cons.add_place("b1");
        cons.add_transition([b0], "req", [b1]).unwrap();
        cons.add_transition([b1], "ack", [b0]).unwrap();
        cons.set_initial(b1, 1); // phase offset
        (prod, cons)
    }

    #[test]
    fn broken_pair_fails_structural() {
        let (p, c) = broken_mg();
        let report =
            check_receptiveness_structural_mg(&p, &c, &["req"].into(), &["ack"].into()).unwrap();
        assert!(!report.is_receptive());
        assert!(report.failures.iter().any(|f| f.label == "req"));
        // The exhaustive check agrees.
        let ex = check_receptiveness(
            &p,
            &c,
            &["req"].into(),
            &["ack"].into(),
            &ReachabilityOptions::default(),
        )
        .unwrap();
        assert!(!ex.is_receptive());
    }

    #[test]
    fn structural_rejects_non_marked_graph() {
        let (mut p, c) = handshake();
        // Add a choice to the producer: no longer a marked graph.
        let extra = p.add_place("extra");
        let a0 = cpn_petri::PlaceId::from_index(0);
        p.add_transition([a0], "req", [extra]).unwrap();
        let err = check_receptiveness_structural_mg(&p, &c, &["req"].into(), &["ack"].into())
            .unwrap_err();
        assert_eq!(err, PetriError::NotMarkedGraph);
    }

    #[test]
    fn unchecked_labels_are_ignored() {
        // "req" declared as output of neither side: nothing to verify.
        let (p, c) = broken();
        let report = check_receptiveness(
            &p,
            &c,
            &BTreeSet::new(),
            &BTreeSet::new(),
            &ReachabilityOptions::default(),
        )
        .unwrap();
        assert!(report.is_receptive());
    }

    #[test]
    fn structural_and_exhaustive_agree_on_pipelines() {
        // Pipelines of depth k with matched/mismatched slack.
        for slack in 1u32..4 {
            let mut prod: PetriNet<String> = PetriNet::new();
            // Producer ring with `slack` tokens: can run ahead by `slack`.
            let pp: Vec<_> = (0..4).map(|i| prod.add_place(format!("p{i}"))).collect();
            for i in 0..4 {
                let lbl = if i % 2 == 0 { "req" } else { "ack" };
                prod.add_transition([pp[i]], format!("{lbl}{}", i / 2), [pp[(i + 1) % 4]])
                    .unwrap();
            }
            prod.set_initial(pp[0], 1);

            let mut cons: PetriNet<String> = PetriNet::new();
            let cp: Vec<_> = (0..4).map(|i| cons.add_place(format!("c{i}"))).collect();
            for i in 0..4 {
                let lbl = if i % 2 == 0 { "req" } else { "ack" };
                cons.add_transition([cp[i]], format!("{lbl}{}", i / 2), [cp[(i + 1) % 4]])
                    .unwrap();
            }
            // Consumer offset start: mismatch when slack offsets differ.
            cons.set_initial(cp[(slack as usize) % 4], 1);

            let louts: BTreeSet<String> = ["req0".to_string(), "req1".to_string()].into();
            let routs: BTreeSet<String> = ["ack0".to_string(), "ack1".to_string()].into();
            let ex = check_receptiveness(
                &prod,
                &cons,
                &louts,
                &routs,
                &ReachabilityOptions::default(),
            )
            .unwrap();
            let st = check_receptiveness_structural_mg(&prod, &cons, &louts, &routs).unwrap();
            assert_eq!(
                ex.is_receptive(),
                st.is_receptive(),
                "slack {slack}: exhaustive {:?} vs structural {:?}",
                ex.failures,
                st.failures
            );
        }
    }
}
