//! Explicit reachability graphs (exploration kernel v3).
//!
//! The reachability graph `RG(N)` (Section 2.1 of the paper) is the
//! transitive closure of the next-state relation: nodes are reachable
//! markings, edges are labeled by the transition fired. The kernel builds
//! it breadth-first under a configurable state budget so that analyses
//! never silently diverge on unbounded nets.
//!
//! Three layers make the build fast:
//!
//! 1. [`MarkingStore`] — every discovered marking is interned once into a
//!    flat arena; the open-addressing index stores only `(hash, id)`
//!    pairs, so there is no per-state allocation and no duplicate key
//!    storage.
//! 2. [`CompiledNet`] — the firing rule in
//!    CSR form with a place → consumers adjacency, so each state only
//!    re-tests transitions whose preset touches a marked place instead of
//!    scanning all of `transition_ids()`.
//! 3. An opt-in deterministic **lock-free parallel explorer**
//!    ([`ReachabilityOptions::threads`]): one shared open-addressing
//!    index claimed slot-by-slot with atomic CAS, per-worker deques with
//!    work stealing (no rounds, no barriers), cooperative termination
//!    via a global in-flight counter, and a canonical renumbering pass
//!    that makes the graph **bit-identical for every thread count** (and
//!    to the sequential explorer). See DESIGN.md §5f.
//!
//! For state spaces whose resident marking set outgrows RAM there is a
//! fourth layer: [`reachability_bounded_spilled`] runs the sequential
//! kernel over a [`SpillStore`], whose delta-encoded segments page out to
//! an unlinked temp file under a configurable resident-byte ceiling.
//!
//! The pre-arena explorer survives as
//! [`PetriNet::reachability_bounded_legacy`], the reference
//! implementation the equivalence property suite differentiates against.

use crate::budget::{Bounded, Budget, Meter};
use crate::compiled::{CandidateScratch, CompiledNet, StubbornScratch};
use crate::error::PetriError;
use crate::graph::DiGraph;
use crate::label::Label;
use crate::marking::Marking;
use crate::net::{PetriNet, PlaceId, TransitionId};
use crate::store::{MarkingStore, SpillConfig, SpillStats, SpillStore};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Identifier of a state (reachable marking) in a [`ReachabilityGraph`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(u32);

impl StateId {
    /// The arena index of this state.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `StateId` from an arena index.
    ///
    /// # Errors
    ///
    /// Returns [`PetriError::IndexOverflow`] when the index does not fit
    /// the 32-bit id space.
    pub fn try_from_index(i: usize) -> Result<Self, PetriError> {
        match u32::try_from(i) {
            Ok(v) => Ok(StateId(v)),
            Err(_) => Err(PetriError::IndexOverflow { index: i }),
        }
    }

    /// Builds a `StateId` from an arena index.
    ///
    /// # Panics
    ///
    /// Panics if the index exceeds the 32-bit id space; use
    /// [`StateId::try_from_index`] on paths where the index is not known
    /// to be in range.
    pub fn from_index(i: usize) -> Self {
        match Self::try_from_index(i) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        }
    }
}

impl fmt::Debug for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

impl fmt::Display for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Options controlling reachability exploration.
#[derive(Clone, Debug)]
pub struct ReachabilityOptions {
    /// Maximum number of distinct states to discover before giving up with
    /// [`PetriError::StateBudgetExceeded`]. Defaults to
    /// [`crate::budget::DEFAULT_MAX_STATES`], the workspace-wide state
    /// budget shared with [`Budget`].
    pub max_states: usize,
    /// Number of exploration worker threads. `0` and `1` both mean
    /// sequential; larger values opt into the sharded parallel BFS, whose
    /// output is bit-identical to the sequential explorer's for every
    /// thread count. Defaults to `1`.
    pub threads: usize,
    /// Opt into stubborn-set partial-order reduction. The reduced graph
    /// contains **every deadlock marking** of the full graph but in
    /// general fewer states and interleavings, so it is valid for
    /// deadlock-style queries only — language, liveness, and safety must
    /// explore unreduced. Forces sequential exploration (the sharded BFS
    /// never runs reduced). Defaults to `false`.
    pub stubborn: bool,
}

impl Default for ReachabilityOptions {
    fn default() -> Self {
        ReachabilityOptions {
            max_states: crate::budget::DEFAULT_MAX_STATES,
            threads: 1,
            stubborn: false,
        }
    }
}

impl ReachabilityOptions {
    /// Options with an explicit state budget (sequential).
    pub fn with_max_states(max_states: usize) -> Self {
        ReachabilityOptions {
            max_states,
            threads: 1,
            stubborn: false,
        }
    }

    /// Returns the options with the worker-thread count replaced.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Returns the options with stubborn-set reduction toggled.
    pub fn with_stubborn(mut self, stubborn: bool) -> Self {
        self.stubborn = stubborn;
        self
    }
}

impl From<Budget> for ReachabilityOptions {
    /// Projects a [`Budget`] onto the options type (only the state cap is
    /// representable; exploration stays sequential and unreduced).
    fn from(b: Budget) -> Self {
        ReachabilityOptions {
            max_states: b.max_states,
            threads: 1,
            stubborn: false,
        }
    }
}

impl From<&Budget> for ReachabilityOptions {
    fn from(b: &Budget) -> Self {
        ReachabilityOptions::from(*b)
    }
}

/// The reachability graph of a net: every reachable marking plus the
/// labeled next-state edges between them.
///
/// Markings live interned in a [`MarkingStore`] arena and edges in one
/// CSR array, so the graph's resident size is dominated by
/// `state_count × place_count` `u32`s rather than per-state heap
/// allocations.
///
/// # Example
///
/// ```
/// use cpn_petri::{PetriNet, ReachabilityOptions};
///
/// # fn main() -> Result<(), cpn_petri::PetriError> {
/// let mut net: PetriNet<&str> = PetriNet::new();
/// let p = net.add_place("p");
/// let q = net.add_place("q");
/// let r = net.add_place("r");
/// net.add_transition([p], "a", [q])?;
/// net.add_transition([p], "b", [r])?;
/// net.set_initial(p, 1);
/// let rg = net.reachability(&ReachabilityOptions::default())?;
/// assert_eq!(rg.state_count(), 3);
/// assert_eq!(rg.edges(rg.initial_state()).len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct ReachabilityGraph {
    store: MarkingStore,
    /// All edges, grouped by source state (CSR payload).
    edge_data: Vec<(TransitionId, StateId)>,
    /// CSR offsets: edges of state `s` are
    /// `edge_data[edge_off[s]..edge_off[s+1]]`.
    edge_off: Vec<usize>,
    initial: StateId,
}

impl ReachabilityGraph {
    /// Number of reachable states.
    pub fn state_count(&self) -> usize {
        self.store.len()
    }

    /// Total number of edges (O(1): the CSR payload length is cached by
    /// construction).
    pub fn edge_count(&self) -> usize {
        self.edge_data.len()
    }

    /// The state corresponding to the initial marking.
    pub fn initial_state(&self) -> StateId {
        self.initial
    }

    /// The marking of a state, materialized from the arena.
    ///
    /// For allocation-free access use [`ReachabilityGraph::marking_slice`].
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this graph.
    pub fn marking(&self, s: StateId) -> Marking {
        Marking::from_counts(self.store.get(s.index()).to_vec())
    }

    /// The raw per-place token counts of a state, borrowed straight from
    /// the arena (no allocation).
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this graph.
    pub fn marking_slice(&self, s: StateId) -> &[u32] {
        self.store.get(s.index())
    }

    /// Outgoing edges of a state.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this graph.
    pub fn edges(&self, s: StateId) -> &[(TransitionId, StateId)] {
        &self.edge_data[self.edge_off[s.index()]..self.edge_off[s.index() + 1]]
    }

    /// Iterates over all state ids.
    pub fn state_ids(&self) -> impl Iterator<Item = StateId> {
        (0..self.store.len()).map(StateId::from_index)
    }

    /// Iterates over all edges as `(source, transition, target)`.
    pub fn all_edges(&self) -> impl Iterator<Item = (StateId, TransitionId, StateId)> + '_ {
        self.state_ids()
            .flat_map(move |s| self.edges(s).iter().map(move |&(t, to)| (s, t, to)))
    }

    /// Looks up the state with the given marking in O(1) via the arena's
    /// hash index.
    pub fn find_state(&self, m: &Marking) -> Option<StateId> {
        if m.len() != self.store.stride() {
            return None;
        }
        self.store.find(m.as_slice()).map(StateId)
    }

    /// The underlying directed graph over state indices (labels dropped).
    pub fn as_digraph(&self) -> DiGraph {
        let mut g = DiGraph::new(self.state_count());
        for (from, _, to) in self.all_edges() {
            g.add_edge(from.index(), to.index());
        }
        g
    }

    /// States with no outgoing edges (deadlocks).
    pub fn deadlock_states(&self) -> Vec<StateId> {
        self.state_ids()
            .filter(|s| self.edge_off[s.index()] == self.edge_off[s.index() + 1])
            .collect()
    }

    /// The largest token count any place reaches in any state: the bound
    /// `k` for which the net is `k`-bounded (given a complete graph).
    pub fn token_bound(&self) -> u32 {
        self.store
            .iter()
            .flat_map(|m| m.iter().copied())
            .max()
            .unwrap_or(0)
    }

    /// Bytes resident in the marking arena and its hash index — the
    /// counter reported as `peak_resident_marking_bytes` in
    /// `BENCH_explore.json`.
    ///
    /// The index doubles with the states actually stored and is never
    /// sized from the budget's state cap, so two complete explorations
    /// of one net report the same figure under any budget.
    pub fn resident_marking_bytes(&self) -> usize {
        self.store.resident_bytes()
    }
}

impl<L: Label> PetriNet<L> {
    /// Builds the reachability graph of the net breadth-first.
    ///
    /// With `options.threads > 1` the sharded parallel explorer is used;
    /// its result is bit-identical to the sequential one.
    ///
    /// # Errors
    ///
    /// Returns [`PetriError::StateBudgetExceeded`] when more than
    /// `options.max_states` distinct markings are discovered — either the
    /// net is unbounded (use
    /// [`coverability`](crate::coverability::CoverabilityTree) to decide)
    /// or the budget is too small for its finite state space.
    pub fn reachability(
        &self,
        options: &ReachabilityOptions,
    ) -> Result<ReachabilityGraph, PetriError> {
        let budget = Budget::states(options.max_states);
        let built = if options.stubborn {
            self.reachability_stubborn_bounded(&budget, &[])
        } else if options.threads > 1 {
            self.reachability_bounded_parallel(&budget, options.threads)
        } else {
            self.reachability_bounded(&budget)
        };
        match built {
            Bounded::Complete(rg) => Ok(rg),
            Bounded::Exhausted { .. } => Err(PetriError::StateBudgetExceeded {
                budget: options.max_states,
            }),
        }
    }

    /// Builds the reachability graph breadth-first under a [`Budget`],
    /// degrading gracefully instead of erroring.
    ///
    /// When the budget runs out, exploration stops immediately and the
    /// partial graph discovered so far is returned in
    /// [`Bounded::Exhausted`] together with exploration statistics. The
    /// partial graph is a sound prefix: every state and edge in it is
    /// genuinely reachable, but states on the unexpanded frontier may be
    /// missing outgoing edges.
    pub fn reachability_bounded(&self, budget: &Budget) -> Bounded<ReachabilityGraph> {
        explore_compiled(&self.compile(), self.initial_marking().as_slice(), budget)
    }

    /// Builds a **stubborn-set reduced** reachability graph breadth-first
    /// under a [`Budget`].
    ///
    /// At every marking only a stubborn subset of the enabled transitions
    /// is fired ([`CompiledNet::stubborn_enabled`]), which preserves:
    ///
    /// * **every deadlock marking** of the full graph, and
    /// * every reachable valuation of the `watched` places — any
    ///   transition touching a watched place is seeded into every
    ///   stubborn set, so a predicate over `watched` holds somewhere in
    ///   the full graph iff it holds somewhere in the reduced one (the
    ///   attractor/up-set reachability argument). Witness markings for
    ///   such a predicate are genuine but may differ from the full
    ///   graph's.
    ///
    /// Everything else (state counts, languages, token bounds on
    /// unwatched places, liveness) is generally under-approximated.
    pub fn reachability_stubborn_bounded(
        &self,
        budget: &Budget,
        watched: &[PlaceId],
    ) -> Bounded<ReachabilityGraph> {
        let compiled = self.compile();
        let seeds = stubborn_seeds(&compiled, watched);
        explore_stubborn(&compiled, self.initial_marking().as_slice(), budget, &seeds)
    }

    /// Builds the reachability graph with `threads` lock-free workers.
    ///
    /// Discovered markings are published to a single shared CAS-claimed
    /// index, the frontier is traded through work-stealing deques, and a
    /// final canonical BFS-order renumbering pass makes the result
    /// **bit-identical** to [`PetriNet::reachability_bounded`] for every
    /// thread count. When the budget is exhausted mid-flight, the
    /// partial exploration is discarded and the sequential explorer
    /// re-runs under the same budget, so `Exhausted` prefixes and
    /// statistics are also identical.
    pub fn reachability_bounded_parallel(
        &self,
        budget: &Budget,
        threads: usize,
    ) -> Bounded<ReachabilityGraph> {
        reachability_bounded_parallel_compiled(
            &self.compile(),
            self.initial_marking().as_slice(),
            budget,
            threads,
        )
    }

    /// The pre-arena explorer (interpreted firing rule, `Vec<Marking>` +
    /// `HashMap` double storage), kept as the reference implementation
    /// for the kernel-equivalence property suite and the memory baseline
    /// of the `explore_kernel` bench. Semantically identical to
    /// [`PetriNet::reachability_bounded`], only slower and hungrier.
    pub fn reachability_bounded_legacy(&self, budget: &Budget) -> Bounded<ReachabilityGraph> {
        let mut meter = Meter::new(budget);
        let initial = self.initial_marking();
        let mut states: Vec<Marking> = vec![initial.clone()];
        let mut index: HashMap<Marking, StateId> = HashMap::new();
        index.insert(initial, StateId(0));
        let mut edges: Vec<Vec<(TransitionId, StateId)>> = vec![Vec::new()];
        // The initial state always exists, even under a zero budget.
        meter.take_state();

        let mut frontier = 0usize;
        'explore: while frontier < states.len() {
            if meter.should_stop() {
                break 'explore;
            }
            let marking = states[frontier].clone();
            for t in self.transition_ids() {
                if !self.is_enabled(&marking, t) {
                    continue;
                }
                if !meter.take_transition() {
                    break 'explore;
                }
                let Ok(next) = self.fire(&marking, t) else {
                    // Unreachable for an enabled transition; skip rather
                    // than panic so the builder stays total.
                    continue;
                };
                let target = match index.get(&next) {
                    Some(&existing) => existing,
                    None => {
                        if !meter.take_state() {
                            break 'explore;
                        }
                        let new_id = StateId::from_index(states.len());
                        states.push(next.clone());
                        edges.push(Vec::new());
                        index.insert(next, new_id);
                        new_id
                    }
                };
                edges[frontier].push((t, target));
            }
            frontier += 1;
        }

        // Convert to the arena-backed representation (insertion order is
        // already canonical BFS order).
        let mut store = MarkingStore::with_capacity(self.place_count(), states.len());
        for m in &states {
            store.intern(m.as_slice());
        }
        let mut edge_off = Vec::with_capacity(states.len() + 1);
        let mut edge_data = Vec::new();
        edge_off.push(0);
        for outs in &edges {
            edge_data.extend_from_slice(outs);
            edge_off.push(edge_data.len());
        }
        meter.finish(ReachabilityGraph {
            store,
            edge_data,
            edge_off,
            initial: StateId(0),
        })
    }
}

/// Explores a pre-compiled net under a [`Budget`], producing the same
/// graph as [`PetriNet::reachability_bounded`] on the source net.
///
/// The entry point for callers that amortize [`PetriNet::compile`]
/// across many explorations — e.g. the `cpn-serve` session cache, which
/// keys compiled nets by document content hash and re-explores them
/// under different budgets per request.
pub fn reachability_bounded_compiled(
    compiled: &CompiledNet,
    m0: &[u32],
    budget: &Budget,
) -> Bounded<ReachabilityGraph> {
    explore_compiled(compiled, m0, budget)
}

/// [`PetriNet::reachability_bounded_parallel`] over a pre-compiled net —
/// the multi-threaded sibling of [`reachability_bounded_compiled`], used
/// by `cpn-serve` when a request carries `threads > 1`.
///
/// `threads` is clamped to `1..=64`. One thread (or a degenerate budget)
/// runs the sequential kernel directly; any budget or table exhaustion
/// inside the lock-free kernel falls back to a sequential replay under
/// the same budget, so `Exhausted` results are deterministic too.
pub fn reachability_bounded_parallel_compiled(
    compiled: &CompiledNet,
    m0: &[u32],
    budget: &Budget,
    threads: usize,
) -> Bounded<ReachabilityGraph> {
    let threads = threads.clamp(1, 64);
    if threads == 1 || budget.max_states < 2 {
        return explore_compiled(compiled, m0, budget);
    }
    match explore_parallel(compiled, m0, budget, threads) {
        Some(rg) => Bounded::Complete(rg),
        // Budget hit: replay sequentially for a deterministic prefix.
        None => explore_compiled(compiled, m0, budget),
    }
}

// ----------------------------------------------------------------------
// Sequential compiled explorer
// ----------------------------------------------------------------------

fn explore_compiled(
    compiled: &CompiledNet,
    m0: &[u32],
    budget: &Budget,
) -> Bounded<ReachabilityGraph> {
    let mut meter = Meter::new(budget);
    let stride = compiled.place_count();
    let mut store = MarkingStore::new(stride);
    store.intern(m0);
    // The initial state always exists, even under a zero budget.
    meter.take_state();

    let mut edge_data: Vec<(TransitionId, StateId)> = Vec::new();
    let mut edge_off: Vec<usize> = vec![0];
    let mut cur: Vec<u32> = Vec::with_capacity(stride);
    let mut cands: Vec<u32> = Vec::new();
    let mut scratch = CandidateScratch::new(compiled.transition_count());

    let mut frontier = 0usize;
    'explore: while frontier < store.len() {
        // Per-state deadline/cancel poll (coarse: real wall-clock reads
        // happen every POLL_INTERVAL ticks inside the meter).
        if meter.should_stop() {
            break 'explore;
        }
        cur.clear();
        cur.extend_from_slice(store.get(frontier));
        let cur_hash = store.hash_of(frontier);
        compiled.enabled_candidates(&cur, &mut scratch, &mut cands);
        for &t in &cands {
            if !compiled.is_enabled(&cur, t) {
                continue;
            }
            if !meter.take_transition() {
                break 'explore;
            }
            // Fire in place with a delta-updated hash, probe/insert the
            // successor straight out of `cur`, then revert — no
            // per-successor copy or full-stride rehash.
            let hash = compiled.apply_hashed(&mut cur, cur_hash, t);
            debug_assert_eq!(hash, MarkingStore::hash_slice(&cur));
            let found = store.find_hashed(&cur, hash);
            let target = match found {
                Some(id) => id,
                None => {
                    if !meter.take_state() {
                        compiled.unapply(&mut cur, t);
                        break 'explore;
                    }
                    match store.insert_new_hashed(&cur, hash) {
                        Ok(id) => id,
                        Err(_) => {
                            compiled.unapply(&mut cur, t);
                            break 'explore;
                        }
                    }
                }
            };
            compiled.unapply(&mut cur, t);
            edge_data.push((TransitionId::from_index(t as usize), StateId(target)));
        }
        edge_off.push(edge_data.len());
        frontier += 1;
    }
    // On early exit the offsets of unexpanded (and the partially
    // expanded) states still need closing so the CSR stays well-formed.
    while edge_off.len() <= store.len() {
        edge_off.push(edge_data.len());
    }

    meter.finish(ReachabilityGraph {
        store,
        edge_data,
        edge_off,
        initial: StateId(0),
    })
}

// ----------------------------------------------------------------------
// Stubborn-set reduced explorer
// ----------------------------------------------------------------------

/// Transitions adjacent to a watched place (take **or** give): the seed
/// set forcing every stubborn set to contain all transitions that can
/// change a watched valuation. Sorted ascending.
fn stubborn_seeds(compiled: &CompiledNet, watched: &[PlaceId]) -> Vec<u32> {
    if watched.is_empty() {
        return Vec::new();
    }
    let mut mark = vec![false; compiled.place_count()];
    for p in watched {
        mark[p.index()] = true;
    }
    let mut seeds = Vec::new();
    for t in 0..compiled.transition_count() as u32 {
        let touches = compiled
            .take_set(t)
            .iter()
            .chain(compiled.give_set(t))
            .any(|&p| mark[p as usize]);
        if touches {
            seeds.push(t);
        }
    }
    seeds
}

/// [`explore_compiled`] with the candidate set replaced by the stubborn
/// filter; everything else (arena, delta hashing, meter accounting, CSR
/// closing) is identical.
fn explore_stubborn(
    compiled: &CompiledNet,
    m0: &[u32],
    budget: &Budget,
    seeds: &[u32],
) -> Bounded<ReachabilityGraph> {
    let mut meter = Meter::new(budget);
    let stride = compiled.place_count();
    let mut store = MarkingStore::new(stride);
    store.intern(m0);
    meter.take_state();

    let mut edge_data: Vec<(TransitionId, StateId)> = Vec::new();
    let mut edge_off: Vec<usize> = vec![0];
    let mut cur: Vec<u32> = Vec::with_capacity(stride);
    let mut cands: Vec<u32> = Vec::new();
    let mut scratch = StubbornScratch::new(compiled.transition_count());

    let mut frontier = 0usize;
    'explore: while frontier < store.len() {
        if meter.should_stop() {
            break 'explore;
        }
        cur.clear();
        cur.extend_from_slice(store.get(frontier));
        let cur_hash = store.hash_of(frontier);
        compiled.stubborn_enabled(&cur, seeds, &mut scratch, &mut cands);
        for &t in &cands {
            if !meter.take_transition() {
                break 'explore;
            }
            let hash = compiled.apply_hashed(&mut cur, cur_hash, t);
            debug_assert_eq!(hash, MarkingStore::hash_slice(&cur));
            let found = store.find_hashed(&cur, hash);
            let target = match found {
                Some(id) => id,
                None => {
                    if !meter.take_state() {
                        compiled.unapply(&mut cur, t);
                        break 'explore;
                    }
                    match store.insert_new_hashed(&cur, hash) {
                        Ok(id) => id,
                        Err(_) => {
                            compiled.unapply(&mut cur, t);
                            break 'explore;
                        }
                    }
                }
            };
            compiled.unapply(&mut cur, t);
            edge_data.push((TransitionId::from_index(t as usize), StateId(target)));
        }
        edge_off.push(edge_data.len());
        frontier += 1;
    }
    while edge_off.len() <= store.len() {
        edge_off.push(edge_data.len());
    }

    meter.finish(ReachabilityGraph {
        store,
        edge_data,
        edge_off,
        initial: StateId(0),
    })
}

// ----------------------------------------------------------------------
// Out-of-core explorer over the spillable tiered store
// ----------------------------------------------------------------------

/// A reachability graph whose markings live in a [`SpillStore`]: resident
/// segments are delta-encoded, cold ones are paged out to an unlinked
/// temp file, and only the hash index stays pinned in memory.
///
/// State ids, edge order, and counts are **identical** to the resident
/// [`ReachabilityGraph`] the sequential kernel would build — the store
/// tier changes where markings live, not which states exist. Marking
/// access takes `&mut self` because reading a spilled row may page its
/// segment back in (and evict another).
#[derive(Debug)]
pub struct SpilledReachability {
    store: SpillStore,
    edge_data: Vec<(TransitionId, StateId)>,
    edge_off: Vec<usize>,
    initial: StateId,
}

impl SpilledReachability {
    /// Number of reachable states.
    pub fn state_count(&self) -> usize {
        self.store.len()
    }

    /// Total number of edges.
    pub fn edge_count(&self) -> usize {
        self.edge_data.len()
    }

    /// The state corresponding to the initial marking.
    pub fn initial_state(&self) -> StateId {
        self.initial
    }

    /// Decodes the marking of a state into `out` (cleared first), paging
    /// its segment in if it was spilled.
    ///
    /// # Errors
    ///
    /// Returns [`PetriError::SpillIo`] when the page-in fails.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this graph.
    pub fn marking_into(&mut self, s: StateId, out: &mut Vec<u32>) -> Result<(), PetriError> {
        self.store.get_into(s.index(), out)
    }

    /// Outgoing edges of a state.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this graph.
    pub fn edges(&self, s: StateId) -> &[(TransitionId, StateId)] {
        &self.edge_data[self.edge_off[s.index()]..self.edge_off[s.index() + 1]]
    }

    /// Looks up a marking's state id, paging candidate segments in as
    /// needed for confirmation.
    ///
    /// # Errors
    ///
    /// Returns [`PetriError::SpillIo`] when a page-in fails.
    pub fn find_state(&mut self, m: &Marking) -> Result<Option<StateId>, PetriError> {
        if m.len() != self.store.stride() {
            return Ok(None);
        }
        let hash = MarkingStore::hash_slice(m.as_slice());
        Ok(self.store.find_hashed(m.as_slice(), hash)?.map(StateId))
    }

    /// States with no outgoing edges (deadlocks).
    pub fn deadlock_states(&self) -> Vec<StateId> {
        (0..self.store.len())
            .filter(|&i| self.edge_off[i] == self.edge_off[i + 1])
            .map(StateId::from_index)
            .collect()
    }

    /// The largest token count any place reaches in any state (tracked
    /// incrementally at insert, so no decode pass is needed).
    pub fn token_bound(&self) -> u32 {
        self.store.max_word()
    }

    /// Spill-tier counters: segment totals, page-in/out traffic, bytes on
    /// disk, and the resident ceiling.
    pub fn spill_stats(&self) -> SpillStats {
        self.store.stats()
    }

    /// Bytes currently resident (index, hashes, and in-memory segments).
    pub fn resident_bytes(&self) -> usize {
        self.store.resident_bytes()
    }
}

/// Sequential BFS over a [`SpillStore`]: the out-of-core sibling of
/// [`reachability_bounded_compiled`], for state spaces whose resident
/// marking set outgrows RAM.
///
/// Visits states in the exact order of the resident kernel, so ids and
/// edges match byte-for-byte; only the marking storage tier differs. A
/// spill i/o failure is treated like budget exhaustion — the prefix built
/// so far is sound and is returned as [`Bounded::Exhausted`].
pub fn reachability_bounded_spilled(
    compiled: &CompiledNet,
    m0: &[u32],
    budget: &Budget,
    config: &SpillConfig,
) -> Bounded<SpilledReachability> {
    let mut meter = Meter::new(budget);
    let stride = compiled.place_count();
    let mut store = SpillStore::new(stride, config);
    let h0 = MarkingStore::hash_slice(m0);
    match store.insert_new_hashed(m0, h0) {
        Ok(_) => {}
        Err(e) => panic!("spill store rejected the initial marking: {e}"),
    }
    // The initial state always exists, even under a zero budget.
    meter.take_state();

    let mut edge_data: Vec<(TransitionId, StateId)> = Vec::new();
    let mut edge_off: Vec<usize> = vec![0];
    let mut cur: Vec<u32> = Vec::with_capacity(stride);
    let mut cands: Vec<u32> = Vec::new();
    let mut scratch = CandidateScratch::new(compiled.transition_count());

    let mut frontier = 0usize;
    'explore: while frontier < store.len() {
        if meter.should_stop() {
            break 'explore;
        }
        if store.get_into(frontier, &mut cur).is_err() {
            // Disk trouble: stop with the sound prefix built so far.
            break 'explore;
        }
        let cur_hash = MarkingStore::hash_slice(&cur);
        compiled.enabled_candidates(&cur, &mut scratch, &mut cands);
        for &t in &cands {
            if !compiled.is_enabled(&cur, t) {
                continue;
            }
            if !meter.take_transition() {
                break 'explore;
            }
            let hash = compiled.apply_hashed(&mut cur, cur_hash, t);
            let found = match store.find_hashed(&cur, hash) {
                Ok(found) => found,
                Err(_) => {
                    compiled.unapply(&mut cur, t);
                    break 'explore;
                }
            };
            let target = match found {
                Some(id) => id,
                None => {
                    if !meter.take_state() {
                        compiled.unapply(&mut cur, t);
                        break 'explore;
                    }
                    match store.insert_new_hashed(&cur, hash) {
                        Ok(id) => id,
                        Err(_) => {
                            compiled.unapply(&mut cur, t);
                            break 'explore;
                        }
                    }
                }
            };
            compiled.unapply(&mut cur, t);
            edge_data.push((TransitionId::from_index(t as usize), StateId(target)));
        }
        edge_off.push(edge_data.len());
        frontier += 1;
    }
    while edge_off.len() <= store.len() {
        edge_off.push(edge_data.len());
    }

    meter.finish(SpilledReachability {
        store,
        edge_data,
        edge_off,
        initial: StateId(0),
    })
}

// ----------------------------------------------------------------------
// Lock-free parallel BFS (kernel v3)
// ----------------------------------------------------------------------
//
// One shared open-addressing table, claimed slot-by-slot with CAS; no
// rounds, no barriers, no mailboxes. Each worker appends the markings it
// discovers to its own segmented arena (stable addresses, readable by
// every worker), publishes them by CAS-ing a packed entry into the
// table, and trades frontier work through per-worker steal deques. A
// global in-flight counter detects termination. A final renumbering pass
// replays the sequential discovery recurrence over the logged edges, so
// the output is byte-identical to `explore_compiled` for any thread
// count. See DESIGN.md §5f.

/// Empty table slot.
const EMPTY_SLOT: u64 = 0;
/// Published-entry marker (keeps every live entry nonzero).
const PRESENT: u64 = 1 << 63;
/// Entry layout below the marker: 23 hash tag bits, 8 worker bits,
/// 32 local-id bits.
const TAG_SHIFT: u32 = 40;
const TAG_BITS: u64 = 0x7F_FFFF;
const TAG_FIELD: u64 = TAG_BITS << TAG_SHIFT;
const GID_MASK: u64 = (1 << TAG_SHIFT) - 1;
/// Hard ceiling on the shared table (2^28 slots = 2 GiB of index).
const PAR_SLOTS_CAP: usize = 1 << 28;
/// Floor so tiny explorations don't immediately exhaust the 7/8 load cap.
const PAR_SLOTS_MIN: usize = 1 << 10;

/// Packs a worker-local state reference: `(worker << 32) | local`.
#[inline]
fn pack(worker: usize, local: u32) -> u64 {
    ((worker as u64) << 32) | u64::from(local)
}

#[inline]
fn unpack(packed: u64) -> (usize, u32) {
    ((packed >> 32) as usize, packed as u32)
}

/// The table entry publishing marking `(worker, local)` under `hash`.
/// The tag reuses the hash's top 23 bits — disjoint from the probe bits
/// (low `log2(slots) ≤ 28`), so tag collisions are independent of slot
/// clustering.
#[inline]
fn make_entry(hash: u64, worker: usize, local: u32) -> u64 {
    PRESENT | (((hash >> 41) & TAG_BITS) << TAG_SHIFT) | pack(worker, local)
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// One worker's append-only marking arena. Rows live in fixed-size
/// segments allocated on demand through `OnceLock`, so a row's address
/// never moves after publication and other workers can read it without
/// locks: the publishing CAS (Release) on the table entry orders the
/// row's Relaxed stores before any reader that Acquire-loads the entry.
struct WorkerArena {
    stride: usize,
    seg_rows: usize,
    marks: Vec<OnceLock<Box<[AtomicU32]>>>,
    hashes: Vec<OnceLock<Box<[AtomicU64]>>>,
}

impl WorkerArena {
    fn new(stride: usize, cap_states: usize) -> Self {
        // ~4 MiB segments, clamped so huge strides still get a few rows
        // per segment and small ones don't balloon the pointer tables.
        let seg_rows = ((1usize << 20) / stride.max(1)).clamp(64, 8192);
        let segs = cap_states / seg_rows + 2;
        WorkerArena {
            stride,
            seg_rows,
            marks: (0..segs).map(|_| OnceLock::new()).collect(),
            hashes: (0..segs).map(|_| OnceLock::new()).collect(),
        }
    }

    #[inline]
    fn split(&self, local: u32) -> (usize, usize) {
        (
            local as usize / self.seg_rows,
            local as usize % self.seg_rows,
        )
    }

    /// Owner-side tentative append: writes row `local` before it is
    /// published. Safe to overwrite (a lost insert race reuses the row).
    fn write_row(&self, local: u32, m: &[u32], hash: u64) {
        let (s, r) = self.split(local);
        let seg = self.marks[s].get_or_init(|| {
            (0..self.seg_rows * self.stride)
                .map(|_| AtomicU32::new(0))
                .collect()
        });
        let hseg =
            self.hashes[s].get_or_init(|| (0..self.seg_rows).map(|_| AtomicU64::new(0)).collect());
        for (i, &w) in m.iter().enumerate() {
            seg[r * self.stride + i].store(w, Ordering::Relaxed);
        }
        hseg[r].store(hash, Ordering::Relaxed);
    }

    #[inline]
    fn row(&self, local: u32) -> &[AtomicU32] {
        let (s, r) = self.split(local);
        match self.marks[s].get() {
            Some(seg) => &seg[r * self.stride..(r + 1) * self.stride],
            None => unreachable!("arena row read before publication"),
        }
    }

    fn read_row_into(&self, local: u32, out: &mut Vec<u32>) {
        out.clear();
        out.extend(self.row(local).iter().map(|a| a.load(Ordering::Relaxed)));
    }

    #[inline]
    fn row_eq(&self, local: u32, m: &[u32]) -> bool {
        m.iter()
            .zip(self.row(local))
            .all(|(&w, a)| a.load(Ordering::Relaxed) == w)
    }

    #[inline]
    fn hash_of(&self, local: u32) -> u64 {
        let (s, r) = self.split(local);
        match self.hashes[s].get() {
            Some(h) => h[r].load(Ordering::Relaxed),
            None => unreachable!("arena hash read before publication"),
        }
    }
}

enum Probe {
    /// The marking is published under this packed `(worker, local)` gid.
    Found(u64),
    /// Not present; the probe stopped at this empty slot.
    Vacant(usize),
}

/// The shared lock-free insert-or-get index over all worker arenas.
struct SharedIndex<'a> {
    slots: &'a [AtomicU64],
    mask: usize,
    arenas: &'a [WorkerArena],
}

impl SharedIndex<'_> {
    /// Linear-probes from `slot`. Occupancy is monotone (slots fill,
    /// never empty), so a restarted probe never misses an insert that
    /// happened behind its scan frontier: every slot it passed was
    /// already occupied and stays occupied.
    fn probe_from(&self, mut slot: usize, m: &[u32], hash: u64) -> Probe {
        let tag = ((hash >> 41) & TAG_BITS) << TAG_SHIFT;
        loop {
            let e = self.slots[slot].load(Ordering::Acquire);
            if e == EMPTY_SLOT {
                return Probe::Vacant(slot);
            }
            if e & TAG_FIELD == tag {
                let (w, l) = unpack(e & GID_MASK);
                if self.arenas[w].hash_of(l) == hash && self.arenas[w].row_eq(l, m) {
                    return Probe::Found(e & GID_MASK);
                }
            }
            slot = (slot + 1) & self.mask;
        }
    }

    #[inline]
    fn find(&self, m: &[u32], hash: u64) -> Probe {
        self.probe_from((hash as usize) & self.mask, m, hash)
    }

    /// Races to claim the vacant `slot` for the tentative row
    /// `(me, local)`. Returns `None` when the claim won (the row is now
    /// published) or `Some(gid)` when a concurrent insert published an
    /// equal marking first (the tentative row must be rolled back).
    fn claim(&self, mut slot: usize, m: &[u32], hash: u64, me: usize, local: u32) -> Option<u64> {
        let entry = make_entry(hash, me, local);
        loop {
            // Release on success publishes the row's Relaxed stores to
            // every reader that Acquire-loads this entry.
            if self.slots[slot]
                .compare_exchange(EMPTY_SLOT, entry, Ordering::Release, Ordering::Acquire)
                .is_ok()
            {
                return None;
            }
            // Lost the slot: somebody filled it under us. Re-examine
            // from here — the newcomer may be our own marking.
            match self.probe_from(slot, m, hash) {
                Probe::Found(gid) => return Some(gid),
                Probe::Vacant(s) => slot = s,
            }
        }
    }
}

/// A worker's public deque plus an occupancy counter so peers can scan
/// for victims without taking the lock.
struct StealQueue {
    q: Mutex<VecDeque<u64>>,
    size: AtomicUsize,
}

/// One worker's exploration log: how many states it owns, which states
/// it expanded (in its own expansion order) and their edges, grouped
/// contiguously per expansion and ascending by transition id within one.
struct WorkerLog {
    len: u32,
    /// `(gid expanded, first index into edges)`; the range ends at the
    /// next entry's start (or `edges.len()`).
    srcs: Vec<(u64, usize)>,
    /// `(transition, target gid)`.
    edges: Vec<(u32, u64)>,
}

/// Pops local work, then the worker's own public deque, then steals half
/// of the first non-empty victim's deque (scanning round-robin from
/// `me + 1`). Returns `None` when no work is visible anywhere.
fn next_work(me: usize, local: &mut Vec<u64>, queues: &[StealQueue]) -> Option<u64> {
    if let Some(g) = local.pop() {
        return Some(g);
    }
    {
        let mut q = lock(&queues[me].q);
        if let Some(g) = q.pop_back() {
            queues[me].size.store(q.len(), Ordering::Relaxed);
            return Some(g);
        }
    }
    let n = queues.len();
    for d in 1..n {
        let v = (me + d) % n;
        if queues[v].size.load(Ordering::Relaxed) == 0 {
            continue;
        }
        let mut q = lock(&queues[v].q);
        let take = q.len().div_ceil(2);
        for _ in 0..take {
            if let Some(g) = q.pop_front() {
                local.push(g);
            }
        }
        queues[v].size.store(q.len(), Ordering::Relaxed);
        drop(q);
        if let Some(g) = local.pop() {
            return Some(g);
        }
    }
    None
}

/// Barrier-free work-stealing BFS. Returns `Some(graph)` on complete
/// exploration (already canonically renumbered), `None` when the budget
/// ran out or the fixed table filled (the caller replays sequentially
/// for a deterministic prefix).
fn explore_parallel(
    compiled: &CompiledNet,
    m0: &[u32],
    budget: &Budget,
    threads: usize,
) -> Option<ReachabilityGraph> {
    // An already-expired deadline or pre-cancelled token must produce
    // the same result as the sequential meter, whose very first tick
    // polls interrupts — so poll before any work happens. (Mid-flight
    // interrupts are wall-clock races either way; completes are always
    // the true graph.)
    if budget.interrupted().is_some() {
        return None;
    }
    let stride = compiled.place_count();
    let h0 = MarkingStore::hash_slice(m0);

    // Pre-size the shared table from the budget (it never grows — a
    // fixed table is what makes CAS claims sufficient). An effectively
    // infinite budget falls back to the workspace default; blowing past
    // the 7/8 load cap trips `stopped` and the sequential replay (which
    // does grow) takes over.
    let sizing = if budget.max_states < usize::MAX / 2 {
        budget.max_states + 1
    } else {
        crate::budget::DEFAULT_MAX_STATES
    };
    let slots = (sizing.min(PAR_SLOTS_CAP) * 8 / 7 + 1)
        .next_power_of_two()
        .clamp(PAR_SLOTS_MIN, PAR_SLOTS_CAP);
    let state_cap = budget.max_states.min(slots * 7 / 8);

    let slots_vec: Vec<AtomicU64> = (0..slots).map(|_| AtomicU64::new(EMPTY_SLOT)).collect();
    let arenas: Vec<WorkerArena> = (0..threads)
        .map(|_| WorkerArena::new(stride, state_cap))
        .collect();
    let index = SharedIndex {
        slots: &slots_vec,
        mask: slots - 1,
        arenas: &arenas,
    };

    // Seed: worker 0 owns the initial marking as (0, 0). Single-threaded
    // here, so a plain store publishes it.
    arenas[0].write_row(0, m0, h0);
    match index.find(m0, h0) {
        Probe::Vacant(s) => slots_vec[s].store(make_entry(h0, 0, 0), Ordering::Relaxed),
        Probe::Found(_) => unreachable!("empty table cannot contain the seed"),
    }

    let queues: Vec<StealQueue> = (0..threads)
        .map(|_| StealQueue {
            q: Mutex::new(VecDeque::new()),
            size: AtomicUsize::new(0),
        })
        .collect();
    // States discovered but not yet fully expanded. Insert increments
    // (before the state becomes visible), retiring an expansion
    // decrements; zero with empty queues means the wavefront is done.
    let in_flight = AtomicUsize::new(1);
    let states_used = AtomicUsize::new(1); // the seed's ticket
    let trans_used = AtomicUsize::new(0);
    let stopped = AtomicBool::new(false);

    let mut logs: Vec<WorkerLog> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for me in 0..threads {
            let index = &index;
            let arenas = &arenas;
            let queues = &queues;
            let in_flight = &in_flight;
            let states_used = &states_used;
            let trans_used = &trans_used;
            let stopped = &stopped;
            handles.push(scope.spawn(move || {
                let mut my_len: u32 = u32::from(me == 0);
                let mut local: Vec<u64> = if me == 0 {
                    vec![pack(0, 0)]
                } else {
                    Vec::new()
                };
                let mut srcs: Vec<(u64, usize)> = Vec::new();
                let mut edges: Vec<(u32, u64)> = Vec::new();
                let mut cur: Vec<u32> = Vec::with_capacity(stride);
                let mut cands: Vec<u32> = Vec::new();
                let mut scratch = CandidateScratch::new(compiled.transition_count());
                let mut expansions: u32 = 0;

                'work: loop {
                    let Some(gid) = next_work(me, &mut local, queues) else {
                        if stopped.load(Ordering::Relaxed) {
                            break 'work;
                        }
                        if in_flight.load(Ordering::Acquire) == 0 {
                            break 'work;
                        }
                        // Poll the deadline/cancel while starved so a
                        // stall cannot outlive the budget (cancellation
                        // lands mid-steal, not just mid-expansion).
                        if budget.interrupted().is_some() {
                            stopped.store(true, Ordering::Relaxed);
                            break 'work;
                        }
                        std::thread::yield_now();
                        continue 'work;
                    };
                    if stopped.load(Ordering::Relaxed) {
                        break 'work;
                    }
                    expansions = expansions.wrapping_add(1);
                    if expansions & 0x3F == 0 && budget.interrupted().is_some() {
                        stopped.store(true, Ordering::Relaxed);
                        break 'work;
                    }

                    let (ow, ol) = unpack(gid);
                    arenas[ow].read_row_into(ol, &mut cur);
                    let cur_hash = arenas[ow].hash_of(ol);
                    srcs.push((gid, edges.len()));
                    compiled.enabled_candidates(&cur, &mut scratch, &mut cands);
                    for &t in &cands {
                        if !compiled.is_enabled(&cur, t) {
                            continue;
                        }
                        if trans_used.fetch_add(1, Ordering::Relaxed) >= budget.max_transitions {
                            stopped.store(true, Ordering::Relaxed);
                            break 'work;
                        }
                        let hash = compiled.apply_hashed(&mut cur, cur_hash, t);
                        let target = match index.find(&cur, hash) {
                            Probe::Found(g) => g,
                            Probe::Vacant(slot) => {
                                // Tentative append: write the row, take a
                                // state ticket, then race for the slot.
                                // The ticket precedes the CAS so total
                                // published states never exceed the
                                // table's load cap — that is what bounds
                                // every probe loop.
                                arenas[me].write_row(my_len, &cur, hash);
                                if states_used.fetch_add(1, Ordering::Relaxed) >= state_cap {
                                    stopped.store(true, Ordering::Relaxed);
                                    break 'work;
                                }
                                match index.claim(slot, &cur, hash, me, my_len) {
                                    Some(existing) => {
                                        // Lost to an equal marking: roll
                                        // back the append, refund the
                                        // ticket.
                                        states_used.fetch_sub(1, Ordering::Relaxed);
                                        existing
                                    }
                                    None => {
                                        let g = pack(me, my_len);
                                        my_len += 1;
                                        // Count the child before it can
                                        // become visible so `in_flight`
                                        // never dips to zero with work
                                        // still queued.
                                        in_flight.fetch_add(1, Ordering::Relaxed);
                                        local.push(g);
                                        g
                                    }
                                }
                            }
                        };
                        compiled.unapply(&mut cur, t);
                        edges.push((t, target));
                    }
                    in_flight.fetch_sub(1, Ordering::Release);
                    // Offer surplus to starving peers: cheap occupancy
                    // check first, lock only when actually publishing.
                    if local.len() > 1 && queues[me].size.load(Ordering::Relaxed) == 0 {
                        let give = local.len() / 2;
                        let mut q = lock(&queues[me].q);
                        q.extend(local.drain(..give));
                        queues[me].size.store(q.len(), Ordering::Relaxed);
                    }
                }
                WorkerLog {
                    len: my_len,
                    srcs,
                    edges,
                }
            }));
        }
        for h in handles {
            match h.join() {
                Ok(log) => logs.push(log),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });

    if stopped.load(Ordering::Relaxed) {
        return None;
    }
    Some(merge_lockfree(&arenas, &logs, stride))
}

/// Renumbers the lock-free exploration into canonical (sequential) BFS
/// order.
///
/// Each expanded state's edge range is already in ascending transition
/// order (candidates are examined ascending and each state is expanded
/// by exactly one worker), so replaying the sequential discovery
/// recurrence — scan states in discovery order, number new targets in
/// edge order — reproduces the sequential numbering exactly. The rebuilt
/// arena re-interns markings in that order, making the result
/// byte-identical to `explore_compiled`.
fn merge_lockfree(arenas: &[WorkerArena], logs: &[WorkerLog], stride: usize) -> ReachabilityGraph {
    let total: usize = logs.iter().map(|o| o.len as usize).sum();
    // Locate each state's expansion: owner gid -> (expander, src slot).
    let mut expander: Vec<Vec<(u32, u32)>> = logs
        .iter()
        .map(|o| vec![(u32::MAX, 0); o.len as usize])
        .collect();
    for (ew, o) in logs.iter().enumerate() {
        for (si, &(gid, _)) in o.srcs.iter().enumerate() {
            let (w, l) = unpack(gid);
            expander[w][l as usize] = (ew as u32, si as u32);
        }
    }
    let edge_range = |ew: usize, si: usize| {
        let o = &logs[ew];
        let begin = o.srcs[si].1;
        let end = o.srcs.get(si + 1).map_or(o.edges.len(), |s| s.1);
        &o.edges[begin..end]
    };

    let mut new_id: Vec<Vec<u32>> = logs
        .iter()
        .map(|o| vec![u32::MAX; o.len as usize])
        .collect();
    let mut order: Vec<u64> = Vec::with_capacity(total);
    order.push(pack(0, 0));
    new_id[0][0] = 0;
    let mut head = 0usize;
    while head < order.len() {
        let (w, l) = unpack(order[head]);
        head += 1;
        let (ew, si) = expander[w][l as usize];
        debug_assert_ne!(ew, u32::MAX, "complete run expanded every state");
        for &(_, tgt) in edge_range(ew as usize, si as usize) {
            let (tw, tl) = unpack(tgt);
            if new_id[tw][tl as usize] == u32::MAX {
                new_id[tw][tl as usize] = order.len() as u32;
                order.push(tgt);
            }
        }
    }
    debug_assert_eq!(order.len(), total, "every discovered state is reachable");

    let mut store = MarkingStore::with_capacity(stride, total);
    let mut buf: Vec<u32> = Vec::with_capacity(stride);
    let mut edge_data: Vec<(TransitionId, StateId)> = Vec::new();
    let mut edge_off: Vec<usize> = Vec::with_capacity(total + 1);
    edge_off.push(0);
    for &gid in &order {
        let (w, l) = unpack(gid);
        arenas[w].read_row_into(l, &mut buf);
        if store.insert_new_hashed(&buf, arenas[w].hash_of(l)).is_err() {
            // Unreachable: `total` ids fit u32 by construction.
            debug_assert!(false, "id overflow during merge");
        }
        let (ew, si) = expander[w][l as usize];
        for &(t, tgt) in edge_range(ew as usize, si as usize) {
            let (tw, tl) = unpack(tgt);
            edge_data.push((
                TransitionId::from_index(t as usize),
                StateId(new_id[tw][tl as usize]),
            ));
        }
        edge_off.push(edge_data.len());
    }
    ReachabilityGraph {
        store,
        edge_data,
        edge_off,
        initial: StateId(0),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn diamond() -> PetriNet<&'static str> {
        // Fork into two concurrent tokens, then join: 4 states.
        let mut net = PetriNet::new();
        let p0 = net.add_place("p0");
        let pa = net.add_place("pa");
        let pb = net.add_place("pb");
        let pa2 = net.add_place("pa2");
        let pb2 = net.add_place("pb2");
        let end = net.add_place("end");
        net.add_transition([p0], "fork", [pa, pb]).unwrap();
        net.add_transition([pa], "a", [pa2]).unwrap();
        net.add_transition([pb], "b", [pb2]).unwrap();
        net.add_transition([pa2, pb2], "join", [end]).unwrap();
        net.set_initial(p0, 1);
        net
    }

    fn graphs_identical(a: &ReachabilityGraph, b: &ReachabilityGraph) -> bool {
        a.state_count() == b.state_count()
            && a.edge_count() == b.edge_count()
            && a.initial_state() == b.initial_state()
            && a.state_ids()
                .all(|s| a.marking_slice(s) == b.marking_slice(s) && a.edges(s) == b.edges(s))
    }

    #[test]
    fn diamond_has_interleaved_states() {
        let rg = diamond()
            .reachability(&ReachabilityOptions::default())
            .unwrap();
        // p0; {pa,pb}; {pa2,pb}; {pa,pb2}; {pa2,pb2}; end
        assert_eq!(rg.state_count(), 6);
        assert_eq!(rg.edge_count(), 6);
        assert_eq!(rg.deadlock_states().len(), 1);
        assert_eq!(rg.token_bound(), 1);
    }

    #[test]
    fn initial_state_has_initial_marking() {
        let net = diamond();
        let rg = net.reachability(&ReachabilityOptions::default()).unwrap();
        assert_eq!(rg.marking(rg.initial_state()), net.initial_marking());
        assert_eq!(
            rg.find_state(&net.initial_marking()),
            Some(rg.initial_state())
        );
    }

    #[test]
    fn find_state_locates_every_state_and_rejects_unreachable() {
        let rg = diamond()
            .reachability(&ReachabilityOptions::default())
            .unwrap();
        for s in rg.state_ids() {
            assert_eq!(rg.find_state(&rg.marking(s)), Some(s));
        }
        let mut bogus = rg.marking(rg.initial_state());
        bogus.set(crate::net::PlaceId::from_index(0), 99);
        assert_eq!(rg.find_state(&bogus), None);
        // A marking over a different place count is never present.
        assert_eq!(rg.find_state(&Marking::empty(2)), None);
    }

    #[test]
    fn budget_exceeded_on_unbounded_net() {
        // t: {} is not allowed, so use a producer cycle that pumps tokens.
        let mut net: PetriNet<&str> = PetriNet::new();
        let p = net.add_place("p");
        let sink = net.add_place("sink");
        net.add_transition([p], "pump", [p, sink]).unwrap();
        net.set_initial(p, 1);
        let err = net
            .reachability(&ReachabilityOptions::with_max_states(100))
            .unwrap_err();
        assert_eq!(err, PetriError::StateBudgetExceeded { budget: 100 });
    }

    #[test]
    fn multiset_markings_explored() {
        // Two tokens circulate through one place: states distinguish counts.
        let mut net: PetriNet<&str> = PetriNet::new();
        let p = net.add_place("p");
        let q = net.add_place("q");
        net.add_transition([p], "a", [q]).unwrap();
        net.add_transition([q], "b", [p]).unwrap();
        net.set_initial(p, 2);
        let rg = net.reachability(&ReachabilityOptions::default()).unwrap();
        // (2,0), (1,1), (0,2)
        assert_eq!(rg.state_count(), 3);
        assert_eq!(rg.token_bound(), 2);
    }

    #[test]
    fn all_edges_enumerates_everything() {
        let rg = diamond()
            .reachability(&ReachabilityOptions::default())
            .unwrap();
        assert_eq!(rg.all_edges().count(), rg.edge_count());
    }

    #[test]
    fn as_digraph_mirrors_edges() {
        let rg = diamond()
            .reachability(&ReachabilityOptions::default())
            .unwrap();
        let g = rg.as_digraph();
        assert_eq!(g.node_count(), rg.state_count());
        let seen = g.reachable_from(rg.initial_state().index());
        assert!(seen.iter().all(|&b| b), "every state reachable from init");
    }

    #[test]
    fn compiled_matches_legacy_on_diamond() {
        let net = diamond();
        let a = net.reachability_bounded(&Budget::default()).into_value();
        let b = net
            .reachability_bounded_legacy(&Budget::default())
            .into_value();
        assert!(graphs_identical(&a, &b));
    }

    #[test]
    fn compiled_matches_legacy_under_exhaustion() {
        let mut net: PetriNet<&str> = PetriNet::new();
        let p = net.add_place("p");
        let sink = net.add_place("sink");
        net.add_transition([p], "pump", [p, sink]).unwrap();
        net.set_initial(p, 1);
        for budget in [Budget::states(5), Budget::new(100, 7), Budget::states(0)] {
            let a = net.reachability_bounded(&budget);
            let b = net.reachability_bounded_legacy(&budget);
            assert_eq!(a.exhausted(), b.exhausted(), "same exhaustion stats");
            assert!(graphs_identical(a.value(), b.value()), "same prefix");
        }
    }

    #[test]
    fn parallel_is_bit_identical_to_sequential() {
        let net = diamond();
        let seq = net.reachability_bounded(&Budget::default()).into_value();
        for threads in [1, 2, 3, 4] {
            let par = net
                .reachability_bounded_parallel(&Budget::default(), threads)
                .into_value();
            assert!(
                graphs_identical(&seq, &par),
                "thread count {threads} changed the graph"
            );
        }
    }

    #[test]
    fn parallel_exhaustion_matches_sequential() {
        let mut net: PetriNet<&str> = PetriNet::new();
        let p = net.add_place("p");
        let sink = net.add_place("sink");
        net.add_transition([p], "pump", [p, sink]).unwrap();
        net.set_initial(p, 1);
        let budget = Budget::states(17);
        let seq = net.reachability_bounded(&budget);
        for threads in [2, 4] {
            let par = net.reachability_bounded_parallel(&budget, threads);
            assert_eq!(seq.exhausted(), par.exhausted());
            assert!(graphs_identical(seq.value(), par.value()));
        }
    }

    #[test]
    fn parallel_handles_empty_preset_sources() {
        // An always-enabled source transition pumps a bounded buffer
        // drained by a consumer: candidate generation must include the
        // empty-preset transition in every state.
        let mut net: PetriNet<&str> = PetriNet::new();
        let buf = net.add_place("buf");
        net.add_transition([], "arrive", [buf]).unwrap();
        net.add_transition([buf], "serve", []).unwrap();
        let budget = Budget::states(50);
        let seq = net.reachability_bounded(&budget);
        let par = net.reachability_bounded_parallel(&budget, 4);
        assert_eq!(seq.exhausted(), par.exhausted());
        assert!(graphs_identical(seq.value(), par.value()));
    }

    #[test]
    fn edge_count_is_cached_and_consistent() {
        let rg = diamond()
            .reachability(&ReachabilityOptions::default())
            .unwrap();
        let summed: usize = rg.state_ids().map(|s| rg.edges(s).len()).sum();
        assert_eq!(rg.edge_count(), summed);
    }

    #[test]
    fn options_builders_compose() {
        let o = ReachabilityOptions::with_max_states(10).with_threads(4);
        assert_eq!(o.max_states, 10);
        assert_eq!(o.threads, 4);
        assert_eq!(ReachabilityOptions::default().threads, 1);
        let from_budget = ReachabilityOptions::from(Budget::states(7));
        assert_eq!(from_budget.max_states, 7);
        assert_eq!(from_budget.threads, 1);
    }

    #[test]
    fn try_from_index_rejects_overflow() {
        assert!(StateId::try_from_index(usize::MAX).is_err());
        assert_eq!(StateId::try_from_index(3).unwrap(), StateId(3));
    }

    #[test]
    fn resident_bytes_reported() {
        let rg = diamond()
            .reachability(&ReachabilityOptions::default())
            .unwrap();
        assert!(rg.resident_marking_bytes() > 0);
    }
}
