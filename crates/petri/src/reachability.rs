//! Explicit reachability graphs.
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
//! 3. One frontier driver (`explore`) runs every sequential BFS: it is
//!    generic over the marking store and takes a successor policy (every
//!    enabled transition, or a stubborn subset), so the full, the
//!    stubborn-reduced and the out-of-core explorers differ only in the
//!    arguments they pass.
//!
//! For state spaces whose resident marking set outgrows RAM,
//! [`reachability_bounded_spilled`] runs the driver over a [`SpillStore`],
//! whose delta-encoded segments page out to an unlinked temp file under a
//! configurable resident-byte ceiling.
//!
//! The pre-arena explorer survives as
//! [`PetriNet::reachability_bounded_legacy`], the reference
//! implementation the equivalence property suite differentiates against.

use crate::budget::{Bounded, Budget, Meter, Resource};
use crate::compiled::{CandidateScratch, CompiledNet, StubbornScratch};
use crate::error::PetriError;
use crate::graph::DiGraph;
use crate::label::Label;
use crate::marking::Marking;
use crate::net::{PetriNet, PlaceId, TransitionId};
use crate::store::{MarkingStore, SpillConfig, SpillStats, SpillStore};
use std::collections::HashMap;
use std::fmt;

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
    /// Opt into stubborn-set partial-order reduction. The reduced graph
    /// contains **every deadlock marking** of the full graph but in
    /// general fewer states and interleavings, so it is valid for
    /// deadlock-style queries only — language, liveness, and safety must
    /// explore unreduced. Defaults to `false`.
    pub stubborn: bool,
}

impl Default for ReachabilityOptions {
    fn default() -> Self {
        ReachabilityOptions {
            max_states: crate::budget::DEFAULT_MAX_STATES,
            stubborn: false,
        }
    }
}

impl ReachabilityOptions {
    /// Options with an explicit state budget.
    pub fn with_max_states(max_states: usize) -> Self {
        ReachabilityOptions {
            max_states,
            stubborn: false,
        }
    }

    /// Returns the options with stubborn-set reduction toggled.
    pub fn with_stubborn(mut self, stubborn: bool) -> Self {
        self.stubborn = stubborn;
        self
    }
}

impl From<Budget> for ReachabilityOptions {
    /// Projects a [`Budget`] onto the options type (only the state cap is
    /// representable; exploration stays unreduced).
    fn from(b: Budget) -> Self {
        ReachabilityOptions {
            max_states: b.max_states,
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
        reachability_bounded_compiled(&self.compile(), self.initial_marking().as_slice(), budget)
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
        let successors = Successors::Stubborn {
            seeds: &seeds,
            scratch: StubbornScratch::new(compiled.transition_count()),
        };
        let store = MarkingStore::new(compiled.place_count());
        explore(
            &compiled,
            self.initial_marking().as_slice(),
            budget,
            store,
            successors,
        )
        .map(ReachabilityGraph::from)
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
    let successors = Successors::Full(CandidateScratch::new(compiled.transition_count()));
    let store = MarkingStore::new(compiled.place_count());
    explore(compiled, m0, budget, store, successors).map(ReachabilityGraph::from)
}

/// [`reachability_bounded_compiled`] under its former multi-threaded
/// name; `threads` is ignored. Kept only because the end-to-end
/// benchmark crate still calls it; it goes with the benchmark's next
/// change.
#[doc(hidden)]
pub fn reachability_bounded_parallel_compiled(
    compiled: &CompiledNet,
    m0: &[u32],
    budget: &Budget,
    _threads: usize,
) -> Bounded<ReachabilityGraph> {
    reachability_bounded_compiled(compiled, m0, budget)
}

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

// ----------------------------------------------------------------------
// The frontier driver
// ----------------------------------------------------------------------

/// The marking store a BFS runs over: the resident [`MarkingStore`] or
/// the spillable [`SpillStore`]. Both number rows densely in insertion
/// order, so the driver's discovery order is the state numbering on
/// either tier.
trait FrontierStore {
    fn len(&self) -> usize;
    /// Copies row `i` into `out` (cleared first) and returns its cached
    /// hash.
    fn load(&mut self, i: usize, out: &mut Vec<u32>) -> Result<u64, PetriError>;
    fn find(&mut self, m: &[u32], hash: u64) -> Result<Option<u32>, PetriError>;
    /// Inserts a row `find` just reported absent.
    fn insert(&mut self, m: &[u32], hash: u64) -> Result<u32, PetriError>;
}

impl FrontierStore for MarkingStore {
    #[inline]
    fn len(&self) -> usize {
        MarkingStore::len(self)
    }

    #[inline]
    fn load(&mut self, i: usize, out: &mut Vec<u32>) -> Result<u64, PetriError> {
        out.clear();
        out.extend_from_slice(self.get(i));
        Ok(self.hash_of(i))
    }

    #[inline]
    fn find(&mut self, m: &[u32], hash: u64) -> Result<Option<u32>, PetriError> {
        Ok(self.find_hashed(m, hash))
    }

    #[inline]
    fn insert(&mut self, m: &[u32], hash: u64) -> Result<u32, PetriError> {
        self.insert_new_hashed(m, hash)
    }
}

impl FrontierStore for SpillStore {
    fn len(&self) -> usize {
        SpillStore::len(self)
    }

    fn load(&mut self, i: usize, out: &mut Vec<u32>) -> Result<u64, PetriError> {
        self.get_into(i, out)?;
        Ok(self.hash_of(i))
    }

    fn find(&mut self, m: &[u32], hash: u64) -> Result<Option<u32>, PetriError> {
        self.find_hashed(m, hash)
    }

    fn insert(&mut self, m: &[u32], hash: u64) -> Result<u32, PetriError> {
        self.insert_new_hashed(m, hash)
    }
}

/// Which enabled transitions the driver fires at a state.
enum Successors<'a> {
    /// Every enabled transition.
    Full(CandidateScratch),
    /// The enabled members of a stubborn set closed over `seeds`
    /// ([`CompiledNet::stubborn_enabled`]).
    Stubborn {
        seeds: &'a [u32],
        scratch: StubbornScratch,
    },
}

impl Successors<'_> {
    /// Writes the transitions to fire at `m` into `out`, ascending — the
    /// legacy full scan's order, which bit-identical graphs and budget
    /// accounting depend on.
    #[inline]
    fn collect(&mut self, compiled: &CompiledNet, m: &[u32], out: &mut Vec<u32>) {
        match self {
            Successors::Full(scratch) => {
                compiled.enabled_candidates(m, scratch, out);
                out.retain(|&t| compiled.is_enabled(m, t));
            }
            Successors::Stubborn { seeds, scratch } => {
                compiled.stubborn_enabled(m, seeds, scratch, out);
            }
        }
    }
}

/// What a BFS built: the store, whose ids are the discovery order, and
/// the CSR edge arrays (`edge_data[edge_off[s]..edge_off[s + 1]]` are the
/// out-edges of state `s`).
struct Explored<S> {
    store: S,
    edge_data: Vec<(TransitionId, StateId)>,
    edge_off: Vec<usize>,
}

impl From<Explored<MarkingStore>> for ReachabilityGraph {
    fn from(e: Explored<MarkingStore>) -> Self {
        ReachabilityGraph {
            store: e.store,
            edge_data: e.edge_data,
            edge_off: e.edge_off,
            initial: StateId(0),
        }
    }
}

/// The one breadth-first frontier loop behind every sequential explorer.
///
/// States are expanded in id order; each fires the transitions
/// `successors` picks, in place with a delta-updated hash (apply → probe
/// or insert → revert), so no successor is copied or fully rehashed.
/// Meter accounting matches the legacy explorer event for event, which
/// keeps `Exhausted` statistics identical across explorers. A store
/// failure (allocator refusal, id-space overflow, spill i/o) ends the
/// run as [`Bounded::Exhausted`] with [`Resource::Store`] and the sound
/// prefix built so far.
fn explore<S: FrontierStore>(
    compiled: &CompiledNet,
    m0: &[u32],
    budget: &Budget,
    mut store: S,
    mut successors: Successors<'_>,
) -> Bounded<Explored<S>> {
    let mut meter = Meter::new(budget);
    if let Err(e) = store.insert(m0, MarkingStore::hash_slice(m0)) {
        panic!("marking store rejected the initial marking: {e}");
    }
    // The initial state always exists, even under a zero budget.
    meter.take_state();

    let mut edge_data: Vec<(TransitionId, StateId)> = Vec::new();
    let mut edge_off: Vec<usize> = vec![0];
    let mut cur: Vec<u32> = Vec::with_capacity(compiled.place_count());
    let mut fire: Vec<u32> = Vec::new();

    let mut frontier = 0usize;
    'explore: while frontier < store.len() {
        // Per-state deadline/cancel poll (coarse: real wall-clock reads
        // happen every POLL_INTERVAL ticks inside the meter).
        if meter.should_stop() {
            break 'explore;
        }
        let Ok(cur_hash) = store.load(frontier, &mut cur) else {
            meter.stop(Resource::Store);
            break 'explore;
        };
        successors.collect(compiled, &cur, &mut fire);
        for &t in &fire {
            if !meter.take_transition() {
                break 'explore;
            }
            let hash = compiled.apply_hashed(&mut cur, cur_hash, t);
            debug_assert_eq!(hash, MarkingStore::hash_slice(&cur));
            let target = match store.find(&cur, hash) {
                Ok(Some(id)) => Ok(id),
                Ok(None) if meter.take_state() => store.insert(&cur, hash),
                // The state cap ran out.
                Ok(None) => {
                    compiled.unapply(&mut cur, t);
                    break 'explore;
                }
                Err(e) => Err(e),
            };
            compiled.unapply(&mut cur, t);
            let Ok(target) = target else {
                meter.stop(Resource::Store);
                break 'explore;
            };
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

    meter.finish(Explored {
        store,
        edge_data,
        edge_off,
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
/// Runs the same frontier driver as the resident kernel, so ids and
/// edges match byte-for-byte; only the marking storage tier differs. A
/// spill i/o failure ends the exploration as [`Bounded::Exhausted`] with
/// [`Resource::Store`] and the sound prefix built so far.
pub fn reachability_bounded_spilled(
    compiled: &CompiledNet,
    m0: &[u32],
    budget: &Budget,
    config: &SpillConfig,
) -> Bounded<SpilledReachability> {
    let successors = Successors::Full(CandidateScratch::new(compiled.transition_count()));
    let store = SpillStore::new(compiled.place_count(), config);
    explore(compiled, m0, budget, store, successors).map(|e| SpilledReachability {
        store: e.store,
        edge_data: e.edge_data,
        edge_off: e.edge_off,
        initial: StateId(0),
    })
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
    fn compiled_handles_empty_preset_sources() {
        // An always-enabled source transition pumps a buffer drained by
        // a consumer: candidate generation must include the empty-preset
        // transition in every state.
        let mut net: PetriNet<&str> = PetriNet::new();
        let buf = net.add_place("buf");
        net.add_transition([], "arrive", [buf]).unwrap();
        net.add_transition([buf], "serve", []).unwrap();
        let budget = Budget::states(50);
        let a = net.reachability_bounded(&budget);
        let b = net.reachability_bounded_legacy(&budget);
        assert_eq!(a.exhausted(), b.exhausted());
        assert!(graphs_identical(a.value(), b.value()));
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
        let o = ReachabilityOptions::with_max_states(10).with_stubborn(true);
        assert_eq!(o.max_states, 10);
        assert!(o.stubborn);
        assert!(!ReachabilityOptions::default().stubborn);
        let from_budget = ReachabilityOptions::from(Budget::states(7));
        assert_eq!(from_budget.max_states, 7);
        assert!(!from_budget.stubborn);
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
