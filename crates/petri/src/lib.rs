//! General labeled Petri net kernel.
//!
//! This crate implements the Petri net substrate of de Jong & Lin,
//! *"A Communicating Petri Net Model for the Design of Concurrent
//! Asynchronous Modules"* (DAC 1994), Section 2.1: labeled Petri nets
//! `N = (A, P, →, M0)` with a set of action labels `A`, places `P`, a
//! transition relation `→ ⊆ 2^P × A × 2^P`, and an initial marking
//! `M0 : P → ℕ`.
//!
//! The kernel is deliberately *general*: markings are multisets (nets need
//! not be safe), presets and postsets are place **sets** as in the paper,
//! and every analysis that requires boundedness detects — rather than
//! assumes — it.
//!
//! # Modules
//!
//! * [`alphabet`] — the interned alphabet layer: dense [`Sym`] symbols,
//!   the label [`Interner`], and [`AlphaSet`] bitset label sets.
//! * [`net`] — the arena-indexed [`PetriNet`] data structure and builder API.
//! * [`budget`] — exploration [`Budget`]s, the [`Bounded`] partial-result
//!   wrapper and the tri-state [`Verdict`] of budgeted checkers.
//! * [`marking`] — multiset [`Marking`]s and the firing rule (Def 2.2).
//! * [`store`] — the interned flat-arena [`MarkingStore`] with its
//!   open-addressing hash index (the exploration kernel's state storage).
//! * [`compiled`] — the CSR-compiled firing rule ([`CompiledNet`]) with
//!   place→consumer candidate generation.
//! * [`hash`] — the shared deterministic content-hash primitives
//!   (FNV-1a 64/128, SplitMix64 finalizer).
//! * [`netid`] — content-addressed structural identity: canonical form
//!   and the [`NetId`] cache key.
//! * [`reachability`] — explicit reachability graphs with state budgets,
//!   sequential or deterministically parallel.
//! * [`coverability`] — Karp–Miller style boundedness detection.
//! * [`analysis`] — liveness, safety, k-boundedness, deadlock, reversibility.
//! * [`structural`] — net-class recognition (state machine, marked graph,
//!   free choice) and strong connectivity.
//! * [`invariant`] — minimal P/T-semiflows via the Farkas algorithm.
//! * [`dead`] — dead-transition detection and removal (reachability-based
//!   and structural, for marked graphs).
//! * [`graph`] — the small directed-graph toolkit (Tarjan SCC,
//!   Bellman–Ford difference constraints) shared by the analyses.
//!
//! # Example
//!
//! ```
//! use cpn_petri::{PetriNet, ReachabilityOptions};
//!
//! # fn main() -> Result<(), cpn_petri::PetriError> {
//! // A two-place cycle: a fires, then b, forever.
//! let mut net: PetriNet<&'static str> = PetriNet::new();
//! let p = net.add_place("p");
//! let q = net.add_place("q");
//! net.add_transition([p], "a", [q])?;
//! net.add_transition([q], "b", [p])?;
//! net.set_initial(p, 1);
//!
//! let rg = net.reachability(&ReachabilityOptions::default())?;
//! assert_eq!(rg.state_count(), 2);
//! assert!(net.analysis(&rg).live);
//! # Ok(())
//! # }
//! ```

#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod alphabet;
pub mod analysis;
pub mod budget;
pub mod compiled;
pub mod coverability;
pub mod dead;
pub mod error;
pub mod graph;
pub mod hash;
pub mod invariant;
pub mod label;
pub mod marking;
pub mod mg;
pub mod net;
pub mod netid;
pub mod reachability;
pub mod siphon;
pub mod store;
pub mod structural;

pub use alphabet::{AlphaSet, Interner, Sym};
pub use analysis::{Analysis, LivenessLevel};
pub use budget::{
    Bounded, Budget, CancelScope, CancelToken, Deadline, Exhausted, Meter, Resource, Verdict,
    DEFAULT_MAX_STATES, DEFAULT_MAX_TRANSITIONS, POLL_INTERVAL,
};
pub use compiled::{CandidateScratch, CompiledNet, StubbornScratch, OMEGA};
pub use coverability::{CoverabilityOutcome, CoverabilityTree};
pub use dead::{dead_transitions_rg, dead_transitions_structural_mg, remove_dead};
pub use error::PetriError;
pub use invariant::{semiflows_p, semiflows_t, Semiflow};
pub use label::Label;
pub use marking::Marking;
pub use mg::{mg_live_structural, mg_place_bounds, mg_safe_structural, token_free_cycle};
pub use net::{PetriNet, Place, PlaceId, Transition, TransitionId};
pub use netid::{canonical_form, canonical_order, CanonicalOrder, NetId};
pub use reachability::{
    reachability_bounded_compiled, reachability_bounded_parallel_compiled,
    reachability_bounded_spilled, ReachabilityGraph, ReachabilityOptions, SpilledReachability,
    StateId,
};
pub use siphon::{commoner_live, is_siphon, is_trap, max_siphon_in, max_trap_in, minimal_siphons};
pub use store::{MarkingStore, SpillConfig, SpillStats, SpillStore};
pub use structural::{NetClass, StructuralReport};
