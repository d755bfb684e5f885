//! `paper_pipeline`: Section-6-scale jobs through every pipeline stage.
//!
//! One thread, closed loop. A round is 19 jobs in seeded order:
//!
//! * 12 `.cpn` pair jobs — text → parse → compose → receptiveness →
//!   reduce → canonical write + `NetId` — over six families: the I²C
//!   translator against `sender`, `sender_restricted` and
//!   `sender_inconsistent` (Figures 8/9), and rx-against-tx handshake
//!   pairs expanded from CIP (2-phase control, 4-phase control, 4-phase
//!   dual-rail data), three jobs a round for each I²C family and one for
//!   each handshake family. Each job picks one of four variants of its
//!   family that differ in place names only: receptiveness and reduce
//!   cost depends on declaration order, so reordering would make the
//!   mix, and the figures, depend on the seed.
//! * 4 CIP jobs — `protocol_cip` and its Figure 9 edit
//!   `protocol_cip_restricted`, each in two module orders, expanded
//!   through one `ExpandCache` per round, then translator against sender
//!   through the same stages. Expansion memoizes per module, so the
//!   first job of a round expands three modules, the edit re-expands only
//!   the sender, and the reordered graphs hit: 8 hits and 4 misses per
//!   round for any seed.
//! * 3 library jobs — a single-leaf edit and recompose of
//!   `translator_chain(1000)` (2) and `arbiter_tree(6)` (1), leaves taken
//!   from a seeded permutation. When the permutation wraps, the scenario
//!   is cold-rebuilt between rounds, untimed, so every edit misses the
//!   `DerivationStore` on its spine for the whole run.
//!
//! The fast jobs (handshake pairs, edits) are a third of a round, so the
//! median op lies inside the I²C/CIP jobs, not in the gap between them.
//!
//! Why: every stage does a similar share of the work and no layer
//! dominates, so format, cip, core and library changes show here while
//! explorer changes barely do.

use crate::corpus::{permutation, renamed_stg, rng, shuffle, Digest};
use crate::rounds::Workload;
use crate::trace::Tracer;
use cpn_cip::{ChannelSpec, CipGraph, DataEncoding, ExpandCache, HandshakeProtocol, Module};
use cpn_core::{
    check_receptiveness_composed_bounded, parallel_tracked_common,
    reduce_against_environment_fused_bounded, ReceptivenessReport,
};
use cpn_petri::hash::fnv1a_64;
use cpn_petri::{Bounded, Budget, NetId, Verdict};
use cpn_stg::{Stg, StgLabel};
use cpn_testkit::ModuleScenario;
use std::collections::{BTreeSet, HashMap};

const VARIANTS: usize = 4;
const CHAIN_EDITS: usize = 2;
const ARBITER_EDITS: usize = 1;
const HIDE_BUDGET: usize = cpn_serve::DEFAULT_HIDE_BUDGET;

fn budget() -> Budget {
    Budget::states(1_000_000)
}

/// A module/environment pair family with its fixed verdict.
pub struct Family {
    pub name: &'static str,
    pub module: Stg,
    pub env: Stg,
    pub receptive: bool,
    /// Jobs of this family in a round.
    pub per_round: usize,
}

/// The pair families, unpermuted.
pub fn families() -> Vec<Family> {
    use cpn_stg::protocol::{sender, sender_inconsistent, sender_restricted, translator};
    let (rx2, tx2) = handshake_pair(HandshakeProtocol::TwoPhase, None);
    let (rx4, tx4) = handshake_pair(HandshakeProtocol::FourPhase, None);
    let (rxd, txd) = handshake_pair(
        HandshakeProtocol::FourPhase,
        Some(DataEncoding::dual_rail("c", 2)),
    );
    vec![
        Family {
            name: "i2c.sender",
            module: translator(),
            env: sender(),
            receptive: true,
            per_round: 3,
        },
        Family {
            name: "i2c.sender_restricted",
            module: translator(),
            env: sender_restricted(),
            receptive: true,
            per_round: 3,
        },
        Family {
            name: "i2c.sender_inconsistent",
            module: translator(),
            env: sender_inconsistent(),
            receptive: false,
            per_round: 3,
        },
        Family {
            name: "hs.2ph.control",
            module: rx2,
            env: tx2,
            receptive: true,
            per_round: 1,
        },
        Family {
            name: "hs.4ph.control",
            module: rx4,
            env: tx4,
            receptive: true,
            per_round: 1,
        },
        Family {
            name: "hs.4ph.dual_rail",
            module: rxd,
            env: txd,
            receptive: true,
            per_round: 1,
        },
    ]
}

/// A transmitter looping on sends over channel `c` and a receiver
/// looping on receives, expanded to handshake STGs: `(rx, tx)`.
pub fn handshake_pair(protocol: HandshakeProtocol, data: Option<DataEncoding>) -> (Stg, Stg) {
    let mut tx = Module::new("tx");
    let p = tx.add_place("p");
    tx.set_initial(p, 1);
    let values = data.as_ref().map_or(0, DataEncoding::value_count);
    if values == 0 {
        tx.add_send([p], "c", None, [p]).expect("send");
    }
    for v in 0..values {
        tx.add_send([p], "c", Some(v), [p]).expect("send");
    }
    let mut rx = Module::new("rx");
    let r = rx.add_place("r");
    rx.set_initial(r, 1);
    rx.add_recv([r], "c", [r]).expect("recv");
    let mut g = CipGraph::new();
    let t = g.add_module(tx);
    let s = g.add_module(rx);
    let spec = match data {
        None => ChannelSpec::control("c"),
        Some(enc) => ChannelSpec::data("c", enc),
    };
    g.add_channel_edge(t, s, spec).expect("channel");
    let sys = g.expand(protocol).expect("expansion");
    (sys.stgs()[1].clone(), sys.stgs()[0].clone())
}

/// The Figure 4 graph with its modules added in `order` (a permutation
/// of sender, translator, receiver), optionally with the Figure 9a
/// restricted sender.
pub fn cip_graph(restricted: bool, order: &[usize]) -> CipGraph {
    use cpn_cip::protocol::{
        cmd_encoding, out_encoding, receiver, sender, sender_restricted, translator,
    };
    let mut g = CipGraph::new();
    let mut ids = [0usize; 3];
    for &m in order {
        ids[m] = g.add_module(match m {
            0 if restricted => sender_restricted(),
            0 => sender(),
            1 => translator(),
            _ => receiver(),
        });
    }
    g.add_channel_edge(ids[0], ids[1], ChannelSpec::data("cmd", cmd_encoding()))
        .expect("cmd channel");
    g.add_channel_edge(ids[1], ids[2], ChannelSpec::data("out", out_encoding()))
        .expect("out channel");
    g
}

/// The six orders of three modules.
const ORDERS: [[usize; 3]; 6] = [
    [0, 1, 2],
    [0, 2, 1],
    [1, 0, 2],
    [1, 2, 0],
    [2, 0, 1],
    [2, 1, 0],
];

/// The order that moves every module to another slot.
fn rotated(o: usize) -> usize {
    let [a, b, c] = ORDERS[o];
    ORDERS
        .iter()
        .position(|x| *x == [b, c, a])
        .expect("rotation is an order")
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Job {
    Pair { family: usize, variant: usize },
    Cip { restricted: bool, order: usize },
    Edit { scenario: usize, leaf: usize },
}

/// What a pipeline job produces.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PipeAnswer {
    pub receptive: Option<bool>,
    pub failing: BTreeSet<String>,
    pub composed_transitions: usize,
    pub reduced_transitions: usize,
    pub dead_removed: usize,
    pub canonical_hash: u64,
    pub id: NetId,
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Answer {
    Pipe(PipeAnswer),
    Edit(NetId),
}

/// A `ModuleScenario` generator, taking its size.
type Make = fn(usize) -> ModuleScenario;

struct Scenario {
    make: Make,
    size: usize,
    scn: ModuleScenario,
    top: NetId,
    order: Vec<usize>,
    edits_per_round: usize,
    /// How many times `scn` was built: edits of pass `builds - 1` over
    /// `order` are new to its store.
    builds: usize,
    seen: HashMap<usize, NetId>,
}

impl Scenario {
    /// Builds `make(size)` and its unedited top module from scratch.
    fn cold(make: Make, size: usize) -> Result<(ModuleScenario, NetId), String> {
        let mut scn = make(size);
        let leaves = scn.leaves.clone();
        match scn.run(&leaves, &budget()).map_err(|e| e.to_string())? {
            Bounded::Complete(id) => Ok((scn, id)),
            Bounded::Exhausted { .. } => Err(format!("{} cold build exhausted", scn.name)),
        }
    }

    /// The leaf of the `nth` edit, and the pass over `order` it is in.
    fn edit(&self, nth: usize) -> (usize, usize) {
        (self.order[nth % self.order.len()], nth / self.order.len())
    }
}

pub struct PaperPipeline {
    seed: u64,
    families: Vec<Family>,
    /// `texts[family][variant]`: module and env as one `.cpn` document.
    texts: Vec<Vec<String>>,
    graphs: Vec<Vec<CipGraph>>,
    scenarios: Vec<Scenario>,
    expand_cache: ExpandCache,
    reference: HashMap<Job, Answer>,
    pub digest: Digest,
}

impl PaperPipeline {
    /// Generates the corpus, cold-builds the module scenarios and
    /// computes every pair and CIP job once as its reference answer.
    pub fn setup(seed: u64) -> Result<PaperPipeline, String> {
        Self::setup_sized(seed, 1000, 6)
    }

    pub fn setup_sized(seed: u64, chain: usize, depth: usize) -> Result<PaperPipeline, String> {
        let families = families();
        let mut digest = Digest::default();
        let mut texts = Vec::new();
        for (f, fam) in families.iter().enumerate() {
            let mut r = rng(seed, 10 + f as u64);
            let variants: Vec<String> = (0..VARIANTS)
                .map(|_| {
                    let m = renamed_stg(&fam.module, &mut r);
                    let e = renamed_stg(&fam.env, &mut r);
                    format!(
                        "{}{}",
                        cpn_format::write_stg("module", &m),
                        cpn_format::write_stg("env", &e)
                    )
                })
                .collect();
            for t in &variants {
                digest.add(t.as_bytes());
            }
            texts.push(variants);
        }
        let graphs = [false, true]
            .iter()
            .map(|&restricted| ORDERS.iter().map(|o| cip_graph(restricted, o)).collect())
            .collect();
        let mut scenarios = Vec::new();
        let builders: [(Make, usize, usize); 2] = [
            (ModuleScenario::translator_chain, chain, CHAIN_EDITS),
            (ModuleScenario::arbiter_tree, depth, ARBITER_EDITS),
        ];
        for (i, (make, size, edits)) in builders.into_iter().enumerate() {
            let (scn, top) = Scenario::cold(make, size)?;
            let order = permutation(scn.leaves.len(), &mut rng(seed, 20 + i as u64));
            digest.add(
                &order
                    .iter()
                    .flat_map(|l| (*l as u64).to_le_bytes())
                    .collect::<Vec<_>>(),
            );
            scenarios.push(Scenario {
                make,
                size,
                scn,
                top,
                order,
                edits_per_round: edits,
                builds: 1,
                seen: HashMap::new(),
            });
        }
        let mut w = PaperPipeline {
            seed,
            families,
            texts,
            graphs,
            scenarios,
            expand_cache: ExpandCache::new(),
            reference: HashMap::new(),
            digest,
        };
        for r in 0..8 {
            let stream: Vec<u8> = w
                .jobs(r)
                .iter()
                .flat_map(|j| format!("{j:?};").into_bytes())
                .collect();
            w.digest.add(&stream);
        }
        w.compute_references()?;
        Ok(w)
    }

    fn compute_references(&mut self) -> Result<(), String> {
        let mut off = Tracer::new(std::time::Instant::now());
        let mut jobs: Vec<Job> = (0..self.families.len())
            .flat_map(|family| (0..VARIANTS).map(move |variant| Job::Pair { family, variant }))
            .collect();
        for restricted in [false, true] {
            jobs.extend((0..ORDERS.len()).map(|order| Job::Cip { restricted, order }));
        }
        for job in jobs {
            self.expand_cache = ExpandCache::new();
            let answer = self.exec(&job, &mut off)?;
            let Answer::Pipe(p) = &answer else {
                unreachable!("pair and CIP jobs answer Pipe")
            };
            let (name, expected) = match job {
                Job::Pair { family, .. } => {
                    (self.families[family].name, self.families[family].receptive)
                }
                _ => ("protocol_cip", true),
            };
            if p.receptive != Some(expected) {
                return Err(format!(
                    "{name} {job:?}: receptive {:?}, paper verdict {expected}",
                    p.receptive
                ));
            }
            self.reference.insert(job, answer);
        }
        self.expand_cache = ExpandCache::new();
        Ok(())
    }

    /// The jobs of round `r`: a pure function of the seed and `r`.
    pub fn jobs(&self, r: u64) -> Vec<Job> {
        let mut g = rng(self.seed, 1000 + r);
        let mut jobs = Vec::new();
        for (family, f) in self.families.iter().enumerate() {
            for _ in 0..f.per_round {
                jobs.push(Job::Pair {
                    family,
                    variant: g.below(VARIANTS),
                });
            }
        }
        let o1 = g.below(ORDERS.len());
        for order in [o1, rotated(o1)] {
            for restricted in [false, true] {
                jobs.push(Job::Cip { restricted, order });
            }
        }
        for (scenario, s) in self.scenarios.iter().enumerate() {
            for k in 0..s.edits_per_round {
                let (leaf, _) = s.edit(r as usize * s.edits_per_round + k);
                jobs.push(Job::Edit { scenario, leaf });
            }
        }
        shuffle(&mut jobs, &mut g);
        jobs
    }

    fn pipe(&self, module: &Stg, env: &Stg, tr: &mut Tracer) -> Result<PipeAnswer, String> {
        let budget = budget();
        let louts = module.output_labels();
        let routs = env.output_labels();
        let comp = tr
            .span("core.compose", || {
                parallel_tracked_common(module.net(), env.net())
            })
            .map_err(|e| e.to_string())?;
        tr.count(
            "core.compose.transitions",
            comp.net.transition_count() as u64,
        );
        let verdict = tr.span("core.receptive", || {
            check_receptiveness_composed_bounded(&comp, &louts, &routs, &budget)
        });
        let (receptive, failing) = verdict_parts(verdict);
        let reduced = tr
            .span("core.reduce", || {
                reduce_against_environment_fused_bounded(
                    module.net(),
                    env.net(),
                    &budget,
                    HIDE_BUDGET,
                )
            })
            .map_err(|e| e.to_string())?;
        let Bounded::Complete(red) = reduced else {
            return Err("reduction exhausted its budget".to_owned());
        };
        tr.count(
            "core.reduce.transitions_out",
            red.net.transition_count() as u64,
        );
        tr.count("core.reduce.dead_removed", red.dead_removed as u64);
        let text = tr.span("format.write", || {
            cpn_format::write_net_canonical("reduced", &red.net)
        });
        let id = tr.span("petri.netid", || NetId::of(&red.net));
        Ok(PipeAnswer {
            receptive,
            failing,
            composed_transitions: comp.net.transition_count(),
            reduced_transitions: red.net.transition_count(),
            dead_removed: red.dead_removed,
            canonical_hash: fnv1a_64(text.as_bytes()),
            id,
        })
    }
}

fn verdict_parts(v: Verdict<ReceptivenessReport<StgLabel>>) -> (Option<bool>, BTreeSet<String>) {
    match v {
        Verdict::Holds => (Some(true), BTreeSet::new()),
        Verdict::Fails(report) => (
            Some(false),
            report
                .failures
                .iter()
                .map(|f| f.label.to_string())
                .collect(),
        ),
        Verdict::Unknown(_) => (None, BTreeSet::new()),
    }
}

impl Workload for PaperPipeline {
    type Job = Job;
    type Answer = Answer;

    fn round(&mut self, r: u64) -> Vec<Job> {
        // One design iteration per round: the expansion memo starts empty.
        self.expand_cache = ExpandCache::new();
        for s in &mut self.scenarios {
            let (_, pass) = s.edit((r as usize + 1) * s.edits_per_round - 1);
            if pass >= s.builds {
                // Free the old store first, so that the rebuild does not
                // raise peak RSS. Set-up built the same scenario, so the
                // rebuild cannot fail.
                s.scn = (s.make)(1);
                (s.scn, _) = Scenario::cold(s.make, s.size).expect("cold build as in set-up");
                s.builds = pass + 1;
            }
        }
        self.jobs(r)
    }

    fn exec(&mut self, job: &Job, tr: &mut Tracer) -> Result<Answer, String> {
        match *job {
            Job::Pair { family, variant } => {
                let text = &self.texts[family][variant];
                tr.count("format.parse.bytes", text.len() as u64);
                let doc = tr
                    .span("format.parse", || cpn_format::parse(text))
                    .map_err(|e| e.to_string())?;
                let [(_, module), (_, env)] = &doc.stgs[..] else {
                    return Err("pair document must hold two STGs".to_owned());
                };
                self.pipe(module, env, tr).map(Answer::Pipe)
            }
            Job::Cip { restricted, order } => {
                let graph = &self.graphs[usize::from(restricted)][order];
                let (h0, m0) = self.expand_cache.stats();
                let cache = &mut self.expand_cache;
                let sys = tr
                    .span("cip.expand", || {
                        graph.expand_cached(HandshakeProtocol::FourPhase, cache)
                    })
                    .map_err(|e| e.to_string())?;
                let (h1, m1) = self.expand_cache.stats();
                tr.count("cip.expand.hits", h1 - h0);
                tr.count("cip.expand.misses", m1 - m0);
                let by_name = |n: &str| {
                    sys.names()
                        .iter()
                        .position(|x| x == n)
                        .map(|i| &sys.stgs()[i])
                };
                let sender = by_name(if restricted {
                    "sender_restricted"
                } else {
                    "sender"
                });
                let (Some(translator), Some(sender)) = (by_name("translator"), sender) else {
                    return Err("expanded system lacks translator or sender".to_owned());
                };
                self.pipe(translator, sender, tr).map(Answer::Pipe)
            }
            Job::Edit { scenario, leaf } => {
                let s = &mut self.scenarios[scenario];
                let edited = tr.span("core.library", || s.scn.edited_leaf(leaf));
                let mut leaves = s.scn.leaves.clone();
                leaves[leaf] = edited;
                let before = s.scn.lib.store().stats();
                let top = tr.span("core.library", || s.scn.run(&leaves, &budget()));
                let after = s.scn.lib.store().stats();
                tr.count("core.library.hits", after.hits - before.hits);
                tr.count("core.library.misses", after.misses - before.misses);
                match top.map_err(|e| e.to_string())? {
                    Bounded::Complete(id) => Ok(Answer::Edit(id)),
                    Bounded::Exhausted { .. } => Err("recompose exhausted its budget".to_owned()),
                }
            }
        }
    }

    fn check(&mut self, job: &Job, answer: &Answer) -> bool {
        match (job, answer) {
            (Job::Edit { scenario, leaf }, Answer::Edit(id)) => {
                let s = &mut self.scenarios[*scenario];
                *id != s.top && *s.seen.entry(*leaf).or_insert(*id) == *id
            }
            _ => self.reference.get(job) == Some(answer),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_pipeline_answers_match_references_and_paper_verdicts() {
        let mut w = PaperPipeline::setup_sized(5, 16, 2).expect("setup");
        let mut tr = Tracer::new(std::time::Instant::now());
        for r in 0..3 {
            for job in w.round(r) {
                let a = w.exec(&job, &mut tr).expect("job runs");
                assert!(w.check(&job, &a), "{job:?} answered {a:?}");
            }
        }
    }

    #[test]
    fn incremental_edit_equals_cold_recompose() {
        let w = PaperPipeline::setup_sized(5, 16, 2).expect("setup");
        let mut w = w;
        let mut tr = Tracer::new(std::time::Instant::now());
        let job = Job::Edit {
            scenario: 0,
            leaf: 7,
        };
        let Answer::Edit(warm) = w.exec(&job, &mut tr).expect("edit") else {
            panic!()
        };
        let mut cold = ModuleScenario::translator_chain(16);
        let mut leaves = cold.leaves.clone();
        leaves[7] = cold.edited_leaf(7);
        let Bounded::Complete(id) = cold.run(&leaves, &budget()).expect("cold") else {
            panic!()
        };
        assert_eq!(warm, id);
    }

    #[test]
    fn every_edit_misses_the_store_across_permutation_wraps() {
        // Chain 16 wraps every 8 rounds, arbiter depth 2 every 7.
        let mut w = PaperPipeline::setup_sized(4, 16, 2).expect("setup");
        let leaves: Vec<usize> = w.scenarios.iter().map(|s| s.order.len()).collect();
        assert_eq!(leaves, [16, 7]);
        let mut tr = Tracer::new(std::time::Instant::now());
        tr.set(true, true);
        for r in 0..30 {
            for job in w.round(r) {
                if let Job::Edit { .. } = job {
                    let before = tr.counter("core.library.misses");
                    let a = w.exec(&job, &mut tr).expect("edit runs");
                    assert!(w.check(&job, &a), "{job:?} answered {a:?}");
                    assert!(
                        tr.counter("core.library.misses") > before,
                        "round {r}: {job:?} repeated"
                    );
                }
            }
        }
        assert_eq!(w.scenarios[1].builds, 5);
    }

    #[test]
    fn rounds_have_a_fixed_mix_and_expand_hit_count() {
        let mut w = PaperPipeline::setup_sized(9, 16, 2).expect("setup");
        let mut tr = Tracer::new(std::time::Instant::now());
        tr.set(true, true);
        let jobs = w.round(3);
        assert_eq!(jobs.len(), 19);
        for job in &jobs {
            w.exec(job, &mut tr).expect("job runs");
        }
        assert_eq!(tr.counter("cip.expand.hits"), 8);
        assert_eq!(tr.counter("cip.expand.misses"), 4);
    }

    #[test]
    fn same_seed_same_corpus() {
        let a = PaperPipeline::setup_sized(11, 16, 2)
            .expect("setup")
            .digest
            .hex();
        let b = PaperPipeline::setup_sized(11, 16, 2)
            .expect("setup")
            .digest
            .hex();
        let c = PaperPipeline::setup_sized(12, 16, 2)
            .expect("setup")
            .digest
            .hex();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
