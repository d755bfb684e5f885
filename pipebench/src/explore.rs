//! `explore_heavy`: receptiveness and deadlock-freedom jobs on
//! compositions of 10^4–10^6 states.
//!
//! One thread, closed loop. A round is 13 jobs in seeded order, each
//! starting from `.cpn` text and calling only the default sequential
//! entry points (the `threads` knob is never set):
//!
//! * receptiveness of module `m0` against the rest of a CIP chain —
//!   2-phase chains of 12, 14, 16 and 16 modules (11k–390k states) and
//!   4-phase chains of 8, 9 and 10 modules (7k–89k states);
//! * deadlock freedom of `sync_pipeline_net(k)` for k = 16, 16, 17, 18
//!   (2^k states) and of the 3×3 `sync_mesh` with 8 and 10 tokens
//!   (closed-form state counts, 13k and 44k).
//!
//! The two k = 16 jobs put the median op inside one cluster of
//! similar-cost jobs (k = 16 and the 14-module 2-phase chain), and the
//! two 16-module chains put p90 inside the slowest pair, so neither
//! percentile sits at the edge of a job size. Inputs keep their
//! numbering (only place names vary with the seed): exploration cost
//! depends on declaration order by up to 20%, which would make seeds
//! disagree. No job reduces: hiding the rest of a chain diverges
//! (`HideSelfLoop`).
//! Why: exploration is over 90% of job time, so explorer and state
//! store changes show here, `peak_rss_mb` follows the state store, and
//! format or serve changes should move nothing.

use crate::corpus::{renamed, renamed_stg, rng, shuffle, Digest};
use crate::rounds::Workload;
use crate::trace::Tracer;
use cpn_cip::{ChannelSpec, CipGraph, ExpandedSystem, HandshakeProtocol, Module};
use cpn_core::{check_receptiveness_composed_bounded, parallel_tracked_common};
use cpn_petri::{Bounded, Budget, Verdict};
use cpn_testkit::{sync_mesh, sync_mesh_states, sync_pipeline_net};
use std::collections::BTreeSet;

const VARIANTS: usize = 2;

fn budget() -> Budget {
    Budget::states(4_000_000)
}

/// One job kind of the deck.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Item {
    /// `m0` against the rest of an `n`-module CIP chain.
    Chain {
        four_phase: bool,
        n: usize,
    },
    SyncPipeline {
        k: usize,
    },
    Mesh {
        tokens: u32,
    },
}

impl Item {
    fn answer(self) -> Answer {
        match self {
            // A 2-phase sender may toggle its request again while the
            // next stage is still busy: non-receptive. The 4-phase
            // return-to-zero handshake closes that window.
            Item::Chain {
                four_phase: false, ..
            } => Answer::Receptive(Some(false), BTreeSet::from(["c0_req~".to_owned()])),
            Item::Chain {
                four_phase: true, ..
            } => Answer::Receptive(Some(true), BTreeSet::new()),
            Item::SyncPipeline { k } => Answer::Explored {
                states: 1 << k,
                deadlocks: 0,
            },
            Item::Mesh { tokens } => Answer::Explored {
                states: sync_mesh_states(3, 3, tokens) as usize,
                deadlocks: 0,
            },
        }
    }
}

/// The deck of one round, in generation order.
pub fn deck() -> Vec<Item> {
    let mut d = Vec::new();
    for n in [12, 14, 16, 16] {
        d.push(Item::Chain {
            four_phase: false,
            n,
        });
    }
    for n in [8, 9, 10] {
        d.push(Item::Chain {
            four_phase: true,
            n,
        });
    }
    for k in [16, 16, 17, 18] {
        d.push(Item::SyncPipeline { k });
    }
    for tokens in [8, 10] {
        d.push(Item::Mesh { tokens });
    }
    d
}

/// The expanded CIP chain `m0 → m1 → … → m{n-1}` on control channels.
pub fn chain(n: usize, protocol: HandshakeProtocol) -> ExpandedSystem {
    let mut graph = CipGraph::new();
    let mut ids = Vec::new();
    for i in 0..n {
        let mut m = Module::new(format!("m{i}"));
        let p = m.add_place("idle");
        m.set_initial(p, 1);
        if i == 0 {
            m.add_send([p], "c0", None, [p]).expect("send");
        } else if i == n - 1 {
            m.add_recv([p], format!("c{}", i - 1).as_str(), [p])
                .expect("recv");
        } else {
            let q = m.add_place("got");
            m.add_recv([p], format!("c{}", i - 1).as_str(), [q])
                .expect("recv");
            m.add_send([q], format!("c{i}").as_str(), None, [p])
                .expect("send");
        }
        ids.push(graph.add_module(m));
    }
    for i in 0..n - 1 {
        graph
            .add_channel_edge(
                ids[i],
                ids[i + 1],
                ChannelSpec::control(format!("c{i}").as_str()),
            )
            .expect("channel");
    }
    graph.expand(protocol).expect("expansion")
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Answer {
    Receptive(Option<bool>, BTreeSet<String>),
    Explored { states: usize, deadlocks: usize },
}

pub struct ExploreHeavy {
    seed: u64,
    deck: Vec<Item>,
    /// `texts[item][variant]`.
    texts: Vec<Vec<String>>,
    pub digest: Digest,
}

impl ExploreHeavy {
    pub fn setup(seed: u64) -> ExploreHeavy {
        Self::with_deck(seed, deck())
    }

    pub fn with_deck(seed: u64, deck: Vec<Item>) -> ExploreHeavy {
        let mut digest = Digest::default();
        let mut texts = Vec::new();
        for (i, item) in deck.iter().enumerate() {
            let mut r = rng(seed, 30 + i as u64);
            let variants: Vec<String> = match *item {
                Item::Chain { four_phase, n } => {
                    let protocol = if four_phase {
                        HandshakeProtocol::FourPhase
                    } else {
                        HandshakeProtocol::TwoPhase
                    };
                    let sys = chain(n, protocol);
                    let mut rest = sys.stgs()[1].clone();
                    for s in &sys.stgs()[2..] {
                        rest = rest.compose(s).expect("chain composes");
                    }
                    (0..VARIANTS)
                        .map(|_| {
                            let m = renamed_stg(&sys.stgs()[0], &mut r);
                            let e = renamed_stg(&rest, &mut r);
                            format!(
                                "{}{}",
                                cpn_format::write_stg("module", &m),
                                cpn_format::write_stg("env", &e)
                            )
                        })
                        .collect()
                }
                Item::SyncPipeline { k } => {
                    let net = sync_pipeline_net(k);
                    (0..VARIANTS)
                        .map(|_| cpn_format::write_net("net", &renamed(&net, &mut r)))
                        .collect()
                }
                Item::Mesh { tokens } => {
                    let net = sync_mesh(3, 3, tokens);
                    (0..VARIANTS)
                        .map(|_| cpn_format::write_net("net", &renamed(&net, &mut r)))
                        .collect()
                }
            };
            for t in &variants {
                digest.add(t.as_bytes());
            }
            texts.push(variants);
        }
        let mut w = ExploreHeavy {
            seed,
            deck,
            texts,
            digest,
        };
        for r in 0..8 {
            let stream: Vec<u8> = w
                .round(r)
                .iter()
                .flat_map(|j| format!("{j:?};").into_bytes())
                .collect();
            w.digest.add(&stream);
        }
        w
    }
}

impl Workload for ExploreHeavy {
    /// `(deck index, variant)`.
    type Job = (usize, usize);
    type Answer = Answer;

    fn round(&mut self, r: u64) -> Vec<(usize, usize)> {
        let mut g = rng(self.seed, 2000 + r);
        let mut jobs: Vec<(usize, usize)> = (0..self.deck.len())
            .map(|i| (i, g.below(VARIANTS)))
            .collect();
        shuffle(&mut jobs, &mut g);
        jobs
    }

    fn exec(
        &mut self,
        &(item, variant): &(usize, usize),
        tr: &mut Tracer,
    ) -> Result<Answer, String> {
        let text = &self.texts[item][variant];
        tr.count("format.parse.bytes", text.len() as u64);
        let doc = tr
            .span("format.parse", || cpn_format::parse(text))
            .map_err(|e| e.to_string())?;
        let budget = budget();
        match self.deck[item] {
            Item::Chain { .. } => {
                let [(_, module), (_, env)] = &doc.stgs[..] else {
                    return Err("chain document must hold two STGs".to_owned());
                };
                let (louts, routs) = (module.output_labels(), env.output_labels());
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
                Ok(match verdict {
                    Verdict::Holds => Answer::Receptive(Some(true), BTreeSet::new()),
                    Verdict::Fails(r) => Answer::Receptive(
                        Some(false),
                        r.failures.iter().map(|f| f.label.to_string()).collect(),
                    ),
                    Verdict::Unknown(_) => Answer::Receptive(None, BTreeSet::new()),
                })
            }
            Item::SyncPipeline { .. } | Item::Mesh { .. } => {
                let [(_, net)] = &doc.nets[..] else {
                    return Err("document must hold one net".to_owned());
                };
                let explored = tr.span("petri.explore", || {
                    match net.reachability_bounded(&budget) {
                        Bounded::Complete(rg) => Ok((
                            rg.state_count(),
                            rg.edge_count(),
                            rg.deadlock_states().len(),
                        )),
                        Bounded::Exhausted { info, .. } => {
                            Err(format!("exploration stopped: {info}"))
                        }
                    }
                });
                let (states, edges, deadlocks) = explored?;
                tr.count("petri.explore.states", states as u64);
                tr.count("petri.explore.edges", edges as u64);
                Ok(Answer::Explored { states, deadlocks })
            }
        }
    }

    fn check(&mut self, &(item, _): &(usize, usize), answer: &Answer) -> bool {
        self.deck[item].answer() == *answer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The deck's families at tiny sizes: known answers, and the
    /// verdicts agree with the stubborn-set explorer, an independent
    /// exploration of the same composition.
    #[test]
    fn tiny_deck_matches_known_answers() {
        let tiny = vec![
            Item::Chain {
                four_phase: false,
                n: 3,
            },
            Item::Chain {
                four_phase: false,
                n: 5,
            },
            Item::Chain {
                four_phase: true,
                n: 3,
            },
            Item::Chain {
                four_phase: true,
                n: 4,
            },
            Item::SyncPipeline { k: 3 },
            Item::SyncPipeline { k: 6 },
            Item::Mesh { tokens: 2 },
            Item::Mesh { tokens: 3 },
        ];
        let mut w = ExploreHeavy::with_deck(1, tiny.clone());
        let mut tr = Tracer::new(std::time::Instant::now());
        for job in w.round(0) {
            let a = w.exec(&job, &mut tr).expect("job runs");
            assert!(w.check(&job, &a), "{:?} answered {a:?}", tiny[job.0]);
        }
        for (four_phase, n) in [(false, 4), (true, 3)] {
            let protocol = if four_phase {
                HandshakeProtocol::FourPhase
            } else {
                HandshakeProtocol::TwoPhase
            };
            let sys = chain(n, protocol);
            let mut rest = sys.stgs()[1].clone();
            for s in &sys.stgs()[2..] {
                rest = rest.compose(s).expect("compose");
            }
            let m0 = &sys.stgs()[0];
            let v = cpn_core::check_receptiveness_stubborn_bounded(
                m0.net(),
                rest.net(),
                &m0.output_labels(),
                &rest.output_labels(),
                &budget(),
            )
            .expect("stubborn check");
            let got = match v {
                Verdict::Holds => Answer::Receptive(Some(true), BTreeSet::new()),
                Verdict::Fails(r) => Answer::Receptive(
                    Some(false),
                    r.failures.iter().map(|f| f.label.to_string()).collect(),
                ),
                Verdict::Unknown(_) => Answer::Receptive(None, BTreeSet::new()),
            };
            assert_eq!(
                got,
                Item::Chain { four_phase, n }.answer(),
                "n={n} four_phase={four_phase}"
            );
        }
    }

    #[test]
    fn same_seed_same_corpus() {
        let small = || {
            vec![
                Item::Chain {
                    four_phase: true,
                    n: 3,
                },
                Item::SyncPipeline { k: 4 },
            ]
        };
        let a = ExploreHeavy::with_deck(3, small()).digest.hex();
        let b = ExploreHeavy::with_deck(3, small()).digest.hex();
        let c = ExploreHeavy::with_deck(4, small()).digest.hex();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
