//! Seeded input generation shared by the workloads.
//!
//! Inputs vary with the seed only in ways that keep a job's known
//! answer fixed: place names, label suffixes and, for `serve_mixed`'s
//! isomorphic pairs, declaration order. What a job computes, and so the
//! mix a run measures, is the same for every seed.

use cpn_petri::hash::fnv1a_64;
use cpn_petri::{Label, PetriNet, PlaceId, TransitionId};
use cpn_stg::Stg;
use cpn_testkit::{mix_seed, TestRng};
use std::collections::BTreeMap;

/// The generator for one named stream of a seed.
pub fn rng(seed: u64, stream: u64) -> TestRng {
    TestRng::seed_from_u64(mix_seed(seed, stream))
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(v: &mut [T], rng: &mut TestRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i + 1));
    }
}

/// A random permutation of `0..n`.
pub fn permutation(n: usize, rng: &mut TestRng) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    shuffle(&mut v, rng);
    v
}

/// An isomorphic copy of `net`: places and transitions declared in a
/// seeded order, places renamed. The `NetId` is unchanged; the text,
/// numbering and exploration order are not.
pub fn permuted<L: Label>(net: &PetriNet<L>, rng: &mut TestRng) -> PetriNet<L> {
    copy(net, rng, true)
}

/// A copy of `net` with seeded place names and the original numbering,
/// so that exploration does the same work in the same order.
pub fn renamed<L: Label>(net: &PetriNet<L>, rng: &mut TestRng) -> PetriNet<L> {
    copy(net, rng, false)
}

fn copy<L: Label>(net: &PetriNet<L>, rng: &mut TestRng, reorder: bool) -> PetriNet<L> {
    let places: Vec<PlaceId> = net.place_ids().collect();
    let transitions: Vec<TransitionId> = net.transition_ids().collect();
    let order = |n: usize, rng: &mut TestRng| {
        if reorder {
            permutation(n, rng)
        } else {
            (0..n).collect()
        }
    };
    let place_order = order(places.len(), rng);
    let tag = rng.below(1 << 20);
    let m0 = net.initial_marking();
    let mut out: PetriNet<L> = PetriNet::new();
    let mut new_place = vec![PlaceId::from_index(0); places.len()];
    for (pos, &old) in place_order.iter().enumerate() {
        let p = out.add_place(format!("v{tag:x}_{pos}"));
        out.set_initial(p, m0.tokens(places[old]));
        new_place[old] = p;
    }
    for old in order(transitions.len(), rng) {
        let t = net.transition(transitions[old]);
        let pre: Vec<PlaceId> = t.preset().iter().map(|p| new_place[p.index()]).collect();
        let post: Vec<PlaceId> = t.postset().iter().map(|p| new_place[p.index()]).collect();
        let label = net.label_of(transitions[old]).clone();
        out.add_transition(pre, label, post)
            .expect("copy of a valid transition");
    }
    for l in net.alphabet() {
        out.declare_label(l);
    }
    out
}

/// [`renamed`] for an STG, carrying signals and guards along.
pub fn renamed_stg(stg: &Stg, rng: &mut TestRng) -> Stg {
    let guards: BTreeMap<TransitionId, _> = stg
        .net()
        .transition_ids()
        .map(|t| (t, stg.guard(t)))
        .filter(|(_, g)| !g.is_true())
        .collect();
    Stg::from_parts(renamed(stg.net(), rng), stg.signals().clone(), guards)
        .expect("same signals as the original")
}

/// Order-sensitive digest of the generated inputs and job stream.
#[derive(Default)]
pub struct Digest(u64);

impl Digest {
    pub fn add(&mut self, bytes: &[u8]) {
        self.0 = fnv1a_64(&[&self.0.to_le_bytes()[..], bytes].concat());
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpn_petri::NetId;

    #[test]
    fn copies_are_isomorphic_but_differently_spelled() {
        let stg = cpn_stg::protocol::translator();
        let a = renamed_stg(&stg, &mut rng(7, 0));
        let ta = cpn_format::write_stg("m", &a);
        assert_ne!(
            ta,
            cpn_format::write_stg("m", &renamed_stg(&stg, &mut rng(8, 0)))
        );
        let back = cpn_format::parse(&ta).expect("renamed text parses");
        assert_eq!(NetId::of(back.stgs[0].1.net()), NetId::of(stg.net()));
        assert_eq!(back.stgs[0].1.signals(), stg.signals());
        for (t, tr) in stg.net().transitions() {
            let copy = a.net().transition(t);
            assert_eq!(
                (copy.preset(), copy.postset()),
                (tr.preset(), tr.postset()),
                "renaming keeps the numbering"
            );
            assert_eq!(a.net().label_of(t), stg.net().label_of(t));
        }

        let net = cpn_testkit::sync_pipeline_net(5);
        let p = permuted(&net, &mut rng(7, 1));
        assert_eq!(NetId::of(&p), NetId::of(&net));
        assert_ne!(
            cpn_format::write_net("n", &p),
            cpn_format::write_net("n", &renamed(&net, &mut rng(7, 1)))
        );
    }

    #[test]
    fn streams_replay() {
        assert_eq!(
            permutation(50, &mut rng(3, 1)),
            permutation(50, &mut rng(3, 1))
        );
        assert_ne!(
            permutation(50, &mut rng(3, 1)),
            permutation(50, &mut rng(4, 1))
        );
    }
}
