//! Exact-oracle property test of the SAT sweeper: with no conflict budget and
//! no class-size cap, the classes `find_equivalences` proves must be exactly
//! the truth-table classes of the network's AND and constant nodes (up to
//! complement), computed by exhaustive simulation.
//!
//! Run with `PROPTEST_CASES=2000` (or higher) for a deeper search.

// Helper fns here run outside #[test] context, so the clippy.toml
// test relaxation does not reach them.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use aig::{Aig, Lit as ALit, Simulator};
use cec::{SatSweeper, SweepOptions, SweepStats};
use proptest::prelude::*;
use std::collections::HashMap;

/// A class as a list of `(node index, phase relative to the first member)`,
/// members in node order.
type Class = Vec<(u32, bool)>;

fn normalized(members: &[ALit]) -> Class {
    let mut members = members.to_vec();
    members.sort_by_key(|l| l.node());
    let first = members[0].is_complemented();
    members
        .iter()
        .map(|l| (l.node().0, l.is_complemented() != first))
        .collect()
}

/// Truth-table classes of the AND and constant nodes with at least two
/// members, in node order of their first member.
fn exact_classes(aig: &Aig) -> Vec<Class> {
    let sim = Simulator::exhaustive(aig);
    let mut groups: HashMap<Vec<u64>, Vec<ALit>> = HashMap::new();
    for id in aig.node_ids() {
        let node = aig.node(id);
        if !(node.is_and() || node.is_const()) {
            continue;
        }
        let sig = sim.node_signature(id);
        let complemented = sig[0] & 1 == 1;
        let canon: Vec<u64> = sig
            .iter()
            .map(|w| if complemented { !w } else { *w })
            .collect();
        groups
            .entry(canon)
            .or_default()
            .push(ALit::new(id, complemented));
    }
    let mut classes: Vec<Class> = groups
        .into_values()
        .filter(|g| g.len() >= 2)
        .map(|g| normalized(&g))
        .collect();
    classes.sort();
    classes
}

/// Sweeps with no budget and no class-size cap. Few simulation words make
/// candidate groups alias, so SAT refutes some pairs.
fn swept_classes(aig: &Aig, sim_words: usize, cex_refinement: bool) -> (Vec<Class>, SweepStats) {
    let sweeper = SatSweeper::new(SweepOptions {
        conflict_budget: None,
        max_class_size: usize::MAX,
        cex_refinement,
        sim_words,
        ..SweepOptions::default()
    });
    let (equiv, stats) = sweeper.find_equivalences(aig);
    let mut classes: Vec<Class> = equiv.classes.iter().map(|c| normalized(c)).collect();
    classes.sort();
    (classes, stats)
}

/// A copy of `aig` in which every node whose id has bit `pick` set is built
/// redundantly as `(a & b) & (a | b)`. Stacked next to the original, each
/// such node is an equivalence SAT must prove, and the nodes above it become
/// structural once it is merged.
fn restructured(aig: &Aig, pick: u32) -> Aig {
    let mut copy = Aig::new("copy");
    let mut map: Vec<ALit> = vec![ALit::FALSE; aig.num_nodes()];
    for (i, &input) in aig.inputs().iter().enumerate() {
        map[input.index()] = copy.add_input(aig.input_name(i));
    }
    for id in aig.and_ids() {
        let (f0, f1) = aig.fanins(id);
        let a = map[f0.node().index()].xor(f0.is_complemented());
        let b = map[f1.node().index()].xor(f1.is_complemented());
        let and = copy.and(a, b);
        map[id.index()] = if id.0 >> pick & 1 == 1 {
            let or = copy.or(a, b);
            copy.and(and, or)
        } else {
            and
        };
    }
    for &po in aig.outputs() {
        let lit = map[po.node().index()].xor(po.is_complemented());
        copy.add_output(lit, "o");
    }
    copy
}

/// A random network stacked over shared inputs with a second random
/// network and with a redundant copy of itself, so that nodes coincide both
/// by chance and by construction.
fn network(inputs: usize, ands: usize, seed: u64) -> Aig {
    let a = benchgen::random_aig(inputs, ands, 4, seed);
    let b = benchgen::random_aig(inputs, ands, 2, seed ^ 0x9E37_79B9);
    let a = aig::stack_over_shared_inputs(&a, &b, "_b");
    aig::stack_over_shared_inputs(&a, &restructured(&a, (seed % 3) as u32), "_c")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]
    #[test]
    fn proved_classes_are_the_truth_table_classes(
        inputs in 1usize..11,
        ands in 1usize..80,
        sim_words in 1usize..4,
        seed in any::<u64>(),
    ) {
        let aig = network(inputs, ands, seed);
        let exact = exact_classes(&aig);
        let (proved, stats) = swept_classes(&aig, sim_words, true);
        prop_assert_eq!(stats.unknown, 0);
        prop_assert_eq!(
            stats.sat_calls + stats.structural,
            stats.proved + stats.disproved + stats.unknown
        );
        prop_assert_eq!(&proved, &exact, "stats: {:?}", stats);

        // Without refinement a refuted member is dropped, not re-grouped, so
        // fewer classes may be proved, but each of them is still exact.
        let (unrefined, stats) = swept_classes(&aig, sim_words, false);
        prop_assert_eq!(
            stats.sat_calls + stats.structural,
            stats.proved + stats.disproved + stats.unknown
        );
        for class in &unrefined {
            prop_assert!(exact.contains(class), "{:?} is not a truth-table class", class);
        }
    }
}
