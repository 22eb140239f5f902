//! Property tests pinning the marginal lattice to the stride walk and the
//! reference full scan: for any random schema, weight vector and partial
//! assignment of order ≤ k the three evaluation paths agree to 1e-12;
//! every materialised table is a probability distribution; and varsets
//! above the cutoff order are *not* covered, so callers exercise the
//! stride-walk fallback there.

use pka_contingency::{Assignment, Schema, VarSet};
use pka_maxent::{Evaluator, FactorGraph, JointDistribution, LogLinearModel, MarginalLattice};
use proptest::prelude::*;
use std::sync::Arc;

/// Tolerance between the factored paths and the dense ground truth.
const FACTORED_TOL: f64 = 1e-9;

/// The lattice of an explicit joint, built through the dense evaluator.
fn lattice_of(joint: &JointDistribution, k: usize) -> MarginalLattice {
    MarginalLattice::build(&Evaluator::Dense(joint.clone()), k)
}

/// Reference implementation: scan every cell and test membership.
fn probability_by_scan(joint: &JointDistribution, assignment: &Assignment) -> f64 {
    joint
        .schema()
        .cells()
        .zip(joint.probabilities().iter())
        .filter(|(values, _)| assignment.matches(values))
        .map(|(_, &p)| p)
        .sum()
}

proptest! {
    #[test]
    fn prop_lattice_agrees_with_stride_walk_and_full_scan(
        cards in proptest::collection::vec(1usize..4, 1..5),
        weights in proptest::collection::vec(0.0f64..10.0, 128),
        k in 0usize..4,
        mask in any::<u32>(),
        seed in any::<u64>(),
    ) {
        let schema = Schema::uniform(&cards).unwrap().into_shared();
        let n = schema.cell_count();
        let joint = JointDistribution::from_unnormalized(
            Arc::clone(&schema),
            weights.into_iter().cycle().take(n).collect(),
        );
        let lattice = lattice_of(&joint, k);
        let vars = VarSet::from_bits(mask).intersection(schema.all_vars());
        let cell = (seed as usize) % n;
        let a = Assignment::project(vars, &schema.cell_values(cell));
        match lattice.probability(&a) {
            Some(p) => {
                // Covered ⇒ the varset is within the cutoff, and all three
                // paths agree.
                prop_assert!(a.order() <= lattice.max_order());
                prop_assert!((p - joint.probability(&a)).abs() < 1e-12);
                prop_assert!((p - probability_by_scan(&joint, &a)).abs() < 1e-12);
            }
            None => {
                // Uncovered ⇒ strictly above the cutoff: the fallback path
                // (the stride walk) is what answers these.
                prop_assert!(a.order() > lattice.max_order());
                prop_assert!(!lattice.covers(a.vars()));
            }
        }
        // The empty assignment is always covered and sums to 1.
        let total = lattice.probability(&Assignment::empty()).unwrap();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn prop_every_lattice_table_is_a_distribution(
        cards in proptest::collection::vec(1usize..4, 1..5),
        weights in proptest::collection::vec(0.0f64..10.0, 128),
        k in 0usize..4,
    ) {
        let schema = Schema::uniform(&cards).unwrap().into_shared();
        let n = schema.cell_count();
        let joint = JointDistribution::from_unnormalized(
            Arc::clone(&schema),
            weights.into_iter().cycle().take(n).collect(),
        );
        let lattice = lattice_of(&joint, k);
        // All C(R, ≤k) tables are materialised …
        let expected: usize = (0..=k.min(schema.len()))
            .map(|m| schema.all_vars().subsets_of_size(m).len())
            .sum();
        prop_assert_eq!(lattice.table_count(), expected);
        // … and each one sums to 1 with non-negative cells.
        for m in 0..=k.min(schema.len()) {
            for vars in schema.all_vars().subsets_of_size(m) {
                let table = lattice.table(vars).unwrap();
                prop_assert_eq!(table.vars(), vars);
                prop_assert!(table.probabilities().iter().all(|&p| p >= 0.0));
                let total: f64 = table.probabilities().iter().sum();
                prop_assert!((total - 1.0).abs() < 1e-9, "table {} sums to {}", vars, total);
            }
        }
    }

    #[test]
    fn prop_fallback_is_exercised_above_the_cutoff(
        cards in proptest::collection::vec(2usize..4, 3..5),
        seed in any::<u64>(),
    ) {
        // k = 1 on a ≥3-attribute schema: every pairwise query must miss
        // the lattice and be answerable by the stride walk.
        let schema = Schema::uniform(&cards).unwrap().into_shared();
        let joint = JointDistribution::uniform(Arc::clone(&schema));
        let lattice = lattice_of(&joint, 1);
        let cell = (seed as usize) % schema.cell_count();
        let pair = VarSet::from_indices([0, 1]);
        let a = Assignment::project(pair, &schema.cell_values(cell));
        prop_assert_eq!(lattice.probability(&a), None);
        // The fallback still answers.
        let walked = joint.probability(&a);
        prop_assert!((walked - probability_by_scan(&joint, &a)).abs() < 1e-12);
    }

    /// Random log-linear models: `FactorGraph` marginals and conditionals,
    /// both lattice builds (dense and factored evaluators), and the dense
    /// joint must all agree on every marginal cell of order ≤ 2.
    #[test]
    fn prop_graph_lattice_and_joint_agree(
        factor_values in proptest::collection::vec(0.05f64..8.0, 5),
        a0 in 0.2f64..3.0,
    ) {
        let schema = Schema::uniform(&[3, 2, 2]).unwrap().into_shared();
        let factors = vec![
            (Assignment::single(0, 1), factor_values[0]),
            (Assignment::single(1, 0), factor_values[1]),
            (Assignment::single(2, 1), factor_values[2]),
            (Assignment::from_pairs([(0, 0), (1, 1)]), factor_values[3]),
            (Assignment::from_pairs([(1, 0), (2, 0)]), factor_values[4]),
        ];
        let mut model =
            LogLinearModel::from_factors(Arc::clone(&schema), a0, factors).unwrap();
        model.normalize().unwrap();

        let joint = model.to_joint();
        let graph = FactorGraph::from_model(&model);
        let dense = Evaluator::new(&model, usize::MAX);
        let factored = Evaluator::new(&model, 0);
        let from_joint = MarginalLattice::build(&dense, 2);
        let from_graph = MarginalLattice::build(&factored, 2);

        for bits in 1u32..(1 << schema.len()) {
            let vars = VarSet::from_bits(bits);
            if vars.len() > 2 {
                continue;
            }
            // Whole-table comparison: elimination vs both lattice builds.
            let table = graph.marginal(vars);
            let dense_table = from_joint.table(vars).expect("covered");
            let factored_table = from_graph.table(vars).expect("covered");
            for ((g, d), f) in table
                .iter()
                .zip(dense_table.probabilities())
                .zip(factored_table.probabilities())
            {
                prop_assert!((g - d).abs() <= FACTORED_TOL, "graph {} vs dense lattice {}", g, d);
                prop_assert!((g - f).abs() <= FACTORED_TOL, "graph {} vs factored lattice {}", g, f);
            }
            // Cell by cell against the dense joint's stride walk.
            for values in schema.configurations(vars) {
                let probe = Assignment::from_pairs(vars.iter().zip(values.iter().copied()));
                let truth = joint.probability(&probe);
                prop_assert!((graph.probability(&probe) - truth).abs() <= FACTORED_TOL);
                prop_assert!(
                    (from_joint.probability(&probe).unwrap() - truth).abs() <= FACTORED_TOL
                );
                prop_assert!(
                    (from_graph.probability(&probe).unwrap() - truth).abs() <= FACTORED_TOL
                );
            }
        }

        // Conditionals p(attr0 = v | attr2 = w) by Bayes' identity over
        // each evaluator: elimination vs the joint.
        let conditional = |evaluator: &Evaluator, target: &Assignment, given: &Assignment| {
            let merged = target.merge(given).unwrap();
            evaluator.probability(&merged).0 / evaluator.probability(given).0
        };
        for v in 0..3usize {
            for w in 0..2usize {
                let target = Assignment::single(0, v);
                let given = Assignment::single(2, w);
                let via_graph = conditional(&factored, &target, &given);
                let via_joint = conditional(&dense, &target, &given);
                prop_assert!(
                    (via_graph - via_joint).abs() <= FACTORED_TOL,
                    "conditional diverged: {} vs {}", via_graph, via_joint
                );
            }
        }
    }

    /// Varying schema shapes: the factored lattice build must match the
    /// dense build table-for-table at every planned varset and order.
    #[test]
    fn prop_factored_lattice_build_matches_dense_build(
        shape_pick in 0usize..3,
        factor_values in proptest::collection::vec(0.1f64..5.0, 3),
        order in 1usize..3,
    ) {
        let shapes: [&[usize]; 3] = [&[2, 2, 2, 2], &[3, 3, 2], &[4, 2, 3]];
        let cards = shapes[shape_pick];
        let schema = Schema::uniform(cards).unwrap().into_shared();
        let factors = vec![
            (Assignment::single(0, 0), factor_values[0]),
            (Assignment::single(cards.len() - 1, 1), factor_values[1]),
            (Assignment::from_pairs([(0, 1), (1, 0)]), factor_values[2]),
        ];
        let mut model =
            LogLinearModel::from_factors(Arc::clone(&schema), 1.0, factors).unwrap();
        model.normalize().unwrap();

        let dense = MarginalLattice::build(&Evaluator::new(&model, usize::MAX), order);
        let factored = MarginalLattice::build(&Evaluator::new(&model, 0), order);
        prop_assert_eq!(dense.table_count(), factored.table_count());
        prop_assert_eq!(dense.total_cells(), factored.total_cells());

        for bits in 0u32..(1 << cards.len()) {
            let vars = VarSet::from_bits(bits);
            prop_assert_eq!(dense.covers(vars), factored.covers(vars));
            let (Some(a), Some(b)) = (dense.table(vars), factored.table(vars)) else {
                continue;
            };
            for (x, y) in a.probabilities().iter().zip(b.probabilities()) {
                prop_assert!((x - y).abs() <= FACTORED_TOL, "table {}: {} vs {}", vars, x, y);
            }
        }
    }
}
