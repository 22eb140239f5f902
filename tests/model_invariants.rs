//! Cross-crate property tests: invariants that must hold for any acquired
//! knowledge base, checked over randomly generated tables.

use pka::contingency::{Assignment, ContingencyTable, Schema, VarSet};
use pka::core::{Acquisition, AcquisitionConfig};
use pka::datagen::{sample_table, sampler::seeded_rng, smoking, survey};
use pka::maxent::{ConstraintSet, Evaluator, FactorGraph, LogLinearModel, Solver};
use proptest::prelude::*;
use std::sync::Arc;

fn random_table(counts: Vec<u64>) -> ContingencyTable {
    let schema = Schema::uniform(&[3, 2, 2]).unwrap().into_shared();
    ContingencyTable::from_counts(Arc::clone(&schema), counts).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For any table: the acquired model is a proper distribution, honours
    /// the first-order marginals, and its conditionals are consistent with
    /// its joints.
    #[test]
    fn acquired_model_is_a_consistent_distribution(
        counts in proptest::collection::vec(1u64..60, 12),
    ) {
        let table = random_table(counts);
        let outcome = Acquisition::new(AcquisitionConfig::new().with_max_order(2))
            .run(&table)
            .expect("acquisition succeeds");
        let kb = outcome.knowledge_base;

        // Joint sums to one.
        let joint = kb.joint();
        prop_assert!((joint.probabilities().iter().sum::<f64>() - 1.0).abs() < 1e-8);

        // First-order marginals are honoured (they are always constrained).
        for attr in 0..3 {
            for v in 0..table.schema().cardinality(attr).unwrap() {
                let a = Assignment::single(attr, v);
                prop_assert!((kb.probability(&a) - table.frequency(&a)).abs() < 1e-4);
            }
        }

        // Law of total probability: P(B=j) = sum_i P(B=j | A=i) P(A=i).
        for j in 0..2 {
            let direct = kb.probability(&Assignment::single(1, j));
            let mut total = 0.0;
            for i in 0..3 {
                let pa = kb.probability(&Assignment::single(0, i));
                if pa > 0.0 {
                    total += kb
                        .conditional(&Assignment::single(1, j), &Assignment::single(0, i))
                        .unwrap()
                        * pa;
                }
            }
            prop_assert!((direct - total).abs() < 1e-6);
        }
    }

    /// The Appendix-B factored evaluation agrees with the dense model on the
    /// acquired knowledge base for every marginal query.
    #[test]
    fn factor_graph_matches_dense_model(
        counts in proptest::collection::vec(1u64..40, 12),
    ) {
        let table = random_table(counts);
        let kb = Acquisition::new(AcquisitionConfig::new().with_max_order(2))
            .run(&table)
            .expect("acquisition succeeds")
            .knowledge_base;
        let graph = FactorGraph::from_model(kb.model());
        let schema = kb.shared_schema();
        for vars_bits in [0b001u32, 0b010, 0b100, 0b011, 0b101, 0b110, 0b111] {
            let vars = VarSet::from_bits(vars_bits);
            for values in schema.configurations(vars) {
                let q = Assignment::new(vars, values);
                prop_assert!((graph.probability(&q) - kb.probability(&q)).abs() < 1e-8);
            }
        }
    }

    /// Acquisition is deterministic: two runs on the same table produce the
    /// same constraints and the same query answers.
    #[test]
    fn acquisition_is_deterministic(
        counts in proptest::collection::vec(1u64..50, 12),
    ) {
        let table = random_table(counts);
        let config = AcquisitionConfig::new().with_max_order(2);
        let a = Acquisition::new(config).run(&table).expect("first run");
        let b = Acquisition::new(config).run(&table).expect("second run");
        let ca: Vec<_> = a.knowledge_base.constraints().constraints().to_vec();
        let cb: Vec<_> = b.knowledge_base.constraints().constraints().to_vec();
        prop_assert_eq!(ca.len(), cb.len());
        for (x, y) in ca.iter().zip(cb.iter()) {
            prop_assert_eq!(&x.assignment, &y.assignment);
            prop_assert!((x.probability - y.probability).abs() < 1e-15);
        }
        let q = Assignment::single(1, 0);
        let e = Assignment::single(0, 0);
        if a.knowledge_base.probability(&e) > 0.0 {
            prop_assert!(
                (a.knowledge_base.conditional(&q, &e).unwrap()
                    - b.knowledge_base.conditional(&q, &e).unwrap())
                .abs()
                    < 1e-12
            );
        }
    }

    /// Adding constraints never lowers the fit to the data: the acquired
    /// model's log-likelihood of the training table is at least the
    /// independence model's.
    #[test]
    fn acquisition_never_fits_worse_than_independence(
        counts in proptest::collection::vec(1u64..60, 12),
    ) {
        let table = random_table(counts);
        let acquired = Acquisition::new(AcquisitionConfig::new().with_max_order(3))
            .run(&table)
            .expect("acquisition succeeds")
            .knowledge_base
            .joint();
        let independence = pka::baselines::IndependenceModel::fit(&table);
        let ll_acquired = pka::maxent::metrics::log_loss_table(&acquired, &table).unwrap();
        let ll_independence =
            pka::maxent::metrics::log_loss_table(independence.joint(), &table).unwrap();
        prop_assert!(ll_acquired <= ll_independence + 1e-6);
    }
}

/// The solver returns every model normalised to rounding on both kernels,
/// so nothing downstream renormalises and [`Evaluator::check`] reads a
/// model's real mass: it accepts every fitted model on both arms and
/// rejects the same model with its `a0` scaled by six on both.
#[test]
fn every_fit_is_normalised_and_only_real_distributions_pass_the_check() {
    let mut rng = seeded_rng(17);
    let survey_sample = sample_table(&survey::ground_truth(), 4000, &mut rng);
    let tables = [
        smoking::table(),
        survey_sample,
        // Perfect correlation: a boundary fit that never converges.
        ContingencyTable::from_counts(
            Schema::uniform(&[2, 2]).unwrap().into_shared(),
            vec![200, 0, 0, 200],
        )
        .unwrap(),
        random_table(vec![5, 40, 13, 2, 31, 8, 19, 27, 1, 44, 9, 16]),
    ];
    for table in &tables {
        for ceiling in [usize::MAX, 0] {
            let config = AcquisitionConfig::new().with_dense_ceiling(ceiling);
            let kb = Acquisition::new(config).run(table).unwrap().knowledge_base;
            let solver = Solver::default().with_dense_ceiling(ceiling);
            let first_order = ConstraintSet::first_order_from_table(table).unwrap();
            let fits = [
                solver.fit(&first_order).unwrap().0,
                solver.fit(kb.constraints()).unwrap().0,
                kb.model().clone(),
            ];
            for model in &fits {
                let dense = model.total_mass();
                let partition = FactorGraph::from_model(model).partition();
                for (what, mass) in [("dense mass", dense), ("partition", partition)] {
                    assert!((mass - 1.0).abs() <= 1e-12, "{what} {mass} at ceiling {ceiling}");
                }
                assert!(Evaluator::new(model, usize::MAX).check().is_ok());
                assert!(Evaluator::new(model, 0).check().is_ok());

                let heavy = LogLinearModel::from_factors(
                    model.shared_schema(),
                    model.a0() * 6.0,
                    model.factors().to_vec(),
                )
                .unwrap();
                let dense = Evaluator::new(&heavy, usize::MAX).check().unwrap_err();
                assert!(dense.contains("(mass 5.9") || dense.contains("(mass 6"), "{dense}");
                let factored = Evaluator::new(&heavy, 0).check().unwrap_err();
                assert!(factored.contains("(partition 5.9") || factored.contains("(partition 6"));
            }
        }
    }
}
