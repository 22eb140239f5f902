//! The evaluator a fitted model is read through: the dense-ceiling
//! predicate picks its arm, both arms agree on every marginal, and its
//! sanity check separates distributions from broken models.

use pka_contingency::{Assignment, ContingencyTable, Schema, VarSet};
use pka_maxent::{fit, is_factored, ConstraintSet, EvalPath, Evaluator, LogLinearModel};
use std::sync::Arc;

fn fitted_model() -> LogLinearModel {
    let schema = Schema::uniform(&[3, 2, 2]).unwrap().into_shared();
    let t = ContingencyTable::from_counts(
        Arc::clone(&schema),
        vec![130, 110, 410, 640, 62, 31, 580, 460, 78, 22, 520, 385],
    )
    .unwrap();
    let mut constraints = ConstraintSet::first_order_from_table(&t).unwrap();
    constraints.add_from_table(&t, Assignment::from_pairs([(0, 0), (2, 1)])).unwrap();
    fit(&constraints).unwrap().0
}

#[test]
fn the_ceiling_picks_the_representation() {
    let model = fitted_model();
    assert!(!is_factored(model.schema(), 12));
    assert!(is_factored(model.schema(), 11));
    assert!(Evaluator::new(&model, 12).joint().is_some());
    let factored = Evaluator::new(&model, 11);
    assert!(factored.graph().is_some() && factored.joint().is_none());
}

#[test]
fn both_arms_agree_on_every_marginal_and_probability() {
    let model = fitted_model();
    let dense = Evaluator::new(&model, usize::MAX);
    let factored = Evaluator::new(&model, 0);
    let schema = model.schema();
    for bits in 0..(1u32 << schema.len()) {
        let vars = VarSet::from_bits(bits);
        let (a, b) = (dense.marginal(vars), factored.marginal(vars));
        assert_eq!(a.len(), schema.cell_count_of(vars).max(1));
        for ((values, p), q) in schema.configurations(vars).zip(&a).zip(&b) {
            let assignment = Assignment::new(vars, values);
            let (walk, path) = dense.probability(&assignment);
            assert_eq!(path, EvalPath::Dense);
            // The dense table slot is the stride walk, bit for bit.
            assert_eq!(p.to_bits(), walk.to_bits());
            assert!((p - q).abs() < 1e-9);
            let (eliminated, path) = factored.probability(&assignment);
            assert_eq!(path, EvalPath::Factored);
            assert!((eliminated - walk).abs() < 1e-9);
        }
    }
    assert_eq!(dense.elimination_width_max(), 0);
    assert!(factored.elimination_width_max() >= 1);
}

#[test]
fn the_dense_arm_holds_the_raw_dense_image() {
    let model = fitted_model();
    let evaluator = Evaluator::new(&model, usize::MAX);
    assert_eq!(evaluator.joint().unwrap().probabilities(), model.dense_probabilities());
}

#[test]
fn check_accepts_fitted_models_and_rejects_broken_ones() {
    let model = fitted_model();
    assert!(Evaluator::new(&model, usize::MAX).check().is_ok());
    assert!(Evaluator::new(&model, 0).check().is_ok());
    // Twelve cells of 0.5 each: mass 6, on either arm.
    let heavy = LogLinearModel::from_factors(model.shared_schema(), 0.5, Vec::new()).unwrap();
    assert!(Evaluator::new(&heavy, usize::MAX).check().unwrap_err().contains("mass 6"));
    assert!(Evaluator::new(&heavy, 0).check().unwrap_err().contains("partition 6"));
    let dead = LogLinearModel::from_factors(
        model.shared_schema(),
        1.0,
        vec![(Assignment::single(1, 0), 0.0), (Assignment::single(1, 1), 0.0)],
    )
    .unwrap();
    assert!(Evaluator::new(&dead, 0).check().unwrap_err().contains("partition 0"));
}
