//! Bayes' identity, written once: the compatibility check, the
//! empty-evidence shortcut, the zero-evidence error and the division,
//! over any source of marginal probabilities.

use pka_contingency::{Assignment, ContingencyTable, Schema};
use pka_core::{bayes, Bayes, CoreError};
use pka_maxent::{JointDistribution, LogLinearModel, MaxEntError};
use std::sync::Arc;

#[test]
fn bayes_over_a_dense_joint() {
    let schema = Schema::uniform(&[3, 2]).unwrap().into_shared();
    let t = ContingencyTable::from_counts(Arc::clone(&schema), vec![2, 0, 3, 1, 0, 4]).unwrap();
    let j = JointDistribution::empirical(&t);
    let p = |target, evidence| bayes(&schema, &target, &evidence, |a| j.probability(a));
    // P(b=0 | a=0) = 2 / 2.
    let answer = p(Assignment::single(1, 0), Assignment::single(0, 0)).unwrap();
    assert!((answer.probability - 1.0).abs() < 1e-12);
    // P(b=1 | a=1) = 1 / 4.
    let answer = p(Assignment::single(1, 1), Assignment::single(0, 1)).unwrap();
    assert!((answer.probability - 0.25).abs() < 1e-12);
    assert!((answer.evidence_probability - 0.4).abs() < 1e-12);
    assert!((answer.joint_probability - 0.1).abs() < 1e-12);
    assert!(matches!(
        p(Assignment::single(0, 0), Assignment::single(0, 1)),
        Err(CoreError::InvalidInput { .. })
    ));
    // a=2,b=0 has zero probability: conditioning on it is an error.
    assert!(matches!(
        p(Assignment::single(1, 0), Assignment::from_pairs([(0, 2), (1, 0)])),
        Err(CoreError::MaxEnt(MaxEntError::ZeroProbabilityEvidence { .. }))
    ));
}

#[test]
fn bayes_over_the_independence_model() {
    // The independence model of the paper's Eq. 61: first-order factors
    // equal to the marginal probabilities, a0 = 1.
    let schema = Schema::uniform(&[3, 2, 2]).unwrap().into_shared();
    let mut factors = Vec::new();
    for (attr, ps) in
        [&[0.376, 0.331, 0.293][..], &[0.126, 0.874], &[0.519, 0.481]].into_iter().enumerate()
    {
        factors.extend(ps.iter().enumerate().map(|(v, &p)| (Assignment::single(attr, v), p)));
    }
    let m = LogLinearModel::from_factors(Arc::clone(&schema), 1.0, factors).unwrap();
    let p = |target, evidence| bayes(&schema, &target, &evidence, |a| m.probability(a));
    // Under independence, P(cancer=yes | smoking=smoker) = p^B_1.
    let answer = p(Assignment::single(1, 0), Assignment::single(0, 0)).unwrap();
    assert!((answer.probability - 0.126).abs() < 1e-9);
    assert!(p(Assignment::single(0, 1), Assignment::single(0, 0)).is_err());
    // A model in which smoking=smoker has zero probability.
    let mut zero = LogLinearModel::from_factors(
        Arc::clone(&schema),
        1.0,
        vec![(Assignment::single(0, 0), 0.0)],
    )
    .unwrap();
    zero.normalize().unwrap();
    let err = bayes(&schema, &Assignment::single(1, 0), &Assignment::single(0, 0), |a| {
        zero.probability(a)
    });
    assert!(matches!(err, Err(CoreError::MaxEnt(MaxEntError::ZeroProbabilityEvidence { .. }))));
}

#[test]
fn empty_evidence_is_certain_and_never_evaluated() {
    let schema = Schema::uniform(&[2, 2]).unwrap().into_shared();
    let calls = std::cell::Cell::new(0);
    let answer = bayes(&schema, &Assignment::single(0, 1), &Assignment::empty(), |a| {
        calls.set(calls.get() + 1);
        assert_eq!(a, &Assignment::single(0, 1), "only the target is evaluated");
        0.3
    })
    .unwrap();
    assert_eq!(calls.get(), 1);
    assert_eq!(
        answer,
        Bayes { probability: 0.3, joint_probability: 0.3, evidence_probability: 1.0 }
    );
}
