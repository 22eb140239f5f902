//! A larger "health survey" simulator.
//!
//! The memo motivates its method with "masses of undigested data, such as
//! those obtained from wind tunnel tests, spacecraft observations, computer
//! simulations, or psychological, medical, and social surveys".  This module
//! provides a deterministic stand-in: a named multi-attribute health survey
//! whose ground-truth distribution contains a handful of realistic
//! dependencies (smoking → cancer, age → exercise, exposure → condition,
//! smoking × exposure → condition), implemented as a log-linear model so the
//! true structure is known exactly.
//!
//! The scaling and comparison benchmarks draw samples of any size from it.

use pka_contingency::{Assignment, Attribute, Schema};
use pka_maxent::{JointDistribution, LogLinearModel};
use std::sync::Arc;

/// Attribute indices of the simulated survey.
pub mod attrs {
    /// Age band: under-40 / 40-60 / over-60.
    pub const AGE: usize = 0;
    /// Smoking: smoker / non-smoker.
    pub const SMOKING: usize = 1;
    /// Occupational exposure to carcinogens: exposed / not-exposed.
    pub const EXPOSURE: usize = 2;
    /// Weekly exercise: regular / occasional / none.
    pub const EXERCISE: usize = 3;
    /// Respiratory condition: present / absent.
    pub const CONDITION: usize = 4;
    /// Cancer diagnosis: yes / no.
    pub const CANCER: usize = 5;
}

/// The survey questionnaire: six categorical attributes, 144 cells.
pub fn schema() -> Arc<Schema> {
    Schema::new(vec![
        Attribute::new("age", ["under-40", "40-60", "over-60"]),
        Attribute::new("smoking", ["smoker", "non-smoker"]),
        Attribute::new("exposure", ["exposed", "not-exposed"]),
        Attribute::new("exercise", ["regular", "occasional", "none"]),
        Attribute::new("condition", ["present", "absent"]),
        Attribute::yes_no("cancer"),
    ])
    .expect("survey schema is valid")
    .into_shared()
}

/// The ground-truth distribution of the survey, built as a log-linear model
/// with explicit interaction factors (so the "right answer" for structure
/// discovery is known by construction).
pub fn ground_truth() -> JointDistribution {
    let schema = schema();
    use attrs::*;
    let factors = vec![
        // First-order prevalences (unnormalised weights).
        (Assignment::single(AGE, 0), 0.35),
        (Assignment::single(AGE, 1), 0.40),
        (Assignment::single(AGE, 2), 0.25),
        (Assignment::single(SMOKING, 0), 0.30),
        (Assignment::single(SMOKING, 1), 0.70),
        (Assignment::single(EXPOSURE, 0), 0.20),
        (Assignment::single(EXPOSURE, 1), 0.80),
        (Assignment::single(EXERCISE, 0), 0.30),
        (Assignment::single(EXERCISE, 1), 0.45),
        (Assignment::single(EXERCISE, 2), 0.25),
        (Assignment::single(CONDITION, 0), 0.15),
        (Assignment::single(CONDITION, 1), 0.85),
        (Assignment::single(CANCER, 0), 0.10),
        (Assignment::single(CANCER, 1), 0.90),
        // Pairwise dependencies.
        (Assignment::from_pairs([(SMOKING, 0), (CANCER, 0)]), 2.5),
        (Assignment::from_pairs([(AGE, 2), (CANCER, 0)]), 1.8),
        (Assignment::from_pairs([(AGE, 0), (EXERCISE, 0)]), 1.6),
        (Assignment::from_pairs([(AGE, 2), (EXERCISE, 2)]), 1.7),
        (Assignment::from_pairs([(EXPOSURE, 0), (CONDITION, 0)]), 2.2),
        (Assignment::from_pairs([(SMOKING, 0), (CONDITION, 0)]), 1.9),
        // One third-order interaction: smoking and exposure together are
        // worse than either alone.
        (Assignment::from_pairs([(SMOKING, 0), (EXPOSURE, 0), (CONDITION, 0)]), 1.8),
    ];
    let model =
        LogLinearModel::from_factors(Arc::clone(&schema), 1.0, factors).expect("factors valid");
    model.to_joint()
}

/// The interaction structure deliberately built into [`ground_truth`]: the
/// variable sets over which the distribution is *not* independent.
pub fn true_interactions() -> Vec<Assignment> {
    use attrs::*;
    vec![
        Assignment::from_pairs([(SMOKING, 0), (CANCER, 0)]),
        Assignment::from_pairs([(AGE, 2), (CANCER, 0)]),
        Assignment::from_pairs([(AGE, 0), (EXERCISE, 0)]),
        Assignment::from_pairs([(AGE, 2), (EXERCISE, 2)]),
        Assignment::from_pairs([(EXPOSURE, 0), (CONDITION, 0)]),
        Assignment::from_pairs([(SMOKING, 0), (CONDITION, 0)]),
        Assignment::from_pairs([(SMOKING, 0), (EXPOSURE, 0), (CONDITION, 0)]),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::{sample_table, seeded_rng};
    use attrs::*;

    #[test]
    fn schema_shape() {
        let s = schema();
        assert_eq!(s.len(), 6);
        assert_eq!(s.cell_count(), 3 * 2 * 2 * 3 * 2 * 2);
        assert_eq!(s.attribute(CANCER).unwrap().name(), "cancer");
    }

    /// `P(target | evidence)` under the ground truth, by Bayes' identity.
    fn given(joint: &JointDistribution, target: &Assignment, evidence: &Assignment) -> f64 {
        joint.probability(&target.merge(evidence).unwrap()) / joint.probability(evidence)
    }

    #[test]
    fn ground_truth_is_a_distribution() {
        let joint = ground_truth();
        assert!((joint.probabilities().iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(joint.probabilities().iter().all(|&p| p > 0.0));
    }

    #[test]
    fn built_in_dependencies_show_up_as_lift() {
        let joint = ground_truth();
        // Smokers have a higher cancer probability than the population.
        let p_cancer = joint.probability(&Assignment::single(CANCER, 0));
        let p_cancer_given_smoker =
            given(&joint, &Assignment::single(CANCER, 0), &Assignment::single(SMOKING, 0));
        assert!(
            p_cancer_given_smoker > 1.35 * p_cancer,
            "expected strong lift, got {p_cancer_given_smoker} vs {p_cancer}"
        );
        // Exercise depends on age.
        let p_reg_young =
            given(&joint, &Assignment::single(EXERCISE, 0), &Assignment::single(AGE, 0));
        let p_reg_old =
            given(&joint, &Assignment::single(EXERCISE, 0), &Assignment::single(AGE, 2));
        assert!(p_reg_young > p_reg_old);
        // Cancer is (conditionally) unrelated to exercise given nothing else:
        // the model has no factor linking them, so the lift is modest
        // compared to the smoking lift.
        let p_cancer_given_none =
            given(&joint, &Assignment::single(CANCER, 0), &Assignment::single(EXERCISE, 2));
        assert!((p_cancer_given_none / p_cancer) < 1.4);
    }

    #[test]
    fn third_order_interaction_is_present() {
        let joint = ground_truth();
        // P(condition | smoker, exposed) should exceed what the pairwise
        // effects alone would predict; at minimum it must exceed both
        // single-condition conditionals.
        let both = given(
            &joint,
            &Assignment::single(CONDITION, 0),
            &Assignment::from_pairs([(SMOKING, 0), (EXPOSURE, 0)]),
        );
        let smoker_only =
            given(&joint, &Assignment::single(CONDITION, 0), &Assignment::single(SMOKING, 0));
        let exposed_only =
            given(&joint, &Assignment::single(CONDITION, 0), &Assignment::single(EXPOSURE, 0));
        assert!(both > smoker_only && both > exposed_only);
    }

    #[test]
    fn samples_reflect_the_structure() {
        let joint = ground_truth();
        let t = sample_table(&joint, 30_000, &mut seeded_rng(11));
        assert_eq!(t.total(), 30_000);
        let p_cancer_smoker = t.count_matching(&Assignment::from_pairs([(SMOKING, 0), (CANCER, 0)]))
            as f64
            / t.count_matching(&Assignment::single(SMOKING, 0)) as f64;
        let p_cancer_nonsmoker =
            t.count_matching(&Assignment::from_pairs([(SMOKING, 1), (CANCER, 0)])) as f64
                / t.count_matching(&Assignment::single(SMOKING, 1)) as f64;
        assert!(p_cancer_smoker > 1.5 * p_cancer_nonsmoker);
    }

    #[test]
    fn true_interactions_listed() {
        let interactions = true_interactions();
        assert_eq!(interactions.len(), 7);
        assert!(interactions.iter().all(|a| a.order() >= 2));
    }
}
