//! Dense joint probability distributions over a schema's cells.
//!
//! A [`JointDistribution`] is the fully-materialised counterpart of the
//! factored [`LogLinearModel`](crate::LogLinearModel): one probability per
//! cell.  It is the representation used for entropy/divergence computations,
//! for sampling synthetic data, and as the reference the factored model is
//! checked against in tests.

use crate::entropy;
use crate::error::MaxEntError;
use crate::Result;
use pka_contingency::{Assignment, ContingencyTable, Schema};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A dense probability distribution over the cells of a schema.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JointDistribution {
    schema: Arc<Schema>,
    probabilities: Vec<f64>,
}

impl JointDistribution {
    /// Builds a distribution from explicit cell probabilities; the vector
    /// must have one entry per cell, all non-negative, summing to 1 within
    /// `1e-6`.
    pub fn from_probabilities(schema: Arc<Schema>, probabilities: Vec<f64>) -> Result<Self> {
        if probabilities.len() != schema.cell_count() {
            return Err(MaxEntError::Data(pka_contingency::ContingencyError::CountLength {
                got: probabilities.len(),
                expected: schema.cell_count(),
            }));
        }
        let mut sum = 0.0;
        for &p in &probabilities {
            if !(p >= 0.0) || !p.is_finite() {
                return Err(MaxEntError::InvalidProbability {
                    value: p,
                    constraint: "joint distribution cell".to_string(),
                });
            }
            sum += p;
        }
        if (sum - 1.0).abs() > 1e-6 {
            return Err(MaxEntError::InfeasibleConstraints {
                reason: format!("cell probabilities sum to {sum}, not 1"),
            });
        }
        Ok(Self { schema, probabilities })
    }

    /// Builds a distribution from non-negative weights by normalising them.
    /// All-zero weights produce the uniform distribution.
    pub fn from_unnormalized(schema: Arc<Schema>, mut weights: Vec<f64>) -> Self {
        assert_eq!(weights.len(), schema.cell_count(), "one weight per cell required");
        let sum: f64 = weights.iter().copied().filter(|w| w.is_finite() && *w > 0.0).sum();
        if sum <= 0.0 {
            let n = weights.len() as f64;
            weights.iter_mut().for_each(|w| *w = 1.0 / n);
        } else {
            weights.iter_mut().for_each(|w| {
                if !w.is_finite() || *w < 0.0 {
                    *w = 0.0;
                } else {
                    *w /= sum;
                }
            });
        }
        Self { schema, probabilities: weights }
    }

    /// Wraps cell weights exactly as given — no validation, no
    /// normalisation.  For the evaluator of a model's raw dense image.
    pub(crate) fn from_raw(schema: Arc<Schema>, probabilities: Vec<f64>) -> Self {
        debug_assert_eq!(probabilities.len(), schema.cell_count());
        Self { schema, probabilities }
    }

    /// The uniform distribution over the schema's cells.
    pub fn uniform(schema: Arc<Schema>) -> Self {
        let n = schema.cell_count();
        Self { schema, probabilities: vec![1.0 / n as f64; n] }
    }

    /// The empirical (relative-frequency) distribution of a contingency
    /// table.  An empty table yields the uniform distribution.
    pub fn empirical(table: &ContingencyTable) -> Self {
        let schema = table.shared_schema();
        if table.total() == 0 {
            return Self::uniform(schema);
        }
        Self { probabilities: table.empirical_distribution(), schema }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The schema as a shareable handle.
    pub fn shared_schema(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }

    /// The cell probabilities in dense-index order.
    pub fn probabilities(&self) -> &[f64] {
        &self.probabilities
    }

    /// Probability of one full cell assignment.
    pub fn probability_of_values(&self, values: &[usize]) -> f64 {
        self.probabilities[self.schema.cell_index(values)]
    }

    /// Probability of a marginal cell (partial assignment): sum of matching
    /// cell probabilities.
    ///
    /// The sum walks only the matching cells by stride arithmetic — an
    /// odometer over the *unassigned* attributes — so a query touches
    /// `∏ free cardinalities` dense slots instead of scanning (and
    /// materialising the value tuple of) every cell.  This is the query
    /// server's hot path.
    pub fn probability(&self, assignment: &Assignment) -> f64 {
        // Out-of-schema assignments yield an empty iterator, matching
        // nothing — the same contract as the reference scan.
        self.schema.matching_cells(assignment).map(|i| self.probabilities[i]).sum()
    }

    /// Reference implementation of [`JointDistribution::probability`]: scan
    /// every cell and test membership.  Kept for the property test that
    /// pins the stride-walking fast path to it.
    #[cfg(test)]
    fn probability_by_scan(&self, assignment: &Assignment) -> f64 {
        self.schema
            .cells()
            .zip(self.probabilities.iter())
            .filter(|(v, _)| assignment.matches(v))
            .map(|(_, &p)| p)
            .sum()
    }

    /// Shannon entropy in nats (Eq. 7 of the memo).
    pub fn entropy(&self) -> f64 {
        entropy::entropy(&self.probabilities)
    }

    /// Kullback-Leibler divergence `KL(self ‖ other)` in nats.
    pub fn kl_divergence_from(&self, other: &JointDistribution) -> Result<f64> {
        if self.schema != other.schema {
            return Err(MaxEntError::InfeasibleConstraints {
                reason: "KL divergence requires distributions over the same schema".to_string(),
            });
        }
        Ok(entropy::kl_divergence(&self.probabilities, &other.probabilities))
    }

    /// Total-variation distance to another distribution over the same
    /// schema.
    pub fn total_variation(&self, other: &JointDistribution) -> Result<f64> {
        if self.schema != other.schema {
            return Err(MaxEntError::InfeasibleConstraints {
                reason: "total variation requires distributions over the same schema".to_string(),
            });
        }
        Ok(self
            .probabilities
            .iter()
            .zip(other.probabilities.iter())
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            / 2.0)
    }

    /// The most probable full cell assignment and its probability.
    pub fn most_probable_cell(&self) -> (Vec<usize>, f64) {
        let (idx, &p) = self
            .probabilities
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("probabilities are finite"))
            .expect("a schema always has at least one cell");
        (self.schema.cell_values(idx), p)
    }

    /// The cumulative distribution over cells in dense-index order, used by
    /// samplers: `cumulative[i]` is the probability of drawing a cell with
    /// index `<= i`.
    pub fn cumulative(&self) -> Vec<f64> {
        let mut acc = 0.0;
        self.probabilities
            .iter()
            .map(|&p| {
                acc += p;
                acc
            })
            .collect()
    }

    /// Expected contingency table for `n` observations (`n · p` per cell,
    /// real-valued).
    pub fn expected_counts(&self, n: u64) -> Vec<f64> {
        self.probabilities.iter().map(|&p| p * n as f64).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pka_contingency::Attribute;
    use proptest::prelude::*;

    fn schema() -> Arc<Schema> {
        Schema::new(vec![Attribute::new("a", ["0", "1", "2"]), Attribute::new("b", ["0", "1"])])
            .unwrap()
            .into_shared()
    }

    #[test]
    fn from_probabilities_validation() {
        let s = schema();
        assert!(JointDistribution::from_probabilities(Arc::clone(&s), vec![0.5; 3]).is_err());
        assert!(JointDistribution::from_probabilities(Arc::clone(&s), vec![0.5; 6]).is_err());
        assert!(JointDistribution::from_probabilities(
            Arc::clone(&s),
            vec![-0.1, 0.3, 0.2, 0.2, 0.2, 0.2]
        )
        .is_err());
        let ok = JointDistribution::from_probabilities(s, vec![1.0 / 6.0; 6]);
        assert!(ok.is_ok());
    }

    #[test]
    fn from_unnormalized_normalises() {
        let s = schema();
        let j = JointDistribution::from_unnormalized(
            Arc::clone(&s),
            vec![2.0, 0.0, 0.0, 0.0, 0.0, 2.0],
        );
        assert!((j.probabilities().iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((j.probability_of_values(&[0, 0]) - 0.5).abs() < 1e-12);
        // All-zero weights fall back to uniform.
        let z = JointDistribution::from_unnormalized(s, vec![0.0; 6]);
        assert!((z.probability_of_values(&[1, 1]) - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn empirical_matches_table_frequencies() {
        let s = schema();
        let t = ContingencyTable::from_counts(Arc::clone(&s), vec![2, 0, 3, 1, 0, 4]).unwrap();
        let j = JointDistribution::empirical(&t);
        assert!((j.probability_of_values(&[0, 0]) - 0.2).abs() < 1e-12);
        assert!((j.probability(&Assignment::single(1, 0)) - 0.5).abs() < 1e-12);
        let empty = ContingencyTable::zeros(s);
        let u = JointDistribution::empirical(&empty);
        assert!((u.probability_of_values(&[0, 0]) - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn entropy_and_divergences() {
        let s = schema();
        let u = JointDistribution::uniform(Arc::clone(&s));
        assert!((u.entropy() - (6f64).ln()).abs() < 1e-12);
        let t = ContingencyTable::from_counts(Arc::clone(&s), vec![6, 0, 0, 0, 0, 0]).unwrap();
        let d = JointDistribution::empirical(&t);
        assert!(d.entropy().abs() < 1e-12);
        assert!((u.total_variation(&u).unwrap()).abs() < 1e-12);
        assert!(u.total_variation(&d).unwrap() > 0.5);
        assert!(u.kl_divergence_from(&u).unwrap().abs() < 1e-12);
        // Divergence against a different schema is an error.
        let other = JointDistribution::uniform(Schema::uniform(&[2, 2]).unwrap().into_shared());
        assert!(u.kl_divergence_from(&other).is_err());
        assert!(u.total_variation(&other).is_err());
    }

    #[test]
    fn most_probable_and_cumulative() {
        let s = schema();
        let t = ContingencyTable::from_counts(Arc::clone(&s), vec![1, 0, 7, 1, 0, 1]).unwrap();
        let j = JointDistribution::empirical(&t);
        let (cell, p) = j.most_probable_cell();
        assert_eq!(cell, vec![1, 0]);
        assert!((p - 0.7).abs() < 1e-12);
        let cum = j.cumulative();
        assert_eq!(cum.len(), 6);
        assert!((cum[5] - 1.0).abs() < 1e-12);
        assert!(cum.windows(2).all(|w| w[1] + 1e-15 >= w[0]));
        let counts = j.expected_counts(10);
        assert!((counts[2] - 7.0).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn prop_stride_walk_matches_full_scan(
            weights in proptest::collection::vec(0.0f64..10.0, 36),
            mask in any::<u32>(),
            seed in any::<u64>(),
        ) {
            // The odometer fast path must agree with the reference scan for
            // every partial assignment, including the empty one.
            let s = Schema::uniform(&[3, 2, 3, 2]).unwrap().into_shared();
            let j = JointDistribution::from_unnormalized(Arc::clone(&s), weights);
            let vars = pka_contingency::VarSet::from_bits(mask).intersection(s.all_vars());
            let cell = (seed as usize) % s.cell_count();
            let a = Assignment::project(vars, &s.cell_values(cell));
            prop_assert!((j.probability(&a) - j.probability_by_scan(&a)).abs() < 1e-12);
            prop_assert!((j.probability(&Assignment::empty()) - 1.0).abs() < 1e-9);
            // Out-of-schema assignments match nothing.
            prop_assert_eq!(j.probability(&Assignment::single(0, 99)), 0.0);
            prop_assert_eq!(j.probability(&Assignment::single(9, 0)), 0.0);
        }

        #[test]
        fn prop_marginals_sum_to_one(weights in proptest::collection::vec(0.0f64..5.0, 6)) {
            let j = JointDistribution::from_unnormalized(schema(), weights);
            // Marginal over attribute 0 sums to 1.
            let total: f64 = (0..3).map(|v| j.probability(&Assignment::single(0, v))).sum();
            prop_assert!((total - 1.0).abs() < 1e-9);
            prop_assert!((j.probability(&Assignment::empty()) - 1.0).abs() < 1e-9);
        }

        #[test]
        fn prop_total_variation_symmetric_and_bounded(
            w1 in proptest::collection::vec(0.0f64..5.0, 6),
            w2 in proptest::collection::vec(0.0f64..5.0, 6),
        ) {
            let a = JointDistribution::from_unnormalized(schema(), w1);
            let b = JointDistribution::from_unnormalized(schema(), w2);
            let ab = a.total_variation(&b).unwrap();
            let ba = b.total_variation(&a).unwrap();
            prop_assert!((ab - ba).abs() < 1e-12);
            prop_assert!((0.0..=1.0 + 1e-9).contains(&ab));
        }

        #[test]
        fn prop_kl_nonnegative(
            w1 in proptest::collection::vec(0.01f64..5.0, 6),
            w2 in proptest::collection::vec(0.01f64..5.0, 6),
        ) {
            let a = JointDistribution::from_unnormalized(schema(), w1);
            let b = JointDistribution::from_unnormalized(schema(), w2);
            prop_assert!(a.kl_divergence_from(&b).unwrap() >= -1e-12);
        }
    }
}
