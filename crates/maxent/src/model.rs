//! The a-value (log-linear) product form of the maximum-entropy
//! distribution — the memo's Eqs. 12–13 and its "general formula".

use crate::error::MaxEntError;
use crate::joint::JointDistribution;
use crate::Result;
use pka_contingency::{Assignment, Schema};
use serde::{Deserialize, Serialize, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// The maximum-entropy joint distribution in product ("a-value") form:
///
/// ```text
/// p(x) = a0 · Π { a_c : constraint cell c is consistent with x }
/// ```
///
/// There is one multiplier per constraint cell plus the normaliser `a0`
/// (the memo's Eq. 12, with `a0 = e^{-w0}` from Eq. 13).  The model is the
/// compact artefact the acquisition procedure outputs: every probability
/// relation associated with the data can be computed from it.
///
/// The factor index is not serialised: decoding goes through
/// [`LogLinearModel::from_factors`], which validates the multipliers and
/// builds it.
#[derive(Debug, Clone, Serialize)]
pub struct LogLinearModel {
    schema: Arc<Schema>,
    a0: f64,
    factors: Vec<(Assignment, f64)>,
    #[serde(skip)]
    index: HashMap<Assignment, usize>,
}

impl LogLinearModel {
    /// The uniform distribution over the schema's cells: no factors,
    /// `a0 = 1 / (number of cells)`.
    pub fn uniform(schema: Arc<Schema>) -> Self {
        let a0 = 1.0 / schema.cell_count() as f64;
        Self { schema, a0, factors: Vec::new(), index: HashMap::new() }
    }

    /// Builds a model from explicit factors.  Factor values must be
    /// non-negative and finite, each cell must lie in the schema and appear
    /// once; `a0` must be positive and finite.
    pub fn from_factors(
        schema: Arc<Schema>,
        a0: f64,
        factors: Vec<(Assignment, f64)>,
    ) -> Result<Self> {
        if !(a0 > 0.0) || !a0.is_finite() {
            return Err(MaxEntError::InvalidProbability {
                value: a0,
                constraint: "a0".to_string(),
            });
        }
        for (a, v) in &factors {
            if !(*v >= 0.0) || !v.is_finite() {
                return Err(MaxEntError::InvalidProbability {
                    value: *v,
                    constraint: a.describe(&schema),
                });
            }
            Assignment::checked_new(&schema, a.vars(), a.values().to_vec())?;
        }
        let index: HashMap<_, _> =
            factors.iter().enumerate().map(|(i, (a, _))| (a.clone(), i)).collect();
        if index.len() < factors.len() {
            let reason = "a cell has two multipliers".to_string();
            return Err(MaxEntError::InfeasibleConstraints { reason });
        }
        Ok(Self { schema, a0, factors, index })
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The schema as a shareable handle.
    pub fn shared_schema(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }

    /// The normalisation multiplier `a0`.
    pub fn a0(&self) -> f64 {
        self.a0
    }

    /// The constraint multipliers in insertion order.
    pub fn factors(&self) -> &[(Assignment, f64)] {
        &self.factors
    }

    /// Number of constraint multipliers.
    pub fn factor_count(&self) -> usize {
        self.factors.len()
    }

    /// The multiplier attached to a constraint cell, if present.
    pub fn factor_of(&self, assignment: &Assignment) -> Option<f64> {
        self.index.get(assignment).map(|&i| self.factors[i].1)
    }

    /// Ensures a multiplier exists for the cell, inserting `1.0` (a neutral
    /// factor) if missing, and returns its position.  The solver uses this
    /// when warm-starting from a model fitted with fewer constraints — the
    /// memo's "add to the current a's a new a associated with the most
    /// significant N" (Figure 4).
    pub fn ensure_factor(&mut self, assignment: &Assignment) -> usize {
        if let Some(&i) = self.index.get(assignment) {
            return i;
        }
        self.factors.push((assignment.clone(), 1.0));
        let i = self.factors.len() - 1;
        self.index.insert(assignment.clone(), i);
        i
    }

    /// Multiplies one factor by `ratio` (the solver's update step).
    pub fn scale_factor(&mut self, position: usize, ratio: f64) {
        self.factors[position].1 *= ratio;
    }

    /// Raises every factor below `floor` up to it, returning the number of
    /// factors lifted.
    ///
    /// Boundary maximum-entropy solutions drive some factors towards zero;
    /// a model taken from such a fit assigns those cells **exactly** zero
    /// mass (to floating-point precision), and the multiplicative update can
    /// never lift a zero cell again.  Warm starts over *shifted* data
    /// therefore "resurrect" near-zero factors to a tiny positive floor
    /// first — the model stays next to the old solution, but every cell is
    /// reachable again if the new counts demand it.
    pub fn floor_factors(&mut self, floor: f64) -> usize {
        debug_assert!(floor > 0.0 && floor.is_finite());
        let mut lifted = 0;
        for (_, v) in &mut self.factors {
            if *v < floor {
                *v = floor;
                lifted += 1;
            }
        }
        lifted
    }

    /// Multiplies `a0` by `ratio` (the solver's renormalisation step).
    pub fn scale_a0(&mut self, ratio: f64) {
        self.a0 *= ratio;
    }

    /// The unnormalised product of factors for a full cell assignment
    /// (everything in Eq. 12 except `a0`).
    pub fn cell_weight(&self, values: &[usize]) -> f64 {
        let mut w = 1.0;
        for (assignment, a) in &self.factors {
            if assignment.matches(values) {
                w *= a;
            }
        }
        w
    }

    /// The model's probability for a full cell assignment (Eq. 12).
    pub fn cell_probability(&self, values: &[usize]) -> f64 {
        self.a0 * self.cell_weight(values)
    }

    /// The dense image of the model: one (unnormalised) probability per
    /// cell, in dense-index order, built by *scatter* — fill with `a0`,
    /// then scale each factor's covered cells via stride arithmetic.
    /// `O(cells + Σ covered cells)` instead of an `O(factors)` product per
    /// cell; this is how the solver and [`LogLinearModel::to_joint`] build
    /// their working vectors.
    pub fn dense_probabilities(&self) -> Vec<f64> {
        let mut p = vec![self.a0; self.schema.cell_count()];
        for (assignment, value) in &self.factors {
            if *value != 1.0 {
                for i in self.schema.matching_cells(assignment) {
                    p[i] *= value;
                }
            }
        }
        p
    }

    /// The model's probability of a marginal cell (partial assignment):
    /// the sum of the cell probabilities consistent with it, summed over
    /// the covered cells by stride arithmetic.
    ///
    /// This is the dense evaluation; [`crate::elimination::FactorGraph`]
    /// computes the same quantity by the Appendix-B sum-of-products scheme.
    pub fn probability(&self, assignment: &Assignment) -> f64 {
        let mut scratch = vec![0usize; self.schema.len()];
        self.schema
            .matching_cells(assignment)
            .map(|i| {
                let mut index = i;
                for (value, &stride) in scratch.iter_mut().zip(self.schema.strides()) {
                    *value = index / stride;
                    index %= stride;
                }
                self.cell_probability(&scratch)
            })
            .sum()
    }

    /// Sum of all cell probabilities (should be 1 after a successful fit).
    pub fn total_mass(&self) -> f64 {
        self.dense_probabilities().iter().sum()
    }

    /// Rescales `a0` so the cell probabilities sum to exactly one.
    pub fn normalize(&mut self) -> Result<()> {
        let z = self.total_mass();
        if !(z > 0.0) || !z.is_finite() {
            return Err(MaxEntError::InfeasibleConstraints {
                reason: format!("cannot normalise a model with total mass {z}"),
            });
        }
        self.a0 /= z;
        Ok(())
    }

    /// Materialises the model as a dense [`JointDistribution`], via the
    /// scatter build of [`LogLinearModel::dense_probabilities`].
    pub fn to_joint(&self) -> JointDistribution {
        JointDistribution::from_unnormalized(Arc::clone(&self.schema), self.dense_probabilities())
    }
}

impl Deserialize for LogLinearModel {
    fn deserialize(value: &Value) -> std::result::Result<Self, serde::Error> {
        Self::from_factors(
            serde::de_field(value, "schema")?,
            serde::de_field(value, "a0")?,
            serde::de_field(value, "factors")?,
        )
        .map_err(|e| serde::Error::custom(e.to_string()))
    }
}

impl PartialEq for LogLinearModel {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.a0 == other.a0 && self.factors == other.factors
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pka_contingency::Attribute;
    use proptest::prelude::*;

    fn schema() -> Arc<Schema> {
        Schema::new(vec![
            Attribute::new("smoking", ["smoker", "non-smoker", "married-to-smoker"]),
            Attribute::yes_no("cancer"),
            Attribute::yes_no("family-history"),
        ])
        .unwrap()
        .into_shared()
    }

    /// The independence model of the paper's Eq. 61: first-order factors
    /// equal to the marginal probabilities, a0 = 1.
    fn independence_model() -> LogLinearModel {
        let s = schema();
        let pa = [0.376, 0.331, 0.293];
        let pb = [0.126, 0.874];
        let pc = [0.519, 0.481];
        let mut factors = Vec::new();
        for (v, &p) in pa.iter().enumerate() {
            factors.push((Assignment::single(0, v), p));
        }
        for (v, &p) in pb.iter().enumerate() {
            factors.push((Assignment::single(1, v), p));
        }
        for (v, &p) in pc.iter().enumerate() {
            factors.push((Assignment::single(2, v), p));
        }
        LogLinearModel::from_factors(s, 1.0, factors).unwrap()
    }

    #[test]
    fn uniform_model_is_uniform() {
        let m = LogLinearModel::uniform(schema());
        assert_eq!(m.factor_count(), 0);
        let p = m.cell_probability(&[0, 0, 0]);
        assert!((p - 1.0 / 12.0).abs() < 1e-15);
        assert!((m.total_mass() - 1.0).abs() < 1e-12);
        assert!((m.probability(&Assignment::single(1, 0)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn from_factors_validates() {
        let s = schema();
        assert!(LogLinearModel::from_factors(Arc::clone(&s), 0.0, vec![]).is_err());
        assert!(LogLinearModel::from_factors(Arc::clone(&s), f64::NAN, vec![]).is_err());
        let bad_factor = vec![(Assignment::single(0, 0), -1.0)];
        assert!(LogLinearModel::from_factors(Arc::clone(&s), 1.0, bad_factor).is_err());
        let bad_cell = vec![(Assignment::single(0, 9), 1.0)];
        assert!(LogLinearModel::from_factors(s, 1.0, bad_cell).is_err());
    }

    #[test]
    fn independence_model_reproduces_eq_61_and_62() {
        let m = independence_model();
        // Eq. 61: p_ijk = p_i p_j p_k.
        let p = m.cell_probability(&[0, 0, 0]);
        assert!((p - 0.376 * 0.126 * 0.519).abs() < 1e-12);
        // Eq. 62: p^AB_ij = p_i p_j.
        let p = m.probability(&Assignment::from_pairs([(0, 0), (1, 0)]));
        assert!((p - 0.376 * 0.126).abs() < 1e-9);
        // The a-values of Eq. 60 normalise to total mass 1 because the
        // first-order probabilities sum to one per attribute.
        assert!((m.total_mass() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn factor_lookup_and_mutation() {
        let mut m = independence_model();
        let cell = Assignment::from_pairs([(0, 0), (2, 1)]);
        assert_eq!(m.factor_of(&cell), None);
        let pos = m.ensure_factor(&cell);
        assert_eq!(m.factor_of(&cell), Some(1.0));
        // Ensuring again returns the same slot.
        assert_eq!(m.ensure_factor(&cell), pos);
        m.scale_factor(pos, 1.25);
        assert!((m.factor_of(&cell).unwrap() - 1.25).abs() < 1e-15);
        m.scale_a0(0.5);
        assert!((m.a0() - 0.5).abs() < 1e-15);
    }

    #[test]
    fn normalize_fixes_total_mass() {
        let s = schema();
        let factors = vec![(Assignment::single(1, 0), 3.0)];
        let mut m = LogLinearModel::from_factors(s, 1.0, factors).unwrap();
        assert!(m.total_mass() > 1.0);
        m.normalize().unwrap();
        assert!((m.total_mass() - 1.0).abs() < 1e-12);
        // A model with all-zero factors cannot be normalised.
        let s = schema();
        let zero = vec![(Assignment::single(1, 0), 0.0), (Assignment::single(1, 1), 0.0)];
        let mut z = LogLinearModel::from_factors(s, 1.0, zero).unwrap();
        assert!(z.normalize().is_err());
    }

    #[test]
    fn dense_probabilities_match_per_cell_evaluation() {
        // The scatter build must agree with evaluating the factor product
        // per cell (the old construction) at every dense index.
        let mut m = independence_model();
        m.ensure_factor(&Assignment::from_pairs([(0, 0), (2, 1)]));
        m.scale_factor(m.factor_count() - 1, 1.75);
        let dense = m.dense_probabilities();
        for (i, values) in m.schema().cells().enumerate() {
            assert!((dense[i] - m.cell_probability(&values)).abs() < 1e-15);
        }
    }

    #[test]
    fn to_joint_matches_cell_probabilities() {
        let m = independence_model();
        let j = m.to_joint();
        for values in m.schema().cells() {
            let expected = m.cell_probability(&values) / m.total_mass();
            assert!((j.probability_of_values(&values) - expected).abs() < 1e-12);
        }
    }

    proptest! {
        #[test]
        fn prop_marginals_consistent_with_cells(
            fa in 0.1f64..2.0,
            fb in 0.1f64..2.0,
            fab in 0.1f64..3.0,
        ) {
            // Arbitrary positive factors still yield a distribution whose
            // marginal over an assignment equals the sum of its matching
            // cells after normalisation.
            let s = schema();
            let factors = vec![
                (Assignment::single(0, 0), fa),
                (Assignment::single(1, 1), fb),
                (Assignment::from_pairs([(0, 0), (1, 1)]), fab),
            ];
            let mut m = LogLinearModel::from_factors(s, 1.0, factors).unwrap();
            m.normalize().unwrap();
            let a = Assignment::from_pairs([(0, 0), (1, 1)]);
            let direct = m.probability(&a);
            let summed: f64 = m
                .schema()
                .cells()
                .filter(|v| a.matches(v))
                .map(|v| m.cell_probability(&v))
                .sum();
            prop_assert!((direct - summed).abs() < 1e-12);
            prop_assert!((m.total_mass() - 1.0).abs() < 1e-9);
        }
    }
}
