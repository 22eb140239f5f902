//! The likelihood-ratio (G) test, the second classical alternative used in
//! the constraint-selection ablation.
//!
//! `G = 2 Σ O·ln(O/E)` is asymptotically χ²-distributed with the same
//! degrees of freedom as the Pearson statistic; unlike Pearson it is an
//! information-theoretic quantity (twice the Kullback-Leibler divergence
//! between observed and expected counts), which makes it the closest
//! classical relative of the memo's message-length criterion.

use crate::chi_square::chi_square_sf;
use crate::error::SignificanceError;
use crate::Result;
use pka_contingency::{ContingencyTable, VarSet};
use serde::{Deserialize, Serialize};

/// Outcome of a G-test.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GTestResult {
    /// The G statistic (`2 Σ O ln(O/E)`).
    pub statistic: f64,
    /// Degrees of freedom used for the p-value.
    pub degrees_of_freedom: f64,
    /// Upper-tail χ² probability of the statistic.
    pub p_value: f64,
}

impl GTestResult {
    /// True if the p-value is below the given significance level.
    pub fn is_significant_at(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

/// G statistic for paired observed/expected count vectors.
pub fn g_statistic(observed: &[f64], expected: &[f64], dof: f64) -> Result<GTestResult> {
    if observed.len() != expected.len() {
        return Err(SignificanceError::InvalidCount {
            reason: format!(
                "observed ({}) and expected ({}) vectors differ in length",
                observed.len(),
                expected.len()
            ),
        });
    }
    let mut statistic = 0.0;
    for (&o, &e) in observed.iter().zip(expected) {
        if o == 0.0 {
            // lim_{o->0} o ln(o/e) = 0.
            continue;
        }
        if e <= 0.0 {
            return Err(SignificanceError::InvalidCount {
                reason: "observed count in a cell the model declares impossible".to_string(),
            });
        }
        statistic += 2.0 * o * (o / e).ln();
    }
    let statistic = statistic.max(0.0);
    let p_value = chi_square_sf(statistic, dof)?;
    Ok(GTestResult { statistic, degrees_of_freedom: dof, p_value })
}

/// G-test of independence for a pair of attributes of a contingency table.
pub fn g_test_independence(
    table: &ContingencyTable,
    first: usize,
    second: usize,
) -> Result<GTestResult> {
    if first == second {
        return Err(SignificanceError::InvalidCount {
            reason: "independence test needs two distinct attributes".to_string(),
        });
    }
    let schema = table.schema();
    let card_a = schema.cardinality(first).map_err(|_| SignificanceError::InvalidParameter {
        name: "first attribute",
        value: first as f64,
    })?;
    let card_b = schema.cardinality(second).map_err(|_| SignificanceError::InvalidParameter {
        name: "second attribute",
        value: second as f64,
    })?;
    let pair = table.marginal(VarSet::from_indices([first, second]));
    let ma = table.marginal(VarSet::singleton(first));
    let mb = table.marginal(VarSet::singleton(second));
    let n = table.total() as f64;
    if n == 0.0 {
        return Err(SignificanceError::InvalidCount { reason: "empty table".to_string() });
    }
    let mut observed = Vec::with_capacity(card_a * card_b);
    let mut expected = Vec::with_capacity(card_a * card_b);
    for i in 0..card_a {
        for j in 0..card_b {
            let o = if first < second { pair.get(&[i, j]) } else { pair.get(&[j, i]) } as f64;
            let e = ma.get(&[i]) as f64 * mb.get(&[j]) as f64 / n;
            observed.push(o);
            expected.push(e);
        }
    }
    let dof = (((card_a - 1) * (card_b - 1)) as f64).max(1.0);
    g_statistic(&observed, &expected, dof)
}

/// Single-cell G-test (1 degree of freedom) of an observed count against a
/// model probability, the per-cell selection rule of the classical ablation
/// pipeline.
pub fn g_test_cell(observed: u64, p: f64, n: u64) -> Result<GTestResult> {
    if !(0.0..=1.0).contains(&p) || !p.is_finite() {
        return Err(SignificanceError::InvalidProbability {
            value: p,
            context: "cell probability",
        });
    }
    if observed > n {
        return Err(SignificanceError::InvalidCount {
            reason: format!("observed {observed} exceeds sample size {n}"),
        });
    }
    // Two-cell decomposition (in the cell vs. outside it) keeps the statistic
    // well defined for every observed value.
    let o = [observed as f64, (n - observed) as f64];
    let e = [n as f64 * p, n as f64 * (1.0 - p)];
    if e[0] == 0.0 || e[1] == 0.0 {
        let agrees = (p == 0.0 && observed == 0) || (p == 1.0 && observed == n);
        return Ok(GTestResult {
            statistic: if agrees { 0.0 } else { f64::INFINITY },
            degrees_of_freedom: 1.0,
            p_value: if agrees { 1.0 } else { 0.0 },
        });
    }
    g_statistic(&o, &e, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chi_square::chi_square_independence;
    use pka_contingency::{Attribute, Schema};
    use proptest::prelude::*;

    fn paper_table() -> ContingencyTable {
        let schema = Schema::new(vec![
            Attribute::new("smoking", ["smoker", "non-smoker", "married-to-smoker"]),
            Attribute::yes_no("cancer"),
            Attribute::yes_no("family-history"),
        ])
        .unwrap()
        .into_shared();
        ContingencyTable::from_counts(
            schema,
            vec![130, 110, 410, 640, 62, 31, 580, 460, 78, 22, 520, 385],
        )
        .unwrap()
    }

    #[test]
    fn g_statistic_zero_for_perfect_fit() {
        let e = [10.0, 20.0, 30.0];
        let r = g_statistic(&e, &e, 2.0).unwrap();
        assert!(r.statistic.abs() < 1e-12);
        assert!((r.p_value - 1.0).abs() < 1e-9);
    }

    #[test]
    fn g_statistic_handles_zero_observed() {
        let r = g_statistic(&[0.0, 10.0], &[5.0, 5.0], 1.0).unwrap();
        assert!(r.statistic > 0.0 && r.statistic.is_finite());
        assert!(g_statistic(&[1.0, 2.0], &[1.0], 1.0).is_err());
        assert!(g_statistic(&[1.0], &[0.0], 1.0).is_err());
    }

    #[test]
    fn g_and_chi_square_agree_on_paper_data() {
        // For the fairly large counts of the smoking survey the two
        // statistics should be close and lead to the same decisions.
        let t = paper_table();
        let g = g_test_independence(&t, 0, 2).unwrap();
        let x2 = chi_square_independence(&t, 0, 2).unwrap();
        assert!((g.statistic - x2.statistic).abs() / x2.statistic < 0.1);
        assert!(g.is_significant_at(0.001));
        let g_ab = g_test_independence(&t, 0, 1).unwrap();
        assert!(g_ab.is_significant_at(0.001));
        assert!(g_test_independence(&t, 0, 0).is_err());
    }

    #[test]
    fn cell_test_behaviour() {
        let strong = g_test_cell(240, 0.048, 3428).unwrap();
        assert!(strong.p_value < 1e-6);
        let weak = g_test_cell(165, 0.048, 3428).unwrap();
        assert!(weak.p_value > 0.5);
        assert!(g_test_cell(10, 2.0, 20).is_err());
        assert!(g_test_cell(30, 0.5, 20).is_err());
        assert_eq!(g_test_cell(0, 0.0, 50).unwrap().p_value, 1.0);
        assert_eq!(g_test_cell(3, 0.0, 50).unwrap().p_value, 0.0);
    }

    proptest! {
        #[test]
        fn prop_g_nonnegative(
            observed in proptest::collection::vec(0.0f64..60.0, 4),
        ) {
            let expected = vec![15.0; 4];
            let r = g_statistic(&observed, &expected, 3.0).unwrap();
            prop_assert!(r.statistic >= 0.0);
            prop_assert!((0.0..=1.0).contains(&r.p_value));
        }

        #[test]
        fn prop_cell_test_p_small_for_large_deviation(n in 500u64..3000, p in 0.1f64..0.4) {
            // An observation at 3x the expectation should essentially always
            // be rejected at the 1% level for these sample sizes.
            let observed = ((n as f64 * p) * 3.0).min(n as f64) as u64;
            let r = g_test_cell(observed, p, n).unwrap();
            prop_assert!(r.p_value < 0.01);
        }
    }
}
