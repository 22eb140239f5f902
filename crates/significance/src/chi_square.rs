//! Pearson χ² tests — the classical alternative to the memo's
//! message-length criterion, used by the ablation experiment (X5 in
//! DESIGN.md) and by the baseline association miner.

use crate::error::SignificanceError;
use crate::normal::Normal;
use crate::special::gamma_q;
use crate::Result;
use pka_contingency::{ContingencyTable, VarSet};
use serde::{Deserialize, Serialize};

/// Outcome of a χ²-type test.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChiSquareResult {
    /// The test statistic.
    pub statistic: f64,
    /// Degrees of freedom.
    pub degrees_of_freedom: f64,
    /// Upper-tail probability of the statistic under the χ² distribution.
    pub p_value: f64,
}

impl ChiSquareResult {
    /// True if the p-value is below the given significance level.
    pub fn is_significant_at(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

/// Survival function of the χ² distribution with `dof` degrees of freedom.
pub fn chi_square_sf(statistic: f64, dof: f64) -> Result<f64> {
    if !(dof > 0.0) || !dof.is_finite() {
        return Err(SignificanceError::InvalidParameter { name: "degrees_of_freedom", value: dof });
    }
    if !(statistic >= 0.0) || !statistic.is_finite() {
        return Err(SignificanceError::InvalidParameter { name: "statistic", value: statistic });
    }
    gamma_q(dof / 2.0, statistic / 2.0)
}

/// Pearson χ² statistic for paired observed/expected count vectors.
///
/// Cells with zero expectation contribute nothing when the observation is
/// also zero and are otherwise rejected (the model claims the cell is
/// impossible but it was observed).
pub fn chi_square_statistic(
    observed: &[f64],
    expected: &[f64],
    dof: f64,
) -> Result<ChiSquareResult> {
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
        if e <= 0.0 {
            if o > 0.0 {
                return Err(SignificanceError::InvalidCount {
                    reason: "observed count in a cell the model declares impossible".to_string(),
                });
            }
            continue;
        }
        let d = o - e;
        statistic += d * d / e;
    }
    let p_value = chi_square_sf(statistic, dof)?;
    Ok(ChiSquareResult { statistic, degrees_of_freedom: dof, p_value })
}

/// Classical χ² test of independence for a two-attribute marginal of a
/// contingency table: expected counts come from the product of the
/// single-attribute marginals, with `(I−1)(J−1)` degrees of freedom.
pub fn chi_square_independence(
    table: &ContingencyTable,
    first: usize,
    second: usize,
) -> Result<ChiSquareResult> {
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
    let dof = ((card_a - 1) * (card_b - 1)) as f64;
    chi_square_statistic(&observed, &expected, dof.max(1.0))
}

/// Single-cell χ² test (1 degree of freedom): is the observed count of one
/// cell compatible with the model probability `p`?
///
/// This is the "score ≥ k standard deviations" criterion the memo's Table 1
/// implicitly contrasts with the message-length test; the ablation bench
/// uses it as the constraint-selection rule of the classical pipeline.
pub fn chi_square_cell_test(observed: u64, p: f64, n: u64) -> Result<ChiSquareResult> {
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
    let variance = n as f64 * p * (1.0 - p);
    if variance == 0.0 {
        // Degenerate model: any disagreement is infinitely significant.
        let agrees = (p == 0.0 && observed == 0) || (p == 1.0 && observed == n);
        return Ok(ChiSquareResult {
            statistic: if agrees { 0.0 } else { f64::INFINITY },
            degrees_of_freedom: 1.0,
            p_value: if agrees { 1.0 } else { 0.0 },
        });
    }
    let z = (observed as f64 - n as f64 * p) / variance.sqrt();
    Ok(ChiSquareResult {
        statistic: z * z,
        degrees_of_freedom: 1.0,
        p_value: Normal::two_sided_p(z),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn sf_known_quantiles() {
        // 95th percentile of chi-square(1) is 3.841, of chi-square(4) is 9.488.
        assert!((chi_square_sf(3.841, 1.0).unwrap() - 0.05).abs() < 1e-3);
        assert!((chi_square_sf(9.488, 4.0).unwrap() - 0.05).abs() < 1e-3);
        assert!((chi_square_sf(0.0, 3.0).unwrap() - 1.0).abs() < 1e-12);
        assert!(chi_square_sf(1.0, 0.0).is_err());
        assert!(chi_square_sf(-1.0, 1.0).is_err());
    }

    #[test]
    fn statistic_simple_example() {
        // Classic die example: observed [22,17,21,13,17,30] vs uniform 20.
        let observed = [22.0, 17.0, 21.0, 13.0, 17.0, 30.0];
        let expected = [20.0; 6];
        let r = chi_square_statistic(&observed, &expected, 5.0).unwrap();
        assert!((r.statistic - 8.6).abs() < 1e-9);
        assert!(r.p_value > 0.1 && r.p_value < 0.2);
        assert!(!r.is_significant_at(0.05));
    }

    #[test]
    fn statistic_rejects_mismatched_and_impossible() {
        assert!(chi_square_statistic(&[1.0], &[1.0, 2.0], 1.0).is_err());
        assert!(chi_square_statistic(&[1.0], &[0.0], 1.0).is_err());
        // Zero-observed, zero-expected cells are allowed.
        let r = chi_square_statistic(&[0.0, 10.0], &[0.0, 10.0], 1.0).unwrap();
        assert_eq!(r.statistic, 0.0);
    }

    #[test]
    fn independence_detects_smoking_cancer_association() {
        // Smoking and family history are strongly associated in the paper's
        // data (that is the constraint the procedure discovers first), while
        // cancer and family history are much weaker.
        let t = paper_table();
        let ac = chi_square_independence(&t, 0, 2).unwrap();
        assert!(ac.is_significant_at(0.001), "p = {}", ac.p_value);
        assert_eq!(ac.degrees_of_freedom, 2.0);
        let ab = chi_square_independence(&t, 0, 1).unwrap();
        assert!(ab.is_significant_at(0.001));
        // Swapping the attribute order must not change the statistic.
        let ca = chi_square_independence(&t, 2, 0).unwrap();
        assert!((ac.statistic - ca.statistic).abs() < 1e-9);
        assert!(chi_square_independence(&t, 1, 1).is_err());
    }

    #[test]
    fn cell_test_tracks_z_score() {
        let r = chi_square_cell_test(240, 0.048, 3428).unwrap();
        assert!(r.statistic > 30.0); // ~6 sd
        assert!(r.p_value < 1e-8);
        let near = chi_square_cell_test(165, 0.048, 3428).unwrap();
        assert!(near.p_value > 0.5);
        assert!(chi_square_cell_test(10, 1.5, 20).is_err());
        assert!(chi_square_cell_test(30, 0.5, 20).is_err());
    }

    #[test]
    fn cell_test_degenerate_models() {
        let ok = chi_square_cell_test(0, 0.0, 100).unwrap();
        assert_eq!(ok.p_value, 1.0);
        let bad = chi_square_cell_test(5, 0.0, 100).unwrap();
        assert_eq!(bad.p_value, 0.0);
        let all = chi_square_cell_test(100, 1.0, 100).unwrap();
        assert_eq!(all.p_value, 1.0);
    }

    proptest! {
        #[test]
        fn prop_statistic_zero_when_observed_equals_expected(
            expected in proptest::collection::vec(0.5f64..50.0, 1..10),
        ) {
            let r = chi_square_statistic(&expected, &expected, expected.len() as f64).unwrap();
            prop_assert!(r.statistic.abs() < 1e-9);
            prop_assert!((r.p_value - 1.0).abs() < 1e-6);
        }

        #[test]
        fn prop_p_value_in_unit_interval(
            observed in proptest::collection::vec(0.0f64..100.0, 4),
            dof in 1.0f64..10.0,
        ) {
            let expected = vec![25.0; 4];
            let r = chi_square_statistic(&observed, &expected, dof).unwrap();
            prop_assert!((0.0..=1.0).contains(&r.p_value));
        }
    }
}
