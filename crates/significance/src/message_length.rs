//! The minimum-message-length significance test (Eqs. 35–47 of the memo).
//!
//! For every candidate cell the test compares two hypotheses:
//!
//! * **H1** — no more significant constraints exist at this order; the
//!   current maximum-entropy model explains the observed count, whose
//!   probability is the exact binomial of Eq. 32.
//! * **H2** — at least one more constraint exists (*H2′*) **and** this very
//!   cell is it (*H2″*); lacking other knowledge the count is uniform over
//!   the integer range still available to the cell (Eq. 41, computed by
//!   [`crate::bounds`]).
//!
//! The difference of the two message lengths, `m2 − m1`, is the log of the
//! posterior odds `p(H1|D)/p(H2|D)`; the cell is significant iff it is
//! negative (Eq. 47).  Table 1 of the memo lists exactly these quantities
//! for the smoking/cancer example.

use crate::binomial::Binomial;
use crate::bounds::CellRange;
use crate::error::SignificanceError;
use crate::Result;
use serde::{Deserialize, Serialize};

/// Prior probabilities of the two hypotheses.
///
/// The memo (Eq. 63) takes `p(H2′) = p(H1) = ½` so the prior terms cancel;
/// it also notes the effect of `p(H2′) = 0.6` (difference of −0.40 in
/// `m2 − m1`) and `p(H2′) = 0.8` (−1.39).  Both are expressible here.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HypothesisPriors {
    /// `p(H2′)`: prior probability that at least one more significant
    /// constraint remains at the current order.  `p(H1) = 1 − p(H2′)`.
    p_more_constraints: f64,
}

impl HypothesisPriors {
    /// Creates priors with the given `p(H2′)`; must lie strictly inside
    /// `(0, 1)` so both message lengths are finite.
    pub fn new(p_more_constraints: f64) -> Result<Self> {
        if !(p_more_constraints > 0.0 && p_more_constraints < 1.0) {
            return Err(SignificanceError::InvalidProbability {
                value: p_more_constraints,
                context: "p(H2')",
            });
        }
        Ok(Self { p_more_constraints })
    }

    /// The memo's default: both hypotheses equally likely a priori
    /// (Eq. 63).
    pub fn even() -> Self {
        Self { p_more_constraints: 0.5 }
    }

    /// `p(H2′)`.
    pub fn p_more_constraints(&self) -> f64 {
        self.p_more_constraints
    }

    /// `p(H1) = 1 − p(H2′)`.
    pub fn p_no_more_constraints(&self) -> f64 {
        1.0 - self.p_more_constraints
    }

    /// The net contribution of the priors to `m2 − m1`,
    /// `ln p(H1) − ln p(H2′)`; zero for [`HypothesisPriors::even`].
    pub fn prior_delta(&self) -> f64 {
        self.p_no_more_constraints().ln() - self.p_more_constraints.ln()
    }
}

impl Default for HypothesisPriors {
    fn default() -> Self {
        Self::even()
    }
}

/// Result of evaluating one candidate cell.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MessageLengths {
    /// `m1 = −ln p(H1) − ln B(observed; N, predicted_p)` (Eq. 46).
    pub m1: f64,
    /// `m2 = −ln p(H2′) + ln(cells − M) + ln(range + 1)` (Eq. 45).
    pub m2: f64,
    /// Predicted mean count under the model (Eq. 33) — Table 1 column 3.
    pub mean: f64,
    /// Predicted standard deviation (Eq. 34) — Table 1 column 4.
    pub std_dev: f64,
    /// Standardised deviation of the observation — Table 1 column 5.
    pub z_score: f64,
}

impl MessageLengths {
    /// `m2 − m1`, the log posterior odds of H1 over H2 — Table 1 column 6.
    pub fn delta(&self) -> f64 {
        self.m2 - self.m1
    }

    /// The posterior odds `p(H1|D)/p(H2|D) = exp(m2 − m1)` — Table 1
    /// column 7.
    pub fn likelihood_ratio(&self) -> f64 {
        self.delta().exp()
    }

    /// True iff the observation is statistically significant, i.e. H2 is
    /// more likely than H1 (Eq. 47: `m2 − m1 < 0`).
    pub fn is_significant(&self) -> bool {
        self.delta() < 0.0
    }
}

/// The significance test itself, parameterised by the hypothesis priors.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct MessageLengthTest {
    priors: HypothesisPriors,
}

impl MessageLengthTest {
    /// Creates a test with the given priors.
    pub fn new(priors: HypothesisPriors) -> Self {
        Self { priors }
    }

    /// The priors in use.
    pub fn priors(&self) -> HypothesisPriors {
        self.priors
    }

    /// Evaluates one candidate cell.  The test needs only the cell's
    /// numbers, not its identity:
    ///
    /// * `observed` — the observed count `N_{S,c}`.
    /// * `predicted_p` — the probability `p_{S,c}` the current
    ///   maximum-entropy model predicts for the cell.
    /// * `n_total` — the total sample size `N`.
    /// * `cells_at_order` — number of candidate cells at the current order
    ///   (the memo's `I·J·K·…` summed over the variable subsets of that
    ///   order; 16 for the example's second order).
    /// * `found_at_order` — the memo's `M`, the number of significant
    ///   constraints already accepted at this order.
    /// * `range` — the integer range available to the cell under H2
    ///   (computed by [`crate::bounds::RangeContext::range_of`]).
    pub fn evaluate(
        &self,
        observed: u64,
        predicted_p: f64,
        n_total: u64,
        cells_at_order: usize,
        found_at_order: usize,
        range: &CellRange,
    ) -> Result<MessageLengths> {
        if observed > n_total {
            return Err(SignificanceError::InvalidCount {
                reason: format!("observed count {observed} exceeds the sample size {n_total}"),
            });
        }
        if cells_at_order <= found_at_order {
            return Err(SignificanceError::InvalidCount {
                reason: format!(
                    "no candidate cells remain at this order ({cells_at_order} cells, {found_at_order} already found)"
                ),
            });
        }
        let binomial = Binomial::new(n_total, predicted_p)?;
        let ln_pmf = binomial.ln_pmf(observed)?;

        // Eq. 46: m1 = −ln p(H1) − ln B(N_obs; N, p).
        let m1 = -self.priors.p_no_more_constraints().ln() - ln_pmf;

        // Eq. 45: m2 = −ln p(H2') + ln(#cells − M) + (−ln p(D|H2)).
        let remaining_cells = (cells_at_order - found_at_order) as f64;
        let m2 =
            -self.priors.p_more_constraints().ln() + remaining_cells.ln() + range.message_length();

        Ok(MessageLengths {
            m1,
            m2,
            mean: binomial.mean(),
            std_dev: binomial.std_dev(),
            z_score: binomial.z_score(observed),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::{KnownCells, RangeContext};
    use pka_contingency::{Assignment, Attribute, ContingencyTable, MarginalTables, Schema};
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

    /// Helper reproducing one Table-1 row: all constraints are the first-order
    /// marginals, the model is the independence model, and there are 16
    /// second-order candidate cells.
    fn evaluate_paper_cell(pairs: [(usize, usize); 2], predicted_p: f64) -> MessageLengths {
        let t = paper_table();
        let observed = MarginalTables::up_to_order(&t, 2);
        let none = KnownCells::new();
        let ctx = RangeContext::new(&observed, &none, &none);
        let assignment = Assignment::from_pairs(pairs);
        let observed = t.count_matching(&assignment);
        let range = ctx.range_of(&assignment);
        MessageLengthTest::new(HypothesisPriors::even())
            .evaluate(observed, predicted_p, t.total(), 16, 0, &range)
            .unwrap()
    }

    #[test]
    fn priors_validation() {
        assert!(HypothesisPriors::new(0.0).is_err());
        assert!(HypothesisPriors::new(1.0).is_err());
        assert!(HypothesisPriors::new(0.6).is_ok());
        assert_eq!(HypothesisPriors::even().prior_delta(), 0.0);
        assert_eq!(HypothesisPriors::default(), HypothesisPriors::even());
    }

    #[test]
    fn prior_sensitivity_matches_memo_notes() {
        // The memo: p(H2') = .6 shifts (m2 - m1) by about -0.40, and
        // p(H2') = .8 by about -1.39, relative to the even prior.
        let d6 = HypothesisPriors::new(0.6).unwrap().prior_delta();
        assert!((d6 - (-0.405)).abs() < 0.01);
        let d8 = HypothesisPriors::new(0.8).unwrap().prior_delta();
        assert!((d8 - (-1.386)).abs() < 0.01);
    }

    #[test]
    fn table1_row_ab11_is_significant() {
        // Table 1: p^AB_11 = .048, observed 240, mean 165, sd 12.5,
        // 6.03 sd, m2 - m1 = -11.57 (significant).
        let r = evaluate_paper_cell([(0, 0), (1, 0)], 0.376 * 0.126);
        assert!((r.mean - 162.0).abs() < 4.0);
        assert!((r.std_dev - 12.5).abs() < 0.2);
        assert!(r.z_score > 5.8 && r.z_score < 6.6);
        assert!(r.is_significant());
        assert!(r.delta() < -9.0 && r.delta() > -16.0, "delta = {}", r.delta());
        assert!(r.likelihood_ratio() < 0.1);
    }

    #[test]
    fn table1_row_ab12_is_not_significant() {
        // Table 1: p^AB_12 = .329, observed 1050, m2 - m1 = 1.75.
        let r = evaluate_paper_cell([(0, 0), (1, 1)], 0.376 * 0.874);
        assert!(!r.is_significant());
        assert!((r.delta() - 1.75).abs() < 0.6, "delta = {}", r.delta());
        assert!((r.z_score + 2.83).abs() < 0.3);
    }

    #[test]
    fn table1_rows_ac11_and_ac12_are_most_significant() {
        // Table 1: N^AC_11 (observed 540, p = .195) has m2 - m1 = -10.54 and
        // N^AC_12 (observed 750, p = .181) has -9.95; both significant.
        let ac11 = evaluate_paper_cell([(0, 0), (2, 0)], 0.376 * 0.519);
        let ac12 = evaluate_paper_cell([(0, 0), (2, 1)], 0.376 * 0.481);
        assert!(ac11.is_significant());
        assert!(ac12.is_significant());
        assert!(ac11.delta() < -8.0);
        assert!(ac12.delta() < -7.5);
        assert!((ac11.z_score + 5.54).abs() < 0.3);
        assert!((ac12.z_score - 5.75).abs() < 0.3);
    }

    #[test]
    fn table1_row_bc11_large_z_but_not_significant() {
        // The memo highlights that N^BC_11 sits 3.27 sd from its mean yet is
        // NOT significant under the message-length criterion (m2 - m1 = .59):
        // the classical z-score and the MML test genuinely disagree here.
        let r = evaluate_paper_cell([(1, 0), (2, 0)], 0.126 * 0.519);
        assert!(r.z_score > 3.0);
        assert!(!r.is_significant(), "delta = {}", r.delta());
        assert!(r.delta() < 1.6, "delta = {}", r.delta());
    }

    #[test]
    fn evaluate_rejects_inconsistent_inputs() {
        let t = paper_table();
        let observed = MarginalTables::up_to_order(&t, 2);
        let none = KnownCells::new();
        let ctx = RangeContext::new(&observed, &none, &none);
        let a = Assignment::from_pairs([(0, 0), (1, 0)]);
        let range = ctx.range_of(&a);
        let test = MessageLengthTest::default();
        assert!(test.evaluate(99_999, 0.1, t.total(), 16, 0, &range).is_err());
        assert!(test.evaluate(240, 0.1, t.total(), 16, 16, &range).is_err());
    }

    #[test]
    fn determined_cells_get_zero_data_message_length() {
        // A determined cell only pays the model-indexing cost under H2, so it
        // is *easier* to call significant — exactly the memo's ELSE branch.
        let range = CellRange { max_value: 100, min_free_cells: 1, determined: true };
        let r = MessageLengthTest::default().evaluate(240, 0.048, 3428, 16, 0, &range).unwrap();
        // m2 = −ln p(H2′) + ln(16) with no data term.
        assert!((r.m2 - (-(0.5f64).ln() + (16f64).ln())).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn prop_likelihood_ratio_is_exp_delta(
            observed in 0u64..1000,
            p in 0.01f64..0.5,
            max_value in 1u64..2000,
        ) {
            let range = CellRange { max_value, min_free_cells: 3, determined: false };
            let r = MessageLengthTest::default().evaluate(observed, p, 2000, 16, 2, &range).unwrap();
            prop_assert!((r.likelihood_ratio() - r.delta().exp()).abs() < 1e-9);
            prop_assert_eq!(r.is_significant(), r.delta() < 0.0);
        }

        #[test]
        fn prop_larger_h2_prior_never_decreases_significance(
            observed in 0u64..500,
            p in 0.01f64..0.5,
        ) {
            // Raising p(H2') lowers m2 and leaves m1's data term unchanged, so
            // delta must not increase.
            let range = CellRange { max_value: 500, min_free_cells: 3, determined: false };
            let low = MessageLengthTest::new(HypothesisPriors::new(0.3).unwrap())
                .evaluate(observed, p, 500, 16, 0, &range).unwrap();
            let high = MessageLengthTest::new(HypothesisPriors::new(0.8).unwrap())
                .evaluate(observed, p, 500, 16, 0, &range).unwrap();
            prop_assert!(high.delta() <= low.delta() + 1e-9);
        }

        #[test]
        fn prop_observation_at_mean_is_never_significant(
            n in 100u64..3000,
            p in 0.05f64..0.5,
        ) {
            // An observation exactly at the model's expectation carries no
            // evidence for a new constraint.
            let observed = (n as f64 * p).round() as u64;
            let range = CellRange { max_value: n, min_free_cells: 4, determined: false };
            let r = MessageLengthTest::default().evaluate(observed, p, n, 16, 0, &range).unwrap();
            prop_assert!(!r.is_significant(), "delta = {}", r.delta());
        }
    }
}
