//! The binomial distribution of Eq. 32 of the memo.
//!
//! The probability of observing `N_{ijk}` occurrences of a cell out of `N`
//! samples, when the model assigns the cell probability `p_{ijk}`, is
//!
//! ```text
//! P(N_ijk | p_ijk, N) = C(N, N_ijk) · p_ijk^N_ijk · (1 − p_ijk)^(N − N_ijk)
//! ```
//!
//! with mean `N·p` (Eq. 33) and standard deviation `sqrt(N·p·(1−p))`
//! (Eq. 34).  The message-length test needs the **exact** log-pmf: the cells
//! that matter are many standard deviations from the mean, where the normal
//! approximation under-estimates the probability by an amount large enough
//! to flip significance decisions.

use crate::error::SignificanceError;
use crate::special::ln_choose;
use crate::Result;
use serde::{Deserialize, Serialize};

/// A binomial distribution `B(n, p)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Binomial {
    n: u64,
    p: f64,
}

impl Binomial {
    /// Creates a binomial distribution with `n` trials and success
    /// probability `p`.
    pub fn new(n: u64, p: f64) -> Result<Self> {
        if !(0.0..=1.0).contains(&p) || !p.is_finite() {
            return Err(SignificanceError::InvalidProbability { value: p, context: "binomial p" });
        }
        Ok(Self { n, p })
    }

    /// Number of trials.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Success probability.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Mean `N·p` (Eq. 33).
    pub fn mean(&self) -> f64 {
        self.n as f64 * self.p
    }

    /// Standard deviation `sqrt(N·p·(1−p))` (Eq. 34).
    pub fn std_dev(&self) -> f64 {
        (self.n as f64 * self.p * (1.0 - self.p)).sqrt()
    }

    /// Number of standard deviations the observation `k` lies from the mean
    /// (the `#sd` column of Table 1); `0` when the distribution is
    /// degenerate.
    pub fn z_score(&self, k: u64) -> f64 {
        let sd = self.std_dev();
        if sd == 0.0 {
            0.0
        } else {
            (k as f64 - self.mean()) / sd
        }
    }

    /// Exact natural log of the probability mass at `k`.
    ///
    /// Degenerate cases follow the distribution's support: with `p = 0` all
    /// mass is at `k = 0`, with `p = 1` all mass is at `k = n`.
    pub fn ln_pmf(&self, k: u64) -> Result<f64> {
        if k > self.n {
            return Err(SignificanceError::InvalidCount {
                reason: format!("observed count {k} exceeds the number of trials {}", self.n),
            });
        }
        if self.p == 0.0 {
            return Ok(if k == 0 { 0.0 } else { f64::NEG_INFINITY });
        }
        if self.p == 1.0 {
            return Ok(if k == self.n { 0.0 } else { f64::NEG_INFINITY });
        }
        let k_f = k as f64;
        let n_f = self.n as f64;
        Ok(ln_choose(self.n, k) + k_f * self.p.ln() + (n_f - k_f) * (1.0 - self.p).ln())
    }

    /// Probability mass at `k`.
    pub fn pmf(&self, k: u64) -> Result<f64> {
        Ok(self.ln_pmf(k)?.exp())
    }

    /// Cumulative probability `P(X ≤ k)` by direct summation around the
    /// dominant terms.  Exact (to summation round-off); adequate for the
    /// table sizes this system handles.
    pub fn cdf(&self, k: u64) -> Result<f64> {
        let k = k.min(self.n);
        let mut acc = 0.0;
        for i in 0..=k {
            acc += self.pmf(i)?;
        }
        Ok(acc.min(1.0))
    }

    /// Survival probability `P(X > k)`.
    pub fn sf(&self, k: u64) -> Result<f64> {
        Ok((1.0 - self.cdf(k)?).max(0.0))
    }

    /// The log-pmf of the normal approximation with the same mean and
    /// standard deviation.  Exposed so the documentation (and tests) can
    /// demonstrate how far the approximation drifts in the tails — the
    /// reason the exact pmf is used in the message-length test.
    pub fn ln_pmf_normal_approx(&self, k: u64) -> f64 {
        let sd = self.std_dev();
        if sd == 0.0 {
            return if (k as f64 - self.mean()).abs() < 0.5 { 0.0 } else { f64::NEG_INFINITY };
        }
        let z = self.z_score(k);
        -(sd * (2.0 * std::f64::consts::PI).sqrt()).ln() - 0.5 * z * z
    }

    /// Entropy (in nats) of the distribution, computed by summation.
    /// Used by the model-quality metrics in the benchmark harness.
    pub fn entropy(&self) -> f64 {
        if self.p == 0.0 || self.p == 1.0 {
            return 0.0;
        }
        let mut h = 0.0;
        for k in 0..=self.n {
            let lp = self.ln_pmf(k).expect("k <= n");
            if lp.is_finite() {
                h -= lp.exp() * lp;
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rejects_invalid_p() {
        assert!(Binomial::new(10, -0.1).is_err());
        assert!(Binomial::new(10, 1.1).is_err());
        assert!(Binomial::new(10, f64::NAN).is_err());
        assert!(Binomial::new(10, 0.0).is_ok());
        assert!(Binomial::new(10, 1.0).is_ok());
    }

    #[test]
    fn mean_and_sd_match_eq_33_34() {
        // Table 1, row N^AB_11: p = .048, N = 3428 -> mean 165, sd 12.5.
        let b = Binomial::new(3428, 0.048).unwrap();
        assert!((b.mean() - 164.5).abs() < 0.1);
        assert!((b.std_dev() - 12.5).abs() < 0.02);
        // Row N^AB_12: p = .329 -> mean 1128, sd 27.5.
        let b = Binomial::new(3428, 0.329).unwrap();
        assert!((b.mean() - 1127.8).abs() < 0.1);
        assert!((b.std_dev() - 27.5).abs() < 0.05);
    }

    #[test]
    fn z_scores_match_table_1() {
        // Observed 240 in cell AB_11: 6.03 sd above the mean.
        let b = Binomial::new(3428, 0.048).unwrap();
        assert!((b.z_score(240) - 6.03).abs() < 0.05);
        // Observed 1050 in cell AB_12: -2.83 sd.
        let b = Binomial::new(3428, 0.329).unwrap();
        assert!((b.z_score(1050) + 2.83).abs() < 0.05);
    }

    #[test]
    fn pmf_sums_to_one_small_n() {
        let b = Binomial::new(12, 0.3).unwrap();
        let total: f64 = (0..=12).map(|k| b.pmf(k).unwrap()).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pmf_known_values() {
        let b = Binomial::new(4, 0.5).unwrap();
        assert!((b.pmf(2).unwrap() - 0.375).abs() < 1e-12);
        assert!((b.pmf(0).unwrap() - 0.0625).abs() < 1e-12);
        let b = Binomial::new(10, 0.2).unwrap();
        // C(10,3) * .2^3 * .8^7 = 120 * .008 * .2097152
        assert!((b.pmf(3).unwrap() - 0.201_326_592).abs() < 1e-9);
    }

    #[test]
    fn degenerate_distributions() {
        let b0 = Binomial::new(5, 0.0).unwrap();
        assert_eq!(b0.pmf(0).unwrap(), 1.0);
        assert_eq!(b0.pmf(3).unwrap(), 0.0);
        assert_eq!(b0.std_dev(), 0.0);
        assert_eq!(b0.z_score(0), 0.0);
        let b1 = Binomial::new(5, 1.0).unwrap();
        assert_eq!(b1.pmf(5).unwrap(), 1.0);
        assert_eq!(b1.pmf(0).unwrap(), 0.0);
        assert_eq!(b0.entropy(), 0.0);
    }

    #[test]
    fn ln_pmf_rejects_k_above_n() {
        let b = Binomial::new(5, 0.4).unwrap();
        assert!(b.ln_pmf(6).is_err());
    }

    #[test]
    fn cdf_and_sf_are_complementary() {
        let b = Binomial::new(20, 0.35).unwrap();
        for k in 0..=20 {
            let c = b.cdf(k).unwrap();
            let s = b.sf(k).unwrap();
            assert!((c + s - 1.0).abs() < 1e-9);
        }
        assert!((b.cdf(20).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn exact_tail_is_heavier_than_normal_approximation() {
        // This is the numerical fact that makes the exact pmf necessary for
        // reproducing Table 1: at ~6 sd above the mean of a low-p binomial,
        // the exact pmf exceeds the normal approximation substantially.
        let b = Binomial::new(3428, 0.048).unwrap();
        let exact = b.ln_pmf(240).unwrap();
        let approx = b.ln_pmf_normal_approx(240);
        assert!(exact > approx + 0.5, "exact {exact} should exceed normal approx {approx}");
    }

    #[test]
    fn entropy_positive_for_nondegenerate() {
        let b = Binomial::new(30, 0.4).unwrap();
        let h = b.entropy();
        assert!(h > 0.0 && h.is_finite());
    }

    proptest! {
        #[test]
        fn prop_pmf_in_unit_interval(n in 1u64..200, p in 0.0f64..1.0, k in 0u64..200) {
            prop_assume!(k <= n);
            let b = Binomial::new(n, p).unwrap();
            let pm = b.pmf(k).unwrap();
            prop_assert!((0.0..=1.0 + 1e-12).contains(&pm));
        }

        #[test]
        fn prop_pmf_sums_to_one(n in 1u64..80, p in 0.01f64..0.99) {
            let b = Binomial::new(n, p).unwrap();
            let total: f64 = (0..=n).map(|k| b.pmf(k).unwrap()).sum();
            prop_assert!((total - 1.0).abs() < 1e-9);
        }

        #[test]
        fn prop_cdf_monotone(n in 1u64..60, p in 0.01f64..0.99, k in 0u64..60) {
            prop_assume!(k < n);
            let b = Binomial::new(n, p).unwrap();
            prop_assert!(b.cdf(k + 1).unwrap() + 1e-12 >= b.cdf(k).unwrap());
        }

        #[test]
        fn prop_mean_within_support(n in 1u64..1000, p in 0.0f64..1.0) {
            let b = Binomial::new(n, p).unwrap();
            prop_assert!(b.mean() >= 0.0 && b.mean() <= n as f64);
            prop_assert!(b.std_dev() >= 0.0);
        }
    }
}
