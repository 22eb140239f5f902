//! Distributions with *planted* interactions of known location and
//! strength — the ground truth of the recovery experiments (X2).
//!
//! Starting from a random independence distribution, selected marginal cells
//! are multiplied by a strength factor and the table renormalised.  The
//! planted cells are exactly the higher-order constraints a perfect
//! acquisition run should discover (given enough samples), so recovery can
//! be measured as the fraction of planted cells found.

use pka_contingency::{Assignment, Schema};
use pka_maxent::JointDistribution;
use rand::prelude::*;
use std::sync::Arc;

/// One planted interaction: the affected marginal cell and the multiplicative
/// strength applied to its cells (strength 1 = no interaction; larger values
/// mean stronger, easier-to-detect structure).
#[derive(Debug, Clone, PartialEq)]
pub struct PlantedInteraction {
    /// The marginal cell whose probability was boosted (or suppressed).
    pub assignment: Assignment,
    /// The multiplicative factor applied before renormalisation.
    pub strength: f64,
}

/// A generated experiment: the true distribution plus the list of planted
/// interactions.
#[derive(Debug, Clone)]
pub struct PlantedExperiment {
    /// The ground-truth joint distribution.
    pub joint: JointDistribution,
    /// The interactions hidden in it.
    pub planted: Vec<PlantedInteraction>,
}

impl PlantedExperiment {
    /// Generates an experiment over `schema` with `count` planted
    /// interactions of the given `order` and `strength`.
    ///
    /// Interaction cells are chosen uniformly at random without repetition;
    /// the base distribution is a random independence distribution so that
    /// *only* the planted cells carry higher-order structure.
    pub fn generate(
        schema: Arc<Schema>,
        order: usize,
        count: usize,
        strength: f64,
        rng: &mut StdRng,
    ) -> Self {
        assert!(order >= 2, "planted interactions must be of order 2 or higher");
        assert!(order <= schema.len(), "order exceeds the number of attributes");
        assert!(strength > 0.0 && strength.is_finite(), "strength must be positive");

        let base = crate::synthetic::random_independent(Arc::clone(&schema), rng);
        let mut weights: Vec<f64> = base.probabilities().to_vec();

        // Enumerate all candidate (variable set, configuration) cells of the
        // requested order and pick `count` of them without replacement.
        let mut candidates: Vec<Assignment> = Vec::new();
        for vars in schema.all_vars().subsets_of_size(order) {
            for values in schema.configurations(vars) {
                candidates.push(Assignment::new(vars, values));
            }
        }
        let count = count.min(candidates.len());
        let mut planted = Vec::with_capacity(count);
        for _ in 0..count {
            let pick = rng.random_range(0..candidates.len());
            let assignment = candidates.swap_remove(pick);
            for (idx, values) in schema.cells().enumerate() {
                if assignment.matches(&values) {
                    weights[idx] *= strength;
                }
            }
            planted.push(PlantedInteraction { assignment, strength });
        }

        Self { joint: JointDistribution::from_unnormalized(schema, weights), planted }
    }

    /// Fraction of planted interactions whose *variable set* appears among
    /// the discovered constraint assignments.  (Cell-exact recovery is
    /// stricter: use [`PlantedExperiment::cell_recovery`].)
    pub fn varset_recovery(&self, discovered: &[Assignment]) -> f64 {
        if self.planted.is_empty() {
            return 1.0;
        }
        let hits = self
            .planted
            .iter()
            .filter(|p| discovered.iter().any(|d| d.vars() == p.assignment.vars()))
            .count();
        hits as f64 / self.planted.len() as f64
    }

    /// Fraction of planted cells recovered exactly (same variable set *and*
    /// same value configuration).
    pub fn cell_recovery(&self, discovered: &[Assignment]) -> f64 {
        if self.planted.is_empty() {
            return 1.0;
        }
        let hits = self.planted.iter().filter(|p| discovered.contains(&p.assignment)).count();
        hits as f64 / self.planted.len() as f64
    }

    /// Number of discovered constraints that do not correspond to any
    /// planted variable set — the "false positive" count of a recovery run.
    pub fn false_positives(&self, discovered: &[Assignment]) -> usize {
        discovered
            .iter()
            .filter(|d| !self.planted.iter().any(|p| p.assignment.vars() == d.vars()))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::seeded_rng;

    fn schema() -> Arc<Schema> {
        Schema::uniform(&[3, 2, 2, 2]).unwrap().into_shared()
    }

    #[test]
    fn generate_produces_requested_count_and_order() {
        let exp = PlantedExperiment::generate(schema(), 2, 3, 4.0, &mut seeded_rng(1));
        assert_eq!(exp.planted.len(), 3);
        assert!(exp.planted.iter().all(|p| p.assignment.order() == 2));
        assert!(exp.planted.iter().all(|p| (p.strength - 4.0).abs() < 1e-12));
        // Planted cells are distinct.
        for (i, a) in exp.planted.iter().enumerate() {
            for b in &exp.planted[i + 1..] {
                assert_ne!(a.assignment, b.assignment);
            }
        }
        assert!((exp.joint.probabilities().iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn count_is_capped_at_available_cells() {
        let small = Schema::uniform(&[2, 2]).unwrap().into_shared();
        let exp = PlantedExperiment::generate(small, 2, 100, 2.0, &mut seeded_rng(2));
        assert_eq!(exp.planted.len(), 4);
    }

    #[test]
    fn planting_actually_creates_dependence() {
        let schema = Schema::uniform(&[2, 2]).unwrap().into_shared();
        let exp = PlantedExperiment::generate(Arc::clone(&schema), 2, 1, 6.0, &mut seeded_rng(3));
        let planted = &exp.planted[0].assignment;
        let joint_p = exp.joint.probability(planted);
        let product: f64 = planted
            .pairs()
            .map(|(attr, v)| exp.joint.probability(&Assignment::single(attr, v)))
            .product();
        assert!(
            (joint_p - product).abs() > 0.01,
            "planted cell should deviate from independence: joint {joint_p} vs product {product}"
        );
    }

    #[test]
    fn recovery_metrics() {
        let exp = PlantedExperiment::generate(schema(), 2, 2, 3.0, &mut seeded_rng(4));
        let planted_cells: Vec<Assignment> =
            exp.planted.iter().map(|p| p.assignment.clone()).collect();
        assert_eq!(exp.cell_recovery(&planted_cells), 1.0);
        assert_eq!(exp.varset_recovery(&planted_cells), 1.0);
        assert_eq!(exp.false_positives(&planted_cells), 0);
        assert_eq!(exp.cell_recovery(&[]), 0.0);
        // A discovery over an unrelated varset counts as a false positive.
        let unrelated = Assignment::from_pairs([(0, 0), (1, 0), (2, 0)]);
        let has_same_varset = exp.planted.iter().any(|p| p.assignment.vars() == unrelated.vars());
        if !has_same_varset {
            assert_eq!(exp.false_positives(&[unrelated]), 1);
        }
        // Partial recovery.
        let half = vec![planted_cells[0].clone()];
        assert!((exp.cell_recovery(&half) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn first_order_planting_is_rejected() {
        let _ = PlantedExperiment::generate(schema(), 1, 1, 2.0, &mut seeded_rng(5));
    }

    #[test]
    fn determinism_per_seed() {
        let a = PlantedExperiment::generate(schema(), 3, 2, 5.0, &mut seeded_rng(6));
        let b = PlantedExperiment::generate(schema(), 3, 2, 5.0, &mut seeded_rng(6));
        assert_eq!(a.planted, b.planted);
        assert_eq!(a.joint.probabilities(), b.joint.probabilities());
    }
}
