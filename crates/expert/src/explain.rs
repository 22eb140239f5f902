//! Explanations: *why* did the engine give that answer?
//!
//! A probabilistic knowledge base can justify an answer by pointing at the
//! discovered constraints that connect the evidence to the conclusion and by
//! showing how the belief moved from the prior to the posterior as each
//! piece of evidence was taken into account.

use pka_contingency::{Assignment, Schema};
use pka_core::{bayes, KnowledgeBase, Result};
use serde::{Deserialize, Serialize};

/// One step of an explanation: the belief in the target after conditioning
/// on one more piece of evidence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExplanationStep {
    /// The evidence considered so far (cumulative).
    pub evidence_so_far: Assignment,
    /// `P(target | evidence_so_far)`.
    pub probability: f64,
}

/// A full explanation of a conditional query.
///
/// Serialisable, so a query server can ship the rule trace to remote
/// clients; attribute/value indices are resolved against the schema on the
/// receiving side (or pre-rendered with [`Explanation::render`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Explanation {
    /// The queried proposition.
    pub target: Assignment,
    /// The complete evidence.
    pub evidence: Assignment,
    /// The unconditional prior of the target.
    pub prior: f64,
    /// The final posterior.
    pub posterior: f64,
    /// Belief trajectory as evidence is added one fact at a time (in
    /// ascending attribute order).
    pub steps: Vec<ExplanationStep>,
    /// The discovered (higher-order) constraints that involve at least one
    /// evidence attribute together with at least one target attribute —
    /// the stored knowledge that makes the answer differ from the prior.
    pub supporting_constraints: Vec<(Assignment, f64)>,
}

impl Explanation {
    /// Lift of the final posterior over the prior.
    pub fn lift(&self) -> f64 {
        if self.prior <= 0.0 {
            f64::INFINITY
        } else {
            self.posterior / self.prior
        }
    }

    /// Human-readable rendering of the explanation.
    pub fn render(&self, schema: &Schema) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "P({} | {}) = {:.4}\n",
            self.target.describe(schema),
            self.evidence.describe(schema),
            self.posterior
        ));
        out.push_str(&format!(
            "  prior P({}) = {:.4} (lift {:.2})\n",
            self.target.describe(schema),
            self.prior,
            self.lift()
        ));
        out.push_str("  belief trajectory:\n");
        for step in &self.steps {
            out.push_str(&format!(
                "    after {}: {:.4}\n",
                step.evidence_so_far.describe(schema),
                step.probability
            ));
        }
        if self.supporting_constraints.is_empty() {
            out.push_str("  no discovered constraint links this evidence to the target; the answer follows from the first-order marginals alone\n");
        } else {
            out.push_str("  supporting discovered constraints:\n");
            for (assignment, p) in &self.supporting_constraints {
                out.push_str(&format!("    P[{}] = {:.4}\n", assignment.describe(schema), p));
            }
        }
        out
    }
}

/// Explains `P(target | evidence)` under a knowledge base.
pub fn explain_query(
    kb: &KnowledgeBase,
    target: &Assignment,
    evidence: &Assignment,
) -> Result<Explanation> {
    explain_query_with(kb, target, evidence, |a| kb.probability(a))
}

/// [`explain_query`] with every marginal probability drawn from
/// `probability` — how a server routes an explanation through its own
/// instrumented evaluation.  The posterior and every step are [`bayes`]
/// over it, so the posterior is bit for bit what a query over the same
/// source answers.
pub fn explain_query_with(
    kb: &KnowledgeBase,
    target: &Assignment,
    evidence: &Assignment,
    probability: impl Fn(&Assignment) -> f64,
) -> Result<Explanation> {
    let schema = kb.schema();
    let prior = probability(target);
    let posterior = bayes(schema, target, evidence, &probability)?.probability;

    // Belief trajectory: add evidence facts one at a time.
    let mut steps = Vec::new();
    let mut so_far = Assignment::empty();
    for (attr, value) in evidence.pairs() {
        so_far = so_far.with(attr, value);
        let probability = bayes(schema, target, &so_far, &probability)?.probability;
        steps.push(ExplanationStep { evidence_so_far: so_far.clone(), probability });
    }

    // Constraints linking evidence attributes to target attributes.
    let supporting_constraints = kb
        .significant_constraints()
        .into_iter()
        .filter(|c| {
            let vars = c.assignment.vars();
            !vars.intersection(evidence.vars()).is_empty()
                && !vars.intersection(target.vars()).is_empty()
        })
        .map(|c| (c.assignment.clone(), c.probability))
        .collect();

    Ok(Explanation {
        target: target.clone(),
        evidence: evidence.clone(),
        prior,
        posterior,
        steps,
        supporting_constraints,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pka_contingency::{Attribute, ContingencyTable, Schema};
    use pka_core::Acquisition;
    use std::sync::Arc;

    fn kb() -> KnowledgeBase {
        let schema = Schema::new(vec![
            Attribute::new("smoking", ["smoker", "non-smoker", "married-to-smoker"]),
            Attribute::yes_no("cancer"),
            Attribute::yes_no("family-history"),
        ])
        .unwrap()
        .into_shared();
        let t = ContingencyTable::from_counts(
            Arc::clone(&schema),
            vec![130, 110, 410, 640, 62, 31, 580, 460, 78, 22, 520, 385],
        )
        .unwrap();
        Acquisition::with_defaults().run(&t).unwrap().knowledge_base
    }

    #[test]
    fn explanation_tracks_the_belief_trajectory() {
        let kb = kb();
        let target = Assignment::single(1, 0); // cancer = yes
        let evidence = Assignment::from_pairs([(0, 0), (2, 0)]); // smoker, family history
        let e = explain_query(&kb, &target, &evidence).unwrap();
        assert_eq!(e.steps.len(), 2);
        // The final step's probability equals the posterior.
        assert!((e.steps.last().unwrap().probability - e.posterior).abs() < 1e-12);
        // Smoking raises the belief above the prior.
        assert!(e.posterior > e.prior);
        assert!(e.lift() > 1.0);
        let text = e.render(kb.schema());
        assert!(text.contains("belief trajectory"));
        assert!(text.contains("after smoking=smoker"));
    }

    #[test]
    fn supporting_constraints_link_evidence_and_target() {
        let kb = kb();
        let target = Assignment::single(1, 0);
        let evidence = Assignment::single(0, 0);
        let e = explain_query(&kb, &target, &evidence).unwrap();
        for (assignment, _) in &e.supporting_constraints {
            let vars = assignment.vars();
            assert!(!vars.intersection(evidence.vars()).is_empty());
            assert!(!vars.intersection(target.vars()).is_empty());
        }
    }

    #[test]
    fn empty_evidence_explanation_is_the_prior() {
        let kb = kb();
        let target = Assignment::single(1, 0);
        let e = explain_query(&kb, &target, &Assignment::empty()).unwrap();
        assert_eq!(e.posterior, e.prior);
        assert!(e.steps.is_empty());
        assert!((e.lift() - 1.0).abs() < 1e-12);
        let text = e.render(kb.schema());
        assert!(!text.is_empty());
    }

    #[test]
    fn unlinked_evidence_reports_no_supporting_constraints() {
        let kb = kb();
        // If family-history and cancer are not linked by any discovered
        // constraint (they are linked only through smoking in this data),
        // the explanation must say so.
        let target = Assignment::single(1, 0);
        let evidence = Assignment::single(2, 0);
        let e = explain_query(&kb, &target, &evidence).unwrap();
        let directly_linked = kb.significant_constraints().iter().any(|c| {
            let vars = c.assignment.vars();
            vars.contains(1) && vars.contains(2)
        });
        if !directly_linked {
            assert!(e.supporting_constraints.is_empty());
            assert!(e.render(kb.schema()).contains("first-order marginals alone"));
        }
    }
}
