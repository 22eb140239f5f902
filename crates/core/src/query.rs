//! Conditional-probability queries against a knowledge base.
//!
//! The memo's motivating output is the ability to compute
//! `P(A | B, C) = P(A, B, C) / P(B, C)` for *any* proposition and *any*
//! combination of evidence, directly from the stored joint probabilities.
//! [`bayes`] is that identity, written once: every conditional the system
//! answers — [`KnowledgeBase::conditional`], [`Query::evaluate`], the query
//! server and its explanations — goes through it, each supplying the
//! marginal probabilities from its own (possibly instrumented) source.
//! [`Query`] packages one such question; [`QueryResult`] is the answer plus
//! the intermediate quantities useful for explanation.

use crate::error::CoreError;
use crate::knowledge_base::KnowledgeBase;
use crate::Result;
use pka_contingency::{Assignment, Schema};
use serde::{Deserialize, Serialize};

/// The quantities of one application of Bayes' identity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bayes {
    /// `P(target | evidence)`.
    pub probability: f64,
    /// `P(target, evidence)`.
    pub joint_probability: f64,
    /// `P(evidence)`; exactly 1 for empty evidence.
    pub evidence_probability: f64,
}

/// `P(target | evidence) = P(target, evidence) / P(evidence)`, the memo's
/// `P(A | B, C) = P(A, B, C) / P(B, C)`, with every marginal drawn from
/// `probability`.
///
/// Incompatible assignments (different values for a shared attribute) are
/// [`CoreError::InvalidInput`]; evidence of probability zero is
/// [`pka_maxent::MaxEntError::ZeroProbabilityEvidence`].  Empty evidence is
/// certain: its probability is taken as exactly 1 without calling
/// `probability`, so a marginal query costs one evaluation.
pub fn bayes(
    schema: &Schema,
    target: &Assignment,
    evidence: &Assignment,
    probability: impl Fn(&Assignment) -> f64,
) -> Result<Bayes> {
    let merged = target.merge(evidence).ok_or_else(|| CoreError::InvalidInput {
        reason: "target and evidence assign different values to a shared attribute".to_string(),
    })?;
    let evidence_probability = if evidence.vars().is_empty() { 1.0 } else { probability(evidence) };
    if evidence_probability <= 0.0 {
        return Err(CoreError::MaxEnt(pka_maxent::MaxEntError::ZeroProbabilityEvidence {
            evidence: evidence.describe(schema),
        }));
    }
    let joint_probability = probability(&merged);
    Ok(Bayes {
        probability: joint_probability / evidence_probability,
        joint_probability,
        evidence_probability,
    })
}

/// A conditional-probability question: `P(target | evidence)`.
///
/// With empty evidence the query is the plain marginal `P(target)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Query {
    /// The proposition whose probability is sought.
    pub target: Assignment,
    /// The conditioning evidence (may be empty).
    pub evidence: Assignment,
}

impl Query {
    /// Creates a marginal query `P(target)`.
    pub fn marginal(target: Assignment) -> Self {
        Self { target, evidence: Assignment::empty() }
    }

    /// Creates a conditional query `P(target | evidence)`.
    pub fn conditional(target: Assignment, evidence: Assignment) -> Self {
        Self { target, evidence }
    }

    /// Builds a query from attribute/value names.
    pub fn from_names(
        schema: &Schema,
        target: &[(&str, &str)],
        evidence: &[(&str, &str)],
    ) -> Result<Self> {
        Ok(Self {
            target: Assignment::from_names(schema, target)?,
            evidence: Assignment::from_names(schema, evidence)?,
        })
    }

    /// Adds one more piece of evidence.
    pub fn given(mut self, attribute: usize, value: usize) -> Self {
        self.evidence = self.evidence.with(attribute, value);
        self
    }

    /// Evaluates the query against a knowledge base.
    pub fn evaluate(&self, kb: &KnowledgeBase) -> Result<QueryResult> {
        self.clone().answer(kb.schema(), |a| kb.probability(a))
    }

    /// Answers the query by [`bayes`], drawing every marginal — the prior
    /// included — from `probability`.
    pub fn answer(
        self,
        schema: &Schema,
        probability: impl Fn(&Assignment) -> f64,
    ) -> Result<QueryResult> {
        let answer = bayes(schema, &self.target, &self.evidence, &probability)?;
        Ok(QueryResult {
            probability: answer.probability,
            joint_probability: answer.joint_probability,
            evidence_probability: answer.evidence_probability,
            prior_probability: probability(&self.target),
            query: self,
        })
    }

    /// Human-readable rendering, e.g. `P(cancer=yes | smoking=smoker)`.
    pub fn describe(&self, schema: &Schema) -> String {
        if self.evidence.vars().is_empty() {
            format!("P({})", self.target.describe(schema))
        } else {
            format!("P({} | {})", self.target.describe(schema), self.evidence.describe(schema))
        }
    }
}

/// The answer to a [`Query`], with the pieces of Bayes' identity exposed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryResult {
    /// The question asked.
    pub query: Query,
    /// `P(target | evidence)`.
    pub probability: f64,
    /// `P(target, evidence)`.
    pub joint_probability: f64,
    /// `P(evidence)`.
    pub evidence_probability: f64,
    /// The unconditional `P(target)` — comparing it against `probability`
    /// shows how much the evidence moved the belief.
    pub prior_probability: f64,
}

impl QueryResult {
    /// The ratio `P(target | evidence) / P(target)` ("lift"); 1 when the
    /// evidence is uninformative about the target.
    ///
    /// Returns `f64::INFINITY` when the prior is zero — fine for in-process
    /// arithmetic and ordering, but **not representable in JSON**.  Anything
    /// that puts a lift on the wire must use [`QueryResult::finite_lift`]
    /// (or its serve-side equivalent), which maps that case to `None`/`null`.
    pub fn lift(&self) -> f64 {
        if self.prior_probability <= 0.0 {
            f64::INFINITY
        } else {
            self.probability / self.prior_probability
        }
    }

    /// The lift in wire-safe form: `None` instead of infinity when the
    /// prior is zero (and for any other non-finite ratio), so serialising
    /// the value can never produce invalid JSON.
    pub fn finite_lift(&self) -> Option<f64> {
        let lift = self.lift();
        lift.is_finite().then_some(lift)
    }

    /// Human-readable rendering of the result.
    pub fn describe(&self, schema: &Schema) -> String {
        format!(
            "{} = {:.4} (prior {:.4}, lift {:.2})",
            self.query.describe(schema),
            self.probability,
            self.prior_probability,
            self.lift()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pka_contingency::{Attribute, ContingencyTable};
    use pka_maxent::{solver::fit, ConstraintSet};
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
        let mut constraints = ConstraintSet::first_order_from_table(&t).unwrap();
        constraints.add_from_table(&t, Assignment::from_pairs([(0, 0), (1, 0)])).unwrap();
        let (model, _) = fit(&constraints).unwrap();
        KnowledgeBase::new(schema, constraints, model, t.total()).unwrap()
    }

    #[test]
    fn marginal_query() {
        let kb = kb();
        let q = Query::marginal(Assignment::single(1, 0));
        let r = q.evaluate(&kb).unwrap();
        assert!((r.probability - 433.0 / 3428.0).abs() < 1e-6);
        assert!((r.evidence_probability - 1.0).abs() < 1e-9);
        assert!((r.lift() - 1.0).abs() < 1e-9);
        assert_eq!(q.describe(kb.schema()), "P(cancer=yes)");
    }

    #[test]
    fn conditional_query_reflects_discovered_association() {
        let kb = kb();
        // The AB_11 constraint was added: P(cancer=yes | smoking=smoker)
        // should be 240/1290 = .186, well above the prior .126.
        let q =
            Query::from_names(kb.schema(), &[("cancer", "yes")], &[("smoking", "smoker")]).unwrap();
        let r = q.evaluate(&kb).unwrap();
        assert!((r.probability - 240.0 / 1290.0).abs() < 1e-4, "p = {}", r.probability);
        assert!(r.lift() > 1.3);
        let text = r.describe(kb.schema());
        assert!(text.contains("P(cancer=yes | smoking=smoker)"));
    }

    #[test]
    fn given_builder_adds_evidence() {
        let kb = kb();
        let q = Query::marginal(Assignment::single(1, 0)).given(0, 0).given(2, 1);
        assert_eq!(q.evidence.order(), 2);
        let r = q.evaluate(&kb).unwrap();
        assert!(r.probability > 0.0 && r.probability < 1.0);
    }

    #[test]
    fn incompatible_and_impossible_queries_error() {
        let kb = kb();
        let incompatible = Query::conditional(Assignment::single(0, 0), Assignment::single(0, 1));
        assert!(incompatible.evaluate(&kb).is_err());
        // Evidence with probability zero.
        let schema = Schema::uniform(&[2, 2]).unwrap().into_shared();
        let t = ContingencyTable::from_counts(Arc::clone(&schema), vec![10, 10, 0, 0]).unwrap();
        let constraints = ConstraintSet::first_order_from_table(&t).unwrap();
        let (model, _) = fit(&constraints).unwrap();
        let zero_kb = KnowledgeBase::new(schema, constraints, model, t.total()).unwrap();
        let q = Query::conditional(Assignment::single(1, 0), Assignment::single(0, 1));
        assert!(q.evaluate(&zero_kb).is_err());
    }

    #[test]
    fn finite_lift_guards_the_zero_prior() {
        let kb = kb();
        let q = Query::marginal(Assignment::single(1, 0));
        let r = q.evaluate(&kb).unwrap();
        assert_eq!(r.finite_lift(), Some(r.lift()));
        // A zero prior makes lift() infinite but finite_lift() None.
        let zero_prior = QueryResult { prior_probability: 0.0, ..r };
        assert!(zero_prior.lift().is_infinite());
        assert_eq!(zero_prior.finite_lift(), None);
    }

    #[test]
    fn query_from_names_validates() {
        let kb = kb();
        assert!(Query::from_names(kb.schema(), &[("cancer", "maybe")], &[]).is_err());
        assert!(Query::from_names(kb.schema(), &[("age", "old")], &[]).is_err());
    }
}
