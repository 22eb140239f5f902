//! The consultation engine: posterior beliefs over query attributes given
//! the evidence asserted so far.

use crate::evidence::Evidence;
use pka_contingency::{Assignment, Schema};
use pka_core::{CoreError, KnowledgeBase, Result};

/// One candidate value of a query attribute with its posterior probability.
#[derive(Debug, Clone, PartialEq)]
pub struct Hypothesis {
    /// The attribute the hypothesis is about.
    pub attribute: usize,
    /// The value index.
    pub value: usize,
    /// Posterior probability given the current evidence.
    pub posterior: f64,
    /// Prior (no-evidence) probability, for contrast.
    pub prior: f64,
}

impl Hypothesis {
    /// Lift of the hypothesis under the current evidence.
    pub fn lift(&self) -> f64 {
        if self.prior <= 0.0 {
            f64::INFINITY
        } else {
            self.posterior / self.prior
        }
    }

    /// Human-readable rendering.
    pub fn describe(&self, schema: &Schema) -> String {
        let attr = schema.attribute(self.attribute).expect("attribute in schema");
        format!(
            "{}={}: {:.4} (prior {:.4}, lift {:.2})",
            attr.name(),
            attr.value_name(self.value).unwrap_or("?"),
            self.posterior,
            self.prior,
            self.lift()
        )
    }
}

/// A consultation session: a knowledge base plus the evidence asserted so
/// far.
#[derive(Debug, Clone)]
pub struct ExpertSystem {
    kb: KnowledgeBase,
    evidence: Evidence,
}

impl ExpertSystem {
    /// Starts a consultation with no evidence.
    pub fn new(kb: KnowledgeBase) -> Self {
        Self { kb, evidence: Evidence::none() }
    }

    /// The underlying knowledge base.
    pub fn knowledge_base(&self) -> &KnowledgeBase {
        &self.kb
    }

    /// The evidence asserted so far.
    pub fn evidence(&self) -> &Evidence {
        &self.evidence
    }

    /// Asserts `attribute = value` by name.
    pub fn assert_named(&mut self, attribute: &str, value: &str) -> Result<()> {
        let schema = self.kb.shared_schema();
        self.evidence.assert_named(&schema, attribute, value)
    }

    /// Asserts `attribute = value` by index.
    pub fn assert_value(&mut self, attribute: usize, value: usize) {
        self.evidence.assert_value(attribute, value);
    }

    /// Retracts whatever was asserted about the named attribute.
    pub fn retract_named(&mut self, attribute: &str) -> Result<bool> {
        let schema = self.kb.shared_schema();
        self.evidence.retract_named(&schema, attribute)
    }

    /// Clears all evidence.
    pub fn reset(&mut self) {
        self.evidence = Evidence::none();
    }

    /// Posterior distribution over the values of `attribute` given the
    /// current evidence.  Evidence asserted on the query attribute itself is
    /// ignored for this computation (the question is what the *rest* of the
    /// evidence implies).
    pub fn posterior(&self, attribute: usize) -> Result<Vec<Hypothesis>> {
        let schema = self.kb.schema();
        let card = schema.cardinality(attribute).map_err(CoreError::from)?;
        let relevant_evidence = Assignment::from_pairs(
            self.evidence.assignment().pairs().filter(|&(a, _)| a != attribute),
        );
        let mut hypotheses = Vec::with_capacity(card);
        for value in 0..card {
            let target = Assignment::single(attribute, value);
            let posterior = self.kb.conditional(&target, &relevant_evidence)?;
            let prior = self.kb.probability(&target);
            hypotheses.push(Hypothesis { attribute, value, posterior, prior });
        }
        Ok(hypotheses)
    }

    /// Posterior distribution over a named attribute.
    pub fn posterior_named(&self, attribute: &str) -> Result<Vec<Hypothesis>> {
        let attr = self.kb.schema().attribute_index(attribute).map_err(CoreError::from)?;
        self.posterior(attr)
    }

    /// The most probable value of `attribute` given the current evidence.
    pub fn best_hypothesis(&self, attribute: usize) -> Result<Hypothesis> {
        let mut hypotheses = self.posterior(attribute)?;
        hypotheses.sort_by(|a, b| {
            b.posterior.partial_cmp(&a.posterior).unwrap_or(std::cmp::Ordering::Equal)
        });
        Ok(hypotheses.into_iter().next().expect("attribute has at least one value"))
    }

    /// A consultation transcript: the evidence and the ranked hypotheses for
    /// one query attribute.
    pub fn consultation_report(&self, attribute: usize) -> Result<String> {
        let schema = self.kb.schema();
        let mut hypotheses = self.posterior(attribute)?;
        hypotheses.sort_by(|a, b| {
            b.posterior.partial_cmp(&a.posterior).unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut out = String::new();
        out.push_str(&format!("evidence: {}\n", self.evidence.describe(schema)));
        out.push_str(&format!(
            "query: {}\n",
            schema.attribute(attribute).map_err(CoreError::from)?.name()
        ));
        for h in &hypotheses {
            out.push_str(&format!("  {}\n", h.describe(schema)));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pka_contingency::{Attribute, ContingencyTable};
    use pka_core::Acquisition;
    use std::sync::Arc;

    fn kb() -> KnowledgeBase {
        let schema = pka_contingency::Schema::new(vec![
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
    fn posteriors_sum_to_one_and_track_evidence() {
        let mut es = ExpertSystem::new(kb());
        let prior: Vec<Hypothesis> = es.posterior_named("cancer").unwrap();
        assert!((prior.iter().map(|h| h.posterior).sum::<f64>() - 1.0).abs() < 1e-9);
        assert!((prior[0].posterior - 433.0 / 3428.0).abs() < 1e-6);
        assert!((prior[0].lift() - 1.0).abs() < 1e-9);

        es.assert_named("smoking", "smoker").unwrap();
        let posterior = es.posterior_named("cancer").unwrap();
        assert!((posterior.iter().map(|h| h.posterior).sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(
            posterior[0].posterior > prior[0].posterior,
            "evidence of smoking should raise the cancer belief"
        );
        assert!(posterior[0].lift() > 1.0);
    }

    #[test]
    fn retraction_restores_the_prior() {
        let mut es = ExpertSystem::new(kb());
        let prior = es.posterior_named("cancer").unwrap()[0].posterior;
        es.assert_named("smoking", "smoker").unwrap();
        assert!(es.posterior_named("cancer").unwrap()[0].posterior > prior);
        es.retract_named("smoking").unwrap();
        let restored = es.posterior_named("cancer").unwrap()[0].posterior;
        assert!((restored - prior).abs() < 1e-12);
        es.assert_named("smoking", "smoker").unwrap();
        es.reset();
        assert!(es.evidence().is_empty());
    }

    #[test]
    fn best_hypothesis_and_report() {
        let mut es = ExpertSystem::new(kb());
        es.assert_named("smoking", "smoker").unwrap();
        es.assert_named("family-history", "yes").unwrap();
        let best = es.best_hypothesis(1).unwrap();
        // Cancer prevalence is low even among smokers, so "no" remains the
        // most probable value — but the report must show both hypotheses.
        assert_eq!(best.value, 1);
        let report = es.consultation_report(1).unwrap();
        assert!(report.contains("evidence: smoking=smoker, family-history=yes"));
        assert!(report.contains("cancer=yes"));
        assert!(report.contains("cancer=no"));
    }

    #[test]
    fn evidence_on_query_attribute_is_ignored() {
        let mut es = ExpertSystem::new(kb());
        es.assert_named("cancer", "yes").unwrap();
        let posterior = es.posterior_named("cancer").unwrap();
        assert!((posterior.iter().map(|h| h.posterior).sum::<f64>() - 1.0).abs() < 1e-9);
        assert!((posterior[0].posterior - 433.0 / 3428.0).abs() < 1e-6);
    }

    #[test]
    fn unknown_attributes_error() {
        let es = ExpertSystem::new(kb());
        assert!(es.posterior_named("age").is_err());
        let mut es = es;
        assert!(es.assert_named("age", "old").is_err());
    }
}
