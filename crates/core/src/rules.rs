//! IF–THEN rule induction with attached probabilities.
//!
//! The memo's introduction shows the transformation it has in mind:
//! `P(A | B, C) = p` can be read as `IF B AND C THEN A (with probability p)`.
//! This module enumerates such rules from an acquired knowledge base,
//! filtering by support, probability and lift so only informative rules are
//! kept, and renders them in the familiar expert-system syntax.

use crate::knowledge_base::KnowledgeBase;
use crate::Result;
use pka_contingency::{Assignment, Schema, VarSet};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;

/// One induced rule: `IF conditions THEN conclusion (with probability p)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rule {
    /// The condition part (one or more attribute=value tests).
    pub conditions: Assignment,
    /// The conclusion (a single attribute=value proposition).
    pub conclusion: Assignment,
    /// `P(conclusion | conditions)` under the knowledge base's model.
    pub probability: f64,
    /// `P(conditions)` — how often the rule fires.
    pub support: f64,
    /// `P(conclusion | conditions) / P(conclusion)` — how much the
    /// conditions change the belief in the conclusion (1 = not at all).
    pub lift: f64,
}

impl Rule {
    /// Renders the rule in the memo's `IF … THEN … (with probability p)`
    /// syntax using the schema's attribute and value names.
    pub fn format(&self, schema: &Schema) -> String {
        let conditions: Vec<String> = self
            .conditions
            .pairs()
            .map(|(attr, value)| {
                let a = schema.attribute(attr).expect("attribute in schema");
                format!("{}={}", a.name(), a.value_name(value).unwrap_or("?"))
            })
            .collect();
        format!(
            "IF {} THEN {} (probability {:.3}, support {:.3}, lift {:.2})",
            conditions.join(" AND "),
            self.conclusion.describe(schema),
            self.probability,
            self.support,
            self.lift
        )
    }

    /// Number of conditions in the IF part.
    pub fn condition_count(&self) -> usize {
        self.conditions.order()
    }
}

/// Filters applied during rule induction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RuleInductionConfig {
    /// Maximum number of conditions in a rule's IF part.
    pub max_conditions: usize,
    /// Minimum `P(conditions)`: rules that almost never fire are dropped.
    pub min_support: f64,
    /// Minimum `P(conclusion | conditions)`.
    pub min_probability: f64,
    /// Minimum `|lift − 1|`: rules whose conditions barely change the
    /// conclusion's probability are dropped (they carry no knowledge beyond
    /// the first-order marginals).
    pub min_lift_deviation: f64,
    /// If set, only rules concluding about these attributes are produced.
    pub target_attributes: Option<VarSet>,
}

impl RuleInductionConfig {
    /// Reasonable defaults: up to two conditions, 1% support, no minimum
    /// probability, at least a 5% relative change in belief.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the maximum number of conditions.
    pub fn with_max_conditions(mut self, n: usize) -> Self {
        self.max_conditions = n;
        self
    }

    /// Sets the minimum support.
    pub fn with_min_support(mut self, s: f64) -> Self {
        self.min_support = s;
        self
    }

    /// Sets the minimum conditional probability.
    pub fn with_min_probability(mut self, p: f64) -> Self {
        self.min_probability = p;
        self
    }

    /// Sets the minimum lift deviation.
    pub fn with_min_lift_deviation(mut self, d: f64) -> Self {
        self.min_lift_deviation = d;
        self
    }

    /// Restricts conclusions to the given attributes.
    pub fn with_target_attributes(mut self, attrs: VarSet) -> Self {
        self.target_attributes = Some(attrs);
        self
    }
}

impl Default for RuleInductionConfig {
    fn default() -> Self {
        Self {
            max_conditions: 2,
            min_support: 0.01,
            min_probability: 0.0,
            min_lift_deviation: 0.05,
            target_attributes: None,
        }
    }
}

/// Enumerates every rule the knowledge base supports under the given
/// filters, ranked by decreasing lift deviation `|lift − 1|` (the most
/// surprising rules first).
///
/// Lifts within 1e-12 of each other rank as equal: a rule and its converse
/// share the lift `P(a, b) / (P(a) P(b))`, and computed lifts that are
/// equal in exact arithmetic differ only in rounding.  Equal lifts rank by
/// decreasing probability (the more reliable rule first), then by
/// increasing support (the more specific condition first), then in
/// enumeration order.
pub fn induce_rules(kb: &KnowledgeBase, config: &RuleInductionConfig) -> Result<Vec<Rule>> {
    let schema = kb.schema();
    let all = schema.all_vars();
    let target_attrs = config.target_attributes.unwrap_or(all).intersection(all);

    let mut rules = Vec::new();
    for target_attr in target_attrs.iter() {
        let prior_by_value: Vec<f64> = (0..schema.cardinality(target_attr)?)
            .map(|v| kb.probability(&Assignment::single(target_attr, v)))
            .collect();
        let condition_pool = all.without(target_attr);
        let max_conditions = config.max_conditions.min(condition_pool.len());
        for size in 1..=max_conditions {
            for condition_vars in condition_pool.subsets_of_size(size) {
                for condition_values in schema.configurations(condition_vars) {
                    let conditions = Assignment::new(condition_vars, condition_values);
                    let support = kb.probability(&conditions);
                    if support < config.min_support || support <= 0.0 {
                        continue;
                    }
                    for (value, &prior) in prior_by_value.iter().enumerate() {
                        let conclusion = Assignment::single(target_attr, value);
                        let probability = kb.conditional(&conclusion, &conditions)?;
                        if probability < config.min_probability {
                            continue;
                        }
                        let lift = if prior > 0.0 { probability / prior } else { f64::INFINITY };
                        if (lift - 1.0).abs() < config.min_lift_deviation {
                            continue;
                        }
                        rules.push(Rule {
                            conditions: conditions.clone(),
                            conclusion,
                            probability,
                            support,
                            lift,
                        });
                    }
                }
            }
        }
    }
    let grid = |x: f64| (x * 1e12).round() as i64;
    rules.sort_by_key(|r| {
        (Reverse(grid((r.lift - 1.0).abs())), Reverse(grid(r.probability)), grid(r.support))
    });
    Ok(rules)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pka_contingency::{Attribute, ContingencyTable, Schema};
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
        constraints.add_from_table(&t, Assignment::from_pairs([(0, 0), (2, 1)])).unwrap();
        let (model, _) = fit(&constraints).unwrap();
        KnowledgeBase::new(schema, constraints, model, t.total()).unwrap()
    }

    #[test]
    fn induces_the_memo_style_smoking_rule() {
        let kb = kb();
        let rules = induce_rules(&kb, &RuleInductionConfig::default()).unwrap();
        assert!(!rules.is_empty());
        // The headline rule: IF smoking=smoker THEN cancer=yes with
        // probability ~0.186 (240/1290), lift ~1.47 over the prior 0.126.
        let rule = rules
            .iter()
            .find(|r| {
                r.conditions == Assignment::single(0, 0) && r.conclusion == Assignment::single(1, 0)
            })
            .expect("smoker->cancer rule present");
        assert!((rule.probability - 240.0 / 1290.0).abs() < 1e-3);
        assert!(rule.lift > 1.3 && rule.lift < 1.7);
        assert!((rule.support - 1290.0 / 3428.0).abs() < 1e-6);
        let text = rule.format(kb.schema());
        assert!(text.starts_with("IF smoking=smoker THEN cancer=yes"));
        assert_eq!(rule.condition_count(), 1);
    }

    #[test]
    fn rules_are_sorted_by_lift_deviation() {
        let kb = kb();
        let rules = induce_rules(&kb, &RuleInductionConfig::default()).unwrap();
        for pair in rules.windows(2) {
            assert!((pair[0].lift - 1.0).abs() + 1e-12 >= (pair[1].lift - 1.0).abs());
        }
    }

    #[test]
    fn equal_lifts_rank_by_probability_then_support() {
        let kb = kb();
        let rules = induce_rules(&kb, &RuleInductionConfig::default()).unwrap();
        let grid = |x: f64| (x * 1e12).round() as i64;
        for pair in rules.windows(2) {
            let deviation = |r: &Rule| grid((r.lift - 1.0).abs());
            if deviation(&pair[0]) == deviation(&pair[1]) {
                let (p0, p1) = (grid(pair[0].probability), grid(pair[1].probability));
                assert!(p0 >= p1, "equal lifts: the more probable rule first");
                if p0 == p1 {
                    assert!(grid(pair[0].support) <= grid(pair[1].support));
                }
            }
        }
        // `cancer=yes → smoker` and three smoker rules share one lift (a
        // rule and its converse always do; the conditional independence
        // of cancer and family history given smoking makes the others
        // equal too): the more probable rule first, then the rarer
        // conditions.
        let tied: Vec<String> = rules[1..5].iter().map(|r| r.format(kb.schema())).collect();
        let heads = [
            "IF cancer=yes THEN smoking=smoker",
            "IF smoking=smoker AND family-history=yes THEN cancer=yes",
            "IF smoking=smoker AND family-history=no THEN cancer=yes",
            "IF smoking=smoker THEN cancer=yes",
        ];
        for (rule, head) in tied.iter().zip(heads) {
            assert!(rule.starts_with(head), "{rule:?} ranked where {head:?} belongs");
        }
    }

    #[test]
    fn uninformative_rules_are_filtered_out() {
        let kb = kb();
        let rules = induce_rules(&kb, &RuleInductionConfig::default()).unwrap();
        // In this model, family-history is conditionally independent of
        // cancer given nothing else was discovered linking them, so any rule
        // concluding cancer from family-history alone must have been filtered
        // (lift ~ 1), unless smoking mediates — only smoking-based rules
        // survive for the cancer target with a single condition.
        assert!(rules
            .iter()
            .filter(|r| r.condition_count() == 1 && r.conclusion.vars() == VarSet::singleton(1))
            .all(|r| (r.lift - 1.0).abs() >= 0.05));
        // All returned rules satisfy the filters.
        for r in &rules {
            assert!(r.support >= 0.01);
            assert!(r.condition_count() <= 2);
        }
    }

    #[test]
    fn target_attribute_restriction() {
        let kb = kb();
        let config = RuleInductionConfig::default().with_target_attributes(VarSet::singleton(1));
        let rules = induce_rules(&kb, &config).unwrap();
        assert!(!rules.is_empty());
        assert!(rules.iter().all(|r| r.conclusion.vars() == VarSet::singleton(1)));
    }

    #[test]
    fn filters_are_respected() {
        let kb = kb();
        let strict = RuleInductionConfig::default()
            .with_min_probability(0.5)
            .with_min_support(0.3)
            .with_max_conditions(1)
            .with_min_lift_deviation(0.0);
        let rules = induce_rules(&kb, &strict).unwrap();
        for r in &rules {
            assert!(r.probability >= 0.5);
            assert!(r.support >= 0.3);
            assert_eq!(r.condition_count(), 1);
        }
        // Tightening filters never yields more rules than the default.
        let default_rules = induce_rules(&kb, &RuleInductionConfig::default()).unwrap();
        let strict2 = RuleInductionConfig::default().with_min_support(0.2);
        let fewer = induce_rules(&kb, &strict2).unwrap();
        assert!(fewer.len() <= default_rules.len());
    }

    #[test]
    fn builder_methods() {
        let c = RuleInductionConfig::new()
            .with_max_conditions(3)
            .with_min_support(0.2)
            .with_min_probability(0.4)
            .with_min_lift_deviation(0.1)
            .with_target_attributes(VarSet::singleton(2));
        assert_eq!(c.max_conditions, 3);
        assert_eq!(c.min_support, 0.2);
        assert_eq!(c.min_probability, 0.4);
        assert_eq!(c.min_lift_deviation, 0.1);
        assert_eq!(c.target_attributes, Some(VarSet::singleton(2)));
    }
}
