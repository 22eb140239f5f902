//! The product of acquisition: a compact probabilistic knowledge base.

use crate::error::CoreError;
use crate::query::{bayes, Query, QueryResult};
use crate::Result;
use pka_contingency::{Assignment, Schema};
use pka_maxent::{
    Constraint, ConstraintSet, EvalPath, Evaluator, FactorGraph, JointDistribution, LogLinearModel,
    MarginalLattice, DEFAULT_DENSE_CEILING,
};
use serde::{Deserialize, Serialize, Value};
use std::borrow::Cow;
use std::sync::{Arc, OnceLock};

/// A probabilistic knowledge base: the significant joint probabilities found
/// in the data plus the fitted maximum-entropy model that ties them
/// together.
///
/// This is what the memo proposes storing instead of explicit rules: "it
/// generates and stores significant joint probabilities instead; particular
/// conditional probabilities can be calculated from this information as
/// required."
///
/// Every marginal probability resolves through one path
/// ([`KnowledgeBase::evaluate`]): a lookup in the [`MarginalLattice`] when
/// one is materialised and covers the assignment's variable set, otherwise
/// the model's [`Evaluator`] — its dense joint at or below the dense
/// ceiling, its factor graph above.  [`KnowledgeBase::with_evaluation`]
/// builds both up front (what a published snapshot does); a knowledge base
/// without them builds the default-ceiling evaluator on first use.  Both
/// are **derived state**: skipped by serialisation and ignored by
/// equality, exactly like the model's factor index.  Decoding goes through
/// [`KnowledgeBase::new`] (and the parts through their own checked
/// constructors), so a decoded knowledge base is indexed and has one schema.
#[derive(Debug, Clone, Serialize)]
pub struct KnowledgeBase {
    schema: Arc<Schema>,
    constraints: ConstraintSet,
    model: LogLinearModel,
    sample_size: u64,
    #[serde(skip)]
    lattice: Option<Arc<MarginalLattice>>,
    #[serde(skip)]
    evaluator: OnceLock<Arc<Evaluator>>,
}

/// Equality ignores the lattice and evaluator: they are derived from the
/// model, so two knowledge bases differing only in whether they are
/// materialised answer every query alike.
impl PartialEq for KnowledgeBase {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema
            && self.constraints == other.constraints
            && self.model == other.model
            && self.sample_size == other.sample_size
    }
}

impl KnowledgeBase {
    /// Assembles a knowledge base from its parts (normally done by
    /// [`crate::Acquisition::run`]).
    ///
    /// `model` must be normalised, as a solver fit is: nothing rescales it
    /// here or in [`Evaluator::new`], so an unnormalised model's answers
    /// would depend on which evaluation path served them.  A model of
    /// unknown origin can be tested with `evaluator().check()`, as a
    /// replica does before it publishes a synced snapshot.
    pub fn new(
        schema: Arc<Schema>,
        constraints: ConstraintSet,
        model: LogLinearModel,
        sample_size: u64,
    ) -> Result<Self> {
        if constraints.schema() != schema.as_ref() || model.schema() != schema.as_ref() {
            return Err(CoreError::InvalidInput {
                reason: "constraints, model and knowledge base must share one schema".to_string(),
            });
        }
        Ok(Self {
            schema,
            constraints,
            model,
            sample_size,
            lattice: None,
            evaluator: OnceLock::new(),
        })
    }

    /// Returns the knowledge base with its evaluator chosen for
    /// `dense_ceiling` ([`Evaluator::new`]) and a marginal lattice up to
    /// `lattice_order` built from it, so every covered query is a table
    /// lookup and every other one takes the evaluator's path.
    pub fn with_evaluation(mut self, lattice_order: usize, dense_ceiling: usize) -> Self {
        let evaluator = Evaluator::new(&self.model, dense_ceiling);
        self.lattice = Some(Arc::new(MarginalLattice::build(&evaluator, lattice_order)));
        self.evaluator = OnceLock::from(Arc::new(evaluator));
        self
    }

    /// Makes an already-built factor graph of this knowledge base's model
    /// its evaluator, so assignments the lattice does not cover are
    /// answered by variable elimination.  The graph must be over the same
    /// schema.
    pub fn attach_factor_graph(&mut self, graph: Arc<FactorGraph>) -> Result<()> {
        if graph.schema() != self.schema.as_ref() {
            return Err(CoreError::InvalidInput {
                reason: "factor graph schema differs from the knowledge base schema".to_string(),
            });
        }
        let graph = Arc::unwrap_or_clone(graph);
        self.evaluator = OnceLock::from(Arc::new(Evaluator::Factored(graph)));
        Ok(())
    }

    /// The materialised marginal lattice, if any.
    pub fn lattice(&self) -> Option<&MarginalLattice> {
        self.lattice.as_deref()
    }

    /// The model's evaluator: the one built by
    /// [`KnowledgeBase::with_evaluation`] or attached, else the
    /// [`DEFAULT_DENSE_CEILING`] evaluator, built on first use.
    pub fn evaluator(&self) -> &Evaluator {
        self.evaluator.get_or_init(|| Arc::new(Evaluator::new(&self.model, DEFAULT_DENSE_CEILING)))
    }

    /// The attribute schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The schema as a shareable handle.
    pub fn shared_schema(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }

    /// All constraints (first-order marginals plus discovered cells).
    pub fn constraints(&self) -> &ConstraintSet {
        &self.constraints
    }

    /// The discovered (order ≥ 2) constraints — the "significant
    /// correlations" the memo's procedure extracts.
    pub fn significant_constraints(&self) -> Vec<&Constraint> {
        self.constraints.higher_order().collect()
    }

    /// The fitted a-value model (the memo's "general formula").
    pub fn model(&self) -> &LogLinearModel {
        &self.model
    }

    /// Number of observations the knowledge base was acquired from.
    pub fn sample_size(&self) -> u64 {
        self.sample_size
    }

    /// Probability of a (partial) assignment under the model, and the path
    /// that answered it: one lattice lookup when the lattice covers the
    /// assignment's variable set, the evaluator otherwise.
    #[inline]
    pub fn evaluate(&self, assignment: &Assignment) -> (f64, EvalPath) {
        if let Some(p) = self.lattice.as_ref().and_then(|lattice| lattice.probability(assignment)) {
            return (p, EvalPath::Lattice);
        }
        self.evaluator().probability(assignment)
    }

    /// Probability of a (partial) assignment under the model (see
    /// [`KnowledgeBase::evaluate`]).
    pub fn probability(&self, assignment: &Assignment) -> f64 {
        self.evaluate(assignment).0
    }

    /// Conditional probability `P(target | evidence)` under the model — the
    /// memo's `P(A | B, C) = P(A, B, C) / P(B, C)`, by [`bayes`] over
    /// [`KnowledgeBase::probability`].
    pub fn conditional(&self, target: &Assignment, evidence: &Assignment) -> Result<f64> {
        Ok(bayes(&self.schema, target, evidence, |a| self.probability(a))?.probability)
    }

    /// Evaluates a [`Query`].
    pub fn query(&self, query: &Query) -> Result<QueryResult> {
        query.evaluate(self)
    }

    /// Builds and evaluates a query from attribute/value names, e.g.
    /// `P(cancer=yes | smoking=smoker)`.
    pub fn conditional_by_names(
        &self,
        target: &[(&str, &str)],
        evidence: &[(&str, &str)],
    ) -> Result<f64> {
        let target = Assignment::from_names(&self.schema, target)?;
        let evidence = Assignment::from_names(&self.schema, evidence)?;
        self.conditional(&target, &evidence)
    }

    /// The dense joint distribution the model defines.
    pub fn joint(&self) -> JointDistribution {
        self.model.to_joint()
    }

    /// The factored (Appendix-B) view of the model: the evaluator's own
    /// graph when it is factored, a fresh one otherwise.
    pub fn factor_graph(&self) -> Cow<'_, FactorGraph> {
        match self.evaluator().graph() {
            Some(graph) => Cow::Borrowed(graph),
            None => Cow::Owned(FactorGraph::from_model(&self.model)),
        }
    }

    /// Entropy (in nats) of the modelled joint distribution.
    pub fn entropy(&self) -> f64 {
        self.joint().entropy()
    }

    /// Number of constraints of each order, as `(order, count)` pairs in
    /// ascending order — a quick summary of how much structure was found.
    pub fn order_histogram(&self) -> Vec<(usize, usize)> {
        let max = self.constraints.max_order();
        (1..=max)
            .map(|order| (order, self.constraints.of_order(order).count()))
            .filter(|&(_, count)| count > 0)
            .collect()
    }
}

impl Deserialize for KnowledgeBase {
    fn deserialize(value: &Value) -> std::result::Result<Self, serde::Error> {
        Self::new(
            serde::de_field(value, "schema")?,
            serde::de_field(value, "constraints")?,
            serde::de_field(value, "model")?,
            serde::de_field(value, "sample_size")?,
        )
        .map_err(|e| serde::Error::custom(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pka_contingency::{Attribute, ContingencyTable};
    use pka_maxent::solver::fit;

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

    fn sample_kb() -> KnowledgeBase {
        let t = paper_table();
        let mut constraints = ConstraintSet::first_order_from_table(&t).unwrap();
        constraints.add_from_table(&t, Assignment::from_pairs([(0, 0), (2, 1)])).unwrap();
        let (model, _) = fit(&constraints).unwrap();
        KnowledgeBase::new(t.shared_schema(), constraints, model, t.total()).unwrap()
    }

    #[test]
    fn construction_checks_schema_consistency() {
        let t = paper_table();
        let constraints = ConstraintSet::first_order_from_table(&t).unwrap();
        let (model, _) = fit(&constraints).unwrap();
        let other_schema = Schema::uniform(&[2, 2]).unwrap().into_shared();
        assert!(KnowledgeBase::new(other_schema, constraints, model, 10).is_err());
    }

    #[test]
    fn accessors_and_summaries() {
        let kb = sample_kb();
        assert_eq!(kb.sample_size(), 3428);
        assert_eq!(kb.schema().len(), 3);
        assert_eq!(kb.significant_constraints().len(), 1);
        assert_eq!(kb.order_histogram(), vec![(1, 7), (2, 1)]);
        assert!(kb.entropy() > 0.0);
        let joint = kb.joint();
        assert!((joint.probabilities().iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn probabilities_and_conditionals() {
        let kb = sample_kb();
        // The fitted model honours the discovered constraint exactly.
        let ac12 = Assignment::from_pairs([(0, 0), (2, 1)]);
        assert!((kb.probability(&ac12) - 750.0 / 3428.0).abs() < 1e-9);
        // Conditional by names matches conditional by assignments.
        let by_names =
            kb.conditional_by_names(&[("cancer", "yes")], &[("smoking", "smoker")]).unwrap();
        let by_assignment =
            kb.conditional(&Assignment::single(1, 0), &Assignment::single(0, 0)).unwrap();
        assert!((by_names - by_assignment).abs() < 1e-12);
        // Unknown names surface data errors.
        assert!(kb.conditional_by_names(&[("cancer", "maybe")], &[]).is_err());
    }

    #[test]
    fn factor_graph_agrees_with_model() {
        let kb = sample_kb();
        let graph = kb.factor_graph();
        let q = Assignment::from_pairs([(0, 0), (1, 0)]);
        assert!((graph.probability(&q) - kb.probability(&q)).abs() < 1e-9);
    }

    #[test]
    fn lattice_answers_match_the_model() {
        let kb = sample_kb();
        let fast = kb.clone().with_evaluation(2, DEFAULT_DENSE_CEILING);
        assert!(fast.lattice().is_some() && kb.lattice().is_none());
        assert_eq!(fast, kb, "the lattice is derived state, not identity");
        // Covered orders answer from the lattice, order 3 falls back to the
        // evaluator — both must agree with the model to fp noise.
        let probes = [
            (Assignment::empty(), EvalPath::Lattice),
            (Assignment::single(1, 0), EvalPath::Lattice),
            (Assignment::from_pairs([(0, 0), (2, 1)]), EvalPath::Lattice),
            (Assignment::from_pairs([(0, 0), (1, 0), (2, 1)]), EvalPath::Dense),
        ];
        for (a, path) in &probes {
            let (p, answered_by) = fast.evaluate(a);
            assert_eq!(answered_by, *path, "probe {a:?}");
            assert!((p - kb.model().probability(a)).abs() < 1e-12);
            assert_eq!(kb.evaluate(a).1, EvalPath::Dense, "no lattice: the evaluator answers");
        }
        let target = Assignment::single(1, 0);
        let evidence = Assignment::single(0, 0);
        let a = fast.conditional(&target, &evidence).unwrap();
        let b = kb.conditional(&target, &evidence).unwrap();
        assert!((a - b).abs() < 1e-12);
        // Error contract survives the lattice path.
        assert!(fast.conditional(&Assignment::single(0, 0), &Assignment::single(0, 1)).is_err());
    }

    #[test]
    fn factored_evaluation_matches_the_dense_one() {
        let kb = sample_kb();
        let dense = kb.clone().with_evaluation(2, DEFAULT_DENSE_CEILING);
        let factored = kb.clone().with_evaluation(2, 0);
        assert!(factored.evaluator().graph().is_some());
        assert!(matches!(factored.factor_graph(), Cow::Borrowed(_)));
        assert_eq!(factored, kb, "derived state does not change identity");
        let probes = [
            Assignment::empty(),
            Assignment::single(1, 0),
            Assignment::from_pairs([(0, 0), (2, 1)]),
            // Order 3 misses the lattice: the factored KB answers it by
            // elimination, the dense one by the joint's stride walk.
            Assignment::from_pairs([(0, 0), (1, 0), (2, 1)]),
        ];
        for a in &probes {
            assert!(
                (factored.probability(a) - dense.probability(a)).abs() < 1e-9,
                "probe {a:?} diverged"
            );
        }
        let order3 = &probes[3];
        assert_eq!(factored.evaluate(order3).1, EvalPath::Factored);
        assert_eq!(dense.evaluate(order3).1, EvalPath::Dense);
    }

    #[test]
    fn attach_factor_graph_rejects_a_foreign_schema() {
        let mut kb = sample_kb();
        let foreign = Schema::uniform(&[2, 2]).unwrap().into_shared();
        let foreign_model = LogLinearModel::uniform(foreign);
        let graph = Arc::new(FactorGraph::from_model(&foreign_model));
        assert!(kb.attach_factor_graph(graph).is_err());
        let own = Arc::new(kb.factor_graph().into_owned());
        kb.attach_factor_graph(own).unwrap();
        let order3 = Assignment::from_pairs([(0, 0), (1, 0), (2, 1)]);
        assert_eq!(kb.evaluate(&order3).1, EvalPath::Factored);
    }
}
