//! One way to turn a fitted model into marginal probabilities.
//!
//! An [`Evaluator`] is chosen **once per model**: at or below the dense
//! ceiling it holds the model's dense joint distribution and answers by
//! stride walks over it; above the ceiling it holds the model's
//! [`FactorGraph`] and answers by variable elimination, never allocating
//! `O(total cells)`.  [`is_factored`] is the single place the ceiling is
//! compared — the solver calls it to pick its CSR or factored kernel, and
//! [`Evaluator::new`] calls it to pick the representation every downstream
//! consumer (lattice build, acquisition scoring, query fallback, snapshot
//! sanity check) then reads through.

use crate::elimination::FactorGraph;
use crate::joint::JointDistribution;
use crate::model::LogLinearModel;
use pka_contingency::{Assignment, MarginalLattice, Schema, VarSet};
use std::sync::Arc;

/// The default dense ceiling: joints of at most this many cells are fitted
/// (and evaluated downstream) through the dense paths, which win on small
/// schemas where one O(cells) sweep is cheaper than per-constraint variable
/// eliminations.  Above it every layer switches to factored evaluation so
/// cost depends on the factors a computation touches, not the total cell
/// count.  See `docs/factored.md` for the policy and the crossover numbers.
pub const DEFAULT_DENSE_CEILING: usize = 1_000_000;

/// The default cutoff order of [`Evaluator::lattice`]: second-order tables
/// cover the first-order marginals plus every pairwise joint — the order
/// most promoted constraints and most user queries live at.
pub const DEFAULT_LATTICE_ORDER: usize = 2;

/// True when a schema's joint is past `dense_ceiling` cells, i.e. when
/// fitting and evaluation must run factored.  `0` forces factored
/// everywhere; `usize::MAX` forces dense everywhere.
pub fn is_factored(schema: &Schema, dense_ceiling: usize) -> bool {
    schema.cell_count() > dense_ceiling
}

/// Which evaluation answered a marginal probability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalPath {
    /// One lookup in a materialised marginal-lattice table.
    Lattice,
    /// A stride walk over the dense joint.
    Dense,
    /// Variable elimination over the factor graph.
    Factored,
}

/// A fitted model's marginal probabilities, from the dense joint or from
/// the factor graph — whichever [`is_factored`] picked for its schema.
#[derive(Debug, Clone)]
pub enum Evaluator {
    /// The dense joint distribution (at or below the ceiling).
    Dense(JointDistribution),
    /// The factor graph (above the ceiling).
    Factored(FactorGraph),
}

impl Evaluator {
    /// The evaluator of a fitted model: its dense image at or below
    /// `dense_ceiling` cells, exactly as the model's a-values produce it
    /// (the solver returns models normalised to rounding, so nothing is
    /// renormalised here), its factor graph (partition sum precomputed, so
    /// reads never initialise it) above.
    ///
    /// The model must be normalised.  The factor graph divides by its
    /// partition sum and the dense image does not, so the two arms answer
    /// an unnormalised model differently; [`Evaluator::check`] refuses
    /// such a model on either arm.
    pub fn new(model: &LogLinearModel, dense_ceiling: usize) -> Self {
        if is_factored(model.schema(), dense_ceiling) {
            let graph = FactorGraph::from_model(model);
            graph.partition();
            Self::Factored(graph)
        } else {
            Self::Dense(JointDistribution::from_raw(
                model.shared_schema(),
                model.dense_probabilities(),
            ))
        }
    }

    /// The schema as a shareable handle.
    pub fn shared_schema(&self) -> Arc<Schema> {
        match self {
            Self::Dense(joint) => joint.shared_schema(),
            Self::Factored(graph) => graph.shared_schema(),
        }
    }

    /// The dense joint, if this evaluator holds one.
    pub fn joint(&self) -> Option<&JointDistribution> {
        match self {
            Self::Dense(joint) => Some(joint),
            Self::Factored(_) => None,
        }
    }

    /// The factor graph, if this evaluator holds one.
    pub fn graph(&self) -> Option<&FactorGraph> {
        match self {
            Self::Dense(_) => None,
            Self::Factored(graph) => Some(graph),
        }
    }

    /// Largest intermediate elimination scope produced so far (0 on the
    /// dense arm, which never eliminates).
    pub fn elimination_width_max(&self) -> usize {
        self.graph().map_or(0, FactorGraph::elimination_width_max)
    }

    /// The full marginal table over `vars` (attributes outside the schema
    /// are ignored), in row-major order over the ascending members with the
    /// last member varying fastest — the layout of
    /// [`pka_contingency::MarginalTable`] and of [`Schema::configurations`].
    ///
    /// The dense arm is one pass over the joint, adding each cell into its
    /// table slot in ascending cell order — so every slot is bitwise the
    /// stride walk [`JointDistribution::probability`] would compute for it.
    pub fn marginal(&self, vars: VarSet) -> Vec<f64> {
        match self {
            Self::Dense(joint) => dense_marginal(joint, vars),
            Self::Factored(graph) => graph.marginal(vars),
        }
    }

    /// Every marginal table of the model up to order `max_order`, built once
    /// per published snapshot so covered queries become table lookups: the
    /// top-order tables from [`Evaluator::marginal`] (one pass over the
    /// dense joint, or one elimination, so a wide schema never allocates
    /// `O(total cells)`), every smaller one summed down from its cheapest
    /// parent ([`MarginalLattice::build`]).  Dense and factored evaluators
    /// of one normalised model yield the same tables to within `1e-9`
    /// (`tests/lattice_equivalence.rs`).
    pub fn lattice(&self, max_order: usize) -> MarginalLattice<f64> {
        MarginalLattice::build(&self.shared_schema(), max_order, |top| {
            top.iter().map(|&vars| self.marginal(vars)).collect()
        })
    }

    /// Marginal probability of a partial assignment, and which path
    /// answered it.
    #[inline]
    pub fn probability(&self, assignment: &Assignment) -> (f64, EvalPath) {
        match self {
            Self::Dense(joint) => (joint.probability(assignment), EvalPath::Dense),
            Self::Factored(graph) => (graph.probability(assignment), EvalPath::Factored),
        }
    }

    /// Checks that the model defines a probability distribution: every
    /// dense cell finite and non-negative with total mass within `1e-6` of
    /// one, or — where no dense joint exists — a partition sum within
    /// `1e-6` of one.  Nothing renormalises a model on its way here, so a
    /// decoded model is checked at its real mass.  The error describes what
    /// failed.
    pub fn check(&self) -> Result<(), String> {
        let (what, value, ok) = match self {
            Self::Dense(joint) => {
                let cells = joint.probabilities();
                let mass: f64 = cells.iter().sum();
                let cells_ok = cells.iter().all(|p| p.is_finite() && *p >= 0.0);
                ("mass", mass, cells_ok && (mass - 1.0).abs() <= 1e-6)
            }
            Self::Factored(graph) => {
                let z = graph.partition();
                ("partition", z, (z - 1.0).abs() <= 1e-6)
            }
        };
        if ok {
            Ok(())
        } else {
            Err(format!("does not define a probability distribution ({what} {value})"))
        }
    }
}

/// Sums the dense joint down to `vars` in one odometer pass over every
/// cell, carrying the table index incrementally.
fn dense_marginal(joint: &JointDistribution, vars: VarSet) -> Vec<f64> {
    let schema = joint.schema();
    let keep = vars.intersection(schema.all_vars());
    let cards: Vec<usize> = schema.attributes().iter().map(|a| a.cardinality()).collect();
    // Table stride per schema attribute; 0 for attributes summed out.
    let mut strides = vec![0usize; cards.len()];
    let mut size = 1usize;
    for attr in keep.iter().collect::<Vec<_>>().into_iter().rev() {
        strides[attr] = size;
        size *= cards[attr];
    }
    let mut table = vec![0.0; size];
    let mut digits = vec![0usize; cards.len()];
    let mut index = 0usize;
    for &p in joint.probabilities() {
        table[index] += p;
        for attr in (0..cards.len()).rev() {
            digits[attr] += 1;
            index += strides[attr];
            if digits[attr] < cards[attr] {
                break;
            }
            digits[attr] = 0;
            index -= cards[attr] * strides[attr];
        }
    }
    table
}
