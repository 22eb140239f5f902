//! The snapshot-resident marginal lattice: every marginal table up to a
//! cutoff order, materialised once so queries become table lookups.
//!
//! The serve read path answers `P(target | evidence)` by Bayes' identity
//! from up to three marginal probabilities.  Computed by the model's
//! [`Evaluator`] each one is a stride walk over `∏ free cardinalities`
//! dense cells or a variable elimination; computed against a
//! [`MarginalLattice`] each one is **one mixed-radix index computation plus
//! one array load** whenever the assignment's variable set has order at
//! most `k` — which is where the constraints the acquisition procedure
//! promotes, and the queries users ask, live.
//!
//! ## Build invariant (see also `pka_contingency::lattice`)
//!
//! The lattice is built at snapshot-publish time from the model's
//! [`Evaluator`] by executing [`pka_contingency::lattice_plan`]:
//!
//! * tables are materialised in **descending order** of their variable-set
//!   size, so each table's parent exists before the table is built;
//! * only the **top-order** tables (`min(k, R)` variables) come from
//!   [`Evaluator::marginal`] — one pass over the dense joint, or one
//!   elimination down to the planned varset above the dense ceiling, so a
//!   wide schema never allocates `O(total cells)` — and every smaller
//!   table is a *single-axis* summation from its cheapest
//!   already-materialised parent (the extension variable with the smallest
//!   cardinality, ties broken on the smallest index), never a fresh pass
//!   over the model;
//! * the publish-time cost is therefore `C(R, k)` marginals plus the sum of
//!   the parent-table sizes below the top order — for the default `k = 2`
//!   a few joint sweeps, amortised over every query the snapshot answers.
//!
//! Each table stores probabilities in row-major order over its member
//! attributes (ascending attribute index, last member varying fastest),
//! the same alignment [`Assignment::values`] uses — so a lookup is
//! `Σ values[rank] · strides[rank]` with no re-sorting.

use crate::evaluator::Evaluator;
use pka_contingency::{lattice_plan, Assignment, LatticeParent, Schema, VarSet};
use std::collections::HashMap;
use std::sync::Arc;

/// The default cutoff order: second-order tables cover the first-order
/// marginals plus every pairwise joint — the order most promoted
/// constraints and most user queries live at.
pub const DEFAULT_LATTICE_ORDER: usize = 2;

/// One materialised marginal table over a subset of the attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct MarginalTable {
    vars: VarSet,
    /// Member attribute indices, ascending (the [`Assignment`] value order).
    members: Vec<usize>,
    /// Cardinality of each member attribute.
    cards: Vec<usize>,
    /// Row-major strides over the members, last member varying fastest.
    strides: Vec<usize>,
    probabilities: Vec<f64>,
}

impl MarginalTable {
    fn layout(schema: &Schema, vars: VarSet) -> Self {
        let members: Vec<usize> = vars.iter().collect();
        let cards: Vec<usize> = members
            .iter()
            .map(|&a| schema.cardinality(a).expect("lattice vars come from the schema"))
            .collect();
        let mut strides = vec![1usize; members.len()];
        for i in (0..members.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * cards[i + 1];
        }
        let cells = cards.iter().product::<usize>().max(1);
        Self { vars, members, cards, strides, probabilities: vec![0.0; cells] }
    }

    /// Sums a parent table (this table's variable set plus `sum_out`) down
    /// by the one extra axis, in one pass over the parent.
    fn fill_from_parent(&mut self, parent: &MarginalTable, sum_out: usize) {
        let rank = parent.vars.rank_of(sum_out).expect("parent contains the summed-out axis");
        let stride = parent.strides[rank];
        let block = stride * parent.cards[rank];
        for (pi, &p) in parent.probabilities.iter().enumerate() {
            // Dropping the digit at `rank`: everything above it shifts down
            // by the summed-out cardinality, everything below is untouched.
            self.probabilities[(pi / block) * stride + pi % stride] += p;
        }
    }

    /// The variable set this table is over.
    pub fn vars(&self) -> VarSet {
        self.vars
    }

    /// The table's order (number of member attributes).
    pub fn order(&self) -> usize {
        self.members.len()
    }

    /// Number of cells in the table.
    pub fn cell_count(&self) -> usize {
        self.probabilities.len()
    }

    /// The cell probabilities in row-major member order.
    pub fn probabilities(&self) -> &[f64] {
        &self.probabilities
    }

    /// Probability of the cell named by one value per member (ascending
    /// attribute order).  Out-of-range values cover no cells and yield 0,
    /// mirroring the stride walk's contract.
    pub fn probability_of_values(&self, values: &[usize]) -> f64 {
        debug_assert_eq!(values.len(), self.members.len());
        let mut idx = 0usize;
        for (pos, &v) in values.iter().enumerate() {
            if v >= self.cards[pos] {
                return 0.0;
            }
            idx += v * self.strides[pos];
        }
        self.probabilities[idx]
    }
}

/// Cap on the dense bits→table lookup table: schemas with at most this many
/// attributes resolve a varset to its table with **one array load** (the
/// lookup vector has `2^attrs` entries — 64 KiB of `u32` at 16 attributes,
/// the largest acceptable per-snapshot cost).  Wider schemas — reachable
/// since factored evaluation broke the dense-joint ceiling — fall back to
/// the `HashMap` path of [`MarginalLattice::position`]; both paths answer
/// identically (covered in this module's tests at 17+ attributes).
pub const MAX_DENSE_LOOKUP_VARS: usize = 16;

/// All marginal tables of a joint distribution up to a cutoff order `k`,
/// keyed by variable set.
///
/// Build once per published snapshot with [`MarginalLattice::build`]; then
/// [`MarginalLattice::probability`] answers any assignment whose variable
/// set is covered with one lookup, returning `None` (caller falls back to
/// the stride walk) otherwise.
#[derive(Debug, Clone, PartialEq)]
pub struct MarginalLattice {
    schema: Arc<Schema>,
    max_order: usize,
    index: HashMap<VarSet, usize>,
    /// `varset bits → table position + 1` (0 = not covered), populated for
    /// schemas of at most [`MAX_DENSE_LOOKUP_VARS`] attributes; the hot
    /// [`MarginalLattice::probability`] path resolves through this with
    /// one load, falling back to the hash map only on huge schemas.
    dense_lookup: Vec<u32>,
    tables: Vec<MarginalTable>,
}

impl MarginalLattice {
    /// Materialises every marginal table of the evaluator's model up to
    /// order `max_order`, executing the plan of
    /// [`pka_contingency::lattice_plan`] (top-order tables from
    /// [`Evaluator::marginal`], everything below by single-axis summation
    /// from its cheapest parent — the build invariant in the module docs).
    /// Dense and factored evaluators of one normalised model yield the same
    /// tables to within `1e-9` (property-tested in
    /// `tests/lattice_equivalence.rs`).
    pub fn build(evaluator: &Evaluator, max_order: usize) -> Self {
        let schema = evaluator.shared_schema();
        let plan = lattice_plan(&schema, max_order);
        let mut index = HashMap::with_capacity(plan.len());
        let mut tables = Vec::with_capacity(plan.len());
        for step in plan {
            let mut table = MarginalTable::layout(&schema, step.vars);
            match step.parent {
                LatticeParent::Joint => table.probabilities = evaluator.marginal(step.vars),
                LatticeParent::Table { vars, sum_out } => {
                    let parent_pos =
                        *index.get(&vars).expect("plan materialises parents before children");
                    // Split borrow: the parent lives earlier in `tables`.
                    let parent: &MarginalTable = &tables[parent_pos];
                    table.fill_from_parent(parent, sum_out);
                }
            }
            index.insert(step.vars, tables.len());
            tables.push(table);
        }
        let max_order = max_order.min(schema.len());
        let dense_lookup = if schema.len() <= MAX_DENSE_LOOKUP_VARS {
            let mut lookup = vec![0u32; 1 << schema.len()];
            for (vars, &pos) in &index {
                lookup[vars.bits() as usize] = pos as u32 + 1;
            }
            lookup
        } else {
            Vec::new()
        };
        Self { schema, max_order, index, dense_lookup, tables }
    }

    /// Table position of a varset, or `None` when uncovered — one array
    /// load on ordinarily-sized schemas.
    #[inline]
    fn position(&self, vars: VarSet) -> Option<usize> {
        if self.dense_lookup.is_empty() {
            return self.index.get(&vars).copied();
        }
        let bits = vars.bits() as usize;
        if bits >= self.dense_lookup.len() {
            return None;
        }
        (self.dense_lookup[bits] as usize).checked_sub(1)
    }

    /// The schema the lattice is over.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The cutoff order the lattice was built with (capped at the number of
    /// attributes).
    pub fn max_order(&self) -> usize {
        self.max_order
    }

    /// Number of materialised tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Total cells across every materialised table — the snapshot-resident
    /// memory cost of the lattice.
    pub fn total_cells(&self) -> usize {
        self.tables.iter().map(MarginalTable::cell_count).sum()
    }

    /// True if assignments over `vars` are answered by a lattice table.
    pub fn covers(&self, vars: VarSet) -> bool {
        self.position(vars).is_some()
    }

    /// The materialised table over `vars`, if covered.
    pub fn table(&self, vars: VarSet) -> Option<&MarginalTable> {
        self.position(vars).map(|i| &self.tables[i])
    }

    /// Marginal probability of a partial assignment: one index computation
    /// plus one lookup when the assignment's variable set is covered,
    /// `None` (fall back to the stride walk) when it is not.
    ///
    /// Covered assignments with out-of-range values yield `Some(0.0)` —
    /// they match no cell, the same contract as
    /// [`JointDistribution::probability`].
    #[inline]
    pub fn probability(&self, assignment: &Assignment) -> Option<f64> {
        let pos = self.position(assignment.vars())?;
        Some(self.tables[pos].probability_of_values(assignment.values()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elimination::FactorGraph;
    use crate::joint::JointDistribution;
    use pka_contingency::{Attribute, ContingencyTable};

    fn from_joint(joint: &JointDistribution, max_order: usize) -> MarginalLattice {
        MarginalLattice::build(&Evaluator::Dense(joint.clone()), max_order)
    }

    fn from_graph(graph: &FactorGraph, max_order: usize) -> MarginalLattice {
        MarginalLattice::build(&Evaluator::Factored(graph.clone()), max_order)
    }

    fn paper_joint() -> JointDistribution {
        let schema = Schema::new(vec![
            Attribute::new("smoking", ["smoker", "non-smoker", "married-to-smoker"]),
            Attribute::yes_no("cancer"),
            Attribute::yes_no("family-history"),
        ])
        .unwrap()
        .into_shared();
        let t = ContingencyTable::from_counts(
            schema,
            vec![130, 110, 410, 640, 62, 31, 580, 460, 78, 22, 520, 385],
        )
        .unwrap();
        JointDistribution::empirical(&t)
    }

    #[test]
    fn lattice_tables_match_figure_2() {
        let joint = paper_joint();
        let lattice = from_joint(&joint, 2);
        assert_eq!(lattice.table_count(), 7);
        assert_eq!(lattice.max_order(), 2);
        // Figure 2c: N^{AB}_{11} = 240 of 3428.
        let ab = Assignment::from_pairs([(0, 0), (1, 0)]);
        assert!((lattice.probability(&ab).unwrap() - 240.0 / 3428.0).abs() < 1e-12);
        // First-order: N^A_1 = 1290.
        let a = Assignment::single(0, 0);
        assert!((lattice.probability(&a).unwrap() - 1290.0 / 3428.0).abs() < 1e-12);
        // Order 0: the grand total.
        assert!((lattice.probability(&Assignment::empty()).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uncovered_varsets_fall_through() {
        let joint = paper_joint();
        let lattice = from_joint(&joint, 2);
        // Order 3 is above the cutoff.
        let abc = Assignment::from_pairs([(0, 0), (1, 0), (2, 0)]);
        assert_eq!(lattice.probability(&abc), None);
        assert!(!lattice.covers(abc.vars()));
        // Out-of-schema attributes are not covered either.
        assert_eq!(lattice.probability(&Assignment::single(9, 0)), None);
        // Covered varset with an out-of-range value matches nothing.
        assert_eq!(lattice.probability(&Assignment::single(0, 99)), Some(0.0));
    }

    #[test]
    fn every_table_agrees_with_the_stride_walk_and_sums_to_one() {
        let joint = paper_joint();
        let lattice = from_joint(&joint, 3);
        assert_eq!(lattice.table_count(), 8);
        for table in lattice.tables.iter() {
            let total: f64 = table.probabilities().iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "table {} sums to {total}", table.vars());
            for vars_values in joint.schema().configurations(table.vars()) {
                let a = Assignment::new(table.vars(), vars_values.clone());
                let fast = lattice.probability(&a).unwrap();
                assert!((fast - joint.probability(&a)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn bayes_identity_resolves_from_lattice_lookups() {
        // The conditional path the serve layer and KnowledgeBase use:
        // evidence, merged and prior each one lattice lookup.
        let joint = paper_joint();
        let lattice = from_joint(&joint, 2);
        let target = Assignment::single(1, 0);
        let evidence = Assignment::single(0, 0);
        let merged = target.merge(&evidence).unwrap();
        let p = lattice.probability(&merged).unwrap() / lattice.probability(&evidence).unwrap();
        assert!((p - 240.0 / 1290.0).abs() < 1e-12);
        // An order-3 merge is uncovered, so Bayes' identity falls back to
        // the stride walk for its numerator.
        let wide = Assignment::from_pairs([(1, 0), (2, 0)]);
        assert_eq!(lattice.probability(&wide.merge(&evidence).unwrap()), None);
    }

    #[test]
    fn memory_cost_is_the_small_tables_only() {
        let joint = paper_joint();
        let lattice = from_joint(&joint, 2);
        // 3·2 + 3·2 + 2·2 second-order + 3 + 2 + 2 first-order + 1.
        assert_eq!(lattice.total_cells(), 16 + 7 + 1);
    }

    /// A small fitted model with pairwise structure for the factored-build
    /// equivalence tests.
    fn fitted_model(cards: &[usize]) -> crate::LogLinearModel {
        use crate::constraint::ConstraintSet;
        let schema = Schema::uniform(cards).unwrap().into_shared();
        let counts: Vec<u64> =
            (0..schema.cell_count()).map(|i| 1 + ((i as u64 * 7 + 3) % 23)).collect();
        let t = ContingencyTable::from_counts(Arc::clone(&schema), counts).unwrap();
        let mut constraints = ConstraintSet::first_order_from_table(&t).unwrap();
        constraints.add_from_table(&t, Assignment::from_pairs([(0, 0), (1, 1)])).unwrap();
        crate::solver::fit(&constraints).unwrap().0
    }

    #[test]
    fn factored_build_matches_dense_build_table_by_table() {
        let model = fitted_model(&[3, 2, 2, 3]);
        let joint = model.to_joint();
        let graph = FactorGraph::from_model(&model);
        for order in 1..=3 {
            let dense = from_joint(&joint, order);
            let factored = from_graph(&graph, order);
            assert_eq!(dense.table_count(), factored.table_count());
            for table in &dense.tables {
                let other = factored.table(table.vars()).expect("same coverage");
                for (a, b) in table.probabilities().iter().zip(other.probabilities()) {
                    assert!(
                        (a - b).abs() < 1e-9,
                        "order {order}, table {}: dense {a} vs factored {b}",
                        table.vars()
                    );
                }
            }
        }
    }

    #[test]
    fn wide_schemas_take_the_hashmap_path_and_answer_identically() {
        // 17 binary attributes — one past MAX_DENSE_LOOKUP_VARS, so the
        // dense bits→table LUT must be skipped and every lookup must route
        // through the HashMap. The dense joint (2^17 cells) is still small
        // enough to cross-check against.
        let attrs = MAX_DENSE_LOOKUP_VARS + 1;
        let cards = vec![2usize; attrs];
        let schema = Schema::uniform(&cards).unwrap().into_shared();
        let factors = vec![
            (Assignment::from_pairs([(0, 1), (16, 1)]), 3.0),
            (Assignment::from_pairs([(5, 0), (9, 1)]), 0.25),
            (Assignment::single(11, 1), 2.0),
        ];
        let mut model = crate::LogLinearModel::from_factors(schema, 1.0, factors).unwrap();
        model.normalize().unwrap();
        let graph = FactorGraph::from_model(&model);
        let lattice = from_graph(&graph, 2);
        assert!(lattice.dense_lookup.is_empty(), "17 attrs must skip the dense LUT");

        let joint = model.to_joint();
        let dense_lattice = from_joint(&joint, 2);
        assert!(dense_lattice.dense_lookup.is_empty());

        let probes = [
            Assignment::single(0, 1),
            Assignment::single(16, 0),
            Assignment::from_pairs([(0, 1), (16, 1)]),
            Assignment::from_pairs([(5, 0), (9, 1)]),
            Assignment::from_pairs([(3, 0), (11, 1)]),
            Assignment::empty(),
        ];
        for probe in &probes {
            assert!(lattice.covers(probe.vars()), "probe {probe:?} should be covered");
            let fast = lattice.probability(probe).unwrap();
            let from_dense = dense_lattice.probability(probe).unwrap();
            let truth = joint.probability(probe);
            assert!((fast - truth).abs() < 1e-9, "probe {probe:?}: {fast} vs {truth}");
            assert!((fast - from_dense).abs() < 1e-9);
        }
        // Uncovered varsets still fall through on the HashMap path.
        let order3 = Assignment::from_pairs([(0, 0), (1, 0), (2, 0)]);
        assert_eq!(lattice.probability(&order3), None);
        assert!(!lattice.covers(order3.vars()));
        // Out-of-schema bits (attr 17+) are uncovered, not a panic.
        assert_eq!(lattice.probability(&Assignment::single(attrs, 0)), None);
    }

    #[test]
    fn boundary_schema_at_the_lut_cap_still_uses_the_dense_lookup() {
        // Exactly MAX_DENSE_LOOKUP_VARS attributes: the LUT is built
        // (2^16 entries) and lookups resolve through it.
        let cards = vec![2usize; MAX_DENSE_LOOKUP_VARS];
        let schema = Schema::uniform(&cards).unwrap().into_shared();
        let model = crate::LogLinearModel::uniform(schema);
        let graph = FactorGraph::from_model(&model);
        let lattice = from_graph(&graph, 1);
        assert_eq!(lattice.dense_lookup.len(), 1 << MAX_DENSE_LOOKUP_VARS);
        let p = lattice.probability(&Assignment::single(15, 1)).unwrap();
        assert!((p - 0.5).abs() < 1e-12);
    }
}
