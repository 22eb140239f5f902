//! Marginal tables and the marginal lattice — the memo's Figure 2 margins
//! (Eqs. 1–6), for observed counts and model probabilities alike.
//!
//! A [`MarginalTable`] is a table summed down to a subset of the
//! attributes: `u64` counts `N^{AB}_{ij}`, `N^A_i`, … down to the single
//! number `N` for an observed table ([`ContingencyTable::marginal`]), or
//! `f64` probabilities for a fitted model.  Its cells are row-major over the
//! member attributes — ascending attribute index, last member varying
//! fastest — the order of [`Schema::configurations`] and of
//! [`Assignment::values`], so a cell is `Σ values[rank] · strides[rank]`
//! with no re-sorting.  **A value outside its attribute's range matches no
//! cell and reads as zero**, the contract of
//! [`ContingencyTable::count_matching`] and of the model's stride walk.
//!
//! A [`MarginalLattice`] holds every table up to a cutoff order `k`, keyed
//! by variable set, so a margin is one lookup instead of a pass over the
//! table or the model.  Acquisition compares the two lattices cell by cell:
//! the observed counts ([`ContingencyTable::lattice`], which also feed the
//! Eq. 41 bounds) against the model's predicted probabilities (built from
//! the model's evaluator in `pka-maxent`, and what a published snapshot
//! answers queries from).
//!
//! ## Build invariant
//!
//! [`MarginalLattice::build`] materialises the tables in **descending
//! order** of their variable-set size, so each table's parent exists before
//! the table itself:
//!
//! * only the **top-order** tables (`min(k, R)` members) come from the
//!   source — one pass over the observed cells for counts, one marginal of
//!   the model's evaluator per table for probabilities;
//! * every smaller subset `S` is summed down along a **single axis** from
//!   its cheapest parent `S ∪ {v}`: among the extra variables `v ∉ S`, the
//!   one with the smallest cardinality, ties broken on the smallest index.
//!   Summing out one axis of a small table costs `O(parent cells)`.
//!
//! Counts are integers, so a summed-down count table equals direct
//! tabulation exactly.

use crate::config::Assignment;
use crate::schema::Schema;
use crate::table::ContingencyTable;
use crate::varset::VarSet;
use std::collections::HashMap;
use std::ops::AddAssign;

/// Cap on the dense bits→table lookup of a [`MarginalLattice`]: schemas
/// with at most this many attributes resolve a varset to its table with
/// **one array load** (the lookup vector has `2^attrs` entries — 256 KiB of
/// `u32` at 16 attributes, the largest acceptable per-build cost).  Wider
/// schemas fall back to a hash map; both paths answer identically.
pub const MAX_DENSE_LOOKUP_VARS: usize = 16;

/// The cells of a table summed down to the attributes of one [`VarSet`]:
/// `u64` counts or `f64` probabilities, laid out as the module docs state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MarginalTable<T> {
    vars: VarSet,
    /// Cardinality of each member attribute, ascending attribute order.
    cards: Vec<usize>,
    /// Row-major strides over the members, last member varying fastest.
    strides: Vec<usize>,
    cells: Vec<T>,
}

impl<T: Copy + Default + AddAssign> MarginalTable<T> {
    /// The table over `vars` (every member in the schema) holding `cells`
    /// in row-major member order.
    pub(crate) fn new(schema: &Schema, vars: VarSet, cells: Vec<T>) -> Self {
        let cards: Vec<usize> = vars.iter().map(|a| schema.attributes()[a].cardinality()).collect();
        let mut strides = vec![1usize; cards.len()];
        for i in (0..cards.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * cards[i + 1];
        }
        assert_eq!(cells.len(), schema.cell_count_of(vars), "one cell per configuration of {vars}");
        Self { vars, cards, strides, cells }
    }

    /// The table over `parent`'s variables less `sum_out`, in one pass over
    /// the parent.
    fn summed_from(schema: &Schema, parent: &Self, sum_out: usize) -> Self {
        let rank = parent.vars.rank_of(sum_out).expect("parent contains the summed-out axis");
        let stride = parent.strides[rank];
        let block = stride * parent.cards[rank];
        let mut cells = vec![T::default(); parent.cells.len() / parent.cards[rank]];
        for (pi, &p) in parent.cells.iter().enumerate() {
            // Dropping the digit at `rank`: everything above it shifts down
            // by the summed-out cardinality, everything below is untouched.
            cells[(pi / block) * stride + pi % stride] += p;
        }
        Self::new(schema, parent.vars.without(sum_out), cells)
    }

    /// The attribute subset this table is over.
    pub fn vars(&self) -> VarSet {
        self.vars
    }

    /// The table's order (number of member attributes).
    pub fn order(&self) -> usize {
        self.cards.len()
    }

    /// Number of cells in the table.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Cardinalities of the member attributes, in ascending attribute order.
    pub fn cardinalities(&self) -> &[usize] {
        &self.cards
    }

    /// The cells in row-major member order — the order of
    /// [`Schema::configurations`].
    pub fn cells(&self) -> &[T] {
        &self.cells
    }

    /// The cell named by one value per member attribute (ascending
    /// attribute order).  A value outside its attribute's range matches no
    /// cell and reads as zero.
    #[inline]
    pub fn get(&self, values: &[usize]) -> T {
        debug_assert_eq!(values.len(), self.cards.len(), "one value per member attribute");
        let mut idx = 0usize;
        for (pos, &v) in values.iter().enumerate() {
            if v >= self.cards[pos] {
                return T::default();
            }
            idx += v * self.strides[pos];
        }
        self.cells[idx]
    }

    /// Iterates over `(Assignment, cell)` for every cell, in row-major
    /// order.
    pub fn assignments(&self) -> impl Iterator<Item = (Assignment, T)> + '_ {
        self.cells.iter().enumerate().map(|(index, &cell)| {
            let values = self.strides.iter().zip(&self.cards).map(|(s, c)| index / s % c).collect();
            (Assignment::new(self.vars, values), cell)
        })
    }
}

/// One step of the lattice build: the table over `vars`, summed down from
/// its parent `vars ∪ {sum_out}`, or — `sum_out` is `None` — taken from the
/// source (top-order tables only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LatticeStep {
    vars: VarSet,
    sum_out: Option<usize>,
}

/// Plans the lattice of a schema up to `max_order`: one step per subset of
/// at most `min(max_order, R)` attributes, in build (descending-size)
/// order, ending with the order-0 table — the build invariant in the
/// module docs.
fn lattice_plan(schema: &Schema, max_order: usize) -> Vec<LatticeStep> {
    let all = schema.all_vars();
    let top = max_order.min(schema.len());
    let mut steps = Vec::new();
    for order in (0..=top).rev() {
        for vars in all.subsets_of_size(order) {
            // The cheapest parent: smallest cardinality, then smallest index.
            let sum_out = (order < top).then(|| {
                all.difference(vars)
                    .iter()
                    .min_by_key(|&v| (schema.attributes()[v].cardinality(), v))
                    .expect("a below-top-order subset always has an extension")
            });
            steps.push(LatticeStep { vars, sum_out });
        }
    }
    steps
}

/// Every [`MarginalTable`] of one source up to a cutoff order `k`, keyed by
/// variable set.
///
/// [`MarginalLattice::get`] answers any assignment whose variable set is
/// covered with one index computation plus one array load, and returns
/// `None` (the caller falls back to a slower path) otherwise.
#[derive(Debug, Clone, PartialEq)]
pub struct MarginalLattice<T> {
    max_order: usize,
    index: HashMap<VarSet, usize>,
    /// `varset bits → table position + 1` (0 = not covered), populated for
    /// schemas of at most [`MAX_DENSE_LOOKUP_VARS`] attributes; lookups
    /// resolve through it with one load, and through `index` otherwise.
    dense_lookup: Vec<u32>,
    tables: Vec<MarginalTable<T>>,
}

impl<T: Copy + Default + AddAssign> MarginalLattice<T> {
    /// Builds every table up to order `max_order` (capped at the schema's
    /// size), executing the plan of the module docs: `top` is given the
    /// top-order variable sets and returns their cells (row-major, one
    /// vector per set, in the order given); every smaller table is summed
    /// down from its cheapest parent.
    pub fn build(
        schema: &Schema,
        max_order: usize,
        top: impl FnOnce(&[VarSet]) -> Vec<Vec<T>>,
    ) -> Self {
        let plan = lattice_plan(schema, max_order);
        let top_sets: Vec<VarSet> =
            plan.iter().take_while(|step| step.sum_out.is_none()).map(|step| step.vars).collect();
        let top_cells = top(&top_sets);
        assert_eq!(top_cells.len(), top_sets.len(), "one cell vector per top-order table");
        let mut tables: Vec<MarginalTable<T>> = Vec::with_capacity(plan.len());
        let mut index = HashMap::with_capacity(plan.len());
        for (&vars, cells) in top_sets.iter().zip(top_cells) {
            index.insert(vars, tables.len());
            tables.push(MarginalTable::new(schema, vars, cells));
        }
        for step in &plan[top_sets.len()..] {
            let sum_out = step.sum_out.expect("below the top order every table has a parent");
            let parent = index[&step.vars.with(sum_out)];
            let table = MarginalTable::summed_from(schema, &tables[parent], sum_out);
            index.insert(step.vars, tables.len());
            tables.push(table);
        }
        let dense_lookup = if schema.len() <= MAX_DENSE_LOOKUP_VARS {
            let mut lookup = vec![0u32; 1 << schema.len()];
            for (vars, &pos) in &index {
                lookup[vars.bits() as usize] = pos as u32 + 1;
            }
            lookup
        } else {
            Vec::new()
        };
        let max_order = max_order.min(schema.len());
        Self { max_order, index, dense_lookup, tables }
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

    /// The cutoff order the lattice was built with (capped at the number of
    /// attributes).
    pub fn max_order(&self) -> usize {
        self.max_order
    }

    /// Number of materialised tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Total cells across every materialised table — the resident memory
    /// cost of the lattice.
    pub fn total_cells(&self) -> usize {
        self.tables.iter().map(MarginalTable::cell_count).sum()
    }

    /// True if assignments over `vars` are answered by a lattice table.
    pub fn covers(&self, vars: VarSet) -> bool {
        self.position(vars).is_some()
    }

    /// The materialised table over `vars`, if covered.
    pub fn table(&self, vars: VarSet) -> Option<&MarginalTable<T>> {
        self.position(vars).map(|i| &self.tables[i])
    }

    /// The order-0 cell: the grand total `N` of a count lattice, the total
    /// mass of a probability lattice.
    pub fn total(&self) -> T {
        self.tables.last().expect("every lattice holds the order-0 table").cells[0]
    }

    /// The marginal cell of a partial assignment: one index computation
    /// plus one lookup when the assignment's variable set is covered,
    /// `None` when it is not.  A covered assignment with an out-of-range
    /// value matches no cell and reads as zero.
    #[inline]
    pub fn get(&self, assignment: &Assignment) -> Option<T> {
        let pos = self.position(assignment.vars())?;
        Some(self.tables[pos].get(assignment.values()))
    }
}

impl MarginalLattice<f64> {
    /// Marginal probability of a partial assignment —
    /// [`MarginalLattice::get`] on a probability lattice.
    #[inline]
    pub fn probability(&self, assignment: &Assignment) -> Option<f64> {
        self.get(assignment)
    }
}

/// The count tables over `varsets` in one pass over the table's observed
/// cells: each nonzero cell is decoded once and added into every table, so
/// the cost is `O(observed cells × Σ orders)` however large the joint is.
pub(crate) fn tabulate(table: &ContingencyTable, varsets: &[VarSet]) -> Vec<Vec<u64>> {
    let schema = table.schema();
    let cards: Vec<usize> = schema.attributes().iter().map(|a| a.cardinality()).collect();
    let members: Vec<Vec<usize>> = varsets.iter().map(|vars| vars.iter().collect()).collect();
    let mut tables: Vec<Vec<u64>> =
        varsets.iter().map(|&vars| vec![0; schema.cell_count_of(vars)]).collect();
    let mut values = vec![0usize; schema.len()];
    for &idx in table.occupied() {
        let mut rest = idx;
        for (value, &stride) in values.iter_mut().zip(schema.strides()) {
            *value = rest / stride;
            rest %= stride;
        }
        let count = table.counts()[idx];
        for (cells, members) in tables.iter_mut().zip(&members) {
            let m = members.iter().fold(0, |m, &attr| m * cards[attr] + values[attr]);
            cells[m] += count;
        }
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::Attribute;
    use proptest::prelude::*;
    use std::sync::Arc;

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

    #[test]
    fn figure_2c_smoking_by_cancer() {
        let t = paper_table();
        let m = t.marginal(VarSet::from_indices([0, 1]));
        assert_eq!(m.order(), 2);
        assert_eq!(m.cell_count(), 6);
        // Figure 2c of the memo.
        assert_eq!(m.get(&[0, 0]), 240);
        assert_eq!(m.get(&[0, 1]), 1050);
        assert_eq!(m.get(&[1, 0]), 93);
        assert_eq!(m.get(&[1, 1]), 1040);
        assert_eq!(m.get(&[2, 0]), 100);
        assert_eq!(m.get(&[2, 1]), 905);
        assert_eq!(m.cells().iter().sum::<u64>(), 3428);
        // Out-of-range values match no cell.
        assert_eq!(m.get(&[3, 0]), 0);
    }

    #[test]
    fn figure_2_ac_and_bc_marginals() {
        let t = paper_table();
        let ac = t.marginal(VarSet::from_indices([0, 2]));
        assert_eq!(ac.cells(), &[540, 750, 642, 491, 598, 407]);
        let bc = t.marginal(VarSet::from_indices([1, 2]));
        assert_eq!(bc.cells(), &[270, 163, 1510, 1485]);
    }

    #[test]
    fn first_order_and_empty_marginals() {
        let t = paper_table();
        let a = t.marginal(VarSet::singleton(0));
        assert_eq!(a.cells(), &[1290, 1133, 1005]);
        let empty = t.marginal(VarSet::empty());
        assert_eq!(empty.cell_count(), 1);
        assert_eq!(empty.get(&[]), 3428);
        assert_eq!(empty.order(), 0);
    }

    #[test]
    fn assignments_iterator_agrees_with_table() {
        let t = paper_table();
        let m = t.marginal(VarSet::from_indices([0, 1]));
        for (a, c) in m.assignments() {
            assert_eq!(c, t.count_matching(&a));
        }
        assert_eq!(m.assignments().count(), 6);
    }

    #[test]
    fn lattice_tables_match_figure_2() {
        let t = paper_table();
        let lattice = t.lattice(2);
        assert_eq!(lattice.table_count(), 7);
        assert_eq!(lattice.max_order(), 2);
        assert_eq!(lattice.total(), 3428);
        assert_eq!(lattice.get(&Assignment::from_pairs([(0, 0), (1, 0)])), Some(240));
        assert_eq!(lattice.get(&Assignment::single(0, 0)), Some(1290));
        assert_eq!(lattice.get(&Assignment::empty()), Some(3428));
        for vars in [VarSet::singleton(2), VarSet::from_indices([0, 2])] {
            assert_eq!(lattice.table(vars), Some(&t.marginal(vars)));
        }
    }

    #[test]
    fn uncovered_varsets_fall_through() {
        let lattice = paper_table().lattice(2);
        // Order 3 is above the cutoff.
        let abc = Assignment::from_pairs([(0, 0), (1, 0), (2, 0)]);
        assert_eq!(lattice.get(&abc), None);
        assert!(!lattice.covers(abc.vars()));
        // Out-of-schema attributes are not covered either.
        assert_eq!(lattice.get(&Assignment::single(9, 0)), None);
        // A covered varset with an out-of-range value matches nothing.
        assert_eq!(lattice.get(&Assignment::single(0, 99)), Some(0));
    }

    #[test]
    fn memory_cost_is_the_small_tables_only() {
        let lattice = paper_table().lattice(2);
        // 3·2 + 3·2 + 2·2 second-order + 3 + 2 + 2 first-order + 1.
        assert_eq!(lattice.total_cells(), 16 + 7 + 1);
    }

    /// A sparse table over `cards` binary-ish attributes: every 7th cell
    /// holds a count.
    fn sparse_table(cards: &[usize]) -> ContingencyTable {
        let schema = Schema::uniform(cards).unwrap().into_shared();
        let counts = (0..schema.cell_count() as u64).map(|i| (i % 7 == 0) as u64 * (1 + i % 5));
        ContingencyTable::from_counts(schema, counts.collect()).unwrap()
    }

    #[test]
    fn wide_schemas_take_the_hashmap_path_and_answer_identically() {
        // One attribute past MAX_DENSE_LOOKUP_VARS: no dense LUT, every
        // lookup routes through the hash map.
        let attrs = MAX_DENSE_LOOKUP_VARS + 1;
        let t = sparse_table(&vec![2; attrs]);
        let lattice = t.lattice(2);
        assert!(lattice.dense_lookup.is_empty(), "17 attrs must skip the dense LUT");
        let probes = [
            Assignment::single(0, 1),
            Assignment::single(16, 0),
            Assignment::from_pairs([(0, 1), (16, 1)]),
            Assignment::from_pairs([(5, 0), (9, 1)]),
            Assignment::empty(),
        ];
        for probe in &probes {
            assert_eq!(lattice.get(probe), Some(t.count_matching(probe)), "probe {probe:?}");
        }
        // Uncovered varsets still fall through on the hash-map path, and
        // out-of-schema bits are uncovered, not a panic.
        assert_eq!(lattice.get(&Assignment::from_pairs([(0, 0), (1, 0), (2, 0)])), None);
        assert_eq!(lattice.get(&Assignment::single(attrs, 0)), None);
    }

    #[test]
    fn boundary_schema_at_the_lut_cap_still_uses_the_dense_lookup() {
        let t = sparse_table(&[2; MAX_DENSE_LOOKUP_VARS]);
        let lattice = t.lattice(1);
        assert_eq!(lattice.dense_lookup.len(), 1 << MAX_DENSE_LOOKUP_VARS);
        let probe = Assignment::single(15, 1);
        assert_eq!(lattice.get(&probe), Some(t.count_matching(&probe)));
    }

    #[test]
    fn probability_lattices_sum_down_like_count_lattices() {
        let t = paper_table();
        let n = t.total() as f64;
        let lattice = MarginalLattice::build(t.schema(), 2, |top| {
            tabulate(&t, top)
                .into_iter()
                .map(|cells| cells.into_iter().map(|c| c as f64 / n).collect())
                .collect()
        });
        assert!((lattice.total() - 1.0).abs() < 1e-12);
        let a = Assignment::single(0, 0);
        assert!((lattice.probability(&a).unwrap() - 1290.0 / n).abs() < 1e-12);
    }

    #[test]
    fn plan_covers_every_subset_up_to_k_exactly_once() {
        let schema = Schema::uniform(&[3, 2, 2]).unwrap();
        let plan = lattice_plan(&schema, 2);
        // C(3,2) + C(3,1) + C(3,0) = 3 + 3 + 1.
        assert_eq!(plan.len(), 7);
        let mut seen: Vec<VarSet> = plan.iter().map(|s| s.vars).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 7, "no subset is planned twice");
        assert!(plan.iter().all(|s| s.vars.len() <= 2));
    }

    #[test]
    fn only_top_order_tables_read_the_source() {
        let schema = Schema::uniform(&[3, 2, 4, 2]).unwrap();
        for step in lattice_plan(&schema, 2) {
            match step.sum_out {
                None => assert_eq!(step.vars.len(), 2),
                Some(sum_out) => {
                    assert!(step.vars.len() < 2);
                    assert!(!step.vars.contains(sum_out));
                }
            }
        }
    }

    #[test]
    fn parent_selection_prefers_the_smallest_cardinality() {
        // Cards [5, 2, 3]: the order-0 table should be summed down from the
        // singleton over attribute 1 (cardinality 2), not 0 or 2.
        let schema = Schema::uniform(&[5, 2, 3]).unwrap();
        let plan = lattice_plan(&schema, 1);
        let empty = plan.iter().find(|s| s.vars.is_empty()).unwrap();
        assert_eq!(empty.sum_out, Some(1));
        // Ties break on the smallest index.
        let tied = Schema::uniform(&[2, 2]).unwrap();
        let plan = lattice_plan(&tied, 1);
        let empty = plan.iter().find(|s| s.vars.is_empty()).unwrap();
        assert_eq!(empty.sum_out, Some(0));
    }

    #[test]
    fn order_above_schema_size_is_capped() {
        let schema = Schema::uniform(&[2, 2]).unwrap();
        let plan = lattice_plan(&schema, 9);
        // Top order caps at R = 2: {0,1} from the source, singletons from it.
        assert_eq!(plan.len(), 4);
        assert_eq!(plan[0], LatticeStep { vars: schema.all_vars(), sum_out: None });
        assert!(plan[1..].iter().all(|s| s.sum_out.is_some()));
    }

    #[test]
    fn order_zero_plan_is_the_grand_total_from_the_source() {
        let schema = Schema::uniform(&[3, 2]).unwrap();
        let plan = lattice_plan(&schema, 0);
        assert_eq!(plan, vec![LatticeStep { vars: VarSet::empty(), sum_out: None }]);
    }

    proptest! {
        #[test]
        fn prop_marginal_agrees_with_count_matching(
            counts in proptest::collection::vec(0u64..30, 12),
            mask in any::<u32>(),
        ) {
            let schema = Schema::uniform(&[3, 2, 2]).unwrap().into_shared();
            let t = ContingencyTable::from_counts(Arc::clone(&schema), counts).unwrap();
            let vars = VarSet::from_bits(mask).intersection(schema.all_vars());
            let m = t.marginal(vars);
            prop_assert_eq!(m.cells().iter().sum::<u64>(), t.total());
            for (a, c) in m.assignments() {
                prop_assert_eq!(c, t.count_matching(&a));
            }
        }

        #[test]
        fn prop_parents_precede_children_and_shrink_by_one(
            cards in proptest::collection::vec(1usize..5, 1..6),
            k in 0usize..4,
        ) {
            let schema = Schema::uniform(&cards).unwrap();
            let plan = lattice_plan(&schema, k);
            let top = k.min(schema.len());
            for (i, step) in plan.iter().enumerate() {
                match step.sum_out {
                    None => prop_assert_eq!(step.vars.len(), top),
                    Some(sum_out) => {
                        let parent = step.vars.with(sum_out);
                        prop_assert_eq!(parent.len(), step.vars.len() + 1);
                        // The parent was planned strictly earlier.
                        let parent_pos = plan.iter().position(|s| s.vars == parent);
                        prop_assert!(parent_pos.is_some() && parent_pos.unwrap() < i);
                    }
                }
            }
            // Every subset of size <= top appears exactly once.
            let expected: usize = (0..=top)
                .map(|m| schema.all_vars().subsets_of_size(m).len())
                .sum();
            prop_assert_eq!(plan.len(), expected);
        }
    }
}
