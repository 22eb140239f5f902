//! Marginal tables — the memo's Figure 2 and Eqs. 1–6.

use crate::config::Assignment;
use crate::table::ContingencyTable;
use crate::varset::VarSet;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// The counts of a contingency table summed down to a subset of the
/// attributes.
///
/// `Marginal` is itself a small dense table indexed by the member attributes
/// of its [`VarSet`] (in ascending order, last member varying fastest).  It
/// is what Figure 2 of the memo prints in the margins: `N^{AB}_{ij}`,
/// `N^{AC}_{ik}`, `N^A_i`, … down to the single number `N` for the empty
/// set.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Marginal {
    vars: VarSet,
    /// Member attribute indices in ascending order.
    members: Vec<usize>,
    /// Cardinalities of the member attributes.
    cards: Vec<usize>,
    counts: Vec<u64>,
    total: u64,
}

impl Marginal {
    /// Computes the marginal of a table over `vars` by summing out all other
    /// attributes (Eqs. 1–5).
    pub fn from_table(table: &ContingencyTable, vars: VarSet) -> Self {
        Self::all_from_table(table, [vars]).pop().expect("one marginal per variable set")
    }

    /// The marginals over every variable set in `varsets`, in order, built in
    /// one pass over the table's observed cells: each nonzero cell is decoded
    /// once and added into every marginal, so the cost is
    /// `O(observed cells × Σ orders)` however large the joint is.
    pub fn all_from_table(
        table: &ContingencyTable,
        varsets: impl IntoIterator<Item = VarSet>,
    ) -> Vec<Self> {
        let schema = table.schema();
        let mut marginals: Vec<Marginal> = varsets
            .into_iter()
            .map(|vars| {
                let vars = vars.intersection(schema.all_vars());
                let members: Vec<usize> = vars.iter().collect();
                let cards: Vec<usize> = members
                    .iter()
                    .map(|&i| schema.cardinality(i).expect("member in schema"))
                    .collect();
                let counts = vec![0u64; schema.cell_count_of(vars)];
                Self { vars, members, cards, counts, total: table.total() }
            })
            .collect();
        let mut values = vec![0usize; schema.len()];
        for &idx in table.occupied() {
            let mut rest = idx;
            for (value, &stride) in values.iter_mut().zip(schema.strides()) {
                *value = rest / stride;
                rest %= stride;
            }
            let count = table.counts()[idx];
            for marginal in &mut marginals {
                let m = marginal.index_of_full(&values);
                marginal.counts[m] += count;
            }
        }
        marginals
    }

    /// The attribute subset this marginal is over.
    pub fn vars(&self) -> VarSet {
        self.vars
    }

    /// The order of the marginal (number of attributes retained).
    pub fn order(&self) -> usize {
        self.members.len()
    }

    /// Number of cells in the marginal table.
    pub fn cell_count(&self) -> usize {
        self.counts.len()
    }

    /// The grand total `N` (same as the source table's total).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Count for the marginal cell given by one value per member attribute
    /// (ascending attribute order).
    ///
    /// # Panics
    /// Panics if `values` has the wrong length or a value is out of range.
    pub fn count_by_values(&self, values: &[usize]) -> u64 {
        assert_eq!(values.len(), self.members.len(), "one value per member attribute required");
        let mut m = 0usize;
        for (pos, &v) in values.iter().enumerate() {
            assert!(v < self.cards[pos], "value index out of range");
            m = m * self.cards[pos] + v;
        }
        self.counts[m]
    }

    /// Count for the marginal cell named by an [`Assignment`] whose variable
    /// set equals this marginal's variable set.  Returns `None` on a
    /// mismatch.
    pub fn count(&self, assignment: &Assignment) -> Option<u64> {
        if assignment.vars() != self.vars {
            return None;
        }
        Some(self.count_by_values(assignment.values()))
    }

    /// Empirical probability of a marginal cell.
    pub fn frequency_by_values(&self, values: &[usize]) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.count_by_values(values) as f64 / self.total as f64
    }

    /// Iterates over `(values, count)` for every marginal cell in
    /// lexicographic value order.
    pub fn cells(&self) -> impl Iterator<Item = (Vec<usize>, u64)> + '_ {
        (0..self.counts.len()).map(|mut idx| {
            let mut values = vec![0usize; self.members.len()];
            for pos in (0..self.members.len()).rev() {
                values[pos] = idx % self.cards[pos];
                idx /= self.cards[pos];
            }
            (values.clone(), self.counts[self.index_of(&values)])
        })
    }

    /// Iterates over `(Assignment, count)` for every marginal cell.
    pub fn assignments(&self) -> impl Iterator<Item = (Assignment, u64)> + '_ {
        self.cells().map(move |(values, c)| (Assignment::new(self.vars, values), c))
    }

    /// Sum of all marginal cells; always equals the grand total for a
    /// marginal computed from a table (Eqs. 4–6).
    pub fn sum(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The marginal counts in row-major order over the member attributes
    /// (last member fastest) — the order of
    /// [`Schema::configurations`](crate::Schema::configurations).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Cardinalities of the member attributes, in ascending attribute order.
    pub fn cardinalities(&self) -> &[usize] {
        &self.cards
    }

    /// Index of the marginal cell a full value assignment falls into.
    fn index_of_full(&self, full_values: &[usize]) -> usize {
        let mut m = 0usize;
        for (&attr, &card) in self.members.iter().zip(&self.cards) {
            m = m * card + full_values[attr];
        }
        m
    }

    fn index_of(&self, values: &[usize]) -> usize {
        let mut m = 0usize;
        for (pos, &v) in values.iter().enumerate() {
            m = m * self.cards[pos] + v;
        }
        m
    }
}

/// Observed marginal tables over many variable sets, keyed by set and
/// tabulated in one pass by [`Marginal::all_from_table`] — the memo's
/// Figure 2 margins, computed once so that every later count is a lookup.
#[derive(Debug, Clone)]
pub struct MarginalTables {
    total: u64,
    tables: HashMap<VarSet, Marginal>,
}

impl MarginalTables {
    /// The marginal over every variable set of order `1..=max_order`.
    pub fn up_to_order(table: &ContingencyTable, max_order: usize) -> Self {
        let all = table.schema().all_vars();
        let varsets = (1..=max_order.min(all.len())).flat_map(|k| all.subsets_of_size(k));
        let tables = Marginal::all_from_table(table, varsets)
            .into_iter()
            .map(|marginal| (marginal.vars(), marginal))
            .collect();
        Self { total: table.total(), tables }
    }

    /// The marginal over `vars`, if it was tabulated.
    pub fn get(&self, vars: VarSet) -> Option<&Marginal> {
        self.tables.get(&vars)
    }

    /// The grand total `N`.
    pub fn total(&self) -> u64 {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::Attribute;
    use crate::schema::Schema;
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
        assert_eq!(m.count_by_values(&[0, 0]), 240);
        assert_eq!(m.count_by_values(&[0, 1]), 1050);
        assert_eq!(m.count_by_values(&[1, 0]), 93);
        assert_eq!(m.count_by_values(&[1, 1]), 1040);
        assert_eq!(m.count_by_values(&[2, 0]), 100);
        assert_eq!(m.count_by_values(&[2, 1]), 905);
        assert_eq!(m.sum(), 3428);
    }

    #[test]
    fn figure_2_ac_and_bc_marginals() {
        let t = paper_table();
        let ac = t.marginal(VarSet::from_indices([0, 2]));
        assert_eq!(ac.count_by_values(&[0, 0]), 540);
        assert_eq!(ac.count_by_values(&[0, 1]), 750);
        assert_eq!(ac.count_by_values(&[1, 0]), 642);
        assert_eq!(ac.count_by_values(&[1, 1]), 491);
        assert_eq!(ac.count_by_values(&[2, 0]), 598);
        assert_eq!(ac.count_by_values(&[2, 1]), 407);
        let bc = t.marginal(VarSet::from_indices([1, 2]));
        assert_eq!(bc.count_by_values(&[0, 0]), 270);
        assert_eq!(bc.count_by_values(&[0, 1]), 163);
        assert_eq!(bc.count_by_values(&[1, 0]), 1510);
        assert_eq!(bc.count_by_values(&[1, 1]), 1485);
    }

    #[test]
    fn first_order_and_empty_marginals() {
        let t = paper_table();
        let a = t.marginal(VarSet::singleton(0));
        assert_eq!(a.count_by_values(&[0]), 1290);
        assert_eq!(a.count_by_values(&[1]), 1133);
        assert_eq!(a.count_by_values(&[2]), 1005);
        assert!((a.frequency_by_values(&[0]) - 1290.0 / 3428.0).abs() < 1e-12);
        let empty = t.marginal(VarSet::empty());
        assert_eq!(empty.cell_count(), 1);
        assert_eq!(empty.count_by_values(&[]), 3428);
        assert_eq!(empty.order(), 0);
    }

    #[test]
    fn count_by_assignment() {
        let t = paper_table();
        let m = t.marginal(VarSet::from_indices([0, 2]));
        let a = Assignment::from_pairs([(0, 0), (2, 1)]);
        assert_eq!(m.count(&a), Some(750));
        let wrong_vars = Assignment::from_pairs([(0, 0), (1, 1)]);
        assert_eq!(m.count(&wrong_vars), None);
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
    fn tables_up_to_an_order_match_count_matching() {
        let t = paper_table();
        let tables = MarginalTables::up_to_order(&t, 2);
        assert_eq!(tables.total(), 3428);
        assert!(tables.get(VarSet::from_indices([0, 1, 2])).is_none());
        for vars in [VarSet::singleton(2), VarSet::from_indices([0, 2])] {
            let m = tables.get(vars).unwrap();
            for (index, values) in t.schema().configurations(vars).enumerate() {
                assert_eq!(m.counts()[index], t.count_matching(&Assignment::new(vars, values)));
            }
        }
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
            prop_assert_eq!(m.sum(), t.total());
            for (a, c) in m.assignments() {
                prop_assert_eq!(c, t.count_matching(&a));
            }
        }
    }
}
