//! Dense contingency tables — the memo's `N_{ijk…}` cell counts.

use crate::config::Assignment;
use crate::marginal::{tabulate, MarginalLattice, MarginalTable};
use crate::sample::Sample;
use crate::schema::Schema;
use crate::varset::VarSet;
use crate::{ContingencyError, Result};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A dense table of observation counts over the full attribute
/// cross-product.
///
/// Cell `N_{ijk…}` — the number of individuals with the *i*-th value of
/// attribute `A`, the *j*-th value of `B`, … — is stored at the mixed-radix
/// index computed by [`Schema::cell_index`].  All marginal counts
/// (Eqs. 1–6 of the memo) are obtained by summation, either one query at a
/// time ([`ContingencyTable::count_matching`]) or as a whole marginal table
/// ([`ContingencyTable::marginal`]).
///
/// Counts only ever grow (there is no decrement), so the table also keeps
/// `occupied` — the indices of every cell that has ever been observed, in
/// first-observation order.  Marginal queries sum over that sparse set, so
/// their cost scales with the number of *distinct observed cells*, not with
/// the joint's cell count: on a wide schema (2^20 cells, a few hundred
/// observed) a [`ContingencyTable::count_matching`] call touches hundreds of
/// cells, not a million.  `occupied` is derived state: it is skipped on
/// serialisation (the wire format is just `schema`/`counts`/`total`),
/// built on decoding, and excluded from equality.
#[derive(Debug, Clone, Serialize)]
pub struct ContingencyTable {
    schema: Arc<Schema>,
    counts: Vec<u64>,
    total: u64,
    #[serde(skip)]
    occupied: Vec<usize>,
}

impl PartialEq for ContingencyTable {
    fn eq(&self, other: &Self) -> bool {
        // `occupied` is derived (and order-sensitive to ingestion history);
        // two tables are equal iff their observable counts are.
        self.schema == other.schema && self.counts == other.counts && self.total == other.total
    }
}

impl Eq for ContingencyTable {}

/// Decodes through [`ContingencyTable::from_counts`]; the stored `total`
/// must equal the counts' sum.
impl Deserialize for ContingencyTable {
    fn deserialize(value: &serde::Value) -> std::result::Result<Self, serde::Error> {
        let table =
            Self::from_counts(serde::de_field(value, "schema")?, serde::de_field(value, "counts")?)
                .map_err(|e| serde::Error::custom(e.to_string()))?;
        let claimed: u64 = serde::de_field(value, "total")?;
        if claimed != table.total {
            return Err(serde::Error::custom(format!(
                "table claims {claimed} tuples but its counts sum to {}",
                table.total
            )));
        }
        Ok(table)
    }
}

/// The nonzero cell indices of a dense count vector, in index order.
fn occupied_of(counts: &[u64]) -> Vec<usize> {
    counts.iter().enumerate().filter(|&(_, &c)| c > 0).map(|(i, _)| i).collect()
}

impl ContingencyTable {
    /// Creates an all-zero table over a schema.
    pub fn zeros(schema: Arc<Schema>) -> Self {
        let cells = schema.cell_count();
        Self { schema, counts: vec![0; cells], total: 0, occupied: Vec::new() }
    }

    /// Creates a table from explicit cell counts in dense-index order.
    ///
    /// This is how the memo's Figure 1 data (which is only published in
    /// contingency form) enters the system.
    pub fn from_counts(schema: Arc<Schema>, counts: Vec<u64>) -> Result<Self> {
        if counts.len() != schema.cell_count() {
            return Err(ContingencyError::CountLength {
                got: counts.len(),
                expected: schema.cell_count(),
            });
        }
        // A checked sum: real observation streams cannot reach 2^64, so an
        // overflowing total only ever comes from a forged payload, and
        // wrapping would let it masquerade as a small, consistent table.
        let total = counts
            .iter()
            .try_fold(0u64, |acc, &c| acc.checked_add(c))
            .ok_or(ContingencyError::CountOverflow)?;
        let occupied = occupied_of(&counts);
        Ok(Self { schema, counts, total, occupied })
    }

    /// The schema the table is defined over.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The schema as a shareable handle.
    pub fn shared_schema(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }

    /// Total number of observations (the memo's `N`, Eq. 6).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The raw cell counts in dense-index order.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of cells.
    pub fn cell_count(&self) -> usize {
        self.counts.len()
    }

    /// Indices of every nonzero cell, in first-observation order.
    pub(crate) fn occupied(&self) -> &[usize] {
        &self.occupied
    }

    /// Adds one observation with the given full value assignment.
    pub fn increment(&mut self, values: &[usize]) -> Result<()> {
        self.increment_by(values, 1)
    }

    /// Adds `by` observations with the given full value assignment.
    pub fn increment_by(&mut self, values: &[usize], by: u64) -> Result<()> {
        let idx = self.schema.checked_cell_index(values)?;
        if by > 0 && self.counts[idx] == 0 {
            self.occupied.push(idx);
        }
        self.counts[idx] += by;
        self.total += by;
        Ok(())
    }

    /// Count of the cell with the given full value assignment.
    ///
    /// # Panics
    /// Panics (in debug builds) if the assignment is malformed; use
    /// [`ContingencyTable::checked_count_values`] for fallible lookup.
    pub fn count_values(&self, values: &[usize]) -> u64 {
        self.counts[self.schema.cell_index(values)]
    }

    /// Fallible version of [`ContingencyTable::count_values`].
    pub fn checked_count_values(&self, values: &[usize]) -> Result<u64> {
        Ok(self.counts[self.schema.checked_cell_index(values)?])
    }

    /// Count of observations matching a partial assignment — the marginal
    /// count `N^{S}_{c}` of Eqs. 1–5.  The empty assignment returns `N`.
    pub fn count_matching(&self, assignment: &Assignment) -> u64 {
        if assignment.vars().is_empty() {
            return self.total;
        }
        if assignment.order() == self.schema.len() {
            // Full assignment: direct cell lookup.
            let mut full = vec![0usize; self.schema.len()];
            for (a, v) in assignment.pairs() {
                full[a] = v;
            }
            return self.count_values(&full);
        }
        // Sum over the observed cells only: with no decrements, `occupied`
        // is exactly the nonzero support, so the walk costs O(distinct
        // observed cells) however large the joint is.
        let mut sum = 0u64;
        for &idx in &self.occupied {
            if assignment.pairs().all(|(attr, v)| self.schema.cell_value(idx, attr) == v) {
                sum += self.counts[idx];
            }
        }
        sum
    }

    /// Empirical probability of a partial assignment, `N^{S}_{c} / N`
    /// (Eq. 48 generalised).  Returns 0 for an empty table.
    pub fn frequency(&self, assignment: &Assignment) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.count_matching(assignment) as f64 / self.total as f64
    }

    /// Builds the whole marginal table over a variable subset (summing out
    /// everything else), the operation behind Figure 2 of the memo.
    pub fn marginal(&self, vars: VarSet) -> MarginalTable<u64> {
        let vars = vars.intersection(self.schema.all_vars());
        let cells = tabulate(self, &[vars]).pop().expect("one table per variable set");
        MarginalTable::new(&self.schema, vars, cells)
    }

    /// Every marginal count table up to order `max_order`, keyed by variable
    /// set: the top-order tables tabulated in one pass over the observed
    /// cells, every smaller one summed down from its cheapest parent — the
    /// memo's Figure 2 margins, computed once so that every later count is
    /// a lookup.
    pub fn lattice(&self, max_order: usize) -> MarginalLattice<u64> {
        MarginalLattice::build(&self.schema, max_order, |top| tabulate(self, top))
    }

    /// Iterates over `(full values, count)` for every cell, including empty
    /// ones.
    pub fn cells(&self) -> impl Iterator<Item = (Vec<usize>, u64)> + '_ {
        self.counts.iter().enumerate().map(|(i, &c)| (self.schema.cell_values(i), c))
    }

    /// Iterates over `(full values, count)` for the non-empty cells only, in
    /// dense-index order.  Walks the sparse occupancy set, so the cost is
    /// proportional to the distinct observed cells, not the joint size.
    pub fn nonzero_cells(&self) -> impl Iterator<Item = (Vec<usize>, u64)> + '_ {
        let mut occupied = self.occupied.clone();
        occupied.sort_unstable();
        occupied.into_iter().map(|i| (self.schema.cell_values(i), self.counts[i]))
    }

    /// The empirical joint distribution as a dense probability vector in
    /// cell-index order.  Returns an all-zero vector for an empty table.
    pub fn empirical_distribution(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        let n = self.total as f64;
        self.counts.iter().map(|&c| c as f64 / n).collect()
    }

    /// Adds one observation given as a validated [`Sample`] — the
    /// tuple-at-a-time entry point used by streaming ingestion.
    pub fn increment_sample(&mut self, sample: &Sample) -> Result<()> {
        self.increment(sample.values())
    }

    /// Adds every cell of `other` into `self`.  Both tables must share a
    /// schema.
    pub fn merge(&mut self, other: &ContingencyTable) -> Result<()> {
        if self.schema.as_ref() != other.schema.as_ref() {
            return Err(ContingencyError::InvalidAssignment {
                reason: "cannot merge tables over different schemas".to_string(),
            });
        }
        // Checking the totals up front keeps merge all-or-nothing: each cell
        // is bounded by its table's total, so if the totals fit in a u64 the
        // per-cell additions cannot overflow either.
        let total = self.total.checked_add(other.total).ok_or(ContingencyError::CountOverflow)?;
        // Only `other`'s observed cells can change anything, so a sharded
        // merge costs O(cells the shard saw), not O(joint size).
        for &idx in &other.occupied {
            if self.counts[idx] == 0 {
                self.occupied.push(idx);
            }
            self.counts[idx] += other.counts[idx];
        }
        self.total = total;
        Ok(())
    }

    /// By-value form of [`ContingencyTable::merge`], convenient for folds:
    /// `shards.into_iter().try_fold(zero, ContingencyTable::combined)`.
    ///
    /// Cell counts are non-negative integers under addition, so this
    /// operation is associative and commutative — the algebraic fact that
    /// makes sharded, out-of-order ingestion exact rather than approximate.
    pub fn combined(mut self, other: ContingencyTable) -> Result<ContingencyTable> {
        self.merge(&other)?;
        Ok(self)
    }

    /// Folds any number of borrowed part-tables into one total table over
    /// `schema`, without copying any part.  An empty iterator yields the
    /// all-zero table.
    pub fn merged<'a, I>(schema: Arc<Schema>, parts: I) -> Result<ContingencyTable>
    where
        I: IntoIterator<Item = &'a ContingencyTable>,
    {
        parts.into_iter().try_fold(ContingencyTable::zeros(schema), |mut total, part| {
            total.merge(part)?;
            Ok(total)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::Attribute;
    use proptest::prelude::*;

    fn schema() -> Arc<Schema> {
        Schema::new(vec![
            Attribute::new("smoking", ["smoker", "non-smoker", "married-to-smoker"]),
            Attribute::yes_no("cancer"),
            Attribute::yes_no("family-history"),
        ])
        .unwrap()
        .into_shared()
    }

    /// The paper's Figure 1 counts: index order is (smoking, cancer, family
    /// history) with the last attribute varying fastest.
    fn paper_counts() -> Vec<u64> {
        vec![
            130, 110, // A=1 B=1 C=1/2
            410, 640, // A=1 B=2 C=1/2
            62, 31, // A=2 B=1
            580, 460, // A=2 B=2
            78, 22, // A=3 B=1
            520, 385, // A=3 B=2
        ]
    }

    #[test]
    fn from_counts_validates_length() {
        let s = schema();
        assert!(ContingencyTable::from_counts(Arc::clone(&s), vec![0; 5]).is_err());
        let t = ContingencyTable::from_counts(s, paper_counts()).unwrap();
        assert_eq!(t.total(), 3428);
        assert_eq!(t.cell_count(), 12);
    }

    #[test]
    fn overflowing_counts_are_rejected() {
        let s = schema();
        let mut counts = vec![0u64; 12];
        counts[0] = u64::MAX;
        counts[1] = 1;
        assert_eq!(
            ContingencyTable::from_counts(Arc::clone(&s), counts).unwrap_err(),
            ContingencyError::CountOverflow,
        );
        // Merging two near-maximal tables must fail cleanly, leaving the
        // target untouched rather than wrapping its counts.
        let mut big = vec![0u64; 12];
        big[3] = u64::MAX - 5;
        let mut a = ContingencyTable::from_counts(Arc::clone(&s), big.clone()).unwrap();
        let b = ContingencyTable::from_counts(s, big).unwrap();
        let before = a.clone();
        assert_eq!(a.merge(&b).unwrap_err(), ContingencyError::CountOverflow);
        assert_eq!(a, before, "failed merge must not mutate the target");
    }

    #[test]
    fn increment_and_lookup() {
        let mut t = ContingencyTable::zeros(schema());
        t.increment(&[0, 1, 0]).unwrap();
        t.increment_by(&[0, 1, 0], 4).unwrap();
        t.increment(&[2, 0, 1]).unwrap();
        assert_eq!(t.count_values(&[0, 1, 0]), 5);
        assert_eq!(t.count_values(&[2, 0, 1]), 1);
        assert_eq!(t.total(), 6);
        assert!(t.increment(&[9, 0, 0]).is_err());
        assert_eq!(t.total(), 6, "failed increments must not change the total");
        assert_eq!(t.checked_count_values(&[0, 1, 0]).unwrap(), 5);
        assert!(t.checked_count_values(&[0, 1]).is_err());
    }

    #[test]
    fn count_matching_reproduces_paper_marginals() {
        let t = ContingencyTable::from_counts(schema(), paper_counts()).unwrap();
        // Figure 2c: smoking × cancer marginals.
        let n_ab_11 = Assignment::from_pairs([(0, 0), (1, 0)]);
        assert_eq!(t.count_matching(&n_ab_11), 240);
        let n_ab_12 = Assignment::from_pairs([(0, 0), (1, 1)]);
        assert_eq!(t.count_matching(&n_ab_12), 1050);
        // Figure 2: first-order marginals.
        assert_eq!(t.count_matching(&Assignment::single(0, 0)), 1290);
        assert_eq!(t.count_matching(&Assignment::single(0, 1)), 1133);
        assert_eq!(t.count_matching(&Assignment::single(0, 2)), 1005);
        assert_eq!(t.count_matching(&Assignment::single(1, 0)), 433);
        assert_eq!(t.count_matching(&Assignment::single(1, 1)), 2995);
        assert_eq!(t.count_matching(&Assignment::single(2, 0)), 1780);
        assert_eq!(t.count_matching(&Assignment::single(2, 1)), 1648);
        // The paper's N^AC_12 = 750 (smokers with no family history).
        let n_ac_12 = Assignment::from_pairs([(0, 0), (2, 1)]);
        assert_eq!(t.count_matching(&n_ac_12), 750);
        // Empty assignment returns N.
        assert_eq!(t.count_matching(&Assignment::empty()), 3428);
        // Full assignment is a plain cell lookup.
        let full = Assignment::from_pairs([(0, 0), (1, 1), (2, 0)]);
        assert_eq!(t.count_matching(&full), 410);
    }

    #[test]
    fn frequency_normalises() {
        let t = ContingencyTable::from_counts(schema(), paper_counts()).unwrap();
        let p = t.frequency(&Assignment::single(1, 0));
        assert!((p - 433.0 / 3428.0).abs() < 1e-12);
        let empty = ContingencyTable::zeros(schema());
        assert_eq!(empty.frequency(&Assignment::single(1, 0)), 0.0);
    }

    #[test]
    fn empirical_distribution_sums_to_one() {
        let t = ContingencyTable::from_counts(schema(), paper_counts()).unwrap();
        let p = t.empirical_distribution();
        let sum: f64 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = ContingencyTable::from_counts(schema(), paper_counts()).unwrap();
        let b = ContingencyTable::from_counts(schema(), paper_counts()).unwrap();
        a.merge(&b).unwrap();
        assert_eq!(a.total(), 2 * 3428);
        assert_eq!(a.count_values(&[0, 0, 0]), 260);
        let other_schema = Schema::uniform(&[2, 2]).unwrap().into_shared();
        let c = ContingencyTable::zeros(other_schema);
        assert!(a.merge(&c).is_err());
    }

    #[test]
    fn increment_sample_matches_increment() {
        let mut by_values = ContingencyTable::zeros(schema());
        let mut by_sample = ContingencyTable::zeros(schema());
        by_values.increment(&[1, 0, 1]).unwrap();
        let sample = crate::Sample::validated(&schema(), vec![1, 0, 1]).unwrap();
        by_sample.increment_sample(&sample).unwrap();
        assert_eq!(by_values, by_sample);
    }

    #[test]
    fn combined_and_merged_fold_parts() {
        let s = schema();
        let a = ContingencyTable::from_counts(Arc::clone(&s), paper_counts()).unwrap();
        let b = ContingencyTable::from_counts(Arc::clone(&s), paper_counts()).unwrap();
        let c = ContingencyTable::zeros(Arc::clone(&s));
        let folded = ContingencyTable::merged(Arc::clone(&s), [&a, &b, &c]).unwrap();
        assert_eq!(folded.total(), 2 * 3428);
        // combined is merge by value.
        let pair = a.clone().combined(a).unwrap();
        assert_eq!(pair, folded);
        // Empty iterator yields the zero table.
        let empty = ContingencyTable::merged(Arc::clone(&s), std::iter::empty()).unwrap();
        assert_eq!(empty.total(), 0);
        // Schema mismatches are rejected mid-fold.
        let other = ContingencyTable::zeros(Schema::uniform(&[2, 2]).unwrap().into_shared());
        assert!(ContingencyTable::merged(s, [&other]).is_err());
    }

    #[test]
    fn nonzero_cells_skips_empty() {
        let mut t = ContingencyTable::zeros(schema());
        t.increment(&[1, 1, 1]).unwrap();
        assert_eq!(t.nonzero_cells().count(), 1);
        assert_eq!(t.cells().count(), 12);
    }

    #[test]
    fn nonzero_cells_come_out_in_dense_index_order() {
        let mut t = ContingencyTable::zeros(schema());
        // Observed out of index order; iteration must still be index order.
        t.increment(&[2, 0, 1]).unwrap();
        t.increment(&[0, 1, 0]).unwrap();
        t.increment(&[1, 0, 0]).unwrap();
        let cells: Vec<Vec<usize>> = t.nonzero_cells().map(|(v, _)| v).collect();
        assert_eq!(cells, vec![vec![0, 1, 0], vec![1, 0, 0], vec![2, 0, 1]]);
    }

    #[test]
    fn sparse_occupancy_survives_merge_and_serde() {
        let s = schema();
        let mut a = ContingencyTable::zeros(Arc::clone(&s));
        a.increment(&[0, 1, 0]).unwrap();
        let mut b = ContingencyTable::zeros(Arc::clone(&s));
        b.increment(&[0, 1, 0]).unwrap();
        b.increment(&[2, 0, 1]).unwrap();
        a.merge(&b).unwrap();
        assert_eq!(a.count_matching(&Assignment::single(0, 0)), 2);
        assert_eq!(a.count_matching(&Assignment::single(0, 2)), 1);
        assert_eq!(a.nonzero_cells().count(), 2);
        // The wire format carries no derived state, and a round-trip
        // rebuilds the occupancy set the marginal queries walk.
        let json = serde_json::to_string(&a).unwrap();
        assert!(!json.contains("occupied"));
        let back: ContingencyTable = serde_json::from_str(&json).unwrap();
        assert_eq!(back, a);
        assert_eq!(back.count_matching(&Assignment::single(0, 0)), 2);
        assert_eq!(back.nonzero_cells().count(), 2);
    }

    proptest! {
        #[test]
        fn prop_marginal_counts_sum_to_total(
            counts in proptest::collection::vec(0u64..50, 12),
            attr in 0usize..3,
        ) {
            let t = ContingencyTable::from_counts(schema(), counts).unwrap();
            let card = t.schema().cardinality(attr).unwrap();
            let sum: u64 = (0..card)
                .map(|v| t.count_matching(&Assignment::single(attr, v)))
                .sum();
            // Eq. 4/5 of the memo: summing a first-order marginal over all
            // values of the attribute recovers N.
            prop_assert_eq!(sum, t.total());
        }

        #[test]
        fn prop_second_order_consistent_with_first(
            counts in proptest::collection::vec(0u64..50, 12),
        ) {
            let t = ContingencyTable::from_counts(schema(), counts).unwrap();
            // Eq. 2: summing N^{AB}_{ij} over j gives N^A_i.
            for i in 0..3 {
                let direct = t.count_matching(&Assignment::single(0, i));
                let summed: u64 = (0..2)
                    .map(|j| t.count_matching(&Assignment::from_pairs([(0, i), (1, j)])))
                    .sum();
                prop_assert_eq!(direct, summed);
            }
        }
    }
}
