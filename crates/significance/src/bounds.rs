//! The integer range available to a candidate cell under the "chance"
//! hypothesis H2 (Eq. 41 of the memo).
//!
//! Under H2 the cell's count is *a priori* uniform over the integer values it
//! could still take.  That range is bounded by every **known marginal** of
//! the cell (the first-order marginals are always known; a higher-order
//! marginal is known only if it was itself found significant or given),
//! minus the counts already committed to other significant cells under the
//! same marginal.  If, for some marginal, the candidate is the *only*
//! remaining free cell, its value is completely determined and
//! `p(D | H2) = 1`.

use pka_contingency::{Assignment, MarginalLattice, MarginalTable, Schema, VarSet};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A set of cells grouped by variable set, each addressed by its row-major
/// configuration index ([`Schema::config_index`]) so membership is one
/// indexed load.
#[derive(Debug, Clone, Default)]
pub struct KnownCells {
    groups: HashMap<VarSet, CellGroup>,
}

#[derive(Debug, Clone)]
struct CellGroup {
    /// Membership by configuration index.
    member: Vec<bool>,
    /// The member configuration indices, in insertion order.
    cells: Vec<usize>,
}

impl KnownCells {
    /// The empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// The set of `cells`.
    pub fn from_cells<'c>(
        schema: &Schema,
        cells: impl IntoIterator<Item = &'c Assignment>,
    ) -> Self {
        let mut set = Self::new();
        for cell in cells {
            set.insert(schema, cell);
        }
        set
    }

    /// Adds a cell (a no-op if it is already present).
    pub fn insert(&mut self, schema: &Schema, cell: &Assignment) {
        let vars = cell.vars();
        let index = schema.config_index(vars, cell.values());
        let group = self.groups.entry(vars).or_insert_with(|| CellGroup {
            member: vec![false; schema.cell_count_of(vars)],
            cells: Vec::new(),
        });
        if !std::mem::replace(&mut group.member[index], true) {
            group.cells.push(index);
        }
    }

    /// True if the cell at `config_index` of the table over `vars` is in the
    /// set.
    pub fn contains(&self, vars: VarSet, config_index: usize) -> bool {
        self.groups.get(&vars).is_some_and(|g| g.member[config_index])
    }
}

/// Everything needed to bound candidate cells at one order of the
/// acquisition loop.
#[derive(Debug, Clone, Copy)]
pub struct RangeContext<'a> {
    /// Observed marginal tables over every candidate variable set and each
    /// of its proper subsets.
    observed: &'a MarginalLattice<u64>,
    /// Constraints known before this order started: the first-order
    /// marginals are implicit and never need to be listed; this set carries
    /// the *higher-order* constraints (found significant or supplied as
    /// prior knowledge).
    known: &'a KnownCells,
    /// Cells already found significant at the *current* order.  Only the
    /// candidate's own variable set is read, so the whole constraint set may
    /// be passed.
    found_at_order: &'a KnownCells,
}

impl<'a> RangeContext<'a> {
    /// Creates a context for one order of the acquisition loop.
    pub fn new(
        observed: &'a MarginalLattice<u64>,
        known: &'a KnownCells,
        found_at_order: &'a KnownCells,
    ) -> Self {
        Self { observed, known, found_at_order }
    }

    /// Plans the bounds of every cell over `vars`: which known marginals
    /// bound them, where each lies in its observed table, and which cells of
    /// the same table are already committed.
    ///
    /// # Panics
    /// Panics if `observed` lacks the table over `vars` or over one of the
    /// proper subsets that bound it.
    pub fn ranges_over(&self, vars: VarSet) -> CellRanges<'a> {
        let table = self.table(vars);
        let cards = table.cardinalities().to_vec();
        let members: Vec<usize> = vars.iter().collect();
        let order = members.len();
        let found: &[usize] = self.found_at_order.groups.get(&vars).map_or(&[], |g| &g.cells);
        let mut bounds = Vec::new();
        // Proper nonempty subsets, as bit masks over the positions of `vars`.
        for mask in 1..(1u64 << order).saturating_sub(1) {
            let in_subset = |pos: usize| mask >> pos & 1 == 1;
            let subset =
                VarSet::from_indices((0..order).filter(|&p| in_subset(p)).map(|p| members[p]));
            let known = if subset.len() == 1 {
                None
            } else {
                match self.known.groups.get(&subset) {
                    Some(group) => Some(group.member.as_slice()),
                    None => continue,
                }
            };
            // Row-major strides of the subset's table, spread over the
            // positions of `vars` (0 where the position is summed out).
            let mut weights = vec![0usize; order];
            let mut stride = 1;
            for pos in (0..order).rev().filter(|&p| in_subset(p)) {
                weights[pos] = stride;
                stride *= cards[pos];
            }
            let found = found
                .iter()
                .map(|&index| (index, project(index, &cards, &weights), table.cells()[index]))
                .collect();
            // Cells of `vars` in one slice of this marginal: the free
            // attributes are vars \ subset.
            let slice_cells = (0..order).filter(|&p| !in_subset(p)).map(|p| cards[p]).product();
            bounds.push(SubsetBound {
                counts: self.table(subset).cells(),
                known,
                weights,
                found,
                slice_cells,
            });
        }
        CellRanges { total: self.observed.total(), cards, bounds }
    }

    /// Computes the available range for one candidate cell (Eq. 41); a
    /// shorthand for [`RangeContext::ranges_over`] when only one cell of a
    /// table is scored.
    pub fn range_of(&self, candidate: &Assignment) -> CellRange {
        let ranges = self.ranges_over(candidate.vars());
        let config_index = candidate
            .values()
            .iter()
            .zip(&ranges.cards)
            .fold(0, |index, (&v, &card)| index * card + v);
        ranges.range_of(config_index)
    }

    fn table(&self, vars: VarSet) -> &'a MarginalTable<u64> {
        self.observed
            .table(vars)
            .unwrap_or_else(|| panic!("no observed marginal over {vars} was tabulated"))
    }
}

/// The Eq. 41 bounds of every cell over one variable set, planned once by
/// [`RangeContext::ranges_over`]; each [`CellRanges::range_of`] is then
/// index arithmetic and table loads, with no allocation.
#[derive(Debug, Clone)]
pub struct CellRanges<'a> {
    total: u64,
    /// Cardinalities of the member attributes, ascending attribute order.
    cards: Vec<usize>,
    /// One entry per known proper marginal.
    bounds: Vec<SubsetBound<'a>>,
}

#[derive(Debug, Clone)]
struct SubsetBound<'a> {
    /// Observed counts of the marginal table.
    counts: &'a [u64],
    /// Which of its cells are known constraints (`None`: first order, all).
    known: Option<&'a [bool]>,
    /// Per position of the candidate's variable set, its stride in this
    /// marginal's table.
    weights: Vec<usize>,
    /// The cells of the candidate's table already found significant, as
    /// (configuration index, index in this marginal, observed count).
    found: Vec<(usize, usize, u64)>,
    /// Cells of the candidate's table in one slice of this marginal.
    slice_cells: usize,
}

impl CellRanges<'_> {
    /// The range available to the cell at `config_index` (Eq. 41).
    pub fn range_of(&self, config_index: usize) -> CellRange {
        let mut max_value = self.total;
        let mut min_free_cells = usize::MAX;
        for bound in &self.bounds {
            let projected = project(config_index, &self.cards, &bound.weights);
            if bound.known.is_some_and(|known| !known[projected]) {
                continue;
            }
            // Other significant cells of this table that fall under the
            // same marginal slice.
            let mut committed = 0u64;
            let mut committed_cells = 0usize;
            for &(index, slice, count) in &bound.found {
                if index != config_index && slice == projected {
                    committed += count;
                    committed_cells += 1;
                }
            }
            max_value = max_value.min(bound.counts[projected].saturating_sub(committed));
            min_free_cells = min_free_cells.min(bound.slice_cells.saturating_sub(committed_cells));
        }
        // An order-1 candidate has no proper marginal: only `N` bounds it
        // and `min_free_cells` stays `usize::MAX`.
        CellRange { max_value, min_free_cells, determined: min_free_cells <= 1 }
    }
}

/// The index in a marginal's table of the cell at `config_index` of a table
/// with member cardinalities `cards`, given the marginal's strides spread
/// over those members (`weights`).
fn project(mut config_index: usize, cards: &[usize], weights: &[usize]) -> usize {
    let mut projected = 0;
    for (&card, &weight) in cards.iter().zip(weights).rev() {
        projected += config_index % card * weight;
        config_index /= card;
    }
    projected
}

/// The integer range a candidate cell could occupy under H2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellRange {
    /// Largest value the cell could take (its tightest marginal bound minus
    /// counts already committed to other significant cells).
    pub max_value: u64,
    /// Smallest number of still-free cells across the known marginal slices
    /// containing the candidate.
    pub min_free_cells: usize,
    /// True if the cell's value is completely determined by the marginals
    /// and the cells already found (`min_free_cells <= 1`), in which case
    /// `p(D | H2) = 1`.
    pub determined: bool,
}

impl CellRange {
    /// The message length `−ln p(D | H2)` contributed by the data under H2:
    /// `ln(max_value + 1)` when the cell is free, `0` when it is
    /// determined (Eq. 41's ELSE branch).
    pub fn message_length(&self) -> f64 {
        if self.determined {
            0.0
        } else {
            ((self.max_value + 1) as f64).ln()
        }
    }

    /// Number of equally-likely integer values under H2 (1 when determined).
    pub fn values_available(&self) -> u64 {
        if self.determined {
            1
        } else {
            self.max_value + 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pka_contingency::{Attribute, ContingencyTable, Schema};

    /// The owned inputs of a [`RangeContext`] over a table.
    struct Inputs {
        observed: MarginalLattice<u64>,
        known: KnownCells,
        found: KnownCells,
    }

    impl Inputs {
        fn new(t: &ContingencyTable, known: &[Assignment], found: &[Assignment]) -> Self {
            Self {
                observed: t.lattice(t.schema().len()),
                known: KnownCells::from_cells(t.schema(), known),
                found: KnownCells::from_cells(t.schema(), found),
            }
        }

        fn ctx(&self) -> RangeContext<'_> {
            RangeContext::new(&self.observed, &self.known, &self.found)
        }
    }

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
    fn second_order_range_with_no_prior_findings() {
        let t = paper_table();
        let inputs = Inputs::new(&t, &[], &[]);
        let ctx = inputs.ctx();
        // N^AB_11 is bounded by min(N^A_1, N^B_1) = min(1290, 433) = 433.
        let r = ctx.range_of(&Assignment::from_pairs([(0, 0), (1, 0)]));
        assert_eq!(r.max_value, 433);
        assert!(!r.determined);
        assert_eq!(r.min_free_cells, 2); // slice over the other attribute has >= 2 cells
        assert!((r.message_length() - 434f64.ln()).abs() < 1e-12);
        // N^AB_12 is bounded by min(N^A_1, N^B_2) = 1290.
        let r = ctx.range_of(&Assignment::from_pairs([(0, 0), (1, 1)]));
        assert_eq!(r.max_value, 1290);
        assert_eq!(r.values_available(), 1291);
    }

    #[test]
    fn found_cells_reduce_the_range() {
        let t = paper_table();
        // Suppose N^AC_12 (count 750) has already been found significant.
        let found = vec![Assignment::from_pairs([(0, 0), (2, 1)])];
        let inputs = Inputs::new(&t, &[], &found);
        let ctx = inputs.ctx();
        // Candidate N^AC_11 shares the A=smoker marginal (1290) with the
        // found cell, so its bound drops to 1290 - 750 = 540; the C=yes
        // marginal gives 1780, so the minimum is 540.
        let r = ctx.range_of(&Assignment::from_pairs([(0, 0), (2, 0)]));
        assert_eq!(r.max_value, 540);
        // Only one free cell remains in the A=smoker slice of the AC table
        // (the candidate itself), so the cell is determined.
        assert!(r.determined);
        assert_eq!(r.message_length(), 0.0);
        assert_eq!(r.values_available(), 1);
    }

    #[test]
    fn found_cells_over_other_varsets_do_not_interfere() {
        let t = paper_table();
        // A found AB cell must not tighten an AC candidate's bounds: the
        // memo's Eq. 41 only subtracts same-table cells.
        let found = vec![Assignment::from_pairs([(0, 0), (1, 0)])];
        let inputs = Inputs::new(&t, &[], &found);
        let ctx = inputs.ctx();
        let r = ctx.range_of(&Assignment::from_pairs([(0, 0), (2, 0)]));
        // The bound stays at min(N^A_1 = 1290, N^C_1 = 1780) = 1290 because
        // the found cell lives in the AB table, not the AC table.
        assert_eq!(r.max_value, 1290);
        assert!(!r.determined);
    }

    #[test]
    fn third_order_range_uses_known_second_order_marginals() {
        let t = paper_table();
        // N^ABC_111 = 130.
        let candidate = Assignment::from_pairs([(0, 0), (1, 0), (2, 0)]);
        // Without any known second-order constraints, only the first-order
        // marginals bound the cell: min(1290, 433, 1780) = 433.
        let inputs = Inputs::new(&t, &[], &[]);
        let ctx = inputs.ctx();
        assert_eq!(ctx.range_of(&candidate).max_value, 433);
        // Once N^AB_11 = 240 is a known constraint, it also bounds the cell.
        let known = vec![Assignment::from_pairs([(0, 0), (1, 0)])];
        let inputs = Inputs::new(&t, &known, &[]);
        let ctx = inputs.ctx();
        assert_eq!(ctx.range_of(&candidate).max_value, 240);
    }

    #[test]
    fn first_order_candidate_is_only_bounded_by_n() {
        let t = paper_table();
        let inputs = Inputs::new(&t, &[], &[]);
        let ctx = inputs.ctx();
        let r = ctx.range_of(&Assignment::single(0, 0));
        assert_eq!(r.max_value, t.total());
        assert!(!r.determined);
    }
}
