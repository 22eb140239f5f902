//! Sum-of-products evaluation of the factored model (Appendix B of the
//! memo).
//!
//! The memo's Appendix B observes that the marginal sums needed by the
//! constraint equations — `Σ_i a_i Σ_j a_j a_ij Σ_k a_k a_ik a_jk` and so on
//! (Eq. 89) — can be evaluated by nesting the summations and carrying small
//! matrices, rather than enumerating the full cross-product.  In modern
//! terminology that is **variable elimination** on the factor graph defined
//! by the a-values.  [`FactorGraph`] implements it for arbitrary attribute
//! counts and constraint orders, so marginal (and hence conditional)
//! probabilities can be computed from the model without ever materialising
//! the dense joint — the property that makes the acquired knowledge base a
//! practical query engine when the attribute count grows.
//!
//! ## Elimination order
//!
//! The cost of eliminating a variable is the size of the intermediate table
//! over the union of the scopes that mention it, so the order matters
//! enormously once the constraint graph has structure.  Orders are chosen
//! greedily by **min-fill** (eliminate the variable whose removal adds the
//! fewest new edges between its neighbours in the interaction graph), with
//! **min-degree** breaking ties and the smallest attribute index breaking
//! those — the standard heuristic pair for treewidth-bounded elimination.
//! The largest intermediate scope actually produced is tracked in
//! [`FactorGraph::elimination_width_max`] (the induced width + 1 of the
//! orders used so far), which the serve layer surfaces in `stats.server`.
//!
//! ## Complexity
//!
//! Per elimination the work is `O(Π cards of the intermediate scope)`, so a
//! model whose promoted constraints are low-order (the acquisition
//! procedure's normal output) evaluates in time exponential only in the
//! induced width — independent of the total cell count `Π all cards`.  See
//! `docs/factored.md` for the full complexity model and the dense-ceiling
//! policy that decides when the dense paths are still cheaper.

use crate::model::LogLinearModel;
use pka_contingency::{Assignment, Schema, VarSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// A factor: a non-negative function over the value combinations of a small
/// set of attributes, stored densely (ascending attribute order, last
/// attribute varying fastest).
#[derive(Debug, Clone, PartialEq)]
struct Factor {
    vars: VarSet,
    /// Cardinalities of the member attributes, ascending attribute order.
    cards: Vec<usize>,
    values: Vec<f64>,
}

impl Factor {
    /// A scalar factor (empty scope).
    fn scalar(value: f64) -> Self {
        Self { vars: VarSet::empty(), cards: Vec::new(), values: vec![value] }
    }

    fn from_assignment(schema: &Schema, assignment: &Assignment, a: f64) -> Self {
        let vars = assignment.vars();
        let cards: Vec<usize> =
            vars.iter().map(|i| schema.cardinality(i).expect("attr in schema")).collect();
        let size: usize = cards.iter().product::<usize>().max(1);
        let mut values = vec![1.0; size];
        // The factor is `a` at the constrained configuration and 1 elsewhere.
        let idx = Self::index_of(&cards, assignment.values());
        values[idx] = a;
        Self { vars, cards, values }
    }

    fn index_of(cards: &[usize], values: &[usize]) -> usize {
        let mut idx = 0usize;
        for (pos, &v) in values.iter().enumerate() {
            idx = idx * cards[pos] + v;
        }
        idx
    }

    /// Restricts the factor by fixing some attributes to given values,
    /// producing a factor over the remaining ones.
    fn restrict(&self, evidence: &Assignment) -> Factor {
        let fixed = self.vars.intersection(evidence.vars());
        if fixed.is_empty() {
            return self.clone();
        }
        let remaining = self.vars.difference(fixed);
        let rem_members: Vec<usize> = remaining.iter().collect();
        let rem_cards: Vec<usize> = rem_members
            .iter()
            .map(|&attr| {
                let rank = self.vars.rank_of(attr).expect("member of scope");
                self.cards[rank]
            })
            .collect();
        let size: usize = rem_cards.iter().product::<usize>().max(1);
        let mut values = vec![0.0; size];
        let members: Vec<usize> = self.vars.iter().collect();
        // Enumerate the original factor's configurations and keep those that
        // agree with the evidence.
        for idx in 0..self.values.len() {
            let mut cfg = vec![0usize; members.len()];
            let mut rem = idx;
            for pos in (0..members.len()).rev() {
                cfg[pos] = rem % self.cards[pos];
                rem /= self.cards[pos];
            }
            let agrees = members
                .iter()
                .enumerate()
                .all(|(pos, &attr)| evidence.value_of(attr).is_none_or(|v| v == cfg[pos]));
            if !agrees {
                continue;
            }
            let rem_values: Vec<usize> = rem_members
                .iter()
                .map(|&attr| {
                    let pos = self.vars.rank_of(attr).expect("member");
                    cfg[pos]
                })
                .collect();
            values[Self::index_of(&rem_cards, &rem_values)] = self.values[idx];
        }
        Factor { vars: remaining, cards: rem_cards, values }
    }
}

/// Row-major strides over `cards`, last position varying fastest.
fn strides_of(cards: &[usize]) -> Vec<usize> {
    let mut strides = vec![1usize; cards.len()];
    for i in (0..cards.len().saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * cards[i + 1];
    }
    strides
}

/// Advances `digits` as a mixed-radix odometer over `cards` (last position
/// fastest), matching the row-major enumeration order of the tables.
#[inline]
fn advance(digits: &mut [usize], cards: &[usize]) {
    for pos in (0..digits.len()).rev() {
        digits[pos] += 1;
        if digits[pos] < cards[pos] {
            return;
        }
        digits[pos] = 0;
    }
}

/// A greedy **min-fill** elimination order over `to_eliminate`, computed on
/// the interaction graph of the given factor scopes.
///
/// At every step the variable whose elimination adds the fewest fill edges
/// between its neighbours is chosen; ties are broken by the smaller degree,
/// then by the smaller attribute index (so the order is deterministic).
/// Variables no factor mentions come out first — eliminating them is a
/// scalar multiplication.
pub fn elimination_order(attr_count: usize, scopes: &[VarSet], to_eliminate: VarSet) -> Vec<usize> {
    let mut adj: Vec<VarSet> = vec![VarSet::empty(); attr_count];
    for &scope in scopes {
        for v in scope.iter() {
            adj[v] = adj[v].union(scope.without(v));
        }
    }
    let mut remaining = to_eliminate;
    let mut order = Vec::with_capacity(remaining.len());
    while !remaining.is_empty() {
        let mut best = usize::MAX;
        let mut best_key = (usize::MAX, usize::MAX);
        for v in remaining.iter() {
            let neigh = adj[v];
            let degree = neigh.len();
            let members: Vec<usize> = neigh.iter().collect();
            let mut fill = 0usize;
            for (i, &a) in members.iter().enumerate() {
                for &b in &members[i + 1..] {
                    if !adj[a].contains(b) {
                        fill += 1;
                    }
                }
            }
            // Strict `<` keeps the smallest index on ties (iteration is
            // ascending).
            if (fill, degree) < best_key {
                best_key = (fill, degree);
                best = v;
            }
        }
        let neigh = adj[best];
        for a in neigh.iter() {
            adj[a] = adj[a].union(neigh).without(a).without(best);
        }
        adj[best] = VarSet::empty();
        remaining = remaining.without(best);
        order.push(best);
    }
    order
}

/// The factored (sum-of-products) view of a [`LogLinearModel`].
///
/// Read paths (`weight` / `probability` / `marginal`) take `&self` and are
/// safe to share across threads; the partition sum is computed once and
/// cached until a factor value changes.
#[derive(Debug)]
pub struct FactorGraph {
    schema: Arc<Schema>,
    a0: f64,
    factors: Vec<Factor>,
    /// Dense index of the constrained configuration inside each factor's
    /// table, parallel to `factors` — the slot the solver's in-place
    /// a-value updates write through.
    anchors: Vec<usize>,
    /// Largest intermediate elimination scope produced so far (the induced
    /// width + 1 of the orders actually run).
    width_max: AtomicUsize,
    /// The partition sum, computed lazily and invalidated by mutation.
    partition_cache: OnceLock<f64>,
}

impl Clone for FactorGraph {
    fn clone(&self) -> Self {
        let partition_cache = OnceLock::new();
        if let Some(&z) = self.partition_cache.get() {
            let _ = partition_cache.set(z);
        }
        Self {
            schema: Arc::clone(&self.schema),
            a0: self.a0,
            factors: self.factors.clone(),
            anchors: self.anchors.clone(),
            width_max: AtomicUsize::new(self.width_max.load(Ordering::Relaxed)),
            partition_cache,
        }
    }
}

impl FactorGraph {
    /// Builds the factor graph of a model: one scalar factor `a0`, one
    /// cell-indicator factor per constraint multiplier.
    pub fn from_model(model: &LogLinearModel) -> Self {
        let schema = model.shared_schema();
        let mut anchors = Vec::with_capacity(model.factor_count());
        let factors = model
            .factors()
            .iter()
            .map(|(assignment, a)| {
                let factor = Factor::from_assignment(&schema, assignment, *a);
                anchors.push(Factor::index_of(&factor.cards, assignment.values()));
                factor
            })
            .collect();
        Self {
            schema,
            a0: model.a0(),
            factors,
            anchors,
            width_max: AtomicUsize::new(0),
            partition_cache: OnceLock::new(),
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The schema as a shareable handle.
    pub fn shared_schema(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }

    /// Number of constraint factors.
    pub fn factor_count(&self) -> usize {
        self.factors.len()
    }

    /// The normalisation multiplier `a0`.
    pub fn a0(&self) -> f64 {
        self.a0
    }

    /// Largest intermediate elimination scope any evaluation on this graph
    /// has produced (0 until the first elimination runs).  A monotone gauge:
    /// the induced width + 1 of the elimination orders actually used.
    pub fn elimination_width_max(&self) -> usize {
        self.width_max.load(Ordering::Relaxed)
    }

    #[inline]
    fn note_width(&self, width: usize) {
        self.width_max.fetch_max(width, Ordering::Relaxed);
    }

    /// Overwrites the a-value of factor `position` (the solver's in-place
    /// update; positions align with [`LogLinearModel::factors`] order).
    pub(crate) fn set_factor_value(&mut self, position: usize, value: f64) {
        let anchor = self.anchors[position];
        self.factors[position].values[anchor] = value;
        self.partition_cache = OnceLock::new();
    }

    /// Overwrites `a0` (the solver's renormalisation step).
    pub(crate) fn set_a0(&mut self, a0: f64) {
        self.a0 = a0;
        self.partition_cache = OnceLock::new();
    }

    /// Unnormalised weight of a partial assignment: the Appendix-B nested
    /// sum `Σ … Π a` restricted to cells consistent with the assignment.
    ///
    /// Divide two such weights to obtain conditionals, or divide by
    /// [`FactorGraph::partition`] for probabilities.
    pub fn weight(&self, evidence: &Assignment) -> f64 {
        // Restrict every factor by the evidence, then eliminate the
        // remaining variables in min-fill order.
        let mut factors: Vec<Factor> = self.factors.iter().map(|f| f.restrict(evidence)).collect();
        let free = self.schema.all_vars().difference(evidence.vars());
        let scopes: Vec<VarSet> = factors.iter().map(|f| f.vars).collect();
        let order = elimination_order(self.schema.len(), &scopes, free);

        let mut width = 0usize;
        for attr in order {
            factors = eliminate(&self.schema, factors, attr, &mut width);
        }
        self.note_width(width);
        // Every remaining factor is now a scalar.
        let product: f64 = factors
            .iter()
            .map(|f| {
                debug_assert!(f.vars.is_empty());
                f.values[0]
            })
            .product();
        self.a0 * product
    }

    /// The partition sum `Σ_x Π a` times `a0`; equals 1 for a normalised
    /// model (Eq. 25 of the memo, `1/a0 = Σ …`).  Computed once and cached
    /// until a factor value changes.
    pub fn partition(&self) -> f64 {
        *self.partition_cache.get_or_init(|| self.weight(&Assignment::empty()))
    }

    /// Marginal probability of a partial assignment computed entirely from
    /// the factors (Appendix B); equal to
    /// [`LogLinearModel::probability`] up to normalisation.
    pub fn probability(&self, assignment: &Assignment) -> f64 {
        let z = self.partition();
        if z <= 0.0 {
            return 0.0;
        }
        self.weight(assignment) / z
    }

    /// The full **normalised marginal table** over `vars`, computed by
    /// eliminating every other variable (min-fill order) and combining the
    /// surviving factors — never touching the dense joint.
    ///
    /// Values are in row-major order over the ascending member attributes
    /// with the last member varying fastest: the same layout
    /// [`crate::MarginalTable`] stores and
    /// [`pka_contingency::Schema::configurations`] enumerates, so the result
    /// can be zipped against either directly.  A model with zero total mass
    /// yields an all-zero table.
    pub fn marginal(&self, vars: VarSet) -> Vec<f64> {
        let keep = vars.intersection(self.schema.all_vars());
        let scopes: Vec<VarSet> = self.factors.iter().map(|f| f.vars).collect();
        let to_eliminate = self.schema.all_vars().difference(keep);
        let order = elimination_order(self.schema.len(), &scopes, to_eliminate);

        let mut width = keep.len();
        let mut factors = self.factors.clone();
        for attr in order {
            factors = eliminate(&self.schema, factors, attr, &mut width);
        }
        self.note_width(width);

        // Combine the survivors (scopes ⊆ keep) into one dense table.
        let members: Vec<usize> = keep.iter().collect();
        let cards: Vec<usize> =
            members.iter().map(|&a| self.schema.cardinality(a).expect("attr in schema")).collect();
        let size: usize = cards.iter().product::<usize>().max(1);
        let mut values = vec![self.a0; size];
        let mut digits = vec![0usize; members.len()];
        for f in &factors {
            if f.vars.is_empty() {
                let s = f.values[0];
                if s != 1.0 {
                    for x in values.iter_mut() {
                        *x *= s;
                    }
                }
                continue;
            }
            let f_strides = strides_of(&f.cards);
            let member_strides: Vec<usize> = members
                .iter()
                .map(|&m| f.vars.rank_of(m).map_or(0, |rank| f_strides[rank]))
                .collect();
            digits.fill(0);
            for x in values.iter_mut() {
                let idx: usize = digits.iter().zip(&member_strides).map(|(d, s)| d * s).sum();
                *x *= f.values[idx];
                advance(&mut digits, &cards);
            }
        }
        // The table's total is the partition sum restricted to nothing —
        // normalising by it yields probabilities.
        let z: f64 = values.iter().sum();
        if z > 0.0 && z.is_finite() {
            for x in values.iter_mut() {
                *x /= z;
            }
        } else {
            values.iter_mut().for_each(|x| *x = 0.0);
        }
        values
    }
}

/// Sums `attr` out of the product of the factors that mention it, leaving
/// all other factors untouched.  `width` is raised to the intermediate
/// scope's size (eliminated variable included).
fn eliminate(schema: &Schema, factors: Vec<Factor>, attr: usize, width: &mut usize) -> Vec<Factor> {
    let (touching, mut rest): (Vec<Factor>, Vec<Factor>) =
        factors.into_iter().partition(|f| f.vars.contains(attr));
    if touching.is_empty() {
        // Nothing mentions the variable: summing it out multiplies the
        // overall weight by its cardinality.
        let card = schema.cardinality(attr).expect("attr in schema") as f64;
        rest.push(Factor::scalar(card));
        return rest;
    }
    // Scope of the product, minus the eliminated variable.
    let joint_vars = touching.iter().fold(VarSet::empty(), |acc, f| acc.union(f.vars));
    *width = (*width).max(joint_vars.len());
    let out_vars = joint_vars.without(attr);
    let out_members: Vec<usize> = out_vars.iter().collect();
    let out_cards: Vec<usize> =
        out_members.iter().map(|&a| schema.cardinality(a).expect("attr in schema")).collect();
    let out_size: usize = out_cards.iter().product::<usize>().max(1);
    let attr_card = schema.cardinality(attr).expect("attr in schema");

    // Per-factor probes: one stride per surviving member (0 when the factor
    // does not mention it) plus the eliminated variable's stride, so the
    // inner loop is pure index arithmetic — no per-value allocation.
    let probes: Vec<(Vec<usize>, usize)> = touching
        .iter()
        .map(|f| {
            let f_strides = strides_of(&f.cards);
            let member_strides: Vec<usize> = out_members
                .iter()
                .map(|&m| f.vars.rank_of(m).map_or(0, |rank| f_strides[rank]))
                .collect();
            let attr_stride = f_strides[f.vars.rank_of(attr).expect("touching factor has attr")];
            (member_strides, attr_stride)
        })
        .collect();

    let mut out_values = vec![0.0; out_size];
    let mut digits = vec![0usize; out_members.len()];
    for out_value in out_values.iter_mut() {
        let mut sum = 0.0;
        for v in 0..attr_card {
            let mut prod = 1.0;
            for (f, (member_strides, attr_stride)) in touching.iter().zip(&probes) {
                let mut idx = v * attr_stride;
                for (d, s) in digits.iter().zip(member_strides) {
                    idx += d * s;
                }
                prod *= f.values[idx];
            }
            sum += prod;
        }
        *out_value = sum;
        advance(&mut digits, &out_cards);
    }
    rest.push(Factor { vars: out_vars, cards: out_cards, values: out_values });
    rest
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::ConstraintSet;
    use crate::solver::fit;
    use pka_contingency::{Attribute, ContingencyTable};
    use proptest::prelude::*;

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

    fn fitted_model() -> LogLinearModel {
        let t = paper_table();
        let mut constraints = ConstraintSet::first_order_from_table(&t).unwrap();
        constraints.add_from_table(&t, Assignment::from_pairs([(0, 0), (2, 1)])).unwrap();
        constraints.add_from_table(&t, Assignment::from_pairs([(0, 0), (1, 0)])).unwrap();
        fit(&constraints).unwrap().0
    }

    #[test]
    fn partition_of_normalised_model_is_one() {
        let model = fitted_model();
        let graph = FactorGraph::from_model(&model);
        assert!((graph.partition() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn elimination_agrees_with_dense_marginals() {
        let model = fitted_model();
        let graph = FactorGraph::from_model(&model);
        let queries = vec![
            Assignment::single(0, 0),
            Assignment::single(1, 1),
            Assignment::from_pairs([(0, 0), (2, 1)]),
            Assignment::from_pairs([(1, 0), (2, 0)]),
            Assignment::from_pairs([(0, 2), (1, 1), (2, 0)]),
            Assignment::empty(),
        ];
        for q in queries {
            let dense = model.probability(&q);
            let eliminated = graph.probability(&q);
            assert!(
                (dense - eliminated).abs() < 1e-9,
                "query {q:?}: dense {dense} vs eliminated {eliminated}"
            );
        }
        // Evaluations ran real eliminations, so the width gauge moved.
        assert!(graph.elimination_width_max() >= 1);
    }

    #[test]
    fn uniform_model_weights() {
        let schema = Schema::uniform(&[3, 2, 4]).unwrap().into_shared();
        let model = LogLinearModel::uniform(Arc::clone(&schema));
        let graph = FactorGraph::from_model(&model);
        assert!((graph.partition() - 1.0).abs() < 1e-12);
        assert!((graph.probability(&Assignment::single(2, 3)) - 0.25).abs() < 1e-12);
        assert!(
            (graph.probability(&Assignment::from_pairs([(0, 0), (1, 1)])) - 1.0 / 6.0).abs()
                < 1e-12
        );
    }

    #[test]
    fn conditional_via_weights_matches_model() {
        let model = fitted_model();
        let graph = FactorGraph::from_model(&model);
        let target = Assignment::single(1, 0);
        let given = Assignment::from_pairs([(0, 0), (2, 1)]);
        let joint = target.merge(&given).unwrap();
        let via_graph = graph.weight(&joint) / graph.weight(&given);
        let via_model = model.probability(&joint) / model.probability(&given);
        assert!((via_graph - via_model).abs() < 1e-9);
    }

    #[test]
    fn marginal_tables_match_dense_joint() {
        let model = fitted_model();
        let graph = FactorGraph::from_model(&model);
        let schema = model.shared_schema();
        let joint = model.to_joint();
        for bits in 0..(1u32 << schema.len()) {
            let vars = VarSet::from_bits(bits);
            let table = graph.marginal(vars);
            assert_eq!(table.len(), schema.cell_count_of(vars).max(1));
            for (values, p) in schema.configurations(vars).zip(&table) {
                let a = Assignment::new(vars, values.clone());
                let dense = joint.probability(&a);
                assert!(
                    (dense - p).abs() < 1e-9,
                    "marginal {vars} at {values:?}: dense {dense} vs factored {p}"
                );
            }
        }
    }

    #[test]
    fn min_fill_order_eliminates_isolated_vars_first_and_keeps_width_low() {
        // A chain 0–1, 1–2, 2–3 plus an isolated variable 4: min-fill
        // eliminates endpoints/isolates before chain interiors, and the
        // induced width of a chain is 1 (intermediate scopes of ≤ 2 vars).
        let scopes = vec![
            VarSet::from_indices([0, 1]),
            VarSet::from_indices([1, 2]),
            VarSet::from_indices([2, 3]),
        ];
        let order = elimination_order(5, &scopes, VarSet::from_indices([0, 1, 2, 3, 4]));
        assert_eq!(order.len(), 5);
        // Isolated 4 (degree 0) comes first; every chain variable has fill 0
        // from an endpoint inwards, so 0 precedes 1 and the order never
        // eliminates an interior before one of its remaining neighbours.
        assert_eq!(order[0], 4);
        assert!(order.iter().position(|&v| v == 0) < order.iter().position(|&v| v == 1));

        // On a real chain model the tracked width stays ≤ 2.
        let schema = Schema::uniform(&[2, 2, 2, 2, 2]).unwrap().into_shared();
        let mut factors = Vec::new();
        for (i, pair) in [(0, 1), (1, 2), (2, 3)].iter().enumerate() {
            factors.push((Assignment::from_pairs([(pair.0, 0), (pair.1, 0)]), 1.5 + i as f64));
        }
        let mut model = LogLinearModel::from_factors(schema, 1.0, factors).unwrap();
        model.normalize().unwrap();
        let graph = FactorGraph::from_model(&model);
        let _ = graph.partition();
        assert!(
            graph.elimination_width_max() <= 2,
            "chain width {}",
            graph.elimination_width_max()
        );
    }

    #[test]
    fn in_place_updates_track_the_model() {
        let mut model = fitted_model();
        let mut graph = FactorGraph::from_model(&model);
        let _ = graph.partition(); // populate the cache, then invalidate it
        model.scale_factor(0, 1.75);
        graph.set_factor_value(0, model.factors()[0].1);
        model.scale_a0(0.5);
        graph.set_a0(model.a0());
        let fresh = FactorGraph::from_model(&model);
        let probe = Assignment::from_pairs([(0, 0), (1, 0)]);
        assert_eq!(graph.weight(&probe).to_bits(), fresh.weight(&probe).to_bits());
        assert!((graph.partition() - fresh.partition()).abs() < 1e-15);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_elimination_matches_dense_for_random_factors(
            counts in proptest::collection::vec(1u64..25, 12),
            cell in 0usize..12,
            mask in any::<u32>(),
        ) {
            let schema = Schema::uniform(&[3, 2, 2]).unwrap().into_shared();
            let t = ContingencyTable::from_counts(Arc::clone(&schema), counts).unwrap();
            let mut constraints = ConstraintSet::first_order_from_table(&t).unwrap();
            let cell_values = schema.cell_values(cell);
            let pair = Assignment::project(VarSet::from_indices([0, 2]), &cell_values);
            constraints.add_from_table(&t, pair).unwrap();
            let (model, _) = fit(&constraints).unwrap();
            let graph = FactorGraph::from_model(&model);
            // Random query assignment derived from the mask.
            let vars = VarSet::from_bits(mask).intersection(schema.all_vars());
            let query = Assignment::project(vars, &schema.cell_values(cell));
            prop_assert!((graph.probability(&query) - model.probability(&query)).abs() < 1e-8);
            // The full marginal table over the same varset agrees cell by cell.
            let table = graph.marginal(vars);
            for (values, p) in schema.configurations(vars).zip(&table) {
                let a = Assignment::new(vars, values.clone());
                prop_assert!((model.to_joint().probability(&a) - p).abs() < 1e-8);
            }
        }
    }
}
