//! Partial value assignments — the memo's `N^{AC}_{ik}`-style cell labels.

use crate::schema::Schema;
use crate::varset::VarSet;
use crate::{ContingencyError, Result};
use serde::{Deserialize, Serialize};

/// A value assignment on a subset of the attributes.
///
/// `Assignment { vars, values }` pairs a [`VarSet`] with one value index per
/// member, stored in ascending order of the member indices.  It names one
/// cell of a marginal table: the memo's `N^{AC}_{12}` is
/// `Assignment::new({0,2}, [0, 1])` for attributes `A = 0`, `C = 2`.
///
/// The *order* of an assignment is the number of attributes it mentions —
/// the same notion of order the acquisition procedure iterates over
/// (first-order marginals, second-order cells, …).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Assignment {
    vars: VarSet,
    values: Vec<usize>,
}

impl Assignment {
    /// Creates an assignment.  `values[k]` is the value index of the k-th
    /// smallest member of `vars`.
    ///
    /// # Panics
    /// Panics if `values.len() != vars.len()`; use
    /// [`Assignment::checked_new`] for fallible construction.
    pub fn new(vars: VarSet, values: Vec<usize>) -> Self {
        assert_eq!(
            values.len(),
            vars.len(),
            "assignment must supply exactly one value per variable"
        );
        Self { vars, values }
    }

    /// Fallible constructor that also validates value ranges against a
    /// schema.
    pub fn checked_new(schema: &Schema, vars: VarSet, values: Vec<usize>) -> Result<Self> {
        if values.len() != vars.len() {
            return Err(ContingencyError::InvalidAssignment {
                reason: format!("{} variables but {} values", vars.len(), values.len()),
            });
        }
        for (rank, attr) in vars.iter().enumerate() {
            let card = schema.cardinality(attr)?;
            if values[rank] >= card {
                return Err(ContingencyError::ValueIndexOutOfRange {
                    attribute: attr,
                    value: values[rank],
                    cardinality: card,
                });
            }
        }
        Ok(Self { vars, values })
    }

    /// The empty assignment (order 0); it matches every cell and names the
    /// normalisation constraint `Σ p = 1`.
    pub fn empty() -> Self {
        Self { vars: VarSet::empty(), values: Vec::new() }
    }

    /// A first-order assignment `attribute = value`.
    pub fn single(attribute: usize, value: usize) -> Self {
        Self { vars: VarSet::singleton(attribute), values: vec![value] }
    }

    /// Builds an assignment from `(attribute, value)` pairs in any order.
    pub fn from_pairs<I: IntoIterator<Item = (usize, usize)>>(pairs: I) -> Self {
        let mut pairs: Vec<(usize, usize)> = pairs.into_iter().collect();
        pairs.sort_unstable_by_key(|&(a, _)| a);
        pairs.dedup_by_key(|&mut (a, _)| a);
        let vars = VarSet::from_indices(pairs.iter().map(|&(a, _)| a));
        let values = pairs.into_iter().map(|(_, v)| v).collect();
        Self { vars, values }
    }

    /// Builds an assignment by looking up attribute and value names in a
    /// schema.  The names may be borrowed or owned (`&str`, `String`,
    /// `Cow<str>`); the assignment's one allocation is its value vector.
    pub fn from_names<A: AsRef<str>, V: AsRef<str>>(
        schema: &Schema,
        pairs: &[(A, V)],
    ) -> Result<Self> {
        let mut resolved = Vec::with_capacity(pairs.len());
        for (attr_name, value_name) in pairs {
            let (attr_name, value_name) = (attr_name.as_ref(), value_name.as_ref());
            let attr = schema.attribute_index(attr_name)?;
            let value = schema.attribute(attr)?.value_index(value_name).ok_or_else(|| {
                ContingencyError::UnknownValue {
                    attribute: attr_name.to_string(),
                    value: value_name.to_string(),
                }
            })?;
            resolved.push((attr, value));
        }
        Ok(Self::from_pairs(resolved))
    }

    /// Projects a full cell assignment (one value per attribute) onto `vars`.
    pub fn project(vars: VarSet, full_values: &[usize]) -> Self {
        let values = vars.iter().map(|i| full_values[i]).collect();
        Self { vars, values }
    }

    /// The variables this assignment mentions.
    pub fn vars(&self) -> VarSet {
        self.vars
    }

    /// The value indices, aligned with `vars().iter()`.
    pub fn values(&self) -> &[usize] {
        &self.values
    }

    /// The order (number of attributes mentioned).
    pub fn order(&self) -> usize {
        self.vars.len()
    }

    /// The value assigned to `attribute`, if it is mentioned.
    pub fn value_of(&self, attribute: usize) -> Option<usize> {
        self.vars.rank_of(attribute).map(|rank| self.values[rank])
    }

    /// Iterates over `(attribute, value)` pairs in ascending attribute order.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.vars.iter().zip(self.values.iter().copied())
    }

    /// True if a full cell assignment agrees with this partial assignment on
    /// every mentioned attribute (i.e. the cell lies "inside" this marginal
    /// cell).
    pub fn matches(&self, full_values: &[usize]) -> bool {
        self.pairs().all(|(attr, value)| full_values.get(attr) == Some(&value))
    }

    /// True if `other` assigns the same values on every attribute both
    /// mention, i.e. the two constraints are simultaneously satisfiable by
    /// some cell.
    pub fn compatible_with(&self, other: &Assignment) -> bool {
        let shared = self.vars.intersection(other.vars);
        shared.iter().all(|attr| self.value_of(attr) == other.value_of(attr))
    }

    /// Restricts the assignment to `vars ∩ subset`.
    pub fn restrict(&self, subset: VarSet) -> Assignment {
        Assignment::from_pairs(self.pairs().filter(|&(a, _)| subset.contains(a)))
    }

    /// Extends the assignment with one more `(attribute, value)` pair.  If
    /// the attribute is already mentioned its value is replaced.
    pub fn with(&self, attribute: usize, value: usize) -> Assignment {
        let mut pairs: Vec<(usize, usize)> =
            self.pairs().filter(|&(a, _)| a != attribute).collect();
        pairs.push((attribute, value));
        Assignment::from_pairs(pairs)
    }

    /// Merges two assignments over disjoint or agreeing variable sets.
    /// Returns `None` if they disagree on a shared attribute.
    pub fn merge(&self, other: &Assignment) -> Option<Assignment> {
        if !self.compatible_with(other) {
            return None;
        }
        Some(Assignment::from_pairs(self.pairs().chain(other.pairs())))
    }

    /// Human-readable description using the schema's attribute/value names.
    pub fn describe(&self, schema: &Schema) -> String {
        if self.vars.is_empty() {
            return "(unconditional)".to_string();
        }
        schema.describe(self.vars, &self.values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::Attribute;
    use proptest::prelude::*;

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::new("smoking", ["smoker", "non-smoker", "married-to-smoker"]),
            Attribute::yes_no("cancer"),
            Attribute::yes_no("family-history"),
        ])
        .unwrap()
    }

    #[test]
    fn construction_orders_pairs() {
        let a = Assignment::from_pairs([(2, 1), (0, 2)]);
        assert_eq!(a.vars(), VarSet::from_indices([0, 2]));
        assert_eq!(a.values(), &[2, 1]);
        assert_eq!(a.order(), 2);
        assert_eq!(a.value_of(0), Some(2));
        assert_eq!(a.value_of(2), Some(1));
        assert_eq!(a.value_of(1), None);
    }

    #[test]
    fn checked_new_validates() {
        let s = schema();
        assert!(Assignment::checked_new(&s, VarSet::singleton(1), vec![1]).is_ok());
        assert!(Assignment::checked_new(&s, VarSet::singleton(1), vec![2]).is_err());
        assert!(Assignment::checked_new(&s, VarSet::singleton(1), vec![]).is_err());
    }

    #[test]
    fn from_names_resolves() {
        let s = schema();
        let a = Assignment::from_names(&s, &[("cancer", "yes"), ("smoking", "smoker")]).unwrap();
        assert_eq!(a, Assignment::from_pairs([(0, 0), (1, 0)]));
        assert!(Assignment::from_names(&s, &[("cancer", "maybe")]).is_err());
        assert!(Assignment::from_names(&s, &[("age", "old")]).is_err());
    }

    #[test]
    fn project_and_matches() {
        let full = vec![1, 0, 1];
        let a = Assignment::project(VarSet::from_indices([0, 2]), &full);
        assert_eq!(a.values(), &[1, 1]);
        assert!(a.matches(&full));
        assert!(!a.matches(&[0, 0, 1]));
        assert!(Assignment::empty().matches(&full));
    }

    #[test]
    fn compatibility_and_merge() {
        let a = Assignment::from_pairs([(0, 1), (1, 0)]);
        let b = Assignment::from_pairs([(1, 0), (2, 1)]);
        let c = Assignment::from_pairs([(1, 1)]);
        assert!(a.compatible_with(&b));
        assert!(!a.compatible_with(&c));
        let merged = a.merge(&b).unwrap();
        assert_eq!(merged, Assignment::from_pairs([(0, 1), (1, 0), (2, 1)]));
        assert!(a.merge(&c).is_none());
    }

    #[test]
    fn restrict_and_with() {
        let a = Assignment::from_pairs([(0, 1), (1, 0), (2, 1)]);
        assert_eq!(
            a.restrict(VarSet::from_indices([0, 2])),
            Assignment::from_pairs([(0, 1), (2, 1)])
        );
        assert_eq!(a.restrict(VarSet::empty()), Assignment::empty());
        assert_eq!(a.with(1, 1).value_of(1), Some(1));
        assert_eq!(Assignment::empty().with(3, 2), Assignment::single(3, 2));
    }

    #[test]
    fn describe_uses_schema_names() {
        let s = schema();
        let a = Assignment::from_names(&s, &[("smoking", "smoker"), ("family-history", "yes")])
            .unwrap();
        assert_eq!(a.describe(&s), "smoking=smoker, family-history=yes");
        assert_eq!(Assignment::empty().describe(&s), "(unconditional)");
    }

    #[test]
    #[should_panic]
    fn new_with_wrong_arity_panics() {
        let _ = Assignment::new(VarSet::from_indices([0, 1]), vec![0]);
    }

    proptest! {
        #[test]
        fn prop_project_always_matches_source(
            cards in proptest::collection::vec(1usize..4, 1..5),
            mask in any::<u32>(),
            seed in any::<u64>(),
        ) {
            let s = Schema::uniform(&cards).unwrap();
            let vars = VarSet::from_bits(mask).intersection(s.all_vars());
            // Pick a deterministic pseudo-random cell from the seed.
            let cell = (seed as usize) % s.cell_count();
            let full = s.cell_values(cell);
            let a = Assignment::project(vars, &full);
            prop_assert!(a.matches(&full));
            prop_assert_eq!(a.order(), vars.len());
        }

        #[test]
        fn prop_merge_of_projections_matches(
            cards in proptest::collection::vec(1usize..4, 1..5),
            m1 in any::<u32>(),
            m2 in any::<u32>(),
            seed in any::<u64>(),
        ) {
            let s = Schema::uniform(&cards).unwrap();
            let v1 = VarSet::from_bits(m1).intersection(s.all_vars());
            let v2 = VarSet::from_bits(m2).intersection(s.all_vars());
            let cell = (seed as usize) % s.cell_count();
            let full = s.cell_values(cell);
            let a = Assignment::project(v1, &full);
            let b = Assignment::project(v2, &full);
            // Projections of the same cell are always compatible and merge to
            // the projection onto the union.
            prop_assert!(a.compatible_with(&b));
            prop_assert_eq!(a.merge(&b).unwrap(), Assignment::project(v1.union(v2), &full));
        }
    }
}
