//! The questionnaire: an ordered collection of attributes.

use crate::attribute::Attribute;
use crate::config::Assignment;
use crate::error::ContingencyError;
use crate::varset::{VarSet, MAX_VARS};
use crate::Result;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Largest dense table the crate will build (number of cells).
///
/// The memo's examples are tiny (12 cells); the synthetic sweeps in the
/// benchmark harness stay well under this bound.  The limit exists so a typo
/// in a schema produces an error instead of an allocation failure.
pub const MAX_CELLS: u128 = 1 << 28;

/// An ordered set of categorical [`Attribute`]s.
///
/// The schema fixes the meaning of attribute indices (`0, 1, 2, …` for the
/// memo's `A, B, C, …`) and of the mixed-radix cell indexing used by
/// [`ContingencyTable`](crate::ContingencyTable).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Schema {
    attributes: Vec<Attribute>,
    /// Stride of each attribute in the dense cell index (last attribute
    /// varies fastest, mirroring the memo's `i, j, k` nesting in Figure 3).
    strides: Vec<usize>,
    cells: usize,
}

/// Deserialisation rebuilds the schema through [`Schema::new`] from the
/// attributes alone: `strides` and `cells` are *derived* state, and
/// trusting them from the payload would let a forged document smuggle in
/// an index layout inconsistent with the attributes (out-of-bounds dense
/// indices, or every cell aliased onto one slot).
impl Deserialize for Schema {
    fn deserialize(value: &serde::Value) -> std::result::Result<Self, serde::Error> {
        let attributes: Vec<Attribute> = serde::de_field(value, "attributes")?;
        Schema::new(attributes).map_err(|e| serde::Error::custom(e.to_string()))
    }
}

impl Schema {
    /// Builds a schema from attributes, validating names and sizes.
    pub fn new(attributes: Vec<Attribute>) -> Result<Self> {
        if attributes.is_empty() {
            return Err(ContingencyError::EmptySchema);
        }
        if attributes.len() > MAX_VARS {
            return Err(ContingencyError::TooManyAttributes {
                count: attributes.len(),
                max: MAX_VARS,
            });
        }
        for (i, a) in attributes.iter().enumerate() {
            if a.cardinality() == 0 {
                return Err(ContingencyError::EmptySchema);
            }
            if attributes[..i].iter().any(|b| b.name() == a.name()) {
                return Err(ContingencyError::DuplicateName { name: a.name().to_string() });
            }
            if let Some(v) = a.has_duplicate_values() {
                return Err(ContingencyError::DuplicateName {
                    name: format!("{}.{}", a.name(), v),
                });
            }
        }
        let mut cells: u128 = 1;
        for a in &attributes {
            cells = cells.saturating_mul(a.cardinality() as u128);
        }
        if cells > MAX_CELLS {
            return Err(ContingencyError::TableTooLarge { cells, max: MAX_CELLS });
        }
        let cells = cells as usize;
        // Row-major strides with the last attribute varying fastest.
        let mut strides = vec![1usize; attributes.len()];
        for i in (0..attributes.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * attributes[i + 1].cardinality();
        }
        Ok(Self { attributes, strides, cells })
    }

    /// Convenience constructor used in tests and benchmarks: `n` anonymous
    /// attributes with the given cardinalities.
    pub fn uniform(cardinalities: &[usize]) -> Result<Self> {
        let attributes = cardinalities
            .iter()
            .enumerate()
            .map(|(i, &k)| {
                Attribute::new(
                    format!("attr{i}"),
                    (0..k).map(|v| format!("v{v}")).collect::<Vec<_>>(),
                )
            })
            .collect();
        Self::new(attributes)
    }

    /// Number of attributes (the memo's `R`).
    pub fn len(&self) -> usize {
        self.attributes.len()
    }

    /// True if the schema holds no attributes (never true for a constructed
    /// schema; present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.attributes.is_empty()
    }

    /// The attributes in index order.
    pub fn attributes(&self) -> &[Attribute] {
        &self.attributes
    }

    /// The attribute at `index`.
    pub fn attribute(&self, index: usize) -> Result<&Attribute> {
        self.attributes
            .get(index)
            .ok_or(ContingencyError::AttributeIndexOutOfRange { index, len: self.attributes.len() })
    }

    /// Index of the attribute with the given name.
    pub fn attribute_index(&self, name: &str) -> Result<usize> {
        self.attributes
            .iter()
            .position(|a| a.name() == name)
            .ok_or_else(|| ContingencyError::UnknownAttribute { name: name.to_string() })
    }

    /// Cardinality of the attribute at `index`.
    pub fn cardinality(&self, index: usize) -> Result<usize> {
        Ok(self.attribute(index)?.cardinality())
    }

    /// Cardinalities of all attributes in index order.
    pub fn cardinalities(&self) -> Vec<usize> {
        self.attributes.iter().map(Attribute::cardinality).collect()
    }

    /// Total number of cells in the full contingency table
    /// (`I · J · K · …`).
    pub fn cell_count(&self) -> usize {
        self.cells
    }

    /// Number of cells in the marginal table over the given variable set,
    /// i.e. the product of the members' cardinalities.
    pub fn cell_count_of(&self, vars: VarSet) -> usize {
        vars.iter().map(|i| self.attributes[i].cardinality()).product()
    }

    /// The set of all attribute indices.
    pub fn all_vars(&self) -> VarSet {
        VarSet::full(self.attributes.len())
    }

    /// Dense cell index of a full value assignment (one value index per
    /// attribute, in attribute order).
    ///
    /// # Panics
    /// Panics if `values` has the wrong length or any value index is out of
    /// range; use [`Schema::checked_cell_index`] for fallible indexing.
    pub fn cell_index(&self, values: &[usize]) -> usize {
        debug_assert_eq!(values.len(), self.attributes.len());
        let mut idx = 0usize;
        for (i, &v) in values.iter().enumerate() {
            debug_assert!(v < self.attributes[i].cardinality());
            idx += v * self.strides[i];
        }
        idx
    }

    /// Fallible version of [`Schema::cell_index`].
    pub fn checked_cell_index(&self, values: &[usize]) -> Result<usize> {
        if values.len() != self.attributes.len() {
            return Err(ContingencyError::SampleArity {
                got: values.len(),
                expected: self.attributes.len(),
            });
        }
        let mut idx = 0usize;
        for (i, &v) in values.iter().enumerate() {
            let card = self.attributes[i].cardinality();
            if v >= card {
                return Err(ContingencyError::ValueIndexOutOfRange {
                    attribute: i,
                    value: v,
                    cardinality: card,
                });
            }
            idx += v * self.strides[i];
        }
        Ok(idx)
    }

    /// The value one attribute takes in the cell at `index` — the
    /// single-attribute inverse of [`Schema::cell_index`], without the
    /// allocation of [`Schema::cell_values`].
    pub fn cell_value(&self, index: usize, attribute: usize) -> usize {
        (index / self.strides[attribute]) % self.attributes[attribute].cardinality()
    }

    /// Inverse of [`Schema::cell_index`]: the full value assignment of a
    /// dense cell index.
    pub fn cell_values(&self, mut index: usize) -> Vec<usize> {
        debug_assert!(index < self.cells);
        let mut values = vec![0usize; self.attributes.len()];
        for (value, &stride) in values.iter_mut().zip(&self.strides) {
            *value = index / stride;
            index %= stride;
        }
        values
    }

    /// Iterates over every full value assignment in dense-index order.
    pub fn cells(&self) -> CellIter<'_> {
        CellIter { schema: self, next: 0 }
    }

    /// Iterates over every partial value assignment on the attributes in
    /// `vars`, in lexicographic order of the member values.
    pub fn configurations(&self, vars: VarSet) -> ConfigIter<'_> {
        ConfigIter { schema: self, vars, next: 0, total: self.cell_count_of(vars) }
    }

    /// Position of a partial assignment's `values` (one per member of `vars`,
    /// ascending) in [`Schema::configurations`]`(vars)` — the row-major index
    /// marginal tables over `vars` are laid out by.
    pub fn config_index(&self, vars: VarSet, values: &[usize]) -> usize {
        vars.iter()
            .zip(values)
            .fold(0, |index, (attr, &v)| index * self.attributes[attr].cardinality() + v)
    }

    /// The values of the `index`-th configuration of `vars` — the inverse
    /// of [`Schema::config_index`].
    pub fn config_values(&self, vars: VarSet, index: usize) -> Vec<usize> {
        let mut values: Vec<usize> =
            vars.iter().map(|attr| self.attributes[attr].cardinality()).collect();
        let mut rem = index;
        // Last member varies fastest, mirroring full-cell ordering.
        for slot in values.iter_mut().rev() {
            let card = *slot;
            *slot = rem % card;
            rem /= card;
        }
        values
    }

    /// Row-major dense-index strides, one per attribute (the last attribute
    /// varies fastest): `cell_index(values) = Σ values[i] · strides[i]`.
    /// Exposed so dense-vector consumers can enumerate marginal cells
    /// without materialising each cell's value tuple.
    pub fn strides(&self) -> &[usize] {
        &self.strides
    }

    /// Iterates the dense indices of the cells a partial assignment covers,
    /// in ascending order — the same cells `assignment.matches` selects from
    /// a full scan, enumerated by stride arithmetic in
    /// `O(matching cells)` instead of `O(all cells × order)` and without
    /// materialising any value tuple.
    ///
    /// Assignments mentioning an unknown attribute or an out-of-range value
    /// cover no cells and yield an empty iterator, mirroring `matches`.
    pub fn matching_cells(&self, assignment: &Assignment) -> MatchingCells {
        let mut base = 0usize;
        for (attr, value) in assignment.pairs() {
            let Some(a) = self.attributes.get(attr) else {
                return MatchingCells { free: Vec::new(), counters: Vec::new(), next: None };
            };
            if value >= a.cardinality() {
                return MatchingCells { free: Vec::new(), counters: Vec::new(), next: None };
            }
            base += value * self.strides[attr];
        }
        let mut free = Vec::with_capacity(self.attributes.len() - assignment.order());
        for (attr, a) in self.attributes.iter().enumerate() {
            if assignment.value_of(attr).is_none() {
                free.push((a.cardinality(), self.strides[attr]));
            }
        }
        let counters = vec![0usize; free.len()];
        MatchingCells { free, counters, next: Some(base) }
    }

    /// Wraps the schema in an [`Arc`] for cheap sharing between tables,
    /// models and knowledge bases.
    pub fn into_shared(self) -> Arc<Schema> {
        Arc::new(self)
    }

    /// Human-readable label for a partial assignment, e.g.
    /// `smoking=smoker, cancer=yes`.
    pub fn describe(&self, vars: VarSet, values: &[usize]) -> String {
        let mut parts = Vec::with_capacity(values.len());
        for (rank, attr) in vars.iter().enumerate() {
            let a = &self.attributes[attr];
            let v = values.get(rank).copied().unwrap_or(0);
            let vn = a.value_name(v).unwrap_or("?");
            parts.push(format!("{}={}", a.name(), vn));
        }
        parts.join(", ")
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "schema with {} attributes, {} cells:", self.len(), self.cell_count())?;
        for a in &self.attributes {
            writeln!(f, "  {a}")?;
        }
        Ok(())
    }
}

/// Iterator over every full cell assignment of a schema.
#[derive(Debug)]
pub struct CellIter<'a> {
    schema: &'a Schema,
    next: usize,
}

impl Iterator for CellIter<'_> {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        if self.next >= self.schema.cell_count() {
            return None;
        }
        let v = self.schema.cell_values(self.next);
        self.next += 1;
        Some(v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.schema.cell_count() - self.next;
        (n, Some(n))
    }
}

impl ExactSizeIterator for CellIter<'_> {}

/// Iterator over every partial assignment on a [`VarSet`].
#[derive(Debug)]
pub struct ConfigIter<'a> {
    schema: &'a Schema,
    vars: VarSet,
    next: usize,
    total: usize,
}

impl Iterator for ConfigIter<'_> {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        if self.next >= self.total {
            return None;
        }
        let values = self.schema.config_values(self.vars, self.next);
        self.next += 1;
        Some(values)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.total - self.next;
        (n, Some(n))
    }
}

impl ExactSizeIterator for ConfigIter<'_> {}

/// Iterator over the dense indices of the cells covered by a partial
/// assignment (see [`Schema::matching_cells`]): an odometer over the free
/// (unassigned) attributes, last attribute fastest, so indices come out in
/// ascending order.
#[derive(Debug)]
pub struct MatchingCells {
    /// `(cardinality, stride)` per free attribute, in attribute order.
    free: Vec<(usize, usize)>,
    /// Current odometer digit per free attribute.
    counters: Vec<usize>,
    /// The next index to yield, or `None` once exhausted.
    next: Option<usize>,
}

impl Iterator for MatchingCells {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let current = self.next?;
        let mut index = current;
        let mut pos = self.free.len();
        loop {
            if pos == 0 {
                self.next = None;
                return Some(current);
            }
            pos -= 1;
            let (card, stride) = self.free[pos];
            self.counters[pos] += 1;
            if self.counters[pos] < card {
                self.next = Some(index + stride);
                return Some(current);
            }
            self.counters[pos] = 0;
            index -= (card - 1) * stride;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn smoking_schema() -> Schema {
        Schema::new(vec![
            Attribute::new("smoking", ["smoker", "non-smoker", "married-to-smoker"]),
            Attribute::yes_no("cancer"),
            Attribute::yes_no("family-history"),
        ])
        .unwrap()
    }

    #[test]
    fn deserialisation_ignores_forged_derived_state() {
        // Serialise, then tamper with the derived fields: deserialisation
        // must rebuild strides/cells from the attributes, not trust them.
        let schema = smoking_schema();
        let mut value = Serialize::serialize(&schema);
        let serde::Value::Object(ref mut fields) = value else { panic!("schema is an object") };
        for (key, v) in fields.iter_mut() {
            if key == "strides" {
                *v = serde::Value::Array(vec![
                    serde::Value::U64(100),
                    serde::Value::U64(0),
                    serde::Value::U64(0),
                ]);
            }
            if key == "cells" {
                *v = serde::Value::U64(1);
            }
        }
        let restored = Schema::deserialize(&value).unwrap();
        assert_eq!(restored, schema, "derived state must be recomputed, not copied");
        assert_eq!(restored.strides(), schema.strides());
        assert_eq!(restored.cell_count(), 12);
        // Invalid attributes are rejected through Schema::new's checks.
        let dup = serde::Value::Object(vec![(
            "attributes".to_string(),
            Serialize::serialize(&vec![Attribute::yes_no("a"), Attribute::yes_no("a")]),
        )]);
        assert!(Schema::deserialize(&dup).is_err());
        assert!(Schema::deserialize(&serde::Value::Object(vec![])).is_err());
    }

    #[test]
    fn rejects_empty_schema() {
        assert_eq!(Schema::new(vec![]), Err(ContingencyError::EmptySchema));
        assert_eq!(
            Schema::new(vec![Attribute::new("a", Vec::<String>::new())]),
            Err(ContingencyError::EmptySchema)
        );
    }

    #[test]
    fn rejects_duplicate_attribute_names() {
        let e = Schema::new(vec![Attribute::yes_no("a"), Attribute::yes_no("a")]);
        assert!(matches!(e, Err(ContingencyError::DuplicateName { .. })));
    }

    #[test]
    fn rejects_duplicate_value_names() {
        let e = Schema::new(vec![Attribute::new("a", ["x", "x"])]);
        assert!(matches!(e, Err(ContingencyError::DuplicateName { .. })));
    }

    #[test]
    fn rejects_oversized_tables() {
        // 2^40 cells is far beyond MAX_CELLS.
        let attrs: Vec<Attribute> =
            (0..20).map(|i| Attribute::new(format!("a{i}"), ["0", "1", "2", "3"])).collect();
        assert!(matches!(Schema::new(attrs), Err(ContingencyError::TableTooLarge { .. })));
    }

    #[test]
    fn cell_count_matches_paper_example() {
        let s = smoking_schema();
        assert_eq!(s.len(), 3);
        assert_eq!(s.cell_count(), 12);
        assert_eq!(s.cardinalities(), vec![3, 2, 2]);
    }

    #[test]
    fn cell_index_roundtrip() {
        let s = smoking_schema();
        for idx in 0..s.cell_count() {
            let values = s.cell_values(idx);
            assert_eq!(s.cell_index(&values), idx);
            assert_eq!(s.checked_cell_index(&values).unwrap(), idx);
        }
    }

    #[test]
    fn checked_cell_index_errors() {
        let s = smoking_schema();
        assert!(matches!(s.checked_cell_index(&[0, 0]), Err(ContingencyError::SampleArity { .. })));
        assert!(matches!(
            s.checked_cell_index(&[3, 0, 0]),
            Err(ContingencyError::ValueIndexOutOfRange { .. })
        ));
    }

    #[test]
    fn attribute_lookup_by_name() {
        let s = smoking_schema();
        assert_eq!(s.attribute_index("cancer").unwrap(), 1);
        assert!(s.attribute_index("age").is_err());
        assert_eq!(s.attribute(0).unwrap().name(), "smoking");
        assert!(s.attribute(7).is_err());
    }

    #[test]
    fn cells_iterator_covers_all_cells_once() {
        let s = smoking_schema();
        let cells: Vec<Vec<usize>> = s.cells().collect();
        assert_eq!(cells.len(), 12);
        let mut seen: Vec<usize> = cells.iter().map(|c| s.cell_index(c)).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn configurations_over_subset() {
        let s = smoking_schema();
        let vars = VarSet::from_indices([0, 2]); // smoking × family-history
        let configs: Vec<Vec<usize>> = s.configurations(vars).collect();
        assert_eq!(configs.len(), 6);
        assert_eq!(configs[0], vec![0, 0]);
        assert_eq!(configs[5], vec![2, 1]);
        assert_eq!(s.cell_count_of(vars), 6);
    }

    #[test]
    fn describe_uses_names() {
        let s = smoking_schema();
        let d = s.describe(VarSet::from_indices([0, 1]), &[0, 1]);
        assert_eq!(d, "smoking=smoker, cancer=no");
    }

    #[test]
    fn uniform_builder() {
        let s = Schema::uniform(&[2, 3, 4]).unwrap();
        assert_eq!(s.cell_count(), 24);
        assert_eq!(s.attribute(1).unwrap().cardinality(), 3);
    }

    #[test]
    fn matching_cells_handles_edges() {
        let s = smoking_schema();
        // The empty assignment covers every cell, in dense order.
        let all: Vec<usize> = s.matching_cells(&Assignment::empty()).collect();
        assert_eq!(all, (0..12).collect::<Vec<_>>());
        // A full assignment covers exactly its own cell.
        let full = Assignment::from_pairs([(0, 2), (1, 1), (2, 0)]);
        assert_eq!(s.matching_cells(&full).collect::<Vec<_>>(), vec![s.cell_index(&[2, 1, 0])]);
        // Out-of-schema attributes or values cover nothing.
        assert_eq!(s.matching_cells(&Assignment::single(9, 0)).count(), 0);
        assert_eq!(s.matching_cells(&Assignment::single(0, 99)).count(), 0);
    }

    proptest! {
        #[test]
        fn prop_matching_cells_equals_full_scan(
            cards in proptest::collection::vec(1usize..4, 1..5),
            mask in any::<u32>(),
            seed in any::<u64>(),
        ) {
            // The odometer enumeration must agree with the reference scan
            // (filter every cell through `matches`) for any assignment.
            let s = Schema::uniform(&cards).unwrap();
            let vars = VarSet::from_bits(mask).intersection(s.all_vars());
            let cell = (seed as usize) % s.cell_count();
            let a = Assignment::project(vars, &s.cell_values(cell));
            let fast: Vec<usize> = s.matching_cells(&a).collect();
            let scan: Vec<usize> = (0..s.cell_count())
                .filter(|&i| a.matches(&s.cell_values(i)))
                .collect();
            prop_assert_eq!(fast, scan);
        }

        #[test]
        fn prop_cell_index_bijective(cards in proptest::collection::vec(1usize..5, 1..5)) {
            let s = Schema::uniform(&cards).unwrap();
            let mut seen = vec![false; s.cell_count()];
            for values in s.cells() {
                let idx = s.cell_index(&values);
                prop_assert!(!seen[idx]);
                seen[idx] = true;
                prop_assert_eq!(s.cell_values(idx), values);
            }
            prop_assert!(seen.into_iter().all(|b| b));
        }

        #[test]
        fn prop_configurations_count(cards in proptest::collection::vec(1usize..4, 1..5), mask in any::<u32>()) {
            let s = Schema::uniform(&cards).unwrap();
            let vars = VarSet::from_bits(mask).intersection(s.all_vars());
            let configs: Vec<_> = s.configurations(vars).collect();
            prop_assert_eq!(configs.len(), s.cell_count_of(vars));
            for (index, values) in configs.iter().enumerate() {
                prop_assert_eq!(s.config_index(vars, values), index);
            }
        }
    }
}
