//! Constraints: the "known probabilities" the maximum-entropy distribution
//! must honour.
//!
//! A constraint fixes the probability of one marginal cell — `p^A_i` for a
//! first-order constraint, `p^{AC}_{ik}` for a second-order one, and so on.
//! The memo always constrains **all** first-order marginals (Eq. 48) and
//! adds higher-order cells one at a time as the significance test promotes
//! them.

use crate::error::MaxEntError;
use crate::Result;
use pka_contingency::{Assignment, ContingencyTable, Schema};
use serde::{Deserialize, Serialize, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// A single known probability: `P(assignment) = probability`.
///
/// Decoding goes through [`Constraint::new`], so a decoded constraint's
/// probability is a finite value in `[0, 1]`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Constraint {
    /// The marginal cell being constrained.
    pub assignment: Assignment,
    /// Its target probability.
    pub probability: f64,
}

impl Constraint {
    /// Creates a constraint, validating the probability.
    pub fn new(assignment: Assignment, probability: f64) -> Result<Self> {
        if !(0.0..=1.0).contains(&probability) || !probability.is_finite() {
            return Err(MaxEntError::InvalidProbability {
                value: probability,
                constraint: format!("{assignment:?}"),
            });
        }
        Ok(Self { assignment, probability })
    }

    /// The order of the constraint (number of attributes it mentions).
    pub fn order(&self) -> usize {
        self.assignment.order()
    }
}

impl Deserialize for Constraint {
    fn deserialize(value: &Value) -> std::result::Result<Self, serde::Error> {
        Self::new(serde::de_field(value, "assignment")?, serde::de_field(value, "probability")?)
            .map_err(|e| serde::Error::custom(e.to_string()))
    }
}

/// An ordered collection of constraints over one schema.
///
/// Insertion order is preserved — the solver cycles through constraints in
/// this order, and the acquisition loop's reports list them in the order
/// they were discovered.  The cell index is not serialised: decoding adds
/// each constraint through [`ConstraintSet::add`], which checks it against
/// the schema and indexes it.
#[derive(Debug, Clone, Serialize)]
pub struct ConstraintSet {
    schema: Arc<Schema>,
    constraints: Vec<Constraint>,
    #[serde(skip)]
    index: HashMap<Assignment, usize>,
}

impl ConstraintSet {
    /// Creates an empty constraint set over a schema.
    pub fn new(schema: Arc<Schema>) -> Self {
        Self { schema, constraints: Vec::new(), index: HashMap::new() }
    }

    /// Creates a constraint set holding every first-order marginal
    /// probability of a contingency table (Eq. 48): the starting point of
    /// the acquisition procedure.
    pub fn first_order_from_table(table: &ContingencyTable) -> Result<Self> {
        let schema = table.shared_schema();
        let mut set = Self::new(Arc::clone(&schema));
        for attr in 0..schema.len() {
            for value in 0..schema.cardinality(attr)? {
                let a = Assignment::single(attr, value);
                let p = table.frequency(&a);
                set.add(Constraint::new(a, p)?)?;
            }
        }
        Ok(set)
    }

    /// The schema the constraints refer to.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The schema as a shareable handle.
    pub fn shared_schema(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }

    /// Adds a constraint.  Re-adding the same cell with the same probability
    /// is a no-op; a different probability is an error.
    pub fn add(&mut self, constraint: Constraint) -> Result<()> {
        // Validate the assignment against the schema up front.
        Assignment::checked_new(
            &self.schema,
            constraint.assignment.vars(),
            constraint.assignment.values().to_vec(),
        )?;
        if let Some(&i) = self.index.get(&constraint.assignment) {
            let existing = self.constraints[i].probability;
            if (existing - constraint.probability).abs() > 1e-12 {
                return Err(MaxEntError::ConflictingConstraint {
                    cell: constraint.assignment.describe(&self.schema),
                    existing,
                    new: constraint.probability,
                });
            }
            return Ok(());
        }
        self.index.insert(constraint.assignment.clone(), self.constraints.len());
        self.constraints.push(constraint);
        Ok(())
    }

    /// Adds the empirical probability of a cell taken from a table — the way
    /// the acquisition loop promotes a significant cell to a constraint.
    pub fn add_from_table(
        &mut self,
        table: &ContingencyTable,
        assignment: Assignment,
    ) -> Result<()> {
        let p = table.frequency(&assignment);
        self.add(Constraint::new(assignment, p)?)
    }

    /// Number of constraints.
    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// True if no constraints are present.
    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty()
    }

    /// The constraints in insertion order.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// The target probability registered for a cell, if any.
    pub fn probability_of(&self, assignment: &Assignment) -> Option<f64> {
        self.index.get(assignment).map(|&i| self.constraints[i].probability)
    }

    /// True if the cell is constrained.
    pub fn contains(&self, assignment: &Assignment) -> bool {
        self.index.contains_key(assignment)
    }

    /// The constraints of exactly the given order.
    pub fn of_order(&self, order: usize) -> impl Iterator<Item = &Constraint> {
        self.constraints.iter().filter(move |c| c.order() == order)
    }

    /// The constraints of order two and above (the "discovered" knowledge;
    /// first-order marginals are considered background).
    pub fn higher_order(&self) -> impl Iterator<Item = &Constraint> {
        self.constraints.iter().filter(|c| c.order() >= 2)
    }

    /// The highest constraint order present (0 for an empty set).
    pub fn max_order(&self) -> usize {
        self.constraints.iter().map(Constraint::order).max().unwrap_or(0)
    }

    /// Assignments of all higher-order constraints, in insertion order.
    /// Used as the "known constraints" input of the significance bounds.
    pub fn higher_order_assignments(&self) -> Vec<Assignment> {
        self.higher_order().map(|c| c.assignment.clone()).collect()
    }

    /// Quick feasibility checks that catch the common inconsistencies before
    /// the solver runs:
    ///
    /// * the first-order probabilities of every fully-constrained attribute
    ///   must sum to 1 (within `tol`);
    /// * a higher-order cell must not exceed any of its constrained
    ///   marginals.
    pub fn check_feasibility(&self, tol: f64) -> Result<()> {
        // Per-attribute first-order sums.
        for attr in 0..self.schema.len() {
            let card = self.schema.cardinality(attr)?;
            let mut sum = 0.0;
            let mut count = 0;
            for v in 0..card {
                if let Some(p) = self.probability_of(&Assignment::single(attr, v)) {
                    sum += p;
                    count += 1;
                }
            }
            if count == card && (sum - 1.0).abs() > tol {
                return Err(MaxEntError::InfeasibleConstraints {
                    reason: format!(
                        "first-order probabilities of attribute {} sum to {sum:.6}, not 1",
                        self.schema.attribute(attr)?.name()
                    ),
                });
            }
        }
        // Higher-order cells vs. their constrained marginals.
        for c in self.higher_order() {
            for sub_size in 1..c.order() {
                for sub in c.assignment.vars().subsets_of_size(sub_size) {
                    let projected = c.assignment.restrict(sub);
                    if let Some(marginal_p) = self.probability_of(&projected) {
                        if c.probability > marginal_p + tol {
                            return Err(MaxEntError::InfeasibleConstraints {
                                reason: format!(
                                    "cell {} has probability {:.6} exceeding its marginal {} = {:.6}",
                                    c.assignment.describe(&self.schema),
                                    c.probability,
                                    projected.describe(&self.schema),
                                    marginal_p
                                ),
                            });
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

impl Deserialize for ConstraintSet {
    fn deserialize(value: &Value) -> std::result::Result<Self, serde::Error> {
        let mut set = Self::new(serde::de_field(value, "schema")?);
        let constraints: Vec<Constraint> = serde::de_field(value, "constraints")?;
        constraints
            .into_iter()
            .try_for_each(|c| set.add(c))
            .map_err(|e| serde::Error::custom(e.to_string()))?;
        Ok(set)
    }
}

impl PartialEq for ConstraintSet {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.constraints == other.constraints
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pka_contingency::Attribute;

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
    fn constraint_validation() {
        let a = Assignment::single(0, 0);
        assert!(Constraint::new(a.clone(), 0.5).is_ok());
        assert!(Constraint::new(a.clone(), -0.1).is_err());
        assert!(Constraint::new(a.clone(), 1.5).is_err());
        assert!(Constraint::new(a, f64::NAN).is_err());
    }

    #[test]
    fn first_order_from_table_matches_eq_48() {
        let t = paper_table();
        let set = ConstraintSet::first_order_from_table(&t).unwrap();
        // 3 + 2 + 2 first-order cells.
        assert_eq!(set.len(), 7);
        assert_eq!(set.max_order(), 1);
        let p = set.probability_of(&Assignment::single(0, 0)).unwrap();
        assert!((p - 1290.0 / 3428.0).abs() < 1e-12); // p^A_1 = .376
        let p = set.probability_of(&Assignment::single(1, 0)).unwrap();
        assert!((p - 433.0 / 3428.0).abs() < 1e-12); // p^B_1 = .126
        assert!(set.check_feasibility(1e-9).is_ok());
        assert_eq!(set.higher_order().count(), 0);
    }

    #[test]
    fn add_rejects_conflicts_and_accepts_duplicates() {
        let t = paper_table();
        let mut set = ConstraintSet::first_order_from_table(&t).unwrap();
        let cell = Assignment::from_pairs([(0, 0), (2, 1)]);
        set.add(Constraint::new(cell.clone(), 0.219).unwrap()).unwrap();
        assert_eq!(set.len(), 8);
        // Same probability again: no-op.
        set.add(Constraint::new(cell.clone(), 0.219).unwrap()).unwrap();
        assert_eq!(set.len(), 8);
        // Different probability: conflict.
        let err = set.add(Constraint::new(cell.clone(), 0.3).unwrap());
        assert!(matches!(err, Err(MaxEntError::ConflictingConstraint { .. })));
        assert!(set.contains(&cell));
        assert_eq!(set.higher_order_assignments(), vec![cell]);
    }

    #[test]
    fn add_rejects_out_of_schema_cells() {
        let t = paper_table();
        let mut set = ConstraintSet::new(t.shared_schema());
        let bad = Assignment::single(0, 9);
        assert!(set.add(Constraint::new(bad, 0.1).unwrap()).is_err());
        let bad_attr = Assignment::single(7, 0);
        assert!(set.add(Constraint::new(bad_attr, 0.1).unwrap()).is_err());
    }

    #[test]
    fn add_from_table_uses_empirical_frequency() {
        let t = paper_table();
        let mut set = ConstraintSet::first_order_from_table(&t).unwrap();
        let cell = Assignment::from_pairs([(0, 0), (2, 1)]);
        set.add_from_table(&t, cell.clone()).unwrap();
        let p = set.probability_of(&cell).unwrap();
        assert!((p - 750.0 / 3428.0).abs() < 1e-12); // the memo's 0.219
    }

    #[test]
    fn feasibility_detects_bad_first_order_sums() {
        let t = paper_table();
        let mut set = ConstraintSet::new(t.shared_schema());
        set.add(Constraint::new(Assignment::single(1, 0), 0.7).unwrap()).unwrap();
        set.add(Constraint::new(Assignment::single(1, 1), 0.7).unwrap()).unwrap();
        assert!(matches!(
            set.check_feasibility(1e-6),
            Err(MaxEntError::InfeasibleConstraints { .. })
        ));
    }

    #[test]
    fn feasibility_detects_cell_exceeding_marginal() {
        let t = paper_table();
        let mut set = ConstraintSet::first_order_from_table(&t).unwrap();
        // p^B_1 = .126 but we claim p^AB_11 = .2 > .126.
        let cell = Assignment::from_pairs([(0, 0), (1, 0)]);
        set.add(Constraint::new(cell, 0.2).unwrap()).unwrap();
        assert!(matches!(
            set.check_feasibility(1e-6),
            Err(MaxEntError::InfeasibleConstraints { .. })
        ));
    }

    #[test]
    fn of_order_filters() {
        let t = paper_table();
        let mut set = ConstraintSet::first_order_from_table(&t).unwrap();
        set.add_from_table(&t, Assignment::from_pairs([(0, 0), (2, 1)])).unwrap();
        assert_eq!(set.of_order(1).count(), 7);
        assert_eq!(set.of_order(2).count(), 1);
        assert_eq!(set.of_order(3).count(), 0);
        assert_eq!(set.max_order(), 2);
    }
}
