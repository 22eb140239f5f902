//! The schema size limits, checked at their boundaries.
//!
//! A schema may have at most `MAX_CELLS` = 2^28 dense cells and at most
//! `MAX_VARS` = 32 attributes (one bit each in a `VarSet`).  These tests
//! build schemas only — a schema holds names and strides, never a table —
//! so they probe the 2^28 boundary without allocating a gigabyte.

use pka::contingency::schema::MAX_CELLS;
use pka::contingency::varset::MAX_VARS;
use pka::contingency::{Attribute, ContingencyError, Schema};

fn binary(count: usize) -> Vec<Attribute> {
    (0..count).map(|i| Attribute::new(format!("b{i}"), ["0", "1"])).collect()
}

/// `count` one-valued attributes: each multiplies the cell count by 1, so
/// they add attributes without adding cells.
fn constant(count: usize) -> Vec<Attribute> {
    (0..count).map(|i| Attribute::new(format!("c{i}"), ["only"])).collect()
}

#[test]
fn exactly_max_cells_is_accepted() {
    assert_eq!(MAX_CELLS, 1 << 28);
    let schema = Schema::new(binary(28)).expect("2^28 cells is within the limit");
    assert_eq!(schema.cell_count() as u128, MAX_CELLS);
    assert_eq!(schema.cell_count_of(schema.all_vars()) as u128, MAX_CELLS);
    // The last cell's index is the largest one the limit allows.
    assert_eq!(schema.cell_index(&[1; 28]) as u128, MAX_CELLS - 1);
}

#[test]
fn one_factor_past_max_cells_is_rejected_with_the_count() {
    let mut attributes = binary(26);
    attributes.push(Attribute::new("five", ["a", "b", "c", "d", "e"]));
    match Schema::new(attributes) {
        Err(ContingencyError::TableTooLarge { cells, max }) => {
            assert_eq!(cells, 335_544_320);
            assert_eq!(cells, (1 << 26) * 5);
            assert_eq!(max, MAX_CELLS);
        }
        other => panic!("2^26 x 5 cells must be refused, got {other:?}"),
    }
}

#[test]
fn max_vars_attributes_are_accepted() {
    assert_eq!(MAX_VARS, 32);
    let mut attributes = binary(28);
    attributes.extend(constant(4));
    let schema = Schema::new(attributes).expect("32 attributes are within the limit");
    assert_eq!(schema.len(), MAX_VARS);
    assert_eq!(schema.cell_count() as u128, MAX_CELLS);
    assert_eq!(schema.all_vars().len(), MAX_VARS);
}

#[test]
fn one_attribute_past_max_vars_is_rejected() {
    let mut attributes = binary(28);
    attributes.extend(constant(5));
    assert_eq!(attributes.len(), MAX_VARS + 1);
    let too_many = ContingencyError::TooManyAttributes { count: MAX_VARS + 1, max: MAX_VARS };
    assert_eq!(Schema::new(attributes).unwrap_err(), too_many);
    // Even with no cells to speak of, a 33rd attribute has no VarSet bit.
    let err = Schema::new(constant(MAX_VARS + 1)).unwrap_err();
    assert_eq!(err, too_many);
    assert_eq!(err.to_string(), "schema has 33 attributes which exceeds the supported maximum 32");
}
