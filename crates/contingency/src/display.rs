//! Text rendering of contingency tables in the style of the memo's
//! Figures 1 and 2.
//!
//! The `reproduce` binary of the benchmark crate uses these helpers to print
//! the paper's figures; they are also handy for debugging acquired models.

use crate::marginal::MarginalTable;
use crate::table::ContingencyTable;
use crate::varset::VarSet;
use std::fmt::Write as _;

/// Renders a two-attribute marginal as a grid with row/column headers and
/// marginal sums — the layout of Figure 2c.
///
/// `rows` and `cols` are attribute indices; they must be distinct and in
/// range for the table's schema.
pub fn render_two_way(table: &ContingencyTable, rows: usize, cols: usize) -> String {
    let schema = table.schema();
    let row_attr = schema.attribute(rows).expect("row attribute in schema");
    let col_attr = schema.attribute(cols).expect("column attribute in schema");
    let m = table.marginal(VarSet::from_indices([rows, cols]));
    let row_m = table.marginal(VarSet::singleton(rows));
    let col_m = table.marginal(VarSet::singleton(cols));

    let mut out = String::new();
    let _ = writeln!(out, "{} \\ {}", row_attr.name(), col_attr.name());

    // Column widths: max of header and widest count.
    let col_headers: Vec<String> = col_attr.values().to_vec();
    let width = col_headers
        .iter()
        .map(String::len)
        .chain(std::iter::once(table.total().to_string().len()))
        .max()
        .unwrap_or(6)
        .max(6);
    let row_label_width = row_attr.values().iter().map(String::len).max().unwrap_or(8).max(8);

    let _ = write!(out, "{:row_label_width$} |", "");
    for h in &col_headers {
        let _ = write!(out, " {h:>width$}");
    }
    let _ = writeln!(out, " | {:>width$}", "total");
    let _ = writeln!(
        out,
        "{}",
        "-".repeat(row_label_width + 3 + (width + 1) * (col_headers.len() + 1) + 2)
    );

    for (ri, rname) in row_attr.values().iter().enumerate() {
        let _ = write!(out, "{rname:row_label_width$} |");
        for ci in 0..col_attr.cardinality() {
            // Marginal tables store values in ascending attribute order.
            let count = if rows < cols { m.get(&[ri, ci]) } else { m.get(&[ci, ri]) };
            let _ = write!(out, " {count:>width$}");
        }
        let _ = writeln!(out, " | {:>width$}", row_m.get(&[ri]));
    }
    let _ = writeln!(
        out,
        "{}",
        "-".repeat(row_label_width + 3 + (width + 1) * (col_headers.len() + 1) + 2)
    );
    let _ = write!(out, "{:row_label_width$} |", "total");
    for ci in 0..col_attr.cardinality() {
        let _ = write!(out, " {:>width$}", col_m.get(&[ci]));
    }
    let _ = writeln!(out, " | {:>width$}", table.total());
    out
}

/// Renders a marginal (any order) as a flat list of labelled counts.
pub fn render_marginal(table: &ContingencyTable, marginal: &MarginalTable<u64>) -> String {
    let schema = table.schema();
    let mut out = String::new();
    for (assignment, count) in marginal.assignments() {
        let _ = writeln!(out, "  N[{}] = {}", assignment.describe(schema), count);
    }
    out
}

/// Renders the full table as a labelled cell list, the format of Figure 6's
/// bottom row.
pub fn render_cells(table: &ContingencyTable) -> String {
    let schema = table.schema();
    let mut out = String::new();
    for (values, count) in table.cells() {
        let label = schema.describe(schema.all_vars(), &values);
        let _ = writeln!(out, "  N[{label}] = {count}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::Attribute;
    use crate::schema::Schema;

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
    fn two_way_render_contains_figure_2c_numbers() {
        let t = paper_table();
        let s = render_two_way(&t, 0, 1);
        for expected in ["240", "1050", "93", "1040", "100", "905", "3428", "1290"] {
            assert!(s.contains(expected), "missing {expected} in:\n{s}");
        }
    }

    #[test]
    fn two_way_render_with_swapped_axes() {
        let t = paper_table();
        let s = render_two_way(&t, 1, 0);
        assert!(s.contains("240"));
        assert!(s.contains("cancer \\ smoking"));
    }

    #[test]
    fn marginal_render_labels_cells() {
        let t = paper_table();
        let m = t.marginal(VarSet::from_indices([0, 2]));
        let s = render_marginal(&t, &m);
        assert!(s.contains("smoking=smoker, family-history=no"));
        assert!(s.contains("750"));
    }

    #[test]
    fn cell_render_covers_all_cells() {
        let t = paper_table();
        let s = render_cells(&t);
        assert_eq!(s.lines().count(), 12);
        assert!(s.contains("130"));
        assert!(s.contains("385"));
    }
}
