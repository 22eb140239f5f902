//! Error type shared by the data-layer operations.

use std::fmt;

/// Errors produced while building schemas, datasets or contingency tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContingencyError {
    /// A schema was constructed with no attributes, or an attribute with no
    /// values; such a table has no cells and nothing can be estimated.
    EmptySchema,
    /// Two attributes (or two values of one attribute) share a name, which
    /// would make name-based lookup ambiguous.
    DuplicateName {
        /// The offending name.
        name: String,
    },
    /// An attribute name was not found in the schema.
    UnknownAttribute {
        /// The requested attribute name.
        name: String,
    },
    /// A value name was not found among the attribute's declared values.
    UnknownValue {
        /// The attribute whose value list was consulted.
        attribute: String,
        /// The requested value name.
        value: String,
    },
    /// An attribute index was out of range for the schema.
    AttributeIndexOutOfRange {
        /// The requested index.
        index: usize,
        /// Number of attributes in the schema.
        len: usize,
    },
    /// A value index was out of range for the attribute's cardinality.
    ValueIndexOutOfRange {
        /// The attribute index.
        attribute: usize,
        /// The requested value index.
        value: usize,
        /// The attribute's cardinality.
        cardinality: usize,
    },
    /// A sample did not provide exactly one value per attribute.
    SampleArity {
        /// Number of values supplied.
        got: usize,
        /// Number of attributes expected.
        expected: usize,
    },
    /// Counts supplied to [`crate::ContingencyTable::from_counts`] did not
    /// match the schema's cell count.
    CountLength {
        /// Number of counts supplied.
        got: usize,
        /// Number of cells expected.
        expected: usize,
    },
    /// An assignment referred to attributes outside the variable set it was
    /// declared over, or supplied the wrong number of values.
    InvalidAssignment {
        /// Human-readable description of the mismatch.
        reason: String,
    },
    /// Cell counts summed past `u64::MAX`.  Unreachable by counting real
    /// observations; it means a forged or corrupted payload supplied
    /// near-maximal counts, or two such tables were merged.
    CountOverflow,
    /// The schema has more attributes than a variable set can hold.
    TooManyAttributes {
        /// Number of attributes supplied.
        count: usize,
        /// The maximum supported.
        max: usize,
    },
    /// The schema would produce more cells than can be indexed.
    TableTooLarge {
        /// The (saturated) number of cells requested.
        cells: u128,
        /// The maximum supported.
        max: u128,
    },
    /// A CSV file could not be parsed.
    Csv {
        /// Line number (1-based) where the problem was found, if known.
        line: usize,
        /// Description of the problem.
        reason: String,
    },
}

impl fmt::Display for ContingencyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptySchema => {
                write!(f, "schema must contain at least one attribute with at least one value")
            }
            Self::DuplicateName { name } => write!(f, "duplicate name `{name}`"),
            Self::UnknownAttribute { name } => write!(f, "unknown attribute `{name}`"),
            Self::UnknownValue { attribute, value } => {
                write!(f, "attribute `{attribute}` has no value named `{value}`")
            }
            Self::AttributeIndexOutOfRange { index, len } => {
                write!(f, "attribute index {index} out of range for schema with {len} attributes")
            }
            Self::ValueIndexOutOfRange { attribute, value, cardinality } => write!(
                f,
                "value index {value} out of range for attribute {attribute} with {cardinality} values"
            ),
            Self::SampleArity { got, expected } => {
                write!(f, "sample has {got} values but the schema has {expected} attributes")
            }
            Self::CountLength { got, expected } => {
                write!(f, "got {got} cell counts but the schema has {expected} cells")
            }
            Self::InvalidAssignment { reason } => write!(f, "invalid assignment: {reason}"),
            Self::CountOverflow => {
                write!(f, "cell counts overflow the 64-bit observation total")
            }
            Self::TooManyAttributes { count, max } => {
                write!(f, "schema has {count} attributes which exceeds the supported maximum {max}")
            }
            Self::TableTooLarge { cells, max } => {
                write!(f, "table would have {cells} cells which exceeds the supported maximum {max}")
            }
            Self::Csv { line, reason } => write!(f, "CSV parse error at line {line}: {reason}"),
        }
    }
}

impl std::error::Error for ContingencyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_offending_names() {
        let e =
            ContingencyError::UnknownValue { attribute: "cancer".into(), value: "maybe".into() };
        let msg = e.to_string();
        assert!(msg.contains("cancer"));
        assert!(msg.contains("maybe"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_e: &E) {}
        assert_err(&ContingencyError::EmptySchema);
    }

    #[test]
    fn display_covers_all_variants() {
        let variants = vec![
            ContingencyError::EmptySchema,
            ContingencyError::DuplicateName { name: "x".into() },
            ContingencyError::UnknownAttribute { name: "x".into() },
            ContingencyError::UnknownValue { attribute: "a".into(), value: "v".into() },
            ContingencyError::AttributeIndexOutOfRange { index: 3, len: 2 },
            ContingencyError::ValueIndexOutOfRange { attribute: 0, value: 9, cardinality: 2 },
            ContingencyError::SampleArity { got: 1, expected: 3 },
            ContingencyError::CountLength { got: 4, expected: 12 },
            ContingencyError::InvalidAssignment { reason: "why".into() },
            ContingencyError::CountOverflow,
            ContingencyError::TooManyAttributes { count: 33, max: 32 },
            ContingencyError::TableTooLarge { cells: 10, max: 5 },
            ContingencyError::Csv { line: 7, reason: "bad".into() },
        ];
        for v in variants {
            assert!(!v.to_string().is_empty());
        }
    }
}
