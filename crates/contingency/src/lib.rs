//! # pka-contingency
//!
//! The data layer of the probabilistic knowledge-acquisition system described
//! in NASA TM-88224 (*Automatic Probabilistic Knowledge Acquisition from
//! Data*, W. B. Gevarter, 1986).
//!
//! The memorandum assumes the raw observations — survey answers, telemetry,
//! simulation output — have been reduced to **contingency-table form**
//! (Appendix A of the memo): for `R` categorical attributes with `I, J, K, …`
//! possible values, a count `N_{ijk…}` is kept for every cell of the
//! attribute cross-product, and the lower-order *marginal* counts are
//! obtained by summation (Eqs. 1–6).
//!
//! This crate provides everything up to that point:
//!
//! * [`Attribute`] and [`Schema`] — the questionnaire: named attributes with
//!   named, exhaustive value lists (the memo's "made complete by adding the
//!   value *other*" convention is the caller's responsibility; helpers exist).
//! * [`Sample`] and [`Dataset`] — raw observations in attribute-tuple form
//!   (Figure 5 / Figure 6 of the memo).
//! * [`ContingencyTable`] — dense counts over the full cross-product with
//!   mixed-radix cell indexing.
//! * [`MarginalTable`] and [`MarginalLattice`] — the Figure 2 margins
//!   (Eqs. 1–6): one table summed down to a subset of the attributes, and
//!   every such table up to a cutoff order, for observed counts and for
//!   model probabilities alike ([`marginal`]).
//! * [`VarSet`] and [`Assignment`] — compact descriptions of attribute
//!   subsets and value assignments on them; these are the vocabulary used by
//!   the maximum-entropy and significance crates to talk about constraints
//!   such as `N^{AC}_{12}`.
//! * A small CSV reader ([`csv`]) so realistic survey files can be ingested
//!   without external dependencies.
//!
//! ## Quick example
//!
//! ```
//! use pka_contingency::{Schema, Attribute, Dataset, VarSet};
//!
//! let schema = Schema::new(vec![
//!     Attribute::new("smoking", ["smoker", "non-smoker", "married-to-smoker"]),
//!     Attribute::new("cancer", ["yes", "no"]),
//! ]).unwrap();
//!
//! let mut data = Dataset::new(schema);
//! data.push_named(&[("smoking", "smoker"), ("cancer", "yes")]).unwrap();
//! data.push_named(&[("smoking", "non-smoker"), ("cancer", "no")]).unwrap();
//!
//! let table = data.to_table();
//! assert_eq!(table.total(), 2);
//! let marginal = table.marginal(VarSet::singleton(1)); // over "cancer"
//! assert_eq!(marginal.get(&[0]), 1);                   // one "yes"
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attribute;
pub mod builder;
pub mod config;
pub mod csv;
pub mod dataset;
pub mod display;
pub mod error;
pub mod marginal;
pub mod sample;
pub mod schema;
pub mod table;
pub mod varset;

pub use attribute::Attribute;
pub use config::Assignment;
pub use dataset::Dataset;
pub use error::ContingencyError;
pub use marginal::{MarginalLattice, MarginalTable, MAX_DENSE_LOOKUP_VARS};
pub use sample::Sample;
pub use schema::Schema;
pub use table::ContingencyTable;
pub use varset::VarSet;

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, ContingencyError>;
