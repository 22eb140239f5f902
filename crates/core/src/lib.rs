//! # pka-core
//!
//! The knowledge-acquisition procedure of NASA TM-88224 (Figures 3–4) and
//! the artefacts it produces.
//!
//! Starting from a contingency table, [`Acquisition::run`]:
//!
//! 1. constrains all first-order marginal probabilities and fits the
//!    maximum-entropy model (initially the independence model, Eqs. 57–62);
//! 2. at each order `n = 2, 3, …`, scores every order-`n` cell with the
//!    minimum-message-length test (Table 1), promotes the most significant
//!    cell to a constraint, refits the a-values (Table 2, warm-started), and
//!    repeats until no significant cell remains at that order;
//! 3. returns a [`KnowledgeBase`]: the compact set of significant joint
//!    probabilities plus the fitted a-value formula, from which **any**
//!    probability relation associated with the data can be computed.
//!
//! On top of the knowledge base the crate provides the conditional-probability
//! query engine ([`Query`]), IF–THEN rule induction with attached
//! probabilities ([`rules`]), human-readable reports mirroring the memo's
//! tables ([`report`]), and JSON serialisation ([`serialize`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acquisition;
pub mod config;
pub mod error;
pub mod knowledge_base;
pub mod query;
pub mod report;
pub mod rules;
pub mod serialize;
pub mod trace;

pub use acquisition::{Acquisition, AcquisitionOutcome, AcquisitionTimings};
pub use config::AcquisitionConfig;
pub use error::CoreError;
pub use knowledge_base::KnowledgeBase;
pub use query::{bayes, Bayes, Query, QueryResult};
pub use rules::{induce_rules, Rule, RuleInductionConfig};
pub use trace::{AcquisitionTrace, CellEvaluation, RoundTrace};

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, CoreError>;
