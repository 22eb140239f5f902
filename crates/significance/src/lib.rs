//! # pka-significance
//!
//! Statistical machinery for the knowledge-acquisition procedure of NASA
//! TM-88224: deciding which observed cell counts of a contingency table are
//! *significant* — i.e. cannot be explained by the maximum-entropy model
//! built from the constraints found so far and should therefore become new
//! constraints.
//!
//! The memo's test (Eqs. 32–47) is a Bayesian two-hypothesis comparison
//! phrased as a *minimum message length* criterion:
//!
//! * **H1** — the current model is adequate; the probability of the observed
//!   count `N_{ijk}` is the exact binomial `B(N_{ijk}; N, p_{ijk})` with
//!   `p_{ijk}` taken from the model (Eq. 32).
//! * **H2** — this cell is the next significant constraint; lacking any
//!   other information its count is uniform over the integer range still
//!   available to it given its marginals and the significant cells already
//!   found (Eq. 41).
//!
//! The message lengths `m1` and `m2` (Eqs. 45–46) are the negative log
//! posteriors of the two hypotheses; the cell is significant iff
//! `m2 − m1 < 0` (Eq. 47) and `exp(m2 − m1)` is the likelihood ratio
//! reported in Table 1 of the memo.
//!
//! The crate also provides the classical χ² and G-test alternatives used by
//! the ablation experiment (X5), and the special functions (`ln Γ`,
//! regularised incomplete gamma, normal CDF) everything is built on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binomial;
pub mod bounds;
pub mod chi_square;
pub mod error;
pub mod g_test;
pub mod message_length;
pub mod normal;
pub mod special;

pub use binomial::Binomial;
pub use bounds::{CellRange, CellRanges, KnownCells, RangeContext};
pub use chi_square::{chi_square_cell_test, chi_square_statistic, ChiSquareResult};
pub use error::SignificanceError;
pub use g_test::{g_statistic, g_test_cell, GTestResult};
pub use message_length::{HypothesisPriors, MessageLengthTest, MessageLengths};
pub use normal::Normal;

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, SignificanceError>;
