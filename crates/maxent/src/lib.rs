//! # pka-maxent
//!
//! The maximum-entropy modelling layer of NASA TM-88224.
//!
//! The memo estimates the joint probability distribution of the attributes
//! as the distribution of **maximum entropy** (Eq. 7) subject to a set of
//! *constraints* — known probabilities of marginal cells.  Lagrange duality
//! (Eqs. 8–13) shows the solution has a product form
//!
//! ```text
//! p_{ijk…} = a0 · a_i · a_j · a_k · a_{ij} · …
//! ```
//!
//! with one multiplier ("a-value") per constraint.  This crate provides:
//!
//! * [`Constraint`] / [`ConstraintSet`] — the known probabilities: always
//!   the first-order marginals, plus whatever higher-order cells the
//!   significance machinery promotes.
//! * [`LogLinearModel`] — the a-value product form, the memo's "general
//!   formula for calculating any probability relation associated with the
//!   data".
//! * [`solver`] — the iterative procedure of Figure 4 / Table 2 that
//!   computes the a-values from the constraints (a cyclic multiplicative
//!   update, the general form of the memo's hand-derived iteration in
//!   Eqs. 75–87).
//! * [`elimination`] — the Appendix-B sum-of-products evaluation: marginal
//!   probabilities computed directly from the factors by variable
//!   elimination, never materialising the full joint.
//! * [`Evaluator`] — the one way a fitted model is turned into marginal
//!   probabilities: its dense joint at or below the dense ceiling, its
//!   factor graph above it ([`is_factored`] is the one comparison), and
//!   its marginal lattice ([`Evaluator::lattice`]).
//! * [`JointDistribution`], [`entropy`], [`metrics`] — dense distributions,
//!   entropy / divergence / log-loss utilities used by the evaluation
//!   harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod constraint;
pub mod convergence;
pub mod elimination;
pub mod entropy;
pub mod error;
pub mod evaluator;
pub mod joint;
pub mod metrics;
pub mod model;
pub mod solver;

pub use constraint::{Constraint, ConstraintSet};
pub use convergence::{ConvergenceCriteria, IterationRecord, SolveReport};
pub use elimination::FactorGraph;
pub use error::MaxEntError;
pub use evaluator::{
    is_factored, EvalPath, Evaluator, DEFAULT_DENSE_CEILING, DEFAULT_LATTICE_ORDER,
};
pub use joint::JointDistribution;
pub use model::LogLinearModel;
pub use solver::{fit, fit_with_initial, CacheStats, CsrIncidence, IncidenceCache, Solver};

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, MaxEntError>;
