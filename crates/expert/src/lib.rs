//! # pka-expert
//!
//! A small probabilistic expert-system shell driven by an acquired
//! [`pka_core::KnowledgeBase`] — the downstream consumer the memo builds its
//! knowledge bases *for*.
//!
//! The shell supports the classic consultation loop:
//!
//! 1. the user asserts **evidence** (observed attribute values, possibly
//!    incrementally, see [`Evidence`]);
//! 2. the engine reports the **posterior** distribution of any query
//!    attribute given that evidence, ranks hypotheses, and updates as
//!    evidence is added or retracted ([`ExpertSystem`]);
//! 3. answers can be **explained** in terms of the discovered constraints
//!    that link the evidence to the conclusion ([`explain`]);
//! 4. alternatively the knowledge base can be compiled to an explicit
//!    IF–THEN [`RuleBase`] (the memo's "condition–conclusion rules with
//!    associated probability") and consulted by forward matching.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod evidence;
pub mod explain;
pub mod rulebase;

pub use engine::{ExpertSystem, Hypothesis};
pub use evidence::Evidence;
pub use explain::{explain_query, explain_query_with, Explanation};
pub use rulebase::{FiredRule, RuleBase};
