//! # pka-fabric
//!
//! A multi-node shard fabric over the streaming knowledge base: the
//! deployment shape where tabulation, fitting and serving run on
//! *different machines*, while the acquired model stays bit-for-bit the
//! one a single sequential pass would produce.
//!
//! A fabric node is an ordinary [`pka_serve::Server`] whose
//! [`pka_serve::FabricRole`] carries its peers; the server runs the role's
//! pump in-process (topology guide in `docs/fabric.md`, protocol in
//! `crates/serve/README.md`):
//!
//! * **Ingest nodes** (`FabricRole::IngestNode { coordinator, .. }`)
//!   tabulate rows into a local count shard and push their *cumulative*
//!   counts to the coordinator under a monotone sequence number
//!   (`shard-push`).  Because counts are cumulative and sequence-gated,
//!   lost, duplicated and reordered pushes all collapse to no-ops or
//!   self-repair on the next push.
//! * **The coordinator** (`FabricRole::Coordinator { replicas, .. }`)
//!   holds the shard-placement map (one slot per source), merges remote
//!   shards with its local counts via the same commutative count-monoid
//!   fold single-node ingestion uses, refits over the merged table, and
//!   offers each published snapshot to its replicas (`snapshot-sync`).
//! * **Read replicas** (`FabricRole::Replica { coordinator, .. }`) serve
//!   the full read protocol off whatever snapshot they last accepted,
//!   through the same wait-free atomic-pointer slot a standalone server
//!   uses.  Offers are version-gated in the engine, so replica versions
//!   are strictly monotone no matter how deliveries arrive.
//!
//! This crate holds the `pka-fabric` binary (one executable for every
//! role, plus a cluster `probe`) and the [`chaos`] tooling the
//! fault-injection tests drive a fabric with: a scriptable TCP proxy
//! ([`ChaosProxy`]) and a pipelined ingest storm ([`ingest_storm`]).
//!
//! Exactness is the point: a `CountShard` merge is a
//! commutative monoid over cell counts, so *where* tuples were tabulated
//! cannot influence the merged contingency table, and the coordinator's
//! fit equals the one-shot acquisition over the union of all rows (the
//! end-to-end test asserts agreement to 1e-9 through two ingest nodes,
//! three batches and two replicas).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;

pub use chaos::{ingest_storm, ChaosProxy, FaultPlan, StormConfig, StormReport};
