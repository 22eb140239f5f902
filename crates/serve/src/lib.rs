//! # pka-serve
//!
//! A concurrent query server over the streaming knowledge base: the
//! deployment shape of the memo's proposal — a probabilistic knowledge base
//! that *answers questions for an expert system* while new observations
//! keep arriving — modelled on maximum-entropy shells like SPIRIT.
//!
//! The server speaks a small **newline-delimited JSON protocol** over TCP
//! (spec in `crates/serve/README.md`): `query` and `explain` are answered
//! by whatever snapshot is current, `ingest` feeds the live
//! [`StreamingEngine`](pka_stream::StreamingEngine), and `refresh`,
//! `stats`, `schema` and `snapshot-version` round out operations.  Three
//! properties shape the implementation:
//!
//! 1. **Wait-free reads.**  Queries load the current snapshot through an
//!    atomic-pointer slot ([`pka_stream::SnapshotHandle`]); no lock, no
//!    retry loop, no contention with refit publishes.
//! 2. **Single-writer ingest.**  The engine lives on its own thread behind
//!    a bounded, two-class admission queue ([`queue`]), so policy-triggered
//!    refits run off the event loops, concurrent ingesters serialise
//!    without locks, and overload sheds writes with structured
//!    `server-overloaded` refusals instead of growing a backlog.
//! 3. **Bounded, recoverable protocol handling.**  Request lines are
//!    length-capped, malformed input (bad JSON, bad UTF-8, unknown
//!    methods, bad params) is answered with a structured error, and the
//!    connection stays usable afterwards.
//! 4. **A bounded-thread reactor front end.**  Connections are served by
//!    a fixed set of `pka-net` event-loop shards (thread count is
//!    `loop_shards + 2` at any connection count), with an open-connection
//!    cap answered by structured `server-overloaded` refusals, idle
//!    reaping, slow-reader backpressure and a graceful shutdown drain —
//!    see `docs/net.md`.
//!
//! A [`FabricRole`] makes a server one node of a `pka-fabric`
//! deployment: the role carries the node's peers, and the server runs one
//! pump thread per peer itself (pushing shards, offering or pulling
//! snapshots).  A pump makes one attempt per peer call; its own wait,
//! backing off from the role's interval, is the retry.
//!
//! [`cli`] is the command-line surface `pka-serve` and every `pka-fabric`
//! role share: one flag parser, one schema builder, one signal drain.
//!
//! ```
//! use pka_contingency::Schema;
//! use pka_serve::{LineClient, ServeConfig, Server};
//!
//! let schema = Schema::uniform(&[2, 2]).unwrap().into_shared();
//! let server = Server::start(schema, ServeConfig::new()).unwrap();
//! let mut client = LineClient::connect(server.addr()).unwrap();
//! client.ingest(&[vec![0, 0], vec![1, 1], vec![0, 0], vec![1, 1]]).unwrap();
//! client.refresh().unwrap();
//! let answer = client.query(&[("attr1", "v0")], &[("attr0", "v0")]).unwrap();
//! assert!(answer.probability > 0.0);
//! server.shutdown().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod cli;
pub mod client;
pub mod error;
mod fabric;
pub mod protocol;
pub mod queue;
pub mod server;
mod watch;

pub use admission::{Admission, AdmissionCounters, BucketSpec, RateLimitConfig};
pub use client::{ClientConfig, LineClient, NamedQuery, QueryAnswer};
pub use error::ServeError;
pub use fabric::FabricRole;
pub use protocol::{ErrorCode, Request, DEFAULT_MAX_LINE_BYTES};
pub use server::{
    DurabilityConfig, EngineStats, IngestSummary, RefitPhaseMicros, RefitSummary, ServeConfig,
    Server, ServerHandle, ServerStats, ShardPushSummary, ShutdownTrigger, SourceStat, SyncSummary,
};

// Termination-signal plumbing, re-exported so binaries built on this
// crate (pka-serve itself, pka-fabric) can route SIGTERM to a graceful
// drain without depending on `pka-net` directly.
pub use pka_net::{watch_termination, TerminationWatch};

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, ServeError>;
