//! `pka-net`: a readiness-driven reactor front end for line-oriented
//! protocols.
//!
//! PR 5's fabric measurements made the old thread-per-connection front
//! end's ceiling concrete: every idle ingest source, replica pump, and
//! client parked an OS thread on the server, capping coordinator fan-in
//! near ~380 sources.  This crate replaces that shape with a small fixed
//! set of epoll event-loop shards (over the vendored [`polling`] crate):
//! a dedicated acceptor hands nonblocking sockets round-robin to the
//! shards, each shard drives per-connection state machines — read buffer
//! into a length-capped line framer, write buffer with backpressure via
//! `EPOLLOUT` re-arming — and the thread count is `loop_shards + 1`
//! regardless of how many thousand connections are open.
//!
//! Protocol semantics live behind the [`LineService`] trait: the reactor
//! frames request lines and the service answers them, either immediately
//! ([`Action::Respond`]) or later from another thread through a
//! [`Completion`] ([`Action::Deferred`] — how `pka-serve` keeps its
//! single-writer engine thread off the loop shards).  Robustness policy
//! is the reactor's own: a connection cap with structured overload
//! refusals, idle-connection reaping from a per-shard timer wheel, and a
//! bounded graceful drain on shutdown.  See `docs/net.md` for the
//! architecture write-up.

mod bucket;
mod config;
mod conn;
mod metrics;
mod reactor;
mod service;
mod timer;

pub use bucket::TokenBucket;
pub use config::NetConfig;
pub use metrics::ReactorMetrics;
pub use reactor::{Reactor, ReactorHandle};
pub use service::{Action, Completion, ConnId, LineService};

// Crash-restart plumbing from the vendored polling layer, re-exported so
// servers and binaries need no direct `polling` dependency: a
// `SO_REUSEADDR` listener (a killed node can reclaim its port through the
// previous process's TIME_WAIT sockets) and a SIGTERM/SIGINT watch for
// graceful drain + final checkpoint.
pub use polling::net::bind_reuseaddr;
pub use polling::signal::{watch_termination, TerminationWatch};
