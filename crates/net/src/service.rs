//! The service seam between the reactor and a protocol implementation.

use polling::Waker;
use std::sync::mpsc;
use std::sync::Arc;

/// Identifies one connection incarnation on one shard: the slab slot plus
/// a per-slot generation bumped at every close, so a reply addressed to a
/// connection that died (and whose slot was reused) is dropped instead of
/// being delivered to the wrong peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CompletionKey {
    pub(crate) slot: usize,
    pub(crate) gen: u64,
}

/// Public identity of one connection incarnation: the owning loop shard
/// plus its slab slot and generation.  Stable for the connection's
/// lifetime, never reused (the generation bumps at close), hashable — the
/// key a service uses for per-connection state such as rate-limit
/// buckets (released in [`LineService::on_close`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConnId {
    /// The loop shard that owns the connection.
    pub shard: usize,
    /// The connection's slab slot on that shard.
    pub slot: usize,
    /// The slot's incarnation counter.
    pub gen: u64,
}

/// The route back to a paused connection for a response produced off the
/// loop thread (e.g. by an engine thread).
///
/// A service that returns [`Action::Deferred`] must eventually call
/// [`Completion::respond`] exactly once; the owning connection reads no
/// further requests until then (preserving pipelined response order).
/// Dropping a completion without responding leaks the pause until the
/// idle timeout reaps the connection, so don't.  Responding after the
/// connection died is harmless — the key no longer matches and the line
/// is discarded.
pub struct Completion {
    pub(crate) tx: mpsc::Sender<(CompletionKey, String)>,
    pub(crate) key: CompletionKey,
    pub(crate) shard: usize,
    pub(crate) waker: Arc<Waker>,
}

impl Completion {
    /// The identity of the connection this completion answers.
    pub fn conn_id(&self) -> ConnId {
        ConnId { shard: self.shard, slot: self.key.slot, gen: self.key.gen }
    }

    /// Delivers the response line (no trailing newline) to the connection
    /// and wakes its loop shard.  Callable from any thread.
    pub fn respond(self, line: String) {
        if self.tx.send((self.key, line)).is_ok() {
            let _ = self.waker.wake();
        }
    }
}

/// What the service wants done with one request line.
pub enum Action {
    /// Respond with this line (no trailing newline); keep the connection
    /// open.
    Respond(String),
    /// Respond with this line, then close the connection once the response
    /// has been flushed.
    RespondClose(String),
    /// The service kept the [`Completion`] and will respond through it
    /// later; the connection pauses (reads deregistered) until it does.
    Deferred,
}

/// A line-oriented protocol served by a [`crate::Reactor`].
///
/// `on_line` runs on a loop-shard thread and must not block: anything
/// slow (engine calls, refits) is shipped elsewhere with the
/// [`Completion`] and answered via [`Action::Deferred`].  The two
/// refusal hooks produce the structured lines the reactor itself emits
/// for its robustness policy.
pub trait LineService: Send + Sync + 'static {
    /// Handles one complete request line (terminator and trailing `\r`
    /// already stripped; may be empty — an empty line is still a request).
    fn on_line(&self, line: &[u8], completion: Completion) -> Action;

    /// Response for a request line that exceeded the configured cap (the
    /// reactor has already discarded the line; the connection stays
    /// usable).
    fn overlong_response(&self) -> String;

    /// Line written (best effort) to a socket refused at accept time
    /// because the connection cap was hit.
    fn overloaded_response(&self) -> String;

    /// Called on the loop thread when a connection closes for any reason;
    /// the service drops per-connection state here.  The id is never
    /// reused, so a late call cannot touch a successor connection.
    fn on_close(&self, conn: ConnId) {
        let _ = conn;
    }
}
