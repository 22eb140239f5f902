//! The reactor: one acceptor thread plus a fixed set of event-loop
//! shards.
//!
//! ## Shape
//!
//! The acceptor owns the listener, enforces the connection cap (refusing
//! over it with the service's structured overload line), and hands
//! accepted sockets round-robin to the shards over per-shard channels,
//! waking the target shard's poll.  Each shard owns its connections for
//! life: a `Poll` instance, a slab of [`Connection`] state machines, a
//! completion channel for responses produced off-thread, and a lazy
//! timer wheel sweeping idle peers.  Thread count is `loop_shards + 1`,
//! independent of connection count.
//!
//! ## Interest discipline (level-triggered)
//!
//! The poll is level-triggered, so a shard must never hold an interest it
//! will not act on.  Each connection's registration is reconciled after
//! every step to exactly what it can progress on: read interest only
//! while the shard is willing to frame more requests (not paused on an
//! engine reply, not over the write high-water mark, not draining), write
//! interest only while queued output remains.  A paused connection with
//! an empty write buffer is deregistered entirely — its wake-up comes
//! from the completion channel via the shard's waker, not from epoll.
//!
//! ## Shutdown drain
//!
//! When the shared shutdown flag rises, the acceptor stops accepting and
//! every shard stops *reading*: in-flight engine requests finish, queued
//! responses flush, then connections close.  A peer that will not drain
//! its responses is force-closed after a bounded grace, so shutdown
//! always terminates.

use crate::config::NetConfig;
use crate::conn::{Connection, LineStep};
use crate::metrics::{CloseReason, ReactorMetrics};
use crate::service::{Action, Completion, CompletionKey, ConnId, LineService};
use crate::timer::TimerWheel;
use polling::{Events, Interest, Poll, Token, Waker};
use std::io::{self, ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Token reserved for each shard's waker; connection tokens are slab
/// slots, which can never reach it.
const WAKER_TOKEN: Token = Token(usize::MAX);
/// How long the accept loop sleeps when no connection is pending (and
/// after accept errors such as fd exhaustion — backing off instead of
/// spinning).
const ACCEPT_POLL: Duration = Duration::from_millis(5);
/// Upper bound on one `epoll_wait`, so a shard notices the shutdown flag
/// promptly even when fully idle.
const MAX_POLL_WAIT: Duration = Duration::from_millis(100);
/// How long a shutdown drain waits for peers to take their final
/// responses before force-closing them.
const DRAIN_GRACE: Duration = Duration::from_secs(5);
/// Per-shard scratch read buffer: one bounded read per readiness event.
const READ_CHUNK: usize = 64 << 10;

/// The reactor constructor namespace.
pub struct Reactor;

impl Reactor {
    /// Spawns the acceptor and `config.loop_shards` loop threads over
    /// `listener` and returns a handle.  Serving starts immediately.
    ///
    /// `shutdown` is shared: the caller (or the service, e.g. on a
    /// protocol-level `shutdown` request) raises it, and every reactor
    /// thread drains and exits.  `metrics` must have been created with
    /// [`ReactorMetrics::new`] for the same (normalized) shard count.
    pub fn start<S: LineService>(
        listener: TcpListener,
        service: Arc<S>,
        config: NetConfig,
        shutdown: Arc<AtomicBool>,
        metrics: Arc<ReactorMetrics>,
    ) -> io::Result<ReactorHandle> {
        let config = config.normalized();
        if metrics.shard_count() != config.loop_shards {
            return Err(io::Error::new(
                ErrorKind::InvalidInput,
                format!(
                    "metrics sized for {} shards, config has {}",
                    metrics.shard_count(),
                    config.loop_shards
                ),
            ));
        }
        listener.set_nonblocking(true)?;

        let mut mailboxes = Vec::with_capacity(config.loop_shards);
        let mut shard_threads = Vec::with_capacity(config.loop_shards);
        for idx in 0..config.loop_shards {
            let poll = Poll::new()?;
            let waker = Arc::new(Waker::new(&poll, WAKER_TOKEN)?);
            let (inject_tx, inject_rx) = mpsc::channel::<TcpStream>();
            let (completion_tx, completion_rx) = mpsc::channel::<(CompletionKey, String)>();
            let shard = Shard {
                idx,
                poll,
                waker: Arc::clone(&waker),
                inject_rx,
                completion_rx,
                completion_tx,
                service: Arc::clone(&service),
                config: config.clone(),
                shutdown: Arc::clone(&shutdown),
                metrics: Arc::clone(&metrics),
                conns: Vec::new(),
                gens: Vec::new(),
                free: Vec::new(),
                in_flight: 0,
                draining_since: None,
            };
            shard_threads.push(
                std::thread::Builder::new()
                    .name(format!("pka-net-loop-{idx}"))
                    .spawn(move || shard.run())?,
            );
            mailboxes.push(Mailbox { inject: inject_tx, waker });
        }

        let acceptor = {
            let service = Arc::clone(&service);
            let shutdown = Arc::clone(&shutdown);
            let metrics = Arc::clone(&metrics);
            let config = config.clone();
            std::thread::Builder::new().name("pka-net-accept".to_string()).spawn(move || {
                run_acceptor(listener, mailboxes, service, config, shutdown, metrics)
            })?
        };

        Ok(ReactorHandle { shutdown, metrics, acceptor: Some(acceptor), shards: shard_threads })
    }
}

/// A running reactor.  Joining it requires the shutdown flag to rise
/// (via [`ReactorHandle::request_shutdown`] or any other holder of the
/// shared flag).
pub struct ReactorHandle {
    shutdown: Arc<AtomicBool>,
    metrics: Arc<ReactorMetrics>,
    acceptor: Option<JoinHandle<()>>,
    shards: Vec<JoinHandle<()>>,
}

impl ReactorHandle {
    /// The reactor's connection telemetry.
    pub fn metrics(&self) -> Arc<ReactorMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Raises the shared shutdown flag (idempotent); every reactor thread
    /// drains and exits.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Joins every reactor thread (idempotent).  Blocks until the
    /// shutdown flag rises and the drain completes; on return all
    /// service `Arc`s held by reactor threads have been dropped.
    pub fn join(&mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for shard in self.shards.drain(..) {
            let _ = shard.join();
        }
    }

    /// Shuts down and joins in one call.
    pub fn shutdown(mut self) {
        self.request_shutdown();
        self.join();
    }
}

impl Drop for ReactorHandle {
    fn drop(&mut self) {
        self.request_shutdown();
        self.join();
    }
}

/// The acceptor's route to one shard.
struct Mailbox {
    inject: mpsc::Sender<TcpStream>,
    waker: Arc<Waker>,
}

fn run_acceptor<S: LineService>(
    listener: TcpListener,
    mailboxes: Vec<Mailbox>,
    service: Arc<S>,
    config: NetConfig,
    shutdown: Arc<AtomicBool>,
    metrics: Arc<ReactorMetrics>,
) {
    let mut next = 0usize;
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if metrics.open() >= config.max_connections as u64 {
                    metrics.on_refused();
                    refuse(stream, &service.overloaded_response());
                    continue;
                }
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                metrics.on_accept();
                let mailbox = &mailboxes[next];
                next = (next + 1) % mailboxes.len();
                if mailbox.inject.send(stream).is_ok() {
                    let _ = mailbox.waker.wake();
                } else {
                    // Shard gone (panicked); the socket just closes.
                    metrics.on_handoff_failed();
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
    // Wake every shard so none sleeps out its full poll timeout before
    // noticing the flag.
    for mailbox in &mailboxes {
        let _ = mailbox.waker.wake();
    }
}

/// Best-effort structured refusal: one nonblocking write, then drop.  A
/// refused socket must never make the acceptor block.
fn refuse(stream: TcpStream, line: &str) {
    if stream.set_nonblocking(true).is_err() {
        return;
    }
    let mut bytes = Vec::with_capacity(line.len() + 1);
    bytes.extend_from_slice(line.as_bytes());
    bytes.push(b'\n');
    let _ = (&stream).write(&bytes);
}

/// One event-loop shard.
struct Shard<S: LineService> {
    idx: usize,
    poll: Poll,
    waker: Arc<Waker>,
    inject_rx: mpsc::Receiver<TcpStream>,
    completion_rx: mpsc::Receiver<(CompletionKey, String)>,
    completion_tx: mpsc::Sender<(CompletionKey, String)>,
    service: Arc<S>,
    config: NetConfig,
    shutdown: Arc<AtomicBool>,
    metrics: Arc<ReactorMetrics>,
    conns: Vec<Option<Connection>>,
    /// Per-slot incarnation counter (bumped at close), mirroring
    /// [`CompletionKey::gen`].
    gens: Vec<u64>,
    free: Vec<usize>,
    /// Connections currently paused on an engine completion.
    in_flight: usize,
    /// `Some(start)` once the shutdown drain began.
    draining_since: Option<Instant>,
}

impl<S: LineService> Shard<S> {
    fn idle_timeout(&self) -> Option<Duration> {
        (self.config.idle_timeout_ms > 0)
            .then(|| Duration::from_millis(self.config.idle_timeout_ms))
    }

    fn run(mut self) {
        let mut events = Events::with_capacity(1024);
        let mut scratch = vec![0u8; READ_CHUNK];
        let mut expired: Vec<(usize, u64)> = Vec::new();
        let (tick, mut wheel) = match self.idle_timeout() {
            Some(idle) => {
                let tick = (idle / 8).clamp(Duration::from_millis(10), Duration::from_secs(1));
                (tick, Some(TimerWheel::new(tick, Instant::now())))
            }
            None => (MAX_POLL_WAIT, None),
        };
        loop {
            let _ = self.poll.poll(&mut events, Some(tick.min(MAX_POLL_WAIT)));
            let mut woke = false;
            for event in events.iter() {
                if event.token() == WAKER_TOKEN {
                    woke = true;
                    continue;
                }
                let slot = event.token().0;
                if self.conns.get(slot).is_none_or(|c| c.is_none()) {
                    continue;
                }
                if event.is_closed() {
                    self.close(slot, CloseReason::Abnormal);
                    continue;
                }
                if event.is_readable() || event.is_read_closed() {
                    self.read_ready(slot, &mut scratch);
                }
                if self.conns[slot].is_some() && event.is_writable() {
                    self.write_ready(slot);
                }
            }
            if woke {
                self.waker.drain();
            }
            self.adopt_injected(wheel.as_mut());
            self.deliver_completions();
            if let (Some(wheel), Some(idle)) = (wheel.as_mut(), self.idle_timeout()) {
                let now = Instant::now();
                wheel.advance(now, &mut expired);
                for (slot, gen) in expired.drain(..) {
                    if self.gens.get(slot) != Some(&gen) {
                        continue;
                    }
                    let Some(conn) = self.conns[slot].as_ref() else { continue };
                    let deadline = conn.last_activity + idle;
                    if deadline <= now {
                        self.close(slot, CloseReason::IdleTimeout);
                    } else {
                        wheel.insert(deadline, slot, gen);
                    }
                }
            }
            if self.shutdown.load(Ordering::SeqCst) && self.drain_step() {
                return;
            }
        }
    }

    /// One step of the shutdown drain.  Returns true when the shard is
    /// done and its thread should exit.
    fn drain_step(&mut self) -> bool {
        let started = match self.draining_since {
            Some(t) => t,
            None => {
                let now = Instant::now();
                self.draining_since = Some(now);
                // Reads off everywhere; close whatever owes nothing.
                for slot in 0..self.conns.len() {
                    if self.conns[slot].is_some() {
                        self.settle(slot);
                    }
                }
                now
            }
        };
        let pending =
            self.in_flight > 0 || self.conns.iter().flatten().any(|c| c.write_backlog() > 0);
        if !pending || started.elapsed() >= DRAIN_GRACE {
            for slot in 0..self.conns.len() {
                if self.conns[slot].is_some() {
                    self.close(slot, CloseReason::Abnormal);
                }
            }
            return true;
        }
        false
    }

    fn adopt_injected(&mut self, mut wheel: Option<&mut TimerWheel>) {
        while let Ok(stream) = self.inject_rx.try_recv() {
            if self.draining_since.is_some() || self.shutdown.load(Ordering::SeqCst) {
                self.metrics.on_handoff_failed();
                continue;
            }
            let now = Instant::now();
            let slot = self.free.pop().unwrap_or_else(|| {
                self.conns.push(None);
                self.gens.push(0);
                self.conns.len() - 1
            });
            let conn = Connection::new(stream, now);
            if self.poll.register(&conn.stream, Token(slot), Interest::READABLE).is_err() {
                self.free.push(slot);
                self.metrics.on_handoff_failed();
                continue;
            }
            let mut conn = conn;
            conn.interest = Some(Interest::READABLE);
            self.conns[slot] = Some(conn);
            self.metrics.on_adopt(self.idx);
            if let (Some(wheel), Some(idle)) = (wheel.as_deref_mut(), self.idle_timeout()) {
                wheel.insert(now + idle, slot, self.gens[slot]);
            }
        }
    }

    fn deliver_completions(&mut self) {
        while let Ok((key, line)) = self.completion_rx.try_recv() {
            if self.gens.get(key.slot) != Some(&key.gen) {
                continue;
            }
            let Some(conn) = self.conns[key.slot].as_mut() else { continue };
            debug_assert!(conn.await_engine);
            conn.await_engine = false;
            conn.last_activity = Instant::now();
            self.in_flight = self.in_flight.saturating_sub(1);
            conn.queue_response(&line);
            self.process(key.slot);
        }
    }

    fn read_ready(&mut self, slot: usize, scratch: &mut [u8]) {
        let conn = self.conns[slot].as_mut().expect("checked by caller");
        match conn.read_once(scratch) {
            Ok(true) => {
                conn.last_activity = Instant::now();
                self.process(slot);
            }
            Ok(false) => {}
            Err(_) => self.close(slot, CloseReason::Abnormal),
        }
    }

    fn write_ready(&mut self, slot: usize) {
        // Flush first, then resume framing if the backlog dropped below
        // the high-water mark (`process` re-checks and re-arms).
        self.settle(slot);
        if self.conns[slot].is_some() {
            self.process(slot);
        }
    }

    /// Frames and dispatches as many buffered requests as policy allows,
    /// then flushes and reconciles interest.
    fn process(&mut self, slot: usize) {
        loop {
            let Some(conn) = self.conns[slot].as_mut() else { return };
            if conn.closing
                || conn.await_engine
                || conn.write_backlog() >= self.config.write_high_water
                || self.draining_since.is_some()
            {
                break;
            }
            match conn.next_line(self.config.max_line_bytes) {
                LineStep::Overlong => {
                    let response = self.service.overlong_response();
                    let conn = self.conns[slot].as_mut().expect("slot live");
                    conn.queue_response(&response);
                }
                LineStep::Line { start, end } => {
                    let completion = Completion {
                        tx: self.completion_tx.clone(),
                        key: CompletionKey { slot, gen: self.gens[slot] },
                        shard: self.idx,
                        waker: Arc::clone(&self.waker),
                    };
                    let action = {
                        let conn = self.conns[slot].as_ref().expect("slot live");
                        self.service.on_line(conn.line(start, end), completion)
                    };
                    let conn = self.conns[slot].as_mut().expect("slot live");
                    match action {
                        Action::Respond(response) => conn.queue_response(&response),
                        Action::RespondClose(response) => {
                            conn.queue_response(&response);
                            conn.closing = true;
                        }
                        Action::Deferred => {
                            conn.await_engine = true;
                            self.in_flight += 1;
                        }
                    }
                }
                LineStep::Pending => {
                    if conn.peer_eof {
                        conn.closing = true;
                    }
                    break;
                }
            }
        }
        if let Some(conn) = self.conns[slot].as_mut() {
            conn.compact();
        }
        self.settle(slot);
    }

    /// Flushes queued output and reconciles the connection's registered
    /// interest with what it can currently progress on; closes the
    /// connection if it is finished (or its socket failed).
    fn settle(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].as_mut() else { return };
        match conn.try_flush() {
            Ok(n) => {
                if n > 0 {
                    conn.last_activity = Instant::now();
                }
            }
            Err(_) => {
                self.close(slot, CloseReason::Abnormal);
                return;
            }
        }
        let conn = self.conns[slot].as_mut().expect("slot live");
        // Finished: the service asked to close, or the shutdown drain is on
        // and the connection owes nothing.  Both are orderly closes, not
        // drops (force-closes of peers that won't drain happen in
        // `drain_step` and do count as drops).
        if conn.write_backlog() == 0
            && (conn.closing || (self.draining_since.is_some() && !conn.await_engine))
        {
            self.close(slot, CloseReason::Clean);
            return;
        }
        let wants_read = !conn.closing
            && !conn.await_engine
            && !conn.peer_eof
            && conn.write_backlog() < self.config.write_high_water
            && self.draining_since.is_none();
        let wants_write = conn.write_backlog() > 0;
        let desired = match (wants_read, wants_write) {
            (true, true) => Some(Interest::READABLE.add(Interest::WRITABLE)),
            (true, false) => Some(Interest::READABLE),
            (false, true) => Some(Interest::WRITABLE),
            (false, false) => None,
        };
        if desired == conn.interest {
            return;
        }
        let outcome = match (conn.interest, desired) {
            (None, Some(interest)) => self.poll.register(&conn.stream, Token(slot), interest),
            (Some(_), Some(interest)) => self.poll.reregister(&conn.stream, Token(slot), interest),
            (Some(_), None) => self.poll.deregister(&conn.stream),
            (None, None) => Ok(()),
        };
        match outcome {
            Ok(()) => conn.interest = desired,
            Err(_) => self.close(slot, CloseReason::Abnormal),
        }
    }

    fn close(&mut self, slot: usize, reason: CloseReason) {
        let Some(conn) = self.conns[slot].take() else { return };
        if conn.interest.is_some() {
            let _ = self.poll.deregister(&conn.stream);
        }
        if conn.await_engine {
            self.in_flight = self.in_flight.saturating_sub(1);
        }
        // The service releases per-connection state under the id the
        // connection lived as — before the generation bump retires it.
        self.service.on_close(ConnId { shard: self.idx, slot, gen: self.gens[slot] });
        self.gens[slot] += 1;
        self.free.push(slot);
        self.metrics.on_close(self.idx, reason);
        // Dropping `conn` closes the socket.
    }
}
