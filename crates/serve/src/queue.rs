//! The bounded, two-class admission queue in front of the engine thread.
//!
//! PR 8 replaced the unbounded MPSC between the loop shards and the
//! single-writer engine with this queue, which is where overload policy
//! lives: write-class commands (`ingest`, `shard-push`) are admitted up
//! to a configurable cap and **shed** with a structured
//! `server-overloaded` refusal beyond it, while the small control class
//! (`refresh`, `stats`, fabric export/sync) has its own generous cap and
//! is always dequeued first.  Shedding keeps the server live under any
//! offered load: reads never pass through this queue at all (they are
//! answered wait-free from the published snapshot), so an overloaded
//! node degrades to a stale-but-answering knowledge base instead of an
//! unbounded backlog.
//!
//! The queue also carries each command's optional deadline so the engine
//! can refuse work whose budget expired while it waited, and it keeps an
//! EWMA of engine service time so shed refusals can tell the client how
//! long to back off (`retry_after_ms ≈ depth × service time`).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Admission class of one engine command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandClass {
    /// Rare, operator- or fabric-initiated work (`refresh`, `stats`, an
    /// ingest node's shard export, `snapshot-sync`).  Dequeued before any write
    /// so an overloaded node can still be inspected and refitted.
    Control,
    /// Steady-state mutation traffic (`ingest`, `shard-push`) — the class
    /// that is shed under overload.
    Write,
}

/// One queued command plus its admission metadata.
#[derive(Debug)]
pub struct QueueEntry<T> {
    /// The command itself.
    pub item: T,
    /// When the request's `deadline_ms` budget expires, if it set one.
    pub deadline: Option<Instant>,
}

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushRefusal {
    /// The class's queue is full; the command was shed.  `retry_after` is
    /// the server's backoff hint (current depth × EWMA service time,
    /// clamped to a sane range).
    Full {
        /// Suggested client backoff before retrying.
        retry_after: Duration,
    },
    /// Every sender dropped or the queue was closed: the server is
    /// shutting down.
    Closed,
}

/// What a blocking receive produced.
#[derive(Debug)]
pub enum RecvOutcome<T> {
    /// The next command, control class first.
    Item(QueueEntry<T>),
    /// The timeout elapsed with the queue empty (durability tick).
    TimedOut,
    /// Queue empty and closed: every sender is gone, drain is complete.
    Closed,
}

struct QueueState<T> {
    control: VecDeque<QueueEntry<T>>,
    write: VecDeque<QueueEntry<T>>,
    closed: bool,
}

/// Shared core of the bounded queue; see the module docs.  Created via
/// [`engine_channel`], which splits it into a cloneable [`EngineSender`]
/// and this receiver/stats handle.
pub struct EngineQueue<T> {
    state: Mutex<QueueState<T>>,
    available: Condvar,
    write_cap: usize,
    control_cap: usize,
    depth: AtomicU64,
    shed_writes: AtomicU64,
    shed_control: AtomicU64,
    service_ewma_us: AtomicU64,
}

/// Control-class cap: generous relative to realistic control traffic
/// (stats pollers, fabric pumps), small in absolute memory.
const CONTROL_CAP: usize = 256;

/// Bounds on the shed backoff hint.
const MIN_RETRY_AFTER: Duration = Duration::from_millis(10);
const MAX_RETRY_AFTER: Duration = Duration::from_millis(2_000);

/// Starting guess for engine service time before any command completes.
const INITIAL_SERVICE_US: u64 = 500;

impl<T> EngineQueue<T> {
    fn new(write_cap: usize) -> Self {
        Self {
            state: Mutex::new(QueueState {
                control: VecDeque::new(),
                write: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
            write_cap: write_cap.max(1),
            control_cap: CONTROL_CAP,
            depth: AtomicU64::new(0),
            shed_writes: AtomicU64::new(0),
            shed_control: AtomicU64::new(0),
            service_ewma_us: AtomicU64::new(INITIAL_SERVICE_US),
        }
    }

    /// Current queued commands across both classes (a gauge).
    pub fn depth(&self) -> u64 {
        self.depth.load(Ordering::Relaxed)
    }

    /// The write-class admission cap.
    pub fn write_cap(&self) -> usize {
        self.write_cap
    }

    /// Write-class commands shed since startup.
    pub fn shed_writes(&self) -> u64 {
        self.shed_writes.load(Ordering::Relaxed)
    }

    /// Control-class commands shed since startup.
    pub fn shed_control(&self) -> u64 {
        self.shed_control.load(Ordering::Relaxed)
    }

    /// Folds one observed engine service time into the EWMA behind the
    /// shed backoff hint (α = 1/4, integer micros).
    pub fn note_service_time(&self, elapsed: Duration) {
        let sample = elapsed.as_micros().min(u128::from(u64::MAX)) as u64;
        let old = self.service_ewma_us.load(Ordering::Relaxed);
        let new = old - old / 4 + sample / 4;
        self.service_ewma_us.store(new.max(1), Ordering::Relaxed);
    }

    /// The backoff hint a shed refusal should carry right now.
    pub fn retry_after(&self) -> Duration {
        let per_item = Duration::from_micros(self.service_ewma_us.load(Ordering::Relaxed));
        let backlog = per_item.saturating_mul(self.depth().min(1 << 20) as u32 + 1);
        backlog.clamp(MIN_RETRY_AFTER, MAX_RETRY_AFTER)
    }

    /// Dequeues the next command — control before write — blocking up to
    /// `timeout` (forever when `None`).
    pub fn recv(&self, timeout: Option<Duration>) -> RecvOutcome<T> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut state = self.state.lock().expect("engine queue poisoned");
        loop {
            if let Some(entry) = state.control.pop_front().or_else(|| state.write.pop_front()) {
                self.depth.fetch_sub(1, Ordering::Relaxed);
                return RecvOutcome::Item(entry);
            }
            if state.closed {
                return RecvOutcome::Closed;
            }
            state = match deadline {
                None => self.available.wait(state).expect("engine queue poisoned"),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return RecvOutcome::TimedOut;
                    }
                    let (guard, result) =
                        self.available.wait_timeout(state, d - now).expect("engine queue poisoned");
                    if result.timed_out()
                        && guard.control.is_empty()
                        && guard.write.is_empty()
                        && !guard.closed
                    {
                        return RecvOutcome::TimedOut;
                    }
                    guard
                }
            };
        }
    }

    /// Removes every queued write-class entry matching `matches`, in queue
    /// order — the batched-absorption drain: after popping one
    /// `shard-push`, the engine collects all others waiting behind it and
    /// merges the whole batch in one pass over the placement map.
    pub fn drain_write_matching(&self, matches: impl Fn(&T) -> bool) -> Vec<QueueEntry<T>> {
        let mut state = self.state.lock().expect("engine queue poisoned");
        let mut drained = Vec::new();
        let mut kept = VecDeque::with_capacity(state.write.len());
        while let Some(entry) = state.write.pop_front() {
            if matches(&entry.item) {
                drained.push(entry);
            } else {
                kept.push_back(entry);
            }
        }
        state.write = kept;
        self.depth.fetch_sub(drained.len() as u64, Ordering::Relaxed);
        drained
    }

    fn push(&self, class: CommandClass, entry: QueueEntry<T>) -> Result<(), PushRefusal> {
        let mut state = self.state.lock().expect("engine queue poisoned");
        if state.closed {
            return Err(PushRefusal::Closed);
        }
        let (queue, cap, shed) = match class {
            CommandClass::Control => (&mut state.control, self.control_cap, &self.shed_control),
            CommandClass::Write => (&mut state.write, self.write_cap, &self.shed_writes),
        };
        if queue.len() >= cap {
            shed.fetch_add(1, Ordering::Relaxed);
            drop(state);
            return Err(PushRefusal::Full { retry_after: self.retry_after() });
        }
        queue.push_back(entry);
        self.depth.fetch_add(1, Ordering::Relaxed);
        drop(state);
        self.available.notify_one();
        Ok(())
    }

    fn close(&self) {
        self.state.lock().expect("engine queue poisoned").closed = true;
        self.available.notify_all();
    }
}

/// The push side of the queue.  Clones share one sender count; when the
/// last clone drops the queue closes and the engine thread drains out and
/// exits — the same lifecycle contract as the `mpsc::Sender` this
/// replaced (the reactor threads hold the only senders).
pub struct EngineSender<T> {
    queue: Arc<EngineQueue<T>>,
    senders: Arc<AtomicUsize>,
}

impl<T> EngineSender<T> {
    /// Admits one command to its class, or refuses with shed/closed.
    pub fn push(
        &self,
        class: CommandClass,
        item: T,
        deadline: Option<Instant>,
    ) -> Result<(), PushRefusal> {
        self.queue.push(class, QueueEntry { item, deadline })
    }

    /// The shared queue, for stats gauges.
    pub fn queue(&self) -> &Arc<EngineQueue<T>> {
        &self.queue
    }
}

impl<T> Clone for EngineSender<T> {
    fn clone(&self) -> Self {
        self.senders.fetch_add(1, Ordering::Relaxed);
        Self { queue: Arc::clone(&self.queue), senders: Arc::clone(&self.senders) }
    }
}

impl<T> Drop for EngineSender<T> {
    fn drop(&mut self) {
        if self.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.queue.close();
        }
    }
}

/// Builds the queue: a cloneable sender for the service side and the
/// shared queue for the engine/stats side.
pub fn engine_channel<T>(write_cap: usize) -> (EngineSender<T>, Arc<EngineQueue<T>>) {
    let queue = Arc::new(EngineQueue::new(write_cap));
    let sender = EngineSender { queue: Arc::clone(&queue), senders: Arc::new(AtomicUsize::new(1)) };
    (sender, queue)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::thread;

    #[test]
    fn control_dequeues_before_write() {
        let (tx, queue) = engine_channel::<&'static str>(8);
        tx.push(CommandClass::Write, "w1", None).unwrap();
        tx.push(CommandClass::Write, "w2", None).unwrap();
        tx.push(CommandClass::Control, "c1", None).unwrap();
        let order: Vec<_> = (0..3)
            .map(|_| match queue.recv(Some(Duration::from_secs(1))) {
                RecvOutcome::Item(e) => e.item,
                other => panic!("expected item, got {other:?}"),
            })
            .collect();
        assert_eq!(order, vec!["c1", "w1", "w2"]);
    }

    #[test]
    fn full_write_class_sheds_with_backoff_hint() {
        let (tx, queue) = engine_channel::<u32>(2);
        tx.push(CommandClass::Write, 1, None).unwrap();
        tx.push(CommandClass::Write, 2, None).unwrap();
        match tx.push(CommandClass::Write, 3, None) {
            Err(PushRefusal::Full { retry_after }) => {
                assert!(retry_after >= MIN_RETRY_AFTER);
                assert!(retry_after <= MAX_RETRY_AFTER);
            }
            other => panic!("expected shed, got {other:?}"),
        }
        assert_eq!(queue.shed_writes(), 1);
        // Control still admits while writes shed.
        tx.push(CommandClass::Control, 9, None).unwrap();
        assert_eq!(queue.depth(), 3);
    }

    #[test]
    fn last_sender_drop_closes_after_drain() {
        let (tx, queue) = engine_channel::<u32>(4);
        let tx2 = tx.clone();
        tx.push(CommandClass::Write, 7, None).unwrap();
        drop(tx);
        drop(tx2);
        assert!(matches!(queue.recv(None), RecvOutcome::Item(e) if e.item == 7));
        assert!(matches!(queue.recv(None), RecvOutcome::Closed));
        assert!(matches!(engine_channel::<u32>(4).0.push(CommandClass::Write, 0, None), Ok(())));
    }

    #[test]
    fn close_unblocks_a_waiting_receiver() {
        let (tx, queue) = engine_channel::<u32>(4);
        let waiter = thread::spawn(move || matches!(queue.recv(None), RecvOutcome::Closed));
        thread::sleep(Duration::from_millis(50));
        drop(tx);
        assert!(waiter.join().unwrap());
    }

    #[test]
    fn drain_collects_only_matching_writes_in_order() {
        let (tx, queue) = engine_channel::<u32>(16);
        for item in [1u32, 10, 2, 11, 3] {
            tx.push(CommandClass::Write, item, None).unwrap();
        }
        tx.push(CommandClass::Control, 99, None).unwrap();
        let drained: Vec<_> =
            queue.drain_write_matching(|&v| v >= 10).into_iter().map(|e| e.item).collect();
        assert_eq!(drained, vec![10, 11]);
        assert_eq!(queue.depth(), 4);
        let rest: Vec<_> = (0..4)
            .map(|_| match queue.recv(Some(Duration::from_secs(1))) {
                RecvOutcome::Item(e) => e.item,
                other => panic!("expected item, got {other:?}"),
            })
            .collect();
        assert_eq!(rest, vec![99, 1, 2, 3]);
    }

    proptest! {
        /// Conservation of offered load: every offered command is either
        /// admitted or counted shed — `admitted + shed == offered` — and
        /// the queue never holds more than its caps.
        #[test]
        fn shed_accounting_conserves_offered_load(
            cap in 1usize..32,
            ops in proptest::collection::vec((0u8..4, 0u8..2), 0..200),
        ) {
            let (tx, queue) = engine_channel::<u64>(cap);
            let mut offered = 0u64;
            let mut admitted = 0u64;
            let mut received = 0u64;
            for (kind, class_bit) in ops {
                if kind == 0 {
                    // Drain one if present.
                    if let RecvOutcome::Item(_) = queue.recv(Some(Duration::ZERO)) {
                        received += 1;
                    }
                    continue;
                }
                let class = if class_bit == 0 { CommandClass::Write } else { CommandClass::Control };
                offered += 1;
                match tx.push(class, offered, None) {
                    Ok(()) => admitted += 1,
                    Err(PushRefusal::Full { retry_after }) => {
                        prop_assert!(retry_after > Duration::ZERO);
                    }
                    Err(PushRefusal::Closed) => prop_assert!(false, "queue closed early"),
                }
                prop_assert!(queue.depth() <= (cap + CONTROL_CAP) as u64);
            }
            let shed = queue.shed_writes() + queue.shed_control();
            prop_assert_eq!(admitted + shed, offered);
            prop_assert_eq!(queue.depth(), admitted - received);
        }

        /// After any push pattern, draining the queue dry yields exactly
        /// the admitted commands.
        #[test]
        fn drain_returns_exactly_the_admitted(
            cap in 1usize..16,
            pushes in 0u64..64,
        ) {
            let (tx, queue) = engine_channel::<u64>(cap);
            let mut admitted = 0u64;
            for i in 0..pushes {
                if tx.push(CommandClass::Write, i, None).is_ok() {
                    admitted += 1;
                }
            }
            prop_assert_eq!(admitted, pushes.min(cap as u64));
            let mut drained = 0u64;
            while let RecvOutcome::Item(_) = queue.recv(Some(Duration::ZERO)) {
                drained += 1;
            }
            prop_assert_eq!(drained, admitted);
            prop_assert_eq!(queue.depth(), 0);
        }
    }
}
