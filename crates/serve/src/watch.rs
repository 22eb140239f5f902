//! A change counter that background threads can block on.
//!
//! The engine thread [bumps](ChangeWatch::bump) the counter after every
//! command that can change counts or the published snapshot; the
//! server's own fabric pumps (an ingest node's or a coordinator's, see
//! [`crate::fabric`]) [wait past](ChangeWatch::wait_past) the generation
//! they last acted on, so a change is propagated as soon as it happens
//! instead of on the next timer tick.  The pumps are the only waiters: the
//! watch is private to the server, which closes it on shutdown after the
//! reactor has drained and before the engine stops.  Any number of bumps
//! during one delivery fold into a single wake: the waiter then ships the
//! latest state, which (cumulative shards, version-gated snapshots)
//! subsumes every earlier one.
//!
//! [Closing](ChangeWatch::close) the watch wakes every waiter at once, so a
//! background thread parked on it is stoppable without a polling slice.
//!
//! Readers never touch this lock: snapshot loads stay wait-free.

use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// A monotone change counter with a close flag.
#[derive(Debug, Default)]
pub struct ChangeWatch {
    state: Mutex<WatchState>,
    changed: Condvar,
}

#[derive(Debug, Default)]
struct WatchState {
    generation: u64,
    closed: bool,
}

impl ChangeWatch {
    /// A fresh watch at generation 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a change and wakes every waiter.
    pub fn bump(&self) {
        self.lock().generation += 1;
        self.changed.notify_all();
    }

    /// Closes the watch and wakes every waiter; later waits return at once.
    pub fn close(&self) {
        self.lock().closed = true;
        self.changed.notify_all();
    }

    /// The current generation, or `None` once closed.
    pub fn generation(&self) -> Option<u64> {
        let state = self.lock();
        (!state.closed).then_some(state.generation)
    }

    /// Blocks until the generation moves past `seen`, the watch closes, or
    /// `timeout` elapses; returns the generation then current (`seen` on a
    /// timeout), or `None` once closed.
    pub fn wait_past(&self, seen: u64, timeout: Duration) -> Option<u64> {
        let state = self.wait_while(timeout, |s| s.generation == seen);
        (!state.closed).then_some(state.generation)
    }

    /// Blocks until the watch closes or `timeout` elapses, ignoring bumps;
    /// true once closed.
    pub fn wait_closed(&self, timeout: Duration) -> bool {
        self.wait_while(timeout, |_| true).closed
    }

    fn wait_while(
        &self,
        timeout: Duration,
        mut pending: impl FnMut(&WatchState) -> bool,
    ) -> MutexGuard<'_, WatchState> {
        let guard = self.lock();
        let (guard, _) = self
            .changed
            .wait_timeout_while(guard, timeout, |s| !s.closed && pending(s))
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        guard
    }

    fn lock(&self) -> MutexGuard<'_, WatchState> {
        // The state is two plain fields, never left half-written: a
        // panicking holder cannot corrupt it.
        self.state.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn wait_past_returns_at_once_when_already_moved() {
        let watch = ChangeWatch::new();
        watch.bump();
        watch.bump();
        assert_eq!(watch.wait_past(0, Duration::from_secs(60)), Some(2));
    }

    #[test]
    fn wait_past_times_out_at_the_seen_generation() {
        let watch = ChangeWatch::new();
        let started = Instant::now();
        assert_eq!(watch.wait_past(0, Duration::from_millis(20)), Some(0));
        assert!(started.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn a_bump_from_another_thread_wakes_the_waiter() {
        let watch = Arc::new(ChangeWatch::new());
        let bumper = {
            let watch = Arc::clone(&watch);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                watch.bump();
            })
        };
        let started = Instant::now();
        assert_eq!(watch.wait_past(0, Duration::from_secs(60)), Some(1));
        assert!(started.elapsed() < Duration::from_secs(30));
        bumper.join().unwrap();
    }

    #[test]
    fn close_wakes_both_kinds_of_waiter_and_sticks() {
        let watch = Arc::new(ChangeWatch::new());
        let waiters: Vec<_> = (0..2)
            .map(|kind| {
                let watch = Arc::clone(&watch);
                std::thread::spawn(move || {
                    if kind == 0 {
                        watch.wait_past(0, Duration::from_secs(60)).is_none()
                    } else {
                        watch.wait_closed(Duration::from_secs(60))
                    }
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(20));
        watch.close();
        for waiter in waiters {
            assert!(waiter.join().unwrap());
        }
        assert_eq!(watch.generation(), None);
        assert!(watch.wait_closed(Duration::from_secs(60)));
    }

    #[test]
    fn wait_closed_ignores_bumps() {
        let watch = ChangeWatch::new();
        watch.bump();
        assert!(!watch.wait_closed(Duration::from_millis(10)));
        assert_eq!(watch.generation(), Some(1));
    }
}
