//! Bounded retry-with-backoff over a reconnecting [`LineClient`].
//!
//! Every fabric pump talks to its peers through a [`FabricClient`]: a lazy
//! connection plus a [`RetryPolicy`].  Transport failures (connect refusal,
//! socket timeout, a torn response) drop the connection and retry with
//! exponential backoff; **protocol** errors — the peer answered, and said
//! no — are returned immediately, because resending the same request would
//! only earn the same refusal.  A call that runs out of attempts returns
//! its last attempt's [`ServeError`].

use crate::{ClientConfig, LineClient, ServeError};
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::time::Duration;

/// How hard a [`FabricClient`] tries before giving up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try included); at least 1.
    pub attempts: usize,
    /// Backoff before the second attempt; doubles each retry.
    pub initial_backoff: Duration,
    /// Cap on the doubled backoff.
    pub max_backoff: Duration,
    /// Socket deadline (connect, read and write) for each attempt.
    pub deadline: Duration,
    /// Jitter as a percentage of the backoff (0–100): each sleep is scaled
    /// by a random factor in `[1 − jitter/100, 1]`.  Without it, every
    /// pusher that watched the same coordinator die retries in lockstep —
    /// a reconnect thundering herd arriving exactly when the restarted
    /// node is busiest recovering.
    pub jitter_percent: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            attempts: 5,
            initial_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            deadline: Duration::from_secs(5),
            jitter_percent: 50,
        }
    }
}

impl RetryPolicy {
    /// The default policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// A policy for tests and tight in-process loops: fewer, faster tries.
    pub fn fast() -> Self {
        Self {
            attempts: 3,
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(100),
            deadline: Duration::from_secs(5),
            jitter_percent: 50,
        }
    }

    /// Full (un-jittered) backoff after the `n`-th failed attempt
    /// (0-based) — the deterministic upper envelope of the sleep.
    pub fn backoff(&self, n: u32) -> Duration {
        let doubled = self
            .initial_backoff
            .checked_mul(1u32.checked_shl(n).unwrap_or(u32::MAX))
            .unwrap_or(self.max_backoff);
        doubled.min(self.max_backoff)
    }

    /// A sleep actually taken: `full` (a [`RetryPolicy::backoff`] or a
    /// server's `retry_after_ms` hint) scaled by the factor
    /// `1 − draw · jitter/100`, in `[1 − jitter/100, 1]` for a uniform
    /// `draw` in `[0, 1)`.  Random draws decorrelate the retry clocks of
    /// peers that failed, or were shed, at the same instant.
    pub fn jitter(&self, full: Duration, draw: f64) -> Duration {
        full.mul_f64(1.0 - draw * f64::from(self.jitter_percent.min(100)) / 100.0)
    }
}

/// A reconnecting, retrying client for one peer address.
pub struct FabricClient {
    addr: String,
    policy: RetryPolicy,
    client: Option<LineClient>,
    /// Per-client jitter stream (splitmix64), seeded from the OS-keyed
    /// std hasher so clients born at the same instant (every pusher,
    /// after a coordinator outage) still draw different backoff factors.
    jitter_state: u64,
}

impl FabricClient {
    /// A client for `addr`; no connection is made until the first call.
    pub fn new(addr: impl Into<String>, policy: RetryPolicy) -> Self {
        let addr = addr.into();
        let jitter_state = RandomState::new().hash_one(&addr);
        Self { addr, policy, client: None, jitter_state }
    }

    /// The next uniform draw in `[0, 1)` of this client's jitter stream.
    fn next_draw(&mut self) -> f64 {
        self.jitter_state = self.jitter_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.jitter_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The peer address this client talks to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Runs `op` against a connected client, reconnecting and retrying
    /// transport failures up to the policy's attempt budget.
    ///
    /// [`ServeError::Remote`] (the peer answered with a structured error)
    /// is **not** retried — the request reached the peer and was refused,
    /// so the refusal is the answer — with one exception:
    /// `server-overloaded` sheds are explicitly transient, so they are
    /// retried on the same connection, sleeping the server's
    /// `retry_after_ms` hint (jittered, capped at the policy's
    /// `max_backoff`) instead of the exponential schedule.
    pub fn call<T>(
        &mut self,
        mut op: impl FnMut(&mut LineClient) -> Result<T, ServeError>,
    ) -> Result<T, ServeError> {
        let mut last = None;
        let mut sleep_hint: Option<Duration> = None;
        for attempt in 0..self.policy.attempts.max(1) {
            if attempt > 0 {
                let full = match sleep_hint.take() {
                    Some(hint) => hint.min(self.policy.max_backoff),
                    None => self.policy.backoff(attempt as u32 - 1),
                };
                let draw = self.next_draw();
                std::thread::sleep(self.policy.jitter(full, draw));
            }
            let client = match self.client.as_mut() {
                Some(client) => client,
                None => {
                    let config = ClientConfig::with_deadline(self.policy.deadline);
                    match LineClient::connect_with(&self.addr, &config) {
                        Ok(client) => self.client.insert(client),
                        Err(e) => {
                            last = Some(e);
                            continue;
                        }
                    }
                }
            };
            match op(client) {
                Ok(value) => return Ok(value),
                Err(ServeError::Remote { code, message, retry_after_ms })
                    if code == "server-overloaded" =>
                {
                    // A shed, not a verdict: the connection answered and
                    // stays healthy, so keep it and retry after the
                    // server's hint (or the normal schedule without one).
                    sleep_hint = retry_after_ms.map(|ms| Duration::from_millis(ms.max(1)));
                    last = Some(ServeError::Remote { code, message, retry_after_ms });
                }
                Err(e @ ServeError::Remote { .. }) => return Err(e),
                Err(e) => {
                    // Transport or framing trouble: the connection's state
                    // is unknown, so drop it and reconnect on the retry.
                    last = Some(e);
                    self.client = None;
                }
            }
        }
        Err(last.expect("at least one attempt is always made"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng, StdRng};

    #[test]
    fn backoff_doubles_and_caps() {
        let policy = RetryPolicy {
            attempts: 5,
            initial_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_millis(300),
            deadline: Duration::from_secs(1),
            jitter_percent: 50,
        };
        assert_eq!(policy.backoff(0), Duration::from_millis(50));
        assert_eq!(policy.backoff(1), Duration::from_millis(100));
        assert_eq!(policy.backoff(2), Duration::from_millis(200));
        assert_eq!(policy.backoff(3), Duration::from_millis(300));
        assert_eq!(policy.backoff(30), Duration::from_millis(300));
    }

    #[test]
    fn jittered_backoff_stays_in_band_and_decorrelates() {
        let policy = RetryPolicy { jitter_percent: 50, ..RetryPolicy::default() };
        let full = policy.backoff(2);
        let mut rng = StdRng::seed_from_u64(7);
        let draws: Vec<Duration> = (0..64).map(|_| policy.jitter(full, rng.random())).collect();
        for d in &draws {
            assert!(*d <= full, "jitter may only shorten the sleep");
            assert!(d.as_secs_f64() >= full.as_secs_f64() * 0.5 - 1e-9);
        }
        assert!(
            draws.iter().collect::<std::collections::BTreeSet<_>>().len() > 1,
            "jitter must actually vary"
        );

        let none = RetryPolicy { jitter_percent: 0, ..RetryPolicy::default() };
        assert_eq!(none.jitter(none.backoff(2), rng.random()), none.backoff(2));
    }

    #[test]
    fn clients_draw_independent_jitter_streams() {
        let mut a = FabricClient::new("127.0.0.1:1", RetryPolicy::default());
        let mut b = FabricClient::new("127.0.0.1:1", RetryPolicy::default());
        let (da, db): (Vec<f64>, Vec<f64>) =
            (0..16).map(|_| (a.next_draw(), b.next_draw())).unzip();
        assert!(da.iter().chain(&db).all(|d| (0.0..1.0).contains(d)));
        assert_ne!(da, db, "two clients of one peer must not retry in lockstep");
    }

    #[test]
    fn hint_jitter_stays_under_the_hint() {
        let policy = RetryPolicy { jitter_percent: 50, ..RetryPolicy::default() };
        let mut rng = StdRng::seed_from_u64(11);
        let hint = Duration::from_millis(80);
        for _ in 0..32 {
            let slept = policy.jitter(hint, rng.random());
            assert!(slept <= hint);
            assert!(slept.as_secs_f64() >= hint.as_secs_f64() * 0.5 - 1e-9);
        }
        let none = RetryPolicy { jitter_percent: 0, ..RetryPolicy::default() };
        assert_eq!(none.jitter(hint, rng.random()), hint);
    }

    #[test]
    fn overload_refusals_are_retried_and_other_refusals_are_not() {
        use crate::{BucketSpec, RateLimitConfig, ServeConfig, Server};
        use pka_contingency::Schema;

        let schema = Schema::uniform(&[2, 2]).unwrap().into_shared();
        // One banked request per connection, refilling fast enough for a
        // bounded test: the second immediate request is always refused
        // with a `server-overloaded` hint, and honoring the hint makes a
        // retry succeed.
        let config = ServeConfig::new().with_rate_limit(RateLimitConfig {
            per_conn: Some(BucketSpec { rate_per_sec: 20.0, burst: 1.0 }),
            ..Default::default()
        });
        let server = Server::start(schema, config).unwrap();
        let mut client = FabricClient::new(
            server.addr().to_string(),
            RetryPolicy {
                attempts: 5,
                initial_backoff: Duration::from_millis(10),
                max_backoff: Duration::from_millis(500),
                deadline: Duration::from_secs(5),
                jitter_percent: 0,
            },
        );
        // Drain the banked token, then ask again: the refusal must be
        // retried (sleeping the hint) rather than surfaced, and the same
        // connection must carry the eventual success.
        client.call(|c| c.ping()).unwrap();
        client.call(|c| c.ping()).unwrap();

        // A non-overload refusal is the answer: no retry, no exhaustion.
        match client.call(|c| c.call("no-such-method", crate::protocol::object([])).map(|_| ())) {
            Err(ServeError::Remote { code, .. }) => {
                assert_eq!(code, "unknown-method");
            }
            other => panic!("expected an immediate refusal, got {other:?}"),
        }
        server.shutdown().unwrap();
    }

    #[test]
    fn unreachable_peer_exhausts_with_the_last_error() {
        let policy = RetryPolicy {
            attempts: 2,
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(1),
            deadline: Duration::from_millis(200),
            jitter_percent: 0,
        };
        // A port from the dynamic range with nothing listening: connects
        // are refused immediately, so this stays fast.
        match FabricClient::new("127.0.0.1:1", policy.clone()).call(|c| c.ping()) {
            Err(ServeError::Io(e)) => assert!(!e.to_string().is_empty()),
            other => panic!("expected the refused connect, got {other:?}"),
        }

        // A listener that never accepts still completes connects (the
        // kernel's backlog does), so every attempt reaches `op`: the
        // client makes exactly `attempts` of them and returns the last
        // attempt's transport error.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = FabricClient::new(listener.local_addr().unwrap().to_string(), policy);
        let mut tries = 0;
        let outcome: Result<(), ServeError> = client.call(|_| {
            tries += 1;
            Err(ServeError::Io(std::io::Error::other(format!("attempt {tries}"))))
        });
        match outcome {
            Err(ServeError::Io(e)) => assert_eq!(e.to_string(), "attempt 2"),
            other => panic!("expected exhaustion, got {other:?}"),
        }
        assert_eq!(tries, 2);
    }
}
