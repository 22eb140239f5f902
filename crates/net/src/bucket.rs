//! A token bucket: the admission primitive behind per-connection and
//! per-method-class rate limiting.
//!
//! The bucket holds up to `burst` tokens and refills continuously at
//! `rate_per_sec`.  Admission takes one token; an empty bucket refuses
//! and reports how long until the next token accrues, which callers turn
//! into a `retry-after-ms` hint on the structured refusal line.
//!
//! Time is injected (`advance` + `try_take`) rather than read inside, so
//! the arithmetic is a pure function of elapsed durations — that is what
//! the property tests in `tests/admission.rs` pin down: tokens are never
//! negative, refill saturates at `burst`, and admission is monotone in
//! elapsed time.  [`TokenBucket::try_acquire`] is the wall-clock
//! convenience wrapper a service's admission check uses.

use std::time::{Duration, Instant};

/// A continuously-refilling token bucket.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate_per_sec: f64,
    burst: f64,
    tokens: f64,
    last: Instant,
}

impl TokenBucket {
    /// A bucket refilling at `rate_per_sec` with capacity `burst`,
    /// starting full.  Rates and bursts are clamped to a small positive
    /// floor so a zero-configured bucket refuses (with a finite hint)
    /// instead of dividing by zero.
    pub fn new(rate_per_sec: f64, burst: f64) -> Self {
        let rate_per_sec = if rate_per_sec.is_finite() { rate_per_sec.max(1e-6) } else { 1e-6 };
        let burst = if burst.is_finite() { burst.clamp(1.0, 1e12) } else { 1.0 };
        Self { rate_per_sec, burst, tokens: burst, last: Instant::now() }
    }

    /// Current token count (test observability).
    pub fn tokens(&self) -> f64 {
        self.tokens
    }

    /// The bucket's capacity.
    pub fn burst(&self) -> f64 {
        self.burst
    }

    /// Accrues `elapsed` worth of refill, saturating at `burst`.
    pub fn advance(&mut self, elapsed: Duration) {
        self.tokens = (self.tokens + elapsed.as_secs_f64() * self.rate_per_sec).min(self.burst);
    }

    /// Takes one token if available; otherwise reports how long until one
    /// accrues at the configured rate.
    pub fn try_take(&mut self) -> Result<(), Duration> {
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            return Ok(());
        }
        let deficit = 1.0 - self.tokens;
        let wait = (deficit / self.rate_per_sec).min(3600.0);
        Err(Duration::from_secs_f64(wait))
    }

    /// Wall-clock admission: accrues since the last call, then takes one
    /// token or reports the wait.
    pub fn try_acquire(&mut self) -> Result<(), Duration> {
        let now = Instant::now();
        self.advance(now.saturating_duration_since(self.last));
        self.last = now;
        self.try_take()
    }
}
