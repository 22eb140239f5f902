//! Admission control for the serve front end: token-bucket rate
//! limiting and arrival-time deadline refusal, checked by the protocol
//! service on the envelope [`crate::protocol::parse_request`] built.
//!
//! The checks run on the loop-shard threads and refuse with structured
//! protocol errors, so a limited client keeps a usable connection and a
//! machine-readable reason — only the excess traffic is refused, and the
//! engine never sees it.

use crate::protocol::{ErrorCode, Request, RequestError};
use pka_net::{ConnId, TokenBucket};
use serde::Value;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// One token bucket's shape: sustained rate plus burst capacity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BucketSpec {
    /// Sustained admissions per second.
    pub rate_per_sec: f64,
    /// Maximum banked admissions (the bucket starts full).
    pub burst: f64,
}

impl BucketSpec {
    /// Parses the CLI shape `RATE` or `RATE:BURST` (e.g. `500` or
    /// `500:64`).  Burst defaults to the rate, floored at 1.
    pub fn parse(text: &str) -> Result<Self, String> {
        let (rate_text, burst_text) = match text.split_once(':') {
            Some((r, b)) => (r, Some(b)),
            None => (text, None),
        };
        let rate_per_sec: f64 = rate_text
            .trim()
            .parse()
            .map_err(|_| format!("bad rate `{rate_text}`: expected a number"))?;
        if !rate_per_sec.is_finite() || rate_per_sec <= 0.0 {
            return Err(format!("bad rate `{rate_text}`: must be positive"));
        }
        let burst = match burst_text {
            None => rate_per_sec.max(1.0),
            Some(b) => {
                let burst: f64 =
                    b.trim().parse().map_err(|_| format!("bad burst `{b}`: expected a number"))?;
                if !burst.is_finite() || burst < 1.0 {
                    return Err(format!("bad burst `{b}`: must be at least 1"));
                }
                burst
            }
        };
        Ok(Self { rate_per_sec, burst })
    }

    fn bucket(&self) -> TokenBucket {
        TokenBucket::new(self.rate_per_sec, self.burst)
    }
}

/// Rate-limit policy for the front end; `None` specs disable that bucket.
/// Default: everything off — admission control is opt-in via the
/// `--rate-limit-*` flags.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RateLimitConfig {
    /// Per-connection limit on all request lines.
    pub per_conn: Option<BucketSpec>,
    /// Shared limit on read-class methods (`query`, `explain`, pulls…).
    pub read: Option<BucketSpec>,
    /// Shared limit on write-class methods (`ingest`, `shard-push`).
    pub write: Option<BucketSpec>,
}

/// Admission-control counters surfaced in `stats.server`.
#[derive(Debug, Default)]
pub struct AdmissionCounters {
    /// Requests refused by a token bucket.
    pub rate_limited: AtomicU64,
    /// Requests refused because their `deadline_ms` budget expired.
    pub deadline_exceeded: AtomicU64,
}

impl AdmissionCounters {
    pub(crate) fn note_rate_limited(&self) {
        self.rate_limited.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_deadline_exceeded(&self) {
        self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
    }
}

/// The wire class a method's rate limit draws from.
fn method_class(method: &str) -> Option<MethodClass> {
    match method {
        "query" | "query-batch" | "explain" | "snapshot-version" | "snapshot-pull" | "ping"
        | "schema" => Some(MethodClass::Read),
        "ingest" | "shard-push" | "snapshot-sync" => Some(MethodClass::Write),
        // Control/operator methods (`stats`, `refresh`, `shutdown`, and
        // anything unknown — the parser will refuse those) are never
        // rate limited: an overloaded node must stay inspectable.
        _ => None,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MethodClass {
    Read,
    Write,
}

/// Admission control on the loop shard: an arrival-time deadline check
/// plus token-bucket rate limiting with one optional bucket per
/// connection and shared read/write class buckets.  It judges the
/// envelope [`crate::protocol::parse_request`] already built, so the
/// parser is the only reader of a request line.  Refusals carry the
/// request's id; rate-limit refusals are `server-overloaded` with the
/// bucket's wait hint as `retry_after_ms`.
pub struct Admission {
    per_conn: Option<BucketSpec>,
    conns: Mutex<HashMap<ConnId, TokenBucket>>,
    read: Option<Mutex<TokenBucket>>,
    write: Option<Mutex<TokenBucket>>,
    counters: Arc<AdmissionCounters>,
}

impl Admission {
    /// Builds the checks from policy + the shared counters.
    pub fn new(config: RateLimitConfig, counters: Arc<AdmissionCounters>) -> Self {
        Self {
            per_conn: config.per_conn,
            conns: Mutex::new(HashMap::new()),
            read: config.read.map(|spec| Mutex::new(spec.bucket())),
            write: config.write.map(|spec| Mutex::new(spec.bucket())),
            counters,
        }
    }

    /// Admits a parsed request or returns its refusal.  The checks run in
    /// order: a `deadline_ms` budget of zero arrives already expired
    /// (`deadline-exceeded`, no tokens spent), then the connection's
    /// bucket, then the bucket of the method's class.  Positive budgets
    /// start counting at arrival and are enforced at the engine queue.
    pub fn admit(&self, conn: ConnId, request: &Request) -> Result<(), RequestError> {
        if request.deadline_ms == Some(0) {
            self.counters.note_deadline_exceeded();
            return Err(RequestError {
                code: ErrorCode::DeadlineExceeded,
                message: "deadline_ms budget expired on arrival".to_string(),
                id: request.id.clone(),
                retry_after_ms: None,
            });
        }
        self.charge_connection(conn, &request.id)?;
        let class_bucket = match method_class(&request.method) {
            Some(MethodClass::Read) => self.read.as_ref(),
            Some(MethodClass::Write) => self.write.as_ref(),
            None => None,
        };
        if let Some(bucket) = class_bucket {
            let taken = bucket.lock().expect("rate-limit state poisoned").try_acquire();
            taken.map_err(|wait| self.limited(&request.id, wait))?;
        }
        Ok(())
    }

    /// The connection closed; drop its bucket.
    pub fn release(&self, conn: ConnId) {
        self.conns.lock().expect("rate-limit state poisoned").remove(&conn);
    }

    /// Charges one request line to its connection's bucket.  This is the
    /// only check a line that failed to parse still meets; `id` is then
    /// whatever id the parser could read.
    pub fn charge_connection(&self, conn: ConnId, id: &Value) -> Result<(), RequestError> {
        let Some(spec) = &self.per_conn else { return Ok(()) };
        let mut conns = self.conns.lock().expect("rate-limit state poisoned");
        let bucket = conns.entry(conn).or_insert_with(|| spec.bucket());
        bucket.try_acquire().map_err(|wait| self.limited(id, wait))
    }

    fn limited(&self, id: &Value, wait: Duration) -> RequestError {
        self.counters.note_rate_limited();
        RequestError {
            code: ErrorCode::Overloaded,
            message: "rate limit exceeded; excess request refused".to_string(),
            id: id.clone(),
            retry_after_ms: Some((wait.as_millis() as u64).max(1)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol;

    #[test]
    fn bucket_spec_parses_rate_and_burst() {
        assert_eq!(
            BucketSpec::parse("500").unwrap(),
            BucketSpec { rate_per_sec: 500.0, burst: 500.0 }
        );
        assert_eq!(
            BucketSpec::parse("250:32").unwrap(),
            BucketSpec { rate_per_sec: 250.0, burst: 32.0 }
        );
        assert_eq!(BucketSpec::parse("0.5").unwrap(), BucketSpec { rate_per_sec: 0.5, burst: 1.0 });
        assert!(BucketSpec::parse("0").is_err());
        assert!(BucketSpec::parse("-3").is_err());
        assert!(BucketSpec::parse("10:0.5").is_err());
        assert!(BucketSpec::parse("fast").is_err());
    }

    fn conn(slot: usize) -> ConnId {
        ConnId { shard: 0, slot, gen: 1 }
    }

    /// The verdict on one request line, parsed the way the server parses
    /// it: `Ok` when admitted, else the refusal's code and id.
    fn verdict(admission: &Admission, conn: ConnId, line: &str) -> Result<(), RequestError> {
        match protocol::parse_request(line) {
            Ok(request) => admission.admit(conn, &request),
            Err(error) => admission.charge_connection(conn, &error.id),
        }
    }

    #[test]
    fn per_conn_bucket_refuses_the_excess_with_a_hint() {
        let counters = Arc::new(AdmissionCounters::default());
        let admission = Admission::new(
            RateLimitConfig {
                per_conn: Some(BucketSpec { rate_per_sec: 0.001, burst: 2.0 }),
                ..Default::default()
            },
            Arc::clone(&counters),
        );
        let line = "{\"id\":7,\"method\":\"ping\",\"params\":{}}";
        assert!(verdict(&admission, conn(0), line).is_ok());
        assert!(verdict(&admission, conn(0), line).is_ok());
        let refusal = verdict(&admission, conn(0), line).expect_err("third request is limited");
        assert_eq!(refusal.code, ErrorCode::Overloaded);
        assert!(refusal.retry_after_ms.is_some_and(|ms| ms >= 1));
        assert_eq!(refusal.id, Value::U64(7));
        // Another connection has its own bucket; a malformed line still
        // draws from it and is refused with whatever id the parser read.
        assert!(verdict(&admission, conn(1), line).is_ok());
        assert!(verdict(&admission, conn(1), "{\"id\":8,\"params\":{}}").is_ok());
        let refusal = verdict(&admission, conn(1), "not json").expect_err("bucket is empty");
        assert_eq!((refusal.code, refusal.id), (ErrorCode::Overloaded, Value::Null));
        let refusal = verdict(&admission, conn(1), "{\"id\":9}").expect_err("bucket is empty");
        assert_eq!(refusal.id, Value::U64(9));
        assert_eq!(counters.rate_limited.load(Ordering::Relaxed), 3);
        // Closing releases the per-connection state.
        admission.release(conn(0));
        assert!(admission.conns.lock().unwrap().len() == 1);
    }

    #[test]
    fn write_class_bucket_spares_reads() {
        let counters = Arc::new(AdmissionCounters::default());
        let admission = Admission::new(
            RateLimitConfig {
                write: Some(BucketSpec { rate_per_sec: 0.001, burst: 1.0 }),
                ..Default::default()
            },
            counters,
        );
        let write = "{\"id\":1,\"method\":\"ingest\",\"params\":{\"rows\":[]}}";
        let escaped = "{\"id\":1,\"method\":\"\\u0069ngest\",\"params\":{\"rows\":[]}}";
        let read = "{\"id\":2,\"method\":\"query\",\"params\":{\"method\":\"ingest\"}}";
        assert!(verdict(&admission, conn(0), write).is_ok());
        assert!(verdict(&admission, conn(0), write).is_err());
        // The class is the parsed method: an escaped spelling is the same
        // method, and a `method` key inside `params` is not the method.
        assert!(verdict(&admission, conn(0), escaped).is_err());
        assert!(verdict(&admission, conn(0), read).is_ok());
        // Control methods keep flowing while writes are limited.
        assert!(verdict(&admission, conn(0), "{\"id\":3,\"method\":\"stats\"}").is_ok());
    }

    #[test]
    fn zero_deadline_is_refused_on_arrival() {
        let counters = Arc::new(AdmissionCounters::default());
        let admission = Admission::new(
            RateLimitConfig {
                per_conn: Some(BucketSpec { rate_per_sec: 0.001, burst: 1.0 }),
                ..Default::default()
            },
            Arc::clone(&counters),
        );
        let refusal =
            verdict(&admission, conn(0), "{\"id\":5,\"method\":\"ingest\",\"deadline_ms\":0}")
                .expect_err("expired budget must not reach the service");
        assert_eq!((refusal.code, refusal.id), (ErrorCode::DeadlineExceeded, Value::U64(5)));
        // The expired request spent no token: the next line is admitted.
        let escaped = "{\"id\":6,\"method\":\"ping\",\"deadline\\u005fms\":0}";
        assert_eq!(
            verdict(&admission, conn(1), escaped).unwrap_err().code,
            ErrorCode::DeadlineExceeded
        );
        assert!(verdict(
            &admission,
            conn(0),
            "{\"id\":6,\"method\":\"ingest\",\"deadline_ms\":50}"
        )
        .is_ok());
        // A line that does not parse has no deadline to check.
        let malformed = "{\"id\":7,\"deadline_ms\":0}";
        assert!(verdict(&admission, conn(2), malformed).is_ok());
        assert_eq!(counters.deadline_exceeded.load(Ordering::Relaxed), 2);
        assert_eq!(counters.rate_limited.load(Ordering::Relaxed), 0);
    }
}
