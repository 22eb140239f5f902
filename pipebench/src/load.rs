//! The load generator: open- and closed-loop request lanes over one TCP
//! connection each, driven by exactly two threads.
//!
//! * The **sender** thread owns every open-loop lane.  Request `k` of a
//!   lane is *due* at `start + k · interval`; the sender sleeps until the
//!   earliest due request and writes it, whether or not earlier ones have
//!   been answered (up to the lane's in-flight cap).  A request that could
//!   not be written on time — the cap was full because the server stalled,
//!   or the thread woke late — is still timed from its due instant, so a
//!   stall is charged to every request queued behind it.
//! * The **receiver** thread waits on every connection with epoll, stamps
//!   each response line the moment it is read, and matches it to the
//!   oldest request in flight (the protocol answers in order).  Closed-loop
//!   lanes are driven from here: a fixed number of requests is kept in
//!   flight, each answer releases the next request, and a request is due
//!   when it is sent.

use polling::{Events, Interest, Poll, Token};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How a lane schedules its requests.
#[derive(Debug, Clone, Copy)]
pub enum Pacing {
    /// Request `k` is due at `start + k · interval`; at most `max_in_flight`
    /// requests wait for an answer at once.
    Open { interval: Duration, max_in_flight: usize },
    /// `in_flight` requests outstanding; each answer releases the next
    /// request, due the instant it is sent.
    Closed { in_flight: usize },
}

/// When a lane stops issuing requests.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// No request due at or after this instant is issued.
    Instant(Instant),
    /// Requests keep coming until [`Control::stop`] is raised.
    Stopped,
}

/// One lane: a connection, the request lines it sends, and its schedule.
#[derive(Debug, Clone)]
pub struct Lane {
    pub addr: SocketAddr,
    /// Request lines, each ending in `\n`.
    pub lines: Arc<Vec<String>>,
    /// Reuse `lines` round-robin; otherwise the lane ends after the last.
    pub cycle: bool,
    pub pacing: Pacing,
    pub until: Until,
    /// Keep every response line (the writer's ingest summaries).
    pub keep_bodies: bool,
}

/// Cross-thread control of a running load.
#[derive(Debug)]
pub struct Control {
    /// Ends every [`Until::Stopped`] lane.
    pub stop: AtomicBool,
    /// Largest `observations` any response has reported so far.
    pub max_observations: AtomicU64,
    /// A request unanswered this long breaks its lane.
    pub response_timeout: Duration,
}

impl Control {
    pub fn new(response_timeout: Duration) -> Self {
        Self { stop: AtomicBool::new(false), max_observations: AtomicU64::new(0), response_timeout }
    }
}

/// How one request ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Status {
    /// `"ok": true`.
    Answered,
    /// A structured refusal, by error code.
    Refused(String),
    /// No (usable) answer: the connection broke or the answer timed out.
    Failed(String),
}

/// One request and its answer.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// Position in the lane's schedule.
    pub index: usize,
    pub due: Instant,
    pub sent: Instant,
    pub done: Instant,
    pub status: Status,
    /// The `observations` field of the answer, when it has one.
    pub observations: Option<u64>,
    pub request_bytes: usize,
    pub response_bytes: usize,
    pub body: Option<String>,
}

impl Exchange {
    /// Latency counted from the due instant (open loop) — equal to the
    /// round trip for a closed-loop request, whose due instant is its send.
    pub fn latency(&self) -> Duration {
        self.done.saturating_duration_since(self.due)
    }

    /// How late the generator sent the request.
    pub fn lateness(&self) -> Duration {
        self.sent.saturating_duration_since(self.due)
    }
}

struct InFlight {
    index: usize,
    due: Instant,
    sent: Instant,
    bytes: usize,
}

#[derive(Default)]
struct LaneState {
    in_flight: VecDeque<InFlight>,
    finished: Vec<Exchange>,
    /// Index of the next request to issue.
    next: usize,
    /// No further request will be issued.
    closed: bool,
    broken: Option<String>,
    buffer: Vec<u8>,
}

struct Shared {
    lane: Lane,
    stream: TcpStream,
    state: Mutex<LaneState>,
    freed: Condvar,
}

/// A running load; [`LoadHandle::join`] returns each lane's exchanges.
pub struct LoadHandle {
    lanes: Vec<Arc<Shared>>,
    threads: Vec<JoinHandle<Result<(), String>>>,
}

impl LoadHandle {
    /// True once the lane issues nothing more and has no request in flight.
    pub fn lane_done(&self, lane: usize) -> bool {
        let state = self.lanes[lane].state.lock().expect("lane state lock poisoned");
        state.closed && state.in_flight.is_empty()
    }

    /// Schedule indices of the lane's requests answered so far.
    pub fn answered(&self, lane: usize) -> Vec<usize> {
        let state = self.lanes[lane].state.lock().expect("lane state lock poisoned");
        state.finished.iter().filter(|e| e.status == Status::Answered).map(|e| e.index).collect()
    }

    /// Waits for both threads and returns every lane's exchanges, in
    /// schedule order.
    pub fn join(self) -> Result<Vec<Vec<Exchange>>, String> {
        for thread in self.threads {
            thread.join().map_err(|_| "a load thread panicked".to_string())??;
        }
        Ok(self
            .lanes
            .iter()
            .map(|shared| {
                let mut state = shared.state.lock().expect("lane state lock poisoned");
                let mut done = std::mem::take(&mut state.finished);
                done.sort_by_key(|e| e.index);
                done
            })
            .collect())
    }
}

/// Connects every lane and starts the sender and receiver threads.  No
/// request is due before `start`.
pub fn start(
    lanes: Vec<Lane>,
    start: Instant,
    control: Arc<Control>,
) -> Result<LoadHandle, String> {
    let mut shared = Vec::with_capacity(lanes.len());
    for lane in lanes {
        let stream = TcpStream::connect_timeout(&lane.addr, Duration::from_secs(5))
            .map_err(|e| format!("load: cannot connect to {}: {e}", lane.addr))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        shared.push(Arc::new(Shared {
            lane,
            stream,
            state: Mutex::new(LaneState::default()),
            freed: Condvar::new(),
        }));
    }
    let poll = Poll::new().map_err(|e| format!("load: epoll: {e}"))?;
    for (token, lane) in shared.iter().enumerate() {
        poll.register(&lane.stream, Token(token), Interest::READABLE)
            .map_err(|e| format!("load: epoll register: {e}"))?;
    }
    let sender_lanes = shared.clone();
    let sender_control = Arc::clone(&control);
    let sender = std::thread::Builder::new()
        .name("load-sender".into())
        .spawn(move || run_sender(&sender_lanes, start, &sender_control))
        .map_err(|e| e.to_string())?;
    let receiver_lanes = shared.clone();
    let receiver = std::thread::Builder::new()
        .name("load-receiver".into())
        .spawn(move || run_receiver(&receiver_lanes, &poll, start, &control))
        .map_err(|e| e.to_string())?;
    Ok(LoadHandle { lanes: shared, threads: vec![sender, receiver] })
}

/// Due instant of request `index` of an open lane.
fn due_at(start: Instant, interval: Duration, index: usize) -> Instant {
    start + interval * index as u32
}

/// Whether request `index`, due at `due`, may still be issued.
fn issuable(shared: &Shared, index: usize, due: Instant, control: &Control) -> bool {
    if !shared.lane.cycle && index >= shared.lane.lines.len() {
        return false;
    }
    match shared.lane.until {
        Until::Instant(end) => due < end,
        Until::Stopped => !control.stop.load(Ordering::SeqCst),
    }
}

fn run_sender(lanes: &[Arc<Shared>], start: Instant, control: &Control) -> Result<(), String> {
    let open: Vec<(&Arc<Shared>, Duration, usize)> = lanes
        .iter()
        .filter_map(|s| match s.lane.pacing {
            Pacing::Open { interval, max_in_flight } => Some((s, interval, max_in_flight.max(1))),
            Pacing::Closed { .. } => None,
        })
        .collect();
    loop {
        // The open lane whose next request is due first.
        let mut earliest: Option<(usize, Instant, usize)> = None;
        for (i, (shared, interval, _)) in open.iter().enumerate() {
            let mut state = shared.state.lock().expect("lane state lock poisoned");
            if state.closed {
                continue;
            }
            let due = due_at(start, *interval, state.next);
            if state.broken.is_some() || !issuable(shared, state.next, due, control) {
                state.closed = true;
                continue;
            }
            if earliest.is_none_or(|(_, d, _)| due < d) {
                earliest = Some((i, due, state.next));
            }
        }
        let Some((i, due, index)) = earliest else { return Ok(()) };
        let (shared, _, cap) = open[i];
        sleep_until(due, control, shared.lane.until);
        let mut state = shared.state.lock().expect("lane state lock poisoned");
        // A full pipeline holds the request back; it stays timed from `due`.
        while state.in_flight.len() >= cap && state.broken.is_none() {
            state = shared
                .freed
                .wait_timeout(state, Duration::from_millis(50))
                .expect("lane state lock poisoned")
                .0;
        }
        if state.broken.is_some() {
            state.closed = true;
            continue;
        }
        if matches!(shared.lane.until, Until::Stopped) && control.stop.load(Ordering::SeqCst) {
            state.closed = true;
            continue;
        }
        let line = &shared.lane.lines[index % shared.lane.lines.len()];
        state.in_flight.push_back(InFlight { index, due, sent: Instant::now(), bytes: line.len() });
        state.next = index + 1;
        drop(state);
        if let Err(e) = write_line(&shared.stream, line.as_bytes()) {
            let mut state = shared.state.lock().expect("lane state lock poisoned");
            state.broken.get_or_insert(format!("send failed: {e}"));
            state.closed = true;
        }
    }
}

/// How long before a due instant the sender stops sleeping and spins: a
/// timer wake-up on a virtual machine lands tens of microseconds late, by
/// an amount that varies with the host, and every open-loop latency would
/// carry that lateness.
const SPIN: Duration = Duration::from_micros(150);

/// Waits until `due`: sleeps until [`SPIN`] before it, then spins.  A stop
/// request ends the wait early for lanes that run until stopped.
fn sleep_until(due: Instant, control: &Control, until: Until) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        if matches!(until, Until::Stopped) && control.stop.load(Ordering::SeqCst) {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep((left - SPIN).min(Duration::from_millis(20)));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Writes a whole line to a non-blocking socket.
fn write_line(stream: &TcpStream, mut bytes: &[u8]) -> std::io::Result<()> {
    let mut writer = stream;
    let give_up = Instant::now() + Duration::from_secs(30);
    while !bytes.is_empty() {
        match writer.write(bytes) {
            Ok(0) => return Err(std::io::Error::new(ErrorKind::WriteZero, "socket closed")),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if Instant::now() > give_up {
                    return Err(std::io::Error::new(ErrorKind::TimedOut, "peer stopped reading"));
                }
                std::thread::sleep(Duration::from_micros(50));
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Issues up to `count` further requests of a closed-loop lane, as far as
/// the lane may still issue.
fn send_closed(shared: &Shared, control: &Control, count: usize) {
    for _ in 0..count {
        let mut state = shared.state.lock().expect("lane state lock poisoned");
        let now = Instant::now();
        if state.closed || state.broken.is_some() || !issuable(shared, state.next, now, control) {
            state.closed = true;
            return;
        }
        let index = state.next;
        let line = &shared.lane.lines[index % shared.lane.lines.len()];
        state.in_flight.push_back(InFlight { index, due: now, sent: now, bytes: line.len() });
        state.next += 1;
        drop(state);
        if let Err(e) = write_line(&shared.stream, line.as_bytes()) {
            let mut state = shared.state.lock().expect("lane state lock poisoned");
            state.broken.get_or_insert(format!("send failed: {e}"));
            state.closed = true;
            return;
        }
    }
}

fn run_receiver(
    lanes: &[Arc<Shared>],
    poll: &Poll,
    start: Instant,
    control: &Control,
) -> Result<(), String> {
    let closed_loop: Vec<&Arc<Shared>> =
        lanes.iter().filter(|s| matches!(s.lane.pacing, Pacing::Closed { .. })).collect();
    if !closed_loop.is_empty() {
        let now = Instant::now();
        if start > now {
            std::thread::sleep(start - now);
        }
        for shared in &closed_loop {
            if let Pacing::Closed { in_flight } = shared.lane.pacing {
                send_closed(shared, control, in_flight.max(1));
            }
        }
    }
    let mut events = Events::with_capacity(lanes.len().max(1));
    let mut chunk = vec![0u8; 64 * 1024];
    loop {
        let settled = lanes.iter().all(|shared| {
            let state = shared.state.lock().expect("lane state lock poisoned");
            state.closed && state.in_flight.is_empty()
        });
        if settled {
            return Ok(());
        }
        poll.poll(&mut events, Some(Duration::from_millis(5))).map_err(|e| e.to_string())?;
        for event in events.iter() {
            let shared = &lanes[event.token().0];
            let answered = read_answers(shared, &mut chunk, control);
            if answered > 0 && matches!(shared.lane.pacing, Pacing::Closed { .. }) {
                send_closed(shared, control, answered);
            }
        }
        // Closed-loop lanes end on the stop flag even with nothing in flight.
        for shared in &closed_loop {
            let mut state = shared.state.lock().expect("lane state lock poisoned");
            if state.in_flight.is_empty() && !state.closed {
                drop(state);
                send_closed(shared, control, 1);
            } else if state.in_flight.is_empty() {
                state.closed = true;
            }
        }
        expire_stale(lanes, control);
    }
}

/// Reads everything available on a lane and completes the answered
/// requests.  Returns how many answers arrived.
fn read_answers(shared: &Shared, chunk: &mut [u8], control: &Control) -> usize {
    let mut reader = &shared.stream;
    let mut answered = 0;
    loop {
        match reader.read(chunk) {
            Ok(0) => {
                break_lane(shared, "server closed the connection");
                return answered;
            }
            Ok(n) => {
                let now = Instant::now();
                let mut state = shared.state.lock().expect("lane state lock poisoned");
                state.buffer.extend_from_slice(&chunk[..n]);
                while let Some(end) = state.buffer.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = state.buffer.drain(..=end).collect();
                    let Some(request) = state.in_flight.pop_front() else {
                        state
                            .broken
                            .get_or_insert("an answer arrived with nothing in flight".into());
                        continue;
                    };
                    let text = String::from_utf8_lossy(&line[..line.len() - 1]);
                    let exchange = complete(request, now, &text, shared.lane.keep_bodies);
                    if let Some(obs) = exchange.observations {
                        control.max_observations.fetch_max(obs, Ordering::SeqCst);
                    }
                    state.finished.push(exchange);
                    answered += 1;
                }
                drop(state);
                shared.freed.notify_all();
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return answered,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => {
                break_lane(shared, &format!("receive failed: {e}"));
                return answered;
            }
        }
    }
}

/// Classifies one answer line.
fn complete(request: InFlight, done: Instant, text: &str, keep_body: bool) -> Exchange {
    let status = if text.contains("\"ok\":true") {
        Status::Answered
    } else if text.contains("\"ok\":false") {
        Status::Refused(error_code(text).unwrap_or_else(|| "unknown".into()))
    } else {
        Status::Failed(format!("unparseable answer `{}`", truncate(text, 120)))
    };
    Exchange {
        index: request.index,
        due: request.due,
        sent: request.sent,
        done,
        status,
        observations: top_level_u64(text, "observations"),
        request_bytes: request.bytes,
        response_bytes: text.len() + 1,
        body: keep_body.then(|| text.to_string()),
    }
}

/// The last `"key":<integer>` in an answer line.  `query-batch` answers
/// carry `observations` last, after every entry, so the last match is the
/// envelope's.
pub fn top_level_u64(text: &str, key: &str) -> Option<u64> {
    let pattern = format!("\"{key}\":");
    let at = text.rfind(&pattern)? + pattern.len();
    let digits: String = text[at..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

fn error_code(text: &str) -> Option<String> {
    let at = text.find("\"code\":\"")? + "\"code\":\"".len();
    Some(text[at..].chars().take_while(|&c| c != '"').collect())
}

fn truncate(text: &str, max: usize) -> &str {
    match text.char_indices().nth(max) {
        Some((i, _)) => &text[..i],
        None => text,
    }
}

/// Fails every request of a lane that is still in flight.
fn break_lane(shared: &Shared, reason: &str) {
    let now = Instant::now();
    let mut state = shared.state.lock().expect("lane state lock poisoned");
    state.broken.get_or_insert(reason.to_string());
    state.closed = true;
    while let Some(request) = state.in_flight.pop_front() {
        state.finished.push(Exchange {
            index: request.index,
            due: request.due,
            sent: request.sent,
            done: now,
            status: Status::Failed(reason.to_string()),
            observations: None,
            request_bytes: request.bytes,
            response_bytes: 0,
            body: None,
        });
    }
    drop(state);
    shared.freed.notify_all();
    let _ = shared.stream.shutdown(std::net::Shutdown::Both);
}

/// Breaks every lane whose oldest request has waited past the timeout.
fn expire_stale(lanes: &[Arc<Shared>], control: &Control) {
    for shared in lanes {
        let stale = {
            let state = shared.state.lock().expect("lane state lock poisoned");
            state.in_flight.front().is_some_and(|r| r.sent.elapsed() > control.response_timeout)
        };
        if stale {
            break_lane(
                shared,
                &format!("no answer within {} s", control.response_timeout.as_secs()),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    /// A fake server that answers every line with `{"ok":true}` but stalls
    /// `stall` before answering the first one.
    fn stalling_server(stall: Duration) -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut first = true;
            for line in BufReader::new(stream).lines() {
                let Ok(_) = line else { break };
                if first {
                    std::thread::sleep(stall);
                    first = false;
                }
                if writer.write_all(b"{\"id\":1,\"ok\":true,\"result\":{}}\n").is_err() {
                    break;
                }
            }
        });
        (addr, server)
    }

    fn lane(addr: SocketAddr, pacing: Pacing, until: Instant) -> Lane {
        Lane {
            addr,
            lines: Arc::new(vec!["{\"id\":1,\"method\":\"ping\"}\n".to_string()]),
            cycle: true,
            pacing,
            until: Until::Instant(until),
            keep_bodies: false,
        }
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time_through_a_stall() {
        let stall = Duration::from_millis(300);
        let (addr, server) = stalling_server(stall);
        let start = Instant::now() + Duration::from_millis(20);
        let interval = Duration::from_millis(10);
        let end = start + Duration::from_millis(200);
        // One request in flight at a time: the stall holds every later
        // request back, so they leave late.
        let pacing = Pacing::Open { interval, max_in_flight: 1 };
        let control = Arc::new(Control::new(Duration::from_secs(10)));
        let handle = super::start(vec![lane(addr, pacing, end)], start, control).unwrap();
        let exchanges = handle.join().unwrap().remove(0);
        server.join().unwrap();

        assert_eq!(exchanges.len(), 20, "every due request is issued, late or not");
        assert!(exchanges.iter().all(|e| e.status == Status::Answered));
        for e in &exchanges {
            assert_eq!(e.latency(), e.done - e.due);
            assert!(e.done >= e.sent && e.sent >= e.due);
        }
        // Request 5 was due 50 ms in, but could only leave once the stalled
        // first answer arrived ~300 ms in.  Its latency includes that wait;
        // timed from its send it would look instant.
        let fifth = &exchanges[5];
        let from_due = fifth.latency();
        let from_send = fifth.done - fifth.sent;
        assert!(from_due >= stall - 5 * interval - Duration::from_millis(5), "{from_due:?}");
        assert!(fifth.lateness() >= stall - 5 * interval - Duration::from_millis(5));
        assert!(from_send < from_due / 2, "send-timed {from_send:?} vs due-timed {from_due:?}");
    }

    #[test]
    fn open_loop_keeps_sending_on_schedule_while_an_answer_is_pending() {
        let stall = Duration::from_millis(200);
        let (addr, server) = stalling_server(stall);
        let start = Instant::now() + Duration::from_millis(20);
        let end = start + Duration::from_millis(100);
        let pacing = Pacing::Open { interval: Duration::from_millis(10), max_in_flight: 64 };
        let control = Arc::new(Control::new(Duration::from_secs(10)));
        let handle = super::start(vec![lane(addr, pacing, end)], start, control).unwrap();
        let exchanges = handle.join().unwrap().remove(0);
        server.join().unwrap();
        assert_eq!(exchanges.len(), 10);
        // Sends stay on schedule (within scheduler jitter) ...
        assert!(exchanges.iter().all(|e| e.lateness() < Duration::from_millis(15)));
        // ... and every request queued behind the stall still pays for it.
        let last = exchanges.last().unwrap();
        assert!(last.latency() >= stall - Duration::from_millis(95), "{:?}", last.latency());
    }

    #[test]
    fn closed_loop_times_from_the_send() {
        let (addr, server) = stalling_server(Duration::from_millis(50));
        let start = Instant::now();
        let end = start + Duration::from_millis(100);
        let control = Arc::new(Control::new(Duration::from_secs(10)));
        let handle =
            super::start(vec![lane(addr, Pacing::Closed { in_flight: 1 }, end)], start, control)
                .unwrap();
        let exchanges = handle.join().unwrap().remove(0);
        server.join().unwrap();
        assert!(exchanges.len() > 1);
        assert!(exchanges.iter().all(|e| e.due == e.sent));
        assert!(exchanges[0].latency() >= Duration::from_millis(50));
    }

    #[test]
    fn answers_are_classified() {
        let now = Instant::now();
        let request = || InFlight { index: 0, due: now, sent: now, bytes: 10 };
        let ok =
            complete(request(), now, r#"{"id":1,"ok":true,"result":{"observations":42}}"#, false);
        assert_eq!(ok.status, Status::Answered);
        assert_eq!(ok.observations, Some(42));
        let refused = complete(
            request(),
            now,
            r#"{"id":1,"ok":false,"error":{"code":"server-overloaded","message":"x"}}"#,
            false,
        );
        assert_eq!(refused.status, Status::Refused("server-overloaded".into()));
        assert!(matches!(complete(request(), now, "garbage", false).status, Status::Failed(_)));
    }
}
