//! Reactor behaviour tests over a toy echo service: framing, pipelining
//! with deferred replies, backpressure isolation, idle reaping, overload
//! refusal, and drain-clean shutdown; plus per-connection service state
//! released through `on_close`.

use pka_net::{
    Action, Completion, ConnId, LineService, NetConfig, Reactor, ReactorHandle, ReactorMetrics,
};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::AtomicBool;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Echoes `echo <x>` lines synchronously; `defer <x>` lines are answered
/// from a background worker thread (exercising the completion path);
/// `bulk <n>` responds with an `n`-byte payload (exercising write
/// backpressure); `bye` responds then closes.  Every `defer` line is
/// announced on `handed_tx` once its worker holds it, so a test can act
/// on a request known to be in flight.
struct EchoService {
    defer_tx: Mutex<mpsc::Sender<(String, Completion)>>,
    handed_tx: Mutex<mpsc::Sender<()>>,
}

impl LineService for EchoService {
    fn on_line(&self, line: &[u8], completion: Completion) -> Action {
        let text = String::from_utf8_lossy(line).into_owned();
        if let Some(payload) = text.strip_prefix("defer ") {
            let tx = self.defer_tx.lock().unwrap();
            tx.send((payload.to_string(), completion)).unwrap();
            // The receiver lives in the rig, which outlives the reactor.
            let _ = self.handed_tx.lock().unwrap().send(());
            return Action::Deferred;
        }
        if let Some(size) = text.strip_prefix("bulk ") {
            let n: usize = size.trim().parse().unwrap_or(0);
            return Action::Respond("b".repeat(n));
        }
        if text == "bye" {
            return Action::RespondClose("goodbye".to_string());
        }
        Action::Respond(format!("echo:{text}"))
    }

    fn overlong_response(&self) -> String {
        "error:overlong".to_string()
    }

    fn overloaded_response(&self) -> String {
        "error:overloaded".to_string()
    }
}

struct Rig {
    handle: ReactorHandle,
    addr: std::net::SocketAddr,
    metrics: Arc<ReactorMetrics>,
    /// One message per `defer` line handed to the worker.
    handed: mpsc::Receiver<()>,
    _worker: std::thread::JoinHandle<()>,
}

/// Boots a reactor with the echo service and one worker thread answering
/// deferred lines (after an optional delay, to widen race windows).
fn boot(config: NetConfig, defer_delay: Duration) -> Rig {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (defer_tx, defer_rx) = mpsc::channel::<(String, Completion)>();
    let worker = std::thread::spawn(move || {
        while let Ok((payload, completion)) = defer_rx.recv() {
            if !defer_delay.is_zero() {
                std::thread::sleep(defer_delay);
            }
            completion.respond(format!("deferred:{payload}"));
        }
    });
    let (handed_tx, handed) = mpsc::channel();
    let service =
        Arc::new(EchoService { defer_tx: Mutex::new(defer_tx), handed_tx: Mutex::new(handed_tx) });
    let config = config.normalized();
    let metrics = Arc::new(ReactorMetrics::new(config.loop_shards));
    let shutdown = Arc::new(AtomicBool::new(false));
    let handle = Reactor::start(listener, service, config, shutdown, Arc::clone(&metrics)).unwrap();
    Rig { handle, addr, metrics, handed, _worker: worker }
}

fn connect(addr: std::net::SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    (BufReader::new(stream.try_clone().unwrap()), stream)
}

fn call(reader: &mut BufReader<TcpStream>, writer: &mut TcpStream, line: &str) -> String {
    writeln!(writer, "{line}").unwrap();
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    response.trim_end().to_string()
}

#[test]
fn echo_roundtrip_across_connections() {
    let rig = boot(NetConfig::default(), Duration::ZERO);
    for i in 0..4 {
        let (mut reader, mut writer) = connect(rig.addr);
        assert_eq!(
            call(&mut reader, &mut writer, &format!("hello {i}")),
            format!("echo:hello {i}")
        );
        assert_eq!(call(&mut reader, &mut writer, ""), "echo:");
    }
    assert_eq!(rig.metrics.accepted(), 4);
    rig.handle.shutdown();
}

#[test]
fn pipelined_batch_preserves_order_through_deferred_replies() {
    // Deferred replies take 20 ms each; sync lines pipelined behind them
    // must still be answered in request order.
    let rig = boot(NetConfig::default(), Duration::from_millis(20));
    let (mut reader, mut writer) = connect(rig.addr);
    writer.write_all(b"echo a\ndefer b\necho c\ndefer d\necho e\n").unwrap();
    let expect = ["echo:echo a", "deferred:b", "echo:echo c", "deferred:d", "echo:echo e"];
    for want in expect {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), want);
    }
    rig.handle.shutdown();
}

#[test]
fn byte_at_a_time_writes_frame_correctly() {
    let rig = boot(NetConfig::default(), Duration::ZERO);
    let (mut reader, mut writer) = connect(rig.addr);
    for &b in b"slow\n" {
        writer.write_all(&[b]).unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "echo:slow");
    rig.handle.shutdown();
}

#[test]
fn overlong_line_answered_once_and_connection_survives() {
    let config = NetConfig { max_line_bytes: 128, ..NetConfig::default() };
    let rig = boot(config, Duration::ZERO);
    let (mut reader, mut writer) = connect(rig.addr);
    let huge = vec![b'x'; 1024];
    writer.write_all(&huge).unwrap();
    writer.write_all(b"\n").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "error:overlong");
    assert_eq!(call(&mut reader, &mut writer, "still here"), "echo:still here");
    rig.handle.shutdown();
}

#[test]
fn eof_flushes_final_unterminated_line() {
    let rig = boot(NetConfig::default(), Duration::ZERO);
    let (mut reader, mut writer) = connect(rig.addr);
    writer.write_all(b"echo tail").unwrap();
    writer.shutdown(std::net::Shutdown::Write).unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "echo:echo tail");
    // Server closes after answering the tail.
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0);
    rig.handle.shutdown();
}

#[test]
fn respond_close_flushes_then_closes() {
    let rig = boot(NetConfig::default(), Duration::ZERO);
    let (mut reader, mut writer) = connect(rig.addr);
    assert_eq!(call(&mut reader, &mut writer, "bye"), "goodbye");
    let mut line = String::new();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0);
    rig.handle.shutdown();
}

#[test]
fn never_reading_client_does_not_stall_shard_mates() {
    // One loop shard, small write high-water: the hog requests bulk
    // payloads and never reads them, saturating its write buffer; a well-
    // behaved client on the same (only) shard must keep getting answers.
    let config = NetConfig {
        loop_shards: 1,
        write_high_water: 4096,
        idle_timeout_ms: 0,
        ..NetConfig::default()
    };
    let rig = boot(config, Duration::ZERO);
    let (_hog_reader, mut hog_writer) = connect(rig.addr);
    for _ in 0..64 {
        writeln!(hog_writer, "bulk 4096").unwrap();
    }
    std::thread::sleep(Duration::from_millis(100));
    let (mut reader, mut writer) = connect(rig.addr);
    let start = Instant::now();
    for i in 0..50 {
        assert_eq!(call(&mut reader, &mut writer, &format!("live {i}")), format!("echo:live {i}"));
    }
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "shard stalled behind a never-reading peer: {:?}",
        start.elapsed()
    );
    // Close the hog before shutting down so the drain need not wait out
    // its grace period for the undeliverable backlog.
    drop(hog_writer);
    drop(_hog_reader);
    std::thread::sleep(Duration::from_millis(50));
    rig.handle.shutdown();
}

#[test]
fn half_open_connection_reaped_by_idle_timeout() {
    let config = NetConfig { idle_timeout_ms: 150, ..NetConfig::default() };
    let rig = boot(config, Duration::ZERO);
    let (mut idle_reader, _idle_writer) = connect(rig.addr);
    // An active connection with regular traffic must survive the sweep.
    let (mut live_reader, mut live_writer) = connect(rig.addr);
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut reaped = false;
    while Instant::now() < deadline {
        assert_eq!(call(&mut live_reader, &mut live_writer, "tick"), "echo:tick");
        let mut probe = [0u8; 1];
        idle_reader.get_mut().set_read_timeout(Some(Duration::from_millis(50))).unwrap();
        match idle_reader.get_mut().read(&mut probe) {
            Ok(0) => {
                reaped = true;
                break;
            }
            _ => std::thread::sleep(Duration::from_millis(25)),
        }
    }
    assert!(reaped, "idle connection was never reaped");
    assert_eq!(call(&mut live_reader, &mut live_writer, "after"), "echo:after");
    assert!(rig.metrics.idle_timeouts() >= 1);
    rig.handle.shutdown();
}

#[test]
fn connection_cap_refused_with_structured_line() {
    let config = NetConfig { max_connections: 2, ..NetConfig::default() };
    let rig = boot(config, Duration::ZERO);
    let keep: Vec<_> = (0..2).map(|_| connect(rig.addr)).collect();
    // Make sure both are adopted before probing the cap.
    std::thread::sleep(Duration::from_millis(50));
    let (mut reader, _writer) = connect(rig.addr);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "error:overloaded");
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0, "refused socket must be closed");
    assert!(rig.metrics.overload_refusals() >= 1);
    drop(keep);
    // Capacity frees once the held connections close.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let (mut reader, mut writer) = connect(rig.addr);
        writeln!(writer, "retry").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        if line.trim_end() == "echo:retry" {
            break;
        }
        assert!(Instant::now() < deadline, "cap never released");
        std::thread::sleep(Duration::from_millis(25));
    }
    rig.handle.shutdown();
}

#[test]
fn shutdown_drains_open_connections_and_joins() {
    let rig = boot(NetConfig::default(), Duration::from_millis(30));
    let (mut reader, mut writer) = connect(rig.addr);
    // An engine-bound request in flight at shutdown still gets answered.
    writeln!(writer, "defer last").unwrap();
    rig.handed.recv_timeout(Duration::from_secs(5)).expect("the service never took the request");
    let handle = rig.handle;
    let start = Instant::now();
    handle.shutdown();
    assert!(start.elapsed() < Duration::from_secs(6), "drain did not terminate");
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "deferred:last");
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0);
}

#[test]
fn open_counts_track_shard_population() {
    let config = NetConfig { loop_shards: 2, ..NetConfig::default() };
    let rig = boot(config, Duration::ZERO);
    let conns: Vec<_> = (0..6).map(|_| connect(rig.addr)).collect();
    // Round-robin handoff: wait until all six are adopted.
    let deadline = Instant::now() + Duration::from_secs(5);
    while rig.metrics.shard_open().iter().sum::<u64>() < 6 {
        assert!(Instant::now() < deadline);
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(rig.metrics.open(), 6);
    assert_eq!(rig.metrics.shard_open(), vec![3, 3]);
    drop(conns);
    let deadline = Instant::now() + Duration::from_secs(5);
    while rig.metrics.open() > 0 {
        assert!(Instant::now() < deadline);
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(rig.metrics.dropped(), 0);
    rig.handle.shutdown();
}

/// Admits `quota` lines per connection, then refuses: per-connection
/// state keyed by [`ConnId`] inside a plain service, the shape of a rate
/// limiter.
struct Quota {
    quota: u64,
    used: Mutex<HashMap<ConnId, u64>>,
}

impl LineService for Quota {
    fn on_line(&self, line: &[u8], completion: Completion) -> Action {
        let mut used = self.used.lock().unwrap();
        let n = used.entry(completion.conn_id()).or_insert(0);
        *n += 1;
        if *n > self.quota {
            return Action::Respond("refused:quota".to_string());
        }
        Action::Respond(format!("echo:{}", String::from_utf8_lossy(line)))
    }

    fn overlong_response(&self) -> String {
        "error:overlong".to_string()
    }

    fn overloaded_response(&self) -> String {
        "error:overloaded".to_string()
    }

    fn on_close(&self, conn: ConnId) {
        self.used.lock().unwrap().remove(&conn);
    }
}

#[test]
fn per_connection_state_is_released_on_close() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let service = Arc::new(Quota { quota: 2, used: Mutex::new(HashMap::new()) });
    let config = NetConfig::default().normalized();
    let metrics = Arc::new(ReactorMetrics::new(config.loop_shards));
    let shutdown = Arc::new(AtomicBool::new(false));
    let handle = Reactor::start(listener, Arc::clone(&service), config, shutdown, metrics).unwrap();

    let (mut reader, mut writer) = connect(addr);
    assert_eq!(call(&mut reader, &mut writer, "a"), "echo:a");
    assert_eq!(call(&mut reader, &mut writer, "b"), "echo:b");
    assert_eq!(call(&mut reader, &mut writer, "c"), "refused:quota");
    // A second connection has its own state.
    let (mut reader2, mut writer2) = connect(addr);
    assert_eq!(call(&mut reader2, &mut writer2, "fresh"), "echo:fresh");
    assert_eq!(service.used.lock().unwrap().len(), 2);

    // Closing one connection releases exactly its state; a new connection
    // (even one reusing the slot) starts with a fresh quota.
    drop((reader, writer));
    let deadline = Instant::now() + Duration::from_secs(5);
    while service.used.lock().unwrap().len() > 1 {
        assert!(Instant::now() < deadline, "per-connection state never released");
        std::thread::sleep(Duration::from_millis(10));
    }
    let (mut reader3, mut writer3) = connect(addr);
    assert_eq!(call(&mut reader3, &mut writer3, "again"), "echo:again");
    assert_eq!(call(&mut reader2, &mut writer2, "kept"), "echo:kept");
    assert_eq!(call(&mut reader2, &mut writer2, "over"), "refused:quota");

    drop((reader2, writer2, reader3, writer3));
    let deadline = Instant::now() + Duration::from_secs(5);
    while !service.used.lock().unwrap().is_empty() {
        assert!(Instant::now() < deadline, "per-connection state never released");
        std::thread::sleep(Duration::from_millis(10));
    }
    handle.shutdown();
}
