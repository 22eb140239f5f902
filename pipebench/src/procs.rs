//! The processes under test: spawning, address scraping, `/proc`
//! accounting, and checked shutdown.
//!
//! Every spawned pid is also registered with a process-wide list, so the
//! run watchdog can kill them all before it exits on a hung run.

use pka_serve::LineClient;
use std::fs::File;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

static LIVE_PIDS: Mutex<Vec<u32>> = Mutex::new(Vec::new());

/// Kills every process this harness spawned and has not yet reaped — the
/// watchdog's last act before it exits.
pub fn kill_all() {
    let pids = LIVE_PIDS.lock().map(|p| p.clone()).unwrap_or_default();
    for pid in pids {
        let _ = Command::new("kill").arg("-9").arg(pid.to_string()).status();
    }
}

/// One running binary under test.
pub struct Proc {
    pub label: String,
    pub args: Vec<String>,
    pub addr: SocketAddr,
    child: Option<Child>,
    err_path: PathBuf,
}

/// How long a process may take to print its address.
const BOOT_TIMEOUT: Duration = Duration::from_secs(60);
/// How long a process may take to exit after acknowledging `shutdown`.
const EXIT_TIMEOUT: Duration = Duration::from_secs(20);

impl Proc {
    /// Spawns `bin args…` with its output in `dir`, and waits for its
    /// `listening on <addr>` line.
    pub fn spawn(bin: &Path, args: Vec<String>, label: &str, dir: &Path) -> Result<Proc, String> {
        let out_path = dir.join(format!("{label}.out"));
        let err_path = dir.join(format!("{label}.err"));
        let stdout = File::create(&out_path).map_err(|e| format!("{label}: {e}"))?;
        let stderr = File::create(&err_path).map_err(|e| format!("{label}: {e}"))?;
        let child = Command::new(bin)
            .args(&args)
            .stdin(Stdio::null())
            .stdout(stdout)
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("cannot start {label} ({}): {e}", bin.display()))?;
        LIVE_PIDS.lock().expect("pid registry lock poisoned").push(child.id());
        let mut proc = Proc {
            label: label.to_string(),
            args,
            addr: ([0, 0, 0, 0], 0).into(),
            child: Some(child),
            err_path,
        };
        let deadline = Instant::now() + BOOT_TIMEOUT;
        loop {
            let text = std::fs::read_to_string(&out_path).unwrap_or_default();
            if let Some(addr) = text.lines().find_map(|l| l.strip_prefix("listening on ")) {
                proc.addr =
                    addr.trim().parse().map_err(|e| format!("{label}: bad address: {e}"))?;
                return Ok(proc);
            }
            if let Some(status) = proc.child.as_mut().and_then(|c| c.try_wait().ok().flatten()) {
                return Err(format!(
                    "{label} exited during boot ({status}): {}",
                    proc.stderr_tail()
                ));
            }
            if Instant::now() > deadline {
                return Err(format!("{label} printed no address within {BOOT_TIMEOUT:?}"));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// CPU seconds (user + system, all threads) the process has used.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid()))
            .map_err(|e| format!("{}: /proc stat: {e}", self.label))?;
        // Fields after the parenthesised command name start at field 3.
        let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or_default();
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| -> Result<f64, String> {
            fields
                .get(i)
                .and_then(|f| f.parse::<f64>().ok())
                .ok_or_else(|| format!("{}: unreadable /proc stat", self.label))
        };
        Ok((ticks(11)? + ticks(12)?) / clock_ticks_per_second())
    }

    /// Peak resident set size (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("{}: /proc status: {e}", self.label))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("{}: no VmHWM in /proc status", self.label))
    }

    /// Sends `shutdown` and waits for a clean exit; a process that is
    /// still alive after [`EXIT_TIMEOUT`], or exits with a failure, fails
    /// the run.
    pub fn shutdown(mut self) -> Result<(), String> {
        let acknowledged = LineClient::connect(self.addr)
            .and_then(|mut c| c.shutdown())
            .map_err(|e| format!("{}: shutdown: {e}", self.label));
        let mut child = self.child.take().expect("child present until reaped");
        let deadline = Instant::now() + EXIT_TIMEOUT;
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => break None,
            }
        };
        if status.is_none() {
            let _ = child.kill();
            let _ = child.wait();
        }
        unregister(child.id());
        acknowledged?;
        match status {
            None => {
                Err(format!("{} did not exit within {EXIT_TIMEOUT:?} of `shutdown`", self.label))
            }
            Some(s) if !s.success() => {
                Err(format!("{} exited with {s}: {}", self.label, self.stderr_tail()))
            }
            Some(_) => Ok(()),
        }
    }

    fn stderr_tail(&self) -> String {
        let text = std::fs::read_to_string(&self.err_path).unwrap_or_default();
        let tail: Vec<&str> = text.lines().rev().take(3).collect();
        tail.into_iter().rev().collect::<Vec<_>>().join(" | ")
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
            unregister(child.id());
        }
    }
}

fn unregister(pid: u32) {
    if let Ok(mut pids) = LIVE_PIDS.lock() {
        pids.retain(|&p| p != pid);
    }
}

fn clock_ticks_per_second() -> f64 {
    static TICKS: std::sync::OnceLock<f64> = std::sync::OnceLock::new();
    *TICKS.get_or_init(|| {
        Command::new("getconf")
            .arg("CLK_TCK")
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(100.0)
    })
}
