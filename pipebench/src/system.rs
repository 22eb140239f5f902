//! One stand-up of the system under test for a workload: the processes,
//! their roles, and the checks that tie written rows to served answers.

use crate::procs::Proc;
use crate::workload::{Inputs, Topology, Workload};
use pka_serve::protocol::object;
use pka_serve::{ClientConfig, LineClient};
use serde::Value;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Deadline on every control-plane call the harness makes.
const CALL_DEADLINE: Duration = Duration::from_secs(30);

pub struct System {
    /// Fabric: ingest node, coordinator, replica.  Standalone: the server.
    pub procs: Vec<Proc>,
    pub topology: Topology,
    pub dir: PathBuf,
}

impl System {
    /// Starts the workload's processes in `dir` (journals and checkpoints
    /// live there too).
    pub fn boot(
        workload: &Workload,
        inputs: &Inputs,
        bin_dir: &Path,
        dir: &Path,
    ) -> Result<System, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
        let schema = &inputs.schema_flags;
        let with = |base: &[&str], extra: &[String]| -> Vec<String> {
            base.iter()
                .map(|s| s.to_string())
                .chain(schema.iter().cloned())
                .chain(extra.iter().cloned())
                .collect()
        };
        let procs = match workload.topology {
            Topology::Fabric => {
                let fabric = bin_dir.join("pka-fabric");
                let replica =
                    Proc::spawn(&fabric, with(&["replica", "--port", "0"], &[]), "replica", dir)?;
                let coordinator = Proc::spawn(
                    &fabric,
                    with(
                        &["coordinator", "--port", "0"],
                        &[
                            "--policy".into(),
                            format!("every={}", workload.refit_rows),
                            "--checkpoint".into(),
                            path("coordinator.checkpoint"),
                            "--replica".into(),
                            replica.addr.to_string(),
                        ],
                    ),
                    "coordinator",
                    dir,
                )?;
                let ingest = Proc::spawn(
                    &fabric,
                    with(
                        &["ingest-node", "--port", "0"],
                        &[
                            "--name".into(),
                            "ingest-1".into(),
                            "--coordinator".into(),
                            coordinator.addr.to_string(),
                            "--journal".into(),
                            path("ingest.journal"),
                            "--journal-fsync".into(),
                            "per-record".into(),
                        ],
                    ),
                    "ingest",
                    dir,
                )?;
                vec![ingest, coordinator, replica]
            }
            Topology::Standalone => {
                let mut extra =
                    vec!["--policy".to_string(), format!("every={}", workload.refit_rows)];
                if let Some(order) = workload.max_order {
                    extra.extend(["--max-order".to_string(), order.to_string()]);
                    extra.extend(["--journal".to_string(), path("serve.journal")]);
                }
                vec![Proc::spawn(
                    &bin_dir.join("pka-serve"),
                    with(&["--port", "0"], &extra),
                    "serve",
                    dir,
                )?]
            }
        };
        Ok(System { procs, topology: workload.topology, dir: dir.to_path_buf() })
    }

    /// Where rows are written.
    pub fn write_addr(&self) -> SocketAddr {
        self.procs[0].addr
    }

    /// Where answers are read.
    pub fn read_addr(&self) -> SocketAddr {
        self.procs.last().expect("a system has a process").addr
    }

    /// The process that refits (coordinator or standalone server).
    pub fn fit_addr(&self) -> SocketAddr {
        match self.topology {
            Topology::Fabric => self.procs[1].addr,
            Topology::Standalone => self.procs[0].addr,
        }
    }

    pub fn client(addr: SocketAddr) -> Result<LineClient, String> {
        LineClient::connect_with(addr, &ClientConfig::with_deadline(CALL_DEADLINE))
            .map_err(|e| format!("connect {addr}: {e}"))
    }

    /// One raw `stats` answer.
    pub fn stats(addr: SocketAddr) -> Result<Value, String> {
        Self::client(addr)?.call("stats", object([])).map_err(|e| format!("stats {addr}: {e}"))
    }

    /// Rows covered by the snapshot a process publishes (0 before its first).
    pub fn published(client: &mut LineClient) -> Result<u64, String> {
        let raw = client
            .call("snapshot-version", object([]))
            .map_err(|e| format!("snapshot-version: {e}"))?;
        Ok(count(&raw, &["snapshot", "observations"]))
    }

    /// Writes the preload and waits until the read endpoint answers from a
    /// snapshot covering it.
    pub fn preload(&self, inputs: &Inputs, timeout: Duration) -> Result<(), String> {
        let mut writer = Self::client(self.write_addr())?;
        writer.ingest(&inputs.preload).map_err(|e| format!("preload ingest: {e}"))?;
        self.wait_visible(inputs, inputs.preload.len() as u64, timeout)
    }

    /// Polls the read endpoint until a `query-batch` answer reports at
    /// least `target` observations; on timeout, names the stuck hop.
    pub fn wait_visible(
        &self,
        inputs: &Inputs,
        target: u64,
        timeout: Duration,
    ) -> Result<(), String> {
        let mut reader = Self::client(self.read_addr())?;
        let line = inputs.read_lines[0].trim_end();
        let deadline = Instant::now() + timeout;
        loop {
            let answer = reader.call_raw(line).map_err(|e| format!("read endpoint: {e}"))?;
            let observations =
                answer.get("result").and_then(|r| r.get("observations")).and_then(|v| v.as_u64());
            if observations.is_some_and(|o| o >= target) {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err(format!(
                    "written rows not visible within {timeout:?}: {}",
                    self.diagnose(target)
                ));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// Finds the first hop whose count falls short of `target` rows.
    pub fn diagnose(&self, target: u64) -> String {
        let engine_total = |addr: SocketAddr| -> Result<(u64, u64), String> {
            let raw = Self::stats(addr)?;
            Ok((
                count(&raw, &["engine", "total_ingested"]),
                count(&raw, &["server", "protocol_errors"]),
            ))
        };
        let published = |addr: SocketAddr| Self::published(&mut Self::client(addr)?);
        let report = || -> Result<String, String> {
            let (written, _) = engine_total(self.write_addr())?;
            if written < target {
                return Ok(format!(
                    "stuck hop: ingest ({} holds {written} of {target} rows)",
                    self.procs[0].label
                ));
            }
            if self.topology == Topology::Fabric {
                let (merged, errors) = engine_total(self.fit_addr())?;
                if merged < target {
                    return Ok(format!(
                        "stuck hop: push (coordinator holds {merged} of {target} rows; \
                         coordinator protocol_errors = {errors})"
                    ));
                }
            }
            let fitted = published(self.fit_addr())?;
            if fitted < target {
                return Ok(format!(
                    "stuck hop: refit (published snapshot covers {fitted} of {target} rows)"
                ));
            }
            if self.topology == Topology::Fabric {
                let synced = published(self.read_addr())?;
                if synced < target {
                    return Ok(format!(
                        "stuck hop: sync (replica snapshot covers {synced} of {target} rows)"
                    ));
                }
            }
            Ok("stuck hop: read (the read endpoint's snapshot covers the rows, its answers do not)"
                .into())
        };
        report().unwrap_or_else(|e| format!("stuck hop unknown: {e}"))
    }

    /// CPU seconds used so far by every process under test.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        self.procs.iter().map(Proc::cpu_seconds).sum()
    }

    /// Sum of the processes' peak resident sets, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        self.procs.iter().map(Proc::peak_rss_mb).sum()
    }

    /// Shuts every process down over the wire — ingest node first so its
    /// final flush still reaches the coordinator — and checks each exits.
    pub fn shutdown(self) -> Result<(), String> {
        let mut first_error = None;
        for proc in self.procs {
            if let Err(e) = proc.shutdown() {
                first_error.get_or_insert(e);
            }
        }
        let _ = std::fs::remove_dir_all(&self.dir);
        first_error.map_or(Ok(()), Err)
    }
}

/// The integer at `path` in an answer (0 when absent).
pub fn count(value: &Value, path: &[&str]) -> u64 {
    path.iter().try_fold(value, |v, key| v.get(key)).and_then(Value::as_u64).unwrap_or(0)
}
