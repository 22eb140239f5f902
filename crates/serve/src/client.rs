//! A blocking line-protocol client: the helper the integration tests, the
//! throughput bench and the `pka-serve probe` subcommand all drive the
//! server with.

use crate::error::ServeError;
use crate::protocol::{self, object};
use crate::server::{EngineStats, IngestSummary, RefitSummary, ServerStats, SyncSummary};
use pka_core::KnowledgeBase;
use pka_stream::{CountShard, SnapshotMeta};
use serde::{Deserialize, Serialize, Value};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Socket-level timeouts for a [`LineClient`].
///
/// The defaults match the historical behaviour (no connect/write deadline,
/// 30 s read deadline); fabric components tighten them so a wedged or
/// partitioned peer surfaces as a retryable [`ServeError::Io`] instead of
/// hanging a pump thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientConfig {
    /// Deadline for establishing the TCP connection; `None` uses the OS
    /// default (which can be minutes).
    pub connect_timeout: Option<Duration>,
    /// Deadline for each response read; `None` blocks indefinitely.
    pub read_timeout: Option<Duration>,
    /// Deadline for each request write; `None` blocks indefinitely.
    pub write_timeout: Option<Duration>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            connect_timeout: None,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: None,
        }
    }
}

impl ClientConfig {
    /// A uniform deadline on connect, read and write — what a fabric
    /// pump's peer calls use.
    pub fn with_deadline(deadline: Duration) -> Self {
        Self {
            connect_timeout: Some(deadline),
            read_timeout: Some(deadline),
            write_timeout: Some(deadline),
        }
    }
}

/// One name-based batch query: `(target pairs, evidence pairs)`.
pub type NamedQuery<'a> = (&'a [(&'a str, &'a str)], &'a [(&'a str, &'a str)]);

/// The typed answer to a `query` request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryAnswer {
    /// `P(target | evidence)`.
    pub probability: f64,
    /// `P(target, evidence)`.
    pub joint_probability: f64,
    /// `P(evidence)`.
    pub evidence_probability: f64,
    /// The unconditional `P(target)`.
    pub prior_probability: f64,
    /// `probability / prior_probability`, or `None` when the prior is zero
    /// (the server sends `null`; infinity has no JSON representation).
    pub lift: Option<f64>,
    /// Human-readable rendering of the question and answer.
    pub description: String,
    /// Version of the snapshot that answered.
    pub snapshot_version: u64,
    /// Tuples that snapshot was fitted on.
    pub observations: u64,
}

/// A blocking client over one TCP connection.
///
/// Requests are answered in order, so [`LineClient::pipeline`] may send a
/// whole batch before reading any response.
pub struct LineClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

impl LineClient {
    /// Connects to a server with the default [`ClientConfig`] (no connect
    /// deadline, 30 s read deadline — generous so a wedged server fails
    /// tests instead of hanging them).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self, ServeError> {
        Self::connect_with(addr, &ClientConfig::default())
    }

    /// Connects with explicit socket deadlines.  A connect timeout is
    /// applied to each resolved address in turn until one succeeds.
    pub fn connect_with<A: ToSocketAddrs>(
        addr: A,
        config: &ClientConfig,
    ) -> Result<Self, ServeError> {
        let writer = match config.connect_timeout {
            None => TcpStream::connect(addr)?,
            Some(deadline) => {
                let mut last_err: Option<std::io::Error> = None;
                let mut connected = None;
                for resolved in addr.to_socket_addrs()? {
                    match TcpStream::connect_timeout(&resolved, deadline) {
                        Ok(stream) => {
                            connected = Some(stream);
                            break;
                        }
                        Err(e) => last_err = Some(e),
                    }
                }
                match connected {
                    Some(stream) => stream,
                    None => {
                        return Err(ServeError::Io(last_err.unwrap_or_else(|| {
                            std::io::Error::new(
                                std::io::ErrorKind::InvalidInput,
                                "address resolved to no socket addresses",
                            )
                        })))
                    }
                }
            }
        };
        writer.set_nodelay(true)?;
        writer.set_read_timeout(config.read_timeout)?;
        writer.set_write_timeout(config.write_timeout)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Self { reader, writer, next_id: 1 })
    }

    /// Sends one request and returns its `result` (or the server's
    /// structured error as [`ServeError::Remote`]).
    pub fn call(&mut self, method: &str, params: Value) -> Result<Value, ServeError> {
        self.call_ref(method, &params)
    }

    /// [`LineClient::call`] by reference — lets a client re-send a large
    /// params tree (e.g. a standing `query-batch`) without moving or
    /// cloning it.
    pub fn call_ref(&mut self, method: &str, params: &Value) -> Result<Value, ServeError> {
        let id = self.next_id;
        self.next_id += 1;
        let line = protocol::request_line(id, method, params);
        self.send_line(&line)?;
        let response = self.read_response()?;
        Self::unwrap_response(response, Some(id))
    }

    /// [`LineClient::call`] with a `deadline_ms` budget in the envelope:
    /// the server answers `deadline-exceeded` instead of doing the work if
    /// the budget runs out while the request is still queued.
    pub fn call_with_deadline(
        &mut self,
        method: &str,
        params: &Value,
        deadline_ms: u64,
    ) -> Result<Value, ServeError> {
        let id = self.next_id;
        self.next_id += 1;
        let line = protocol::request_line_with_deadline(id, method, params, Some(deadline_ms));
        self.send_line(&line)?;
        let response = self.read_response()?;
        Self::unwrap_response(response, Some(id))
    }

    /// Sends a raw line verbatim (malformed-input testing) and returns the
    /// parsed response envelope.
    pub fn call_raw(&mut self, line: &str) -> Result<Value, ServeError> {
        self.send_line(line)?;
        self.read_response()
    }

    /// Sends raw bytes plus a newline (e.g. invalid UTF-8) and returns the
    /// parsed response envelope.
    pub fn call_bytes(&mut self, bytes: &[u8]) -> Result<Value, ServeError> {
        let mut framed = Vec::with_capacity(bytes.len() + 1);
        framed.extend_from_slice(bytes);
        framed.push(b'\n');
        self.writer.write_all(&framed)?;
        self.read_response()
    }

    /// Pipelines a batch of `(method, params)` requests: all writes first,
    /// then all reads, in order.
    pub fn pipeline(
        &mut self,
        requests: &[(&str, Value)],
    ) -> Result<Vec<Result<Value, ServeError>>, ServeError> {
        let first_id = self.next_id;
        let mut lines = String::new();
        for (offset, (method, params)) in requests.iter().enumerate() {
            lines.push_str(&protocol::request_line(first_id + offset as u64, method, params));
            lines.push('\n');
        }
        self.next_id += requests.len() as u64;
        self.writer.write_all(lines.as_bytes())?;
        (0..requests.len())
            .map(|offset| {
                let response = self.read_response()?;
                Ok(Self::unwrap_response(response, Some(first_id + offset as u64)))
            })
            .collect()
    }

    /// `ping` → true on pong.
    pub fn ping(&mut self) -> Result<bool, ServeError> {
        let result = self.call("ping", object([]))?;
        Ok(result.get("pong") == Some(&Value::Bool(true)))
    }

    /// The server's schema as `(attribute, values)` name lists.
    pub fn schema(&mut self) -> Result<Vec<(String, Vec<String>)>, ServeError> {
        let result = self.call("schema", object([]))?;
        let Some(Value::Array(attributes)) = result.get("attributes") else {
            return Err(ServeError::BadResponse { reason: "missing `attributes`".into() });
        };
        attributes
            .iter()
            .map(|a| {
                let name = match a.get("name") {
                    Some(Value::Str(n)) => n.clone(),
                    _ => {
                        return Err(ServeError::BadResponse {
                            reason: "attribute without a name".into(),
                        })
                    }
                };
                let values = match a.get("values") {
                    Some(values) => Vec::<String>::deserialize(values)
                        .map_err(|e| ServeError::BadResponse { reason: e.to_string() })?,
                    None => Vec::new(),
                };
                Ok((name, values))
            })
            .collect()
    }

    /// `query` with name-based target/evidence pairs.
    pub fn query(
        &mut self,
        target: &[(&str, &str)],
        evidence: &[(&str, &str)],
    ) -> Result<QueryAnswer, ServeError> {
        let params =
            object([("target", names_object(target)), ("evidence", names_object(evidence))]);
        let result = self.call("query", params)?;
        QueryAnswer::deserialize(&result)
            .map_err(|e| ServeError::BadResponse { reason: e.to_string() })
    }

    /// `query-batch`: evaluates a whole batch of name-based queries with
    /// **one request line and one response line**.  Every entry is answered
    /// from the same snapshot; per-entry failures (unknown names,
    /// zero-probability evidence, …) come back as per-entry
    /// [`ServeError::Remote`] values without failing the batch.
    ///
    /// Batch entries are lean on the wire: the snapshot identity is
    /// hoisted to the batch envelope (this method copies it back into each
    /// [`QueryAnswer`]) and the rendered description is omitted — the
    /// caller already has the question, so `description` is rebuilt here
    /// from the request pairs.
    pub fn query_batch(
        &mut self,
        queries: &[NamedQuery<'_>],
    ) -> Result<Vec<Result<QueryAnswer, ServeError>>, ServeError> {
        let entries = queries
            .iter()
            .map(|&(target, evidence)| {
                object([("target", names_object(target)), ("evidence", names_object(evidence))])
            })
            .collect();
        let result = self.call("query-batch", object([("queries", Value::Array(entries))]))?;
        let Some(Value::Array(results)) = result.get("results") else {
            return Err(ServeError::BadResponse { reason: "missing `results`".into() });
        };
        if results.len() != queries.len() {
            return Err(ServeError::BadResponse {
                reason: format!("sent {} queries, got {} results", queries.len(), results.len()),
            });
        }
        let envelope_u64 = |name: &str| -> Result<u64, ServeError> {
            result.get(name).and_then(Value::as_u64).ok_or_else(|| ServeError::BadResponse {
                reason: format!("batch result without `{name}`"),
            })
        };
        let snapshot_version = envelope_u64("snapshot_version")?;
        let observations = envelope_u64("observations")?;
        Ok(results
            .iter()
            .zip(queries)
            .map(|(entry, &(target, evidence))| match entry.get("error") {
                Some(error) => {
                    let field = |name: &str| -> String {
                        error
                            .get(name)
                            .and_then(|v| match v {
                                Value::Str(s) => Some(s.clone()),
                                _ => None,
                            })
                            .unwrap_or_default()
                    };
                    Err(ServeError::Remote {
                        code: field("code"),
                        message: field("message"),
                        retry_after_ms: None,
                    })
                }
                None => {
                    // A data entry is the positional row `[probability,
                    // joint, evidence, prior, lift]`.
                    let Value::Array(fields) = entry else {
                        return Err(ServeError::BadResponse {
                            reason: "batch entry is neither a row nor an error".into(),
                        });
                    };
                    if fields.len() != 5 {
                        return Err(ServeError::BadResponse {
                            reason: format!("batch row has {} of 5 fields", fields.len()),
                        });
                    }
                    let number = |i: usize| -> Result<f64, ServeError> {
                        fields[i].as_f64().ok_or_else(|| ServeError::BadResponse {
                            reason: format!("batch row field {i} is not a number"),
                        })
                    };
                    Ok(QueryAnswer {
                        probability: number(0)?,
                        joint_probability: number(1)?,
                        evidence_probability: number(2)?,
                        prior_probability: number(3)?,
                        lift: fields[4].as_f64(),
                        description: describe_pairs(target, evidence),
                        snapshot_version,
                        observations,
                    })
                }
            })
            .collect())
    }

    /// `explain` with name-based target/evidence pairs; returns the raw
    /// result value (steps, supporting constraints, rendered text).
    pub fn explain(
        &mut self,
        target: &[(&str, &str)],
        evidence: &[(&str, &str)],
    ) -> Result<Value, ServeError> {
        let params =
            object([("target", names_object(target)), ("evidence", names_object(evidence))]);
        self.call("explain", params)
    }

    /// `ingest` a batch of raw rows (value indices).
    pub fn ingest(&mut self, rows: &[Vec<usize>]) -> Result<IngestSummary, ServeError> {
        let rows_value = Value::Array(
            rows.iter()
                .map(|row| Value::Array(row.iter().map(|&v| Value::U64(v as u64)).collect()))
                .collect(),
        );
        let result = self.call("ingest", object([("rows", rows_value)]))?;
        IngestSummary::deserialize(&result)
            .map_err(|e| ServeError::BadResponse { reason: e.to_string() })
    }

    /// `refresh`: force a refit now.
    pub fn refresh(&mut self) -> Result<RefitSummary, ServeError> {
        let result = self.call("refresh", object([]))?;
        RefitSummary::deserialize(&result)
            .map_err(|e| ServeError::BadResponse { reason: e.to_string() })
    }

    /// `stats`: engine counters (the full raw value is available via
    /// [`LineClient::call`]).
    pub fn stats(&mut self) -> Result<EngineStats, ServeError> {
        let result = self.call("stats", object([]))?;
        let engine = result
            .get("engine")
            .ok_or_else(|| ServeError::BadResponse { reason: "missing `engine`".into() })?;
        EngineStats::deserialize(engine)
            .map_err(|e| ServeError::BadResponse { reason: e.to_string() })
    }

    /// `stats`: connection-side counters (the `server` object), including
    /// the lattice hit/miss totals of the query fast path.
    pub fn server_stats(&mut self) -> Result<ServerStats, ServeError> {
        let result = self.call("stats", object([]))?;
        let server = result
            .get("server")
            .ok_or_else(|| ServeError::BadResponse { reason: "missing `server`".into() })?;
        ServerStats::deserialize(server)
            .map_err(|e| ServeError::BadResponse { reason: e.to_string() })
    }

    /// `snapshot-version`: the latest published version, if any.
    pub fn snapshot_version(&mut self) -> Result<Option<u64>, ServeError> {
        let result = self.call("snapshot-version", object([]))?;
        match result.get("snapshot") {
            None | Some(Value::Null) => Ok(None),
            Some(meta) => meta.get("version").and_then(Value::as_u64).map(Some).ok_or_else(|| {
                ServeError::BadResponse { reason: "snapshot without version".into() }
            }),
        }
    }

    /// `shard-push`: delivers a source's cumulative [`CountShard`] to a
    /// coordinator (or standalone node) under a monotone sequence number.
    pub fn shard_push(
        &mut self,
        source: &str,
        seq: u64,
        shard: &CountShard,
    ) -> Result<crate::server::ShardPushSummary, ServeError> {
        let params = object([
            ("source", Value::Str(source.to_string())),
            ("seq", Value::U64(seq)),
            ("shard", Serialize::serialize(shard)),
        ]);
        let result = self.call("shard-push", params)?;
        crate::server::ShardPushSummary::deserialize(&result)
            .map_err(|e| ServeError::BadResponse { reason: e.to_string() })
    }

    /// `snapshot-sync`: offers a snapshot (meta + knowledge base) to a
    /// replica.  A stale or duplicate offer comes back as
    /// `SyncSummary { applied: false, .. }`, not an error.
    pub fn snapshot_sync(
        &mut self,
        meta: &SnapshotMeta,
        knowledge_base: &KnowledgeBase,
    ) -> Result<SyncSummary, ServeError> {
        let params = object([
            ("meta", Serialize::serialize(meta)),
            ("knowledge_base", Serialize::serialize(knowledge_base)),
        ]);
        let result = self.call("snapshot-sync", params)?;
        SyncSummary::deserialize(&result)
            .map_err(|e| ServeError::BadResponse { reason: e.to_string() })
    }

    /// A second handle on this client's socket, to cut a blocked call.
    pub(crate) fn try_clone_socket(&self) -> std::io::Result<TcpStream> {
        self.writer.try_clone()
    }

    /// `snapshot-pull`: fetches the serving node's latest published
    /// snapshot, if any — the replica catch-up path.  The knowledge base
    /// decodes through its checked constructors, so it arrives validated,
    /// indexed and ready to use.
    pub fn snapshot_pull(&mut self) -> Result<Option<(SnapshotMeta, KnowledgeBase)>, ServeError> {
        let result = self.call("snapshot-pull", object([]))?;
        match result.get("snapshot") {
            None | Some(Value::Null) => Ok(None),
            Some(snapshot) => protocol::snapshot_from_value(snapshot)
                .map(Some)
                .map_err(|e| ServeError::BadResponse { reason: e.message }),
        }
    }

    /// `shutdown`: asks the server to stop; the server closes this
    /// connection after acknowledging.
    pub fn shutdown(&mut self) -> Result<(), ServeError> {
        self.call("shutdown", object([]))?;
        Ok(())
    }

    fn send_line(&mut self, line: &str) -> Result<(), ServeError> {
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        self.writer.write_all(framed.as_bytes())?;
        Ok(())
    }

    fn read_response(&mut self) -> Result<Value, ServeError> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(ServeError::BadResponse { reason: "server closed the connection".into() });
        }
        serde_json::from_str(line.trim_end())
            .map_err(|e| ServeError::BadResponse { reason: e.to_string() })
    }

    /// Splits a response envelope into result / remote error, checking the
    /// correlation id when one is expected.
    fn unwrap_response(response: Value, expect_id: Option<u64>) -> Result<Value, ServeError> {
        if let Some(expected) = expect_id {
            match response.get("id").and_then(Value::as_u64) {
                Some(id) if id == expected => {}
                other => {
                    return Err(ServeError::BadResponse {
                        reason: format!("expected response id {expected}, got {other:?}"),
                    })
                }
            }
        }
        match response.get("ok") {
            // Moved out, not cloned: the result is the bulk of the line.
            Some(Value::Bool(true)) => Ok(match response {
                Value::Object(fields) => {
                    fields.into_iter().find(|(k, _)| k == "result").map_or(Value::Null, |(_, v)| v)
                }
                _ => Value::Null,
            }),
            Some(Value::Bool(false)) => {
                let error = response.get("error");
                let field = |name: &str| -> String {
                    error
                        .and_then(|e| e.get(name))
                        .and_then(|v| match v {
                            Value::Str(s) => Some(s.clone()),
                            _ => None,
                        })
                        .unwrap_or_default()
                };
                let retry_after_ms =
                    error.and_then(|e| e.get("retry_after_ms")).and_then(Value::as_u64);
                Err(ServeError::Remote {
                    code: field("code"),
                    message: field("message"),
                    retry_after_ms,
                })
            }
            _ => Err(ServeError::BadResponse { reason: "response has no `ok` field".into() }),
        }
    }
}

/// Builds a `{"attr": "value"}` object from name pairs.
fn names_object(pairs: &[(&str, &str)]) -> Value {
    Value::Object(pairs.iter().map(|&(a, v)| (a.to_string(), Value::Str(v.to_string()))).collect())
}

/// Client-side rendering of a question, `P(a=x | b=y)` — used for batch
/// answers, whose wire form omits the server-rendered description.
fn describe_pairs(target: &[(&str, &str)], evidence: &[(&str, &str)]) -> String {
    let join = |pairs: &[(&str, &str)]| {
        pairs.iter().map(|&(a, v)| format!("{a}={v}")).collect::<Vec<_>>().join(", ")
    };
    if evidence.is_empty() {
        format!("P({})", join(target))
    } else {
        format!("P({} | {})", join(target), join(evidence))
    }
}
