//! The request envelope parser, the read-path decoders and the response
//! printer on the wire path.
//!
//! `parse_request` reads the envelope in place and keeps `params` as the
//! validated text of the line; these tests pin it to the clone-based
//! parser of a tree (kept below as the reference) over random envelopes,
//! pin every `query`, `explain` and `query-batch` response line of a live
//! server to the tree-based decoding the read path used before (kept below
//! as the oracle) over random, often malformed, lines, and a counting
//! allocator checks that parsing builds no tree, that decoding a batch
//! allocates little more than its assignments, and that printing copies
//! nothing.

use pka::serve::protocol::{self, object, parse_request, ErrorCode, Request, RequestError};
use proptest::prelude::*;
use serde::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

// ---------------------------------------------------------------------------
// Allocation counting (this thread only, so parallel tests do not interfere)
// ---------------------------------------------------------------------------

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn note_allocation() {
    // `try_with`: the allocator may run while this thread's locals are torn
    // down, when there is nothing left to count into.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations (including reallocations) `f` makes on this thread, and its
/// result.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

// ---------------------------------------------------------------------------
// The clone-based parser `parse_request` replaced, as the reference
// ---------------------------------------------------------------------------

/// The fields the reference parser produces: a `Request` whose `params`
/// is a tree.
struct ReferenceRequest {
    id: Value,
    method: String,
    params: Value,
    deadline_ms: Option<u64>,
}

fn reference_parse(line: &str) -> Result<ReferenceRequest, RequestError> {
    let fail = |code, message: String, id| RequestError { code, message, id, retry_after_ms: None };
    let value: Value = serde_json::from_str(line)
        .map_err(|e| fail(ErrorCode::ParseError, e.to_string(), Value::Null))?;
    if !matches!(value, Value::Object(_)) {
        let message = format!("a request must be a JSON object, found {}", value.kind());
        return Err(fail(ErrorCode::InvalidRequest, message, Value::Null));
    }
    let id = value.get("id").cloned().unwrap_or(Value::Null);
    let method = match value.get("method") {
        Some(Value::Str(m)) => m.clone(),
        Some(other) => {
            let message = format!("`method` must be a string, found {}", other.kind());
            return Err(fail(ErrorCode::InvalidRequest, message, id));
        }
        None => {
            let message = "request has no `method` field".to_string();
            return Err(fail(ErrorCode::InvalidRequest, message, id));
        }
    };
    let params = value.get("params").cloned().unwrap_or_else(|| Value::Object(Vec::new()));
    let deadline_ms = match value.get("deadline_ms") {
        None | Some(Value::Null) => None,
        Some(v) => match v.as_u64() {
            Some(ms) => Some(ms),
            None => {
                let message =
                    format!("`deadline_ms` must be a non-negative integer, found {}", v.kind());
                return Err(fail(ErrorCode::InvalidRequest, message, id));
            }
        },
    };
    Ok(ReferenceRequest { id, method, params, deadline_ms })
}

/// A parse's result in a comparable form: the request's fields (`params`
/// as a tree), or the error's `(code, message, id)`.
type Outcome = Result<(Value, String, Value, Option<u64>), (ErrorCode, String, Value)>;

/// A parsed request of either parser, as comparable fields.
trait Envelope {
    fn fields(self) -> (Value, String, Value, Option<u64>);
}

impl Envelope for Request<'_> {
    fn fields(self) -> (Value, String, Value, Option<u64>) {
        (self.id, self.method, self.params.to_value(), self.deadline_ms)
    }
}

impl Envelope for ReferenceRequest {
    fn fields(self) -> (Value, String, Value, Option<u64>) {
        (self.id, self.method, self.params, self.deadline_ms)
    }
}

fn outcome(result: Result<impl Envelope, RequestError>) -> Outcome {
    match result {
        Ok(r) => Ok(r.fields()),
        Err(e) => Err((e.code, e.message, e.id)),
    }
}

// ---------------------------------------------------------------------------
// Random envelopes
// ---------------------------------------------------------------------------

const KEYS: [&str; 7] = ["id", "method", "params", "deadline_ms", "extra", "ID", "method "];

const VALUES: [&str; 18] = [
    "null",
    "true",
    "7",
    "-3",
    "0",
    "250",
    "2.5",
    "1e3",
    "18446744073709551615",
    "\"query\"",
    "\"ping\"",
    "\"soon\"",
    "\"\"",
    "[]",
    "[1,\"a\",{\"b\":null}]",
    "{}",
    "{\"target\":{\"cancer\":\"yes\"},\"evidence\":{\"smoking\":\"smoker\"}}",
    "{\"queries\":[{\"target\":{\"a\":\"b\"}},7]}",
];

/// Renders one envelope: `shape` picks an object (most cases), a non-object
/// line, or a truncated (unparseable) object.
fn envelope(shape: u8, fields: &[(usize, usize)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|&(k, v)| format!("\"{}\":{}", KEYS[k % KEYS.len()], VALUES[v % VALUES.len()]))
        .collect();
    let object = format!("{{{}}}", body.join(","));
    match shape {
        0 => VALUES[fields.first().map_or(0, |f| f.1) % VALUES.len()].to_string(),
        1 => object[..object.len() - 1].to_string(),
        _ => object,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parse_by_move_matches_the_clone_based_parser(
        shape in 0u8..8,
        fields in proptest::collection::vec((0usize..KEYS.len(), 0usize..VALUES.len()), 0..8),
    ) {
        let line = envelope(shape, &fields);
        prop_assert_eq!(outcome(parse_request(&line)), outcome(reference_parse(&line)), "{}", line);
    }
}

#[test]
fn duplicate_keys_keep_their_first_occurrence() {
    let line = r#"{"id":1,"method":"ping","id":2,"method":7,"params":{"a":1},"params":[]}"#;
    let request = parse_request(line).unwrap();
    assert_eq!(request.id, Value::U64(1));
    assert_eq!(request.method, "ping");
    assert_eq!(request.params, object([("a", Value::U64(1))]));
    let err = parse_request(r#"{"id":"x","method":[],"method":"ping"}"#).unwrap_err();
    assert_eq!(err.code, ErrorCode::InvalidRequest);
    assert_eq!(err.id, Value::Str("x".into()));
}

// ---------------------------------------------------------------------------
// Allocation guards
// ---------------------------------------------------------------------------

/// A 64-entry `query-batch` request line over the survey schema's names.
fn batch_request_line() -> String {
    let schema = pka::datagen::survey::schema();
    let attributes = schema.attributes();
    let pair = |i: usize, j: usize| {
        let a = &attributes[(i + j) % attributes.len()];
        (a.name().to_string(), Value::Str(a.values()[(i + j) % a.values().len()].clone()))
    };
    let entries = (0..64)
        .map(|i| {
            let order = if i < 8 { 3 } else { 1 + i % 2 };
            let evidence = (1..order).map(|j| pair(i, j)).collect();
            object([
                ("target", Value::Object(vec![pair(i, 0)])),
                ("evidence", Value::Object(evidence)),
            ])
        })
        .collect();
    protocol::request_line(1, "query-batch", &object([("queries", Value::Array(entries))]))
}

/// A `query-batch` answer with `entries` positional five-number rows.
fn batch_answer(entries: usize) -> Value {
    let row =
        |i: usize| Value::Array((0..5).map(|k| Value::F64((i * 5 + k) as f64 / 7.0)).collect());
    object([
        ("count", Value::U64(entries as u64)),
        ("results", Value::Array((0..entries).map(row).collect())),
        ("snapshot_version", Value::U64(3)),
        ("observations", Value::U64(20_000)),
    ])
}

#[test]
fn parsing_a_request_copies_no_tree() {
    let line = batch_request_line();
    let (tree_allocations, tree) = allocations_of(|| serde_json::from_str::<Value>(&line).unwrap());
    // A clone allocates once per heap node of the tree, so it is what one
    // tree costs; the parser's growth reallocations add a few on top.
    let (clone_allocations, _) = allocations_of(|| tree.clone());
    assert!(
        tree_allocations <= clone_allocations + 16,
        "from_str::<Value> made {tree_allocations} allocations; one tree takes {clone_allocations}"
    );
    let (request_allocations, request) = allocations_of(|| parse_request(&line).unwrap());
    assert_eq!(Some(&request.params.to_value()), tree.get("params"));
    assert!(
        request_allocations <= tree_allocations + 4,
        "parse_request made {request_allocations} allocations; the tree alone takes {tree_allocations}"
    );
}

#[test]
fn printing_an_answer_copies_no_tree() {
    let answer = batch_answer(64);
    let (allocations, line) = allocations_of(|| serde_json::to_string(&answer).unwrap());
    assert_eq!(serde_json::from_str::<Value>(&line).unwrap(), answer);
    assert!(allocations <= 32, "printing a 64-entry answer made {allocations} allocations");
    // The same holds for the full response line.
    let (allocations, _) = allocations_of(|| protocol::ok_line(&Value::U64(1), answer));
    assert!(allocations <= 32, "ok_line of a 64-entry answer made {allocations} allocations");
}

#[test]
fn printing_a_float_allocates_nothing() {
    let mut text = String::with_capacity(64);
    for x in [0.0, -0.0, 1.0 / 3.0, 5e-324, f64::MAX, 1e16, 123.25] {
        text.clear();
        let (allocations, ()) = allocations_of(|| serde_json::write_f64(&mut text, x));
        assert_eq!(allocations, 0, "printing {x:?} allocated");
        assert_eq!(text, format!("{x:?}"));
    }
}

#[test]
fn decoding_a_batch_allocates_about_its_assignments() {
    let schema = pka::datagen::survey::schema();
    let line = batch_request_line();
    let request = parse_request(&line).unwrap();
    let (allocations, questions) =
        allocations_of(|| protocol::batch_questions(&schema, request.params).unwrap());
    assert_eq!(questions.len(), 64);
    assert!(questions.iter().all(Result::is_ok));
    // Each entry's target and evidence are one allocation each (their
    // value vectors); the rest is the result vector's growth and the
    // reused name buffer.
    let bound = 2 * questions.len() + 16;
    assert!(allocations <= bound, "decoding 64 entries made {allocations} allocations (> {bound})");
}

// ---------------------------------------------------------------------------
// The tree-based read path the server replaced, as the oracle
// ---------------------------------------------------------------------------

mod oracle {
    //! The `query`, `explain` and `query-batch` responses as the server
    //! built them from a parsed JSON tree: every `target`/`evidence` was
    //! decoded from `Value`s, then answered and printed exactly as today.

    use super::reference_parse;
    use pka::contingency::{Assignment, Schema};
    use pka::core::{Query, QueryResult};
    use pka::expert::explain_query_with;
    use pka::serve::protocol::{self, assignment_to_value, object, ErrorCode, RequestError};
    use pka::stream::Snapshot;
    use serde::Value;

    fn invalid(message: String) -> RequestError {
        RequestError {
            code: ErrorCode::InvalidParams,
            message,
            id: Value::Null,
            retry_after_ms: None,
        }
    }

    fn query_error(e: pka::core::CoreError) -> RequestError {
        RequestError {
            code: ErrorCode::QueryError,
            message: e.to_string(),
            id: Value::Null,
            retry_after_ms: None,
        }
    }

    /// The tree-based `assignment_from_value`.
    fn assignment(schema: &Schema, value: &Value, what: &str) -> Result<Assignment, RequestError> {
        match value {
            Value::Null => Ok(Assignment::empty()),
            Value::Object(fields) => {
                let mut pairs: Vec<(&str, &str)> = Vec::with_capacity(fields.len());
                for (attr, v) in fields {
                    let Value::Str(value_name) = v else {
                        return Err(invalid(format!(
                            "`{what}.{attr}` must be a value name (string), found {}",
                            v.kind()
                        )));
                    };
                    pairs.push((attr.as_str(), value_name.as_str()));
                }
                Assignment::from_names(schema, &pairs)
                    .map_err(|e| invalid(format!("bad `{what}`: {e}")))
            }
            other => Err(invalid(format!(
                "`{what}` must be an object of attribute: value names, found {}",
                other.kind()
            ))),
        }
    }

    fn question(schema: &Schema, fields: &Value) -> Result<Query, RequestError> {
        let null = Value::Null;
        let target = assignment(schema, fields.get("target").unwrap_or(&null), "target")?;
        let evidence = assignment(schema, fields.get("evidence").unwrap_or(&null), "evidence")?;
        if target.vars().is_empty() {
            return Err(invalid("`target` must assign at least one attribute".to_string()));
        }
        Ok(Query::conditional(target, evidence))
    }

    fn finite(x: f64) -> Value {
        if x.is_finite() {
            Value::F64(x)
        } else {
            Value::Null
        }
    }

    fn lift(posterior: f64, prior: f64) -> Value {
        if prior > 0.0 {
            finite(posterior / prior)
        } else {
            Value::Null
        }
    }

    fn numbers(answer: &QueryResult) -> [(&'static str, Value); 5] {
        [
            ("probability", finite(answer.probability)),
            ("joint_probability", finite(answer.joint_probability)),
            ("evidence_probability", finite(answer.evidence_probability)),
            ("prior_probability", finite(answer.prior_probability)),
            ("lift", lift(answer.probability, answer.prior_probability)),
        ]
    }

    fn answer(snapshot: &Snapshot, fields: &Value) -> Result<QueryResult, RequestError> {
        let kb = snapshot.knowledge_base();
        question(kb.schema(), fields)?
            .answer(kb.schema(), |a| kb.evaluate(a).0)
            .map_err(query_error)
    }

    fn result(snapshot: &Snapshot, method: &str, params: &Value) -> Result<Value, RequestError> {
        let kb = snapshot.knowledge_base();
        let schema = kb.schema();
        match method {
            "query" => {
                let answer = answer(snapshot, params)?;
                let [p, jp, ep, pp, lift] = numbers(&answer);
                Ok(object([
                    p,
                    jp,
                    ep,
                    pp,
                    lift,
                    ("description", Value::Str(answer.query.describe(schema))),
                    ("snapshot_version", Value::U64(snapshot.version())),
                    ("observations", Value::U64(snapshot.observations())),
                ]))
            }
            "query-batch" => {
                let queries = match params.get("queries") {
                    Some(Value::Array(queries)) => queries,
                    Some(other) => {
                        return Err(invalid(format!(
                            "`queries` must be an array of query objects, found {}",
                            other.kind()
                        )))
                    }
                    None => return Err(invalid("missing `queries`".to_string())),
                };
                let error = |e: RequestError| {
                    object([(
                        "error",
                        object([
                            ("code", Value::Str(e.code.as_str().to_string())),
                            ("message", Value::Str(e.message)),
                        ]),
                    )])
                };
                let results: Vec<Value> = queries
                    .iter()
                    .map(|entry| {
                        if !matches!(entry, Value::Object(_)) {
                            return error(invalid(format!(
                                "a batch entry must be a query object, found {}",
                                entry.kind()
                            )));
                        }
                        match answer(snapshot, entry) {
                            Ok(answer) => Value::Array(numbers(&answer).map(|(_, v)| v).to_vec()),
                            Err(e) => error(e),
                        }
                    })
                    .collect();
                Ok(object([
                    ("count", Value::U64(results.len() as u64)),
                    ("results", Value::Array(results)),
                    ("snapshot_version", Value::U64(snapshot.version())),
                    ("observations", Value::U64(snapshot.observations())),
                ]))
            }
            "explain" => {
                let Query { target, evidence } = question(schema, params)?;
                let explanation =
                    explain_query_with(kb, &target, &evidence, |a: &Assignment| kb.evaluate(a).0)
                        .map_err(query_error)?;
                let steps = explanation
                    .steps
                    .iter()
                    .map(|step| {
                        object([
                            ("evidence", assignment_to_value(schema, &step.evidence_so_far)),
                            ("probability", Value::F64(step.probability)),
                        ])
                    })
                    .collect();
                let constraints = explanation
                    .supporting_constraints
                    .iter()
                    .map(|(cell, p)| {
                        object([
                            ("cell", assignment_to_value(schema, cell)),
                            ("probability", Value::F64(*p)),
                        ])
                    })
                    .collect();
                Ok(object([
                    ("target", assignment_to_value(schema, &explanation.target)),
                    ("evidence", assignment_to_value(schema, &explanation.evidence)),
                    ("prior", Value::F64(explanation.prior)),
                    ("posterior", Value::F64(explanation.posterior)),
                    ("lift", lift(explanation.posterior, explanation.prior)),
                    ("steps", Value::Array(steps)),
                    ("supporting_constraints", Value::Array(constraints)),
                    ("rendered", Value::Str(explanation.render(schema))),
                    ("snapshot_version", Value::U64(snapshot.version())),
                ]))
            }
            other => panic!("the oracle answers reads only, not `{other}`"),
        }
    }

    /// The response line the tree-based read path gave for `line`.
    pub fn response(line: &str, snapshot: &Snapshot) -> String {
        let request = match reference_parse(line) {
            Ok(request) => request,
            Err(e) => return protocol::error_line(&e.id, e.code, &e.message),
        };
        match result(snapshot, &request.method, &request.params) {
            Ok(result) => protocol::ok_line(&request.id, result),
            Err(e) => protocol::error_line(&request.id, e.code, &e.message),
        }
    }
}

// ---------------------------------------------------------------------------
// Response parity against a live server
// ---------------------------------------------------------------------------

/// A survey server with one published snapshot and refits only on demand,
/// so every read below is answered from the snapshot the oracle reads.
struct ReadServer {
    server: pka::serve::ServerHandle,
    snapshot: pka::stream::Snapshot,
}

fn read_server() -> &'static ReadServer {
    use pka::datagen::sampler::{sample_dataset, seeded_rng};
    use pka::stream::{RefreshPolicy, StreamConfig};
    static SERVER: std::sync::OnceLock<ReadServer> = std::sync::OnceLock::new();
    SERVER.get_or_init(|| {
        let joint = pka::datagen::survey::ground_truth();
        let dataset = sample_dataset(&joint, 4_000, &mut seeded_rng(11));
        let config = pka::serve::ServeConfig::new()
            .with_stream(StreamConfig::new().with_policy(RefreshPolicy::Manual));
        let server = pka::serve::Server::start(dataset.shared_schema(), config).unwrap();
        let mut client = pka::serve::LineClient::connect(server.addr()).unwrap();
        let rows: Vec<Vec<usize>> = dataset.samples().iter().map(|s| s.values().to_vec()).collect();
        client.ingest(&rows).unwrap();
        client.refresh().unwrap();
        let snapshot = server.snapshots().load().expect("refresh published a snapshot");
        ReadServer { server, snapshot: (*snapshot).clone() }
    })
}

/// Sends one line and returns the server's response line, as text.
fn server_response(line: &str) -> String {
    use std::io::{BufRead, BufReader, Write};
    let mut stream = std::net::TcpStream::connect(read_server().server.addr()).unwrap();
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut response = String::new();
    BufReader::new(stream).read_line(&mut response).unwrap();
    response.trim_end_matches('\n').to_string()
}

/// `target`/`evidence` values: valid, unknown and escaped names, wrong
/// kinds inside and outside the object, duplicates, extra whitespace.
const ASSIGNMENTS: [&str; 20] = [
    "null",
    "{}",
    r#"{"cancer":"yes"}"#,
    r#"{"smoking":"smoker","age":"over-60"}"#,
    r#"{ "exposure" : "exposed" ,	"condition":"absent" }"#,
    r#"{"cancer":"yes"}"#,
    r#"{"exercise":"none","exercise":"regular"}"#,
    r#"{"cancer":"maybe"}"#,
    r#"{"weight":"heavy"}"#,
    r#"{"smok\"ing":"smoker"}"#,
    r#"{"cancer":7}"#,
    r#"{"cancer":null}"#,
    r#"{"age":"40-60","cancer":["yes"]}"#,
    r#"{"weight":"heavy","cancer":2.5}"#,
    r#""cancer""#,
    "[]",
    "3",
    "-0.5",
    "true",
    r#"{"age":{"nested":"x"}}"#,
];

/// Members of a question object: the two read keys (repeated, so
/// duplicates occur), near misses, and an unrelated key.
const MEMBER_KEYS: [&str; 6] = ["target", "evidence", "target", "evidence", "Target", "extra"];

/// Batch entries that are not objects.
const NON_OBJECTS: [&str; 5] = ["7", r#""query""#, "null", "[]", "false"];

/// Whitespace between tokens (never a newline: that ends the request).
const SPACES: [&str; 4] = ["", " ", " \t ", "\t"];

/// One question object from `(key, value)` member choices.
fn question_object(members: &[(usize, usize)], space: &str) -> String {
    let body: Vec<String> = members
        .iter()
        .map(|&(k, v)| {
            format!(
                "{space}\"{}\"{space}:{space}{}",
                MEMBER_KEYS[k % MEMBER_KEYS.len()],
                ASSIGNMENTS[v % ASSIGNMENTS.len()]
            )
        })
        .collect();
    format!("{{{}{space}}}", body.join(","))
}

/// A read request line.  `shape` picks the method and the oddities: a
/// `query` or `explain` with its question in `params` (or `params`
/// missing or not an object), or a `query-batch` whose entries mix
/// question objects and non-objects — with `queries` sometimes missing or
/// not an array, and sometimes a syntax error after the entries.
fn read_line(shape: u8, entries: &[(u8, Vec<(usize, usize)>)], space_choice: usize) -> String {
    let space = SPACES[space_choice % SPACES.len()];
    let first = entries.first().map_or(&[][..], |(_, m)| &m[..]);
    match shape % 8 {
        method @ (0 | 1) => {
            let method = ["query", "explain"][method as usize];
            let params = question_object(first, space);
            format!("{{\"id\":{shape},{space}\"method\":\"{method}\",\"params\":{space}{params}}}")
        }
        2 => format!(
            "{{\"id\":\"q\",\"method\":\"query\",\"params\":{}}}",
            NON_OBJECTS[first.len() % 5]
        ),
        3 => r#"{"id":3,"method":"explain"}"#.to_string(),
        _ => {
            let body: Vec<String> = entries
                .iter()
                .map(|(kind, members)| {
                    if kind % 4 == 0 {
                        NON_OBJECTS[members.len() % NON_OBJECTS.len()].to_string()
                    } else {
                        question_object(members, space)
                    }
                })
                .collect();
            let queries = format!("[{space}{}{space}]", body.join(&format!(",{space}")));
            match shape % 8 {
                4 => format!("{{\"method\":\"query-batch\",\"params\":{{\"queries\":{queries}}},\"id\":4}}"),
                5 => format!(
                    "{{\"id\":5,\"method\":\"query-batch\",\"params\":{{\"queries\":{queries},\"extra\":1,\"queries\":7}}}}"
                ),
                6 => format!("{{\"id\":6,\"method\":\"query-batch\",\"params\":{{\"queries\":{queries},\"x\":}}}}"),
                _ => format!(
                    "{{\"id\":7,\"method\":\"query-batch\",\"params\":{{\"queries\":{}}}}}",
                    ASSIGNMENTS[first.len() % ASSIGNMENTS.len()]
                ),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    #[test]
    fn read_responses_match_the_tree_based_path(
        shape in 0u8..8,
        entries in proptest::collection::vec(
            (0u8..8, proptest::collection::vec((0usize..MEMBER_KEYS.len(), 0usize..ASSIGNMENTS.len()), 0..4)),
            0..6,
        ),
        space in 0usize..SPACES.len(),
    ) {
        let line = read_line(shape, &entries, space);
        let expected = oracle::response(&line, &read_server().snapshot);
        prop_assert_eq!(server_response(&line), expected, "{}", line);
    }
}

#[test]
fn the_oracle_sees_answers_and_errors() {
    // The parity test above is only as strong as the lines it sends: make
    // sure its generator reaches answered entries, entry errors of each
    // kind, request-level errors and parse errors.
    let snapshot = &read_server().snapshot;
    let all = |line: &str| oracle::response(line, snapshot);
    let valid = read_line(0, &[(1, vec![(0, 2), (1, 3)])], 1);
    assert!(all(&valid).contains("\"ok\":true"), "{valid}");
    let batch =
        read_line(4, &[(1, vec![(0, 2)]), (0, vec![]), (1, vec![(0, 10)]), (1, vec![(1, 2)])], 0);
    let answer = all(&batch);
    assert!(answer.contains("a batch entry must be a query object"), "{answer}");
    assert!(answer.contains("must be a value name (string), found integer"), "{answer}");
    assert!(answer.contains("`target` must assign at least one attribute"), "{answer}");
    assert_eq!(answer, server_response(&batch));
    let broken = read_line(6, &[(0, vec![])], 0);
    assert!(all(&broken).contains("parse-error"), "{broken}");
    assert_eq!(all(&broken), server_response(&broken));
}
