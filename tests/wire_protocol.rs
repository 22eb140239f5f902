//! The request envelope parser and the response printer on the wire path.
//!
//! `parse_request` takes the parsed envelope apart by move; these tests pin
//! it to the clone-based parser it replaced (kept below as the reference)
//! over random envelopes, and a counting allocator checks that neither
//! parsing nor printing copies a JSON tree.

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

fn reference_parse(line: &str) -> Result<Request, RequestError> {
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
    Ok(Request { id, method, params, deadline_ms })
}

/// A parse's result in a comparable form: the request's fields, or the
/// error's `(code, message, id)`.
type Outcome = Result<(Value, String, Value, Option<u64>), (ErrorCode, String, Value)>;

fn outcome(result: Result<Request, RequestError>) -> Outcome {
    match result {
        Ok(r) => Ok((r.id, r.method, r.params, r.deadline_ms)),
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
    assert_eq!(Some(&request.params), tree.get("params"));
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
