//! Fuzz-ish table of hostile request lines: every one must be answered
//! with a structured JSON error of the right code, and the connection —
//! and the engine behind it — must stay fully usable afterwards.

use pka_contingency::Schema;
use pka_serve::{LineClient, ServeConfig, ServeError, Server};
use pka_stream::{RefreshPolicy, StreamConfig};
use serde::Value;

/// A small line cap so the overlong case is cheap to trigger.
const LINE_CAP: usize = 512;

fn start_server() -> pka_serve::ServerHandle {
    let schema = Schema::uniform(&[3, 2]).unwrap().into_shared();
    let config = ServeConfig::new()
        .with_max_line_bytes(LINE_CAP)
        .with_stream(StreamConfig::new().with_policy(RefreshPolicy::Manual));
    Server::start(schema, config).unwrap()
}

fn error_code(response: &Value) -> String {
    match response.get("error").and_then(|e| e.get("code")) {
        Some(Value::Str(code)) => code.clone(),
        other => panic!("response without error code: {other:?} in {response:?}"),
    }
}

#[test]
fn malformed_lines_get_structured_errors_and_the_connection_survives() {
    let server = start_server();
    let mut client = LineClient::connect(server.addr()).unwrap();

    let cases: &[(&str, &str)] = &[
        // Truncated / broken JSON.
        ("{\"id\":1,\"method\":", "parse-error"),
        ("{", "parse-error"),
        ("", "parse-error"),
        ("}{", "parse-error"),
        ("{\"id\":1} trailing", "parse-error"),
        // Valid JSON, invalid envelope.
        ("42", "invalid-request"),
        ("[1,2,3]", "invalid-request"),
        ("\"just a string\"", "invalid-request"),
        ("null", "invalid-request"),
        ("{}", "invalid-request"),
        ("{\"id\":7}", "invalid-request"),
        ("{\"id\":7,\"method\":12}", "invalid-request"),
        ("{\"method\":{\"nested\":true}}", "invalid-request"),
        // Unknown methods.
        ("{\"id\":1,\"method\":\"frobnicate\"}", "unknown-method"),
        ("{\"id\":1,\"method\":\"QUERY\"}", "unknown-method"),
        // Structurally bad parameters.
        ("{\"id\":1,\"method\":\"query\",\"params\":{\"target\":\"cancer\"}}", "no-snapshot"),
        ("{\"id\":1,\"method\":\"ingest\",\"params\":{}}", "invalid-params"),
        ("{\"id\":1,\"method\":\"ingest\",\"params\":{\"rows\":7}}", "invalid-params"),
        ("{\"id\":1,\"method\":\"ingest\",\"params\":{\"rows\":[7]}}", "invalid-params"),
        ("{\"id\":1,\"method\":\"ingest\",\"params\":{\"rows\":[[0,-2]]}}", "invalid-params"),
        (
            "{\"id\":1,\"method\":\"ingest\",\"params\":{\"rows\":[[\"a\",\"b\"]]}}",
            "invalid-params",
        ),
        // Schema-invalid rows reach the engine and come back as a
        // structured ingest error — with nothing recorded (checked below).
        ("{\"id\":1,\"method\":\"ingest\",\"params\":{\"rows\":[[0,9]]}}", "ingest-error"),
        ("{\"id\":1,\"method\":\"ingest\",\"params\":{\"rows\":[[0]]}}", "ingest-error"),
        // A valid row before the invalid one is discarded with it.
        ("{\"id\":1,\"method\":\"ingest\",\"params\":{\"rows\":[[0,0],[0,9]]}}", "ingest-error"),
        // Refreshing an empty stream is an engine error, not a crash.
        ("{\"id\":1,\"method\":\"refresh\"}", "ingest-error"),
    ];

    for (line, expected) in cases {
        let response =
            client.call_raw(line).unwrap_or_else(|e| panic!("no response to {line:?}: {e}"));
        assert_eq!(response.get("ok"), Some(&Value::Bool(false)), "line {line:?}");
        assert_eq!(error_code(&response), *expected, "line {line:?}");
        // The connection answers a well-formed request right after.
        assert!(client.ping().unwrap(), "connection dead after {line:?}");
    }

    // Deeply nested JSON (a recursion bomb under the line cap) must be a
    // parse error, not a stack overflow that kills the process.
    let bomb = "[".repeat(LINE_CAP - 64);
    let response = client.call_raw(&bomb).unwrap();
    assert_eq!(error_code(&response), "parse-error");
    assert!(client.ping().unwrap());

    // Overlong line: discarded with a structured error, connection usable.
    let overlong = format!(
        "{{\"id\":1,\"method\":\"ingest\",\"params\":{{\"pad\":\"{}\"}}}}",
        "x".repeat(4 * LINE_CAP)
    );
    let response = client.call_raw(&overlong).unwrap();
    assert_eq!(error_code(&response), "overlong-line");
    assert!(client.ping().unwrap());

    // Invalid UTF-8: structured error, connection usable.
    let response = client.call_bytes(&[0xff, 0xfe, b'{', 0x80, b'}']).unwrap();
    assert_eq!(error_code(&response), "invalid-utf8");
    assert!(client.ping().unwrap());

    // The engine was never poisoned: nothing from the garbage was
    // recorded, and normal ingest → refresh → query works.
    let stats = client.stats().unwrap();
    assert_eq!(stats.total_ingested, 0, "hostile input must leave no trace in the counts");
    // attr0 has three values but the stream only ever uses 0 and 1 — so
    // attr0=v2 gets a zero-probability first-order constraint, exercised
    // by the zero-prior query below.
    let rows: Vec<Vec<usize>> = (0..60).map(|k| vec![k % 2, (k / 2) % 2]).collect();
    let summary = client.ingest(&rows).unwrap();
    assert_eq!(summary.accepted, 60);
    client.refresh().unwrap();
    let answer = client.query(&[("attr1", "v0")], &[("attr0", "v0")]).unwrap();
    assert!(answer.probability > 0.0 && answer.probability <= 1.0);

    // A target the model assigns zero probability (attr0=v2 was never
    // ingested — the rows above only use values 0 and 1 — so its
    // first-order constraint target is 0) must still round-trip through
    // the typed client: probability 0, lift null (not a JSON `Infinity`).
    let zero_prior = client.query(&[("attr0", "v2")], &[("attr1", "v0")]).unwrap();
    assert_eq!(zero_prior.probability, 0.0);
    assert_eq!(zero_prior.prior_probability, 0.0);
    assert_eq!(zero_prior.lift, None, "zero-prior lift must be null on the wire");

    // Query-evaluation failures are also structured errors, not panics.
    let incompatible = client.query(&[("attr0", "v0")], &[("attr0", "v1")]);
    match incompatible {
        Err(ServeError::Remote { code, .. }) => assert_eq!(code, "query-error"),
        other => panic!("incompatible query should be a remote error, got {other:?}"),
    }
    // Unknown attribute names in a query are invalid-params.
    let unknown = client.query(&[("age", "old")], &[]);
    match unknown {
        Err(ServeError::Remote { code, .. }) => assert_eq!(code, "invalid-params"),
        other => panic!("unknown attribute should be invalid-params, got {other:?}"),
    }

    server.shutdown().unwrap();
}

#[test]
fn query_batch_malformed_entries_are_per_entry_errors_and_never_invalid_json() {
    let server = start_server();
    let mut client = LineClient::connect(server.addr()).unwrap();

    // Before any snapshot the whole batch is `no-snapshot`.
    let raw = "{\"id\":1,\"method\":\"query-batch\",\"params\":{\"queries\":[]}}";
    let response = client.call_raw(raw).unwrap();
    assert_eq!(error_code(&response), "no-snapshot");

    // Seed a snapshot.  attr0 only ever takes values 0 and 1, so attr0=v2
    // has a zero-probability first-order constraint — the zero-prior case
    // the non-finite guard exists for.
    let rows: Vec<Vec<usize>> = (0..60).map(|k| vec![k % 2, (k / 2) % 2]).collect();
    client.ingest(&rows).unwrap();
    client.refresh().unwrap();

    // Whole-request failures: a malformed `queries` envelope.
    let envelope_cases: &[(&str, &str)] = &[
        ("{\"id\":1,\"method\":\"query-batch\"}", "invalid-params"),
        ("{\"id\":1,\"method\":\"query-batch\",\"params\":{\"queries\":7}}", "invalid-params"),
        (
            "{\"id\":1,\"method\":\"query-batch\",\"params\":{\"queries\":{\"a\":1}}}",
            "invalid-params",
        ),
    ];
    for (line, expected) in envelope_cases {
        let response = client.call_raw(line).unwrap();
        assert_eq!(response.get("ok"), Some(&Value::Bool(false)), "line {line:?}");
        assert_eq!(error_code(&response), *expected, "line {line:?}");
        assert!(client.ping().unwrap(), "connection dead after {line:?}");
    }

    // An empty batch answers with zero results, not an error.
    let response = client.call_raw(raw).unwrap();
    assert_eq!(response.get("ok"), Some(&Value::Bool(true)));
    let results = response.get("result").and_then(|r| r.get("results")).unwrap();
    assert_eq!(results, &Value::Array(vec![]));

    // Per-entry failures answer per entry; the rest of the batch — before
    // *and* after the bad entries — still answers normally.  The last entry
    // is the zero-prior case: its lift must be `null` on the wire, never a
    // bare `Infinity`/`NaN` (which would be invalid JSON and fail the
    // client's parse of the whole response line).
    let raw = concat!(
        "{\"id\":9,\"method\":\"query-batch\",\"params\":{\"queries\":[",
        "{\"target\":{\"attr1\":\"v0\"}},",
        "42,",
        "{\"target\":{\"age\":\"old\"}},",
        "{\"target\":{},\"evidence\":{\"attr1\":\"v0\"}},",
        "{\"target\":{\"attr0\":\"v0\"},\"evidence\":{\"attr0\":\"v1\"}},",
        "{\"target\":{\"attr0\":\"v2\"},\"evidence\":{\"attr1\":\"v0\"}}",
        "]}}"
    );
    let response = client.call_raw(raw).unwrap();
    assert_eq!(response.get("ok"), Some(&Value::Bool(true)), "batch itself succeeds");
    let result = response.get("result").unwrap();
    let Some(Value::Array(results)) = result.get("results") else {
        panic!("batch result without `results`: {result:?}")
    };
    assert_eq!(results.len(), 6);
    assert_eq!(result.get("count"), Some(&Value::U64(6)));
    let entry_code = |entry: &Value| -> String {
        match entry.get("error").and_then(|e| e.get("code")) {
            Some(Value::Str(code)) => code.clone(),
            other => panic!("expected a per-entry error, got {other:?}"),
        }
    };
    // Data entries are positional rows `[p, joint, evidence, prior, lift]`.
    let row = |entry: &Value| -> Vec<Value> {
        match entry {
            Value::Array(fields) => {
                assert_eq!(fields.len(), 5, "row has 5 positional fields");
                fields.clone()
            }
            other => panic!("expected a positional row, got {other:?}"),
        }
    };
    assert!(row(&results[0])[0].as_f64().unwrap() > 0.0, "good entry answered");
    assert_eq!(entry_code(&results[1]), "invalid-params", "non-object entry");
    assert_eq!(entry_code(&results[2]), "invalid-params", "unknown attribute");
    assert_eq!(entry_code(&results[3]), "invalid-params", "empty target");
    assert_eq!(entry_code(&results[4]), "query-error", "contradictory entry");
    let zero_prior = row(&results[5]);
    assert_eq!(zero_prior[0], Value::F64(0.0), "zero-prior probability");
    assert_eq!(zero_prior[3], Value::F64(0.0), "zero prior");
    assert_eq!(zero_prior[4], Value::Null, "zero-prior lift must be null");

    // The typed client view of the same contract.
    let answers = client
        .query_batch(&[
            (&[("attr1", "v0")], &[]),
            (&[("attr0", "v2")], &[("attr1", "v0")]),
            (&[("age", "old")], &[]),
        ])
        .unwrap();
    assert_eq!(answers.len(), 3);
    assert!(answers[0].as_ref().unwrap().probability > 0.0);
    let zero = answers[1].as_ref().unwrap();
    assert_eq!(zero.prior_probability, 0.0);
    assert_eq!(zero.lift, None);
    match &answers[2] {
        Err(pka_serve::ServeError::Remote { code, .. }) => assert_eq!(code, "invalid-params"),
        other => panic!("unknown attribute should be a per-entry error, got {other:?}"),
    }
    // The connection is still fully usable.
    assert!(client.ping().unwrap());

    server.shutdown().unwrap();
}

#[test]
fn shutdown_request_closes_the_connection_and_stops_the_server() {
    let server = start_server();
    let mut client = LineClient::connect(server.addr()).unwrap();
    assert!(client.ping().unwrap());
    client.shutdown().unwrap();
    assert!(server.is_shutting_down());
    // The server stops accepting; joining returns the engine.
    let engine = server.shutdown().unwrap();
    assert_eq!(engine.total_ingested(), 0);
}
