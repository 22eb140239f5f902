//! The wire protocol: newline-delimited JSON requests and responses.
//!
//! One request per line, one response line per request, always in order —
//! so clients may pipeline freely.  See `crates/serve/README.md` for the
//! full schema of every method.
//!
//! ```text
//! → {"id":1,"method":"query","params":{"target":{"cancer":"yes"},"evidence":{"smoking":"smoker"}}}
//! ← {"id":1,"ok":true,"result":{"probability":0.186,...}}
//! → {"id":2,"method":"nope"}
//! ← {"id":2,"ok":false,"error":{"code":"unknown-method","message":"..."}}
//! ```
//!
//! Everything in this module is pure string/value manipulation: no sockets,
//! so the parsing rules are unit-testable in isolation and reusable by the
//! client, the server and the fuzz-style malformed-input tests.
//!
//! A request line is read in place: [`parse_request`] validates the
//! whole line with the `serde_json` cursor but builds only the small
//! envelope fields, and keeps `params` as the validated text of the line
//! ([`Raw`]).  The cursor is the only reader of a request line: admission
//! control ([`crate::admission`]) judges the parsed envelope, never the
//! raw bytes.  The read path decodes what it needs straight from that
//! text — [`question`] and [`batch_questions`] turn borrowed attribute and
//! value names into [`Assignment`]s, [`rows_from_value`] reads ingest rows
//! — so a `query-batch` line never becomes a JSON tree.  Methods that
//! deserialise a structured payload (`shard-push`, `snapshot-sync`) build
//! their tree from the text once ([`Raw::to_value`]).

use pka_contingency::{Assignment, Schema};
use pka_core::{KnowledgeBase, Query};
use pka_stream::{SnapshotMeta, StreamError};
use serde::{Deserialize, Value};
use serde_json::{Cursor, Kind, Raw};
use std::borrow::Cow;

/// Default cap on one request line.  Long enough for bulk ingest batches,
/// short enough that a stuck or malicious client cannot balloon a
/// connection thread's memory.
pub const DEFAULT_MAX_LINE_BYTES: usize = 1 << 20;

/// Machine-readable error codes of the wire protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line is not valid JSON.
    ParseError,
    /// The line is valid JSON but not a valid request envelope.
    InvalidRequest,
    /// The request's `method` is not one the server knows.
    UnknownMethod,
    /// The request's `params` do not fit the method's schema.
    InvalidParams,
    /// No snapshot has been published yet (ingest + refresh first).
    NoSnapshot,
    /// The query or explanation failed to evaluate.
    QueryError,
    /// The ingest or refresh failed.
    IngestError,
    /// The request line exceeded the server's line cap and was discarded.
    OverlongLine,
    /// The request line is not valid UTF-8.
    InvalidUtf8,
    /// The server is shutting down and no longer accepts work.
    ShuttingDown,
    /// The server is at its connection cap and refused the connection
    /// (sent best-effort before the refused socket closes).
    Overloaded,
    /// A fabric payload (`shard-push` shard, `snapshot-sync` meta) declared
    /// a wire `format_version` this build does not speak, or none at all.
    FormatVersion,
    /// The method exists but this server's fabric role does not serve it
    /// (e.g. `ingest` sent to a read replica).
    UnsupportedRole,
    /// The request carried a `deadline_ms` budget that expired before the
    /// server could start working on it.
    DeadlineExceeded,
}

impl ErrorCode {
    /// The code's on-the-wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::ParseError => "parse-error",
            ErrorCode::InvalidRequest => "invalid-request",
            ErrorCode::UnknownMethod => "unknown-method",
            ErrorCode::InvalidParams => "invalid-params",
            ErrorCode::NoSnapshot => "no-snapshot",
            ErrorCode::QueryError => "query-error",
            ErrorCode::IngestError => "ingest-error",
            ErrorCode::OverlongLine => "overlong-line",
            ErrorCode::InvalidUtf8 => "invalid-utf8",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::Overloaded => "server-overloaded",
            ErrorCode::FormatVersion => "format-version-mismatch",
            ErrorCode::UnsupportedRole => "role-unsupported",
            ErrorCode::DeadlineExceeded => "deadline-exceeded",
        }
    }
}

/// A parsed request envelope, borrowing its `params` from the line.
#[derive(Debug, Clone)]
pub struct Request<'a> {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: Value,
    /// The method name.
    pub method: String,
    /// Method parameters: the validated text of the line's `params` value
    /// (`{}` when omitted), read in place by the method that needs them.
    pub params: Raw<'a>,
    /// Optional request budget in milliseconds, counted from arrival.  A
    /// request still waiting for the engine when its budget runs out is
    /// answered `deadline-exceeded` instead of occupying the engine.
    pub deadline_ms: Option<u64>,
}

/// Why a line failed to become a [`Request`].
#[derive(Debug, Clone)]
pub struct RequestError {
    /// The protocol error code to answer with.
    pub code: ErrorCode,
    /// Human-readable explanation.
    pub message: String,
    /// The request id, when it could be recovered from the bad line.
    pub id: Value,
    /// Backoff hint carried by shed (`server-overloaded`) refusals.
    pub retry_after_ms: Option<u64>,
}

impl RequestError {
    pub(crate) fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        Self { code, message: message.into(), id: Value::Null, retry_after_ms: None }
    }
}

/// Parses one request line.  The whole line is validated — a syntax error
/// anywhere is a `parse-error` — but only `id`, `method` and
/// `deadline_ms` are built; `params` stays text.  As with [`Value::get`],
/// the first occurrence of a duplicated envelope key wins.
pub fn parse_request(line: &str) -> Result<Request<'_>, RequestError> {
    let syntax = |e: serde_json::Error| RequestError::new(ErrorCode::ParseError, e.to_string());
    let mut cursor = Cursor::new(line);
    let kind = cursor.peek_kind().map_err(syntax)?;
    if kind != Kind::Object {
        cursor.skip_value().map_err(syntax)?;
        cursor.finish().map_err(syntax)?;
        return Err(RequestError::new(
            ErrorCode::InvalidRequest,
            format!("a request must be a JSON object, found {}", kind.name()),
        ));
    }
    let (mut id, mut method, mut params, mut deadline) = (None, None, None, None);
    cursor.begin_object().map_err(syntax)?;
    while let Some(key) = cursor.next_key().map_err(syntax)? {
        match &*key {
            "id" if id.is_none() => id = Some(cursor.value().map_err(syntax)?),
            "method" if method.is_none() => method = Some(cursor.value().map_err(syntax)?),
            "deadline_ms" if deadline.is_none() => deadline = Some(cursor.value().map_err(syntax)?),
            "params" if params.is_none() => params = Some(cursor.skip_value().map_err(syntax)?),
            _ => {
                cursor.skip_value().map_err(syntax)?;
            }
        }
    }
    cursor.finish().map_err(syntax)?;
    let id = id.unwrap_or(Value::Null);
    let invalid = |id, message| RequestError {
        code: ErrorCode::InvalidRequest,
        message,
        id,
        retry_after_ms: None,
    };
    let method = match method {
        Some(Value::Str(m)) => m,
        Some(other) => {
            return Err(invalid(id, format!("`method` must be a string, found {}", other.kind())))
        }
        None => return Err(invalid(id, "request has no `method` field".to_string())),
    };
    let params = params.unwrap_or(Raw::EMPTY_OBJECT);
    let deadline_ms = match deadline {
        None | Some(Value::Null) => None,
        Some(v) => match v.as_u64() {
            Some(ms) => Some(ms),
            None => {
                return Err(invalid(
                    id,
                    format!("`deadline_ms` must be a non-negative integer, found {}", v.kind()),
                ))
            }
        },
    };
    Ok(Request { id, method, params, deadline_ms })
}

/// Builds a JSON object value from `(key, value)` pairs.
pub fn object<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Renders a request line (no trailing newline).  The envelope is written
/// around a single serialisation of `params` — no deep clone of the params
/// tree, which matters for large `query-batch` payloads.
pub fn request_line(id: u64, method: &str, params: &Value) -> String {
    request_line_with_deadline(id, method, params, None)
}

/// [`request_line`] with an optional `deadline_ms` budget in the envelope.
pub fn request_line_with_deadline(
    id: u64,
    method: &str,
    params: &Value,
    deadline_ms: Option<u64>,
) -> String {
    let params_json = serde_json::to_string(params).expect("value serialisation is infallible");
    let method_json = serde_json::to_string(&Value::Str(method.to_string()))
        .expect("value serialisation is infallible");
    let mut line = String::with_capacity(params_json.len() + method_json.len() + 56);
    line.push_str("{\"id\":");
    line.push_str(&id.to_string());
    line.push_str(",\"method\":");
    line.push_str(&method_json);
    if let Some(ms) = deadline_ms {
        line.push_str(",\"deadline_ms\":");
        line.push_str(&ms.to_string());
    }
    line.push_str(",\"params\":");
    line.push_str(&params_json);
    line.push('}');
    line
}

/// Renders a success response line (no trailing newline).
pub fn ok_line(id: &Value, result: Value) -> String {
    let envelope = object([("id", id.clone()), ("ok", Value::Bool(true)), ("result", result)]);
    serde_json::to_string(&envelope).expect("value serialisation is infallible")
}

/// Renders an error response line (no trailing newline).
pub fn error_line(id: &Value, code: ErrorCode, message: &str) -> String {
    error_line_full(id, code, message, None)
}

/// Renders an error response line whose error object carries a
/// `retry_after_ms` hint — the shape of a shed (`server-overloaded`)
/// refusal: the client should back off roughly that long before retrying.
pub fn error_line_retry(id: &Value, code: ErrorCode, message: &str, retry_after_ms: u64) -> String {
    error_line_full(id, code, message, Some(retry_after_ms))
}

fn error_line_full(
    id: &Value,
    code: ErrorCode,
    message: &str,
    retry_after_ms: Option<u64>,
) -> String {
    let mut fields = vec![
        ("code".to_string(), Value::Str(code.as_str().to_string())),
        ("message".to_string(), Value::Str(message.to_string())),
    ];
    if let Some(ms) = retry_after_ms {
        fields.push(("retry_after_ms".to_string(), Value::U64(ms)));
    }
    let envelope =
        object([("id", id.clone()), ("ok", Value::Bool(false)), ("error", Value::Object(fields))]);
    serde_json::to_string(&envelope).expect("value serialisation is infallible")
}

/// What a [`Raw`] handed out by [`parse_request`] guarantees: it was
/// validated, so reading it again cannot fail.
const VALIDATED: &str = "request params are validated by parse_request";

/// Borrowed `(attribute, value)` names of one assignment, reused across the
/// entries of a batch so that decoding allocates only the assignments.
type Names<'a> = Vec<(Cow<'a, str>, Cow<'a, str>)>;

/// Decodes the question of a `query` or `explain` request: the `target`
/// and `evidence` members of `params`.
pub fn question(schema: &Schema, params: Raw<'_>) -> Result<Query, RequestError> {
    decode_question(schema, &mut params.cursor(), &mut Vec::new())
}

/// Decodes every entry of a `query-batch` request's `params.queries`, in
/// one pass over the text.  A malformed `queries` fails the request; a
/// malformed entry fails only its own slot, so the batch's other entries
/// still answer.
pub fn batch_questions(
    schema: &Schema,
    params: Raw<'_>,
) -> Result<Vec<Result<Query, RequestError>>, RequestError> {
    let mut cursor = params.cursor();
    if params.kind() == Kind::Object {
        cursor.begin_object().expect(VALIDATED);
        while let Some(key) = cursor.next_key().expect(VALIDATED) {
            if key != "queries" {
                cursor.skip_value().expect(VALIDATED);
                continue;
            }
            // The first `queries` is the one read; the text after it is
            // already validated and cannot change the answer.
            let kind = cursor.peek_kind().expect(VALIDATED);
            if kind != Kind::Array {
                return Err(invalid_params(format!(
                    "`queries` must be an array of query objects, found {}",
                    kind.name()
                )));
            }
            let mut names = Vec::new();
            let mut questions = Vec::new();
            cursor.begin_array().expect(VALIDATED);
            while cursor.next_element().expect(VALIDATED) {
                let kind = cursor.peek_kind().expect(VALIDATED);
                questions.push(if kind == Kind::Object {
                    decode_question(schema, &mut cursor, &mut names)
                } else {
                    cursor.skip_value().expect(VALIDATED);
                    Err(invalid_params(format!(
                        "a batch entry must be a query object, found {}",
                        kind.name()
                    )))
                });
            }
            return Ok(questions);
        }
    }
    Err(invalid_params("missing `queries`".to_string()))
}

/// The one decoder of a question, for `query`, `explain` and each
/// `query-batch` entry: reads the value at `cursor` and takes its first
/// `target` and `evidence` members (a missing member, or a value that is
/// not an object, reads as `null`), each an object of attribute: value
/// names resolved through [`Assignment::from_names`].  A bad target is
/// reported before a bad evidence, whichever comes first in the text, and
/// the target must name an attribute.
fn decode_question<'a>(
    schema: &Schema,
    cursor: &mut Cursor<'a>,
    names: &mut Names<'a>,
) -> Result<Query, RequestError> {
    let (mut target, mut evidence) = (None, None);
    if cursor.peek_kind().expect(VALIDATED) == Kind::Object {
        cursor.begin_object().expect(VALIDATED);
        while let Some(key) = cursor.next_key().expect(VALIDATED) {
            match &*key {
                "target" if target.is_none() => {
                    target = Some(decode_assignment(schema, cursor, "target", names))
                }
                "evidence" if evidence.is_none() => {
                    evidence = Some(decode_assignment(schema, cursor, "evidence", names))
                }
                _ => {
                    cursor.skip_value().expect(VALIDATED);
                }
            }
        }
    } else {
        cursor.skip_value().expect(VALIDATED);
    }
    let target = target.unwrap_or_else(|| Ok(Assignment::empty()))?;
    let evidence = evidence.unwrap_or_else(|| Ok(Assignment::empty()))?;
    if target.vars().is_empty() {
        return Err(invalid_params("`target` must assign at least one attribute".to_string()));
    }
    Ok(Query::conditional(target, evidence))
}

/// Reads the value at `cursor` as a partial assignment under the schema: a
/// `{"attribute": "value", …}` object, or `null`.  Every value must be a
/// string — the first that is not is the error — before any name is
/// looked up.
fn decode_assignment<'a>(
    schema: &Schema,
    cursor: &mut Cursor<'a>,
    what: &str,
    names: &mut Names<'a>,
) -> Result<Assignment, RequestError> {
    match cursor.peek_kind().expect(VALIDATED) {
        Kind::Null => {
            cursor.skip_value().expect(VALIDATED);
            Ok(Assignment::empty())
        }
        Kind::Object => {
            names.clear();
            let mut not_a_name = None;
            cursor.begin_object().expect(VALIDATED);
            while let Some(attr) = cursor.next_key().expect(VALIDATED) {
                let kind = cursor.peek_kind().expect(VALIDATED);
                if kind == Kind::String && not_a_name.is_none() {
                    names.push((attr, cursor.string().expect(VALIDATED)));
                } else {
                    if kind != Kind::String {
                        not_a_name.get_or_insert_with(|| {
                            invalid_params(format!(
                                "`{what}.{attr}` must be a value name (string), found {}",
                                kind.name()
                            ))
                        });
                    }
                    cursor.skip_value().expect(VALIDATED);
                }
            }
            if let Some(error) = not_a_name {
                return Err(error);
            }
            Assignment::from_names(schema, names)
                .map_err(|e| invalid_params(format!("bad `{what}`: {e}")))
        }
        other => {
            cursor.skip_value().expect(VALIDATED);
            Err(invalid_params(format!(
                "`{what}` must be an object of attribute: value names, found {}",
                other.name()
            )))
        }
    }
}

fn invalid_params(message: String) -> RequestError {
    RequestError::new(ErrorCode::InvalidParams, message)
}

/// Decodes a snapshot's `meta` and `knowledge_base` fields: the one
/// decode a `snapshot-sync` request and a `snapshot-pull` answer share.
/// An invalid knowledge base fails its checked constructors here
/// (`invalid-params`); its mass is checked when the engine applies it.
pub fn snapshot_from_value(value: &Value) -> Result<(SnapshotMeta, KnowledgeBase), RequestError> {
    let meta = value.get("meta").ok_or_else(|| invalid_params("missing `meta`".into()))?;
    let meta = SnapshotMeta::from_value(meta).map_err(stream_error)?;
    let knowledge_base = value
        .get("knowledge_base")
        .ok_or_else(|| invalid_params("missing `knowledge_base`".into()))?;
    let knowledge_base = KnowledgeBase::deserialize(knowledge_base)
        .map_err(|e| invalid_params(format!("`knowledge_base` is malformed: {e}")))?;
    Ok((meta, knowledge_base))
}

/// Maps a payload-parsing [`StreamError`] onto the wire error taxonomy:
/// format-version mismatches keep their structured code so callers can
/// distinguish an incompatible build from a merely malformed payload.
pub(crate) fn stream_error(error: StreamError) -> RequestError {
    let code = match error {
        StreamError::FormatVersion { .. } => ErrorCode::FormatVersion,
        _ => ErrorCode::InvalidParams,
    };
    RequestError::new(code, error.to_string())
}

/// Renders a partial assignment as a `{"attribute": "value", …}` object.
pub fn assignment_to_value(schema: &Schema, assignment: &Assignment) -> Value {
    let fields = assignment
        .pairs()
        .map(|(attr, value)| {
            let a = schema.attribute(attr).expect("assignment validated against schema");
            (a.name().to_string(), Value::Str(a.value_name(value).unwrap_or("?").to_string()))
        })
        .collect();
    Value::Object(fields)
}

/// Interprets `params.rows` as a batch of raw tuples (arrays of value
/// indices), read in place from the validated request text.
pub fn rows_from_value(params: &Raw<'_>) -> Result<Vec<Vec<usize>>, RequestError> {
    let mut rows = params.cursor();
    if params.kind() == Kind::Object {
        rows.begin_object().expect(VALIDATED);
        while let Some(key) = rows.next_key().expect(VALIDATED) {
            if key == "rows" {
                // The first `rows` is the one read, as with `Value::get`.
                return decode_rows(&mut rows);
            }
            rows.skip_value().expect(VALIDATED);
        }
    }
    Err(invalid_params("missing `rows`".to_string()))
}

/// Reads the array of rows at `rows`.
fn decode_rows(rows: &mut Cursor<'_>) -> Result<Vec<Vec<usize>>, RequestError> {
    let kind = rows.peek_kind().expect(VALIDATED);
    if kind != Kind::Array {
        return Err(invalid_params(format!(
            "`rows` must be an array of rows, found {}",
            kind.name()
        )));
    }
    let mut parsed = Vec::new();
    // The rows of a batch share one width: size each row like the last.
    let mut width = 0;
    rows.begin_array().expect(VALIDATED);
    while rows.next_element().expect(VALIDATED) {
        let i = parsed.len();
        let kind = rows.peek_kind().expect(VALIDATED);
        if kind != Kind::Array {
            return Err(invalid_params(format!(
                "`rows[{i}]` must be an array of value indices, found {}",
                kind.name()
            )));
        }
        let mut values = Vec::with_capacity(width);
        rows.begin_array().expect(VALIDATED);
        while rows.next_element().expect(VALIDATED) {
            let cell = rows.value().expect(VALIDATED);
            let Some(v) = cell.as_u64() else {
                return Err(invalid_params(format!(
                    "`rows[{i}][{}]` must be a non-negative value index, found {}",
                    values.len(),
                    cell.kind()
                )));
            };
            values.push(v as usize);
        }
        width = values.len();
        parsed.push(values);
    }
    Ok(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pka_contingency::Attribute;

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::new("smoking", ["smoker", "non-smoker"]),
            Attribute::yes_no("cancer"),
        ])
        .unwrap()
    }

    #[test]
    fn request_round_trip() {
        let params = object([("target", object([("cancer", Value::Str("yes".into()))]))]);
        let line = request_line(7, "query", &params);
        let request = parse_request(&line).unwrap();
        assert_eq!(request.method, "query");
        assert_eq!(request.id, Value::U64(7));
        assert_eq!(request.params, params);
    }

    #[test]
    fn malformed_envelopes_are_rejected_with_codes() {
        assert_eq!(parse_request("{").unwrap_err().code, ErrorCode::ParseError);
        assert_eq!(parse_request("42").unwrap_err().code, ErrorCode::InvalidRequest);
        assert_eq!(parse_request("{}").unwrap_err().code, ErrorCode::InvalidRequest);
        let err = parse_request("{\"id\":3,\"method\":7}").unwrap_err();
        assert_eq!(err.code, ErrorCode::InvalidRequest);
        assert_eq!(err.id, Value::U64(3), "id recovered for correlation");
    }

    #[test]
    fn response_lines_echo_the_id() {
        let ok = ok_line(&Value::U64(5), object([("pong", Value::Bool(true))]));
        assert_eq!(ok, "{\"id\":5,\"ok\":true,\"result\":{\"pong\":true}}");
        let err = error_line(&Value::Null, ErrorCode::UnknownMethod, "nope");
        assert!(err.contains("\"ok\":false"));
        assert!(err.contains("unknown-method"));
    }

    #[test]
    fn deadline_budget_parses_and_rejects() {
        let line = request_line_with_deadline(9, "ingest", &object([]), Some(250));
        let request = parse_request(&line).unwrap();
        assert_eq!(request.deadline_ms, Some(250));
        assert_eq!(parse_request("{\"id\":1,\"method\":\"ping\"}").unwrap().deadline_ms, None);
        let err = parse_request("{\"id\":1,\"method\":\"ping\",\"deadline_ms\":-5}").unwrap_err();
        assert_eq!(err.code, ErrorCode::InvalidRequest);
        assert_eq!(err.id, Value::U64(1));
    }

    #[test]
    fn retry_hint_rides_the_error_object() {
        let line = error_line_retry(&Value::U64(4), ErrorCode::Overloaded, "shed", 120);
        let value: Value = serde_json::from_str(&line).unwrap();
        let error = value.get("error").unwrap();
        assert_eq!(error.get("code"), Some(&Value::Str("server-overloaded".into())));
        assert_eq!(error.get("retry_after_ms"), Some(&Value::U64(120)));
        // The plain builder emits no hint field at all.
        let plain = error_line(&Value::U64(4), ErrorCode::Overloaded, "cap");
        assert!(!plain.contains("retry_after_ms"));
    }

    #[test]
    fn assignments_convert_both_ways() {
        let s = schema();
        let target = object([
            ("cancer", Value::Str("yes".into())),
            ("smoking", Value::Str("smoker".into())),
        ]);
        let params = object([("target", target)]);
        let line = request_line(1, "query", &params);
        let q = question(&s, parse_request(&line).unwrap().params).unwrap();
        assert_eq!(q.target, Assignment::from_pairs([(0, 0), (1, 0)]));
        // A missing evidence means "no evidence"; so does null.
        assert_eq!(q.evidence, Assignment::empty());
        let back = assignment_to_value(&s, &q.target);
        assert_eq!(back.get("smoking"), Some(&Value::Str("smoker".into())));
        assert_eq!(back.get("cancer"), Some(&Value::Str("yes".into())));
        let decode = |params: &str| {
            let line = format!("{{\"id\":1,\"method\":\"query\",\"params\":{params}}}");
            let request = parse_request(&line).unwrap();
            question(&s, request.params).map_err(|e| (e.code, e.message))
        };
        assert!(decode(r#"{"target":{"cancer":"yes"},"evidence":null}"#).is_ok());
        // Unknown names, wrong shapes and an empty target are invalid-params.
        for (params, message) in [
            (r#"{"target":{"age":"old"}}"#, "bad `target`: "),
            (
                r#"{"target":"cancer"}"#,
                "`target` must be an object of attribute: value names, found string",
            ),
            (
                r#"{"target":{"cancer":7}}"#,
                "`target.cancer` must be a value name (string), found integer",
            ),
            (
                r#"{"target":{"cancer":"yes"},"evidence":[]}"#,
                "`evidence` must be an object of attribute: value names, found array",
            ),
            (r#"{"evidence":{"cancer":"yes"}}"#, "`target` must assign at least one attribute"),
        ] {
            let (code, text) = decode(params).unwrap_err();
            assert_eq!(code, ErrorCode::InvalidParams, "{params}");
            assert!(text.starts_with(message), "{params}: {text}");
        }
    }

    #[test]
    fn batch_entries_fail_alone() {
        let s = schema();
        let line = r#"{"method":"query-batch","params":{"queries":[{"target":{"cancer":"yes"}},7,{"target":{"cancer":"maybe"}}]}}"#;
        let questions = batch_questions(&s, parse_request(line).unwrap().params).unwrap();
        assert_eq!(questions.len(), 3);
        assert!(questions[0].is_ok());
        assert_eq!(
            questions[1].as_ref().unwrap_err().message,
            "a batch entry must be a query object, found integer"
        );
        assert_eq!(questions[2].as_ref().unwrap_err().code, ErrorCode::InvalidParams);
        let not_array =
            parse_request(r#"{"method":"query-batch","params":{"queries":{}}}"#).unwrap();
        assert_eq!(
            batch_questions(&s, not_array.params).unwrap_err().message,
            "`queries` must be an array of query objects, found object"
        );
    }

    #[test]
    fn rows_parse_and_reject() {
        let rows = |params: &str| {
            let line = format!("{{\"method\":\"ingest\",\"params\":{params}}}");
            rows_from_value(&parse_request(&line).unwrap().params).map_err(|e| e.code)
        };
        assert_eq!(rows(r#"{"rows":[[0,1],[1, 0]]}"#), Ok(vec![vec![0, 1], vec![1, 0]]));
        assert_eq!(rows("{}"), Err(ErrorCode::InvalidParams));
        assert_eq!(rows(r#"{"rows":[[-1]]}"#), Err(ErrorCode::InvalidParams));
        assert_eq!(rows(r#"{"rows":[[0],"x"]}"#), Err(ErrorCode::InvalidParams));
    }
}
