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

use pka_contingency::{Assignment, Schema};
use serde::Value;

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

/// A parsed request envelope.
#[derive(Debug, Clone)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: Value,
    /// The method name.
    pub method: String,
    /// Method parameters (an empty object when omitted).
    pub params: Value,
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
    fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        Self { code, message: message.into(), id: Value::Null, retry_after_ms: None }
    }
}

/// Parses one request line.  The parsed envelope is taken apart by move:
/// `params` (the bulk of a `query-batch` or `ingest` line) is the parser's
/// own tree, never a copy.  As with [`Value::get`], the first occurrence of
/// a duplicated envelope key wins.
pub fn parse_request(line: &str) -> Result<Request, RequestError> {
    let value: Value = serde_json::from_str(line)
        .map_err(|e| RequestError::new(ErrorCode::ParseError, e.to_string()))?;
    let fields = match value {
        Value::Object(fields) => fields,
        other => {
            return Err(RequestError::new(
                ErrorCode::InvalidRequest,
                format!("a request must be a JSON object, found {}", other.kind()),
            ))
        }
    };
    let (mut id, mut method, mut params, mut deadline) = (None, None, None, None);
    for (key, field) in fields {
        let slot = match key.as_str() {
            "id" => &mut id,
            "method" => &mut method,
            "params" => &mut params,
            "deadline_ms" => &mut deadline,
            _ => continue,
        };
        if slot.is_none() {
            *slot = Some(field);
        }
    }
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
    let params = params.unwrap_or_else(|| Value::Object(Vec::new()));
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

/// Extracts the top-level `method` string from a raw request line without
/// building a JSON value tree.  Used by admission middleware to classify a
/// line on the loop thread before (and whether) it is fully parsed; any
/// line this scan cannot read (malformed, escaped method name, nested-only
/// `method` key) yields `None` and is left for the full parser to refuse.
pub fn peek_method(line: &[u8]) -> Option<&str> {
    match peek_top_level(line, b"method")? {
        PeekToken::Str(body) => std::str::from_utf8(body).ok(),
        PeekToken::Scalar(_) => None,
    }
}

/// Extracts a top-level `deadline_ms` integer from a raw request line, the
/// same way [`peek_method`] reads the method.  Only a plain non-negative
/// integer is readable; anything else is left for the full parser.
pub fn peek_deadline_ms(line: &[u8]) -> Option<u64> {
    match peek_top_level(line, b"deadline_ms")? {
        PeekToken::Scalar(token) => std::str::from_utf8(token).ok()?.parse().ok(),
        PeekToken::Str(_) => None,
    }
}

/// A raw top-level value found by the peek scan: a string body (escapes
/// unresolved — a body containing `\` is never produced) or a bare scalar
/// token (number, `true`, `null`, …).
enum PeekToken<'a> {
    Str(&'a [u8]),
    Scalar(&'a [u8]),
}

/// Depth-1, string-aware scan for `"key": value` in a serialized JSON
/// object, without allocating.  Returns `None` when the key is absent or
/// the line is too mangled to scan.
fn peek_top_level<'a>(line: &'a [u8], key: &[u8]) -> Option<PeekToken<'a>> {
    let mut depth = 0usize;
    let mut i = 0usize;
    while i < line.len() {
        match line[i] {
            b'{' | b'[' => depth += 1,
            b'}' | b']' => depth = depth.saturating_sub(1),
            b'"' => {
                let start = i + 1;
                let mut j = start;
                let mut has_escape = false;
                while j < line.len() {
                    match line[j] {
                        b'\\' => {
                            has_escape = true;
                            j += 2;
                            continue;
                        }
                        b'"' => break,
                        _ => j += 1,
                    }
                }
                if j >= line.len() {
                    return None;
                }
                let body = &line[start..j];
                i = j + 1;
                // Only a depth-1 string immediately followed by `:` is a
                // top-level key.
                if depth != 1 {
                    continue;
                }
                let mut k = i;
                while k < line.len() && line[k].is_ascii_whitespace() {
                    k += 1;
                }
                if k >= line.len() || line[k] != b':' {
                    continue;
                }
                if has_escape || body != key {
                    continue;
                }
                let mut v = k + 1;
                while v < line.len() && line[v].is_ascii_whitespace() {
                    v += 1;
                }
                if v >= line.len() {
                    return None;
                }
                if line[v] == b'"' {
                    let vstart = v + 1;
                    let mut vend = vstart;
                    while vend < line.len() {
                        match line[vend] {
                            b'\\' => return None,
                            b'"' => return Some(PeekToken::Str(&line[vstart..vend])),
                            _ => vend += 1,
                        }
                    }
                    return None;
                }
                let vstart = v;
                let mut vend = v;
                while vend < line.len()
                    && !matches!(line[vend], b',' | b'}' | b']' | b'{' | b'[')
                    && !line[vend].is_ascii_whitespace()
                {
                    vend += 1;
                }
                return Some(PeekToken::Scalar(&line[vstart..vend]));
            }
            _ => {}
        }
        i += 1;
    }
    None
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

/// Interprets a `{"attribute": "value", …}` object (or `null`) as a partial
/// assignment under the schema.
pub fn assignment_from_value(
    schema: &Schema,
    value: &Value,
    what: &str,
) -> Result<Assignment, RequestError> {
    match value {
        Value::Null => Ok(Assignment::empty()),
        Value::Object(fields) => {
            let mut pairs: Vec<(&str, &str)> = Vec::with_capacity(fields.len());
            for (attr, v) in fields {
                let Value::Str(value_name) = v else {
                    return Err(RequestError::new(
                        ErrorCode::InvalidParams,
                        format!(
                            "`{what}.{attr}` must be a value name (string), found {}",
                            v.kind()
                        ),
                    ));
                };
                pairs.push((attr.as_str(), value_name.as_str()));
            }
            Assignment::from_names(schema, &pairs).map_err(|e| {
                RequestError::new(ErrorCode::InvalidParams, format!("bad `{what}`: {e}"))
            })
        }
        other => Err(RequestError::new(
            ErrorCode::InvalidParams,
            format!("`{what}` must be an object of attribute: value names, found {}", other.kind()),
        )),
    }
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
/// indices).
pub fn rows_from_value(params: &Value) -> Result<Vec<Vec<usize>>, RequestError> {
    let Some(rows_value) = params.get("rows") else {
        return Err(RequestError::new(ErrorCode::InvalidParams, "missing `rows`"));
    };
    let Value::Array(rows) = rows_value else {
        return Err(RequestError::new(
            ErrorCode::InvalidParams,
            format!("`rows` must be an array of rows, found {}", rows_value.kind()),
        ));
    };
    let mut parsed = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let Value::Array(cells) = row else {
            return Err(RequestError::new(
                ErrorCode::InvalidParams,
                format!("`rows[{i}]` must be an array of value indices, found {}", row.kind()),
            ));
        };
        let mut values = Vec::with_capacity(cells.len());
        for (j, cell) in cells.iter().enumerate() {
            let Some(v) = cell.as_u64() else {
                return Err(RequestError::new(
                    ErrorCode::InvalidParams,
                    format!(
                        "`rows[{i}][{j}]` must be a non-negative value index, found {}",
                        cell.kind()
                    ),
                ));
            };
            values.push(v as usize);
        }
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
    fn method_peek_reads_only_the_top_level() {
        assert_eq!(peek_method(b"{\"id\":1,\"method\":\"query\",\"params\":{}}"), Some("query"));
        assert_eq!(peek_method(b"{ \"method\" : \"ingest\" }"), Some("ingest"));
        // A nested `method` key must not fool the scan.
        assert_eq!(
            peek_method(b"{\"params\":{\"method\":\"decoy\"},\"method\":\"stats\"}"),
            Some("stats")
        );
        assert_eq!(peek_method(b"{\"params\":{\"method\":\"decoy\"}}"), None);
        // Strings containing braces or escapes don't derail the depth scan.
        assert_eq!(peek_method(b"{\"id\":\"a{b}c\\\"d\",\"method\":\"ping\"}"), Some("ping"));
        assert_eq!(peek_method(b"not json"), None);
        assert_eq!(peek_method(b"{\"method\":42}"), None);
    }

    #[test]
    fn deadline_peek_reads_plain_integers_only() {
        assert_eq!(
            peek_deadline_ms(b"{\"id\":1,\"method\":\"ingest\",\"deadline_ms\":0,\"params\":{}}"),
            Some(0)
        );
        assert_eq!(peek_deadline_ms(b"{\"deadline_ms\": 250 }"), Some(250));
        assert_eq!(peek_deadline_ms(b"{\"method\":\"ping\"}"), None);
        assert_eq!(peek_deadline_ms(b"{\"deadline_ms\":\"soon\"}"), None);
        assert_eq!(peek_deadline_ms(b"{\"params\":{\"deadline_ms\":0}}"), None);
    }

    #[test]
    fn assignments_convert_both_ways() {
        let s = schema();
        let v = object([
            ("cancer", Value::Str("yes".into())),
            ("smoking", Value::Str("smoker".into())),
        ]);
        let a = assignment_from_value(&s, &v, "target").unwrap();
        assert_eq!(a, Assignment::from_pairs([(0, 0), (1, 0)]));
        let back = assignment_to_value(&s, &a);
        assert_eq!(back.get("smoking"), Some(&Value::Str("smoker".into())));
        assert_eq!(back.get("cancer"), Some(&Value::Str("yes".into())));
        // Null means "no evidence".
        assert_eq!(
            assignment_from_value(&s, &Value::Null, "evidence").unwrap(),
            Assignment::empty()
        );
        // Unknown names and wrong shapes are invalid-params.
        let bad = object([("age", Value::Str("old".into()))]);
        assert_eq!(
            assignment_from_value(&s, &bad, "target").unwrap_err().code,
            ErrorCode::InvalidParams
        );
        let not_obj = Value::Str("cancer".into());
        assert_eq!(
            assignment_from_value(&s, &not_obj, "target").unwrap_err().code,
            ErrorCode::InvalidParams
        );
    }

    #[test]
    fn rows_parse_and_reject() {
        let params = object([(
            "rows",
            Value::Array(vec![
                Value::Array(vec![Value::U64(0), Value::U64(1)]),
                Value::Array(vec![Value::U64(1), Value::U64(0)]),
            ]),
        )]);
        assert_eq!(rows_from_value(&params).unwrap(), vec![vec![0, 1], vec![1, 0]]);
        let missing = object([]);
        assert_eq!(rows_from_value(&missing).unwrap_err().code, ErrorCode::InvalidParams);
        let negative = object([("rows", Value::Array(vec![Value::Array(vec![Value::I64(-1)])]))]);
        assert_eq!(rows_from_value(&negative).unwrap_err().code, ErrorCode::InvalidParams);
    }
}
