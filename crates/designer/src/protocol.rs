//! The JSONL wire format for the design service.
//!
//! One request per line, one response per line. Requests are plain JSON
//! objects with a `type` field (any key order). Responses are serialized
//! with a **pinned key order** and end in a SplitMix64 checksum field —
//! the same self-verifying single-line idiom as `crash-report.json` and
//! the analyzer's `--lint=json` output, so a truncated or hand-edited
//! response is detectable with [`crate::crash::checksum_valid`]. The
//! golden protocol fixtures (`tests/serve_protocol.rs`) pin the rendering
//! byte-for-byte.
//!
//! See `docs/serve.md` for the full schema.

use sws_core::ConceptKind;
use sws_repository::checksum;
use sws_trace::export::escape_json;

use crate::service::{ErrorCode, LogRecord, OpEnvelope, Request, Response};

// ---------------------------------------------------------------------
// Rendering (responses)
// ---------------------------------------------------------------------

fn push_str_field(out: &mut String, key: &str, value: &str) {
    out.push_str(&format!(",\"{key}\":\"{}\"", escape_json(value)));
}

fn push_records(out: &mut String, key: &str, records: &[LogRecord]) {
    out.push_str(&format!(",\"{key}\":["));
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"seq\":{},\"session\":\"{}\",\"context\":\"{}\",\"stmt\":\"{}\"}}",
            r.seq,
            escape_json(&r.session),
            r.context.tag(),
            escape_json(&r.statement)
        ));
    }
    out.push(']');
}

/// Serialize a response as one JSON line (no trailing newline), closing
/// with the checksum over every preceding byte.
pub fn render_response(resp: &Response) -> String {
    let mut out = String::with_capacity(128);
    out.push_str(&format!("{{\"type\":\"{}\"", resp.tag()));
    match resp {
        Response::Opened {
            session,
            rev,
            types,
            concepts,
        } => {
            push_str_field(&mut out, "session", session);
            out.push_str(&format!(
                ",\"rev\":{rev},\"types\":{types},\"concepts\":{concepts}"
            ));
        }
        Response::Accepted {
            session,
            base_rev,
            rev,
            applied,
            warnings,
        } => {
            push_str_field(&mut out, "session", session);
            out.push_str(&format!(
                ",\"base_rev\":{base_rev},\"rev\":{rev},\"applied\":{applied},\"warnings\":["
            ));
            for (i, w) in warnings.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{}\"", escape_json(w)));
            }
            out.push(']');
        }
        Response::Conflict {
            session,
            base_rev,
            rev,
            auto_rebasable,
            delta,
            conflicts,
        } => {
            push_str_field(&mut out, "session", session);
            out.push_str(&format!(
                ",\"base_rev\":{base_rev},\"rev\":{rev},\"auto_rebasable\":{auto_rebasable}"
            ));
            push_records(&mut out, "delta", delta);
            out.push_str(",\"conflicts\":[");
            for (i, c) in conflicts.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"op\":{},\"seq\":{},\"reason\":\"{}\"}}",
                    c.op,
                    c.seq,
                    escape_json(&c.reason)
                ));
            }
            out.push(']');
        }
        Response::Rejected {
            session,
            rev,
            index,
            error,
        } => {
            push_str_field(&mut out, "session", session);
            out.push_str(&format!(",\"rev\":{rev},\"index\":{index}"));
            push_str_field(&mut out, "error", error);
        }
        Response::Linted {
            rev,
            ops,
            passes,
            findings,
        } => {
            out.push_str(&format!(
                ",\"rev\":{rev},\"ops\":{ops},\"passes\":{passes},\"findings\":["
            ));
            for (i, f) in findings.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"index\":{},\"code\":\"{}\",\"severity\":\"{}\",\"message\":\"{}\"}}",
                    f.index,
                    escape_json(&f.code),
                    escape_json(&f.severity),
                    escape_json(&f.message)
                ));
            }
            out.push(']');
        }
        Response::Reported {
            rev,
            types,
            concepts,
            errors,
            warnings,
        } => {
            out.push_str(&format!(
                ",\"rev\":{rev},\"types\":{types},\"concepts\":{concepts},\
                 \"errors\":{errors},\"warnings\":{warnings}"
            ));
        }
        Response::Exported { rev, odl } => {
            out.push_str(&format!(",\"rev\":{rev}"));
            push_str_field(&mut out, "odl", odl);
        }
        Response::LogSlice { rev, since, ops } => {
            out.push_str(&format!(",\"rev\":{rev},\"since\":{since}"));
            push_records(&mut out, "ops", ops);
        }
        Response::Checkpointed {
            rev,
            generation,
            ops_covered,
        } => {
            out.push_str(&format!(",\"rev\":{rev},\"generation\":"));
            match generation {
                Some(g) => out.push_str(&g.to_string()),
                None => out.push_str("null"),
            }
            out.push_str(&format!(",\"ops_covered\":{ops_covered}"));
        }
        Response::Pong { rev, sessions } => {
            out.push_str(&format!(",\"rev\":{rev},\"sessions\":{sessions}"));
        }
        Response::Bye => {}
        Response::Error { code, message } => {
            push_str_field(&mut out, "code", code.tag());
            push_str_field(&mut out, "message", message);
        }
    }
    let sum = checksum::checksum(out.as_bytes());
    out.push_str(&format!(",\"checksum\":\"{}\"}}", checksum::to_hex(sum)));
    out
}

// ---------------------------------------------------------------------
// Parsing (requests)
// ---------------------------------------------------------------------

/// Parse one request line. The error string is the human half of a
/// `malformed_frame` response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let value = Json::parse(line)?;
    let obj = value.as_object().ok_or("request is not a JSON object")?;
    let ty = get_str(obj, "type")?;
    match ty {
        "open" => Ok(Request::Open {
            session: get_str(obj, "session")?.to_string(),
        }),
        "submit" => Ok(Request::Submit {
            session: get_str(obj, "session")?.to_string(),
            base_rev: get_u64(obj, "base_rev")?,
            ops: get_ops(obj)?,
        }),
        "lint" => Ok(Request::Lint {
            session: get_str(obj, "session")?.to_string(),
            ops: get_ops(obj)?,
        }),
        "report" => Ok(Request::Report {
            session: get_str(obj, "session")?.to_string(),
        }),
        "export" => Ok(Request::Export {
            session: get_str(obj, "session")?.to_string(),
        }),
        "log" => Ok(Request::Log {
            session: get_str(obj, "session")?.to_string(),
            since: get_u64(obj, "since").unwrap_or(0),
        }),
        "checkpoint" => Ok(Request::Checkpoint {
            session: get_str(obj, "session")?.to_string(),
        }),
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown request type `{other}`")),
    }
}

fn get<'a>(obj: &'a [(String, Json)], key: &str) -> Result<&'a Json, String> {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing field `{key}`"))
}

fn get_str<'a>(obj: &'a [(String, Json)], key: &str) -> Result<&'a str, String> {
    get(obj, key)?
        .as_str()
        .ok_or_else(|| format!("field `{key}` must be a string"))
}

fn get_u64(obj: &[(String, Json)], key: &str) -> Result<u64, String> {
    get(obj, key)?
        .as_u64()
        .ok_or_else(|| format!("field `{key}` must be a non-negative integer"))
}

/// The `ops` array: `[{"context": "<tag>", "stmt": "<statement>"}, …]`.
/// `context` defaults to `wagon_wheel`.
fn get_ops(obj: &[(String, Json)]) -> Result<Vec<OpEnvelope>, String> {
    let arr = get(obj, "ops")?
        .as_array()
        .ok_or("field `ops` must be an array")?;
    arr.iter()
        .enumerate()
        .map(|(i, item)| {
            let op = item
                .as_object()
                .ok_or_else(|| format!("ops[{i}] must be an object"))?;
            let context = match op.iter().find(|(k, _)| k == "context") {
                None => ConceptKind::WagonWheel,
                Some((_, v)) => {
                    let tag = v
                        .as_str()
                        .ok_or_else(|| format!("ops[{i}].context must be a string"))?;
                    ConceptKind::from_tag(tag).ok_or_else(|| {
                        format!(
                            "ops[{i}].context must be wagon_wheel | generalization | \
                             aggregation | instance_of, got `{tag}`"
                        )
                    })?
                }
            };
            let statement = get_str(op, "stmt")
                .map_err(|_| format!("ops[{i}] is missing the `stmt` string"))?
                .to_string();
            Ok(OpEnvelope { context, statement })
        })
        .collect()
}

// ---------------------------------------------------------------------
// Minimal JSON
// ---------------------------------------------------------------------

/// A minimal JSON value — just enough for the request grammar (objects,
/// arrays, strings, non-negative integers, booleans, null; floats and
/// negatives are rejected, the protocol never produces them). Public so
/// protocol clients (the differential and crash test harnesses) can parse
/// response lines with the same grammar the server parses requests with,
/// and so `sws-bench` can read its `BENCH_*.json` reports with it.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(u64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The fields in source order, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// Field lookup on an object (`None` on other variants too).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Parse one complete JSON value; trailing bytes are an error.
    pub fn parse(s: &str) -> Result<Json, String> {
        let bytes = s.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes after the JSON value (at {pos})"));
        }
        Ok(value)
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && (b[*pos] as char).is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if b.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", c as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(c) if c.is_ascii_digit() => {
            let start = *pos;
            while b.get(*pos).is_some_and(u8::is_ascii_digit) {
                *pos += 1;
            }
            if matches!(b.get(*pos), Some(b'.') | Some(b'e') | Some(b'E')) {
                return Err(format!(
                    "only non-negative integers are accepted (at byte {start})"
                ));
            }
            std::str::from_utf8(&b[start..*pos])
                .ok()
                .and_then(|s| s.parse().ok())
                .map(Json::Num)
                .ok_or_else(|| format!("bad number at byte {start}"))
        }
        Some(c) => Err(format!("unexpected `{}` at byte {}", *c as char, *pos)),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let value = parse_value(b, pos)?;
        fields.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let esc = b.get(*pos).copied().ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{0008}'),
                    b'f' => out.push('\u{000C}'),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("bad \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        *pos += 4;
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    }
                    other => return Err(format!("bad escape `\\{}`", other as char)),
                }
            }
            _ => {
                // Continuation bytes of multi-byte UTF-8 sequences pass
                // through unchanged.
                let start = *pos - 1;
                let mut end = *pos;
                while end < b.len() && (b[end] & 0xC0) == 0x80 {
                    end += 1;
                }
                out.push_str(std::str::from_utf8(&b[start..end]).map_err(|_| "invalid UTF-8")?);
                *pos = end;
            }
        }
    }
    Err("unterminated string".to_string())
}

// ---------------------------------------------------------------------
// The transport-independent dispatch helper
// ---------------------------------------------------------------------

/// Parse one frame, dispatch it, and return both the typed response and
/// its rendered line. A parse failure becomes a `malformed_frame` error
/// response — the connection survives.
pub fn respond(service: &crate::service::DesignService, line: &str) -> (Response, String) {
    let response = match parse_request(line) {
        Ok(request) => service.handle(request),
        Err(message) => Response::Error {
            code: ErrorCode::MalformedFrame,
            message,
        },
    };
    let rendered = render_response(&response);
    (response, rendered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crash::checksum_valid;

    #[test]
    fn requests_parse_with_any_key_order() {
        let req = parse_request(
            r#"{"base_rev": 3, "ops": [{"stmt": "add_type_definition(X)"}], "type": "submit", "session": "s"}"#,
        )
        .expect("parses");
        match req {
            Request::Submit {
                session,
                base_rev,
                ops,
            } => {
                assert_eq!(session, "s");
                assert_eq!(base_rev, 3);
                assert_eq!(ops.len(), 1);
                assert_eq!(ops[0].context, ConceptKind::WagonWheel);
                assert_eq!(ops[0].statement, "add_type_definition(X)");
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse_request(r#"{"type":"ping"}"#),
            Ok(Request::Ping)
        ));
        assert!(matches!(
            parse_request(r#"{"type":"log","session":"s"}"#),
            Ok(Request::Log { since: 0, .. })
        ));
    }

    #[test]
    fn malformed_frames_are_rejected_with_reasons() {
        for (frame, needle) in [
            ("not json", "unexpected"),
            ("{\"type\":\"submit\",\"session\":\"s\"}", "base_rev"),
            ("{\"type\":\"warp\"}", "unknown request type"),
            ("{\"type\":\"open\"}", "missing field `session`"),
            ("{\"type\":\"ping\"} trailing", "trailing"),
            (
                r#"{"type":"submit","session":"s","base_rev":0,"ops":[{"stmt":"x","context":"nope"}]}"#,
                "context",
            ),
            (
                r#"{"type":"submit","session":"s","base_rev":1.5,"ops":[]}"#,
                "integer",
            ),
        ] {
            let err = parse_request(frame).expect_err(frame);
            assert!(err.contains(needle), "`{frame}` → `{err}`");
        }
    }

    #[test]
    fn responses_are_checksummed_single_lines() {
        let resp = Response::Conflict {
            session: "alice".into(),
            base_rev: 2,
            rev: 4,
            auto_rebasable: true,
            delta: vec![crate::service::LogRecord {
                seq: 2,
                session: "bob".into(),
                context: ConceptKind::WagonWheel,
                statement: "add_type_definition(X)".into(),
            }],
            conflicts: vec![],
        };
        let line = render_response(&resp);
        assert!(!line.contains('\n'));
        assert!(checksum_valid(&line), "{line}");
        sws_trace::export::jsonl::check_value(&line).expect("valid JSON");
        // Pinned key order is part of the format.
        let keys = [
            "type",
            "session",
            "base_rev",
            "rev",
            "auto_rebasable",
            "delta",
            "conflicts",
            "checksum",
        ];
        let mut last = 0;
        for key in keys {
            let at = line.find(&format!("\"{key}\":")).expect(key);
            assert!(at >= last, "key {key} out of order in {line}");
            last = at;
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let parsed = Json::parse(r#"{"a":"tab\tnl\nq\"uniAé"}"#).expect("parses");
        let obj = parsed.as_object().expect("object");
        assert_eq!(obj[0].1.as_str(), Some("tab\tnl\nq\"uniAé"));
    }
}
