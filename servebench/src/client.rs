//! A JSONL client for `swsd serve`, and the request frames it sends.
//!
//! Every socket has `TCP_NODELAY` set and every frame (request plus its
//! newline) goes out in one write, so the client adds no Nagle stall of
//! its own. Every response must carry a valid checksum.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use sws_core::oplang::print_op;
use sws_designer::crash::checksum_valid;
use sws_designer::protocol::Json;
use sws_trace::export::escape_json;

use crate::workload::Op;

/// How long a request may wait for its response before it counts as a
/// timeout (a failure).
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// One open JSONL connection.
#[derive(Debug)]
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

/// When a round trip's write started and its read ended.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    pub fn elapsed(&self) -> Duration {
        self.end - self.start
    }
}

/// One response: its raw line, parsed form and `type` tag.
#[derive(Debug)]
pub struct Reply {
    pub line: String,
    pub json: Json,
}

impl Reply {
    pub fn tag(&self) -> &str {
        self.json.get("type").and_then(Json::as_str).unwrap_or("")
    }

    pub fn num(&self, key: &str) -> Option<u64> {
        self.json.get(key).and_then(Json::as_u64)
    }
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Send one frame (which ends in `\n`) in a single write and read the
    /// response line. Returns the raw line and when the write started and
    /// the read ended; the line is neither parsed nor checked in between.
    pub fn round_trip(&mut self, frame: &str) -> io::Result<(String, Span)> {
        debug_assert!(frame.ends_with('\n'));
        let mut line = String::new();
        let start = Instant::now();
        self.writer.write_all(frame.as_bytes())?;
        let n = self.reader.read_line(&mut line)?;
        let span = Span {
            start,
            end: Instant::now(),
        };
        if n == 0 || !line.ends_with('\n') {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        line.pop();
        Ok((line, span))
    }

    /// [`Self::round_trip`], then check the checksum and parse.
    pub fn call(&mut self, frame: &str) -> Result<(Reply, Span), String> {
        let (line, span) = self.round_trip(frame).map_err(|e| format!("i/o: {e}"))?;
        Ok((check(line)?, span))
    }
}

/// Verify a response line's checksum and parse it.
pub fn check(line: String) -> Result<Reply, String> {
    if !checksum_valid(&line) {
        return Err(format!("bad checksum: {}", clip(&line)));
    }
    let json = Json::parse(&line).map_err(|e| format!("unparsable response ({e})"))?;
    Ok(Reply { line, json })
}

/// The first 200 bytes of a line, for error messages.
pub fn clip(line: &str) -> &str {
    let mut end = line.len().min(200);
    while !line.is_char_boundary(end) {
        end -= 1;
    }
    &line[..end]
}

// ---------------------------------------------------------------------
// Request frames (each ends in a newline)
// ---------------------------------------------------------------------

fn ops_json(ops: &[Op]) -> String {
    let items: Vec<String> = ops
        .iter()
        .map(|(context, op)| {
            format!(
                "{{\"context\":\"{}\",\"stmt\":\"{}\"}}",
                context.tag(),
                escape_json(&print_op(op))
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

pub fn open(session: &str) -> String {
    format!(
        "{{\"type\":\"open\",\"session\":\"{}\"}}\n",
        escape_json(session)
    )
}

pub fn submit(session: &str, base_rev: u64, ops: &[Op]) -> String {
    format!(
        "{{\"type\":\"submit\",\"session\":\"{}\",\"base_rev\":{base_rev},\"ops\":{}}}\n",
        escape_json(session),
        ops_json(ops)
    )
}

pub fn lint(session: &str, ops: &[Op]) -> String {
    format!(
        "{{\"type\":\"lint\",\"session\":\"{}\",\"ops\":{}}}\n",
        escape_json(session),
        ops_json(ops)
    )
}

pub fn report(session: &str) -> String {
    format!(
        "{{\"type\":\"report\",\"session\":\"{}\"}}\n",
        escape_json(session)
    )
}

pub fn export(session: &str) -> String {
    format!(
        "{{\"type\":\"export\",\"session\":\"{}\"}}\n",
        escape_json(session)
    )
}

pub fn log(session: &str, since: u64) -> String {
    format!(
        "{{\"type\":\"log\",\"session\":\"{}\",\"since\":{since}}}\n",
        escape_json(session)
    )
}

pub const PING: &str = "{\"type\":\"ping\"}\n";
pub const SHUTDOWN: &str = "{\"type\":\"shutdown\"}\n";
