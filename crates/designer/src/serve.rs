//! The zero-dependency network front end for [`DesignService`].
//!
//! One `TcpListener`, N acceptor threads (scoped — no detached threads),
//! each owning one connection at a time. Two framings share the port and
//! are auto-detected from the first line of each connection:
//!
//! * **JSONL** — one request object per line, one checksummed response
//!   line back. The connection is persistent; this is the native framing
//!   and what the differential/load harnesses speak.
//! * **HTTP/1.1** — `POST /` with the same JSON object as the body (or
//!   `GET /ping`), response body is the same checksummed line. Keep-alive
//!   honoured; status codes mirror the response type (see
//!   [`http_status`]). This exists so `curl` works against a live daemon.
//!
//! Every frame — a JSONL line, an HTTP request or header line, an HTTP
//! body — is capped at [`MAX_FRAME_BYTES`]. A frame over the cap is
//! refused with `frame_too_large` (HTTP 413) and an unparsable
//! `Content-Length` with `malformed_frame`; either way the connection is
//! then closed, because the rest of its byte stream can no longer be
//! framed. The cap is a constant, not an option.
//!
//! Shutdown: a `{"type":"shutdown"}` frame flips the service's shutdown
//! flag; the handling acceptor then wakes its siblings out of `accept()`
//! with short-lived local connections, and `serve` returns once every
//! acceptor has drained its in-flight connection.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use crate::protocol::{render_response, respond};
use crate::service::{DesignService, ErrorCode, Response};

/// The largest frame the server reads: one JSONL line (newline included),
/// one HTTP request or header line, or one HTTP body. 1 MiB is far above
/// any request a client sends (a submit or lint batch is ~100 bytes per
/// op); a larger frame is refused with `frame_too_large`.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// How long a refused connection is drained before it is closed, so the
/// client reads the refusal instead of a reset.
const LINGER: Duration = Duration::from_millis(500);

/// One bounded line read.
enum Line {
    /// End of stream before any byte.
    Eof,
    /// A line (or a final unterminated one) of at most [`MAX_FRAME_BYTES`].
    Frame,
    /// The line runs past [`MAX_FRAME_BYTES`]; the rest is left unread.
    TooLarge,
}

/// Read one line into `buf` (cleared first), reading at most one byte past
/// [`MAX_FRAME_BYTES`].
fn read_frame_line(reader: &mut BufReader<TcpStream>, buf: &mut String) -> io::Result<Line> {
    buf.clear();
    let n = reader
        .by_ref()
        .take(MAX_FRAME_BYTES as u64 + 1)
        .read_line(buf)?;
    Ok(match n {
        0 => Line::Eof,
        n if n > MAX_FRAME_BYTES => Line::TooLarge,
        _ => Line::Frame,
    })
}

fn frame_too_large() -> Response {
    Response::Error {
        code: ErrorCode::FrameTooLarge,
        message: format!("frame exceeds {MAX_FRAME_BYTES} bytes"),
    }
}

/// Answer a frame the server will not read with `refusal` (an HTTP
/// response when `http`, else a JSONL line) and close the connection.
fn refuse(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    refusal: &Response,
    http: bool,
) -> io::Result<bool> {
    let rendered = render_response(refusal);
    if http {
        write_http(writer, refusal, &rendered, true, false)?;
    } else {
        write_jsonl(writer, &rendered)?;
    }
    linger_close(reader, writer);
    Ok(false)
}

/// Close a connection whose remaining input cannot be framed: send FIN
/// after the refusal already written, then discard input for at most
/// [`LINGER`] and [`MAX_FRAME_BYTES`] so the close does not reset the
/// client before it reads the refusal.
fn linger_close(reader: &mut BufReader<TcpStream>, writer: &TcpStream) {
    let _ = writer.shutdown(Shutdown::Write);
    let deadline = Instant::now() + LINGER;
    let mut budget = MAX_FRAME_BYTES;
    let mut sink = [0u8; 8192];
    while budget > 0 {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || writer.set_read_timeout(Some(left)).is_err() {
            return;
        }
        match reader.read(&mut sink) {
            Ok(0) | Err(_) => return,
            Ok(n) => budget = budget.saturating_sub(n),
        }
    }
}

/// Run the accept loop until a shutdown frame arrives. Blocks the calling
/// thread; returns after all acceptors exit. `threads` is clamped to ≥ 1.
pub fn serve(service: &DesignService, listener: TcpListener, threads: usize) -> io::Result<()> {
    let addr = listener.local_addr()?;
    let threads = threads.max(1);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                // `--threads=` is a thread-local override; replicate the
                // caller's effective count so consistency fan-outs inside
                // request handling see the same parallelism.
                sws_core::parallel::set_override(Some(threads));
                acceptor(service, &listener, addr, threads);
            });
        }
    });
    Ok(())
}

fn acceptor(service: &DesignService, listener: &TcpListener, addr: SocketAddr, threads: usize) {
    while !service.is_shutdown() {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(_) => continue,
        };
        if service.is_shutdown() {
            break; // a sibling's wake-up connection, not a client
        }
        let saw_shutdown = handle_conn(service, stream).unwrap_or(false);
        if saw_shutdown {
            wake_acceptors(addr, threads);
            break;
        }
    }
}

/// Unblock sibling acceptors stuck in `accept()` after shutdown.
fn wake_acceptors(addr: SocketAddr, threads: usize) {
    for _ in 0..threads {
        drop(TcpStream::connect(addr));
    }
}

/// Serve one connection to completion. Returns `Ok(true)` if a shutdown
/// frame was processed on it.
fn handle_conn(service: &DesignService, stream: TcpStream) -> io::Result<bool> {
    let mut sp = sws_trace::span!("serve.conn");
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut requests = 0u64;
    let mut first = String::new();
    match read_frame_line(&mut reader, &mut first)? {
        Line::Eof => return Ok(false),
        Line::Frame => {}
        Line::TooLarge => {
            sp.record("mode", "refused");
            return refuse(&mut reader, &mut writer, &frame_too_large(), false);
        }
    }
    let http = is_http_request_line(&first);
    sp.record("mode", if http { "http" } else { "jsonl" });
    let saw_shutdown = if http {
        serve_http(service, &mut reader, &mut writer, first, &mut requests)?
    } else {
        serve_jsonl(service, &mut reader, &mut writer, first, &mut requests)?
    };
    sp.record("requests", requests);
    Ok(saw_shutdown)
}

fn is_http_request_line(line: &str) -> bool {
    ["GET ", "POST ", "HEAD ", "PUT ", "DELETE ", "OPTIONS "]
        .iter()
        .any(|m| line.starts_with(m))
        && line.contains(" HTTP/1.")
}

// ---------------------------------------------------------------------
// JSONL framing
// ---------------------------------------------------------------------

fn serve_jsonl(
    service: &DesignService,
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    first: String,
    requests: &mut u64,
) -> io::Result<bool> {
    let mut line = first;
    loop {
        let frame = line.trim();
        if !frame.is_empty() {
            *requests += 1;
            let (response, rendered) = respond(service, frame);
            write_jsonl(writer, &rendered)?;
            service.maintain();
            if matches!(response, Response::Bye) {
                return Ok(true);
            }
        }
        match read_frame_line(reader, &mut line)? {
            Line::Eof => return Ok(false),
            Line::Frame => {}
            Line::TooLarge => {
                *requests += 1;
                return refuse(reader, writer, &frame_too_large(), false);
            }
        }
    }
}

fn write_jsonl(writer: &mut TcpStream, rendered: &str) -> io::Result<()> {
    writer.write_all(rendered.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

// ---------------------------------------------------------------------
// HTTP/1.1 framing
// ---------------------------------------------------------------------

/// The status line a response maps to.
pub fn http_status(response: &Response) -> (u16, &'static str) {
    match response {
        Response::Conflict { .. } => (409, "Conflict"),
        Response::Rejected { .. } => (422, "Unprocessable Entity"),
        Response::Error { code, .. } => match code {
            ErrorCode::UnknownSession => (404, "Not Found"),
            ErrorCode::DeltaHorizon => (409, "Conflict"),
            ErrorCode::MalformedFrame | ErrorCode::BadRequest => (400, "Bad Request"),
            ErrorCode::FrameTooLarge => (413, "Payload Too Large"),
        },
        _ => (200, "OK"),
    }
}

fn serve_http(
    service: &DesignService,
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    first: String,
    requests: &mut u64,
) -> io::Result<bool> {
    let mut request_line = first;
    let mut header = String::new();
    loop {
        let mut parts = request_line.split_whitespace();
        let method = parts.next().unwrap_or("").to_string();
        let path = parts.next().unwrap_or("/").to_string();

        // Headers. A refusal here ends the connection: past a bad frame
        // the byte stream cannot be framed again.
        let mut content_length = Ok(0usize);
        let mut close = false;
        loop {
            match read_frame_line(reader, &mut header)? {
                Line::Eof => return Ok(false),
                Line::Frame => {}
                Line::TooLarge => {
                    content_length = Err(frame_too_large());
                    break;
                }
            }
            let header = header.trim();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = match value.parse::<usize>() {
                        Ok(n) if n > MAX_FRAME_BYTES => Err(frame_too_large()),
                        Ok(n) => Ok(n),
                        Err(_) => Err(Response::Error {
                            code: ErrorCode::MalformedFrame,
                            message: format!("unparsable content-length `{value}`"),
                        }),
                    };
                } else if name.eq_ignore_ascii_case("connection")
                    && value.eq_ignore_ascii_case("close")
                {
                    close = true;
                }
            }
        }
        *requests += 1;
        let content_length = match content_length {
            Ok(n) => n,
            Err(refusal) => return refuse(reader, writer, &refusal, true),
        };
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body)?;

        let frame = match method.as_str() {
            "POST" => String::from_utf8_lossy(&body).into_owned(),
            "GET" | "HEAD" if path == "/ping" || path == "/" => "{\"type\":\"ping\"}".to_string(),
            _ => String::new(),
        };
        let (response, rendered) = if frame.is_empty() {
            let response = Response::Error {
                code: ErrorCode::BadRequest,
                message: format!("no route for {method} {path}"),
            };
            let rendered = render_response(&response);
            (response, rendered)
        } else {
            respond(service, frame.trim())
        };
        write_http(writer, &response, &rendered, close, method == "HEAD")?;
        service.maintain();
        if matches!(response, Response::Bye) {
            return Ok(true);
        }
        if close {
            return Ok(false);
        }
        match read_frame_line(reader, &mut request_line)? {
            Line::Eof => return Ok(false),
            Line::Frame => {}
            Line::TooLarge => return refuse(reader, writer, &frame_too_large(), true),
        }
    }
}

fn write_http(
    writer: &mut TcpStream,
    response: &Response,
    rendered: &str,
    close: bool,
    head: bool,
) -> io::Result<()> {
    let (status, reason) = http_status(response);
    write!(
        writer,
        "HTTP/1.1 {status} {reason}\r\ncontent-type: application/json\r\n\
         content-length: {}\r\nconnection: {}\r\n\r\n",
        rendered.len(),
        if close { "close" } else { "keep-alive" },
    )?;
    if !head {
        writer.write_all(rendered.as_bytes())?;
    }
    writer.flush()
}
