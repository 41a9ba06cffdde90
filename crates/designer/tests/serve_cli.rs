//! End-to-end tests for the `swsd serve` lifecycle: argument validation,
//! bind failures, refusal to serve damaged directories, and a clean
//! TCP-driven shutdown that flushes autosave state to disk.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

fn run_swsd(args: &[&str], stdin: &str) -> (String, String, i32) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_swsd"))
        .env("SWS_CRASH_DIR", std::env::temp_dir())
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("swsd spawns");
    let _ = child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(stdin.as_bytes());
    let output = child.wait_with_output().expect("swsd exits");
    (
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
        output.status.code().expect("not killed by signal"),
    )
}

fn schema_file(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("swsd_serve_cli_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("uni.odl");
    std::fs::write(
        &path,
        "interface Person { attribute string name; }\n\
         interface Employee : Person { attribute long badge; }\n",
    )
    .unwrap();
    path
}

/// Spawn `swsd ... serve --addr=127.0.0.1:0` and parse the bound address
/// from the `swsd: serving on HOST:PORT` line it prints for supervisors.
fn spawn_serve(args: &[&str]) -> (Child, BufReader<ChildStdout>, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_swsd"))
        .env("SWS_CRASH_DIR", std::env::temp_dir())
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("swsd spawns");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("read serving line");
    let addr = line
        .trim()
        .strip_prefix("swsd: serving on ")
        .unwrap_or_else(|| panic!("unexpected first line: {line:?}"))
        .parse()
        .expect("printed address parses");
    (child, stdout, addr)
}

/// One JSONL request/response round trip against a live server.
fn rpc(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
    stream.write_all(line.as_bytes()).expect("send");
    stream.write_all(b"\n").expect("send");
    stream.flush().expect("flush");
    let mut response = String::new();
    reader.read_line(&mut response).expect("recv");
    response.trim_end().to_string()
}

#[test]
fn serve_without_addr_is_a_usage_error() {
    let schema = schema_file("noaddr");
    let (_, stderr, code) = run_swsd(&["--schema", schema.to_str().unwrap(), "serve"], "");
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains("usage"), "{stderr}");

    // `serve` with no --schema/--session at all is also a usage error.
    let (_, stderr, code) = run_swsd(&["serve"], "");
    assert_eq!(code, 2, "stderr: {stderr}");
}

#[test]
fn serve_with_malformed_addr_exits_2() {
    let schema = schema_file("badaddr");
    for bad in ["--addr=nonsense", "--addr=127.0.0.1", "--addr=:0:0"] {
        let (_, stderr, code) = run_swsd(&["--schema", schema.to_str().unwrap(), bad, "serve"], "");
        assert_eq!(code, 2, "`{bad}` must be a usage error; stderr: {stderr}");
        assert!(
            stderr.contains("--addr wants HOST:PORT"),
            "`{bad}`: {stderr}"
        );
    }
}

#[test]
fn serve_on_a_port_already_in_use_exits_5() {
    let schema = schema_file("inuse");
    let holder = TcpListener::bind("127.0.0.1:0").expect("bind holder");
    let addr = holder.local_addr().expect("addr");
    let (_, stderr, code) = run_swsd(
        &[
            "--schema",
            schema.to_str().unwrap(),
            &format!("--addr={addr}"),
            "serve",
        ],
        "",
    );
    assert_eq!(code, 5, "stderr: {stderr}");
    assert!(stderr.contains("cannot bind"), "{stderr}");
}

#[test]
fn serve_refuses_a_degraded_directory_before_binding() {
    let schema = schema_file("degraded");
    let session_dir = std::env::temp_dir().join(format!("swsd_srv_degr_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&session_dir);
    let script = format!(
        "save {}\nadd_type_definition(Project)\ncheckpoint\nquit\n",
        session_dir.display()
    );
    let (_, _, code) = run_swsd(&["--schema", schema.to_str().unwrap()], &script);
    assert_eq!(code, 0);
    // Corrupt the committed snapshot: salvage falls back to full replay —
    // right state, but a degraded load path a daemon must not serve.
    let snap = session_dir.join("snapshot.1");
    let mut bytes = std::fs::read(&snap).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&snap, &bytes).unwrap();

    let (stdout, stderr, code) = run_swsd(
        &[
            "--session",
            session_dir.to_str().unwrap(),
            "--addr=127.0.0.1:0",
            "serve",
        ],
        "",
    );
    assert_eq!(code, 7, "stderr: {stderr}");
    assert!(
        stderr.contains("refusing to serve a degraded fallback load"),
        "{stderr}"
    );
    assert!(
        !stdout.contains("serving on"),
        "refused before binding, so no serving line: {stdout}"
    );
    std::fs::remove_dir_all(&session_dir).unwrap();
}

#[test]
fn clean_shutdown_flushes_autosave_and_exits_0() {
    let schema = schema_file("shutdown");
    let session_dir = std::env::temp_dir().join(format!("swsd_srv_flush_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&session_dir);
    let script = format!("save {}\nquit\n", session_dir.display());
    let (_, _, code) = run_swsd(&["--schema", schema.to_str().unwrap()], &script);
    assert_eq!(code, 0);

    let (mut child, _stdout, addr) = spawn_serve(&[
        "--session",
        session_dir.to_str().unwrap(),
        "--addr=127.0.0.1:0",
        "serve",
    ]);
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    let opened = rpc(
        &mut stream,
        &mut reader,
        "{\"type\":\"open\",\"session\":\"cli\"}",
    );
    assert!(opened.contains("\"type\":\"opened\""), "{opened}");
    let accepted = rpc(
        &mut stream,
        &mut reader,
        "{\"type\":\"submit\",\"session\":\"cli\",\"base_rev\":0,\
         \"ops\":[{\"stmt\":\"add_type_definition(ServedViaTcp)\"}]}",
    );
    assert!(accepted.contains("\"type\":\"accepted\""), "{accepted}");
    let bye = rpc(&mut stream, &mut reader, "{\"type\":\"shutdown\"}");
    assert!(bye.contains("\"type\":\"bye\""), "{bye}");

    let status = child.wait().expect("server exits");
    assert_eq!(status.code(), Some(0), "clean shutdown exits 0");

    // The accepted op reached the session directory: the live append (or
    // the final save) must have flushed it.
    let ops = std::fs::read_to_string(session_dir.join("session.ops")).unwrap_or_default();
    let has_tail = ops.contains("add_type_definition(ServedViaTcp)");
    // ...and a fresh load of the directory sees the type either way.
    let (stdout, stderr, code) =
        run_swsd(&["--session", session_dir.to_str().unwrap()], "odl\nquit\n");
    assert_eq!(code, 0, "stderr: {stderr}");
    assert!(
        stdout.contains("interface ServedViaTcp"),
        "tail flushed: {has_tail}; reloaded odl:\n{stdout}"
    );
    std::fs::remove_dir_all(&session_dir).unwrap();
}

/// Send `bytes` on a fresh connection and read everything the server
/// answers until it closes the connection.
fn send_and_read_to_close(addr: SocketAddr, bytes: Vec<u8>) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    let mut writer = stream.try_clone().expect("clone");
    // The server stops reading at its cap, so write from another thread
    // and ignore a write cut short by the close.
    let sender = std::thread::spawn(move || {
        let _ = writer.write_all(&bytes);
    });
    let mut answer = String::new();
    stream
        .read_to_string(&mut answer)
        .expect("read until close");
    sender.join().expect("sender thread");
    answer
}

/// A spawned server, killed on drop so a failing test leaves no daemon.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// A fresh connection still gets a ping answered, then the server shuts
/// down cleanly.
fn assert_alive_then_shut_down(mut server: Server, addr: SocketAddr) {
    let mut stream = TcpStream::connect(addr).expect("server still accepts");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let pong = rpc(&mut stream, &mut reader, "{\"type\":\"ping\"}");
    assert!(pong.contains("\"type\":\"pong\""), "{pong}");
    let bye = rpc(&mut stream, &mut reader, "{\"type\":\"shutdown\"}");
    assert!(bye.contains("\"type\":\"bye\""), "{bye}");
    let status = server.0.wait().expect("server exits");
    assert_eq!(status.code(), Some(0), "clean shutdown exits 0");
}

fn spawn_schema_server(tag: &str) -> (Server, SocketAddr) {
    let schema = schema_file(tag);
    let (child, _stdout, addr) = spawn_serve(&[
        "--schema",
        schema.to_str().unwrap(),
        "--addr=127.0.0.1:0",
        "serve",
    ]);
    (Server(child), addr)
}

#[test]
fn giant_content_length_is_refused_and_the_server_lives() {
    let (server, addr) = spawn_schema_server("giant");
    let answer = send_and_read_to_close(
        addr,
        b"POST / HTTP/1.1\r\nContent-Length: 99999999999999\r\n\r\n".to_vec(),
    );
    assert!(answer.starts_with("HTTP/1.1 413 "), "{answer}");
    assert!(answer.contains("\"code\":\"frame_too_large\""), "{answer}");
    assert!(answer.contains("connection: close"), "{answer}");
    assert_alive_then_shut_down(server, addr);
}

#[test]
fn unparsable_content_length_is_a_malformed_frame() {
    let (server, addr) = spawn_schema_server("garbage");
    let answer = send_and_read_to_close(
        addr,
        b"POST / HTTP/1.1\r\nContent-Length: 12abc\r\n\r\n{\"type\":\"ping\"}".to_vec(),
    );
    assert!(answer.starts_with("HTTP/1.1 400 "), "{answer}");
    assert!(answer.contains("\"code\":\"malformed_frame\""), "{answer}");
    // The body was never read as the next request line.
    assert!(!answer.contains("pong"), "{answer}");
    assert_alive_then_shut_down(server, addr);
}

#[test]
fn over_long_jsonl_line_is_refused_and_the_server_lives() {
    let (server, addr) = spawn_schema_server("longline");
    let mut line = b"{\"type\":\"ping\",\"pad\":\"".to_vec();
    line.resize(line.len() + sws_designer::serve::MAX_FRAME_BYTES, b'x');
    line.extend_from_slice(b"\"}\n");
    let answer = send_and_read_to_close(addr, line);
    assert!(
        answer.starts_with("{\"type\":\"error\",\"code\":\"frame_too_large\""),
        "{answer}"
    );
    assert_eq!(answer.lines().count(), 1, "{answer}");
    assert_alive_then_shut_down(server, addr);
}
