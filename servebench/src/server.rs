//! Spawning, probing and stopping the real `swsd serve` process.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::client::{self, Conn};

/// How long a shut-down server may take to exit.
const EXIT_TIMEOUT: Duration = Duration::from_secs(30);

/// Pids of live servers, for the watchdog.
static LIVE: Mutex<Vec<u32>> = Mutex::new(Vec::new());

/// Once `limit` has passed, kill every live server, remove the run's
/// scratch directory and exit non-zero, so a hung run still ends in time
/// and leaves nothing behind.
pub fn watchdog(limit: Duration, scratch: PathBuf) {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("servebench: run exceeded {limit:?}; killing the server");
        let pids = LIVE.lock().map(|p| p.clone()).unwrap_or_default();
        for pid in pids {
            let _ = Command::new("kill")
                .args(["-KILL", &pid.to_string()])
                .status();
        }
        let _ = std::fs::remove_dir_all(&scratch);
        std::process::exit(3);
    });
}

fn set_live(pid: u32, live: bool) {
    if let Ok(mut pids) = LIVE.lock() {
        pids.retain(|&p| p != pid);
        if live {
            pids.push(pid);
        }
    }
}

/// A running `swsd serve`.
#[derive(Debug)]
pub struct Server {
    child: Child,
    /// Kept open so the server never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    exited: bool,
}

impl Server {
    /// Spawn `swsd <args> serve --addr=127.0.0.1:0` with every `SWS_*`
    /// variable removed from its environment, and wait for the address it
    /// prints.
    pub fn spawn(swsd: &Path, args: &[String]) -> Result<Server, String> {
        let mut cmd = Command::new(swsd);
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("SWS_") {
                cmd.env_remove(key);
            }
        }
        cmd.args(args)
            .args(["serve", "--addr=127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", swsd.display()))?;
        set_live(child.id(), true);
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = stdout
            .read_line(&mut line)
            .ok()
            .and_then(|_| line.trim().strip_prefix("swsd: serving on ")?.parse().ok());
        let mut server = Server {
            child,
            _stdout: stdout,
            addr: "127.0.0.1:0".parse().expect("literal address"),
            exited: false,
        };
        match addr {
            Some(addr) => {
                server.addr = addr;
                Ok(server)
            }
            None => Err(format!("swsd did not start serving (first line {line:?})")),
        }
    }

    /// A `kB` field of `/proc/<pid>/status` (e.g. `VmHWM`), or a plain
    /// count field (e.g. `Threads`).
    pub fn status_field(&self, key: &str) -> Option<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        status.lines().find_map(|l| {
            let rest = l.strip_prefix(key)?.strip_prefix(':')?;
            rest.split_whitespace().next()?.parse().ok()
        })
    }

    /// Send `shutdown` on a fresh connection (every workload connection
    /// must already be closed: each pins an acceptor) and wait for the
    /// process to exit cleanly. Any timeout is an error.
    pub fn shutdown(mut self) -> Result<(), String> {
        let bye = Conn::connect(self.addr)
            .map_err(|e| format!("shutdown connect: {e}"))
            .and_then(|mut conn| conn.call(client::SHUTDOWN))
            .and_then(|(reply, _)| match reply.tag() {
                "bye" => Ok(()),
                other => Err(format!("shutdown answered `{other}`")),
            });
        let deadline = Instant::now() + EXIT_TIMEOUT;
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break Ok(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => {
                    break Err(format!(
                        "swsd still running {EXIT_TIMEOUT:?} after shutdown"
                    ))
                }
                Err(e) => break Err(format!("waiting for swsd: {e}")),
            }
        };
        let status = status?;
        self.exited = true;
        set_live(self.child.id(), false);
        bye?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("swsd exited with {status} after shutdown"))
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.exited {
            let _ = self.child.kill();
            let _ = self.child.wait();
            set_live(self.child.id(), false);
        }
    }
}
