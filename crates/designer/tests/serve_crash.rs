//! Crash-safety for `swsd serve`: a live TCP server over a fault-injected
//! session directory, killed mid-append and mid-checkpoint while
//! concurrent clients stream ops.
//!
//! The contract proven for both crash points:
//!
//! * the server itself never wedges — clients keep getting `accepted`
//!   responses after the "disk" dies (durability degrades, liveness
//!   doesn't),
//! * after reboot (`post_crash` + salvage load), the recovered state is a
//!   serial replay of some **prefix** of the accepted total order — never
//!   a torn mixture, never ops out of order,
//! * a re-served session directory accepts reattaching clients whose
//!   `opened` rev is exactly the salvaged op count, and a fresh submit at
//!   that rev lands.
//!
//! A rejected batch is also pinned never to reach the disk at all.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use sws_core::ConceptKind;
use sws_corpus::university;
use sws_designer::protocol::Json;
use sws_designer::{serve, DesignService, OpEnvelope, Request, Response, Session};
use sws_repository::io::{FaultIo, MemIo, RepoIo};
use sws_repository::Repository;

const CLIENTS: usize = 2;
const OPS_PER_CLIENT: usize = 10;
const THREADS: usize = 2;

/// `Session` owns its I/O, but the test must keep a handle to plant the
/// fault and reboot the disk afterwards — so share one `FaultIo`.
#[derive(Debug, Clone)]
struct SharedIo(Arc<FaultIo>);

impl RepoIo for SharedIo {
    fn read(&self, p: &Path) -> std::io::Result<Vec<u8>> {
        self.0.read(p)
    }
    fn write_atomic(&self, p: &Path, d: &[u8]) -> std::io::Result<()> {
        self.0.write_atomic(p, d)
    }
    fn append_sync(&self, p: &Path, d: &[u8]) -> std::io::Result<()> {
        self.0.append_sync(p, d)
    }
    fn exists(&self, p: &Path) -> bool {
        self.0.exists(p)
    }
    fn create_dir_all(&self, p: &Path) -> std::io::Result<()> {
        self.0.create_dir_all(p)
    }
    fn remove(&self, p: &Path) -> std::io::Result<()> {
        self.0.remove(p)
    }
}

/// Stop the server on every exit path so a failed assertion can never
/// leave the scope join hanging on a blocked acceptor.
struct StopServer<'a> {
    service: &'a DesignService,
    addr: SocketAddr,
}

impl Drop for StopServer<'_> {
    fn drop(&mut self) {
        self.service.request_shutdown();
        for _ in 0..THREADS {
            let _ = TcpStream::connect(self.addr);
        }
    }
}

struct Wire {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    session: String,
    rev: u64,
}

impl Wire {
    fn connect(addr: SocketAddr, session: &str) -> Wire {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(600)))
            .expect("read timeout");
        Wire {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
            session: session.to_string(),
            rev: 0,
        }
    }

    fn rpc(&mut self, line: &str) -> Json {
        self.writer.write_all(line.as_bytes()).expect("send");
        self.writer.write_all(b"\n").expect("send");
        self.writer.flush().expect("flush");
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("recv");
        Json::parse(response.trim_end()).expect("response parses")
    }

    fn tag(resp: &Json) -> &str {
        resp.get("type").and_then(Json::as_str).expect("type")
    }

    fn num(resp: &Json, key: &str) -> u64 {
        resp.get(key).and_then(Json::as_u64).expect("numeric field")
    }

    fn open(&mut self) -> u64 {
        let resp = self.rpc(&format!(
            "{{\"type\":\"open\",\"session\":\"{}\"}}",
            self.session
        ));
        assert_eq!(Self::tag(&resp), "opened");
        self.rev = Self::num(&resp, "rev");
        self.rev
    }

    /// Submit one statement, riding out stale-rev conflicts by adopting
    /// the head rev from the conflict report (unique type names per
    /// client, so a retry can only be accepted).
    fn submit(&mut self, stmt: &str) {
        loop {
            let resp = self.rpc(&format!(
                "{{\"type\":\"submit\",\"session\":\"{}\",\"base_rev\":{},\
                 \"ops\":[{{\"stmt\":\"{stmt}\"}}]}}",
                self.session, self.rev
            ));
            match Self::tag(&resp) {
                "accepted" => {
                    self.rev = Self::num(&resp, "rev");
                    return;
                }
                "conflict" => {
                    self.rev = Self::num(&resp, "rev");
                }
                other => panic!("submit of `{stmt}` got {other}: {resp:?}"),
            }
        }
    }
}

/// Build a service over a fault-injected in-memory session directory,
/// serve it live while concurrent clients stream ops, crash the disk via
/// `plant`, and verify salvage + reattach.
fn crash_and_salvage(plant: impl FnOnce(&FaultIo)) {
    let dir = PathBuf::from("/mem/serve");
    let io = Arc::new(FaultIo::new(MemIo::new()));
    let disk = io.fs().clone();

    let mut session = Session::from_odl(university::SOURCE).expect("schema");
    session.set_io(Box::new(SharedIo(io.clone())));
    session.save(&dir).expect("initial save");
    // Off-request-path checkpoints every 4 accepted ops.
    session.set_checkpoint_interval(Some(4));
    let service = DesignService::new(session);

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");

    // The fault arms AFTER the initial save, so it fires under live load.
    plant(&io);

    let (total_rev, order) = std::thread::scope(|scope| {
        let server = scope.spawn(|| serve::serve(&service, listener, THREADS));
        let _stop = StopServer {
            service: &service,
            addr,
        };

        let handles: Vec<_> = (0..CLIENTS)
            .map(|idx| {
                scope.spawn(move || {
                    let mut wire = Wire::connect(addr, &format!("client{idx}"));
                    wire.open();
                    for i in 0..OPS_PER_CLIENT {
                        wire.submit(&format!("add_type_definition(C{idx}x{i})"));
                    }
                    wire.rev
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client");
        }

        // The in-memory accepted order survives the disk crash; capture it
        // over the wire before shutting down.
        let mut verifier = Wire::connect(addr, "verifier");
        verifier.open();
        let log = verifier.rpc("{\"type\":\"log\",\"session\":\"verifier\",\"since\":0}");
        assert_eq!(Wire::tag(&log), "log");
        let total_rev = Wire::num(&log, "rev");
        let order: Vec<(String, String)> = log
            .get("ops")
            .and_then(Json::as_array)
            .expect("ops")
            .iter()
            .map(|record| {
                (
                    record
                        .get("context")
                        .and_then(Json::as_str)
                        .expect("context")
                        .to_string(),
                    record
                        .get("stmt")
                        .and_then(Json::as_str)
                        .expect("stmt")
                        .to_string(),
                )
            })
            .collect();
        let bye = verifier.rpc("{\"type\":\"shutdown\"}");
        assert_eq!(Wire::tag(&bye), "bye");
        server.join().expect("server thread").expect("serve io");
        (total_rev, order)
    });

    assert_eq!(total_rev as usize, CLIENTS * OPS_PER_CLIENT);
    assert_eq!(order.len() as u64, total_rev);

    // Reboot: flush what the page cache kept, then salvage-load.
    disk.post_crash(42);
    let salvaged = Session::load_with(Box::new(disk.clone()), &dir).expect("salvage load");
    let report = salvaged.recovery().expect("recovery report");
    // A crash may tear the very record being appended. That op was never
    // acknowledged durable (its fsync never ran), so quarantining it is
    // the correct outcome — but the report must then say "torn tail", and
    // at most that one in-flight record may go missing this way.
    if report.data_loss() {
        assert!(
            report.torn_tail,
            "ops dropped without a torn tail: {report:?}"
        );
        assert!(report.ops_dropped <= 1, "{report:?}");
    }
    let salvaged_ops = salvaged.repository().total_ops();
    assert!(
        salvaged_ops <= total_rev,
        "salvage cannot invent ops: {salvaged_ops} > {total_rev}"
    );

    // The salvaged state is a serial replay of exactly the first
    // `salvaged_ops` accepted ops — a clean prefix, nothing torn.
    let mut prefix = Repository::ingest_odl(university::SOURCE).expect("replica");
    for (context, stmt) in &order[..salvaged_ops as usize] {
        let kind = sws_core::ConceptKind::from_tag(context).expect("context tag");
        let op = sws_core::parse_statement(stmt).expect("logged op parses");
        prefix
            .workspace_mut()
            .apply(kind, op)
            .unwrap_or_else(|e| panic!("prefix replay of `{stmt}` failed: {e}"));
    }
    assert_eq!(
        salvaged.repository().custom_schema_odl(),
        prefix.custom_schema_odl(),
        "salvaged state is not the replay of the first {salvaged_ops} accepted ops"
    );

    // Re-serve the salvaged directory: a client reattaches at the salvaged
    // rev and extends the log.
    let service = DesignService::new(salvaged);
    let listener = TcpListener::bind("127.0.0.1:0").expect("rebind");
    let addr = listener.local_addr().expect("addr");
    std::thread::scope(|scope| {
        let server = scope.spawn(|| serve::serve(&service, listener, 1));
        let _stop = StopServer {
            service: &service,
            addr,
        };
        let mut wire = Wire::connect(addr, "client0");
        let rev = wire.open();
        assert_eq!(
            rev, salvaged_ops,
            "reattached session must resume at the salvaged rev"
        );
        wire.submit("add_type_definition(AfterReboot)");
        assert_eq!(wire.rev, salvaged_ops + 1);
        let bye = wire.rpc("{\"type\":\"shutdown\"}");
        assert_eq!(Wire::tag(&bye), "bye");
        server.join().expect("server thread").expect("serve io");
    });
}

#[test]
fn crash_mid_append_salvages_a_prefix_and_reattaches() {
    // Die during the 6th op-log append — mid-traffic, torn tail likely.
    crash_and_salvage(|io| io.crash_on_contains("append /mem/serve/session.ops", 5));
}

#[test]
fn crash_mid_checkpoint_salvages_pre_or_post_state() {
    // Die inside a checkpoint's manifest commit window: each checkpoint
    // touches MANIFEST three times (write temp, sync, rename), so step 4
    // lands inside the second checkpoint under load.
    crash_and_salvage(|io| io.crash_on_contains("MANIFEST", 4));
}

#[test]
fn crash_mid_snapshot_write_keeps_the_old_generation() {
    // Die while the snapshot blob itself is being staged.
    crash_and_salvage(|io| io.crash_on_contains("snapshot", 1));
}

/// A multi-op submit whose second op is rejected must leave the disk
/// untouched: nothing is appended before the whole batch has applied, so
/// there is no rollback rewrite either — and a crash at any point can
/// never surface an op the service refused.
#[test]
fn rejected_batch_never_touches_the_disk() {
    let dir = PathBuf::from("/mem/batch");
    let io = Arc::new(FaultIo::new(MemIo::new()));
    let mut session = Session::from_odl(university::SOURCE).expect("schema");
    session.set_io(Box::new(SharedIo(io.clone())));
    session.save(&dir).expect("initial save");
    let service = DesignService::new(session);
    service.handle(Request::Open {
        session: "c0".into(),
    });
    let pre_batch = service.view().odl.clone();
    let stmt = |s: &str| OpEnvelope {
        context: ConceptKind::WagonWheel,
        statement: s.to_string(),
    };
    io.clear_journal();

    let response = service.handle(Request::Submit {
        session: "c0".into(),
        base_rev: service.view().rev,
        ops: vec![
            stmt("add_type_definition(Fresh)"),
            stmt("add_type_definition(Fresh)"),
        ],
    });
    assert!(
        matches!(response, Response::Rejected { index: 1, .. }),
        "{response:?}"
    );
    let journal = io.journal();
    assert!(
        journal
            .iter()
            .all(|l| !l.starts_with("append") && !l.starts_with("rename")),
        "a rejected batch reached the disk: {journal:#?}"
    );
    assert_eq!(service.view().odl, pre_batch);

    // The directory as it stands loads strictly to the pre-batch export.
    let real = std::env::temp_dir().join(format!("sws_rejected_batch_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&real);
    std::fs::create_dir_all(&real).expect("scratch dir");
    for path in io.fs().paths() {
        if let Ok(name) = path.strip_prefix(&dir) {
            let bytes = io.fs().contents(&path).expect("listed file");
            std::fs::write(real.join(name), bytes).expect("copy out");
        }
    }
    let loaded = Session::load_strict(&real).expect("strict load");
    assert_eq!(loaded.repository().custom_schema_odl(), pre_batch);
    std::fs::remove_dir_all(&real).expect("cleanup");
}
