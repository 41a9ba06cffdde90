//! The transport-agnostic design service: many named client sessions
//! editing one repository under **optimistic concurrency**.
//!
//! [`DesignService`] wraps a [`Session`] behind a typed [`Request`] /
//! [`Response`] API. Every mutating request carries a `base_rev` — the
//! accepted-op total-order length (`Repository::total_ops`) the client
//! issued it against. A submit at the current head applies atomically and
//! advances the revision; a stale submit is never applied — it gets a
//! structured [`Response::Conflict`] carrying the **delta** of accepted
//! ops since `base_rev`, plus a commutation-based classification (the
//! `crates/analyze` footprint machinery) of whether the client can rebase
//! mechanically (`auto_rebasable`) or has a true conflict to resolve.
//!
//! Concurrency contract:
//!
//! * **Mutations are totally ordered.** `submit` and `checkpoint` take the
//!   core lock; the accepted-op log is the single serialization point, so
//!   a serial replay of the log always reproduces the live state. A batch
//!   applies whole in memory before any of it is appended to disk; a
//!   rejected batch is rolled back through the undo journal and never
//!   touches the disk.
//! * **Reads never take the core lock.** `report`, `export`, `log`,
//!   `lint`, and `ping` are served from an immutable [`ReadView`] snapshot
//!   (swapped atomically after each accepted mutation), so any number of
//!   sessions can read concurrently while another writes. `lint` (and
//!   the conflict check) analyze in place on the view's own graph copy
//!   under its mutex, so concurrent lints of one view take turns.
//! * **Checkpointing stays off the request path.** A submit never
//!   checkpoints inline; [`DesignService::maintain`] — called by the
//!   server *after* the response is written — compacts once enough ops
//!   accumulate (see `docs/serve.md`).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

use sws_analyze::{analyze_ops_in, commutes, footprint, LintReport};
use sws_core::oplang::{parse_statement, print_op};
use sws_core::{ConceptKind, ModOp};
use sws_model::SchemaGraph;

use crate::session::{Session, SessionError};

/// One operation inside a submit or lint batch: the concept-schema
/// context it is issued in, plus the op-language statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpEnvelope {
    pub context: ConceptKind,
    pub statement: String,
}

/// One accepted operation in the total order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// Position in the accepted total order (== the `base_rev` a client
    /// must submit with to extend the log right after this op).
    pub seq: u64,
    /// The client session that submitted it.
    pub session: String,
    pub context: ConceptKind,
    /// `print_op` rendering; parses back with `parse_statement`.
    pub statement: String,
}

/// Why a stale submit could not be classified as auto-rebasable: the
/// submitted op and an accepted delta op have overlapping footprints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConflictHint {
    /// Index into the submitted batch.
    pub op: usize,
    /// Sequence number of the conflicting accepted op.
    pub seq: u64,
    pub reason: String,
}

/// One static-analysis finding, flattened for the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintFinding {
    pub index: usize,
    pub code: String,
    pub severity: String,
    pub message: String,
}

/// Machine-readable error classes (the `code` field of
/// [`Response::Error`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame was not a well-formed request (bad JSON, missing or
    /// ill-typed fields, unknown request type).
    MalformedFrame,
    /// The named session was never opened.
    UnknownSession,
    /// Structurally valid but unserviceable (e.g. `base_rev` ahead of the
    /// head, or a lint batch that does not parse).
    BadRequest,
    /// `base_rev` predates what this server still holds a delta for; the
    /// client must re-open and resync.
    DeltaHorizon,
    /// A frame ran past the server's size cap (`serve::MAX_FRAME_BYTES`);
    /// the connection is closed after this refusal.
    FrameTooLarge,
}

impl ErrorCode {
    pub fn tag(self) -> &'static str {
        match self {
            ErrorCode::MalformedFrame => "malformed_frame",
            ErrorCode::UnknownSession => "unknown_session",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::DeltaHorizon => "delta_horizon",
            ErrorCode::FrameTooLarge => "frame_too_large",
        }
    }
}

/// A request to the design service. See `docs/serve.md` for the wire
/// encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Open (or re-attach to) a named session; returns the current rev.
    Open { session: String },
    /// Apply an op batch atomically, issued against `base_rev`.
    Submit {
        session: String,
        base_rev: u64,
        ops: Vec<OpEnvelope>,
    },
    /// Statically analyze a batch against the current head (never applies).
    Lint {
        session: String,
        ops: Vec<OpEnvelope>,
    },
    /// Summary of the current design state.
    Report { session: String },
    /// The custom schema as extended ODL.
    Export { session: String },
    /// The accepted-op total order from `since` (a rev) to the head.
    Log { session: String, since: u64 },
    /// Force a checkpoint of the attached session directory.
    Checkpoint { session: String },
    /// Liveness probe.
    Ping,
    /// Stop serving; the server flushes autosave and exits cleanly.
    Shutdown,
}

/// A response from the design service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    Opened {
        session: String,
        rev: u64,
        types: usize,
        concepts: usize,
    },
    /// The whole batch applied; the head moved from `base_rev` to `rev`.
    Accepted {
        session: String,
        base_rev: u64,
        rev: u64,
        applied: usize,
        warnings: Vec<String>,
    },
    /// Stale `base_rev`: nothing applied. `delta` holds every accepted op
    /// in `[base_rev, rev)`; `auto_rebasable` is true when every submitted
    /// op commutes with every delta op *and* the batch still passes the
    /// static analyzer at the current head.
    Conflict {
        session: String,
        base_rev: u64,
        rev: u64,
        auto_rebasable: bool,
        delta: Vec<LogRecord>,
        conflicts: Vec<ConflictHint>,
    },
    /// The batch was rejected at `index` (parse error or the executor's
    /// permission/precondition pipeline); **nothing** was applied.
    Rejected {
        session: String,
        rev: u64,
        index: usize,
        error: String,
    },
    Linted {
        rev: u64,
        ops: usize,
        passes: bool,
        findings: Vec<LintFinding>,
    },
    Reported {
        rev: u64,
        types: usize,
        concepts: usize,
        errors: usize,
        warnings: usize,
    },
    Exported {
        rev: u64,
        odl: String,
    },
    LogSlice {
        rev: u64,
        since: u64,
        ops: Vec<LogRecord>,
    },
    Checkpointed {
        rev: u64,
        generation: Option<u64>,
        ops_covered: u64,
    },
    Pong {
        rev: u64,
        sessions: usize,
    },
    Bye,
    Error {
        code: ErrorCode,
        message: String,
    },
}

impl Response {
    /// The wire tag (the `type` field).
    pub fn tag(&self) -> &'static str {
        match self {
            Response::Opened { .. } => "opened",
            Response::Accepted { .. } => "accepted",
            Response::Conflict { .. } => "conflict",
            Response::Rejected { .. } => "rejected",
            Response::Linted { .. } => "linted",
            Response::Reported { .. } => "reported",
            Response::Exported { .. } => "exported",
            Response::LogSlice { .. } => "log",
            Response::Checkpointed { .. } => "checkpointed",
            Response::Pong { .. } => "pong",
            Response::Bye => "bye",
            Response::Error { .. } => "error",
        }
    }
}

/// The immutable read snapshot: refreshed under the core lock after every
/// accepted mutation, read lock-free(ish) by any number of sessions.
#[derive(Debug)]
pub struct ReadView {
    pub rev: u64,
    pub types: usize,
    pub concepts: usize,
    /// `Repository::custom_schema_odl` of the head state.
    pub odl: String,
    /// Cross-schema consistency error / warning counts at the head.
    pub errors: usize,
    pub warnings: usize,
    /// The view's own copy of the head working graph. Lint and the
    /// conflict check analyze in place on it (apply, then roll back the
    /// undo journal); the mutex serializes those analyses.
    pub working: Mutex<SchemaGraph>,
    /// The immutable shrink-wrap schema.
    pub shrink: Arc<SchemaGraph>,
}

#[derive(Debug, Clone, Copy)]
struct SessionMeta {
    /// The head rev when the session was (first) opened; reattaching keeps
    /// the original. Exposed via [`DesignService::opened_rev`].
    opened_rev: u64,
}

struct Core {
    session: Session,
}

/// The service. See the module docs for the locking contract; lock order
/// is always `sessions` → `core` → `log` → `view` → the view's `working`.
pub struct DesignService {
    sessions: RwLock<HashMap<String, SessionMeta>>,
    core: Mutex<Core>,
    log: RwLock<Vec<LogRecord>>,
    view: RwLock<Arc<ReadView>>,
    /// First rev this service holds a delta from (the repository may have
    /// ops from before the service started; those are behind the horizon).
    start_rev: u64,
    /// Checkpoint every K accepted ops, off the request path (taken from
    /// the session's interval at construction; the session's own inline
    /// auto-checkpointing is disabled).
    checkpoint_every: Option<u64>,
    /// Accepted ops since the last checkpoint — lets [`Self::maintain`]
    /// bail out without touching the core lock.
    ops_since_checkpoint: AtomicU64,
    shutdown: AtomicBool,
}

impl std::fmt::Debug for DesignService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DesignService")
            .field("start_rev", &self.start_rev)
            .field("checkpoint_every", &self.checkpoint_every)
            .finish_non_exhaustive()
    }
}

fn lock_core(core: &Mutex<Core>) -> MutexGuard<'_, Core> {
    // A panic while applying an op leaves the repository on its pre-op
    // state (apply is transactional); serving must survive it.
    core.lock().unwrap_or_else(PoisonError::into_inner)
}

impl DesignService {
    /// Wrap a session. The session's inline auto-checkpoint interval (if
    /// any) moves to the service's off-request-path maintenance.
    pub fn new(mut session: Session) -> Self {
        let checkpoint_every = session.checkpoint_interval();
        session.set_checkpoint_interval(None);
        let start_rev = session.repository().total_ops();
        let view = Arc::new(Self::snapshot(&session));
        DesignService {
            sessions: RwLock::new(HashMap::new()),
            core: Mutex::new(Core { session }),
            log: RwLock::new(Vec::new()),
            view: RwLock::new(view),
            start_rev,
            checkpoint_every,
            ops_since_checkpoint: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        }
    }

    fn snapshot(session: &Session) -> ReadView {
        let repo = session.repository();
        let consistency = repo.consistency();
        ReadView {
            rev: repo.total_ops(),
            types: repo.workspace().working().type_count(),
            concepts: session.concept_list().len(),
            odl: repo.custom_schema_odl(),
            errors: consistency.errors().count(),
            warnings: consistency.warnings().count(),
            working: Mutex::new(repo.workspace().working().clone()),
            shrink: Arc::new(repo.workspace().shrink_wrap().clone()),
        }
    }

    /// Analyze `script` against the head in place on the read view's
    /// graph. Never takes the core lock and never clones a graph.
    fn analyze(view: &ReadView, script: &[(ConceptKind, ModOp)]) -> LintReport {
        // A panicking analysis rolls its journal back while unwinding, so
        // a poisoned lock still guards an intact graph.
        let mut working = view.working.lock().unwrap_or_else(PoisonError::into_inner);
        analyze_ops_in(&mut working, &view.shrink, script)
    }

    /// The current read snapshot.
    pub fn view(&self) -> Arc<ReadView> {
        self.view
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    fn refresh_view(&self, core: &Core) {
        let fresh = Arc::new(Self::snapshot(&core.session));
        *self.view.write().unwrap_or_else(PoisonError::into_inner) = fresh;
    }

    /// Has a shutdown been requested (by a `shutdown` frame or
    /// [`Self::request_shutdown`])?
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Ask the server loop to stop after in-flight requests.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Handle one request. The single entry point for every transport.
    pub fn handle(&self, request: Request) -> Response {
        let mut sp = sws_trace::span!("serve.request");
        sws_trace::counter("serve.requests", 1);
        let response = match request {
            Request::Open { session } => self.open(session),
            Request::Submit {
                session,
                base_rev,
                ops,
            } => self.submit(&session, base_rev, &ops),
            Request::Lint { session, ops } => self.lint(&session, &ops),
            Request::Report { session } => self.report(&session),
            Request::Export { session } => self.export(&session),
            Request::Log { session, since } => self.log_slice(&session, since),
            Request::Checkpoint { session } => self.checkpoint(&session),
            Request::Ping => self.ping(),
            Request::Shutdown => {
                self.request_shutdown();
                Response::Bye
            }
        };
        sp.record("type", response.tag());
        response
    }

    /// Checkpoint the attached session directory if enough ops accumulated
    /// since the last one. Called by the server *after* a response is
    /// written, so compaction cost never lands on a request's latency.
    /// Returns true when a checkpoint was committed.
    pub fn maintain(&self) -> bool {
        let Some(k) = self.checkpoint_every else {
            return false;
        };
        if self.ops_since_checkpoint.load(Ordering::Relaxed) < k {
            return false;
        }
        let mut core = lock_core(&self.core);
        if core.session.autosave_dir().is_none() {
            return false;
        }
        let pending = {
            let repo = core.session.repository();
            repo.total_ops()
                .saturating_sub(repo.checkpoint_state().tail_start())
        };
        if pending < k {
            self.ops_since_checkpoint.store(pending, Ordering::Relaxed);
            return false;
        }
        match core.session.checkpoint() {
            Ok(Some(_)) => {
                sws_trace::counter("serve.checkpoints", 1);
                self.ops_since_checkpoint.store(0, Ordering::Relaxed);
                true
            }
            Ok(None) => {
                self.ops_since_checkpoint.store(0, Ordering::Relaxed);
                false
            }
            Err(_) => {
                // A failed checkpoint never loses committed state; retry
                // at the next maintenance pass.
                sws_trace::counter("serve.checkpoint_failures", 1);
                false
            }
        }
    }

    /// Flush a final full save to the attached directory (clean shutdown).
    pub fn final_save(&self) -> Result<(), SessionError> {
        lock_core(&self.core).session.final_save()
    }

    /// Run `f` against the live session under the core lock (test and
    /// integration hook — e.g. to read the salvage report or swap I/O).
    pub fn with_session<R>(&self, f: impl FnOnce(&mut Session) -> R) -> R {
        f(&mut lock_core(&self.core).session)
    }

    fn open(&self, session: String) -> Response {
        let view = self.view();
        let mut sessions = self
            .sessions
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        let fresh = !sessions.contains_key(&session);
        sessions.entry(session.clone()).or_insert(SessionMeta {
            opened_rev: view.rev,
        });
        if fresh {
            sws_trace::counter("serve.sessions_opened", 1);
        }
        Response::Opened {
            session,
            rev: view.rev,
            types: view.types,
            concepts: view.concepts,
        }
    }

    /// The head rev at the session's first `open`, if it is open at all.
    pub fn opened_rev(&self, session: &str) -> Option<u64> {
        self.sessions
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(session)
            .map(|meta| meta.opened_rev)
    }

    fn known(&self, session: &str) -> bool {
        self.sessions
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .contains_key(session)
    }

    fn unknown_session(session: &str) -> Response {
        Response::Error {
            code: ErrorCode::UnknownSession,
            message: format!("session `{session}` is not open (send an `open` frame first)"),
        }
    }

    /// Parse a batch; `Err` carries the failing index and message.
    fn parse_batch(ops: &[OpEnvelope]) -> Result<Vec<(ConceptKind, ModOp)>, (usize, String)> {
        ops.iter()
            .enumerate()
            .map(|(i, env)| {
                parse_statement(&env.statement)
                    .map(|op| (env.context, op))
                    .map_err(|e| (i, format!("ops[{i}]: {e}")))
            })
            .collect()
    }

    fn submit(&self, session: &str, base_rev: u64, ops: &[OpEnvelope]) -> Response {
        if !self.known(session) {
            return Self::unknown_session(session);
        }
        let script = match Self::parse_batch(ops) {
            Ok(s) => s,
            Err((index, error)) => {
                sws_trace::counter("serve.rejected", 1);
                return Response::Rejected {
                    session: session.to_string(),
                    rev: self.view().rev,
                    index,
                    error,
                };
            }
        };

        let mut core = lock_core(&self.core);
        let rev = core.session.repository().total_ops();
        if base_rev > rev {
            return Response::Error {
                code: ErrorCode::BadRequest,
                message: format!("base_rev {base_rev} is ahead of the head (rev {rev})"),
            };
        }
        if base_rev < rev {
            return self.conflict(session, base_rev, rev, ops, &script);
        }

        // At the head: apply atomically. Any failure rolls the applied
        // prefix back in memory before anything reaches the disk, so a
        // `rejected` response always means "nothing happened".
        let feedback = match core.session.issue_batch(&script) {
            Ok(feedback) => feedback,
            Err((index, e)) => {
                sws_trace::counter("serve.rejected", 1);
                return Response::Rejected {
                    session: session.to_string(),
                    rev,
                    index,
                    error: e.to_string(),
                };
            }
        };
        let mut warnings: Vec<String> = feedback
            .iter()
            .enumerate()
            .flat_map(|(i, fb)| fb.warnings.iter().map(move |w| format!("ops[{i}]: {w}")))
            .collect();
        if let Some(w) = core.session.take_autosave_warning() {
            warnings.push(format!("autosave: {w}"));
        }
        // The batch is in; drop the per-op undo history (the service's
        // only rollback unit is the batch) and publish.
        core.session.clear_history();
        {
            let mut log = self.log.write().unwrap_or_else(PoisonError::into_inner);
            for (i, (context, op)) in script.iter().enumerate() {
                log.push(LogRecord {
                    seq: rev + i as u64,
                    session: session.to_string(),
                    context: *context,
                    statement: print_op(op),
                });
            }
        }
        self.ops_since_checkpoint
            .fetch_add(script.len() as u64, Ordering::Relaxed);
        sws_trace::counter("serve.ops_accepted", script.len() as u64);
        self.refresh_view(&core);
        Response::Accepted {
            session: session.to_string(),
            base_rev,
            rev: rev + script.len() as u64,
            applied: script.len(),
            warnings,
        }
    }

    /// Build the conflict report for a stale submit: the delta since
    /// `base_rev`, pairwise commutation hints, and the auto-rebasable
    /// verdict. Nothing is applied. Called under the core lock, so the read
    /// view is the head.
    fn conflict(
        &self,
        session: &str,
        base_rev: u64,
        rev: u64,
        ops: &[OpEnvelope],
        script: &[(ConceptKind, ModOp)],
    ) -> Response {
        if base_rev < self.start_rev {
            return Response::Error {
                code: ErrorCode::DeltaHorizon,
                message: format!(
                    "base_rev {base_rev} predates this server's log horizon ({}); \
                     re-open the session and resync",
                    self.start_rev
                ),
            };
        }
        let delta: Vec<LogRecord> = {
            let log = self.log.read().unwrap_or_else(PoisonError::into_inner);
            let from = (base_rev - self.start_rev) as usize;
            log[from..].to_vec()
        };
        let mut conflicts = Vec::new();
        for (i, (_, op)) in script.iter().enumerate() {
            let fp = footprint(op);
            for record in &delta {
                let accepted = parse_statement(&record.statement)
                    .expect("accepted log statements round-trip through print_op");
                if !commutes(&fp, &footprint(&accepted)) {
                    conflicts.push(ConflictHint {
                        op: i,
                        seq: record.seq,
                        reason: format!(
                            "`{}` does not commute with accepted #{} `{}`",
                            ops[i].statement, record.seq, record.statement
                        ),
                    });
                }
            }
        }
        // Auto-rebasable = order-independent (everything commutes) and the
        // analyzer proves the batch still applies cleanly at the head.
        let auto_rebasable = conflicts.is_empty() && Self::analyze(&self.view(), script).passes();
        sws_trace::counter("serve.conflicts", 1);
        if auto_rebasable {
            sws_trace::counter("serve.rebase_auto", 1);
        } else {
            sws_trace::counter("serve.rebase_manual", 1);
        }
        Response::Conflict {
            session: session.to_string(),
            base_rev,
            rev,
            auto_rebasable,
            delta,
            conflicts,
        }
    }

    fn lint(&self, session: &str, ops: &[OpEnvelope]) -> Response {
        if !self.known(session) {
            return Self::unknown_session(session);
        }
        let script = match Self::parse_batch(ops) {
            Ok(s) => s,
            Err((_, error)) => {
                return Response::Error {
                    code: ErrorCode::BadRequest,
                    message: error,
                }
            }
        };
        let view = self.view();
        let report = Self::analyze(&view, &script);
        Response::Linted {
            rev: view.rev,
            ops: script.len(),
            passes: report.passes(),
            findings: report
                .findings
                .iter()
                .map(|f| LintFinding {
                    index: f.index,
                    code: f.code.to_string(),
                    severity: format!("{:?}", f.severity).to_lowercase(),
                    message: f.message.clone(),
                })
                .collect(),
        }
    }

    fn report(&self, session: &str) -> Response {
        if !self.known(session) {
            return Self::unknown_session(session);
        }
        let view = self.view();
        Response::Reported {
            rev: view.rev,
            types: view.types,
            concepts: view.concepts,
            errors: view.errors,
            warnings: view.warnings,
        }
    }

    fn export(&self, session: &str) -> Response {
        if !self.known(session) {
            return Self::unknown_session(session);
        }
        let view = self.view();
        Response::Exported {
            rev: view.rev,
            odl: view.odl.clone(),
        }
    }

    fn log_slice(&self, session: &str, since: u64) -> Response {
        if !self.known(session) {
            return Self::unknown_session(session);
        }
        let view = self.view();
        if since > view.rev {
            return Response::Error {
                code: ErrorCode::BadRequest,
                message: format!("since {since} is ahead of the head (rev {})", view.rev),
            };
        }
        if since < self.start_rev {
            return Response::Error {
                code: ErrorCode::DeltaHorizon,
                message: format!(
                    "since {since} predates this server's log horizon ({})",
                    self.start_rev
                ),
            };
        }
        let ops: Vec<LogRecord> = {
            let log = self.log.read().unwrap_or_else(PoisonError::into_inner);
            let from = (since - self.start_rev) as usize;
            // The view can trail the log by an in-flight publish; slice to
            // the view's rev so `rev` and `ops` are mutually consistent.
            let to = ((view.rev - self.start_rev) as usize).min(log.len());
            log[from.min(to)..to].to_vec()
        };
        Response::LogSlice {
            rev: view.rev,
            since,
            ops,
        }
    }

    fn checkpoint(&self, session: &str) -> Response {
        if !self.known(session) {
            return Self::unknown_session(session);
        }
        let mut core = lock_core(&self.core);
        if core.session.autosave_dir().is_none() {
            return Response::Error {
                code: ErrorCode::BadRequest,
                message: "no session directory attached; serve with --session <dir>".to_string(),
            };
        }
        let rev = core.session.repository().total_ops();
        match core.session.checkpoint() {
            Ok(Some(outcome)) => {
                sws_trace::counter("serve.checkpoints", 1);
                self.ops_since_checkpoint.store(0, Ordering::Relaxed);
                Response::Checkpointed {
                    rev,
                    generation: Some(outcome.generation),
                    ops_covered: outcome.ops_covered,
                }
            }
            Ok(None) => Response::Checkpointed {
                rev,
                generation: None,
                ops_covered: 0,
            },
            Err(e) => Response::Error {
                code: ErrorCode::BadRequest,
                message: format!("checkpoint failed: {e}"),
            },
        }
    }

    fn ping(&self) -> Response {
        let view = self.view();
        let sessions = self
            .sessions
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len();
        Response::Pong {
            rev: view.rev,
            sessions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
    schema Dept {
        interface Person { attribute string name; }
        interface Employee : Person {
            attribute long badge;
            relationship Department works_in_a inverse Department::has;
        }
        interface Department {
            relationship set<Employee> has inverse Employee::works_in_a;
        }
    }"#;

    fn service() -> DesignService {
        DesignService::new(Session::from_odl(SRC).expect("test schema parses"))
    }

    fn wagon(stmt: &str) -> OpEnvelope {
        OpEnvelope {
            context: ConceptKind::WagonWheel,
            statement: stmt.to_string(),
        }
    }

    fn open(svc: &DesignService, name: &str) -> u64 {
        match svc.handle(Request::Open {
            session: name.to_string(),
        }) {
            Response::Opened { rev, .. } => rev,
            other => panic!("open: {other:?}"),
        }
    }

    #[test]
    fn open_submit_advances_rev() {
        let svc = service();
        let rev = open(&svc, "alice");
        assert_eq!(rev, 0);
        let resp = svc.handle(Request::Submit {
            session: "alice".into(),
            base_rev: 0,
            ops: vec![wagon("add_type_definition(Project)")],
        });
        match resp {
            Response::Accepted {
                rev, applied: 1, ..
            } => assert_eq!(rev, 1),
            other => panic!("submit: {other:?}"),
        }
        assert_eq!(svc.view().rev, 1);
        assert!(svc.view().odl.contains("Project"));
    }

    #[test]
    fn unknown_session_is_an_error() {
        let svc = service();
        let resp = svc.handle(Request::Report {
            session: "ghost".into(),
        });
        assert!(matches!(
            resp,
            Response::Error {
                code: ErrorCode::UnknownSession,
                ..
            }
        ));
    }

    #[test]
    fn stale_submit_conflicts_with_delta_and_commute_classification() {
        let svc = service();
        open(&svc, "alice");
        open(&svc, "bob");
        // Alice moves the head to 1.
        svc.handle(Request::Submit {
            session: "alice".into(),
            base_rev: 0,
            ops: vec![wagon("add_type_definition(Project)")],
        });
        // Bob submits against rev 0: a disjoint op — auto-rebasable.
        let resp = svc.handle(Request::Submit {
            session: "bob".into(),
            base_rev: 0,
            ops: vec![wagon("add_type_definition(Task)")],
        });
        match resp {
            Response::Conflict {
                base_rev,
                rev,
                auto_rebasable,
                delta,
                conflicts,
                ..
            } => {
                assert_eq!((base_rev, rev), (0, 1));
                assert!(auto_rebasable, "disjoint adds commute");
                assert!(conflicts.is_empty());
                assert_eq!(delta.len(), 1);
                assert_eq!(delta[0].statement, "add_type_definition(Project)");
                assert_eq!(delta[0].session, "alice");
            }
            other => panic!("expected conflict: {other:?}"),
        }
        // Bob rebases: resubmits at the head; nothing was applied before.
        let resp = svc.handle(Request::Submit {
            session: "bob".into(),
            base_rev: 1,
            ops: vec![wagon("add_type_definition(Task)")],
        });
        assert!(matches!(resp, Response::Accepted { rev: 2, .. }));

        // A true conflict: both touch the same attribute.
        svc.handle(Request::Submit {
            session: "alice".into(),
            base_rev: 2,
            ops: vec![wagon("delete_attribute(Employee, badge)")],
        });
        let resp = svc.handle(Request::Submit {
            session: "bob".into(),
            base_rev: 2,
            ops: vec![wagon("delete_attribute(Employee, badge)")],
        });
        match resp {
            Response::Conflict {
                auto_rebasable,
                conflicts,
                ..
            } => {
                assert!(!auto_rebasable, "same-construct delete is a true conflict");
                assert_eq!(conflicts.len(), 1);
                assert_eq!(conflicts[0].op, 0);
                assert_eq!(conflicts[0].seq, 2);
            }
            other => panic!("expected conflict: {other:?}"),
        }
    }

    #[test]
    fn rejected_batch_applies_nothing() {
        let svc = service();
        open(&svc, "alice");
        let before = svc.view().odl.clone();
        // Second op fails preconditions (duplicate type): atomic rollback.
        let resp = svc.handle(Request::Submit {
            session: "alice".into(),
            base_rev: 0,
            ops: vec![
                wagon("add_type_definition(Project)"),
                wagon("add_type_definition(Person)"),
            ],
        });
        match resp {
            Response::Rejected { rev, index, .. } => {
                assert_eq!(rev, 0);
                assert_eq!(index, 1);
            }
            other => panic!("expected rejected: {other:?}"),
        }
        assert_eq!(svc.view().rev, 0);
        assert_eq!(svc.view().odl, before, "rollback restored the head");
        // The log recorded nothing.
        match svc.handle(Request::Log {
            session: "alice".into(),
            since: 0,
        }) {
            Response::LogSlice { ops, .. } => assert!(ops.is_empty()),
            other => panic!("log: {other:?}"),
        }
    }

    #[test]
    fn log_slice_replays_to_the_exported_state() {
        let svc = service();
        open(&svc, "alice");
        for stmt in [
            "add_type_definition(Project)",
            "add_attribute(Project, long, budget)",
            "delete_attribute(Employee, badge)",
        ] {
            let rev = svc.view().rev;
            let resp = svc.handle(Request::Submit {
                session: "alice".into(),
                base_rev: rev,
                ops: vec![wagon(stmt)],
            });
            assert!(
                matches!(resp, Response::Accepted { .. }),
                "{stmt}: {resp:?}"
            );
        }
        let (odl, records) = match (
            svc.handle(Request::Export {
                session: "alice".into(),
            }),
            svc.handle(Request::Log {
                session: "alice".into(),
                since: 0,
            }),
        ) {
            (Response::Exported { odl, .. }, Response::LogSlice { ops, .. }) => (odl, ops),
            other => panic!("{other:?}"),
        };
        assert_eq!(records.len(), 3);
        // Serial replay of the accepted total order reproduces the export
        // byte-for-byte.
        let mut replay = sws_repository::Repository::ingest_odl(SRC).expect("test schema parses");
        for record in &records {
            let op = parse_statement(&record.statement).expect("log statements parse");
            replay
                .workspace_mut()
                .apply(record.context, op)
                .expect("accepted ops replay cleanly");
        }
        assert_eq!(replay.custom_schema_odl(), odl);
    }

    #[test]
    fn lint_never_mutates() {
        let svc = service();
        open(&svc, "alice");
        let resp = svc.handle(Request::Lint {
            session: "alice".into(),
            ops: vec![wagon("delete_attribute(Employee, nonexistent)")],
        });
        match resp {
            Response::Linted {
                passes, findings, ..
            } => {
                assert!(!passes);
                assert!(!findings.is_empty());
            }
            other => panic!("lint: {other:?}"),
        }
        assert_eq!(svc.view().rev, 0);
    }

    #[test]
    fn shutdown_flag_and_ping() {
        let svc = service();
        assert!(matches!(
            svc.handle(Request::Ping),
            Response::Pong {
                rev: 0,
                sessions: 0
            }
        ));
        assert!(!svc.is_shutdown());
        assert!(matches!(svc.handle(Request::Shutdown), Response::Bye));
        assert!(svc.is_shutdown());
    }

    #[test]
    fn base_rev_ahead_of_head_is_bad_request() {
        let svc = service();
        open(&svc, "alice");
        let resp = svc.handle(Request::Submit {
            session: "alice".into(),
            base_rev: 99,
            ops: vec![wagon("add_type_definition(Project)")],
        });
        assert!(matches!(
            resp,
            Response::Error {
                code: ErrorCode::BadRequest,
                ..
            }
        ));
    }
}
