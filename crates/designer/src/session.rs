//! The interactive design session: concept-schema navigation, operation
//! issuing, feedback, and undo/redo.
//!
//! Undo runs on the workspace's undo journal (one `UndoPatch` per applied
//! op); redo re-applies the logged op. Alias edits, which live outside the
//! op log, keep the previous alias table instead. No step clones the
//! repository.

use std::fmt;
use std::path::{Path, PathBuf};

use sws_core::concept::{ConceptSchema, Decomposition};
use sws_core::consistency::ConsistencyReport;
use sws_core::oplang::parse_statement;
use sws_core::{AliasTable, ConceptKind, Feedback, Mapping, ModOp, OpError};
use sws_odl::OdlError;
use sws_repository::io::{RealIo, RepoIo};
use sws_repository::{append_log_line, CheckpointOutcome, RecoveryReport, RepoError, Repository};

/// Errors surfaced to the designer.
#[derive(Debug)]
pub enum SessionError {
    /// The operation was rejected (permission or constraints).
    Op(OpError),
    /// The statement did not parse.
    Parse(OdlError),
    /// No concept schema with that index.
    NoSuchConcept(usize),
    /// Nothing to undo / redo.
    NothingToUndo,
    /// Nothing to redo.
    NothingToRedo,
    /// Repository persistence failed.
    Repo(RepoError),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Op(e) => write!(f, "{e}"),
            SessionError::Parse(e) => write!(f, "{e}"),
            SessionError::NoSuchConcept(i) => write!(f, "no concept schema #{i}"),
            SessionError::NothingToUndo => f.write_str("nothing to undo"),
            SessionError::NothingToRedo => f.write_str("nothing to redo"),
            SessionError::Repo(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<OpError> for SessionError {
    fn from(e: OpError) -> Self {
        SessionError::Op(e)
    }
}

impl From<OdlError> for SessionError {
    fn from(e: OdlError) -> Self {
        SessionError::Parse(e)
    }
}

impl From<RepoError> for SessionError {
    fn from(e: RepoError) -> Self {
        SessionError::Repo(e)
    }
}

/// One undoable (or redoable) step of a session.
#[derive(Debug)]
enum Edit {
    /// An applied operation, in the context it was issued in. Undo takes
    /// it back through the workspace's undo journal; redo applies it again.
    Op(ConceptKind, ModOp),
    /// An alias edit: the table to swap back in.
    Aliases(AliasTable),
}

/// One interactive design session.
#[derive(Debug)]
pub struct Session {
    repo: Repository,
    context: ConceptKind,
    focus: Option<String>,
    undo_stack: Vec<Edit>,
    redo_stack: Vec<Edit>,
    /// Directory each applied op is durably appended to. Attached by
    /// [`Session::save`] and [`Session::load`]; detached (with a warning)
    /// on the first append failure so a dying disk cannot wedge the REPL.
    autosave_dir: Option<PathBuf>,
    autosave_warning: Option<String>,
    /// What salvage loading found, when this session came from disk.
    recovery: Option<RecoveryReport>,
    /// Storage the session persists through. [`RealIo`] in production;
    /// tests swap in fault-injecting implementations via [`Session::set_io`].
    io: Box<dyn RepoIo>,
    /// Checkpoint every K committed ops (`SWS_CHECKPOINT_INTERVAL` or
    /// `--checkpoint-interval=K`); `None` disables auto-checkpointing.
    checkpoint_interval: Option<u64>,
}

impl Session {
    /// Open a session on a repository. The initial context is a wagon
    /// wheel (the paper: wagon wheels carry most modifications). The
    /// auto-checkpoint interval defaults from `SWS_CHECKPOINT_INTERVAL`.
    pub fn new(repo: Repository) -> Self {
        Session {
            repo,
            context: ConceptKind::WagonWheel,
            focus: None,
            undo_stack: Vec::new(),
            redo_stack: Vec::new(),
            autosave_dir: None,
            autosave_warning: None,
            recovery: None,
            io: Box::new(RealIo),
            checkpoint_interval: std::env::var("SWS_CHECKPOINT_INTERVAL")
                .ok()
                .and_then(|v| v.parse().ok())
                .filter(|&k| k > 0),
        }
    }

    /// Open a session directly on extended-ODL source.
    pub fn from_odl(source: &str) -> Result<Self, SessionError> {
        Ok(Session::new(Repository::ingest_odl(source)?))
    }

    /// The repository (live).
    pub fn repository(&self) -> &Repository {
        &self.repo
    }

    /// The repository, mutably. Changes made through it bypass undo/redo;
    /// register local names with [`Self::set_alias`] to make them undoable.
    pub fn repository_mut(&mut self) -> &mut Repository {
        &mut self.repo
    }

    /// Register a local (display/export) name, keeping the previous alias
    /// table for undo.
    pub fn set_alias(
        &mut self,
        ty: &str,
        member: Option<&str>,
        local: &str,
    ) -> Result<(), SessionError> {
        let previous = self.repo.aliases().clone();
        let result = match member {
            None => self.repo.set_type_alias(ty, local),
            Some(member) => self.repo.set_member_alias(ty, member, local),
        };
        match result {
            Ok(()) => {
                self.undo_stack.push(Edit::Aliases(previous));
                self.redo_stack.clear();
                // Aliases live outside the op log: autosave needs a full
                // rewrite, not an append.
                self.autosave_full();
                Ok(())
            }
            Err(e) => Err(SessionError::Repo(e)),
        }
    }

    /// The current concept-schema context kind.
    pub fn context(&self) -> ConceptKind {
        self.context
    }

    /// The display name of the selected concept schema, if one is selected.
    pub fn focus(&self) -> Option<&str> {
        self.focus.as_deref()
    }

    /// Decompose the current working schema.
    pub fn concepts(&self) -> Decomposition {
        self.repo.workspace().concept_schemas()
    }

    /// Flat, indexed list of all concept schemas (wagon wheels first).
    pub fn concept_list(&self) -> Vec<ConceptSchema> {
        self.concepts().all().cloned().collect()
    }

    /// Select concept schema `index` (from [`Self::concept_list`]); future
    /// operations are issued in its context.
    pub fn select(&mut self, index: usize) -> Result<ConceptSchema, SessionError> {
        let list = self.concept_list();
        let cs = list.get(index).ok_or(SessionError::NoSuchConcept(index))?;
        self.context = cs.kind;
        self.focus = Some(cs.name.clone());
        Ok(cs.clone())
    }

    /// Switch context by kind without selecting a specific concept schema.
    pub fn set_context(&mut self, kind: ConceptKind) {
        self.context = kind;
        self.focus = None;
    }

    /// Issue an already-parsed operation in the current context. With an
    /// autosave directory attached, the applied op is durably appended to
    /// the on-disk log (one fsynced record, not a full rewrite), then the
    /// auto-checkpoint interval is consulted. The append always completes
    /// before any checkpoint starts — a checkpoint's MANIFEST generation
    /// commits with no autosave interleaved into its micro-steps.
    pub fn issue(&mut self, op: ModOp) -> Result<Feedback, SessionError> {
        let feedback = self.apply(self.context, op)?;
        self.redo_stack.clear();
        self.persist_from(self.repo.total_ops() - 1);
        Ok(feedback)
    }

    /// Issue a batch of `(context, op)` pairs atomically. Every op is
    /// applied in memory first; on the first failure the applied prefix is
    /// taken back through the undo journal and `Err((index, error))` is
    /// returned with the disk untouched. Only a batch that applied whole is
    /// appended to the autosave directory (then the auto-checkpoint
    /// interval is consulted, as for [`Self::issue`]).
    pub fn issue_batch(
        &mut self,
        batch: &[(ConceptKind, ModOp)],
    ) -> Result<Vec<Feedback>, (usize, SessionError)> {
        let start = self.repo.total_ops();
        let mut feedback = Vec::with_capacity(batch.len());
        for (i, (context, op)) in batch.iter().enumerate() {
            match self.apply(*context, op.clone()) {
                Ok(fb) => feedback.push(fb),
                Err(e) => {
                    for _ in 0..i {
                        self.repo.undo_last();
                        self.undo_stack.pop();
                    }
                    return Err((i, e));
                }
            }
        }
        self.redo_stack.clear();
        self.persist_from(start);
        Ok(feedback)
    }

    /// Apply one op and record it for undo.
    fn apply(&mut self, context: ConceptKind, op: ModOp) -> Result<Feedback, SessionError> {
        let feedback = self.repo.workspace_mut().apply(context, op.clone())?;
        self.undo_stack.push(Edit::Op(context, op));
        Ok(feedback)
    }

    /// Durably append the in-memory records from global sequence number
    /// `from` onward to the autosave directory, then consult the
    /// auto-checkpoint interval. The first failed append detaches autosave.
    fn persist_from(&mut self, from: u64) {
        let Some(dir) = self.autosave_dir.clone() else {
            return;
        };
        let base = self.repo.base_seq();
        let log = self.repo.workspace().log();
        for (seq, record) in (base..).zip(log).skip((from - base) as usize) {
            if let Err(e) = append_log_line(self.io.as_ref(), &dir, seq, record.context, &record.op)
            {
                self.disable_autosave(&dir, &e);
                return;
            }
        }
        self.maybe_autocheckpoint(&dir);
    }

    /// Checkpoint now, if enough ops accumulated since the last one.
    fn maybe_autocheckpoint(&mut self, dir: &Path) {
        let Some(k) = self.checkpoint_interval else {
            return;
        };
        let pending = self
            .repo
            .total_ops()
            .saturating_sub(self.repo.checkpoint_state().tail_start());
        if pending < k {
            return;
        }
        if let Err(e) = self.repo.checkpoint_with(self.io.as_ref(), dir) {
            // A failed checkpoint never loses committed state (the tail is
            // still intact); warn and keep designing.
            self.autosave_warning = Some(format!(
                "checkpoint to {} failed ({e}); will retry at the next interval",
                dir.display()
            ));
        }
    }

    /// Checkpoint the session directory now: snapshot the working schema,
    /// archive the replayed tail, and truncate the log (see
    /// [`Repository::checkpoint_with`]). Requires an attached directory.
    pub fn checkpoint(&mut self) -> Result<Option<CheckpointOutcome>, SessionError> {
        let dir = self.autosave_dir.clone().ok_or_else(|| {
            SessionError::Repo(RepoError::Io(std::io::Error::other(
                "no session directory attached; `save <dir>` first",
            )))
        })?;
        self.repo
            .checkpoint_with(self.io.as_ref(), &dir)
            .map_err(SessionError::from)
    }

    /// The auto-checkpoint interval (ops between checkpoints), if enabled.
    pub fn checkpoint_interval(&self) -> Option<u64> {
        self.checkpoint_interval
    }

    /// Set (or disable, with `None`) the auto-checkpoint interval.
    pub fn set_checkpoint_interval(&mut self, interval: Option<u64>) {
        self.checkpoint_interval = interval.filter(|&k| k > 0);
    }

    /// Swap the storage implementation (fault injection in tests).
    pub fn set_io(&mut self, io: Box<dyn RepoIo>) {
        self.io = io;
    }

    /// Parse a modification-language statement and issue it.
    pub fn issue_str(&mut self, statement: &str) -> Result<Feedback, SessionError> {
        let op = parse_statement(statement)?;
        self.issue(op)
    }

    /// Undo the last operation or alias edit. Autosave rewrites the whole
    /// directory: undo shortens the op log, which an append cannot express.
    pub fn undo(&mut self) -> Result<(), SessionError> {
        let redo = match self.undo_stack.pop().ok_or(SessionError::NothingToUndo)? {
            op @ Edit::Op(..) => {
                self.repo
                    .undo_last()
                    .expect("every undoable op is in the in-memory log");
                op
            }
            Edit::Aliases(table) => Edit::Aliases(self.repo.replace_aliases(table)),
        };
        self.redo_stack.push(redo);
        self.autosave_full();
        Ok(())
    }

    /// Redo the last undone operation or alias edit. A redone op is
    /// appended to the autosave directory like a freshly issued one.
    pub fn redo(&mut self) -> Result<(), SessionError> {
        match self.redo_stack.pop().ok_or(SessionError::NothingToRedo)? {
            Edit::Op(context, op) => {
                self.apply(context, op)?;
                self.persist_from(self.repo.total_ops() - 1);
            }
            Edit::Aliases(table) => {
                let undo = Edit::Aliases(self.repo.replace_aliases(table));
                self.undo_stack.push(undo);
                self.autosave_full();
            }
        }
        Ok(())
    }

    /// Drop the undo/redo history. Long-running hosts like `swsd serve`
    /// call this after each committed batch: their rollback unit is the
    /// batch, and the per-op history would otherwise accumulate for the
    /// life of the process.
    pub fn clear_history(&mut self) {
        self.undo_stack.clear();
        self.redo_stack.clear();
    }

    /// Derive the mapping report.
    pub fn mapping(&self) -> Mapping {
        self.repo.mapping()
    }

    /// Run the consistency checks.
    pub fn consistency(&self) -> ConsistencyReport {
        self.repo.consistency()
    }

    /// Save the session and attach `dir` for autosave: every subsequently
    /// issued op is durably appended to its on-disk log.
    pub fn save(&mut self, dir: &Path) -> Result<(), SessionError> {
        self.repo.save_with(self.io.as_ref(), dir)?;
        self.autosave_dir = Some(dir.to_path_buf());
        Ok(())
    }

    /// Load a session from disk in salvage mode: damage is repaired and
    /// reported via [`Session::recovery`] rather than failing the load.
    /// The directory is attached for autosave.
    pub fn load(dir: &Path) -> Result<Self, SessionError> {
        let (repo, report) = Repository::load_salvage(dir)?;
        let mut session = Session::new(repo);
        session.autosave_dir = Some(dir.to_path_buf());
        session.recovery = Some(report);
        Ok(session)
    }

    /// Load a session from disk in salvage mode through an explicit
    /// [`RepoIo`] (crash-injection tests restart a "machine" whose disk is
    /// an in-memory image). The directory and I/O are attached for
    /// autosave.
    pub fn load_with(io: Box<dyn RepoIo>, dir: &Path) -> Result<Self, SessionError> {
        let (repo, report) =
            Repository::load_with(io.as_ref(), dir, sws_repository::LoadMode::Salvage)?;
        let mut session = Session::new(repo);
        session.autosave_dir = Some(dir.to_path_buf());
        session.recovery = Some(report);
        session.io = io;
        Ok(session)
    }

    /// Load a session from disk strictly: fail on the first checksum,
    /// parse, or replay inconsistency instead of salvaging.
    pub fn load_strict(dir: &Path) -> Result<Self, SessionError> {
        let mut session = Session::new(Repository::load(dir)?);
        session.autosave_dir = Some(dir.to_path_buf());
        Ok(session)
    }

    /// The salvage report from loading, when this session came from disk.
    pub fn recovery(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// The directory ops are autosaved to, if one is attached.
    pub fn autosave_dir(&self) -> Option<&Path> {
        self.autosave_dir.as_deref()
    }

    /// A pending autosave failure, if one happened; taking it clears it.
    pub fn take_autosave_warning(&mut self) -> Option<String> {
        self.autosave_warning.take()
    }

    /// Write a final full save to the autosave directory, refreshing the
    /// derived files and the manifest after a run of appends.
    pub fn final_save(&mut self) -> Result<(), SessionError> {
        match self.autosave_dir.clone() {
            Some(dir) => self
                .repo
                .save_with(self.io.as_ref(), &dir)
                .map_err(SessionError::from),
            None => Ok(()),
        }
    }

    /// Full-directory autosave (undo/redo/alias paths); best-effort.
    fn autosave_full(&mut self) {
        if let Some(dir) = self.autosave_dir.clone() {
            if let Err(e) = self.repo.save_with(self.io.as_ref(), &dir) {
                self.disable_autosave(&dir, &SessionError::Repo(e));
            }
        }
    }

    fn disable_autosave(&mut self, dir: &Path, cause: &dyn fmt::Display) {
        self.autosave_warning = Some(format!(
            "autosave to {} failed ({cause}); autosave disabled — use `save` to retry",
            dir.display()
        ));
        self.autosave_dir = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sws_model::graph_to_schema;

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

    fn session() -> Session {
        Session::from_odl(SRC).unwrap()
    }

    #[test]
    fn issue_respects_current_context() {
        let mut s = session();
        // Default context: wagon wheel — moves rejected.
        let err = s
            .issue_str("modify_attribute(Employee, badge, Person)")
            .unwrap_err();
        assert!(matches!(
            err,
            SessionError::Op(OpError::NotPermitted { .. })
        ));
        // Switch to the generalization hierarchy: allowed.
        s.set_context(ConceptKind::Generalization);
        s.issue_str("modify_attribute(Employee, badge, Person)")
            .unwrap();
        let person = s
            .repository()
            .workspace()
            .working()
            .type_id("Person")
            .unwrap();
        assert!(s
            .repository()
            .workspace()
            .working()
            .find_attr(person, "badge")
            .is_some());
    }

    #[test]
    fn select_switches_context() {
        let mut s = session();
        let list = s.concept_list();
        let gen_idx = list
            .iter()
            .position(|cs| cs.kind == ConceptKind::Generalization)
            .expect("has a generalization hierarchy");
        let cs = s.select(gen_idx).unwrap();
        assert_eq!(s.context(), ConceptKind::Generalization);
        assert_eq!(s.focus(), Some(cs.name.as_str()));
        assert!(matches!(
            s.select(999),
            Err(SessionError::NoSuchConcept(999))
        ));
    }

    /// Everything a designer can observe of a session state.
    fn observed(s: &Session) -> (String, String, ConsistencyReport) {
        (
            s.repository().custom_schema_local_odl(),
            s.repository().render_log(),
            s.consistency(),
        )
    }

    #[test]
    fn undo_redo_cycle() {
        let mut s = session();
        let mut states = vec![observed(&s)];
        s.issue_str("add_type_definition(Project)").unwrap();
        states.push(observed(&s));
        s.set_alias("Project", None, "Initiative").unwrap();
        states.push(observed(&s));
        s.issue_str("delete_attribute(Employee, badge)").unwrap();
        states.push(observed(&s));

        for i in (0..3).rev() {
            s.undo().unwrap();
            assert_eq!(observed(&s), states[i], "undo back to state {i}");
        }
        assert!(matches!(s.undo(), Err(SessionError::NothingToUndo)));
        for (i, state) in states.iter().enumerate().skip(1) {
            s.redo().unwrap();
            assert_eq!(&observed(&s), state, "redo forward to state {i}");
        }
        assert!(matches!(s.redo(), Err(SessionError::NothingToRedo)));

        // A fresh issue clears whatever was left to redo.
        s.undo().unwrap();
        s.undo().unwrap();
        s.issue_str("add_type_definition(Task)").unwrap();
        assert!(matches!(s.redo(), Err(SessionError::NothingToRedo)));
    }

    #[test]
    fn a_failed_batch_rolls_back_whole() {
        let mut s = session();
        s.issue_str("add_type_definition(Project)").unwrap();
        let before = observed(&s);
        let ww = |stmt: &str| (ConceptKind::WagonWheel, parse_statement(stmt).unwrap());
        let (index, err) = s
            .issue_batch(&[
                ww("add_type_definition(Task)"),
                ww("add_type_definition(Project)"),
            ])
            .unwrap_err();
        assert_eq!(index, 1);
        assert!(matches!(err, SessionError::Op(_)));
        assert_eq!(observed(&s), before);
        // The history is as it was before the batch.
        s.undo().unwrap();
        assert!(matches!(s.undo(), Err(SessionError::NothingToUndo)));
    }

    #[test]
    fn a_loaded_session_has_nothing_to_undo() {
        let mut s = session();
        s.issue_str("add_type_definition(Project)").unwrap();
        let dir = std::env::temp_dir().join(format!("sws_load_undo_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        s.save(&dir).unwrap();
        let mut loaded = Session::load(&dir).unwrap();
        assert!(matches!(loaded.undo(), Err(SessionError::NothingToUndo)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn undo_past_a_checkpoint_still_saves_a_strictly_loadable_directory() {
        let mut s = session();
        s.set_checkpoint_interval(None);
        let dir = std::env::temp_dir().join(format!("sws_undo_ckpt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        s.save(&dir).unwrap();
        let tail_in_range = |s: &Session| {
            let repo = s.repository();
            assert!(
                repo.tail_start() <= repo.total_ops(),
                "tail starts at {} past {} ops",
                repo.tail_start(),
                repo.total_ops()
            );
        };

        s.issue_str("add_type_definition(Project)").unwrap();
        s.issue_str("add_type_definition(Task)").unwrap();
        s.checkpoint().unwrap().expect("two ops to checkpoint");
        tail_in_range(&s);
        s.undo().unwrap();
        tail_in_range(&s);
        s.undo().unwrap();
        tail_in_range(&s);
        s.issue_str("add_type_definition(Sprint)").unwrap();
        tail_in_range(&s);
        s.checkpoint().unwrap().expect("one op to checkpoint");
        tail_in_range(&s);
        s.issue_str("add_type_definition(Epic)").unwrap();
        tail_in_range(&s);
        s.final_save().unwrap();

        let loaded = Session::load_strict(&dir).unwrap();
        assert_eq!(
            loaded.repository().custom_schema_odl(),
            s.repository().custom_schema_odl()
        );
        assert_eq!(loaded.repository().total_ops(), s.repository().total_ops());
        assert_eq!(loaded.repository().total_ops(), 2);
        tail_in_range(&loaded);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_issue_does_not_pollute_undo() {
        let mut s = session();
        assert!(s.issue_str("add_type_definition(Person)").is_err());
        assert!(matches!(s.undo(), Err(SessionError::NothingToUndo)));
    }

    #[test]
    fn parse_errors_surface() {
        let mut s = session();
        assert!(matches!(
            s.issue_str("frobnicate(Person)"),
            Err(SessionError::Parse(_))
        ));
    }

    #[test]
    fn save_load_preserves_session() {
        let mut s = session();
        s.issue_str("add_type_definition(Project)").unwrap();
        let dir = std::env::temp_dir().join(format!("sws_session_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        s.save(&dir).unwrap();
        let loaded = Session::load(&dir).unwrap();
        assert_eq!(
            graph_to_schema(loaded.repository().workspace().working()),
            graph_to_schema(s.repository().workspace().working())
        );
        assert!(loaded.recovery().is_some_and(|r| r.is_clean()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn issue_after_save_appends_durably() {
        let mut s = session();
        let dir = std::env::temp_dir().join(format!("sws_autosave_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        s.save(&dir).unwrap();
        assert_eq!(s.autosave_dir(), Some(dir.as_path()));

        // The op reaches the on-disk log via the append alone — no
        // explicit save between issue and load.
        s.issue_str("add_type_definition(Project)").unwrap();
        assert!(s.take_autosave_warning().is_none());
        let loaded = Session::load(&dir).unwrap();
        assert_eq!(
            graph_to_schema(loaded.repository().workspace().working()),
            graph_to_schema(s.repository().workspace().working())
        );
        // The derived files lag the appended op until a full save; the
        // salvage load regenerates them without data loss.
        assert!(!loaded.recovery().unwrap().data_loss());

        // Undo rewrites the directory (an append cannot shorten the log).
        s.undo().unwrap();
        let reloaded = Session::load(&dir).unwrap();
        assert!(reloaded.recovery().unwrap().is_clean());
        assert_eq!(reloaded.repository().workspace().log().len(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn autosave_failure_disables_itself_with_a_warning() {
        let mut s = session();
        let dir = std::env::temp_dir().join(format!("sws_autosave_gone_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        s.save(&dir).unwrap();
        // Make the directory unusable: a file where the log dir should be.
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::write(&dir, b"not a directory").unwrap();

        s.issue_str("add_type_definition(Project)").unwrap();
        let warning = s.take_autosave_warning().expect("append failure warned");
        assert!(warning.contains("autosave disabled"), "{warning}");
        assert_eq!(s.autosave_dir(), None);
        // Only warned once; the session itself keeps working.
        s.issue_str("add_type_definition(Task)").unwrap();
        assert!(s.take_autosave_warning().is_none());
        std::fs::remove_file(&dir).unwrap();
    }

    #[test]
    fn auto_checkpoint_fires_at_the_interval() {
        let mut s = session();
        s.set_checkpoint_interval(Some(2));
        assert_eq!(s.checkpoint_interval(), Some(2));
        let dir = std::env::temp_dir().join(format!("sws_autockpt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        s.save(&dir).unwrap();

        s.issue_str("add_type_definition(Project)").unwrap();
        assert!(
            !dir.join("snapshot.1").exists(),
            "one op is below the interval"
        );
        s.issue_str("add_type_definition(Task)").unwrap();
        assert!(
            dir.join("snapshot.1").exists(),
            "the second op triggers the checkpoint"
        );
        assert_eq!(
            std::fs::read_to_string(dir.join("session.ops")).unwrap(),
            "",
            "tail truncated after the checkpoint"
        );
        // The next interval counts from the checkpoint, not from zero.
        s.issue_str("add_type_definition(Sprint)").unwrap();
        assert!(!dir.join("snapshot.2").exists());
        s.issue_str("add_type_definition(Epic)").unwrap();
        assert!(dir.join("snapshot.2").exists());

        let loaded = Session::load(&dir).unwrap();
        assert!(loaded.recovery().unwrap().is_clean());
        assert_eq!(
            graph_to_schema(loaded.repository().workspace().working()),
            graph_to_schema(s.repository().workspace().working())
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_commits_with_no_autosave_interleaved() {
        use std::sync::Arc;
        use sws_repository::io::{FaultIo, MemIo};

        // Session owns its RepoIo; share the FaultIo so the test can read
        // the micro-step journal after handing it over.
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

        let io = Arc::new(FaultIo::new(MemIo::new()));
        let mut s = session();
        s.set_io(Box::new(SharedIo(io.clone())));
        s.set_checkpoint_interval(Some(1));
        let dir = PathBuf::from("/mem/session");
        s.save(&dir).unwrap();
        io.clear_journal();

        // One op at interval 1: the durable append must fully commit, then
        // the whole checkpoint runs; its MANIFEST rename is the commit
        // point, and no op-log append may land inside that window.
        s.issue_str("add_type_definition(Project)").unwrap();
        assert!(s.take_autosave_warning().is_none());
        let journal = io.journal();
        let log_append = "append /mem/session/session.ops";
        let append_at = journal
            .iter()
            .position(|l| l == log_append)
            .expect("durable append journaled");
        let snapshot_at = journal
            .iter()
            .position(|l| l.contains("snapshot.1"))
            .expect("snapshot written");
        let manifest_at = journal
            .iter()
            .rposition(|l| l.starts_with("rename") && l.ends_with("/MANIFEST"))
            .expect("manifest committed");
        assert!(
            append_at < snapshot_at,
            "append commits before the checkpoint starts: {journal:#?}"
        );
        assert!(snapshot_at < manifest_at, "{journal:#?}");
        assert!(
            journal[snapshot_at..manifest_at]
                .iter()
                .all(|l| l != log_append),
            "autosave interleaved into the checkpoint commit window: {journal:#?}"
        );
        // The tail truncation (an atomic rewrite, never an append) comes
        // only after the manifest rename committed the generation.
        assert!(
            journal[manifest_at..]
                .iter()
                .any(|l| l.starts_with("rename") && l.ends_with("/session.ops")),
            "{journal:#?}"
        );
    }

    #[test]
    fn strict_load_refuses_a_tampered_directory() {
        let mut s = session();
        let dir = std::env::temp_dir().join(format!("sws_strict_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        s.issue_str("add_type_definition(Project)").unwrap();
        s.save(&dir).unwrap();
        let custom = dir.join(sws_repository::CUSTOM_FILE);
        let mut bytes = std::fs::read(&custom).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&custom, &bytes).unwrap();

        assert!(matches!(
            Session::load_strict(&dir),
            Err(SessionError::Repo(RepoError::Corrupt { .. }))
        ));
        // Salvage mode loads, reports, and heals the same directory.
        let loaded = Session::load(&dir).unwrap();
        let report = loaded.recovery().unwrap();
        assert!(!report.is_clean());
        assert!(!report.data_loss());
        assert!(Session::load_strict(&dir).is_ok(), "healed on first load");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
