//! The design workspace: the integrated, customized user schema under
//! design, plus the full apply pipeline (Fig. 1 of the paper).
//!
//! A [`Workspace`] holds
//!
//! * the immutable **shrink wrap schema** (the reference for semantic
//!   stability and for the mapping),
//! * the **working schema** — the integrated, customized user schema all
//!   concept-schema modifications land in,
//! * the **operation log** — every applied operation with its
//!   concept-schema context and impact, replayable and persistable.
//!
//! Applying an operation runs the pipeline: permission check (Table 1) →
//! precondition constraints → mutation + propagation → cautionary feedback.
//!
//! Two incremental structures ride along (see `docs/performance.md`):
//!
//! * an **undo log** of [`UndoPatch`]es, one per applied operation, so
//!   rejection cleanup, [`Workspace::undo_last`] and [`Workspace::reset`]
//!   replay inverse images instead of cloning the whole graph;
//! * a [`ConsistencyState`] holding per-type consistency findings, kept
//!   current incrementally from each operation's
//!   [`DirtySet`](crate::impact::DirtySet). Consistency maintenance is
//!   *lazy*: [`Workspace::consistency`] syncs on demand, so a whole
//!   [`Workspace::apply_script`] batch is verified once at the next read,
//!   not once per operation.

use crate::concept::{decompose, ConceptKind, Decomposition};
use crate::consistency::{ConsistencyReport, ConsistencyState};
use crate::constraints::check_preconditions;
use crate::feedback::{cautionary, Feedback};
use crate::impact::{DirtySet, ImpactReport};
use crate::ops::apply::apply_op;
use crate::ops::{ModOp, OpError, PermissionMatrix};
use std::cell::RefCell;
use sws_model::{SchemaGraph, UndoPatch};

/// One log record: an operation that was applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppliedOp {
    /// The operation.
    pub op: ModOp,
    /// The concept-schema context it was issued in.
    pub context: ConceptKind,
    /// The propagation it triggered.
    pub impact: ImpactReport,
}

/// The design workspace. See the module docs.
#[derive(Debug, Clone)]
pub struct Workspace {
    shrink_wrap: SchemaGraph,
    working: SchemaGraph,
    log: Vec<AppliedOp>,
    /// One undo patch per log entry, in application order.
    undo: Vec<UndoPatch>,
    matrix: PermissionMatrix,
    /// True when the working schema was seeded from a checkpoint snapshot
    /// instead of replaying ops from the shrink wrap — the log then only
    /// covers the tail, so undo cannot reach back to the shrink wrap.
    resumed: bool,
    /// Incrementally-maintained consistency findings; interior mutability
    /// so read paths (`consistency`, `DesignReport::generate`) can sync
    /// lazily from `&self`.
    state: RefCell<ConsistencyState>,
}

impl Workspace {
    /// Start a design session from a shrink wrap schema. The working schema
    /// begins as a copy of it.
    pub fn new(shrink_wrap: SchemaGraph) -> Self {
        let working = shrink_wrap.clone();
        Workspace::build(shrink_wrap, working, false)
    }

    /// Resume a design session from a checkpoint snapshot: the working
    /// schema starts at `working` (the snapshot image, already carrying
    /// every checkpointed op) instead of a copy of the shrink wrap, and
    /// the log records only the ops replayed after it.
    pub fn resume(shrink_wrap: SchemaGraph, working: SchemaGraph) -> Self {
        Workspace::build(shrink_wrap, working, true)
    }

    fn build(shrink_wrap: SchemaGraph, working: SchemaGraph, resumed: bool) -> Self {
        Workspace {
            shrink_wrap,
            working,
            log: Vec::new(),
            undo: Vec::new(),
            matrix: PermissionMatrix::new(),
            state: RefCell::new(ConsistencyState::new()),
            resumed,
        }
    }

    /// Was this workspace seeded from a checkpoint snapshot?
    pub fn is_resumed(&self) -> bool {
        self.resumed
    }

    /// The immutable shrink wrap schema.
    pub fn shrink_wrap(&self) -> &SchemaGraph {
        &self.shrink_wrap
    }

    /// The integrated, customized user schema.
    pub fn working(&self) -> &SchemaGraph {
        &self.working
    }

    /// The operation log, in application order.
    pub fn log(&self) -> &[AppliedOp] {
        &self.log
    }

    /// Decompose the *current working schema* into concept schemas.
    pub fn concept_schemas(&self) -> Decomposition {
        decompose(&self.working)
    }

    /// Apply `op` in the context of a `context` concept schema.
    ///
    /// Pipeline: Table 1 permission → precondition constraints → mutation
    /// with propagation → cautionary feedback. On error nothing changes:
    /// the mutation runs inside an undo frame, so even a mid-cascade
    /// failure is rolled back from the journal rather than left behind.
    pub fn apply(&mut self, context: ConceptKind, op: ModOp) -> Result<Feedback, OpError> {
        let mut sp = sws_trace::span!("ws.apply", op = op.kind().name(), context = context.tag());
        if !self.matrix.allows(context, op.kind()) {
            sp.record("verdict", "not_permitted");
            sws_trace::counter("ws.ops_rejected", 1);
            return Err(OpError::NotPermitted {
                op: op.kind(),
                context,
            });
        }
        let violations = {
            let mut pre = sws_trace::span("core.preconditions");
            let violations = check_preconditions(&op, &self.working, &self.shrink_wrap);
            pre.record("violations", violations.len());
            violations
        };
        if !violations.is_empty() {
            sp.record("verdict", "rejected");
            sws_trace::counter("ws.ops_rejected", 1);
            return Err(OpError::Violations(violations));
        }
        self.working.begin_undo();
        let outcome = {
            let _mutate = sws_trace::span("core.apply_op");
            match apply_op(&mut self.working, &op) {
                Ok(outcome) => outcome,
                Err(e) => {
                    self.working.rollback_undo();
                    sp.record("verdict", "error");
                    sws_trace::counter("ws.ops_rejected", 1);
                    return Err(e);
                }
            }
        };
        let patch = self.working.commit_undo();
        sws_trace::counter("ws.undo_entries", patch.touched() as u64);
        self.undo.push(patch);
        self.state
            .borrow_mut()
            .record(&DirtySet::from_op(&op, &outcome.cascade));
        let impact = ImpactReport::from_cascade(&outcome.cascade, &outcome.notes);
        let (warnings, infos) = cautionary(&op, &self.working);
        sp.record("verdict", "ok");
        sp.record("warnings", warnings.len());
        sp.record("infos", infos.len());
        sp.record("impacted", impact.len());
        sws_trace::counter("ws.ops_applied", 1);
        self.log.push(AppliedOp {
            op: op.clone(),
            context,
            impact: impact.clone(),
        });
        Ok(Feedback {
            op,
            warnings,
            infos,
            impact,
        })
    }

    /// Apply a whole script in one context, stopping at the first error and
    /// reporting how many operations succeeded before it.
    pub fn apply_script(
        &mut self,
        context: ConceptKind,
        ops: impl IntoIterator<Item = ModOp>,
    ) -> Result<Vec<Feedback>, (usize, OpError)> {
        let mut sp = sws_trace::span!("ws.apply_script", context = context.tag());
        let mut feedback = Vec::new();
        for (i, op) in ops.into_iter().enumerate() {
            match self.apply(context, op) {
                Ok(fb) => feedback.push(fb),
                Err(e) => {
                    sp.record("applied", i);
                    sp.record("failed_at", i);
                    return Err((i, e));
                }
            }
        }
        sp.record("applied", feedback.len());
        Ok(feedback)
    }

    /// Replay helper: apply the ops of another workspace's log (used by the
    /// repository when loading a persisted session).
    pub fn replay(
        &mut self,
        records: impl IntoIterator<Item = (ConceptKind, ModOp)>,
    ) -> Result<(), (usize, OpError)> {
        let mut sp = sws_trace::span("ws.replay");
        let mut applied = 0usize;
        for (i, (context, op)) in records.into_iter().enumerate() {
            self.apply(context, op).map_err(|e| (i, e))?;
            applied = i + 1;
        }
        sp.record("applied", applied);
        Ok(())
    }

    /// The consistency report for the current working schema, maintained
    /// incrementally: only the types affected by operations applied since
    /// the last call are rechecked.
    ///
    /// Large dirty closures fan out across worker threads sharing one
    /// frozen closure index (see [`crate::parallel`]); small ones stay on
    /// the serial, allocation-free path using the state's persistent
    /// scratch. Either way the report is identical — in debug builds the
    /// incremental result is asserted identical to a from-scratch
    /// [`check_consistency`] run.
    pub fn consistency(&self) -> ConsistencyReport {
        let report = {
            let mut state = self.state.borrow_mut();
            state.sync(&self.working, &self.shrink_wrap);
            state.report(&self.working)
        };
        #[cfg(debug_assertions)]
        {
            let full = crate::consistency::check_consistency(&self.working, &self.shrink_wrap);
            debug_assert_eq!(
                report, full,
                "incremental consistency diverged from full recheck"
            );
        }
        report
    }

    /// Escape hatch: discard the incremental consistency state and recheck
    /// everything from scratch.
    pub fn full_recheck(&self) -> ConsistencyReport {
        self.state.borrow_mut().invalidate();
        self.consistency()
    }

    /// Take back the last applied operation: pop its log record and revert
    /// its undo patch. The consistency state is invalidated, so the next
    /// [`Self::consistency`] read rechecks from scratch. Returns the popped
    /// record, or `None` when the log is empty (a resumed workspace cannot
    /// undo past its snapshot image).
    pub fn undo_last(&mut self) -> Option<AppliedOp> {
        let record = self.log.pop()?;
        let patch = self.undo.pop().expect("one undo patch per log record");
        self.working.revert(&patch);
        self.state.borrow_mut().invalidate();
        Some(record)
    }

    /// Reset the working schema back to the shrink wrap schema by undoing
    /// every logged operation, newest first.
    pub fn reset(&mut self) {
        let mut sp = sws_trace::span!("ws.reset", patches = self.undo.len());
        while self.undo_last().is_some() {}
        sp.record("generation", self.working.generation() as usize);
        // Oracle: undo replay must land on a graph structurally identical
        // to the graph the session started from — the shrink wrap copy,
        // unless the workspace was resumed from a checkpoint snapshot (the
        // undo journal then only reaches back to the snapshot image).
        #[cfg(test)]
        debug_assert!(
            self.resumed || sws_model::diff_graphs(&self.shrink_wrap, &self.working).is_empty(),
            "undo replay diverged from the shrink wrap schema:\n{:#?}",
            sws_model::diff_graphs(&self.shrink_wrap, &self.working)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consistency::check_consistency;
    use crate::ops::OpKind;
    use sws_model::{graph_to_schema, schema_to_graph};
    use sws_odl::parse_schema;

    fn workspace() -> Workspace {
        let src = r#"
        schema Dept {
            interface Person { attribute string name; }
            interface Employee : Person {
                relationship Department works_in_a inverse Department::has;
            }
            interface Department {
                relationship set<Employee> has inverse Employee::works_in_a;
            }
        }"#;
        Workspace::new(schema_to_graph(&parse_schema(src).unwrap()).unwrap())
    }

    #[test]
    fn permission_gate_runs_first() {
        let mut ws = workspace();
        // A move issued from a wagon wheel: rejected by Table 1.
        let err = ws
            .apply(
                ConceptKind::WagonWheel,
                ModOp::ModifyAttribute {
                    ty: "Person".into(),
                    name: "name".into(),
                    new_ty: "Employee".into(),
                },
            )
            .unwrap_err();
        assert_eq!(
            err,
            OpError::NotPermitted {
                op: OpKind::ModifyAttribute,
                context: ConceptKind::WagonWheel
            }
        );
        assert!(ws.log().is_empty());
    }

    #[test]
    fn constraint_gate_blocks_without_mutation() {
        let mut ws = workspace();
        let before = graph_to_schema(ws.working());
        let err = ws
            .apply(
                ConceptKind::WagonWheel,
                ModOp::AddTypeDefinition {
                    ty: "Person".into(),
                },
            )
            .unwrap_err();
        assert!(matches!(err, OpError::Violations(_)));
        assert_eq!(graph_to_schema(ws.working()), before);
    }

    #[test]
    fn successful_apply_logs_and_reports() {
        let mut ws = workspace();
        let fb = ws
            .apply(
                ConceptKind::Generalization,
                ModOp::ModifyRelationshipTargetType {
                    ty: "Department".into(),
                    path: "has".into(),
                    old_target: "Employee".into(),
                    new_target: "Person".into(),
                },
            )
            .unwrap();
        assert!(!fb.warnings.is_empty());
        assert_eq!(ws.log().len(), 1);
        let person = ws.working().type_id("Person").unwrap();
        assert!(ws.working().find_rel_end(person, "works_in_a").is_some());
        // Shrink wrap untouched.
        let sw_person = ws.shrink_wrap().type_id("Person").unwrap();
        assert!(ws
            .shrink_wrap()
            .find_rel_end(sw_person, "works_in_a")
            .is_none());
    }

    #[test]
    fn semantic_stability_judged_against_shrink_wrap() {
        let mut ws = workspace();
        // Sever Employee from Person in the working schema...
        ws.apply(
            ConceptKind::Generalization,
            ModOp::DeleteSupertype {
                ty: "Employee".into(),
                supertype: "Person".into(),
            },
        )
        .unwrap();
        // ...the move is STILL legal, because the shrink wrap hierarchy has
        // Employee under Person (the paper judges stability against the
        // hierarchy "established by the shrink wrap schema").
        ws.apply(
            ConceptKind::Generalization,
            ModOp::ModifyRelationshipTargetType {
                ty: "Department".into(),
                path: "has".into(),
                old_target: "Employee".into(),
                new_target: "Person".into(),
            },
        )
        .unwrap();
    }

    #[test]
    fn script_stops_at_first_error() {
        let mut ws = workspace();
        let err = ws
            .apply_script(
                ConceptKind::WagonWheel,
                vec![
                    ModOp::AddTypeDefinition { ty: "A".into() },
                    ModOp::AddTypeDefinition { ty: "A".into() }, // duplicate
                    ModOp::AddTypeDefinition { ty: "B".into() },
                ],
            )
            .unwrap_err();
        assert_eq!(err.0, 1);
        assert!(ws.working().type_id("A").is_some());
        assert!(ws.working().type_id("B").is_none());
    }

    #[test]
    fn reset_restores_shrink_wrap() {
        let mut ws = workspace();
        ws.apply(
            ConceptKind::WagonWheel,
            ModOp::AddTypeDefinition { ty: "X".into() },
        )
        .unwrap();
        ws.reset();
        assert!(ws.working().type_id("X").is_none());
        assert!(ws.log().is_empty());
        assert_eq!(
            graph_to_schema(ws.working()),
            graph_to_schema(ws.shrink_wrap())
        );
    }

    #[test]
    fn incremental_consistency_matches_full_recheck() {
        let mut ws = workspace();
        // Sequence of ops dirtying different regions; after each, the
        // incremental report must equal a from-scratch check (the debug
        // assertion inside consistency() also verifies this on every call).
        let ops: Vec<(ConceptKind, ModOp)> = vec![
            (
                ConceptKind::WagonWheel,
                ModOp::AddTypeDefinition { ty: "X".into() },
            ),
            (
                ConceptKind::Generalization,
                ModOp::DeleteSupertype {
                    ty: "Employee".into(),
                    supertype: "Person".into(),
                },
            ),
            (
                ConceptKind::WagonWheel,
                ModOp::DeleteAttribute {
                    ty: "Person".into(),
                    name: "name".into(),
                },
            ),
        ];
        for (context, op) in ops {
            ws.apply(context, op).unwrap();
            let incremental = ws.consistency();
            let full = check_consistency(ws.working(), ws.shrink_wrap());
            assert_eq!(incremental, full);
        }
        // X is isolated; the finding must be present.
        assert!(ws.consistency().findings.iter().any(
            |f| matches!(f, crate::consistency::CrossIssue::IsolatedType { ty } if ty == "X")
        ));
    }

    #[test]
    fn full_recheck_escape_hatch_agrees() {
        let mut ws = workspace();
        ws.apply(
            ConceptKind::WagonWheel,
            ModOp::AddTypeDefinition { ty: "X".into() },
        )
        .unwrap();
        let incremental = ws.consistency();
        let full = ws.full_recheck();
        assert_eq!(incremental, full);
        // And the state is usable again after the escape hatch.
        ws.apply(
            ConceptKind::WagonWheel,
            ModOp::DeleteTypeDefinition { ty: "X".into() },
        )
        .unwrap();
        assert_eq!(
            ws.consistency(),
            check_consistency(ws.working(), ws.shrink_wrap())
        );
    }

    #[test]
    fn consistency_tracks_cross_type_deletion() {
        // Deleting B leaves A::bs dangling — the incremental path must
        // recheck A even though the op only names B.
        let src = "interface A { attribute set<B> bs; attribute long x; } interface B { attribute long y; }";
        let mut ws = Workspace::new(schema_to_graph(&sws_odl::parse_schema(src).unwrap()).unwrap());
        assert!(ws.consistency().errors().next().is_none());
        ws.apply(
            ConceptKind::WagonWheel,
            ModOp::DeleteTypeDefinition { ty: "B".into() },
        )
        .unwrap();
        assert!(ws.consistency().errors().next().is_some());
        // Adding B back fixes it — existence change again expands to A.
        ws.apply(
            ConceptKind::WagonWheel,
            ModOp::AddTypeDefinition { ty: "B".into() },
        )
        .unwrap();
        assert!(ws.consistency().errors().next().is_none());
    }

    #[test]
    fn reset_replays_undo_log_exactly() {
        let mut ws = workspace();
        ws.apply(
            ConceptKind::WagonWheel,
            ModOp::AddTypeDefinition { ty: "X".into() },
        )
        .unwrap();
        ws.apply(
            ConceptKind::Generalization,
            ModOp::ModifyRelationshipTargetType {
                ty: "Department".into(),
                path: "has".into(),
                old_target: "Employee".into(),
                new_target: "Person".into(),
            },
        )
        .unwrap();
        ws.apply(
            ConceptKind::WagonWheel,
            ModOp::DeleteTypeDefinition {
                ty: "Employee".into(),
            },
        )
        .unwrap();
        ws.reset();
        // reset() itself asserts diff_graphs-emptiness; double-check the
        // structural identity from the outside too.
        assert!(sws_model::diff_graphs(ws.shrink_wrap(), ws.working()).is_empty());
        assert!(ws.log().is_empty());
        assert_eq!(
            ws.consistency(),
            check_consistency(ws.working(), ws.shrink_wrap())
        );
    }

    #[test]
    fn undo_last_steps_back_one_op_at_a_time() {
        let mut ws = workspace();
        ws.apply(
            ConceptKind::WagonWheel,
            ModOp::AddTypeDefinition { ty: "X".into() },
        )
        .unwrap();
        let after_first = graph_to_schema(ws.working());
        assert!(ws.consistency().errors().next().is_none());
        ws.apply(
            ConceptKind::WagonWheel,
            ModOp::DeleteTypeDefinition {
                ty: "Employee".into(),
            },
        )
        .unwrap();
        let undone = ws.undo_last().expect("a logged op");
        assert_eq!(undone.context, ConceptKind::WagonWheel);
        assert!(matches!(undone.op, ModOp::DeleteTypeDefinition { .. }));
        assert_eq!(graph_to_schema(ws.working()), after_first);
        assert_eq!(ws.log().len(), 1);
        assert_eq!(
            ws.consistency(),
            check_consistency(ws.working(), ws.shrink_wrap())
        );
        assert!(ws.undo_last().is_some());
        assert!(ws.undo_last().is_none(), "the log is empty");
        assert!(sws_model::diff_graphs(ws.shrink_wrap(), ws.working()).is_empty());
    }

    #[test]
    fn concept_schemas_reflect_working_state() {
        let mut ws = workspace();
        let before = ws.concept_schemas().wagon_wheels.len();
        ws.apply(
            ConceptKind::WagonWheel,
            ModOp::AddTypeDefinition { ty: "X".into() },
        )
        .unwrap();
        assert_eq!(ws.concept_schemas().wagon_wheels.len(), before + 1);
    }
}
