//! Property tests for the incremental verification engine.
//!
//! * The workspace's incrementally-maintained consistency report equals a
//!   from-scratch `check_consistency` run after every step of a random op
//!   script (accepted and rejected ops alike), and the `full_recheck`
//!   escape hatch agrees too.
//! * After the script, `reset()` replays the undo log back to a graph
//!   structurally identical to the shrink wrap schema.

#![cfg(feature = "proptest")]

use proptest::prelude::*;
use shrink_wrap_schemas::core::{check_consistency, ConceptKind, ModOp, Workspace};
use shrink_wrap_schemas::corpus::university;
use shrink_wrap_schemas::model::diff_graphs;
use shrink_wrap_schemas::odl::DomainType;

/// Names likely to exist in the university schema plus some that don't.
fn type_name() -> impl Strategy<Value = String> {
    prop_oneof![
        4 => prop::sample::select(vec![
            "Person", "Student", "Undergraduate", "Graduate", "Masters", "PhD",
            "NonThesisMasters", "Employee", "Faculty", "Department", "Course",
            "CourseOffering", "Syllabus", "Book", "TimeSlot",
        ])
        .prop_map(str::to_string),
        1 => "[A-Z][a-z]{2,6}".prop_map(|s| format!("Zz{s}")),
    ]
}

fn member_name() -> impl Strategy<Value = String> {
    prop_oneof![
        3 => prop::sample::select(vec![
            "name", "address", "student_id", "badge", "salary", "rank", "room",
            "duration", "term", "number", "title", "credits", "enrolled_in",
            "enrolls", "works_in_a", "has", "teaches", "taught_by", "course",
            "offerings", "described_by", "books", "offered_during", "gpa",
        ])
        .prop_map(str::to_string),
        1 => "[a-z]{2,6}".prop_map(|s| format!("zz_{s}")),
    ]
}

fn domain() -> impl Strategy<Value = DomainType> {
    prop_oneof![
        Just(DomainType::Long),
        Just(DomainType::String),
        type_name().prop_map(DomainType::Named),
        type_name().prop_map(|n| DomainType::set_of(DomainType::Named(n))),
    ]
}

/// Ops chosen to dirty every region the incremental engine tracks: type
/// existence, ISA edges, members, extents, keys, moves, and deletions with
/// cascades.
fn random_op() -> impl Strategy<Value = ModOp> {
    let t = type_name;
    let m = member_name;
    prop_oneof![
        t().prop_map(|ty| ModOp::AddTypeDefinition { ty }),
        t().prop_map(|ty| ModOp::DeleteTypeDefinition { ty }),
        (t(), t()).prop_map(|(ty, supertype)| ModOp::AddSupertype { ty, supertype }),
        (t(), t()).prop_map(|(ty, supertype)| ModOp::DeleteSupertype { ty, supertype }),
        (t(), m()).prop_map(|(ty, extent)| ModOp::AddExtentName { ty, extent }),
        (t(), m()).prop_map(|(ty, extent)| ModOp::DeleteExtentName { ty, extent }),
        (t(), domain(), m()).prop_map(|(ty, domain, name)| ModOp::AddAttribute {
            ty,
            domain,
            size: None,
            name
        }),
        (t(), m()).prop_map(|(ty, name)| ModOp::DeleteAttribute { ty, name }),
        (t(), m(), t()).prop_map(|(ty, name, new_ty)| ModOp::ModifyAttribute { ty, name, new_ty }),
        (t(), m()).prop_map(|(ty, path)| ModOp::DeleteRelationship { ty, path }),
        (t(), m(), t(), t()).prop_map(|(ty, path, old_target, new_target)| {
            ModOp::ModifyRelationshipTargetType {
                ty,
                path,
                old_target,
                new_target,
            }
        }),
        (t(), m()).prop_map(|(ty, name)| ModOp::DeleteOperation { ty, name }),
        (t(), m()).prop_map(|(ty, path)| ModOp::DeletePartOfRelationship { ty, path }),
        (t(), m()).prop_map(|(ty, path)| ModOp::DeleteInstanceOfRelationship { ty, path }),
    ]
}

fn contexts() -> impl Strategy<Value = ConceptKind> {
    prop::sample::select(ConceptKind::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn incremental_consistency_equals_full(
        script in prop::collection::vec((contexts(), random_op()), 1..20)
    ) {
        let mut ws = Workspace::new(university::graph());
        for (context, op) in script {
            let _ = ws.apply(context, op);
            let incremental = ws.consistency();
            let full = check_consistency(ws.working(), ws.shrink_wrap());
            prop_assert_eq!(incremental, full);
        }
        // The escape hatch recomputes from scratch and must agree.
        prop_assert_eq!(
            ws.full_recheck(),
            check_consistency(ws.working(), ws.shrink_wrap())
        );
        // Undo-log replay lands exactly on the shrink wrap schema.
        ws.reset();
        let diff = diff_graphs(ws.shrink_wrap(), ws.working());
        prop_assert!(diff.is_empty(), "{diff:?}");
        prop_assert_eq!(
            ws.consistency(),
            check_consistency(ws.working(), ws.shrink_wrap())
        );
    }
}
