//! P2: operation-application latency per category, full pipeline
//! (permission check, precondition constraints, mutation, propagation,
//! feedback).
//!
//! Results are written to `BENCH_apply_ops.json` at the repository root
//! (override with `SWS_BENCH_OUT`) in the versioned
//! [`sws_bench::report::BenchReport`] schema `bench_compare` understands.

use sws_bench::edit_scripts::edit_stream;
use sws_bench::report::BenchReport;
use sws_bench::timing::Runner;
use sws_core::oplang::parse_statement;
use sws_core::{parallel, ConceptKind, Workspace};
use sws_corpus::{synthetic, university};

fn main() {
    let base = Workspace::new(university::graph());
    let mut runner = Runner::new("apply_op");

    let cases: &[(&str, ConceptKind, &str)] = &[
        (
            "add_type",
            ConceptKind::WagonWheel,
            "add_type_definition(Fresh)",
        ),
        (
            "add_attribute",
            ConceptKind::WagonWheel,
            "add_attribute(CourseOffering, string(8), wing)",
        ),
        (
            "add_relationship",
            ConceptKind::WagonWheel,
            "add_relationship(Book, set<Faculty>, recommended_by, Faculty::recommends)",
        ),
        (
            "move_attribute",
            ConceptKind::Generalization,
            "modify_attribute(Faculty, rank, Employee)",
        ),
        (
            "retarget_relationship",
            ConceptKind::Generalization,
            "modify_relationship_target_type(Department, has, Employee, Person)",
        ),
        (
            "delete_type_cascading",
            ConceptKind::WagonWheel,
            "delete_type_definition(Student)",
        ),
    ];
    for (name, context, stmt) in cases {
        let op = parse_statement(stmt).expect("bench statement parses");
        runner.bench_batched(
            name,
            || base.clone(),
            |mut ws| {
                ws.apply(*context, op.clone()).expect("applies");
            },
        );
    }

    // Size sweep: full apply pipeline (preconditions, mutation, undo
    // journaling, dirty-set recording) for one edit against growing
    // synthetic schemas.
    for (n, g) in synthetic::size_sweep(42) {
        let synth = Workspace::new(g.clone());
        let edits = edit_stream(&g, 64, 11);
        let mut next = 0usize;
        runner.bench_batched_ref(
            &format!("synthetic_edit/{n}"),
            || {
                let ws = synth.clone();
                let edit = edits[next % edits.len()].clone();
                next += 1;
                (ws, edit)
            },
            |(ws, (context, op))| {
                ws.apply(*context, op.clone()).expect("applies");
            },
        );
    }

    // Threads sweep: edit + incremental verify — the inner loop of a
    // designer session under `swsd --threads=N`. Worker counts are forced
    // via the same thread-local override the CLI flag uses.
    let threads = [1usize, 2, 4, 8];
    for (n, g) in synthetic::size_sweep(42) {
        let base = Workspace::new(g.clone());
        base.consistency();
        let edits = edit_stream(&g, 64, 11);
        for t in threads {
            let mut next = 0usize;
            runner.bench_batched_ref(
                &format!("edit_verify/{n}/threads{t}"),
                || {
                    let ws = base.clone();
                    let edit = edits[next % edits.len()].clone();
                    next += 1;
                    (ws, edit)
                },
                |(ws, (context, op))| {
                    parallel::with_workers(t, || {
                        ws.apply(*context, op.clone()).expect("applies");
                        ws.consistency()
                    })
                },
            );
        }
    }

    let mut report = BenchReport::from_runner("apply_op", 42, &runner);
    report.sizes = synthetic::size_sweep(42)
        .iter()
        .map(|(n, _)| *n as u64)
        .collect();
    report.threads = threads.iter().map(|&t| t as u64).collect();
    let out = std::env::var("SWS_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_apply_ops.json", env!("CARGO_MANIFEST_DIR")));
    report.write(&out);
    runner.finish();
}
