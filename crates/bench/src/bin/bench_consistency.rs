//! P3: consistency-check cost vs schema size — full recheck vs the
//! workspace's incremental engine.
//!
//! For each extended sweep size N (default 100 / 1 000 / 5 000 / 50 000 /
//! 100 000 types, override with `SWS_BENCH_SIZES`):
//!
//! * `full/N` — `check_consistency` from scratch over the whole schema
//!   (timed only up to 5 000 types; the two large sizes exist to time the
//!   incremental path where a full recheck would dominate the run);
//! * `incremental/N` — `Workspace::consistency()` after one edit, against a
//!   pre-synced consistency state (the setup applies the edit untimed, so
//!   the measured region is exactly the dirty-set sync + report assembly).
//!
//! Results are also written machine-readably to `BENCH_incremental.json`
//! at the repository root (override the path with `SWS_BENCH_OUT`), in
//! the versioned [`sws_bench::report::BenchReport`] schema that
//! `bench_compare` diffs against `benches/baselines/`.
//!
//! A threads sweep then re-times the full check and a batched incremental
//! resync at 1/2/4/8 workers (forced via `parallel::with_workers`, the
//! same override `swsd --threads` uses) and writes `BENCH_parallel.json`
//! (override with `SWS_BENCH_PARALLEL_OUT`), same schema. Thread-sweep
//! numbers depend on the host's core count, which the report records as
//! `host_parallelism`.

use sws_bench::edit_scripts::edit_stream;
use sws_bench::report::BenchReport;
use sws_bench::timing::Runner;
use sws_core::consistency::check_consistency;
use sws_core::{parallel, Workspace};
use sws_corpus::synthetic;

const SEED: u64 = 42;
const THREADS: [usize; 4] = [1, 2, 4, 8];
/// Edits applied per incremental-resync iteration: enough to dirty a
/// closure that clears the parallel threshold on the bigger sizes.
const RESYNC_BATCH: usize = 16;
/// Sizes above this only time the incremental path: a timed full recheck
/// at 50k/100k would dominate the run without informing the comparison.
const FULL_CHECK_MAX: usize = 5_000;

fn main() {
    let mut runner = Runner::new("consistency");
    let mut incremental = BenchReport::new("incremental_consistency", SEED, 0);

    for (n, g) in synthetic::size_sweep_large(SEED) {
        incremental.sizes.push(n as u64);
        let full_label = format!("full/{n}");
        if n <= FULL_CHECK_MAX {
            runner.bench(&full_label, || {
                check_consistency(std::hint::black_box(&g), std::hint::black_box(&g))
            });
        }

        // Base workspace with a warm (fully synced) consistency state; each
        // iteration clones it, applies one edit untimed, then times only
        // the incremental recheck.
        let base = Workspace::new(g.clone());
        base.consistency();
        let edits = edit_stream(&g, 64, 7);
        let mut next = 0usize;
        let inc_label = format!("incremental/{n}");
        runner.bench_batched_ref(
            &inc_label,
            || {
                let mut ws = base.clone();
                let (context, op) = edits[next % edits.len()].clone();
                next += 1;
                ws.apply(context, op).expect("edit applies");
                ws
            },
            |ws| ws.consistency(),
        );

        let labels: &[&String] = if n <= FULL_CHECK_MAX {
            &[&full_label, &inc_label]
        } else {
            &[&inc_label]
        };
        for &label in labels {
            incremental.push(
                label,
                runner.exact_quantile(label, 0.50).expect("ran"),
                runner.exact_quantile(label, 0.90).expect("ran"),
            );
        }
    }

    let out = std::env::var("SWS_BENCH_OUT").unwrap_or_else(|_| {
        format!(
            "{}/../../BENCH_incremental.json",
            env!("CARGO_MANIFEST_DIR")
        )
    });
    incremental.iters = runner.iters() as u64;
    incremental.write(&out);

    // ------------------------------------------------------------------
    // Threads sweep → BENCH_parallel.json
    // ------------------------------------------------------------------
    let mut par_report = BenchReport::new("parallel_consistency", SEED, runner.iters() as u64);
    par_report.threads = THREADS.iter().map(|&t| t as u64).collect();
    for (n, g) in synthetic::size_sweep(SEED) {
        par_report.sizes.push(n as u64);
        for t in THREADS {
            let label = format!("full/{n}/threads{t}");
            runner.bench(&label, || {
                parallel::with_workers(t, || {
                    check_consistency(std::hint::black_box(&g), std::hint::black_box(&g))
                })
            });
            par_report.push(
                &label,
                runner.exact_quantile(&label, 0.50).expect("ran"),
                runner.exact_quantile(&label, 0.90).expect("ran"),
            );
        }

        // Incremental resync over a batch of edits: the dirty closure
        // spans many types, so the per-type recheck fans out.
        let base = Workspace::new(g.clone());
        base.consistency();
        let edits = edit_stream(&g, RESYNC_BATCH, 13);
        for t in THREADS {
            let label = format!("resync{RESYNC_BATCH}/{n}/threads{t}");
            runner.bench_batched_ref(
                &label,
                || {
                    let mut ws = base.clone();
                    for (context, op) in edits.iter().cloned() {
                        ws.apply(context, op).expect("edit applies");
                    }
                    ws
                },
                |ws| parallel::with_workers(t, || ws.consistency()),
            );
            par_report.push(
                &label,
                runner.exact_quantile(&label, 0.50).expect("ran"),
                runner.exact_quantile(&label, 0.90).expect("ran"),
            );
        }
    }

    let parallel_out = std::env::var("SWS_BENCH_PARALLEL_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_parallel.json", env!("CARGO_MANIFEST_DIR")));
    par_report.write(&parallel_out);

    runner.finish();
}
