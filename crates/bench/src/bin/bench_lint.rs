//! Static-analyzer cost. `sws_analyze::analyze_ops` runs the real
//! executor on a clone of the base graph under one undo journal and rolls
//! it back, so a script costs one graph clone (O(types)) plus what
//! applying its ops costs (`delete_type_definition` scans the arenas, as
//! apply does).
//!
//! Two sweeps make the cost visible:
//!
//! * `fixed_script/typesN` — a 64-op stream (adds/deletes; no extent ops,
//!   whose uniqueness precondition scans live types) analyzed against
//!   graphs of growing size. The growth with N is the clone plus the
//!   executor's own O(types) terms.
//! * `fixed_graph/opsN` — growing scripts against one 200-type graph.
//!   Total cost should grow roughly linearly in script length.
//!
//! The `fixed_script` routines assert only that the script passes;
//! nothing here asserts a cost shape.
//! Graph sizes default to 100 / 500 / 2000 (override `SWS_BENCH_SIZES`);
//! iterations via `SWS_BENCH_ITERS`.

use sws_analyze::analyze_ops;
use sws_bench::edit_scripts::{edit_stream, faulty_stream};
use sws_bench::timing::Runner;
use sws_corpus::synthetic::SyntheticSpec;

const SEED: u64 = 17;

fn sizes() -> Vec<usize> {
    let parsed: Vec<usize> = std::env::var("SWS_BENCH_SIZES")
        .map(|v| {
            v.split(',')
                .filter_map(|s| s.trim().parse().ok())
                .filter(|&n| n > 0)
                .collect()
        })
        .unwrap_or_default();
    if parsed.is_empty() {
        vec![100, 500, 2000]
    } else {
        parsed
    }
}

fn main() {
    let mut runner = Runner::new("lint");

    // Graph-size sweep, fixed 64-op script.
    for &n in &sizes() {
        let g = SyntheticSpec::sized(n, SEED).generate();
        let script = edit_stream(&g, 64, SEED);
        runner.bench(&format!("fixed_script/types{n}"), || {
            let report = analyze_ops(&g, &g, &script);
            assert!(report.passes());
            report.findings.len()
        });
    }

    // Script-length sweep, fixed 200-type graph; adversarial streams keep
    // the warning/def-use machinery engaged too.
    let g = SyntheticSpec::sized(200, SEED).generate();
    for len in [16usize, 64, 256] {
        let script = edit_stream(&g, len, SEED);
        runner.bench(&format!("fixed_graph/ops{len}"), || {
            analyze_ops(&g, &g, &script).findings.len()
        });
    }
    let faulty = faulty_stream(&g, 64, SEED);
    runner.bench("fixed_graph/faulty64", || {
        analyze_ops(&g, &g, &faulty).findings.len()
    });

    runner.finish();
}
