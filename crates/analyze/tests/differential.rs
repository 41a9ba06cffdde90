//! The soundness oracle: for any script, the analyzer's prediction must
//! *exactly* match the executor. If `Workspace::replay` rejects at index
//! `i` with error `e`, then `analyze_ops` must report `stopped_at == i`
//! and `predicted == e` — violation lists compared structurally, in
//! order. If replay accepts, the analyzer must pass the script.
//!
//! Zero false negatives are tolerated (a script the executor rejects that
//! the analyzer passed), and zero error-level false positives (a script
//! the executor accepts that the analyzer stopped). Both directions are
//! hard assertions, swept over the whole corpus, synthetic graphs, and
//! three generator families (valid, churn, adversarial) across many
//! seeds, plus a proptest run over random sizes and seeds.
//!
//! Every script is also analyzed in place ([`analyze_ops_in`]) on a clone
//! of the base graph: the report must equal the one-shot report, and the
//! rolled-back clone must be indistinguishable from the base — including
//! after scripts the executor stops mid-way.

use sws_analyze::{analyze_ops, analyze_ops_in};
use sws_bench::edit_scripts::{churn_stream, edit_stream, faulty_stream};
use sws_core::{ConceptKind, ModOp, Workspace};
use sws_corpus::synthetic::SyntheticSpec;
use sws_model::{diff_graphs, SchemaGraph};

/// Run both sides and demand exact agreement. Returns what the executor
/// did, so callers can count rejections.
fn assert_sound(label: &str, base: &SchemaGraph, script: &[(ConceptKind, ModOp)]) -> bool {
    let report = analyze_ops(base, base, script);
    let mut in_place = base.clone();
    assert_eq!(
        analyze_ops_in(&mut in_place, base, script),
        report,
        "{label}: in-place analysis disagrees with the one-shot report",
    );
    let drift = diff_graphs(base, &in_place);
    assert!(
        drift.is_empty(),
        "{label}: rollback left the graph changed: {drift:#?}"
    );
    assert_eq!(
        in_place.arena_stats(),
        base.arena_stats(),
        "{label}: rollback left arena slots behind",
    );
    let mut ws = Workspace::new(base.clone());
    match ws.replay(script.iter().cloned()) {
        Ok(()) => {
            assert!(
                report.passes(),
                "{label}: false positive — executor accepted all {} ops, analyzer stopped at \
                 {:?} predicting {:?}",
                script.len(),
                report.stopped_at,
                report.predicted,
            );
            false
        }
        Err((i, e)) => {
            assert_eq!(
                report.stopped_at,
                Some(i),
                "{label}: executor rejected op #{i} ({e}), analyzer said stopped_at={:?} \
                 predicted={:?}",
                report.stopped_at,
                report.predicted,
            );
            assert_eq!(
                report.predicted.as_ref(),
                Some(&e),
                "{label}: stop index agrees ({i}) but the predicted error differs",
            );
            true
        }
    }
}

#[test]
fn corpus_valid_streams_are_predicted_clean() {
    for (name, g) in sws_corpus::all_named() {
        for seed in 0..4 {
            let script = edit_stream(&g, 24, seed);
            let rejected = assert_sound(&format!("{name}/edit/{seed}"), &g, &script);
            assert!(!rejected, "{name}: edit_stream must be executor-clean");
            let script = churn_stream(&g, 24, seed);
            let rejected = assert_sound(&format!("{name}/churn/{seed}"), &g, &script);
            assert!(!rejected, "{name}: churn_stream must be executor-clean");
        }
    }
}

#[test]
fn corpus_faulty_streams_predict_the_exact_first_error() {
    let mut rejections = 0usize;
    for (name, g) in sws_corpus::all_named() {
        for seed in 0..12 {
            let script = faulty_stream(&g, 32, seed);
            if assert_sound(&format!("{name}/faulty/{seed}"), &g, &script) {
                rejections += 1;
            }
        }
    }
    // The sweep is vacuous if the adversarial generator stopped generating
    // executor-visible faults.
    assert!(
        rejections > 20,
        "only {rejections} rejected streams across the corpus sweep"
    );
}

#[test]
fn synthetic_graph_sweep() {
    for size in [5, 12, 25] {
        for seed in 0..8 {
            let g = SyntheticSpec::sized(size, seed).generate();
            assert_sound(
                &format!("synthetic{size}/faulty/{seed}"),
                &g,
                &faulty_stream(&g, 40, seed * 31 + 7),
            );
            assert_sound(
                &format!("synthetic{size}/edit/{seed}"),
                &g,
                &edit_stream(&g, 24, seed),
            );
        }
    }
}

/// Concatenating a valid prefix with an adversarial tail moves the first
/// failure deep into the script; prediction must still be index-exact.
#[test]
fn mixed_prefix_scripts_fail_deep() {
    for (name, g) in sws_corpus::all_named() {
        let mut script = edit_stream(&g, 12, 3);
        script.extend(faulty_stream(&g, 24, 5));
        assert_sound(&format!("{name}/mixed"), &g, &script);
    }
}

mod props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The oracle holds for random graph sizes, stream lengths, and
        /// seeds.
        #[test]
        fn analyzer_is_sound_on_random_adversarial_streams(
            size in 2usize..18,
            gseed in 0u64..500,
            count in 1usize..48,
            sseed in 0u64..500,
        ) {
            let g = SyntheticSpec::sized(size, gseed).generate();
            let script = faulty_stream(&g, count, sseed);
            assert_sound(&format!("prop/{size}/{gseed}/{count}/{sseed}"), &g, &script);
        }

        /// Valid streams never produce error findings, at any scale.
        #[test]
        fn analyzer_passes_random_valid_streams(
            size in 2usize..18,
            gseed in 0u64..500,
            count in 1usize..48,
            sseed in 0u64..500,
        ) {
            let g = SyntheticSpec::sized(size, gseed).generate();
            let script = edit_stream(&g, count, sseed);
            let rejected = assert_sound(&format!("prop-valid/{size}/{gseed}"), &g, &script);
            prop_assert!(!rejected);
        }
    }
}
