//! The deterministic counters repeat exactly across two traced runs with
//! the same seed on the single-writer workloads: `protocol.export_bytes`,
//! `repository.append_bytes_per_op`, and the types/concepts that `opened`
//! and `report` (at the head) answer over the wire.
//!
//! Each run spawns the benchmark binary from the repository root, so it
//! builds and serves the real `swsd`. Run with the benchmark's profile;
//! a debug build of the in-process ledger is slow at 10k types:
//!
//! ```sh
//! cargo test --offline --profile servebench --manifest-path servebench/Cargo.toml
//! ```

use std::path::Path;
use std::process::Command;

const COUNTERS: [&str; 2] = ["protocol.export_bytes", "repository.append_bytes_per_op"];

/// The counter lines and values of one traced run.
fn counters(workload: &str, seed: u64) -> Vec<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let seed = seed.to_string();
    let out = Command::new(env!("CARGO_BIN_EXE_servebench"))
        .current_dir(&root)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed,
            "--seconds",
            "1",
            "--trace",
            "1",
        ])
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "{workload}: {stdout}");
    let result = stdout.lines().last().expect("a result line");
    assert!(result.contains("\"correct\": true"), "{workload}: {stdout}");
    let mut found: Vec<String> = stdout
        .lines()
        .filter(|l| l.starts_with("opened: ") || l.starts_with("head: "))
        .map(str::to_string)
        .collect();
    for name in COUNTERS {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = result
            .find(&key)
            .unwrap_or_else(|| panic!("{name} missing: {result}"));
        let value: String = result[at + key.len()..]
            .chars()
            .take_while(|c| *c != ',')
            .collect();
        found.push(format!("{name}={value}"));
    }
    assert_eq!(found.len(), 2 + COUNTERS.len(), "{workload}: {stdout}");
    found
}

#[test]
fn counters_repeat_for_a_seed_on_single_writer_workloads() {
    for workload in ["review_2k", "edit_10k"] {
        let first = counters(workload, 7);
        let second = counters(workload, 7);
        assert_eq!(first, second, "{workload}");
    }
}
