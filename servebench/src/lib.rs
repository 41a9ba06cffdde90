//! The served-edit benchmark for `swsd serve`: generated inputs, a real
//! server driven over TCP in JSONL framing by a closed loop, a
//! correctness gate, and an in-process per-layer ledger. See README.md.
#![forbid(unsafe_code)]

pub mod client;
pub mod drive;
pub mod gate;
pub mod host;
pub mod layers;
pub mod run;
pub mod server;
pub mod stats;
pub mod workload;
