//! The three workloads and the inputs each one generates from a seed.
//!
//! Every input is a pure function of `(workload, seed)`: the schema, the
//! op streams the writers submit, the lint batches, and (for
//! `durable_2k`) the ops already in the prebuilt session directory.

use sws_bench::edit_scripts::edit_stream;
use sws_core::{ConceptKind, ModOp};
use sws_corpus::rng::SplitMix64;
use sws_corpus::synthetic::SyntheticSpec;
use sws_model::{graph_to_schema, SchemaGraph};
use sws_odl::{print_schema, DomainType, Param};

/// One op of a stream: the concept-schema context and the op.
pub type Op = (ConceptKind, ModOp);

/// What a connection asks for next. Each connection cycles through its
/// own list of steps until the run ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    Submit,
    Export,
    Lint,
    Report,
    Log,
}

impl Step {
    pub fn name(self) -> &'static str {
        match self {
            Step::Submit => "submit",
            Step::Export => "export",
            Step::Lint => "lint",
            Step::Report => "report",
            Step::Log => "log",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 10k types from `--schema`, no directory: one writer, one reader.
    Edit10k,
    /// 2k types from `--schema`: reads (export, lint, report, log)
    /// outnumber submits about nine to one.
    Review2k,
    /// 2k types from a prebuilt `--session` directory: two writers on
    /// disjoint slices of the types, fsync per accepted op.
    Durable2k,
}

/// Ops issued into the prebuilt `durable_2k` directory before the
/// checkpoint, and after it (the replayable tail).
const DURABLE_CHECKPOINTED: usize = 48;
const DURABLE_TAIL: usize = 16;
/// The `--checkpoint-interval` `durable_2k` is served with.
pub const DURABLE_CHECKPOINT_INTERVAL: u64 = 64;
/// Ops per lint batch, and lint batches per run (cycled).
const LINT_BATCH: usize = 8;
const LINT_BATCHES: usize = 32;

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Edit10k, Workload::Review2k, Workload::Durable2k];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Edit10k => "edit_10k",
            Workload::Review2k => "review_2k",
            Workload::Durable2k => "durable_2k",
        }
    }

    /// Object types in the generated schema.
    pub fn types(self) -> usize {
        match self {
            Workload::Edit10k => 10_000,
            Workload::Review2k | Workload::Durable2k => 2_000,
        }
    }

    /// The step cycle of each of the two connections.
    pub fn cycles(self) -> [&'static [Step]; 2] {
        use Step::*;
        match self {
            Workload::Edit10k => [&[Submit], &[Report, Log]],
            Workload::Review2k => [
                &[Submit, Export, Lint, Report, Log],
                &[Export, Lint, Report, Log],
            ],
            Workload::Durable2k => [&[Log, Submit], &[Log, Submit]],
        }
    }

    /// Does the server run from a session directory?
    pub fn durable(self) -> bool {
        self == Workload::Durable2k
    }

    /// Does the traced run time the rows that write or load a whole
    /// session directory (see `layers::DIRECTORY_ROWS`)?
    pub fn measures_directories(self) -> bool {
        self != Workload::Edit10k
    }

    /// Ops each writer submits in the traced run, whose served phase is
    /// bounded by op count so its head state repeats for a seed.
    pub fn traced_ops_per_writer(self) -> usize {
        match self {
            Workload::Edit10k => 40,
            Workload::Review2k => 30,
            Workload::Durable2k => 60,
        }
    }

    /// Ops generated per writer: well beyond what the longest run accepts.
    fn stream_len(self) -> usize {
        match self {
            Workload::Edit10k => 1_500,
            Workload::Review2k => 1_000,
            Workload::Durable2k => 1_500,
        }
    }
}

/// Everything a run of one workload feeds the server.
#[derive(Debug)]
pub struct Inputs {
    pub workload: Workload,
    /// The shrink-wrap schema, as extended ODL.
    pub source: String,
    /// Ops already in the prebuilt session directory, in order
    /// (`durable_2k` only; empty otherwise).
    pub prefix: Vec<Op>,
    /// How many of `prefix` the prebuilt directory's checkpoint covers.
    pub checkpointed: usize,
    /// One op stream per writer; writer `w` submits `streams[w]` in order.
    pub streams: Vec<Vec<Op>>,
    /// Candidate batches for `lint` requests.
    pub lint_batches: Vec<Vec<Op>>,
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let base = SyntheticSpec::sized(workload.types(), seed).generate();
        let source = print_schema(&graph_to_schema(&base));
        let len = workload.stream_len();
        let lint_ops = edit_stream(&base, LINT_BATCH * LINT_BATCHES, seed ^ 0x11A7);
        let lint_batches = lint_ops.chunks(LINT_BATCH).map(<[Op]>::to_vec).collect();
        let (prefix, checkpointed, streams) = if workload.durable() {
            let half = (DURABLE_CHECKPOINTED + DURABLE_TAIL) / 2;
            let mut slices: Vec<Vec<Op>> = (0..2)
                .map(|w| slice_stream(&base, w, 2, half + len, seed))
                .collect();
            let mut prefix = Vec::with_capacity(2 * half);
            for i in 0..half {
                for slice in &slices {
                    prefix.push(slice[i].clone());
                }
            }
            for slice in &mut slices {
                slice.drain(..half);
            }
            (prefix, DURABLE_CHECKPOINTED, slices)
        } else {
            (Vec::new(), 0, vec![edit_stream(&base, len, seed ^ 0xED17)])
        };
        Inputs {
            workload,
            source,
            prefix,
            checkpointed,
            streams,
            lint_batches,
        }
    }
}

/// `count` ops for writer `writer` of `writers`, touching only the types
/// whose index is `writer` modulo `writers`: attributes and operations
/// added to them, attributes they declare deleted (each at most once),
/// and new types. Names are fresh per writer, so the streams of different
/// writers stay valid in any interleaving.
pub fn slice_stream(
    g: &SchemaGraph,
    writer: usize,
    writers: usize,
    count: usize,
    seed: u64,
) -> Vec<Op> {
    let mut rng = SplitMix64::seed_from_u64(seed ^ (0x5_11CE + writer as u64));
    let mine: Vec<String> = g
        .types()
        .enumerate()
        .filter(|(i, _)| i % writers == writer)
        .map(|(_, (_, n))| n.name.to_string())
        .collect();
    let mut deletable: Vec<(String, String)> = g
        .types()
        .enumerate()
        .filter(|(i, _)| i % writers == writer)
        .flat_map(|(_, (_, n))| {
            n.attrs
                .iter()
                .map(|&a| (n.name.to_string(), g.attr(a).name.to_string()))
        })
        .collect();
    let mut ops = Vec::with_capacity(count);
    for k in 0..count {
        let ty = mine[rng.range_usize(0, mine.len())].clone();
        let op = match rng.range_u32(0, 4) {
            0 => ModOp::AddAttribute {
                ty,
                domain: DomainType::Long,
                size: None,
                name: format!("w{writer}_attr_{seed}_{k}"),
            },
            1 => ModOp::AddOperation {
                ty,
                return_type: DomainType::Void,
                name: format!("w{writer}_op_{seed}_{k}"),
                args: vec![Param::input(
                    format!("w{writer}_op_{seed}_{k}_x"),
                    DomainType::Long,
                )],
                raises: Vec::new(),
            },
            2 if !deletable.is_empty() => {
                let (ty, name) = deletable.swap_remove(rng.range_usize(0, deletable.len()));
                ModOp::DeleteAttribute { ty, name }
            }
            _ => ModOp::AddTypeDefinition {
                ty: format!("W{writer}Type_{seed}_{k}"),
            },
        };
        ops.push((ConceptKind::WagonWheel, op));
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use sws_core::oplang::print_op;
    use sws_core::Workspace;

    fn printed(ops: &[Op]) -> Vec<String> {
        ops.iter()
            .map(|(c, op)| format!("{} {}", c.tag(), print_op(op)))
            .collect()
    }

    #[test]
    fn inputs_repeat_for_a_seed() {
        let a = Inputs::generate(Workload::Durable2k, 3);
        let b = Inputs::generate(Workload::Durable2k, 3);
        assert_eq!(a.source, b.source);
        assert_eq!(printed(&a.prefix), printed(&b.prefix));
        for (x, y) in a.streams.iter().zip(&b.streams) {
            assert_eq!(printed(x), printed(y));
        }
        let c = Inputs::generate(Workload::Durable2k, 4);
        assert_ne!(a.source, c.source);
    }

    /// Two writers' slice streams apply cleanly in either order and
    /// interleaved, as `durable_2k` relies on.
    #[test]
    fn slice_streams_apply_in_any_interleaving() {
        let g = SyntheticSpec::sized(200, 5).generate();
        let streams: Vec<Vec<Op>> = (0..2).map(|w| slice_stream(&g, w, 2, 150, 5)).collect();
        let orders: [Vec<(usize, usize)>; 3] = [
            (0..2).flat_map(|w| (0..150).map(move |i| (w, i))).collect(),
            (0..2)
                .rev()
                .flat_map(|w| (0..150).map(move |i| (w, i)))
                .collect(),
            (0..150).flat_map(|i| (0..2).map(move |w| (w, i))).collect(),
        ];
        for order in orders {
            let mut ws = Workspace::new(g.clone());
            for (w, i) in order {
                let (context, op) = &streams[w][i];
                ws.apply(*context, op.clone())
                    .unwrap_or_else(|e| panic!("writer {w} op {i} `{}`: {e}", print_op(op)));
            }
        }
    }
}
