//! The per-layer ledger: each layer's public functions timed in process
//! on the traced run's head state and generated inputs.
//!
//! The served head is rebuilt by serial replay (the correctness gate
//! proves it equal to the server's), so every row here times the same
//! state the server reached. Rows are medians over a few calls.

use std::path::Path;

use sws_analyze::analyze_ops;
use sws_core::oplang::{parse_statement, print_op};
use sws_designer::protocol::{parse_request, render_response, respond};
use sws_designer::{DesignService, OpEnvelope, Request, Response, Session};
use sws_repository::io::RealIo;
use sws_repository::{append_log_line, Repository};

use crate::host::{bytes_written, copy_dir, dir_bytes, dir_files};
use crate::stats::{median, ms, time, us};
use crate::workload::{Inputs, Op, Step, DURABLE_CHECKPOINT_INTERVAL};

/// Calls per row for rows that leave the state unchanged.
const REPS: usize = 5;
/// Ops per row for rows that apply ops, and per checkpoint round.
const OPS: usize = 8;
/// Rounds for rows that write a whole directory or load one.
const ROUNDS: usize = 3;

/// The rows that write or load a whole session directory. Every such
/// write renders the mapping report, which grows steeply with schema
/// size (about 0.6 s at 2k types, about 50 s at 10k on a 2-CPU host), so
/// on `edit_10k` they do not fit in a run and read 0.
pub const DIRECTORY_ROWS: [(&str, &str); 5] = [
    ("repository.checkpoint_ms", "ms"),
    ("repository.checkpoint_bytes", "bytes"),
    ("repository.final_save_ms", "ms"),
    ("service.maintain_ms", "ms"),
    ("repository.load_salvage_s", "s"),
];

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// A read request sent over TCP in the traced run, with its round trip.
#[derive(Debug, Clone)]
pub struct Probe {
    pub frame: String,
    pub rtt_ms: f64,
}

/// What the traced run measured over the wire.
#[derive(Debug, Default)]
pub struct Served {
    pub ping_ms: Vec<f64>,
    pub probes: Vec<Probe>,
    /// One frame of every request kind in the workload's mix.
    pub frames: Vec<String>,
    pub submits_sent: u64,
    pub conflicts: u64,
}

/// Everything the ledger needs.
#[derive(Debug)]
pub struct Ledger<'a> {
    pub inputs: &'a Inputs,
    /// The served head, rebuilt by serial replay.
    pub head: &'a Repository,
    /// Ops not yet submitted, valid in order at the head.
    pub next_ops: &'a [Op],
    /// The directory `durable_2k` was served from, before serving.
    pub prebuilt: Option<&'a Path>,
    /// Scratch space for the directories the durable rows write.
    pub work: &'a Path,
    pub served: &'a Served,
}

fn envelope((context, op): &Op) -> OpEnvelope {
    OpEnvelope {
        context: *context,
        statement: print_op(op),
    }
}

/// Median milliseconds of `reps` calls of `f`.
fn median_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| ms(time(&mut f).1)).collect();
    median(&samples)
}

/// A session over a copy of `repo`, with `dir` attached when given.
fn session(repo: &Repository, dir: Option<&Path>) -> Session {
    let mut session = Session::new(repo.clone());
    session.set_checkpoint_interval(None);
    if let Some(dir) = dir {
        session
            .save(dir)
            .expect("saving the head to a scratch directory");
    }
    session
}

fn submit(service: &DesignService, rev: u64, op: &Op) -> Response {
    service.handle(Request::Submit {
        session: "c0".to_string(),
        base_rev: rev,
        ops: vec![envelope(op)],
    })
}

impl Ledger<'_> {
    pub fn measure(&self) -> Result<Vec<Metric>, String> {
        let mut out = Vec::new();
        let mut put = |name: &str, value: f64, unit: &'static str| {
            out.push(Metric {
                name: name.to_string(),
                value,
                unit,
            })
        };
        let head = self.head;
        let rev = head.total_ops();
        let ops = &self.next_ops[..3 * OPS];
        let durable = self.inputs.workload.durable();

        // --- serve: the wire, from the traced run ---
        put("serve.ping_rtt_ms", median(&self.served.ping_ms), "ms");
        put(
            "service.conflict_ratio",
            self.served.conflicts as f64 / self.served.submits_sent.max(1) as f64,
            "ratio",
        );

        // --- protocol ---
        let parse_us: Vec<f64> = self
            .served
            .frames
            .iter()
            .flat_map(|f| (0..REPS).map(move |_| us(time(|| parse_request(f.trim_end())).1)))
            .collect();
        put("protocol.parse_request_us", median(&parse_us), "us");
        let exported = Response::Exported {
            rev,
            odl: head.custom_schema_odl(),
        };
        put(
            "protocol.render_export_ms",
            median_ms(REPS, || render_response(&exported)),
            "ms",
        );
        put(
            "protocol.export_bytes",
            render_response(&exported).len() as f64,
            "bytes",
        );

        // --- model, repository, session, core and analyze at the head ---
        let graph_clone = median_ms(REPS, || head.workspace().working().clone());
        let shrink_clone = median_ms(REPS, || head.workspace().shrink_wrap().clone());
        let odl = median_ms(REPS, || head.custom_schema_odl());
        let consistency = median_ms(REPS, || head.consistency());
        let at_head = session(head, None);
        let concept_list = median_ms(REPS, || at_head.concept_list());
        put("model.graph_clone_ms", graph_clone, "ms");
        put(
            "repository.clone_ms",
            median_ms(REPS, || head.clone()),
            "ms",
        );
        put("repository.custom_schema_odl_ms", odl, "ms");
        put("repository.consistency_ms", consistency, "ms");
        put("session.concept_list_ms", concept_list, "ms");
        let statements: Vec<String> = ops[..OPS].iter().map(|(_, op)| print_op(op)).collect();
        let parse_us: Vec<f64> = statements
            .iter()
            .map(|s| us(time(|| parse_statement(s)).1))
            .collect();
        let parse_statement_ms = median(&parse_us) / 1e3;
        put("core.parse_statement_us", median(&parse_us), "us");
        let apply_us: Vec<f64> = ops[..OPS]
            .iter()
            .map(|(context, op)| {
                let mut ws = head.workspace().clone();
                let (result, took) = time(|| ws.apply(*context, op.clone()));
                result
                    .map(|_| us(took))
                    .map_err(|e| format!("apply at head: {e}"))
            })
            .collect::<Result<_, _>>()?;
        put("core.apply_us", median(&apply_us), "us");
        let batches: Vec<Vec<Op>> = if self
            .inputs
            .workload
            .cycles()
            .iter()
            .any(|c| c.contains(&Step::Lint))
        {
            self.inputs.lint_batches[..OPS].to_vec()
        } else {
            ops[..OPS].iter().map(|op| vec![op.clone()]).collect()
        };
        let (working, shrink) = (head.workspace().working(), head.workspace().shrink_wrap());
        let analyze: Vec<f64> = batches
            .iter()
            .map(|b| us(time(|| analyze_ops(working, shrink, b)).1))
            .collect();
        put("analyze.analyze_ops_us", median(&analyze), "us");

        // --- service, configured as the workload serves it ---
        let service_dir = self.work.join("service");
        let mut svc_session = session(head, durable.then_some(service_dir.as_path()));
        if durable {
            svc_session.set_checkpoint_interval(Some(DURABLE_CHECKPOINT_INTERVAL));
        }
        let service = DesignService::new(svc_session);
        service.handle(Request::Open {
            session: "c0".to_string(),
        });
        let lint_batch: Vec<OpEnvelope> =
            self.inputs.lint_batches[0].iter().map(envelope).collect();
        let reads = [
            (
                "report",
                Request::Report {
                    session: "c0".into(),
                },
            ),
            (
                "export",
                Request::Export {
                    session: "c0".into(),
                },
            ),
            (
                "lint",
                Request::Lint {
                    session: "c0".into(),
                    ops: lint_batch,
                },
            ),
            (
                "log",
                Request::Log {
                    session: "c0".into(),
                    since: rev,
                },
            ),
        ];
        for (name, request) in reads {
            let took = median_ms(REPS, || service.handle(request.clone()));
            put(&format!("service.handle_read_ms.{name}"), took, "ms");
        }
        // Transport: each probe's round trip minus in-process `respond`
        // of the same frame at the same head.
        let mut transport = Vec::new();
        for probe in &self.served.probes {
            let respond_ms = median_ms(REPS, || respond(&service, probe.frame.trim_end()));
            transport.push(probe.rtt_ms - respond_ms);
        }
        put("serve.transport_ms", median(&transport), "ms");
        let mut submit_ms = Vec::new();
        for (i, op) in ops[..OPS].iter().enumerate() {
            let (response, took) = time(|| submit(&service, rev + i as u64, op));
            if !matches!(response, Response::Accepted { .. }) {
                return Err(format!("in-process submit at head: {response:?}"));
            }
            submit_ms.push(ms(took));
        }
        let handle_submit = median(&submit_ms);
        put("service.handle_submit_ms", handle_submit, "ms");

        // --- session and repository rows on a directory ---
        let issue_dir = self.work.join("issue");
        let mut issuing = session(head, durable.then_some(issue_dir.as_path()));
        let issue: Vec<f64> = ops[..OPS]
            .iter()
            .map(|(context, op)| {
                issuing.set_context(*context);
                let (result, took) = time(|| issuing.issue(op.clone()));
                issuing.clear_history();
                result
                    .map(|_| ms(took))
                    .map_err(|e| format!("issue at head: {e}"))
            })
            .collect::<Result<_, _>>()?;
        let issue = median(&issue);
        put("session.issue_ms", issue, "ms");
        put(
            "service.unattributed_ms",
            handle_submit
                - (parse_statement_ms
                    + issue
                    + concept_list
                    + odl
                    + consistency
                    + graph_clone
                    + shrink_clone),
            "ms",
        );

        // --- the durable append: what `Session::issue` adds per op ---
        let append_dir = self.work.join("append");
        std::fs::create_dir_all(&append_dir).map_err(|e| e.to_string())?;
        for (i, (context, op)) in ops[..OPS].iter().enumerate() {
            append_log_line(&RealIo, &append_dir, rev + i as u64, *context, op)
                .map_err(|e| format!("append: {e}"))?;
        }
        let appended = dir_bytes(&append_dir).map_err(|e| e.to_string())?;
        put(
            "repository.append_bytes_per_op",
            appended as f64 / OPS as f64,
            "bytes",
        );

        // --- set-up: ingest ---
        let ingest: Vec<f64> = (0..ROUNDS)
            .map(|_| {
                time(|| Repository::ingest_odl(&self.inputs.source))
                    .1
                    .as_secs_f64()
            })
            .collect();
        put("repository.ingest_odl_s", median(&ingest), "s");

        // --- rows that write or load a whole session directory ---
        if !self.inputs.workload.measures_directories() {
            for (name, unit) in DIRECTORY_ROWS {
                put(name, 0.0, unit);
            }
            return Ok(out);
        }
        let dir = self.work.join("durable");
        let mut on_disk = session(head, Some(&dir));
        let (mut checkpoint, mut checkpoint_bytes) = (Vec::new(), Vec::new());
        for round in ops.chunks(OPS) {
            for (context, op) in round {
                on_disk.set_context(*context);
                on_disk
                    .issue(op.clone())
                    .map_err(|e| format!("issue on disk: {e}"))?;
                on_disk.clear_history();
            }
            let files = dir_files(&dir).map_err(|e| e.to_string())?;
            let (result, took) = time(|| on_disk.checkpoint());
            match result {
                Ok(Some(_)) => checkpoint.push(ms(took)),
                other => return Err(format!("checkpoint at head: {other:?}")),
            }
            let written = bytes_written(&files, &dir_files(&dir).map_err(|e| e.to_string())?);
            checkpoint_bytes.push(written as f64);
        }
        put("repository.checkpoint_ms", median(&checkpoint), "ms");
        put(
            "repository.checkpoint_bytes",
            median(&checkpoint_bytes),
            "bytes",
        );
        let final_save: Vec<f64> = (0..ROUNDS)
            .map(|_| {
                let (result, took) = time(|| on_disk.final_save());
                result
                    .map(|_| ms(took))
                    .map_err(|e| format!("final save: {e}"))
            })
            .collect::<Result<_, _>>()?;
        put("repository.final_save_ms", median(&final_save), "ms");

        // --- service maintenance: a checkpoint every OPS accepted ops ---
        let mut maintained = session(head, Some(&self.work.join("maintain")));
        maintained.set_checkpoint_interval(Some(OPS as u64));
        let service = DesignService::new(maintained);
        service.handle(Request::Open {
            session: "c0".to_string(),
        });
        let mut maintain = Vec::new();
        for (r, round) in ops.chunks(OPS).enumerate() {
            for (i, op) in round.iter().enumerate() {
                let response = submit(&service, rev + (r * OPS + i) as u64, op);
                if !matches!(response, Response::Accepted { .. }) {
                    return Err(format!("in-process submit before maintain: {response:?}"));
                }
            }
            let (committed, took) = time(|| service.maintain());
            if !committed {
                return Err("maintain committed no checkpoint".to_string());
            }
            maintain.push(ms(took));
        }
        put("service.maintain_ms", median(&maintain), "ms");

        // --- set-up: salvage load ---
        let load_dir = self.work.join("load");
        match self.prebuilt {
            Some(prebuilt) => copy_dir(prebuilt, &load_dir).map_err(|e| e.to_string())?,
            None => crate::gate::start_repository(self.inputs)
                .save(&load_dir)
                .map_err(|e| e.to_string())?,
        }
        let load: Vec<f64> = (0..ROUNDS)
            .map(|_| {
                let (result, took) = time(|| Repository::load_salvage(&load_dir));
                result
                    .map(|_| took.as_secs_f64())
                    .map_err(|e| format!("salvage load: {e}"))
            })
            .collect::<Result<_, _>>()?;
        put("repository.load_salvage_s", median(&load), "s");
        Ok(out)
    }
}
