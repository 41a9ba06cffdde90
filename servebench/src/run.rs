//! One benchmark run: the untraced run measures the end-to-end metrics,
//! the traced run the per-layer ledger. Both end with the correctness
//! gate.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use sws_designer::Session;

use crate::client::{self, Reply};
use crate::drive::{self, expect, Client, Tally, Until};
use crate::gate::{self, Head};
use crate::host::{copy_dir, cpus, filesystem_of};
use crate::layers::{Ledger, Metric, Probe, Served};
use crate::server::Server;
use crate::stats::{beyond, median, ms, percentile, P90_MIN_SAMPLES};
use crate::workload::{Inputs, Op, Step, Workload, DURABLE_CHECKPOINT_INTERVAL};

/// Requests sent before the measured window opens.
const WARMUP: Duration = Duration::from_secs(2);
/// Pings per connection, and probes per read kind, in the traced run.
const PINGS: usize = 20;
const PROBES: usize = 10;

/// A run's result: the human-readable lines, then the result line.
#[derive(Debug, Default)]
pub struct Report {
    pub lines: Vec<String>,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Set-up repetitions per run; `setup_s` is their median.
fn setup_reps(workload: Workload) -> usize {
    match workload {
        Workload::Edit10k => 3,
        Workload::Review2k | Workload::Durable2k => 5,
    }
}

/// A run's inputs, the server binary, and the scratch directory.
#[derive(Debug)]
pub struct Bench<'a> {
    pub inputs: &'a Inputs,
    pub swsd: &'a Path,
    pub work: &'a Path,
}

/// A server that answered its first `open`.
struct Started {
    server: Server,
    client: Client,
    opened: Reply,
    /// Spawn to `opened`.
    setup: Duration,
    dir: Option<PathBuf>,
}

/// What a run collects on its way to a [`Report`].
#[derive(Default)]
struct Run {
    lines: Vec<String>,
    tally: Tally,
    /// Correctness failures that are not failed requests.
    errors: Vec<String>,
    metrics: Vec<Metric>,
    /// The server's `VmHWM` just before shutdown.
    peak_rss_kb: Option<u64>,
}

impl Run {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    fn report(self) -> Report {
        let Run {
            mut lines,
            tally,
            errors,
            metrics,
            ..
        } = self;
        for e in tally.errors.iter().chain(&errors) {
            lines.push(format!("FAILED: {e}"));
        }
        lines.push(format!(
            "requests: attempted={} succeeded={} failed={} (conflicts, each retried: {})",
            tally.attempted,
            tally.attempted - tally.failed,
            tally.failed,
            tally.conflicts
        ));
        Report {
            lines,
            correct: errors.is_empty()
                && tally.failed == 0
                && metrics.iter().all(|m| m.value.is_finite()),
            attempted: tally.attempted.max(1),
            failed: tally.failed,
            metrics,
        }
    }
}

impl Bench<'_> {
    fn schema_file(&self) -> PathBuf {
        self.work.join("schema.odl")
    }

    fn prebuilt(&self) -> PathBuf {
        self.work.join("prebuilt")
    }

    /// Write what the server reads: the schema file, or (for
    /// `durable_2k`) the prebuilt session directory with a checkpoint and
    /// a replayable tail.
    pub fn prepare(&self) -> Result<(), String> {
        std::fs::write(self.schema_file(), &self.inputs.source).map_err(|e| e.to_string())?;
        if !self.inputs.workload.durable() {
            return Ok(());
        }
        let mut session = Session::from_odl(&self.inputs.source).map_err(|e| e.to_string())?;
        session.set_checkpoint_interval(None);
        session.save(&self.prebuilt()).map_err(|e| e.to_string())?;
        for (i, (context, op)) in self.inputs.prefix.iter().enumerate() {
            if i == self.inputs.checkpointed {
                session.checkpoint().map_err(|e| e.to_string())?;
            }
            session.set_context(*context);
            session.issue(op.clone()).map_err(|e| e.to_string())?;
            session.clear_history();
        }
        // Refresh the derived files over the tail, as a clean shutdown does.
        session.final_save().map_err(|e| e.to_string())
    }

    /// Spawn a server on fresh inputs and open connection 0 on it.
    fn start(&self, k: usize, tally: &mut Tally) -> Result<Started, String> {
        let (args, dir) = if self.inputs.workload.durable() {
            let dir = self.work.join(format!("session-{k}"));
            copy_dir(&self.prebuilt(), &dir).map_err(|e| e.to_string())?;
            let args = vec![
                format!("--checkpoint-interval={DURABLE_CHECKPOINT_INTERVAL}"),
                "--session".to_string(),
                dir.display().to_string(),
            ];
            (args, Some(dir))
        } else {
            let args = vec![
                "--schema".to_string(),
                self.schema_file().display().to_string(),
            ];
            (args, None)
        };
        let t0 = Instant::now();
        let server = Server::spawn(self.swsd, &args)?;
        let (client, opened) = tally
            .record(Client::open(self.inputs, server.addr, 0))
            .ok_or("the first open failed")?;
        Ok(Started {
            setup: t0.elapsed(),
            server,
            client,
            opened,
            dir,
        })
    }

    /// Open connection 1 and describe the server and its directory.
    fn second(&self, started: &Started, run: &mut Run) -> Option<Client> {
        let (client, _) = run
            .tally
            .record(Client::open(self.inputs, started.server.addr, 1))?;
        let threads = started.server.status_field("Threads").unwrap_or(0);
        run.lines.push(format!(
            "host: {} cpus; server: {} acceptor threads, its default (every SWS_* variable cleared)",
            cpus(),
            threads.saturating_sub(1)
        ));
        run.lines.push(match &started.dir {
            Some(dir) => format!(
                "session directory on {}; flush policy: fsync per accepted op (as shipped), \
                 checkpoint every {DURABLE_CHECKPOINT_INTERVAL} ops off the request path",
                filesystem_of(dir)
            ),
            None => "no session directory (served from --schema)".to_string(),
        });
        run.lines.push(format!(
            "opened: rev={} types={} concepts={}",
            started.opened.num("rev").unwrap_or(0),
            started.opened.num("types").unwrap_or(0),
            started.opened.num("concepts").unwrap_or(0)
        ));
        Some(client)
    }

    /// Fetch the head on `clients[0]`, close every connection, shut the
    /// server down, and gate the head. Returns the head and its replayed
    /// repository when the gate passed.
    fn close(
        &self,
        server: Server,
        mut clients: Vec<Client>,
        start_rev: u64,
        dir: Option<&Path>,
        run: &mut Run,
    ) -> Option<(Head, sws_repository::Repository)> {
        let head = {
            let c0 = &mut clients[0];
            gate::fetch_head(&mut c0.conn, &c0.session.clone(), start_rev, &mut run.tally)
        };
        run.peak_rss_kb = server.status_field("VmHWM");
        drop(clients);
        run.tally.record(server.shutdown());
        let head = head?;
        run.lines.push(format!(
            "head: rev={} types={} concepts={} export_bytes={}",
            head.rev,
            head.types,
            head.concepts,
            head.export_line.len()
        ));
        let replayed =
            gate::check(self.inputs, start_rev, &head, &run.tally.accepted).and_then(|repo| {
                match dir {
                    Some(dir) => gate::check_durable(dir, &head).map(|()| repo),
                    None => Ok(repo),
                }
            });
        match replayed {
            Ok(repo) => Some((head, repo)),
            Err(e) => {
                run.errors.push(e);
                None
            }
        }
    }

    /// The untraced run: the end-to-end metrics.
    pub fn measure(&self, seconds: u64) -> Report {
        let mut run = Run::default();
        self.measure_into(seconds, &mut run);
        run.report()
    }

    fn measure_into(&self, seconds: u64, run: &mut Run) {
        let mut setups = Vec::new();
        let mut live = None;
        let reps = setup_reps(self.inputs.workload);
        for k in 0..reps {
            let started = match self.start(k, &mut run.tally) {
                Ok(s) => s,
                Err(e) => return run.errors.push(e),
            };
            setups.push(started.setup.as_secs_f64());
            if k + 1 < reps {
                drop(started.client);
                run.tally.record(started.server.shutdown());
            } else {
                live = Some(started);
            }
        }
        let started = live.expect("at least one set-up");
        let Some(second) = self.second(&started, run) else {
            return;
        };
        let Started {
            server,
            client,
            opened,
            dir,
            ..
        } = started;
        let start_rev = opened.num("rev").unwrap_or(0);
        let start = Instant::now() + WARMUP;
        let outcome = drive::run(
            self.inputs,
            vec![client, second],
            Until::Window {
                start,
                seconds: seconds as f64,
            },
        );
        run.tally.merge(outcome.tally);
        let window = outcome.window.expect("a timed run has a window");
        let samples: Vec<_> = run
            .tally
            .samples
            .iter()
            .filter(|s| s.span.start >= window.start && s.span.end <= window.end)
            .copied()
            .collect();
        self.close(server, outcome.clients, start_rev, dir.as_deref(), run);

        let secs = window.elapsed().as_secs_f64();
        let latencies = |keep: &dyn Fn(Step) -> bool| {
            let mut v: Vec<f64> = samples
                .iter()
                .filter(|s| keep(s.step))
                .map(|s| ms(s.span.elapsed()))
                .collect();
            v.sort_by(f64::total_cmp);
            v
        };
        let submits = latencies(&|s| s == Step::Submit);
        let reads = latencies(&|s| s != Step::Submit);
        run.lines.push(format!(
            "window: {secs:.3} s after {:.1} s of warm-up; closed loop, 2 connections",
            WARMUP.as_secs_f64()
        ));
        for step in [Step::Export, Step::Lint, Step::Report, Step::Log] {
            let v = latencies(&|s| s == step);
            if !v.is_empty() {
                run.lines.push(format!(
                    "  read {}: p50 {:.3} ms (n={})",
                    step.name(),
                    percentile(&v, 50.0),
                    v.len()
                ));
            }
        }
        for (kind, v) in [("submit", &submits), ("read", &reads)] {
            if v.len() < P90_MIN_SAMPLES {
                run.errors.push(format!(
                    "{} {kind} samples in the window; a p90 needs {P90_MIN_SAMPLES}",
                    v.len()
                ));
                return;
            }
            for (p, label) in [(50.0, "p50"), (90.0, "p90")] {
                let value = percentile(v, p);
                run.put(&format!("{kind}_{label}_ms"), value, "ms");
                run.lines.push(format!(
                    "{kind}_{label}_ms = {value:.3} ms (n={}, {} beyond)",
                    v.len(),
                    beyond(v.len(), p)
                ));
            }
        }
        run.put("ops_per_s", submits.len() as f64 / secs, "1/s");
        run.put("requests_per_s", samples.len() as f64 / secs, "1/s");
        run.put("setup_s", median(&setups), "s");
        match run.peak_rss_kb {
            Some(kb) => run.put("peak_rss_mb", kb as f64 / 1024.0, "MB"),
            None => run.errors.push("no VmHWM for the server".to_string()),
        }
        run.lines.push(format!(
            "setup_s = {:.4} s (median of {} spawns to the first opened; each: {})",
            median(&setups),
            setups.len(),
            setups
                .iter()
                .map(|s| format!("{s:.4}"))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        // Report order: the end-to-end metrics as listed.
        let order = [
            "submit_p50_ms",
            "submit_p90_ms",
            "read_p50_ms",
            "read_p90_ms",
            "ops_per_s",
            "requests_per_s",
            "setup_s",
            "peak_rss_mb",
        ];
        run.metrics.sort_by_key(|m| {
            order
                .iter()
                .position(|n| *n == m.name)
                .unwrap_or(order.len())
        });
    }

    /// The traced run: the per-layer ledger.
    pub fn trace(&self) -> Report {
        let mut run = Run::default();
        self.trace_into(&mut run);
        run.report()
    }

    fn trace_into(&self, run: &mut Run) {
        let started = match self.start(0, &mut run.tally) {
            Ok(s) => s,
            Err(e) => return run.errors.push(e),
        };
        let Some(second) = self.second(&started, run) else {
            return;
        };
        let Started {
            server,
            client,
            opened,
            dir,
            ..
        } = started;
        let start_rev = opened.num("rev").unwrap_or(0);
        let quota = self.inputs.workload.traced_ops_per_writer();
        let outcome = drive::run(self.inputs, vec![client, second], Until::Ops(quota));
        run.tally.merge(outcome.tally);
        let mut clients = outcome.clients;

        let mut served = Served {
            submits_sent: run.tally.submits_sent,
            conflicts: run.tally.conflicts,
            ..Served::default()
        };
        for c in &mut clients {
            for _ in 0..PINGS {
                if let Some((_, span)) = run.tally.record(expect(&mut c.conn, client::PING, "pong"))
                {
                    served.ping_ms.push(ms(span.elapsed()));
                }
            }
        }
        // Probe the mix's reads at the head (nothing writes any more).
        let rev = match run
            .tally
            .record(expect(&mut clients[0].conn, client::PING, "pong"))
        {
            Some((pong, _)) => pong.num("rev").unwrap_or(0),
            None => return,
        };
        let cycles = self.inputs.workload.cycles();
        let mut steps: Vec<Step> = cycles.iter().flat_map(|c| c.iter().copied()).collect();
        steps.sort_by_key(|s| s.name());
        steps.dedup();
        for &step in &steps {
            let frame = clients[0].frame(self.inputs, step, rev);
            served.frames.push(frame.clone());
            if step == Step::Submit {
                continue;
            }
            let want = match step {
                Step::Export => "exported",
                Step::Lint => "linted",
                Step::Report => "reported",
                _ => "log",
            };
            for _ in 0..PROBES {
                if let Some((_, span)) =
                    run.tally.record(expect(&mut clients[0].conn, &frame, want))
                {
                    served.probes.push(Probe {
                        frame: frame.clone(),
                        rtt_ms: ms(span.elapsed()),
                    });
                }
            }
        }
        let next_ops = interleave(
            clients
                .iter()
                .filter(|c| c.is_writer())
                .map(Client::remaining_ops),
        );
        let Some((head, replayed)) = self.close(server, clients, start_rev, dir.as_deref(), run)
        else {
            return;
        };
        if served.ping_ms.is_empty() || served.probes.is_empty() {
            return run.errors.push("no ping or probe completed".to_string());
        }
        let prebuilt = self.prebuilt();
        let ledger = Ledger {
            inputs: self.inputs,
            head: &replayed,
            next_ops: &next_ops,
            prebuilt: self.inputs.workload.durable().then_some(prebuilt.as_path()),
            work: self.work,
            served: &served,
        };
        if !self.inputs.workload.measures_directories() {
            run.lines.push(
                "not measured here, reported as 0: the rows that write or load a whole session \
                 directory (each write renders the mapping report, about 50 s at 10k types)"
                    .to_string(),
            );
        }
        match ledger.measure() {
            Ok(metrics) => {
                for m in &metrics {
                    run.lines
                        .push(format!("{} = {} {}", m.name, m.value, m.unit));
                }
                run.metrics.extend(metrics);
            }
            Err(e) => run.errors.push(e),
        }
        // The served export and the in-process rendering agree in length.
        let rendered = run
            .metrics
            .iter()
            .find(|m| m.name == "protocol.export_bytes")
            .map(|m| m.value);
        if rendered != Some(head.export_line.len() as f64) {
            run.errors.push(format!(
                "served export is {} bytes, in-process {rendered:?}",
                head.export_line.len()
            ));
        }
    }
}

/// Merge the writers' remaining streams round-robin: valid in any
/// interleaving, so valid in this one.
fn interleave<'a>(streams: impl Iterator<Item = &'a [Op]>) -> Vec<Op> {
    let streams: Vec<&[Op]> = streams.collect();
    let longest = streams.iter().map(|s| s.len()).max().unwrap_or(0);
    (0..longest)
        .flat_map(|i| streams.iter().filter_map(move |s| s.get(i).cloned()))
        .collect()
}
