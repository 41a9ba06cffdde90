//! The closed loop: two connections, each sending its next request only
//! after the previous response arrived, cycling through its workload
//! steps.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::client::{self, Conn, Reply, Span};
use crate::stats::P90_MIN_SAMPLES;
use crate::workload::{Inputs, Op, Step};

/// Conflict rounds one submit may take before it counts as failed.
const MAX_CONFLICT_ROUNDS: usize = 100;

/// One connection of the loop, with the client-side state it tracks.
#[derive(Debug)]
pub struct Client {
    pub conn: Conn,
    pub session: String,
    cycle: &'static [Step],
    pos: usize,
    /// The op stream this connection submits (empty for a reader).
    stream: Vec<Op>,
    next_op: usize,
    /// Head rev as this client last saw it; the next submit's `base_rev`.
    base_rev: u64,
    /// The rev the next `log` request starts from.
    last_seen: u64,
    lint_pos: usize,
}

/// One successful request: a submit spans every conflict round it took.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub step: Step,
    pub span: Span,
}

/// What the connections did.
#[derive(Debug, Default)]
pub struct Tally {
    pub samples: Vec<Sample>,
    /// Request frames sent, conflict resubmits included.
    pub attempted: u64,
    pub failed: u64,
    /// Submit frames sent, resubmits included.
    pub submits_sent: u64,
    pub conflicts: u64,
    /// Each accepted op with the seq it was accepted at.
    pub accepted: Vec<(u64, Op)>,
    pub errors: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    /// Count a frame sent outside the loop (set-up, probes, gate).
    pub fn record<T>(&mut self, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        result.map_err(|e| self.fail(e)).ok()
    }

    pub fn merge(&mut self, other: Tally) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.submits_sent += other.submits_sent;
        self.conflicts += other.conflicts;
        self.accepted.extend(other.accepted);
        for e in other.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }
}

/// Send `frame` and demand a response of type `want`.
pub fn expect(conn: &mut Conn, frame: &str, want: &str) -> Result<(Reply, Span), String> {
    let (reply, span) = conn.call(frame)?;
    if reply.tag() == want {
        Ok((reply, span))
    } else {
        Err(format!(
            "expected `{want}`, got: {}",
            client::clip(&reply.line)
        ))
    }
}

impl Client {
    /// Connect and open session `c<index>`. Returns the `opened` reply.
    pub fn open(
        inputs: &Inputs,
        addr: std::net::SocketAddr,
        index: usize,
    ) -> Result<(Client, Reply), String> {
        let mut conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let session = format!("c{index}");
        let (opened, _) = expect(&mut conn, &client::open(&session), "opened")?;
        let rev = opened.num("rev").ok_or("opened without rev")?;
        let cycle = inputs.workload.cycles()[index];
        let stream = if cycle.contains(&Step::Submit) {
            inputs.streams[index.min(inputs.streams.len() - 1)].clone()
        } else {
            Vec::new()
        };
        let client = Client {
            conn,
            session,
            cycle,
            pos: 0,
            stream,
            next_op: 0,
            base_rev: rev,
            last_seen: rev,
            lint_pos: 0,
        };
        Ok((client, opened))
    }

    /// Ops this client has not submitted yet.
    pub fn remaining_ops(&self) -> &[Op] {
        &self.stream[self.next_op..]
    }

    /// Ops this client has had accepted.
    pub fn submitted(&self) -> usize {
        self.next_op
    }

    pub fn is_writer(&self) -> bool {
        !self.stream.is_empty()
    }

    /// The frame the next step of kind `step` would send (for probes).
    pub fn frame(&self, inputs: &Inputs, step: Step, since: u64) -> String {
        match step {
            Step::Submit => client::submit(&self.session, self.base_rev, &self.stream[..1]),
            Step::Export => client::export(&self.session),
            Step::Lint => client::lint(&self.session, &inputs.lint_batches[0]),
            Step::Report => client::report(&self.session),
            Step::Log => client::log(&self.session, since),
        }
    }

    /// Run the next step of the cycle. Returns false once this client
    /// cannot go on (a submit failed or its stream ran out).
    fn step(&mut self, inputs: &Inputs, tally: &mut Tally) -> bool {
        let step = self.cycle[self.pos % self.cycle.len()];
        self.pos += 1;
        let span = match step {
            Step::Submit => match self.submit(tally) {
                Some(span) => Some(span),
                None => return false,
            },
            Step::Export => read(
                &mut self.conn,
                tally,
                &client::export(&self.session),
                "exported",
            ),
            Step::Lint => {
                let batch = &inputs.lint_batches[self.lint_pos % inputs.lint_batches.len()];
                self.lint_pos += 1;
                read(
                    &mut self.conn,
                    tally,
                    &client::lint(&self.session, batch),
                    "linted",
                )
            }
            Step::Report => read(
                &mut self.conn,
                tally,
                &client::report(&self.session),
                "reported",
            ),
            Step::Log => self.log(tally),
        };
        if let Some(span) = span {
            tally.samples.push(Sample { step, span });
        }
        true
    }

    /// `log` since the last rev seen; the slice must be contiguous.
    fn log(&mut self, tally: &mut Tally) -> Option<Span> {
        tally.attempted += 1;
        let since = self.last_seen;
        let checked = expect(&mut self.conn, &client::log(&self.session, since), "log").and_then(
            |(r, span)| {
                let rev = r.num("rev").ok_or("log without rev")?;
                let ops = r
                    .json
                    .get("ops")
                    .and_then(|o| o.as_array())
                    .map_or(0, <[_]>::len);
                if rev < since || ops as u64 != rev - since {
                    return Err(format!("log since {since} to {rev} holds {ops} ops"));
                }
                Ok((rev, span))
            },
        );
        match checked {
            Ok((rev, span)) => {
                // The client now holds every op up to `rev`: its next
                // submit goes against that head.
                self.last_seen = rev;
                self.base_rev = self.base_rev.max(rev);
                Some(span)
            }
            Err(e) => {
                tally.fail(format!("log: {e}"));
                None
            }
        }
    }

    /// Submit the next op; on `conflict`, resubmit at the conflict's rev.
    /// The span runs from the first send to the `accepted` response.
    fn submit(&mut self, tally: &mut Tally) -> Option<Span> {
        let Some(op) = self.stream.get(self.next_op).cloned() else {
            tally.fail(format!("{}: op stream exhausted", self.session));
            return None;
        };
        let mut first: Option<Instant> = None;
        for _ in 0..MAX_CONFLICT_ROUNDS {
            tally.attempted += 1;
            tally.submits_sent += 1;
            let frame = client::submit(&self.session, self.base_rev, std::slice::from_ref(&op));
            let (reply, span) = match self.conn.call(&frame) {
                Ok(r) => r,
                Err(e) => {
                    tally.fail(format!("submit: {e}"));
                    return None;
                }
            };
            let start = *first.get_or_insert(span.start);
            match (reply.tag(), reply.num("rev")) {
                ("accepted", Some(rev)) if rev == self.base_rev + 1 => {
                    tally.accepted.push((self.base_rev, op));
                    self.base_rev = rev;
                    self.next_op += 1;
                    return Some(Span {
                        start,
                        end: span.end,
                    });
                }
                ("conflict", Some(rev)) if rev > self.base_rev => {
                    tally.conflicts += 1;
                    self.base_rev = rev;
                }
                _ => {
                    tally.fail(format!("submit: {}", client::clip(&reply.line)));
                    return None;
                }
            }
        }
        tally.fail(format!(
            "submit: still conflicting after {MAX_CONFLICT_ROUNDS} rounds"
        ));
        None
    }
}

fn read(conn: &mut Conn, tally: &mut Tally, frame: &str, want: &str) -> Option<Span> {
    tally.attempted += 1;
    match expect(conn, frame, want) {
        Ok((_, span)) => Some(span),
        Err(e) => {
            tally.fail(format!("{want}: {e}"));
            None
        }
    }
}

/// When the loop stops.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// Measure from `start` for at least `seconds`, and on until both the
    /// submits and the reads have a reportable p90, for at most
    /// `seconds` and a half. Requests sent before `start` are warm-up.
    Window { start: Instant, seconds: f64 },
    /// Each writer submits this many ops; readers stop with the writers.
    Ops(usize),
}

/// The loop's result: both clients back, every request tallied, and the
/// measured window (`None` for [`Until::Ops`]).
#[derive(Debug)]
pub struct Outcome {
    pub clients: Vec<Client>,
    pub tally: Tally,
    pub window: Option<Span>,
}

/// Drive every client in its own thread until `until` says stop.
pub fn run(inputs: &Inputs, clients: Vec<Client>, until: Until) -> Outcome {
    let stop = AtomicBool::new(false);
    let running = AtomicUsize::new(clients.len());
    let writers_left = AtomicUsize::new(clients.iter().filter(|c| c.is_writer()).count());
    // Requests completed inside the window so far: [submits, reads].
    let counted = [AtomicUsize::new(0), AtomicUsize::new(0)];
    let window_start = match until {
        Until::Window { start, .. } => Some(start),
        Until::Ops(_) => None,
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|mut client| {
                let (stop, running, writers_left, counted) =
                    (&stop, &running, &writers_left, &counted);
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    while !stop.load(Ordering::SeqCst) {
                        if let Until::Ops(quota) = until {
                            if client.is_writer() && client.submitted() >= quota {
                                break;
                            }
                        }
                        let before = tally.samples.len();
                        if !client.step(inputs, &mut tally) {
                            break;
                        }
                        if let (Some(start), Some(s)) = (window_start, tally.samples.get(before)) {
                            if s.span.start >= start {
                                let kind = usize::from(s.step != Step::Submit);
                                counted[kind].fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    if client.is_writer() && writers_left.fetch_sub(1, Ordering::SeqCst) == 1 {
                        if let Until::Ops(_) = until {
                            stop.store(true, Ordering::SeqCst);
                        }
                    }
                    running.fetch_sub(1, Ordering::SeqCst);
                    (client, tally)
                })
            })
            .collect();

        let window = match until {
            Until::Window { start, seconds } => {
                let end = start + Duration::from_secs_f64(seconds);
                let cap = start + Duration::from_secs_f64(1.5 * seconds);
                sleep_until(end);
                loop {
                    let enough = counted
                        .iter()
                        .all(|c| c.load(Ordering::Relaxed) >= P90_MIN_SAMPLES);
                    if enough || Instant::now() >= cap || running.load(Ordering::SeqCst) == 0 {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
                let end = Instant::now();
                stop.store(true, Ordering::SeqCst);
                Some(Span { start, end })
            }
            Until::Ops(_) => None,
        };

        let mut clients = Vec::new();
        let mut tally = Tally::default();
        for handle in handles {
            let (client, t) = handle.join().expect("a client thread panicked");
            clients.push(client);
            tally.merge(t);
        }
        Outcome {
            clients,
            tally,
            window,
        }
    })
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}
