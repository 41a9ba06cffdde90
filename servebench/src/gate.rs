//! The correctness gate, run outside every timed window: the served
//! head must equal an in-process serial replay of the accepted log, the
//! log must hold exactly the ops the clients saw accepted, and on a
//! durable workload the directory must reload to the same head.

use std::path::Path;

use sws_core::oplang::{parse_statement, print_op};
use sws_core::ConceptKind;
use sws_designer::protocol::Json;
use sws_designer::Session;
use sws_repository::Repository;

use crate::client::{self, Conn};
use crate::drive::{expect, Tally};
use crate::workload::{Inputs, Op};

/// The head as the server reports it.
#[derive(Debug)]
pub struct Head {
    pub rev: u64,
    /// The raw `exported` response line, and the ODL inside it.
    pub export_line: String,
    pub odl: String,
    /// The accepted log from the server's start: (seq, session, context,
    /// statement).
    pub log: Vec<(u64, String, ConceptKind, String)>,
    /// `types` / `concepts` of `report` at the head.
    pub types: u64,
    pub concepts: u64,
}

/// Fetch the head over `conn`: the log since `start_rev`, the export and
/// the report, all at one rev.
pub fn fetch_head(
    conn: &mut Conn,
    session: &str,
    start_rev: u64,
    tally: &mut Tally,
) -> Option<Head> {
    let log = tally.record(expect(conn, &client::log(session, start_rev), "log"))?;
    let export = tally.record(expect(conn, &client::export(session), "exported"))?;
    let report = tally.record(expect(conn, &client::report(session), "reported"))?;
    let (log, export, report) = (log.0, export.0, report.0);
    let head = (|| {
        let rev = log.num("rev").ok_or("log without rev")?;
        let records = log
            .json
            .get("ops")
            .and_then(Json::as_array)
            .ok_or("log without ops")?
            .iter()
            .map(|r| {
                let seq = r.get("seq").and_then(Json::as_u64);
                let session = r.get("session").and_then(Json::as_str);
                let context = r
                    .get("context")
                    .and_then(Json::as_str)
                    .and_then(ConceptKind::from_tag);
                let stmt = r.get("stmt").and_then(Json::as_str);
                match (seq, session, context, stmt) {
                    (Some(q), Some(s), Some(c), Some(t)) => {
                        Ok((q, s.to_string(), c, t.to_string()))
                    }
                    _ => Err(format!("malformed log record: {}", client::clip(&log.line))),
                }
            })
            .collect::<Result<Vec<_>, String>>()?;
        if export.num("rev") != Some(rev) || report.num("rev") != Some(rev) {
            return Err("log, export and report answered at different revs".to_string());
        }
        let odl = export
            .json
            .get("odl")
            .and_then(Json::as_str)
            .ok_or("export without odl")?
            .to_string();
        Ok(Head {
            rev,
            odl,
            export_line: export.line.clone(),
            log: records,
            types: report.num("types").ok_or("report without types")?,
            concepts: report.num("concepts").ok_or("report without concepts")?,
        })
    })();
    tally.record(head)
}

/// The repository the server started from, rebuilt in process: the
/// ingested schema plus the prebuilt directory's ops.
pub fn start_repository(inputs: &Inputs) -> Repository {
    let mut repo = Repository::ingest_odl(&inputs.source).expect("generated schema ingests");
    for (context, op) in &inputs.prefix {
        repo.workspace_mut()
            .apply(*context, op.clone())
            .expect("prefix ops apply");
    }
    repo
}

/// Check the served head against the clients' accepted ops and a serial
/// replay. Returns the replayed head repository.
pub fn check(
    inputs: &Inputs,
    start_rev: u64,
    head: &Head,
    accepted: &[(u64, Op)],
) -> Result<Repository, String> {
    if head.rev != start_rev + head.log.len() as u64 {
        return Err(format!(
            "log from {start_rev} holds {} ops but the head is rev {}",
            head.log.len(),
            head.rev
        ));
    }
    for (i, (seq, ..)) in head.log.iter().enumerate() {
        if *seq != start_rev + i as u64 {
            return Err(format!("log record {i} has seq {seq}"));
        }
    }
    if accepted.len() != head.log.len() {
        return Err(format!(
            "clients saw {} ops accepted, the log holds {}",
            accepted.len(),
            head.log.len()
        ));
    }
    for (seq, (context, op)) in accepted {
        let (_, _, c, stmt) = &head.log[(seq - start_rev) as usize];
        if c != context || *stmt != print_op(op) {
            return Err(format!(
                "log record {seq} is `{stmt}`, not the op accepted there"
            ));
        }
    }
    let mut repo = start_repository(inputs);
    for (seq, _, context, stmt) in &head.log {
        let op =
            parse_statement(stmt).map_err(|e| format!("log record {seq} does not parse: {e}"))?;
        repo.workspace_mut()
            .apply(*context, op)
            .map_err(|e| format!("log record {seq} fails on replay: {e}"))?;
    }
    if repo.custom_schema_odl() != head.odl {
        return Err("the served export differs from a serial replay of the log".to_string());
    }
    Ok(repo)
}

/// After shutdown: a strict load of the session directory must reproduce
/// the last export, so every acknowledged op is durable.
pub fn check_durable(dir: &Path, head: &Head) -> Result<(), String> {
    let session = Session::load_strict(dir).map_err(|e| format!("strict reload failed: {e}"))?;
    let repo = session.repository();
    if repo.total_ops() != head.rev {
        return Err(format!(
            "reloaded directory holds {} ops, the server acknowledged {}",
            repo.total_ops(),
            head.rev
        ));
    }
    if repo.custom_schema_odl() != head.odl {
        return Err("reloaded directory differs from the last export".to_string());
    }
    Ok(())
}
