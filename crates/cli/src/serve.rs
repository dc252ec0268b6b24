//! `rtcg serve` — a persistent analysis daemon over stdin/stdout JSONL.
//!
//! One request line in, one response line out (see [`crate::protocol`]
//! for the wire format). The daemon holds one [`Engine`] for its whole
//! lifetime — every open session shares the 16-way sharded result memo
//! — and a map of named [`Session`]s, each owning a resident model and
//! a delta journal. An editor or build system keeps the process alive
//! across an edit-analyze loop instead of paying a cold start per
//! probe.
//!
//! Request errors (bad JSON, wrong wire version, unknown session,
//! rejected delta) answer `{"v":1,"ok":false,"error":...}` and leave
//! the daemon and every session untouched; only a stdin read failure
//! ends the loop abnormally. EOF performs an orderly shutdown.

use std::collections::HashMap;
use std::io::BufRead;

use crate::commands::CommonOpts;
use crate::protocol::{self, Request, SpecSource};
use crate::CliError;
use rtcg_engine::session::Session;
use rtcg_engine::{Engine, SessionStats, Verdict};
use serde_json::Value;

/// `rtcg serve [--threads N] [--budget-ms M] [--cache-file FILE]
/// [--metrics-out FILE] [--trace-out FILE]` — run the JSONL daemon
/// until stdin closes. With `--cache-file`, the engine's result memo is
/// warmed from the snapshot at startup (if the file exists) and
/// checkpointed back on orderly EOF shutdown; `snapshot`/`restore`
/// requests do the same mid-flight.
pub fn serve(flags: &[String]) -> Result<(), CliError> {
    let opts = CommonOpts::parse(flags)?;
    let rec = crate::profile::recorder_for(flags);
    let engine = Engine::new();
    if let Some(line) = crate::commands::load_cache_report(&engine, &opts)? {
        eprintln!("rtcg serve: {line}");
    }
    let mut sessions: HashMap<String, Session<'_>> = HashMap::new();
    eprintln!(
        "rtcg serve: wire v{} on stdin/stdout; \
         ops: open delta undo analyze stats snapshot restore close; EOF shuts down",
        protocol::WIRE_VERSION
    );
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| CliError::Input(format!("stdin read failed: {e}")))?;
        if line.trim().is_empty() {
            continue;
        }
        let reply = match handle(&engine, &mut sessions, &opts, &line) {
            Ok(reply) => reply,
            Err(msg) => protocol::error_response(&msg),
        };
        outln!("{reply}");
    }
    if let Some(path) = &opts.cache_file {
        let stats = engine
            .save_snapshot(path)
            .map_err(|e| CliError::Input(format!("cannot save cache `{path}`: {e}")))?;
        eprintln!(
            "rtcg serve: checkpointed {} section(s) to `{path}` ({} bytes)",
            stats.sections, stats.bytes
        );
    }
    drop(sessions);
    if let Some(rec) = rec {
        engine.publish_shard_metrics();
        crate::profile::emit(rec, flags)?;
    }
    Ok(())
}

/// Dispatches one request line; `Err` becomes an error response line.
fn handle<'e>(
    engine: &'e Engine,
    sessions: &mut HashMap<String, Session<'e>>,
    opts: &CommonOpts,
    line: &str,
) -> Result<String, String> {
    match protocol::parse_request(line)? {
        Request::Open { id, source } => {
            if sessions.contains_key(&id) {
                return Err(format!("session `{id}` is already open"));
            }
            let src = match &source {
                SpecSource::Path(path) => std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read `{path}`: {e}"))?,
                SpecSource::Inline(text) => text.clone(),
            };
            let model = rtcg_lang::parse_model(&src).map_err(|e| e.render(&src))?;
            let (elements, constraints) = (model.comm().element_count(), model.constraints().len());
            let session = engine
                .open_session_with(model, opts.engine_options())
                .map_err(|e| e.to_string())?;
            sessions.insert(id.clone(), session);
            Ok(protocol::response(vec![
                ("ok", Value::Bool(true)),
                ("op", Value::Str("open".into())),
                ("id", Value::Str(id)),
                ("elements", Value::UInt(elements as u64)),
                ("constraints", Value::UInt(constraints as u64)),
            ]))
        }
        Request::Delta { id, delta } => {
            let session = session_mut(sessions, &id)?;
            let delta = protocol::delta_from_value(&delta, session.model())?;
            let out = session.apply(&delta).map_err(|e| e.to_string())?;
            Ok(protocol::response(vec![
                ("ok", Value::Bool(true)),
                ("op", Value::Str("delta".into())),
                ("id", Value::Str(id)),
                ("kind", Value::Str(out.kind.into())),
                ("results_evicted", Value::UInt(out.results_evicted)),
                ("journal_len", Value::UInt(session.journal_len() as u64)),
            ]))
        }
        Request::Undo { id } => {
            let session = session_mut(sessions, &id)?;
            let undone = session
                .undo()
                .map_err(|e| e.to_string())?
                .ok_or("nothing to undo: the journal is empty")?;
            Ok(protocol::response(vec![
                ("ok", Value::Bool(true)),
                ("op", Value::Str("undo".into())),
                ("id", Value::Str(id)),
                ("undone", Value::Str(undone.kind().into())),
                ("journal_len", Value::UInt(session.journal_len() as u64)),
            ]))
        }
        Request::Analyze { id, query } => {
            let query = protocol::query_from_value(&query)?;
            let before = engine.stats();
            let session = session_mut(sessions, &id)?;
            let report = session.analyze(&query).map_err(|e| e.to_string())?;
            let after = engine.stats();
            let mut fields = vec![
                ("ok", Value::Bool(true)),
                ("op", Value::Str("analyze".into())),
                ("id", Value::Str(id)),
            ];
            match &report.verdict {
                Verdict::Feasible { schedule, strategy } => {
                    fields.push(("verdict", Value::Str("feasible".into())));
                    fields.push(("strategy", Value::Str(strategy.to_string())));
                    let comm = report.analysis_model.comm();
                    let actions = schedule
                        .actions()
                        .iter()
                        .map(|a| match a {
                            rtcg_core::Action::Idle => Ok(Value::Str(".".into())),
                            rtcg_core::Action::Run(id) => comm
                                .name(*id)
                                .map(|n| Value::Str(n.to_string()))
                                .map_err(|e| e.to_string()),
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                    fields.push(("schedule", Value::Arr(actions)));
                }
                Verdict::FeasibleLanes { schedule, strategy } => {
                    fields.push(("verdict", Value::Str("feasible".into())));
                    fields.push(("strategy", Value::Str(strategy.to_string())));
                    fields.push(("lanes", Value::UInt(schedule.lane_count() as u64)));
                    let comm = report.analysis_model.comm();
                    let mut lanes = Vec::with_capacity(schedule.lane_count());
                    for row in schedule.rows() {
                        let actions = row
                            .iter()
                            .map(|a| match a {
                                rtcg_core::Action::Idle => Ok(Value::Str(".".into())),
                                rtcg_core::Action::Run(id) => comm
                                    .name(*id)
                                    .map(|n| Value::Str(n.to_string()))
                                    .map_err(|e| e.to_string()),
                            })
                            .collect::<Result<Vec<_>, _>>()?;
                        lanes.push(Value::Arr(actions));
                    }
                    fields.push(("lane_schedule", Value::Arr(lanes)));
                }
                Verdict::Infeasible { reason } => {
                    fields.push(("verdict", Value::Str("infeasible".into())));
                    fields.push(("reason", Value::Str(reason.clone())));
                }
                Verdict::Unknown { reason } => {
                    fields.push(("verdict", Value::Str("unknown".into())));
                    fields.push(("reason", Value::Str(reason.clone())));
                }
            }
            if let Some(stats) = report.search {
                fields.push(("nodes", Value::UInt(stats.nodes_visited)));
                fields.push(("candidates", Value::UInt(stats.candidates_checked)));
            }
            // per-call engine-counter delta: clients read result-memo
            // reuse off this
            fields.push(("result_memo_hit", Value::Bool(after.hits > before.hits)));
            Ok(protocol::response(fields))
        }
        Request::Stats { id } => {
            let e = engine.stats();
            let evictions: u64 = e.shards.iter().map(|s| s.evictions).sum();
            let occupancy: u64 = e.shards.iter().map(|s| s.occupancy).sum();
            let engine_obj = Value::Obj(vec![
                ("hits".into(), Value::UInt(e.hits)),
                ("misses".into(), Value::UInt(e.misses)),
                ("result_occupancy".into(), Value::UInt(occupancy)),
                ("result_evictions".into(), Value::UInt(evictions)),
                (
                    "snapshot".into(),
                    Value::Obj(vec![
                        ("saves".into(), Value::UInt(e.snapshot.saves)),
                        ("loads".into(), Value::UInt(e.snapshot.loads)),
                        (
                            "sections_loaded".into(),
                            Value::UInt(e.snapshot.sections_loaded),
                        ),
                        (
                            "sections_skipped".into(),
                            Value::UInt(e.snapshot.sections_skipped),
                        ),
                        (
                            "bytes_written".into(),
                            Value::UInt(e.snapshot.bytes_written),
                        ),
                        ("bytes_read".into(), Value::UInt(e.snapshot.bytes_read)),
                    ]),
                ),
            ]);
            let mut names: Vec<&String> = sessions.keys().collect();
            names.sort();
            let per_session = names
                .into_iter()
                .filter(|n| id.as_ref().is_none_or(|want| *n == want))
                .map(|n| (n.clone(), session_stats_value(sessions[n].stats())))
                .collect::<Vec<_>>();
            if let Some(want) = &id {
                if per_session.is_empty() {
                    return Err(format!("no open session `{want}`"));
                }
            }
            Ok(protocol::response(vec![
                ("ok", Value::Bool(true)),
                ("op", Value::Str("stats".into())),
                ("engine", engine_obj),
                ("sessions", Value::Obj(per_session)),
            ]))
        }
        Request::Snapshot { path } => {
            let path = path
                .or_else(|| opts.cache_file.clone())
                .ok_or("snapshot needs a `path` field (or serve started with --cache-file)")?;
            let stats = engine
                .save_snapshot(&path)
                .map_err(|e| format!("cannot save snapshot `{path}`: {e}"))?;
            Ok(protocol::response(vec![
                ("ok", Value::Bool(true)),
                ("op", Value::Str("snapshot".into())),
                ("path", Value::Str(path)),
                ("sections", Value::UInt(stats.sections)),
                ("result_entries", Value::UInt(stats.result_entries)),
                ("bytes", Value::UInt(stats.bytes)),
            ]))
        }
        Request::Restore { path } => {
            let path = path
                .or_else(|| opts.cache_file.clone())
                .ok_or("restore needs a `path` field (or serve started with --cache-file)")?;
            let stats = engine
                .load_snapshot(&path)
                .map_err(|e| format!("cannot load snapshot `{path}`: {e}"))?;
            Ok(protocol::response(vec![
                ("ok", Value::Bool(true)),
                ("op", Value::Str("restore".into())),
                ("path", Value::Str(path)),
                ("sections_loaded", Value::UInt(stats.sections_loaded)),
                ("sections_skipped", Value::UInt(stats.sections_skipped)),
                ("results_inserted", Value::UInt(stats.results_inserted)),
                ("entries_skipped", Value::UInt(stats.entries_skipped)),
                ("bytes", Value::UInt(stats.bytes)),
            ]))
        }
        Request::Close { id } => {
            let session = sessions
                .remove(&id)
                .ok_or_else(|| format!("no open session `{id}`"))?;
            let stats = session.stats();
            Ok(protocol::response(vec![
                ("ok", Value::Bool(true)),
                ("op", Value::Str("close".into())),
                ("id", Value::Str(id)),
                ("final", session_stats_value(stats)),
            ]))
        }
    }
}

fn session_mut<'s, 'e>(
    sessions: &'s mut HashMap<String, Session<'e>>,
    id: &str,
) -> Result<&'s mut Session<'e>, String> {
    sessions
        .get_mut(id)
        .ok_or_else(|| format!("no open session `{id}`"))
}

fn session_stats_value(s: SessionStats) -> Value {
    Value::Obj(vec![
        ("deltas_applied".into(), Value::UInt(s.deltas_applied)),
        ("journal_len".into(), Value::UInt(s.journal_len as u64)),
        ("analyses".into(), Value::UInt(s.analyses)),
        ("results_evicted".into(), Value::UInt(s.results_evicted)),
    ])
}
