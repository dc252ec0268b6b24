//! The versioned JSONL wire format (`{"v":1,...}`) shared by
//! `rtcg serve` and versioned `--batch` manifest entries.
//!
//! Every request line and every response line is one JSON object with a
//! mandatory integer `v` field. A line carrying a version this build
//! does not speak gets an explicit `unsupported wire version` error —
//! never a generic parse failure — so old and new peers can diagnose a
//! mismatch from the message alone.
//!
//! Requests (`op` selects the verb):
//!
//! ```json
//! {"v":1,"op":"open","id":"s1","path":"spec.rtcg"}
//! {"v":1,"op":"open","id":"s1","spec":"element fx { wcet 1 } ..."}
//! {"v":1,"op":"delta","id":"s1","delta":{"kind":"set_deadline","constraint":0,"deadline":9}}
//! {"v":1,"op":"undo","id":"s1"}
//! {"v":1,"op":"analyze","id":"s1","mode":"exact","max_len":8,"selection":[0]}
//! {"v":1,"op":"stats"}
//! {"v":1,"op":"snapshot","path":"memo.snap"}
//! {"v":1,"op":"restore","path":"memo.snap"}
//! {"v":1,"op":"close","id":"s1"}
//! ```
//!
//! Responses always carry `"v":1` and `"ok":true|false`; failed
//! requests answer `{"v":1,"ok":false,"error":"..."}` on their own line
//! and leave the daemon (and the addressed session) untouched.

use rtcg_core::{
    ConstraintId, ConstraintKind, Model, ModelDelta, TaskGraphBuilder, TimingConstraint,
};
use rtcg_engine::{AnalysisMode, ConstraintSelection, Query};
use serde_json::Value;

/// The wire version this build speaks, stamped on every line in both
/// directions.
pub const WIRE_VERSION: u64 = 1;

/// One parsed serve-protocol request.
#[derive(Debug)]
pub enum Request {
    /// Open a session `id` over a spec (from disk or inline source).
    Open { id: String, source: SpecSource },
    /// Apply one model delta to session `id` (payload resolved against
    /// the session's resident model by [`delta_from_value`]).
    Delta { id: String, delta: Value },
    /// Undo the most recent journaled delta of session `id`.
    Undo { id: String },
    /// Analyze session `id` (payload parsed by [`query_from_value`]).
    Analyze { id: String, query: Value },
    /// Report engine counters, plus per-session counters (all sessions,
    /// or just `id` when given).
    Stats { id: Option<String> },
    /// Persist the engine's result memo to a snapshot file; `path`
    /// defaults to `--cache-file`.
    Snapshot { path: Option<String> },
    /// Merge a snapshot file into the live result memo; `path` defaults
    /// to `--cache-file`.
    Restore { path: Option<String> },
    /// Close session `id`, reporting its final counters.
    Close { id: String },
}

/// Where an `open` request's specification text comes from.
#[derive(Debug)]
pub enum SpecSource {
    /// `"path"`: a `.rtcg` file read server-side.
    Path(String),
    /// `"spec"`: inline `rtcg-lang` source shipped in the request.
    Inline(String),
}

/// Parses one request line: JSON envelope, version check, verb dispatch.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = parse_envelope(line)?;
    let op = need_str(&v, "op")?;
    match op {
        "open" => {
            let id = need_str(&v, "id")?.to_string();
            let source = match (opt_str(&v, "path")?, opt_str(&v, "spec")?) {
                (Some(p), None) => SpecSource::Path(p.to_string()),
                (None, Some(s)) => SpecSource::Inline(s.to_string()),
                (None, None) => return Err("open needs a `path` or `spec` field".into()),
                (Some(_), Some(_)) => return Err("open takes `path` or `spec`, not both".into()),
            };
            Ok(Request::Open { id, source })
        }
        "delta" => Ok(Request::Delta {
            id: need_str(&v, "id")?.to_string(),
            delta: v
                .get("delta")
                .cloned()
                .ok_or("delta needs a `delta` object")?,
        }),
        "undo" => Ok(Request::Undo {
            id: need_str(&v, "id")?.to_string(),
        }),
        "analyze" => Ok(Request::Analyze {
            id: need_str(&v, "id")?.to_string(),
            query: v.clone(),
        }),
        "stats" => Ok(Request::Stats {
            id: opt_str(&v, "id")?.map(str::to_string),
        }),
        "snapshot" => Ok(Request::Snapshot {
            path: opt_str(&v, "path")?.map(str::to_string),
        }),
        "restore" => Ok(Request::Restore {
            path: opt_str(&v, "path")?.map(str::to_string),
        }),
        "close" => Ok(Request::Close {
            id: need_str(&v, "id")?.to_string(),
        }),
        other => Err(format!(
            "unknown op `{other}` (expected open, delta, undo, analyze, stats, \
             snapshot, restore or close)"
        )),
    }
}

/// Parses a JSONL line into its object form and enforces the versioned
/// envelope.
pub fn parse_envelope(line: &str) -> Result<Value, String> {
    let v: Value = serde_json::from_str(line).map_err(|e| format!("malformed JSON: {e}"))?;
    if !v.is_object() {
        return Err(format!("expected a JSON object, got {}", v.kind()));
    }
    check_version(&v)?;
    Ok(v)
}

/// Enforces the `"v"` field: present, integral, and a version this
/// build speaks.
pub fn check_version(v: &Value) -> Result<(), String> {
    match v.get("v") {
        None => Err(format!(
            "missing wire version field `v` (this build speaks v{WIRE_VERSION})"
        )),
        Some(ver) => match ver.as_u64() {
            Some(WIRE_VERSION) => Ok(()),
            Some(n) => Err(format!(
                "unsupported wire version {n} (this build speaks v{WIRE_VERSION})"
            )),
            None => Err(format!(
                "wire version `v` must be an integer, got {}",
                ver.kind()
            )),
        },
    }
}

/// Resolves a versioned batch-manifest line (`{"v":1,"spec":"path"}`)
/// to its spec path.
pub fn manifest_entry(line: &str) -> Result<String, String> {
    let v = parse_envelope(line)?;
    Ok(need_str(&v, "spec")?.to_string())
}

/// Builds a [`ModelDelta`] from its wire form, resolving element names
/// and constraint indices against the session's resident model. The
/// `kind` tags match [`ModelDelta::kind`].
pub fn delta_from_value(v: &Value, model: &Model) -> Result<ModelDelta, String> {
    let kind = need_str(v, "kind")?;
    match kind {
        "set_deadline" => Ok(ModelDelta::SetDeadline {
            constraint: constraint_ref(v, model)?,
            deadline: need_u64(v, "deadline")?,
        }),
        "set_period" => Ok(ModelDelta::SetPeriod {
            constraint: constraint_ref(v, model)?,
            period: need_u64(v, "period")?,
        }),
        "set_wcet" => Ok(ModelDelta::SetWcet {
            element: need_str(v, "element")?.to_string(),
            wcet: need_u64(v, "wcet")?,
        }),
        "add_element" => Ok(ModelDelta::AddElement {
            name: need_str(v, "name")?.to_string(),
            wcet: need_u64(v, "wcet")?,
            pipelinable: match v.get("pipelinable") {
                None => true,
                Some(b) => b
                    .as_bool()
                    .ok_or_else(|| format!("`pipelinable` must be a boolean, got {}", b.kind()))?,
            },
        }),
        "remove_element" => Ok(ModelDelta::RemoveElement {
            name: need_str(v, "name")?.to_string(),
        }),
        "add_channel" => Ok(ModelDelta::AddChannel {
            from: need_str(v, "from")?.to_string(),
            to: need_str(v, "to")?.to_string(),
            label: opt_str(v, "label")?.map(str::to_string),
        }),
        "remove_channel" => Ok(ModelDelta::RemoveChannel {
            from: need_str(v, "from")?.to_string(),
            to: need_str(v, "to")?.to_string(),
        }),
        "add_constraint" => {
            let at = match v.get("at") {
                None => model.constraints().len(),
                Some(n) => n
                    .as_u64()
                    .ok_or_else(|| format!("`at` must be an index, got {}", n.kind()))?
                    as usize,
            };
            let c = v
                .get("constraint")
                .ok_or("add_constraint needs a `constraint` object")?;
            Ok(ModelDelta::AddConstraint {
                at,
                constraint: Box::new(constraint_from_value(c, model)?),
            })
        }
        "remove_constraint" => Ok(ModelDelta::RemoveConstraint {
            at: need_u64(v, "at")? as usize,
        }),
        other => Err(format!("unknown delta kind `{other}`")),
    }
}

/// Resolves a `"constraint"` field — an index, per the session's
/// current numbering — into a [`ConstraintId`].
fn constraint_ref(v: &Value, model: &Model) -> Result<ConstraintId, String> {
    let ix = need_u64(v, "constraint")?;
    if ix as usize >= model.constraints().len() {
        return Err(format!(
            "constraint index {ix} out of range (model has {})",
            model.constraints().len()
        ));
    }
    Ok(ConstraintId::new(ix as u32))
}

/// Builds a [`TimingConstraint`] from its wire form:
/// `{"name":..,"kind":"periodic"|"asynchronous","period":..,"deadline":..,
///   "ops":[{"label":..,"element":..}],"edges":[["a","b"]]}`.
/// Elements are addressed by name against the resident model.
fn constraint_from_value(v: &Value, model: &Model) -> Result<TimingConstraint, String> {
    let kind = match need_str(v, "kind")? {
        "periodic" => ConstraintKind::Periodic,
        "asynchronous" => ConstraintKind::Asynchronous,
        other => {
            return Err(format!(
                "constraint kind must be `periodic` or `asynchronous`, got `{other}`"
            ))
        }
    };
    let ops = v
        .get("ops")
        .and_then(Value::as_arr)
        .ok_or("constraint needs an `ops` array")?;
    let mut b = TaskGraphBuilder::new();
    for op in ops {
        let label = need_str(op, "label")?;
        let element = need_str(op, "element")?;
        let id = model.comm().lookup(element).map_err(|e| e.to_string())?;
        b = b.op(label, id);
    }
    if let Some(edges) = v.get("edges") {
        let edges = edges
            .as_arr()
            .ok_or_else(|| format!("`edges` must be an array, got {}", edges.kind()))?;
        for e in edges {
            let (Some(f), Some(t)) = (
                e.get_index(0).and_then(Value::as_str),
                e.get_index(1).and_then(Value::as_str),
            ) else {
                return Err("each edge must be a two-element array of op labels".into());
            };
            b = b.edge(f, t);
        }
    }
    Ok(TimingConstraint {
        name: need_str(v, "name")?.to_string(),
        task: b.build().map_err(|e| e.to_string())?,
        period: need_u64(v, "period")?,
        deadline: need_u64(v, "deadline")?,
        kind,
    })
}

/// Builds a [`Query`] from an `analyze` request: `mode`
/// (`heuristic`/`merged`/`exact`, default heuristic), `max_len`,
/// `budget` (search charge), and `selection` (constraint indices).
pub fn query_from_value(v: &Value) -> Result<Query, String> {
    let mut q = Query::default();
    if let Some(mode) = opt_str(v, "mode")? {
        q.mode = match mode {
            "heuristic" => AnalysisMode::Heuristic,
            "merged" => AnalysisMode::Merged,
            "exact" => AnalysisMode::Exact,
            other => {
                return Err(format!(
                    "mode must be `heuristic`, `merged` or `exact`, got `{other}`"
                ))
            }
        };
    }
    if let Some(l) = opt_u64(v, "max_len")? {
        q.search.max_len = l as usize;
    }
    if let Some(b) = opt_u64(v, "budget")? {
        q.search.node_budget = b;
    }
    if let Some(m) = opt_u64(v, "lanes")? {
        if m == 0 {
            return Err("`lanes` must be at least 1, got 0".into());
        }
        q.lanes = m as usize;
    }
    if let Some(sel) = v.get("selection") {
        let arr = sel
            .as_arr()
            .ok_or_else(|| format!("`selection` must be an array, got {}", sel.kind()))?;
        let ids = arr
            .iter()
            .map(|x| {
                x.as_u64()
                    .map(|n| ConstraintId::new(n as u32))
                    .ok_or_else(|| format!("selection entries must be indices, got {}", x.kind()))
            })
            .collect::<Result<Vec<_>, _>>()?;
        q.selection = ConstraintSelection::Only(ids);
    }
    Ok(q)
}

/// Renders one response line: the `"v"` stamp followed by `fields`,
/// in order.
pub fn response(fields: Vec<(&str, Value)>) -> String {
    let mut pairs = vec![("v".to_string(), Value::UInt(WIRE_VERSION))];
    pairs.extend(fields.into_iter().map(|(k, val)| (k.to_string(), val)));
    Value::Obj(pairs).to_string()
}

/// Renders a failed request's response line.
pub fn error_response(msg: &str) -> String {
    response(vec![
        ("ok", Value::Bool(false)),
        ("error", Value::Str(msg.to_string())),
    ])
}

fn need_str<'v>(v: &'v Value, key: &str) -> Result<&'v str, String> {
    match v.get(key) {
        None => Err(format!("missing `{key}` field")),
        Some(x) => x
            .as_str()
            .ok_or_else(|| format!("`{key}` must be a string, got {}", x.kind())),
    }
}

fn opt_str<'v>(v: &'v Value, key: &str) -> Result<Option<&'v str>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(x) => x
            .as_str()
            .map(Some)
            .ok_or_else(|| format!("`{key}` must be a string, got {}", x.kind())),
    }
}

fn need_u64(v: &Value, key: &str) -> Result<u64, String> {
    match v.get(key) {
        None => Err(format!("missing `{key}` field")),
        Some(x) => x
            .as_u64()
            .ok_or_else(|| format!("`{key}` must be a non-negative integer, got {}", x.kind())),
    }
}

fn opt_u64(v: &Value, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(x) => x
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("`{key}` must be a non-negative integer, got {}", x.kind())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> Model {
        let mut b = rtcg_core::ModelBuilder::new();
        let x = b.element("fx", 1);
        let s = b.element("fs", 2);
        b.channel(x, s);
        let tg = TaskGraphBuilder::new().op("x", x).build().unwrap();
        b.asynchronous("chain", tg, 7, 7);
        b.build().unwrap()
    }

    #[test]
    fn version_mismatches_name_themselves() {
        let err = parse_envelope(r#"{"v":2,"op":"stats"}"#).unwrap_err();
        assert!(err.contains("unsupported wire version 2"), "{err}");
        let err = parse_envelope(r#"{"op":"stats"}"#).unwrap_err();
        assert!(err.contains("missing wire version"), "{err}");
        let err = parse_envelope(r#"{"v":"one","op":"stats"}"#).unwrap_err();
        assert!(err.contains("must be an integer"), "{err}");
        assert!(parse_envelope(r#"{"v":1,"op":"stats"}"#).is_ok());
    }

    #[test]
    fn requests_parse() {
        assert!(matches!(
            parse_request(r#"{"v":1,"op":"open","id":"a","path":"x.rtcg"}"#).unwrap(),
            Request::Open {
                source: SpecSource::Path(_),
                ..
            }
        ));
        assert!(matches!(
            parse_request(r#"{"v":1,"op":"stats"}"#).unwrap(),
            Request::Stats { id: None }
        ));
        assert!(parse_request(r#"{"v":1,"op":"open","id":"a"}"#).is_err());
        assert!(parse_request(r#"{"v":1,"op":"frobnicate"}"#).is_err());
    }

    #[test]
    fn snapshot_ops_parse_with_optional_path() {
        assert!(matches!(
            parse_request(r#"{"v":1,"op":"snapshot","path":"m.snap"}"#).unwrap(),
            Request::Snapshot { path: Some(p) } if p == "m.snap"
        ));
        assert!(matches!(
            parse_request(r#"{"v":1,"op":"snapshot"}"#).unwrap(),
            Request::Snapshot { path: None }
        ));
        assert!(matches!(
            parse_request(r#"{"v":1,"op":"restore"}"#).unwrap(),
            Request::Restore { path: None }
        ));
        let err = parse_request(r#"{"v":1,"op":"snapshot","path":7}"#).unwrap_err();
        assert!(err.contains("`path` must be a string"), "{err}");
    }

    #[test]
    fn deltas_resolve_against_the_model() {
        let m = model();
        let v: Value =
            serde_json::from_str(r#"{"kind":"set_deadline","constraint":0,"deadline":9}"#).unwrap();
        assert!(matches!(
            delta_from_value(&v, &m).unwrap(),
            ModelDelta::SetDeadline { deadline: 9, .. }
        ));
        let v: Value =
            serde_json::from_str(r#"{"kind":"set_deadline","constraint":5,"deadline":9}"#).unwrap();
        assert!(delta_from_value(&v, &m)
            .unwrap_err()
            .contains("out of range"));
        let v: Value = serde_json::from_str(
            r#"{"kind":"add_constraint","constraint":
                {"name":"beat","kind":"periodic","period":6,"deadline":4,
                 "ops":[{"label":"s","element":"fs"}]}}"#,
        )
        .unwrap();
        let d = delta_from_value(&v, &m).unwrap();
        // omitted `at` appends after the existing constraints
        assert!(matches!(d, ModelDelta::AddConstraint { at: 1, .. }));
        assert!(d.apply(&m).is_ok());
    }

    #[test]
    fn queries_parse_modes_and_selection() {
        let v: Value =
            serde_json::from_str(r#"{"mode":"exact","max_len":8,"budget":1000,"selection":[1]}"#)
                .unwrap();
        let q = query_from_value(&v).unwrap();
        assert_eq!(q.mode, AnalysisMode::Exact);
        assert_eq!(q.search.max_len, 8);
        assert_eq!(q.search.node_budget, 1000);
        assert_eq!(
            q.selection,
            ConstraintSelection::Only(vec![ConstraintId::new(1)])
        );
        let v: Value = serde_json::from_str(r#"{"mode":"psychic"}"#).unwrap();
        assert!(query_from_value(&v).is_err());
    }

    #[test]
    fn queries_parse_lanes() {
        let v: Value = serde_json::from_str(r#"{"mode":"exact","lanes":2}"#).unwrap();
        assert_eq!(query_from_value(&v).unwrap().lanes, 2);
        let v: Value = serde_json::from_str(r#"{"mode":"exact"}"#).unwrap();
        assert_eq!(query_from_value(&v).unwrap().lanes, 1);
        let v: Value = serde_json::from_str(r#"{"lanes":0}"#).unwrap();
        let err = query_from_value(&v).unwrap_err();
        assert!(err.contains("lanes"), "{err}");
    }

    #[test]
    fn responses_carry_the_version_stamp() {
        let line = response(vec![("ok", Value::Bool(true))]);
        let v: Value = serde_json::from_str(&line).unwrap();
        assert_eq!(v.get("v").and_then(Value::as_u64), Some(WIRE_VERSION));
        let e = error_response("boom");
        let v: Value = serde_json::from_str(&e).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(v.get("error").and_then(Value::as_str), Some("boom"));
    }

    #[test]
    fn manifest_entries_resolve_spec_paths() {
        assert_eq!(
            manifest_entry(r#"{"v":1,"spec":"a/b.rtcg"}"#).unwrap(),
            "a/b.rtcg"
        );
        assert!(manifest_entry(r#"{"v":9,"spec":"a.rtcg"}"#)
            .unwrap_err()
            .contains("unsupported wire version"));
        assert!(manifest_entry(r#"{"v":1}"#).is_err());
    }
}
