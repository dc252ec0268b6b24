//! Black-box tests of `rtcg serve` (the JSONL daemon) and the versioned
//! wire format shared with `--batch` manifests.

use serde_json::Value;
use std::io::Write;
use std::process::{Command, Stdio};

const SPEC: &str = "element fx wcet 1;\nelement fs wcet 2;\nchannel fx -> fs;\n\
    asynchronous chain period 7 deadline 7 { op x: fx; op s: fs; x -> s; }\n\
    periodic beat period 6 deadline 5 { op s: fs; }\n";

/// Runs `rtcg serve`, feeds `lines` on stdin, returns one parsed JSON
/// object per response line (asserting the process exits cleanly).
fn serve(lines: &[String]) -> Vec<Value> {
    serve_with(&[], lines)
}

/// [`serve`] with extra command-line flags (e.g. `--cache-file`).
fn serve_with(extra_args: &[&str], lines: &[String]) -> Vec<Value> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_rtcg"))
        .arg("serve")
        .args(extra_args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("binary runs");
    {
        let stdin = child.stdin.as_mut().expect("stdin piped");
        for line in lines {
            writeln!(stdin, "{line}").expect("write request");
        }
    }
    let out = child.wait_with_output().expect("daemon exits");
    assert!(out.status.success(), "serve exited abnormally: {out:?}");
    String::from_utf8(out.stdout)
        .expect("utf8 output")
        .lines()
        .map(|l| serde_json::from_str(l).expect("each response line is JSON"))
        .collect()
}

fn obj(pairs: Vec<(&str, Value)>) -> String {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()).to_string()
}

fn req(op: &str, extra: Vec<(&str, Value)>) -> String {
    let mut pairs = vec![
        ("v", Value::UInt(1)),
        ("op", Value::Str(op.into())),
        ("id", Value::Str("s1".into())),
    ];
    pairs.extend(extra);
    obj(pairs)
}

fn get<'v>(v: &'v Value, key: &str) -> &'v Value {
    v.get(key)
        .unwrap_or_else(|| panic!("response missing `{key}`: {v}"))
}

#[test]
fn serve_session_answers_across_deltas() {
    let analyze = req(
        "analyze",
        vec![
            ("mode", Value::Str("exact".into())),
            ("max_len", Value::UInt(6)),
        ],
    );
    let responses = serve(&[
        req("open", vec![("spec", Value::Str(SPEC.into()))]),
        analyze.clone(),
        obj(vec![
            ("v", Value::UInt(1)),
            ("op", Value::Str("delta".into())),
            ("id", Value::Str("s1".into())),
            (
                "delta",
                Value::Obj(vec![
                    ("kind".into(), Value::Str("set_deadline".into())),
                    ("constraint".into(), Value::UInt(0)),
                    ("deadline".into(), Value::UInt(6)),
                ]),
            ),
        ]),
        analyze,
        req("stats", vec![]),
        req("close", vec![]),
    ]);
    assert_eq!(responses.len(), 6, "one response per request");
    for r in &responses {
        assert_eq!(get(r, "v").as_u64(), Some(1));
        assert_eq!(get(r, "ok").as_bool(), Some(true), "{r}");
    }
    assert_eq!(get(&responses[0], "constraints").as_u64(), Some(2));
    assert_eq!(get(&responses[1], "verdict").as_str(), Some("feasible"));
    // the retune evicts the superseded model's one result-memo report
    let delta = &responses[2];
    assert_eq!(get(delta, "kind").as_str(), Some("set_deadline"));
    assert_eq!(get(delta, "results_evicted").as_u64(), Some(1));
    let retuned = &responses[3];
    assert_eq!(get(retuned, "verdict").as_str(), Some("feasible"));
    let stats = &responses[4];
    let session = get(get(stats, "sessions"), "s1");
    assert_eq!(get(session, "deltas_applied").as_u64(), Some(1));
    assert_eq!(get(session, "analyses").as_u64(), Some(2));
    assert_eq!(get(&responses[5], "op").as_str(), Some("close"));
}

#[test]
fn serve_rejects_unsupported_versions_but_keeps_serving() {
    let responses = serve(&[
        r#"{"v":2,"op":"stats"}"#.to_string(),
        r#"{"op":"stats"}"#.to_string(),
        r#"this is not json"#.to_string(),
        r#"{"v":1,"op":"frobnicate"}"#.to_string(),
        r#"{"v":1,"op":"analyze","id":"ghost"}"#.to_string(),
        r#"{"v":1,"op":"stats"}"#.to_string(),
    ]);
    assert_eq!(responses.len(), 6);
    let errors: Vec<&str> = responses[..5]
        .iter()
        .map(|r| {
            assert_eq!(get(r, "ok").as_bool(), Some(false), "{r}");
            get(r, "error").as_str().unwrap()
        })
        .collect();
    assert!(
        errors[0].contains("unsupported wire version 2"),
        "{}",
        errors[0]
    );
    assert!(errors[1].contains("missing wire version"), "{}", errors[1]);
    assert!(errors[2].contains("malformed JSON"), "{}", errors[2]);
    assert!(errors[3].contains("unknown op"), "{}", errors[3]);
    assert!(errors[4].contains("no open session"), "{}", errors[4]);
    // the daemon survived all five bad lines
    assert_eq!(get(&responses[5], "ok").as_bool(), Some(true));
}

#[test]
fn serve_undo_restores_the_previous_verdict() {
    let analyze = req("analyze", vec![("mode", Value::Str("exact".into()))]);
    let tighten = obj(vec![
        ("v", Value::UInt(1)),
        ("op", Value::Str("delta".into())),
        ("id", Value::Str("s1".into())),
        (
            "delta",
            Value::Obj(vec![
                ("kind".into(), Value::Str("set_deadline".into())),
                ("constraint".into(), Value::UInt(0)),
                ("deadline".into(), Value::UInt(3)),
            ]),
        ),
    ]);
    let responses = serve(&[
        req("open", vec![("spec", Value::Str(SPEC.into()))]),
        analyze.clone(),
        tighten,
        analyze.clone(),
        req("undo", vec![]),
        analyze,
    ]);
    assert_eq!(get(&responses[1], "verdict").as_str(), Some("feasible"));
    // deadline 3 < chain computation cannot hold at arbitrary offsets
    assert_eq!(get(&responses[3], "verdict").as_str(), Some("infeasible"));
    assert_eq!(get(&responses[4], "undone").as_str(), Some("set_deadline"));
    assert_eq!(get(&responses[4], "journal_len").as_u64(), Some(0));
    assert_eq!(get(&responses[5], "verdict").as_str(), Some("feasible"));
}

#[test]
fn serve_structural_deltas_apply_and_reanalyze() {
    let analyze = req(
        "analyze",
        vec![
            ("mode", Value::Str("exact".into())),
            ("max_len", Value::UInt(6)),
        ],
    );
    let responses = serve(&[
        req("open", vec![("spec", Value::Str(SPEC.into()))]),
        analyze.clone(),
        obj(vec![
            ("v", Value::UInt(1)),
            ("op", Value::Str("delta".into())),
            ("id", Value::Str("s1".into())),
            (
                "delta",
                Value::Obj(vec![
                    ("kind".into(), Value::Str("remove_constraint".into())),
                    ("at".into(), Value::UInt(1)),
                ]),
            ),
        ]),
        obj(vec![
            ("v", Value::UInt(1)),
            ("op", Value::Str("delta".into())),
            ("id", Value::Str("s1".into())),
            (
                "delta",
                Value::Obj(vec![
                    ("kind".into(), Value::Str("set_wcet".into())),
                    ("element".into(), Value::Str("fx".into())),
                    ("wcet".into(), Value::UInt(2)),
                ]),
            ),
        ]),
        analyze,
    ]);
    let drop_col = &responses[2];
    assert_eq!(get(drop_col, "ok").as_bool(), Some(true), "{drop_col}");
    assert_eq!(get(drop_col, "kind").as_str(), Some("remove_constraint"));
    let reweigh = &responses[3];
    assert_eq!(get(reweigh, "ok").as_bool(), Some(true), "{reweigh}");
    assert_eq!(get(reweigh, "kind").as_str(), Some("set_wcet"));
    assert_eq!(get(reweigh, "journal_len").as_u64(), Some(2));
    assert_eq!(get(&responses[4], "ok").as_bool(), Some(true));
}

#[test]
fn serve_snapshot_restore_round_trip() {
    let dir = std::env::temp_dir().join(format!("rtcg-serve-snap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("memo.snap");
    let snap_str = snap.to_str().unwrap();
    let analyze = req(
        "analyze",
        vec![
            ("mode", Value::Str("exact".into())),
            ("max_len", Value::UInt(6)),
        ],
    );

    // daemon 1: warm a session, persist its memo, check the counters
    let responses = serve(&[
        req("open", vec![("spec", Value::Str(SPEC.into()))]),
        analyze.clone(),
        obj(vec![
            ("v", Value::UInt(1)),
            ("op", Value::Str("snapshot".into())),
            ("path", Value::Str(snap_str.into())),
        ]),
        r#"{"v":1,"op":"stats"}"#.to_string(),
    ]);
    let saved = &responses[2];
    assert_eq!(get(saved, "ok").as_bool(), Some(true), "{saved}");
    assert!(get(saved, "sections").as_u64().unwrap() > 0);
    assert!(get(saved, "bytes").as_u64().unwrap() > 0);
    let snap_stats = get(get(get(&responses[3], "engine"), "snapshot"), "saves");
    assert_eq!(snap_stats.as_u64(), Some(1), "{}", responses[3]);

    // daemon 2: a cold process restores the file and replays warm
    let responses = serve(&[
        req("open", vec![("spec", Value::Str(SPEC.into()))]),
        obj(vec![
            ("v", Value::UInt(1)),
            ("op", Value::Str("restore".into())),
            ("path", Value::Str(snap_str.into())),
        ]),
        analyze,
    ]);
    let restored = &responses[1];
    assert_eq!(get(restored, "ok").as_bool(), Some(true), "{restored}");
    assert!(get(restored, "sections_loaded").as_u64().unwrap() > 0);
    assert_eq!(get(restored, "sections_skipped").as_u64(), Some(0));
    let warm = &responses[2];
    assert_eq!(get(warm, "verdict").as_str(), Some("feasible"));
    assert_eq!(get(warm, "result_memo_hit").as_bool(), Some(true), "{warm}");

    // restoring a missing file reports, the daemon keeps serving
    let responses = serve(&[
        obj(vec![
            ("v", Value::UInt(1)),
            ("op", Value::Str("restore".into())),
            ("path", Value::Str(format!("{snap_str}.missing"))),
        ]),
        obj(vec![
            ("v", Value::UInt(1)),
            ("op", Value::Str("snapshot".into())),
        ]),
        r#"{"v":1,"op":"stats"}"#.to_string(),
    ]);
    assert_eq!(get(&responses[0], "ok").as_bool(), Some(false));
    assert!(
        get(&responses[0], "error")
            .as_str()
            .unwrap()
            .contains("cannot load snapshot"),
        "{}",
        responses[0]
    );
    // snapshot without a path and without --cache-file is an error too
    assert!(
        get(&responses[1], "error")
            .as_str()
            .unwrap()
            .contains("--cache-file"),
        "{}",
        responses[1]
    );
    assert_eq!(get(&responses[2], "ok").as_bool(), Some(true));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_cache_file_checkpoints_across_restarts() {
    let dir = std::env::temp_dir().join(format!("rtcg-serve-cache-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cache = dir.join("daemon.snap");
    let cache_str = cache.to_str().unwrap().to_string();
    let analyze = req(
        "analyze",
        vec![
            ("mode", Value::Str("exact".into())),
            ("max_len", Value::UInt(6)),
        ],
    );

    // first daemon: cold start, EOF shutdown checkpoints automatically
    let responses = serve_with(
        &["--cache-file", &cache_str],
        &[
            req("open", vec![("spec", Value::Str(SPEC.into()))]),
            analyze.clone(),
        ],
    );
    assert_eq!(get(&responses[1], "result_memo_hit").as_bool(), Some(false));
    assert!(cache.is_file(), "EOF shutdown must write the checkpoint");

    // second daemon: warms from the checkpoint at startup
    let responses = serve_with(
        &["--cache-file", &cache_str],
        &[
            req("open", vec![("spec", Value::Str(SPEC.into()))]),
            analyze,
        ],
    );
    let warm = &responses[1];
    assert_eq!(get(warm, "result_memo_hit").as_bool(), Some(true), "{warm}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_validates_common_flags_like_other_subcommands() {
    for args in [
        &["serve", "--threads", "0"][..],
        &["serve", "--budget-ms", "0"][..],
        &["analyze", "x.rtcg", "--threads", "0"][..],
        &["synthesize", "x.rtcg", "--budget-ms", "0"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_rtcg"))
            .args(args)
            .output()
            .expect("binary runs");
        assert_eq!(
            out.status.code(),
            Some(1),
            "{args:?} should be a usage error"
        );
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("must be at least 1"), "{args:?}: {stderr}");
    }
}

#[test]
fn batch_manifests_accept_versioned_jsonl_entries() {
    let dir = std::env::temp_dir().join(format!("rtcg-serve-tests-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spec = dir.join("good.rtcg");
    std::fs::write(&spec, SPEC).unwrap();

    // mixed manifest: legacy bare path + versioned JSONL record
    let ok_manifest = dir.join("ok.txt");
    std::fs::write(
        &ok_manifest,
        "good.rtcg\n{\"v\":1,\"spec\":\"good.rtcg\"}\n",
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_rtcg"))
        .args(["analyze", "--batch", ok_manifest.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("batch: 2 spec(s)"), "{stdout}");

    // a future-versioned entry names its version instead of mis-parsing
    let bad_manifest = dir.join("bad.txt");
    std::fs::write(&bad_manifest, "{\"v\":9,\"spec\":\"good.rtcg\"}\n").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_rtcg"))
        .args(["analyze", "--batch", bad_manifest.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unsupported wire version 9"), "{stderr}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Two wcet-2 elements each demanding latency <= 3: infeasible on one
/// processor, feasible on two lanes.
const TWO_LANE_SPEC: &str = "element a wcet 2;\nelement b wcet 2;\n\
    asynchronous ca period 3 deadline 3 { op o: a; }\n\
    asynchronous cb period 3 deadline 3 { op o: b; }\n";

#[test]
fn serve_analyze_accepts_lanes() {
    let responses = serve(&[
        req("open", vec![("spec", Value::Str(TWO_LANE_SPEC.into()))]),
        req(
            "analyze",
            vec![
                ("mode", Value::Str("exact".into())),
                ("max_len", Value::UInt(3)),
            ],
        ),
        req(
            "analyze",
            vec![
                ("mode", Value::Str("exact".into())),
                ("max_len", Value::UInt(3)),
                ("lanes", Value::UInt(2)),
            ],
        ),
        req("analyze", vec![("lanes", Value::UInt(0))]),
        req("close", vec![]),
    ]);
    assert_eq!(responses.len(), 5);
    assert_eq!(get(&responses[1], "verdict").as_str(), Some("infeasible"));
    let lanes = &responses[2];
    assert_eq!(get(lanes, "verdict").as_str(), Some("feasible"), "{lanes}");
    assert_eq!(get(lanes, "strategy").as_str(), Some("lane-exact"));
    assert_eq!(get(lanes, "lanes").as_u64(), Some(2));
    let rows = get(lanes, "lane_schedule").as_arr().expect("lane rows");
    assert_eq!(rows.len(), 2, "{lanes}");
    assert_eq!(get(&responses[3], "ok").as_bool(), Some(false));
    assert!(
        get(&responses[3], "error")
            .as_str()
            .unwrap()
            .contains("lanes"),
        "{}",
        responses[3]
    );
    assert_eq!(get(&responses[4], "ok").as_bool(), Some(true));
}
