//! The Chrome `trace_event` exporter must produce JSON that a strict
//! parser accepts — validated here with serde_json (dev-dependency
//! only; the obs crate itself stays dependency-free).
//!
//! Installing a recorder is process-global and one-way, so every test
//! in this binary shares the single installed `MemoryRecorder`, and
//! the tests take turns on it (see [`populate`]).

use rtcg_obs::MemoryRecorder;
use std::sync::mpsc;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

fn recorder() -> &'static MemoryRecorder {
    static REC: OnceLock<&'static MemoryRecorder> = OnceLock::new();
    REC.get_or_init(MemoryRecorder::install)
}

/// Runs `record` on this binary's one recording thread and waits for
/// it. A thread's trace lane (`tid`, its [`rtcg_obs::thread_ordinal`])
/// is assigned on its first record, and the harness runs each test on a
/// thread of its own; recording from one long-lived thread keeps every
/// test's events on lane 1.
fn on_recording_thread(record: fn()) {
    type Job = (fn(), mpsc::Sender<()>);
    static JOBS: OnceLock<mpsc::Sender<Job>> = OnceLock::new();
    let jobs = JOBS.get_or_init(|| {
        let (tx, rx) = mpsc::channel::<Job>();
        std::thread::spawn(move || {
            for (job, done) in rx {
                job();
                let _ = done.send(());
            }
        });
        tx
    });
    let (done, finished) = mpsc::channel();
    jobs.send((record, done)).expect("recording thread runs");
    finished.recv().expect("recording thread finishes the job");
}

/// Resets the shared recorder and records a fixed set of spans,
/// metrics and events into it. The returned guard keeps sibling tests,
/// which run on other threads, from resetting or recording into the
/// recorder until the caller has read it back.
fn populate() -> (MutexGuard<'static, ()>, &'static MemoryRecorder) {
    static TURN: Mutex<()> = Mutex::new(());
    let turn = TURN.lock().unwrap_or_else(PoisonError::into_inner);
    let rec = recorder();
    rec.reset();
    on_recording_thread(|| {
        let _outer = rtcg_obs::span!("outer \"quoted\" name", "search");
        let _inner = rtcg_obs::span!("inner", "search");
        rtcg_obs::counter!("trace.counter", 3);
        rtcg_obs::gauge!("trace.gauge", -7);
        rtcg_obs::histogram!("trace.hist", 42);
        rtcg_obs::event!("trace.event\\with\\backslashes", "sim");
        rtcg_obs::event!("trace.plain_event", "sim", 99);
    });
    (turn, rec)
}

#[test]
fn chrome_trace_parses_with_serde_json() {
    let (_turn, rec) = populate();
    let json = rec.chrome_trace_json();
    let v: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
    assert_eq!(v["displayTimeUnit"], "ms");
    let events = v["traceEvents"].as_array().expect("traceEvents array");
    // 2 spans (ph:X) + 2 instant events (ph:i)
    assert_eq!(events.iter().filter(|e| e["ph"] == "X").count(), 2);
    assert_eq!(events.iter().filter(|e| e["ph"] == "i").count(), 2);
    for e in events {
        assert!(e["name"].is_string());
        assert!(e["cat"].is_string());
        assert!(e["ts"].is_number());
        assert_eq!(e["pid"], 1);
        assert_eq!(e["tid"], 1);
    }
    // escaping survived the round trip
    assert!(events.iter().any(|e| e["name"] == "outer \"quoted\" name"));
    assert!(events
        .iter()
        .any(|e| e["name"] == "trace.event\\with\\backslashes"));
}

#[test]
fn span_durations_are_microseconds_and_ordered() {
    let (_turn, rec) = populate();
    let json = rec.chrome_trace_json();
    let v: serde_json::Value = serde_json::from_str(&json).unwrap();
    let spans: Vec<&serde_json::Value> = v["traceEvents"]
        .as_array()
        .unwrap()
        .iter()
        .filter(|e| e["ph"] == "X")
        .collect();
    for s in &spans {
        assert!(s["dur"].as_u64().unwrap() >= 1, "dur floored to 1µs");
    }
    // the inner span completes (and is recorded) before the outer one
    let ix = |name: &str| {
        spans
            .iter()
            .position(|s| s["name"].as_str().unwrap().contains(name))
            .unwrap()
    };
    assert!(ix("inner") < ix("outer"));
}

#[test]
fn metrics_jsonl_lines_parse_individually() {
    let (_turn, rec) = populate();
    let jsonl = rec.metrics_jsonl();
    let mut types = std::collections::BTreeSet::new();
    for line in jsonl.lines() {
        let v: serde_json::Value = serde_json::from_str(line).expect("each line valid");
        types.insert(v["type"].as_str().expect("type tag").to_string());
        assert!(v["name"].is_string());
    }
    for t in ["counter", "gauge", "histogram", "span", "event"] {
        assert!(types.contains(t), "missing {t} line in:\n{jsonl}");
    }
}
