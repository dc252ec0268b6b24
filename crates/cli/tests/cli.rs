//! Black-box tests of the `rtcg` binary.

use std::process::Command;

const GOOD_SPEC: &str = r#"
    element fX wcet 1;
    element fS wcet 2;
    element fK wcet 1;
    channel fX -> fS; channel fS -> fK; channel fK -> fS;
    periodic xchain period 20 deadline 20 { op x: fX; op s: fS; op k: fK; x -> s -> k; }
    asynchronous burst period 30 deadline 12 { op s: fS; }
"#;

const INFEASIBLE_SPEC: &str = r#"
    element a wcet 2;
    element b wcet 2;
    asynchronous ca period 3 deadline 3 { op o: a; }
    asynchronous cb period 3 deadline 3 { op o: b; }
"#;

fn write_spec(content: &str) -> tempfile::NamedSpec {
    tempfile::NamedSpec::new(content)
}

/// Minimal stand-in for tempfile (not a dependency): unique files under
/// the target tmp dir, removed on drop.
mod tempfile {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    static COUNTER: AtomicU64 = AtomicU64::new(0);

    pub struct NamedSpec {
        pub path: PathBuf,
    }

    impl NamedSpec {
        pub fn new(content: &str) -> Self {
            let dir = std::env::temp_dir().join("rtcg-cli-tests");
            std::fs::create_dir_all(&dir).expect("tmp dir");
            let n = COUNTER.fetch_add(1, Ordering::SeqCst);
            let path = dir.join(format!("spec-{}-{n}.rtcg", std::process::id()));
            std::fs::write(&path, content).expect("write spec");
            NamedSpec { path }
        }

        pub fn path_str(&self) -> &str {
            self.path.to_str().expect("utf8 path")
        }
    }

    impl Drop for NamedSpec {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

fn rtcg(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_rtcg"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn check_accepts_good_spec() {
    let spec = write_spec(GOOD_SPEC);
    let out = rtcg(&["check", spec.path_str()]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("OK"));
    assert!(stdout.contains("xchain"));
    assert!(stdout.contains("necessary conditions pass"));
}

#[test]
fn check_warns_on_infeasible_spec() {
    let spec = write_spec(INFEASIBLE_SPEC);
    let out = rtcg(&["check", spec.path_str()]);
    assert!(out.status.success(), "check reports, it does not fail");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("certainly infeasible"));
}

#[test]
fn check_rejects_bad_syntax_with_position() {
    let spec = write_spec("element broken wcet;");
    let out = rtcg(&["check", spec.path_str()]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("expected"), "{stderr}");
    assert!(stderr.contains("1:"), "position missing: {stderr}");
}

#[test]
fn check_rejects_missing_file() {
    let out = rtcg(&["check", "/nonexistent/nope.rtcg"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn synthesize_produces_verified_schedule() {
    let spec = write_spec(GOOD_SPEC);
    let out = rtcg(&["synthesize", spec.path_str()]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("schedule:"));
    assert!(stdout.contains("OK"));
    assert!(!stdout.contains("VIOLATED"));
}

#[test]
fn synthesize_gantt_renders_rows() {
    let spec = write_spec(GOOD_SPEC);
    let out = rtcg(&["synthesize", spec.path_str(), "--gantt", "30"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("tick"), "{stdout}");
    assert!(stdout.contains('#'));
}

#[test]
fn synthesize_infeasible_exits_3() {
    let spec = write_spec(INFEASIBLE_SPEC);
    let out = rtcg(&["synthesize", spec.path_str()]);
    assert_eq!(out.status.code(), Some(3));
}

#[test]
fn simulate_meets_deadlines() {
    let spec = write_spec(GOOD_SPEC);
    let out = rtcg(&[
        "simulate",
        spec.path_str(),
        "--ticks",
        "2000",
        "--seed",
        "7",
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("all deadlines met"));
    assert!(stdout.contains("xchain"));
}

#[test]
fn simulate_requires_ticks() {
    let spec = write_spec(GOOD_SPEC);
    let out = rtcg(&["simulate", spec.path_str()]);
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn sensitivity_reports_minima() {
    let spec = write_spec(GOOD_SPEC);
    let out = rtcg(&["sensitivity", spec.path_str()]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("minimum d="));
    assert!(stdout.contains("uniform tightening"));
}

#[test]
fn dot_emits_graphviz() {
    let spec = write_spec(GOOD_SPEC);
    let out = rtcg(&["dot", spec.path_str()]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.starts_with("digraph"));
    assert!(stdout.contains("fS (2)"));
}

#[test]
fn codegen_emits_processes_and_table() {
    let spec = write_spec(GOOD_SPEC);
    let out = rtcg(&["codegen", spec.path_str()]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("process xchain"));
    assert!(stdout.contains("table-driven cyclic executor"));
}

#[test]
fn unknown_command_shows_usage() {
    let out = rtcg(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("usage"));
}

#[test]
fn help_prints_usage() {
    let out = rtcg(&["--help"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("synthesize"));
}

#[test]
fn merged_synthesis_flag() {
    // two same-period chains sharing fS: --merged must report a merge
    let spec = write_spec(
        r#"
        element fX wcet 1; element fY wcet 1; element fS wcet 2;
        channel fX -> fS; channel fY -> fS;
        periodic cx period 24 deadline 24 { op x: fX; op s: fS; x -> s; }
        periodic cy period 24 deadline 24 { op y: fY; op s: fS; y -> s; }
        "#,
    );
    let out = rtcg(&["synthesize", spec.path_str(), "--merged"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("1 group(s) merged"), "{stdout}");
}

#[test]
fn synthesize_exact_finds_schedule() {
    let spec = write_spec(GOOD_SPEC);
    let out = rtcg(&["synthesize", spec.path_str(), "--exact"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("exact search (1 thread"), "{stdout}");
    assert!(stdout.contains("schedule:"));
    assert!(stdout.contains("OK"));
    assert!(!stdout.contains("VIOLATED"));
}

#[test]
fn synthesize_exact_parallel_matches_sequential() {
    let spec = write_spec(GOOD_SPEC);
    let seq = rtcg(&["synthesize", spec.path_str(), "--exact"]);
    let par = rtcg(&["synthesize", spec.path_str(), "--exact", "--threads", "2"]);
    assert!(seq.status.success(), "{seq:?}");
    assert!(par.status.success(), "{par:?}");
    let schedule_line = |out: &std::process::Output| {
        String::from_utf8(out.stdout.clone())
            .unwrap()
            .lines()
            .find(|l| l.starts_with('['))
            .map(str::to_string)
            .expect("schedule line")
    };
    assert_eq!(schedule_line(&seq), schedule_line(&par));
}

#[test]
fn synthesize_exact_budget_exhaustion_exits_3() {
    let spec = write_spec(GOOD_SPEC);
    let out = rtcg(&[
        "synthesize",
        spec.path_str(),
        "--exact",
        "--budget",
        "1",
        "--max-len",
        "3",
    ]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("budget"), "{stderr}");
}

#[test]
fn profile_prints_metrics_tables() {
    let spec = write_spec(GOOD_SPEC);
    let out = rtcg(&["profile", spec.path_str()]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("counters:"), "{stdout}");
    assert!(stdout.contains("spans:"), "{stdout}");
    // acceptance: nonzero search-node and sim-tick counters
    let counter = |name: &str| -> u64 {
        stdout
            .lines()
            .find(|l| l.starts_with(name))
            .unwrap_or_else(|| panic!("missing counter {name}: {stdout}"))
            .split_whitespace()
            .last()
            .unwrap()
            .parse()
            .unwrap()
    };
    assert!(counter("search.nodes_expanded") > 0);
    assert!(counter("sim.ticks") > 0);
}

#[test]
fn profile_trace_out_writes_valid_json() {
    let spec = write_spec(GOOD_SPEC);
    let trace = spec.path.with_extension("trace.json");
    let out = rtcg(&[
        "profile",
        spec.path_str(),
        "--ticks",
        "200",
        "--trace-out",
        trace.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let body = std::fs::read_to_string(&trace).expect("trace file exists");
    std::fs::remove_file(&trace).ok();
    let v: serde_json::Value = serde_json::from_str(&body).expect("valid JSON");
    let events = v["traceEvents"].as_array().expect("traceEvents array");
    assert!(!events.is_empty());
}

#[test]
fn simulate_trace_out_round_trips() {
    let spec = write_spec(GOOD_SPEC);
    let trace = spec.path.with_extension("sim-trace.json");
    let out = rtcg(&[
        "simulate",
        spec.path_str(),
        "--ticks",
        "1000",
        "--trace-out",
        trace.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let body = std::fs::read_to_string(&trace).expect("trace file exists");
    std::fs::remove_file(&trace).ok();
    // serde_json round-trip: parse, re-serialize, parse again
    let v: serde_json::Value = serde_json::from_str(&body).expect("valid JSON");
    let again: serde_json::Value =
        serde_json::from_str(&serde_json::to_string(&v).unwrap()).unwrap();
    assert_eq!(v, again);
    let events = v["traceEvents"].as_array().expect("traceEvents array");
    assert!(events.iter().any(|e| e["ph"] == "X"), "has span events");
}

#[test]
fn simulate_metrics_prints_summary() {
    let spec = write_spec(GOOD_SPEC);
    let out = rtcg(&["simulate", spec.path_str(), "--ticks", "500", "--metrics"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("counters:"), "{stdout}");
    assert!(stdout.contains("sim.ticks"), "{stdout}");
}

#[test]
fn trace_out_requires_value() {
    let spec = write_spec(GOOD_SPEC);
    let out = rtcg(&["simulate", spec.path_str(), "--ticks", "100", "--trace-out"]);
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn profile_renders_percentiles_and_shard_columns() {
    let spec = write_spec(GOOD_SPEC);
    let out = rtcg(&["profile", spec.path_str(), "--ticks", "200"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    // histogram table: percentile columns in order
    let hist_header = stdout
        .lines()
        .find(|l| l.starts_with("histogram") && l.contains("count"))
        .unwrap_or_else(|| panic!("histogram table missing: {stdout}"));
    for col in ["count", "mean", "p50", "p90", "p99", "max"] {
        assert!(hist_header.contains(col), "missing column {col}: {stdout}");
    }
    // shard table: one row per shard plus the totals row
    assert!(stdout.contains("engine result-memo shards:"), "{stdout}");
    let shard_header = stdout
        .lines()
        .find(|l| l.starts_with("shard"))
        .expect("shard table header");
    for col in ["hits", "misses", "inserts", "poison", "occupancy"] {
        assert!(shard_header.contains(col), "missing column {col}: {stdout}");
    }
    for row in ["00", "07", "15", "all"] {
        assert!(
            stdout.lines().any(|l| l.starts_with(row)),
            "missing shard row {row}: {stdout}"
        );
    }
}

#[test]
fn profile_format_prom_emits_valid_exposition() {
    // four elements so the exact search must reach length-4 candidates:
    // deep enough that leaves go through the batched last row (the
    // unit prefix covers lengths up to 3 by itself).
    let spec = write_spec(
        r#"
        element a wcet 1;
        element b wcet 1;
        element c wcet 1;
        element d wcet 1;
        asynchronous ca period 8 deadline 8 { op o: a; }
        asynchronous cb period 8 deadline 8 { op o: b; }
        asynchronous cc period 8 deadline 8 { op o: c; }
        asynchronous cd period 8 deadline 8 { op o: d; }
    "#,
    );
    let out = rtcg(&["profile", spec.path_str(), "--format", "prom"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let start = stdout
        .find("# TYPE")
        .unwrap_or_else(|| panic!("no exposition in output: {stdout}"));
    let samples = rtcg_obs::validate_prometheus_text(&stdout[start..])
        .unwrap_or_else(|e| panic!("invalid exposition: {e:?}\n{stdout}"));
    assert!(samples > 0);
    // the shard family folds into labeled metrics
    assert!(
        stdout.contains("rtcg_engine_shard_occupancy{shard=\"00\"}"),
        "{stdout}"
    );
    assert!(
        stdout.contains("rtcg_search_leaf_eval_us{quantile=\"0.9\"}"),
        "{stdout}"
    );
    // leaf checks run batched: the last-row width gauge rides along
    assert!(stdout.contains("rtcg_search_leaf_batch_width"), "{stdout}");
}

#[test]
fn profile_rejects_unknown_format() {
    let spec = write_spec(GOOD_SPEC);
    let out = rtcg(&["profile", spec.path_str(), "--format", "yaml"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("--format"), "{stderr}");
}

#[test]
fn analyze_progress_ticker_reports_on_stderr() {
    let spec = write_spec(GOOD_SPEC);
    let out = rtcg(&["analyze", spec.path_str(), "--exact", "--progress"]);
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    // the ticker prints a final sample even when the search beats the
    // first tick, so this is deterministic
    assert!(stderr.contains("nodes/s"), "{stderr}");
    assert!(stderr.contains("prune"), "{stderr}");
}

#[test]
fn analyze_metrics_out_writes_valid_prometheus() {
    let spec = write_spec(GOOD_SPEC);
    let prom = spec.path.with_extension("metrics.prom");
    let out = rtcg(&[
        "analyze",
        spec.path_str(),
        "--exact",
        "--metrics-out",
        prom.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let body = std::fs::read_to_string(&prom).expect("metrics file exists");
    std::fs::remove_file(&prom).ok();
    let samples = rtcg_obs::validate_prometheus_text(&body)
        .unwrap_or_else(|e| panic!("invalid exposition: {e:?}\n{body}"));
    assert!(samples > 0);
    assert!(body.contains("rtcg_search_nodes_expanded"), "{body}");
}

#[test]
fn analyze_batch_metrics_out_includes_request_latency() {
    let spec = write_spec(GOOD_SPEC);
    let manifest = write_spec(&format!("{0}\n{0}\n", spec.path_str()));
    let prom = spec.path.with_extension("batch.prom");
    let out = rtcg(&[
        "analyze",
        "--batch",
        manifest.path_str(),
        "--threads",
        "2",
        "--metrics-out",
        prom.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let body = std::fs::read_to_string(&prom).expect("metrics file exists");
    std::fs::remove_file(&prom).ok();
    let samples = rtcg_obs::validate_prometheus_text(&body)
        .unwrap_or_else(|e| panic!("invalid exposition: {e:?}\n{body}"));
    assert!(samples > 0);
    // per-request latency histogram → summary with count 2
    assert!(body.contains("rtcg_engine_request_us_count 2"), "{body}");
    // queue-depth gauge drained to zero at batch end
    assert!(body.contains("rtcg_engine_batch_queue_depth 0"), "{body}");
}

#[test]
fn analyze_reports_verdict_and_cache_stats() {
    let spec = write_spec(GOOD_SPEC);
    let out = rtcg(&["analyze", spec.path_str(), "--cache-stats"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("feasible"), "{stdout}");
    assert!(stdout.contains("engine cache:"), "{stdout}");
}

#[test]
fn analyze_sweep_lists_every_constraint() {
    let spec = write_spec(GOOD_SPEC);
    let out = rtcg(&["analyze", spec.path_str(), "--sweep", "--cache-stats"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("deadline sensitivity sweep"), "{stdout}");
    assert!(stdout.contains("xchain"), "{stdout}");
    assert!(stdout.contains("burst"), "{stdout}");
    assert!(stdout.contains("maximum uniform tightening"), "{stdout}");
}

#[test]
fn analyze_infeasible_model_fails() {
    let spec = write_spec(INFEASIBLE_SPEC);
    let out = rtcg(&["analyze", spec.path_str()]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("infeasible"), "{stderr}");
}

#[test]
fn analyze_batch_reports_per_spec_verdicts_and_shares_cache() {
    let spec = write_spec(GOOD_SPEC);
    // the same spec three times over two workers: at most two requests
    // can miss the memo concurrently, so the third must hit it
    let manifest = write_spec(&format!(
        "# batch manifest\n{0}\n\n{0}\n{0}\n",
        spec.path_str()
    ));
    let out = rtcg(&[
        "analyze",
        "--batch",
        manifest.path_str(),
        "--threads",
        "2",
        "--cache-stats",
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("batch: 3 spec(s), 2 worker thread(s)"),
        "{stdout}"
    );
    assert!(stdout.matches("feasible").count() >= 3, "{stdout}");
    assert!(stdout.contains("summary: 3 feasible"), "{stdout}");
    let hits_line = stdout
        .lines()
        .find(|l| l.contains("engine cache:"))
        .expect("cache stats printed");
    assert!(
        !hits_line.contains("0 hit(s)"),
        "duplicate spec must hit: {stdout}"
    );
}

#[test]
fn analyze_batch_mixed_feasibility_exits_3() {
    let good = write_spec(GOOD_SPEC);
    let bad = write_spec(INFEASIBLE_SPEC);
    let manifest = write_spec(&format!("{}\n{}\n", good.path_str(), bad.path_str()));
    let out = rtcg(&["analyze", "--batch", manifest.path_str()]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("summary: 1 feasible, 1 infeasible"),
        "{stdout}"
    );
}

#[test]
fn analyze_batch_missing_manifest_exits_2() {
    let out = rtcg(&["analyze", "--batch", "/nonexistent/batch.txt"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn analyze_batch_without_manifest_is_usage_error() {
    let out = rtcg(&["analyze", "--batch"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("manifest"), "{stderr}");
}

#[test]
fn threads_zero_rejected_with_diagnostic() {
    let spec = write_spec(GOOD_SPEC);
    let out = rtcg(&["analyze", spec.path_str(), "--exact", "--threads", "0"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("--threads must be at least 1"), "{stderr}");
}

#[test]
fn budget_ms_zero_rejected_with_diagnostic() {
    let spec = write_spec(GOOD_SPEC);
    let manifest = write_spec(&format!("{}\n", spec.path_str()));
    let out = rtcg(&[
        "analyze",
        "--batch",
        manifest.path_str(),
        "--budget-ms",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("--budget-ms must be at least 1"),
        "{stderr}"
    );
}

#[test]
fn budget_zero_rejected_with_diagnostic() {
    let spec = write_spec(GOOD_SPEC);
    let out = rtcg(&["synthesize", spec.path_str(), "--exact", "--budget", "0"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("--budget must be at least 1"), "{stderr}");
}

/// A reader that closes the pipe before the output arrives (`rtcg …
/// | head`) ends the run quietly: exit 0, no panic message.
#[test]
fn closed_stdout_is_a_quiet_exit() {
    use std::io::Read;
    use std::process::Stdio;
    let spec = write_spec(GOOD_SPEC);
    for args in [
        vec!["analyze", spec.path_str(), "--exact", "--max-len", "6"],
        vec!["analyze", spec.path_str(), "--sweep", "--cache-stats"],
        vec!["dot", spec.path_str()],
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_rtcg"))
            .args(&args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary runs");
        // close the read end before the child writes its first line
        drop(child.stdout.take());
        let mut stderr = String::new();
        child
            .stderr
            .take()
            .expect("stderr piped")
            .read_to_string(&mut stderr)
            .expect("stderr reads");
        let status = child.wait().expect("child exits");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_ne!(status.code(), Some(101), "{args:?}: {stderr}");
        assert!(status.success(), "{args:?}: {status:?} {stderr}");
    }
}

#[test]
fn cache_file_flag_validates_eagerly() {
    let spec = write_spec(GOOD_SPEC);
    // a directory is never a snapshot file
    let dir = std::env::temp_dir();
    let out = rtcg(&[
        "analyze",
        spec.path_str(),
        "--cache-file",
        dir.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("is a directory"), "{stderr}");
    // a fresh file must at least land in an existing directory
    let out = rtcg(&[
        "analyze",
        spec.path_str(),
        "--cache-file",
        "/nonexistent-rtcg-dir/memo.snap",
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("does not exist"), "{stderr}");
    // and the flag needs a value at all
    let out = rtcg(&["analyze", spec.path_str(), "--cache-file"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
}

#[test]
fn analyze_cache_file_warms_the_second_run() {
    let spec = write_spec(GOOD_SPEC);
    let snap = spec.path.with_extension("snap");
    let args = [
        "analyze",
        spec.path_str(),
        "--cache-file",
        snap.to_str().unwrap(),
        "--cache-stats",
    ];
    let cold = rtcg(&args);
    assert!(cold.status.success(), "{cold:?}");
    let stdout = String::from_utf8(cold.stdout).unwrap();
    assert!(stdout.contains("starting cold"), "{stdout}");
    assert!(stdout.contains("cache: saved"), "{stdout}");
    assert!(snap.is_file(), "snapshot file written");

    let warm = rtcg(&args);
    std::fs::remove_file(&snap).ok();
    assert!(warm.status.success(), "{warm:?}");
    let stdout = String::from_utf8(warm.stdout).unwrap();
    assert!(stdout.contains("cache: loaded"), "{stdout}");
    assert!(stdout.contains("1 hit(s), 0 miss(es)"), "{stdout}");
}

#[test]
fn corpus_generate_then_run_replays_warm_from_cache() {
    let dir = std::env::temp_dir().join(format!("rtcg-corpus-test-{}", std::process::id()));
    let snap = dir.join("fleet.snap");
    let out = rtcg(&[
        "corpus",
        "generate",
        dir.to_str().unwrap(),
        "--count",
        "10",
        "--seed",
        "1",
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("wrote 10 spec(s)"), "{stdout}");
    assert!(dir.join("manifest.txt").is_file());
    // versioned manifest entries, one generated spec file per line
    let manifest = std::fs::read_to_string(dir.join("manifest.txt")).unwrap();
    let entries: Vec<&str> = manifest.lines().filter(|l| l.starts_with('{')).collect();
    assert_eq!(entries.len(), 10, "{manifest}");
    assert!(entries[0].starts_with("{\"v\":1,\"spec\":\""), "{manifest}");

    let args = [
        "corpus",
        "run",
        dir.to_str().unwrap(),
        "--cache-file",
        snap.to_str().unwrap(),
        "--cache-stats",
    ];
    let cold = rtcg(&args);
    // generated corpora deliberately straddle feasibility boundaries, so
    // exit 3 (some spec infeasible) is as valid as 0 — but never 1/2
    assert!(matches!(cold.status.code(), Some(0) | Some(3)), "{cold:?}");
    let cold_stdout = String::from_utf8(cold.stdout).unwrap();
    assert!(cold_stdout.contains("batch: 10 spec(s)"), "{cold_stdout}");
    assert!(cold_stdout.contains("cache: saved"), "{cold_stdout}");

    let warm = rtcg(&args);
    assert_eq!(
        warm.status.code(),
        cold.status.code(),
        "verdicts must replay"
    );
    let warm_stdout = String::from_utf8(warm.stdout).unwrap();
    assert!(warm_stdout.contains("cache: loaded"), "{warm_stdout}");
    assert!(
        warm_stdout.contains("10 hit(s), 0 miss(es)"),
        "warm corpus run must be all memo hits: {warm_stdout}"
    );
    // identical per-spec verdict lines, cold vs warm
    let verdicts = |s: &str| -> Vec<String> {
        s.lines()
            .filter(|l| l.trim_start().starts_with('/'))
            .map(|l| l.trim().to_string())
            .collect()
    };
    assert_eq!(verdicts(&cold_stdout), verdicts(&warm_stdout));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corpus_generation_is_deterministic_across_invocations() {
    let base = std::env::temp_dir().join(format!("rtcg-corpus-det-{}", std::process::id()));
    let (a, b) = (base.join("a"), base.join("b"));
    for d in [&a, &b] {
        let out = rtcg(&[
            "corpus",
            "generate",
            d.to_str().unwrap(),
            "--count",
            "5",
            "--seed",
            "7",
        ]);
        assert!(out.status.success(), "{out:?}");
    }
    let mut names: Vec<String> = std::fs::read_dir(&a)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert_eq!(names.len(), 6, "5 specs + manifest: {names:?}");
    for name in &names {
        let x = std::fs::read_to_string(a.join(name)).unwrap();
        let y = std::fs::read_to_string(b.join(name)).unwrap();
        // the manifest's comment header names the target directory;
        // everything else must be byte-identical
        let strip = |s: &str| -> Vec<String> {
            s.lines()
                .filter(|l| !l.starts_with('#'))
                .map(str::to_string)
                .collect()
        };
        assert_eq!(
            strip(&x),
            strip(&y),
            "regenerated corpus diverged at {name}"
        );
    }
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn corpus_usage_errors() {
    let out = rtcg(&["corpus"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let out = rtcg(&["corpus", "frobnicate"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    // running a directory that was never generated names the fix
    let empty = std::env::temp_dir().join(format!("rtcg-corpus-empty-{}", std::process::id()));
    std::fs::create_dir_all(&empty).unwrap();
    let out = rtcg(&["corpus", "run", empty.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("generate the corpus first"), "{stderr}");
    let _ = std::fs::remove_dir_all(&empty);
}

#[test]
fn profile_reports_snapshot_metrics_in_both_formats() {
    let spec = write_spec(GOOD_SPEC);
    let out = rtcg(&["profile", spec.path_str()]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("snapshot:"), "{stdout}");
    assert!(stdout.contains("round-tripped"), "{stdout}");
    // the counters table carries the engine.snapshot.* family
    assert!(stdout.contains("engine.snapshot.bytes"), "{stdout}");

    let out = rtcg(&["profile", spec.path_str(), "--format", "prom"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let start = stdout.find("# TYPE").expect("exposition present");
    rtcg_obs::validate_prometheus_text(&stdout[start..])
        .unwrap_or_else(|e| panic!("invalid exposition: {e:?}\n{stdout}"));
    for name in [
        "rtcg_engine_snapshot_save_us",
        "rtcg_engine_snapshot_load_us",
        "rtcg_engine_snapshot_bytes",
        "rtcg_engine_snapshot_sections_loaded",
        "rtcg_engine_snapshot_sections_skipped",
    ] {
        assert!(stdout.contains(name), "missing {name}: {stdout}");
    }
}

#[test]
fn analyze_lanes_two_schedules_what_one_cannot() {
    // two wcet-2 elements each demanding latency <= 3: provably
    // infeasible on one processor, trivially feasible on two lanes
    let spec = write_spec(INFEASIBLE_SPEC);
    let one = rtcg(&["analyze", spec.path_str(), "--exact", "--max-len", "3"]);
    assert_eq!(one.status.code(), Some(3), "{one:?}");
    let two = rtcg(&[
        "analyze",
        spec.path_str(),
        "--exact",
        "--max-len",
        "3",
        "--lanes",
        "2",
    ]);
    assert!(two.status.success(), "{two:?}");
    let stdout = String::from_utf8(two.stdout).unwrap();
    assert!(stdout.contains("lane-exact"), "{stdout}");
    assert!(stdout.contains("2 lanes"), "{stdout}");
    assert!(stdout.contains("lane 0"), "{stdout}");
    assert!(stdout.contains("lane 1"), "{stdout}");
}

#[test]
fn analyze_lanes_heuristic_verifies_its_schedule() {
    let spec = write_spec(INFEASIBLE_SPEC);
    let out = rtcg(&["analyze", spec.path_str(), "--lanes", "2"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("lane-list"), "{stdout}");
}

#[test]
fn analyze_lanes_one_is_the_scalar_path() {
    let spec = write_spec(GOOD_SPEC);
    let plain = rtcg(&["analyze", spec.path_str(), "--exact", "--max-len", "6"]);
    let one = rtcg(&[
        "analyze",
        spec.path_str(),
        "--exact",
        "--max-len",
        "6",
        "--lanes",
        "1",
    ]);
    assert_eq!(plain.status.code(), one.status.code());
    assert_eq!(plain.stdout, one.stdout, "--lanes 1 must change nothing");
}

#[test]
fn analyze_lanes_zero_is_a_usage_error() {
    let spec = write_spec(GOOD_SPEC);
    let out = rtcg(&["analyze", spec.path_str(), "--lanes", "0"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("--lanes"), "{stderr}");
}
