//! Cold-vs-warm fleet throughput over a generated corpus: the
//! persistent-snapshot tentpole's headline number.
//!
//! The workload models a nightly analysis fleet: ≥1000 seeded specs
//! from [`generate_corpus`] (chain / mok / 3-PARTITION / single-op /
//! random-DAG families) driven through [`Engine::analyze_batch`]. The
//! cold pass runs on a fresh engine and saves its memo to a snapshot
//! file; the warm pass loads that file into another fresh engine and
//! replays the identical batch — the `rtcg corpus run --cache-file`
//! flow, in-process.
//!
//! Before any timing the bench asserts **bit-identical reports**
//! (verdict, schedule, search counters, `groups_merged`) between the
//! cold and warm passes, and that every warm request was a result-memo
//! hit (zero misses, so nothing was analyzed). The
//! acceptance gate is a ≥3x aggregate models/sec speedup; measured
//! numbers go to `BENCH_corpus.json` at the repo root
//! (`RTCG_BENCH_OUT` overrides, `RTCG_BENCH_QUICK=1` shrinks the
//! corpus for CI smoke runs).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rtcg_bench::{generate_corpus, BenchReport, ScenarioRow};
use rtcg_core::feasibility::SearchConfig;
use rtcg_core::model::Model;
use rtcg_engine::batch::BatchOptions;
use rtcg_engine::{AnalysisMode, AnalysisRequest, Engine};
use std::time::Instant;

const SEED: u64 = 0xC0_0B5;

/// The per-family request mix: heuristic for the bulk ingest shapes,
/// merged on the mok sweeps, and a budgeted exact search on the
/// single-op family (small alphabet, witness length `2n`) so the
/// candidate-memo sections of the snapshot carry real weight.
fn request_for(name: &str, model: &Model) -> AnalysisRequest {
    if name.starts_with("mok") {
        AnalysisRequest {
            mode: AnalysisMode::Merged,
            ..AnalysisRequest::default()
        }
    } else if name.starts_with("singleop") {
        let n = model.constraints().len() - 1;
        AnalysisRequest {
            search: SearchConfig {
                max_len: 2 * n,
                node_budget: 50_000,
            },
            ..AnalysisRequest::exact()
        }
    } else {
        AnalysisRequest::default()
    }
}

fn assert_identical(cold: &rtcg_engine::AnalysisReport, warm: &rtcg_engine::AnalysisReport) {
    use rtcg_engine::Verdict::*;
    match (&cold.verdict, &warm.verdict) {
        (
            Feasible {
                schedule: sa,
                strategy: ta,
            },
            Feasible {
                schedule: sb,
                strategy: tb,
            },
        ) => {
            assert_eq!(ta, tb);
            assert_eq!(sa.actions(), sb.actions());
        }
        (Infeasible { reason: ra }, Infeasible { reason: rb })
        | (Unknown { reason: ra }, Unknown { reason: rb }) => assert_eq!(ra, rb),
        (va, vb) => panic!("verdict shape diverged: {va:?} vs {vb:?}"),
    }
    match (&cold.search, &warm.search) {
        (Some(sa), Some(sb)) => {
            assert_eq!(sa.nodes_visited, sb.nodes_visited);
            assert_eq!(sa.candidates_checked, sb.candidates_checked);
            assert_eq!(sa.exhausted_bound, sb.exhausted_bound);
        }
        (None, None) => {}
        (sa, sb) => panic!("search stats diverged: {sa:?} vs {sb:?}"),
    }
    assert_eq!(cold.groups_merged, warm.groups_merged);
}

fn bench_corpus(c: &mut Criterion) {
    let quick = rtcg_bench::report::quick();
    let count = if quick { 150 } else { 1000 };
    let specs = generate_corpus(count, SEED);
    let jobs: Vec<(Model, AnalysisRequest)> = specs
        .iter()
        .map(|s| (s.model.clone(), request_for(&s.name, &s.model)))
        .collect();
    let opts = BatchOptions {
        threads: 1,
        budget_ms: None,
    };

    // cold pass: fresh engine, then persist its memo
    let cold_engine = Engine::new();
    let cold_start = Instant::now();
    let cold_results = cold_engine.analyze_batch(&jobs, &opts);
    let cold_s = cold_start.elapsed().as_secs_f64();

    let snap_path = std::env::temp_dir().join("rtcg_bench_corpus.snap");
    let save = cold_engine.save_snapshot(&snap_path).unwrap();
    println!(
        "corpus: snapshot {} section(s), {} result entries, {} bytes",
        save.sections, save.result_entries, save.bytes
    );

    // warm pass: another fresh engine, primed only by the snapshot file
    let warm_engine = Engine::new();
    let load = warm_engine.load_snapshot(&snap_path).unwrap();
    assert_eq!(load.sections_skipped, 0, "nothing in the file is stale");
    assert_eq!(load.entries_skipped, 0);
    let warm_start = Instant::now();
    let warm_results = warm_engine.analyze_batch(&jobs, &opts);
    let warm_s = warm_start.elapsed().as_secs_f64();
    let _ = std::fs::remove_file(&snap_path);

    // the invariants: bit-identical reports, all hits
    assert_eq!(cold_results.len(), warm_results.len());
    for (i, (cold, warm)) in cold_results.iter().zip(&warm_results).enumerate() {
        match (&cold.report, &warm.report) {
            (Ok(a), Ok(b)) => {
                assert!(
                    b.cached,
                    "{}: warm request must be a memo hit",
                    specs[i].name
                );
                assert_identical(a, b);
            }
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
            (a, b) => panic!("{}: outcome diverged: {a:?} vs {b:?}", specs[i].name),
        }
    }
    let warm_stats = warm_engine.stats();
    assert_eq!(warm_stats.misses, 0);
    assert_eq!(warm_stats.snapshot.loads, 1);

    let speedup = cold_s / warm_s;
    println!(
        "corpus: {} specs — cold {:.0} models/s, warm {:.0} models/s — {:.1}x",
        count,
        count as f64 / cold_s,
        count as f64 / warm_s,
        speedup
    );

    // criterion-sample the warm replay (the steady-state fleet path);
    // the cold pass was timed once above — re-running it would re-warm
    // the shared engine and measure nothing
    let mut group = c.benchmark_group("corpus");
    group.sample_size(10);
    group.bench_function("warm_replay", |b| {
        b.iter(|| black_box(warm_engine.analyze_batch(&jobs, &opts)))
    });
    group.finish();

    let mut rep = BenchReport::new("corpus", "models_per_s");
    rep.aggregate("warm_vs_cold_speedup", speedup, 2);
    rep.row(
        ScenarioRow::new("generated_fleet")
            .int("specs", count as u64)
            .float("cold_s", cold_s, 9)
            .float("warm_s", warm_s, 9)
            .float("cold_models_per_s", count as f64 / cold_s, 2)
            .float("warm_models_per_s", count as f64 / warm_s, 2)
            .int("snapshot_bytes", save.bytes)
            .int("snapshot_sections", save.sections),
    );
    rep.write();

    assert!(
        speedup >= 3.0,
        "corpus: warm speedup {speedup:.2}x below the 3x acceptance gate"
    );
}

criterion_group!(benches, bench_corpus);
criterion_main!(benches);
