//! Reference figures for the benchmark's README; not benchmark metrics.
//!
//! `reference sweep` times `Engine::deadline_sensitivities` (exact,
//! `max_len` 8) on the paper's example at one and two search threads,
//! and the same probes through plain `find_feasible`.
//!
//! `reference batch <manifest>` analyses every spec of an
//! `rtcg analyze --batch` manifest in-process on one engine with the
//! default request, to set against the CLI's own time for the manifest.

use std::time::Instant;

use rtcg_core::feasibility::{find_feasible, SearchConfig};
use rtcg_core::model::Model;
use rtcg_core::sensitivity::deadline_sensitivities_with;
use rtcg_engine::{AnalysisRequest, Engine};

const REPEATS: usize = 7;

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn sweep() {
    let model = rtcg_core::mok_example::default_model().0;
    let search = SearchConfig {
        max_len: 8,
        ..SearchConfig::default()
    };
    for threads in [1, 2] {
        let req = AnalysisRequest {
            search,
            threads,
            ..AnalysisRequest::exact()
        };
        let mut times = Vec::new();
        let mut stats = None;
        let mut rows = Vec::new();
        for _ in 0..REPEATS {
            let engine = Engine::new();
            let t = Instant::now();
            rows = engine.deadline_sensitivities(&model, &req).expect("sweep");
            times.push(t.elapsed().as_secs_f64());
            stats = Some(engine.stats());
        }
        let st = stats.expect("at least one repeat");
        println!(
            "engine threads {threads}: {:.2} ms median of {REPEATS}; {} probes; leaf evals {} computed, {} saved; minima {:?}",
            median(times) * 1e3,
            st.misses,
            st.leaf_evals_computed,
            st.leaf_evals_saved,
            rows.iter().map(|r| r.minimum_feasible).collect::<Vec<_>>()
        );
    }
    let mut times = Vec::new();
    let mut probes = 0;
    let mut rows = Vec::new();
    for _ in 0..REPEATS {
        probes = 0;
        let t = Instant::now();
        rows = deadline_sensitivities_with(&model, &mut |m: &Model| {
            probes += 1;
            find_feasible(m, search).map(|o| o.schedule.is_some())
        })
        .expect("sweep");
        times.push(t.elapsed().as_secs_f64());
    }
    println!(
        "plain find_feasible: {:.2} ms median of {REPEATS}; {probes} probes; minima {:?}",
        median(times) * 1e3,
        rows.iter().map(|r| r.minimum_feasible).collect::<Vec<_>>()
    );
}

fn batch(manifest: &str) {
    let dir = std::path::Path::new(manifest)
        .parent()
        .expect("manifest directory");
    let text = std::fs::read_to_string(manifest).expect("manifest reads");
    let models: Vec<Model> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let path = l
                .split_once("\"spec\":\"")
                .and_then(|(_, rest)| rest.split_once('"'))
                .map_or(l, |(p, _)| p);
            let src = std::fs::read_to_string(dir.join(path)).expect("spec reads");
            rtcg_lang::parse_model(&src).expect("spec parses")
        })
        .collect();
    let engine = Engine::new();
    let req = AnalysisRequest::default();
    let t = Instant::now();
    for m in &models {
        std::hint::black_box(engine.analyze(m, &req).expect("analysis"));
    }
    println!(
        "in-process: {} specs in {:.3} s",
        models.len(),
        t.elapsed().as_secs_f64()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["sweep"] => sweep(),
        ["batch", manifest] => batch(manifest),
        _ => {
            eprintln!("usage: reference sweep | reference batch <manifest>");
            std::process::exit(2);
        }
    }
}
