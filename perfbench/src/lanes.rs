//! `lanes`: one client issuing two-lane queries, as
//! `rtcg analyze --lanes 2 [--exact]` does.
//!
//! Every model gets the exact canonical lane search; every third model
//! also gets the list-scheduling heuristic. The models are the chain
//! family at one and two chains around its deadline boundary, the
//! single-op family, `dual_core.rtcg`, and random-family specs with two
//! to four elements. Lane-search cost per spec has a long tail (σ/μ of
//! 0.9 to 1.8 within one element count), so a seeded sample of the
//! three- and four-element specs, which hold most of the time, moved
//! the round time by ±10% from seed to seed; those come from one fixed
//! corpus, while the seed draws the cheap two-element specs and sets
//! the order of the queries.

use std::time::Instant;

use rtcg_core::feasibility::{
    find_feasible, find_feasible_lanes, synthesize_lanes, used_elements, SearchConfig,
};
use rtcg_core::model::Model;
use rtcg_engine::fingerprint::{model_fingerprint, request_fingerprint};
use rtcg_engine::{AnalysisMode, AnalysisReport, AnalysisRequest, Engine, Verdict};

use crate::trace::Tracer;
use crate::{check_report, report_key, verdict_key, Checked, Workload};

const LANES: usize = 2;
/// Row bound and node budget of the exact lane search.
const SEARCH: SearchConfig = SearchConfig {
    max_len: 4,
    node_budget: 1_000_000,
};
/// Seed of the fixed corpus the three- and four-element specs come from.
const RANDOM_CORPUS_SEED: u64 = 0x1A7E5;

pub struct Lanes;

pub struct Query {
    name: String,
    model: usize,
    req: AnalysisRequest,
}

pub struct Prepared {
    models: Vec<Model>,
    queries: Vec<Query>,
}

pub struct Outputs {
    reports: Vec<Result<AnalysisReport, String>>,
}

/// Corpus size the random-family specs are drawn from. The lane search
/// allocates little, so generating this corpus sets the run's peak
/// resident set; a fixed size keeps that peak the same for every seed.
const CORPUS: usize = 4000;

/// The first distinct random-family specs of the corpus of `seed`,
/// `count` of them for each `(used elements, count)` quota.
fn random_specs(seed: u64, quota: &[(usize, usize)]) -> Vec<(String, String)> {
    let mut left: Vec<(usize, usize)> = quota.to_vec();
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for s in rtcg_bench::generate_corpus(CORPUS, seed) {
        if !s.name.starts_with("random") {
            continue;
        }
        let size = used_elements(&s.model).len();
        let Some(q) = left.iter_mut().find(|(u, n)| *u == size && *n > 0) else {
            continue;
        };
        let text = rtcg_lang::pretty::render_model(&s.model);
        if seen.insert(text.clone()) {
            q.1 -= 1;
            out.push((s.name, text));
        }
    }
    assert!(
        left.iter().all(|&(_, n)| n == 0),
        "the corpus holds too few random-family specs of some size"
    );
    out
}

impl Workload for Lanes {
    /// Name, spec text, and whether the model also gets a list query.
    type Inputs = Vec<(String, String, bool)>;
    type Prepared = Prepared;
    type Outputs = Outputs;

    fn inputs(seed: u64) -> Vec<(String, String, bool)> {
        let render = rtcg_lang::pretty::render_model;
        let mut specs = Vec::new();
        for (n, ds) in [(1usize, 3u64..=7), (2, 3..=12)] {
            for d in ds {
                let m = rtcg_hardness::families::chain_family_with_deadline(n, d);
                specs.push((format!("chain{n}_d{d}"), render(&m)));
            }
        }
        for n in 1..=4 {
            let m = rtcg_hardness::families::single_op_family(n);
            specs.push((format!("singleop{n}"), render(&m)));
        }
        specs.push((
            "dual_core".into(),
            std::fs::read_to_string("examples/specs/dual_core.rtcg")
                .expect("examples/specs/dual_core.rtcg"),
        ));
        // the costly sizes come from one fixed corpus, the cheapest from
        // the seed's (see the module docs)
        specs.extend(random_specs(RANDOM_CORPUS_SEED, &[(3, 120), (4, 60)]));
        specs.extend(random_specs(seed, &[(2, 40)]));
        let mut specs: Vec<(String, String, bool)> = specs
            .into_iter()
            .enumerate()
            .map(|(ix, (name, text))| (name, text, ix % 3 == 0))
            .collect();
        crate::Rng::new(seed).shuffle(&mut specs);
        specs
    }

    fn setup(inputs: &Vec<(String, String, bool)>, mut tracer: Option<&mut Tracer>) -> Prepared {
        let models: Vec<Model> = inputs
            .iter()
            .map(|(_, t, _)| crate::parse(t, &mut tracer))
            .collect();
        let mut queries = Vec::new();
        for (ix, (name, _, list)) in inputs.iter().enumerate() {
            let exact = AnalysisRequest {
                lanes: LANES,
                search: SEARCH,
                ..AnalysisRequest::exact()
            };
            queries.push(Query {
                name: format!("{name} exact"),
                model: ix,
                req: exact,
            });
            if *list {
                queries.push(Query {
                    name: format!("{name} list"),
                    model: ix,
                    req: AnalysisRequest {
                        mode: AnalysisMode::Heuristic,
                        ..exact
                    },
                });
            }
        }
        Prepared { models, queries }
    }

    fn round(
        _: &Self::Inputs,
        prep: &Prepared,
        latencies: &mut Vec<f64>,
    ) -> (Vec<String>, Outputs) {
        let engine = Engine::new();
        let mut reports = Vec::with_capacity(prep.queries.len());
        for q in &prep.queries {
            let t = Instant::now();
            let r = engine.analyze(&prep.models[q.model], &q.req);
            latencies.push(t.elapsed().as_secs_f64());
            reports.push(r.map_err(|e| e.to_string()));
        }
        let keys = reports.iter().map(report_key).collect();
        (keys, Outputs { reports })
    }

    fn round_traced(_: &Self::Inputs, prep: &Prepared, tr: &mut Tracer) -> (Vec<String>, u64) {
        let engine = Engine::new();
        let mut keys = Vec::with_capacity(prep.queries.len());
        let mut mismatched = 0;
        for (k, q) in prep.queries.iter().enumerate() {
            tr.op = k as u64;
            let model = &prep.models[q.model];
            let (r, entry) = tr.span("engine.analyze_s", 0, || engine.analyze(model, &q.req));
            let r = r.map_err(|e| e.to_string());
            keys.push(report_key(&r));
            let Ok(report) = r else { continue };
            tr.span("fingerprint.s", entry, || {
                (model_fingerprint(model), request_fingerprint(&q.req))
            });
            let replayed = if q.req.mode == AnalysisMode::Heuristic {
                let (s, _) = tr.span("lanes.list_s", entry, || synthesize_lanes(model, LANES));
                match s.expect("list scheduling on a valid model") {
                    Some(s) => {
                        tr.count("lanes.list_accepted", 1.0);
                        format!("L lane-list {:?}", s.rows())
                    }
                    None => format!(
                        "U lane list scheduling produced no verified {LANES}-lane schedule; rerun with --exact"
                    ),
                }
            } else {
                let (out, _) = tr.span("lanes.exact_s", entry, || {
                    find_feasible_lanes(model, LANES, SEARCH)
                });
                let out = out.expect("lane search on a valid model");
                tr.count("lanes.nodes", out.nodes_visited as f64);
                tr.count("lanes.candidates", out.candidates_checked as f64);
                tr.count("lanes.pruned", out.nodes_pruned as f64);
                match out.schedule {
                    Some(s) => format!("L lane-exact {:?}", s.rows()),
                    None if out.exhausted_bound => format!(
                        "I complete search: no feasible {LANES}-lane matrix with rows of ≤ {} actions",
                        SEARCH.max_len
                    ),
                    None => format!("U search budget of {} units exhausted", SEARCH.node_budget),
                }
            };
            if replayed != verdict_key(&report.verdict) {
                eprintln!("perfbench: {}: replay reached `{replayed}`", q.name);
                mismatched += 1;
            }
        }
        let st = engine.stats();
        tr.count("engine.result_hits", st.hits as f64);
        tr.count("engine.result_misses", st.misses as f64);
        (keys, mismatched)
    }

    fn check(_: &Self::Inputs, prep: &Prepared, out: &Outputs) -> Checked {
        let mut c = Checked::default();
        for (q, r) in prep.queries.iter().zip(&out.reports) {
            let model = &prep.models[q.model];
            let verdict = r.as_ref().map_err(Clone::clone).and_then(|report| {
                let decided = check_report(model, report)?;
                if matches!(report.verdict, Verdict::Infeasible { .. })
                    && find_feasible(model, SEARCH)
                        .map_err(|e| e.to_string())?
                        .schedule
                        .is_some()
                {
                    return Err("one lane schedules it within the row bound".into());
                }
                Ok(decided)
            });
            match verdict {
                Ok(decided) => c.decided += decided as u64,
                Err(e) => {
                    eprintln!("perfbench: {}: {e}", q.name);
                    c.failed += 1;
                }
            }
        }
        c
    }
}
