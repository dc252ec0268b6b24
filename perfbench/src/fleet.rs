//! `fleet`: cold batch analysis of a generated corpus on one engine.
//!
//! The chain, threepart and singleop families of `generate_corpus` are
//! finite; every distinct spec of theirs in a 5000-spec corpus of the
//! seed is analysed. Sixty of the distinct mok specs are drawn by the
//! seed. The random family has an unbounded heavy tail (about 8% of its
//! specs run the game solver for 0.1–2.6 s), so a seeded sample of any
//! affordable size would move the fleet time by ±15% from seed to seed;
//! its forty specs come from one fixed corpus instead. The seed also
//! sets the order of analysis. Each round is a fresh engine, one
//! `Engine::analyze` per spec, then the in-memory snapshot encode.

use std::collections::HashSet;
use std::time::Instant;

use rtcg_bench::generate_corpus;
use rtcg_core::feasibility::{find_feasible, game, quick_infeasible, SearchConfig};
use rtcg_core::heuristic::{generate_edf_schedule, pipeline_model, SplitStrategy, SynthesisConfig};
use rtcg_core::model::Model;
use rtcg_core::ModelError;
use rtcg_engine::fingerprint::{model_fingerprint, request_fingerprint, structure_fingerprint};
use rtcg_engine::{AnalysisMode, AnalysisReport, AnalysisRequest, Engine};
use rtcg_synth::error::SynthError;
use rtcg_synth::latency::latency_synthesize_with;

use crate::trace::Tracer;
use crate::{check_report, report_key, verdict_key, Checked, Rng, Workload};

const CORPUS: usize = 5000;
const MOK_SPECS: usize = 60;
const RANDOM_SPECS: usize = 40;
/// Seed of the fixed corpus the random-family specs come from.
const RANDOM_CORPUS_SEED: u64 = 0xF1EE7;

pub struct Fleet;

pub struct Spec {
    name: String,
    text: String,
}

pub struct Job {
    model: Model,
    req: AnalysisRequest,
}

pub struct Outputs {
    reports: Vec<Result<AnalysisReport, String>>,
    snapshot: Vec<u8>,
}

/// The per-family request mix of the corpus bench: heuristic for chain,
/// threepart and random; merged for mok; node-budgeted exact for
/// singleop, whose witness has length `2n`.
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

/// Distinct specs of the corpus of `seed` whose family is in `families`,
/// in corpus order.
fn distinct(count: usize, seed: u64, families: &[&str]) -> Vec<Spec> {
    let mut seen = HashSet::new();
    generate_corpus(count, seed)
        .into_iter()
        .filter(|s| families.iter().any(|f| s.name.starts_with(f)))
        .filter_map(|s| {
            let text = rtcg_lang::pretty::render_model(&s.model);
            seen.insert(text.clone())
                .then_some(Spec { name: s.name, text })
        })
        .collect()
}

impl Workload for Fleet {
    type Inputs = Vec<Spec>;
    type Prepared = Vec<Job>;
    type Outputs = Outputs;

    fn inputs(seed: u64) -> Vec<Spec> {
        let mut rng = Rng::new(seed);
        let (mut mok, mut specs): (Vec<Spec>, Vec<Spec>) =
            distinct(CORPUS, seed, &["chain", "threepart", "singleop", "mok"])
                .into_iter()
                .partition(|s| s.name.starts_with("mok"));
        rng.shuffle(&mut mok);
        specs.extend(mok.into_iter().take(MOK_SPECS));
        specs.extend(
            distinct(RANDOM_SPECS * 10, RANDOM_CORPUS_SEED, &["random"])
                .into_iter()
                .take(RANDOM_SPECS),
        );
        rng.shuffle(&mut specs);
        specs
    }

    fn setup(inputs: &Vec<Spec>, mut tracer: Option<&mut Tracer>) -> Vec<Job> {
        inputs
            .iter()
            .map(|s| {
                let model = crate::parse(&s.text, &mut tracer);
                let req = request_for(&s.name, &model);
                Job { model, req }
            })
            .collect()
    }

    fn round(_: &Vec<Spec>, jobs: &Vec<Job>, latencies: &mut Vec<f64>) -> (Vec<String>, Outputs) {
        let engine = Engine::new();
        let mut reports = Vec::with_capacity(jobs.len());
        for job in jobs {
            let t = Instant::now();
            let r = engine.analyze(&job.model, &job.req);
            latencies.push(t.elapsed().as_secs_f64());
            reports.push(r.map_err(|e| e.to_string()));
        }
        let (snapshot, _) = engine.snapshot_bytes(&[]).expect("snapshot encodes");
        let mut keys: Vec<String> = reports.iter().map(report_key).collect();
        let st = engine.stats();
        keys.push(format!(
            "hits {} misses {} evals {}/{} snapshot {} {:016x}",
            st.hits,
            st.misses,
            st.leaf_evals_computed,
            st.leaf_evals_saved,
            snapshot.len(),
            crate::digest(&[&snapshot])
        ));
        (keys, Outputs { reports, snapshot })
    }

    fn round_traced(specs: &Vec<Spec>, jobs: &Vec<Job>, tr: &mut Tracer) -> (Vec<String>, u64) {
        let engine = Engine::new();
        let mut keys = Vec::with_capacity(jobs.len());
        let mut mismatched = 0;
        for (k, (spec, job)) in specs.iter().zip(jobs).enumerate() {
            tr.op = k as u64;
            let (r, entry) = tr.span("engine.analyze_s", 0, || {
                engine.analyze(&job.model, &job.req)
            });
            let r = r.map_err(|e| e.to_string());
            keys.push(report_key(&r));
            let Ok(report) = r else { continue };
            tr.span("fingerprint.s", entry, || {
                let fp = (model_fingerprint(&job.model), request_fingerprint(&job.req));
                if job.req.mode == AnalysisMode::Exact {
                    (fp, structure_fingerprint(&job.model))
                } else {
                    (fp, 0)
                }
            });
            let replayed = match job.req.mode {
                AnalysisMode::Heuristic => {
                    replay_heuristic(tr, entry, &job.model, job.req.synthesis)
                }
                AnalysisMode::Merged => replay_merged(tr, entry, &job.model, job.req.synthesis),
                AnalysisMode::Exact => replay_exact(tr, entry, &job.model, job.req.search),
            };
            if replayed != verdict_key(&report.verdict) {
                eprintln!("perfbench: {}: replay reached `{replayed}`", spec.name);
                mismatched += 1;
            }
        }
        tr.op = jobs.len() as u64;
        let ((snapshot, _), _) = tr.span("snapshot.encode_s", 0, || {
            engine.snapshot_bytes(&[]).expect("snapshot encodes")
        });
        tr.count("snapshot.bytes", snapshot.len() as f64);
        let st = engine.stats();
        tr.count("engine.result_hits", st.hits as f64);
        tr.count("engine.result_misses", st.misses as f64);
        tr.count("memo.leaf_evals_computed", st.leaf_evals_computed as f64);
        tr.count("memo.leaf_evals_saved", st.leaf_evals_saved as f64);
        tr.count("memo.candidates", st.memo_candidates as f64);
        (keys, mismatched)
    }

    fn check(specs: &Vec<Spec>, jobs: &Vec<Job>, out: &Outputs) -> Checked {
        let mut c = Checked::default();
        let replay = Engine::new();
        let loaded = replay.load_snapshot_bytes(&out.snapshot, &mut []);
        if let Err(e) = &loaded {
            eprintln!("perfbench: snapshot does not load: {e}");
        }
        for ((spec, job), r) in specs.iter().zip(jobs).zip(&out.reports) {
            let verdict = r.as_ref().map_err(Clone::clone).and_then(|report| {
                let decided = check_report(&job.model, report)?;
                let built_feasible =
                    spec.name.starts_with("threepart") || spec.name.starts_with("singleop");
                if built_feasible
                    && matches!(report.verdict, rtcg_engine::Verdict::Infeasible { .. })
                {
                    return Err("a family built feasible was reported infeasible".into());
                }
                let warm = replay
                    .analyze(&job.model, &job.req)
                    .map_err(|e| e.to_string());
                let replayed = warm.as_ref().is_ok_and(|w| w.cached);
                if loaded.is_err() || !replayed || report_key(&warm) != report_key(r) {
                    return Err("snapshot replay differs".into());
                }
                Ok(decided)
            });
            match verdict {
                Ok(decided) => c.decided += decided as u64,
                Err(e) => {
                    eprintln!("perfbench: {}: {e}", spec.name);
                    c.failed += 1;
                }
            }
        }
        c
    }
}

/// The engine's heuristic path, call by call: the necessary conditions,
/// then `synthesize_with`'s strategies (EDF with the half and the wide
/// split, then the game), each candidate verified by the reference
/// check.
fn replay_heuristic(tr: &mut Tracer, parent: u32, model: &Model, cfg: SynthesisConfig) -> String {
    if let Some(proof) = bounds(tr, parent, model) {
        tr.count("bounds.proofs", 1.0);
        return format!("I {proof}");
    }
    // `synthesize_with` validates and re-runs the necessary conditions
    bounds(tr, parent, model);
    let (pipelined, _) = tr.span("heuristic.pipeline_s", parent, || pipeline_model(model));
    let pipelined = pipelined.expect("pipelining a valid model");
    if pipelined.all_unit_weight() {
        for (strategy, name) in [
            (SplitStrategy::Half, "edf-half"),
            (SplitStrategy::WidePeriod, "edf-wide"),
        ] {
            tr.count("heuristic.edf_tries", 1.0);
            let (s, _) = tr.span("heuristic.edf_s", parent, || {
                generate_edf_schedule(&pipelined.model, strategy, cfg.max_hyperperiod)
            });
            match s {
                Ok(s) => {
                    if verify(tr, parent, &pipelined.model, &s) {
                        tr.count("heuristic.edf_accepted", 1.0);
                        return format!("F {name} {:?}", s.actions());
                    }
                }
                Err(ModelError::Infeasible { .. } | ModelError::BudgetExhausted { .. }) => {}
                Err(e) => return format!("E {e}"),
            }
        }
    }
    if cfg.game_state_budget > 0 {
        let config = game::GameConfig {
            state_budget: cfg.game_state_budget,
            frontier: Default::default(),
        };
        let (outcome, _) = tr.span("game.s", parent, || {
            game::solve_game(&pipelined.model, config)
        });
        let outcome = outcome.expect("game on a valid model");
        tr.count("game.runs", 1.0);
        match &outcome {
            game::GameOutcome::Feasible {
                states_expanded, ..
            } => tr.count("game.states", *states_expanded as f64),
            game::GameOutcome::Infeasible { states_expanded } => {
                tr.count("game.states", *states_expanded as f64);
                tr.count("game.infeasible_proofs", 1.0);
            }
            game::GameOutcome::Unknown { states_expanded } => {
                tr.count("game.states", *states_expanded as f64);
                tr.count("game.budget_exhausted", 1.0);
            }
        }
        if let Some(s) = outcome.schedule() {
            if verify(tr, parent, &pipelined.model, s) {
                tr.count("game.useful", 1.0);
                return format!("F game {:?}", s.actions());
            }
        }
    }
    "U no strategy produced a verified feasible schedule".into()
}

fn bounds(tr: &mut Tracer, parent: u32, model: &Model) -> Option<String> {
    let (proof, _) = tr.span("bounds.s", parent, || quick_infeasible(model));
    proof
        .expect("bounds on a valid model")
        .map(|p| p.to_string())
}

fn verify(tr: &mut Tracer, parent: u32, model: &Model, s: &rtcg_core::StaticSchedule) -> bool {
    tr.count("schedule.verify_calls", 1.0);
    let (report, _) = tr.span("schedule.verify_s", parent, || s.feasibility(model));
    report.is_ok_and(|r| r.is_feasible())
}

fn replay_merged(tr: &mut Tracer, parent: u32, model: &Model, cfg: SynthesisConfig) -> String {
    if let Some(proof) = bounds(tr, parent, model) {
        tr.count("bounds.proofs", 1.0);
        return format!("I {proof}");
    }
    let (out, _) = tr.span("merged.s", parent, || latency_synthesize_with(model, cfg));
    match out {
        Ok(out) => format!("F {} {:?}", out.strategy, out.schedule.actions()),
        Err(SynthError::Model(ModelError::Infeasible { reason })) => format!("U {reason}"),
        Err(e) => format!("E {e}"),
    }
}

/// The exact search the engine runs, through the plain compiled checker:
/// same enumeration, verdict and counters. The engine's extra cost for
/// its memoized evaluator stays in its own self time.
pub fn replay_exact(tr: &mut Tracer, parent: u32, model: &Model, search: SearchConfig) -> String {
    let (out, _) = tr.span("exact.s", parent, || find_feasible(model, search));
    let out = out.expect("search on a valid model");
    tr.count("exact.nodes", out.nodes_visited as f64);
    tr.count("exact.candidates", out.candidates_checked as f64);
    match out.schedule {
        Some(s) => format!("F exact {:?}", s.actions()),
        None if out.exhausted_bound => format!(
            "I complete search: no feasible schedule of ≤ {} actions",
            search.max_len
        ),
        None => format!("U search budget of {} units exhausted", search.node_budget),
    }
}
