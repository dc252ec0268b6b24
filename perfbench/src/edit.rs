//! `edit`: one client editing resident sessions, the `rtcg serve`
//! delta/analyze loop.
//!
//! Six sessions hold `control_system.rtcg` (the paper's example),
//! `avionics.rtcg` and four hardness-family models, each with every
//! deadline tightened to just above its minimum feasible value. An
//! episode applies one delta and then undoes it; the delta and the undo
//! are each followed by an exact re-analysis, and each of the two is one
//! op. Every round runs the same episodes: per constraint, deadline
//! retunes from two below to three above its minimum feasible deadline
//! and, for periodic constraints, period retunes at that minimum and the
//! next two ticks; per session every ±1 wcet change that stays at least
//! 1, and per constraint one added copy and one removal.

use std::time::Instant;

use rtcg_core::delta::ModelDelta;
use rtcg_core::feasibility::{find_feasible, SearchConfig};
use rtcg_core::model::Model;
use rtcg_core::sensitivity::with_deadline;
use rtcg_core::ConstraintId;
use rtcg_engine::fingerprint::{model_fingerprint, request_fingerprint, sub_fingerprints};
use rtcg_engine::session::Session;
use rtcg_engine::{analyze_once, AnalysisReport, AnalysisRequest, EngineOptions, Query};

use crate::trace::Tracer;
use crate::{check_report, report_key, verdict_key, Checked, Rng, Workload};

/// Exact search bounds of every re-analysis: the row bound of the
/// deadline sweep, and a node budget no op reaches.
const SEARCH: SearchConfig = SearchConfig {
    max_len: 8,
    node_budget: 1_000_000,
};

/// Ticks above the minimum feasible deadline each session starts at.
const SLACK: u64 = 1;

pub struct Edit;

pub enum Step {
    Apply(ModelDelta),
    Undo,
}

pub struct Inputs {
    texts: Vec<String>,
    steps: Vec<(usize, Step)>,
}

pub struct Prepared {
    models: Vec<Model>,
    query: Query,
}

pub struct Outputs {
    ops: Vec<(Model, Result<AnalysisReport, String>)>,
}

fn spec(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The least deadline at which the exact search schedules constraint
/// `ix`, scanning up from its computation time.
fn min_feasible_deadline(model: &Model, ix: usize) -> u64 {
    let c = &model.constraints()[ix];
    let w = c.computation_time(model.comm()).expect("valid model");
    (w..c.deadline)
        .find(|&d| {
            with_deadline(model, ConstraintId::new(ix as u32), d)
                .expect("deadline edit")
                .is_some_and(|m| {
                    find_feasible(&m, SEARCH)
                        .expect("search")
                        .schedule
                        .is_some()
                })
        })
        .unwrap_or(c.deadline)
}

/// The model with each deadline in turn lowered to one tick above the
/// least the exact search still schedules: a design session working at
/// the feasibility boundary, where re-analysis has real search to do.
fn tighten(model: &Model) -> Model {
    let mut m = model.clone();
    for ix in 0..m.constraints().len() {
        let d = (min_feasible_deadline(&m, ix) + SLACK).min(m.constraints()[ix].deadline);
        m = with_deadline(&m, ConstraintId::new(ix as u32), d)
            .expect("deadline edit")
            .expect("at or above the computation time");
    }
    m
}

/// Valid when the edited model still validates.
fn valid(model: &Model, d: &ModelDelta) -> bool {
    d.apply(model).is_ok_and(|m| m.validate().is_ok())
}

/// The retune episodes and the structural episodes of one session.
fn episodes(model: &Model) -> (Vec<ModelDelta>, Vec<ModelDelta>) {
    let mut out = Vec::new();
    let mut structural = Vec::new();
    let n = model.constraints().len();
    let mins: Vec<u64> = (0..n).map(|ix| min_feasible_deadline(model, ix)).collect();
    for (ix, c) in model.constraints().iter().enumerate() {
        let constraint = ConstraintId::new(ix as u32);
        for off in 0..6 {
            let deadline = (mins[ix] + off).saturating_sub(2);
            if deadline != c.deadline {
                out.push(ModelDelta::SetDeadline {
                    constraint,
                    deadline,
                });
            }
        }
        if c.is_periodic() {
            for period in mins[ix]..mins[ix] + 3 {
                if period != c.period {
                    out.push(ModelDelta::SetPeriod { constraint, period });
                }
            }
        }
    }
    for (_, e) in model.comm().elements() {
        for wcet in [e.wcet + 1, e.wcet - 1] {
            if wcet > 0 {
                structural.push(ModelDelta::SetWcet {
                    element: e.name.clone(),
                    wcet,
                });
            }
        }
    }
    for (j, c) in model.constraints().iter().enumerate() {
        let mut copy = c.clone();
        copy.name = format!("{}-copy", c.name);
        copy.deadline = copy.deadline.min(mins[j]);
        structural.push(ModelDelta::AddConstraint {
            at: n,
            constraint: Box::new(copy),
        });
        if n > 1 {
            structural.push(ModelDelta::RemoveConstraint { at: j });
        }
    }
    out.retain(|d| valid(model, d));
    structural.retain(|d| valid(model, d));
    (out, structural)
}

fn step(s: &mut Session<'_>, step: &Step) -> Result<(), String> {
    match step {
        Step::Apply(d) => s.apply(d).map(drop),
        Step::Undo => s.undo().map(drop),
    }
    .map_err(|e| e.to_string())
}

impl Workload for Edit {
    type Inputs = Inputs;
    type Prepared = Prepared;
    type Outputs = Outputs;

    fn inputs(seed: u64) -> Inputs {
        let render = rtcg_lang::pretty::render_model;
        let three_partition = rtcg_hardness::three_partition::ThreePartition {
            items: vec![4, 4, 4],
            bound: 12,
        };
        let texts: Vec<String> = [
            // the paper's example (Figures 1-2), as the spec file states it
            spec("examples/specs/control_system.rtcg"),
            spec("examples/specs/avionics.rtcg"),
            render(&rtcg_hardness::families::chain_family_with_deadline(2, 8)),
            render(&rtcg_hardness::families::single_op_family(3)),
            render(&rtcg_hardness::families::single_op_family(4)),
            render(
                &rtcg_hardness::encode::encode_three_partition(&three_partition)
                    .expect("encoding is valid"),
            ),
        ]
        .iter()
        .map(|text| {
            render(&tighten(
                &rtcg_lang::parse_model(text).expect("spec parses"),
            ))
        })
        .collect();
        // Each session runs its retunes, then its structural edits, each
        // group in seeded order; the seed also interleaves the sessions.
        // Retunes keep the candidate memo and wcet edits clear it, so
        // grouping them keeps the memo's reach the same from seed to seed.
        let mut rng = Rng::new(seed);
        let mut queues: Vec<std::collections::VecDeque<ModelDelta>> = texts
            .iter()
            .map(|text| {
                let (mut retunes, mut structural) =
                    episodes(&rtcg_lang::parse_model(text).expect("spec parses"));
                rng.shuffle(&mut retunes);
                rng.shuffle(&mut structural);
                retunes.into_iter().chain(structural).collect()
            })
            .collect();
        let mut steps = Vec::new();
        let mut left: usize = queues.iter().map(|q| q.len()).sum();
        while left > 0 {
            // pick a session with probability proportional to its backlog
            let mut k = rng.below(left);
            let s = queues
                .iter()
                .position(|q| {
                    if k < q.len() {
                        true
                    } else {
                        k -= q.len();
                        false
                    }
                })
                .expect("a session with episodes left");
            let d = queues[s].pop_front().expect("non-empty");
            steps.push((s, Step::Apply(d)));
            steps.push((s, Step::Undo));
            left -= 1;
        }
        Inputs { texts, steps }
    }

    fn setup(inputs: &Inputs, mut tracer: Option<&mut Tracer>) -> Prepared {
        let models: Vec<Model> = inputs
            .texts
            .iter()
            .map(|t| crate::parse(t, &mut tracer))
            .collect();
        // opening sessions validates and fingerprints each model
        let engine = rtcg_engine::Engine::new();
        for m in &models {
            drop(engine.open_session(m.clone()).expect("session opens"));
        }
        Prepared {
            models,
            query: Query {
                search: SEARCH,
                ..Query::exact()
            },
        }
    }

    fn round(inputs: &Inputs, prep: &Prepared, latencies: &mut Vec<f64>) -> (Vec<String>, Outputs) {
        let engine = rtcg_engine::Engine::new();
        let mut sessions: Vec<Session<'_>> = prep
            .models
            .iter()
            .map(|m| engine.open_session(m.clone()).expect("session opens"))
            .collect();
        let mut ops = Vec::with_capacity(inputs.steps.len());
        for (ix, st) in &inputs.steps {
            let s = &mut sessions[*ix];
            let t = Instant::now();
            let r = step(s, st).and_then(|()| s.analyze(&prep.query).map_err(|e| e.to_string()));
            latencies.push(t.elapsed().as_secs_f64());
            ops.push((s.model().clone(), r));
        }
        let mut keys: Vec<String> = ops.iter().map(|(_, r)| report_key(r)).collect();
        let st = engine.stats();
        keys.push(format!(
            "hits {} misses {} evals {}/{}",
            st.hits, st.misses, st.leaf_evals_computed, st.leaf_evals_saved
        ));
        (keys, Outputs { ops })
    }

    fn round_traced(inputs: &Inputs, prep: &Prepared, tr: &mut Tracer) -> (Vec<String>, u64) {
        let engine = rtcg_engine::Engine::new();
        let mut sessions: Vec<Session<'_>> = prep
            .models
            .iter()
            .map(|m| engine.open_session(m.clone()).expect("session opens"))
            .collect();
        let req = AnalysisRequest::from_parts(&prep.query, &EngineOptions::default());
        let mut keys = Vec::with_capacity(inputs.steps.len());
        let mut mismatched = 0;
        for (k, (ix, st)) in inputs.steps.iter().enumerate() {
            tr.op = k as u64;
            let s = &mut sessions[*ix];
            let (applied, entry) = tr.span("session.apply_s", 0, || step(s, st));
            tr.span("fingerprint.s", entry, || {
                (sub_fingerprints(s.model()), model_fingerprint(s.model()))
            });
            let r = applied.and_then(|()| {
                let (r, entry) = tr.span("engine.analyze_s", 0, || s.analyze(&prep.query));
                tr.span("fingerprint.s", entry, || {
                    (model_fingerprint(s.model()), request_fingerprint(&req))
                });
                let r = r.map_err(|e| e.to_string())?;
                if !r.cached {
                    let replayed = crate::fleet::replay_exact(tr, entry, s.model(), SEARCH);
                    if replayed != verdict_key(&r.verdict) {
                        eprintln!("perfbench: edit op {k}: replay reached `{replayed}`");
                        mismatched += 1;
                    }
                }
                Ok(r)
            });
            keys.push(report_key(&r));
        }
        let st = engine.stats();
        tr.count("engine.result_hits", st.hits as f64);
        tr.count("engine.result_misses", st.misses as f64);
        tr.count("memo.leaf_evals_computed", st.leaf_evals_computed as f64);
        tr.count("memo.leaf_evals_saved", st.leaf_evals_saved as f64);
        let mut candidates = st.memo_candidates;
        for s in &sessions {
            let ss = s.stats();
            candidates += ss.memo_candidates;
            tr.count("session.slices_evicted", ss.slices_evicted as f64);
            tr.count("session.full_invalidations", ss.full_invalidations as f64);
        }
        tr.count("memo.candidates", candidates as f64);
        (keys, mismatched)
    }

    fn check(_: &Inputs, prep: &Prepared, out: &Outputs) -> Checked {
        let mut c = Checked::default();
        let req = AnalysisRequest::from_parts(&prep.query, &EngineOptions::default());
        for (k, (model, r)) in out.ops.iter().enumerate() {
            let verdict = r.as_ref().map_err(Clone::clone).and_then(|report| {
                let decided = check_report(model, report)?;
                let cold = analyze_once(model, &req).map_err(|e| e.to_string());
                if report_key(&cold) != report_key(r) {
                    return Err(format!("cold analysis reached {}", report_key(&cold)));
                }
                Ok(decided)
            });
            match verdict {
                Ok(decided) => c.decided += decided as u64,
                Err(e) => {
                    eprintln!("perfbench: edit op {k}: {e}");
                    c.failed += 1;
                }
            }
        }
        c
    }
}
