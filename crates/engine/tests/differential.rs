//! Differential pinning of the engine against cold analysis.
//!
//! The engine's contract is *bit-identity*: routing an analysis through
//! the engine and its result memo must produce exactly the verdict,
//! schedule, and search counters of a cold run. These tests pin that over randomized small
//! models and randomized deadline-edit sequences — the exact traffic
//! pattern sensitivity analysis generates.

use proptest::prelude::*;
use rtcg_core::feasibility::{find_feasible, SearchConfig};
use rtcg_core::heuristic::synthesize;
use rtcg_core::model::{Model, ModelBuilder};
use rtcg_core::sensitivity::{deadline_sensitivities_with, with_deadline};
use rtcg_core::task::TaskGraphBuilder;
use rtcg_core::ConstraintId;
use rtcg_engine::{AnalysisRequest, Engine, Verdict};
use rtcg_hardness::chain_family;

/// Small mixed model: 1–3 elements each with a single-op asynchronous
/// constraint, an optional 2-chain constraint, and an optional periodic
/// constraint on the first element. Deadlines straddle the feasibility
/// boundary so edit sequences flip verdicts.
fn build_model(elems: &[(u64, u64)], chain_d: Option<u64>, periodic_d: Option<u64>) -> Model {
    let mut b = ModelBuilder::new();
    let mut ids = Vec::new();
    for (i, &(w, d)) in elems.iter().enumerate() {
        let e = b.element(&format!("e{i}"), w);
        ids.push(e);
        let tg = TaskGraphBuilder::new().op("o", e).build().unwrap();
        b.asynchronous(&format!("c{i}"), tg, d, d);
    }
    if let (Some(d), true) = (chain_d, ids.len() >= 2) {
        b.channel(ids[0], ids[1]);
        let tg = TaskGraphBuilder::new()
            .op("x", ids[0])
            .op("y", ids[1])
            .chain(&["x", "y"])
            .build()
            .unwrap();
        b.asynchronous("chain", tg, d, d);
    }
    if let Some(d) = periodic_d {
        let tg = TaskGraphBuilder::new().op("p", ids[0]).build().unwrap();
        b.periodic("beat", tg, 6, d.min(6));
    }
    b.build().expect("generated model is valid")
}

/// `(elements, chain deadline, periodic deadline, edit sequence, max_len)`
#[allow(clippy::type_complexity)]
fn spec() -> impl Strategy<
    Value = (
        Vec<(u64, u64)>,
        Option<u64>,
        Option<u64>,
        Vec<(usize, u64)>,
        usize,
    ),
> {
    (
        prop::collection::vec((1u64..=2, 2u64..=9), 1..=3),
        (any::<bool>(), 4u64..=12),
        (any::<bool>(), 2u64..=6),
        prop::collection::vec((0usize..4, 1u64..=12), 0..=4),
        1usize..=5,
    )
        .prop_map(|(elems, (wc, cd), (wp, pd), edits, max_len)| {
            (elems, wc.then_some(cd), wp.then_some(pd), edits, max_len)
        })
}

/// Applies one `(constraint, deadline)` edit, wrapping the constraint
/// index into range; `None` when the edit is definitionally infeasible
/// (deadline below computation time).
fn apply_edit(model: &Model, ix: usize, d: u64) -> Option<Model> {
    let id = ConstraintId::new((ix % model.constraints().len()) as u32);
    with_deadline(model, id, d).expect("edit is structurally valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Exact mode through one persistent engine (memo-warm across the
    /// whole edit sequence) is bit-identical to a cold search per model:
    /// same schedule, same node and candidate counters.
    #[test]
    fn engine_exact_is_bit_identical_across_edits(
        (elems, chain_d, periodic_d, edits, max_len) in spec()
    ) {
        let mut req = AnalysisRequest::exact();
        req.search = SearchConfig { max_len, node_budget: u64::MAX / 2 };
        let engine = Engine::new();

        // materialize the whole edit trajectory up front
        let mut models = vec![build_model(&elems, chain_d, periodic_d)];
        for &(ix, d) in &edits {
            let last = models.last().expect("non-empty");
            if let Some(next) = apply_edit(last, ix, d) {
                models.push(next);
            }
        }

        for (step, model) in models.iter().enumerate() {
            let cold = find_feasible(model, req.search).unwrap();
            let report = engine.analyze(model, &req).unwrap();
            let stats = report.search.expect("exact mode reports stats");

            prop_assert_eq!(
                cold.schedule.as_ref(),
                report.verdict.schedule(),
                "schedule divergence at step {}", step
            );
            prop_assert_eq!(cold.nodes_visited, stats.nodes_visited, "step {}", step);
            prop_assert_eq!(cold.candidates_checked, stats.candidates_checked, "step {}", step);
            prop_assert_eq!(cold.exhausted_bound, stats.exhausted_bound, "step {}", step);
            match &report.verdict {
                Verdict::Feasible { .. } => prop_assert!(cold.schedule.is_some()),
                Verdict::FeasibleLanes { .. } => {
                    prop_assert!(false, "single-lane request produced a lane verdict")
                }
                Verdict::Infeasible { .. } => {
                    prop_assert!(cold.schedule.is_none() && cold.exhausted_bound)
                }
                Verdict::Unknown { .. } => {
                    prop_assert!(cold.schedule.is_none() && !cold.exhausted_bound)
                }
            }
        }

        // revisiting every model seen must serve identical reports from
        // the result memo (modulo the `cached` marker)
        for (i, m) in models.iter().enumerate() {
            let cold = find_feasible(m, req.search).unwrap();
            let report = engine.analyze(m, &req).unwrap();
            prop_assert!(report.cached, "revisit {} must be a cache hit", i);
            prop_assert_eq!(
                cold.schedule.as_ref(),
                report.verdict.schedule(),
                "revisit {} schedule divergence", i
            );
        }
    }

    /// Heuristic mode through the engine agrees with cold synthesis on
    /// the verdict and produces the same schedule when feasible.
    #[test]
    fn engine_heuristic_matches_cold_synthesize(
        (elems, chain_d, periodic_d, edits, _) in spec()
    ) {
        let req = AnalysisRequest::default();
        let engine = Engine::new();
        let mut model = build_model(&elems, chain_d, periodic_d);
        for &(ix, d) in &edits {
            let report = engine.analyze(&model, &req).unwrap();
            match (synthesize(&model), &report.verdict) {
                (Ok(out), Verdict::Feasible { schedule, strategy }) => {
                    prop_assert_eq!(&out.schedule, schedule);
                    prop_assert_eq!(out.strategy, *strategy);
                }
                (Err(_), Verdict::Infeasible { .. } | Verdict::Unknown { .. }) => {}
                (cold, verdict) => {
                    prop_assert!(
                        false,
                        "divergence: cold {:?} vs engine {:?}",
                        cold.map(|o| o.strategy),
                        verdict
                    );
                }
            }
            if let Some(next) = apply_edit(&model, ix, d) {
                model = next;
            }
        }
    }
}

/// A `min_feasible_deadline` sweep over the chain family through the
/// engine reaches the minima of cold per-probe searches.
#[test]
fn chain_family_sweep_matches_cold_minima() {
    let model = chain_family(2);
    let cfg = SearchConfig {
        max_len: 7,
        node_budget: 60_000_000,
    };

    let cold_rows = deadline_sensitivities_with(&model, &mut |m: &Model| -> Result<
        bool,
        rtcg_core::ModelError,
    > {
        Ok(find_feasible(m, cfg)?.schedule.is_some())
    })
    .unwrap();

    let mut req = AnalysisRequest::exact();
    req.search = cfg;
    let engine = Engine::new();
    let warm_rows = engine.deadline_sensitivities(&model, &req).unwrap();

    assert_eq!(cold_rows.len(), warm_rows.len());
    for (c, w) in cold_rows.iter().zip(&warm_rows) {
        assert_eq!(
            c.minimum_feasible, w.minimum_feasible,
            "sweep minima must match cold analysis ({})",
            c.name
        );
    }
}

/// The request fingerprint ignores thread count, so a sequential result
/// serves a parallel request — and vice versa — which is sound because
/// the parallel search replays the sequential one bit for bit.
#[test]
fn thread_count_shares_the_result_memo() {
    let model = chain_family(1);
    let mut req = AnalysisRequest::exact();
    req.search = SearchConfig {
        max_len: 4,
        node_budget: 60_000_000,
    };
    let engine = Engine::new();
    let seq = engine.analyze(&model, &req).unwrap();
    assert!(!seq.cached);
    req.threads = 4;
    let par = engine.analyze(&model, &req).unwrap();
    assert!(par.cached, "thread-count change must not force a re-run");
    assert_eq!(seq.verdict.schedule(), par.verdict.schedule());
}

/// Mode is part of the request fingerprint: heuristic and exact verdicts
/// for the same model are cached independently.
#[test]
fn mode_is_cached_independently() {
    let model = chain_family(1);
    let engine = Engine::new();
    let heuristic = engine.analyze(&model, &AnalysisRequest::default()).unwrap();
    let mut req = AnalysisRequest::exact();
    req.search = SearchConfig {
        max_len: 4,
        node_budget: 60_000_000,
    };
    let exact = engine.analyze(&model, &req).unwrap();
    assert!(
        !exact.cached,
        "exact must not be served from the heuristic entry"
    );
    assert_eq!(engine.stats().misses, 2);
    assert!(heuristic.verdict.is_feasible() && exact.verdict.is_feasible());
    assert_eq!(exact.search.expect("stats").candidates_checked, 1);
}
