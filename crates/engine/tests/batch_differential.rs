//! Differential pinning of concurrent batch analysis against sequential
//! per-request analysis.
//!
//! [`Engine::analyze_batch`]'s contract: fanning requests across a
//! worker pool over one shared cache changes *nothing* about any
//! individual answer. Every undegraded report must be bit-identical to
//! a sequential [`analyze_once`] of the same `(model, request)` pair —
//! same verdict, same schedule actions, same search counters — and the
//! engine's hit/miss accounting must add up to exactly one analysis per
//! request.

use proptest::prelude::*;
use rtcg_core::feasibility::SearchConfig;
use rtcg_core::model::{Model, ModelBuilder};
use rtcg_core::sensitivity::with_deadline;
use rtcg_core::task::TaskGraphBuilder;
use rtcg_core::ConstraintId;
use rtcg_engine::batch::BatchOptions;
use rtcg_engine::{analyze_once, AnalysisMode, AnalysisRequest, Engine, Verdict};

/// Same generator shape as `tests/differential.rs`: 1–3 elements with
/// single-op asynchronous constraints, optional chain and periodic
/// constraints, deadlines straddling the feasibility boundary.
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
        prop::collection::vec((0usize..4, 1u64..=12), 0..=5),
        1usize..=5,
    )
        .prop_map(|(elems, (wc, cd), (wp, pd), edits, max_len)| {
            (elems, wc.then_some(cd), wp.then_some(pd), edits, max_len)
        })
}

/// The whole edit trajectory as a job list (deadline sweeps are the
/// batch workload: overlapping structures, repeated questions).
fn jobs_from(
    elems: &[(u64, u64)],
    chain_d: Option<u64>,
    periodic_d: Option<u64>,
    edits: &[(usize, u64)],
    req: AnalysisRequest,
) -> Vec<(Model, AnalysisRequest)> {
    let mut models = vec![build_model(elems, chain_d, periodic_d)];
    for &(ix, d) in edits {
        let last = models.last().expect("non-empty");
        let id = ConstraintId::new((ix % last.constraints().len()) as u32);
        if let Some(next) = with_deadline(last, id, d).expect("edit is structurally valid") {
            models.push(next);
        }
    }
    models.into_iter().map(|m| (m, req)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A 3-worker batch over a random edit trajectory yields reports
    /// bit-identical to sequential `analyze_once` per request, with
    /// exactly one hit-or-miss per request and no degradation (there is
    /// no budget to exhaust).
    #[test]
    fn batch_is_bit_identical_to_sequential(
        (elems, chain_d, periodic_d, edits, max_len) in spec()
    ) {
        let mut req = AnalysisRequest::exact();
        req.search = SearchConfig { max_len, node_budget: u64::MAX / 2 };
        let jobs = jobs_from(&elems, chain_d, periodic_d, &edits, req);

        let engine = Engine::new();
        let results = engine.analyze_batch(
            &jobs,
            &BatchOptions { threads: 3, budget_ms: None },
        );
        prop_assert_eq!(results.len(), jobs.len());

        for (i, (result, (model, req))) in results.iter().zip(&jobs).enumerate() {
            prop_assert!(!result.is_degraded(), "no budget, no degradation (job {})", i);
            let got = result.report.as_ref().expect("generated jobs analyze");
            let want = analyze_once(model, req).unwrap();

            prop_assert_eq!(
                got.verdict.schedule().map(|s| s.actions().to_vec()),
                want.verdict.schedule().map(|s| s.actions().to_vec()),
                "schedule divergence at job {}", i
            );
            prop_assert_eq!(
                std::mem::discriminant(&got.verdict),
                std::mem::discriminant(&want.verdict),
                "verdict shape divergence at job {}", i
            );
            let (gs, ws) = (got.search.unwrap(), want.search.unwrap());
            prop_assert_eq!(gs.nodes_visited, ws.nodes_visited, "job {}", i);
            prop_assert_eq!(gs.candidates_checked, ws.candidates_checked, "job {}", i);
            prop_assert_eq!(gs.exhausted_bound, ws.exhausted_bound, "job {}", i);
            prop_assert_eq!(got.groups_merged, want.groups_merged, "job {}", i);
        }

        // counter sanity: exactly one result-memo lookup per request
        let stats = engine.stats();
        prop_assert_eq!(
            stats.hits + stats.misses,
            jobs.len() as u64,
            "one analysis per request: {:?}", stats
        );
        // every model analyzed at least once, and no more misses than
        // distinct fingerprints (identical edit results may repeat)
        prop_assert!(stats.misses >= 1 && stats.misses <= jobs.len() as u64);
    }

    /// With a zero-millisecond budget, every request whose exact search
    /// is actually cut short degrades, and its report is bit-identical
    /// to a sequential *heuristic* analysis — the documented fallback.
    /// A request whose search concludes before ever observing the token
    /// (e.g. trivially infeasible at zero nodes) keeps its authoritative
    /// exact verdict, bit-identical to sequential.
    #[test]
    fn degraded_fallback_matches_sequential_heuristic(
        (elems, chain_d, periodic_d, edits, max_len) in spec()
    ) {
        let mut req = AnalysisRequest::exact();
        req.search = SearchConfig { max_len, node_budget: u64::MAX / 2 };
        let jobs = jobs_from(&elems, chain_d, periodic_d, &edits, req);

        let engine = Engine::new();
        let results = engine.analyze_batch(
            &jobs,
            &BatchOptions { threads: 2, budget_ms: Some(0) },
        );

        let fallback = AnalysisRequest { mode: AnalysisMode::Heuristic, threads: 1, ..req };
        for (i, (result, (model, req))) in results.iter().zip(&jobs).enumerate() {
            let got = result.report.as_ref().expect("generated jobs analyze");
            let want = if result.is_degraded() {
                let want = analyze_once(model, &fallback).unwrap();
                prop_assert!(got.search.is_none(), "fallback is heuristic (job {})", i);
                if let Verdict::Feasible { strategy, .. } = &got.verdict {
                    prop_assert!(*strategy != "exact", "job {}", i);
                }
                want
            } else {
                // the search never observed the expired token: its exact
                // verdict is authoritative and must never be Unknown
                prop_assert!(
                    !matches!(got.verdict, Verdict::Unknown { .. }),
                    "an undegraded zero-budget exact verdict is authoritative (job {})", i
                );
                analyze_once(model, req).unwrap()
            };
            prop_assert_eq!(
                got.verdict.schedule().map(|s| s.actions().to_vec()),
                want.verdict.schedule().map(|s| s.actions().to_vec()),
                "schedule divergence at job {} (degraded: {})", i, result.is_degraded()
            );
            prop_assert_eq!(
                std::mem::discriminant(&got.verdict),
                std::mem::discriminant(&want.verdict),
                "verdict divergence at job {} (degraded: {})", i, result.is_degraded()
            );
        }
    }
}
