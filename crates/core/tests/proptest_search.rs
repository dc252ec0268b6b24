//! Property tests for the exact-search stack: the canonicity predicate
//! against a brute-force oracle, the branch-and-bound search
//! (sequential and parallel) against the seed generate-and-filter
//! enumerator on randomized small models, and the three leaf evaluators
//! ([`CompiledChecker`], [`FeasibilityCache`], full cold analysis)
//! against each other on randomized candidate strings.
//!
//! Because `find_feasible` now runs on `CompiledChecker` and
//! `find_feasible_reference` is the seed's cold `StaticSchedule`
//! analysis, `branch_and_bound_matches_reference` doubles as an
//! end-to-end differential of the compiled leaf path: verdicts,
//! schedules, and counters must all survive the evaluator swap.

use proptest::prelude::*;
use rtcg_core::feasibility::exact::reference::find_feasible_reference;
use rtcg_core::feasibility::{
    find_feasible, find_feasible_parallel, find_feasible_with, CandidateEval, CompiledChecker,
    SearchConfig,
};
use rtcg_core::model::Model;
use rtcg_core::model::ModelBuilder;
use rtcg_core::schedule::{Action, FeasibilityCache, StaticSchedule};
use rtcg_core::task::TaskGraphBuilder;

/// Brute force: materialize every rotation and compare.
fn min_rotation_brute(s: &[usize]) -> bool {
    let n = s.len();
    (1..n).all(|shift| {
        let rotated: Vec<usize> = (0..n).map(|i| s[(i + shift) % n]).collect();
        s <= rotated.as_slice()
    })
}

/// Strategy: a small model of 1–3 unit/2-weight elements, each carrying
/// a single-op asynchronous constraint, plus (for 2+ elements) an
/// optional 2-chain constraint across the first two elements. Deadlines
/// straddle the feasibility boundary so both verdicts are exercised.
fn model_spec() -> impl Strategy<Value = (Vec<(u64, u64)>, Option<u64>, usize)> {
    (
        prop::collection::vec((1u64..=2, 2u64..=9), 1..=3),
        (any::<bool>(), 4u64..=12),
        1usize..=6,
    )
        .prop_map(|(elems, (with_chain, d), max_len)| (elems, with_chain.then_some(d), max_len))
}

fn build_model(elems: &[(u64, u64)], chain_deadline: Option<u64>) -> Model {
    let mut b = ModelBuilder::new();
    let mut ids = Vec::new();
    for (i, &(w, d)) in elems.iter().enumerate() {
        let e = b.element(&format!("e{i}"), w);
        ids.push(e);
        let tg = TaskGraphBuilder::new().op("o", e).build().unwrap();
        b.asynchronous(&format!("c{i}"), tg, d, d);
    }
    if let (Some(d), true) = (chain_deadline, ids.len() >= 2) {
        b.channel(ids[0], ids[1]);
        let tg = TaskGraphBuilder::new()
            .op("x", ids[0])
            .op("y", ids[1])
            .chain(&["x", "y"])
            .build()
            .unwrap();
        b.asynchronous("chain", tg, d, d);
    }
    b.build().expect("generated model is valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn canonicity_matches_brute_force(s in prop::collection::vec(0usize..=3, 1..=8)) {
        prop_assert_eq!(
            rtcg_core::feasibility::is_canonical_rotation(&s),
            min_rotation_brute(&s),
            "string {:?}", s
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn branch_and_bound_matches_reference((elems, chain_d, max_len) in model_spec()) {
        let model = build_model(&elems, chain_d);
        let cfg = SearchConfig { max_len, node_budget: u64::MAX / 2 };

        let bb = find_feasible(&model, cfg).unwrap();
        let rf = find_feasible_reference(&model, cfg).unwrap();

        // identical verdict and, when feasible, the identical
        // (lexicographically first) schedule
        prop_assert_eq!(
            bb.schedule.as_ref().map(|s| s.actions().to_vec()),
            rf.schedule.as_ref().map(|s| s.actions().to_vec())
        );
        prop_assert_eq!(bb.exhausted_bound, rf.exhausted_bound);
        // pruning never *adds* work
        prop_assert!(bb.candidates_checked <= rf.candidates_checked,
            "b&b checked {} candidates, reference {}",
            bb.candidates_checked, rf.candidates_checked);

        // the parallel search replays to the sequential result exactly
        for threads in [2usize, 4] {
            let par = find_feasible_parallel(&model, cfg, threads).unwrap();
            prop_assert_eq!(&bb.schedule, &par.schedule, "threads={}", threads);
            prop_assert_eq!(bb.exhausted_bound, par.exhausted_bound);
            prop_assert_eq!(bb.nodes_visited, par.nodes_visited);
            prop_assert_eq!(bb.nodes_pruned, par.nodes_pruned);
            prop_assert_eq!(bb.candidates_checked, par.candidates_checked);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Three-way leaf differential: for arbitrary candidate strings
    /// (including degenerate ones), the compiled checker, the cached
    /// checker, and the full cold analysis agree verdict-for-verdict —
    /// and error-for-error. One compiled checker is reused across the
    /// whole sequence, so its incremental prefix-diff sync is exercised
    /// against stateless evaluators.
    #[test]
    fn leaf_evaluators_agree(
        (elems, chain_d, _) in model_spec(),
        seqs in prop::collection::vec(prop::collection::vec(0usize..=3, 0..=6), 1..=12),
    ) {
        let model = build_model(&elems, chain_d);
        let used = rtcg_core::feasibility::used_elements(&model);
        let mut cache = FeasibilityCache::new(&model);
        let mut compiled = CompiledChecker::new(&model).unwrap();
        for seq in &seqs {
            let actions: Vec<Action> = seq
                .iter()
                .map(|&s| {
                    if s == 0 {
                        Action::Idle
                    } else {
                        Action::Run(used[(s - 1) % used.len()])
                    }
                })
                .collect();
            let cold = StaticSchedule::new(actions.clone()).feasibility(&model);
            let cached = cache.check(&model, &actions);
            let comp = CandidateEval::check(&mut compiled, &model, &actions);
            match (cold, cached, comp) {
                (Ok(report), Ok(a), Ok(b)) => {
                    prop_assert_eq!(report.is_feasible(), a, "cache vs cold on {:?}", actions);
                    prop_assert_eq!(a, b, "compiled vs cache on {:?}", actions);
                }
                (Err(_), Err(_), Err(_)) => {}
                (cold, cached, comp) => prop_assert!(
                    false,
                    "divergence on {:?}: {:?} vs {:?} vs {:?}",
                    actions, cold, cached, comp
                ),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Batched sibling verdicts are bit-identical to the scalar path:
    /// for a random prefix and a random lane set of width 1..=64 (tails
    /// may repeat symbols, so full-width batches occur on tiny
    /// alphabets), `check_batch` on a reused checker equals per-lane
    /// scalar `check` on a fresh one — verdicts and errors both.
    #[test]
    fn check_batch_matches_scalar_on_random_batches(
        (elems, chain_d, _) in model_spec(),
        batches in prop::collection::vec(
            (
                prop::collection::vec(0usize..=3, 0..=5),
                prop::collection::vec(0usize..=3, 1..=64),
            ),
            1..=6,
        ),
    ) {
        let model = build_model(&elems, chain_d);
        let used = rtcg_core::feasibility::used_elements(&model);
        let sym = |s: usize| {
            if s == 0 {
                Action::Idle
            } else {
                Action::Run(used[(s - 1) % used.len()])
            }
        };
        let mut batched = CompiledChecker::new(&model).unwrap();
        let mut scalar = CompiledChecker::new(&model).unwrap();
        let mut out = Vec::new();
        let mut buf = Vec::new();
        for (pfx, tls) in &batches {
            let prefix: Vec<Action> = pfx.iter().map(|&s| sym(s)).collect();
            let tails: Vec<Action> = tls.iter().map(|&s| sym(s)).collect();
            CandidateEval::check_batch(&mut batched, &model, &prefix, &tails, &mut out);
            prop_assert_eq!(out.len(), tails.len());
            for (lane, &tail) in tails.iter().enumerate() {
                buf.clear();
                buf.extend_from_slice(&prefix);
                buf.push(tail);
                let want = scalar.check(&buf);
                match (&out[lane], &want) {
                    (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "{:?} + {:?}", prefix, tail),
                    (Err(a), Err(b)) => prop_assert_eq!(a, b, "{:?} + {:?}", prefix, tail),
                    (got, want) => prop_assert!(
                        false,
                        "divergence on {:?} + {:?}: {:?} vs {:?}",
                        prefix, tail, got, want
                    ),
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Swapping the search's leaf evaluator between the compiled
    /// default and the cached baseline changes nothing observable:
    /// schedule, verdict, bound status, and all three counters are
    /// bit-identical.
    #[test]
    fn compiled_and_cached_searches_are_bit_identical(
        (elems, chain_d, max_len) in model_spec(),
    ) {
        let model = build_model(&elems, chain_d);
        let cfg = SearchConfig { max_len, node_budget: u64::MAX / 2 };
        let comp = find_feasible(&model, cfg).unwrap();
        let mut cache = FeasibilityCache::new(&model);
        let cached = find_feasible_with(&model, cfg, &mut cache).unwrap();
        prop_assert_eq!(&comp.schedule, &cached.schedule);
        prop_assert_eq!(comp.exhausted_bound, cached.exhausted_bound);
        prop_assert_eq!(comp.nodes_visited, cached.nodes_visited);
        prop_assert_eq!(comp.nodes_pruned, cached.nodes_pruned);
        prop_assert_eq!(comp.candidates_checked, cached.candidates_checked);
    }
}
