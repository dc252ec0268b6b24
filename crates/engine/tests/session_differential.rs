//! Differential pinning of long-lived sessions against cold analysis.
//!
//! A [`Session`]'s contract is that its state is *invisible*: after any
//! sequence of model deltas — retunes, weight edits,
//! element/channel/constraint add/remove — analyzing the resident model
//! through the session must be bit-identical (verdict, schedule, search
//! counters) to a cold `analyze_once` of the same model. These tests drive randomized delta
//! sequences through a session and check that contract after every
//! applied delta, plus the journal laws: replaying the journal onto the
//! base model reproduces the resident model, and undoing the whole
//! journal restores the base content.

use proptest::prelude::*;
use rtcg_core::feasibility::SearchConfig;
use rtcg_core::model::{Model, ModelBuilder};
use rtcg_core::task::TaskGraphBuilder;
use rtcg_core::{ConstraintId, ConstraintKind, ModelDelta, TimingConstraint};
use rtcg_engine::{analyze_once, AnalysisMode, AnalysisRequest, Engine, EngineOptions, Query};

/// Base model: `n` elements with single-op asynchronous constraints, a
/// 2-chain over the first two (when present), and a periodic beat on
/// the first. Deadlines straddle the feasibility boundary so delta
/// sequences flip verdicts.
fn base_model(elems: &[(u64, u64)]) -> Model {
    let mut b = ModelBuilder::new();
    let mut ids = Vec::new();
    for (i, &(w, d)) in elems.iter().enumerate() {
        let e = b.element(&format!("e{i}"), w);
        ids.push(e);
        let tg = TaskGraphBuilder::new().op("o", e).build().unwrap();
        b.asynchronous(&format!("c{i}"), tg, d + 4, d + 4);
    }
    if ids.len() >= 2 {
        b.channel(ids[0], ids[1]);
        let tg = TaskGraphBuilder::new()
            .op("x", ids[0])
            .op("y", ids[1])
            .edge("x", "y")
            .build()
            .unwrap();
        b.asynchronous("chain", tg, 9, 9);
    }
    let tg = TaskGraphBuilder::new().op("p", ids[0]).build().unwrap();
    b.periodic("beat", tg, 6, 4);
    b.build().expect("generated base model is valid")
}

/// One abstract edit, resolved against the current model right before
/// application (indices wrap, names are computed), so every generated
/// sequence is meaningful regardless of what earlier edits did.
#[derive(Debug, Clone)]
enum Edit {
    Retune { c: usize, d: u64, period: bool },
    Reweigh { e: usize, w: u64 },
    Grow { w: u64 },
    Shrink,
    Splice { a: usize, b: usize },
    Insert { c: usize, d: u64 },
    Remove { c: usize },
}

fn resolve(edit: &Edit, model: &Model, grown: &mut u32) -> Option<ModelDelta> {
    let n_constraints = model.constraints().len();
    let comm = model.comm();
    let names: Vec<String> = comm.elements().map(|(_, e)| e.name.clone()).collect();
    match edit {
        Edit::Retune { c, d, period } => {
            let constraint = ConstraintId::new((c % n_constraints) as u32);
            Some(if *period {
                ModelDelta::SetPeriod {
                    constraint,
                    period: 1 + d,
                }
            } else {
                ModelDelta::SetDeadline {
                    constraint,
                    deadline: 1 + d,
                }
            })
        }
        Edit::Reweigh { e, w } => Some(ModelDelta::SetWcet {
            element: names[e % names.len()].clone(),
            wcet: 1 + (w % 3),
        }),
        Edit::Grow { w } => {
            *grown += 1;
            Some(ModelDelta::AddElement {
                name: format!("g{grown}"),
                wcet: 1 + (w % 2),
                pipelinable: true,
            })
        }
        // remove the most recently grown element still present: it has
        // no channels and no constraint references, so the only legal
        // removal target without bookkeeping
        Edit::Shrink => names
            .iter()
            .rfind(|n| n.starts_with('g'))
            .map(|n| ModelDelta::RemoveElement { name: n.clone() }),
        Edit::Splice { a, b } => {
            let (a, b) = (a % names.len(), b % names.len());
            if a == b {
                return None;
            }
            let (fa, fb) = (
                comm.lookup(&names[a]).unwrap(),
                comm.lookup(&names[b]).unwrap(),
            );
            if comm.has_channel(fa, fb) {
                Some(ModelDelta::RemoveChannel {
                    from: names[a].clone(),
                    to: names[b].clone(),
                })
            } else {
                Some(ModelDelta::AddChannel {
                    from: names[a].clone(),
                    to: names[b].clone(),
                    label: None,
                })
            }
        }
        Edit::Insert { c, d } => {
            let target = comm.lookup(&names[c % names.len()]).unwrap();
            let tg = TaskGraphBuilder::new().op("q", target).build().unwrap();
            Some(ModelDelta::AddConstraint {
                at: c % (n_constraints + 1),
                constraint: Box::new(TimingConstraint {
                    name: format!("ins{c}"),
                    task: tg,
                    period: 4 + d,
                    deadline: 4 + d,
                    kind: ConstraintKind::Asynchronous,
                }),
            })
        }
        Edit::Remove { c } => {
            // keep at least one constraint so analyses stay meaningful
            (n_constraints >= 2).then(|| ModelDelta::RemoveConstraint {
                at: c % n_constraints,
            })
        }
    }
}

fn edit_strategy() -> impl Strategy<Value = Edit> {
    // weighted dispatch over the edit kinds (retunes and reweighs are
    // the common interactive traffic, so they dominate)
    (0usize..12, 0usize..8, 0usize..8, 1u64..=12, any::<bool>()).prop_map(
        |(kind, a, b, d, flag)| match kind {
            0..=2 => Edit::Retune {
                c: a,
                d,
                period: flag,
            },
            3 | 4 => Edit::Reweigh { e: a, w: d },
            5 => Edit::Grow { w: d },
            6 => Edit::Shrink,
            7 | 8 => Edit::Splice { a, b },
            9 | 10 => Edit::Insert { c: a, d },
            _ => Edit::Remove { c: a },
        },
    )
}

fn exact_query(max_len: usize) -> Query {
    Query {
        mode: AnalysisMode::Exact,
        search: SearchConfig {
            max_len,
            node_budget: 200_000,
        },
        ..Query::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// After every applied delta, the session's warm analysis is
    /// bit-identical to a cold `analyze_once` of the resident model;
    /// rejected deltas leave the resident content untouched.
    #[test]
    fn warm_sessions_are_bit_identical_to_cold_analysis(
        elems in prop::collection::vec((1u64..=2, 1u64..=6), 1..=3),
        edits in prop::collection::vec(edit_strategy(), 1..=6),
        max_len in 2usize..=4,
    ) {
        let base = base_model(&elems);
        let engine = Engine::new();
        let mut session = engine.open_session(base.clone()).unwrap();
        let query = exact_query(max_len);
        let req = AnalysisRequest::from_parts(&query, &EngineOptions::default());
        let mut grown = 0u32;

        for edit in &edits {
            let Some(delta) = resolve(edit, session.model(), &mut grown) else {
                continue;
            };
            let digest = session.model().content_digest();
            match session.apply(&delta) {
                Ok(_) => {}
                Err(_) => {
                    // rejected (weight past a deadline, duplicate
                    // channel, ...): the session must be untouched
                    prop_assert_eq!(session.model().content_digest(), digest);
                    continue;
                }
            }
            let warm = session.analyze(&query).unwrap();
            let cold = analyze_once(session.model(), &req).unwrap();
            prop_assert_eq!(warm.verdict.is_feasible(), cold.verdict.is_feasible());
            prop_assert_eq!(
                warm.verdict.schedule().map(|s| s.actions().to_vec()),
                cold.verdict.schedule().map(|s| s.actions().to_vec())
            );
            let (ws, cs) = (warm.search.unwrap(), cold.search.unwrap());
            prop_assert_eq!(ws.nodes_visited, cs.nodes_visited);
            prop_assert_eq!(ws.candidates_checked, cs.candidates_checked);
            prop_assert_eq!(ws.exhausted_bound, cs.exhausted_bound);
        }
    }

    /// Journal laws: replaying the journal onto the base model rebuilds
    /// the resident content, and undoing the whole journal restores the
    /// base content — and its verdicts.
    #[test]
    fn journal_replays_forward_and_inverts_backward(
        elems in prop::collection::vec((1u64..=2, 1u64..=6), 1..=3),
        edits in prop::collection::vec(edit_strategy(), 1..=8),
    ) {
        let base = base_model(&elems);
        let engine = Engine::new();
        let mut session = engine.open_session(base.clone()).unwrap();
        let query = exact_query(3);
        let baseline = session.analyze(&query).unwrap();
        let mut grown = 0u32;

        for edit in &edits {
            if let Some(delta) = resolve(edit, session.model(), &mut grown) {
                let _ = session.apply(&delta);
            }
        }

        // forward replay: journal ∘ base ≡ resident model (by content)
        let mut replay = base.clone();
        for delta in session.journal().cloned().collect::<Vec<_>>() {
            replay = delta.apply(&replay).unwrap();
        }
        prop_assert_eq!(
            replay.content_digest(),
            session.model().content_digest()
        );

        // backward: undo every journaled delta, recover the base
        while session.undo().unwrap().is_some() {}
        prop_assert_eq!(session.journal_len(), 0);
        prop_assert_eq!(
            session.model().content_digest(),
            base.content_digest()
        );
        let restored = session.analyze(&query).unwrap();
        prop_assert_eq!(
            baseline.verdict.schedule().map(|s| s.actions().to_vec()),
            restored.verdict.schedule().map(|s| s.actions().to_vec())
        );
    }
}
