//! Proptest round-trip pinning of the snapshot layer (DESIGN.md §14).
//!
//! The contract: `save → load` into a fresh engine is invisible to
//! callers except for speed. Replaying the exact request stream that
//! populated the saved engine must (a) hit the result memo on every
//! request, (b) produce bit-identical verdicts, schedules, search
//! counters, and `groups_merged`, and (c) account every replay as a
//! hit (zero misses) in `EngineStats`.

use proptest::prelude::*;
use rtcg_core::feasibility::SearchConfig;
use rtcg_core::model::{Model, ModelBuilder};
use rtcg_core::sensitivity::with_deadline;
use rtcg_core::task::TaskGraphBuilder;
use rtcg_core::ConstraintId;
use rtcg_engine::{AnalysisReport, AnalysisRequest, Engine};

/// Small mixed model (same shape as the differential tests): single-op
/// asynchronous constraints per element, an optional 2-chain, an
/// optional periodic beat. Deadlines straddle feasibility.
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

/// `(elements, chain deadline, periodic deadline, request stream)`
/// where each stream item is `(constraint ix, deadline, mode 0..3)`.
#[allow(clippy::type_complexity)]
fn spec() -> impl Strategy<
    Value = (
        Vec<(u64, u64)>,
        Option<u64>,
        Option<u64>,
        Vec<(usize, u64, u8)>,
    ),
> {
    (
        prop::collection::vec((1u64..=2, 2u64..=9), 1..=3),
        (any::<bool>(), 4u64..=12),
        (any::<bool>(), 2u64..=6),
        prop::collection::vec((0usize..4, 2u64..=12, 0u8..3), 1..=6),
    )
        .prop_map(|(elems, (wc, cd), (wp, pd), stream)| {
            (elems, wc.then_some(cd), wp.then_some(pd), stream)
        })
}

fn request_for(mode: u8) -> AnalysisRequest {
    match mode {
        0 => AnalysisRequest::default(),
        1 => AnalysisRequest {
            mode: rtcg_engine::AnalysisMode::Merged,
            ..AnalysisRequest::default()
        },
        _ => AnalysisRequest {
            search: SearchConfig {
                max_len: 4,
                node_budget: 60_000,
            },
            ..AnalysisRequest::exact()
        },
    }
}

/// Bit-identity of two reports, `cached` flag excluded.
fn assert_reports_identical(a: &AnalysisReport, b: &AnalysisReport) {
    use rtcg_engine::Verdict::*;
    match (&a.verdict, &b.verdict) {
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
    match (&a.search, &b.search) {
        (Some(sa), Some(sb)) => {
            assert_eq!(sa.nodes_visited, sb.nodes_visited);
            assert_eq!(sa.candidates_checked, sb.candidates_checked);
            assert_eq!(sa.exhausted_bound, sb.exhausted_bound);
        }
        (None, None) => {}
        (sa, sb) => panic!("search stats diverged: {sa:?} vs {sb:?}"),
    }
    assert_eq!(a.groups_merged, b.groups_merged);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn save_load_replay_is_bit_identical(
        (elems, chain_d, periodic_d, stream) in spec()
    ) {
        let base = build_model(&elems, chain_d, periodic_d);
        // materialize the request stream as (model, request) pairs:
        // each item probes a deadline-edited variant, the traffic
        // pattern sensitivity analysis generates
        let mut jobs: Vec<(Model, AnalysisRequest)> = Vec::new();
        for &(ix, d, mode) in &stream {
            let id = ConstraintId::new((ix % base.constraints().len()) as u32);
            let Some(model) = with_deadline(&base, id, d).expect("edit is structurally valid")
            else {
                continue;
            };
            jobs.push((model, request_for(mode)));
        }
        if jobs.is_empty() {
            // every edit was definitionally infeasible — nothing to pin
            continue;
        }

        let engine = Engine::new();
        let mut originals = Vec::new();
        for (model, req) in &jobs {
            originals.push(engine.analyze(model, req).expect("analysis succeeds"));
        }
        let (bytes, save) = engine.snapshot_bytes(&[]).unwrap();
        prop_assert!(save.sections > 0);

        let warm = Engine::new();
        let load = warm.load_snapshot_bytes(&bytes, &mut []).unwrap();
        prop_assert_eq!(load.sections_skipped, 0);
        prop_assert_eq!(load.sections_loaded, save.sections);
        prop_assert_eq!(load.entries_skipped, 0);
        prop_assert_eq!(load.results_inserted + load.results_present, save.result_entries);

        for ((model, req), original) in jobs.iter().zip(&originals) {
            let replay = warm.analyze(model, req).expect("replay succeeds");
            prop_assert!(replay.cached, "replay must be a result-memo hit");
            assert_reports_identical(original, &replay);
        }
        let stats = warm.stats();
        prop_assert_eq!(stats.hits, jobs.len() as u64);
        prop_assert_eq!(stats.misses, 0);
        prop_assert_eq!(stats.snapshot.loads, 1);

        // save-of-the-load reproduces the file byte for byte: the merge
        // lost nothing and invented nothing
        let (bytes2, _) = warm.snapshot_bytes(&[]).unwrap();
        prop_assert_eq!(bytes, bytes2);
    }
}

/// Files written while the engine still kept a candidate memo carry
/// kind-2 candidate sections in the same framing. Such a file still
/// loads: the old section is skipped and counted, and the result
/// sections replay as before.
#[test]
fn legacy_candidate_sections_are_skipped() {
    let (m, _) = rtcg_core::mok_example::default_model();
    let req = request_for(2);
    let engine = Engine::new();
    let original = engine.analyze(&m, &req).unwrap();
    let (bytes, save) = engine.snapshot_bytes(&[]).unwrap();

    // header: magic, u32 format version, u32 section count; splice one
    // kind-2 section right after it and bump the count
    let count_at = rtcg_engine::snapshot::MAGIC.len() + 4;
    let count = u32::from_le_bytes(bytes[count_at..count_at + 4].try_into().unwrap());
    let payload = b"an old candidate memo, never decoded";
    let mut legacy = bytes[..count_at].to_vec();
    legacy.extend_from_slice(&(count + 1).to_le_bytes());
    legacy.push(2);
    legacy.extend_from_slice(&rtcg_engine::fingerprint::FP_SCHEMA_VERSION.to_le_bytes());
    legacy.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    legacy.extend_from_slice(payload);
    legacy.extend_from_slice(&bytes[count_at + 4..]);

    let warm = Engine::new();
    let load = warm.load_snapshot_bytes(&legacy, &mut []).unwrap();
    assert_eq!(load.sections_skipped, 1);
    assert_eq!(load.sections_loaded, save.sections);
    let replay = warm.analyze(&m, &req).unwrap();
    assert!(replay.cached, "replay must be a result-memo hit");
    assert_reports_identical(&original, &replay);
}
