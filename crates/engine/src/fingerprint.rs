//! Content fingerprinting of models and analysis requests.
//!
//! The engine's result memo is keyed by two 64-bit FNV-1a fingerprints:
//!
//! * [`model_fingerprint`] covers *everything* analysis can observe —
//!   elements (name, weight, pipelinability), channels, and constraints
//!   including their periods and deadlines. Two models with equal
//!   fingerprints get the same verdict.
//! * [`request_fingerprint`] covers every request field that can change
//!   a report.
//!
//! [`structure_fingerprint`] and [`sub_fingerprints`] are finer-grained
//! prints of the same content. The engine no longer uses them; they
//! stay public for callers that still compute them.
//!
//! Iteration orders are the model's own arena orders, which are
//! deterministic and shared by equal-content models built the same way.

use rtcg_core::constraint::ConstraintKind;
use rtcg_core::model::Model;

use crate::{AnalysisMode, AnalysisRequest};

/// Version of the fingerprint derivation scheme. Snapshot sections are
/// stamped with it at save time; a loader whose scheme differs skips
/// them (a recomputed fingerprint would key entries inconsistently with
/// the engine's live inserts). Bump whenever any hash in this module
/// changes what it covers or how.
///
/// v2: [`request_fingerprint`] covers the lane count.
pub const FP_SCHEMA_VERSION: u32 = 2;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Minimal FNV-1a accumulator; enough structure hashing for memo keys,
/// no dependency on `std::hash` trait plumbing.
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    pub(crate) fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Length-prefixed so `("ab","c")` and `("a","bc")` differ.
    pub(crate) fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

fn hash_model(h: &mut Fnv, model: &Model, with_timing: bool) {
    let comm = model.comm();
    h.u64(comm.element_count() as u64);
    for (id, e) in comm.elements() {
        h.u64(id.index() as u64);
        h.str(&e.name);
        h.u64(e.wcet);
        h.u64(e.pipelinable as u64);
    }
    for edge in comm.graph().edges() {
        h.u64(edge.from.index() as u64);
        h.u64(edge.to.index() as u64);
        match &edge.weight.label {
            Some(label) => {
                h.u64(1);
                h.str(label);
            }
            None => h.u64(0),
        }
    }
    h.u64(model.constraints().len() as u64);
    for c in model.constraints() {
        h.str(&c.name);
        h.u64(matches!(c.kind, ConstraintKind::Periodic) as u64);
        if with_timing {
            h.u64(c.period);
            h.u64(c.deadline);
        }
        h.u64(c.task.op_count() as u64);
        for (op_id, op) in c.task.ops() {
            h.u64(op_id.index() as u64);
            h.str(&op.label);
            h.u64(op.element.index() as u64);
        }
        for (u, v) in c.task.precedence_edges() {
            h.u64(u.index() as u64);
            h.u64(v.index() as u64);
        }
    }
}

/// Fingerprint of the full analyzable content of a model.
pub fn model_fingerprint(model: &Model) -> u64 {
    let mut h = Fnv::new();
    hash_model(&mut h, model, true);
    h.finish()
}

/// Fingerprint of a model's *structure*: everything except constraint
/// periods and deadlines. Invariant under the timing edits produced by
/// [`rtcg_core::sensitivity::with_deadline`] and
/// [`rtcg_core::sensitivity::with_scaled_deadlines`]. Not used by the
/// engine.
pub fn structure_fingerprint(model: &Model) -> u64 {
    let mut h = Fnv::new();
    hash_model(&mut h, model, false);
    h.finish()
}

/// Per-slice sub-fingerprints of one model: which part of the content a
/// delta touched, without diffing models structurally. Not used by the
/// engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubFingerprints {
    /// Per-constraint (declaration order): kind + task-graph content.
    /// Periods/deadlines excluded — retunes must not move these.
    pub constraints: Vec<u64>,
    /// Per comm-graph element region (arena order, live elements only):
    /// the element and its outgoing channels. Channel splices move only
    /// the endpoints' regions.
    pub regions: Vec<u64>,
    /// The element alphabet: every live element's id, name, weight and
    /// pipelinability. Any weight edit moves this.
    pub weights: u64,
}

/// Computes all sub-fingerprints of `model` in one pass.
pub fn sub_fingerprints(model: &Model) -> SubFingerprints {
    let comm = model.comm();
    let mut weights = Fnv::new();
    let mut regions = Vec::with_capacity(comm.element_count());
    for (id, e) in comm.elements() {
        weights.u64(id.index() as u64);
        weights.str(&e.name);
        weights.u64(e.wcet);
        weights.u64(e.pipelinable as u64);
        let mut r = Fnv::new();
        r.u64(id.index() as u64);
        r.str(&e.name);
        r.u64(e.wcet);
        r.u64(e.pipelinable as u64);
        for edge in comm.graph().out_edges(id) {
            r.u64(edge.to.index() as u64);
            match &edge.weight.label {
                Some(label) => {
                    r.u64(1);
                    r.str(label);
                }
                None => r.u64(0),
            }
        }
        regions.push(r.finish());
    }
    let constraints = model
        .constraints()
        .iter()
        .map(|c| {
            let mut h = Fnv::new();
            h.u64(matches!(c.kind, ConstraintKind::Periodic) as u64);
            h.u64(c.task.op_count() as u64);
            for (op_id, op) in c.task.ops() {
                h.u64(op_id.index() as u64);
                h.str(&op.label);
                h.u64(op.element.index() as u64);
            }
            for (u, v) in c.task.precedence_edges() {
                h.u64(u.index() as u64);
                h.u64(v.index() as u64);
            }
            h.finish()
        })
        .collect();
    SubFingerprints {
        constraints,
        regions,
        weights: weights.finish(),
    }
}

/// Fingerprint of the analysis request. `threads` is deliberately
/// excluded: the parallel search replays the sequential one bit for
/// bit, so thread count cannot change any observable result. The lane
/// count is included — an m-lane verdict says nothing about m′ lanes.
pub fn request_fingerprint(req: &AnalysisRequest) -> u64 {
    let mut h = Fnv::new();
    h.u64(match req.mode {
        AnalysisMode::Heuristic => 0,
        AnalysisMode::Merged => 1,
        AnalysisMode::Exact => 2,
    });
    h.u64(req.synthesis.max_hyperperiod);
    h.u64(req.synthesis.game_state_budget as u64);
    h.u64(req.search.max_len as u64);
    h.u64(req.search.node_budget);
    h.u64(req.lanes as u64);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtcg_core::sensitivity::with_deadline;
    use rtcg_core::ConstraintId;

    #[test]
    fn deadline_edit_changes_model_but_not_structure() {
        let (m, _) = rtcg_core::mok_example::default_model();
        let id = ConstraintId::new(0);
        let d = m.constraint(id).unwrap().deadline;
        let edited = with_deadline(&m, id, d + 1).unwrap().unwrap();
        assert_ne!(model_fingerprint(&m), model_fingerprint(&edited));
        assert_eq!(structure_fingerprint(&m), structure_fingerprint(&edited));
    }

    #[test]
    fn identical_rebuild_agrees() {
        let (m1, _) = rtcg_core::mok_example::default_model();
        let (m2, _) = rtcg_core::mok_example::default_model();
        assert_eq!(model_fingerprint(&m1), model_fingerprint(&m2));
        assert_eq!(structure_fingerprint(&m1), structure_fingerprint(&m2));
    }

    #[test]
    fn element_rename_changes_structure() {
        let mut b1 = rtcg_core::ModelBuilder::new();
        b1.element("a", 1);
        let mut b2 = rtcg_core::ModelBuilder::new();
        b2.element("b", 1);
        let m1 = b1.build().unwrap();
        let m2 = b2.build().unwrap();
        assert_ne!(structure_fingerprint(&m1), structure_fingerprint(&m2));
    }

    #[test]
    fn sub_fingerprints_isolate_delta_blast_radius() {
        use rtcg_core::ModelDelta;
        let (m, _) = rtcg_core::mok_example::default_model();
        let base = sub_fingerprints(&m);

        // deadline retune: nothing moves
        let id = ConstraintId::new(0);
        let d = m.constraint(id).unwrap().deadline;
        let edited = with_deadline(&m, id, d + 1).unwrap().unwrap();
        assert_eq!(base, sub_fingerprints(&edited));

        // weight retune: weights + that element's region move, no
        // constraint column moves (timing-independent task content)
        let name = m.comm().elements().next().unwrap().1.name.clone();
        let w = m.comm().wcet(m.comm().lookup(&name).unwrap()).unwrap();
        let heavier = ModelDelta::SetWcet {
            element: name,
            wcet: w + 1,
        }
        .apply(&m)
        .unwrap();
        let sub = sub_fingerprints(&heavier);
        assert_ne!(base.weights, sub.weights);
        assert_eq!(base.constraints, sub.constraints);
        assert_eq!(
            base.regions
                .iter()
                .zip(&sub.regions)
                .filter(|(a, b)| a != b)
                .count(),
            1
        );

        // constraint removal: the others' prints are stable under shift
        let popped = ModelDelta::RemoveConstraint { at: 0 }.apply(&m).unwrap();
        let sub = sub_fingerprints(&popped);
        assert_eq!(&base.constraints[1..], &sub.constraints[..]);
        assert_eq!(base.weights, sub.weights);
    }

    #[test]
    fn channel_splice_moves_only_source_region() {
        let mut b1 = rtcg_core::ModelBuilder::new();
        let a = b1.element("a", 1);
        let c = b1.element("c", 1);
        b1.channel(a, c);
        let m1 = b1.build().unwrap();
        let m2 = rtcg_core::ModelDelta::AddChannel {
            from: "c".into(),
            to: "a".into(),
            label: Some("fb".into()),
        }
        .apply(&m1)
        .unwrap();
        let (s1, s2) = (sub_fingerprints(&m1), sub_fingerprints(&m2));
        assert_eq!(s1.weights, s2.weights);
        assert_eq!(s1.regions[0], s2.regions[0], "a's region untouched");
        assert_ne!(s1.regions[1], s2.regions[1], "c grew an out-channel");
    }

    #[test]
    fn request_fingerprint_covers_lanes() {
        let mut r1 = AnalysisRequest::default();
        let r2 = AnalysisRequest {
            lanes: 2,
            ..Default::default()
        };
        assert_ne!(request_fingerprint(&r1), request_fingerprint(&r2));
        r1.lanes = 2;
        assert_eq!(request_fingerprint(&r1), request_fingerprint(&r2));
    }

    #[test]
    fn request_fingerprint_ignores_threads() {
        let mut r1 = AnalysisRequest::default();
        let mut r2 = AnalysisRequest::default();
        r1.threads = 1;
        r2.threads = 8;
        assert_eq!(request_fingerprint(&r1), request_fingerprint(&r2));
        r2.search.max_len = r1.search.max_len + 1;
        assert_ne!(request_fingerprint(&r1), request_fingerprint(&r2));
    }
}
