//! Long-lived analysis sessions: a resident model and a delta journal.
//!
//! A [`Session`] is the unit of interactive analysis (DESIGN.md §13).
//! It owns a resident [`Model`]:
//!
//! * [`Session::apply`] applies one [`ModelDelta`], records
//!   `(delta, inverse)` in the journal, and evicts the result-memo
//!   entries of the superseded model fingerprint from their shard
//!   (counted in [`crate::ShardStats::evictions`]).
//! * [`Session::analyze`] answers a [`Query`] through the engine's one
//!   canonical path; reports are bit-identical to a cold
//!   [`crate::analyze_once`] of the same model (the differential tests
//!   pin this).
//! * [`Session::undo`] pops the journal and applies the recorded
//!   inverse the same way, restoring the previous model content.
//!
//! Sessions borrow the [`Engine`]: every session shares the engine's
//! result memo (cross-session reuse), which is the engine's only cache.

use std::sync::atomic::Ordering;
use std::time::Duration;

use rtcg_core::delta::ModelDelta;
use rtcg_core::feasibility::{CancelToken, SearchConfig};
use rtcg_core::heuristic::SynthesisConfig;
use rtcg_core::model::Model;
use rtcg_core::ConstraintId;

use crate::fingerprint::model_fingerprint;
use crate::{AnalysisMode, AnalysisReport, AnalysisRequest, Engine, EngineError};

/// Session-level engine options — knobs that outlive any single query.
/// The per-query half of the old `AnalysisRequest` lives in [`Query`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineOptions {
    /// Worker threads for the exact search: `threads ≤ 1` runs the
    /// sequential compiled search, more runs the parallel one, which is
    /// replay-identical, so verdicts never differ.
    pub threads: usize,
    /// Wall-clock budget per analyze call, in milliseconds. A run whose
    /// budget fires returns its partial outcome (`Unknown` unless the
    /// search finished first) and is never memoized.
    pub budget_ms: Option<u64>,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            threads: 1,
            budget_ms: None,
        }
    }
}

/// Which constraints a query asks about.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum ConstraintSelection {
    /// Analyze the whole model.
    #[default]
    All,
    /// Analyze the model restricted to these constraints (a feasibility
    /// probe of a subsystem). The restriction is itself a model, so it
    /// keys the result memo by its own content — selection needs no
    /// extra fingerprint dimension.
    Only(Vec<ConstraintId>),
}

/// One analysis question: the per-call half of the old
/// `AnalysisRequest`. Session-level knobs (threads, budget) live in
/// [`EngineOptions`].
#[derive(Debug, Clone)]
pub struct Query {
    /// Pipeline selection.
    pub mode: AnalysisMode,
    /// Knobs for the heuristic strategies.
    pub synthesis: SynthesisConfig,
    /// Knobs for the exact search.
    pub search: SearchConfig,
    /// Constraint selection.
    pub selection: ConstraintSelection,
    /// Processor lanes (1 = the paper's single-processor analysis).
    pub lanes: usize,
}

impl Default for Query {
    fn default() -> Self {
        Query {
            mode: AnalysisMode::default(),
            synthesis: SynthesisConfig::default(),
            search: SearchConfig::default(),
            selection: ConstraintSelection::default(),
            lanes: 1,
        }
    }
}

impl Query {
    /// An exact-search query with default knobs.
    pub fn exact() -> Self {
        Query {
            mode: AnalysisMode::Exact,
            ..Query::default()
        }
    }
}

impl AnalysisRequest {
    /// Splits the legacy request into its per-call and session-level
    /// halves.
    pub fn split(&self) -> (Query, EngineOptions) {
        (
            Query {
                mode: self.mode,
                synthesis: self.synthesis,
                search: self.search,
                selection: ConstraintSelection::All,
                lanes: self.lanes,
            },
            EngineOptions {
                threads: self.threads,
                budget_ms: None,
            },
        )
    }

    /// Reassembles a legacy request from the split halves (selection is
    /// not representable — the caller restricts the model instead).
    pub fn from_parts(query: &Query, options: &EngineOptions) -> Self {
        AnalysisRequest {
            mode: query.mode,
            synthesis: query.synthesis,
            search: query.search,
            threads: options.threads,
            lanes: query.lanes,
        }
    }
}

/// What [`Session::apply`] did to the result memo, for telemetry and
/// tests.
#[derive(Debug, Clone, Copy)]
pub struct DeltaOutcome {
    /// The delta's [`ModelDelta::kind`] tag.
    pub kind: &'static str,
    /// Result-memo reports evicted (the superseded model fingerprint's
    /// shard slice).
    pub results_evicted: u64,
}

/// Cumulative per-session counters; see [`Session::stats`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionStats {
    /// Deltas applied (undos included).
    pub deltas_applied: u64,
    /// Current journal depth (undone entries popped).
    pub journal_len: usize,
    /// Analyze calls answered.
    pub analyses: u64,
    /// Always 0: sessions keep no candidate memo. Kept so callers that
    /// still read it compile.
    pub memo_candidates: u64,
    /// Always 0; see [`SessionStats::memo_candidates`].
    pub slices_evicted: u64,
    /// Result-memo reports evicted by deltas, cumulative.
    pub results_evicted: u64,
    /// Always 0; see [`SessionStats::memo_candidates`].
    pub full_invalidations: u64,
}

struct JournalRecord {
    delta: ModelDelta,
    inverse: ModelDelta,
}

/// A long-lived analysis session. Created by [`Engine::open_session`];
/// see the module docs for the lifecycle.
pub struct Session<'e> {
    engine: &'e Engine,
    options: EngineOptions,
    model: Model,
    model_fp: u64,
    journal: Vec<JournalRecord>,
    deltas_applied: u64,
    analyses: u64,
    results_evicted: u64,
}

impl Engine {
    /// Opens a session owning `model` with default options. The model
    /// is validated here.
    pub fn open_session(&self, model: Model) -> Result<Session<'_>, EngineError> {
        self.open_session_with(model, EngineOptions::default())
    }

    /// [`Engine::open_session`] with explicit options.
    pub fn open_session_with(
        &self,
        model: Model,
        options: EngineOptions,
    ) -> Result<Session<'_>, EngineError> {
        model.validate().map_err(EngineError::from)?;
        let model_fp = model_fingerprint(&model);
        self.open_sessions.fetch_add(1, Ordering::Relaxed);
        rtcg_obs::gauge!(
            "engine.session.resident_models",
            self.open_sessions.load(Ordering::Relaxed)
        );
        Ok(Session {
            engine: self,
            options,
            model,
            model_fp,
            journal: Vec::new(),
            deltas_applied: 0,
            analyses: 0,
            results_evicted: 0,
        })
    }
}

impl Drop for Session<'_> {
    fn drop(&mut self) {
        self.engine.open_sessions.fetch_sub(1, Ordering::Relaxed);
        rtcg_obs::gauge!(
            "engine.session.resident_models",
            self.engine.open_sessions.load(Ordering::Relaxed)
        );
    }
}

impl<'e> Session<'e> {
    /// The resident model.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// The engine this session shares result memos with.
    pub fn engine(&self) -> &'e Engine {
        self.engine
    }

    /// Session-level options (mutable: retune threads/budget mid-flight
    /// — neither affects verdicts, so no invalidation is needed).
    pub fn options_mut(&mut self) -> &mut EngineOptions {
        &mut self.options
    }

    /// Deltas recorded and not undone.
    pub fn journal_len(&self) -> usize {
        self.journal.len()
    }

    /// The journaled deltas, oldest first.
    pub fn journal(&self) -> impl Iterator<Item = &ModelDelta> + '_ {
        self.journal.iter().map(|r| &r.delta)
    }

    /// Applies one delta to the resident model: journal it, move the
    /// fingerprint, and evict the superseded model's result-memo
    /// entries. Errors leave the session untouched.
    pub fn apply(&mut self, delta: &ModelDelta) -> Result<DeltaOutcome, EngineError> {
        let inverse = delta.invert(&self.model).map_err(EngineError::from)?;
        let outcome = self.shift(delta)?;
        self.journal.push(JournalRecord {
            delta: delta.clone(),
            inverse,
        });
        Ok(outcome)
    }

    /// Undoes the most recent journaled delta by applying its recorded
    /// inverse (with the same result-memo eviction). Returns the undone
    /// delta, or `None` on an empty journal.
    pub fn undo(&mut self) -> Result<Option<ModelDelta>, EngineError> {
        let Some(rec) = self.journal.pop() else {
            return Ok(None);
        };
        match self.shift(&rec.inverse) {
            Ok(_) => Ok(Some(rec.delta)),
            Err(e) => {
                // an inverse is applied to exactly the state its
                // forward delta produced, so failure here is a bug —
                // restore the journal entry and surface it
                self.journal.push(rec);
                Err(e)
            }
        }
    }

    /// Shared delta machinery for [`Session::apply`] and
    /// [`Session::undo`]: rebuild the model and evict the superseded
    /// model's result-memo slice — the session will never ask about that
    /// content again, and bounded shard occupancy is part of the
    /// resident-daemon contract.
    fn shift(&mut self, delta: &ModelDelta) -> Result<DeltaOutcome, EngineError> {
        let new_model = delta.apply(&self.model).map_err(EngineError::from)?;
        let results_evicted = self.engine.evict_results(self.model_fp);
        self.model_fp = model_fingerprint(&new_model);
        self.model = new_model;
        self.deltas_applied += 1;
        self.results_evicted += results_evicted;
        rtcg_obs::counter!("engine.session.deltas_applied");
        Ok(DeltaOutcome {
            kind: delta.kind(),
            results_evicted,
        })
    }

    /// Answers a query about the resident model through the engine's
    /// canonical path. The report is bit-identical to a cold
    /// [`crate::analyze_once`] of the same model and query.
    pub fn analyze(&mut self, query: &Query) -> Result<AnalysisReport, EngineError> {
        self.analyses += 1;
        let req = AnalysisRequest::from_parts(query, &self.options);
        let token = self
            .options
            .budget_ms
            .map(|ms| CancelToken::with_deadline(Duration::from_millis(ms)));
        match &query.selection {
            ConstraintSelection::All => self.engine.run_query(&self.model, &req, token.as_ref()),
            ConstraintSelection::Only(ids) => {
                let restricted = restrict(&self.model, ids)?;
                self.engine.run_query(&restricted, &req, token.as_ref())
            }
        }
    }

    /// Current session counters.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            deltas_applied: self.deltas_applied,
            journal_len: self.journal.len(),
            analyses: self.analyses,
            memo_candidates: 0,
            slices_evicted: 0,
            results_evicted: self.results_evicted,
            full_invalidations: 0,
        }
    }
}

/// The model restricted to the selected constraints, renumbered in
/// selection-filtered declaration order.
fn restrict(model: &Model, ids: &[ConstraintId]) -> Result<Model, EngineError> {
    let mut keep = vec![false; model.constraints().len()];
    for id in ids {
        // bounds-check via the accessor so unknown ids name themselves
        model.constraint(*id).map_err(EngineError::from)?;
        keep[id.index()] = true;
    }
    let constraints = model
        .constraints()
        .iter()
        .enumerate()
        .filter(|(ix, _)| keep[*ix])
        .map(|(_, c)| c.clone())
        .collect();
    Model::new(model.comm().clone(), constraints).map_err(EngineError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze_once;
    use rtcg_core::time::Time;

    /// Chain model: fx(1) → fs(2), one async chain constraint plus one
    /// periodic beat on fs.
    fn chain_model(async_d: Time, per_d: Time) -> Model {
        let mut b = rtcg_core::ModelBuilder::new();
        let x = b.element("fx", 1);
        let s = b.element("fs", 2);
        b.channel(x, s);
        let tg = rtcg_core::TaskGraphBuilder::new()
            .op("x", x)
            .op("s", s)
            .edge("x", "s")
            .build()
            .unwrap();
        b.asynchronous("chain", tg, async_d, async_d);
        let single = rtcg_core::TaskGraphBuilder::new()
            .op("s", s)
            .build()
            .unwrap();
        b.periodic("beat", single, 6, per_d);
        b.build().unwrap()
    }

    fn exact_query() -> Query {
        Query {
            search: SearchConfig {
                max_len: 6,
                node_budget: 500_000,
            },
            ..Query::exact()
        }
    }

    #[test]
    fn session_reports_match_cold_analysis() {
        let engine = Engine::new();
        let mut s = engine.open_session(chain_model(7, 5)).unwrap();
        let q = exact_query();
        let deltas = [
            ModelDelta::SetDeadline {
                constraint: ConstraintId::new(0),
                deadline: 6,
            },
            ModelDelta::SetPeriod {
                constraint: ConstraintId::new(1),
                period: 4,
            },
            ModelDelta::SetWcet {
                element: "fx".into(),
                wcet: 2,
            },
        ];
        for d in &deltas {
            s.apply(d).unwrap();
            let warm = s.analyze(&q).unwrap();
            let req = AnalysisRequest::from_parts(&q, &EngineOptions::default());
            let cold = analyze_once(s.model(), &req).unwrap();
            assert_eq!(warm.verdict.is_feasible(), cold.verdict.is_feasible());
            assert_eq!(
                warm.verdict.schedule().map(|x| x.actions().to_vec()),
                cold.verdict.schedule().map(|x| x.actions().to_vec())
            );
            let (ws, cs) = (warm.search.unwrap(), cold.search.unwrap());
            assert_eq!(ws.nodes_visited, cs.nodes_visited);
            assert_eq!(ws.candidates_checked, cs.candidates_checked);
            assert_eq!(ws.exhausted_bound, cs.exhausted_bound);
        }
    }

    #[test]
    fn undo_restores_content_and_verdicts() {
        let engine = Engine::new();
        let mut s = engine.open_session(chain_model(7, 5)).unwrap();
        let digest0 = s.model().content_digest();
        let baseline = s.analyze(&exact_query()).unwrap();
        s.apply(&ModelDelta::SetDeadline {
            constraint: ConstraintId::new(0),
            deadline: 4,
        })
        .unwrap();
        s.apply(&ModelDelta::AddElement {
            name: "fk".into(),
            wcet: 1,
            pipelinable: true,
        })
        .unwrap();
        assert_eq!(s.journal_len(), 2);
        assert!(s.undo().unwrap().is_some());
        assert!(s.undo().unwrap().is_some());
        assert_eq!(s.journal_len(), 0);
        assert_eq!(s.model().content_digest(), digest0);
        assert!(s.undo().unwrap().is_none());
        let again = s.analyze(&exact_query()).unwrap();
        assert_eq!(
            baseline.verdict.schedule().map(|x| x.actions().to_vec()),
            again.verdict.schedule().map(|x| x.actions().to_vec())
        );
    }

    #[test]
    fn selection_restricts_the_model() {
        let engine = Engine::new();
        let model = chain_model(7, 5);
        let mut s = engine.open_session(model.clone()).unwrap();
        // Only(chain) must report exactly what cold analysis of the
        // hand-restricted model reports
        let only_chain = Query {
            selection: ConstraintSelection::Only(vec![ConstraintId::new(0)]),
            ..exact_query()
        };
        let r = s.analyze(&only_chain).unwrap();
        let restricted =
            Model::new(model.comm().clone(), vec![model.constraints()[0].clone()]).unwrap();
        let req = AnalysisRequest::from_parts(&exact_query(), &EngineOptions::default());
        let cold = analyze_once(&restricted, &req).unwrap();
        assert_eq!(r.verdict.is_feasible(), cold.verdict.is_feasible());
        assert_eq!(
            r.verdict.schedule().map(|x| x.actions().to_vec()),
            cold.verdict.schedule().map(|x| x.actions().to_vec())
        );
        // selecting every constraint is the same question as All
        let both = Query {
            selection: ConstraintSelection::Only(vec![ConstraintId::new(0), ConstraintId::new(1)]),
            ..exact_query()
        };
        let all = s.analyze(&exact_query()).unwrap();
        let sel = s.analyze(&both).unwrap();
        assert_eq!(
            sel.verdict.schedule().map(|x| x.actions().to_vec()),
            all.verdict.schedule().map(|x| x.actions().to_vec())
        );
        // unknown constraint ids error instead of silently analyzing all
        let bogus = Query {
            selection: ConstraintSelection::Only(vec![ConstraintId::new(9)]),
            ..exact_query()
        };
        assert!(matches!(
            s.analyze(&bogus),
            Err(EngineError::Model(
                rtcg_core::ModelError::UnknownConstraint(_)
            ))
        ));
    }

    #[test]
    fn rejected_delta_leaves_session_untouched() {
        let engine = Engine::new();
        let mut s = engine.open_session(chain_model(7, 5)).unwrap();
        let digest = s.model().content_digest();
        let err = s
            .apply(&ModelDelta::RemoveElement { name: "fx".into() })
            .unwrap_err();
        assert!(matches!(
            err,
            EngineError::Model(rtcg_core::ModelError::DeltaRejected { .. })
        ));
        assert_eq!(s.model().content_digest(), digest);
        assert_eq!(s.journal_len(), 0);
        assert_eq!(s.stats().deltas_applied, 0);
    }

    #[test]
    fn superseded_results_are_evicted_from_shards() {
        let engine = Engine::new();
        let mut s = engine.open_session(chain_model(7, 5)).unwrap();
        let q = exact_query();
        s.analyze(&q).unwrap();
        let occupied: u64 = engine.stats().shards.iter().map(|x| x.occupancy).sum();
        assert_eq!(occupied, 1);
        let out = s
            .apply(&ModelDelta::SetDeadline {
                constraint: ConstraintId::new(0),
                deadline: 6,
            })
            .unwrap();
        assert_eq!(out.results_evicted, 1);
        let stats = engine.stats();
        assert_eq!(stats.shards.iter().map(|x| x.occupancy).sum::<u64>(), 0);
        assert_eq!(stats.shards.iter().map(|x| x.evictions).sum::<u64>(), 1);
    }

    #[test]
    fn open_sessions_gauge_tracks_lifetime() {
        let engine = Engine::new();
        {
            let _a = engine.open_session(chain_model(7, 5)).unwrap();
            let _b = engine.open_session(chain_model(9, 5)).unwrap();
            assert_eq!(engine.open_sessions.load(Ordering::Relaxed), 2);
        }
        assert_eq!(engine.open_sessions.load(Ordering::Relaxed), 0);
    }
}
