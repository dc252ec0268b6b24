//! # rtcg-engine — cached analysis across model edits
//!
//! One front door for feasibility analysis and schedule synthesis:
//! callers describe *what* they want with an [`AnalysisRequest`] and the
//! [`Engine`] answers it, from memory when it has answered it before.
//!
//! One layer of reuse, the **result memo**: verdicts and schedules
//! keyed by `(model fingerprint, request fingerprint)`. An identical
//! question about identical content returns the stored
//! [`AnalysisReport`] without any analysis. Everything else runs cold:
//! every exact query — [`Engine::analyze`], sessions, batches and
//! sensitivity sweeps alike — is the plain compiled search
//! (`find_feasible_with_cancel` over a fresh `CompiledChecker` at
//! `threads ≤ 1`, `find_feasible_parallel_with_cancel` above that).
//!
//! Everything the engine returns is therefore **bit-identical** to the
//! corresponding cold call (`heuristic::synthesize_with`,
//! `latency_synthesize_with`, `find_feasible`/`find_feasible_parallel`).
//! The differential tests pin this.
//!
//! Sensitivity analysis and fault margins are re-exposed as engine
//! methods so their probe loops route through the result memo: a probe
//! that repeats an earlier question is answered without a search.

#![forbid(unsafe_code)]

pub mod batch;
pub mod fingerprint;
pub mod session;
pub mod snapshot;

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError, RwLock};
use std::time::Instant;

use rtcg_core::feasibility::{
    find_feasible_lanes, find_feasible_parallel_with_cancel, find_feasible_with_cancel,
    quick_infeasible, synthesize_lanes, CancelToken, CompiledChecker, LaneSchedule, SearchConfig,
};
use rtcg_core::heuristic::{synthesize_with, SynthesisConfig};
use rtcg_core::model::Model;
use rtcg_core::sensitivity::{
    deadline_sensitivities_with, max_uniform_tightening_with, min_feasible_deadline_with,
    DeadlineSensitivity,
};
use rtcg_core::{ConstraintId, ModelError, StaticSchedule};
use rtcg_sim::error::SimError;
use rtcg_synth::error::SynthError;
use rtcg_synth::latency::latency_synthesize_with;

use fingerprint::{model_fingerprint, request_fingerprint};

pub use session::{ConstraintSelection, DeltaOutcome, EngineOptions, Query, SessionStats};
pub use snapshot::{LoadStats, SaveStats, SnapshotError, SnapshotTotals};

/// Which analysis pipeline answers the request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum AnalysisMode {
    /// Theorem-3 heuristic synthesis (`rtcg_core::heuristic`): fast,
    /// incomplete — failure is *not* an infeasibility proof.
    #[default]
    Heuristic,
    /// Shared-operation merging then heuristic synthesis
    /// (`rtcg_synth::latency`).
    Merged,
    /// Bounded exact search (`rtcg_core::feasibility::exact`): complete
    /// up to `search.max_len`.
    Exact,
}

/// One unified options struct for every analysis entry point. The CLI's
/// `--exact`, `--threads`, `--max-len`, and `--budget` flags map onto
/// these fields directly.
#[derive(Debug, Clone, Copy)]
pub struct AnalysisRequest {
    /// Pipeline selection.
    pub mode: AnalysisMode,
    /// Knobs for the heuristic strategies (used by `Heuristic` and
    /// `Merged`).
    pub synthesis: SynthesisConfig,
    /// Knobs for the exact search (used by `Exact`).
    pub search: SearchConfig,
    /// Worker threads for the exact search: `threads ≤ 1` runs the
    /// sequential compiled search, more runs the parallel one. Excluded
    /// from the request fingerprint: the parallel search replays the
    /// sequential one bit for bit.
    pub threads: usize,
    /// Processor lanes. `1` (the default) is the paper's single-
    /// processor analysis, bit-identical to every pre-lane release.
    /// `> 1` routes the request through the m-lane pipeline: candidates
    /// are lane matrices, verdicts carry [`Verdict::FeasibleLanes`],
    /// and the lane count is part of the request fingerprint.
    pub lanes: usize,
}

impl Default for AnalysisRequest {
    fn default() -> Self {
        AnalysisRequest {
            mode: AnalysisMode::Heuristic,
            synthesis: SynthesisConfig::default(),
            search: SearchConfig::default(),
            threads: 1,
            lanes: 1,
        }
    }
}

impl AnalysisRequest {
    /// Request the bounded exact search with default knobs.
    pub fn exact() -> Self {
        AnalysisRequest {
            mode: AnalysisMode::Exact,
            ..Self::default()
        }
    }
}

/// What the analysis concluded.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// A verified feasible schedule was produced.
    Feasible {
        /// The schedule, over [`AnalysisReport::analysis_model`]'s ids.
        schedule: StaticSchedule,
        /// Which strategy produced it (`"edf-half"`, `"game"`,
        /// `"exact"`, …).
        strategy: &'static str,
    },
    /// A verified feasible multiprocessor lane matrix was produced
    /// (requests with `lanes > 1`).
    FeasibleLanes {
        /// The lane matrix, over [`AnalysisReport::analysis_model`]'s
        /// ids.
        schedule: LaneSchedule,
        /// Which strategy produced it (`"lane-list"` or `"lane-exact"`).
        strategy: &'static str,
    },
    /// Proven infeasible: a necessary condition fails, or (`Exact`) the
    /// complete search exhausted every schedule within the length bound.
    Infeasible {
        /// Human-readable proof sketch.
        reason: String,
    },
    /// Analysis gave up without a proof either way (heuristic strategy
    /// exhaustion, search budget abort).
    Unknown {
        /// What ran out.
        reason: String,
    },
}

impl Verdict {
    /// True iff a feasible schedule was found.
    pub fn is_feasible(&self) -> bool {
        matches!(
            self,
            Verdict::Feasible { .. } | Verdict::FeasibleLanes { .. }
        )
    }

    /// The uniprocessor schedule, when feasible with `lanes == 1`.
    pub fn schedule(&self) -> Option<&StaticSchedule> {
        match self {
            Verdict::Feasible { schedule, .. } => Some(schedule),
            _ => None,
        }
    }

    /// The lane matrix, when feasible with `lanes > 1`.
    pub fn lane_schedule(&self) -> Option<&LaneSchedule> {
        match self {
            Verdict::FeasibleLanes { schedule, .. } => Some(schedule),
            _ => None,
        }
    }
}

/// Counters of one exact search run (absent for heuristic modes).
#[derive(Debug, Clone, Copy)]
pub struct SearchStats {
    /// Enumeration nodes visited.
    pub nodes_visited: u64,
    /// Candidate strings leaf-evaluated.
    pub candidates_checked: u64,
    /// True iff the search ran to completion of the length bound.
    pub exhausted_bound: bool,
}

/// The engine's answer to an [`AnalysisRequest`].
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// The conclusion.
    pub verdict: Verdict,
    /// The model the verdict's schedule refers to: the pipelined
    /// transform for heuristic modes (new element ids!), the input
    /// model for `Exact`.
    pub analysis_model: Model,
    /// Exact-search counters, when `mode == Exact`.
    pub search: Option<SearchStats>,
    /// Same-period constraint groups fused by `Merged` mode (0 in the
    /// other modes).
    pub groups_merged: usize,
    /// True when this report was served from the result memo.
    pub cached: bool,
}

/// Errors surfaced by the engine: any layer's error, plus a demand for
/// feasibility ([`Engine::fault_margin`]) that the model cannot meet.
#[derive(Debug)]
pub enum EngineError {
    /// Core model/analysis error.
    Model(ModelError),
    /// Synthesis-layer error.
    Synth(SynthError),
    /// Simulation-layer error.
    Sim(SimError),
    /// The request needs a feasible schedule and analysis did not
    /// produce one.
    Infeasible(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Model(e) => write!(f, "{e}"),
            EngineError::Synth(e) => write!(f, "{e}"),
            EngineError::Sim(e) => write!(f, "{e}"),
            EngineError::Infeasible(reason) => write!(f, "no feasible schedule: {reason}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<ModelError> for EngineError {
    fn from(e: ModelError) -> Self {
        EngineError::Model(e)
    }
}

impl From<SynthError> for EngineError {
    fn from(e: SynthError) -> Self {
        EngineError::Synth(e)
    }
}

impl From<SimError> for EngineError {
    fn from(e: SimError) -> Self {
        EngineError::Sim(e)
    }
}

/// Cache effectiveness counters, cumulative over the engine's lifetime.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineStats {
    /// Result-memo hits (whole reports served without analysis).
    pub hits: u64,
    /// Result-memo misses (analysis actually ran).
    pub misses: u64,
    /// Always 0: the engine keeps no candidate memo. Kept so callers
    /// that still read it compile.
    pub leaf_evals_saved: u64,
    /// Always 0; see [`EngineStats::leaf_evals_saved`].
    pub leaf_evals_computed: u64,
    /// Always 0; see [`EngineStats::leaf_evals_saved`].
    pub memo_candidates: u64,
    /// Snapshot persistence counters (see [`snapshot`]).
    pub snapshot: SnapshotTotals,
    /// Per-shard result-memo counters, indexed by shard. Uneven
    /// hit/occupancy distributions here mean fingerprint skew — worth
    /// knowing before the serve daemon multiplies the key population.
    pub shards: [ShardStats; SHARDS],
}

/// Counters of one result-memo shard; see [`EngineStats::shards`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardStats {
    /// Reports served from this shard.
    pub hits: u64,
    /// Lookups that missed this shard.
    pub misses: u64,
    /// Reports inserted into this shard.
    pub inserts: u64,
    /// Times a poisoned shard lock was recovered (a batch worker
    /// panicked while holding it).
    pub poison_recoveries: u64,
    /// Reports evicted from this shard by session deltas (a superseded
    /// model fingerprint's slice; see [`session::Session::apply`]).
    pub evictions: u64,
    /// Entries currently resident in this shard.
    pub occupancy: u64,
}

/// Live per-shard counters; the atomic backing of [`ShardStats`].
#[derive(Debug, Default)]
struct ShardCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    poison_recoveries: AtomicU64,
    evictions: AtomicU64,
}

/// `engine.shard.NN.<suffix>` metric-name tables. The names must be
/// `&'static str` (the obs contract), so they are spelled out per shard
/// by the macro below; the Prometheus exporter folds the family back
/// into one metric with a `shard` label.
macro_rules! shard_names {
    ($suffix:literal) => {
        [
            concat!("engine.shard.00.", $suffix),
            concat!("engine.shard.01.", $suffix),
            concat!("engine.shard.02.", $suffix),
            concat!("engine.shard.03.", $suffix),
            concat!("engine.shard.04.", $suffix),
            concat!("engine.shard.05.", $suffix),
            concat!("engine.shard.06.", $suffix),
            concat!("engine.shard.07.", $suffix),
            concat!("engine.shard.08.", $suffix),
            concat!("engine.shard.09.", $suffix),
            concat!("engine.shard.10.", $suffix),
            concat!("engine.shard.11.", $suffix),
            concat!("engine.shard.12.", $suffix),
            concat!("engine.shard.13.", $suffix),
            concat!("engine.shard.14.", $suffix),
            concat!("engine.shard.15.", $suffix),
        ]
    };
}

const SHARD_HITS: [&str; SHARDS] = shard_names!("hits");
const SHARD_MISSES: [&str; SHARDS] = shard_names!("misses");
const SHARD_INSERTS: [&str; SHARDS] = shard_names!("inserts");
const SHARD_POISON: [&str; SHARDS] = shard_names!("poison_recoveries");
const SHARD_EVICTIONS: [&str; SHARDS] = shard_names!("evictions");
const SHARD_OCCUPANCY: [&str; SHARDS] = shard_names!("occupancy");

/// Shard count for the result memo. A power of two so
/// shard selection is a mask of the fingerprint's low bits; 16 shards
/// keep contention negligible at any realistic worker count without
/// noticeable memory overhead.
pub const SHARDS: usize = 16;

fn shard_of(fp: u64) -> usize {
    (fp as usize) % SHARDS
}

/// Mutex/RwLock poisoning only happens if a panicking thread held the
/// lock; the protected maps are append-only memos that are never left
/// half-edited, so recovering the guard is safe and keeps one panicked
/// batch worker from cascading into every later request.
fn unpoison<G>(r: Result<G, PoisonError<G>>) -> G {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// The cached analysis engine. See the module docs for its one reuse
/// layer, the result memo; construction is free, all caching is lazy.
///
/// All methods take `&self`: internal state is sharded and lock-striped
/// (fingerprint-selected shards, one `RwLock`/`Mutex` per shard, atomic
/// counters), so one engine can serve concurrent callers — the
/// [`batch`] worker pool fans requests across threads against a shared
/// `&Engine` and every thread reads and extends the same memo.
pub struct Engine {
    /// Result memo: `(model fp, request fp)` → report, lock-striped.
    results: Vec<RwLock<HashMap<(u64, u64), AnalysisReport>>>,
    /// Subject-model registry for snapshot save: model fp → model,
    /// sharded like `results` (a fingerprint is one-way, so the memo's
    /// keys alone cannot be re-derived into content-addressed sections).
    models: Vec<Mutex<HashMap<u64, Model>>>,
    /// Request-shape registry for snapshot save: request fp → the
    /// fingerprinted fields ([`AnalysisRequest`] is `Copy` and tiny).
    requests: Mutex<HashMap<u64, AnalysisRequest>>,
    /// Snapshot save/load counters (see [`snapshot`]).
    pub(crate) snap: snapshot::SnapCounters,
    hits: AtomicU64,
    misses: AtomicU64,
    shard_counters: [ShardCounters; SHARDS],
    /// Sessions currently open against this engine (see
    /// [`Engine::open_session`]); feeds the
    /// `engine.session.resident_models` gauge.
    pub(crate) open_sessions: AtomicU64,
}

impl Default for Engine {
    fn default() -> Self {
        Engine {
            results: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            models: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            requests: Mutex::new(HashMap::new()),
            snap: snapshot::SnapCounters::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            shard_counters: std::array::from_fn(|_| ShardCounters::default()),
            open_sessions: AtomicU64::new(0),
        }
    }
}

impl Engine {
    /// An engine with empty caches.
    pub fn new() -> Self {
        Engine::default()
    }

    /// Current cache counters. Counter reads are relaxed snapshots; the
    /// occupancy counts briefly read-lock each result shard.
    pub fn stats(&self) -> EngineStats {
        let shards = std::array::from_fn(|ix| ShardStats {
            hits: self.shard_counters[ix].hits.load(Ordering::Relaxed),
            misses: self.shard_counters[ix].misses.load(Ordering::Relaxed),
            inserts: self.shard_counters[ix].inserts.load(Ordering::Relaxed),
            poison_recoveries: self.shard_counters[ix]
                .poison_recoveries
                .load(Ordering::Relaxed),
            evictions: self.shard_counters[ix].evictions.load(Ordering::Relaxed),
            occupancy: self.recover_shard(ix, self.results[ix].read()).len() as u64,
        });
        EngineStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            leaf_evals_saved: 0,
            leaf_evals_computed: 0,
            memo_candidates: 0,
            snapshot: self.snap.totals(),
            shards,
        }
    }

    /// Publishes the `engine.shard.*` gauge family from the current
    /// shard counters. Call at report time (batch end, profile dump) —
    /// not per request — since it walks all 16 shards. No-op without an
    /// installed recorder.
    pub fn publish_shard_metrics(&self) {
        if rtcg_obs::recorder().is_none() {
            return;
        }
        let stats = self.stats();
        for (ix, s) in stats.shards.iter().enumerate() {
            rtcg_obs::gauge!(SHARD_HITS[ix], s.hits);
            rtcg_obs::gauge!(SHARD_MISSES[ix], s.misses);
            rtcg_obs::gauge!(SHARD_INSERTS[ix], s.inserts);
            rtcg_obs::gauge!(SHARD_POISON[ix], s.poison_recoveries);
            rtcg_obs::gauge!(SHARD_EVICTIONS[ix], s.evictions);
            rtcg_obs::gauge!(SHARD_OCCUPANCY[ix], s.occupancy);
        }
    }

    /// [`unpoison`] for result-memo shard locks, counting recoveries
    /// against the shard so poison events are attributable.
    fn recover_shard<G>(&self, ix: usize, r: Result<G, PoisonError<G>>) -> G {
        r.unwrap_or_else(|e| {
            self.shard_counters[ix]
                .poison_recoveries
                .fetch_add(1, Ordering::Relaxed);
            rtcg_obs::counter!("engine.poison_recovered");
            e.into_inner()
        })
    }

    /// Analyzes the model per the request. Reports are bit-identical to
    /// the corresponding cold call; `cached` distinguishes a memo hit.
    pub fn analyze(
        &self,
        model: &Model,
        req: &AnalysisRequest,
    ) -> Result<AnalysisReport, EngineError> {
        self.analyze_with_cancel(model, req, None)
    }

    /// [`Engine::analyze`] plus a cooperative [`CancelToken`] polled by
    /// the exact search. A run whose token fired returns its partial
    /// outcome (`Unknown` verdict unless the search finished first) and
    /// is **not** memoized — a later uncancelled call recomputes and
    /// caches the authoritative report.
    pub fn analyze_with_cancel(
        &self,
        model: &Model,
        req: &AnalysisRequest,
        cancel: Option<&CancelToken>,
    ) -> Result<AnalysisReport, EngineError> {
        let _span = rtcg_obs::span!("engine.analyze", "engine");
        let t0 = if rtcg_obs::recorder().is_some() {
            Some(Instant::now())
        } else {
            None
        };
        let result = self.run_query(model, req, cancel);
        if let Some(t0) = t0 {
            rtcg_obs::histogram!("engine.request_us", t0.elapsed().as_micros() as u64);
            // cancel-to-stop: how long after the token fired this
            // request actually returned (poll-stride detection latency
            // plus unwind cost)
            if let Some(fired) = cancel.and_then(CancelToken::fired_at) {
                let now = Instant::now().saturating_duration_since(rtcg_obs::epoch());
                rtcg_obs::histogram!(
                    "engine.cancel_to_stop_us",
                    now.saturating_sub(fired).as_micros() as u64
                );
            }
        }
        result
    }

    /// The one canonical query path every public entry point funnels
    /// into: result-memo lookup, mode dispatch, insert-unless-cancelled.
    pub(crate) fn run_query(
        &self,
        model: &Model,
        req: &AnalysisRequest,
        cancel: Option<&CancelToken>,
    ) -> Result<AnalysisReport, EngineError> {
        model.validate().map_err(EngineError::from)?;
        if req.lanes == 0 {
            return Err(EngineError::Model(ModelError::ZeroLanes));
        }
        let key = (model_fingerprint(model), request_fingerprint(req));
        let ix = shard_of(key.0);
        let shard = &self.results[ix];
        if let Some(report) = self.recover_shard(ix, shard.read()).get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.shard_counters[ix].hits.fetch_add(1, Ordering::Relaxed);
            rtcg_obs::counter!("engine.cache.hit");
            let mut report = report.clone();
            report.cached = true;
            return Ok(report);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.shard_counters[ix]
            .misses
            .fetch_add(1, Ordering::Relaxed);
        rtcg_obs::counter!("engine.cache.miss");

        let report = if req.lanes > 1 {
            // the m-lane pipeline replaces mode dispatch: candidates
            // are lane matrices, not strings, so none of the scalar
            // strategies apply
            self.run_lanes(model, req)?
        } else {
            match req.mode {
                AnalysisMode::Heuristic => self.run_heuristic(model, req)?,
                AnalysisMode::Merged => self.run_merged(model, req)?,
                AnalysisMode::Exact => self.run_exact(model, req, cancel)?,
            }
        };
        // a cancelled run's report is partial — never cache it (poll
        // latches a passed deadline so is_set observes it)
        if cancel.is_none_or(|t| !t.poll()) {
            self.recover_shard(ix, shard.write())
                .insert(key, report.clone());
            self.shard_counters[ix]
                .inserts
                .fetch_add(1, Ordering::Relaxed);
            // keep the fingerprints invertible for snapshot save
            unpoison(self.models[ix].lock())
                .entry(key.0)
                .or_insert_with(|| model.clone());
            unpoison(self.requests.lock()).entry(key.1).or_insert(*req);
        }
        Ok(report)
    }

    /// True iff the request concludes feasible — the oracle shape the
    /// sensitivity binary searches consume.
    pub fn feasible(&self, model: &Model, req: &AnalysisRequest) -> Result<bool, EngineError> {
        Ok(self.analyze(model, req)?.verdict.is_feasible())
    }

    fn run_heuristic(
        &self,
        model: &Model,
        req: &AnalysisRequest,
    ) -> Result<AnalysisReport, EngineError> {
        if let Some(proof) = quick_infeasible(model).map_err(EngineError::from)? {
            return Ok(AnalysisReport {
                verdict: Verdict::Infeasible {
                    reason: proof.to_string(),
                },
                analysis_model: model.clone(),
                search: None,
                groups_merged: 0,
                cached: false,
            });
        }
        match synthesize_with(model, req.synthesis) {
            Ok(out) => Ok(AnalysisReport {
                verdict: Verdict::Feasible {
                    schedule: out.schedule,
                    strategy: out.strategy,
                },
                analysis_model: out.pipelined.model,
                search: None,
                groups_merged: 0,
                cached: false,
            }),
            // heuristic exhaustion is not a proof of infeasibility
            Err(ModelError::Infeasible { reason }) => Ok(AnalysisReport {
                verdict: Verdict::Unknown { reason },
                analysis_model: model.clone(),
                search: None,
                groups_merged: 0,
                cached: false,
            }),
            Err(e) => Err(e.into()),
        }
    }

    fn run_merged(
        &self,
        model: &Model,
        req: &AnalysisRequest,
    ) -> Result<AnalysisReport, EngineError> {
        if let Some(proof) = quick_infeasible(model).map_err(EngineError::from)? {
            return Ok(AnalysisReport {
                verdict: Verdict::Infeasible {
                    reason: proof.to_string(),
                },
                analysis_model: model.clone(),
                search: None,
                groups_merged: 0,
                cached: false,
            });
        }
        match latency_synthesize_with(model, req.synthesis) {
            Ok(out) => Ok(AnalysisReport {
                verdict: Verdict::Feasible {
                    schedule: out.schedule,
                    strategy: out.strategy,
                },
                analysis_model: out.analysis_model,
                search: None,
                groups_merged: out.groups_merged,
                cached: false,
            }),
            Err(SynthError::Model(ModelError::Infeasible { reason })) => Ok(AnalysisReport {
                verdict: Verdict::Unknown { reason },
                analysis_model: model.clone(),
                search: None,
                groups_merged: 0,
                cached: false,
            }),
            Err(e) => Err(e.into()),
        }
    }

    /// Evicts every result-memo report keyed by `model_fp` (any request
    /// fingerprint), returning the count. Called by
    /// [`session::Session::apply`] when a delta supersedes a model:
    /// only that fingerprint's slice of one shard is touched, which the
    /// per-shard [`ShardStats::evictions`] counter makes auditable.
    pub(crate) fn evict_results(&self, model_fp: u64) -> u64 {
        let ix = shard_of(model_fp);
        let mut shard = self.recover_shard(ix, self.results[ix].write());
        let before = shard.len();
        shard.retain(|k, _| k.0 != model_fp);
        unpoison(self.models[ix].lock()).remove(&model_fp);
        let evicted = (before - shard.len()) as u64;
        if evicted > 0 {
            self.shard_counters[ix]
                .evictions
                .fetch_add(evicted, Ordering::Relaxed);
            rtcg_obs::counter!("engine.results_evicted", evicted);
        }
        evicted
    }

    /// The m-lane pipeline (`req.lanes > 1`). `Heuristic` runs the
    /// list-scheduling synthesis only; `Exact` runs the canonical
    /// branch-and-bound only; `Merged` tries the cheap synthesis first
    /// and falls back to the exact search. The result memo in
    /// [`Engine::run_query`] covers lane reports (the lane count is part
    /// of the request fingerprint).
    fn run_lanes(
        &self,
        model: &Model,
        req: &AnalysisRequest,
    ) -> Result<AnalysisReport, EngineError> {
        let report = |verdict, search| AnalysisReport {
            verdict,
            analysis_model: model.clone(),
            search,
            groups_merged: 0,
            cached: false,
        };

        if matches!(req.mode, AnalysisMode::Heuristic | AnalysisMode::Merged) {
            if let Some(schedule) = synthesize_lanes(model, req.lanes).map_err(EngineError::from)? {
                return Ok(report(
                    Verdict::FeasibleLanes {
                        schedule,
                        strategy: "lane-list",
                    },
                    None,
                ));
            }
            if matches!(req.mode, AnalysisMode::Heuristic) {
                return Ok(report(
                    Verdict::Unknown {
                        reason: format!(
                            "lane list scheduling produced no verified {}-lane schedule; \
                             rerun with --exact",
                            req.lanes
                        ),
                    },
                    None,
                ));
            }
        }

        let outcome =
            find_feasible_lanes(model, req.lanes, req.search).map_err(EngineError::from)?;
        let stats = SearchStats {
            nodes_visited: outcome.nodes_visited,
            candidates_checked: outcome.candidates_checked,
            exhausted_bound: outcome.exhausted_bound,
        };
        let verdict = match outcome.schedule {
            Some(schedule) => Verdict::FeasibleLanes {
                schedule,
                strategy: "lane-exact",
            },
            None if outcome.exhausted_bound => Verdict::Infeasible {
                reason: format!(
                    "complete search: no feasible {}-lane matrix with rows of ≤ {} actions",
                    req.lanes, req.search.max_len
                ),
            },
            None => Verdict::Unknown {
                reason: format!(
                    "search budget of {} units exhausted",
                    req.search.node_budget
                ),
            },
        };
        Ok(report(verdict, Some(stats)))
    }

    /// The plain compiled exact search; the parallel search (replay-
    /// identical to it) when `threads > 1`.
    fn run_exact(
        &self,
        model: &Model,
        req: &AnalysisRequest,
        cancel: Option<&CancelToken>,
    ) -> Result<AnalysisReport, EngineError> {
        let outcome = if req.threads > 1 {
            find_feasible_parallel_with_cancel(model, req.search, req.threads, cancel)
        } else {
            CompiledChecker::new(model).and_then(|mut eval| {
                find_feasible_with_cancel(model, req.search, &mut eval, cancel)
            })
        }
        .map_err(EngineError::from)?;

        let stats = SearchStats {
            nodes_visited: outcome.nodes_visited,
            candidates_checked: outcome.candidates_checked,
            exhausted_bound: outcome.exhausted_bound,
        };
        let verdict = match outcome.schedule {
            Some(schedule) => Verdict::Feasible {
                schedule,
                strategy: "exact",
            },
            None if outcome.exhausted_bound => Verdict::Infeasible {
                reason: format!(
                    "complete search: no feasible schedule of ≤ {} actions",
                    req.search.max_len
                ),
            },
            None => Verdict::Unknown {
                reason: format!(
                    "search budget of {} units exhausted",
                    req.search.node_budget
                ),
            },
        };
        Ok(AnalysisReport {
            verdict,
            analysis_model: model.clone(),
            search: Some(stats),
            groups_merged: 0,
            cached: false,
        })
    }

    /// Minimum feasible deadline of one constraint, binary-searched with
    /// every probe routed through the result memo.
    pub fn min_feasible_deadline(
        &self,
        model: &Model,
        id: ConstraintId,
        req: &AnalysisRequest,
    ) -> Result<DeadlineSensitivity, EngineError> {
        min_feasible_deadline_with(model, id, &mut |m: &Model| self.feasible(m, req))
    }

    /// Deadline sensitivity of every constraint, cache-routed.
    pub fn deadline_sensitivities(
        &self,
        model: &Model,
        req: &AnalysisRequest,
    ) -> Result<Vec<DeadlineSensitivity>, EngineError> {
        deadline_sensitivities_with(model, &mut |m: &Model| self.feasible(m, req))
    }

    /// Largest uniform deadline-tightening percentage that stays
    /// feasible, cache-routed.
    pub fn max_uniform_tightening(
        &self,
        model: &Model,
        req: &AnalysisRequest,
    ) -> Result<u32, EngineError> {
        max_uniform_tightening_with(model, &mut |m: &Model| self.feasible(m, req))
    }

    /// Fault margin of `element` (by name, resolved against the analysis
    /// model) under the schedule the request produces: how many
    /// consecutive lost executions the schedule absorbs. `reps` controls
    /// how far the schedule is expanded for the erasure experiment.
    pub fn fault_margin(
        &self,
        model: &Model,
        element: &str,
        cap: usize,
        reps: usize,
        req: &AnalysisRequest,
    ) -> Result<usize, EngineError> {
        let report = self.analyze(model, req)?;
        let Verdict::Feasible { schedule, .. } = &report.verdict else {
            return Err(EngineError::Infeasible(format!(
                "fault margin needs a schedule; analysis of `{element}`'s model concluded {:?}",
                match &report.verdict {
                    Verdict::Infeasible { reason } | Verdict::Unknown { reason } => reason.clone(),
                    Verdict::FeasibleLanes { strategy, .. } =>
                        format!("a multi-lane schedule ({strategy}); fault margins are single-lane"),
                    Verdict::Feasible { .. } => unreachable!(),
                }
            )));
        };
        let analysis_model = &report.analysis_model;
        let id = analysis_model
            .comm()
            .lookup(element)
            .map_err(EngineError::from)?;
        let trace = schedule
            .expand(analysis_model.comm(), reps)
            .map_err(EngineError::from)?;
        rtcg_sim::faults::fault_margin(analysis_model, &trace, id, cap).map_err(EngineError::from)
    }
}

/// Convenience one-shot: analyze without keeping an engine around — a
/// thin wrapper over a throwaway session (no reuse, but the same
/// unified request/report surface and the same canonical query path).
pub fn analyze_once(model: &Model, req: &AnalysisRequest) -> Result<AnalysisReport, EngineError> {
    let engine = Engine::new();
    let (query, options) = req.split();
    let mut session = engine.open_session_with(model.clone(), options)?;
    session.analyze(&query)
}

/// Everything a caller of the unified API needs.
pub mod prelude {
    pub use crate::batch::{BatchOptions, BatchResult};
    pub use crate::session::Session;
    pub use crate::{
        analyze_once, AnalysisMode, AnalysisReport, AnalysisRequest, ConstraintSelection,
        DeltaOutcome, Engine, EngineError, EngineOptions, EngineStats, LoadStats, Query, SaveStats,
        SearchStats, SessionStats, ShardStats, SnapshotError, SnapshotTotals, Verdict, SHARDS,
    };
    pub use rtcg_core::prelude::*;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_memo_round_trip() {
        let (m, _) = rtcg_core::mok_example::default_model();
        let req = AnalysisRequest::default();
        let engine = Engine::new();
        let first = engine.analyze(&m, &req).unwrap();
        assert!(!first.cached);
        let second = engine.analyze(&m, &req).unwrap();
        assert!(second.cached);
        assert_eq!(
            first.verdict.schedule().map(|s| s.actions().to_vec()),
            second.verdict.schedule().map(|s| s.actions().to_vec())
        );
        let stats = engine.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn heuristic_matches_cold_synthesize() {
        let (m, _) = rtcg_core::mok_example::default_model();
        let cold = rtcg_core::heuristic::synthesize(&m).unwrap();
        let report = analyze_once(&m, &AnalysisRequest::default()).unwrap();
        let Verdict::Feasible { schedule, strategy } = &report.verdict else {
            panic!("mok example synthesizes");
        };
        assert_eq!(schedule.actions(), cold.schedule.actions());
        assert_eq!(*strategy, cold.strategy);
    }

    #[test]
    fn unknown_for_heuristic_exhaustion_not_infeasible() {
        // a model quick bounds accept but the heuristic cannot schedule:
        // disable every strategy via a zero budget and a tiny hyperperiod
        let (m, _) = rtcg_core::mok_example::default_model();
        let req = AnalysisRequest {
            synthesis: SynthesisConfig {
                max_hyperperiod: 1,
                game_state_budget: 0,
            },
            ..AnalysisRequest::default()
        };
        let report = analyze_once(&m, &req).unwrap();
        assert!(matches!(report.verdict, Verdict::Unknown { .. }));
    }

    #[test]
    fn exact_matches_cold_search() {
        let (m, _) = rtcg_core::mok_example::default_model();
        let req = AnalysisRequest {
            search: SearchConfig {
                max_len: 6,
                node_budget: 2_000_000,
            },
            ..AnalysisRequest::exact()
        };
        let cold = rtcg_core::feasibility::find_feasible(&m, req.search).unwrap();
        let report = analyze_once(&m, &req).unwrap();
        let stats = report.search.expect("exact mode reports stats");
        assert_eq!(stats.candidates_checked, cold.candidates_checked);
        assert_eq!(stats.nodes_visited, cold.nodes_visited);
        assert_eq!(stats.exhausted_bound, cold.exhausted_bound);
        assert_eq!(
            report.verdict.schedule().map(|s| s.actions().to_vec()),
            cold.schedule.map(|s| s.actions().to_vec())
        );
    }

    #[test]
    fn fault_margin_routes_through_analysis() {
        // one unit element with generous slack: the synthesized schedule
        // must absorb at least one lost execution
        let mut b = rtcg_core::ModelBuilder::new();
        let e = b.element("e", 1);
        let tg = rtcg_core::TaskGraphBuilder::new()
            .op("o", e)
            .build()
            .unwrap();
        b.asynchronous("c", tg, 9, 9);
        let m = b.build().unwrap();
        // exact mode finds the densest schedule [e], which has slack to
        // spare (the heuristic's half-split schedule deliberately
        // doesn't)
        let req = AnalysisRequest {
            search: SearchConfig {
                max_len: 3,
                node_budget: 100_000,
            },
            ..AnalysisRequest::exact()
        };
        let engine = Engine::new();
        let margin = engine.fault_margin(&m, "e", 12, 40, &req).unwrap();
        assert!(margin >= 1, "slack 9 absorbs a loss, got {margin}");
        // unknown element name surfaces a model error
        assert!(matches!(
            engine.fault_margin(&m, "nope", 12, 40, &req),
            Err(EngineError::Model(_))
        ));
    }
}
