//! Concurrent batch analysis over one shared engine cache.
//!
//! [`Engine::analyze_batch`] fans a `Vec<(Model, AnalysisRequest)>`
//! across a worker pool. Workers claim requests off an atomic cursor —
//! the same work-claiming idiom as
//! [`rtcg_core::feasibility::parallel`] — and every worker analyzes
//! through the *same* `&Engine`, so the sharded result memo built by
//! one request serves all the others: a question one request answered
//! is never analyzed again.
//!
//! Each request can carry a wall-clock **deadline budget**
//! ([`BatchOptions::budget_ms`]): a [`CancelToken`] with that deadline
//! is passed into the exact search, which polls it cooperatively. On
//! expiry the request **degrades** instead of erroring — the partial
//! exact outcome is discarded (and never memoized) and the cheap
//! heuristic pipeline supplies the verdict, with
//! [`BatchResult::degraded`] recording why. Degraded verdicts are
//! heuristic-grade: `Unknown` is possible, and `Feasible` carries a
//! heuristic strategy tag rather than `"exact"`.
//!
//! Undegraded results are bit-identical to sequential
//! [`crate::analyze_once`] calls per request — pinned by the
//! differential proptest in `tests/batch_differential.rs`.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use rtcg_core::feasibility::CancelToken;
use rtcg_core::model::Model;

use crate::{AnalysisMode, AnalysisReport, AnalysisRequest, Engine, EngineError, Verdict};

/// Unclaimed jobs remaining once `claimed` claims have been taken off
/// the cursor. Pure so the gauge arithmetic is unit-testable: the value
/// depends only on the *shared* claim count, never on which worker
/// computes it (the seed derived it from each worker's own claimed
/// index, so publish races made the gauge regress non-monotonically).
pub(crate) fn queue_depth(total: usize, claimed: usize) -> i64 {
    total.saturating_sub(claimed) as i64
}

/// Knobs of one batch run.
#[derive(Debug, Clone, Copy)]
pub struct BatchOptions {
    /// Worker threads claiming requests. Clamped to at least 1 and at
    /// most the number of requests.
    pub threads: usize,
    /// Per-request wall-clock budget in milliseconds. `None` disables
    /// degradation; every request runs to completion.
    pub budget_ms: Option<u64>,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            threads: 1,
            budget_ms: None,
        }
    }
}

/// Outcome of one request in a batch.
#[derive(Debug)]
pub struct BatchResult {
    /// The report (or the request's own error — one bad model never
    /// aborts the rest of the batch).
    pub report: Result<AnalysisReport, EngineError>,
    /// `Some(reason)` when the deadline budget expired and the verdict
    /// was substituted by the heuristic fallback.
    pub degraded: Option<String>,
}

impl BatchResult {
    /// True when this request fell back to the heuristic verdict.
    pub fn is_degraded(&self) -> bool {
        self.degraded.is_some()
    }
}

impl Engine {
    /// Analyzes every `(model, request)` pair through this engine's
    /// shared caches, fanning across `opts.threads` workers. Results
    /// come back in input order; cancellation/degradation is per
    /// request (see the module docs).
    pub fn analyze_batch(
        &self,
        jobs: &[(Model, AnalysisRequest)],
        opts: &BatchOptions,
    ) -> Vec<BatchResult> {
        let _span = rtcg_obs::span!("engine.batch", "engine");
        rtcg_obs::counter!("engine.batch.requests", jobs.len() as u64);
        let threads = opts.threads.max(1).min(jobs.len().max(1));
        let cursor = AtomicUsize::new(0);
        let degraded_total = AtomicU64::new(0);
        // One correlation id per batch entry, allocated and announced
        // (flow "produce") on the coordinating thread; the claiming
        // worker adopts the id, which emits the matching flow "consume"
        // and tags every span of that request — so a Chrome trace shows
        // one causal tree per entry with a handoff arrow into the
        // worker's lane. All None (and free) when no recorder is
        // installed.
        let request_ids: Vec<Option<u64>> = jobs
            .iter()
            .map(|_| {
                let id = rtcg_obs::allocate_request_id();
                if let Some(id) = id {
                    rtcg_obs::request_handoff(id);
                }
                id
            })
            .collect();
        // Serializes queue-depth publication: cursor reads taken under
        // this lock are monotone, so the gauge history never regresses.
        // One uncontended lock per claim is noise next to an analysis.
        let depth_lock = Mutex::new(());
        let mut slots: Vec<Option<BatchResult>> = (0..jobs.len()).map(|_| None).collect();
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(threads);
            for _ in 0..threads {
                let cursor = &cursor;
                let degraded_total = &degraded_total;
                let request_ids = &request_ids;
                let depth_lock = &depth_lock;
                handles.push(scope.spawn(move || {
                    let mut locals = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::AcqRel);
                        if i >= jobs.len() {
                            return locals;
                        }
                        {
                            let _g = depth_lock.lock();
                            let claimed = cursor.load(Ordering::Acquire).min(jobs.len());
                            rtcg_obs::gauge!(
                                "engine.batch.queue_depth",
                                queue_depth(jobs.len(), claimed)
                            );
                        }
                        let _scope = request_ids[i].map(rtcg_obs::RequestScope::adopt);
                        let (model, req) = &jobs[i];
                        locals.push((i, self.run_one(model, req, opts, degraded_total)));
                    }
                }));
            }
            for h in handles {
                for (i, r) in h.join().expect("batch worker panicked") {
                    slots[i] = Some(r);
                }
            }
        });
        rtcg_obs::gauge!("engine.batch.queue_depth", 0i64);
        rtcg_obs::counter!(
            "engine.batch.degraded",
            degraded_total.load(Ordering::Relaxed)
        );
        self.publish_shard_metrics();
        slots
            .into_iter()
            .map(|s| s.expect("every claimed job reports"))
            .collect()
    }

    fn run_one(
        &self,
        model: &Model,
        req: &AnalysisRequest,
        opts: &BatchOptions,
        degraded_total: &AtomicU64,
    ) -> BatchResult {
        // per-request searches run single-threaded inside the pool: the
        // pool is the parallelism (threads is fingerprint-excluded, so
        // this cannot change any report).
        let req = AnalysisRequest { threads: 1, ..*req };
        let token = opts
            .budget_ms
            .map(|ms| CancelToken::with_deadline(Duration::from_millis(ms)));
        match self.analyze_with_cancel(model, &req, token.as_ref()) {
            Ok(report) => {
                // degrade only when the budget actually cut the exact
                // search short: the token fired AND the verdict is the
                // gave-up shape. A search that completed before expiry
                // keeps its authoritative verdict.
                let cut_short = token.as_ref().is_some_and(|t| t.poll())
                    && req.mode == AnalysisMode::Exact
                    && matches!(report.verdict, Verdict::Unknown { .. });
                if !cut_short {
                    return BatchResult {
                        report: Ok(report),
                        degraded: None,
                    };
                }
                degraded_total.fetch_add(1, Ordering::Relaxed);
                let reason = format!(
                    "deadline budget of {} ms exhausted; heuristic verdict substituted",
                    opts.budget_ms.unwrap_or(0)
                );
                let fallback = AnalysisRequest {
                    mode: AnalysisMode::Heuristic,
                    ..req
                };
                BatchResult {
                    report: self.analyze(model, &fallback),
                    degraded: Some(reason),
                }
            }
            Err(e) => BatchResult {
                report: Err(e),
                degraded: None,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze_once;
    use rtcg_core::feasibility::SearchConfig;
    use rtcg_core::{ModelBuilder, TaskGraphBuilder};

    fn spread_model(n: usize, d: u64) -> Model {
        let mut b = ModelBuilder::new();
        for i in 0..n {
            let e = b.element(&format!("e{i}"), 1);
            let tg = TaskGraphBuilder::new().op("o", e).build().unwrap();
            b.asynchronous(&format!("c{i}"), tg, d, d);
        }
        b.build().unwrap()
    }

    fn exact_req() -> AnalysisRequest {
        AnalysisRequest {
            search: SearchConfig {
                max_len: 5,
                node_budget: 2_000_000,
            },
            ..AnalysisRequest::exact()
        }
    }

    #[test]
    fn queue_depth_is_claim_count_derived() {
        assert_eq!(queue_depth(5, 0), 5);
        assert_eq!(queue_depth(5, 2), 3);
        assert_eq!(queue_depth(5, 5), 0);
        // workers that raced past the end clamp to empty
        assert_eq!(queue_depth(5, 7), 0);
        assert_eq!(queue_depth(0, 0), 0);
        // the value is a function of the shared claim count alone:
        // claim counts only grow, so later publishes can only shrink it
        let depths: Vec<i64> = (0..=7).map(|c| queue_depth(5, c)).collect();
        assert!(depths.windows(2).all(|w| w[1] <= w[0]));
    }

    #[test]
    fn batch_matches_sequential_reports() {
        let jobs: Vec<(Model, AnalysisRequest)> =
            (4..8).map(|d| (spread_model(2, d), exact_req())).collect();
        let engine = Engine::new();
        let results = engine.analyze_batch(
            &jobs,
            &BatchOptions {
                threads: 3,
                budget_ms: None,
            },
        );
        assert_eq!(results.len(), jobs.len());
        for (r, (model, req)) in results.iter().zip(&jobs) {
            assert!(!r.is_degraded());
            let got = r.report.as_ref().unwrap();
            let want = analyze_once(model, req).unwrap();
            assert_eq!(
                got.verdict.schedule().map(|s| s.actions().to_vec()),
                want.verdict.schedule().map(|s| s.actions().to_vec())
            );
            assert_eq!(got.verdict.is_feasible(), want.verdict.is_feasible());
            let (gs, ws) = (got.search.unwrap(), want.search.unwrap());
            assert_eq!(gs.nodes_visited, ws.nodes_visited);
            assert_eq!(gs.candidates_checked, ws.candidates_checked);
            assert_eq!(gs.exhausted_bound, ws.exhausted_bound);
        }
        // one analyze per request, all misses on a fresh engine
        let stats = engine.stats();
        assert_eq!(stats.hits + stats.misses, jobs.len() as u64);
    }

    #[test]
    fn repeated_requests_hit_the_shared_memo() {
        let model = spread_model(2, 5);
        let jobs: Vec<(Model, AnalysisRequest)> =
            (0..6).map(|_| (model.clone(), exact_req())).collect();
        let engine = Engine::new();
        let results = engine.analyze_batch(
            &jobs,
            &BatchOptions {
                threads: 2,
                budget_ms: None,
            },
        );
        let cached = results
            .iter()
            .filter(|r| r.report.as_ref().unwrap().cached)
            .count();
        // at least the strictly-later claims hit (identical key); exact
        // count depends on claim interleaving
        assert!(cached >= 1, "identical requests must share the memo");
        let stats = engine.stats();
        assert_eq!(stats.hits + stats.misses, jobs.len() as u64);
        assert!(stats.hits >= 1);
    }

    #[test]
    fn zero_budget_degrades_to_heuristic_instead_of_erroring() {
        // budget 0: the token is already expired when the exact search
        // starts, so every request degrades — deterministically.
        let jobs: Vec<(Model, AnalysisRequest)> =
            (4..7).map(|d| (spread_model(2, d), exact_req())).collect();
        let engine = Engine::new();
        let results = engine.analyze_batch(
            &jobs,
            &BatchOptions {
                threads: 2,
                budget_ms: Some(0),
            },
        );
        for r in &results {
            assert!(r.is_degraded(), "zero budget must degrade");
            let report = r.report.as_ref().expect("degradation is not an error");
            if let Verdict::Feasible { strategy, .. } = &report.verdict {
                assert_ne!(*strategy, "exact", "fallback is heuristic-grade");
            }
            assert!(r.degraded.as_ref().unwrap().contains("budget"));
        }
        // partial (cancelled) exact reports must not have been memoized:
        // a fresh full-budget run still computes the exact verdict
        let full = engine
            .analyze(&jobs[0].0, &jobs[0].1)
            .expect("exact rerun succeeds");
        assert!(
            full.search.is_some() && !full.cached || full.search.is_some(),
            "exact rerun reports search stats"
        );
        assert!(full.verdict.is_feasible());
    }

    #[test]
    fn bad_request_degrades_that_entry_only() {
        // second job's model overflows the joint hyperperiod: its entry
        // errors, the others still complete
        let huge = 1u64 << 33;
        let mut b = ModelBuilder::new();
        let e = b.element("e", 1);
        let t1 = TaskGraphBuilder::new().op("x", e).build().unwrap();
        b.periodic("p1", t1, huge, huge);
        let t2 = TaskGraphBuilder::new().op("y", e).build().unwrap();
        b.periodic("p2", t2, huge + 1, huge + 1);
        let overflow = b.build().unwrap();
        let jobs = vec![
            (spread_model(2, 5), exact_req()),
            (overflow, exact_req()),
            (spread_model(2, 6), exact_req()),
        ];
        let engine = Engine::new();
        let results = engine.analyze_batch(&jobs, &BatchOptions::default());
        assert!(results[0].report.is_ok());
        assert!(results[1].report.is_err());
        assert!(results[2].report.is_ok());
    }
}
