//! Sensitivity analysis: how tight can the constraints get?
//!
//! The methodology's "resource allocation and other analysis" step in
//! practice: given a model, find the minimum feasible deadline of one
//! constraint (all others fixed), or the maximum uniform tightening
//! factor the whole constraint set tolerates — both by monotone binary
//! search over verified synthesis. Feasibility is monotone in each
//! deadline (any schedule feasible for `d` is feasible for `d' ≥ d`), so
//! binary search over the synthesizer's verified verdict is sound for
//! the synthesizer's notion of schedulability (a *sufficient* procedure:
//! reported minima are upper bounds on the true optima, exact whenever
//! the synthesizer is complete for the instance family).

use crate::constraint::ConstraintId;
use crate::error::ModelError;
use crate::heuristic::{synthesize_with, SynthesisConfig};
use crate::model::Model;
use crate::time::Time;

/// Result of a minimum-deadline search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlineSensitivity {
    /// The constraint analysed.
    pub constraint: ConstraintId,
    /// Its name.
    pub name: String,
    /// Its declared deadline.
    pub declared: Time,
    /// The smallest deadline at which synthesis still succeeds
    /// (`None` when even the declared deadline fails).
    pub minimum_feasible: Option<Time>,
}

impl DeadlineSensitivity {
    /// Slack between the declared deadline and the found minimum.
    ///
    /// `None` when no minimum was found, and also when the reported
    /// minimum exceeds the declared deadline (a degraded probe — e.g. a
    /// budget-limited search that only succeeded after *loosening* the
    /// deadline). Callers must not assume a `Some(minimum_feasible)`
    /// row has slack; rendering it as unavailable beats underflowing.
    pub fn slack(&self) -> Option<Time> {
        self.minimum_feasible
            .and_then(|m| self.declared.checked_sub(m))
    }
}

/// The model with constraint `id`'s deadline replaced by `d` (all else
/// unchanged). `Ok(None)` means the edit is definitionally infeasible
/// (deadline below the constraint's computation time), which binary
/// searches treat as an infeasible probe rather than an error.
pub fn with_deadline(
    model: &Model,
    id: ConstraintId,
    d: Time,
) -> Result<Option<Model>, ModelError> {
    let mut constraints = model.constraints().to_vec();
    let c = &mut constraints[id.index()];
    c.deadline = d;
    match Model::new(model.comm().clone(), constraints) {
        Ok(m) => Ok(Some(m)),
        // tightening below the computation time is definitionally
        // infeasible, not an error of the analysis
        Err(ModelError::ComputationExceedsDeadline { .. }) => Ok(None),
        Err(e) => Err(e),
    }
}

/// The model with *every* deadline scaled to `⌈d·pct/100⌉`. `Ok(None)`
/// when any scaled deadline hits zero or drops below its constraint's
/// computation time.
pub fn with_scaled_deadlines(model: &Model, pct: u32) -> Result<Option<Model>, ModelError> {
    let mut constraints = model.constraints().to_vec();
    for c in &mut constraints {
        c.deadline = ((c.deadline as u128 * pct as u128).div_ceil(100)) as Time;
        if c.deadline == 0 {
            return Ok(None);
        }
    }
    match Model::new(model.comm().clone(), constraints) {
        Ok(m) => Ok(Some(m)),
        Err(ModelError::ComputationExceedsDeadline { .. }) => Ok(None),
        Err(e) => Err(e),
    }
}

fn synthesizable(model: &Model, config: SynthesisConfig) -> bool {
    synthesize_with(model, config).is_ok()
}

/// Binary-searches the minimum deadline of `id` (all other constraints
/// fixed) for which [`synthesize_with`] produces a verified schedule.
pub fn min_feasible_deadline(
    model: &Model,
    id: ConstraintId,
    config: SynthesisConfig,
) -> Result<DeadlineSensitivity, ModelError> {
    min_feasible_deadline_with(model, id, &mut |m: &Model| {
        Ok::<_, ModelError>(synthesizable(m, config))
    })
}

/// [`min_feasible_deadline`] against an arbitrary feasibility oracle:
/// the probe models differ from `model` only in constraint `id`'s
/// deadline, so a caching oracle (e.g. `rtcg-engine`'s result memo)
/// answers repeated probes without re-analysis. The oracle must be monotone
/// in the deadline for the binary search to be sound.
pub fn min_feasible_deadline_with<E, F>(
    model: &Model,
    id: ConstraintId,
    feasible: &mut F,
) -> Result<DeadlineSensitivity, E>
where
    E: From<ModelError>,
    F: FnMut(&Model) -> Result<bool, E>,
{
    let c = model.constraint(id).map_err(E::from)?;
    let declared = c.deadline;
    let name = c.name.clone();
    // the absolute floor: the constraint's computation time
    let floor = c.computation_time(model.comm()).map_err(E::from)?.max(1);
    // feasible at the declared deadline at all?
    if !feasible(model)? {
        return Ok(DeadlineSensitivity {
            constraint: id,
            name,
            declared,
            minimum_feasible: None,
        });
    }
    let mut lo = floor; // maybe feasible
    let mut hi = declared; // known feasible
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let ok = match with_deadline(model, id, mid).map_err(E::from)? {
            Some(m) => feasible(&m)?,
            None => false,
        };
        if ok {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Ok(DeadlineSensitivity {
        constraint: id,
        name,
        declared,
        minimum_feasible: Some(hi),
    })
}

/// Sensitivity of every constraint, in declaration order.
pub fn deadline_sensitivities(
    model: &Model,
    config: SynthesisConfig,
) -> Result<Vec<DeadlineSensitivity>, ModelError> {
    deadline_sensitivities_with(model, &mut |m: &Model| {
        Ok::<_, ModelError>(synthesizable(m, config))
    })
}

/// [`deadline_sensitivities`] against an arbitrary feasibility oracle.
pub fn deadline_sensitivities_with<E, F>(
    model: &Model,
    feasible: &mut F,
) -> Result<Vec<DeadlineSensitivity>, E>
where
    E: From<ModelError>,
    F: FnMut(&Model) -> Result<bool, E>,
{
    model
        .constraints_enumerated()
        .map(|(id, _)| min_feasible_deadline_with(model, id, feasible))
        .collect()
}

/// Maximum uniform tightening: the largest integer percentage `pct ≤
/// 100` such that scaling *every* deadline to `⌈d·pct/100⌉` still
/// synthesizes. Returns 0 when even the declared deadlines fail.
pub fn max_uniform_tightening(model: &Model, config: SynthesisConfig) -> Result<u32, ModelError> {
    max_uniform_tightening_with(model, &mut |m: &Model| {
        Ok::<_, ModelError>(synthesizable(m, config))
    })
}

/// [`max_uniform_tightening`] against an arbitrary feasibility oracle.
pub fn max_uniform_tightening_with<E, F>(model: &Model, feasible: &mut F) -> Result<u32, E>
where
    E: From<ModelError>,
    F: FnMut(&Model) -> Result<bool, E>,
{
    if !feasible(model)? {
        return Ok(0);
    }
    let mut lo = 1u32; // maybe feasible
    let mut hi = 100u32; // known feasible
    while lo < hi {
        let mid = (lo + hi) / 2;
        let ok = match with_scaled_deadlines(model, mid).map_err(E::from)? {
            Some(m) => feasible(&m)?,
            None => false,
        };
        if ok {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Ok(hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelBuilder;
    use crate::task::TaskGraphBuilder;

    fn cfg() -> SynthesisConfig {
        SynthesisConfig {
            max_hyperperiod: 100_000,
            game_state_budget: 20_000,
        }
    }

    fn single(w: u64, d: u64) -> Model {
        let mut b = ModelBuilder::new();
        let e = b.element("e", w);
        let tg = TaskGraphBuilder::new().op("o", e).build().unwrap();
        b.asynchronous("c", tg, d, d);
        b.build().unwrap()
    }

    #[test]
    fn single_unit_constraint_minimum_is_one() {
        // w=1: schedule [e] gives latency 1 → min feasible deadline 1
        let m = single(1, 10);
        let s = min_feasible_deadline(&m, ConstraintId::new(0), cfg()).unwrap();
        assert_eq!(s.minimum_feasible, Some(1));
        assert_eq!(s.slack(), Some(9));
        assert_eq!(s.declared, 10);
    }

    #[test]
    fn heavy_constraint_minimum_is_2w_minus_1() {
        // w=3: back-to-back executions start every w ticks; a window of
        // length d contains a complete execution iff d ≥ 2w − 1 = 5 —
        // the synthesizer finds exactly this threshold.
        let m = single(3, 20);
        let s = min_feasible_deadline(&m, ConstraintId::new(0), cfg()).unwrap();
        assert_eq!(s.minimum_feasible, Some(5), "{s:?}");
    }

    #[test]
    fn unpipelinable_constraint_has_the_same_threshold() {
        // for a SINGLE constraint pipelining buys nothing: back-to-back
        // atomic executions start every w ticks, and a window of length
        // d contains a start iff d − w + 1 ≥ w, i.e. d ≥ 2w − 1 — the
        // same threshold (pipelining pays off only when several
        // constraints must interleave).
        let mut b = ModelBuilder::new();
        let e = b.element_unpipelinable("e", 3);
        let tg = TaskGraphBuilder::new().op("o", e).build().unwrap();
        b.asynchronous("c", tg, 20, 20);
        let m = b.build().unwrap();
        let s = min_feasible_deadline(&m, ConstraintId::new(0), cfg()).unwrap();
        assert_eq!(s.minimum_feasible, Some(5), "{s:?}");
    }

    #[test]
    fn infeasible_model_reports_none() {
        // density 2/3 + 2/3 > 1
        let mut b = ModelBuilder::new();
        let e0 = b.element("e0", 2);
        let e1 = b.element("e1", 2);
        let t0 = TaskGraphBuilder::new().op("o", e0).build().unwrap();
        let t1 = TaskGraphBuilder::new().op("o", e1).build().unwrap();
        b.asynchronous("c0", t0, 3, 3);
        b.asynchronous("c1", t1, 3, 3);
        let m = b.build().unwrap();
        let s = min_feasible_deadline(&m, ConstraintId::new(0), cfg()).unwrap();
        assert_eq!(s.minimum_feasible, None);
        assert_eq!(s.slack(), None);
        assert_eq!(max_uniform_tightening(&m, cfg()).unwrap(), 0);
    }

    #[test]
    fn sensitivities_cover_all_constraints() {
        let (m, _) = crate::mok_example::default_model();
        let all = deadline_sensitivities(&m, cfg()).unwrap();
        assert_eq!(all.len(), 3);
        for s in &all {
            let min = s.minimum_feasible.expect("example is feasible");
            assert!(min <= s.declared);
            // the found minimum really is feasible
            let tight = with_deadline(&m, s.constraint, min).unwrap().unwrap();
            assert!(synthesizable(&tight, cfg()), "{s:?}");
            // and one below is not (unless floor reached)
            if min > 1 {
                if let Some(below) = with_deadline(&m, s.constraint, min - 1).unwrap() {
                    assert!(!synthesizable(&below, cfg()), "{s:?} not minimal");
                }
            }
        }
    }

    #[test]
    fn uniform_tightening_bounds() {
        // w=1, d=10: even pct=1 gives ⌈0.1⌉ = 1, which is feasible
        let m = single(1, 10);
        let pct = max_uniform_tightening(&m, cfg()).unwrap();
        assert_eq!(pct, 1);

        // w=2 pipelined needs d ≥ 2w−1 = 3: ⌈4·pct/100⌉ ≥ 3 ⇔ pct ≥ 51
        let m = single(2, 4);
        let pct = max_uniform_tightening(&m, cfg()).unwrap();
        assert_eq!(pct, 51);
    }

    #[test]
    fn tightening_monotone_on_example() {
        let (m, _) = crate::mok_example::default_model();
        let pct = max_uniform_tightening(&m, cfg()).unwrap();
        assert!((1..=100).contains(&pct));
        // sanity: scaling by a slightly larger pct is also feasible
        let relaxed = ((pct as u64 + 100) / 2).max(pct as u64) as u32;
        let mut constraints = m.constraints().to_vec();
        for c in &mut constraints {
            c.deadline = (c.deadline * relaxed as u64).div_ceil(100);
        }
        let m2 = Model::new(m.comm().clone(), constraints).unwrap();
        assert!(synthesizable(&m2, cfg()));
    }
}
