//! Cheap necessary conditions for static-schedule feasibility.
//!
//! These bounds reject instances without search. They account for the
//! model's operation sharing: an instance of a shared element may serve
//! several constraints at once, so per-element demand takes a *max* over
//! constraints, not a sum.

use crate::error::ModelError;
use crate::model::{ElementId, Model};
use crate::time::Time;
use std::fmt;

/// Why an instance is certainly infeasible.
#[derive(Debug, Clone, PartialEq)]
pub enum InfeasibleReason {
    /// Some constraint's total computation time exceeds its deadline.
    SpanExceedsDeadline {
        /// Constraint name.
        name: String,
        /// Total computation time.
        computation: u64,
        /// Deadline.
        deadline: u64,
    },
    /// Long-run per-element demand exceeds processor capacity:
    /// `Σ_e w(e) · max_i n_i(e)/d_i > 1`.
    DensityExceedsOne {
        /// The computed lower bound on utilization.
        bound: f64,
    },
}

impl fmt::Display for InfeasibleReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InfeasibleReason::SpanExceedsDeadline {
                name,
                computation,
                deadline,
            } => write!(
                f,
                "constraint `{name}`: computation {computation} > deadline {deadline}"
            ),
            InfeasibleReason::DensityExceedsOne { bound } => {
                write!(f, "sharing-aware density {bound:.3} > 1")
            }
        }
    }
}

/// Sharing-aware long-run utilization lower bound.
///
/// In any window of length `X`, constraint `i` needs a fresh execution in
/// each of its `⌊X/dᵢ⌋` disjoint deadline windows, hence `nᵢ(e)·⌊X/dᵢ⌋`
/// distinct instances of element `e` (where `nᵢ(e)` counts operations of
/// `Cᵢ` on `e`). Instances may be shared *across* constraints, so the
/// demand on `e` is the max over constraints; summing `w(e)` times that
/// demand over elements and letting `X → ∞` gives the bound, which must
/// not exceed 1 tick of processor per tick of time.
pub fn density_lower_bound(model: &Model) -> Result<f64, ModelError> {
    let comm = model.comm();
    let mut per_element: std::collections::BTreeMap<crate::model::ElementId, f64> =
        std::collections::BTreeMap::new();
    for c in model.constraints() {
        for (elem, count) in c.task.element_usage() {
            let rate = count as f64 / c.deadline as f64;
            let entry = per_element.entry(elem).or_insert(0.0);
            if rate > *entry {
                *entry = rate;
            }
        }
    }
    let mut total = 0.0;
    for (elem, rate) in per_element {
        total += comm.wcet(elem)? as f64 * rate;
    }
    Ok(total)
}

/// Runs all cheap necessary conditions; `Ok(Some(reason))` means the
/// instance certainly has no feasible static schedule.
pub fn quick_infeasible(model: &Model) -> Result<Option<InfeasibleReason>, ModelError> {
    let _span = rtcg_obs::span!("feasibility.bounds", "search");
    let comm = model.comm();
    for c in model.constraints() {
        let w = c.computation_time(comm)?;
        if w > c.deadline {
            rtcg_obs::counter!("bounds.quick_rejections");
            return Ok(Some(InfeasibleReason::SpanExceedsDeadline {
                name: c.name.clone(),
                computation: w,
                deadline: c.deadline,
            }));
        }
    }
    let bound = density_lower_bound(model)?;
    if bound > 1.0 + 1e-9 {
        rtcg_obs::counter!("bounds.quick_rejections");
        return Ok(Some(InfeasibleReason::DensityExceedsOne { bound }));
    }
    Ok(None)
}

/// Incremental bounds over a *committed prefix* of the exact search's
/// symbol string (symbol `0` = idle, symbols `1..=n` = the used elements
/// in id order — the same encoding as [`super::exact`]).
///
/// All bounds are *sound for the leaf filter the search applies*: they
/// only reject prefixes none of whose completions can be a feasible
/// candidate **that contains every used element**. Two layers:
///
/// 1. **Remaining-symbols bound** — a prefix missing `k` used elements
///    with fewer than `k` slots left can never satisfy the all-present
///    leaf check.
/// 2. **Max-gap latency bound** — in a cycle of duration `T` containing
///    `m` executions of element `e`, the largest start-to-start gap is at
///    least `⌈T/m⌉` (pigeonhole over the circular gaps, which sum to
///    `T`), so a request arriving just after a start waits at least
///    `⌈T/m⌉ + w(e) − 1` for a fresh completion of its op on `e`. The
///    task as a whole then still owes the work *downstream* of that op:
///    on a uniprocessor the descendant ops' instances occupy disjoint
///    ticks after it, so for an asynchronous constraint `c` with an op
///    `o` on `e`, `latency(c) ≥ ⌈T/m(e)⌉ + w(e) − 1 + D(o)` where `D(o)`
///    sums the weights of `o`'s (distinct) descendants. Per element we
///    precompute the *effective deadline* `min_{c, o on e} (d_c − D(o))`
///    and prune when the gap bound exceeds it. From a prefix we know
///    `T ≥ duration + Σ_{missing} w + (remaining − missing)` (every
///    remaining slot costs ≥ 1 tick, missing elements cost their full
///    weight) and `m(e) ≤ counts[e] + remaining − |missing \ {e}|`
///    (every other missing element claims a slot), and `⌈·/·⌉` is
///    monotone, so the bound applied at `(T_min, m_max)` proves every
///    completion infeasible. This generalizes the "partial duration vs
///    tightest deadline" bound: with `m_max = 1` it degenerates to
///    `T_min + w(e) − 1 + D > d`.
///
/// The gap bound applies only to **asynchronous** deadlines: periodic
/// window starts are fixed at multiples of the period, not adversarial,
/// so a periodic constraint can meet its deadline despite a large gap
/// elsewhere in the cycle.
#[derive(Debug, Clone)]
pub struct PrefixPruner {
    /// Per symbol (index 0 = idle): ticks one occurrence adds.
    weight: Vec<Time>,
    /// Per symbol: tightest *effective* asynchronous deadline — the
    /// minimum over asynchronous constraints `c` and ops `o` on the
    /// element of `d_c − downstream_work(o)`; `Time::MAX` when no
    /// asynchronous constraint uses it (idle, or periodic-only element).
    tightest_async: Vec<Time>,
}

impl PrefixPruner {
    /// Builds the pruner for the search alphabet `{φ} ∪ used`. `used`
    /// must be the search alphabet ([`super::exact::used_elements`]) of
    /// `model`. Walks every asynchronous constraint's task graph once:
    /// for a fixed constraint `min_o (d_c − D(o)) = d_c − max_o D(o)`.
    pub fn new(model: &Model, used: &[ElementId]) -> Result<Self, ModelError> {
        let comm = model.comm();
        let mut weight = Vec::with_capacity(used.len() + 1);
        weight.push(1); // idle
        for &e in used {
            weight.push(comm.wcet(e)?);
        }
        let mut tightest_async = vec![Time::MAX; used.len() + 1];
        for c in model.constraints() {
            if c.kind != crate::constraint::ConstraintKind::Asynchronous {
                continue;
            }
            let mut succ: std::collections::BTreeMap<crate::task::OpId, Vec<crate::task::OpId>> =
                std::collections::BTreeMap::new();
            for (from, to) in c.task.precedence_edges() {
                succ.entry(from).or_default().push(to);
            }
            for (op_id, op) in c.task.ops() {
                let Some(pos) = used.iter().position(|&u| u == op.element) else {
                    continue;
                };
                // distinct-descendant work of this op (uniprocessor:
                // descendants occupy disjoint ticks after it completes)
                let mut seen = std::collections::BTreeSet::new();
                let mut stack: Vec<_> = succ.get(&op_id).cloned().unwrap_or_default();
                let mut downstream: Time = 0;
                while let Some(o) = stack.pop() {
                    if seen.insert(o) {
                        let elem = c.task.element_of(o).expect("op exists");
                        downstream += comm.wcet(elem)?;
                        stack.extend(succ.get(&o).into_iter().flatten().copied());
                    }
                }
                let t = &mut tightest_async[pos + 1];
                *t = (*t).min(c.deadline.saturating_sub(downstream));
            }
        }
        Ok(PrefixPruner {
            weight,
            tightest_async,
        })
    }

    /// Number of non-idle symbols.
    pub fn n_symbols(&self) -> usize {
        self.weight.len() - 1
    }

    /// Ticks one occurrence of `sym` adds to the schedule duration.
    pub fn weight(&self, sym: usize) -> Time {
        self.weight[sym]
    }

    /// True unless no completion of the prefix — `counts[s]` occurrences
    /// of each symbol, total `duration` ticks, `remaining` open slots —
    /// can be a feasible all-elements-present candidate.
    pub fn viable(&self, counts: &[u64], duration: Time, remaining: usize) -> bool {
        let n = self.n_symbols();
        let mut missing = 0u64;
        let mut missing_weight: Time = 0;
        for (&c, &w) in counts[1..=n].iter().zip(&self.weight[1..=n]) {
            if c == 0 {
                missing += 1;
                missing_weight += w;
            }
        }
        if missing > remaining as u64 {
            return false;
        }
        let t_min = duration + missing_weight + (remaining as u64 - missing);
        for (s, &d) in self.tightest_async.iter().enumerate().skip(1) {
            if d == Time::MAX {
                continue;
            }
            let m_max = counts[s] + remaining as u64 - missing + u64::from(counts[s] == 0);
            debug_assert!(m_max >= 1);
            let gap_lb = t_min.div_ceil(m_max);
            if gap_lb + self.weight[s] - 1 > d {
                return false;
            }
        }
        true
    }

    /// Batched last-row form of [`Self::viable`]: `out[sym]` is what
    /// `viable(counts + 1×sym, duration + weight(sym), 0)` returns, for
    /// every symbol `0..=n` at once. The missing-element scan over the
    /// base counts is hoisted out of the per-symbol loop — the exact
    /// search calls this once per sibling row instead of `viable` once
    /// per leaf. Pinned equal to the per-symbol calls by test.
    pub fn viable_last_row(&self, counts: &[u64], duration: Time, out: &mut Vec<bool>) {
        let n = self.n_symbols();
        out.clear();
        let mut missing = 0u64;
        for &c in &counts[1..=n] {
            if c == 0 {
                missing += 1;
            }
        }
        'sym: for sym in 0..=n {
            // with zero slots remaining, the completed candidate must
            // contain every used element: placing `sym` can cover at
            // most one missing element (itself)
            let still_missing = missing - u64::from(sym >= 1 && counts[sym] == 0);
            if still_missing > 0 {
                out.push(false);
                continue;
            }
            let t_min = duration + self.weight[sym];
            for (s, &d) in self.tightest_async.iter().enumerate().skip(1) {
                if d == Time::MAX {
                    continue;
                }
                let c = counts[s] + u64::from(s == sym);
                let m_max = c + u64::from(c == 0);
                let gap_lb = t_min.div_ceil(m_max);
                if gap_lb + self.weight[s] - 1 > d {
                    out.push(false);
                    continue 'sym;
                }
            }
            out.push(true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::{ConstraintKind, TimingConstraint};
    use crate::model::{CommGraph, Model};
    use crate::task::TaskGraphBuilder;

    /// A model with one element `e(w)` and `n` asynchronous single-op
    /// constraints with the given deadlines.
    fn single_element_model(w: u64, deadlines: &[u64]) -> Model {
        let mut g = CommGraph::new();
        let e = g.add_element("e", w).unwrap();
        let constraints = deadlines
            .iter()
            .enumerate()
            .map(|(i, &d)| TimingConstraint {
                name: format!("c{i}"),
                task: TaskGraphBuilder::new().op("e", e).build().unwrap(),
                period: d,
                deadline: d,
                kind: ConstraintKind::Asynchronous,
            })
            .collect();
        Model::new(g, constraints).unwrap()
    }

    #[test]
    fn shared_element_takes_max_not_sum() {
        // two constraints, both a single op on the same element e(1),
        // deadlines 2 and 3: naive sum = 1/2 + 1/3 = 0.83, sharing-aware
        // max = 1/2 (the d=2 demand dominates; the d=3 constraint reuses
        // the same instances).
        let m = single_element_model(1, &[2, 3]);
        let b = density_lower_bound(&m).unwrap();
        assert!((b - 0.5).abs() < 1e-9, "bound {b}");
        assert_eq!(quick_infeasible(&m).unwrap(), None);
    }

    #[test]
    fn density_over_one_detected() {
        // two DIFFERENT elements each of weight 1, deadlines 2 and 2 on
        // separate constraints: 1/2 + 1/2 = 1.0 → OK; weights 2 → 2.0 → bad
        let mut g = CommGraph::new();
        let a = g.add_element("a", 2).unwrap();
        let b = g.add_element("b", 2).unwrap();
        let mk = |e, name: &str| TimingConstraint {
            name: name.into(),
            task: TaskGraphBuilder::new().op("o", e).build().unwrap(),
            period: 3,
            deadline: 3,
            kind: ConstraintKind::Asynchronous,
        };
        let m = Model::new(g, vec![mk(a, "ca"), mk(b, "cb")]).unwrap();
        let bound = density_lower_bound(&m).unwrap();
        assert!((bound - 4.0 / 3.0).abs() < 1e-9);
        assert!(matches!(
            quick_infeasible(&m).unwrap(),
            Some(InfeasibleReason::DensityExceedsOne { .. })
        ));
    }

    #[test]
    fn span_bound_reported_first() {
        // computation 3 > deadline 2 — constructed directly since
        // Model::new would reject it; call density on a valid model and
        // the span check through quick_infeasible on a hand-rolled one.
        let mut g = CommGraph::new();
        let e = g.add_element("e", 3).unwrap();
        let c = TimingConstraint {
            name: "tight".into(),
            task: TaskGraphBuilder::new().op("e", e).build().unwrap(),
            period: 2,
            deadline: 2,
            kind: ConstraintKind::Asynchronous,
        };
        // bypass Model::new validation deliberately
        let m = Model::new(g.clone(), vec![]).unwrap();
        drop(m);
        let model = ModelUnchecked { g, c };
        let reason = model.check();
        assert!(matches!(
            reason,
            Some(InfeasibleReason::SpanExceedsDeadline { .. })
        ));

        // helper: minimal stand-in running the same bound logic
        struct ModelUnchecked {
            g: CommGraph,
            c: TimingConstraint,
        }
        impl ModelUnchecked {
            fn check(&self) -> Option<InfeasibleReason> {
                let w = self.c.computation_time(&self.g).unwrap();
                if w > self.c.deadline {
                    Some(InfeasibleReason::SpanExceedsDeadline {
                        name: self.c.name.clone(),
                        computation: w,
                        deadline: self.c.deadline,
                    })
                } else {
                    None
                }
            }
        }
    }

    #[test]
    fn multiple_ops_per_element_counted() {
        // one constraint with two ops on e(1), d=4: demand 2/4 = 0.5
        let mut g = CommGraph::new();
        let e = g.add_element("e", 1).unwrap();
        g.add_channel(e, e).unwrap();
        let tg = TaskGraphBuilder::new()
            .op("a", e)
            .op("b", e)
            .edge("a", "b")
            .build()
            .unwrap();
        let c = TimingConstraint {
            name: "c".into(),
            task: tg,
            period: 4,
            deadline: 4,
            kind: ConstraintKind::Asynchronous,
        };
        let m = Model::new(g, vec![c]).unwrap();
        assert!((density_lower_bound(&m).unwrap() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn reasons_display() {
        let r = InfeasibleReason::DensityExceedsOne { bound: 1.5 };
        assert!(r.to_string().contains("1.5"));
        let r = InfeasibleReason::SpanExceedsDeadline {
            name: "c".into(),
            computation: 5,
            deadline: 3,
        };
        assert!(r.to_string().contains('5'));
    }

    #[test]
    fn empty_model_is_fine() {
        let m = single_element_model(1, &[]);
        assert_eq!(density_lower_bound(&m).unwrap(), 0.0);
        assert_eq!(quick_infeasible(&m).unwrap(), None);
    }

    fn used_elements(m: &Model) -> Vec<crate::model::ElementId> {
        let mut used = Vec::new();
        for c in m.constraints() {
            for (_, op) in c.task.ops() {
                if !used.contains(&op.element) {
                    used.push(op.element);
                }
            }
        }
        used.sort();
        used
    }

    #[test]
    fn pruner_rejects_when_missing_symbols_exceed_slots() {
        let m = single_element_model(1, &[10, 10]);
        let used = used_elements(&m);
        let p = PrefixPruner::new(&m, &used).unwrap();
        assert_eq!(p.n_symbols(), 1); // shared element
                                      // prefix [φ φ], 0 slots left, element never placed
        assert!(!p.viable(&[2, 0], 2, 0));
        // one slot left is enough
        assert!(p.viable(&[2, 0], 2, 1));
    }

    #[test]
    fn pruner_gap_bound_matches_hand_computation() {
        // e(1), async d=2. Committed prefix [φ φ e] (duration 3), no
        // slots left: the single execution gives max gap 3 → latency
        // 3 > 2, prune. With one more slot a second execution could
        // halve the gap: ⌈4/2⌉ + 1 − 1 = 2 ≤ 2, keep.
        let m = single_element_model(1, &[2]);
        let used = used_elements(&m);
        let p = PrefixPruner::new(&m, &used).unwrap();
        assert!(!p.viable(&[2, 1], 3, 0));
        assert!(p.viable(&[2, 1], 3, 1));
        // bare [e] is viable
        assert!(p.viable(&[0, 1], 1, 0));
    }

    #[test]
    fn pruner_counts_missing_weight_in_duration() {
        // a(1) d=3 and b(5) only under a *periodic* constraint: placing
        // b is mandatory (all-present) and costs 5 ticks, so any
        // completion of prefix [a] with 1 slot left lasts ≥ 6 ticks with
        // one `a` → gap 6 → latency 6 > 3. The periodic element itself
        // must not trigger the gap bound.
        let mut g = CommGraph::new();
        let a = g.add_element("a", 1).unwrap();
        let b = g.add_element("b", 5).unwrap();
        let ca = TimingConstraint {
            name: "ca".into(),
            task: TaskGraphBuilder::new().op("a", a).build().unwrap(),
            period: 3,
            deadline: 3,
            kind: ConstraintKind::Asynchronous,
        };
        let cb = TimingConstraint {
            name: "cb".into(),
            task: TaskGraphBuilder::new().op("b", b).build().unwrap(),
            period: 12,
            deadline: 12,
            kind: ConstraintKind::Periodic,
        };
        let m = Model::new(g, vec![ca, cb]).unwrap();
        let used = used_elements(&m);
        let p = PrefixPruner::new(&m, &used).unwrap();
        // counts: [idle, a, b]
        assert!(!p.viable(&[0, 1, 0], 1, 1));
        // with 3 slots a second `a` fits: T_min = 1+5+2 = 8, m_max(a) =
        // 1+3−1 = 3 → ⌈8/3⌉ = 3 ≤ 3: viable
        assert!(p.viable(&[0, 1, 0], 1, 3));
    }

    /// `viable_last_row` is pinned to the per-symbol `viable` calls it
    /// batches: for every small count vector and duration, `out[sym]`
    /// must equal `viable(counts + 1×sym, duration + weight(sym), 0)`.
    #[test]
    fn viable_last_row_matches_per_symbol_viable() {
        let (mok, _) = crate::mok_example::default_model();
        let tight = single_element_model(1, &[2]);
        for m in [&mok, &tight] {
            let used = used_elements(m);
            let p = PrefixPruner::new(m, &used).unwrap();
            let n = p.n_symbols();
            let mut counts = vec![0u64; n + 1];
            let mut out = Vec::new();
            let mut bumped = vec![0u64; n + 1];
            loop {
                let duration: Time = (0..=n).map(|s| counts[s] * p.weight(s)).sum();
                for extra in [0, 1, 7] {
                    p.viable_last_row(&counts, duration + extra, &mut out);
                    assert_eq!(out.len(), n + 1);
                    for sym in 0..=n {
                        bumped.copy_from_slice(&counts);
                        bumped[sym] += 1;
                        let want = p.viable(&bumped, duration + extra + p.weight(sym), 0);
                        assert_eq!(
                            out[sym],
                            want,
                            "counts={counts:?} duration={} sym={sym}",
                            duration + extra
                        );
                    }
                }
                let mut k = 0;
                while k <= n {
                    counts[k] += 1;
                    if counts[k] <= 2 {
                        break;
                    }
                    counts[k] = 0;
                    k += 1;
                }
                if k > n {
                    break;
                }
            }
        }
    }
}
