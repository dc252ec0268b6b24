//! Compiled leaf checker — flat structure-of-arrays kernels and an
//! incremental trace view for the exact search's candidate-evaluation
//! hot path.
//!
//! After the branch-and-bound rewrite, the
//! remaining per-candidate cost of [`super::exact`] is the leaf check
//! itself. The classic path ([`crate::schedule::FeasibilityCache`])
//! still expands every candidate into a [`crate::trace::Trace`]
//! (`reps × duration` slots), re-extracts an instance index into a
//! fresh `BTreeMap`, and runs a per-window DFS that allocates a
//! `BTreeMap` of chosen instances and re-walks `precedence_edges()` at
//! every node. [`CompiledChecker`] removes all of that by splitting the
//! work into a *compile* phase (once per search) and a *check* phase
//! (once per candidate, allocation-free in steady state):
//!
//! * **Compile**: every constraint's task graph is topologically sorted
//!   into flat arrays — one dense `u32` element index and wcet per op,
//!   predecessor and same-element op lists in CSR form
//!   ([`CompiledConstraint`]) — and elements are interned to dense
//!   indices (their arena index in the communication graph) so every
//!   check-phase lookup is a direct array access. Constraint scan
//!   order, repetition horizons, and the periodic window grid are
//!   precomputed exactly as `FeasibilityCache::new` does.
//!
//! * **Check**: the candidate action string is *never expanded*. The
//!   checker maintains an incremental per-element instance-offset index
//!   (`starts[e]` = start ticks of `e`'s instances within one schedule
//!   period, in order): appending a symbol pushes one offset and
//!   advances the running duration, backtracking pops it. Because the
//!   generated trace is periodic, the instance `k` of element `e` in
//!   the infinite trace starts at `starts[e][k % m] + (k / m) · T` —
//!   the window DFS enumerates instances lazily from that closed form
//!   instead of scanning materialized slots. Candidates arriving from
//!   the enumerator's DFS share long prefixes, so syncing by
//!   longest-common-prefix diff performs exactly the append/backtrack
//!   work of one branch step per enumeration edge (and skips entirely
//!   the subtrees the pruner rejected before reaching a leaf).
//!
//! * **Fast path**: each constraint compiles a `u64` coverage bitset of
//!   the dense elements its ops require. A candidate whose element set
//!   (maintained incrementally as a bitset) misses a required element
//!   cannot execute the task graph in *any* window — all windows are
//!   rejected before any DFS starts.
//!
//! * **Scratch**: the window DFS runs over a per-checker
//!   [`ScratchArena`] (chosen-instance and finish-time arrays sized at
//!   compile time). The exact search builds one checker per worker
//!   thread, so steady-state checks perform zero heap allocations.
//!
//! ## The invariant: verdict bit-identity
//!
//! `CompiledChecker::check` must return exactly what
//! `StaticSchedule::new(actions.to_vec()).feasibility(model)?.is_feasible()`
//! — and therefore what `FeasibilityCache::check` — would return, for
//! *every* action string, including degenerate ones (elements missing,
//! unknown ids, zero weights). The exact search's completeness claim,
//! the parallel search's replay determinism, and the engine's warm ≡
//! cold contract all rest on the leaf evaluator being a pure drop-in. The
//! differential suites (`schedule.rs`, `tests/proptest_search.rs`,
//! `rtcg-engine/tests/differential.rs`) pin this equivalence; the
//! window kernel below mirrors [`crate::trace`]'s branch-and-bound
//! searcher case for case.

use super::exact::CandidateEval;
use crate::constraint::ConstraintKind;
use crate::error::ModelError;
use crate::model::Model;
use crate::schedule::Action;
use crate::time::{checked_lcm, gcd, Time};

/// Maximum lane width of [`CompiledChecker::check_batch`] — one lane
/// per bit of the `u64` alive mask.
pub const MAX_BATCH: usize = 64;

/// Coverage bit for a dense element index (indices ≥ 64 overflow to a
/// slow-path list; models that large are far beyond exact-search reach,
/// but correctness must not depend on that).
#[inline]
fn mask_bit(dense: usize) -> u64 {
    if dense < 64 {
        1u64 << dense
    } else {
        0
    }
}

/// One timing constraint compiled to flat arrays (ops in topological
/// order; all cross-references are topo positions, not `OpId`s).
#[derive(Debug, Clone)]
struct CompiledConstraint {
    /// Index in `model.constraints()` (the memo/report key).
    ix: usize,
    /// Deadline probed by `check`.
    deadline: Time,
    /// Invocation period (periodic constraints only).
    period: Time,
    /// Repetitions sufficient for exact latency (`2(n+1) + 1`).
    reps: usize,
    /// Dense element index per op.
    op_elem: Vec<u32>,
    /// Element wcet per op (denormalized for locality).
    op_wcet: Vec<Time>,
    /// CSR offsets into `preds` (`op_count + 1` entries).
    pred_off: Vec<u32>,
    /// Topo positions of each op's direct predecessors.
    preds: Vec<u32>,
    /// CSR offsets into `same` (`op_count + 1` entries).
    same_off: Vec<u32>,
    /// Earlier topo positions executing the same element (instance
    /// distinctness checks).
    same: Vec<u32>,
    /// Coverage bitset over dense element indices < 64.
    required_mask: u64,
    /// Required dense indices ≥ 64 (checked against the index directly).
    required_overflow: Vec<u32>,
    /// True when the task graph is a simple chain in topo order (op `i`'s
    /// only predecessor is op `i − 1`). Chains admit the batched greedy
    /// window sweep; anything else falls back to the window DFS.
    is_chain: bool,
}

impl CompiledConstraint {
    fn compile(
        ix: usize,
        c: &crate::constraint::TimingConstraint,
        comm: &crate::model::CommGraph,
    ) -> Result<Self, ModelError> {
        let topo = c.task.topo_ops();
        let n = topo.len();
        let mut pos_of = std::collections::BTreeMap::new();
        for (i, &op) in topo.iter().enumerate() {
            pos_of.insert(op, i);
        }
        let mut op_elem = Vec::with_capacity(n);
        let mut op_wcet = Vec::with_capacity(n);
        let mut required_mask = 0u64;
        let mut required_overflow: Vec<u32> = Vec::new();
        for &op in &topo {
            let e = c.task.element_of(op).expect("live op");
            op_wcet.push(comm.wcet(e)?);
            let dense = e.index();
            op_elem.push(dense as u32);
            required_mask |= mask_bit(dense);
            if dense >= 64 && !required_overflow.contains(&(dense as u32)) {
                required_overflow.push(dense as u32);
            }
        }
        let mut pred_lists: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (u, v) in c.task.precedence_edges() {
            pred_lists[pos_of[&v]].push(pos_of[&u] as u32);
        }
        let mut pred_off = Vec::with_capacity(n + 1);
        let mut preds = Vec::new();
        pred_off.push(0u32);
        for mut list in pred_lists {
            list.sort_unstable();
            preds.extend_from_slice(&list);
            pred_off.push(preds.len() as u32);
        }
        let mut same_off = Vec::with_capacity(n + 1);
        let mut same = Vec::new();
        same_off.push(0u32);
        for i in 0..n {
            for j in 0..i {
                if op_elem[j] == op_elem[i] {
                    same.push(j as u32);
                }
            }
            same_off.push(same.len() as u32);
        }
        let is_chain = (0..n).all(|i| {
            let lo = pred_off[i] as usize;
            let hi = pred_off[i + 1] as usize;
            if i == 0 {
                lo == hi
            } else {
                hi - lo == 1 && preds[lo] as usize == i - 1
            }
        });
        Ok(CompiledConstraint {
            ix,
            deadline: c.deadline,
            period: c.period,
            reps: 2 * (n + 1) + 1,
            op_elem,
            op_wcet,
            pred_off,
            preds,
            same_off,
            same,
            required_mask,
            required_overflow,
            is_chain,
        })
    }

    fn op_count(&self) -> usize {
        self.op_elem.len()
    }
}

/// Reusable DFS buffers: one arena per checker, one checker per worker
/// thread. Sized to the largest compiled task graph, so steady-state
/// checks never allocate.
#[derive(Debug, Clone, Default)]
struct ScratchArena {
    /// Global instance index chosen for each topo position on the
    /// current DFS path (valid only for positions above the cursor).
    chosen: Vec<u64>,
    /// Finish tick of the chosen instance per topo position.
    finish: Vec<Time>,
    /// Monotone `(rep, slot)` instance cursor per chain depth for the
    /// batched ascending window sweep.
    cursors: Vec<(Time, usize)>,
}

/// One fold class of [`CompiledChecker::check_batch`] lanes under a
/// single constraint: all alive lanes whose schedule period equals
/// `period` and whose tail symbol is the same element *as seen by that
/// constraint* (`rel = None` when the tail element is not one of the
/// constraint's op elements — such a tail is invisible to its window
/// search). Lanes in one group see identical instance sets, so one
/// window evaluation verdicts every member.
#[derive(Debug, Clone)]
struct LaneGroup {
    period: Time,
    rel: Option<usize>,
    members: u64,
}

/// Compiled yes/no feasibility checker — the exact search's default
/// leaf evaluator. Built once per search (or per worker thread) from
/// one model; verdicts are bit-identical to
/// [`crate::schedule::FeasibilityCache`] and therefore to
/// [`crate::schedule::StaticSchedule::feasibility`].
///
/// The checker is stateful: it carries the incremental instance index
/// of the most recently checked candidate and syncs to each new
/// candidate by longest-common-prefix diff (see module docs). All
/// public entry points sync first, so calls may mix arbitrary
/// candidates; consecutive candidates from a DFS enumeration sync in
/// amortized one append/pop per enumeration edge.
#[derive(Debug, Clone)]
pub struct CompiledChecker {
    /// wcet by dense element index; `None` = no such element in `G`.
    wcet: Vec<Option<Time>>,
    /// Asynchronous constraints, tightest deadline first.
    asyn: Vec<CompiledConstraint>,
    /// Periodic constraints, declaration order.
    periodic: Vec<CompiledConstraint>,
    /// LCM of all periodic periods (1 when there are none).
    periodic_lcm: Time,
    /// Largest periodic deadline.
    max_periodic_deadline: Time,
    /// Mirror of the candidate the index below describes.
    cur: Vec<Action>,
    /// Per dense element: instance start offsets within one schedule
    /// period, ascending (the incremental SoA trace view).
    starts: Vec<Vec<Time>>,
    /// Duration in ticks of one repetition of `cur`.
    duration: Time,
    /// Coverage bitset of elements with ≥ 1 instance in `cur`.
    present_mask: u64,
    scratch: ScratchArena,
    /// Reusable lane-group table for [`Self::check_batch`].
    groups: Vec<LaneGroup>,
}

impl CompiledChecker {
    /// Compiles `model` into flat check tables. Fails if a constraint
    /// references an element the communication graph lacks (impossible
    /// for validated models) or the joint hyperperiod of the periodic
    /// constraints overflows `u64` — a saturated lcm would silently
    /// shrink every window grid, so it is refused up front.
    pub fn new(model: &Model) -> Result<Self, ModelError> {
        let comm = model.comm();
        let n_dense = comm.element_ids().map(|e| e.index() + 1).max().unwrap_or(0);
        let mut wcet = vec![None; n_dense];
        for (id, e) in comm.elements() {
            wcet[id.index()] = Some(e.wcet);
        }
        let mut asyn = Vec::new();
        let mut periodic = Vec::new();
        let mut periodic_lcm: Time = 1;
        let mut max_periodic_deadline: Time = 0;
        let mut max_ops = 0usize;
        for (ix, c) in model.constraints().iter().enumerate() {
            let cc = CompiledConstraint::compile(ix, c, comm)?;
            max_ops = max_ops.max(cc.op_count());
            match c.kind {
                ConstraintKind::Asynchronous => asyn.push(cc),
                ConstraintKind::Periodic => {
                    periodic_lcm = checked_lcm(periodic_lcm, c.period)
                        .ok_or(ModelError::HyperperiodOverflow)?;
                    max_periodic_deadline = max_periodic_deadline.max(c.deadline);
                    periodic.push(cc);
                }
            }
        }
        asyn.sort_by_key(|c| c.deadline);
        Ok(CompiledChecker {
            wcet,
            asyn,
            periodic,
            periodic_lcm,
            max_periodic_deadline,
            cur: Vec::new(),
            starts: vec![Vec::new(); n_dense],
            duration: 0,
            present_mask: 0,
            scratch: ScratchArena {
                chosen: vec![0; max_ops],
                finish: vec![0; max_ops],
                cursors: vec![(0, 0); max_ops],
            },
            groups: Vec::new(),
        })
    }

    /// Syncs the incremental index to `actions` by longest-common-prefix
    /// diff and returns the schedule duration. Errors (unknown element,
    /// zero weight) surface at the first offending symbol, exactly like
    /// [`crate::schedule::StaticSchedule::duration`]; the index then
    /// holds the valid prefix and self-heals on the next sync.
    pub fn sync(&mut self, actions: &[Action]) -> Result<Time, ModelError> {
        let common = self
            .cur
            .iter()
            .zip(actions)
            .take_while(|(a, b)| *a == *b)
            .count();
        while self.cur.len() > common {
            self.pop();
        }
        for &a in &actions[common..] {
            self.push(a)?;
        }
        Ok(self.duration)
    }

    /// Appends one symbol to the incremental index.
    fn push(&mut self, a: Action) -> Result<(), ModelError> {
        match a {
            Action::Idle => self.duration += 1,
            Action::Run(e) => {
                let w = self
                    .wcet
                    .get(e.index())
                    .copied()
                    .flatten()
                    .ok_or(ModelError::UnknownElement(e))?;
                if w == 0 {
                    return Err(ModelError::ZeroWeightScheduled(e));
                }
                let dense = e.index();
                if self.starts[dense].is_empty() {
                    self.present_mask |= mask_bit(dense);
                }
                self.starts[dense].push(self.duration);
                self.duration += w;
            }
        }
        self.cur.push(a);
        Ok(())
    }

    /// Backtracks the most recently appended symbol.
    fn pop(&mut self) {
        match self.cur.pop().expect("pop on empty candidate") {
            Action::Idle => self.duration -= 1,
            Action::Run(e) => {
                let dense = e.index();
                let start = self.starts[dense].pop().expect("instance recorded");
                self.duration = start;
                if self.starts[dense].is_empty() {
                    self.present_mask &= !mask_bit(dense);
                }
            }
        }
    }

    /// True iff `StaticSchedule::new(actions.to_vec()).feasibility(model)`
    /// (for the compiled model) would report feasible.
    pub fn check(&mut self, actions: &[Action]) -> Result<bool, ModelError> {
        let period = self.sync(actions)?;
        if actions.is_empty() || period == 0 {
            return Err(ModelError::EmptySchedule);
        }
        for cc in &self.asyn {
            if !covered(cc, self.present_mask, &self.starts) {
                return Ok(false);
            }
            let horizon = checked_horizon(cc.reps as Time, period)?;
            for s in 0..period {
                match window_completion(cc, &self.starts, period, s, horizon, &mut self.scratch) {
                    Some(done) if done - s <= cc.deadline => {}
                    _ => return Ok(false),
                }
            }
        }
        if !self.periodic.is_empty() {
            let (joint, horizon) =
                periodic_grid(period, self.periodic_lcm, self.max_periodic_deadline)?;
            for cc in &self.periodic {
                if !covered(cc, self.present_mask, &self.starts) {
                    return Ok(false);
                }
                for k in 0..joint / cc.period {
                    let t0 = k * cc.period;
                    match window_completion(
                        cc,
                        &self.starts,
                        period,
                        t0,
                        horizon,
                        &mut self.scratch,
                    ) {
                        Some(done) if done <= t0 + cc.deadline => {}
                        _ => return Ok(false),
                    }
                }
            }
        }
        Ok(true)
    }

    /// Exact latency of the candidate w.r.t. the asynchronous constraint
    /// at declaration index `ix` — bit-identical to
    /// [`crate::schedule::StaticSchedule::latency`] against that
    /// constraint's task graph. Deadline-independent: the verdict for
    /// any deadline `d` is `latency ≤ d`.
    pub fn async_latency(
        &mut self,
        actions: &[Action],
        ix: usize,
    ) -> Result<Option<Time>, ModelError> {
        let period = self.sync(actions)?;
        if actions.is_empty() || period == 0 {
            return Err(ModelError::EmptySchedule);
        }
        let cc = self
            .asyn
            .iter()
            .find(|c| c.ix == ix)
            .expect("asynchronous constraint index");
        if !covered(cc, self.present_mask, &self.starts) {
            // some op's element never runs: every window start fails
            return Ok(None);
        }
        let horizon = checked_horizon(cc.reps as Time, period)?;
        let mut worst: Time = 0;
        for s in 0..period {
            match window_completion(cc, &self.starts, period, s, horizon, &mut self.scratch) {
                Some(done) => worst = worst.max(done - s),
                None => return Ok(None),
            }
        }
        Ok(Some(worst))
    }

    /// `(unserved windows, worst response over served windows)` for the
    /// periodic constraint at declaration index `ix`, over the joint
    /// hyperperiod of the candidate and all periodic periods. The pair
    /// is deadline-independent apart from the analysis horizon.
    pub fn periodic_stats(
        &mut self,
        actions: &[Action],
        ix: usize,
    ) -> Result<(u64, Option<Time>), ModelError> {
        let period = self.sync(actions)?;
        if actions.is_empty() || period == 0 {
            return Err(ModelError::EmptySchedule);
        }
        let cc = self
            .periodic
            .iter()
            .find(|c| c.ix == ix)
            .expect("periodic constraint index");
        let joint =
            checked_lcm(period, self.periodic_lcm).ok_or(ModelError::HyperperiodOverflow)?;
        let n_windows = joint / cc.period;
        if !covered(cc, self.present_mask, &self.starts) {
            return Ok((n_windows, None));
        }
        let (_, horizon) = periodic_grid(period, self.periodic_lcm, self.max_periodic_deadline)?;
        let mut unserved = 0u64;
        let mut worst: Option<Time> = None;
        for k in 0..n_windows {
            let t0 = k * cc.period;
            match window_completion(cc, &self.starts, period, t0, horizon, &mut self.scratch) {
                Some(done) => {
                    let response = done - t0;
                    worst = Some(worst.map_or(response, |w| w.max(response)));
                }
                None => unserved += 1,
            }
        }
        Ok((unserved, worst))
    }

    /// Verdicts `check(prefix ++ [tail])` for every tail in one pass,
    /// writing one `Result` per lane into `out` (same order as `tails`).
    /// Each lane's entry is exactly what the scalar [`Self::check`]
    /// would return for that full candidate — verdicts, errors, and
    /// error precedence included.
    ///
    /// The kernel syncs the shared prefix once, then drives all lanes
    /// through the constraint scan together: a `u64` alive mask tracks
    /// lanes not yet verdicted, the coverage fold kills uncovered lanes
    /// with count-trailing-zeros scans, and the surviving lanes fold
    /// into [`LaneGroup`]s — lanes whose `(schedule period, relevant
    /// tail element)` key matches see *identical* instance sets under
    /// the constraint, so one window evaluation per group verdicts
    /// every member. Chain-shaped constraints evaluate all their
    /// windows in a single ascending greedy sweep with monotone
    /// instance cursors (amortized O(1) per window per op); periodic
    /// constraints additionally reduce their window set to the distinct
    /// start residues mod the lane period. Non-chain graphs fall back
    /// to the per-window DFS, still amortized across the group.
    ///
    /// Panics if `tails` is empty or wider than [`MAX_BATCH`].
    pub fn check_batch(
        &mut self,
        prefix: &[Action],
        tails: &[Action],
        out: &mut Vec<Result<bool, ModelError>>,
    ) {
        out.clear();
        let width = tails.len();
        assert!(
            (1..=MAX_BATCH).contains(&width),
            "check_batch width must be 1..={MAX_BATCH}, got {width}"
        );
        let dp = match self.sync(prefix) {
            Ok(d) => d,
            Err(e) => {
                // the offending prefix symbol fails every lane's scalar
                // check identically
                out.extend(std::iter::repeat_with(|| Err(e.clone())).take(width));
                return;
            }
        };
        // per-lane tail tables; a lane's period is dp + w(tail) ≥ 1, so
        // EmptySchedule can never fire here
        let mut lane_period = [0 as Time; MAX_BATCH];
        let mut lane_dense = [usize::MAX; MAX_BATCH];
        let mut alive: u64 = 0;
        for (i, &a) in tails.iter().enumerate() {
            let w = match a {
                Action::Idle => 1,
                Action::Run(e) => match self.wcet.get(e.index()).copied().flatten() {
                    None => {
                        out.push(Err(ModelError::UnknownElement(e)));
                        continue;
                    }
                    Some(0) => {
                        out.push(Err(ModelError::ZeroWeightScheduled(e)));
                        continue;
                    }
                    Some(w) => {
                        lane_dense[i] = e.index();
                        w
                    }
                },
            };
            lane_period[i] = dp + w;
            alive |= 1u64 << i;
            out.push(Ok(false)); // placeholder; survivors flip at the end
        }

        let mut groups = std::mem::take(&mut self.groups);
        for cc in &self.asyn {
            if alive == 0 {
                break;
            }
            group_lanes(
                cc,
                &mut alive,
                self.present_mask,
                &self.starts,
                &lane_period,
                &lane_dense,
                &mut groups,
            );
            for pi in 0..groups.len() {
                let period = groups[pi].period;
                if groups[..pi].iter().any(|g| g.period == period) {
                    continue; // period cluster already evaluated
                }
                match checked_horizon(cc.reps as Time, period) {
                    Ok(horizon) => eval_period_cluster(
                        cc,
                        &mut self.starts,
                        &mut self.scratch,
                        dp,
                        &groups,
                        period,
                        1,
                        horizon,
                        &mut alive,
                    ),
                    Err(e) => {
                        for g in groups.iter().filter(|g| g.period == period) {
                            kill_with(out, &mut alive, g.members, &e);
                        }
                    }
                }
            }
        }

        if alive != 0 && !self.periodic.is_empty() {
            // the scalar path computes the joint grid *before* scanning
            // periodic coverage, so an overflowing grid errors even on
            // lanes that would fail coverage — mirror that order here
            let mut lane_horizon = [0 as Time; MAX_BATCH];
            let mut rest = alive;
            while rest != 0 {
                let i = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                match periodic_grid(
                    lane_period[i],
                    self.periodic_lcm,
                    self.max_periodic_deadline,
                ) {
                    Ok((_, h)) => lane_horizon[i] = h,
                    Err(e) => {
                        out[i] = Err(e);
                        alive &= !(1u64 << i);
                    }
                }
            }
            for cc in &self.periodic {
                if alive == 0 {
                    break;
                }
                group_lanes(
                    cc,
                    &mut alive,
                    self.present_mask,
                    &self.starts,
                    &lane_period,
                    &lane_dense,
                    &mut groups,
                );
                for pi in 0..groups.len() {
                    let period = groups[pi].period;
                    if groups[..pi].iter().any(|g| g.period == period) {
                        continue; // period cluster already evaluated
                    }
                    // a periodic window's verdict depends only on its
                    // start residue mod the lane period: instance sets
                    // are shift-invariant by one period, and the
                    // analysis horizon always clears the latest window
                    // plus its deadline (see DESIGN.md §12) — so only
                    // the gcd-many distinct residues are evaluated
                    let horizon = lane_horizon[groups[pi].members.trailing_zeros() as usize];
                    let step = gcd(cc.period, period);
                    eval_period_cluster(
                        cc,
                        &mut self.starts,
                        &mut self.scratch,
                        dp,
                        &groups,
                        period,
                        step,
                        horizon,
                        &mut alive,
                    );
                }
            }
        }

        let mut rest = alive;
        while rest != 0 {
            let i = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            out[i] = Ok(true);
        }
        self.groups = groups;
    }
}

impl CandidateEval for CompiledChecker {
    /// `model` must be the model this checker was compiled from; the
    /// compiled tables are authoritative.
    fn check(&mut self, _model: &Model, actions: &[Action]) -> Result<bool, ModelError> {
        CompiledChecker::check(self, actions)
    }

    fn check_batch(
        &mut self,
        _model: &Model,
        prefix: &[Action],
        tails: &[Action],
        out: &mut Vec<Result<bool, ModelError>>,
    ) {
        CompiledChecker::check_batch(self, prefix, tails, out)
    }
}

/// Coverage fast path: every element the constraint's ops require has
/// at least one instance in the candidate. When this fails, no window
/// of the generated trace contains an execution, so all window DFSes
/// are skipped.
#[inline]
fn covered(cc: &CompiledConstraint, present_mask: u64, starts: &[Vec<Time>]) -> bool {
    cc.required_mask & !present_mask == 0
        && cc
            .required_overflow
            .iter()
            .all(|&e| !starts[e as usize].is_empty())
}

/// Per-lane coverage for the batch kernel: the candidate is the synced
/// prefix *plus* the lane's tail, so a required element counts as
/// present when the prefix provides it **or** the tail is that very
/// element — including dense indices ≥ 64, where `mask_bit` is 0 and
/// only the overflow list (with the tail compared directly) decides.
#[inline]
fn lane_covered(
    cc: &CompiledConstraint,
    present_mask: u64,
    starts: &[Vec<Time>],
    tail_dense: usize,
) -> bool {
    let tail_bit = if tail_dense == usize::MAX {
        0
    } else {
        mask_bit(tail_dense)
    };
    cc.required_mask & !(present_mask | tail_bit) == 0
        && cc
            .required_overflow
            .iter()
            .all(|&e| !starts[e as usize].is_empty() || e as usize == tail_dense)
}

/// True when the constraint's ops execute the dense element — i.e. the
/// element is visible to the constraint's window search.
#[inline]
fn constraint_uses(cc: &CompiledConstraint, dense: usize) -> bool {
    if dense < 64 {
        cc.required_mask & mask_bit(dense) != 0
    } else {
        cc.required_overflow.contains(&(dense as u32))
    }
}

/// `reps · period` with headroom validated: the window kernels may
/// probe one instance past the horizon (`start < horizon + period`,
/// `fin ≤ start + period` since every instance fits inside one period),
/// so `horizon + 2·period` must be representable or the instance
/// arithmetic in [`leaf_dfs`] / [`chain_sweep_ok`] — including
/// `rep · m + slot` with `rep ≤ reps + 1`, `m ≤ period` — could wrap
/// silently on high-period models.
fn checked_horizon(reps: Time, period: Time) -> Result<Time, ModelError> {
    let horizon = reps
        .checked_mul(period)
        .ok_or(ModelError::HyperperiodOverflow)?;
    horizon
        .checked_add(period)
        .and_then(|h| h.checked_add(period))
        .ok_or(ModelError::HyperperiodOverflow)?;
    Ok(horizon)
}

/// `(joint hyperperiod, analysis horizon)` of the periodic window grid
/// for a candidate of the given period — the overflow-checked form of
/// `joint = lcm(period, periodic_lcm)`,
/// `horizon = ((joint + max_deadline) / period + 2) · period`.
fn periodic_grid(
    period: Time,
    periodic_lcm: Time,
    max_periodic_deadline: Time,
) -> Result<(Time, Time), ModelError> {
    let joint = checked_lcm(period, periodic_lcm).ok_or(ModelError::HyperperiodOverflow)?;
    let reps = joint
        .checked_add(max_periodic_deadline)
        .ok_or(ModelError::HyperperiodOverflow)?
        / period
        + 2;
    Ok((joint, checked_horizon(reps, period)?))
}

/// Folds the alive lanes into evaluation groups for one constraint.
/// Lanes whose candidate does not cover the constraint are killed in
/// the same pass (their verdict stays the scalar's `Ok(false)`
/// placeholder), so the caller needs no separate coverage scan.
fn group_lanes(
    cc: &CompiledConstraint,
    alive: &mut u64,
    present_mask: u64,
    starts: &[Vec<Time>],
    lane_period: &[Time; MAX_BATCH],
    lane_dense: &[usize; MAX_BATCH],
    groups: &mut Vec<LaneGroup>,
) {
    groups.clear();
    let mut rest = *alive;
    while rest != 0 {
        let i = rest.trailing_zeros() as usize;
        rest &= rest - 1;
        if !lane_covered(cc, present_mask, starts, lane_dense[i]) {
            *alive &= !(1u64 << i);
            continue;
        }
        let rel = (lane_dense[i] != usize::MAX && constraint_uses(cc, lane_dense[i]))
            .then_some(lane_dense[i]);
        let period = lane_period[i];
        match groups
            .iter_mut()
            .find(|g| g.period == period && g.rel == rel)
        {
            Some(g) => g.members |= 1u64 << i,
            None => groups.push(LaneGroup {
                period,
                rel,
                members: 1u64 << i,
            }),
        }
    }
}

/// Evaluates every group of one `(constraint, schedule period)` cluster,
/// exploiting instance-set monotonicity in both directions. A rel group
/// only *adds* the tail's instance at `dp` to the prefix-only instance
/// sets, and adding instances can only lower a window's minimal
/// completion. So the cluster is bracketed:
///
/// - **base** (prefix-only — the `rel == None` group when present, else
///   a synthetic probe): a subset of every rel group. If it passes,
///   every group in the cluster passes with zero further work; if it
///   fails at window `s`, every earlier window passes for every group,
///   so later scans resume at `s`.
/// - **union** (every rel tail's instance pushed at once): a superset
///   of every rel group. If it fails, every rel group fails — one short
///   fail-fast sweep verdicts the whole cluster, the common case for
///   infeasible frontiers.
///
/// Only when the bracket straddles (base fails, union passes) are the
/// rel groups evaluated individually, each resuming at the base's
/// failing window. Groups that fail are cleared from `alive`;
/// verdict-false lanes keep their `Ok(false)` placeholder.
#[allow(clippy::too_many_arguments)]
fn eval_period_cluster(
    cc: &CompiledConstraint,
    starts: &mut [Vec<Time>],
    scratch: &mut ScratchArena,
    dp: Time,
    groups: &[LaneGroup],
    period: Time,
    step: Time,
    horizon: Time,
    alive: &mut u64,
) {
    let base_members = groups
        .iter()
        .find(|g| g.period == period && g.rel.is_none())
        .map(|g| g.members);
    let n_rel = groups
        .iter()
        .filter(|g| g.period == period && g.rel.is_some())
        .count();

    let base = if base_members.is_some() || n_rel >= 2 {
        let r = windows_from(cc, starts, period, step, 0, horizon, scratch);
        if let (Err(_), Some(members)) = (&r, base_members) {
            *alive &= !members;
        }
        r
    } else {
        Err(0) // lone rel group: no baseline to share, scan from 0
    };
    let Err(from) = base else {
        return; // base passed → every superset instance set passes
    };

    if n_rel >= 2 {
        for g in groups.iter().filter(|g| g.period == period) {
            if let Some(d) = g.rel {
                starts[d].push(dp);
            }
        }
        let union_ok = windows_from(cc, starts, period, step, from, horizon, scratch).is_ok();
        for g in groups.iter().filter(|g| g.period == period) {
            if let Some(d) = g.rel {
                starts[d].pop();
            }
        }
        if !union_ok {
            for g in groups.iter().filter(|g| g.period == period) {
                if g.rel.is_some() {
                    *alive &= !g.members;
                }
            }
            return;
        }
    }

    for g in groups.iter().filter(|g| g.period == period) {
        let Some(d) = g.rel else { continue };
        starts[d].push(dp);
        let ok = windows_from(cc, starts, period, step, from, horizon, scratch).is_ok();
        starts[d].pop();
        if !ok {
            *alive &= !g.members;
        }
    }
}

/// Marks every member lane's verdict as `err` and clears it from the
/// alive mask.
fn kill_with(
    out: &mut [Result<bool, ModelError>],
    alive: &mut u64,
    members: u64,
    err: &ModelError,
) {
    let mut rest = members;
    while rest != 0 {
        let i = rest.trailing_zeros() as usize;
        rest &= rest - 1;
        out[i] = Err(err.clone());
    }
    *alive &= !members;
}

/// Scans the windows starting at `from, from+step, … < period`:
/// `Ok(())` when every one admits a task-graph completion within the
/// constraint's deadline under `horizon`, `Err(s)` with the first
/// failing window start otherwise. Callers must already know the
/// windows before `from` pass — the group evaluation in `check_batch`
/// uses this to resume a superset-instance group at the exact window
/// where its subset baseline failed. Chain graphs run one ascending
/// greedy sweep; general graphs run the exact window DFS per window
/// start.
fn windows_from(
    cc: &CompiledConstraint,
    starts: &[Vec<Time>],
    period: Time,
    step: Time,
    from: Time,
    horizon: Time,
    scratch: &mut ScratchArena,
) -> Result<(), Time> {
    if cc.is_chain {
        return chain_sweep(
            cc,
            starts,
            period,
            step,
            from,
            horizon,
            &mut scratch.cursors,
        );
    }
    let mut s: Time = from;
    while s < period {
        match window_completion(cc, starts, period, s, horizon, scratch) {
            Some(done) if done - s <= cc.deadline => {}
            _ => return Err(s),
        }
        s += step;
    }
    Ok(())
}

/// All windows of a chain constraint in one ascending sweep.
///
/// For a chain, the earliest completion from window start `s` is the
/// greedy assignment: each op takes the earliest instance of its
/// element starting at or after the previous op's finish (instances
/// are distinct automatically — chosen starts strictly increase along
/// the chain — and if the greedy choice overruns the horizon every
/// assignment does, matching the DFS's `None`). Because the greedy
/// start at each depth is monotone in `s`, one `(rep, slot)` cursor
/// per depth only ever advances across the ascending window starts:
/// the whole sweep costs O(instances + windows·ops) instead of a DFS
/// per window. A window fails as soon as any op's greedy finish
/// overruns the horizon or already exceeds the deadline — the final
/// completion can only be later.
///
/// Windows are additionally *skipped* exactly: the chain's completion
/// depends on `s` only through the first op's chosen instance (every
/// later pick chases the previous finish, not `s`), so until `s`
/// passes that instance's start the picks — and the finish — are
/// unchanged while the latency `fin - s` only shrinks. Every grid
/// window in `(s, first_pick]` therefore passes whenever `s` does, and
/// the sweep jumps straight to the first grid window past the pick:
/// O(instances) evaluated windows instead of O(period / step), with
/// the identical verdict and identical first failing window.
fn chain_sweep(
    cc: &CompiledConstraint,
    starts: &[Vec<Time>],
    period: Time,
    step: Time,
    from: Time,
    horizon: Time,
    cursors: &mut [(Time, usize)],
) -> Result<(), Time> {
    let k = cc.op_count();
    for c in cursors[..k].iter_mut() {
        *c = (0, 0);
    }
    let mut s: Time = from;
    while s < period {
        let mut t = s;
        let mut first_pick = s;
        for d in 0..k {
            let occ = &starts[cc.op_elem[d] as usize];
            let m = occ.len();
            if m == 0 {
                return Err(s);
            }
            let (mut rep, mut slot) = cursors[d];
            let mut start = occ[slot] + rep * period;
            while start < t {
                slot += 1;
                if slot == m {
                    slot = 0;
                    rep += 1;
                }
                start = occ[slot] + rep * period;
            }
            cursors[d] = (rep, slot);
            if d == 0 {
                first_pick = start;
            }
            let fin = start + cc.op_wcet[d];
            if fin > horizon || fin - s > cc.deadline {
                return Err(s);
            }
            t = fin;
        }
        debug_assert!(t - s <= cc.deadline);
        s += ((first_pick - s) / step + 1) * step;
    }
    Ok(())
}

/// Earliest completion of the compiled task graph when every instance
/// must start at or after `from` and finish by `horizon` — the compiled
/// equivalent of [`crate::trace`]'s `earliest_completion_indexed` over
/// the periodic instance index. Exact branch-and-bound, allocation-free.
fn window_completion(
    cc: &CompiledConstraint,
    starts: &[Vec<Time>],
    period: Time,
    from: Time,
    horizon: Time,
    scratch: &mut ScratchArena,
) -> Option<Time> {
    if cc.op_elem.is_empty() {
        // the empty task graph completes immediately
        return Some(from);
    }
    let mut best = None;
    leaf_dfs(cc, starts, period, from, horizon, 0, 0, scratch, &mut best);
    best
}

/// One level of the window DFS: assign an instance to the op at topo
/// position `depth`. Mirrors `trace::Searcher::dfs` exactly — same
/// lower bound, same skip/break conditions, same bounding — so the
/// computed minimum is identical; only the instance representation
/// (closed-form periodic arithmetic vs materialized lists) differs.
#[allow(clippy::too_many_arguments)]
fn leaf_dfs(
    cc: &CompiledConstraint,
    starts: &[Vec<Time>],
    period: Time,
    from: Time,
    horizon: Time,
    depth: usize,
    current_max: Time,
    scratch: &mut ScratchArena,
    best: &mut Option<Time>,
) {
    if let Some(b) = *best {
        if current_max >= b {
            return; // cannot improve
        }
    }
    if depth == cc.op_count() {
        *best = Some(match *best {
            Some(b) => b.min(current_max),
            None => current_max,
        });
        return;
    }
    let elem = cc.op_elem[depth] as usize;
    let w = cc.op_wcet[depth];
    // lower bound: all predecessors must have finished
    let mut lb = from;
    for k in cc.pred_off[depth]..cc.pred_off[depth + 1] {
        lb = lb.max(scratch.finish[cc.preds[k as usize] as usize]);
    }
    let occ = &starts[elem];
    let m = occ.len() as u64;
    if m == 0 {
        return;
    }
    // first instance starting at or after lb: instance k of the
    // periodic trace starts at occ[k % m] + (k / m) · period, and
    // global starts are ascending in k
    let (mut rep, mut slot) = {
        let q = lb / period;
        let rem = lb % period;
        let i = occ.partition_point(|&x| x < rem);
        if (i as u64) < m {
            (q, i)
        } else {
            (q + 1, 0)
        }
    };
    loop {
        let start = occ[slot] + rep * period;
        let fin = start + w;
        if fin > horizon {
            // ascending starts, fixed per-element length: every later
            // instance also overruns the horizon
            break;
        }
        // in-bounds by the entry points' `checked_horizon` validation:
        // rep ≤ reps + 1 and m ≤ period, so rep·m ≤ horizon + period
        let inst = rep * m + slot as u64;
        // per-element distinctness: no earlier op on the same element
        // already uses this instance
        let clash = (cc.same_off[depth]..cc.same_off[depth + 1])
            .any(|k| scratch.chosen[cc.same[k as usize] as usize] == inst);
        if !clash {
            let new_max = current_max.max(fin);
            if let Some(b) = *best {
                if new_max >= b {
                    // later instances only finish later: stop scanning
                    break;
                }
            }
            scratch.chosen[depth] = inst;
            scratch.finish[depth] = fin;
            leaf_dfs(
                cc,
                starts,
                period,
                from,
                horizon,
                depth + 1,
                new_max,
                scratch,
                best,
            );
        }
        slot += 1;
        if slot as u64 == m {
            slot = 0;
            rep += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ElementId, ModelBuilder};
    use crate::schedule::{FeasibilityCache, StaticSchedule};
    use crate::task::TaskGraphBuilder;
    use proptest::prelude::*;

    /// Mixed async + periodic model matching the FeasibilityCache
    /// agreement test in `schedule.rs`.
    fn mixed_model() -> (Model, Vec<Action>) {
        let mut b = ModelBuilder::new();
        let ea = b.element("a", 1);
        let eb = b.element("b", 2);
        b.channel(ea, eb);
        let chain = TaskGraphBuilder::new()
            .op("a", ea)
            .op("b", eb)
            .edge("a", "b")
            .build()
            .unwrap();
        b.asynchronous("chain", chain, 7, 7);
        let single = TaskGraphBuilder::new().op("b", eb).build().unwrap();
        b.periodic("beat", single, 6, 5);
        let m = b.build().unwrap();
        let symbols = vec![Action::Idle, Action::Run(ea), Action::Run(eb)];
        (m, symbols)
    }

    /// Every string of length ≤ 3 over the alphabet: compiled verdicts
    /// equal both the cached and the full (cold) analysis.
    #[test]
    fn compiled_agrees_with_cache_and_full_analysis() {
        let (m, symbols) = mixed_model();
        let mut cache = FeasibilityCache::new(&m);
        let mut compiled = CompiledChecker::new(&m).unwrap();
        let mut agree = 0u32;
        for len in 1..=3usize {
            let mut idx = vec![0usize; len];
            loop {
                let actions: Vec<Action> = idx.iter().map(|&i| symbols[i]).collect();
                let full = StaticSchedule::new(actions.clone()).feasibility(&m);
                let fast = cache.check(&m, &actions);
                let comp = compiled.check(&actions);
                match (full, fast, comp) {
                    (Ok(report), Ok(a), Ok(b)) => {
                        assert_eq!(report.is_feasible(), a, "cache vs full on {actions:?}");
                        assert_eq!(a, b, "compiled vs cache on {actions:?}");
                        agree += 1;
                    }
                    (Err(_), Err(_), Err(_)) => {}
                    (full, fast, comp) => {
                        panic!("divergence on {actions:?}: {full:?} vs {fast:?} vs {comp:?}")
                    }
                }
                let mut k = 0;
                while k < len {
                    idx[k] += 1;
                    if idx[k] < symbols.len() {
                        break;
                    }
                    idx[k] = 0;
                    k += 1;
                }
                if k == len {
                    break;
                }
            }
        }
        assert!(agree > 20);
    }

    #[test]
    fn latency_and_periodic_stats_match_schedule_analysis() {
        let (m, symbols) = mixed_model();
        let mut compiled = CompiledChecker::new(&m).unwrap();
        let candidates = [
            vec![symbols[1], symbols[2]],
            vec![symbols[2], symbols[1]],
            vec![symbols[1], symbols[0], symbols[2]],
            vec![symbols[2], symbols[2], symbols[1]],
            vec![symbols[0], symbols[1], symbols[0]],
        ];
        for actions in candidates {
            let s = StaticSchedule::new(actions.clone());
            // constraint 0 is asynchronous, 1 is periodic
            let want_latency = s.latency(m.comm(), &m.constraints()[0].task).unwrap();
            assert_eq!(
                compiled.async_latency(&actions, 0).unwrap(),
                want_latency,
                "{actions:?}"
            );
            let report = s.feasibility(&m).unwrap();
            let beat = &report.checks[1];
            let (unserved, worst) = compiled.periodic_stats(&actions, 1).unwrap();
            assert_eq!(unserved, beat.missed_windows, "{actions:?}");
            assert_eq!(worst, beat.latency, "{actions:?}");
        }
    }

    #[test]
    fn degenerate_candidates_error_like_the_cache() {
        let (m, _) = mixed_model();
        let mut compiled = CompiledChecker::new(&m).unwrap();
        assert!(matches!(
            compiled.check(&[]),
            Err(ModelError::EmptySchedule)
        ));
        assert!(matches!(
            compiled.check(&[Action::Run(ElementId::new(99))]),
            Err(ModelError::UnknownElement(_))
        ));
        // a failed sync must not poison later checks
        assert!(compiled.check(&[Action::Idle]).is_ok());

        let mut b = ModelBuilder::new();
        let z = b.element("z", 0);
        let good = b.element("g", 1);
        let tg = TaskGraphBuilder::new().op("g", good).build().unwrap();
        b.asynchronous("cg", tg, 4, 4);
        let m0 = b.build().unwrap();
        let mut compiled = CompiledChecker::new(&m0).unwrap();
        assert!(matches!(
            compiled.check(&[Action::Run(good), Action::Run(z)]),
            Err(ModelError::ZeroWeightScheduled(_))
        ));
    }

    #[test]
    fn coverage_fast_path_rejects_missing_elements() {
        let (m, symbols) = mixed_model();
        let mut compiled = CompiledChecker::new(&m).unwrap();
        // candidate runs only `a`: the chain constraint needs `b` too
        assert!(!compiled.check(&[symbols[1]]).unwrap());
        assert_eq!(compiled.async_latency(&[symbols[1]], 0).unwrap(), None);
        let (unserved, worst) = compiled.periodic_stats(&[symbols[1]], 1).unwrap();
        assert!(unserved > 0);
        assert_eq!(worst, None);
    }

    /// Rebuilds the expected index for an action string from scratch.
    fn fresh_index(m: &Model, actions: &[Action]) -> (Vec<Vec<Time>>, Time, u64) {
        let mut c = CompiledChecker::new(m).unwrap();
        c.sync(actions).unwrap();
        (c.starts.clone(), c.duration, c.present_mask)
    }

    /// Batched verdicts are bit-identical to the scalar path: every
    /// prefix of length 0..=3 over the alphabet with the full alphabet
    /// as the lane set, on the *same* checker instance so the
    /// incremental index must survive alternating batch/scalar use.
    #[test]
    fn check_batch_matches_scalar_exhaustively() {
        let (m, symbols) = mixed_model();
        let mut batched = CompiledChecker::new(&m).unwrap();
        let mut scalar = CompiledChecker::new(&m).unwrap();
        let mut out = Vec::new();
        let mut buf = Vec::new();
        for plen in 0..=3usize {
            let mut idx = vec![0usize; plen];
            loop {
                let prefix: Vec<Action> = idx.iter().map(|&i| symbols[i]).collect();
                batched.check_batch(&prefix, &symbols, &mut out);
                assert_eq!(out.len(), symbols.len());
                for (lane, &tail) in symbols.iter().enumerate() {
                    buf.clear();
                    buf.extend_from_slice(&prefix);
                    buf.push(tail);
                    match (&out[lane], scalar.check(&buf)) {
                        (Ok(a), Ok(b)) => assert_eq!(*a, b, "{prefix:?} + {tail:?}"),
                        (Err(a), Err(b)) => assert_eq!(*a, b, "{prefix:?} + {tail:?}"),
                        (got, want) => {
                            panic!("divergence on {prefix:?} + {tail:?}: {got:?} vs {want:?}")
                        }
                    }
                }
                let mut k = 0;
                while k < plen {
                    idx[k] += 1;
                    if idx[k] < symbols.len() {
                        break;
                    }
                    idx[k] = 0;
                    k += 1;
                }
                if k == plen {
                    break;
                }
            }
        }
    }

    /// A 63-element model saturates the lane mask: one full-width batch
    /// (63 runs + idle = 64 lanes) verdicts identically to the scalar
    /// path, including lanes whose tail element no constraint uses.
    #[test]
    fn full_width_batch_matches_scalar() {
        let mut b = ModelBuilder::new();
        let els: Vec<ElementId> = (0..63).map(|i| b.element(&format!("e{i}"), 1)).collect();
        b.channel(els[0], els[1]);
        b.channel(els[1], els[62]);
        let tg = TaskGraphBuilder::new()
            .op("x", els[0])
            .op("y", els[1])
            .op("z", els[62])
            .edge("x", "y")
            .edge("y", "z")
            .build()
            .unwrap();
        b.asynchronous("chain", tg, 9, 9);
        let single = TaskGraphBuilder::new().op("y", els[1]).build().unwrap();
        b.periodic("beat", single, 4, 3);
        let m = b.build().unwrap();

        let mut tails: Vec<Action> = els.iter().map(|&e| Action::Run(e)).collect();
        tails.push(Action::Idle);
        assert_eq!(tails.len(), MAX_BATCH);

        let mut batched = CompiledChecker::new(&m).unwrap();
        let mut scalar = CompiledChecker::new(&m).unwrap();
        let mut out = Vec::new();
        let mut buf = Vec::new();
        for prefix in [
            vec![],
            vec![Action::Run(els[0])],
            vec![Action::Run(els[0]), Action::Run(els[1])],
            vec![
                Action::Run(els[1]),
                Action::Run(els[0]),
                Action::Run(els[62]),
            ],
        ] {
            batched.check_batch(&prefix, &tails, &mut out);
            assert_eq!(out.len(), MAX_BATCH);
            for (lane, &tail) in tails.iter().enumerate() {
                buf.clear();
                buf.extend_from_slice(&prefix);
                buf.push(tail);
                assert_eq!(
                    out[lane].clone().unwrap(),
                    scalar.check(&buf).unwrap(),
                    "{prefix:?} + {tail:?}"
                );
            }
        }
    }

    /// Regression for the >64-dense-element edge: padding elements
    /// claim every `required_mask` bit, forcing the constraint's own
    /// elements into the overflow list. `covered` (scalar) and
    /// `lane_covered` (batch, where the tail is the *only* instance of
    /// an overflow element) must both stay exact, not conservative.
    #[test]
    fn overflow_elements_past_64_stay_exact() {
        let mut b = ModelBuilder::new();
        let pad: Vec<ElementId> = (0..66).map(|i| b.element(&format!("pad{i}"), 1)).collect();
        let x = b.element("x", 1);
        let y = b.element("y", 2);
        assert!(x.index() >= 64 && y.index() >= 64);
        b.channel(x, y);
        let tg = TaskGraphBuilder::new()
            .op("x", x)
            .op("y", y)
            .edge("x", "y")
            .build()
            .unwrap();
        b.asynchronous("late", tg, 8, 8);
        let m = b.build().unwrap();

        let mut cache = FeasibilityCache::new(&m);
        let mut compiled = CompiledChecker::new(&m).unwrap();
        let candidates = [
            vec![Action::Run(x)],
            vec![Action::Run(x), Action::Run(y)],
            vec![Action::Run(y), Action::Run(x)],
            vec![Action::Run(pad[0]), Action::Run(x), Action::Run(y)],
            vec![Action::Run(pad[65]), Action::Run(pad[0])],
        ];
        for actions in &candidates {
            assert_eq!(
                compiled.check(actions).unwrap(),
                cache.check(&m, actions).unwrap(),
                "{actions:?}"
            );
        }

        // batch lanes where the tail supplies the missing overflow
        // element — `lane_covered` must see it even though `starts[y]`
        // is still empty when coverage is folded
        let mut scalar = CompiledChecker::new(&m).unwrap();
        let prefix = vec![Action::Run(x)];
        let tails = vec![
            Action::Idle,
            Action::Run(x),
            Action::Run(y),
            Action::Run(pad[3]),
        ];
        let mut out = Vec::new();
        compiled.check_batch(&prefix, &tails, &mut out);
        let mut buf = Vec::new();
        for (lane, &tail) in tails.iter().enumerate() {
            buf.clear();
            buf.extend_from_slice(&prefix);
            buf.push(tail);
            assert_eq!(
                out[lane].clone().unwrap(),
                scalar.check(&buf).unwrap(),
                "{prefix:?} + {tail:?}"
            );
        }
        // the y-tail lane is the interesting one: it must pass coverage
        // and come back feasible exactly like the cache says
        assert_eq!(
            out[2].clone().unwrap(),
            cache.check(&m, &[Action::Run(x), Action::Run(y)]).unwrap()
        );
    }

    /// Instance-index arithmetic on huge-period candidates surfaces
    /// `HyperperiodOverflow` instead of wrapping silently.
    #[test]
    fn huge_periods_error_instead_of_wrapping() {
        // reps for a single-op async constraint is 2·(1+1)+1 = 5, so a
        // candidate period near u64::MAX/4 wraps `reps · period`
        let huge_w = u64::MAX / 4;
        let mut b = ModelBuilder::new();
        let e = b.element("e", huge_w);
        let tg = TaskGraphBuilder::new().op("x", e).build().unwrap();
        b.asynchronous("c", tg, huge_w, huge_w);
        let m = b.build().unwrap();
        let mut compiled = CompiledChecker::new(&m).unwrap();
        let actions = vec![Action::Run(e)];
        assert!(matches!(
            compiled.check(&actions),
            Err(ModelError::HyperperiodOverflow)
        ));
        assert!(matches!(
            compiled.async_latency(&actions, 0),
            Err(ModelError::HyperperiodOverflow)
        ));
        // the batched path surfaces the same error on the lane
        let mut out = Vec::new();
        compiled.check_batch(&[], &[Action::Run(e)], &mut out);
        assert!(matches!(out[0], Err(ModelError::HyperperiodOverflow)));
        // an error must not poison later checks
        assert!(compiled.check(&[Action::Idle]).is_ok());

        // coprime huge periodic periods overflow the joint lcm at build
        let huge = 1u64 << 33;
        let mut b = ModelBuilder::new();
        let e = b.element("e", 1);
        let t1 = TaskGraphBuilder::new().op("x", e).build().unwrap();
        b.periodic("p1", t1, huge, huge);
        let t2 = TaskGraphBuilder::new().op("y", e).build().unwrap();
        b.periodic("p2", t2, huge + 1, huge + 1);
        let m = b.build().unwrap();
        assert!(matches!(
            CompiledChecker::new(&m),
            Err(ModelError::HyperperiodOverflow)
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Append-then-backtrack through an arbitrary sequence of
        /// candidates leaves the incremental index byte-identical to a
        /// fresh build of the final candidate.
        #[test]
        fn incremental_index_matches_fresh_build(
            seqs in prop::collection::vec(
                prop::collection::vec(0usize..=2, 0..=8),
                1..=6,
            )
        ) {
            let (m, symbols) = mixed_model();
            let mut inc = CompiledChecker::new(&m).unwrap();
            for seq in &seqs {
                let actions: Vec<Action> = seq.iter().map(|&i| symbols[i]).collect();
                inc.sync(&actions).unwrap();
                let (starts, duration, mask) = fresh_index(&m, &actions);
                prop_assert_eq!(&inc.starts, &starts, "starts after {:?}", seq);
                prop_assert_eq!(inc.duration, duration);
                prop_assert_eq!(inc.present_mask, mask);
                prop_assert_eq!(&inc.cur, &actions);
            }
        }
    }
}
