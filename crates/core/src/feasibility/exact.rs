//! Complete bounded search for a feasible static schedule, as
//! branch-and-bound over canonical prefixes.
//!
//! A static schedule's feasibility is invariant under rotation, so only
//! the lexicographically-minimal rotation (the *necklace*) of each
//! action string needs checking. The seed enumerator generated every
//! string and filtered at the leaf; this search instead walks only
//! prefixes of necklaces, in lexicographic order, using the classic
//! FKM step: at position `t` with current prefix period `p`, the
//! allowed symbols are `string[t-p]` (period stays `p`) or anything
//! larger (period becomes `t+1`), and a completed string is a necklace
//! iff `len % p == 0`. Layered on top:
//!
//! * **prefix bounds** ([`super::bounds::PrefixPruner`]) — a prefix
//!   dies as soon as the missing elements cannot fit in the remaining
//!   slots or the max-gap latency bound already exceeds a tightest
//!   asynchronous deadline;
//! * **dead root subtrees** — a necklace containing every used element
//!   starts with its minimum symbol, which is `φ` or the first
//!   element, so root symbols `≥ 2` are never explored;
//! * **short lengths** — strings shorter than the number of used
//!   elements cannot contain them all, so the length loop starts at
//!   `n_used`;
//! * **compiled leaf evaluation** ([`super::compiled::CompiledChecker`])
//!   — the model compiled once into flat structure-of-arrays tables,
//!   with an incremental per-candidate instance index (synced by
//!   longest-common-prefix diff, so consecutive leaves of the DFS pay
//!   one append/pop per enumeration edge) and an allocation-free
//!   per-window kernel, with the asynchronous scan short-circuiting on
//!   the first miss. The previous cached evaluator
//!   ([`crate::schedule::FeasibilityCache`]) remains as the
//!   differential baseline.
//!
//! The search is still intentionally exponential: Theorem 2 proves the
//! problem strongly NP-hard even for severely restricted instances, and
//! the E3/E4 hardness experiments measure this procedure's blowup on
//! the two reduction families. For honest use, note that failure at a
//! given `max_len` only certifies "no feasible schedule of at most that
//! many actions"; the [`super::game`] solver gives a complete verdict.
//!
//! The seed enumerator survives as [`reference::find_feasible_reference`]
//! — the oracle for differential tests and the baseline the `search`
//! bench compares against.
//!
//! # Budget semantics
//!
//! `SearchConfig::node_budget` caps *charge units*: one unit per
//! enumeration node entered (a symbol placed at a position, pruned or
//! not) plus one per candidate evaluated. The search stops — with
//! `exhausted_bound = false` — when a charge would exceed the cap. The
//! sequential and parallel searches share this accounting exactly (see
//! [`super::parallel`]), so their verdicts, schedules, and counters are
//! identical by construction.

use super::bounds::PrefixPruner;
use super::compiled::MAX_BATCH;
use crate::error::ModelError;
use crate::model::{ElementId, Model};
use crate::schedule::{Action, FeasibilityCache, StaticSchedule};
use crate::time::Time;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Search configuration.
#[derive(Debug, Clone, Copy)]
pub struct SearchConfig {
    /// Maximum schedule length in actions.
    pub max_len: usize,
    /// Abort after this many charge units (nodes entered + candidates
    /// evaluated).
    pub node_budget: u64,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            max_len: 10,
            node_budget: 5_000_000,
        }
    }
}

/// Result of a bounded exact search.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// A feasible schedule, if one was found.
    pub schedule: Option<StaticSchedule>,
    /// Number of candidate strings examined (feasibility-checked).
    pub candidates_checked: u64,
    /// Number of enumeration nodes visited (symbol placements,
    /// including ones the prefix bounds immediately pruned).
    pub nodes_visited: u64,
    /// Number of subtrees cut: placements the prefix bounds rejected
    /// plus completed strings discarded by the necklace filter.
    pub nodes_pruned: u64,
    /// True if the search ran to completion (budget not exhausted). When
    /// `schedule` is `None` and `exhausted_bound` is true, no feasible
    /// schedule of length `≤ max_len` exists.
    pub exhausted_bound: bool,
}

impl SearchOutcome {
    fn empty() -> Self {
        SearchOutcome {
            schedule: None,
            candidates_checked: 0,
            nodes_visited: 0,
            nodes_pruned: 0,
            exhausted_bound: true,
        }
    }
}

/// Cooperative cancellation for long-running searches.
///
/// A token is a shared flag plus an optional wall-clock deadline. The
/// exact search polls it at every interior enumeration node (a cheap
/// atomic load; the deadline's `Instant::now()` comparison is strided,
/// amortized over [`ABORT_POLL_STRIDE`] nodes) and unwinds with
/// `exhausted_bound = false` when it fires — the same "gave up early"
/// shape as budget starvation, so callers can distinguish *cancelled*
/// from *complete* by checking the token they passed in.
///
/// Heuristic pipelines do not poll the token: they are bounded by their
/// own budgets and finish in microseconds. The token guards the
/// exponential path only.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

#[derive(Debug, Default)]
struct CancelInner {
    fired: AtomicBool,
    deadline: Option<Instant>,
    /// Microseconds since [`rtcg_obs::epoch`] at which the token first
    /// fired, clamped to ≥ 1 so 0 can mean "not fired".
    fired_at_us: AtomicU64,
}

/// Interior nodes between wall-clock polls of a deadline-carrying
/// [`CancelToken`]. The flag itself is checked at every node.
const ABORT_POLL_STRIDE: u32 = 1024;

impl CancelToken {
    /// A token that fires only when [`CancelToken::cancel`] is called.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// A token that additionally fires once `budget` wall-clock time has
    /// elapsed (measured from construction).
    pub fn with_deadline(budget: Duration) -> Self {
        CancelToken {
            inner: Arc::new(CancelInner {
                fired: AtomicBool::new(false),
                deadline: Some(Instant::now() + budget),
                fired_at_us: AtomicU64::new(0),
            }),
        }
    }

    /// Fires the token. Idempotent; visible to all clones. The first
    /// fire timestamps the token (see [`CancelToken::fired_at`]) so
    /// callers can attribute cancel-to-stop latency.
    pub fn cancel(&self) {
        if !self.inner.fired.swap(true, Ordering::AcqRel) {
            let at = Instant::now().saturating_duration_since(rtcg_obs::epoch());
            self.inner
                .fired_at_us
                .store((at.as_micros() as u64).max(1), Ordering::Release);
        }
    }

    /// When the token first fired, as an offset from
    /// [`rtcg_obs::epoch`]; `None` while unfired. The offset has
    /// microsecond resolution (rounded up to 1µs minimum).
    pub fn fired_at(&self) -> Option<Duration> {
        let us = self.inner.fired_at_us.load(Ordering::Acquire);
        if us == 0 {
            None
        } else {
            Some(Duration::from_micros(us))
        }
    }

    /// True once the token has fired (flag only — does not consult the
    /// deadline clock; see [`CancelToken::poll`]).
    pub fn is_set(&self) -> bool {
        self.inner.fired.load(Ordering::Acquire)
    }

    /// True once the token has fired *or* its deadline has passed; a
    /// passed deadline latches the flag so later [`CancelToken::is_set`]
    /// calls observe it too.
    pub fn poll(&self) -> bool {
        if self.is_set() {
            return true;
        }
        if self.inner.deadline.is_some_and(|d| Instant::now() >= d) {
            self.cancel();
            return true;
        }
        false
    }
}

/// Live search-progress aggregation, published as `search.progress.*`
/// gauges from the same stride that polls the [`CancelToken`] deadline
/// — so sampling adds no extra clock reads or branches to nodes that
/// were not already paying for a poll.
///
/// Workers flush their node/prune deltas into the shared atomics at
/// each stride boundary; whichever worker flushes also publishes the
/// cumulative gauges (last-write-wins is fine for a live view):
///
/// * `search.progress.nodes_per_sec` — cumulative enumeration rate;
/// * `search.progress.frontier_depth` — the publishing worker's DFS
///   depth at the sample;
/// * `search.progress.prune_rate_pct` — pruned subtrees per 100 nodes;
/// * `search.progress.best_bound` — the schedule length currently
///   being enumerated (every shorter length is already refuted).
///
/// Constructed only when a recorder is installed, so the uninstalled
/// search pays a `None` check per interior node and nothing else.
pub(crate) struct SearchProgress {
    started: Instant,
    nodes: AtomicU64,
    pruned: AtomicU64,
}

impl SearchProgress {
    pub(crate) fn new() -> Self {
        SearchProgress {
            started: Instant::now(),
            nodes: AtomicU64::new(0),
            pruned: AtomicU64::new(0),
        }
    }

    /// Returns the sampler only when someone is listening.
    pub(crate) fn when_recording() -> Option<Self> {
        rtcg_obs::recorder().is_some().then(Self::new)
    }

    fn publish(&self, delta_nodes: u64, delta_pruned: u64, depth: usize, best_bound: usize) {
        let nodes = self.nodes.fetch_add(delta_nodes, Ordering::Relaxed) + delta_nodes;
        let pruned = self.pruned.fetch_add(delta_pruned, Ordering::Relaxed) + delta_pruned;
        let elapsed_us = self.started.elapsed().as_micros().max(1) as u64;
        rtcg_obs::gauge!(
            "search.progress.nodes_per_sec",
            nodes.saturating_mul(1_000_000) / elapsed_us
        );
        rtcg_obs::gauge!("search.progress.frontier_depth", depth);
        rtcg_obs::gauge!(
            "search.progress.prune_rate_pct",
            pruned * 100 / nodes.max(1)
        );
        rtcg_obs::gauge!("search.progress.best_bound", best_bound);
    }
}

/// Evaluates one complete candidate action string at a search leaf.
///
/// The contract is strict: `check` must return exactly what
/// `StaticSchedule::new(actions.to_vec()).feasibility(model)` would
/// report, for every candidate, or the search's completeness claim (and
/// the bit-identity between cached and cold analysis) breaks. The
/// default evaluator is [`super::compiled::CompiledChecker`];
/// [`FeasibilityCache`] is the retained baseline.
pub trait CandidateEval {
    /// True iff `actions` is a feasible schedule for `model`.
    fn check(&mut self, model: &Model, actions: &[Action]) -> Result<bool, ModelError>;

    /// Verdicts `prefix ++ [tail]` for every tail, writing one `Result`
    /// per lane into `out` (same order as `tails`). Each lane's entry
    /// must be exactly what [`Self::check`] would return for that full
    /// candidate — the search's last enumeration row relies on this to
    /// batch sibling leaves without changing any observable outcome.
    ///
    /// The default evaluates lanes one by one through `check`, which is
    /// bit-identical by construction; evaluators with a native batched
    /// kernel ([`super::compiled::CompiledChecker`]) override it.
    fn check_batch(
        &mut self,
        model: &Model,
        prefix: &[Action],
        tails: &[Action],
        out: &mut Vec<Result<bool, ModelError>>,
    ) {
        out.clear();
        let mut buf = Vec::with_capacity(prefix.len() + 1);
        for &t in tails {
            buf.clear();
            buf.extend_from_slice(prefix);
            buf.push(t);
            out.push(self.check(model, &buf));
        }
    }
}

impl CandidateEval for FeasibilityCache {
    fn check(&mut self, model: &Model, actions: &[Action]) -> Result<bool, ModelError> {
        FeasibilityCache::check(self, model, actions)
    }
}

/// The search alphabet: elements actually used by constraints, in id
/// order. Exposed so external evaluators (and bound templates) can be
/// built against exactly the symbol numbering the search uses.
pub fn used_elements(model: &Model) -> Vec<ElementId> {
    let mut used: Vec<ElementId> = Vec::new();
    for c in model.constraints() {
        for (_, op) in c.task.ops() {
            if !used.contains(&op.element) {
                used.push(op.element);
            }
        }
    }
    used.sort();
    used
}

/// Shared, immutable context of one search: alphabet and bounds.
pub(crate) struct SearchCtx<'m> {
    model: &'m Model,
    used: Vec<ElementId>,
    pruner: PrefixPruner,
}

impl<'m> SearchCtx<'m> {
    pub(crate) fn new(model: &'m Model) -> Result<Self, ModelError> {
        let used = used_elements(model);
        let pruner = PrefixPruner::new(model, &used)?;
        Ok(SearchCtx {
            model,
            used,
            pruner,
        })
    }

    /// Non-idle symbol count.
    pub(crate) fn n(&self) -> usize {
        self.used.len()
    }

    /// Shortest length worth enumerating: every used element must
    /// appear in a candidate, so anything shorter rejects outright.
    pub(crate) fn start_len(&self) -> usize {
        self.used.len().max(1)
    }

    fn action(&self, sym: usize) -> Action {
        if sym == 0 {
            Action::Idle
        } else {
            Action::Run(self.used[sym - 1])
        }
    }
}

/// One independent unit of search work: all necklaces of one length
/// sharing a short canonical prefix.
#[derive(Debug, Clone)]
pub(crate) struct WorkUnit {
    /// The committed prefix (up to [`UNIT_DEPTH`] symbols).
    pub prefix: Vec<usize>,
    /// FKM period of the prefix.
    pub period: usize,
}

/// Prefix depth of the work-unit decomposition. Depth 3 yields `O(n²)`
/// units per length — fine-grained enough that no single subtree
/// dominates the parallel makespan, coarse enough that queue traffic is
/// noise.
const UNIT_DEPTH: usize = 3;

/// The FKM-valid prefix decomposition of one length's necklace tree, in
/// lexicographic order. Root symbols `≥ 2` are omitted: a necklace
/// starts with its minimum symbol, and a candidate containing all used
/// elements has minimum symbol `0` (idle present) or `1`.
pub(crate) fn work_units(n: usize, len: usize) -> Vec<WorkUnit> {
    fn rec(
        prefix: &mut Vec<usize>,
        period: usize,
        depth: usize,
        n: usize,
        units: &mut Vec<WorkUnit>,
    ) {
        if prefix.len() == depth {
            units.push(WorkUnit {
                prefix: prefix.clone(),
                period,
            });
            return;
        }
        let t = prefix.len();
        let base = prefix[t - period];
        for s in base..=n {
            let next_period = if s == base { period } else { t + 1 };
            prefix.push(s);
            rec(prefix, next_period, depth, n, units);
            prefix.pop();
        }
    }
    let depth = len.min(UNIT_DEPTH);
    let mut units = Vec::new();
    for s0 in 0..=n.min(1) {
        let mut prefix = vec![s0];
        rec(&mut prefix, 1, depth, n, &mut units);
    }
    units
}

/// A pool of charge units shared by parallel workers.
pub(crate) struct TokenPool(AtomicU64);

impl TokenPool {
    pub(crate) fn new(tokens: u64) -> Self {
        TokenPool(AtomicU64::new(tokens))
    }

    /// Takes up to `want` tokens, returning how many were acquired.
    pub(crate) fn take(&self, want: u64) -> u64 {
        let mut got = 0;
        let _ = self
            .0
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |avail| {
                got = avail.min(want);
                Some(avail - got)
            });
        got
    }

    pub(crate) fn put(&self, tokens: u64) {
        self.0.fetch_add(tokens, Ordering::AcqRel);
    }
}

/// Tokens drawn from the pool at a time; amortizes contention without
/// letting one worker hoard much of a tight budget.
const POOL_BATCH: u64 = 256;

/// Where a subtree's charge units come from.
pub(crate) enum Budget<'a> {
    /// Sequential: a fixed allowance (global cap minus spend so far).
    Cap { credit: u64 },
    /// Parallel: batches drawn from a shared pool.
    Pool { pool: &'a TokenPool, credit: u64 },
}

impl Budget<'_> {
    /// Tries to spend one charge unit; `false` means starved.
    fn charge(&mut self) -> bool {
        match self {
            Budget::Cap { credit } => {
                if *credit == 0 {
                    return false;
                }
                *credit -= 1;
                true
            }
            Budget::Pool { pool, credit } => {
                if *credit == 0 {
                    *credit = pool.take(POOL_BATCH);
                    if *credit == 0 {
                        return false;
                    }
                }
                *credit -= 1;
                true
            }
        }
    }

    /// Returns unspent credit to the pool (no-op for caps).
    pub(crate) fn release(self) {
        if let Budget::Pool { pool, credit } = self {
            pool.put(credit);
        }
    }
}

/// How a subtree run ended.
pub(crate) enum SubtreeEnd {
    /// Exhaustively enumerated, no feasible candidate.
    Done,
    /// Lexicographically-first feasible candidate of the subtree.
    Found(StaticSchedule),
    /// Budget ran out mid-subtree.
    Starved,
    /// A lower-indexed unit's success cancelled this one.
    Cancelled,
}

/// Charge-exact outcome of one [`WorkUnit`] run.
pub(crate) struct SubtreeResult {
    pub nodes: u64,
    pub candidates: u64,
    pub pruned: u64,
    pub end: SubtreeEnd,
}

struct Dfs<'a, 'b, 'm> {
    ctx: &'a SearchCtx<'m>,
    cache: &'a mut dyn CandidateEval,
    string: Vec<usize>,
    counts: Vec<u64>,
    duration: Time,
    len: usize,
    budget: &'a mut Budget<'b>,
    cancel: Option<(&'a AtomicUsize, usize)>,
    abort: Option<&'a CancelToken>,
    abort_tick: u32,
    progress: Option<&'a SearchProgress>,
    /// Totals already flushed into `progress`.
    flushed_nodes: u64,
    flushed_pruned: u64,
    /// Whether a recorder was installed when this unit started; caches
    /// the guard so leaf timing costs one load per unit, not per leaf.
    time_leaves: bool,
    nodes: u64,
    candidates: u64,
    pruned: u64,
    /// Leaf action buffer, reused across candidates (cloned only when a
    /// feasible schedule is found).
    actions_buf: Vec<Action>,
    /// Last-row batching buffers, reused across sibling rows: per-symbol
    /// viability, the surviving symbols, their tail actions, and the
    /// per-lane verdicts (plus a per-chunk staging buffer).
    row_viable: Vec<bool>,
    row_syms: Vec<usize>,
    row_tails: Vec<Action>,
    row_out: Vec<Result<bool, ModelError>>,
    row_chunk: Vec<Result<bool, ModelError>>,
}

impl Dfs<'_, '_, '_> {
    fn cancelled(&mut self, depth: usize) -> bool {
        if self
            .cancel
            .is_some_and(|(winner, ix)| winner.load(Ordering::Acquire) < ix)
        {
            return true;
        }
        // tick 0 samples/polls, so an already-expired deadline stops
        // the search at its very first node deterministically
        let at_stride = self.abort_tick.is_multiple_of(ABORT_POLL_STRIDE);
        self.abort_tick = self.abort_tick.wrapping_add(1);
        if at_stride {
            if let Some(p) = self.progress {
                p.publish(
                    self.nodes - self.flushed_nodes,
                    self.pruned - self.flushed_pruned,
                    depth,
                    self.len,
                );
                self.flushed_nodes = self.nodes;
                self.flushed_pruned = self.pruned;
            }
        }
        match self.abort {
            Some(token) => {
                if at_stride {
                    token.poll()
                } else {
                    token.is_set()
                }
            }
            None => false,
        }
    }

    /// Places `sym` at `depth`, charging one node; `Ok(true)` means the
    /// resulting prefix survives the bounds and should be descended.
    fn place(&mut self, depth: usize, sym: usize) -> Result<bool, SubtreeEnd> {
        if !self.budget.charge() {
            return Err(SubtreeEnd::Starved);
        }
        self.nodes += 1;
        self.string[depth] = sym;
        self.counts[sym] += 1;
        self.duration += self.ctx.pruner.weight(sym);
        if self
            .ctx
            .pruner
            .viable(&self.counts, self.duration, self.len - depth - 1)
        {
            Ok(true)
        } else {
            self.pruned += 1;
            Ok(false)
        }
    }

    fn unplace(&mut self, sym: usize) {
        self.counts[sym] -= 1;
        self.duration -= self.ctx.pruner.weight(sym);
    }

    /// DFS below a placed prefix of `depth` symbols with FKM period
    /// `period`. Stops at the first feasible candidate.
    fn run(&mut self, depth: usize, period: usize) -> Result<SubtreeEnd, ModelError> {
        if depth == self.len {
            if !self.len.is_multiple_of(period) {
                // not a necklace: some rotation is smaller
                self.pruned += 1;
                return Ok(SubtreeEnd::Done);
            }
            if !self.budget.charge() {
                return Ok(SubtreeEnd::Starved);
            }
            self.candidates += 1;
            self.actions_buf.clear();
            let buf = &mut self.actions_buf;
            buf.extend(self.string.iter().map(|&s| self.ctx.action(s)));
            let leaf_start = if self.time_leaves {
                Some(Instant::now())
            } else {
                None
            };
            let feasible = self.cache.check(self.ctx.model, buf)?;
            if let Some(t0) = leaf_start {
                rtcg_obs::histogram!("search.leaf_eval_us", t0.elapsed().as_micros() as u64);
            }
            if feasible {
                return Ok(SubtreeEnd::Found(StaticSchedule::new(buf.clone())));
            }
            return Ok(SubtreeEnd::Done);
        }
        if self.cancelled(depth) {
            return Ok(SubtreeEnd::Cancelled);
        }
        if depth + 1 == self.len {
            return self.run_last_row(depth, period);
        }
        let base = self.string[depth - period];
        for sym in base..=self.ctx.n() {
            let next_period = if sym == base { period } else { depth + 1 };
            match self.place(depth, sym) {
                Err(end) => return Ok(end),
                Ok(true) => {
                    let end = self.run(depth + 1, next_period)?;
                    self.unplace(sym);
                    if !matches!(end, SubtreeEnd::Done) {
                        return Ok(end);
                    }
                }
                Ok(false) => self.unplace(sym),
            }
        }
        Ok(SubtreeEnd::Done)
    }

    /// The last enumeration row, batched: a dry pass (no budget
    /// charges) computes which symbols the scalar loop would evaluate —
    /// the hoisted pruner bound ([`PrefixPruner::viable_last_row`])
    /// plus the FKM necklace test — [`CandidateEval::check_batch`]
    /// verdicts all survivors against the shared committed prefix, and
    /// a replay pass re-applies the exact scalar charge/counter/outcome
    /// sequence while consuming the precomputed lane verdicts. Lanes
    /// evaluated beyond an early Found/Starved exit are wasted
    /// speculation; budget draws, counters, and outcomes stay
    /// bit-identical to the unbatched loop by construction.
    fn run_last_row(&mut self, depth: usize, period: usize) -> Result<SubtreeEnd, ModelError> {
        let base = self.string[depth - period];
        let n = self.ctx.n();
        self.ctx
            .pruner
            .viable_last_row(&self.counts, self.duration, &mut self.row_viable);
        self.row_syms.clear();
        self.row_tails.clear();
        for sym in base..=n {
            let next_period = if sym == base { period } else { depth + 1 };
            if self.row_viable[sym] && self.len.is_multiple_of(next_period) {
                self.row_syms.push(sym);
                self.row_tails.push(self.ctx.action(sym));
            }
        }
        self.actions_buf.clear();
        for &s in &self.string[..depth] {
            self.actions_buf.push(self.ctx.action(s));
        }
        self.row_out.clear();
        for chunk in self.row_tails.chunks(MAX_BATCH) {
            let leaf_start = if self.time_leaves {
                Some(Instant::now())
            } else {
                None
            };
            self.cache.check_batch(
                self.ctx.model,
                &self.actions_buf,
                chunk,
                &mut self.row_chunk,
            );
            if let Some(t0) = leaf_start {
                rtcg_obs::histogram!("search.leaf_eval_us", t0.elapsed().as_micros() as u64);
                rtcg_obs::gauge!("search.leaf_batch_width", chunk.len() as u64);
            }
            self.row_out.append(&mut self.row_chunk);
        }
        let mut lane = 0usize;
        for sym in base..=n {
            let next_period = if sym == base { period } else { depth + 1 };
            match self.place(depth, sym) {
                Err(end) => return Ok(end),
                Ok(false) => self.unplace(sym),
                Ok(true) => {
                    if !self.len.is_multiple_of(next_period) {
                        // not a necklace: the scalar leaf prunes before
                        // charging a candidate
                        self.pruned += 1;
                        self.unplace(sym);
                        continue;
                    }
                    if !self.budget.charge() {
                        // scalar shape: the leaf reports Starved and
                        // the parent unplaces before propagating
                        self.unplace(sym);
                        return Ok(SubtreeEnd::Starved);
                    }
                    self.candidates += 1;
                    debug_assert_eq!(self.row_syms[lane], sym, "dry pass / replay divergence");
                    let verdict = std::mem::replace(&mut self.row_out[lane], Ok(false));
                    lane += 1;
                    match verdict {
                        // scalar shape: a leaf error propagates via `?`
                        // before the parent's unplace runs
                        Err(e) => return Err(e),
                        Ok(true) => {
                            self.actions_buf.push(self.ctx.action(sym));
                            let schedule = StaticSchedule::new(self.actions_buf.clone());
                            self.unplace(sym);
                            return Ok(SubtreeEnd::Found(schedule));
                        }
                        Ok(false) => self.unplace(sym),
                    }
                }
            }
        }
        debug_assert_eq!(lane, self.row_syms.len());
        Ok(SubtreeEnd::Done)
    }
}

/// Runs one work unit to completion (or starvation/cancellation) under
/// the given budget. Charge accounting is deterministic: the same unit
/// with enough budget always reports the same `nodes`/`candidates`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_unit(
    ctx: &SearchCtx,
    cache: &mut dyn CandidateEval,
    len: usize,
    unit: &WorkUnit,
    budget: &mut Budget<'_>,
    cancel: Option<(&AtomicUsize, usize)>,
    abort: Option<&CancelToken>,
    progress: Option<&SearchProgress>,
) -> Result<SubtreeResult, ModelError> {
    let mut dfs = Dfs {
        ctx,
        cache,
        string: vec![0; len],
        counts: vec![0; ctx.n() + 1],
        duration: 0,
        len,
        budget,
        cancel,
        abort,
        abort_tick: 0,
        progress,
        flushed_nodes: 0,
        flushed_pruned: 0,
        time_leaves: rtcg_obs::recorder().is_some(),
        nodes: 0,
        candidates: 0,
        pruned: 0,
        actions_buf: Vec::with_capacity(len),
        row_viable: Vec::new(),
        row_syms: Vec::new(),
        row_tails: Vec::new(),
        row_out: Vec::new(),
        row_chunk: Vec::new(),
    };
    let mut end = SubtreeEnd::Done;
    let mut period = 1usize;
    let mut alive = true;
    for (t, &sym) in unit.prefix.iter().enumerate() {
        if dfs.cancelled(t) {
            end = SubtreeEnd::Cancelled;
            alive = false;
            break;
        }
        if t > 0 {
            debug_assert!(sym >= dfs.string[t - period]);
            if sym != dfs.string[t - period] {
                period = t + 1;
            }
        }
        match dfs.place(t, sym) {
            Err(e) => {
                end = e;
                alive = false;
                break;
            }
            Ok(true) => {}
            Ok(false) => {
                alive = false;
                break;
            }
        }
    }
    debug_assert!(unit.prefix.is_empty() || period == unit.period || !alive);
    if alive {
        end = dfs.run(unit.prefix.len(), unit.period)?;
    }
    Ok(SubtreeResult {
        nodes: dfs.nodes,
        candidates: dfs.candidates,
        pruned: dfs.pruned,
        end,
    })
}

/// Sequential engine: processes work units in lexicographic order from
/// `(start_len, start_unit)` onward, accumulating into `out`, stopping
/// at the first feasible schedule or when the global budget trips.
///
/// This is both the whole sequential search (started from the top) and
/// the deterministic fallback the parallel search resumes into, so the
/// two stay bit-identical.
pub(crate) fn resume_sequential(
    ctx: &SearchCtx,
    config: SearchConfig,
    start_len: usize,
    start_unit: usize,
    eval: &mut dyn CandidateEval,
    out: &mut SearchOutcome,
    abort: Option<&CancelToken>,
) -> Result<(), ModelError> {
    let progress = SearchProgress::when_recording();
    for len in start_len..=config.max_len {
        let units = work_units(ctx.n(), len);
        let from = if len == start_len { start_unit } else { 0 };
        for unit in &units[from.min(units.len())..] {
            let spent = out.nodes_visited + out.candidates_checked;
            let mut budget = Budget::Cap {
                credit: config.node_budget.saturating_sub(spent),
            };
            let r = run_unit(
                ctx,
                eval,
                len,
                unit,
                &mut budget,
                None,
                abort,
                progress.as_ref(),
            )?;
            out.nodes_visited += r.nodes;
            out.candidates_checked += r.candidates;
            out.nodes_pruned += r.pruned;
            match r.end {
                SubtreeEnd::Done => {}
                SubtreeEnd::Found(s) => {
                    out.schedule = Some(s);
                    return Ok(());
                }
                SubtreeEnd::Starved => {
                    out.exhausted_bound = false;
                    return Ok(());
                }
                // an abort token fired mid-unit: same "gave up early"
                // reporting as starvation, the caller's token records why
                SubtreeEnd::Cancelled => {
                    out.exhausted_bound = false;
                    return Ok(());
                }
            }
        }
    }
    Ok(())
}

/// Searches for a feasible static schedule of at most `config.max_len`
/// actions. Complete up to the bound.
pub fn find_feasible(model: &Model, config: SearchConfig) -> Result<SearchOutcome, ModelError> {
    find_feasible_with(
        model,
        config,
        &mut super::compiled::CompiledChecker::new(model)?,
    )
}

/// Emits the per-search aggregate metrics. Instrumentation lives here —
/// outside the enumeration hot loop — so the counters cost three calls
/// per search instead of one per node (see the `obs_overhead` bench).
pub(crate) fn emit_search_counters(out: &SearchOutcome) {
    rtcg_obs::counter!("search.nodes_expanded", out.nodes_visited);
    rtcg_obs::counter!("search.nodes_pruned", out.nodes_pruned);
    rtcg_obs::counter!("search.candidates_checked", out.candidates_checked);
}

/// [`find_feasible`] with an injected leaf evaluator. With a fresh
/// `CompiledChecker` this *is* `find_feasible`; with `FeasibilityCache`
/// (the classic oracle) enumeration order, budget accounting, verdicts,
/// schedules, and counters are identical by construction.
pub fn find_feasible_with(
    model: &Model,
    config: SearchConfig,
    eval: &mut dyn CandidateEval,
) -> Result<SearchOutcome, ModelError> {
    find_feasible_with_cancel(model, config, eval, None)
}

/// [`find_feasible_with`] plus a cooperative [`CancelToken`]. When the
/// token fires mid-search the outcome reports `exhausted_bound = false`
/// (indistinguishable from budget starvation in the outcome itself —
/// check the token to tell them apart). With `abort = None` this *is*
/// `find_feasible_with`, bit for bit.
pub fn find_feasible_with_cancel(
    model: &Model,
    config: SearchConfig,
    eval: &mut dyn CandidateEval,
    abort: Option<&CancelToken>,
) -> Result<SearchOutcome, ModelError> {
    let _span = rtcg_obs::span!("feasibility.exact", "search");
    let mut out = SearchOutcome::empty();
    if model.constraints().is_empty() {
        // any schedule is trivially feasible; return a single idle
        out.schedule = Some(StaticSchedule::new(vec![Action::Idle]));
        emit_search_counters(&out);
        return Ok(out);
    }
    let ctx = SearchCtx::new(model)?;
    resume_sequential(&ctx, config, ctx.start_len(), 0, eval, &mut out, abort)?;
    emit_search_counters(&out);
    Ok(out)
}

/// True if `s` is lexicographically minimal among all its rotations.
pub fn is_canonical_rotation(s: &[usize]) -> bool {
    let n = s.len();
    for shift in 1..n {
        for i in 0..n {
            let a = s[i];
            let b = s[(i + shift) % n];
            match a.cmp(&b) {
                std::cmp::Ordering::Less => break,
                std::cmp::Ordering::Greater => return false,
                std::cmp::Ordering::Equal => continue,
            }
        }
    }
    true
}

pub mod reference {
    //! The seed enumerator, kept verbatim as a differential-testing
    //! oracle and bench baseline: generate-and-filter over *all* strings
    //! with canonicity and element-coverage checked at the leaf, and the
    //! full (uncached) feasibility analysis per candidate.

    use super::{is_canonical_rotation, SearchConfig, SearchOutcome};
    use crate::error::ModelError;
    use crate::model::{ElementId, Model};
    use crate::schedule::{Action, StaticSchedule};

    /// Seed behaviour of [`super::find_feasible`]: same verdicts and
    /// returned schedules (up to budget accounting), vastly more work.
    pub fn find_feasible_reference(
        model: &Model,
        config: SearchConfig,
    ) -> Result<SearchOutcome, ModelError> {
        let mut used: Vec<ElementId> = Vec::new();
        for c in model.constraints() {
            for (_, op) in c.task.ops() {
                if !used.contains(&op.element) {
                    used.push(op.element);
                }
            }
        }
        used.sort();

        let mut out = SearchOutcome {
            schedule: None,
            candidates_checked: 0,
            nodes_visited: 0,
            nodes_pruned: 0,
            exhausted_bound: true,
        };
        if model.constraints().is_empty() {
            out.schedule = Some(StaticSchedule::new(vec![Action::Idle]));
            return Ok(out);
        }
        let n = used.len();
        for len in 1..=config.max_len {
            let mut string = vec![0usize; len];
            if search_level(model, &used, &mut string, 0, len, n, config, &mut out)? {
                return Ok(out);
            }
            if !out.exhausted_bound {
                return Ok(out);
            }
        }
        Ok(out)
    }

    #[allow(clippy::too_many_arguments)]
    fn search_level(
        model: &Model,
        used: &[ElementId],
        string: &mut Vec<usize>,
        depth: usize,
        len: usize,
        n_symbols: usize,
        config: SearchConfig,
        out: &mut SearchOutcome,
    ) -> Result<bool, ModelError> {
        out.nodes_visited += 1;
        if out.nodes_visited + out.candidates_checked > config.node_budget {
            out.exhausted_bound = false;
            return Ok(false);
        }
        if depth == len {
            if !is_canonical_rotation(string) {
                return Ok(false);
            }
            // every used element must appear, else some latency is infinite
            for sym in 1..=n_symbols {
                if !string.contains(&sym) {
                    return Ok(false);
                }
            }
            out.candidates_checked += 1;
            let schedule = StaticSchedule::new(
                string
                    .iter()
                    .map(|&s| {
                        if s == 0 {
                            Action::Idle
                        } else {
                            Action::Run(used[s - 1])
                        }
                    })
                    .collect(),
            );
            let report = schedule.feasibility(model)?;
            if report.is_feasible() {
                out.schedule = Some(schedule);
                return Ok(true);
            }
            return Ok(false);
        }
        for sym in 0..=n_symbols {
            string[depth] = sym;
            if search_level(model, used, string, depth + 1, len, n_symbols, config, out)? {
                return Ok(true);
            }
            if !out.exhausted_bound {
                return Ok(false);
            }
        }
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelBuilder;
    use crate::task::TaskGraphBuilder;

    fn single_op_model(weights_deadlines: &[(u64, u64)]) -> Model {
        let mut b = ModelBuilder::new();
        for (i, &(w, d)) in weights_deadlines.iter().enumerate() {
            let e = b.element(&format!("e{i}"), w);
            let tg = TaskGraphBuilder::new().op("o", e).build().unwrap();
            b.asynchronous(&format!("c{i}"), tg, d, d);
        }
        b.build().unwrap()
    }

    #[test]
    fn canonical_rotation_filter() {
        assert!(is_canonical_rotation(&[0, 1, 2]));
        assert!(!is_canonical_rotation(&[1, 0, 2]));
        assert!(!is_canonical_rotation(&[2, 1, 0]));
        assert!(is_canonical_rotation(&[0, 0, 1]));
        assert!(!is_canonical_rotation(&[0, 1, 0]));
        assert!(is_canonical_rotation(&[1, 1, 1]));
        assert!(is_canonical_rotation(&[7]));
    }

    #[test]
    fn finds_trivial_single_constraint_schedule() {
        // e(1), d=2: schedule [e] has latency 2 — feasible
        let m = single_op_model(&[(1, 2)]);
        let out = find_feasible(&m, SearchConfig::default()).unwrap();
        let s = out.schedule.expect("feasible");
        let r = s.feasibility(&m).unwrap();
        assert!(r.is_feasible());
        assert!(out.exhausted_bound);
        assert!(out.candidates_checked >= 1);
    }

    #[test]
    fn finds_two_constraint_interleaving() {
        // e0(1) d=4, e1(1) d=4: [e0 e1] works (each latency ≤ 3 ≤ 4)
        let m = single_op_model(&[(1, 4), (1, 4)]);
        let out = find_feasible(&m, SearchConfig::default()).unwrap();
        let s = out.schedule.expect("feasible");
        assert!(s.len() <= 2);
        assert!(s.feasibility(&m).unwrap().is_feasible());
    }

    #[test]
    fn detects_bounded_infeasibility() {
        // e0(2) d=3, e1(2) d=3: any schedule must run both within every
        // 3-window — impossible (4 ticks of work per 3-tick window at
        // saturation). Density bound: 2/3 + 2/3 > 1 → truly infeasible.
        let m = single_op_model(&[(2, 3), (2, 3)]);
        assert!(super::super::bounds::quick_infeasible(&m)
            .unwrap()
            .is_some());
        let out = find_feasible(
            &m,
            SearchConfig {
                max_len: 4,
                node_budget: 1_000_000,
            },
        )
        .unwrap();
        assert!(out.schedule.is_none());
        assert!(out.exhausted_bound);
    }

    #[test]
    fn budget_exhaustion_reported() {
        let m = single_op_model(&[(1, 6), (1, 6), (1, 6)]);
        let out = find_feasible(
            &m,
            SearchConfig {
                max_len: 6,
                node_budget: 3,
            },
        )
        .unwrap();
        if out.schedule.is_none() {
            assert!(!out.exhausted_bound);
        }
    }

    #[test]
    fn empty_model_trivial_schedule() {
        let m = single_op_model(&[]);
        let out = find_feasible(&m, SearchConfig::default()).unwrap();
        assert!(out.schedule.is_some());
    }

    #[test]
    fn chain_constraint_schedule_found() {
        // chain a(1) -> b(1), d = 4: needs [a b] — latency 3 ≤ 4
        let mut bld = ModelBuilder::new();
        let a = bld.element("a", 1);
        let b = bld.element("b", 1);
        bld.channel(a, b);
        let tg = TaskGraphBuilder::new()
            .op("a", a)
            .op("b", b)
            .edge("a", "b")
            .build()
            .unwrap();
        bld.asynchronous("chain", tg, 4, 4);
        let m = bld.build().unwrap();
        let out = find_feasible(&m, SearchConfig::default()).unwrap();
        let s = out.schedule.expect("feasible");
        assert!(s.feasibility(&m).unwrap().is_feasible());
    }

    #[test]
    fn nodes_grow_with_alphabet() {
        // sanity for the hardness experiments: more elements → more nodes
        let m2 = single_op_model(&[(1, 8), (1, 8)]);
        let m3 = single_op_model(&[(1, 12), (1, 12), (1, 12)]);
        let c = SearchConfig {
            max_len: 3,
            node_budget: 10_000_000,
        };
        let o2 = find_feasible(&m2, c).unwrap();
        let o3 = find_feasible(&m3, c).unwrap();
        assert!(o3.nodes_visited >= o2.nodes_visited);
    }

    #[test]
    fn agrees_with_reference_on_seed_scenarios() {
        // verdict + schedule parity with the generate-and-filter oracle
        for specs in [
            vec![(1u64, 2u64)],
            vec![(1, 3), (1, 3)],
            vec![(1, 4), (1, 4)],
            vec![(2, 3), (2, 3)],
            vec![(2, 5), (1, 5)],
            vec![(1, 6), (1, 6), (1, 6)],
        ] {
            let m = single_op_model(&specs);
            let cfg = SearchConfig {
                max_len: 5,
                node_budget: 50_000_000,
            };
            let bb = find_feasible(&m, cfg).unwrap();
            let rf = reference::find_feasible_reference(&m, cfg).unwrap();
            assert_eq!(
                bb.schedule.as_ref().map(|s| s.actions().to_vec()),
                rf.schedule.as_ref().map(|s| s.actions().to_vec()),
                "{specs:?}"
            );
            assert_eq!(bb.exhausted_bound, rf.exhausted_bound, "{specs:?}");
            assert!(
                bb.candidates_checked <= rf.candidates_checked,
                "{specs:?}: b&b checked more candidates ({} > {})",
                bb.candidates_checked,
                rf.candidates_checked
            );
        }
    }

    #[test]
    fn short_lengths_are_skipped() {
        // 3 used elements → nothing of length < 3 is enumerated; the
        // reference burns nodes on lengths 1–2 regardless
        let m = single_op_model(&[(1, 12), (1, 12), (1, 12)]);
        let cfg = SearchConfig {
            max_len: 2,
            node_budget: 1_000_000,
        };
        let out = find_feasible(&m, cfg).unwrap();
        assert_eq!(out.nodes_visited, 0);
        assert_eq!(out.candidates_checked, 0);
        assert!(out.exhausted_bound);
        let rf = reference::find_feasible_reference(&m, cfg).unwrap();
        assert!(rf.nodes_visited > 0);
        assert_eq!(rf.schedule.is_none(), out.schedule.is_none());
    }

    #[test]
    fn prefired_cancel_token_stops_search_early() {
        let m = single_op_model(&[(1, 12), (1, 12), (1, 12)]);
        let cfg = SearchConfig {
            max_len: 6,
            node_budget: 50_000_000,
        };
        let token = CancelToken::new();
        token.cancel();
        let mut eval = super::super::compiled::CompiledChecker::new(&m).unwrap();
        let out = find_feasible_with_cancel(&m, cfg, &mut eval, Some(&token)).unwrap();
        assert!(out.schedule.is_none());
        assert!(
            !out.exhausted_bound,
            "cancelled run must not claim completion"
        );
        // the prefix replay bails before any charge is spent
        assert_eq!(out.nodes_visited, 0);
        assert_eq!(out.candidates_checked, 0);
    }

    #[test]
    fn unfired_cancel_token_changes_nothing() {
        for specs in [vec![(1u64, 4u64), (1, 4)], vec![(2, 3), (2, 3)]] {
            let m = single_op_model(&specs);
            let cfg = SearchConfig {
                max_len: 5,
                node_budget: 1_000_000,
            };
            let plain = find_feasible(&m, cfg).unwrap();
            let token = CancelToken::with_deadline(std::time::Duration::from_secs(600));
            let mut eval = super::super::compiled::CompiledChecker::new(&m).unwrap();
            let with_token = find_feasible_with_cancel(&m, cfg, &mut eval, Some(&token)).unwrap();
            assert_eq!(plain.schedule, with_token.schedule, "{specs:?}");
            assert_eq!(
                plain.exhausted_bound, with_token.exhausted_bound,
                "{specs:?}"
            );
            assert_eq!(plain.nodes_visited, with_token.nodes_visited, "{specs:?}");
            assert_eq!(plain.nodes_pruned, with_token.nodes_pruned, "{specs:?}");
            assert_eq!(
                plain.candidates_checked, with_token.candidates_checked,
                "{specs:?}"
            );
            assert!(!token.is_set());
        }
    }

    #[test]
    fn cancel_timestamps_first_fire_only() {
        let token = CancelToken::new();
        assert!(token.fired_at().is_none());
        token.cancel();
        let at = token.fired_at().expect("cancel stamps the token");
        token.cancel();
        assert_eq!(token.fired_at(), Some(at), "later cancels keep the stamp");
        let clone = token.clone();
        assert_eq!(clone.fired_at(), Some(at), "clones share the stamp");
    }

    #[test]
    fn expired_deadline_token_latches() {
        let token = CancelToken::with_deadline(Duration::from_millis(0));
        assert!(token.poll());
        assert!(token.is_set(), "poll latches the flag");
        let clone = token.clone();
        assert!(clone.is_set(), "clones share the flag");
    }

    #[test]
    fn work_units_cover_only_live_roots() {
        let units = work_units(3, 4);
        // roots 0 and 1 only; prefixes lex-ordered
        assert!(units.iter().all(|u| u.prefix[0] <= 1));
        let prefixes: Vec<Vec<usize>> = units.iter().map(|u| u.prefix.clone()).collect();
        let mut sorted = prefixes.clone();
        sorted.sort();
        assert_eq!(prefixes, sorted);
        // [0,0,0] has period 1; [0,0,1] has period 3 (break at depth 2)
        assert_eq!(units[0].prefix, vec![0, 0, 0]);
        assert_eq!(units[0].period, 1);
        assert_eq!(units[1].prefix, vec![0, 0, 1]);
        assert_eq!(units[1].period, 3);
        // FKM invariant: each prefix replays the transition rule
        // (symbol at t is string[t-p] keeping period p, or larger
        // resetting the period to t+1) and ends at the stored period
        for u in &units {
            let mut p = 1;
            for (t, &s) in u.prefix.iter().enumerate().skip(1) {
                assert!(s >= u.prefix[t - p], "{:?} not FKM-valid", u.prefix);
                if s != u.prefix[t - p] {
                    p = t + 1;
                }
            }
            assert_eq!(p, u.period, "{:?} period mismatch", u.prefix);
        }
        // short searches truncate the unit depth to the length
        let units1 = work_units(2, 1);
        assert_eq!(units1.len(), 2);
        assert_eq!(units1[0].prefix, vec![0]);
        let units2 = work_units(2, 2);
        assert!(units2.iter().all(|u| u.prefix.len() == 2));
    }
}
