//! Deciding whether a feasible static schedule exists.
//!
//! Four tools, matching the paper's results:
//!
//! * [`bounds`] — cheap necessary conditions (density and span bounds)
//!   used to reject obviously infeasible instances before any search,
//!   plus the [`bounds::PrefixPruner`] the exact search consults at
//!   every enumeration node.
//! * [`exact`] — complete branch-and-bound over canonical (necklace)
//!   prefixes up to a length bound. Still exponential, as Theorem 2
//!   (strong NP-hardness) says it must be in the worst case — the
//!   hardness experiments (E3/E4) measure exactly this blowup — but
//!   interior-node pruning, incremental prefix bounds, and cached leaf
//!   evaluation cut the constant by orders of magnitude over the seed
//!   enumerator (preserved as [`exact::reference`]).
//! * [`parallel`] — the same search fanned out over a work queue of
//!   prefix subtrees with one global atomic budget; deterministic
//!   replay makes its verdict, schedule, and counters bit-identical to
//!   the sequential search.
//! * [`compiled`] — the default leaf evaluator behind both searches:
//!   the model compiled once into flat structure-of-arrays tables, with
//!   an incremental per-candidate instance index so each leaf check is
//!   allocation-free and bit-identical to the full analysis.
//! * [`game`] — the *finite simulation game* behind Theorem 1: a safety
//!   game over bounded trace suffixes whose winning strategy, found as a
//!   lasso in the state graph, *is* a feasible static schedule. A
//!   complete decision procedure for asynchronous constraint sets (within
//!   an explicit state budget).
//! * [`multilane`] — the m-processor generalization: candidates are
//!   m-row lane matrices, checked on global ticks with per-lane
//!   coverage masks, searched canonically under lane symmetry, and
//!   seeded by a path-priority list-scheduling heuristic.

pub mod bounds;
pub mod compiled;
pub mod exact;
pub mod game;
pub mod multilane;
pub mod parallel;

pub use bounds::{density_lower_bound, quick_infeasible, InfeasibleReason, PrefixPruner};
pub use compiled::{CompiledChecker, MAX_BATCH};
pub use exact::{
    find_feasible, find_feasible_with, find_feasible_with_cancel, is_canonical_rotation,
    used_elements, CancelToken, CandidateEval, SearchConfig, SearchOutcome,
};
pub use game::{solve_game, GameConfig, GameOutcome};
pub use multilane::{
    dag_response_bound, find_feasible_lanes, find_feasible_lanes_naive, synthesize_lanes,
    LaneChecker, LaneSchedule, LaneSearchOutcome,
};
pub use parallel::{find_feasible_parallel, find_feasible_parallel_with_cancel};
