//! # rtcg-core — the graph-based computation model for real-time systems
//!
//! This crate is a faithful, executable reconstruction of the formal model
//! in **A. K. Mok, "A Graph-Based Computation Model for Real-Time
//! Systems", ICPP 1985**, together with the *latency scheduling* synthesis
//! technique the paper builds on it.
//!
//! ## The model
//!
//! A model `M = (G, T)`:
//!
//! * [`CommGraph`] is the communication graph `G = (V, E, W_V)`: functional
//!   elements (weighted by worst-case computation time) connected by
//!   communication paths. It may contain cycles (feedback loops).
//! * Each [`TimingConstraint`] `(C, p, d)` carries an acyclic [`TaskGraph`]
//!   `C` *compatible* with `G` (each operation executes a functional
//!   element, each task edge follows a communication edge), a period `p`,
//!   and a deadline `d`. Constraints are *periodic* (invoked every `p` from
//!   time 0) or *asynchronous* (sporadic with minimum separation `p`).
//!
//! ## Execution semantics
//!
//! [`trace::Trace`] realises the paper's execution traces
//! `F : ℕ → V ∪ {φ}`: unit time slots, each idle or executing one
//! functional element; an element of weight `w` occupies `w` consecutive
//! slots per execution instance (software pipelining — see
//! [`heuristic::pipeline`] — recovers preemptibility by splitting elements
//! into unit-time sub-functions). A task graph is *executed in an
//! interval* if a set of instances, one per operation, lies inside the
//! interval in precedence order; instances of the same element are shared
//! between constraints exactly as the paper intends.
//!
//! ## Latency scheduling
//!
//! A [`StaticSchedule`] is a finite string over `V ∪ {φ}`; repeated
//! round-robin it generates an infinite trace. Its *latency* w.r.t. a
//! constraint is the smallest `k` such that every window of length `k`
//! contains an execution of the constraint's task graph
//! ([`StaticSchedule::latency`] computes it exactly). A schedule is
//! *feasible* iff its latency w.r.t. every asynchronous constraint is at
//! most that constraint's deadline.
//!
//! The three results of the paper are reproduced by:
//!
//! * [`feasibility::game`] — Theorem 1: the finite simulation game, proving
//!   (and deciding) that trace feasibility implies a finite static
//!   schedule;
//! * [`feasibility::exact`] — exact (exponential) schedule search used by
//!   the NP-hardness experiments of Theorem 2;
//! * [`heuristic`] — the constructive scheduler validating Theorem 3's
//!   sufficient condition (`Σ wᵢ/dᵢ ≤ 1/2`, `⌊dᵢ/2⌋ ≥ wᵢ`, all elements
//!   pipelinable ⇒ a feasible static schedule exists).
//!
//! ## Quick example
//!
//! ```
//! use rtcg_core::prelude::*;
//!
//! // Build a two-element pipeline: sense(1) -> act(1).
//! let mut b = ModelBuilder::new();
//! let sense = b.element("sense", 1);
//! let act = b.element("act", 1);
//! b.channel(sense, act);
//! // One asynchronous constraint: the whole chain within deadline 4,
//! // minimum separation 4.
//! let tg = TaskGraphBuilder::new()
//!     .op("s", sense)
//!     .op("a", act)
//!     .edge("s", "a")
//!     .build()
//!     .unwrap();
//! b.asynchronous("chain", tg, 4, 4);
//! let model = b.build().unwrap();
//!
//! // Synthesize a feasible static schedule.
//! let outcome = rtcg_core::heuristic::synthesize(&model).unwrap();
//! let report = outcome.schedule.feasibility(outcome.model()).unwrap();
//! assert!(report.is_feasible());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod constraint;
pub mod delta;
pub mod error;
pub mod feasibility;
pub mod heuristic;
pub mod model;
pub mod mok_example;
pub mod schedule;
pub mod sensitivity;
pub mod task;
pub mod time;
pub mod trace;

pub use constraint::{ConstraintId, ConstraintKind, TimingConstraint};
pub use delta::ModelDelta;
pub use error::ModelError;
pub use model::{CommGraph, ElementId, Model, ModelBuilder};
pub use schedule::{Action, FeasibilityCache, FeasibilityReport, StaticSchedule};
pub use task::{OpId, TaskGraph, TaskGraphBuilder};
pub use time::Time;
pub use trace::{Instance, Slot, Trace};

/// Convenience prelude re-exporting the types most programs need.
pub mod prelude {
    pub use crate::constraint::{ConstraintId, ConstraintKind, TimingConstraint};
    pub use crate::delta::ModelDelta;
    pub use crate::feasibility::{
        find_feasible, find_feasible_with, quick_infeasible, CandidateEval, PrefixPruner,
        SearchConfig, SearchOutcome,
    };
    pub use crate::heuristic::{synthesize, synthesize_with, SynthesisConfig, SynthesisOutcome};
    pub use crate::model::{CommGraph, ElementId, Model, ModelBuilder};
    pub use crate::schedule::{Action, FeasibilityCache, FeasibilityReport, StaticSchedule};
    pub use crate::sensitivity::DeadlineSensitivity;
    pub use crate::task::{OpId, TaskGraph, TaskGraphBuilder};
    pub use crate::time::Time;
    pub use crate::trace::Trace;
}
