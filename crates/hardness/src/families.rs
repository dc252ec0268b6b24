//! Scale-parameterized instance families matching Theorem 2's syntactic
//! restrictions, tuned to the feasibility boundary (where complete
//! deciders work hardest). The E3/E4 experiments sweep `n` over these
//! and measure the blowup of [`rtcg_core::feasibility::exact`] and
//! [`rtcg_core::feasibility::game`].

use rtcg_core::model::{Model, ModelBuilder};
use rtcg_core::task::TaskGraphBuilder;

/// Theorem 2(i) family: unit-weight elements, task graphs that are
/// chains of length 3. `n` chain constraints over `3n` distinct unit
/// elements, all with the common deadline `d = 5 + 6(n-1)`.
///
/// That deadline is feasible, but for `n ≥ 2` it is not the boundary.
/// Running the chains back to back (`c0a c0b c0c c1a …`) meets
/// `3n + 2`: the cycle lasts `3n` ticks, so a request that just misses
/// a chain's first op waits `3n − 1` ticks for it and then 3 for the
/// chain. The exact search with at most `3n + 3` actions finds no
/// schedule below `3n + 2` for `n = 1, 2`, and finds one at `3n + 2`
/// for `n = 1, 2, 3`. So `5 + 6(n-1)` equals the boundary at `n = 1`
/// and leaves `3(n − 1)` ticks of slack above it after that.
pub fn chain_family(n: usize) -> Model {
    chain_family_with_deadline(n, 5 + 6 * (n.saturating_sub(1)) as u64)
}

/// [`chain_family`] with an explicit common deadline `d`. Deadlines
/// below `3n + 2` (the boundary measured in [`chain_family`]'s doc)
/// give instances without a schedule, whose *proof* of infeasibility is
/// where search effort concentrates — the knob the pruning experiments
/// turn.
pub fn chain_family_with_deadline(n: usize, d: u64) -> Model {
    let mut b = ModelBuilder::new();
    for i in 0..n {
        let e0 = b.element(&format!("c{i}a"), 1);
        let e1 = b.element(&format!("c{i}b"), 1);
        let e2 = b.element(&format!("c{i}c"), 1);
        b.channel(e0, e1).channel(e1, e2);
        let tg = TaskGraphBuilder::new()
            .op("a", e0)
            .op("b", e1)
            .op("c", e2)
            .chain(&["a", "b", "c"])
            .build()
            .expect("chain builds");
        b.asynchronous(&format!("chain{i}"), tg, d, d);
    }
    b.build().expect("family is valid")
}

/// Theorem 2(ii) family: single-operation task graphs on non-pipelinable
/// elements, all but one deadline equal. One unit-weight *clock* with
/// deadline 4 (forcing a clock start every ≤ 3 ticks) plus `n` weight-2
/// atomic items with common deadline `3n + 2` — feasible exactly by
/// rotating the items through the inter-clock gaps.
pub fn single_op_family(n: usize) -> Model {
    let mut b = ModelBuilder::new();
    let clock = b.element_unpipelinable("clock", 1);
    let tg = TaskGraphBuilder::new().op("k", clock).build().unwrap();
    b.asynchronous("clock", tg, 4, 4);
    let d = 3 * n as u64 + 2;
    for i in 0..n {
        let e = b.element_unpipelinable(&format!("item{i}"), 2);
        let tg = TaskGraphBuilder::new().op("o", e).build().unwrap();
        b.asynchronous(&format!("it{i}"), tg, d, d);
    }
    b.build().expect("family is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtcg_core::feasibility::{game, quick_infeasible};
    use rtcg_core::schedule::{Action, StaticSchedule};

    #[test]
    fn chain_family_shape() {
        let m = chain_family(3);
        assert_eq!(m.comm().element_count(), 9);
        assert_eq!(m.constraints().len(), 3);
        assert!(m.comm().elements().all(|(_, e)| e.wcet == 1));
        assert!(m.constraints().iter().all(|c| c.task.op_count() == 3));
        assert_eq!(quick_infeasible(&m).unwrap(), None);
    }

    #[test]
    fn chain_family_singleton_is_feasible() {
        let m = chain_family(1);
        // witness: run the chain back to back
        let comm = m.comm();
        let s = StaticSchedule::new(vec![
            Action::Run(comm.lookup("c0a").unwrap()),
            Action::Run(comm.lookup("c0b").unwrap()),
            Action::Run(comm.lookup("c0c").unwrap()),
        ]);
        assert!(s.feasibility(&m).unwrap().is_feasible());
    }

    #[test]
    fn chain_family_two_interleaves() {
        let m = chain_family(2);
        // witness: concatenate both chains; d = 11
        let comm = m.comm();
        let names = ["c0a", "c0b", "c0c", "c1a", "c1b", "c1c"];
        let s = StaticSchedule::new(
            names
                .iter()
                .map(|n| Action::Run(comm.lookup(n).unwrap()))
                .collect(),
        );
        assert!(s.feasibility(&m).unwrap().is_feasible());
    }

    #[test]
    fn single_op_family_shape_and_witness() {
        for n in 1..=3usize {
            let m = single_op_family(n);
            assert_eq!(m.constraints().len(), n + 1);
            // all but one deadline equal
            let deadlines: Vec<u64> = m.constraints().iter().map(|c| c.deadline).collect();
            assert_eq!(deadlines.iter().filter(|&&d| d == 4).count(), 1);
            // witness: [κ i0 κ i1 … κ i(n-1)]
            let comm = m.comm();
            let clock = comm.lookup("clock").unwrap();
            let mut actions = Vec::new();
            for i in 0..n {
                actions.push(Action::Run(clock));
                actions.push(Action::Run(comm.lookup(&format!("item{i}")).unwrap()));
            }
            let s = StaticSchedule::new(actions);
            let report = s.feasibility(&m).unwrap();
            assert!(report.is_feasible(), "n={n}\n{report}");
        }
    }

    #[test]
    fn game_solver_decides_small_family_instances() {
        // the complete decider agrees the small instances are feasible
        let m = single_op_family(1);
        let out = game::solve_game(&m, game::GameConfig::default()).unwrap();
        assert!(out.schedule().is_some());

        let m = chain_family(1);
        let out = game::solve_game(&m, game::GameConfig::default()).unwrap();
        assert!(out.schedule().is_some());
    }

    #[test]
    fn families_grow_monotonically() {
        assert!(chain_family(4).comm().element_count() > chain_family(2).comm().element_count());
        assert!(single_op_family(4).constraints().len() > single_op_family(2).constraints().len());
    }
}
