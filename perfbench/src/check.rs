//! Checks made apart from the program.
//!
//! The window checker re-derives the paper's execution semantics from
//! its definition instead of calling `StaticSchedule::feasibility`: a
//! task graph is executed in a window when its operations map one-to-one
//! onto element instances that start and finish inside the window, each
//! starting no earlier than its predecessors finish. The latency of a
//! schedule is the worst window over one period; periodic constraints
//! are checked on their invocation windows. Lane schedules repeat every
//! joint period (the longest row) and are merged on global ticks.

use std::collections::{BTreeMap, HashMap};

use rtcg_core::constraint::ConstraintKind;
use rtcg_core::model::{ElementId, Model};
use rtcg_core::schedule::Action;

/// One constraint as plain data: ops in topological order.
pub struct Task {
    pub name: String,
    pub periodic: bool,
    pub period: u64,
    pub deadline: u64,
    /// Element index of each op.
    pub ops: Vec<usize>,
    /// Predecessor op indices of each op.
    pub preds: Vec<Vec<usize>>,
}

/// A model flattened to element weights and constraint tasks.
pub struct Flat {
    pub names: Vec<String>,
    pub weights: Vec<u64>,
    index: HashMap<ElementId, usize>,
    pub tasks: Vec<Task>,
}

impl Flat {
    pub fn new(model: &Model) -> Flat {
        let mut names = Vec::new();
        let mut weights = Vec::new();
        let mut index = HashMap::new();
        for (id, e) in model.comm().elements() {
            index.insert(id, names.len());
            names.push(e.name.clone());
            weights.push(e.wcet);
        }
        let tasks = model
            .constraints()
            .iter()
            .map(|c| {
                let ids: Vec<_> = c.task.ops().map(|(id, _)| id).collect();
                let pos: HashMap<_, _> = ids.iter().enumerate().map(|(k, &id)| (id, k)).collect();
                let elems: Vec<usize> = c.task.ops().map(|(_, op)| index[&op.element]).collect();
                let mut preds = vec![Vec::new(); ids.len()];
                for (u, v) in c.task.precedence_edges() {
                    preds[pos[&v]].push(pos[&u]);
                }
                // Kahn's algorithm: ops are renumbered in topological order
                let mut indeg: Vec<usize> = preds.iter().map(Vec::len).collect();
                let mut order = Vec::new();
                let mut ready: Vec<usize> = (0..ids.len()).filter(|&k| indeg[k] == 0).collect();
                while let Some(k) = ready.pop() {
                    order.push(k);
                    for j in 0..ids.len() {
                        if preds[j].contains(&k) {
                            indeg[j] -= 1;
                            if indeg[j] == 0 {
                                ready.push(j);
                            }
                        }
                    }
                }
                assert_eq!(
                    order.len(),
                    ids.len(),
                    "task graph `{}` has a cycle",
                    c.name
                );
                let rank: Vec<usize> = {
                    let mut r = vec![0; ids.len()];
                    for (new, &old) in order.iter().enumerate() {
                        r[old] = new;
                    }
                    r
                };
                Task {
                    name: c.name.clone(),
                    periodic: c.kind == ConstraintKind::Periodic,
                    period: c.period,
                    deadline: c.deadline,
                    ops: order.iter().map(|&old| elems[old]).collect(),
                    preds: order
                        .iter()
                        .map(|&old| preds[old].iter().map(|&p| rank[p]).collect())
                        .collect(),
                }
            })
            .collect();
        Flat {
            names,
            weights,
            index,
            tasks,
        }
    }

    /// Rows of element indices (`None` = idle) for a schedule's actions.
    pub fn row(&self, actions: &[Action]) -> Result<Vec<Option<usize>>, String> {
        actions
            .iter()
            .map(|a| match a {
                Action::Idle => Ok(None),
                Action::Run(e) => self
                    .index
                    .get(e)
                    .map(|&ix| Some(ix))
                    .ok_or_else(|| format!("schedule runs unknown element {e:?}")),
            })
            .collect()
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// The instances a lane schedule generates, per element, sorted by start.
pub struct Instances {
    period: u64,
    /// Per element: (start, finish) offsets inside one period.
    base: Vec<Vec<(u64, u64)>>,
}

impl Instances {
    pub fn new(flat: &Flat, rows: &[Vec<Option<usize>>]) -> Result<Instances, String> {
        let mut base = vec![Vec::new(); flat.weights.len()];
        let mut lane_of: Vec<Option<usize>> = vec![None; flat.weights.len()];
        let mut period = 0;
        for (lane, row) in rows.iter().enumerate() {
            let mut t = 0;
            for a in row {
                match *a {
                    None => t += 1,
                    Some(e) => {
                        let w = flat.weights[e];
                        if w == 0 {
                            return Err(format!("runs zero-weight element {}", flat.names[e]));
                        }
                        match lane_of[e] {
                            Some(l) if l != lane => {
                                return Err(format!("element {} sits on two lanes", flat.names[e]));
                            }
                            _ => lane_of[e] = Some(lane),
                        }
                        base[e].push((t, t + w));
                        t += w;
                    }
                }
            }
            period = period.max(t);
        }
        if period == 0 {
            return Err("empty schedule".into());
        }
        for b in &mut base {
            b.sort_unstable();
        }
        Ok(Instances { period, base })
    }

    /// Instances of element `e` with `start >= lo` and `finish <= hi`.
    fn within(&self, e: usize, lo: u64, hi: u64, out: &mut Vec<(u64, u64)>) {
        out.clear();
        if self.base[e].is_empty() {
            return;
        }
        let mut rep = lo / self.period;
        loop {
            let off = rep * self.period;
            if off >= hi {
                return;
            }
            for &(s, f) in &self.base[e] {
                if s + off >= lo && f + off <= hi {
                    out.push((s + off, f + off));
                }
            }
            rep += 1;
        }
    }

    /// True when `task` is executed inside the window `[lo, hi]`.
    pub fn executed(&self, task: &Task, lo: u64, hi: u64) -> bool {
        let cands: Vec<Vec<(u64, u64)>> = task
            .ops
            .iter()
            .map(|&e| {
                let mut v = Vec::new();
                self.within(e, lo, hi, &mut v);
                v
            })
            .collect();
        let mut chosen: Vec<(u64, u64)> = Vec::with_capacity(task.ops.len());
        assign(task, &cands, lo, &mut chosen)
    }

    #[cfg(test)]
    /// The least `k` such that every window of length `k` starting in one
    /// period executes `task`; `None` when some window never does.
    pub fn latency(&self, task: &Task) -> Option<u64> {
        let work: u64 = task.ops.len() as u64;
        let cap = (work + 2) * self.period + self.period;
        let mut worst = 0;
        for s in 0..self.period {
            if !self.executed(task, s, s + cap) {
                return None;
            }
            // executions in a window stay executions in any longer one,
            // so the least length is found by bisection
            let (mut lo, mut hi) = (0, cap);
            while lo < hi {
                let mid = (lo + hi) / 2;
                if self.executed(task, s, s + mid) {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            worst = worst.max(lo);
        }
        Some(worst)
    }

    /// Whether `task` meets its constraint: every window of length
    /// `deadline` (asynchronous) or every invocation window
    /// `[j·period, j·period + deadline]` (periodic).
    pub fn meets(&self, task: &Task) -> bool {
        if task.periodic {
            let joint = self.period / gcd(self.period, task.period) * task.period;
            (0..joint / task.period).all(|j| {
                let t0 = j * task.period;
                self.executed(task, t0, t0 + task.deadline)
            })
        } else {
            (0..self.period).all(|s| self.executed(task, s, s + task.deadline))
        }
    }
}

/// Backtracking assignment of ops (topological order) to distinct
/// instances inside the window.
fn assign(task: &Task, cands: &[Vec<(u64, u64)>], lo: u64, chosen: &mut Vec<(u64, u64)>) -> bool {
    let k = chosen.len();
    if k == task.ops.len() {
        return true;
    }
    let release = task.preds[k]
        .iter()
        .map(|&p| chosen[p].1)
        .fold(lo, u64::max);
    for &inst in &cands[k] {
        if inst.0 < release {
            continue;
        }
        let taken = (0..k).any(|j| task.ops[j] == task.ops[k] && chosen[j] == inst);
        if taken {
            continue;
        }
        chosen.push(inst);
        if assign(task, cands, lo, chosen) {
            return true;
        }
        chosen.pop();
    }
    false
}

/// Checks a feasible schedule (one row per lane) against `analysis`.
pub fn schedule_meets(analysis: &Model, rows: &[&[Action]]) -> Result<(), String> {
    let flat = Flat::new(analysis);
    let rows = rows
        .iter()
        .map(|r| flat.row(r))
        .collect::<Result<Vec<_>, _>>()?;
    let inst = Instances::new(&flat, &rows)?;
    for task in &flat.tasks {
        if !inst.meets(task) {
            return Err(format!("constraint `{}` misses a window", task.name));
        }
    }
    Ok(())
}

/// Checks that `analysis` is `original` with each element's stage chain
/// summing to its weight, and periods and deadlines unchanged.
pub fn analysis_model_matches(original: &Model, analysis: &Model) -> Result<(), String> {
    let a = Flat::new(analysis);
    let o = Flat::new(original);
    let by_name: BTreeMap<&str, u64> = a
        .names
        .iter()
        .map(String::as_str)
        .zip(a.weights.iter().copied())
        .collect();
    let mut accounted = 0;
    for (name, &w) in o.names.iter().zip(&o.weights) {
        if by_name.get(name.as_str()) == Some(&w) {
            accounted += 1;
            continue;
        }
        let stages: u64 = (0..w)
            .map(|k| by_name.get(format!("{name}/{k}").as_str()).copied())
            .sum::<Option<u64>>()
            .ok_or_else(|| format!("element {name} has no stage chain"))?;
        if stages != w {
            return Err(format!("stages of {name} sum to {stages}, not {w}"));
        }
        accounted += w as usize;
    }
    if accounted != a.names.len() {
        return Err("analysis model has elements the original lacks".into());
    }
    if o.tasks.len() != a.tasks.len() {
        return Err("constraint count changed".into());
    }
    for (x, y) in o.tasks.iter().zip(&a.tasks) {
        let work = |f: &Flat, t: &Task| t.ops.iter().map(|&e| f.weights[e]).sum::<u64>();
        if x.name != y.name
            || x.periodic != y.periodic
            || x.period != y.period
            || x.deadline != y.deadline
            || work(&o, x) != work(&a, y)
        {
            return Err(format!("constraint `{}` changed", x.name));
        }
    }
    Ok(())
}

/// Re-derives a necessary-condition infeasibility proof from the model.
/// `Ok(true)` when `reason` is such a proof and it holds, `Ok(false)`
/// when `reason` is some other kind of proof.
pub fn necessary_condition_holds(model: &Model, reason: &str) -> Result<bool, String> {
    let flat = Flat::new(model);
    if let Some(rest) = reason.strip_prefix("sharing-aware density ") {
        let claimed: f64 = rest
            .trim_end_matches(" > 1")
            .parse()
            .map_err(|_| format!("unparsable density proof `{reason}`"))?;
        // per element, the most demanding constraint's instance rate
        let mut rate = vec![0f64; flat.weights.len()];
        for t in &flat.tasks {
            for (e, r) in rate.iter_mut().enumerate() {
                let uses = t.ops.iter().filter(|&&x| x == e).count() as f64;
                *r = r.max(uses / t.deadline as f64);
            }
        }
        let density: f64 = rate
            .iter()
            .zip(&flat.weights)
            .map(|(r, &w)| r * w as f64)
            .sum();
        if density <= 1.0 + 1e-9 || (density - claimed).abs() > 5e-4 {
            return Err(format!("density is {density:.4}, proof claims {claimed}"));
        }
        return Ok(true);
    }
    if let Some(rest) = reason.strip_prefix("constraint `") {
        let (name, rest) = rest
            .split_once("`: computation ")
            .ok_or_else(|| format!("unparsable span proof `{reason}`"))?;
        let (w, d) = rest
            .split_once(" > deadline ")
            .ok_or_else(|| format!("unparsable span proof `{reason}`"))?;
        let task = flat
            .tasks
            .iter()
            .find(|t| t.name == name)
            .ok_or_else(|| format!("proof names unknown constraint {name}"))?;
        let work: u64 = task.ops.iter().map(|&e| flat.weights[e]).sum();
        if w.parse() != Ok(work) || d.parse() != Ok(task.deadline) || work <= task.deadline {
            return Err(format!("span proof `{reason}` does not hold"));
        }
        return Ok(true);
    }
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtcg_core::model::ModelBuilder;
    use rtcg_core::task::TaskGraphBuilder;

    fn ab_chain(deadline: u64) -> (Model, ElementId, ElementId) {
        let mut b = ModelBuilder::new();
        let a = b.element("a", 1);
        let e = b.element("b", 1);
        b.channel(a, e);
        let task = TaskGraphBuilder::new()
            .op("a", a)
            .op("b", e)
            .edge("a", "b")
            .build()
            .unwrap();
        b.asynchronous("ab", task, deadline, deadline);
        (b.build().unwrap(), a, e)
    }

    #[test]
    fn alternation_has_latency_three() {
        let (m, a, b) = ab_chain(3);
        let flat = Flat::new(&m);
        let row = flat.row(&[Action::Run(a), Action::Run(b)]).unwrap();
        let inst = Instances::new(&flat, &[row]).unwrap();
        // from tick 1 the next a starts at 2 and b finishes at 4
        assert_eq!(inst.latency(&flat.tasks[0]), Some(3));
        assert!(schedule_meets(&m, &[&[Action::Run(a), Action::Run(b)]]).is_ok());
    }

    #[test]
    fn chain_family_round_robin_has_latency_eight() {
        let m = rtcg_hardness::families::chain_family_with_deadline(2, 8);
        let flat = Flat::new(&m);
        // each 3-chain back to back: from tick 1 the next full chain
        // starts at 6 and finishes at 9
        let actions: Vec<Action> = flat
            .tasks
            .iter()
            .flat_map(|t| t.ops.iter())
            .map(|&e| Action::Run(m.comm().lookup(&flat.names[e]).unwrap()))
            .collect();
        assert_eq!(actions.len(), 6);
        let row = flat.row(&actions).unwrap();
        let inst = Instances::new(&flat, &[row]).unwrap();
        for t in &flat.tasks {
            assert_eq!(inst.latency(t), Some(8));
        }
        assert!(schedule_meets(&m, &[&actions]).is_ok());
    }

    #[test]
    fn schedule_missing_a_window_is_rejected() {
        let (m, a, b) = ab_chain(3);
        // [a b φ]: from tick 1 the chain completes only at 5
        let actions = [Action::Run(a), Action::Run(b), Action::Idle];
        assert!(schedule_meets(&m, &[&actions]).is_err());
        let flat = Flat::new(&m);
        let row = flat.row(&actions).unwrap();
        assert_eq!(
            Instances::new(&flat, &[row])
                .unwrap()
                .latency(&flat.tasks[0]),
            Some(4)
        );
    }

    #[test]
    fn lanes_merge_on_global_ticks() {
        let src = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../examples/specs/dual_core.rtcg"
        ))
        .unwrap();
        let m = rtcg_lang::parse_model(&src).unwrap();
        let a = m.comm().lookup("filterA").unwrap();
        let b = m.comm().lookup("filterB").unwrap();
        assert!(schedule_meets(&m, &[&[Action::Run(a)], &[Action::Run(b)]]).is_ok());
        assert!(schedule_meets(&m, &[&[Action::Run(a), Action::Run(b)]]).is_err());
        assert!(
            schedule_meets(&m, &[&[Action::Run(a)], &[Action::Run(a), Action::Run(b)]]).is_err()
        );
    }

    #[test]
    fn necessary_conditions_are_recomputed() {
        let (m, _, _) = ab_chain(3);
        assert_eq!(necessary_condition_holds(&m, "complete search"), Ok(false));
        assert!(necessary_condition_holds(&m, "sharing-aware density 1.200 > 1").is_err());
        assert!(
            necessary_condition_holds(&m, "constraint `ab`: computation 2 > deadline 3").is_err()
        );
    }
}
