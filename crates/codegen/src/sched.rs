//! Static task scheduling.
//!
//! "As the scheduler has the predicted execution time of each task and
//! all tasks are currently independent of each other, it can use the very
//! simple largest-processing-time (LPT) scheduling algorithm to construct
//! an efficient schedule" (paper §3.2.3, citing Coffman & Denning).
//!
//! [`lpt`] implements that algorithm for independent tasks; LPT is a
//! 4/3 − 1/(3m) approximation of the optimal makespan. For task graphs
//! with dependencies (the split/shared extensions), [`list_schedule`]
//! runs LPT-priority list scheduling.

/// A schedule: assignment of tasks to workers plus derived metrics.
#[derive(Clone, Debug, PartialEq)]
pub struct Schedule {
    /// `assignment[task] = worker index`.
    pub assignment: Vec<usize>,
    /// Total load per worker.
    pub loads: Vec<u64>,
    /// Maximum load (predicted parallel time ignoring communication).
    pub makespan: u64,
}

impl Schedule {
    /// Tasks assigned to each worker, preserving priority order.
    pub fn per_worker(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.loads.len()];
        for (task, &w) in self.assignment.iter().enumerate() {
            out[w].push(task);
        }
        out
    }

    /// Load imbalance: makespan / (total / m). 1.0 is perfect.
    pub fn imbalance(&self) -> f64 {
        let total: u64 = self.loads.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let ideal = total as f64 / self.loads.len() as f64;
        self.makespan as f64 / ideal
    }
}

/// Largest-processing-time scheduling of independent tasks onto `m`
/// workers: sort by cost descending, place each task on the currently
/// least-loaded worker. Makespan is within (4/3 − 1/3m) of optimal
/// (Graham 1969); `crates/codegen/tests/lpt_props.rs` checks the bound
/// against a brute-force optimum.
///
/// ```
/// let sched = om_codegen::lpt(&[3, 3, 2, 2, 2], 2);
/// assert_eq!(sched.makespan, 7); // OPT is 6: Graham's tight example
/// assert_eq!(sched.loads.iter().sum::<u64>(), 12);
/// ```
pub fn lpt(costs: &[u64], m: usize) -> Schedule {
    assert!(m > 0, "need at least one worker");
    lpt_greedy(costs, &vec![0; m])
}

/// [`lpt`] onto workers that cannot all start at once: worker `w` is
/// free from `start[w]`, so each task goes to the worker on which it
/// would finish soonest, and a worker that gets no task adds nothing to
/// the makespan. Greedy placement is not monotone in the start loads, so
/// the plain [`lpt`] schedule, charged the same start loads, is kept
/// when it finishes sooner: the prediction is never worse than ignoring
/// `start`. All-zero start loads give [`lpt`] exactly.
///
/// ```
/// // Worker 1 is a helper that takes 10 to hand work to: it is not worth it.
/// let sched = om_codegen::lpt_from(&[4, 3], &[0, 10]);
/// assert_eq!((sched.assignment, sched.makespan), (vec![0, 0], 7));
/// ```
pub fn lpt_from(costs: &[u64], start: &[u64]) -> Schedule {
    assert!(!start.is_empty(), "need at least one worker");
    let aware = lpt_greedy(costs, start);
    let mut blind = lpt_greedy(costs, &vec![0; start.len()]);
    blind.makespan = finish(&blind.assignment, &blind.loads, start);
    if blind.makespan < aware.makespan {
        blind
    } else {
        aware
    }
}

/// The latest finish over the workers that received a task.
fn finish(assignment: &[usize], loads: &[u64], start: &[u64]) -> u64 {
    assignment
        .iter()
        .map(|&w| start[w] + loads[w])
        .max()
        .unwrap_or(0)
}

fn lpt_greedy(costs: &[u64], start: &[u64]) -> Schedule {
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(costs[i]));
    let mut loads = vec![0u64; start.len()];
    let mut assignment = vec![0usize; costs.len()];
    for &task in &order {
        // Earliest finish; ties broken by lowest index for determinism. A
        // binary heap would be O(n log m); linear scan is plenty for task
        // counts in the hundreds and keeps ties stable.
        let w = (0..start.len())
            .min_by_key(|&w| (start[w] + loads[w], w))
            .expect("m > 0");
        assignment[task] = w;
        loads[w] += costs[task];
    }
    let makespan = finish(&assignment, &loads, start);
    Schedule {
        assignment,
        loads,
        makespan,
    }
}

/// The static schedule of tasks with `costs` and predecessor lists
/// `deps` on `m` workers: plain LPT when they are independent,
/// LPT-priority list scheduling otherwise.
pub(crate) fn schedule(costs: &[u64], deps: &[Vec<usize>], m: usize) -> Schedule {
    let _span = om_obs::span("codegen.schedule", "compile");
    if deps.iter().all(Vec::is_empty) {
        lpt(costs, m)
    } else {
        list_schedule(costs, deps, m)
    }
}

/// LPT-priority list scheduling for dependent tasks.
///
/// `deps[i]` lists predecessors of task `i`. Workers become free at their
/// current finish time; among ready tasks, the most expensive is placed
/// on the earliest-free worker. Returns the schedule; `makespan` accounts
/// for idle time caused by dependencies (but not communication — the
/// machine model in `om-runtime` adds that).
pub fn list_schedule(costs: &[u64], deps: &[Vec<usize>], m: usize) -> Schedule {
    assert!(m > 0, "need at least one worker");
    list_greedy(costs, deps, &vec![0; m]).0
}

/// [`list_schedule`] onto workers that are first free at `start[w]`, with
/// the same guarantee as [`lpt_from`]: the plain [`list_schedule`],
/// replayed in its own order from the same start loads, is kept when it
/// finishes sooner. All-zero start loads give [`list_schedule`] exactly.
pub fn list_schedule_from(costs: &[u64], deps: &[Vec<usize>], start: &[u64]) -> Schedule {
    assert!(!start.is_empty(), "need at least one worker");
    let (aware, _) = list_greedy(costs, deps, start);
    let (mut blind, order) = list_greedy(costs, deps, &vec![0; start.len()]);
    let mut free = start.to_vec();
    let mut end = vec![0u64; costs.len()];
    for task in order {
        let w = blind.assignment[task];
        let ready = deps[task].iter().map(|&d| end[d]).max().unwrap_or(0);
        end[task] = free[w].max(ready) + costs[task];
        free[w] = end[task];
    }
    blind.makespan = end.iter().copied().max().unwrap_or(0);
    if blind.makespan < aware.makespan {
        blind
    } else {
        aware
    }
}

/// List scheduling from per-worker start loads; also returns the order
/// in which tasks were placed (a topological order).
fn list_greedy(costs: &[u64], deps: &[Vec<usize>], start: &[u64]) -> (Schedule, Vec<usize>) {
    let n = costs.len();
    let mut indegree: Vec<usize> = deps.iter().map(Vec::len).collect();
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, ds) in deps.iter().enumerate() {
        for &d in ds {
            dependents[d].push(i);
        }
    }
    let mut finish_time = vec![0u64; n];
    let mut avail = vec![0u64; n]; // earliest start permitted by deps
    let mut worker_free = start.to_vec();
    let mut loads = vec![0u64; start.len()];
    let mut assignment = vec![0usize; n];
    let mut ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while order.len() < n {
        assert!(!ready.is_empty(), "dependency cycle in task graph");
        // Earliest-free worker.
        let w = (0..start.len())
            .min_by_key(|&w| (worker_free[w], w))
            .expect("m > 0");
        // Among ready tasks, pick the one that can start earliest on `w`;
        // break ties by LPT priority (largest cost), then by index.
        let (pos, &task) = ready
            .iter()
            .enumerate()
            .min_by_key(|(_, &t)| (worker_free[w].max(avail[t]), std::cmp::Reverse(costs[t]), t))
            .expect("ready nonempty");
        ready.swap_remove(pos);
        let begin = worker_free[w].max(avail[task]);
        let end = begin + costs[task];
        worker_free[w] = end;
        finish_time[task] = end;
        loads[w] += costs[task];
        assignment[task] = w;
        order.push(task);
        for &dep in &dependents[task] {
            indegree[dep] -= 1;
            avail[dep] = avail[dep].max(end);
            if indegree[dep] == 0 {
                ready.push(dep);
            }
        }
    }
    let makespan = finish_time.iter().copied().max().unwrap_or(0);
    let schedule = Schedule {
        assignment,
        loads,
        makespan,
    };
    (schedule, order)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lpt_classic_example() {
        // Costs {7, 6, 5, 4, 3, 2} on 2 workers: LPT gives 14 vs optimal 14.
        let s = lpt(&[7, 6, 5, 4, 3, 2], 2);
        assert_eq!(s.loads.iter().sum::<u64>(), 27);
        assert_eq!(s.makespan, 14);
    }

    #[test]
    fn lpt_single_worker_serializes() {
        let s = lpt(&[5, 3, 2], 1);
        assert_eq!(s.makespan, 10);
        assert!(s.assignment.iter().all(|&w| w == 0));
    }

    #[test]
    fn lpt_more_workers_than_tasks() {
        let s = lpt(&[5, 3], 4);
        assert_eq!(s.makespan, 5);
        assert_eq!(s.loads.iter().filter(|&&l| l > 0).count(), 2);
    }

    #[test]
    fn lpt_is_deterministic() {
        let costs = [3, 3, 3, 3];
        assert_eq!(lpt(&costs, 2), lpt(&costs, 2));
    }

    #[test]
    fn lpt_approximation_bound() {
        // Graham's greedy bound: makespan ≤ total/m + (1 − 1/m)·max_cost;
        // LPT's 4/3 guarantee is relative to (unknown) OPT, so the
        // provable check here is the greedy bound plus the trivial lower
        // bound.
        let cases: Vec<(Vec<u64>, usize)> = vec![
            (vec![10, 9, 8, 7, 6, 5, 4, 3, 2, 1], 3),
            (vec![100, 1, 1, 1, 1, 1], 2),
            (vec![5, 5, 4, 4, 3, 3], 2),
            (vec![2, 2, 2], 5),
        ];
        for (costs, m) in cases {
            let s = lpt(&costs, m);
            let total: u64 = costs.iter().sum();
            let cmax = costs.iter().copied().max().unwrap();
            let lower = (total.div_ceil(m as u64)).max(cmax);
            let graham = total as f64 / m as f64 + (1.0 - 1.0 / m as f64) * cmax as f64;
            assert!(
                s.makespan as f64 <= graham + 1e-9,
                "makespan {} exceeds Graham bound {graham}",
                s.makespan
            );
            assert!(s.makespan >= lower);
        }
    }

    #[test]
    fn list_schedule_without_deps_matches_lpt_makespan_class() {
        let costs = [7, 6, 5, 4, 3, 2];
        let deps: Vec<Vec<usize>> = vec![Vec::new(); costs.len()];
        let s = list_schedule(&costs, &deps, 2);
        assert_eq!(s.makespan, 14);
    }

    #[test]
    fn list_schedule_respects_dependencies() {
        // chain 0 → 1 → 2 (1 depends on 0, 2 on 1): strictly serial even
        // with many workers.
        let costs = [4, 4, 4];
        let deps = vec![vec![], vec![0], vec![1]];
        let s = list_schedule(&costs, &deps, 4);
        assert_eq!(s.makespan, 12);
    }

    #[test]
    fn list_schedule_overlaps_independent_chains() {
        // Two independent 2-chains on 2 workers: makespan 8, not 16.
        let costs = [4, 4, 4, 4];
        let deps = vec![vec![], vec![0], vec![], vec![2]];
        let s = list_schedule(&costs, &deps, 2);
        assert_eq!(s.makespan, 8);
    }

    #[test]
    fn diamond_dependency() {
        //   0
        //  / \
        // 1   2
        //  \ /
        //   3
        let costs = [2, 3, 3, 2];
        let deps = vec![vec![], vec![0], vec![0], vec![1, 2]];
        let s = list_schedule(&costs, &deps, 2);
        // 0 (2) then 1∥2 (3) then 3 (2) = 7.
        assert_eq!(s.makespan, 7);
    }

    #[test]
    fn imbalance_metric() {
        let s = lpt(&[4, 4], 2);
        assert!((s.imbalance() - 1.0).abs() < 1e-12);
        let s = lpt(&[8, 1], 2);
        assert!(s.imbalance() > 1.5);
    }

    #[test]
    #[should_panic(expected = "dependency cycle")]
    fn cyclic_deps_panic() {
        let costs = [1, 1];
        let deps = vec![vec![1], vec![0]];
        list_schedule(&costs, &deps, 1);
    }
}
