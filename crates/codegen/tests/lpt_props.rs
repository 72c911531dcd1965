//! Property tests for the LPT scheduler (paper §3.2.3).
//!
//! Graham's classical result: LPT list scheduling of independent tasks on
//! `m` identical machines has makespan ≤ (4/3 − 1/(3m))·OPT. The bound
//! test compares against the *true* optimum (branch-and-bound over all
//! assignments) — comparing against a lower bound instead would assert a
//! stronger, false property.
//!
//! The `_from` variants schedule onto workers with start loads (the
//! executor pool's supervisor starts at once, a helper only after the
//! measured hand-off): zero start loads must reproduce the plain
//! schedulers, a hand-off that costs more than all the work must keep
//! every task on worker 0, and the predicted makespan must never be
//! worse than that of the schedule that ignores the start loads.

use om_codegen::{list_schedule, list_schedule_from, lpt, lpt_from};
use proptest::prelude::*;

/// Exact minimum makespan by branch-and-bound over all assignments.
/// Exponential, so keep task counts small in the strategies below.
fn opt_makespan(costs: &[u64], m: usize) -> u64 {
    fn rec(costs: &[u64], loads: &mut [u64], i: usize, best: &mut u64) {
        let current = loads.iter().copied().max().unwrap_or(0);
        if current >= *best {
            return; // can only get worse
        }
        if i == costs.len() {
            *best = current;
            return;
        }
        // Workers with equal load are symmetric: trying one is enough.
        let mut seen = Vec::with_capacity(loads.len());
        for w in 0..loads.len() {
            if seen.contains(&loads[w]) {
                continue;
            }
            seen.push(loads[w]);
            loads[w] += costs[i];
            rec(costs, loads, i + 1, best);
            loads[w] -= costs[i];
        }
    }
    let mut best = costs.iter().sum::<u64>().max(1);
    let mut loads = vec![0u64; m];
    rec(costs, &mut loads, 0, &mut best);
    best
}

/// A random DAG over `n` tasks from `seed`: each task depends on a few
/// lower-numbered ones.
fn random_deps(n: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    (0..n)
        .map(|i| {
            let mut ds: Vec<usize> = (0..i).filter(|_| next() % 3 == 0).collect();
            ds.truncate(3);
            ds
        })
        .collect()
}

/// Makespan of `assignment` when worker `w` starts at `start[w]`
/// (independent tasks; idle workers count for nothing).
fn charged(costs: &[u64], assignment: &[usize], start: &[u64]) -> u64 {
    let mut loads = vec![0u64; start.len()];
    for (t, &w) in assignment.iter().enumerate() {
        loads[w] += costs[t];
    }
    assignment
        .iter()
        .map(|&w| start[w] + loads[w])
        .max()
        .unwrap_or(0)
}

/// The pool's start loads: 0 for the supervisor, `h` for each helper.
fn helper_start(m: usize, h: u64) -> Vec<u64> {
    (0..m).map(|w| if w == 0 { 0 } else { h }).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Zero start loads are the plain schedulers, bit for bit.
    #[test]
    fn zero_start_loads_reproduce_the_plain_schedulers(
        costs in prop::collection::vec(0u64..=100, 0..=12),
        m in 1usize..=4,
        seed in 0u64..1_000_000,
    ) {
        let zeros = vec![0; m];
        prop_assert_eq!(lpt_from(&costs, &zeros), lpt(&costs, m));
        let deps = random_deps(costs.len(), seed);
        prop_assert_eq!(list_schedule_from(&costs, &deps, &zeros), list_schedule(&costs, &deps, m));
    }

    /// A hand-off that costs at least all the work together leaves every
    /// task on the supervisor, whose finish is the total cost.
    #[test]
    fn a_handoff_above_the_total_keeps_every_task_on_worker_0(
        costs in prop::collection::vec(0u64..=100, 1..=12),
        m in 2usize..=4,
        extra in 0u64..=50,
        seed in 0u64..1_000_000,
    ) {
        let total: u64 = costs.iter().sum();
        let start = helper_start(m, total + extra);
        let deps = random_deps(costs.len(), seed);
        for sched in [lpt_from(&costs, &start), list_schedule_from(&costs, &deps, &start)] {
            prop_assert!(sched.assignment.iter().all(|&w| w == 0), "{:?}", sched.assignment);
            prop_assert_eq!(sched.makespan, total);
            prop_assert_eq!(sched.loads[0], total);
        }
    }

    /// Every task is assigned exactly once, to a valid worker, and the
    /// derived metrics are consistent with the assignment.
    #[test]
    fn every_task_assigned_exactly_once(costs in prop::collection::vec(1u64..=100, 1..=9), m in 1usize..=4) {
        let sched = lpt(&costs, m);
        prop_assert_eq!(sched.assignment.len(), costs.len());
        prop_assert!(sched.assignment.iter().all(|&w| w < m));
        // per_worker() partitions 0..n: each task appears exactly once.
        let mut seen = vec![false; costs.len()];
        for (w, tasks) in sched.per_worker().iter().enumerate() {
            for &t in tasks {
                prop_assert!(!seen[t], "task {} assigned twice", t);
                seen[t] = true;
                prop_assert_eq!(sched.assignment[t], w);
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "some task never assigned");
        // Loads are exactly the per-worker cost sums; makespan is the max.
        for w in 0..m {
            let sum: u64 = (0..costs.len())
                .filter(|&t| sched.assignment[t] == w)
                .map(|t| costs[t])
                .sum();
            prop_assert_eq!(sched.loads[w], sum);
        }
        prop_assert_eq!(sched.makespan, sched.loads.iter().copied().max().unwrap());
        prop_assert_eq!(sched.loads.iter().sum::<u64>(), costs.iter().sum::<u64>());
    }

    /// Graham's bound: makespan(LPT) ≤ (4/3 − 1/(3m))·OPT, i.e.
    /// 3·m·LPT ≤ (4m−1)·OPT in exact integer arithmetic.
    #[test]
    fn lpt_within_graham_bound_of_optimum(costs in prop::collection::vec(1u64..=100, 1..=9), m in 1usize..=4) {
        let sched = lpt(&costs, m);
        let opt = opt_makespan(&costs, m);
        prop_assert!(sched.makespan >= opt, "LPT beat the optimum?!");
        prop_assert!(
            3 * m as u64 * sched.makespan <= (4 * m as u64 - 1) * opt,
            "LPT makespan {} vs OPT {} breaks (4/3 - 1/3m) on m={}",
            sched.makespan, opt, m
        );
    }

    /// The scheduler is a pure function: identical inputs give identical
    /// schedules (ties are broken by index, so there is no hidden state).
    #[test]
    fn schedule_is_deterministic(costs in prop::collection::vec(1u64..=100, 1..=9), m in 1usize..=4) {
        let a = lpt(&costs, m);
        let b = lpt(&costs, m);
        prop_assert_eq!(a, b);
    }

    /// List scheduling with no dependencies also assigns every task
    /// exactly once and never beats the dependency-free optimum.
    #[test]
    fn list_schedule_reduces_to_valid_assignment(costs in prop::collection::vec(1u64..=100, 1..=9), m in 1usize..=4) {
        let deps = vec![Vec::new(); costs.len()];
        let sched = list_schedule(&costs, &deps, m);
        prop_assert_eq!(sched.assignment.len(), costs.len());
        prop_assert!(sched.assignment.iter().all(|&w| w < m));
        prop_assert_eq!(sched.loads.iter().sum::<u64>(), costs.iter().sum::<u64>());
        prop_assert!(sched.makespan >= opt_makespan(&costs, m));
    }
}

proptest! {
    // Greedy placement from start loads beats the start-blind schedule
    // on all but a fraction of a percent of these cases, so the search
    // is wide.
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Scheduling with the start loads never predicts a later finish
    /// than the start-blind schedule charged the same start loads (for
    /// dependent tasks: than the start-blind makespan plus the largest
    /// start load, which bounds any replay of it).
    #[test]
    fn start_loads_never_make_the_prediction_worse(
        costs in prop::collection::vec(1u64..=100, 1..=12),
        m in 1usize..=4,
        h in 0u64..=300,
        seed in 0u64..1_000_000,
    ) {
        let start = helper_start(m, h);
        let aware = lpt_from(&costs, &start);
        prop_assert_eq!(aware.makespan, charged(&costs, &aware.assignment, &start));
        prop_assert!(aware.makespan <= charged(&costs, &lpt(&costs, m).assignment, &start));
        prop_assert!(aware.makespan <= lpt(&costs, m).makespan + h);
        let deps = random_deps(costs.len(), seed);
        let aware = list_schedule_from(&costs, &deps, &start);
        prop_assert!(aware.makespan <= list_schedule(&costs, &deps, m).makespan + h);
        prop_assert_eq!(aware.loads.iter().sum::<u64>(), costs.iter().sum::<u64>());
    }
}

/// One of those cases: greedy placement from the start loads alone
/// finishes at 229, the start-blind LPT schedule charged the same start
/// loads at 217, and `lpt_from` keeps the better one.
#[test]
fn start_aware_greedy_alone_is_not_monotone() {
    let costs = [39, 37, 76, 64, 65, 51, 76];
    let start = helper_start(2, 17);
    let blind = charged(&costs, &lpt(&costs, 2).assignment, &start);
    assert_eq!(blind, 217);
    let sched = lpt_from(&costs, &start);
    assert_eq!(sched.makespan, 217);
    assert_eq!(charged(&costs, &sched.assignment, &start), 217);
}

#[test]
fn opt_makespan_brute_force_is_right_on_known_cases() {
    // 2 workers, {3,3,2,2,2}: OPT = 6 (3+3 / 2+2+2).
    assert_eq!(opt_makespan(&[3, 3, 2, 2, 2], 2), 6);
    // The classic LPT-adversarial case meets the bound exactly at m=2:
    // {3,3,2,2,2} → LPT puts 3,3 apart: loads (3+2+2, 3+2) → makespan 7.
    let sched = lpt(&[3, 3, 2, 2, 2], 2);
    assert_eq!(sched.makespan, 7);
    // 7/6 ≤ (4·2−1)/(3·2) = 7/6 — tight.
    assert_eq!(3 * 2 * 7, (4 * 2 - 1) * 6);
    // One worker: OPT is the total.
    assert_eq!(opt_makespan(&[5, 1, 9], 1), 15);
    // More workers than tasks: OPT is the largest task.
    assert_eq!(opt_makespan(&[4, 7], 4), 7);
}
