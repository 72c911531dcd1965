//! Task partitioning (paper §3.2).
//!
//! "The parallelization stage of the code generator groups all small
//! assignments into one task and splits large assignments obtained from
//! the equations into several tasks for computation. The dependence
//! relation between the tasks determines the communication between them.
//! This forms a directed acyclic graph which is the input to the
//! scheduler."
//!
//! Pipeline implemented here:
//!
//! 1. [`equation_tasks`] — one task per derivative equation. In *inline*
//!    mode every algebraic variable is substituted into its consumers, so
//!    tasks are fully independent (the configuration the paper evaluates).
//!    In *shared* mode algebraic assignments become tasks of their own
//!    whose results flow to consumers, introducing dependencies.
//! 2. [`split_large`] — a task whose right-hand side is a big top-level
//!    sum is split into partial-sum producer tasks plus a cheap combine
//!    task.
//! 3. [`merge_small`] — independent tasks cheaper than the merge
//!    threshold are grouped ("groups all small assignments into one
//!    task").
//! 4. [`extract_shared_cse`] — the paper's future-work optimization
//!    (§3.3): large subexpressions common to *different* tasks are
//!    extracted into producer tasks so the work is done once and
//!    communicated, instead of re-done per task.
//! 5. [`compile_tasks`] — compile every task body to bytecode, resolve
//!    reads/writes, and derive the dependence edges.
//!
//! The graph those passes produce is the *equation-level* graph (the
//! emitters', Fig. 10/12's and the ablations'). What the product
//! executes is a placement of it: [`cluster`] fuses each worker's share
//! of the plain tasks into one task before compilation.

use crate::bytecode::{compile_roots, Instr, Program, VarRef};
use crate::cse::{self, CseMode};
use crate::dag::{Dag, NodeId};
use crate::vm::{self, Load};
use om_analysis::Pattern;
use om_expr::expr::Expr;
use om_expr::{simplify, CostModel, Symbol};
use om_ir::{Inliner, OdeIr};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// Where a task output lands.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OutSlot {
    /// Derivative slot `i` of the state vector.
    Deriv(usize),
    /// Shared intermediate value slot (consumed by other tasks).
    Shared(usize),
}

/// A task before compilation: labeled outputs with symbolic bodies.
#[derive(Clone, Debug)]
pub struct SymbolicTask {
    pub label: String,
    pub outputs: Vec<(OutTarget, Expr)>,
    /// When set, this is an *array-loop task*: `outputs` holds the single
    /// class-representative body, executed once per iteration with the
    /// varying state reads and the output slot renumbered per
    /// [`SymLoop`]. The partitioning passes leave loop tasks untouched.
    pub array_loop: Option<SymLoop>,
}

/// Symbolic loop payload of an array-loop task (one chunk of an
/// [`om_lang::EqClass`]'s index range).
#[derive(Clone, Debug)]
pub struct SymLoop {
    /// Derivative slot written per iteration.
    pub out_slots: Vec<u32>,
    /// For each varying symbol of the representative body: the state slot
    /// it reads per iteration (each `Vec<u32>` is parallel to
    /// `out_slots`).
    pub rows: Vec<(Symbol, Vec<u32>)>,
}

impl SymLoop {
    /// Trip count of the loop.
    pub fn count(&self) -> usize {
        self.out_slots.len()
    }
}

/// Symbolic output target (shared slots are still symbols here; they are
/// numbered by [`compile_tasks`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OutTarget {
    Deriv(usize),
    Shared(Symbol),
}

impl SymbolicTask {
    /// A plain task computing one value.
    fn single(label: String, target: OutTarget, body: Expr) -> SymbolicTask {
        SymbolicTask {
            label,
            outputs: vec![(target, body)],
            array_loop: None,
        }
    }

    /// The outputs imported into one hash-consed DAG; the returned roots
    /// are parallel to `outputs`, each marked as a root.
    pub(crate) fn dag(&self) -> (Dag, Vec<NodeId>) {
        let mut dag = Dag::new();
        let roots = self
            .outputs
            .iter()
            .map(|(_, e)| {
                let r = dag.import(e);
                dag.mark_root(r);
                r
            })
            .collect();
        (dag, roots)
    }

    /// Static cost of the task body (with intra-task sharing).
    pub fn cost(&self, model: &CostModel) -> u64 {
        let (dag, roots) = self.dag();
        dag.shared_cost(&roots, model)
    }

    /// The [`CompiledTask::static_cost`] [`compile_tasks`] will give this
    /// task under `mode`, without compiling it (the scheduler's input).
    pub(crate) fn static_cost(&self, mode: CseMode, model: &CostModel) -> u64 {
        let (dag, roots) = self.dag();
        let trips = self.array_loop.as_ref().map_or(1, SymLoop::count);
        body_cost(&dag, &roots, mode, model) * trips as u64
    }
}

/// Static cost of one evaluation of `roots`: every shared node once,
/// except without CSE.
fn body_cost(dag: &Dag, roots: &[NodeId], mode: CseMode, model: &CostModel) -> u64 {
    match mode {
        CseMode::Off => dag.tree_cost(roots, model),
        _ => dag.shared_cost(roots, model),
    }
}

/// Compiled loop payload: the task's single program runs `count` times,
/// the listed `State` loads reading a different slot at each iteration.
/// The VM runs the iterations as the lanes of one kernel
/// ([`crate::vm::execute_batch_with_regs`] with this payload).
#[derive(Clone, Debug)]
pub struct LoopInfo {
    /// For each patched instruction: its index in `program.instrs` and
    /// the state slot it must load at each iteration.
    pub patches: Vec<(u32, Vec<u32>)>,
    /// Trip count (equals `writes.len() / program.outputs.len()`).
    pub count: u32,
    /// Symbolic summary of the derivative slots written per iteration
    /// (`base + stride·k` for affine rows), recognized from the
    /// enumerated write vector at compile time so analyses can reason
    /// about the loop in O(1) instead of O(count).
    pub out_pattern: Pattern,
    /// Symbolic summaries of the per-iteration state reads, one per
    /// patched load, parallel to `patches`.
    pub read_patterns: Vec<Pattern>,
    /// Per instruction of the program: how the kernel addresses its
    /// `State` load — the patch table turned into a lookup.
    pub loads: Vec<Load>,
}

impl LoopInfo {
    /// The payload running `program` once per entry of `out_slots` (the
    /// first derivative slot each iteration writes), its `State` load at
    /// instruction `patches[p].0` reading slot `patches[p].1[k]` at
    /// iteration `k`. Panics if a patched instruction is not a `State`
    /// load or a slot table's length is not the trip count.
    pub fn new(program: &Program, patches: Vec<(u32, Vec<u32>)>, out_slots: &[u32]) -> LoopInfo {
        let read_patterns: Vec<Pattern> = patches
            .iter()
            .map(|(_, slots)| Pattern::from_slots(slots))
            .collect();
        let mut loads = vec![Load::Fixed; program.instrs.len()];
        for (p, ((instr, slots), pattern)) in patches.iter().zip(&read_patterns).enumerate() {
            let i = *instr as usize;
            assert!(
                matches!(program.instrs[i], Instr::State { .. }),
                "patch on non-State instruction {:?}",
                program.instrs[i]
            );
            assert_eq!(slots.len(), out_slots.len(), "patch table length");
            loads[i] = match pattern {
                Pattern::Affine(seq) if seq.stride == 1 => Load::Contiguous(seq.base as u32),
                _ => Load::Gather(p as u32),
            };
        }
        LoopInfo {
            patches,
            count: out_slots.len() as u32,
            out_pattern: Pattern::from_slots(out_slots),
            read_patterns,
            loads,
        }
    }
}

/// A compiled task ready for the runtime.
#[derive(Clone, Debug)]
pub struct CompiledTask {
    pub id: usize,
    pub label: String,
    pub program: Program,
    /// One slot per produced value, in order. For loop tasks this is
    /// fully enumerated iteration-major (`count × program outputs`), so
    /// dependence, race, and coverage analyses stay exact without
    /// understanding loops.
    pub writes: Vec<OutSlot>,
    /// Loop payload for array-loop tasks; `None` for plain tasks.
    pub loop_info: Option<LoopInfo>,
    /// `Some(b)` when `writes` is the contiguous run `Deriv(b)`,
    /// `Deriv(b + 1)`, … ([`deriv_run`]; every stride-1 loop chunk is
    /// one): the outputs then land in the derivative vector with one
    /// copy. `None` is always correct, just slower.
    pub deriv_run: Option<usize>,
    /// State indices the task reads.
    pub reads_states: Vec<u32>,
    /// Shared slots the task reads.
    pub reads_shared: Vec<u32>,
    /// Whether the task reads the free variable `t`.
    pub reads_time: bool,
    /// Static cost estimate (flops) used to seed the LPT schedule.
    pub static_cost: u64,
    /// Common subexpressions extracted within this task (statistics).
    pub cse_count: usize,
}

/// The first slot of `writes` when they are the contiguous derivative
/// run `Deriv(b)`, `Deriv(b + 1)`, … in order ([`CompiledTask::deriv_run`]).
pub fn deriv_run(writes: &[OutSlot]) -> Option<usize> {
    let Some(&OutSlot::Deriv(base)) = writes.first() else {
        return None;
    };
    let contiguous = writes
        .iter()
        .enumerate()
        .all(|(k, slot)| *slot == OutSlot::Deriv(base + k));
    contiguous.then_some(base)
}

impl CompiledTask {
    /// Number of values the task produces (loop tasks produce one set of
    /// program outputs per iteration).
    pub fn n_out(&self) -> usize {
        self.writes.len()
    }

    /// Symbolic access summary of an array-loop task, e.g.
    /// `writes deriv[8 + 1·k (k < 2048)]; reads y[7 + 1·k (k < 2048)], …`.
    /// `None` for plain tasks (their access sets are already explicit).
    pub fn access_summary(&self) -> Option<String> {
        let li = self.loop_info.as_ref()?;
        let reads: Vec<String> = li
            .read_patterns
            .iter()
            .map(|p| format!("y[{}]", p.render()))
            .collect();
        Some(format!(
            "writes deriv[{}]{}{}",
            li.out_pattern.render(),
            if reads.is_empty() { "" } else { "; reads " },
            reads.join(", ")
        ))
    }

    /// Execute the task over `scratch.lanes()` ensemble members: reads
    /// the scratch's shared slots and writes `n_out() × lanes` values
    /// (lane index innermost — at one lane the plain scalar layout) to
    /// the front of its output buffer. A plain task runs its program
    /// once; a loop task runs it as a lane kernel over its iterations,
    /// each performing exactly the operation sequence of its scalarized
    /// per-element task, so results are bitwise identical to those tasks.
    pub fn run(&self, t: f64, ys: &[f64], scratch: &mut BatchScratch) {
        let lanes = scratch.lanes;
        let out = &mut scratch.out[..self.n_out() * lanes];
        let li = self.loop_info.as_ref();
        let (shared, regs) = (&scratch.shared, &mut scratch.regs);
        vm::execute_batch_with_regs(&self.program, li, t, ys, shared, out, regs, lanes);
    }
}

/// The compiled task graph: tasks plus dependence edges.
#[derive(Clone, Debug)]
pub struct TaskGraph {
    /// ODE dimension (number of derivative slots).
    pub dim: usize,
    /// Number of shared intermediate slots.
    pub n_shared: usize,
    pub tasks: Vec<CompiledTask>,
    /// `deps[i]` — tasks that must complete before task `i` runs.
    pub deps: Vec<Vec<usize>>,
}

impl TaskGraph {
    /// True when no task depends on another (the paper's evaluated
    /// configuration: "all tasks are currently independent of each
    /// other").
    pub fn is_independent(&self) -> bool {
        self.deps.iter().all(Vec::is_empty)
    }

    /// Total static cost of all tasks.
    pub fn total_cost(&self) -> u64 {
        self.tasks.iter().map(|t| t.static_cost).sum()
    }

    /// Bytecode instructions of all tasks (a loop task's body once).
    pub fn instrs(&self) -> usize {
        self.tasks.iter().map(|t| t.program.len()).sum()
    }

    /// Group task ids by dependency level: a task's level is the longest
    /// dependency path below it, so level 0 tasks have no deps and every
    /// task's deps live in strictly earlier levels.
    ///
    /// These are exactly the barrier-separated waves the parallel runtime
    /// executes, and the granularity at which the lint race detector
    /// checks for conflicts — tasks in the same level may run
    /// concurrently.
    pub fn levels(&self) -> Vec<Vec<usize>> {
        let n = self.tasks.len();
        let mut level = vec![0usize; n];
        let mut changed = true;
        while changed {
            changed = false;
            for i in 0..n {
                for &d in &self.deps[i] {
                    if level[i] < level[d] + 1 {
                        level[i] = level[d] + 1;
                        changed = true;
                    }
                }
            }
        }
        let n_levels = level.iter().copied().max().unwrap_or(0) + 1;
        let mut out = vec![Vec::new(); n_levels];
        for (i, &l) in level.iter().enumerate() {
            out[l].push(i);
        }
        out
    }

    /// Edge-granularity successor lists: `successors()[i]` are the tasks
    /// that directly depend on task `i` (the inverse of [`TaskGraph::deps`],
    /// sorted). This is the view the dependency-driven work-stealing
    /// executor consumes: completing task `i` decrements the predecessor
    /// counter of every successor instead of waiting for a level barrier.
    pub fn successors(&self) -> Vec<Vec<usize>> {
        let mut succ = vec![Vec::new(); self.tasks.len()];
        for (i, deps) in self.deps.iter().enumerate() {
            for &d in deps {
                succ[d].push(i);
            }
        }
        for s in &mut succ {
            s.sort_unstable();
        }
        succ
    }

    /// Number of direct predecessors per task (the initial values of the
    /// work-stealing executor's atomic dependency counters). Tasks with a
    /// count of zero are ready immediately.
    pub fn pred_counts(&self) -> Vec<u32> {
        self.deps.iter().map(|d| d.len() as u32).collect()
    }

    /// Evaluate the whole task graph for one ensemble member (reference
    /// semantics, also the serial baseline of the benchmarks). Builds a
    /// one-lane scratch per call; hot callers hold one across calls and
    /// use [`TaskGraph::eval_batch`].
    pub fn eval_serial(&self, t: f64, y: &[f64], dydt: &mut [f64]) {
        self.eval_batch(t, y, dydt, &mut BatchScratch::new(self, 1));
    }

    /// Evaluate the whole task graph over `scratch.lanes()` ensemble
    /// members at once. `ys` and `dydt` are structure-of-arrays with the
    /// lane index innermost (`ys[state * lanes + lane]`; with one lane
    /// that is the plain state vector). Tasks run in emission order —
    /// dependency order by construction — and each lane performs exactly
    /// the one-lane operation sequence, so every lane's derivatives are
    /// bitwise identical to an evaluation of that lane alone.
    pub fn eval_batch(&self, t: f64, ys: &[f64], dydt: &mut [f64], scratch: &mut BatchScratch) {
        // One lane gets its own instantiation with the count a literal,
        // so the per-slot scatter folds to scalar stores (as in the VM).
        match scratch.lanes {
            1 => self.eval_lanes(t, ys, dydt, scratch, 1),
            lanes => self.eval_lanes(t, ys, dydt, scratch, lanes),
        }
    }

    #[inline(always)]
    fn eval_lanes(
        &self,
        t: f64,
        ys: &[f64],
        dydt: &mut [f64],
        scratch: &mut BatchScratch,
        lanes: usize,
    ) {
        assert_eq!(ys.len(), self.dim * lanes, "state batch length mismatch");
        assert_eq!(
            dydt.len(),
            self.dim * lanes,
            "derivative batch length mismatch"
        );
        for task in &self.tasks {
            task.run(t, ys, scratch);
            // The SoA layouts of `out` and `dydt` line up over a run.
            if let Some(base) = task.deriv_run {
                let n = task.n_out() * lanes;
                dydt[base * lanes..][..n].copy_from_slice(&scratch.out[..n]);
                continue;
            }
            for (o, slot) in task.writes.iter().enumerate() {
                let src = &scratch.out[o * lanes..(o + 1) * lanes];
                match slot {
                    OutSlot::Deriv(i) => dydt[i * lanes..(i + 1) * lanes].copy_from_slice(src),
                    OutSlot::Shared(i) => {
                        scratch.shared[i * lanes..(i + 1) * lanes].copy_from_slice(src)
                    }
                }
            }
        }
    }
}

/// Reusable buffers for running a [`TaskGraph`]'s tasks: the SoA
/// shared-slot array, the per-task SoA output staging buffer, and the
/// block-local register file. Allocated once per integration (and once
/// per pool worker, at one lane), reused across every RHS call.
#[derive(Clone, Debug)]
pub struct BatchScratch {
    shared: Vec<f64>,
    out: Vec<f64>,
    regs: Vec<f64>,
    lanes: usize,
}

impl BatchScratch {
    /// Scratch sized for running any task of `graph` over `lanes`
    /// members (a loop task's registers cover one [`vm::LOOP_BLOCK`]) —
    /// the one sizing the in-thread and pooled placements share.
    pub fn new(graph: &TaskGraph, lanes: usize) -> BatchScratch {
        assert!(lanes > 0, "batch must have at least one lane");
        let max_outs = graph.tasks.iter().map(|t| t.n_out()).max().unwrap_or(0);
        let regs = graph.tasks.iter().map(|t| {
            let trips = t.loop_info.as_ref().map(|li| li.count as usize);
            vm::regs_len(t.program.n_regs, lanes, trips)
        });
        BatchScratch {
            shared: vec![0.0; graph.n_shared * lanes],
            out: vec![0.0; max_outs * lanes],
            regs: vec![0.0; regs.max().unwrap_or(0)],
            lanes,
        }
    }

    /// The lane count this scratch was sized for.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The shared-slot values [`CompiledTask::run`] reads (a pool worker
    /// fills the slots a task reads before running it).
    pub fn shared_mut(&mut self) -> &mut [f64] {
        &mut self.shared
    }

    /// The staging buffer [`CompiledTask::run`] writes: its first
    /// `n_out() × lanes` values are the last task's outputs.
    pub fn out_mut(&mut self) -> &mut [f64] {
        &mut self.out
    }
}

/// Target number of loop tasks an array class is chunked into, so the
/// scheduler has parallelism to distribute across workers.
const LOOP_TASK_CHUNKS: usize = 8;

/// Create one task per derivative equation.
///
/// `inline = true` reproduces the paper's configuration: algebraic
/// variables are substituted into consumers so that "the right hand sides
/// … are independent of each other and can therefore be evaluated in
/// parallel" (§2.3). `inline = false` keeps algebraic assignments as
/// separate producer tasks (dependencies appear).
///
/// Array classes become one chunked set of array-loop tasks per class
/// whose representative survives the fixed-point guards; a class that
/// fails a guard expands element-by-element, bitwise equal to the oracle.
pub fn equation_tasks(ir: &OdeIr, inline: bool) -> Vec<SymbolicTask> {
    let index = ir.state_index();
    // Inlines scalar equations and class representatives alike.
    let inliner = inline.then(|| ir.inliner());
    let deriv_task = |state: Symbol, rhs: &Expr| {
        let body = match &inliner {
            Some(inliner) => simplify(&inliner.expand(rhs)),
            None => rhs.clone(),
        };
        SymbolicTask::single(
            format!("d{}", state.name()),
            OutTarget::Deriv(index[&state]),
            body,
        )
    };

    let mut tasks: Vec<SymbolicTask> = Vec::new();
    if !inline {
        tasks.extend(ir.algebraics.iter().map(|a| {
            SymbolicTask::single(
                a.var.name().to_owned(),
                OutTarget::Shared(a.var),
                a.rhs.clone(),
            )
        }));
    }
    tasks.extend(ir.derivs.iter().map(|d| deriv_task(d.state, &d.rhs)));
    for class in &ir.classes {
        match class_loop_tasks(class, &index, inliner.as_ref()) {
            Some(mut loop_tasks) => tasks.append(&mut loop_tasks),
            // Element-wise expansion, identical to what the oracle
            // pipeline builds for these states.
            None => tasks.extend(
                class
                    .states
                    .iter()
                    .enumerate()
                    .map(|(k, &state)| deriv_task(state, &class.rhs_at(k))),
            ),
        }
    }
    tasks
}

/// Try to turn one class into chunked array-loop tasks. Returns `None`
/// when a guard fails and the class must be expanded element-wise:
///
/// 1. every varying symbol (and everything it renames to) must be a
///    state — per-element *algebraic* references cannot be stepped by
///    state-slot patching;
/// 2. when inlining, no substituted algebraic definition may mention a
///    varying symbol (renaming the inlined representative would capture
///    it);
/// 3. renaming the (re-simplified) representative must still be a
///    simplify fixed point for every iteration: injective rows and
///    iteration-invariant canonical operand order. Flatten established
///    this for the raw representative; inlining can disturb it, so it is
///    re-checked on the inlined body.
fn class_loop_tasks(
    class: &om_lang::EqClass,
    index: &om_expr::SymbolMap<usize>,
    inliner: Option<&Inliner<'_>>,
) -> Option<Vec<SymbolicTask>> {
    // Guard 1: rows are state-to-state renamings.
    for (rep, elems) in &class.rows {
        if !index.contains_key(rep) || elems.iter().any(|e| !index.contains_key(e)) {
            return None;
        }
    }
    let rep = match inliner {
        Some(inliner) => {
            // Guard 2: substituted definitions are iteration-invariant.
            let row_syms: HashSet<Symbol> = class.rows.iter().map(|(r, _)| *r).collect();
            for v in class.rhs.free_vars() {
                if let Some(body) = inliner.definition(v) {
                    if body.free_vars().iter().any(|s| row_syms.contains(s)) {
                        return None;
                    }
                }
            }
            simplify(&inliner.expand(&class.rhs))
        }
        None => class.rhs.clone(),
    };
    // Rows still present in the body (the derivative target, for one,
    // often only appears on the left-hand side; cancelled terms can drop
    // others).
    let free = rep.free_vars();
    let rows: Vec<(Symbol, Vec<Symbol>)> = class
        .rows
        .iter()
        .filter(|(r, _)| free.contains(r))
        .cloned()
        .collect();
    // Guard 3: renaming stays a simplify fixed point.
    let reps: HashSet<Symbol> = rows.iter().map(|(r, _)| *r).collect();
    let invariant: HashSet<Symbol> = free.iter().copied().filter(|s| !reps.contains(s)).collect();
    if !om_expr::rows_injective(&invariant, &rows) || !om_expr::stable_under_rows(&rep, &rows) {
        return None;
    }

    let card = class.cardinality();
    let n_chunks = (card / 4).clamp(1, LOOP_TASK_CHUNKS);
    let mut out = Vec::with_capacity(n_chunks);
    for c in 0..n_chunks {
        let lo = card * c / n_chunks;
        let hi = card * (c + 1) / n_chunks;
        let out_slots: Vec<u32> = class.states[lo..hi]
            .iter()
            .map(|s| index[s] as u32)
            .collect();
        let slot_rows: Vec<(Symbol, Vec<u32>)> = rows
            .iter()
            .map(|(r, elems)| (*r, elems[lo..hi].iter().map(|e| index[e] as u32).collect()))
            .collect();
        out.push(SymbolicTask {
            label: format!("loop:{}[{lo}..{hi}]", class.origin),
            outputs: vec![(OutTarget::Deriv(index[&class.states[lo]]), rep.clone())],
            array_loop: Some(SymLoop {
                out_slots,
                rows: slot_rows,
            }),
        });
    }
    Some(out)
}

/// Split tasks whose single output is a top-level sum more expensive than
/// `threshold` into partial-sum producers plus a combine task.
pub fn split_large(
    tasks: Vec<SymbolicTask>,
    threshold: u64,
    model: &CostModel,
) -> Vec<SymbolicTask> {
    let mut out = Vec::with_capacity(tasks.len());
    let mut split_counter = 0usize;
    for task in tasks {
        if task.array_loop.is_some() || task.outputs.len() != 1 || task.cost(model) <= threshold {
            out.push(task);
            continue;
        }
        // A splittable body is a top-level sum, possibly wrapped in a
        // product with exactly one sum factor (canonical form of e.g.
        // `-(Σ …)/M`): the sum is split and the wrapper factors stay in
        // the combine task.
        let (wrapper, terms): (Vec<Expr>, &Vec<Expr>) = match &task.outputs[0].1 {
            Expr::Add(terms) => (Vec::new(), terms),
            Expr::Mul(factors) => {
                let mut sums = factors.iter().filter_map(|f| match f {
                    Expr::Add(terms) => Some(terms),
                    _ => None,
                });
                match (sums.next(), sums.next()) {
                    (Some(terms), None) => (
                        factors
                            .iter()
                            .filter(|f| !matches!(f, Expr::Add(_)))
                            .cloned()
                            .collect(),
                        terms,
                    ),
                    _ => {
                        out.push(task);
                        continue;
                    }
                }
            }
            _ => {
                out.push(task);
                continue;
            }
        };
        // Expand nested sums with cheap multiplicative wrappers so e.g.
        // `-1·(t₁ + … + tₙ)` contributes n separate terms — the canonical
        // form the flattener produces for summed contact forces.
        let expanded = expand_sum_terms(terms, threshold / 4, model);
        // Greedily pack top-level terms into chunks of ≈ threshold cost.
        let mut chunks: Vec<Vec<Expr>> = vec![Vec::new()];
        let mut chunk_cost = 0u64;
        for term in &expanded {
            let c = model.cost(term);
            if chunk_cost + c > threshold && !chunks.last().expect("nonempty").is_empty() {
                chunks.push(Vec::new());
                chunk_cost = 0;
            }
            chunks.last_mut().expect("nonempty").push(term.clone());
            chunk_cost += c;
        }
        if chunks.len() < 2 {
            out.push(task);
            continue;
        }
        let mut combine_terms = Vec::with_capacity(chunks.len());
        for (k, chunk) in chunks.into_iter().enumerate() {
            let part_sym = Symbol::intern(&format!("om$part${split_counter}${k}"));
            let body = simplify(&Expr::Add(chunk));
            out.push(SymbolicTask::single(
                format!("{}#part{k}", task.label),
                OutTarget::Shared(part_sym),
                body,
            ));
            combine_terms.push(Expr::Var(part_sym));
        }
        let mut combined = Expr::Add(combine_terms);
        if !wrapper.is_empty() {
            let mut factors = wrapper;
            factors.push(combined);
            combined = Expr::Mul(factors);
        }
        out.push(SymbolicTask::single(
            format!("{}#combine", task.label),
            task.outputs[0].0.clone(),
            combined,
        ));
        split_counter += 1;
    }
    out
}

/// Merge independent tasks (deriv-only outputs, no shared reads) cheaper
/// than `threshold` into grouped tasks of ≈ `threshold` cost.
pub fn merge_small(
    tasks: Vec<SymbolicTask>,
    threshold: u64,
    model: &CostModel,
) -> Vec<SymbolicTask> {
    let mut out: Vec<SymbolicTask> = Vec::new();
    let mut bucket: Vec<SymbolicTask> = Vec::new();
    let mut bucket_cost = 0u64;
    // Intermediates the earlier passes introduced (`om$part$…`,
    // `om$cse$…`): a task reading one depends on its producer and stays
    // out of the groups. None exist unless one of those passes ran.
    let generated: HashSet<Symbol> = tasks
        .iter()
        .flat_map(|t| &t.outputs)
        .filter_map(|(target, _)| match target {
            OutTarget::Shared(s) if s.name().starts_with("om$") => Some(*s),
            _ => None,
        })
        .collect();
    let is_mergeable = |t: &SymbolicTask| {
        t.array_loop.is_none()
            && t.outputs
                .iter()
                .all(|(target, _)| matches!(target, OutTarget::Deriv(_)))
            && (generated.is_empty()
                || !t
                    .outputs
                    .iter()
                    .any(|(_, e)| e.free_vars().iter().any(|s| generated.contains(s))))
    };
    let flush = |bucket: &mut Vec<SymbolicTask>, out: &mut Vec<SymbolicTask>| {
        if bucket.is_empty() {
            return;
        }
        if bucket.len() == 1 {
            out.push(bucket.pop().expect("len 1"));
            return;
        }
        let label = format!(
            "group({})",
            bucket
                .iter()
                .map(|t| t.label.as_str())
                .collect::<Vec<_>>()
                .join(",")
        );
        let outputs = bucket.drain(..).flat_map(|t| t.outputs).collect::<Vec<_>>();
        out.push(SymbolicTask {
            label,
            outputs,
            array_loop: None,
        });
    };
    for task in tasks {
        let c = task.cost(model);
        if c >= threshold || !is_mergeable(&task) {
            out.push(task);
            continue;
        }
        if bucket_cost + c > threshold && !bucket.is_empty() {
            flush(&mut bucket, &mut out);
            bucket_cost = 0;
        }
        bucket_cost += c;
        bucket.push(task);
    }
    flush(&mut bucket, &mut out);
    out
}

/// Dependence edges of `tasks` (those of the compiled graph, known
/// before compiling): a task depends on the (last) writer of every
/// shared symbol it reads.
pub(crate) fn symbolic_deps(tasks: &[SymbolicTask]) -> Vec<Vec<usize>> {
    let mut writer: HashMap<Symbol, usize> = HashMap::new();
    for (i, task) in tasks.iter().enumerate() {
        for (target, _) in &task.outputs {
            if let OutTarget::Shared(s) = target {
                writer.insert(*s, i);
            }
        }
    }
    tasks
        .iter()
        .map(|task| {
            if writer.is_empty() {
                return Vec::new();
            }
            let mut d: Vec<usize> = task
                .outputs
                .iter()
                .flat_map(|(_, e)| e.free_vars())
                .filter_map(|s| writer.get(&s).copied())
                .collect();
            d.sort_unstable();
            d.dedup();
            d
        })
        .collect()
}

/// Fuse each worker's share of the RHS into one straight-line task.
///
/// `assignment[i]` is the worker (of `m`) task `i` is scheduled on. The
/// outputs of every *plain* task — no array loop, derivative outputs
/// only, no shared-slot reads — assigned to worker `w` are concatenated,
/// in task order, into one task `cluster{w}`, so compiling it imports
/// them into one hash-consed DAG and CSE is scoped to the cluster. At
/// `m = 1` that is the paper's global-CSE serial code. Loop tasks and
/// tasks that write or read shared slots pass through unchanged, ahead
/// of the clusters and in their original order (so shared slots number
/// as before). Returns the tasks and the worker of each
/// ([`cluster_assignment`]). Sharing a node re-associates nothing, so the
/// result is bitwise the input graph (DESIGN.md "Placement").
pub fn cluster(
    tasks: &[SymbolicTask],
    assignment: &[usize],
    m: usize,
) -> (Vec<SymbolicTask>, Vec<usize>) {
    assert_eq!(tasks.len(), assignment.len(), "one worker per task");
    let mut members: Vec<Vec<(OutTarget, Expr)>> = vec![Vec::new(); m];
    let mut out = Vec::new();
    for ((task, &w), plain) in tasks.iter().zip(assignment).zip(plain_tasks(tasks)) {
        if plain {
            members[w].extend(task.outputs.iter().cloned());
        } else {
            out.push(task.clone());
        }
    }
    for (w, outputs) in members.into_iter().enumerate() {
        if !outputs.is_empty() {
            out.push(SymbolicTask {
                label: format!("cluster{w}"),
                outputs,
                array_loop: None,
            });
        }
    }
    (out, cluster_assignment(tasks, assignment, m).0)
}

/// Which of `tasks` [`cluster`] fuses: no array loop, derivative outputs
/// only, no shared-slot reads.
fn plain_tasks(tasks: &[SymbolicTask]) -> Vec<bool> {
    let deps = symbolic_deps(tasks);
    tasks
        .iter()
        .zip(&deps)
        .map(|(task, deps)| {
            task.array_loop.is_none()
                && deps.is_empty()
                && task
                    .outputs
                    .iter()
                    .all(|(target, _)| matches!(target, OutTarget::Deriv(_)))
        })
        .collect()
}

/// The worker of each task [`cluster`] returns and the number of
/// clusters it forms, without building them. With at most one cluster
/// the clustered tasks are those of every `m` (the cluster's label
/// aside), so a placement that forms one needs no compiling of its own.
pub fn cluster_assignment(
    tasks: &[SymbolicTask],
    assignment: &[usize],
    m: usize,
) -> (Vec<usize>, usize) {
    let mut used = vec![false; m];
    let mut placed = Vec::new();
    for (&w, plain) in assignment.iter().zip(plain_tasks(tasks)) {
        if plain {
            used[w] = true;
        } else {
            placed.push(w);
        }
    }
    placed.extend((0..m).filter(|&w| used[w]));
    (placed, used.iter().filter(|&&u| u).count())
}

/// Extract subexpressions shared between *different* tasks into producer
/// tasks (paper §3.3: "we will have to extract some of the larger common
/// subexpressions and compute them in parallel").
///
/// Candidates are subexpressions costing at least `min_cost` that occur
/// in two or more tasks; the most expensive are extracted first.
pub fn extract_shared_cse(
    tasks: Vec<SymbolicTask>,
    min_cost: u64,
    model: &CostModel,
) -> Vec<SymbolicTask> {
    // Count, for each candidate subexpression, the set of tasks it
    // appears in.
    let mut seen_in: BTreeMap<u64, Vec<(Expr, Vec<usize>)>> = BTreeMap::new();
    {
        let mut occurrences: HashMap<Expr, Vec<usize>> = HashMap::new();
        for (ti, task) in tasks.iter().enumerate() {
            // A loop task's body is re-evaluated per iteration with
            // varying state reads; its subexpressions are not shareable.
            if task.array_loop.is_some() {
                continue;
            }
            for (_, e) in &task.outputs {
                e.walk(&mut |sub| {
                    if model.cost(sub) >= min_cost {
                        let entry = occurrences.entry(sub.clone()).or_default();
                        if entry.last() != Some(&ti) {
                            entry.push(ti);
                        }
                    }
                });
            }
        }
        for (e, ts) in occurrences {
            if ts.len() >= 2 {
                seen_in.entry(model.cost(&e)).or_default().push((e, ts));
            }
        }
    }

    let mut producers: Vec<SymbolicTask> = Vec::new();
    let mut consumers = tasks;
    let mut counter = 0usize;
    // Most expensive candidates first.
    for (_, group) in seen_in.into_iter().rev() {
        for (candidate, _) in group {
            // Re-check occurrence after earlier replacements.
            let holders: Vec<usize> = consumers
                .iter()
                .enumerate()
                .filter(|(_, t)| {
                    t.array_loop.is_none()
                        && t.outputs
                            .iter()
                            .any(|(_, e)| contains_subexpr(e, &candidate))
                })
                .map(|(i, _)| i)
                .collect();
            let in_producers = producers
                .iter()
                .filter(|t| {
                    t.outputs
                        .iter()
                        .any(|(_, e)| contains_subexpr(e, &candidate))
                })
                .count();
            if holders.len() + in_producers < 2 {
                continue;
            }
            let sym = Symbol::intern(&format!("om$cse${counter}"));
            counter += 1;
            let replacement = Expr::Var(sym);
            for &h in &holders {
                for (_, e) in &mut consumers[h].outputs {
                    *e = replace_subexpr(e, &candidate, &replacement);
                }
            }
            for p in &mut producers {
                for (_, e) in &mut p.outputs {
                    *e = replace_subexpr(e, &candidate, &replacement);
                }
            }
            producers.push(SymbolicTask::single(
                format!("cse${}", sym.name()),
                OutTarget::Shared(sym),
                candidate,
            ));
        }
    }
    // Producers must be evaluated before consumers; order producers so
    // later-extracted (smaller, referenced by earlier producers) come
    // first.
    producers.reverse();
    producers.extend(consumers);
    producers
}

/// Flatten sum terms for splitting: a term `Mul[f…, Add[t…]]` whose
/// non-sum factors are cheap (≤ `max_factor_cost`) is distributed into
/// one term per addend. Recursion catches `-1·(a + (-1)·(b + c))` chains.
fn expand_sum_terms(terms: &[Expr], max_factor_cost: u64, model: &CostModel) -> Vec<Expr> {
    let mut out = Vec::with_capacity(terms.len());
    for term in terms {
        match term {
            Expr::Add(inner) => out.extend(expand_sum_terms(inner, max_factor_cost, model)),
            Expr::Mul(factors) => {
                let sums: Vec<usize> = factors
                    .iter()
                    .enumerate()
                    .filter(|(_, f)| matches!(f, Expr::Add(_)))
                    .map(|(i, _)| i)
                    .collect();
                let rest_cost: u64 = factors
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| !sums.contains(i))
                    .map(|(_, f)| model.cost(f))
                    .sum();
                if sums.len() == 1 && rest_cost <= max_factor_cost {
                    let rest: Vec<Expr> = factors
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| *i != sums[0])
                        .map(|(_, f)| f.clone())
                        .collect();
                    let Expr::Add(inner) = &factors[sums[0]] else {
                        unreachable!("filtered on Add")
                    };
                    for t in expand_sum_terms(inner, max_factor_cost, model) {
                        let mut fs = rest.clone();
                        fs.push(t);
                        out.push(Expr::Mul(fs));
                    }
                } else {
                    out.push(term.clone());
                }
            }
            other => out.push(other.clone()),
        }
    }
    out
}

fn contains_subexpr(e: &Expr, sub: &Expr) -> bool {
    let mut found = false;
    e.walk(&mut |n| {
        if n == sub {
            found = true;
        }
    });
    found
}

fn replace_subexpr(e: &Expr, from: &Expr, to: &Expr) -> Expr {
    if e == from {
        return to.clone();
    }
    e.map_children(|c| replace_subexpr(c, from, to))
}

/// Compile symbolic tasks into the executable task graph.
///
/// Panics if a task body references a symbol that is neither a state, the
/// time variable, nor a shared intermediate produced by another task.
pub fn compile_tasks(
    tasks: &[SymbolicTask],
    ir: &OdeIr,
    mode: CseMode,
    model: &CostModel,
) -> TaskGraph {
    // Allocate shared slots in deterministic (first-write) order.
    let mut shared_slot: HashMap<Symbol, usize> = HashMap::new();
    for task in tasks {
        for (target, _) in &task.outputs {
            if let OutTarget::Shared(s) = target {
                let next = shared_slot.len();
                shared_slot.entry(*s).or_insert(next);
            }
        }
    }

    let mut vars: HashMap<Symbol, VarRef> = HashMap::new();
    for (i, s) in ir.states.iter().enumerate() {
        vars.insert(s.sym, VarRef::State(i as u32));
    }
    for (s, slot) in &shared_slot {
        vars.insert(*s, VarRef::Shared(*slot as u32));
    }
    vars.insert(om_lang::flatten::time_symbol(), VarRef::Time);

    let mut compiled: Vec<CompiledTask> = Vec::with_capacity(tasks.len());
    for (id, task) in tasks.iter().enumerate() {
        let (dag, roots) = task.dag();
        let cse_program = cse::eliminate(&dag, &roots, model);
        let program = compile_roots(&dag, &roots, &vars, mode);
        let body_cost = body_cost(&dag, &roots, mode, model);

        let mut reads_states = Vec::new();
        let mut reads_shared = Vec::new();
        let mut reads_time = false;
        for sym in dag.free_vars(&roots) {
            match vars.get(&sym) {
                Some(VarRef::State(i)) => reads_states.push(*i),
                Some(VarRef::Shared(i)) => reads_shared.push(*i),
                Some(VarRef::Time) => reads_time = true,
                None => panic!("task `{}` reads unresolved symbol `{sym}`", task.label),
            }
        }

        let (writes, loop_info, static_cost, cse_count) = match &task.array_loop {
            None => {
                let writes: Vec<OutSlot> = task
                    .outputs
                    .iter()
                    .map(|(target, _)| match target {
                        OutTarget::Deriv(i) => OutSlot::Deriv(*i),
                        OutTarget::Shared(s) => OutSlot::Shared(shared_slot[s]),
                    })
                    .collect();
                (writes, None, body_cost, cse_program.cse_count())
            }
            Some(sl) => {
                let count = sl.count();
                // The patched reads are the row slots, enumerated over
                // every iteration; the representative's own slots are
                // never loaded (every iteration reads through the patch
                // table), so only invariant loads stay from the body's
                // free variables.
                let rep_slots: HashSet<u32> = sl
                    .rows
                    .iter()
                    .map(|(sym, _)| match vars.get(sym) {
                        Some(VarRef::State(i)) => *i,
                        _ => panic!(
                            "loop task `{}` row symbol `{sym}` is not a state",
                            task.label
                        ),
                    })
                    .collect();
                let mut enumerated: BTreeSet<u32> = reads_states
                    .iter()
                    .copied()
                    .filter(|s| !rep_slots.contains(s))
                    .collect();
                let patches: Vec<(u32, Vec<u32>)> = sl
                    .rows
                    .iter()
                    .map(|(sym, slots)| {
                        let rep_slot = match vars.get(sym) {
                            Some(VarRef::State(i)) => *i,
                            _ => unreachable!("checked above"),
                        };
                        let instr = program.find_state_load(rep_slot).unwrap_or_else(|| {
                            panic!(
                                "loop task `{}` has no State load for row `{sym}`",
                                task.label
                            )
                        }) as u32;
                        enumerated.extend(slots.iter().copied());
                        (instr, slots.clone())
                    })
                    .collect();
                reads_states = enumerated.into_iter().collect();
                let writes: Vec<OutSlot> = sl
                    .out_slots
                    .iter()
                    .map(|&s| OutSlot::Deriv(s as usize))
                    .collect();
                (
                    writes,
                    Some(LoopInfo::new(&program, patches, &sl.out_slots)),
                    body_cost * count as u64,
                    cse_program.cse_count() * count,
                )
            }
        };
        reads_states.sort_unstable();
        reads_shared.sort_unstable();

        compiled.push(CompiledTask {
            id,
            label: task.label.clone(),
            program,
            deriv_run: deriv_run(&writes),
            writes,
            loop_info,
            reads_states,
            reads_shared,
            reads_time,
            static_cost,
            cse_count,
        });
    }

    // Dependence edges: a task depends on the writer of every shared slot
    // it reads.
    let deps = symbolic_deps(tasks);

    TaskGraph {
        dim: ir.dim(),
        n_shared: shared_slot.len(),
        tasks: compiled,
        deps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use om_ir::causalize;

    fn ir(src: &str) -> OdeIr {
        causalize(&om_lang::compile(src).unwrap()).unwrap()
    }

    fn model() -> CostModel {
        CostModel::default()
    }

    const COUPLED: &str = "model M;
        Real x(start=1.0); Real v; Real f;
        equation
          der(x) = v;
          der(v) = f;
          f = -sin(x) - 0.2*v;
        end M;";

    #[test]
    fn inline_tasks_are_independent() {
        let sys = ir(COUPLED);
        let tasks = equation_tasks(&sys, true);
        assert_eq!(tasks.len(), 2);
        let tg = compile_tasks(&tasks, &sys, CseMode::PerTask, &model());
        assert!(tg.is_independent());
        assert_eq!(tg.n_shared, 0);
    }

    #[test]
    fn shared_tasks_have_dependencies() {
        let sys = ir(COUPLED);
        let tasks = equation_tasks(&sys, false);
        assert_eq!(tasks.len(), 3);
        let tg = compile_tasks(&tasks, &sys, CseMode::PerTask, &model());
        assert!(!tg.is_independent());
        assert_eq!(tg.n_shared, 1);
        // dv depends on the f task.
        let dv = tg.tasks.iter().find(|t| t.label == "dv").unwrap();
        let f = tg.tasks.iter().find(|t| t.label == "f").unwrap();
        assert_eq!(tg.deps[dv.id], vec![f.id]);
    }

    #[test]
    fn serial_eval_matches_ir_evaluator() {
        let sys = ir(COUPLED);
        let reference = om_ir::IrEvaluator::new(&sys).unwrap();
        for inline in [true, false] {
            let tasks = equation_tasks(&sys, inline);
            let tg = compile_tasks(&tasks, &sys, CseMode::PerTask, &model());
            let y = [0.4, -1.1];
            let mut expect = [0.0; 2];
            let mut got = [0.0; 2];
            reference.rhs(0.7, &y, &mut expect);
            tg.eval_serial(0.7, &y, &mut got);
            for i in 0..2 {
                assert!(
                    (expect[i] - got[i]).abs() < 1e-12,
                    "inline={inline} slot {i}: {} vs {}",
                    expect[i],
                    got[i]
                );
            }
        }
    }

    #[test]
    fn split_large_produces_partials_and_combine() {
        let sys = ir("model M;
            Real x;
            equation der(x) = sin(x) + cos(x) + exp(x) + tanh(x) + sinh(x) + x*x;
            end M;");
        let tasks = equation_tasks(&sys, true);
        let m = model();
        let split = split_large(tasks, 60, &m);
        assert!(split.len() > 2, "expected a split, got {}", split.len());
        assert!(split.iter().any(|t| t.label.contains("#combine")));
        // Semantics preserved.
        let tg = compile_tasks(&split, &sys, CseMode::PerTask, &m);
        let reference = om_ir::IrEvaluator::new(&sys).unwrap();
        let y = [0.35];
        let mut expect = [0.0];
        let mut got = [0.0];
        reference.rhs(0.0, &y, &mut expect);
        tg.eval_serial(0.0, &y, &mut got);
        assert!((expect[0] - got[0]).abs() < 1e-12);
    }

    #[test]
    fn merge_small_groups_cheap_tasks() {
        let sys = ir("model M;
            Real a; Real b; Real c; Real d;
            equation
              der(a) = -a; der(b) = -b; der(c) = -c; der(d) = -d;
            end M;");
        let tasks = equation_tasks(&sys, true);
        let merged = merge_small(tasks, 1000, &model());
        assert_eq!(merged.len(), 1);
        assert!(merged[0].label.starts_with("group("));
        assert_eq!(merged[0].outputs.len(), 4);
        // Execution still correct.
        let tg = compile_tasks(&merged, &sys, CseMode::PerTask, &model());
        let mut got = [0.0; 4];
        tg.eval_serial(0.0, &[1.0, 2.0, 3.0, 4.0], &mut got);
        assert_eq!(got, [-1.0, -2.0, -3.0, -4.0]);
    }

    #[test]
    fn merge_respects_threshold() {
        let sys = ir("model M;
            Real a; Real b;
            equation der(a) = sin(a); der(b) = cos(b);
            end M;");
        let tasks = equation_tasks(&sys, true);
        // Threshold below one sin() keeps tasks separate.
        let merged = merge_small(tasks, 10, &model());
        assert_eq!(merged.len(), 2);
    }

    #[test]
    fn extract_shared_cse_creates_producer() {
        // Both derivatives contain the expensive common factor
        // exp(sin(x) + cos(x)).
        let sys = ir("model M;
            Real x; Real y;
            equation
              der(x) = exp(sin(x) + cos(x)) * 2.0 + y;
              der(y) = exp(sin(x) + cos(x)) * 3.0 - y;
            end M;");
        let tasks = equation_tasks(&sys, true);
        let m = model();
        let extracted = extract_shared_cse(tasks, 50, &m);
        assert!(extracted.iter().any(|t| t.label.starts_with("cse$")));
        let tg = compile_tasks(&extracted, &sys, CseMode::PerTask, &m);
        assert!(!tg.is_independent());
        // Semantics preserved.
        let reference = om_ir::IrEvaluator::new(&sys).unwrap();
        let y = [0.3, 0.8];
        let mut expect = [0.0; 2];
        let mut got = [0.0; 2];
        reference.rhs(0.0, &y, &mut expect);
        tg.eval_serial(0.0, &y, &mut got);
        for i in 0..2 {
            assert!((expect[i] - got[i]).abs() < 1e-12);
        }
        // The producer count: extraction reduced total task cost versus
        // the plain inline tasks.
        let plain = compile_tasks(&equation_tasks(&sys, true), &sys, CseMode::PerTask, &m);
        assert!(tg.total_cost() < plain.total_cost());
    }

    /// Batched graph evaluation (including shared-slot producer tasks)
    /// is bitwise-identical to per-lane serial evaluation, for ragged
    /// and exact lane counts.
    #[test]
    fn eval_batch_matches_eval_serial_bitwise() {
        let sys = ir(COUPLED);
        for inline in [true, false] {
            let tasks = equation_tasks(&sys, inline);
            let tg = compile_tasks(&tasks, &sys, CseMode::PerTask, &model());
            for lanes in [1usize, 3, 8, 13] {
                let mut ys = vec![0.0; 2 * lanes];
                for l in 0..lanes {
                    ys[l] = 0.4 + 0.05 * l as f64;
                    ys[lanes + l] = -1.1 + 0.07 * l as f64;
                }
                let mut batched = vec![0.0; 2 * lanes];
                let mut scratch = BatchScratch::new(&tg, lanes);
                tg.eval_batch(0.7, &ys, &mut batched, &mut scratch);
                for l in 0..lanes {
                    let mut serial = [0.0; 2];
                    tg.eval_serial(0.7, &[ys[l], ys[lanes + l]], &mut serial);
                    for i in 0..2 {
                        assert_eq!(
                            serial[i].to_bits(),
                            batched[i * lanes + l].to_bits(),
                            "inline={inline} lanes={lanes} lane={l} slot={i}"
                        );
                    }
                }
            }
        }
    }

    /// Scratch reuse across calls must not leak state between RHS
    /// evaluations (shared slots are rewritten every call).
    #[test]
    fn batch_scratch_is_reusable_across_calls() {
        let sys = ir(COUPLED);
        let tg = compile_tasks(
            &equation_tasks(&sys, false),
            &sys,
            CseMode::PerTask,
            &model(),
        );
        let lanes = 4;
        let mut scratch = BatchScratch::new(&tg, lanes);
        assert_eq!(scratch.lanes(), lanes);
        let ys: Vec<f64> = (0..2 * lanes).map(|i| 0.1 * i as f64).collect();
        let mut first = vec![0.0; 2 * lanes];
        tg.eval_batch(0.3, &ys, &mut first, &mut scratch);
        // A second call with different inputs, then the original again.
        let mut other = vec![0.0; 2 * lanes];
        tg.eval_batch(0.9, &first, &mut other, &mut scratch);
        let mut second = vec![0.0; 2 * lanes];
        tg.eval_batch(0.3, &ys, &mut second, &mut scratch);
        assert_eq!(first, second, "scratch reuse changed results");
    }

    /// Parameterized advection-diffusion stencil. Every indexed term has
    /// a distinct constant coefficient so n-ary sibling ordering is
    /// decided by constants, never by `u[k]` names (whose lexicographic
    /// order flips at digit boundaries and would force scalarization).
    fn heat_src(n: usize) -> String {
        format!(
            "model H; Real[{n}] u; Real k;
             equation
               k = 0.5*time;
               der(u[1]) = 3.5*u[2] - 8.0*u[1] + k;
               for i in 2:{m} loop
                 der(u[i]) = 4.5*u[i-1] - 8.0*u[i] + 3.5*u[i+1] + k;
               end for;
               der(u[{n}]) = 4.5*u[{m}] - 8.0*u[{n}] + k;
             end H;",
            m = n - 1
        )
    }

    fn heat_y0(n: usize) -> Vec<f64> {
        (0..n).map(|i| (0.3 * i as f64).sin() + 0.1).collect()
    }

    /// `cluster_assignment` counts the clusters `place` would form without
    /// compiling: array-aware heat1d on two workers forms one (its loop
    /// chunks pass through), so its placement is the one-cluster graph
    /// under the counted assignment; bearing2d forms two.
    #[test]
    fn cluster_assignment_matches_the_placement() {
        let heat = om_models::heat1d::source_distributed(&om_models::heat1d::HeatConfig {
            cells: 512,
            velocity: 0.4,
            ..Default::default()
        });
        let heat = causalize(&om_lang::compile_arrays(&heat).unwrap()).unwrap();
        let bearing = om_models::bearing2d::ir(&Default::default());
        let generator = crate::CodeGenerator::default();
        for (ir, clusters) in [(&heat, 1), (&bearing, 2)] {
            let tasks = generator.tasks(ir);
            let one = generator.place(ir, &tasks, 1);
            let two = generator.place(ir, &tasks, 2);
            let (assignment, formed) =
                cluster_assignment(&tasks, &one.costs.schedule(2).assignment, 2);
            assert_eq!((formed, &assignment), (clusters, &two.assignment));
            if formed <= 1 {
                let programs = |g: &TaskGraph| -> Vec<_> {
                    g.tasks
                        .iter()
                        .map(|t| (t.program.instrs.clone(), t.writes.clone()))
                        .collect()
                };
                assert_eq!(programs(&one.graph), programs(&two.graph));
            }
        }
    }

    /// A stride-1 heat loop chunk writes one contiguous derivative run
    /// and scatters with one copy; a bearing2d cluster (slots 2, 3, 4,
    /// 6, …) does not, and keeps the per-slot loop.
    #[test]
    fn contiguous_derivative_runs_are_recognised_at_compile_time() {
        let heat = om_models::heat1d::source_distributed(&om_models::heat1d::HeatConfig {
            cells: 256,
            velocity: 0.4,
            ..Default::default()
        });
        let aware = causalize(&om_lang::compile_arrays(&heat).unwrap()).unwrap();
        let g = crate::CodeGenerator::default().generate(&aware).graph;
        let chunks: Vec<&CompiledTask> = g.tasks.iter().filter(|t| t.loop_info.is_some()).collect();
        assert!(!chunks.is_empty());
        for chunk in chunks {
            let base = chunk.deriv_run.expect("a stride-1 chunk is one run");
            assert_eq!(chunk.writes[0], OutSlot::Deriv(base));
            assert_eq!(
                chunk.writes.last(),
                Some(&OutSlot::Deriv(base + chunk.n_out() - 1))
            );
        }
        let bearing = om_models::bearing2d::ir(&Default::default());
        let generator = crate::CodeGenerator::default();
        let placed = generator
            .place(&bearing, &generator.tasks(&bearing), 2)
            .graph;
        assert_eq!(placed.tasks.len(), 2);
        assert!(placed.tasks.iter().all(|t| t.deriv_run.is_none()));
        assert_eq!(deriv_run(&[OutSlot::Deriv(3), OutSlot::Deriv(4)]), Some(3));
        assert_eq!(deriv_run(&[OutSlot::Deriv(4), OutSlot::Deriv(3)]), None);
        assert_eq!(deriv_run(&[OutSlot::Shared(0), OutSlot::Shared(1)]), None);
        assert_eq!(deriv_run(&[]), None);
    }

    /// The class-carrying task graph (with loop tasks) is bitwise equal
    /// to the fully scalarized oracle graph, serially and batched, in
    /// both inline modes.
    #[test]
    fn class_graph_is_bitwise_equal_to_oracle() {
        let n = 32;
        let src = heat_src(n);
        let aware = causalize(&om_lang::compile_arrays(&src).unwrap()).unwrap();
        let oracle = causalize(&om_lang::compile(&src).unwrap()).unwrap();
        assert!(aware.has_classes());
        let y = heat_y0(n);
        for inline in [true, false] {
            let ta = compile_tasks(
                &equation_tasks(&aware, inline),
                &aware,
                CseMode::PerTask,
                &model(),
            );
            let to = compile_tasks(
                &equation_tasks(&oracle, inline),
                &oracle,
                CseMode::PerTask,
                &model(),
            );
            assert!(
                ta.tasks.iter().any(|t| t.loop_info.is_some()),
                "inline={inline}: expected at least one loop task"
            );
            assert!(ta.tasks.len() < to.tasks.len());
            let mut got = vec![0.0; n];
            let mut expect = vec![0.0; n];
            ta.eval_serial(0.7, &y, &mut got);
            to.eval_serial(0.7, &y, &mut expect);
            for i in 0..n {
                assert_eq!(
                    expect[i].to_bits(),
                    got[i].to_bits(),
                    "inline={inline} slot {i}: {} vs {}",
                    expect[i],
                    got[i]
                );
            }
            // Batched path with a ragged lane count.
            let lanes = 5;
            let mut ys = vec![0.0; n * lanes];
            for l in 0..lanes {
                for i in 0..n {
                    ys[i * lanes + l] = y[i] + 0.01 * l as f64;
                }
            }
            let mut ba = vec![0.0; n * lanes];
            let mut bo = vec![0.0; n * lanes];
            let mut sa = BatchScratch::new(&ta, lanes);
            let mut so = BatchScratch::new(&to, lanes);
            ta.eval_batch(0.7, &ys, &mut ba, &mut sa);
            to.eval_batch(0.7, &ys, &mut bo, &mut so);
            for (i, (a, o)) in ba.iter().zip(&bo).enumerate() {
                assert_eq!(o.to_bits(), a.to_bits(), "inline={inline} batch elem {i}");
            }
        }
    }

    /// Loop tasks carry enumerated reads/writes and trip-count-scaled
    /// static costs, and the class is chunked for parallelism.
    #[test]
    fn loop_tasks_are_chunked_and_costed() {
        let n = 32; // interior class cardinality 30 -> 7 chunks
        let aware = causalize(&om_lang::compile_arrays(&heat_src(n)).unwrap()).unwrap();
        let tg = compile_tasks(
            &equation_tasks(&aware, true),
            &aware,
            CseMode::PerTask,
            &model(),
        );
        let loops: Vec<_> = tg.tasks.iter().filter(|t| t.loop_info.is_some()).collect();
        assert_eq!(loops.len(), 7, "expected (30/4).clamp(1,8) chunks");
        let mut total = 0usize;
        for t in &loops {
            let li = t.loop_info.as_ref().unwrap();
            let per_iter = t.program.outputs.len();
            assert_eq!(t.writes.len(), per_iter * li.count as usize);
            assert!(!li.patches.is_empty());
            for (_, slots) in &li.patches {
                assert_eq!(slots.len(), li.count as usize);
            }
            // Static cost scales with the trip count.
            assert_eq!(t.static_cost % li.count as u64, 0);
            total += li.count as usize;
        }
        assert_eq!(total, 30);
        // Every state slot is written exactly once across the graph.
        let mut seen = vec![0usize; n];
        for t in &tg.tasks {
            for w in &t.writes {
                if let OutSlot::Deriv(i) = w {
                    seen[*i] += 1;
                }
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "coverage: {seen:?}");
    }

    /// The partitioning passes must pass loop tasks through untouched
    /// (they are already cost-balanced by chunking).
    #[test]
    fn partition_passes_skip_loop_tasks() {
        let aware = causalize(&om_lang::compile_arrays(&heat_src(16)).unwrap()).unwrap();
        let tasks = equation_tasks(&aware, true);
        let n_loops = tasks.iter().filter(|t| t.array_loop.is_some()).count();
        assert!(n_loops >= 1);
        let m = model();
        let after = merge_small(
            split_large(extract_shared_cse(tasks, 1, &m), 1, &m),
            1_000_000,
            &m,
        );
        let still: Vec<_> = after.iter().filter(|t| t.array_loop.is_some()).collect();
        assert_eq!(still.len(), n_loops);
        // And the surviving graph still evaluates correctly.
        let oracle = causalize(&om_lang::compile(&heat_src(16)).unwrap()).unwrap();
        let tg = compile_tasks(&after, &aware, CseMode::PerTask, &m);
        let to = compile_tasks(
            &equation_tasks(&oracle, true),
            &oracle,
            CseMode::PerTask,
            &m,
        );
        let y = heat_y0(16);
        let mut got = vec![0.0; 16];
        let mut expect = vec![0.0; 16];
        tg.eval_serial(1.3, &y, &mut got);
        to.eval_serial(1.3, &y, &mut expect);
        for i in 0..16 {
            assert_eq!(expect[i].to_bits(), got[i].to_bits(), "slot {i}");
        }
    }

    #[test]
    fn reads_and_writes_are_tracked() {
        let sys = ir(COUPLED);
        let tg = compile_tasks(
            &equation_tasks(&sys, true),
            &sys,
            CseMode::PerTask,
            &model(),
        );
        let dx = tg.tasks.iter().find(|t| t.label == "dx").unwrap();
        // der(x) = v reads only state 1 (v).
        assert_eq!(dx.reads_states, vec![1]);
        assert_eq!(dx.writes, vec![OutSlot::Deriv(0)]);
        let dv = tg.tasks.iter().find(|t| t.label == "dv").unwrap();
        assert_eq!(dv.reads_states, vec![0, 1]);
    }
}
