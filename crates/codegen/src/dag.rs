//! Hash-consed expression DAG.
//!
//! Importing an expression tree into a [`Dag`] deduplicates structurally
//! identical subtrees: every distinct subexpression gets exactly one
//! [`NodeId`]. Common-subexpression elimination then reduces to counting
//! node uses, and the bytecode compiler can assign one register per node.
//!
//! Expressions should be simplified (canonicalized) before import —
//! canonical ordering of n-ary operands is what makes mathematically
//! equal subterms structurally equal.

use om_expr::expr::{CmpOp, Expr, Func};
use om_expr::{CostModel, Symbol};
use std::collections::HashMap;

/// Index of a node in a [`Dag`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A DAG node. Children are [`NodeId`]s into the same arena.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum DagNode {
    Const(u64), // f64 bits, so the node is Eq + Hash
    Var(Symbol),
    Add(Vec<NodeId>),
    Mul(Vec<NodeId>),
    Pow(NodeId, NodeId),
    Call(Func, Vec<NodeId>),
    Cmp(CmpOp, NodeId, NodeId),
    And(Vec<NodeId>),
    Or(Vec<NodeId>),
    Not(NodeId),
    If(NodeId, NodeId, NodeId),
}

impl DagNode {
    /// Invoke `f` on every child id.
    pub fn for_each_child(&self, mut f: impl FnMut(NodeId)) {
        match self {
            DagNode::Const(_) | DagNode::Var(_) => {}
            DagNode::Add(xs) | DagNode::Mul(xs) | DagNode::And(xs) | DagNode::Or(xs) => {
                for &x in xs {
                    f(x);
                }
            }
            DagNode::Call(_, xs) => {
                for &x in xs {
                    f(x);
                }
            }
            DagNode::Pow(a, b) | DagNode::Cmp(_, a, b) => {
                f(*a);
                f(*b);
            }
            DagNode::Not(a) => f(*a),
            DagNode::If(c, t, e) => {
                f(*c);
                f(*t);
                f(*e);
            }
        }
    }
}

/// A hash-consing arena of [`DagNode`]s.
#[derive(Clone, Debug, Default)]
pub struct Dag {
    nodes: Vec<DagNode>,
    lookup: HashMap<DagNode, NodeId>,
    /// How many parents reference each node (root references are counted
    /// by [`Dag::mark_root`]).
    use_count: Vec<u32>,
}

impl Dag {
    pub fn new() -> Dag {
        Dag::default()
    }

    /// Number of distinct nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node for `id`.
    pub fn node(&self, id: NodeId) -> &DagNode {
        &self.nodes[id.index()]
    }

    /// Times the node is referenced by parents and roots.
    pub fn uses(&self, id: NodeId) -> u32 {
        self.use_count[id.index()]
    }

    fn intern(&mut self, node: DagNode) -> NodeId {
        if let Some(&id) = self.lookup.get(&node) {
            return id;
        }
        let id = NodeId(u32::try_from(self.nodes.len()).expect("DAG too large"));
        // Count one use per child reference.
        node.for_each_child(|c| self.use_count[c.index()] += 1);
        self.nodes.push(node.clone());
        self.lookup.insert(node, id);
        self.use_count.push(0);
        id
    }

    /// Mark `id` as a root (an equation output); contributes one use.
    pub fn mark_root(&mut self, id: NodeId) {
        self.use_count[id.index()] += 1;
    }

    /// Import a (scalarized, derivative-free) expression tree.
    ///
    /// # Panics
    /// On `Der` or `Tuple` nodes — run the IR verifier first.
    pub fn import(&mut self, e: &Expr) -> NodeId {
        match e {
            Expr::Const(c) => self.intern(DagNode::Const(c.to_bits())),
            Expr::Var(s) => self.intern(DagNode::Var(*s)),
            Expr::Der(s) => panic!("derivative marker der({s}) reached the code generator"),
            Expr::Tuple(_) => panic!("tuple reached the code generator"),
            Expr::Add(xs) => {
                let kids: Vec<NodeId> = xs.iter().map(|x| self.import(x)).collect();
                self.intern(DagNode::Add(kids))
            }
            Expr::Mul(xs) => {
                let kids: Vec<NodeId> = xs.iter().map(|x| self.import(x)).collect();
                self.intern(DagNode::Mul(kids))
            }
            Expr::Pow(a, b) => {
                let (a, b) = (self.import(a), self.import(b));
                self.intern(DagNode::Pow(a, b))
            }
            Expr::Call(f, args) => {
                let kids: Vec<NodeId> = args.iter().map(|x| self.import(x)).collect();
                self.intern(DagNode::Call(*f, kids))
            }
            Expr::Cmp(op, a, b) => {
                let (a, b) = (self.import(a), self.import(b));
                self.intern(DagNode::Cmp(*op, a, b))
            }
            Expr::And(xs) => {
                let kids: Vec<NodeId> = xs.iter().map(|x| self.import(x)).collect();
                self.intern(DagNode::And(kids))
            }
            Expr::Or(xs) => {
                let kids: Vec<NodeId> = xs.iter().map(|x| self.import(x)).collect();
                self.intern(DagNode::Or(kids))
            }
            Expr::Not(a) => {
                let a = self.import(a);
                self.intern(DagNode::Not(a))
            }
            Expr::If(c, t, e2) => {
                let (c, t, e2) = (self.import(c), self.import(t), self.import(e2));
                self.intern(DagNode::If(c, t, e2))
            }
        }
    }

    /// Local (per-node) cost under the model — the cost of computing the
    /// node given its children.
    pub fn node_cost(&self, id: NodeId, m: &CostModel) -> u64 {
        match self.node(id) {
            DagNode::Const(_) | DagNode::Var(_) => 0,
            DagNode::Add(xs) | DagNode::Mul(xs) => (xs.len() as u64 - 1) * m.addmul,
            DagNode::Pow(_, b) => match self.node(*b) {
                DagNode::Const(bits) => {
                    let c = f64::from_bits(*bits);
                    if c.fract() == 0.0 && c.abs() <= 64.0 && c != 0.0 {
                        (c.abs() as u64).saturating_sub(1).max(1) * m.addmul
                            + if c < 0.0 { m.div } else { 0 }
                    } else if c == 0.5 || c == -0.5 {
                        m.sqrt + if c < 0.0 { m.div } else { 0 }
                    } else {
                        m.powf
                    }
                }
                _ => m.powf,
            },
            DagNode::Call(f, _) => match f {
                Func::Sqrt => m.sqrt,
                Func::Abs | Func::Sign | Func::Min | Func::Max => m.cmp,
                Func::Hypot => m.sqrt + 3 * m.addmul,
                _ => m.transcendental,
            },
            DagNode::Cmp(_, _, _) | DagNode::And(_) | DagNode::Or(_) | DagNode::Not(_) => m.cmp,
            DagNode::If(_, _, _) => m.cmp,
        }
    }

    /// Total cost of evaluating all nodes reachable from `roots` *with
    /// sharing* (each node once) — the cost of the CSE'd computation.
    pub fn shared_cost(&self, roots: &[NodeId], m: &CostModel) -> u64 {
        let mut seen = vec![false; self.len()];
        let mut stack: Vec<NodeId> = roots.to_vec();
        let mut total = 0;
        while let Some(id) = stack.pop() {
            if seen[id.index()] {
                continue;
            }
            seen[id.index()] = true;
            total += self.node_cost(id, m);
            self.node(id).for_each_child(|c| stack.push(c));
        }
        total
    }

    /// Total cost of evaluating `roots` as *trees* (no sharing) — the
    /// cost the computation would have without CSE.
    pub fn tree_cost(&self, roots: &[NodeId], m: &CostModel) -> u64 {
        // Memoized per-node tree cost.
        fn cost_of(dag: &Dag, id: NodeId, m: &CostModel, memo: &mut [Option<u64>]) -> u64 {
            if let Some(c) = memo[id.index()] {
                return c;
            }
            let mut c = dag.node_cost(id, m);
            dag.node(id).for_each_child(|ch| {
                c = c.saturating_add(cost_of(dag, ch, m, memo));
            });
            memo[id.index()] = Some(c);
            c
        }
        let mut memo = vec![None; self.len()];
        roots.iter().map(|&r| cost_of(self, r, m, &mut memo)).sum()
    }

    /// Nodes reachable from `roots`, in a topological order (children
    /// before parents).
    pub fn topo_from(&self, roots: &[NodeId]) -> Vec<NodeId> {
        let mut state = vec![0u8; self.len()]; // 0 unseen, 1 open, 2 done
        let mut order = Vec::new();
        let mut stack: Vec<(NodeId, bool)> = roots.iter().map(|&r| (r, false)).collect();
        while let Some((id, processed)) = stack.pop() {
            if processed {
                state[id.index()] = 2;
                order.push(id);
                continue;
            }
            if state[id.index()] != 0 {
                continue;
            }
            state[id.index()] = 1;
            stack.push((id, true));
            self.node(id).for_each_child(|c| {
                if state[c.index()] == 0 {
                    stack.push((c, false));
                }
            });
        }
        order
    }

    /// All free variables reachable from `roots`, sorted by name
    /// (hash-consing gives a symbol exactly one node, so none repeats).
    pub fn free_vars(&self, roots: &[NodeId]) -> Vec<Symbol> {
        let mut out: Vec<Symbol> = self
            .topo_from(roots)
            .into_iter()
            .filter_map(|id| match self.node(id) {
                DagNode::Var(s) => Some(*s),
                _ => None,
            })
            .collect();
        out.sort_by_cached_key(|s| s.name());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use om_expr::{num, simplify, var};

    #[test]
    fn identical_subtrees_share_one_node() {
        let mut dag = Dag::new();
        // (x+y) * (x+y)  →  canonical: Pow[Add[x,y], 2] after simplify,
        // so test the unsimplified product instead via two imports.
        let sum = var("x") + var("y");
        let a = dag.import(&sum);
        let b = dag.import(&sum);
        assert_eq!(a, b);
        assert_eq!(dag.len(), 3); // x, y, x+y
    }

    #[test]
    fn use_counts_track_sharing() {
        let mut dag = Dag::new();
        let sum = var("x") + var("y");
        let e1 = simplify(&(sum.clone() * num(2.0)));
        let e2 = simplify(&(sum.clone() * num(3.0)));
        let r1 = dag.import(&e1);
        let r2 = dag.import(&e2);
        dag.mark_root(r1);
        dag.mark_root(r2);
        let sum_id = dag.import(&simplify(&sum));
        assert_eq!(dag.uses(sum_id), 2);
    }

    #[test]
    fn shared_vs_tree_cost() {
        let mut dag = Dag::new();
        let m = CostModel::default();
        // s = sin(x); roots: s + 1 and s + 2 — sin computed once shared,
        // twice as trees.
        let s = om_expr::expr::Expr::call1(Func::Sin, var("x"));
        let r1 = dag.import(&simplify(&(s.clone() + num(1.0))));
        let r2 = dag.import(&simplify(&(s.clone() + num(2.0))));
        let shared = dag.shared_cost(&[r1, r2], &m);
        let tree = dag.tree_cost(&[r1, r2], &m);
        assert_eq!(shared, m.transcendental + 2 * m.addmul);
        assert_eq!(tree, 2 * m.transcendental + 2 * m.addmul);
    }

    #[test]
    fn topo_order_puts_children_first() {
        let mut dag = Dag::new();
        let e = simplify(&((var("x") + var("y")) * var("z")));
        let root = dag.import(&e);
        let order = dag.topo_from(&[root]);
        assert_eq!(order.len(), dag.len());
        let mut position = vec![usize::MAX; dag.len()];
        for (i, id) in order.iter().enumerate() {
            position[id.index()] = i;
        }
        for &id in &order {
            dag.node(id).for_each_child(|c| {
                assert!(position[c.index()] < position[id.index()]);
            });
        }
    }

    #[test]
    fn free_vars_are_sorted_and_deduped() {
        let mut dag = Dag::new();
        let r = dag.import(&simplify(&(var("b") * var("a") + var("b"))));
        let vars: Vec<&str> = dag.free_vars(&[r]).iter().map(|s| s.name()).collect();
        assert_eq!(vars, vec!["a", "b"]);
    }

    #[test]
    #[should_panic(expected = "derivative marker")]
    fn der_marker_panics() {
        let mut dag = Dag::new();
        dag.import(&om_expr::der("x"));
    }

    #[test]
    fn integer_pow_costs_less_than_general_pow() {
        let mut dag = Dag::new();
        let m = CostModel::default();
        let p2 = dag.import(&var("x").powi(3));
        let pf = dag.import(&var("x").pow(num(2.7)));
        assert!(dag.node_cost(p2, &m) < dag.node_cost(pf, &m));
    }
}
