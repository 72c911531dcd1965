//! Name and scope analysis.
//!
//! The original ObjectMath 3.0 left name analysis to Mathematica's context
//! mechanism, which broke down once composition was added; ObjectMath 4.0
//! introduced a proper symbol table shared between compiler and code
//! generator (paper §3.1). This pass is the reproduction of that table:
//! it checks the class graph and every reference *before* flattening, so
//! later phases can rely on well-formed input.
//!
//! Checks performed:
//!
//! * class names are unique; `extends` targets exist; inheritance is
//!   acyclic,
//! * `part` member classes exist; part nesting is acyclic,
//! * member names are unique within a class, including inherited members,
//! * `extends`/`part` bindings target parameters or variable start values
//!   of the target class,
//! * function calls name known built-ins with correct arity,
//! * every reference's first segment resolves to a member, a loop index,
//!   or `time`; segments after a part resolve within the part's class;
//!   index brackets match arrayness (instance arrays and vectors).

use crate::ast::*;
use crate::error::LangError;
use om_expr::expr::Func;
use std::collections::{HashMap, HashSet};

/// The resolved class table built by [`check`], reused by flattening.
pub struct ClassTable<'a> {
    classes: HashMap<&'a str, &'a ClassDef>,
    /// Per class (and the model): effective members by name, the first
    /// declaration winning — what a scan of [`ClassTable::effective_members`]
    /// finds, without the scan per reference.
    members: HashMap<&'a str, HashMap<&'a str, &'a Member>>,
}

impl<'a> ClassTable<'a> {
    /// Build the table from a unit, checking class-level well-formedness.
    pub fn build(unit: &'a Unit) -> Result<ClassTable<'a>, LangError> {
        let mut classes: HashMap<&str, &ClassDef> = HashMap::new();
        for c in &unit.classes {
            if classes.insert(c.name.as_str(), c).is_some() {
                return Err(LangError::scope(
                    Some(c.pos),
                    format!("duplicate class name `{}`", c.name),
                ));
            }
            if c.name == unit.model.name {
                return Err(LangError::scope(
                    Some(c.pos),
                    format!("class `{}` has the same name as the model", c.name),
                ));
            }
        }
        let mut table = ClassTable {
            classes,
            members: HashMap::new(),
        };
        for c in &unit.classes {
            table.check_inheritance_chain(c)?;
        }
        for c in unit.classes.iter().chain(std::iter::once(&unit.model)) {
            let mut by_name: HashMap<&str, &Member> = HashMap::new();
            for (m, _) in table.effective_members(c) {
                by_name.entry(m.name()).or_insert(m);
            }
            table.members.insert(c.name.as_str(), by_name);
        }
        table.check_part_acyclicity(unit)?;
        Ok(table)
    }

    /// Look up a class by name.
    pub fn get(&self, name: &str) -> Option<&'a ClassDef> {
        self.classes.get(name).copied()
    }

    /// The effective member of `class` called `name`, inherited ones
    /// included.
    pub fn member(&self, class: &ClassDef, name: &str) -> Option<&'a Member> {
        self.members.get(class.name.as_str())?.get(name).copied()
    }

    fn check_inheritance_chain(&self, class: &ClassDef) -> Result<(), LangError> {
        let mut seen: HashSet<&str> = HashSet::new();
        let mut current = class;
        seen.insert(&class.name);
        while let Some(ext) = &current.extends {
            let base = self.get(&ext.base).ok_or_else(|| {
                LangError::scope(Some(ext.pos), format!("unknown base class `{}`", ext.base))
            })?;
            if !seen.insert(&base.name) {
                return Err(LangError::scope(
                    Some(ext.pos),
                    format!("inheritance cycle through `{}`", base.name),
                ));
            }
            current = base;
        }
        Ok(())
    }

    fn check_part_acyclicity(&self, unit: &Unit) -> Result<(), LangError> {
        // DFS over the "contains a part of class" relation, following
        // inheritance so parts of base classes are included.
        fn visit<'a>(
            table: &ClassTable<'a>,
            class: &'a ClassDef,
            stack: &mut Vec<&'a str>,
            done: &mut HashSet<&'a str>,
        ) -> Result<(), LangError> {
            if done.contains(class.name.as_str()) {
                return Ok(());
            }
            if stack.contains(&class.name.as_str()) {
                return Err(LangError::scope(
                    Some(class.pos),
                    format!("composition cycle through class `{}`", class.name),
                ));
            }
            stack.push(&class.name);
            for (member, _) in table.effective_members(class) {
                if let Member::Part { class: pc, pos, .. } = member {
                    let part_class = table.get(pc).ok_or_else(|| {
                        LangError::scope(Some(*pos), format!("unknown part class `{pc}`"))
                    })?;
                    visit(table, part_class, stack, done)?;
                }
            }
            stack.pop();
            done.insert(&class.name);
            Ok(())
        }
        let mut done = HashSet::new();
        for c in &unit.classes {
            visit(self, c, &mut Vec::new(), &mut done)?;
        }
        visit(self, &unit.model, &mut Vec::new(), &mut done)
    }

    /// `class` and its bases, root base first. Unknown bases are reported
    /// by `check_inheritance_chain`; here the chain just stops.
    fn base_first(&self, class: &'a ClassDef) -> Vec<&'a ClassDef> {
        let mut chain = vec![class];
        let mut current = class;
        while let Some(base) = current.extends.as_ref().and_then(|e| self.get(&e.base)) {
            chain.push(base);
            current = base;
        }
        chain.reverse();
        chain
    }

    /// All members of `class` including inherited ones, base-class members
    /// first. The second tuple element is the defining class name (for
    /// diagnostics).
    pub fn effective_members(&self, class: &'a ClassDef) -> Vec<(&'a Member, &'a str)> {
        self.base_first(class)
            .into_iter()
            .flat_map(|c| c.members.iter().map(|m| (m, c.name.as_str())))
            .collect()
    }

    /// All equations of `class` including inherited ones, base-class
    /// equations first.
    pub fn effective_equations(&self, class: &'a ClassDef) -> Vec<&'a Equation> {
        self.base_first(class)
            .into_iter()
            .flat_map(|c| &c.equations)
            .collect()
    }

    /// All `initial equation`s of `class` including inherited ones,
    /// base-class equations first.
    pub fn effective_initial_equations(&self, class: &'a ClassDef) -> Vec<&'a Equation> {
        self.base_first(class)
            .into_iter()
            .flat_map(|c| &c.initial_equations)
            .collect()
    }

    /// The chain of parameter-override bindings from `class` up through its
    /// bases (`extends B(p = …)`), nearest class first.
    pub fn extends_bindings(&self, class: &'a ClassDef) -> Vec<&'a Binding> {
        let mut out = Vec::new();
        let mut current = class;
        while let Some(ext) = &current.extends {
            out.extend(ext.bindings.iter());
            match self.get(&ext.base) {
                Some(base) => current = base,
                None => break,
            }
        }
        out
    }
}

/// Run all scope checks on the unit.
pub fn check(unit: &Unit) -> Result<(), LangError> {
    let table = ClassTable::build(unit)?;
    for class in unit.classes.iter().chain(std::iter::once(&unit.model)) {
        check_class(&table, class)?;
    }
    Ok(())
}

fn check_class(table: &ClassTable<'_>, class: &ClassDef) -> Result<(), LangError> {
    let members = table.effective_members(class);

    // Unique member names across the inheritance chain.
    let mut seen: HashMap<&str, &str> = HashMap::new();
    for (m, owner) in &members {
        if let Some(prev_owner) = seen.insert(m.name(), owner) {
            return Err(LangError::scope(
                Some(m.pos()),
                format!(
                    "member `{}` in `{}` conflicts with member of the same name in `{}`",
                    m.name(),
                    owner,
                    prev_owner
                ),
            ));
        }
    }

    // Bindings in extends clauses and part declarations must target
    // parameters or variables (start-value overrides) of the target class.
    // Each class checks only its *direct* extends clause; bases are
    // covered when `check` visits them.
    if let Some(ext) = &class.extends {
        for b in &ext.bindings {
            check_binding_target(table, b, &ext.base)?;
        }
    }
    for (m, _) in &members {
        if let Member::Part {
            class: pc,
            bindings,
            ..
        } = m
        {
            for b in bindings {
                check_binding_target(table, b, pc)?;
            }
        }
    }

    // Expression-level checks in equations, defaults, and start values.
    let mut env = RefEnv {
        table,
        class,
        loop_indices: Vec::new(),
    };
    for (m, _) in &members {
        match m {
            Member::Parameter {
                default: Some(e), ..
            } => env.check_expr(e)?,
            Member::Variable { start: Some(e), .. } => env.check_expr(e)?,
            _ => {}
        }
    }
    let equations = table.effective_equations(class);
    for eq in equations {
        env.check_equation(eq)?;
    }
    for eq in table.effective_initial_equations(class) {
        env.check_equation(eq)?;
    }
    Ok(())
}

fn check_binding_target(
    table: &ClassTable<'_>,
    b: &Binding,
    target_class: &str,
) -> Result<(), LangError> {
    let Some(target) = table.get(target_class) else {
        // Reported elsewhere (unknown class).
        return Ok(());
    };
    let ok = table.effective_members(target).iter().any(|(m, _)| {
        m.name() == b.name && matches!(m, Member::Parameter { .. } | Member::Variable { .. })
    });
    if !ok {
        return Err(LangError::scope(
            Some(b.pos),
            format!(
                "binding target `{}` is not a parameter or variable of class `{}`",
                b.name, target_class
            ),
        ));
    }
    Ok(())
}

struct RefEnv<'a, 'u> {
    table: &'a ClassTable<'u>,
    class: &'u ClassDef,
    loop_indices: Vec<String>,
}

impl RefEnv<'_, '_> {
    fn check_equation(&mut self, eq: &Equation) -> Result<(), LangError> {
        match eq {
            Equation::Simple { lhs, rhs, .. } => {
                self.check_expr(lhs)?;
                self.check_expr(rhs)
            }
            Equation::For {
                index,
                from,
                to,
                body,
                pos,
            } => {
                if from > to {
                    return Err(LangError::scope(
                        Some(*pos),
                        format!("empty loop range {from}:{to}"),
                    ));
                }
                if self.loop_indices.iter().any(|i| i == index) {
                    return Err(LangError::scope(
                        Some(*pos),
                        format!("loop index `{index}` shadows an enclosing loop index"),
                    ));
                }
                self.loop_indices.push(index.clone());
                for e in body {
                    self.check_equation(e)?;
                }
                self.loop_indices.pop();
                Ok(())
            }
        }
    }

    fn check_expr(&mut self, e: &SExpr) -> Result<(), LangError> {
        match e {
            SExpr::Num(_) | SExpr::Time => Ok(()),
            SExpr::Ref(path) => self.check_ref(path),
            SExpr::Der(path) => self.check_ref(path),
            SExpr::Call(name, args, pos) => {
                let f = Func::from_name(name).ok_or_else(|| {
                    LangError::scope(Some(*pos), format!("unknown function `{name}`"))
                })?;
                if args.len() != f.arity() {
                    return Err(LangError::scope(
                        Some(*pos),
                        format!(
                            "function `{name}` takes {} argument(s), got {}",
                            f.arity(),
                            args.len()
                        ),
                    ));
                }
                for a in args {
                    self.check_expr(a)?;
                }
                Ok(())
            }
            SExpr::Bin(_, a, b) | SExpr::Rel(_, a, b) | SExpr::And(a, b) | SExpr::Or(a, b) => {
                self.check_expr(a)?;
                self.check_expr(b)
            }
            SExpr::Neg(a) | SExpr::Not(a) => self.check_expr(a),
            SExpr::If(c, t, e2) => {
                self.check_expr(c)?;
                self.check_expr(t)?;
                self.check_expr(e2)
            }
            SExpr::Tuple(xs) => {
                for x in xs {
                    self.check_expr(x)?;
                }
                Ok(())
            }
        }
    }

    /// Resolve a dotted path against the member structure.
    fn check_ref(&mut self, path: &RefPath) -> Result<(), LangError> {
        let first = &path.segs[0];
        // Loop indices are scalar, unindexed, and terminate the path.
        if self.loop_indices.contains(&first.name) {
            if path.segs.len() > 1 || !first.indices.is_empty() {
                return Err(LangError::scope(
                    Some(path.pos),
                    format!("loop index `{}` cannot be indexed or dotted", first.name),
                ));
            }
            return Ok(());
        }
        // Walk the path through the class structure.
        let mut current_class = self.class;
        for (i, seg) in path.segs.iter().enumerate() {
            let Some(member) = self.table.member(current_class, &seg.name) else {
                return Err(LangError::scope(
                    Some(path.pos),
                    format!(
                        "`{}` is not a member of class `{}` (in reference `{}`)",
                        seg.name,
                        current_class.name,
                        path.display()
                    ),
                ));
            };
            let is_last = i + 1 == path.segs.len();
            match member {
                Member::Parameter { ty, .. } | Member::Variable { ty, .. } => {
                    if !is_last {
                        return Err(LangError::scope(
                            Some(path.pos),
                            format!(
                                "cannot select into scalar/vector `{}` in `{}`",
                                seg.name,
                                path.display()
                            ),
                        ));
                    }
                    if ty.is_scalar() && !seg.indices.is_empty() {
                        return Err(LangError::scope(
                            Some(path.pos),
                            format!("`{}` is scalar and cannot be indexed", seg.name),
                        ));
                    }
                    // Vector variables may be referenced whole (unindexed)
                    // or per component; index expressions are checked by
                    // the generic expression walk below.
                }
                Member::Part { class, count, .. } => {
                    if is_last {
                        return Err(LangError::scope(
                            Some(path.pos),
                            format!(
                                "reference `{}` names a part, not a variable",
                                path.display()
                            ),
                        ));
                    }
                    match (count, seg.indices.len()) {
                        (Some(_), 1) | (None, 0) => {}
                        (Some(_), 0) => {
                            return Err(LangError::scope(
                                Some(path.pos),
                                format!("instance array `{}` requires an index", seg.name),
                            ))
                        }
                        _ => {
                            return Err(LangError::scope(
                                Some(path.pos),
                                format!("scalar part `{}` cannot be indexed", seg.name),
                            ))
                        }
                    }
                    // Unknown part classes are reported by ClassTable::build.
                    if let Some(c) = self.table.get(class) {
                        current_class = c;
                    } else {
                        return Ok(());
                    }
                }
            }
            for idx in &seg.indices {
                self.check_expr(idx)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_unit;

    fn check_src(src: &str) -> Result<(), LangError> {
        check(&parse_unit(src).unwrap())
    }

    #[test]
    fn accepts_wellformed_unit() {
        check_src(
            "
            class Body;
              parameter Real m = 1.0;
              Real x; Real v;
              equation der(x) = v; der(v) = -x/m;
            end Body;
            model M;
              part Body b[3] (m = 2.0);
              Real s;
              equation
                for i in 1:3 loop
                  s = b[i].x;
                end for;
            end M;
            ",
        )
        .unwrap();
    }

    #[test]
    fn rejects_unknown_base_class() {
        let err = check_src("class A extends Nope; end A; model M; end M;").unwrap_err();
        assert!(err.message.contains("unknown base class"));
    }

    #[test]
    fn rejects_inheritance_cycle() {
        let err = check_src("class A extends B; end A; class B extends A; end B; model M; end M;")
            .unwrap_err();
        assert!(err.message.contains("cycle"));
    }

    #[test]
    fn rejects_composition_cycle() {
        let err = check_src("class A; part B b; end A; class B; part A a; end B; model M; end M;")
            .unwrap_err();
        assert!(err.message.contains("composition cycle"));
    }

    #[test]
    fn rejects_duplicate_member_across_inheritance() {
        let err = check_src(
            "
            class A; Real x; end A;
            class B extends A; Real x; end B;
            model M; part B b; end M;
            ",
        )
        .unwrap_err();
        assert!(err.message.contains("conflicts"));
    }

    #[test]
    fn rejects_unknown_member_reference() {
        let err = check_src("model M; Real x; equation der(x) = y; end M;").unwrap_err();
        assert!(err.message.contains("not a member"));
    }

    #[test]
    fn rejects_unknown_function_and_bad_arity() {
        let err = check_src("model M; Real x; equation der(x) = frob(x); end M;").unwrap_err();
        assert!(err.message.contains("unknown function"));
        let err = check_src("model M; Real x; equation der(x) = sin(x, x); end M;").unwrap_err();
        assert!(err.message.contains("argument"));
    }

    #[test]
    fn rejects_indexing_scalar_variable() {
        let err = check_src("model M; Real x; equation der(x) = x[1]; end M;").unwrap_err();
        assert!(err.message.contains("cannot be indexed"));
    }

    #[test]
    fn rejects_missing_index_on_instance_array() {
        let err = check_src(
            "
            class A; Real x; end A;
            model M; part A a[2]; Real s; equation s = a.x; end M;
            ",
        )
        .unwrap_err();
        assert!(err.message.contains("requires an index"));
    }

    #[test]
    fn rejects_binding_to_nonexistent_parameter() {
        let err = check_src(
            "
            class A; Real x; end A;
            model M; part A a (nope = 1.0); end M;
            ",
        )
        .unwrap_err();
        assert!(err.message.contains("binding target"));
    }

    #[test]
    fn rejects_part_reference_as_value() {
        let err = check_src(
            "
            class A; Real x; end A;
            model M; part A a; Real s; equation s = a; end M;
            ",
        )
        .unwrap_err();
        assert!(err.message.contains("names a part"));
    }

    #[test]
    fn loop_index_is_visible_inside_loop_only() {
        let err = check_src(
            "
            model M; Real s;
            equation
              for i in 1:2 loop s = i; end for;
              s = i;
            end M;
            ",
        )
        .unwrap_err();
        assert!(err.message.contains("not a member"));
    }

    #[test]
    fn rejects_empty_loop_range() {
        let err = check_src("model M; Real s; equation for i in 3:1 loop s = i; end for; end M;")
            .unwrap_err();
        assert!(err.message.contains("empty loop range"));
    }
}
