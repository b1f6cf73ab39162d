//! Range resolution and statement checking.
//!
//! EXCESS variables range over named sets, nested-set paths, or other
//! variables' set-valued attributes. Two subtleties from the paper:
//!
//! * **Implicit range variables**: using a set's name in a path
//!   (`Employees.dept.floor = 2`) implicitly ranges over its members, and
//!   `range of C is Employees.kids` shares that implicit employee — "for
//!   each employee object in the Employees set, C will iterate over all
//!   the children of the employee".
//! * **Universal quantification**: `range of E is all Employees` makes the
//!   qualification implicitly universally quantified over `E`.

use std::collections::{HashMap, HashSet};

use excess_lang::{Aggregate, Expr, FromBinding, Stmt};
use extra_model::{QualType, Type};

use crate::catalog::NamedObject;
use crate::error::{SemaError, SemaResult};
use crate::infer::SemaCtx;

/// Where a range variable's iteration starts.
#[derive(Debug, Clone)]
pub enum RootSource {
    /// Iterating the members of a named collection.
    Collection(NamedObject),
    /// Starting from a named single object (no iteration at the root).
    Object(NamedObject),
    /// Starting from another range variable's current binding.
    Var(String),
    /// Iterating a `sys.<name>` virtual collection, materialized from
    /// live engine state by the catalog's system-view providers.
    System(String),
}

/// A resolved range binding.
#[derive(Debug, Clone)]
pub struct ResolvedRange {
    /// Variable name (a collection's own name for implicit bindings).
    pub var: String,
    /// Universally quantified (`all`).
    pub universal: bool,
    /// Iteration root.
    pub root: RootSource,
    /// Attribute steps from the root to the iterated set.
    pub steps: Vec<String>,
    /// Element type each iteration binds.
    pub elem: QualType,
}

impl ResolvedRange {
    /// The variable this binding depends on, if any.
    pub fn depends_on(&self) -> Option<&str> {
        match &self.root {
            RootSource::Var(v) => Some(v),
            _ => None,
        }
    }
}

/// Session-level range declarations (`range of V is ...`), in order.
#[derive(Debug, Clone, Default)]
pub struct RangeEnv {
    /// `(var, universal, path)` declarations; later declarations shadow
    /// earlier ones for the same variable.
    pub ranges: Vec<(String, bool, Expr)>,
}

impl RangeEnv {
    /// Record a `range of` statement.
    pub fn declare(&mut self, var: &str, universal: bool, path: Expr) {
        self.ranges.retain(|(v, _, _)| v != var);
        self.ranges.push((var.into(), universal, path));
    }

    /// Look up a declaration.
    pub fn get(&self, var: &str) -> Option<&(String, bool, Expr)> {
        self.ranges.iter().find(|(v, _, _)| v == var)
    }
}

/// A fully checked retrieve: dependency-ordered bindings plus the output
/// schema.
#[derive(Debug, Clone)]
pub struct CheckedRetrieve {
    /// Bindings in evaluation (dependency) order.
    pub bindings: Vec<ResolvedRange>,
    /// Output column names and types.
    pub output: Vec<(String, QualType)>,
}

/// Flatten a range path to `(root name, attribute steps)`.
fn flatten_path(e: &Expr) -> SemaResult<(String, Vec<String>)> {
    match e {
        Expr::Var(n) => Ok((n.clone(), Vec::new())),
        Expr::Path(base, attr) => {
            let (root, mut steps) = flatten_path(base)?;
            steps.push(attr.clone());
            Ok((root, steps))
        }
        other => Err(SemaError::Other(format!(
            "a range path may contain only attribute steps, found {other}"
        ))),
    }
}

/// Walk an expression, calling `on_var` for every bare variable reference
/// and `on_agg` for aggregates.
fn walk_expr(e: &Expr, f: &mut impl FnMut(&Expr)) {
    f(e);
    match e {
        Expr::Path(b, _) => walk_expr(b, f),
        Expr::Index(b, i) => {
            walk_expr(b, f);
            walk_expr(i, f);
        }
        Expr::Call { recv, args, .. } => {
            if let Some(r) = recv {
                walk_expr(r, f);
            }
            for a in args {
                walk_expr(a, f);
            }
        }
        Expr::Unary(_, a) => walk_expr(a, f),
        Expr::Binary(_, a, b) => {
            walk_expr(a, f);
            walk_expr(b, f);
        }
        Expr::UserOp(_, args) | Expr::SetLit(args) => {
            for a in args {
                walk_expr(a, f);
            }
        }
        Expr::Agg(Aggregate { arg, by, qual, .. }) => {
            if let Some(a) = arg {
                walk_expr(a, f);
            }
            for b in by {
                walk_expr(b, f);
            }
            if let Some(q) = qual {
                walk_expr(q, f);
            }
        }
        Expr::TupleLit(fields) => {
            for (_, v) in fields {
                walk_expr(v, f);
            }
        }
        Expr::Var(_) | Expr::Lit(_) => {}
    }
}

/// Free variable-position names of an expression. Aggregate `over`
/// variables are *consumed* by the aggregate — they iterate inside it and
/// are not free in the enclosing query (so `sum(E.salary over E ...)` as a
/// target does not join `E` into the outer query).
pub fn free_names(e: &Expr) -> HashSet<String> {
    let mut out = HashSet::new();
    collect_free(e, &mut out);
    out
}

fn collect_free(e: &Expr, out: &mut HashSet<String>) {
    match e {
        Expr::Var(n) => {
            out.insert(n.clone());
        }
        Expr::Agg(Aggregate {
            arg,
            over,
            by,
            qual,
            ..
        }) => {
            let mut inner = HashSet::new();
            if let Some(a) = arg {
                collect_free(a, &mut inner);
            }
            for b in by {
                collect_free(b, &mut inner);
            }
            if let Some(q) = qual {
                collect_free(q, &mut inner);
            }
            for v in over {
                inner.remove(v);
            }
            out.extend(inner);
        }
        other => walk_children(other, &mut |c| collect_free(c, out)),
    }
}

fn walk_children(e: &Expr, f: &mut impl FnMut(&Expr)) {
    match e {
        Expr::Path(b, _) => f(b),
        Expr::Index(b, i) => {
            f(b);
            f(i);
        }
        Expr::Call { recv, args, .. } => {
            if let Some(r) = recv {
                f(r);
            }
            for a in args {
                f(a);
            }
        }
        Expr::Unary(_, a) => f(a),
        Expr::Binary(_, a, b) => {
            f(a);
            f(b);
        }
        Expr::UserOp(_, args) | Expr::SetLit(args) => {
            for a in args {
                f(a);
            }
        }
        Expr::TupleLit(fields) => {
            for (_, v) in fields {
                f(v);
            }
        }
        Expr::Var(_) | Expr::Lit(_) | Expr::Agg(_) => {}
    }
}

/// Collect every name referenced freely in variable position (candidates
/// for session ranges and implicit collection bindings).
fn referenced_names(exprs: &[&Expr]) -> HashSet<String> {
    let mut names = HashSet::new();
    for e in exprs {
        names.extend(free_names(e));
    }
    names
}

/// The resolver: builds bindings for a statement's expressions.
pub struct Resolver<'a> {
    ctx: &'a SemaCtx<'a>,
    env: &'a RangeEnv,
}

impl<'a> Resolver<'a> {
    /// New resolver over a context and session ranges.
    pub fn new(ctx: &'a SemaCtx<'a>, env: &'a RangeEnv) -> Self {
        Resolver { ctx, env }
    }

    /// Resolve one range declaration into a binding. `known` maps already
    /// visible variables to their element types (for `range of C is
    /// E.kids` style dependencies).
    /// Resolve one range declaration. Multi-level set paths
    /// (`Roots.mids.leaves`) produce synthetic intermediate bindings
    /// (named `var#0`, `var#1`, ...) preceding the final one — the paper's
    /// "path syntax for handling deeply nested queries".
    fn resolve_range(
        &self,
        var: &str,
        universal: bool,
        path: &Expr,
        known: &HashMap<String, QualType>,
    ) -> SemaResult<Vec<ResolvedRange>> {
        let (root_name, steps) = flatten_path(path)?;
        // `sys.<view>` ranges over a virtual system collection — but only
        // when nothing shadows `sys` (a variable or catalog object named
        // `sys` keeps its ordinary meaning) and the catalog actually
        // provides system views (so minimal test catalogs are unaffected).
        if root_name == "sys"
            && !known.contains_key("sys")
            && !self.ctx.vars.contains_key("sys")
            && self.ctx.catalog.named("sys").is_none()
        {
            if let Some(first) = steps.first() {
                if let Some(def) = self.ctx.catalog.system_view(first) {
                    if steps.len() > 1 {
                        return Err(SemaError::Other(format!(
                            "cannot range over 'sys.{first}.{}': system views \
                             have no nested set attributes",
                            steps[1..].join(".")
                        )));
                    }
                    return Ok(vec![ResolvedRange {
                        var: var.into(),
                        universal,
                        root: RootSource::System(first.clone()),
                        steps: Vec::new(),
                        elem: def.elem,
                    }]);
                }
                let mut views: Vec<String> = self
                    .ctx
                    .catalog
                    .system_views()
                    .into_iter()
                    .map(|v| v.name)
                    .collect();
                if !views.is_empty() {
                    views.sort();
                    return Err(SemaError::Other(format!(
                        "no system view 'sys.{first}'; available: {}",
                        views.join(", ")
                    )));
                }
            }
        }
        // A stepless range over a collection name iterates that collection
        // directly — even when an implicit member binding of the same name
        // exists (`range of E is Employees` alongside `Employees.kids`).
        // With steps, a known variable (including the shared implicit
        // member) takes precedence, giving the paper's shared-parent
        // semantics for `range of C is Employees.kids`.
        let collection = self
            .ctx
            .catalog
            .named(&root_name)
            .filter(|o| o.is_collection);
        if steps.is_empty() {
            if let Some(obj) = collection {
                let elem = match &obj.qty.ty {
                    Type::Set(e) => (**e).clone(),
                    other => {
                        return Err(SemaError::Other(format!(
                            "collection '{root_name}' has non-set type {}",
                            self.ctx.types.display_type(other)
                        )))
                    }
                };
                return Ok(vec![ResolvedRange {
                    var: var.into(),
                    universal,
                    root: RootSource::Collection(obj),
                    steps,
                    elem,
                }]);
            }
        }
        // Root: another declared variable, or an outer-scope variable
        // (function/procedure parameter)?
        let (root, mut cur, iterate_root): (RootSource, QualType, bool) =
            if let Some(q) = known.get(&root_name) {
                (RootSource::Var(root_name.clone()), q.clone(), false)
            } else if let Some(q) = self.ctx.vars.get(&root_name) {
                (RootSource::Var(root_name.clone()), q.clone(), false)
            } else if let Some(obj) = self.ctx.catalog.named(&root_name) {
                if obj.is_collection {
                    let elem = match &obj.qty.ty {
                        Type::Set(e) => (**e).clone(),
                        other => {
                            return Err(SemaError::Other(format!(
                                "collection '{root_name}' has non-set type {}",
                                self.ctx.types.display_type(other)
                            )))
                        }
                    };
                    (RootSource::Collection(obj), elem, true)
                } else {
                    (RootSource::Object(obj.clone()), obj.qty.clone(), false)
                }
            } else {
                return Err(SemaError::UnknownName(root_name));
            };

        if steps.is_empty() {
            if iterate_root {
                return Ok(vec![ResolvedRange {
                    var: var.into(),
                    universal,
                    root,
                    steps,
                    elem: cur,
                }]);
            }
            // A named set/array object (`range of X is TopTen`) or a
            // set-valued variable (a set-typed function parameter)
            // iterates its elements.
            if let (RootSource::Object(_) | RootSource::Var(_), Some(e)) = (&root, cur.ty.element())
            {
                let elem = e.clone();
                return Ok(vec![ResolvedRange {
                    var: var.into(),
                    universal,
                    root,
                    steps,
                    elem,
                }]);
            }
            return Err(SemaError::NotIterable(format!("{path}")));
        }
        // Walk attribute steps. The final step must land on a set/array;
        // each *intermediate* set/array becomes a synthetic binding the
        // final one depends on.
        let mut out: Vec<ResolvedRange> = Vec::new();
        let mut seg_root = root;
        let mut seg_steps: Vec<String> = Vec::new();
        let mut synth = 0usize;
        for (i, st) in steps.iter().enumerate() {
            cur = self.ctx.attr_type(&cur, st)?;
            seg_steps.push(st.clone());
            let last = i + 1 == steps.len();
            match (&cur.ty, last) {
                (Type::Set(e) | Type::Array(_, e), true) => {
                    let elem = (**e).clone();
                    out.push(ResolvedRange {
                        var: var.into(),
                        universal,
                        root: seg_root,
                        steps: seg_steps,
                        elem,
                    });
                    return Ok(out);
                }
                (Type::Set(e) | Type::Array(_, e), false) => {
                    let elem = (**e).clone();
                    let name = format!("{var}#{synth}");
                    synth += 1;
                    out.push(ResolvedRange {
                        var: name.clone(),
                        universal,
                        root: seg_root,
                        steps: std::mem::take(&mut seg_steps),
                        elem: elem.clone(),
                    });
                    seg_root = RootSource::Var(name);
                    cur = elem;
                }
                (_, true) => return Err(SemaError::NotIterable(format!("{path}"))),
                (_, false) => {}
            }
        }
        unreachable!("loop returns on the last step")
    }

    /// Build the dependency-ordered binding list for a set of expressions
    /// plus explicit from-clauses.
    pub fn bindings_for(
        &self,
        exprs: &[&Expr],
        from: &[FromBinding],
    ) -> SemaResult<Vec<ResolvedRange>> {
        let referenced = referenced_names(exprs);

        // Candidate declarations: from-clauses and session ranges (when
        // the variable occurs free — a variable consumed entirely by
        // aggregate `over` clauses does not join the outer query), and
        // implicit collection ranges (when used member-wise).
        let mut decls: Vec<(String, bool, Expr)> = Vec::new();
        for fb in from {
            if referenced.contains(&fb.var) {
                decls.push((fb.var.clone(), false, fb.path.clone()));
            }
        }
        for (v, u, p) in &self.env.ranges {
            if referenced.contains(v) && !decls.iter().any(|(dv, _, _)| dv == v) {
                decls.push((v.clone(), *u, p.clone()));
            }
        }
        // Names used by declared paths also pull in session ranges and
        // implicit collections (e.g. from C in E.kids needs E).
        let mut queue: Vec<String> = decls
            .iter()
            .filter_map(|(_, _, p)| flatten_path(p).ok().map(|(r, _)| r))
            .chain(referenced.iter().cloned())
            .collect();
        let mut seen: HashSet<String> = decls.iter().map(|(v, _, _)| v.clone()).collect();
        while let Some(name) = queue.pop() {
            if seen.contains(&name) {
                continue;
            }
            seen.insert(name.clone());
            if let Some((v, u, p)) = self.env.get(&name) {
                if let Ok((root, _)) = flatten_path(p) {
                    queue.push(root);
                }
                decls.push((v.clone(), *u, p.clone()));
            } else if let Some(obj) = self.ctx.catalog.named(&name) {
                if obj.is_collection && self.is_used_as_member(&name, exprs, &decls) {
                    // Implicit range over the collection's members.
                    decls.push((name.clone(), false, Expr::Var(name.clone())));
                }
            }
        }

        // Resolve with iterative dependency satisfaction (a small, stable
        // topological sort). A declaration is ready when its path root is
        // already resolved, is itself (implicit collection binding), or is
        // not a declared variable at all (a catalog name).
        let decl_names: HashSet<String> = decls.iter().map(|(v, _, _)| v.clone()).collect();
        let mut resolved: Vec<ResolvedRange> = Vec::new();
        let mut known: HashMap<String, QualType> = HashMap::new();
        let mut pending = decls;
        while !pending.is_empty() {
            let mut progressed = false;
            let mut next_pending = Vec::new();
            for (v, u, p) in pending {
                let (root, _) = flatten_path(&p)?;
                let ready = root == v || known.contains_key(&root) || !decl_names.contains(&root);
                if ready {
                    for r in self.resolve_range(&v, u, &p, &known)? {
                        known.insert(r.var.clone(), r.elem.clone());
                        resolved.push(r);
                    }
                    progressed = true;
                } else {
                    next_pending.push((v, u, p));
                }
            }
            if !progressed {
                return Err(SemaError::Other(format!(
                    "circular range declarations involving '{}'",
                    next_pending[0].0
                )));
            }
            pending = next_pending;
        }

        // Order so that every binding follows the one it depends on.
        let order: HashMap<String, usize> = resolved
            .iter()
            .enumerate()
            .map(|(i, r)| (r.var.clone(), i))
            .collect();
        let mut sorted = resolved.clone();
        sorted.sort_by_key(|r| depth_of(r, &resolved, &order));
        Ok(sorted)
    }

    /// Whether a collection name is used member-wise (as a path root or in
    /// an `over` clause) rather than as a whole-set value.
    fn is_used_as_member(
        &self,
        name: &str,
        exprs: &[&Expr],
        decls: &[(String, bool, Expr)],
    ) -> bool {
        let mut used = false;
        for e in exprs {
            walk_expr(e, &mut |x| match x {
                Expr::Path(base, _) => {
                    if matches!(&**base, Expr::Var(n) if n == name) {
                        used = true;
                    }
                }
                Expr::Agg(a) if a.over.iter().any(|v| v == name) => {
                    used = true;
                }
                _ => {}
            });
        }
        // Or used as the root of a declared range path.
        for (_, _, p) in decls {
            if let Ok((root, steps)) = flatten_path(p) {
                if root == name && !steps.is_empty() {
                    used = true;
                }
            }
        }
        used
    }

    /// Check a retrieve statement, producing bindings and output schema.
    pub fn check_retrieve(&self, stmt: &Stmt) -> SemaResult<CheckedRetrieve> {
        let Stmt::Retrieve {
            targets,
            from,
            qual,
            order_by,
            ..
        } = stmt
        else {
            return Err(SemaError::Other("not a retrieve statement".into()));
        };
        let mut exprs: Vec<&Expr> = targets.iter().map(|t| &t.expr).collect();
        if let Some(q) = qual {
            exprs.push(q);
        }
        if let Some((e, _)) = order_by {
            exprs.push(e);
        }
        let bindings = self.bindings_for(&exprs, from)?;

        // Type-check with all bindings in scope, plus the types of
        // aggregate `over` variables (consumed inside aggregates, so not
        // necessarily outer bindings).
        let mut ctx = SemaCtx::new(self.ctx.types, self.ctx.adts, self.ctx.catalog);
        ctx.vars = self.ctx.vars.clone();
        for b in &bindings {
            ctx.vars.insert(b.var.clone(), b.elem.clone());
        }
        let mut over_vars: HashSet<String> = HashSet::new();
        for e in &exprs {
            walk_expr(e, &mut |x| {
                if let Expr::Agg(a) = x {
                    over_vars.extend(a.over.iter().cloned());
                }
            });
        }
        over_vars.retain(|v| !ctx.vars.contains_key(v));
        if !over_vars.is_empty() {
            let pseudo: Vec<Expr> = over_vars.iter().map(|v| Expr::Var(v.clone())).collect();
            let refs: Vec<&Expr> = pseudo.iter().collect();
            let extra = self.bindings_for(&refs, from)?;
            for b in extra {
                ctx.vars.entry(b.var).or_insert(b.elem);
            }
        }
        let mut output = Vec::with_capacity(targets.len());
        for (i, t) in targets.iter().enumerate() {
            let qty = ctx.infer(&t.expr)?;
            let name = t.name.clone().unwrap_or_else(|| derive_name(&t.expr, i));
            output.push((name, qty));
        }
        if let Some(q) = qual {
            let qt = ctx.infer(q)?;
            if !matches!(
                qt.ty,
                Type::Base(extra_model::BaseType::Boolean) | Type::Unknown
            ) {
                return Err(SemaError::TypeMismatch {
                    expected: "boolean qualification".into(),
                    got: self.ctx.types.display_qual(&qt),
                });
            }
        }
        if let Some((e, _)) = order_by {
            ctx.infer(e)?;
        }
        Ok(CheckedRetrieve { bindings, output })
    }
}

fn depth_of(
    r: &ResolvedRange,
    all: &[ResolvedRange],
    order: &HashMap<String, usize>,
) -> (usize, usize) {
    let mut depth = 0;
    let mut cur = r;
    while let Some(parent) = cur.depends_on() {
        depth += 1;
        match all.iter().find(|b| b.var == parent) {
            Some(p) => cur = p,
            None => break,
        }
        if depth > all.len() {
            break; // cycle guard; reported elsewhere
        }
    }
    (depth, order.get(&r.var).copied().unwrap_or(0))
}

/// Derive an output column name from a target expression.
pub fn derive_name(e: &Expr, i: usize) -> String {
    match e {
        Expr::Var(n) => n.clone(),
        Expr::Path(_, attr) => attr.clone(),
        Expr::Call { name, .. } => name.clone(),
        Expr::Agg(a) => a.func.clone(),
        Expr::Index(b, _) => derive_name(b, i),
        _ => format!("expr{}", i + 1),
    }
}
