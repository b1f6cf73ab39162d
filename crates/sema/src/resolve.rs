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
use crate::check::{is_boolean, Checked, Node, SemaCtx, Typed};
use crate::error::{SemaError, SemaResult};

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
    /// The set or array an unnest iterates, checked here once: the root,
    /// then each of `steps`. `None` for a scan of a collection's members
    /// or of a system view's rows.
    pub source: Option<Checked>,
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

/// A fully checked retrieve: dependency-ordered bindings, the output
/// schema, and every expression checked once.
#[derive(Debug, Clone)]
pub struct CheckedRetrieve {
    /// Bindings in evaluation (dependency) order.
    pub bindings: Vec<ResolvedRange>,
    /// Output column names and types.
    pub output: Vec<(String, QualType)>,
    /// The targets, in `output` order.
    pub targets: Vec<Checked>,
    /// The top-level conjuncts of the qualification.
    pub conjuncts: Vec<Checked>,
    /// The sort key and whether it ascends.
    pub order_by: Option<(Checked, bool)>,
}

/// The checked expression naming variable `name` of type `qty`.
fn var_source(name: &str, qty: QualType) -> Checked {
    Checked {
        src: Expr::Var(name.into()),
        typed: Typed {
            qty,
            node: Node::Var(name.into()),
        },
    }
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

/// An aggregate's own expressions: its argument, `by` list and `where`.
pub(crate) fn agg_exprs(a: &Aggregate) -> impl Iterator<Item = &Expr> {
    a.arg
        .as_deref()
        .into_iter()
        .chain(&a.by)
        .chain(a.qual.as_deref())
}

/// Call `f` on `e` and every expression under it.
fn walk_expr(e: &Expr, f: &mut impl FnMut(&Expr)) {
    f(e);
    match e {
        Expr::Agg(a) => agg_exprs(a).for_each(|x| walk_expr(x, f)),
        other => walk_children(other, &mut |c| walk_expr(c, f)),
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
        Expr::Agg(a) => {
            let mut inner = HashSet::new();
            agg_exprs(a).for_each(|x| collect_free(x, &mut inner));
            for v in &a.over {
                inner.remove(v);
            }
            out.extend(inner);
        }
        other => walk_children(other, &mut |c| collect_free(c, out)),
    }
}

/// Call `f` on each direct child of a non-aggregate expression.
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

impl SemaCtx<'_> {
    /// Resolve one range declaration. Multi-level set paths
    /// (`Roots.mids.leaves`) produce synthetic intermediate bindings
    /// (named `var#0`, `var#1`, ...) preceding the final one — the paper's
    /// "path syntax for handling deeply nested queries". `known` maps
    /// already visible variables to their element types (for `range of C
    /// is E.kids` style dependencies).
    fn resolve_range(
        &self,
        var: &str,
        universal: bool,
        path: &Expr,
        known: &HashMap<String, QualType>,
    ) -> SemaResult<Vec<ResolvedRange>> {
        let (root_name, steps) = flatten_path(path)?;
        let range = |root, steps, source, elem| ResolvedRange {
            var: var.into(),
            universal,
            root,
            steps,
            source,
            elem,
        };
        // `sys.<view>` ranges over a virtual system collection — but only
        // when nothing shadows `sys` (a variable or catalog object named
        // `sys` keeps its ordinary meaning) and the catalog actually
        // provides system views (so minimal test catalogs are unaffected).
        if root_name == "sys"
            && !known.contains_key("sys")
            && !self.vars.contains_key("sys")
            && self.catalog.named("sys").is_none()
        {
            if let Some(first) = steps.first() {
                if let Some(def) = self.catalog.system_view(first) {
                    if steps.len() > 1 {
                        return Err(SemaError::Other(format!(
                            "cannot range over 'sys.{first}.{}': system views \
                             have no nested set attributes",
                            steps[1..].join(".")
                        )));
                    }
                    let root = RootSource::System(first.clone());
                    return Ok(vec![range(root, Vec::new(), None, def.elem)]);
                }
                let mut views: Vec<String> = self
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
        let collection_elem = |obj: &NamedObject| match &obj.qty.ty {
            Type::Set(e) => Ok((**e).clone()),
            other => Err(SemaError::Other(format!(
                "collection '{root_name}' has non-set type {}",
                self.types.display_type(other)
            ))),
        };
        // A stepless range over a collection name iterates that collection
        // directly — even when an implicit member binding of the same name
        // exists (`range of E is Employees` alongside `Employees.kids`).
        // With steps, a known variable (including the shared implicit
        // member) takes precedence, giving the paper's shared-parent
        // semantics for `range of C is Employees.kids`.
        let collection = self.catalog.named(&root_name).filter(|o| o.is_collection);
        if let (true, Some(obj)) = (steps.is_empty(), collection) {
            let elem = collection_elem(&obj)?;
            return Ok(vec![range(RootSource::Collection(obj), steps, None, elem)]);
        }
        // Root: another declared variable, an outer-scope variable
        // (function/procedure parameter) or a named object. A collection
        // name with steps gets a member binding of its own (`$Name`) to
        // unnest from.
        let mut out: Vec<ResolvedRange> = Vec::new();
        let (root, mut src, mut cur): (RootSource, Checked, QualType) =
            if let Some(q) = known.get(&root_name).or_else(|| self.vars.get(&root_name)) {
                let src = var_source(&root_name, q.clone());
                (RootSource::Var(root_name.clone()), src, q.clone())
            } else if let Some(obj) = self.catalog.named(&root_name) {
                if obj.is_collection {
                    let elem = collection_elem(&obj)?;
                    let member = format!("${root_name}");
                    out.push(ResolvedRange {
                        var: member.clone(),
                        ..range(RootSource::Collection(obj), Vec::new(), None, elem.clone())
                    });
                    let src = var_source(&member, elem.clone());
                    (RootSource::Var(member), src, elem)
                } else {
                    let qty = obj.qty.clone();
                    let src = Checked {
                        src: Expr::Var(root_name.clone()),
                        typed: Typed {
                            qty: qty.clone(),
                            node: Node::NamedRef(obj.clone()),
                        },
                    };
                    (RootSource::Object(obj), src, qty)
                }
            } else {
                return Err(SemaError::UnknownName(root_name));
            };

        if steps.is_empty() {
            // A named set/array object (`range of X is TopTen`) or a
            // set-valued variable (a set-typed function parameter)
            // iterates its elements.
            let Some(elem) = cur.ty.element().cloned() else {
                return Err(SemaError::NotIterable(format!("{path}")));
            };
            return Ok(vec![range(root, steps, Some(src), elem)]);
        }
        // Walk attribute steps. The final step must land on a set/array;
        // each *intermediate* set/array becomes a synthetic binding the
        // final one depends on.
        let mut seg_root = root;
        let mut seg_steps: Vec<String> = Vec::new();
        for (i, st) in steps.iter().enumerate() {
            let (pos, qty) = self.attr(&cur, st)?;
            cur = qty;
            seg_steps.push(st.clone());
            src = Checked {
                src: Expr::Path(Box::new(src.src), st.clone()),
                typed: Typed {
                    qty: cur.clone(),
                    node: Node::Attr(Box::new(src.typed), pos),
                },
            };
            let last = i + 1 == steps.len();
            match (&cur.ty, last) {
                (Type::Set(e) | Type::Array(_, e), true) => {
                    let elem = (**e).clone();
                    out.push(range(seg_root, seg_steps, Some(src), elem));
                    return Ok(out);
                }
                (Type::Set(e) | Type::Array(_, e), false) => {
                    let elem = (**e).clone();
                    let name = format!("{var}#{}", out.len());
                    out.push(ResolvedRange {
                        var: name.clone(),
                        ..range(
                            seg_root,
                            std::mem::take(&mut seg_steps),
                            Some(src),
                            elem.clone(),
                        )
                    });
                    src = var_source(&name, elem.clone());
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
    pub(crate) fn bindings_for(
        &self,
        exprs: &[&Expr],
        from: &[FromBinding],
    ) -> SemaResult<Vec<ResolvedRange>> {
        let referenced: HashSet<String> = exprs.iter().flat_map(|e| free_names(e)).collect();

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
        for (v, u, p) in &self.ranges.ranges {
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
            if let Some((v, u, p)) = self.ranges.get(&name) {
                if let Ok((root, _)) = flatten_path(p) {
                    queue.push(root);
                }
                decls.push((v.clone(), *u, p.clone()));
            } else if let Some(obj) = self.catalog.named(&name) {
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

    /// Check a retrieve statement: its bindings, its output schema, and
    /// each of its expressions.
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
        exprs.extend(qual);
        exprs.extend(order_by.as_ref().map(|(e, _)| e));

        // The statement's from clauses join the declared ranges, which
        // aggregate `over` clauses resolve against too.
        let mut ranges = self.ranges.clone();
        for fb in from {
            ranges.declare(&fb.var, false, fb.path.clone());
        }
        let mut ctx = SemaCtx {
            ranges: &ranges,
            ..self.scoped([])
        };
        let bindings = ctx.bindings_for(&exprs, from)?;
        ctx.vars
            .extend(bindings.iter().map(|b| (b.var.clone(), b.elem.clone())));
        let checked = |e: &Expr| -> SemaResult<Checked> {
            Ok(Checked {
                src: e.clone(),
                typed: ctx.check(e)?,
            })
        };

        let mut output = Vec::with_capacity(targets.len());
        let mut targets_checked = Vec::with_capacity(targets.len());
        for (i, t) in targets.iter().enumerate() {
            let c = checked(&t.expr)?;
            let name = t.name.clone().unwrap_or_else(|| derive_name(&t.expr, i));
            output.push((name, c.typed.qty.clone()));
            targets_checked.push(c);
        }
        let conjuncts = match qual {
            Some(q) => {
                let q = checked(q)?;
                if !is_boolean(&q.typed.qty.ty) {
                    return Err(SemaError::TypeMismatch {
                        expected: "boolean qualification".into(),
                        got: self.types.display_qual(&q.typed.qty),
                    });
                }
                q.conjuncts()
            }
            None => Vec::new(),
        };
        let order_by = match order_by {
            Some((e, asc)) => Some((checked(e)?, *asc)),
            None => None,
        };
        Ok(CheckedRetrieve {
            bindings,
            output,
            targets: targets_checked,
            conjuncts,
            order_by,
        })
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
