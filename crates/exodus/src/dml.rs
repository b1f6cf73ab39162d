//! DML execution: retrieve, append, delete, replace, and procedure
//! invocation — with the paper's update semantics (own/ref/own-ref
//! integrity, set-oriented updates over all satisfying bindings) and
//! index maintenance.

use std::collections::HashMap;

use excess_algebra::Physical;
use excess_exec::{
    prepare, run_plan, Bindings, BufferDelta, Env, ExecCtx, ExecNode, MemberId, PlanIndex,
    PlanProfiler, QueryProfile, QueryResult, RowBatch,
};
use excess_lang::{AppendValue, Expr, FromBinding, Privilege, Stmt, Target};
use excess_sema::resolve::Resolver;
use excess_sema::{CheckedRetrieve, RangeEnv, SemaCtx};
use exodus_storage::btree::BTree;
use exodus_storage::{Oid, RecordId};
use extra_model::{AdtRegistry, ModelError, Ownership, QualType, Type, Value};

use crate::catalog::{Catalog, CatalogView};
use crate::database::{default_value, Database};
use crate::error::{DbError, DbResult};

/// Pre-bound variables (function/procedure parameters).
#[derive(Debug, Clone, Default)]
pub struct Params {
    /// name → (static type, runtime value).
    pub vars: HashMap<String, (QualType, Value)>,
}

/// Maximum procedure nesting depth.
const MAX_PROC_DEPTH: u32 = 32;

fn base_env(params: &Params) -> Env {
    let mut env = Env::new();
    for (name, (_, v)) in &params.vars {
        let id = match v {
            Value::Ref(o) => MemberId::Object(*o),
            _ => MemberId::None,
        };
        env.bind(name, v.clone(), id);
    }
    env
}

/// EXPLAIN plumbing for update statements: captures the bindings-query
/// plan and, under `analyze`, its execution profile. Without `analyze`
/// the statement is only planned — [`collect_bindings`] returns an empty
/// batch, so the update applies to nothing and mutates no state.
#[derive(Default)]
pub(crate) struct ExplainSink {
    /// Execute the statement (`explain analyze`) or only plan it.
    pub analyze: bool,
    /// The rendered physical plan of the bindings query.
    pub plan: Option<String>,
    /// Execution profile (`analyze` only).
    pub profile: Option<QueryProfile>,
}

/// Build a profiler for a compiled plan, annotated with the physical
/// plan's labels and row estimates.
fn make_profiler(db: &Database, cat: &Catalog, node: &ExecNode, phys: &Physical) -> PlanProfiler {
    let view = CatalogView {
        cat,
        store: &db.store,
        db: Some(db),
    };
    let annot = excess_algebra::cost::annotate_preorder(phys, &view);
    PlanProfiler::new(PlanIndex::new(node, Some(&annot)))
}

/// Check, plan and compile a retrieve-shaped statement.
fn plan_query(
    db: &Database,
    cat: &Catalog,
    ranges: &RangeEnv,
    params: &Params,
    stmt: &Stmt,
) -> DbResult<(ExecNode, CheckedRetrieve, Physical)> {
    let view = CatalogView {
        cat,
        store: &db.store,
        db: Some(db),
    };
    let mut ctx = SemaCtx::new(&cat.types, &cat.adts, &view);
    for (name, (qty, _)) in &params.vars {
        ctx.vars.insert(name.clone(), qty.clone());
    }
    // Statement-local ranges: session declarations plus this statement's
    // from clauses (aggregate `over` resolution must see both).
    let mut local = ranges.clone();
    if let Stmt::Retrieve { from, .. } = stmt {
        for fb in from {
            local.declare(&fb.var, false, fb.path.clone());
        }
    }
    let resolver = Resolver::new(&ctx, &local);
    let checked = {
        let _span = db.span("sema", "");
        resolver.check_retrieve(stmt)?
    };
    let (plan, node) = {
        let _span = db.span("plan", "");
        let plan = excess_algebra::plan_retrieve_dop(
            stmt,
            &checked,
            &ctx,
            excess_algebra::PlannerConfig::default(),
            db.worker_threads(),
        )?;
        let node = prepare(&plan, &ctx, &local)?;
        (plan, node)
    };
    Ok((node, checked, plan))
}

/// Read-authorization: the user needs `read` on every named object a
/// query touches directly.
fn check_read(cat: &Catalog, user: &str, checked: &CheckedRetrieve, stmt: &Stmt) -> DbResult<()> {
    let mut names: Vec<String> = Vec::new();
    for b in &checked.bindings {
        match &b.root {
            excess_sema::RootSource::Collection(o) | excess_sema::RootSource::Object(o) => {
                names.push(o.name.clone())
            }
            // System views surface operational state, not stored data:
            // introspection needs no object privilege.
            excess_sema::RootSource::Var(_) | excess_sema::RootSource::System(_) => {}
        }
    }
    if let Stmt::Retrieve {
        targets,
        qual,
        order_by,
        ..
    } = stmt
    {
        let mut exprs: Vec<&Expr> = targets.iter().map(|t| &t.expr).collect();
        if let Some(q) = qual {
            exprs.push(q);
        }
        if let Some((e, _)) = order_by {
            exprs.push(e);
        }
        for e in exprs {
            for v in excess_algebra::rules::free_vars(e) {
                if cat.named.contains_key(&v) {
                    names.push(v);
                }
            }
        }
    }
    names.sort();
    names.dedup();
    for n in names {
        if !cat.auth.allowed(user, &n, Privilege::Read) {
            return Err(DbError::Auth(format!("{user} may not read {n}")));
        }
    }
    // EXCESS function calls need execute (§4.2.3: schema types can be made
    // abstract by granting access only through their functions).
    if let Stmt::Retrieve {
        targets,
        qual,
        order_by,
        ..
    } = stmt
    {
        let mut fns: Vec<String> = Vec::new();
        let mut visit = |e: &Expr| collect_function_names(cat, e, &mut fns);
        for t in targets {
            visit(&t.expr);
        }
        if let Some(q) = qual {
            visit(q);
        }
        if let Some((e, _)) = order_by {
            visit(e);
        }
        fns.sort();
        fns.dedup();
        for f in fns {
            if !cat.auth.allowed(user, &f, Privilege::Execute) {
                return Err(DbError::Auth(format!("{user} may not execute {f}")));
            }
        }
    }
    Ok(())
}

/// Collect names of EXCESS functions (not ADT functions) referenced by an
/// expression.
fn collect_function_names(cat: &Catalog, e: &Expr, out: &mut Vec<String>) {
    use excess_lang::Aggregate;
    match e {
        Expr::Call { recv, name, args } => {
            if cat.functions.iter().any(|f| &f.name == name) {
                out.push(name.clone());
            }
            if let Some(r) = recv {
                collect_function_names(cat, r, out);
            }
            for a in args {
                collect_function_names(cat, a, out);
            }
        }
        Expr::Agg(Aggregate {
            func,
            arg,
            by,
            qual,
            ..
        }) => {
            if cat.functions.iter().any(|f| &f.name == func) {
                out.push(func.clone());
            }
            if let Some(a) = arg {
                collect_function_names(cat, a, out);
            }
            for b in by {
                collect_function_names(cat, b, out);
            }
            if let Some(q) = qual {
                collect_function_names(cat, q, out);
            }
        }
        Expr::Path(b, _) => collect_function_names(cat, b, out),
        Expr::Index(b, i) => {
            collect_function_names(cat, b, out);
            collect_function_names(cat, i, out);
        }
        Expr::Unary(_, a) => collect_function_names(cat, a, out),
        Expr::Binary(_, a, b) => {
            collect_function_names(cat, a, out);
            collect_function_names(cat, b, out);
        }
        Expr::UserOp(_, args) | Expr::SetLit(args) => {
            for a in args {
                collect_function_names(cat, a, out);
            }
        }
        Expr::TupleLit(fields) => {
            for (_, v) in fields {
                collect_function_names(cat, v, out);
            }
        }
        Expr::Var(_) | Expr::Lit(_) => {}
    }
}

/// Render the physical plan of a retrieve-shaped statement without
/// executing it.
pub(crate) fn explain_plan(
    db: &Database,
    cat: &Catalog,
    ranges: &RangeEnv,
    user: &str,
    stmt: &Stmt,
    params: &Params,
) -> DbResult<String> {
    let (_, checked, phys) = plan_query(db, cat, ranges, params, stmt)?;
    check_read(cat, user, &checked, stmt)?;
    Ok(phys.to_string())
}

/// Execute a retrieve (no `into`; read-only — runs under a shared
/// catalog lock) with every storage read resolving the record version
/// visible at `snap`: an autocommit reader's registered snapshot, or
/// the calling transaction's own timestamp
/// ([`ObjectStore::current_snap`](extra_model::ObjectStore::current_snap)).
/// With `profile`, per-operator metrics land on the result's `profile`
/// field.
#[allow(clippy::too_many_arguments)]
pub fn retrieve_at(
    db: &Database,
    cat: &Catalog,
    ranges: &RangeEnv,
    user: &str,
    stmt: &Stmt,
    params: &Params,
    profile: bool,
    snap: u64,
) -> DbResult<QueryResult> {
    let (node, checked, phys) = plan_query(db, cat, ranges, params, stmt)?;
    check_read(cat, user, &checked, stmt)?;
    let view = CatalogView {
        cat,
        store: &db.store,
        db: Some(db),
    };
    let mut ctx = ExecCtx::new(&db.store, &cat.types, &cat.adts, &view, snap)
        .with_batch_size(db.batch_size())
        .with_workers(db.worker_threads())
        .with_metrics(db.exec_metrics());
    let before = profile.then(|| db.store.storage().pool().stats());
    if profile {
        ctx = ctx.with_profiler(make_profiler(db, cat, &node, &phys));
    }
    let env = base_env(params);
    let t0 = std::time::Instant::now();
    let mut result = {
        let _span = db.span("execute", "");
        run_plan(&node, &ctx, &env)?
    };
    if let Some(p) = ctx.profiler.take() {
        let delta = before.map(|b| BufferDelta::between(&b, &db.store.storage().pool().stats()));
        result.profile = Some(p.finish(
            t0.elapsed().as_nanos() as u64,
            result.len() as u64,
            db.worker_threads(),
            delta,
        ));
    }
    drop(ctx);
    Ok(result)
}

/// Execute `retrieve into`: run the query, then materialize a new named
/// snapshot set (needs the catalog write lock).
pub fn retrieve_into(
    db: &Database,
    cat: &mut Catalog,
    ranges: &RangeEnv,
    user: &str,
    stmt: &Stmt,
    params: &Params,
    profile: bool,
) -> DbResult<QueryResult> {
    let (node, checked, phys) = plan_query(db, cat, ranges, params, stmt)?;
    check_read(cat, user, &checked, stmt)?;
    let view = CatalogView {
        cat,
        store: &db.store,
        db: Some(db),
    };
    let snap = db.store.current_snap();
    let mut ctx = ExecCtx::new(&db.store, &cat.types, &cat.adts, &view, snap)
        .with_batch_size(db.batch_size())
        .with_workers(db.worker_threads())
        .with_metrics(db.exec_metrics());
    let before = profile.then(|| db.store.storage().pool().stats());
    if profile {
        ctx = ctx.with_profiler(make_profiler(db, cat, &node, &phys));
    }
    let env = base_env(params);
    let t0 = std::time::Instant::now();
    let mut result = {
        let _span = db.span("execute", "");
        run_plan(&node, &ctx, &env)?
    };
    if let Some(p) = ctx.profiler.take() {
        let delta = before.map(|b| BufferDelta::between(&b, &db.store.storage().pool().stats()));
        result.profile = Some(p.finish(
            t0.elapsed().as_nanos() as u64,
            result.len() as u64,
            db.worker_threads(),
            delta,
        ));
    }
    drop(ctx);

    if let Stmt::Retrieve {
        into: Some(name), ..
    } = stmt
    {
        if cat.named.contains_key(name.as_str()) {
            return Err(DbError::Catalog(format!(
                "the name '{name}' is already in use"
            )));
        }
        // Snapshot semantics: own-mode tuples; reference-valued outputs
        // are stored as plain refs (not integrity-tracked).
        let attrs: Vec<extra_model::Attribute> = checked
            .output
            .iter()
            .map(|(n, q)| {
                let mode = match q.mode {
                    Ownership::Own => Ownership::Own,
                    _ => Ownership::Ref,
                };
                extra_model::Attribute {
                    name: n.clone(),
                    qty: QualType {
                        mode,
                        ty: q.ty.clone(),
                    },
                }
            })
            .collect();
        let elem = QualType::own(Type::Tuple(attrs));
        let anchor = db.store.create_collection(&elem)?;
        for row in &result.rows {
            db.store
                .append_member(&cat.types, anchor, Value::Tuple(row.clone()))?;
        }
        cat.named.insert(
            name.clone(),
            excess_sema::NamedObject {
                name: name.clone(),
                oid: anchor,
                qty: QualType::own(Type::Set(Box::new(elem))),
                is_collection: true,
            },
        );
    }
    Ok(result)
}

/// Collect the satisfying bindings for an update statement as one
/// materialized [`RowBatch`] — every satisfying binding (values plus
/// update identities) is computed *before* any mutation, preserving the
/// paper's set-oriented update semantics. `exprs` are all expressions
/// whose variables must be bound; `extra_from` forces a binding for an
/// update-target collection.
#[allow(clippy::too_many_arguments)]
fn collect_bindings(
    db: &Database,
    cat: &Catalog,
    ranges: &RangeEnv,
    params: &Params,
    exprs: Vec<Expr>,
    extra_from: Vec<FromBinding>,
    qual: Option<Expr>,
    explain: Option<&mut ExplainSink>,
) -> DbResult<(RowBatch, CheckedRetrieve)> {
    let targets: Vec<Target> = exprs
        .into_iter()
        .map(|e| Target {
            name: None,
            expr: e,
        })
        .collect();
    let stmt = Stmt::Retrieve {
        into: None,
        targets: if targets.is_empty() {
            vec![Target {
                name: None,
                expr: Expr::Lit(excess_lang::Lit::Int(1)),
            }]
        } else {
            targets
        },
        from: extra_from,
        qual,
        order_by: None,
    };
    let (node, checked, phys) = plan_query(db, cat, ranges, params, &stmt)?;
    let profiling = match explain {
        Some(sink) => {
            sink.plan = Some(phys.to_string());
            if !sink.analyze {
                // Plan-only EXPLAIN: no bindings means every update
                // applies to nothing and mutates no state.
                return Ok((RowBatch::new(), checked));
            }
            Some(sink)
        }
        None => None,
    };
    let ExecNode::Project { input, .. } = &node else {
        return Err(DbError::Catalog("update plan has no projection".into()));
    };
    let view = CatalogView {
        cat,
        store: &db.store,
        db: Some(db),
    };
    let snap = db.store.current_snap();
    let mut ctx = ExecCtx::new(&db.store, &cat.types, &cat.adts, &view, snap)
        .with_batch_size(db.batch_size())
        .with_workers(db.worker_threads())
        .with_metrics(db.exec_metrics());
    let before = profiling
        .as_ref()
        .map(|_| db.store.storage().pool().stats());
    if profiling.is_some() {
        ctx = ctx.with_profiler(make_profiler(db, cat, &node, &phys));
    }
    let env = base_env(params);
    let t0 = std::time::Instant::now();
    let index = ctx.profiler.as_ref().map(|p| p.index());
    let proj_slot = index.and_then(|ix| ix.slot_of(&node));
    let mut all = RowBatch::new();
    let exec_span = db.span("execute", "");
    let mut cur = input.cursor_profiled(RowBatch::single(&env), index);
    while let Some(batch) = cur.next(&ctx)? {
        ctx.prof_in(proj_slot, batch.len());
        all.append(batch);
    }
    drop(exec_span);
    if let (Some(sink), Some(p)) = (profiling, ctx.profiler.take()) {
        if let Some(slot) = proj_slot {
            p.record_ns(slot, t0.elapsed().as_nanos() as u64);
            p.record_out(slot, all.len());
        }
        let delta = before.map(|b| BufferDelta::between(&b, &db.store.storage().pool().stats()));
        sink.profile = Some(p.finish(
            t0.elapsed().as_nanos() as u64,
            all.len() as u64,
            db.worker_threads(),
            delta,
        ));
    }
    Ok((all, checked))
}

/// Key bytes for a member's indexed attribute (dereferencing ref-mode
/// members). `None` for nulls — indexes do not cover null keys.
pub fn member_attr_key(
    db: &Database,
    member: &Value,
    pos: usize,
    adts: &AdtRegistry,
) -> DbResult<Option<Vec<u8>>> {
    let mut v = member.clone();
    while let Value::Ref(oid) = v {
        v = db.store.value_of_at(oid, db.store.current_snap())?;
    }
    let field = match v {
        Value::Tuple(mut fields) if pos < fields.len() => fields.swap_remove(pos),
        _ => return Ok(None),
    };
    if field.is_null() {
        return Ok(None);
    }
    Ok(field.key_encode(adts))
}

fn attr_pos_of(cat: &Catalog, db: &Database, elem: &QualType, attr: &str) -> DbResult<usize> {
    let view = CatalogView {
        cat,
        store: &db.store,
        db: Some(db),
    };
    let ctx = SemaCtx::new(&cat.types, &cat.adts, &view);
    Ok(ctx.attr_pos(elem, attr)?)
}

/// One index maintenance entry: `(root page, key bytes, unique, attr)`.
type IndexEntry = (u64, Vec<u8>, bool, String);

fn index_entries_for(
    db: &Database,
    cat: &Catalog,
    collection: &str,
    anchor: Oid,
    member: &Value,
) -> DbResult<Vec<IndexEntry>> {
    let mut out = Vec::new();
    let elem = db.store.collection_elem(anchor)?;
    for idx in cat.indexes.iter().filter(|i| i.collection == collection) {
        let pos = attr_pos_of(cat, db, &elem, &idx.attr)?;
        if let Some(key) = member_attr_key(db, member, pos, &cat.adts)? {
            out.push((idx.root, key, idx.unique, idx.attr.clone()));
        }
    }
    Ok(out)
}

/// Reject a prospective member whose unique-key values already exist.
/// Call *before* mutating, so violations leave no partial state.
fn probe_unique(db: &Database, entries: &[IndexEntry]) -> DbResult<()> {
    for (root, key, unique, attr) in entries {
        if *unique
            && !BTree::open(*root)
                .lookup(db.store.storage().pool(), key)?
                .is_empty()
        {
            return Err(DbError::Model(ModelError::Integrity(format!(
                "key violation: a member with this '{attr}' already exists"
            ))));
        }
    }
    Ok(())
}

fn index_insert(db: &Database, entries: &[IndexEntry], rid: RecordId) -> DbResult<()> {
    // Defensive re-check (the statement-level probe should have run).
    for (root, key, unique, attr) in entries {
        if *unique {
            let existing = BTree::open(*root).lookup(db.store.storage().pool(), key)?;
            if existing.iter().any(|v| *v != rid.pack()) {
                return Err(DbError::Model(ModelError::Integrity(format!(
                    "key violation: a member with this '{attr}' already exists"
                ))));
            }
        }
    }
    for (root, key, _, _) in entries {
        BTree::open(*root).insert(db.store.storage().pool(), key, rid.pack(), false)?;
    }
    Ok(())
}

fn index_remove(db: &Database, entries: &[IndexEntry], rid: RecordId) -> DbResult<()> {
    for (root, key, _, _) in entries {
        BTree::open(*root).delete(db.store.storage().pool(), key, rid.pack())?;
    }
    Ok(())
}

fn collection_name_of(cat: &Catalog, anchor: Oid) -> Option<String> {
    cat.named
        .values()
        .find(|o| o.is_collection && o.oid == anchor)
        .map(|o| o.name.clone())
}

/// Remove every index entry pointing at an object (via its memberships).
fn unindex_object(db: &Database, cat: &Catalog, oid: Oid) -> DbResult<()> {
    let member = Value::Ref(oid);
    for (anchor, rid) in db.store.memberships(oid)? {
        if let Some(name) = collection_name_of(cat, anchor) {
            let entries = index_entries_for(db, cat, &name, anchor, &member)?;
            index_remove(db, &entries, rid)?;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Append
// ---------------------------------------------------------------------------

/// Build a member value for a collection element type from `append`
/// assignments.
fn member_from_assignments(
    cat: &Catalog,
    elem: &QualType,
    assignments: &[(String, Value)],
) -> DbResult<Value> {
    let Type::Schema(tid) = elem.ty else {
        return Err(DbError::Catalog(
            "attribute assignments require a tuple-typed element; append a value instead".into(),
        ));
    };
    let st = cat.types.get(tid);
    for (name, _) in assignments {
        if st.attribute(name).is_none() {
            return Err(DbError::Model(ModelError::UnknownAttribute {
                ty: st.name.clone(),
                attr: name.clone(),
            }));
        }
    }
    let fields: Vec<Value> = st
        .attributes()
        .map(|a| {
            assignments
                .iter()
                .find(|(n, _)| *n == a.name)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| default_value(&a.qty, &cat.types))
        })
        .collect();
    let tuple = Value::Tuple(fields);
    tuple.conforms(&QualType::own(Type::Schema(tid)), &cat.types, &cat.adts)?;
    Ok(tuple)
}

/// Insert one member into a collection, creating the object for
/// reference-mode elements; maintains indexes.
fn insert_member(
    db: &Database,
    cat: &Catalog,
    name: &str,
    anchor: Oid,
    value: Value,
) -> DbResult<()> {
    let elem = db.store.collection_elem(anchor)?;
    let member = match elem.mode {
        Ownership::Own => {
            // Value semantics: copy through references.
            let mut v = value;
            while let Value::Ref(oid) = v {
                v = db.store.value_of_at(oid, db.store.current_snap())?;
            }
            v.conforms(&elem, &cat.types, &cat.adts)?;
            v
        }
        Ownership::Ref | Ownership::OwnRef => match value {
            v @ Value::Ref(_) => v,
            Value::Tuple(fields) => {
                // A constructed tuple becomes a new object.
                let obj_q = QualType::own(elem.ty.clone());
                Value::Ref(
                    db.store
                        .create_object(&cat.types, &obj_q, Value::Tuple(fields))?,
                )
            }
            other => {
                return Err(DbError::Model(ModelError::TypeMismatch {
                    expected: "a reference or tuple".into(),
                    got: other.kind().into(),
                }))
            }
        },
    };
    let entries = index_entries_for(db, cat, name, anchor, &member)?;
    probe_unique(db, &entries)?;
    let rid = db.store.append_member(&cat.types, anchor, member)?;
    index_insert(db, &entries, rid)?;
    Ok(())
}

/// `append [to] target (...) [where q]`.
pub(crate) fn append(
    db: &Database,
    cat: &mut Catalog,
    ranges: &RangeEnv,
    user: &str,
    stmt: &Stmt,
    params: &Params,
    explain: Option<&mut ExplainSink>,
) -> DbResult<crate::database::Response> {
    let Stmt::Append {
        target,
        value,
        qual,
    } = stmt
    else {
        unreachable!("dispatch");
    };
    // Expressions that must be resolvable.
    let mut exprs: Vec<Expr> = Vec::new();
    match value {
        AppendValue::Assignments(assigns) => exprs.extend(assigns.iter().map(|(_, e)| e.clone())),
        AppendValue::Expr(e) => exprs.push(e.clone()),
    }

    match target {
        // append to <NamedCollection> ...
        Expr::Var(name)
            if cat
                .named
                .get(name)
                .map(|o| o.is_collection)
                .unwrap_or(false) =>
        {
            if !cat.auth.allowed(user, name, Privilege::Append) {
                return Err(DbError::Auth(format!("{user} may not append to {name}")));
            }
            let anchor = cat.named[name].oid;
            let (bindings, checked) = collect_bindings(
                db,
                cat,
                ranges,
                params,
                exprs,
                Vec::new(),
                qual.clone(),
                explain,
            )?;
            let vars = update_vars(params, &checked);
            let view = CatalogView {
                cat,
                store: &db.store,
                db: Some(db),
            };
            let snap = db.store.current_snap();
            let ctx = ExecCtx::new(&db.store, &cat.types, &cat.adts, &view, snap)
                .with_batch_size(db.batch_size())
                .with_workers(db.worker_threads())
                .with_metrics(db.exec_metrics());
            let mut staged: Vec<Value> = Vec::new();
            for env in bindings.iter() {
                staged.push(eval_member_value(
                    db, cat, &ctx, &env, ranges, &vars, anchor, value,
                )?);
            }
            drop(ctx);
            let n = staged.len();
            for v in staged {
                insert_member(db, cat, name, anchor, v)?;
            }
            Ok(crate::database::Response::Done(format!(
                "appended {n} to {name}"
            )))
        }
        // append to <var-array object> <expr> — push.
        Expr::Var(name)
            if cat
                .named
                .get(name)
                .map(|o| !o.is_collection && matches!(o.qty.ty, Type::Array(None, _)))
                .unwrap_or(false) =>
        {
            let AppendValue::Expr(vexpr) = value else {
                return Err(DbError::Catalog(
                    "arrays take a value expression, not assignments".into(),
                ));
            };
            if !cat.auth.allowed(user, name, Privilege::Append) {
                return Err(DbError::Auth(format!("{user} may not append to {name}")));
            }
            let obj = cat.named[name].clone();
            let Type::Array(None, elem) = &obj.qty.ty else {
                unreachable!()
            };
            let elem = (**elem).clone();
            let (bindings, checked) = collect_bindings(
                db,
                cat,
                ranges,
                params,
                exprs,
                Vec::new(),
                qual.clone(),
                explain,
            )?;
            let vars = update_vars(params, &checked);
            let view = CatalogView {
                cat,
                store: &db.store,
                db: Some(db),
            };
            let snap = db.store.current_snap();
            let ctx = ExecCtx::new(&db.store, &cat.types, &cat.adts, &view, snap)
                .with_batch_size(db.batch_size())
                .with_workers(db.worker_threads())
                .with_metrics(db.exec_metrics());
            let mut staged: Vec<Value> = Vec::new();
            for env in bindings.iter() {
                staged.push(eval_expr(db, cat, &ctx, &env, ranges, &vars, vexpr)?);
            }
            drop(ctx);
            let n = staged.len();
            for v in staged {
                v.conforms(&elem, &cat.types, &cat.adts)?;
                let mut arr = db.store.value_of_at(obj.oid, snap)?;
                match &mut arr {
                    Value::Array(items) => items.push(v),
                    other => {
                        return Err(DbError::Model(ModelError::TypeMismatch {
                            expected: "an array".into(),
                            got: other.kind().into(),
                        }))
                    }
                }
                db.store.set_value(&cat.types, obj.oid, arr)?;
            }
            Ok(crate::database::Response::Done(format!(
                "appended {n} to {name}"
            )))
        }
        // append to <array>[i] <expr> — slot assignment.
        Expr::Index(_, _) => {
            let AppendValue::Expr(vexpr) = value else {
                return Err(DbError::Catalog(
                    "array slots take a value expression, not assignments".into(),
                ));
            };
            let Expr::Index(base, idx) = target else {
                unreachable!()
            };
            let Expr::Var(obj_name) = &**base else {
                return Err(DbError::Catalog(
                    "array slot assignment requires a named array object".into(),
                ));
            };
            let obj = cat
                .named
                .get(obj_name)
                .cloned()
                .ok_or_else(|| DbError::Catalog(format!("no named object '{obj_name}'")))?;
            if !cat.auth.allowed(user, obj_name, Privilege::Replace) {
                return Err(DbError::Auth(format!("{user} may not update {obj_name}")));
            }
            let Type::Array(_, elem) = &obj.qty.ty else {
                return Err(DbError::Catalog(format!("'{obj_name}' is not an array")));
            };
            let elem = (**elem).clone();
            let (bindings, checked) = collect_bindings(
                db,
                cat,
                ranges,
                params,
                vec![(**idx).clone(), vexpr.clone()],
                Vec::new(),
                qual.clone(),
                explain,
            )?;
            let vars = update_vars(params, &checked);
            let view = CatalogView {
                cat,
                store: &db.store,
                db: Some(db),
            };
            let snap = db.store.current_snap();
            let ctx = ExecCtx::new(&db.store, &cat.types, &cat.adts, &view, snap)
                .with_batch_size(db.batch_size())
                .with_workers(db.worker_threads())
                .with_metrics(db.exec_metrics());
            let mut staged: Vec<(i64, Value)> = Vec::new();
            for env in bindings.iter() {
                let i = eval_expr(db, cat, &ctx, &env, ranges, &vars, idx)?.as_i64()?;
                let v = eval_expr(db, cat, &ctx, &env, ranges, &vars, vexpr)?;
                staged.push((i, v));
            }
            drop(ctx);
            for (i, v) in staged {
                let mut arr = db.store.value_of_at(obj.oid, snap)?;
                match &mut arr {
                    Value::Array(items) => {
                        if i < 1 || i as usize > items.len() {
                            return Err(DbError::Model(ModelError::IndexOutOfRange {
                                index: i,
                                len: items.len(),
                            }));
                        }
                        v.conforms(&elem, &cat.types, &cat.adts)?;
                        items[i as usize - 1] = v;
                    }
                    other => {
                        return Err(DbError::Model(ModelError::TypeMismatch {
                            expected: "an array".into(),
                            got: other.kind().into(),
                        }))
                    }
                }
                db.store.set_value(&cat.types, obj.oid, arr)?;
            }
            Ok(crate::database::Response::Done(format!(
                "{obj_name} updated"
            )))
        }
        // append to <path>.<set attr> ... — nested set append.
        Expr::Path(_, _) => {
            let (root_var, steps) = flatten(target)?;
            let mut exprs2 = exprs.clone();
            exprs2.push(target.clone());
            let (bindings, checked) = collect_bindings(
                db,
                cat,
                ranges,
                params,
                exprs2,
                Vec::new(),
                qual.clone(),
                explain,
            )?;
            // Authorization: appending inside members of a collection.
            for b in &checked.bindings {
                if let excess_sema::RootSource::Collection(o) = &b.root {
                    if !cat.auth.allowed(user, &o.name, Privilege::Append) {
                        return Err(DbError::Auth(format!(
                            "{user} may not append into {}",
                            o.name
                        )));
                    }
                }
            }
            let elem = container_elem(db, cat, params, &checked, &root_var, &steps)?;
            let vars = update_vars(params, &checked);
            let view = CatalogView {
                cat,
                store: &db.store,
                db: Some(db),
            };
            let snap = db.store.current_snap();
            let ctx = ExecCtx::new(&db.store, &cat.types, &cat.adts, &view, snap)
                .with_batch_size(db.batch_size())
                .with_workers(db.worker_threads())
                .with_metrics(db.exec_metrics());
            let mut staged: Vec<(UpdateSite, Value)> = Vec::new();
            for env in bindings.iter() {
                let member = match value {
                    AppendValue::Assignments(assigns) => {
                        let vals: Vec<(String, Value)> = assigns
                            .iter()
                            .map(|(n, e)| {
                                Ok((n.clone(), eval_expr(db, cat, &ctx, &env, ranges, &vars, e)?))
                            })
                            .collect::<DbResult<_>>()?;
                        let tuple = member_from_assignments(cat, &elem, &vals)?;
                        match elem.mode {
                            Ownership::Own => tuple,
                            _ => Value::Ref(db.store.create_object(
                                &cat.types,
                                &QualType::own(elem.ty.clone()),
                                tuple,
                            )?),
                        }
                    }
                    AppendValue::Expr(e) => eval_expr(db, cat, &ctx, &env, ranges, &vars, e)?,
                };
                let site = resolve_site(db, cat, &env, &root_var, &steps, &checked)?;
                staged.push((site, member));
            }
            drop(ctx);
            let n = staged.len();
            for (site, member) in staged {
                apply_container_edit(db, cat, site, ContainerEdit::Insert(member))?;
            }
            Ok(crate::database::Response::Done(format!("appended {n}")))
        }
        other => Err(DbError::Catalog(format!("cannot append to {other}"))),
    }
}

/// Evaluate the member value of a collection-level append for one env.
#[allow(clippy::too_many_arguments)]
fn eval_member_value(
    db: &Database,
    cat: &Catalog,
    ctx: &ExecCtx<'_>,
    env: &dyn Bindings,
    ranges: &RangeEnv,
    vars: &HashMap<String, QualType>,
    anchor: Oid,
    value: &AppendValue,
) -> DbResult<Value> {
    match value {
        AppendValue::Assignments(assigns) => {
            let elem = db.store.collection_elem(anchor)?;
            let vals: Vec<(String, Value)> = assigns
                .iter()
                .map(|(n, e)| Ok((n.clone(), eval_expr(db, cat, ctx, env, ranges, vars, e)?)))
                .collect::<DbResult<_>>()?;
            member_from_assignments(cat, &elem, &vals)
        }
        AppendValue::Expr(e) => eval_expr(db, cat, ctx, env, ranges, vars, e),
    }
}

/// Static types for the variables an update's expressions may mention:
/// parameters plus the checked bindings.
fn update_vars(params: &Params, checked: &CheckedRetrieve) -> HashMap<String, QualType> {
    let mut vars: HashMap<String, QualType> = params
        .vars
        .iter()
        .map(|(n, (q, _))| (n.clone(), q.clone()))
        .collect();
    for b in &checked.bindings {
        vars.insert(b.var.clone(), b.elem.clone());
    }
    vars
}

/// Compile and evaluate one expression in an environment.
fn eval_expr(
    db: &Database,
    cat: &Catalog,
    ctx: &ExecCtx<'_>,
    env: &dyn Bindings,
    ranges: &RangeEnv,
    vars: &HashMap<String, QualType>,
    e: &Expr,
) -> DbResult<Value> {
    let view = CatalogView {
        cat,
        store: &db.store,
        db: Some(db),
    };
    let mut sctx = SemaCtx::new(&cat.types, &cat.adts, &view);
    sctx.vars = vars.clone();
    let counter = std::cell::Cell::new(10_000);
    let compiler = excess_exec::Compiler::new(&sctx, ranges, &counter);
    let compiled = compiler.compile(e)?;
    Ok(excess_exec::eval::eval(&compiled, ctx, env)?)
}

// ---------------------------------------------------------------------------
// Delete / Replace plumbing
// ---------------------------------------------------------------------------

fn flatten(e: &Expr) -> DbResult<(String, Vec<String>)> {
    match e {
        Expr::Var(n) => Ok((n.clone(), Vec::new())),
        Expr::Path(b, a) => {
            let (root, mut steps) = flatten(b)?;
            steps.push(a.clone());
            Ok((root, steps))
        }
        other => Err(DbError::Catalog(format!(
            "unsupported update target {other}"
        ))),
    }
}

/// Where an update lands: a container inside an owner, or a member/object
/// directly.
#[derive(Debug)]
enum UpdateSite {
    /// Edit a set/array at `path` inside the value of `owner`.
    Container { owner: OwnerId, path: Vec<usize> },
}

/// The owner that must be rewritten.
#[derive(Debug, Clone, PartialEq)]
enum OwnerId {
    Object(Oid),
    Member { anchor: Oid, rid: RecordId },
}

#[derive(Debug)]
enum ContainerEdit {
    Insert(Value),
}

/// Static element type of the container `root.steps`.
fn container_elem(
    db: &Database,
    cat: &Catalog,
    params: &Params,
    checked: &CheckedRetrieve,
    root_var: &str,
    steps: &[String],
) -> DbResult<QualType> {
    let view = CatalogView {
        cat,
        store: &db.store,
        db: Some(db),
    };
    let ctx = SemaCtx::new(&cat.types, &cat.adts, &view);
    let mut cur = if let Some(b) = checked.bindings.iter().find(|b| b.var == root_var) {
        b.elem.clone()
    } else if let Some((q, _)) = params.vars.get(root_var) {
        q.clone()
    } else if let Some(obj) = cat.named.get(root_var) {
        obj.qty.clone()
    } else {
        return Err(DbError::Catalog(format!(
            "unknown update root '{root_var}'"
        )));
    };
    for s in steps {
        cur = ctx.attr_type(&cur, s)?;
    }
    match cur.ty.element() {
        Some(e) => Ok(e.clone()),
        None => Err(DbError::Catalog(format!(
            "'{root_var}.{}' is not a set or array",
            steps.join(".")
        ))),
    }
}

/// Resolve the owner object/record and in-value path for a nested update
/// target in one environment.
fn resolve_site(
    db: &Database,
    cat: &Catalog,
    env: &dyn Bindings,
    root_var: &str,
    steps: &[String],
    checked: &CheckedRetrieve,
) -> DbResult<UpdateSite> {
    let view = CatalogView {
        cat,
        store: &db.store,
        db: Some(db),
    };
    let ctx = SemaCtx::new(&cat.types, &cat.adts, &view);
    let snap = db.store.current_snap();
    // Starting point: the root variable's value + identity, or a named
    // object.
    let (mut owner, mut value, mut qty): (OwnerId, Value, QualType) = if let Some(v) =
        env.value(root_var)
    {
        let qty = checked
            .bindings
            .iter()
            .find(|b| b.var == root_var)
            .map(|b| b.elem.clone())
            .ok_or_else(|| DbError::Catalog(format!("untyped update root '{root_var}'")))?;
        match env.ident(root_var) {
            MemberId::Object(oid) => (OwnerId::Object(oid), db.store.value_of_at(oid, snap)?, qty),
            MemberId::Record { anchor, rid } => (OwnerId::Member { anchor, rid }, v.clone(), qty),
            MemberId::Nested { .. } | MemberId::None => {
                return Err(DbError::Catalog(format!(
                    "cannot update through '{root_var}' (no stable identity)"
                )))
            }
        }
    } else if let Some(obj) = cat.named.get(root_var) {
        (
            OwnerId::Object(obj.oid),
            db.store.value_of_at(obj.oid, snap)?,
            obj.qty.clone(),
        )
    } else {
        return Err(DbError::Catalog(format!(
            "unknown update root '{root_var}'"
        )));
    };

    // Walk the steps; crossing a reference moves the owner.
    let mut path: Vec<usize> = Vec::new();
    for s in steps {
        // Dereference the current value if it is a ref.
        while let Value::Ref(oid) = value {
            owner = OwnerId::Object(oid);
            path.clear();
            value = db.store.value_of_at(oid, snap)?;
        }
        let pos = ctx.attr_pos(&qty, s)?;
        qty = ctx.attr_type(&qty, s)?;
        path.push(pos);
        value = match value {
            Value::Tuple(mut fields) if pos < fields.len() => fields.swap_remove(pos),
            Value::Null => {
                return Err(DbError::Model(ModelError::Semantic(format!(
                    "null encountered at '{s}' while updating"
                ))))
            }
            other => {
                return Err(DbError::Model(ModelError::TypeMismatch {
                    expected: "a tuple".into(),
                    got: other.kind().into(),
                }))
            }
        };
    }
    Ok(UpdateSite::Container { owner, path })
}

/// Load an owner's current value.
fn owner_value(db: &Database, owner: &OwnerId) -> DbResult<Value> {
    match owner {
        OwnerId::Object(oid) => Ok(db.store.value_of_at(*oid, db.store.current_snap())?),
        OwnerId::Member { rid, .. } => {
            let bytes = db.store.storage().read(*rid)?;
            Ok(extra_model::valueio::from_bytes(&bytes)?)
        }
    }
}

/// Write an owner's value back (maintaining integrity edges / indexes).
fn write_owner(db: &Database, cat: &Catalog, owner: OwnerId, value: Value) -> DbResult<()> {
    match owner {
        OwnerId::Object(oid) => {
            db.store.set_value(&cat.types, oid, value)?;
            Ok(())
        }
        OwnerId::Member { anchor, rid } => {
            let name = collection_name_of(cat, anchor);
            let old = owner_value(db, &OwnerId::Member { anchor, rid })?;
            if let Some(name) = &name {
                let old_entries = index_entries_for(db, cat, name, anchor, &old)?;
                let new_entries = index_entries_for(db, cat, name, anchor, &value)?;
                index_remove(db, &old_entries, rid)?;
                // Probe uniqueness before mutating; restore on violation.
                if let Err(e) = probe_unique(db, &new_entries) {
                    index_insert(db, &old_entries, rid)?;
                    return Err(e);
                }
                let new_rid = db.store.update_member(anchor, rid, &value)?;
                index_insert(db, &new_entries, new_rid)?;
            } else {
                db.store.update_member(anchor, rid, &value)?;
            }
            Ok(())
        }
    }
}

fn apply_container_edit(
    db: &Database,
    cat: &Catalog,
    site: UpdateSite,
    edit: ContainerEdit,
) -> DbResult<()> {
    let UpdateSite::Container { owner, path } = site;
    let mut value = owner_value(db, &owner)?;
    {
        let slot = navigate_mut(&mut value, &path)?;
        match edit {
            ContainerEdit::Insert(member) => match slot {
                Value::Set(_) => {
                    slot.set_insert(member)?;
                }
                Value::Array(items) => items.push(member),
                Value::Null => *slot = Value::Set(vec![member]),
                other => {
                    return Err(DbError::Model(ModelError::TypeMismatch {
                        expected: "a set or array".into(),
                        got: other.kind().into(),
                    }))
                }
            },
        }
    }
    write_owner(db, cat, owner, value)
}

fn navigate_mut<'v>(value: &'v mut Value, path: &[usize]) -> DbResult<&'v mut Value> {
    let mut cur = value;
    for &pos in path {
        let kind = cur.kind();
        match cur {
            Value::Tuple(fields) if pos < fields.len() => cur = &mut fields[pos],
            _ => {
                return Err(DbError::Model(ModelError::TypeMismatch {
                    expected: "a tuple".into(),
                    got: kind.into(),
                }))
            }
        }
    }
    Ok(cur)
}

// ---------------------------------------------------------------------------
// Delete
// ---------------------------------------------------------------------------

/// `delete <var> [where q]`.
pub(crate) fn delete(
    db: &Database,
    cat: &mut Catalog,
    ranges: &RangeEnv,
    user: &str,
    stmt: &Stmt,
    params: &Params,
    explain: Option<&mut ExplainSink>,
) -> DbResult<crate::database::Response> {
    let Stmt::Delete { target, qual } = stmt else {
        unreachable!("dispatch");
    };
    let Expr::Var(var) = target else {
        return Err(DbError::Catalog(
            "delete targets a range variable or collection name".into(),
        ));
    };
    // Force a binding when the target is a bare collection name.
    let extra_from = synth_from(cat, ranges, var);
    let (bindings, checked) = collect_bindings(
        db,
        cat,
        ranges,
        params,
        vec![target.clone()],
        extra_from,
        qual.clone(),
        explain,
    )?;
    check_update_auth(cat, user, &checked, Privilege::Delete)?;

    // Collect distinct identities.
    let mut objects: Vec<Oid> = Vec::new();
    let mut records: Vec<(Oid, RecordId)> = Vec::new();
    let mut nested: Vec<(UpdateSite, usize)> = Vec::new();
    for env in bindings.iter() {
        match env.ident(var) {
            MemberId::Object(oid) => {
                if !objects.contains(&oid) {
                    objects.push(oid);
                }
            }
            MemberId::Record { anchor, rid } => {
                if !records.contains(&(anchor, rid)) {
                    records.push((anchor, rid));
                }
            }
            MemberId::Nested {
                parent,
                steps,
                index,
            } => {
                let site = resolve_site(db, cat, &env, &parent, &steps, &checked)?;
                nested.push((site, index));
            }
            MemberId::None => {
                return Err(DbError::Catalog(format!(
                    "'{var}' has no stable identity to delete"
                )))
            }
        }
    }

    let n = objects.len() + records.len() + nested.len();
    // Objects: full deletion (cascade + null-out) after removing index
    // entries that point at them.
    for oid in objects {
        if db.store.exists_at(oid, db.store.current_snap())? {
            unindex_object(db, cat, oid)?;
            db.store.delete_object(&cat.types, oid)?;
        }
    }
    // Own members: drop records (plus index entries).
    for (anchor, rid) in records {
        let name = collection_name_of(cat, anchor);
        if let Some(name) = &name {
            let old = owner_value(db, &OwnerId::Member { anchor, rid })?;
            let entries = index_entries_for(db, cat, name, anchor, &old)?;
            index_remove(db, &entries, rid)?;
        }
        db.store.remove_member(&cat.types, anchor, rid)?;
    }
    // Nested members: group by owner, remove indices descending.
    let mut grouped: Vec<(OwnerId, Vec<usize>, Vec<usize>)> = Vec::new();
    for (UpdateSite::Container { owner, path }, index) in nested {
        match grouped
            .iter_mut()
            .find(|(o, p, _)| *o == owner && *p == path)
        {
            Some((_, _, idxs)) => idxs.push(index),
            None => grouped.push((owner, path, vec![index])),
        }
    }
    for (owner, path, mut idxs) in grouped {
        idxs.sort_unstable();
        idxs.dedup();
        let mut value = owner_value(db, &owner)?;
        {
            let slot = navigate_mut(&mut value, &path)?;
            match slot {
                Value::Set(ms) => {
                    for i in idxs.iter().rev() {
                        if *i < ms.len() {
                            ms.remove(*i);
                        }
                    }
                }
                Value::Array(items) => {
                    for i in idxs.iter().rev() {
                        if *i < items.len() {
                            items[*i] = Value::Null;
                        }
                    }
                }
                other => {
                    return Err(DbError::Model(ModelError::TypeMismatch {
                        expected: "a set or array".into(),
                        got: other.kind().into(),
                    }))
                }
            }
        }
        write_owner(db, cat, owner, value)?;
    }
    Ok(crate::database::Response::Done(format!("deleted {n}")))
}

fn synth_from(cat: &Catalog, ranges: &RangeEnv, var: &str) -> Vec<FromBinding> {
    let declared = ranges.get(var).is_some();
    let is_collection = cat.named.get(var).map(|o| o.is_collection).unwrap_or(false);
    if !declared && is_collection {
        vec![FromBinding {
            var: var.to_string(),
            path: Expr::Var(var.to_string()),
        }]
    } else {
        Vec::new()
    }
}

fn check_update_auth(
    cat: &Catalog,
    user: &str,
    checked: &CheckedRetrieve,
    privilege: Privilege,
) -> DbResult<()> {
    for b in &checked.bindings {
        if let excess_sema::RootSource::Collection(o) = &b.root {
            if !cat.auth.allowed(user, &o.name, privilege) {
                return Err(DbError::Auth(format!(
                    "{user} lacks {privilege} on {}",
                    o.name
                )));
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Replace
// ---------------------------------------------------------------------------

/// `replace <var> (attr = e, ...) [where q]`.
pub(crate) fn replace(
    db: &Database,
    cat: &mut Catalog,
    ranges: &RangeEnv,
    user: &str,
    stmt: &Stmt,
    params: &Params,
    explain: Option<&mut ExplainSink>,
) -> DbResult<crate::database::Response> {
    let Stmt::Replace {
        target,
        assignments,
        qual,
    } = stmt
    else {
        unreachable!("dispatch");
    };
    let Expr::Var(var) = target else {
        return Err(DbError::Catalog(
            "replace targets a range variable, collection name or named object".into(),
        ));
    };
    let extra_from = synth_from(cat, ranges, var);
    let mut exprs: Vec<Expr> = vec![target.clone()];
    exprs.extend(assignments.iter().map(|(_, e)| e.clone()));
    let (bindings, checked) = collect_bindings(
        db,
        cat,
        ranges,
        params,
        exprs,
        extra_from,
        qual.clone(),
        explain,
    )?;
    check_update_auth(cat, user, &checked, Privilege::Replace)?;
    if let Some(obj) = cat.named.get(var) {
        if !obj.is_collection && !cat.auth.allowed(user, var, Privilege::Replace) {
            return Err(DbError::Auth(format!("{user} may not replace {var}")));
        }
    }

    // The target's tuple type (for attribute positions + conformance).
    let target_qty = if let Some(b) = checked.bindings.iter().find(|b| &b.var == var) {
        b.elem.clone()
    } else if let Some(obj) = cat.named.get(var) {
        obj.qty.clone()
    } else if let Some((q, _)) = params.vars.get(var) {
        q.clone()
    } else {
        return Err(DbError::Catalog(format!("unknown replace target '{var}'")));
    };
    let view = CatalogView {
        cat,
        store: &db.store,
        db: Some(db),
    };
    let sctx = SemaCtx::new(&cat.types, &cat.adts, &view);
    let mut positions = Vec::with_capacity(assignments.len());
    for (attr, _) in assignments {
        positions.push((
            sctx.attr_pos(&target_qty, attr)?,
            sctx.attr_type(&target_qty, attr)?,
        ));
    }
    drop(sctx);

    // Stage: evaluate new field values per env against the pre-state.
    enum Staged {
        Object(Oid, Vec<(usize, Value)>),
        Record(Oid, RecordId, Vec<(usize, Value)>),
        Nested(OwnerId, Vec<usize>, usize, Vec<(usize, Value)>),
    }
    let vars = update_vars(params, &checked);
    let view = CatalogView {
        cat,
        store: &db.store,
        db: Some(db),
    };
    let snap = db.store.current_snap();
    let ctx = ExecCtx::new(&db.store, &cat.types, &cat.adts, &view, snap)
        .with_batch_size(db.batch_size())
        .with_workers(db.worker_threads())
        .with_metrics(db.exec_metrics());
    let mut staged: Vec<Staged> = Vec::new();
    for env in bindings.iter() {
        let mut updates = Vec::with_capacity(assignments.len());
        for ((_, e), (pos, qty)) in assignments.iter().zip(&positions) {
            let v = eval_expr(db, cat, &ctx, &env, ranges, &vars, e)?;
            v.conforms(qty, &cat.types, &cat.adts)?;
            updates.push((*pos, v));
        }
        match env.ident(var) {
            MemberId::Object(oid) => staged.push(Staged::Object(oid, updates)),
            MemberId::Record { anchor, rid } => staged.push(Staged::Record(anchor, rid, updates)),
            MemberId::Nested {
                parent,
                steps,
                index,
            } => {
                let UpdateSite::Container { owner, path } =
                    resolve_site(db, cat, &env, &parent, &steps, &checked)?;
                staged.push(Staged::Nested(owner, path, index, updates));
            }
            MemberId::None => {
                // A named object without iteration.
                if let Some(obj) = cat.named.get(var) {
                    staged.push(Staged::Object(obj.oid, updates));
                } else {
                    return Err(DbError::Catalog(format!(
                        "'{var}' has no stable identity to replace"
                    )));
                }
            }
        }
    }
    drop(ctx);

    let n = staged.len();
    for s in staged {
        match s {
            Staged::Object(oid, updates) => {
                // Index maintenance on ref-mode members: the member record
                // (a Ref) is unchanged, but indexed attribute values live
                // in the object. Probe unique keys against the prospective
                // value before mutating anything.
                let mut new_value = db.store.value_of_at(oid, snap)?;
                apply_updates(&mut new_value, &updates)?;
                let old = Value::Ref(oid);
                let memberships = db.store.memberships(oid)?;
                let mut removed: Vec<(Oid, RecordId, Vec<IndexEntry>)> = Vec::new();
                let mut violation: Option<DbError> = None;
                for (anchor, rid) in &memberships {
                    if let Some(name) = collection_name_of(cat, *anchor) {
                        let old_entries = index_entries_for(db, cat, &name, *anchor, &old)?;
                        let elem = db.store.collection_elem(*anchor)?;
                        let mut new_entries = Vec::new();
                        for idx in cat.indexes.iter().filter(|i| i.collection == name) {
                            let pos = attr_pos_of(cat, db, &elem, &idx.attr)?;
                            if let Some(key) = member_attr_key(db, &new_value, pos, &cat.adts)? {
                                new_entries.push((idx.root, key, idx.unique, idx.attr.clone()));
                            }
                        }
                        index_remove(db, &old_entries, *rid)?;
                        removed.push((*anchor, *rid, old_entries));
                        if let Err(e) = probe_unique(db, &new_entries) {
                            violation = Some(e);
                            break;
                        }
                    }
                }
                if let Some(e) = violation {
                    // Restore the removed entries; the object is untouched.
                    for (_, rid, entries) in removed {
                        index_insert(db, &entries, rid)?;
                    }
                    return Err(e);
                }
                db.store.set_value(&cat.types, oid, new_value)?;
                for (anchor, rid, _) in removed {
                    if let Some(name) = collection_name_of(cat, anchor) {
                        let entries = index_entries_for(db, cat, &name, anchor, &Value::Ref(oid))?;
                        index_insert(db, &entries, rid)?;
                    }
                }
            }
            Staged::Record(anchor, rid, updates) => {
                let mut value = owner_value(db, &OwnerId::Member { anchor, rid })?;
                apply_updates(&mut value, &updates)?;
                write_owner(db, cat, OwnerId::Member { anchor, rid }, value)?;
            }
            Staged::Nested(owner, path, index, updates) => {
                let mut value = owner_value(db, &owner)?;
                {
                    let slot = navigate_mut(&mut value, &path)?;
                    let item = match slot {
                        Value::Set(ms) if index < ms.len() => &mut ms[index],
                        Value::Array(items) if index < items.len() => &mut items[index],
                        other => {
                            return Err(DbError::Model(ModelError::TypeMismatch {
                                expected: "a set or array".into(),
                                got: other.kind().into(),
                            }))
                        }
                    };
                    apply_updates(item, &updates)?;
                }
                write_owner(db, cat, owner, value)?;
            }
        }
    }
    Ok(crate::database::Response::Done(format!("replaced {n}")))
}

fn apply_updates(value: &mut Value, updates: &[(usize, Value)]) -> DbResult<()> {
    match value {
        Value::Tuple(fields) => {
            for (pos, v) in updates {
                if *pos >= fields.len() {
                    return Err(DbError::Model(ModelError::Semantic(format!(
                        "tuple has {} fields, wanted {pos}",
                        fields.len()
                    ))));
                }
                fields[*pos] = v.clone();
            }
            Ok(())
        }
        other => Err(DbError::Model(ModelError::TypeMismatch {
            expected: "a tuple".into(),
            got: other.kind().into(),
        })),
    }
}

// ---------------------------------------------------------------------------
// Procedures
// ---------------------------------------------------------------------------

/// `execute P(args) [where q]` — invoked once per satisfying binding of
/// the `where` clause (the paper's generalization of IDM stored commands).
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute_procedure(
    db: &Database,
    cat: &mut Catalog,
    ranges: &mut RangeEnv,
    user: &str,
    stmt: &Stmt,
    params: &Params,
    depth: u32,
    explain: Option<&mut ExplainSink>,
) -> DbResult<crate::database::Response> {
    let Stmt::Execute { proc, args, qual } = stmt else {
        unreachable!("dispatch");
    };
    if depth >= MAX_PROC_DEPTH {
        return Err(DbError::Catalog(format!(
            "procedure nesting deeper than {MAX_PROC_DEPTH} (in '{proc}')"
        )));
    }
    let def = cat
        .procedures
        .get(proc)
        .cloned()
        .ok_or_else(|| DbError::Catalog(format!("no procedure '{proc}'")))?;
    if !cat.auth.allowed(user, proc, Privilege::Execute) {
        return Err(DbError::Auth(format!("{user} may not execute {proc}")));
    }
    if args.len() != def.params.len() {
        return Err(DbError::Catalog(format!(
            "'{proc}' takes {} arguments, got {}",
            def.params.len(),
            args.len()
        )));
    }
    let (bindings, checked) = collect_bindings(
        db,
        cat,
        ranges,
        params,
        args.clone(),
        Vec::new(),
        qual.clone(),
        explain,
    )?;
    // Evaluate argument tuples per binding.
    let vars = update_vars(params, &checked);
    let mut calls: Vec<Vec<Value>> = Vec::with_capacity(bindings.len());
    {
        let view = CatalogView {
            cat,
            store: &db.store,
            db: Some(db),
        };
        let snap = db.store.current_snap();
        let ctx = ExecCtx::new(&db.store, &cat.types, &cat.adts, &view, snap)
            .with_batch_size(db.batch_size())
            .with_workers(db.worker_threads())
            .with_metrics(db.exec_metrics());
        for env in bindings.iter() {
            let vals: Vec<Value> = args
                .iter()
                .map(|a| eval_expr(db, cat, &ctx, &env, ranges, &vars, a))
                .collect::<DbResult<_>>()?;
            calls.push(vals);
        }
    }
    let n = calls.len();
    // The body runs with definer rights (data abstraction through
    // procedures, §4.2.3) and its own range scope (range statements in
    // the body do not leak into the caller's session).
    for vals in calls {
        let mut proc_params = Params::default();
        for ((pname, pqty), v) in def.params.iter().zip(vals) {
            v.conforms(pqty, &cat.types, &cat.adts)?;
            proc_params.vars.insert(pname.clone(), (pqty.clone(), v));
        }
        let mut body_ranges = ranges.clone();
        for body_stmt in &def.body {
            crate::database::exec_statement(
                db,
                cat,
                &mut body_ranges,
                crate::catalog::ADMIN,
                body_stmt,
                &proc_params,
                depth + 1,
            )?;
        }
    }
    Ok(crate::database::Response::Done(format!(
        "{proc} executed for {n} bindings"
    )))
}
