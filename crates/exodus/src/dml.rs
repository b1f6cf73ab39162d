//! DML execution: the statement scope, the shared run-and-profile
//! routine, and the one update pipeline behind `append`, `delete`,
//! `replace` and `execute` — with the paper's update semantics
//! (own/ref/own-ref integrity, set-oriented updates over all satisfying
//! bindings) and index maintenance.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use excess_algebra::Physical;
use excess_exec::eval::eval;
use excess_exec::{
    cursor, prepare, run_plan, BatchRow, Bindings, BufferDelta, CExpr, Env, ExecCtx, MemberId,
    Plan, PlanIndex, PlanProfiler, QueryProfile, QueryResult, RowBatch,
};
use excess_lang::{AppendValue, Expr, FromBinding, Lit, Privilege, Stmt, Target};
use excess_sema::resolve::flatten_path;
use excess_sema::{
    lit_value, AggFn, CheckedRetrieve, IndexInfo, Node, RangeEnv, Reads, ResolvedRange, RootSource,
    SemaCtx, SemaError,
};
use exodus_storage::btree::BTree;
use exodus_storage::{Oid, RecordId, StorageError};
use extra_model::{AdtRegistry, ModelError, Ownership, QualType, Type, Value};

use crate::catalog::{Catalog, CatalogView, ADMIN};
use crate::database::{default_value, exec_statement, Database, Response};
use crate::error::{DbError, DbResult};

/// The frame a statement runs in: the enclosing procedure's (or
/// function's) pre-bound parameters and its nesting depth. Top-level
/// statements run in the default, empty frame.
#[derive(Debug, Clone, Default)]
pub(crate) struct Params {
    /// name → (static type, runtime value).
    pub vars: HashMap<String, (QualType, Value)>,
    /// How many `execute`s deep this frame is.
    pub depth: u32,
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

/// EXPLAIN plumbing: captures the plan of a statement's query (for an
/// update, its bindings query) and, under `analyze`, its execution
/// profile. Without `analyze` the statement is only planned — nothing
/// runs, so an update applies to nothing and mutates no state.
#[derive(Default)]
pub(crate) struct ExplainSink {
    /// Execute the statement (`explain analyze`) or only plan it.
    pub analyze: bool,
    /// The rendered physical plan.
    pub plan: Option<String>,
    /// Execution profile (`analyze` only).
    pub profile: Option<QueryProfile>,
}

/// Hand the plan to the sink, if there is one; whether the statement
/// should go on to run (always, unless this is a plan-only `explain`).
fn explain_planned(explain: &mut Option<&mut ExplainSink>, plan: &Plan) -> bool {
    match explain {
        Some(sink) => {
            sink.plan = Some(plan.to_string());
            sink.analyze
        }
        None => true,
    }
}

/// One statement's scope: everything its planning, evaluation and
/// writes resolve against. It alone builds the statement's [`SemaCtx`]
/// and [`ExecCtx`], so every piece of the statement sees the same
/// catalog view, parameters and snapshot.
pub(crate) struct Scope<'a> {
    db: &'a Database,
    cat: &'a Catalog,
    ranges: &'a RangeEnv,
    user: &'a str,
    params: &'a Params,
    /// Every storage read of the statement resolves the record version
    /// visible here: a reader's registered snapshot, or the writing
    /// transaction's own timestamp
    /// ([`ObjectStore::current_snap`](extra_model::ObjectStore::current_snap)).
    snap: u64,
    view: CatalogView<'a>,
}

/// A checked, planned and compiled retrieve-shaped statement.
pub(crate) struct Planned {
    plan: Plan,
    checked: CheckedRetrieve,
}

impl<'a> Scope<'a> {
    pub fn new(
        db: &'a Database,
        cat: &'a Catalog,
        ranges: &'a RangeEnv,
        user: &'a str,
        params: &'a Params,
        snap: u64,
    ) -> Self {
        Scope {
            db,
            cat,
            ranges,
            user,
            params,
            snap,
            view: CatalogView::new(db, cat),
        }
    }

    /// The analyzer context: the session's ranges, with the frame's
    /// parameters in scope.
    fn sema(&self) -> SemaCtx<'_> {
        let mut ctx = SemaCtx::new(&self.cat.types, &self.cat.adts, &self.view);
        ctx.ranges = self.ranges;
        for (name, (qty, _)) in &self.params.vars {
            ctx.vars.insert(name.clone(), qty.clone());
        }
        ctx
    }

    /// A fresh executor context (with its own aggregate tables) reading
    /// at the statement's snapshot.
    fn exec(&self) -> ExecCtx<'_> {
        let db = self.db;
        ExecCtx::new(
            &db.store,
            &self.cat.types,
            &self.cat.adts,
            &self.view,
            self.snap,
        )
        .with_batch_size(db.batch_size())
        .with_workers(db.worker_threads())
        .with_metrics(db.exec_metrics())
    }

    fn allow(&self, object: &str, privilege: Privilege, verb: &str) -> DbResult<()> {
        if self.cat.auth.allowed(self.user, object, privilege) {
            Ok(())
        } else {
            Err(DbError::Auth(format!(
                "{} may not {verb} {object}",
                self.user
            )))
        }
    }

    /// Check, plan and compile a retrieve. Every expression of the
    /// statement is checked here once, and compiled once from what the
    /// checker resolved, by one compiler.
    fn plan(&self, stmt: &Stmt) -> DbResult<Planned> {
        self.plan_reading(stmt, true).map(|(q, _)| q)
    }

    /// [`Scope::plan`], with what checking and planning read beyond the
    /// statement's shape: what a plan made for a statement template
    /// depends on. Unless `projected`, the plan's rows are an update's
    /// bindings, staged outside it, so its unnests bind members whole.
    pub(crate) fn plan_reading(&self, stmt: &Stmt, projected: bool) -> DbResult<(Planned, Reads)> {
        let db = self.db;
        let ctx = self.sema();
        let checked = {
            let _span = db.span("sema", "");
            ctx.check_retrieve(stmt)?
        };
        let _span = db.span("plan", "");
        let mut phys = excess_algebra::plan_retrieve_dop(
            &checked,
            &ctx,
            excess_algebra::PlannerConfig::default(),
            db.worker_threads(),
        )?;
        if projected {
            phys = excess_algebra::retrieve_read_sets(phys, &checked);
        }
        let q = Planned {
            plan: prepare(phys, &ctx)?,
            checked,
        };
        Ok((q, ctx.reads.take()))
    }

    /// The catalog view the statement resolves against.
    pub(crate) fn view(&self) -> &CatalogView<'a> {
        &self.view
    }

    /// What a plan made in this scope holds for beyond its statement:
    /// the catalog stamp, the generation of the range declarations and
    /// the user whose privileges were checked.
    pub(crate) fn made_under(&self) -> (u64, u64, &str) {
        (self.cat.stamp, self.ranges.generation(), self.user)
    }

    /// Run a planned query, its holes bound to `holes`: `pull` drains
    /// it under one fresh executor context and reports its row count.
    /// With `profile`, the context carries a per-operator profiler
    /// (labelled and estimated from the plan itself) and the finished
    /// profile comes back beside the result.
    fn run_query<T>(
        &self,
        q: &Planned,
        holes: &[Lit],
        profile: bool,
        pull: impl FnOnce(&ExecCtx<'_>, &Env) -> DbResult<(T, usize)>,
    ) -> DbResult<(T, Option<QueryProfile>)> {
        let db = self.db;
        let pool = db.store.storage().pool();
        let values: Vec<Value> = holes.iter().map(lit_value).collect();
        let mut ctx = self.exec().with_holes(&values);
        let before = profile.then(|| pool.stats());
        if profile {
            let index = PlanIndex::new(&q.plan, &self.sema(), holes);
            ctx = ctx.with_profiler(PlanProfiler::new(index));
        }
        let env = base_env(self.params);
        let t0 = Instant::now();
        let (out, rows) = {
            let _span = db.span("execute", "");
            pull(&ctx, &env)?
        };
        let profile = ctx.profiler.take().map(|p| {
            p.finish(
                t0.elapsed().as_nanos() as u64,
                rows as u64,
                db.worker_threads(),
                before.map(|b| BufferDelta::between(&b, &pool.stats())),
            )
        });
        Ok((out, profile))
    }
}

/// Read-authorization: the user needs `read` on every named object a
/// query touches directly, and `execute` on every EXCESS function it
/// calls (§4.2.3: schema types can be made abstract by granting access
/// only through their functions) — as the checker resolved them, so a
/// range variable or an ADT function is never mistaken for a catalog
/// name it shares.
fn check_read(scope: &Scope<'_>, checked: &CheckedRetrieve) -> DbResult<()> {
    let mut names: Vec<&str> = range_roots(&checked.bindings).collect();
    let mut fns: Vec<&str> = Vec::new();
    let exprs = checked
        .targets
        .iter()
        .chain(&checked.conjuncts)
        .chain(checked.order_by.as_ref().map(|(k, _)| k));
    for e in exprs {
        e.typed.walk(&mut |t| match &t.node {
            Node::NamedSet(o) | Node::NamedRef(o) | Node::NamedValue(o) => names.push(&o.name),
            Node::Call { def, .. } => fns.push(&def.name),
            Node::Agg(a) => {
                names.extend(range_roots(&a.over));
                if let AggFn::Set(def) = &a.func {
                    fns.push(&def.name);
                }
            }
            _ => {}
        });
    }
    names.sort();
    names.dedup();
    for n in names {
        scope.allow(n, Privilege::Read, "read")?;
    }
    fns.sort();
    fns.dedup();
    for f in fns {
        scope.allow(f, Privilege::Execute, "execute")?;
    }
    Ok(())
}

/// The named objects a list of ranges starts from.
fn range_roots(bindings: &[ResolvedRange]) -> impl Iterator<Item = &str> {
    bindings.iter().filter_map(|b| match &b.root {
        RootSource::Collection(o) | RootSource::Object(o) => Some(o.name.as_str()),
        // System views surface operational state, not stored data:
        // introspection needs no object privilege.
        RootSource::Var(_) | RootSource::System(_) => None,
    })
}

/// Run one DML statement (`retrieve [into]`, `append`, `delete`,
/// `replace`, `execute`) at the writer's own timestamp, feeding
/// `explain` when the statement is being explained. The statement's
/// reads and staged writes go through one [`Scope`]; what then mutates
/// the catalog itself — the set `retrieve into` names, a procedure
/// body's statements — runs after the scope is done.
pub(crate) fn run(
    db: &Database,
    cat: &mut Catalog,
    ranges: &RangeEnv,
    user: &str,
    stmt: &Stmt,
    params: &Params,
    explain: Option<&mut ExplainSink>,
) -> DbResult<Response> {
    let scope = Scope::new(db, cat, ranges, user, params, db.store.current_snap());
    match stmt {
        Stmt::Retrieve { into: None, .. } => Ok(Response::Rows(retrieve(&scope, stmt, explain)?.0)),
        Stmt::Retrieve {
            into: Some(name), ..
        } => {
            // A plan-only explain runs nothing, so it names nothing.
            let plan_only = explain.as_ref().is_some_and(|sink| !sink.analyze);
            let (result, checked) = retrieve(&scope, stmt, explain)?;
            if !plan_only {
                materialize(db, cat, name, &checked, &result)?;
            }
            Ok(Response::Rows(result))
        }
        Stmt::Append { .. } => append(&scope, stmt, explain),
        Stmt::Delete { .. } => delete(&scope, stmt, explain),
        Stmt::Replace { .. } => replace(&scope, stmt, explain),
        Stmt::Execute { .. } => {
            let (def, calls) = procedure_calls(&scope, stmt, explain)?;
            // The body runs with definer rights (data abstraction through
            // procedures, §4.2.3) and its own range scope (range statements
            // in the body do not leak into the caller's session).
            let n = calls.len();
            for vals in calls {
                let mut frame = Params {
                    vars: HashMap::new(),
                    depth: params.depth + 1,
                };
                for ((pname, pqty), v) in def.params.iter().zip(vals) {
                    v.conforms(pqty, &cat.types, &cat.adts)?;
                    frame.vars.insert(pname.clone(), (pqty.clone(), v));
                }
                let mut body_ranges = ranges.clone();
                for body_stmt in &def.body {
                    exec_statement(db, cat, &mut body_ranges, ADMIN, body_stmt, &frame)?;
                }
            }
            Ok(Response::Done(format!(
                "{} executed for {n} bindings",
                def.name
            )))
        }
        // The interpreter dispatches only the verbs above; `explain`
        // hands over whatever statement it wraps.
        _ => Err(DbError::Catalog(
            "explain supports retrieve and update statements".into(),
        )),
    }
}

/// Execute a retrieve: plan, authorize, run. Per-operator metrics land
/// on the result's `profile` field when the database is traced or the
/// statement is being explained; a plan-only `explain` stops after
/// authorization, with an empty result.
pub(crate) fn retrieve(
    scope: &Scope<'_>,
    stmt: &Stmt,
    mut explain: Option<&mut ExplainSink>,
) -> DbResult<(QueryResult, CheckedRetrieve)> {
    let q = scope.plan(stmt)?;
    check_read(scope, &q.checked)?;
    if !explain_planned(&mut explain, &q.plan) {
        return Ok((QueryResult::default(), q.checked));
    }
    let result = run_retrieve(scope, &q, &[], explain)?;
    Ok((result, q.checked))
}

/// Check, plan and compile a retrieve template once: the plan a
/// session caches for the template's shape, with what it depends on
/// beyond that shape. The session's user must be allowed to read it.
pub(crate) fn plan_template(scope: &Scope<'_>, stmt: &Stmt) -> DbResult<(Planned, Reads)> {
    let (q, reads) = scope.plan_reading(stmt, true)?;
    check_read(scope, &q.checked)?;
    Ok((q, reads))
}

/// Run a planned retrieve with its holes bound to `holes`. Per-operator
/// metrics land on the result's `profile` field when the database is
/// traced or the statement is being explained.
pub(crate) fn run_retrieve(
    scope: &Scope<'_>,
    q: &Planned,
    holes: &[Lit],
    explain: Option<&mut ExplainSink>,
) -> DbResult<QueryResult> {
    let profile = explain.is_some() || scope.db.tracer.is_some();
    let (mut result, profile) = scope.run_query(q, holes, profile, |ctx, env| {
        let result = run_plan(&q.plan, ctx, env)?;
        let rows = result.len();
        Ok((result, rows))
    })?;
    if let Some(sink) = explain {
        sink.profile = profile.clone();
    }
    result.profile = profile;
    Ok(result)
}

/// `retrieve into`: materialize the result as a new named snapshot set.
fn materialize(
    db: &Database,
    cat: &mut Catalog,
    name: &str,
    checked: &CheckedRetrieve,
    result: &QueryResult,
) -> DbResult<()> {
    if cat.named.contains_key(name) {
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
        name.to_string(),
        excess_sema::NamedObject {
            name: name.to_string(),
            oid: anchor,
            qty: QualType::own(Type::Set(Box::new(elem))),
            is_collection: true,
        },
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// The update pipeline: bind → stage → resolve → write
// ---------------------------------------------------------------------------

/// The satisfying bindings of an update statement, materialized *before*
/// any mutation (the paper's set-oriented update semantics), with the
/// statement's expressions compiled beside them.
struct Bound {
    rows: RowBatch,
    checked: CheckedRetrieve,
    /// The statement's expressions in the order they were handed to
    /// [`Scope::bind`], compiled once as the bindings query's
    /// projection targets.
    exprs: Vec<CExpr>,
}

impl Scope<'_> {
    /// Plan and run an update's bindings query: a retrieve whose
    /// targets are `exprs` — every expression whose variables must be
    /// bound — over `from` (which forces a binding for an update-target
    /// collection) filtered by `qual`. A plan-only `explain` binds
    /// nothing, so the update applies to nothing.
    fn bind(
        &self,
        exprs: Vec<Expr>,
        from: Vec<FromBinding>,
        qual: Option<&Expr>,
        mut explain: Option<&mut ExplainSink>,
    ) -> DbResult<Bound> {
        let mut targets: Vec<Target> = exprs
            .into_iter()
            .map(|expr| Target { name: None, expr })
            .collect();
        if targets.is_empty() {
            targets.push(Target {
                name: None,
                expr: Expr::Lit(excess_lang::Lit::Int(1)),
            });
        }
        let stmt = Stmt::Retrieve {
            into: None,
            targets,
            from,
            qual: qual.cloned(),
            order_by: None,
        };
        let (q, _) = self.plan_reading(&stmt, false)?;
        if !explain_planned(&mut explain, &q.plan) {
            return Ok(Bound {
                rows: RowBatch::new(),
                checked: q.checked,
                exprs: Vec::new(),
            });
        }
        let Physical::Project { input, .. } = &q.plan else {
            return Err(DbError::Catalog("update plan has no projection".into()));
        };
        // Pull the projection's input, not the projection: the update
        // needs the bindings (values plus update identities), and
        // evaluates the targets itself while staging.
        let (rows, profile) = self.run_query(&q, &[], explain.is_some(), |ctx, env| {
            let index = ctx.profiler.as_ref().map(|p| p.index());
            let slot = index.and_then(|ix| ix.slot_of(&q.plan));
            let t0 = Instant::now();
            let mut all = RowBatch::new();
            let mut cur = cursor::open(input, RowBatch::single(env), index);
            while let Some(batch) = cur.next(ctx)? {
                ctx.prof_in(slot, batch.len());
                if let (Some(p), Some(slot)) = (&ctx.profiler, slot) {
                    p.record_out(slot, batch.len());
                }
                all.append(batch);
            }
            if let (Some(p), Some(slot)) = (&ctx.profiler, slot) {
                p.record_ns(slot, t0.elapsed().as_nanos() as u64);
            }
            let rows = all.len();
            Ok((all, rows))
        })?;
        if let Some(sink) = explain {
            sink.profile = profile;
        }
        let Physical::Project { targets, .. } = q.plan else {
            unreachable!("matched above")
        };
        Ok(Bound {
            rows,
            checked: q.checked,
            exprs: targets.into_iter().map(|(_, e)| e.expr).collect(),
        })
    }
}

impl Bound {
    /// Stage the update: call `f` once per binding with an evaluator
    /// for the statement's `i`-th expression. Everything evaluates
    /// against the pre-state, under one executor context, before the
    /// caller writes anything.
    fn stage<T>(
        &self,
        scope: &Scope<'_>,
        mut f: impl FnMut(&BatchRow<'_>, &dyn Fn(usize) -> DbResult<Value>) -> DbResult<T>,
    ) -> DbResult<Vec<T>> {
        let ctx = scope.exec();
        self.rows
            .iter()
            .map(|env| f(&env, &|i| Ok(eval(&self.exprs[i], &ctx, &env)?)))
            .collect()
    }
}

/// The stored thing an update rewrites: an object, or an `own`-mode
/// member record of a collection.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Owner {
    Object(Oid),
    Member { anchor: Oid, rid: RecordId },
}

/// The identity every update resolves its target to: a position inside
/// the stored value of `owner` — tuple field positions and, for an item
/// of a nested set or array, its index there. An empty path is the
/// owner itself (an object, or a collection member).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Site {
    owner: Owner,
    path: Vec<usize>,
}

impl Site {
    fn object(oid: Oid) -> Site {
        Site {
            owner: Owner::Object(oid),
            path: Vec::new(),
        }
    }
}

/// One index entry of a member: the index and the member's key in it.
type IndexEntry<'a> = (&'a IndexInfo, Vec<u8>);

/// A collection record's index entries before and after a write.
/// `rid` is absent for a record the write creates.
struct IndexMove<'a> {
    rid: Option<RecordId>,
    old: Vec<IndexEntry<'a>>,
    new: Vec<IndexEntry<'a>>,
}

fn key_violation(attr: &str) -> DbError {
    DbError::Model(ModelError::Integrity(format!(
        "key violation: a member with this '{attr}' already exists"
    )))
}

/// Key bytes for a member's indexed attribute (dereferencing ref-mode
/// members). `None` for nulls — indexes do not cover null keys.
pub(crate) fn member_attr_key(
    db: &Database,
    member: &Value,
    pos: usize,
    adts: &AdtRegistry,
) -> DbResult<Option<Vec<u8>>> {
    let field = match db.store.deref(member.clone(), db.store.current_snap())? {
        Value::Tuple(mut fields) if pos < fields.len() => fields.swap_remove(pos),
        _ => return Ok(None),
    };
    if field.is_null() {
        return Ok(None);
    }
    Ok(field.key_encode(adts))
}

impl<'a> Scope<'a> {
    /// The indexes over the collection anchored at `anchor`, each with
    /// its attribute's position in the element tuple. Resolved once per
    /// collection, not per member.
    pub fn indexes_on(&self, anchor: Oid) -> DbResult<Vec<(&'a IndexInfo, usize)>> {
        let cat: &'a Catalog = self.cat;
        let Some(coll) = cat
            .named
            .values()
            .find(|o| o.is_collection && o.oid == anchor)
        else {
            return Ok(Vec::new());
        };
        let mut indexes = cat
            .indexes
            .iter()
            .filter(|i| i.collection == coll.name)
            .peekable();
        if indexes.peek().is_none() {
            return Ok(Vec::new());
        }
        let elem = self.db.store.collection_elem(anchor)?;
        let ctx = self.sema();
        indexes
            .map(|i| Ok((i, ctx.attr(&elem, &i.attr)?.0)))
            .collect()
    }

    fn index_entries(
        &self,
        indexes: &[(&'a IndexInfo, usize)],
        member: &Value,
    ) -> DbResult<Vec<IndexEntry<'a>>> {
        let mut out = Vec::new();
        for &(idx, pos) in indexes {
            if let Some(key) = member_attr_key(self.db, member, pos, &self.cat.adts)? {
                out.push((idx, key));
            }
        }
        Ok(out)
    }

    /// The one index-maintaining write. In order: remove the old
    /// entries; probe the unique keys among the new ones, putting the
    /// old entries back on a violation so a rejected write leaves no
    /// trace; `write` the store (it reports the record id when it
    /// places or moves the record); insert the new entries.
    fn write_indexed(
        &self,
        moves: &[IndexMove<'_>],
        write: impl FnOnce() -> DbResult<Option<RecordId>>,
    ) -> DbResult<()> {
        let pool = self.db.store.storage().pool();
        let old = || {
            moves
                .iter()
                .filter_map(|m| Some((m.rid?.pack(), &m.old)))
                .flat_map(|(at, entries)| entries.iter().map(move |e| (at, e)))
        };
        for (at, (idx, key)) in old() {
            BTree::open(idx.root).delete(pool, key, at)?;
        }
        for (idx, key) in moves.iter().flat_map(|m| &m.new) {
            if idx.unique && !BTree::open(idx.root).lookup(pool, key)?.is_empty() {
                for (at, (idx, key)) in old() {
                    BTree::open(idx.root).insert(pool, key, at, false)?;
                }
                return Err(key_violation(&idx.attr));
            }
        }
        let placed = write()?;
        for m in moves {
            for (idx, key) in &m.new {
                let at = placed
                    .or(m.rid)
                    .expect("a write that creates a record reports its id");
                BTree::open(idx.root)
                    .insert(pool, key, at.pack(), idx.unique)
                    .map_err(|e| match e {
                        StorageError::DuplicateKey => key_violation(&idx.attr),
                        other => other.into(),
                    })?;
            }
        }
        Ok(())
    }

    /// Coerce an appended value to a member of a collection of `elem`:
    /// `own` elements copy through references (value semantics); for
    /// reference-mode elements a constructed tuple becomes a new object.
    pub fn as_member(&self, elem: &QualType, value: Value) -> DbResult<Value> {
        let (db, cat) = (self.db, self.cat);
        match (elem.mode, value) {
            (Ownership::Own, v) => {
                let v = db.store.deref(v, self.snap)?;
                v.conforms(elem, &cat.types, &cat.adts)?;
                Ok(v)
            }
            (_, v @ Value::Ref(_)) => Ok(v),
            (_, v @ Value::Tuple(_)) => {
                let obj_q = QualType::own(elem.ty.clone());
                Ok(Value::Ref(db.store.create_object(&cat.types, &obj_q, v)?))
            }
            (_, other) => Err(DbError::Model(ModelError::TypeMismatch {
                expected: "a reference or tuple".into(),
                got: other.kind().into(),
            })),
        }
    }

    /// Insert one member into a collection whose indexes are `indexes`.
    pub fn insert_member(
        &self,
        indexes: &[(&'a IndexInfo, usize)],
        anchor: Oid,
        member: Value,
    ) -> DbResult<()> {
        let mv = IndexMove {
            rid: None,
            old: Vec::new(),
            new: self.index_entries(indexes, &member)?,
        };
        self.write_indexed(&[mv], || {
            let store = &self.db.store;
            Ok(Some(store.append_member(
                &self.cat.types,
                anchor,
                member,
            )?))
        })
    }

    /// Load an owner's current value.
    fn owner_value(&self, owner: &Owner) -> DbResult<Value> {
        match owner {
            Owner::Object(oid) => Ok(self.db.store.value_of_at(*oid, self.snap)?),
            Owner::Member { rid, .. } => {
                let bytes = self.db.store.storage().read(*rid)?;
                Ok(extra_model::valueio::from_bytes(&bytes)?)
            }
        }
    }

    /// Write an owner's new value back — or, for `None`, delete the
    /// owner — maintaining integrity edges and the indexes of every
    /// collection the owner is a member of. A reference-mode member's
    /// record (a `Ref`) never changes, but its indexed attribute values
    /// live in the object, so an object write moves the entries of all
    /// its memberships.
    fn write_owner(&self, owner: &Owner, new: Option<Value>) -> DbResult<()> {
        let (store, types) = (&self.db.store, &self.cat.types);
        let mut moves = Vec::new();
        let slots = match owner {
            Owner::Object(oid) => store.memberships(*oid)?,
            Owner::Member { anchor, rid } => vec![(*anchor, *rid)],
        };
        for (anchor, rid) in slots {
            let indexes = self.indexes_on(anchor)?;
            if indexes.is_empty() {
                continue;
            }
            let old = match owner {
                Owner::Object(oid) => Value::Ref(*oid),
                Owner::Member { .. } => self.owner_value(owner)?,
            };
            moves.push(IndexMove {
                rid: Some(rid),
                old: self.index_entries(&indexes, &old)?,
                new: match &new {
                    Some(v) => self.index_entries(&indexes, v)?,
                    None => Vec::new(),
                },
            });
        }
        self.write_indexed(&moves, || {
            match (owner, new) {
                (Owner::Object(oid), Some(v)) => store.set_value(types, *oid, v)?,
                (Owner::Object(oid), None) => store.delete_object(types, *oid)?,
                (Owner::Member { anchor, rid }, Some(v)) => {
                    return Ok(Some(store.update_member(*anchor, *rid, &v)?))
                }
                (Owner::Member { anchor, rid }, None) => {
                    store.remove_member(types, *anchor, *rid)?
                }
            }
            Ok(None)
        })
    }

    /// Rewrite the value at `site` in place and write its owner back.
    fn edit(&self, site: &Site, edit: impl FnOnce(&mut Value) -> DbResult<()>) -> DbResult<()> {
        let mut value = self.owner_value(&site.owner)?;
        edit(navigate_mut(&mut value, &site.path)?)?;
        self.write_owner(&site.owner, Some(value))
    }

    /// The site of the update target bound to `var` in one binding;
    /// `None` when the binding carries no stable identity.
    fn site_of(
        &self,
        env: &dyn Bindings,
        var: &str,
        checked: &CheckedRetrieve,
    ) -> DbResult<Option<Site>> {
        let owner = match env.ident(var) {
            MemberId::Object(oid) => Owner::Object(oid),
            MemberId::Record { anchor, rid } => Owner::Member { anchor, rid },
            MemberId::Nested { container, index } => {
                let (parent, steps) = &*container;
                let mut site = self.resolve_site(env, parent, steps, checked)?;
                site.path.push(index);
                return Ok(Some(site));
            }
            MemberId::None => return Ok(None),
        };
        Ok(Some(Site {
            owner,
            path: Vec::new(),
        }))
    }

    /// Resolve the owner object/record and in-value path of the
    /// container `root_var.steps` in one binding.
    fn resolve_site(
        &self,
        env: &dyn Bindings,
        root_var: &str,
        steps: &[String],
        checked: &CheckedRetrieve,
    ) -> DbResult<Site> {
        let (db, cat, snap) = (self.db, self.cat, self.snap);
        let ctx = self.sema();
        // Starting point: the root variable's value and site, or a named
        // object.
        let (mut site, mut value, mut qty) = if let Some(v) = env.value(root_var) {
            let qty = checked
                .bindings
                .iter()
                .find(|b| b.var == root_var)
                .map(|b| b.elem.clone())
                .ok_or_else(|| DbError::Catalog(format!("untyped update root '{root_var}'")))?;
            let site = self.site_of(env, root_var, checked)?.ok_or_else(|| {
                DbError::Catalog(format!(
                    "cannot update through '{root_var}' (no stable identity)"
                ))
            })?;
            (site, v.clone(), qty)
        } else if let Some(obj) = cat.named.get(root_var) {
            (Site::object(obj.oid), Value::Ref(obj.oid), obj.qty.clone())
        } else {
            return Err(DbError::Catalog(format!(
                "unknown update root '{root_var}'"
            )));
        };

        // Walk the steps; crossing a reference moves the owner.
        for s in steps {
            while let Value::Ref(oid) = value {
                site = Site::object(oid);
                value = db.store.value_of_at(oid, snap)?;
            }
            let (pos, step_qty) = ctx.attr(&qty, s)?;
            qty = step_qty;
            site.path.push(pos);
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
        Ok(site)
    }

    /// Static type of the update target `var`: a bound range variable,
    /// a parameter, or a named object.
    fn target_type(&self, checked: &CheckedRetrieve, var: &str) -> Option<QualType> {
        if let Some(b) = checked.bindings.iter().find(|b| b.var == var) {
            Some(b.elem.clone())
        } else if let Some((q, _)) = self.params.vars.get(var) {
            Some(q.clone())
        } else {
            self.cat.named.get(var).map(|obj| obj.qty.clone())
        }
    }
}

/// Step to the value at `path` inside `value`: tuple field positions
/// and set/array item indexes.
fn navigate_mut<'v>(value: &'v mut Value, path: &[usize]) -> DbResult<&'v mut Value> {
    let mut cur = value;
    for &pos in path {
        let kind = cur.kind();
        match cur {
            Value::Tuple(items) | Value::Set(items) | Value::Array(items) if pos < items.len() => {
                cur = &mut items[pos]
            }
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

fn not_a_container(got: &Value) -> DbError {
    DbError::Model(ModelError::TypeMismatch {
        expected: "a set or array".into(),
        got: got.kind().into(),
    })
}

// ---------------------------------------------------------------------------
// Append
// ---------------------------------------------------------------------------

/// Build a member value for a collection element type from `append`
/// assignments.
fn member_from_assignments(
    cat: &Catalog,
    elem: &QualType,
    assignments: &[(&String, Value)],
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
                attr: (*name).clone(),
            }));
        }
    }
    let fields: Vec<Value> = st
        .attributes()
        .map(|a| {
            assignments
                .iter()
                .find(|(n, _)| **n == a.name)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| default_value(&a.qty, &cat.types))
        })
        .collect();
    let tuple = Value::Tuple(fields);
    tuple.conforms(&QualType::own(Type::Schema(tid)), &cat.types, &cat.adts)?;
    Ok(tuple)
}

/// Insert `member` into the set or array of type `container` at `slot`.
/// The grown container must conform like any other write: a
/// fixed-length array has no room for another item.
fn insert_into(slot: &mut Value, member: Value, container: &Type, cat: &Catalog) -> DbResult<()> {
    match slot {
        Value::Set(_) => {
            slot.set_insert(member);
        }
        Value::Array(items) => items.push(member),
        Value::Null if matches!(container, Type::Array(..)) => *slot = Value::Array(vec![member]),
        Value::Null => *slot = Value::Set(vec![member]),
        other => return Err(not_a_container(other)),
    }
    let container = QualType::own(container.clone());
    Ok(slot.conforms(&container, &cat.types, &cat.adts)?)
}

/// `append [to] target (...) [where q]`.
fn append(scope: &Scope<'_>, stmt: &Stmt, explain: Option<&mut ExplainSink>) -> DbResult<Response> {
    let Stmt::Append {
        target,
        value,
        qual,
    } = stmt
    else {
        unreachable!("dispatch");
    };
    let (db, cat) = (scope.db, scope.cat);
    // The value's expressions lead the bindings query, so the staged
    // evaluator finds assignment `i` (or the one value expression) at `i`.
    let mut exprs: Vec<Expr> = match value {
        AppendValue::Assignments(assigns) => assigns.iter().map(|(_, e)| e.clone()).collect(),
        AppendValue::Expr(e) => vec![e.clone()],
    };
    let member_of = |elem: &QualType, eval: &dyn Fn(usize) -> DbResult<Value>| match value {
        AppendValue::Assignments(assigns) => {
            let vals = assigns
                .iter()
                .enumerate()
                .map(|(i, (n, _))| Ok((n, eval(i)?)))
                .collect::<DbResult<Vec<_>>>()?;
            member_from_assignments(cat, elem, &vals)
        }
        AppendValue::Expr(_) => eval(0),
    };
    let named = match target {
        Expr::Var(name) => cat.named.get(name),
        _ => None,
    };
    match (target, named) {
        // append to <NamedCollection> ...
        (Expr::Var(name), Some(obj)) if obj.is_collection => {
            scope.allow(name, Privilege::Append, "append to")?;
            let bound = scope.bind(exprs, Vec::new(), qual.as_ref(), explain)?;
            let elem = db.store.collection_elem(obj.oid)?;
            let staged = bound.stage(scope, |_, eval| member_of(&elem, eval))?;
            let indexes = scope.indexes_on(obj.oid)?;
            let n = staged.len();
            for v in staged {
                scope.insert_member(&indexes, obj.oid, scope.as_member(&elem, v)?)?;
            }
            Ok(Response::Done(format!("appended {n} to {name}")))
        }
        // append to <var-array object> <expr> — push.
        (Expr::Var(name), Some(obj)) if matches!(obj.qty.ty, Type::Array(None, _)) => {
            let AppendValue::Expr(_) = value else {
                return Err(DbError::Catalog(
                    "arrays take a value expression, not assignments".into(),
                ));
            };
            scope.allow(name, Privilege::Append, "append to")?;
            let bound = scope.bind(exprs, Vec::new(), qual.as_ref(), explain)?;
            let staged = bound.stage(scope, |_, eval| eval(0))?;
            let n = staged.len();
            for v in staged {
                scope.edit(&Site::object(obj.oid), |slot| {
                    insert_into(slot, v, &obj.qty.ty, cat)
                })?;
            }
            Ok(Response::Done(format!("appended {n} to {name}")))
        }
        // append to <array>[i] <expr> — slot assignment.
        (Expr::Index(base, idx), _) => {
            let AppendValue::Expr(vexpr) = value else {
                return Err(DbError::Catalog(
                    "array slots take a value expression, not assignments".into(),
                ));
            };
            let Expr::Var(obj_name) = &**base else {
                return Err(DbError::Catalog(
                    "array slot assignment requires a named array object".into(),
                ));
            };
            let obj = cat
                .named
                .get(obj_name)
                .ok_or_else(|| DbError::Catalog(format!("no named object '{obj_name}'")))?;
            scope.allow(obj_name, Privilege::Replace, "update")?;
            let Type::Array(_, elem) = &obj.qty.ty else {
                return Err(DbError::Catalog(format!("'{obj_name}' is not an array")));
            };
            let exprs = vec![(**idx).clone(), vexpr.clone()];
            let bound = scope.bind(exprs, Vec::new(), qual.as_ref(), explain)?;
            let index = &bound.checked.output[0].1;
            if !matches!(&index.ty, Type::Base(b) if b.is_integer()) && index.ty != Type::Unknown {
                return Err(DbError::Sema(SemaError::TypeMismatch {
                    expected: "integer index".into(),
                    got: cat.types.display_qual(index),
                }));
            }
            // A null index names no slot.
            let staged = bound.stage(scope, |_, eval| Ok((eval(0)?.as_i64(), eval(1)?)))?;
            for (i, v) in staged.into_iter().filter_map(|(i, v)| Some((i?, v))) {
                scope.edit(&Site::object(obj.oid), |slot| match slot {
                    Value::Array(items) => {
                        if i < 1 || i as usize > items.len() {
                            return Err(DbError::Model(ModelError::IndexOutOfRange {
                                index: i,
                                len: items.len(),
                            }));
                        }
                        v.conforms(elem, &cat.types, &cat.adts)?;
                        items[i as usize - 1] = v;
                        Ok(())
                    }
                    other => Err(DbError::Model(ModelError::TypeMismatch {
                        expected: "an array".into(),
                        got: other.kind().into(),
                    })),
                })?;
            }
            Ok(Response::Done(format!("{obj_name} updated")))
        }
        // append to <path>.<set attr> ... — nested set append.
        (Expr::Path(_, _), _) => {
            let (root_var, steps) = flatten_path(target)?;
            exprs.push(target.clone());
            let bound = scope.bind(exprs, Vec::new(), qual.as_ref(), explain)?;
            // Authorization: appending inside members of a collection.
            for b in &bound.checked.bindings {
                if let RootSource::Collection(o) = &b.root {
                    scope.allow(&o.name, Privilege::Append, "append into")?;
                }
            }
            // Static element type of the container `root.steps`.
            let ctx = scope.sema();
            let mut container = scope
                .target_type(&bound.checked, &root_var)
                .ok_or_else(|| DbError::Catalog(format!("unknown update root '{root_var}'")))?;
            for s in &steps {
                container = ctx.attr(&container, s)?.1;
            }
            let Some(elem) = container.ty.element() else {
                return Err(DbError::Catalog(format!(
                    "'{root_var}.{}' is not a set or array",
                    steps.join(".")
                )));
            };
            let staged = bound.stage(scope, |env, eval| {
                let member = member_of(elem, eval)?;
                let site = scope.resolve_site(env, &root_var, &steps, &bound.checked)?;
                Ok((site, member))
            })?;
            let n = staged.len();
            for (site, v) in staged {
                // Assigned tuples become members (objects, for reference-mode
                // elements); a value expression is inserted as evaluated.
                let member = match value {
                    AppendValue::Assignments(_) => scope.as_member(elem, v)?,
                    AppendValue::Expr(_) => v,
                };
                scope.edit(&site, |slot| insert_into(slot, member, &container.ty, cat))?;
            }
            Ok(Response::Done(format!("appended {n}")))
        }
        (other, _) => Err(DbError::Catalog(format!("cannot append to {other}"))),
    }
}

// ---------------------------------------------------------------------------
// Delete / Replace
// ---------------------------------------------------------------------------

/// Force a binding when an update's target is a bare collection name.
fn synth_from(scope: &Scope<'_>, var: &str) -> Vec<FromBinding> {
    let declared = scope.ranges.get(var).is_some();
    let is_collection = scope.cat.named.get(var).is_some_and(|o| o.is_collection);
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
    scope: &Scope<'_>,
    checked: &CheckedRetrieve,
    privilege: Privilege,
) -> DbResult<()> {
    for b in &checked.bindings {
        if let RootSource::Collection(o) = &b.root {
            if !scope.cat.auth.allowed(scope.user, &o.name, privilege) {
                return Err(DbError::Auth(format!(
                    "{} lacks {privilege} on {}",
                    scope.user, o.name
                )));
            }
        }
    }
    Ok(())
}

/// `delete <var> [where q]`.
fn delete(scope: &Scope<'_>, stmt: &Stmt, explain: Option<&mut ExplainSink>) -> DbResult<Response> {
    let Stmt::Delete { target, qual } = stmt else {
        unreachable!("dispatch");
    };
    let Expr::Var(var) = target else {
        return Err(DbError::Catalog(
            "delete targets a range variable or collection name".into(),
        ));
    };
    let from = synth_from(scope, var);
    let bound = scope.bind(vec![target.clone()], from, qual.as_ref(), explain)?;
    check_update_auth(scope, &bound.checked, Privilege::Delete)?;

    // Distinct targets, in binding order.
    let mut seen = HashSet::new();
    let mut sites = bound.stage(scope, |env, _| {
        scope
            .site_of(env, var, &bound.checked)?
            .ok_or_else(|| DbError::Catalog(format!("'{var}' has no stable identity to delete")))
    })?;
    sites.retain(|s| seen.insert(s.clone()));
    let n = sites.len();

    // Whole owners go at once — objects by full deletion (cascade +
    // null-out), own members by dropping their record. Items of nested
    // sets and arrays are grouped by container, so each container is
    // rewritten once, its indexes removed in descending order.
    let mut containers: Vec<(Site, Vec<usize>)> = Vec::new();
    let mut group_of: HashMap<Site, usize> = HashMap::new();
    for mut site in sites {
        match site.path.pop() {
            None => {
                if let Owner::Object(oid) = site.owner {
                    if !scope.db.store.exists_at(oid, scope.snap)? {
                        continue;
                    }
                }
                scope.write_owner(&site.owner, None)?;
            }
            Some(index) => {
                let g = *group_of.entry(site.clone()).or_insert(containers.len());
                if g == containers.len() {
                    containers.push((site, Vec::new()));
                }
                containers[g].1.push(index);
            }
        }
    }
    for (site, mut idxs) in containers {
        idxs.sort_unstable();
        scope.edit(&site, |slot| match slot {
            Value::Set(ms) => {
                for &i in idxs.iter().rev() {
                    if i < ms.len() {
                        ms.remove(i);
                    }
                }
                Ok(())
            }
            Value::Array(items) => {
                for &i in &idxs {
                    if let Some(item) = items.get_mut(i) {
                        *item = Value::Null;
                    }
                }
                Ok(())
            }
            other => Err(not_a_container(other)),
        })?;
    }
    Ok(Response::Done(format!("deleted {n}")))
}

/// `replace <var> (attr = e, ...) [where q]`.
fn replace(
    scope: &Scope<'_>,
    stmt: &Stmt,
    explain: Option<&mut ExplainSink>,
) -> DbResult<Response> {
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
    let cat = scope.cat;
    let from = synth_from(scope, var);
    let mut exprs: Vec<Expr> = vec![target.clone()];
    exprs.extend(assignments.iter().map(|(_, e)| e.clone()));
    let bound = scope.bind(exprs, from, qual.as_ref(), explain)?;
    check_update_auth(scope, &bound.checked, Privilege::Replace)?;
    let named = cat.named.get(var).filter(|o| !o.is_collection);
    if named.is_some() {
        scope.allow(var, Privilege::Replace, "replace")?;
    }

    // The target's tuple type (for attribute positions + conformance).
    let target_qty = scope
        .target_type(&bound.checked, var)
        .ok_or_else(|| DbError::Catalog(format!("unknown replace target '{var}'")))?;
    let ctx = scope.sema();
    let fields = assignments
        .iter()
        .map(|(attr, _)| ctx.attr(&target_qty, attr))
        .collect::<Result<Vec<_>, _>>()?;

    let staged = bound.stage(scope, |env, eval| {
        let mut updates = Vec::with_capacity(fields.len());
        for (i, (pos, qty)) in fields.iter().enumerate() {
            // Expression 0 is the target itself.
            let v = eval(i + 1)?;
            v.conforms(qty, &cat.types, &cat.adts)?;
            updates.push((*pos, v));
        }
        let site = match scope.site_of(env, var, &bound.checked)? {
            Some(site) => site,
            // A named object without iteration.
            None => Site::object(
                named
                    .ok_or_else(|| {
                        DbError::Catalog(format!("'{var}' has no stable identity to replace"))
                    })?
                    .oid,
            ),
        };
        Ok((site, updates))
    })?;

    let n = staged.len();
    for (site, updates) in staged {
        scope.edit(&site, |target| match target {
            Value::Tuple(fields) => {
                for (pos, v) in updates {
                    if pos >= fields.len() {
                        return Err(DbError::Model(ModelError::Semantic(format!(
                            "tuple has {} fields, wanted {pos}",
                            fields.len()
                        ))));
                    }
                    fields[pos] = v;
                }
                Ok(())
            }
            other => Err(DbError::Model(ModelError::TypeMismatch {
                expected: "a tuple".into(),
                got: other.kind().into(),
            })),
        })?;
    }
    Ok(Response::Done(format!("replaced {n}")))
}

// ---------------------------------------------------------------------------
// Procedures
// ---------------------------------------------------------------------------

/// `execute P(args) [where q]` — invoked once per satisfying binding of
/// the `where` clause (the paper's generalization of IDM stored
/// commands). Stages the calls: the procedure and one argument tuple
/// per binding, all evaluated before any body runs.
fn procedure_calls(
    scope: &Scope<'_>,
    stmt: &Stmt,
    explain: Option<&mut ExplainSink>,
) -> DbResult<(excess_sema::ProcedureDef, Vec<Vec<Value>>)> {
    let Stmt::Execute { proc, args, qual } = stmt else {
        unreachable!("dispatch");
    };
    if scope.params.depth >= MAX_PROC_DEPTH {
        return Err(DbError::Catalog(format!(
            "procedure nesting deeper than {MAX_PROC_DEPTH} (in '{proc}')"
        )));
    }
    let def = scope
        .cat
        .procedures
        .get(proc)
        .cloned()
        .ok_or_else(|| DbError::Catalog(format!("no procedure '{proc}'")))?;
    scope.allow(proc, Privilege::Execute, "execute")?;
    if args.len() != def.params.len() {
        return Err(DbError::Catalog(format!(
            "'{proc}' takes {} arguments, got {}",
            def.params.len(),
            args.len()
        )));
    }
    let bound = scope.bind(args.clone(), Vec::new(), qual.as_ref(), explain)?;
    let calls = bound.stage(scope, |_, eval| (0..args.len()).map(eval).collect())?;
    Ok((def, calls))
}
