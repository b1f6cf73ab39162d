//! Path slots: how attribute paths reach through references.
//!
//! The compiler gives every distinct path rooted at a variable or a
//! named object — `E.salary`, `E.dept`, `E.dept.budget`,
//! `Employees.kids` — a slot in the [`Paths`] table of the operator
//! whose expressions use it. That operator calls [`Paths::resolve`] once
//! per batch: for each group of slots sharing a base it collects the
//! base column's references, sorts and dedupes their oids (1,024
//! employees name at most as many departments as exist), fetches the
//! wanted fields of all of them in one page-grouped storage visit
//! ([`ObjectStore::fields_of_many_at`](extra_model::ObjectStore::fields_of_many_at)),
//! and scatters the values back into a column the row evaluator reads
//! by slot index.
//!
//! Resolution never raises what a row might not have evaluated: an
//! object the batched read declines (invisible head version, LOB
//! payload, non-tuple value) takes the per-object path, and a row whose
//! path fails there is left unresolved, so the error surfaces — with
//! the per-object path's text — only if the row evaluator actually gets
//! to that expression. A base column holding no reference at all (own
//! tuples) is left alone entirely: projecting a field out of a bound
//! tuple needs no column of copies. A step from a variable bound as
//! attribute columns (an unnest's read set) is that batch column.

use exodus_storage::Oid;
use extra_model::{ModelResult, Value};

use crate::batch::{attr_column, BatchRow, Bindings, RowBatch};
use crate::env::MemberId;
use crate::eval::{attr_of, ExecCtx, NULL};

/// What a path slot steps from.
#[derive(Debug, PartialEq)]
pub enum PathBase {
    /// A bound variable.
    Var(String),
    /// A named object, as the reference to it.
    Object(Value),
    /// Another slot of the same table (always an earlier one).
    Slot(usize),
}

/// One step of a path: field `pos` of the value at `base`, through
/// references.
#[derive(Debug)]
pub struct PathSlot {
    /// Where the step starts.
    pub base: PathBase,
    /// Field position.
    pub pos: usize,
    /// Whether [`Paths::resolve`] fetches it through references; an
    /// unnest that reads its members' attributes off their owners'
    /// records fetches its source itself.
    pub fetch: bool,
}

/// The path slots of one operator's expressions, parents before
/// children.
#[derive(Debug, Default)]
pub struct Paths(Vec<PathSlot>);

/// One resolved slot: a value per row, except the `failed` rows (sorted),
/// which the row evaluator computes — or fails on — itself.
struct SlotCol {
    vals: Vec<Value>,
    failed: Vec<usize>,
}

impl SlotCol {
    fn get(&self, row: usize) -> Option<&Value> {
        (self.failed.is_empty() || self.failed.binary_search(&row).is_err())
            .then(|| &self.vals[row])
    }
}

/// How a slot is resolved for a batch.
enum Slot {
    /// Fetched through references for this batch.
    Fetched(SlotCol),
    /// Batch column `.0`: an attribute its variable is bound as.
    Column(usize),
}

/// Borrowed access to the base values of a slot group.
enum Access<'a> {
    /// A batch column.
    Col(&'a [Value]),
    /// A resolved parent slot.
    Slot(&'a SlotCol),
    /// The same value on every row.
    One(&'a Value),
    /// A field of an unresolved (reference-free) parent.
    Field(Box<Access<'a>>, usize),
    /// The variable is not a column of this batch.
    Missing,
}

impl<'a> Access<'a> {
    fn get(&self, row: usize) -> Option<&'a Value> {
        match self {
            Access::Col(vals) => Some(&vals[row]),
            Access::Slot(col) => col.get(row),
            Access::One(v) => Some(v),
            Access::Field(base, pos) => match base.get(row)? {
                Value::Tuple(fields) => fields.get(*pos),
                Value::Null => Some(&NULL),
                _ => None,
            },
            Access::Missing => None,
        }
    }
}

impl Paths {
    /// The slot of field `pos` under `base`, allocated on first use.
    pub(crate) fn slot(&mut self, base: PathBase, pos: usize) -> usize {
        let found = self.0.iter().position(|s| s.base == base && s.pos == pos);
        found.unwrap_or_else(|| {
            self.0.push(PathSlot {
                base,
                pos,
                fetch: true,
            });
            self.0.len() - 1
        })
    }

    /// Leave slot `slot` to be resolved from a batch column only.
    pub(crate) fn leave(&mut self, slot: usize) {
        self.0[slot].fetch = false;
    }

    fn access<'a>(
        &'a self,
        cols: &'a [Option<Slot>],
        batch: &'a RowBatch,
        base: &'a PathBase,
    ) -> Access<'a> {
        match base {
            PathBase::Var(name) => batch.column(name).map_or(Access::Missing, Access::Col),
            PathBase::Object(v) => Access::One(v),
            PathBase::Slot(p) => match &cols[*p] {
                Some(Slot::Fetched(col)) => Access::Slot(col),
                Some(Slot::Column(c)) => Access::Col(batch.col(*c)),
                None => {
                    let parent = &self.0[*p];
                    Access::Field(Box::new(self.access(cols, batch, &parent.base)), parent.pos)
                }
            },
        }
    }

    /// Resolve every slot whose base column holds a reference, for all
    /// rows of `batch` at once.
    pub fn resolve(&self, ctx: &ExecCtx<'_>, batch: &RowBatch) -> ModelResult<Resolved> {
        let mut cols: Vec<Option<Slot>> = Vec::new();
        cols.resize_with(self.0.len(), || None);
        for (s, slot) in self.0.iter().enumerate() {
            if let PathBase::Var(name) = &slot.base {
                cols[s] = batch.col_of(&attr_column(name, slot.pos)).map(Slot::Column);
            }
        }
        // Siblings (same base) resolve together, at the first of them:
        // one visit of each referenced object yields all their fields.
        let fetch: Vec<bool> = (cols.iter().zip(&self.0))
            .map(|(c, s)| c.is_none() && s.fetch)
            .collect();
        let sibling = |s: usize, t: usize| fetch[t] && self.0[t].base == self.0[s].base;
        for (s, first) in self.0.iter().enumerate() {
            if !fetch[s] || (0..s).any(|t| sibling(s, t)) {
                continue;
            }
            let group: Vec<usize> = (s..self.0.len()).filter(|&t| sibling(s, t)).collect();
            let positions: Vec<usize> = group.iter().map(|&t| self.0[t].pos).collect();
            let access = self.access(&cols, batch, &first.base);
            let resolved = fields_through_refs(ctx, &access, batch.len(), &positions)?;
            for (t, col) in group.into_iter().zip(resolved.into_iter().flatten()) {
                cols[t] = Some(Slot::Fetched(col));
            }
        }
        Ok(Resolved(cols))
    }
}

/// Fields `positions` of every base value, or `None` when no base value
/// is a reference.
fn fields_through_refs(
    ctx: &ExecCtx<'_>,
    bases: &Access<'_>,
    rows: usize,
    positions: &[usize],
) -> ModelResult<Option<Vec<SlotCol>>> {
    let mut refs: Vec<(Oid, usize)> = Vec::new();
    for r in 0..rows {
        if let Some(Value::Ref(oid)) = bases.get(r) {
            refs.push((*oid, r));
        }
    }
    if refs.is_empty() {
        return Ok(None);
    }
    let mut out: Vec<SlotCol> = positions
        .iter()
        .map(|_| SlotCol {
            vals: vec![Value::Null; rows],
            failed: Vec::new(),
        })
        .collect();
    if refs.len() < rows {
        for r in 0..rows {
            match bases.get(r) {
                Some(Value::Ref(_) | Value::Null) => {}
                Some(Value::Tuple(fields)) => {
                    for (col, &pos) in out.iter_mut().zip(positions) {
                        match fields.get(pos) {
                            Some(v) => col.vals[r] = v.clone(),
                            None => col.failed.push(r),
                        }
                    }
                }
                _ => out.iter_mut().for_each(|col| col.failed.push(r)),
            }
        }
    }
    refs.sort_unstable();
    let mut oids: Vec<Oid> = refs.iter().map(|&(oid, _)| oid).collect();
    oids.dedup();
    let mut fetched = ctx
        .store
        .fields_of_many_at(&oids, positions, ctx.snapshot)?;
    let mut rest = refs.as_slice();
    for (i, &oid) in oids.iter().enumerate() {
        let n = rest.iter().take_while(|&&(o, _)| o == oid).count();
        let (sharers, tail) = rest.split_at(n);
        rest = tail;
        for (j, (col, &pos)) in out.iter_mut().zip(positions).enumerate() {
            let field = match fetched[i * positions.len() + j].take() {
                Some(v) => Ok(v),
                None => attr_of(ctx, Value::Ref(oid), pos),
            };
            match field {
                Ok(v) => {
                    for &(_, r) in &sharers[1..] {
                        col.vals[r] = v.clone();
                    }
                    col.vals[sharers[0].1] = v;
                }
                Err(_) => col.failed.extend(sharers.iter().map(|&(_, r)| r)),
            }
        }
    }
    out.iter_mut().for_each(|col| col.failed.sort_unstable());
    Ok(Some(out))
}

/// The slots [`Paths::resolve`] resolved for one batch.
pub struct Resolved(Vec<Option<Slot>>);

impl Resolved {
    /// Row `row` of `batch` — the batch this was resolved for — with
    /// the resolved slots readable through [`Bindings::slot`].
    pub fn row<'a>(&'a self, batch: &'a RowBatch, row: usize) -> SlotRow<'a> {
        SlotRow {
            row: batch.row(row),
            cols: &self.0,
        }
    }

    /// Move row `row`'s value of slot `slot` out, when it was fetched
    /// for this batch: for a consumer that reads it once.
    pub fn take(&mut self, slot: usize, row: usize) -> Option<Value> {
        match self.0.get_mut(slot)? {
            Some(Slot::Fetched(col)) if col.get(row).is_some() => {
                Some(std::mem::replace(&mut col.vals[row], Value::Null))
            }
            _ => None,
        }
    }
}

/// A batch row plus the path slots resolved for its batch.
#[derive(Clone, Copy)]
pub struct SlotRow<'a> {
    row: BatchRow<'a>,
    cols: &'a [Option<Slot>],
}

impl Bindings for SlotRow<'_> {
    fn value(&self, var: &str) -> Option<&Value> {
        self.row.value(var)
    }

    fn ident(&self, var: &str) -> MemberId {
        self.row.ident(var)
    }

    fn bound_vars(&self) -> Vec<&str> {
        self.row.bound_vars()
    }

    fn slot(&self, slot: usize) -> Option<&Value> {
        match self.cols.get(slot)?.as_ref()? {
            Slot::Fetched(col) => col.get(self.row.index()),
            Slot::Column(c) => Some(self.row.at(*c)),
        }
    }
}

/// `env` with its resolved slots hidden: for evaluating an expression
/// under bindings other than the batch its slots were numbered for (an
/// aggregate's `by` list, looked up under the outer row).
pub(crate) struct Unslotted<'a>(pub &'a dyn Bindings);

impl Bindings for Unslotted<'_> {
    fn value(&self, var: &str) -> Option<&Value> {
        self.0.value(var)
    }

    fn ident(&self, var: &str) -> MemberId {
        self.0.ident(var)
    }

    fn bound_vars(&self) -> Vec<&str> {
        self.0.bound_vars()
    }
}
