//! Running plans to completion.

use std::fmt;

use excess_algebra::Physical;
use extra_model::{AdtRegistry, ModelError, ModelResult, Value};

use crate::batch::{Bindings, RowBatch};
use crate::eval::{eval, ExecCtx};
use crate::plan::Plan;
use crate::profile::QueryProfile;

/// A query result: column names plus rows of values.
///
/// When the statement ran under `explain analyze` or on a traced
/// database, `profile` carries the per-operator [`QueryProfile`]; it is
/// ignored by equality so profiled and unprofiled runs of the same query
/// compare equal.
#[derive(Debug, Clone, Default)]
pub struct QueryResult {
    /// Output column names.
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Vec<Value>>,
    /// Per-operator execution profile, if the run was profiled.
    pub profile: Option<QueryProfile>,
}

impl PartialEq for QueryResult {
    fn eq(&self, other: &Self) -> bool {
        self.columns == other.columns && self.rows == other.rows
    }
}

impl QueryResult {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the result is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterate over rows as [`Row`] views supporting typed access by
    /// column name. A thin adapter over the same rows
    /// [`QueryResult::batches`] streams — use `batches` when the
    /// consumer wants batch granularity (wire encoders, bulk sinks).
    pub fn iter(&self) -> impl Iterator<Item = Row<'_>> {
        self.rows.iter().map(move |values| Row {
            columns: &self.columns,
            values,
        })
    }

    /// Stream the result as [`RowBatch`]es of at most `n` rows each.
    /// Each batch is materialized only when the consumer pulls it, so
    /// an encoder (the server's result framer, the REPL's printer) holds
    /// one batch at a time instead of a second copy of the whole result.
    /// The column layout of every batch is [`QueryResult::columns`].
    pub fn batches(&self, n: usize) -> impl Iterator<Item = RowBatch> + '_ {
        let n = n.max(1);
        self.rows
            .chunks(n)
            .map(move |chunk| RowBatch::from_rows(self.columns.clone(), chunk))
    }

    /// Render as lines of `col = value` pairs (ADT values use their
    /// display forms).
    pub fn render(&self, adts: &AdtRegistry) -> String {
        self.display(adts).to_string()
    }

    /// A [`fmt::Display`] adapter that streams rows straight into the
    /// output formatter — no per-row intermediate strings.
    pub fn display<'r>(&'r self, adts: &'r AdtRegistry) -> DisplayRows<'r> {
        DisplayRows { result: self, adts }
    }
}

/// One result row, borrowed from a [`QueryResult`].
#[derive(Debug, Clone, Copy)]
pub struct Row<'r> {
    columns: &'r [String],
    values: &'r [Value],
}

impl<'r> Row<'r> {
    /// The raw value of `name`, or `None` if no such column exists.
    pub fn value(&self, name: &str) -> Option<&'r Value> {
        let i = self.columns.iter().position(|c| c == name)?;
        self.values.get(i)
    }

    /// The value of `name` converted to `T`, or `None` if the column
    /// is missing or holds a different type.
    pub fn get<T: FromValue<'r>>(&self, name: &str) -> Option<T> {
        T::from_value(self.value(name)?)
    }

    /// Column names, in output order.
    pub fn columns(&self) -> &'r [String] {
        self.columns
    }

    /// Raw values, in output order.
    pub fn values(&self) -> &'r [Value] {
        self.values
    }
}

/// Conversion from a borrowed [`Value`] for [`Row::get`].
pub trait FromValue<'r>: Sized {
    /// Convert, returning `None` on a type mismatch.
    fn from_value(v: &'r Value) -> Option<Self>;
}

impl<'r> FromValue<'r> for i64 {
    fn from_value(v: &'r Value) -> Option<Self> {
        match v {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }
}

impl<'r> FromValue<'r> for f64 {
    fn from_value(v: &'r Value) -> Option<Self> {
        match v {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }
}

impl<'r> FromValue<'r> for bool {
    fn from_value(v: &'r Value) -> Option<Self> {
        match v {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl<'r> FromValue<'r> for &'r str {
    fn from_value(v: &'r Value) -> Option<Self> {
        match v {
            Value::Str(s) => Some(s.as_str()),
            Value::Enum(_, s) => Some(s.as_str()),
            _ => None,
        }
    }
}

impl<'r> FromValue<'r> for String {
    fn from_value(v: &'r Value) -> Option<Self> {
        <&str>::from_value(v).map(str::to_owned)
    }
}

impl<'r> FromValue<'r> for &'r Value {
    fn from_value(v: &'r Value) -> Option<Self> {
        Some(v)
    }
}

impl<'r> FromValue<'r> for Value {
    fn from_value(v: &'r Value) -> Option<Self> {
        Some(v.clone())
    }
}

/// Streaming renderer for a [`QueryResult`] (see
/// [`QueryResult::display`]).
pub struct DisplayRows<'r> {
    result: &'r QueryResult,
    adts: &'r AdtRegistry,
}

impl fmt::Display for DisplayRows<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for row in &self.result.rows {
            for (i, (c, v)) in self.result.columns.iter().zip(row.iter()).enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{c} = {}", v.render(self.adts))?;
            }
            f.write_str("\n")?;
        }
        Ok(())
    }
}

/// Execute a plan whose top is a `Project`, collecting all rows. `env`
/// supplies pre-bound variables (function parameters, procedure
/// arguments).
pub fn run_plan(plan: &Plan, ctx: &ExecCtx<'_>, env: &dyn Bindings) -> ModelResult<QueryResult> {
    let Physical::Project { input, targets } = plan else {
        return Err(ModelError::Semantic(
            "plan has no projection at the top".into(),
        ));
    };
    let columns: Vec<String> = targets.iter().map(|(n, _)| n.clone()).collect();
    // The targets share one table of path slots, resolved once per batch.
    let paths = targets
        .first()
        .map(|(_, t)| t.paths.clone())
        .unwrap_or_default();
    // The Project node itself has no cursor; account for it here so the
    // profile covers the whole tree.
    let index = ctx.profiler.as_ref().map(|p| p.index());
    let proj_slot = index.and_then(|ix| ix.slot_of(plan));
    let mut rows = Vec::new();
    let mut cur = crate::cursor::open(input, RowBatch::single(env), index);
    let t0 = proj_slot.map(|_| std::time::Instant::now());
    while let Some(batch) = cur.next(ctx)? {
        ctx.prof_in(proj_slot, batch.len());
        if let Some(m) = ctx.metrics.as_ref() {
            m.batches.inc();
            m.rows.add(batch.len() as u64);
        }
        let resolved = paths.resolve(ctx, &batch)?;
        for r in 0..batch.len() {
            let row = resolved.row(&batch, r);
            let out: Vec<Value> = targets
                .iter()
                .map(|(_, e)| eval(&e.expr, ctx, &row))
                .collect::<ModelResult<_>>()?;
            rows.push(out);
        }
        // The projection emits a batch per batch it pulls.
        if let (Some(slot), Some(p)) = (proj_slot, ctx.profiler.as_ref()) {
            p.record_out(slot, batch.len());
        }
    }
    if let (Some(slot), Some(t0), Some(p)) = (proj_slot, t0, ctx.profiler.as_ref()) {
        p.record_ns(slot, t0.elapsed().as_nanos() as u64);
    }
    Ok(QueryResult {
        columns,
        rows,
        profile: None,
    })
}
