//! Batched (vectorized) row representation shared across the execution
//! spine.
//!
//! A [`RowBatch`] holds a run of rows column-wise: one vector of
//! [`Value`]s per bound variable, plus a parallel vector of
//! [`MemberId`] update identities per variable (the batch-level binding
//! metadata that keeps set-oriented updates addressable). Operators pass
//! batches of up to [`ExecCtx::batch_size`](crate::eval::ExecCtx) rows
//! between each other instead of pushing environments one at a time;
//! filters evaluate their predicate across a batch into a selection
//! vector and [`RowBatch::gather`] the survivors. A variable whose
//! plan reads only some attributes of its members may be bound as just
//! those, one [`attr_column`] each (see `excess_algebra::reads`).
//!
//! Expression evaluation is written against the [`Bindings`] trait so a
//! single evaluator serves both a materialized [`Env`] (function
//! parameters, update staging) and a zero-copy [`BatchRow`] view into a
//! batch.

use extra_model::Value;

use crate::env::{Env, MemberId};

/// Default number of rows per execution batch.
pub const DEFAULT_BATCH_SIZE: usize = 1024;

/// The column attribute `pos` of `var`'s members is bound as when only
/// some of their attributes are read: a name no variable can have.
pub fn attr_column(var: &str, pos: usize) -> String {
    format!("{var}.{pos}")
}

/// Read-only variable bindings: the evaluator's view of one row.
pub trait Bindings {
    /// Value bound to `var`.
    fn value(&self, var: &str) -> Option<&Value>;
    /// Update identity of `var`.
    fn ident(&self, var: &str) -> MemberId;
    /// Names of all bound variables.
    fn bound_vars(&self) -> Vec<&str>;
    /// Value of path slot `slot`, when the operator evaluating this row
    /// resolved it for the whole batch (see [`crate::paths`]). `None` —
    /// always, for bindings outside a batch — sends the evaluator down
    /// the row-at-a-time path.
    fn slot(&self, _slot: usize) -> Option<&Value> {
        None
    }
}

impl Bindings for Env {
    fn value(&self, var: &str) -> Option<&Value> {
        self.get(var)
    }

    fn ident(&self, var: &str) -> MemberId {
        self.id_of(var)
    }

    fn bound_vars(&self) -> Vec<&str> {
        self.vars().collect()
    }
}

/// A batch of rows stored as per-variable column vectors.
#[derive(Debug, Clone, Default)]
pub struct RowBatch {
    vars: Vec<String>,
    cols: Vec<Vec<Value>>,
    ids: Vec<Vec<MemberId>>,
    rows: usize,
}

impl RowBatch {
    /// An empty batch with no columns.
    pub fn new() -> RowBatch {
        RowBatch::default()
    }

    /// An empty batch with the given column layout.
    pub fn with_vars(vars: Vec<String>) -> RowBatch {
        let n = vars.len();
        RowBatch {
            vars,
            cols: (0..n).map(|_| Vec::new()).collect(),
            ids: (0..n).map(|_| Vec::new()).collect(),
            rows: 0,
        }
    }

    /// A single-row batch materialized from any bindings. Columns are
    /// ordered by variable name so batch layout is deterministic.
    pub fn single(b: &dyn Bindings) -> RowBatch {
        let mut names = b.bound_vars();
        names.sort_unstable();
        let mut batch = RowBatch::with_vars(names.iter().map(|s| s.to_string()).collect());
        for (c, name) in names.iter().enumerate() {
            batch.cols[c].push(b.value(name).cloned().unwrap_or(Value::Null));
            batch.ids[c].push(b.ident(name));
        }
        batch.rows = 1;
        batch
    }

    /// A batch materialized from row-major result rows (result
    /// chunking, wire decoding). Update identities are
    /// [`MemberId::None`]: these batches carry output values, not
    /// addressable collection members.
    pub fn from_rows(vars: Vec<String>, rows: &[Vec<Value>]) -> RowBatch {
        let mut batch = RowBatch::with_vars(vars);
        for row in rows {
            debug_assert_eq!(row.len(), batch.vars.len());
            for (c, v) in row.iter().enumerate() {
                batch.cols[c].push(v.clone());
                batch.ids[c].push(MemberId::None);
            }
            batch.rows += 1;
        }
        batch
    }

    /// Consume the batch into row-major rows, columns in `vars` order.
    pub fn into_rows(mut self) -> Vec<Vec<Value>> {
        let mut rows: Vec<Vec<Value>> = (0..self.rows)
            .map(|_| Vec::with_capacity(self.cols.len()))
            .collect();
        for col in self.cols.drain(..) {
            for (r, v) in col.into_iter().enumerate() {
                rows[r].push(v);
            }
        }
        rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the batch has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The column (variable) names.
    pub fn vars(&self) -> &[String] {
        &self.vars
    }

    /// Column position of `var`, if bound. Batches carry a handful of
    /// variables, so a linear scan beats hashing.
    pub fn col_of(&self, var: &str) -> Option<usize> {
        self.vars.iter().position(|v| v == var)
    }

    /// The values of column `c`.
    pub fn col(&self, c: usize) -> &[Value] {
        &self.cols[c]
    }

    /// View of row `row`.
    pub fn row(&self, row: usize) -> BatchRow<'_> {
        debug_assert!(row < self.rows);
        BatchRow { batch: self, row }
    }

    /// Iterate over row views.
    pub fn iter(&self) -> impl Iterator<Item = BatchRow<'_>> {
        (0..self.rows).map(move |row| BatchRow { batch: self, row })
    }

    /// The column of `var`, if bound.
    pub fn column(&self, var: &str) -> Option<&[Value]> {
        self.col_of(var).map(|c| self.cols[c].as_slice())
    }

    /// An empty batch laid out to bind `var` over input rows shaped like
    /// `src` — `src`'s columns in order, then `var` unless it shadows one
    /// of them, or with `attrs`, one column per attribute of `var` — plus
    /// the position of `var`'s first column for
    /// [`RowBatch::push_extended`].
    pub fn extending(src: &RowBatch, var: &str, attrs: Option<&[usize]>) -> (RowBatch, usize) {
        let mut vars = src.vars.clone();
        let vc = match attrs {
            None => src.col_of(var),
            Some(attrs) => {
                vars.extend(attrs.iter().map(|&pos| attr_column(var, pos)));
                Some(src.vars.len())
            }
        };
        let vc = vc.unwrap_or_else(|| {
            vars.push(var.to_string());
            vars.len() - 1
        });
        (RowBatch::with_vars(vars), vc)
    }

    /// Append a copy of `src`'s row `row` with the columns from `vc` on
    /// bound to `vals` — a member's value, or the attributes bound of
    /// it — under identity `id`. `self` must come from
    /// [`RowBatch::extending`] over a batch laid out like `src`, so
    /// columns correspond by position and nothing is looked up per row.
    pub fn push_extended(
        &mut self,
        src: &RowBatch,
        row: usize,
        vc: usize,
        vals: impl IntoIterator<Item = Value>,
        id: MemberId,
    ) {
        debug_assert!(src.vars.iter().zip(&self.vars).all(|(a, b)| a == b));
        for c in (0..src.cols.len()).filter(|&c| c != vc) {
            self.cols[c].push(src.cols[c][row].clone());
            self.ids[c].push(src.ids[c][row].clone());
        }
        for (c, v) in (vc..).zip(vals) {
            self.cols[c].push(v);
            self.ids[c].push(id.clone());
        }
        self.rows += 1;
    }

    /// `src`'s row `row` repeated once per member, with `var` bound to
    /// the members (their values and identities): what a scan emits for
    /// one input row, built column by column with the members moved in.
    pub fn broadcast(
        src: &RowBatch,
        row: usize,
        var: &str,
        members: (Vec<Value>, Vec<MemberId>),
    ) -> RowBatch {
        let (mut out, vc) = RowBatch::extending(src, var, None);
        let n = members.0.len();
        for c in (0..src.cols.len()).filter(|&c| c != vc) {
            out.cols[c] = vec![src.cols[c][row].clone(); n];
            out.ids[c] = vec![src.ids[c][row].clone(); n];
        }
        (out.cols[vc], out.ids[vc]) = members;
        out.rows = n;
        out
    }

    /// Copy the selected rows into a new batch (`sel` is a selection
    /// vector of row indices, in output order).
    pub fn gather(&self, sel: &[usize]) -> RowBatch {
        let mut out = RowBatch::with_vars(self.vars.clone());
        for c in 0..self.cols.len() {
            out.cols[c] = sel.iter().map(|&r| self.cols[c][r].clone()).collect();
            out.ids[c] = sel.iter().map(|&r| self.ids[c][r].clone()).collect();
        }
        out.rows = sel.len();
        out
    }

    /// Append all rows of `other` (column layouts must match; column
    /// order may differ).
    pub fn append(&mut self, other: RowBatch) {
        if self.vars.is_empty() && self.rows == 0 {
            *self = other;
            return;
        }
        debug_assert_eq!(
            {
                let mut a = self.vars.clone();
                a.sort();
                a
            },
            {
                let mut b = other.vars.clone();
                b.sort();
                b
            },
            "appending batches with different schemas"
        );
        for (c, name) in self.vars.iter().enumerate() {
            if let Some(o) = other.col_of(name) {
                self.cols[c].extend(other.cols[o].iter().cloned());
                self.ids[c].extend(other.ids[o].iter().cloned());
            }
        }
        self.rows += other.rows;
    }

    /// Split into chunks of at most `n` rows (used by materializing
    /// operators to re-batch their output).
    pub fn chunks(self, n: usize) -> Vec<RowBatch> {
        let n = n.max(1);
        if self.rows <= n {
            return if self.rows == 0 {
                Vec::new()
            } else {
                vec![self]
            };
        }
        let mut out = Vec::with_capacity(self.rows.div_ceil(n));
        let mut start = 0;
        while start < self.rows {
            let end = (start + n).min(self.rows);
            let sel: Vec<usize> = (start..end).collect();
            out.push(self.gather(&sel));
            start = end;
        }
        out
    }
}

/// A zero-copy view of one row of a [`RowBatch`].
#[derive(Clone, Copy)]
pub struct BatchRow<'a> {
    batch: &'a RowBatch,
    row: usize,
}

impl<'a> BatchRow<'a> {
    /// The row's position within its batch.
    pub fn index(&self) -> usize {
        self.row
    }

    /// The row's value in column `c`.
    pub fn at(&self, c: usize) -> &'a Value {
        &self.batch.cols[c][self.row]
    }
}

impl Bindings for BatchRow<'_> {
    fn value(&self, var: &str) -> Option<&Value> {
        self.batch
            .col_of(var)
            .map(|c| &self.batch.cols[c][self.row])
    }

    fn ident(&self, var: &str) -> MemberId {
        self.batch
            .col_of(var)
            .map(|c| self.batch.ids[c][self.row].clone())
            .unwrap_or(MemberId::None)
    }

    /// The variables, not the [`attr_column`]s: a row copied out of the
    /// batch seeds plans that bind attributes of their own.
    fn bound_vars(&self) -> Vec<&str> {
        let vars = self.batch.vars.iter().map(String::as_str);
        vars.filter(|v| !v.contains('.')).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_and_lookup() {
        let mut env = Env::new();
        env.bind("x", Value::Int(1), MemberId::None);
        env.bind("y", Value::Int(2), MemberId::None);
        let b = RowBatch::single(&env);
        assert_eq!(b.len(), 1);
        let row = b.row(0);
        assert_eq!(row.value("x"), Some(&Value::Int(1)));
        assert_eq!(row.value("y"), Some(&Value::Int(2)));
        assert_eq!(row.value("z"), None);
    }

    #[test]
    fn extend_gather_append() {
        let seed = RowBatch::single(&Env::new());
        let (mut b, vc) = RowBatch::extending(&seed, "v", None);
        for i in 0..5 {
            b.push_extended(&seed, 0, vc, [Value::Int(i)], MemberId::None);
        }
        assert_eq!(b.len(), 5);
        let members = ((0..5).map(Value::Int).collect(), vec![MemberId::None; 5]);
        let same = RowBatch::broadcast(&seed, 0, "v", members);
        assert_eq!(same.column("v"), b.column("v"));
        let odd = b.gather(&[1, 3]);
        assert_eq!(odd.len(), 2);
        assert_eq!(odd.row(1).value("v"), Some(&Value::Int(3)));
        let mut all = RowBatch::new();
        all.append(b);
        all.append(odd);
        assert_eq!(all.len(), 7);
        let chunks = all.chunks(3);
        assert_eq!(
            chunks.iter().map(RowBatch::len).collect::<Vec<_>>(),
            vec![3, 3, 1]
        );
    }

    #[test]
    fn shadowing_rebinds_column() {
        let mut env = Env::new();
        env.bind("v", Value::Int(7), MemberId::None);
        let seed = RowBatch::single(&env);
        let (mut b, vc) = RowBatch::extending(&seed, "v", None);
        assert_eq!(
            b.vars().len(),
            1,
            "shadowed var must not duplicate a column"
        );
        b.push_extended(&seed, 0, vc, [Value::Int(9)], MemberId::None);
        assert_eq!(b.row(0).value("v"), Some(&Value::Int(9)));
        let again = RowBatch::broadcast(&seed, 0, "v", (vec![Value::Int(9)], vec![MemberId::None]));
        assert_eq!(again.row(0).value("v"), Some(&Value::Int(9)));
    }
}
