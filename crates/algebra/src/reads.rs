//! Member read sets: which attributes of unnested members a plan reads.
//!
//! An unnest whose variable is only ever stepped into — `C.age`,
//! `C.kids` — by expressions evaluated over whole batches binds each
//! member as just the attributes read, one batch column each. Any other
//! use needs the member whole, with its identity: the variable used as a
//! value (projected, compared, passed to a function, unnested itself), a
//! reference member (stepping into it is a dereference), or a read under
//! a single row copied out of a batch — a correlated aggregate's seed
//! row, an aggregate's `by` list looked up under the outer row, anything
//! of a statement with universal ranges — which carries whole variables
//! only.

use excess_sema::{CheckedRetrieve, Node, ResolvedRange, Typed};
use extra_model::Ownership;

use crate::join::map_inputs;
use crate::plan::Physical;

/// Give every unnest of `plan` (universes aside) its read set. `uses`
/// are the expressions evaluated over its rows, by operators that
/// resolve their paths over whole batches. A plan binds each variable
/// once, so whatever names an unnest's variable reads its members.
pub fn read_sets<'t>(plan: Physical, uses: impl IntoIterator<Item = &'t Typed>) -> Physical {
    assign(plan, &uses.into_iter().collect::<Vec<_>>())
}

fn assign(plan: Physical, uses: &[&Typed]) -> Physical {
    match map_inputs(plan, &mut |p| assign(p, uses)) {
        Physical::Unnest {
            input,
            binding,
            source,
            ..
        } => Physical::Unnest {
            reads: read_set(&binding, uses),
            input,
            binding,
            source,
        },
        other => other,
    }
}

/// Give every unnest of a retrieve's `plan` its read set: a universal
/// filter re-opens its universe seeded with each of its input rows, so
/// a statement with universal ranges binds every member whole.
pub fn retrieve_read_sets(plan: Physical, checked: &CheckedRetrieve) -> Physical {
    if checked.bindings.iter().any(|b| b.universal) {
        return plan;
    }
    let sources = checked.bindings.iter().filter_map(|b| b.source.as_ref());
    let order = checked.order_by.iter().map(|(k, _)| k);
    let exprs = (checked.targets.iter())
        .chain(&checked.conjuncts)
        .chain(order);
    read_sets(plan, exprs.chain(sources).map(|c| &c.typed))
}

/// The attributes of `b`'s members that `uses` read, or `None` when one
/// of them needs the members whole.
fn read_set(b: &ResolvedRange, uses: &[&Typed]) -> Option<Vec<usize>> {
    let mut reads = Vec::new();
    let attrs_only = |t: &&Typed| attr_reads(t, &b.var, &mut reads);
    if b.elem.mode != Ownership::Own || !uses.iter().all(attrs_only) {
        return None;
    }
    reads.sort_unstable();
    reads.dedup();
    Some(reads)
}

/// Collect the attributes of `v` that `t` steps into; false when `t`
/// uses `v` otherwise.
fn attr_reads(t: &Typed, v: &str, reads: &mut Vec<usize>) -> bool {
    match &t.node {
        Node::Var(n) => n != v,
        Node::Attr(base, pos) if matches!(&base.node, Node::Var(n) if n == v) => {
            reads.push(*pos);
            true
        }
        // An aggregate over ranges evaluates its argument and `where`
        // over its own rows, seeded with the outer row, and looks its
        // `by` list up under the outer row.
        Node::Agg(a) if !a.over.is_empty() => {
            let own = a.over.iter().any(|r| r.var == v);
            let seeded = a.arg.iter().chain(&a.qual).any(|e| mentions(e, v))
                || a.over.iter().any(|r| r.depends_on() == Some(v));
            !a.by.iter().any(|e| mentions(e, v)) && (own || !seeded)
        }
        _ => t.children().into_iter().all(|c| attr_reads(c, v, reads)),
    }
}

/// Whether `t` names `v` anywhere, ranges its aggregates iterate included.
fn mentions(t: &Typed, v: &str) -> bool {
    let mut found = false;
    t.walk(&mut |n| {
        found |= match &n.node {
            Node::Var(x) => x == v,
            Node::Agg(a) => a.over.iter().any(|r| r.depends_on() == Some(v)),
            _ => false,
        }
    });
    found
}
