//! Checked once, trusted after: the evaluator runs what the checker
//! accepts without checking types again, so the checker's typing must be
//! sound. The property here holds it to that over generated schemas,
//! data and statements (`common/typing_gen.rs`):
//!
//! * a statement the checker accepts runs clean at batch 1/7/1024 and
//!   DOP 1/4, with one answer across all six — the only errors are data
//!   errors (division by zero, an array index out of range, an invalid
//!   date), each with code 1006;
//! * a statement it rejects fails with code 1002 and evaluates nothing;
//! * which of the two happens is what the generator's model of the
//!   typing rules predicts, and the hit table shows every rule both
//!   accepted and rejected.
//!
//! The shim has no shrinking, so a failing case prints its schema, data
//! and statement as an EXCESS script to run.
//!
//! Beside it, one test per case the checker and the evaluator used to
//! disagree on.

mod common;
#[path = "common/typing_gen.rs"]
mod typing_gen;

use std::collections::BTreeMap;
use std::sync::Arc;

use extra_excess::{Database, Session, Value};
use typing_gen::{Gen, RULES};

/// `(batch size, worker threads)` of each database a statement runs on.
const CONFIGS: [(usize, usize); 6] = [(1, 1), (7, 1), (1024, 1), (1, 4), (7, 4), (1024, 4)];

/// What running a statement came to: its rows, sorted, or its error.
#[derive(Debug, PartialEq)]
enum Outcome {
    Rows(Vec<String>),
    Failed(u16, String),
}

fn outcome(s: &mut Session, stmt: &str) -> Outcome {
    match s.query(stmt) {
        Ok(r) => {
            let mut rows: Vec<String> = r.rows.iter().map(|row| format!("{row:?}")).collect();
            rows.sort();
            Outcome::Rows(rows)
        }
        Err(e) => Outcome::Failed(e.code(), e.to_string()),
    }
}

/// An error that only running a statement can find: what an accepted
/// statement may still end in.
fn is_data_error(code: u16, msg: &str) -> bool {
    code == 1006
        && ["division by zero", "out of range", "invalid date"]
            .iter()
            .any(|m| msg.contains(m))
}

/// A database of one configuration holding the script's schema and data.
fn load(batch: usize, dop: usize, script: &[String]) -> (Arc<Database>, Session) {
    let db = Database::builder()
        .batch_size(batch)
        .worker_threads(dop)
        .pool_pages(256)
        .build()
        .unwrap();
    db.register_adt(Arc::new(common::Fraction)).unwrap();
    let mut s = db.session();
    for stmt in script {
        if let Err(e) = s.run(stmt) {
            panic!("{stmt}: {e}\n{}", script.join(";\n"));
        }
    }
    (db, s)
}

fn exec_batches(db: &Database) -> Option<u64> {
    db.metrics_snapshot()?.counter("exec_batches_total")
}

/// Statements per schema; schemas per run.
const STATEMENTS: usize = 20;
const SCHEMAS: u32 = 200;

#[test]
fn accepted_statements_run_clean_and_rejected_ones_never_run() {
    // accepted, rejected — per rule, as the checker decided.
    let mut hits: BTreeMap<&str, [usize; 2]> = RULES.iter().map(|r| (*r, [0, 0])).collect();
    let mut failures = Vec::new();
    let (mut stmt_no, mut probes, mut renames) = (0, 0, 0);
    for case in 0..SCHEMAS {
        let mut g = Gen::new("accepted_statements_run_clean", case);
        let mut script = g.schema.ddl();
        renames += script.iter().any(|s| s.contains(" rename ")) as usize;
        script.extend(g.data());
        let mut dbs: Vec<(Arc<Database>, Session)> =
            CONFIGS.iter().map(|(b, d)| load(*b, *d, &script)).collect();
        assert!(exec_batches(&dbs[0].0).is_some(), "metrics are on");
        let mut made = 0;
        while made < STATEMENTS {
            // Every rule in turn, accepted and rejected by turns; a rule
            // the schema gives no operands for yields to the next.
            stmt_no += 1;
            let rule = RULES[stmt_no % RULES.len()];
            let accept = (stmt_no / RULES.len()).is_multiple_of(2);
            let (stmt, oracle) = if made % 7 == 6 {
                probes += 1;
                let (stmt, want) = g.equality_probe();
                (stmt, Some(want))
            } else {
                match (0..4).find_map(|_| g.statement(rule, accept)) {
                    Some(stmt) => (stmt, None),
                    None => continue,
                }
            };
            made += 1;
            let before = exec_batches(&dbs[0].0);
            let first = outcome(&mut dbs[0].1, &stmt);
            let refused = matches!(first, Outcome::Failed(1002, _));
            let wrong = if let Some(want) = oracle {
                (first != Outcome::Rows(vec![format!("{:?}", vec![Value::Bool(want)])]))
                    .then(|| format!("the oracle says {want}"))
            } else if refused == accept {
                Some(format!(
                    "the typing rules {} the root '{rule}'",
                    if accept { "accept" } else { "reject" }
                ))
            } else if refused {
                hits.get_mut(rule).expect("a rule")[1] += 1;
                (exec_batches(&dbs[0].0) != before).then(|| "a refused statement ran".into())
            } else {
                hits.get_mut(rule).expect("a rule")[0] += 1;
                None
            };
            let wrong = wrong.or_else(|| match &first {
                Outcome::Failed(code, msg) if !refused && !is_data_error(*code, msg) => {
                    Some("an accepted statement failed with no data error".into())
                }
                _ => None,
            });
            let wrong = wrong.or_else(|| {
                if refused {
                    return None;
                }
                dbs[1..]
                    .iter_mut()
                    .zip(&CONFIGS[1..])
                    .find_map(|((_, s), (b, d))| {
                        let got = outcome(s, &stmt);
                        (got != first).then(|| format!("batch {b}, DOP {d} answered {got:?}"))
                    })
            });
            if let Some(why) = wrong {
                failures.push(format!(
                    "-- register the Fraction ADT of tests/common, then run:\n{};\n{stmt}\n\
                     -- {why}; batch 1, DOP 1 answered {first:?}",
                    script.join(";\n")
                ));
            }
        }
        assert!(failures.len() < 3, "{}", failures.join("\n\n"));
    }
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
    let table: Vec<String> = hits
        .iter()
        .map(|(rule, [a, r])| format!("{rule:>22}: {a:>4} accepted {r:>4} rejected"))
        .collect();
    println!(
        "{}\n{probes} equality probes; {renames} schemas rename an inherited attribute",
        table.join("\n")
    );
    assert!(renames > 0, "no schema inherits with a rename");
    assert!(
        hits.values().all(|[a, r]| *a > 0 && *r > 0),
        "a typing rule went untested either way:\n{}",
        table.join("\n")
    );
}

/// One collection of boxes: `nums` is `{1, 2, 3}` in box 1 and empty in
/// box 2; `d` is null in both.
fn boxes() -> Session {
    let db = Database::in_memory();
    let mut s = db.session();
    s.run(
        r#"
        define type Box (k: int4, nums: { int4 }, arr: [3] int4, d: Date);
        create { own ref Box } Boxes;
        append to Boxes (k = 1, nums = {1, 2, 3});
        append to Boxes (k = 2, nums = {});
        range of B is Boxes
    "#,
    )
    .unwrap();
    s
}

fn rows(s: &mut Session, q: &str) -> Vec<Vec<Value>> {
    match s.query(q) {
        Ok(r) => r.rows,
        Err(e) => panic!("{q}: [{}] {e}", e.code()),
    }
}

#[test]
fn a_null_set_operand_yields_null() {
    let mut s = boxes();
    for op in ["union", "intersect", "minus"] {
        let q = format!("retrieve (null {op} B.nums) where B.k = 1");
        assert_eq!(rows(&mut s, &q), vec![vec![Value::Null]], "{q}");
        let q = format!("retrieve (B.nums {op} null) where B.k = 1");
        assert_eq!(rows(&mut s, &q), vec![vec![Value::Null]], "{q}");
    }
}

#[test]
fn an_aggregate_of_a_set_is_typed_by_its_elements() {
    let mut s = boxes();
    assert_eq!(
        rows(&mut s, "retrieve (2 in unique(B.nums)) where B.k = 1"),
        vec![vec![Value::Bool(true)]]
    );
    assert_eq!(
        rows(
            &mut s,
            "retrieve (sum(B.nums), avg(B.nums), min(B.nums), max(B.nums)) where B.k = 1"
        ),
        vec![vec![
            Value::Int(6),
            Value::Float(2.0),
            Value::Int(1),
            Value::Int(3)
        ]]
    );
    // An empty set folds to null, as an empty `over` does.
    assert_eq!(
        rows(
            &mut s,
            "retrieve (sum(B.nums), count(B.nums)) where B.k = 2"
        ),
        vec![vec![Value::Null, Value::Int(0)]]
    );
}

#[test]
fn one_member_equality_for_eq_in_and_sets() {
    let mut s = boxes();
    assert_eq!(
        rows(
            &mut s,
            "retrieve (3.0 in B.nums, B.nums contains 2.0) where B.k = 1"
        ),
        vec![vec![Value::Bool(true), Value::Bool(true)]]
    );
    assert_eq!(
        rows(&mut s, "retrieve ({1, 2} = {2, 1}, {1, 2} != {2, 1})"),
        vec![vec![Value::Bool(true), Value::Bool(false)]]
    );
    assert_eq!(
        rows(
            &mut s,
            "retrieve (count({1, 1.0, 2}), {1.0, 2} union {2, 1})"
        ),
        vec![vec![
            Value::Int(2),
            Value::Set(vec![Value::Float(1.0), Value::Int(2)])
        ]]
    );
    assert_eq!(
        rows(
            &mut s,
            "retrieve ({2.0, 1} intersect {1, 2}, {1.0, 3} minus {1})"
        ),
        vec![vec![
            Value::Set(vec![Value::Float(2.0), Value::Int(1)]),
            Value::Set(vec![Value::Int(3)])
        ]]
    );
}

#[test]
fn own_collections_with_repeated_members_compare_as_sets() {
    // An own collection stores one member per append, equal or not, so
    // equal lengths do not make two of them equal sets.
    let db = Database::in_memory();
    let mut s = db.session();
    s.run(
        r#"
        define type P (k: int4);
        create { own P } Twice;
        create { own P } Apart;
        create { own P } Once;
        append to Twice (k = 7);
        append to Twice (k = 7);
        append to Apart (k = 7);
        append to Apart (k = 8);
        append to Once (k = 7)
    "#,
    )
    .unwrap();
    assert_eq!(
        rows(
            &mut s,
            "retrieve (a = (Twice = Apart), b = (Apart = Twice), \
             c = (Twice = Once), d = (Once = Twice))"
        ),
        vec![vec![
            Value::Bool(false),
            Value::Bool(false),
            Value::Bool(true),
            Value::Bool(true)
        ]]
    );
}

#[test]
fn nan_orders_nowhere_instead_of_failing() {
    let mut s = boxes();
    assert_eq!(
        rows(
            &mut s,
            "retrieve (0.0 / 0.0 < 1.0, 0.0 / 0.0 >= 1.0, 0.0 / 0.0 = 0.0 / 0.0)"
        ),
        vec![vec![
            Value::Bool(false),
            Value::Bool(false),
            Value::Bool(false)
        ]]
    );
}

#[test]
fn an_adt_function_of_null_is_null() {
    let mut s = boxes();
    assert_eq!(
        rows(
            &mut s,
            "retrieve (B.d.Year(), B.d.AddDays(3)) where B.k = 1"
        ),
        vec![vec![Value::Null, Value::Null]]
    );
}

#[test]
fn integer_overflow_wraps_without_a_panic() {
    let mut s = boxes();
    let min = "(-9223372036854775807 - 1)";
    assert_eq!(
        rows(
            &mut s,
            &format!("retrieve (-{min}, {min} / -1, {min} % -1)")
        ),
        vec![vec![
            Value::Int(i64::MIN),
            Value::Int(i64::MIN),
            Value::Int(0)
        ]]
    );
}

#[test]
fn a_by_list_binds_its_ranges_in_the_outer_statement() {
    // `by` picks each outer row's group, so the statement ranges over B
    // too: one row per box, each with its group's count (`d` is null in
    // both, so they share one group).
    let mut s = boxes();
    assert_eq!(
        rows(&mut s, "retrieve (count(B over B by B.d))"),
        vec![vec![Value::Int(2)], vec![Value::Int(2)]]
    );
}

#[test]
fn an_aggregate_over_a_parameter_is_not_reused_across_calls() {
    let mut s = boxes();
    s.run(
        "define function Spread (xs: { int4 }) returns int8 \
         as retrieve (max(x over x) - min(x over x)) from x in xs",
    )
    .unwrap();
    let mut got = rows(&mut s, "retrieve (B.k, Spread(B.nums))");
    got.sort_by_key(|r| format!("{r:?}"));
    assert_eq!(
        got,
        vec![
            vec![Value::Int(1), Value::Int(2)],
            vec![Value::Int(2), Value::Null]
        ]
    );
}
