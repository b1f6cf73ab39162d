//! The query-profiling layer: EXPLAIN ANALYZE correctness, the
//! builder-based configuration API, and typed row access.

use std::sync::Arc;

use extra_excess::{Database, OpProfile, QueryProfile, Response, TraceConfig, Value};

fn rows_db(n: i64, workers: usize) -> Arc<Database> {
    let db = Database::builder().worker_threads(workers).build().unwrap();
    let mut s = db.session();
    s.run(
        r#"
        define type Row (k: int4, v: float8);
        create { own Row } Rows;
    "#,
    )
    .unwrap();
    db.bulk_append(
        "Rows",
        (0..n)
            .map(|i| Value::Tuple(vec![Value::Int(i), Value::Float(i as f64 * 0.5)]))
            .collect(),
    )
    .unwrap();
    db
}

fn node<'p>(p: &'p QueryProfile, label_part: &str) -> &'p OpProfile {
    p.nodes
        .iter()
        .find(|n| n.label.contains(label_part))
        .unwrap_or_else(|| {
            panic!(
                "no operator matching {label_part:?} in profile:\n{}",
                p.nodes
                    .iter()
                    .map(|n| n.label.as_str())
                    .collect::<Vec<_>>()
                    .join("\n")
            )
        })
}

/// The profile of a filtered scan must carry exact per-operator row
/// counts: the scan emits every member, the filter passes exactly the
/// qualifying ones, and the projection sees only survivors.
#[test]
fn explain_analyze_exact_operator_counts() {
    let db = rows_db(100, 1);
    let mut s = db.session();
    let e = s
        .explain_analyze("retrieve (R.k) from R in Rows where R.k >= 90")
        .unwrap();
    let p = e.profile.expect("analyze attaches a profile");

    let scan = node(&p, "SeqScan");
    assert_eq!(scan.rows_out, 100, "scan emits every member");
    assert!(scan.batches_out >= 1);

    let filter = node(&p, "Filter");
    assert_eq!(filter.rows_in, 100);
    assert_eq!(filter.rows_out, 10, "10 of 100 rows satisfy k >= 90");
    assert_eq!(filter.selectivity(), Some(0.1));

    let project = node(&p, "Project");
    assert_eq!(project.rows_out, 10);

    assert_eq!(p.result_rows, 10);
    assert_eq!(p.dop, 1);

    // Estimated-vs-actual: the scan carries the planner's cardinality
    // estimate, and the Display rendering surfaces both.
    assert!(scan.est_rows.is_some(), "scan carries an estimate");
    let shown = format!("{p}");
    assert!(shown.contains("est="), "{shown}");
    assert!(shown.contains("rows=100"), "{shown}");
    assert!(shown.contains("-- total:"), "{shown}");
}

/// No operator hands on more than a batch at a time — the projection
/// included, which once recorded its whole result as one "batch" (the
/// 3,200-row `peak=` every unnest profile used to show).
#[test]
fn no_operator_exceeds_the_batch_size() {
    let db = Database::builder().build().unwrap();
    let mut s = db.session();
    s.run(
        r#"
        define type Person (name: varchar, age: int4, kids: { own Person });
        create { own ref Person } People;
        range of P is People
    "#,
    )
    .unwrap();
    let kid = |i: usize| {
        Value::Tuple(vec![
            Value::Str(format!("k{i}")),
            Value::Int(3),
            Value::Set(vec![]),
        ])
    };
    let people = (0..200)
        .map(|p| {
            let kids = (0..16).map(|k| kid(p * 16 + k)).collect();
            Value::Tuple(vec![
                Value::Str(format!("p{p}")),
                Value::Int(40),
                Value::Set(kids),
            ])
        })
        .collect();
    db.bulk_append("People", people).unwrap();

    let e = s
        .explain_analyze("retrieve (C.name, People.age) from C in People.kids")
        .unwrap();
    let p = e.profile.expect("analyze attaches a profile");
    assert_eq!(p.result_rows, 3_200);
    let batch = extra_excess::exec::DEFAULT_BATCH_SIZE as u64;
    for n in &p.nodes {
        assert!(
            n.peak_batch <= batch,
            "{} peaked at {} rows, over the {batch}-row batch size",
            n.label,
            n.peak_batch
        );
    }
    let project = node(&p, "Project");
    assert_eq!(project.rows_out, 3_200);
    assert_eq!(project.batches_out, 4, "3,200 rows leave in four batches");

    // An update's bindings query records per pulled batch as well.
    s.run("range of C is People.kids").unwrap();
    let e = s
        .explain_analyze("replace C (age = 4) where C.age = 3")
        .unwrap();
    let p = e.profile.expect("analyze attaches a profile");
    assert!(p.nodes.iter().all(|n| n.peak_batch <= batch), "{p}");
}

/// Aggregate `over` plans are embedded in expressions, not the operator
/// tree; the profiler indexes them as children of their operator, so an
/// aggregate-only query still reports what its hidden scan did.
#[test]
fn aggregate_over_plan_is_profiled() {
    let db = rows_db(100, 1);
    let mut s = db.session();
    s.run("range of R is Rows").unwrap();
    let e = s
        .explain_analyze("retrieve (sum(R.k over R where R.k >= 90))")
        .unwrap();
    let p = e.profile.unwrap();
    let scan = node(&p, "SeqScan");
    assert_eq!(
        scan.rows_out, 100,
        "the aggregate's over-scan emits every member (qual filters later)"
    );
    assert_eq!(p.result_rows, 1);
}

/// DOP 1 and DOP 4 must report identical logical operator counts: the
/// exchange changes how work is scheduled, not what each operator sees.
#[test]
fn parallel_profile_counts_match_serial() {
    // 5000 rows clears the 4096-row parallelism threshold.
    let q = "retrieve (R.k) from R in Rows where R.k >= 4000";
    let serial_db = rows_db(5000, 1);
    let parallel_db = rows_db(5000, 4);
    let se = serial_db.session().explain_analyze(q).unwrap();
    let pe = parallel_db.session().explain_analyze(q).unwrap();
    let sp = se.profile.unwrap();
    let pp = pe.profile.unwrap();
    assert_eq!(sp.dop, 1);
    assert_eq!(pp.dop, 4);
    assert_eq!(sp.result_rows, pp.result_rows);

    // The parallel plan adds an exchange node; every operator present in
    // both plans must agree on rows in/out (batch counts may differ with
    // morsel chunking).
    let exchange = node(&pp, "Parallel");
    assert_eq!(exchange.rows_out, 1000);
    assert!(!exchange.workers.is_empty(), "exchange has worker stats");
    let morsels: u64 = exchange.workers.iter().map(|w| w.morsels).sum();
    let worker_rows: u64 = exchange.workers.iter().map(|w| w.rows).sum();
    assert!(morsels >= 1);
    assert_eq!(worker_rows, 5000, "workers consume every seed row");

    for sn in &sp.nodes {
        if let Some(pn) = pp.nodes.iter().find(|n| n.label == sn.label) {
            assert_eq!(sn.rows_in, pn.rows_in, "{} rows_in", sn.label);
            assert_eq!(sn.rows_out, pn.rows_out, "{} rows_out", sn.label);
        }
    }
}

/// EXPLAIN ANALYZE of DML executes the statement exactly once; plain
/// EXPLAIN of DML executes it zero times.
#[test]
fn explain_of_dml_mutates_zero_times_analyze_once() {
    let db = rows_db(10, 1);
    let mut s = db.session();
    s.run("range of R is Rows").unwrap();

    // Plain EXPLAIN: plan only, nothing applied.
    let e = s.explain("delete R where R.k >= 0").unwrap();
    assert!(e.plan.contains("SeqScan"), "{}", e.plan);
    assert!(e.profile.is_none(), "plain explain must not execute");
    let r = s
        .query("retrieve (count(R over R)) from R in Rows")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(10), "plain explain ran the delete");

    // EXPLAIN ANALYZE: applied exactly once.
    let e = s
        .explain_analyze("replace R (v = 99.0) where R.k >= 6")
        .unwrap();
    let p = e.profile.expect("analyze profiles the update");
    assert_eq!(p.result_rows, 4, "4 bindings staged");
    let r = s
        .query("retrieve (count(R over R where R.v = 99.0)) from R in Rows")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(4), "replace applied once");

    // And through the EXCESS surface syntax.
    let resp = s.run("explain analyze delete R where R.v = 99.0").unwrap();
    let expl = resp
        .into_iter()
        .next()
        .unwrap()
        .explanation()
        .expect("explain statement yields an explanation");
    assert!(expl.profile.is_some());
    let r = s
        .query("retrieve (count(R over R)) from R in Rows")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(6), "delete applied exactly once");

    // The same contract for every update verb: one pipeline binds,
    // stages and applies them all.
    s.run(
        "define procedure Bump (key: int4, d: float8) as \
         range of X is Rows; replace X (v = X.v + d) where X.k = key end",
    )
    .unwrap();
    let state = |s: &mut extra_excess::Session| {
        s.query("retrieve (R.k, R.v) from R in Rows order by R.k asc")
            .unwrap()
            .rows
    };
    let before = state(&mut s);
    for stmt in [
        "append to Rows (k = 100, v = 1.0)",
        "replace R (v = -1.0)",
        "execute Bump(R.k, 1.0)",
        "retrieve into Copy (R.k) from R in Rows",
    ] {
        let e = s.explain(stmt).unwrap();
        assert!(e.plan.contains("Project"), "{stmt}: {}", e.plan);
        assert!(
            e.profile.is_none(),
            "{stmt}: plain explain must not execute"
        );
        assert_eq!(state(&mut s), before, "{stmt}: plain explain mutated");
    }
    s.run("retrieve (C.k) from C in Copy")
        .expect_err("plain explain of retrieve into created the set");

    let appended = vec![Value::Int(100), Value::Float(1.0)];
    let e = s.explain_analyze("append to Rows (k = 100, v = 1.0)");
    assert_eq!(e.unwrap().profile.expect("profiled").result_rows, 1);
    let mut after = before.clone();
    after.push(appended);
    assert_eq!(state(&mut s), after, "append applied exactly once");

    let e = s.explain_analyze("execute Bump(R.k, 1.0) where R.k = 100");
    assert_eq!(e.unwrap().profile.expect("profiled").result_rows, 1);
    after[6][1] = Value::Float(2.0);
    assert_eq!(state(&mut s), after, "procedure body ran exactly once");
}

/// The builder rejects a zero worker count instead of letting queries
/// hang or silently reinterpreting it.
#[test]
fn builder_rejects_zero_worker_threads() {
    let err = match Database::builder().worker_threads(0).build() {
        Err(e) => e,
        Ok(_) => panic!("worker_threads(0) must be rejected"),
    };
    assert!(
        err.to_string().contains("worker_threads"),
        "unhelpful error: {err}"
    );
}

/// A traced database profiles every statement: each query result
/// carries its profile.
#[test]
fn always_on_profiling_annotates_results() {
    let db = Database::builder()
        .trace(TraceConfig::default())
        .build()
        .unwrap();
    let mut s = db.session();
    s.run(
        r#"
        define type Row (k: int4);
        create { own Row } Rows;
        append to Rows (k = 1);
    "#,
    )
    .unwrap();
    let r = s.query("retrieve (R.k) from R in Rows").unwrap();
    let p = r.profile.expect("a traced result carries its profile");
    assert_eq!(node(&p, "SeqScan").rows_out, 1);
    assert!(p.buffer.is_some(), "profile carries the buffer-pool delta");
}

/// Typed row access over a query result.
#[test]
fn query_result_typed_rows() {
    let db = rows_db(3, 1);
    let mut s = db.session();
    let r = s
        .query("retrieve (R.k, R.v) from R in Rows order by R.k asc")
        .unwrap();
    let mut ks = Vec::new();
    for row in r.iter() {
        let k: i64 = row.get("k").expect("k column");
        let v: f64 = row.get("v").expect("v column");
        assert_eq!(v, k as f64 * 0.5);
        assert!(row.get::<i64>("missing").is_none());
        assert!(row.get::<bool>("k").is_none(), "wrong type must not coerce");
        ks.push(k);
    }
    assert_eq!(ks, vec![0, 1, 2]);

    // Response::rows still routes through the redesigned result type.
    let resp = s.run("retrieve (R.k) from R in Rows").unwrap();
    let only = resp.into_iter().next().unwrap();
    assert!(matches!(only, Response::Rows(_)));
}

/// `explain analyze` profiles the tree `explain` prints: the profile's
/// operator rows carry the plan lines' labels and depths, in order, for
/// every operator at DOP 1 and 4. An aggregate's `over` plan adds rows
/// under the operator whose expression holds it, labelled as the
/// planner labels that plan.
#[test]
fn explain_analyze_rows_are_the_explained_plan() {
    // (statement, rows the aggregate's `over` plan adds after line 1)
    let cases: &[(&str, &[&str])] = &[
        ("retrieve (E.name) from E in Emps", &[]),
        ("retrieve (s.id) from s in sys.sessions", &[]),
        ("retrieve (E.name) from E in Emps where E.level = 3", &[]),
        (
            "retrieve (K.kname) from K in Emps.kids where K.age > 2",
            &[],
        ),
        (
            "retrieve (F.name, D.dname) from F in Few, D in Depts where F.level > D.floor",
            &[],
        ),
        (
            "retrieve (F.name) from F in Few where F.level < A.floor + 100",
            &[],
        ),
        ("retrieve (F.name) from F in Few order by F.name desc", &[]),
        (
            "retrieve (E.name, D.dname) from E in Emps, D in Depts where E.name = D.dname",
            &[],
        ),
        (
            "retrieve (F.name, E.name) from F in Few, E in Emps where E.level = F.level",
            &[],
        ),
        (
            "retrieve (n = count(D over D where D.floor > 3))",
            &["  SeqScan D over Depts"],
        ),
        ("retrieve (F.name, up = Up(F)) from F in Few", &[]),
    ];
    let mut seen: Vec<String> = Vec::new();
    for workers in [1, 4] {
        let db = Database::builder().worker_threads(workers).build().unwrap();
        let mut s = db.session();
        s.run(
            r#"
            define type Kid (kname: varchar, age: int4);
            define type Emp (name: varchar, level: int4, kids: { own Kid });
            define type Dept (dname: varchar, floor: int4);
            create { own ref Emp } Emps;
            create { own ref Emp } Few;
            create { own ref Dept } Depts;
            define index by_level on Emps (level);
            define function Up (e: Emp) returns int4 as retrieve (e.level + 1);
            range of A is all Depts;
            range of D is Depts
        "#,
        )
        .unwrap();
        let emp = |i: usize, kids: usize| {
            let kids = (0..kids)
                .map(|k| Value::Tuple(vec![Value::Str(format!("k{k}")), Value::Int(k as i64)]))
                .collect();
            Value::Tuple(vec![
                Value::Str(format!("e{i}")),
                Value::Int((i % 7) as i64 + 1),
                Value::Set(kids),
            ])
        };
        let emps = (0..5_000).map(|i| emp(i, usize::from(i % 1_000 == 0) * 4));
        db.bulk_append("Emps", emps.collect()).unwrap();
        db.bulk_append("Few", (0..20).map(|i| emp(i, 0)).collect())
            .unwrap();
        let depts = (0..40).map(|i| {
            Value::Tuple(vec![
                Value::Str(format!("e{}", i * 100)),
                Value::Int(i % 10 + 1),
            ])
        });
        db.bulk_append("Depts", depts.collect()).unwrap();
        s.run("analyze Emps; analyze Few; analyze Depts").unwrap();

        for (q, over_rows) in cases {
            let plan = s.explain(q).unwrap().plan;
            let mut want: Vec<String> = plan.lines().map(String::from).collect();
            want.splice(1..1, over_rows.iter().map(|r| r.to_string()));
            let profile = s.explain_analyze(q).unwrap().profile.unwrap();
            let got: Vec<String> = profile
                .nodes
                .iter()
                .map(|n| format!("{}{}", "  ".repeat(n.depth.into()), n.label))
                .collect();
            assert_eq!(got, want, "DOP {workers}: {q}");
            seen.extend(profile.nodes.iter().map(|n| n.label.clone()));
        }
    }
    for op in [
        "SeqScan",
        "SystemScan",
        "IndexScan",
        "Unnest",
        "NestedLoop",
        "Filter",
        "UniversalFilter",
        "Project",
        "Sort",
        "HashJoin",
        "IndexJoin",
        "Parallel",
    ] {
        assert!(
            seen.iter().any(|l| l.starts_with(op)),
            "no case profiles a {op}"
        );
    }
}
