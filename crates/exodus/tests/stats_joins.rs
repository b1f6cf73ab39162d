//! Statistics-driven planning end to end: `analyze`, the batch join
//! operators it enables, estimate quality, and plan stability.
//!
//! The equi-join rewrite is strictly gated on recorded statistics, so
//! every test first pins the unanalyzed plan shape, then checks what
//! `analyze` changes — and that results never do. Path-only queries
//! (`E.dept.floor`) are not the planner's business: they must plan
//! identically either way and resolve their paths per batch.

use std::sync::Arc;

use exodus_db::{Database, Value};

/// `n_emps` employees over `n_depts` departments, wired through `ref`
/// department attributes. Deterministic layout: department `i` is on
/// floor `i % 10 + 1` with budget `50_000 + 1_000 i`; employee `i` has
/// level `i % 7 + 1`, salary `20_000 + 800 (i % 100)`, and references
/// department `(31 i) % n_depts`.
fn university(n_depts: usize, n_emps: usize, workers: usize) -> Arc<Database> {
    let db = Database::builder().worker_threads(workers).build().unwrap();
    load_university(&db, n_depts, n_emps);
    db
}

/// The schema and members of [`university`], loaded into `db`.
fn load_university(db: &Arc<Database>, n_depts: usize, n_emps: usize) {
    db.run(
        r#"
        define type Department (dname: varchar, floor: int4, budget: float8);
        define type Employee (name: varchar, level: int4, salary: float8, dept: ref Department);
        create { own ref Department } Departments;
        create { own ref Employee } Employees;
    "#,
    )
    .unwrap();
    let depts: Vec<Value> = (0..n_depts)
        .map(|i| {
            Value::Tuple(vec![
                Value::Str(format!("dept{i:04}")),
                Value::Int((i % 10) as i64 + 1),
                Value::Float(50_000.0 + i as f64 * 1_000.0),
            ])
        })
        .collect();
    let dept_oids = db.bulk_append("Departments", depts).unwrap();
    let emps: Vec<Value> = (0..n_emps)
        .map(|i| {
            Value::Tuple(vec![
                Value::Str(format!("emp{i:06}")),
                Value::Int((i % 7) as i64 + 1),
                Value::Float(20_000.0 + (i % 100) as f64 * 800.0),
                Value::Ref(dept_oids[(i * 31) % dept_oids.len()]),
            ])
        })
        .collect();
    db.bulk_append("Employees", emps).unwrap();
}

/// Page pins one execution of the three-path query in
/// `path_query_plans_identically_before_and_after_analyze` may pay.
const PATH_QUERY_PINS: u64 = 40;

/// Rows sorted by debug rendering — join operators may emit matches in a
/// different (deterministic) order than a nested loop.
fn sorted(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort_by_key(|r| format!("{r:?}"));
    rows
}

#[test]
fn analyze_reports_and_feeds_cardinality() {
    let db = university(10, 500, 1);
    let mut s = db.session();
    let r = s.run("analyze Employees").unwrap();
    let msg = format!("{:?}", r[0]);
    assert!(msg.contains("500 rows"), "{msg}");
    // Histogram-backed stats are now visible to the planner: an
    // equality estimate on `level` uses the distinct count (7 values),
    // not the fixed 5% selectivity guess (which would say 25 rows).
    let e = s
        .explain_analyze("retrieve (E.name) from E in Employees where E.level = 3")
        .unwrap();
    let profile = e.profile.expect("explain analyze profiles");
    let filter = profile
        .nodes
        .iter()
        .find(|n| n.label.starts_with("Filter"))
        .expect("plan filters on level");
    let est = filter.est_rows.expect("planner annotates estimates");
    assert!(
        (70.0..=72.0).contains(&est),
        "distinct-count estimate (500/7 ≈ 71) expected, got {est}"
    );
}

#[test]
fn path_query_plans_identically_before_and_after_analyze() {
    let db = university(10, 500, 1);
    let mut s = db.session();
    s.run("range of E is Employees").unwrap();
    let q = "retrieve (E.name, E.dept.dname, E.dept.budget) where E.dept.floor = 2";

    let before = s.explain(q).unwrap().plan;
    assert!(
        !before.contains("HashJoin") && !before.contains("IndexJoin"),
        "a path-only query joins nothing explicitly:\n{before}"
    );
    // Buffer pins (pool hits + misses) one execution of `q` pays.
    let pinned = |s: &mut exodus_db::Session| {
        let pins = |snap: exodus_db::MetricsSnapshot| {
            snap.counter("storage_pool_hits_total").unwrap()
                + snap.counter("storage_pool_misses_total").unwrap()
        };
        let before = pins(db.metrics_snapshot().unwrap());
        let rows = s.query(q).unwrap().rows;
        (rows, pins(db.metrics_snapshot().unwrap()) - before)
    };
    let (rows_before, pins_before) = pinned(&mut s);
    assert_eq!(rows_before.len(), 50);

    s.run("analyze Departments; analyze Employees").unwrap();
    assert_eq!(
        before,
        s.explain(q).unwrap().plan,
        "statistics must not change how a path-only query plans"
    );
    let (rows_after, pins_after) = pinned(&mut s);
    assert_eq!(rows_before, rows_after);
    // Paths resolve per batch: each object-directory and heap page is
    // pinned once per batch and slot, not per row (33 today). Before
    // paths resolved per batch the same execution pinned 1,689 pages
    // row at a time, and 219 through the statistics-gated dereference
    // hash join that analyze used to switch on.
    assert_eq!(pins_before, pins_after);
    assert!(
        pins_after <= PATH_QUERY_PINS,
        "one execution pinned {pins_after} pages, over the {PATH_QUERY_PINS} budget"
    );
}

#[test]
fn paths_resolve_null_and_late_refs_analyzed_or_not() {
    let db = university(10, 400, 1);
    let mut s = db.session();
    // Two employees with a null dept reference.
    s.run(
        r#"
        append to Employees (name = "nodept1", level = 1, salary = 1.0);
        append to Employees (name = "nodept2", level = 2, salary = 2.0);
        range of E is Employees
    "#,
    )
    .unwrap();
    let filter_q = "retrieve (E.name) where E.dept.floor = 2";
    let proj_q = "retrieve (E.name, E.dept.dname, E.dept.floor)";

    let filter_before = s.query(filter_q).unwrap().rows;
    let filter_count = filter_before.len();
    let proj_before = s.query(proj_q).unwrap().rows;
    // Null refs project as nulls and fail the filter.
    assert_eq!(proj_before.len(), 402);
    assert!(proj_before
        .iter()
        .any(|r| r[0] == Value::str("nodept1") && r[1] == Value::Null));

    let plans: Vec<String> = [filter_q, proj_q]
        .iter()
        .map(|q| s.explain(q).unwrap().plan)
        .collect();
    s.run("analyze Departments").unwrap();
    for (q, plan) in [filter_q, proj_q].iter().zip(&plans) {
        assert_eq!(plan, &s.explain(q).unwrap().plan, "{q}");
    }
    assert_eq!(filter_before, s.query(filter_q).unwrap().rows);
    assert_eq!(proj_before, s.query(proj_q).unwrap().rows);

    // Members appended *after* analyze are read like any other: nothing
    // about a path depends on what the statistics saw.
    s.run(
        r#"
        append to Departments (dname = "late", floor = 2, budget = 1.0);
        range of L is Employees;
        append to Employees (name = "latecomer", level = 1, salary = 3.0)
    "#,
    )
    .unwrap();
    let rows = s.query(filter_q).unwrap().rows;
    assert_eq!(rows.len(), filter_count);
}

#[test]
fn equi_join_selected_by_cost_and_matches_nested_loop() {
    let db = university(40, 600, 1);
    let mut s = db.session();
    let q = "retrieve (E.name, D.dname) from E in Employees, D in Departments \
             where E.level = D.floor and E.salary > 90000.0";

    let before_plan = s.explain(q).unwrap().plan;
    assert!(
        before_plan.contains("NestedLoop") && !before_plan.contains("HashJoin"),
        "unanalyzed two-range join stays a nested loop:\n{before_plan}"
    );
    let before = s.query(q).unwrap().rows;
    assert!(!before.is_empty());

    s.run("analyze Departments; analyze Employees").unwrap();
    let after_plan = s.explain(q).unwrap().plan;
    assert!(
        after_plan.contains("HashJoin") && after_plan.contains("on floor = "),
        "analyzed equi join should build a hash table on floor:\n{after_plan}"
    );
    assert_eq!(sorted(before), sorted(s.query(q).unwrap().rows));
}

#[test]
fn index_join_wins_with_large_indexed_build_side() {
    // 5 000 departments against 20 employees: hashing the whole build
    // side costs ~2|D|, probing the floor index costs |E| log |D| — the
    // cost model must pick the index join.
    let db = university(5_000, 20, 1);
    let mut s = db.session();
    s.run("define index by_floor on Departments (floor)")
        .unwrap();
    let q = "retrieve (E.name, D.budget) from E in Employees, D in Departments \
             where D.floor = E.level";

    let before = s.query(q).unwrap().rows;
    s.run("analyze Departments; analyze Employees").unwrap();
    let plan = s.explain(q).unwrap().plan;
    assert!(
        plan.contains("IndexJoin D over Departments using by_floor on floor = "),
        "large indexed build side should probe the index:\n{plan}"
    );
    assert_eq!(sorted(before), sorted(s.query(q).unwrap().rows));
}

/// Satellite (c): after `analyze`, planner estimates for equality,
/// range, and path-join predicates stay within a bounded factor of the
/// observed row counts.
#[test]
fn estimates_track_actuals_after_analyze() {
    let db = university(10, 2_000, 1);
    let mut s = db.session();
    s.run("analyze Departments; analyze Employees; range of E is Employees")
        .unwrap();
    // (query, actual rows): level is uniform over 7 values, salary over
    // 100 values, and dept floors reach employees through a path (no
    // statistics apply: the fixed equality selectivity must still land
    // within the factor).
    let cases = [
        ("retrieve (E.name) where E.level = 3", 286u64),
        ("retrieve (E.name) where E.salary > 60000.0", 980),
        ("retrieve (E.name) where E.dept.floor = 2", 200),
    ];
    for (q, actual) in cases {
        let e = s.explain_analyze(q).unwrap();
        let profile = e.profile.expect("explain analyze profiles");
        let filter = profile
            .nodes
            .iter()
            .find(|n| n.label.starts_with("Filter"))
            .unwrap_or_else(|| panic!("no Filter node for {q}:\n{}", e.plan));
        assert_eq!(filter.rows_out, actual, "{q} changed its result size");
        let est = filter.est_rows.expect("planner annotates estimates");
        let factor = est / actual as f64;
        assert!(
            (0.5..=2.0).contains(&factor),
            "{q}: estimate {est:.0} vs actual {actual} (factor {factor:.2}) \
             outside [0.5, 2.0]:\n{}",
            e.plan
        );
    }
}

#[test]
fn aggregate_over_path_is_unchanged_by_analyze() {
    let db = university(10, 500, 1);
    let mut s = db.session();
    s.run("range of E is Employees").unwrap();
    let q = "retrieve (total = sum(E.dept.budget over E))";
    let (plan, before) = (s.explain(q).unwrap().plan, s.query(q).unwrap().rows);
    s.run("analyze Departments").unwrap();
    assert_eq!(plan, s.explain(q).unwrap().plan);
    // Same plan, same fold order: the float sum is bit-identical.
    assert_eq!(before, s.query(q).unwrap().rows);
}

#[test]
fn plans_stable_without_analyze_and_deterministic_across_dop() {
    let queries = [
        "retrieve (E.name, E.dept.dname) where E.dept.floor = 2",
        "retrieve (E.name, D.dname) from E in Employees, D in Departments \
         where E.level = D.floor and E.salary > 90000.0",
        "retrieve (E.name) where E.salary > 60000.0 order by E.name asc",
    ];
    let plans = |workers: usize, analyzed: bool| -> Vec<String> {
        let db = university(10, 500, workers);
        let mut s = db.session();
        s.run("range of E is Employees").unwrap();
        if analyzed {
            s.run("analyze Departments; analyze Employees").unwrap();
        }
        queries.iter().map(|q| s.explain(q).unwrap().plan).collect()
    };

    // Unanalyzed: no batch join operator may appear at any DOP (the
    // statistics gate keeps seed plan shapes byte-identical).
    let u1 = plans(1, false);
    for p in &u1 {
        assert!(
            !p.contains("HashJoin") && !p.contains("IndexJoin"),
            "unanalyzed plan changed shape:\n{p}"
        );
    }
    assert_eq!(u1, plans(4, false), "unanalyzed plans diverge across DOP");
    assert_eq!(u1, plans(1, false), "unanalyzed plans not deterministic");

    // Analyzed: identical statistics must produce identical plans
    // regardless of the session's worker budget (the 500-member
    // collections sit below the parallel cutoff at every DOP).
    let a1 = plans(1, true);
    assert_eq!(a1, plans(4, true), "analyzed plans diverge across DOP");
    assert_eq!(a1, plans(1, true), "analyzed plans not deterministic");
    assert_eq!(
        a1[0], u1[0],
        "a path-only query must not depend on statistics"
    );
    assert!(a1[1].contains("HashJoin"), "{}", a1[1]);
}

#[test]
fn analyze_survives_a_reopen() {
    // Statistics live in the catalog image, which `analyze` rewrites
    // inside its own transaction: a reopened database plans the analyzed
    // equi join as before without being analyzed again.
    let dir = std::env::temp_dir().join(format!("exodus-stats-dur-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let open = || {
        Database::builder()
            .path(dir.join("db.vol"))
            .durability(exodus_db::Durability::Fsync)
            .build()
            .unwrap()
    };
    let q = "retrieve (E.name, D.dname) from E in Employees, D in Departments \
             where E.level = D.floor and E.salary > 90000.0";
    let (plan, rows) = {
        let db = open();
        load_university(&db, 40, 600);
        let mut s = db.session();
        s.run("analyze Departments; analyze Employees").unwrap();
        let plan = s.explain(q).unwrap().plan;
        assert!(plan.contains("HashJoin"), "{plan}");
        (plan, sorted(s.query(q).unwrap().rows))
    };
    let db = open();
    assert_eq!(db.read_catalog().stats["Departments"].row_count, 40);
    let mut s = db.session();
    assert_eq!(s.explain(q).unwrap().plan, plan);
    assert_eq!(sorted(s.query(q).unwrap().rows), rows);
    drop(s);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
