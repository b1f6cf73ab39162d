//! Metrics determinism across degrees of parallelism.
//!
//! Counter deltas for an identical workload must not depend on thread
//! scheduling: every run at a given DOP yields *identical* deltas, and
//! DOP-independent counters agree across DOPs. This pins the
//! `HeapFile::partitions` chain cache (the old chain walk re-pinned
//! every heap page on each parallel scan, inflating pool hits at DOP 4
//! by the heap's page count per query) and guards against future
//! scheduling-dependent accounting sneaking in.
//!
//! The workload queries an own-mode snapshot collection (built with
//! `retrieve into`), so scans decode inline values and never chase
//! references; the ref-chasing pin counts are pinned serially by
//! [`path_pins_pinned`].

use std::sync::Arc;

use extra_excess::storage::StorageManager;
use extra_excess::{Database, MetricsSnapshot, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `n_emps` employees (no kids, `dept: ref Department`) over `n_depts`
/// departments in a 64Ki-page in-memory pool, at `workers` worker
/// threads. Seeded, so every call at one scale loads identical data —
/// the counter values pinned below depend on this exact draw order.
fn university(n_depts: usize, n_emps: usize, workers: usize) -> Arc<Database> {
    let db = Database::builder()
        .storage(StorageManager::in_memory(65_536))
        .worker_threads(workers)
        .build()
        .unwrap();
    db.run(
        r#"
        define type Department (dname: varchar, floor: int4, budget: float8);
        define type Person (name: varchar, age: int4, kids: { own Person });
        define type Employee inherits Person (dept: ref Department, salary: float8, hired: Date);
        create { own ref Department } Departments;
        create { own ref Employee } Employees;
        "#,
    )
    .unwrap();
    let depts = (0..n_depts)
        .map(|i| {
            Value::Tuple(vec![
                Value::Str(format!("dept{i:04}")),
                Value::Int((i % 10) as i64 + 1),
                Value::Float(50_000.0 + (i as f64) * 1000.0),
            ])
        })
        .collect();
    let dept_oids = db.bulk_append("Departments", depts).unwrap();

    let mut rng = StdRng::seed_from_u64(0x0EC0DE5);
    let adts = extra_excess::model::AdtRegistry::with_builtins();
    let date_id = adts.lookup("Date").unwrap();
    let emps = (0..n_emps)
        .map(|i| {
            let dept = dept_oids[rng.gen_range(0..n_depts)];
            let year = 1950 + rng.gen_range(0..45u32);
            let month = rng.gen_range(1..13u32);
            let day = rng.gen_range(1..29u32);
            let hired = adts
                .parse(date_id, &format!("{month}/{day}/{year}"))
                .unwrap();
            Value::Tuple(vec![
                Value::Str(format!("emp{i:06}")),
                Value::Int(rng.gen_range(20..65)),
                Value::Set(vec![]),
                Value::Ref(dept),
                Value::Float(20_000.0 + rng.gen_range(0..80_000) as f64),
                hired,
            ])
        })
        .collect();
    db.bulk_append("Employees", emps).unwrap();
    db
}

/// Deref-free selection over the 10k-member snapshot (~1.4%
/// selectivity).
const Q: &str = "retrieve (S.sal) where S.sal > 99000.0";

/// Matching members of [`Q`].
const ROWS: usize = 140;

/// Counter deltas over three identical queries, measured after one
/// warm-up execution (the warm-up lets DOP > 1 build the partition
/// chain cache, whose one-time page walk is a real, documented cost).
fn workload_deltas(dop: usize) -> Vec<(String, u64)> {
    let db = university(20, 10_000, dop);
    let mut s = db.session();
    s.run("range of E is Employees").unwrap();
    s.run("retrieve into Snap (sal = E.salary) from E in Employees")
        .unwrap();
    s.run("range of S is Snap").unwrap();
    s.query(Q).unwrap();
    let before = db.metrics_snapshot().unwrap();
    for _ in 0..3 {
        assert_eq!(s.query(Q).unwrap().rows.len(), ROWS);
    }
    let after = db.metrics_snapshot().unwrap();
    after
        .check_monotonic_since(&before)
        .expect("counters moved backwards");
    MetricsSnapshot::counter_deltas(&before, &after)
}

/// Counters whose values legitimately depend on the degree of
/// parallelism — still deterministic *within* a DOP (see
/// [`pool_counters_pinned_at_dop_1_and_4`] for the exact per-DOP
/// values):
///
/// * `exec_morsels_total` / `exec_batches_total`: the parallel plan
///   claims morsels and chunks each one independently; the serial plan
///   batches one continuous scan.
/// * `storage_pool_hits_total`: morsel-boundary re-pins follow the
///   partition geometry (a function of `dop × MORSELS_PER_WORKER`),
///   and at DOP ≥ 2 the planner costs the parallel candidate, which
///   re-reads the collection count from its header page a constant
///   four extra times per query.
const DOP_DEPENDENT: [&str; 3] = [
    "exec_batches_total",
    "exec_morsels_total",
    "storage_pool_hits_total",
];

#[test]
fn counters_identical_across_dop() {
    let d1 = workload_deltas(1);
    let d1_again = workload_deltas(1);
    assert_eq!(d1, d1_again, "DOP-1 counter deltas are not deterministic");

    let d4 = workload_deltas(4);
    let d4_again = workload_deltas(4);
    // Which worker claims which morsel varies run to run; the totals
    // may not.
    assert_eq!(d4, d4_again, "DOP-4 counter deltas are not deterministic");

    let strip = |d: &[(String, u64)]| -> Vec<(String, u64)> {
        d.iter()
            .filter(|(n, _)| !DOP_DEPENDENT.contains(&n.as_str()))
            .cloned()
            .collect()
    };
    assert_eq!(
        strip(&d1),
        strip(&d4),
        "DOP-independent counters diverged between DOP 1 and DOP 4 \
         (full deltas: DOP1 {d1:?} vs DOP4 {d4:?})"
    );
}

/// Exact page-pin accounting, pinned per DOP. Every heap record now
/// carries a 16-byte MVCC version-stamp header, so the 10k-member
/// snapshot heap spans 39 pages (it was 19 before versioning); it still
/// sits entirely in the 64Ki-page pool, so every pin is a hit and
/// misses stay zero. Per query:
///
/// * DOP 1 — 49 pins: the header (chain start), each of the 39 pages
///   once, and 9 re-pins where a 1024-row batch boundary lands
///   mid-page.
/// * DOP 4 — 41 pins: the header (`member_count` gate), each page once
///   across all morsels (cached partitions pin nothing; each 3-page
///   morsel holds under 1024 rows, so no chunk-boundary re-pins), and
///   1 pin where the session's statement cache checks the collection
///   count the cached plan was costed with (each measured query is a
///   hit). Planning afresh — the warm-up — pins the header 4 times
///   instead: costing the parallel candidate re-reads the count via the
///   leftmost scan's `cardinality`, then the pipeline's `cost` and
///   `cardinality`; the plan records the collection once.
#[test]
fn pool_counters_pinned_at_dop_1_and_4() {
    let d1 = workload_deltas(1);
    let d4 = workload_deltas(4);
    let counter = |d: &[(String, u64)], name: &str| -> u64 {
        d.iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    for (dop, d, hits) in [(1, &d1, 147), (4, &d4, 123)] {
        assert_eq!(
            counter(d, "storage_pool_hits_total"),
            hits,
            "DOP-{dop} pool hits moved; was 3 × {} per the breakdown above",
            hits / 3
        );
        assert_eq!(counter(d, "storage_pool_misses_total"), 0, "DOP-{dop}");
        assert_eq!(
            counter(d, "exec_rows_total"),
            3 * ROWS as u64,
            "DOP-{dop}; was 3 × {ROWS} matching members"
        );
        assert_eq!(counter(d, "db_statements_total"), 3, "DOP-{dop}");
        assert_eq!(counter(d, "db_statements_retrieve_total"), 3, "DOP-{dop}");
    }
    // The DOP-dependent executor counters, pinned per DOP: DOP 1 never
    // touches the morsel queue; DOP 4 splits the 39 pages into 13
    // morsels per query, each small enough to chunk into exactly one
    // batch.
    assert_eq!(counter(&d1, "exec_morsels_total"), 0);
    assert_eq!(counter(&d1, "exec_batches_total"), 30);
    assert_eq!(counter(&d4, "exec_morsels_total"), 39);
    assert_eq!(counter(&d4, "exec_batches_total"), 39);
}

/// Buffer pins of two ref-chasing scans, pinned serially: what one
/// `retrieve (E.dept.budget)` costs the pool now that paths resolve per
/// batch — `E.dept` for a batch's 1,024 employees, then `.budget` for
/// the distinct departments among them, each a page-grouped visit that
/// pins every object-directory and heap page once.
///
/// Before, every row went through two per-statement caches and then the
/// per-object read (directory root + directory + heap page): the same
/// queries pinned 30,106 and 25,841 pages, with 5,924 of 10,020 and
/// 4,510 of 8,606 cache inserts dropped at the 4,096-entry cap.
#[test]
fn path_pins_pinned() {
    let pins = |n_depts: usize, n_emps: usize, q: &str, rows: usize| {
        let db = university(n_depts, n_emps, 1);
        let mut s = db.session();
        s.run("range of E is Employees").unwrap();
        let before = db.metrics_snapshot().unwrap();
        assert_eq!(s.query(q).unwrap().rows.len(), rows);
        let after = db.metrics_snapshot().unwrap();
        let d = MetricsSnapshot::counter_deltas(&before, &after);
        let counter = |name: &str| d.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v);
        assert_eq!(
            counter("storage_pool_misses_total"),
            0,
            "the pool holds it all"
        );
        counter("storage_pool_hits_total")
    };
    // 10k employees over 20 departments: every batch shares the same 20.
    assert_eq!(pins(20, 10_000, "retrieve (E.dept.budget)", 10_000), 344);
    // 5k employees over 5k departments (3,606 distinct ones referenced).
    assert_eq!(pins(5_000, 5_000, "retrieve (E.dept.budget)", 5_000), 623);
}

/// The ref-chasing path aggregate returns the same answer at DOP 1 and
/// DOP 4, the DOP-4 run really
/// went through the morsel queue, and further work only moves the
/// whole-database snapshot forward.
#[test]
fn path_aggregate_agrees_at_dop_1_and_4() {
    let q = "retrieve (sum(E.dept.budget over E))";
    let serial = university(20, 10_000, 1);
    let parallel = university(20, 10_000, 4);
    let mut s1 = serial.session();
    let mut s4 = parallel.session();
    s1.run("range of E is Employees").unwrap();
    s4.run("range of E is Employees").unwrap();
    assert_eq!(s1.query(q).unwrap().rows, s4.query(q).unwrap().rows);

    let snap = parallel.metrics_snapshot().unwrap();
    assert!(
        snap.counter("exec_morsels_total").unwrap() > 0,
        "the DOP-4 run claimed no morsels"
    );
    s4.query(q).unwrap();
    parallel
        .metrics_snapshot()
        .unwrap()
        .check_monotonic_since(&snap)
        .expect("counters moved backwards");
}
