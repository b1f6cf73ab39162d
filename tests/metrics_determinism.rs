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
//! references: ref-chasing queries populate worker-local deref caches,
//! whose pin pattern legitimately depends on which worker claims which
//! morsel.

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
/// * DOP 4 — 44 pins: the header (`member_count` gate), each page once
///   across all morsels (cached partitions pin nothing; each 3-page
///   morsel holds under 1024 rows, so no chunk-boundary re-pins), and
///   4 planner pins — costing the parallel candidate re-reads the
///   collection count from the header via `leftmost_scan_rows`,
///   `cost`, and `cardinality`.
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
    for (dop, d, hits) in [(1, &d1, 147), (4, &d4, 132)] {
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
        // The workload is deref-free by construction (see the module
        // doc), so the dereference-cache counters must not move at any
        // DOP.
        for c in [
            "exec_deref_cache_hits_total",
            "exec_deref_cache_misses_total",
            "exec_deref_cache_full_total",
        ] {
            assert_eq!(counter(d, c), 0, "DOP-{dop} {c}: deref-free workload");
        }
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

/// Dereference-cache counters, pinned serially (ref-chasing workloads
/// are only DOP-deterministic at DOP 1: worker-local caches make hit
/// patterns depend on morsel claiming).
#[test]
fn deref_cache_counters_pinned() {
    let counter = |d: &[(String, u64)], name: &str| -> u64 {
        d.iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    let deltas = |n_depts: usize, n_emps: usize, q: &str, rows: usize| {
        let db = university(n_depts, n_emps, 1);
        let mut s = db.session();
        s.run("range of E is Employees").unwrap();
        let before = db.metrics_snapshot().unwrap();
        assert_eq!(s.query(q).unwrap().rows.len(), rows);
        let after = db.metrics_snapshot().unwrap();
        MetricsSnapshot::counter_deltas(&before, &after)
    };

    // 10k employees over 20 departments. Scan rows bind `E` as a
    // reference, so `E.dept` skip-decodes per employee (10 000 misses,
    // every object distinct), then `.budget` misses once per department
    // and hits for the other 9 980 rows. The 10 020 cache inserts
    // overflow the 4 096-entry cap; the 5 924 dropped inserts —
    // previously silent — are counted.
    let d = deltas(20, 10_000, "retrieve (E.dept.budget)", 10_000);
    assert_eq!(counter(&d, "exec_deref_cache_hits_total"), 9_980);
    assert_eq!(counter(&d, "exec_deref_cache_misses_total"), 10_020);
    assert_eq!(counter(&d, "exec_deref_cache_full_total"), 5_924);

    // 5k employees over 5k departments (seeded-random assignment hits
    // 3 606 distinct ones): 5 000 `E.dept` misses + 3 606 first-touch
    // budget misses = 8 606, the remaining 1 394 rows hit, and the
    // 8 606 − 4 096 = 4 510 over-cap inserts are dropped and counted.
    let d = deltas(5_000, 5_000, "retrieve (E.dept.budget)", 5_000);
    assert_eq!(counter(&d, "exec_deref_cache_hits_total"), 1_394);
    assert_eq!(counter(&d, "exec_deref_cache_misses_total"), 8_606);
    assert_eq!(counter(&d, "exec_deref_cache_full_total"), 4_510);
}

/// The ref-chasing path aggregate — worker-local deref caches and all —
/// returns the same answer at DOP 1 and DOP 4, the DOP-4 run really
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
