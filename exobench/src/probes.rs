//! Layer probes: timed calls on single public functions of each layer, over a
//! small generated data set. They run the same way in every traced run,
//! whatever the workload, so a per-layer number always has the same meaning;
//! the workload's own share of each layer comes from its spans and counters.
//!
//! Sizes: 3 000 flat employees over 100 departments (three identical
//! in-memory databases: plain, analyzed, DOP = nproc), 200 employees with 16
//! kids each, 4 000 raw heap records, a 10 000-key B+-tree, a 600-page file
//! volume behind a 16-frame pool, and a 200-commit fsynced journal with a
//! replica. All of it is hot in the CPU caches: these are per-call costs, not
//! memory-system numbers.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use crate::gen::{journal_append, Rng, University, EMPLOYEE_SALARY_POS, JOURNAL_SCHEMA};
use crate::layers::{self, Durability, Value, R};
use crate::stats::{median, Metric};

const FLAT_EMPS: usize = 3_000;
const FLAT_DEPTS: usize = 100;
const NESTED_EMPS: usize = 200;
const KIDS: usize = 16;
const REPS: usize = 15;
const FRAME_ROWS: usize = 1_024;

/// Nanoseconds per call of `f`, `reps` times.
fn time_ns<T>(reps: usize, mut f: impl FnMut() -> T) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_nanos() as f64
        })
        .collect()
}

fn must<T>(r: R<T>) -> T {
    r.unwrap_or_else(|e| panic!("probe call failed: {e}"))
}

pub fn run(seed: u64, dir: &Path) -> R<Vec<Metric>> {
    let mut out = Vec::new();
    let mut rng = Rng::new(seed, 90);
    query_probes(&mut rng, &mut out)?;
    value_probes(&mut rng, &mut out)?;
    storage_probes(&mut rng, dir, &mut out)?;
    durable_probes(&mut rng, dir, &mut out)?;
    Ok(out)
}

/// Median milliseconds of `text` on `sess`, after one unrecorded run.
fn stmt_ms(sess: &mut layers::Session, text: &str) -> R<f64> {
    layers::run(sess, text)?;
    let ns = time_ns(REPS, || must(layers::run(sess, text)));
    Ok(median(&ns) / 1e6)
}

/// `exec`, `exodus`, `server` and `obs`: whole statements on small databases.
fn query_probes(rng: &mut Rng, out: &mut Vec<Metric>) -> R<()> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let flat = University::generate(rng, FLAT_DEPTS, FLAT_EMPS, 0);
    let plain = layers::db_in_memory(16_384, 1, true)?;
    let t = Instant::now();
    let dept_oids = flat.load(&plain)?;
    let load_s = t.elapsed().as_secs_f64();
    out.push(Metric::single(
        "exodus.bulk_append_rows_per_s",
        "1/s",
        (FLAT_DEPTS + FLAT_EMPS) as f64 / load_s,
    ));
    let analyzed = layers::db_in_memory(16_384, 1, true)?;
    flat.load(&analyzed)?;
    let t = Instant::now();
    layers::run(
        &mut layers::session(&analyzed),
        "analyze Employees; analyze Departments",
    )?;
    out.push(Metric::single(
        "exodus.analyze_ms",
        "ms",
        t.elapsed().as_secs_f64() * 1e3,
    ));
    let parallel = layers::db_in_memory(16_384, nproc, true)?;
    flat.load(&parallel)?;

    let sum_salary = "retrieve (sum(E.salary over E)) from E in Employees";
    let path_sum = "retrieve (sum(E.dept.budget over E)) from E in Employees";
    let mut sess = layers::session(&plain);
    let scan_ms = stmt_ms(&mut sess, sum_salary)?;
    let path_ms = stmt_ms(&mut sess, path_sum)?;
    let per_row = 1e6 / FLAT_EMPS as f64;
    out.push(Metric::single(
        "exec.scan_ns_per_row",
        "ns",
        scan_ms * per_row,
    ));
    out.push(Metric::single(
        "exec.deref_ns_per_row",
        "ns",
        (path_ms - scan_ms) * per_row,
    ));
    let analyzed_ms = stmt_ms(&mut layers::session(&analyzed), path_sum)?;
    out.push(Metric::single(
        "exec.hashjoin_speedup",
        "ratio",
        path_ms / analyzed_ms,
    ));
    let parallel_ms = stmt_ms(&mut layers::session(&parallel), path_sum)?;
    out.push(Metric::single(
        "exec.dop_speedup",
        "ratio",
        path_ms / parallel_ms,
    ));
    drop((analyzed, parallel));

    // `explain analyze` of the path sum: inclusive time of the scan, and what
    // the operators above it add.
    let profile = layers::explain_analyze(&mut sess, path_sum)?;
    let root_ms = profile.first().map_or(0.0, |n| n.ms);
    let scan_node_ms = profile
        .iter()
        .find(|n| n.label.contains("Scan"))
        .map_or(0.0, |n| n.ms);
    out.push(Metric::single("exec.profile_scan_ms", "ms", scan_node_ms));
    out.push(Metric::single(
        "exec.profile_project_ms",
        "ms",
        root_ms - scan_node_ms,
    ));

    // Per-row dereference through the object store, and its batched form.
    let store = plain.store();
    let snap = layers::snapshot_ts(store.storage());
    let refs: Vec<_> = flat.emps.iter().map(|e| dept_oids[e.dept]).collect();
    let ns = time_ns(REPS, || {
        for &oid in &refs {
            black_box(must(layers::value_of_at(store, oid, snap)));
        }
    });
    out.push(Metric::single(
        "extra.value_of_ns",
        "ns",
        median(&ns) / refs.len() as f64,
    ));
    let ns = time_ns(REPS, || {
        for chunk in refs.chunks(1_024) {
            black_box(must(layers::fields_of_batch_at(store, chunk, 2, snap)));
        }
    });
    out.push(Metric::single(
        "extra.fields_of_batch_ns_per_oid",
        "ns",
        median(&ns) / refs.len() as f64,
    ));
    let employees = layers::collection_anchor(&plain, "Employees")?;
    let ns = time_ns(REPS, || {
        must(layers::scan_members_at(store, employees, snap, 1_024)).len()
    });
    out.push(Metric::single(
        "extra.member_scan_ns_per_row",
        "ns",
        median(&ns) / FLAT_EMPS as f64,
    ));

    // Nested sets: unnest with a full result, and the same unnest aggregated
    // away; the difference is what materialising the result rows costs.
    let nested_u = University::generate(rng, 20, NESTED_EMPS, KIDS);
    let nested = layers::db_in_memory(16_384, 1, true)?;
    nested_u.load(&nested)?;
    let mut nsess = layers::session(&nested);
    let unnest = "retrieve (C.name, Employees.dept.floor) from C in Employees.kids";
    let unnest_ms = stmt_ms(&mut nsess, unnest)?;
    let count_ms = stmt_ms(
        &mut nsess,
        "retrieve (count(C over C where C.age > 0)) from C in Employees.kids",
    )?;
    let per_kid = 1e6 / (NESTED_EMPS * KIDS) as f64;
    out.push(Metric::single(
        "exec.unnest_ns_per_row",
        "ns",
        count_ms * per_kid,
    ));
    out.push(Metric::single(
        "exec.result_ns_per_row",
        "ns",
        (unnest_ms - count_ms) * per_kid,
    ));
    let peak = layers::explain_analyze(&mut nsess, unnest)?
        .iter()
        .map(|n| n.peak_batch)
        .max()
        .unwrap_or(0);
    out.push(Metric::single("exec.peak_batch_rows", "count", peak as f64));

    // The wire: frames in memory, then pipelined point lookups over loopback.
    let rows: Vec<Vec<Value>> = flat.emps[..FRAME_ROWS]
        .iter()
        .map(|e| vec![Value::Str(e.name.clone()), Value::Float(e.salary)])
        .collect();
    let mut frame = Vec::new();
    let ns = time_ns(REPS * 4, || {
        must(layers::encode_row_batch(&rows, &mut frame))
    });
    out.push(Metric::single(
        "server.frame_encode_ns_per_row",
        "ns",
        median(&ns) / FRAME_ROWS as f64,
    ));
    let ns = time_ns(REPS * 4, || must(layers::decode_row_batch(&frame)));
    out.push(Metric::single(
        "server.frame_decode_ns_per_row",
        "ns",
        median(&ns) / FRAME_ROWS as f64,
    ));
    layers::run(&mut sess, "define unique index emp_id on Employees (id)")?;
    let point = |id: u64| format!("retrieve (E.name) from E in Employees where E.id = {id}");
    {
        let server = layers::serve(&plain)?;
        let mut remote = layers::connect(&server)?;
        let batches: Vec<Vec<String>> = (0..40)
            .map(|_| (0..8).map(|_| point(rng.below(FLAT_EMPS as u64))).collect())
            .collect();
        let t = Instant::now();
        for batch in &batches {
            black_box(layers::remote_pipeline(&mut remote, batch)?);
        }
        out.push(Metric::single(
            "server.pipelined_stmts_per_s",
            "1/s",
            (batches.len() * 8) as f64 / t.elapsed().as_secs_f64(),
        ));
    }

    // The registry's own cost: the same point lookups with metrics on and off.
    let small = University::generate(rng, 10, 400, 0);
    let rate = |metrics: bool| -> R<f64> {
        let db = layers::db_in_memory(4_096, 1, metrics)?;
        small.load(&db)?;
        let mut s = layers::session(&db);
        layers::run(&mut s, "define unique index emp_id on Employees (id)")?;
        let texts: Vec<String> = (0..400).map(point).collect();
        let pass = |s: &mut layers::Session| -> R<f64> {
            let t = Instant::now();
            for text in &texts {
                black_box(layers::run(s, text)?);
            }
            Ok(texts.len() as f64 / t.elapsed().as_secs_f64())
        };
        pass(&mut s)?;
        let rates = (0..5).map(|_| pass(&mut s)).collect::<R<Vec<_>>>()?;
        Ok(median(&rates))
    };
    let (on, off) = (rate(true)?, rate(false)?);
    out.push(Metric::single(
        "obs.metrics_overhead_ratio",
        "ratio",
        on / off,
    ));
    Ok(())
}

/// `extra::valueio` on generated employees without kids and with 16.
fn value_probes(rng: &mut Rng, out: &mut Vec<Metric>) -> R<()> {
    let encode_all = |kids: usize, rng: &mut Rng| -> (Vec<Value>, Vec<Vec<u8>>) {
        let u = University::generate(rng, 10, 500, kids);
        let values = u.emp_values(&[layers::Oid(7); 10]);
        let bytes = values.iter().map(layers::value_to_bytes).collect();
        (values, bytes)
    };
    let (scalar_values, scalar_bytes) = encode_all(0, rng);
    let (_, nested_bytes) = encode_all(KIDS, rng);
    let per_value = |ns: Vec<f64>| median(&ns) / scalar_bytes.len() as f64;

    let ns = time_ns(REPS, || {
        for b in &scalar_bytes {
            black_box(must(layers::value_from_bytes(b)));
        }
    });
    out.push(Metric::single(
        "extra.decode_scalar_ns",
        "ns",
        per_value(ns),
    ));
    let ns = time_ns(REPS, || {
        for b in &nested_bytes {
            black_box(must(layers::value_from_bytes(b)));
        }
    });
    out.push(Metric::single(
        "extra.decode_nested_ns",
        "ns",
        per_value(ns),
    ));
    let ns = time_ns(REPS, || {
        for v in &scalar_values {
            black_box(layers::value_to_bytes(v));
        }
    });
    out.push(Metric::single("extra.encode_ns", "ns", per_value(ns)));
    let ns = time_ns(REPS, || {
        for b in &nested_bytes {
            black_box(must(layers::tuple_field_from_bytes(b, EMPLOYEE_SALARY_POS)));
        }
    });
    out.push(Metric::single(
        "extra.field_project_ns",
        "ns",
        per_value(ns),
    ));
    Ok(())
}

/// `storage`: buffer pool, heap, object table and B+-tree, on raw records.
fn storage_probes(rng: &mut Rng, dir: &Path, out: &mut Vec<Metric>) -> R<()> {
    let u = University::generate(rng, 10, 4_000, 0);
    let records: Vec<Vec<u8>> = u
        .emp_values(&[layers::Oid(7); 10])
        .iter()
        .map(layers::value_to_bytes)
        .collect();
    let n = records.len() as f64;
    let sm = layers::sm_in_memory(4_096);
    let (file, rids) = layers::heap_load(&sm, &records)?;
    let snap = layers::snapshot_ts(&sm);

    let page = rids[0].page;
    let ns = time_ns(REPS, || {
        for _ in 0..10_000 {
            black_box(must(layers::pin_page(&sm, page)));
        }
    });
    out.push(Metric::single(
        "storage.pin_hit_ns",
        "ns",
        median(&ns) / 10_000.0,
    ));

    let seen = layers::heap_scan_count(&sm, file, snap, 1_024)?;
    if seen != records.len() {
        return Err(format!("heap scan saw {seen} of {} records", records.len()));
    }
    let ns = time_ns(REPS, || {
        must(layers::heap_scan_count(&sm, file, snap, 1_024))
    });
    out.push(Metric::single(
        "storage.heap_scan_ns_per_record",
        "ns",
        median(&ns) / n,
    ));

    // Random order, batches of 1 024: the probe side of a hash or index join.
    let mut shuffled = rids.clone();
    for i in (1..shuffled.len()).rev() {
        shuffled.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let ns = time_ns(REPS, || {
        shuffled
            .chunks(1_024)
            .map(|chunk| layers::heap_read_versioned(&sm, chunk))
            .sum::<usize>()
    });
    out.push(Metric::single(
        "storage.heap_read_ns",
        "ns",
        median(&ns) / n,
    ));

    let (table, oids) = layers::object_table_load(&sm, &shuffled)?;
    let ns = time_ns(REPS, || {
        oids.chunks(1_024)
            .map(|chunk| must(layers::object_table_get_many(&sm, &table, chunk)))
            .sum::<usize>()
    });
    out.push(Metric::single(
        "storage.oid_lookup_ns",
        "ns",
        median(&ns) / n,
    ));

    let keys = 10_000u64;
    let tree = layers::btree_load(&sm, keys, u64::to_be_bytes)?;
    let probes: Vec<[u8; 8]> = (0..2_000).map(|_| rng.below(keys).to_be_bytes()).collect();
    let ns = time_ns(REPS, || {
        for key in &probes {
            black_box(must(layers::btree_lookup(&sm, &tree, key)));
        }
    });
    out.push(Metric::single(
        "storage.btree_lookup_us",
        "us",
        median(&ns) / probes.len() as f64 / 1e3,
    ));

    // A file volume much larger than its pool, pinned page after page: every
    // pin reads the volume and evicts a frame.
    let spill_dir = dir.join("probe-spill");
    std::fs::create_dir_all(&spill_dir).map_err(|e| e.to_string())?;
    let small = layers::sm_file(&spill_dir.join("spill.vol"), 16)?;
    let (_, spill_rids) = layers::heap_load(&small, &records)?;
    let mut pages: Vec<u64> = spill_rids.iter().map(|r| r.page).collect();
    pages.dedup();
    let (_, misses0, _) = layers::sm_pool_stats(&small);
    let ns = time_ns(REPS, || {
        for &p in &pages {
            black_box(must(layers::pin_page(&small, p)));
        }
    });
    let (_, misses1, _) = layers::sm_pool_stats(&small);
    if misses1 - misses0 < (pages.len() * REPS) as u64 / 2 {
        return Err("pin_miss probe: the pool absorbed the pins it was meant to miss".into());
    }
    out.push(Metric::single(
        "storage.pin_miss_us",
        "us",
        median(&ns) / pages.len() as f64 / 1e3,
    ));
    Ok(())
}

/// The write path: log, commit, recovery, checkpoint, and replication, on an
/// fsynced journal of 200 autocommit appends.
fn durable_probes(rng: &mut Rng, dir: &Path, out: &mut Vec<Metric>) -> R<()> {
    let dir = dir.join("probe-durable");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;

    let wal = layers::wal_open(&dir.join("bare.wal"))?;
    let mut i = 0;
    let ns = time_ns(2_000, || {
        i += 1;
        must(layers::wal_append(&wal, i))
    });
    out.push(Metric::single("storage.wal_append_ns", "ns", median(&ns)));
    // Only the flush is the fsync; the append before it just makes it needed.
    let flush_us: Vec<f64> = (0..40)
        .map(|_| {
            i += 1;
            must(layers::wal_append(&wal, i));
            let t = Instant::now();
            must(layers::wal_flush(&wal));
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    out.push(Metric::median("storage.wal_fsync_us", "us", &flush_us));
    drop(wal);

    let commits = 200i64;
    let path = dir.join("journal.vol");
    let db = layers::db_file(&path, 1_024, Durability::Fsync)?;
    let mut sess = layers::session(&db);
    layers::run(&mut sess, JOURNAL_SCHEMA)?;
    for k in 0..commits {
        let n = rng.below(1_000);
        layers::run(&mut sess, &journal_append(k, "p", n as i64))?;
    }
    let (wait_ns, waits) =
        layers::histogram_sum_count(&db, "storage_txn_commit_wait_ns").unwrap_or((0, 0));
    out.push(Metric::single(
        "storage.commit_wait_mean_us",
        "us",
        wait_ns as f64 / waits.max(1) as f64 / 1e3,
    ));

    // Shipping the log: fetch on the primary side, ingest on the replica side.
    {
        let source = layers::repl_source(layers::wal_of(&db)?)?;
        let mut applier = layers::repl_applier(&dir.join("applier.vol"), 1_024)?;
        let (mut fetch_ns, mut ingest_ns, mut records, mut after) = (0.0, 0.0, 0u64, 0u64);
        loop {
            let t = Instant::now();
            let entries = layers::repl_fetch(&source, after, 512)?;
            fetch_ns += t.elapsed().as_nanos() as f64;
            let Some(last) = entries.last() else { break };
            after = last.lsn;
            records += entries.len() as u64;
            let t = Instant::now();
            layers::repl_ingest(&mut applier, &entries)?;
            ingest_ns += t.elapsed().as_nanos() as f64;
        }
        out.push(Metric::single(
            "storage.repl_fetch_ns_per_record",
            "ns",
            fetch_ns / records as f64,
        ));
        out.push(Metric::single(
            "storage.repl_ingest_us_per_record",
            "us",
            ingest_ns / records as f64 / 1e3,
        ));
    }

    // A whole replica: bootstrap over the backlog, then follow single commits.
    {
        let t = Instant::now();
        let mut replica = layers::replica_in_process(&db, &dir.join("replica.vol"))?;
        out.push(Metric::single(
            "exodus.replica_catchup_records_per_s",
            "1/s",
            replica.applied_lsn() as f64 / t.elapsed().as_secs_f64(),
        ));
        let mut lag_max = 0;
        let pump_us: Vec<f64> = (0..30)
            .map(|k| {
                let k = commits + k;
                must(layers::run(&mut sess, &journal_append(k, "p", 1)));
                let t = Instant::now();
                lag_max = lag_max.max(must(layers::replica_pump_once_lag(&mut replica)));
                must(layers::replica_pump_until_caught_up(&mut replica));
                t.elapsed().as_nanos() as f64 / 1e3
            })
            .collect();
        out.push(Metric::median("exodus.replica_pump_us", "us", &pump_us));
        out.push(Metric::single(
            "exodus.replica_lag_records_max",
            "count",
            lag_max as f64,
        ));
    }

    // Crash (nothing is flushed or checkpointed), reopen, then checkpoint.
    let image = layers::store_image(&db);
    drop(sess);
    std::mem::forget(db);
    let t = Instant::now();
    let (store, records) = layers::reopen_store(&path, 1_024, &image)?;
    out.push(Metric::single(
        "storage.recovery_records_per_s",
        "1/s",
        records as f64 / t.elapsed().as_secs_f64(),
    ));
    let t = Instant::now();
    layers::sm_checkpoint(store.storage())?;
    out.push(Metric::single(
        "storage.checkpoint_ms",
        "ms",
        t.elapsed().as_secs_f64() * 1e3,
    ));
    Ok(())
}
