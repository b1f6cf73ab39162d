//! The observability surface on a durable workload: metrics snapshot,
//! Prometheus exposition, tracing spans, and the slow-query log.
//!
//! Opens an `Fsync` file-backed database with tracing on, runs a small
//! university workload, and prints what the engine saw: the top slow
//! queries (with their annotated plans) and the formatted metrics
//! snapshot — WAL, buffer pool, executor, and statement counters.
//!
//! ```console
//! cargo run --release --example observability
//! ```

use extra_excess::{Database, Durability, TraceConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("excess-observability-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;

    let db = Database::builder()
        .path(dir.join("univ.db"))
        .durability(Durability::Fsync)
        .trace(TraceConfig {
            // Log every statement so the example has something to show;
            // production would keep the 10 ms default.
            slow_query_threshold_ns: 0,
            ..TraceConfig::default()
        })
        .build()?;

    let mut session = db.session();
    session.run(
        r#"
        define type Person (name: varchar, age: int4, salary: float8);
        create { own ref Person } Employees;
    "#,
    )?;
    for i in 0..500 {
        session.run(&format!(
            r#"append to Employees (name = "emp{i}", age = {}, salary = {}.0)"#,
            22 + i % 40,
            30_000 + 117 * i
        ))?;
    }
    session.query("retrieve (E.name, E.salary) from E in Employees where E.salary > 85000.0")?;
    session.query(
        "retrieve (E.age, a = avg(E.salary over E by E.age)) from E in Employees where E.age < 30",
    )?;

    // `observe <stmt>` shows one statement's cost inline.
    let observed = session
        .run("observe retrieve (E.name) from E in Employees where E.age = 25")?
        .into_iter()
        .next()
        .and_then(|r| r.observation())
        .expect("observe returns an observation");
    println!("== observe retrieve ... where E.age = 25 ==\n{observed}");

    // The slow-query log, slowest first: with a zero threshold this is
    // simply "the most expensive statements", profiles attached.
    println!("== top slow queries ==");
    for q in db.slow_queries().iter().take(3) {
        println!("{:>10.3} ms  {}", q.elapsed_ns as f64 / 1e6, q.statement);
        if let Some(profile) = &q.payload {
            for line in format!("{profile}").lines() {
                println!("              {line}");
            }
        }
    }

    // What the tracer recorded for the last statements.
    let spans = db.trace_spans();
    println!("== last trace spans ({} recorded) ==", spans.len());
    for s in spans.iter().rev().take(8).rev() {
        let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
        println!(
            "  #{:<4} parent {:<4} {:<10} {:>9} ns  {}",
            s.id,
            parent,
            s.name,
            s.elapsed_ns,
            s.detail.chars().take(48).collect::<String>()
        );
    }

    // The full registry: every layer's counters in one snapshot. The
    // same data encodes as the Prometheus exposition (`to_prometheus`)
    // and reads as rows of `sys.metrics`.
    let snap = db.metrics_snapshot().expect("metrics are on by default");
    println!("== metrics snapshot ==");
    for m in &snap.metrics {
        use extra_excess::obs::SampleValue;
        match &m.value {
            SampleValue::Counter(v) => println!("  {:<40} {v}", m.name),
            SampleValue::Gauge(v) => println!("  {:<40} {v}", m.name),
            SampleValue::Histogram { sum, count, .. } => {
                let mean = if *count > 0 { sum / count } else { 0 };
                println!("  {:<40} count={count} mean={mean}", m.name)
            }
        }
    }
    let wal_fsyncs = snap.counter("storage_wal_fsyncs_total").unwrap_or(0);
    let appends = snap.counter("storage_wal_appends_total").unwrap_or(0);
    println!("\n{appends} WAL appends reached the log in {wal_fsyncs} fsyncs (group commit).");

    drop(session);
    drop(db);
    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
