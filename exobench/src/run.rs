//! One workload, start to finish: set-up, warm-up, the measured closed loop,
//! the checks that follow it, and the metrics. The untraced run produces the
//! end-to-end metrics; the traced run produces the per-layer ones.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::gen::Expect;
use crate::json::Json;
use crate::layers::{self, Database, R};
use crate::stats::{median, Metric};
use crate::trace::{self, Span, Tracer};
use crate::workloads::{check, last_response, spanned_stmt, Env, Instance, Section, Workload};
use crate::{host, probes, spec};

/// Full set-ups timed per untraced run; `setup_s` is their median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 11;
/// Statements of the workload's own mix sampled locally and over the wire in
/// one pass; after a warming pass, passes repeat until half a second has gone
/// into them, so that cheap statements are sampled thousands of times.
const SAMPLES: usize = 60;
const MAX_SAMPLE_PASSES: usize = 200;
/// Untraced/traced pairs of stretches a traced run's window is cut into.
const ALTERNATIONS: usize = 4;

pub struct Outcome {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    /// The metrics `BENCHMARK.json` names for this kind of run, in its order.
    pub metrics: Vec<Metric>,
    /// Everything else worth reading: per-class latencies, sizes, recovery.
    pub detail: Vec<Metric>,
    pub first_failure: Option<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The line the driver reads: exactly these four keys.
    pub fn contract_line(&self) -> Json {
        Json::obj([
            ("correct", Json::from(self.correct())),
            ("attempted", Json::from(self.attempted.max(1))),
            ("failed", Json::from(self.failed)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            let value = Json::obj([
                                ("value", Json::Num(m.value)),
                                ("unit", Json::str(m.unit)),
                            ]);
                            (m.name.clone(), value)
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

fn warm_up(inst: &mut dyn Instance, seconds: f64) -> R<Section> {
    inst.section(
        Duration::from_secs_f64((seconds * 0.1).clamp(0.05, 1.0)),
        false,
    )
}

fn class_detail(section: &Section, detail: &mut Vec<Metric>) {
    for (class, ms) in &section.classes {
        detail.push(Metric::median(&format!("{class}_p50_ms"), "ms", ms));
    }
}

/// Fail loudly if the run's metric names are not exactly the promised ones.
fn conform(
    metrics: &[Metric],
    promised: impl Iterator<Item = (&'static str, &'static str)>,
) -> R<Vec<Metric>> {
    let mut out = Vec::new();
    for (name, unit) in promised {
        let m = metrics
            .iter()
            .find(|m| m.name == name)
            .ok_or_else(|| format!("metric '{name}' was promised but not measured"))?;
        if m.unit != unit {
            return Err(format!(
                "metric '{name}' is in {} but promised in {unit}",
                m.unit
            ));
        }
        if !m.value.is_finite() {
            return Err(format!("metric '{name}' is not a finite number"));
        }
        out.push(m.clone());
    }
    Ok(out)
}

pub fn untraced(w: &Workload, env: &Env, seconds: f64) -> R<Outcome> {
    let mut setup_s = Vec::new();
    let mut inst = None;
    // At least three set-ups; a cheap one is repeated (up to eleven times)
    // until a second has gone into set-ups, so that its median is as steady
    // as an expensive one's.
    while setup_s.len() < MIN_SETUPS
        || (setup_s.len() < MAX_SETUPS && setup_s.iter().sum::<f64>() < 1.0)
    {
        // One database set at a time: drop the previous before building the next.
        drop(inst.take());
        let t = Instant::now();
        inst = Some((w.setup)(env, setup_s.len())?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut inst = inst.expect("MIN_SETUPS > 0");

    let warm = warm_up(inst.as_mut(), seconds)?;
    let stored = |inst: &dyn Instance| {
        let (volume, log) = inst.stored_bytes();
        (volume + log, inst.user_bytes())
    };
    let (stored_before, user_before) = stored(inst.as_ref());
    let section = inst.section(Duration::from_secs_f64(seconds), false)?;
    let (stored_after, user_after) = stored(inst.as_ref());
    // Where the window wrote user data: the bytes it added to storage per
    // byte it wrote, whatever was loaded before. Where it only read: the
    // bytes stored per byte loaded.
    let stored_per_user = if user_after > user_before {
        (stored_after - stored_before) as f64 / (user_after - user_before) as f64
    } else {
        stored_after as f64 / user_after.max(1) as f64
    };
    // Before `finish`: the checks there (a recovery reads the whole log) are
    // not part of what the workload's users hold in memory.
    let peak_rss_mb = host::peak_rss_mb();
    let finish = inst.finish()?;

    let sliced = section.sliced();
    let metrics = vec![
        Metric::median("setup_s", "s", &setup_s),
        sliced.p50_ms,
        sliced.p95_ms,
        sliced.stmts_per_s,
        Metric::single("peak_rss_mb", "MiB", peak_rss_mb),
        Metric::single("bytes_per_user_byte", "ratio", stored_per_user),
    ];
    let mut detail = vec![
        Metric::single("measured_window_s", "s", section.budget_s),
        Metric::single("statements", "count", section.stmts() as f64),
    ];
    class_detail(&section, &mut detail);
    detail.extend(finish.detail);
    detail.push(Metric::single(
        "peak_rss_after_checks_mb",
        "MiB",
        host::peak_rss_mb(),
    ));
    Ok(Outcome {
        workload: w.name,
        attempted: warm.attempted + section.attempted + finish.attempted,
        failed: warm.failed + section.failed + finish.failed,
        metrics: conform(&metrics, spec::END_TO_END.iter().map(|m| (m.name, m.unit)))?,
        detail,
        first_failure: warm.first_failure.or(section.first_failure),
    })
}

/// Registry and pool counters that describe what a section made the layers do.
struct Counters {
    hits: u64,
    misses: u64,
    evictions: u64,
    fsyncs: u64,
    commits: u64,
    wal_bytes: u64,
    deref_hits: u64,
    deref_misses: u64,
    batches: u64,
}

impl Counters {
    /// A family that no longer exists reads as 0: the metric derived from it
    /// then says "none", which is what its removal means.
    fn read(db: &Arc<Database>) -> Counters {
        let (hits, misses, evictions) = layers::pool_stats(db);
        let c = |name| layers::counter(db, name).unwrap_or(0);
        Counters {
            hits,
            misses,
            evictions,
            fsyncs: c("storage_wal_fsyncs_total"),
            commits: c("storage_txn_committed_total"),
            wal_bytes: c("storage_wal_append_bytes_total"),
            deref_hits: c("exec_deref_cache_hits_total"),
            deref_misses: c("exec_deref_cache_misses_total"),
            batches: c("exec_batches_total"),
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

/// Durations (ms) of the spans named `name` whose operation has a root named `root`.
fn span_ms(spans: &[Span], root: &str, name: &str) -> Vec<f64> {
    let ops: std::collections::BTreeSet<u32> = spans
        .iter()
        .filter(|s| s.parent == 0 && s.name == root)
        .map(|s| s.op)
        .collect();
    spans
        .iter()
        .filter(|s| s.name == name && ops.contains(&s.op))
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect()
}

/// Statements of the workload's own mix, each parsed, executed and planned in
/// process under a `sample` span, then sent over the wire to a server on the
/// same database under a `sample.remote` span.
fn sample_statements(inst: &dyn Instance) -> R<Samples> {
    let db = inst.db();
    let mut sess = layers::session(db);
    // A database serves through one server at a time: use the workload's own
    // where it has one.
    let own_server;
    let server = match inst.server() {
        Some(server) => server,
        None => {
            own_server = layers::serve(db)?;
            &own_server
        }
    };
    let mut remote = layers::connect(server)?;
    let mut tracer = Tracer::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut measured = Instant::now();
    for pass in 0..MAX_SAMPLE_PASSES {
        if pass == 1 {
            measured = Instant::now();
        }
        if pass >= 2 && measured.elapsed() >= Duration::from_millis(500) {
            break;
        }
        // The first pass only warms both paths.
        let mut scratch = Tracer::new();
        let tr = if pass == 0 { &mut scratch } else { &mut tracer };
        let mut wrong = 0;
        // In process first, back to back, then over the wire: a round trip
        // puts this thread to sleep, and a statement timed right after waking
        // up is not what a busy session sees.
        for i in 0..SAMPLES {
            let (text, expect): (String, Expect) = inst.sample_read(i);
            tr.next_op();
            let local = tr.span("sample", |tr| -> R<_> {
                let local = spanned_stmt(tr, &mut sess, &text);
                tr.span("sema_algebra.explain", |_| {
                    layers::explain(&mut sess, &text)
                })?;
                Ok(local)
            })?;
            wrong += u64::from(check(&expect, local).is_err());
        }
        for i in 0..SAMPLES {
            let (text, expect): (String, Expect) = inst.sample_read(i);
            tr.next_op();
            let wire = tr.span("sample.remote", |tr| {
                tr.span("server.roundtrip", |_| {
                    layers::remote_run(&mut remote, &text)
                })
            });
            wrong += u64::from(check(&expect, wire.and_then(last_response)).is_err());
        }
        if pass >= 1 {
            attempted += 2 * SAMPLES as u64;
            failed += wrong;
        }
    }
    // A constant retrieve touches no data: what is left is the statement's
    // fixed cost (snapshot registration, catalog lock, metrics).
    layers::run(&mut sess, "retrieve (1)")?;
    let fixed_us = (0..200)
        .map(|_| {
            let t = Instant::now();
            let r = layers::run(&mut sess, "retrieve (1)");
            r.map(|_| t.elapsed().as_nanos() as f64 / 1e3)
        })
        .collect::<R<Vec<_>>>()?;
    drop(remote);
    Ok(Samples {
        spans: tracer.into_spans(),
        attempted,
        failed,
        fixed_us,
        shed: layers::shed_total(server),
    })
}

struct Samples {
    spans: Vec<Span>,
    attempted: u64,
    failed: u64,
    /// Microseconds per constant retrieve.
    fixed_us: Vec<f64>,
    /// Connections and statements the server refused, the workload's own
    /// clients included when it is the workload's server.
    shed: u64,
}

pub fn traced(w: &Workload, env: &Env, seconds: f64, out_dir: &Path) -> R<Outcome> {
    let mut inst = (w.setup)(env, 0)?;
    let warm = warm_up(inst.as_mut(), seconds)?;
    // Untraced and traced stretches alternate, so that both see the same
    // minutes of the host and the same sizes of a growing collection.
    let part = Duration::from_secs_f64(seconds / (2 * ALTERNATIONS) as f64);
    let mut plain = inst.section(part, false)?;
    let mut counted = vec![Counters::read(inst.db())];
    let mut traced = inst.section(part, true)?;
    counted.push(Counters::read(inst.db()));
    for _ in 1..ALTERNATIONS {
        plain.append(inst.section(part, false)?);
        counted.push(Counters::read(inst.db()));
        traced.append(inst.section(part, true)?);
        counted.push(Counters::read(inst.db()));
    }
    let Samples {
        spans: sample_spans,
        attempted: sample_attempted,
        failed: sample_failed,
        fixed_us,
        shed,
    } = sample_statements(inst.as_ref())?;
    let (volume_bytes, log_bytes) = inst.stored_bytes();
    let remote = inst.server().is_some();
    let finish = inst.finish()?;
    let probe_metrics = probes::run(env.seed, &env.data_dir)?;

    let mut spans = traced.spans.clone();
    spans.extend(sample_spans.iter().cloned());
    trace::write_jsonl(
        &out_dir
            .join("trace")
            .join(format!("{}.spans.jsonl", w.name)),
        &spans,
    )
    .map_err(|e| format!("write spans: {e}"))?;

    // Front-end costs of this workload's statements, from the samples.
    let us = |name: &str| -> Vec<f64> {
        span_ms(&sample_spans, "sample", name)
            .iter()
            .map(|ms| ms * 1e3)
            .collect()
    };
    let (parse_us, execute_us, explain_us, roundtrip_us) = (
        us("excess.parse"),
        us("exodus.execute"),
        us("sema_algebra.explain"),
        span_ms(&sample_spans, "sample.remote", "server.roundtrip")
            .iter()
            .map(|ms| ms * 1e3)
            .collect::<Vec<_>>(),
    );
    let per_sample =
        |f: &dyn Fn(usize) -> f64| -> Vec<f64> { (0..parse_us.len()).map(f).collect() };
    let plan_us = per_sample(&|i| (explain_us[i] - parse_us[i]).max(0.0));
    let idle_wire_us = per_sample(&|i| (roundtrip_us[i] - parse_us[i] - execute_us[i]).max(0.0));
    let (parse, plan, fixed) = (median(&parse_us), median(&plan_us), median(&fixed_us));

    // The layer budget: the self times of the spans under an operation,
    // summed, against the untraced median of the same operations. In process
    // those spans are `parse` and `execute`; behind the wire the one span is
    // the round trip.
    let (plain_sliced, traced_sliced) = (plain.sliced(), traced.sliced());
    let e2e_ms = plain_sliced.p50_ms.value;
    let traced_stmts = traced.stmts();
    let own = trace::self_times(&traced.spans);
    let roots: BTreeMap<u32, u32> = traced
        .spans
        .iter()
        .filter(|s| s.parent == 0 && s.name == "op")
        .map(|s| (s.id, s.op))
        .collect();
    let mut per_op: BTreeMap<u32, f64> = BTreeMap::new();
    for s in traced
        .spans
        .iter()
        .filter(|s| roots.contains_key(&s.parent))
    {
        *per_op.entry(s.op).or_default() += own[&s.id] as f64 / 1e6;
    }
    let layer_sum_ms = median(&per_op.into_values().collect::<Vec<_>>());
    // All the primary operations' time in `execute`, for the per-row cost:
    // in process from their spans, behind the wire from the sampled median.
    let execute_total_ms = if remote {
        median(&execute_us) / 1e3 * traced_stmts as f64
    } else {
        span_ms(&traced.spans, "op", "exodus.execute").iter().sum()
    };
    let execute_ms = if remote {
        median(&execute_us) / 1e3
    } else {
        median(&span_ms(&traced.spans, "op", "exodus.execute"))
    };
    // What the wire adds. Behind the wire: the round trip under the
    // workload's own load minus the same statements' parse + execute in
    // process. In process: what the sampled statements took longer over a
    // connection to an otherwise idle server, where every reply first has to
    // wake a sleeping thread (and, in a guest, a halted virtual CPU).
    let wire = if remote {
        (layer_sum_ms * 1e3 - median(&per_sample(&|i| parse_us[i] + execute_us[i]))).max(0.0)
    } else {
        median(&idle_wire_us)
    };
    // Everything of a statement that is not operator execution.
    let front_us = parse + plan + fixed + if remote { wire } else { 0.0 };

    // What the traced stretches made the layers do: the counters were read
    // before and after each.
    let d = |field: fn(&Counters) -> u64| -> u64 {
        counted
            .chunks(2)
            .map(|pair| field(&pair[1]) - field(&pair[0]))
            .sum()
    };
    let (hits, misses) = (d(|c| c.hits), d(|c| c.misses));
    let commits = d(|c| c.commits);
    let derefs = (d(|c| c.deref_hits), d(|c| c.deref_misses));
    let mut metrics = vec![
        Metric::single("trace.layer_sum_ratio", "ratio", layer_sum_ms / e2e_ms),
        Metric::single("trace.front_share", "ratio", front_us / 1e3 / e2e_ms),
        Metric::single(
            "obs.trace_overhead_ratio",
            "ratio",
            traced_sliced.stmts_per_s.value / plain_sliced.stmts_per_s.value,
        ),
        Metric::single("server.wire_overhead_us", "us", wire),
        Metric::median("excess.parse_us_per_stmt", "us", &parse_us),
        Metric::median("sema_algebra.plan_us_per_stmt", "us", &plan_us),
        Metric::median("exodus.stmt_fixed_us", "us", &fixed_us),
        Metric::single("exodus.execute_us", "us", execute_ms * 1e3),
        Metric::single(
            "exec.execute_ns_per_row",
            "ns",
            execute_total_ms * 1e6 / traced.rows(true).max(1) as f64,
        ),
        Metric::single(
            "exec.batches_per_stmt",
            "count",
            ratio(d(|c| c.batches), traced_stmts),
        ),
        Metric::single(
            "exec.deref_cache_hit_ratio",
            "ratio",
            ratio(derefs.0, derefs.0 + derefs.1),
        ),
        Metric::single(
            "storage.pool_hit_ratio",
            "ratio",
            ratio(hits, hits + misses),
        ),
        Metric::single(
            "storage.pool_evictions_per_stmt",
            "count",
            ratio(d(|c| c.evictions), traced_stmts),
        ),
        Metric::single(
            "storage.pins_per_row",
            "count",
            ratio(hits + misses, traced.rows(false)),
        ),
        Metric::single(
            "storage.fsyncs_per_commit",
            "count",
            ratio(d(|c| c.fsyncs), commits),
        ),
        Metric::single(
            "storage.wal_bytes_per_commit",
            "count",
            ratio(d(|c| c.wal_bytes), commits),
        ),
        Metric::single("storage.volume_bytes", "count", volume_bytes as f64),
        Metric::single("storage.wal_bytes", "count", log_bytes as f64),
        Metric::single("server.shed_total", "count", shed as f64),
    ];
    metrics.extend(probe_metrics);

    let mut detail = vec![
        Metric::median("idle_server_wire_overhead_us", "us", &idle_wire_us),
        Metric::single("untraced_stmt_p50_ms", "ms", e2e_ms),
        Metric::single("layer_sum_ms", "ms", layer_sum_ms),
        Metric::single(
            "untraced_stmts_per_s",
            "1/s",
            plain_sliced.stmts_per_s.value,
        ),
        Metric::single("traced_stmts_per_s", "1/s", traced_sliced.stmts_per_s.value),
        Metric::single("spans", "count", spans.len() as f64),
    ];
    class_detail(&traced, &mut detail);
    detail.extend(finish.detail);
    Ok(Outcome {
        workload: w.name,
        attempted: warm.attempted
            + plain.attempted
            + traced.attempted
            + finish.attempted
            + sample_attempted,
        failed: warm.failed + plain.failed + traced.failed + finish.failed + sample_failed,
        metrics: conform(&metrics, spec::PER_LAYER.iter().map(|m| (m.name, m.unit)))?,
        detail,
        first_failure: warm
            .first_failure
            .or(plain.first_failure)
            .or(traced.first_failure),
    })
}
