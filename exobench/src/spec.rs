//! What the benchmark promises to report: the metric names, units, directions
//! and regression bounds. `BENCHMARK.json` at the repository root is this
//! table printed by `exobench manifest`; the run checks its own output against
//! the same table, so the two cannot drift apart.

use crate::json::Json;
use crate::workloads::WORKLOADS;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// Reported by every workload's untraced run. Bounds come from the spreads of
/// sets of ten runs on the 2-core reference host (README, "Bounds"): whatever
/// follows the host's speed carries the largest bound the contract allows.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "stmt_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "stmt_p95_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "stmts_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "bytes_per_user_byte",
        unit: "ratio",
        better: "lower",
        bound: 0.1,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Reported by every workload's traced run. The first block is measured on
/// the workload itself (spans, counters, samples of its own statements); the
/// rest are the layer probes of `probes.rs`.
pub const PER_LAYER: [PerLayer; 57] = [
    layer("trace.layer_sum_ratio", "ratio", "higher"),
    layer("trace.front_share", "ratio", "lower"),
    layer("obs.trace_overhead_ratio", "ratio", "higher"),
    layer("server.wire_overhead_us", "us", "lower"),
    layer("excess.parse_us_per_stmt", "us", "lower"),
    layer("sema_algebra.plan_us_per_stmt", "us", "lower"),
    layer("exodus.stmt_fixed_us", "us", "lower"),
    layer("exodus.execute_us", "us", "lower"),
    layer("exec.execute_ns_per_row", "ns", "lower"),
    layer("exec.batches_per_stmt", "count", "lower"),
    layer("exec.deref_cache_hit_ratio", "ratio", "higher"),
    layer("storage.pool_hit_ratio", "ratio", "higher"),
    layer("storage.pool_evictions_per_stmt", "count", "lower"),
    layer("storage.pins_per_row", "count", "lower"),
    layer("storage.fsyncs_per_commit", "count", "lower"),
    layer("storage.wal_bytes_per_commit", "count", "lower"),
    layer("storage.volume_bytes", "count", "lower"),
    layer("storage.wal_bytes", "count", "lower"),
    layer("server.shed_total", "count", "lower"),
    layer("server.frame_encode_ns_per_row", "ns", "lower"),
    layer("server.frame_decode_ns_per_row", "ns", "lower"),
    layer("server.pipelined_stmts_per_s", "1/s", "higher"),
    layer("exodus.analyze_ms", "ms", "lower"),
    layer("exodus.bulk_append_rows_per_s", "1/s", "higher"),
    layer("exodus.replica_pump_us", "us", "lower"),
    layer("exodus.replica_lag_records_max", "count", "lower"),
    layer("exodus.replica_catchup_records_per_s", "1/s", "higher"),
    layer("exec.scan_ns_per_row", "ns", "lower"),
    layer("exec.deref_ns_per_row", "ns", "lower"),
    layer("exec.hashjoin_speedup", "ratio", "higher"),
    layer("exec.dop_speedup", "ratio", "higher"),
    layer("exec.profile_scan_ms", "ms", "lower"),
    layer("exec.profile_project_ms", "ms", "lower"),
    layer("exec.unnest_ns_per_row", "ns", "lower"),
    layer("exec.result_ns_per_row", "ns", "lower"),
    layer("exec.peak_batch_rows", "count", "higher"),
    layer("extra.decode_scalar_ns", "ns", "lower"),
    layer("extra.decode_nested_ns", "ns", "lower"),
    layer("extra.encode_ns", "ns", "lower"),
    layer("extra.field_project_ns", "ns", "lower"),
    layer("extra.value_of_ns", "ns", "lower"),
    layer("extra.fields_of_batch_ns_per_oid", "ns", "lower"),
    layer("extra.member_scan_ns_per_row", "ns", "lower"),
    layer("storage.pin_hit_ns", "ns", "lower"),
    layer("storage.pin_miss_us", "us", "lower"),
    layer("storage.heap_scan_ns_per_record", "ns", "lower"),
    layer("storage.heap_read_ns", "ns", "lower"),
    layer("storage.oid_lookup_ns", "ns", "lower"),
    layer("storage.btree_lookup_us", "us", "lower"),
    layer("storage.wal_append_ns", "ns", "lower"),
    layer("storage.wal_fsync_us", "us", "lower"),
    layer("storage.commit_wait_mean_us", "us", "lower"),
    layer("storage.recovery_records_per_s", "1/s", "higher"),
    layer("storage.checkpoint_ms", "ms", "lower"),
    layer("storage.repl_fetch_ns_per_record", "ns", "lower"),
    layer("storage.repl_ingest_us_per_record", "us", "lower"),
    layer("obs.metrics_overhead_ratio", "ratio", "higher"),
];

/// Seconds one driver run measures.
pub const RUN_SECONDS: u64 = 10;

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "exobench/Cargo.toml",
        "--",
        "run",
    ];
    Json::obj([
        (
            "command",
            Json::Arr(command.iter().map(|&s| Json::str(s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("exobench")])),
        ("run_seconds", Json::from(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better)),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}
