//! Executor-level instruments (see the `exodus-obs` crate).
//!
//! One [`ExecMetrics`] is registered per database and shared by every
//! statement's [`crate::ExecCtx`] through an `Arc`. The handles are
//! owned instruments — a few relaxed atomic adds per *batch* (not per
//! row), so the enabled overhead is unmeasurable and disabling metrics
//! simply leaves the context's option empty.

use std::sync::Arc;

use exodus_obs::{Counter, Histogram, MetricsRegistry, LATENCY_BUCKETS_NS};

/// Counters the executor bumps while pulling batches.
pub struct ExecMetrics {
    /// Batches pulled through the root of a plan.
    pub batches: Arc<Counter>,
    /// Rows produced by plan roots.
    pub rows: Arc<Counter>,
    /// Morsels claimed by parallel scan workers.
    pub morsels: Arc<Counter>,
    /// Time the parallel coordinator spent blocked on worker output.
    pub merge_wait_ns: Arc<Histogram>,
}

impl ExecMetrics {
    /// Register the executor's instruments on `reg` under the `exec_`
    /// prefix.
    pub fn register(reg: &MetricsRegistry) -> Arc<ExecMetrics> {
        Arc::new(ExecMetrics {
            batches: reg.counter("exec_batches_total", "Batches pulled through plan roots."),
            rows: reg.counter("exec_rows_total", "Rows produced by plan roots."),
            morsels: reg.counter(
                "exec_morsels_total",
                "Morsels claimed by parallel scan workers.",
            ),
            merge_wait_ns: reg.histogram(
                "exec_merge_wait_ns",
                "Time the parallel coordinator waited on worker output.",
                LATENCY_BUCKETS_NS,
            ),
        })
    }
}
