//! Observability for the EXTRA/EXCESS engine: a metrics registry and
//! structured tracing spans.
//!
//! This crate sits below every other engine crate (it depends on
//! nothing), so storage, execution, and session layers can all register
//! instruments on one [`MetricsRegistry`] and emit spans to one
//! [`RingTracer`] without dependency cycles.
//!
//! Two design rules keep the enabled cost negligible and the disabled
//! cost zero:
//!
//! 1. **Hot paths touch plain atomics, never the registry.** An
//!    instrument is either an owned handle ([`Counter`], [`Gauge`],
//!    [`Histogram`] — a few relaxed atomic adds per event) or a
//!    *callback* over counters the subsystem maintains anyway (the
//!    buffer pool's hit/miss atomics, the WAL's append counter). The
//!    registry is only consulted at [`MetricsRegistry::snapshot`] time.
//! 2. **Snapshots are deterministic.** Samples are sorted by metric
//!    name, so two snapshots of identical workloads compare equal and
//!    the Prometheus exposition is byte-stable.
//!
//! The tracing half mirrors the same philosophy: [`RingTracer`] records
//! completed [`Span`]s into a fixed-size ring under a mutex taken once
//! per span (statement granularity, not per row), and
//! [`SlowQueryLog`] retains the most recent over-threshold statements
//! with an arbitrary caller-supplied payload (the session layer stores
//! the query's execution profile there).

#![deny(rustdoc::broken_intra_doc_links)]
#![warn(missing_docs)]

pub mod metrics;
pub mod trace;

pub use metrics::{
    validate_exposition, Counter, Gauge, Histogram, MetricSample, MetricsRegistry, MetricsSnapshot,
    SampleValue, COUNT_BUCKETS, LATENCY_BUCKETS_NS,
};
pub use trace::{RingTracer, SlowQuery, SlowQueryLog, Span, SpanGuard, TraceConfig};
