//! The metrics registry: lock-light counters, gauges, and fixed-bucket
//! log-scaled histograms, with deterministic snapshots and Prometheus-style
//! text exposition.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter (relaxed atomic).
#[derive(Debug, Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.v.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// A value that can go up and down (relaxed atomic).
#[derive(Debug, Default)]
pub struct Gauge {
    v: AtomicI64,
}

impl Gauge {
    /// A zeroed gauge.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.v.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtract one.
    #[inline]
    pub fn dec(&self) {
        self.v.fetch_sub(1, Ordering::Relaxed);
    }

    /// Set to `n`.
    pub fn set(&self, n: i64) {
        self.v.store(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// Fixed log-scaled latency buckets: powers of four from ~1 µs to ~4.6
/// minutes, in nanoseconds. Observations above the last bound land in
/// the implicit `+Inf` bucket.
pub const LATENCY_BUCKETS_NS: &[u64] = &[
    1 << 10, // ~1 µs
    1 << 12,
    1 << 14, // ~16 µs
    1 << 16,
    1 << 18, // ~0.26 ms
    1 << 20, // ~1 ms
    1 << 22,
    1 << 24, // ~17 ms
    1 << 26,
    1 << 28, // ~0.27 s
    1 << 30, // ~1.1 s
    1 << 32,
    1 << 34, // ~17 s
    1 << 36,
];

/// Fixed log-scaled size buckets: powers of two from 1 to 8192, for
/// count-valued distributions (group-commit batch sizes, rows per
/// batch).
pub const COUNT_BUCKETS: &[u64] = &[
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192,
];

/// A histogram over fixed, caller-chosen bucket upper bounds (see
/// [`LATENCY_BUCKETS_NS`] and [`COUNT_BUCKETS`]). Each observation is
/// two relaxed atomic adds; bucket counts are stored non-cumulative
/// and accumulated at snapshot time. The observation count is not kept
/// apart: it is the `+Inf` bucket's cumulative total, so a snapshot taken
/// while observers run never reports a `_count` that disagrees with it.
#[derive(Debug)]
pub struct Histogram {
    bounds: &'static [u64],
    /// One slot per bound plus the trailing `+Inf` slot.
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
}

impl Histogram {
    /// A zeroed histogram over `bounds` (must be strictly increasing).
    pub fn new(bounds: &'static [u64]) -> Histogram {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        Histogram {
            bounds,
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        let i = self.bounds.partition_point(|&b| b < v);
        self.buckets[i].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Cumulative `(upper bound, count ≤ bound)` pairs; the final pair
    /// uses `u64::MAX` as the `+Inf` bound and counts every observation.
    pub fn cumulative(&self) -> Vec<(u64, u64)> {
        let mut acc = 0;
        self.bounds
            .iter()
            .copied()
            .chain(std::iter::once(u64::MAX))
            .zip(&self.buckets)
            .map(|(bound, c)| {
                acc += c.load(Ordering::Relaxed);
                (bound, acc)
            })
            .collect()
    }
}

/// Where a registered metric's value comes from at snapshot time.
enum Source {
    Counter(Arc<Counter>),
    CounterFn(Box<dyn Fn() -> u64 + Send + Sync>),
    Gauge(Arc<Gauge>),
    GaugeFn(Box<dyn Fn() -> i64 + Send + Sync>),
    Histogram(Arc<Histogram>),
}

struct Entry {
    name: String,
    help: String,
    source: Source,
}

/// A set of named instruments. Registration happens at subsystem
/// wiring time; after that the registry is only touched by
/// [`MetricsRegistry::snapshot`]. Duplicate names panic — they are
/// programming errors — with one exception: asking again for an owned
/// instrument ([`MetricsRegistry::counter`], [`MetricsRegistry::gauge`],
/// [`MetricsRegistry::histogram`]) under the same name, kind and help
/// hands back the instrument already registered, so a subsystem wired a
/// second time over one registry (a server re-spawned on its database)
/// keeps counting into the same families.
#[derive(Default)]
pub struct MetricsRegistry {
    entries: Mutex<Vec<Entry>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn register(&self, name: &str, help: &str, source: Source) {
        let mut entries = self.entries.lock().expect("metrics registry lock");
        assert!(
            !entries.iter().any(|e| e.name == name),
            "duplicate metric name '{name}'"
        );
        Self::push(&mut entries, name, help, source);
    }

    fn push(entries: &mut Vec<Entry>, name: &str, help: &str, source: Source) {
        assert!(!help.is_empty(), "metric '{name}' needs a help string");
        entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            source,
        });
    }

    /// The owned instrument registered as `name`, registering `fresh`
    /// (as the `wrap` kind of source) when the name is new. `owned`
    /// picks the instrument out of an existing entry when it has the
    /// kind the caller asks for.
    fn owned<T>(
        &self,
        name: &str,
        help: &str,
        fresh: T,
        wrap: fn(Arc<T>) -> Source,
        owned: impl Fn(&Source) -> Option<&Arc<T>>,
    ) -> Arc<T> {
        let mut entries = self.entries.lock().expect("metrics registry lock");
        if let Some(e) = entries.iter().find(|e| e.name == name) {
            return owned(&e.source)
                .filter(|_| e.help == help)
                .unwrap_or_else(|| panic!("duplicate metric name '{name}'"))
                .clone();
        }
        let instrument = Arc::new(fresh);
        Self::push(&mut entries, name, help, wrap(instrument.clone()));
        instrument
    }

    /// Register and return an owned counter.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.owned(name, help, Counter::new(), Source::Counter, |s| match s {
            Source::Counter(c) => Some(c),
            _ => None,
        })
    }

    /// Register a counter whose value is computed by `f` at snapshot
    /// time — for subsystems that already maintain a monotonic atomic
    /// and should not pay a second increment on their hot path.
    pub fn counter_fn(&self, name: &str, help: &str, f: impl Fn() -> u64 + Send + Sync + 'static) {
        self.register(name, help, Source::CounterFn(Box::new(f)));
    }

    /// Register and return an owned gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.owned(name, help, Gauge::new(), Source::Gauge, |s| match s {
            Source::Gauge(g) => Some(g),
            _ => None,
        })
    }

    /// Register a gauge whose value is computed by `f` at snapshot time.
    pub fn gauge_fn(&self, name: &str, help: &str, f: impl Fn() -> i64 + Send + Sync + 'static) {
        self.register(name, help, Source::GaugeFn(Box::new(f)));
    }

    /// Register and return an owned histogram over `bounds`.
    pub fn histogram(&self, name: &str, help: &str, bounds: &'static [u64]) -> Arc<Histogram> {
        let fresh = Histogram::new(bounds);
        self.owned(name, help, fresh, Source::Histogram, |s| match s {
            Source::Histogram(h) if h.bounds == bounds => Some(h),
            _ => None,
        })
    }

    /// Register a histogram the caller already owns (a subsystem that
    /// embeds the instrument directly, such as the WAL's fsync timer).
    pub fn histogram_shared(&self, name: &str, help: &str, h: Arc<Histogram>) {
        self.register(name, help, Source::Histogram(h));
    }

    /// Sample every instrument. Samples are sorted by name, so snapshot
    /// order — and the derived Prometheus exposition — is deterministic
    /// regardless of registration order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let entries = self.entries.lock().expect("metrics registry lock");
        let mut metrics: Vec<MetricSample> = entries
            .iter()
            .map(|e| MetricSample {
                name: e.name.clone(),
                help: e.help.clone(),
                value: match &e.source {
                    Source::Counter(c) => SampleValue::Counter(c.get()),
                    Source::CounterFn(f) => SampleValue::Counter(f()),
                    Source::Gauge(g) => SampleValue::Gauge(g.get()),
                    Source::GaugeFn(f) => SampleValue::Gauge(f()),
                    Source::Histogram(h) => {
                        let buckets = h.cumulative();
                        let count = buckets.last().map_or(0, |&(_, c)| c);
                        SampleValue::Histogram {
                            buckets,
                            sum: h.sum(),
                            count,
                        }
                    }
                },
            })
            .collect();
        metrics.sort_by(|a, b| a.name.cmp(&b.name));
        MetricsSnapshot { metrics }
    }
}

/// One sampled metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricSample {
    /// Metric name (snake_case; counters end in `_total` by convention).
    pub name: String,
    /// Human-readable description.
    pub help: String,
    /// The sampled value.
    pub value: SampleValue,
}

/// A sampled value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SampleValue {
    /// Monotonic counter.
    Counter(u64),
    /// Up/down gauge.
    Gauge(i64),
    /// Histogram: cumulative `(upper bound, count)` pairs (the last
    /// bound is `u64::MAX`, standing in for `+Inf`), total sum, and
    /// observation count.
    Histogram {
        /// Cumulative bucket counts.
        buckets: Vec<(u64, u64)>,
        /// Sum of observations.
        sum: u64,
        /// Number of observations.
        count: u64,
    },
}

impl MetricsSnapshot {
    /// The sample named `name`, if present.
    pub fn get(&self, name: &str) -> Option<&MetricSample> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The value of counter `name`, if present and a counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name)?.value {
            SampleValue::Counter(v) => Some(v),
            _ => None,
        }
    }

    /// The value of gauge `name`, if present and a gauge.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        match self.get(name)?.value {
            SampleValue::Gauge(v) => Some(v),
            _ => None,
        }
    }

    /// `after − before` for every counter present in both snapshots,
    /// dropping zero deltas. Sorted by name (inherited from snapshot
    /// order).
    pub fn counter_deltas(before: &MetricsSnapshot, after: &MetricsSnapshot) -> Vec<(String, u64)> {
        after
            .metrics
            .iter()
            .filter_map(|m| {
                let SampleValue::Counter(now) = m.value else {
                    return None;
                };
                let then = before.counter(&m.name).unwrap_or(0);
                (now > then).then(|| (m.name.clone(), now - then))
            })
            .collect()
    }

    /// Check that every counter in `earlier` is present here with a
    /// value at least as large (counters are monotonic).
    pub fn check_monotonic_since(&self, earlier: &MetricsSnapshot) -> Result<(), String> {
        for m in &earlier.metrics {
            if let SampleValue::Counter(then) = m.value {
                match self.counter(&m.name) {
                    Some(now) if now >= then => {}
                    Some(now) => {
                        return Err(format!(
                            "counter '{}' went backwards: {then} → {now}",
                            m.name
                        ))
                    }
                    None => return Err(format!("counter '{}' disappeared", m.name)),
                }
            }
        }
        Ok(())
    }

    /// Render in the Prometheus text exposition format (`# HELP` /
    /// `# TYPE` comments, `_bucket{le=...}` / `_sum` / `_count` series
    /// for histograms).
    pub fn to_prometheus(&self) -> String {
        let mut s = String::new();
        for m in &self.metrics {
            s.push_str(&format!("# HELP {} {}\n", m.name, m.help));
            match &m.value {
                SampleValue::Counter(v) => {
                    s.push_str(&format!("# TYPE {} counter\n{} {v}\n", m.name, m.name));
                }
                SampleValue::Gauge(v) => {
                    s.push_str(&format!("# TYPE {} gauge\n{} {v}\n", m.name, m.name));
                }
                SampleValue::Histogram {
                    buckets,
                    sum,
                    count,
                } => {
                    s.push_str(&format!("# TYPE {} histogram\n", m.name));
                    for (bound, c) in buckets {
                        let le = if *bound == u64::MAX {
                            "+Inf".to_string()
                        } else {
                            bound.to_string()
                        };
                        s.push_str(&format!("{}_bucket{{le=\"{le}\"}} {c}\n", m.name));
                    }
                    s.push_str(&format!("{}_sum {sum}\n{}_count {count}\n", m.name, m.name));
                }
            }
        }
        s
    }
}

/// A deterministic point-in-time sample of every registered metric,
/// sorted by name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// The samples, sorted by name.
    pub metrics: Vec<MetricSample>,
}

/// Validate a Prometheus text exposition produced by
/// [`MetricsSnapshot::to_prometheus`] (or any conforming exporter):
/// every metric has a non-empty help string and exactly one `# TYPE`, no
/// metric name appears twice, histogram bucket counts are cumulative
/// and consistent with `_count`, and counter values parse as
/// non-negative integers. Returns the number of metrics validated.
pub fn validate_exposition(text: &str) -> Result<usize, String> {
    struct Block {
        name: String,
        ty: Option<String>,
        samples: Vec<(String, String)>, // (series incl. labels, value)
    }
    let mut blocks: Vec<Block> = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        let err = |msg: String| Err::<(), String>(format!("line {}: {msg}", ln + 1));
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest.split_once(' ').unwrap_or((rest, ""));
            if help.trim().is_empty() {
                err(format!("metric '{name}' has an empty help string"))?;
            }
            if blocks.iter().any(|b| b.name == name) {
                err(format!("duplicate metric name '{name}'"))?;
            }
            blocks.push(Block {
                name: name.to_string(),
                ty: None,
                samples: Vec::new(),
            });
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, ty) = rest
                .split_once(' ')
                .ok_or(format!("line {}: malformed TYPE", ln + 1))?;
            if !matches!(ty, "counter" | "gauge" | "histogram") {
                err(format!("metric '{name}' has unknown type '{ty}'"))?;
            }
            let block = blocks
                .last_mut()
                .filter(|b| b.name == name)
                .ok_or(format!("line {}: TYPE for '{name}' without HELP", ln + 1))?;
            if block.ty.is_some() {
                err(format!("metric '{name}' has two TYPE lines"))?;
            }
            block.ty = Some(ty.to_string());
        } else if line.starts_with('#') {
            continue;
        } else {
            let (series, value) = line
                .rsplit_once(' ')
                .ok_or(format!("line {}: malformed sample", ln + 1))?;
            let block = blocks
                .last_mut()
                .ok_or(format!("line {}: sample before any HELP", ln + 1))?;
            let base = series.split('{').next().unwrap_or(series);
            if base != block.name
                && base != format!("{}_bucket", block.name)
                && base != format!("{}_sum", block.name)
                && base != format!("{}_count", block.name)
            {
                err(format!("sample '{base}' outside its metric block"))?;
            }
            block.samples.push((series.to_string(), value.to_string()));
        }
    }
    for b in &blocks {
        let ty =
            b.ty.as_deref()
                .ok_or(format!("metric '{}' has no TYPE line", b.name))?;
        match ty {
            "counter" => {
                let (_, v) = b
                    .samples
                    .first()
                    .ok_or(format!("counter '{}' has no sample", b.name))?;
                v.parse::<u64>()
                    .map_err(|_| format!("counter '{}' value '{v}' is not a u64", b.name))?;
            }
            "gauge" => {
                let (_, v) = b
                    .samples
                    .first()
                    .ok_or(format!("gauge '{}' has no sample", b.name))?;
                v.parse::<i64>()
                    .map_err(|_| format!("gauge '{}' value '{v}' is not an i64", b.name))?;
            }
            "histogram" => {
                let mut prev = 0u64;
                let mut inf: Option<u64> = None;
                let mut count: Option<u64> = None;
                for (series, v) in &b.samples {
                    let v: u64 = v
                        .parse()
                        .map_err(|_| format!("histogram '{}' value '{v}' is not a u64", b.name))?;
                    if series.starts_with(&format!("{}_bucket", b.name)) {
                        if v < prev {
                            return Err(format!(
                                "histogram '{}' bucket counts are not cumulative",
                                b.name
                            ));
                        }
                        prev = v;
                        if series.contains("le=\"+Inf\"") {
                            inf = Some(v);
                        }
                    } else if series == &format!("{}_count", b.name) {
                        count = Some(v);
                    }
                }
                let inf = inf.ok_or(format!("histogram '{}' misses the +Inf bucket", b.name))?;
                let count = count.ok_or(format!("histogram '{}' misses _count", b.name))?;
                if inf != count {
                    return Err(format!(
                        "histogram '{}': +Inf bucket {inf} != count {count}",
                        b.name
                    ));
                }
            }
            _ => unreachable!("type validated above"),
        }
    }
    Ok(blocks.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_cumulative_and_exhaustive() {
        let h = Histogram::new(COUNT_BUCKETS);
        h.observe(1); // le=1
        h.observe(2); // le=2
        h.observe(3); // le=4
        h.observe(10_000); // +Inf
        let cum = h.cumulative();
        assert_eq!(cum[0], (1, 1));
        assert_eq!(cum[1], (2, 2));
        assert_eq!(cum[2], (4, 3));
        assert_eq!(cum.last().copied(), Some((u64::MAX, 4)));
        assert_eq!(h.sum(), 10_006);
    }

    fn sample_registry() -> (MetricsRegistry, Arc<Counter>) {
        let reg = MetricsRegistry::new();
        let c = reg.counter("demo_events_total", "Events observed.");
        let g = reg.gauge("demo_active", "Active things.");
        let h = reg.histogram("demo_latency_ns", "Event latency.", LATENCY_BUCKETS_NS);
        reg.counter_fn("demo_callback_total", "Callback-sourced.", || 42);
        c.add(7);
        g.set(-3);
        h.observe(500);
        h.observe(5_000_000);
        (reg, c)
    }

    #[test]
    fn snapshot_is_sorted_and_reads_back_values() {
        let (reg, _c) = sample_registry();
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.metrics.iter().map(|m| m.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "snapshot must be name-sorted");
        assert_eq!(snap.counter("demo_events_total"), Some(7));
        assert_eq!(snap.counter("demo_callback_total"), Some(42));
        assert_eq!(snap.gauge("demo_active"), Some(-3));
        let Some(SampleValue::Histogram {
            buckets,
            sum,
            count,
        }) = snap.get("demo_latency_ns").map(|m| &m.value)
        else {
            panic!("demo_latency_ns is a histogram");
        };
        assert_eq!((*sum, *count), (5_000_500, 2));
        assert_eq!(buckets.last(), Some(&(u64::MAX, 2)));
    }

    /// Snapshots taken while other threads observe stay valid
    /// expositions: each histogram's `+Inf` bucket equals its `_count`.
    #[test]
    fn snapshots_under_concurrent_observers_validate() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("demo_latency_ns", "Event latency.", LATENCY_BUCKETS_NS);
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let (h, stop) = (&h, &stop);
                s.spawn(move || {
                    let mut v = t;
                    while !stop.load(Ordering::Relaxed) {
                        v = (v + 7919) % (1 << 30);
                        h.observe(v);
                    }
                });
            }
            let outcome = (0..2_000)
                .try_for_each(|_| validate_exposition(&reg.snapshot().to_prometheus()).map(|_| ()));
            stop.store(true, Ordering::Relaxed);
            outcome.expect("a snapshot taken under observers validates");
        });
    }

    #[test]
    fn prometheus_exposition_validates() {
        let (reg, _c) = sample_registry();
        let text = reg.snapshot().to_prometheus();
        assert_eq!(validate_exposition(&text).unwrap(), 4);
    }

    #[test]
    fn validator_rejects_duplicates_and_empty_help() {
        let dup = "# HELP a x\n# TYPE a counter\na 1\n# HELP a x\n# TYPE a counter\na 2\n";
        assert!(validate_exposition(dup).unwrap_err().contains("duplicate"));
        let empty = "# HELP a \n# TYPE a counter\na 1\n";
        assert!(validate_exposition(empty).unwrap_err().contains("help"));
        let broken = "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n";
        assert!(validate_exposition(broken)
            .unwrap_err()
            .contains("cumulative"));
    }

    #[test]
    fn monotonicity_check() {
        let (reg, c) = sample_registry();
        let before = reg.snapshot();
        c.add(5);
        let after = reg.snapshot();
        assert!(after.check_monotonic_since(&before).is_ok());
        assert!(before.check_monotonic_since(&after).is_err());
        assert_eq!(
            MetricsSnapshot::counter_deltas(&before, &after),
            vec![("demo_events_total".to_string(), 5)]
        );
    }

    #[test]
    fn re_registering_an_owned_instrument_shares_it() {
        let reg = MetricsRegistry::new();
        reg.counter("x_total", "X.").add(2);
        reg.counter("x_total", "X.").add(3);
        assert_eq!(reg.snapshot().counter("x_total"), Some(5));
    }

    #[test]
    #[should_panic(expected = "duplicate metric name")]
    fn duplicate_registration_panics() {
        let reg = MetricsRegistry::new();
        let _a = reg.counter("x_total", "X.");
        let _b = reg.counter("x_total", "X again.");
    }
}
