//! The metrics registry and its atomic metric handles.
//!
//! A [`Registry`] is a named collection of metrics. Creating or looking up
//! a metric takes a short mutex on the name table; the returned handle is
//! an `Arc` straight to the metric's atomics, so the *update* path — the
//! only path that runs inside detection workers, render workers, or the
//! packet plane's dispatch loop — is a single relaxed atomic op with no lock, no
//! allocation and no branch beyond the enabled check.
//!
//! A registry built with [`Registry::disabled`] hands out inert handles:
//! every update is a no-op (span timers skip even the clock read), and
//! exports are empty. Instrumented code therefore never needs an
//! `if enabled` of its own.

use crate::journal::Journal;
use crate::trace::TraceSink;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of log₂ histogram buckets: bucket `i` counts values whose bit
/// length is `i`, i.e. values in `[2^(i-1), 2^i)` (bucket 0 holds zeros).
/// 64 buckets cover the full `u64` range.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Default ring capacity of the registry's event journal.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 256;

/// Default ring capacity of a scenario run's trace sink, in spans, when
/// its spec turns tracing on without naming a capacity (see
/// [`Registry::with_trace`]).
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 18;

/// A metric's identity: family name plus sorted `(key, value)` labels.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct MetricKey {
    pub(crate) name: String,
    pub(crate) labels: Vec<(String, String)>,
}

impl MetricKey {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        Self {
            name: name.to_string(),
            labels,
        }
    }

    /// `name` or `name{k="v",...}` — the Prometheus sample identity, also
    /// used as the flat key in JSON snapshots.
    pub(crate) fn render(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let labels: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")))
            .collect();
        format!("{}{{{}}}", self.name, labels.join(","))
    }
}

#[derive(Debug)]
pub(crate) enum Metric {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistogramCell>),
}

/// The atomics behind one histogram.
#[derive(Debug)]
pub struct HistogramCell {
    pub(crate) buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    pub(crate) count: AtomicU64,
    pub(crate) sum: AtomicU64,
    pub(crate) max: AtomicU64,
}

impl HistogramCell {
    fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// Bucket index for a recorded value: its bit length.
pub(crate) fn bucket_index(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` (`0` for the zero bucket).
pub(crate) fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A monotonically increasing counter. Cheap to clone; all clones update
/// the same atomic. The default value is a disabled (no-op) handle.
#[derive(Debug, Clone, Default)]
pub struct Counter(pub(crate) Option<Arc<AtomicU64>>);

impl Counter {
    /// A handle that ignores every update (what disabled registries and
    /// un-attached components hold).
    pub const fn disabled() -> Self {
        Self(None)
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 when disabled).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// Is this a live (registry-backed) handle?
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }
}

/// A gauge holding an `f64` (stored as bits in an atomic). Last write
/// wins. The default value is a disabled (no-op) handle.
#[derive(Debug, Clone, Default)]
pub struct Gauge(pub(crate) Option<Arc<AtomicU64>>);

impl Gauge {
    /// A handle that ignores every update.
    pub const fn disabled() -> Self {
        Self(None)
    }

    /// Set the gauge.
    #[inline]
    pub fn set(&self, value: f64) {
        if let Some(cell) = &self.0 {
            cell.store(value.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value (0.0 when disabled).
    pub fn get(&self) -> f64 {
        self.0
            .as_ref()
            .map_or(0.0, |c| f64::from_bits(c.load(Ordering::Relaxed)))
    }
}

/// A fixed-bucket log₂ histogram of `u64` values (typically nanoseconds).
/// Recording is a handful of relaxed atomic ops — no allocation, no lock.
/// The default value is a disabled (no-op) handle.
#[derive(Debug, Clone, Default)]
pub struct Histogram(pub(crate) Option<Arc<HistogramCell>>);

impl Histogram {
    /// A handle that ignores every update.
    pub const fn disabled() -> Self {
        Self(None)
    }

    /// Record one value.
    #[inline]
    pub fn record(&self, value: u64) {
        if let Some(cell) = &self.0 {
            cell.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
            cell.count.fetch_add(1, Ordering::Relaxed);
            cell.sum.fetch_add(value, Ordering::Relaxed);
            cell.max.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Record `value` `n` times: the same buckets, count and max as `n`
    /// calls of [`record`](Self::record), with `value·n` added to the sum
    /// saturating instead of wrapping. `n = 0` records nothing.
    #[inline]
    pub fn record_n(&self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        if let Some(cell) = &self.0 {
            cell.buckets[bucket_index(value)].fetch_add(n, Ordering::Relaxed);
            cell.count.fetch_add(n, Ordering::Relaxed);
            let add = value.saturating_mul(n);
            let _ = cell
                .sum
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                    Some(s.saturating_add(add))
                });
            cell.max.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Start a span timer that records its elapsed nanoseconds here when
    /// dropped. Disabled handles return a timer that never reads the
    /// clock.
    #[inline]
    pub fn start_span(&self) -> crate::span::SpanTimer {
        crate::span::SpanTimer::new(self.clone())
    }

    /// Number of recorded values (0 when disabled).
    pub fn count(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |c| c.count.load(Ordering::Relaxed))
    }

    /// Sum of recorded values (0 when disabled).
    pub fn sum(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.sum.load(Ordering::Relaxed))
    }

    /// Is this a live (registry-backed) handle?
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }
}

#[derive(Debug)]
pub(crate) struct RegistryInner {
    pub(crate) metrics: Mutex<BTreeMap<MetricKey, Metric>>,
    pub(crate) journal: Journal,
    pub(crate) trace: TraceSink,
}

/// The metric collection. Cloning is a cheap `Arc` clone; all clones see
/// the same metrics. See the [crate docs](crate) for the model.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    pub(crate) inner: Option<Arc<RegistryInner>>,
}

impl Registry {
    /// An enabled registry with the default journal capacity.
    pub fn new() -> Self {
        Self::with_journal_capacity(DEFAULT_JOURNAL_CAPACITY)
    }

    /// An enabled registry whose event journal keeps the last `capacity`
    /// events. Tracing stays off (a disabled [`TraceSink`]).
    pub fn with_journal_capacity(capacity: usize) -> Self {
        Self {
            inner: Some(Arc::new(RegistryInner {
                metrics: Mutex::new(BTreeMap::new()),
                journal: Journal::with_capacity(capacity),
                trace: TraceSink::disabled(),
            })),
        }
    }

    /// An enabled registry with causal tracing on: its [`TraceSink`]
    /// retains the last `trace_capacity` spans (the journal keeps its
    /// default capacity).
    pub fn with_trace(trace_capacity: usize) -> Self {
        Self {
            inner: Some(Arc::new(RegistryInner {
                metrics: Mutex::new(BTreeMap::new()),
                journal: Journal::with_capacity(DEFAULT_JOURNAL_CAPACITY),
                trace: TraceSink::with_capacity(trace_capacity),
            })),
        }
    }

    /// A registry whose every handle is a no-op and whose exports are
    /// empty — attach this to keep instrumented hot paths free.
    pub const fn disabled() -> Self {
        Self { inner: None }
    }

    /// Is this registry recording?
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Get or create the counter `name` with `labels`.
    ///
    /// # Panics
    /// Panics if the same name+labels already exists as another metric
    /// kind.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let Some(inner) = &self.inner else {
            return Counter::disabled();
        };
        let key = MetricKey::new(name, labels);
        let mut metrics = inner.metrics.lock().unwrap();
        match metrics
            .entry(key)
            .or_insert_with(|| Metric::Counter(Arc::new(AtomicU64::new(0))))
        {
            Metric::Counter(cell) => Counter(Some(cell.clone())),
            _ => panic!("metric {name} already registered with a different kind"),
        }
    }

    /// Get or create the gauge `name` with `labels`.
    ///
    /// # Panics
    /// Panics if the same name+labels already exists as another metric
    /// kind.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let Some(inner) = &self.inner else {
            return Gauge::disabled();
        };
        let key = MetricKey::new(name, labels);
        let mut metrics = inner.metrics.lock().unwrap();
        match metrics
            .entry(key)
            .or_insert_with(|| Metric::Gauge(Arc::new(AtomicU64::new(0))))
        {
            Metric::Gauge(cell) => Gauge(Some(cell.clone())),
            _ => panic!("metric {name} already registered with a different kind"),
        }
    }

    /// Get or create the histogram `name` with `labels`.
    ///
    /// # Panics
    /// Panics if the same name+labels already exists as another metric
    /// kind.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let Some(inner) = &self.inner else {
            return Histogram::disabled();
        };
        let key = MetricKey::new(name, labels);
        let mut metrics = inner.metrics.lock().unwrap();
        match metrics
            .entry(key)
            .or_insert_with(|| Metric::Histogram(Arc::new(HistogramCell::new())))
        {
            Metric::Histogram(cell) => Histogram(Some(cell.clone())),
            _ => panic!("metric {name} already registered with a different kind"),
        }
    }

    /// The per-stage wall-time histogram for `stage` (the target of
    /// [`span!`](crate::span!)): `mdn_stage_ns{stage="..."}`.
    pub fn stage_histogram(&self, stage: &str) -> Histogram {
        self.histogram("mdn_stage_ns", &[("stage", stage)])
    }

    /// Start a span timer for `stage`; elapsed nanoseconds are recorded
    /// into [`Registry::stage_histogram`] when the returned guard drops.
    /// Prefer resolving the histogram once ([`Registry::stage_histogram`]
    /// + [`Histogram::start_span`]) inside hot loops.
    pub fn span(&self, stage: &str) -> crate::span::SpanTimer {
        self.stage_histogram(stage).start_span()
    }

    /// The registry's bounded event journal (a disabled journal when the
    /// registry is disabled).
    pub fn journal(&self) -> Journal {
        match &self.inner {
            Some(inner) => inner.journal.clone(),
            None => Journal::disabled(),
        }
    }

    /// The registry's trace sink — disabled unless the registry was built
    /// with [`Registry::with_trace`], so un-traced runs pay one branch
    /// per would-be span.
    pub fn trace(&self) -> TraceSink {
        match &self.inner {
            Some(inner) => inner.trace.clone(),
            None => TraceSink::disabled(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_across_clones() {
        let reg = Registry::new();
        let a = reg.counter("hits_total", &[]);
        let b = reg.counter("hits_total", &[]);
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5);
        assert_eq!(b.get(), 5);
    }

    #[test]
    fn labels_distinguish_metrics() {
        let reg = Registry::new();
        let x = reg.counter("frames_total", &[("dir", "to_switch")]);
        let y = reg.counter("frames_total", &[("dir", "to_controller")]);
        x.inc();
        assert_eq!(x.get(), 1);
        assert_eq!(y.get(), 0);
    }

    #[test]
    fn label_order_is_irrelevant() {
        let reg = Registry::new();
        let a = reg.counter("c_total", &[("a", "1"), ("b", "2")]);
        let b = reg.counter("c_total", &[("b", "2"), ("a", "1")]);
        a.inc();
        assert_eq!(b.get(), 1);
    }

    #[test]
    fn disabled_registry_is_inert() {
        let reg = Registry::disabled();
        assert!(!reg.is_enabled());
        let c = reg.counter("x_total", &[]);
        let g = reg.gauge("x", &[]);
        let h = reg.histogram("x_ns", &[]);
        c.inc();
        g.set(3.0);
        h.record(100);
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0.0);
        assert_eq!(h.count(), 0);
        assert!(!c.is_enabled());
    }

    #[test]
    fn gauge_set_overwrites() {
        let reg = Registry::new();
        let g = reg.gauge("depth", &[]);
        g.set(4.0);
        assert_eq!(g.get(), 4.0);
        g.set(2.0);
        assert_eq!(g.get(), 2.0);
    }

    #[test]
    fn histogram_buckets_by_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
        let reg = Registry::new();
        let h = reg.histogram("lat_ns", &[]);
        for v in [0u64, 1, 3, 900, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1928);
    }

    #[test]
    fn kind_collision_panics() {
        let reg = Registry::new();
        reg.counter("thing", &[]);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            reg.gauge("thing", &[]);
        }));
        assert!(res.is_err());
    }

    #[test]
    fn concurrent_updates_are_exact() {
        let reg = Registry::new();
        let c = reg.counter("n_total", &[]);
        let h = reg.histogram("v_ns", &[]);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        c.inc();
                        h.record(i);
                    }
                });
            }
        });
        assert_eq!(c.get(), 40_000);
        assert_eq!(h.count(), 40_000);
        assert_eq!(h.sum(), 4 * (0..10_000u64).sum::<u64>());
    }

    #[test]
    fn record_n_matches_n_single_records_and_saturates() {
        let reg = Registry::new();
        let batched = reg.histogram("batched_ns", &[]);
        let single = reg.histogram("single_ns", &[]);
        for (value, n) in [
            (0u64, 3u64),
            (1, 1),
            (177, 64),
            (5_000, 7),
            (161, 0),
            (1 << 40, 2),
        ] {
            batched.record_n(value, n);
            for _ in 0..n {
                single.record(value);
            }
        }
        let snap = reg.snapshot();
        let (b, s) = (
            &snap.histograms["batched_ns"],
            &snap.histograms["single_ns"],
        );
        assert_eq!(b, s, "buckets, count, sum, max and mean");
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(b.quantile(q), s.quantile(q), "quantile {q}");
        }

        let before = reg.snapshot().histograms["batched_ns"].clone();
        batched.record_n(u64::MAX, 0);
        assert_eq!(
            reg.snapshot().histograms["batched_ns"],
            before,
            "n = 0 is a no-op"
        );

        let huge = reg.histogram("huge_ns", &[]);
        huge.record_n(u64::MAX / 2, 3);
        assert_eq!(huge.count(), 3);
        assert_eq!(huge.sum(), u64::MAX, "value·n saturates");
        huge.record_n(1, 1);
        assert_eq!(huge.sum(), u64::MAX, "the sum stays saturated");
        assert_eq!(reg.snapshot().histograms["huge_ns"].max, u64::MAX / 2);
    }
}
