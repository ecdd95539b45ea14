//! # ocasta-obs — dependency-free metrics primitives
//!
//! The observability layer for the fleet/repair/stream tiers: atomic
//! [`Counter`]s and [`Gauge`]s, fixed-bucket latency [`Histogram`]s with
//! percentile readout, and a [`Registry`] that names them and snapshots
//! everything as JSON.
//!
//! Two constraints shape the design (`DESIGN.md §5.11`):
//!
//! * **Pure observer.** Recording a metric may never change what the
//!   instrumented code does: every primitive is lock-free on the hot path
//!   (relaxed atomics), records wall-clock only, and feeds nothing back.
//!   The engine's seed-determinism therefore holds bit-for-bit with
//!   metrics on or off, which the CLI test suite asserts on real output
//!   files.
//! * **Allocation-free recording.** Histograms use a *fixed* bucket table
//!   (exponential microsecond bounds) sized at compile time, so a record
//!   from an ingest worker or the WAL appender is one `fetch_add` on a
//!   pre-existing cell — no resizing, no heap traffic, no lock, and no
//!   surprise stall on the very paths whose stalls we are measuring.
//!
//! ```
//! use ocasta_obs::Registry;
//! use std::time::Duration;
//!
//! let registry = Registry::new();
//! let batches = registry.counter("fleet.ingest.batches");
//! let stall = registry.histogram("fleet.sweep.stall_us");
//! batches.inc();
//! stall.record_duration(Duration::from_micros(1_250));
//! let json = registry.snapshot_json();
//! assert!(json.contains("\"fleet.ingest.batches\": 1"));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins instantaneous value (e.g. an epoch, a queue depth).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the gauge.
    pub fn set(&self, value: u64) {
        self.value.store(value, Ordering::Relaxed);
    }

    /// Ratchets the gauge up to `value` if it is larger than the current
    /// reading (a high-water mark).
    pub fn record_max(&self, value: u64) {
        self.value.fetch_max(value, Ordering::Relaxed);
    }

    /// Current reading.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Upper bounds (inclusive, microseconds) of the fixed histogram buckets.
///
/// A 1-2.5-5 ladder from 1 µs to 25 s: wide enough for everything from a
/// stripe-lock wait to a full-chain WAL rebase, coarse enough that the
/// whole table is a handful of cache lines. The last entry is the
/// overflow bucket: every value above 25 s lands there, and its reported
/// quantile is the observed maximum, never its nominal bound.
pub const BUCKET_BOUNDS_US: [u64; 24] = [
    1,
    2,
    5,
    10,
    25,
    50,
    100,
    250,
    500,
    1_000,
    2_500,
    5_000,
    10_000,
    25_000,
    50_000,
    100_000,
    250_000,
    500_000,
    1_000_000,
    2_500_000,
    5_000_000,
    10_000_000,
    25_000_000,
    10_000_000_000,
];

/// A fixed-bucket latency histogram with percentile readout.
///
/// Recording is one relaxed `fetch_add` into a compile-time-sized bucket
/// table plus count/sum/max updates — allocation-free and lock-free, so it
/// is safe on the hottest paths (see the crate docs for why that matters).
/// Quantiles are read back from cumulative bucket counts and reported as
/// the matched bucket's upper bound clamped to the observed maximum (the
/// overflow bucket reports the maximum itself), so no quantile reads
/// above [`Histogram::max_us`]. That is exact enough for regression
/// gating and honest about its resolution.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKET_BOUNDS_US.len()],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation, in microseconds.
    pub fn record(&self, value_us: u64) {
        let bucket = BUCKET_BOUNDS_US
            .iter()
            .position(|&bound| value_us <= bound)
            .unwrap_or(BUCKET_BOUNDS_US.len() - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value_us, Ordering::Relaxed);
        self.max.fetch_max(value_us, Ordering::Relaxed);
    }

    /// Records one observation from a [`Duration`].
    pub fn record_duration(&self, elapsed: Duration) {
        self.record(elapsed.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations, microseconds.
    pub fn sum_us(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest observation, microseconds (0 when empty).
    pub fn max_us(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`0.0..=1.0`) as a bucket upper bound in
    /// microseconds, clamped to the observed maximum; the overflow bucket
    /// reports the maximum itself. Returns 0 for an empty histogram.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        // ceil(q * total), clamped to [1, total]: the rank of the
        // observation the quantile names.
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (bucket, &count) in counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return if bucket == BUCKET_BOUNDS_US.len() - 1 {
                    self.max_us()
                } else {
                    BUCKET_BOUNDS_US[bucket].min(self.max_us())
                };
            }
        }
        self.max_us()
    }
}

/// One named metric handle held by a [`Registry`].
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A named, snapshot-able collection of metrics.
///
/// Handles are `Arc`s: instrumented code keeps its own clone and records
/// through relaxed atomics, while the registry retains the name →
/// handle mapping for [`Registry::snapshot_json`]. Requesting an existing
/// name of the same kind returns the *same* handle, so independent
/// subsystems can share a series without plumbing.
#[derive(Debug, Default)]
pub struct Registry {
    entries: Mutex<Vec<(String, Metric)>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn entry<T, F: FnOnce() -> Metric, G: Fn(&Metric) -> Option<Arc<T>>>(
        &self,
        name: &str,
        make: F,
        cast: G,
    ) -> Arc<T> {
        let mut entries = self.entries.lock().expect("registry lock poisoned");
        if let Some(existing) = entries
            .iter()
            .filter(|(n, _)| n == name)
            .find_map(|(_, m)| cast(m))
        {
            return existing;
        }
        let metric = make();
        let handle = cast(&metric).expect("just constructed the right kind");
        entries.push((name.to_string(), metric));
        handle
    }

    /// Returns (registering on first use) the counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.entry(
            name,
            || Metric::Counter(Arc::new(Counter::new())),
            |m| match m {
                Metric::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
        )
    }

    /// Returns (registering on first use) the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.entry(
            name,
            || Metric::Gauge(Arc::new(Gauge::new())),
            |m| match m {
                Metric::Gauge(g) => Some(Arc::clone(g)),
                _ => None,
            },
        )
    }

    /// Returns (registering on first use) the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.entry(
            name,
            || Metric::Histogram(Arc::new(Histogram::new())),
            |m| match m {
                Metric::Histogram(h) => Some(Arc::clone(h)),
                _ => None,
            },
        )
    }

    /// Serialises every metric as one JSON object, in registration order:
    /// counters and gauges as plain numbers, histograms as
    /// `{count, sum_us, max_us, p50_us, p90_us, p99_us}` objects.
    pub fn snapshot_json(&self) -> String {
        let entries = self.entries.lock().expect("registry lock poisoned");
        let mut counters = String::new();
        let mut gauges = String::new();
        let mut histograms = String::new();
        for (name, metric) in entries.iter() {
            let name = escape(name);
            match metric {
                Metric::Counter(c) => {
                    push_field(&mut counters, &format!("    \"{name}\": {}", c.get()));
                }
                Metric::Gauge(g) => {
                    push_field(&mut gauges, &format!("    \"{name}\": {}", g.get()));
                }
                Metric::Histogram(h) => {
                    push_field(
                        &mut histograms,
                        &format!(
                            "    \"{name}\": {{\"count\": {}, \"sum_us\": {}, \"max_us\": {}, \
                             \"p50_us\": {}, \"p90_us\": {}, \"p99_us\": {}}}",
                            h.count(),
                            h.sum_us(),
                            h.max_us(),
                            h.quantile_us(0.50),
                            h.quantile_us(0.90),
                            h.quantile_us(0.99),
                        ),
                    );
                }
            }
        }
        format!(
            "{{\n  \"counters\": {{\n{counters}\n  }},\n  \"gauges\": {{\n{gauges}\n  }},\n  \
             \"histograms\": {{\n{histograms}\n  }}\n}}\n"
        )
    }
}

/// A wall-clock stopwatch — the one sanctioned wall-clock read on
/// deterministic paths.
///
/// The workspace invariant (`DESIGN.md §5.11`, enforced at the source
/// level by `ocasta-lint`'s `wallclock-in-deterministic-path` rule) is
/// that engine, store, and service code never calls `Instant::now()` or
/// `SystemTime::now()` directly: wall-clock time flows *out* into
/// observers — histograms, report fields — and never back into control
/// flow, which is what keeps VOPR runs byte-deterministic with metrics on
/// or off. `Stopwatch` packages that contract as a type: it can be
/// started and its elapsed [`Duration`] read for an observer, but it
/// exposes no absolute timestamp to steer by, and the only module allowed
/// to construct one from the raw clock is this crate.
///
/// ```
/// use ocasta_obs::Stopwatch;
///
/// let timer = Stopwatch::start();
/// let _elapsed = timer.elapsed(); // destined for a histogram or report
/// assert!(Stopwatch::start_if(false).is_none(), "disabled: no clock read");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: std::time::Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Stopwatch {
            started: std::time::Instant::now(),
        }
    }

    /// Starts timing only when `enabled` — the instrumented-path pattern
    /// (`Stopwatch::start_if(metrics.is_some())`), so an uninstrumented
    /// run performs no clock read at all.
    pub fn start_if(enabled: bool) -> Option<Self> {
        enabled.then(Stopwatch::start)
    }

    /// Wall-clock time elapsed since [`Stopwatch::start`].
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }
}

/// Appends one `"name": value` field, comma-separating from prior fields.
fn push_field(out: &mut String, field: &str) {
    if !out.is_empty() {
        out.push_str(",\n");
    }
    out.push_str(field);
}

/// Escapes a metric name for embedding in a JSON string literal.
fn escape(name: &str) -> String {
    name.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_read_back() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(9);
        assert_eq!(g.get(), 9);
        g.record_max(3);
        assert_eq!(g.get(), 9, "record_max never lowers");
        g.record_max(12);
        assert_eq!(g.get(), 12);
    }

    #[test]
    fn histogram_quantiles_track_known_distributions() {
        let h = Histogram::new();
        assert_eq!(h.quantile_us(0.5), 0, "empty histogram reads zero");
        // 90 fast observations, 10 slow ones.
        for _ in 0..90 {
            h.record(40); // bucket bound 50
        }
        for _ in 0..10 {
            h.record(4_000); // bucket bound 5_000
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum_us(), 90 * 40 + 10 * 4_000);
        assert_eq!(h.max_us(), 4_000);
        assert_eq!(h.quantile_us(0.50), 50);
        assert_eq!(h.quantile_us(0.90), 50);
        // The slow observations' bucket reaches 5_000, but nothing above
        // the maximum was observed: the 100th percentile is the maximum.
        assert_eq!(h.quantile_us(0.99), 4_000);
        assert_eq!(h.quantile_us(1.0), 4_000);
    }

    #[test]
    fn quantiles_never_read_above_the_observed_maximum() {
        // One observation, as a run that opens one session records it.
        let h = Histogram::new();
        h.record(2_465); // bucket bound 2_500
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.quantile_us(q), 2_465, "q = {q}");
        }
        // Below the maximum, a quantile still reads its bucket's bound.
        h.record(30); // bucket bound 50
        h.record(30);
        assert_eq!(h.quantile_us(0.5), 50);
        assert_eq!(h.quantile_us(1.0), 2_465);
    }

    #[test]
    fn histogram_overflow_bucket_reports_the_true_max() {
        let h = Histogram::new();
        h.record(999_000_000_000); // beyond every bound: overflow bucket
        assert_eq!(h.quantile_us(0.5), 999_000_000_000);
        assert_eq!(h.max_us(), 999_000_000_000);
    }

    #[test]
    fn registry_shares_handles_by_name_and_kind() {
        let registry = Registry::new();
        let a = registry.counter("x");
        let b = registry.counter("x");
        a.inc();
        assert_eq!(b.get(), 1, "same name, same counter");
        // Same name, different kind: a distinct metric, not a clobber.
        let h = registry.histogram("x");
        h.record(10);
        assert_eq!(b.get(), 1);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn snapshot_json_lists_every_metric() {
        let registry = Registry::new();
        registry.counter("fleet.batches").add(7);
        registry.gauge("stream.epoch").set(3);
        registry.histogram("wal.append_us").record(123);
        let json = registry.snapshot_json();
        assert!(json.contains("\"fleet.batches\": 7"), "{json}");
        assert!(json.contains("\"stream.epoch\": 3"), "{json}");
        assert!(json.contains("\"wal.append_us\""), "{json}");
        assert!(json.contains("\"count\": 1"), "{json}");
        assert!(json.contains("\"p99_us\""), "{json}");
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let registry = Registry::new();
        let counter = registry.counter("hits");
        let histogram = registry.histogram("lat");
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let counter = Arc::clone(&counter);
                let histogram = Arc::clone(&histogram);
                scope.spawn(move || {
                    for i in 0..1_000u64 {
                        counter.inc();
                        histogram.record(i % 100);
                    }
                });
            }
        });
        assert_eq!(counter.get(), 8_000);
        assert_eq!(histogram.count(), 8_000);
    }
}
