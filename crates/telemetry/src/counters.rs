//! The process-wide metric registry: named atomic [`Counter`]s,
//! [`Gauge`]s, and latency-bucket [`Histogram`]s.
//!
//! Metrics are *always on*: recording is a relaxed atomic add, cheap
//! enough to leave enabled in production paths (see the overhead budget
//! in `docs/OBSERVABILITY.md`). Handles are interned for the life of
//! the process — resolve a name once with [`counter`]/[`gauge`]/
//! [`histogram`] and keep the `&'static` reference on hot paths; the
//! lookup itself takes a registry lock and must not sit inside a hot
//! loop.
//!
//! Naming convention: `frost.<crate>.<component>.<metric>`, e.g.
//! `frost.fuzz.campaign.checked`. See `docs/OBSERVABILITY.md` for the
//! registered names.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Stripes per [`Counter`].
const STRIPES: usize = 8;

/// One stripe, alone on its cache line pair (x86 prefetches in pairs).
#[derive(Debug, Default)]
#[repr(align(128))]
struct Stripe(AtomicU64);

/// This thread's stripe, picked round robin when it first counts.
fn my_stripe() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: usize = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES;
    }
    STRIPE.with(|s| *s)
}

/// A monotonically increasing atomic counter, striped across cache
/// lines: an add touches only the calling thread's stripe.
#[derive(Debug, Default)]
pub struct Counter {
    stripes: [Stripe; STRIPES],
}

impl Counter {
    /// A counter starting at zero.
    pub const fn new() -> Counter {
        Counter {
            stripes: [const { Stripe(AtomicU64::new(0)) }; STRIPES],
        }
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.stripes[my_stripe()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current value: the sum of the stripes.
    pub fn get(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }

    fn reset(&self) {
        for s in &self.stripes {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

/// A last-write-wins (or running-max) atomic gauge.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// A gauge starting at zero.
    pub const fn new() -> Gauge {
        Gauge {
            value: AtomicU64::new(0),
        }
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` is larger (peak tracking).
    #[inline]
    pub fn record_max(&self, v: u64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Number of power-of-two buckets in a [`Histogram`].
pub const HISTOGRAM_BUCKETS: usize = 40;

/// A histogram-lite: power-of-two buckets plus count and sum.
///
/// Bucket `i` holds samples `v` with `2^(i-1) <= v < 2^i` (bucket 0
/// holds `v == 0`); the last bucket absorbs everything larger. Designed
/// for nanosecond latencies: 40 buckets cover up to ~9 minutes.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Histogram {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: [ZERO; HISTOGRAM_BUCKETS],
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        let idx = (64 - v.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Mean sample, or 0 with no samples.
    pub fn mean(&self) -> f64 {
        let c = self.count();
        if c == 0 {
            0.0
        } else {
            self.sum() as f64 / c as f64
        }
    }

    /// A point-in-time copy of the whole distribution.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            sum: self.sum(),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

/// A frozen copy of one [`Histogram`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Per-bucket counts (see [`Histogram`] for the bucket layout).
    pub buckets: Vec<u64>,
}

impl HistogramSummary {
    /// Mean sample, or 0 with no samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// An approximate quantile (`q` in 0..=1): the upper bound of the
    /// bucket containing the `q`-th sample.
    pub fn approx_quantile(&self, q: f64) -> u64 {
        let target = (self.count as f64 * q).ceil() as u64;
        let mut seen = 0;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target && seen > 0 {
                return if i == 0 { 0 } else { 1u64 << i };
            }
        }
        0
    }
}

struct Registry {
    counters: Mutex<BTreeMap<String, &'static Counter>>,
    gauges: Mutex<BTreeMap<String, &'static Gauge>>,
    histograms: Mutex<BTreeMap<String, &'static Histogram>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        counters: Mutex::new(BTreeMap::new()),
        gauges: Mutex::new(BTreeMap::new()),
        histograms: Mutex::new(BTreeMap::new()),
    })
}

fn intern<T: Default>(map: &Mutex<BTreeMap<String, &'static T>>, name: &str) -> &'static T {
    let mut m = map.lock().expect("metric registry poisoned");
    if let Some(v) = m.get(name) {
        return v;
    }
    let leaked: &'static T = Box::leak(Box::default());
    m.insert(name.to_string(), leaked);
    leaked
}

/// Resolves (registering on first use) the counter named `name`.
///
/// The returned reference lives for the whole process; resolve once and
/// reuse it on hot paths.
///
/// ```
/// let c = frost_telemetry::counter("doc.example.widgets");
/// c.add(2);
/// c.incr();
/// assert!(c.get() >= 3);
/// ```
pub fn counter(name: &str) -> &'static Counter {
    intern(&registry().counters, name)
}

/// Resolves (registering on first use) the gauge named `name`.
pub fn gauge(name: &str) -> &'static Gauge {
    intern(&registry().gauges, name)
}

/// Resolves (registering on first use) the histogram named `name`.
pub fn histogram(name: &str) -> &'static Histogram {
    intern(&registry().histograms, name)
}

/// A point-in-time copy of every registered metric.
///
/// Snapshots subtract ([`Snapshot::delta`]) so callers can meter one
/// region of work:
///
/// ```
/// use frost_telemetry::{counter, snapshot};
/// let before = snapshot();
/// counter("doc.example.delta").add(5);
/// let spent = snapshot().delta(&before);
/// assert_eq!(spent.counter("doc.example.delta"), 5);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

impl Snapshot {
    /// The counter's value in this snapshot (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Counters whose value changed since `earlier`, with gauges and
    /// histogram count/sum taken as differences too (gauge deltas
    /// saturate at zero; gauges are last-write-wins, so a delta only
    /// means "the gauge rose").
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        let mut out = Snapshot::default();
        for (k, &v) in &self.counters {
            let d = v.saturating_sub(earlier.counter(k));
            if d > 0 {
                out.counters.insert(k.clone(), d);
            }
        }
        for (k, &v) in &self.gauges {
            let d = v.saturating_sub(earlier.gauges.get(k).copied().unwrap_or(0));
            if d > 0 {
                out.gauges.insert(k.clone(), d);
            }
        }
        for (k, h) in &self.histograms {
            let e = earlier.histograms.get(k);
            let count = h.count - e.map_or(0, |e| e.count);
            if count == 0 {
                continue;
            }
            let sum = h.sum - e.map_or(0, |e| e.sum);
            let buckets = h
                .buckets
                .iter()
                .enumerate()
                .map(|(i, &b)| b - e.and_then(|e| e.buckets.get(i)).copied().unwrap_or(0))
                .collect();
            out.histograms.insert(
                k.clone(),
                HistogramSummary {
                    count,
                    sum,
                    buckets,
                },
            );
        }
        out
    }
}

/// Copies every registered metric into a [`Snapshot`].
pub fn snapshot() -> Snapshot {
    let r = registry();
    Snapshot {
        counters: r
            .counters
            .lock()
            .expect("metric registry poisoned")
            .iter()
            .map(|(k, c)| (k.clone(), c.get()))
            .collect(),
        gauges: r
            .gauges
            .lock()
            .expect("metric registry poisoned")
            .iter()
            .map(|(k, g)| (k.clone(), g.get()))
            .collect(),
        histograms: r
            .histograms
            .lock()
            .expect("metric registry poisoned")
            .iter()
            .map(|(k, h)| (k.clone(), h.summary()))
            .collect(),
    }
}

/// Zeroes every registered metric. Intended for tests; racing writers
/// keep their handles and simply start counting from zero again.
pub fn reset_metrics() {
    let r = registry();
    for c in r
        .counters
        .lock()
        .expect("metric registry poisoned")
        .values()
    {
        c.reset();
    }
    for g in r.gauges.lock().expect("metric registry poisoned").values() {
        g.reset();
    }
    for h in r
        .histograms
        .lock()
        .expect("metric registry poisoned")
        .values()
    {
        h.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests here: `reset_metrics` zeroes every metric
    /// another test may be reading.
    fn metrics_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn counters_intern_and_accumulate() {
        let _metrics = metrics_lock();
        let a = counter("test.counters.a");
        let b = counter("test.counters.a");
        assert!(std::ptr::eq(a, b), "same name must intern to same handle");
        let before = a.get();
        a.add(3);
        b.incr();
        assert_eq!(a.get(), before + 4);
    }

    #[test]
    fn striped_counter_is_exact_under_concurrency() {
        let _metrics = metrics_lock();
        let c = counter("test.counters.striped");
        let before = snapshot();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..100_000 {
                        c.add(1);
                    }
                });
            }
        });
        assert_eq!(c.get(), 800_000);
        assert_eq!(
            snapshot().delta(&before).counter("test.counters.striped"),
            800_000
        );
        reset_metrics();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn gauge_tracks_peak() {
        let _metrics = metrics_lock();
        let g = gauge("test.gauge.peak");
        g.set(5);
        g.record_max(3);
        assert_eq!(g.get(), 5);
        g.record_max(9);
        assert_eq!(g.get(), 9);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let _metrics = metrics_lock();
        let h = histogram("test.hist.latency");
        for v in [0u64, 1, 1, 2, 1000, 1_000_000] {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1_001_004);
        assert_eq!(s.buckets[0], 1, "zero lands in bucket 0");
        assert_eq!(s.buckets[1], 2, "ones land in bucket 1");
        assert!(s.approx_quantile(0.5) <= 1 << 2);
        assert!(s.approx_quantile(1.0) >= 1_000_000);
    }

    #[test]
    fn snapshot_delta_isolates_a_region() {
        let _metrics = metrics_lock();
        let c = counter("test.snapshot.region");
        let before = snapshot();
        c.add(7);
        histogram("test.snapshot.hist").record(42);
        let d = snapshot().delta(&before);
        assert_eq!(d.counter("test.snapshot.region"), 7);
        assert_eq!(d.histograms["test.snapshot.hist"].count, 1);
        assert!(!d.counters.contains_key("test.snapshot.never-touched"));
    }
}
