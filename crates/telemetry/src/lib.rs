//! Zero-dependency metrics and tracing core for the SCFI stack.
//!
//! Every engine in this repository — the wave-campaign executor, the
//! symbolic certifier, the `scfi serve` job server — reports its
//! internals through one [`Telemetry`] handle:
//!
//! * **Counters** — monotone event totals (`fetch_add` relaxed).
//! * **Gauges** — last-written values with a `fetch_max` high-water
//!   helper (BDD node-table peak, registry size).
//! * **Histograms** — fixed power-of-two buckets plus the exact minimum
//!   and maximum, with approximate quantile estimation clamped to the
//!   observed range; used for latencies (nanoseconds) and sizes (gate
//!   counts).
//! * **Spans** — named wall-clock intervals collected for
//!   chrome://tracing export.
//!
//! The handle is designed around one invariant: **recording must never
//! change results, and a disabled handle must cost (almost) nothing**.
//! [`Telemetry::off`] carries no registry at all — every operation on a
//! handle, counter, gauge, histogram or span derived from it is a
//! branch on a `None` and nothing else. An enabled handle performs
//! relaxed atomic operations only; nothing in this crate blocks a hot
//! path on a lock (locks guard registration and rendering, both cold).
//!
//! Three renderers turn a recording registry into output:
//! [`Telemetry::render_prometheus`] (the `GET /v1/metrics` exposition
//! text), [`Telemetry::render_stats_text`] / [`render_stats_json`]
//! (the CLI `--stats` block), and [`Telemetry::render_chrome_trace`]
//! (the CLI `--trace-out` span dump).
//!
//! [`render_stats_json`]: Telemetry::render_stats_json

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Histogram bucket count: bucket `0` holds the value `0`, bucket `i`
/// (`1 ..= 64`) holds values in `[2^(i-1), 2^i)`.
const BUCKETS: usize = 65;

/// Spans retained per registry; later spans are counted but dropped so
/// a long soak cannot grow memory without bound.
const MAX_SPANS: usize = 65_536;

/// One histogram's storage: power-of-two buckets plus sum, count and
/// the exact extremes.
struct HistogramCell {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl HistogramCell {
    fn new() -> HistogramCell {
        HistogramCell {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    fn observe(&self, value: u64) {
        let idx = bucket_index(value);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            sum: self.sum.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// Maps a value to its bucket: `0 → 0`, otherwise the bit length.
fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` (the Prometheus `le` edge).
fn bucket_upper(i: usize) -> u128 {
    if i == 0 {
        0
    } else {
        (1u128 << i) - 1
    }
}

/// A point-in-time copy of one histogram, with quantile estimation.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    buckets: [u64; BUCKETS],
    /// Sum of all observed values.
    pub sum: u64,
    /// Number of observations.
    pub count: u64,
    /// Smallest observation (`u64::MAX` when empty).
    min: u64,
    /// Largest observation (`0` when empty).
    max: u64,
}

impl HistogramSnapshot {
    /// Approximate `q`-quantile (`0.0 ..= 1.0`) by linear interpolation
    /// inside the containing power-of-two bucket, clamped to the smallest
    /// and largest observation, so it never reports a value outside the
    /// observed range (a single sample is its own every quantile).
    /// Returns `0` when nothing was observed.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // `max`/`min` rather than `clamp`: a torn relaxed read may see
        // `min > max`, which must degrade, not panic.
        self.bucket_quantile(q).max(self.min).min(self.max)
    }

    /// The unclamped bucket interpolation behind [`quantile`](Self::quantile).
    fn bucket_quantile(&self, q: f64) -> u64 {
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if cumulative + n >= target {
                if i == 0 {
                    return 0;
                }
                let lower = 1u64 << (i - 1);
                let position = (target - cumulative) as f64 / n as f64;
                let width = lower as f64;
                return lower.saturating_add((width * position) as u64);
            }
            cumulative += n;
        }
        // Unreachable with a consistent snapshot; degrade to the sum's
        // mean rather than panicking on a torn relaxed read.
        self.sum / self.count
    }

    /// Mean of all observations (`0` when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

/// The shared recorder: named metric cells plus the span log.
struct Registry {
    epoch: Instant,
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramCell>>>,
    spans: Mutex<Vec<SpanEvent>>,
    spans_dropped: AtomicU64,
}

/// One completed span, relative to the registry epoch.
#[derive(Clone, Debug)]
struct SpanEvent {
    name: &'static str,
    tid: u64,
    start_us: u64,
    dur_us: u64,
}

fn thread_tid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

/// The cheap cross-layer telemetry handle.
///
/// Cloning shares the underlying registry; [`Telemetry::off`] (also the
/// [`Default`]) shares nothing and turns every recording operation into
/// a no-op. Components fetch named [`Counter`]/[`Gauge`]/[`Histogram`]
/// handles once (a cold, locked registration) and then record through
/// relaxed atomics only.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Registry>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.inner.is_some() {
            "Telemetry(recording)"
        } else {
            "Telemetry(off)"
        })
    }
}

impl Telemetry {
    /// A recording handle with a fresh, empty registry.
    pub fn recording() -> Telemetry {
        Telemetry {
            inner: Some(Arc::new(Registry {
                epoch: Instant::now(),
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
                spans: Mutex::new(Vec::new()),
                spans_dropped: AtomicU64::new(0),
            })),
        }
    }

    /// The disabled handle: every derived operation is a no-op.
    pub fn off() -> Telemetry {
        Telemetry { inner: None }
    }

    /// `true` when a recorder is installed.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Registers (or finds) the counter `name` and returns its handle.
    pub fn counter(&self, name: &str) -> Counter {
        Counter {
            cell: self.inner.as_ref().map(|r| {
                let mut map = r.counters.lock().expect("telemetry counters lock");
                Arc::clone(map.entry(name.to_string()).or_default())
            }),
        }
    }

    /// Registers (or finds) the gauge `name` and returns its handle.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge {
            cell: self.inner.as_ref().map(|r| {
                let mut map = r.gauges.lock().expect("telemetry gauges lock");
                Arc::clone(map.entry(name.to_string()).or_default())
            }),
        }
    }

    /// Registers (or finds) the histogram `name` and returns its handle.
    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram {
            cell: self.inner.as_ref().map(|r| {
                let mut map = r.histograms.lock().expect("telemetry histograms lock");
                Arc::clone(
                    map.entry(name.to_string())
                        .or_insert_with(|| Arc::new(HistogramCell::new())),
                )
            }),
        }
    }

    /// Starts a named span; the interval is recorded when the returned
    /// guard drops (and is a no-op on a disabled handle).
    pub fn span(&self, name: &'static str) -> Span {
        Span {
            inner: self
                .inner
                .as_ref()
                .map(|r| (Arc::clone(r), name, Instant::now())),
        }
    }

    /// Records an already-measured interval as a completed span.
    pub fn record_span(&self, name: &'static str, start: Instant, duration: Duration) {
        if let Some(r) = &self.inner {
            r.push_span(name, start, duration);
        }
    }

    /// Renders every metric in Prometheus text exposition format
    /// (sorted by name; empty string on a disabled handle).
    pub fn render_prometheus(&self) -> String {
        let Some(r) = &self.inner else {
            return String::new();
        };
        let mut out = String::new();
        for (name, value) in snapshot_u64(&r.counters) {
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, value) in snapshot_u64(&r.gauges) {
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, snap) in snapshot_histograms(&r.histograms) {
            let _ = writeln!(out, "# TYPE {name} histogram");
            let last = snap
                .buckets
                .iter()
                .rposition(|&n| n > 0)
                .unwrap_or(0)
                .min(BUCKETS - 1);
            let mut cumulative = 0u64;
            for i in 0..=last {
                cumulative += snap.buckets[i];
                let _ = writeln!(
                    out,
                    "{name}_bucket{{le=\"{}\"}} {cumulative}",
                    bucket_upper(i)
                );
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", snap.count);
            let _ = writeln!(out, "{name}_sum {}", snap.sum);
            let _ = writeln!(out, "{name}_count {}", snap.count);
        }
        out
    }

    /// Renders the human-readable `--stats` block (empty on a disabled
    /// handle). Counters and gauges print sorted by name; histograms
    /// print count, mean and p50/p90/p99.
    pub fn render_stats_text(&self) -> String {
        let Some(r) = &self.inner else {
            return String::new();
        };
        let mut out = String::from("run stats:\n");
        for (name, value) in snapshot_u64(&r.counters) {
            let _ = writeln!(out, "  {name:<44} {value}");
        }
        for (name, value) in snapshot_u64(&r.gauges) {
            let _ = writeln!(out, "  {name:<44} {value}");
        }
        for (name, snap) in snapshot_histograms(&r.histograms) {
            let _ = writeln!(
                out,
                "  {name:<44} count {} mean {} p50 {} p90 {} p99 {}",
                snap.count,
                snap.mean(),
                snap.quantile(0.50),
                snap.quantile(0.90),
                snap.quantile(0.99)
            );
        }
        out
    }

    /// Renders the `--stats json` document: one object with `counters`,
    /// `gauges` and `histograms` members (`{}` on a disabled handle).
    pub fn render_stats_json(&self) -> String {
        let Some(r) = &self.inner else {
            return String::from("{}");
        };
        let mut out = String::from("{\n  \"counters\": {");
        let mut first = true;
        for (name, value) in snapshot_u64(&r.counters) {
            let sep = if first { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{name}\": {value}");
            first = false;
        }
        out.push_str("\n  },\n  \"gauges\": {");
        first = true;
        for (name, value) in snapshot_u64(&r.gauges) {
            let sep = if first { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{name}\": {value}");
            first = false;
        }
        out.push_str("\n  },\n  \"histograms\": {");
        first = true;
        for (name, snap) in snapshot_histograms(&r.histograms) {
            let sep = if first { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    \"{name}\": {{\"count\": {}, \"sum\": {}, \"mean\": {}, \
                 \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
                snap.count,
                snap.sum,
                snap.mean(),
                snap.quantile(0.50),
                snap.quantile(0.90),
                snap.quantile(0.99)
            );
            first = false;
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Renders recorded spans as a chrome://tracing document (the
    /// `{"traceEvents": [...]}` object form, `ph:"X"` complete events,
    /// microsecond timestamps relative to the registry epoch).
    pub fn render_chrome_trace(&self) -> String {
        let Some(r) = &self.inner else {
            return String::from("{\"traceEvents\": []}\n");
        };
        let spans = r.spans.lock().expect("telemetry spans lock");
        let mut out = String::from("{\"traceEvents\": [");
        for (i, s) in spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n  {{\"name\": \"{}\", \"cat\": \"scfi\", \"ph\": \"X\", \
                 \"ts\": {}, \"dur\": {}, \"pid\": 1, \"tid\": {}}}",
                s.name, s.start_us, s.dur_us, s.tid
            );
        }
        out.push_str("\n]}\n");
        out
    }

    /// Spans dropped because the per-registry retention cap was hit.
    pub fn spans_dropped(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |r| r.spans_dropped.load(Ordering::Relaxed))
    }
}

impl Registry {
    fn push_span(&self, name: &'static str, start: Instant, duration: Duration) {
        let start_us = start.saturating_duration_since(self.epoch).as_micros() as u64;
        let mut spans = self.spans.lock().expect("telemetry spans lock");
        if spans.len() >= MAX_SPANS {
            self.spans_dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        spans.push(SpanEvent {
            name,
            tid: thread_tid(),
            start_us,
            dur_us: duration.as_micros() as u64,
        });
    }
}

fn snapshot_u64(map: &Mutex<BTreeMap<String, Arc<AtomicU64>>>) -> Vec<(String, u64)> {
    map.lock()
        .expect("telemetry metric lock")
        .iter()
        .map(|(name, cell)| (name.clone(), cell.load(Ordering::Relaxed)))
        .collect()
}

fn snapshot_histograms(
    map: &Mutex<BTreeMap<String, Arc<HistogramCell>>>,
) -> Vec<(String, HistogramSnapshot)> {
    map.lock()
        .expect("telemetry metric lock")
        .iter()
        .map(|(name, cell)| (name.clone(), cell.snapshot()))
        .collect()
}

/// A monotone event counter. Cheap to clone; a no-op when derived from
/// a disabled handle.
#[derive(Clone, Default)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// Adds `n` (one relaxed `fetch_add`; nothing when disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.cell {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current total (`0` when disabled).
    pub fn get(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A last-value gauge with a high-water helper.
#[derive(Clone, Default)]
pub struct Gauge {
    cell: Option<Arc<AtomicU64>>,
}

impl Gauge {
    /// Stores `value` (relaxed; nothing when disabled).
    #[inline]
    pub fn set(&self, value: u64) {
        if let Some(cell) = &self.cell {
            cell.store(value, Ordering::Relaxed);
        }
    }

    /// Raises the gauge to `value` if it is higher (relaxed
    /// `fetch_max`) — the high-water-mark idiom.
    #[inline]
    pub fn record_max(&self, value: u64) {
        if let Some(cell) = &self.cell {
            cell.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// The current value (`0` when disabled).
    pub fn get(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram handle.
#[derive(Clone, Default)]
pub struct Histogram {
    cell: Option<Arc<HistogramCell>>,
}

impl Histogram {
    /// Records one observation (three relaxed `fetch_add`s; nothing
    /// when disabled).
    #[inline]
    pub fn observe(&self, value: u64) {
        if let Some(cell) = &self.cell {
            cell.observe(value);
        }
    }

    /// Records a duration in nanoseconds.
    #[inline]
    pub fn observe_duration(&self, duration: Duration) {
        self.observe(duration.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// `true` when observations are actually recorded — lets callers
    /// skip computing an expensive observation value when disabled.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.cell.is_some()
    }

    /// A point-in-time copy (empty when disabled).
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.cell.as_ref().map_or(
            HistogramSnapshot {
                buckets: [0; BUCKETS],
                sum: 0,
                count: 0,
                min: u64::MAX,
                max: 0,
            },
            |c| c.snapshot(),
        )
    }
}

/// A live span; records its interval into the registry on drop.
pub struct Span {
    inner: Option<(Arc<Registry>, &'static str, Instant)>,
}

impl Span {
    /// The elapsed time so far (zero when disabled).
    pub fn elapsed(&self) -> Duration {
        self.inner
            .as_ref()
            .map_or(Duration::ZERO, |(_, _, start)| start.elapsed())
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((registry, name, start)) = self.inner.take() {
            registry.push_span(name, start, start.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert_everywhere() {
        let t = Telemetry::off();
        assert!(!t.enabled());
        let c = t.counter("scfi_x_total");
        c.add(5);
        assert_eq!(c.get(), 0);
        let g = t.gauge("scfi_x");
        g.set(7);
        g.record_max(9);
        assert_eq!(g.get(), 0);
        let h = t.histogram("scfi_x_ns");
        h.observe(123);
        assert_eq!(h.snapshot().count, 0);
        drop(t.span("nothing"));
        assert_eq!(t.render_prometheus(), "");
        assert_eq!(t.render_stats_text(), "");
        assert_eq!(t.render_stats_json(), "{}");
        assert_eq!(t.render_chrome_trace(), "{\"traceEvents\": []}\n");
    }

    #[test]
    fn counters_and_gauges_share_cells_by_name() {
        let t = Telemetry::recording();
        t.counter("scfi_events_total").add(2);
        t.counter("scfi_events_total").inc();
        assert_eq!(t.counter("scfi_events_total").get(), 3);
        let g = t.gauge("scfi_depth");
        g.set(4);
        g.record_max(2); // lower: ignored
        g.record_max(9); // higher: taken
        assert_eq!(t.gauge("scfi_depth").get(), 9);
    }

    #[test]
    fn histogram_quantiles_bracket_the_observations() {
        let t = Telemetry::recording();
        let h = t.histogram("scfi_size");
        for v in [1u64, 2, 3, 4, 100, 1000] {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 6);
        assert_eq!(snap.sum, 1110);
        assert_eq!(snap.mean(), 185);
        let p50 = snap.quantile(0.50);
        assert!((2..=4).contains(&p50), "p50 = {p50}");
        let p99 = snap.quantile(0.99);
        assert!((512..=1024).contains(&p99), "p99 = {p99}");
        // Zero is its own bucket.
        h.observe(0);
        assert_eq!(h.snapshot().quantile(0.01), 0);
    }

    #[test]
    fn a_single_sample_is_its_own_every_quantile() {
        // 800_313 sits in the [2^19, 2^20) bucket, whose interpolation
        // would report the exclusive upper bound 1_048_576.
        for v in [0u64, 1, 3, 800_313, u64::MAX] {
            let t = Telemetry::recording();
            let h = t.histogram("scfi_one_ns");
            h.observe(v);
            let snap = h.snapshot();
            for q in [0.0, 0.01, 0.5, 0.9, 0.99, 1.0] {
                assert_eq!(snap.quantile(q), v, "q = {q} of the single sample {v}");
            }
        }
    }

    #[test]
    fn quantiles_stay_in_range_and_never_decrease() {
        let t = Telemetry::recording();
        let h = t.histogram("scfi_spread_ns");
        let samples = [5u64, 6, 7, 900, 1_000, 1_023, 70_000, 1 << 40];
        for v in samples {
            h.observe(v);
        }
        let snap = h.snapshot();
        let mut last = 0;
        for step in 0..=1_000 {
            let q = f64::from(step) / 1_000.0;
            let v = snap.quantile(q);
            assert!(
                (5..=1 << 40).contains(&v),
                "q = {q}: {v} outside the observed range"
            );
            assert!(v >= last, "q = {q}: {v} fell below {last}");
            last = v;
        }
        assert_eq!(snap.quantile(1.0), 1 << 40);
        assert_eq!(snap.quantile(0.0), 5);
    }

    #[test]
    fn bucket_index_and_bounds_are_consistent() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        // Every value is ≤ its bucket's inclusive upper bound and > the
        // previous bucket's.
        for v in [0u64, 1, 2, 3, 7, 8, 1000, u64::MAX] {
            let i = bucket_index(v);
            assert!(u128::from(v) <= bucket_upper(i), "{v} in bucket {i}");
            if i > 0 {
                assert!(u128::from(v) > bucket_upper(i - 1), "{v} above bucket {i}");
            }
        }
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let t = Telemetry::recording();
        t.counter("scfi_requests_total").add(3);
        t.gauge("scfi_queue_depth").set(2);
        let h = t.histogram("scfi_latency_ns");
        h.observe(10);
        h.observe(2000);
        let text = t.render_prometheus();
        assert!(text.contains("# TYPE scfi_requests_total counter"));
        assert!(text.contains("scfi_requests_total 3"));
        assert!(text.contains("# TYPE scfi_queue_depth gauge"));
        assert!(text.contains("scfi_queue_depth 2"));
        assert!(text.contains("# TYPE scfi_latency_ns histogram"));
        assert!(text.contains("scfi_latency_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("scfi_latency_ns_sum 2010"));
        assert!(text.contains("scfi_latency_ns_count 2"));
        // Bucket lines are cumulative and end at the count.
        let last_bucket = text
            .lines()
            .rfind(|l| l.starts_with("scfi_latency_ns_bucket"))
            .expect("bucket lines");
        assert!(last_bucket.ends_with(" 2"), "{last_bucket}");
        // Every non-comment line is `name[{le=...}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().expect("value");
            assert!(value.parse::<u64>().is_ok(), "numeric sample value: {line}");
            assert!(parts.next().is_some(), "named series: {line}");
        }
    }

    #[test]
    fn stats_renderers_cover_all_metric_kinds() {
        let t = Telemetry::recording();
        t.counter("scfi_waves_total").add(7);
        t.gauge("scfi_nodes_high_water").record_max(42);
        t.histogram("scfi_cone_gates").observe(16);
        let text = t.render_stats_text();
        assert!(text.starts_with("run stats:\n"));
        assert!(text.contains("scfi_waves_total"));
        assert!(text.contains("scfi_nodes_high_water"));
        assert!(text.contains("p99"));
        let json = t.render_stats_json();
        assert!(json.contains("\"scfi_waves_total\": 7"));
        assert!(json.contains("\"scfi_nodes_high_water\": 42"));
        assert!(json.contains("\"count\": 1"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn spans_appear_in_the_chrome_trace() {
        let t = Telemetry::recording();
        {
            let _span = t.span("certify.setup");
            std::thread::sleep(Duration::from_millis(1));
        }
        t.record_span("campaign.run", Instant::now(), Duration::from_micros(1500));
        let trace = t.render_chrome_trace();
        assert!(trace.contains("\"name\": \"certify.setup\""));
        assert!(trace.contains("\"name\": \"campaign.run\""));
        assert!(trace.contains("\"ph\": \"X\""));
        assert!(trace.contains("\"dur\": 1500"));
        assert_eq!(trace.matches('{').count(), trace.matches('}').count());
        assert_eq!(t.spans_dropped(), 0);
    }

    #[test]
    fn clones_share_the_registry() {
        let t = Telemetry::recording();
        let clone = t.clone();
        clone.counter("scfi_shared_total").add(5);
        assert_eq!(t.counter("scfi_shared_total").get(), 5);
        assert!(clone.enabled());
    }
}
