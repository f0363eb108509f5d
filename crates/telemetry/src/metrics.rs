//! The metrics registry: named counters, gauges and histograms.
//!
//! Handles are cheap `Arc`-backed clones; mutation is a single atomic op.
//! The registry's mutex is taken only to register (or re-fetch) a handle —
//! callers cache handles at construction, so steady-state recording never
//! contends. [`Registry::snapshot`] freezes everything into a
//! [`MetricsSnapshot`]: deterministic `BTreeMap`s renderable to
//! Prometheus-style text exposition with [`MetricsSnapshot::render_text`]
//! (a `String`-returning API — library crates do not print).

#![expect(
    clippy::disallowed_types,
    reason = "pbds-telemetry sits below pbds-sync, so the registry keeps a std mutex"
)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::hist::{Histogram, HistogramSnapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// A monotone counter handle. Clones share the underlying atomic.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one and return the post-increment value. Unlike `inc` + `get`,
    /// the returned total is exact under concurrent increments — callers
    /// use it for threshold decisions ("disable after N failures") that
    /// must fire exactly once.
    #[inline]
    pub fn inc_and_get(&self) -> u64 {
        self.0.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle (set/add/max semantics). Clones share the atomic.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add a (possibly negative) delta.
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Ratchet the gauge up to `v` if it is larger (high-water marks).
    #[inline]
    pub fn set_max(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// A registry of named metrics. One per server (plus one per catalog);
/// snapshots from several registries [`MetricsSnapshot::merge`] into the
/// single coherent `pbds_*` namespace.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("Registry")
            .field("counters", &inner.counters.len())
            .field("gauges", &inner.gauges.len())
            .field("histograms", &inner.histograms.len())
            .finish()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A poisoned registry only means a panicking thread held the
        // registration lock; the maps themselves are always consistent.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Get or register the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        self.lock()
            .counters
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Get or register the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.lock()
            .gauges
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Get or register a unit-scale histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.lock()
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(1.0))
            .clone()
    }

    /// Get or register a nanosecond-recorded, seconds-exposed histogram
    /// (conventionally named `*_seconds`).
    pub fn time_histogram(&self, name: &str) -> Histogram {
        self.lock()
            .histograms
            .entry(name.to_string())
            .or_insert_with(Histogram::new_seconds)
            .clone()
    }

    /// Freeze every registered metric into a deterministic snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.lock();
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// A deterministic point-in-time view of a registry (or several merged
/// registries): sorted name → value maps, plus histogram snapshots.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Counter value, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Gauge value, if registered.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.get(name).copied()
    }

    /// Histogram snapshot, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Fold another snapshot in: counters and gauges of the same name add,
    /// histograms merge bucket-wise. Namespaces are designed disjoint
    /// (`pbds_catalog_*` vs `pbds_commit_*` …), so in practice this unions.
    pub fn merge(&mut self, other: MetricsSnapshot) {
        for (k, v) in other.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
        for (k, v) in other.gauges {
            *self.gauges.entry(k).or_insert(0) += v;
        }
        for (k, v) in other.histograms {
            match self.histograms.get_mut(&k) {
                Some(h) => h.merge(&v),
                None => {
                    self.histograms.insert(k, v);
                }
            }
        }
    }

    /// Render the snapshot as Prometheus-style text exposition. Returned as
    /// a `String` (the caller decides where it goes); deterministic — names
    /// sorted, histogram buckets in increasing bound order.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!("# TYPE {name} histogram\n"));
            for (le, cum) in h.cumulative() {
                out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cum}\n"));
            }
            out.push_str(&format!(
                "{name}_bucket{{le=\"+Inf\"}} {}\n{name}_sum {}\n{name}_count {}\n",
                h.count(),
                h.sum_scaled(),
                h.count()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn handles_share_state_and_snapshot_deterministically() {
        let r = Registry::new();
        let c = r.counter("pbds_test_total");
        let c2 = r.counter("pbds_test_total");
        c.inc();
        c2.add(2);
        let g = r.gauge("pbds_test_depth");
        g.set(5);
        g.set_max(3); // no-op: 5 is larger
        let s1 = r.snapshot();
        let s2 = r.snapshot();
        assert_eq!(s1, s2);
        assert_eq!(s1.counter("pbds_test_total"), Some(3));
        assert_eq!(s1.gauge("pbds_test_depth"), Some(5));
    }

    #[test]
    fn render_text_contains_all_families() {
        let r = Registry::new();
        r.counter("pbds_c").add(7);
        r.gauge("pbds_g").set(-2);
        r.time_histogram("pbds_h_seconds")
            .record_duration(Duration::from_micros(100));
        let text = r.snapshot().render_text();
        assert!(text.contains("# TYPE pbds_c counter\npbds_c 7\n"), "{text}");
        assert!(text.contains("# TYPE pbds_g gauge\npbds_g -2\n"), "{text}");
        assert!(text.contains("# TYPE pbds_h_seconds histogram"), "{text}");
        assert!(
            text.contains("pbds_h_seconds_bucket{le=\"+Inf\"} 1"),
            "{text}"
        );
        assert!(text.contains("pbds_h_seconds_count 1"), "{text}");
    }

    #[test]
    fn merged_snapshots_sum_counters_and_histograms() {
        let a = Registry::new();
        let b = Registry::new();
        a.counter("pbds_shared").add(2);
        b.counter("pbds_shared").add(3);
        b.counter("pbds_only_b").inc();
        a.histogram("pbds_vals").record(10);
        b.histogram("pbds_vals").record(20);
        let mut snap = a.snapshot();
        snap.merge(b.snapshot());
        assert_eq!(snap.counter("pbds_shared"), Some(5));
        assert_eq!(snap.counter("pbds_only_b"), Some(1));
        assert_eq!(snap.histogram("pbds_vals").unwrap().count(), 2);
    }

    #[test]
    fn empty_registered_histogram_still_renders() {
        let r = Registry::new();
        r.time_histogram("pbds_idle_seconds");
        let text = r.snapshot().render_text();
        assert!(text.contains("pbds_idle_seconds_count 0"), "{text}");
    }
}
