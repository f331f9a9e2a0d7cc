//! A minimal metrics registry: named counters, gauges, and log₂
//! histograms.
//!
//! Metric names are `&'static str` and sets are small (a node records a
//! few dozen metrics per run), so storage is an insertion-ordered vector
//! with linear lookup — no hashing, no allocation per update once a name
//! is registered, and deterministic rendering order for free.

/// A fixed-shape histogram over `u64` samples with power-of-two buckets:
/// bucket `i` counts samples whose value has `i` significant bits
/// (bucket 0 is the value `0`). 65 buckets cover the full `u64` range,
/// so recording never allocates and never saturates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        let bucket = 64 - value.leading_zeros() as usize; // 0 for value 0
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper-bound estimate of the `q`-quantile (0.0–1.0): the exclusive
    /// upper edge of the bucket holding the `⌈q·count⌉`-th sample.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return if i == 0 { 0 } else { (1u64 << (i - 1)).saturating_mul(2) - 1 };
            }
        }
        self.max
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// An insertion-ordered set of named counters, gauges, and histograms.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricSet {
    counters: Vec<(&'static str, u64)>,
    gauges: Vec<(&'static str, f64)>,
    histograms: Vec<(&'static str, Histogram)>,
}

impl MetricSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to the named counter, registering it at zero first if
    /// this is its first update.
    pub fn counter_add(&mut self, name: &'static str, delta: u64) {
        if let Some(slot) = self.counters.iter_mut().find(|(n, _)| *n == name) {
            slot.1 += delta;
        } else {
            self.counters.push((name, delta));
        }
    }

    /// Set the named gauge to `value` (last write wins).
    pub fn gauge_set(&mut self, name: &'static str, value: f64) {
        if let Some(slot) = self.gauges.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = value;
        } else {
            self.gauges.push((name, value));
        }
    }

    /// Raise the named gauge to `value` if it exceeds the current value
    /// (registering it otherwise) — for high-water marks recorded from
    /// several phases.
    pub fn gauge_max(&mut self, name: &'static str, value: f64) {
        if let Some(slot) = self.gauges.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = slot.1.max(value);
        } else {
            self.gauges.push((name, value));
        }
    }

    /// Record one sample into the named histogram.
    pub fn histogram_record(&mut self, name: &'static str, value: u64) {
        if let Some(slot) = self.histograms.iter_mut().find(|(n, _)| *n == name) {
            slot.1.record(value);
        } else {
            let mut h = Histogram::new();
            h.record(value);
            self.histograms.push((name, h));
        }
    }

    /// Current value of a counter (0 when never updated).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Current value of a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The named histogram, if any sample was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.iter().find(|(n, _)| *n == name).map(|(_, h)| h)
    }

    /// All counters in registration order.
    pub fn counters(&self) -> &[(&'static str, u64)] {
        &self.counters
    }

    /// All gauges in registration order.
    pub fn gauges(&self) -> &[(&'static str, f64)] {
        &self.gauges
    }

    /// All histograms in registration order.
    pub fn histograms(&self) -> &[(&'static str, Histogram)] {
        &self.histograms
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_magnitude() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 1000, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
        // 0 → bucket 0; 1 → bucket 1; 2,3 → bucket 2; 4 → bucket 3.
        assert_eq!(h.buckets[..4], [1, 1, 2, 1]);
    }

    #[test]
    fn histogram_quantiles_bracket_the_data() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert!(h.quantile(0.5) >= 50, "p50 {} below median", h.quantile(0.5));
        assert!(h.quantile(1.0) >= 100);
        assert_eq!(Histogram::new().quantile(0.5), 0);
    }

    #[test]
    fn histogram_merge_adds() {
        let mut a = Histogram::new();
        a.record(5);
        let mut b = Histogram::new();
        b.record(500);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.sum(), 505);
        assert_eq!(a.min(), 5);
        assert_eq!(a.max(), 500);
    }

    #[test]
    fn metric_set_registers_and_accumulates() {
        let mut m = MetricSet::new();
        m.counter_add("net.pages", 3);
        m.counter_add("net.pages", 2);
        m.gauge_set("occupancy", 0.5);
        m.gauge_set("occupancy", 0.75);
        m.gauge_max("peak", 4.0);
        m.gauge_max("peak", 2.0);
        assert_eq!(m.gauge("peak"), Some(4.0));
        m.histogram_record("probe_len", 1);
        m.histogram_record("probe_len", 9);
        assert_eq!(m.counter("net.pages"), 5);
        assert_eq!(m.counter("absent"), 0);
        assert_eq!(m.gauge("occupancy"), Some(0.75));
        assert_eq!(m.histogram("probe_len").unwrap().count(), 2);
        assert!(!m.is_empty());
    }
}
