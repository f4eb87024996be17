//! Metrics: counters, gauges, log-2 histograms, and a named registry.
//! Interval deltas come from the interval profiler
//! ([`crate::profile`]), not from here.
//!
//! Histograms are power-of-two bucketed — the natural shape for the
//! quantities this repo cares about (migration inter-arrival distance,
//! filter dwell time, affinity-cache age-at-eviction), all of which
//! span many decades. Bucket 0 holds the value 0; bucket `k` (1..=64)
//! holds values in `[2^(k-1), 2^k)`.

/// Number of histogram buckets (value 0 + one per power of two).
pub const BUCKETS: usize = 65;

/// A log-2 bucketed histogram of `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: Box::new([0; BUCKETS]),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket index holding `value`.
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Largest value bucket `i` can hold (inclusive).
    pub fn bucket_upper(i: usize) -> u64 {
        assert!(i < BUCKETS, "bucket {i} out of range");
        if i == 0 {
            0
        } else if i == 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Records one sample.
    pub fn observe(&mut self, value: u64) {
        self.counts[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples (saturating).
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

    /// Largest sample, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// True when no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Per-bucket sample counts.
    pub fn bucket_counts(&self) -> &[u64; BUCKETS] {
        &self.counts
    }

    /// Upper bound (inclusive) of the bucket containing the
    /// `q`-quantile (`0.0..=1.0`); 0 when empty. Log-2 bucketing makes
    /// this exact to within a factor of two — plenty for dwell/distance
    /// distributions. The extremes are exact: `q ≤ 0` returns
    /// [`min`](Self::min) (not the first occupied bucket's upper
    /// bound), and answers never exceed [`max`](Self::max).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q <= 0.0 {
            return self.min();
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// A compact ASCII rendering: one line per non-empty bucket with a
    /// proportional bar. Used by `obs_report`.
    pub fn render(&self, width: usize) -> String {
        if self.count == 0 {
            return "  (empty)\n".to_string();
        }
        let peak = *self.counts.iter().max().unwrap();
        let mut out = String::new();
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let bar = "#".repeat(((c as f64 / peak as f64) * width as f64).ceil() as usize);
            let lo = if i == 0 { 0 } else { 1u64 << (i - 1) };
            out.push_str(&format!(
                "  [{:>12} .. {:>12}] {:>10}  {}\n",
                lo,
                Self::bucket_upper(i),
                c,
                bar
            ));
        }
        out.push_str(&format!(
            "  count {}  mean {:.1}  p50 {}  p99 {}  max {}\n",
            self.count,
            self.mean(),
            self.quantile(0.50),
            self.quantile(0.99),
            self.max()
        ));
        out
    }
}

/// A metric's value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonically increasing count.
    Counter(u64),
    /// Point-in-time measurement.
    Gauge(f64),
    /// Log-2 bucketed sample distribution.
    Histogram(Histogram),
}

/// A named collection of metrics, in registration order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    metrics: Vec<(String, MetricValue)>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn upsert(&mut self, name: &str, value: MetricValue) {
        match self.metrics.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v = value,
            None => self.metrics.push((name.to_string(), value)),
        }
    }

    /// Sets a counter.
    pub fn counter(&mut self, name: &str, value: u64) {
        self.upsert(name, MetricValue::Counter(value));
    }

    /// Sets a gauge.
    pub fn gauge(&mut self, name: &str, value: f64) {
        self.upsert(name, MetricValue::Gauge(value));
    }

    /// Registers a histogram (cloned).
    pub fn histogram(&mut self, name: &str, value: &Histogram) {
        self.upsert(name, MetricValue::Histogram(value.clone()));
    }

    /// Metric count.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// True when no metric is registered.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// All metrics, in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.metrics.iter().map(|(n, v)| (n.as_str(), v))
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// A counter's value, if `name` is a counter.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        match self.get(name) {
            Some(MetricValue::Counter(v)) => Some(*v),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(1023), 10);
        assert_eq!(Histogram::bucket_of(1024), 11);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        // Every bucket's upper bound maps back into it.
        for i in 0..BUCKETS {
            assert_eq!(
                Histogram::bucket_of(Histogram::bucket_upper(i)),
                i,
                "bucket {i}"
            );
        }
    }

    #[test]
    fn observe_accumulates() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        for v in [0, 1, 1, 5, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1007);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.bucket_counts()[0], 1); // 0
        assert_eq!(h.bucket_counts()[1], 2); // 1, 1
        assert_eq!(h.bucket_counts()[3], 1); // 5
        assert_eq!(h.bucket_counts()[10], 1); // 1000
    }

    #[test]
    fn quantiles_walk_buckets() {
        let mut h = Histogram::new();
        for _ in 0..90 {
            h.observe(10);
        }
        for _ in 0..10 {
            h.observe(100_000);
        }
        assert_eq!(h.quantile(0.5), 15, "p50 in the [8,16) bucket");
        assert!(h.quantile(0.99) >= 65_536, "p99 in the tail bucket");
        assert_eq!(h.quantile(1.0), h.max().min(Histogram::bucket_upper(17)));
        assert_eq!(Histogram::new().quantile(0.5), 0);
    }

    #[test]
    fn p0_is_the_exact_minimum() {
        let mut h = Histogram::new();
        // min is 9, inside the [8,16) bucket whose upper bound is 15:
        // p0 must report 9, not 15.
        for v in [9, 12, 1000] {
            h.observe(v);
        }
        assert_eq!(h.quantile(0.0), 9);
        assert_eq!(h.quantile(-1.0), 9, "q clamps from below");
        assert!(h.quantile(f64::EPSILON) >= h.min());
        assert_eq!(h.quantile(1.0), h.max());
    }

    #[test]
    fn quantile_edge_cases() {
        // Empty: every quantile is 0.
        let empty = Histogram::new();
        for q in [-1.0, 0.0, 0.5, 1.0, 2.0] {
            assert_eq!(empty.quantile(q), 0, "empty at q={q}");
        }
        // Single bucket: all quantiles collapse to it, exact at the
        // extremes.
        let mut single = Histogram::new();
        for _ in 0..10 {
            single.observe(5);
        }
        assert_eq!(single.quantile(0.0), 5);
        assert_eq!(single.quantile(0.5), 5, "bucket upper bound caps at max");
        assert_eq!(single.quantile(1.0), 5);
        // Saturated max bucket: u64::MAX lands in bucket 64 and must
        // not overflow the upper-bound computation.
        let mut sat = Histogram::new();
        sat.observe(u64::MAX);
        sat.observe(u64::MAX - 1);
        assert_eq!(sat.quantile(0.0), u64::MAX - 1);
        assert_eq!(sat.quantile(1.0), u64::MAX);
        assert_eq!(sat.max(), u64::MAX);
        assert_eq!(sat.sum(), u64::MAX, "sum saturates");
    }

    #[test]
    fn tail_quantiles_with_few_samples() {
        // One sample: every quantile is that sample — the p999 of a
        // span family that fired once must read as its only latency,
        // not its bucket's upper bound (1023 for a 700 ns sample).
        let mut one = Histogram::new();
        one.observe(700);
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(one.quantile(q), 700, "single sample at q={q}");
        }
        // Five samples with one far-tail outlier (the span-latency
        // shape): nearest-rank p999 lands on the outlier's bucket and
        // clamps to the exact maximum; p50 stays in the body.
        let mut h = Histogram::new();
        for v in [100, 110, 120, 130, 5_000] {
            h.observe(v);
        }
        assert_eq!(h.quantile(0.999), 5_000, "tail clamps to the exact max");
        assert_eq!(h.quantile(1.0), 5_000);
        assert_eq!(h.quantile(0.5), 127, "p50 is the body bucket's upper bound");
        assert!(
            h.quantile(0.99) <= h.quantile(0.999),
            "quantiles are monotone"
        );
        assert_eq!(h.quantile(0.0), 100, "q<=0 is the exact minimum");
        assert_eq!(h.quantile(-1.0), 100);
    }

    #[test]
    fn render_is_nonempty() {
        let mut h = Histogram::new();
        h.observe(2);
        h.observe(70);
        let r = h.render(20);
        assert!(r.contains("count 2"));
        assert!(r.contains('#'));
        assert!(Histogram::new().render(20).contains("empty"));
    }
}
