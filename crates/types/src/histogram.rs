//! Latency-oriented [`Time`] statistics: exact percentiles and a
//! log-bucketed histogram for streaming aggregation.
//!
//! The serving simulator reports TTFT / time-between-tokens / query-latency
//! distributions. Per-request populations keep every sample and take exact
//! percentiles; high-volume streams (e.g. the serving report's per-token
//! cadence) go through [`TimeHistogram`], which buckets samples
//! logarithmically (~4% relative resolution) in memory bounded by the
//! occupied bucket span: one counter per bucket from the smallest to the
//! largest sample's.

use crate::units::Time;

/// Exact percentile over a set of [`Time`] samples.
///
/// `q` is in `[0, 1]`; uses the nearest-rank method on a sorted copy.
/// Returns [`Time::ZERO`] for an empty slice.
///
/// Sorts on every call; when several quantiles of the same population are
/// needed (a report's p50/p95/p99), build a [`SortedSamples`] once and read
/// them all from the same sorted slice.
pub fn percentile(samples: &[Time], q: f64) -> Time {
    SortedSamples::from_slice(samples).percentile(q)
}

/// A [`Time`] sample population sorted once at construction.
///
/// Every quantile read is then an index into the same sorted slice, so
/// summarising a metric at p50/p95/p99 costs one sort instead of one
/// clone-and-sort per quantile.
#[derive(Debug, Clone, Default)]
pub struct SortedSamples {
    sorted: Vec<Time>,
    sum_ps: u128,
}

impl SortedSamples {
    /// Takes ownership of `samples` and sorts them in place.
    pub fn new(mut samples: Vec<Time>) -> Self {
        samples.sort_unstable();
        let sum_ps = samples.iter().map(|t| u128::from(t.as_ps())).sum();
        SortedSamples { sorted: samples, sum_ps }
    }

    /// Copies and sorts a borrowed slice.
    pub fn from_slice(samples: &[Time]) -> Self {
        Self::new(samples.to_vec())
    }

    /// Nearest-rank percentile, `q` in `[0, 1]` ([`Time::ZERO`] if empty).
    pub fn percentile(&self, q: f64) -> Time {
        if self.sorted.is_empty() {
            return Time::ZERO;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.sorted.len() as f64).ceil() as usize)
            .clamp(1, self.sorted.len());
        self.sorted[rank - 1]
    }

    /// Arithmetic mean ([`Time::ZERO`] if empty).
    pub fn mean(&self) -> Time {
        if self.sorted.is_empty() {
            return Time::ZERO;
        }
        Time::from_ps((self.sum_ps / self.sorted.len() as u128) as u64)
    }

    /// Largest sample ([`Time::ZERO`] if empty).
    pub fn max(&self) -> Time {
        self.sorted.last().copied().unwrap_or(Time::ZERO)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the population is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }
}

/// Arithmetic mean of a set of [`Time`] samples ([`Time::ZERO`] if empty).
pub fn mean(samples: &[Time]) -> Time {
    if samples.is_empty() {
        return Time::ZERO;
    }
    let sum: u128 = samples.iter().map(|t| u128::from(t.as_ps())).sum();
    Time::from_ps((sum / samples.len() as u128) as u64)
}

/// Number of log-spaced buckets: 16 per octave across the full u64 range.
const SUB_BUCKETS: u64 = 16;
const BUCKETS: usize = 64 * SUB_BUCKETS as usize;

/// A histogram of [`Time`] samples with logarithmic buckets (16 sub-buckets
/// per power of two, ≲ 4.5% relative quantile error).
///
/// Only the occupied span of buckets is stored: the counters from the
/// lowest to the highest non-empty bucket, so a stream of one repeated
/// value costs one counter and an empty histogram allocates nothing. The
/// span is canonical (empty when there are no samples, non-zero at both
/// ends otherwise), so equality means "same samples per bucket".
#[derive(Clone, PartialEq, Eq)]
pub struct TimeHistogram {
    /// Bucket index of `counts[0]` (0 when empty).
    first: usize,
    /// Counters of buckets `first..first + counts.len()`.
    counts: Vec<u64>,
    total: u64,
    min: Time,
    max: Time,
    sum_ps: u128,
}

impl Default for TimeHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Prints the full 1024-bucket form, so the output does not depend on
/// which span a histogram happens to store.
impl core::fmt::Debug for TimeHistogram {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        struct Dense<'a>(&'a TimeHistogram);
        impl core::fmt::Debug for Dense<'_> {
            fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                let h = self.0;
                f.debug_list().entries((0..BUCKETS).map(|i| h.bucket_count(i))).finish()
            }
        }
        f.debug_struct("TimeHistogram")
            .field("counts", &Dense(self))
            .field("total", &self.total)
            .field("min", &self.min)
            .field("max", &self.max)
            .field("sum_ps", &self.sum_ps)
            .finish()
    }
}

impl TimeHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        TimeHistogram {
            first: 0,
            counts: Vec::new(),
            total: 0,
            min: Time::from_ps(u64::MAX),
            max: Time::ZERO,
            sum_ps: 0,
        }
    }

    fn bucket_of(ps: u64) -> usize {
        if ps < SUB_BUCKETS {
            return ps as usize;
        }
        // Octave = position of the leading bit; sub-bucket = next 4 bits.
        let octave = 63 - ps.leading_zeros() as u64;
        let sub = (ps >> (octave - 4)) & (SUB_BUCKETS - 1);
        ((octave - 4) * SUB_BUCKETS + SUB_BUCKETS + sub) as usize
    }

    /// Representative (upper-edge) value of bucket `i`.
    fn bucket_value(i: usize) -> u64 {
        let i = i as u64;
        if i < SUB_BUCKETS {
            return i;
        }
        let octave = (i - SUB_BUCKETS) / SUB_BUCKETS + 4;
        let sub = (i - SUB_BUCKETS) % SUB_BUCKETS;
        // Subtract before adding: the top bucket's edge is `u64::MAX`.
        (1u64 << octave) - 1 + (sub + 1) * (1u64 << (octave - 4))
    }

    /// Samples in bucket `i` (0 outside the stored span).
    fn bucket_count(&self, i: usize) -> u64 {
        i.checked_sub(self.first).and_then(|j| self.counts.get(j)).copied().unwrap_or(0)
    }

    /// Widens the stored span to cover buckets `lo..=hi` and returns the
    /// counters of exactly those buckets.
    fn span_mut(&mut self, lo: usize, hi: usize) -> &mut [u64] {
        if self.counts.is_empty() {
            self.first = lo;
            self.counts = vec![0; hi - lo + 1];
            return &mut self.counts;
        }
        if lo < self.first {
            let shift = self.first - lo;
            self.counts.splice(0..0, core::iter::repeat_n(0, shift));
            self.first = lo;
        }
        let end = hi + 1 - self.first;
        if end > self.counts.len() {
            self.counts.resize(end, 0);
        }
        &mut self.counts[lo - self.first..end]
    }

    /// Records one sample.
    pub fn record(&mut self, t: Time) {
        self.record_n(t, 1);
    }

    /// Records `n` identical samples in one update (used to weight a known
    /// repeat count, e.g. a constant token cadence repeated `decode - 1`
    /// times, without `n` bucket walks). A zero count is a no-op.
    pub fn record_n(&mut self, t: Time, n: u64) {
        if n == 0 {
            return;
        }
        let ps = t.as_ps();
        let b = Self::bucket_of(ps).min(BUCKETS - 1);
        self.span_mut(b, b)[0] += n;
        self.total += n;
        self.min = if t < self.min { t } else { self.min };
        self.max = self.max.max(t);
        self.sum_ps += u128::from(ps) * u128::from(n);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Smallest recorded sample ([`Time::ZERO`] if empty).
    pub fn min(&self) -> Time {
        if self.total == 0 {
            Time::ZERO
        } else {
            self.min
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> Time {
        self.max
    }

    /// Mean of the recorded samples (exact, not bucketed).
    pub fn mean(&self) -> Time {
        if self.total == 0 {
            return Time::ZERO;
        }
        Time::from_ps((self.sum_ps / u128::from(self.total)) as u64)
    }

    /// Approximate quantile `q` in `[0, 1]` (nearest-rank over buckets).
    ///
    /// The returned value is the upper edge of the bucket holding the rank,
    /// clamped to the observed min/max, so the error is bounded by the
    /// bucket width (≲ 4.5% relative).
    pub fn quantile(&self, q: f64) -> Time {
        if self.total == 0 {
            return Time::ZERO;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in (self.first..).zip(&self.counts) {
            seen += c;
            if seen >= rank {
                let v = Time::from_ps(Self::bucket_value(i));
                return core::cmp::min(v.max(self.min()), self.max);
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &TimeHistogram) {
        if other.total == 0 {
            return;
        }
        let hi = other.first + other.counts.len() - 1;
        for (a, b) in self.span_mut(other.first, hi).iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.min = if other.min < self.min { other.min } else { self.min };
        self.max = self.max.max(other.max);
        self.sum_ps += other.sum_ps;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_percentile_nearest_rank() {
        let samples: Vec<Time> = (1..=100).map(Time::from_ns).collect();
        assert_eq!(percentile(&samples, 0.50), Time::from_ns(50));
        assert_eq!(percentile(&samples, 0.95), Time::from_ns(95));
        assert_eq!(percentile(&samples, 0.99), Time::from_ns(99));
        assert_eq!(percentile(&samples, 1.0), Time::from_ns(100));
        assert_eq!(percentile(&[], 0.5), Time::ZERO);
    }

    #[test]
    fn sorted_samples_match_per_call_percentiles() {
        let samples: Vec<Time> = (1..=997).rev().map(Time::from_ns).collect();
        let sorted = SortedSamples::from_slice(&samples);
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(sorted.percentile(q), percentile(&samples, q), "q = {q}");
        }
        assert_eq!(sorted.mean(), mean(&samples));
        assert_eq!(sorted.max(), Time::from_ns(997));
        assert_eq!(sorted.len(), 997);
        let empty = SortedSamples::new(Vec::new());
        assert!(empty.is_empty());
        assert_eq!(empty.percentile(0.5), Time::ZERO);
        assert_eq!(empty.mean(), Time::ZERO);
        assert_eq!(empty.max(), Time::ZERO);
    }

    #[test]
    fn mean_of_samples() {
        let samples = [Time::from_ns(10), Time::from_ns(20), Time::from_ns(30)];
        assert_eq!(mean(&samples), Time::from_ns(20));
        assert_eq!(mean(&[]), Time::ZERO);
    }

    #[test]
    fn histogram_tracks_count_min_max_mean() {
        let mut h = TimeHistogram::new();
        assert_eq!(h.quantile(0.5), Time::ZERO);
        for ns in [5u64, 10, 15, 20] {
            h.record(Time::from_ns(ns));
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.min(), Time::from_ns(5));
        assert_eq!(h.max(), Time::from_ns(20));
        assert_eq!(h.mean(), Time::from_ps(12_500));
    }

    #[test]
    fn histogram_quantiles_are_within_bucket_error() {
        let mut h = TimeHistogram::new();
        let samples: Vec<Time> = (1..=10_000).map(Time::from_ns).collect();
        for &s in &samples {
            h.record(s);
        }
        for q in [0.5, 0.9, 0.95, 0.99] {
            let exact = percentile(&samples, q).as_ps() as f64;
            let approx = h.quantile(q).as_ps() as f64;
            let rel = (approx - exact).abs() / exact;
            assert!(rel < 0.05, "q{q}: exact {exact} approx {approx} rel {rel}");
        }
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut a = TimeHistogram::new();
        let mut b = TimeHistogram::new();
        for _ in 0..37 {
            a.record(Time::from_ns(250));
        }
        b.record_n(Time::from_ns(250), 37);
        b.record_n(Time::from_ns(999), 0); // no-op
        assert_eq!(a.count(), b.count());
        assert_eq!(a.mean(), b.mean());
        assert_eq!(a.min(), b.min());
        assert_eq!(a.max(), b.max());
        for q in [0.5, 0.99] {
            assert_eq!(a.quantile(q), b.quantile(q));
        }
    }

    #[test]
    fn histogram_merge_combines_streams() {
        let mut a = TimeHistogram::new();
        let mut b = TimeHistogram::new();
        for ns in 1..=50u64 {
            a.record(Time::from_ns(ns));
        }
        for ns in 51..=100u64 {
            b.record(Time::from_ns(ns));
        }
        a.merge(&b);
        assert_eq!(a.count(), 100);
        assert_eq!(a.min(), Time::from_ns(1));
        assert_eq!(a.max(), Time::from_ns(100));
        let median = a.quantile(0.5).as_ns();
        assert!((median - 50.0).abs() / 50.0 < 0.05, "median {median}");
    }

    #[test]
    fn histogram_merge_is_order_independent() {
        // The cluster simulator folds per-group histograms in group order;
        // bit-identity across thread counts needs merge to commute (and a
        // merged histogram to equal the directly-recorded population).
        let streams: Vec<Vec<u64>> =
            vec![vec![3, 17, 90], vec![], vec![1_000_000, 5], vec![42; 20]];
        let mut per_stream: Vec<TimeHistogram> = streams
            .iter()
            .map(|s| {
                let mut h = TimeHistogram::new();
                for &ns in s {
                    h.record(Time::from_ns(ns));
                }
                h
            })
            .collect();
        let mut forward = TimeHistogram::new();
        for h in &per_stream {
            forward.merge(h);
        }
        let mut backward = TimeHistogram::new();
        per_stream.reverse();
        for h in &per_stream {
            backward.merge(h);
        }
        let mut direct = TimeHistogram::new();
        for s in &streams {
            for &ns in s {
                direct.record(Time::from_ns(ns));
            }
        }
        assert_eq!(forward, backward);
        assert_eq!(forward, direct);
        // Merging an empty histogram is the identity.
        let before = forward.clone();
        forward.merge(&TimeHistogram::new());
        assert_eq!(forward, before);
    }

    /// The dense reference: all 1024 counters, recorded, merged and read
    /// the way the histogram did before it kept only its occupied span. The
    /// name matches so that the derived `Debug` prints the same header.
    mod dense {
        use super::{Time, BUCKETS};

        #[derive(Debug, Clone, PartialEq, Eq)]
        pub struct TimeHistogram {
            counts: Vec<u64>,
            total: u64,
            min: Time,
            max: Time,
            sum_ps: u128,
        }

        impl TimeHistogram {
            pub fn new() -> Self {
                TimeHistogram {
                    counts: vec![0; BUCKETS],
                    total: 0,
                    min: Time::from_ps(u64::MAX),
                    max: Time::ZERO,
                    sum_ps: 0,
                }
            }

            pub fn record_n(&mut self, t: Time, n: u64) {
                if n == 0 {
                    return;
                }
                let ps = t.as_ps();
                self.counts[super::TimeHistogram::bucket_of(ps).min(BUCKETS - 1)] += n;
                self.total += n;
                self.min = if t < self.min { t } else { self.min };
                self.max = self.max.max(t);
                self.sum_ps += u128::from(ps) * u128::from(n);
            }

            pub fn merge(&mut self, other: &TimeHistogram) {
                for (a, b) in self.counts.iter_mut().zip(&other.counts) {
                    *a += b;
                }
                self.total += other.total;
                if other.total > 0 {
                    self.min = if other.min < self.min { other.min } else { self.min };
                    self.max = self.max.max(other.max);
                }
                self.sum_ps += other.sum_ps;
            }

            pub fn count(&self) -> u64 {
                self.total
            }

            pub fn min(&self) -> Time {
                if self.total == 0 {
                    Time::ZERO
                } else {
                    self.min
                }
            }

            pub fn max(&self) -> Time {
                self.max
            }

            pub fn mean(&self) -> Time {
                if self.total == 0 {
                    return Time::ZERO;
                }
                Time::from_ps((self.sum_ps / u128::from(self.total)) as u64)
            }

            pub fn quantile(&self, q: f64) -> Time {
                if self.total == 0 {
                    return Time::ZERO;
                }
                let rank =
                    ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).clamp(1, self.total);
                let mut seen = 0u64;
                for (i, &c) in self.counts.iter().enumerate() {
                    seen += c;
                    if seen >= rank {
                        let v = Time::from_ps(super::TimeHistogram::bucket_value(i));
                        return core::cmp::min(v.max(self.min()), self.max);
                    }
                }
                self.max
            }
        }
    }

    /// A sample drawn across the whole bucket range: the 16 linear buckets,
    /// the log-spaced middle, and the top octaves up to `u64::MAX` (whose
    /// bucket, 975, is the highest any sample reaches: the clamp to the
    /// last of the 1024 buckets never binds, and the top edge is exactly
    /// `u64::MAX`).
    fn any_sample(rng: &mut crate::Rng64) -> Time {
        let ps = match rng.next_below(4) {
            0 => rng.next_below(SUB_BUCKETS),
            1 => {
                let bits = rng.next_below(64);
                (1u64 << bits) | (rng.next_u64() >> (64 - bits.max(1)))
            }
            2 => u64::MAX - rng.next_below(1 << 20) * (1 << 40),
            _ => 1_000_000 + rng.next_below(4_000_000),
        };
        Time::from_ps(ps)
    }

    /// Applies one random `record_n` (counts may be zero) or `merge` (of an
    /// empty or random histogram) to both representations; returns the
    /// samples it added.
    fn random_op(
        rng: &mut crate::Rng64,
        h: &mut TimeHistogram,
        d: &mut dense::TimeHistogram,
    ) -> Vec<(Time, u64)> {
        if rng.next_below(3) > 0 {
            let t = any_sample(rng);
            let n = [0, 1, 1, 2, 7, 1000][rng.next_below(6) as usize];
            h.record_n(t, n);
            d.record_n(t, n);
            return if n == 0 { Vec::new() } else { vec![(t, n)] };
        }
        let mut other = TimeHistogram::new();
        let mut other_dense = dense::TimeHistogram::new();
        let mut added = Vec::new();
        for _ in 0..rng.next_below(5) {
            added.extend(random_op(rng, &mut other, &mut other_dense));
        }
        h.merge(&other);
        d.merge(&other_dense);
        added
    }

    fn assert_matches(h: &TimeHistogram, d: &dense::TimeHistogram, rng: &mut crate::Rng64) {
        assert_eq!(h.count(), d.count());
        assert_eq!(h.min(), d.min());
        assert_eq!(h.max(), d.max());
        assert_eq!(h.mean(), d.mean());
        let fixed = [0.0, 1e-9, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0];
        for q in fixed.into_iter().chain((0..8).map(|_| rng.next_f64())) {
            assert_eq!(h.quantile(q), d.quantile(q), "q = {q}");
        }
        // Canonical span: empty, or non-zero at both ends.
        assert!(h.counts.is_empty() || (h.counts[0] > 0 && h.counts[h.counts.len() - 1] > 0));
    }

    #[test]
    fn span_histogram_matches_a_dense_reference() {
        for seed in 0..200 {
            let mut rng = crate::Rng64::seed(seed);
            let mut h = TimeHistogram::new();
            let mut d = dense::TimeHistogram::new();
            let mut samples = Vec::new();
            for _ in 0..rng.next_below(40) {
                samples.extend(random_op(&mut rng, &mut h, &mut d));
                assert_matches(&h, &d, &mut rng);
            }
            assert_eq!(format!("{h:?}"), format!("{d:?}"), "seed {seed}");
            // The same samples recorded in another order give an equal
            // histogram; one more sample gives an unequal one, in both
            // representations alike.
            let mut direct = TimeHistogram::new();
            for &(t, n) in samples.iter().rev() {
                direct.record_n(t, n);
            }
            assert_eq!(direct, h, "seed {seed}");
            let (mut more, mut more_dense) = (h.clone(), d.clone());
            let extra = any_sample(&mut rng);
            more.record(extra);
            more_dense.record_n(extra, 1);
            assert_ne!(more, h);
            assert_matches(&more, &more_dense, &mut rng);
            let mut other = TimeHistogram::new();
            let mut other_dense = dense::TimeHistogram::new();
            random_op(&mut rng, &mut other, &mut other_dense);
            assert_eq!(other == h, other_dense == d, "seed {seed}");
        }
        let mut h = TimeHistogram::new();
        let mut d = dense::TimeHistogram::new();
        assert_eq!(format!("{h:#?}"), format!("{d:#?}"));
        h.record_n(Time::from_ns(3), 5);
        d.record_n(Time::from_ns(3), 5);
        assert_eq!(format!("{h:#?}"), format!("{d:#?}"));
        assert_eq!(TimeHistogram::bucket_of(u64::MAX), 975);
        assert_eq!(TimeHistogram::bucket_value(975), u64::MAX);
    }

    #[test]
    fn bucket_mapping_is_monotone() {
        let mut last = 0;
        for ps in [0u64, 1, 15, 16, 17, 100, 1_000, 1 << 20, 1 << 40, u64::MAX / 2] {
            let b = TimeHistogram::bucket_of(ps);
            assert!(b >= last, "bucket({ps}) = {b} < {last}");
            last = b;
        }
    }
}
