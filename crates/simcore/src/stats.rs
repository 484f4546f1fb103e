//! Summary statistics for experiment reporting.

use crate::time::Time;

/// Accumulates scalar samples and reports mean/percentiles.
///
/// Percentiles use the nearest-rank method on the sorted samples, matching
/// how datacenter transport papers report p99/p999 FCT slowdowns.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    samples: Vec<f64>,
    sorted: bool,
}

impl Summary {
    /// Empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one sample.
    pub fn add(&mut self, v: f64) {
        debug_assert!(v.is_finite(), "non-finite sample {v}");
        self.samples.push(v);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        // simlint::allow(float-order, reporting edge: samples Vec iterated in recorded order, never fed back into sim state)
        Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
    }

    /// Minimum sample.
    pub fn min(&self) -> Option<f64> {
        self.samples.iter().copied().reduce(f64::min)
    }

    /// Maximum sample.
    pub fn max(&self) -> Option<f64> {
        self.samples.iter().copied().reduce(f64::max)
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples
                .sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite samples"));
            self.sorted = true;
        }
    }

    /// Nearest-rank percentile, `p` in `[0, 100]`.
    pub fn percentile(&mut self, p: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let n = self.samples.len();
        let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
        Some(self.samples[rank - 1])
    }

    /// Median (p50).
    pub fn median(&mut self) -> Option<f64> {
        self.percentile(50.0)
    }

    /// p99.
    pub fn p99(&mut self) -> Option<f64> {
        self.percentile(99.0)
    }

    /// Borrow the raw samples.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Empirical CDF as `(value, cumulative_fraction)` points.
    pub fn cdf_points(&mut self, max_points: usize) -> Vec<(f64, f64)> {
        if self.samples.is_empty() {
            return Vec::new();
        }
        self.ensure_sorted();
        let n = self.samples.len();
        let step = (n / max_points.max(1)).max(1);
        let mut pts = Vec::new();
        let mut i = step - 1;
        while i < n {
            pts.push((self.samples[i], (i + 1) as f64 / n as f64));
            i += step;
        }
        if pts.last().map(|&(_, f)| f) != Some(1.0) {
            pts.push((self.samples[n - 1], 1.0));
        }
        pts
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Summary {
            samples: iter.into_iter().collect(),
            sorted: false,
        }
    }
}

/// Streaming quantile sketch over non-negative integer samples.
///
/// A DDSketch-style log-bucketed histogram specialized for deterministic
/// simulation: samples are `u64` (picosecond FCTs, milli-unit slowdowns),
/// buckets are fixed by value alone (no collapsing, no adaptive layout),
/// and all state is integer counts. Insertion is commutative and
/// associative, so the sketch state is bit-identical regardless of sample
/// arrival order.
///
/// Layout: values below `2^m` (m = [`QuantileSketch::SUB_BITS`] = 7) get
/// one exact bucket each. A value `v >= 2^m` with bit length `e+1` lands in
/// the bucket keyed by its top `m+1` bits, which spans
/// `[(128+sub) << (e-m), (129+sub) << (e-m))` — width `2^(e-m)` at
/// magnitude `>= 128 * 2^(e-m)`, so reporting the bucket midpoint
/// guarantees relative error at most `1/256` ([`QuantileSketch::REL_ERROR_INV`]).
///
/// Quantiles use the same nearest-rank convention as [`Summary`]: the
/// reported value is the midpoint of the bucket containing the sample of
/// rank `clamp(ceil(p/100 * n), 1, n)`.
#[derive(Clone, Debug, Default)]
pub struct QuantileSketch {
    /// Bucket counts over the window of buckets the samples touched:
    /// `counts[i]` is bucket `base + i`, from the lowest bucket touched to
    /// the highest (empty before the first sample). Samples that span a few
    /// decades hold a few hundred counters, not also every bucket below
    /// them (7,424 buckets for the full u64 range, ~58 KB).
    counts: Vec<u64>,
    /// Bucket index of `counts[0]`.
    base: usize,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl QuantileSketch {
    /// Sub-bucket resolution bits: each power-of-two decade is split into
    /// `2^SUB_BITS` buckets.
    pub const SUB_BITS: u32 = 7;
    /// Guaranteed relative error bound, as an inverse: the reported
    /// quantile `q` satisfies `|q - exact| * REL_ERROR_INV <= exact`.
    pub const REL_ERROR_INV: u64 = 1 << (Self::SUB_BITS + 1);

    const SUBS: u64 = 1 << Self::SUB_BITS;

    /// Empty sketch.
    pub fn new() -> Self {
        Self {
            counts: Vec::new(),
            base: 0,
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index for value `v`. Monotone in `v`.
    fn bucket(v: u64) -> usize {
        if v < Self::SUBS {
            return v as usize;
        }
        let e = 63 - v.leading_zeros() as u64; // >= SUB_BITS
        let shift = e - Self::SUB_BITS as u64;
        let sub = (v >> shift) & (Self::SUBS - 1);
        (Self::SUBS + shift * Self::SUBS + sub) as usize
    }

    /// Midpoint (representative value) of bucket `idx`.
    fn representative(idx: usize) -> u64 {
        let idx = idx as u64;
        if idx < Self::SUBS {
            return idx;
        }
        let b = idx - Self::SUBS;
        let shift = b / Self::SUBS;
        let sub = b % Self::SUBS;
        let lo = (Self::SUBS + sub) << shift;
        let width = 1u64 << shift;
        lo + width / 2
    }

    /// Add one sample.
    pub fn add(&mut self, v: u64) {
        let i = self.slot(Self::bucket(v));
        self.counts[i] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Widen the window to cover bucket `idx`; returns its index in
    /// `counts`.
    fn slot(&mut self, idx: usize) -> usize {
        if self.counts.is_empty() {
            self.base = idx;
            self.counts.push(0);
        } else if idx < self.base {
            let grow = self.base - idx;
            self.counts.resize(self.counts.len() + grow, 0);
            self.counts.rotate_right(grow);
            self.base = idx;
        } else if idx >= self.base + self.counts.len() {
            self.counts.resize(idx - self.base + 1, 0);
        }
        idx - self.base
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact arithmetic mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        Some(self.sum as f64 / self.count as f64)
    }

    /// Exact minimum sample.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact maximum sample.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Nearest-rank quantile, `p` in `[0, 100]`, within relative error
    /// `1 / REL_ERROR_INV` of the exact nearest-rank sample.
    pub fn quantile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let n = self.count;
        let rank = ((p / 100.0 * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::representative(self.base + i));
            }
        }
        // Unreachable when counts/count are consistent; return the max
        // bucket to stay total.
        Some(Self::representative(
            (self.base + self.counts.len()).saturating_sub(1),
        ))
    }

    /// Median (p50).
    pub fn median(&self) -> Option<u64> {
        self.quantile(50.0)
    }

    /// p99.
    pub fn p99(&self) -> Option<u64> {
        self.quantile(99.0)
    }

    /// Merge another sketch into this one; equivalent to having added all
    /// of `other`'s samples (commutative, associative).
    pub fn merge(&mut self, other: &QuantileSketch) {
        if !other.counts.is_empty() {
            // Widen the window to both ends of the other's.
            self.slot(other.base);
            self.slot(other.base + other.counts.len() - 1);
            let at = other.base - self.base;
            for (a, &b) in self.counts[at..].iter_mut().zip(&other.counts) {
                *a += b;
            }
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Order-independent fingerprint of the full sketch state, for
    /// bit-identity assertions across runs.
    pub fn fingerprint(&self) -> u64 {
        fn mix(mut x: u64) -> u64 {
            x ^= x >> 33;
            x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
            x ^= x >> 33;
            x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
            x ^ (x >> 33)
        }
        let mut h = mix(self.count ^ 0x9E37_79B9_7F4A_7C15);
        h = mix(h ^ self.sum as u64);
        h = mix(h ^ (self.sum >> 64) as u64);
        h = mix(h ^ self.min.wrapping_add(1));
        h = mix(h ^ self.max);
        for (i, &c) in self.counts.iter().enumerate() {
            if c != 0 {
                h = mix(h ^ ((self.base + i) as u64) << 40 ^ c);
            }
        }
        h
    }
}

/// A time series sampled at fixed intervals, used by rate/delay-over-time
/// figures (Fig 3, 8, 9, 10).
#[derive(Clone, Debug, Default)]
pub struct TimeSeries {
    /// Sample timestamps in microseconds.
    pub t_us: Vec<f64>,
    /// Sample values (unit depends on the series).
    pub v: Vec<f64>,
}

impl TimeSeries {
    /// Empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a point.
    pub fn push(&mut self, t: Time, v: f64) {
        self.t_us.push(t.as_us_f64());
        self.v.push(v);
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.v.len()
    }

    /// True when no points recorded.
    pub fn is_empty(&self) -> bool {
        self.v.is_empty()
    }

    /// Mean of values within a time window `[from, to)` (in µs).
    pub fn window_mean(&self, from_us: f64, to_us: f64) -> Option<f64> {
        let mut sum = 0.0;
        let mut n = 0usize;
        for (t, v) in self.t_us.iter().zip(&self.v) {
            if *t >= from_us && *t < to_us {
                sum += v;
                n += 1;
            }
        }
        if n == 0 {
            None
        } else {
            Some(sum / n as f64)
        }
    }

    /// Maximum value within a time window `[from, to)` (in µs).
    pub fn window_max(&self, from_us: f64, to_us: f64) -> Option<f64> {
        self.t_us
            .iter()
            .zip(&self.v)
            .filter(|(t, _)| **t >= from_us && **t < to_us)
            .map(|(_, v)| *v)
            .reduce(f64::max)
    }
}

/// Counts bytes observed over time to derive achieved throughput, bucketed
/// into fixed-width intervals.
#[derive(Clone, Debug)]
pub struct ThroughputMeter {
    bucket: Time,
    bytes: Vec<u64>,
}

impl ThroughputMeter {
    /// New meter with the given bucket width.
    pub fn new(bucket: Time) -> Self {
        assert!(bucket > Time::ZERO);
        ThroughputMeter {
            bucket,
            bytes: Vec::new(),
        }
    }

    /// Record `bytes` delivered at time `at`.
    pub fn record(&mut self, at: Time, bytes: u64) {
        let idx = (at.as_ps() / self.bucket.as_ps()) as usize;
        if idx >= self.bytes.len() {
            self.bytes.resize(idx + 1, 0);
        }
        self.bytes[idx] += bytes;
    }

    /// Produce a throughput time series in Gbit/s, one point per bucket
    /// (timestamped at the bucket midpoint).
    pub fn series_gbps(&self) -> TimeSeries {
        let mut s = TimeSeries::new();
        let bucket_s = self.bucket.as_secs_f64();
        for (i, &b) in self.bytes.iter().enumerate() {
            let mid = Time::from_ps(self.bucket.as_ps() * i as u64 + self.bucket.as_ps() / 2);
            s.push(mid, b as f64 * 8.0 / bucket_s / 1e9);
        }
        s
    }

    /// Total bytes recorded.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_percentiles() {
        let mut s = Summary::new();
        for i in 1..=100 {
            s.add(i as f64);
        }
        assert_eq!(s.mean(), Some(50.5));
        assert_eq!(s.percentile(50.0), Some(50.0));
        assert_eq!(s.p99(), Some(99.0));
        assert_eq!(s.percentile(100.0), Some(100.0));
        assert_eq!(s.percentile(1.0), Some(1.0));
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(100.0));
    }

    #[test]
    fn empty_summary_is_none() {
        let mut s = Summary::new();
        assert!(s.mean().is_none());
        assert!(s.percentile(99.0).is_none());
    }

    #[test]
    fn percentile_single_sample() {
        let mut s = Summary::new();
        s.add(7.0);
        assert_eq!(s.percentile(0.0), Some(7.0));
        assert_eq!(s.percentile(99.9), Some(7.0));
    }

    #[test]
    fn cdf_monotone_and_ends_at_one() {
        let mut s = Summary::new();
        for i in 0..1000 {
            s.add((i % 37) as f64);
        }
        let pts = s.cdf_points(50);
        for w in pts.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(pts.last().unwrap().1, 1.0);
    }

    #[test]
    fn throughput_meter_buckets() {
        let mut m = ThroughputMeter::new(Time::from_us(10));
        // 12.5 KB in first 10us bucket = 10 Gbps.
        m.record(Time::from_us(1), 6_250);
        m.record(Time::from_us(9), 6_250);
        m.record(Time::from_us(15), 12_500);
        let s = m.series_gbps();
        assert_eq!(s.len(), 2);
        assert!((s.v[0] - 10.0).abs() < 1e-9);
        assert!((s.v[1] - 10.0).abs() < 1e-9);
        assert_eq!(m.total_bytes(), 25_000);
    }

    #[test]
    fn sketch_exact_below_subs() {
        // Values below 2^SUB_BITS each get an exact bucket.
        let mut s = QuantileSketch::new();
        for v in 0..128u64 {
            s.add(v);
        }
        assert_eq!(s.count(), 128);
        assert_eq!(s.min(), Some(0));
        assert_eq!(s.max(), Some(127));
        assert_eq!(s.quantile(50.0), Some(63));
        assert_eq!(s.quantile(100.0), Some(127));
        assert_eq!(s.quantile(0.0), Some(0));
    }

    #[test]
    fn sketch_bucket_is_monotone_and_rep_in_range() {
        // Probe values across the full u64 range: the bucket index must be
        // monotone in the value, and the representative must sit within
        // the guaranteed relative-error band.
        let mut last_idx = 0usize;
        let mut v = 1u64;
        while v < u64::MAX / 3 {
            for probe in [v, v + v / 3, v.saturating_mul(2) - 1] {
                let idx = QuantileSketch::bucket(probe);
                assert!(idx >= last_idx || probe < v, "bucket not monotone");
                last_idx = last_idx.max(idx);
                let rep = QuantileSketch::representative(idx);
                let diff = rep.abs_diff(probe);
                assert!(
                    diff as u128 * QuantileSketch::REL_ERROR_INV as u128 <= probe as u128,
                    "rep {rep} too far from {probe}"
                );
            }
            v = v.saturating_mul(2);
        }
    }

    #[test]
    fn sketch_quantile_tracks_exact_oracle() {
        // Deterministic pseudo-random stream vs the exact sorted oracle.
        let mut s = QuantileSketch::new();
        let mut exact: Vec<u64> = Vec::new();
        let mut x = 0x1234_5678_9abc_def0u64;
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = x % 1_000_000_007;
            s.add(v);
            exact.push(v);
        }
        exact.sort_unstable();
        for p in [1.0, 25.0, 50.0, 90.0, 99.0, 99.9] {
            let n = exact.len();
            let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
            let want = exact[rank - 1];
            let got = s.quantile(p).unwrap();
            let diff = got.abs_diff(want);
            assert!(
                diff as u128 * QuantileSketch::REL_ERROR_INV as u128 <= want as u128,
                "p{p}: sketch {got} vs exact {want}"
            );
        }
    }

    #[test]
    fn sketch_merge_equals_combined_stream() {
        let mut a = QuantileSketch::new();
        let mut b = QuantileSketch::new();
        let mut all = QuantileSketch::new();
        for i in 0..500u64 {
            let v = i * i + 17;
            if i % 2 == 0 {
                a.add(v);
            } else {
                b.add(v);
            }
            all.add(v);
        }
        a.merge(&b);
        assert_eq!(a.fingerprint(), all.fingerprint());
        assert_eq!(a.count(), all.count());
        assert_eq!(a.quantile(99.0), all.quantile(99.0));
    }

    #[test]
    fn sketch_fingerprint_is_order_independent() {
        let vals: Vec<u64> = (0..1000u64)
            .map(|i| i.wrapping_mul(2654435761) % 77777)
            .collect();
        let mut fwd = QuantileSketch::new();
        let mut rev = QuantileSketch::new();
        for &v in &vals {
            fwd.add(v);
        }
        for &v in vals.iter().rev() {
            rev.add(v);
        }
        assert_eq!(fwd.fingerprint(), rev.fingerprint());
        // And sensitive to content.
        let mut other = fwd.clone();
        other.add(1);
        assert_ne!(fwd.fingerprint(), other.fingerprint());
    }

    #[test]
    fn sketch_empty_is_none() {
        let s = QuantileSketch::new();
        assert!(s.quantile(50.0).is_none());
        assert!(s.mean().is_none());
        assert!(s.min().is_none());
        assert!(s.max().is_none());
        assert!(s.is_empty());
    }

    fn mix(mut x: u64) -> u64 {
        x ^= x >> 33;
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^= x >> 33;
        x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        x ^ (x >> 33)
    }

    /// The dense layout the windowed sketch replaced — a counter for every
    /// bucket from 0 up to the highest touched — with its quantile walk
    /// and fingerprint: the reference the windowed layout must equal.
    #[derive(Clone)]
    struct Dense {
        counts: Vec<u64>,
        count: u64,
        sum: u128,
        min: u64,
        max: u64,
    }

    impl Dense {
        fn new() -> Self {
            Dense {
                counts: Vec::new(),
                count: 0,
                sum: 0,
                min: u64::MAX,
                max: 0,
            }
        }

        fn add(&mut self, v: u64) {
            let idx = QuantileSketch::bucket(v);
            if idx >= self.counts.len() {
                self.counts.resize(idx + 1, 0);
            }
            self.counts[idx] += 1;
            self.count += 1;
            self.sum += v as u128;
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }

        fn merge(&mut self, other: &Dense) {
            if other.counts.len() > self.counts.len() {
                self.counts.resize(other.counts.len(), 0);
            }
            for (a, &b) in self.counts.iter_mut().zip(&other.counts) {
                *a += b;
            }
            self.count += other.count;
            self.sum += other.sum;
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }

        fn quantile(&self, p: f64) -> Option<u64> {
            if self.count == 0 {
                return None;
            }
            let rank = ((p / 100.0 * self.count as f64).ceil() as u64).clamp(1, self.count);
            let mut seen = 0;
            let idx = self.counts.iter().position(|&c| {
                seen += c;
                seen >= rank
            })?;
            Some(QuantileSketch::representative(idx))
        }

        fn fingerprint(&self) -> u64 {
            let mut h = mix(self.count ^ 0x9E37_79B9_7F4A_7C15);
            h = mix(h ^ self.sum as u64);
            h = mix(h ^ (self.sum >> 64) as u64);
            h = mix(h ^ self.min.wrapping_add(1));
            h = mix(h ^ self.max);
            for (idx, &c) in self.counts.iter().enumerate() {
                if c != 0 {
                    h = mix(h ^ (idx as u64) << 40 ^ c);
                }
            }
            h
        }
    }

    /// The windowed sketch answers exactly as the dense layout did: random
    /// streams, each inside a random window of the u64 range, and merges
    /// of disjoint, overlapping and empty windows in two orders — every
    /// quantile, the count, the sum and the fingerprint, bit for bit.
    #[test]
    fn windowed_sketch_matches_the_dense_reference() {
        let mut rng = crate::SimRng::new(0x51E7C4);
        let check = |s: &QuantileSketch, d: &Dense, what: &str| {
            assert_eq!(s.fingerprint(), d.fingerprint(), "{what}: fingerprint");
            assert_eq!((s.count(), s.sum()), (d.count, d.sum), "{what}");
            for p in [
                0.0, 0.1, 1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0,
            ] {
                assert_eq!(s.quantile(p), d.quantile(p), "{what}: p{p}");
            }
        };
        let window = |s: &QuantileSketch| {
            Some((
                QuantileSketch::bucket(s.min()?),
                QuantileSketch::bucket(s.max()?),
            ))
        };
        // Merges seen: disjoint windows, overlapping ones, an empty side.
        let mut seen = [0; 3];
        for case in 0..256 {
            let parts: Vec<(QuantileSketch, Dense)> = (0..3)
                .map(|_| {
                    // `width` random bits shifted up by `shift`: a window of
                    // one to a few decades anywhere in the range.
                    let n = [0, 1, 7, 100, 1000][rng.choose_index(5)];
                    let shift = rng.below(56) as u32;
                    let width = 1 + rng.below(12) as u32;
                    let (mut s, mut d) = (QuantileSketch::new(), Dense::new());
                    for _ in 0..n {
                        let v = (rng.next() >> (64 - width)) << shift;
                        s.add(v);
                        d.add(v);
                    }
                    (s, d)
                })
                .collect();
            for (i, (s, d)) in parts.iter().enumerate() {
                check(s, d, &format!("case {case} part {i}"));
            }
            match (window(&parts[0].0), window(&parts[1].0)) {
                (Some(a), Some(b)) if a.1 < b.0 || b.1 < a.0 => seen[0] += 1,
                (Some(_), Some(_)) => seen[1] += 1,
                _ => seen[2] += 1,
            }
            let (mut s, mut d) = (QuantileSketch::new(), Dense::new());
            for (ps, pd) in &parts {
                s.merge(ps);
                d.merge(pd);
            }
            check(&s, &d, &format!("case {case}: all into an empty sketch"));
            let (mut s, mut d) = parts[1].clone();
            for (ps, pd) in [&parts[2], &parts[0]] {
                s.merge(ps);
                d.merge(pd);
            }
            check(&s, &d, &format!("case {case}: into the middle one"));
        }
        assert!(seen.iter().all(|&k| k > 0), "merge kinds seen: {seen:?}");
    }

    #[test]
    fn window_stats() {
        let mut ts = TimeSeries::new();
        ts.push(Time::from_us(1), 1.0);
        ts.push(Time::from_us(2), 3.0);
        ts.push(Time::from_us(10), 100.0);
        assert_eq!(ts.window_mean(0.0, 5.0), Some(2.0));
        assert_eq!(ts.window_max(0.0, 20.0), Some(100.0));
        assert_eq!(ts.window_mean(20.0, 30.0), None);
    }
}
