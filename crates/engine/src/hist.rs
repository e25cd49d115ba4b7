//! Fixed-bucket log-linear latency histogram — the step-latency surface
//! behind [`crate::EngineStats`].
//!
//! A histogram because a single `last_step_ns` gauge cannot answer the
//! question a soak run asks ("what did the *slow* steps look like?").
//! Log-linear (HdrHistogram-style) rather than plain log2 buckets: each
//! power-of-two octave is split into `SUB_COUNT` equal sub-buckets, so
//! the quantile walk's relative error drops from 2× to 1/8 = 12.5%.
//! Plain log2 buckets saturated in practice — every soak configuration
//! reported the identical p50/p99 ceilings because whole milliseconds
//! of spread landed in one bucket. The array stays fixed-size and
//! mergeable: shard aggregation is still an element-wise sum.

/// Sub-bucket resolution: each octave is split into `2^SUB_BITS` linear
/// slices.
const SUB_BITS: u32 = 3;

/// Sub-buckets per octave (8): the quantile ceiling is at most 12.5%
/// above the true sample value.
const SUB_COUNT: usize = 1 << SUB_BITS;

/// Octaves covered above the linear range, matching the old log2
/// layout's span: the top bucket's ceiling stays `2^40 - 1` ns ≈ 18
/// minutes, anything slower clamps into it.
const OCTAVES: usize = 40 - SUB_BITS as usize;

/// Total bucket count: values below `2^SUB_BITS` get one exact (width-1)
/// bucket each, then `OCTAVES` octaves × `SUB_COUNT` sub-buckets.
pub const HIST_BUCKETS: usize = SUB_COUNT + OCTAVES * SUB_COUNT;

/// A point-in-time latency histogram plus a `shed` counter for work that
/// never reached the solver (snapshots rejected by a full queue — they
/// have no latency to record, but a load test must still see them).
///
/// `[u64; HIST_BUCKETS]` has no `Default` impl (the standard library
/// only provides one up to length 32), hence the manual implementations
/// below — `EngineStats` keeps its plain `Default` derive through them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; HIST_BUCKETS],
    shed: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Self {
            buckets: [0; HIST_BUCKETS],
            shed: 0,
        }
    }

    /// Rebuilds a histogram from raw parts (the wire codec's decode
    /// path). `buckets` shorter than [`HIST_BUCKETS`] zero-fill the tail;
    /// longer inputs clamp their excess into the last bucket so counts
    /// are never silently lost across a bucket-width revision.
    pub fn from_parts(buckets: &[u64], shed: u64) -> Self {
        let mut h = Self::new();
        for (i, &b) in buckets.iter().enumerate() {
            h.buckets[i.min(HIST_BUCKETS - 1)] += b;
        }
        h.shed = shed;
        h
    }

    /// The bucket index a nanosecond sample lands in: exact below
    /// `SUB_COUNT`, then octave `o = floor(log2 ns)` sliced into
    /// `SUB_COUNT` equal sub-buckets by the bits just under the
    /// leading one.
    pub(crate) fn bucket_index(ns: u64) -> usize {
        if ns < SUB_COUNT as u64 {
            return ns as usize;
        }
        let o = 63 - ns.leading_zeros() as usize;
        let g = o - SUB_BITS as usize;
        if g >= OCTAVES {
            return HIST_BUCKETS - 1;
        }
        let sub = (ns >> g) as usize - SUB_COUNT;
        SUB_COUNT + g * SUB_COUNT + sub
    }

    /// The inclusive upper bound (in nanoseconds) of bucket `i` — what
    /// the quantile accessors report.
    pub(crate) fn bucket_ceiling(i: usize) -> u64 {
        let i = i.min(HIST_BUCKETS - 1);
        if i < SUB_COUNT {
            return i as u64;
        }
        let g = (i - SUB_COUNT) / SUB_COUNT;
        let sub = (i - SUB_COUNT) % SUB_COUNT;
        (((SUB_COUNT + sub + 1) as u64) << g) - 1
    }

    /// Records one step-latency sample.
    pub fn record(&mut self, ns: u64) {
        self.buckets[Self::bucket_index(ns)] += 1;
    }

    /// Records `n` snapshots shed before reaching the solver.
    pub fn add_shed(&mut self, n: u64) {
        self.shed += n;
    }

    /// The raw per-bucket counts.
    pub fn buckets(&self) -> &[u64; HIST_BUCKETS] {
        &self.buckets
    }

    /// Total recorded samples (sheds excluded — they never ran).
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Snapshots shed before reaching the solver (full-queue rejections).
    pub fn shed(&self) -> u64 {
        self.shed
    }

    /// Whether no sample has been recorded yet.
    pub(crate) fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// The latency (bucket ceiling, ns) below which a fraction `q` of
    /// samples fall. Returns 0 on an empty histogram; `q` outside
    /// `[0, 1]` clamps.
    pub(crate) fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return Self::bucket_ceiling(i);
            }
        }
        Self::bucket_ceiling(HIST_BUCKETS - 1)
    }

    /// Like `LatencyHistogram::quantile`, but distinguishes "no
    /// samples yet" (`None`) from a genuine sub-2ns quantile — printers
    /// should show "n/a" rather than a fabricated 0ns latency.
    pub fn quantile_opt(&self, q: f64) -> Option<u64> {
        if self.is_empty() {
            None
        } else {
            Some(self.quantile(q))
        }
    }

    /// Median step latency (ns, bucket ceiling).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th-percentile step latency (ns, bucket ceiling).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th-percentile step latency (ns, bucket ceiling).
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Element-wise accumulation: buckets and sheds sum — the multi-shard
    /// merge (a fleet histogram is exactly the union of its shards'
    /// samples).
    pub fn merge(&self, other: &LatencyHistogram) -> LatencyHistogram {
        let mut out = *self;
        for (b, o) in out.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        out.shed += other.shed;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_exact_below_the_linear_cutoff() {
        for ns in 0..SUB_COUNT as u64 {
            assert_eq!(LatencyHistogram::bucket_index(ns), ns as usize);
            assert_eq!(LatencyHistogram::bucket_ceiling(ns as usize), ns);
        }
        // First log-linear bucket: exactly [8, 8].
        assert_eq!(LatencyHistogram::bucket_index(8), SUB_COUNT);
        assert_eq!(LatencyHistogram::bucket_ceiling(SUB_COUNT), 8);
        // Top of the covered range and beyond clamp into the last bucket.
        assert_eq!(
            LatencyHistogram::bucket_index((1 << 40) - 1),
            HIST_BUCKETS - 1
        );
        assert_eq!(LatencyHistogram::bucket_index(1 << 40), HIST_BUCKETS - 1);
        assert_eq!(LatencyHistogram::bucket_index(u64::MAX), HIST_BUCKETS - 1);
        assert_eq!(
            LatencyHistogram::bucket_ceiling(HIST_BUCKETS - 1),
            (1 << 40) - 1
        );
    }

    #[test]
    fn sub_buckets_bound_the_ceiling_error_to_an_eighth() {
        // The saturation the log2 layout had: milliseconds of spread in
        // one bucket. Log-linear keeps every reported ceiling within
        // 12.5% of the true sample.
        for &ns in &[
            9u64,
            100,
            1_000,
            65_000,
            1_000_000,
            2_100_000,
            3_900_000,
            8_300_000,
            123_456_789,
        ] {
            let ceiling = LatencyHistogram::bucket_ceiling(LatencyHistogram::bucket_index(ns));
            assert!(ceiling >= ns, "ceiling {ceiling} below sample {ns}");
            assert!(
                (ceiling as f64) < ns as f64 * (1.0 + 1.0 / SUB_COUNT as f64),
                "ceiling {ceiling} more than 12.5% above sample {ns}"
            );
        }
        // Same octave, different sub-buckets: 2.1ms and 3.9ms no longer
        // report the identical quantile ceiling.
        let a = LatencyHistogram::bucket_index(2_100_000);
        let b = LatencyHistogram::bucket_index(3_900_000);
        assert_ne!(a, b);
    }

    #[test]
    fn quantiles_walk_the_cumulative_counts() {
        let ceil = |ns| LatencyHistogram::bucket_ceiling(LatencyHistogram::bucket_index(ns));
        let mut h = LatencyHistogram::new();
        for _ in 0..98 {
            h.record(1_000); // ceiling 1023
        }
        h.record(1 << 20);
        h.record(1 << 30);
        assert_eq!(h.count(), 100);
        assert_eq!(h.p50(), ceil(1_000));
        assert_eq!(h.p50(), 1023);
        assert_eq!(h.p99(), ceil(1 << 20));
        assert_eq!(h.p999(), ceil(1 << 30));
        assert_eq!(h.quantile(1.0), ceil(1 << 30));
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::default();
        assert!(h.is_empty());
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p999(), 0);
        assert_eq!(h.shed(), 0);
        // The optional accessor makes "no samples" explicit instead of
        // conflating it with a measured 0ns quantile.
        assert_eq!(h.quantile_opt(0.5), None);
        assert_eq!(h.quantile_opt(0.999), None);
        let mut one = LatencyHistogram::new();
        one.record(1_000);
        assert_eq!(one.quantile_opt(0.5), Some(1023));
    }

    #[test]
    fn merge_sums_buckets_and_sheds() {
        let mut a = LatencyHistogram::new();
        a.record(10);
        a.add_shed(2);
        let mut b = LatencyHistogram::new();
        b.record(10);
        b.record(1 << 25);
        b.add_shed(1);
        let m = a.merge(&b);
        assert_eq!(m.count(), 3);
        assert_eq!(m.shed(), 3);
        assert_eq!(m.buckets()[LatencyHistogram::bucket_index(10)], 2);
    }

    #[test]
    fn from_parts_clamps_and_zero_fills() {
        let short = LatencyHistogram::from_parts(&[1, 2], 7);
        assert_eq!(short.buckets()[0], 1);
        assert_eq!(short.buckets()[1], 2);
        assert_eq!(short.count(), 3);
        assert_eq!(short.shed(), 7);
        let long = LatencyHistogram::from_parts(&vec![1; HIST_BUCKETS + 3], 0);
        assert_eq!(long.count(), (HIST_BUCKETS + 3) as u64);
        assert_eq!(long.buckets()[HIST_BUCKETS - 1], 4);
    }
}
