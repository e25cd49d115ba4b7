//! Sample statistics, hashing and the benchmark's own seeded RNG.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it. `None` when empty.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median and quartile cut points `[q1, median, q3]`, computed exactly
/// like Python's `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method), so spreads printed here match any script that
/// checks them. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld < 2 {
        let v = data.first().copied().unwrap_or(f64::NAN);
        return [v, v, v];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Values per storage chunk of [`Samples`].
const CHUNK: usize = 8192;

/// Samples of one quantity, kept whole so every
/// quantile is exact. Storage grows in fixed chunks rather than by
/// doubling, so the benchmark's own bookkeeping moves the heap metric
/// in proportion to the samples taken, never by a sudden doubling.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    chunks: Vec<Vec<f64>>,
}

impl Samples {
    pub fn push(&mut self, v: f64) {
        match self.chunks.last_mut() {
            Some(c) if c.len() < CHUNK => c.push(v),
            _ => {
                let mut c = Vec::with_capacity(CHUNK);
                c.push(v);
                self.chunks.push(c);
            }
        }
    }

    fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.chunks.iter().flatten().copied()
    }

    pub fn len(&self) -> usize {
        self.chunks.iter().map(Vec::len).sum()
    }

    pub fn sum(&self) -> f64 {
        self.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        match self.len() {
            0 => 0.0,
            n => self.sum() / n as f64,
        }
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.iter().collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Nearest-rank quantile; 0 when there are no samples (a layer the
    /// workload never exercised).
    pub fn quantile(&self, q: f64) -> f64 {
        percentile(&self.sorted(), q).unwrap_or(0.0)
    }

    pub fn extend(&mut self, other: &Samples) {
        for v in other.iter() {
            self.push(v);
        }
    }
}

/// Count, mean and maximum of a gauge sampled many times, in constant
/// memory.
#[derive(Debug, Default, Clone, Copy)]
pub struct Gauge {
    count: u64,
    sum: f64,
    max: f64,
}

impl Gauge {
    pub fn record(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    pub fn merge(&mut self, other: Gauge) {
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    pub fn max(&self) -> f64 {
        self.max
    }
}

/// FNV-1a, folded over as many byte slices as the caller feeds it — the
/// result digests in `run.json`.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// splitmix64: the query mix and every other benchmark-side random choice
/// come from this, so a seed fixes the whole run's inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&[], 0.5), None);
        let mut s = Samples::default();
        for x in v {
            s.push(x);
        }
        assert_eq!(s.quantile(0.99), 99.0);
        assert_eq!(s.len(), 100);
    }

    #[test]
    fn samples_span_storage_chunks() {
        let mut s = Samples::default();
        let n = 2 * CHUNK + 5;
        for i in (0..n).rev() {
            s.push(i as f64);
        }
        assert_eq!(s.len(), n);
        assert_eq!(s.quantile(1.0), (n - 1) as f64);
        assert_eq!(s.sum(), (n * (n - 1) / 2) as f64);
    }
}
