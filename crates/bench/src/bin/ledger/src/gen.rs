//! Seeded input generation: a small PRNG, a Zipf sampler, and the hash
//! the op-stream determinism tests compare.
//!
//! Everything a workload feeds the engine derives from `--seed` through
//! these; the engine itself only ever sees generated SQL text and bound
//! values.

/// SplitMix64: tiny, fast, and good enough to drive a workload mix.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// An independent stream for sub-generator `lane` of the same seed
    /// (one per client, one per table, ...).
    pub fn fork(seed: u64, lane: u64) -> Rng {
        Rng::new(mix(seed ^ mix(lane.wrapping_add(1))))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        // Multiply-shift: unbiased enough for n ≪ 2^64.
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// The SplitMix64 finalizer, also used as a stateless hash of ids.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Zipf-distributed ranks in `[0, n)` (rank 0 hottest), after Gray et
/// al., "Quickly generating billion-record synthetic databases" — the
/// sampler YCSB uses. Set-up is O(n); a draw is O(1).
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Zipf {
        assert!(n >= 2 && theta > 0.0 && theta < 1.0);
        let zetan: f64 = (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        let zeta2 = 1.0 + 0.5f64.powf(theta);
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n - 1)
    }
}

/// Exactly `total` class labels in the proportions of `weights`
/// (largest-remainder rounding), in seeded random order. Fixed counts —
/// not per-op coin flips — so two seeds run the same amount of each
/// class and differ only in order and literals.
pub fn class_stream(rng: &mut Rng, weights: &[u32], total: usize) -> Vec<u8> {
    let sum: u64 = weights.iter().map(|w| u64::from(*w)).sum();
    let mut counts: Vec<usize> = weights
        .iter()
        .map(|w| (total as u64 * u64::from(*w) / sum) as usize)
        .collect();
    let mut rem: Vec<(u64, usize)> = weights
        .iter()
        .enumerate()
        .map(|(i, w)| (total as u64 * u64::from(*w) % sum, i))
        .collect();
    rem.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let assigned: usize = counts.iter().sum();
    for (_, i) in rem.into_iter().take(total - assigned) {
        counts[i] += 1;
    }
    let mut out = Vec::with_capacity(total);
    for (class, n) in counts.into_iter().enumerate() {
        out.extend(std::iter::repeat_n(class as u8, n));
    }
    rng.shuffle(&mut out);
    out
}

/// FNV-1a, folded over whatever identifies an op stream.
#[derive(Clone, Copy)]
pub struct StreamHash(pub u64);

impl Default for StreamHash {
    fn default() -> Self {
        StreamHash(0xCBF2_9CE4_8422_2325)
    }
}

impl StreamHash {
    pub fn bytes(&mut self, b: &[u8]) {
        for x in b {
            self.0 = (self.0 ^ u64::from(*x)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_seed_sensitive() {
        let a: Vec<u64> = (0..8)
            .map(|_| 0)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..8)
            .map(|_| 0)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..8)
            .map(|_| 0)
            .scan(Rng::new(8), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn below_and_unit_stay_in_range() {
        let mut r = Rng::new(1);
        for n in [1u64, 2, 3, 100, 1 << 40] {
            for _ in 0..1000 {
                assert!(r.below(n) < n);
            }
        }
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn zipf_stays_in_bounds_and_is_skewed() {
        let n = 10_000;
        let z = Zipf::new(n, 0.99);
        let mut r = Rng::new(3);
        let mut hot = 0;
        let draws = 50_000;
        for _ in 0..draws {
            let k = z.sample(&mut r);
            assert!(k < n);
            if k < n / 100 {
                hot += 1;
            }
        }
        // Under Zipf(0.99) the hottest 1 % of keys draws far more than
        // 1 % of accesses (≈ half at this n).
        assert!(hot > draws / 4, "hot share {hot}/{draws}");
    }

    #[test]
    fn class_stream_has_exact_counts() {
        let mut r = Rng::new(9);
        let s = class_stream(&mut r, &[80, 15, 5], 1000);
        assert_eq!(s.len(), 1000);
        for (class, want) in [(0u8, 800), (1, 150), (2, 50)] {
            assert_eq!(s.iter().filter(|c| **c == class).count(), want);
        }
        // Rounding: the counts still sum to the total.
        let s = class_stream(&mut r, &[1, 1, 1], 100);
        assert_eq!(s.len(), 100);
    }
}
