//! Deterministic pseudo-random number generation for simulations.
//!
//! Every experiment in this repository must be reproducible from a seed, and
//! results must not shift when the `rand` crate revs its default generator.
//! `DetRng` is therefore a self-contained xoshiro256** implementation with
//! the distribution helpers the workload generators need (uniform ranges,
//! Bernoulli, exponential, Zipf, shuffles, weighted choice).

/// The splitmix64 golden-ratio increment.
const SPLITMIX_GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// The splitmix64 output (finalizer) function: a fixed bijective avalanche
/// over one 64-bit word. This is the single definition of the mixer — the
/// seed-derivation helpers below, [`DetRng::seed_from_u64`], and the
/// benchmark's workloads all route through it (the repo used to carry four
/// inlined copies that could drift independently).
pub fn splitmix64_mix(z: u64) -> u64 {
    let mut z = z;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One step of the splitmix64 generator: advances `state` by the golden
/// constant and returns the mixed output. Seeding a `DetRng` is four calls
/// to this with `state = seed`.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(SPLITMIX_GOLDEN);
    splitmix64_mix(*state)
}

/// Derives an independent substream seed from a base seed and a stream
/// index (splitmix64 over `base ^ golden·(index+1)`). Two distinct indices
/// give statistically unrelated streams, and the result is a pure function
/// of `(base, index)` — the property the sharded DITL generator and the
/// parallel sweep executor both build their determinism arguments on.
pub fn substream_seed(base: u64, index: u64) -> u64 {
    splitmix64_mix(base ^ index.wrapping_add(1).wrapping_mul(SPLITMIX_GOLDEN))
}

/// xoshiro256** — a small, fast, high-quality PRNG (Blackman & Vigna).
#[derive(Clone, Debug)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Seeds the generator from a single `u64` via SplitMix64, which is the
    /// recommended seeding procedure for the xoshiro family.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || splitmix64(&mut sm);
        DetRng { s: [next(), next(), next(), next()] }
    }

    /// The raw xoshiro256** state words, in order. Canonical-state digests
    /// include these so that two interleavings are only merged when their
    /// future randomness agrees too.
    pub fn state_words(&self) -> [u64; 4] {
        self.s
    }

    /// Derives an independent child generator; used to give each simulated
    /// resolver / experiment arm its own stream without cross-correlation.
    pub fn fork(&mut self, label: u64) -> Self {
        let a = self.next_u64();
        Self::seed_from_u64(a ^ label.wrapping_mul(0x9e3779b97f4a7c15))
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `u32`.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 significant bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`. Panics if `bound == 0`.
    ///
    /// Uses Lemire's multiply-shift rejection method to avoid modulo bias.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0)");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range");
        if lo == 0 && hi == u64::MAX {
            return self.next_u64();
        }
        lo + self.below(hi - lo + 1)
    }

    /// Uniform `usize` index into a slice of length `len`.
    pub fn index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0,1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Exponentially distributed value with mean `mean`.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u = loop {
            let u = self.next_f64();
            if u > 0.0 {
                break u;
            }
        };
        -mean * u.ln()
    }

    /// Pareto-distributed value with scale `xm` and shape `alpha`.
    pub fn pareto(&mut self, xm: f64, alpha: f64) -> f64 {
        let u = loop {
            let u = self.next_f64();
            if u > 0.0 {
                break u;
            }
        };
        xm / u.powf(1.0 / alpha)
    }

    /// In-place Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Picks an index according to non-negative `weights`. Panics if all
    /// weights are zero or the slice is empty.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weighted_index with zero total weight");
        let mut target = self.next_f64() * total;
        for (i, w) in weights.iter().enumerate() {
            if target < *w {
                return i;
            }
            target -= w;
        }
        weights.len() - 1
    }
}

/// Zipf(s) sampler over ranks `0..n` using a precomputed CDF.
///
/// TLD popularity at the roots is heavy-tailed: a handful of TLDs (`com`,
/// `net`, ...) dominate queries while most of the 1.5K TLDs are rare. The
/// DITL workload generator samples the queried TLD from this distribution.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds a sampler over `n` ranks with exponent `s` (s=1 is classic
    /// Zipf). Panics if `n == 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over empty support");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Self { cdf }
    }

    /// Number of ranks in the support.
    pub fn support(&self) -> usize {
        self.cdf.len()
    }

    /// Samples a rank in `0..n`; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut DetRng) -> usize {
        let u = rng.next_f64();
        match self.cdf.binary_search_by(|probe| probe.partial_cmp(&u).unwrap()) {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }

    /// Probability mass of rank `k`.
    pub fn pmf(&self, k: usize) -> f64 {
        if k == 0 {
            self.cdf[0]
        } else {
            self.cdf[k] - self.cdf[k - 1]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn substream_seed_outputs_are_pinned() {
        // Golden values. Every sharded generator and parallel sweep derives
        // its per-stream seeds from this function; if any of these change,
        // previously recorded experiment reports stop reproducing.
        assert_eq!(substream_seed(0, 0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(substream_seed(0, 1), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(substream_seed(0xb0075, 0), 0x861b_b821_c3cb_3dd6);
        assert_eq!(substream_seed(0xb0075, 1), 0xf0ff_4bdb_c804_bda5);
        assert_eq!(substream_seed(0xdead_beef, 7), 0x5ee8_3a5d_75ca_7bcd);
        // substream_seed(0, 0) is exactly the first output of the reference
        // splitmix64 stream from seed 0 (state already advanced by golden).
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), substream_seed(0, 0));
    }

    #[test]
    fn seeding_matches_reference_splitmix_stream() {
        let mut sm = 42u64;
        let expect = [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)];
        assert_eq!(DetRng::seed_from_u64(42).state_words(), expect);
    }

    #[test]
    fn substream_seeds_differ_and_are_stable() {
        let a = substream_seed(0xb0075, 0);
        let b = substream_seed(0xb0075, 1);
        assert_ne!(a, b);
        assert_eq!(a, substream_seed(0xb0075, 0), "pure function of (base, index)");
        assert_ne!(substream_seed(0xb0075, 0), substream_seed(0xb0076, 0));
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = DetRng::seed_from_u64(42);
        let mut b = DetRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::seed_from_u64(1);
        let mut b = DetRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = DetRng::seed_from_u64(7);
        for bound in [1u64, 2, 3, 10, 1000, u64::MAX / 2] {
            for _ in 0..200 {
                assert!(rng.below(bound) < bound);
            }
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut rng = DetRng::seed_from_u64(9);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[rng.below(10) as usize] += 1;
        }
        for c in counts {
            assert!((8_500..11_500).contains(&c), "bucket count {c} out of range");
        }
    }

    #[test]
    fn range_inclusive_hits_endpoints() {
        let mut rng = DetRng::seed_from_u64(3);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..1000 {
            match rng.range_inclusive(5, 8) {
                5 => saw_lo = true,
                8 => saw_hi = true,
                6 | 7 => {}
                other => panic!("out of range: {other}"),
            }
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = DetRng::seed_from_u64(11);
        for _ in 0..100 {
            assert!(!rng.chance(0.0));
            assert!(rng.chance(1.0));
        }
    }

    #[test]
    fn exponential_mean_close() {
        let mut rng = DetRng::seed_from_u64(13);
        let n = 50_000;
        let sum: f64 = (0..n).map(|_| rng.exponential(4.0)).sum();
        let mean = sum / n as f64;
        assert!((3.8..4.2).contains(&mean), "mean {mean}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = DetRng::seed_from_u64(5);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "shuffle left input ordered");
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = DetRng::seed_from_u64(17);
        let weights = [0.0, 9.0, 1.0];
        let mut counts = [0u32; 3];
        for _ in 0..10_000 {
            counts[rng.weighted_index(&weights)] += 1;
        }
        assert_eq!(counts[0], 0);
        assert!(counts[1] > counts[2] * 5);
    }

    #[test]
    fn zipf_rank0_dominates() {
        let z = Zipf::new(1000, 1.0);
        let mut rng = DetRng::seed_from_u64(19);
        let mut rank0 = 0;
        let n = 20_000;
        for _ in 0..n {
            if z.sample(&mut rng) == 0 {
                rank0 += 1;
            }
        }
        // For Zipf(1.0) over 1000 ranks, p(0) ≈ 1/H_1000 ≈ 0.1337.
        let frac = rank0 as f64 / n as f64;
        assert!((0.11..0.16).contains(&frac), "rank0 fraction {frac}");
    }

    #[test]
    fn zipf_pmf_sums_to_one() {
        let z = Zipf::new(50, 1.2);
        let total: f64 = (0..50).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut parent = DetRng::seed_from_u64(23);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        let matches = (0..64).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert_eq!(matches, 0);
    }
}
