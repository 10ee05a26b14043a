//! Seeded, platform-stable randomness for the serving workload: a
//! SplitMix64 stream and an exact inverse-CDF zipfian sampler.
//!
//! Everything the load generator draws must be byte-reproducible on
//! every platform, so this module restricts itself to operations with
//! exactly specified results: integer arithmetic, and the IEEE 754
//! correctly-rounded float operations (`+`, `*`, `/`, `sqrt`). In
//! particular there is no `powf` (not correctly rounded, so different
//! libm versions could reshuffle the hot set) — which is why the zipf
//! exponent is restricted to multiples of 0.5: `r^s` then factors into
//! integer powers and one square root.
//!
//! A draw takes 53 random bits `k` to the point
//! `u = (k · 2^-53) · total` and returns the first rank whose
//! cumulative weight exceeds `u`. [`Zipf`] finds that rank through a
//! guide table instead of a binary search, and finds exactly the same
//! one: the scaling by 2^-53 is exact and a correctly rounded product
//! is monotone in its operand, so `u` never decreases as `k` grows.
//! The table entry of `k`'s bucket is the answer for the bucket's
//! smallest `k`, computed by the same expression, so it lies at or
//! before the answer for `k`, and the scan forward from it stops on
//! that answer. The scan never passes the last rank, because `u < total`
//! even at `k = 2^53 - 1`: there `u` rounds `total - total · 2^-53`,
//! and `total · 2^-53` exceeds half an ulp of `total` unless `total` is
//! a power of two, where the difference is itself a float.

use crate::params::ParamError;

/// SplitMix64: the 64-bit mixing generator. Tiny state, full period,
/// and — unlike library RNGs — a fixed algorithm this crate owns, so
/// committed baselines can never be invalidated by a dependency bump.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `0..n` (`n > 0`). Uses the high bits via a
    /// 128-bit multiply, so small moduli do not bias toward low values
    /// the way a plain `%` would.
    pub fn next_below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// 2^-53: scales 53 random bits into `[0, 1)` exactly.
const UNIT: f64 = 1.0 / (1u64 << 53) as f64;

/// The point a draw of 53 random bits `k` lands on in `[0, total)`.
/// Both the guide table and every draw go through this one expression:
/// the scaling is exact and the product rounds monotonically, so a
/// larger `k` never lands on a smaller point.
fn point(k: u64, total: f64) -> f64 {
    (k as f64 * UNIT) * total
}

/// The exponent `s` counted in half steps, if [`Zipf`] accepts it: a
/// non-negative multiple of 0.5 no larger than 4 (see the module docs
/// for why).
pub(crate) fn exponent_half_steps(s: f64) -> Result<u32, ParamError> {
    let half_steps = s * 2.0;
    if !(0.0..=8.0).contains(&half_steps) || half_steps.fract() != 0.0 {
        return Err(ParamError::BadZipfExponent { s });
    }
    Ok(half_steps as u32)
}

/// An exact zipfian sampler over ranks `0..n`: rank `r` is drawn with
/// probability proportional to `1 / (r+1)^s`. One draw consumes exactly
/// one `u64` of the stream regardless of the outcome (no rejection
/// loop) and lands on the first rank whose cumulative weight exceeds
/// the drawn point.
///
/// The rank is found by indexed search through a guide table (Chen &
/// Asau). The draw's 53 random bits `k` name a bucket, `k >> shift`,
/// one of `2^(⌈log2 n⌉ + 2)` equal ones. The table holds, per bucket,
/// the first rank whose cumulative weight exceeds the point of the
/// bucket's smallest `k`, and the draw scans forward from there — to
/// exactly the rank a binary search would return (module docs). With
/// at least four buckets per rank, few buckets hold a rank boundary,
/// so a draw averages little more than one compare.
#[derive(Clone, Debug)]
pub struct Zipf {
    /// Cumulative weights; `cum[r]` is the total mass of ranks `0..=r`.
    /// One `INFINITY` sentinel follows them: no draw's scan reaches it
    /// (module docs), and one that did would stop there.
    cum: Vec<f64>,
    /// Total mass, `cum[n - 1]`.
    total: f64,
    /// `guide[j]`: the first rank whose cumulative weight exceeds
    /// `point(j << shift, total)`.
    guide: Vec<u32>,
    /// A draw's bucket is `k >> shift`.
    shift: u32,
}

impl Zipf {
    /// A sampler over `n` ranks with exponent `s`. `s` must be a
    /// non-negative multiple of 0.5 no larger than 4 (see the module
    /// docs for why), and `n` must be positive and fit the guide
    /// table's `u32` ranks.
    pub fn new(n: usize, s: f64) -> Result<Zipf, ParamError> {
        if n == 0 {
            return Err(ParamError::EmptyDomain { what: "zipf rank count" });
        }
        let half_steps = exponent_half_steps(s)?;
        if u32::try_from(n).is_err() {
            return Err(ParamError::Exceeds {
                what: "zipf rank count",
                got: n,
                limit: u32::MAX as usize,
                bound: "the guide table's rank width",
            });
        }
        let mut cum = Vec::with_capacity(n + 1);
        let mut total = 0.0f64;
        for r in 1..=n as u64 {
            // r^s via integer powers and one sqrt: all exactly rounded.
            let mut w = 1.0f64;
            for _ in 0..half_steps / 2 {
                w *= r as f64;
            }
            if half_steps % 2 == 1 {
                w *= (r as f64).sqrt();
            }
            total += 1.0 / w;
            cum.push(total);
        }
        cum.push(f64::INFINITY);
        // ⌈log2 n⌉ + 2 bucket bits: at least 4n buckets. One merge
        // fills the table, since bucket floors rise with `j`.
        let bits = n.next_power_of_two().trailing_zeros() + 2;
        let shift = 53 - bits;
        let mut guide = Vec::with_capacity(1 << bits);
        let mut r = 0;
        for j in 0..1u64 << bits {
            let lo = point(j << shift, total);
            while cum[r] <= lo {
                r += 1;
            }
            guide.push(r as u32);
        }
        Ok(Zipf { cum, total, guide, shift })
    }

    /// Draws one rank in `0..n`.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        self.rank_of(rng.next_u64() >> 11)
    }

    /// The rank that the 53 random bits `k` draw.
    fn rank_of(&self, k: u64) -> usize {
        let u = point(k, self.total);
        let mut r = self.guide[(k >> self.shift) as usize] as usize;
        while self.cum[r] <= u {
            r += 1;
        }
        r.min(self.len() - 1)
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cum.len() - 1
    }

    /// True when the sampler has no ranks (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Scale, ServeParams};

    /// Every exponent [`Zipf::new`] accepts.
    const EXPONENTS: [f64; 9] = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0];
    /// Rank counts: the smallest, small odd ones, the spans of 4096 keys
    /// split among three tenants (the host-time benchmark's serving
    /// workloads), and a power of two.
    const SIZES: [usize; 7] = [1, 2, 3, 7, 1365, 1366, 4096];
    /// One past the largest draw: 53 random bits.
    const DRAWS: u64 = 1 << 53;

    /// Every legal sampler this module's exactness tests cover.
    fn samplers() -> impl Iterator<Item = (String, Zipf)> {
        EXPONENTS.into_iter().flat_map(|s| {
            SIZES.into_iter().map(move |n| (format!("n={n} s={s}"), Zipf::new(n, s).unwrap()))
        })
    }

    /// The first rank whose cumulative weight exceeds `u`, unclamped.
    fn first_above(z: &Zipf, u: f64) -> usize {
        z.cum.partition_point(|&c| c <= u)
    }

    /// The binary search the guide table replaced, kept as the
    /// reference every draw is compared against.
    fn reference_rank(z: &Zipf, k: u64) -> usize {
        let u = point(k, z.total);
        // First rank whose cumulative weight exceeds the draw.
        z.cum.partition_point(|&c| c <= u).min(z.len() - 1)
    }

    /// Compares the scan of the draw `k` makes: one per rank it steps
    /// past, plus the one that stops it.
    fn scan_compares(z: &Zipf, k: u64) -> usize {
        first_above(z, point(k, z.total)) - z.guide[(k >> z.shift) as usize] as usize + 1
    }

    /// The largest draw whose point does not exceed `c`: the last draw
    /// before the reference rank steps past a weight equal to `c`.
    fn last_draw_at_or_below(z: &Zipf, c: f64) -> u64 {
        let (mut lo, mut hi) = (0u64, DRAWS);
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if point(mid, z.total) <= c {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    #[test]
    fn guide_entries_are_the_reference_rank_of_each_bucket_floor() {
        for (label, z) in samplers() {
            let n = z.len();
            assert!(z.guide.len() >= 4 * n && z.guide.len() < 8 * n.max(2), "{label}");
            assert_eq!(z.guide.len() as u64, DRAWS >> z.shift, "{label}");
            for (j, &g) in z.guide.iter().enumerate() {
                let lo = point((j as u64) << z.shift, z.total);
                assert_eq!(g as usize, first_above(&z, lo), "{label} bucket {j}");
            }
        }
    }

    #[test]
    fn chosen_draws_match_the_binary_search() {
        for (label, z) in samplers() {
            // The scan stays in the table: the largest draw lands below
            // the total mass, so the sentinel and clamp never decide.
            assert!(point(DRAWS - 1, z.total) < z.total, "{label}");
            let mut ks = vec![0, DRAWS - 1];
            for j in 0..z.guide.len() as u64 {
                ks.push(j << z.shift);
                ks.extend((j << z.shift).checked_sub(1));
            }
            // Where the reference rank steps: the last draw at or below
            // each cumulative weight (often exactly on it) and the next.
            for &c in &z.cum[..z.len()] {
                let k = last_draw_at_or_below(&z, c);
                ks.push(k);
                ks.extend(Some(k + 1).filter(|&k| k < DRAWS));
            }
            for k in ks {
                assert_eq!(z.rank_of(k), reference_rank(&z, k), "{label} k={k}");
            }
        }
    }

    #[test]
    fn seeded_draws_match_the_binary_search() {
        for (label, z) in samplers() {
            let mut rng = Rng::new(0x5EED ^ z.len() as u64);
            let mut twin = rng.clone();
            for i in 0..1_000_000 {
                let drawn = z.sample(&mut rng);
                let k = twin.next_u64() >> 11;
                assert_eq!(drawn, reference_rank(&z, k), "{label} draw {i}");
            }
            assert_eq!(rng.next_u64(), twin.next_u64(), "{label}: one u64 per draw");
        }
    }

    #[test]
    fn serving_keys_take_under_one_and_a_quarter_compares_per_draw() {
        // The Bench store's keys, in one tenant and in the three of the
        // host-time benchmark's serving workloads. A table with half the
        // buckets would read about 1.25 on 4096 keys and 1.17 on 1365.
        let keys = ServeParams::for_scale(Scale::Bench).keys;
        for (n, limit) in [(keys, 1.25), (keys / 3, 1.1), (keys / 3 + 1, 1.1)] {
            let z = Zipf::new(n, 1.0).unwrap();
            let mut rng = Rng::new(0xC0DE);
            let draws = 1_000_000;
            let compares: usize =
                (0..draws).map(|_| scan_compares(&z, rng.next_u64() >> 11)).sum();
            let mean = compares as f64 / draws as f64;
            assert!(mean < limit, "n={n}: {mean} compares per draw");
        }
    }

    fn counts(n: usize, s: f64, seed: u64, draws: usize) -> Vec<u64> {
        let z = Zipf::new(n, s).unwrap();
        let mut rng = Rng::new(seed);
        let mut c = vec![0u64; n];
        for _ in 0..draws {
            c[z.sample(&mut rng)] += 1;
        }
        c
    }

    #[test]
    fn sampling_is_deterministic_across_reruns() {
        let a = counts(64, 1.0, 42, 10_000);
        let b = counts(64, 1.0, 42, 10_000);
        assert_eq!(a, b);
        let c = counts(64, 1.0, 43, 10_000);
        assert_ne!(a, c, "a different seed must reshuffle the draws");
    }

    #[test]
    fn zipf_mass_concentrates_on_low_ranks() {
        let c = counts(100, 1.0, 7, 50_000);
        // Under s=1 over 100 ranks, rank 0 carries ~1/H(100) ≈ 19% of
        // the mass; the shape assertions are loose enough to be stable.
        assert!(c[0] > c[9] && c[9] > c[49], "head ordering: {:?}", &c[..10]);
        assert!(c[0] as f64 > 0.15 * 50_000.0, "rank 0 = {}", c[0]);
        let tail: u64 = c[50..].iter().sum();
        assert!(c[0] > tail / 4, "head {} vs tail {}", c[0], tail);
    }

    #[test]
    fn steeper_exponents_sharpen_the_head() {
        let flat = counts(100, 0.5, 11, 50_000);
        let steep = counts(100, 1.5, 11, 50_000);
        assert!(steep[0] > flat[0], "s=1.5 head {} vs s=0.5 head {}", steep[0], flat[0]);
    }

    #[test]
    fn zero_exponent_is_uniform() {
        let c = counts(16, 0.0, 3, 64_000);
        let (min, max) = (c.iter().min().unwrap(), c.iter().max().unwrap());
        // 4000 expected per rank; allow generous sampling noise.
        assert!(*min > 3_000 && *max < 5_000, "uniform draw skewed: {c:?}");
    }

    #[test]
    fn invalid_exponents_are_typed_errors() {
        assert!(matches!(Zipf::new(10, 0.75), Err(ParamError::BadZipfExponent { .. })));
        assert!(matches!(Zipf::new(10, -0.5), Err(ParamError::BadZipfExponent { .. })));
        assert!(matches!(Zipf::new(10, 4.5), Err(ParamError::BadZipfExponent { .. })));
        assert!(matches!(Zipf::new(0, 1.0), Err(ParamError::EmptyDomain { .. })));
        for s in [0.0, 0.5, 1.0, 1.5, 2.0, 4.0] {
            assert!(Zipf::new(10, s).is_ok(), "s={s} should be accepted");
        }
    }

    #[test]
    fn next_below_stays_in_range_and_varies() {
        let mut rng = Rng::new(9);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let v = rng.next_below(7);
            assert!(v < 7);
            seen.insert(v);
        }
        assert_eq!(seen.len(), 7, "all residues should appear");
    }
}
