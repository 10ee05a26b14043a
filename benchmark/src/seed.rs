//! Everything the harness generates itself comes from `--seed` through
//! this one SplitMix64 stream: the same seed gives the same inputs.

/// The seed the reference numbers were taken with. It also switches the
/// serving jitter off, so `--seed 1989` runs the cells exactly as the
/// issue describes them.
pub const DEFAULT_SEED: u64 = 1989;

/// SplitMix64 (the generator the machine's fault injector uses too).
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream for `seed`, separated from other streams of the same
    /// seed by `salt` (one salt per use, so adding a consumer never
    /// shifts the values another consumer sees).
    pub fn new(seed: u64, salt: u64) -> SplitMix {
        SplitMix(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-40 for
    /// every `n` the harness uses.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A uniformly random permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i as u64 + 1) as usize);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_permutation_other_seed_other_permutation() {
        let a = SplitMix::new(7, 1).permutation(256);
        let b = SplitMix::new(7, 1).permutation(256);
        let c = SplitMix::new(8, 1).permutation(256);
        let d = SplitMix::new(7, 2).permutation(256);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d, "salts separate streams of one seed");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            (0..256).collect::<Vec<_>>(),
            "a permutation visits every page once"
        );
    }

    #[test]
    fn tiny_permutations() {
        assert!(SplitMix::new(1, 1).permutation(0).is_empty());
        assert_eq!(SplitMix::new(1, 1).permutation(1), vec![0]);
    }
}
