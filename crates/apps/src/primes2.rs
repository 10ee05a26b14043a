//! Primes2: trial division by previously found primes.
//!
//! "Primes2 divides each prime candidate by all previously found primes
//! less than its square root. Each thread keeps a private list of primes
//! to be used as divisors, so virtually all data references are local."
//!
//! Section 4.2 describes the *history* of this program, which this
//! module reproduces as two disciplines:
//!
//! * [`DivisorDiscipline::SharedVector`] — the initial version: divisors
//!   are read directly from the shared output vector of found primes.
//!   The vector's first page holds both the divisors and the append
//!   count, and every thread that finds a prime appends (writes) to the
//!   vector — so the divisor pages are writably shared, get pinned in
//!   global memory, and divisor reads go global. The paper measured
//!   alpha = 0.66 for this version. This is textbook *false sharing*:
//!   read-mostly divisors colocated with a write-hot append region.
//! * [`DivisorDiscipline::PrivateCopy`] — the fix: "each processor
//!   copied the divisors it needed from the shared output vector into a
//!   private vector", raising alpha to (nearly) 1.00.
//!
//! Thread 0 first finds (by charged trial division) and publishes every
//! prime up to sqrt(limit); those are the only values ever used as
//! divisors, so candidate testing is correct regardless of the order in
//! which workers append larger primes. Results are verified against a
//! native sieve.

use crate::app::App;
use crate::Scale;
use ace_machine::{Ns, Prot};
use ace_sim::Simulator;
use cthreads::{Barrier, SpinLock, WorkPile};

/// Cost of one software division.
const DIV_COST: Ns = Ns(12_000);

/// Candidates per parcel.
const CHUNK: u64 = 16;

/// How divisors are fetched during testing.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DivisorDiscipline {
    /// Read divisors straight from the shared (writably shared, hence
    /// pinned) output vector — the paper's initial version.
    SharedVector,
    /// Copy new divisors into a thread-private vector and read from
    /// there — the paper's tuned version.
    PrivateCopy,
}

/// The found-primes-as-divisors prime finder.
pub struct Primes2 {
    limit: u64,
    discipline: DivisorDiscipline,
}

impl Primes2 {
    /// Primes2 at the given scale with the given divisor discipline.
    pub fn new(scale: Scale, discipline: DivisorDiscipline) -> Primes2 {
        Primes2 {
            limit: match scale {
                Scale::Test => 2_000,
                Scale::Bench => 100_000,
            },
            discipline,
        }
    }

    /// Explicit limit (for ablations).
    pub fn with_limit(limit: u64, discipline: DivisorDiscipline) -> Primes2 {
        Primes2 { limit, discipline }
    }

    /// Native reference: count and sum of all primes up to the limit.
    fn reference(&self) -> (u64, u64) {
        let limit = self.limit as usize;
        let mut sieve = vec![true; limit + 1];
        let (mut count, mut sum) = (0u64, 0u64);
        for n in 2..=limit {
            if sieve[n] {
                count += 1;
                sum += n as u64;
                let mut m = n * n;
                while m <= limit {
                    sieve[m] = false;
                    m += n;
                }
            }
        }
        (count, sum)
    }
}

/// Integer square root (loop-bound arithmetic, not simulated data).
fn isqrt(n: u64) -> u64 {
    let mut r = (n as f64).sqrt() as u64;
    while r * r > n {
        r -= 1;
    }
    while (r + 1) * (r + 1) <= n {
        r += 1;
    }
    r
}

impl App for Primes2 {
    fn name(&self) -> &'static str {
        match self.discipline {
            DivisorDiscipline::SharedVector => "Primes2-naive",
            DivisorDiscipline::PrivateCopy => "Primes2",
        }
    }

    fn run(&self, sim: &mut Simulator, workers: usize) -> Result<(), String> {
        // Shared output vector: word 0 is the count, words 1.. are the
        // odd primes found, in publication order. The count word and the
        // early divisors share the vector's first page deliberately.
        let vec_words = (self.limit / 4).max(64);
        let out = sim.alloc((vec_words + 1) * 4, Prot::READ_WRITE);
        let ctl = sim.alloc(64, Prot::READ_WRITE);
        let lock = SpinLock::new(ctl);
        let bar = Barrier::new(ctl + 32, workers as u32);
        let sqrt_bound = isqrt(self.limit);
        // Candidates: odd numbers strictly above sqrt_bound, up to limit.
        let first = (sqrt_bound + 1) | 1;
        let candidates = if self.limit >= first { (self.limit - first) / 2 + 1 } else { 0 };
        let pile = WorkPile::new(ctl + 16, candidates);
        let discipline = self.discipline;
        let limit = self.limit;
        for t in 0..workers {
            // Private divisor vector in a region of its own, plus a
            // private stack page for the division subroutine's linkage.
            let private = sim.alloc((vec_words + 1) * 4, Prot::READ_WRITE);
            let stack = sim.alloc(2048, Prot::READ_WRITE);
            sim.spawn(format!("primes2-{t}"), move |ctx| {
                if t == 0 {
                    // Find and publish every odd prime up to sqrt(limit)
                    // by trial division against the primes found so far.
                    let mut k = 0u64;
                    let mut n = 3u64;
                    while n <= sqrt_bound {
                        let mut prime = true;
                        for i in 0..k {
                            let d = ctx.read_u32(out + (1 + i) * 4) as u64;
                            if d * d > n {
                                break;
                            }
                            ctx.compute(DIV_COST);
                            if n.is_multiple_of(d) {
                                prime = false;
                                break;
                            }
                        }
                        if prime {
                            ctx.write_u32(out + (1 + k) * 4, n as u32);
                            k += 1;
                        }
                        n += 2;
                    }
                    // Publish the seed count before releasing the others.
                    ctx.write_u32(out, k as u32);
                }
                bar.wait(ctx);
                // The tuned discipline copies the divisors it needs (the
                // seed prefix: every prime <= sqrt(limit)) into private
                // memory once, and never reads the shared vector again
                // while testing. The copy keeps a host-side mirror so a
                // candidate's divisor scan can be decided natively and
                // then charged as whole runs — the same references the
                // scalar loop below makes, extent-shaped.
                let mut divs: Vec<u64> = Vec::new();
                if discipline == DivisorDiscipline::PrivateCopy {
                    let seeds = ctx.read_u32(out) as usize;
                    let vals = ctx.read_run(out + 4, 4, seeds);
                    let keep: Vec<u32> = vals
                        .into_iter()
                        .take_while(|&p| (p as u64) <= sqrt_bound)
                        .collect();
                    if !keep.is_empty() {
                        ctx.write_run(private + 4, 4, &keep);
                    }
                    divs = keep.into_iter().map(u64::from).collect();
                }
                while let Some((lo, hi)) = pile.take_chunk(ctx, CHUNK) {
                    for c in lo..hi {
                        let n = first + 2 * c;
                        if n > limit {
                            break;
                        }
                        let prime = match discipline {
                            // The naive version re-reads the (write-hot)
                            // count word for every candidate and fetches
                            // each divisor from the shared vector.
                            DivisorDiscipline::SharedVector => {
                                let published = ctx.read_u32(out) as u64;
                                // Only the seed prefix (primes <=
                                // sqrt_bound <= sqrt(n)) can divide n;
                                // everything appended later is larger
                                // than sqrt(limit), so the break below
                                // fires before order matters.
                                let mut prime = true;
                                let mut i = 0u64;
                                while i < published {
                                    let d = ctx.read_u32(out + (1 + i) * 4) as u64;
                                    if d < 2 {
                                        // Reserved but not yet filled
                                        // (only ever frontier primes,
                                        // all > sqrt(limit)).
                                        i += 1;
                                        continue;
                                    }
                                    if d * d > n {
                                        break;
                                    }
                                    // Division subroutine linkage:
                                    // save/restore on the private stack
                                    // (the bulk of the paper's local
                                    // references).
                                    ctx.write_u32(stack + (i % 64) * 4, d as u32);
                                    ctx.compute(DIV_COST);
                                    let _ = ctx.read_u32(stack + (i % 64) * 4);
                                    if n.is_multiple_of(d) {
                                        prime = false;
                                        break;
                                    }
                                    i += 1;
                                }
                                prime
                            }
                            // The tuned version replays the same scan
                            // against the host mirror, then charges the
                            // divisor reads as one run and the stack
                            // linkage as consecutive-slot runs with one
                            // batched divide charge.
                            DivisorDiscipline::PrivateCopy => {
                                let mut prime = true;
                                let mut reads = 0usize;
                                let mut tried: Vec<(u64, u32)> = Vec::new();
                                for (i, &d) in divs.iter().enumerate() {
                                    reads += 1;
                                    if d < 2 {
                                        continue;
                                    }
                                    if d * d > n {
                                        break;
                                    }
                                    tried.push((i as u64, d as u32));
                                    if n.is_multiple_of(d) {
                                        prime = false;
                                        break;
                                    }
                                }
                                if reads > 0 {
                                    let _ = ctx.read_run(private + 4, 4, reads);
                                }
                                let runs = |t: &[(u64, u32)]| {
                                    // Split where the stack slot (i % 64)
                                    // wraps or the scan skipped an index.
                                    let mut segs = Vec::new();
                                    let mut s = 0;
                                    while s < t.len() {
                                        let mut e = s + 1;
                                        while e < t.len()
                                            && t[e].0 == t[e - 1].0 + 1
                                            && !t[e].0.is_multiple_of(64)
                                        {
                                            e += 1;
                                        }
                                        segs.push((s, e));
                                        s = e;
                                    }
                                    segs
                                };
                                for (s, e) in runs(&tried) {
                                    let vals: Vec<u32> =
                                        tried[s..e].iter().map(|t| t.1).collect();
                                    ctx.write_run(stack + (tried[s].0 % 64) * 4, 4, &vals);
                                }
                                if !tried.is_empty() {
                                    ctx.compute(Ns(DIV_COST.0 * tried.len() as u64));
                                }
                                for (s, e) in runs(&tried) {
                                    let _ = ctx.read_run(
                                        stack + (tried[s].0 % 64) * 4,
                                        4,
                                        e - s,
                                    );
                                }
                                prime
                            }
                        };
                        if prime {
                            // Reserve the slot under the lock; fill it
                            // outside, so a page fault on the (still
                            // migrating) vector page never blocks the
                            // other finders.
                            lock.lock(ctx);
                            let k = ctx.read_u32(out);
                            ctx.write_u32(out, k + 1);
                            lock.unlock(ctx);
                            ctx.write_u32(out + (1 + k as u64) * 4, n as u32);
                        }
                    }
                }
            });
        }
        sim.run();
        // Verify: the published set plus {2} must be exactly the primes.
        let k = sim.with_kernel(|kk| kk.peek_u32(out)) as u64;
        let mut got: Vec<u64> = (0..k)
            .map(|i| sim.with_kernel(|kk| kk.peek_u32(out + (1 + i) * 4)) as u64)
            .collect();
        got.push(2);
        got.sort_unstable();
        let deduped = got.len();
        got.dedup();
        if got.len() != deduped {
            return Err("primes2 published a duplicate prime".to_string());
        }
        let got_count = got.len() as u64;
        let got_sum: u64 = got.iter().sum();
        let (want_count, want_sum) = self.reference();
        if got_count != want_count || got_sum != want_sum {
            return Err(format!(
                "primes2 ({:?}): got ({got_count}, {got_sum}), expected ({want_count}, {want_sum})",
                self.discipline
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::measure_once;
    use ace_sim::SimConfig;
    use numa_core::MoveLimitPolicy;

    #[test]
    fn isqrt_exact() {
        for n in 0..200u64 {
            let r = isqrt(n);
            assert!(r * r <= n && (r + 1) * (r + 1) > n, "isqrt({n}) = {r}");
        }
        assert_eq!(isqrt(10_000_000), 3162);
    }

    #[test]
    fn both_disciplines_find_the_primes() {
        for d in [DivisorDiscipline::SharedVector, DivisorDiscipline::PrivateCopy] {
            let app = Primes2::new(Scale::Test, d);
            let _ = measure_once(
                &app,
                SimConfig::small(3),
                Box::new(MoveLimitPolicy::default()),
                3,
            );
        }
    }

    #[test]
    fn private_copy_has_higher_alpha_than_shared_vector() {
        let run = |d| {
            let app = Primes2::new(Scale::Test, d);
            measure_once(
                &app,
                SimConfig::small(4),
                Box::new(MoveLimitPolicy::default()),
                4,
            )
            .alpha_measured()
        };
        let shared = run(DivisorDiscipline::SharedVector);
        let private = run(DivisorDiscipline::PrivateCopy);
        assert!(
            private > shared,
            "tuning must raise alpha: private {private} vs shared {shared}"
        );
        assert!(private > 0.7, "private-copy alpha = {private}, paper reports 1.00");
    }
}
