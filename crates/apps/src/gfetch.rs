//! Gfetch: designed to spend all of its time referencing shared memory.
//!
//! "The Gfetch program does nothing but fetch from shared virtual memory.
//! Loop control and workload allocation costs are too small to be seen.
//! Its beta is thus 1 and its alpha 0."
//!
//! To make the shared array genuinely *writably shared* (so the NUMA
//! policy pins it in global memory and the measured fetches are global),
//! each thread owns an *interleaved residue class* of words: every page
//! is written by every processor during initialization, so ownership
//! ping-pongs past the move threshold and every page is pinned. With one
//! worker (the T_local run) the same initialization has a single writer,
//! no ownership moves happen, and the array stays local — exactly the
//! paper's asymmetry (gamma = G/L on fetches, 2.27).

use crate::app::App;
use crate::Scale;
use ace_machine::Prot;
use ace_sim::Simulator;
use cthreads::Barrier;

/// Initialization rounds. Word-interleaved writes mean a single round
/// already alternates every page between all writers (passing the move
/// threshold); a second round makes the pinning robust to scheduling.
const ROUNDS: u32 = 2;

/// The all-shared-fetch application.
pub struct Gfetch {
    /// Shared array length in words.
    words: u64,
    /// Sequential fetch sweeps over the array in the measured loop.
    sweeps: u64,
}

impl Gfetch {
    /// Gfetch at the given scale.
    pub fn new(scale: Scale) -> Gfetch {
        match scale {
            Scale::Test => Gfetch { words: 512, sweeps: 60 },
            Scale::Bench => Gfetch { words: 16 * 1024, sweeps: 60 },
        }
    }

    /// The deterministic initial value of word `i`.
    fn word_value(i: u64) -> u32 {
        (i as u32).wrapping_mul(0x0101_0101) ^ 0x5a5a_5a5a
    }
}

impl App for Gfetch {
    fn name(&self) -> &'static str {
        "Gfetch"
    }

    fn g_over_l(&self) -> f64 {
        2.3
    }

    fn run(&self, sim: &mut Simulator, workers: usize) -> Result<(), String> {
        let ctl = sim.alloc(64, Prot::READ_WRITE);
        let array = sim.alloc(self.words * 4, Prot::READ_WRITE);
        let bar = Barrier::new(ctl, workers as u32);
        let words = self.words;
        let sweeps = self.sweeps;
        let stripes = workers as u64;
        // Host-side checksum verification.
        let sums = std::sync::Arc::new(
            (0..workers).map(|_| std::sync::atomic::AtomicU64::new(0)).collect::<Vec<_>>(),
        );
        for t in 0..workers {
            let sums = std::sync::Arc::clone(&sums);
            sim.spawn(format!("gfetch-{t}"), move |ctx| {
                let t = t as u64;
                // Length of the residue class {first, first + stripes, …}
                // below `words`.
                let class_len = |first: u64| ((words - first).div_ceil(stripes)) as usize;
                // Rotating-stripe initialization: round r, this thread
                // writes stripe (t + r) mod stripes as one strided run.
                for r in 0..ROUNDS as u64 {
                    let stripe = (t + r) % stripes;
                    let vals: Vec<u32> = (0..class_len(stripe) as u64)
                        .map(|k| Gfetch::word_value(stripe + k * stripes))
                        .collect();
                    ctx.write_run(array + stripe * 4, stripes * 4, &vals);
                    bar.wait(ctx);
                }
                // The measured loop: nothing but fetches of the shared
                // array, one strided run per sweep.
                let mut sum = 0u64;
                for _ in 0..sweeps {
                    let run = ctx.read_run(array + t * 4, stripes * 4, class_len(t));
                    sum = run.iter().fold(sum, |s, &v| s.wrapping_add(v as u64));
                }
                sums[t as usize].store(sum, std::sync::atomic::Ordering::Relaxed);
            });
        }
        sim.run();
        // Every word is fetched `sweeps` times in total (each thread owns
        // a disjoint residue class), so the global sum is known.
        let expect: u64 = (0..words)
            .map(|i| Gfetch::word_value(i) as u64)
            .fold(0u64, |a, v| a.wrapping_add(v))
            .wrapping_mul(sweeps);
        let got = sums
            .iter()
            .fold(0u64, |a, s| a.wrapping_add(s.load(std::sync::atomic::Ordering::Relaxed)));
        if got != expect {
            return Err(format!("fetch checksum mismatch: {got} != {expect}"));
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
    fn shared_array_is_pinned_under_numa_policy() {
        let app = Gfetch::new(Scale::Test);
        let report = measure_once(
            &app,
            SimConfig::small(3),
            Box::new(MoveLimitPolicy::default()),
            3,
        );
        assert!(report.numa.pins > 0, "rotating writers must pin pages");
        // The measured loop dominates and fetches globally: alpha low.
        assert!(
            report.alpha_measured() < 0.5,
            "alpha_measured = {}",
            report.alpha_measured()
        );
    }

    #[test]
    fn single_worker_stays_local() {
        let app = Gfetch::new(Scale::Test);
        let report = measure_once(
            &app,
            SimConfig::small(1),
            Box::new(MoveLimitPolicy::default()),
            1,
        );
        assert!(
            report.alpha_measured() > 0.99,
            "one worker on one cpu must run local: {}",
            report.alpha_measured()
        );
        assert_eq!(report.numa.pins, 0);
    }
}
