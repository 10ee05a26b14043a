//! IMatMult: integer matrix multiplication.
//!
//! "The IMatMult program computes the product of a pair of 200x200
//! integer matrices. Workload allocation parcels out elements of the
//! output matrix, which is found to be shared and is placed in global
//! memory. Once initialized, the input matrices are only read, and are
//! thus replicated in local memory. This program emphasizes the value of
//! replicating data that is writable, but that is never written. The
//! high alpha reflects the 400 local fetches per global store ... while
//! the low beta reflects the high cost of integer multiplication on the
//! ACE."
//!
//! The inputs are written once by thread 0, so their pages become
//! local-writable on thread 0's processor, then migrate to read-only
//! replicas as the other workers fault them in for reading — the
//! min/max-protection extension at work. The output is parceled out by
//! *element*, so consecutive elements (same page) are written by
//! different processors and output pages pin in global memory.

use crate::app::App;
use crate::params::ParamError;
use crate::Scale;
use ace_machine::{Ns, Prot};
use ace_sim::Simulator;
use cthreads::{Barrier, WorkPile};

/// Cost of one integer multiply-accumulate step of the dot product
/// (multiplication was expensive on the ROMP; this constant realizes the
/// paper's low beta of 0.26 against the two fetches it accompanies).
const MAC_COST: Ns = Ns(4_600);

/// The integer matrix multiplier.
pub struct IMatMult {
    /// Matrix dimension.
    n: usize,
}

impl IMatMult {
    /// IMatMult at the given scale (the paper's run used n = 200).
    pub fn new(scale: Scale) -> IMatMult {
        IMatMult {
            n: match scale {
                Scale::Test => 24,
                Scale::Bench => 96,
            },
        }
    }

    /// With an explicit dimension (must be positive).
    pub fn with_dim(n: usize) -> Result<IMatMult, ParamError> {
        if n == 0 {
            return Err(ParamError::EmptyDomain { what: "matrix dimension" });
        }
        Ok(IMatMult { n })
    }

    /// Deterministic input values.
    fn a_val(i: usize, j: usize) -> i32 {
        ((i * 31 + j * 17) % 64) as i32 - 32
    }

    fn b_val(i: usize, j: usize) -> i32 {
        ((i * 13 + j * 7) % 64) as i32 - 16
    }

    /// Native reference product for verification.
    fn reference(&self) -> Vec<i32> {
        let n = self.n;
        let mut c = vec![0i32; n * n];
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0i32;
                for k in 0..n {
                    acc = acc.wrapping_add(Self::a_val(i, k).wrapping_mul(Self::b_val(k, j)));
                }
                c[i * n + j] = acc;
            }
        }
        c
    }
}

impl App for IMatMult {
    fn name(&self) -> &'static str {
        "IMatMult"
    }

    fn g_over_l(&self) -> f64 {
        2.3
    }

    fn run(&self, sim: &mut Simulator, workers: usize) -> Result<(), String> {
        let n = self.n;
        let words = (n * n) as u64;
        let a = sim.alloc(words * 4, Prot::READ_WRITE);
        let b = sim.alloc(words * 4, Prot::READ_WRITE);
        let c = sim.alloc(words * 4, Prot::READ_WRITE);
        let ctl = sim.alloc(64, Prot::READ_WRITE);
        let bar = Barrier::new(ctl, workers as u32);
        let pile = WorkPile::new(ctl + 16, words);
        for t in 0..workers {
            sim.spawn(format!("imatmult-{t}"), move |ctx| {
                // Thread 0 initializes both inputs (they become its
                // local-writable pages, later demoted to replicas),
                // one row-sized extent at a time.
                if t == 0 {
                    for i in 0..n {
                        let row_a: Vec<u32> =
                            (0..n).map(|j| IMatMult::a_val(i, j) as u32).collect();
                        let row_b: Vec<u32> =
                            (0..n).map(|j| IMatMult::b_val(i, j) as u32).collect();
                        ctx.write_run(a + ((i * n) as u64) * 4, 4, &row_a);
                        ctx.write_run(b + ((i * n) as u64) * 4, 4, &row_b);
                    }
                }
                bar.wait(ctx);
                // Output elements parceled out in small batches. Each dot
                // product reads one A row sequentially and one B column
                // at a row stride, then charges the n multiply-accumulate
                // steps.
                while let Some((lo, hi)) = pile.take_chunk(ctx, 8) {
                    for e in lo..hi {
                        let (i, j) = ((e as usize) / n, (e as usize) % n);
                        let row = ctx.read_run(a + ((i * n) as u64) * 4, 4, n);
                        let col = ctx.read_run(b + (j as u64) * 4, (n as u64) * 4, n);
                        let mut acc = 0i32;
                        for k in 0..n {
                            acc = acc
                                .wrapping_add((row[k] as i32).wrapping_mul(col[k] as i32));
                        }
                        ctx.compute(Ns(MAC_COST.0 * n as u64));
                        ctx.write_i32(c + e * 4, acc);
                    }
                }
            });
        }
        sim.run();
        // Verify the full product against the native reference.
        let expect = self.reference();
        for (idx, &want) in expect.iter().enumerate() {
            let got = sim.with_kernel(|k| k.peek_u32(c + (idx as u64) * 4)) as i32;
            if got != want {
                return Err(format!("C[{idx}] = {got}, expected {want}"));
            }
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
    fn product_is_correct_under_numa_placement() {
        let app = IMatMult::new(Scale::Test);
        let r = measure_once(
            &app,
            SimConfig::small(3),
            Box::new(MoveLimitPolicy::default()),
            3,
        );
        // Inputs replicated: the dominant fetches are local.
        assert!(
            r.alpha_measured() > 0.8,
            "alpha_measured = {}",
            r.alpha_measured()
        );
        assert!(r.numa.replications > 0, "inputs must be replicated");
    }

    #[test]
    fn output_pages_are_pinned_global() {
        let app = IMatMult::with_dim(32).expect("valid dimension");
        let r = measure_once(
            &app,
            SimConfig::small(4),
            Box::new(MoveLimitPolicy::default()),
            4,
        );
        // Element-interleaved output writes from 4 cpus must pin output
        // pages.
        assert!(r.numa.pins > 0, "expected pinned output pages");
    }
}
