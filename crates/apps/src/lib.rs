//! The eight applications of the paper's evaluation (section 3.2),
//! ported to the ACE simulator.
//!
//! | App | Behaviour | Paper's numbers (Table 3) |
//! |---|---|---|
//! | [`ParMult`] | pure integer multiplication, no data refs | beta 0 |
//! | [`Gfetch`] | nothing but fetches from (pinned) shared memory | alpha 0, beta 1, gamma 2.27 |
//! | [`IMatMult`] | integer matrix product; inputs replicated, output shared | alpha .94, beta .26 |
//! | [`Primes1`] | trial division by all odd numbers; stack-heavy | alpha 1.0, beta .06 |
//! | [`Primes2`] | trial division by previously found primes (tuned: private divisor copies) | alpha .99 (naive: .66), beta .16 |
//! | [`Primes3`] | sieve in writably shared memory | alpha .17, beta .36, gamma 1.30 |
//! | [`Fft`] | EPEX-style 2-D FFT; ~95% private references | alpha .96, beta .56 |
//! | [`PlyTrace`] | polygon rendering from a work pile | alpha .96, beta .50 |
//!
//! All applications compute *real results* through simulated memory and
//! verify them against native reference implementations — a consistency
//! bug in the NUMA protocol shows up as a wrong answer, not just a wrong
//! time. Every app does the same total work regardless of worker count
//! (the measurement methodology of section 3.1 requires it).
//!
//! Beyond the paper's batch kernels, [`KvServe`] adds a *serving*
//! workload: a sharded KV store under seeded open-loop zipfian load,
//! measured by tail latency instead of completion time (see
//! [`kvserve`]).

#![forbid(unsafe_code)]

pub mod app;
pub mod eval;
pub mod fft;
pub mod gfetch;
pub mod imatmult;
pub mod kvserve;
pub mod params;
pub mod parmult;
pub mod plytrace;
pub mod primes1;
pub mod primes2;
pub mod primes3;
pub mod zipf;

pub use app::App;
pub use eval::measure_once;
pub use fft::Fft;
pub use gfetch::Gfetch;
pub use imatmult::IMatMult;
pub use kvserve::{KvServe, ServeParams};
pub use params::ParamError;
pub use parmult::ParMult;
pub use plytrace::PlyTrace;
pub use primes1::Primes1;
pub use primes2::{DivisorDiscipline, Primes2};
pub use primes3::Primes3;

/// The full application mix at a given scale, in the paper's Table 3
/// order.
pub fn paper_mix(scale: Scale) -> Vec<Box<dyn App>> {
    vec![
        Box::new(ParMult::new(scale)),
        Box::new(Gfetch::new(scale)),
        Box::new(IMatMult::new(scale)),
        Box::new(Primes1::new(scale)),
        Box::new(Primes2::new(scale, DivisorDiscipline::PrivateCopy)),
        Box::new(Primes3::new(scale)),
        Box::new(Fft::new(scale)),
        Box::new(PlyTrace::new(scale)),
    ]
}

/// Workload scale: `Test` keeps unit tests fast; `Bench` is the size the
/// evaluation harness runs (scaled down from the paper's hours-long ACE
/// runs, shape-preserving because every placement variant runs the
/// identical workload).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Tiny sizes for unit tests.
    Test,
    /// Evaluation sizes for the table harnesses.
    Bench,
}
