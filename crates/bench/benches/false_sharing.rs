//! The section 4.2 false-sharing case study: the trace-based diagnosis
//! of primes2 before privatizing the divisor vector.
//!
//! "By modifying the program so that each processor copied the divisors
//! it needed from the shared output vector into a private vector, the
//! value of alpha (fraction of local references) was increased from 0.66
//! to 1.00." The two variants' alphas are the 2 KB rows of
//! `numa-lab table --grid page-size`. This harness records the naive
//! version's trace: its divisor region is *falsely shared* (read-mostly
//! data on pages made write-hot by the append count and frontier), which
//! the object-granularity analyzer detects automatically.

use ace_sim::{SimConfig, Simulator};
use numa_apps::{App, DivisorDiscipline, Primes2, Scale};
use numa_bench::{banner, EVAL_CPUS};
use numa_core::MoveLimitPolicy;
use numa_trace::{Recorder, SharingReport};

fn main() {
    banner(
        "False sharing: trace diagnosis of primes2's shared divisor vector",
        "section 4.2 (alpha 0.66 -> 1.00)",
    );
    let app = Primes2::new(Scale::Bench, DivisorDiscipline::SharedVector);
    let mut sim =
        Simulator::new(SimConfig::ace(EVAL_CPUS), Box::new(MoveLimitPolicy::default()));
    let rec = Recorder::install(&sim);
    app.run(&mut sim, EVAL_CPUS).expect("primes2 verifies");
    let trace = rec.take(&sim);
    let sharing = SharingReport::from_trace(&trace);
    println!(
        "naive trace: {} pages ({} private, {} read-shared, {} write-shared); \
         {:.1}% of references hit write-shared pages",
        sharing.pages.len(),
        sharing.count(numa_trace::PageClass::Private),
        sharing.count(numa_trace::PageClass::ReadShared),
        sharing.count(numa_trace::PageClass::WriteShared),
        100.0 * sharing.write_shared_ref_fraction(),
    );
    println!(
        "trace alpha {:.3} (agrees with the counters: `page-size` grid, \
         Primes2-naive/numa at 2 KB); the write-shared fraction is what no \
         OS placement policy can make local (section 4.2)",
        sharing.alpha()
    );
}
