//! Shared plumbing for the evaluation harnesses that no sweep grid can
//! replace.
//!
//! Each bench target under `benches/` regenerates one table or ablation
//! that needs a kernel, a trace or a machine setting of its own (the
//! protocol tables, raw access costs, the false-sharing trace, the
//! offline optimum, pragmas, remote hosting, scheduler affinity, pin
//! reconsideration, the bus queue) and prints it next to the paper's
//! published values. Tables 3 and 4, §4.2 and the threshold, page-size
//! and speedup ablations are grids: `numa-lab table --grid G` prints
//! them (`paper-bench`, `page-size`, `threshold`, `speedup`). Absolute
//! times differ — the substrate is a simulator with scaled-down
//! workloads, not the authors' ACE prototype — but the *shape* (who
//! wins, by what factor, where the crossovers are) is the reproduction
//! target.

#![forbid(unsafe_code)]

pub use numa_metrics::paper::EVAL_CPUS;

/// Prints the standard harness banner.
pub fn banner(title: &str, paper_ref: &str) {
    println!();
    println!("================================================================");
    println!("{title}");
    println!("(paper reference: {paper_ref})");
    println!("================================================================");
}
