//! One measured run of section 3.1's methodology. The three placements
//! and the model they solve are a grid of `numa-lab` (`Sweep::model_rows`).

use crate::app::App;
use ace_sim::{RunReport, SimConfig, Simulator};
use numa_core::CachePolicy;

/// Runs one application once on a fresh simulator and returns the
/// measurements.
///
/// # Panics
///
/// Panics if the application fails its own output verification — a
/// wrong answer invalidates any timing comparison.
pub fn measure_once(
    app: &dyn App,
    cfg: SimConfig,
    policy: Box<dyn CachePolicy>,
    workers: usize,
) -> RunReport {
    let mut sim = Simulator::new(cfg, policy);
    if let Err(e) = app.run(&mut sim, workers) {
        panic!("{} failed verification: {e}", app.name());
    }
    sim.report()
}
