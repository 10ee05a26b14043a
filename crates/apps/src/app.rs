//! The application interface.

use ace_sim::Simulator;

/// One benchmark application.
///
/// An implementation allocates its memory, spawns `workers` simulated
/// threads, runs them to completion, and verifies its own output against
/// a native reference computation. The caller owns the simulator (and
/// thereby the machine size and placement policy) and reads the
/// measurements from [`Simulator::report`] afterwards.
pub trait App {
    /// Name as it appears in the paper's tables.
    fn name(&self) -> &'static str;

    /// The global-to-local access-time ratio the paper solves this
    /// application's model with: 2.3 for the programs doing almost all
    /// fetches and no stores (Gfetch, IMatMult), 2 for everything else.
    fn g_over_l(&self) -> f64 {
        2.0
    }

    /// Builds, runs and verifies the application with `workers` threads.
    /// Returns `Err` with a description if verification fails.
    fn run(&self, sim: &mut Simulator, workers: usize) -> Result<(), String>;
}
