//! Simulation configuration.

use ace_machine::{FaultConfig, MachineConfig, Ns, Topology, TopologyBuilder};
use numa_metrics::events::SharedSink;
use std::fmt;

/// Which scheduler the simulated kernel uses (section 4.7 of the paper).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SchedulerKind {
    /// The paper's modification: each thread is bound at creation to one
    /// processor (assigned sequentially, skipping busy processors unless
    /// all are busy) and runs there for its whole life.
    Affinity,
    /// The scheduler that came with Mach: conceptually a single queue of
    /// runnable threads from which available processors select the next
    /// thread to run — so threads drift between processors.
    GlobalQueue,
}

/// Configuration of one simulation.
///
/// Built fluently from a preset; every knob has a chainable setter so
/// new options stop forcing struct-literal churn at call sites:
///
/// ```
/// use ace_machine::Ns;
/// use ace_sim::{SchedulerKind, SimConfig};
///
/// let cfg = SimConfig::ace(8)
///     .quantum(Ns::from_ms(5))
///     .lookahead(Ns::from_us(20))
///     .scheduler(SchedulerKind::GlobalQueue);
/// assert_eq!(cfg.machine.n_cpus(), 8);
/// assert_eq!(cfg.quantum, Ns::from_ms(5));
/// ```
#[derive(Clone)]
pub struct SimConfig {
    /// The machine to simulate.
    pub machine: MachineConfig,
    /// Scheduler flavour.
    pub scheduler: SchedulerKind,
    /// Time-slice length when more threads than processors are runnable.
    pub quantum: Ns,
    /// Lookahead window: how far past the next runnable processor's
    /// clock a granted thread may run before re-rendezvousing. Zero
    /// means exact virtual-time interleaving; larger windows amortize
    /// the (host-side) grant rendezvous over more simulated work but
    /// let spin-waiters run ahead of the thread they wait on, inflating
    /// synchronization time. The `ace` preset's 500 us sits well under
    /// the apps' lock and barrier hold times, where the paper-model
    /// numbers are indistinguishable from exact interleaving.
    pub lookahead: Ns,
    /// Interval of the kernel's periodic daemon tick (policy aging /
    /// pin reconsideration), in virtual time.
    pub daemon_interval: Ns,
    /// Structured event sink to install on the simulator (machine tap
    /// plus NUMA-manager sink). `None` — the default — costs nothing.
    pub events: Option<SharedSink>,
    /// Whether application threads may use the batched-access fast path:
    /// a per-thread, direct-mapped software TLB of 256 pages, through
    /// which each same-page extent of a run is charged in closed form
    /// and accessed with one page lookup, and `compute` charged in one
    /// step per budget window. Observationally equivalent to the slow
    /// per-reference path; `false` forces every reference through the
    /// per-reference path (differential testing, debugging).
    pub fastpath: bool,
    /// Pressure-daemon low watermark: a processor whose local free list
    /// drops below this many frames gets its cold read-only replicas
    /// flushed on the next daemon tick. Zero disables the daemon.
    pub pressure_low: usize,
    /// Pressure-daemon high watermark: flushing stops once the free list
    /// reaches this many frames (clamped up to `pressure_low`).
    pub pressure_high: usize,
    /// Virtual-time budget: the kernel stops scheduling once every
    /// runnable thread's clock is past this bound and the run fails with
    /// a typed error instead of spinning forever. `None` — the default —
    /// means unbounded.
    pub vt_budget: Option<Ns>,
}

impl SimConfig {
    /// An ACE with `n_cpus` processors and default engine parameters.
    pub fn ace(n_cpus: usize) -> SimConfig {
        SimConfig {
            machine: TopologyBuilder::flat_ace(n_cpus).config(),
            scheduler: SchedulerKind::Affinity,
            quantum: Ns::from_ms(10),
            lookahead: Ns::from_us(500),
            daemon_interval: Ns::from_ms(5),
            events: None,
            fastpath: true,
            pressure_low: 2,
            pressure_high: 4,
            vt_budget: None,
        }
    }

    /// A small machine for tests, with exact interleaving.
    pub fn small(n_cpus: usize) -> SimConfig {
        SimConfig {
            machine: TopologyBuilder::small(n_cpus).config(),
            scheduler: SchedulerKind::Affinity,
            quantum: Ns::from_ms(1),
            lookahead: Ns::ZERO,
            daemon_interval: Ns::from_ms(1),
            events: None,
            fastpath: true,
            pressure_low: 2,
            pressure_high: 4,
            vt_budget: None,
        }
    }

    /// Replaces the whole machine description (the topology axis of a
    /// sweep): processors, nodes, hop costs and frame pools all come
    /// from the given config.
    ///
    /// ```
    /// use ace_machine::TopologyBuilder;
    /// use ace_sim::SimConfig;
    ///
    /// let cfg = SimConfig::ace(8).machine(TopologyBuilder::two_socket(8).config());
    /// assert_eq!(cfg.machine.topology.n_nodes(), 2);
    /// ```
    pub fn machine(mut self, machine: MachineConfig) -> SimConfig {
        self.machine = machine;
        self
    }

    /// Swaps the machine's shape while keeping the preset's page size,
    /// global memory, cost model and fault plan.
    pub fn topology(mut self, topology: Topology) -> SimConfig {
        self.machine.topology = topology;
        self
    }

    /// Sets the scheduler flavour.
    pub fn scheduler(mut self, scheduler: SchedulerKind) -> SimConfig {
        self.scheduler = scheduler;
        self
    }

    /// Sets the time-slice length.
    pub fn quantum(mut self, quantum: Ns) -> SimConfig {
        self.quantum = quantum;
        self
    }

    /// Sets the lookahead window (zero = exact interleaving).
    pub fn lookahead(mut self, lookahead: Ns) -> SimConfig {
        self.lookahead = lookahead;
        self
    }

    /// Sets the daemon tick interval.
    pub fn daemon_interval(mut self, interval: Ns) -> SimConfig {
        self.daemon_interval = interval;
        self
    }

    /// Enables hardware fault injection on the simulated machine.
    pub fn faults(mut self, faults: FaultConfig) -> SimConfig {
        self.machine.faults = faults;
        self
    }

    /// Installs a structured event sink: the simulator will report
    /// machine-level traffic and every NUMA protocol action to it.
    pub fn events(mut self, sink: SharedSink) -> SimConfig {
        self.events = Some(sink);
        self
    }

    /// Enables or disables the batched-access fast path.
    pub fn fastpath(mut self, on: bool) -> SimConfig {
        self.fastpath = on;
        self
    }

    /// Sets the pressure-daemon watermarks (low = 0 disables it).
    pub fn pressure_watermarks(mut self, low: usize, high: usize) -> SimConfig {
        self.pressure_low = low;
        self.pressure_high = high;
        self
    }

    /// Bounds the run in virtual time (`None` = unbounded).
    pub fn vt_budget(mut self, budget: Option<Ns>) -> SimConfig {
        self.vt_budget = budget;
        self
    }
}

impl fmt::Debug for SimConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimConfig")
            .field("machine", &self.machine)
            .field("scheduler", &self.scheduler)
            .field("quantum", &self.quantum)
            .field("lookahead", &self.lookahead)
            .field("daemon_interval", &self.daemon_interval)
            .field("events", &self.events.as_ref().map(|_| "<sink>"))
            .field("fastpath", &self.fastpath)
            .field("pressure_low", &self.pressure_low)
            .field("pressure_high", &self.pressure_high)
            .field("vt_budget", &self.vt_budget)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        let c = SimConfig::ace(5);
        assert_eq!(c.machine.n_cpus(), 5);
        assert_eq!(c.scheduler, SchedulerKind::Affinity);
        assert!(c.lookahead > Ns::ZERO);
        assert_eq!(SimConfig::small(2).lookahead, Ns::ZERO);
    }

    #[test]
    fn builder_chains_over_presets() {
        let cfg = SimConfig::small(3)
            .scheduler(SchedulerKind::GlobalQueue)
            .quantum(Ns::from_ms(2))
            .lookahead(Ns::from_us(5))
            .daemon_interval(Ns::from_ms(7))
            .faults(FaultConfig { seed: 42, ..FaultConfig::default() });
        assert_eq!(cfg.scheduler, SchedulerKind::GlobalQueue);
        assert_eq!(cfg.quantum, Ns::from_ms(2));
        assert_eq!(cfg.lookahead, Ns::from_us(5));
        assert_eq!(cfg.daemon_interval, Ns::from_ms(7));
        assert_eq!(cfg.machine.faults.seed, 42);
        assert!(cfg.events.is_none());
        let hier = cfg.clone().topology(TopologyBuilder::mesh(4, 2).build());
        assert_eq!(hier.machine.n_cpus(), 8);
        assert_eq!(hier.machine.topology.n_nodes(), 4);
        assert!(hier.machine.topology.max_hops() >= 2);
        assert!(cfg.fastpath, "fast path is on by default");
        assert!(!cfg.clone().fastpath(false).fastpath);
        // Debug must not require the sink to be Debug.
        let dbg = format!("{cfg:?}");
        assert!(dbg.contains("SimConfig"));
    }

    #[test]
    fn events_knob_installs_a_sink() {
        let sink = numa_metrics::events::shared(numa_metrics::VecSink::new());
        let cfg = SimConfig::small(1).events(sink);
        assert!(cfg.events.is_some());
        assert!(format!("{cfg:?}").contains("<sink>"));
    }
}
