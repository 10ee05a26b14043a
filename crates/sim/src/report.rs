//! Results of one simulation run.

use crate::kernel::RefCounters;
use ace_machine::{BusStats, CpuTime, FaultStats, Ns};
use numa_core::NumaStats;
use numa_metrics::ServingReport;
use std::fmt;

/// Everything measured during one run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunReport {
    /// Policy that was active.
    pub policy: &'static str,
    /// Per-processor user/system times.
    pub cpu_times: Vec<CpuTime>,
    /// Application reference counts by distance.
    pub refs: RefCounters,
    /// NUMA layer statistics.
    pub numa: NumaStats,
    /// IPC bus traffic.
    pub bus: BusStats,
    /// Hardware faults injected by the machine's fault injector.
    pub faults: FaultStats,
    /// Request counts and tail latency, attached only by serving
    /// workloads ([`crate::Simulator::attach_serving`]). `None` on every
    /// batch workload.
    pub serving: Option<ServingReport>,
    /// Typed reason the workload could not finish verified after a hard
    /// component loss (data destroyed by a typed zero-fill, a wedged
    /// run cut by the virtual-time budget). `None` on every healthy run.
    pub degraded: Option<String>,
}

impl RunReport {
    /// Total user time across all processors (the paper's T measure).
    pub fn total_user(&self) -> Ns {
        self.cpu_times.iter().map(|t| t.user).sum()
    }

    /// Total system time across all processors (Table 4's S measure).
    pub fn total_system(&self) -> Ns {
        self.cpu_times.iter().map(|t| t.system).sum()
    }

    /// Total user time in seconds.
    pub fn user_secs(&self) -> f64 {
        self.total_user().as_secs_f64()
    }

    /// Total system time in seconds.
    pub fn system_secs(&self) -> f64 {
        self.total_system().as_secs_f64()
    }

    /// Directly measured fraction of local references (the simulation's
    /// ground-truth counterpart of the paper's derived alpha).
    pub fn alpha_measured(&self) -> f64 {
        self.refs.alpha()
    }

    /// The longest per-processor total time — a proxy for elapsed
    /// (wall-clock) time of the run.
    pub fn makespan(&self) -> Ns {
        self.cpu_times.iter().map(|t| t.total()).max().unwrap_or(Ns::ZERO)
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "[{}] user {:.4}s  system {:.4}s  alpha(meas) {:.3}",
            self.policy,
            self.user_secs(),
            self.system_secs(),
            self.alpha_measured()
        )?;
        writeln!(
            f,
            "  refs: {} local / {} global / {} remote",
            self.refs.local, self.refs.global, self.refs.remote
        )?;
        write!(
            f,
            "  numa: {} requests, {} replications, {} migrations, {} syncs, {} pins",
            self.numa.requests,
            self.numa.replications,
            self.numa.migrations,
            self.numa.syncs,
            self.numa.pins
        )?;
        // The recovery line only appears when something actually went
        // wrong: fault-free runs print exactly as before.
        if self.faults.any() || self.numa.recovery_actions() > 0 {
            write!(
                f,
                "\n  faults: {} bus timeouts / {} bad frames / {} corruptions; \
                 recovered with {} retries, {} quarantines, {} refetches, \
                 {} global fallbacks",
                self.faults.bus_timeouts,
                self.faults.bad_frames,
                self.faults.corruptions,
                self.numa.bus_retries,
                self.numa.frame_quarantines,
                self.numa.replica_refetches,
                self.numa.fault_global_fallbacks
            )?;
        }
        // The flush-pin line only appears when a flush-aware policy
        // pinned something; move-limit runs print exactly as before.
        if self.numa.flush_pins > 0 {
            write!(
                f,
                "\n  flush-pins: {} pages pinned after {} coherence invalidations",
                self.numa.flush_pins, self.numa.coherence_invalidations
            )?;
        }
        // Likewise the pressure line: only under memory pressure.
        if self.numa.reclaims > 0 || self.numa.degradations > 0 {
            write!(
                f,
                "\n  pressure: {} reclaims, {} degradations, {} pressure ticks, \
                 peak {} local frames",
                self.numa.reclaims,
                self.numa.degradations,
                self.numa.pressure_ticks,
                self.numa.local_peak_frames
            )?;
        }
        // And the degraded line: only after a hard component loss.
        if self.numa.hard_failure_actions() > 0 {
            write!(
                f,
                "\n  degraded: {} nodes offlined, {} pages rehomed, {} pages lost, \
                 {} threads drained, {} dead-node fallbacks",
                self.numa.nodes_offlined,
                self.numa.pages_rehomed,
                self.numa.pages_lost,
                self.numa.threads_drained,
                self.numa.dead_node_fallbacks
            )?;
        }
        // And the serving line: only when a serving workload attached
        // its measurements.
        if let Some(s) = &self.serving {
            write!(
                f,
                "\n  serving: {} requests ({} gets / {} puts), \
                 p50 {} ns, p95 {} ns, p99 {} ns, p999 {} ns",
                s.requests,
                s.gets,
                s.puts,
                s.latency.p50(),
                s.latency.p95(),
                s.latency.p99(),
                s.latency.p999()
            )?;
            // The admission line only appears when an overload knob was
            // engaged; unprotected serving runs print exactly as before.
            if s.limited {
                write!(
                    f,
                    "\n  admission: {} admitted, shed {} queue-full / {} deadline / \
                     {} quota, goodput p99 {} ns",
                    s.admitted,
                    s.shed_queue_full,
                    s.shed_deadline,
                    s.shed_quota,
                    s.goodput.p99()
                )?;
            }
        }
        if let Some(d) = &self.degraded {
            write!(f, "\n  DEGRADED: {d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(policy: &'static str) -> RunReport {
        RunReport {
            policy,
            cpu_times: vec![CpuTime { user: Ns(100), system: Ns(10) }],
            refs: RefCounters { local: 3, global: 1, remote: 0 },
            numa: NumaStats::default(),
            bus: BusStats::default(),
            faults: FaultStats::default(),
            serving: None,
            degraded: None,
        }
    }

    #[test]
    fn totals_and_makespan() {
        let mut r = report("test");
        r.cpu_times.push(CpuTime { user: Ns(50), system: Ns(70) });
        assert_eq!(r.total_user(), Ns(150));
        assert_eq!(r.total_system(), Ns(80));
        assert_eq!(r.makespan(), Ns(120));
        assert!((r.alpha_measured() - 0.75).abs() < 1e-12);
        let s = format!("{r}");
        assert!(s.contains("[test]"));
        assert!(!s.contains("faults:"), "fault-free reports omit the recovery line");
    }

    #[test]
    fn pressure_counters_appear_only_under_pressure() {
        let mut r = report("test");
        assert!(!format!("{r}").contains("pressure:"));
        r.numa.reclaims = 2;
        r.numa.degradations = 1;
        r.numa.pressure_ticks = 3;
        r.numa.local_peak_frames = 8;
        let shown = format!("{r}");
        assert!(shown.contains("pressure: 2 reclaims, 1 degradations, 3 pressure ticks, peak 8"));
    }

    #[test]
    fn flush_pin_counters_appear_only_when_a_flush_policy_pinned() {
        let mut r = report("flush-limit");
        // Invalidations happen under every policy; only a flush pin
        // shows them.
        r.numa.coherence_invalidations = 40;
        assert!(!format!("{r}").contains("flush-pins:"));
        r.numa.flush_pins = 3;
        assert!(format!("{r}")
            .contains("flush-pins: 3 pages pinned after 40 coherence invalidations"));
    }

    #[test]
    fn admission_line_appears_only_when_limited() {
        let mut latency = numa_metrics::LatencyHistogram::new();
        latency.record(1_000);
        latency.record(900_000);
        let mut r = report("test");
        r.serving = Some(ServingReport::unlimited(2, 1, 1, latency));
        assert!(format!("{r}").contains("serving: 2 requests (1 gets / 1 puts)"));
        assert!(!format!("{r}").contains("admission:"));
        {
            let s = r.serving.as_mut().expect("attached above");
            s.limited = true;
            s.admitted = 2;
            s.requests = 5;
            s.shed(numa_metrics::ShedReason::QueueFull, 1);
            s.shed(numa_metrics::ShedReason::DeadlineExpired, 2);
        }
        let shown = format!("{r}");
        assert!(shown
            .contains("admission: 2 admitted, shed 1 queue-full / 2 deadline / 0 quota"));
    }

    #[test]
    fn hard_failure_counters_appear_only_after_component_loss() {
        let mut r = report("test");
        assert!(!format!("{r}").contains("degraded:"));
        r.numa.nodes_offlined = 1;
        r.numa.pages_rehomed = 4;
        r.numa.pages_lost = 2;
        r.numa.threads_drained = 3;
        r.numa.dead_node_fallbacks = 5;
        let shown = format!("{r}");
        assert!(shown.contains(
            "degraded: 1 nodes offlined, 4 pages rehomed, 2 pages lost, \
             3 threads drained, 5 dead-node fallbacks"
        ));
    }
}
