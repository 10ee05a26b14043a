//! Results of one simulation run.

use crate::kernel::RefCounters;
use ace_machine::{BusStats, CpuTime, FaultStats, Ns};
use numa_core::NumaStats;
use numa_metrics::{Json, ServingReport};
use std::fmt;

/// Everything measured during one run.
#[derive(Clone, Debug)]
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
    /// workloads ([`crate::Simulator::attach_serving`]). `None` — every
    /// batch workload — keeps the serialized report byte-identical to
    /// pre-serving reports.
    pub serving: Option<ServingReport>,
    /// Typed reason the workload could not finish verified after a hard
    /// component loss (data destroyed by a typed zero-fill, a wedged
    /// run cut by the virtual-time budget). `None` — every healthy run —
    /// keeps the serialized report byte-identical to pre-chaos reports.
    pub degraded: Option<String>,
}

/// The `numa` block of [`RunReport::to_json`], in serialization order
/// (names as [`NumaStats::value`] knows them): first the counters every
/// report carries...
const NUMA_ALWAYS: [&str; 15] = [
    "requests", "read_requests", "write_requests", "replications", "migrations", "syncs",
    "flushes", "shootdowns", "to_global", "to_remote", "pins", "zero_fill_local",
    "zero_fill_global", "local_pressure_fallbacks", "recovery_actions",
];

/// ...then the counters that postdate a committed baseline, each with
/// the quantity that must be nonzero for it to appear: a run whose
/// pressure, flush-aware policy, hierarchy or hard-failure machinery
/// never acted serializes byte-identically to reports that predate it.
/// (Invalidations happen under every policy; only a flush *pin* shows
/// them. A flat machine can never replicate from a sibling node.)
const NUMA_WHEN_NONZERO: [(&str, &str); 11] = [
    ("reclaims", "reclaims"),
    ("degradations", "degradations"),
    ("pressure_ticks", "pressure_ticks"),
    ("flush_pins", "flush_pins"),
    ("coherence_invalidations", "flush_pins"),
    ("near_replications", "near_replications"),
    ("nodes_offlined", "hard_failure_actions"),
    ("pages_rehomed", "hard_failure_actions"),
    ("pages_lost", "hard_failure_actions"),
    ("threads_drained", "hard_failure_actions"),
    ("dead_node_fallbacks", "hard_failure_actions"),
];

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

    /// The full report as a machine-readable JSON value. Field order is
    /// fixed, so identical runs serialize to identical strings.
    pub fn to_json(&self) -> Json {
        let cpus: Vec<Json> = self
            .cpu_times
            .iter()
            .enumerate()
            .map(|(i, t)| {
                Json::obj()
                    .field("cpu", i)
                    .field("user_ns", t.user.0)
                    .field("system_ns", t.system.0)
            })
            .collect();
        let mut j = Json::obj()
            .field("policy", self.policy)
            .field("user_s", self.user_secs())
            .field("system_s", self.system_secs())
            .field("makespan_ns", self.makespan().0)
            .field("alpha_measured", self.alpha_measured())
            .field("cpu_times", Json::Arr(cpus))
            .field(
                "refs",
                Json::obj()
                    .field("local", self.refs.local)
                    .field("global", self.refs.global)
                    .field("remote", self.refs.remote),
            )
            .field("numa", {
                let value = |name| self.numa.value(name).expect("a NumaStats quantity");
                let shown = NUMA_WHEN_NONZERO.iter().filter(|(_, guard)| value(guard) > 0);
                NUMA_ALWAYS
                    .iter()
                    .chain(shown.map(|(key, _)| key))
                    .fold(Json::obj(), |numa, key| numa.field(key, value(key)))
            })
            .field(
                "bus",
                Json::obj()
                    .field("global_word_transfers", self.bus.global_word_transfers)
                    .field("copy_word_transfers", self.bus.copy_word_transfers)
                    .field("remote_word_transfers", self.bus.remote_word_transfers)
                    .field("total_bytes", self.bus.total_bytes()),
            )
            .field(
                "faults",
                Json::obj()
                    .field("bus_timeouts", self.faults.bus_timeouts)
                    .field("bad_frames", self.faults.bad_frames)
                    .field("corruptions", self.faults.corruptions),
            );
        // The serving block appears only when a serving application
        // attached one, so batch reports keep their exact prior bytes.
        if let Some(s) = &self.serving {
            j = j.field("serving", s.to_json());
        }
        if let Some(d) = &self.degraded {
            j = j.field("degraded", d.as_str());
        }
        j
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

    #[test]
    fn totals_and_makespan() {
        let r = RunReport {
            policy: "test",
            cpu_times: vec![
                CpuTime { user: Ns(100), system: Ns(10) },
                CpuTime { user: Ns(50), system: Ns(70) },
            ],
            refs: RefCounters { local: 3, global: 1, remote: 0 },
            numa: NumaStats::default(),
            bus: BusStats::default(),
            faults: FaultStats::default(),
            serving: None,
            degraded: None,
        };
        assert_eq!(r.total_user(), Ns(150));
        assert_eq!(r.total_system(), Ns(80));
        assert_eq!(r.makespan(), Ns(120));
        assert!((r.alpha_measured() - 0.75).abs() < 1e-12);
        let s = format!("{r}");
        assert!(s.contains("[test]"));
        assert!(!s.contains("faults:"), "fault-free reports omit the recovery line");
    }

    #[test]
    fn json_is_valid_and_deterministic() {
        let r = RunReport {
            policy: "test",
            cpu_times: vec![CpuTime { user: Ns(100), system: Ns(10) }],
            refs: RefCounters { local: 3, global: 1, remote: 0 },
            numa: NumaStats::default(),
            bus: BusStats::default(),
            faults: FaultStats::default(),
            serving: None,
            degraded: None,
        };
        let a = r.to_json().to_string_flat();
        let b = r.to_json().to_string_flat();
        assert_eq!(a, b);
        numa_metrics::validate(&a).expect("report JSON must parse");
        assert!(a.starts_with("{\"policy\":\"test\","));
        assert!(a.contains("\"alpha_measured\":0.75"));
        assert!(a.contains("\"user_ns\":100"));
    }

    #[test]
    fn pressure_counters_appear_only_under_pressure() {
        let mut r = RunReport {
            policy: "test",
            cpu_times: vec![CpuTime { user: Ns(100), system: Ns(10) }],
            refs: RefCounters { local: 3, global: 1, remote: 0 },
            numa: NumaStats::default(),
            bus: BusStats::default(),
            faults: FaultStats::default(),
            serving: None,
            degraded: None,
        };
        let idle = r.to_json().to_string_flat();
        assert!(!idle.contains("reclaims"), "idle reports stay byte-identical");
        assert!(!idle.contains("pressure_ticks"));
        assert!(!format!("{r}").contains("pressure:"));
        r.numa.reclaims = 2;
        r.numa.degradations = 1;
        r.numa.pressure_ticks = 3;
        r.numa.local_peak_frames = 8;
        let busy = r.to_json().to_string_flat();
        assert!(busy.contains("\"reclaims\":2"));
        assert!(busy.contains("\"degradations\":1"));
        assert!(busy.contains("\"pressure_ticks\":3"));
        assert!(!busy.contains("local_peak_frames"), "peak is display-only");
        numa_metrics::validate(&busy).unwrap();
        let shown = format!("{r}");
        assert!(shown.contains("pressure: 2 reclaims, 1 degradations"));
    }

    #[test]
    fn flush_pin_counters_appear_only_when_a_flush_policy_pinned() {
        let mut r = RunReport {
            policy: "flush-limit",
            cpu_times: vec![CpuTime { user: Ns(100), system: Ns(10) }],
            refs: RefCounters { local: 3, global: 1, remote: 0 },
            numa: NumaStats::default(),
            bus: BusStats::default(),
            faults: FaultStats::default(),
            serving: None,
            degraded: None,
        };
        // Invalidations happen under every policy; without a flush pin
        // the report must keep its exact pre-flush-policy bytes.
        r.numa.coherence_invalidations = 40;
        let unpinned = r.to_json().to_string_flat();
        assert!(!unpinned.contains("flush_pins"), "pin-free reports stay byte-identical");
        assert!(!unpinned.contains("coherence_invalidations"));
        assert!(!format!("{r}").contains("flush-pins:"));
        r.numa.flush_pins = 3;
        let pinned = r.to_json().to_string_flat();
        assert!(pinned.contains("\"flush_pins\":3"));
        assert!(pinned.contains("\"coherence_invalidations\":40"));
        numa_metrics::validate(&pinned).unwrap();
        assert!(format!("{r}")
            .contains("flush-pins: 3 pages pinned after 40 coherence invalidations"));
    }

    #[test]
    fn admission_line_appears_only_when_limited() {
        let mut latency = numa_metrics::LatencyHistogram::new();
        latency.record(1_000);
        latency.record(900_000);
        let mut r = RunReport {
            policy: "test",
            cpu_times: vec![CpuTime { user: Ns(100), system: Ns(10) }],
            refs: RefCounters { local: 3, global: 1, remote: 0 },
            numa: NumaStats::default(),
            bus: BusStats::default(),
            faults: FaultStats::default(),
            serving: Some(ServingReport::unlimited(2, 1, 1, latency)),
            degraded: None,
        };
        let unlimited = r.to_json().to_string_flat();
        assert!(!unlimited.contains("admitted"), "unlimited serving stays byte-identical");
        assert!(!unlimited.contains("goodput"));
        assert!(!format!("{r}").contains("admission:"));
        {
            let s = r.serving.as_mut().expect("attached above");
            s.limited = true;
            s.admitted = 2;
            s.requests = 5;
            s.shed(numa_metrics::ShedReason::QueueFull, 1);
            s.shed(numa_metrics::ShedReason::DeadlineExpired, 2);
        }
        let limited = r.to_json().to_string_flat();
        assert!(limited.contains("\"admitted\":2"));
        assert!(limited.contains("\"shed_queue_full\":1"));
        assert!(limited.contains("\"goodput_buckets\":[["));
        numa_metrics::validate(&limited).unwrap();
        let shown = format!("{r}");
        assert!(shown
            .contains("admission: 2 admitted, shed 1 queue-full / 2 deadline / 0 quota"));
    }

    #[test]
    fn hard_failure_counters_appear_only_after_component_loss() {
        let mut r = RunReport {
            policy: "test",
            cpu_times: vec![CpuTime { user: Ns(100), system: Ns(10) }],
            refs: RefCounters { local: 3, global: 1, remote: 0 },
            numa: NumaStats::default(),
            bus: BusStats::default(),
            faults: FaultStats::default(),
            serving: None,
            degraded: None,
        };
        let healthy = r.to_json().to_string_flat();
        assert!(!healthy.contains("nodes_offlined"), "healthy reports stay byte-identical");
        assert!(!format!("{r}").contains("degraded:"));
        r.numa.nodes_offlined = 1;
        r.numa.pages_rehomed = 4;
        r.numa.pages_lost = 2;
        r.numa.threads_drained = 3;
        r.numa.dead_node_fallbacks = 5;
        let degraded = r.to_json().to_string_flat();
        assert!(degraded.contains("\"nodes_offlined\":1"));
        assert!(degraded.contains("\"pages_rehomed\":4"));
        assert!(degraded.contains("\"pages_lost\":2"));
        assert!(degraded.contains("\"threads_drained\":3"));
        assert!(degraded.contains("\"dead_node_fallbacks\":5"));
        numa_metrics::validate(&degraded).unwrap();
        let shown = format!("{r}");
        assert!(shown.contains(
            "degraded: 1 nodes offlined, 4 pages rehomed, 2 pages lost, \
             3 threads drained, 5 dead-node fallbacks"
        ));
    }
}
