//! What one repetition measured on the virtual clock, as exact integers.
//!
//! Everything here is a pure function of the cells' `RunReport`s, so two
//! repetitions of one run — and two runs of one seed — must compare
//! equal, field by field. Floating-point metrics are derived from these
//! integers at print time, never accumulated.

use crate::workloads::Rep;
use ace_machine::Ns;
use std::hash::Hasher;

/// Lookahead window of `SimConfig::ace`, the preset every cell runs on.
const LOOKAHEAD: Ns = Ns::from_us(500);

/// Sums over the cells of one repetition.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counts {
    /// Cells that finished.
    pub cells: u64,
    /// Simulated word references.
    pub refs: u64,
    /// Of those, in cells where every reference took the per-reference
    /// path.
    pub refs_per_ref: u64,
    /// Local and all references over the NUMA-policy cells.
    pub numa_local: u64,
    /// See `numa_local`.
    pub numa_refs: u64,
    /// `NumaStats::requests`.
    pub requests: u64,
    /// Requests that zero-filled a fresh page.
    pub fresh: u64,
    /// `NumaStats::replications`.
    pub replications: u64,
    /// `NumaStats::migrations`.
    pub migrations: u64,
    /// Page copies in cells that injected faults: there every copy is
    /// checksummed at both ends.
    pub checked_copies: u64,
    /// `NumaStats::total_page_copies()`.
    pub page_copies: u64,
    /// `NumaStats::reclaims`.
    pub reclaims: u64,
    /// Move-limit and flush-limit pins.
    pub pins: u64,
    /// `NumaStats::recovery_actions()`.
    pub recovery_actions: u64,
    /// KvServe requests generated (served plus shed).
    pub kv_requests: u64,
    /// Σ simulated user time.
    pub user_ns: u64,
    /// Σ simulated system time.
    pub sys_ns: u64,
    /// `BusStats::total_bytes()`.
    pub bus_bytes: u64,
    /// Σ per-CPU total time ÷ lookahead: the grants a cell needs at
    /// least.
    pub windows: u64,
    /// Worst p50 over the NUMA-policy serving cells.
    pub p50_ns: u64,
    /// Worst p99 over the NUMA-policy serving cells.
    pub p99_ns: u64,
    /// Fewest samples beyond p99 in any serving cell.
    pub beyond_p99: u64,
    /// Requests served within their deadline, over the cells with
    /// admission control engaged.
    pub good: u64,
    /// Requests that arrived at those cells.
    pub arrived: u64,
    /// `model_err`, where the workload solves the model.
    pub model_err: Option<f64>,
    /// Events the workload's own `Telemetry` sinks saw.
    pub events_seen: u64,
    /// Digest of the repetition's other byte-exact outputs.
    pub digest: u64,
}

impl Counts {
    /// Adds up one repetition.
    pub fn of(rep: &Rep) -> Counts {
        let mut c = Counts {
            model_err: rep.model_err,
            events_seen: rep.events_seen,
            digest: rep.digest.finish(),
            beyond_p99: u64::MAX,
            ..Counts::default()
        };
        for cell in &rep.cells {
            let r = &cell.report;
            let refs = r.refs.local + r.refs.global + r.refs.remote;
            c.cells += 1;
            c.refs += refs;
            if cell.tag.per_ref {
                c.refs_per_ref += refs;
            }
            if cell.tag.numa {
                c.numa_local += r.refs.local;
                c.numa_refs += refs;
            }
            c.requests += r.numa.requests;
            c.fresh += r.numa.zero_fill_local + r.numa.zero_fill_global;
            c.replications += r.numa.replications;
            c.migrations += r.numa.migrations;
            if r.faults.any() {
                c.checked_copies += r.numa.total_page_copies();
            }
            c.page_copies += r.numa.total_page_copies();
            c.reclaims += r.numa.reclaims;
            c.pins += r.numa.pins + r.numa.flush_pins;
            c.recovery_actions += r.numa.recovery_actions();
            c.user_ns += r.total_user().0;
            c.sys_ns += r.total_system().0;
            c.bus_bytes += r.bus.total_bytes();
            c.windows += r
                .cpu_times
                .iter()
                .map(|t| t.total().0 / LOOKAHEAD.0)
                .sum::<u64>();
            if let Some(s) = &r.serving {
                c.kv_requests += s.requests;
                c.beyond_p99 = c.beyond_p99.min(s.latency.total() / 100);
                if cell.tag.numa {
                    c.p50_ns = c.p50_ns.max(s.latency.p50());
                    c.p99_ns = c.p99_ns.max(s.latency.p99());
                }
                if s.limited {
                    c.good += s.goodput.total();
                    c.arrived += s.requests;
                }
            }
        }
        if c.kv_requests == 0 {
            c.beyond_p99 = 0;
        }
        c
    }

    /// The clocks and counters an attached observer must leave alone
    /// (the rest of `Counts` legitimately depends on which path the
    /// references took and on which sinks were listening).
    pub fn observable(&self) -> [u64; 10] {
        [
            self.refs,
            self.requests,
            self.page_copies,
            self.kv_requests,
            self.user_ns,
            self.sys_ns,
            self.bus_bytes,
            self.p50_ns,
            self.p99_ns,
            self.good,
        ]
    }

    /// Local share of the references of the NUMA-policy cells.
    pub fn alpha(&self) -> f64 {
        ratio(self.numa_local, self.numa_refs)
    }

    /// Requests served within deadline ÷ requests arrived; zero where
    /// no cell engages admission control.
    pub fn goodput_frac(&self) -> f64 {
        ratio(self.good, self.arrived)
    }
}

/// `a / b`, zero when `b` is zero.
pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}
