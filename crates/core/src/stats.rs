//! Counters kept by the NUMA layer.

use ace_machine::{CpuId, Frame, NodeId};
use mach_vm::LPageId;

ace_machine::counters! {
    /// Aggregate statistics of the NUMA manager and pmap manager.
    ///
    /// These are the quantities section 3.3 of the paper reasons about
    /// (page movement and bookkeeping overhead) plus introspection used by
    /// the evaluation harness and tests.
    #[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
    pub struct NumaStats {
        /// Requests (pmap_enter calls reaching the NUMA manager).
        pub requests: u64,
        /// Requests that faulted for a read.
        pub read_requests: u64,
        /// Requests that faulted for a write.
        pub write_requests: u64,
        /// Pages copied into a local memory to serve a read (replication).
        pub replications: u64,
        /// Write-induced ownership transfers between local memories (the
        /// "moves" the paper's policy counts).
        pub migrations: u64,
        /// Local-writable copies written back to global memory.
        pub syncs: u64,
        /// Local copies dropped (flush actions).
        pub flushes: u64,
        /// Mappings dropped on other processors (shootdowns).
        pub shootdowns: u64,
        /// Transitions into the Global-Writable state.
        pub to_global: u64,
        /// Pages pinned in global memory by the policy (move budget
        /// exhausted).
        pub pins: u64,
        /// Pages pinned in global memory (or re-homed) by a flush-aware
        /// policy: the *invalidation* budget was exhausted, not the move
        /// budget. Always zero under the paper's move-limit policy, so
        /// reports serialize it only when nonzero and every pre-existing
        /// baseline keeps its exact bytes.
        pub flush_pins: u64,
        /// Cached copies invalidated by coherence cleanups (the flush/
        /// sync-flush entries of Tables 1 and 2). Excludes capacity
        /// evictions and pressure-daemon flushes — this is exactly the
        /// traffic a flush-aware policy accounts against its budget.
        /// Serialized only alongside `flush_pins` (see above).
        pub coherence_invalidations: u64,
        /// Zero-fills performed directly into local memory (the lazy
        /// zero-fill optimization).
        pub zero_fill_local: u64,
        /// Zero-fills performed into global memory.
        pub zero_fill_global: u64,
        /// LOCAL decisions downgraded to GLOBAL because the target local
        /// memory had no free frames.
        pub local_pressure_fallbacks: u64,
        /// Logical pages lazily freed whose cleanup was completed by
        /// `pmap_free_page_sync`.
        pub lazy_free_syncs: u64,
        /// Transitions into the Remote-Shared extension state (section 4.4).
        pub to_remote: u64,
        /// Page copies retried after a transient bus timeout.
        pub bus_retries: u64,
        /// Local frames retired for good after failing their ECC scrub.
        pub frame_quarantines: u64,
        /// Page copies whose destination did not compare equal to the source.
        pub corruptions_detected: u64,
        /// Replicas re-fetched from the authoritative copy after a failed
        /// comparison.
        pub replica_refetches: u64,
        /// LOCAL decisions degraded to GLOBAL because the target local
        /// memory kept producing bad frames.
        pub fault_global_fallbacks: u64,
        /// Victim pages evicted from a local memory to free a frame
        /// (synchronous reclaim on exhaustion, plus pressure-daemon
        /// flushes of cold replicas).
        pub reclaims: u64,
        /// Requests degraded to a global-writable mapping after the reclaim
        /// budget was exhausted (a typed outcome, not an error).
        pub degradations: u64,
        /// Pressure-daemon scans that found a processor below its free-frame
        /// low watermark.
        pub pressure_ticks: u64,
        /// High-water mark of simultaneously allocated frames in any single
        /// local memory (observability for pressure experiments; not
        /// serialized into reports).
        pub local_peak_frames: u64,
        /// Replicas copied from a nearby sibling replica instead of the
        /// global frame. Possible only on hierarchical machines, so reports
        /// serialize it only when nonzero (flat reports keep their exact
        /// pre-topology bytes).
        pub near_replications: u64,
        /// Local memory modules taken offline by scheduled hard failures.
        pub nodes_offlined: u64,
        /// Pages whose copy on a dead node was recovered online: read-only
        /// replicas dropped (the global copy still serves) and writable
        /// copies re-homed to their valid global frame.
        pub pages_rehomed: u64,
        /// Pages whose *only* up-to-date copy died with its node. The page
        /// was re-materialized zero-filled — a typed, degraded outcome.
        pub pages_lost: u64,
        /// Threads drained from dead processors to survivors.
        pub threads_drained: u64,
        /// LOCAL (or remote-hosted) placements degraded to global service
        /// because the target node's local memory is permanently offline.
        pub dead_node_fallbacks: u64,
    }
}

impl NumaStats {
    /// A counter, or one of the derived totals reports serialize or
    /// gate on, by name.
    pub fn value(&self, name: &str) -> Option<u64> {
        match name {
            "recovery_actions" => Some(self.recovery_actions()),
            "hard_failure_actions" => Some(self.hard_failure_actions()),
            _ => self.fields().find(|&(field, _)| field == name).map(|(_, v)| v),
        }
    }

    /// Total page copies performed (replications + migrations + syncs).
    pub fn total_page_copies(&self) -> u64 {
        self.replications + self.migrations + self.syncs
    }

    /// Total recovery actions taken in response to injected hardware
    /// faults. Zero in a fault-free run.
    pub fn recovery_actions(&self) -> u64 {
        self.bus_retries
            + self.frame_quarantines
            + self.replica_refetches
            + self.fault_global_fallbacks
    }

    /// Total hard-failure recovery work: nodes lost, pages re-homed or
    /// lost with them, threads drained, placements permanently
    /// degraded. Zero unless a hard failure was scheduled, so reports
    /// from failure-free runs stay byte-identical.
    pub fn hard_failure_actions(&self) -> u64 {
        self.nodes_offlined
            + self.pages_rehomed
            + self.pages_lost
            + self.threads_drained
            + self.dead_node_fallbacks
    }
}

/// One recovery or degradation action taken by the NUMA manager, in the
/// order it happened. The log complements the aggregate counters: tests
/// assert on exact sequences, the report prints totals. Empty in a
/// fault-free run with ample local frames; memory pressure can add
/// `DegradedToGlobal` entries without any injected fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultEvent {
    /// A bus-crossing copy timed out and was retried with backoff.
    BusTimeoutRetried {
        /// The page being copied.
        lpage: LPageId,
        /// The processor charged for the retry.
        cpu: CpuId,
        /// Which attempt (1-based) timed out.
        attempt: u32,
    },
    /// A local frame failed its ECC scrub and was retired for good.
    FrameQuarantined {
        /// The retired frame.
        frame: Frame,
        /// The node whose local memory lost the frame.
        node: NodeId,
    },
    /// A copied replica did not compare equal to its source and was
    /// re-fetched from the authoritative copy.
    CorruptionDetected {
        /// The page whose replica was corrupted.
        lpage: LPageId,
        /// The processor the replica was for.
        cpu: CpuId,
    },
    /// A LOCAL placement was degraded to GLOBAL because the target
    /// local memory kept producing bad frames.
    DegradedToGlobal {
        /// The page placed globally instead.
        lpage: LPageId,
        /// The processor whose local memory is failing.
        cpu: CpuId,
    },
    /// A processor's local memory module went offline for good; the
    /// online recovery protocol walked the directory and recovered
    /// every page that had a copy there.
    NodeOffline {
        /// The node whose local memory died.
        node: NodeId,
        /// Frames that were allocated in the dead module.
        lost_frames: u32,
    },
    /// A page's copy on a dead node was recovered without data loss:
    /// a read-only replica dropped, or a writable copy re-homed to its
    /// valid global frame.
    PageRehomed {
        /// The recovered page.
        lpage: LPageId,
        /// The dead node the copy was on.
        node: NodeId,
    },
    /// A page's only up-to-date copy died with its node; the page was
    /// re-materialized zero-filled (typed data loss, not a panic).
    PageLost {
        /// The lost page.
        lpage: LPageId,
        /// The dead node the only copy was on.
        node: NodeId,
    },
    /// Runnable threads were drained off a dead processor to survivors.
    ThreadsDrained {
        /// The processor that died.
        cpu: CpuId,
        /// How many threads were re-homed.
        count: u32,
    },
    /// A placement was degraded to global service because the target
    /// node's local memory is permanently offline.
    DeadNodeFallback {
        /// The page served globally instead.
        lpage: LPageId,
        /// The dead node the placement wanted.
        node: NodeId,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals() {
        let s = NumaStats { replications: 2, migrations: 3, syncs: 5, ..Default::default() };
        assert_eq!(s.total_page_copies(), 10);
    }
}
