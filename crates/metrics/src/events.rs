//! The structured observability event stream.
//!
//! Every layer of the stack — the ACE machine (bus transfers, page
//! copies), the NUMA manager (state transitions, policy decisions,
//! moves, replications, pins, fault recovery) and the kernel (daemon
//! ticks, map entries) — can report what it did as a typed [`Event`],
//! stamped with the acting processor and that processor's virtual
//! clock. A run with no sink installed pays nothing: emission sites are
//! a single `Option` check, events never charge virtual time, and the
//! simulation's timing and results are byte-identical with or without a
//! sink.
//!
//! This module lives in `numa-metrics` (below `numa-core`) so that both
//! the machine layer and the NUMA layer can speak the same event
//! vocabulary without a dependency cycle; the NUMA-layer concepts the
//! schema needs ([`PageState`], [`Decision`]) are mirrored here and
//! converted at the emission sites.

use crate::json::Json;
use ace_machine::{Access, CpuId, Distance, Frame, MachineEvent, MemRegion, NodeId, Ns};
use mach_vm::LPageId;
use std::sync::{Arc, Mutex};

/// A page's directory state, as reported in events. Mirrors the NUMA
/// manager's `StateKind` (which lives above this crate).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PageState {
    /// Never materialized; zero-fill pending.
    Fresh,
    /// Replicated read-only in zero or more local memories.
    ReadOnly,
    /// Writable in exactly one local memory.
    LocalWritable(NodeId),
    /// In global memory, accessed directly by all processors.
    GlobalWritable,
    /// Hosted writable in one node's local memory (section 4.4
    /// extension).
    RemoteShared(NodeId),
}

impl PageState {
    /// Stable lower-case label used in serialized events.
    pub fn label(self) -> &'static str {
        match self {
            PageState::Fresh => "fresh",
            PageState::ReadOnly => "read-only",
            PageState::LocalWritable(_) => "local-writable",
            PageState::GlobalWritable => "global-writable",
            PageState::RemoteShared(_) => "remote-shared",
        }
    }
}

/// A policy's placement answer, as reported in events. Mirrors the
/// policy layer's `Placement`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// Cache in the requester's local memory.
    Local,
    /// Keep in global memory.
    Global,
    /// Host in the given node's local memory.
    RemoteAt(NodeId),
}

impl Decision {
    /// Stable lower-case label used in serialized events.
    pub fn label(self) -> &'static str {
        match self {
            Decision::Local => "local",
            Decision::Global => "global",
            Decision::RemoteAt(_) => "remote-at",
        }
    }
}

/// One recovery action taken in response to an injected hardware fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryAction {
    /// A bus-crossing copy timed out and is being retried (1-based
    /// attempt that failed).
    BusRetry {
        /// The attempt that timed out.
        attempt: u32,
    },
    /// A local frame failed its ECC scrub and was retired for good.
    FrameQuarantined {
        /// The retired frame.
        frame: Frame,
    },
    /// A copied replica did not compare equal to its source and is being
    /// re-fetched.
    CorruptionRefetched,
    /// A LOCAL placement was degraded to GLOBAL because the target
    /// local memory kept producing bad frames.
    DegradedToGlobal,
}

/// What happened. Variant order groups machine-level traffic, NUMA
/// protocol actions, and kernel housekeeping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// An application memory reference hit the memory system.
    Reference {
        /// Fetch or store.
        access: Access,
        /// Where it was served from.
        dist: Distance,
        /// Width in 32-bit words.
        words: u64,
    },
    /// A whole page was copied by the kernel.
    PageCopied {
        /// Source region.
        from: MemRegion,
        /// Destination region.
        to: MemRegion,
    },
    /// A page-copy attempt was aborted by a bus timeout (machine view;
    /// the manager's recovery shows up as a `Recovery` event).
    CopyAborted {
        /// Source region of the aborted transfer.
        from: MemRegion,
        /// Destination region of the aborted transfer.
        to: MemRegion,
    },
    /// A frame was zero-filled by the kernel.
    PageZeroed {
        /// The zeroed frame's region.
        region: MemRegion,
    },
    /// The fixed page-fault overhead was charged.
    FaultOverhead,
    /// A mapping was shot down on another processor.
    Shootdown,

    /// The policy answered a placement request.
    PolicyDecision {
        /// The faulting page.
        lpage: LPageId,
        /// The access that faulted.
        access: Access,
        /// The policy's answer.
        decision: Decision,
    },
    /// A page's directory state changed.
    StateChanged {
        /// The page.
        lpage: LPageId,
        /// State before the transition.
        from: PageState,
        /// State after the transition.
        to: PageState,
    },
    /// A page's ownership moved between local memories (write-induced
    /// migration).
    Moved {
        /// The page.
        lpage: LPageId,
        /// The node that now owns the copy.
        to: NodeId,
        /// Cumulative moves for this page, including this one.
        moves: u32,
    },
    /// A read-only replica was copied into a local memory.
    Replicated {
        /// The page.
        lpage: LPageId,
        /// The node that gained a replica.
        at: NodeId,
    },
    /// The policy pinned the page in global memory (move budget
    /// exhausted).
    Pinned {
        /// The page.
        lpage: LPageId,
        /// Moves recorded when the pin happened.
        moves: u32,
    },
    /// A flush-aware policy pinned the page in global memory (or
    /// re-homed it): its write-invalidation budget was exhausted, not
    /// its move budget.
    FlushPinned {
        /// The page.
        lpage: LPageId,
        /// Coherence invalidations recorded when the pin happened.
        flushes: u32,
    },
    /// A pinning decision was released for reconsideration; the page's
    /// mappings were dropped so its next access re-runs the policy.
    Reconsidered {
        /// The page.
        lpage: LPageId,
    },
    /// The page was freed; its frames were released and its placement
    /// history forgotten.
    Freed {
        /// The page.
        lpage: LPageId,
    },
    /// A recovery action was taken in response to an injected fault.
    Recovery {
        /// The page being recovered, when the action concerns one.
        lpage: Option<LPageId>,
        /// What was done.
        action: RecoveryAction,
    },
    /// A request hit local-frame exhaustion and entered the synchronous
    /// reclaim path.
    ReclaimStarted {
        /// The page whose placement triggered reclaim.
        lpage: LPageId,
    },
    /// A victim page lost its copy in a local memory (synchronous
    /// reclaim, or a pressure-daemon flush of a cold replica).
    VictimFlushed {
        /// The evicted page.
        lpage: LPageId,
        /// The node whose local memory gave up the frame.
        at: NodeId,
    },
    /// A request's reclaim budget ran out and the request was served
    /// with a global-writable mapping instead (a typed outcome, not an
    /// error).
    DegradedToGlobal {
        /// The page placed globally instead.
        lpage: LPageId,
    },
    /// The pressure daemon found a processor below its free-frame low
    /// watermark and started flushing cold replicas.
    PressureTick {
        /// The pressured node.
        at: NodeId,
        /// Free frames in its local memory at scan time.
        free: u64,
    },
    /// A processor's local memory module went offline for good (hard
    /// failure); the online recovery protocol is about to walk the
    /// directory.
    NodeOffline {
        /// The node whose local memory died.
        node: NodeId,
        /// Frames that were allocated in the dead module.
        lost_frames: u64,
    },
    /// A processor stopped executing for good (hard failure); its
    /// runnable threads drain to survivors.
    CpuOffline {
        /// The processor that died.
        cpu: CpuId,
    },
    /// A page's copy on a dead node was recovered without data loss: a
    /// read-only replica dropped, or a writable copy re-homed to its
    /// valid global frame.
    PageRehomed {
        /// The recovered page.
        lpage: LPageId,
        /// The dead node the copy was on.
        at: NodeId,
    },
    /// A page's only up-to-date copy died with its node; the page was
    /// re-materialized zero-filled (typed data loss).
    PageLost {
        /// The lost page.
        lpage: LPageId,
        /// The dead node the only copy was on.
        at: NodeId,
    },
    /// Runnable threads were re-homed from a dead processor to
    /// survivors.
    ThreadsDrained {
        /// The processor that died.
        from: CpuId,
        /// How many threads were re-homed.
        count: u64,
    },
    /// A placement was degraded to global service because the target
    /// node's local memory is permanently offline.
    DeadNodeFallback {
        /// The page served globally instead.
        lpage: LPageId,
        /// The dead node the placement wanted.
        at: NodeId,
    },

    /// A translation was entered into the requester's MMU (the end of
    /// one fault's journey through the stack).
    MapEntered {
        /// The mapped page.
        lpage: LPageId,
    },
    /// The kernel's periodic daemon ticked (policy aging / pin
    /// reconsideration).
    DaemonTick,

    /// One experiment-orchestration job finished. Emitted by the
    /// `numa-lab` worker farm (not the simulator): `cpu` is the worker
    /// slot that ran the job and `t` the job's virtual makespan, so a
    /// progress sink can show live sweep status through the same
    /// pipeline as every other event.
    JobCompleted {
        /// Grid-order index of the finished job.
        job: u32,
        /// Total number of jobs in the sweep.
        of: u32,
    },
}

/// One event: what happened, where, and when (in virtual time).
///
/// Kernel-context events with no requesting processor (daemon ticks,
/// lazy frees) are stamped with the master processor, `CpuId(0)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// The acting processor's virtual clock (user + system) when the
    /// event was recorded.
    pub t: Ns,
    /// The acting processor.
    pub cpu: CpuId,
    /// What happened.
    pub kind: EventKind,
}

fn region_json(r: MemRegion) -> Json {
    match r {
        MemRegion::Global => Json::Str("global".to_string()),
        MemRegion::Local(c) => Json::Str(format!("local-{}", c.index())),
    }
}

fn state_json(s: PageState) -> Json {
    match s {
        PageState::LocalWritable(c) | PageState::RemoteShared(c) => {
            Json::Str(format!("{}@{}", s.label(), c.index()))
        }
        _ => Json::Str(s.label().to_string()),
    }
}

impl Event {
    /// The `count` events of a run that starts at `self` and steps the
    /// clock by `dt` (see [`EventSink::record_run`]).
    pub(crate) fn run(self, dt: Ns, count: u64) -> impl Iterator<Item = Event> {
        (0..count).map(move |i| Event { t: self.t + dt * i, ..self })
    }

    /// Serializes the event as one deterministic JSON object.
    pub fn to_json(&self) -> Json {
        let base = Json::obj()
            .field("t_ns", self.t.0)
            .field("cpu", self.cpu.index());
        let (kind, detail) = self.kind_fields();
        let mut j = base.field("kind", kind);
        if let Json::Obj(members) = detail {
            for (k, v) in members {
                j = j.field(&k, v);
            }
        }
        j
    }

    fn kind_fields(&self) -> (&'static str, Json) {
        let access_label = |a: Access| match a {
            Access::Fetch => "fetch",
            Access::Store => "store",
        };
        match self.kind {
            EventKind::Reference { access, dist, words } => (
                "reference",
                Json::obj()
                    .field("access", access_label(access))
                    .field(
                        "dist",
                        match dist {
                            Distance::Local => "local",
                            Distance::Global => "global",
                            Distance::Remote => "remote",
                        },
                    )
                    .field("words", words),
            ),
            EventKind::PageCopied { from, to } => (
                "page-copied",
                Json::obj().field("from", region_json(from)).field("to", region_json(to)),
            ),
            EventKind::CopyAborted { from, to } => (
                "copy-aborted",
                Json::obj().field("from", region_json(from)).field("to", region_json(to)),
            ),
            EventKind::PageZeroed { region } => {
                ("page-zeroed", Json::obj().field("region", region_json(region)))
            }
            EventKind::FaultOverhead => ("fault-overhead", Json::obj()),
            EventKind::Shootdown => ("shootdown", Json::obj()),
            EventKind::PolicyDecision { lpage, access, decision } => (
                "policy-decision",
                Json::obj()
                    .field("lpage", lpage.0 as u64)
                    .field("access", access_label(access))
                    .field(
                        "decision",
                        match decision {
                            Decision::RemoteAt(c) => format!("remote-at-{}", c.index()),
                            d => d.label().to_string(),
                        },
                    ),
            ),
            EventKind::StateChanged { lpage, from, to } => (
                "state-changed",
                Json::obj()
                    .field("lpage", lpage.0 as u64)
                    .field("from", state_json(from))
                    .field("to", state_json(to)),
            ),
            EventKind::Moved { lpage, to, moves } => (
                "moved",
                Json::obj()
                    .field("lpage", lpage.0 as u64)
                    .field("to", to.index())
                    .field("moves", u64::from(moves)),
            ),
            EventKind::Replicated { lpage, at } => (
                "replicated",
                Json::obj().field("lpage", lpage.0 as u64).field("at", at.index()),
            ),
            EventKind::Pinned { lpage, moves } => (
                "pinned",
                Json::obj().field("lpage", lpage.0 as u64).field("moves", u64::from(moves)),
            ),
            EventKind::FlushPinned { lpage, flushes } => (
                "flush_pinned",
                Json::obj().field("lpage", lpage.0 as u64).field("flushes", u64::from(flushes)),
            ),
            EventKind::Reconsidered { lpage } => {
                ("reconsidered", Json::obj().field("lpage", lpage.0 as u64))
            }
            EventKind::Freed { lpage } => ("freed", Json::obj().field("lpage", lpage.0 as u64)),
            EventKind::Recovery { lpage, action } => (
                "recovery",
                Json::obj()
                    .field("lpage", lpage.map(|l| l.0 as u64))
                    .field(
                        "action",
                        match action {
                            RecoveryAction::BusRetry { attempt } => {
                                format!("bus-retry-{attempt}")
                            }
                            RecoveryAction::FrameQuarantined { frame } => match frame.region {
                                MemRegion::Global => "quarantine-global".to_string(),
                                MemRegion::Local(c) => format!("quarantine-local-{}", c.index()),
                            },
                            RecoveryAction::CorruptionRefetched => "refetch".to_string(),
                            RecoveryAction::DegradedToGlobal => "degrade-to-global".to_string(),
                        },
                    ),
            ),
            EventKind::ReclaimStarted { lpage } => {
                ("reclaim-started", Json::obj().field("lpage", lpage.0 as u64))
            }
            EventKind::VictimFlushed { lpage, at } => (
                "victim-flushed",
                Json::obj().field("lpage", lpage.0 as u64).field("at", at.index()),
            ),
            EventKind::DegradedToGlobal { lpage } => {
                ("degraded-to-global", Json::obj().field("lpage", lpage.0 as u64))
            }
            EventKind::PressureTick { at, free } => {
                ("pressure-tick", Json::obj().field("at", at.index()).field("free", free))
            }
            EventKind::NodeOffline { node, lost_frames } => (
                "node-offline",
                Json::obj().field("node", node.index()).field("lost_frames", lost_frames),
            ),
            EventKind::CpuOffline { cpu } => {
                ("cpu-offline", Json::obj().field("node", cpu.index()))
            }
            EventKind::PageRehomed { lpage, at } => (
                "page-rehomed",
                Json::obj().field("lpage", lpage.0 as u64).field("at", at.index()),
            ),
            EventKind::PageLost { lpage, at } => (
                "page-lost",
                Json::obj().field("lpage", lpage.0 as u64).field("at", at.index()),
            ),
            EventKind::ThreadsDrained { from, count } => (
                "threads-drained",
                Json::obj().field("from", from.index()).field("count", count),
            ),
            EventKind::DeadNodeFallback { lpage, at } => (
                "dead-node-fallback",
                Json::obj().field("lpage", lpage.0 as u64).field("at", at.index()),
            ),
            EventKind::MapEntered { lpage } => {
                ("map-entered", Json::obj().field("lpage", lpage.0 as u64))
            }
            EventKind::DaemonTick => ("daemon-tick", Json::obj()),
            EventKind::JobCompleted { job, of } => (
                "job-completed",
                Json::obj().field("job", u64::from(job)).field("of", u64::from(of)),
            ),
        }
    }
}

/// A consumer of the event stream.
///
/// Sinks are handed every event in emission order; they must not assume
/// anything about wall-clock time (the stream is pure virtual time) and
/// must not panic — a sink runs inside the simulation's hot path.
pub trait EventSink {
    /// Receives one event.
    fn record(&mut self, event: &Event);

    /// Receives a run of `count` events that differ only in their clock:
    /// element `i` is `first` stamped `first.t + i * dt`. The machine
    /// tier reports references this way ([`MachineEvent::Access`]). The
    /// default expands the run into [`EventSink::record`] calls — the one
    /// shim every sink that keeps or counts events one by one relies on;
    /// an aggregating sink may take the run whole instead.
    fn record_run(&mut self, first: &Event, dt: Ns, count: u64) {
        for event in first.run(dt, count) {
            self.record(&event);
        }
    }
}

/// A shareable, thread-safe sink handle. The simulation layers each
/// hold a clone; the `Mutex` is uncontended in practice because exactly
/// one simulated thread executes at a time.
pub type SharedSink = Arc<Mutex<dyn EventSink + Send>>;

/// Wraps a sink into a [`SharedSink`] handle.
pub fn shared<S: EventSink + Send + 'static>(sink: S) -> SharedSink {
    Arc::new(Mutex::new(sink))
}

/// The simplest sink: an in-memory event log, for tests and offline
/// analysis.
#[derive(Default)]
pub struct VecSink {
    /// Every event recorded so far, in emission order.
    pub events: Vec<Event>,
}

impl VecSink {
    /// An empty log.
    pub fn new() -> VecSink {
        VecSink::default()
    }

    /// Serializes the whole log as one JSON array (deterministic:
    /// emission order, stable field order).
    pub fn to_json(&self) -> Json {
        Json::Arr(self.events.iter().map(Event::to_json).collect())
    }
}

impl EventSink for VecSink {
    fn record(&mut self, event: &Event) {
        self.events.push(*event);
    }
}

/// An `Access` run converts to its first element; the run's `dt` and
/// `count` go to [`EventSink::record_run`] beside it.
impl From<MachineEvent> for Event {
    fn from(me: MachineEvent) -> Event {
        match me {
            MachineEvent::Access { cpu, kind, dist, words, t, .. } => Event {
                t,
                cpu,
                kind: EventKind::Reference { access: kind, dist, words },
            },
            MachineEvent::PageCopy { cpu, from, to, t } => {
                Event { t, cpu, kind: EventKind::PageCopied { from, to } }
            }
            MachineEvent::CopyTimeout { cpu, from, to, t } => {
                Event { t, cpu, kind: EventKind::CopyAborted { from, to } }
            }
            MachineEvent::PageZero { cpu, region, t } => {
                Event { t, cpu, kind: EventKind::PageZeroed { region } }
            }
            MachineEvent::FaultOverhead { cpu, t } => {
                Event { t, cpu, kind: EventKind::FaultOverhead }
            }
            MachineEvent::Shootdown { cpu, t } => Event { t, cpu, kind: EventKind::Shootdown },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate;

    #[test]
    fn events_serialize_deterministically() {
        let e = Event {
            t: Ns(1234),
            cpu: CpuId(2),
            kind: EventKind::StateChanged {
                lpage: LPageId(7),
                from: PageState::ReadOnly,
                to: PageState::LocalWritable(NodeId(2)),
            },
        };
        let s = e.to_json().to_string_flat();
        assert_eq!(
            s,
            r#"{"t_ns":1234,"cpu":2,"kind":"state-changed","lpage":7,"from":"read-only","to":"local-writable@2"}"#
        );
        validate(&s).unwrap();
    }

    #[test]
    fn every_kind_serializes_to_valid_json() {
        let kinds = [
            EventKind::Reference { access: Access::Fetch, dist: Distance::Remote, words: 2 },
            EventKind::PageCopied { from: MemRegion::Global, to: MemRegion::Local(NodeId(1)) },
            EventKind::CopyAborted { from: MemRegion::Global, to: MemRegion::Local(NodeId(0)) },
            EventKind::PageZeroed { region: MemRegion::Global },
            EventKind::FaultOverhead,
            EventKind::Shootdown,
            EventKind::PolicyDecision {
                lpage: LPageId(1),
                access: Access::Store,
                decision: Decision::RemoteAt(NodeId(3)),
            },
            EventKind::Moved { lpage: LPageId(1), to: NodeId(0), moves: 4 },
            EventKind::Replicated { lpage: LPageId(1), at: NodeId(1) },
            EventKind::Pinned { lpage: LPageId(1), moves: 5 },
            EventKind::FlushPinned { lpage: LPageId(1), flushes: 9 },
            EventKind::Reconsidered { lpage: LPageId(1) },
            EventKind::Freed { lpage: LPageId(1) },
            EventKind::Recovery { lpage: None, action: RecoveryAction::BusRetry { attempt: 1 } },
            EventKind::ReclaimStarted { lpage: LPageId(1) },
            EventKind::VictimFlushed { lpage: LPageId(1), at: NodeId(2) },
            EventKind::DegradedToGlobal { lpage: LPageId(1) },
            EventKind::PressureTick { at: NodeId(0), free: 1 },
            EventKind::NodeOffline { node: NodeId(1), lost_frames: 12 },
            EventKind::CpuOffline { cpu: CpuId(2) },
            EventKind::PageRehomed { lpage: LPageId(1), at: NodeId(1) },
            EventKind::PageLost { lpage: LPageId(1), at: NodeId(1) },
            EventKind::ThreadsDrained { from: CpuId(2), count: 3 },
            EventKind::DeadNodeFallback { lpage: LPageId(1), at: NodeId(1) },
            EventKind::MapEntered { lpage: LPageId(1) },
            EventKind::DaemonTick,
            EventKind::JobCompleted { job: 3, of: 24 },
        ];
        for kind in kinds {
            let e = Event { t: Ns(1), cpu: CpuId(0), kind };
            validate(&e.to_json().to_string_flat()).unwrap();
        }
    }

    #[test]
    fn vec_sink_logs_in_order() {
        let mut sink = VecSink::new();
        for i in 0..3 {
            sink.record(&Event { t: Ns(i), cpu: CpuId(0), kind: EventKind::DaemonTick });
        }
        assert_eq!(sink.events.len(), 3);
        assert_eq!(sink.events[2].t, Ns(2));
        validate(&sink.to_json().to_string_flat()).unwrap();
    }

    #[test]
    fn machine_events_convert_to_unified_schema() {
        let e: Event = MachineEvent::Access {
            cpu: CpuId(1),
            kind: Access::Store,
            dist: Distance::Global,
            words: 3,
            t: Ns(99),
            dt: Ns(10),
            count: 4,
        }
        .into();
        assert_eq!(e.t, Ns(99), "a run converts to its first element");
        assert_eq!(e.cpu, CpuId(1));
        assert!(matches!(
            e.kind,
            EventKind::Reference { access: Access::Store, dist: Distance::Global, words: 3 }
        ));
    }

    #[test]
    fn the_default_record_run_expands_into_records() {
        let first = Event { t: Ns(5), cpu: CpuId(2), kind: EventKind::DaemonTick };
        let mut sink = VecSink::new();
        sink.record_run(&first, Ns(3), 4);
        sink.record_run(&first, Ns::ZERO, 0);
        let ts: Vec<u64> = sink.events.iter().map(|e| e.t.0).collect();
        assert_eq!(ts, [5, 8, 11, 14]);
        assert!(sink.events.iter().all(|e| e.cpu == first.cpu && e.kind == first.kind));
    }
}
