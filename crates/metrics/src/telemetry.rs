//! Aggregation over the event stream: per-page lifecycle histories, a
//! fault-recovery-latency histogram, and per-CPU reference timelines.
//!
//! [`Telemetry`] is an [`EventSink`]; install one (via
//! [`crate::events::shared`]) and every aggregate here is maintained
//! incrementally as the simulation runs. All output is deterministic:
//! pages serialize sorted by id, processors by index, and nothing
//! depends on wall-clock time or hash iteration order.

use crate::events::{Event, EventKind, EventSink, RecoveryAction};
use crate::json::Json;
use crate::latency::LatencyHistogram;
use ace_machine::{Distance, Ns};
use std::collections::HashMap;

/// The life of one logical page, reconstructed from its events:
/// allocation (first sight), replications, moves, pinning,
/// reconsideration, and release.
#[derive(Clone, Debug, Default)]
pub struct PageLifecycle {
    /// Virtual time of the first event mentioning this page.
    pub born: Ns,
    /// Read-only replicas created.
    pub replications: u32,
    /// Ownership moves between local memories.
    pub moves: u32,
    /// Virtual time the page was pinned global, if it was.
    pub pinned_at: Option<Ns>,
    /// Times a pin was released for reconsideration.
    pub reconsidered: u32,
    /// Virtual time the page was freed, if it was.
    pub freed_at: Option<Ns>,
    /// The full ordered trace: (virtual time, what happened).
    pub history: Vec<(Ns, &'static str)>,
}

impl PageLifecycle {
    fn note(&mut self, t: Ns, what: &'static str) {
        if self.history.is_empty() {
            self.born = t;
        }
        self.history.push((t, what));
    }

    /// Serializes one lifecycle (history as a compact string trace).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("born_ns", self.born.0)
            .field("replications", u64::from(self.replications))
            .field("moves", u64::from(self.moves))
            .field("pinned_at_ns", self.pinned_at.map(|t| t.0))
            .field("reconsidered", u64::from(self.reconsidered))
            .field("freed_at_ns", self.freed_at.map(|t| t.0))
            .field(
                "history",
                self.history
                    .iter()
                    .map(|(t, what)| Json::obj().field("t_ns", t.0).field("what", *what))
                    .collect::<Vec<_>>(),
            )
    }
}

/// One processor's reference timeline: words served local / global /
/// remote per fixed-width virtual-time bucket.
#[derive(Clone, Debug, Default)]
struct CpuTimeline {
    /// `buckets[i]` covers `[i*width, (i+1)*width)`: [local, global,
    /// remote] words.
    buckets: Vec<[u64; 3]>,
}

impl CpuTimeline {
    fn record(&mut self, bucket: usize, dist: Distance, words: u64) {
        if self.buckets.len() <= bucket {
            self.buckets.resize(bucket + 1, [0; 3]);
        }
        let slot = match dist {
            Distance::Local => 0,
            Distance::Global => 1,
            Distance::Remote => 2,
        };
        self.buckets[bucket][slot] += words;
    }
}

/// The full aggregation layer. Feed it the event stream (it is an
/// [`EventSink`]) and read the aggregates out at the end of the run.
pub struct Telemetry {
    /// Per-page lifecycles, keyed by logical page id.
    pages: HashMap<u32, PageLifecycle>,
    /// Latency from a recovery action to the processor's next
    /// successful page copy or state change, in virtual nanoseconds.
    recovery_latency: LatencyHistogram,
    /// Open recovery windows: processor index → window start.
    pending_recovery: HashMap<u16, Ns>,
    /// Reference timelines, indexed by processor.
    timelines: Vec<CpuTimeline>,
    /// Timeline bucket width.
    bucket_width: Ns,
    /// Total events seen.
    events_seen: u64,
}

impl Default for Telemetry {
    fn default() -> Telemetry {
        Telemetry::new()
    }
}

impl Telemetry {
    /// Default timeline bucket width: 1 ms of virtual time.
    pub const DEFAULT_BUCKET: Ns = Ns(1_000_000);

    /// A telemetry aggregator with the default timeline resolution.
    pub fn new() -> Telemetry {
        Telemetry::with_bucket(Self::DEFAULT_BUCKET)
    }

    /// A telemetry aggregator with `bucket_width` timeline resolution.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_width` is zero.
    pub fn with_bucket(bucket_width: Ns) -> Telemetry {
        assert!(bucket_width.0 > 0, "timeline bucket width must be positive");
        Telemetry {
            pages: HashMap::new(),
            recovery_latency: LatencyHistogram::new(),
            pending_recovery: HashMap::new(),
            timelines: Vec::new(),
            bucket_width,
            events_seen: 0,
        }
    }

    /// Total events consumed.
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// The lifecycle of one page, if any of its events were seen.
    pub fn page(&self, lpage: u32) -> Option<&PageLifecycle> {
        self.pages.get(&lpage)
    }

    /// Number of pages with any recorded history.
    pub fn pages_tracked(&self) -> usize {
        self.pages.len()
    }

    /// Histogram of fault-recovery latencies (virtual ns from a
    /// recovery action to the processor's next completed copy or state
    /// change).
    pub fn recovery_latency(&self) -> &LatencyHistogram {
        &self.recovery_latency
    }

    fn lifecycle(&mut self, lpage: u32) -> &mut PageLifecycle {
        self.pages.entry(lpage).or_default()
    }

    fn close_recovery(&mut self, cpu: u16, t: Ns) {
        if let Some(start) = self.pending_recovery.remove(&cpu) {
            self.recovery_latency.record(t.0.saturating_sub(start.0));
        }
    }

    /// Adds `count` references of `words` words each at `dist` to
    /// `cpu`'s timeline, element `i` at `t + i * dt`, in closed form:
    /// one step per bucket the run touches, however many elements fall
    /// in it.
    #[inline]
    fn bucket_run(&mut self, cpu: usize, dist: Distance, words: u64, t: Ns, dt: Ns, count: u64) {
        if count == 0 {
            return;
        }
        if self.timelines.len() <= cpu {
            self.timelines.resize_with(cpu + 1, CpuTimeline::default);
        }
        let timeline = &mut self.timelines[cpu];
        let (width, t, dt) = (self.bucket_width.0, t.0, dt.0);
        if dt == 0 {
            timeline.record((t / width) as usize, dist, words * count);
            return;
        }
        let mut i = 0;
        while i < count {
            let bucket = (t + i * dt) / width;
            // The first element past this bucket: the least `j` with
            // `t + j * dt >= (bucket + 1) * width`.
            let end = ((bucket + 1) * width - t).div_ceil(dt).min(count);
            timeline.record(bucket as usize, dist, words * (end - i));
            i = end;
        }
    }

    /// Serializes every aggregate as one deterministic JSON object.
    pub fn to_json(&self) -> Json {
        let mut ids: Vec<&u32> = self.pages.keys().collect();
        ids.sort_unstable();
        let pages: Vec<Json> = ids
            .iter()
            .map(|&&id| {
                let Json::Obj(members) = self.pages[&id].to_json() else { unreachable!() };
                let mut j = Json::obj().field("lpage", u64::from(id));
                for (k, v) in members {
                    j = j.field(&k, v);
                }
                j
            })
            .collect();
        let timelines: Vec<Json> = self
            .timelines
            .iter()
            .enumerate()
            .map(|(cpu, tl)| {
                let buckets: Vec<Json> = tl
                    .buckets
                    .iter()
                    .enumerate()
                    .filter(|(_, b)| b.iter().any(|&w| w > 0))
                    .map(|(i, b)| {
                        Json::obj()
                            .field("t_ns", (i as u64) * self.bucket_width.0)
                            .field("local", b[0])
                            .field("global", b[1])
                            .field("remote", b[2])
                    })
                    .collect();
                Json::obj().field("cpu", cpu).field("buckets", buckets)
            })
            .collect();
        Json::obj()
            .field("events", self.events_seen)
            .field("pages_tracked", self.pages.len())
            .field(
                "recovery_latency_ns",
                Json::obj()
                    .field("samples", self.recovery_latency.total())
                    .field("max", self.recovery_latency.max_ns())
                    .field("buckets", self.recovery_latency.sparse_json()),
            )
            .field("timeline_bucket_ns", self.bucket_width.0)
            .field("cpu_timelines", timelines)
            .field("pages", pages)
    }
}

impl EventSink for Telemetry {
    fn record(&mut self, event: &Event) {
        self.events_seen += 1;
        let t = event.t;
        let cpu = event.cpu.index() as u16;
        match event.kind {
            EventKind::Reference { dist, words, .. } => {
                self.bucket_run(cpu as usize, dist, words, t, Ns::ZERO, 1);
            }
            EventKind::PageCopied { .. } => self.close_recovery(cpu, t),
            EventKind::StateChanged { lpage, .. } => {
                self.close_recovery(cpu, t);
                self.lifecycle(lpage.0).note(t, "state-changed");
            }
            EventKind::PolicyDecision { lpage, .. } => {
                self.lifecycle(lpage.0).note(t, "decision");
            }
            EventKind::Moved { lpage, .. } => {
                let lc = self.lifecycle(lpage.0);
                lc.moves += 1;
                lc.note(t, "moved");
            }
            EventKind::Replicated { lpage, .. } => {
                let lc = self.lifecycle(lpage.0);
                lc.replications += 1;
                lc.note(t, "replicated");
            }
            EventKind::Pinned { lpage, .. } => {
                let lc = self.lifecycle(lpage.0);
                if lc.pinned_at.is_none() {
                    lc.pinned_at = Some(t);
                }
                lc.note(t, "pinned");
            }
            EventKind::FlushPinned { lpage, .. } => {
                let lc = self.lifecycle(lpage.0);
                if lc.pinned_at.is_none() {
                    lc.pinned_at = Some(t);
                }
                lc.note(t, "flush-pinned");
            }
            EventKind::Reconsidered { lpage } => {
                let lc = self.lifecycle(lpage.0);
                lc.reconsidered += 1;
                lc.pinned_at = None;
                lc.note(t, "reconsidered");
            }
            EventKind::Freed { lpage } => {
                let lc = self.lifecycle(lpage.0);
                lc.freed_at = Some(t);
                lc.note(t, "freed");
            }
            EventKind::Recovery { lpage, action } => {
                self.pending_recovery.entry(cpu).or_insert(t);
                if let Some(lpage) = lpage {
                    let what = match action {
                        RecoveryAction::BusRetry { .. } => "recovery:bus-retry",
                        RecoveryAction::FrameQuarantined { .. } => "recovery:quarantine",
                        RecoveryAction::CorruptionRefetched => "recovery:refetch",
                        RecoveryAction::DegradedToGlobal => "recovery:degrade",
                    };
                    self.lifecycle(lpage.0).note(t, what);
                }
            }
            EventKind::ReclaimStarted { lpage } => {
                self.lifecycle(lpage.0).note(t, "reclaim-started");
            }
            EventKind::VictimFlushed { lpage, .. } => {
                self.lifecycle(lpage.0).note(t, "victim-flushed");
            }
            EventKind::DegradedToGlobal { lpage } => {
                self.lifecycle(lpage.0).note(t, "degraded-to-global");
            }
            EventKind::PageRehomed { lpage, .. } => {
                self.lifecycle(lpage.0).note(t, "page-rehomed");
            }
            EventKind::PageLost { lpage, .. } => {
                self.lifecycle(lpage.0).note(t, "page-lost");
            }
            EventKind::DeadNodeFallback { lpage, .. } => {
                self.lifecycle(lpage.0).note(t, "dead-node-fallback");
            }
            EventKind::CopyAborted { .. }
            | EventKind::PageZeroed { .. }
            | EventKind::FaultOverhead
            | EventKind::Shootdown
            | EventKind::MapEntered { .. }
            | EventKind::DaemonTick
            | EventKind::PressureTick { .. }
            | EventKind::NodeOffline { .. }
            | EventKind::CpuOffline { .. }
            | EventKind::ThreadsDrained { .. }
            | EventKind::JobCompleted { .. } => {}
        }
    }

    /// A reference run goes into its processor's timeline in closed
    /// form, one step per bucket it touches; any other run is expanded.
    fn record_run(&mut self, first: &Event, dt: Ns, count: u64) {
        match first.kind {
            EventKind::Reference { dist, words, .. } => {
                self.events_seen += count;
                self.bucket_run(first.cpu.index(), dist, words, first.t, dt, count);
            }
            _ => first.run(dt, count).for_each(|event| self.record(&event)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{Decision, PageState};
    use crate::json::validate;
    use ace_machine::{Access, CpuId, NodeId};
    use mach_vm::LPageId;

    fn ev(t: u64, cpu: u16, kind: EventKind) -> Event {
        Event { t: Ns(t), cpu: CpuId(cpu), kind }
    }

    #[test]
    fn lifecycle_tracks_the_paper_sequence() {
        // alloc → replicate → move ×2 → pin → free, as one page would
        // live under the move-limit policy.
        let mut t = Telemetry::new();
        let p = LPageId(3);
        t.record(&ev(10, 0, EventKind::PolicyDecision {
            lpage: p,
            access: Access::Fetch,
            decision: Decision::Local,
        }));
        t.record(&ev(20, 0, EventKind::Replicated { lpage: p, at: NodeId(0) }));
        t.record(&ev(30, 1, EventKind::Moved { lpage: p, to: NodeId(1), moves: 1 }));
        t.record(&ev(40, 0, EventKind::Moved { lpage: p, to: NodeId(0), moves: 2 }));
        t.record(&ev(50, 0, EventKind::Pinned { lpage: p, moves: 2 }));
        t.record(&ev(60, 0, EventKind::Freed { lpage: p }));
        let lc = t.page(3).unwrap();
        assert_eq!(lc.born, Ns(10));
        assert_eq!(lc.replications, 1);
        assert_eq!(lc.moves, 2);
        assert_eq!(lc.pinned_at, Some(Ns(50)));
        assert_eq!(lc.freed_at, Some(Ns(60)));
        assert_eq!(lc.history.len(), 6);
        assert_eq!(t.pages_tracked(), 1);
        validate(&t.to_json().to_string_flat()).unwrap();
    }

    #[test]
    fn recovery_latency_spans_to_next_progress() {
        let mut t = Telemetry::new();
        t.record(&ev(100, 2, EventKind::Recovery {
            lpage: Some(LPageId(1)),
            action: RecoveryAction::BusRetry { attempt: 1 },
        }));
        // Second fault on the same cpu keeps the original window open.
        t.record(&ev(150, 2, EventKind::Recovery {
            lpage: Some(LPageId(1)),
            action: RecoveryAction::BusRetry { attempt: 2 },
        }));
        t.record(&ev(400, 2, EventKind::PageCopied {
            from: ace_machine::MemRegion::Global,
            to: ace_machine::MemRegion::Local(NodeId(2)),
        }));
        assert_eq!(t.recovery_latency().total(), 1);
        assert_eq!(t.recovery_latency().max_ns(), 300);
    }

    #[test]
    fn timelines_bucket_references_per_cpu() {
        let mut t = Telemetry::with_bucket(Ns(100));
        t.record(&ev(10, 0, EventKind::Reference {
            access: Access::Fetch,
            dist: Distance::Local,
            words: 5,
        }));
        t.record(&ev(250, 0, EventKind::Reference {
            access: Access::Store,
            dist: Distance::Global,
            words: 2,
        }));
        t.record(&ev(50, 1, EventKind::Reference {
            access: Access::Fetch,
            dist: Distance::Remote,
            words: 1,
        }));
        assert_eq!(t.timelines[0].buckets[0], [5, 0, 0]);
        assert_eq!(t.timelines[0].buckets[2], [0, 2, 0]);
        assert_eq!(t.timelines[1].buckets[0], [0, 0, 1]);
        let s = t.to_json().to_string_flat();
        validate(&s).unwrap();
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// A run taken whole aggregates exactly like its elements taken
        /// one by one: runs with `dt = 0`, runs of one, runs stepping
        /// inside one bucket and across many, and runs stepping over
        /// whole buckets at a time.
        #[test]
        fn a_reference_run_aggregates_like_its_elements(
            width in 1u64..5_000,
            runs in proptest::collection::vec(
                ((0u16..3, 0u8..3, 1u64..3), (0u64..200_000, 0u8..4, 0u64..5_000, 1u64..300)),
                1..8,
            ),
        ) {
            let mut whole = Telemetry::with_bucket(Ns(width));
            let mut one_by_one = Telemetry::with_bucket(Ns(width));
            for ((cpu, dist, words), (t, shape, step, n)) in runs {
                let (dt, count) = match shape {
                    0 => (0, n),
                    1 => (step, 1),
                    2 => (step % width, n),
                    _ => (width + step, n),
                };
                let dist = [Distance::Local, Distance::Global, Distance::Remote][dist as usize];
                let first = ev(t, cpu, EventKind::Reference { access: Access::Fetch, dist, words });
                whole.record_run(&first, Ns(dt), count);
                first.run(Ns(dt), count).for_each(|e| one_by_one.record(&e));
            }
            proptest::prop_assert_eq!(whole.events_seen(), one_by_one.events_seen());
            proptest::prop_assert_eq!(
                whole.to_json().to_string_flat(),
                one_by_one.to_json().to_string_flat()
            );
        }
    }

    #[test]
    fn reconsideration_reopens_a_pin() {
        let mut t = Telemetry::new();
        let p = LPageId(9);
        t.record(&ev(5, 0, EventKind::Pinned { lpage: p, moves: 4 }));
        assert!(t.page(9).unwrap().pinned_at.is_some());
        t.record(&ev(9, 0, EventKind::Reconsidered { lpage: p }));
        let lc = t.page(9).unwrap();
        assert!(lc.pinned_at.is_none());
        assert_eq!(lc.reconsidered, 1);
    }

    #[test]
    fn state_changed_feeds_history() {
        let mut t = Telemetry::new();
        t.record(&ev(1, 0, EventKind::StateChanged {
            lpage: LPageId(4),
            from: PageState::Fresh,
            to: PageState::ReadOnly,
        }));
        assert_eq!(t.page(4).unwrap().history, vec![(Ns(1), "state-changed")]);
    }
}
