//! The NUMA manager: directory-based consistency for pages cached in
//! local memories.
//!
//! ACE local memories are managed as a cache of global memory. The
//! manager keeps, for each logical page, a directory entry recording the
//! page's state (read-only / local-writable / global-writable), which
//! local frames hold copies, whether the global frame holds current data,
//! and the page's ownership-move history. On each request it asks the
//! policy for a placement, looks up the transition in
//! [`crate::protocol::plan`] (Tables 1 and 2), and executes it against
//! the machine: copying pages, dropping mappings, and charging the
//! kernel time involved to the requesting processor's system clock.

use crate::policy::{CachePolicy, PinReason};
use crate::protocol::{plan, Cleanup, Placement, TableState};
use crate::reclaim::{LruReclaim, ReclaimCandidate, ReclaimPolicy, DEFAULT_MAX_RECLAIM_ATTEMPTS};
use crate::stats::{FaultEvent, NumaStats};
use ace_machine::{
    Access, CpuId, Distance, Frame, IdHashMap, Machine, MemRegion, NodeId, Ns, Prot,
};
use mach_vm::{LPageId, NumaError};
use numa_metrics::events::{self, Event, EventKind, RecoveryAction, SharedSink};
use std::collections::{BTreeMap, BTreeSet};

/// Translates a directory state into the event schema's mirror enum.
fn ev_state(s: StateKind) -> events::PageState {
    match s {
        StateKind::Fresh => events::PageState::Fresh,
        StateKind::ReadOnly => events::PageState::ReadOnly,
        StateKind::LocalWritable(c) => events::PageState::LocalWritable(c),
        StateKind::GlobalWritable => events::PageState::GlobalWritable,
        StateKind::RemoteShared(c) => events::PageState::RemoteShared(c),
    }
}

/// Translates a policy placement into the event schema's mirror enum.
fn ev_decision(p: Placement) -> events::Decision {
    match p {
        Placement::Local => events::Decision::Local,
        Placement::Global => events::Decision::Global,
        Placement::RemoteAt(c) => events::Decision::RemoteAt(c),
    }
}

/// Directory state of one logical page (the three states of section
/// 2.3.1, plus `Fresh` for pages that have never been placed anywhere
/// and the section 4.4 remote-reference extension state).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StateKind {
    /// Never materialized; zero-fill pending.
    Fresh,
    /// Replicated read-only in zero or more local memories.
    ReadOnly,
    /// Writable in exactly one local memory.
    LocalWritable(NodeId),
    /// In global memory, accessed directly by all processors.
    GlobalWritable,
    /// Extension (section 4.4): hosted writable in the given node's
    /// local memory; every processor maps the host frame directly (the
    /// host's own processors at local speed, the rest at remote speed).
    RemoteShared(NodeId),
}

/// Pending first-placement contents (the lazy-fill generalization of
/// the paper's lazy zero-fill: a page coming back from backing store is
/// loaded directly into whatever frame it is first placed in).
#[derive(Debug, Default, PartialEq)]
enum Fill {
    /// Nothing pending: some frame already holds current data.
    #[default]
    None,
    /// Zero-fill pending.
    Zero,
    /// Page-in contents pending.
    Data(Box<[u8]>),
}

/// Per-page directory entry.
#[derive(Debug)]
struct PageInfo {
    state: StateKind,
    /// Local frames holding copies (RO replicas, or the LW copy), sorted
    /// by node. Written only by [`NumaManager::add_copy`] and
    /// [`NumaManager::drop_copy`], which keep the residency index in
    /// step.
    locals: Vec<(NodeId, Frame)>,
    /// The page's reserved global frame, once materialized.
    global: Option<Frame>,
    /// True if the global frame holds current data.
    global_valid: bool,
    /// First-placement fill still pending (evaluated lazily).
    fill: Fill,
    /// Write-induced ownership transfers so far.
    move_count: u32,
    /// Cached copies invalidated by coherence cleanups so far (the raw,
    /// undecayed mirror of the flush-aware policy's budget; see
    /// [`CachePolicy::on_invalidation`]).
    invalidations: u32,
    /// Last node that held the page local-writable.
    last_owner: Option<NodeId>,
}

impl PageInfo {
    fn new() -> PageInfo {
        PageInfo {
            state: StateKind::Fresh,
            locals: Vec::new(),
            global: None,
            global_valid: false,
            fill: Fill::None,
            move_count: 0,
            invalidations: 0,
            last_owner: None,
        }
    }

    fn fill_pending(&self) -> bool {
        self.fill != Fill::None
    }

    /// The frame holding the page's copy in `node`'s local memory.
    fn local(&self, node: NodeId) -> Option<Frame> {
        self.locals.iter().find(|&&(n, _)| n == node).map(|&(_, f)| f)
    }
}

/// The page directory, indexed by logical page id. The pool mints ids
/// densely from zero, so a slot vector is both the cheapest lookup and
/// an ordered container: a walk visits pages in id order whatever the
/// insertion history.
#[derive(Default)]
struct Directory {
    slots: Vec<Option<PageInfo>>,
}

impl Directory {
    fn get(&self, lpage: LPageId) -> Option<&PageInfo> {
        self.slots.get(lpage.index())?.as_ref()
    }

    fn get_mut(&mut self, lpage: LPageId) -> Option<&mut PageInfo> {
        self.slots.get_mut(lpage.index())?.as_mut()
    }

    /// The page's entry, created `Fresh` if the page is unknown.
    fn entry(&mut self, lpage: LPageId) -> &mut PageInfo {
        if self.slots.len() <= lpage.index() {
            self.slots.resize_with(lpage.index() + 1, || None);
        }
        self.slots[lpage.index()].get_or_insert_with(PageInfo::new)
    }

    fn remove(&mut self, lpage: LPageId) -> Option<PageInfo> {
        self.slots.get_mut(lpage.index())?.take()
    }

    fn iter(&self) -> impl Iterator<Item = (LPageId, &PageInfo)> {
        (0u32..).map(LPageId).zip(&self.slots).filter_map(|(lp, slot)| Some((lp, slot.as_ref()?)))
    }
}

/// Read-only view of a page's directory entry, for tests and the
/// evaluation harness.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PageView {
    /// Current state.
    pub state: StateKind,
    /// Number of local copies.
    pub copies: usize,
    /// Ownership moves so far.
    pub move_count: u32,
    /// Copies invalidated by coherence cleanups so far.
    pub invalidations: u32,
    /// Whether the global frame holds current data.
    pub global_valid: bool,
}

/// The outcome of one request: what frame the requester should map, and
/// with what protection ceiling.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Grant {
    /// Frame to enter into the requester's MMU.
    pub frame: Frame,
    /// The loosest protection the NUMA layer allows for this mapping
    /// (the pmap manager intersects it with the user's maximum). For a
    /// read-only replica this is `READ`, enforcing the consistency
    /// protocol; for local-writable and global-writable mappings it is
    /// `READ_WRITE`.
    pub prot_ceiling: Prot,
}

/// Outcome of a fault-aware local frame allocation.
enum LocalAlloc {
    /// A frame that passed its ECC scrub.
    Frame(Frame),
    /// The free list ran dry (possibly after quarantining stragglers).
    NoFrames,
    /// The quarantine threshold of consecutive bad frames was hit; the
    /// memory is considered failing and placement should degrade.
    BadMemory,
}

/// The directory and protocol engine.
pub struct NumaManager {
    pages: Directory,
    /// The residency index: per node, the pages holding a frame in that
    /// node's local memory, in page-id order — `resident[n][lp] == f`
    /// exactly when `pages[lp].locals` holds `(n, f)`. Victim selection,
    /// the pressure daemon and node-loss recovery walk this instead of
    /// the whole directory. Grown on demand: the manager is built
    /// before it sees a machine.
    resident: Vec<BTreeMap<LPageId, Frame>>,
    stats: NumaStats,
    /// Ordered log of recovery and degradation actions (empty in a
    /// fault-free run with ample local frames).
    events: Vec<FaultEvent>,
    /// Optional structured event sink; see [`NumaManager::set_event_sink`].
    sink: Option<SharedSink>,
    /// Victim-selection policy for reclaim under local-frame exhaustion.
    reclaim: Box<dyn ReclaimPolicy>,
    /// Victim evictions allowed per request before it degrades to a
    /// global-writable mapping (0 disables reclaim entirely).
    max_reclaim_attempts: u32,
    /// Local memories permanently lost to hard failures. LOCAL (and
    /// remote-hosted) placements targeting these nodes degrade to
    /// global service; the pressure daemon and reclaim skip them.
    dead_nodes: BTreeSet<NodeId>,
}

impl NumaManager {
    /// An empty directory.
    pub fn new() -> NumaManager {
        NumaManager {
            pages: Directory::default(),
            resident: Vec::new(),
            stats: NumaStats::default(),
            events: Vec::new(),
            sink: None,
            reclaim: Box::new(LruReclaim),
            max_reclaim_attempts: DEFAULT_MAX_RECLAIM_ATTEMPTS,
            dead_nodes: BTreeSet::new(),
        }
    }

    /// Installs a victim-selection policy for reclaim (the default is
    /// approximate-LRU over last-touch virtual time).
    pub fn set_reclaim_policy(&mut self, policy: Box<dyn ReclaimPolicy>) {
        self.reclaim = policy;
    }

    /// Sets the per-request reclaim budget (0 disables reclaim: every
    /// exhausted LOCAL placement degrades to global immediately).
    pub fn set_max_reclaim_attempts(&mut self, attempts: u32) {
        self.max_reclaim_attempts = attempts;
    }

    /// The current per-request reclaim budget.
    pub fn max_reclaim_attempts(&self) -> u32 {
        self.max_reclaim_attempts
    }

    /// Installs a structured event sink. Every protocol action — policy
    /// decisions, state transitions, moves, replications, pins, fault
    /// recovery — is reported to it, stamped with the acting processor's
    /// virtual clock. The sink observes but never charges time, so a run
    /// with a sink installed is cost-identical to one without.
    pub fn set_event_sink(&mut self, sink: SharedSink) {
        self.sink = Some(sink);
    }

    /// Removes the structured event sink, if any.
    pub fn clear_event_sink(&mut self) -> Option<SharedSink> {
        self.sink.take()
    }

    /// Reports one event to the sink, stamped with `cpu`'s current
    /// virtual clock. Must be called with no outstanding borrow of page
    /// state (compute inside the borrow, emit after).
    pub(crate) fn emit(&self, m: &Machine, cpu: CpuId, kind: EventKind) {
        if let Some(sink) = &self.sink {
            let t = m.clocks.cpu(cpu).total();
            sink.lock().expect("event sink poisoned").record(&Event { t, cpu, kind });
        }
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> NumaStats {
        self.stats
    }

    /// Resets aggregate statistics and the recovery log (page state is
    /// preserved).
    pub fn reset_stats(&mut self) {
        self.stats = NumaStats::default();
        self.events.clear();
    }

    /// The ordered log of recovery actions taken so far.
    pub fn fault_events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Directory view of one page.
    pub fn view(&self, lpage: LPageId) -> PageView {
        match self.pages.get(lpage) {
            None => PageView {
                state: StateKind::Fresh,
                copies: 0,
                move_count: 0,
                invalidations: 0,
                global_valid: false,
            },
            Some(p) => PageView {
                state: p.state,
                copies: p.locals.len(),
                move_count: p.move_count,
                invalidations: p.invalidations,
                global_valid: p.global_valid,
            },
        }
    }

    /// Marks the page as needing zero-fill (Mach's `pmap_zero_page`,
    /// evaluated lazily; section 2.3.1).
    pub fn zero_page(&mut self, lpage: LPageId) {
        self.pages.entry(lpage).fill = Fill::Zero;
    }

    /// Marks the page as needing to be filled with `data` at first
    /// placement (page-in from backing store; same laziness as
    /// zero-fill).
    pub fn load_page(&mut self, lpage: LPageId, data: Box<[u8]>) {
        self.pages.entry(lpage).fill = Fill::Data(data);
    }

    /// Applies a pending fill to `frame`, charging `cpu` system time.
    fn apply_fill(&mut self, m: &mut Machine, lpage: LPageId, frame: Frame, cpu: CpuId) {
        match std::mem::take(&mut self.page(lpage).fill) {
            Fill::None => {}
            Fill::Zero => {
                m.kernel_zero_page(cpu, frame);
            }
            Fill::Data(data) => {
                m.mem.write_bytes(frame, 0, &data);
                m.clocks.charge_system(cpu, m.config.costs.page_copy(data.len()));
            }
        }
    }

    /// Serves one request: the heart of the pmap layer.
    ///
    /// `cpu` faulted on logical page `lpage` with an access of kind
    /// `access`; the policy decides LOCAL or GLOBAL and the manager
    /// executes the corresponding cell of Table 1 or 2. Returns the frame
    /// to map and its protection ceiling.
    ///
    /// Transient hardware faults (bus timeouts, corrupted copies, bad
    /// frames) are recovered internally; an error means placement was
    /// genuinely impossible (retry budget exhausted or no usable frame
    /// anywhere).
    pub fn request(
        &mut self,
        m: &mut Machine,
        lpage: LPageId,
        access: Access,
        cpu: CpuId,
        policy: &mut dyn CachePolicy,
    ) -> Result<Grant, NumaError> {
        self.stats.requests += 1;
        match access {
            Access::Fetch => self.stats.read_requests += 1,
            Access::Store => self.stats.write_requests += 1,
        }

        let mut decision = policy.decide(lpage, access, cpu);
        self.emit(
            m,
            cpu,
            EventKind::PolicyDecision { lpage, access, decision: ev_decision(decision) },
        );

        // Graceful degradation after a hard node failure: a placement
        // targeting a dead local memory is served globally instead,
        // permanently — the memory is not coming back.
        let home = m.home_of(cpu);
        let placement_target = match decision {
            Placement::Local => Some(home),
            Placement::RemoteAt(host) => Some(host),
            Placement::Global => None,
        };
        if let Some(target) = placement_target {
            if self.dead_nodes.contains(&target) {
                decision = Placement::Global;
                self.stats.dead_node_fallbacks += 1;
                self.events.push(FaultEvent::DeadNodeFallback { lpage, node: target });
                self.emit(m, cpu, EventKind::DeadNodeFallback { lpage, at: target });
            }
        }

        // A LOCAL decision needs a scrubbed local frame (unless the
        // requester already holds a copy); the frame is reserved up front
        // so that memory pressure — or failing local memory — can degrade
        // the decision to GLOBAL rather than fail mid-transition. The
        // cleanup below never frees frames in the requester's local
        // region when the requester holds no copy, so reserving early
        // allocates the same frame a late allocation would.
        let mut prealloc: Option<Frame> = None;
        if decision == Placement::Local {
            let has_copy = self.pages.get(lpage).is_some_and(|p| p.local(home).is_some());
            if !has_copy {
                match self.alloc_local_scrubbed(m, home, cpu) {
                    LocalAlloc::Frame(f) => prealloc = Some(f),
                    LocalAlloc::NoFrames => {
                        // Exhaustion is not failure: evict a victim page
                        // (a legal Table-1/2 downgrade) and retry. Only
                        // when the reclaim budget runs out does the
                        // request degrade to a global-writable mapping.
                        match self.try_reclaim_local_frame(m, home, cpu, lpage) {
                            Some(f) => prealloc = Some(f),
                            None => {
                                decision = Placement::Global;
                                self.stats.local_pressure_fallbacks += 1;
                                self.stats.degradations += 1;
                                self.events.push(FaultEvent::DegradedToGlobal { lpage, cpu });
                                self.emit(m, cpu, EventKind::DegradedToGlobal { lpage });
                            }
                        }
                    }
                    LocalAlloc::BadMemory => {
                        decision = Placement::Global;
                        self.stats.fault_global_fallbacks += 1;
                        self.events.push(FaultEvent::DegradedToGlobal { lpage, cpu });
                        self.emit(
                            m,
                            cpu,
                            EventKind::Recovery {
                                lpage: Some(lpage),
                                action: RecoveryAction::DegradedToGlobal,
                            },
                        );
                    }
                }
            }
        }

        // The remote-reference extension bypasses the paper's tables.
        if let Placement::RemoteAt(host) = decision {
            return self.execute_remote(m, lpage, host, cpu);
        }
        // Leaving the extension state first demotes the page to
        // global-writable; the paper's tables then apply unchanged.
        if let StateKind::RemoteShared(host) = self.pages.entry(lpage).state {
            self.leave_remote(m, lpage, host, cpu)?;
        }
        let info = self.pages.entry(lpage);
        let table_state = match info.state {
            StateKind::Fresh | StateKind::ReadOnly => TableState::ReadOnly,
            StateKind::GlobalWritable => TableState::GlobalWritable,
            StateKind::LocalWritable(owner) if owner == home => TableState::LocalWritableOwn,
            StateKind::LocalWritable(_) => TableState::LocalWritableOther,
            StateKind::RemoteShared(_) => unreachable!("demoted above"),
        };
        let p = plan(access, decision, table_state);

        // Content preservation: any transition that will copy from the
        // global frame, or end in a state whose truth is the global
        // frame, needs the global frame valid first. Sync/flush cleanups
        // subsume this; for the remaining cases do it explicitly.
        let will_need_global = p.copy_to_local || p.new_state == TableState::GlobalWritable;
        if will_need_global && !self.page(lpage).global_valid && !self.page(lpage).fill_pending() {
            self.ensure_global_valid(m, lpage, cpu)?;
        }

        // 1. Cleanup of previous cache state (top line of the cell).
        // Copies dropped here are *coherence* invalidations — the traffic
        // a flush-aware policy budgets against — unlike capacity
        // evictions (reclaim, pressure daemon), which are not reported.
        let mut invalidated: u32 = 0;
        match p.cleanup {
            Cleanup::None => {}
            Cleanup::FlushAll => {
                invalidated = self.flush(m, lpage, cpu, /* include_requester = */ true);
            }
            Cleanup::FlushOther => invalidated = self.flush(m, lpage, cpu, false),
            Cleanup::UnmapAll => self.unmap_global(m, lpage, cpu),
            Cleanup::SyncFlushOwn | Cleanup::SyncFlushOther => {
                self.ensure_global_valid(m, lpage, cpu)?;
                invalidated = self.flush(m, lpage, cpu, true);
            }
            Cleanup::SyncFlushHost | Cleanup::FlushNonHost => {
                unreachable!("extension cleanups are executed by execute_remote")
            }
        }
        if invalidated > 0 {
            self.stats.coherence_invalidations += u64::from(invalidated);
            let info = self.pages.get_mut(lpage).expect("entry created above");
            info.invalidations = info.invalidations.saturating_add(invalidated);
            policy.on_invalidation(lpage, invalidated, home);
        }

        // 2. Copy to local (middle line), satisfied for free if the
        // requester already holds a copy.
        if p.copy_to_local {
            self.ensure_local_copy(m, lpage, cpu, access, &mut prealloc)?;
        }
        // Safety net: a reserved frame the transition did not need goes
        // straight back (does not happen for the current tables, which
        // always copy-to-local when the requester lacks a copy).
        if let Some(f) = prealloc.take() {
            m.mem.free(f);
        }

        // 3. New state (bottom line), with move accounting for
        // write-induced ownership transfers. Events are computed inside
        // the directory borrow and reported after it ends.
        let info = self.pages.get_mut(lpage).expect("entry created above");
        let new_state = match p.new_state {
            TableState::ReadOnly => StateKind::ReadOnly,
            TableState::GlobalWritable => StateKind::GlobalWritable,
            TableState::LocalWritableOwn => StateKind::LocalWritable(home),
            TableState::LocalWritableOther | TableState::RemoteShared => {
                unreachable!("plans never target another node or the extension state")
            }
        };
        let prev_state = info.state;
        let mut moved: Option<(NodeId, u32)> = None;
        let mut pinned_moves: Option<u32> = None;
        let mut pinned_flushes: Option<u32> = None;
        if let StateKind::LocalWritable(owner) = new_state {
            if info.last_owner.is_some() && info.last_owner != Some(owner) {
                info.move_count += 1;
                self.stats.migrations += 1;
                policy.on_move(lpage);
                moved = Some((owner, info.move_count));
            }
            info.last_owner = Some(owner);
            // The owner's local copy is now the truth.
            info.global_valid = false;
        }
        if new_state == StateKind::GlobalWritable && info.state != StateKind::GlobalWritable {
            self.stats.to_global += 1;
            if decision == Placement::Global {
                // Attribute the pin: a flush-budget pin is counted (and
                // evented) separately from the paper's move-budget pin.
                if policy.pin_reason(lpage) == Some(PinReason::Flushes) {
                    self.stats.flush_pins += 1;
                    pinned_flushes = Some(info.invalidations);
                } else if info.move_count > 0 {
                    self.stats.pins += 1;
                    pinned_moves = Some(info.move_count);
                }
            }
        }
        info.state = new_state;
        if let Some((to, moves)) = moved {
            self.emit(m, cpu, EventKind::Moved { lpage, to, moves });
        }
        if let Some(moves) = pinned_moves {
            self.emit(m, cpu, EventKind::Pinned { lpage, moves });
        }
        if let Some(flushes) = pinned_flushes {
            self.emit(m, cpu, EventKind::FlushPinned { lpage, flushes });
        }
        if prev_state != new_state {
            self.emit(
                m,
                cpu,
                EventKind::StateChanged {
                    lpage,
                    from: ev_state(prev_state),
                    to: ev_state(new_state),
                },
            );
        }

        // Materialize the grant.
        match new_state {
            StateKind::ReadOnly => {
                let frame = self
                    .pages
                    .get(lpage)
                    .and_then(|p| p.local(home))
                    .expect("copy_to_local ensured a replica");
                Ok(Grant { frame, prot_ceiling: Prot::READ })
            }
            StateKind::LocalWritable(_) => {
                let frame = self
                    .pages
                    .get(lpage)
                    .and_then(|p| p.local(home))
                    .expect("copy_to_local ensured the owner copy");
                Ok(Grant { frame, prot_ceiling: Prot::READ_WRITE })
            }
            StateKind::GlobalWritable => {
                let frame = self.ensure_global_frame(m, lpage, cpu)?;
                Ok(Grant { frame, prot_ceiling: Prot::READ_WRITE })
            }
            StateKind::Fresh | StateKind::RemoteShared(_) => {
                unreachable!("requests always leave a placed two-level state here")
            }
        }
    }

    /// Allocates a frame in `node`'s local memory, scrubbing it (the ECC
    /// check-at-allocation model) and quarantining frames that fail.
    /// Stops after the configured threshold of consecutive bad frames:
    /// at that point the memory itself is suspect, not the frame.
    fn alloc_local_scrubbed(&mut self, m: &mut Machine, node: NodeId, cpu: CpuId) -> LocalAlloc {
        let threshold = m.fault.config().quarantine_threshold.max(1);
        let mut consecutive_bad = 0u32;
        loop {
            let Ok(f) = m.mem.alloc(MemRegion::Local(node)) else {
                return LocalAlloc::NoFrames;
            };
            if !m.fault.scrub_frame(f) {
                let used = m.mem.used_frames(MemRegion::Local(node)) as u64;
                if used > self.stats.local_peak_frames {
                    self.stats.local_peak_frames = used;
                }
                return LocalAlloc::Frame(f);
            }
            // The frame failed its scrub: retire it for good.
            m.mem.quarantine(f);
            self.stats.frame_quarantines += 1;
            self.events.push(FaultEvent::FrameQuarantined { frame: f, node });
            self.emit(
                m,
                cpu,
                EventKind::Recovery {
                    lpage: None,
                    action: RecoveryAction::FrameQuarantined { frame: f },
                },
            );
            consecutive_bad += 1;
            if consecutive_bad >= threshold {
                return LocalAlloc::BadMemory;
            }
        }
    }

    /// Copies `src` to `dst` for `lpage`, riding out transient bus
    /// timeouts (bounded retries, each charged a linearly growing
    /// backoff) and silent corruption (detected by comparing the
    /// destination with the source byte for byte, re-fetching on
    /// mismatch; the comparison is the simulator's own and charges no
    /// virtual time). In a fault-free run this is exactly one plain
    /// copy — no comparison, no RNG draws.
    fn checked_copy(
        &mut self,
        m: &mut Machine,
        lpage: LPageId,
        cpu: CpuId,
        src: Frame,
        dst: Frame,
    ) -> Result<(), NumaError> {
        if !m.fault.active() {
            m.kernel_copy_page(cpu, src, dst);
            return Ok(());
        }
        let max_retries = m.fault.config().max_copy_retries;
        let backoff = m.fault.config().retry_backoff;
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            match m.try_kernel_copy_page(cpu, src, dst) {
                Ok(_) => {
                    if m.mem.pages_equal(src, dst) {
                        return Ok(());
                    }
                    // Silent corruption caught by the comparison: the
                    // replica is re-fetched from the authoritative copy
                    // on the next loop iteration.
                    self.stats.corruptions_detected += 1;
                    self.stats.replica_refetches += 1;
                    self.events.push(FaultEvent::CorruptionDetected { lpage, cpu });
                    self.emit(
                        m,
                        cpu,
                        EventKind::Recovery {
                            lpage: Some(lpage),
                            action: RecoveryAction::CorruptionRefetched,
                        },
                    );
                }
                Err(_) => {
                    self.stats.bus_retries += 1;
                    self.events.push(FaultEvent::BusTimeoutRetried { lpage, cpu, attempt });
                    m.clocks.charge_system(cpu, Ns(backoff.0 * attempt as u64));
                    self.emit(
                        m,
                        cpu,
                        EventKind::Recovery {
                            lpage: Some(lpage),
                            action: RecoveryAction::BusRetry { attempt },
                        },
                    );
                }
            }
            if attempt > max_retries {
                return Err(NumaError::CopyUnrecoverable { lpage, attempts: attempt });
            }
        }
    }

    /// The directory's frame ownership map, for whole-machine audits:
    /// every frame any page holds, with the page it belongs to and — for
    /// a local copy private to one node — the only node whose processors
    /// may map it. `None` means any processor may map the frame (global
    /// frames, and a remote-shared page's host frame).
    pub fn frame_owners(&self) -> IdHashMap<Frame, (LPageId, Option<NodeId>)> {
        let mut owners = IdHashMap::default();
        for (lp, info) in self.pages.iter() {
            for &(c, f) in &info.locals {
                let private = match info.state {
                    StateKind::RemoteShared(_) => None,
                    _ => Some(c),
                };
                owners.insert(f, (lp, private));
            }
            if let Some(g) = info.global {
                owners.insert(g, (lp, None));
            }
        }
        owners
    }

    /// The section 4.4 extension: place (or keep) the page hosted in
    /// `host`'s local memory, with every processor mapping the host
    /// frame directly. Transition rules are the "straightforward
    /// extension" of Tables 1 and 2: establish a single host copy
    /// (syncing any dirty copy first), drop every other copy and
    /// mapping, and grant direct mappings.
    fn execute_remote(
        &mut self,
        m: &mut Machine,
        lpage: LPageId,
        host: NodeId,
        cpu: CpuId,
    ) -> Result<Grant, NumaError> {
        let host_cpu = m.config.topology.first_cpu(host);
        let state = self.page(lpage).state;
        match state {
            StateKind::RemoteShared(h) if h == host => {
                // No action: hand out the host frame.
            }
            _ => {
                // Establish a valid global image first (syncs any dirty
                // local or remote-hosted copy), then a fresh host copy.
                if self.page(lpage).fill_pending() {
                    // Fill straight into the host's local memory.
                    self.flush(m, lpage, host_cpu, true);
                    let frame = self.alloc_host_frame(m, lpage, host, host_cpu)?;
                    self.apply_fill(m, lpage, frame, cpu);
                    self.add_copy(lpage, host, frame);
                } else {
                    self.ensure_global_valid(m, lpage, cpu)?;
                    self.flush(m, lpage, host_cpu, true);
                    self.unmap_global(m, lpage, cpu);
                    if self.page(lpage).local(host).is_none() {
                        let frame = self.alloc_host_frame(m, lpage, host, host_cpu)?;
                        let src = self.page(lpage).global.expect("validated above");
                        if let Err(e) = self.checked_copy(m, lpage, cpu, src, frame) {
                            m.mem.free(frame);
                            return Err(e);
                        }
                        self.add_copy(lpage, host, frame);
                    }
                }
                let info = self.page(lpage);
                info.state = StateKind::RemoteShared(host);
                info.global_valid = false;
                self.stats.to_remote += 1;
                self.emit(
                    m,
                    cpu,
                    EventKind::StateChanged {
                        lpage,
                        from: ev_state(state),
                        to: ev_state(StateKind::RemoteShared(host)),
                    },
                );
            }
        }
        let frame = self.page(lpage).local(host).expect("remote-shared page has its host copy");
        Ok(Grant { frame, prot_ceiling: Prot::READ_WRITE })
    }

    /// Allocates a scrubbed frame in `host`'s local memory for a hosted
    /// page, reclaiming a victim if the free list is empty. Unlike a
    /// LOCAL placement there is no graceful degradation past reclaim:
    /// the caller asked for this specific memory.
    fn alloc_host_frame(
        &mut self,
        m: &mut Machine,
        lpage: LPageId,
        host: NodeId,
        cpu: CpuId,
    ) -> Result<Frame, NumaError> {
        match self.alloc_local_scrubbed(m, host, cpu) {
            LocalAlloc::Frame(f) => Ok(f),
            LocalAlloc::NoFrames => self
                .try_reclaim_local_frame(m, host, cpu, lpage)
                .ok_or(NumaError::OutOfFrames(MemRegion::Local(host))),
            LocalAlloc::BadMemory => Err(NumaError::LocalMemoryFailing { node: host }),
        }
    }

    /// Records that `lpage` now holds `frame` in `node`'s local memory.
    /// With [`drop_copy`](Self::drop_copy) the only code that writes
    /// `PageInfo::locals`, so the residency index cannot drift from the
    /// directory.
    fn add_copy(&mut self, lpage: LPageId, node: NodeId, frame: Frame) {
        let locals = &mut self.page(lpage).locals;
        let at = locals.partition_point(|&(n, _)| n < node);
        debug_assert!(locals.get(at).is_none_or(|&(n, _)| n != node), "second copy on {node}");
        locals.insert(at, (node, frame));
        if self.resident.len() <= node.index() {
            self.resident.resize_with(node.index() + 1, BTreeMap::new);
        }
        self.resident[node.index()].insert(lpage, frame);
    }

    /// Forgets `lpage`'s copy in `node`'s local memory, returning its
    /// frame (the caller unmaps and frees it).
    fn drop_copy(&mut self, lpage: LPageId, node: NodeId) -> Option<Frame> {
        let locals = &mut self.page(lpage).locals;
        let at = locals.iter().position(|&(n, _)| n == node)?;
        let (_, frame) = locals.remove(at);
        self.resident[node.index()].remove(&lpage);
        Some(frame)
    }

    /// Forgets one of `lpage`'s local copies, if it has any left (for
    /// callers that drop them all).
    fn pop_copy(&mut self, lpage: LPageId) -> Option<Frame> {
        let &(node, _) = self.page(lpage).locals.last()?;
        self.drop_copy(lpage, node)
    }

    /// The pages holding a frame in `node`'s local memory, with that
    /// frame, in page-id order (the residency index).
    pub fn resident_on(&self, node: NodeId) -> impl Iterator<Item = (LPageId, Frame)> + '_ {
        self.resident.get(node.index()).into_iter().flatten().map(|(&lp, &f)| (lp, f))
    }

    /// Pages that could legally lose their copy in `node`'s local memory:
    /// every page holding a frame there except the faulting page itself,
    /// a remote-shared host copy (it is the page's only data, mapped by
    /// every processor), and — defensively — quarantined frames. Read
    /// off the residency index, which is ordered by page id, so the
    /// policy sees a deterministic slice without a directory walk or a
    /// sort.
    pub fn reclaim_candidates(
        &self,
        m: &Machine,
        node: NodeId,
        exclude: LPageId,
    ) -> Vec<ReclaimCandidate> {
        let Some(index) = self.resident.get(node.index()) else {
            return Vec::new();
        };
        let mut out = Vec::with_capacity(index.len());
        for (&lp, &frame) in index {
            let state = self.pages.get(lp).expect("indexed pages are in the directory").state;
            if lp == exclude
                || m.mem.is_quarantined(frame)
                || matches!(state, StateKind::RemoteShared(_))
            {
                continue;
            }
            out.push(ReclaimCandidate {
                lpage: lp,
                frame,
                last_touch: m.mem.last_touch(frame),
                writable: state == StateKind::LocalWritable(node),
            });
        }
        out
    }

    /// Evicts the victim's copy from `node`'s local memory via the legal
    /// Table-1/2 downgrade: a writable copy is synced back to global
    /// first (the page becomes Global-Writable), a read-only replica is
    /// simply dropped (zero replicas is a legal RO state). On error the
    /// sync failed and the victim is left intact.
    fn evict_local_copy(
        &mut self,
        m: &mut Machine,
        victim: LPageId,
        node: NodeId,
        cpu: CpuId,
    ) -> Result<(), NumaError> {
        if !self.page(victim).global_valid {
            self.ensure_global_valid(m, victim, cpu)?;
        }
        let frame = self
            .drop_copy(victim, node)
            .expect("candidate holds a copy on the pressured node");
        for i in 0..m.n_cpus() {
            m.mmus[i].remove_frame(frame);
        }
        m.mem.free(frame);
        self.stats.flushes += 1;
        let prev = self.page(victim).state;
        if prev == StateKind::LocalWritable(node) {
            self.page(victim).state = StateKind::GlobalWritable;
            self.stats.to_global += 1;
            self.emit(
                m,
                cpu,
                EventKind::StateChanged {
                    lpage: victim,
                    from: ev_state(prev),
                    to: ev_state(StateKind::GlobalWritable),
                },
            );
        }
        Ok(())
    }

    /// The synchronous reclaim path: `node`'s free list is empty while
    /// placing `exclude`, so evict victims (picked by the reclaim
    /// policy) until an allocation succeeds or the per-request budget
    /// runs out. `None` means the caller should degrade: no victim was
    /// available, evictions kept failing, or the memory itself is bad.
    fn try_reclaim_local_frame(
        &mut self,
        m: &mut Machine,
        node: NodeId,
        cpu: CpuId,
        exclude: LPageId,
    ) -> Option<Frame> {
        if self.max_reclaim_attempts == 0 {
            return None;
        }
        self.emit(m, cpu, EventKind::ReclaimStarted { lpage: exclude });
        for _ in 0..self.max_reclaim_attempts {
            let candidates = self.reclaim_candidates(m, node, exclude);
            let victim = self.reclaim.pick_victim(&candidates)?;
            if self.evict_local_copy(m, victim, node, cpu).is_err() {
                // The victim's sync failed under injected faults; it is
                // intact, and the failed eviction consumed one attempt.
                continue;
            }
            self.stats.reclaims += 1;
            self.emit(m, cpu, EventKind::VictimFlushed { lpage: victim, at: node });
            match self.alloc_local_scrubbed(m, node, cpu) {
                LocalAlloc::Frame(f) => return Some(f),
                LocalAlloc::NoFrames => continue,
                LocalAlloc::BadMemory => return None,
            }
        }
        None
    }

    /// One scan of the background pressure daemon: for every node
    /// whose local free list is below the `low` watermark, drop cold
    /// read-only replicas (cheapest legal eviction — the global frame is
    /// already valid, so the drop is pure bookkeeping) until the free
    /// list reaches the `high` watermark or no droppable replica is
    /// left. Runs in kernel context: events are stamped with the master
    /// processor, and no virtual time is charged, so a machine above its
    /// watermarks is completely unaffected.
    pub fn pressure_tick(&mut self, m: &mut Machine, low: usize, high: usize) {
        if low == 0 {
            return;
        }
        let high = high.max(low);
        for i in 0..m.config.topology.n_nodes() {
            let c = NodeId(i as u16);
            // A dead node's free list is empty forever; scanning it
            // would report pressure on every tick with nothing to free.
            if self.dead_nodes.contains(&c) {
                continue;
            }
            if m.mem.free_frames(MemRegion::Local(c)) >= low {
                continue;
            }
            self.stats.pressure_ticks += 1;
            let free = m.mem.free_frames(MemRegion::Local(c)) as u64;
            self.emit(m, CpuId(0), EventKind::PressureTick { at: c, free });
            while m.mem.free_frames(MemRegion::Local(c)) < high {
                let Some(victim) = self.pressure_victim(m, c) else {
                    break;
                };
                self.evict_local_copy(m, victim, c, m.config.topology.first_cpu(c))
                    .expect("dropping a valid-global RO replica cannot fail");
                self.stats.reclaims += 1;
                self.emit(m, CpuId(0), EventKind::VictimFlushed { lpage: victim, at: c });
            }
        }
    }

    /// The pressure daemon's next victim on `node`: the coldest read-only
    /// replica whose global frame is valid (ties go to the lower page
    /// id), read off the residency index.
    pub fn pressure_victim(&self, m: &Machine, node: NodeId) -> Option<LPageId> {
        self.resident_on(node)
            .filter(|&(lp, _)| {
                let info = self.pages.get(lp).expect("indexed pages are in the directory");
                info.state == StateKind::ReadOnly && info.global_valid
            })
            .map(|(lp, frame)| (m.mem.last_touch(frame), lp))
            .min()
            .map(|(_, lp)| lp)
    }

    /// True if `node`'s local memory has been lost to a hard failure.
    pub fn is_node_dead(&self, node: NodeId) -> bool {
        self.dead_nodes.contains(&node)
    }

    /// The nodes lost to hard failures so far, in id order.
    pub fn dead_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.dead_nodes.iter().copied()
    }

    /// The online recovery protocol for a hard node failure: `node`'s
    /// local memory goes offline mid-run, every frame in it permanently
    /// lost. The protocol walks the node's residency index, which is in
    /// page-id order (so recovery is deterministic regardless of
    /// directory hash order) and, for each page that held a copy there:
    ///
    /// * shoots down every mapping of the dead frame on every MMU —
    ///   each removal bumps that MMU's epoch, so software TLBs
    ///   invalidate on their next translation;
    /// * drops read-only replicas whose truth survives elsewhere (the
    ///   valid global frame, or a sibling replica) — a pure re-home;
    /// * re-homes writable and remote-hosted copies: to the nearest
    ///   surviving node, when that node's memory is faster than global
    ///   memory for the dead node's processors (possible only on
    ///   hierarchical machines), else to their valid global frame (the
    ///   page becomes Global-Writable; the next LOCAL placement
    ///   re-fetches it through the checked copy path);
    /// * classifies pages whose *only* up-to-date copy died as
    ///   [`FaultEvent::PageLost`]: the page is re-materialized as
    ///   `Fresh` with a zero-fill pending, so the faulting access is
    ///   degraded (deterministic data loss) rather than a panic.
    ///
    /// Afterwards the node is marked dead: LOCAL placements for it
    /// degrade permanently, and the reclaim and pressure daemons skip
    /// it. Runs in kernel context — events are stamped with the master
    /// processor and no virtual time is charged, mirroring the pressure
    /// daemon.
    pub fn node_offline(&mut self, m: &mut Machine, node: NodeId) {
        if !self.dead_nodes.insert(node) {
            return;
        }
        let lost_frames = m.offline_node(node);
        self.stats.nodes_offlined += 1;
        self.events.push(FaultEvent::NodeOffline { node, lost_frames: lost_frames.len() as u32 });
        self.emit(
            m,
            CpuId(0),
            EventKind::NodeOffline { node, lost_frames: lost_frames.len() as u64 },
        );
        let affected: Vec<LPageId> = self.resident_on(node).map(|(lp, _)| lp).collect();
        for lpage in affected {
            self.recover_page(m, lpage, node);
        }
    }

    /// Recovers one page that held a copy on the dead node `dead`. See
    /// [`NumaManager::node_offline`] for the protocol.
    fn recover_page(&mut self, m: &mut Machine, lpage: LPageId, dead: NodeId) {
        let frame = self
            .drop_copy(lpage, dead)
            .expect("recover_page only visits pages with a copy on the dead node");
        // Shoot down every stale mapping of the dead frame. Each removal
        // bumps the MMU's epoch, invalidating software TLBs.
        for i in 0..m.n_cpus() {
            if m.mmus[i].remove_frame(frame).is_some() {
                self.stats.shootdowns += 1;
            }
        }
        let (prev, truth_survives) = {
            let info = self.page(lpage);
            let prev = info.state;
            let survives = match prev {
                // A replica's truth survives in the valid global frame,
                // in a sibling replica (when the global is valid they
                // are all byte-equal), or in a still-pending
                // first-placement fill.
                StateKind::ReadOnly => {
                    info.global_valid || !info.locals.is_empty() || info.fill != Fill::None
                }
                // The dead node held the page's only data: it survives
                // only if the global frame was still current.
                StateKind::LocalWritable(owner) if owner == dead => info.global_valid,
                StateKind::RemoteShared(host) if host == dead => info.global_valid,
                // Fresh and Global-Writable pages hold no local copies,
                // and a writable copy lives only on its owner — a copy
                // on the dead node under any other state would already
                // violate the directory invariants. Treat it as a
                // recoverable drop.
                _ => true,
            };
            (prev, survives)
        };
        if truth_survives {
            self.stats.pages_rehomed += 1;
            // A writable or hosted page re-homes off the dead node: to
            // the nearest surviving node when that node's memory is
            // faster than global memory for the dead node's processors
            // (possible only on hierarchical machines), else — always,
            // on the flat ACE — to its valid global frame.
            if matches!(prev, StateKind::LocalWritable(_) | StateKind::RemoteShared(_)) {
                match self.rehome_target(m, dead) {
                    Some(host) if self.rehost_to(m, lpage, host).is_ok() => {
                        let info = self.page(lpage);
                        info.state = StateKind::RemoteShared(host);
                        info.global_valid = false;
                        self.stats.to_remote += 1;
                    }
                    _ => {
                        self.page(lpage).state = StateKind::GlobalWritable;
                        self.stats.to_global += 1;
                    }
                }
            }
            let new = self.page(lpage).state;
            self.events.push(FaultEvent::PageRehomed { lpage, node: dead });
            self.emit(m, CpuId(0), EventKind::PageRehomed { lpage, at: dead });
            if new != prev {
                self.emit(
                    m,
                    CpuId(0),
                    EventKind::StateChanged { lpage, from: ev_state(prev), to: ev_state(new) },
                );
            }
        } else {
            // The only up-to-date copy died with the node: typed data
            // loss. The page re-materializes fresh with a zero-fill
            // pending, so the next access observes deterministic zeros
            // instead of the simulation panicking.
            {
                let info = self.page(lpage);
                info.state = StateKind::Fresh;
                info.fill = Fill::Zero;
                info.global_valid = false;
            }
            self.stats.pages_lost += 1;
            self.events.push(FaultEvent::PageLost { lpage, node: dead });
            self.emit(m, CpuId(0), EventKind::PageLost { lpage, at: dead });
            self.emit(
                m,
                CpuId(0),
                EventKind::StateChanged {
                    lpage,
                    from: ev_state(prev),
                    to: ev_state(StateKind::Fresh),
                },
            );
        }
    }

    /// The node nearest to `dead` whose surviving local memory would
    /// serve the dead node's processors faster than a global reference,
    /// if any. On the flat ACE a remote fetch always costs more than a
    /// global one, so there is never such a node and re-homing falls
    /// back to the global frame.
    fn rehome_target(&self, m: &Machine, dead: NodeId) -> Option<NodeId> {
        let topo = &m.config.topology;
        let global = m.config.costs.access(Access::Fetch, Distance::Global);
        topo.nodes_by_distance(dead, |n| !self.dead_nodes.contains(&n))
            .into_iter()
            .find(|&n| topo.access_cost(Access::Fetch, topo.hops(dead, n)) < global)
    }

    /// Copies the page's valid global image into a fresh frame on
    /// `host`, making it the page's hosted copy (the copy half of
    /// nearest-node re-homing). On failure the caller falls back to the
    /// global frame; nothing is left half-done.
    fn rehost_to(&mut self, m: &mut Machine, lpage: LPageId, host: NodeId) -> Result<(), NumaError> {
        let cpu = m.config.topology.first_cpu(host);
        let frame = self.alloc_host_frame(m, lpage, host, cpu)?;
        let src = self.page(lpage).global.expect("re-homing starts from a valid global frame");
        if let Err(e) = self.checked_copy(m, lpage, cpu, src, frame) {
            m.mem.free(frame);
            return Err(e);
        }
        self.add_copy(lpage, host, frame);
        Ok(())
    }

    /// Records a hard processor failure: `cpu` stopped executing and the
    /// scheduler drained `count` runnable threads off it to survivors.
    /// The scheduler performs the drain; the manager keeps the books so
    /// reports and tests see it. The processor's local memory stays
    /// online — pages it owned remain reachable and migrate away on
    /// their next access from a survivor.
    pub fn note_cpu_offline(&mut self, m: &Machine, cpu: CpuId, count: u32) {
        self.emit(m, CpuId(0), EventKind::CpuOffline { cpu });
        if count == 0 {
            return;
        }
        self.stats.threads_drained += u64::from(count);
        self.events.push(FaultEvent::ThreadsDrained { cpu, count });
        self.emit(m, CpuId(0), EventKind::ThreadsDrained { from: cpu, count: u64::from(count) });
    }

    /// Demotes a remote-shared page to global-writable (syncing the host
    /// copy back), so the two-level tables apply again.
    fn leave_remote(
        &mut self,
        m: &mut Machine,
        lpage: LPageId,
        host: NodeId,
        cpu: CpuId,
    ) -> Result<(), NumaError> {
        let _ = host;
        self.ensure_global_valid(m, lpage, cpu)?;
        // Drop the host frame and every mapping of it, on all cpus.
        while let Some(f) = self.pop_copy(lpage) {
            for i in 0..m.n_cpus() {
                m.mmus[i].remove_frame(f);
            }
            m.mem.free(f);
            self.stats.flushes += 1;
        }
        let info = self.page(lpage);
        let prev = info.state;
        info.state = StateKind::GlobalWritable;
        debug_assert!(info.global_valid);
        self.emit(
            m,
            cpu,
            EventKind::StateChanged {
                lpage,
                from: ev_state(prev),
                to: ev_state(StateKind::GlobalWritable),
            },
        );
        Ok(())
    }

    fn page(&mut self, lpage: LPageId) -> &mut PageInfo {
        self.pages.get_mut(lpage).expect("page entry exists")
    }

    /// Materializes the page's reserved global frame (logical page `i`
    /// corresponds to global frame `i`), zero-filling it if the zero is
    /// still pending.
    fn ensure_global_frame(
        &mut self,
        m: &mut Machine,
        lpage: LPageId,
        cpu: CpuId,
    ) -> Result<Frame, NumaError> {
        let info = self.page(lpage);
        if info.global.is_none() {
            // The pool and global memory are the same size, so the
            // reserved slot can only be missing if something else claimed
            // it — surface that as a typed error rather than panicking.
            let f = m
                .mem
                .alloc_global_at(lpage.0)
                .map_err(|_| NumaError::GlobalFrameUnavailable { lpage })?;
            info.global = Some(f);
        }
        let f = info.global.expect("just set");
        if self.page(lpage).fill_pending() {
            if self.page(lpage).fill == Fill::Zero {
                self.stats.zero_fill_global += 1;
            }
            self.apply_fill(m, lpage, f, cpu);
            self.page(lpage).global_valid = true;
        }
        Ok(f)
    }

    /// Makes the global frame hold current data, syncing from a local
    /// copy if necessary.
    fn ensure_global_valid(
        &mut self,
        m: &mut Machine,
        lpage: LPageId,
        cpu: CpuId,
    ) -> Result<(), NumaError> {
        if self.page(lpage).global_valid {
            return Ok(());
        }
        if self.page(lpage).fill_pending() {
            self.ensure_global_frame(m, lpage, cpu)?;
            return Ok(());
        }
        // Sync from any existing local copy (the LW owner's, or an RO
        // replica from a lazily zero-filled page).
        let src = self.page(lpage).locals.first().map(|&(_, f)| f);
        // An invalid global frame implies a local copy exists — unless a
        // hard failure took the copy's node down between the directory
        // update and this sync, in which case the loss is typed, not a
        // panic. The recovery protocol normally reclassifies such pages
        // before any request sees them, so this is a second line of
        // defense.
        let Some(src) = src else {
            let node =
                self.dead_nodes.iter().next().copied().unwrap_or_else(|| m.home_of(cpu));
            return Err(NumaError::PageLost { lpage, node });
        };
        let dst = self.ensure_global_frame(m, lpage, cpu)?;
        self.checked_copy(m, lpage, cpu, src, dst)?;
        self.stats.syncs += 1;
        self.page(lpage).global_valid = true;
        Ok(())
    }

    /// Ensures the requester holds a local copy, allocating and filling
    /// its frame (or consuming the frame `request` reserved up front).
    /// Replications (copies serving reads) are counted separately from
    /// the copy half of a migration.
    fn ensure_local_copy(
        &mut self,
        m: &mut Machine,
        lpage: LPageId,
        cpu: CpuId,
        access: Access,
        prealloc: &mut Option<Frame>,
    ) -> Result<(), NumaError> {
        let home = m.home_of(cpu);
        if self.page(lpage).local(home).is_some() {
            return Ok(());
        }
        let frame = match prealloc.take() {
            Some(f) => f,
            None => self.alloc_host_frame(m, lpage, home, cpu)?,
        };
        if self.page(lpage).fill_pending() {
            // Lazy fill straight into local memory: the optimization of
            // section 2.3.1 (avoid writing zeros — or paged-in data —
            // into global memory and immediately copying them).
            if self.page(lpage).fill == Fill::Zero {
                self.stats.zero_fill_local += 1;
            }
            self.apply_fill(m, lpage, frame, cpu);
        } else {
            debug_assert!(self.page(lpage).global_valid);
            // A close sibling replica can beat the global frame as the
            // copy source on hierarchical machines; on the flat ACE a
            // remote fetch always costs more than a global one, so the
            // global frame always wins there.
            let src = match self.nearest_replica_source(m, lpage, home) {
                Some(f) => {
                    self.stats.near_replications += 1;
                    f
                }
                None => self.page(lpage).global.expect("global data validated"),
            };
            if let Err(e) = self.checked_copy(m, lpage, cpu, src, frame) {
                m.mem.free(frame);
                return Err(e);
            }
            if access == Access::Fetch {
                self.stats.replications += 1;
                self.emit(m, cpu, EventKind::Replicated { lpage, at: home });
            }
        }
        self.add_copy(lpage, home, frame);
        Ok(())
    }

    /// The closest sibling replica that is a cheaper copy source than
    /// the global frame, if any: possible only on hierarchical machines
    /// (on the flat ACE a remote fetch always costs more than a global
    /// one). Only a read-only page's replicas qualify — with the global
    /// frame valid they are all byte-identical to it.
    fn nearest_replica_source(&self, m: &Machine, lpage: LPageId, to: NodeId) -> Option<Frame> {
        let topo = &m.config.topology;
        let global = m.config.costs.access(Access::Fetch, Distance::Global);
        let info = self.pages.get(lpage)?;
        if info.state != StateKind::ReadOnly {
            return None;
        }
        info.locals
            .iter()
            .filter(|&&(n, _)| n != to && !self.dead_nodes.contains(&n))
            .filter(|&&(n, _)| topo.access_cost(Access::Fetch, topo.hops(to, n)) < global)
            .min_by_key(|&&(n, _)| (topo.hops(to, n), n.index()))
            .map(|&(_, f)| f)
    }

    /// Drops local copies (and their mappings): the paper's "flush". If
    /// `include_requester` is false the requester's own copy survives
    /// (Table 2's "flush other" keeps the replica that becomes the
    /// writable copy). Returns the number of copies dropped, so callers
    /// on the coherence path can account invalidations.
    fn flush(
        &mut self,
        m: &mut Machine,
        lpage: LPageId,
        requester: CpuId,
        include_requester: bool,
    ) -> u32 {
        let home = m.home_of(requester);
        let victims: Vec<(NodeId, Frame)> = self
            .page(lpage)
            .locals
            .iter()
            .filter(|&&(c, _)| include_requester || c != home)
            .copied()
            .collect();
        let dropped = victims.len() as u32;
        for (c, f) in victims {
            // A local frame is normally mapped only on its own processor,
            // but a remote-hosted frame may be mapped anywhere.
            for i in 0..m.n_cpus() {
                m.mmus[i].remove_frame(f);
            }
            m.mem.free(f);
            self.drop_copy(lpage, c);
            self.stats.flushes += 1;
            if c != home {
                m.charge_shootdown(requester);
                self.stats.shootdowns += 1;
            }
        }
        dropped
    }

    /// Drops global-frame mappings on every processor: the paper's
    /// "unmap" (for Global-Writable pages, which have no local copies).
    fn unmap_global(&mut self, m: &mut Machine, lpage: LPageId, requester: CpuId) {
        let Some(gf) = self.pages.get(lpage).and_then(|p| p.global) else {
            return;
        };
        for i in 0..m.n_cpus() {
            if m.mmus[i].remove_frame(gf).is_some() && i != requester.index() {
                m.charge_shootdown(requester);
                self.stats.shootdowns += 1;
            }
        }
    }

    /// Drops every mapping of the page everywhere, without changing its
    /// directory state (`pmap_remove_all`, and the mechanism behind
    /// pin reconsideration).
    pub fn drop_all_mappings(&mut self, m: &mut Machine, lpage: LPageId) {
        let Some(info) = self.pages.get(lpage) else {
            return;
        };
        let frames: Vec<Frame> = info.locals.iter().map(|&(_, f)| f).chain(info.global).collect();
        for f in frames {
            for i in 0..m.n_cpus() {
                m.mmus[i].remove_frame(f);
            }
        }
    }

    /// Releases every frame the page holds and forgets its directory
    /// entry (the completion half of lazy page freeing). The page's move
    /// history dies with it: a reallocated page starts cacheable again.
    pub fn release_page(&mut self, m: &mut Machine, lpage: LPageId) {
        if self.pages.get(lpage).is_none() {
            return;
        }
        self.drop_all_mappings(m, lpage);
        while let Some(f) = self.pop_copy(lpage) {
            m.mem.free(f);
        }
        let info = self.pages.remove(lpage).expect("checked above");
        if let Some(g) = info.global {
            m.mem.free(g);
        }
        // Frees happen in kernel context with no requesting processor;
        // stamp them with the master processor.
        self.emit(m, CpuId(0), EventKind::Freed { lpage });
    }

    /// Consistency check used by tests and property harnesses: every RO
    /// replica must be byte-identical to the global frame when the global
    /// frame is valid, directory invariants must hold, and each node's
    /// residency index must say about this page exactly what its
    /// directory entry says. Returns a description of the first
    /// violation found.
    pub fn check_invariants(&self, m: &mut Machine, lpage: LPageId) -> Result<(), String> {
        let info = self.pages.get(lpage);
        // Both sides are in node order, so equal vectors is the whole
        // invariant (and that `locals` is sorted).
        let indexed: Vec<(NodeId, Frame)> = (0u16..)
            .map(NodeId)
            .zip(&self.resident)
            .filter_map(|(node, index)| Some((node, *index.get(&lpage)?)))
            .collect();
        let listed = info.map_or(&[][..], |i| &i.locals[..]);
        if indexed != listed {
            return Err(format!(
                "{lpage:?}: residency index holds {indexed:?}, directory lists {listed:?}"
            ));
        }
        let Some(info) = info else {
            return Ok(());
        };
        match info.state {
            StateKind::Fresh => {
                if !info.locals.is_empty() {
                    return Err(format!("{lpage:?}: fresh page has local copies"));
                }
            }
            StateKind::ReadOnly => {
                if info.global_valid {
                    let g = info.global.ok_or("RO valid page without global frame")?;
                    for &(c, f) in &info.locals {
                        if !m.mem.pages_equal(g, f) {
                            return Err(format!(
                                "{lpage:?}: replica on {c} differs from global"
                            ));
                        }
                    }
                } else if info.locals.len() > 1 {
                    return Err(format!(
                        "{lpage:?}: multiple replicas but global is stale"
                    ));
                }
            }
            StateKind::LocalWritable(owner) => {
                if info.locals.len() != 1 {
                    return Err(format!(
                        "{lpage:?}: LW page has {} local copies",
                        info.locals.len()
                    ));
                }
                if info.local(owner).is_none() {
                    return Err(format!("{lpage:?}: LW copy not on owner {owner}"));
                }
            }
            StateKind::GlobalWritable => {
                if !info.locals.is_empty() {
                    return Err(format!("{lpage:?}: GW page has local copies"));
                }
                if !info.global_valid {
                    return Err(format!("{lpage:?}: GW page with invalid global"));
                }
            }
            StateKind::RemoteShared(host) => {
                if info.locals.len() != 1 || info.local(host).is_none() {
                    return Err(format!(
                        "{lpage:?}: remote-shared page must have exactly the host copy"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Whole-directory half of the index invariant: every residency-index
    /// entry is a copy its page's directory entry lists, and the two
    /// hold the same number of copies — so together with the per-page
    /// check of [`check_invariants`](Self::check_invariants) over
    /// [`known_pages`](Self::known_pages), index and directory are
    /// equal as sets, with no entry left behind by a released page.
    pub fn check_residency_index(&self) -> Result<(), String> {
        let mut indexed = 0;
        for (node, index) in (0u16..).map(NodeId).zip(&self.resident) {
            for (&lp, &f) in index {
                if self.pages.get(lp).and_then(|i| i.local(node)) != Some(f) {
                    return Err(format!("residency index of {node} holds stale {lp:?} -> {f:?}"));
                }
            }
            indexed += index.len();
        }
        let listed: usize = self.pages.iter().map(|(_, i)| i.locals.len()).sum();
        if indexed != listed {
            return Err(format!("residency index holds {indexed} copies, directory {listed}"));
        }
        Ok(())
    }

    /// Copies the page's authoritative contents into `buf` (pageout),
    /// charging `cpu` system time for the copy. Fresh/zero pages read as
    /// zeros.
    pub fn read_page(&mut self, m: &mut Machine, lpage: LPageId, buf: &mut [u8], cpu: CpuId) {
        match self.truth_frame(lpage) {
            Some(f) => m.mem.read_bytes(f, 0, buf),
            None => match self.pages.get(lpage) {
                Some(info) => match &info.fill {
                    Fill::Data(d) => buf.copy_from_slice(d),
                    _ => buf.fill(0),
                },
                None => buf.fill(0),
            },
        }
        m.clocks.charge_system(cpu, m.config.costs.page_copy(buf.len()));
    }

    /// Harvests (reads and clears) the page's referenced bits across
    /// every mapping of any of its frames.
    pub fn clear_reference(&mut self, m: &mut Machine, lpage: LPageId) -> bool {
        let Some(info) = self.pages.get(lpage) else {
            return false;
        };
        let frames: Vec<Frame> = info.locals.iter().map(|&(_, f)| f).chain(info.global).collect();
        let mut referenced = false;
        for f in frames {
            for i in 0..m.n_cpus() {
                if let Some(r) = m.mmus[i].take_referenced_frame(f) {
                    referenced |= r;
                }
            }
        }
        referenced
    }

    /// The page's pending page-in contents, if a data fill has not been
    /// applied yet (debug/verification access).
    pub fn peek_fill(&self, lpage: LPageId) -> Option<&[u8]> {
        match self.pages.get(lpage).map(|p| &p.fill) {
            Some(Fill::Data(d)) => Some(&d[..]),
            _ => None,
        }
    }

    /// Iterates over all known pages (for whole-directory checks).
    pub fn known_pages(&self) -> impl Iterator<Item = LPageId> + '_ {
        self.pages.iter().map(|(lp, _)| lp)
    }

    /// The frame currently holding the page's authoritative data, if any
    /// frame has been materialized (`None` means the page is still
    /// all-zeros). Used by debug peeks and result verification.
    pub fn truth_frame(&self, lpage: LPageId) -> Option<Frame> {
        let info = self.pages.get(lpage)?;
        match info.state {
            StateKind::Fresh => None,
            StateKind::GlobalWritable => info.global,
            StateKind::LocalWritable(owner) => info.local(owner),
            StateKind::RemoteShared(host) => info.local(host),
            StateKind::ReadOnly => {
                if info.global_valid {
                    info.global
                } else {
                    info.locals.first().map(|&(_, f)| f)
                }
            }
        }
    }
}

impl Default for NumaManager {
    fn default() -> Self {
        NumaManager::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{AllGlobalPolicy, AllLocalPolicy, FlushLimitPolicy, MoveLimitPolicy};
    use ace_machine::TopologyBuilder;

    const L: LPageId = LPageId(3);

    fn setup() -> (Machine, NumaManager) {
        (Machine::new(TopologyBuilder::small(4).config()), NumaManager::new())
    }

    #[test]
    fn fresh_read_local_becomes_replicated() {
        let (mut m, mut mgr) = setup();
        let mut pol = MoveLimitPolicy::default();
        mgr.zero_page(L);
        let g = mgr.request(&mut m, L, Access::Fetch, CpuId(0), &mut pol).unwrap();
        assert_eq!(g.prot_ceiling, Prot::READ);
        assert!(matches!(g.frame.region, MemRegion::Local(NodeId(0))));
        assert_eq!(mgr.view(L).state, StateKind::ReadOnly);
        assert_eq!(mgr.stats().zero_fill_local, 1);
        // Second processor reads: replica, and global gets synced first.
        let g2 = mgr.request(&mut m, L, Access::Fetch, CpuId(1), &mut pol).unwrap();
        assert!(matches!(g2.frame.region, MemRegion::Local(NodeId(1))));
        assert_eq!(mgr.view(L).copies, 2);
        mgr.check_invariants(&mut m, L).unwrap();
    }

    #[test]
    fn fresh_write_local_becomes_local_writable() {
        let (mut m, mut mgr) = setup();
        let mut pol = MoveLimitPolicy::default();
        mgr.zero_page(L);
        let g = mgr.request(&mut m, L, Access::Store, CpuId(2), &mut pol).unwrap();
        assert_eq!(g.prot_ceiling, Prot::READ_WRITE);
        assert_eq!(mgr.view(L).state, StateKind::LocalWritable(NodeId(2)));
        assert_eq!(mgr.view(L).move_count, 0, "first placement is not a move");
        mgr.check_invariants(&mut m, L).unwrap();
    }

    #[test]
    fn write_ping_pong_counts_moves_and_preserves_data() {
        let (mut m, mut mgr) = setup();
        let mut pol = MoveLimitPolicy::new(100);
        mgr.zero_page(L);
        // cpu0 writes, then cpu1 writes, alternating; data must follow.
        let g0 = mgr.request(&mut m, L, Access::Store, CpuId(0), &mut pol).unwrap();
        m.mem.write_u32(g0.frame, 0, 11);
        let g1 = mgr.request(&mut m, L, Access::Store, CpuId(1), &mut pol).unwrap();
        assert_eq!(m.mem.read_u32(g1.frame, 0), 11, "content migrated with page");
        m.mem.write_u32(g1.frame, 0, 22);
        let g0b = mgr.request(&mut m, L, Access::Store, CpuId(0), &mut pol).unwrap();
        assert_eq!(m.mem.read_u32(g0b.frame, 0), 22);
        assert_eq!(mgr.view(L).move_count, 2);
        assert_eq!(mgr.stats().migrations, 2);
        mgr.check_invariants(&mut m, L).unwrap();
    }

    #[test]
    fn read_after_write_syncs_and_replicates() {
        let (mut m, mut mgr) = setup();
        let mut pol = MoveLimitPolicy::default();
        mgr.zero_page(L);
        let gw = mgr.request(&mut m, L, Access::Store, CpuId(0), &mut pol).unwrap();
        m.mem.write_u32(gw.frame, 8, 77);
        // Another cpu reads: sync&flush other, copy to local, Read-Only.
        let gr = mgr.request(&mut m, L, Access::Fetch, CpuId(1), &mut pol).unwrap();
        assert_eq!(m.mem.read_u32(gr.frame, 8), 77);
        assert_eq!(mgr.view(L).state, StateKind::ReadOnly);
        assert_eq!(mgr.stats().syncs, 1);
        // Owner's copy was flushed; only cpu1 holds a replica.
        assert_eq!(mgr.view(L).copies, 1);
        assert!(mgr.view(L).global_valid);
        mgr.check_invariants(&mut m, L).unwrap();
    }

    #[test]
    fn global_policy_ends_global_writable() {
        let (mut m, mut mgr) = setup();
        let mut pol = AllGlobalPolicy;
        mgr.zero_page(L);
        let g = mgr.request(&mut m, L, Access::Store, CpuId(0), &mut pol).unwrap();
        assert!(g.frame.is_global());
        assert_eq!(mgr.view(L).state, StateKind::GlobalWritable);
        assert_eq!(mgr.stats().zero_fill_global, 1);
        m.mem.write_u32(g.frame, 0, 5);
        // Other processors share the same frame directly.
        let g2 = mgr.request(&mut m, L, Access::Fetch, CpuId(3), &mut pol).unwrap();
        assert_eq!(g2.frame, g.frame);
        assert_eq!(m.mem.read_u32(g2.frame, 0), 5);
        mgr.check_invariants(&mut m, L).unwrap();
    }

    #[test]
    fn pinning_after_threshold_moves_data_to_global() {
        let (mut m, mut mgr) = setup();
        let mut pol = MoveLimitPolicy::new(1);
        mgr.zero_page(L);
        let g = mgr.request(&mut m, L, Access::Store, CpuId(0), &mut pol).unwrap();
        m.mem.write_u32(g.frame, 0, 1);
        let g = mgr.request(&mut m, L, Access::Store, CpuId(1), &mut pol).unwrap(); // move 1
        m.mem.write_u32(g.frame, 0, 2);
        let g = mgr.request(&mut m, L, Access::Store, CpuId(0), &mut pol).unwrap(); // move 2
        m.mem.write_u32(g.frame, 0, 3);
        // The policy decides from *past* moves: with 2 moves recorded and
        // threshold 1, the next request is answered GLOBAL and pins the
        // page.
        let g = mgr.request(&mut m, L, Access::Store, CpuId(1), &mut pol).unwrap();
        assert!(g.frame.is_global());
        assert_eq!(m.mem.read_u32(g.frame, 0), 3, "data synced to global");
        assert_eq!(mgr.view(L).state, StateKind::GlobalWritable);
        assert!(pol.is_pinned(L));
        assert_eq!(mgr.stats().pins, 1);
        mgr.check_invariants(&mut m, L).unwrap();
    }

    #[test]
    fn flush_limit_pins_single_writer_thrasher() {
        // The scenario the move limit is blind to: one writer, many
        // readers. Ownership never moves, but every round flushes
        // copies; the flush limit pins the page and the thrash stops.
        let (mut m, mut mgr) = setup();
        let mut pol = FlushLimitPolicy::new(2, 0);
        mgr.zero_page(L);
        let g = mgr.request(&mut m, L, Access::Store, CpuId(0), &mut pol).unwrap();
        m.mem.write_u32(g.frame, 0, 1);
        // Readers replicate (sync&flush of the writer copy: 1 copy).
        mgr.request(&mut m, L, Access::Fetch, CpuId(1), &mut pol).unwrap();
        mgr.request(&mut m, L, Access::Fetch, CpuId(2), &mut pol).unwrap();
        // Writer again: flush-other drops both replicas (2 copies).
        let g = mgr.request(&mut m, L, Access::Store, CpuId(0), &mut pol).unwrap();
        m.mem.write_u32(g.frame, 0, 2);
        assert_eq!(mgr.view(L).move_count, 0, "single-writer pages never move");
        assert_eq!(pol.invalidations(L), 3);
        // Budget passed (3 > 2): the next request pins the page global.
        let g = mgr.request(&mut m, L, Access::Fetch, CpuId(1), &mut pol).unwrap();
        assert!(g.frame.is_global());
        assert_eq!(m.mem.read_u32(g.frame, 0), 2, "data synced to global");
        assert_eq!(mgr.view(L).state, StateKind::GlobalWritable);
        assert!(pol.is_pinned(L));
        assert_eq!(mgr.stats().flush_pins, 1);
        assert_eq!(mgr.stats().pins, 0, "the move-budget counter is untouched");
        assert_eq!(mgr.stats().migrations, 0);
        assert_eq!(mgr.stats().coherence_invalidations, 4);
        assert_eq!(mgr.view(L).invalidations, 4);
        mgr.check_invariants(&mut m, L).unwrap();
        // Pinned: further traffic is served globally with no new flushes.
        let flushes = mgr.stats().flushes;
        mgr.request(&mut m, L, Access::Store, CpuId(0), &mut pol).unwrap();
        mgr.request(&mut m, L, Access::Fetch, CpuId(3), &mut pol).unwrap();
        assert_eq!(mgr.stats().flushes, flushes, "thrash has converged");
        assert_eq!(mgr.stats().coherence_invalidations, 4);
    }

    #[test]
    fn zero_flush_threshold_pins_after_first_invalidation() {
        let (mut m, mut mgr) = setup();
        let mut pol = FlushLimitPolicy::new(0, 0);
        mgr.zero_page(L);
        mgr.request(&mut m, L, Access::Store, CpuId(0), &mut pol).unwrap();
        // First coherence invalidation: the reader's sync&flush drops
        // the writer's copy.
        mgr.request(&mut m, L, Access::Fetch, CpuId(1), &mut pol).unwrap();
        assert_eq!(pol.invalidations(L), 1);
        let g = mgr.request(&mut m, L, Access::Store, CpuId(0), &mut pol).unwrap();
        assert!(g.frame.is_global(), "threshold 0 pins on the first flush");
        assert_eq!(mgr.stats().flush_pins, 1);
        mgr.check_invariants(&mut m, L).unwrap();
    }

    #[test]
    fn capacity_evictions_are_not_coherence_invalidations() {
        // A reclaim under frame pressure flushes a victim, but that is
        // capacity traffic, not coherence traffic: the flush budget and
        // the invalidation counters must not see it.
        let cfg = TopologyBuilder::small(2).local_frames(1).config();
        let mut m = Machine::new(cfg);
        let mut mgr = NumaManager::new();
        let mut pol = FlushLimitPolicy::new(0, 0);
        let a = LPageId(0);
        let b = LPageId(1);
        mgr.zero_page(a);
        mgr.zero_page(b);
        mgr.request(&mut m, a, Access::Store, CpuId(0), &mut pol).unwrap();
        let gb = mgr.request(&mut m, b, Access::Store, CpuId(0), &mut pol).unwrap();
        assert!(!gb.frame.is_global(), "reclaim served the request locally");
        assert_eq!(mgr.stats().reclaims, 1);
        assert_eq!(mgr.stats().coherence_invalidations, 0);
        assert_eq!(mgr.view(a).invalidations, 0);
        assert_eq!(pol.invalidations(a), 0);
        assert_eq!(pol.invalidations(b), 0);
        assert!(!pol.is_pinned(a), "victim page is not charged for its eviction");
    }

    #[test]
    fn freed_page_forgets_its_invalidation_history() {
        let (mut m, mut mgr) = setup();
        let mut pol = FlushLimitPolicy::new(0, 0);
        mgr.zero_page(L);
        mgr.request(&mut m, L, Access::Store, CpuId(0), &mut pol).unwrap();
        mgr.request(&mut m, L, Access::Fetch, CpuId(1), &mut pol).unwrap();
        pol.on_free(L);
        mgr.release_page(&mut m, L);
        assert_eq!(mgr.view(L).invalidations, 0, "directory entry forgotten");
        // Reallocated: starts cacheable again.
        mgr.zero_page(L);
        let g = mgr.request(&mut m, L, Access::Store, CpuId(0), &mut pol).unwrap();
        assert!(!g.frame.is_global());
        mgr.check_invariants(&mut m, L).unwrap();
    }

    #[test]
    fn write_to_replicated_page_flushes_other_replicas() {
        let (mut m, mut mgr) = setup();
        let mut pol = MoveLimitPolicy::default();
        mgr.zero_page(L);
        for c in 0..3 {
            mgr.request(&mut m, L, Access::Fetch, CpuId(c), &mut pol).unwrap();
        }
        assert_eq!(mgr.view(L).copies, 3);
        let g = mgr.request(&mut m, L, Access::Store, CpuId(1), &mut pol).unwrap();
        assert_eq!(mgr.view(L).state, StateKind::LocalWritable(NodeId(1)));
        assert_eq!(mgr.view(L).copies, 1, "other replicas flushed");
        assert!(matches!(g.frame.region, MemRegion::Local(NodeId(1))));
        assert!(mgr.stats().flushes >= 2);
        assert!(mgr.stats().shootdowns >= 2);
        mgr.check_invariants(&mut m, L).unwrap();
    }

    #[test]
    fn local_pressure_reclaims_a_victim_instead_of_degrading() {
        let cfg = TopologyBuilder::small(2).local_frames(1).config();
        let mut m = Machine::new(cfg);
        let mut mgr = NumaManager::new();
        let mut pol = AllLocalPolicy;
        let a = LPageId(0);
        let b = LPageId(1);
        mgr.zero_page(a);
        mgr.zero_page(b);
        let ga = mgr.request(&mut m, a, Access::Store, CpuId(0), &mut pol).unwrap();
        assert!(!ga.frame.is_global());
        m.mem.write_u32(ga.frame, 0, 41);
        // cpu0's single local frame is taken; the next page evicts `a`
        // (synced back to global — the legal downgrade) and still gets a
        // local frame.
        let gb = mgr.request(&mut m, b, Access::Store, CpuId(0), &mut pol).unwrap();
        assert!(!gb.frame.is_global(), "reclaim served the request locally");
        assert_eq!(mgr.view(a).state, StateKind::GlobalWritable);
        assert!(mgr.view(a).global_valid);
        assert_eq!(mgr.stats().reclaims, 1);
        assert_eq!(mgr.stats().syncs, 1, "writable victim flushed with a sync");
        assert_eq!(mgr.stats().degradations, 0);
        assert_eq!(mgr.stats().local_pressure_fallbacks, 0);
        mgr.check_invariants(&mut m, a).unwrap();
        mgr.check_invariants(&mut m, b).unwrap();
        // The victim's data survived the eviction, and refetching it
        // reads back the same bytes.
        let ga2 = mgr.request(&mut m, a, Access::Fetch, CpuId(1), &mut pol).unwrap();
        assert_eq!(m.mem.read_u32(ga2.frame, 0), 41);
    }

    #[test]
    fn exhausted_reclaim_budget_degrades_to_global() {
        let cfg = TopologyBuilder::small(2).local_frames(1).config();
        let mut m = Machine::new(cfg);
        let mut mgr = NumaManager::new();
        mgr.set_max_reclaim_attempts(0);
        let mut pol = AllLocalPolicy;
        let a = LPageId(0);
        let b = LPageId(1);
        mgr.zero_page(a);
        mgr.zero_page(b);
        mgr.request(&mut m, a, Access::Store, CpuId(0), &mut pol).unwrap();
        // Reclaim disabled: the old behavior, as a typed outcome.
        let gb = mgr.request(&mut m, b, Access::Store, CpuId(0), &mut pol).unwrap();
        assert!(gb.frame.is_global());
        assert_eq!(mgr.view(b).state, StateKind::GlobalWritable);
        assert_eq!(mgr.stats().reclaims, 0);
        assert_eq!(mgr.stats().degradations, 1);
        assert_eq!(mgr.stats().local_pressure_fallbacks, 1);
        assert_eq!(
            mgr.fault_events(),
            &[FaultEvent::DegradedToGlobal { lpage: b, cpu: CpuId(0) }]
        );
        // The victim kept its frame untouched.
        assert_eq!(mgr.view(a).state, StateKind::LocalWritable(NodeId(0)));
        mgr.check_invariants(&mut m, a).unwrap();
        mgr.check_invariants(&mut m, b).unwrap();
    }

    #[test]
    fn reclaim_prefers_the_coldest_replica() {
        let cfg = TopologyBuilder::small(2).local_frames(2).config();
        let mut m = Machine::new(cfg);
        let mut mgr = NumaManager::new();
        let mut pol = AllLocalPolicy;
        let a = LPageId(0);
        let b = LPageId(1);
        let c = LPageId(2);
        mgr.zero_page(a);
        mgr.zero_page(b);
        mgr.zero_page(c);
        let ga = mgr.request(&mut m, a, Access::Fetch, CpuId(0), &mut pol).unwrap();
        let gb = mgr.request(&mut m, b, Access::Fetch, CpuId(0), &mut pol).unwrap();
        // Touch `a` after `b` was placed: `b` is now the colder frame.
        m.charge_access(CpuId(0), Access::Fetch, ga.frame, 1);
        assert!(m.mem.last_touch(ga.frame) > m.mem.last_touch(gb.frame));
        mgr.request(&mut m, c, Access::Fetch, CpuId(0), &mut pol).unwrap();
        assert_eq!(mgr.view(b).copies, 0, "cold page b was evicted");
        assert_eq!(mgr.view(a).copies, 1, "hot page a survived");
        assert_eq!(mgr.stats().reclaims, 1);
        for p in [a, b, c] {
            mgr.check_invariants(&mut m, p).unwrap();
        }
    }

    #[test]
    fn pressure_tick_flushes_cold_replicas_down_to_the_watermark() {
        let cfg = TopologyBuilder::small(2).local_frames(4).config();
        let mut m = Machine::new(cfg);
        let mut mgr = NumaManager::new();
        let mut pol = AllLocalPolicy;
        // Fill all four frames with RO replicas; sync each so the global
        // copy is valid (read twice from different cpus forces the sync).
        for p in 0..4 {
            mgr.zero_page(LPageId(p));
            mgr.request(&mut m, LPageId(p), Access::Fetch, CpuId(0), &mut pol).unwrap();
            mgr.request(&mut m, LPageId(p), Access::Fetch, CpuId(1), &mut pol).unwrap();
        }
        assert_eq!(m.mem.free_frames(MemRegion::Local(NodeId(0))), 0);
        // Watermarks low=1, high=3: the daemon frees until 3 frames are
        // free on each pressured cpu, evicting the coldest replicas
        // first (the lowest page ids — they were placed earliest).
        mgr.pressure_tick(&mut m, 1, 3);
        assert_eq!(m.mem.free_frames(MemRegion::Local(NodeId(0))), 3);
        assert_eq!(m.mem.free_frames(MemRegion::Local(NodeId(1))), 3);
        assert_eq!(mgr.stats().pressure_ticks, 2);
        assert_eq!(mgr.stats().reclaims, 6);
        assert_eq!(mgr.view(LPageId(3)).copies, 2, "hottest page kept both replicas");
        for p in 0..4 {
            mgr.check_invariants(&mut m, LPageId(p)).unwrap();
        }
        // Above the watermark now: another tick is a no-op.
        let before = mgr.stats();
        mgr.pressure_tick(&mut m, 1, 3);
        assert_eq!(mgr.stats(), before);
    }

    #[test]
    fn pressure_tick_never_drops_the_only_copy_of_dirty_data() {
        let cfg = TopologyBuilder::small(2).local_frames(1).config();
        let mut m = Machine::new(cfg);
        let mut mgr = NumaManager::new();
        let mut pol = AllLocalPolicy;
        let a = LPageId(0);
        mgr.zero_page(a);
        let ga = mgr.request(&mut m, a, Access::Store, CpuId(0), &mut pol).unwrap();
        m.mem.write_u32(ga.frame, 0, 7);
        // cpu0 is below the low watermark, but its only resident page is
        // local-writable (global stale): the daemon must leave it alone.
        mgr.pressure_tick(&mut m, 1, 1);
        assert_eq!(mgr.stats().pressure_ticks, 1);
        assert_eq!(mgr.stats().reclaims, 0);
        assert_eq!(mgr.view(a).state, StateKind::LocalWritable(NodeId(0)));
        assert_eq!(m.mem.read_u32(ga.frame, 0), 7);
    }

    #[test]
    fn release_page_frees_everything_and_resets_history() {
        let (mut m, mut mgr) = setup();
        let mut pol = MoveLimitPolicy::new(0);
        mgr.zero_page(L);
        mgr.request(&mut m, L, Access::Store, CpuId(0), &mut pol).unwrap();
        mgr.request(&mut m, L, Access::Store, CpuId(1), &mut pol).unwrap();
        let free_l0 = m.mem.free_frames(MemRegion::Local(NodeId(0)));
        let free_g = m.mem.free_frames(MemRegion::Global);
        mgr.release_page(&mut m, L);
        assert!(m.mem.free_frames(MemRegion::Local(NodeId(0))) >= free_l0);
        assert!(m.mem.free_frames(MemRegion::Global) > free_g);
        assert_eq!(mgr.view(L).state, StateKind::Fresh);
        assert_eq!(mgr.view(L).move_count, 0);
    }

    #[test]
    fn global_to_local_unmap_all_transition() {
        // Exercises Table 2's Global-Writable x LOCAL cell (unmap all,
        // copy to local, Local-Writable), which only a non-pinning policy
        // reaches after a page has been global.
        let (mut m, mut mgr) = setup();
        mgr.zero_page(L);
        let g = mgr.request(&mut m, L, Access::Store, CpuId(0), &mut AllGlobalPolicy).unwrap();
        m.mem.write_u32(g.frame, 0, 9);
        let l = mgr.request(&mut m, L, Access::Store, CpuId(1), &mut AllLocalPolicy).unwrap();
        assert!(!l.frame.is_global());
        assert_eq!(m.mem.read_u32(l.frame, 0), 9);
        assert_eq!(mgr.view(L).state, StateKind::LocalWritable(NodeId(1)));
        mgr.check_invariants(&mut m, L).unwrap();
    }

    #[test]
    fn remote_placement_hosts_page_on_one_node() {
        // The section 4.4 extension: a pragma-style RemoteAt decision
        // hosts the page in one processor's local memory; everyone maps
        // the host frame directly.
        struct RemotePol(NodeId);
        impl CachePolicy for RemotePol {
            fn name(&self) -> &'static str {
                "remote-test"
            }
            fn decide(&mut self, _: LPageId, _: Access, _: CpuId) -> Placement {
                Placement::RemoteAt(self.0)
            }
        }
        let (mut m, mut mgr) = setup();
        let mut pol = RemotePol(NodeId(2));
        mgr.zero_page(L);
        let g0 = mgr.request(&mut m, L, Access::Store, CpuId(0), &mut pol).unwrap();
        assert_eq!(g0.frame.region, MemRegion::Local(NodeId(2)));
        m.mem.write_u32(g0.frame, 0, 123);
        let g1 = mgr.request(&mut m, L, Access::Fetch, CpuId(1), &mut pol).unwrap();
        assert_eq!(g1.frame, g0.frame, "everyone maps the host frame");
        assert_eq!(m.mem.read_u32(g1.frame, 0), 123);
        assert_eq!(mgr.view(L).state, StateKind::RemoteShared(NodeId(2)));
        assert_eq!(mgr.stats().to_remote, 1);
        mgr.check_invariants(&mut m, L).unwrap();
        // Charging from cpu1 to the host frame is a *remote* reference.
        let before = m.bus.remote_word_transfers;
        m.charge_access(CpuId(1), Access::Fetch, g1.frame, 1);
        assert_eq!(m.bus.remote_word_transfers, before + 1);
    }

    #[test]
    fn leaving_remote_state_syncs_host_copy() {
        struct RemoteThenLocal {
            first: bool,
        }
        impl CachePolicy for RemoteThenLocal {
            fn name(&self) -> &'static str {
                "remote-then-local"
            }
            fn decide(&mut self, _: LPageId, _: Access, _: CpuId) -> Placement {
                if std::mem::take(&mut self.first) {
                    Placement::RemoteAt(NodeId(3))
                } else {
                    Placement::Local
                }
            }
        }
        let (mut m, mut mgr) = setup();
        let mut pol = RemoteThenLocal { first: true };
        mgr.zero_page(L);
        let g = mgr.request(&mut m, L, Access::Store, CpuId(0), &mut pol).unwrap();
        m.mem.write_u32(g.frame, 4, 77);
        assert_eq!(mgr.view(L).state, StateKind::RemoteShared(NodeId(3)));
        // Next request decides Local: the page leaves the extension
        // state (host copy synced) and migrates to the requester.
        let g2 = mgr.request(&mut m, L, Access::Store, CpuId(1), &mut pol).unwrap();
        assert_eq!(g2.frame.region, MemRegion::Local(NodeId(1)));
        assert_eq!(m.mem.read_u32(g2.frame, 4), 77, "host copy synced");
        assert_eq!(mgr.view(L).state, StateKind::LocalWritable(NodeId(1)));
        mgr.check_invariants(&mut m, L).unwrap();
    }

    #[test]
    fn rehosting_moves_the_page_between_hosts() {
        struct Rehost;
        impl CachePolicy for Rehost {
            fn name(&self) -> &'static str {
                "rehost"
            }
            fn decide(&mut self, _: LPageId, _: Access, cpu: CpuId) -> Placement {
                Placement::RemoteAt(NodeId(cpu.0))
            }
        }
        let (mut m, mut mgr) = setup();
        let mut pol = Rehost;
        mgr.zero_page(L);
        let g0 = mgr.request(&mut m, L, Access::Store, CpuId(0), &mut pol).unwrap();
        m.mem.write_u32(g0.frame, 0, 5);
        let g1 = mgr.request(&mut m, L, Access::Store, CpuId(1), &mut pol).unwrap();
        assert_eq!(g1.frame.region, MemRegion::Local(NodeId(1)));
        assert_eq!(m.mem.read_u32(g1.frame, 0), 5, "content follows the host");
        assert_eq!(mgr.view(L).state, StateKind::RemoteShared(NodeId(1)));
        assert_eq!(mgr.view(L).copies, 1, "old host copy freed");
        mgr.check_invariants(&mut m, L).unwrap();
    }

    #[test]
    fn node_offline_rehomes_survivors_and_types_the_losses() {
        let (mut m, mut mgr) = setup();
        let mut pol = AllLocalPolicy;
        // Page A: replicated read-only on cpu1 and cpu2, global valid
        // (the second read forces the sync).
        let a = LPageId(0);
        mgr.zero_page(a);
        mgr.request(&mut m, a, Access::Fetch, CpuId(1), &mut pol).unwrap();
        mgr.request(&mut m, a, Access::Fetch, CpuId(2), &mut pol).unwrap();
        // Page B: local-writable on cpu1, global stale — the dead node
        // holds its only data.
        let b = LPageId(1);
        mgr.zero_page(b);
        let gb = mgr.request(&mut m, b, Access::Store, CpuId(1), &mut pol).unwrap();
        m.mem.write_u32(gb.frame, 0, 99);
        mgr.node_offline(&mut m, NodeId(1));
        assert!(mgr.is_node_dead(NodeId(1)));
        assert_eq!(mgr.stats().nodes_offlined, 1);
        assert_eq!(mgr.stats().pages_rehomed, 1, "A's replica dropped, truth survives");
        assert_eq!(mgr.stats().pages_lost, 1, "B's only copy died with the node");
        assert_eq!(mgr.view(a).state, StateKind::ReadOnly);
        assert_eq!(mgr.view(a).copies, 1);
        assert_eq!(mgr.view(b).state, StateKind::Fresh);
        mgr.check_invariants(&mut m, a).unwrap();
        mgr.check_invariants(&mut m, b).unwrap();
        // A second offline of the same node is a no-op.
        let before = mgr.stats();
        mgr.node_offline(&mut m, NodeId(1));
        assert_eq!(mgr.stats(), before);
        // B's next access observes deterministic zeros, served off-node
        // because cpu1's LOCAL placements degrade permanently.
        let gb2 = mgr.request(&mut m, b, Access::Fetch, CpuId(1), &mut pol).unwrap();
        assert!(gb2.frame.is_global());
        assert_eq!(m.mem.read_u32(gb2.frame, 0), 0, "lost page reads as zeros");
        assert_eq!(mgr.stats().dead_node_fallbacks, 1);
        assert_eq!(
            mgr.fault_events().iter().filter(|e| matches!(e, FaultEvent::PageLost { .. })).count(),
            1
        );
    }

    #[test]
    fn node_offline_shoots_down_stale_mappings() {
        let (mut m, mut mgr) = setup();
        let mut pol = AllLocalPolicy;
        mgr.zero_page(L);
        let g = mgr.request(&mut m, L, Access::Store, CpuId(2), &mut pol).unwrap();
        // Simulate the pmap layer having entered the translation.
        m.mmus[2].enter(1, 0x10, g.frame, Prot::READ_WRITE);
        let epoch_before = m.mmus[2].epoch();
        mgr.node_offline(&mut m, NodeId(2));
        assert!(m.mmus[2].probe(1, 0x10).is_none(), "stale mapping removed");
        assert!(m.mmus[2].epoch() > epoch_before, "epoch bump invalidates TLBs");
        assert!(mgr.stats().shootdowns >= 1);
        mgr.check_invariants(&mut m, L).unwrap();
    }

    #[test]
    fn pressure_daemon_skips_dead_nodes() {
        let cfg = TopologyBuilder::small(2).local_frames(1).config();
        let mut m = Machine::new(cfg);
        let mut mgr = NumaManager::new();
        mgr.node_offline(&mut m, NodeId(0));
        // cpu0's free list is empty forever; without the skip this would
        // count a pressure tick on every scan with nothing to free.
        mgr.pressure_tick(&mut m, 1, 1);
        assert_eq!(mgr.stats().pressure_ticks, 0);
    }

    #[test]
    fn a_flipped_byte_anywhere_in_the_page_is_detected_and_refetched() {
        // Every byte offset of a 2 KB page, three masks (low bit, high
        // bit, all bits), both copy directions: the sync of a dirty copy
        // back to global, and the fetch of a replica from it. Each
        // injected corruption must be detected, refetched and logged,
        // and the bytes handed out must be the source's.
        use ace_machine::CopyFault;
        let mut m = Machine::new(TopologyBuilder::flat_ace(2).config());
        let mut mgr = NumaManager::new();
        let mut pol = AllLocalPolicy;
        let psize = m.config.page_size.bytes();
        mgr.zero_page(L);
        let (mut truth, mut got) = (vec![0u8; psize], vec![0u8; psize]);
        let mut injected = 0u64;
        let mut script = |m: &mut Machine, offset: usize, mask: u8| {
            m.fault.script_copy_fault(CopyFault::Corruption);
            m.fault.script_corruption_site(offset, mask);
            injected += 1;
            injected
        };
        for offset in 0..psize {
            for mask in [0x01u8, 0x80, 0xFF] {
                // CPU 0 takes the page writable and dirties it, the
                // target byte included.
                let w = mgr.request(&mut m, L, Access::Store, CpuId(0), &mut pol).unwrap();
                truth[offset] = truth[offset].wrapping_add(mask | 2);
                truth[(offset * 7 + 3) % psize] ^= 0x5a;
                m.mem.write_bytes(w.frame, 0, &truth);
                // CPU 1 reads: the sync local -> global is corrupted.
                let n = script(&mut m, offset, mask);
                let r = mgr.request(&mut m, L, Access::Fetch, CpuId(1), &mut pol).unwrap();
                m.mem.read_bytes(r.frame, 0, &mut got);
                assert_eq!(got, truth, "offset {offset} mask {mask:#x}: sync lost the bytes");
                assert_eq!(mgr.stats().corruptions_detected, n, "offset {offset} mask {mask:#x}");
                // CPU 0 reads: the fetch global -> local is corrupted.
                let n = script(&mut m, offset, mask);
                let r = mgr.request(&mut m, L, Access::Fetch, CpuId(0), &mut pol).unwrap();
                m.mem.read_bytes(r.frame, 0, &mut got);
                assert_eq!(got, truth, "offset {offset} mask {mask:#x}: fetch lost the bytes");
                assert_eq!(mgr.stats().corruptions_detected, n, "offset {offset} mask {mask:#x}");
                assert!(!m.fault.active(), "every scripted fault was consumed");
            }
        }
        assert_eq!(injected, 2 * 3 * psize as u64);
        assert_eq!(m.fault.stats().corruptions, injected);
        assert_eq!(mgr.stats().replica_refetches, injected);
        assert_eq!(mgr.stats().bus_retries, 0);
        // The log is one detection per injection, reader by reader.
        let log = mgr.fault_events();
        assert_eq!(log.len() as u64, injected);
        for (i, e) in log.iter().enumerate() {
            let cpu = CpuId(1 - (i % 2) as u16);
            assert_eq!(*e, FaultEvent::CorruptionDetected { lpage: L, cpu }, "event {i}");
        }
        mgr.check_invariants(&mut m, L).unwrap();
    }

    #[test]
    fn checked_copy_from_a_never_touched_source_still_verifies() {
        // A frame that was never written has no host payload and reads
        // as zeros; a corrupted copy of it is a page with one non-zero
        // byte, which the comparison must still catch.
        use ace_machine::CopyFault;
        let (mut m, mut mgr) = setup();
        mgr.zero_page(L);
        let src = m.mem.alloc(MemRegion::Global).unwrap();
        let dst = m.mem.alloc(MemRegion::Local(NodeId(1))).unwrap();
        m.fault.script_copy_fault(CopyFault::Corruption);
        m.fault.script_corruption_site(17, 0x80);
        mgr.checked_copy(&mut m, L, CpuId(1), src, dst).unwrap();
        assert_eq!(mgr.stats().corruptions_detected, 1);
        assert_eq!(mgr.stats().replica_refetches, 1);
        assert_eq!(m.mem.read_u8(dst, 17), 0, "the refetch restored the zeros");
        assert!(m.mem.pages_equal(src, dst));
        // Armed by a rate that never fires: the copy is still compared,
        // and a clean one passes first time.
        let mut cfg = TopologyBuilder::small(2).config();
        cfg.faults = ace_machine::FaultConfig {
            corruption_rate: 1e-12,
            ..ace_machine::FaultConfig::disabled()
        };
        let mut m = Machine::new(cfg);
        let src = m.mem.alloc(MemRegion::Global).unwrap();
        let dst = m.mem.alloc(MemRegion::Local(NodeId(0))).unwrap();
        m.mem.write_u32(dst, 8, 0xdead_beef);
        mgr.checked_copy(&mut m, L, CpuId(0), src, dst).unwrap();
        assert_eq!(m.mem.read_u32(dst, 8), 0);
        assert_eq!(mgr.stats().corruptions_detected, 1, "nothing new detected");
    }

    #[test]
    fn read_only_to_global_syncs_before_flush_when_global_stale() {
        // A lazily zero-filled page read once (RO, single local replica,
        // global stale) then forced global must not lose its zeros.
        let (mut m, mut mgr) = setup();
        mgr.zero_page(L);
        let l = mgr.request(&mut m, L, Access::Fetch, CpuId(0), &mut AllLocalPolicy).unwrap();
        assert!(!mgr.view(L).global_valid);
        m.mem.write_u32(l.frame, 0, 0); // Replica content is zeros anyway.
        let g = mgr.request(&mut m, L, Access::Fetch, CpuId(1), &mut AllGlobalPolicy).unwrap();
        assert!(g.frame.is_global());
        assert_eq!(m.mem.read_u32(g.frame, 0), 0);
        assert!(mgr.view(L).global_valid);
        assert_eq!(mgr.view(L).copies, 0);
        mgr.check_invariants(&mut m, L).unwrap();
    }
}
