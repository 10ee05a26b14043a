//! NUMA placement policies.
//!
//! The interface provided to the NUMA manager by the policy module is a
//! single question — *should this page be placed in local or global
//! memory?* — answered per request (section 2.3.1). Policies are
//! deliberately ignorant of the protocol mechanics; the manager executes
//! whatever transition the answer implies.

use crate::protocol::Placement;
use ace_machine::{Access, CpuId, NodeId};
use mach_vm::LPageId;
use std::collections::{HashMap, HashSet};

/// Typed reason a policy holds a page pinned in global memory.
///
/// The manager uses this to attribute pin events and counters: a pin
/// whose reason is [`PinReason::Flushes`] increments `flush_pins` and
/// emits a `FlushPinned` event; every other pin keeps the paper's
/// original `pins` accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PinReason {
    /// The page's ownership-move budget was exhausted (the paper's
    /// section 2.3.2 rule).
    Moves,
    /// The page's write-invalidation budget was exhausted — the dual
    /// rule for pages that thrash replicate/flush without ever moving
    /// ownership.
    Flushes,
    /// Both budgets tripped.
    Both,
}

/// A NUMA placement policy.
pub trait CachePolicy: Send {
    /// Human-readable policy name (reported by the harness).
    fn name(&self) -> &'static str;

    /// Decides where the page should live, given the access that faulted
    /// and the requesting processor.
    fn decide(&mut self, lpage: LPageId, access: Access, cpu: CpuId) -> Placement;

    /// Notification: the page's ownership just moved between local
    /// memories in response to a write.
    fn on_move(&mut self, lpage: LPageId) {
        let _ = lpage;
    }

    /// Notification: a coherence cleanup just invalidated (flushed)
    /// `copies` cached copies of the page, on behalf of a request from
    /// a processor homed on `writer`. This is the traffic the move
    /// counter cannot see: a single-writer page whose replicas are
    /// flushed on every write never changes owner, so only this hook
    /// observes the thrash. Capacity evictions and pressure-daemon
    /// flushes are *not* reported — they are not coherence traffic.
    fn on_invalidation(&mut self, lpage: LPageId, copies: u32, writer: NodeId) {
        let _ = (lpage, copies, writer);
    }

    /// Why this policy currently holds `lpage` pinned, or `None` if it
    /// does not hold the page pinned (the default).
    fn pin_reason(&self, lpage: LPageId) -> Option<PinReason> {
        let _ = lpage;
        None
    }

    /// Notification: the logical page was freed; per-page policy state
    /// must be forgotten (a freed and reallocated page starts cacheable
    /// again).
    fn on_free(&mut self, lpage: LPageId) {
        let _ = lpage;
    }

    /// Pages whose pinning decision should be *reconsidered* now: the
    /// kernel unmaps them so their next access re-runs the policy. The
    /// default (and the paper's implementation) never reconsiders.
    fn take_reconsiderations(&mut self) -> Vec<LPageId> {
        Vec::new()
    }

    /// Applies a placement pragma for one page (section 4.3). Returns
    /// false if this policy does not support pragmas (the default).
    fn set_hint(&mut self, lpage: LPageId, placement: Placement) -> bool {
        let _ = (lpage, placement);
        false
    }

    /// Periodic daemon tick (driven by the kernel's timer, like the
    /// pageout daemon): policies that age state hook this.
    fn on_tick(&mut self) {}

    /// Number of pages this policy currently holds pinned in global
    /// memory, or `None` if the policy does not pin (the default).
    /// Wrapper policies forward to their inner policy.
    fn pinned_count(&self) -> Option<usize> {
        None
    }
}

/// The paper's policy (section 2.3.2): pages start cacheable and are
/// placed locally; once a page's ownership has moved between processors
/// more than `threshold` times, the page is pinned in global memory
/// until it is freed.
///
/// # Examples
///
/// ```
/// use ace_machine::{Access, CpuId};
/// use mach_vm::LPageId;
/// use numa_core::{CachePolicy, MoveLimitPolicy, Placement};
///
/// let mut p = MoveLimitPolicy::new(1);
/// let page = LPageId(0);
/// assert_eq!(p.decide(page, Access::Store, CpuId(0)), Placement::Local);
/// p.on_move(page);
/// p.on_move(page); // Budget exceeded: the page gets pinned.
/// assert_eq!(p.decide(page, Access::Store, CpuId(0)), Placement::Global);
/// assert!(p.is_pinned(page));
/// ```
pub struct MoveLimitPolicy {
    threshold: u32,
    moves: HashMap<LPageId, u32>,
    pinned: HashSet<LPageId>,
}

impl MoveLimitPolicy {
    /// The boot-time default threshold on the ACE.
    pub const DEFAULT_THRESHOLD: u32 = 4;

    /// A policy with the given move threshold.
    pub fn new(threshold: u32) -> MoveLimitPolicy {
        MoveLimitPolicy { threshold, moves: HashMap::new(), pinned: HashSet::new() }
    }

    /// The configured threshold.
    pub fn threshold(&self) -> u32 {
        self.threshold
    }

    /// Number of recorded moves for a page.
    pub fn moves(&self, lpage: LPageId) -> u32 {
        self.moves.get(&lpage).copied().unwrap_or(0)
    }

    /// True if the page has been pinned.
    pub fn is_pinned(&self, lpage: LPageId) -> bool {
        self.pinned.contains(&lpage)
    }

    /// Number of pages currently pinned.
    pub fn pinned_count(&self) -> usize {
        self.pinned.len()
    }

    /// The pages currently pinned, in no particular order.
    pub fn pinned_pages(&self) -> impl Iterator<Item = LPageId> + '_ {
        self.pinned.iter().copied()
    }
}

impl Default for MoveLimitPolicy {
    fn default() -> Self {
        MoveLimitPolicy::new(Self::DEFAULT_THRESHOLD)
    }
}

impl CachePolicy for MoveLimitPolicy {
    fn name(&self) -> &'static str {
        "move-limit"
    }

    fn pinned_count(&self) -> Option<usize> {
        Some(self.pinned.len())
    }

    fn decide(&mut self, lpage: LPageId, _access: Access, _cpu: CpuId) -> Placement {
        if self.moves(lpage) > self.threshold {
            self.pinned.insert(lpage);
            Placement::Global
        } else {
            Placement::Local
        }
    }

    fn on_move(&mut self, lpage: LPageId) {
        *self.moves.entry(lpage).or_insert(0) += 1;
    }

    fn on_free(&mut self, lpage: LPageId) {
        self.moves.remove(&lpage);
        self.pinned.remove(&lpage);
    }

    fn pin_reason(&self, lpage: LPageId) -> Option<PinReason> {
        self.pinned.contains(&lpage).then_some(PinReason::Moves)
    }
}

/// The write-invalidation dual of the paper's move-limit rule: pages
/// start cacheable, but once a page's *invalidation* budget is
/// exhausted — more than `threshold` cached copies flushed by coherence
/// cleanups — the page is pinned in global memory until it is freed.
///
/// Move counting is blind to single-writer sharing: a page with one
/// writer and many readers cycles replicate → write → flush-all-replicas
/// forever, paying a page copy per cycle, while its ownership (and
/// therefore its move count) never changes. Counting flushed copies
/// catches exactly that traffic.
///
/// The per-page counter decays with virtual time: every `decay_period`
/// daemon ticks it is halved, so a page that was bursty long ago and has
/// been quiet since earns its budget back. A page that has already been
/// pinned stays pinned (the paper never reconsiders; wrap in
/// [`ReconsiderPolicy`]-style aging if that is wanted).
///
/// In *re-home* mode ([`FlushLimitPolicy::with_rehome`]) a tripped page
/// is not pinned global but re-homed to the dominant writer's node via
/// the section 4.4 remote-reference extension: the writer keeps a local
/// copy and every other processor references it remotely, which also
/// ends the flush cycle.
///
/// # Examples
///
/// ```
/// use ace_machine::{Access, CpuId, NodeId};
/// use mach_vm::LPageId;
/// use numa_core::{CachePolicy, FlushLimitPolicy, Placement};
///
/// let mut p = FlushLimitPolicy::new(1, 0);
/// let page = LPageId(0);
/// assert_eq!(p.decide(page, Access::Store, CpuId(0)), Placement::Local);
/// p.on_invalidation(page, 2, NodeId(0)); // Budget exceeded: pinned.
/// assert_eq!(p.decide(page, Access::Store, CpuId(0)), Placement::Global);
/// assert!(p.is_pinned(page));
/// ```
pub struct FlushLimitPolicy {
    threshold: u32,
    decay_period: u64,
    ticks: u64,
    invals: HashMap<LPageId, u32>,
    /// Per-page invalidation counts by writer node (re-home mode only).
    writers: HashMap<LPageId, HashMap<NodeId, u32>>,
    pinned: HashSet<LPageId>,
    rehome: bool,
}

impl FlushLimitPolicy {
    /// The boot-time default invalidation threshold. A serving-style
    /// single-writer page trips it within a handful of replicate/flush
    /// cycles; a page that merely warms up a few replicas once does not.
    pub const DEFAULT_THRESHOLD: u32 = 8;

    /// The boot-time default decay period, in daemon ticks: the counter
    /// halves this often, so sustained thrash accumulates but an old
    /// burst is forgiven.
    pub const DEFAULT_DECAY_PERIOD: u64 = 16;

    /// A policy with the given invalidation threshold and decay period
    /// (in daemon ticks; 0 disables decay).
    pub fn new(threshold: u32, decay_period: u64) -> FlushLimitPolicy {
        FlushLimitPolicy {
            threshold,
            decay_period,
            ticks: 0,
            invals: HashMap::new(),
            writers: HashMap::new(),
            pinned: HashSet::new(),
            rehome: false,
        }
    }

    /// A policy that re-homes tripped pages to the dominant writer's
    /// node (remote-reference extension) instead of pinning them global.
    pub fn with_rehome(threshold: u32, decay_period: u64) -> FlushLimitPolicy {
        FlushLimitPolicy { rehome: true, ..FlushLimitPolicy::new(threshold, decay_period) }
    }

    /// The configured threshold.
    pub fn threshold(&self) -> u32 {
        self.threshold
    }

    /// Current (decayed) invalidation count for a page.
    pub fn invalidations(&self, lpage: LPageId) -> u32 {
        self.invals.get(&lpage).copied().unwrap_or(0)
    }

    /// True if the page has been pinned (or re-homed).
    pub fn is_pinned(&self, lpage: LPageId) -> bool {
        self.pinned.contains(&lpage)
    }

    /// The pages currently pinned, in no particular order.
    pub fn pinned_pages(&self) -> impl Iterator<Item = LPageId> + '_ {
        self.pinned.iter().copied()
    }

    /// The node whose writes have invalidated the most copies of this
    /// page (re-home mode tracking; ties break toward the lower node).
    pub fn dominant_writer(&self, lpage: LPageId) -> Option<NodeId> {
        self.writers
            .get(&lpage)?
            .iter()
            .max_by_key(|&(&n, &count)| (count, std::cmp::Reverse(n.index())))
            .map(|(&n, _)| n)
    }
}

impl Default for FlushLimitPolicy {
    fn default() -> Self {
        FlushLimitPolicy::new(Self::DEFAULT_THRESHOLD, Self::DEFAULT_DECAY_PERIOD)
    }
}

impl CachePolicy for FlushLimitPolicy {
    fn name(&self) -> &'static str {
        "flush-limit"
    }

    fn pinned_count(&self) -> Option<usize> {
        Some(self.pinned.len())
    }

    fn decide(&mut self, lpage: LPageId, _access: Access, _cpu: CpuId) -> Placement {
        if self.pinned.contains(&lpage) || self.invalidations(lpage) > self.threshold {
            self.pinned.insert(lpage);
            if self.rehome {
                if let Some(host) = self.dominant_writer(lpage) {
                    return Placement::RemoteAt(host);
                }
            }
            Placement::Global
        } else {
            Placement::Local
        }
    }

    fn on_invalidation(&mut self, lpage: LPageId, copies: u32, writer: NodeId) {
        let c = self.invals.entry(lpage).or_insert(0);
        *c = c.saturating_add(copies);
        if self.rehome {
            let w = self.writers.entry(lpage).or_default().entry(writer).or_insert(0);
            *w = w.saturating_add(copies);
        }
    }

    fn on_tick(&mut self) {
        self.ticks += 1;
        if self.decay_period > 0 && self.ticks.is_multiple_of(self.decay_period) {
            self.invals.retain(|_, c| {
                *c /= 2;
                *c > 0
            });
        }
    }

    fn on_free(&mut self, lpage: LPageId) {
        self.invals.remove(&lpage);
        self.writers.remove(&lpage);
        self.pinned.remove(&lpage);
    }

    fn pin_reason(&self, lpage: LPageId) -> Option<PinReason> {
        self.pinned.contains(&lpage).then_some(PinReason::Flushes)
    }
}

/// Both limits layered: the page is pinned global once *either* its
/// ownership-move budget (the paper's rule) or its write-invalidation
/// budget (the [`FlushLimitPolicy`] dual) is exhausted. Migratory pages
/// trip the move counter, single-writer thrashers trip the flush
/// counter, and well-behaved pages stay cacheable.
pub struct MoveOrFlushLimitPolicy {
    moves: MoveLimitPolicy,
    flushes: FlushLimitPolicy,
}

impl MoveOrFlushLimitPolicy {
    /// A combined policy with the given move and invalidation budgets.
    pub fn new(move_threshold: u32, flush_threshold: u32, decay_period: u64) -> Self {
        MoveOrFlushLimitPolicy {
            moves: MoveLimitPolicy::new(move_threshold),
            flushes: FlushLimitPolicy::new(flush_threshold, decay_period),
        }
    }

    /// The move-limit half.
    pub fn move_limit(&self) -> &MoveLimitPolicy {
        &self.moves
    }

    /// The flush-limit half.
    pub fn flush_limit(&self) -> &FlushLimitPolicy {
        &self.flushes
    }

    /// True if either half holds the page pinned.
    pub fn is_pinned(&self, lpage: LPageId) -> bool {
        self.moves.is_pinned(lpage) || self.flushes.is_pinned(lpage)
    }
}

impl Default for MoveOrFlushLimitPolicy {
    fn default() -> Self {
        MoveOrFlushLimitPolicy::new(
            MoveLimitPolicy::DEFAULT_THRESHOLD,
            FlushLimitPolicy::DEFAULT_THRESHOLD,
            FlushLimitPolicy::DEFAULT_DECAY_PERIOD,
        )
    }
}

impl CachePolicy for MoveOrFlushLimitPolicy {
    fn name(&self) -> &'static str {
        "move-or-flush"
    }

    fn pinned_count(&self) -> Option<usize> {
        let mut pinned: HashSet<LPageId> = self.moves.pinned_pages().collect();
        pinned.extend(self.flushes.pinned_pages());
        Some(pinned.len())
    }

    fn decide(&mut self, lpage: LPageId, access: Access, cpu: CpuId) -> Placement {
        let m = self.moves.decide(lpage, access, cpu);
        let f = self.flushes.decide(lpage, access, cpu);
        if m == Placement::Global || f != Placement::Local {
            Placement::Global
        } else {
            Placement::Local
        }
    }

    fn on_move(&mut self, lpage: LPageId) {
        self.moves.on_move(lpage);
    }

    fn on_invalidation(&mut self, lpage: LPageId, copies: u32, writer: NodeId) {
        self.flushes.on_invalidation(lpage, copies, writer);
    }

    fn on_tick(&mut self) {
        self.flushes.on_tick();
    }

    fn on_free(&mut self, lpage: LPageId) {
        self.moves.on_free(lpage);
        self.flushes.on_free(lpage);
    }

    fn pin_reason(&self, lpage: LPageId) -> Option<PinReason> {
        match (self.moves.pin_reason(lpage), self.flushes.pin_reason(lpage)) {
            (Some(_), Some(_)) => Some(PinReason::Both),
            (Some(r), None) | (None, Some(r)) => Some(r),
            (None, None) => None,
        }
    }
}

/// Baseline policy: place every page in global memory. Running an
/// application under this policy measures the paper's T_global.
pub struct AllGlobalPolicy;

impl CachePolicy for AllGlobalPolicy {
    fn name(&self) -> &'static str {
        "all-global"
    }

    fn decide(&mut self, _lpage: LPageId, _access: Access, _cpu: CpuId) -> Placement {
        Placement::Global
    }
}

/// Baseline policy: always answer LOCAL, regardless of movement history.
/// On a single-processor machine this realizes the paper's T_local (all
/// data in local memory); on multiple processors it degenerates into
/// unbounded page ping-ponging and is useful for stress tests.
pub struct AllLocalPolicy;

impl CachePolicy for AllLocalPolicy {
    fn name(&self) -> &'static str {
        "all-local"
    }

    fn decide(&mut self, _lpage: LPageId, _access: Access, _cpu: CpuId) -> Placement {
        Placement::Local
    }
}

/// Application placement pragmas (section 4.3), layered over a fallback
/// policy: a region of virtual memory can be marked *cacheable* (place
/// locally) or *noncacheable* (place globally); unhinted pages fall
/// through to the inner policy.
pub struct PragmaPolicy<P: CachePolicy + 'static> {
    hints: HashMap<LPageId, Placement>,
    inner: P,
}

impl<P: CachePolicy + 'static> PragmaPolicy<P> {
    /// Wraps `inner` with an empty hint table.
    pub fn new(inner: P) -> PragmaPolicy<P> {
        PragmaPolicy { hints: HashMap::new(), inner }
    }

    /// Removes the hint for one logical page.
    pub fn clear_hint(&mut self, lpage: LPageId) {
        self.hints.remove(&lpage);
    }

    /// Access to the wrapped policy.
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

impl<P: CachePolicy + 'static> CachePolicy for PragmaPolicy<P> {
    fn name(&self) -> &'static str {
        "pragma"
    }

    fn set_hint(&mut self, lpage: LPageId, placement: Placement) -> bool {
        self.hints.insert(lpage, placement);
        true
    }

    fn decide(&mut self, lpage: LPageId, access: Access, cpu: CpuId) -> Placement {
        match self.hints.get(&lpage) {
            Some(&p) => p,
            None => self.inner.decide(lpage, access, cpu),
        }
    }

    fn on_move(&mut self, lpage: LPageId) {
        self.inner.on_move(lpage);
    }

    fn on_invalidation(&mut self, lpage: LPageId, copies: u32, writer: NodeId) {
        self.inner.on_invalidation(lpage, copies, writer);
    }

    fn pin_reason(&self, lpage: LPageId) -> Option<PinReason> {
        self.inner.pin_reason(lpage)
    }

    fn on_free(&mut self, lpage: LPageId) {
        self.hints.remove(&lpage);
        self.inner.on_free(lpage);
    }

    fn take_reconsiderations(&mut self) -> Vec<LPageId> {
        self.inner.take_reconsiderations()
    }

    fn on_tick(&mut self) {
        // Forwarding the tick is what lets an aging inner policy (e.g.
        // ReconsiderPolicy) keep aging underneath a pragma layer.
        self.inner.on_tick();
    }

    fn pinned_count(&self) -> Option<usize> {
        self.inner.pinned_count()
    }
}

/// A move-limit policy that *reconsiders* pinning decisions (the paper's
/// footnote 4: "our system never reconsiders a pinning decision ... but
/// one can imagine situations in which it would" and section 5).
///
/// A periodic daemon tick ages pinned pages; a page that has stayed
/// pinned for `period` ticks is released: its move budget is reset and
/// the kernel drops its mappings, so its next access re-runs the policy
/// and it may become cacheable again if its sharing behaviour changed.
pub struct ReconsiderPolicy {
    base: MoveLimitPolicy,
    period: u64,
    ticks: u64,
    /// Tick at which each page was pinned.
    pinned_at: HashMap<LPageId, u64>,
    /// Pages released and awaiting kernel unmap.
    pending: Vec<LPageId>,
    /// Release events so far.
    released: u64,
}

impl ReconsiderPolicy {
    /// A reconsider policy with the given move threshold and
    /// reconsideration period (in daemon ticks).
    pub fn new(threshold: u32, period: u64) -> ReconsiderPolicy {
        ReconsiderPolicy {
            base: MoveLimitPolicy::new(threshold),
            period: period.max(1),
            ticks: 0,
            pinned_at: HashMap::new(),
            pending: Vec::new(),
            released: 0,
        }
    }

    /// How many pin decisions have been released for another chance.
    pub fn reconsidered(&self) -> u64 {
        self.released
    }
}

impl CachePolicy for ReconsiderPolicy {
    fn name(&self) -> &'static str {
        "reconsider"
    }

    fn pinned_count(&self) -> Option<usize> {
        Some(self.base.pinned_count())
    }

    fn decide(&mut self, lpage: LPageId, access: Access, cpu: CpuId) -> Placement {
        let d = self.base.decide(lpage, access, cpu);
        if d == Placement::Global {
            self.pinned_at.entry(lpage).or_insert(self.ticks);
        }
        d
    }

    fn on_move(&mut self, lpage: LPageId) {
        self.base.on_move(lpage);
    }

    fn pin_reason(&self, lpage: LPageId) -> Option<PinReason> {
        self.base.pin_reason(lpage)
    }

    fn on_free(&mut self, lpage: LPageId) {
        self.base.on_free(lpage);
        self.pinned_at.remove(&lpage);
    }

    fn on_tick(&mut self) {
        self.ticks += 1;
        let mut due: Vec<LPageId> = self
            .pinned_at
            .iter()
            .filter(|(_, &at)| self.ticks.saturating_sub(at) >= self.period)
            .map(|(&l, _)| l)
            .collect();
        // Pages coming due on one tick are reconsidered (and evented) in
        // page order, not hash order.
        due.sort_unstable();
        for l in due {
            self.base.on_free(l);
            self.pinned_at.remove(&l);
            self.pending.push(l);
            self.released += 1;
        }
    }

    fn take_reconsiderations(&mut self) -> Vec<LPageId> {
        std::mem::take(&mut self.pending)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const L: LPageId = LPageId(9);
    const CPU: CpuId = CpuId(0);

    fn decide<P: CachePolicy>(p: &mut P) -> Placement {
        p.decide(L, Access::Store, CPU)
    }

    #[test]
    fn move_limit_pins_after_threshold_passed() {
        let mut p = MoveLimitPolicy::new(4);
        assert_eq!(decide(&mut p), Placement::Local);
        for _ in 0..4 {
            p.on_move(L);
        }
        // Exactly at the threshold: still cacheable ("passed", not
        // "reached").
        assert_eq!(decide(&mut p), Placement::Local);
        assert!(!p.is_pinned(L));
        p.on_move(L);
        assert_eq!(decide(&mut p), Placement::Global);
        assert!(p.is_pinned(L));
        assert_eq!(p.pinned_count(), 1);
    }

    #[test]
    fn move_limit_forgets_freed_pages() {
        let mut p = MoveLimitPolicy::new(0);
        p.on_move(L);
        assert_eq!(decide(&mut p), Placement::Global);
        p.on_free(L);
        assert_eq!(p.moves(L), 0);
        assert_eq!(decide(&mut p), Placement::Local);
    }

    #[test]
    fn zero_threshold_pins_on_first_move() {
        let mut p = MoveLimitPolicy::new(0);
        assert_eq!(decide(&mut p), Placement::Local);
        p.on_move(L);
        assert_eq!(decide(&mut p), Placement::Global);
    }

    #[test]
    fn baselines_are_constant() {
        assert_eq!(decide(&mut AllGlobalPolicy), Placement::Global);
        assert_eq!(decide(&mut AllLocalPolicy), Placement::Local);
        let mut g = AllGlobalPolicy;
        for _ in 0..10 {
            g.on_move(L);
        }
        assert_eq!(decide(&mut g), Placement::Global);
    }

    #[test]
    fn pragma_overrides_inner() {
        let mut p = PragmaPolicy::new(AllGlobalPolicy);
        assert_eq!(decide(&mut p), Placement::Global);
        p.set_hint(L, Placement::Local);
        assert_eq!(decide(&mut p), Placement::Local);
        p.clear_hint(L);
        assert_eq!(decide(&mut p), Placement::Global);
        // on_free drops the hint.
        p.set_hint(L, Placement::Local);
        p.on_free(L);
        assert_eq!(decide(&mut p), Placement::Global);
    }

    #[test]
    fn pragma_over_reconsider_composes() {
        // Regression: PragmaPolicy used to swallow daemon ticks, so a
        // wrapped ReconsiderPolicy never aged its pins and pinned pages
        // stayed pinned forever.
        let mut p = PragmaPolicy::new(ReconsiderPolicy::new(0, 2));
        p.on_move(L);
        assert_eq!(decide(&mut p), Placement::Global); // Pinned via inner.
        assert_eq!(p.pinned_count(), Some(1));
        assert!(p.set_hint(LPageId(5), Placement::Global), "pragma accepts hints");
        p.on_tick();
        p.on_tick();
        assert_eq!(p.take_reconsiderations(), vec![L], "ticks reach the inner policy");
        assert_eq!(p.pinned_count(), Some(0));
        assert_eq!(decide(&mut p), Placement::Local, "released page is cacheable again");
        // The hint set through the trait still overrides.
        assert_eq!(p.decide(LPageId(5), Access::Store, CPU), Placement::Global);
    }

    #[test]
    fn pinned_count_is_none_for_non_pinning_policies() {
        assert_eq!(CachePolicy::pinned_count(&AllGlobalPolicy), None);
        assert_eq!(CachePolicy::pinned_count(&AllLocalPolicy), None);
        let ml = MoveLimitPolicy::new(0);
        assert_eq!(CachePolicy::pinned_count(&ml), Some(0));
    }

    #[test]
    fn flush_limit_pins_after_threshold_passed() {
        let mut p = FlushLimitPolicy::new(4, 0);
        assert_eq!(decide(&mut p), Placement::Local);
        p.on_invalidation(L, 4, NodeId(0));
        // Exactly at the threshold: still cacheable ("passed", not
        // "reached") — the same boundary rule as the move limit.
        assert_eq!(decide(&mut p), Placement::Local);
        assert!(!p.is_pinned(L));
        p.on_invalidation(L, 1, NodeId(0));
        assert_eq!(decide(&mut p), Placement::Global);
        assert!(p.is_pinned(L));
        assert_eq!(CachePolicy::pinned_count(&p), Some(1));
        assert_eq!(p.pin_reason(L), Some(PinReason::Flushes));
    }

    #[test]
    fn flush_limit_threshold_zero_pins_on_first_flush() {
        let mut p = FlushLimitPolicy::new(0, 0);
        assert_eq!(decide(&mut p), Placement::Local);
        p.on_invalidation(L, 1, NodeId(0));
        assert_eq!(decide(&mut p), Placement::Global);
    }

    #[test]
    fn flush_limit_max_threshold_never_pins() {
        // The counter saturates at u32::MAX and pinning needs the count
        // to *pass* the threshold, so u32::MAX means "never pin".
        let mut p = FlushLimitPolicy::new(u32::MAX, 0);
        p.on_invalidation(L, u32::MAX, NodeId(0));
        p.on_invalidation(L, u32::MAX, NodeId(0));
        assert_eq!(p.invalidations(L), u32::MAX, "saturated at the cap");
        assert_eq!(decide(&mut p), Placement::Local);
        assert!(!p.is_pinned(L));
    }

    #[test]
    fn flush_limit_decays_at_exact_tick_boundaries() {
        let mut p = FlushLimitPolicy::new(100, 4);
        p.on_invalidation(L, 9, NodeId(0));
        p.on_tick();
        p.on_tick();
        p.on_tick();
        assert_eq!(p.invalidations(L), 9, "no decay before the boundary");
        p.on_tick(); // Tick 4: exactly one decay period.
        assert_eq!(p.invalidations(L), 4, "halved at the boundary");
        for _ in 0..4 {
            p.on_tick();
        }
        assert_eq!(p.invalidations(L), 2);
        for _ in 0..8 {
            p.on_tick();
        }
        assert_eq!(p.invalidations(L), 0, "quiet pages decay to zero and are forgotten");
    }

    #[test]
    fn flush_limit_pin_survives_decay() {
        let mut p = FlushLimitPolicy::new(0, 1);
        p.on_invalidation(L, 1, NodeId(0));
        assert_eq!(decide(&mut p), Placement::Global);
        for _ in 0..8 {
            p.on_tick(); // Counter decays to zero...
        }
        assert_eq!(p.invalidations(L), 0);
        // ...but the pin is permanent until the page is freed.
        assert_eq!(decide(&mut p), Placement::Global);
        p.on_free(L);
        assert_eq!(decide(&mut p), Placement::Local);
        assert_eq!(p.pin_reason(L), None);
    }

    #[test]
    fn flush_limit_rehome_targets_dominant_writer() {
        let mut p = FlushLimitPolicy::with_rehome(2, 0);
        p.on_invalidation(L, 1, NodeId(2));
        p.on_invalidation(L, 2, NodeId(1));
        assert_eq!(decide(&mut p), Placement::RemoteAt(NodeId(1)));
        assert!(p.is_pinned(L));
        assert_eq!(p.dominant_writer(L), Some(NodeId(1)));
    }

    #[test]
    fn flush_limit_rehome_ties_break_to_lower_node() {
        let mut p = FlushLimitPolicy::with_rehome(0, 0);
        p.on_invalidation(L, 3, NodeId(2));
        p.on_invalidation(L, 3, NodeId(1));
        assert_eq!(p.dominant_writer(L), Some(NodeId(1)));
    }

    #[test]
    fn move_or_flush_pins_on_either_budget() {
        // Flush budget trips while the move budget is untouched.
        let mut p = MoveOrFlushLimitPolicy::new(4, 0, 0);
        p.on_invalidation(L, 1, NodeId(0));
        assert_eq!(decide(&mut p), Placement::Global);
        assert_eq!(p.pin_reason(L), Some(PinReason::Flushes));
        // Move budget trips on a second page.
        let l2 = LPageId(11);
        for _ in 0..5 {
            p.on_move(l2);
        }
        assert_eq!(p.decide(l2, Access::Store, CPU), Placement::Global);
        assert_eq!(p.pin_reason(l2), Some(PinReason::Moves));
        assert_eq!(CachePolicy::pinned_count(&p), Some(2));
        // A page that trips both reports Both.
        let l3 = LPageId(12);
        for _ in 0..5 {
            p.on_move(l3);
        }
        p.on_invalidation(l3, 1, NodeId(0));
        assert_eq!(p.decide(l3, Access::Store, CPU), Placement::Global);
        assert_eq!(p.pin_reason(l3), Some(PinReason::Both));
        p.on_free(l3);
        assert_eq!(p.pin_reason(l3), None);
    }

    #[test]
    fn move_limit_reports_pin_reason() {
        let mut p = MoveLimitPolicy::new(0);
        assert_eq!(p.pin_reason(L), None);
        p.on_move(L);
        decide(&mut p);
        assert_eq!(p.pin_reason(L), Some(PinReason::Moves));
    }

    #[test]
    fn pragma_forwards_invalidations_and_pin_reason() {
        let mut p = PragmaPolicy::new(FlushLimitPolicy::new(0, 0));
        p.on_invalidation(L, 1, NodeId(0));
        assert_eq!(decide(&mut p), Placement::Global);
        assert_eq!(p.pin_reason(L), Some(PinReason::Flushes));
    }

    #[test]
    fn reconsider_releases_pinned_pages_after_period() {
        let mut p = ReconsiderPolicy::new(0, 3);
        p.on_move(L);
        assert_eq!(decide(&mut p), Placement::Global); // Pinned at tick 0.
        assert!(p.take_reconsiderations().is_empty());
        p.on_tick();
        p.on_tick();
        assert!(p.take_reconsiderations().is_empty(), "not yet aged");
        p.on_tick();
        assert_eq!(p.take_reconsiderations(), vec![L]);
        assert_eq!(p.reconsidered(), 1);
        // Fresh budget: next decision is Local again.
        assert_eq!(decide(&mut p), Placement::Local);
    }
}
