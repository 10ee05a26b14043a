//! The pmap manager: the ACE implementation of the Mach pmap interface.
//!
//! This is the coordinating module of the paper's Figure 2: it exports
//! the (NUMA-extended) pmap interface to the machine-independent VM,
//! translates pmap operations into MMU operations, and drives the NUMA
//! manager and policy. Where an unmodified pmap would simply install a
//! mapping with maximum permissions, this one:
//!
//! * asks the policy and manager to place the page (replicating,
//!   migrating or pinning it as the protocol dictates), and
//! * installs the mapping with the *strictest* permissions that still
//!   resolve the fault, so that writable-but-unwritten pages can be
//!   provisionally replicated read-only and later write faults drive the
//!   consistency protocol.

use crate::manager::{NumaManager, PageView};
use crate::policy::CachePolicy;
use crate::stats::{FaultEvent, NumaStats};
use ace_machine::mmu::Asid;
use ace_machine::{Access, CpuId, Machine, NodeId, Prot};
use mach_vm::{FreeTag, LPageId, NumaError, NumaPmap};
use numa_metrics::events::EventKind;
use std::collections::HashMap;

/// The ACE pmap layer: pmap manager + NUMA manager + NUMA policy.
pub struct AcePmap {
    manager: NumaManager,
    policy: Box<dyn CachePolicy>,
    next_asid: Asid,
    next_tag: u64,
    /// Lazily freed pages awaiting `pmap_free_page_sync`.
    pending_free: HashMap<FreeTag, LPageId>,
    lazy_free_syncs: u64,
}

impl AcePmap {
    /// Builds the pmap layer around a placement policy.
    pub fn new(policy: Box<dyn CachePolicy>) -> AcePmap {
        AcePmap {
            manager: NumaManager::new(),
            policy,
            next_asid: 1,
            next_tag: 1,
            pending_free: HashMap::new(),
            lazy_free_syncs: 0,
        }
    }

    /// The active policy's name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Number of pages the policy currently holds pinned, or `None` for
    /// policies that never pin.
    pub fn pinned_count(&self) -> Option<usize> {
        self.policy.pinned_count()
    }

    /// Installs a structured event sink on the NUMA manager (see
    /// [`NumaManager::set_event_sink`]); pmap-level actions (daemon
    /// ticks, reconsiderations, map entries) are reported through the
    /// same sink.
    pub fn set_event_sink(&mut self, sink: numa_metrics::events::SharedSink) {
        self.manager.set_event_sink(sink);
    }

    /// Applies a placement pragma for one logical page, dropping the
    /// page's mappings so its next access re-runs the policy. Returns
    /// false if the active policy does not support pragmas.
    pub fn set_pragma(
        &mut self,
        m: &mut Machine,
        lpage: LPageId,
        placement: crate::protocol::Placement,
    ) -> bool {
        if self.policy.set_hint(lpage, placement) {
            self.manager.drop_all_mappings(m, lpage);
            true
        } else {
            false
        }
    }

    /// Aggregate NUMA statistics (manager counters plus pmap-level
    /// lazy-free accounting).
    pub fn stats(&self) -> NumaStats {
        NumaStats { lazy_free_syncs: self.lazy_free_syncs, ..self.manager.stats() }
    }

    /// Resets aggregate statistics.
    pub fn reset_stats(&mut self) {
        self.manager.reset_stats();
        self.lazy_free_syncs = 0;
    }

    /// Directory view of one logical page.
    pub fn view(&self, lpage: LPageId) -> PageView {
        self.manager.view(lpage)
    }

    /// The ordered log of recovery actions taken so far (empty in a
    /// fault-free run).
    pub fn fault_events(&self) -> &[FaultEvent] {
        self.manager.fault_events()
    }

    /// The NUMA manager (read access for invariant checks).
    pub fn manager(&self) -> &NumaManager {
        &self.manager
    }

    /// The frame holding the page's authoritative data (see
    /// [`NumaManager::truth_frame`]).
    pub fn truth_frame(&self, lpage: LPageId) -> Option<ace_machine::Frame> {
        self.manager.truth_frame(lpage)
    }

    /// Pending page-in contents not yet applied to any frame (see
    /// [`NumaManager::peek_fill`]).
    pub fn peek_fill(&self, lpage: LPageId) -> Option<&[u8]> {
        self.manager.peek_fill(lpage)
    }

    /// Installs a victim-selection policy for reclaim under local-frame
    /// exhaustion (see [`NumaManager::set_reclaim_policy`]).
    pub fn set_reclaim_policy(&mut self, policy: Box<dyn crate::reclaim::ReclaimPolicy>) {
        self.manager.set_reclaim_policy(policy);
    }

    /// One scan of the background pressure daemon (see
    /// [`NumaManager::pressure_tick`]).
    pub fn pressure_tick(&mut self, m: &mut Machine, low: usize, high: usize) {
        self.manager.pressure_tick(m, low, high);
    }

    /// Runs the online recovery protocol for a hard node failure (see
    /// [`NumaManager::node_offline`]).
    pub fn node_offline(&mut self, m: &mut Machine, node: NodeId) {
        self.manager.node_offline(m, node);
    }

    /// True if `node`'s local memory has been lost to a hard failure.
    pub fn is_node_dead(&self, node: NodeId) -> bool {
        self.manager.is_node_dead(node)
    }

    /// Records a hard processor failure and its thread drain (see
    /// [`NumaManager::note_cpu_offline`]).
    pub fn note_cpu_offline(&mut self, m: &Machine, cpu: CpuId, count: u32) {
        self.manager.note_cpu_offline(m, cpu, count);
    }

    /// Periodic daemon tick: lets the policy age its state and applies
    /// any pin reconsiderations it queues.
    pub fn timer_tick(&mut self, m: &mut Machine) {
        // Daemon work runs in kernel context with no requesting
        // processor; its events are stamped with the master processor.
        self.manager.emit(m, CpuId(0), EventKind::DaemonTick);
        self.policy.on_tick();
        self.apply_reconsiderations(m);
    }

    /// Completes all pending lazy frees (kernel shutdown / quiescence),
    /// in the order the frees were requested: the order decides the
    /// `Freed` event sequence and how frames stack on the free lists.
    pub fn drain_pending_frees(&mut self, m: &mut Machine) {
        let mut pending: Vec<(FreeTag, LPageId)> = self.pending_free.drain().collect();
        pending.sort_unstable_by_key(|&(tag, _)| tag.0);
        for (_, lpage) in pending {
            self.manager.release_page(m, lpage);
            self.policy.on_free(lpage);
        }
    }

    /// Applies any pin reconsiderations the policy has queued: dropping
    /// the pages' mappings so their next access re-runs the policy.
    fn apply_reconsiderations(&mut self, m: &mut Machine) {
        for lpage in self.policy.take_reconsiderations() {
            self.manager.drop_all_mappings(m, lpage);
            self.manager.emit(m, CpuId(0), EventKind::Reconsidered { lpage });
        }
    }
}

impl NumaPmap for AcePmap {
    fn pmap_create(&mut self) -> Asid {
        let a = self.next_asid;
        self.next_asid += 1;
        a
    }

    fn pmap_destroy(&mut self, m: &mut Machine, asid: Asid) {
        for i in 0..m.n_cpus() {
            m.mmus[i].remove_asid(asid);
        }
    }

    fn pmap_enter(
        &mut self,
        m: &mut Machine,
        asid: Asid,
        vpn: u64,
        lpage: LPageId,
        min_prot: Prot,
        max_prot: Prot,
        cpu: CpuId,
    ) -> Result<(), NumaError> {
        debug_assert!(min_prot != Prot::NONE && min_prot.min(max_prot) == min_prot);
        let access = if min_prot.allows_write() { Access::Store } else { Access::Fetch };
        let grant = self.manager.request(m, lpage, access, cpu, self.policy.as_mut())?;
        // Strictest permissions that resolve the fault: the protocol's
        // ceiling intersected with what the user may legally hold.
        let prot = grant.prot_ceiling.min(max_prot);
        debug_assert!(prot.min(min_prot) == min_prot, "grant must satisfy the fault");
        m.mmu(cpu).enter(asid, vpn, grant.frame, prot);
        self.manager.emit(m, cpu, EventKind::MapEntered { lpage });
        self.apply_reconsiderations(m);
        Ok(())
    }

    fn pmap_protect(
        &mut self,
        m: &mut Machine,
        asid: Asid,
        start_vpn: u64,
        npages: u64,
        prot: Prot,
    ) {
        for i in 0..m.n_cpus() {
            for vpn in start_vpn..start_vpn + npages {
                if prot == Prot::NONE {
                    m.mmus[i].remove(asid, vpn);
                } else if let Some(mapping) = m.mmus[i].probe(asid, vpn) {
                    // Only ever tighten: the NUMA layer's own ceiling may
                    // already be stricter than the new user protection.
                    m.mmus[i].protect(asid, vpn, mapping.prot.min(prot));
                }
            }
        }
    }

    fn pmap_remove(&mut self, m: &mut Machine, asid: Asid, start_vpn: u64, npages: u64) {
        for i in 0..m.n_cpus() {
            for vpn in start_vpn..start_vpn + npages {
                m.mmus[i].remove(asid, vpn);
            }
        }
    }

    fn pmap_remove_all(&mut self, m: &mut Machine, lpage: LPageId) {
        self.manager.drop_all_mappings(m, lpage);
    }

    fn pmap_free_page(&mut self, m: &mut Machine, lpage: LPageId) -> FreeTag {
        // Eager part: make the page unreachable. Lazy part (releasing
        // cached frames and directory state) waits for the sync.
        self.manager.drop_all_mappings(m, lpage);
        let tag = FreeTag(self.next_tag);
        self.next_tag += 1;
        self.pending_free.insert(tag, lpage);
        tag
    }

    fn pmap_free_page_sync(&mut self, m: &mut Machine, tag: FreeTag) {
        if let Some(lpage) = self.pending_free.remove(&tag) {
            self.manager.release_page(m, lpage);
            self.policy.on_free(lpage);
            self.lazy_free_syncs += 1;
        }
    }

    fn pmap_zero_page(&mut self, lpage: LPageId) {
        self.manager.zero_page(lpage);
    }

    fn pmap_load_page(&mut self, lpage: LPageId, data: Box<[u8]>) {
        self.manager.load_page(lpage, data);
    }

    fn pmap_read_page(&mut self, m: &mut Machine, lpage: LPageId, buf: &mut [u8], cpu: CpuId) {
        self.manager.read_page(m, lpage, buf, cpu);
    }

    fn pmap_clear_reference(&mut self, m: &mut Machine, lpage: LPageId) -> bool {
        self.manager.clear_reference(m, lpage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::StateKind;
    use crate::policy::{AllGlobalPolicy, MoveLimitPolicy, PragmaPolicy, ReconsiderPolicy};
    use crate::protocol::Placement;
    use ace_machine::{MemRegion, TopologyBuilder};
    use mach_vm::{TaskId, VAddr, VmState};

    struct Rig {
        m: Machine,
        vm: VmState,
        pmap: AcePmap,
        task: TaskId,
    }

    fn rig(policy: Box<dyn CachePolicy>, n_cpus: usize) -> Rig {
        let cfg = TopologyBuilder::small(n_cpus).config();
        let m = Machine::new(cfg.clone());
        let mut vm = VmState::new(cfg.page_size, cfg.global_frames);
        let mut pmap = AcePmap::new(policy);
        let task = vm.task_create(&mut pmap);
        Rig { m, vm, pmap, task }
    }

    impl Rig {
        fn fault(&mut self, addr: VAddr, prot: Prot, cpu: CpuId) {
            self.vm
                .fault(&mut self.m, &mut self.pmap, self.task, addr, prot, cpu)
                .unwrap();
        }

        fn lpage(&self, addr: VAddr) -> LPageId {
            self.vm.resident_lpage(self.task, addr).unwrap()
        }
    }

    #[test]
    fn provisional_read_only_replication_of_writable_pages() {
        // A writable page that is only read must end up replicated
        // read-only (min/max protection extension at work).
        let mut r = rig(Box::new(MoveLimitPolicy::default()), 3);
        let addr = r.vm.vm_allocate(r.task, 64, Prot::READ_WRITE).unwrap();
        for c in 0..3 {
            r.fault(addr, Prot::READ, CpuId(c));
        }
        let lp = r.lpage(addr);
        assert_eq!(r.pmap.view(lp).state, StateKind::ReadOnly);
        assert_eq!(r.pmap.view(lp).copies, 3);
        // Each processor's mapping is read-only even though the user may
        // write the page.
        let asid = r.vm.task_asid(r.task).unwrap();
        let vpn = r.vm.page_size().page_of(addr.0);
        for c in 0..3 {
            let mp = r.m.mmus[c].probe(asid, vpn).unwrap();
            assert_eq!(mp.prot, Prot::READ);
        }
    }

    #[test]
    fn write_fault_upgrades_replicated_page() {
        let mut r = rig(Box::new(MoveLimitPolicy::default()), 2);
        let addr = r.vm.vm_allocate(r.task, 64, Prot::READ_WRITE).unwrap();
        r.fault(addr, Prot::READ, CpuId(0));
        r.fault(addr, Prot::READ, CpuId(1));
        r.fault(addr, Prot::READ_WRITE, CpuId(1));
        let lp = r.lpage(addr);
        assert_eq!(r.pmap.view(lp).state, StateKind::LocalWritable(NodeId(1)));
        let asid = r.vm.task_asid(r.task).unwrap();
        let vpn = r.vm.page_size().page_of(addr.0);
        assert!(r.m.mmus[0].probe(asid, vpn).is_none(), "cpu0 replica flushed");
        assert_eq!(r.m.mmus[1].probe(asid, vpn).unwrap().prot, Prot::READ_WRITE);
    }

    #[test]
    fn all_global_policy_maps_shared_frame_writable_everywhere() {
        let mut r = rig(Box::new(AllGlobalPolicy), 2);
        let addr = r.vm.vm_allocate(r.task, 64, Prot::READ_WRITE).unwrap();
        r.fault(addr, Prot::READ_WRITE, CpuId(0));
        r.fault(addr, Prot::READ_WRITE, CpuId(1));
        let lp = r.lpage(addr);
        assert_eq!(r.pmap.view(lp).state, StateKind::GlobalWritable);
        let asid = r.vm.task_asid(r.task).unwrap();
        let vpn = r.vm.page_size().page_of(addr.0);
        let f0 = r.m.mmus[0].probe(asid, vpn).unwrap().frame;
        let f1 = r.m.mmus[1].probe(asid, vpn).unwrap().frame;
        assert_eq!(f0, f1);
        assert!(f0.is_global());
    }

    #[test]
    fn lazy_free_releases_frames_only_at_sync() {
        let mut r = rig(Box::new(MoveLimitPolicy::default()), 2);
        let addr = r.vm.vm_allocate(r.task, 64, Prot::READ_WRITE).unwrap();
        r.fault(addr, Prot::READ_WRITE, CpuId(0));
        let used_before = r.m.mem.used_frames(MemRegion::Local(NodeId(0)));
        assert_eq!(used_before, 1);
        let lp = r.lpage(addr);
        let tag = r.pmap.pmap_free_page(&mut r.m, lp);
        // Mappings gone immediately, frames still held (lazy).
        assert_eq!(r.m.mem.used_frames(MemRegion::Local(NodeId(0))), 1);
        r.pmap.pmap_free_page_sync(&mut r.m, tag);
        assert_eq!(r.m.mem.used_frames(MemRegion::Local(NodeId(0))), 0);
        assert_eq!(r.pmap.stats().lazy_free_syncs, 1);
    }

    #[test]
    fn freed_and_reallocated_page_is_cacheable_again() {
        let mut r = rig(Box::new(MoveLimitPolicy::new(0)), 2);
        let addr = r.vm.vm_allocate(r.task, 64, Prot::READ_WRITE).unwrap();
        // Pin the page with ping-pong writes.
        r.fault(addr, Prot::READ_WRITE, CpuId(0));
        r.fault(addr, Prot::READ_WRITE, CpuId(1));
        r.fault(addr, Prot::READ_WRITE, CpuId(0));
        let lp = r.lpage(addr);
        assert_eq!(r.pmap.view(lp).state, StateKind::GlobalWritable);
        // Free the allocation; reallocate; the new allocation reusing the
        // logical page starts with a fresh move budget.
        r.vm.vm_deallocate(&mut r.m, &mut r.pmap, r.task, addr).unwrap();
        let addr2 = r.vm.vm_allocate(r.task, 64, Prot::READ_WRITE).unwrap();
        r.fault(addr2, Prot::READ_WRITE, CpuId(1));
        let lp2 = r.lpage(addr2);
        assert_eq!(lp2, lp, "pool reuses the freed slot");
        assert_eq!(r.pmap.view(lp2).state, StateKind::LocalWritable(NodeId(1)));
    }

    #[test]
    fn pragma_pins_region_in_global_memory() {
        let mut r = rig(
            Box::new(PragmaPolicy::new(MoveLimitPolicy::default())),
            2,
        );
        let addr = r.vm.vm_allocate(r.task, 64, Prot::READ_WRITE).unwrap();
        // Touch once so the logical page exists, then hint it through
        // the typed pragma entry point (no downcasting).
        r.fault(addr, Prot::READ, CpuId(0));
        let lp = r.lpage(addr);
        assert!(r.pmap.set_pragma(&mut r.m, lp, Placement::Global));
        r.fault(addr, Prot::READ_WRITE, CpuId(1));
        assert_eq!(r.pmap.view(lp).state, StateKind::GlobalWritable);
        assert_eq!(r.pmap.pinned_count(), Some(0), "pragma placement is not a pin");
    }

    #[test]
    fn reconsideration_unmaps_pinned_pages() {
        let mut r = rig(Box::new(ReconsiderPolicy::new(0, 2)), 2);
        let addr = r.vm.vm_allocate(r.task, 64, Prot::READ_WRITE).unwrap();
        r.fault(addr, Prot::READ_WRITE, CpuId(0));
        r.fault(addr, Prot::READ_WRITE, CpuId(1)); // move 1 -> pinnable
        r.fault(addr, Prot::READ_WRITE, CpuId(0)); // pinned, tick
        let lp = r.lpage(addr);
        assert_eq!(r.pmap.view(lp).state, StateKind::GlobalWritable);
        // The daemon ages the pin; after the period the page's mappings
        // are dropped and the next write re-runs the (reset) policy.
        let asid = r.vm.task_asid(r.task).unwrap();
        let vpn = r.vm.page_size().page_of(addr.0);
        r.pmap.timer_tick(&mut r.m);
        r.pmap.timer_tick(&mut r.m);
        assert!(
            r.m.mmus[0].probe(asid, vpn).is_none(),
            "reconsideration must drop the pinned page's mappings"
        );
        r.fault(addr, Prot::READ_WRITE, CpuId(1));
        assert_eq!(r.pmap.view(lp).state, StateKind::LocalWritable(NodeId(1)));
    }

    #[test]
    fn drain_pending_frees_cleans_everything() {
        let mut r = rig(Box::new(MoveLimitPolicy::default()), 1);
        let addr = r.vm.vm_allocate(r.task, 64, Prot::READ_WRITE).unwrap();
        r.fault(addr, Prot::READ_WRITE, CpuId(0));
        let lp = r.lpage(addr);
        let _tag = r.pmap.pmap_free_page(&mut r.m, lp);
        r.pmap.drain_pending_frees(&mut r.m);
        assert_eq!(r.m.mem.used_frames(MemRegion::Local(NodeId(0))), 0);
        assert_eq!(r.m.mem.used_frames(MemRegion::Global), 0);
    }
}
