//! The assembled machine.

use crate::bus::{BusQueue, BusStats};
use crate::clock::CpuClocks;
use crate::config::MachineConfig;
use crate::fault::{BusTimeout, CopyFault, FaultInjector};
use crate::mem::{Frame, MemRegion, PhysMem};
use crate::mmu::Mmu;
use crate::time::{Access, Distance, Ns};
use crate::types::{CpuId, NodeId};

/// A hardware-level occurrence, reported through the machine's tap (see
/// [`Machine::set_tap`]). The machine speaks in frames and regions — it
/// knows nothing about logical pages or policies; the layers above
/// translate these into their own vocabulary.
///
/// Every variant carries the acting processor and that processor's
/// virtual clock *after* the cost was charged, so a tap sees a
/// monotonically non-decreasing clock per processor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MachineEvent {
    /// A memory access was charged.
    Access {
        /// The referencing processor.
        cpu: CpuId,
        /// Fetch or store.
        kind: Access,
        /// Where the reference was served from.
        dist: Distance,
        /// Width in 32-bit words.
        words: u64,
        /// The processor's clock after the charge.
        t: Ns,
    },
    /// A whole page was copied.
    PageCopy {
        /// The processor charged for the copy.
        cpu: CpuId,
        /// Source region.
        from: MemRegion,
        /// Destination region.
        to: MemRegion,
        /// The processor's clock after the charge.
        t: Ns,
    },
    /// A page copy was aborted by an injected bus timeout.
    CopyTimeout {
        /// The processor charged for the aborted transfer.
        cpu: CpuId,
        /// Source region.
        from: MemRegion,
        /// Destination region.
        to: MemRegion,
        /// The processor's clock after the charge.
        t: Ns,
    },
    /// A frame was zero-filled.
    PageZero {
        /// The processor charged for the stores.
        cpu: CpuId,
        /// The zeroed frame's region.
        region: MemRegion,
        /// The processor's clock after the charge.
        t: Ns,
    },
    /// The fixed fault overhead was charged.
    FaultOverhead {
        /// The faulting processor.
        cpu: CpuId,
        /// The processor's clock after the charge.
        t: Ns,
    },
    /// A shootdown was charged.
    Shootdown {
        /// The processor charged (the requester, not the victim).
        cpu: CpuId,
        /// The processor's clock after the charge.
        t: Ns,
    },
}

/// The machine's event tap: a closure invoked synchronously at each
/// charge site. `None` (the default) costs one branch per site.
pub type MachineTap = Box<dyn FnMut(MachineEvent) + Send>;

/// One simulated ACE: physical memory, one MMU per processor, per-
/// processor clocks and bus accounting.
///
/// The machine is deliberately passive: it knows nothing about virtual
/// memory policy. The Mach-style VM and the NUMA pmap layer drive it.
pub struct Machine {
    /// Static configuration.
    pub config: MachineConfig,
    /// All physical page frames.
    pub mem: PhysMem,
    /// Translation hardware, indexed by processor.
    pub mmus: Vec<Mmu>,
    /// User/system clocks per processor.
    pub clocks: CpuClocks,
    /// IPC bus traffic counters.
    pub bus: BusStats,
    /// FCFS bus queue (consulted only when `config.bus_contention`).
    pub bus_queue: BusQueue,
    /// Deterministic fault source (inert unless `config.faults` enables
    /// it or a test scripts faults directly).
    pub fault: FaultInjector,
    /// Optional event tap; see [`Machine::set_tap`].
    tap: Option<MachineTap>,
}

impl Machine {
    /// Builds a machine from `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; use
    /// [`MachineConfig::validate`] to check first.
    pub fn new(cfg: MachineConfig) -> Machine {
        if let Err(e) = cfg.validate() {
            panic!("invalid machine configuration: {e}");
        }
        Machine {
            mem: PhysMem::new(&cfg),
            mmus: (0..cfg.n_cpus()).map(|_| Mmu::new()).collect(),
            clocks: CpuClocks::new(cfg.n_cpus()),
            bus: BusStats::default(),
            bus_queue: BusQueue::default(),
            fault: FaultInjector::new(cfg.faults.clone()),
            tap: None,
            config: cfg,
        }
    }

    /// Installs an event tap. The tap is called synchronously at every
    /// charge site, *after* the cost has been charged; it observes the
    /// machine but never affects timing, so a run with a tap installed
    /// is cost-identical to one without.
    pub fn set_tap(&mut self, tap: MachineTap) {
        self.tap = Some(tap);
    }

    /// Removes and returns the event tap, if any.
    pub fn take_tap(&mut self) -> Option<MachineTap> {
        self.tap.take()
    }

    #[inline]
    fn emit(&mut self, event: MachineEvent) {
        if let Some(tap) = self.tap.as_mut() {
            tap(event);
        }
    }

    /// Number of processors.
    #[inline]
    pub fn n_cpus(&self) -> usize {
        self.config.n_cpus()
    }

    /// Iterator over all processor ids.
    pub fn cpus(&self) -> impl Iterator<Item = CpuId> {
        (0..self.config.n_cpus()).map(CpuId::from)
    }

    /// The MMU of one processor.
    #[inline]
    pub fn mmu(&mut self, cpu: CpuId) -> &mut Mmu {
        &mut self.mmus[cpu.index()]
    }

    /// The node whose local memory serves `cpu`.
    #[inline]
    pub fn home_of(&self, cpu: CpuId) -> NodeId {
        self.config.topology.home_of(cpu)
    }

    /// How far `region` is from `cpu` — the three-way classification the
    /// observers and reference traces speak. Any local memory that is
    /// not the processor's own node counts as remote, regardless of how
    /// many hops away it sits; the hop matrix refines the *cost* of a
    /// remote reference, not its class.
    #[inline]
    pub fn distance(&self, cpu: CpuId, region: MemRegion) -> Distance {
        match region {
            MemRegion::Global => Distance::Global,
            MemRegion::Local(node) if node == self.home_of(cpu) => Distance::Local,
            MemRegion::Local(_) => Distance::Remote,
        }
    }

    /// The cost of one 32-bit access of `kind` from `cpu` to memory in
    /// `region`: global memory charges the cost model's bus constants,
    /// local memory charges the topology's row for the hop count between
    /// the processor's home node and the frame's node.
    #[inline]
    fn ref_cost(&self, cpu: CpuId, kind: Access, region: MemRegion) -> Ns {
        match region {
            MemRegion::Global => self.config.costs.access(kind, Distance::Global),
            MemRegion::Local(node) => {
                let hop = self.config.topology.hops(self.home_of(cpu), node);
                self.config.topology.access_cost(kind, hop)
            }
        }
    }

    /// Charges `cpu` the *user-time* cost of `words` 32-bit accesses of
    /// kind `kind` to `frame`, recording bus traffic, and returns the
    /// charged time.
    pub fn charge_access(&mut self, cpu: CpuId, kind: Access, frame: Frame, words: u64) -> Ns {
        let dist = self.distance(cpu, frame.region);
        let mut t = self.ref_cost(cpu, kind, frame.region) * words;
        match dist {
            Distance::Global => self.bus.add_global(words),
            Distance::Remote => self.bus.add_remote(words),
            Distance::Local => {}
        }
        if self.config.bus_contention && dist != Distance::Local {
            let now = self.clocks.cpu(cpu).total();
            t += self.bus_queue.acquire(now, words);
        }
        self.clocks.charge_user(cpu, t);
        self.mem.touch(frame, self.clocks.cpu(cpu).total());
        if self.tap.is_some() {
            let now = self.clocks.cpu(cpu).total();
            self.emit(MachineEvent::Access { cpu, kind, dist, words, t: now });
        }
        t
    }

    /// True when `n` identical accesses at `dist` are indistinguishable
    /// from one batched arithmetic charge: no event tap listening (taps
    /// see per-access timestamps) and no bus queue advancing per access.
    pub fn batchable(&self, dist: Distance) -> bool {
        self.tap.is_none() && !(self.config.bus_contention && dist != Distance::Local)
    }

    /// The queueing-free cost of one `words`-word access of `kind` by
    /// `cpu` to memory in `region` — the per-element step
    /// [`Machine::charge_access`] charges when no bus queue applies.
    pub fn access_cost(&self, cpu: CpuId, kind: Access, region: MemRegion, words: u64) -> Ns {
        self.ref_cost(cpu, kind, region) * words
    }

    /// Charges `n` identical accesses in one arithmetic step. Requires
    /// [`Machine::batchable`] for the frame's distance; bus counters and
    /// the processor clock end up exactly where `n` calls of
    /// [`Machine::charge_access`] would leave them.
    pub fn charge_access_n(
        &mut self,
        cpu: CpuId,
        kind: Access,
        frame: Frame,
        words: u64,
        n: u64,
    ) -> Ns {
        let dist = self.distance(cpu, frame.region);
        debug_assert!(self.batchable(dist), "batched charge with an observer attached");
        match dist {
            Distance::Global => self.bus.add_global(words * n),
            Distance::Remote => self.bus.add_remote(words * n),
            Distance::Local => {}
        }
        let t = self.access_cost(cpu, kind, frame.region, words) * n;
        self.clocks.charge_user(cpu, t);
        self.mem.touch(frame, self.clocks.cpu(cpu).total());
        t
    }

    /// Copies page `src` to `dst`, charging the copy cost as *system*
    /// time to `cpu` and recording bus traffic if the copy crosses the
    /// bus. Returns the charged time.
    pub fn kernel_copy_page(&mut self, cpu: CpuId, src: Frame, dst: Frame) -> Ns {
        self.mem.copy_page(src, dst);
        let words = (self.config.page_size.bytes() / 4) as u64;
        let crosses_bus = src.region != dst.region;
        if crosses_bus {
            self.bus.add_copy(words);
        }
        // A copy between two local memories charges the topology's
        // per-hop copy word (the flat presets pin every row to the cost
        // model's word, reproducing the paper's uniform copy charge);
        // any copy touching global memory crosses the IPC bus and
        // charges the cost model directly.
        let t = match (src.region, dst.region) {
            (MemRegion::Local(a), MemRegion::Local(b)) => {
                let hop = self.config.topology.hops(a, b);
                self.config.costs.copy_setup + self.config.topology.hop_cost(hop).copy_word * words
            }
            _ => self.config.costs.page_copy(self.config.page_size.bytes()),
        };
        self.clocks.charge_system(cpu, t);
        self.mem.touch(dst, self.clocks.cpu(cpu).total());
        if self.tap.is_some() {
            let now = self.clocks.cpu(cpu).total();
            self.emit(MachineEvent::PageCopy { cpu, from: src.region, to: dst.region, t: now });
        }
        t
    }

    /// Like [`kernel_copy_page`], but subject to fault injection.
    ///
    /// A bus-crossing copy may be aborted by an injected transient
    /// timeout: the destination is untouched, only the transfer setup
    /// cost is charged (no data moved, so no bus traffic is recorded),
    /// and `Err(BusTimeout)` asks the caller to retry. The copy may also
    /// complete but silently flip one byte of the destination — that
    /// case still returns `Ok`; only comparing the destination with the
    /// source ([`PhysMem::pages_equal`]) can reveal it. With fault
    /// injection inert this is byte- and cost-identical to
    /// [`kernel_copy_page`].
    ///
    /// [`kernel_copy_page`]: Machine::kernel_copy_page
    /// [`PhysMem::pages_equal`]: crate::mem::PhysMem::pages_equal
    pub fn try_kernel_copy_page(
        &mut self,
        cpu: CpuId,
        src: Frame,
        dst: Frame,
    ) -> Result<Ns, BusTimeout> {
        let crosses_bus = src.region != dst.region;
        match self.fault.copy_fault(crosses_bus) {
            Some(CopyFault::BusTimeout) => {
                let t = self.config.costs.copy_setup;
                self.clocks.charge_system(cpu, t);
                if self.tap.is_some() {
                    let now = self.clocks.cpu(cpu).total();
                    self.emit(MachineEvent::CopyTimeout {
                        cpu,
                        from: src.region,
                        to: dst.region,
                        t: now,
                    });
                }
                Err(BusTimeout)
            }
            Some(CopyFault::Corruption) => {
                let t = self.kernel_copy_page(cpu, src, dst);
                let (offset, mask) = self.fault.corruption_site(self.config.page_size.bytes());
                let byte = self.mem.read_u8(dst, offset);
                self.mem.write_u8(dst, offset, byte ^ mask);
                Ok(t)
            }
            None => Ok(self.kernel_copy_page(cpu, src, dst)),
        }
    }

    /// Zero-fills `frame`, charging `cpu` system time for the stores.
    pub fn kernel_zero_page(&mut self, cpu: CpuId, frame: Frame) -> Ns {
        self.mem.zero_page(frame);
        let words = (self.config.page_size.bytes() / 4) as u64;
        let t = self.ref_cost(cpu, Access::Store, frame.region) * words;
        self.clocks.charge_system(cpu, t);
        self.mem.touch(frame, self.clocks.cpu(cpu).total());
        if self.tap.is_some() {
            let now = self.clocks.cpu(cpu).total();
            self.emit(MachineEvent::PageZero { cpu, region: frame.region, t: now });
        }
        t
    }

    /// Charges the fixed fault-handling overhead to `cpu` as system time.
    pub fn charge_fault_overhead(&mut self, cpu: CpuId) {
        let t = self.config.costs.fault_overhead;
        self.clocks.charge_system(cpu, t);
        if self.tap.is_some() {
            let now = self.clocks.cpu(cpu).total();
            self.emit(MachineEvent::FaultOverhead { cpu, t: now });
        }
    }

    /// Takes `node`'s local memory module offline — a hard component
    /// failure. Every frame it held is permanently lost; the list of
    /// frames that were allocated at the moment of death is returned
    /// (in index order) so the layer above can shoot down their
    /// mappings and recover each page. The node's processors keep
    /// running; only their memory is gone. Idempotent.
    pub fn offline_node(&mut self, node: NodeId) -> Vec<Frame> {
        self.mem.offline_local(node)
    }

    /// True if `node`'s local memory module has gone offline.
    #[inline]
    pub fn node_offline(&self, node: NodeId) -> bool {
        self.mem.is_offline(node)
    }

    /// Charges the cost of removing a mapping on another processor.
    pub fn charge_shootdown(&mut self, cpu: CpuId) {
        let t = self.config.costs.shootdown;
        self.clocks.charge_system(cpu, t);
        if self.tap.is_some() {
            let now = self.clocks.cpu(cpu).total();
            self.emit(MachineEvent::Shootdown { cpu, t: now });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prot::Prot;

    fn machine() -> Machine {
        Machine::new(crate::topology::TopologyBuilder::small(2).config())
    }

    #[test]
    fn charge_paths_stamp_last_touch() {
        let mut m = machine();
        let g = m.mem.alloc(MemRegion::Global).unwrap();
        let l = m.mem.alloc(MemRegion::Local(NodeId(0))).unwrap();
        assert_eq!(m.mem.last_touch(g), Ns::ZERO);
        m.charge_access(CpuId(0), Access::Fetch, g, 1);
        let after_access = m.mem.last_touch(g);
        assert!(after_access > Ns::ZERO, "charge_access stamps the frame");
        assert_eq!(after_access, m.clocks.cpu(CpuId(0)).total());
        m.charge_access_n(CpuId(0), Access::Fetch, l, 1, 8);
        assert_eq!(m.mem.last_touch(l), m.clocks.cpu(CpuId(0)).total());
        // Kernel copies and zero-fills stamp the destination frame too.
        m.kernel_copy_page(CpuId(0), g, l);
        assert_eq!(m.mem.last_touch(l), m.clocks.cpu(CpuId(0)).total());
        m.kernel_zero_page(CpuId(0), g);
        assert_eq!(m.mem.last_touch(g), m.clocks.cpu(CpuId(0)).total());
    }

    #[test]
    fn distance_classification() {
        let m = machine();
        assert_eq!(m.distance(CpuId(0), MemRegion::Global), Distance::Global);
        assert_eq!(m.distance(CpuId(0), MemRegion::Local(NodeId(0))), Distance::Local);
        assert_eq!(m.distance(CpuId(0), MemRegion::Local(NodeId(1))), Distance::Remote);
    }

    #[test]
    fn charge_access_updates_clock_and_bus() {
        let mut m = machine();
        let g = m.mem.alloc(MemRegion::Global).unwrap();
        let t = m.charge_access(CpuId(0), Access::Fetch, g, 3);
        assert_eq!(t, Ns(1_500 * 3));
        assert_eq!(m.clocks.cpu(CpuId(0)).user, t);
        assert_eq!(m.bus.global_word_transfers, 3);

        let l = m.mem.alloc(MemRegion::Local(NodeId(0))).unwrap();
        let t2 = m.charge_access(CpuId(0), Access::Store, l, 1);
        assert_eq!(t2, Ns(840));
        // Local access adds no bus traffic.
        assert_eq!(m.bus.total_bytes(), 3 * 4);
    }

    #[test]
    fn kernel_copy_charges_system_time() {
        let mut m = machine();
        let g = m.mem.alloc(MemRegion::Global).unwrap();
        let l = m.mem.alloc(MemRegion::Local(NodeId(1))).unwrap();
        m.mem.write_u32(g, 0, 77);
        let t = m.kernel_copy_page(CpuId(1), g, l);
        assert_eq!(m.mem.read_u32(l, 0), 77);
        assert_eq!(m.clocks.cpu(CpuId(1)).system, t);
        assert_eq!(m.clocks.cpu(CpuId(1)).user, Ns::ZERO);
        assert!(m.bus.copy_word_transfers > 0);
    }

    #[test]
    fn local_to_local_same_cpu_copy_skips_bus() {
        let mut m = machine();
        let a = m.mem.alloc(MemRegion::Local(NodeId(0))).unwrap();
        let b = m.mem.alloc(MemRegion::Local(NodeId(0))).unwrap();
        m.kernel_copy_page(CpuId(0), a, b);
        assert_eq!(m.bus.copy_word_transfers, 0);
    }

    #[test]
    fn zero_page_charges_and_zeroes() {
        let mut m = machine();
        let l = m.mem.alloc(MemRegion::Local(NodeId(0))).unwrap();
        m.mem.write_u32(l, 0, 5);
        m.kernel_zero_page(CpuId(0), l);
        assert_eq!(m.mem.read_u32(l, 0), 0);
        assert!(m.clocks.cpu(CpuId(0)).system > Ns::ZERO);
    }

    #[test]
    fn try_copy_without_faults_matches_plain_copy() {
        let mut m = machine();
        let g = m.mem.alloc(MemRegion::Global).unwrap();
        let l = m.mem.alloc(MemRegion::Local(NodeId(0))).unwrap();
        m.mem.write_u32(g, 0, 31);
        let t = m.try_kernel_copy_page(CpuId(0), g, l).unwrap();
        assert_eq!(t, m.config.costs.page_copy(m.config.page_size.bytes()));
        assert_eq!(m.mem.read_u32(l, 0), 31);
    }

    #[test]
    fn scripted_bus_timeout_leaves_destination_untouched() {
        let mut m = machine();
        let g = m.mem.alloc(MemRegion::Global).unwrap();
        let l = m.mem.alloc(MemRegion::Local(NodeId(0))).unwrap();
        m.mem.write_u32(g, 0, 7);
        m.mem.write_u32(l, 0, 99);
        m.fault.script_copy_fault(crate::fault::CopyFault::BusTimeout);
        assert_eq!(m.try_kernel_copy_page(CpuId(0), g, l), Err(BusTimeout));
        // Destination unchanged, no data crossed the bus, but the
        // aborted transaction's setup time was charged.
        assert_eq!(m.mem.read_u32(l, 0), 99);
        assert_eq!(m.bus.copy_word_transfers, 0);
        assert_eq!(m.clocks.cpu(CpuId(0)).system, m.config.costs.copy_setup);
        // The retry succeeds.
        assert_eq!(m.mem.read_u32(l, 0), 99);
        m.try_kernel_copy_page(CpuId(0), g, l).unwrap();
        assert_eq!(m.mem.read_u32(l, 0), 7);
    }

    #[test]
    fn scripted_corruption_flips_exactly_one_byte() {
        let mut m = machine();
        let g = m.mem.alloc(MemRegion::Global).unwrap();
        let l = m.mem.alloc(MemRegion::Local(NodeId(1))).unwrap();
        m.mem.write_u32(g, 0, 0x0101_0101);
        m.fault.script_copy_fault(crate::fault::CopyFault::Corruption);
        m.try_kernel_copy_page(CpuId(1), g, l).unwrap();
        let page = m.config.page_size.bytes();
        let mut diffs = 0;
        for off in 0..page {
            if m.mem.read_u8(g, off) != m.mem.read_u8(l, off) {
                diffs += 1;
            }
        }
        assert_eq!(diffs, 1, "silent corruption flips exactly one byte");
        assert!(!m.mem.pages_equal(g, l));
    }

    #[test]
    fn tap_observes_charges_without_changing_costs() {
        use std::sync::{Arc, Mutex};
        let mut plain = machine();
        let mut tapped = machine();
        let log: Arc<Mutex<Vec<MachineEvent>>> = Arc::new(Mutex::new(Vec::new()));
        let events = log.clone();
        tapped.set_tap(Box::new(move |e| events.lock().unwrap().push(e)));
        for m in [&mut plain, &mut tapped] {
            let g = m.mem.alloc(MemRegion::Global).unwrap();
            let l = m.mem.alloc(MemRegion::Local(NodeId(0))).unwrap();
            m.charge_access(CpuId(0), Access::Fetch, g, 2);
            m.kernel_copy_page(CpuId(0), g, l);
            m.kernel_zero_page(CpuId(0), l);
            m.charge_fault_overhead(CpuId(0));
            m.charge_shootdown(CpuId(0));
        }
        // The tap observes but never charges.
        assert_eq!(plain.clocks.cpu(CpuId(0)).total(), tapped.clocks.cpu(CpuId(0)).total());
        assert_eq!(plain.bus.total_bytes(), tapped.bus.total_bytes());
        let log = log.lock().unwrap();
        assert_eq!(log.len(), 5);
        assert!(matches!(
            log[0],
            MachineEvent::Access { kind: Access::Fetch, dist: Distance::Global, words: 2, .. }
        ));
        assert!(matches!(log[1], MachineEvent::PageCopy { .. }));
        assert!(matches!(log[4], MachineEvent::Shootdown { .. }));
    }

    #[test]
    fn tap_sees_copy_timeouts() {
        let mut m = machine();
        let g = m.mem.alloc(MemRegion::Global).unwrap();
        let l = m.mem.alloc(MemRegion::Local(NodeId(0))).unwrap();
        let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let events = log.clone();
        m.set_tap(Box::new(move |e| events.lock().unwrap().push(e)));
        m.fault.script_copy_fault(crate::fault::CopyFault::BusTimeout);
        assert_eq!(m.try_kernel_copy_page(CpuId(0), g, l), Err(BusTimeout));
        m.try_kernel_copy_page(CpuId(0), g, l).unwrap();
        let log = log.lock().unwrap();
        assert!(matches!(log[0], MachineEvent::CopyTimeout { .. }));
        assert!(matches!(log[1], MachineEvent::PageCopy { .. }));
        assert!(m.take_tap().is_some());
    }

    #[test]
    fn mmus_are_per_cpu() {
        let mut m = machine();
        let g = m.mem.alloc(MemRegion::Global).unwrap();
        m.mmu(CpuId(0)).enter(1, 10, g, Prot::READ);
        assert!(m.mmu(CpuId(0)).probe(1, 10).is_some());
        assert!(m.mmu(CpuId(1)).probe(1, 10).is_none());
    }
}
