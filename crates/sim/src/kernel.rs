//! The simulated kernel: machine + VM + NUMA pmap layer, with the
//! reference path application threads go through.

use ace_machine::{Access, CpuId, Distance, Machine, NodeId, Ns, Prot};
use mach_vm::{TaskId, VAddr, VmError, VmState};
use numa_core::AcePmap;

/// One application memory reference, as seen by an installed trace sink.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RefEvent {
    /// The referencing processor's clock (user + system) after the
    /// reference completed.
    pub t: Ns,
    /// Referencing processor.
    pub cpu: CpuId,
    /// Virtual address referenced.
    pub addr: VAddr,
    /// Fetch or store.
    pub kind: Access,
    /// Where the reference was served from.
    pub dist: Distance,
    /// Width in 32-bit words.
    pub words: u64,
}

/// An arithmetic run of application references: `count` references by
/// one processor, of one kind, width and distance, all on one page, with
/// nothing else in between. Element `i` is `first` with its address
/// advanced by `i * stride` bytes and its clock by `i * dt` — the clock
/// step is part of the run so that expanding it loses nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RefRun {
    /// The run's first reference.
    pub first: RefEvent,
    /// Address step between consecutive elements, in bytes.
    pub stride: u64,
    /// Clock step between consecutive elements.
    pub dt: Ns,
    /// Number of references (at least 1).
    pub count: u64,
}

impl RefRun {
    /// A run of one.
    pub fn one(first: RefEvent) -> RefRun {
        RefRun { first, stride: 0, dt: Ns::ZERO, count: 1 }
    }

    /// Element `i` of the progression (wrapping, so a `stride` that is
    /// a negative step in two's complement walks downwards).
    pub fn event(&self, i: u64) -> RefEvent {
        RefEvent {
            t: Ns(self.first.t.0.wrapping_add(self.dt.0.wrapping_mul(i))),
            addr: VAddr(self.first.addr.0.wrapping_add(self.stride.wrapping_mul(i))),
            ..self.first
        }
    }

    /// The run's references, one by one.
    pub fn events(self) -> impl Iterator<Item = RefEvent> {
        (0..self.count).map(move |i| self.event(i))
    }
}

/// A callback receiving every application reference, as runs.
pub type RefSink = Box<dyn FnMut(&RefRun) + Send>;

ace_machine::counters! {
    /// Counts of application references by distance (in words).
    #[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
    pub struct RefCounters {
        /// Words referenced in the processor's own local memory.
        pub local: u64,
        /// Words referenced in global memory.
        pub global: u64,
        /// Words referenced in another processor's local memory.
        pub remote: u64,
    }
}

impl RefCounters {
    /// Counts `words` words referenced at distance `dist`.
    #[inline]
    pub(crate) fn add(&mut self, dist: Distance, words: u64) {
        match dist {
            Distance::Local => self.local += words,
            Distance::Global => self.global += words,
            Distance::Remote => self.remote += words,
        }
    }

    /// The measured fraction of references served locally — the direct
    /// (simulation-only) counterpart of the paper's derived alpha.
    pub fn alpha(&self) -> f64 {
        let total = self.local + self.global + self.remote;
        if total == 0 {
            return 1.0;
        }
        self.local as f64 / total as f64
    }
}

/// Upper bound on fault-retry iterations for one reference; exceeding it
/// indicates a protocol bug rather than a legal fault storm.
const MAX_FAULT_RETRIES: usize = 16;

/// Upper bound on a single inline compute or idle charge; longer ones
/// are split so budget boundaries stay tight. One value for
/// `ThreadCtx::compute`, `ThreadCtx::wait_until` and the scheduler's
/// idling of a parked thread, which must charge the same sequence.
pub(crate) const COMPUTE_CHUNK: Ns = Ns::from_us(20);

/// The assembled kernel. All state of one simulation lives here; during
/// a run it travels with the grant, so whoever runs owns it.
pub struct Kernel {
    /// The simulated hardware.
    pub machine: Machine,
    /// Machine-independent VM.
    pub vm: VmState,
    /// The NUMA pmap layer under test.
    pub pmap: AcePmap,
    /// The single application task (C-Threads share one address space).
    pub task: TaskId,
    /// Application reference counters.
    pub refs: RefCounters,
    /// Processors stopped for good by a scheduled `CpuOffline` hard
    /// failure. The engine drains their runnable threads to survivors
    /// and never grants them again; the flag lives here (not in the
    /// engine) so repeated `run()` calls see the same dead set.
    pub dead_cpus: Vec<bool>,
    /// Optional trace sink.
    sink: Option<RefSink>,
}

impl Kernel {
    /// Boots a kernel on the given machine with the given pmap layer.
    pub fn new(machine: Machine, mut pmap: AcePmap) -> Kernel {
        let mut vm = VmState::new(machine.config.page_size, machine.config.global_frames);
        let task = vm.task_create(&mut pmap);
        let dead_cpus = vec![false; machine.n_cpus()];
        Kernel { machine, vm, pmap, task, refs: RefCounters::default(), dead_cpus, sink: None }
    }

    /// Installs a trace sink receiving every application reference, as
    /// the runs the kernel charges them in.
    pub fn set_run_sink(&mut self, sink: RefSink) {
        self.sink = Some(sink);
    }

    /// Installs a trace sink receiving every application reference one
    /// by one: an adapter that expands each run.
    pub fn set_sink(&mut self, mut sink: Box<dyn FnMut(&RefEvent) + Send>) {
        self.set_run_sink(Box::new(move |run: &RefRun| {
            for e in run.events() {
                sink(&e);
            }
        }));
    }

    /// Removes the trace sink, returning it.
    pub fn take_sink(&mut self) -> Option<RefSink> {
        self.sink.take()
    }

    /// Allocates zero-filled application memory.
    pub fn alloc(&mut self, bytes: u64, prot: Prot) -> Result<VAddr, VmError> {
        self.vm.vm_allocate(self.task, bytes, prot)
    }

    /// Frees an allocation made with [`Kernel::alloc`].
    pub fn dealloc(&mut self, addr: VAddr) -> Result<(), VmError> {
        self.vm.vm_deallocate(&mut self.machine, &mut self.pmap, self.task, addr)
    }

    /// Total (user + system) time accumulated on `cpu` — the engine's
    /// scheduling clock.
    #[inline]
    pub fn clock_of(&self, cpu: CpuId) -> Ns {
        self.machine.clocks.cpu(cpu).total()
    }

    /// Shows the sink, if any, one reference `cpu` has just been charged
    /// for (a run of one, stamped with the post-charge clock).
    #[inline]
    fn emit_one(&mut self, cpu: CpuId, addr: VAddr, kind: Access, dist: Distance, words: u64) {
        if let Some(sink) = self.sink.as_mut() {
            let t = self.machine.clocks.cpu(cpu).total();
            sink(&RefRun::one(RefEvent { t, cpu, addr, kind, dist, words }));
        }
    }

    /// One scheduling step of an access: a single translation attempt.
    /// On success charges the reference and returns the frame; on a
    /// fault, resolves it through the kernel fault path and returns
    /// `Ok(None)` so the caller can yield to the engine before retrying
    /// (a fault and the retried access are *separate* events in virtual
    /// time — a fault can take hundreds of microseconds, during which
    /// other processors proceed).
    pub fn access_step(
        &mut self,
        cpu: CpuId,
        addr: VAddr,
        kind: Access,
        words: u64,
    ) -> Result<Option<(ace_machine::Frame, usize)>, VmError> {
        let page_size = self.vm.page_size();
        let vpn = page_size.page_of(addr.0);
        let offset = page_size.offset_of(addr.0);
        let asid = self.vm.task_asid(self.task)?;
        match self.machine.mmus[cpu.index()].translate(asid, vpn, kind) {
            Ok(frame) => {
                self.machine.charge_access(cpu, kind, frame, words);
                let dist = self.machine.distance(cpu, frame.region);
                self.refs.add(dist, words);
                self.emit_one(cpu, addr, kind, dist, words);
                Ok(Some((frame, offset)))
            }
            Err(_) => {
                let need = match kind {
                    Access::Fetch => Prot::READ,
                    Access::Store => Prot::READ_WRITE,
                };
                self.vm.fault(&mut self.machine, &mut self.pmap, self.task, addr, need, cpu)?;
                Ok(None)
            }
        }
    }

    /// Charges up to `max_n` same-page references of `words` words each
    /// against an already-translated `frame` in one call — the batched
    /// fast path's charging core.
    ///
    /// Each element is charged exactly as [`Kernel::access_step`]'s
    /// success branch would charge it (machine access cost, bus traffic,
    /// distance counters, and a machine-tap run and a trace-sink run
    /// whose expansions stamp each element with its post-charge clock),
    /// so the observable streams are identical to `max_n` slow-path
    /// references; only the per-element MMU walk and budget check are
    /// elided. The caller must hold a translation validated at the
    /// current MMU epoch for the element addresses (element `i` lives at
    /// `first + i * stride`, entirely within the translated page).
    ///
    /// Stops charging after the first element that drives the
    /// processor's clock to `budget_end` or beyond — the same point at
    /// which the slow path would rendezvous with the engine — and
    /// returns how many elements were charged (at least 1 when
    /// `max_n > 0`, matching the slow path's one-op-per-grant minimum).
    #[allow(clippy::too_many_arguments)]
    pub fn charge_run(
        &mut self,
        cpu: CpuId,
        kind: Access,
        frame: ace_machine::Frame,
        first: VAddr,
        stride: u64,
        words: u64,
        max_n: usize,
        budget_end: Ns,
    ) -> usize {
        let dist = self.machine.distance(cpu, frame.region);
        // With no bus queue advancing per element at this distance the
        // loop below is pure arithmetic over a constant per-element cost,
        // so charge the whole extent in closed form: exactly as many
        // elements as the budget admits, counters and clock landing where
        // the loop would leave them. Observers are no obstacle: the
        // elements' clocks step by that same constant, which is what the
        // machine tap's `Access` run and the reference sink's run say.
        if self.machine.batchable(dist) && max_n > 0 {
            let clock0 = self.clock_of(cpu);
            let cost = self.machine.access_cost(cpu, kind, frame.region, words);
            let t = cost.0;
            let fit = if t == 0 || budget_end.0 <= clock0.0 {
                if t == 0 { max_n } else { 1 }
            } else {
                (budget_end.0 - clock0.0).div_ceil(t) as usize
            };
            let charged = fit.clamp(1, max_n);
            self.machine.charge_access_n(cpu, kind, frame, words, charged as u64);
            self.refs.add(dist, words * charged as u64);
            if let Some(sink) = self.sink.as_mut() {
                let first = RefEvent { t: clock0 + cost, cpu, addr: first, kind, dist, words };
                sink(&RefRun { first, stride, dt: cost, count: charged as u64 });
            }
            return charged;
        }
        // Behind a bus queue every element's wait depends on the last.
        let mut charged = 0;
        while charged < max_n {
            self.machine.charge_access(cpu, kind, frame, words);
            self.refs.add(dist, words);
            self.emit_one(cpu, first + charged as u64 * stride, kind, dist, words);
            charged += 1;
            if self.clock_of(cpu) >= budget_end {
                break;
            }
        }
        charged
    }

    /// Resolves `addr` for an access of `kind` from `cpu`, faulting as
    /// needed (atomically: the faulting access completes before anything
    /// else runs, the paper's forward-progress constraint), charges
    /// `words` word-references of user time, and returns the frame and
    /// in-page byte offset. Simulated threads try
    /// [`Kernel::access_step`] first, so that faults and retries are
    /// separate scheduling events.
    pub(crate) fn resolve(
        &mut self,
        cpu: CpuId,
        addr: VAddr,
        kind: Access,
        words: u64,
    ) -> Result<(ace_machine::Frame, usize), VmError> {
        for _ in 0..MAX_FAULT_RETRIES {
            if let Some(r) = self.access_step(cpu, addr, kind, words)? {
                return Ok(r);
            }
        }
        panic!("reference to {addr} did not settle after {MAX_FAULT_RETRIES} faults");
    }

    /// 32-bit fetch by an application thread.
    pub fn load_u32(&mut self, cpu: CpuId, addr: VAddr) -> Result<u32, VmError> {
        debug_assert_eq!(addr.0 % 4, 0, "unaligned word fetch at {addr}");
        let (f, off) = self.resolve(cpu, addr, Access::Fetch, 1)?;
        Ok(self.machine.mem.read_u32(f, off))
    }

    /// 32-bit store by an application thread.
    pub fn store_u32(&mut self, cpu: CpuId, addr: VAddr, value: u32) -> Result<(), VmError> {
        debug_assert_eq!(addr.0 % 4, 0, "unaligned word store at {addr}");
        let (f, off) = self.resolve(cpu, addr, Access::Store, 1)?;
        self.machine.mem.write_u32(f, off, value);
        Ok(())
    }

    /// 8-bit fetch (costs one reference, as on the 32-bit bus).
    pub fn load_u8(&mut self, cpu: CpuId, addr: VAddr) -> Result<u8, VmError> {
        let (f, off) = self.resolve(cpu, addr, Access::Fetch, 1)?;
        Ok(self.machine.mem.read_u8(f, off))
    }

    /// 8-bit store.
    pub fn store_u8(&mut self, cpu: CpuId, addr: VAddr, value: u8) -> Result<(), VmError> {
        let (f, off) = self.resolve(cpu, addr, Access::Store, 1)?;
        self.machine.mem.write_u8(f, off, value);
        Ok(())
    }

    /// 64-bit float fetch (two word references).
    pub fn load_f64(&mut self, cpu: CpuId, addr: VAddr) -> Result<f64, VmError> {
        debug_assert_eq!(addr.0 % 8, 0, "unaligned f64 fetch at {addr}");
        let (f, off) = self.resolve(cpu, addr, Access::Fetch, 2)?;
        let mut buf = [0u8; 8];
        self.machine.mem.read_bytes(f, off, &mut buf);
        Ok(f64::from_le_bytes(buf))
    }

    /// 64-bit float store (two word references).
    pub fn store_f64(&mut self, cpu: CpuId, addr: VAddr, value: f64) -> Result<(), VmError> {
        debug_assert_eq!(addr.0 % 8, 0, "unaligned f64 store at {addr}");
        let (f, off) = self.resolve(cpu, addr, Access::Store, 2)?;
        self.machine.mem.write_bytes(f, off, &value.to_le_bytes());
        Ok(())
    }

    /// The read-modify-write half of a test-and-set of the word at
    /// `addr`, once the store translation has succeeded and been charged:
    /// charges the fetch half (a reference like any other: counted, and
    /// shown to the sink), swaps in 1, and returns the previous value.
    pub fn finish_test_and_set(
        &mut self,
        cpu: CpuId,
        addr: VAddr,
        f: ace_machine::Frame,
        off: usize,
    ) -> u32 {
        self.machine.charge_access(cpu, Access::Fetch, f, 1);
        let dist = self.machine.distance(cpu, f.region);
        self.refs.add(dist, 1);
        self.emit_one(cpu, addr, Access::Fetch, dist, 1);
        let old = self.machine.mem.read_u32(f, off);
        self.machine.mem.write_u32(f, off, 1);
        old
    }

    /// Atomic test-and-set: reads the word at `addr` and sets it to 1,
    /// returning the previous value. Costs a fetch plus a store. This is
    /// the only atomic the ROMP-like processor offers; all
    /// synchronization is built from it.
    pub fn test_and_set(&mut self, cpu: CpuId, addr: VAddr) -> Result<u32, VmError> {
        debug_assert_eq!(addr.0 % 4, 0, "unaligned test-and-set at {addr}");
        let (f, off) = self.resolve(cpu, addr, Access::Store, 1)?;
        Ok(self.finish_test_and_set(cpu, addr, f, off))
    }

    /// A Unix system call executed on behalf of the calling thread: runs
    /// on the *master* processor (cpu 0), charges `compute` system time
    /// there, and touches the given user addresses **from the master
    /// processor** (section 4.6 — this is what drags per-thread pages
    /// like stacks into writable sharing with the master).
    pub fn unix_syscall(
        &mut self,
        compute: Ns,
        writes: &[VAddr],
    ) -> Result<(), VmError> {
        let master = CpuId(0);
        self.machine.clocks.charge_system(master, compute);
        for &a in writes {
            let (f, off) = self.resolve_system(master, a)?;
            let v = self.machine.mem.read_u32(f, off);
            self.machine.mem.write_u32(f, off, v);
        }
        Ok(())
    }

    /// Resolve + charge an in-kernel user-memory write from `cpu`,
    /// charging system (not user) time and bypassing the user reference
    /// counters.
    fn resolve_system(
        &mut self,
        cpu: CpuId,
        addr: VAddr,
    ) -> Result<(ace_machine::Frame, usize), VmError> {
        let page_size = self.vm.page_size();
        let vpn = page_size.page_of(addr.0);
        let offset = page_size.offset_of(addr.0);
        let asid = self.vm.task_asid(self.task)?;
        for _ in 0..MAX_FAULT_RETRIES {
            match self.machine.mmus[cpu.index()].translate(asid, vpn, Access::Store) {
                Ok(frame) => {
                    let cost = self.machine.access_cost(cpu, Access::Store, frame.region, 1)
                        + self.machine.access_cost(cpu, Access::Fetch, frame.region, 1);
                    self.machine.clocks.charge_system(cpu, cost);
                    return Ok((frame, offset));
                }
                Err(_) => {
                    self.vm.fault(
                        &mut self.machine,
                        &mut self.pmap,
                        self.task,
                        addr,
                        Prot::READ_WRITE,
                        cpu,
                    )?;
                }
            }
        }
        panic!("kernel reference to {addr} did not settle");
    }

    /// Charges pure compute time (no memory references) to `cpu`.
    #[inline]
    pub fn compute(&mut self, cpu: CpuId, t: Ns) {
        self.machine.clocks.charge_user(cpu, t);
    }

    /// Idles `cpu` toward the instant `t` within one grant: charges
    /// [`COMPUTE_CHUNK`]-sized steps of user time (the last one shortened
    /// to land on `t`) and stops after the first step that drives the clock to
    /// `budget_end`, where the idling thread must yield. True once the
    /// clock has reached `t`, false if the grant ran out first. Shared
    /// by `ThreadCtx::wait_until` and the scheduler's idling of a
    /// parked thread, so the two cannot charge different sequences.
    pub(crate) fn idle_toward(&mut self, cpu: CpuId, t: Ns, budget_end: Ns) -> bool {
        loop {
            let now = self.clock_of(cpu);
            if now >= t {
                return true;
            }
            self.compute(cpu, (t - now).min(COMPUTE_CHUNK));
            if self.clock_of(cpu) >= budget_end {
                return false;
            }
        }
    }

    /// Debug read of `N` bytes of authoritative content at `addr`,
    /// without charging time or touching placement. Follows the data
    /// wherever it currently lives: a frame, a pending page-in fill, or
    /// the swap store. Never-touched memory reads as zeros.
    fn peek_bytes<const N: usize>(&mut self, addr: VAddr) -> [u8; N] {
        let off = self.vm.page_size().offset_of(addr.0);
        let mut buf = [0u8; N];
        if let Some(lpage) = self.vm.resident_lpage(self.task, addr) {
            if let Some(f) = self.pmap.truth_frame(lpage) {
                self.machine.mem.read_bytes(f, off, &mut buf);
            } else if let Some(d) = self.pmap.peek_fill(lpage) {
                buf.copy_from_slice(&d[off..off + N]);
            }
        } else if let Some(d) = self.vm.swapped_bytes(self.task, addr) {
            buf.copy_from_slice(&d[off..off + N]);
        }
        buf
    }

    /// Debug read of the authoritative contents at `addr`, wherever they
    /// live, without charging time or touching placement.
    pub fn peek_u32(&mut self, addr: VAddr) -> u32 {
        u32::from_le_bytes(self.peek_bytes::<4>(addr))
    }

    /// Debug read of an `f64` (see [`Kernel::peek_u32`]).
    pub fn peek_f64(&mut self, addr: VAddr) -> f64 {
        f64::from_le_bytes(self.peek_bytes::<8>(addr))
    }

    /// Applies a placement pragma to a whole allocated region (section
    /// 4.3): each page is made resident and hinted, so subsequent
    /// accesses place it per the pragma. Returns false if the active
    /// policy does not support pragmas.
    pub fn set_pragma_region(
        &mut self,
        addr: VAddr,
        bytes: u64,
        placement: numa_core::Placement,
    ) -> Result<bool, VmError> {
        let page = self.vm.page_size();
        let pages = page.pages_for(bytes.max(1));
        let boot_cpu = CpuId(0);
        for i in 0..pages {
            let a = addr + i * page.bytes() as u64;
            if self.vm.resident_lpage(self.task, a).is_none() {
                self.vm.fault(
                    &mut self.machine,
                    &mut self.pmap,
                    self.task,
                    a,
                    Prot::READ,
                    boot_cpu,
                )?;
            }
            let lpage = self
                .vm
                .resident_lpage(self.task, a)
                .expect("faulted in above");
            if !self.pmap.set_pragma(&mut self.machine, lpage, placement) {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Takes `node`'s local memory offline for good and runs the online
    /// recovery protocol (see `NumaManager::node_offline`): stale
    /// mappings are shot down everywhere, surviving copies re-home, and
    /// pages whose only copy died are typed as lost and re-materialized
    /// zero-filled. The node's processors keep executing; their LOCAL
    /// placements degrade to global service permanently.
    pub fn node_offline(&mut self, node: NodeId) {
        self.pmap.node_offline(&mut self.machine, node);
    }

    /// Resets clocks, reference counters, bus and NUMA statistics while
    /// keeping memory contents and placement state (used to measure a
    /// phase in isolation).
    pub fn reset_measurements(&mut self) {
        self.machine.clocks.reset();
        self.machine.bus = Default::default();
        self.refs = RefCounters::default();
        self.pmap.reset_stats();
    }

    /// Verifies directory/replica invariants for every page the NUMA
    /// layer knows about (including that the per-node residency index
    /// equals the directory), then cross-checks the manager's directory
    /// against every MMU's live mappings: no processor may map a frame
    /// the directory does not account for, a quarantined frame, or
    /// another processor's private local copy.
    pub fn check_consistency(&mut self) -> Result<(), String> {
        let pages: Vec<_> = self.pmap.manager().known_pages().collect();
        for p in pages {
            // `pmap` and `machine` are disjoint fields, so the shared and
            // mutable borrows below do not alias.
            self.pmap.manager().check_invariants(&mut self.machine, p)?;
        }
        self.pmap.manager().check_residency_index()?;
        // Directory <-> MMU audit.
        let owners = self.pmap.manager().frame_owners();
        for i in 0..self.machine.n_cpus() {
            for ((asid, vpn), mapping) in self.machine.mmus[i].mappings() {
                let f = mapping.frame;
                if self.machine.mem.is_quarantined(f) {
                    return Err(format!(
                        "cpu{i} maps quarantined frame {f:?} (asid {asid}, vpn {vpn})"
                    ));
                }
                match owners.get(&f) {
                    None => {
                        return Err(format!(
                            "cpu{i} maps frame {f:?} (asid {asid}, vpn {vpn}) \
                             unknown to the NUMA directory"
                        ));
                    }
                    Some(&(lpage, Some(owner)))
                        if owner != self.machine.home_of(CpuId(i as u16)) =>
                    {
                        return Err(format!(
                            "cpu{i} maps {lpage:?}'s private copy {f:?} owned by {owner}"
                        ));
                    }
                    _ => {}
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_machine::TopologyBuilder;
    use numa_core::{MoveLimitPolicy, StateKind};

    fn kernel(n_cpus: usize) -> Kernel {
        let cfg = TopologyBuilder::small(n_cpus).config();
        let machine = Machine::new(cfg);
        let pmap = AcePmap::new(Box::new(MoveLimitPolicy::default()));
        Kernel::new(machine, pmap)
    }

    #[test]
    fn load_store_roundtrip_with_faults() {
        let mut k = kernel(2);
        let a = k.alloc(256, Prot::READ_WRITE).unwrap();
        k.store_u32(CpuId(0), a, 7).unwrap();
        assert_eq!(k.load_u32(CpuId(0), a).unwrap(), 7);
        assert_eq!(k.load_u32(CpuId(1), a).unwrap(), 7);
        // cpu0 wrote first: page was local-writable there, then the read
        // from cpu1 synced and replicated it.
        let lp = k.vm.resident_lpage(k.task, a).unwrap();
        assert_eq!(k.pmap.view(lp).state, StateKind::ReadOnly);
        k.check_consistency().unwrap();
    }

    #[test]
    fn reference_counters_track_distance() {
        let mut k = kernel(2);
        let a = k.alloc(64, Prot::READ_WRITE).unwrap();
        k.store_u32(CpuId(0), a, 1).unwrap();
        assert_eq!(k.refs.local, 1);
        assert_eq!(k.refs.global, 0);
        for _ in 0..9 {
            k.load_u32(CpuId(0), a).unwrap();
        }
        assert_eq!(k.refs.local, 10);
        assert!((k.refs.alpha() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn f64_costs_two_words() {
        let mut k = kernel(1);
        let a = k.alloc(64, Prot::READ_WRITE).unwrap();
        k.store_f64(CpuId(0), a, 3.25).unwrap();
        assert_eq!(k.load_f64(CpuId(0), a).unwrap(), 3.25);
        assert_eq!(k.refs.local, 4);
    }

    #[test]
    fn test_and_set_is_atomic_and_costs_two_accesses() {
        let mut k = kernel(1);
        let a = k.alloc(4, Prot::READ_WRITE).unwrap();
        assert_eq!(k.test_and_set(CpuId(0), a).unwrap(), 0);
        assert_eq!(k.test_and_set(CpuId(0), a).unwrap(), 1);
        k.store_u32(CpuId(0), a, 0).unwrap();
        assert_eq!(k.test_and_set(CpuId(0), a).unwrap(), 0);
    }

    #[test]
    fn peek_reads_truth_without_charging() {
        let mut k = kernel(2);
        let a = k.alloc(64, Prot::READ_WRITE).unwrap();
        k.store_u32(CpuId(1), a, 99).unwrap();
        let user_before = k.machine.clocks.total_user();
        assert_eq!(k.peek_u32(a), 99);
        assert_eq!(k.machine.clocks.total_user(), user_before);
        assert_eq!(k.peek_u32(a + 8), 0, "untouched word reads zero");
    }

    #[test]
    fn sink_sees_references() {
        use std::sync::{Arc, Mutex};
        let mut k = kernel(1);
        let a = k.alloc(64, Prot::READ_WRITE).unwrap();
        let log = Arc::new(Mutex::new(Vec::new()));
        let log2 = Arc::clone(&log);
        k.set_sink(Box::new(move |e: &RefEvent| log2.lock().unwrap().push(*e)));
        k.store_u32(CpuId(0), a, 1).unwrap();
        k.load_u32(CpuId(0), a).unwrap();
        let events = log.lock().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, Access::Store);
        assert_eq!(events[1].kind, Access::Fetch);
        assert_eq!(events[0].addr, a);
    }

    #[test]
    fn sink_sees_both_halves_of_a_test_and_set() {
        use std::sync::{Arc, Mutex};
        let mut k = kernel(1);
        let a = k.alloc(64, Prot::READ_WRITE).unwrap();
        let log = Arc::new(Mutex::new(Vec::new()));
        let log2 = Arc::clone(&log);
        k.set_sink(Box::new(move |e: &RefEvent| log2.lock().unwrap().push(*e)));
        k.test_and_set(CpuId(0), a + 8).unwrap();
        let events = log.lock().unwrap();
        let seen: Vec<_> = events.iter().map(|e| (e.kind, e.addr, e.words)).collect();
        assert_eq!(seen, [(Access::Store, a + 8, 1), (Access::Fetch, a + 8, 1)]);
        assert!(events[0].t < events[1].t, "each half carries its own post-charge clock");
        assert_eq!(events[1].t, k.clock_of(CpuId(0)));
        assert_eq!(k.refs.local + k.refs.global, 2);
    }

    #[test]
    fn unix_syscall_shares_page_with_master() {
        let mut k = kernel(2);
        let a = k.alloc(64, Prot::READ_WRITE).unwrap();
        // Thread on cpu1 owns its "stack" page.
        k.store_u32(CpuId(1), a, 5).unwrap();
        let lp = k.vm.resident_lpage(k.task, a).unwrap();
        assert_eq!(k.pmap.view(lp).state, StateKind::LocalWritable(NodeId(1)));
        // A syscall touches the page from the master processor.
        k.unix_syscall(Ns::from_us(100), &[a]).unwrap();
        assert_eq!(k.pmap.view(lp).state, StateKind::LocalWritable(NodeId(0)));
        assert_eq!(k.peek_u32(a), 5, "syscall write preserved the value");
        assert!(k.machine.clocks.cpu(CpuId(0)).system >= Ns::from_us(100));
    }

    #[test]
    fn reset_measurements_keeps_contents() {
        let mut k = kernel(1);
        let a = k.alloc(64, Prot::READ_WRITE).unwrap();
        k.store_u32(CpuId(0), a, 42).unwrap();
        k.reset_measurements();
        assert_eq!(k.machine.clocks.total_user(), Ns::ZERO);
        assert_eq!(k.refs.local + k.refs.global, 0);
        assert_eq!(k.peek_u32(a), 42);
        assert_eq!(k.load_u32(CpuId(0), a).unwrap(), 42);
    }
}
