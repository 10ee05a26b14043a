//! The API simulated threads program against.
//!
//! A [`ThreadCtx`] is handed to each application closure. Its memory
//! operations execute against the simulated machine (charging virtual
//! time and driving the NUMA protocol through real page faults); its
//! control operations hand the processor back to the scheduler so that
//! exactly one simulated thread runs at a time in virtual-time order.

use crate::engine::{Next, World};
use crate::fiber::Suspender;
use crate::kernel::{chunk_step, Kernel};
use ace_machine::{Access, CpuId, Distance, Frame, Ns, PageSize};
use mach_vm::VAddr;

/// What the run's driver resumes a suspended thread with.
pub(crate) enum Grant {
    /// Run on `cpu` until its clock reaches `budget_end` (at least one
    /// operation is always allowed). The right to run is the run's
    /// state itself: whoever has the world may touch it, nobody else
    /// can.
    Run {
        /// The kernel and the scheduler, handed over.
        world: Box<World>,
        /// The processor to run on (may change under the global-queue
        /// scheduler).
        cpu: CpuId,
        /// Clock value at which to yield again.
        budget_end: Ns,
    },
    /// Unwind and exit without finishing.
    Stop,
}

/// What a thread hands the run's driver when it stops running.
pub(crate) enum Handoff {
    /// The world, and the decision the thread's last yield made: the
    /// thread to grant it to next, or `None` when the run is over.
    Pass(Box<World>, Option<Next>),
    /// The thread panicked, in its body or in the scheduler code its
    /// yield ran; it still held the world.
    Panicked(Box<World>, String),
    /// The thread unwound on [`Grant::Stop`].
    Stopped,
}

/// Why a thread hands its processor back to the scheduler.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Yield {
    /// Budget or quantum exhausted (or voluntary yield).
    Budget,
    /// Budget exhausted inside [`ThreadCtx::wait_until`]: the scheduler
    /// idles the processor for the thread and wakes it only once the
    /// processor's clock has reached the given instant.
    Parked(Ns),
    /// The closure returned.
    Done,
}

/// Sent through panic unwinding when the run stops a thread early.
pub(crate) struct StopToken;

/// One cached translation: a slot of the thread's software TLB.
///
/// Filled from the final (successful) step of a slow-path
/// reference, so the recorded epoch is the MMU's epoch *after* any
/// `pmap_enter` the fault path performed. Like a hardware TLB entry it
/// carries what an access needs besides the frame: the frame's distance
/// from the processor and the per-word fetch and store costs, which a
/// hit charges without looking them up again. The entry is usable only
/// while all of the following hold ([`ThreadCtx::tlb_lookup`] is the
/// one place that checks them):
///
/// * the thread still runs on the processor the entry was filled on
///   (translations are per-processor);
/// * the referenced page is the cached page, and for a store the cached
///   translation came from a store (so write permission was proven and
///   the modified bit is already set);
/// * the processor's MMU epoch is unchanged — any unmap, protection
///   change, shootdown or reference/modified-bit clearing on that MMU
///   bumps the epoch and thereby invalidates the entry.
#[derive(Clone, Copy)]
pub(crate) struct TlbEntry {
    /// Processor the translation belongs to.
    cpu: CpuId,
    /// Virtual page number the entry translates.
    vpn: u64,
    /// Physical frame the page maps to.
    frame: Frame,
    /// MMU epoch the entry was captured at.
    epoch: u64,
    /// True when captured from a store translation (write permission
    /// proven, modified bit set).
    wrote: bool,
    /// How far `frame` is from `cpu`.
    dist: Distance,
    /// Per-word cost of a fetch from `cpu` to `frame`.
    fetch: Ns,
    /// Per-word cost of a store from `cpu` to `frame`.
    store: Ns,
}

impl TlbEntry {
    /// The entry for page `vpn`, which an access of `kind` from `cpu`
    /// has just translated to `frame`.
    fn capture(k: &Kernel, cpu: CpuId, vpn: u64, frame: Frame, kind: Access) -> TlbEntry {
        let m = &k.machine;
        let (dist, fetch, store) = m.word_costs(cpu, frame.region);
        let epoch = m.mmus[cpu.index()].epoch();
        TlbEntry { cpu, vpn, frame, epoch, wrote: kind == Access::Store, dist, fetch, store }
    }

    /// Per-word cost of an access of `kind` through this entry.
    #[inline]
    fn cost(&self, kind: Access) -> Ns {
        match kind {
            Access::Fetch => self.fetch,
            Access::Store => self.store,
        }
    }
}

/// Execution context of one simulated thread.
pub struct ThreadCtx {
    pub(crate) tid: usize,
    pub(crate) cpu: CpuId,
    /// The run's kernel and scheduler: `Some` exactly while this thread
    /// holds the grant, which is whenever its body is executing.
    pub(crate) world: Option<Box<World>>,
    /// How this thread hands the world back to the run's driver and waits
    /// for its next grant.
    pub(crate) fiber: Suspender<Grant, Handoff>,
    pub(crate) budget_end: Ns,
    pub(crate) over_budget: bool,
    /// Page geometry of the simulated machine (for run splitting).
    pub(crate) page: PageSize,
    /// Whether the batched fast path is enabled for this run.
    pub(crate) fastpath: bool,
    /// The thread's software TLB, direct-mapped: page `vpn` can live
    /// only in slot `vpn % TLB_ENTRIES`. Its reach is what a strided run
    /// needs, one entry per page it crosses: a matrix column read at a
    /// row's stride touches one page per few elements and comes back to
    /// each page on the next column.
    pub(crate) tlb: [Option<TlbEntry>; TLB_ENTRIES],
}

/// Software-TLB capacity per thread (12 KB of entries).
pub(crate) const TLB_ENTRIES: usize = 256;

/// Why a `ThreadCtx::world` is there whenever the thread looks.
const HOLDS_GRANT: &str = "a simulated thread executes only while it holds the grant";

/// The kernel of the world a running thread holds. Takes the field, not
/// the context, so the caller keeps the use of its other fields.
#[inline]
fn kernel(world: &mut Option<Box<World>>) -> &mut Kernel {
    &mut world.as_mut().expect(HOLDS_GRANT).kernel
}

impl ThreadCtx {
    /// This thread's id (its index in spawn order).
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// The processor this thread is currently running on.
    pub fn cpu(&self) -> CpuId {
        self.cpu
    }

    /// Number of processors in the machine.
    pub fn n_cpus(&self) -> usize {
        self.world.as_ref().expect(HOLDS_GRANT).kernel.machine.n_cpus()
    }

    /// Hands the processor back: books this thread's yield and runs the
    /// scheduler right here until some thread must really run. If that is
    /// this thread, it simply goes on; otherwise it hands the world and
    /// the decision to the run's driver and suspends until granted again
    /// (a switch to the driver's stack and, later, one back; no system
    /// call either way). Called by every operation once the budget is
    /// exhausted.
    pub(crate) fn rendezvous(&mut self, why: Yield) {
        let next = self.decide(why);
        let world = self.world.take().expect(HOLDS_GRANT);
        if let Some(Next { tid, cpu, budget_end }) = next {
            if tid == self.tid {
                return self.accept(Grant::Run { world, cpu, budget_end });
            }
        }
        let grant = self.fiber.suspend(Handoff::Pass(world, next));
        self.accept(grant);
    }

    /// The yield after the body has returned: the world and the decision
    /// for the driver, with nothing left to suspend for.
    pub(crate) fn finish(&mut self) -> Handoff {
        let next = self.decide(Yield::Done);
        Handoff::Pass(self.world.take().expect(HOLDS_GRANT), next)
    }

    /// Books this thread's yield and decides what runs next. The world
    /// stays in `self` meanwhile, so if the scheduler panics the thread's
    /// panic handler finds it.
    fn decide(&mut self, why: Yield) -> Option<Next> {
        let w = self.world.as_mut().expect(HOLDS_GRANT);
        w.sched.decide(&mut w.kernel, Some((self.tid, self.cpu.index(), why)))
    }

    /// Takes up a grant, or unwinds quietly if the run is over.
    pub(crate) fn accept(&mut self, grant: Grant) {
        match grant {
            Grant::Run { world, cpu, budget_end } => {
                self.world = Some(world);
                self.cpu = cpu;
                self.budget_end = budget_end;
                self.over_budget = false;
            }
            Grant::Stop => std::panic::resume_unwind(Box::new(StopToken)),
        }
    }

    #[inline]
    fn pre(&mut self) {
        if self.over_budget {
            self.rendezvous(Yield::Budget);
        }
    }

    #[inline]
    fn post(&mut self, clock: Ns) {
        if clock >= self.budget_end {
            self.over_budget = true;
        }
    }

    /// The cached translation usable right now for `vpn` under access
    /// `kind`: `vpn`'s slot, if it was filled on the current processor,
    /// for this page, with enough permission, at the MMU's current
    /// epoch. A stale entry is not dropped, it simply misses: epochs
    /// only increase, so it can never match again.
    #[inline]
    fn tlb_lookup(&mut self, vpn: u64, kind: Access) -> Option<TlbEntry> {
        let e = self.tlb[vpn as usize % TLB_ENTRIES]?;
        let cpu = self.cpu;
        let usable = e.cpu == cpu
            && e.vpn == vpn
            && (kind == Access::Fetch || e.wrote)
            && kernel(&mut self.world).machine.mmus[cpu.index()].epoch() == e.epoch;
        usable.then_some(e)
    }

    /// Installs `entry` in its page's slot, overwriting whatever was there.
    #[inline]
    fn tlb_fill(&mut self, entry: TlbEntry) {
        self.tlb[entry.vpn as usize % TLB_ENTRIES] = Some(entry);
    }

    /// Voluntarily gives up the processor (the engine may reschedule).
    pub fn yield_now(&mut self) {
        self.over_budget = true;
        self.pre();
    }

    /// One simulated data operation.
    ///
    /// Normally each fault is its own scheduling event — other
    /// processors proceed during the (long) fault service, keeping
    /// virtual-time ordering of bus arrivals. But separability opens a
    /// steal window: another processor's access can revoke the granted
    /// mapping before the faulting access retries. The paper's first
    /// pmap constraint ("a mapping and its permissions must persist long
    /// enough for the instruction that faulted to complete") caps this:
    /// after a few stolen grants, the fault and its retried access run
    /// as one atomic event, guaranteeing forward progress.
    fn data_op<R>(
        &mut self,
        addr: VAddr,
        kind: Access,
        words: u64,
        f: impl Fn(&mut Kernel, CpuId, Frame, usize) -> R,
    ) -> R {
        const SEPARATE_FAULT_STEPS: usize = 3;
        for _ in 0..SEPARATE_FAULT_STEPS {
            self.pre();
            let cpu = self.cpu;
            let k = kernel(&mut self.world);
            let step = k
                .access_step(cpu, addr, kind, words)
                .unwrap_or_else(|e| panic!("thread {}: {e}", self.tid));
            let res = step.map(|(frame, off)| f(k, cpu, frame, off));
            let clock = k.clock_of(cpu);
            self.post(clock);
            if let Some(v) = res {
                return v;
            }
        }
        // Forward-progress fallback: complete atomically.
        self.pre();
        let cpu = self.cpu;
        let k = kernel(&mut self.world);
        let (frame, off) = k
            .resolve(cpu, addr, kind, words)
            .unwrap_or_else(|e| panic!("thread {}: {e}", self.tid));
        let v = f(k, cpu, frame, off);
        let clock = k.clock_of(cpu);
        self.post(clock);
        v
    }

    /// A single reference served through the software TLB when possible:
    /// the scalar counterpart of [`ThreadCtx::run_op`]. A hit charges
    /// through [`Kernel::charge_run`] from the entry's distance and cost
    /// (identical per-element charges, counters, and sink events to a
    /// slow-path success step, minus the redundant hardware translation
    /// and cost lookups); a miss takes [`ThreadCtx::data_op`]
    /// verbatim and refills the TLB from its final successful
    /// translation.
    fn scalar_op<R>(
        &mut self,
        addr: VAddr,
        kind: Access,
        words: u64,
        f: impl Fn(&mut Kernel, CpuId, Frame, usize) -> R,
    ) -> R {
        if !self.fastpath {
            return self.data_op(addr, kind, words, f);
        }
        self.pre();
        let vpn = self.page.page_of(addr.0);
        if let Some(entry) = self.tlb_lookup(vpn, kind) {
            let cpu = self.cpu;
            let k = kernel(&mut self.world);
            let (frame, dist, word) = (entry.frame, entry.dist, entry.cost(kind));
            k.charge_run(cpu, kind, frame, dist, word, addr, 0, words, 1, self.budget_end);
            let v = f(k, cpu, frame, self.page.offset_of(addr.0));
            let clock = k.clock_of(cpu);
            self.post(clock);
            return v;
        }
        let (v, entry) = self.data_op(addr, kind, words, |k, cpu, frame, off| {
            let entry = TlbEntry::capture(k, cpu, vpn, frame, kind);
            (f(k, cpu, frame, off), entry)
        });
        self.tlb_fill(entry);
        v
    }

    /// A run of `n` equal-width references starting at `base`, element
    /// `i` at `base + i * stride` (stride in bytes; zero repeats one
    /// address). `mem` performs the memory side of element `i` given the
    /// bytes of its page and its offset in them.
    ///
    /// With the fast path enabled, an element whose page's translation
    /// is cached in the thread's TLB starts an extent: it and the
    /// elements after it on the same page, counted in closed form from
    /// the in-page offset, are charged through one
    /// [`Kernel::charge_run`] call against one lookup of the page's
    /// bytes. Every element on a miss — the slot holds another page, the
    /// epoch moved, or the access kind outruns the cached permission —
    /// goes through [`ThreadCtx::data_op`], taking the ordinary fault
    /// path and refilling the TLB from its final successful translation.
    /// With the fast path off every element goes through `data_op` and
    /// nothing is cached. Budget boundaries are preserved exactly:
    /// a batched extent stops charging at the element where the slow
    /// path would have rendezvoused.
    #[allow(clippy::too_many_arguments)]
    fn run_op<T>(
        &mut self,
        base: VAddr,
        stride: u64,
        elem_bytes: usize,
        kind: Access,
        words: u64,
        n: usize,
        mem: impl Fn(&mut [u8], usize, usize) -> T,
    ) -> Vec<T>
    where
        T: Copy,
    {
        if !self.fastpath {
            return (0..n)
                .map(|i| {
                    self.data_op(base + i as u64 * stride, kind, words, |k, _, frame, off| {
                        mem(k.machine.mem.frame_bytes(frame), off, i)
                    })
                })
                .collect();
        }
        let mut out = Vec::with_capacity(n);
        let mut i = 0usize;
        while i < n {
            let addr = base + i as u64 * stride;
            let vpn = self.page.page_of(addr.0);
            self.pre();
            if let Some(entry) = self.tlb_lookup(vpn, kind) {
                let off = self.page.offset_of(addr.0);
                // Elements left on the cached page: this one, and
                // one more per whole stride the page has room for.
                let room = self.page.bytes() - off - elem_bytes;
                let on_page = match stride as usize {
                    0 => n - i,
                    s if s > room => 1,
                    s => (n - i).min(room / s + 1),
                };
                let k = kernel(&mut self.world);
                let charged = k.charge_run(
                    self.cpu,
                    kind,
                    entry.frame,
                    entry.dist,
                    entry.cost(kind),
                    addr,
                    stride,
                    words,
                    on_page,
                    self.budget_end,
                );
                let page = k.machine.mem.frame_bytes(entry.frame);
                if stride == 0 && charged > 1 {
                    // Every element aliases one location, and no
                    // other thread can run between the elements of
                    // one charged extent (budget boundaries are the
                    // only interleaving points, on both paths) — so
                    // the extent's memory effect is one read,
                    // replicated, or its last write.
                    let idx = if kind == Access::Fetch { i } else { i + charged - 1 };
                    out.extend(std::iter::repeat_n(mem(page, off, idx), charged));
                } else {
                    let step = stride as usize;
                    out.extend((0..charged).map(|j| mem(page, off + j * step, i + j)));
                }
                let clock = k.clock_of(self.cpu);
                self.post(clock);
                i += charged;
                continue;
            }
            let (v, entry) = self.data_op(addr, kind, words, |k, cpu, frame, off| {
                let entry = TlbEntry::capture(k, cpu, vpn, frame, kind);
                (mem(k.machine.mem.frame_bytes(frame), off, i), entry)
            });
            self.tlb_fill(entry);
            out.push(v);
            i += 1;
        }
        out
    }

    /// Fetches a run of `n` 32-bit words, element `i` at
    /// `base + i * stride` (stride in bytes; elements must not cross
    /// page boundaries, which 4-byte-aligned words never do).
    ///
    /// Semantically identical to `n` [`ThreadCtx::read_u32`] calls —
    /// same charges, same events, same faults — but same-page extents
    /// are served through the batched fast path when it is enabled.
    pub fn read_run(&mut self, base: VAddr, stride: u64, n: usize) -> Vec<u32> {
        debug_assert_eq!(base.0 % 4, 0, "unaligned word run at {base}");
        debug_assert_eq!(stride % 4, 0, "word run stride {stride} not word-aligned");
        self.run_op(base, stride, 4, Access::Fetch, 1, n, |page, off, _| {
            u32::from_le_bytes(page[off..off + 4].try_into().expect("a four-byte slice"))
        })
    }

    /// Stores `values` as a run of 32-bit words, element `i` at
    /// `base + i * stride` (the batched counterpart of
    /// [`ThreadCtx::write_u32`] in a loop).
    pub fn write_run(&mut self, base: VAddr, stride: u64, values: &[u32]) {
        debug_assert_eq!(base.0 % 4, 0, "unaligned word run at {base}");
        debug_assert_eq!(stride % 4, 0, "word run stride {stride} not word-aligned");
        self.run_op(base, stride, 4, Access::Store, 1, values.len(), |page, off, i| {
            page[off..off + 4].copy_from_slice(&values[i].to_le_bytes())
        });
    }

    /// Fetches a run of `n` 64-bit floats (two word references each),
    /// element `i` at `base + i * stride`.
    pub fn read_run_f64(&mut self, base: VAddr, stride: u64, n: usize) -> Vec<f64> {
        debug_assert_eq!(base.0 % 8, 0, "unaligned f64 run at {base}");
        debug_assert_eq!(stride % 8, 0, "f64 run stride {stride} not f64-aligned");
        self.run_op(base, stride, 8, Access::Fetch, 2, n, |page, off, _| {
            f64::from_le_bytes(page[off..off + 8].try_into().expect("an eight-byte slice"))
        })
    }

    /// Stores `values` as a run of 64-bit floats (two word references
    /// each), element `i` at `base + i * stride`.
    pub fn write_run_f64(&mut self, base: VAddr, stride: u64, values: &[f64]) {
        debug_assert_eq!(base.0 % 8, 0, "unaligned f64 run at {base}");
        debug_assert_eq!(stride % 8, 0, "f64 run stride {stride} not f64-aligned");
        self.run_op(base, stride, 8, Access::Store, 2, values.len(), |page, off, i| {
            page[off..off + 8].copy_from_slice(&values[i].to_le_bytes())
        });
    }

    /// Fetches a 32-bit word.
    ///
    /// # Panics
    ///
    /// Panics on an unresolvable fault (unmapped address or protection
    /// violation) — the simulated equivalent of a segmentation fault.
    pub fn read_u32(&mut self, addr: VAddr) -> u32 {
        debug_assert_eq!(addr.0 % 4, 0, "unaligned word fetch at {addr}");
        self.scalar_op(addr, Access::Fetch, 1, |k, _cpu, f, off| k.machine.mem.read_u32(f, off))
    }

    /// Stores a 32-bit word.
    pub fn write_u32(&mut self, addr: VAddr, value: u32) {
        debug_assert_eq!(addr.0 % 4, 0, "unaligned word store at {addr}");
        self.scalar_op(addr, Access::Store, 1, |k, _cpu, f, off| {
            k.machine.mem.write_u32(f, off, value)
        })
    }

    /// Fetches a 32-bit word as `i32`.
    pub fn read_i32(&mut self, addr: VAddr) -> i32 {
        self.read_u32(addr) as i32
    }

    /// Stores a 32-bit word from `i32`.
    pub fn write_i32(&mut self, addr: VAddr, value: i32) {
        self.write_u32(addr, value as u32)
    }

    /// Fetches one byte (costs a full word reference on the 32-bit bus).
    pub fn read_u8(&mut self, addr: VAddr) -> u8 {
        self.scalar_op(addr, Access::Fetch, 1, |k, _cpu, f, off| k.machine.mem.read_u8(f, off))
    }

    /// Stores one byte.
    pub fn write_u8(&mut self, addr: VAddr, value: u8) {
        self.scalar_op(addr, Access::Store, 1, |k, _cpu, f, off| {
            k.machine.mem.write_u8(f, off, value)
        })
    }

    /// Fetches a 64-bit float (two word references).
    pub fn read_f64(&mut self, addr: VAddr) -> f64 {
        debug_assert_eq!(addr.0 % 8, 0, "unaligned f64 fetch at {addr}");
        self.scalar_op(addr, Access::Fetch, 2, |k, _cpu, f, off| {
            let mut buf = [0u8; 8];
            k.machine.mem.read_bytes(f, off, &mut buf);
            f64::from_le_bytes(buf)
        })
    }

    /// Stores a 64-bit float (two word references).
    pub fn write_f64(&mut self, addr: VAddr, value: f64) {
        debug_assert_eq!(addr.0 % 8, 0, "unaligned f64 store at {addr}");
        self.scalar_op(addr, Access::Store, 2, |k, _cpu, f, off| {
            k.machine.mem.write_bytes(f, off, &value.to_le_bytes())
        })
    }

    /// Atomic test-and-set of the word at `addr` (sets it to 1, returns
    /// the previous value). The primitive all spin locks are built on.
    pub fn test_and_set(&mut self, addr: VAddr) -> u32 {
        debug_assert_eq!(addr.0 % 4, 0, "unaligned test-and-set at {addr}");
        self.scalar_op(addr, Access::Store, 1, |k, cpu, f, off| {
            // The RMW completes atomically within the final step.
            k.finish_test_and_set(cpu, addr, f, off)
        })
    }

    /// Charges `t` of pure compute time (instructions that reference no
    /// writable memory), split into engine-visible chunks.
    ///
    /// The clock at every rendezvous is the same on both paths. The slow
    /// path charges one chunk per trip round the loop; the fast path
    /// charges in one step everything the slow path would charge before
    /// its next rendezvous: all that remains if it fits the window, else
    /// whole chunks up to the first that reaches the budget's end.
    pub fn compute(&mut self, t: Ns) {
        let mut remaining = t;
        while remaining > Ns::ZERO {
            self.pre();
            let k = kernel(&mut self.world);
            let clock = k.clock_of(self.cpu);
            let window = self.budget_end.saturating_sub(clock);
            let step = chunk_step(remaining, window, self.fastpath);
            k.compute(self.cpu, step);
            remaining -= step;
            self.post(clock + step);
        }
    }

    /// This thread's current virtual-time instant: the scheduling clock
    /// of the processor it runs on. Reading the clock charges no time;
    /// if the budget is already spent the thread rendezvouses first, so
    /// the answer is the instant it would next be allowed to run at.
    pub fn now(&mut self) -> Ns {
        self.pre();
        kernel(&mut self.world).clock_of(self.cpu)
    }

    /// Idles until this processor's clock reaches `t`, charging pure
    /// compute exactly as [`ThreadCtx::compute`] would: one closed-form
    /// step per grant on the fast path, 20 µs chunks on the slow path,
    /// the same clock at every rendezvous; returns immediately when the
    /// clock is already past `t`. Open-loop workloads use this to pace
    /// request arrivals on the virtual-time axis: the schedule is a
    /// pure function of the arrival times, so runs are byte-identical
    /// across worker counts and access paths.
    ///
    /// The thread idles inline only while its budget lasts; then it
    /// yields as `Yield::Parked` and stays suspended until the
    /// clock has reached `t`. The windows in between are idled through
    /// by the scheduler with the very charges this thread would have
    /// made (`Kernel::idle_toward` implements both, on the same path).
    /// The clock is never jumped past a window's end toward `t`: it is
    /// shared with any thread scheduled onto the same processor, and
    /// daemon ticks and hard failures key off the clocks at every
    /// window boundary in between.
    pub fn wait_until(&mut self, t: Ns) {
        loop {
            if self.over_budget {
                self.rendezvous(Yield::Parked(t));
            }
            if kernel(&mut self.world).idle_toward(self.cpu, t, self.budget_end, self.fastpath) {
                return;
            }
            self.over_budget = true;
        }
    }

    /// Executes a Unix system call on the master processor (section 4.6):
    /// `compute` of system time on cpu 0 plus read-modify-writes of the
    /// given user addresses *from cpu 0*.
    pub fn unix_syscall(&mut self, compute: Ns, touches: &[VAddr]) {
        self.pre();
        let k = kernel(&mut self.world);
        k.unix_syscall(compute, touches)
            .unwrap_or_else(|e| panic!("thread {}: syscall: {e}", self.tid));
        let clock = k.clock_of(self.cpu);
        self.post(clock);
    }
}
