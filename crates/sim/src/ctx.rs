//! The API simulated threads program against.
//!
//! A [`ThreadCtx`] is handed to each application closure. Its memory
//! operations execute against the simulated machine (charging virtual
//! time and driving the NUMA protocol through real page faults); its
//! control operations hand the processor back to the scheduler so that
//! exactly one simulated thread runs at a time in virtual-time order.

use crate::engine::{Ended, Next, Shared, World};
use crate::kernel::{Kernel, COMPUTE_CHUNK};
use ace_machine::{Access, CpuId, Frame, Ns, PageSize};
use mach_vm::VAddr;
use std::sync::Arc;

/// A scheduling decision deposited in a parked thread's slot.
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

/// One cached translation: the thread's single-entry software TLB.
///
/// Filled from the final (successful) step of a slow-path
/// reference, so the recorded epoch is the MMU's epoch *after* any
/// `pmap_enter` the fault path performed. The entry is usable only
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
}

/// Execution context of one simulated thread.
pub struct ThreadCtx {
    pub(crate) tid: usize,
    pub(crate) cpu: CpuId,
    /// The run's kernel and scheduler: `Some` exactly while this thread
    /// holds the grant, which is whenever its body is executing.
    pub(crate) world: Option<Box<World>>,
    /// The grant slots shared by the run's threads.
    pub(crate) shared: Arc<Shared>,
    pub(crate) budget_end: Ns,
    pub(crate) over_budget: bool,
    /// Page geometry of the simulated machine (for run splitting).
    pub(crate) page: PageSize,
    /// Whether the batched fast path is enabled for this run.
    pub(crate) fastpath: bool,
    /// The thread's software TLB. A handful of entries suffices: loops
    /// alternating between a data page and a (private) stack page are
    /// the common pattern, and anything larger is covered by the run
    /// helpers' extent batching.
    pub(crate) tlb: [Option<TlbEntry>; TLB_ENTRIES],
    /// Round-robin replacement cursor for [`ThreadCtx::tlb`].
    pub(crate) tlb_next: usize,
}

/// Software-TLB capacity per thread.
pub(crate) const TLB_ENTRIES: usize = 4;

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

    /// Hands the processor back: books this thread's yield, runs the
    /// scheduler right here until some thread must really run, and — if
    /// that is another thread — sends it the world and parks until
    /// granted again (one host context switch; none if the decision is
    /// for this thread). Called by every operation once the budget is
    /// exhausted, and with [`Yield::Done`] when the body has returned
    /// (there is nothing to park for then).
    pub(crate) fn rendezvous(&mut self, why: Yield) {
        // The world stays in `self` while the scheduler runs, so the
        // thread's panic handler finds it if the scheduler panics.
        let w = self.world.as_mut().expect(HOLDS_GRANT);
        let next = w.sched.decide(&mut w.kernel, Some((self.tid, self.cpu.index(), why)));
        let world = self.world.take();
        match next {
            Some(Next { tid, cpu, budget_end }) => {
                let grant = Grant::Run { world: world.expect(HOLDS_GRANT), cpu, budget_end };
                if tid == self.tid {
                    return self.accept(grant);
                }
                self.shared.slots[tid].put(grant);
            }
            None => self.shared.end.put(Ended { world, panic: None }),
        }
        if !matches!(why, Yield::Done) {
            let grant = self.shared.slots[self.tid].take();
            self.accept(grant);
        }
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
    /// `kind`: filled on the current processor, for this page, with
    /// enough permission, at the MMU's current epoch. Finding one whose
    /// epoch has passed drops every entry (all entries for this MMU
    /// share its fate, and entries for other processors are unusable
    /// here anyway).
    #[inline]
    fn tlb_lookup(&mut self, vpn: u64, kind: Access) -> Option<TlbEntry> {
        let cpu = self.cpu;
        let entry = self.tlb.iter().flatten().copied().find(|e| {
            e.cpu == cpu && e.vpn == vpn && (kind == Access::Fetch || e.wrote)
        })?;
        if kernel(&mut self.world).machine.mmus[cpu.index()].epoch() != entry.epoch {
            self.tlb = [None; TLB_ENTRIES];
            return None;
        }
        Some(entry)
    }

    /// Installs `entry`, replacing any entry for the same page on the
    /// same processor, else evicting round-robin.
    #[inline]
    fn tlb_fill(&mut self, entry: TlbEntry) {
        if let Some(slot) = self
            .tlb
            .iter_mut()
            .find(|s| s.is_some_and(|e| e.cpu == entry.cpu && e.vpn == entry.vpn))
        {
            *slot = Some(entry);
            return;
        }
        self.tlb[self.tlb_next] = Some(entry);
        self.tlb_next = (self.tlb_next + 1) % TLB_ENTRIES;
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
    /// through [`Kernel::charge_run`] (identical per-element charges,
    /// counters, and sink events to a slow-path success step, minus the
    /// redundant hardware translation); a miss takes [`ThreadCtx::data_op`]
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
            k.charge_run(cpu, kind, entry.frame, addr, 0, words, 1, self.budget_end);
            let v = f(k, cpu, entry.frame, self.page.offset_of(addr.0));
            let clock = k.clock_of(cpu);
            self.post(clock);
            return v;
        }
        let (v, entry) = self.data_op(addr, kind, words, |k, cpu, frame, off| {
            let epoch = k.machine.mmus[cpu.index()].epoch();
            let entry =
                TlbEntry { cpu, vpn, frame, epoch, wrote: kind == Access::Store };
            (f(k, cpu, frame, off), entry)
        });
        self.tlb_fill(entry);
        v
    }

    /// A run of `n` equal-width references starting at `base`, element
    /// `i` at `base + i * stride` (stride in bytes; zero repeats one
    /// address). `mem` performs the memory side of element `i` given its
    /// frame and in-page byte offset.
    ///
    /// With the fast path enabled, maximal same-page extents whose
    /// translation is cached in the thread's TLB are charged through
    /// one [`Kernel::charge_run`] call; the first element
    /// on each page — and every element when the TLB misses, the epoch
    /// moved, the access kind outruns the cached permission, or the fast
    /// path is off — goes through [`ThreadCtx::data_op`], taking the
    /// ordinary fault path and refilling the TLB from its final
    /// successful translation. Budget boundaries are preserved exactly:
    /// a batched extent stops charging at the element where the slow
    /// path would have rendezvoused.
    #[allow(clippy::too_many_arguments)]
    fn run_op<T>(
        &mut self,
        base: VAddr,
        stride: u64,
        elem_bytes: u64,
        kind: Access,
        words: u64,
        n: usize,
        mem: impl Fn(&mut Kernel, Frame, usize, usize) -> T,
    ) -> Vec<T>
    where
        T: Copy,
    {
        let mut out = Vec::with_capacity(n);
        let mut i = 0usize;
        while i < n {
            let addr = base + i as u64 * stride;
            if self.fastpath {
                self.pre();
                if let Some(entry) = self.tlb_lookup(self.page.page_of(addr.0), kind) {
                    let cpu = self.cpu;
                    // Maximal extent of elements on the cached page.
                    let mut m = 1usize;
                    while i + m < n {
                        let a = base.0 + (i + m) as u64 * stride;
                        if self.page.page_of(a) == entry.vpn
                            && self.page.page_of(a + elem_bytes - 1) == entry.vpn
                        {
                            m += 1;
                        } else {
                            break;
                        }
                    }
                    let k = kernel(&mut self.world);
                    let charged = k.charge_run(
                        cpu,
                        kind,
                        entry.frame,
                        addr,
                        stride,
                        words,
                        m,
                        self.budget_end,
                    );
                    if stride == 0 && charged > 1 {
                        // Every element aliases one location, and no
                        // other thread can run between the elements of
                        // one charged extent (budget boundaries are the
                        // only interleaving points, on both paths) — so
                        // the extent's memory effect is one read,
                        // replicated, or its last write.
                        let off = self.page.offset_of(addr.0);
                        let last = i + charged - 1;
                        let idx = if kind == Access::Fetch { i } else { last };
                        let v = mem(k, entry.frame, off, idx);
                        out.extend(std::iter::repeat_n(v, charged));
                    } else {
                        for j in 0..charged {
                            let off = self.page.offset_of(addr.0 + j as u64 * stride);
                            out.push(mem(k, entry.frame, off, i + j));
                        }
                    }
                    let clock = k.clock_of(cpu);
                    self.post(clock);
                    i += charged;
                    continue;
                }
            }
            let vpn = self.page.page_of(addr.0);
            let (v, entry) = self.data_op(addr, kind, words, |k, cpu, f, off| {
                let epoch = k.machine.mmus[cpu.index()].epoch();
                let entry =
                    TlbEntry { cpu, vpn, frame: f, epoch, wrote: kind == Access::Store };
                (mem(k, f, off, i), entry)
            });
            if self.fastpath {
                self.tlb_fill(entry);
            }
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
        self.run_op(base, stride, 4, Access::Fetch, 1, n, |k, f, off, _| {
            k.machine.mem.read_u32(f, off)
        })
    }

    /// Stores `values` as a run of 32-bit words, element `i` at
    /// `base + i * stride` (the batched counterpart of
    /// [`ThreadCtx::write_u32`] in a loop).
    pub fn write_run(&mut self, base: VAddr, stride: u64, values: &[u32]) {
        debug_assert_eq!(base.0 % 4, 0, "unaligned word run at {base}");
        debug_assert_eq!(stride % 4, 0, "word run stride {stride} not word-aligned");
        self.run_op(base, stride, 4, Access::Store, 1, values.len(), |k, f, off, i| {
            k.machine.mem.write_u32(f, off, values[i])
        });
    }

    /// Fetches a run of `n` 64-bit floats (two word references each),
    /// element `i` at `base + i * stride`.
    pub fn read_run_f64(&mut self, base: VAddr, stride: u64, n: usize) -> Vec<f64> {
        debug_assert_eq!(base.0 % 8, 0, "unaligned f64 run at {base}");
        debug_assert_eq!(stride % 8, 0, "f64 run stride {stride} not f64-aligned");
        self.run_op(base, stride, 8, Access::Fetch, 2, n, |k, f, off, _| {
            let mut buf = [0u8; 8];
            k.machine.mem.read_bytes(f, off, &mut buf);
            f64::from_le_bytes(buf)
        })
    }

    /// Stores `values` as a run of 64-bit floats (two word references
    /// each), element `i` at `base + i * stride`.
    pub fn write_run_f64(&mut self, base: VAddr, stride: u64, values: &[f64]) {
        debug_assert_eq!(base.0 % 8, 0, "unaligned f64 run at {base}");
        debug_assert_eq!(stride % 8, 0, "f64 run stride {stride} not f64-aligned");
        self.run_op(base, stride, 8, Access::Store, 2, values.len(), |k, f, off, i| {
            k.machine.mem.write_bytes(f, off, &values[i].to_le_bytes())
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
    /// The chunk sequence and the clock at every rendezvous are the same
    /// on both paths; the fast path merely charges consecutive chunks
    /// that fit within the current budget in one inner loop, where the
    /// slow path goes round the outer one once per chunk.
    pub fn compute(&mut self, t: Ns) {
        let mut remaining = t;
        while remaining > Ns::ZERO {
            self.pre();
            let k = kernel(&mut self.world);
            let clock = loop {
                let step = remaining.min(COMPUTE_CHUNK);
                k.compute(self.cpu, step);
                remaining -= step;
                let clock = k.clock_of(self.cpu);
                if remaining == Ns::ZERO || clock >= self.budget_end || !self.fastpath {
                    break clock;
                }
            };
            self.post(clock);
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
    /// compute in `COMPUTE_CHUNK` steps; returns immediately when the
    /// clock is already past `t`. Open-loop workloads use this to pace
    /// request arrivals on the virtual-time axis: the schedule is a
    /// pure function of the arrival times, so runs are byte-identical
    /// across worker counts and access paths.
    ///
    /// The thread idles inline only while its budget lasts; then it
    /// yields as [`Yield::Parked`] and sleeps on the host until the
    /// clock has reached `t`. The windows in between are idled through
    /// by the scheduler with the very charges this loop would have made
    /// (`Kernel::idle_toward` implements both). The clock is never
    /// jumped to `t`: it is shared with any thread scheduled onto the
    /// same processor, and daemon ticks and hard failures key off the
    /// clocks at every window boundary in between.
    pub fn wait_until(&mut self, t: Ns) {
        loop {
            if self.over_budget {
                self.rendezvous(Yield::Parked(t));
            }
            if kernel(&mut self.world).idle_toward(self.cpu, t, self.budget_end) {
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
