//! The simulation engine: spawning, scheduling, and running simulated
//! threads deterministically.

use crate::config::{SchedulerKind, SimConfig};
use crate::ctx::{Grant, StopToken, ThreadCtx, Yield};
use crate::kernel::Kernel;
use crate::report::RunReport;
use ace_machine::{CpuId, HardFault, Machine, Ns, Prot};
use mach_vm::VAddr;
use numa_core::{AcePmap, CachePolicy};
use std::cell::{RefCell, RefMut};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};

/// A closure waiting to be run as a simulated thread.
struct PendingThread {
    name: String,
    body: Box<dyn FnOnce(&mut ThreadCtx) + Send + 'static>,
}

/// Runs one complete simulation from one configuration: boots a
/// simulator for `cfg` and `policy`, hands it to `body` (which
/// allocates, spawns and drives an application to completion), and
/// returns the run's report.
///
/// This is the single-config entry point the `numa-lab` worker farm
/// calls once per sweep cell; unlike the panicking harness helpers it
/// propagates the application's verification failure as a typed `Err`,
/// so a wrong answer in one grid cell surfaces as that cell's error
/// instead of tearing down the whole sweep.
pub fn run_one(
    cfg: SimConfig,
    policy: Box<dyn CachePolicy>,
    body: impl FnOnce(&mut Simulator) -> Result<(), String>,
) -> Result<RunReport, String> {
    let budget = cfg.vt_budget;
    let mut sim = Simulator::new(cfg, policy);
    let result = body(&mut sim);
    if sim.vt_exceeded() {
        // The budget abort truncates the run, so any verification
        // failure in `body` is a symptom; report the cause.
        let b = budget.map(|n| n.0).unwrap_or(0);
        return Err(format!("virtual-time budget of {b} ns exceeded"));
    }
    result?;
    Ok(sim.report())
}

/// The user-facing simulator: build a machine, allocate memory, spawn
/// threads, run, inspect.
///
/// # Examples
///
/// ```
/// use ace_machine::Prot;
/// use ace_sim::{SimConfig, Simulator};
/// use numa_core::MoveLimitPolicy;
///
/// let mut sim = Simulator::new(SimConfig::small(2), Box::new(MoveLimitPolicy::default()));
/// let a = sim.alloc(256, Prot::READ_WRITE);
/// sim.spawn("writer", move |ctx| ctx.write_u32(a, 7));
/// let report = sim.run();
/// assert_eq!(sim.with_kernel(|k| k.peek_u32(a)), 7);
/// assert!(report.total_user() > ace_machine::Ns::ZERO);
/// ```
pub struct Simulator {
    cfg: Arc<SimConfig>,
    /// The kernel between runs; a run takes it out and, however it
    /// ends, puts it back. In a `RefCell` because set-up and inspection
    /// take `&self`, and not `Sync` because nothing shares a simulator.
    kernel: RefCell<Option<Kernel>>,
    pending: Vec<PendingThread>,
    /// Next processor for sequential affinity assignment.
    next_cpu: usize,
    /// True once a run was cut short by the virtual-time budget.
    vt_exceeded: bool,
    /// Serving-workload measurements attached by the application (see
    /// [`Simulator::attach_serving`]); `None` for every batch workload.
    serving: Option<numa_metrics::ServingReport>,
}

impl Simulator {
    /// Boots a simulator with the given placement policy. If the config
    /// carries an event sink, the machine's tap and the NUMA manager's
    /// sink are both wired to it, so the sink sees the full stream —
    /// bus traffic and protocol actions alike — in virtual-time order
    /// per processor.
    pub fn new(cfg: SimConfig, policy: Box<dyn CachePolicy>) -> Simulator {
        let mut machine = Machine::new(cfg.machine.clone());
        let mut pmap = AcePmap::new(policy);
        if let Some(sink) = &cfg.events {
            let tap_sink = Arc::clone(sink);
            machine.set_tap(Box::new(move |me| {
                let ev = numa_metrics::Event::from(me);
                tap_sink.lock().expect("event sink poisoned").record(&ev);
            }));
            pmap.set_event_sink(Arc::clone(sink));
        }
        Simulator {
            cfg: Arc::new(cfg),
            kernel: RefCell::new(Some(Kernel::new(machine, pmap))),
            pending: Vec::new(),
            next_cpu: 0,
            vt_exceeded: false,
            serving: None,
        }
    }

    /// The kernel, borrowed exclusively (a second borrow panics).
    fn kernel(&self) -> RefMut<'_, Kernel> {
        RefMut::map(self.kernel.borrow_mut(), |k| k.as_mut().expect(KERNEL_HOME))
    }

    /// Attaches serving-workload measurements (request counts, tail
    /// latency) to every subsequent [`Simulator::report`]. Only serving
    /// applications call this, so batch runs keep the exact report
    /// shape they had before the serving subsystem existed.
    pub fn attach_serving(&mut self, serving: numa_metrics::ServingReport) {
        self.serving = Some(serving);
    }

    /// True if any run so far was cut short by the configured
    /// virtual-time budget (the report then covers a truncated run).
    pub fn vt_exceeded(&self) -> bool {
        self.vt_exceeded
    }

    /// The engine configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Allocates zero-filled application memory (harness-level
    /// `vm_allocate`).
    pub fn alloc(&self, bytes: u64, prot: Prot) -> VAddr {
        self.kernel().alloc(bytes, prot).expect("application allocation failed")
    }

    /// Frees an allocation made with [`Simulator::alloc`] (harness-level
    /// `vm_deallocate`): its logical pages go through the lazy
    /// `pmap_free_page` path and their placement history is forgotten.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not the base of a live allocation.
    pub fn dealloc(&self, addr: VAddr) {
        self.kernel().dealloc(addr).expect("deallocating a live allocation")
    }

    /// Runs `f` on the kernel (inspection and setup, between runs).
    /// Panics if `f` re-enters the simulator: the borrow is exclusive.
    pub fn with_kernel<R>(&self, f: impl FnOnce(&mut Kernel) -> R) -> R {
        f(&mut self.kernel())
    }

    /// Queues a simulated thread for the next [`Simulator::run`].
    pub fn spawn(
        &mut self,
        name: impl Into<String>,
        body: impl FnOnce(&mut ThreadCtx) + Send + 'static,
    ) {
        self.pending.push(PendingThread { name: name.into(), body: Box::new(body) });
    }

    /// Runs every queued thread to completion and reports what was
    /// measured. May be called repeatedly: kernel state (memory
    /// contents, placement, clocks) persists across runs.
    ///
    /// # Panics
    ///
    /// With `simulated thread panicked: …` if a thread body (or the
    /// scheduler, running on a simulated thread's stack) panicked; every
    /// host thread of the run has been stopped and joined by then, and
    /// the kernel is back for inspection.
    pub fn run(&mut self) -> RunReport {
        let pending = std::mem::take(&mut self.pending);
        if !pending.is_empty() {
            self.run_threads(pending);
        }
        self.report()
    }

    fn run_threads(&mut self, pending: Vec<PendingThread>) {
        // Queue in spawn order and decide once before any host thread
        // exists: the schedule cannot depend on which one starts first.
        // The kernel is still in its cell for this, so a scheduler
        // panic on the caller's stack cannot drop it.
        let (mut sched, cpus, first) = {
            let mut k = self.kernel();
            let mut sched = Scheduler::new(Arc::clone(&self.cfg), &k, self.next_cpu);
            let cpus = sched.admit(&k, pending.len());
            let first = sched.decide(&mut k, None);
            (sched, cpus, first)
        };
        let mut panic_msg = None;
        // No grant: an earlier run's clocks already exceed the budget.
        if let Some(next) = first {
            let kernel = self.kernel.take().expect(KERNEL_HOME);
            let shared = Arc::new(Shared {
                slots: pending.iter().map(|_| Slot::default()).collect(),
                end: Slot::default(),
            });
            let Next { tid, cpu, budget_end } = next;
            let world = Box::new(World { kernel, sched });
            shared.slots[tid].put(Grant::Run { world, cpu, budget_end });
            let handles: Vec<_> = pending
                .into_iter()
                .zip(cpus)
                .enumerate()
                .map(|(tid, (p, cpu))| self.start_thread(&shared, tid, cpu, p))
                .collect();
            let ended = shared.end.take();
            // The publisher held the world, so no grant is in flight and
            // every other live thread is parked on an empty slot.
            for slot in &shared.slots {
                slot.put(Grant::Stop);
            }
            for h in handles {
                let _ = h.join();
            }
            let world = ended.world.expect("the run's state was dropped with an overwritten grant");
            let World { kernel, sched: at_end } = *world;
            *self.kernel.get_mut() = Some(kernel);
            sched = at_end;
            panic_msg = ended.panic;
        }
        self.next_cpu = sched.next_cpu;
        self.vt_exceeded |= sched.vt_exceeded;
        if let Some(msg) = panic_msg {
            panic!("simulated thread panicked: {msg}");
        }
    }

    /// Starts the host thread that carries simulated thread `tid`.
    fn start_thread(
        &self,
        shared: &Arc<Shared>,
        tid: usize,
        cpu: CpuId,
        p: PendingThread,
    ) -> std::thread::JoinHandle<()> {
        let mut ctx = ThreadCtx {
            tid,
            cpu,
            world: None,
            shared: Arc::clone(shared),
            budget_end: Ns::ZERO,
            over_budget: false,
            page: self.cfg.machine.page_size,
            fastpath: self.cfg.fastpath,
            tlb: [None; crate::ctx::TLB_ENTRIES],
            tlb_next: 0,
        };
        let body = p.body;
        std::thread::Builder::new()
            .name(format!("sim-{}-{}", tid, p.name))
            .spawn(move || {
                // The final yield is guarded too: the scheduler it runs
                // may panic, and that must end the run, not strand it.
                let result = catch_unwind(AssertUnwindSafe(|| {
                    let first = ctx.shared.slots[tid].take();
                    ctx.accept(first);
                    (body)(&mut ctx);
                    ctx.rendezvous(Yield::Done);
                }));
                if let Err(payload) = result {
                    if payload.downcast_ref::<StopToken>().is_none() {
                        // A thread panics only while it runs, so it holds
                        // the world (unless `Slot::put` caught it mid-send).
                        let panic = Some(panic_text(payload.as_ref()));
                        ctx.shared.end.put(Ended { world: ctx.world.take(), panic });
                    }
                }
            })
            .expect("spawning simulated thread")
    }

    /// A report of everything measured so far.
    pub fn report(&self) -> RunReport {
        let k = self.kernel();
        RunReport {
            policy: k.pmap.policy_name(),
            cpu_times: k.machine.clocks.all().to_vec(),
            refs: k.refs,
            numa: k.pmap.stats(),
            bus: k.machine.bus,
            faults: k.machine.fault.stats(),
            serving: self.serving.clone(),
            degraded: None,
        }
    }
}

/// Why the simulator's kernel cell is full whenever it is looked into.
const KERNEL_HOME: &str = "the kernel comes home when a run ends";

/// The message a panic payload carries.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic>".to_string())
}

/// A one-value mailbox a host thread parks on.
pub(crate) struct Slot<T> {
    value: Mutex<Option<T>>,
    filled: Condvar,
}

impl<T> Default for Slot<T> {
    fn default() -> Self {
        Slot { value: Mutex::new(None), filled: Condvar::new() }
    }
}

impl<T> Slot<T> {
    /// Deposits `v` and wakes the owner. Panics if the previous deposit
    /// is still unread: a grant goes only to a parked thread and the
    /// end-of-run `Stop`s go out only after the world's holder published
    /// the end, so every slot is empty when something is put — and an
    /// overwritten grant could be the world, which `run` would await
    /// forever.
    pub(crate) fn put(&self, v: T) {
        let unread = self.value.lock().expect("no panic can happen under a slot lock").replace(v);
        self.filled.notify_one();
        assert!(unread.is_none(), "a slot's deposit was overwritten unread");
    }

    /// Blocks until a value has been deposited and removes it.
    pub(crate) fn take(&self) -> T {
        let mut value = self.value.lock().expect("no panic can happen under a slot lock");
        loop {
            if let Some(v) = value.take() {
                return v;
            }
            value = self.filled.wait(value).expect("no panic can happen under a slot lock");
        }
    }
}

/// Everything a run mutates. One exists per run and one host thread
/// owns it at any instant — the simulated thread holding the grant, or
/// [`Simulator::run`] before the first grant and after the end — so
/// "exactly one simulated thread executes at a time" is what the borrow
/// checker enforces, with no lock to take.
pub(crate) struct World {
    pub(crate) kernel: Kernel,
    pub(crate) sched: Scheduler,
}

/// The mailboxes the host threads of one run share. There is no engine
/// thread: whichever simulated thread yields runs the [`Scheduler`]
/// itself and passes the world on through the grantee's slot.
pub(crate) struct Shared {
    /// One grant slot per simulated thread, by tid.
    pub(crate) slots: Vec<Slot<Grant>>,
    /// How the run ended, for [`Simulator::run`] to wait on.
    pub(crate) end: Slot<Ended>,
}

/// The end of a run, published by whoever held the world then.
pub(crate) struct Ended {
    /// The run's state coming home; `None` only if the publisher lost
    /// it to [`Slot::put`]'s assertion while handing it over.
    pub(crate) world: Option<Box<World>>,
    /// The message of the panic that cut the run short, if one did.
    pub(crate) panic: Option<String>,
}

/// The scheduler's decision: `tid` runs on `cpu` until its clock
/// reaches `budget_end`.
pub(crate) struct Next {
    pub(crate) tid: usize,
    pub(crate) cpu: CpuId,
    pub(crate) budget_end: Ns,
}

/// Per-processor scheduler slot.
struct CpuSlot {
    runq: VecDeque<usize>,
    current: Option<usize>,
    quantum_end: Ns,
}

/// State of one simulated thread from the scheduler's point of view.
struct ThreadSlot {
    /// The processor the thread was bound to at creation (used by the
    /// affinity scheduler).
    home_cpu: usize,
    /// Set while the thread sleeps in `wait_until`: the instant its
    /// processor's clock must reach before it is woken.
    parked_until: Option<Ns>,
}

/// The scheduling state of one [`Simulator::run`].
pub(crate) struct Scheduler {
    cfg: Arc<SimConfig>,
    cpus: Vec<CpuSlot>,
    global_q: VecDeque<usize>,
    threads: Vec<ThreadSlot>,
    alive: usize,
    next_cpu: usize,
    next_daemon_tick: Ns,
    vt_exceeded: bool,
    /// Scheduled hard failures not yet fired, ascending by (vt, cpu).
    /// Fired between grants when the minimum runnable clock crosses the
    /// failure's virtual time — the same deterministic trigger as the
    /// daemon tick, so recovery is identical at any `--jobs`.
    pending_hard: Vec<HardFault>,
}

impl Scheduler {
    fn new(cfg: Arc<SimConfig>, k: &Kernel, next_cpu: usize) -> Scheduler {
        // Hard failures come from the machine's fault schedule. Sorted
        // ascending so they fire in virtual-time order; already-fired
        // ones (repeated `run()` calls) no-op at the kernel layer.
        let mut pending_hard = k.machine.fault.config().hard_faults.clone();
        pending_hard.sort_by_key(|hf| (hf.vt().0, hf.target_index()));
        Scheduler {
            cpus: (0..cfg.machine.n_cpus())
                .map(|_| CpuSlot { runq: VecDeque::new(), current: None, quantum_end: Ns::ZERO })
                .collect(),
            global_q: VecDeque::new(),
            threads: Vec::new(),
            alive: 0,
            next_cpu,
            next_daemon_tick: cfg.daemon_interval,
            vt_exceeded: false,
            pending_hard,
            cfg,
        }
    }

    /// Fires one scheduled hard failure. Runs between grants, so no
    /// thread is mid-access when the machine changes under it.
    fn fire_hard_fault(&mut self, k: &mut Kernel, hf: HardFault) {
        match hf {
            HardFault::NodeOffline { node, .. } => {
                // The node's processors keep executing; their local
                // memory is gone. The kernel runs the online recovery
                // protocol.
                k.node_offline(node);
            }
            HardFault::CpuOffline { cpu, .. } => {
                let c = cpu.index();
                if k.dead_cpus[c] {
                    return;
                }
                // Drain the dead processor's runnable threads (its
                // parked current thread plus its affinity queue) to
                // survivors, round-robin in drain order — a
                // deterministic re-home. Memory stays online: pages the
                // processor owned migrate away on their next access.
                let mut drained: Vec<usize> = Vec::new();
                if let Some(tid) = self.cpus[c].current.take() {
                    drained.push(tid);
                }
                drained.extend(self.cpus[c].runq.drain(..));
                k.dead_cpus[c] = true;
                let survivors: Vec<usize> =
                    (0..self.cpus.len()).filter(|&i| !k.dead_cpus[i]).collect();
                assert!(
                    !survivors.is_empty(),
                    "a CpuOffline schedule may not kill every processor"
                );
                let Kernel { machine, pmap, .. } = k;
                pmap.note_cpu_offline(machine, cpu, drained.len() as u32);
                for (i, tid) in drained.into_iter().enumerate() {
                    self.threads[tid].home_cpu = survivors[i % survivors.len()];
                    self.enqueue(tid);
                }
            }
        }
    }

    /// Admits `n` new threads in spawn (tid) order: binds each to a
    /// processor and queues it. Returns the processors, by tid.
    fn admit(&mut self, k: &Kernel, n: usize) -> Vec<CpuId> {
        (0..n)
            .map(|tid| {
                let cpu = self.assign_cpu(k);
                self.threads.push(ThreadSlot { home_cpu: cpu.index(), parked_until: None });
                self.alive += 1;
                self.enqueue(tid);
                cpu
            })
            .collect()
    }

    /// Sequential processor assignment for new threads (the paper's
    /// affinity scheduler assigns "sequentially by processor number"),
    /// skipping processors stopped by hard failures.
    fn assign_cpu(&mut self, k: &Kernel) -> CpuId {
        for _ in 0..self.cpus.len() {
            let c = self.next_cpu % self.cpus.len();
            self.next_cpu += 1;
            if !k.dead_cpus[c] {
                return CpuId::from(c);
            }
        }
        panic!("no live processor left to assign threads to");
    }

    /// Adds a waiting thread to the appropriate queue.
    fn enqueue(&mut self, tid: usize) {
        match self.cfg.scheduler {
            SchedulerKind::Affinity => {
                // The thread keeps the cpu it was assigned at creation.
                let cpu = self.threads[tid].home_cpu;
                self.cpus[cpu].runq.push_back(tid);
            }
            SchedulerKind::GlobalQueue => {
                self.global_q.push_back(tid);
            }
        }
    }

    /// Installs queued threads on idle processors (dead ones excluded —
    /// granting a stopped processor would stall virtual time forever).
    fn fill_cpus(&mut self, k: &Kernel) {
        for (c, slot) in self.cpus.iter_mut().enumerate() {
            if k.dead_cpus[c] || slot.current.is_some() {
                continue;
            }
            let tid = match self.cfg.scheduler {
                SchedulerKind::Affinity => slot.runq.pop_front(),
                SchedulerKind::GlobalQueue => self.global_q.pop_front(),
            };
            if let Some(tid) = tid {
                slot.current = Some(tid);
                slot.quantum_end = k.clock_of(CpuId::from(c)) + self.cfg.quantum;
            }
        }
    }

    /// Books a budget yield of `tid` on `cpu`: rotate the thread out if
    /// its quantum expired with competition, else extend the quantum.
    fn budget_yield(&mut self, k: &Kernel, tid: usize, cpu: usize) {
        let now = k.clock_of(CpuId::from(cpu));
        if now >= self.cpus[cpu].quantum_end {
            if self.has_waiters(cpu) {
                self.cpus[cpu].current = None;
                self.enqueue(tid);
            } else {
                self.cpus[cpu].quantum_end = now + self.cfg.quantum;
            }
        }
    }

    /// The heart of the engine. Books `yielded` (thread, processor,
    /// reason: the yield that ended the previous grant), then repeatedly
    /// picks the lowest-clock processor's thread and a budget for it
    /// until a thread must really run, and returns that decision. A
    /// thread parked in `wait_until` need not: the window it would have
    /// idled through is charged here and booked as the budget yield it
    /// would have ended in. `None` when the run is over (every thread
    /// done, or the virtual-time budget exceeded).
    pub(crate) fn decide(
        &mut self,
        k: &mut Kernel,
        yielded: Option<(usize, usize, Yield)>,
    ) -> Option<Next> {
        if let Some((tid, cpu, why)) = yielded {
            debug_assert_eq!(self.cpus[cpu].current, Some(tid), "only the granted thread yields");
            match why {
                Yield::Budget => self.budget_yield(k, tid, cpu),
                Yield::Parked(until) => {
                    self.threads[tid].parked_until = Some(until);
                    self.budget_yield(k, tid, cpu);
                }
                Yield::Done => {
                    self.cpus[cpu].current = None;
                    self.alive -= 1;
                }
            }
        }
        while self.alive > 0 {
            self.fill_cpus(k);
            // Pick the runnable processor with the lowest clock (the
            // lowest-numbered one on a tie).
            let Some((t, cpu)) = (0..self.cpus.len())
                .filter(|&c| self.cpus[c].current.is_some())
                .map(|c| (k.clock_of(CpuId::from(c)), c))
                .min()
            else {
                // Alive threads but nothing runnable: all must be parked
                // in queues, which fill_cpus would have installed.
                unreachable!("runnable threads exist but no processor has work");
            };
            // Scheduled hard failures fire when the minimum runnable
            // clock crosses the failure's virtual time, between grants.
            // A CpuOffline may drain the picked processor, so re-run
            // selection.
            if self.pending_hard.first().is_some_and(|hf| t >= hf.vt()) {
                while self.pending_hard.first().is_some_and(|hf| t >= hf.vt()) {
                    let hf = self.pending_hard.remove(0);
                    self.fire_hard_fault(k, hf);
                }
                continue;
            }
            // Fire the periodic kernel daemon when virtual time crosses
            // its next deadline (measured on the minimum clock, so the
            // tick happens "before" any thread passes it).
            if t >= self.next_daemon_tick {
                let Kernel { machine, pmap, .. } = &mut *k;
                pmap.timer_tick(machine);
                // Pressure scan rides the same tick: flush cold
                // replicas on processors below their low watermark.
                // Above the watermarks this reads one free count per
                // cpu and does nothing.
                if self.cfg.pressure_low > 0 {
                    pmap.pressure_tick(machine, self.cfg.pressure_low, self.cfg.pressure_high);
                }
                self.next_daemon_tick = Ns(t.0 + self.cfg.daemon_interval.0);
            }
            // A wedged application (spin-wait that can never be
            // released, runaway loop) advances virtual time forever;
            // the budget turns that into a truncated run the caller
            // can type as an error instead of a hang.
            if self.cfg.vt_budget.is_some_and(|budget| t > budget) {
                self.vt_exceeded = true;
                return None;
            }
            // Budget: up to the next other processor's clock plus the
            // lookahead window, but never past the quantum.
            let others_min = (0..self.cpus.len())
                .filter(|&c| c != cpu && self.cpus[c].current.is_some())
                .map(|c| k.clock_of(CpuId::from(c)))
                .min();
            let mut budget_end = match others_min {
                Some(om) => Ns(om.0.saturating_add(self.cfg.lookahead.0))
                    .min(self.cpus[cpu].quantum_end),
                None if self.has_waiters(cpu) => self.cpus[cpu].quantum_end,
                None => Ns(u64::MAX),
            };
            // Never grant past the virtual-time budget: a lone runaway
            // thread would otherwise receive an unbounded budget and
            // never yield back for the abort check above.
            if let Some(b) = self.cfg.vt_budget {
                budget_end = budget_end.min(Ns(b.0.saturating_add(1)));
            }
            let tid = self.cpus[cpu].current.expect("picked a runnable cpu");
            let cpu_id = CpuId::from(cpu);
            if let Some(until) = self.threads[tid].parked_until {
                if !k.idle_toward(cpu_id, until, budget_end) {
                    self.budget_yield(k, tid, cpu);
                    continue;
                }
                // Target reached inside this window: the thread resumes
                // with the window's budget, where it would have stopped.
                self.threads[tid].parked_until = None;
            }
            return Some(Next { tid, cpu: cpu_id, budget_end });
        }
        None
    }

    /// True if any other thread is waiting to run (on `cpu`'s queue or
    /// the global queue, by scheduler kind).
    fn has_waiters(&self, cpu: usize) -> bool {
        match self.cfg.scheduler {
            SchedulerKind::Affinity => !self.cpus[cpu].runq.is_empty(),
            SchedulerKind::GlobalQueue => !self.global_q.is_empty(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use numa_core::MoveLimitPolicy;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn sim(n_cpus: usize) -> Simulator {
        Simulator::new(SimConfig::small(n_cpus), Box::new(MoveLimitPolicy::default()))
    }

    #[test]
    fn single_thread_runs_to_completion() {
        let mut s = sim(1);
        let a = s.alloc(256, Prot::READ_WRITE);
        s.spawn("writer", move |ctx| {
            for i in 0..10u32 {
                ctx.write_u32(a + (i as u64) * 4, i * i);
            }
        });
        let r = s.run();
        assert!(r.total_user() > Ns::ZERO);
        for i in 0..10u32 {
            assert_eq!(s.with_kernel(|k| k.peek_u32(a + (i as u64) * 4)), i * i);
        }
    }

    #[test]
    fn threads_interleave_in_virtual_time() {
        // Two threads on two cpus append their tid to a log guarded only
        // by virtual-time ordering (distinct slots). Both make the same
        // number of references, so their clocks stay within one op of
        // each other and neither can run far ahead.
        let mut s = sim(2);
        let a = s.alloc(4096, Prot::READ_WRITE);
        for t in 0..2u32 {
            let base = a + (t as u64) * 1024;
            s.spawn(format!("t{t}"), move |ctx| {
                for i in 0..50u32 {
                    ctx.write_u32(base + (i as u64) * 4, i + t * 1000);
                }
            });
        }
        let r = s.run();
        // Both cpus actually did work.
        assert!(r.cpu_times[0].user > Ns::ZERO);
        assert!(r.cpu_times[1].user > Ns::ZERO);
        assert_eq!(s.with_kernel(|k| k.peek_u32(a + 1024 + 4)), 1001);
    }

    #[test]
    fn deterministic_across_runs() {
        let total = |_: ()| {
            let mut s = sim(3);
            let a = s.alloc(8192, Prot::READ_WRITE);
            for t in 0..3u64 {
                s.spawn(format!("t{t}"), move |ctx| {
                    for i in 0..40u64 {
                        let slot = a + ((t * 40 + i) % 128) * 4;
                        let v = ctx.read_u32(slot);
                        ctx.write_u32(slot, v + 1);
                    }
                });
            }
            let r = s.run();
            (r.total_user(), r.total_system(), r.numa.requests, r.refs)
        };
        assert_eq!(total(()), total(()));
    }

    #[test]
    fn more_threads_than_cpus_time_slice() {
        let mut s = sim(1);
        let a = s.alloc(1024, Prot::READ_WRITE);
        for t in 0..3u32 {
            let slot = a + (t as u64) * 256;
            s.spawn(format!("t{t}"), move |ctx| {
                ctx.compute(Ns::from_ms(5));
                ctx.write_u32(slot, t + 1);
            });
        }
        let r = s.run();
        for t in 0..3u64 {
            assert_eq!(s.with_kernel(|k| k.peek_u32(a + t * 256)), t as u32 + 1);
        }
        // All on one cpu.
        assert!(r.cpu_times[0].user >= Ns::from_ms(15));
    }

    #[test]
    #[should_panic(expected = "simulated thread panicked")]
    fn app_panic_propagates() {
        let mut s = sim(2);
        s.spawn("bad", |_ctx| panic!("boom"));
        s.spawn("good", |ctx| ctx.compute(Ns::from_us(1)));
        let _ = s.run();
    }

    /// Runs `f` on a host thread of its own and returns how it ended;
    /// fails if it has not ended within a minute, so a shutdown path
    /// that strands a thread fails the test instead of stalling the
    /// suite.
    fn ends_within_a_minute<T: Send + 'static>(
        f: impl FnOnce() -> T + Send + 'static,
    ) -> Result<T, String> {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(catch_unwind(AssertUnwindSafe(f)));
        });
        let ended = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("Simulator::run neither returned nor panicked");
        ended.map_err(|payload| panic_text(payload.as_ref()))
    }

    /// Counts the thread bodies currently on a host stack: up when a
    /// body starts, down when it returns or is unwound.
    struct Live(Arc<AtomicUsize>);

    impl Live {
        fn enter(n: &Arc<AtomicUsize>) -> Live {
            n.fetch_add(1, Ordering::SeqCst);
            Live(Arc::clone(n))
        }
    }

    impl Drop for Live {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn panic_stops_siblings_parked_in_wait_until() {
        // The panicking thread is neither the first nor the last to
        // yield: by 300 us its three siblings have long spent their
        // budgets and sleep as parked waiters, one of them sharing its
        // processor. All must be unwound and joined before run() panics.
        let live = Arc::new(AtomicUsize::new(0));
        let started = Arc::clone(&live);
        let err = ends_within_a_minute(move || {
            let mut s = Simulator::new(
                SimConfig::small(3).quantum(Ns::from_us(100)),
                Box::new(MoveLimitPolicy::default()),
            );
            for t in 0..4 {
                let live = Arc::clone(&started);
                s.spawn(format!("t{t}"), move |ctx| {
                    let _live = Live::enter(&live);
                    if t == 1 {
                        ctx.compute(Ns::from_us(300));
                        panic!("boom at 300 us");
                    }
                    ctx.wait_until(Ns::from_ms(40));
                });
            }
            s.run();
        })
        .expect_err("the body panic must surface from run()");
        assert_eq!(err, "simulated thread panicked: boom at 300 us");
        assert_eq!(live.load(Ordering::SeqCst), 0, "a sibling outlived run()");
    }

    #[test]
    fn killing_every_processor_panics_out_of_run() {
        // At vt 0 the assertion fires in the first decision, on the
        // caller's thread; at 200 us it fires in the scheduler running
        // on a simulated thread's stack, with the sibling parked.
        for vt in [Ns::ZERO, Ns::from_us(200)] {
            let live = Arc::new(AtomicUsize::new(0));
            let started = Arc::clone(&live);
            let err = ends_within_a_minute(move || {
                let mut s = chaos_sim(
                    (0..3).map(|c| ace_machine::HardFault::CpuOffline { cpu: CpuId(c), vt }).collect(),
                );
                for t in 0..2 {
                    let live = Arc::clone(&started);
                    s.spawn(format!("t{t}"), move |ctx| {
                        let _live = Live::enter(&live);
                        ctx.wait_until(Ns::from_ms(1));
                    });
                }
                s.run();
            })
            .expect_err("an illegal schedule must panic out of run()");
            assert!(err.contains("a CpuOffline schedule may not kill every processor"), "got: {err}");
            assert_eq!(live.load(Ordering::SeqCst), 0, "a thread outlived run()");
        }
    }

    #[test]
    fn the_kernel_comes_home_however_a_run_ends() {
        // The kernel travels with the grant, so every way a run can end
        // has to bring it back: `JobSpec::run`'s chaos path reads
        // `report()` after a run that panicked.
        struct Ending {
            name: &'static str,
            /// A simulator with its threads spawned.
            boot: fn() -> Simulator,
            /// What `run()` panics with, if it must.
            panic: Option<&'static str>,
            /// Whether the report carries the clocks the run reached.
            clocks: fn(&RunReport) -> bool,
            /// Whether a further run on the same simulator is possible
            /// (not once every processor is dead).
            runs_again: bool,
        }
        fn every_cpu_offline_at(vt: Ns) -> Simulator {
            let mut s = chaos_sim(
                (0..3).map(|c| HardFault::CpuOffline { cpu: CpuId(c), vt }).collect(),
            );
            for t in 0..2 {
                s.spawn(format!("t{t}"), |ctx| ctx.wait_until(Ns::from_ms(1)));
            }
            s
        }
        let endings = [
            Ending {
                name: "body panic with three siblings parked",
                boot: || {
                    let mut s = Simulator::new(
                        SimConfig::small(3).quantum(Ns::from_us(100)),
                        Box::new(MoveLimitPolicy::default()),
                    );
                    for t in 0..4 {
                        s.spawn(format!("t{t}"), move |ctx| {
                            if t == 1 {
                                ctx.compute(Ns::from_us(300));
                                panic!("boom at 300 us");
                            }
                            ctx.wait_until(Ns::from_ms(40));
                        });
                    }
                    s
                },
                panic: Some("boom at 300 us"),
                clocks: |r| r.cpu_times[1].total() == Ns::from_us(300),
                runs_again: true,
            },
            Ending {
                name: "virtual-time budget cut",
                boot: || {
                    let mut s = Simulator::new(
                        SimConfig::small(1).vt_budget(Some(Ns::from_ms(2))),
                        Box::new(MoveLimitPolicy::default()),
                    );
                    s.spawn("spinner", |ctx| loop {
                        ctx.compute(Ns::from_us(50));
                    });
                    s
                },
                panic: None,
                clocks: |r| r.cpu_times[0].total() > Ns::from_ms(2),
                runs_again: true,
            },
            Ending {
                name: "scheduler panic on a simulated thread's stack",
                boot: || every_cpu_offline_at(Ns::from_us(200)),
                panic: Some("a CpuOffline schedule may not kill every processor"),
                clocks: |r| r.cpu_times[..2].iter().all(|c| c.total() >= Ns::from_us(200)),
                runs_again: false,
            },
            Ending {
                name: "scheduler panic on the caller's stack",
                boot: || every_cpu_offline_at(Ns::ZERO),
                panic: Some("a CpuOffline schedule may not kill every processor"),
                clocks: |r| r.total_user() == Ns::ZERO,
                runs_again: false,
            },
        ];
        for Ending { name, boot, panic, clocks, runs_again } in endings {
            ends_within_a_minute(move || {
                let mut s = boot();
                let ended = catch_unwind(AssertUnwindSafe(|| s.run()));
                let msg = ended.err().map(|payload| panic_text(payload.as_ref()));
                let as_expected = match (panic, &msg) {
                    (Some(want), Some(got)) => got.contains(want),
                    (want, got) => want.is_none() && got.is_none(),
                };
                assert!(as_expected, "run() ended with {msg:?}, expected {panic:?}");
                let report = s.report();
                assert!(clocks(&report), "clocks not carried: {:?}", report.cpu_times);
                s.with_kernel(|k| k.check_consistency()).expect("directory legal after the end");
                if runs_again {
                    // Under an exceeded budget no thread is granted; the
                    // run must still return with the kernel in place.
                    let a = s.alloc(64, Prot::READ_WRITE);
                    s.spawn("after", move |ctx| ctx.write_u32(a, 9));
                    s.run();
                    let wrote = s.with_kernel(|k| k.peek_u32(a));
                    assert_eq!(wrote, if s.vt_exceeded() { 0 } else { 9 });
                }
            })
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    #[should_panic(expected = "overwritten unread")]
    fn a_deposit_is_never_overwritten_unread() {
        let slot = Slot::default();
        slot.put(1);
        slot.put(2);
    }

    #[test]
    #[should_panic(expected = "already borrowed")]
    fn reentrant_with_kernel_panics_instead_of_deadlocking() {
        let s = sim(1);
        s.with_kernel(|_| s.with_kernel(|k| k.clock_of(CpuId(0))));
    }

    #[test]
    fn spawn_order_decides_the_schedule() {
        // More threads than processors under the global queue: which
        // thread gets which processor, and when, depends on the order
        // the threads are queued in. That order is spawn order, never
        // the order the host threads happened to start in.
        let run = |_: usize| {
            let cfg = SimConfig::small(2)
                .scheduler(SchedulerKind::GlobalQueue)
                .quantum(Ns::from_us(200));
            let mut s = Simulator::new(cfg, Box::new(MoveLimitPolicy::default()));
            let a = s.alloc(4096, Prot::READ_WRITE);
            for t in 0..6u64 {
                s.spawn(format!("t{t}"), move |ctx| {
                    for i in 0..20u64 {
                        ctx.compute(Ns::from_us(30 + t * 11));
                        ctx.write_u32(a + t * 512 + (i % 8) * 4, i as u32);
                        let _ = ctx.read_u32(a + ((t + 1) % 6) * 512);
                    }
                });
            }
            let r = s.run();
            (r.cpu_times, r.refs, r.numa)
        };
        let first = run(0);
        for again in 1..20 {
            assert_eq!(run(again), first, "run {again} scheduled differently");
        }
    }

    #[test]
    fn global_queue_scheduler_migrates_threads() {
        let mut cfg = SimConfig::small(2);
        cfg.scheduler = SchedulerKind::GlobalQueue;
        cfg.quantum = Ns::from_us(200);
        let mut s = Simulator::new(cfg, Box::new(MoveLimitPolicy::default()));
        let a = s.alloc(4096, Prot::READ_WRITE);
        // Three compute-heavy threads on two cpus with a tiny quantum
        // must migrate; each records the set of cpus it ran on.
        use std::sync::{Arc as SArc, Mutex as SMutex};
        let seen = SArc::new(SMutex::new(vec![Vec::new(), Vec::new(), Vec::new()]));
        for t in 0..3usize {
            let seen = SArc::clone(&seen);
            let slot = a + (t as u64) * 1024;
            s.spawn(format!("t{t}"), move |ctx| {
                for i in 0..40u32 {
                    ctx.compute(Ns::from_us(100));
                    ctx.write_u32(slot, i);
                    seen.lock().unwrap()[t].push(ctx.cpu().index());
                }
            });
        }
        let _ = s.run();
        let seen = seen.lock().unwrap();
        let migrated = seen.iter().any(|v| {
            let mut s = v.clone();
            s.dedup();
            s.len() > 1
        });
        assert!(migrated, "expected at least one thread to change cpus: {seen:?}");
    }

    #[test]
    fn run_helpers_round_trip_values() {
        let mut s = sim(1);
        let a = s.alloc(4096, Prot::READ_WRITE);
        s.spawn("runner", move |ctx| {
            let vals: Vec<u32> = (0..256u32).map(|i| i * 3 + 1).collect();
            ctx.write_run(a, 4, &vals);
            assert_eq!(ctx.read_run(a, 4, 256), vals);
            // Strided f64 runs (one element per 16 bytes).
            let fv: Vec<f64> = (0..32).map(|i| i as f64 * 0.5 - 3.0).collect();
            ctx.write_run_f64(a + 2048, 16, &fv);
            assert_eq!(ctx.read_run_f64(a + 2048, 16, 32), fv);
            // Stride zero: repeated references to one address.
            assert_eq!(ctx.read_run(a, 0, 5), vec![vals[0]; 5]);
        });
        let r = s.run();
        assert!(r.total_user() > Ns::ZERO);
    }

    #[test]
    fn fast_and_slow_paths_measure_identically() {
        // Two threads doing batched runs over shared and private pages,
        // under tight budgets (small preset: zero lookahead), must
        // produce identical clocks and reference counters on both paths.
        let run = |fast: bool| {
            let cfg = SimConfig::small(2).fastpath(fast);
            let mut s = Simulator::new(cfg, Box::new(MoveLimitPolicy::default()));
            let a = s.alloc(8192, Prot::READ_WRITE);
            for t in 0..2u64 {
                let base = a + t * 4096;
                s.spawn(format!("t{t}"), move |ctx| {
                    let vals: Vec<u32> = (0..512u32).map(|i| i ^ (t as u32)).collect();
                    ctx.write_run(base, 4, &vals);
                    for _ in 0..3 {
                        assert_eq!(ctx.read_run(base, 4, 512), vals);
                    }
                    // A shared word both threads re-read.
                    let _ = ctx.read_run(a, 0, 16);
                });
            }
            let r = s.run();
            (r.cpu_times.clone(), r.refs, r.numa.requests, r.bus)
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn vt_budget_turns_runaway_threads_into_typed_errors() {
        // A thread that computes forever can never finish; without the
        // budget this would schedule endlessly. With it, run_one returns
        // a typed error naming the budget instead of hanging.
        let cfg = SimConfig::small(1).vt_budget(Some(Ns::from_ms(2)));
        let res = run_one(cfg, Box::new(MoveLimitPolicy::default()), |sim| {
            sim.spawn("spinner", |ctx| loop {
                ctx.compute(Ns::from_us(50));
            });
            sim.run();
            Ok(())
        });
        let err = res.expect_err("runaway thread must exceed the budget");
        assert!(err.contains("virtual-time budget"), "got: {err}");
    }

    #[test]
    fn vt_budget_does_not_disturb_completing_runs() {
        let run = |budget: Option<Ns>| {
            let cfg = SimConfig::small(2).vt_budget(budget);
            let mut s = Simulator::new(cfg, Box::new(MoveLimitPolicy::default()));
            let a = s.alloc(4096, Prot::READ_WRITE);
            for t in 0..2u64 {
                let base = a + t * 2048;
                s.spawn(format!("t{t}"), move |ctx| {
                    for i in 0..64u64 {
                        ctx.write_u32(base + i * 4, i as u32);
                    }
                });
            }
            let r = s.run();
            assert!(!s.vt_exceeded());
            (r.cpu_times, r.refs, r.numa)
        };
        assert_eq!(run(None), run(Some(Ns::from_ms(500))));
    }

    #[test]
    fn pressure_daemon_is_invisible_with_ample_frames() {
        let run = |low: usize, high: usize| {
            let mut cfg = SimConfig::small(2);
            cfg.pressure_low = low;
            cfg.pressure_high = high;
            let mut s = Simulator::new(cfg, Box::new(MoveLimitPolicy::default()));
            let a = s.alloc(8192, Prot::READ_WRITE);
            for t in 0..2u64 {
                let base = a + t * 4096;
                s.spawn(format!("t{t}"), move |ctx| {
                    for i in 0..256u64 {
                        ctx.write_u32(base + i * 16, (i + t) as u32);
                    }
                    ctx.compute(Ns::from_ms(3)); // cross a daemon tick
                });
            }
            let r = s.run();
            (r.cpu_times, r.refs, r.numa, r.bus)
        };
        let with_daemon = run(2, 4);
        let without_daemon = run(0, 0);
        assert_eq!(with_daemon.2.pressure_ticks, 0, "no pressure on a roomy machine");
        assert_eq!(with_daemon, without_daemon, "daemon must be free when idle");
    }

    /// A schedule with one `NodeOffline` against a machine where two
    /// threads share pages across the dead node's boundary.
    fn chaos_sim(hard: Vec<ace_machine::HardFault>) -> Simulator {
        use ace_machine::FaultConfig;
        let cfg = SimConfig::small(3)
            .faults(FaultConfig { hard_faults: hard, ..FaultConfig::default() });
        Simulator::new(cfg, Box::new(MoveLimitPolicy::default()))
    }

    fn chaos_workload(s: &mut Simulator) -> VAddr {
        let a = s.alloc(8192, Prot::READ_WRITE);
        for t in 0..3u64 {
            let base = a + t * 2048;
            s.spawn(format!("t{t}"), move |ctx| {
                for i in 0..64u64 {
                    ctx.write_u32(base + i * 4, (t * 1000 + i) as u32);
                    // Everybody also re-reads a shared word so replicas
                    // exist on the node that will die.
                    let _ = ctx.read_u32(a);
                    ctx.compute(Ns::from_us(40));
                }
            });
        }
        a
    }

    #[test]
    fn node_offline_mid_run_completes_with_typed_degradation() {
        let mut s = chaos_sim(vec![ace_machine::HardFault::NodeOffline {
            node: ace_machine::NodeId(1),
            vt: Ns::from_us(800),
        }]);
        let a = chaos_workload(&mut s);
        let r = s.run();
        assert_eq!(r.numa.nodes_offlined, 1);
        assert!(
            r.numa.pages_rehomed + r.numa.pages_lost > 0,
            "the dead node held replicas that must be recovered"
        );
        assert!(r.numa.hard_failure_actions() > 0);
        // Survivors' private pages are intact; the directory is legal.
        for t in [0u64, 2] {
            assert_eq!(
                s.with_kernel(|k| k.peek_u32(a + t * 2048 + 63 * 4)),
                (t * 1000 + 63) as u32
            );
        }
        s.with_kernel(|k| k.check_consistency()).expect("directory legal after recovery");
    }

    #[test]
    fn cpu_offline_drains_threads_to_survivors() {
        let mut s = chaos_sim(vec![ace_machine::HardFault::CpuOffline {
            cpu: CpuId(2),
            vt: Ns::from_us(500),
        }]);
        let a = chaos_workload(&mut s);
        let r = s.run();
        assert_eq!(r.numa.threads_drained, 1, "t2 was running on the dead cpu");
        // The drained thread still finished its writes on a survivor.
        assert_eq!(s.with_kernel(|k| k.peek_u32(a + 2 * 2048 + 63 * 4)), 2063);
        assert!(r.cpu_times[2].user < r.cpu_times[0].user);
        s.with_kernel(|k| k.check_consistency()).expect("directory legal after drain");
    }

    #[test]
    fn hard_failure_recovery_is_deterministic() {
        let run = |_: ()| {
            let mut s = chaos_sim(vec![
                ace_machine::HardFault::NodeOffline { node: ace_machine::NodeId(1), vt: Ns::from_us(600) },
                ace_machine::HardFault::CpuOffline { cpu: CpuId(2), vt: Ns::from_us(900) },
            ]);
            chaos_workload(&mut s);
            let r = s.run();
            (r.cpu_times.clone(), r.refs, r.numa, r.bus)
        };
        assert_eq!(run(()), run(()));
    }

    #[test]
    fn dead_cpu_stays_dead_across_runs() {
        let mut s = chaos_sim(vec![ace_machine::HardFault::CpuOffline {
            cpu: CpuId(0),
            vt: Ns(0),
        }]);
        let a = s.alloc(256, Prot::READ_WRITE);
        s.spawn("one", move |ctx| ctx.write_u32(a, 1));
        let r1 = s.run();
        assert_eq!(r1.cpu_times[0].user, Ns::ZERO, "cpu 0 died before running");
        // A second run re-arms the schedule; the offline is idempotent
        // and new threads still avoid the dead processor.
        s.spawn("two", move |ctx| ctx.write_u32(a + 4, 2));
        let r2 = s.run();
        assert_eq!(r2.cpu_times[0].user, Ns::ZERO);
        assert_eq!(s.with_kernel(|k| k.peek_u32(a + 4)), 2);
    }

    #[test]
    fn empty_hard_schedule_is_byte_invisible() {
        let run = |hard: Vec<ace_machine::HardFault>| {
            let mut s = chaos_sim(hard);
            chaos_workload(&mut s);
            let r = s.run();
            (r.cpu_times.clone(), r.refs, r.numa, r.bus)
        };
        assert_eq!(run(Vec::new()), run(Vec::new()));
        assert_eq!(run(Vec::new()).2.hard_failure_actions(), 0);
    }

    #[test]
    fn second_run_continues_processor_assignment() {
        // Sequential assignment carries over: the second run's thread
        // lands on the processor after the first run's, and both clocks
        // persist.
        let mut s = sim(2);
        s.spawn("one", |ctx| ctx.compute(Ns::from_us(50)));
        let r1 = s.run();
        assert_eq!(r1.cpu_times[1].user, Ns::ZERO);
        s.spawn("two", |ctx| {
            assert_eq!(ctx.cpu(), CpuId(1));
            ctx.compute(Ns::from_us(70));
        });
        let r2 = s.run();
        assert_eq!(r2.cpu_times[0].user, Ns::from_us(50));
        assert_eq!(r2.cpu_times[1].user, Ns::from_us(70));
    }

    #[test]
    fn run_twice_accumulates() {
        let mut s = sim(1);
        let a = s.alloc(64, Prot::READ_WRITE);
        s.spawn("one", move |ctx| ctx.write_u32(a, 1));
        let r1 = s.run();
        s.spawn("two", move |ctx| ctx.write_u32(a + 4, 2));
        let r2 = s.run();
        assert!(r2.total_user() > r1.total_user());
        assert_eq!(s.with_kernel(|k| k.peek_u32(a + 4)), 2);
    }
}
