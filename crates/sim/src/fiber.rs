//! Stackful fibers: how every simulated thread of a run shares the host
//! thread that called [`Simulator::run`](crate::Simulator::run).
//!
//! A [`Fiber`] runs a body on a [`Stack`] of its own. The driver calls
//! [`Fiber::resume`] with a value; the body receives it and runs until it
//! calls [`Suspender::suspend`] with a value of its own, or returns one,
//! and that value is what `resume` returns. Control passes by saving the
//! callee-saved registers and the stack pointer on one stack and
//! restoring them from the other: no system call, no host scheduler. Both
//! values travel through one heap block per fiber, so neither side ever
//! holds a pointer into the other's frames.
//!
//! This is the crate's only module with `unsafe` code, and the only one
//! tied to a target: the switch is x86_64 System V assembly and the stacks
//! are Linux `mmap`s. A port needs its own `switch`, `trampoline` and
//! initial frame (`Fiber::new`).

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "crates/sim/src/fiber.rs switches stacks with x86_64 System V assembly on Linux `mmap` \
     stacks; simulated threads need a port of it to run on this target"
);

use std::ffi::c_void;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::ptr::{self, NonNull};

/// Usable bytes of a fiber's stack: what `std::thread` gives a thread it
/// spawns, and so what a simulated thread had when it was one.
const STACK_BYTES: usize = 2 << 20;

/// The inaccessible page below a stack. Rust probes every page of a large
/// frame in order, so a runaway recursion faults here before it can
/// write past the mapping.
const GUARD_BYTES: usize = 4096;

const MAPPING_BYTES: usize = GUARD_BYTES + STACK_BYTES;

// Linux's x86_64 values, from <sys/mman.h>.
const PROT_NONE: i32 = 0;
const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_PRIVATE: i32 = 0x02;
const MAP_ANONYMOUS: i32 = 0x20;
const MAP_NORESERVE: i32 = 0x4000;
const MAP_STACK: i32 = 0x2_0000;

extern "C" {
    fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64) -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
}

/// One fiber's stack: an anonymous mapping the kernel commits a page at a
/// time as the stack grows into it, with a guard page below.
pub(crate) struct Stack {
    /// The lowest address of the mapping: the guard page.
    base: NonNull<c_void>,
}

// SAFETY: a `Stack` is the sole owner of its mapping, and memory has no
// thread affinity. No frame lives on a `Stack` outside a `Fiber`
// (`Fiber::into_stack` gives it up only before the fiber started or after
// it finished), so moving one to another thread moves nothing but unused
// memory.
unsafe impl Send for Stack {}

impl Stack {
    /// Maps a fresh stack.
    ///
    /// # Panics
    ///
    /// If the kernel refuses the mapping or the guard page.
    pub(crate) fn new() -> Stack {
        let (prot, flags) =
            (PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK);
        // SAFETY: a new anonymous mapping at an address of the kernel's
        // choosing; it overlaps nothing that exists.
        let base = unsafe { mmap(ptr::null_mut(), MAPPING_BYTES, prot, flags, -1, 0) };
        if base as isize == -1 {
            panic!("mapping a fiber stack: {}", std::io::Error::last_os_error());
        }
        let stack = Stack { base: NonNull::new(base).expect("mmap does not map page zero") };
        // SAFETY: the guard page is the first page of the mapping just
        // made, which nothing else knows of.
        if unsafe { mprotect(base, GUARD_BYTES, PROT_NONE) } != 0 {
            panic!("protecting a fiber stack's guard page: {}", std::io::Error::last_os_error());
        }
        stack
    }

    /// One past the highest address: where the stack starts growing down
    /// from (page-aligned, so 16-byte aligned).
    fn top(&self) -> *mut u8 {
        self.base.as_ptr().cast::<u8>().wrapping_add(MAPPING_BYTES)
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: the mapping is this value's alone, and no frame lives on
        // it (see the `Send` argument above).
        unsafe { munmap(self.base.as_ptr(), MAPPING_BYTES) };
    }
}

/// What a fiber runs.
type Body<I, O> = Box<dyn FnOnce(I, Suspender<I, O>) -> O>;

/// What a fiber and its driver hand each other. One block per fiber, at an
/// address that does not move while the fiber exists.
struct Control<I, O> {
    /// The driver's stack pointer, saved while the fiber runs.
    driver_sp: *mut u8,
    /// The fiber's stack pointer, saved while it is suspended (before its
    /// first resume: its initial frame); null once it has finished.
    fiber_sp: *mut u8,
    /// The body, until the first resume starts it.
    body: Option<Body<I, O>>,
    /// From the driver, taken by the fiber.
    input: Option<I>,
    /// From the fiber, taken by the driver.
    output: Option<O>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    Unstarted,
    Suspended,
    Finished,
}

/// A body on a stack of its own, driven by [`Fiber::resume`]. It must be
/// dropped unstarted or finished: a suspended fiber still has frames on
/// its stack.
pub(crate) struct Fiber<I, O> {
    control: NonNull<Control<I, O>>,
    /// `Some` until [`Fiber::into_stack`].
    stack: Option<Stack>,
    state: State,
}

impl<I, O> Fiber<I, O> {
    /// A fiber that will run `body` on `stack`, starting at the first
    /// [`Fiber::resume`].
    pub(crate) fn new(
        stack: Stack,
        body: impl FnOnce(I, Suspender<I, O>) -> O + 'static,
    ) -> Fiber<I, O> {
        let control = Box::into_raw(Box::new(Control {
            driver_sp: ptr::null_mut(),
            fiber_sp: ptr::null_mut(),
            body: Some(Box::new(body)),
            input: None,
            output: None,
        }));
        // What the first `switch` into the fiber pops: six registers, then
        // the address it returns to. The trampoline then finds its own
        // return address, 0, on a 16-byte boundary, as if it had been
        // called, and calls `entry(control)`.
        let frame: [usize; 9] = [
            0,                                   // r15
            0,                                   // r14
            0,                                   // r13
            entry::<I, O> as *const () as usize, // r12: what the trampoline calls
            control as usize,                    // rbx: the argument it passes
            0,                                   // rbp: ends frame-pointer walks
            trampoline as *const () as usize,    // where `switch` returns to
            0,                                   // the trampoline's return address
            0,                                   // padding up to the aligned top
        ];
        let sp = stack.top().wrapping_sub(size_of_val(&frame));
        // SAFETY: the nine words are the top of the stack's writable part,
        // which no frame uses (an unused stack, or a finished fiber's);
        // `control` came from `Box::into_raw` just above.
        unsafe {
            sp.cast::<[usize; 9]>().write(frame);
            (*control).fiber_sp = sp;
        }
        Fiber {
            control: NonNull::new(control).expect("Box::into_raw is not null"),
            stack: Some(stack),
            state: State::Unstarted,
        }
    }

    /// Passes `input` to the fiber and runs it until it suspends or
    /// finishes; returns the value it handed back.
    ///
    /// # Panics
    ///
    /// If the fiber has finished.
    pub(crate) fn resume(&mut self, input: I) -> O {
        assert_ne!(self.state, State::Finished, "a finished fiber was resumed");
        let c = self.control.as_ptr();
        // SAFETY: `c` is this fiber's control block, which lives as long as
        // the fiber. `fiber_sp` is the frame the fiber left off at (or its
        // initial frame), on the stack the fiber owns. The fiber runs until
        // it suspends or finishes and switches back here through
        // `driver_sp` either way; nothing else touches the block meanwhile.
        unsafe {
            (*c).input = Some(input);
            switch(&raw mut (*c).driver_sp, (*c).fiber_sp);
            self.state = if (*c).fiber_sp.is_null() { State::Finished } else { State::Suspended };
            (*c).output.take().expect("a fiber hands a value back whenever it stops")
        }
    }

    /// True while the fiber has started and not finished.
    pub(crate) fn is_suspended(&self) -> bool {
        self.state == State::Suspended
    }

    /// The stack, for another fiber.
    ///
    /// # Panics
    ///
    /// If the fiber is suspended (as dropping it does).
    pub(crate) fn into_stack(mut self) -> Stack {
        assert_ne!(self.state, State::Suspended, "a suspended fiber's stack was taken");
        self.stack.take().expect("a fiber has its stack until it is taken apart")
    }
}

impl<I, O> Drop for Fiber<I, O> {
    fn drop(&mut self) {
        if self.state == State::Suspended {
            // Frames still live on the stack, and something may point into
            // them: leak the stack and the block rather than free them. A
            // driver that is already unwinding has reported its own panic,
            // and a second one would abort.
            std::mem::forget(self.stack.take());
            assert!(std::thread::panicking(), "a suspended fiber was dropped");
            return;
        }
        // SAFETY: the block came from `Box::into_raw` in `new`, and nothing
        // else refers to it: the fiber never ran, or it has finished and its
        // `Suspender` went with its body.
        drop(unsafe { Box::from_raw(self.control.as_ptr()) });
    }
}

/// The fiber's end of the link, given to its body: how the body hands a
/// value to the driver and waits for the next. It stays with that body:
/// it is neither `Clone` nor `Send`.
pub(crate) struct Suspender<I, O> {
    control: *mut Control<I, O>,
}

impl<I, O> Suspender<I, O> {
    /// Returns `output` from the driver's [`Fiber::resume`] and waits until
    /// the driver resumes this fiber again; returns that resume's input.
    pub(crate) fn suspend(&mut self, output: O) -> I {
        let c = self.control;
        // SAFETY: the only `Suspender` of a fiber is the one `entry` passes
        // to its body, and it cannot leave that body's fiber, so this runs
        // on the fiber's stack while the driver waits in `resume`, with its
        // stack pointer in `driver_sp`. The block outlives the body.
        unsafe {
            (*c).output = Some(output);
            switch(&raw mut (*c).fiber_sp, (*c).driver_sp);
            (*c).input.take().expect("a fiber is resumed with a value")
        }
    }
}

/// Where a fiber starts, called by the trampoline on the fiber's own stack
/// with its control block: runs the body, hands its value back and leaves
/// the stack for good. Nothing may unwind out of here, since above it is
/// only the trampoline: a panic that escapes the body aborts.
///
/// # Safety
///
/// Only `trampoline` calls this, on the first resume of the fiber whose
/// block `c` is.
unsafe extern "sysv64" fn entry<I, O>(c: *mut Control<I, O>) -> ! {
    let ran = catch_unwind(AssertUnwindSafe(|| {
        // SAFETY: `new` stored the body and the first `resume` the input
        // before switching here; the driver waits in that `resume`.
        let (body, input) = unsafe { ((*c).body.take(), (*c).input.take()) };
        let output = body.expect("a fiber starts once")(
            input.expect("a fiber is resumed with a value"),
            Suspender { control: c },
        );
        // SAFETY: as above, for the resume the driver waits in now.
        unsafe { (*c).output = Some(output) };
    }));
    if ran.is_err() {
        eprintln!("a panic escaped a fiber's body");
        std::process::abort();
    }
    // SAFETY: everything the body owned has been dropped, so nothing refers
    // to this stack any more. The driver waits in `resume` with its stack
    // pointer in `driver_sp`; it sees the null `fiber_sp` and never
    // switches here again.
    unsafe {
        (*c).fiber_sp = ptr::null_mut();
        let mut gone = ptr::null_mut();
        switch(&raw mut gone, (*c).driver_sp);
    }
    unreachable!("a finished fiber was resumed")
}

/// Pushes the callee-saved registers, stores the stack pointer at `save`,
/// loads `load` and pops the registers found there — saved by an earlier
/// `switch`, or `Fiber::new`'s initial frame — returning wherever that
/// stack left off. To the caller it is an ordinary call that returns when
/// something switches back; everything else is caller-saved.
#[unsafe(naked)]
unsafe extern "sysv64" fn switch(save: *mut *mut u8, load: *mut u8) {
    std::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

/// The bottom frame of every fiber: calls `entry` (in r12) with the
/// control block (in rbx), both from the initial frame. Its own return
/// address is 0, and it has no unwind information, so a backtrace taken
/// on a fiber ends at `entry`.
#[unsafe(naked)]
unsafe extern "sysv64" fn trampoline() {
    std::arch::naked_asm!("mov rdi, rbx", "call r12", "ud2")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimConfig, Simulator};
    use numa_core::MoveLimitPolicy;
    use std::hint::black_box;
    use std::process::{Command, Output};

    /// Set in the environment of a test's child process.
    const CHILD: &str = "ACE_SIM_FIBER_TEST_CHILD";

    /// Runs test `name` of this binary again, alone, in a child process
    /// with `CHILD` and `env` set, and returns how it ended. The child
    /// may not dump core: one is meant to die by `SIGSEGV`, and would
    /// leave a core file in the package directory.
    fn in_child(name: &str, env: &[(&str, &str)]) -> Output {
        let exe = std::env::current_exe().expect("the test binary's path");
        Command::new("sh")
            .args(["-c", "ulimit -c 0; exec \"$0\" \"$@\""])
            .arg(exe)
            .args([name, "--exact", "--nocapture", "--test-threads=1"])
            .env(CHILD, "1")
            .envs(env.iter().copied())
            .output()
            .expect("re-running the test binary")
    }

    fn sim() -> Simulator {
        Simulator::new(SimConfig::small(1), Box::new(MoveLimitPolicy::default()))
    }

    /// Recurses in frames of at least 1 KiB until the stack is `bytes`
    /// deeper than `top`; returns how many frames that took.
    fn descend(top: usize, bytes: usize) -> u32 {
        let pad = black_box([0u8; 1024]);
        if top - &pad as *const _ as usize >= bytes {
            return 1;
        }
        descend(top, bytes) + 1 + u32::from(pad[0])
    }

    #[test]
    fn a_simulated_thread_has_megabytes_of_stack() {
        let mut s = sim();
        let (tx, rx) = std::sync::mpsc::channel();
        s.spawn("deep", move |_| {
            let top = &tx as *const _ as usize;
            tx.send(descend(top, 1 << 20)).expect("the test waits");
        });
        s.run();
        let frames = rx.recv().expect("the thread ran");
        assert!(frames > 1, "{frames} frames");
    }

    #[test]
    fn runaway_recursion_dies_on_the_guard_page() {
        if std::env::var_os(CHILD).is_some() {
            fn forever(n: u64) -> u64 {
                let pad = black_box([n; 64]);
                if black_box(true) {
                    forever(n + 1).wrapping_add(pad[0])
                } else {
                    pad[1]
                }
            }
            let mut s = sim();
            s.spawn("runaway", |_| {
                black_box(forever(0));
            });
            s.run();
            return;
        }
        use std::os::unix::process::ExitStatusExt;
        let out = in_child("fiber::tests::runaway_recursion_dies_on_the_guard_page", &[]);
        const SIGSEGV: i32 = 11;
        assert_eq!(
            out.status.signal(),
            Some(SIGSEGV),
            "the child ended with {:?}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
    }

    #[test]
    fn a_body_panic_backtrace_ends_at_the_fiber_entry() {
        if std::env::var_os(CHILD).is_some() {
            let mut s = sim();
            s.spawn("doomed", |_| panic!("boom on a fiber"));
            let err = std::panic::catch_unwind(AssertUnwindSafe(|| s.run()))
                .expect_err("the body panic reaches run()");
            let msg = err.downcast_ref::<String>().expect("run() panics with a message");
            println!("run() raised: {msg}");
            return;
        }
        let name = "fiber::tests::a_body_panic_backtrace_ends_at_the_fiber_entry";
        let out = in_child(name, &[("RUST_BACKTRACE", "1")]);
        let (stdout, stderr) =
            (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
        assert!(out.status.success(), "the child failed: {stderr}");
        let raised = "simulated thread panicked: boom on a fiber (thread 0 \"doomed\")";
        assert!(stdout.contains(&format!("run() raised: {raised}")), "{stdout}");
        // The first backtrace is the body's, taken on the fiber (the
        // second is run()'s re-raise, on the test's own stack). It must
        // end with `entry` and the trampoline that called it: the walk
        // stops at the trampoline's return address of 0.
        let body = stderr.split("stack backtrace:").nth(1).expect("a backtrace was printed");
        let frames: Vec<&str> = body
            .lines()
            .take_while(|l| !l.starts_with("note:") && !l.starts_with("thread "))
            .filter_map(|l| l.trim_start().split_once(": "))
            .filter(|(n, _)| n.parse::<u32>().is_ok())
            .map(|(_, symbol)| symbol)
            .collect();
        assert!(
            frames.ends_with(&["ace_sim::fiber::entry", "ace_sim::fiber::trampoline"]),
            "the backtrace does not end at the fiber's entry: {stderr}"
        );
    }

    #[test]
    fn values_cross_in_both_directions_and_the_stack_is_reused() {
        let mut stack = Stack::new();
        for round in 0..3u64 {
            let mut f = Fiber::new(stack, move |first: u64, mut s: Suspender<u64, u64>| {
                let second = s.suspend(first + round);
                first * second
            });
            assert!(!f.is_suspended());
            assert_eq!(f.resume(5), 5 + round);
            assert!(f.is_suspended());
            assert_eq!(f.resume(7), 35);
            assert!(!f.is_suspended());
            stack = f.into_stack();
        }
    }

    #[test]
    #[should_panic(expected = "a suspended fiber was dropped")]
    fn a_suspended_fiber_is_not_dropped() {
        let mut f = Fiber::new(Stack::new(), |(), mut s: Suspender<(), ()>| s.suspend(()));
        f.resume(());
        drop(f);
    }

    #[test]
    fn an_unstarted_fiber_drops_its_body() {
        let owned = std::rc::Rc::new(());
        let held = std::rc::Rc::clone(&owned);
        drop(Fiber::new(Stack::new(), move |(), _: Suspender<(), ()>| drop(held)));
        assert_eq!(std::rc::Rc::strong_count(&owned), 1);
    }

    #[test]
    fn live_values_survive_100_000_switches() {
        // Two fibers and their driver keep integer and floating-point
        // accumulators live across every switch. Optimised code holds
        // them in callee-saved registers there, so a register missing from
        // `switch`'s save set shows up as a wrong sum. (A panic on a fiber
        // would abort, so the fibers only compute; the driver checks.)
        const ROUNDS: u64 = 50_000;
        let body = |scale: u64| {
            move |mut x: u64, mut s: Suspender<u64, u64>| {
                let (mut sum, mut xor, mut f) = (0u64, 0u64, 0.0f64);
                for _ in 0..ROUNDS {
                    sum = sum.wrapping_add(x * scale);
                    xor ^= x.rotate_left(scale as u32);
                    f += x as f64 * 0.5;
                    x = s.suspend(sum ^ xor);
                }
                sum.wrapping_add(xor).wrapping_add(f as u64)
            }
        };
        let expect = |scale: u64| {
            let (mut sum, mut xor, mut f, mut handed) = (0u64, 0u64, 0.0f64, 0u64);
            for x in 0..ROUNDS {
                sum = sum.wrapping_add(x * scale);
                xor ^= x.rotate_left(scale as u32);
                f += x as f64 * 0.5;
                handed = handed.wrapping_add(sum ^ xor);
            }
            (sum.wrapping_add(xor).wrapping_add(f as u64), handed)
        };
        let mut fibers = [Fiber::new(Stack::new(), body(3)), Fiber::new(Stack::new(), body(5))];
        let (mut handed, mut g) = (0u64, 0.0f64);
        for i in 0..ROUNDS {
            for f in &mut fibers {
                handed = handed.wrapping_add(f.resume(i));
                g += i as f64;
            }
        }
        let ends = fibers.each_mut().map(|f| f.resume(ROUNDS));
        let ((end3, handed3), (end5, handed5)) = (expect(3), expect(5));
        assert_eq!(ends, [end3, end5]);
        assert_eq!(handed, handed3.wrapping_add(handed5));
        assert_eq!(g, 2.0 * (ROUNDS * (ROUNDS - 1) / 2) as f64);
        assert!(fibers.iter().all(|f| !f.is_suspended()));
    }
}
