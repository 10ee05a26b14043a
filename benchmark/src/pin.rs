//! The two things the harness fixes about its host environment before
//! it measures anything: the core it runs on and how the allocator
//! talks to the kernel.
//!
//! # One core
//!
//! Exactly one simulated thread runs at a time, so one core measures
//! the program; with two, every grant is a futex wake across cores and
//! the same grid takes five times longer, bimodally (README, "Why one
//! core"). The harness therefore pins itself before it starts a single
//! thread — every thread it spawns later inherits the mask — and
//! refuses to run if the kernel does not confirm a one-CPU mask.

use crate::procfs;

/// CPUs a mask can name (the size of glibc's `cpu_set_t`).
pub const MAX_CPUS: usize = 1024;

type CpuMask = [u64; MAX_CPUS / 64];

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

// glibc's `mallopt` parameters (malloc.h).
const M_TRIM_THRESHOLD: i32 = -1;
const M_TOP_PAD: i32 = -2;
const M_MMAP_THRESHOLD: i32 = -3;
const M_ARENA_MAX: i32 = -8;

/// Makes the allocator keep what it has been given: one arena, no
/// `mmap` for large blocks, no trimming, growth in 64 MB steps.
///
/// Every simulated thread is a host thread, and by default glibc gives
/// threads arenas of their own and returns large blocks to the kernel
/// at once. Which thread lands in which arena is a race, and every
/// repetition then page-faults its working set in again: on the
/// reference box that alone made `peak_rss_mb` wander by 12 % and
/// `wall_s` of the memory-heavy workloads by 9 % between runs of the
/// same code. With the heap kept, the warm-up repetition faults the
/// working set in once and the timed repetitions measure the program.
/// Exactly one simulated thread runs at a time, so a single arena is
/// never contended. Must run before any thread is spawned.
pub fn steady_allocator() {
    const KEEP: i32 = i32::MAX;
    for (param, value) in [
        (M_ARENA_MAX, 1),
        (M_MMAP_THRESHOLD, KEEP),
        (M_TRIM_THRESHOLD, KEEP),
        (M_TOP_PAD, 64 << 20),
    ] {
        // SAFETY: `mallopt` takes two integers by value and only sets
        // allocator parameters; it is called while the process is still
        // single-threaded.
        let accepted = unsafe { mallopt(param, value) };
        debug_assert_eq!(accepted, 1, "mallopt({param}, {value}) was refused");
    }
}

/// What the harness is pinned to, for the report.
#[derive(Clone, Debug)]
pub struct Pinned {
    /// The one CPU everything runs on.
    pub cpu: usize,
    /// `Cpus_allowed_list` before pinning (what a child started
    /// unpinned gets back).
    pub allowed_before: String,
}

fn set_affinity(cpus: &[usize]) -> Result<(), String> {
    let mut mask: CpuMask = [0; MAX_CPUS / 64];
    for &c in cpus {
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `mask` is a live, initialised buffer of exactly the byte
    // length passed; pid 0 names the calling thread; the call reads the
    // buffer and keeps no pointer to it.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!(
            "sched_setaffinity({cpus:?}) failed: {}",
            std::io::Error::last_os_error()
        ))
    }
}

/// Pins the calling thread to `want` (default: the lowest allowed CPU)
/// and verifies it through `/proc/self/status`. Must run before any
/// thread is spawned.
pub fn pin_to_one(want: Option<usize>) -> Result<Pinned, String> {
    let before = procfs::status()?;
    let cpu = match want {
        Some(c) if before.cpus_allowed.contains(&c) => c,
        Some(c) => {
            return Err(format!(
                "CPU {c} is not in the allowed-CPU mask {}",
                before.cpus_allowed_text
            ))
        }
        None => *before
            .cpus_allowed
            .first()
            .ok_or("the allowed-CPU mask is empty")?,
    };
    set_affinity(&[cpu])
        .map_err(|e| format!("{e} (allowed-CPU mask {})", before.cpus_allowed_text))?;
    let after = procfs::status()?;
    if after.cpus_allowed != [cpu] {
        return Err(format!(
            "asked for CPU {cpu} but the allowed-CPU mask is {}",
            after.cpus_allowed_text
        ));
    }
    Ok(Pinned {
        cpu,
        allowed_before: before.cpus_allowed_text,
    })
}

/// Widens the calling thread's mask to `list` — the one unpinned code
/// path, used by the child process behind `sim.unpinned_wall_ratio`.
pub fn unpin_to(list: &str) -> Result<(), String> {
    set_affinity(&procfs::parse_cpu_list(list)?)
}
