//! The two `/proc/self` files the harness reads: `stat` for the
//! process-wide user/kernel CPU split (it includes threads that have
//! already exited, which is every simulated thread of a finished cell)
//! and `status` for the allowed-CPU list and the resident-set
//! high-water mark.

use std::fs;

/// Process CPU time in clock ticks, as `/proc/self/stat` counts it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CpuTicks {
    /// Ticks spent in user mode.
    pub user: u64,
    /// Ticks spent in the kernel.
    pub sys: u64,
}

impl CpuTicks {
    /// Ticks accumulated since `earlier`.
    pub fn since(self, earlier: CpuTicks) -> CpuTicks {
        CpuTicks {
            user: self.user - earlier.user,
            sys: self.sys - earlier.sys,
        }
    }

    /// Kernel share of the CPU time; zero when no tick was counted.
    pub fn sys_frac(self) -> f64 {
        let total = self.user + self.sys;
        if total == 0 {
            0.0
        } else {
            self.sys as f64 / total as f64
        }
    }
}

/// Parses `utime` and `stime` (fields 14 and 15) out of a
/// `/proc/<pid>/stat` line. The command name (field 2) may itself hold
/// spaces and parentheses, so fields are counted from the last `)`.
pub fn parse_stat(text: &str) -> Result<CpuTicks, String> {
    let rest = text
        .rfind(')')
        .map(|i| &text[i + 1..])
        .ok_or("stat: no `)` after the command name")?;
    // `rest` starts at field 3 (state).
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut tick = |name: &str| -> Result<u64, String> {
        let f = fields.next().ok_or(format!("stat: missing {name}"))?;
        f.parse()
            .map_err(|_| format!("stat: {name} is not a number: {f:?}"))
    };
    Ok(CpuTicks {
        user: tick("utime")?,
        sys: tick("stime")?,
    })
}

/// The fields of `/proc/<pid>/status` the harness uses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Status {
    /// `Cpus_allowed_list`, expanded and ascending.
    pub cpus_allowed: Vec<usize>,
    /// `Cpus_allowed_list` as the kernel printed it (for messages).
    pub cpus_allowed_text: String,
    /// `VmHWM` in kB.
    pub vm_hwm_kb: u64,
}

/// Parses a `/proc/<pid>/status` document.
pub fn parse_status(text: &str) -> Result<Status, String> {
    let field = |key: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
            .map(str::trim)
            .ok_or(format!("status: no {key} line"))
    };
    let list = field("Cpus_allowed_list")?;
    let hwm = field("VmHWM")?;
    let kb = hwm
        .strip_suffix("kB")
        .map(str::trim)
        .and_then(|n| n.parse().ok())
        .ok_or(format!("status: VmHWM is not `<n> kB`: {hwm:?}"))?;
    Ok(Status {
        cpus_allowed: parse_cpu_list(list)?,
        cpus_allowed_text: list.to_string(),
        vm_hwm_kb: kb,
    })
}

/// Expands a kernel CPU list (`0-1`, `0,2-3,7`) into CPU numbers.
pub fn parse_cpu_list(list: &str) -> Result<Vec<usize>, String> {
    let bad = || format!("bad CPU list {list:?}");
    let mut cpus = Vec::new();
    for part in list.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        let lo: usize = lo.parse().map_err(|_| bad())?;
        let hi: usize = hi.parse().map_err(|_| bad())?;
        if lo > hi || hi >= crate::pin::MAX_CPUS {
            return Err(bad());
        }
        cpus.extend(lo..=hi);
    }
    cpus.sort_unstable();
    cpus.dedup();
    Ok(cpus)
}

/// This process's CPU ticks so far.
pub fn cpu_ticks() -> Result<CpuTicks, String> {
    let text =
        fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    parse_stat(&text)
}

/// This process's status fields.
pub fn status() -> Result<Status, String> {
    let text =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    parse_status(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Captured on the reference box from a process pinned to CPU 1 whose
    // command name was set to `sim-3 (kv) x`.
    const STAT: &str = include_str!("../fixtures/proc_self_stat.txt");
    const STATUS: &str = include_str!("../fixtures/proc_self_status.txt");

    #[test]
    fn stat_fields_are_counted_from_the_last_parenthesis() {
        assert!(STAT.contains("(sim-3 (kv) x)"));
        assert_eq!(parse_stat(STAT).unwrap(), CpuTicks { user: 36, sys: 1 });
    }

    #[test]
    fn stat_errors_are_typed_not_panics() {
        assert!(parse_stat("").is_err());
        assert!(parse_stat("1 (x) R 2 3").is_err());
        assert!(parse_stat("1 (x) R 0 0 0 0 0 0 0 0 0 0 0 u 5").is_err());
    }

    #[test]
    fn status_yields_the_cpu_list_and_the_high_water_mark() {
        let s = parse_status(STATUS).unwrap();
        assert_eq!(s.cpus_allowed, vec![1]);
        assert_eq!(s.cpus_allowed_text, "1");
        assert_eq!(s.vm_hwm_kb, 8740);
        assert!(parse_status("Name:\tx\n").is_err());
    }

    #[test]
    fn cpu_lists_expand() {
        assert_eq!(parse_cpu_list("0-1").unwrap(), vec![0, 1]);
        assert_eq!(parse_cpu_list("0,2-3,7").unwrap(), vec![0, 2, 3, 7]);
        assert_eq!(parse_cpu_list("5").unwrap(), vec![5]);
        assert!(parse_cpu_list("3-1").is_err());
        assert!(parse_cpu_list("a").is_err());
        assert!(parse_cpu_list("0-99999").is_err());
    }

    #[test]
    fn tick_arithmetic() {
        let d = CpuTicks { user: 90, sys: 30 }.since(CpuTicks { user: 30, sys: 10 });
        assert_eq!(d, CpuTicks { user: 60, sys: 20 });
        assert_eq!(d.sys_frac(), 0.25);
        assert_eq!(CpuTicks { user: 0, sys: 0 }.sys_frac(), 0.0);
    }
}
