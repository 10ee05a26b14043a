//! The whole benchmark: every workload, each in a process of its own.
//!
//! Without `--workload` the harness starts itself once per workload and
//! lets the children print. `--selfcheck` does that for whole sets —
//! workloads forward, workloads backward, and forward again on the
//! other core — and holds the sets against each other with the
//! benchmark's own bounds: it is the test that two runs of the same
//! code agree.

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::procfs;
use crate::run::Opts;
use crate::workloads::SPECS;
use numa_metrics::Json;
use std::process::Command;

/// Per-layer metrics that are exact: counts, virtual-clock values, and
/// ratios of exact counts. (The rest are host times.)
const EXACT_LAYERS: [&str; 4] = [
    "core.copies_per_request",
    "virt_goodput_frac",
    "model_err",
    "fail_frac",
];
/// `host_sys_frac` may move this much between two sets, absolutely.
const SYS_FRAC_SLACK: f64 = 0.05;

fn is_exact(name: &str, unit: &str) -> bool {
    matches!(unit, "count" | "virt_s" | "virt_us")
        || name == "virt_alpha"
        || EXACT_LAYERS.contains(&name)
}

/// The metrics of one child run, by name.
type Metrics = Vec<(String, f64)>;

/// Runs one workload in a child process, forwards what it prints, and
/// returns the metrics of its result line.
fn child(opts: &Opts) -> Result<Metrics, String> {
    let exe = std::env::current_exe().map_err(|e| format!("no path to this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        &opts.workload,
        "--seed",
        &opts.seed.to_string(),
    ])
    .args([
        "--seconds",
        &opts.seconds.to_string(),
        "--trace",
        if opts.trace { "1" } else { "0" },
    ]);
    if let Some(cpu) = opts.cpu {
        cmd.args(["--cpu", &cpu.to_string()]);
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start {}: {e}", opts.workload))?;
    let text = String::from_utf8_lossy(&out.stdout);
    print!("{text}");
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    if !out.status.success() {
        return Err(format!(
            "{} (trace {}) exited with {}",
            opts.workload, opts.trace, out.status
        ));
    }
    let line = text
        .lines()
        .last()
        .ok_or(format!("{} printed nothing", opts.workload))?;
    let Json::Obj(result) = numa_metrics::parse(line)? else {
        return Err(format!(
            "{}: the result line is not an object",
            opts.workload
        ));
    };
    let Some((_, Json::Obj(metrics))) = result.into_iter().find(|(k, _)| k == "metrics") else {
        return Err(format!("{}: the result line has no metrics", opts.workload));
    };
    metrics
        .into_iter()
        .map(|(name, m)| {
            let Json::Obj(fields) = m else {
                return Err(format!("{name} is not an object"));
            };
            match fields.iter().find(|(k, _)| k == "value") {
                Some((_, Json::Num(v))) => Ok((name, *v)),
                Some((_, Json::Int(v))) => Ok((name, *v as f64)),
                _ => Err(format!("{name} has no numeric value")),
            }
        })
        .collect()
}

/// Every workload once (untraced, then traced if asked), in the given
/// order. Returns `(workload, traced, metrics)` per child.
fn run_set(
    base: &Opts,
    traced_too: bool,
    backward: bool,
) -> Result<Vec<(String, bool, Metrics)>, String> {
    let mut names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
    if backward {
        names.reverse();
    }
    let mut set = Vec::new();
    for name in names {
        let modes: &[bool] = if traced_too {
            &[false, true]
        } else {
            &[base.trace]
        };
        for &trace in modes {
            let opts = Opts {
                workload: name.to_string(),
                trace,
                ..base.clone()
            };
            set.push((name.to_string(), trace, child(&opts)?));
        }
    }
    Ok(set)
}

/// `--workload` absent: the whole benchmark, one process per workload.
pub fn run_all(base: &Opts) -> Result<(), String> {
    run_set(base, false, false).map(|_| ())
}

/// Holds `other` against `first`; returns one line per disagreement.
fn compare(
    first: &[(String, bool, Metrics)],
    other: &[(String, bool, Metrics)],
    what: &str,
) -> Vec<String> {
    let mut wrong = Vec::new();
    for (workload, traced, a) in first {
        let Some((_, _, b)) = other.iter().find(|(w, t, _)| w == workload && t == traced) else {
            wrong.push(format!("{what}: {workload} is missing"));
            continue;
        };
        for (name, va) in a {
            let Some(&(_, vb)) = b.iter().find(|(n, _)| n == name) else {
                wrong.push(format!("{what}: {workload} {name} is missing"));
                continue;
            };
            let e2e = END_TO_END.iter().find(|m| m.name == name);
            let unit = e2e
                .map(|m| m.unit)
                .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
                .unwrap_or("");
            let ok = if is_exact(name, unit) {
                *va == vb
            } else if name == "host_sys_frac" {
                (va - vb).abs() <= SYS_FRAC_SLACK
            } else if let Some(m) = e2e {
                (va - vb).abs() <= m.bound * va.abs()
            } else {
                // Host-time unit costs of single layers carry no bound.
                true
            };
            if !ok {
                wrong.push(format!("{what}: {workload} {name}: {va} against {vb}"));
            }
        }
    }
    wrong
}

/// `--selfcheck`.
pub fn selfcheck(base: &Opts) -> Result<bool, String> {
    let allowed = procfs::status()?.cpus_allowed;
    let home = base
        .cpu
        .or(allowed.first().copied())
        .ok_or("the allowed-CPU mask is empty")?;
    let base = Opts {
        cpu: Some(home),
        ..base.clone()
    };
    println!("selfcheck: set 1, workloads forward, CPU {home}");
    let first = run_set(&base, true, false)?;
    println!("selfcheck: set 2, workloads backward, CPU {home}");
    let second = run_set(&base, true, true)?;
    let mut wrong = compare(&first, &second, "same core");
    match allowed.iter().find(|&&c| c != home) {
        Some(&other) => {
            println!("selfcheck: set 3, workloads forward, CPU {other}");
            let third = run_set(
                &Opts {
                    cpu: Some(other),
                    ..base.clone()
                },
                true,
                false,
            )?;
            wrong.extend(compare(&first, &third, "other core"));
        }
        None => println!("selfcheck: only CPU {home} is allowed; the other-core set is skipped"),
    }
    for line in &wrong {
        println!("DISAGREES {line}");
    }
    println!(
        "selfcheck: {}",
        if wrong.is_empty() {
            "every set agrees"
        } else {
            "FAILED"
        }
    );
    Ok(wrong.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(wall: f64, virt: f64, sys: f64) -> Vec<(String, bool, Metrics)> {
        let m = vec![
            ("wall_s".to_string(), wall),
            ("virt_user_s".to_string(), virt),
            ("host_sys_frac".to_string(), sys),
            ("sim.window_ns".to_string(), wall * 1e4),
        ];
        vec![("paper_bench".to_string(), false, m)]
    }

    #[test]
    fn host_metrics_get_their_bound_and_virtual_ones_none() {
        let a = set(1.0, 2.5, 0.30);
        let bound = END_TO_END
            .iter()
            .find(|m| m.name == "wall_s")
            .unwrap()
            .bound;
        assert!(compare(&a, &set(1.0 + bound - 0.01, 2.5, 0.34), "x").is_empty());
        assert_eq!(
            compare(&a, &set(1.0 + bound + 0.01, 2.5, 0.30), "x").len(),
            1,
            "wall_s has its bound"
        );
        assert_eq!(
            compare(&a, &set(1.0, 2.5000001, 0.30), "x").len(),
            1,
            "virt_* must be identical"
        );
        assert_eq!(
            compare(&a, &set(1.0, 2.5, 0.36), "x").len(),
            1,
            "host_sys_frac gets 0.05"
        );
        assert_eq!(compare(&a, &[], "x").len(), 1);
    }

    #[test]
    fn exactness_follows_the_unit() {
        assert!(is_exact("core.requests", "count"));
        assert!(is_exact("virt_p99_us", "virt_us"));
        assert!(is_exact("model_err", "abs"));
        assert!(!is_exact("wall_s", "s"));
        assert!(!is_exact("core.est_busy_frac", "ratio"));
    }
}
