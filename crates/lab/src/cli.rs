//! The `numa-lab` command-line interface.
//!
//! Argument parsing is hand-rolled (the workspace builds offline, with
//! no clap): every flag is `--name value` or a boolean `--name`, and
//! anything unrecognized is a usage error. Five subcommands:
//!
//! * `run`  — expand a grid, farm it out, print the result tables and
//!   write the sweep document to `--out`, which every grid must name;
//! * `table` — `run` without the document: the paper's tables, printed
//!   from a grid;
//! * `list` — show the built-in grids, or every job of one grid;
//! * `diff` — compare a fresh run (or `--current` file) against a
//!   committed baseline and print every drifted leaf;
//! * `gate` — like `diff`, but exit 1 when any drift exceeds its
//!   tolerance: the CI perf-regression gate.
//!
//! Everything on **stdout is deterministic** (tables and summaries of
//! deterministic simulations); progress and wall-clock timing go to
//! stderr, where nondeterminism belongs.

use crate::checkpoint::Checkpoint;
use crate::farm::LabError;
use crate::gate::{diff_documents, GateTolerances};
use crate::grid::{Axis, Grid, JobSpec, AXES};
use crate::sweep::Sweep;
use numa_metrics::baseline::BaselineDiff;
use numa_metrics::paper::{PAPER_TABLE3, PAPER_TABLE4};
use numa_metrics::table::fmt_opt;
use numa_metrics::{shared, validate, Event, EventKind, EventSink, SharedSink, Table};
use std::process::ExitCode;
use std::time::Instant;

const DEFAULT_FILE: &str = "BENCH_sweep.json";

const USAGE: &str = "\
numa-lab — parallel experiment orchestration for the NUMA reproduction

USAGE:
    numa-lab <COMMAND> [OPTIONS]

COMMANDS:
    run     run a sweep grid and write its report
    table   run a sweep grid and print its tables; writes nothing
    list    list built-in grids, or the jobs of one grid
    diff    compare a run against a baseline, print drifted metrics
    gate    diff with an exit status: nonzero on regression
    help    print this text

OPTIONS:
    --grid NAME        grid preset (default: paper); see `numa-lab list`
    --jobs N           worker threads (default: available parallelism)
    --out FILE         run: where to write the report (required, so no run
                       overwrites a committed baseline by default)
    --path fast|slow   run/table/diff/gate: simulator access path (default: fast);
                       both produce byte-identical reports, slow is for
                       equivalence checks and timing comparisons
    --resume           run: checkpoint completed cells next to the output
                       file (<out>.partial) and skip them on the next
                       --resume run; final output is byte-identical to an
                       uninterrupted run
    --baseline FILE    diff/gate: committed baseline (default: BENCH_sweep.json)
    --current FILE     diff/gate: compare this file instead of running the grid
    --quiet            no progress output on stderr
    --strict           zero tolerance on every metric
    --tol-time X       relative tolerance on times (default 0.02)
    --tol-model X      absolute tolerance on alpha/beta/gamma (default 0.02)
    --tol-count X      relative tolerance on protocol counters (default 0.10)
    --tol-count-abs X  absolute floor on counter drift (default 2)
    --tol-bytes X      relative tolerance on bus bytes (default 0.02)

EXIT STATUS:
    0  success / gate passed
    1  gate found a regression beyond tolerance
    2  usage, I/O, or simulation error
";

struct Opts {
    grid: String,
    grid_given: bool,
    jobs: usize,
    out: Option<String>,
    baseline: String,
    current: Option<String>,
    quiet: bool,
    tol: GateTolerances,
    strict: bool,
    fastpath: bool,
    resume: bool,
}

impl Default for Opts {
    fn default() -> Opts {
        Opts {
            grid: "paper".to_string(),
            grid_given: false,
            jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
            out: None,
            baseline: DEFAULT_FILE.to_string(),
            current: None,
            quiet: false,
            tol: GateTolerances::default(),
            strict: false,
            fastpath: true,
            resume: false,
        }
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("numa-lab: {msg}");
    eprintln!("run `numa-lab help` for usage");
    ExitCode::from(2)
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts::default();
    let mut it = args.iter();
    let value = |it: &mut std::slice::Iter<String>, flag: &str| -> Result<String, String> {
        it.next().cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--grid" => {
                opts.grid = value(&mut it, "--grid")?;
                opts.grid_given = true;
            }
            "--jobs" => {
                let v = value(&mut it, "--jobs")?;
                opts.jobs = v
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or(format!("--jobs wants a positive integer, got `{v}`"))?;
            }
            "--out" => opts.out = Some(value(&mut it, "--out")?),
            "--baseline" => opts.baseline = value(&mut it, "--baseline")?,
            "--current" => opts.current = Some(value(&mut it, "--current")?),
            "--quiet" => opts.quiet = true,
            "--strict" => opts.strict = true,
            "--resume" => opts.resume = true,
            "--path" => {
                let v = value(&mut it, "--path")?;
                opts.fastpath = match v.as_str() {
                    "fast" => true,
                    "slow" => false,
                    _ => return Err(format!("--path wants `fast` or `slow`, got `{v}`")),
                };
            }
            "--tol-time" | "--tol-model" | "--tol-count" | "--tol-count-abs" | "--tol-bytes" => {
                let v = value(&mut it, arg)?;
                let x = v.parse::<f64>().ok().filter(|x| *x >= 0.0).ok_or(format!(
                    "{arg} wants a non-negative number, got `{v}`"
                ))?;
                match arg.as_str() {
                    "--tol-time" => opts.tol.time_rel = x,
                    "--tol-model" => opts.tol.model_abs = x,
                    "--tol-count" => opts.tol.count_rel = x,
                    "--tol-count-abs" => opts.tol.count_abs = x,
                    _ => opts.tol.bytes_rel = x,
                }
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if opts.strict {
        opts.tol = GateTolerances::strict();
    }
    Ok(opts)
}

/// Per-job progress line printer, fed by the farm through the
/// structured event sink.
struct StderrProgress {
    done: u32,
    started: Instant,
}

impl EventSink for StderrProgress {
    fn record(&mut self, event: &Event) {
        if let EventKind::JobCompleted { job, of } = event.kind {
            self.done += 1;
            eprintln!(
                "  [{:>3}/{of}] job #{job} done ({}ms elapsed)",
                self.done,
                self.started.elapsed().as_millis()
            );
        }
    }
}

fn lookup_grid(opts: &Opts) -> Result<Grid, String> {
    let mut grid = Grid::named(&opts.grid).ok_or_else(|| {
        format!(
            "unknown grid `{}` (built-in grids: {})",
            opts.grid,
            Grid::preset_names().collect::<Vec<_>>().join(", ")
        )
    })?;
    grid.fastpath = opts.fastpath;
    Ok(grid)
}

fn run_sweep(grid: Grid, opts: &Opts) -> Result<(Sweep, f64), LabError> {
    let progress: Option<SharedSink> = (!opts.quiet)
        .then(|| shared(StderrProgress { done: 0, started: Instant::now() }) as SharedSink);
    let started = Instant::now();
    let sweep = Sweep::run(grid, opts.jobs, progress.as_ref())?;
    Ok((sweep, started.elapsed().as_secs_f64()))
}

/// `run --resume`: load the sidecar checkpoint, run only the missing
/// cells (recording each as it finishes), and delete the sidecar once
/// the whole grid is in hand.
fn run_sweep_resumable(grid: Grid, opts: &Opts, out: &str) -> Result<(Sweep, f64), String> {
    let path = Checkpoint::path_for(out);
    let mut cp = Checkpoint::load_or_create(&path, &grid)?;
    let skipped = cp.completed_ids().len();
    if skipped > 0 && !opts.quiet {
        eprintln!(
            "resuming from {}: {skipped}/{} cells already done",
            path.display(),
            grid.jobs().len()
        );
    }
    let progress: Option<SharedSink> = (!opts.quiet)
        .then(|| shared(StderrProgress { done: 0, started: Instant::now() }) as SharedSink);
    let started = Instant::now();
    let sweep = Sweep::run_resumable(grid, opts.jobs, progress.as_ref(), &mut cp)?;
    cp.remove();
    Ok((sweep, started.elapsed().as_secs_f64()))
}

/// The job table, then — for grids whose `numa` cells have their
/// `local` and `global` companions — the model table (Table 3) and the
/// system-time table (Table 4), one row per such cell.
fn print_sweep_tables(sweep: &Sweep) {
    let mut t = Table::new(&[
        "id", "job", "Tuser(s)", "Tsys(s)", "makespan(s)", "alpha(meas)", "repl", "migr", "pins",
        "bus(MB)",
    ])
    .with_title(format!(
        "grid `{}`: {} jobs",
        sweep.grid.name,
        sweep.results.len()
    ));
    for r in &sweep.results {
        t.row(vec![
            r.spec.id.to_string(),
            r.spec.label(),
            format!("{:.4}", r.report.user_secs()),
            format!("{:.4}", r.report.system_secs()),
            format!("{:.4}", r.report.makespan().as_secs_f64()),
            format!("{:.3}", r.report.alpha_measured()),
            r.report.numa.replications.to_string(),
            r.report.numa.migrations.to_string(),
            r.report.numa.pins.to_string(),
            format!("{:.2}", r.report.bus.total_bytes() as f64 / 1e6),
        ]);
    }
    println!("{t}");

    let rows = sweep.model_rows();
    if rows.is_empty() {
        return;
    }
    let mut m = Table::new(&[
        "cell", "Tglobal", "Tnuma", "Tlocal", "alpha", "beta", "gamma", "alpha(meas)",
        "alpha(paper)", "beta(paper)", "gamma(paper)",
    ])
    .with_title("analytic model (equations 4 and 5), paper values alongside");
    let mut s = Table::new(&["cell", "Snuma", "Sglobal", "dS", "Tnuma", "dS/Tnuma", "paper dS/T"])
        .with_title("system time: dS = Snuma - Sglobal, the cost of NUMA management");
    let none = || "-".to_string();
    for row in &rows {
        let name = row.spec.app.name();
        let paper = PAPER_TABLE3.iter().find(|p| p.0 == name);
        m.row(vec![
            row.spec.label(),
            format!("{:.4}", row.t_global),
            format!("{:.4}", row.t_numa),
            format!("{:.4}", row.t_local),
            fmt_opt(row.alpha, 3),
            format!("{:.3}", row.beta),
            format!("{:.3}", row.gamma),
            format!("{:.3}", row.alpha_measured),
            paper.map_or_else(none, |p| fmt_opt(p.4, 2)),
            paper.map_or_else(none, |p| format!("{:.2}", p.5)),
            paper.map_or_else(none, |p| format!("{:.2}", p.6)),
        ]);
        s.row(vec![
            row.spec.label(),
            format!("{:.4}", row.s_numa),
            format!("{:.4}", row.s_global),
            format!("{:.4}", row.delta_s()),
            format!("{:.4}", row.t_numa),
            format!("{:.1}%", row.sys_overhead_pct()),
            PAPER_TABLE4.iter().find(|p| p.0 == name).map_or_else(none, |p| format!("{:.1}%", p.5)),
        ]);
    }
    println!("{m}");
    println!("{s}");
}

fn write_report(sweep: &Sweep, path: &str) -> Result<usize, String> {
    let text = sweep.to_json().to_string_flat();
    validate(&text).map_err(|e| format!("generated report is not valid JSON: {e}"))?;
    std::fs::write(path, &text).map_err(|e| format!("cannot write {path}: {e}"))?;
    Ok(text.len())
}

/// Where `run` writes its report. There is no default: every committed
/// `BENCH_*.json` is some grid's report, so a default would let a run
/// overwrite one.
fn run_out_path(opts: &Opts) -> Result<&str, String> {
    opts.out.as_deref().ok_or_else(|| {
        format!(
            "`run --grid {0}` needs --out FILE (`numa-lab table --grid {0}` prints the \
             tables without writing anything)",
            opts.grid
        )
    })
}

/// `run` (`writes`) and `table`: run the grid and print its tables;
/// `run` also writes the sweep document.
fn cmd_run(opts: &Opts, writes: bool) -> Result<ExitCode, String> {
    let out = if writes { Some(run_out_path(opts)?) } else { None };
    let grid = lookup_grid(opts)?;
    let (sweep, elapsed) = match out {
        Some(out) if opts.resume => run_sweep_resumable(grid, opts, out)?,
        _ => run_sweep(grid, opts).map_err(|e| e.to_string())?,
    };
    print_sweep_tables(&sweep);
    if let Some(out) = out {
        let bytes = write_report(&sweep, out)?;
        println!("Wrote {out} ({bytes} bytes).");
    }
    eprintln!(
        "ran {} jobs on {} workers in {elapsed:.2}s wall-clock",
        sweep.results.len(),
        opts.jobs
    );
    Ok(ExitCode::SUCCESS)
}

/// The axes `grid` sets, in grid order.
fn set_axes(grid: &Grid) -> Vec<&'static Axis> {
    AXES.iter().filter(|a| !(a.values)(grid).is_empty()).collect()
}

/// A job's coordinate on each of `axes`, `-` where it collapsed.
fn axis_cells(job: &JobSpec, axes: &[&Axis]) -> Vec<String> {
    axes.iter().map(|a| (a.get)(job).map_or("-".to_string(), |v| v.to_string())).collect()
}

fn cmd_list(opts: &Opts) -> Result<ExitCode, String> {
    if !opts.grid_given {
        let mut t = Table::new(&["grid", "scale", "jobs", "axes"]);
        for name in Grid::preset_names() {
            let g = Grid::named(name).expect("preset exists");
            // Every axis the grid sets, so the product is the job count
            // before inapplicable axes collapse.
            let axes: Vec<String> = set_axes(&g)
                .iter()
                .map(|a| format!("{} {}", (a.values)(&g).len(), a.list_key))
                .collect();
            t.row(vec![
                g.name.clone(),
                format!("{:?}", g.scale).to_lowercase(),
                g.jobs().len().to_string(),
                axes.join(" x "),
            ]);
        }
        println!("{t}");
        return Ok(ExitCode::SUCCESS);
    }
    // One column per axis the grid sets, so no two rows read the same.
    let grid = lookup_grid(opts)?;
    let (jobs, axes) = (grid.jobs(), set_axes(&grid));
    let headers: Vec<&str> = std::iter::once("id").chain(axes.iter().map(|a| a.key)).collect();
    let mut t = Table::new(&headers)
        .with_title(format!("grid `{}`: {} jobs, grid order", grid.name, jobs.len()));
    for j in &jobs {
        t.row(std::iter::once(j.id.to_string()).chain(axis_cells(j, &axes)).collect());
    }
    println!("{t}");
    Ok(ExitCode::SUCCESS)
}

fn current_document(opts: &Opts) -> Result<String, String> {
    match &opts.current {
        Some(path) => {
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
        }
        None => {
            let grid = lookup_grid(opts)?;
            let (sweep, _) = run_sweep(grid, opts).map_err(|e| e.to_string())?;
            Ok(sweep.to_json().to_string_flat())
        }
    }
}

fn print_diff(diff: &BaselineDiff) {
    if diff.deltas.is_empty() {
        println!("no drift: current run matches the baseline on every leaf");
    } else {
        let mut t = Table::new(&["leaf", "baseline", "current", "verdict"]);
        for d in &diff.deltas {
            t.row(vec![
                d.path.clone(),
                d.baseline.clone(),
                d.current.clone(),
                if d.within { "within tolerance".to_string() } else { "VIOLATION".to_string() },
            ]);
        }
        println!("{t}");
    }
    println!("{}", diff.summary());
}

fn cmd_diff(opts: &Opts, gating: bool) -> Result<ExitCode, String> {
    let baseline = std::fs::read_to_string(&opts.baseline)
        .map_err(|e| format!("cannot read baseline {}: {e}", opts.baseline))?;
    let current = current_document(opts)?;
    let diff = diff_documents(&baseline, &current, &opts.tol)?;
    print_diff(&diff);
    if gating && !diff.passes() {
        eprintln!(
            "gate FAILED: {} metric(s) drifted beyond tolerance vs {}",
            diff.violations().count(),
            opts.baseline
        );
        return Ok(ExitCode::from(1));
    }
    if gating {
        println!("gate passed vs {}", opts.baseline);
    }
    Ok(ExitCode::SUCCESS)
}

/// CLI entry point: `args` excludes the binary name.
pub fn run(args: Vec<String>) -> ExitCode {
    let (command, rest) = match args.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => ("help", &[][..]),
    };
    if matches!(command, "help" | "--help" | "-h") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let opts = match parse_opts(rest) {
        Ok(o) => o,
        Err(e) => return usage_error(&e),
    };
    let result = match command {
        "run" => cmd_run(&opts, true),
        "table" => cmd_run(&opts, false),
        "list" => cmd_list(&opts),
        "diff" => cmd_diff(&opts, false),
        "gate" => cmd_diff(&opts, true),
        other => return usage_error(&format!("unknown command `{other}`")),
    };
    result.unwrap_or_else(|e| usage_error(&e))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn options_parse() {
        let o = parse_opts(&args(&[
            "--grid", "smoke", "--jobs", "8", "--out", "x.json", "--baseline", "b.json",
            "--quiet", "--tol-time", "0.5",
        ]))
        .unwrap();
        assert_eq!(o.grid, "smoke");
        assert_eq!(o.jobs, 8);
        assert_eq!(o.out.as_deref(), Some("x.json"));
        assert_eq!(o.baseline, "b.json");
        assert!(o.quiet);
        assert_eq!(o.tol.time_rel, 0.5);
    }

    #[test]
    fn no_grid_has_a_default_output_file() {
        // Without --out, every grid — the default `paper` one included —
        // is a usage error (exit 2) that names the missing flag, raised
        // before anything runs.
        for given in [&[][..], &["--grid", "paper"], &["--grid", "serving"]] {
            let o = parse_opts(&args(given)).unwrap();
            let err = run_out_path(&o).unwrap_err();
            assert!(err.contains("--out") && err.contains(&o.grid), "got: {err}");
            let cmd: Vec<&str> = ["run", "--quiet"].iter().chain(given).copied().collect();
            assert_eq!(run(args(&cmd)), ExitCode::from(2));
        }
        let o = parse_opts(&args(&["--grid", "serving", "--out", "s.json"])).unwrap();
        assert_eq!(run_out_path(&o), Ok("s.json"));
    }

    #[test]
    fn list_rows_are_pairwise_distinct_and_the_summary_explains_the_count() {
        for name in Grid::preset_names() {
            let grid = Grid::named(name).unwrap();
            let (jobs, axes) = (grid.jobs(), set_axes(&grid));
            let rows: std::collections::BTreeSet<Vec<String>> =
                jobs.iter().map(|j| axis_cells(j, &axes)).collect();
            assert_eq!(rows.len(), jobs.len(), "`list --grid {name}` prints indistinguishable rows");
            // The cardinalities the summary prints multiply to the job
            // count before collapse.
            let product: usize = axes.iter().map(|a| (a.values)(&grid).len()).product();
            assert!(product >= jobs.len(), "{name}: {product} < {}", jobs.len());
        }
        let pressure = Grid::pressure();
        let listed: Vec<_> = set_axes(&pressure).iter().map(|a| a.list_key).collect();
        assert!(listed.contains(&"local_frames"), "pressure's summary omits its own axis");
        assert_eq!(run(args(&["list"])), ExitCode::SUCCESS);
        assert_eq!(run(args(&["list", "--grid", "overload"])), ExitCode::SUCCESS);
    }

    #[test]
    fn bad_options_are_errors() {
        assert!(parse_opts(&args(&["--jobs", "0"])).is_err());
        assert!(parse_opts(&args(&["--jobs"])).is_err());
        assert!(parse_opts(&args(&["--tol-time", "-1"])).is_err());
        assert!(parse_opts(&args(&["--wat"])).is_err());
        assert!(parse_opts(&args(&["--path", "sideways"])).is_err());
    }

    #[test]
    fn path_flag_selects_the_access_path() {
        assert!(parse_opts(&args(&[])).unwrap().fastpath, "fast by default");
        assert!(parse_opts(&args(&["--path", "fast"])).unwrap().fastpath);
        let o = parse_opts(&args(&["--path", "slow"])).unwrap();
        assert!(!o.fastpath);
    }

    #[test]
    fn resume_parses_and_timeout_is_a_usage_error() {
        assert!(parse_opts(&args(&["--resume"])).unwrap().resume);
        assert!(!parse_opts(&args(&[])).unwrap().resume);
        // The wall-clock watchdog's flag is gone: it is an unknown option.
        let gone = format!("--{}", "timeout");
        let err = parse_opts(&args(&[&gone, "30"])).err().unwrap_or_default();
        assert_eq!(err, format!("unknown option `{gone}`"));
        let cmd = args(&["run", "--grid", "smoke", "--out", "x.json", &gone, "30"]);
        assert_eq!(run(cmd), ExitCode::from(2));
    }

    #[test]
    fn a_document_nested_too_deep_is_a_usage_error_not_a_crash() {
        let dir = std::env::temp_dir();
        let deep = dir.join(format!("numa-lab-deep-{}.json", std::process::id()));
        let base = dir.join(format!("numa-lab-base-{}.json", std::process::id()));
        std::fs::write(&deep, format!("{}{}", "[".repeat(1_000_000), "]".repeat(1_000_000)))
            .unwrap();
        std::fs::write(&base, "{}").unwrap();
        let (deep, base) = (deep.to_str().unwrap(), base.to_str().unwrap());
        let cmd = ["diff", "--grid", "smoke", "--current", deep, "--baseline", base];
        let opts = parse_opts(&args(&cmd[1..])).unwrap();
        let err = cmd_diff(&opts, false).err().unwrap_or_default();
        assert!(err.contains("nesting deeper than 128"), "got: {err}");
        assert_eq!(run(args(&cmd)), ExitCode::from(2));
        let _ = (std::fs::remove_file(deep), std::fs::remove_file(base));
    }

    #[test]
    fn strict_overrides_tolerances() {
        let o = parse_opts(&args(&["--tol-time", "0.5", "--strict"])).unwrap();
        assert_eq!(o.tol.time_rel, 0.0);
        assert_eq!(o.tol.count_abs, 0.0);
    }
}
