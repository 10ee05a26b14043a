//! `numa-perf`: the repository's benchmark.
//!
//! A standalone harness that drives the workspace crates only through
//! their public functions, pinned to one core, on two clocks that are
//! always labelled: `virt_*` metrics are simulated time (deterministic,
//! must repeat exactly), everything else is host time (noisy, reported
//! as a median over in-process repetitions). See `README.md` for the
//! workloads, the metrics and how to compare two commits.

mod counts;
mod metrics;
mod micro;
mod pin;
mod procfs;
mod report;
mod run;
mod seed;
mod span;
mod stats;
mod suite;
mod workloads;

use run::Opts;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "\
usage: numa-perf [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] [--cpu N]
       numa-perf --selfcheck [--seed N] [--seconds N] [--cpu N]
       numa-perf --describe

  --workload NAME  paper_bench, stream_1cpu, fault_storm, serve_idle, serve_sat or
                   observed; without it every workload runs, each in its own process
  --seed N         seed of everything the harness generates (default 1989)
  --seconds N      how long one run measures (default 10)
  --trace 0|1      1 adds the traced repetitions and the microcells, writes
                   benchmark/out/trace-NAME.json, and reports the per-layer metrics
  --cpu N          the one CPU to run on (default: the lowest allowed)
  --selfcheck      run the whole benchmark in three sets and require that they agree
  --describe       print BENCHMARK.json as generated from the harness's own tables

The last line of standard output is the result: one JSON object with the keys
correct, attempted, failed and metrics. The exit status is non-zero if a cell or a
check failed, or if the harness could not pin itself to one CPU.";

enum Mode {
    Describe,
    Workload,
    All,
    Selfcheck,
    UnpinnedChild(String),
}

fn parse(args: &[String]) -> Result<(Mode, Opts), String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: seed::DEFAULT_SEED,
        seconds: metrics::RUN_SECONDS,
        trace: false,
        cpu: None,
    };
    let mut mode = Mode::All;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: {v:?} is not a number"))
        };
        match flag.as_str() {
            "--workload" => {
                opts.workload = value()?.clone();
                mode = Mode::Workload;
            }
            "--seed" => opts.seed = number(value()?)?,
            "--seconds" => opts.seconds = number(value()?)?.max(1),
            "--cpu" => opts.cpu = Some(number(value()?)? as usize),
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--selfcheck" => mode = Mode::Selfcheck,
            "--describe" => mode = Mode::Describe,
            "--unpinned-child" => mode = Mode::UnpinnedChild(value()?.clone()),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok((mode, opts))
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    pin::steady_allocator();
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if let Ok(cell) = workloads::CURRENT_CELL.lock() {
            eprintln!("numa-perf: panic while running cell {:?}", cell.as_str());
        }
        default_hook(info);
    }));
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse(&args).and_then(|(mode, opts)| match mode {
        Mode::Describe => {
            print!("{}", metrics::describe());
            Ok(true)
        }
        Mode::Workload => run::run(&opts, process_start).and_then(|o| run::finish(&o)),
        Mode::All => suite::run_all(&opts).map(|()| true),
        Mode::Selfcheck => suite::selfcheck(&opts),
        Mode::UnpinnedChild(allowed) => run::unpinned_child_main(&opts, &allowed).map(|()| true),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(usage) if usage.is_empty() => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("numa-perf: {e}");
            ExitCode::from(2)
        }
    }
}
