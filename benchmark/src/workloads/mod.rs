//! The six workloads. Names are fixed: later issues cite them.
//!
//! Each workload is prepared once per set-up pass from `--seed` and
//! then repeated; one repetition runs every cell of the workload
//! through the crates' public functions, keeps every correctness check
//! the cell has, and returns the cells' [`RunReport`]s. Everything
//! reported on the virtual clock is computed from those reports, so it
//! repeats exactly; host time is taken around the repetition by the
//! caller.

mod fault_storm;
mod observed;
mod paper_bench;
mod serve;
mod stream;

pub use serve::BUSIEST_CELL as BUSIEST_SERVING_CELL;

use crate::span::Tracer;
use ace_sim::{RunReport, SimConfig};
use numa_apps::App;
use numa_core::CachePolicy;
use numa_metrics::SharedSink;
use std::hash::{DefaultHasher, Hasher};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One workload: its fixed name and why it exists (the sentence
/// `BENCHMARK.json` carries).
pub struct Spec {
    /// Fixed name.
    pub name: &'static str,
    /// Which layer does the work.
    pub why: &'static str,
}

/// The workloads, in the order `--all` runs them.
pub const SPECS: [Spec; 6] = [
    Spec {
        name: "paper_bench",
        why: "Grid::paper_bench through Sweep::run: 7-CPU cells, so the sim engine rendezvous does most of the work and the protocol layers almost none",
    },
    Spec {
        name: "stream_1cpu",
        why: "one CPU, all-local, no second runnable thread: the reference path alone (ThreadCtx TLB, charge_run, charge_access_n, app closures); bypasses the engine",
    },
    Spec {
        name: "fault_storm",
        why: "one simulated thread at a time sweeping 256 shared pages: protocol-bound (fault, policy, NumaManager::request, copy, MMU) with the engine idle; the movelimit cell bypasses it",
    },
    Spec {
        name: "serve_idle",
        why: "KvServe at 500 and 2000 req/s: over 99% of virtual time is wait_until, so host time tracks virtual makespan, not work",
    },
    Spec {
        name: "serve_sat",
        why: "KvServe at 512k and 2M req/s: the same engine and app layers with workers always busy, so the request path does the work",
    },
    Spec {
        name: "observed",
        why: "three apps under Telemetry events, the trace Recorder plus replay, and fastpath off: the per-reference observer path the fast path bypasses",
    },
];

/// Pass/fail bookkeeping: every cell and every extra check is one
/// attempt; a failure keeps the label of what failed.
#[derive(Clone, Debug, Default)]
pub struct Checks {
    /// Cells and checks attempted.
    pub attempted: u64,
    /// One line per failure, starting with the cell or check label.
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one attempt; records `label: reason` if it failed.
    pub fn check(&mut self, label: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = outcome {
            self.failures.push(format!("{label}: {reason}"));
        }
    }

    /// Folds another tally into this one.
    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
    }
}

/// What the aggregation needs to know about a cell besides its report.
#[derive(Clone, Debug)]
pub struct Tag {
    /// Cell label, unique within the workload.
    pub label: String,
    /// Whether the cell runs a placement policy that can use local
    /// memory for shared data (it then counts toward `virt_alpha`).
    pub numa: bool,
    /// Whether every reference of the cell took the per-reference path
    /// (an observer attached, or the fast path switched off).
    pub per_ref: bool,
}

/// One cell: which, how long it took on the host, and what came of it
/// — a `RunReport` once it is filed, the runner's `Result` before.
#[derive(Clone, Debug)]
pub struct Cell<R = RunReport> {
    /// Which cell.
    pub tag: Tag,
    /// Host time of the cell; zero where the farm ran it untimed.
    pub wall_ns: u64,
    /// What the simulator measured.
    pub report: R,
}

/// One cell as its runner hands it back.
pub type Ran = Cell<Result<RunReport, String>>;

/// One repetition's results.
#[derive(Debug, Default)]
pub struct Rep {
    /// Finished cells, in the workload's canonical order.
    pub cells: Vec<Cell>,
    /// Cells and checks of this repetition.
    pub checks: Checks,
    /// `model_err` where the workload solves the paper's model.
    pub model_err: Option<f64>,
    /// Events the workload's own `Telemetry` sinks saw.
    pub events_seen: u64,
    /// Hash of every byte-exact output the repetition produced beyond
    /// the reports (the sweep document, replay costs): two repetitions
    /// of one run must agree on it.
    pub digest: DefaultHasher,
}

impl Rep {
    /// Files one cell: a finished report joins `cells`, an error
    /// becomes a labelled failure; either way it is one attempt.
    pub fn file(&mut self, ran: Ran) {
        let Cell {
            tag,
            wall_ns,
            report,
        } = ran;
        match report {
            Ok(report) => {
                self.checks.check(&tag.label, Ok(()));
                self.cells.push(Cell {
                    tag,
                    wall_ns,
                    report,
                });
            }
            Err(e) => self.checks.check(&tag.label, Err(e)),
        }
    }

    /// Mixes `bytes` into the repetition's digest.
    pub fn digest(&mut self, bytes: &[u8]) {
        self.digest.write(bytes);
    }
}

/// A prepared workload.
pub trait Workload {
    /// Runs every cell once. Spans go to `t`; when `sink` is given it is
    /// attached to every cell through `SimConfig::events`.
    fn rep(&self, t: &mut Tracer, sink: Option<&SharedSink>) -> Rep;

    /// What `--seed` turned into, in one line, for the report.
    fn inputs(&self) -> String;
}

/// Generates `name`'s inputs from `seed`.
pub fn prepare(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "paper_bench" => Box::new(paper_bench::PaperBench),
        "stream_1cpu" => Box::new(stream::Stream::new(seed)?),
        "fault_storm" => Box::new(fault_storm::FaultStorm::new(seed)),
        "serve_idle" => Box::new(serve::Serve::idle(seed)),
        "serve_sat" => Box::new(serve::Serve::saturated(seed)),
        "observed" => Box::new(observed::Observed::new(seed)),
        _ => {
            let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
            return Err(format!(
                "unknown workload {name:?}; the workloads are {}",
                names.join(", ")
            ));
        }
    })
}

/// The label of the cell being run, for the panic hook: a simulated
/// thread that panics takes the harness down, and the message should
/// say where.
pub static CURRENT_CELL: Mutex<String> = Mutex::new(String::new());

fn enter_cell(label: &str) {
    if let Ok(mut c) = CURRENT_CELL.lock() {
        label.clone_into(&mut c);
    }
}

/// `cfg` with `sink` attached, if there is one.
fn with_sink(cfg: SimConfig, sink: Option<&SharedSink>) -> SimConfig {
    match sink {
        Some(s) => cfg.events(Arc::clone(s)),
        None => cfg,
    }
}

/// Runs `body` as the cell `tag`: under a `cell` span, timed, and with
/// the panic hook told where it is.
fn cell(
    t: &mut Tracer,
    tag: Tag,
    body: impl FnOnce(&mut Tracer, &str) -> Result<RunReport, String>,
) -> Ran {
    enter_cell(&tag.label);
    let started = Instant::now();
    let report = t.span("cell", &tag.label, |t| body(t, &tag.label));
    let wall_ns = started.elapsed().as_nanos() as u64;
    Cell {
        tag,
        wall_ns,
        report,
    }
}

/// Runs `app` as one cell through `run_one`, keeping the app's own
/// verification and adding the kernel's consistency audit and, for a
/// serving app, the admission ledger.
fn app_cell(
    t: &mut Tracer,
    tag: Tag,
    cfg: SimConfig,
    policy: Box<dyn CachePolicy>,
    app: &dyn App,
    workers: usize,
) -> Ran {
    cell(t, tag, |t, label| {
        let report = ace_sim::run_one(cfg, policy, |sim| {
            t.span("App::run", label, |_| app.run(sim, workers))?;
            t.span("check_consistency", label, |_| {
                sim.with_kernel(|k| k.check_consistency())
            })
        })?;
        match &report.serving {
            Some(s) if !s.ledger_balanced() => Err("admission ledger out of balance".to_string()),
            _ => Ok(report),
        }
    })
}

/// How [`in_seeded_order`]'s order reads in the report.
fn order_text(order: &[usize]) -> String {
    let order: Vec<String> = order.iter().map(usize::to_string).collect();
    format!("cells run in the order {}", order.join(" "))
}

/// The cells of a harness-built workload run in a seeded order that is
/// the same in every repetition; results are filed back in canonical
/// order so nothing downstream depends on it.
fn in_seeded_order<T>(order: &[usize], mut run: impl FnMut(usize) -> T) -> Vec<T> {
    let mut slots: Vec<Option<T>> = order.iter().map(|_| None).collect();
    for &i in order {
        slots[i] = Some(run(i));
    }
    slots
        .into_iter()
        .map(|s| s.expect("a permutation fills every slot"))
        .collect()
}
