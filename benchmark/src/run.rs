//! One workload run: pin, set up, repeat, (trace,) report.
//!
//! One process runs one workload. It sets up [`SETUP_PASSES`] times —
//! each pass regenerates the inputs from the seed, re-checks the cheap
//! committed baselines and runs one warm-up repetition — then repeats
//! the workload until `--seconds` have passed. Host metrics are medians
//! over the repetitions; everything on the virtual clock must come out
//! identical in every one of them, and that is checked.

use crate::counts::{ratio, Counts};
use crate::metrics::Values;
use crate::pin::{self, Pinned};
use crate::procfs::{self, CpuTicks};
use crate::span::{self, Span, Tracer};
use crate::stats::{median, Summary};
use crate::workloads::{self, Cell, Checks, Workload};
use crate::{micro, report};
use numa_lab::{Grid, Sweep};
use numa_metrics::{Event, EventKind, EventSink, Json, SharedSink};
use std::collections::{BTreeMap, HashMap};
use std::mem::{discriminant, Discriminant};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Set-up passes of an untraced run; `setup_s` is their median.
const SETUP_PASSES: usize = 3;
/// Fewest timed repetitions, however long one takes.
const MIN_REPS: usize = 3;

/// What to run.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Seed of everything the harness generates.
    pub seed: u64,
    /// How long to measure.
    pub seconds: u64,
    /// Whether to add the traced repetitions and the microcells.
    pub trace: bool,
    /// CPU to pin to; the lowest allowed one when `None`.
    pub cpu: Option<usize>,
}

type GridPreset = fn() -> Grid;

/// The committed baselines cheap enough to regenerate in every set-up
/// pass (about 0.3 s together), and the grids behind them.
const BASELINES: [(&str, GridPreset); 4] = [
    ("BENCH_sweep.json", Grid::paper),
    ("BENCH_smoke.json", Grid::smoke),
    ("BENCH_topology.json", Grid::topology),
    ("BENCH_pressure.json", Grid::pressure),
];

/// The repository root: the working directory, or its parent when the
/// harness is started from `benchmark/`.
pub fn repo_root() -> Result<PathBuf, String> {
    let cwd = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
    [cwd.clone(), cwd.join("..")]
        .into_iter()
        .find(|d| d.join("crates/lab/Cargo.toml").is_file() && d.join(BASELINES[0].0).is_file())
        .and_then(|d| d.canonicalize().ok())
        .ok_or(format!(
            "{} is not the repository root (or its benchmark/ directory)",
            cwd.display()
        ))
}

/// Regenerates each cheap baseline and compares it byte for byte with
/// the committed file. One check each.
fn check_baselines(root: &Path, checks: &mut Checks) {
    for (file, grid) in BASELINES {
        let outcome = Sweep::run(grid(), 1, None)
            .map_err(|e| e.to_string())
            .and_then(|sweep| {
                let committed =
                    std::fs::read_to_string(root.join(file)).map_err(|e| e.to_string())?;
                if sweep.to_json().to_string_flat() == committed {
                    Ok(())
                } else {
                    Err("regenerated document differs from the committed bytes".to_string())
                }
            });
        checks.check(file, outcome);
    }
}

/// Counts events by kind where they happen. Keyed by the variant, with
/// one event of each kept to name it by, so a kind added to the stream
/// later is counted under its own name too.
#[derive(Default)]
struct EventCounts(HashMap<Discriminant<EventKind>, (EventKind, u64)>);

impl EventSink for EventCounts {
    fn record(&mut self, event: &Event) {
        let kind = event.kind;
        self.0.entry(discriminant(&kind)).or_insert((kind, 0)).1 += 1;
    }
}

impl EventCounts {
    /// The counts by variant name (the leading identifier of the
    /// variant's `Debug` form).
    fn by_name(&self) -> BTreeMap<String, u64> {
        let name = |kind: &EventKind| {
            let debug = format!("{kind:?}");
            let end = debug
                .find(|c: char| !c.is_alphanumeric())
                .unwrap_or(debug.len());
            debug[..end].to_string()
        };
        self.0.values().map(|(kind, n)| (name(kind), *n)).collect()
    }
}

/// Everything the traced part of a run adds.
pub struct Traced {
    /// Spans of the traced repetition.
    pub spans: Vec<Span>,
    /// Host seconds of the traced repetition.
    pub span_wall_s: f64,
    /// Cells of the traced repetition (they carry per-cell host time).
    pub cells: Vec<Cell>,
    /// Events by kind, from the repetition run with the counting sink.
    pub events: BTreeMap<String, u64>,
    /// Host seconds of that repetition.
    pub counted_wall_s: f64,
    /// Microcell unit costs and the metrics derived from them.
    pub layers: Values,
    /// Where the trace-event file went.
    pub trace_file: PathBuf,
}

/// The finished run, ready to print.
pub struct Outcome {
    /// What was asked for.
    pub opts: Opts,
    /// What the seed turned into.
    pub inputs: String,
    /// Where it ran.
    pub pinned: Pinned,
    /// Host seconds of each set-up pass.
    pub setup_s: Vec<f64>,
    /// Host seconds of each timed repetition.
    pub walls: Vec<f64>,
    /// CPU ticks over the timed repetitions.
    pub ticks: CpuTicks,
    /// `VmHWM` after the timed repetitions, in kB.
    pub vm_hwm_kb: u64,
    /// What every repetition measured on the virtual clock.
    pub counts: Counts,
    /// Cells and checks, over set-up and every repetition.
    pub checks: Checks,
    /// The traced part, with `--trace 1`.
    pub traced: Option<Traced>,
}

impl Outcome {
    /// Median and quartiles of the repetition times.
    pub fn wall(&self) -> Summary {
        Summary::of(&self.walls)
    }

    /// Per host second of the median repetition.
    pub fn per_s(&self, count: u64) -> f64 {
        count as f64 / self.wall().median
    }

    /// Failed ÷ attempted cells and checks.
    pub fn fail_frac(&self) -> f64 {
        ratio(self.checks.failures.len() as u64, self.checks.attempted)
    }
}

/// One repetition, timed, with its virtual-clock sums checked against
/// the first repetition's.
fn repeat(
    w: &dyn Workload,
    t: &mut Tracer,
    sink: Option<&SharedSink>,
    what: &str,
    reference: &mut Option<Counts>,
    checks: &mut Checks,
) -> (f64, Vec<Cell>) {
    let started = Instant::now();
    let rep = w.rep(t, sink);
    let wall_s = started.elapsed().as_secs_f64();
    let counts = Counts::of(&rep);
    checks.absorb(rep.checks);
    // With a sink attached every cell takes the per-reference path and
    // `Telemetry` is teed, so only the clocks and counters the observer
    // must not disturb are compared.
    let same = match reference {
        None => true,
        Some(first) if sink.is_some() => first.observable() == counts.observable(),
        Some(first) => *first == counts,
    };
    let outcome = if same {
        Ok(())
    } else {
        Err("virtual-clock results differ from the first repetition".into())
    };
    checks.check(&format!("{what} repeats exactly"), outcome);
    reference.get_or_insert(counts);
    (wall_s, rep.cells)
}

/// Runs the workload.
pub fn run(opts: &Opts, process_start: Instant) -> Result<Outcome, String> {
    let pinned = pin::pin_to_one(opts.cpu)?;
    let root = repo_root()?;
    let mut checks = Checks::default();
    let mut reference = None;

    let passes = if opts.trace { 1 } else { SETUP_PASSES };
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for pass in 0..passes {
        // The first pass also owns whatever happened since the process
        // started (argument parsing, pinning).
        let started = if pass == 0 {
            process_start
        } else {
            Instant::now()
        };
        check_baselines(&root, &mut checks);
        let w = workloads::prepare(&opts.workload, opts.seed)?;
        repeat(
            w.as_ref(),
            &mut Tracer::off(),
            None,
            "warm-up",
            &mut reference,
            &mut checks,
        );
        setup_s.push(started.elapsed().as_secs_f64());
        prepared = Some(w);
    }
    let w = prepared.expect("at least one set-up pass");

    // A traced run spends half its time here and the rest tracing.
    let budget = Duration::from_secs(if opts.trace {
        opts.seconds.div_ceil(2)
    } else {
        opts.seconds
    });
    let ticks_before = procfs::cpu_ticks()?;
    let timed = Instant::now();
    let mut walls = Vec::new();
    while walls.len() < MIN_REPS || timed.elapsed() < budget {
        let what = format!("repetition {}", walls.len() + 1);
        let (wall_s, _) = repeat(
            w.as_ref(),
            &mut Tracer::off(),
            None,
            &what,
            &mut reference,
            &mut checks,
        );
        walls.push(wall_s);
    }
    let ticks = procfs::cpu_ticks()?.since(ticks_before);
    let vm_hwm_kb = procfs::status()?.vm_hwm_kb;
    let counts = reference.clone().expect("the warm-up set the reference");

    let mut outcome = Outcome {
        opts: opts.clone(),
        inputs: w.inputs(),
        pinned,
        setup_s,
        walls,
        ticks,
        vm_hwm_kb,
        counts,
        checks,
        traced: None,
    };
    if opts.trace {
        outcome.traced = Some(trace(w.as_ref(), &root, &mut outcome, &mut reference)?);
    }
    Ok(outcome)
}

/// The traced part: one repetition under spans, one under the counting
/// sink, the microcells, and the unpinned child.
fn trace(
    w: &dyn Workload,
    root: &Path,
    o: &mut Outcome,
    reference: &mut Option<Counts>,
) -> Result<Traced, String> {
    let workload = o.opts.workload.as_str();
    let mut tracer = Tracer::on();
    let (span_wall_s, cells) = tracer.span(workload, "", |t| {
        repeat(w, t, None, "traced repetition", reference, &mut o.checks)
    });
    let spans = tracer.spans().to_vec();
    let (self_ns, root_ns) = (
        span::self_times(&spans).iter().sum::<u64>(),
        span::root_ns(&spans),
    );
    let gap = self_ns.abs_diff(root_ns) as f64 / root_ns.max(1) as f64;
    let sums = if gap <= 0.01 {
        Ok(())
    } else {
        Err(format!("off by {:.2} %", gap * 100.0))
    };
    o.checks.check("span self times sum to the root span", sums);

    let counting = Arc::new(Mutex::new(EventCounts::default()));
    let sink: SharedSink = counting.clone();
    let (counted_wall_s, _) = repeat(
        w,
        &mut Tracer::off(),
        Some(&sink),
        "counted repetition",
        reference,
        &mut o.checks,
    );
    let events = counting.lock().expect("event counts poisoned").by_name();
    // The manager reports one policy decision per request, where the
    // request happens; the run report counts the same thing at the end.
    let decided = events.get("PolicyDecision").copied().unwrap_or(0);
    let agree = if decided == o.counts.requests {
        Ok(())
    } else {
        Err(format!(
            "{decided} PolicyDecision events, {} requests reported",
            o.counts.requests
        ))
    };
    o.checks
        .check("event counts agree with the run report", agree);

    let out_dir = root.join("benchmark/out");
    let mut layers = Values::default();
    for (name, value) in micro::run_all(root, &out_dir)? {
        layers.set(name, value);
    }
    let unpinned_wall_s = unpinned_child(&o.opts, &o.pinned)?;
    derive_layers(&mut layers, o, &spans, &cells, span_wall_s, unpinned_wall_s)?;

    let meta = Json::obj()
        .field("workload", workload)
        .field("seed", o.opts.seed)
        .field("cpu", o.pinned.cpu)
        .field("wall_s_untraced_median", o.wall().median)
        .field("wall_s_traced", span_wall_s)
        .field("self_time_sum_ns", self_ns)
        .field("root_ns", root_ns)
        .field(
            "events",
            Json::Obj(
                events
                    .iter()
                    .map(|(k, &v)| (k.clone(), Json::from(v)))
                    .collect(),
            ),
        );
    let text = span::chrome_trace(workload, &spans, meta).to_string_flat();
    o.checks
        .check("trace-event document", numa_metrics::validate(&text));
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let trace_file = out_dir.join(format!("trace-{workload}.json"));
    std::fs::write(&trace_file, text)
        .map_err(|e| format!("cannot write {}: {e}", trace_file.display()))?;

    Ok(Traced {
        spans,
        span_wall_s,
        cells,
        events,
        counted_wall_s,
        layers,
        trace_file,
    })
}

/// One repetition of this workload in a child process that starts by
/// widening its mask back to what the harness was given — the only
/// unpinned code path. The child is waited for.
fn unpinned_child(opts: &Opts, pinned: &Pinned) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("no path to this executable: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            &opts.workload,
            "--seed",
            &opts.seed.to_string(),
        ])
        .args(["--unpinned-child", &pinned.allowed_before])
        .output()
        .map_err(|e| format!("cannot start the unpinned child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().parse::<f64>() {
        Ok(wall_s) if out.status.success() => Ok(wall_s),
        _ => Err(format!(
            "the unpinned child failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

/// The child's side of [`unpinned_child`]: one repetition, no warm-up,
/// wall seconds on standard output.
pub fn unpinned_child_main(opts: &Opts, allowed: &str) -> Result<(), String> {
    pin::unpin_to(allowed)?;
    let w = workloads::prepare(&opts.workload, opts.seed)?;
    let started = Instant::now();
    let rep = w.rep(&mut Tracer::off(), None);
    let wall_s = started.elapsed().as_secs_f64();
    match rep.checks.failures.first() {
        Some(failure) => Err(failure.clone()),
        None => {
            println!("{wall_s}");
            Ok(())
        }
    }
}

/// Fills in the per-layer metrics that are counts, or are derived from
/// counts and microcell unit costs. The in-cell split is an
/// **estimate**: there are no spans inside a cell yet, so a layer's
/// busy time is its deterministic event count times the unit cost its
/// microcell measured from outside, and what those do not explain is
/// attributed to the engine.
fn derive_layers(
    v: &mut Values,
    o: &Outcome,
    spans: &[Span],
    cells: &[Cell],
    span_wall_s: f64,
    unpinned_wall_s: f64,
) -> Result<(), String> {
    let c = &o.counts;
    let wall_ns = o.wall().median * 1e9;
    v.set("ace.bus_bytes", c.bus_bytes as f64);
    v.set("core.requests", c.requests as f64);
    v.set("core.page_copies", c.page_copies as f64);
    v.set("core.reclaims", c.reclaims as f64);
    v.set("core.pins", c.pins as f64);
    v.set("core.recovery_actions", c.recovery_actions as f64);
    v.set("core.copies_per_request", ratio(c.page_copies, c.requests));
    v.set("sim.windows", c.windows as f64);
    v.set("sim.wall_per_window_ns", wall_ns / c.windows.max(1) as f64);
    v.set("metrics.events_seen", c.events_seen as f64);

    // Requests by what they had to do. A reclaiming request is a fresh
    // or migrating one that evicted a victim first, so only the extra
    // over a fresh request is charged per reclaim; where faults were
    // injected every page copy also pays for its checksums.
    let other = c
        .requests
        .saturating_sub(c.fresh + c.replications + c.migrations);
    let reclaim_extra =
        (v.need("core.request_reclaim_ns")? - v.need("core.request_fresh_ns")?).max(0.0);
    let core_ns = c.fresh as f64 * v.need("core.request_fresh_ns")?
        + c.replications as f64 * v.need("core.request_replicate_ns")?
        + c.migrations as f64 * v.need("core.request_migrate_ns")?
        + other as f64 * v.need("core.request_global_ns")?
        + c.reclaims as f64 * reclaim_extra
        + c.checked_copies as f64 * v.need("core.copy_check_ns")?;
    v.set("core.est_busy_frac", core_ns / wall_ns);
    // References at the cheapest rate their path allows (a batched word
    // on the fast path, one `access_step` round otherwise): what is
    // left over is engine, scalar-path and app-closure time together,
    // and `stream_1cpu`, which has no engine work, calibrates the rest.
    let ref_ns = c.refs_per_ref as f64 * v.need("sim.read_u32_slow_ns")?
        + (c.refs - c.refs_per_ref) as f64 * v.need("sim.read_run_word_ns")?;
    v.set(
        "sim.engine_residual_frac",
        (1.0 - (core_ns + ref_ns) / wall_ns).clamp(0.0, 1.0),
    );
    v.set("sim.unpinned_wall_ratio", unpinned_wall_s / o.wall().median);

    let busiest = cells
        .iter()
        .find(|cell| cell.tag.label == workloads::BUSIEST_SERVING_CELL);
    let per_request = busiest.and_then(|cell| {
        let requests = cell.report.serving.as_ref()?.requests;
        Some(cell.wall_ns as f64 / requests.max(1) as f64)
    });
    v.set("apps.kvserve_req_ns", per_request.unwrap_or(0.0));

    // Pipeline time outside the cells, over pipeline time, within the
    // one traced repetition; defined where the lab pipeline runs.
    let in_cells: u64 = spans
        .iter()
        .filter(|s| s.name == "JobSpec::run")
        .map(Span::duration_ns)
        .sum();
    let root_ns = span::root_ns(spans);
    v.set(
        "lab.overhead_frac",
        if in_cells == 0 {
            0.0
        } else {
            1.0 - in_cells as f64 / root_ns as f64
        },
    );

    v.set("reqs_per_s", o.per_s(c.kv_requests));
    v.set("host_sys_frac", o.ticks.sys_frac());
    v.set("fail_frac", o.fail_frac());
    v.set("virt_p50_us", c.p50_ns as f64 / 1e3);
    v.set("virt_p99_us", c.p99_ns as f64 / 1e3);
    v.set("virt_goodput_frac", c.goodput_frac());
    v.set("model_err", c.model_err.unwrap_or(0.0));
    v.set("trace_overhead_ratio", span_wall_s / o.wall().median);
    Ok(())
}

/// The end-to-end values of the result line.
pub fn end_to_end(o: &Outcome) -> Values {
    let c = &o.counts;
    let mut v = Values::default();
    v.set("wall_s", o.wall().median);
    v.set("refs_per_s", o.per_s(c.refs));
    v.set("faults_per_s", o.per_s(c.requests));
    v.set("host_user_frac", 1.0 - o.ticks.sys_frac());
    v.set("peak_rss_mb", o.vm_hwm_kb as f64 / 1024.0);
    v.set("setup_s", median(&o.setup_s));
    v.set("virt_user_s", c.user_ns as f64 / 1e9);
    v.set("virt_sys_s", c.sys_ns as f64 / 1e9);
    v.set("virt_alpha", c.alpha());
    v
}

/// Prints the report and, last, the result line. Returns whether every
/// cell and check passed.
pub fn finish(o: &Outcome) -> Result<bool, String> {
    report::print(o);
    println!("{}", report::result_line(o)?);
    Ok(o.checks.failures.is_empty())
}
