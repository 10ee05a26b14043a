//! `paper_bench`: the repo's headline reproduction, exactly as
//! `numa-lab run --grid paper-bench --jobs 1` produces it.

use super::{Cell, Rep, Tag, Workload};
use crate::span::Tracer;
use numa_lab::{run_jobs_with, Grid, JobSpec, LabError, Placement, Sweep};
use numa_metrics::paper::PAPER_TABLE3;
use numa_metrics::SharedSink;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The workload has no inputs of its own: the grid is the input.
pub struct PaperBench;

/// Farm width. One simulated thread runs at a time and the harness owns
/// one core, so a second worker could only add handoffs.
const FARM_WORKERS: usize = 1;

/// Start and end of each `JobSpec::run`, by job id, as the farm worker
/// saw them.
type CellTimes = Arc<Mutex<Vec<(usize, Instant, Instant)>>>;

/// Runs the grid. Untraced, this is the production call and nothing
/// else. Traced, the same pipeline is spelled out — `Grid::jobs`, the
/// farm, `JobSpec::run` — so each step gets a span, with a wrapper
/// around `JobSpec::run` that times the cell (and, when `sink` is
/// given, runs the cell's healthy path with the sink attached, which
/// `JobSpec::run` has no parameter for).
fn run_grid(
    t: &mut Tracer,
    sink: Option<&SharedSink>,
    grid: Grid,
) -> Result<(Sweep, Vec<u64>), LabError> {
    if !t.is_on() && sink.is_none() {
        let sweep = Sweep::run(grid, FARM_WORKERS, None)?;
        let walls = vec![0; sweep.results.len()];
        return Ok((sweep, walls));
    }
    let jobs = t.span("Grid::jobs", "", |_| grid.jobs());
    let times: CellTimes = Arc::default();
    let (worker_times, worker_sink) = (Arc::clone(&times), sink.cloned());
    let runner = move |spec: &JobSpec| {
        let started = Instant::now();
        let report = match &worker_sink {
            None => spec.run(),
            Some(sink) => {
                let app = spec.make_app();
                let cfg = spec.sim_config().events(Arc::clone(sink));
                ace_sim::run_one(cfg, spec.policy(), |sim| app.run(sim, spec.workers))
                    .map_err(|e| format!("{}: {e}", spec.label()))
            }
        };
        worker_times
            .lock()
            .expect("cell times poisoned")
            .push((spec.id, started, Instant::now()));
        report
    };
    let results = t.span("run_jobs_with", "", |t| {
        let results = run_jobs_with(&jobs, FARM_WORKERS, None, runner)?;
        for &(id, started, ended) in times.lock().expect("cell times poisoned").iter() {
            t.record("JobSpec::run", &jobs[id].label(), started, ended);
        }
        Ok::<_, LabError>(results)
    })?;
    let mut walls = vec![0; jobs.len()];
    for &(id, started, ended) in times.lock().expect("cell times poisoned").iter() {
        walls[id] = ended.duration_since(started).as_nanos() as u64;
    }
    Ok((Sweep { grid, results }, walls))
}

/// Max over apps of |β_sim − β_paper| and |γ_sim − γ_paper| against
/// the paper's Table 3.
fn model_err(sweep: &Sweep) -> f64 {
    sweep
        .model_rows()
        .iter()
        .filter_map(|row| {
            let paper = PAPER_TABLE3.iter().find(|p| p.0 == row.spec.app.name())?;
            Some((row.beta - paper.5).abs().max((row.gamma - paper.6).abs()))
        })
        .fold(0.0, f64::max)
}

impl Workload for PaperBench {
    fn rep(&self, t: &mut Tracer, sink: Option<&SharedSink>) -> Rep {
        let mut rep = Rep::default();
        let grid = Grid::paper_bench();
        let n_cells = grid.jobs().len() as u64;
        let (sweep, walls) = match run_grid(t, sink, grid) {
            Ok(done) => done,
            Err(e) => {
                // The farm reports the first failing cell and drops the
                // rest, so the whole grid counts as attempted.
                rep.checks.attempted += n_cells - 1;
                rep.checks.check("paper_bench", Err(e.to_string()));
                return rep;
            }
        };
        let json = t.span("Sweep::to_json", "", |_| sweep.to_json());
        let text = t.span("Json::to_string_flat", "", |_| json.to_string_flat());
        rep.checks
            .check("paper_bench document", numa_metrics::validate(&text));
        rep.digest(text.as_bytes());
        rep.model_err = Some(model_err(&sweep));
        for (r, wall_ns) in sweep.results.into_iter().zip(walls) {
            rep.file(Cell {
                tag: Tag {
                    label: r.spec.label(),
                    numa: r.spec.placement == Placement::Numa,
                    per_ref: sink.is_some(),
                },
                wall_ns,
                report: Ok(r.report),
            });
        }
        rep
    }

    fn inputs(&self) -> String {
        "the grid is the input; the seed changes nothing".to_string()
    }
}
