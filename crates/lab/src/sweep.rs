//! Aggregation: a finished grid rendered as one deterministic report.
//!
//! The sweep document is the lab's unit of trajectory: `numa-lab run`
//! writes it as `BENCH_sweep.json`, CI regenerates it and requires the
//! bytes to match, and the regression gate diffs a fresh run against
//! the committed copy with per-metric tolerances.
//!
//! Besides the raw per-cell measurements, the report solves the
//! paper's analytic model (equations 4 and 5) for every `numa` cell
//! whose `local` and `global` companions are in the same grid, and
//! embeds the paper's published α/β/γ next to each solved row. These
//! rows are the reproduction's Table 3 and Table 4: `numa-lab table`
//! prints them, and nothing else solves the model.

use crate::checkpoint::Checkpoint;
use crate::farm::{self, JobResult, LabError};
use crate::grid::{Grid, JobSpec, Placement};
use numa_metrics::paper::{paper_alpha, paper_beta_gamma};
use numa_metrics::{Json, Model, ServingReport, SharedSink};
use std::sync::{Mutex, PoisonError};
use Class::{Bytes, Count, Factor, Identity, Time};

/// Schema tag of the sweep document.
pub const SCHEMA: &str = "numa-repro/lab-sweep/v1";

/// A grid together with its results, in grid order.
#[derive(Clone, Debug)]
pub struct Sweep {
    /// The grid that ran.
    pub grid: Grid,
    /// One result per job, in grid order.
    pub results: Vec<JobResult>,
}

/// One solved model row: a row of Table 3, and of Table 4 through its
/// system times.
#[derive(Clone, Debug)]
pub struct ModelRow {
    /// The `numa` cell the row was solved for.
    pub spec: JobSpec,
    /// T_local of the matching `local` cell (seconds).
    pub t_local: f64,
    /// T_global of the matching `global` cell (seconds).
    pub t_global: f64,
    /// T_numa of the cell itself (seconds).
    pub t_numa: f64,
    /// Model alpha; `None` when the app is placement-insensitive.
    pub alpha: Option<f64>,
    /// Model beta.
    pub beta: f64,
    /// Gamma.
    pub gamma: f64,
    /// Ground-truth local-reference fraction of the `numa` run.
    pub alpha_measured: f64,
    /// S_numa: system time of the cell itself (seconds).
    pub s_numa: f64,
    /// S_global: system time of the matching `global` cell (seconds).
    pub s_global: f64,
    /// The `numa` cell's serving report, when the cell is a serving
    /// workload: its latency tail is published next to the model
    /// columns.
    pub serving: Option<ServingReport>,
}

impl ModelRow {
    /// ΔS = S_numa − S_global: the system time NUMA management costs.
    pub fn delta_s(&self) -> f64 {
        self.s_numa - self.s_global
    }

    /// Table 4's overhead ΔS / T_numa, in percent; a negative ΔS costs
    /// nothing.
    pub fn sys_overhead_pct(&self) -> f64 {
        if self.t_numa == 0.0 {
            0.0
        } else {
            100.0 * self.delta_s().max(0.0) / self.t_numa
        }
    }
}

impl Sweep {
    /// Runs `grid` on `n_workers` farm threads.
    pub fn run(
        grid: Grid,
        n_workers: usize,
        progress: Option<&SharedSink>,
    ) -> Result<Sweep, LabError> {
        let results = farm::run_jobs(&grid.jobs(), n_workers, progress)?;
        Ok(Sweep { grid, results })
    }

    /// Resumable run: cells already in `checkpoint` are not re-run,
    /// every newly finished cell is recorded as it completes, and the
    /// merged results come back in grid order — so the final document
    /// is byte-identical to an uninterrupted run of the same grid.
    pub fn run_resumable(
        grid: Grid,
        n_workers: usize,
        progress: Option<&SharedSink>,
        checkpoint: &mut Checkpoint,
    ) -> Result<Sweep, String> {
        let jobs = grid.jobs();
        let done = checkpoint.completed_results(&jobs);
        let have: std::collections::HashSet<usize> = done.iter().map(|r| r.spec.id).collect();
        let todo: Vec<JobSpec> = jobs.iter().filter(|j| !have.contains(&j.id)).cloned().collect();
        // The checkpoint and the first I/O error it raised.
        let recorder = Mutex::new((checkpoint, None::<String>));
        let fresh = farm::run_jobs_with(&todo, n_workers, progress, |spec| {
            let report = spec.run()?;
            let mut guard = recorder.lock().unwrap_or_else(PoisonError::into_inner);
            let (checkpoint, io_err) = &mut *guard;
            if io_err.is_none() {
                *io_err = checkpoint.record(spec, &report).err();
            }
            Ok(report)
        })
        .map_err(|e| e.to_string())?;
        if let (_, Some(e)) = recorder.into_inner().unwrap_or_else(PoisonError::into_inner) {
            return Err(format!("sweep ran but checkpointing failed: {e}"));
        }
        let mut by_id: std::collections::BTreeMap<usize, JobResult> =
            done.into_iter().chain(fresh).map(|r| (r.spec.id, r)).collect();
        let results: Vec<JobResult> =
            jobs.iter().map(|j| by_id.remove(&j.id).expect("every job has a result")).collect();
        Ok(Sweep { grid, results })
    }

    /// Solves the analytic model for every `numa` cell whose `local` and
    /// `global` companions — the cells at the same coordinates on every
    /// axis those placements take — are in the grid.
    pub fn model_rows(&self) -> Vec<ModelRow> {
        let find = |placement: Placement, spec: &JobSpec| {
            let companion = spec.under(placement);
            self.results.iter().find(|r| r.spec.same_cell(&companion))
        };
        let mut rows = Vec::new();
        for result in &self.results {
            if result.spec.placement != Placement::Numa {
                continue;
            }
            let (Some(local), Some(global)) = (
                find(Placement::Local, &result.spec),
                find(Placement::Global, &result.spec),
            ) else {
                continue;
            };
            let (t_local, t_global, t_numa) = (
                local.report.user_secs(),
                global.report.user_secs(),
                result.report.user_secs(),
            );
            let (alpha, beta, gamma) =
                match Model::solve(t_global, t_numa, t_local, result.spec.app.g_over_l()) {
                    Ok(m) => (Some(m.alpha), m.beta, m.gamma),
                    Err(_) => (None, 0.0, if t_local > 0.0 { t_numa / t_local } else { 1.0 }),
                };
            rows.push(ModelRow {
                spec: result.spec.clone(),
                t_local,
                t_global,
                t_numa,
                alpha,
                beta,
                gamma,
                alpha_measured: result.report.alpha_measured(),
                s_numa: result.report.system_secs(),
                s_global: global.report.system_secs(),
                serving: result.report.serving.clone(),
            });
        }
        rows
    }

    /// The whole sweep as one deterministic JSON document.
    pub fn to_json(&self) -> Json {
        let jobs = self.results.iter().map(|r| leaves(r.spec.to_json(), JOB_LEAVES, r)).collect();
        let model = self
            .model_rows()
            .iter()
            .map(|m| leaves(m.spec.coordinates(Json::obj(), true), MODEL_LEAVES, m))
            .collect();
        Json::obj()
            .field("schema", SCHEMA)
            .field("grid", self.grid.to_json())
            .field("jobs", Json::Arr(jobs))
            .field("model", Json::Arr(model))
    }
}

/// How far a leaf may drift before the gate calls it a regression.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Class {
    /// A virtual time: relative slack.
    Time,
    /// A model factor (α, β, γ, measured α): a small absolute window,
    /// because α is meaningful near zero.
    Factor,
    /// A protocol counter: a relative band with a floor of a few events.
    Count,
    /// Bus traffic: relative slack.
    Bytes,
    /// Ids, coordinates, names, generated-request counts, paper
    /// constants: exact, a difference is a different experiment.
    Identity,
}

/// One metric leaf of a job or model row: its key, its gate class, and
/// its value — `None` when the row does not carry the leaf.
pub(crate) struct Leaf<T> {
    pub(crate) key: &'static str,
    pub(crate) class: Class,
    get: fn(&T) -> Option<Json>,
}

const fn leaf<T>(key: &'static str, class: Class, get: fn(&T) -> Option<Json>) -> Leaf<T> {
    Leaf { key, class, get }
}

fn leaves<T>(row: Json, table: &[Leaf<T>], of: &T) -> Json {
    table.iter().fold(row, |row, l| match (l.get)(of) {
        Some(v) => row.field(l.key, v),
        None => row,
    })
}

/// `v` on cells that sweep the axis behind `set`. The *spec* decides,
/// not the value, so the column set is uniform across a sweep of that
/// axis and every other document keeps its exact bytes.
fn on<A>(set: Option<A>, v: u64) -> Option<Json> {
    set.map(|_| v.into())
}

fn serving(r: &JobResult, v: fn(&ServingReport) -> u64) -> Option<Json> {
    r.report.serving.as_ref().map(|s| v(s).into())
}

/// Only on cells that engage an overload knob.
fn limited(r: &JobResult, v: fn(&ServingReport) -> u64) -> Option<Json> {
    r.report.serving.as_ref().filter(|s| s.limited).map(|s| v(s).into())
}

/// The measurements appended to a job's coordinates, in row order.
pub(crate) const JOB_LEAVES: &[Leaf<JobResult>] = &[
    leaf("user_s", Time, |r| Some(r.report.user_secs().into())),
    leaf("system_s", Time, |r| Some(r.report.system_secs().into())),
    leaf("makespan_ns", Time, |r| Some(r.report.makespan().0.into())),
    leaf("alpha_measured", Factor, |r| Some(r.report.alpha_measured().into())),
    leaf("replications", Count, |r| Some(r.report.numa.replications.into())),
    leaf("migrations", Count, |r| Some(r.report.numa.migrations.into())),
    leaf("pins", Count, |r| Some(r.report.numa.pins.into())),
    leaf("syncs", Count, |r| Some(r.report.numa.syncs.into())),
    leaf("shootdowns", Count, |r| Some(r.report.numa.shootdowns.into())),
    leaf("recovery_actions", Count, |r| Some(r.report.numa.recovery_actions().into())),
    leaf("flush_pins", Count, |r| on(r.spec.policy, r.report.numa.flush_pins)),
    leaf("coherence_invalidations", Count, |r| {
        on(r.spec.policy, r.report.numa.coherence_invalidations)
    }),
    leaf("reclaims", Count, |r| on(r.spec.local_frames, r.report.numa.reclaims)),
    leaf("degradations", Count, |r| on(r.spec.local_frames, r.report.numa.degradations)),
    leaf("pressure_ticks", Count, |r| on(r.spec.local_frames, r.report.numa.pressure_ticks)),
    leaf("nodes_offlined", Count, |r| on(r.spec.offline_at, r.report.numa.nodes_offlined)),
    leaf("pages_rehomed", Count, |r| on(r.spec.offline_at, r.report.numa.pages_rehomed)),
    leaf("pages_lost", Count, |r| on(r.spec.offline_at, r.report.numa.pages_lost)),
    leaf("dead_node_fallbacks", Count, |r| on(r.spec.offline_at, r.report.numa.dead_node_fallbacks)),
    // A degraded chaos cell carries its typed reason (deterministic).
    leaf("degraded", Identity, |r| {
        r.spec.offline_at.and(r.report.degraded.as_deref()).map(Json::from)
    }),
    leaf("near_replications", Count, |r| on(r.spec.topology, r.report.numa.near_replications)),
    // The request ledger and the virtual-time latency tail: the report
    // decides (serving cells attach one). A generated-request delta is
    // a changed workload, not drift.
    leaf("requests_served", Identity, |r| serving(r, |s| s.requests)),
    leaf("gets", Identity, |r| serving(r, |s| s.gets)),
    leaf("puts", Identity, |r| serving(r, |s| s.puts)),
    leaf("p50_ns", Time, |r| serving(r, |s| s.latency.p50())),
    leaf("p95_ns", Time, |r| serving(r, |s| s.latency.p95())),
    leaf("p99_ns", Time, |r| serving(r, |s| s.latency.p99())),
    leaf("p999_ns", Time, |r| serving(r, |s| s.latency.p999())),
    // Admission outcomes hinge on virtual dequeue times, so a
    // cost-model shift moves them like any protocol counter.
    leaf("admitted", Count, |r| limited(r, |s| s.admitted)),
    leaf("shed_queue_full", Count, |r| limited(r, |s| s.shed_queue_full)),
    leaf("shed_deadline", Count, |r| limited(r, |s| s.shed_deadline)),
    leaf("shed_quota", Count, |r| limited(r, |s| s.shed_quota)),
    leaf("goodput_p50_ns", Time, |r| limited(r, |s| s.goodput.p50())),
    leaf("goodput_p95_ns", Time, |r| limited(r, |s| s.goodput.p95())),
    leaf("goodput_p99_ns", Time, |r| limited(r, |s| s.goodput.p99())),
    leaf("goodput_p999_ns", Time, |r| limited(r, |s| s.goodput.p999())),
    leaf("bus_bytes", Bytes, |r| Some(r.report.bus.total_bytes().into())),
];

/// The solved columns appended to a model row's coordinates: the
/// paper's published values ride beside ours, and serving rows carry
/// the tail of their `numa` cell.
pub(crate) const MODEL_LEAVES: &[Leaf<ModelRow>] = &[
    leaf("t_local_s", Time, |m| Some(m.t_local.into())),
    leaf("t_global_s", Time, |m| Some(m.t_global.into())),
    leaf("t_numa_s", Time, |m| Some(m.t_numa.into())),
    leaf("alpha", Factor, |m| Some(m.alpha.into())),
    leaf("beta", Factor, |m| Some(m.beta.into())),
    leaf("gamma", Factor, |m| Some(m.gamma.into())),
    leaf("alpha_measured", Factor, |m| Some(m.alpha_measured.into())),
    leaf("paper_alpha", Identity, |m| Some(paper_alpha(m.spec.app.name()).into())),
    leaf("paper_beta", Identity, |m| Some(paper_beta_gamma(m.spec.app.name()).0.into())),
    leaf("paper_gamma", Identity, |m| Some(paper_beta_gamma(m.spec.app.name()).1.into())),
    leaf("p50_ns", Time, |m| m.serving.as_ref().map(|s| s.latency.p50().into())),
    leaf("p95_ns", Time, |m| m.serving.as_ref().map(|s| s.latency.p95().into())),
    leaf("p99_ns", Time, |m| m.serving.as_ref().map(|s| s.latency.p99().into())),
    leaf("p999_ns", Time, |m| m.serving.as_ref().map(|s| s.latency.p999().into())),
];

/// The gate class of the leaf called `key`; anything that is not a
/// metric is an identity.
pub(crate) fn class_of(key: &str) -> Class {
    let job = JOB_LEAVES.iter().map(|l| (l.key, l.class));
    let model = MODEL_LEAVES.iter().map(|l| (l.key, l.class));
    job.chain(model).find(|&(k, _)| k == key).map_or(Identity, |(_, class)| class)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{AppId, PolicyAxis};
    use numa_apps::Scale;
    use numa_metrics::paper::PAPER_TABLE4;
    use numa_metrics::validate;

    #[test]
    fn smoke_sweep_solves_the_model_and_serializes() {
        let sweep = Sweep::run(Grid::smoke(), 2, None).unwrap();
        assert_eq!(sweep.results.len(), 6);
        let rows = sweep.model_rows();
        assert_eq!(rows.len(), 2, "one model row per app");
        for row in &rows {
            assert!(row.t_local > 0.0 && row.t_global > 0.0 && row.t_numa > 0.0);
            assert!(row.gamma > 0.0);
        }
        let text = sweep.to_json().to_string_flat();
        validate(&text).unwrap();
        assert!(text.contains("\"schema\":\"numa-repro/lab-sweep/v1\""));
        assert!(text.contains("\"model\":[{"));
        assert!(text.contains("\"paper_alpha\""));
    }

    #[test]
    fn model_companions_are_found_on_the_cell_s_own_machine_shape() {
        // The real `global` cells of two shapes have equal user times
        // (global access cost is uniform), so a companion taken from the
        // wrong shape would go unnoticed: fabricate results whose user
        // time encodes the cell instead.
        use crate::grid::TopologyAxis;
        use ace_machine::{BusStats, CpuTime, FaultStats, Ns};
        use ace_sim::{RefCounters, RunReport};
        let mut grid = Grid::topology();
        grid.apps.truncate(1);
        grid.placements = vec![Placement::Local, Placement::Global, Placement::Numa];
        let results: Vec<JobResult> = grid
            .jobs()
            .into_iter()
            .map(|spec| {
                let report = RunReport {
                    policy: spec.policy().name(),
                    cpu_times: vec![CpuTime { user: Ns(1_000_000 * (spec.id as u64 + 1)), system: Ns(0) }],
                    refs: RefCounters { local: 1, global: 1, remote: 0 },
                    numa: Default::default(),
                    bus: BusStats::default(),
                    faults: FaultStats::default(),
                    serving: None,
                    degraded: None,
                };
                JobResult { spec, report }
            })
            .collect();
        let sweep = Sweep { grid, results };
        let user_of = |placement, topology| {
            let r = sweep
                .results
                .iter()
                .find(|r| r.spec.placement == placement && r.spec.topology == topology)
                .expect("cell in grid");
            r.report.user_secs()
        };
        let rows = sweep.model_rows();
        let shapes = [Some(TopologyAxis::TwoSocket), Some(TopologyAxis::Mesh { nodes: 4 })];
        assert_eq!(rows.len(), shapes.len(), "one model row per shape");
        assert_ne!(user_of(Placement::Global, shapes[0]), user_of(Placement::Global, shapes[1]));
        for (row, shape) in rows.iter().zip(shapes) {
            assert_eq!(row.spec.topology, shape);
            assert_eq!(row.t_global, user_of(Placement::Global, shape), "{}", row.spec.label());
            assert_eq!(row.t_local, user_of(Placement::Local, shape), "{}", row.spec.label());
        }
    }

    #[test]
    fn grids_without_baselines_have_no_model_rows() {
        let grid = Grid { scale: Scale::Test, ..Grid::threshold() };
        let sweep = Sweep::run(grid, 2, None).unwrap();
        assert!(sweep.model_rows().is_empty());
        validate(&sweep.to_json().to_string_flat()).unwrap();
    }

    #[test]
    fn primes3_dominates_the_system_time_overhead() {
        // Table 4's signature result, over Table 4's applications: the
        // rapidly allocated sieve is copied local to local several times
        // per page before pinning.
        let rows = Sweep::run(Grid::paper(), 2, None).unwrap().model_rows();
        let overhead = |name| {
            let row = rows.iter().find(|r| r.spec.app.name() == name).expect("row per app");
            row.sys_overhead_pct()
        };
        let primes3 = overhead("Primes3");
        for (other, ..) in PAPER_TABLE4.iter().filter(|p| p.0 != "Primes3") {
            assert!(primes3 > overhead(other), "Primes3 {primes3:.1}% vs {other}");
        }
    }

    #[test]
    fn smaller_pages_reduce_false_sharing() {
        // Section 4.5: the naive Primes2's divisors share fewer pages
        // with its write-hot append region as the page shrinks.
        let grid = Grid { scale: Scale::Test, ..Grid::page_size() };
        let rows = Sweep::run(grid, 2, None).unwrap().model_rows();
        let alpha_at = |page_size| {
            let naive = |r: &&ModelRow| r.spec.app == AppId::Primes2Naive;
            let row = rows.iter().filter(naive).find(|r| r.spec.page_size == page_size);
            row.expect("naive row per page size").alpha_measured
        };
        assert!(alpha_at(64) > alpha_at(8192), "{} vs {}", alpha_at(64), alpha_at(8192));
    }

    #[test]
    fn pressure_cells_carry_pressure_counters() {
        let mut g = Grid::pressure();
        g.placements.truncate(1);
        g.fault_rates.truncate(1);
        g.local_frames = vec![4];
        let sweep = Sweep::run(g, 2, None).unwrap();
        let text = sweep.to_json().to_string_flat();
        validate(&text).unwrap();
        assert!(text.contains("\"reclaims\":"), "pressure cells report reclaims");
        assert!(text.contains("\"degradations\":"));
        assert!(text.contains("\"pressure_ticks\":"));
        let total: u64 = sweep.results.iter().map(|r| r.report.numa.reclaims).sum();
        assert!(total > 0, "4 local frames must force actual reclaim work");
    }

    #[test]
    fn serving_sweep_reports_the_latency_tail_next_to_the_model() {
        // A cut-down serving grid: one load point, all three placements
        // so the model solves.
        let mut g = Grid::serving();
        g.req_rates = vec![500];
        g.zipf_exponents = vec![1.0];
        g.tenant_counts = vec![1];
        let sweep = Sweep::run(g, 2, None).unwrap();
        // local + global + one numa cell per policy-axis value.
        assert_eq!(sweep.results.len(), 5);
        for r in &sweep.results {
            let s = r.report.serving.as_ref().expect("every serving cell attaches a report");
            assert_eq!(s.requests, s.gets + s.puts);
            assert!(s.latency.p999() >= s.latency.p50());
        }
        let rows = sweep.model_rows();
        assert_eq!(rows.len(), 3, "one model row per policy-axis value");
        assert!(rows.iter().all(|r| r.serving.is_some()));
        let text = sweep.to_json().to_string_flat();
        validate(&text).unwrap();
        // Job rows carry the ledger and the tail...
        assert!(text.contains("\"requests_served\":1536"));
        assert!(text.contains("\"p50_ns\":"));
        assert!(text.contains("\"p999_ns\":"));
        // ...policy cells carry the flush-pin counters...
        assert!(text.contains("\"flush_pins\":"));
        assert!(text.contains("\"coherence_invalidations\":"));
        // ...and the model rows name the load point and the pinning
        // rule next to the model columns.
        assert!(text.contains("\"req_rate\":500"));
        assert!(text.contains("\"zipf_s\":1.0"));
        // ...but an unprotected serving sweep never mentions the
        // overload ledger (byte-compatibility with its baseline).
        assert!(!text.contains("admitted") && !text.contains("goodput"), "overload leak");
        let model_part = text.split("\"model\":").nth(1).unwrap();
        assert!(model_part.contains("\"policy\":\"move-limit\""));
        assert!(model_part.contains("\"policy\":\"flush-limit\""));
        assert!(model_part.contains("\"policy\":\"move-or-flush\""));
        assert!(model_part.contains("\"p99_ns\":"));
        assert!(model_part.contains("\"gamma\":"));
    }

    #[test]
    fn overload_sweep_balances_the_shed_ledger() {
        // A cut-down overload grid: one saturated load point with every
        // protection knob engaged, plus healthy/chaos contrast.
        let mut g = Grid::overload();
        g.policies = vec![PolicyAxis::MoveLimit];
        g.offline_at = vec![0];
        g.req_rates = vec![32_000];
        g.queue_depths = vec![8];
        g.deadlines_ns = vec![400_000];
        g.tenant_quotas = vec![800];
        let sweep = Sweep::run(g, 2, None).unwrap();
        assert_eq!(sweep.results.len(), 1);
        let s = sweep.results[0].report.serving.as_ref().expect("serving report attaches");
        assert!(s.limited, "engaged knobs mark the report limited");
        assert!(s.ledger_balanced(), "requests == admitted + shed_*");
        assert!(s.shed_total() > 0, "a 32k req/s burst against protection must shed");
        let text = sweep.to_json().to_string_flat();
        validate(&text).unwrap();
        for needle in [
            "\"admitted\":",
            "\"shed_queue_full\":",
            "\"shed_deadline\":",
            "\"shed_quota\":",
            "\"goodput_p99_ns\":",
        ] {
            assert!(text.contains(needle), "overload document lacks {needle}");
        }
    }

    #[test]
    fn batch_sweep_documents_never_mention_serving_fields() {
        let sweep = Sweep::run(Grid::smoke(), 2, None).unwrap();
        let text = sweep.to_json().to_string_flat();
        for needle in [
            "requests_served",
            "p50_ns",
            "p95_ns",
            "p99_ns",
            "p999_ns",
            "serving",
            "\"policy\"",
            "flush_pins",
            "coherence_invalidations",
            "admitted",
            "shed_",
            "goodput",
            "queue_depth",
            "deadline",
            "quota",
        ] {
            assert!(!text.contains(needle), "smoke document mentions {needle}");
        }
    }

    #[test]
    fn resumed_sweeps_are_byte_identical_to_uninterrupted_ones() {
        let mut g = Grid::pressure();
        g.placements.truncate(1);
        g.fault_rates = vec![0.01];
        g.local_frames = vec![16, 4];
        let uninterrupted = Sweep::run(g.clone(), 2, None).unwrap();
        let expected = uninterrupted.to_json().to_string_flat();

        // Simulate a sweep killed after two cells: checkpoint those,
        // then resume from the sidecar.
        let path = std::env::temp_dir().join(format!(
            "numa-lab-sweep-resume-{}.json.partial",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let mut cp = Checkpoint::load_or_create(&path, &g).unwrap();
        for r in &uninterrupted.results[..2] {
            cp.record(&r.spec, &r.report).unwrap();
        }
        let mut cp = Checkpoint::load_or_create(&path, &g).unwrap();
        assert_eq!(cp.completed_ids(), vec![0, 1]);
        let resumed = Sweep::run_resumable(g, 2, None, &mut cp).unwrap();
        assert_eq!(resumed.to_json().to_string_flat(), expected);
        // Every freshly run cell was recorded on the way.
        let all: Vec<usize> = (0..uninterrupted.results.len()).collect();
        assert_eq!(cp.completed_ids(), all);
        cp.remove();
        assert!(!path.exists());
    }
}
