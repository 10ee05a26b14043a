//! Resumable sweeps: a sidecar checkpoint of completed cells.
//!
//! `numa-lab run --resume` must survive being killed mid-sweep and,
//! on the next invocation, produce a final document **byte-identical**
//! to an uninterrupted run. Determinism makes that cheap: every cell
//! is an independent deterministic simulation, so a completed cell's
//! measurements can simply be persisted and replayed. The checkpoint
//! lives next to the output file (`<out>.partial`), is rewritten
//! atomically (temp file + rename) after every finished job, and is
//! deleted once the sweep completes.
//!
//! Two properties carry the byte-identity guarantee:
//!
//! * Reports are stored as **exact integers** — the raw nanosecond and
//!   counter fields, not the derived floating-point seconds the sweep
//!   document shows. Every float in the final document is recomputed
//!   from integers by the same code on both paths.
//! * A checkpoint is only trusted for the grid that wrote it: the
//!   grid's serialized axes are embedded and byte-compared on load.
//!   A mismatch is an error, not a silent restart — a different grid
//!   is a different experiment.

use crate::farm::JobResult;
use crate::grid::{Grid, JobSpec};
use ace_machine::{BusStats, CpuTime, FaultStats, Ns};
use ace_sim::{RefCounters, RunReport};
use numa_core::NumaStats;
use numa_metrics::{parse, Json, LatencyHistogram, ServingReport};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Schema tag of the checkpoint document.
pub const SCHEMA: &str = "numa-repro/lab-checkpoint/v1";

/// The sidecar checkpoint of one in-flight sweep.
#[derive(Debug)]
pub struct Checkpoint {
    path: PathBuf,
    /// The owning grid's serialized axes (the identity the checkpoint
    /// is valid for).
    grid_text: String,
    /// Completed cells, keyed by grid-order id.
    done: BTreeMap<usize, RunReport>,
}

impl Checkpoint {
    /// Where the checkpoint for an output file lives.
    pub fn path_for(out: &str) -> PathBuf {
        PathBuf::from(format!("{out}.partial"))
    }

    /// Opens the checkpoint at `path` for `grid`, loading completed
    /// cells when the file exists. Errors mean an unusable checkpoint
    /// (unreadable, unparsable, or written by a different grid) — the
    /// caller decides whether to delete and start over.
    pub fn load_or_create(path: &Path, grid: &Grid) -> Result<Checkpoint, String> {
        let grid_text = grid.to_json().to_string_flat();
        let mut cp = Checkpoint { path: path.to_path_buf(), grid_text, done: BTreeMap::new() };
        if !path.exists() {
            return Ok(cp);
        }
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read checkpoint {}: {e}", path.display()))?;
        let doc = parse(&text)
            .map_err(|e| format!("checkpoint {} is not valid JSON: {e}", path.display()))?;
        let members = as_obj(&doc, "checkpoint")?;
        match get(members, "schema") {
            Some(Json::Str(s)) if s == SCHEMA => {}
            other => {
                return Err(format!(
                    "checkpoint {} has schema {other:?}, expected \"{SCHEMA}\"",
                    path.display()
                ))
            }
        }
        let stored_grid = get(members, "grid")
            .ok_or_else(|| format!("checkpoint {} has no grid", path.display()))?;
        if stored_grid.to_string_flat() != cp.grid_text {
            return Err(format!(
                "checkpoint {} was written by a different grid; \
                 delete it to start this sweep from scratch",
                path.display()
            ));
        }
        let specs: BTreeMap<usize, JobSpec> =
            grid.jobs().into_iter().map(|j| (j.id, j)).collect();
        let Some(Json::Arr(entries)) = get(members, "done") else {
            return Err(format!("checkpoint {} has no done array", path.display()));
        };
        for entry in entries {
            let entry = as_obj(entry, "done entry")?;
            let id = get_u64(entry, "id")? as usize;
            let spec = specs
                .get(&id)
                .ok_or_else(|| format!("checkpoint records job #{id}, not in this grid"))?;
            let report = report_from_json(entry, spec)?;
            cp.done.insert(id, report);
        }
        Ok(cp)
    }

    /// Ids of the cells already completed.
    pub fn completed_ids(&self) -> Vec<usize> {
        self.done.keys().copied().collect()
    }

    /// The completed cells as grid-ordered [`JobResult`]s (specs taken
    /// from `jobs`, which must be the owning grid's job list).
    pub fn completed_results(&self, jobs: &[JobSpec]) -> Vec<JobResult> {
        jobs.iter()
            .filter_map(|j| {
                self.done.get(&j.id).map(|r| JobResult { spec: j.clone(), report: r.clone() })
            })
            .collect()
    }

    /// Records one finished cell and rewrites the checkpoint file
    /// atomically, so a kill at any moment leaves either the previous
    /// or the new checkpoint — never a torn file.
    pub fn record(&mut self, spec: &JobSpec, report: &RunReport) -> Result<(), String> {
        self.done.insert(spec.id, report.clone());
        let entries: Vec<Json> = self
            .done
            .iter()
            .map(|(&id, report)| report_to_json(id, report))
            .collect();
        let grid = parse(&self.grid_text).expect("grid text round-trips");
        let doc = Json::obj()
            .field("schema", SCHEMA)
            .field("grid", grid)
            .field("done", Json::Arr(entries))
            .to_string_flat();
        let tmp = self.path.with_extension("partial.tmp");
        std::fs::write(&tmp, &doc)
            .map_err(|e| format!("cannot write checkpoint {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &self.path)
            .map_err(|e| format!("cannot commit checkpoint {}: {e}", self.path.display()))?;
        Ok(())
    }

    /// Removes the checkpoint file (the sweep completed; the sidecar
    /// has served its purpose). Missing file is fine.
    pub fn remove(&self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// One completed cell as exact integers.
fn report_to_json(id: usize, r: &RunReport) -> Json {
    let cpus: Vec<Json> = r
        .cpu_times
        .iter()
        .map(|t| Json::obj().field("user_ns", t.user.0).field("system_ns", t.system.0))
        .collect();
    let j = Json::obj()
        .field("id", id)
        .field("policy", r.policy)
        .field("cpu_times", Json::Arr(cpus))
        .field(
            "refs",
            Json::obj()
                .field("local", r.refs.local)
                .field("global", r.refs.global)
                .field("remote", r.refs.remote),
        )
        .field("numa", r.numa.fields().fold(Json::obj(), |n, (key, v)| n.field(key, v)))
        .field(
            "bus",
            Json::obj()
                .field("global_word_transfers", r.bus.global_word_transfers)
                .field("copy_word_transfers", r.bus.copy_word_transfers)
                .field("remote_word_transfers", r.bus.remote_word_transfers),
        )
        .field(
            "faults",
            Json::obj()
                .field("bus_timeouts", r.faults.bus_timeouts)
                .field("bad_frames", r.faults.bad_frames)
                .field("corruptions", r.faults.corruptions),
        );
    // Present only on serving cells: counts, the exact maximum, and the
    // sparse bucket table — the integers every percentile is re-derived
    // from, so a resumed sweep reports the same tail byte-for-byte.
    let j = match &r.serving {
        Some(s) => {
            let mut entry = Json::obj()
                .field("requests", s.requests)
                .field("gets", s.gets)
                .field("puts", s.puts);
            // The overload ledger and goodput distribution exist only
            // on admission-controlled cells; unprotected serving cells
            // keep their exact pre-overload checkpoint shape.
            if s.limited {
                entry = entry
                    .field("admitted", s.admitted)
                    .field("shed_queue_full", s.shed_queue_full)
                    .field("shed_deadline", s.shed_deadline)
                    .field("shed_quota", s.shed_quota);
            }
            entry = entry
                .field("max_ns", s.latency.max_ns())
                .field("buckets", s.latency.sparse_json());
            if s.limited {
                entry = entry
                    .field("goodput_max_ns", s.goodput.max_ns())
                    .field("goodput_buckets", s.goodput.sparse_json());
            }
            j.field("serving", entry)
        }
        None => j,
    };
    // Present only on degraded chaos cells, so checkpoints from healthy
    // sweeps keep their exact pre-chaos shape.
    match &r.degraded {
        Some(d) => j.field("degraded", d.as_str()),
        None => j,
    }
}

/// Rebuilds a [`RunReport`] from a checkpoint entry. The policy string
/// is cross-checked against the spec (the report's `&'static str` is
/// re-derived from the spec's policy, so a stale or hand-edited entry
/// cannot smuggle in a mismatched label).
fn report_from_json(entry: &[(String, Json)], spec: &JobSpec) -> Result<RunReport, String> {
    let policy = spec.policy().name();
    match get(entry, "policy") {
        Some(Json::Str(s)) if *s == policy => {}
        other => {
            return Err(format!(
                "job #{}: checkpoint policy {other:?} does not match the grid's `{policy}`",
                spec.id
            ))
        }
    }
    let Some(Json::Arr(cpu_entries)) = get(entry, "cpu_times") else {
        return Err(format!("job #{}: checkpoint entry has no cpu_times", spec.id));
    };
    let mut cpu_times = Vec::with_capacity(cpu_entries.len());
    for t in cpu_entries {
        let t = as_obj(t, "cpu_times entry")?;
        cpu_times.push(CpuTime {
            user: Ns(get_u64(t, "user_ns")?),
            system: Ns(get_u64(t, "system_ns")?),
        });
    }
    let part = |key: &str| match get(entry, key) {
        Some(part) => as_obj(part, key),
        None => Err(format!("job #{}: checkpoint entry has no {key}", spec.id)),
    };
    let (refs, numa, bus, faults) = (part("refs")?, part("numa")?, part("bus")?, part("faults")?);
    Ok(RunReport {
        policy,
        cpu_times,
        refs: RefCounters {
            local: get_u64(refs, "local")?,
            global: get_u64(refs, "global")?,
            remote: get_u64(refs, "remote")?,
        },
        numa: NumaStats::from_fields(|key| get_u64(numa, key))?,
        bus: BusStats {
            global_word_transfers: get_u64(bus, "global_word_transfers")?,
            copy_word_transfers: get_u64(bus, "copy_word_transfers")?,
            remote_word_transfers: get_u64(bus, "remote_word_transfers")?,
        },
        faults: FaultStats {
            bus_timeouts: get_u64(faults, "bus_timeouts")?,
            bad_frames: get_u64(faults, "bad_frames")?,
            corruptions: get_u64(faults, "corruptions")?,
        },
        serving: match get(entry, "serving") {
            Some(s) => Some(serving_from_json(as_obj(s, "serving")?, spec.id)?),
            None => None,
        },
        degraded: match get(entry, "degraded") {
            Some(Json::Str(d)) => Some(d.clone()),
            Some(other) => {
                return Err(format!("job #{}: degraded is not a string: {other:?}", spec.id))
            }
            None => None,
        },
    })
}

/// Parses one sparse bucket table (`[[index, count], ...]`) back into a
/// histogram with its exact maximum.
fn histogram_from_json(
    s: &[(String, Json)],
    buckets_key: &str,
    max_key: &str,
    id: usize,
) -> Result<LatencyHistogram, String> {
    let Some(Json::Arr(entries)) = get(s, buckets_key) else {
        return Err(format!("job #{id}: serving entry has no {buckets_key} array"));
    };
    let mut pairs = Vec::with_capacity(entries.len());
    for pair in entries {
        match pair {
            Json::Arr(p) => match (p.first(), p.get(1), p.len()) {
                (Some(Json::Int(i)), Some(Json::Int(c)), 2) if *i >= 0 && *c >= 0 => {
                    pairs.push((*i as usize, *c as u64));
                }
                _ => return Err(format!("job #{id}: malformed latency bucket {pair:?}")),
            },
            other => return Err(format!("job #{id}: latency bucket is not a pair: {other:?}")),
        }
    }
    LatencyHistogram::from_sparse(&pairs, get_u64(s, max_key)?)
        .map_err(|e| format!("job #{id}: {e}"))
}

/// Rebuilds a [`ServingReport`] from its exact-integer checkpoint form.
/// The overload fields are optional: checkpoints written by unprotected
/// serving cells carry neither ledger nor goodput, and rebuild with the
/// ledger in its trivially-balanced form.
fn serving_from_json(s: &[(String, Json)], id: usize) -> Result<ServingReport, String> {
    let latency = histogram_from_json(s, "buckets", "max_ns", id)?;
    let limited = get(s, "admitted").is_some();
    let (requests, gets, puts) =
        (get_u64(s, "requests")?, get_u64(s, "gets")?, get_u64(s, "puts")?);
    if !limited {
        return Ok(ServingReport::unlimited(requests, gets, puts, latency));
    }
    Ok(ServingReport {
        requests,
        gets,
        puts,
        admitted: get_u64(s, "admitted")?,
        shed_queue_full: get_u64(s, "shed_queue_full")?,
        shed_deadline: get_u64(s, "shed_deadline")?,
        shed_quota: get_u64(s, "shed_quota")?,
        limited,
        latency,
        goodput: histogram_from_json(s, "goodput_buckets", "goodput_max_ns", id)?,
    })
}

fn get<'a>(members: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn as_obj<'a>(j: &'a Json, what: &str) -> Result<&'a [(String, Json)], String> {
    match j {
        Json::Obj(members) => Ok(members),
        _ => Err(format!("checkpoint {what} is not a JSON object")),
    }
}

fn get_u64(members: &[(String, Json)], key: &str) -> Result<u64, String> {
    match get(members, key) {
        Some(Json::Int(i)) if *i >= 0 => Ok(*i as u64),
        other => Err(format!("checkpoint field `{key}` is not a non-negative integer: {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A unique temp path per test (no external tempfile crate).
    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "numa-lab-checkpoint-{tag}-{}.json.partial",
            std::process::id()
        ))
    }

    fn small_grid() -> Grid {
        let mut g = Grid::pressure();
        g.apps.truncate(1);
        g.placements.truncate(1);
        g.fault_rates.truncate(1);
        g.local_frames = vec![8];
        g
    }

    #[test]
    fn reports_round_trip_exactly() {
        let grid = small_grid();
        let jobs = grid.jobs();
        let report = jobs[0].run().unwrap();
        let path = temp_path("roundtrip");
        let mut cp = Checkpoint::load_or_create(&path, &grid).unwrap();
        cp.record(&jobs[0], &report).unwrap();
        let reloaded = Checkpoint::load_or_create(&path, &grid).unwrap();
        let results = reloaded.completed_results(&jobs);
        assert_eq!(results.len(), 1);
        let r = &results[0].report;
        assert_eq!(r.policy, report.policy);
        assert_eq!(r.cpu_times, report.cpu_times);
        assert_eq!(r.numa, report.numa);
        assert_eq!(r.refs.local, report.refs.local);
        assert_eq!(r.bus.total_bytes(), report.bus.total_bytes());
        assert_eq!(r.faults.bus_timeouts, report.faults.bus_timeouts);
        // The byte-identity guarantee, at its root: the sweep-level
        // serialization of the reloaded report matches the original.
        assert_eq!(r.to_json().to_string_flat(), report.to_json().to_string_flat());
        cp.remove();
        assert!(!path.exists());
    }

    #[test]
    fn serving_reports_round_trip_exactly() {
        let mut grid = Grid::serving();
        grid.placements.truncate(1);
        grid.req_rates = vec![500];
        grid.zipf_exponents = vec![1.0];
        grid.tenant_counts = vec![1];
        let jobs = grid.jobs();
        assert_eq!(jobs.len(), 1);
        let report = jobs[0].run().unwrap();
        assert!(report.serving.is_some(), "serving cell must attach a ServingReport");
        let path = temp_path("serving");
        let mut cp = Checkpoint::load_or_create(&path, &grid).unwrap();
        cp.record(&jobs[0], &report).unwrap();
        let reloaded = Checkpoint::load_or_create(&path, &grid).unwrap();
        let r = &reloaded.completed_results(&jobs)[0].report;
        // The whole distribution survives, not just the headline
        // percentiles: the reloaded histogram is structurally equal.
        assert_eq!(r.serving, report.serving);
        assert_eq!(r.to_json().to_string_flat(), report.to_json().to_string_flat());
        cp.remove();
    }

    #[test]
    fn limited_serving_cells_round_trip_ledger_and_goodput_exactly() {
        // An overload cell checkpoints the admission ledger and the
        // sparse goodput distribution; the reload rebuilds both without
        // losing a single bucket.
        let mut grid = Grid::overload();
        grid.policies.truncate(1);
        grid.offline_at = vec![0];
        grid.req_rates = vec![32_000];
        grid.queue_depths = vec![8];
        grid.deadlines_ns = vec![400_000];
        grid.tenant_quotas = vec![800];
        let jobs = grid.jobs();
        assert_eq!(jobs.len(), 1);
        let report = jobs[0].run().unwrap();
        let s = report.serving.as_ref().expect("overload cell attaches a ServingReport");
        assert!(s.limited && s.shed_total() > 0, "the saturated cell must shed");
        assert!(s.ledger_balanced());
        let path = temp_path("overload");
        let mut cp = Checkpoint::load_or_create(&path, &grid).unwrap();
        cp.record(&jobs[0], &report).unwrap();
        let reloaded = Checkpoint::load_or_create(&path, &grid).unwrap();
        let r = &reloaded.completed_results(&jobs)[0].report;
        assert_eq!(r.serving, report.serving);
        assert_eq!(r.to_json().to_string_flat(), report.to_json().to_string_flat());
        cp.remove();
    }

    #[test]
    fn flush_limit_cells_round_trip_with_their_pin_counters() {
        use crate::grid::{Placement, PolicyAxis};
        let mut grid = Grid::serving();
        grid.placements = vec![Placement::Numa];
        grid.policies = vec![PolicyAxis::FlushLimit];
        grid.req_rates = vec![2_000];
        grid.zipf_exponents = vec![1.5];
        grid.tenant_counts = vec![1];
        let jobs = grid.jobs();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].policy().name(), "flush-limit");
        let report = jobs[0].run().unwrap();
        assert!(
            report.numa.coherence_invalidations > 0,
            "a hot single-writer serving cell must observe invalidations"
        );
        let path = temp_path("flushlimit");
        let mut cp = Checkpoint::load_or_create(&path, &grid).unwrap();
        cp.record(&jobs[0], &report).unwrap();
        let reloaded = Checkpoint::load_or_create(&path, &grid).unwrap();
        let r = &reloaded.completed_results(&jobs)[0].report;
        // The new counters are part of the exact-integer round trip, and
        // the policy cross-check accepts the flush-limit label.
        assert_eq!(r.numa.flush_pins, report.numa.flush_pins);
        assert_eq!(r.numa.coherence_invalidations, report.numa.coherence_invalidations);
        assert_eq!(r.to_json().to_string_flat(), report.to_json().to_string_flat());
        cp.remove();
    }

    #[test]
    fn a_checkpoint_from_a_different_grid_is_refused() {
        let grid = small_grid();
        let jobs = grid.jobs();
        let report = jobs[0].run().unwrap();
        let path = temp_path("gridmismatch");
        let mut cp = Checkpoint::load_or_create(&path, &grid).unwrap();
        cp.record(&jobs[0], &report).unwrap();
        let mut other = grid.clone();
        other.local_frames = vec![6];
        let err = Checkpoint::load_or_create(&path, &other).unwrap_err();
        assert!(err.contains("different grid"), "got: {err}");
        cp.remove();
    }

    #[test]
    fn garbage_checkpoints_are_typed_errors() {
        let grid = small_grid();
        let path = temp_path("garbage");
        std::fs::write(&path, "not json at all").unwrap();
        assert!(Checkpoint::load_or_create(&path, &grid).is_err());
        std::fs::write(&path, "{\"schema\":\"wrong/schema/v0\"}").unwrap();
        let err = Checkpoint::load_or_create(&path, &grid).unwrap_err();
        assert!(err.contains("schema"), "got: {err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_checkpoint_means_empty_start() {
        let grid = small_grid();
        let path = temp_path("fresh");
        let cp = Checkpoint::load_or_create(&path, &grid).unwrap();
        assert!(cp.completed_ids().is_empty());
        assert!(!path.exists(), "load_or_create must not create the file eagerly");
    }
}
