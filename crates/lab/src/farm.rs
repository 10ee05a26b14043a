//! The worker farm: N scoped OS threads claiming jobs from one cursor.
//!
//! Jobs are fully independent deterministic simulations, so the farm's
//! only correctness obligations are (1) merge results back into **grid
//! order**, so output is byte-identical whatever the completion order
//! or worker count, and (2) turn a failed verification or a panic
//! inside a job into a typed [`LabError`] instead of a hang or a
//! poisoned lock.
//!
//! Plumbing is `std` only: workers run inside one `std::thread::scope`,
//! claim grid indices from a shared `AtomicUsize`, catch each job's
//! panic at the job boundary, and return their `(index, outcome)`
//! pairs; the merge runs after the scope has joined them all. A panic
//! outside the job boundary is a farm bug and resurfaces from the
//! join. A run that stops making virtual progress is already a typed
//! error (`SimConfig::vt_budget`), so there is no wall-clock watchdog.
//!
//! Progress is reported through the structured event sink of the
//! observability pipeline: one [`EventKind::JobCompleted`] per
//! finished job, stamped with the worker slot and the job's virtual
//! makespan.

use crate::grid::JobSpec;
use ace_machine::{CpuId, Ns};
use ace_sim::RunReport;
use numa_metrics::{Event, EventKind, SharedSink};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// One finished sweep cell.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// The cell that ran.
    pub spec: JobSpec,
    /// Its measurements.
    pub report: RunReport,
}

/// Everything that can go wrong running a grid.
#[derive(Clone, Debug, PartialEq)]
pub enum LabError {
    /// A job returned an error (an application failed its own output
    /// verification, or its machine configuration was invalid).
    JobFailed {
        /// Grid-order index of the failing job.
        job: usize,
        /// Human label of the failing job.
        label: String,
        /// What went wrong.
        reason: String,
    },
    /// A job panicked; the farm caught it at the job boundary and the
    /// remaining jobs still ran.
    JobPanicked {
        /// Grid-order index of the panicking job.
        job: usize,
        /// Human label of the panicking job.
        label: String,
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl std::fmt::Display for LabError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LabError::JobFailed { job, label, reason } => {
                write!(f, "job #{job} ({label}) failed: {reason}")
            }
            LabError::JobPanicked { job, label, message } => {
                write!(f, "job #{job} ({label}) panicked: {message}")
            }
        }
    }
}

impl std::error::Error for LabError {}

/// What one worker brings home per job.
enum Outcome {
    Done(Box<RunReport>),
    Failed(String),
    Panicked(String),
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs every job on a farm of `n_workers` OS threads and returns the
/// results **in grid order**. The optional `progress` sink receives one
/// `JobCompleted` event per finished job (in completion order — it is
/// progress reporting, not part of the deterministic output).
pub fn run_jobs(
    jobs: &[JobSpec],
    n_workers: usize,
    progress: Option<&SharedSink>,
) -> Result<Vec<JobResult>, LabError> {
    run_jobs_with(jobs, n_workers, progress, JobSpec::run)
}

/// [`run_jobs`] with an injectable per-job runner, so tests can
/// exercise the farm's failure paths (panicking jobs, failing jobs)
/// without building pathological simulations, and a resumable sweep
/// can record each cell as it finishes.
pub fn run_jobs_with<F>(
    jobs: &[JobSpec],
    n_workers: usize,
    progress: Option<&SharedSink>,
    runner: F,
) -> Result<Vec<JobResult>, LabError>
where
    F: Fn(&JobSpec) -> Result<RunReport, String> + Sync,
{
    let cursor = AtomicUsize::new(0);
    let work = |worker: usize| {
        let mut done = Vec::new();
        loop {
            let idx = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(spec) = jobs.get(idx) else { return done };
            let outcome = match catch_unwind(AssertUnwindSafe(|| runner(spec))) {
                Ok(Ok(report)) => Outcome::Done(Box::new(report)),
                Ok(Err(reason)) => Outcome::Failed(reason),
                Err(payload) => Outcome::Panicked(panic_message(payload)),
            };
            if let Some(Ok(mut sink)) = progress.map(|s| s.lock()) {
                let makespan = match &outcome {
                    Outcome::Done(r) => r.makespan(),
                    _ => Ns::ZERO,
                };
                sink.record(&Event {
                    t: makespan,
                    cpu: CpuId((worker % CpuId::MAX_CPUS) as u16),
                    kind: EventKind::JobCompleted { job: spec.id as u32, of: jobs.len() as u32 },
                });
            }
            done.push((idx, outcome));
        }
    };
    let mut outcomes: Vec<(usize, Outcome)> = thread::scope(|s| {
        let workers: Vec<_> =
            (0..n_workers.max(1).min(jobs.len())).map(|w| s.spawn(move || work(w))).collect();
        workers.into_iter().flat_map(|h| h.join().unwrap_or_else(|p| resume_unwind(p))).collect()
    });

    // Errors surface in grid order, so which failure is reported does
    // not depend on scheduling.
    outcomes.sort_unstable_by_key(|&(idx, _)| idx);
    outcomes
        .into_iter()
        .map(|(idx, outcome)| {
            let spec = &jobs[idx];
            match outcome {
                Outcome::Done(report) => Ok(JobResult { spec: spec.clone(), report: *report }),
                Outcome::Failed(reason) => {
                    Err(LabError::JobFailed { job: spec.id, label: spec.label(), reason })
                }
                Outcome::Panicked(message) => {
                    Err(LabError::JobPanicked { job: spec.id, label: spec.label(), message })
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid;
    use numa_metrics::{shared, VecSink};
    use std::sync::{Arc, Mutex};

    fn tiny_jobs(n: usize) -> Vec<JobSpec> {
        let mut jobs = Grid::smoke().jobs();
        while jobs.len() < n {
            let mut j = jobs[jobs.len() % 6].clone();
            j.id = jobs.len();
            jobs.push(j);
        }
        jobs.truncate(n);
        jobs
    }

    #[test]
    fn results_come_back_in_grid_order() {
        let jobs = tiny_jobs(6);
        let results = run_jobs_with(&jobs, 4, None, |spec| {
            // Make early jobs slow so completion order inverts.
            std::thread::sleep(std::time::Duration::from_millis(
                (6 - spec.id as u64) * 3,
            ));
            spec.run()
        })
        .unwrap();
        let ids: Vec<usize> = results.iter().map(|r| r.spec.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn a_panicking_job_is_a_typed_error_not_a_hang() {
        let jobs = tiny_jobs(6);
        let err = run_jobs_with(&jobs, 3, None, |spec| {
            if spec.id == 2 {
                panic!("worker poisoned on purpose");
            }
            spec.run()
        })
        .unwrap_err();
        match err {
            LabError::JobPanicked { job, message, .. } => {
                assert_eq!(job, 2);
                assert!(message.contains("poisoned on purpose"));
            }
            other => panic!("expected JobPanicked, got {other:?}"),
        }
    }

    #[test]
    fn a_failing_job_reports_its_label_and_reason() {
        let jobs = tiny_jobs(3);
        let err = run_jobs_with(&jobs, 2, None, |spec| {
            if spec.id == 1 {
                Err("verification failed".to_string())
            } else {
                spec.run()
            }
        })
        .unwrap_err();
        match err {
            LabError::JobFailed { job, reason, label } => {
                assert_eq!(job, 1);
                assert_eq!(reason, "verification failed");
                assert!(!label.is_empty());
            }
            other => panic!("expected JobFailed, got {other:?}"),
        }
    }

    #[test]
    fn the_first_error_in_grid_order_wins() {
        let jobs = tiny_jobs(6);
        let err = run_jobs_with(&jobs, 6, None, |spec| {
            if spec.id >= 2 {
                Err(format!("boom {}", spec.id))
            } else {
                spec.run()
            }
        })
        .unwrap_err();
        assert!(matches!(err, LabError::JobFailed { job: 2, .. }), "got {err:?}");
    }

    #[test]
    fn progress_events_flow_through_the_event_sink() {
        struct Counting(Arc<Mutex<Vec<u32>>>);
        impl numa_metrics::EventSink for Counting {
            fn record(&mut self, event: &Event) {
                if let EventKind::JobCompleted { job, of } = event.kind {
                    assert_eq!(of, 4);
                    self.0.lock().unwrap().push(job);
                }
            }
        }
        let jobs = tiny_jobs(4);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink: SharedSink = shared(Counting(Arc::clone(&seen)));
        run_jobs_with(&jobs, 2, Some(&sink), |spec| spec.run()).unwrap();
        let mut seen = seen.lock().unwrap().clone();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn the_vec_sink_also_works_as_a_progress_sink() {
        let jobs = tiny_jobs(2);
        let sink = shared(VecSink::new());
        run_jobs(&jobs, 2, Some(&sink)).unwrap();
    }
}
