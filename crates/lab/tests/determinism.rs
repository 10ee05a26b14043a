//! The farm's headline guarantees, tested end to end:
//!
//! 1. the same grid produces **byte-identical** JSON at `--jobs 1` and
//!    `--jobs 8`, regardless of completion order;
//! 2. a worker that dies mid-grid surfaces as a typed error, never a
//!    hang.

use numa_apps::Scale;
use numa_lab::{run_jobs, run_jobs_with, Grid, LabError, Sweep};

#[test]
fn jobs_1_and_jobs_8_produce_byte_identical_json() {
    let serial = Sweep::run(Grid::smoke(), 1, None).unwrap().to_json().to_string_flat();
    let parallel = Sweep::run(Grid::smoke(), 8, None).unwrap().to_json().to_string_flat();
    assert_eq!(serial, parallel, "sweep output must not depend on worker count");
    numa_metrics::validate(&serial).unwrap();
}

#[test]
fn repeated_parallel_runs_are_byte_identical() {
    let a = Sweep::run(Grid::smoke(), 4, None).unwrap().to_json().to_string_flat();
    let b = Sweep::run(Grid::smoke(), 4, None).unwrap().to_json().to_string_flat();
    assert_eq!(a, b);
}

#[test]
fn ablation_grids_are_deterministic_too() {
    let grid = Grid { scale: Scale::Test, ..Grid::threshold() };
    let a = Sweep::run(grid.clone(), 1, None).unwrap().to_json().to_string_flat();
    let b = Sweep::run(grid, 6, None).unwrap().to_json().to_string_flat();
    assert_eq!(a, b);
}

#[test]
fn a_poisoned_worker_is_a_typed_error_not_a_hang() {
    // Every job panics: the farm must still join all workers, report
    // the first grid-order job as the culprit, and return.
    let jobs = Grid::smoke().jobs();
    let err = run_jobs_with(&jobs, 4, None, |spec| {
        if spec.id % 2 == 0 {
            panic!("injected worker death #{}", spec.id)
        }
        spec.run()
    })
    .unwrap_err();
    match err {
        LabError::JobPanicked { job, message, .. } => {
            assert_eq!(job, 0, "errors are reported in grid order");
            assert!(message.contains("injected worker death"));
        }
        other => panic!("expected JobPanicked, got {other:?}"),
    }
}

#[test]
fn more_workers_than_jobs_is_fine() {
    let mut grid = Grid::smoke();
    grid.apps.truncate(1);
    let sweep = Sweep::run(grid, 64, None).unwrap();
    assert_eq!(sweep.results.len(), 3);
    assert!(run_jobs(&[], 64, None).unwrap().is_empty(), "an empty grid runs nothing");
}
