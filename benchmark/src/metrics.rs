//! The metric names, units, directions and bounds. `BENCHMARK.json`
//! carries the same tables for the driver; a unit test keeps the two
//! from drifting apart.

/// One end-to-end metric of the result line (`--trace 0`).
pub struct EndToEnd {
    /// Fixed name.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// One per-layer metric of the result line (`--trace 1`).
pub struct PerLayer {
    /// Fixed name; the part before the dot is the crate.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// The issue asked for 10 % on the host clock. The reference box does
/// not hold that between runs: the same binary drifts by up to 30 %
/// between a quiet and a noisy quarter of an hour (README, "How steady
/// is it"), so everything derived from `wall_s` gets the widest bound
/// the driver allows and the two ratios a little less. Pairs of runs
/// alternated in time (README, "Comparing two commits") resolve far
/// smaller differences than these bounds do; the bounds only say what
/// the driver may reject unattended. The virtual-clock metrics repeat
/// exactly for a given seed, but the driver takes its spread across
/// seeds, and the seed reshapes `fault_storm` and moves the serving
/// streams, so they cannot be 0; their unit says which clock they are
/// on.
pub const END_TO_END: [EndToEnd; 9] = [
    e2e("wall_s", "s", "lower", 0.25),
    e2e("refs_per_s", "1/s", "higher", 0.25),
    e2e("faults_per_s", "1/s", "higher", 0.25),
    e2e("host_user_frac", "ratio", "higher", 0.20),
    e2e("peak_rss_mb", "MB", "lower", 0.15),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("virt_user_s", "virt_s", "lower", 0.05),
    e2e("virt_sys_s", "virt_s", "lower", 0.05),
    e2e("virt_alpha", "ratio", "higher", 0.05),
];

/// Layer = crate. The last block holds what the issue lists as
/// end-to-end but cannot be one under the driver's contract (not
/// defined, or zero, on some workload); see the README.
pub const PER_LAYER: [PerLayer; 66] = [
    layer("ace.charge_access_ns", "ns/op", "lower"),
    layer("ace.charge_access_n_ns", "ns/op", "lower"),
    layer("ace.mmu_translate_ns", "ns/op", "lower"),
    layer("ace.mmu_enter_remove_ns", "ns/pair", "lower"),
    layer("ace.copy_page_ns", "ns/page", "lower"),
    layer("ace.zero_page_ns", "ns/page", "lower"),
    layer("ace.bus_bytes", "count", "lower"),
    layer("machvm.fault_ns", "ns/op", "lower"),
    layer("machvm.map_lookup_ns", "ns/op", "lower"),
    layer("machvm.pool_alloc_free_ns", "ns/pair", "lower"),
    layer("core.request_fresh_ns", "ns/op", "lower"),
    layer("core.request_replicate_ns", "ns/op", "lower"),
    layer("core.request_migrate_ns", "ns/op", "lower"),
    layer("core.request_global_ns", "ns/op", "lower"),
    layer("core.copy_check_ns", "ns/copy", "lower"),
    layer("core.request_reclaim_ns", "ns/op", "lower"),
    layer("core.pressure_tick_ns", "ns/op", "lower"),
    layer("core.node_offline_ns", "ns/op", "lower"),
    layer("core.requests", "count", "lower"),
    layer("core.page_copies", "count", "lower"),
    layer("core.reclaims", "count", "lower"),
    layer("core.pins", "count", "lower"),
    layer("core.recovery_actions", "count", "lower"),
    layer("core.copies_per_request", "ratio", "lower"),
    layer("core.est_busy_frac", "ratio", "lower"),
    layer("sim.read_u32_ns", "ns/op", "lower"),
    layer("sim.read_u32_slow_ns", "ns/op", "lower"),
    layer("sim.read_run_word_ns", "ns/word", "lower"),
    layer("sim.access_step_ns", "ns/op", "lower"),
    layer("sim.compute_chunk_ns", "ns/op", "lower"),
    layer("sim.window_ns", "ns/window", "lower"),
    layer("sim.idle_ns_per_virt_ms", "ns", "lower"),
    layer("sim.spawn_run_ns", "ns/op", "lower"),
    layer("sim.windows", "count", "lower"),
    layer("sim.wall_per_window_ns", "ns", "lower"),
    layer("sim.engine_residual_frac", "ratio", "lower"),
    layer("sim.unpinned_wall_ratio", "ratio", "lower"),
    layer("cthreads.lock_pair_ns", "ns/pair", "lower"),
    layer("cthreads.barrier_ns", "ns/round", "lower"),
    layer("cthreads.workpile_take_ns", "ns/op", "lower"),
    layer("apps.zipf_sample_ns", "ns/op", "lower"),
    layer("apps.kvserve_req_ns", "ns/request", "lower"),
    layer("metrics.hist_record_ns", "ns/op", "lower"),
    layer("metrics.hist_percentile_ns", "ns/op", "lower"),
    layer("metrics.event_record_ns", "ns/event", "lower"),
    layer("metrics.events_seen", "count", "lower"),
    layer("metrics.json_write_mb_s", "MB/s", "higher"),
    layer("metrics.json_parse_mb_s", "MB/s", "higher"),
    layer("metrics.compare_ms", "ms", "lower"),
    layer("lab.grid_expand_us", "us", "lower"),
    layer("lab.farm_job_us", "us/job", "lower"),
    layer("lab.sweep_json_ms", "ms", "lower"),
    layer("lab.checkpoint_roundtrip_ms", "ms", "lower"),
    layer("lab.gate_ms", "ms", "lower"),
    layer("lab.overhead_frac", "ratio", "lower"),
    layer("trace.record_ref_ns", "ns/ref", "lower"),
    layer("trace.replay_ref_ns", "ns/ref", "lower"),
    layer("trace.optimal_ref_ns", "ns/ref", "lower"),
    layer("reqs_per_s", "1/s", "higher"),
    layer("host_sys_frac", "ratio", "lower"),
    layer("fail_frac", "ratio", "lower"),
    layer("virt_p50_us", "virt_us", "lower"),
    layer("virt_p99_us", "virt_us", "lower"),
    layer("virt_goodput_frac", "ratio", "higher"),
    layer("model_err", "abs", "lower"),
    layer("trace_overhead_ratio", "ratio", "lower"),
];

/// The one command that builds and runs the benchmark, from the
/// repository root; the driver appends the run's arguments.
const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];
/// How long one run measures, and the default of `--seconds`.
pub const RUN_SECONDS: u64 = 10;

/// `BENCHMARK.json`, generated from the tables above and the workload
/// list (`numa-perf --describe`).
pub fn describe() -> String {
    use crate::workloads::SPECS;
    use numa_metrics::Json;
    let lines = |entries: Vec<Json>| {
        entries
            .iter()
            .map(|e| format!("    {e}"))
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let command = Json::Arr(COMMAND.iter().map(|&c| Json::from(c)).collect());
    let workloads = SPECS
        .iter()
        .map(|w| Json::obj().field("name", w.name).field("why", w.why))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Json::obj()
                .field("name", m.name)
                .field("unit", m.unit)
                .field("better", m.better)
                .field("bound", m.bound)
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            Json::obj()
                .field("name", m.name)
                .field("unit", m.unit)
                .field("better", m.better)
        })
        .collect();
    format!(
        "{{\n  \"command\": {command},\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        lines(workloads),
        lines(end_to_end),
        lines(per_layer),
    )
}

/// Named values, in the order they were measured.
#[derive(Clone, Debug, Default)]
pub struct Values(Vec<(String, f64)>);

impl Values {
    /// Records `name = value`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.push((name.to_string(), value));
    }

    /// Looks a value up.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// A value every formula may rely on: the microcells and counts
    /// are recorded before anything is derived from them.
    pub fn need(&self, name: &str) -> Result<f64, String> {
        self.get(name)
            .ok_or(format!("internal error: {name} was never measured"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::SPECS;

    #[test]
    fn the_committed_benchmark_json_is_the_generated_one() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            committed,
            describe(),
            "regenerate with `numa-perf --describe > BENCHMARK.json`"
        );
        numa_metrics::validate(committed).unwrap();
    }

    #[test]
    fn names_units_and_bounds_are_within_the_drivers_limits() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = SPECS.iter().map(|w| w.name).collect();
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(matches!(m.better, "lower" | "higher"));
            assert!(m.bound > 0.0 && m.bound <= 0.25);
            names.push(m.name);
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(matches!(m.better, "lower" | "higher"));
            names.push(m.name);
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        for w in &SPECS {
            assert!(name_ok(w.name));
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: {} chars",
                w.name,
                w.why.len()
            );
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }

    #[test]
    fn values_keep_what_was_set() {
        let mut v = Values::default();
        v.set("a", 1.5);
        assert_eq!(v.get("a"), Some(1.5));
        assert_eq!(v.need("a"), Ok(1.5));
        assert!(v.need("b").is_err());
    }
}
