//! What a run prints: the report for people, then one JSON line for
//! the driver.

use crate::metrics::{Values, END_TO_END, PER_LAYER};
use crate::run::{end_to_end, Outcome, Traced};
use crate::span;
use crate::stats::Summary;
use numa_metrics::Json;

/// Workloads that run KvServe.
fn is_serving(workload: &str) -> bool {
    workload.starts_with("serve_")
}

/// Whether an end-to-end metric of the issue's table applies to a
/// workload (`n/a` is printed elsewhere).
fn applies(metric: &str, workload: &str) -> bool {
    match metric {
        "refs_per_s" => matches!(workload, "paper_bench" | "stream_1cpu" | "observed"),
        "faults_per_s" => workload == "fault_storm",
        "reqs_per_s" | "virt_p50_us" | "virt_p99_us" => is_serving(workload),
        "virt_alpha" => matches!(workload, "paper_bench" | "fault_storm" | "observed"),
        "virt_goodput_frac" => workload == "serve_sat",
        "model_err" => workload == "paper_bench",
        _ => true,
    }
}

fn row(name: &str, value: Option<f64>, unit: &str, note: &str) {
    match value {
        Some(v) => println!("  {name:<22} {:>16} {unit:<8} {note}", sig(v)),
        None => println!("  {name:<22} {:>16} {unit:<8} {note}", "n/a"),
    }
}

/// Six significant digits, without an exponent for everyday sizes.
fn sig(v: f64) -> String {
    if v == 0.0 {
        return "0".to_string();
    }
    let magnitude = v.abs().log10().floor() as i32;
    if (-5..9).contains(&magnitude) {
        format!("{v:.*}", (5 - magnitude).clamp(0, 9) as usize)
    } else {
        format!("{v:.5e}")
    }
}

fn quartiles(s: Summary) -> String {
    format!(
        "[q1 {} .. q3 {}] n={} spread {:.1} %",
        sig(s.q1),
        sig(s.q3),
        s.n,
        s.spread() * 100.0
    )
}

/// The issue's fifteen end-to-end metrics, by name and unit, `n/a`
/// where one does not apply, plus the one the driver's contract needs
/// in place of `host_sys_frac`.
fn print_end_to_end(o: &Outcome) {
    let w = o.opts.workload.as_str();
    let c = &o.counts;
    let v = end_to_end(o);
    let when = |metric: &str, value: f64| applies(metric, w).then_some(value);
    println!(
        "end-to-end (host clock: median over repetitions; virtual clock: exact, every repetition)"
    );
    row("wall_s", v.get("wall_s"), "s", &quartiles(o.wall()));
    row(
        "refs_per_s",
        when("refs_per_s", o.per_s(c.refs)),
        "1/s",
        &format!("{} refs per repetition", c.refs),
    );
    row(
        "faults_per_s",
        when("faults_per_s", o.per_s(c.requests)),
        "1/s",
        &format!("{} manager requests", c.requests),
    );
    row(
        "reqs_per_s",
        when("reqs_per_s", o.per_s(c.kv_requests)),
        "1/s",
        &format!("{} KvServe requests", c.kv_requests),
    );
    row(
        "host_sys_frac",
        Some(o.ticks.sys_frac()),
        "ratio",
        &format!("{} user + {} kernel ticks", o.ticks.user, o.ticks.sys),
    );
    row(
        "host_user_frac",
        v.get("host_user_frac"),
        "ratio",
        "1 - host_sys_frac (the result line carries this one)",
    );
    row("peak_rss_mb", v.get("peak_rss_mb"), "MB", "VmHWM");
    row(
        "setup_s",
        v.get("setup_s"),
        "s",
        &format!(
            "{}; first pass {}",
            quartiles(Summary::of(&o.setup_s)),
            sig(o.setup_s[0])
        ),
    );
    row(
        "fail_frac",
        Some(o.fail_frac()),
        "ratio",
        &format!(
            "{} of {} cells and checks",
            o.checks.failures.len(),
            o.checks.attempted
        ),
    );
    row("virt_user_s", v.get("virt_user_s"), "virt_s", "");
    row("virt_sys_s", v.get("virt_sys_s"), "virt_s", "");
    row("virt_alpha", when("virt_alpha", c.alpha()), "ratio", "");
    let samples = format!("{} samples beyond p99 in the smallest cell", c.beyond_p99);
    row(
        "virt_p50_us",
        when("virt_p50_us", c.p50_ns as f64 / 1e3),
        "virt_us",
        "worst NUMA cell",
    );
    row(
        "virt_p99_us",
        when("virt_p99_us", c.p99_ns as f64 / 1e3),
        "virt_us",
        &samples,
    );
    row(
        "virt_goodput_frac",
        when("virt_goodput_frac", c.goodput_frac()),
        "ratio",
        &format!("{} of {} arrived", c.good, c.arrived),
    );
    row(
        "model_err",
        c.model_err.filter(|_| applies("model_err", w)),
        "abs",
        "against PAPER_TABLE3",
    );
}

fn print_traced(o: &Outcome, t: &Traced) {
    println!();
    println!("per layer (microcells: median of >= 30 batches, timed from outside; counts: exact)");
    for m in &PER_LAYER {
        row(m.name, t.layers.get(m.name), m.unit, "");
    }
    println!();
    println!(
        "traced repetition {} s against {} s untraced (trace_overhead_ratio {}); counted repetition {} s",
        sig(t.span_wall_s),
        sig(o.wall().median),
        sig(t.span_wall_s / o.wall().median),
        sig(t.counted_wall_s),
    );
    let self_sum: u64 = span::self_times(&t.spans).iter().sum();
    println!(
        "spans: {} recorded, self times sum to {} ns of a {} ns root; written to {}",
        t.spans.len(),
        self_sum,
        span::root_ns(&t.spans),
        t.trace_file.display(),
    );
    println!("self time by call:");
    for (name, ns, n) in span::self_time_by_name(&t.spans).iter().take(12) {
        println!("  {name:<28} {:>12.3} ms  in {n} spans", *ns as f64 / 1e6);
    }
    println!("slowest cells of the traced repetition:");
    let mut cells: Vec<_> = t.cells.iter().collect();
    cells.sort_by_key(|c| std::cmp::Reverse(c.wall_ns));
    for c in cells.iter().take(6) {
        println!("  {:<28} {:>12.3} ms", c.tag.label, c.wall_ns as f64 / 1e6);
    }
    println!("events counted where they happen:");
    for (kind, n) in &t.events {
        println!("  {kind:<28} {n:>12}");
    }
    println!(
        "in-cell split (ESTIMATE: exact counts x microcell unit costs; there are no spans inside a cell yet): \
         core {} of wall, unexplained by core and reference charging {}",
        sig(t.layers.get("core.est_busy_frac").unwrap_or(0.0)),
        sig(t.layers.get("sim.engine_residual_frac").unwrap_or(0.0)),
    );
}

/// The report for people.
pub fn print(o: &Outcome) {
    let opts = &o.opts;
    println!(
        "numa-perf {}: seed {}, pinned to CPU {} (allowed before: {}), {} timed repetitions after {} set-up pass(es), trace {}",
        opts.workload,
        opts.seed,
        o.pinned.cpu,
        o.pinned.allowed_before,
        o.walls.len(),
        o.setup_s.len(),
        if opts.trace { "on" } else { "off" },
    );
    if is_serving(&opts.workload) {
        println!(
            "load: open loop on the virtual clock; arrivals are pre-scheduled virtual times and latency \
             runs from the scheduled arrival, so generator lateness is 0 by construction; shed requests miss their deadline"
        );
    }
    println!("inputs: {}", o.inputs);
    let walls: Vec<String> = o.walls.iter().map(|&w| sig(w)).collect();
    println!("repetitions (s): {}", walls.join(" "));
    print_end_to_end(o);
    if let Some(t) = &o.traced {
        print_traced(o, t);
    }
    for failure in &o.checks.failures {
        println!("FAILED {failure}");
    }
}

fn metrics_json<'a>(
    values: &Values,
    table: impl Iterator<Item = (&'a str, &'a str)>,
) -> Result<Json, String> {
    let mut metrics = Json::obj();
    for (name, unit) in table {
        let value = values.need(name)?;
        if !value.is_finite() {
            return Err(format!("{name} is not a finite number"));
        }
        metrics = metrics.field(name, Json::obj().field("value", value).field("unit", unit));
    }
    Ok(metrics)
}

/// The driver's line: every end-to-end metric untraced, every per-layer
/// metric traced.
pub fn result_line(o: &Outcome) -> Result<String, String> {
    let metrics = match &o.traced {
        None => metrics_json(&end_to_end(o), END_TO_END.iter().map(|m| (m.name, m.unit)))?,
        Some(t) => metrics_json(&t.layers, PER_LAYER.iter().map(|m| (m.name, m.unit)))?,
    };
    let line = Json::obj()
        .field("correct", o.checks.failures.is_empty())
        .field("attempted", o.checks.attempted)
        .field("failed", o.checks.failures.len())
        .field("metrics", metrics)
        .to_string_flat();
    numa_metrics::validate(&line)?;
    Ok(line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counts::Counts;
    use crate::metrics::Values;
    use crate::pin::Pinned;
    use crate::procfs::CpuTicks;
    use crate::run::Opts;
    use crate::workloads::Checks;

    fn outcome(traced: bool) -> Outcome {
        let counts = Counts {
            refs: 1_000,
            requests: 10,
            user_ns: 5_000,
            sys_ns: 70,
            numa_local: 9,
            numa_refs: 10,
            ..Counts::default()
        };
        let traced = traced.then(|| {
            let mut layers = Values::default();
            PER_LAYER.iter().for_each(|m| layers.set(m.name, 1.5));
            Traced {
                spans: Vec::new(),
                span_wall_s: 1.0,
                cells: Vec::new(),
                events: Default::default(),
                counted_wall_s: 1.0,
                layers,
                trace_file: "benchmark/out/trace-x.json".into(),
            }
        });
        Outcome {
            opts: Opts {
                workload: "serve_sat".into(),
                seed: 7,
                seconds: 1,
                trace: traced.is_some(),
                cpu: None,
            },
            inputs: "start_ns 2000000".into(),
            pinned: Pinned {
                cpu: 1,
                allowed_before: "0-1".into(),
            },
            setup_s: vec![0.9, 1.1, 1.0],
            walls: vec![0.5, 0.52, 0.49],
            ticks: CpuTicks { user: 90, sys: 10 },
            vm_hwm_kb: 20_480,
            counts,
            checks: Checks {
                attempted: 12,
                failures: vec!["cell \"x\": broke".into()],
            },
            traced,
        }
    }

    /// The members of a JSON object, or nothing for anything else.
    fn members(j: &Json) -> &[(String, Json)] {
        match j {
            Json::Obj(m) => m,
            _ => &[],
        }
    }

    #[test]
    fn result_lines_are_valid_json_with_exactly_the_contract_keys() {
        for (traced, names) in [
            (false, END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()),
            (true, PER_LAYER.iter().map(|m| m.name).collect()),
        ] {
            let line = result_line(&outcome(traced)).unwrap();
            assert!(!line.contains('\n'));
            let doc = numa_metrics::parse(&line).unwrap();
            let keys: Vec<&str> = members(&doc).iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(members(&doc)[0].1, Json::Bool(false));
            assert_eq!(members(&doc)[1].1, Json::Int(12));
            assert_eq!(members(&doc)[2].1, Json::Int(1));
            let metrics = members(&members(&doc)[3].1);
            assert_eq!(
                metrics.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
                names
            );
            for (name, m) in metrics {
                let fields: Vec<&str> = members(m).iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(fields, ["value", "unit"], "{name}");
            }
        }
    }

    #[test]
    fn end_to_end_values_come_from_medians_and_exact_sums() {
        let v = end_to_end(&outcome(false));
        assert_eq!(v.get("wall_s"), Some(0.5));
        assert_eq!(v.get("refs_per_s"), Some(2_000.0));
        assert_eq!(v.get("host_user_frac"), Some(0.9));
        assert_eq!(v.get("peak_rss_mb"), Some(20.0));
        assert_eq!(v.get("setup_s"), Some(1.0));
        assert_eq!(v.get("virt_user_s"), Some(5e-6));
        assert_eq!(v.get("virt_alpha"), Some(0.9));
    }

    #[test]
    fn a_metric_nobody_measured_is_an_error_not_a_zero() {
        let mut o = outcome(true);
        o.traced.as_mut().unwrap().layers = Values::default();
        assert!(result_line(&o).unwrap_err().contains("never measured"));
    }

    #[test]
    fn six_significant_digits() {
        assert_eq!(sig(0.0), "0");
        assert_eq!(sig(1.482_345_6), "1.48235");
        assert_eq!(sig(30_812_345.0), "30812345");
        assert_eq!(sig(0.036_123_4), "0.0361234");
        assert_eq!(sig(123_456.789), "123457");
        assert_eq!(sig(4.2e12), "4.20000e12");
    }

    #[test]
    fn applicability_follows_the_issue_table() {
        assert!(applies("wall_s", "serve_idle"));
        assert!(applies("model_err", "paper_bench") && !applies("model_err", "observed"));
        assert!(applies("reqs_per_s", "serve_sat") && !applies("reqs_per_s", "fault_storm"));
        assert!(
            applies("virt_goodput_frac", "serve_sat")
                && !applies("virt_goodput_frac", "serve_idle")
        );
        assert!(applies("faults_per_s", "fault_storm") && !applies("faults_per_s", "stream_1cpu"));
    }
}
