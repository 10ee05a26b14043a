//! The perf-regression gate: sweep-document diffing with per-metric
//! tolerances.
//!
//! The generic tree walk lives in [`numa_metrics::baseline`]; this
//! module contributes the *policy* — which tolerance applies to which
//! leaf of a sweep document. Identity leaves (ids, names, grid axes)
//! are exact: a changed grid is a different experiment, not a drifted
//! one. Time-like metrics get relative slack, model factors get a small
//! absolute window (α is meaningful near zero), protocol counters get
//! a relative band with an absolute floor of a few events.

use crate::sweep::{class_of, Class};
use numa_metrics::baseline::{compare, BaselineDiff, Tolerance};
use numa_metrics::{parse, Json};

/// Per-metric-class tolerances; the CLI can widen or tighten each.
#[derive(Clone, Copy, Debug)]
pub struct GateTolerances {
    /// Relative slack on virtual times (user/system/makespan and the
    /// model's T columns).
    pub time_rel: f64,
    /// Absolute slack on model factors (α, β, γ, measured α).
    pub model_abs: f64,
    /// Relative slack on protocol counters (replications, pins, ...).
    pub count_rel: f64,
    /// Absolute floor on protocol counters, so tiny counts may wobble
    /// by a few events without tripping the gate.
    pub count_abs: f64,
    /// Relative slack on bus traffic bytes.
    pub bytes_rel: f64,
}

impl Default for GateTolerances {
    fn default() -> GateTolerances {
        GateTolerances {
            time_rel: 0.02,
            model_abs: 0.02,
            count_rel: 0.10,
            count_abs: 2.0,
            bytes_rel: 0.02,
        }
    }
}

impl GateTolerances {
    /// Everything exact — any drift at all is a violation. (This is
    /// what CI's byte-identity check means, expressed structurally.)
    pub fn strict() -> GateTolerances {
        GateTolerances { time_rel: 0.0, model_abs: 0.0, count_rel: 0.0, count_abs: 0.0, bytes_rel: 0.0 }
    }

    /// The tolerance applied to the leaf at `path`: the one its
    /// descriptor's class names (see `sweep::JOB_LEAVES`).
    pub fn for_path(&self, path: &str) -> Tolerance {
        match class_of(path.rsplit('.').next().unwrap_or(path)) {
            Class::Time => Tolerance::rel(self.time_rel),
            Class::Factor => Tolerance::abs(self.model_abs),
            Class::Count => Tolerance { rel: self.count_rel, abs: self.count_abs },
            Class::Bytes => Tolerance::rel(self.bytes_rel),
            Class::Identity => Tolerance::EXACT,
        }
    }
}

/// Parses two sweep documents and compares `current` against
/// `baseline` under the gate's tolerances. Errors are parse failures,
/// not drift — drift is in the returned [`BaselineDiff`].
pub fn diff_documents(
    baseline: &str,
    current: &str,
    tol: &GateTolerances,
) -> Result<BaselineDiff, String> {
    let b = parse(baseline).map_err(|e| format!("baseline is not valid JSON: {e}"))?;
    let c = parse(current).map_err(|e| format!("current report is not valid JSON: {e}"))?;
    check_schema(&b, "baseline")?;
    check_schema(&c, "current report")?;
    Ok(compare(&b, &c, &|path| tol.for_path(path)))
}

fn check_schema(doc: &Json, what: &str) -> Result<(), String> {
    let Json::Obj(members) = doc else {
        return Err(format!("{what} is not a JSON object"));
    };
    match members.iter().find(|(k, _)| k == "schema") {
        Some((_, Json::Str(s))) if s == crate::sweep::SCHEMA => Ok(()),
        Some((_, other)) => Err(format!(
            "{what} has schema {other}, expected \"{}\"",
            crate::sweep::SCHEMA
        )),
        None => Err(format!("{what} has no schema field")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{Grid, AXES};
    use crate::sweep::{Sweep, JOB_LEAVES, MODEL_LEAVES};

    fn sweep_text() -> String {
        Sweep::run(Grid::smoke(), 2, None).unwrap().to_json().to_string_flat()
    }

    #[test]
    fn identical_sweeps_pass_the_gate() {
        let text = sweep_text();
        let diff = diff_documents(&text, &text, &GateTolerances::default()).unwrap();
        assert!(diff.passes());
        assert!(diff.deltas.is_empty());
        assert!(diff.compared > 50, "compared only {} leaves", diff.compared);
    }

    #[test]
    fn a_perturbed_metric_beyond_tolerance_fails_the_gate() {
        let text = sweep_text();
        // Perturb the first user_s value by 10x its 2% tolerance.
        let needle = "\"user_s\":";
        let at = text.find(needle).unwrap() + needle.len();
        let end = at + text[at..].find(',').unwrap();
        let v: f64 = text[at..end].parse().unwrap();
        let perturbed = format!("{}{}{}", &text[..at], v * 1.2, &text[end..]);
        let diff = diff_documents(&text, &perturbed, &GateTolerances::default()).unwrap();
        assert!(!diff.passes());
        let v = diff.violations().next().unwrap();
        assert!(v.path.ends_with("user_s"), "unexpected violation path {}", v.path);
    }

    #[test]
    fn a_perturbation_within_tolerance_passes_but_is_reported() {
        let text = sweep_text();
        let needle = "\"user_s\":";
        let at = text.find(needle).unwrap() + needle.len();
        let end = at + text[at..].find(',').unwrap();
        let v: f64 = text[at..end].parse().unwrap();
        let perturbed = format!("{}{}{}", &text[..at], v * 1.001, &text[end..]);
        let diff = diff_documents(&text, &perturbed, &GateTolerances::default()).unwrap();
        assert!(diff.passes());
        assert_eq!(diff.deltas.len(), 1);
        // Strict mode turns the same drift into a violation.
        let strict = diff_documents(&text, &perturbed, &GateTolerances::strict()).unwrap();
        assert!(!strict.passes());
    }

    #[test]
    fn identity_leaves_are_always_exact() {
        let text = sweep_text();
        let perturbed = text.replace("\"cpus\":4", "\"cpus\":5");
        let diff = diff_documents(&text, &perturbed, &GateTolerances::default()).unwrap();
        assert!(!diff.passes());
    }

    /// Builds two one-leaf documents and gates `cur` against `base`.
    /// The leaf name selects the tolerance class under test.
    fn gate_leaf(
        leaf: &str,
        base: impl Into<Json>,
        cur: impl Into<Json>,
        tol: &GateTolerances,
    ) -> BaselineDiff {
        let mk = |v: Json| {
            Json::obj()
                .field("schema", crate::sweep::SCHEMA)
                .field(leaf, v)
                .to_string_flat()
        };
        diff_documents(&mk(base.into()), &mk(cur.into()), tol).unwrap()
    }

    #[test]
    fn every_descriptor_gates_with_the_band_of_its_class() {
        // One boundary pair per tolerance class — a drift just inside
        // the band passes, one just outside trips — applied to every
        // leaf the sweep declares, so a new counter is gated the moment
        // it gets a descriptor. The "just over" margins account for
        // `Tolerance::allows` using max(|baseline|, |current|) as the
        // relative base.
        let tol = GateTolerances::default();
        let job = JOB_LEAVES.iter().map(|l| (l.key, l.class));
        for (key, class) in job.chain(MODEL_LEAVES.iter().map(|l| (l.key, l.class))) {
            assert_eq!(class_of(key), class, "{key} is declared twice with different classes");
            let passes = |base: f64, cur: f64| gate_leaf(key, base, cur, &tol).passes();
            match class {
                // Virtual times and bus bytes: 2% relative.
                Class::Time | Class::Bytes => {
                    assert!(passes(1e6, 1.015e6), "{key}: 1.5% tripped");
                    assert!(!passes(1e6, 1.03e6), "{key}: 3% passed");
                }
                // An absolute window, precisely so factors near zero
                // get headroom a relative band would deny them.
                Class::Factor => {
                    assert!(passes(0.5, 0.515), "{key}: +0.015 tripped");
                    assert!(!passes(0.5, 0.525), "{key}: +0.025 passed");
                    assert!(passes(0.0, 0.015), "{key}: near-zero tripped");
                    assert!(!passes(0.0, 0.025), "{key}: near-zero passed");
                }
                // 10% relative, with a floor: 3 -> 5 is a 67% jump but
                // only two events; one more event is out.
                Class::Count => {
                    assert!(passes(1000.0, 1080.0), "{key}: 8% tripped");
                    assert!(!passes(1000.0, 1130.0), "{key}: 13% passed");
                    assert!(passes(3.0, 5.0), "{key}: floor did not absorb 2 events");
                    assert!(!passes(3.0, 6.0), "{key}: 3 events slipped under the floor");
                }
                Class::Identity => assert!(!passes(1000.0, 1001.0), "{key}: not exact"),
            }
        }
        // Coordinates are identities: a different queue depth or pinning
        // rule is a different experiment, not drift.
        for axis in AXES.iter() {
            assert!(!gate_leaf(axis.key, 8u64, 9u64, &tol).passes(), "{}: not exact", axis.key);
        }
        assert!(!gate_leaf("policy", "flush-limit", "move-limit", &tol).passes());
    }

    #[test]
    fn every_leaf_a_preset_emits_is_a_coordinate_or_a_declared_metric() {
        // Looks only at the keys of emitted rows: a leaf some sweep
        // writes without a descriptor would gate identity-exact by
        // accident, and a descriptor no sweep emits is dead.
        use std::collections::BTreeSet;
        let coordinates: BTreeSet<&str> =
            AXES.iter().map(|a| a.key).chain(["id", "workers", "scale"]).collect();
        let mut emitted = [BTreeSet::new(), BTreeSet::new()];
        for name in Grid::preset_names() {
            let mut grid = Grid::named(name).unwrap();
            grid.scale = numa_apps::Scale::Test;
            let doc = Sweep::run(grid, 8, None).unwrap().to_json();
            let Json::Obj(top) = &doc else { panic!("sweep document is an object") };
            for (rows, seen) in ["jobs", "model"].iter().zip(&mut emitted) {
                let Some((_, Json::Arr(rows))) = top.iter().find(|(k, _)| k == rows) else {
                    panic!("{name}: no {rows} array")
                };
                for row in rows {
                    let Json::Obj(members) = row else { panic!("{name}: row is not an object") };
                    seen.extend(members.iter().map(|(k, _)| k.clone()));
                }
            }
        }
        let declared = [
            JOB_LEAVES.iter().map(|l| l.key).collect::<BTreeSet<_>>(),
            MODEL_LEAVES.iter().map(|l| l.key).collect::<BTreeSet<_>>(),
        ];
        for (seen, declared) in emitted.iter().zip(&declared) {
            for key in seen {
                assert!(
                    declared.contains(key.as_str()) || coordinates.contains(key.as_str()),
                    "a row emits `{key}` with no descriptor"
                );
            }
            for key in declared {
                assert!(seen.contains(*key), "no preset emits the declared leaf `{key}`");
            }
        }
    }

    #[test]
    fn strict_mode_trips_on_drift_every_class_would_absorb() {
        let strict = GateTolerances::strict();
        let cases: &[(&str, Json, Json)] = &[
            ("user_s", Json::Num(100.0), Json::Num(100.5)),
            ("alpha", Json::Num(0.5), Json::Num(0.51)),
            ("pins", Json::Int(10), Json::Int(11)),
            ("bus_bytes", Json::Int(1_000_000), Json::Int(1_000_100)),
        ];
        for (leaf, base, cur) in cases {
            assert!(
                gate_leaf(leaf, base.clone(), cur.clone(), &GateTolerances::default()).passes(),
                "{leaf}: default tolerance should absorb this drift"
            );
            assert!(
                !gate_leaf(leaf, base.clone(), cur.clone(), &strict).passes(),
                "{leaf}: strict mode let drift through"
            );
            // Strict still passes bit-identical documents.
            assert!(gate_leaf(leaf, base.clone(), base.clone(), &strict).passes());
        }
    }

    #[test]
    fn schema_mismatch_is_an_error_not_a_diff() {
        let text = sweep_text();
        let other = text.replace(crate::sweep::SCHEMA, "something/else/v9");
        assert!(diff_documents(&other, &text, &GateTolerances::default()).is_err());
        assert!(diff_documents("not json", &text, &GateTolerances::default()).is_err());
    }
}
