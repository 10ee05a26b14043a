//! Property-based tests: random workloads against a shadow memory
//! model, protocol invariants under arbitrary request sequences, and
//! model algebra.

use numa_repro::machine::{Access, CpuId, Machine, NodeId, Prot, TopologyBuilder};
use numa_repro::metrics::{parse, validate, Json, Model};
use numa_repro::numa::{
    AllGlobalPolicy, AllLocalPolicy, CachePolicy, MoveLimitPolicy, NumaManager, Placement,
    StateKind,
};
use numa_repro::sim::{SimConfig, Simulator};
use numa_repro::vm::LPageId;
use proptest::prelude::*;

/// A policy that answers from a script (cycled), covering the remote
/// extension alongside the two-level placements.
struct ScriptedPolicy {
    script: Vec<u8>,
    i: usize,
}

impl CachePolicy for ScriptedPolicy {
    fn name(&self) -> &'static str {
        "scripted"
    }
    fn decide(&mut self, _: LPageId, _: Access, cpu: CpuId) -> Placement {
        let pick = self.script[self.i % self.script.len()];
        self.i += 1;
        match pick % 4 {
            0 => Placement::Local,
            1 => Placement::Global,
            2 => Placement::RemoteAt(NodeId(cpu.0)),
            _ => Placement::RemoteAt(NodeId((pick % 3) as u16)),
        }
    }
}

/// One scripted thread operation for the end-to-end property.
#[derive(Clone, Debug)]
enum Op {
    Write { slot: u8, value: u32 },
    Read { slot: u8 },
    Compute { us: u16 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<u32>()).prop_map(|(slot, value)| Op::Write { slot, value }),
        any::<u8>().prop_map(|slot| Op::Read { slot }),
        (1u16..50).prop_map(|us| Op::Compute { us }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// End-to-end coherence: threads execute random scripts over a
    /// shared region; every read must observe the value the *shadow*
    /// sequentially-consistent model predicts, for every policy. The
    /// scripts are partitioned so each slot has a single writer (so the
    /// shadow is well-defined) but readers roam everywhere, exercising
    /// replication, migration and pinning.
    #[test]
    fn random_scripts_match_shadow_model(
        scripts in proptest::collection::vec(
            proptest::collection::vec(op_strategy(), 1..60), 2..4),
        policy_pick in 0usize..3,
    ) {
        let n = scripts.len();
        let policy: Box<dyn CachePolicy> = match policy_pick {
            0 => Box::new(MoveLimitPolicy::new(2)),
            1 => Box::new(AllGlobalPolicy),
            _ => Box::new(AllLocalPolicy),
        };
        let mut sim = Simulator::new(SimConfig::small(n), policy);
        let base = sim.alloc(16 * 1024, Prot::READ_WRITE);
        for (t, script) in scripts.clone().into_iter().enumerate() {
            sim.spawn(format!("script-{t}"), move |ctx| {
                let mut shadow: std::collections::HashMap<u64, u32> =
                    std::collections::HashMap::new();
                for op in script {
                    match op {
                        Op::Write { slot, value } => {
                            // Writer-partitioned: thread t owns slots
                            // congruent to t.
                            let s = (slot as usize * n + t) as u64;
                            ctx.write_u32(base + s * 4, value);
                            shadow.insert(s, value);
                        }
                        Op::Read { slot } => {
                            // Read own slots (values known) — reads of
                            // others' slots are done below, unchecked
                            // but placement-relevant.
                            let own = (slot as usize * n + t) as u64;
                            let got = ctx.read_u32(base + own * 4);
                            let want = shadow.get(&own).copied().unwrap_or(0);
                            assert_eq!(got, want, "thread {t} slot {own}");
                            // Roaming read of a neighbour's slot.
                            let other = (slot as usize * n + (t + 1) % n) as u64;
                            let _ = ctx.read_u32(base + other * 4);
                        }
                        Op::Compute { us } => {
                            ctx.compute(numa_repro::machine::Ns::from_us(us as u64))
                        }
                    }
                }
                // Final self-check of every slot written.
                for (&s, &v) in &shadow {
                    assert_eq!(ctx.read_u32(base + s * 4), v);
                }
            });
        }
        sim.run();
        sim.with_kernel(|k| k.check_consistency()).unwrap();
    }

    /// Protocol invariants under arbitrary request sequences fed
    /// directly to the NUMA manager: at most one writable copy, replicas
    /// byte-identical to a valid global frame, pinned pages global.
    #[test]
    fn manager_invariants_under_random_requests(
        reqs in proptest::collection::vec(
            (0u32..6, 0u16..4, any::<bool>(), any::<u32>()), 1..120),
        threshold in 0u32..6,
    ) {
        let mut m = Machine::new(TopologyBuilder::small(4).config());
        let mut mgr = NumaManager::new();
        let mut pol = MoveLimitPolicy::new(threshold);
        // Shadow content per page: last value written to offset 0.
        let mut shadow: std::collections::HashMap<u32, u32> =
            std::collections::HashMap::new();
        for (page, cpu, is_write, value) in reqs {
            let lpage = LPageId(page);
            let cpu = CpuId(cpu);
            if mgr.view(lpage).state == StateKind::Fresh {
                mgr.zero_page(lpage);
            }
            let kind = if is_write { Access::Store } else { Access::Fetch };
            let grant = mgr.request(&mut m, lpage, kind, cpu, &mut pol).unwrap();
            if is_write {
                m.mem.write_u32(grant.frame, 0, value);
                shadow.insert(page, value);
            } else {
                let got = m.mem.read_u32(grant.frame, 0);
                let want = shadow.get(&page).copied().unwrap_or(0);
                prop_assert_eq!(got, want, "page {} on {}", page, cpu);
            }
            mgr.check_invariants(&mut m, lpage).map_err(
                TestCaseError::fail)?;
            // A pinned page must be global-writable.
            if pol.is_pinned(lpage) {
                prop_assert_eq!(mgr.view(lpage).state, StateKind::GlobalWritable);
            }
        }
    }

    /// Model algebra: solve() inverts the forward model for any
    /// plausible (alpha, beta, G/L).
    #[test]
    fn model_roundtrip(
        alpha in 0.0f64..1.0,
        beta in 0.05f64..1.0,
        g_over_l in 1.2f64..4.0,
        t_local in 1.0f64..10_000.0,
    ) {
        let t_numa = Model::predict_t_numa(t_local, alpha, beta, g_over_l);
        let t_global = Model::predict_t_global(t_local, beta, g_over_l);
        // Skip regions below the insensitivity threshold.
        prop_assume!(t_global - t_local > t_local * 0.02);
        let m = Model::solve(t_global, t_numa, t_local, g_over_l).unwrap();
        prop_assert!((m.alpha - alpha).abs() < 1e-6);
        prop_assert!((m.beta - beta).abs() < 1e-6);
    }

    /// Protocol invariants hold under arbitrary request sequences even
    /// when the policy mixes in the remote-reference extension, and
    /// data is never lost across Local/Global/Remote transitions.
    #[test]
    fn manager_invariants_with_remote_placements(
        reqs in proptest::collection::vec(
            (0u32..4, 0u16..4, any::<bool>(), any::<u32>()), 1..100),
        script in proptest::collection::vec(any::<u8>(), 1..16),
    ) {
        let mut m = Machine::new(TopologyBuilder::small(4).config());
        let mut mgr = NumaManager::new();
        let mut pol = ScriptedPolicy { script, i: 0 };
        let mut shadow: std::collections::HashMap<u32, u32> =
            std::collections::HashMap::new();
        for (page, cpu, is_write, value) in reqs {
            let lpage = LPageId(page);
            let cpu = CpuId(cpu);
            if mgr.view(lpage).state == StateKind::Fresh {
                mgr.zero_page(lpage);
            }
            let kind = if is_write { Access::Store } else { Access::Fetch };
            let grant = mgr.request(&mut m, lpage, kind, cpu, &mut pol).unwrap();
            if is_write {
                m.mem.write_u32(grant.frame, 0, value);
                shadow.insert(page, value);
            } else {
                let got = m.mem.read_u32(grant.frame, 0);
                let want = shadow.get(&page).copied().unwrap_or(0);
                prop_assert_eq!(got, want, "page {} on {}", page, cpu);
            }
            mgr.check_invariants(&mut m, lpage).map_err(
                TestCaseError::fail)?;
        }
    }

    /// The pageout daemon under random working sets: data survives any
    /// sequence of evictions and page-ins, and the pool never
    /// over-commits.
    #[test]
    fn pageout_preserves_data_under_random_pressure(
        writes in proptest::collection::vec((0u64..12, any::<u32>()), 1..80),
        pool in 2usize..6,
    ) {
        let mut cfg = SimConfig::small(1);
        cfg.machine.global_frames = pool;
        let mut sim = Simulator::new(cfg, Box::new(MoveLimitPolicy::default()));
        let page = 256u64;
        let a = sim.alloc(12 * page, Prot::READ_WRITE);
        let script = writes.clone();
        sim.spawn("presser", move |ctx| {
            let mut shadow: std::collections::HashMap<u64, u32> =
                std::collections::HashMap::new();
            for (slot, value) in script {
                let addr = a + slot * page;
                let got = ctx.read_u32(addr);
                let want = shadow.get(&slot).copied().unwrap_or(0);
                assert_eq!(got, want, "slot {slot} lost its value");
                ctx.write_u32(addr, value);
                shadow.insert(slot, value);
            }
        });
        sim.run();
        // Final contents visible through peek (frame, fill or swap).
        let mut fin: std::collections::HashMap<u64, u32> =
            std::collections::HashMap::new();
        for (slot, value) in &writes {
            fin.insert(*slot, *value);
        }
        for (slot, value) in fin {
            prop_assert_eq!(
                sim.with_kernel(|k| k.peek_u32(a + slot * page)),
                value
            );
        }
        prop_assert!(sim.with_kernel(|k| k.vm.pool().free_pages()) <= pool);
        sim.with_kernel(|k| k.check_consistency()).unwrap();
    }

    /// Frame allocator: alloc/free sequences never lose or duplicate
    /// frames.
    #[test]
    fn frame_allocator_conserves_frames(
        ops in proptest::collection::vec(any::<bool>(), 1..200)
    ) {
        use numa_repro::machine::MemRegion;
        let cfg = TopologyBuilder::small(1).config();
        let total = cfg.global_frames;
        let mut m = numa_repro::machine::PhysMem::new(&cfg);
        let mut held = Vec::new();
        for alloc in ops {
            if alloc {
                if let Ok(f) = m.alloc(MemRegion::Global) {
                    prop_assert!(!held.contains(&f), "duplicate frame {f:?}");
                    held.push(f);
                }
            } else if let Some(f) = held.pop() {
                m.free(f);
            }
            prop_assert_eq!(
                m.free_frames(MemRegion::Global) + held.len(),
                total
            );
        }
    }
}

/// Any value the report writer can emit losslessly: finite floats only
/// (JSON has no NaN/Inf), with integral-valued floats kept below 1e15
/// so they retain their `.0` marker when rendered — above that
/// threshold the serializer prints plain digits and the parser
/// (correctly) reads them back as integers.
struct JsonStrategy {
    depth: u32,
}

/// Characters chosen to stress every serializer path: plain ASCII,
/// everything `write_escaped` special-cases, raw controls that become
/// `\u` escapes, structural bytes that must stay quoted, multi-byte
/// and non-BMP code points.
const STRESS_CHARS: &[char] = &[
    'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{1}', '\u{8}', '\u{c}', '\u{1f}',
    '\u{7f}', '{', '}', '[', ']', ':', ',', 'é', 'λ', '中', '😀',
];

fn stress_string(rng: &mut TestRng) -> String {
    let len = rng.next_u64() % 9;
    (0..len)
        .map(|_| STRESS_CHARS[(rng.next_u64() % STRESS_CHARS.len() as u64) as usize])
        .collect()
}

fn stress_float(rng: &mut TestRng) -> f64 {
    match rng.next_u64() % 8 {
        0 => 0.0,
        1 => -0.0,
        2 => f64::MAX,
        3 => f64::MIN_POSITIVE,
        4 => 1e-300,
        // Integral-valued but under the `.0`-marker threshold.
        5 => (rng.next_u64() % 1_000_000) as f64,
        _ => (rng.next_f64() - 0.5) * 2e15,
    }
}

fn gen_json(rng: &mut TestRng, depth: u32) -> Json {
    let arms = if depth == 0 { 5 } else { 7 };
    match rng.next_u64() % arms {
        0 => Json::Null,
        1 => Json::Bool(rng.next_u64() & 1 == 1),
        2 => Json::Int(rng.next_u64() as i64),
        3 => Json::Num(stress_float(rng)),
        4 => Json::Str(stress_string(rng)),
        5 => Json::Arr((0..rng.next_u64() % 5).map(|_| gen_json(rng, depth - 1)).collect()),
        _ => Json::Obj(
            (0..rng.next_u64() % 5)
                .map(|_| (stress_string(rng), gen_json(rng, depth - 1)))
                .collect(),
        ),
    }
}

impl Strategy for JsonStrategy {
    type Value = Json;
    fn gen_value(&self, rng: &mut TestRng) -> Json {
        gen_json(rng, self.depth)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `parse` inverts serialization on everything the writer can
    /// produce — including escaped strings, nested containers, and
    /// insertion-ordered object members — and serializing the parse
    /// result is a fixed point (so committed baselines re-render
    /// byte-identically after a load/store cycle).
    #[test]
    fn json_parse_inverts_serialization(v in JsonStrategy { depth: 3 }) {
        let text = v.to_string_flat();
        prop_assert!(validate(&text).is_ok(), "emitted invalid JSON: {text}");
        let back = parse(&text);
        prop_assert!(back.is_ok(), "parse failed on {}: {:?}", text, back);
        let back = back.unwrap();
        prop_assert_eq!(&back, &v, "round trip changed the value of {}", text);
        prop_assert_eq!(back.to_string_flat(), text);
    }

    /// One document per file: anything after a complete value is an
    /// error, never silently ignored.
    #[test]
    fn json_parse_rejects_trailing_garbage(
        v in JsonStrategy { depth: 2 },
        junk in 0u64..u64::MAX,
    ) {
        let junk = ["x", "]", "}", ",", "null", "\"s\"", "1"][(junk % 7) as usize];
        let text = format!("{} {junk}", v.to_string_flat());
        prop_assert!(parse(&text).is_err());
        prop_assert!(validate(&text).is_err());
    }
}

#[test]
fn json_parse_rejects_what_json_cannot_say() {
    // NaN and infinities are unrepresentable: the writer demotes them
    // to null, and the reader refuses every spelling of them.
    assert_eq!(Json::Num(f64::NAN).to_string_flat(), "null");
    assert_eq!(Json::Num(f64::INFINITY).to_string_flat(), "null");
    for bad in [
        "NaN", "nan", "Infinity", "-Infinity", "inf", // non-finite spellings
        "\"\\q\"", "\"\\u12zz\"", "\"\\u123\"", // bad escapes
        "tru", "-", "1.", "1e", "01x", // truncated tokens
    ] {
        assert!(parse(bad).is_err(), "parse accepted {bad:?}");
        assert!(validate(bad).is_err(), "validate accepted {bad:?}");
    }
    // Lexically valid escape, semantically impossible code point: there
    // is one grammar, and it refuses it in both entry points.
    assert!(validate("\"\\ud800\"").is_err());
    assert!(parse("\"\\ud800\"").is_err(), "unpaired surrogate materialized");
}

#[test]
fn json_nesting_is_bounded_not_a_stack_overflow() {
    const DEEP: usize = 1_000_000;
    let array = format!("{}{}", "[".repeat(DEEP), "]".repeat(DEEP));
    let object = format!("{}1{}", "{\"k\":".repeat(DEEP), "}".repeat(DEEP));
    for doc in [&array, &object] {
        let err = parse(doc).unwrap_err();
        assert!(err.contains("nesting deeper than"), "got: {err}");
        assert!(validate(doc).is_err());
    }
    // Shallow nesting still parses.
    assert!(parse(&format!("{}{}", "[".repeat(100), "]".repeat(100))).is_ok());
}

#[test]
fn json_parse_survives_mutated_baselines() {
    use rand::{Rng, SeedableRng};
    let root = env!("CARGO_MANIFEST_DIR");
    let mut files: Vec<(String, String)> = std::fs::read_dir(root)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .map(|name| {
            let text = std::fs::read_to_string(format!("{root}/{name}")).unwrap();
            (name, text)
        })
        .collect();
    files.sort();
    assert!(files.len() >= 8, "found {} committed BENCH_*.json", files.len());
    for (seed, (name, text)) in files.iter().enumerate() {
        let doc = parse(text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(&doc.to_string_flat(), text, "{name} does not round-trip");

        let bytes = text.as_bytes();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed as u64);
        for _ in 0..300 {
            let mut m = bytes.to_vec();
            let at = rng.random_range(0..m.len());
            let truncated = match rng.random_range(0u8..4) {
                0 => {
                    m[at] = rng.random_range(0u8..255);
                    false
                }
                1 => {
                    m.truncate(at);
                    true
                }
                2 => {
                    let open = if rng.random_range(0u8..2) == 0 { b'[' } else { b'{' };
                    let run = rng.random_range(1usize..400);
                    m.splice(at..at, std::iter::repeat_n(open, run));
                    false
                }
                _ => {
                    let closers: Vec<usize> =
                        (0..m.len()).filter(|&i| matches!(m[i], b']' | b'}')).collect();
                    m.remove(closers[rng.random_range(0..closers.len())]);
                    false
                }
            };
            // Must return, never panic; a proper prefix of one object
            // is never a whole document.
            let result = parse(&String::from_utf8_lossy(&m));
            assert!(!truncated || result.is_err(), "{name}: prefix of {at} bytes parsed");
        }
    }
}
