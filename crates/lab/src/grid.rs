//! Declarative sweep grids.
//!
//! A [`Grid`] names one value set per experiment axis and
//! [`Grid::jobs`] expands the cross product into independent
//! [`JobSpec`]s in a fixed *grid order*. Everything the lab knows about
//! an axis — its keys in the grid and job documents, its label tag, how
//! the grid's list becomes a cell's coordinate, when it collapses, and
//! whether documents mention it at all — is one row of the `AXES` table
//! below, in grid order (first row outermost). Expansion, both
//! serializations, the labels, the model-companion key and the
//! `numa-lab list` tables are loops over that table; `Grid` and
//! `JobSpec` stay plain typed structs that the table describes.
//!
//! Axes that do not apply to a cell (a threshold under the all-global
//! placement, the processor axis under the single-processor `local`
//! baseline, the serving axes under a batch application) collapse
//! during expansion, so the job list contains no duplicate work.
//!
//! Every job is a complete, self-contained description of one
//! deterministic simulation: the worker farm can run the list in any
//! order, on any number of OS threads, and the merged results are the
//! same.

use ace_machine::{FaultConfig, HardFault, NodeId, Ns, PageSize, TopologyBuilder};
use ace_sim::{RunReport, SimConfig};
use numa_apps::{
    App, DivisorDiscipline, Fft, Gfetch, IMatMult, KvServe, ParMult, PlyTrace, Primes1, Primes2,
    Primes3, Scale, ServeParams,
};
use numa_core::{
    AllGlobalPolicy, AllLocalPolicy, CachePolicy, FlushLimitPolicy, MoveLimitPolicy,
    MoveOrFlushLimitPolicy, ReconsiderPolicy,
};
use numa_metrics::paper::EVAL_CPUS;
use numa_metrics::Json;
use std::collections::HashSet;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Deterministic seed for fault-injecting sweep cells: every cell with
/// the same fault rate sees the same fault schedule on every run and
/// under every `--jobs` setting.
const FAULT_SEED: u64 = 0x0ACE_5EED;

/// The eight applications of the paper's evaluation — plus the naive
/// Primes2 of section 4.2 and the serving workload, which are not rows
/// of the paper's Table 3 and therefore not in [`AppId::ALL`] — as grid
/// values.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AppId {
    /// Pure integer multiplication, no data references.
    ParMult,
    /// Nothing but fetches from shared memory.
    Gfetch,
    /// Integer matrix product.
    IMatMult,
    /// Trial division by all odd numbers.
    Primes1,
    /// Trial division by previously found primes (tuned variant).
    Primes2,
    /// Primes2 before section 4.2's fix: divisors read from the shared
    /// output vector, falsely sharing pages with its append count.
    Primes2Naive,
    /// Sieve in writably shared memory.
    Primes3,
    /// EPEX-style 2-D FFT.
    Fft,
    /// Polygon rendering from a work pile.
    PlyTrace,
    /// Sharded KV store under open-loop zipfian request load (the
    /// serving workload; measured by tail latency, not completion
    /// time).
    KvServe,
}

impl AppId {
    /// All applications, in the paper's Table 3 order.
    pub const ALL: [AppId; 8] = [
        AppId::ParMult,
        AppId::Gfetch,
        AppId::IMatMult,
        AppId::Primes1,
        AppId::Primes2,
        AppId::Primes3,
        AppId::Fft,
        AppId::PlyTrace,
    ];

    /// Name as it appears in the paper's tables (matches
    /// [`App::name`] of the instantiated application).
    pub fn name(self) -> &'static str {
        match self {
            AppId::ParMult => "ParMult",
            AppId::Gfetch => "Gfetch",
            AppId::IMatMult => "IMatMult",
            AppId::Primes1 => "Primes1",
            AppId::Primes2 => "Primes2",
            AppId::Primes2Naive => "Primes2-naive",
            AppId::Primes3 => "Primes3",
            AppId::Fft => "FFT",
            AppId::PlyTrace => "PlyTrace",
            AppId::KvServe => "KvServe",
        }
    }

    /// Instantiates the application at the given workload scale.
    pub fn make(self, scale: Scale) -> Box<dyn App> {
        match self {
            AppId::ParMult => Box::new(ParMult::new(scale)),
            AppId::Gfetch => Box::new(Gfetch::new(scale)),
            AppId::IMatMult => Box::new(IMatMult::new(scale)),
            AppId::Primes1 => Box::new(Primes1::new(scale)),
            AppId::Primes2 => Box::new(Primes2::new(scale, DivisorDiscipline::PrivateCopy)),
            AppId::Primes2Naive => Box::new(Primes2::new(scale, DivisorDiscipline::SharedVector)),
            AppId::Primes3 => Box::new(Primes3::new(scale)),
            AppId::Fft => Box::new(Fft::new(scale)),
            AppId::PlyTrace => Box::new(PlyTrace::new(scale)),
            AppId::KvServe => Box::new(KvServe::at_scale(scale)),
        }
    }

    /// The G/L ratio the application's model is solved with: the
    /// application's own [`App::g_over_l`], read from a test-scale
    /// instance (scale does not enter the rule, and a test-scale app is
    /// a few words).
    pub fn g_over_l(self) -> f64 {
        self.make(Scale::Test).g_over_l()
    }
}

/// One value of the placement axis.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Placement {
    /// The T_local baseline: one thread on one processor under the
    /// move-limit policy. Definitionally single-processor (section 3.1),
    /// so this placement ignores the grid's processor and threshold axes.
    Local,
    /// The T_global baseline: all writable data in global memory.
    Global,
    /// The paper's NUMA policy: move-limit with the grid's threshold.
    Numa,
    /// Never give up on caching (the all-local policy).
    NeverPin,
    /// Move-limit whose pins are reconsidered every `period` daemon
    /// ticks (the paper's section 5 future-work item).
    Reconsider {
        /// Reconsideration period in daemon ticks.
        period: u64,
    },
}

impl Placement {
    /// Stable label used in job listings and serialized reports.
    pub fn label(self) -> String {
        match self {
            Placement::Local => "local".to_string(),
            Placement::Global => "global".to_string(),
            Placement::Numa => "numa".to_string(),
            Placement::NeverPin => "never-pin".to_string(),
            Placement::Reconsider { period } => format!("reconsider-{period}"),
        }
    }

    /// Whether the move-limit threshold axis applies to this placement.
    fn uses_threshold(self) -> bool {
        matches!(self, Placement::Numa | Placement::Reconsider { .. })
    }
}

/// One value of the policy axis: which pinning rule a NUMA-placement
/// cell runs under. The axis applies to [`Placement::Numa`] cells only
/// (the baselines and wrappers fix their own policy); other placements
/// collapse it. The grid's `thresholds` axis remains the *move* budget;
/// flush-aware policies use their own boot-time invalidation budget.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PolicyAxis {
    /// The paper's move-limit rule (the default when the axis is empty).
    MoveLimit,
    /// The write-invalidation dual: pin once the flush budget trips.
    FlushLimit,
    /// Both budgets layered; a page pins when either trips.
    MoveOrFlush,
}

impl PolicyAxis {
    /// Stable label used in job listings and serialized reports
    /// (matches the policy's `CachePolicy::name`).
    pub fn label(self) -> &'static str {
        match self {
            PolicyAxis::MoveLimit => "move-limit",
            PolicyAxis::FlushLimit => "flush-limit",
            PolicyAxis::MoveOrFlush => "move-or-flush",
        }
    }
}

/// One value of the topology axis: a named machine shape, built at the
/// cell's processor count. The default — an empty axis — is the paper's
/// flat ACE, where every processor is its own node.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TopologyAxis {
    /// One node per processor: the flat ACE (identical to leaving the
    /// axis empty; useful for putting the baseline in a sweep).
    Flat,
    /// Two sockets splitting the processors evenly, one hop apart.
    TwoSocket,
    /// A 2-D mesh of `nodes` memory nodes, processors spread evenly.
    Mesh {
        /// Number of memory nodes in the mesh.
        nodes: usize,
    },
}

impl TopologyAxis {
    /// Stable label used in job listings and serialized reports.
    pub fn label(self) -> String {
        match self {
            TopologyAxis::Flat => "flat".to_string(),
            TopologyAxis::TwoSocket => "two-socket".to_string(),
            TopologyAxis::Mesh { nodes } => format!("mesh-{nodes}"),
        }
    }

    /// The machine this shape describes at `cpus` processors, with the
    /// evaluation ACE's page size, memory sizes and cost constants.
    pub fn builder(self, cpus: usize) -> TopologyBuilder {
        match self {
            TopologyAxis::Flat => TopologyBuilder::flat_ace(cpus),
            TopologyAxis::TwoSocket => TopologyBuilder::two_socket(cpus),
            TopologyAxis::Mesh { nodes } => {
                TopologyBuilder::mesh(nodes, cpus.div_ceil(nodes.max(1)))
            }
        }
    }

    /// Node count of this shape at `cpus` processors.
    fn n_nodes(self, cpus: usize) -> usize {
        match self {
            TopologyAxis::Flat => cpus,
            TopologyAxis::TwoSocket => 2,
            TopologyAxis::Mesh { nodes } => nodes.max(1),
        }
    }
}

/// Workload-scale label for serialized reports.
fn scale_label(scale: Scale) -> &'static str {
    match scale {
        Scale::Test => "test",
        Scale::Bench => "bench",
    }
}
/// One declarative sweep: a value set per axis.
#[derive(Clone, Debug)]
pub struct Grid {
    /// Preset name (or a caller-chosen label for ad-hoc grids).
    pub name: String,
    /// Workload scale every cell runs at.
    pub scale: Scale,
    /// Application axis.
    pub apps: Vec<AppId>,
    /// Placement axis.
    pub placements: Vec<Placement>,
    /// Processor-count axis.
    pub cpus: Vec<usize>,
    /// Move-limit threshold axis (applies to threshold-bearing
    /// placements only).
    pub thresholds: Vec<u32>,
    /// Policy axis: which pinning rule NUMA-placement cells run under.
    /// Empty — the default — means the paper's move-limit rule, and the
    /// axis is absent from serialized grids and jobs (documents from
    /// grids that predate the axis stay byte-identical).
    pub policies: Vec<PolicyAxis>,
    /// Fault-rate axis (applied to bus-timeout, bad-frame and
    /// corruption channels alike, with a fixed seed).
    pub fault_rates: Vec<f64>,
    /// Page-size axis, in bytes.
    pub page_sizes: Vec<usize>,
    /// Local-frames axis: per-processor local-memory sizes in frames,
    /// for memory-pressure sweeps. Empty — the default — means every
    /// cell runs with the machine preset's local memory, and the axis
    /// is absent from serialized grids and jobs (documents from grids
    /// that predate the axis stay byte-identical).
    pub local_frames: Vec<usize>,
    /// Hard-failure time axis: virtual times (ns) at which a scheduled
    /// node loss fires. Empty — the default — means no hard failures,
    /// and the axis is absent from serialized grids and jobs (documents
    /// from grids that predate it stay byte-identical). A `0` entry is
    /// the healthy sentinel — that cell schedules nothing — so one grid
    /// can hold failure-free and mid-failure cells side by side.
    pub offline_at: Vec<u64>,
    /// Hard-failure extent axis: how many nodes die at the scheduled
    /// time (the highest-numbered processors' memories, never node 0's).
    /// Collapses to one node when `offline_at` is set and this is empty.
    pub offline_nodes: Vec<usize>,
    /// Topology axis: machine shapes every cell runs on. Empty — the
    /// default — means the flat ACE, and the axis is absent from
    /// serialized grids and jobs (documents from grids that predate the
    /// axis stay byte-identical).
    pub topologies: Vec<TopologyAxis>,
    /// Serving request-rate axis (requests per second of virtual
    /// time). Applies to [`AppId::KvServe`] cells only; other apps
    /// collapse it. Empty — the default — means the scale's default
    /// rate, and the axis is absent from serialized grids and jobs
    /// (documents from grids that predate the axis stay
    /// byte-identical).
    pub req_rates: Vec<u64>,
    /// Serving key-popularity axis: zipf exponents (multiples of 0.5).
    /// Same collapse and serialization rules as `req_rates`.
    pub zipf_exponents: Vec<f64>,
    /// Serving tenant-count axis. Same collapse and serialization
    /// rules as `req_rates`.
    pub tenant_counts: Vec<usize>,
    /// Serving queue-depth axis: per-worker bounds on waiting requests
    /// (0 = unbounded). Same collapse and serialization rules as
    /// `req_rates`.
    pub queue_depths: Vec<usize>,
    /// Serving deadline axis in nanoseconds (0 = no deadline). Same
    /// collapse and serialization rules as `req_rates`.
    pub deadlines_ns: Vec<u64>,
    /// Serving per-tenant admission-quota axis in requests per second
    /// (0 = unlimited). Same collapse and serialization rules as
    /// `req_rates`.
    pub tenant_quotas: Vec<u64>,
    /// Per-job virtual-time budget in nanoseconds (`None` = unbounded).
    /// Not an axis: a safety net so a wedged cell fails typed instead
    /// of hanging a sweep.
    pub vt_budget: Option<u64>,
    /// Whether cells run with the simulator's batched-access fast path.
    /// Not an axis and not serialized: the two settings are
    /// observationally equivalent, so sweep documents from either must
    /// be byte-identical (CI regenerates the committed baseline with the
    /// fast path and `cmp`s).
    pub fastpath: bool,
}

/// One coordinate value of any axis. Reals are held as their IEEE bit
/// pattern so that cells compare, hash and deduplicate exactly.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) enum Value {
    App(AppId),
    Placement(Placement),
    Int(u64),
    Real(u64),
    Policy(PolicyAxis),
    Topology(TopologyAxis),
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Value::App(a) => f.write_str(a.name()),
            Value::Placement(p) => f.write_str(&p.label()),
            Value::Int(n) => write!(f, "{n}"),
            Value::Real(bits) => write!(f, "{}", f64::from_bits(bits)),
            Value::Policy(p) => f.write_str(p.label()),
            Value::Topology(t) => f.write_str(&t.label()),
        }
    }
}

impl From<Value> for Json {
    fn from(v: Value) -> Json {
        match v {
            Value::Int(n) => n.into(),
            Value::Real(bits) => Json::Num(f64::from_bits(bits)),
            named => named.to_string().into(),
        }
    }
}

/// A type some axis takes its values from.
trait Atom: Copy {
    fn pack(self) -> Value;
    fn unpack(v: Value) -> Self;
}

macro_rules! atoms {
    ($($t:ty => $variant:ident($pack:expr, $unpack:expr);)*) => {$(
        impl Atom for $t {
            fn pack(self) -> Value {
                Value::$variant($pack(self))
            }
            fn unpack(v: Value) -> $t {
                match v {
                    Value::$variant(x) => $unpack(x),
                    other => panic!("axis value {other:?} is not a {}", stringify!($t)),
                }
            }
        }
    )*};
}

atoms! {
    AppId => App(|a| a, |a| a);
    Placement => Placement(|p| p, |p| p);
    PolicyAxis => Policy(|p| p, |p| p);
    TopologyAxis => Topology(|t| t, |t| t);
    f64 => Real(f64::to_bits, f64::from_bits);
    u64 => Int(|n| n, |n| n);
    usize => Int(|n| n as u64, |n| n as usize);
    u32 => Int(u64::from, |n| n as u32);
}

/// How an axis shows up in [`JobSpec::label`].
pub(crate) enum Tag {
    /// Not at all (the application and placement head the label).
    None,
    /// ` tag=value`, directly after the placement it qualifies and
    /// ahead of every other tag (`numa t=4 pol=flush-limit p=7`).
    Qualifier(&'static str),
    /// ` tag=value` when the coordinate is set.
    Eq(&'static str),
    /// A piece with a rule of its own.
    With(fn(&JobSpec) -> Option<String>),
}

/// One sweep axis: everything the lab knows about it.
pub(crate) struct Axis {
    /// Key of the value list in the grid document.
    pub(crate) list_key: &'static str,
    /// Key of the coordinate in job documents and model rows.
    pub(crate) key: &'static str,
    pub(crate) tag: Tag,
    /// Emit-only-when-set: a grid that leaves the list empty, and every
    /// cell whose coordinate is unset, serializes exactly as it did
    /// before the axis existed. Optional keys follow the mandatory ones
    /// in every document; an empty optional list still yields one cell
    /// per combination of the others, with the coordinate unset.
    pub(crate) optional: bool,
    /// Whether solved model rows name the coordinate.
    pub(crate) in_model: bool,
    /// The grid's value list.
    pub(crate) values: fn(&Grid) -> Vec<Value>,
    pub(crate) get: fn(&JobSpec) -> Option<Value>,
    set: fn(&mut JobSpec, Option<Value>),
    /// The collapse rule: the coordinate a cell takes for a listed
    /// value, given the cell's outer coordinates (every earlier row's,
    /// already fitted). Cells that collapse to equal coordinates are
    /// one job.
    fit: fn(&JobSpec, Option<Value>) -> Option<Value>,
}

fn always(_: &JobSpec, v: Option<Value>) -> Option<Value> {
    v
}

/// The T_local baseline is single-processor by definition (section 3.1).
fn one_cpu_if_local(cell: &JobSpec, v: Option<Value>) -> Option<Value> {
    if cell.placement == Placement::Local { Some(Value::Int(1)) } else { v }
}

fn threshold_bearing(cell: &JobSpec, v: Option<Value>) -> Option<Value> {
    v.filter(|_| cell.placement.uses_threshold())
}

/// The baselines and wrappers fix their own policy.
fn numa_only(cell: &JobSpec, v: Option<Value>) -> Option<Value> {
    v.filter(|_| cell.placement == Placement::Numa)
}

/// A `0` entry is the healthy sentinel: that cell schedules no failure,
/// exactly as if the axis were empty.
fn zero_is_healthy(_: &JobSpec, v: Option<Value>) -> Option<Value> {
    v.filter(|&at| at != Value::Int(0))
}

/// A failure kills one node unless the extent axis says otherwise, and
/// never the last one (a single-processor cell has no node to spare).
fn when_failing(cell: &JobSpec, v: Option<Value>) -> Option<Value> {
    let n: usize = v.map_or(1, Atom::unpack);
    cell.offline_at.map(|_| n.min(cell.cpus.saturating_sub(1)).pack())
}

/// The serving axes only shape the serving workload.
fn serving_only(cell: &JobSpec, v: Option<Value>) -> Option<Value> {
    v.filter(|_| cell.app == AppId::KvServe)
}

/// An axis row for grid list `$list` and cell coordinate `$coord` (a
/// plain `val` field or an `opt`ional one); the fields named after the
/// arrow differ from the defaults.
macro_rules! axis {
    (@get val $coord:ident) => { |c| Some(c.$coord.pack()) };
    (@get opt $coord:ident) => { |c| c.$coord.map(Atom::pack) };
    (@set val $coord:ident) => {
        |c, v| c.$coord = Atom::unpack(v.expect("every cell has this coordinate"))
    };
    (@set opt $coord:ident) => { |c, v| c.$coord = v.map(Atom::unpack) };
    ($slot:ident $list:ident => $coord:ident $(, $field:ident: $value:expr)*) => {
        Axis {
            $($field: $value,)*
            ..Axis {
                list_key: stringify!($list),
                key: stringify!($coord),
                tag: Tag::None,
                optional: true,
                in_model: false,
                values: |g| g.$list.iter().map(|&x| x.pack()).collect(),
                get: axis!(@get $slot $coord),
                set: axis!(@set $slot $coord),
                fit: always,
            }
        }
    };
}

/// Every axis, in grid order: [`Grid::jobs`] varies the last row
/// fastest, and a row's collapse rule sees the rows above it.
pub(crate) static AXES: [Axis; 17] = [
    axis!(val apps => app, optional: false, in_model: true),
    axis!(val placements => placement, optional: false),
    axis!(val cpus => cpus, optional: false, in_model: true, tag: Tag::Eq("p"),
          fit: one_cpu_if_local),
    axis!(opt thresholds => threshold, optional: false, in_model: true,
          tag: Tag::Qualifier("t"), fit: threshold_bearing),
    axis!(opt policies => policy, in_model: true, tag: Tag::Qualifier("pol"), fit: numa_only),
    axis!(val fault_rates => fault_rate, optional: false, in_model: true,
          tag: Tag::With(|c| (c.fault_rate > 0.0).then(|| format!("f={}", c.fault_rate)))),
    axis!(val page_sizes => page_size, optional: false, in_model: true,
          tag: Tag::With(|c| (c.page_size != 2048).then(|| format!("pg={}", c.page_size)))),
    axis!(opt local_frames => local_frames, tag: Tag::Eq("lf")),
    axis!(opt offline_at => offline_at, list_key: "offline_at_ns", key: "offline_at_ns",
          fit: zero_is_healthy),
    // An extent without a time has nothing to schedule: the list reads
    // as empty. The pair prints as one piece, `off=N@Tns`.
    axis!(opt offline_nodes => offline_nodes, fit: when_failing,
          values: |g| if g.offline_at.is_empty() { vec![] } else {
              g.offline_nodes.iter().map(|&n| n.pack()).collect()
          },
          tag: Tag::With(|c| Some(format!("off={}@{}ns", c.offline_nodes?, c.offline_at?)))),
    axis!(opt topologies => topology, tag: Tag::Eq("topo")),
    axis!(opt req_rates => req_rate, in_model: true, tag: Tag::Eq("r"), fit: serving_only),
    axis!(opt zipf_exponents => zipf_s, in_model: true, tag: Tag::Eq("zs"), fit: serving_only),
    axis!(opt tenant_counts => tenants, in_model: true, tag: Tag::Eq("ten"), fit: serving_only),
    axis!(opt queue_depths => queue_depth, in_model: true, tag: Tag::Eq("qd"), fit: serving_only),
    axis!(opt deadlines_ns => deadline_ns, in_model: true, tag: Tag::Eq("dl"), fit: serving_only),
    axis!(opt tenant_quotas => tenant_quota, in_model: true, tag: Tag::Eq("tq"), fit: serving_only),
];

impl Axis {
    /// The order documents name axes in: the mandatory ones, then the
    /// emit-only-when-set ones, each group in grid order.
    pub(crate) fn doc_order() -> impl Iterator<Item = &'static Axis> {
        AXES.iter().filter(|a| !a.optional).chain(AXES.iter().filter(|a| a.optional))
    }
}

type Preset = (&'static str, fn() -> Grid);

/// Every built-in preset, in `numa-lab list` order.
const PRESETS: [Preset; 13] = [
    ("paper", Grid::paper),
    ("paper-bench", Grid::paper_bench),
    ("smoke", Grid::smoke),
    ("policies", Grid::policies),
    ("threshold", Grid::threshold),
    ("page-size", Grid::page_size),
    ("speedup", Grid::speedup),
    ("faults", Grid::faults),
    ("pressure", Grid::pressure),
    ("chaos", Grid::chaos),
    ("topology", Grid::topology),
    ("serving", Grid::serving),
    ("overload", Grid::overload),
];

impl Grid {
    /// The paper's evaluation grid: all eight applications under the
    /// three placements of section 3.1, on the evaluation machine.
    /// This is the grid behind the committed `BENCH_sweep.json`, and
    /// the base every other preset spells its differences from.
    pub fn paper() -> Grid {
        Grid {
            name: "paper".to_string(),
            scale: Scale::Test,
            apps: AppId::ALL.to_vec(),
            placements: vec![Placement::Local, Placement::Global, Placement::Numa],
            cpus: vec![EVAL_CPUS],
            thresholds: vec![MoveLimitPolicy::DEFAULT_THRESHOLD],
            policies: vec![],
            fault_rates: vec![0.0],
            page_sizes: vec![2048],
            local_frames: vec![],
            offline_at: vec![],
            offline_nodes: vec![],
            topologies: vec![],
            req_rates: vec![],
            zipf_exponents: vec![],
            tenant_counts: vec![],
            queue_depths: vec![],
            deadlines_ns: vec![],
            tenant_quotas: vec![],
            vt_budget: None,
            fastpath: true,
        }
    }

    /// The paper grid at evaluation workload sizes (slow; for manual
    /// runs and speedup measurements, not CI).
    pub fn paper_bench() -> Grid {
        Grid { name: "paper-bench".to_string(), scale: Scale::Bench, ..Grid::paper() }
    }

    /// A small grid for CI gating: two placement-sensitive apps under
    /// the three placements on four processors.
    pub fn smoke() -> Grid {
        Grid {
            name: "smoke".to_string(),
            apps: vec![AppId::IMatMult, AppId::Gfetch],
            cpus: vec![4],
            ..Grid::paper()
        }
    }

    /// The policy comparison: the smoke grid's applications under
    /// every pinning rule side by side — move-limit at the default
    /// threshold and at 0, all-global, never-pin (all-local), and
    /// move-limit whose pins are reconsidered every 8 daemon ticks —
    /// next to the T_local baseline. This is the grid behind
    /// `BENCH_policies.json`.
    pub fn policies() -> Grid {
        Grid {
            name: "policies".to_string(),
            placements: vec![
                Placement::Local,
                Placement::Global,
                Placement::Numa,
                Placement::NeverPin,
                Placement::Reconsider { period: 8 },
            ],
            thresholds: vec![MoveLimitPolicy::DEFAULT_THRESHOLD, 0],
            ..Grid::smoke()
        }
    }

    /// Ablation A1, the pin threshold (the boot-time parameter of
    /// section 2.3.2, default 4), at bench scale: the write-shared sieve
    /// and the mostly-private FFT under move-limit at thresholds 0 to 16,
    /// and under `never-pin`, the infinite threshold.
    pub fn threshold() -> Grid {
        Grid {
            name: "threshold".to_string(),
            scale: Scale::Bench,
            apps: vec![AppId::Primes3, AppId::Fft],
            placements: vec![Placement::Numa, Placement::NeverPin],
            thresholds: vec![0, 1, 2, 4, 8, 16],
            ..Grid::paper()
        }
    }

    /// Section 4.2 and ablation A6, at bench scale: Primes2 before and
    /// after privatizing its divisors, under the three placements at
    /// page sizes from 64 B (about a cache line, section 4.5) to 8 KB —
    /// false sharing grows with the page. The 2 KB rows are section
    /// 4.2's table.
    pub fn page_size() -> Grid {
        Grid {
            name: "page-size".to_string(),
            scale: Scale::Bench,
            apps: vec![AppId::Primes2Naive, AppId::Primes2],
            page_sizes: vec![64, 128, 512, 2048, 8192],
            ..Grid::paper()
        }
    }

    /// Ablation A8, the elapsed-time view section 3.1 sets aside, at
    /// bench scale: makespan of IMatMult and FFT under all-global and
    /// NUMA placement on 1, 2, 4 and 8 processors.
    pub fn speedup() -> Grid {
        Grid {
            name: "speedup".to_string(),
            scale: Scale::Bench,
            apps: vec![AppId::IMatMult, AppId::Fft],
            placements: vec![Placement::Global, Placement::Numa],
            cpus: vec![1, 2, 4, 8],
            ..Grid::paper()
        }
    }

    /// Fault-injection sweep: how placement quality degrades as the
    /// hardware gets worse.
    pub fn faults() -> Grid {
        Grid {
            name: "faults".to_string(),
            apps: vec![AppId::IMatMult],
            placements: vec![Placement::Numa],
            fault_rates: vec![0.0, 0.001, 0.01],
            ..Grid::paper()
        }
    }

    /// Memory-pressure sweep: one placement-sensitive application with
    /// local memory shrunk from ample (64 frames per processor) down to
    /// a few frames, with and without injected faults. Every cell
    /// carries a virtual-time budget so a reclaim bug fails typed
    /// instead of hanging CI.
    pub fn pressure() -> Grid {
        Grid {
            name: "pressure".to_string(),
            apps: vec![AppId::IMatMult],
            placements: vec![Placement::Numa, Placement::NeverPin],
            cpus: vec![4],
            fault_rates: vec![0.0, 0.01],
            local_frames: vec![64, 16, 4],
            vt_budget: Some(Ns::from_ms(60_000).0),
            ..Grid::paper()
        }
    }

    /// Chaos sweep: hard component loss (whole nodes going offline
    /// mid-run) crossed with failure time, failure extent, and soft
    /// fault rates, on a read-dominated application. Cells whose data
    /// is destroyed by the typed zero-fill (or wedged and cut by the
    /// budget) come back as deterministic *degraded* rows rather than
    /// sweep failures, so every outcome is a stable baseline row.
    pub fn chaos() -> Grid {
        Grid {
            name: "chaos".to_string(),
            apps: vec![AppId::Gfetch, AppId::Primes3],
            placements: vec![Placement::Numa],
            cpus: vec![4],
            fault_rates: vec![0.0, 0.01],
            offline_at: vec![Ns::from_ms(1).0, Ns::from_ms(5).0],
            offline_nodes: vec![1, 2],
            vt_budget: Some(Ns::from_ms(60_000).0),
            ..Grid::paper()
        }
    }

    /// Hierarchical-machine smoke sweep: the CI-gating applications on
    /// machines where memory forms real nodes — a two-socket split and a
    /// 2x2 mesh (two hops corner to corner) — under the global and NUMA
    /// placements. This is the grid behind `BENCH_topology.json`.
    pub fn topology() -> Grid {
        Grid {
            name: "topology".to_string(),
            placements: vec![Placement::Global, Placement::Numa],
            topologies: vec![TopologyAxis::TwoSocket, TopologyAxis::Mesh { nodes: 4 }],
            ..Grid::smoke()
        }
    }

    /// Serving sweep: the KV store under the three paper placements,
    /// crossed with request rate (below and above the thrash-bound
    /// capacity of the NUMA placement), key-popularity skew, and tenant
    /// count, with local memory tight enough (pressure machinery) that
    /// hot-set replication competes for frames. The NUMA cells are
    /// additionally swept over the policy axis — move-limit (which
    /// never pins the single-writer shard pages and thrashes),
    /// flush-limit, and the layered move-or-flush rule — so the
    /// committed document compares the pinning rules head to head.
    /// This is the grid behind `BENCH_serving.json`; its rows carry
    /// p50/p95/p99/p999 virtual-time latencies next to the model
    /// columns.
    pub fn serving() -> Grid {
        Grid {
            name: "serving".to_string(),
            apps: vec![AppId::KvServe],
            cpus: vec![4],
            policies: vec![PolicyAxis::MoveLimit, PolicyAxis::FlushLimit, PolicyAxis::MoveOrFlush],
            local_frames: vec![12],
            req_rates: vec![500, 2_000],
            zipf_exponents: vec![0.5, 1.5],
            tenant_counts: vec![1, 3],
            vt_budget: Some(Ns::from_ms(60_000).0),
            ..Grid::paper()
        }
    }

    /// Overload sweep: the KV store under the NUMA placement, driven
    /// through and past its saturation rate, crossed with the three
    /// admission knobs (queue bound, deadline, per-tenant quota, each
    /// off and on) and the move-limit/flush-limit policy pair — so the
    /// committed document shows the unprotected queueing collapse and
    /// the bounded tail side by side. The hard-failure axis rides
    /// along with its 0-sentinel healthy cell: half the grid also
    /// loses a node mid-serve, proving the serving stack composes with
    /// the chaos machinery (re-homed shard pages, typed degraded rows)
    /// deterministically. This is the grid behind `BENCH_overload.json`.
    pub fn overload() -> Grid {
        Grid {
            name: "overload".to_string(),
            placements: vec![Placement::Numa],
            policies: vec![PolicyAxis::MoveLimit, PolicyAxis::FlushLimit],
            offline_at: vec![0, Ns::from_ms(2).0],
            offline_nodes: vec![1],
            req_rates: vec![2_000, 32_000],
            zipf_exponents: vec![1.0],
            tenant_counts: vec![3],
            queue_depths: vec![0, 8],
            deadlines_ns: vec![0, 400_000],
            tenant_quotas: vec![0, 800],
            ..Grid::serving()
        }
    }

    /// Names of all built-in presets.
    pub fn preset_names() -> impl Iterator<Item = &'static str> {
        PRESETS.iter().map(|&(name, _)| name)
    }

    /// Looks up a preset by name.
    pub fn named(name: &str) -> Option<Grid> {
        PRESETS.iter().find(|(n, _)| *n == name).map(|(_, make)| make())
    }

    /// Expands the grid into jobs, in grid order, with inapplicable
    /// axes collapsed (no duplicate cells).
    pub fn jobs(&self) -> Vec<JobSpec> {
        let lists: Vec<Vec<Option<Value>>> = AXES
            .iter()
            .map(|axis| {
                let listed = (axis.values)(self);
                if listed.is_empty() && axis.optional {
                    vec![None]
                } else {
                    listed.into_iter().map(Some).collect()
                }
            })
            .collect();
        let blank = JobSpec {
            id: 0,
            app: AppId::ParMult,
            placement: Placement::Numa,
            cpus: 0,
            workers: 0,
            threshold: None,
            policy: None,
            fault_rate: 0.0,
            page_size: 0,
            local_frames: None,
            offline_at: None,
            offline_nodes: None,
            topology: None,
            req_rate: None,
            zipf_s: None,
            tenants: None,
            queue_depth: None,
            deadline_ns: None,
            tenant_quota: None,
            scale: self.scale,
            vt_budget: self.vt_budget,
            fastpath: self.fastpath,
        };
        let mut out = Vec::new();
        // Sized for the presets (at most 64 cells), so their keys are
        // hashed once; a larger product grows the set as it goes.
        let raw: usize = lists.iter().map(Vec::len).product();
        let mut seen = HashSet::with_capacity(raw.min(64));
        if raw == 0 {
            return out;
        }
        // An odometer over the lists, last axis fastest.
        let mut digits = [0; AXES.len()];
        loop {
            let mut cell = blank.clone();
            let mut coordinates = [None; AXES.len()];
            for (i, axis) in AXES.iter().enumerate() {
                coordinates[i] = (axis.fit)(&cell, lists[i][digits[i]]);
                (axis.set)(&mut cell, coordinates[i]);
            }
            if seen.insert(coordinates) {
                out.push(JobSpec { id: out.len(), workers: cell.cpus, ..cell });
            }
            let Some(i) = (0..AXES.len()).rfind(|&i| digits[i] + 1 < lists[i].len()) else {
                return out;
            };
            digits[i] += 1;
            digits[i + 1..].fill(0);
        }
    }

    /// The grid's axes as one deterministic JSON object.
    pub fn to_json(&self) -> Json {
        let mut g = Json::obj().field("name", self.name.as_str()).field("scale", scale_label(self.scale));
        for axis in Axis::doc_order() {
            let listed = (axis.values)(self);
            if !(axis.optional && listed.is_empty()) {
                g = g.field(axis.list_key, Json::Arr(listed.into_iter().map(Json::from).collect()));
            }
        }
        // The budget likewise appears only when set.
        if let Some(b) = self.vt_budget {
            g = g.field("vt_budget_ns", b);
        }
        g.field("jobs", self.jobs().len())
    }
}

/// One fully specified sweep cell: everything needed to run one
/// deterministic simulation, independent of every other cell.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Grid-order index (also the merge position for results).
    pub id: usize,
    /// Application to run.
    pub app: AppId,
    /// Placement under test.
    pub placement: Placement,
    /// Processor count of the simulated machine.
    pub cpus: usize,
    /// Worker-thread count the application spawns.
    pub workers: usize,
    /// Move-limit threshold, when the placement takes one.
    pub threshold: Option<u32>,
    /// Pinning rule of a NUMA-placement cell (`None` = the paper's
    /// move-limit rule; only policy sweeps set it).
    pub policy: Option<PolicyAxis>,
    /// Injected fault rate on all three fault channels.
    pub fault_rate: f64,
    /// Page size in bytes.
    pub page_size: usize,
    /// Per-processor local-memory size in frames (`None` = the machine
    /// preset's default; only pressure sweeps set it).
    pub local_frames: Option<usize>,
    /// Virtual time (ns) at which the scheduled node loss fires
    /// (`None` = no hard failures; only chaos sweeps set it).
    pub offline_at: Option<u64>,
    /// How many nodes die at that time (highest-numbered processors'
    /// memories first; present exactly when `offline_at` is).
    pub offline_nodes: Option<usize>,
    /// Machine shape the cell runs on (`None` = the flat ACE; only
    /// topology sweeps set it).
    pub topology: Option<TopologyAxis>,
    /// Serving request rate override (`None` = the scale default; set
    /// only for serving cells).
    pub req_rate: Option<u64>,
    /// Serving zipf-exponent override (`None` = the scale default; set
    /// only for serving cells).
    pub zipf_s: Option<f64>,
    /// Serving tenant-count override (`None` = the scale default; set
    /// only for serving cells).
    pub tenants: Option<usize>,
    /// Serving per-worker queue bound (`None` = the scale default; set
    /// only for overload sweeps; the value 0 means unbounded).
    pub queue_depth: Option<usize>,
    /// Serving deadline override in nanoseconds (`None` = the scale
    /// default; set only for overload sweeps; the value 0 disables).
    pub deadline_ns: Option<u64>,
    /// Serving per-tenant quota override in requests per second
    /// (`None` = the scale default; set only for overload sweeps; the
    /// value 0 means unlimited).
    pub tenant_quota: Option<u64>,
    /// Workload scale.
    pub scale: Scale,
    /// Virtual-time budget in nanoseconds (`None` = unbounded). Not an
    /// axis and not serialized: a safety net, never an observable.
    pub vt_budget: Option<u64>,
    /// Whether the cell runs with the batched-access fast path (not a
    /// grid axis; carried so `sim_config` can set the knob, and excluded
    /// from `to_json` because the paths are observationally equivalent).
    pub fastpath: bool,
}

impl JobSpec {
    /// Short human label, e.g. `IMatMult/numa t=4 p=7`.
    pub fn label(&self) -> String {
        let mut s = format!("{}/{}", self.app.name(), self.placement.label());
        let qualifies = |a: &&Axis| matches!(a.tag, Tag::Qualifier(_));
        for axis in AXES.iter().filter(qualifies).chain(AXES.iter().filter(|a| !qualifies(a))) {
            let piece = match axis.tag {
                Tag::None => None,
                Tag::Qualifier(tag) | Tag::Eq(tag) => {
                    (axis.get)(self).map(|v| format!("{tag}={v}"))
                }
                Tag::With(piece) => piece(self),
            };
            if let Some(piece) = piece {
                s.push(' ');
                s.push_str(&piece);
            }
        }
        s
    }

    /// Appends the cell's coordinates to `j` in document order — all of
    /// them for a job document, or the ones a `model` row names.
    pub(crate) fn coordinates(&self, mut j: Json, model: bool) -> Json {
        for axis in Axis::doc_order().filter(|a| a.in_model || !model) {
            let v = (axis.get)(self);
            if v.is_some() || !axis.optional {
                j = j.field(axis.key, v);
            }
            // The worker count follows the processor count it is derived from.
            if axis.key == "cpus" && !model {
                j = j.field("workers", self.workers);
            }
        }
        j
    }

    /// The cell at the same coordinates under another placement, with
    /// the axes that placement does not take collapsed exactly as
    /// [`Grid::jobs`] collapses them: the key a model companion is
    /// found by.
    pub(crate) fn under(&self, placement: Placement) -> JobSpec {
        let mut cell = JobSpec { placement, ..self.clone() };
        for axis in &AXES {
            let fitted = (axis.fit)(&cell, (axis.get)(&cell));
            (axis.set)(&mut cell, fitted);
        }
        cell
    }

    /// Whether `other` sits at the same coordinates on every axis.
    pub(crate) fn same_cell(&self, other: &JobSpec) -> bool {
        AXES.iter().all(|axis| (axis.get)(self) == (axis.get)(other))
    }

    /// Instantiates the cell's application, applying the serving-axis
    /// overrides to the serving workload's scale defaults.
    pub fn make_app(&self) -> Box<dyn App> {
        if self.app != AppId::KvServe {
            return self.app.make(self.scale);
        }
        let default = ServeParams::for_scale(self.scale);
        Box::new(KvServe::new(ServeParams {
            rate: self.req_rate.unwrap_or(default.rate),
            zipf_s: self.zipf_s.unwrap_or(default.zipf_s),
            tenants: self.tenants.unwrap_or(default.tenants),
            queue_depth: self.queue_depth.unwrap_or(default.queue_depth),
            deadline_ns: self.deadline_ns.unwrap_or(default.deadline_ns),
            tenant_quota: self.tenant_quota.unwrap_or(default.tenant_quota),
            ..default
        }))
    }

    /// Memory-node count of the cell's machine.
    fn n_nodes(&self) -> usize {
        self.topology.map_or(self.cpus, |t| t.n_nodes(self.cpus))
    }

    /// The scheduled hard failures of this cell: `offline_nodes` node
    /// losses at `offline_at`, taking the highest-numbered processors'
    /// memories first (node 0 always survives). Empty for healthy cells.
    pub fn hard_schedule(&self) -> Vec<HardFault> {
        let (Some(at), Some(n)) = (self.offline_at, self.offline_nodes) else {
            return Vec::new();
        };
        let nodes = self.n_nodes();
        (0..n.min(nodes.saturating_sub(1)))
            .map(|k| HardFault::NodeOffline {
                node: NodeId((nodes - 1 - k) as u16),
                vt: Ns(at),
            })
            .collect()
    }

    /// The placement policy this cell runs under.
    pub fn policy(&self) -> Box<dyn CachePolicy> {
        let threshold = self.threshold.unwrap_or(MoveLimitPolicy::DEFAULT_THRESHOLD);
        match self.placement {
            Placement::Local => Box::new(MoveLimitPolicy::default()),
            Placement::Global => Box::new(AllGlobalPolicy),
            Placement::Numa => match self.policy.unwrap_or(PolicyAxis::MoveLimit) {
                PolicyAxis::MoveLimit => Box::new(MoveLimitPolicy::new(threshold)),
                PolicyAxis::FlushLimit => Box::new(FlushLimitPolicy::default()),
                PolicyAxis::MoveOrFlush => Box::new(MoveOrFlushLimitPolicy::new(
                    threshold,
                    FlushLimitPolicy::DEFAULT_THRESHOLD,
                    FlushLimitPolicy::DEFAULT_DECAY_PERIOD,
                )),
            },
            Placement::NeverPin => Box::new(AllLocalPolicy),
            Placement::Reconsider { period } => Box::new(ReconsiderPolicy::new(threshold, period)),
        }
    }

    /// The simulator configuration this cell runs on: the evaluation
    /// ACE, resized for the cell's page size (keeping 16 MB global /
    /// 8 MB local memory) and fault rate.
    pub fn sim_config(&self) -> SimConfig {
        let mut cfg = SimConfig::ace(self.cpus).fastpath(self.fastpath);
        if let Some(t) = self.topology {
            cfg = cfg.machine(t.builder(self.cpus).config());
        }
        if self.page_size != cfg.machine.page_size.bytes() {
            cfg.machine.page_size = PageSize::new(self.page_size);
            cfg.machine.global_frames = 16 * 1024 * 1024 / self.page_size;
            cfg.machine.topology.set_uniform_local_frames(8 * 1024 * 1024 / self.page_size);
        }
        let hard_faults = self.hard_schedule();
        if self.fault_rate > 0.0 || !hard_faults.is_empty() {
            cfg = cfg.faults(FaultConfig {
                seed: FAULT_SEED,
                bus_timeout_rate: self.fault_rate,
                bad_frame_rate: self.fault_rate,
                corruption_rate: self.fault_rate,
                hard_faults,
                ..FaultConfig::default()
            });
        }
        if let Some(lf) = self.local_frames {
            cfg.machine.topology.set_uniform_local_frames(lf);
        }
        cfg.vt_budget = self.vt_budget.map(Ns);
        cfg
    }

    /// Runs this cell to completion on the current thread and returns
    /// the report. An invalid machine configuration is an `Err` naming
    /// the cell; on a healthy cell so is a cut by the virtual-time budget
    /// or a failed self-verification, and a panic propagates. On a
    /// chaos cell (a nonempty [`JobSpec::hard_schedule`]) the loss may
    /// legitimately destroy the application's data or wedge it; those
    /// outcomes are as deterministic as a verified completion, so they
    /// come back as a report whose `degraded` says what happened.
    pub fn run(&self) -> Result<RunReport, String> {
        self.run_app(self.make_app().as_ref())
    }

    /// [`JobSpec::run`] with the application given.
    fn run_app(&self, app: &dyn App) -> Result<RunReport, String> {
        let cfg = self.sim_config();
        let label = || self.label();
        cfg.machine.validate().map_err(|e| format!("{}: bad machine config: {e}", label()))?;
        let budget = cfg.vt_budget.map_or(0, |n| n.0);
        let chaos = !self.hard_schedule().is_empty();
        let mut sim = ace_sim::Simulator::new(cfg, self.policy());
        let outcome = catch_unwind(AssertUnwindSafe(|| app.run(&mut sim, self.workers)));
        let degraded = match outcome {
            Err(panic) if !chaos => resume_unwind(panic),
            _ if sim.vt_exceeded() && !chaos => {
                return Err(format!("{}: virtual-time budget of {budget} ns exceeded", label()))
            }
            _ if sim.vt_exceeded() => {
                format!("virtual-time budget of {budget} ns exceeded after component loss")
            }
            Ok(Ok(())) => return Ok(sim.report()),
            Ok(Err(e)) if !chaos => return Err(format!("{}: {e}", label())),
            Ok(Err(e)) => format!("verification failed after component loss: {e}"),
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("opaque panic");
                format!("workload aborted after component loss: {msg}")
            }
        };
        Ok(RunReport { degraded: Some(degraded), ..sim.report() })
    }

    /// The cell's coordinates as one deterministic JSON object (the
    /// metrics of a finished run are appended by the sweep layer).
    pub fn to_json(&self) -> Json {
        self.coordinates(Json::obj().field("id", self.id), false)
            .field("scale", scale_label(self.scale))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_grid_is_eight_apps_by_three_placements() {
        let jobs = Grid::paper().jobs();
        assert_eq!(jobs.len(), 24);
        // Grid order: apps outermost, placements inner.
        assert_eq!(jobs[0].app, AppId::ParMult);
        assert_eq!(jobs[0].placement, Placement::Local);
        assert_eq!((jobs[0].cpus, jobs[0].workers), (1, 1));
        assert_eq!(jobs[1].placement, Placement::Global);
        assert_eq!(jobs[1].cpus, EVAL_CPUS);
        assert_eq!(jobs[2].placement, Placement::Numa);
        assert_eq!(jobs[2].threshold, Some(4));
        assert!(jobs.iter().enumerate().all(|(i, j)| j.id == i));
    }

    #[test]
    fn inapplicable_axes_collapse_without_duplicates() {
        let mut g = Grid::smoke();
        g.thresholds = vec![0, 4, 8];
        g.cpus = vec![2, 4];
        let jobs = g.jobs();
        // Per app: local collapses both axes (1 job), global collapses
        // thresholds (2 cpus), numa is 2 cpus x 3 thresholds.
        assert_eq!(jobs.len(), 2 * (1 + 2 + 6));
        let locals: Vec<_> = jobs.iter().filter(|j| j.placement == Placement::Local).collect();
        assert_eq!(locals.len(), 2);
        assert!(locals.iter().all(|j| j.cpus == 1 && j.threshold.is_none()));
    }

    #[test]
    fn presets_resolve_by_name() {
        for name in Grid::preset_names() {
            let g = Grid::named(name).expect("preset exists");
            assert_eq!(&g.name, name);
            assert!(!g.jobs().is_empty());
        }
        assert!(Grid::named("nope").is_none());
    }

    #[test]
    fn policies_preset_runs_every_policy_of_the_comparison() {
        let jobs = Grid::named("policies").unwrap().jobs();
        for app in [AppId::IMatMult, AppId::Gfetch] {
            let cells: Vec<_> = jobs
                .iter()
                .filter(|j| j.app == app)
                .map(|j| (j.placement.label(), j.policy().name(), j.threshold, j.cpus))
                .collect();
            let expected = [
                ("local", "move-limit", None, 1),
                ("global", "all-global", None, 4),
                ("numa", "move-limit", Some(4), 4),
                ("numa", "move-limit", Some(0), 4),
                ("never-pin", "all-local", None, 4),
                ("reconsider-8", "reconsider", Some(4), 4),
                ("reconsider-8", "reconsider", Some(0), 4),
            ];
            let expected: Vec<_> =
                expected.iter().map(|&(l, p, t, c)| (l.to_string(), p, t, c)).collect();
            assert_eq!(cells, expected, "{}", app.name());
        }
    }

    #[test]
    fn app_ids_round_trip_and_match_table_order() {
        for (id, paper) in AppId::ALL.iter().zip(numa_metrics::paper::PAPER_TABLE3.iter()) {
            assert_eq!(id.name(), paper.0);
        }
    }

    #[test]
    fn job_spec_builds_policy_and_config() {
        let mut g = Grid::page_size();
        g.fault_rates = vec![0.01];
        let jobs = g.jobs();
        let j = &jobs[0];
        assert_eq!(j.page_size, 64);
        let cfg = j.sim_config();
        assert_eq!(cfg.machine.page_size.bytes(), 64);
        assert_eq!(cfg.machine.global_frames * 64, 16 * 1024 * 1024);
        assert_eq!(cfg.machine.topology.local_frames(NodeId(0)) * 64, 8 * 1024 * 1024);
        assert!(cfg.machine.faults.bus_timeout_rate > 0.0);
        assert_eq!(j.policy().name(), "move-limit");
        cfg.machine.validate().unwrap();
    }

    /// How a scripted application ends, after optionally wedging until
    /// the virtual-time budget cuts its run.
    #[derive(Clone, Copy, Debug)]
    enum Ending {
        Verified,
        Wrong,
        Panics,
    }

    struct Scripted {
        wedge: bool,
        ending: Ending,
    }

    impl App for Scripted {
        fn name(&self) -> &'static str {
            "scripted"
        }

        fn run(&self, sim: &mut ace_sim::Simulator, _workers: usize) -> Result<(), String> {
            if self.wedge {
                sim.spawn("spinner", |ctx| loop {
                    ctx.compute(Ns::from_us(50));
                });
                sim.run();
            }
            match self.ending {
                Ending::Verified => Ok(()),
                Ending::Wrong => Err("wrong answer".to_string()),
                Ending::Panics => panic!("scripted panic"),
            }
        }
    }

    #[test]
    fn a_cell_run_reports_each_ending_by_whether_it_is_a_chaos_cell() {
        // `Err` for the sweep on a healthy cell, a degraded row on a
        // chaos cell; a healthy cell's panic reaches the farm even when
        // the budget was cut first, and the budget outranks the
        // application's own verdict everywhere.
        let mut chaos = Grid::chaos().jobs()[0].clone();
        chaos.vt_budget = Some(Ns::from_ms(2).0);
        let healthy = JobSpec { offline_at: None, offline_nodes: None, ..chaos.clone() };
        assert!(healthy.hard_schedule().is_empty() && !chaos.hard_schedule().is_empty());
        let budget = "virtual-time budget of 2000000 ns exceeded";
        let (h, lost) = (healthy.label(), "after component loss");
        let degraded = |why: &str| Ok(Some(why.to_string()));
        let wrong = format!("verification failed {lost}: wrong answer");
        let aborted = format!("workload aborted {lost}: scripted panic");
        let cut = format!("{budget} {lost}");
        let cases = [
            (&healthy, false, Ending::Verified, Ok(None)),
            (&healthy, false, Ending::Wrong, Err(format!("{h}: wrong answer"))),
            (&healthy, false, Ending::Panics, Err("panic: scripted panic".to_string())),
            (&healthy, true, Ending::Verified, Err(format!("{h}: {budget}"))),
            (&healthy, true, Ending::Wrong, Err(format!("{h}: {budget}"))),
            (&healthy, true, Ending::Panics, Err("panic: scripted panic".to_string())),
            (&chaos, false, Ending::Verified, Ok(None)),
            (&chaos, false, Ending::Wrong, degraded(&wrong)),
            (&chaos, false, Ending::Panics, degraded(&aborted)),
            (&chaos, true, Ending::Verified, degraded(&cut)),
            (&chaos, true, Ending::Wrong, degraded(&cut)),
            (&chaos, true, Ending::Panics, degraded(&cut)),
        ];
        for (spec, wedge, ending, expect) in cases {
            let app = Scripted { wedge, ending };
            let got = match catch_unwind(AssertUnwindSafe(|| spec.run_app(&app))) {
                Ok(report) => report.map(|r| r.degraded),
                Err(panic) => Err(format!("panic: {}", panic.downcast_ref::<&str>().unwrap())),
            };
            assert_eq!(got, expect, "{} wedge={wedge} {ending:?}", spec.label());
        }
    }

    #[test]
    fn labels_are_informative() {
        let jobs = Grid::paper().jobs();
        assert_eq!(jobs[2].label(), "ParMult/numa t=4 p=7");
        assert!(jobs[0].label().contains("local"));
    }

    #[test]
    fn pressure_preset_sweeps_local_frames() {
        let g = Grid::pressure();
        let jobs = g.jobs();
        // 1 app x 2 placements x 2 fault rates x 3 frame counts.
        assert_eq!(jobs.len(), 12);
        assert!(jobs.iter().all(|j| j.local_frames.is_some()));
        assert!(jobs.iter().all(|j| j.vt_budget.is_some()));
        let j = jobs.iter().find(|j| j.local_frames == Some(4)).expect("tightest cell");
        let cfg = j.sim_config();
        assert_eq!(cfg.machine.topology.local_frames(NodeId(0)), 4);
        assert_eq!(cfg.vt_budget, Some(Ns(g.vt_budget.unwrap())));
        assert!(j.label().contains("lf=4"));
        // The axis shows up in both serialized forms.
        let gj = g.to_json().to_string_flat();
        assert!(gj.contains("\"local_frames\":[64,16,4]"));
        assert!(gj.contains("\"vt_budget_ns\""));
        assert!(j.to_json().to_string_flat().contains("\"local_frames\":4"));
    }

    #[test]
    fn chaos_preset_schedules_node_loss() {
        let g = Grid::chaos();
        let jobs = g.jobs();
        // 2 apps x 2 fault rates x 2 offline times x 2 node counts.
        assert_eq!(jobs.len(), 16);
        assert!(jobs.iter().all(|j| j.offline_at.is_some() && j.offline_nodes.is_some()));
        let j = jobs
            .iter()
            .find(|j| j.offline_nodes == Some(2) && j.offline_at == Some(Ns::from_ms(1).0))
            .expect("two-node cell");
        assert!(j.label().contains("off=2@1000000ns"), "label: {}", j.label());
        // Highest-numbered nodes die first, never node 0, at the
        // scheduled instant.
        let sched = j.hard_schedule();
        assert_eq!(sched.len(), 2);
        assert!(matches!(sched[0], HardFault::NodeOffline { node: NodeId(3), vt } if vt == Ns::from_ms(1)));
        assert!(matches!(sched[1], HardFault::NodeOffline { node: NodeId(2), vt } if vt == Ns::from_ms(1)));
        // The schedule reaches the machine config and validates.
        let cfg = j.sim_config();
        assert_eq!(cfg.machine.faults.hard_faults.len(), 2);
        cfg.machine.validate().unwrap();
        // The axes show up in both serialized forms.
        let gj = g.to_json().to_string_flat();
        assert!(gj.contains("\"offline_at_ns\":[1000000,5000000]"));
        assert!(gj.contains("\"offline_nodes\":[1,2]"));
        let jj = j.to_json().to_string_flat();
        assert!(jj.contains("\"offline_at_ns\":1000000"));
        assert!(jj.contains("\"offline_nodes\":2"));
    }

    #[test]
    fn offline_node_count_is_clamped_to_leave_a_survivor() {
        let mut g = Grid::chaos();
        g.cpus = vec![2];
        g.offline_nodes = vec![1, 8];
        let jobs = g.jobs();
        // A request to kill 8 of 2 nodes clamps to 1 (node 0 always
        // survives) and dedups against the explicit 1-node cell.
        assert!(jobs.iter().all(|j| j.offline_nodes == Some(1)));
        assert_eq!(jobs.len(), 2 * 2 * 2);
        for j in &jobs {
            let sched = j.hard_schedule();
            assert_eq!(sched.len(), 1);
            assert!(matches!(sched[0], HardFault::NodeOffline { node: NodeId(1), .. }));
        }
    }

    #[test]
    fn topology_preset_sweeps_machine_shapes() {
        let g = Grid::topology();
        let jobs = g.jobs();
        // 2 apps x 2 placements x 2 topologies.
        assert_eq!(jobs.len(), 8);
        assert!(jobs.iter().all(|j| j.topology.is_some()));
        let j = jobs.iter().find(|j| j.topology == Some(TopologyAxis::Mesh { nodes: 4 })).unwrap();
        assert!(j.label().contains("topo=mesh-4"), "label: {}", j.label());
        let cfg = j.sim_config();
        assert_eq!(cfg.machine.n_cpus(), 4);
        assert_eq!(cfg.machine.topology.n_nodes(), 4);
        assert!(cfg.machine.topology.max_hops() >= 2, "the mesh spans at least two hops");
        cfg.machine.validate().unwrap();
        // The axis shows up in both serialized forms.
        assert!(g.to_json().to_string_flat().contains("\"topologies\":[\"two-socket\",\"mesh-4\"]"));
        assert!(j.to_json().to_string_flat().contains("\"topology\":\"mesh-4\""));
    }

    #[test]
    fn serving_preset_sweeps_rate_skew_and_tenants() {
        let g = Grid::serving();
        let jobs = g.jobs();
        // The serving axes (2 rates x 2 exponents x 2 tenant counts)
        // are app parameters and apply to every placement, including
        // single-cpu local; the policy axis applies to NUMA cells only.
        // local 8 + global 8 + numa 8x3 policies = 40 cells.
        assert_eq!(jobs.len(), 40);
        assert!(jobs.iter().all(|j| j.app == AppId::KvServe));
        assert!(jobs
            .iter()
            .all(|j| j.req_rate.is_some() && j.zipf_s.is_some() && j.tenants.is_some()));
        assert!(jobs.iter().all(|j| j.local_frames == Some(12) && j.vt_budget.is_some()));
        assert!(jobs
            .iter()
            .all(|j| (j.placement == Placement::Numa) == j.policy.is_some()));
        let j = jobs
            .iter()
            .find(|j| {
                j.placement == Placement::Numa
                    && j.policy == Some(PolicyAxis::FlushLimit)
                    && j.req_rate == Some(2_000)
                    && j.zipf_s == Some(1.5)
                    && j.tenants == Some(3)
            })
            .expect("hot flush-limit numa cell");
        assert!(j.label().contains("pol=flush-limit"), "label: {}", j.label());
        assert!(j.label().contains("r=2000"), "label: {}", j.label());
        assert!(j.label().contains("zs=1.5"), "label: {}", j.label());
        assert!(j.label().contains("ten=3"), "label: {}", j.label());
        // The axes show up in both serialized forms.
        let gj = g.to_json().to_string_flat();
        assert!(gj.contains("\"policies\":[\"move-limit\",\"flush-limit\",\"move-or-flush\"]"));
        assert!(gj.contains("\"req_rates\":[500,2000]"));
        assert!(gj.contains("\"zipf_exponents\":[0.5,1.5]"));
        assert!(gj.contains("\"tenant_counts\":[1,3]"));
        let jj = j.to_json().to_string_flat();
        assert!(jj.contains("\"policy\":\"flush-limit\""));
        assert!(jj.contains("\"req_rate\":2000"));
        assert!(jj.contains("\"zipf_s\":1.5"));
        assert!(jj.contains("\"tenants\":3"));
    }

    #[test]
    fn policy_axis_selects_the_cell_policy() {
        let jobs = Grid::serving().jobs();
        let by = |pol| {
            jobs.iter()
                .find(move |j| j.placement == Placement::Numa && j.policy == Some(pol))
                .expect("numa cell for policy")
        };
        assert_eq!(by(PolicyAxis::MoveLimit).policy().name(), "move-limit");
        assert_eq!(by(PolicyAxis::FlushLimit).policy().name(), "flush-limit");
        assert_eq!(by(PolicyAxis::MoveOrFlush).policy().name(), "move-or-flush");
        // Baselines keep their fixed policies regardless of the axis.
        let global = jobs.iter().find(|j| j.placement == Placement::Global).unwrap();
        assert_eq!(global.policy, None);
        assert_eq!(global.policy().name(), "all-global");
    }

    #[test]
    fn serving_axes_collapse_for_batch_apps() {
        // A grid mixing a batch app into the serving axes must not
        // multiply the batch app's cells.
        let mut g = Grid::serving();
        g.apps = vec![AppId::Gfetch, AppId::KvServe];
        let jobs = g.jobs();
        let batch: Vec<_> = jobs.iter().filter(|j| j.app == AppId::Gfetch).collect();
        // One Gfetch cell per placement, except numa — the policy axis
        // is a placement property, so its three values still apply.
        assert_eq!(batch.len(), 5);
        assert!(batch.iter().all(|j| j.req_rate.is_none() && j.zipf_s.is_none()));
    }

    #[test]
    fn kvserve_resolves_by_name_but_stays_out_of_the_paper_table() {
        assert!(!AppId::ALL.contains(&AppId::KvServe));
        assert_eq!(AppId::KvServe.make(Scale::Test).name(), "KvServe");
    }

    #[test]
    fn the_naive_primes2_is_a_grid_value_but_not_a_paper_row() {
        assert!(!AppId::ALL.contains(&AppId::Primes2Naive));
        assert_eq!(AppId::Primes2Naive.make(Scale::Test).name(), AppId::Primes2Naive.name());
    }

    #[test]
    fn g_over_l_is_the_application_s_own_rule() {
        for app in AppId::ALL.into_iter().chain([AppId::Primes2Naive, AppId::KvServe]) {
            let fetch_only = matches!(app, AppId::Gfetch | AppId::IMatMult);
            assert_eq!(app.g_over_l(), if fetch_only { 2.3 } else { 2.0 }, "{}", app.name());
            assert_eq!(app.g_over_l(), app.make(Scale::Bench).g_over_l(), "{}", app.name());
        }
    }

    #[test]
    fn make_app_applies_serving_overrides() {
        let g = Grid::serving();
        let j = g.jobs().into_iter().find(|j| j.req_rate == Some(500)).unwrap();
        // The override reaches the app: a sanity run would use it, but
        // here it is enough that instantiation succeeds and the batch
        // path is untouched.
        assert_eq!(j.make_app().name(), "KvServe");
        let paper = &Grid::paper().jobs()[0];
        assert_eq!(paper.make_app().name(), paper.app.name());
    }

    #[test]
    fn overload_preset_sweeps_protection_knobs_through_saturation() {
        let g = Grid::overload();
        let jobs = g.jobs();
        // 2 policies x 2 offline (healthy + node-loss) x 2 rates
        // x 2 depths x 2 deadlines x 2 quotas, numa placement only.
        assert_eq!(jobs.len(), 64);
        assert!(jobs.iter().all(|j| j.app == AppId::KvServe && j.placement == Placement::Numa));
        assert!(jobs.iter().all(|j| {
            j.queue_depth.is_some() && j.deadline_ns.is_some() && j.tenant_quota.is_some()
        }));
        // The healthy sentinel: a zero offline_at entry schedules nothing.
        let healthy = jobs.iter().filter(|j| j.offline_at.is_none()).count();
        assert_eq!(healthy, 32);
        assert!(jobs
            .iter()
            .filter(|j| j.offline_at.is_none())
            .all(|j| j.hard_schedule().is_empty()));
        assert!(jobs
            .iter()
            .filter(|j| j.offline_at.is_some())
            .all(|j| j.hard_schedule().len() == 1));
        let j = jobs
            .iter()
            .find(|j| {
                j.req_rate == Some(32_000)
                    && j.queue_depth == Some(8)
                    && j.deadline_ns == Some(400_000)
                    && j.tenant_quota == Some(800)
            })
            .expect("fully protected saturated cell");
        assert!(j.label().contains("qd=8"), "label: {}", j.label());
        assert!(j.label().contains("dl=400000"), "label: {}", j.label());
        assert!(j.label().contains("tq=800"), "label: {}", j.label());
        let jj = j.to_json().to_string_flat();
        assert!(jj.contains("\"queue_depth\":8"));
        assert!(jj.contains("\"deadline_ns\":400000"));
        assert!(jj.contains("\"tenant_quota\":800"));
        let gj = g.to_json().to_string_flat();
        assert!(gj.contains("\"queue_depths\":[0,8]"));
        assert!(gj.contains("\"deadlines_ns\":[0,400000]"));
        assert!(gj.contains("\"tenant_quotas\":[0,800]"));
    }

    #[test]
    fn overload_knobs_reach_the_serving_app_and_collapse_for_batch() {
        // The knobs reach ServeParams through make_app (instantiation
        // succeeds with them applied) and collapse for batch apps.
        let g = Grid::overload();
        let j = g.jobs().into_iter().find(|j| j.queue_depth == Some(8)).unwrap();
        assert_eq!(j.make_app().name(), "KvServe");
        let mut mixed = Grid::overload();
        mixed.apps = vec![AppId::Gfetch, AppId::KvServe];
        let batch: Vec<_> =
            mixed.jobs().into_iter().filter(|j| j.app == AppId::Gfetch).collect();
        // Gfetch keeps only the policy x offline axes: 2 x 2 = 4 cells.
        assert_eq!(batch.len(), 4);
        assert!(batch.iter().all(|j| {
            j.queue_depth.is_none() && j.deadline_ns.is_none() && j.tenant_quota.is_none()
        }));
    }

    #[test]
    fn an_axis_a_preset_leaves_empty_is_mentioned_nowhere() {
        // Byte-compatibility, for every (preset, emit-only-when-set axis)
        // pair at once: a grid that leaves the axis empty serializes
        // exactly as it did before the axis existed — the axis is a key
        // of neither the grid document nor any job document, and in no
        // label. (A key, not any string: the `policies` grid's name is
        // the policy axis's list key.)
        let quoted = |key: &str| format!("\"{key}\":");
        for name in Grid::preset_names() {
            let g = Grid::named(name).unwrap();
            let grid_doc = g.to_json().to_string_flat();
            let jobs = g.jobs();
            assert_eq!(grid_doc.contains("vt_budget"), g.vt_budget.is_some(), "{name}");
            assert!(jobs.iter().all(|j| j.vt_budget == g.vt_budget), "{name}");
            for axis in AXES.iter().filter(|a| a.optional && (a.values)(&g).is_empty()) {
                let what = format!("{name} grid, {} axis", axis.list_key);
                assert!(!grid_doc.contains(&quoted(axis.list_key)), "{what}: grid document");
                let tag = match axis.tag {
                    Tag::Qualifier(tag) | Tag::Eq(tag) => format!(" {tag}="),
                    // The failure pair, the only optional axes without a
                    // tag of their own, prints as one `off=N@Tns` piece.
                    Tag::With(_) | Tag::None => " off=".to_string(),
                };
                for j in &jobs {
                    assert_eq!((axis.get)(j), None, "{what}: {}", j.label());
                    assert!(!j.to_json().to_string_flat().contains(&quoted(axis.key)), "{what}");
                    assert!(!j.label().contains(&tag), "{what}: label {}", j.label());
                }
            }
            if g.offline_at.is_empty() {
                assert!(jobs.iter().all(|j| j.hard_schedule().is_empty()), "{name}");
            }
        }
    }

    /// FNV-1a over the `label()` sequence of a grid's jobs.
    fn label_digest(jobs: &[JobSpec]) -> u64 {
        let bytes = jobs.iter().flat_map(|j| j.label().into_bytes().into_iter().chain([b'\n']));
        bytes.fold(0xcbf2_9ce4_8422_2325, |d, b| (d ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
    }

    #[test]
    fn grid_order_is_the_order_the_nested_loops_produced() {
        // Job count and label-sequence digest of every preset and of the
        // three mixed grids the tests above build, recorded at the parent
        // commit, where `Grid::jobs` was an 18-deep `for` nest: the
        // table-driven expansion must yield the same cells in the same
        // order. Four of the presets have no committed document to pin
        // them otherwise. `threshold` and `page-size` were later reshaped
        // into the bench binaries' experiments and `speedup` and
        // `policies` added; their rows were recorded then.
        let mixed = |mut g: Grid| {
            g.apps = vec![AppId::Gfetch, AppId::KvServe];
            g
        };
        let mut clamp = Grid::chaos();
        clamp.cpus = vec![2];
        clamp.offline_nodes = vec![1, 8];
        let at_parent: [(Grid, usize, u64); 16] = [
            (Grid::paper(), 24, 17769952996750020396),
            (Grid::paper_bench(), 24, 17769952996750020396),
            (Grid::smoke(), 6, 1756335651542545867),
            (Grid::policies(), 14, 9325919003048114891),
            (Grid::threshold(), 14, 1075114687477495436),
            (Grid::page_size(), 30, 16286528200713031365),
            (Grid::speedup(), 16, 15653979394277048321),
            (Grid::faults(), 3, 1012550219534599443),
            (Grid::pressure(), 12, 1334399404626712183),
            (Grid::chaos(), 16, 15468458493555459293),
            (Grid::topology(), 8, 2632981857153913757),
            (Grid::serving(), 40, 11381513688381529107),
            (Grid::overload(), 64, 15375696813615916421),
            (mixed(Grid::serving()), 45, 549914756728308496),
            (mixed(Grid::overload()), 68, 13846669724640078089),
            (clamp, 8, 12117045100425698781),
        ];
        assert_eq!(at_parent.len(), Grid::preset_names().count() + 3);
        for (grid, count, digest) in at_parent {
            let jobs = grid.jobs();
            assert_eq!((jobs.len(), label_digest(&jobs)), (count, digest), "grid {}", grid.name);
            assert!(jobs.iter().enumerate().all(|(i, j)| j.id == i && j.workers == j.cpus));
        }
    }
}
