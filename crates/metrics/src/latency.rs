//! Tail latency: per-request virtual-time latencies captured in a
//! fixed-bucket log-scale histogram with deterministic percentile
//! extraction.
//!
//! Serving workloads care about the *distribution* of request latency,
//! not its mean: an overloaded shard shows up as a p99/p999 blow-up
//! long before it moves the average. The histogram here is sized for
//! that question and for this repository's byte-identity discipline:
//!
//! * **Fixed buckets.** Bucket boundaries are a pure function of the
//!   bucket index — no adaptive resizing, no stored samples — so two
//!   runs recording the same latencies produce the same counts in the
//!   same buckets, and the serialized form is byte-identical.
//! * **Log scale with sub-buckets.** Each power-of-two octave is split
//!   into [`SUB_BUCKETS`] linear sub-buckets (the HDR-histogram idea),
//!   bounding the relative quantization error at `1/SUB_BUCKETS`
//!   (12.5%) across the full `u64` nanosecond range while keeping the
//!   table a few hundred counters.
//! * **Deterministic percentiles.** `percentile(q)` walks the
//!   cumulative counts to the bucket containing the rank-`ceil(q*n)`
//!   sample and reports that bucket's inclusive upper bound — integer
//!   arithmetic on integer counts, identical on every platform.

use crate::json::Json;

/// Linear sub-buckets per power-of-two octave.
const SUB_BUCKETS: usize = 8;

/// Values below `SUB_BUCKETS` get one exact bucket each; every octave
/// above contributes `SUB_BUCKETS` buckets up to 2^64.
const N_BUCKETS: usize = SUB_BUCKETS + 61 * SUB_BUCKETS;

/// A fixed-bucket log-scale histogram of nanosecond latencies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    /// Largest recorded value, kept exactly (the histogram itself
    /// quantizes; the true maximum is worth one extra integer).
    max_ns: u64,
}

/// The bucket a value falls into.
fn bucket_of(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        return v as usize;
    }
    // v >= 8: octave o = floor(log2 v) >= 3; the three bits below the
    // leading one select the sub-bucket.
    let o = 63 - v.leading_zeros() as usize;
    let sub = ((v >> (o - 3)) & 0x7) as usize;
    SUB_BUCKETS + (o - 3) * SUB_BUCKETS + sub
}

/// The inclusive upper bound of a bucket (what percentiles report).
fn bucket_hi(idx: usize) -> u64 {
    if idx < SUB_BUCKETS {
        return idx as u64;
    }
    let g = (idx - SUB_BUCKETS) / SUB_BUCKETS;
    let sub = ((idx - SUB_BUCKETS) % SUB_BUCKETS) as u64;
    // (base+1)*2^g - 1; the topmost bucket's bound is exactly 2^64 - 1,
    // so the addition must wrap rather than widen.
    ((SUB_BUCKETS as u64 + sub) << g).wrapping_add(1u64 << g).wrapping_sub(1)
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram { counts: vec![0; N_BUCKETS], total: 0, max_ns: 0 }
    }

    /// Records one latency sample.
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.total += 1;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Folds another histogram into this one (order-insensitive: counts
    /// add, the maximum is the maximum of maxima).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Number of recorded samples.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Largest recorded value, exact.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// The latency at quantile `q` in `[0, 1]`: the inclusive upper
    /// bound of the bucket holding the sample of rank `ceil(q * total)`
    /// (clamped to at least rank 1), so ties and repeated samples
    /// resolve to one deterministic answer. An empty histogram reports
    /// zero. The true maximum caps the answer, so a one-sample
    /// histogram reports that sample's value at every quantile.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        // ceil(q * total) without floating-point rounding surprises:
        // q is one of a handful of exact constants, but the product is
        // computed in integer space scaled by 2^20.
        let scaled = (q.clamp(0.0, 1.0) * (1u64 << 20) as f64) as u128;
        let rank = (scaled * self.total as u128).div_ceil(1u128 << 20).max(1) as u64;
        let rank = rank.min(self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_hi(i).min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// Median latency.
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> u64 {
        self.percentile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.percentile(0.999)
    }

    /// The non-empty buckets as `(index, count)` pairs, ascending — the
    /// exact-integer form checkpoints persist.
    pub fn to_sparse(&self) -> Vec<(usize, u64)> {
        self.counts.iter().enumerate().filter(|(_, &c)| c > 0).map(|(i, &c)| (i, c)).collect()
    }

    /// [`Self::to_sparse`] as JSON: `[[index, count], ...]`, the form
    /// reports and checkpoints store.
    pub fn sparse_json(&self) -> Json {
        let pair = |(i, c): (usize, u64)| Json::Arr(vec![Json::from(i), Json::from(c)]);
        Json::Arr(self.to_sparse().into_iter().map(pair).collect())
    }

    /// Rebuilds a histogram from its sparse form and exact maximum.
    /// Out-of-range bucket indices are typed errors (a corrupt
    /// checkpoint, not a panic).
    pub fn from_sparse(
        pairs: &[(usize, u64)],
        max_ns: u64,
    ) -> Result<LatencyHistogram, HistogramError> {
        let mut h = LatencyHistogram::new();
        for &(i, c) in pairs {
            if i >= N_BUCKETS {
                return Err(HistogramError::BucketOutOfRange { index: i, limit: N_BUCKETS });
            }
            h.counts[i] += c;
            h.total += c;
        }
        h.max_ns = max_ns;
        Ok(h)
    }
}

/// What can go wrong rebuilding a histogram from persisted form. Typed
/// so checkpoint and report loaders can distinguish corruption from IO
/// problems instead of string-matching.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HistogramError {
    /// A sparse pair named a bucket index past the fixed table.
    BucketOutOfRange { index: usize, limit: usize },
}

impl std::fmt::Display for HistogramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HistogramError::BucketOutOfRange { index, limit } => {
                write!(f, "latency bucket index {index} out of range (limit {limit})")
            }
        }
    }
}

impl std::error::Error for HistogramError {}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram::new()
    }
}

/// Why a request was turned away instead of served. The serving stack
/// counts each reason separately so the ledger
/// `generated == admitted + shed_queue_full + shed_deadline + shed_quota`
/// accounts for every generated request exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedReason {
    /// The worker's bounded request queue was at capacity when the
    /// request arrived.
    QueueFull,
    /// The request waited past its deadline before the worker dequeued
    /// it (this is also how a drained processor's backlog sheds: the
    /// pause while its threads re-home blows the deadline).
    DeadlineExpired,
    /// The tenant's admission token bucket was empty at arrival.
    QuotaExceeded,
}

impl std::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ShedReason::QueueFull => "queue-full",
            ShedReason::DeadlineExpired => "deadline-expired",
            ShedReason::QuotaExceeded => "quota-exceeded",
        })
    }
}

/// Everything a serving workload measures: request counts, the latency
/// distribution, and — when admission control or deadlines are engaged
/// — the shed ledger and the goodput distribution. Attached to a run
/// report only by serving applications, so batch runs serialize
/// byte-identically to reports that predate this type; the overload
/// fields serialize only when `limited` is set, so serving runs with
/// every knob disabled stay byte-identical too.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServingReport {
    /// Total requests generated (every arrival, served or shed).
    pub requests: u64,
    /// Read requests served.
    pub gets: u64,
    /// Write requests served.
    pub puts: u64,
    /// Requests admitted and served (`gets + puts`).
    pub admitted: u64,
    /// Requests shed because a worker queue was at capacity.
    pub shed_queue_full: u64,
    /// Requests shed because they waited past their deadline.
    pub shed_deadline: u64,
    /// Requests rejected by per-tenant admission control.
    pub shed_quota: u64,
    /// True when any overload knob (queue bound, deadline, quota) was
    /// engaged; gates serialization of the overload fields.
    pub limited: bool,
    /// Per-request virtual-time latency (completion minus scheduled
    /// arrival, so queueing delay under overload is part of it) of
    /// served requests.
    pub latency: LatencyHistogram,
    /// Latency of requests that were served *and* met their deadline —
    /// the goodput distribution. With no deadline configured it equals
    /// `latency`.
    pub goodput: LatencyHistogram,
}

impl ServingReport {
    /// A report with every overload knob disabled — the pre-admission
    /// shape where every generated request is served.
    pub fn unlimited(requests: u64, gets: u64, puts: u64, latency: LatencyHistogram) -> Self {
        ServingReport {
            requests,
            gets,
            puts,
            admitted: gets + puts,
            shed_queue_full: 0,
            shed_deadline: 0,
            shed_quota: 0,
            limited: false,
            goodput: latency.clone(),
            latency,
        }
    }

    /// Adds `n` requests to the shed ledger under the given reason.
    pub fn shed(&mut self, reason: ShedReason, n: u64) {
        match reason {
            ShedReason::QueueFull => self.shed_queue_full += n,
            ShedReason::DeadlineExpired => self.shed_deadline += n,
            ShedReason::QuotaExceeded => self.shed_quota += n,
        }
    }

    /// Total requests shed for any reason.
    pub fn shed_total(&self) -> u64 {
        self.shed_queue_full + self.shed_deadline + self.shed_quota
    }

    /// True when every generated request is accounted for:
    /// `requests == admitted + shed_queue_full + shed_deadline + shed_quota`.
    pub fn ledger_balanced(&self) -> bool {
        self.requests == self.admitted + self.shed_total()
    }

    /// The report as one deterministic JSON object: counts, the four
    /// headline percentiles, the exact maximum, and the sparse buckets
    /// (so a consumer can re-derive any other quantile). When `limited`
    /// is set the shed ledger, goodput percentiles, and goodput buckets
    /// appear too; when clear the layout is byte-identical to reports
    /// that predate admission control.
    pub fn to_json(&self) -> Json {
        SERVING_BLOCK
            .iter()
            .filter(|(_, overload, _)| self.limited || !overload)
            .fold(Json::obj(), |j, (key, _, value)| j.field(key, value(self)))
    }
}

type ServingLeaf = (&'static str, bool, fn(&ServingReport) -> Json);

/// [`ServingReport::to_json`] in serialization order: key, whether the
/// leaf belongs to the overload ledger (serialized only on `limited`
/// reports), and value.
const SERVING_BLOCK: [ServingLeaf; 19] = [
    ("requests", false, |s| s.requests.into()),
    ("gets", false, |s| s.gets.into()),
    ("puts", false, |s| s.puts.into()),
    ("admitted", true, |s| s.admitted.into()),
    ("shed_queue_full", true, |s| s.shed_queue_full.into()),
    ("shed_deadline", true, |s| s.shed_deadline.into()),
    ("shed_quota", true, |s| s.shed_quota.into()),
    ("p50_ns", false, |s| s.latency.p50().into()),
    ("p95_ns", false, |s| s.latency.p95().into()),
    ("p99_ns", false, |s| s.latency.p99().into()),
    ("p999_ns", false, |s| s.latency.p999().into()),
    ("max_ns", false, |s| s.latency.max_ns().into()),
    ("goodput_p50_ns", true, |s| s.goodput.p50().into()),
    ("goodput_p95_ns", true, |s| s.goodput.p95().into()),
    ("goodput_p99_ns", true, |s| s.goodput.p99().into()),
    ("goodput_p999_ns", true, |s| s.goodput.p999().into()),
    ("goodput_max_ns", true, |s| s.goodput.max_ns().into()),
    ("buckets", false, |s| s.latency.sparse_json()),
    ("goodput_buckets", true, |s| s.goodput.sparse_json()),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zero_everywhere() {
        let h = LatencyHistogram::new();
        assert_eq!(h.total(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p999(), 0);
        assert_eq!(h.max_ns(), 0);
        assert!(h.to_sparse().is_empty());
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let mut h = LatencyHistogram::new();
        h.record(12_345);
        for q in [0.0, 0.5, 0.95, 0.99, 0.999, 1.0] {
            assert_eq!(h.percentile(q), 12_345, "q={q}");
        }
    }

    #[test]
    fn tiny_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..8u64 {
            h.record(v);
        }
        assert_eq!(h.percentile(1.0 / 8.0), 0, "rank 1 is the zero sample");
        assert_eq!(h.p50(), 3);
        assert_eq!(h.percentile(1.0), 7);
    }

    #[test]
    fn ties_resolve_to_one_bucket() {
        let mut h = LatencyHistogram::new();
        for _ in 0..1000 {
            h.record(100);
        }
        // All mass in one bucket: every quantile reports it, capped by
        // the exact maximum.
        assert_eq!(h.p50(), 100);
        assert_eq!(h.p999(), 100);
    }

    #[test]
    fn bucket_boundaries_round_up_within_an_octave() {
        // 1000 falls in octave [512, 1024) whose sub-buckets are 64
        // wide; its bucket is [960, 1023].
        assert_eq!(bucket_hi(bucket_of(1000)), 1023);
        // Exact powers of two start their own sub-bucket.
        assert_eq!(bucket_hi(bucket_of(1024)), 1151);
        // Octave [8, 16) still has unit-width sub-buckets, so every
        // value below 16 is exact; the first multi-value bucket is
        // [16, 17].
        assert_eq!(bucket_hi(bucket_of(8)), 8);
        assert_eq!(bucket_hi(bucket_of(16)), 17);
        assert_eq!(bucket_of(17), bucket_of(16));
        assert_ne!(bucket_of(18), bucket_of(17));
        // Quantization error stays within 12.5%.
        for v in [17u64, 1000, 123_456, 7_000_000_000] {
            let hi = bucket_hi(bucket_of(v));
            assert!(hi >= v && (hi - v) as f64 <= v as f64 * 0.125, "v={v} hi={hi}");
        }
        // Huge values neither panic nor leave the table.
        assert!(bucket_of(u64::MAX) < N_BUCKETS);
        assert_eq!(bucket_hi(bucket_of(u64::MAX)), u64::MAX);
    }

    #[test]
    fn percentiles_walk_the_distribution() {
        let mut h = LatencyHistogram::new();
        // 900 fast samples, 90 slow, 10 very slow.
        for _ in 0..900 {
            h.record(1_000);
        }
        for _ in 0..90 {
            h.record(50_000);
        }
        for _ in 0..10 {
            h.record(3_000_000);
        }
        assert!(h.p50() < 1_200, "p50 = {}", h.p50());
        assert!(h.p95() >= 50_000 && h.p95() < 60_000, "p95 = {}", h.p95());
        assert!(h.p999() >= 3_000_000, "p999 = {}", h.p999());
        assert_eq!(h.max_ns(), 3_000_000);
    }

    #[test]
    fn merge_is_the_sum_of_parts() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut whole = LatencyHistogram::new();
        for v in [5u64, 17, 99, 1_000, 64_000] {
            a.record(v);
            whole.record(v);
        }
        for v in [3u64, 250_000] {
            b.record(v);
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn sparse_form_round_trips_exactly() {
        let mut h = LatencyHistogram::new();
        for v in [0u64, 7, 8, 1_000, 1_001, 250_000, 250_000] {
            h.record(v);
        }
        let back = LatencyHistogram::from_sparse(&h.to_sparse(), h.max_ns()).unwrap();
        assert_eq!(back, h);
        assert!(LatencyHistogram::from_sparse(&[(N_BUCKETS, 1)], 0).is_err());
    }

    #[test]
    fn serving_report_serializes_deterministically() {
        let mut latency = LatencyHistogram::new();
        latency.record(1_000);
        latency.record(9_000);
        let r = ServingReport::unlimited(2, 1, 1, latency);
        let s = r.to_json().to_string_flat();
        assert_eq!(s, r.to_json().to_string_flat());
        crate::json::validate(&s).unwrap();
        assert!(s.starts_with("{\"requests\":2,\"gets\":1,\"puts\":1,\"p50_ns\":"));
        assert!(s.contains("\"max_ns\":9000"));
        assert!(s.contains("\"buckets\":[["));
    }

    #[test]
    fn unlimited_report_hides_every_overload_field() {
        let mut latency = LatencyHistogram::new();
        latency.record(500);
        let r = ServingReport::unlimited(1, 1, 0, latency);
        let s = r.to_json().to_string_flat();
        for hidden in ["admitted", "shed_", "goodput"] {
            assert!(!s.contains(hidden), "`{hidden}` must not serialize unlimited: {s}");
        }
        assert!(r.ledger_balanced());
    }

    #[test]
    fn limited_report_carries_ledger_and_goodput() {
        let mut latency = LatencyHistogram::new();
        latency.record(1_000);
        latency.record(700_000);
        let mut goodput = LatencyHistogram::new();
        goodput.record(1_000);
        let mut r = ServingReport {
            requests: 5,
            gets: 1,
            puts: 1,
            admitted: 2,
            shed_queue_full: 0,
            shed_deadline: 0,
            shed_quota: 0,
            limited: true,
            latency,
            goodput,
        };
        r.shed(ShedReason::QueueFull, 1);
        r.shed(ShedReason::DeadlineExpired, 1);
        r.shed(ShedReason::QuotaExceeded, 1);
        assert_eq!(r.shed_total(), 3);
        assert!(r.ledger_balanced());
        let s = r.to_json().to_string_flat();
        crate::json::validate(&s).unwrap();
        assert!(s.contains(
            "\"admitted\":2,\"shed_queue_full\":1,\"shed_deadline\":1,\"shed_quota\":1"
        ));
        assert!(s.contains("\"goodput_p50_ns\":"));
        assert!(s.contains("\"goodput_max_ns\":1000"));
        assert!(s.contains("\"goodput_buckets\":[["));
        // Field order is fixed: the ledger sits between the counts and
        // the latency percentiles.
        let ledger = s.find("\"admitted\"").unwrap();
        assert!(s.find("\"puts\"").unwrap() < ledger);
        assert!(ledger < s.find("\"p50_ns\"").unwrap());
    }

    #[test]
    fn shed_reasons_name_themselves() {
        assert_eq!(ShedReason::QueueFull.to_string(), "queue-full");
        assert_eq!(ShedReason::DeadlineExpired.to_string(), "deadline-expired");
        assert_eq!(ShedReason::QuotaExceeded.to_string(), "quota-exceeded");
    }

    #[test]
    fn from_sparse_error_is_typed() {
        let err = LatencyHistogram::from_sparse(&[(N_BUCKETS, 1)], 0).unwrap_err();
        assert_eq!(err, HistogramError::BucketOutOfRange { index: N_BUCKETS, limit: N_BUCKETS });
        assert!(err.to_string().contains("out of range"));
    }
}
