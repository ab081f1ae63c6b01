//! The five workloads, the metric tables, and what one pass reports.
//!
//! Every workload is batch replay at saturation: a closed loop with one
//! client and a fixed, seeded unit of work per pass, reported as work
//! completed per host-second. The runtime has no network front-end, so
//! there is no open-loop latency metric to report.

use crate::json::Json;
use crate::refresh::RefreshWorld;
use crate::resolve::ResolveWorld;
use crate::serve::ServeWorld;
use crate::spans::Spans;
use crate::stats;

/// A metric as `BENCHMARK.json` declares it.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`. The program itself never reads it (`compare`
    /// takes directions from the manifest); a test holds the two equal.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
}

const fn metric(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics: what a user of the system sees. Every workload
/// reports every one; `ops` are queries served (`serve_*`), client
/// resolutions settled (`resolve_*`) or daily refresh ticks
/// (`zone_refresh`). Their regression bounds live in `BENCHMARK.json`.
pub const END_TO_END: [MetricDef; 4] = [
    metric("ops_per_s", "1/s", "higher"),
    metric("cpu_us_per_op", "us", "lower"),
    metric("peak_rss_mb", "MB", "lower"),
    metric("setup_s", "s", "lower"),
];

/// Per-layer metrics (layer = crate), measured by the traced run. A
/// workload reports 0 for a metric whose code is not on its path.
pub const PER_LAYER: [MetricDef; 55] = [
    metric("ditl.stream_ns_per_query", "ns", "lower"),
    metric("proto.encode_query_ns", "ns", "lower"),
    metric("proto.view_parse_ns", "ns", "lower"),
    metric("proto.encode_nxdomain_ns", "ns", "lower"),
    metric("proto.encode_referral_ns", "ns", "lower"),
    metric("proto.decode_referral_ns", "ns", "lower"),
    metric("zone.lookup_referral_ns", "ns", "lower"),
    metric("zone.lookup_nxdomain_ns", "ns", "lower"),
    metric("zone.build_ms", "ms", "lower"),
    metric("zone.snapshot_ms", "ms", "lower"),
    metric("zone.diff_compute_ms", "ms", "lower"),
    metric("zone.diff_codec_ms", "ms", "lower"),
    metric("server.handle_referral_ns", "ns", "lower"),
    metric("server.handle_nxdomain_ns", "ns", "lower"),
    metric("server.node_roundtrip_ns", "ns", "lower"),
    metric("runtime.name_lookup_ns", "ns", "lower"),
    metric("runtime.serve_frame_memo_ns", "ns", "lower"),
    metric("runtime.serve_frame_nomemo_ns", "ns", "lower"),
    metric("runtime.memo_self_ns", "ns", "lower"),
    metric("runtime.nomemo_self_ns", "ns", "lower"),
    metric("runtime.inject_ns_per_query", "ns", "lower"),
    metric("runtime.ring_roundtrip_ns_per_batch", "ns", "lower"),
    metric("runtime.pipeline_overhead_share", "share", "lower"),
    metric("runtime.memo_hit_share", "share", "higher"),
    metric("runtime.bytes_out_per_query", "B", "lower"),
    metric("resolver.cache_hit_ns", "ns", "lower"),
    metric("resolver.cache_miss_ns", "ns", "lower"),
    metric("resolver.cache_insert_ns", "ns", "lower"),
    metric("resolver.cache_insert_negative_ns", "ns", "lower"),
    metric("resolver.srtt_pick_ns", "ns", "lower"),
    metric("resolver.upstream_per_resolution", "count", "lower"),
    metric("resolver.cache_answer_share", "share", "higher"),
    metric("netsim.wheel_ns_per_op", "ns", "lower"),
    metric("netsim.sim_ns_per_event", "ns", "lower"),
    metric("netsim.psim1_ns_per_event", "ns", "lower"),
    metric("netsim.psim2_ns_per_event", "ns", "lower"),
    metric("netsim.psim_sync_overhead_ratio", "ratio", "lower"),
    metric("experiments.parsim_world_build_ms", "ms", "lower"),
    metric("obs.counter_inc_ns", "ns", "lower"),
    metric("dnssec.publish_ms", "ms", "lower"),
    metric("dnssec.full_verify_ms", "ms", "lower"),
    metric("dnssec.apply_diff_ms", "ms", "lower"),
    metric("dnssec.sigs_per_day", "count", "lower"),
    metric("delta.zonefile_build_ms", "ms", "lower"),
    metric("delta.rsync_sig_delta_ms", "ms", "lower"),
    metric("delta.bytes_down_per_day", "B", "lower"),
    metric("core.tick_steady_ms", "ms", "lower"),
    metric("core.tick_cold_ms", "ms", "lower"),
    metric("core.tick_self_ms", "ms", "lower"),
    metric("core.incremental_share", "share", "higher"),
    metric("util.sha256_mb_s", "MB/s", "higher"),
    metric("util.lzss_compress_mb_s", "MB/s", "higher"),
    metric("mc.explored_states_per_s", "1/s", "higher"),
    metric("budget.unattributed_share", "share", "lower"),
    metric("budget.trace_overhead_share", "share", "lower"),
];

/// How much work a pass does: the benchmark's declared sizes, or about a
/// fiftieth of them for the smoke test that keeps every entry point wired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// The benchmark's workloads. Names are part of `BENCHMARK.json`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ServeDitl,
    ServeReferral,
    ResolveSim,
    ResolvePsim,
    ZoneRefresh,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::ServeDitl,
        Workload::ServeReferral,
        Workload::ResolveSim,
        Workload::ResolvePsim,
        Workload::ZoneRefresh,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeDitl => "serve_ditl",
            Workload::ServeReferral => "serve_referral",
            Workload::ResolveSim => "resolve_sim",
            Workload::ResolvePsim => "resolve_psim",
            Workload::ZoneRefresh => "zone_refresh",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists, as `BENCHMARK.json` records it.
    pub fn why(self) -> &'static str {
        match self {
            Workload::ServeDitl => {
                "The paper's 61%-junk root torrent through runtime::serve with the memo on: \
                 99.8% memo hits, so proto view/encode, the memo Cache and the ring do the work."
            }
            Workload::ServeReferral => {
                "90% referrals with the memo off through the same runtime::serve: every query \
                 walks AuthServer, Zone::lookup_ref and a compressed referral encode; a memo win must not move it."
            }
            Workload::ResolveSim => {
                "Full recursive resolution of the DITL unit (stub, cache, SRTT, wire, sim, root fleet, \
                 TLD servers) on one timing wheel: the engine every section-4 experiment uses."
            }
            Workload::ResolvePsim => {
                "The identical world on two wheels under conservative-lookahead epochs: a netsim::psim \
                 change moves only this one, and its ratio to resolve_sim is the 2-shard speed-up."
            }
            Workload::ZoneRefresh => {
                "The paper's proposal itself: daily RootZoneManager ticks over 1,532-TLD churn \
                 (publish-sign, rsync delta, ZoneDiff, incremental DNSSEC, install), the write side of zone."
            }
        }
    }

    /// What one operation is, for printing.
    pub fn op(self) -> &'static str {
        match self {
            Workload::ServeDitl | Workload::ServeReferral => "query",
            Workload::ResolveSim | Workload::ResolvePsim => "resolution",
            Workload::ZoneRefresh => "daily refresh",
        }
    }

    /// Threads the workload runs on; never more than
    /// [`THREAD_BUDGET`](crate::stamp::THREAD_BUDGET).
    pub fn threads(self) -> usize {
        match self {
            // The injector on the calling thread plus one shard.
            Workload::ServeDitl | Workload::ServeReferral => 2,
            Workload::ResolveSim => 1,
            Workload::ResolvePsim => 2,
            Workload::ZoneRefresh => 1,
        }
    }

    /// Builds the workload's world from `seed`. `perturbed` builds a
    /// slightly different input on purpose: the planted fault that proves
    /// the pass-to-pass gate can go red.
    pub fn build(self, seed: u64, scale: Scale, perturbed: bool) -> Box<dyn World> {
        match self {
            Workload::ServeDitl => Box::new(ServeWorld::build(true, seed ^ perturbed as u64, scale)),
            Workload::ServeReferral => Box::new(ServeWorld::build(false, seed ^ perturbed as u64, scale)),
            Workload::ResolveSim => Box::new(ResolveWorld::build(1, scale, perturbed)),
            Workload::ResolvePsim => Box::new(ResolveWorld::build(2, scale, perturbed)),
            Workload::ZoneRefresh => Box::new(RefreshWorld::build(seed ^ perturbed as u64, scale)),
        }
    }
}

/// What one pass — one deterministic unit of work — reports.
pub struct Pass {
    /// Host seconds the measured work took (gate checks excluded).
    pub seconds: f64,
    /// CPU seconds the process spent on it, all threads together.
    pub cpu_seconds: f64,
    /// Operations attempted.
    pub ops: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Correctness-gate violations; empty on a correct pass.
    pub errors: Vec<String>,
    /// Every deterministic output of the pass, printed so two commits can
    /// be diffed. Must be identical pass to pass; never pinned to a
    /// constant, so a later behaviour fix does not break the benchmark.
    pub fingerprint: String,
    /// Host milliseconds of each operation, for workloads that can time
    /// them from outside (the refresh ticks, cold day first).
    pub op_ms: Vec<f64>,
    /// Counts the layers report about the pass; they repeat exactly.
    pub counts: Vec<(&'static str, f64)>,
}

impl Pass {
    /// The value of a named count.
    pub fn count(&self, name: &str) -> f64 {
        value_of(&self.counts, name)
    }
}

/// The value listed under `name`, 0 when it is not listed.
pub fn value_of(pairs: &[(&'static str, f64)], name: &str) -> f64 {
    pairs.iter().find(|(n, _)| *n == name).map(|(_, v)| *v).unwrap_or(0.0)
}

/// End-to-end nanoseconds per operation: the median over `passes`.
pub fn median_op_ns(passes: &[Pass]) -> f64 {
    stats::median(
        &passes
            .iter()
            .map(|p| p.seconds * 1e9 / p.ops as f64)
            .collect::<Vec<_>>(),
    )
}

/// The per-operation times of `passes`, split into each pass's first
/// operation (the cold start) and all the later ones (the steady state).
pub fn cold_and_steady_ms(passes: &[Pass]) -> (Vec<f64>, Vec<f64>) {
    let cold = passes.iter().filter_map(|p| p.op_ms.first().copied()).collect();
    let steady = passes.iter().flat_map(|p| p.op_ms.iter().skip(1).copied()).collect();
    (cold, steady)
}

/// One line of a workload's per-operation budget.
pub struct BudgetRow {
    /// The per-layer metric (or product of metrics) the row is made of.
    pub label: String,
    /// Its contribution to one operation, in [`Traced::unit`].
    pub per_op: f64,
}

/// What the traced run of one workload produces.
pub struct Traced {
    /// Per-layer metrics measured on this workload.
    pub layers: Vec<(&'static str, f64)>,
    /// Rows on the blocking path of one operation.
    pub budget: Vec<BudgetRow>,
    /// `"ns"` or `"ms"`: the unit of the budget rows and of `op_cost`.
    pub unit: &'static str,
    /// End-to-end cost of one operation in `unit`, from the traced passes.
    pub op_cost: f64,
    /// Cost of recording spans, as a share of the traced work.
    pub trace_overhead_share: f64,
    /// Measured facts that are not on the blocking path, one line each.
    pub notes: Vec<String>,
}

/// A built workload.
pub trait World {
    /// Runs one pass and checks it.
    fn pass(&mut self) -> Pass;

    /// The declared input: sizes, query mix, seed use.
    fn describe(&self) -> Json;

    /// Measures the layers under this workload, recording spans. `passes`
    /// are the real passes the traced run already made.
    fn trace(&mut self, spans: &mut Spans, passes: &[Pass]) -> Traced;
}
