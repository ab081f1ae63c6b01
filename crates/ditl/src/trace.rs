//! Trace generation: one day of root-bound queries, streamed in constant
//! memory.
//!
//! The seed materialized the whole day as a `Vec<Query>` before
//! classification, which caps the study at ~1/1000 of the paper's DITL-2018
//! volume (5.7B queries would need ~68 GB). This module replaces that with
//! [`TraceStream`], an iterator that yields queries on demand:
//!
//! * **Per-resolver substreams.** Every resolver owns an independent
//!   `DetRng` seeded by `splitmix64(seed, resolver)` and emits its whole
//!   day before the next resolver starts (resolver-major order). Nothing is
//!   buffered beyond the current burst, so memory is O(unit population),
//!   never O(queries).
//! * **Exact budgets without global state.** The §2.2 budget split (61%
//!   bogus, the bogus-only vs normal shares, the valid remainder) is
//!   enforced by cumulative rounding over per-resolver heavy-tailed
//!   weights: resolver *r* emits `floor(W_r/W · B) - floor(W_{r-1}/W · B)`
//!   queries of a budget `B`, so any prefix of the population has consumed
//!   exactly the floor of its weight share and the full population lands on
//!   `B` exactly — no top-up pass over a materialized trace needed.
//! * **Scale by unit replication.** `replicas = k` appends `k` copies of
//!   the calibrated 1/1000 unit with relabeled resolver ids (replica `j`
//!   owns ids `[j·R, (j+1)·R)`). Every classified count scales by exactly
//!   `k`, so every *fraction* in the §2.2 report is bit-identical at every
//!   scale — the determinism net that lets the 1/1000 report stand in for
//!   the 5.7B-query run — while distinct-resolver and query counts reach
//!   the paper's absolute numbers.
//! * **Order-stable sharding.** [`TraceStream::shard`] cuts the global
//!   resolver space into `n` contiguous ranges; shard outputs are disjoint
//!   by construction and concatenating them in shard order reproduces the
//!   unsharded stream byte for byte (gated by `tests/prop_stream.rs`).

use rootless_util::rng::{substream_seed, DetRng};

use crate::population::{classify_resolvers, tld_weights, ResolverClass, WorkloadConfig};

/// Seconds in the trace day.
pub const DAY_SECS: u32 = 86_400;
/// 15-minute windows per day (the §2.2 relaxed cache model).
pub const WINDOWS_PER_DAY: u32 = 96;
/// Seconds per 15-minute window.
const WINDOW_SECS: u32 = DAY_SECS / WINDOWS_PER_DAY;

/// What a query asked for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryName {
    /// Index into the valid TLD table.
    ValidTld(u32),
    /// Index into the bogus label pool.
    BogusTld(u32),
}

/// One query in the trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Query {
    /// Second-of-day timestamp.
    pub time: u32,
    /// Resolver id.
    pub resolver: u32,
    /// TLD of the queried name.
    pub name: QueryName,
}

impl Query {
    /// The 15-minute window this query falls in.
    pub fn window(&self) -> u32 {
        self.time / WINDOW_SECS
    }
}

/// The per-resolver RNG: an independent splitmix64-derived substream, so a
/// shard can regenerate any resolver's day without replaying its neighbors.
fn resolver_rng(cfg: &WorkloadConfig, unit_resolver: u32) -> DetRng {
    DetRng::seed_from_u64(substream_seed(cfg.seed ^ 0x5eed_d171, unit_resolver as u64))
}

/// Heavy-tail shape for bogus-only per-resolver volumes (one stuck device
/// can hammer the roots all day).
const BOGUS_ONLY_PARETO_ALPHA: f64 = 1.2;
/// Milder heavy tail for normal resolvers' valid-query volumes.
const NORMAL_PARETO_ALPHA: f64 = 1.6;

/// The first draw from a resolver's substream is its day-volume weight;
/// emission re-derives the rng and re-takes this draw, so weights never
/// need storing.
fn resolver_weight(class: ResolverClass, rng: &mut DetRng) -> f64 {
    match class {
        ResolverClass::BogusOnly => rng.pareto(1.0, BOGUS_ONLY_PARETO_ALPHA),
        ResolverClass::Normal => rng.pareto(1.0, NORMAL_PARETO_ALPHA),
    }
}

/// Everything about one calibrated unit that is shared by all replicas and
/// shards: classes, the TLD popularity CDF, total weights and budgets. Size
/// is O(unit population + TLD count) — constant in both query volume and
/// replica count.
struct UnitPlan {
    classes: Vec<ResolverClass>,
    /// Cumulative TLD popularity for fast inverse sampling.
    cdf: Vec<f64>,
    bogus_w_total: f64,
    valid_w_total: f64,
    n_normal: u64,
    bogus_from_bogus_only: u64,
    bogus_from_normal: u64,
    valid_total: u64,
    mean_queries_per_pair: f64,
}

impl UnitPlan {
    fn build(cfg: &WorkloadConfig) -> UnitPlan {
        let classes = classify_resolvers(cfg);
        let weights = tld_weights(cfg);
        let total_weight: f64 = weights.iter().sum();
        let cdf: Vec<f64> = {
            let mut acc = 0.0;
            weights
                .iter()
                .map(|w| {
                    acc += w / total_weight;
                    acc
                })
                .collect()
        };

        let mut bogus_w_total = 0.0;
        let mut valid_w_total = 0.0;
        let mut n_bogus_only = 0u64;
        let mut n_normal = 0u64;
        for (r, &class) in classes.iter().enumerate() {
            let mut rng = resolver_rng(cfg, r as u32);
            let w = resolver_weight(class, &mut rng);
            match class {
                ResolverClass::BogusOnly => {
                    bogus_w_total += w;
                    n_bogus_only += 1;
                }
                ResolverClass::Normal => {
                    valid_w_total += w;
                    n_normal += 1;
                }
            }
        }

        let bogus_total = (cfg.total_queries as f64 * cfg.bogus_query_fraction) as u64;
        // The bogus-only share of the bogus budget goes unemitted if the
        // class is empty, mirroring the population: no devices, no leaks.
        let bogus_from_bogus_only = if n_bogus_only > 0 {
            (bogus_total as f64 * cfg.bogus_only_share) as u64
        } else {
            0
        };
        let bogus_from_normal = if n_normal > 0 { bogus_total - bogus_from_bogus_only } else { 0 };
        let valid_total = if n_normal > 0 { cfg.total_queries - bogus_total } else { 0 };
        let target_pairs = ((n_normal as f64) * cfg.tlds_per_resolver).max(1.0) as u64;
        let mean_queries_per_pair = valid_total as f64 / target_pairs as f64;

        UnitPlan {
            classes,
            cdf,
            bogus_w_total,
            valid_w_total,
            n_normal,
            bogus_from_bogus_only,
            bogus_from_normal,
            valid_total,
            mean_queries_per_pair,
        }
    }

    fn sample_tld(&self, rng: &mut DetRng) -> u32 {
        let u = rng.next_f64();
        match self.cdf.binary_search_by(|p| p.partial_cmp(&u).unwrap()) {
            Ok(i) => i as u32,
            Err(i) => (i.min(self.cdf.len() - 1)) as u32,
        }
    }
}

/// Cumulative-rounding state over one unit's resolver order. Reset at every
/// replica boundary, so replicas emit identical streams modulo resolver-id
/// relabeling.
#[derive(Default)]
struct UnitPrefix {
    bogus_w: f64,
    bogus_emitted: u64,
    normal_seen: u64,
    noise_emitted: u64,
    valid_w: f64,
    valid_emitted: u64,
}

impl UnitPrefix {
    /// Advances past resolver `unit_r`, returning this resolver's
    /// `(bogus, noise, valid)` query quotas.
    fn advance(&mut self, plan: &UnitPlan, class: ResolverClass, weight: f64) -> (u64, u64, u64) {
        match class {
            ResolverClass::BogusOnly => {
                self.bogus_w += weight;
                let upto =
                    (self.bogus_w / plan.bogus_w_total * plan.bogus_from_bogus_only as f64) as u64;
                // Every bogus-only resolver emits at least one query so the
                // distinct-resolver count matches the class assignment.
                let count = (upto - self.bogus_emitted).max(1);
                self.bogus_emitted = upto.max(self.bogus_emitted);
                (count, 0, 0)
            }
            ResolverClass::Normal => {
                self.normal_seen += 1;
                // Bogus background noise is spread evenly over the class.
                let noise_upto = plan.bogus_from_normal * self.normal_seen / plan.n_normal;
                let noise = noise_upto - self.noise_emitted;
                self.noise_emitted = noise_upto;
                self.valid_w += weight;
                let valid_upto =
                    (self.valid_w / plan.valid_w_total * plan.valid_total as f64) as u64;
                let valid = valid_upto - self.valid_emitted;
                self.valid_emitted = valid_upto;
                (0, noise, valid)
            }
        }
    }
}

/// Emission state for the resolver currently streaming. The slot buffer is
/// the only "collection" and it is a fixed 96-entry array — the stream
/// allocates nothing per query. One `EmitState` exists per stream (not per
/// query or resolver), so the inline array beats boxing it: a `Box` would
/// cost one heap allocation per (resolver, TLD) pair — millions per day.
#[allow(clippy::large_enum_variant)]
enum EmitState {
    /// Set up the resolver at the cursor.
    Fetch,
    /// A bogus-only resolver with `left` queries to go.
    Bogus { rng: DetRng, resolver: u32, left: u64 },
    /// A normal resolver's bogus background noise.
    Noise { rng: DetRng, resolver: u32, left: u64, valid_left: u64 },
    /// A normal resolver's bursty (resolver, TLD) pairs.
    Pairs {
        rng: DetRng,
        resolver: u32,
        /// Valid queries still owed by this resolver after the open pair.
        valid_left: u64,
        tld: u32,
        slots: [u32; WINDOWS_PER_DAY as usize],
        nslots: u32,
        k: u64,
        left_in_pair: u64,
    },
    /// Past the last resolver.
    Done,
}

/// A constant-memory iterator over one day of root-bound queries at
/// `replicas` × the configured unit volume, optionally restricted to a
/// contiguous shard of the global resolver space. See the module docs for
/// the determinism and memory arguments.
pub struct TraceStream {
    cfg: WorkloadConfig,
    plan: UnitPlan,
    /// Global resolver ids `[cursor, end)` remain to stream.
    cursor: u64,
    end: u64,
    prefix: UnitPrefix,
    state: EmitState,
}

impl TraceStream {
    /// The full stream: `replicas` copies of the unit, resolver-major.
    pub fn new(cfg: &WorkloadConfig, replicas: u64) -> TraceStream {
        Self::over_range(cfg, 0, replicas.saturating_mul(cfg.resolvers as u64))
    }

    /// Shard `index` of `shards`: the contiguous global resolver range
    /// `[index·G/shards, (index+1)·G/shards)` where `G = replicas ×
    /// unit resolvers`. Shards are disjoint, cover the population exactly,
    /// and concatenating them in index order reproduces [`TraceStream::new`]
    /// byte for byte — the property `root_load`/`traffic` replays and the
    /// tier-1 shard-equality gates stand on.
    pub fn shard(cfg: &WorkloadConfig, replicas: u64, shards: u64, index: u64) -> TraceStream {
        assert!(shards > 0, "shard(shards=0)");
        assert!(index < shards, "shard index {index} out of {shards}");
        let global = replicas.saturating_mul(cfg.resolvers as u64);
        let start = index * global / shards;
        let end = (index + 1) * global / shards;
        Self::over_range(cfg, start, end)
    }

    /// Total distinct resolvers in the full `replicas`-scaled population.
    pub fn global_resolvers(cfg: &WorkloadConfig, replicas: u64) -> u64 {
        replicas.saturating_mul(cfg.resolvers as u64)
    }

    /// Queries the full `replicas`-scaled stream will emit, up to the
    /// at-least-one slack of the bogus-only class (exact lower bound).
    pub fn expected_queries(cfg: &WorkloadConfig, replicas: u64) -> u64 {
        replicas.saturating_mul(cfg.total_queries)
    }

    fn over_range(cfg: &WorkloadConfig, start: u64, end: u64) -> TraceStream {
        let global = end.max(start);
        assert!(
            global <= u32::MAX as u64 + 1,
            "resolver id space {global} exceeds u32 (lower replicas or unit size)"
        );
        let plan = UnitPlan::build(cfg);
        let mut stream = TraceStream {
            cfg: cfg.clone(),
            plan,
            cursor: start,
            end,
            prefix: UnitPrefix::default(),
            state: if start >= end { EmitState::Done } else { EmitState::Fetch },
        };
        // Warm the cumulative-rounding state up to the shard's first
        // resolver: replicas reset the prefix, so only the partial unit the
        // shard starts inside needs replaying — O(unit), never O(global).
        let unit_start = (start % stream.cfg.resolvers.max(1) as u64) as u32;
        for unit_r in 0..unit_start {
            let class = stream.plan.classes[unit_r as usize];
            let mut rng = resolver_rng(&stream.cfg, unit_r);
            let w = resolver_weight(class, &mut rng);
            stream.prefix.advance(&stream.plan, class, w);
        }
        stream
    }

    /// Sets up emission for the resolver at the cursor and advances it.
    fn fetch_resolver(&mut self) {
        let global = self.cursor;
        self.cursor += 1;
        let unit_r = (global % self.cfg.resolvers as u64) as u32;
        if unit_r == 0 {
            // Replica boundary: budgets and weights restart.
            self.prefix = UnitPrefix::default();
        }
        let class = self.plan.classes[unit_r as usize];
        let mut rng = resolver_rng(&self.cfg, unit_r);
        let w = resolver_weight(class, &mut rng);
        let (bogus, noise, valid) = self.prefix.advance(&self.plan, class, w);
        let resolver = global as u32;
        self.state = match class {
            ResolverClass::BogusOnly => EmitState::Bogus { rng, resolver, left: bogus },
            ResolverClass::Normal => {
                EmitState::Noise { rng, resolver, left: noise, valid_left: valid }
            }
        };
    }

    /// Opens the next (resolver, TLD) burst: a heavy-tailed volume split
    /// round-robin over a few 15-minute windows, which is exactly what
    /// makes the ideal-cache and 15-minute classifications differ.
    fn open_pair(
        plan: &UnitPlan,
        cfg: &WorkloadConfig,
        rng: &mut DetRng,
        valid_left: u64,
    ) -> (u32, [u32; WINDOWS_PER_DAY as usize], u32, u64) {
        let tld = plan.sample_tld(rng);
        let volume = (rng.exponential(plan.mean_queries_per_pair).round() as u64)
            .max(1)
            .min(valid_left);
        let windows = 1 + (rng.exponential((cfg.windows_per_pair - 1.0).max(0.01)).round() as u32)
            .min(WINDOWS_PER_DAY - 1);
        let mut slots = [0u32; WINDOWS_PER_DAY as usize];
        for slot in slots.iter_mut().take(windows as usize) {
            *slot = rng.below(WINDOWS_PER_DAY as u64) as u32;
        }
        slots[..windows as usize].sort_unstable();
        let mut nslots = 0u32;
        for i in 0..windows as usize {
            if i == 0 || slots[i] != slots[nslots as usize - 1] {
                slots[nslots as usize] = slots[i];
                nslots += 1;
            }
        }
        (tld, slots, nslots, volume)
    }
}

impl Iterator for TraceStream {
    type Item = Query;

    fn next(&mut self) -> Option<Query> {
        loop {
            match &mut self.state {
                EmitState::Done => return None,
                EmitState::Fetch => {
                    if self.cursor >= self.end {
                        self.state = EmitState::Done;
                        return None;
                    }
                    self.fetch_resolver();
                }
                EmitState::Bogus { rng, resolver, left } => {
                    if *left == 0 {
                        self.state = EmitState::Fetch;
                        continue;
                    }
                    *left -= 1;
                    return Some(Query {
                        time: rng.below(DAY_SECS as u64) as u32,
                        resolver: *resolver,
                        name: QueryName::BogusTld(
                            rng.below(self.cfg.bogus_label_count as u64) as u32
                        ),
                    });
                }
                EmitState::Noise { rng, resolver, left, valid_left } => {
                    if *left > 0 {
                        *left -= 1;
                        return Some(Query {
                            time: rng.below(DAY_SECS as u64) as u32,
                            resolver: *resolver,
                            name: QueryName::BogusTld(
                                rng.below(self.cfg.bogus_label_count as u64) as u32,
                            ),
                        });
                    }
                    if *valid_left == 0 {
                        self.state = EmitState::Fetch;
                        continue;
                    }
                    let (resolver, valid_left) = (*resolver, *valid_left);
                    let mut rng = rng.clone();
                    let (tld, slots, nslots, volume) =
                        Self::open_pair(&self.plan, &self.cfg, &mut rng, valid_left);
                    self.state = EmitState::Pairs {
                        rng,
                        resolver,
                        valid_left: valid_left - volume,
                        tld,
                        slots,
                        nslots,
                        k: 0,
                        left_in_pair: volume,
                    };
                }
                EmitState::Pairs {
                    rng,
                    resolver,
                    valid_left,
                    tld,
                    slots,
                    nslots,
                    k,
                    left_in_pair,
                } => {
                    if *left_in_pair > 0 {
                        let w = slots[(*k % *nslots as u64) as usize];
                        *k += 1;
                        *left_in_pair -= 1;
                        return Some(Query {
                            time: w * WINDOW_SECS + rng.below(WINDOW_SECS as u64) as u32,
                            resolver: *resolver,
                            name: QueryName::ValidTld(*tld),
                        });
                    }
                    if *valid_left == 0 {
                        self.state = EmitState::Fetch;
                        continue;
                    }
                    let (t, s, n, volume) =
                        Self::open_pair(&self.plan, &self.cfg, rng, *valid_left);
                    *valid_left -= volume;
                    *tld = t;
                    *slots = s;
                    *nslots = n;
                    *k = 0;
                    *left_in_pair = volume;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_trace() -> (WorkloadConfig, Vec<Query>) {
        let cfg = WorkloadConfig::tiny();
        let queries = TraceStream::new(&cfg, 1).collect();
        (cfg, queries)
    }

    #[test]
    fn trace_has_requested_volume() {
        let (cfg, queries) = tiny_trace();
        let total = queries.len() as u64;
        let want = cfg.total_queries;
        // Bogus-only minimum-one rule can add a few extras.
        assert!(total >= want && total < want + cfg.resolvers as u64, "{total} vs {want}");
    }

    #[test]
    fn trace_stays_inside_the_day() {
        let (_, queries) = tiny_trace();
        assert!(queries.iter().all(|q| q.time < DAY_SECS));
    }

    #[test]
    fn bogus_fraction_near_target() {
        let (_, queries) = tiny_trace();
        let bogus =
            queries.iter().filter(|q| matches!(q.name, QueryName::BogusTld(_))).count() as f64;
        let frac = bogus / queries.len() as f64;
        assert!((frac - 0.61).abs() < 0.05, "bogus fraction {frac}");
    }

    #[test]
    fn bogus_only_resolvers_send_only_bogus() {
        let (cfg, queries) = tiny_trace();
        let classes = classify_resolvers(&cfg);
        for q in &queries {
            if classes[q.resolver as usize] == ResolverClass::BogusOnly {
                assert!(matches!(q.name, QueryName::BogusTld(_)));
            }
        }
    }

    #[test]
    fn every_resolver_appears() {
        let (cfg, queries) = tiny_trace();
        let seen: std::collections::HashSet<u32> = queries.iter().map(|q| q.resolver).collect();
        // Bogus-only resolvers get ≥1 query; normal resolvers' weight floor
        // guarantees a valid share at any test scale.
        assert!(
            seen.len() as f64 > cfg.resolvers as f64 * 0.95,
            "only {} of {} resolvers appear",
            seen.len(),
            cfg.resolvers
        );
    }

    #[test]
    fn window_mapping() {
        let q = Query { time: 0, resolver: 0, name: QueryName::BogusTld(0) };
        assert_eq!(q.window(), 0);
        let q = Query { time: 86_399, resolver: 0, name: QueryName::BogusTld(0) };
        assert_eq!(q.window(), 95);
        let q = Query { time: 900, resolver: 0, name: QueryName::BogusTld(0) };
        assert_eq!(q.window(), 1);
    }

    #[test]
    fn deterministic() {
        assert_eq!(tiny_trace().1, tiny_trace().1);
    }

    #[test]
    fn valid_queries_prefer_popular_tlds() {
        let (cfg, queries) = tiny_trace();
        let mut counts = vec![0u64; cfg.valid_tld_count];
        for q in &queries {
            if let QueryName::ValidTld(i) = q.name {
                counts[i as usize] += 1;
            }
        }
        let head: u64 = counts[..10].iter().sum();
        let tail: u64 = counts[cfg.valid_tld_count - 10..].iter().sum();
        assert!(head > tail * 5, "head {head} tail {tail}");
    }

    #[test]
    fn stream_is_resolver_major() {
        let (_, queries) = tiny_trace();
        assert!(
            queries.windows(2).all(|w| w[0].resolver <= w[1].resolver),
            "stream must emit resolver-major"
        );
    }

    #[test]
    fn replicas_relabel_but_do_not_reshape() {
        let cfg = WorkloadConfig::tiny();
        let one: Vec<Query> = TraceStream::new(&cfg, 1).collect();
        let two: Vec<Query> = TraceStream::new(&cfg, 2).collect();
        assert_eq!(two.len(), one.len() * 2);
        for (a, b) in one.iter().zip(&two[one.len()..]) {
            assert_eq!(a.time, b.time);
            assert_eq!(a.name, b.name);
            assert_eq!(a.resolver + cfg.resolvers, b.resolver, "replica 1 relabels ids");
        }
        assert_eq!(&two[..one.len()], &one[..], "replica 0 is the unit verbatim");
    }

    #[test]
    fn shards_are_disjoint_and_concatenate_to_the_full_stream() {
        let cfg = WorkloadConfig::tiny();
        for replicas in [1u64, 3] {
            let full: Vec<Query> = TraceStream::new(&cfg, replicas).collect();
            for shards in [1u64, 2, 5] {
                let mut glued = Vec::new();
                let mut prev_max: Option<u32> = None;
                for i in 0..shards {
                    let part: Vec<Query> =
                        TraceStream::shard(&cfg, replicas, shards, i).collect();
                    if let (Some(p), Some(first)) = (prev_max, part.first()) {
                        assert!(first.resolver > p, "shards must own disjoint resolver ranges");
                    }
                    if let Some(last) = part.last() {
                        prev_max = Some(last.resolver);
                    }
                    glued.extend(part);
                }
                assert_eq!(glued, full, "replicas={replicas} shards={shards}");
            }
        }
    }

    #[test]
    fn mid_unit_shard_warmup_matches_unsharded_quotas() {
        // A shard that starts mid-unit must replay the cumulative-rounding
        // prefix, or its first resolver would get a wrong quota.
        let cfg = WorkloadConfig::tiny();
        let full: Vec<Query> = TraceStream::new(&cfg, 1).collect();
        // 7 shards of 200 resolvers: every boundary lands mid-unit.
        let glued: Vec<Query> =
            (0..7).flat_map(|i| TraceStream::shard(&cfg, 1, 7, i)).collect();
        assert_eq!(glued, full);
    }
}
