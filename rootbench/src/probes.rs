//! Per-layer probes: repeated timed calls into one crate's public
//! functions on inputs drawn from the workload, each batch of calls
//! recorded as one span named after the per-layer metric it feeds. A
//! metric is then the median over its spans of duration ÷ operations.

use std::hint::black_box;
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rootless_ditl::{QueryName, TraceStream, WorkloadConfig};
use rootless_netsim::sim::{Ctx, Datagram, Node, Payload, Sim};
use rootless_netsim::{GeoPoint, ShardedSim, TimingWheel};
use rootless_obs::Registry;
use rootless_proto::wire::Encoder;
use rootless_proto::{Message, Name, RType, Record};
use rootless_resolver::srtt::SrttSelector;
use rootless_resolver::{Cache, Eviction};
use rootless_runtime::batch::Batch;
use rootless_runtime::{ring, QnamePools};
use rootless_server::node::{root_anycast_addrs, ServerNode};
use rootless_server::AuthServer;
use rootless_util::rng::DetRng;
use rootless_util::time::{SimDuration, SimTime};
use rootless_zone::rootzone::{self, RootZoneConfig};
use rootless_zone::Zone;

use crate::spans::Spans;
use crate::stats;
use crate::workload::PER_LAYER;

/// A probe batch is grown until it lasts this long, so the two clock
/// reads around it are noise.
const BATCH_TARGET: Duration = Duration::from_millis(2);
/// Spans recorded per probe; calls slower than [`SLOW_CALL`] get fewer.
const SAMPLES: usize = 9;
const SLOW_SAMPLES: usize = 3;
const SLOW_CALL: Duration = Duration::from_millis(50);

/// Times `f` under the metric `name`, one operation per call.
pub fn probe(spans: &mut Spans, name: &'static str, f: impl FnMut()) {
    probe_ops(spans, name, 1, f);
}

/// Times `f`, each call covering `ops_per_call` operations (bytes hashed,
/// say): calibrates a batch size (which also warms caches and pools), then
/// records one span per batch.
pub fn probe_ops(spans: &mut Spans, name: &'static str, ops_per_call: u64, mut f: impl FnMut()) {
    let mut calls = 1u64;
    let batch_time = loop {
        let t = Instant::now();
        for _ in 0..calls {
            f();
        }
        let elapsed = t.elapsed();
        if elapsed >= BATCH_TARGET || calls >= 1 << 22 {
            break elapsed;
        }
        calls *= 2;
    };
    let samples = if batch_time >= SLOW_CALL { SLOW_SAMPLES } else { SAMPLES };
    for _ in 0..samples {
        let id = spans.enter(name);
        for _ in 0..calls {
            f();
        }
        spans.exit(id, calls * ops_per_call);
    }
}

/// Times [`SAMPLES`] runs of `timed` under `name`, each after an untimed
/// `setup`. `timed` returns the operations it covered.
pub fn probe_with_setup<S>(
    spans: &mut Spans,
    name: &'static str,
    mut setup: impl FnMut() -> S,
    mut timed: impl FnMut(S) -> u64,
) {
    black_box(timed(setup())); // warm-up, unrecorded
    for _ in 0..SAMPLES {
        let state = setup();
        let id = spans.enter(name);
        let ops = timed(state);
        spans.exit(id, ops);
    }
}

/// How a per-operation cost is estimated from a metric's spans.
#[derive(Clone, Copy)]
pub enum Estimate {
    /// Median over the spans of duration ÷ operations. Probe batches are
    /// equal work, so the median sheds a batch the scheduler interrupted.
    Median,
    /// Total duration ÷ total operations. The batches of a replayed
    /// stream differ in content (a junk-only resolver's burst beside a
    /// referral-heavy one), so only the pooled figures add up to the pass.
    Pooled,
}

/// Cost per operation of the spans `(duration_ns, ops)`, 0 for none.
fn estimate(samples: impl Iterator<Item = (u64, u64)>, how: Estimate) -> f64 {
    let samples: Vec<(u64, u64)> = samples.filter(|(_, ops)| *ops > 0).collect();
    if samples.is_empty() {
        return 0.0;
    }
    match how {
        Estimate::Median => stats::median(
            &samples
                .iter()
                .map(|(ns, ops)| *ns as f64 / *ops as f64)
                .collect::<Vec<_>>(),
        ),
        Estimate::Pooled => {
            samples.iter().map(|(ns, _)| *ns as f64).sum::<f64>()
                / samples.iter().map(|(_, ops)| *ops as f64).sum::<f64>()
        }
    }
}

/// Nanoseconds per operation under the metric `name`; 0 when the workload
/// recorded no span for it.
pub fn per_op_ns(spans: &Spans, name: &str, how: Estimate) -> f64 {
    estimate(
        spans
            .all()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.duration_ns(), s.ops)),
        how,
    )
}

/// Like [`per_op_ns`] over the spans' self times (`Spans::self_times_ns`).
pub fn self_per_op_ns(spans: &Spans, self_times: &[u64], name: &str, how: Estimate) -> f64 {
    estimate(
        spans
            .all()
            .iter()
            .zip(self_times)
            .filter(|(s, _)| s.name == name)
            .map(|(s, own)| (*own, s.ops)),
        how,
    )
}

/// Collects `(metric, value)` pairs for span-backed metrics, converted
/// from nanoseconds per operation to the unit [`PER_LAYER`] declares.
pub fn collect(spans: &Spans, names: &[&'static str], how: Estimate) -> Vec<(&'static str, f64)> {
    names
        .iter()
        .map(|name| {
            let unit = PER_LAYER.iter().find(|m| m.name == *name).map(|m| m.unit);
            let ns = per_op_ns(spans, name, how);
            let value = match unit.unwrap_or_else(|| panic!("{name} is not a declared per-layer metric")) {
                "ms" => ns / 1e6,
                // Rates: operations (bytes, states) per nanosecond, rescaled.
                "MB/s" if ns > 0.0 => 1e3 / ns,
                "1/s" if ns > 0.0 => 1e9 / ns,
                _ => ns,
            };
            (*name, value)
        })
        .collect()
}

/// Query names drawn at a fixed stride across the workload's own stream
/// (which is resolver-major, so its head alone would be a few resolvers'
/// bursts): `LEN` referral-bound (valid TLD) and `LEN` NXDOMAIN-bound
/// (bogus label) names with the stream's popularity skew, repeats included.
pub struct Names {
    pub referral: Vec<Name>,
    pub nxdomain: Vec<Name>,
}

impl Names {
    /// A power of two so cycling is a mask, not a division.
    pub const LEN: usize = 1024;

    pub fn draw(cfg: &WorkloadConfig, pools: &QnamePools) -> Names {
        let mut names = Names {
            referral: Vec::new(),
            nxdomain: Vec::new(),
        };
        let stride = (cfg.total_queries as usize / (8 * Names::LEN)).max(1);
        for q in TraceStream::new(cfg, 1).step_by(stride) {
            match q.name {
                QueryName::ValidTld(t) if names.referral.len() < Names::LEN => {
                    names.referral.push(pools.tlds[t as usize].clone());
                }
                QueryName::BogusTld(b) if names.nxdomain.len() < Names::LEN => {
                    names.nxdomain.push(pools.bogus[b as usize % pools.bogus.len()].clone());
                }
                _ => {}
            }
        }
        // A rare kind or a tiny smoke stream yields fewer: cycle what it has.
        for list in [&mut names.referral, &mut names.nxdomain] {
            assert!(!list.is_empty(), "the stream holds both kinds of query");
            let have = list.len();
            for i in have..Names::LEN {
                list.push(list[i % have].clone());
            }
        }
        names
    }
}

/// Calls `f` with the next name of the cycle.
fn cycling<'a>(names: &'a [Name], mut f: impl FnMut(&'a Name) + 'a) -> impl FnMut() + 'a {
    let mut i = 0usize;
    move || {
        f(&names[i & (Names::LEN - 1)]);
        i = i.wrapping_add(1);
    }
}

/// `ditl.stream_ns_per_query`: draining the workload's `TraceStream`.
pub fn ditl_stream(spans: &mut Spans, cfg: &WorkloadConfig) {
    probe_with_setup(
        spans,
        "ditl.stream_ns_per_query",
        || TraceStream::shard(cfg, 1, 1, 0),
        |stream| {
            let mut queries = 0u64;
            for q in stream {
                black_box(q);
                queries += 1;
            }
            queries
        },
    );
}

/// `zone.build_ms`: the 1,532-TLD root zone every world starts from.
pub fn zone_build(spans: &mut Spans, tld_count: usize) {
    let cfg = RootZoneConfig {
        tld_count,
        ..RootZoneConfig::default()
    };
    probe(spans, "zone.build_ms", || {
        black_box(rootzone::build(&cfg));
    });
}

/// `zone.lookup_referral_ns` / `zone.lookup_nxdomain_ns`.
pub fn zone_lookups(spans: &mut Spans, zone: &Zone, names: &Names) {
    probe(
        spans,
        "zone.lookup_referral_ns",
        cycling(&names.referral, |n| {
            black_box(zone.lookup_ref(n, RType::A));
        }),
    );
    probe(
        spans,
        "zone.lookup_nxdomain_ns",
        cycling(&names.nxdomain, |n| {
            black_box(zone.lookup_ref(n, RType::A));
        }),
    );
}

/// `server.handle_referral_ns` / `server.handle_nxdomain_ns`:
/// `AuthServer::handle_into` a pooled response, on a server configured
/// the way the workload configures its own.
pub fn server_handles(spans: &mut Spans, server: &mut AuthServer, names: &Names) {
    for (metric, list) in [
        ("server.handle_referral_ns", &names.referral),
        ("server.handle_nxdomain_ns", &names.nxdomain),
    ] {
        let queries: Vec<Message> = list
            .iter()
            .enumerate()
            .map(|(i, n)| Message::query(i as u16, n.clone(), RType::A))
            .collect();
        let mut resp = Message::default();
        let mut i = 0usize;
        probe(spans, metric, || {
            server.handle_into(&queries[i & (Names::LEN - 1)], &mut resp);
            black_box(resp.header.rcode);
            i = i.wrapping_add(1);
        });
    }
}

/// `proto.encode_query_ns`: the injector's and the resolver's encode of a
/// single-label A query into a pooled encoder.
pub fn encode_query(spans: &mut Spans, names: &Names) {
    let mut enc = Encoder::new();
    let mut query = Message::query(0, Name::root(), RType::A);
    let mut id = 0u16;
    probe(
        spans,
        "proto.encode_query_ns",
        cycling(&names.referral, |n| {
            query.header.id = id;
            id = id.wrapping_add(1);
            query.questions[0].qname = n.clone();
            query.encode_into(&mut enc);
            black_box(enc.wire().len());
        }),
    );
}

/// The codec on the responses the server produced for this workload's
/// names: `proto.encode_referral_ns` / `proto.encode_nxdomain_ns` (pooled
/// encoder) and `proto.decode_referral_ns` (eager decode of the referral).
pub fn response_codec(spans: &mut Spans, server: &mut AuthServer, names: &Names) {
    let mut enc = Encoder::new();
    let mut respond = |list: &[Name]| -> Vec<Message> {
        list.iter()
            .map(|n| server.handle(&Message::query(7, n.clone(), RType::A)))
            .collect()
    };
    let referrals = respond(&names.referral);
    let nxdomains = respond(&names.nxdomain);
    for (metric, responses) in [
        ("proto.encode_referral_ns", &referrals),
        ("proto.encode_nxdomain_ns", &nxdomains),
    ] {
        let mut i = 0usize;
        probe(spans, metric, || {
            responses[i & (Names::LEN - 1)].encode_into(&mut enc);
            black_box(enc.wire().len());
            i = i.wrapping_add(1);
        });
    }
    let wires: Vec<Vec<u8>> = referrals.iter().map(Message::encode).collect();
    let mut i = 0usize;
    probe(spans, "proto.decode_referral_ns", || {
        black_box(Message::decode(&wires[i & (Names::LEN - 1)]).expect("the server's own referral decodes"));
        i = i.wrapping_add(1);
    });
}

/// `resolver.cache_*_ns`: the LRU `Cache` both the resolver and the serve
/// memo use, keyed by the workload's names and holding the referrals the
/// server produced for them.
pub fn cache_ops(spans: &mut Spans, server: &mut AuthServer, names: &Names) {
    let now = SimTime::ZERO;
    let referral_records: Vec<Vec<Record>> = names
        .referral
        .iter()
        .map(|n| {
            let resp = server.handle(&Message::query(7, n.clone(), RType::A));
            resp.authorities.into_iter().chain(resp.additionals).collect()
        })
        .collect();
    let mut cache = Cache::new(4 * Names::LEN, Eviction::Lru);
    for records in &referral_records {
        cache.insert(now, records.clone());
    }
    probe(
        spans,
        "resolver.cache_hit_ns",
        cycling(&names.referral, |n| {
            black_box(cache.get(now, n, RType::NS));
        }),
    );
    // The junk names were never inserted: every lookup walks the miss path.
    let mut cache = Cache::new(4 * Names::LEN, Eviction::Lru);
    for records in &referral_records {
        cache.insert(now, records.clone());
    }
    probe(
        spans,
        "resolver.cache_miss_ns",
        cycling(&names.nxdomain, |n| {
            black_box(cache.get(now, n, RType::A));
        }),
    );
    // Inserts replace in place once every name is present; the clone of
    // the record vector is part of what a caller pays to hand it over.
    let mut cache = Cache::new(4 * Names::LEN, Eviction::Lru);
    let mut i = 0usize;
    probe(spans, "resolver.cache_insert_ns", || {
        cache.insert(now, referral_records[i & (Names::LEN - 1)].clone());
        i = i.wrapping_add(1);
    });
    let mut cache = Cache::new(4 * Names::LEN, Eviction::Lru);
    probe(
        spans,
        "resolver.cache_insert_negative_ns",
        cycling(&names.nxdomain, |n| cache.insert_negative(now, n, RType::A, 3_600)),
    );
}

/// `resolver.srtt_pick_ns`: one server selection plus the RTT update that
/// follows the reply, over the 13 root letters.
pub fn srtt_pick(spans: &mut Spans) {
    let mut srtt = SrttSelector::new(&root_anycast_addrs());
    let mut rng = DetRng::seed_from_u64(0x5277);
    let mut n = 0u64;
    probe(spans, "resolver.srtt_pick_ns", || {
        let server = srtt.pick(&mut rng).expect("13 roots are tracked");
        n += 1;
        srtt.record_rtt(server, SimDuration::from_millis(10 + n % 40));
    });
}

/// `netsim.wheel_ns_per_op`: steady churn on the timing wheel with 10K
/// events pending — pop the earliest, schedule its replacement.
pub fn wheel(spans: &mut Spans) {
    let mut state = 0x5eedu64;
    let mut delay = move || 1 + (rootless_util::rng::splitmix64(&mut state) & 0xf_ffff);
    let mut wheel: TimingWheel<u64> = TimingWheel::new();
    for _ in 0..10_000 {
        wheel.schedule(delay(), 0);
    }
    probe(spans, "netsim.wheel_ns_per_op", || {
        let (at, v) = wheel.pop_at_or_before(u64::MAX).expect("10K events pending");
        wheel.schedule(at + delay(), v + 1);
    });
}

/// Echoes every datagram back to its source.
struct Echo;

impl Node for Echo {
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: Datagram) {
        ctx.send(dgram.src, dgram.payload);
    }
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}
}

/// Sends `payload` to `target` on every timer tick and counts replies.
struct Asker {
    target: Ipv4Addr,
    payload: Payload,
    replies: u64,
}

impl Node for Asker {
    fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, _dgram: Datagram) {
        self.replies += 1;
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        ctx.send(self.target, self.payload.clone());
    }
}

const PAIRS: usize = 64;
const ROUNDS: u64 = 100;

fn pair_addrs(i: usize) -> (Ipv4Addr, Ipv4Addr) {
    (Ipv4Addr::new(10, 1, 0, i as u8), Ipv4Addr::new(10, 2, 0, i as u8))
}

/// Echoes ring the globe and askers sit an ocean away, so cross-shard
/// traffic is real at any partition.
fn pair_geo(i: usize) -> (GeoPoint, GeoPoint) {
    let lon = -180.0 + (i as f64) * 360.0 / PAIRS as f64;
    (GeoPoint::new(40.0, lon), GeoPoint::new(-30.0, -lon))
}

fn asker(i: usize) -> Box<Asker> {
    Box::new(Asker {
        target: pair_addrs(i).0,
        payload: Payload::copy_from_slice(b"ping"),
        replies: 0,
    })
}

fn pingpong_sim() -> Sim {
    let mut sim = Sim::new(7);
    for i in 0..PAIRS {
        let ((echo_addr, asker_addr), (echo_geo, asker_geo)) = (pair_addrs(i), pair_geo(i));
        sim.add_node(echo_addr, echo_geo, Box::new(Echo));
        let id = sim.add_node(asker_addr, asker_geo, asker(i));
        for r in 0..ROUNDS {
            sim.schedule_timer(id, SimDuration::from_millis(5 * (r + 1)), r);
        }
    }
    sim
}

fn pingpong_sharded(shards: usize) -> ShardedSim {
    let mut sim = ShardedSim::new(7, shards);
    for i in 0..PAIRS {
        let ((echo_addr, asker_addr), (echo_geo, asker_geo)) = (pair_addrs(i), pair_geo(i));
        sim.add_node(i % shards, echo_addr, echo_geo, Box::new(Echo));
        let id = sim.add_node((i + 1) % shards, asker_addr, asker_geo, asker(i));
        for r in 0..ROUNDS {
            sim.schedule_timer(id, SimDuration::from_millis(5 * (r + 1)), r);
        }
    }
    sim
}

/// The simulation engines on one 64-pair ping-pong world (~25K events):
/// `netsim.sim_ns_per_event` on the plain `Sim`, `netsim.psim1_ns_per_event`
/// on a one-shard `ShardedSim` (the bypass path), `netsim.psim2_ns_per_event`
/// under two-shard lookahead epochs. The event totals must agree.
pub fn sim_engines(spans: &mut Spans) {
    let expect = pingpong_sim().run_to_completion();
    probe_with_setup(spans, "netsim.sim_ns_per_event", pingpong_sim, |mut sim| {
        sim.run_to_completion()
    });
    for (metric, shards) in [("netsim.psim1_ns_per_event", 1), ("netsim.psim2_ns_per_event", 2)] {
        probe_with_setup(
            spans,
            metric,
            || pingpong_sharded(shards),
            |mut sim| {
                let events = sim.run_to_completion();
                assert_eq!(
                    events, expect,
                    "{shards}-shard event total drifted from the plain Sim's"
                );
                events
            },
        );
    }
}

/// `server.node_roundtrip_ns`: one query datagram through a `ServerNode`
/// in a two-node `Sim` and back (timer, delivery, decode, handle, encode,
/// delivery), per query.
pub fn node_roundtrip(spans: &mut Spans, zone: &Arc<Zone>, names: &Names) {
    const QUERIES: u64 = 2_000;
    let wire = Message::query(9, names.referral[0].clone(), RType::A).encode();
    probe_with_setup(
        spans,
        "server.node_roundtrip_ns",
        || {
            let mut sim = Sim::new(11);
            let server_addr = Ipv4Addr::new(10, 3, 0, 1);
            let node = ServerNode::new(AuthServer::new_shared(Arc::clone(zone)));
            sim.add_node(server_addr, GeoPoint::new(40.0, -74.0), Box::new(node));
            let asker = Asker {
                target: server_addr,
                payload: Payload::copy_from_slice(&wire),
                replies: 0,
            };
            let id = sim.add_node(Ipv4Addr::new(10, 3, 0, 2), GeoPoint::new(48.0, 2.0), Box::new(asker));
            for q in 0..QUERIES {
                sim.schedule_timer(id, SimDuration::from_millis(q + 1), q);
            }
            (sim, id)
        },
        |(mut sim, id)| {
            sim.run_to_completion();
            let replies = (sim.node(id) as &dyn std::any::Any)
                .downcast_ref::<Asker>()
                .expect("the asker node")
                .replies;
            assert_eq!(replies, QUERIES, "every query datagram is answered");
            replies
        },
    );
}

/// `runtime.ring_roundtrip_ns_per_batch`: a batch out through the work
/// ring and back through the recycle ring at the runtime's own depths,
/// between two threads, with a consumer that does nothing else.
pub fn ring_roundtrip(spans: &mut Spans, depth: usize) {
    const ROUNDTRIPS: u64 = 100_000;
    let (mut work_tx, mut work_rx) = ring::ring::<Batch>(depth);
    let (mut recycle_tx, mut recycle_rx) = ring::ring::<Batch>(depth + 1);
    for _ in 0..depth {
        assert!(
            recycle_tx.try_push(Batch::with_capacity(1)).is_ok(),
            "preload fits the recycle ring"
        );
    }
    std::thread::scope(|scope| {
        scope.spawn(move || {
            while let Some(batch) = work_rx.pop() {
                // One slot deeper than the work ring: never full.
                let _ = recycle_tx.try_push(batch);
            }
        });
        for _ in 0..SAMPLES {
            let id = spans.enter("runtime.ring_roundtrip_ns_per_batch");
            for _ in 0..ROUNDTRIPS {
                let batch = loop {
                    match recycle_rx.try_pop() {
                        Some(batch) => break batch,
                        None => std::hint::spin_loop(),
                    }
                };
                assert!(work_tx.push(batch).is_ok(), "the consumer outlives the producer");
            }
            spans.exit(id, ROUNDTRIPS);
        }
        drop(work_tx); // hang up: the consumer drains and exits
    });
}

/// `obs.counter_inc_ns`: one bump of a registry counter, the cost every
/// `auth.*` mirror pays per query.
pub fn obs_counter(spans: &mut Spans) {
    let registry = Registry::new();
    let counter = registry.counter("rootbench.probe");
    probe(spans, "obs.counter_inc_ns", || counter.inc());
    black_box(counter.get());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_records_spans_that_cover_every_call() {
        let mut spans = Spans::new();
        let mut calls = 0u64;
        probe(&mut spans, "t.counted_ns", || calls += 1);
        let recorded: u64 = spans.all().iter().map(|s| s.ops).sum();
        assert_eq!(spans.all().len(), SAMPLES);
        assert!(recorded > 0 && recorded < calls, "calibration calls are not recorded");
        assert!(per_op_ns(&spans, "t.counted_ns", Estimate::Median) > 0.0);
        assert_eq!(per_op_ns(&spans, "t.absent_ns", Estimate::Pooled), 0.0);
    }

    #[test]
    fn collect_converts_to_the_declared_unit() {
        let names = [
            "zone.build_ms",
            "util.sha256_mb_s",
            "mc.explored_states_per_s",
            "proto.view_parse_ns",
        ];
        let mut spans = Spans::new();
        for name in names {
            let id = spans.enter(name);
            std::thread::sleep(Duration::from_millis(2));
            spans.exit(id, 1_000);
        }
        let got = collect(&spans, &names, Estimate::Median);
        let ns = got[3].1;
        assert!(ns >= 2_000.0, "2 ms over 1000 ops is at least 2 µs each, got {ns}");
        assert!((got[0].1 - per_op_ns(&spans, names[0], Estimate::Median) / 1e6).abs() < 1e-12);
        assert!(
            got[1].1 > 0.0 && got[1].1 <= 0.5,
            "1000 bytes in 2 ms is at most 0.5 MB/s"
        );
        assert!(got[2].1 > 0.0 && got[2].1 <= 500_000.0);
    }
}
