//! The serve workloads: the DITL unit replayed through `runtime::serve`
//! (injector thread, SPSC rings, one shard), with the memo on under the
//! paper's 61%-junk mix (`serve_ditl`) and off under a referral-heavy mix
//! (`serve_referral`). The traced run replays the same stream through a
//! staged single-thread copy of the pipeline built from the runtime's
//! public parts, so every stage gets a span.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use rootless_ditl::{Query, QueryName, TraceStream, WorkloadConfig};
use rootless_obs::{Registry, Snapshot};
use rootless_proto::wire::Encoder;
use rootless_proto::{Message, MessageView, Name, RType};
use rootless_runtime::batch::Batch;
use rootless_runtime::shard::{flat_qname, NameTable, ShardOutcome, ShardState};
use rootless_runtime::{serve, QnamePools, RuntimeConfig, ServeReport};
use rootless_server::AuthServer;
use rootless_zone::rootzone::{self, RootZoneConfig};
use rootless_zone::Zone;

use crate::json::{obj, Json};
use crate::probes::{self, Estimate, Names};
use crate::spans::{SpanId, Spans};
use crate::stamp;
use crate::workload::{median_op_ns, value_of, BudgetRow, Pass, Scale, Traced, World};

/// A serve workload's world: the unit's config, its root zone and qname
/// pools, and the runtime configuration.
pub struct ServeWorld {
    cfg: WorkloadConfig,
    divisor: u64,
    zone: Arc<Zone>,
    pools: QnamePools,
    rt: RuntimeConfig,
}

impl ServeWorld {
    /// `memo` selects the workload: on with the paper's mix, off with the
    /// referral-heavy one. `seed` feeds `WorkloadConfig::seed`.
    pub fn build(memo: bool, seed: u64, scale: Scale) -> ServeWorld {
        // 1/8000 of the DITL day is 712.5K queries (0.77 s a pass here);
        // memo-off serving is 6x slower per query, so its unit is a quarter.
        let (divisor, bogus_query_fraction) = match (memo, scale) {
            (true, Scale::Full) => (8_000, 0.61),
            (true, Scale::Smoke) => (400_000, 0.61),
            (false, Scale::Full) => (32_000, 0.10),
            (false, Scale::Smoke) => (1_600_000, 0.10),
        };
        let cfg = WorkloadConfig {
            total_queries: 5_700_000_000 / divisor,
            resolvers: (4_100_000 / divisor) as u32,
            bogus_query_fraction,
            seed,
            ..WorkloadConfig::default()
        };
        let zone = Arc::new(rootzone::build(&RootZoneConfig {
            tld_count: cfg.valid_tld_count,
            ..RootZoneConfig::default()
        }));
        let pools = QnamePools::build(&cfg, &zone);
        // One shard: with the injector on the calling thread that is the
        // whole two-thread budget.
        let rt = RuntimeConfig {
            threads: 1,
            memo,
            seed,
            ..RuntimeConfig::default()
        };
        ServeWorld {
            cfg,
            divisor,
            zone,
            pools,
            rt,
        }
    }

    fn self_metric(&self) -> &'static str {
        if self.rt.memo {
            "runtime.memo_self_ns"
        } else {
            "runtime.nomemo_self_ns"
        }
    }

    fn serve_frame_metric(&self) -> &'static str {
        if self.rt.memo {
            "runtime.serve_frame_memo_ns"
        } else {
            "runtime.serve_frame_nomemo_ns"
        }
    }

    /// Replays the pass as a staged single-thread pipeline at the
    /// runtime's batch granularity: pull a batch from the stream, encode
    /// it, serve it. With `spans`, every stage gets a span and the work
    /// inside `serve_frame` is re-executed as shadow children.
    fn staged_pass(&self, mut spans: Option<&mut Spans>) -> (ShardOutcome, f64) {
        let frames = self.rt.batch_frames;
        let table = Arc::new(NameTable::build(&self.pools.tlds, &self.pools.bogus));
        let mut state = ShardState::new(Arc::clone(&self.zone), Arc::clone(&table), 0, &self.rt);
        let mut shadow = spans.is_some().then(|| Shadow::new(&self.zone, table, frames));
        let mut stream = TraceStream::shard(&self.cfg, 1, 1, 0);
        let mut pulled: Vec<Query> = Vec::with_capacity(frames);
        let mut batch = Batch::with_capacity(frames);
        let mut enc = Encoder::new();
        let mut qmsg = Message::query(0, Name::root(), RType::A);
        let mut seq = 0u16;
        let enter = |spans: &mut Option<&mut Spans>, name| spans.as_mut().map(|s| s.enter(name));
        let exit = |spans: &mut Option<&mut Spans>, id: Option<SpanId>, ops| {
            if let (Some(s), Some(id)) = (spans.as_mut(), id) {
                s.exit(id, ops);
            }
        };
        let start = Instant::now();
        loop {
            let batch_span = enter(&mut spans, "batch");
            let inject_span = enter(&mut spans, "runtime.inject_ns_per_query");
            let stage = enter(&mut spans, "ditl.stream_ns_per_query");
            pulled.clear();
            pulled.extend(stream.by_ref().take(frames));
            let n = pulled.len() as u64;
            exit(&mut spans, stage, n);

            // The injector's loop body: intern the qname, stamp the id,
            // encode, append to the batch.
            let stage = enter(&mut spans, "runtime.encode_push");
            batch.clear();
            for q in &pulled {
                qmsg.questions[0].qname = match q.name {
                    QueryName::ValidTld(t) => self.pools.tlds[t as usize].clone(),
                    QueryName::BogusTld(b) => self.pools.bogus[b as usize % self.pools.bogus.len()].clone(),
                };
                qmsg.header.id = seq;
                seq = seq.wrapping_add(1);
                qmsg.encode_into(&mut enc);
                batch.push(q.time, q.resolver, enc.wire());
            }
            exit(&mut spans, stage, n);
            exit(&mut spans, inject_span, n);

            let serve_span = enter(&mut spans, self.serve_frame_metric());
            for frame in batch.iter() {
                state.serve_frame(frame.time, frame.resolver, frame.wire);
            }
            exit(&mut spans, serve_span, n);

            if let (Some(s), Some(parent), Some(shadow)) = (spans.as_mut(), serve_span, shadow.as_mut()) {
                shadow.replay(s, parent, &batch, self.rt.memo);
            }
            exit(&mut spans, batch_span, n);
            if pulled.len() < frames {
                break;
            }
        }
        let seconds = start.elapsed().as_secs_f64();
        (state.finish(), seconds)
    }
}

/// Re-executes, stage by stage, the work `ShardState::serve_frame` did on
/// a batch, so the closed call gets child spans and a self time. Each
/// stage loops over the whole batch (a clock read per frame would cost
/// as much as the stage), referrals and NXDOMAINs in separate loops so
/// each kind gets its own figure.
struct Shadow {
    table: Arc<NameTable>,
    server: AuthServer,
    /// Keeps the shadow server's `auth.*` counters alive, as the shard's
    /// own registry does.
    _registry: Arc<Registry>,
    queries: Vec<Message>,
    responses: Vec<Message>,
    /// Batch positions of the referral-bound and NXDOMAIN-bound frames.
    referrals: Vec<usize>,
    nxdomains: Vec<usize>,
    enc: Encoder,
}

impl Shadow {
    fn new(zone: &Arc<Zone>, table: Arc<NameTable>, frames: usize) -> Shadow {
        // Configured exactly as ShardState::new configures its server.
        let registry = Registry::new();
        let mut server = AuthServer::new_shared(Arc::clone(zone));
        server.dnssec_enabled = false;
        server.attach_obs(&registry);
        Shadow {
            table,
            server,
            _registry: registry,
            queries: vec![Message::query(0, Name::root(), RType::A); frames],
            responses: vec![Message::default(); frames],
            referrals: Vec::with_capacity(frames),
            nxdomains: Vec::with_capacity(frames),
            enc: Encoder::new(),
        }
    }

    fn replay(&mut self, spans: &mut Spans, parent: SpanId, batch: &Batch, memo: bool) {
        let n = batch.len() as u64;
        let timed = |f: &mut dyn FnMut()| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as u64
        };

        let parse_ns = timed(&mut || {
            for frame in batch.iter() {
                let view = MessageView::parse(frame.wire).expect("the injector's own encoding parses");
                black_box(view.question());
            }
        });
        let lookup_ns = timed(&mut || {
            for frame in batch.iter() {
                black_box(flat_qname(frame.wire).and_then(|flat| self.table.lookup(flat)));
            }
        });

        // Untimed: rebuild the queries and split the batch by answer kind.
        self.referrals.clear();
        self.nxdomains.clear();
        for (i, frame) in batch.iter().enumerate() {
            let (name, kind) = flat_qname(frame.wire)
                .and_then(|flat| self.table.lookup(flat))
                .expect("every injected qname is interned");
            self.queries[i].questions[0].qname = name.clone();
            self.queries[i].header.id = u16::from_be_bytes([frame.wire[0], frame.wire[1]]);
            match kind {
                QueryName::ValidTld(_) => self.referrals.push(i),
                QueryName::BogusTld(_) => self.nxdomains.push(i),
            }
        }

        let (queries, responses, server, enc) = (&self.queries, &mut self.responses, &mut self.server, &mut self.enc);
        let mut handle = |positions: &[usize]| {
            timed(&mut || {
                for &i in positions {
                    server.handle_into(&queries[i], &mut responses[i]);
                }
            })
        };
        let handle_referral_ns = handle(&self.referrals);
        let handle_nxdomain_ns = handle(&self.nxdomains);
        let mut encode = |positions: &[usize]| {
            timed(&mut || {
                for &i in positions {
                    responses[i].encode_into(enc);
                    black_box(enc.wire().len());
                }
            })
        };
        let encode_referral_ns = encode(&self.referrals);
        let encode_nxdomain_ns = encode(&self.nxdomains);

        let (referrals, nxdomains) = (self.referrals.len() as u64, self.nxdomains.len() as u64);
        let mut at = spans.shadow(parent, "proto.view_parse_ns", 0, parse_ns, n);
        at = spans.shadow(parent, "runtime.name_lookup_ns", at, lookup_ns, n);
        // With the memo on, nearly every frame replays a stored answer
        // instead of calling the server: the handle stage is measured but
        // is not a child of what serve_frame did.
        if !memo {
            at = spans.shadow(parent, "server.handle_referral_ns", at, handle_referral_ns, referrals);
            at = spans.shadow(parent, "server.handle_nxdomain_ns", at, handle_nxdomain_ns, nxdomains);
        }
        at = spans.shadow(parent, "proto.encode_referral_ns", at, encode_referral_ns, referrals);
        spans.shadow(parent, "proto.encode_nxdomain_ns", at, encode_nxdomain_ns, nxdomains);
    }
}

/// Every deterministic output of a serve pass.
fn fingerprint(
    injected: u64,
    served: u64,
    bytes_out: u64,
    memo_hits: u64,
    snapshot: &Snapshot,
    resp_xor: u64,
) -> String {
    format!(
        "injected={injected} served={served} bytes_out={bytes_out} memo_hits={memo_hits} referrals={} nxdomain={} resp_xor={resp_xor:016x}",
        snapshot.counter("auth.referrals"),
        snapshot.counter("auth.nxdomain"),
    )
}

/// The serve correctness gate: operations failed and the violations.
pub fn check(r: &ServeReport) -> (u64, Vec<String>) {
    let mut errors = Vec::new();
    if r.served != r.injected {
        errors.push(format!("served {} of {} injected queries", r.served, r.injected));
    }
    if r.parse_errors != 0 {
        errors.push(format!("{} frames failed to parse", r.parse_errors));
    }
    if r.slow_path != 0 {
        errors.push(format!("{} queries left the fast path", r.slow_path));
    }
    let counted = r.snapshot.counter("auth.queries");
    if counted != r.served {
        errors.push(format!("auth.queries counted {counted}, served {}", r.served));
    }
    let failed = r.injected.saturating_sub(r.served) + r.parse_errors + r.slow_path;
    (failed, errors)
}

impl World for ServeWorld {
    fn pass(&mut self) -> Pass {
        let (start, cpu) = (Instant::now(), stamp::cpu_seconds());
        let r = serve(&self.cfg, 1, &self.zone, &self.pools, &self.rt);
        let (seconds, cpu_seconds) = (start.elapsed().as_secs_f64(), stamp::cpu_seconds() - cpu);
        let (failed, errors) = check(&r);
        let served = r.served.max(1) as f64;
        Pass {
            seconds,
            cpu_seconds,
            ops: r.injected,
            failed,
            errors,
            fingerprint: fingerprint(r.injected, r.served, r.bytes_out, r.memo_hits, &r.snapshot, r.resp_xor),
            op_ms: Vec::new(),
            counts: vec![
                ("runtime.memo_hit_share", r.memo_hits as f64 / served),
                ("runtime.bytes_out_per_query", r.bytes_out as f64 / served),
                ("nxdomain_share", r.snapshot.counter("auth.nxdomain") as f64 / served),
            ],
        }
    }

    fn describe(&self) -> Json {
        obj([
            ("entry_point", "runtime::serve".into()),
            ("unit_divisor", self.divisor.into()),
            ("queries_per_pass", self.cfg.total_queries.into()),
            ("resolvers", u64::from(self.cfg.resolvers).into()),
            ("bogus_query_fraction", self.cfg.bogus_query_fraction.into()),
            ("memo", self.rt.memo.into()),
            ("shards", (self.rt.threads as u64).into()),
            ("batch_frames", (self.rt.batch_frames as u64).into()),
            ("ring_depth", (self.rt.ring_depth as u64).into()),
            ("seed_use", "WorkloadConfig::seed".into()),
        ])
    }

    fn trace(&mut self, spans: &mut Spans, passes: &[Pass]) -> Traced {
        let op_ns = median_op_ns(passes);
        let reference = &passes[0];

        // The staged pipeline, first bare and then under spans: the
        // difference is what recording costs. Both must serve exactly the
        // bytes the real pipeline served.
        let (bare, bare_seconds) = self.staged_pass(None);
        let (traced, traced_seconds) = spans.scope("staged_pass", |s| self.staged_pass(Some(s)));
        for (label, o) in [("bare", &bare), ("traced", &traced)] {
            // Every frame the staged injector encodes is served, so
            // injected == served there by construction.
            let staged = fingerprint(o.served, o.served, o.bytes_out, o.memo_hits, &o.snapshot, o.resp_xor);
            assert_eq!(
                staged, reference.fingerprint,
                "the {label} staged pipeline against runtime::serve"
            );
        }

        let names = Names::draw(&self.cfg, &self.pools);
        probes::zone_build(spans, self.cfg.valid_tld_count);
        probes::zone_lookups(spans, &self.zone, &names);
        probes::ring_roundtrip(spans, self.rt.ring_depth);
        probes::obs_counter(spans);
        // Metrics the staged replay measured, pooled over its batches, and
        // metrics probed in isolation.
        let mut staged = vec![
            "ditl.stream_ns_per_query",
            "proto.view_parse_ns",
            "proto.encode_referral_ns",
            "proto.encode_nxdomain_ns",
            "runtime.name_lookup_ns",
            self.serve_frame_metric(),
            "runtime.inject_ns_per_query",
        ];
        let mut probed = vec![
            "proto.encode_query_ns",
            "zone.lookup_referral_ns",
            "zone.lookup_nxdomain_ns",
            "zone.build_ms",
            "runtime.ring_roundtrip_ns_per_batch",
            "obs.counter_inc_ns",
        ];
        probes::encode_query(spans, &names);
        if self.rt.memo {
            // The memo is a resolver::Cache; its operations are on this path.
            let mut server = AuthServer::new_shared(Arc::clone(&self.zone));
            server.dnssec_enabled = false;
            probes::cache_ops(spans, &mut server, &names);
            probed.extend([
                "resolver.cache_hit_ns",
                "resolver.cache_miss_ns",
                "resolver.cache_insert_ns",
                "resolver.cache_insert_negative_ns",
            ]);
        } else {
            staged.extend(["server.handle_referral_ns", "server.handle_nxdomain_ns"]);
        }
        let mut layers = probes::collect(spans, &staged, Estimate::Pooled);
        layers.extend(probes::collect(spans, &probed, Estimate::Median));
        let self_ns = probes::self_per_op_ns(
            spans,
            &spans.self_times_ns(),
            self.serve_frame_metric(),
            Estimate::Pooled,
        );
        let serve_frame_ns = value_of(&layers, self.serve_frame_metric());
        let inject_ns = value_of(&layers, "runtime.inject_ns_per_query");
        let ring_share_ns = value_of(&layers, "runtime.ring_roundtrip_ns_per_batch") / self.rt.batch_frames as f64;
        let nx = reference.count("nxdomain_share");
        layers.push((self.self_metric(), self_ns));
        layers.push((
            "runtime.pipeline_overhead_share",
            1.0 - serve_frame_ns.max(inject_ns) / op_ns,
        ));
        for count in ["runtime.memo_hit_share", "runtime.bytes_out_per_query"] {
            layers.push((count, reference.count(count)));
        }

        // The shard stage blocks the pipeline (the injector runs beside it
        // on its own thread), so its parts and the ring share are the rows.
        let mut budget = vec![
            BudgetRow {
                label: "proto.view_parse_ns".into(),
                per_op: value_of(&layers, "proto.view_parse_ns"),
            },
            BudgetRow {
                label: "runtime.name_lookup_ns".into(),
                per_op: value_of(&layers, "runtime.name_lookup_ns"),
            },
        ];
        if !self.rt.memo {
            budget.push(BudgetRow {
                label: format!("server.handle_referral_ns x {:.3} referrals", 1.0 - nx),
                per_op: value_of(&layers, "server.handle_referral_ns") * (1.0 - nx),
            });
            budget.push(BudgetRow {
                label: format!("server.handle_nxdomain_ns x {nx:.3} nxdomains"),
                per_op: value_of(&layers, "server.handle_nxdomain_ns") * nx,
            });
        }
        budget.push(BudgetRow {
            label: format!("proto.encode_referral_ns x {:.3} referrals", 1.0 - nx),
            per_op: value_of(&layers, "proto.encode_referral_ns") * (1.0 - nx),
        });
        budget.push(BudgetRow {
            label: format!("proto.encode_nxdomain_ns x {nx:.3} nxdomains"),
            per_op: value_of(&layers, "proto.encode_nxdomain_ns") * nx,
        });
        budget.push(BudgetRow {
            label: format!("{} (serve_frame self time)", self.self_metric()),
            per_op: self_ns,
        });
        budget.push(BudgetRow {
            label: format!("runtime.ring_roundtrip_ns_per_batch / {} frames", self.rt.batch_frames),
            per_op: ring_share_ns,
        });

        let notes = vec![
            format!(
                "shard stage {} = {serve_frame_ns:.1} ns/query is {:.1}% of the end-to-end {op_ns:.1} ns/query; \
                 the whole staged pipeline on one thread, spans off, runs at {:.1} ns/query",
                self.serve_frame_metric(),
                100.0 * serve_frame_ns / op_ns,
                bare_seconds * 1e9 / bare.served as f64,
            ),
            format!(
                "injector stage runtime.inject_ns_per_query = {inject_ns:.1} ns/query runs beside it \
                 (ditl.stream {:.1} + encode/push {:.1}; proto.encode_query_ns alone {:.1})",
                value_of(&layers, "ditl.stream_ns_per_query"),
                probes::per_op_ns(spans, "runtime.encode_push", Estimate::Pooled),
                value_of(&layers, "proto.encode_query_ns"),
            ),
            format!(
                "inside the server: zone.lookup_referral_ns {:.1}, zone.lookup_nxdomain_ns {:.1}; obs.counter_inc_ns {:.1}",
                value_of(&layers, "zone.lookup_referral_ns"),
                value_of(&layers, "zone.lookup_nxdomain_ns"),
                value_of(&layers, "obs.counter_inc_ns"),
            ),
        ];
        Traced {
            layers,
            budget,
            unit: "ns",
            op_cost: op_ns,
            trace_overhead_share: traced_seconds / bare_seconds - 1.0,
            notes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_goes_red_when_a_frame_is_lost() {
        let mut world = ServeWorld::build(true, 3, Scale::Smoke);
        let mut r = serve(&world.cfg, 1, &world.zone, &world.pools, &world.rt);
        assert_eq!(check(&r), (0, Vec::new()), "an untouched run passes the gate");

        // What a truncated wire does to a shard: a parse error, no response.
        let table = Arc::new(NameTable::build(&world.pools.tlds, &world.pools.bogus));
        let mut shard = ShardState::new(Arc::clone(&world.zone), table, 0, &world.rt);
        shard.serve_frame(0, 0, &[0x12, 0x34, 0x00]);
        let lost = shard.finish();
        assert_eq!((lost.parse_errors, lost.served), (1, 0));
        r.injected += 1;
        r.parse_errors += lost.parse_errors;
        let (failed, errors) = check(&r);
        assert_eq!(failed, 2, "one query unserved and one parse error");
        assert_eq!(errors.len(), 2, "{errors:?}");

        assert!(world.pass().errors.is_empty());
    }

    #[test]
    fn staged_pipeline_serves_the_bytes_the_runtime_serves() {
        for memo in [true, false] {
            let world = ServeWorld::build(memo, 5, Scale::Smoke);
            let real = serve(&world.cfg, 1, &world.zone, &world.pools, &world.rt);
            let mut spans = Spans::new();
            let (staged, _) = world.staged_pass(Some(&mut spans));
            assert_eq!(
                (staged.served, staged.bytes_out, staged.memo_hits, staged.resp_xor),
                (real.served, real.bytes_out, real.memo_hits, real.resp_xor)
            );
            let batches = spans.all().iter().filter(|s| s.name == "batch").count() as u64;
            assert_eq!(batches, real.served.div_ceil(world.rt.batch_frames as u64));
            // serve_frame's self time excludes the shadowed stages.
            let own = spans.self_times_ns();
            let (id, span) = spans
                .all()
                .iter()
                .enumerate()
                .find(|(_, s)| s.name == world.serve_frame_metric())
                .unwrap();
            assert!(own[id] < span.duration_ns());
        }
    }
}
