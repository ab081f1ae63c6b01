//! The resolve workloads: the DITL unit as full recursive resolution
//! through `experiments::parsim::run_rootload` — stub clients, recursive
//! resolvers, the 26-instance root fleet and the TLD servers — on one
//! timing wheel (`resolve_sim`) and on two wheels under conservative
//! lookahead epochs (`resolve_psim`). Same world, so the ratio of their
//! throughputs is the measured two-shard speed-up.

use std::sync::Arc;
use std::time::Instant;

use rootless_ditl::WorkloadConfig;
use rootless_experiments::modelcheck;
use rootless_experiments::parsim::{run_rootload, ParsimRootLoadReport};
use rootless_runtime::QnamePools;
use rootless_server::AuthServer;
use rootless_zone::rootzone::{self, RootZoneConfig};

use crate::json::{obj, Json};
use crate::probes::{self, Estimate, Names};
use crate::spans::Spans;
use crate::stamp;
use crate::workload::{median_op_ns, value_of, BudgetRow, Pass, Scale, Traced, World};

/// `run_rootload(4_000_000, 1)` is one resolver and 1,425 resolutions:
/// building the zone and the TLD servers dominates it.
const WORLD_BUILD_DIVISOR: u64 = 4_000_000;

/// A resolve workload: `run_rootload` builds its whole world per call, so
/// this holds only the call's arguments and the one-shard reference.
pub struct ResolveWorld {
    divisor: u64,
    threads: usize,
    /// Fingerprint of a one-shard run of the same world, taken during
    /// set-up when this workload runs more than one shard: the sharded
    /// engine must report exactly what the plain one does.
    one_shard: Option<(String, f64)>,
}

/// Every field of the report; all are invariant across shard counts.
fn fingerprint(r: &ParsimRootLoadReport) -> String {
    format!(
        "client_queries={} answered={} nxdomain={} servfail={} root_sent={} root_served={} \
         tld_served={} cache_answers={} cohorts={} resolvers={}",
        r.client_queries,
        r.answered,
        r.nxdomain,
        r.servfail,
        r.root_queries_sent,
        r.root_queries_served,
        r.tld_queries_served,
        r.cache_answers,
        r.cohorts,
        r.resolvers
    )
}

/// The resolve correctness gate: operations failed and the violations.
pub fn check(r: &ParsimRootLoadReport) -> (u64, Vec<String>) {
    let mut errors = Vec::new();
    if r.answered + r.nxdomain != r.client_queries {
        errors.push(format!(
            "{} answered + {} nxdomain of {} client queries",
            r.answered, r.nxdomain, r.client_queries
        ));
    }
    if r.servfail != 0 {
        errors.push(format!("{} SERVFAILs in a healthy world", r.servfail));
    }
    if r.root_queries_sent != r.root_queries_served {
        errors.push(format!(
            "resolvers sent {} root queries, the fleet served {}",
            r.root_queries_sent, r.root_queries_served
        ));
    }
    let failed = r.client_queries.saturating_sub(r.answered + r.nxdomain) + r.servfail;
    (failed, errors)
}

impl ResolveWorld {
    /// `run_rootload` exposes no seed, so the input is fixed: the record
    /// says so instead of faking variation. `perturbed` halves the unit.
    pub fn build(threads: usize, scale: Scale, perturbed: bool) -> ResolveWorld {
        // 1/200000 of the DITL day: 28,500 client resolutions through 20
        // resolvers, 0.4 s a pass on one wheel and 1.7 s on two.
        let divisor = match scale {
            Scale::Full => 200_000,
            Scale::Smoke => 2_000_000,
        } * if perturbed { 2 } else { 1 };
        let one_shard = (threads > 1).then(|| {
            let start = Instant::now();
            let r = run_rootload(divisor, 1);
            (
                fingerprint(&r),
                start.elapsed().as_secs_f64() * 1e9 / r.client_queries as f64,
            )
        });
        ResolveWorld {
            divisor,
            threads,
            one_shard,
        }
    }

    /// The unit `run_rootload` resolves, rebuilt from its public inputs
    /// for the probes (its own builder is crate-private).
    fn unit(&self) -> WorkloadConfig {
        WorkloadConfig {
            total_queries: 5_700_000_000 / self.divisor,
            resolvers: (4_100_000 / self.divisor) as u32,
            ..WorkloadConfig::default()
        }
    }
}

impl World for ResolveWorld {
    fn pass(&mut self) -> Pass {
        let (start, cpu) = (Instant::now(), stamp::cpu_seconds());
        let r = run_rootload(self.divisor, self.threads);
        let (seconds, cpu_seconds) = (start.elapsed().as_secs_f64(), stamp::cpu_seconds() - cpu);
        let (failed, mut errors) = check(&r);
        let fingerprint = fingerprint(&r);
        if let Some((one_shard, _)) = &self.one_shard {
            if *one_shard != fingerprint {
                errors.push(format!(
                    "{} shards report [{fingerprint}], one shard [{one_shard}]",
                    self.threads
                ));
            }
        }
        let queries = r.client_queries.max(1) as f64;
        Pass {
            seconds,
            cpu_seconds,
            ops: r.client_queries,
            failed,
            errors,
            fingerprint,
            op_ms: Vec::new(),
            counts: vec![
                (
                    "resolver.upstream_per_resolution",
                    (r.root_queries_sent + r.tld_queries_served) as f64 / queries,
                ),
                ("resolver.cache_answer_share", r.cache_answers as f64 / queries),
                ("root_per_resolution", r.root_queries_sent as f64 / queries),
                ("nxdomain_share", r.nxdomain as f64 / queries),
            ],
        }
    }

    fn describe(&self) -> Json {
        let unit = self.unit();
        obj([
            ("entry_point", "experiments::parsim::run_rootload".into()),
            ("unit_divisor", self.divisor.into()),
            ("resolutions_per_pass", unit.total_queries.into()),
            ("resolvers", u64::from(unit.resolvers).into()),
            ("bogus_query_fraction", unit.bogus_query_fraction.into()),
            ("root_mode", "hints".into()),
            ("sim_shards", (self.threads as u64).into()),
            ("seed_use", "fixed: run_rootload exposes no seed".into()),
        ])
    }

    fn trace(&mut self, spans: &mut Spans, passes: &[Pass]) -> Traced {
        let op_ns = median_op_ns(passes);
        let reference = &passes[0];
        let unit = self.unit();
        let zone = Arc::new(rootzone::build(&RootZoneConfig {
            tld_count: unit.valid_tld_count,
            ..RootZoneConfig::default()
        }));
        let pools = QnamePools::build(&unit, &zone);
        let names = Names::draw(&unit, &pools);
        // The root fleet's servers, configured as parsim configures them.
        let mut server = AuthServer::new_shared(Arc::clone(&zone));

        probes::ditl_stream(spans, &unit);
        probes::zone_build(spans, unit.valid_tld_count);
        probes::zone_lookups(spans, &zone, &names);
        probes::server_handles(spans, &mut server, &names);
        probes::encode_query(spans, &names);
        probes::response_codec(spans, &mut server, &names);
        probes::cache_ops(spans, &mut server, &names);
        probes::srtt_pick(spans);
        probes::wheel(spans);
        probes::sim_engines(spans);
        probes::node_roundtrip(spans, &zone, &names);
        probes::obs_counter(spans);
        probes::probe(spans, "experiments.parsim_world_build_ms", || {
            std::hint::black_box(run_rootload(WORLD_BUILD_DIVISOR, 1).client_queries);
        });
        let mut span_backed = vec![
            "ditl.stream_ns_per_query",
            "proto.encode_query_ns",
            "proto.encode_referral_ns",
            "proto.encode_nxdomain_ns",
            "proto.decode_referral_ns",
            "zone.lookup_referral_ns",
            "zone.lookup_nxdomain_ns",
            "zone.build_ms",
            "server.handle_referral_ns",
            "server.handle_nxdomain_ns",
            "server.node_roundtrip_ns",
            "resolver.cache_hit_ns",
            "resolver.cache_miss_ns",
            "resolver.cache_insert_ns",
            "resolver.cache_insert_negative_ns",
            "resolver.srtt_pick_ns",
            "netsim.wheel_ns_per_op",
            "netsim.sim_ns_per_event",
            "netsim.psim1_ns_per_event",
            "netsim.psim2_ns_per_event",
            "experiments.parsim_world_build_ms",
            "obs.counter_inc_ns",
        ];
        if self.threads == 1 {
            // No workload runs the model checker yet; it explores the same
            // resolver and simulator states, so its baseline is taken here.
            let id = spans.enter("mc.explored_states_per_s");
            let report = modelcheck::run();
            let explored: u64 = report.gate.iter().chain(&report.stale).map(|r| r.explored).sum();
            spans.exit(id, explored);
            span_backed.push("mc.explored_states_per_s");
        }

        let mut layers = probes::collect(spans, &span_backed, Estimate::Median);
        let value = |name: &str| value_of(&layers, name);
        let sim_event_ns = value("netsim.sim_ns_per_event");
        let sync_ratio = value("netsim.psim2_ns_per_event") / sim_event_ns;
        let upstream = reference.count("resolver.upstream_per_resolution");
        let cached = reference.count("resolver.cache_answer_share");
        let root = reference.count("root_per_resolution");
        let nx = reference.count("nxdomain_share");
        let mix = |referral: &str, nxdomain: &str| value(referral) * (1.0 - nx) + value(nxdomain) * nx;

        // What can be priced from outside: each resolution is a client
        // timer, a query to the resolver and its answer (3 events), plus a
        // query and a response per upstream exchange. The resolver's own
        // state machine has no entry point to time and stays unattributed.
        let events = 3.0 + 2.0 * upstream;
        let mut budget = vec![
            BudgetRow {
                label: format!("netsim.sim_ns_per_event x {events:.2} events (3 + 2 per upstream exchange)"),
                per_op: sim_event_ns * events,
            },
            BudgetRow {
                label: format!("server.handle_*_ns (junk-share mix) x {upstream:.3} upstream exchanges"),
                per_op: mix("server.handle_referral_ns", "server.handle_nxdomain_ns") * upstream,
            },
            BudgetRow {
                label: format!(
                    "proto.encode_query_ns + encode_*_ns (mix) + decode_referral_ns, x {upstream:.3} exchanges"
                ),
                per_op: (value("proto.encode_query_ns")
                    + mix("proto.encode_referral_ns", "proto.encode_nxdomain_ns")
                    + value("proto.decode_referral_ns"))
                    * upstream,
            },
            BudgetRow {
                label: format!(
                    "resolver.cache_hit_ns x {cached:.3} + cache_miss_ns x {:.3} + cache_insert_*_ns (mix) x {upstream:.3}",
                    1.0 - cached
                ),
                per_op: value("resolver.cache_hit_ns") * cached
                    + value("resolver.cache_miss_ns") * (1.0 - cached)
                    + mix("resolver.cache_insert_ns", "resolver.cache_insert_negative_ns") * upstream,
            },
            BudgetRow {
                label: format!("resolver.srtt_pick_ns x {root:.3} root queries"),
                per_op: value("resolver.srtt_pick_ns") * root,
            },
            BudgetRow {
                label: format!("experiments.parsim_world_build_ms / {} resolutions", reference.ops),
                per_op: value("experiments.parsim_world_build_ms") * 1e6 / reference.ops as f64,
            },
        ];
        let mut notes = vec![format!(
            "server.node_roundtrip_ns {:.0} (timer + two deliveries + decode, handle, encode) cross-checks \
             3 sim events + handle + codec; ditl.stream_ns_per_query {:.1} and zone.build_ms {:.1} are set-up",
            value("server.node_roundtrip_ns"),
            value("ditl.stream_ns_per_query"),
            value("zone.build_ms"),
        )];
        if let Some((_, one_shard_ns)) = &self.one_shard {
            budget.push(BudgetRow {
                label: format!(
                    "netsim::psim epochs and barriers: {op_ns:.0} - {one_shard_ns:.0} ns on the one-shard reference pass"
                ),
                per_op: (op_ns - one_shard_ns).max(0.0),
            });
            notes.push(format!(
                "two-shard speed-up on this world: {:.3}x ({one_shard_ns:.0} ns/resolution on one shard / {op_ns:.0} on two)",
                one_shard_ns / op_ns
            ));
        }
        notes.push(format!(
            "ping-pong world: plain Sim {sim_event_ns:.1} ns/event, one-shard bypass {:.1}, two shards {:.1} ({sync_ratio:.2}x)",
            value("netsim.psim1_ns_per_event"),
            value("netsim.psim2_ns_per_event"),
        ));

        layers.push(("netsim.psim_sync_overhead_ratio", sync_ratio));
        for count in ["resolver.upstream_per_resolution", "resolver.cache_answer_share"] {
            layers.push((count, reference.count(count)));
        }
        Traced {
            layers,
            budget,
            unit: "ns",
            op_cost: op_ns,
            trace_overhead_share: spans.wrapping_overhead_share(),
            notes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_pass_is_checked_against_a_different_divisor_and_fails() {
        // A reference taken from another world: the planted fault.
        let mut world = ResolveWorld::build(2, Scale::Smoke, false);
        assert!(world.pass().errors.is_empty(), "the honest reference matches");
        world.one_shard = ResolveWorld::build(2, Scale::Smoke, true).one_shard;
        let pass = world.pass();
        assert_eq!(pass.failed, 0, "the resolutions themselves all settle");
        assert_eq!(pass.errors.len(), 1, "{:?}", pass.errors);
        assert!(pass.errors[0].contains("one shard"));
    }

    #[test]
    fn gate_counts_unsettled_and_servfailed_resolutions() {
        let mut r = run_rootload(2_000_000, 1);
        assert_eq!(check(&r), (0, Vec::new()));
        r.answered -= 2;
        r.servfail = 2;
        r.root_queries_served -= 1;
        let (failed, errors) = check(&r);
        assert_eq!(failed, 4);
        assert_eq!(errors.len(), 3, "{errors:?}");
    }
}
