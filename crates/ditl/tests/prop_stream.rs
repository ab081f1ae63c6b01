//! Property tests for the streaming trace generator: the stream meets its
//! volume budget, and sharding is an exact partition — not approximately,
//! but query-for-query at every sampled configuration.

use proptest::prelude::*;
use rootless_ditl::{Query, TraceStream, WorkloadConfig};

fn cfg_from(total_queries: u64, resolvers: u32, seed: u64, bogus_frac: f64) -> WorkloadConfig {
    WorkloadConfig {
        total_queries,
        resolvers,
        seed,
        bogus_query_fraction: bogus_frac,
        valid_tld_count: 300,
        new_tld_start: 280,
        ..WorkloadConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // The stream emits at least its budget, and every query falls inside
    // the trace day, at any bogus share.
    #[test]
    fn stream_meets_its_budget_inside_the_day(
        total in 10_000u64..60_000,
        resolvers in 40u32..300,
        seed in 0u64..u64::MAX,
        bogus in 0.45f64..0.75,
    ) {
        let cfg = cfg_from(total, resolvers, seed, bogus);
        let streamed: Vec<Query> = TraceStream::new(&cfg, 1).collect();
        prop_assert!(streamed.len() as u64 >= TraceStream::expected_queries(&cfg, 1));
        prop_assert!(streamed.iter().all(|q| q.time < rootless_ditl::trace::DAY_SECS));
    }

    // The union of any shard partition, concatenated in shard order, is a
    // permutation-free exact match of the unsharded stream — shard
    // boundaries may fall mid-unit, mid-resolver-class, anywhere.
    #[test]
    fn shard_union_is_the_unsharded_stream(
        total in 10_000u64..40_000,
        resolvers in 40u32..250,
        seed in 0u64..u64::MAX,
        shards in 1u64..17,
        replicas in 1u64..4,
    ) {
        let cfg = cfg_from(total, resolvers, seed, 0.61);
        let whole: Vec<Query> = TraceStream::new(&cfg, replicas).collect();
        let mut stitched: Vec<Query> = Vec::with_capacity(whole.len());
        for i in 0..shards {
            stitched.extend(TraceStream::shard(&cfg, replicas, shards, i));
        }
        prop_assert_eq!(stitched.len(), whole.len());
        for (i, (a, b)) in stitched.iter().zip(whole.iter()).enumerate() {
            prop_assert_eq!(a, b, "first divergence at query {}", i);
        }
    }

    // Shards own disjoint, contiguous, exhaustive resolver ranges: each
    // resolver id appears in exactly one shard, and shard resolver ranges
    // never interleave.
    #[test]
    fn shards_partition_the_resolver_space(
        resolvers in 40u32..250,
        seed in 0u64..u64::MAX,
        shards in 2u64..9,
        replicas in 1u64..4,
    ) {
        let cfg = cfg_from(20_000, resolvers, seed, 0.61);
        let mut owner = vec![None::<u64>; (resolvers as u64 * replicas) as usize];
        let mut prev_max: Option<u32> = None;
        for i in 0..shards {
            let mut shard_max = None;
            for q in TraceStream::shard(&cfg, replicas, shards, i) {
                let r = q.resolver as usize;
                prop_assert!(owner[r].is_none() || owner[r] == Some(i),
                    "resolver {} claimed by shards {:?} and {}", r, owner[r], i);
                owner[r] = Some(i);
                if let Some(p) = prev_max {
                    prop_assert!(q.resolver > p, "shard {} reuses resolver {}", i, q.resolver);
                }
                shard_max = Some(shard_max.map_or(q.resolver, |m: u32| m.max(q.resolver)));
            }
            if let Some(m) = shard_max {
                prev_max = Some(m);
            }
        }
        prop_assert!(owner.iter().all(|o| o.is_some()), "every resolver must appear");
    }
}
