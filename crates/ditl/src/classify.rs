//! The §2.2 junk-query classifier.
//!
//! Given one day of root traffic, split it exactly the way the paper does:
//!
//! 1. queries for **bogus TLDs** (61.0% in DITL-2018);
//! 2. of the rest, queries an **ideal cache** would have absorbed — more
//!    than one query for the same TLD from the same resolver in the day
//!    (38.4%), leaving 0.5% valid;
//! 3. relaxing to one allowed query per (resolver, TLD) per **15-minute
//!    window** (96/day) reclassifies some repeats as valid: 35.7% repeats,
//!    3.3% valid (≈187M of 5.7B; ~15 valid q/s per j-root instance).

use std::collections::{HashMap, HashSet};

use crate::trace::{Query, QueryName, WINDOWS_PER_DAY};

/// The output table of the traffic study.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TrafficReport {
    /// Total queries observed.
    pub total: u64,
    /// Distinct resolver addresses.
    pub distinct_resolvers: u64,
    /// Resolvers whose every query named a bogus TLD.
    pub bogus_only_resolvers: u64,
    /// Queries naming bogus TLDs.
    pub bogus_queries: u64,
    /// Valid-TLD queries beyond the first per (resolver, TLD) — the
    /// ideal-cache repeat count.
    pub repeats_ideal: u64,
    /// Valid-TLD queries beyond the first per (resolver, TLD, window).
    pub repeats_window: u64,
    /// Valid under the ideal-cache model.
    pub valid_ideal: u64,
    /// Valid under the 15-minute model.
    pub valid_window: u64,
    /// Queries per valid TLD index (for the §5.3 new-TLD analysis).
    pub per_tld_queries: HashMap<u32, u64>,
    /// Distinct resolvers per valid TLD index.
    pub per_tld_resolvers: HashMap<u32, u64>,
}

impl TrafficReport {
    /// Fraction helpers for the paper's percentages.
    pub fn bogus_fraction(&self) -> f64 {
        self.bogus_queries as f64 / self.total as f64
    }
    /// Repeat fraction under the ideal-cache model.
    pub fn repeats_ideal_fraction(&self) -> f64 {
        self.repeats_ideal as f64 / self.total as f64
    }
    /// Valid fraction under the ideal-cache model.
    pub fn valid_ideal_fraction(&self) -> f64 {
        self.valid_ideal as f64 / self.total as f64
    }
    /// Repeat fraction under the 15-minute model.
    pub fn repeats_window_fraction(&self) -> f64 {
        self.repeats_window as f64 / self.total as f64
    }
    /// Valid fraction under the 15-minute model.
    pub fn valid_window_fraction(&self) -> f64 {
        self.valid_window as f64 / self.total as f64
    }

    /// Mean queries per second across the day.
    pub fn qps(&self) -> f64 {
        self.total as f64 / 86_400.0
    }

    /// Valid (15-min model) queries per second per server instance.
    pub fn valid_qps_per_instance(&self, instances: u64) -> f64 {
        self.valid_window as f64 / 86_400.0 / instances as f64
    }

    /// Folds a resolver-disjoint shard's report into `self`: every count
    /// adds, including the distinct-resolver tallies — which is only sound
    /// because [`crate::trace::TraceStream::shard`] partitions the resolver
    /// space, so no resolver (and hence no (resolver, TLD) pair or window
    /// slot) can be counted by two shards. Merging in shard order keeps the
    /// fold independent of worker scheduling.
    pub fn merge(&mut self, shard: &TrafficReport) {
        self.total += shard.total;
        self.distinct_resolvers += shard.distinct_resolvers;
        self.bogus_only_resolvers += shard.bogus_only_resolvers;
        self.bogus_queries += shard.bogus_queries;
        self.repeats_ideal += shard.repeats_ideal;
        self.repeats_window += shard.repeats_window;
        self.valid_ideal += shard.valid_ideal;
        self.valid_window += shard.valid_window;
        for (&tld, &n) in &shard.per_tld_queries {
            *self.per_tld_queries.entry(tld).or_insert(0) += n;
        }
        for (&tld, &n) in &shard.per_tld_resolvers {
            *self.per_tld_resolvers.entry(tld).or_insert(0) += n;
        }
    }
}

/// Incremental form of the classifier: feed queries one at a time with
/// [`Classifier::observe`], then [`Classifier::finish`] into the report.
///
/// This is what lets the serving runtime classify *while serving* — each
/// per-core shard owns one `Classifier` and observes queries as they come
/// off its ring, instead of making a second pass over the stream. State is
/// O(distinct resolvers + distinct (resolver, TLD) pairs) for the queries
/// observed, so shards bounded to a resolver range keep it bounded too.
#[derive(Debug, Default)]
pub struct Classifier {
    report: TrafficReport,
    resolvers: HashSet<u32>,
    resolvers_with_valid: HashSet<u32>,
    /// (resolver, tld) → seen
    pair_seen: HashSet<(u32, u32)>,
    /// (resolver, tld) → bitmap over 96 windows
    window_seen: HashMap<(u32, u32), [u64; 2]>,
    tld_resolver_seen: HashSet<(u32, u32)>,
}

impl Classifier {
    /// Fresh classifier state.
    pub fn new() -> Classifier {
        debug_assert!(WINDOWS_PER_DAY as usize <= 128);
        Classifier::default()
    }

    /// Accounts one query.
    pub fn observe(&mut self, q: &Query) {
        self.report.total += 1;
        self.resolvers.insert(q.resolver);
        match q.name {
            QueryName::BogusTld(_) => {
                self.report.bogus_queries += 1;
            }
            QueryName::ValidTld(tld) => {
                self.resolvers_with_valid.insert(q.resolver);
                *self.report.per_tld_queries.entry(tld).or_insert(0) += 1;
                if self.tld_resolver_seen.insert((tld, q.resolver)) {
                    *self.report.per_tld_resolvers.entry(tld).or_insert(0) += 1;
                }
                let key = (q.resolver, tld);
                if self.pair_seen.insert(key) {
                    self.report.valid_ideal += 1;
                } else {
                    self.report.repeats_ideal += 1;
                }
                let w = q.window() as usize;
                let bitmap = self.window_seen.entry(key).or_insert([0, 0]);
                let (word, bit) = (w / 64, w % 64);
                if bitmap[word] & (1 << bit) == 0 {
                    bitmap[word] |= 1 << bit;
                    self.report.valid_window += 1;
                } else {
                    self.report.repeats_window += 1;
                }
            }
        }
    }

    /// Resolves the distinct-resolver tallies and returns the report.
    pub fn finish(mut self) -> TrafficReport {
        self.report.distinct_resolvers = self.resolvers.len() as u64;
        self.report.bogus_only_resolvers = self
            .resolvers
            .iter()
            .filter(|r| !self.resolvers_with_valid.contains(r))
            .count() as u64;
        self.report
    }
}

/// Runs the classifier over a query stream without materializing it.
///
/// State is O(distinct resolvers + distinct (resolver, TLD) pairs) for the
/// queries *this call sees* — which is why the paper-scale run shards the
/// stream by resolver range ([`crate::trace::TraceStream::shard`]),
/// classifies each shard independently, and folds the reports with
/// [`TrafficReport::merge`]: per-shard state stays bounded by the unit
/// population no matter how many billions of queries flow through.
pub fn classify_stream<I: IntoIterator<Item = Query>>(queries: I) -> TrafficReport {
    let mut c = Classifier::new();
    for q in queries {
        c.observe(&q);
    }
    c.finish()
}

/// Formats the report as the paper's §2.2 narrative table.
pub fn format_report(report: &TrafficReport, scale_note: &str) -> String {
    use rootless_util::stats::{group_digits, pct};
    let mut out = String::new();
    out.push_str(&format!("DITL-style root traffic study {scale_note}\n"));
    out.push_str(&format!(
        "  total queries            {:>15}   ({:.0} q/s)\n",
        group_digits(report.total),
        report.qps()
    ));
    out.push_str(&format!(
        "  distinct resolvers       {:>15}\n",
        group_digits(report.distinct_resolvers)
    ));
    out.push_str(&format!(
        "  bogus-only resolvers     {:>15}   ({})\n",
        group_digits(report.bogus_only_resolvers),
        pct(report.bogus_only_resolvers as f64 / report.distinct_resolvers as f64)
    ));
    out.push_str(&format!(
        "  bogus-TLD queries        {:>15}   ({})\n",
        group_digits(report.bogus_queries),
        pct(report.bogus_fraction())
    ));
    out.push_str(&format!(
        "  ideal-cache model: repeats {:>13} ({}), valid {} ({})\n",
        group_digits(report.repeats_ideal),
        pct(report.repeats_ideal_fraction()),
        group_digits(report.valid_ideal),
        pct(report.valid_ideal_fraction())
    ));
    out.push_str(&format!(
        "  15-minute model:   repeats {:>13} ({}), valid {} ({})\n",
        group_digits(report.repeats_window),
        pct(report.repeats_window_fraction()),
        group_digits(report.valid_window),
        pct(report.valid_window_fraction())
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::WorkloadConfig;
    use crate::trace::{Query, QueryName, TraceStream};

    fn q(time: u32, resolver: u32, name: QueryName) -> Query {
        Query { time, resolver, name }
    }

    fn classify_queries(queries: &[Query]) -> TrafficReport {
        classify_stream(queries.iter().copied())
    }

    #[test]
    fn bogus_counting() {
        let queries = vec![
            q(0, 1, QueryName::BogusTld(0)),
            q(1, 1, QueryName::BogusTld(1)),
            q(2, 2, QueryName::ValidTld(0)),
        ];
        let r = classify_queries(&queries);
        assert_eq!(r.total, 3);
        assert_eq!(r.bogus_queries, 2);
        assert_eq!(r.distinct_resolvers, 2);
        assert_eq!(r.bogus_only_resolvers, 1);
    }

    #[test]
    fn ideal_cache_counts_first_only() {
        let queries = vec![
            q(0, 1, QueryName::ValidTld(7)),
            q(100, 1, QueryName::ValidTld(7)),
            q(200, 1, QueryName::ValidTld(7)),
            q(300, 1, QueryName::ValidTld(8)),
        ];
        let r = classify_queries(&queries);
        assert_eq!(r.valid_ideal, 2);
        assert_eq!(r.repeats_ideal, 2);
    }

    #[test]
    fn window_model_allows_one_per_window() {
        // Same pair in three different windows + one repeat inside a window.
        let queries = vec![
            q(0, 1, QueryName::ValidTld(7)),        // window 0
            q(10, 1, QueryName::ValidTld(7)),       // window 0 repeat
            q(900, 1, QueryName::ValidTld(7)),      // window 1
            q(1_800, 1, QueryName::ValidTld(7)),    // window 2
        ];
        let r = classify_queries(&queries);
        assert_eq!(r.valid_window, 3);
        assert_eq!(r.repeats_window, 1);
        assert_eq!(r.valid_ideal, 1);
        assert_eq!(r.repeats_ideal, 3);
    }

    #[test]
    fn different_resolvers_counted_separately() {
        let queries = vec![
            q(0, 1, QueryName::ValidTld(7)),
            q(0, 2, QueryName::ValidTld(7)),
        ];
        let r = classify_queries(&queries);
        assert_eq!(r.valid_ideal, 2);
        assert_eq!(r.repeats_ideal, 0);
    }

    #[test]
    fn per_tld_accounting() {
        let queries = vec![
            q(0, 1, QueryName::ValidTld(7)),
            q(1, 2, QueryName::ValidTld(7)),
            q(2, 1, QueryName::ValidTld(7)),
            q(3, 1, QueryName::ValidTld(9)),
        ];
        let r = classify_queries(&queries);
        assert_eq!(r.per_tld_queries[&7], 3);
        assert_eq!(r.per_tld_resolvers[&7], 2);
        assert_eq!(r.per_tld_queries[&9], 1);
    }

    #[test]
    fn generated_trace_reproduces_paper_shape() {
        // The headline test: the default-calibrated generator must land
        // near the paper's DITL-2018 percentages.
        let cfg = WorkloadConfig {
            total_queries: 800_000,
            resolvers: 1_000,
            ..WorkloadConfig::default()
        };
        let r = classify_stream(TraceStream::new(&cfg, 1));
        assert!((r.bogus_fraction() - 0.61).abs() < 0.03, "bogus {}", r.bogus_fraction());
        assert!(
            r.valid_ideal_fraction() < 0.015,
            "ideal-cache valid {} should be well under 2%",
            r.valid_ideal_fraction()
        );
        assert!(
            (0.015..0.08).contains(&r.valid_window_fraction()),
            "15-min valid {} should sit a few percent",
            r.valid_window_fraction()
        );
        assert!(
            r.valid_window_fraction() > r.valid_ideal_fraction() * 2.0,
            "relaxing the cache model must reclassify repeats as valid"
        );
        let bogus_only_frac = r.bogus_only_resolvers as f64 / r.distinct_resolvers as f64;
        assert!((bogus_only_frac - 0.176).abs() < 0.05, "bogus-only {bogus_only_frac}");
    }

    #[test]
    fn sharded_classify_merges_to_the_unsharded_report() {
        let cfg = WorkloadConfig::tiny();
        let full = classify_stream(TraceStream::new(&cfg, 2));
        for shards in [1u64, 3, 4] {
            let mut merged = TrafficReport::default();
            for i in 0..shards {
                merged.merge(&classify_stream(TraceStream::shard(&cfg, 2, shards, i)));
            }
            assert_eq!(merged.total, full.total);
            assert_eq!(merged.distinct_resolvers, full.distinct_resolvers);
            assert_eq!(merged.bogus_only_resolvers, full.bogus_only_resolvers);
            assert_eq!(merged.bogus_queries, full.bogus_queries);
            assert_eq!(merged.repeats_ideal, full.repeats_ideal);
            assert_eq!(merged.repeats_window, full.repeats_window);
            assert_eq!(merged.valid_ideal, full.valid_ideal);
            assert_eq!(merged.valid_window, full.valid_window);
            assert_eq!(merged.per_tld_queries, full.per_tld_queries);
            assert_eq!(merged.per_tld_resolvers, full.per_tld_resolvers);
        }
    }

    #[test]
    fn replication_scaling_preserves_every_fraction_exactly() {
        // The determinism net: counts scale by exactly k, and since both
        // numerator and denominator stay exactly representable, the f64
        // quotients — and so every rendered percentage — are bit-identical.
        let cfg = WorkloadConfig::tiny();
        let base = classify_stream(TraceStream::new(&cfg, 1));
        let scaled = classify_stream(TraceStream::new(&cfg, 3));
        assert_eq!(scaled.total, base.total * 3);
        assert_eq!(scaled.distinct_resolvers, base.distinct_resolvers * 3);
        assert_eq!(scaled.valid_window, base.valid_window * 3);
        assert_eq!(scaled.bogus_fraction().to_bits(), base.bogus_fraction().to_bits());
        assert_eq!(
            scaled.valid_window_fraction().to_bits(),
            base.valid_window_fraction().to_bits()
        );
        assert_eq!(
            scaled.repeats_ideal_fraction().to_bits(),
            base.repeats_ideal_fraction().to_bits()
        );
    }

    #[test]
    fn report_formatting_contains_key_rows() {
        let cfg = WorkloadConfig::tiny();
        let r = classify_stream(TraceStream::new(&cfg, 1));
        let text = format_report(&r, "(tiny)");
        assert!(text.contains("bogus-TLD queries"));
        assert!(text.contains("15-minute model"));
    }
}
