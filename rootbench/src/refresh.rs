//! The refresh workload: the paper's own proposal. A `RootZoneManager`
//! ticks once a day against a mirror that publishes the 1,532-TLD
//! 2019-era churn timeline signed for incremental consumers over an rsync
//! channel: publish-sign, rsync delta, `ZoneDiff`, incremental DNSSEC
//! re-validation, install. Day 0 is the cold start (full download, full
//! verification); every later day is the steady state.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use rootless_core::{MirrorZoneSource, RefreshPolicy, RootZoneManager, Verification};
use rootless_delta::rsync::{compute_delta, Signature};
use rootless_delta::{Channel, ZoneFile};
use rootless_dnssec::incremental::{Publisher, VerifiedZone};
use rootless_dnssec::ZoneKey;
use rootless_proto::Name;
use rootless_util::time::{Date, SimDuration, SimTime};
use rootless_util::{lzss, sha256};
use rootless_zone::churn::Timeline;
use rootless_zone::{history, Zone, ZoneDiff};

use crate::json::{obj, Json};
use crate::probes::{self, Estimate};
use crate::spans::Spans;
use crate::workload::{cold_and_steady_ms, value_of, BudgetRow, Pass, Scale, Traced, World};
use crate::{stamp, stats};

/// rsync block size of the distribution channel.
const RSYNC_BLOCK: usize = 2_048;

/// The refresh world: the churn timeline and the trust anchor. Each pass
/// builds a fresh mirror and manager over them, because the mirror caches
/// every day it has prepared.
pub struct RefreshWorld {
    timeline: Arc<Timeline>,
    key: ZoneKey,
    start: Date,
    days: u64,
}

fn day_time(day: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_days(day)
}

impl RefreshWorld {
    /// `seed` feeds the churn draws and the zone key.
    pub fn build(seed: u64, scale: Scale) -> RefreshWorld {
        // A tick over the 1,532-TLD zone is 0.37 s here; five days a pass
        // (one cold, four steady) keeps a pass under 2 s. The smoke pass
        // replays the 280-TLD zone of 2009 instead.
        let (start, days) = match scale {
            Scale::Full => (Date::new(2019, 4, 1), 5),
            Scale::Smoke => (Date::new(2009, 5, 1), 3),
        };
        RefreshWorld {
            timeline: Arc::new(history::churn_timeline(start, days, seed)),
            key: ZoneKey::generate(Name::root(), true, seed),
            start,
            days,
        }
    }

    fn manager(&self) -> RootZoneManager {
        let source = MirrorZoneSource::new(Arc::clone(&self.timeline), self.key.clone())
            .with_incremental_publishing()
            .with_channel(Channel::Rsync { block: RSYNC_BLOCK });
        // Refresh daily, so every tick of the pass finds a new serial.
        let policy = RefreshPolicy {
            refresh_after: SimDuration::from_days(1),
            ..RefreshPolicy::default()
        };
        RootZoneManager::new(
            Box::new(source),
            Verification::Incremental { key: self.key.clone() },
            policy,
        )
    }

    /// One pass, with a span per tick when `spans` is given.
    fn run(&self, mut spans: Option<&mut Spans>) -> Pass {
        let mut manager = self.manager();
        let mut op_ms = Vec::with_capacity(self.days as usize);
        let mut installed = 0u64;
        let cpu = stamp::cpu_seconds();
        for day in 0..self.days {
            let span = spans.as_mut().map(|s| {
                s.enter(if day == 0 {
                    "core.tick_cold_ms"
                } else {
                    "core.tick_steady_ms"
                })
            });
            let start = Instant::now();
            let zone = manager.tick(day_time(day));
            op_ms.push(start.elapsed().as_secs_f64() * 1e3);
            if let (Some(s), Some(id)) = (spans.as_mut(), span) {
                s.exit(id, 1);
            }
            installed += u64::from(zone.is_some());
        }
        let cpu_seconds = stamp::cpu_seconds() - cpu;

        let stats = &manager.stats;
        let mut errors = Vec::new();
        if stats.installs != self.days || installed != self.days {
            errors.push(format!(
                "{} installs ({installed} returned) in {} ticks",
                stats.installs, self.days
            ));
        }
        if stats.incremental_verifies != self.days - 1 {
            errors.push(format!(
                "{} incremental verifications over {} steady days ({} fallbacks)",
                stats.incremental_verifies,
                self.days - 1,
                stats.incremental_fallbacks
            ));
        }
        // The state carried forward by diffs must equal a from-scratch
        // validation of the last day's zone.
        let now = day_time(self.days - 1).as_secs() as u32;
        let digest = match (manager.verified(), manager.zone()) {
            (Some(carried), Some(zone)) => match VerifiedZone::full_verify(&zone, &self.key, now) {
                Ok(fresh) if fresh.state_digest() == carried.state_digest() => carried.state_digest(),
                Ok(_) => {
                    errors.push("incremental state diverged from a from-scratch verification".to_string());
                    carried.state_digest()
                }
                Err(e) => {
                    errors.push(format!("the installed zone fails full verification: {e}"));
                    carried.state_digest()
                }
            },
            _ => {
                errors.push("no verified zone is held after the pass".to_string());
                [0; 32]
            }
        };
        let installs = stats.installs.max(1) as f64;
        Pass {
            seconds: op_ms.iter().sum::<f64>() / 1e3,
            cpu_seconds,
            ops: self.days,
            failed: self.days.saturating_sub(stats.installs),
            errors,
            fingerprint: format!(
                "installs={} incremental={} fallbacks={} bytes_down={} bytes_up={} serial={} state={}",
                stats.installs,
                stats.incremental_verifies,
                stats.incremental_fallbacks,
                stats.bytes_down,
                stats.bytes_up,
                manager.serial().unwrap_or(0),
                rootless_util::hex::encode(&digest[..8]),
            ),
            op_ms,
            counts: vec![
                ("delta.bytes_down_per_day", stats.bytes_down as f64 / installs),
                (
                    "core.incremental_share",
                    stats.incremental_verifies as f64 / (stats.installs.saturating_sub(1)).max(1) as f64,
                ),
            ],
        }
    }
}

impl World for RefreshWorld {
    fn pass(&mut self) -> Pass {
        self.run(None)
    }

    fn describe(&self) -> Json {
        obj([
            ("entry_point", "core::RootZoneManager::tick".into()),
            ("timeline_start", format!("{}", self.start).into()),
            ("tlds", (self.timeline.base.tld_count as u64).into()),
            ("days_per_pass", self.days.into()),
            ("channel", format!("rsync, {RSYNC_BLOCK}-byte blocks").into()),
            ("verification", "incremental".into()),
            ("seed_use", "churn_timeline seed and ZoneKey seed".into()),
        ])
    }

    fn trace(&mut self, spans: &mut Spans, passes: &[Pass]) -> Traced {
        let reference = &passes[0];
        // One more pass with a span around every tick.
        let traced = spans.scope("pass", |s| self.run(Some(s)));
        assert_eq!(
            traced.fingerprint, reference.fingerprint,
            "the traced pass repeats the timed ones"
        );
        let (cold, steady) = cold_and_steady_ms(passes);
        let tick_ms = stats::median(&steady);

        // The stages of a steady-state tick, re-executed on consecutive
        // signed days of the same timeline.
        let publisher = Publisher::new(self.key.clone(), 0, ((self.timeline.horizon() + 10) * 86_400) as u32);
        let raw: Vec<Zone> = (0..2).map(|d| self.timeline.snapshot(d)).collect();
        let signed: Vec<Zone> = raw.iter().map(|z| publisher.publish(z)).collect();
        let files: Vec<ZoneFile> = vec![
            ZoneFile::build(&signed[0], None),
            ZoneFile::build(&signed[1], Some(&signed[0])),
        ];
        let diff = ZoneDiff::compute(&signed[0], &signed[1]);
        let day0 = VerifiedZone::full_verify(&signed[0], &self.key, 3_600).expect("day 0 verifies");

        probes::probe(spans, "zone.snapshot_ms", || {
            black_box(self.timeline.snapshot(1));
        });
        probes::probe(spans, "dnssec.publish_ms", || {
            black_box(publisher.publish(&raw[1]));
        });
        probes::probe(spans, "delta.zonefile_build_ms", || {
            black_box(ZoneFile::build(&signed[1], Some(&signed[0])));
        });
        probes::probe(spans, "delta.rsync_sig_delta_ms", || {
            let signature = Signature::compute(files[0].text.as_bytes(), RSYNC_BLOCK);
            black_box(compute_delta(&signature, files[1].text.as_bytes()));
        });
        probes::probe(spans, "zone.diff_compute_ms", || {
            black_box(ZoneDiff::compute(&signed[0], &signed[1]));
        });
        probes::probe(spans, "zone.diff_codec_ms", || {
            black_box(ZoneDiff::decode(&diff.encode()).expect("own encoding decodes"));
        });
        probes::probe(spans, "dnssec.full_verify_ms", || {
            black_box(VerifiedZone::full_verify(&signed[0], &self.key, 3_600).expect("day 0 verifies"));
        });
        let mut sigs_per_day = 0u64;
        probes::probe_with_setup(
            spans,
            "dnssec.apply_diff_ms",
            || day0.clone(),
            |mut state| {
                sigs_per_day = state
                    .apply_diff(&diff, 90_000)
                    .expect("day 1 verifies incrementally")
                    .sets_verified;
                black_box(state);
                1
            },
        );
        let mib = vec![0xA5u8; 1 << 20];
        probes::probe_ops(spans, "util.sha256_mb_s", mib.len() as u64, || {
            black_box(sha256::sha256(&mib));
        });
        let text = files[1].text.as_bytes();
        probes::probe_ops(spans, "util.lzss_compress_mb_s", text.len() as u64, || {
            black_box(lzss::compress(text));
        });
        probes::zone_build(spans, self.timeline.base.tld_count);

        let mut layers = probes::collect(
            spans,
            &[
                "zone.snapshot_ms",
                "dnssec.publish_ms",
                "delta.zonefile_build_ms",
                "delta.rsync_sig_delta_ms",
                "zone.diff_compute_ms",
                "zone.diff_codec_ms",
                "dnssec.apply_diff_ms",
                "dnssec.full_verify_ms",
                "util.sha256_mb_s",
                "util.lzss_compress_mb_s",
                "zone.build_ms",
            ],
            Estimate::Median,
        );
        let value = |name: &str| value_of(&layers, name);
        let budget: Vec<BudgetRow> = [
            "zone.snapshot_ms",
            "dnssec.publish_ms",
            "delta.zonefile_build_ms",
            "delta.rsync_sig_delta_ms",
            "zone.diff_compute_ms",
            "dnssec.apply_diff_ms",
        ]
        .into_iter()
        .map(|name| BudgetRow {
            label: name.to_string(),
            per_op: value(name),
        })
        .collect();
        let attributed: f64 = budget.iter().map(|r| r.per_op).sum();
        let publisher_ms = value("zone.snapshot_ms") + value("dnssec.publish_ms") + value("delta.zonefile_build_ms");
        let notes = vec![
            format!(
                "publisher side (snapshot + publish + zonefile_build) is {:.1}% of a steady tick; \
                 the resolver's dnssec.apply_diff_ms is {:.3} ms against dnssec.full_verify_ms {:.1} ms",
                100.0 * publisher_ms / tick_ms,
                value("dnssec.apply_diff_ms"),
                value("dnssec.full_verify_ms"),
            ),
            format!(
                "steady tick: median {tick_ms:.1} ms, p80 {:.1} ms over {} ticks; cold tick (day 0): median {:.1} ms over {}",
                stats::quantile(&steady, 0.8),
                steady.len(),
                stats::median(&cold),
                cold.len(),
            ),
            format!(
                "inside zonefile_build: zone.diff_codec_ms {:.3}, util.lzss_compress_mb_s {:.1}; inside publish and \
                 verify: util.sha256_mb_s {:.1}; set-up: zone.build_ms {:.1}",
                value("zone.diff_codec_ms"),
                value("util.lzss_compress_mb_s"),
                value("util.sha256_mb_s"),
                value("zone.build_ms"),
            ),
        ];
        layers.push(("core.tick_steady_ms", tick_ms));
        layers.push(("core.tick_cold_ms", stats::median(&cold)));
        layers.push(("core.tick_self_ms", tick_ms - attributed));
        layers.push(("dnssec.sigs_per_day", sigs_per_day as f64));
        for count in ["delta.bytes_down_per_day", "core.incremental_share"] {
            layers.push((count, reference.count(count)));
        }
        Traced {
            layers,
            budget,
            unit: "ms",
            op_cost: tick_ms,
            trace_overhead_share: spans.wrapping_overhead_share(),
            notes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_installs_every_day_incrementally_and_repeats() {
        let mut world = RefreshWorld::build(11, Scale::Smoke);
        let (a, b) = (world.pass(), world.pass());
        assert!(a.errors.is_empty(), "{:?}", a.errors);
        assert_eq!((a.ops, a.failed), (3, 0));
        assert_eq!(a.op_ms.len(), 3);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.count("core.incremental_share"), 1.0);
        assert_ne!(
            a.fingerprint,
            RefreshWorld::build(12, Scale::Smoke).pass().fingerprint,
            "the seed matters"
        );
    }

    #[test]
    fn gate_goes_red_when_a_day_does_not_install() {
        // A one-day timeline clamps every later tick to day 0: the serial
        // never moves, so the later ticks install nothing.
        let mut world = RefreshWorld::build(11, Scale::Smoke);
        world.timeline = Arc::new(history::churn_timeline(world.start, 1, 11));
        let pass = world.pass();
        assert_eq!(pass.failed, 2);
        assert!(pass.errors.iter().any(|e| e.contains("installs")), "{:?}", pass.errors);
        assert!(
            pass.errors.iter().any(|e| e.contains("incremental")),
            "{:?}",
            pass.errors
        );
    }
}
