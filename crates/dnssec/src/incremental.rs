//! Incremental re-verification of a signed root zone under daily churn
//! (ROADMAP item 4, the Janus-style pipeline).
//!
//! A resolver that keeps a local root copy must re-validate it on every
//! daily update. From scratch that is O(zone): one signature check per
//! RRset, a walk of the whole NSEC chain, and a full ZONEMD digest pass.
//! But a daily diff touches a handful of owners, and DNSSEC state is
//! per-RRset, so almost all of yesterday's work is still valid.
//! [`VerifiedZone`] caches that state — per-owner chain verdicts and
//! signature validity windows, NSEC span links, and a per-RRset digest tree
//! — and, given a [`ZoneDiff`], re-checks only
//!
//! * the RRsets at owners the diff touched (signature checks),
//! * the NSEC spans at touched owners plus the spans *adjacent* to added
//!   and removed owners — the span a silent deletion breaks, since
//!   removals carry no signature of their own, and
//! * the apex ZONEMD record's fields (its signature rides the apex, which
//!   every serial bump touches), maintaining the digest tree instead of
//!   re-hashing the whole zone.
//!
//! The differential gates (`prop_incremental`, `incremental_history`) pin
//! verdicts, cached state, and denial answers to the from-scratch path
//! across random churn and the sampled 2009→2019 history; the
//! `plant-skip-span` feature deletes one adjacent-span check so the gates
//! can prove they are not vacuous.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;

use rootless_proto::name::Name;
use rootless_proto::rr::{RData, RType, Record, Rrsig, Zonemd};
use rootless_util::sha256::{self, Sha256};
use rootless_zone::diff::{DiffError, ZoneDiff};
use rootless_zone::rrset::{RrKey, RrSet};
use rootless_zone::zone::Zone;

use crate::keys::{ZoneKey, ZONEMD_HASH_ALG};
use crate::nsec;
use crate::sign::{self, DnssecError};
use crate::zonemd::{self, SCHEME_SIMPLE};

/// Work counters for one verification pass (full or incremental). The
/// `experiments verify` table and the benchmark's `dnssec.sigs_per_day`
/// row come straight off these.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VerifyStats {
    /// RRsets whose covering signature was verified.
    pub sets_verified: u64,
    /// NSEC span + bitmap checks performed.
    pub spans_checked: u64,
    /// Digest-tree leaves recomputed.
    pub leaves_updated: u64,
    /// Distinct owner names examined.
    pub owners_touched: u64,
}

/// Cached validation state of one owner name — a delegation, the apex, or a
/// glue host. Everything here is a pure function of the verified zone's
/// content, which is what lets the differential gates compare incremental
/// and from-scratch state byte-for-byte.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OwnerState {
    /// Successor in the NSEC chain (canonical order, wrapping at the apex).
    pub nsec_next: Name,
    /// Earliest expiration among the owner's verified signatures.
    pub earliest_expiration: u32,
    /// Latest inception among the owner's verified signatures.
    pub latest_inception: u32,
}

/// Why a zone — or a diff against a verified one — failed verification.
/// Any incremental rejection sends the consumer to the full-verification
/// fallback (see `RootZoneManager`); a full rejection is final.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerifyError {
    /// A signature or digest check failed.
    Dnssec(DnssecError),
    /// The diff itself failed to apply.
    Diff(DiffError),
    /// The applied diff did not land the zone on its advertised serial.
    SerialDrift {
        /// Serial the diff advertised (`serial_to`).
        expected: u32,
        /// Serial the zone ended up with.
        found: u32,
    },
    /// An owner in the zone lacks a single NSEC record.
    MissingNsec(Name),
    /// An NSEC span does not link to the owner's canonical successor.
    BadNsecSpan {
        /// Owner of the bad span.
        owner: Name,
        /// The canonical successor the span should name.
        expected: Name,
        /// The successor it actually names.
        found: Name,
    },
    /// An NSEC bitmap does not list exactly the owner's types.
    BadNsecBitmap(Name),
    /// The apex ZONEMD record is absent, stale, or was not updated by a
    /// non-empty diff.
    ZonemdFields,
    /// The cached signatures' validity window excludes `now`; the zone must
    /// be re-verified from scratch.
    WindowElapsed {
        /// Earliest expiration among cached signatures.
        earliest_expiration: u32,
        /// The verification time that fell outside the window.
        now: u32,
    },
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::Dnssec(e) => write!(f, "{e}"),
            VerifyError::Diff(e) => write!(f, "{e}"),
            VerifyError::SerialDrift { expected, found } => {
                write!(f, "diff advertised serial {expected} but zone landed on {found}")
            }
            VerifyError::MissingNsec(n) => write!(f, "no single NSEC record at {n}"),
            VerifyError::BadNsecSpan { owner, expected, found } => {
                write!(f, "NSEC at {owner} links to {found}, canonical successor is {expected}")
            }
            VerifyError::BadNsecBitmap(n) => {
                write!(f, "NSEC bitmap at {n} does not match the owner's types")
            }
            VerifyError::ZonemdFields => write!(f, "apex ZONEMD fields stale or untouched"),
            VerifyError::WindowElapsed { earliest_expiration, now } => {
                write!(f, "cached signatures expire at {earliest_expiration}, now {now}")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

impl From<DnssecError> for VerifyError {
    fn from(e: DnssecError) -> Self {
        VerifyError::Dnssec(e)
    }
}

impl From<DiffError> for VerifyError {
    fn from(e: DiffError) -> Self {
        VerifyError::Diff(e)
    }
}

/// A zone together with its cached validation state.
///
/// Built once with [`VerifiedZone::full_verify`]; advanced day-over-day
/// with [`VerifiedZone::apply_diff`], which does O(touched · log n) work.
/// If `apply_diff` returns an error the state may be partially updated —
/// discard the value and fall back to `full_verify` on the fresh copy.
#[derive(Clone, Debug)]
pub struct VerifiedZone {
    zone: Zone,
    key: ZoneKey,
    owners: BTreeMap<Name, OwnerState>,
    leaves: BTreeMap<RrKey, [u8; 32]>,
    /// Conservative window over *all* cached signatures: `min` expiration /
    /// `max` inception ever observed (removals never widen it back).
    earliest_expiration: u32,
    latest_inception: u32,
    /// Work counters of the pass that produced or last updated this state.
    pub stats: VerifyStats,
}

impl VerifiedZone {
    /// Verifies `zone` from scratch at time `now`: every RRset's covering
    /// signature, the complete NSEC chain (one NSEC per owner, spans linking
    /// canonical successors, bitmaps listing exactly the owner's types), and
    /// the flat ZONEMD digest plus its signature — then builds the cached
    /// state the incremental path maintains.
    pub fn full_verify(zone: &Zone, key: &ZoneKey, now: u32) -> Result<VerifiedZone, VerifyError> {
        if zone.get(zone.origin(), RType::DNSKEY).is_none() {
            return Err(DnssecError::MissingDnskey.into());
        }
        let mut stats = VerifyStats::default();
        // Distinct owners in canonical order (the zone iterates by RrKey).
        let mut owner_list: Vec<Name> = Vec::new();
        for set in zone.rrsets() {
            if owner_list.last() != Some(&set.name) {
                owner_list.push(set.name.clone());
            }
        }
        let mut owners = BTreeMap::new();
        let mut earliest = u32::MAX;
        let mut latest = 0u32;
        for (i, owner) in owner_list.iter().enumerate() {
            let (exp, inc) = verify_sets_at(zone, key, owner, now, &mut stats)?;
            let expected_next = owner_list[(i + 1) % owner_list.len()].clone();
            check_span(zone, owner, &expected_next, &mut stats)?;
            earliest = earliest.min(exp);
            latest = latest.max(inc);
            owners.insert(
                owner.clone(),
                OwnerState { nsec_next: expected_next, earliest_expiration: exp, latest_inception: inc },
            );
        }
        // The from-scratch whole-file pass: flat digest + its signature.
        zonemd::verify(zone, Some((key, now)))?;
        let mut leaves = BTreeMap::new();
        for set in zone.rrsets() {
            if let Some(bytes) = zonemd::leaf_bytes(zone.origin(), set) {
                leaves.insert(set.key(), sha256::sha256(&bytes));
                stats.leaves_updated += 1;
            }
        }
        stats.owners_touched = owner_list.len() as u64;
        Ok(VerifiedZone {
            zone: zone.clone(),
            key: key.clone(),
            owners,
            leaves,
            earliest_expiration: earliest,
            latest_inception: latest,
            stats,
        })
    }

    /// Applies `diff` and re-verifies incrementally at time `now`,
    /// returning the work done. Checks only the owners the diff touched,
    /// the NSEC spans adjacent to appeared/vanished owners, and the apex
    /// ZONEMD fields; untouched cached state is trusted as long as `now`
    /// stays inside its signature windows.
    ///
    /// On `Err` the state may be partially updated: discard this value and
    /// fall back to [`VerifiedZone::full_verify`] on a fresh full copy.
    pub fn apply_diff(&mut self, diff: &ZoneDiff, now: u32) -> Result<VerifyStats, VerifyError> {
        let mut stats = VerifyStats::default();
        // Untouched signatures are only as good as their windows.
        if now > self.earliest_expiration || now < self.latest_inception {
            return Err(VerifyError::WindowElapsed {
                earliest_expiration: self.earliest_expiration,
                now,
            });
        }
        diff.apply(&mut self.zone)?;
        if self.zone.serial() != diff.serial_to {
            return Err(VerifyError::SerialDrift {
                expected: diff.serial_to,
                found: self.zone.serial(),
            });
        }

        // Owners the diff touched, and owners it removed outright.
        let mut touched: BTreeSet<Name> = BTreeSet::new();
        let mut vanished: BTreeSet<Name> = BTreeSet::new();
        for set in diff.added.iter().chain(&diff.changed) {
            touched.insert(set.name.clone());
        }
        for (name, _) in &diff.removed {
            if self.zone.name_exists(name) {
                touched.insert(name.clone());
            } else {
                vanished.insert(name.clone());
            }
        }
        // Owners that did not exist before this diff: their predecessors'
        // spans must now point at them.
        let appeared: Vec<Name> =
            touched.iter().filter(|n| !self.owners.contains_key(*n)).cloned().collect();

        // Re-verify every RRset at a touched owner and rebuild its state.
        for owner in &touched {
            let (exp, inc) = verify_sets_at(&self.zone, &self.key, owner, now, &mut stats)?;
            self.earliest_expiration = self.earliest_expiration.min(exp);
            self.latest_inception = self.latest_inception.max(inc);
            self.owners.insert(
                owner.clone(),
                // nsec_next is filled by the span pass below.
                OwnerState { nsec_next: owner.clone(), earliest_expiration: exp, latest_inception: inc },
            );
        }
        for owner in &vanished {
            self.owners.remove(owner);
        }

        // Span checks: every touched owner, plus the predecessors of owners
        // that appeared or vanished. A deletion carries no signature — the
        // only thing that authenticates it is the predecessor's re-signed
        // NSEC now spanning past the victim, so skipping that adjacent
        // check (the planted `plant-skip-span` bug) lets silent removals
        // through.
        let mut span_targets: BTreeSet<Name> = touched.clone();
        for name in &appeared {
            if let Some(p) = self.predecessor(name) {
                span_targets.insert(p);
            }
        }
        #[cfg(not(feature = "plant-skip-span"))]
        for name in &vanished {
            if let Some(p) = self.predecessor(name) {
                span_targets.insert(p);
            }
        }
        for owner in &span_targets {
            if !self.owners.contains_key(owner) {
                continue;
            }
            let expected_next = self.successor(owner);
            check_span(&self.zone, owner, &expected_next, &mut stats)?;
            self.owners.get_mut(owner).expect("span target exists").nsec_next = expected_next;
        }

        // ZONEMD: any content change changes the flat digest, so an honest
        // non-empty diff must rewrite the apex ZONEMD record; its fields
        // must name the new serial, and its signature was re-verified above
        // as part of the touched apex.
        let apex = self.zone.origin().clone();
        if !diff.is_empty() {
            let zonemd_touched = diff
                .added
                .iter()
                .chain(&diff.changed)
                .any(|s| s.rtype == RType::ZONEMD && s.name == apex);
            if !zonemd_touched {
                return Err(VerifyError::ZonemdFields);
            }
        }
        let set = self.zone.get(&apex, RType::ZONEMD).ok_or(DnssecError::MissingZonemd)?;
        let RData::Zonemd(z) = &set.rdatas()[0] else {
            return Err(DnssecError::MissingZonemd.into());
        };
        if z.serial != self.zone.serial()
            || z.scheme != SCHEME_SIMPLE
            || z.hash_algorithm != ZONEMD_HASH_ALG
        {
            return Err(VerifyError::ZonemdFields);
        }

        // Digest-tree maintenance: recompute the leaves at touched owners,
        // drop the leaves of vanished ones.
        for owner in touched.iter().chain(&vanished) {
            let lo = RrKey::new(owner.clone(), RType::Unknown(0));
            let hi = RrKey::new(owner.clone(), RType::Unknown(u16::MAX));
            let stale: Vec<RrKey> = self.leaves.range(lo..=hi).map(|(k, _)| k.clone()).collect();
            for k in stale {
                self.leaves.remove(&k);
            }
            for set in self.zone.rrsets_at(owner) {
                if let Some(bytes) = zonemd::leaf_bytes(&apex, set) {
                    self.leaves.insert(set.key(), sha256::sha256(&bytes));
                    stats.leaves_updated += 1;
                }
            }
        }

        stats.owners_touched = (touched.len() + vanished.len()) as u64;
        self.stats = stats;
        Ok(stats)
    }

    /// The verified zone.
    pub fn zone(&self) -> &Zone {
        &self.zone
    }

    /// Number of distinct owner names under management.
    pub fn owner_count(&self) -> usize {
        self.owners.len()
    }

    /// Number of digest-tree leaves (one per digest-relevant RRset).
    pub fn leaf_count(&self) -> usize {
        self.leaves.len()
    }

    /// Cached state of one owner, if present.
    pub fn owner_state(&self, name: &Name) -> Option<&OwnerState> {
        self.owners.get(name)
    }

    /// A digest over the entire cached state — owners, span links, per-owner
    /// signature windows, and digest-tree leaves. The differential gates
    /// compare this between the incremental and from-scratch paths; every
    /// input is a pure function of zone content, so the two must agree
    /// byte-for-byte.
    pub fn state_digest(&self) -> [u8; 32] {
        let mut h = Sha256::new();
        for (name, st) in &self.owners {
            h.update(&name.canonical_wire());
            h.update(&st.nsec_next.canonical_wire());
            h.update(&st.earliest_expiration.to_be_bytes());
            h.update(&st.latest_inception.to_be_bytes());
        }
        for (k, leaf) in &self.leaves {
            h.update(&k.name.canonical_wire());
            h.update(&k.rtype().to_u16().to_be_bytes());
            h.update(leaf);
        }
        h.finish()
    }

    /// The NSEC record denying `qname`, answered from the cached owner map
    /// in O(log n) — byte-identical to [`nsec::denial_for`] over the same
    /// zone (gated by `prop_incremental`).
    pub fn denial_for(&self, qname: &Name) -> Option<Record> {
        if self.owners.contains_key(qname) {
            return None;
        }
        // The covering span belongs to qname's canonical predecessor; a
        // qname beyond the last owner is covered by the wraparound record.
        let pred = self
            .owners
            .range::<Name, _>((Bound::Unbounded, Bound::Excluded(qname.clone())))
            .next_back()
            .map(|(n, _)| n.clone())
            .or_else(|| self.owners.keys().next_back().cloned())?;
        let set = self.zone.get(&pred, RType::NSEC)?;
        set.records().into_iter().next()
    }

    /// Canonical successor of `owner` in the owner map (wraps to the first
    /// owner, i.e. the apex).
    fn successor(&self, owner: &Name) -> Name {
        self.owners
            .range::<Name, _>((Bound::Excluded(owner.clone()), Bound::Unbounded))
            .next()
            .map(|(n, _)| n.clone())
            .unwrap_or_else(|| self.owners.keys().next().expect("nonempty owner map").clone())
    }

    /// Canonical predecessor of `name` (wraps to the last owner when `name`
    /// sorts before every owner). `None` only on an empty map.
    fn predecessor(&self, name: &Name) -> Option<Name> {
        self.owners
            .range::<Name, _>((Bound::Unbounded, Bound::Excluded(name.clone())))
            .next_back()
            .map(|(n, _)| n.clone())
            .or_else(|| self.owners.keys().next_back().cloned())
    }
}

/// Verifies every non-RRSIG RRset at `owner` against `key` (the same
/// covering-signature logic as [`sign::validate_zone`], restricted to one
/// owner), returning the (earliest expiration, latest inception) over the
/// signatures that verified.
fn verify_sets_at(
    zone: &Zone,
    key: &ZoneKey,
    owner: &Name,
    now: u32,
    stats: &mut VerifyStats,
) -> Result<(u32, u32), VerifyError> {
    let mut earliest = u32::MAX;
    let mut latest = 0u32;
    for set in zone.rrsets_at(owner) {
        if set.rtype == RType::RRSIG {
            continue;
        }
        let what = || format!("{} {}", set.name, set.rtype);
        let sigs = zone
            .get(owner, RType::RRSIG)
            .ok_or_else(|| DnssecError::MissingSignature(what()))?;
        let covering: Vec<&Rrsig> = sigs
            .rdatas()
            .iter()
            .filter_map(|rd| match rd {
                RData::Rrsig(s) if s.type_covered == set.rtype => Some(s),
                _ => None,
            })
            .collect();
        if covering.is_empty() {
            return Err(DnssecError::MissingSignature(what()).into());
        }
        let mut verified = None;
        let mut last_err = None;
        for sig in covering {
            match sign::verify_rrset(key, set, sig, now) {
                Ok(()) => {
                    verified = Some(sig);
                    break;
                }
                Err(e) => last_err = Some(e),
            }
        }
        let Some(sig) = verified else {
            return Err(last_err.expect("at least one covering signature").into());
        };
        earliest = earliest.min(sig.expiration);
        latest = latest.max(sig.inception);
        stats.sets_verified += 1;
    }
    Ok((earliest, latest))
}

/// Checks the NSEC record at `owner`: exactly one rdata, linking to
/// `expected_next`, with a bitmap listing exactly the owner's present types.
fn check_span(
    zone: &Zone,
    owner: &Name,
    expected_next: &Name,
    stats: &mut VerifyStats,
) -> Result<(), VerifyError> {
    stats.spans_checked += 1;
    let set = zone.get(owner, RType::NSEC).ok_or_else(|| VerifyError::MissingNsec(owner.clone()))?;
    if set.len() != 1 {
        return Err(VerifyError::MissingNsec(owner.clone()));
    }
    let RData::Nsec(next, bitmap) = &set.rdatas()[0] else {
        return Err(VerifyError::MissingNsec(owner.clone()));
    };
    if next.canonical_cmp(expected_next) != std::cmp::Ordering::Equal {
        return Err(VerifyError::BadNsecSpan {
            owner: owner.clone(),
            expected: expected_next.clone(),
            found: next.clone(),
        });
    }
    let present: BTreeSet<u16> = zone.rrsets_at(owner).iter().map(|s| s.rtype.to_u16()).collect();
    let listed: BTreeSet<u16> = bitmap.iter().map(|t| t.to_u16()).collect();
    if present != listed {
        return Err(VerifyError::BadNsecBitmap(owner.clone()));
    }
    Ok(())
}

/// Publisher-side helper producing the fully-signed daily artifact: NSEC
/// chain, per-RRset signatures, and ZONEMD — with a **fixed** validity
/// window, so an unchanged RRset keeps a byte-identical RRSIG from one day
/// to the next and the daily diff stays proportional to actual churn. (A
/// publisher that re-signed everything daily would make every diff touch
/// every owner, degenerating incremental verification to the full pass;
/// real root-zone signing amortizes windows the same way.)
#[derive(Clone, Debug)]
pub struct Publisher {
    key: ZoneKey,
    inception: u32,
    expiration: u32,
}

impl Publisher {
    /// Creates a publisher signing with `key` over `[inception, expiration]`.
    pub fn new(key: ZoneKey, inception: u32, expiration: u32) -> Publisher {
        Publisher { key, inception, expiration }
    }

    /// The fixed `(inception, expiration)` window.
    pub fn window(&self) -> (u32, u32) {
        (self.inception, self.expiration)
    }

    /// Signs one raw zone snapshot end to end: DNSKEY + ZONEMD placeholder
    /// (so the apex NSEC bitmap lists them), NSEC chain, one RRSIG per
    /// RRset, then the final ZONEMD digest and its signature.
    pub fn publish(&self, raw: &Zone) -> Zone {
        let apex = raw.origin().clone();
        let mut z = raw.clone();
        z.insert(self.key.dnskey_record(172_800)).expect("dnskey at apex");
        z.insert(Record::new(
            apex,
            86_400,
            RData::Zonemd(Zonemd {
                serial: z.serial(),
                scheme: SCHEME_SIMPLE,
                hash_algorithm: ZONEMD_HASH_ALG,
                digest: vec![0; 32],
            }),
        ))
        .expect("zonemd at apex");
        let mut chained = nsec::build_chain(&z);
        // Sign everything except the placeholder; `zonemd::attach` signs the
        // real ZONEMD record once the digest is final.
        let sets: Vec<RrSet> = chained
            .rrsets()
            .filter(|s| s.rtype != RType::RRSIG && s.rtype != RType::ZONEMD)
            .cloned()
            .collect();
        for set in sets {
            chained
                .insert(sign::sign_rrset(&self.key, &set, self.inception, self.expiration))
                .expect("rrsig in zone");
        }
        zonemd::attach(&chained, Some(&self.key), self.inception, self.expiration)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rootless_util::time::Date;
    use rootless_zone::churn::{ChurnConfig, Timeline};
    use rootless_zone::rootzone::RootZoneConfig;

    fn key() -> ZoneKey {
        ZoneKey::generate(Name::root(), true, 0x1f2e)
    }

    fn timeline(tlds: usize, days: u64) -> Timeline {
        Timeline::generate(
            RootZoneConfig::small(tlds),
            ChurnConfig::default(),
            Date::new(2019, 4, 1),
            days,
        )
    }

    fn publisher(days: u64) -> Publisher {
        Publisher::new(key(), 0, ((days + 10) * 86_400) as u32)
    }

    #[test]
    fn published_zone_fully_verifies() {
        let t = timeline(40, 3);
        let p = publisher(3);
        let zone = p.publish(&t.snapshot(0));
        let vz = VerifiedZone::full_verify(&zone, &key(), 3_600).unwrap();
        assert_eq!(vz.zone(), &zone);
        assert!(vz.stats.sets_verified > 40);
        assert_eq!(vz.stats.spans_checked, vz.owner_count() as u64);
        assert_eq!(vz.leaf_count() as u64, vz.stats.leaves_updated);
    }

    #[test]
    fn daily_diff_applies_incrementally_with_sublinear_work() {
        let t = timeline(60, 4);
        let p = publisher(4);
        let z0 = p.publish(&t.snapshot(0));
        let z1 = p.publish(&t.snapshot(1));
        let diff = ZoneDiff::compute(&z0, &z1);
        let mut vz = VerifiedZone::full_verify(&z0, &key(), 3_600).unwrap();
        let full_work = vz.stats.sets_verified;
        let stats = vz.apply_diff(&diff, 90_000).unwrap();
        assert_eq!(vz.zone(), &z1);
        assert!(
            stats.sets_verified * 4 < full_work,
            "incremental {} vs full {full_work}",
            stats.sets_verified
        );
        // And the refreshed state matches a from-scratch pass.
        let fresh = VerifiedZone::full_verify(&z1, &key(), 90_000).unwrap();
        assert_eq!(vz.state_digest(), fresh.state_digest());
    }

    #[test]
    fn unsigned_insertion_via_diff_is_rejected() {
        let t = timeline(40, 3);
        let p = publisher(3);
        let z0 = p.publish(&t.snapshot(0));
        let z1 = p.publish(&t.snapshot(1));
        let mut diff = ZoneDiff::compute(&z0, &z1);
        let victim = z1.tlds()[5].clone();
        let mut evil = RrSet::new(victim, RType::NS, 172_800);
        evil.push(172_800, RData::Ns(Name::parse("ns.attacker.example").unwrap()));
        diff.changed.push(evil);
        let mut vz = VerifiedZone::full_verify(&z0, &key(), 3_600).unwrap();
        assert!(matches!(
            vz.apply_diff(&diff, 90_000),
            Err(VerifyError::Dnssec(DnssecError::BadSignature(_)))
        ));
    }

    #[test]
    fn window_elapse_forces_full_fallback() {
        let t = timeline(30, 2);
        let p = Publisher::new(key(), 0, 10_000);
        let z0 = p.publish(&t.snapshot(0));
        let z1 = p.publish(&t.snapshot(1));
        let diff = ZoneDiff::compute(&z0, &z1);
        let mut vz = VerifiedZone::full_verify(&z0, &key(), 5_000).unwrap();
        assert!(matches!(
            vz.apply_diff(&diff, 20_000),
            Err(VerifyError::WindowElapsed { .. })
        ));
    }

    #[test]
    fn denial_matches_nsec_module() {
        let t = timeline(50, 2);
        let p = publisher(2);
        let zone = p.publish(&t.snapshot(0));
        let vz = VerifiedZone::full_verify(&zone, &key(), 3_600).unwrap();
        for i in 0..30 {
            let q = Name::parse(&format!("hole-{i:02}-no-such-tld")).unwrap();
            assert_eq!(vz.denial_for(&q), nsec::denial_for(&zone, &q), "{q}");
        }
        // Existing names are denied by neither path.
        let tld = zone.tlds()[0].clone();
        assert_eq!(vz.denial_for(&tld), None);
    }

    #[test]
    fn serial_drift_is_rejected() {
        let t = timeline(30, 2);
        let p = publisher(2);
        let z0 = p.publish(&t.snapshot(0));
        let z1 = p.publish(&t.snapshot(1));
        let mut diff = ZoneDiff::compute(&z0, &z1);
        diff.serial_to += 7;
        let mut vz = VerifiedZone::full_verify(&z0, &key(), 3_600).unwrap();
        assert!(matches!(
            vz.apply_diff(&diff, 90_000),
            Err(VerifyError::SerialDrift { .. })
        ));
    }
}
