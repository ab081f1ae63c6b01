//! Whole-zone digests and the paper's "sign the whole file" optimization.
//!
//! §3: *"As an optimization the entire root zone file could be
//! cryptographically signed such that it can be validated quickly rather
//! than validating each component individually."* This is the ZONEMD idea
//! (later standardized as RFC 8976): a digest over the zone's canonical
//! records placed in an apex ZONEMD record, which a single RRSIG then
//! covers. Verification is one hash pass + one signature check, versus one
//! check per RRset.

use rootless_proto::name::Name;
use rootless_proto::rr::{RData, RType, Record, Zonemd};
use rootless_proto::wire::Encoder;
use rootless_util::sha256::Sha256;
use rootless_zone::rrset::RrSet;
use rootless_zone::zone::Zone;

use crate::keys::{ZoneKey, ZONEMD_HASH_ALG};
use crate::sign::{self, DnssecError};

/// ZONEMD scheme number: 1 = SIMPLE (hash all records in canonical order).
pub const SCHEME_SIMPLE: u8 = 1;

/// The exact bytes one RRset contributes to the SIMPLE-scheme digest: its
/// records in canonical wire form, honoring the RFC 8976 §3.4.1 exclusions
/// (the apex ZONEMD set contributes nothing, and apex RRSIG rdatas covering
/// ZONEMD are skipped). Returns `None` for the fully-excluded apex ZONEMD
/// set. [`crate::incremental`] hashes these per-set to maintain its digest
/// tree, so the leaves agree byte-for-byte with the flat [`digest`] stream.
pub fn leaf_bytes(origin: &Name, set: &RrSet) -> Option<Vec<u8>> {
    if set.name == *origin && set.rtype == RType::ZONEMD {
        return None;
    }
    let canon = set.canonicalized();
    let mut out = Vec::new();
    for rdata in canon.rdatas() {
        if set.name == *origin && set.rtype == RType::RRSIG {
            if let RData::Rrsig(sig) = rdata {
                if sig.type_covered == RType::ZONEMD {
                    continue;
                }
            }
        }
        let mut enc = Encoder::new();
        enc.bytes(&set.name.canonical_wire());
        enc.u16(set.rtype.to_u16());
        enc.u16(1); // class IN
        enc.u32(set.ttl);
        let rd = rdata.canonical_bytes();
        enc.u16(rd.len() as u16);
        enc.bytes(&rd);
        out.extend_from_slice(&enc.finish());
    }
    Some(out)
}

/// Computes the SIMPLE-scheme digest over the zone: every record in
/// canonical order, in canonical wire form, excluding the apex ZONEMD record
/// itself and any RRSIG covering ZONEMD (RFC 8976 §3.4.1).
pub fn digest(zone: &Zone) -> [u8; 32] {
    let mut h = Sha256::new();
    for set in zone.rrsets() {
        if let Some(bytes) = leaf_bytes(zone.origin(), set) {
            h.update(&bytes);
        }
    }
    h.finish()
}

/// Adds a ZONEMD record (and, if `key` is given, an RRSIG covering it) to a
/// copy of the zone. The digest covers the zone *with* whatever signatures it
/// already carries, mirroring real root-zone practice.
pub fn attach(zone: &Zone, key: Option<&ZoneKey>, inception: u32, expiration: u32) -> Zone {
    let mut out = zone.clone();
    out.remove_rrset(&out.origin().clone(), RType::ZONEMD);
    let d = digest(&out);
    let record = Record::new(
        out.origin().clone(),
        86_400,
        RData::Zonemd(Zonemd {
            serial: out.serial(),
            scheme: SCHEME_SIMPLE,
            hash_algorithm: ZONEMD_HASH_ALG,
            digest: d.to_vec(),
        }),
    );
    out.insert(record).expect("zonemd at apex");
    if let Some(key) = key {
        let set = out.get(out.origin(), RType::ZONEMD).expect("just inserted").clone();
        let sig = sign::sign_rrset(key, &set, inception, expiration);
        out.insert(sig).expect("rrsig at apex");
    }
    out
}

/// Verifies the apex ZONEMD digest, and its signature when `key` is given.
/// This is the fast whole-file validation path a recursive resolver runs
/// after downloading the root zone.
pub fn verify(zone: &Zone, key: Option<(&ZoneKey, u32)>) -> Result<(), DnssecError> {
    let apex = zone.origin().clone();
    let set = zone.get(&apex, RType::ZONEMD).ok_or(DnssecError::MissingZonemd)?;
    let RData::Zonemd(z) = &set.rdatas()[0] else {
        return Err(DnssecError::MissingZonemd);
    };
    if z.serial != zone.serial() || z.scheme != SCHEME_SIMPLE || z.hash_algorithm != ZONEMD_HASH_ALG {
        return Err(DnssecError::ZonemdMismatch);
    }
    let d = digest(zone);
    if z.digest != d.to_vec() {
        return Err(DnssecError::ZonemdMismatch);
    }
    if let Some((key, now)) = key {
        let sig = sign::find_signature(zone, &apex, RType::ZONEMD)
            .ok_or_else(|| DnssecError::MissingSignature("apex ZONEMD".into()))?;
        sign::verify_rrset(key, set, sig, now)?;
    }
    Ok(())
}

/// A detached whole-file signature over serialized zone bytes — the simplest
/// realization of the §3 optimization for non-DNS distribution channels
/// (HTTP mirror, rsync, p2p): `sig = HMAC(key, bytes)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DetachedSignature {
    /// Serial the signature covers.
    pub serial: u32,
    /// HMAC bytes.
    pub signature: Vec<u8>,
}

impl DetachedSignature {
    /// Signs serialized zone-file bytes.
    pub fn create(key: &ZoneKey, serial: u32, file_bytes: &[u8]) -> Self {
        let mut data = serial.to_be_bytes().to_vec();
        data.extend_from_slice(file_bytes);
        DetachedSignature { serial, signature: key.sign_bytes(&data) }
    }

    /// Verifies serialized zone-file bytes.
    pub fn verify(&self, key: &ZoneKey, file_bytes: &[u8]) -> bool {
        let mut data = self.serial.to_be_bytes().to_vec();
        data.extend_from_slice(file_bytes);
        key.verify_bytes(&data, &self.signature)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rootless_proto::name::Name;
    use rootless_zone::rootzone::{self, RootZoneConfig};

    fn key() -> ZoneKey {
        ZoneKey::generate(Name::root(), true, 11)
    }

    #[test]
    fn digest_is_deterministic_and_content_sensitive() {
        let a = rootzone::build(&RootZoneConfig::small(30));
        let b = rootzone::build(&RootZoneConfig::small(30));
        assert_eq!(digest(&a), digest(&b));
        let c = rootzone::build(&RootZoneConfig::small(31));
        assert_ne!(digest(&a), digest(&c));
    }

    #[test]
    fn attach_then_verify() {
        let zone = rootzone::build(&RootZoneConfig::small(30));
        let signed = attach(&zone, Some(&key()), 0, 1_000_000);
        verify(&signed, Some((&key(), 500))).unwrap();
        // Without key checking too.
        verify(&signed, None).unwrap();
    }

    #[test]
    fn verify_detects_post_digest_tampering() {
        let zone = rootzone::build(&RootZoneConfig::small(30));
        let mut signed = attach(&zone, Some(&key()), 0, 1_000_000);
        let victim = zone.tlds()[3].clone();
        let mut evil = rootless_zone::rrset::RrSet::new(victim, RType::NS, 172_800);
        evil.push(172_800, RData::Ns(Name::parse("evil.example").unwrap()));
        signed.insert_rrset(evil).unwrap();
        assert_eq!(verify(&signed, None), Err(DnssecError::ZonemdMismatch));
    }

    #[test]
    fn verify_detects_serial_mismatch() {
        let zone = rootzone::build(&RootZoneConfig::small(10));
        let signed = attach(&zone, None, 0, 0);
        // Bump SOA serial without recomputing ZONEMD.
        let mut tampered = signed.clone();
        let mut soa = zone.soa().unwrap().clone();
        soa.serial += 1;
        let mut set = rootless_zone::rrset::RrSet::new(Name::root(), RType::SOA, 86_400);
        set.push(86_400, RData::Soa(soa));
        tampered.insert_rrset(set).unwrap();
        assert!(verify(&tampered, None).is_err());
    }

    #[test]
    fn missing_zonemd_detected() {
        let zone = rootzone::build(&RootZoneConfig::small(10));
        assert_eq!(verify(&zone, None), Err(DnssecError::MissingZonemd));
    }

    #[test]
    fn zonemd_over_rrset_signed_zone() {
        // Per-RRset signatures + ZONEMD on top, like the real root zone.
        let zone = rootzone::build(&RootZoneConfig::small(20));
        let rrset_signed = crate::sign::sign_zone(&zone, &key(), 0, 1_000_000);
        let full = attach(&rrset_signed, Some(&key()), 0, 1_000_000);
        verify(&full, Some((&key(), 10))).unwrap();
    }

    #[test]
    fn attach_is_idempotent_on_redigest() {
        let zone = rootzone::build(&RootZoneConfig::small(15));
        let once = attach(&zone, None, 0, 0);
        let twice = attach(&once, None, 0, 0);
        assert_eq!(once, twice);
    }

    #[test]
    fn detached_signature_roundtrip() {
        let k = key();
        let bytes = b"serialized zone file contents";
        let sig = DetachedSignature::create(&k, 42, bytes);
        assert!(sig.verify(&k, bytes));
        assert!(!sig.verify(&k, b"tampered contents"));
        let wrong_serial = DetachedSignature { serial: 43, ..sig.clone() };
        assert!(!wrong_serial.verify(&k, bytes));
    }
}
