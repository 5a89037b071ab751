//! HIP DNS extensions (RFC 5205): publishing and resolving HIP resource
//! records.
//!
//! The paper's future-work section emphasises HIPL's DNS machinery (a
//! DNS proxy translating HIP records to HITs/LSIs, tooling to publish
//! Host Identifiers, dynamic-DNS re-registration on relocation). We
//! provide the zone-side primitives here; the `netsim::dns` module
//! supplies the record container and the `websvc` crate's DNS server app
//! serves them.

use crate::identity::{Hit, PublicHi};
use netsim::dns::{Record, RecordType, Zone};
use std::net::IpAddr;

/// Publishes a host's full record set under `name`: A/AAAA records for
/// its locators plus the HIP RR carrying HIT + HI (+ optional RVS).
pub fn publish(
    zone: &mut Zone,
    name: &str,
    public: &PublicHi,
    locators: &[IpAddr],
    rendezvous: Vec<IpAddr>,
) {
    for loc in locators {
        match loc {
            IpAddr::V4(_) => zone.add(name, Record::A(*loc)),
            IpAddr::V6(_) => zone.add(name, Record::Aaaa(*loc)),
        }
    }
    zone.add(
        name,
        Record::Hip {
            hit: public.hit().0,
            host_identity: public.to_bytes(),
            rendezvous,
        },
    );
}

/// Re-registers after relocation: drops all records for `name` and
/// publishes the new locator set (the dynamic-DNS flow the paper cites
/// for re-contact after simultaneous relocation).
pub fn republish(
    zone: &mut Zone,
    name: &str,
    public: &PublicHi,
    locators: &[IpAddr],
    rendezvous: Vec<IpAddr>,
) {
    zone.remove(name);
    publish(zone, name, public, locators, rendezvous);
}

/// A resolved HIP peer: everything a shim needs to `add_peer`.
#[derive(Clone, Debug)]
pub struct ResolvedPeer {
    /// The peer's verified Host Identity Tag.
    pub hit: Hit,
    /// The serialized Host Identity (public key).
    pub host_identity: Vec<u8>,
    /// Locators from A/AAAA records.
    pub locators: Vec<IpAddr>,
    /// Rendezvous servers from the HIP RR.
    pub rendezvous: Vec<IpAddr>,
}

/// Resolves `name` from a zone into HIP peer information, verifying
/// that the advertised HIT matches the advertised Host Identity (a
/// forged HIP RR with a mismatched key is rejected).
pub fn resolve(zone: &Zone, name: &str) -> Option<ResolvedPeer> {
    let mut hit = None;
    let mut host_identity = Vec::new();
    let mut rendezvous = Vec::new();
    for rec in zone.lookup(name, RecordType::Hip) {
        if let Record::Hip {
            hit: h,
            host_identity: hi,
            rendezvous: rvs,
        } = rec
        {
            // Integrity: HIT must be derived from the HI.
            let public = PublicHi::from_bytes(&hi)?;
            if public.hit().0 != h {
                return None;
            }
            hit = Some(Hit(h));
            host_identity = hi;
            rendezvous = rvs;
        }
    }
    let hit = hit?;
    let mut locators = Vec::new();
    for rec in zone.lookup(name, RecordType::A) {
        if let Record::A(a) = rec {
            locators.push(a);
        }
    }
    for rec in zone.lookup(name, RecordType::Aaaa) {
        if let Record::Aaaa(a) = rec {
            locators.push(a);
        }
    }
    Some(ResolvedPeer {
        hit,
        host_identity,
        locators,
        rendezvous,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::identity::HostIdentity;
    use netsim::packet::v4;
    use rand::SeedableRng;

    fn identity() -> HostIdentity {
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        HostIdentity::generate_rsa(512, &mut rng)
    }

    #[test]
    fn publish_then_resolve() {
        let id = identity();
        let mut zone = Zone::new();
        publish(
            &mut zone,
            "web1.cloud",
            id.public(),
            &[v4(10, 0, 0, 5)],
            vec![v4(10, 0, 0, 9)],
        );
        let peer = resolve(&zone, "web1.cloud").expect("resolves");
        assert_eq!(peer.hit, id.hit());
        assert_eq!(peer.locators, vec![v4(10, 0, 0, 5)]);
        assert_eq!(peer.rendezvous, vec![v4(10, 0, 0, 9)]);
        assert_eq!(
            PublicHi::from_bytes(&peer.host_identity).unwrap().hit(),
            id.hit()
        );
    }

    #[test]
    fn forged_hit_rejected() {
        let id = identity();
        let mut zone = Zone::new();
        // An attacker publishes their key under a victim's HIT.
        zone.add(
            "victim.cloud",
            Record::Hip {
                hit: [9; 16],
                host_identity: id.public().to_bytes(),
                rendezvous: vec![],
            },
        );
        assert!(resolve(&zone, "victim.cloud").is_none());
    }

    #[test]
    fn republish_replaces_locators() {
        let id = identity();
        let mut zone = Zone::new();
        publish(
            &mut zone,
            "vm.cloud",
            id.public(),
            &[v4(10, 0, 0, 5)],
            vec![],
        );
        republish(
            &mut zone,
            "vm.cloud",
            id.public(),
            &[v4(10, 0, 1, 7)],
            vec![],
        );
        let peer = resolve(&zone, "vm.cloud").unwrap();
        assert_eq!(peer.locators, vec![v4(10, 0, 1, 7)], "old locator gone");
    }

    #[test]
    fn missing_name_resolves_to_none() {
        assert!(resolve(&Zone::new(), "nope").is_none());
    }
}
