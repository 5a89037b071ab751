//! Address-family helpers and the special-purpose ranges the stack must
//! recognize.
//!
//! Three IANA allocations matter to the host stack's demultiplexing:
//!
//! - **ORCHID** `2001:10::/28` — Host Identity Tags live here (RFC 4843).
//!   A destination in this range is an *identity*, not a locator, and is
//!   handed to the layer-3.5 shim.
//! - **LSI** `1.0.0.0/8` — Local-Scope Identifiers, the IPv4 aliases HIP
//!   hands to legacy applications (RFC 5338 uses a locally scoped range;
//!   HIPL uses 1/8).
//! - **Teredo** `2001::/32` — IPv6 addresses reachable by UDP tunneling
//!   (RFC 4380), with the server IPv4, obfuscated client port and
//!   obfuscated client IPv4 embedded in the address.

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

/// True if `addr` is an ORCHID (a HIT).
pub fn is_hit(addr: &IpAddr) -> bool {
    match addr {
        IpAddr::V6(v6) => {
            let seg = v6.segments();
            seg[0] == 0x2001 && (seg[1] & 0xfff0) == 0x0010
        }
        IpAddr::V4(_) => false,
    }
}

/// True if `addr` is a Local-Scope Identifier (1.0.0.0/8).
pub fn is_lsi(addr: &IpAddr) -> bool {
    match addr {
        IpAddr::V4(v4) => v4.octets()[0] == 1,
        IpAddr::V6(_) => false,
    }
}

/// True if `addr` is an identity (HIT or LSI) rather than a locator.
pub fn is_identity(addr: &IpAddr) -> bool {
    is_hit(addr) || is_lsi(addr)
}

/// True if `addr` is in the Teredo prefix 2001::/32.
pub fn is_teredo(addr: &IpAddr) -> bool {
    match addr {
        IpAddr::V6(v6) => {
            let seg = v6.segments();
            seg[0] == 0x2001 && seg[1] == 0x0000
        }
        IpAddr::V4(_) => false,
    }
}

/// Constructs a Teredo IPv6 address per RFC 4380 §4: the server IPv4 in
/// bits 32..64, flags, then the client's external port and IPv4, both
/// bit-inverted ("obfuscated").
pub fn teredo_address(server: Ipv4Addr, client_external: Ipv4Addr, client_port: u16) -> Ipv6Addr {
    let s = server.octets();
    let c = client_external.octets();
    let obfuscated_port = !client_port;
    let obf = [!c[0], !c[1], !c[2], !c[3]];
    Ipv6Addr::new(
        0x2001,
        0x0000,
        u16::from_be_bytes([s[0], s[1]]),
        u16::from_be_bytes([s[2], s[3]]),
        0x0000, // flags: cone
        obfuscated_port,
        u16::from_be_bytes([obf[0], obf[1]]),
        u16::from_be_bytes([obf[2], obf[3]]),
    )
}

/// Recovers `(server, client_external, client_port)` from a Teredo
/// address built by [`teredo_address`]. Returns `None` for non-Teredo
/// input.
pub fn teredo_decode(addr: &Ipv6Addr) -> Option<(Ipv4Addr, Ipv4Addr, u16)> {
    if !is_teredo(&IpAddr::V6(*addr)) {
        return None;
    }
    let seg = addr.segments();
    let server = Ipv4Addr::from(((seg[2] as u32) << 16) | seg[3] as u32);
    let port = !seg[5];
    let client = Ipv4Addr::from(!(((seg[6] as u32) << 16) | seg[7] as u32));
    Some((server, client, port))
}

/// Picks the address in `candidates` that best matches talking to `dst`:
/// same family, and identity-ness must match (HIT↔HIT, LSI↔LSI).
pub fn select_source(candidates: &[IpAddr], dst: &IpAddr) -> Option<IpAddr> {
    // Exact class match first.
    candidates
        .iter()
        .find(|a| {
            a.is_ipv4() == dst.is_ipv4() && is_hit(a) == is_hit(dst) && is_lsi(a) == is_lsi(dst)
        })
        .or_else(|| candidates.iter().find(|a| a.is_ipv4() == dst.is_ipv4()))
        .copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{v4, v6};

    #[test]
    fn hit_detection() {
        assert!(is_hit(&v6([0x2001, 0x0010, 0, 0, 0, 0, 0, 1])));
        assert!(is_hit(&v6([0x2001, 0x001f, 0xffff, 0, 0, 0, 0, 1])));
        assert!(!is_hit(&v6([0x2001, 0x0020, 0, 0, 0, 0, 0, 1])));
        assert!(!is_hit(&v6([0x2001, 0, 0, 0, 0, 0, 0, 1]))); // teredo, not hit
        assert!(!is_hit(&v4(1, 2, 3, 4)));
    }

    #[test]
    fn lsi_detection() {
        assert!(is_lsi(&v4(1, 0, 0, 1)));
        assert!(is_lsi(&v4(1, 255, 3, 9)));
        assert!(!is_lsi(&v4(10, 0, 0, 1)));
        assert!(!is_lsi(&v6([0x2001, 0x10, 0, 0, 0, 0, 0, 1])));
    }

    #[test]
    fn teredo_round_trip() {
        let server = Ipv4Addr::new(192, 0, 2, 1);
        let client = Ipv4Addr::new(203, 0, 113, 77);
        let addr = teredo_address(server, client, 40000);
        assert!(is_teredo(&IpAddr::V6(addr)));
        assert!(!is_hit(&IpAddr::V6(addr)));
        let (s, c, p) = teredo_decode(&addr).unwrap();
        assert_eq!(s, server);
        assert_eq!(c, client);
        assert_eq!(p, 40000);
    }

    #[test]
    fn teredo_decode_rejects_non_teredo() {
        let hit = match v6([0x2001, 0x10, 0, 0, 0, 0, 0, 5]) {
            IpAddr::V6(v) => v,
            _ => unreachable!(),
        };
        assert!(teredo_decode(&hit).is_none());
    }

    #[test]
    fn source_selection_prefers_matching_class() {
        let hit = v6([0x2001, 0x0010, 0, 0, 0, 0, 0, 1]);
        let lsi = v4(1, 0, 0, 1);
        let ip4 = v4(10, 0, 0, 1);
        let ip6 = v6([0xfd00, 0, 0, 0, 0, 0, 0, 1]);
        let candidates = [hit, lsi, ip4, ip6];
        assert_eq!(
            select_source(&candidates, &v6([0x2001, 0x0010, 0, 0, 0, 0, 0, 9])),
            Some(hit)
        );
        assert_eq!(select_source(&candidates, &v4(1, 0, 0, 9)), Some(lsi));
        assert_eq!(select_source(&candidates, &v4(10, 0, 0, 9)), Some(ip4));
        assert_eq!(
            select_source(&candidates, &v6([0xfd00, 0, 0, 0, 0, 0, 0, 9])),
            Some(ip6)
        );
    }

    #[test]
    fn source_selection_falls_back_to_family() {
        let ip4 = v4(10, 0, 0, 1);
        // No LSI available: any v4 will do for an LSI destination.
        assert_eq!(select_source(&[ip4], &v4(1, 0, 0, 9)), Some(ip4));
        assert_eq!(
            select_source(&[ip4], &v6([0xfd00, 0, 0, 0, 0, 0, 0, 1])),
            None
        );
    }
}
