//! IP routers: longest-prefix forwarding between interfaces.
//!
//! Data-center topologies in the experiments are small (a rack switch, a
//! gateway, a WAN router) but real: packets hop through these nodes,
//! paying each link's latency and serialization, so multi-hop paths cost
//! what they should.

use crate::drops::DropReason;
use crate::engine::{Ctx, Node};
use crate::link::LinkId;
use crate::packet::Packet;
use std::any::Any;
use std::net::IpAddr;

/// A forwarding table entry.
#[derive(Clone, Debug)]
pub struct Route {
    /// Destination prefix.
    pub prefix: IpAddr,
    /// Prefix length in bits.
    pub prefix_len: u8,
    /// Interface to forward out of.
    pub out_iface: usize,
}

/// A longest-prefix forwarding table: the router's, and the host's
/// static routes.
#[derive(Clone, Debug, Default)]
pub(crate) struct RouteTable(Vec<Route>);

impl RouteTable {
    /// Adds a route.
    ///
    /// # Panics
    /// If `prefix_len` exceeds the width of `prefix`'s family (32 or 128
    /// bits).
    pub(crate) fn add(&mut self, prefix: IpAddr, prefix_len: u8, out_iface: usize) {
        assert!(
            prefix_len <= family_bits(&prefix),
            "route {prefix}/{prefix_len}: prefix longer than the address"
        );
        self.0.push(Route {
            prefix,
            prefix_len,
            out_iface,
        });
    }

    /// The interface of the longest prefix covering `dst`; among equal
    /// lengths, the route added first.
    pub(crate) fn lookup(&self, dst: &IpAddr) -> Option<usize> {
        let mut best: Option<(u8, usize)> = None;
        for r in &self.0 {
            if prefix_match(dst, &r.prefix, r.prefix_len)
                && best.is_none_or(|(len, _)| r.prefix_len > len)
            {
                best = Some((r.prefix_len, r.out_iface));
            }
        }
        best.map(|(_, i)| i)
    }
}

/// The width of `addr`'s family in bits.
fn family_bits(addr: &IpAddr) -> u8 {
    if addr.is_ipv4() {
        32
    } else {
        128
    }
}

/// Whether the top `len` bits of `addr` and `prefix` agree; addresses of
/// different families never match. `len` is at most the family's width
/// ([`RouteTable::add`] checks).
fn prefix_match(addr: &IpAddr, prefix: &IpAddr, len: u8) -> bool {
    let len = u32::from(len);
    // A shift by the whole width (a /0 prefix) is `None`: every bit is
    // masked off.
    match (addr, prefix) {
        (IpAddr::V4(a), IpAddr::V4(p)) => {
            (a.to_bits() ^ p.to_bits())
                .checked_shr(32 - len)
                .unwrap_or(0)
                == 0
        }
        (IpAddr::V6(a), IpAddr::V6(p)) => {
            (a.to_bits() ^ p.to_bits())
                .checked_shr(128 - len)
                .unwrap_or(0)
                == 0
        }
        _ => false,
    }
}

/// A router node.
#[derive(Default)]
pub struct Router {
    ifaces: Vec<LinkId>,
    routes: RouteTable,
}

impl Router {
    /// Creates a router with no interfaces.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches an interface; returns its index.
    pub fn add_iface(&mut self, link: LinkId) -> usize {
        self.ifaces.push(link);
        self.ifaces.len() - 1
    }

    /// Adds a forwarding entry.
    ///
    /// # Panics
    /// If `prefix_len` exceeds the width of `prefix`'s family.
    pub fn add_route(&mut self, prefix: IpAddr, prefix_len: u8, out_iface: usize) {
        self.routes.add(prefix, prefix_len, out_iface);
    }

    /// Longest-prefix lookup; among equal lengths, the route added first.
    pub fn lookup(&self, dst: &IpAddr) -> Option<usize> {
        self.routes.lookup(dst)
    }
}

impl Node for Router {
    fn handle_packet(&mut self, in_iface: usize, mut pkt: Packet, ctx: &mut Ctx) {
        if pkt.ttl <= 1 {
            ctx.drop_packet(&pkt, DropReason::TtlExpired);
            return;
        }
        pkt.ttl -= 1;
        match self.lookup(&pkt.dst) {
            Some(out) if out != in_iface => ctx.transmit(self.ifaces[out], pkt),
            // Route points back where it came from: drop to avoid loops.
            Some(_) => ctx.drop_packet(&pkt, DropReason::Hairpin),
            None => ctx.drop_packet(&pkt, DropReason::NoRoute),
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::Host;
    use crate::packet::{v4, v6};
    use proptest::prelude::*;
    use std::net::{Ipv4Addr, Ipv6Addr};

    /// The byte-wise prefix compare the integer one replaced.
    fn oracle_match(addr: &IpAddr, prefix: &IpAddr, len: u8) -> bool {
        fn match_bits(a: &[u8], p: &[u8], len: u8) -> bool {
            let full = (len / 8) as usize;
            if a[..full] != p[..full] {
                return false;
            }
            let rem = len % 8;
            if rem == 0 {
                return true;
            }
            let mask = 0xffu8 << (8 - rem);
            (a[full] & mask) == (p[full] & mask)
        }
        match (addr, prefix) {
            (IpAddr::V4(a), IpAddr::V4(p)) => match_bits(&a.octets(), &p.octets(), len),
            (IpAddr::V6(a), IpAddr::V6(p)) => match_bits(&a.octets(), &p.octets(), len),
            _ => false,
        }
    }

    /// Longest match over `routes` by the oracle; among equal lengths,
    /// the first in the list.
    fn oracle_lookup(routes: &[(IpAddr, u8)], dst: &IpAddr) -> Option<usize> {
        let mut best: Option<(u8, usize)> = None;
        for (i, (prefix, len)) in routes.iter().enumerate() {
            if oracle_match(dst, prefix, *len) && best.is_none_or(|(b, _)| *len > b) {
                best = Some((*len, i));
            }
        }
        best.map(|(_, i)| i)
    }

    fn addr(v6: bool, bits: u128) -> IpAddr {
        if v6 {
            IpAddr::V6(Ipv6Addr::from_bits(bits))
        } else {
            IpAddr::V4(Ipv4Addr::from_bits(bits as u32))
        }
    }

    /// `bits` as an address of the given family, with a random run of
    /// its low bits (`shift` picks the length) flipped.
    fn near(v6: bool, bits: u128, other: u128, shift: u8) -> IpAddr {
        let width = if v6 { 128 } else { 32 };
        let flips = (other >> (128 - width))
            .checked_shr(u32::from(shift) % (width + 1))
            .unwrap_or(0);
        addr(v6, bits ^ flips)
    }

    #[test]
    fn longest_prefix_wins() {
        let mut r = Router::new();
        r.add_iface(LinkId(0));
        r.add_iface(LinkId(1));
        r.add_iface(LinkId(2));
        r.add_route(v4(10, 0, 0, 0), 8, 0);
        r.add_route(v4(10, 1, 0, 0), 16, 1);
        r.add_route(v4(0, 0, 0, 0), 0, 2);
        assert_eq!(r.lookup(&v4(10, 2, 3, 4)), Some(0));
        assert_eq!(r.lookup(&v4(10, 1, 3, 4)), Some(1));
        assert_eq!(r.lookup(&v4(192, 168, 0, 1)), Some(2));
    }

    #[test]
    fn families_do_not_cross() {
        let mut r = Router::new();
        r.add_iface(LinkId(0));
        r.add_route(v4(0, 0, 0, 0), 0, 0);
        assert_eq!(r.lookup(&v6([0x2001, 0, 0, 0, 0, 0, 0, 1])), None);
    }

    #[test]
    fn prefix_matching() {
        assert!(prefix_match(&v4(10, 1, 2, 3), &v4(10, 0, 0, 0), 8));
        assert!(!prefix_match(&v4(11, 1, 2, 3), &v4(10, 0, 0, 0), 8));
        assert!(prefix_match(&v4(10, 1, 2, 3), &v4(10, 1, 0, 0), 16));
        assert!(prefix_match(&v4(192, 168, 1, 77), &v4(192, 168, 1, 64), 26));
        assert!(!prefix_match(
            &v4(192, 168, 1, 10),
            &v4(192, 168, 1, 64),
            26
        ));
        assert!(prefix_match(&v4(1, 2, 3, 4), &v4(0, 0, 0, 0), 0));
    }

    #[test]
    #[should_panic(expected = "prefix longer than the address")]
    fn v4_prefix_past_32_bits_is_refused() {
        Router::new().add_route(v4(10, 0, 0, 0), 40, 0);
    }

    #[test]
    #[should_panic(expected = "prefix longer than the address")]
    fn host_v6_prefix_past_128_bits_is_refused() {
        Host::new("h")
            .core
            .add_route(v6([0x2001, 0, 0, 0, 0, 0, 0, 0]), 129, 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The integer compare agrees with the byte-wise one at every
        /// length from 0 to the family's width, for prefixes that differ
        /// from the address in one bit, in a run of low bits, or
        /// everywhere, and never matches across families.
        #[test]
        fn prefix_match_agrees_with_bytewise_oracle(
            v6_addr: bool,
            v6_prefix: bool,
            bits in any::<u128>(),
            other in any::<u128>(),
            shift: u8,
            how in 0u8..3,
        ) {
            let dst = addr(v6_addr, bits);
            let prefix = match how {
                0 => addr(v6_prefix, bits ^ (1 << (shift % family_bits(&dst)))),
                1 => near(v6_prefix, bits, other, shift),
                _ => addr(v6_prefix, other),
            };
            for len in 0..=family_bits(&prefix) {
                prop_assert_eq!(
                    prefix_match(&dst, &prefix, len),
                    oracle_match(&dst, &prefix, len),
                    "{} in {}/{}", dst, prefix, len
                );
            }
        }

        /// `Router::lookup` and the host's route choice both take the
        /// longest matching prefix and, among equal lengths, the route
        /// added first. Lengths are often whole octets so that ties are
        /// common; a host with no matching route falls back to its
        /// first interface.
        #[test]
        fn lookups_pick_the_oracles_route(
            v6_dst: bool,
            bits in any::<u128>(),
            raw in proptest::collection::vec(
                (0u8..8, any::<u128>(), any::<u8>(), any::<u8>()),
                1..16,
            ),
        ) {
            let dst = addr(v6_dst, bits);
            let routes: Vec<(IpAddr, u8)> = raw
                .iter()
                .map(|&(kind, other, shift, len_seed)| {
                    // Mostly the destination's family, with low bits
                    // flipped so that some prefixes cover it.
                    let v6 = if kind == 0 { !v6_dst } else { v6_dst };
                    let prefix = near(v6, bits, other, shift);
                    let width = family_bits(&prefix);
                    let len = if kind % 2 == 1 {
                        width / 4 * (len_seed % 5)
                    } else {
                        len_seed % (width + 1)
                    };
                    (prefix, len)
                })
                .collect();
            let mut router = Router::new();
            let mut host = Host::new("h");
            for (i, &(prefix, len)) in routes.iter().enumerate() {
                router.add_route(prefix, len, i);
                host.core.add_route(prefix, len, i);
            }
            let want = oracle_lookup(&routes, &dst);
            prop_assert_eq!(router.lookup(&dst), want);
            host.core.add_iface(LinkId(0), Vec::new());
            prop_assert_eq!(host.core.route_iface(&dst), want.or(Some(0)));
        }
    }
}
