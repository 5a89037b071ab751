//! A small DNS model: names, records, messages, and a server node app.
//!
//! The paper's future-work section leans on HIP's DNS integration (HIP
//! resource records per RFC 5205, dynamic DNS for re-contact). We model a
//! structured DNS message over UDP port 53 with A/AAAA records plus the
//! HIP RR carrying a HIT, a serialized Host Identity, and optional
//! rendezvous servers.

use crate::fx::FxHashMap;
use std::net::IpAddr;

/// Well-known DNS port.
pub const DNS_PORT: u16 = 53;

/// A DNS record type selector for queries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RecordType {
    /// IPv4 address.
    A,
    /// IPv6 address.
    Aaaa,
    /// HIP resource record (RFC 5205): HIT + Host Identity + RVS list.
    Hip,
    /// All records for the name.
    Any,
}

/// A DNS resource record.
#[derive(Clone, Debug, PartialEq)]
pub enum Record {
    /// IPv4 locator.
    A(IpAddr),
    /// IPv6 locator.
    Aaaa(IpAddr),
    /// HIP RR: the Host Identity Tag, the serialized public key (HI), and
    /// zero or more rendezvous server names/addresses.
    Hip {
        /// The Host Identity Tag.
        hit: [u8; 16],
        /// The serialized Host Identity (public key).
        host_identity: Vec<u8>,
        /// Rendezvous server locators, if any.
        rendezvous: Vec<IpAddr>,
    },
}

impl Record {
    /// Whether this record answers a query of `rtype`.
    #[allow(clippy::match_like_matches_macro)] // arm-per-type reads better
    pub fn matches(&self, rtype: RecordType) -> bool {
        match (self, rtype) {
            (_, RecordType::Any) => true,
            (Record::A(_), RecordType::A) => true,
            (Record::Aaaa(_), RecordType::Aaaa) => true,
            (Record::Hip { .. }, RecordType::Hip) => true,
            _ => false,
        }
    }

    /// Approximate wire size of the record (name compression ignored).
    pub fn wire_len(&self) -> usize {
        match self {
            Record::A(_) => 16,
            Record::Aaaa(_) => 28,
            Record::Hip {
                host_identity,
                rendezvous,
                ..
            } => 16 + 16 + host_identity.len() + rendezvous.len() * 16,
        }
    }
}

/// A DNS query or response.
#[derive(Clone, Debug)]
pub enum DnsMessage {
    /// A query for `name` records of `rtype`, tagged with a client id.
    Query {
        /// Client-chosen transaction id, echoed in the response.
        id: u16,
        /// The name being resolved.
        name: String,
        /// Which records are wanted.
        rtype: RecordType,
    },
    /// The response; empty `answers` means NXDOMAIN / no data.
    Response {
        /// Echoed transaction id.
        id: u16,
        /// Echoed name.
        name: String,
        /// Matching records.
        answers: Vec<Record>,
    },
}

impl DnsMessage {
    /// Approximate wire size.
    pub fn wire_len(&self) -> usize {
        match self {
            DnsMessage::Query { name, .. } => 12 + name.len() + 4,
            DnsMessage::Response { name, answers, .. } => {
                12 + name.len() + 4 + answers.iter().map(Record::wire_len).sum::<usize>()
            }
        }
    }
}

/// An authoritative zone: name → records. Cloned into the DNS server app.
#[derive(Clone, Debug, Default)]
pub struct Zone {
    records: FxHashMap<String, Vec<Record>>,
}

impl Zone {
    /// An empty zone.
    pub fn new() -> Self {
        Zone::default()
    }

    /// Adds a record for `name` (names are case-insensitive).
    pub fn add(&mut self, name: &str, record: Record) {
        self.records
            .entry(name.to_ascii_lowercase())
            .or_default()
            .push(record);
    }

    /// Removes all records for `name`, returning how many were removed.
    /// (This is what HIP dynamic-DNS re-registration does on relocation.)
    pub fn remove(&mut self, name: &str) -> usize {
        self.records
            .remove(&name.to_ascii_lowercase())
            .map_or(0, |v| v.len())
    }

    /// Looks up records of `rtype` for `name`.
    pub fn lookup(&self, name: &str, rtype: RecordType) -> Vec<Record> {
        self.records
            .get(&name.to_ascii_lowercase())
            .map(|recs| recs.iter().filter(|r| r.matches(rtype)).cloned().collect())
            .unwrap_or_default()
    }

    /// Number of names with at least one record.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the zone holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::v4;

    #[test]
    fn zone_add_lookup() {
        let mut z = Zone::new();
        z.add("web1.cloud", Record::A(v4(10, 0, 0, 5)));
        z.add(
            "web1.cloud",
            Record::Hip {
                hit: [9; 16],
                host_identity: vec![1, 2, 3],
                rendezvous: vec![],
            },
        );
        assert_eq!(z.lookup("web1.cloud", RecordType::A).len(), 1);
        assert_eq!(
            z.lookup("WEB1.CLOUD", RecordType::A).len(),
            1,
            "case-insensitive"
        );
        assert_eq!(z.lookup("web1.cloud", RecordType::Hip).len(), 1);
        assert_eq!(z.lookup("web1.cloud", RecordType::Any).len(), 2);
        assert_eq!(z.lookup("web1.cloud", RecordType::Aaaa).len(), 0);
        assert!(z.lookup("nosuch.cloud", RecordType::Any).is_empty());
    }

    #[test]
    fn zone_remove_supports_dynamic_dns() {
        let mut z = Zone::new();
        z.add("vm.cloud", Record::A(v4(10, 0, 0, 1)));
        assert_eq!(z.remove("vm.cloud"), 1);
        assert!(z.lookup("vm.cloud", RecordType::A).is_empty());
        // Re-register at the new locator.
        z.add("vm.cloud", Record::A(v4(10, 0, 1, 1)));
        assert_eq!(
            z.lookup("vm.cloud", RecordType::A),
            vec![Record::A(v4(10, 0, 1, 1))]
        );
    }

    #[test]
    fn message_wire_len_scales_with_answers() {
        let q = DnsMessage::Query {
            id: 1,
            name: "a.b".into(),
            rtype: RecordType::A,
        };
        let r = DnsMessage::Response {
            id: 1,
            name: "a.b".into(),
            answers: vec![Record::A(v4(1, 1, 1, 1)), Record::Aaaa(v4(1, 1, 1, 1))],
        };
        assert!(r.wire_len() > q.wire_len());
    }
}
