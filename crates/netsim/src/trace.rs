//! Lightweight event tracing with typed records and JSONL export.
//!
//! Tests and experiment harnesses can enable tracing to see every packet
//! hop, drop, state change and fault; production sweeps leave it
//! disabled (the trace is a no-op unless `enabled` is set, so the hot
//! path pays one branch).
//!
//! Records are typed ([`TraceData`]) rather than pre-rendered strings,
//! so harnesses filter on structure (`proto == 6`) instead of grepping
//! text, and the whole buffer exports as JSON Lines — one flat object
//! per entry ([`TraceEntry::to_json_line`]). When the cap truncates,
//! the number of entries lost is counted ([`Trace::truncated`]) so
//! harnesses can warn instead of silently reporting a short trace.

use crate::drops::DropReason;
use crate::link::NodeId;
use crate::time::SimTime;
use std::net::IpAddr;

/// Packet identity carried by Tx/Rx/Drop records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PktInfo {
    /// Source address.
    pub src: IpAddr,
    /// Destination address.
    pub dst: IpAddr,
    /// IP protocol number (6 TCP, 17 UDP, 50 ESP, 139 HIP, ...).
    pub proto: u8,
    /// On-wire length in bytes.
    pub len: u32,
}

/// What happened, with typed payload.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceData {
    /// Packet handed to a link.
    Tx(PktInfo),
    /// Packet delivered to a node.
    Rx(PktInfo),
    /// Packet dropped (recorded by `Ctx::drop_packet`).
    Drop {
        /// The dropped packet.
        pkt: PktInfo,
        /// Why it was dropped.
        reason: DropReason,
    },
    /// A protocol state change worth seeing (BEX transitions, TCP states).
    State {
        /// Human-readable description.
        detail: String,
    },
    /// A fault episode transition (link down/up, crash/restart,
    /// partition/heal) applied by the injector.
    Fault {
        /// Human-readable description of the transition.
        detail: String,
    },
}

/// The coarse kind of a record (cheap filtering).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// Packet handed to a link.
    Tx,
    /// Packet delivered to a node.
    Rx,
    /// Packet dropped.
    Drop,
    /// Protocol state change.
    State,
    /// Fault episode transition.
    Fault,
}

impl TraceData {
    /// The record's coarse kind.
    pub fn kind(&self) -> TraceKind {
        match self {
            TraceData::Tx(_) => TraceKind::Tx,
            TraceData::Rx(_) => TraceKind::Rx,
            TraceData::Drop { .. } => TraceKind::Drop,
            TraceData::State { .. } => TraceKind::State,
            TraceData::Fault { .. } => TraceKind::Fault,
        }
    }

    /// The packet info, for Tx/Rx/Drop records that carry one.
    pub fn pkt(&self) -> Option<&PktInfo> {
        match self {
            TraceData::Tx(p) | TraceData::Rx(p) | TraceData::Drop { pkt: p, .. } => Some(p),
            _ => None,
        }
    }
}

/// One traced occurrence.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEntry {
    /// When it happened.
    pub at: SimTime,
    /// Which node reported it.
    pub node: NodeId,
    /// Coarse kind (derived from `data`, stored for cheap filtering).
    pub kind: TraceKind,
    /// The typed record.
    pub data: TraceData,
}

impl TraceEntry {
    /// Human-readable rendering of the record payload.
    pub fn detail(&self) -> String {
        match &self.data {
            TraceData::Tx(p) | TraceData::Rx(p) => {
                format!("{} -> {} proto {} len {}", p.src, p.dst, p.proto, p.len)
            }
            TraceData::Drop { pkt: p, reason } => {
                format!(
                    "{reason} ({} -> {} proto {} len {})",
                    p.src, p.dst, p.proto, p.len
                )
            }
            TraceData::State { detail } => detail.clone(),
            TraceData::Fault { detail } => detail.clone(),
        }
    }

    /// Serializes the entry as one flat JSON object (no trailing
    /// newline). Numbers are written exactly, so `t` keeps every
    /// nanosecond of a `u64`.
    pub fn to_json_line(&self) -> String {
        let mut w = obs::json::ObjWriter::new();
        w.raw_field("t", self.at.as_nanos());
        w.raw_field("node", self.node.0);
        let kind = match self.kind {
            TraceKind::Tx => "tx",
            TraceKind::Rx => "rx",
            TraceKind::Drop => "drop",
            TraceKind::State => "state",
            TraceKind::Fault => "fault",
        };
        w.str_field("kind", kind);
        let p = match &self.data {
            TraceData::Tx(p) | TraceData::Rx(p) => p,
            TraceData::Drop { pkt, reason } => {
                w.str_field("reason", reason.name());
                pkt
            }
            TraceData::State { detail } | TraceData::Fault { detail } => {
                w.str_field("detail", detail);
                return w.finish();
            }
        };
        w.str_field("src", &p.src.to_string());
        w.str_field("dst", &p.dst.to_string());
        w.raw_field("proto", p.proto);
        w.raw_field("len", p.len);
        w.finish()
    }
}

/// A bounded in-memory trace buffer.
#[derive(Debug, Default)]
pub struct Trace {
    enabled: bool,
    entries: Vec<TraceEntry>,
    /// Cap so pathological runs cannot exhaust memory.
    cap: usize,
    /// Entries lost to the cap while enabled.
    dropped: u64,
}

impl Trace {
    /// A disabled trace (records nothing).
    pub fn disabled() -> Self {
        Trace::default()
    }

    /// An enabled trace retaining up to `cap` entries.
    pub fn enabled(cap: usize) -> Self {
        Trace {
            enabled: true,
            cap,
            ..Default::default()
        }
    }

    /// Records an entry if enabled and below the cap. `data` is built
    /// lazily so disabled traces never allocate; past the cap, the
    /// entry is counted as dropped instead.
    pub fn record(&mut self, at: SimTime, node: NodeId, data: impl FnOnce() -> TraceData) {
        if !self.enabled {
            return;
        }
        if self.entries.len() < self.cap {
            let data = data();
            self.entries.push(TraceEntry {
                at,
                node,
                kind: data.kind(),
                data,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// All recorded entries.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Entries of one kind.
    pub fn of_kind(&self, kind: TraceKind) -> impl Iterator<Item = &TraceEntry> {
        self.entries.iter().filter(move |e| e.kind == kind)
    }

    /// How many entries were lost because the buffer hit its cap.
    /// Non-zero means [`Trace::entries`] is a truncated prefix and
    /// harnesses should say so instead of reporting a short trace.
    pub fn truncated(&self) -> u64 {
        self.dropped
    }

    /// Renders the trace as text, one entry per line.
    pub fn dump(&self) -> String {
        let mut s = String::new();
        for e in &self.entries {
            s.push_str(&format!(
                "{:>12.6} node{:<3} {:?} {}\n",
                e.at.as_secs_f64(),
                e.node.0,
                e.kind,
                e.detail()
            ));
        }
        s
    }

    /// The whole buffer as JSON Lines (one object per entry).
    pub fn to_jsonl(&self) -> String {
        let mut s = String::new();
        for e in &self.entries {
            s.push_str(&e.to_json_line());
            s.push('\n');
        }
        s
    }

    /// Writes the buffer as JSONL to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_jsonl())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    /// One entry of every record kind, each with the JSON line it must
    /// serialize to: a quote and a newline are escaped, IPv6 addresses
    /// print compressed, a drop is labelled with its reason's name, and
    /// a near-`u64::MAX` timestamp keeps every digit.
    fn sample_entries() -> Vec<(TraceEntry, &'static str)> {
        let mk = |at, data: TraceData| TraceEntry {
            at,
            kind: data.kind(),
            node: NodeId(3),
            data,
        };
        vec![
            (
                mk(
                    SimTime(1),
                    TraceData::Tx(PktInfo {
                        src: ip("10.0.0.1"),
                        dst: ip("10.0.0.2"),
                        proto: 6,
                        len: 1500,
                    }),
                ),
                r#"{"t":1,"node":3,"kind":"tx","src":"10.0.0.1","dst":"10.0.0.2","proto":6,"len":1500}"#,
            ),
            (
                mk(
                    SimTime(u64::MAX - 1),
                    TraceData::Rx(PktInfo {
                        src: ip("fd00::1"),
                        dst: ip("fd00::2"),
                        proto: 50,
                        len: 96,
                    }),
                ),
                r#"{"t":18446744073709551614,"node":3,"kind":"rx","src":"fd00::1","dst":"fd00::2","proto":50,"len":96}"#,
            ),
            (
                mk(
                    SimTime(6),
                    TraceData::Drop {
                        pkt: PktInfo {
                            src: ip("192.168.1.9"),
                            dst: ip("8.8.8.8"),
                            proto: 17,
                            len: 64,
                        },
                        reason: DropReason::QueueOverflow,
                    },
                ),
                r#"{"t":6,"node":3,"kind":"drop","reason":"link.drop.queue_overflow","src":"192.168.1.9","dst":"8.8.8.8","proto":17,"len":64}"#,
            ),
            (
                mk(
                    SimTime(7),
                    TraceData::State {
                        detail: "I1 -> R1, \"puzzle\" k=10\nline2".into(),
                    },
                ),
                r#"{"t":7,"node":3,"kind":"state","detail":"I1 -> R1, \"puzzle\" k=10\nline2"}"#,
            ),
            (
                mk(
                    SimTime(10),
                    TraceData::Fault {
                        detail: "link 2 down".into(),
                    },
                ),
                r#"{"t":10,"node":3,"kind":"fault","detail":"link 2 down"}"#,
            ),
        ]
    }

    #[test]
    fn json_line_of_each_record_kind_is_pinned() {
        for (e, want) in sample_entries() {
            assert_eq!(e.to_json_line(), want);
        }
    }

    #[test]
    fn trace_buffer_exports_one_jsonl_line_per_entry() {
        let mut t = Trace::enabled(100);
        let mut want = String::new();
        for (e, line) in sample_entries() {
            t.record(e.at, e.node, || e.data);
            want.push_str(line);
            want.push('\n');
        }
        assert_eq!(t.to_jsonl(), want);
    }

    #[test]
    fn disabled_records_nothing() {
        let mut t = Trace::disabled();
        t.record(SimTime::ZERO, NodeId(0), || TraceData::State {
            detail: "x".into(),
        });
        assert!(t.entries().is_empty());
        assert_eq!(t.truncated(), 0);
    }

    #[test]
    fn enabled_records_up_to_cap_and_counts_overflow() {
        let mut t = Trace::enabled(2);
        for i in 0..5 {
            t.record(SimTime(i), NodeId(0), || TraceData::State {
                detail: format!("p{i}"),
            });
        }
        assert_eq!(t.entries().len(), 2);
        assert_eq!(t.truncated(), 3);
        assert_eq!(t.of_kind(TraceKind::State).count(), 2);
        assert_eq!(t.of_kind(TraceKind::Drop).count(), 0);
        assert!(t.dump().contains("p0"));
    }
}
