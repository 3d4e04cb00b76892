//! A minimal OpenFlow 1.0-style message subset.
//!
//! The paper's control loop is: switch state → sound → MDN controller →
//! OpenFlow Flow-MOD back to the switch ("it sends an OpenFlow flow-MOD
//! message so that the source traffic gets split across two ports"). This
//! module implements the message subset that loop needs — Hello/Echo
//! liveness, PacketIn, FlowMod, PortStatus — with a compact binary wire
//! format and full round-trip tests. It is not a complete OF1.0
//! implementation; it is the slice the paper exercises, implemented
//! end-to-end.

use crate::wire::{Reader, WireError, Writer};
use mdn_net::ftable::{Action, Match, Rule};
use mdn_net::packet::{FlowKey, Ip, Proto};

/// OpenFlow version byte (we speak an OF 1.0-flavoured dialect).
pub const OF_VERSION: u8 = 0x01;
/// Header size in bytes.
pub const OF_HEADER_LEN: usize = 8;
/// Largest body a frame can carry: the header's `u16` total length must
/// hold `OF_HEADER_LEN + body`, so bodies cap at 65527 bytes.
pub const OF_MAX_BODY: usize = u16::MAX as usize - OF_HEADER_LEN;

const T_HELLO: u8 = 0;
const T_ECHO_REQUEST: u8 = 2;
const T_ECHO_REPLY: u8 = 3;
const T_PACKET_IN: u8 = 10;
const T_PORT_STATUS: u8 = 12;
const T_FLOW_MOD: u8 = 14;
const T_PORT_STATS_REQUEST: u8 = 16;
const T_PORT_STATS_REPLY: u8 = 17;

/// FlowMod command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowModCommand {
    /// Install the rule.
    Add,
    /// Remove rules with an equal match.
    Delete,
}

/// Why a PacketIn was sent to the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketInReason {
    /// Table miss.
    NoMatch,
    /// An explicit send-to-controller action.
    Action,
}

/// Port status change kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortReason {
    /// Port added.
    Add,
    /// Port removed.
    Delete,
    /// Port attribute changed (e.g. link up/down).
    Modify,
}

/// A control-plane message.
#[derive(Debug, Clone, PartialEq)]
pub enum OfMessage {
    /// Version negotiation greeting.
    Hello {
        /// Transaction id.
        xid: u32,
    },
    /// Liveness probe.
    EchoRequest {
        /// Transaction id.
        xid: u32,
        /// Opaque payload, echoed back.
        payload: Vec<u8>,
    },
    /// Liveness reply.
    EchoReply {
        /// Transaction id (matches the request).
        xid: u32,
        /// The request's payload.
        payload: Vec<u8>,
    },
    /// A packet (summary) forwarded to the controller.
    PacketIn {
        /// Transaction id.
        xid: u32,
        /// Ingress port.
        in_port: u16,
        /// The packet's flow key.
        flow: FlowKey,
        /// Original packet length in bytes.
        total_len: u16,
        /// Why it was sent up.
        reason: PacketInReason,
    },
    /// Install or remove a flow rule.
    FlowMod {
        /// Transaction id.
        xid: u32,
        /// Add or delete.
        command: FlowModCommand,
        /// Rule priority (higher wins).
        priority: u16,
        /// Match condition.
        mat: Match,
        /// Action (ignored for Delete).
        action: Action,
    },
    /// A port's status changed.
    PortStatus {
        /// Transaction id.
        xid: u32,
        /// The port.
        port: u16,
        /// What changed.
        reason: PortReason,
        /// Is the link up after the change?
        link_up: bool,
    },
    /// Poll one port's counters (the in-band monitoring alternative that
    /// Music-Defined Networking replaces).
    PortStatsRequest {
        /// Transaction id.
        xid: u32,
        /// The port to report on.
        port: u16,
    },
    /// The polled counters.
    PortStatsReply {
        /// Transaction id (matches the request).
        xid: u32,
        /// The reported port.
        port: u16,
        /// Packets accepted into the port's egress queue, lifetime.
        tx_packets: u64,
        /// Bytes accepted into the port's egress queue, lifetime.
        tx_bytes: u64,
        /// Current egress queue occupancy in packets.
        queue_len: u32,
        /// Packets dropped at the full queue, lifetime.
        queue_drops: u64,
    },
}

impl OfMessage {
    /// The message's transaction id.
    pub fn xid(&self) -> u32 {
        match self {
            OfMessage::Hello { xid }
            | OfMessage::EchoRequest { xid, .. }
            | OfMessage::EchoReply { xid, .. }
            | OfMessage::PacketIn { xid, .. }
            | OfMessage::FlowMod { xid, .. }
            | OfMessage::PortStatus { xid, .. }
            | OfMessage::PortStatsRequest { xid, .. }
            | OfMessage::PortStatsReply { xid, .. } => *xid,
        }
    }

    /// Serialize to a wire frame.
    ///
    /// Fails with [`WireError::Oversize`] when the body exceeds
    /// [`OF_MAX_BODY`] — the header's `u16` length field cannot declare
    /// such a frame, and silently wrapping it would emit a corrupt frame
    /// whose declared length disagrees with its contents (fatal on a
    /// byte-stream transport, which trusts the length to find the next
    /// frame boundary).
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let mut body = Writer::new();
        let (ty, xid) = match self {
            OfMessage::Hello { xid } => (T_HELLO, *xid),
            OfMessage::EchoRequest { xid, payload } => {
                body.raw(payload);
                (T_ECHO_REQUEST, *xid)
            }
            OfMessage::EchoReply { xid, payload } => {
                body.raw(payload);
                (T_ECHO_REPLY, *xid)
            }
            OfMessage::PacketIn {
                xid,
                in_port,
                flow,
                total_len,
                reason,
            } => {
                body.u16(*in_port);
                write_flow(&mut body, flow);
                body.u16(*total_len);
                body.u8(match reason {
                    PacketInReason::NoMatch => 0,
                    PacketInReason::Action => 1,
                });
                (T_PACKET_IN, *xid)
            }
            OfMessage::FlowMod {
                xid,
                command,
                priority,
                mat,
                action,
            } => {
                body.u8(match command {
                    FlowModCommand::Add => 0,
                    FlowModCommand::Delete => 1,
                });
                body.u16(*priority);
                write_match(&mut body, mat);
                write_action(&mut body, action);
                (T_FLOW_MOD, *xid)
            }
            OfMessage::PortStatus {
                xid,
                port,
                reason,
                link_up,
            } => {
                body.u16(*port);
                body.u8(match reason {
                    PortReason::Add => 0,
                    PortReason::Delete => 1,
                    PortReason::Modify => 2,
                });
                body.u8(u8::from(*link_up));
                (T_PORT_STATUS, *xid)
            }
            OfMessage::PortStatsRequest { xid, port } => {
                body.u16(*port);
                (T_PORT_STATS_REQUEST, *xid)
            }
            OfMessage::PortStatsReply {
                xid,
                port,
                tx_packets,
                tx_bytes,
                queue_len,
                queue_drops,
            } => {
                body.u16(*port)
                    .u64(*tx_packets)
                    .u64(*tx_bytes)
                    .u32(*queue_len)
                    .u64(*queue_drops);
                (T_PORT_STATS_REPLY, *xid)
            }
        };
        let body = body.finish();
        if body.len() > OF_MAX_BODY {
            return Err(WireError::Oversize {
                len: OF_HEADER_LEN + body.len(),
                max: u16::MAX as usize,
            });
        }
        let total = (OF_HEADER_LEN + body.len()) as u16;
        let mut w = Writer::new();
        w.u8(OF_VERSION).u8(ty).u16(total).u32(xid).raw(&body);
        Ok(w.finish())
    }

    /// Parse a wire frame.
    pub fn decode(frame: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(frame);
        let version = r.u8()?;
        if version != OF_VERSION {
            return Err(WireError::BadVersion(version));
        }
        let ty = r.u8()?;
        let total = r.u16()? as usize;
        let xid = r.u32()?;
        let body_len = total
            .checked_sub(OF_HEADER_LEN)
            .ok_or(WireError::InvalidField("length shorter than header"))?;
        if r.remaining() != body_len {
            return Err(WireError::LengthMismatch {
                declared: body_len,
                actual: r.remaining(),
            });
        }
        let msg = match ty {
            T_HELLO => OfMessage::Hello { xid },
            T_ECHO_REQUEST => OfMessage::EchoRequest {
                xid,
                payload: r.bytes(body_len)?,
            },
            T_ECHO_REPLY => OfMessage::EchoReply {
                xid,
                payload: r.bytes(body_len)?,
            },
            T_PACKET_IN => {
                let in_port = r.u16()?;
                let flow = read_flow(&mut r)?;
                let total_len = r.u16()?;
                let reason = match r.u8()? {
                    0 => PacketInReason::NoMatch,
                    1 => PacketInReason::Action,
                    _ => return Err(WireError::InvalidField("packet-in reason")),
                };
                OfMessage::PacketIn {
                    xid,
                    in_port,
                    flow,
                    total_len,
                    reason,
                }
            }
            T_FLOW_MOD => {
                let command = match r.u8()? {
                    0 => FlowModCommand::Add,
                    1 => FlowModCommand::Delete,
                    _ => return Err(WireError::InvalidField("flow-mod command")),
                };
                let priority = r.u16()?;
                let mat = read_match(&mut r)?;
                let action = read_action(&mut r)?;
                OfMessage::FlowMod {
                    xid,
                    command,
                    priority,
                    mat,
                    action,
                }
            }
            T_PORT_STATUS => {
                let port = r.u16()?;
                let reason = match r.u8()? {
                    0 => PortReason::Add,
                    1 => PortReason::Delete,
                    2 => PortReason::Modify,
                    _ => return Err(WireError::InvalidField("port-status reason")),
                };
                let link_up = r.u8()? != 0;
                OfMessage::PortStatus {
                    xid,
                    port,
                    reason,
                    link_up,
                }
            }
            T_PORT_STATS_REQUEST => OfMessage::PortStatsRequest {
                xid,
                port: r.u16()?,
            },
            T_PORT_STATS_REPLY => OfMessage::PortStatsReply {
                xid,
                port: r.u16()?,
                tx_packets: r.u64()?,
                tx_bytes: r.u64()?,
                queue_len: r.u32()?,
                queue_drops: r.u64()?,
            },
            other => return Err(WireError::UnknownType(other)),
        };
        r.expect_end()?;
        Ok(msg)
    }

    /// Convert an Add FlowMod to the rule it installs, or `None` for other
    /// message kinds.
    pub fn as_rule(&self) -> Option<Rule> {
        match self {
            OfMessage::FlowMod {
                command: FlowModCommand::Add,
                priority,
                mat,
                action,
                ..
            } => Some(Rule {
                mat: *mat,
                priority: *priority,
                action: action.clone(),
            }),
            _ => None,
        }
    }
}

// Wildcard bitmap: bit set means the field is wildcarded.
const W_IN_PORT: u8 = 1 << 0;
const W_SRC_IP: u8 = 1 << 1;
const W_DST_IP: u8 = 1 << 2;
const W_SRC_PORT: u8 = 1 << 3;
const W_DST_PORT: u8 = 1 << 4;
const W_PROTO: u8 = 1 << 5;

fn write_match(w: &mut Writer, m: &Match) {
    let mut wild = 0u8;
    if m.in_port.is_none() {
        wild |= W_IN_PORT;
    }
    if m.src_ip.is_none() {
        wild |= W_SRC_IP;
    }
    if m.dst_ip.is_none() {
        wild |= W_DST_IP;
    }
    if m.src_port.is_none() {
        wild |= W_SRC_PORT;
    }
    if m.dst_port.is_none() {
        wild |= W_DST_PORT;
    }
    if m.proto.is_none() {
        wild |= W_PROTO;
    }
    w.u8(wild);
    w.u16(m.in_port.unwrap_or(0) as u16);
    w.u32(m.src_ip.map_or(0, |ip| ip.0));
    w.u32(m.dst_ip.map_or(0, |ip| ip.0));
    w.u16(m.src_port.unwrap_or(0));
    w.u16(m.dst_port.unwrap_or(0));
    w.u8(m.proto.map_or(0, |p| p.number()));
}

fn read_match(r: &mut Reader) -> Result<Match, WireError> {
    let wild = r.u8()?;
    let in_port = r.u16()?;
    let src_ip = r.u32()?;
    let dst_ip = r.u32()?;
    let src_port = r.u16()?;
    let dst_port = r.u16()?;
    let proto = r.u8()?;
    Ok(Match {
        in_port: (wild & W_IN_PORT == 0).then_some(in_port as usize),
        src_ip: (wild & W_SRC_IP == 0).then_some(Ip(src_ip)),
        dst_ip: (wild & W_DST_IP == 0).then_some(Ip(dst_ip)),
        src_port: (wild & W_SRC_PORT == 0).then_some(src_port),
        dst_port: (wild & W_DST_PORT == 0).then_some(dst_port),
        proto: (wild & W_PROTO == 0).then_some(Proto::from_number(proto)),
    })
}

fn write_flow(w: &mut Writer, f: &FlowKey) {
    w.u32(f.src_ip.0)
        .u32(f.dst_ip.0)
        .u16(f.src_port)
        .u16(f.dst_port)
        .u8(f.proto.number());
}

fn read_flow(r: &mut Reader) -> Result<FlowKey, WireError> {
    Ok(FlowKey {
        src_ip: Ip(r.u32()?),
        dst_ip: Ip(r.u32()?),
        src_port: r.u16()?,
        dst_port: r.u16()?,
        proto: Proto::from_number(r.u8()?),
    })
}

const A_DROP: u8 = 0;
const A_FORWARD: u8 = 1;
const A_SPLIT_FLOW: u8 = 2;
const A_SPLIT_RR: u8 = 3;

fn write_action(w: &mut Writer, a: &Action) {
    match a {
        Action::Drop => {
            w.u8(A_DROP);
        }
        Action::Forward(p) => {
            w.u8(A_FORWARD).u16(*p as u16);
        }
        Action::SplitByFlow(ports) => {
            w.u8(A_SPLIT_FLOW).u8(ports.len() as u8);
            for p in ports {
                w.u16(*p as u16);
            }
        }
        Action::SplitRoundRobin(ports) => {
            w.u8(A_SPLIT_RR).u8(ports.len() as u8);
            for p in ports {
                w.u16(*p as u16);
            }
        }
    }
}

fn read_action(r: &mut Reader) -> Result<Action, WireError> {
    match r.u8()? {
        A_DROP => Ok(Action::Drop),
        A_FORWARD => Ok(Action::Forward(r.u16()? as usize)),
        ty @ (A_SPLIT_FLOW | A_SPLIT_RR) => {
            let count = r.u8()? as usize;
            if count == 0 {
                return Err(WireError::InvalidField("empty split group"));
            }
            let mut ports = Vec::with_capacity(count);
            for _ in 0..count {
                ports.push(r.u16()? as usize);
            }
            Ok(if ty == A_SPLIT_FLOW {
                Action::SplitByFlow(ports)
            } else {
                Action::SplitRoundRobin(ports)
            })
        }
        _ => Err(WireError::InvalidField("action type")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: OfMessage) {
        let decoded = OfMessage::decode(&msg.encode().unwrap()).unwrap();
        assert_eq!(decoded, msg);
    }

    #[test]
    fn hello_roundtrip() {
        roundtrip(OfMessage::Hello { xid: 42 });
        assert_eq!(
            OfMessage::Hello { xid: 42 }.encode().unwrap().len(),
            OF_HEADER_LEN
        );
    }

    #[test]
    fn echo_roundtrip() {
        roundtrip(OfMessage::EchoRequest {
            xid: 1,
            payload: b"ping".to_vec(),
        });
        roundtrip(OfMessage::EchoReply {
            xid: 1,
            payload: b"ping".to_vec(),
        });
        roundtrip(OfMessage::EchoRequest {
            xid: 2,
            payload: Vec::new(),
        });
    }

    #[test]
    fn packet_in_roundtrip() {
        roundtrip(OfMessage::PacketIn {
            xid: 9,
            in_port: 3,
            flow: FlowKey::tcp(Ip::v4(10, 0, 0, 1), 40000, Ip::v4(10, 0, 0, 2), 80),
            total_len: 1514,
            reason: PacketInReason::NoMatch,
        });
    }

    #[test]
    fn flow_mod_roundtrip_all_actions() {
        for action in [
            Action::Drop,
            Action::Forward(7),
            Action::SplitByFlow(vec![1, 2, 3]),
            Action::SplitRoundRobin(vec![4, 5]),
        ] {
            roundtrip(OfMessage::FlowMod {
                xid: 100,
                command: FlowModCommand::Add,
                priority: 10,
                mat: Match::dst_transport_port(8080),
                action,
            });
        }
    }

    #[test]
    fn flow_mod_wildcard_combinations() {
        let full = Match::exact(&FlowKey::udp(Ip::v4(1, 2, 3, 4), 5, Ip::v4(6, 7, 8, 9), 10));
        for mat in [Match::ANY, full, Match::dst(Ip::v4(10, 0, 0, 2))] {
            roundtrip(OfMessage::FlowMod {
                xid: 1,
                command: FlowModCommand::Delete,
                priority: 0,
                mat,
                action: Action::Drop,
            });
        }
    }

    #[test]
    fn port_status_roundtrip() {
        for reason in [PortReason::Add, PortReason::Delete, PortReason::Modify] {
            roundtrip(OfMessage::PortStatus {
                xid: 5,
                port: 2,
                reason,
                link_up: true,
            });
        }
        roundtrip(OfMessage::PortStatus {
            xid: 5,
            port: 2,
            reason: PortReason::Modify,
            link_up: false,
        });
    }

    #[test]
    fn port_stats_roundtrip() {
        roundtrip(OfMessage::PortStatsRequest { xid: 3, port: 7 });
        roundtrip(OfMessage::PortStatsReply {
            xid: 3,
            port: 7,
            tx_packets: u64::MAX - 1,
            tx_bytes: 123_456_789_012,
            queue_len: 88,
            queue_drops: 42,
        });
    }

    #[test]
    fn port_stats_request_is_compact() {
        // Polling cost matters for the in-band-vs-MDN comparison: request
        // is 10 bytes, reply 38.
        assert_eq!(
            OfMessage::PortStatsRequest { xid: 0, port: 0 }
                .encode()
                .unwrap()
                .len(),
            10
        );
        let reply = OfMessage::PortStatsReply {
            xid: 0,
            port: 0,
            tx_packets: 0,
            tx_bytes: 0,
            queue_len: 0,
            queue_drops: 0,
        };
        assert_eq!(reply.encode().unwrap().len(), 38);
    }

    #[test]
    fn as_rule_extracts_add_flow_mods() {
        let msg = OfMessage::FlowMod {
            xid: 1,
            command: FlowModCommand::Add,
            priority: 9,
            mat: Match::ANY,
            action: Action::Forward(1),
        };
        let rule = msg.as_rule().unwrap();
        assert_eq!(rule.priority, 9);
        assert_eq!(rule.action, Action::Forward(1));
        assert!(OfMessage::Hello { xid: 0 }.as_rule().is_none());
        let del = OfMessage::FlowMod {
            xid: 1,
            command: FlowModCommand::Delete,
            priority: 0,
            mat: Match::ANY,
            action: Action::Drop,
        };
        assert!(del.as_rule().is_none());
    }

    #[test]
    fn encode_rejects_oversize_bodies_at_the_boundary() {
        // 65527-byte payload: total length is exactly u16::MAX — legal.
        let max = OfMessage::EchoRequest {
            xid: 1,
            payload: vec![0xAB; OF_MAX_BODY],
        };
        let frame = max.encode().unwrap();
        assert_eq!(frame.len(), u16::MAX as usize);
        assert_eq!(OfMessage::decode(&frame).unwrap(), max);
        // One byte more and the u16 length field would wrap to 0: the
        // old code emitted that corrupt frame; now it's a typed error.
        let over = OfMessage::EchoRequest {
            xid: 1,
            payload: vec![0xAB; OF_MAX_BODY + 1],
        };
        assert_eq!(
            over.encode(),
            Err(WireError::Oversize {
                len: u16::MAX as usize + 1,
                max: u16::MAX as usize,
            })
        );
        // EchoReply shares the variable-length body path.
        let over_reply = OfMessage::EchoReply {
            xid: 2,
            payload: vec![0; OF_MAX_BODY + 100],
        };
        assert!(matches!(
            over_reply.encode(),
            Err(WireError::Oversize { .. })
        ));
    }

    #[test]
    fn rejects_wrong_version() {
        let mut bad = OfMessage::Hello { xid: 0 }.encode().unwrap();
        bad[0] = 0x04;
        assert_eq!(OfMessage::decode(&bad), Err(WireError::BadVersion(0x04)));
    }

    #[test]
    fn rejects_unknown_type() {
        let mut bad = OfMessage::Hello { xid: 0 }.encode().unwrap();
        bad[1] = 0x77;
        assert_eq!(OfMessage::decode(&bad), Err(WireError::UnknownType(0x77)));
    }

    #[test]
    fn rejects_length_lies() {
        let mut bad = OfMessage::Hello { xid: 0 }.encode().unwrap();
        bad[3] = 0xFF; // declared length far beyond the body
        let err = OfMessage::decode(&bad).unwrap_err();
        assert!(matches!(err, WireError::LengthMismatch { .. }));
    }

    #[test]
    fn trailing_body_bytes_report_the_real_counts() {
        // A Hello whose header declares 12 bytes: the length agrees with
        // the frame, but a Hello has no body, so 4 bytes are left over.
        let mut bad = OfMessage::Hello { xid: 0 }.encode().unwrap();
        bad.extend_from_slice(&[0xAB; 4]);
        bad[2..4].copy_from_slice(&12u16.to_be_bytes());
        let err = OfMessage::decode(&bad).unwrap_err();
        assert_eq!(err, WireError::TrailingBytes { end: 8, extra: 4 });
        assert_eq!(
            err.to_string(),
            "trailing bytes: message ends at byte 8, 4 more follow"
        );
    }

    #[test]
    fn rejects_empty_split_group() {
        let msg = OfMessage::FlowMod {
            xid: 1,
            command: FlowModCommand::Add,
            priority: 1,
            mat: Match::ANY,
            action: Action::SplitByFlow(vec![1]),
        };
        let mut bytes = msg.encode().unwrap();
        // Patch the group count (last 3 bytes are count+port): set count=0
        // and truncate the port, fixing the length field.
        let n = bytes.len();
        bytes[n - 3] = 0;
        bytes.truncate(n - 2);
        let total = bytes.len() as u16;
        bytes[2..4].copy_from_slice(&total.to_be_bytes());
        assert_eq!(
            OfMessage::decode(&bytes),
            Err(WireError::InvalidField("empty split group"))
        );
    }

    #[test]
    fn xid_accessor() {
        assert_eq!(OfMessage::Hello { xid: 77 }.xid(), 77);
    }
}
