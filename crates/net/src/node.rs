//! Nodes: hosts and switches.

use crate::ftable::{FlowTable, PortId};
use crate::link::Wire;
use crate::packet::{FlowKey, Ip, Packet};
use crate::queue::PacketQueue;
use crate::traffic::Generator;
use std::time::Duration;

/// Default per-port queue capacity for switches, in packets. 100 puts the
/// paper's 25/75-packet tone thresholds at 25% / 75% occupancy.
pub const DEFAULT_SWITCH_QUEUE: usize = 100;

/// Default host egress queue capacity (generous; hosts model their own
/// buffering).
pub const DEFAULT_HOST_QUEUE: usize = 10_000;

/// Transmit state of one port.
#[derive(Debug, Clone)]
pub struct PortState {
    /// The egress queue feeding the transmitter.
    pub queue: PacketQueue,
    /// True while a packet is being serialized onto the wire.
    pub busy: bool,
    /// The link wired to this port, set by `Network::connect`.
    pub(crate) wire: Option<Wire>,
}

impl PortState {
    /// A port with the given egress queue capacity.
    pub fn new(queue_capacity: usize) -> Self {
        Self {
            queue: PacketQueue::new(queue_capacity),
            busy: false,
            wire: None,
        }
    }
}

/// What a switch does with a packet that matches no rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissPolicy {
    /// Drop it (the secure default; port knocking relies on this).
    Drop,
    /// Flood it out every port except the ingress (learning-switch-ish).
    Flood,
    /// Drop it, but queue a PacketIn summary in the switch's control-plane
    /// outbox for the controller (classic reactive OpenFlow).
    PacketIn,
}

/// A table-miss summary queued for the controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MissRecord {
    /// When the miss happened.
    pub at: Duration,
    /// Ingress port.
    pub in_port: PortId,
    /// The packet's flow.
    pub flow: FlowKey,
    /// The packet's on-wire size.
    pub total_len: u32,
}

/// One record in a switch's receive tap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TapRecord {
    /// Arrival time.
    pub at: Duration,
    /// Ingress port.
    pub in_port: PortId,
    /// The packet's flow.
    pub flow: FlowKey,
}

/// A switch: ports with queues, plus a flow table.
#[derive(Debug, Clone)]
pub struct SwitchNode {
    /// Human-readable name.
    pub name: String,
    /// The match-action table.
    pub table: FlowTable,
    /// Per-port transmit state.
    pub ports: Vec<PortState>,
    /// Behaviour on table miss.
    pub miss_policy: MissPolicy,
    /// Packets received (pre-lookup).
    pub rx_packets: u64,
    /// Packets dropped by a Drop rule or the Drop miss policy.
    pub policy_drops: u64,
    /// Optional per-packet receive tap (off by default; enables the
    /// "switch plays a sound per packet" telemetry couplings of §5).
    pub tap: Option<Vec<TapRecord>>,
    /// Control-plane outbox: table-miss summaries awaiting the controller
    /// (populated under [`MissPolicy::PacketIn`]).
    pub miss_outbox: Vec<MissRecord>,
    /// True while the switch is crashed: it black-holes every packet and
    /// its flow table has been wiped. Set via `Network::crash_switch`.
    pub crashed: bool,
}

impl SwitchNode {
    /// A switch with `num_ports` ports of `queue_capacity` packets each.
    pub fn new(name: impl Into<String>, num_ports: usize, queue_capacity: usize) -> Self {
        Self {
            name: name.into(),
            table: FlowTable::new(),
            ports: (0..num_ports)
                .map(|_| PortState::new(queue_capacity))
                .collect(),
            miss_policy: MissPolicy::Drop,
            rx_packets: 0,
            policy_drops: 0,
            tap: None,
            miss_outbox: Vec::new(),
            crashed: false,
        }
    }

    /// Start recording every received packet into the tap.
    pub fn enable_tap(&mut self) {
        self.tap.get_or_insert_with(Vec::new);
    }

    /// Occupancy of port `p`'s queue, in packets — the quantity §6
    /// sonifies.
    pub fn queue_len(&self, p: PortId) -> usize {
        self.ports[p].queue.len()
    }

    /// Total packets dropped at full queues across all ports.
    pub fn queue_drops(&self) -> u64 {
        self.ports.iter().map(|p| p.queue.dropped).sum()
    }
}

/// One received-packet record in a host's log.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RxRecord {
    /// Arrival time.
    pub at: Duration,
    /// On-wire size.
    pub size_bytes: u32,
    /// The packet's flow.
    pub flow: FlowKey,
}

/// A host: one port, traffic generators, receive accounting.
#[derive(Debug, Clone)]
pub struct HostNode {
    /// Human-readable name.
    pub name: String,
    /// The host's address.
    pub ip: Ip,
    /// The single NIC port (port 0).
    pub port: PortState,
    /// Attached traffic generators.
    pub generators: Vec<Generator>,
    /// Packets received.
    pub rx_packets: u64,
    /// Bytes received.
    pub rx_bytes: u64,
    /// Packets transmitted (handed to the NIC queue).
    pub tx_packets: u64,
    /// Bytes transmitted.
    pub tx_bytes: u64,
    /// Per-packet receive log, for time-series plots (Figure 3a). Empty
    /// unless [`enable_rx_log`](Self::enable_rx_log) was called, like a
    /// switch's [`tap`](SwitchNode::tap): a logging host keeps one record
    /// per delivered packet for the whole run, so only the hosts a
    /// per-packet series is read from turn it on. `rx_packets` and
    /// `rx_bytes` count every delivery either way.
    pub rx_log: Vec<RxRecord>,
    /// Whether [`record_rx`](Self::record_rx) appends to `rx_log`.
    logs_rx: bool,
}

impl HostNode {
    /// A host with the default egress queue.
    pub fn new(name: impl Into<String>, ip: Ip) -> Self {
        Self {
            name: name.into(),
            ip,
            port: PortState::new(DEFAULT_HOST_QUEUE),
            generators: Vec::new(),
            rx_packets: 0,
            rx_bytes: 0,
            tx_packets: 0,
            tx_bytes: 0,
            rx_log: Vec::new(),
            logs_rx: false,
        }
    }

    /// Start recording every delivered packet into
    /// [`rx_log`](Self::rx_log). Deliveries before the call are counted
    /// but not logged.
    pub fn enable_rx_log(&mut self) {
        self.logs_rx = true;
    }

    /// Record a delivery.
    pub fn record_rx(&mut self, packet: &Packet, at: Duration) {
        self.rx_packets += 1;
        self.rx_bytes += packet.size_bytes as u64;
        if self.logs_rx {
            self.rx_log.push(RxRecord {
                at,
                size_bytes: packet.size_bytes,
                flow: packet.flow,
            });
        }
    }

    /// Bytes received in the half-open interval `[from, to)`, read from
    /// the receive log.
    ///
    /// # Panics
    /// Panics if the host's log was never enabled: without it every
    /// interval would read zero.
    pub fn rx_bytes_between(&self, from: Duration, to: Duration) -> u64 {
        assert!(
            self.logs_rx,
            "host `{}` keeps no receive log; call enable_rx_log before the traffic",
            self.name
        );
        self.rx_log
            .iter()
            .filter(|r| r.at >= from && r.at < to)
            .map(|r| r.size_bytes as u64)
            .sum()
    }
}

/// A node in the network.
#[derive(Debug, Clone)]
pub enum Node {
    /// An end host.
    Host(HostNode),
    /// A switch.
    Switch(SwitchNode),
}

impl Node {
    /// The node's name.
    pub fn name(&self) -> &str {
        match self {
            Node::Host(h) => &h.name,
            Node::Switch(s) => &s.name,
        }
    }

    /// Number of ports.
    pub fn num_ports(&self) -> usize {
        match self {
            Node::Host(_) => 1,
            Node::Switch(s) => s.ports.len(),
        }
    }

    /// The transmit state of every port, in port order.
    pub(crate) fn ports(&self) -> &[PortState] {
        match self {
            Node::Host(h) => std::slice::from_ref(&h.port),
            Node::Switch(s) => &s.ports,
        }
    }

    /// The transmit state of port `p`.
    pub fn port_mut(&mut self, p: PortId) -> &mut PortState {
        match self {
            Node::Host(h) => {
                assert_eq!(p, 0, "hosts have a single port");
                &mut h.port
            }
            Node::Switch(s) => &mut s.ports[p],
        }
    }

    /// Immutable view of port `p`.
    pub fn port(&self, p: PortId) -> &PortState {
        match self {
            Node::Host(h) => {
                assert_eq!(p, 0, "hosts have a single port");
                &h.port
            }
            Node::Switch(s) => &s.ports[p],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::FlowKey;

    fn pkt(size: u32, at_ms: u64) -> (Packet, Duration) {
        let flow = FlowKey::tcp(Ip::v4(10, 0, 0, 1), 1, Ip::v4(10, 0, 0, 2), 80);
        (
            Packet::new(flow, size, 0, Duration::ZERO),
            Duration::from_millis(at_ms),
        )
    }

    #[test]
    fn host_rx_accounting() {
        let mut h = HostNode::new("h1", Ip::v4(10, 0, 0, 1));
        let (p, t) = pkt(1000, 100);
        h.record_rx(&p, t);
        assert_eq!((h.rx_packets, h.rx_bytes), (1, 1000));
        assert!(h.rx_log.is_empty(), "the log is off by default");
        h.enable_rx_log();
        let (p, t) = pkt(500, 200);
        h.record_rx(&p, t);
        assert_eq!(h.rx_packets, 2);
        assert_eq!(h.rx_bytes, 1500);
        assert_eq!(
            h.rx_log,
            [RxRecord {
                at: t,
                size_bytes: 500,
                flow: p.flow,
            }]
        );
    }

    #[test]
    #[should_panic(expected = "host `h1` keeps no receive log")]
    fn rx_bytes_between_needs_the_log() {
        let mut h = HostNode::new("h1", Ip::v4(10, 0, 0, 1));
        let (p, t) = pkt(100, 100);
        h.record_rx(&p, t);
        h.rx_bytes_between(Duration::ZERO, Duration::from_secs(1));
    }

    #[test]
    fn rx_bytes_between_is_half_open() {
        let mut h = HostNode::new("h1", Ip::v4(10, 0, 0, 1));
        h.enable_rx_log();
        for (size, at) in [(100, 100u64), (200, 200), (300, 300)] {
            let (p, t) = pkt(size, at);
            h.record_rx(&p, t);
        }
        assert_eq!(
            h.rx_bytes_between(Duration::from_millis(100), Duration::from_millis(300)),
            300
        );
        assert_eq!(
            h.rx_bytes_between(Duration::ZERO, Duration::from_secs(1)),
            600
        );
        assert_eq!(
            h.rx_bytes_between(Duration::from_millis(400), Duration::from_secs(1)),
            0
        );
    }

    #[test]
    fn switch_queue_len_reports_occupancy() {
        let mut s = SwitchNode::new("s1", 4, 10);
        assert_eq!(s.queue_len(2), 0);
        let (p, _) = pkt(100, 0);
        s.ports[2].queue.enqueue(p);
        assert_eq!(s.queue_len(2), 1);
    }

    #[test]
    #[should_panic(expected = "single port")]
    fn host_port_index_checked() {
        let mut n = Node::Host(HostNode::new("h", Ip::v4(1, 1, 1, 1)));
        n.port_mut(1);
    }

    #[test]
    fn node_name_and_ports() {
        let h = Node::Host(HostNode::new("h1", Ip::v4(1, 1, 1, 1)));
        let s = Node::Switch(SwitchNode::new("s1", 8, 10));
        assert_eq!(h.name(), "h1");
        assert_eq!(h.num_ports(), 1);
        assert_eq!(s.num_ports(), 8);
    }
}
