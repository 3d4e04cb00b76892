//! In-memory control channels.
//!
//! Connects a controller to its switches the way the paper's TCP control
//! connection (or, for MP, the Ethernet port to the Pi) does — but in
//! memory, frame-by-frame, preserving the encode→decode path so wire bugs
//! can't hide. A [`ControlChannel`] is a pair of one-way frame queues; the
//! helpers apply decoded FlowMods to a live [`mdn_net::Network`].

use crate::faults::{DirectionFaults, FaultStats, FaultyQueue};
use crate::openflow::{FlowModCommand, OfMessage};
use crate::wire::WireError;
use mdn_net::ftable::FlowTable;
use mdn_net::network::Network;
use mdn_net::sim::NodeId;
use mdn_obs::{Counter, Registry};

/// A point-in-time snapshot of a [`ControlChannel`]'s frame accounting,
/// returned by [`ControlChannel::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Frames delivered controller → switch.
    pub frames_to_switch: u64,
    /// Frames delivered switch → controller.
    pub frames_to_controller: u64,
    /// Frames that failed to decode on the switch side.
    pub malformed_to_switch: u64,
    /// Frames that failed to decode on the controller side.
    pub malformed_to_controller: u64,
}

/// A bidirectional, in-memory, frame-oriented channel.
///
/// The two directions are named from the controller's perspective:
/// `send_to_switch` / `recv_from_switch`. Each direction is a
/// [`FaultyQueue`] — perfect by default, lossy/corrupting/reordering when
/// a [`DirectionFaults`] policy is attached via [`attach_faults`].
///
/// [`attach_faults`]: ControlChannel::attach_faults
#[derive(Debug, Default)]
pub struct ControlChannel {
    to_switch: FaultyQueue,
    to_controller: FaultyQueue,
    stats: ChannelStats,
    obs_frames_to_switch: Counter,
    obs_frames_to_controller: Counter,
    obs_malformed_to_switch: Counter,
    obs_malformed_to_controller: Counter,
}

impl ControlChannel {
    /// An empty, lossless channel.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register this channel's counters with an observability registry
    /// (`mdn_channel_frames_total{dir=...}` /
    /// `mdn_channel_malformed_total{dir=...}`). Counts accumulated before
    /// attachment are carried over.
    pub fn attach_obs(&mut self, registry: &Registry) {
        self.obs_frames_to_switch =
            registry.counter("mdn_channel_frames_total", &[("dir", "to_switch")]);
        self.obs_frames_to_controller =
            registry.counter("mdn_channel_frames_total", &[("dir", "to_controller")]);
        self.obs_malformed_to_switch =
            registry.counter("mdn_channel_malformed_total", &[("dir", "to_switch")]);
        self.obs_malformed_to_controller =
            registry.counter("mdn_channel_malformed_total", &[("dir", "to_controller")]);
        self.obs_frames_to_switch.add(self.stats.frames_to_switch);
        self.obs_frames_to_controller
            .add(self.stats.frames_to_controller);
        self.obs_malformed_to_switch
            .add(self.stats.malformed_to_switch);
        self.obs_malformed_to_controller
            .add(self.stats.malformed_to_controller);
    }

    /// Frame delivery and decode-failure accounting, both directions.
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// Attach per-direction fault policies. Per-direction RNG seeds are
    /// derived from `seed` (to-switch first, then to-controller), so one
    /// scenario seed fixes the whole fault pattern. Frames already queued
    /// are preserved.
    pub fn attach_faults(
        &mut self,
        seed: u64,
        to_switch: DirectionFaults,
        to_controller: DirectionFaults,
    ) {
        let mut root = mdn_obs::SplitMix64::new(seed);
        let sw_seed = root.next_u64();
        let ct_seed = root.next_u64();
        self.to_switch.set_faults(sw_seed, to_switch);
        self.to_controller.set_faults(ct_seed, to_controller);
    }

    /// Per-direction fault accounting `(to_switch, to_controller)`.
    pub fn fault_stats(&self) -> (FaultStats, FaultStats) {
        (self.to_switch.stats, self.to_controller.stats)
    }

    /// Controller → switch: enqueue an encoded message.
    ///
    /// # Panics
    /// Panics on an unencodable message (body past
    /// [`crate::openflow::OF_MAX_BODY`]); the in-memory channel has no
    /// error path to report it on. Socket transports surface the typed
    /// [`crate::wire::WireError::Oversize`] instead.
    pub fn send_to_switch(&mut self, msg: &OfMessage) {
        self.to_switch
            .push(msg.encode().expect("OF message exceeds u16 frame length"));
        self.stats.frames_to_switch += 1;
        self.obs_frames_to_switch.inc();
    }

    /// Switch → controller: enqueue an encoded message.
    ///
    /// # Panics
    /// Panics on an unencodable message, like
    /// [`ControlChannel::send_to_switch`].
    pub fn send_to_controller(&mut self, msg: &OfMessage) {
        self.to_controller
            .push(msg.encode().expect("OF message exceeds u16 frame length"));
        self.stats.frames_to_controller += 1;
        self.obs_frames_to_controller.inc();
    }

    /// Inject a raw (possibly garbage) frame toward the switch — a test
    /// hook for exercising the malformed-frame path.
    pub fn inject_to_switch(&mut self, frame: Vec<u8>) {
        self.to_switch.push(frame);
        self.stats.frames_to_switch += 1;
        self.obs_frames_to_switch.inc();
    }

    /// Inject a raw (possibly garbage) frame toward the controller.
    pub fn inject_to_controller(&mut self, frame: Vec<u8>) {
        self.to_controller.push(frame);
        self.stats.frames_to_controller += 1;
        self.obs_frames_to_controller.inc();
    }

    /// Switch side: dequeue and decode the next frame. A decode failure
    /// bumps [`ChannelStats::malformed_to_switch`] and still surfaces the
    /// error to the caller.
    pub fn recv_at_switch(&mut self) -> Option<Result<OfMessage, WireError>> {
        let decoded = self.to_switch.pop().map(|f| OfMessage::decode(&f));
        if matches!(decoded, Some(Err(_))) {
            self.stats.malformed_to_switch += 1;
            self.obs_malformed_to_switch.inc();
        }
        decoded
    }

    /// Controller side: dequeue and decode the next frame. A decode
    /// failure bumps [`ChannelStats::malformed_to_controller`] and still
    /// surfaces the error to the caller.
    pub fn recv_at_controller(&mut self) -> Option<Result<OfMessage, WireError>> {
        let decoded = self.to_controller.pop().map(|f| OfMessage::decode(&f));
        if matches!(decoded, Some(Err(_))) {
            self.stats.malformed_to_controller += 1;
            self.obs_malformed_to_controller.inc();
        }
        decoded
    }

    /// Frames waiting on the switch side (excluding delay-held frames).
    pub fn pending_at_switch(&self) -> usize {
        self.to_switch.len()
    }

    /// Frames waiting on the controller side (excluding delay-held
    /// frames).
    pub fn pending_at_controller(&self) -> usize {
        self.to_controller.len()
    }
}

/// Apply a decoded control message to a switch's flow table, as the
/// switch's OpenFlow agent would. Returns `true` if the table changed
/// (an Add installed, or a Delete removed at least one rule).
pub fn apply_at_switch(table: &mut FlowTable, msg: &OfMessage) -> bool {
    match msg {
        OfMessage::FlowMod {
            command: FlowModCommand::Add,
            ..
        } => {
            table.install(msg.as_rule().expect("Add FlowMod converts to a rule"));
            true
        }
        OfMessage::FlowMod {
            command: FlowModCommand::Delete,
            mat,
            ..
        } => table.remove(mat) > 0,
        // Hello/Echo/PacketIn/PortStatus don't mutate forwarding state.
        _ => false,
    }
}

/// Drain every frame queued for the switch, decoding and applying each.
/// Returns how many messages changed state.
///
/// Malformed frames (possible once corruption faults are attached) are
/// skipped; [`ControlChannel::recv_at_switch`] has already counted them
/// in `malformed_to_switch`.
pub fn pump_to_switch(chan: &mut ControlChannel, net: &mut Network, switch: NodeId) -> usize {
    let mut changed = 0;
    while let Some(frame) = chan.recv_at_switch() {
        let Ok(msg) = frame else { continue };
        if apply_at_switch(&mut net.switch_mut(switch).table, &msg) {
            changed += 1;
        }
    }
    changed
}

/// Service every frame queued for the switch like [`pump_to_switch`], but
/// additionally answer `PortStatsRequest`s with `PortStatsReply`s built
/// from the live switch state — the in-band polling loop that MDN's queue
/// tones replace — and `EchoRequest`s with `EchoReply`s (the liveness
/// probes [`EchoMonitor`](crate::reliable::EchoMonitor) sends). Returns
/// `(state_changes, replies)` where `replies` counts both kinds.
///
/// Malformed frames are skipped (counted in `malformed_to_switch`).
pub fn service_switch(
    chan: &mut ControlChannel,
    net: &mut Network,
    switch: NodeId,
) -> (usize, usize) {
    let mut changed = 0;
    let mut replies = 0;
    while let Some(frame) = chan.recv_at_switch() {
        let Ok(msg) = frame else { continue };
        match &msg {
            OfMessage::EchoRequest { xid, payload } => {
                chan.send_to_controller(&OfMessage::EchoReply {
                    xid: *xid,
                    payload: payload.clone(),
                });
                replies += 1;
            }
            OfMessage::PortStatsRequest { xid, port } => {
                let s = net.switch(switch);
                let p = &s.ports[*port as usize];
                let reply = OfMessage::PortStatsReply {
                    xid: *xid,
                    port: *port,
                    tx_packets: p.queue.accepted,
                    tx_bytes: p.queue.accepted_bytes,
                    queue_len: p.queue.len() as u32,
                    queue_drops: p.queue.dropped,
                };
                chan.send_to_controller(&reply);
                replies += 1;
            }
            _ => {
                if apply_at_switch(&mut net.switch_mut(switch).table, &msg) {
                    changed += 1;
                }
            }
        }
    }
    (changed, replies)
}

/// Drain the switch's table-miss outbox (populated under
/// `MissPolicy::PacketIn`) into the channel as encoded PacketIn messages —
/// the switch's OpenFlow agent shipping misses to the controller. Returns
/// how many were sent; `xid` increments per message starting at
/// `first_xid`.
pub fn ship_packet_ins(
    chan: &mut ControlChannel,
    net: &mut Network,
    switch: NodeId,
    first_xid: u32,
) -> usize {
    use crate::openflow::PacketInReason;
    let records = std::mem::take(&mut net.switch_mut(switch).miss_outbox);
    let n = records.len();
    for (i, rec) in records.into_iter().enumerate() {
        chan.send_to_controller(&OfMessage::PacketIn {
            xid: first_xid.wrapping_add(i as u32),
            in_port: rec.in_port as u16,
            flow: rec.flow,
            total_len: rec.total_len.min(u16::MAX as u32) as u16,
            reason: PacketInReason::NoMatch,
        });
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdn_net::ftable::{Action, Decision, Match};
    use mdn_net::packet::{FlowKey, Ip};

    fn flow() -> FlowKey {
        FlowKey::tcp(Ip::v4(10, 0, 0, 1), 1111, Ip::v4(10, 0, 0, 2), 80)
    }

    #[test]
    fn channel_preserves_order_and_content() {
        let mut chan = ControlChannel::new();
        chan.send_to_switch(&OfMessage::Hello { xid: 1 });
        chan.send_to_switch(&OfMessage::Hello { xid: 2 });
        assert_eq!(chan.pending_at_switch(), 2);
        assert_eq!(chan.recv_at_switch().unwrap().unwrap().xid(), 1);
        assert_eq!(chan.recv_at_switch().unwrap().unwrap().xid(), 2);
        assert!(chan.recv_at_switch().is_none());
        assert_eq!(chan.stats().frames_to_switch, 2);
    }

    #[test]
    fn directions_are_independent() {
        let mut chan = ControlChannel::new();
        chan.send_to_controller(&OfMessage::Hello { xid: 9 });
        assert_eq!(chan.pending_at_switch(), 0);
        assert_eq!(chan.pending_at_controller(), 1);
        assert_eq!(chan.recv_at_controller().unwrap().unwrap().xid(), 9);
    }

    #[test]
    fn flow_mod_add_installs_through_the_wire() {
        let mut net = Network::new();
        let s = net.add_switch("s1", 4);
        let mut chan = ControlChannel::new();
        chan.send_to_switch(&OfMessage::FlowMod {
            xid: 1,
            command: FlowModCommand::Add,
            priority: 5,
            mat: Match::dst_transport_port(80),
            action: Action::Forward(2),
        });
        assert_eq!(pump_to_switch(&mut chan, &mut net, s), 1);
        assert_eq!(
            net.switch_mut(s).table.lookup(0, &flow()),
            Decision::Forward(2)
        );
    }

    #[test]
    fn flow_mod_delete_removes_through_the_wire() {
        let mut net = Network::new();
        let s = net.add_switch("s1", 4);
        let mat = Match::dst_transport_port(80);
        let mut chan = ControlChannel::new();
        chan.send_to_switch(&OfMessage::FlowMod {
            xid: 1,
            command: FlowModCommand::Add,
            priority: 5,
            mat,
            action: Action::Forward(2),
        });
        chan.send_to_switch(&OfMessage::FlowMod {
            xid: 2,
            command: FlowModCommand::Delete,
            priority: 0,
            mat,
            action: Action::Drop,
        });
        assert_eq!(pump_to_switch(&mut chan, &mut net, s), 2);
        assert_eq!(net.switch_mut(s).table.lookup(0, &flow()), Decision::Miss);
    }

    #[test]
    fn non_mutating_messages_report_false() {
        let mut table = FlowTable::new();
        assert!(!apply_at_switch(&mut table, &OfMessage::Hello { xid: 0 }));
        assert!(!apply_at_switch(
            &mut table,
            &OfMessage::EchoRequest {
                xid: 0,
                payload: Vec::new()
            }
        ));
    }

    #[test]
    fn service_switch_answers_stats_requests() {
        let mut net = Network::new();
        let s = net.add_switch("s1", 2);
        // Put something in a queue so the counters are non-trivial.
        let mut pkt_flow = flow();
        pkt_flow.dst_port = 99;
        net.switch_mut(s).ports[1]
            .queue
            .enqueue(mdn_net::packet::Packet::new(
                pkt_flow,
                700,
                0,
                std::time::Duration::ZERO,
            ));
        let mut chan = ControlChannel::new();
        chan.send_to_switch(&OfMessage::PortStatsRequest { xid: 5, port: 1 });
        // A FlowMod in the same batch still applies.
        chan.send_to_switch(&OfMessage::FlowMod {
            xid: 6,
            command: FlowModCommand::Add,
            priority: 1,
            mat: Match::ANY,
            action: Action::Forward(1),
        });
        let (changed, replies) = service_switch(&mut chan, &mut net, s);
        assert_eq!((changed, replies), (1, 1));
        match chan.recv_at_controller().unwrap().unwrap() {
            OfMessage::PortStatsReply {
                xid,
                port,
                tx_packets,
                tx_bytes,
                queue_len,
                queue_drops,
            } => {
                assert_eq!((xid, port), (5, 1));
                assert_eq!(tx_packets, 1);
                assert_eq!(tx_bytes, 700);
                assert_eq!(queue_len, 1);
                assert_eq!(queue_drops, 0);
            }
            other => panic!("expected stats reply, got {other:?}"),
        }
    }

    #[test]
    fn ship_packet_ins_moves_misses_to_controller() {
        use mdn_net::node::{MissPolicy, MissRecord};
        let mut net = Network::new();
        let s = net.add_switch("s1", 2);
        net.set_miss_policy(s, MissPolicy::PacketIn);
        // Simulate two recorded misses.
        for k in 0..2u16 {
            net.switch_mut(s).miss_outbox.push(MissRecord {
                at: std::time::Duration::from_millis(k as u64),
                in_port: 0,
                flow: FlowKey::tcp(Ip::v4(10, 0, 0, 1), 1000 + k, Ip::v4(10, 0, 0, 2), 80),
                total_len: 100,
            });
        }
        let mut chan = ControlChannel::new();
        assert_eq!(ship_packet_ins(&mut chan, &mut net, s, 100), 2);
        assert!(net.switch(s).miss_outbox.is_empty(), "outbox should drain");
        assert_eq!(chan.pending_at_controller(), 2);
        let first = chan.recv_at_controller().unwrap().unwrap();
        match first {
            OfMessage::PacketIn { xid, flow, .. } => {
                assert_eq!(xid, 100);
                assert_eq!(flow.src_port, 1000);
            }
            other => panic!("expected PacketIn, got {other:?}"),
        }
    }

    #[test]
    fn malformed_frames_are_counted_and_skipped() {
        let mut net = Network::new();
        let s = net.add_switch("s1", 2);
        let mut chan = ControlChannel::new();
        chan.inject_to_switch(vec![0xFF, 0xEE, 0xDD]);
        chan.send_to_switch(&OfMessage::FlowMod {
            xid: 1,
            command: FlowModCommand::Add,
            priority: 1,
            mat: Match::ANY,
            action: Action::Forward(1),
        });
        // The garbage frame is skipped, the FlowMod still applies.
        assert_eq!(pump_to_switch(&mut chan, &mut net, s), 1);
        assert_eq!(chan.stats().malformed_to_switch, 1);
        assert_eq!(chan.stats().malformed_to_controller, 0);

        chan.inject_to_controller(vec![0x00]);
        assert!(chan.recv_at_controller().unwrap().is_err());
        assert_eq!(chan.stats().malformed_to_controller, 1);
    }

    #[test]
    fn service_switch_answers_echo_requests() {
        let mut net = Network::new();
        let s = net.add_switch("s1", 2);
        let mut chan = ControlChannel::new();
        chan.send_to_switch(&OfMessage::EchoRequest {
            xid: 42,
            payload: b"ping".to_vec(),
        });
        let (changed, replies) = service_switch(&mut chan, &mut net, s);
        assert_eq!((changed, replies), (0, 1));
        match chan.recv_at_controller().unwrap().unwrap() {
            OfMessage::EchoReply { xid, payload } => {
                assert_eq!(xid, 42);
                assert_eq!(&payload[..], b"ping");
            }
            other => panic!("expected echo reply, got {other:?}"),
        }
    }

    #[test]
    fn attached_drop_faults_lose_frames_deterministically() {
        use crate::faults::DirectionFaults;
        let run = |seed: u64| {
            let mut chan = ControlChannel::new();
            chan.attach_faults(
                seed,
                DirectionFaults::none().drop(0.5),
                DirectionFaults::none(),
            );
            for xid in 0..20 {
                chan.send_to_switch(&OfMessage::Hello { xid });
            }
            let mut got = Vec::new();
            while let Some(Ok(msg)) = chan.recv_at_switch() {
                got.push(msg.xid());
            }
            let (sw, _) = chan.fault_stats();
            (got, sw.dropped)
        };
        let (got_a, dropped_a) = run(7);
        let (got_b, dropped_b) = run(7);
        assert_eq!(got_a, got_b, "same seed, same survivors");
        assert_eq!(dropped_a, dropped_b);
        assert!(dropped_a > 0, "seed 7 must drop something at p=0.5");
        assert_eq!(got_a.len() as u64 + dropped_a, 20);
    }

    #[test]
    fn attach_obs_mirrors_stats_and_carries_over_prior_counts() {
        let mut chan = ControlChannel::new();
        // Traffic before attachment must be carried into the registry.
        chan.send_to_switch(&OfMessage::Hello { xid: 1 });
        chan.inject_to_controller(vec![0x00]);
        let _ = chan.recv_at_controller();

        let reg = mdn_obs::Registry::new();
        chan.attach_obs(&reg);
        chan.send_to_switch(&OfMessage::Hello { xid: 2 });
        chan.send_to_controller(&OfMessage::Hello { xid: 3 });

        let snap = reg.snapshot();
        let stats = chan.stats();
        assert_eq!(stats.frames_to_switch, 2);
        assert_eq!(
            snap.counters["mdn_channel_frames_total{dir=\"to_switch\"}"],
            stats.frames_to_switch
        );
        assert_eq!(
            snap.counters["mdn_channel_frames_total{dir=\"to_controller\"}"],
            stats.frames_to_controller
        );
        assert_eq!(
            snap.counters["mdn_channel_malformed_total{dir=\"to_controller\"}"],
            stats.malformed_to_controller
        );
    }

    #[test]
    fn delete_of_absent_rule_reports_false() {
        let msg = OfMessage::FlowMod {
            xid: 1,
            command: FlowModCommand::Delete,
            priority: 0,
            mat: Match::ANY,
            action: Action::Drop,
        };
        assert!(!apply_at_switch(&mut FlowTable::new(), &msg));
    }
}
