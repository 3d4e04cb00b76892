//! In-memory control channels.
//!
//! Connects a controller to its switches the way the paper's TCP control
//! connection (or, for MP, the Ethernet port to the Pi) does — but in
//! memory, frame-by-frame, preserving the encode→decode path so wire bugs
//! can't hide. A [`ControlChannel`] is a pair of one-way frame queues; the
//! helpers apply decoded FlowMods to a live [`mdn_net::Network`].

use crate::openflow::{FlowModCommand, OfMessage};
use crate::wire::WireError;
use mdn_net::ftable::FlowTable;
use mdn_net::network::Network;
use mdn_net::sim::NodeId;
use mdn_obs::{Counter, Registry};
use std::collections::VecDeque;

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
/// `send_to_switch` / `recv_from_switch`. Each direction is a lossless
/// FIFO of encoded frames.
#[derive(Debug, Default)]
pub struct ControlChannel {
    to_switch: VecDeque<Vec<u8>>,
    to_controller: VecDeque<Vec<u8>>,
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

    /// Controller → switch: enqueue an encoded message.
    ///
    /// # Panics
    /// Panics on an unencodable message (body past
    /// [`crate::openflow::OF_MAX_BODY`]); the in-memory channel has no
    /// error path to report it on. Socket transports surface the typed
    /// [`crate::wire::WireError::Oversize`] instead.
    #[allow(
        clippy::expect_used,
        reason = "documented panic: the in-memory channel has no error path"
    )]
    pub fn send_to_switch(&mut self, msg: &OfMessage) {
        self.to_switch
            .push_back(msg.encode().expect("OF message exceeds u16 frame length"));
        self.stats.frames_to_switch += 1;
        self.obs_frames_to_switch.inc();
    }

    /// Switch → controller: enqueue an encoded message.
    ///
    /// # Panics
    /// Panics on an unencodable message, like
    /// [`ControlChannel::send_to_switch`].
    #[allow(
        clippy::expect_used,
        reason = "documented panic: the in-memory channel has no error path"
    )]
    pub fn send_to_controller(&mut self, msg: &OfMessage) {
        self.to_controller
            .push_back(msg.encode().expect("OF message exceeds u16 frame length"));
        self.stats.frames_to_controller += 1;
        self.obs_frames_to_controller.inc();
    }

    /// Inject a raw (possibly garbage) frame toward the switch — a test
    /// hook for exercising the malformed-frame path.
    pub fn inject_to_switch(&mut self, frame: Vec<u8>) {
        self.to_switch.push_back(frame);
        self.stats.frames_to_switch += 1;
        self.obs_frames_to_switch.inc();
    }

    /// Inject a raw (possibly garbage) frame toward the controller.
    pub fn inject_to_controller(&mut self, frame: Vec<u8>) {
        self.to_controller.push_back(frame);
        self.stats.frames_to_controller += 1;
        self.obs_frames_to_controller.inc();
    }

    /// Switch side: dequeue and decode the next frame. A decode failure
    /// bumps [`ChannelStats::malformed_to_switch`] and still surfaces the
    /// error to the caller.
    pub fn recv_at_switch(&mut self) -> Option<Result<OfMessage, WireError>> {
        let decoded = self.to_switch.pop_front().map(|f| OfMessage::decode(&f));
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
        let decoded = self
            .to_controller
            .pop_front()
            .map(|f| OfMessage::decode(&f));
        if matches!(decoded, Some(Err(_))) {
            self.stats.malformed_to_controller += 1;
            self.obs_malformed_to_controller.inc();
        }
        decoded
    }
}

/// Apply a decoded control message to a switch's flow table, as the
/// switch's OpenFlow agent would. Returns `true` if the table changed
/// (an Add installed, or a Delete removed at least one rule).
pub fn apply_at_switch(table: &mut FlowTable, msg: &OfMessage) -> bool {
    // Exactly an Add FlowMod converts to a rule.
    if let Some(rule) = msg.as_rule() {
        table.install(rule);
        return true;
    }
    match msg {
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
/// Malformed frames (injected with [`ControlChannel::inject_to_switch`])
/// are skipped; [`ControlChannel::recv_at_switch`] has already counted
/// them in `malformed_to_switch`.
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
        assert_eq!(chan.recv_at_switch().unwrap().unwrap().xid(), 1);
        assert_eq!(chan.recv_at_switch().unwrap().unwrap().xid(), 2);
        assert!(chan.recv_at_switch().is_none());
        assert_eq!(chan.stats().frames_to_switch, 2);
    }

    #[test]
    fn directions_are_independent() {
        let mut chan = ControlChannel::new();
        chan.send_to_controller(&OfMessage::Hello { xid: 9 });
        assert!(chan.recv_at_switch().is_none());
        assert_eq!(chan.recv_at_controller().unwrap().unwrap().xid(), 9);
        assert!(chan.recv_at_controller().is_none());
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
        assert_eq!(chan.stats().frames_to_controller, 2);
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
