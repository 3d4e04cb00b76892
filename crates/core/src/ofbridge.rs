//! Program simulated switches with the OpenFlow controller, in-process.
//!
//! The controller side of a connection is `mdn-proto`'s sans-IO
//! [`Session`]. It has two transports: TCP for real switches
//! (`ControllerServer`), and an in-memory [`ControlChannel`] for the
//! simulation. An [`OfAgent`] is the second one for one switch: it ships
//! the switch's queued table misses up the channel as encoded
//! `PacketIn`s, steps the session on each decoded frame, and applies the
//! `FlowMod`s that come back to the switch's live flow table. Every
//! message crosses the encode→decode path, as on the wire, but no socket
//! or thread is involved, so a `UnifiedLoop`-driven simulation is
//! programmed deterministically, the way the paper's Zodiac FX switches
//! were.
//!
//! Pump agents from `Step::App` tokens (see
//! `examples/of_controller.rs`): schedule a token per control interval,
//! call [`OfAgent::pump`] when it fires, and re-arm.

use mdn_net::{Network, NodeId};
use mdn_obs::Registry;
use mdn_proto::channel::{pump_to_switch, ship_packet_ins, ControlChannel};
use mdn_proto::controller::{ControllerApp, ControllerStats, Ledger, Session, SessionError};
use mdn_proto::openflow::OfMessage;

/// What one [`OfAgent::pump`] call moved across the channel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PumpReport {
    /// Table misses shipped up as `PacketIn`s.
    pub packet_ins: u64,
    /// `FlowMod`s that changed the switch's table.
    pub flow_mods: u64,
}

/// One simulated switch's control connection to an in-process
/// controller [`Session`].
#[derive(Debug)]
pub struct OfAgent {
    /// The switch this agent fronts.
    pub switch: NodeId,
    session: Session,
    chan: ControlChannel,
    ledger: Ledger,
    next_xid: u32,
}

impl OfAgent {
    /// Connect `switch` to a controller session running `app`. Both
    /// Hellos are queued on the channel and cross at the first
    /// [`OfAgent::pump`]. The switch's miss policy flips to `PacketIn`,
    /// so misses queue for the pump instead of being dropped silently.
    pub fn attach(net: &mut Network, switch: NodeId, app: Box<dyn ControllerApp>) -> Self {
        let ledger = Ledger::new(&Registry::disabled());
        let (session, hello) = Session::open(0, app, &ledger);
        let mut chan = ControlChannel::new();
        chan.send_to_switch(&hello);
        chan.send_to_controller(&OfMessage::Hello { xid: 1 });
        net.set_miss_policy(switch, mdn_net::node::MissPolicy::PacketIn);
        Self {
            switch,
            session,
            chan,
            ledger,
            next_xid: 2,
        }
    }

    /// One control-plane exchange: drain the switch's `miss_outbox` up
    /// to the controller as `PacketIn`s, step the session on everything
    /// queued for it, and apply what comes back to the switch's table
    /// (`pump_to_switch`).
    pub fn pump(&mut self, net: &mut Network) -> Result<PumpReport, SessionError> {
        let shipped = ship_packet_ins(&mut self.chan, net, self.switch, self.next_xid);
        self.next_xid = self.next_xid.wrapping_add(shipped as u32);
        while let Some(frame) = self.chan.recv_at_controller() {
            for reply in self.session.on_decoded(frame)? {
                self.chan.send_to_switch(&reply);
            }
        }
        Ok(PumpReport {
            packet_ins: shipped as u64,
            flow_mods: pump_to_switch(&mut self.chan, net, self.switch) as u64,
        })
    }

    /// The controller's connection-plane counters for this switch:
    /// `packet_ins_rx` are the misses shipped, `flow_mods_tx` the
    /// `FlowMod`s applied.
    pub fn stats(&self) -> ControllerStats {
        self.ledger.stats()
    }
}
