//! The full MDN stack in one test: a network event becomes a tone, the
//! tone crosses simulated air into a microphone, the controller decodes it,
//! and the resulting FlowMod — marshaled through the real OpenFlow wire
//! format — changes what the switch forwards.

use mdn_acoustics::Window;
use mdn_acoustics::{medium::Pos, mic::Microphone, scene::Scene};
use mdn_core::controller::MdnController;
use mdn_core::encoder::SoundingDevice;
use mdn_core::freqplan::FrequencyPlan;
use mdn_net::ftable::{Action, Match};
use mdn_net::network::Network;
use mdn_net::packet::{FlowKey, Ip};
use mdn_net::topology;
use mdn_net::traffic::TrafficPattern;
use mdn_proto::channel::{pump_to_switch, ControlChannel};
use mdn_proto::openflow::{FlowModCommand, OfMessage};
use std::time::Duration;

const SR: u32 = 44_100;

/// A tone heard by the controller opens a blocked path.
#[test]
fn tone_triggers_flowmod_that_opens_forwarding() {
    // Network: blocked by default.
    let mut net = Network::new();
    let topo = topology::line(&mut net, 10_000_000, Duration::from_micros(50));
    let flow = FlowKey::udp(Ip::v4(10, 0, 0, 1), 5000, Ip::v4(10, 0, 0, 2), 6000);
    net.attach_generator(
        topo.h1,
        TrafficPattern::Cbr {
            flow,
            pps: 100.0,
            size: 500,
            start: Duration::ZERO,
            stop: Duration::from_secs(2),
        },
    );

    // Acoustics: the switch signals "open me" on slot 1.
    let mut plan = FrequencyPlan::audible_default();
    let set = plan.allocate("s1", 2).unwrap();
    let mut scene = Scene::quiet(SR);
    let mut device = SoundingDevice::new("s1", set.clone(), Pos::ORIGIN);
    let mut ctl = MdnController::new(Microphone::measurement(), Pos::new(0.4, 0.0, 0.0));
    ctl.bind_device("s1", set);
    device
        .emit(&mut scene, 1, Duration::from_millis(100))
        .unwrap();

    // Controller hears it and reacts with a FlowMod over the wire.
    let events = ctl.listen(&scene, Window::from_start(Duration::from_millis(400)));
    assert!(
        events.iter().any(|e| e.device == "s1" && e.slot == 1),
        "{events:?}"
    );
    let mut chan = ControlChannel::new();
    chan.send_to_switch(&OfMessage::FlowMod {
        xid: 1,
        command: FlowModCommand::Add,
        priority: 10,
        mat: Match::dst(Ip::v4(10, 0, 0, 2)),
        action: Action::Forward(1),
    });
    assert_eq!(pump_to_switch(&mut chan, &mut net, topo.s1), 1);

    // Forwarding now works.
    net.drain();
    assert_eq!(net.host(topo.h2).rx_packets, 200);
}

/// The controller hears nothing when the device is silent, and the network
/// stays closed.
#[test]
fn no_tone_no_change() {
    let mut net = Network::new();
    let topo = topology::line(&mut net, 10_000_000, Duration::from_micros(50));
    net.attach_generator(
        topo.h1,
        TrafficPattern::Cbr {
            flow: FlowKey::udp(Ip::v4(10, 0, 0, 1), 1, Ip::v4(10, 0, 0, 2), 2),
            pps: 50.0,
            size: 500,
            start: Duration::ZERO,
            stop: Duration::from_secs(1),
        },
    );
    let mut plan = FrequencyPlan::audible_default();
    let set = plan.allocate("s1", 2).unwrap();
    let scene = Scene::quiet(SR);
    let mut ctl = MdnController::new(Microphone::measurement(), Pos::new(0.4, 0.0, 0.0));
    ctl.bind_device("s1", set);
    let events = ctl.listen(&scene, Window::from_start(Duration::from_millis(500)));
    assert!(events.is_empty(), "phantom events: {events:?}");
    net.drain();
    assert_eq!(net.host(topo.h2).rx_packets, 0);
    assert_eq!(net.counters.policy_drops, 50);
}

/// Deleting the rule over the wire closes the path again (full Add/Delete
/// lifecycle through marshaling).
#[test]
fn flowmod_delete_closes_the_path_again() {
    let mut net = Network::new();
    let topo = topology::line(&mut net, 10_000_000, Duration::from_micros(50));
    let mat = Match::dst(Ip::v4(10, 0, 0, 2));
    let mut chan = ControlChannel::new();
    chan.send_to_switch(&OfMessage::FlowMod {
        xid: 1,
        command: FlowModCommand::Add,
        priority: 10,
        mat,
        action: Action::Forward(1),
    });
    pump_to_switch(&mut chan, &mut net, topo.s1);

    let send_burst = |net: &mut Network, start: Duration| {
        net.attach_generator(
            topo.h1,
            TrafficPattern::Cbr {
                flow: FlowKey::udp(Ip::v4(10, 0, 0, 1), 1, Ip::v4(10, 0, 0, 2), 2),
                pps: 100.0,
                size: 500,
                start,
                stop: start + Duration::from_millis(500),
            },
        );
    };
    send_burst(&mut net, Duration::ZERO);
    net.drain();
    let after_open = net.host(topo.h2).rx_packets;
    assert_eq!(after_open, 50);

    chan.send_to_switch(&OfMessage::FlowMod {
        xid: 2,
        command: FlowModCommand::Delete,
        priority: 0,
        mat,
        action: Action::Drop,
    });
    pump_to_switch(&mut chan, &mut net, topo.s1);
    let restart = net.now() + Duration::from_millis(10);
    send_burst(&mut net, restart);
    net.drain();
    assert_eq!(
        net.host(topo.h2).rx_packets,
        after_open,
        "traffic leaked after delete"
    );
}

/// Garbage on the control channel is counted per direction and skipped;
/// the valid FlowMod behind it still opens the path.
#[test]
fn malformed_control_frames_are_counted_and_do_not_block_valid_ones() {
    let mut net = Network::new();
    let topo = topology::line(&mut net, 10_000_000, Duration::from_micros(50));
    net.attach_generator(
        topo.h1,
        TrafficPattern::Cbr {
            flow: FlowKey::udp(Ip::v4(10, 0, 0, 1), 5000, Ip::v4(10, 0, 0, 2), 6000),
            pps: 100.0,
            size: 500,
            start: Duration::ZERO,
            stop: Duration::from_secs(1),
        },
    );
    let mut chan = ControlChannel::new();
    // Truncated garbage, then wrong-magic garbage, then a real FlowMod.
    chan.inject_to_switch(vec![0x01, 0x02, 0x03]);
    chan.inject_to_switch(vec![0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 8]);
    chan.send_to_switch(&OfMessage::FlowMod {
        xid: 1,
        command: FlowModCommand::Add,
        priority: 10,
        mat: Match::dst(Ip::v4(10, 0, 0, 2)),
        action: Action::Forward(1),
    });
    assert_eq!(pump_to_switch(&mut chan, &mut net, topo.s1), 1);
    assert_eq!(chan.stats().malformed_to_switch, 2);
    assert_eq!(chan.stats().malformed_to_controller, 0);
    net.drain();
    assert_eq!(
        net.host(topo.h2).rx_packets,
        100,
        "valid FlowMod still applied"
    );

    // The reverse direction counts independently.
    chan.inject_to_controller(vec![0xff]);
    assert!(matches!(chan.recv_at_controller(), Some(Err(_))));
    assert_eq!(chan.stats().malformed_to_controller, 1);
}
