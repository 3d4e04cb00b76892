//! Failure recovery over the acoustic channel — the paper's motivating
//! scenario: "data plane or hardware failures could cut off network
//! management traffic as well, aborting important management tasks such as
//! diagnostics, intrusion detection systems, congestion notification or
//! recovery signals."
//!
//! Here the *data path itself* dies (the top link of the rhomboid goes
//! down). An in-band recovery signal would have died with it; the alarm
//! tone does not. The ingress switch notices its transmit queue black-
//! holing, sounds the alarm slot, and the controller — which has heard
//! nothing on the wire — reroutes traffic over the bottom path by FlowMod.

use mdn_acoustics::Window;
use mdn_acoustics::{medium::Pos, mic::Microphone, scene::Scene};
use mdn_core::controller::MdnController;
use mdn_core::encoder::SoundingDevice;
use mdn_core::freqplan::FrequencyPlan;
use mdn_net::ftable::{Action, Match, Rule};
use mdn_net::network::{Network, RunOutcome};
use mdn_net::packet::{FlowKey, Ip};
use mdn_net::topology;
use mdn_net::traffic::TrafficPattern;
use mdn_proto::channel::{pump_to_switch, ControlChannel};
use mdn_proto::openflow::{FlowModCommand, OfMessage};
use std::time::Duration;

const SR: u32 = 44_100;
const TICK: Duration = Duration::from_millis(300);

#[test]
fn link_failure_alarm_tone_triggers_reroute() {
    let total = Duration::from_secs(10);
    let fail_at = Duration::from_secs(3);
    let mut net = Network::new();
    let topo =
        topology::rhomboid_rates(&mut net, 100_000_000, 10_000_000, Duration::from_micros(50));
    net.host_mut(topo.h_dst).enable_rx_log();
    let dst_ip = Ip::v4(10, 0, 0, 2);
    let dst = Match::dst(dst_ip);
    // Route via the top path.
    net.install_rule(
        topo.s_in,
        Rule {
            mat: dst,
            priority: 10,
            action: Action::Forward(1),
        },
    );
    net.install_rule(
        topo.s_top,
        Rule {
            mat: dst,
            priority: 10,
            action: Action::Forward(1),
        },
    );
    net.install_rule(
        topo.s_bot,
        Rule {
            mat: dst,
            priority: 10,
            action: Action::Forward(1),
        },
    );
    net.install_rule(
        topo.s_out,
        Rule {
            mat: dst,
            priority: 10,
            action: Action::Forward(0),
        },
    );
    // Steady traffic.
    net.attach_generator(
        topo.h_src,
        TrafficPattern::Cbr {
            flow: FlowKey::udp(Ip::v4(10, 0, 0, 1), 7000, dst_ip, 8000),
            pps: 400.0,
            size: 1000,
            start: Duration::ZERO,
            stop: total,
        },
    );
    // The failing link: s_in port 1 → s_top.
    let top_link = net.link_at(topo.s_in, 1).expect("top link wired");

    // Acoustics: s_in owns one alarm slot.
    let mut plan = FrequencyPlan::audible_default();
    let set = plan.allocate("s_in", 1).unwrap();
    let mut scene = Scene::quiet(SR);
    let mut device = SoundingDevice::new("s_in", set.clone(), Pos::ORIGIN);
    let mut ctl = MdnController::new(Microphone::measurement(), Pos::new(0.5, 0.3, 0.0));
    ctl.bind_device("s_in", set);
    let mut chan = ControlChannel::new();

    let mut at = TICK;
    while at <= total {
        net.schedule_tick(at, 0);
        at += TICK;
    }

    let mut failed = false;
    let mut last_link_drops = 0u64;
    let mut alarm_sounded_at = None;
    let mut rerouted_at = None;
    while let RunOutcome::Tick { at, .. } = net.run_until(total + TICK) {
        if !failed && at >= fail_at {
            net.set_link_up(top_link, false);
            failed = true;
        }
        // The switch-local watchdog: packets are black-holing at an egress
        // whose link is dead → sound the alarm slot.
        let drops = net.counters.link_drops;
        if drops > last_link_drops && alarm_sounded_at.is_none() {
            device
                .emit_slot(&mut scene, 0, at, Duration::from_millis(150))
                .expect("alarm tone");
            alarm_sounded_at = Some(at);
        }
        last_link_drops = drops;
        // The controller listens one tick behind; on the alarm it reroutes
        // via the bottom path.
        if at >= TICK * 2 && rerouted_at.is_none() {
            let events = ctl.listen(
                &scene,
                Window::new(at - TICK * 2, TICK + Duration::from_millis(150)),
            );
            if events.iter().any(|e| e.device == "s_in" && e.slot == 0) {
                chan.send_to_switch(&OfMessage::FlowMod {
                    xid: 1,
                    command: FlowModCommand::Add,
                    priority: 50, // outranks the dead top route
                    mat: dst,
                    action: Action::Forward(2),
                });
                pump_to_switch(&mut chan, &mut net, topo.s_in);
                rerouted_at = Some(at);
            }
        }
    }
    net.drain();

    let alarm = alarm_sounded_at.expect("link failure never alarmed");
    let reroute = rerouted_at.expect("controller never heard the alarm");
    assert!(alarm >= fail_at, "alarm before the failure?");
    // Recovery within two listen windows of the alarm.
    let recovery = reroute.as_secs_f64() - alarm.as_secs_f64();
    assert!(recovery <= 0.9, "recovery took {recovery} s");
    // Traffic flows again after the reroute: compare deliveries in the
    // second before the failure and the second after the reroute.
    let before = net
        .host(topo.h_dst)
        .rx_bytes_between(fail_at - Duration::from_secs(1), fail_at);
    let after = net.host(topo.h_dst).rx_bytes_between(
        reroute + Duration::from_millis(200),
        reroute + Duration::from_millis(1200),
    );
    assert!(before > 0);
    assert!(
        after as f64 > 0.8 * before as f64,
        "traffic did not recover: {before} B/s before, {after} B/s after"
    );
    // And the outage window really was an outage.
    let during = net.host(topo.h_dst).rx_bytes_between(
        fail_at + Duration::from_millis(200),
        alarm.max(fail_at + Duration::from_millis(400)),
    );
    assert_eq!(during, 0, "traffic leaked through a dead link");
    // The bottom path carried the recovered traffic.
    assert!(net.switch(topo.s_bot).rx_packets > 0);
}

/// Sanity inversion: without the acoustic alarm, the outage persists to the
/// end of the run (nothing else recovers it).
#[test]
fn without_the_alarm_the_outage_persists() {
    let total = Duration::from_secs(6);
    let fail_at = Duration::from_secs(2);
    let mut net = Network::new();
    let topo =
        topology::rhomboid_rates(&mut net, 100_000_000, 10_000_000, Duration::from_micros(50));
    net.host_mut(topo.h_dst).enable_rx_log();
    let dst_ip = Ip::v4(10, 0, 0, 2);
    let dst = Match::dst(dst_ip);
    net.install_rule(
        topo.s_in,
        Rule {
            mat: dst,
            priority: 10,
            action: Action::Forward(1),
        },
    );
    net.install_rule(
        topo.s_top,
        Rule {
            mat: dst,
            priority: 10,
            action: Action::Forward(1),
        },
    );
    net.install_rule(
        topo.s_out,
        Rule {
            mat: dst,
            priority: 10,
            action: Action::Forward(0),
        },
    );
    net.attach_generator(
        topo.h_src,
        TrafficPattern::Cbr {
            flow: FlowKey::udp(Ip::v4(10, 0, 0, 1), 7000, dst_ip, 8000),
            pps: 200.0,
            size: 1000,
            start: Duration::ZERO,
            stop: total,
        },
    );
    let top_link = net.link_at(topo.s_in, 1).expect("top link wired");
    net.schedule_tick(fail_at, 1);
    while let RunOutcome::Tick { .. } = net.run_until(total) {
        net.set_link_up(top_link, false);
    }
    net.drain();
    let after = net
        .host(topo.h_dst)
        .rx_bytes_between(fail_at + Duration::from_millis(500), total);
    assert_eq!(after, 0, "outage should persist without recovery");
}
