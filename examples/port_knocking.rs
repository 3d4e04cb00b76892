//! Port knocking over sound (§4 of the paper), end to end.
//!
//! A switch drops all traffic to a protected port. The sender transmits
//! three knock packets; the switch sonifies each knock's destination port;
//! the MDN controller's finite state machine hears the three tones in the
//! right order and installs — through the binary OpenFlow wire format — the
//! FlowMod that opens the port. Wrong sequences keep it closed.
//!
//! ```text
//! cargo run --example port_knocking
//! ```

use mdn_acoustics::Window;
use mdn_acoustics::{medium::Pos, mic::Microphone, scene::Scene};
use mdn_core::apps::portknock::PortKnockApp;
use mdn_core::controller::MdnController;
use mdn_core::encoder::SoundingDevice;
use mdn_core::freqplan::FrequencyPlan;
use mdn_net::network::{Network, RunOutcome};
use mdn_net::packet::{FlowKey, Ip};
use mdn_net::topology;
use mdn_net::traffic::TrafficPattern;
use mdn_proto::channel::{pump_to_switch, ControlChannel};
use std::time::Duration;

const SAMPLE_RATE: u32 = 44_100;
const TICK: Duration = Duration::from_millis(300);
const PROTECTED: u16 = 8080;
const KNOCK_PORTS: [u16; 3] = [7001, 7002, 7003];

fn main() {
    let total = Duration::from_secs(8);

    // Network: h1 — s1 — h2, with a per-packet tap on the switch (the
    // modified-firmware stand-in) and a default-drop policy.
    let mut net = Network::new();
    let topo = topology::line(&mut net, 10_000_000, Duration::from_micros(50));
    net.switch_mut(topo.s1).enable_tap();

    // Acoustics: the switch owns one tone slot per knock port.
    let mut plan = FrequencyPlan::audible_default();
    let set = plan.allocate("s1", 3).unwrap();
    let mut scene = Scene::quiet(SAMPLE_RATE);
    let mut device = SoundingDevice::new("s1", set.clone(), Pos::ORIGIN);
    let mut controller = MdnController::new(Microphone::measurement(), Pos::new(0.5, 0.3, 0.0));
    controller.bind_device("s1", set);

    // The app: expect knocks 0 → 1 → 2, then open the protected port.
    let mut app = PortKnockApp::new("s1", vec![0, 1, 2], PROTECTED, 1);
    net.install_rule(topo.s1, app.baseline_drop_rule());
    let mut chan = ControlChannel::new();

    // Traffic: blocked data for the whole run + three knock packets.
    let data = FlowKey::tcp(Ip::v4(10, 0, 0, 1), 42_000, Ip::v4(10, 0, 0, 2), PROTECTED);
    net.attach_generator(
        topo.h1,
        TrafficPattern::Cbr {
            flow: data,
            pps: 50.0,
            size: 1000,
            start: Duration::ZERO,
            stop: total,
        },
    );
    for (i, &port) in KNOCK_PORTS.iter().enumerate() {
        let knock = FlowKey::tcp(Ip::v4(10, 0, 0, 1), 42_001, Ip::v4(10, 0, 0, 2), port);
        let at = Duration::from_millis(1_500 + 800 * i as u64);
        net.attach_generator(
            topo.h1,
            TrafficPattern::Cbr {
                flow: knock,
                pps: 1000.0,
                size: 64,
                start: at,
                stop: at + Duration::from_millis(1),
            },
        );
    }

    // Drive the loop: every 300 ms sonify new switch arrivals on knock
    // ports, then listen one tick behind and feed the FSM.
    let mut at = TICK;
    while at <= total {
        net.schedule_tick(at, 0);
        at += TICK;
    }
    let mut cursor = 0;
    let mut unlocked_at = None;
    while let RunOutcome::Tick { at, .. } = net.run_until(total + TICK) {
        let tap = net.switch(topo.s1).tap.as_ref().unwrap().clone();
        for rec in &tap[cursor..] {
            if let Some(slot) = KNOCK_PORTS.iter().position(|&p| p == rec.flow.dst_port) {
                device
                    .emit_slot(&mut scene, slot, rec.at, Duration::from_millis(100))
                    .unwrap();
                println!(
                    "t={:>5.2}s  switch sonified knock on port {} (slot {slot})",
                    rec.at.as_secs_f64(),
                    rec.flow.dst_port
                );
            }
        }
        cursor = tap.len();
        if at >= TICK * 2 {
            let events = controller.listen(
                &scene,
                Window::new(at - TICK * 2, TICK + Duration::from_millis(150)),
            );
            if let Some(flow_mod) = app.on_events(&events) {
                println!(
                    "t={:>5.2}s  sequence complete -> FlowMod opens port {PROTECTED}",
                    at.as_secs_f64()
                );
                chan.send_to_switch(&flow_mod);
                pump_to_switch(&mut chan, &mut net, topo.s1);
                unlocked_at = Some(at);
            }
        }
    }
    net.drain();

    let unlocked_at = unlocked_at.expect("the correct sequence must unlock");
    let before = net
        .host(topo.h2)
        .rx_bytes_between(Duration::ZERO, unlocked_at);
    let after = net.host(topo.h2).rx_bytes_between(unlocked_at, total);
    println!(
        "\nbytes delivered before unlock: {before} (must be 0)\nbytes delivered after unlock:  {after}"
    );
    assert_eq!(before, 0);
    assert!(after > 0);
    println!("port knocking over sound: OK");
}
