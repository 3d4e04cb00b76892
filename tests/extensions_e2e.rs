//! End-to-end tests for the paper's proposed extensions: the ultrasound
//! band plan (§8), reactive PacketIn control (completing the OpenFlow
//! loop), and acoustic byte transport via melodies.

use mdn_acoustics::Window;
use mdn_acoustics::{medium::Pos, mic::Microphone, scene::Scene, speaker::Speaker};
use mdn_core::controller::MdnController;
use mdn_core::encoder::SoundingDevice;
use mdn_core::freqplan::FrequencyPlan;
use mdn_core::sequence::MelodyCodec;
use mdn_net::ftable::{Action, Match};
use mdn_net::network::Network;
use mdn_net::node::MissPolicy;
use mdn_net::packet::{FlowKey, Ip};
use mdn_net::topology;
use mdn_net::traffic::TrafficPattern;
use mdn_proto::channel::{pump_to_switch, ship_packet_ins, ControlChannel};
use mdn_proto::openflow::{FlowModCommand, OfMessage};
use std::time::Duration;

/// §8: "including frequencies outside the spectrum of human hearing would
/// allow for an increase in the number of discernible sounds". An
/// ultrasound-capable speaker and 96 kHz microphone carry a 25 kHz symbol
/// end to end; the plan capacity more than doubles.
#[test]
fn ultrasound_symbols_decode_end_to_end() {
    const SR: u32 = 96_000; // the ultrasound mic's ADC rate

    let mut plan = FrequencyPlan::with_ultrasound();
    assert!(plan.capacity() > 2 * FrequencyPlan::audible_default().capacity());
    // Take slots near 25 kHz — inaudible to humans.
    let target = plan
        .nearest_slot(25_000.0)
        .expect("25 kHz is in the plan")
        .0;
    let skip = plan.allocate("audible-apps", target).unwrap();
    assert!(skip.freqs.last().unwrap() < &25_000.0);
    let set = plan.allocate("ultra-switch", 4).unwrap();
    assert!(
        set.freqs.iter().all(|&f| f > 20_000.0),
        "slots {:?}",
        set.freqs
    );

    let mut scene = Scene::quiet(SR);
    let mut dev = SoundingDevice::new("ultra-switch", set.clone(), Pos::ORIGIN);
    dev.speaker = Speaker::ultrasound_capable();
    dev.emit_slot(
        &mut scene,
        2,
        Duration::from_millis(100),
        Duration::from_millis(100),
    )
    .expect("ultrasound tone within the wide speaker band");

    let mut ctl = MdnController::new(Microphone::ultrasound(), Pos::new(0.4, 0.0, 0.0));
    ctl.bind_device("ultra-switch", set);
    let events = ctl.listen(&scene, Window::from_start(Duration::from_millis(400)));
    assert!(!events.is_empty(), "ultrasound symbol lost");
    assert!(events.iter().all(|e| e.slot == 2), "{events:?}");
}

/// The cheap testbed speaker cannot emit ultrasound — the failure is a
/// typed error at the emission point, not silent signal loss.
#[test]
fn cheap_speaker_rejects_ultrasound_slots() {
    let mut plan = FrequencyPlan::with_ultrasound();
    let target = plan.nearest_slot(25_000.0).unwrap().0;
    plan.allocate("skip", target).unwrap();
    let set = plan.allocate("ultra", 2).unwrap();
    let mut scene = Scene::quiet(96_000);
    let mut dev = SoundingDevice::new("ultra", set, Pos::ORIGIN); // default cheap speaker
    let err = dev.emit(&mut scene, 0, Duration::ZERO).unwrap_err();
    assert!(
        matches!(err, mdn_core::encoder::EmitError::Speaker(_)),
        "{err:?}"
    );
}

/// Reactive OpenFlow: the first packet of a new flow misses, a PacketIn
/// reaches the controller over the wire, the controller installs the rule,
/// and the rest of the flow is delivered.
#[test]
fn packet_in_reactive_controller_installs_the_rule() {
    let mut net = Network::new();
    let topo = topology::line(&mut net, 10_000_000, Duration::from_micros(50));
    net.set_miss_policy(topo.s1, MissPolicy::PacketIn);
    net.attach_generator(
        topo.h1,
        TrafficPattern::Cbr {
            flow: FlowKey::udp(Ip::v4(10, 0, 0, 1), 5000, Ip::v4(10, 0, 0, 2), 6000),
            pps: 100.0,
            size: 500,
            start: Duration::ZERO,
            stop: Duration::from_secs(2),
        },
    );
    let mut chan = ControlChannel::new();

    // Controller loop every 100 ms: drain PacketIns, react to the first.
    let mut reacted = false;
    for ms in (100..2000).step_by(100) {
        net.schedule_tick(Duration::from_millis(ms), ms);
    }
    while let mdn_net::network::RunOutcome::Tick { .. } = net.run_until(Duration::from_secs(2)) {
        ship_packet_ins(&mut chan, &mut net, topo.s1, 1);
        while let Some(frame) = chan.recv_at_controller() {
            let msg = frame.expect("frames decode");
            if let OfMessage::PacketIn { flow, .. } = msg {
                if !reacted {
                    reacted = true;
                    chan.send_to_switch(&OfMessage::FlowMod {
                        xid: 1,
                        command: FlowModCommand::Add,
                        priority: 10,
                        mat: Match::dst(flow.dst_ip),
                        action: Action::Forward(1),
                    });
                    pump_to_switch(&mut chan, &mut net, topo.s1);
                }
            }
        }
    }
    net.drain();
    assert!(reacted, "no PacketIn reached the controller");
    // The first ~10 packets (first 100 ms) missed; the rest flowed.
    let delivered = net.host(topo.h2).rx_packets;
    assert!(delivered >= 180, "only {delivered} delivered");
    assert!(net.counters.policy_drops >= 5, "misses unaccounted");
    assert_eq!(delivered + net.counters.policy_drops, 200);
}

/// Melody byte transport: a 20-byte management message crosses the air in
/// single-digit seconds — the acoustic-channel regime the paper's related
/// work reports.
#[test]
fn twenty_byte_message_over_sound() {
    const SR: u32 = 44_100;
    let mut plan = FrequencyPlan::new(600.0, 2000.0, 60.0);
    let set = plan.allocate("oob", 16).unwrap();
    let codec = MelodyCodec::new(16);
    let payload: Vec<u8> = (0u8..20)
        .map(|i| i.wrapping_mul(37).wrapping_add(11))
        .collect();
    let symbols = codec.bytes_to_symbols(&payload).unwrap();

    let mut scene = Scene::quiet(SR);
    let mut dev = SoundingDevice::new("oob", set.clone(), Pos::ORIGIN);
    let start = Duration::from_millis(100);
    let end = codec.emit(&mut dev, &mut scene, &symbols, start).unwrap();
    let airtime = end - start;
    assert!(
        airtime > Duration::from_secs(3) && airtime < Duration::from_secs(12),
        "20 bytes took {airtime:?} — outside the paper's acoustic regime"
    );

    let mut ctl = MdnController::new(Microphone::measurement(), Pos::new(0.4, 0.0, 0.0));
    ctl.bind_device("oob", set);
    let events = ctl.listen(&scene, Window::from_start(end + Duration::from_millis(200)));
    let decoded = codec
        .symbols_to_bytes(&codec.decode(&events, "oob"))
        .unwrap();
    assert_eq!(
        &decoded[..payload.len()],
        &payload[..],
        "payload corrupted in the air"
    );
}
