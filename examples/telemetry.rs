//! Music-Defined Telemetry (§5 of the paper): heavy-hitter and port-scan
//! detection from the tones a switch plays per forwarded packet — with the
//! pop-song interference track playing in the room, as in Figures 4b/4d.
//!
//! ```text
//! cargo run --release --example telemetry
//! ```

use mdn_acoustics::Window;
use mdn_acoustics::{medium::Pos, mic::Microphone, scene::Scene};
use mdn_audio::noise::MusicNoise;
use mdn_core::apps::heavyhitter::{FlowToneMapper, HeavyHitterDetector};
use mdn_core::apps::portscan::{PortScanDetector, PortToneMapper};
use mdn_core::controller::MdnController;
use mdn_core::encoder::SoundingDevice;
use mdn_core::freqplan::FrequencyPlan;
use mdn_net::ftable::{Action, Match, Rule};
use mdn_net::network::Network;
use mdn_net::packet::{FlowKey, Ip};
use mdn_net::topology;
use mdn_net::traffic::TrafficPattern;
use std::time::Duration;

const SAMPLE_RATE: u32 = 44_100;
const SLOTS: usize = 64;

fn main() {
    heavy_hitter_demo();
    port_scan_demo();
}

fn heavy_hitter_demo() {
    println!("== heavy-hitter detection (with background music) ==");
    let total = Duration::from_secs(6);
    let mut net = Network::new();
    let topo = topology::line(&mut net, 50_000_000, Duration::from_micros(50));
    net.switch_mut(topo.s1).enable_tap();
    net.install_rule(
        topo.s1,
        Rule {
            mat: Match::ANY,
            priority: 0,
            action: Action::Forward(1),
        },
    );

    // 16 light flows + one elephant.
    let sink = Ip::v4(10, 0, 0, 2);
    for i in 0..16u16 {
        net.attach_generator(
            topo.h1,
            TrafficPattern::Poisson {
                flow: FlowKey::udp(Ip::v4(10, 0, 0, 1), 20_000 + i, sink, 30_000 + i),
                mean_pps: 2.0,
                size: 400,
                start: Duration::ZERO,
                stop: total,
                seed: i as u64,
            },
        );
    }
    let elephant = FlowKey::udp(Ip::v4(10, 0, 0, 1), 55_555, sink, 9_999);
    net.attach_generator(
        topo.h1,
        TrafficPattern::Cbr {
            flow: elephant,
            pps: 80.0,
            size: 1200,
            start: Duration::ZERO,
            stop: total,
        },
    );
    net.drain();

    // Sonify the tap: flow-hash → slot, one tone per slot per 150 ms.
    let mut plan = FrequencyPlan::new(500.0, 500.0 + 60.0 * SLOTS as f64, 60.0);
    let set = plan.allocate("s1", SLOTS).unwrap();
    let mut scene = Scene::quiet(SAMPLE_RATE);
    let mut device = SoundingDevice::new("s1", set.clone(), Pos::ORIGIN);
    let mut mapper = FlowToneMapper::new(SLOTS, Duration::from_millis(150));
    let elephant_slot = mapper.slot_of(&elephant);
    let tap = net.switch(topo.s1).tap.as_ref().unwrap().clone();
    for rec in &tap {
        if let Some(slot) = mapper.on_packet(&rec.flow, rec.at) {
            device.emit(&mut scene, slot, rec.at).unwrap();
        }
    }
    // Someone is playing pop music two metres away.
    scene.add(
        Pos::new(2.0, 1.0, 0.0),
        Duration::ZERO,
        MusicNoise::default().render(total, SAMPLE_RATE),
        "radio",
    );

    let mut controller = MdnController::new(Microphone::measurement(), Pos::new(0.5, 0.3, 0.0));
    controller.bind_device("s1", set);
    let events = controller.listen(&scene, Window::from_start(total));
    let det = HeavyHitterDetector::new("s1", Duration::from_secs(1), 5);
    let flagged = det.persistent_hitters(&events, 0.5);

    println!("elephant flow {elephant} hashes to slot {elephant_slot}");
    println!("flagged heavy slots: {flagged:?}");
    assert!(
        flagged.contains(&elephant_slot),
        "the elephant must be flagged"
    );
    println!("heavy hitter found despite the music.\n");
}

fn port_scan_demo() {
    println!("== port-scan detection ==");
    let total = Duration::from_secs(15);
    let mut net = Network::new();
    let topo = topology::line(&mut net, 50_000_000, Duration::from_micros(50));
    net.switch_mut(topo.s1).enable_tap();
    net.install_rule(
        topo.s1,
        Rule {
            mat: Match::ANY,
            priority: 0,
            action: Action::Forward(1),
        },
    );
    net.attach_generator(
        topo.h1,
        TrafficPattern::PortScan {
            template: FlowKey::tcp(Ip::v4(10, 0, 0, 9), 31_337, Ip::v4(10, 0, 0, 2), 0),
            first_port: 1,
            last_port: 65_535,
            interval: Duration::from_micros(200),
            size: 60,
            start: Duration::from_millis(500),
        },
    );
    net.drain();

    let mut plan = FrequencyPlan::new(500.0, 500.0 + 60.0 * SLOTS as f64, 60.0);
    let set = plan.allocate("s1", SLOTS).unwrap();
    let mut scene = Scene::quiet(SAMPLE_RATE);
    let mut device = SoundingDevice::new("s1", set.clone(), Pos::ORIGIN);
    let mapper = PortToneMapper::new(SLOTS);
    let tap = net.switch(topo.s1).tap.as_ref().unwrap().clone();
    let mut last = None;
    for rec in &tap {
        let slot = mapper.slot_of(rec.flow.dst_port);
        if last != Some(slot) {
            device
                .emit_slot(&mut scene, slot, rec.at, Duration::from_millis(60))
                .unwrap();
            last = Some(slot);
        }
    }

    let mut controller = MdnController::new(Microphone::measurement(), Pos::new(0.5, 0.3, 0.0));
    controller.bind_device("s1", set);
    let events = controller.listen(&scene, Window::from_start(total));
    let det = PortScanDetector::new("s1", Duration::from_secs(4), 12);
    let alerts = det.analyze(&events);
    for a in &alerts {
        println!(
            "scan alert: window starting {:.0}s — {} distinct port slots, monotonicity {:.2}",
            a.window_start.as_secs_f64(),
            a.distinct_slots,
            a.monotonicity
        );
    }
    assert!(!alerts.is_empty(), "the sweep must be detected");
    assert!(
        alerts.iter().any(|a| a.monotonicity > 0.8),
        "a sweep sounds ascending"
    );
    println!("port scan heard as an ascending sweep: OK");
}
