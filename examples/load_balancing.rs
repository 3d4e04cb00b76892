//! Music-defined load balancing (§6 / Figure 5a of the paper).
//!
//! Four switches form a rhomboid; a source ramps its sending rate along
//! the single configured path until the ingress queue passes 75 packets.
//! The switch has been sounding its queue band (500/600/700 Hz) every
//! 300 ms all along; the moment the controller hears 700 Hz it installs a
//! FlowMod that splits traffic across both paths, and the queue drains.
//!
//! ```text
//! cargo run --release --example load_balancing
//! ```

use mdn_acoustics::Window;
use mdn_acoustics::{medium::Pos, mic::Microphone, scene::Scene};
use mdn_core::apps::loadbalance::LoadBalancerApp;
use mdn_core::apps::queuemon::{QueueToneMapper, SAMPLE_INTERVAL};
use mdn_core::controller::MdnController;
use mdn_core::encoder::SoundingDevice;
use mdn_core::freqplan::FrequencyPlan;
use mdn_net::ftable::{Action, Match, Rule};
use mdn_net::network::{Network, RunOutcome};
use mdn_net::packet::{FlowKey, Ip};
use mdn_net::topology;
use mdn_net::traffic::TrafficPattern;
use mdn_proto::channel::{pump_to_switch, ControlChannel};
use std::time::Duration;

const SAMPLE_RATE: u32 = 44_100;

fn main() {
    let total = Duration::from_secs(12);
    let mut net = Network::new();
    let topo =
        topology::rhomboid_rates(&mut net, 100_000_000, 10_000_000, Duration::from_micros(50));
    let dst_ip = Ip::v4(10, 0, 0, 2);
    let dst = Match::dst(dst_ip);
    // Single path via the top to start with.
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

    // The ramping sender: 2 → 16 Mbps over 8 s.
    net.attach_generator(
        topo.h_src,
        TrafficPattern::Ramp {
            flow: FlowKey::udp(Ip::v4(10, 0, 0, 1), 7000, dst_ip, 8000),
            start_pps: 200.0,
            end_pps: 1600.0,
            size: 1250,
            start: Duration::ZERO,
            stop: Duration::from_secs(8),
        },
    );

    // Acoustics: 500/600/700 Hz queue tones from the ingress switch.
    let mapper = QueueToneMapper::default();
    let mut plan = FrequencyPlan::new(500.0, 800.0, 100.0);
    let set = plan.allocate("s_in", QueueToneMapper::SLOTS).unwrap();
    let mut scene = Scene::quiet(SAMPLE_RATE);
    let mut device = SoundingDevice::new("s_in", set.clone(), Pos::ORIGIN);
    let mut controller = MdnController::new(Microphone::measurement(), Pos::new(0.5, 0.3, 0.0));
    controller.bind_device("s_in", set);
    let mut app = LoadBalancerApp::new("s_in", dst, vec![1, 2], mapper);
    let mut chan = ControlChannel::new();

    let mut at = SAMPLE_INTERVAL;
    while at <= total {
        net.schedule_tick(at, 0);
        at += SAMPLE_INTERVAL;
    }

    println!("t(s)  queue_top  queue_bottom  tone");
    while let RunOutcome::Tick { at, .. } = net.run_until(total + SAMPLE_INTERVAL) {
        let q_top = net.switch(topo.s_in).queue_len(1);
        let q_bot = net.switch(topo.s_in).queue_len(2);
        let band = mapper.band_of(q_top.max(q_bot));
        let freq = device.set.freq(mapper.slot_of(band)) as u32;
        if q_top + q_bot > 0 || at.as_millis() % 1500 == 0 {
            println!(
                "{:>4.1}  {q_top:>9}  {q_bot:>12}  {freq} Hz",
                at.as_secs_f64()
            );
        }
        device
            .emit_slot(
                &mut scene,
                mapper.slot_of(band),
                at,
                Duration::from_millis(100),
            )
            .unwrap();
        if at >= SAMPLE_INTERVAL * 2 {
            let events = controller.listen(
                &scene,
                Window::new(
                    at - SAMPLE_INTERVAL * 2,
                    SAMPLE_INTERVAL + Duration::from_millis(150),
                ),
            );
            if let Some(reb) = app.on_events(&events) {
                println!(
                    "--> heard 700 Hz at t={:.2}s: installing split FlowMod",
                    reb.at.as_secs_f64()
                );
                chan.send_to_switch(&reb.flow_mod);
                pump_to_switch(&mut chan, &mut net, topo.s_in);
            }
        }
    }
    net.drain();

    println!(
        "\ndelivered {} packets; bottom path carried {}; queue drops {}",
        net.host(topo.h_dst).rx_packets,
        net.switch(topo.s_bot).rx_packets,
        net.counters.queue_drops
    );
    assert!(
        app.is_rebalanced(),
        "the congestion tone should have triggered a split"
    );
    assert!(net.switch(topo.s_bot).rx_packets > 0);
    println!("music-defined load balancing: OK");
}
