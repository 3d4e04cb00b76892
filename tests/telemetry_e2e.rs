//! End-to-end telemetry over the real network substrate: the
//! k-superspreader / DDoS extension (§5's open problem) and routing-
//! obliviousness (the same detector works wherever the monitored switch
//! sits).

use mdn_acoustics::Window;
use mdn_acoustics::{medium::Pos, mic::Microphone, scene::Scene};
use mdn_core::apps::superspreader::{AddressToneMapper, SuperspreaderDetector, WatchMode};
use mdn_core::controller::MdnController;
use mdn_core::encoder::SoundingDevice;
use mdn_core::freqplan::FrequencyPlan;
use mdn_net::ftable::{Action, Match, Rule};
use mdn_net::network::Network;
use mdn_net::packet::{FlowKey, Ip};
use mdn_net::topology;
use mdn_net::traffic::TrafficPattern;
use std::time::Duration;

const SR: u32 = 44_100;
const SLOTS: usize = 48;

/// Sonify a switch tap's source addresses and detect a DDoS on the victim.
#[test]
fn ddos_on_victim_is_heard() {
    let total = Duration::from_secs(4);
    let mut net = Network::new();
    let topo = topology::line(&mut net, 100_000_000, Duration::from_micros(20));
    net.switch_mut(topo.s1).enable_tap();
    net.install_rule(
        topo.s1,
        Rule {
            mat: Match::ANY,
            priority: 0,
            action: Action::Forward(1),
        },
    );

    // 30 distinct sources hammer the victim (h2): one flow each. The
    // generators all live on h1; the flow *keys* carry the forged sources,
    // which is what the ToR switch sees.
    for i in 0..30u8 {
        net.attach_generator(
            topo.h1,
            TrafficPattern::Poisson {
                flow: FlowKey::tcp(Ip::v4(172, 16, i / 8, i), 999, Ip::v4(10, 0, 0, 2), 80),
                mean_pps: 20.0,
                size: 100,
                start: Duration::ZERO,
                stop: total,
                seed: i as u64,
            },
        );
    }
    net.drain();

    // Sonify source addresses; rate-limit one tone per slot per 200 ms.
    let mut plan = FrequencyPlan::new(500.0, 500.0 + 60.0 * SLOTS as f64, 60.0);
    let set = plan.allocate("tor", SLOTS).unwrap();
    let mut scene = Scene::quiet(SR);
    let mut device = SoundingDevice::new("tor", set.clone(), Pos::ORIGIN);
    let mapper = AddressToneMapper::new(SLOTS);
    let tap = net.switch(topo.s1).tap.as_ref().unwrap().clone();
    let mut last_emit: std::collections::HashMap<usize, Duration> = Default::default();
    for rec in &tap {
        let slot = mapper.slot_of(rec.flow.src_ip);
        let due = match last_emit.get(&slot) {
            Some(&t) => rec.at.saturating_sub(t) >= Duration::from_millis(200),
            None => true,
        };
        if due {
            device.emit(&mut scene, slot, rec.at).unwrap();
            last_emit.insert(slot, rec.at);
        }
    }

    let mut ctl = MdnController::new(Microphone::measurement(), Pos::new(0.4, 0.2, 0.0));
    ctl.bind_device("tor", set);
    let events = ctl.listen(&scene, Window::from_start(total));
    let det =
        SuperspreaderDetector::new("tor", WatchMode::VictimSources, Duration::from_secs(1), 10);
    let alerts = det.analyze(&events);
    assert!(!alerts.is_empty(), "DDoS not detected");
    assert!(alerts.iter().all(|a| a.distinct > 10));
}

/// Normal traffic (three clients) stays under the k threshold.
#[test]
fn normal_client_mix_is_not_a_ddos() {
    let total = Duration::from_secs(4);
    let mut net = Network::new();
    let topo = topology::line(&mut net, 100_000_000, Duration::from_micros(20));
    net.switch_mut(topo.s1).enable_tap();
    net.install_rule(
        topo.s1,
        Rule {
            mat: Match::ANY,
            priority: 0,
            action: Action::Forward(1),
        },
    );
    for i in 0..3u8 {
        net.attach_generator(
            topo.h1,
            TrafficPattern::Cbr {
                flow: FlowKey::tcp(Ip::v4(192, 168, 0, i), 999, Ip::v4(10, 0, 0, 2), 80),
                pps: 100.0, // heavy but few sources
                size: 400,
                start: Duration::ZERO,
                stop: total,
            },
        );
    }
    net.drain();

    let mut plan = FrequencyPlan::new(500.0, 500.0 + 60.0 * SLOTS as f64, 60.0);
    let set = plan.allocate("tor", SLOTS).unwrap();
    let mut scene = Scene::quiet(SR);
    let mut device = SoundingDevice::new("tor", set.clone(), Pos::ORIGIN);
    let mapper = AddressToneMapper::new(SLOTS);
    let tap = net.switch(topo.s1).tap.as_ref().unwrap().clone();
    let mut last_emit: std::collections::HashMap<usize, Duration> = Default::default();
    for rec in &tap {
        let slot = mapper.slot_of(rec.flow.src_ip);
        let due = last_emit
            .get(&slot)
            .is_none_or(|&t| rec.at.saturating_sub(t) >= Duration::from_millis(200));
        if due {
            device.emit(&mut scene, slot, rec.at).unwrap();
            last_emit.insert(slot, rec.at);
        }
    }
    let mut ctl = MdnController::new(Microphone::measurement(), Pos::new(0.4, 0.2, 0.0));
    ctl.bind_device("tor", set);
    let events = ctl.listen(&scene, Window::from_start(total));
    let det =
        SuperspreaderDetector::new("tor", WatchMode::VictimSources, Duration::from_secs(1), 10);
    assert!(
        det.analyze(&events).is_empty(),
        "false DDoS alert on 3 clients"
    );
}

/// Routing-obliviousness (§5's claim (ii)): the identical detector hears
/// the same heavy slot whether the monitored switch is the first or last
/// hop of the path.
#[test]
fn detection_is_routing_oblivious() {
    use mdn_core::apps::heavyhitter::{FlowToneMapper, HeavyHitterDetector};
    let total = Duration::from_secs(4);
    let heavy = FlowKey::udp(Ip::v4(10, 0, 0, 1), 55_555, Ip::v4(10, 0, 0, 2), 9_999);

    let run = |monitor_last_hop: bool| -> Vec<usize> {
        // Chain: h1 - sA - sB - h2; monitor either sA or sB.
        let mut net = Network::new();
        let h1 = net.add_host("h1", Ip::v4(10, 0, 0, 1));
        let h2 = net.add_host("h2", Ip::v4(10, 0, 0, 2));
        let sa = net.add_switch("sA", 2);
        let sb = net.add_switch("sB", 2);
        net.connect(h1, 0, sa, 0, 100_000_000, Duration::from_micros(20));
        net.connect(sa, 1, sb, 0, 100_000_000, Duration::from_micros(20));
        net.connect(sb, 1, h2, 0, 100_000_000, Duration::from_micros(20));
        for s in [sa, sb] {
            net.install_rule(
                s,
                Rule {
                    mat: Match::ANY,
                    priority: 0,
                    action: Action::Forward(1),
                },
            );
        }
        let monitored = if monitor_last_hop { sb } else { sa };
        net.switch_mut(monitored).enable_tap();
        net.attach_generator(
            h1,
            TrafficPattern::Cbr {
                flow: heavy,
                pps: 50.0,
                size: 800,
                start: Duration::ZERO,
                stop: total,
            },
        );
        net.drain();

        let mut plan = FrequencyPlan::new(500.0, 500.0 + 60.0 * SLOTS as f64, 60.0);
        let set = plan.allocate("mon", SLOTS).unwrap();
        let mut scene = Scene::quiet(SR);
        let mut device = SoundingDevice::new("mon", set.clone(), Pos::ORIGIN);
        let mut mapper = FlowToneMapper::new(SLOTS, Duration::from_millis(150));
        let tap = net.switch(monitored).tap.as_ref().unwrap().clone();
        for rec in &tap {
            if let Some(slot) = mapper.on_packet(&rec.flow, rec.at) {
                device.emit(&mut scene, slot, rec.at).unwrap();
            }
        }
        let mut ctl = MdnController::new(Microphone::measurement(), Pos::new(0.4, 0.2, 0.0));
        ctl.bind_device("mon", set);
        let events = ctl.listen(&scene, Window::from_start(total));
        HeavyHitterDetector::new("mon", Duration::from_secs(1), 5).persistent_hitters(&events, 0.5)
    };

    let first_hop = run(false);
    let last_hop = run(true);
    assert_eq!(
        first_hop, last_hop,
        "detection depended on monitor placement"
    );
    assert_eq!(
        first_hop.len(),
        1,
        "heavy flow not flagged exactly once: {first_hop:?}"
    );
}
