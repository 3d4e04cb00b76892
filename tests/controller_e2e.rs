//! End-to-end: the OpenFlow controller session behind both transports.
//!
//! Over TCP: the `ControllerServer` accept loop, Hello handshake, echo,
//! probing and reaping, exercised with real loopback sockets from
//! outside the crates. In-process: the same session programs simulated
//! switches through the `OfAgent` bridge, so a `UnifiedLoop`-driven
//! network's forwarding is installed entirely by `FlowMod`s that crossed
//! the encode→decode path, and the controller scenario replays exactly.

use mdn_acoustics::ambient::AmbientProfile;
use mdn_acoustics::scene::Scene;
use mdn_core::cells::{CellConfig, CellPlan};
use mdn_core::eventloop::{Step, UnifiedLoop};
use mdn_core::ofbridge::OfAgent;
use mdn_core::scenario::{self, ScenarioSpec};
use mdn_core::selfheal::SelfHealingController;
use mdn_net::ftable::Decision;
use mdn_net::packet::{FlowKey, Ip};
use mdn_net::traffic::TrafficPattern;
use mdn_net::Network;
use mdn_obs::Registry;
use mdn_proto::controller::{
    ControllerConfig, ControllerServer, LearningSwitch, OfClient, OfStreamError,
};
use mdn_proto::openflow::OfMessage;
use std::time::Duration;

const MS: fn(u64) -> Duration = Duration::from_millis;

fn learning_server() -> mdn_proto::controller::ControllerHandle {
    ControllerServer::new(|_| Box::new(LearningSwitch::new()))
        .serve("127.0.0.1:0")
        .expect("bind controller")
}

/// h1 —(p0)— sw —(p1)— h2 with CBR traffic in both directions.
fn two_host_net() -> (Network, mdn_net::NodeId, mdn_net::NodeId, FlowKey) {
    let mut net = Network::new();
    let h1 = net.add_host("h1", Ip::v4(10, 0, 0, 1));
    let h2 = net.add_host("h2", Ip::v4(10, 0, 0, 2));
    let sw = net.add_switch("sw", 2);
    net.connect(h1, 0, sw, 0, 1_000_000_000, Duration::from_micros(10));
    net.connect(h2, 0, sw, 1, 1_000_000_000, Duration::from_micros(10));
    let fwd = FlowKey::tcp(Ip::v4(10, 0, 0, 1), 40_000, Ip::v4(10, 0, 0, 2), 80);
    for (host, flow) in [(h1, fwd), (h2, fwd.reversed())] {
        net.attach_generator(
            host,
            TrafficPattern::Cbr {
                flow,
                pps: 1000.0,
                size: 500,
                start: Duration::ZERO,
                stop: MS(200),
            },
        );
    }
    (net, sw, h2, fwd)
}

#[test]
fn raw_client_completes_hello_handshake_and_echo() {
    let handle = learning_server();
    let mut client =
        OfClient::connect(handle.addr(), Duration::from_secs(2)).expect("handshake over TCP");
    let skipped = client.echo(bytes::Bytes::from_static(b"e2e")).unwrap();
    assert_eq!(skipped, 0, "no stray messages before the echo reply");
    for _ in 0..200 {
        if handle.stats().handshaken == 1 {
            break;
        }
        std::thread::sleep(MS(10));
    }
    let stats = handle.stats();
    assert_eq!(stats.handshaken, 1);
    assert_eq!(stats.active, 1);
    handle.shutdown();
}

#[test]
fn learning_switch_reprograms_simulated_forwarding() {
    let (mut net, sw, h2, fwd) = two_host_net();
    let mut agent = OfAgent::attach(&mut net, sw, Box::new(LearningSwitch::new()));

    // Without rules every packet is a miss; nothing reaches h2.
    net.run_until(MS(10));
    assert_eq!(net.host(h2).rx_packets, 0, "misses drop under PacketIn");

    // Two pumps: learn one endpoint, then the other → both directions.
    let r1 = agent.pump(&mut net).unwrap();
    net.run_until(MS(20));
    let r2 = agent.pump(&mut net).unwrap();
    assert!(
        r1.flow_mods + r2.flow_mods >= 2,
        "both directions installed: {r1:?} {r2:?}"
    );
    assert_eq!(net.switch_mut(sw).table.lookup(0, &fwd), Decision::Forward(1));
    assert_eq!(
        net.switch_mut(sw).table.lookup(1, &fwd.reversed()),
        Decision::Forward(0)
    );

    // The controller-installed rules now carry data-plane traffic.
    let before = net.host(h2).rx_packets;
    net.run_until(MS(120));
    assert!(net.host(h2).rx_packets > before, "FlowMods altered forwarding");
    let stats = agent.stats();
    assert_eq!(stats.handshaken, 1);
    assert_eq!(stats.packet_ins_rx, r1.packet_ins + r2.packet_ins);
    assert_eq!(stats.flow_mods_tx, r1.flow_mods + r2.flow_mods);
}

#[test]
fn unified_loop_pumps_the_bridge_from_app_tokens() {
    let (net, sw, h2, fwd) = two_host_net();

    let plan = CellPlan::plan(
        1,
        &[AmbientProfile::quiet()],
        CellConfig {
            switches_per_cell: 1,
            slots_per_switch: 3,
            ..CellConfig::default()
        },
    )
    .unwrap();
    let scene = Scene::new(44_100, AmbientProfile::quiet());
    let heal = SelfHealingController::new(plan);
    let mut lp = UnifiedLoop::new(net, scene, heal, MS(300));

    let mut agent = OfAgent::attach(lp.net_mut(), sw, Box::new(LearningSwitch::new()));

    // A control-plane pump every 15 ms of virtual time.
    const PUMPS: u64 = 8;
    for i in 0..PUMPS {
        lp.schedule_app(MS(10 + 15 * i), i);
    }
    let horizon = MS(400);
    let mut pumped = 0u64;
    loop {
        match lp.step(horizon) {
            Step::App { .. } => {
                agent.pump(lp.net_mut()).unwrap();
                pumped += 1;
            }
            Step::Window { .. } => {}
            Step::Done => break,
        }
    }
    assert_eq!(pumped, PUMPS, "every scheduled pump token fired");
    let stats = agent.stats();
    assert!(stats.packet_ins_rx >= 2, "misses crossed the channel");
    assert!(stats.flow_mods_tx >= 2, "rules came back and stuck");
    assert_eq!(
        lp.net_mut().switch_mut(sw).table.lookup(0, &fwd),
        Decision::Forward(1)
    );
    assert!(
        lp.net_mut().host(h2).rx_packets > 0,
        "loop-driven switch forwards after controller programming"
    );
}

/// The checked-in controller scenario runs in-process and replays
/// exactly: two runs agree on every count, and the counts are the ones
/// the loopback-socket bridge produced before the session moved
/// in-process.
#[test]
fn controller_scenario_replays_exactly() {
    let spec = ScenarioSpec::load(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/scenarios/controller.json"
    ))
    .expect("controller.json parses");
    let counts = || {
        let o = scenario::run(&spec, &Registry::new()).expect("controller scenario runs");
        (
            o.events_total,
            o.packets_delivered,
            o.packets_dropped,
            o.packet_ins,
            o.flow_mods,
            o.app_events,
            o.rules_installed,
            o.availability,
        )
    };
    let first = counts();
    assert_eq!(first, counts(), "two runs of one spec differ");
    assert_eq!(first, (5934, 1160, 40, 40, 2, 12, 2, 1.0));
}

#[test]
fn malformed_frames_and_idle_peers_are_reaped_with_counters() {
    use std::io::Write as _;

    let registry = Registry::new();
    let handle = ControllerServer::new(|_| Box::new(LearningSwitch::new()))
        .with_config(ControllerConfig {
            idle_timeout: MS(100),
            write_timeout: Duration::from_secs(1),
        })
        .attach_obs(&registry)
        .serve("127.0.0.1:0")
        .expect("bind controller");

    // A peer that handshakes, then streams garbage: typed disconnect.
    let mut bad = OfClient::connect(handle.addr(), Duration::from_secs(2)).unwrap();
    bad.stream_mut()
        .write_all(&[0xFF, 0xFF, 0x00, 0x03, 0, 0, 0, 0])
        .unwrap();

    // A peer that handshakes, then falls silent: probed, then reaped.
    let silent = OfClient::connect(handle.addr(), Duration::from_secs(2)).unwrap();

    for _ in 0..300 {
        let s = handle.stats();
        if s.decode_errors >= 1 && s.idle_disconnects >= 1 && s.active == 0 {
            break;
        }
        std::thread::sleep(MS(10));
    }
    let stats = handle.stats();
    assert_eq!(stats.decode_errors, 1, "{stats:?}");
    assert_eq!(stats.idle_disconnects, 1, "{stats:?}");
    assert!(stats.echo_probes >= 1, "{stats:?}");
    assert_eq!(stats.active, 0, "{stats:?}");
    assert_eq!(
        registry.counter("mdn_ctrl_decode_errors_total", &[]).get(),
        1
    );
    assert!(registry.prometheus().contains("mdn_ctrl_connections_total"));
    drop(silent);
    handle.shutdown();
}

#[test]
fn client_poll_answers_probes_and_stays_connected() {
    let handle = ControllerServer::new(|_| Box::new(LearningSwitch::new()))
        .with_config(ControllerConfig {
            idle_timeout: MS(80),
            write_timeout: Duration::from_secs(1),
        })
        .serve("127.0.0.1:0")
        .expect("bind controller");
    let mut client = OfClient::connect(handle.addr(), Duration::from_secs(2)).unwrap();

    // Poll across several idle periods with a window shorter than the
    // server's probe interval: every probe is answered inside poll(),
    // so the server never reaps us, and each poll still returns.
    for _ in 0..12 {
        match client.poll(MS(40)) {
            Ok(None) => {}
            Ok(Some(msg)) => panic!("unexpected app message {msg:?}"),
            Err(e) => panic!("poll failed: {e}"),
        }
    }
    let stats = handle.stats();
    assert_eq!(stats.active, 1, "{stats:?}");
    assert_eq!(stats.idle_disconnects, 0, "{stats:?}");
    assert!(stats.echo_probes >= 1, "probes were exchanged: {stats:?}");
    handle.shutdown();
}

#[test]
fn oversize_echo_is_refused_before_it_corrupts_the_stream() {
    let handle = learning_server();
    let mut client = OfClient::connect(handle.addr(), Duration::from_secs(2)).unwrap();
    let huge = bytes::Bytes::from(vec![0u8; 70_000]);
    let xid = client.next_xid();
    match client.send(&OfMessage::EchoRequest { xid, payload: huge }) {
        Err(OfStreamError::Wire(mdn_proto::WireError::Oversize { len, max })) => {
            assert_eq!(len, 70_008);
            assert_eq!(max, 65_535);
        }
        other => panic!("expected Oversize, got {other:?}"),
    }
    // The refusal left the stream clean: a normal echo still works.
    assert_eq!(client.echo(bytes::Bytes::from_static(b"ok")).unwrap(), 0);
    handle.shutdown();
}
