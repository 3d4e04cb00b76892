//! One OpenFlow controller session, two transports: a real switch
//! handshakes with the TCP controller, and the same learning-switch
//! session programs a `UnifiedLoop`-driven virtual network in-process.
//!
//! ```text
//! cargo run --release --example of_controller
//! ```
//!
//! First an `OfClient` connects to the served `ControllerServer` over a
//! real `TcpStream`, completes the Hello handshake and one echo round
//! trip. Then the simulation: h1 —(p0)— sw —(p1)— h2, CBR traffic both
//! ways. The switch starts with an empty flow table and
//! `MissPolicy::PacketIn`; every miss crosses a `ControlChannel` as an
//! encoded `PacketIn` to the learning-switch session, and the returned
//! `FlowMod`s are applied to the live table mid-simulation. Output lines
//! are machine-parseable (`KEY=value`) so the CI smoke job can grep them.
//!
//! Environment:
//!
//! * `MDN_CTRL_ADDR` — controller bind address (default `127.0.0.1:0`).

use mdn_acoustics::ambient::AmbientProfile;
use mdn_acoustics::scene::Scene;
use mdn_core::cells::{CellConfig, CellPlan};
use mdn_core::eventloop::{Step, UnifiedLoop};
use mdn_core::ofbridge::OfAgent;
use mdn_core::selfheal::SelfHealingController;
use mdn_net::packet::{FlowKey, Ip};
use mdn_net::traffic::TrafficPattern;
use mdn_net::Network;
use mdn_proto::controller::{ControllerServer, LearningSwitch, OfClient};
use std::time::Duration;

const MS: fn(u64) -> Duration = Duration::from_millis;

fn main() {
    let addr = std::env::var("MDN_CTRL_ADDR").unwrap_or_else(|_| "127.0.0.1:0".into());
    let handle = ControllerServer::new(|_| Box::new(LearningSwitch::new()))
        .serve(addr.as_str())
        .expect("bind controller");
    println!("CTRL_ADDR={}", handle.addr());

    // The TCP transport: a real switch-side client handshakes and echoes.
    let mut client = OfClient::connect(handle.addr(), Duration::from_secs(5))
        .expect("handshake with the served controller");
    client
        .echo(bytes::Bytes::from_static(b"of_controller"))
        .expect("echo round trip");
    println!("HANDSHAKE=ok");
    drop(client);
    handle.shutdown();

    // The virtual network: two hosts talking through one empty switch.
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
                pps: 2000.0,
                size: 500,
                start: Duration::ZERO,
                stop: MS(400),
            },
        );
    }

    // Wrap it in the unified loop (quiet acoustic side; this example is
    // about the control plane).
    let plan = CellPlan::plan(
        1,
        &[AmbientProfile::quiet()],
        CellConfig {
            switches_per_cell: 1,
            slots_per_switch: 3,
            ..CellConfig::default()
        },
    )
    .expect("cell plan");
    let scene = Scene::new(44_100, AmbientProfile::quiet());
    let heal = SelfHealingController::new(plan);
    let mut lp = UnifiedLoop::new(net, scene, heal, MS(300));

    // The in-process transport: the same session kind behind a channel.
    let mut agent = OfAgent::attach(lp.net_mut(), sw, Box::new(LearningSwitch::new()));

    // Pump the control channel every 20 ms of virtual time.
    const PUMPS: u64 = 12;
    for i in 0..PUMPS {
        lp.schedule_app(MS(10 + 20 * i), i);
    }
    let horizon = MS(500);
    loop {
        match lp.step(horizon) {
            Step::App { token, at } => {
                let report = agent.pump(lp.net_mut()).expect("pump");
                if report.packet_ins + report.flow_mods > 0 {
                    println!(
                        "pump #{token} at {:?}: {} PacketIn up, {} FlowMod down",
                        at, report.packet_ins, report.flow_mods
                    );
                }
            }
            Step::Window { .. } => {}
            Step::Done => break,
        }
    }

    let rules = lp.net_mut().switch_mut(sw).table.len();
    let rx_h1 = lp.net_mut().host(h1).rx_packets;
    let rx_h2 = lp.net_mut().host(h2).rx_packets;
    let stats = agent.stats();
    println!("RULES_INSTALLED={rules}");
    println!("FLOW_MODS={}", stats.flow_mods_tx);
    println!("PACKET_INS={}", stats.packet_ins_rx);
    println!("RX_H1={rx_h1}");
    println!("RX_H2={rx_h2}");
    println!("CTRL_HANDSHAKES={}", stats.handshaken);

    assert!(rules >= 2, "learning switch installed both directions");
    assert!(
        rx_h1 > 0 && rx_h2 > 0,
        "controller-installed rules carry traffic"
    );
    println!(
        "done: the switch was programmed entirely by the controller session — {} control messages exchanged",
        stats.rx_messages + stats.tx_messages
    );
}
