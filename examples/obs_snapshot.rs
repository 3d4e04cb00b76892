//! One end-to-end pass through the instrumented stack, ending in both
//! exporter formats: a Prometheus text dump and a JSON snapshot.
//!
//! The run exercises every layer the `mdn-obs` registry watches: a
//! congested testbed (queue and link stats), the acoustic pipeline end to
//! end (scene fault counters, detector stage timings, decoded events),
//! and the acoustic health ledger (death and recovery counters, the MTTR
//! histogram and the journal).
//!
//! ```text
//! cargo run --release --example obs_snapshot
//! ```
//!
//! The JSON snapshot is printed after a `=== JSON snapshot ===` marker so
//! scripts (and the CI obs-smoke job) can slice it off and parse it.

use mdn_acoustics::faults::{SceneFaultPlan, Window};
use mdn_acoustics::{medium::Pos, mic::Microphone, scene::Scene};
use mdn_core::controller::MdnController;
use mdn_core::encoder::SoundingDevice;
use mdn_core::freqplan::FrequencyPlan;
use mdn_core::health::HealthTracker;
use mdn_net::ftable::{Action, Match, Rule};
use mdn_net::network::Network;
use mdn_net::packet::{FlowKey, Ip};
use mdn_net::topology;
use mdn_net::traffic::TrafficPattern;
use mdn_obs::Registry;
use std::time::Duration;

const SR: u32 = 44_100;
const MS: fn(u64) -> Duration = Duration::from_millis;

fn main() {
    let registry = Registry::new();

    congest_testbed(&registry);
    listen_and_decode(&registry);

    println!("=== Prometheus text exposition ===");
    print!("{}", registry.prometheus());
    println!();
    println!("=== JSON snapshot ===");
    println!("{}", registry.snapshot().to_json());
}

/// Push a 100 Mbps burst into the rhomboid's 10 Mbps top path so the
/// ingress switch's egress queue fills, drops at the tail, and leaves a
/// high-water mark to export.
fn congest_testbed(registry: &Registry) {
    let mut net = Network::new();
    let topo =
        topology::rhomboid_rates(&mut net, 100_000_000, 10_000_000, Duration::from_micros(50));
    let dst_ip = Ip::v4(10, 0, 0, 2);
    let dst = Match::dst(dst_ip);
    for (switch, port) in [(topo.s_in, 1), (topo.s_top, 1), (topo.s_out, 0)] {
        net.install_rule(
            switch,
            Rule {
                mat: dst,
                priority: 10,
                action: Action::Forward(port),
            },
        );
    }
    net.attach_generator(
        topo.h_src,
        TrafficPattern::Cbr {
            flow: FlowKey::udp(Ip::v4(10, 0, 0, 1), 1000, dst_ip, 2000),
            pps: 4000.0,
            size: 1000,
            start: Duration::ZERO,
            stop: Duration::from_secs(1),
        },
    );
    net.drain();
    net.publish_obs(registry);
    let totals = net.queue_totals();
    println!(
        "testbed: {} packets queued, {} tail-dropped, deepest queue {}",
        totals.accepted, totals.dropped, totals.high_water
    );
    assert!(totals.dropped > 0, "bottleneck queue never overflowed");
}

/// Play an alarm tone into a faulty scene and decode it back, then feed
/// the acoustic health ledger a speaker that dies and comes back.
fn listen_and_decode(registry: &Registry) {
    let mut plan = FrequencyPlan::audible_default();
    let set = plan.allocate("s1", 1).unwrap();
    let mut scene = Scene::quiet(SR);
    scene.attach_obs(registry);
    scene.set_faults(
        SceneFaultPlan::new(7)
            .mic_dead(Window::between(MS(100), MS(250)))
            .noise_burst(Window::between(MS(300), MS(500)), 35.0),
    );
    let mut ctl = MdnController::new(Microphone::measurement(), Pos::new(0.5, 0.3, 0.0));
    ctl.attach_obs(registry);
    ctl.bind_device("s1", set.clone());

    let mut device = SoundingDevice::new("s1", set, Pos::ORIGIN);
    device.emit_slot(&mut scene, 0, MS(600), MS(150)).unwrap();

    let events = ctl.listen(&scene, Window::from_start(MS(1000)));
    println!("decoded {} events from the alarm tone", events.len());

    // The evidence the self-healing loop feeds: expected tones that never
    // decode kill the device's acoustic plane, a heard tone revives it
    // and records the outage length.
    let mut health = HealthTracker::default();
    health.attach_obs(registry);
    let mut at = MS(1000);
    while health.acoustic_alive("s1") {
        health.record_missed_tone("s1", 1, at);
        at += MS(300);
    }
    health.record_heard_tone("s1", 1, at);
    let took = health
        .recovery_time("s1")
        .expect("the heard tone recovers s1");
    println!("s1 acoustic outage lasted {took:?}");
}
