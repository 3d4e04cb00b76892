//! Chaos recovery: the wire-to-sound alarm path under seeded faults.
//!
//! The rhomboid's primary (top) link flaps and then dies for good, and
//! the acoustic scene suffers a mic dropout and a noise burst before the
//! failure. The switch's watchdog sees its egress black-holing and asks
//! its Pi, over MP, to sound the alarm; the MP `PlayTone` frame is
//! encoded and decoded by `mdn_proto::mp` on the way. The Pi's speaker
//! plays it into the scene, the controller hears it one tick later and
//! reroutes via a FlowMod over a `ControlChannel`. The claim under test
//! is the paper's: management survives, because the tone gets through
//! where the dead link does not.
//!
//! Everything is driven by one scenario seed, so the recovery timeline
//! and the traffic counts are bit-for-bit reproducible — asserted both as
//! exact values and by running the scenario twice.

use mdn_acoustics::faults::{SceneFaultPlan, Window};
use mdn_acoustics::speaker::{Speaker, ToneRequest};
use mdn_acoustics::{medium::Pos, mic::Microphone, scene::Scene};
use mdn_core::controller::MdnController;
use mdn_core::freqplan::FrequencyPlan;
use mdn_net::faults::{FaultScript, NetFault};
use mdn_net::ftable::{Action, Match, Rule};
use mdn_net::network::{Network, RunOutcome};
use mdn_net::packet::{FlowKey, Ip};
use mdn_net::topology;
use mdn_net::traffic::TrafficPattern;
use mdn_proto::channel::{pump_to_switch, ControlChannel};
use mdn_proto::mp::{MpMessage, MpTone};
use mdn_proto::openflow::{FlowModCommand, OfMessage};
use std::time::Duration;

const SR: u32 = 44_100;
const TICK: Duration = Duration::from_millis(300);
const MS: fn(u64) -> Duration = Duration::from_millis;

/// The scenario seed: it drives the scene's fault plan (the noise
/// burst's samples).
const SEED: u64 = 403;

/// Everything observable about one scenario run, for exact comparison.
/// The obs fields hold only the deterministic parts of the registry
/// snapshot — counters, gauges, and the journal are all driven by the
/// scenario clock; stage histograms carry wall time and are left out.
#[derive(Debug, Clone, PartialEq)]
struct ScenarioOutcome {
    alarm_sent_at: Option<Duration>,
    tone_heard_at: Option<Duration>,
    rerouted_at: Option<Duration>,
    bytes_before: u64,
    bytes_blackout: u64,
    bytes_tail: u64,
    bot_rx_packets: u64,
    obs_counters: std::collections::BTreeMap<String, u64>,
    obs_gauges: std::collections::BTreeMap<String, f64>,
    obs_journal: Vec<mdn_obs::JournalEvent>,
}

/// Run the chaos scenario: 10 s of traffic over the rhomboid, primary
/// link flapping down at 3.0 s (briefly up 3.6–3.9 s, then dead), the
/// alarm carried to the Pi as an MP frame.
fn run_scenario() -> ScenarioOutcome {
    let registry = mdn_obs::Registry::new();
    let total = Duration::from_secs(10);
    let fail_at = Duration::from_secs(3);

    // Network: rhomboid routed via the top path.
    let mut net = Network::new();
    let topo =
        topology::rhomboid_rates(&mut net, 100_000_000, 10_000_000, Duration::from_micros(50));
    net.host_mut(topo.h_dst).enable_rx_log();
    let dst_ip = Ip::v4(10, 0, 0, 2);
    let dst = Match::dst(dst_ip);
    for (switch, port) in [
        (topo.s_in, 1),
        (topo.s_top, 1),
        (topo.s_bot, 1),
        (topo.s_out, 0),
    ] {
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
            flow: FlowKey::udp(Ip::v4(10, 0, 0, 1), 7000, dst_ip, 8000),
            pps: 400.0,
            size: 1000,
            start: Duration::ZERO,
            stop: total,
        },
    );
    let top_link = net.link_at(topo.s_in, 1).expect("top link wired");
    let mut script = FaultScript::new()
        .flap(top_link, fail_at, MS(3600))
        .at(MS(3900), NetFault::LinkDown(top_link));

    // Acoustics: s_in owns one alarm slot; the scene misbehaves *before*
    // the failure (dead mic, then a 35 dB noise burst the detector must
    // not mistake for a tone).
    let mut plan = FrequencyPlan::audible_default();
    let set = plan.allocate("s_in", 1).unwrap();
    let alarm_tone = MpTone::from_units(set.freq(0), MS(150), 65.0);
    let mut scene = Scene::quiet(SR);
    scene.set_faults(
        SceneFaultPlan::new(SEED)
            .mic_dead(Window::between(MS(1000), MS(1600)))
            .noise_burst(Window::between(MS(2000), MS(2400)), 35.0),
    );
    scene.attach_obs(&registry);
    let pi_speaker = Speaker::cheap();
    let mut ctl = MdnController::new(Microphone::measurement(), Pos::new(0.5, 0.3, 0.0));
    ctl.attach_obs(&registry);
    ctl.bind_device("s_in", set);

    // The controller's FlowMod channel to s_in.
    let mut ctl_chan = ControlChannel::new();
    ctl_chan.attach_obs(&registry);

    let mut at = TICK;
    while at <= total {
        net.schedule_tick(at, 0);
        at += TICK;
    }

    let mut last_link_drops = 0u64;
    let mut alarm_sent_at = None;
    let mut tone_heard_at = None;
    let mut rerouted_at = None;
    while let RunOutcome::Tick { at, .. } = net.run_until(total + TICK) {
        script.apply_due(&mut net, at);

        // Switch-local watchdog: black-holing egress → ask the Pi, over
        // MP, to sound the alarm.
        let drops = net.counters.link_drops;
        let mut to_pi = None;
        if drops > last_link_drops && alarm_sent_at.is_none() {
            to_pi = Some(
                MpMessage::PlayTone {
                    seq: 0,
                    tone: alarm_tone,
                }
                .encode(),
            );
            alarm_sent_at = Some(at);
        }
        last_link_drops = drops;

        // The Pi decodes the frame and plays the tone.
        if let Some(frame) = to_pi {
            let Ok(MpMessage::PlayTone { tone, .. }) = MpMessage::decode(&frame) else {
                panic!("the Pi could not decode its own switch's alarm frame");
            };
            let req = ToneRequest {
                freq_hz: tone.freq_hz(),
                duration: tone.duration(),
                level_spl: tone.intensity_db(),
            };
            let signal = pi_speaker.play(req, SR).expect("pi speaker plays alarm");
            scene.add(Pos::ORIGIN, at, signal, "s_in".to_string());
            tone_heard_at = Some(at);
        }

        // The controller listens one tick behind; the alarm triggers a
        // reroute over the bottom path.
        if at >= TICK * 2 && rerouted_at.is_none() {
            let events = ctl.listen(&scene, Window::new(at - TICK * 2, TICK + MS(150)));
            if events.iter().any(|e| e.device == "s_in" && e.slot == 0) {
                ctl_chan.send_to_switch(&OfMessage::FlowMod {
                    xid: 1,
                    command: FlowModCommand::Add,
                    priority: 50,
                    mat: dst,
                    action: Action::Forward(2),
                });
                pump_to_switch(&mut ctl_chan, &mut net, topo.s_in);
                rerouted_at = Some(at);
            }
        }
    }
    net.drain();
    net.publish_obs(&registry);
    let snap = registry.snapshot();

    ScenarioOutcome {
        alarm_sent_at,
        tone_heard_at,
        rerouted_at,
        bytes_before: net.host(topo.h_dst).rx_bytes_between(MS(2000), MS(3000)),
        // From the first link-down (3.0 s) nothing arrives until the
        // FlowMod lands; packets rerouted at that instant arrive strictly
        // later, so the window may run right up to the reroute tick.
        bytes_blackout: net
            .host(topo.h_dst)
            .rx_bytes_between(fail_at, rerouted_at.unwrap_or(total)),
        bytes_tail: net.host(topo.h_dst).rx_bytes_between(MS(9000), MS(10_000)),
        bot_rx_packets: net.switch(topo.s_bot).rx_packets,
        obs_counters: snap.counters,
        obs_gauges: snap.gauges,
        obs_journal: snap.journal,
    }
}

/// The headline scenario: a flapping-then-dead primary link plus a dead
/// mic window and a noise burst, and the control loop still recovers —
/// on exactly the timeline the seed dictates.
#[test]
fn chaos_faults_alarm_still_recovers_the_network() {
    let out = run_scenario();

    // The link dies at 3.0 s. The watchdog alarms on the next tick, the
    // first to see link drops; the Pi plays the tone that same tick; the
    // controller, listening one tick behind, hears it and reroutes on the
    // tick after — while the flap is still down.
    assert_eq!(out.alarm_sent_at, Some(MS(3300)), "alarm tick");
    assert_eq!(out.tone_heard_at, Some(MS(3300)), "tone tick");
    assert_eq!(out.rerouted_at, Some(MS(3600)), "reroute tick");

    // Traffic: 400 packets/s of 1000 B. Flowing before, dead for the
    // 600 ms blackout, and carried by the bottom path from the reroute to
    // the end of the run (6.4 s of it).
    assert_eq!(out.bytes_before, 400_000);
    assert_eq!(out.bytes_blackout, 0, "traffic leaked through a dead link");
    assert_eq!(out.bytes_tail, 400_000, "tail did not recover");
    assert_eq!(out.bot_rx_packets, 2_560, "bottom-path packets");
}

/// Same seed, same everything: the whole outcome — timeline, traffic
/// byte counts, and the deterministic parts of the obs snapshot — is
/// identical across runs.
#[test]
fn chaos_scenario_is_deterministic() {
    assert_eq!(run_scenario(), run_scenario());
}

/// The obs registry is a second witness of the whole run: the detector,
/// the scene's injected faults, the control channel and the network all
/// report into it.
#[test]
fn obs_snapshot_matches_ground_truth() {
    let out = run_scenario();
    let c = &out.obs_counters;

    // The detector ran every tick and decoded the alarm.
    assert!(c["mdn_detect_frames_total"] > 0);
    assert!(
        c["mdn_events_decoded_total"] > 0,
        "alarm events never counted"
    );

    // Scene: the Pi's alarm emission and both injected acoustic faults.
    assert_eq!(c["mdn_scene_emissions_total"], 1);
    assert!(c["mdn_scene_noise_bursts_total"] >= 1);
    assert!(c["mdn_scene_mic_dead_windows_total"] >= 1);

    // Control channel: exactly the one reroute FlowMod, none malformed.
    assert_eq!(c["mdn_channel_frames_total{dir=\"to_switch\"}"], 1);
    assert_eq!(c["mdn_channel_malformed_total{dir=\"to_switch\"}"], 0);

    // Network totals published at the end of the run: traffic flowed, the
    // dead primary link ate packets, and per-queue stats are exported.
    assert!(out.obs_gauges["mdn_net_delivered"] > 0.0);
    assert!(
        out.obs_gauges["mdn_net_link_drops"] > 0.0,
        "dead link dropped nothing?"
    );
    assert!(
        out.obs_gauges
            .keys()
            .any(|k| k.starts_with("mdn_queue_accepted")),
        "no per-queue stats in the snapshot"
    );
}
