//! Chaos recovery: the full stack under seeded fault injection.
//!
//! The scenario stacks every fault layer at once. The rhomboid's primary
//! (top) link flaps and then dies for good; the switch's MP alarm path to
//! its Pi drops half its frames each way; the acoustic scene suffers a mic
//! dropout and a noise burst before the failure; the controller's wire
//! channel to the top switch stops answering echo probes. The claim under
//! test is the paper's: management survives, because the alarm tone gets
//! through (thanks to ARQ retransmission) and the controller reroutes via
//! FlowMod while quarantining the dead wire path.
//!
//! Everything is driven by one scenario seed, so delivery statistics and
//! the recovery timeline are bit-for-bit reproducible — asserted both as
//! exact values (provable from the seed) and by running the scenario twice.

use mdn_acoustics::faults::{SceneFaultPlan, Window};
use mdn_acoustics::speaker::{Speaker, ToneRequest};
use mdn_acoustics::{medium::Pos, mic::Microphone, scene::Scene};
use mdn_core::controller::MdnController;
use mdn_core::freqplan::FrequencyPlan;
use mdn_core::health::{ControlPath, HealthState, HealthTracker};
use mdn_net::faults::{FaultScript, NetFault};
use mdn_net::ftable::{Action, Match, Rule};
use mdn_net::network::{Network, RunOutcome};
use mdn_net::packet::{FlowKey, Ip};
use mdn_net::topology;
use mdn_net::traffic::TrafficPattern;
use mdn_proto::channel::{pump_to_switch, service_switch, ControlChannel};
use mdn_proto::faults::{DirectionFaults, FaultStats};
use mdn_proto::mp::{MpMessage, MpTone};
use mdn_proto::openflow::{FlowModCommand, OfMessage};
use mdn_proto::reliable::{
    BackoffConfig, EchoMonitor, MpDeliveryStats, MpEndpoint, MpLink, MpReceiver,
};
use std::time::Duration;

const SR: u32 = 44_100;
const TICK: Duration = Duration::from_millis(300);
const MS: fn(u64) -> Duration = Duration::from_millis;

/// The scenario seed. With it, the switch→Pi direction drops the initial
/// alarm frame and the first retransmission (delivering the second and
/// third), and the Pi→switch direction drops the first ack (delivering
/// the duplicate's) — provable from the splitmix64 stream pinned in
/// `mdn_obs::rng`.
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
    delivery: MpDeliveryStats,
    forward_faults: FaultStats,
    reverse_faults: FaultStats,
    s_top_state: HealthState,
    s_top_path: ControlPath,
    s_in_timeline: Vec<(Duration, HealthState)>,
    echo_timeouts: u64,
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
/// alarm carried over a lossy MP link with the given retransmission
/// policy, echo probes watching the top switch's wire channel.
fn run_scenario(seed: u64, backoff: BackoffConfig) -> ScenarioOutcome {
    let registry = mdn_obs::Registry::new();
    let total = Duration::from_secs(10);
    let fail_at = Duration::from_secs(3);

    // Network: rhomboid routed via the top path.
    let mut net = Network::new();
    let topo =
        topology::rhomboid_rates(&mut net, 100_000_000, 10_000_000, Duration::from_micros(50));
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
        SceneFaultPlan::new(seed)
            .mic_dead(Window::between(MS(1000), MS(1600)))
            .noise_burst(Window::between(MS(2000), MS(2400)), 35.0),
    );
    scene.attach_obs(&registry);
    let pi_speaker = Speaker::cheap();
    let mut ctl = MdnController::new(Microphone::measurement(), Pos::new(0.5, 0.3, 0.0));
    ctl.attach_obs(&registry);
    ctl.bind_device("s_in", set);
    // The controller's per-device health ladder, fed by delivery evidence.
    let mut health = HealthTracker::default();
    health.attach_obs(&registry);

    // The lossy switch → Pi alarm path and its ARQ endpoints.
    let mut mp_link = MpLink::with_faults(
        seed,
        DirectionFaults::none().drop(0.5),
        DirectionFaults::none().drop(0.3),
    );
    let mut endpoint = MpEndpoint::new(backoff);
    endpoint.attach_obs(&registry);
    let mut receiver = MpReceiver::new();

    // Echo probing of s_top's wire channel (serviced only while the top
    // link is up — its control path rides the same fiber).
    let mut echo_chan = ControlChannel::new();
    echo_chan.attach_obs(&registry);
    let mut monitor = EchoMonitor::new(MS(600), MS(900), 2);
    monitor.attach_obs(&registry);

    // The controller's FlowMod channel to s_in (the two channels share
    // the registry's aggregate channel counters).
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

        // Switch-local watchdog: black-holing egress → sound the alarm,
        // reliably, over the lossy MP link.
        let drops = net.counters.link_drops;
        if drops > last_link_drops && alarm_sent_at.is_none() {
            endpoint.send_tone(&mut mp_link, alarm_tone, at);
            alarm_sent_at = Some(at);
        }
        last_link_drops = drops;

        // ARQ bookkeeping feeds the health ladder for s_in.
        let confirmed = endpoint.poll_acks(&mut mp_link);
        if confirmed > 0 {
            health.record_ack("s_in", confirmed as u64, at);
        }
        let (retx, expired) = endpoint.tick(&mut mp_link, at);
        if retx > 0 {
            health.record_retransmit("s_in", retx as u64, at);
        }
        if expired > 0 {
            health.record_expiry("s_in", expired as u64, at);
        }

        // The Pi plays every MP frame that survives the link.
        for msg in receiver.poll(&mut mp_link) {
            if let MpMessage::PlayTone { tone, .. } = msg {
                let req = ToneRequest {
                    freq_hz: tone.freq_hz(),
                    duration: tone.duration(),
                    level_spl: tone.intensity_db(),
                };
                let signal = pi_speaker.play(req, SR).expect("pi speaker plays alarm");
                scene.add(Pos::ORIGIN, at, signal, "s_in".to_string());
                tone_heard_at.get_or_insert(at);
            }
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

        // Echo liveness of s_top's wire channel.
        let timeouts_before = monitor.total_timeouts;
        monitor.tick(&mut echo_chan, at);
        if net.link(top_link).up {
            service_switch(&mut echo_chan, &mut net, topo.s_top);
        }
        while let Some(Ok(msg)) = echo_chan.recv_at_controller() {
            monitor.observe(&msg);
        }
        let new_timeouts = monitor.total_timeouts - timeouts_before;
        if new_timeouts > 0 {
            health.record_echo_timeout("s_top", new_timeouts, at);
        }
        health.set_wire_alive("s_top", monitor.is_alive(), at);

        health.decay_tick(at);
        mp_link.tick();
    }
    net.drain();
    net.publish_obs(&registry);
    let snap = registry.snapshot();

    let (forward_faults, reverse_faults) = mp_link.fault_stats();
    ScenarioOutcome {
        alarm_sent_at,
        tone_heard_at,
        rerouted_at,
        delivery: endpoint.stats(),
        forward_faults,
        reverse_faults,
        s_top_state: health.state("s_top"),
        s_top_path: health.control_path("s_top"),
        s_in_timeline: health.timeline("s_in").to_vec(),
        echo_timeouts: monitor.total_timeouts,
        bytes_before: net.host(topo.h_dst).rx_bytes_between(MS(2000), MS(3000)),
        // After the final link-down (3.9 s) nothing moves until the
        // FlowMod lands; packets rerouted at that instant arrive strictly
        // later, so the window may run right up to the reroute tick.
        bytes_blackout: net
            .host(topo.h_dst)
            .rx_bytes_between(MS(4000), rerouted_at.unwrap_or(total)),
        bytes_tail: net.host(topo.h_dst).rx_bytes_between(MS(9000), MS(10_000)),
        bot_rx_packets: net.switch(topo.s_bot).rx_packets,
        obs_counters: snap.counters,
        obs_gauges: snap.gauges,
        obs_journal: snap.journal,
    }
}

/// The headline scenario: ≥ 20 % MP frame loss plus a flapping-then-dead
/// primary link, and the control loop still recovers — with exactly the
/// delivery stats and timeline the seed dictates.
#[test]
fn chaos_faults_alarm_still_recovers_the_network() {
    let out = run_scenario(SEED, BackoffConfig::default());

    // The alarm fired within two ticks of the failure, and ARQ pushed it
    // through: the initial send and the first retransmission are lost to
    // the 50 % drop direction (a fire-and-forget tone dies here); the
    // second retransmission — 900 ms after the alarm on the backoff
    // schedule (first tick past 200 ms, then past +400 ms) — delivers.
    let alarm = out.alarm_sent_at.expect("link failure never alarmed");
    assert!(
        alarm >= MS(3000) && alarm <= MS(3600),
        "alarm at {alarm:?}, expected within two ticks of the 3 s failure"
    );
    assert_eq!(
        out.tone_heard_at,
        Some(alarm + MS(900)),
        "second retransmission delivers"
    );
    assert_eq!(
        out.delivery,
        MpDeliveryStats {
            sent: 1,
            retransmitted: 3,
            acked: 1,
            expired: 0
        }
    );

    // The injected loss really was heavy: half the data frames vanished.
    assert_eq!(out.forward_faults.offered, 4);
    assert_eq!(out.forward_faults.dropped, 2);
    assert!(
        out.forward_faults.dropped as f64 >= 0.2 * out.forward_faults.offered as f64,
        "scenario must drop at least 20% of MP frames"
    );
    assert_eq!(out.reverse_faults.dropped, 1, "first ack was lost");

    // The controller heard the tone and rerouted via FlowMod, promptly.
    let tone = out.tone_heard_at.unwrap();
    let reroute = out.rerouted_at.expect("controller never heard the alarm");
    assert!(reroute >= tone, "reroute before the tone was even audible?");
    assert!(
        (reroute - tone) <= MS(900),
        "recovery took {:?} after the tone",
        reroute - tone
    );

    // Health ladder: the lossy MP path degraded s_in while retransmissions
    // carried the alarm; the silent wire channel quarantined s_top and
    // flipped it to the acoustic control path.
    assert!(
        out.s_in_timeline
            .iter()
            .any(|(_, s)| *s == HealthState::Degraded),
        "retransmissions never degraded s_in: {:?}",
        out.s_in_timeline
    );
    assert!(out.echo_timeouts >= 2, "echo probes kept being answered?");
    assert_eq!(out.s_top_state, HealthState::Quarantined);
    assert_eq!(out.s_top_path, ControlPath::Acoustic);

    // Traffic: flowing before, dead in the blackout, recovered via the
    // bottom path after the reroute.
    assert!(out.bytes_before > 0);
    assert_eq!(out.bytes_blackout, 0, "traffic leaked through a dead link");
    assert!(
        out.bytes_tail as f64 > 0.8 * out.bytes_before as f64,
        "traffic did not recover: {} B before, {} B in the tail",
        out.bytes_before,
        out.bytes_tail
    );
    assert!(
        out.bot_rx_packets > 0,
        "recovery never used the bottom path"
    );
}

/// Inversion: with retransmission disabled, the very same seed kills the
/// alarm (its one frame is dropped) and the network never recovers.
#[test]
fn without_retransmission_the_same_chaos_is_fatal() {
    let out = run_scenario(SEED, BackoffConfig::default().no_retries());
    assert!(out.alarm_sent_at.is_some(), "the alarm was still attempted");
    assert_eq!(
        out.delivery,
        MpDeliveryStats {
            sent: 1,
            retransmitted: 0,
            acked: 0,
            expired: 1
        }
    );
    assert_eq!(out.tone_heard_at, None, "the single send was dropped");
    assert_eq!(out.rerouted_at, None, "nothing to hear, nothing to reroute");
    assert_eq!(
        out.bytes_tail, 0,
        "the outage persists to the end of the run"
    );
}

/// Same seed, same everything: the whole outcome — delivery statistics,
/// fault accounting, health timeline, traffic byte counts, and the
/// deterministic parts of the obs snapshot — is identical across runs.
#[test]
fn chaos_scenario_is_deterministic() {
    let a = run_scenario(SEED, BackoffConfig::default());
    let b = run_scenario(SEED, BackoffConfig::default());
    assert_eq!(a, b);
}

/// The obs registry is a second witness of the whole run: its counters
/// must agree exactly with the components' own ground-truth statistics,
/// and the journal must replay the health timeline.
#[test]
fn obs_snapshot_matches_ground_truth() {
    let out = run_scenario(SEED, BackoffConfig::default());
    let c = &out.obs_counters;

    // MP delivery: the obs mirror and MpDeliveryStats are two separate
    // code paths; they must agree sample for sample.
    assert_eq!(c["mdn_mp_sent_total"], out.delivery.sent);
    assert_eq!(c["mdn_mp_retransmitted_total"], out.delivery.retransmitted);
    assert_eq!(c["mdn_mp_acked_total"], out.delivery.acked);
    assert_eq!(c["mdn_mp_expired_total"], out.delivery.expired);

    // Echo probing of the dying wire channel.
    assert_eq!(c["mdn_echo_timeouts_total"], out.echo_timeouts);
    assert_eq!(out.obs_gauges["mdn_echo_alive"], 0.0, "wire declared dead");

    // Health: every transition in the returned timelines is counted, and
    // the journal replays s_in's ladder in order.
    let journal_transitions: Vec<&mdn_obs::JournalEvent> = out
        .obs_journal
        .iter()
        .filter(|e| e.kind == "health.transition")
        .collect();
    assert_eq!(
        c["mdn_health_transitions_total"],
        journal_transitions.len() as u64,
        "every counted transition is journaled (ring never overflowed)"
    );
    let s_in_journal: Vec<(Duration, String)> = journal_transitions
        .iter()
        .filter(|e| e.detail.starts_with("s_in:"))
        .map(|e| (e.at, e.detail.clone()))
        .collect();
    assert_eq!(s_in_journal.len(), out.s_in_timeline.len());
    for ((at, detail), (t, state)) in s_in_journal.iter().zip(&out.s_in_timeline) {
        assert_eq!(at, t);
        assert!(
            detail.ends_with(&format!("-> {state:?}")),
            "journal {detail:?} vs timeline {state:?}"
        );
    }
    assert!(
        c["mdn_health_quarantines_total"] >= 1,
        "s_top never quarantined"
    );

    // The detector ran every tick and decoded the alarm.
    assert!(c["mdn_detect_frames_total"] > 0);
    assert!(
        c["mdn_events_decoded_total"] > 0,
        "alarm events never counted"
    );

    // Scene: the Pi's alarm emissions and both injected acoustic faults.
    assert!(c["mdn_scene_emissions_total"] >= 1);
    assert!(c["mdn_scene_noise_bursts_total"] >= 1);
    assert!(c["mdn_scene_mic_dead_windows_total"] >= 1);

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
