//! Figure 5 — music-defined traffic engineering.
//!
//! (a/b) Load balancing on the rhomboid: the source ramps its rate, the
//! ingress switch sounds its queue band every 300 ms, and when the
//! controller hears the congestion tone it installs the FlowMod that
//! splits traffic across the two paths.
//!
//! (c/d) Queue monitoring: a triangular offered load drives one switch's
//! queue up through the 25/75-packet thresholds and back down; the switch
//! plays 500/600/700 Hz accordingly and the controller's decoded band
//! series must track the true queue.

use super::SAMPLE_RATE;
use mdn_acoustics::medium::Pos;
use mdn_acoustics::mic::Microphone;
use mdn_acoustics::scene::Scene;
use mdn_acoustics::Window;
use mdn_core::apps::loadbalance::LoadBalancerApp;
use mdn_core::apps::queuemon::{QueueBand, QueueMonitor, QueueToneMapper, SAMPLE_INTERVAL};
use mdn_core::controller::MdnController;
use mdn_core::encoder::SoundingDevice;
use mdn_core::freqplan::FrequencyPlan;
use mdn_net::ftable::{Action, Match, Rule};
use mdn_net::network::{Network, RunOutcome};
use mdn_net::packet::{FlowKey, Ip};
use mdn_net::topology;
use mdn_net::traffic::TrafficPattern;
use mdn_proto::channel::{pump_to_switch, ControlChannel};
use serde::Serialize;
use std::time::Duration;

/// Spectrogram tracks of the three queue tones over a captured scene —
/// the data behind the paper's 5b/5d spectrogram panels.
fn queue_tone_tracks(
    ctl: &mdn_core::controller::MdnController,
    scene: &mdn_acoustics::scene::Scene,
    total: Duration,
) -> Vec<(f64, f64, f64, f64)> {
    let capture = ctl.capture(
        scene,
        Window::from_start(total + Duration::from_millis(200)),
    );
    let sg = mdn_audio::spectrogram::Spectrogram::compute(
        &capture,
        &mdn_audio::spectrogram::StftConfig::default_for(SAMPLE_RATE),
    );
    let (a, b, c) = (
        sg.track_frequency(500.0),
        sg.track_frequency(600.0),
        sg.track_frequency(700.0),
    );
    sg.times()
        .iter()
        .enumerate()
        .map(|(i, &t)| (t, a[i], b[i], c[i]))
        .collect()
}

/// Result of the load-balancing experiment.
#[derive(Debug, Clone, Serialize)]
pub struct LoadBalancingResult {
    /// Ingress queue toward the top path per tick: `(t_s, packets)`.
    pub queue_top: Vec<(f64, f64)>,
    /// Ingress queue toward the bottom path per tick: `(t_s, packets)`.
    pub queue_bottom: Vec<(f64, f64)>,
    /// When the controller heard the congestion tone and split traffic.
    pub rebalance_time_s: Option<f64>,
    /// Peak queue before the rebalance.
    pub peak_before: f64,
    /// Peak queue after the rebalance (once the backlog drained).
    pub peak_after_drain: f64,
    /// Packets delivered end-to-end.
    pub delivered: u64,
    /// Packets lost to full queues.
    pub queue_drops: u64,
    /// Packets that traversed the bottom path (0 until the split).
    pub bottom_path_packets: u64,
    /// Figure 5b: tone magnitudes over time at 500/600/700 Hz,
    /// `(t_s, m500, m600, m700)` — the spectrogram tracks of the queue
    /// tones.
    pub tone_tracks: Vec<(f64, f64, f64, f64)>,
}

/// Run Figure 5a/5b.
pub fn load_balancing() -> LoadBalancingResult {
    let total = Duration::from_secs(12);
    let mut net = Network::new();
    // 100 Mbps access, 10 Mbps core: the rhombus paths are the bottleneck.
    let topo =
        topology::rhomboid_rates(&mut net, 100_000_000, 10_000_000, Duration::from_micros(50));
    let dst_ip = Ip::v4(10, 0, 0, 2);
    let dst = Match::dst(dst_ip);
    // Initial routing: single path via the top.
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

    // Ramping source: 2 → 16 Mbps over 8 s (1250 B packets, 10 kbit each),
    // crossing the single 10 Mbps path's capacity mid-run.
    let flow = FlowKey::udp(Ip::v4(10, 0, 0, 1), 7_000, dst_ip, 8_000);
    net.attach_generator(
        topo.h_src,
        TrafficPattern::Ramp {
            flow,
            start_pps: 200.0,
            end_pps: 1600.0,
            size: 1250,
            start: Duration::ZERO,
            stop: Duration::from_secs(8),
        },
    );

    // Acoustics: the ingress switch sounds its queue band every 300 ms.
    let mapper = QueueToneMapper::default();
    let mut plan = FrequencyPlan::new(500.0, 800.0, 100.0); // 500/600/700 Hz
    let set = plan
        .allocate("s_in", QueueToneMapper::SLOTS)
        .expect("plan capacity");
    let mut scene = Scene::quiet(SAMPLE_RATE);
    let mut device = SoundingDevice::new("s_in", set.clone(), Pos::ORIGIN);
    let mut ctl = MdnController::new(Microphone::measurement(), Pos::new(0.5, 0.3, 0.0));
    ctl.bind_device("s_in", set);
    let mut app = LoadBalancerApp::new("s_in", dst, vec![1, 2], mapper);
    let mut chan = ControlChannel::new();

    let mut at = SAMPLE_INTERVAL;
    while at <= total {
        net.schedule_tick(at, at.as_millis() as u64);
        at += SAMPLE_INTERVAL;
    }

    let mut queue_top = Vec::new();
    let mut queue_bottom = Vec::new();
    let mut rebalance_time = None;
    while let RunOutcome::Tick { at, .. } = net.run_until(total + SAMPLE_INTERVAL) {
        let q_top = net.switch(topo.s_in).queue_len(1);
        let q_bot = net.switch(topo.s_in).queue_len(2);
        queue_top.push((at.as_secs_f64(), q_top as f64));
        queue_bottom.push((at.as_secs_f64(), q_bot as f64));
        // The switch sounds the band of its most loaded rhombus
        // queue.
        let band = mapper.band_of(q_top.max(q_bot));
        device
            .emit_slot(
                &mut scene,
                mapper.slot_of(band),
                at,
                Duration::from_millis(100),
            )
            .expect("queue tone");
        // Controller listens one tick behind.
        if at >= SAMPLE_INTERVAL * 2 {
            let from = at - SAMPLE_INTERVAL * 2;
            let events = ctl.listen(
                &scene,
                Window::new(from, SAMPLE_INTERVAL + Duration::from_millis(150)),
            );
            if let Some(reb) = app.on_events(&events) {
                chan.send_to_switch(&reb.flow_mod);
                pump_to_switch(&mut chan, &mut net, topo.s_in);
                rebalance_time = Some(reb.at.as_secs_f64());
            }
        }
    }
    net.drain();

    let split_at = rebalance_time.unwrap_or(f64::MAX);
    // Include the sample that triggered the split (the event frame can
    // start slightly before the tone's nominal tick).
    let peak_before = queue_top
        .iter()
        .filter(|&&(t, _)| t <= split_at + 0.35)
        .map(|&(_, q)| q)
        .fold(0.0, f64::max);
    // Give the backlog one second to drain after the split, then measure.
    let peak_after_drain = queue_top
        .iter()
        .chain(&queue_bottom)
        .filter(|&&(t, _)| t > split_at + 1.0)
        .map(|&(_, q)| q)
        .fold(0.0, f64::max);

    LoadBalancingResult {
        queue_top,
        queue_bottom,
        rebalance_time_s: rebalance_time,
        peak_before,
        peak_after_drain,
        delivered: net.host(topo.h_dst).rx_packets,
        queue_drops: net.counters.queue_drops,
        bottom_path_packets: net.switch(topo.s_bot).rx_packets,
        tone_tracks: queue_tone_tracks(&ctl, &scene, total),
    }
}

/// Result of the queue-monitoring experiment.
#[derive(Debug, Clone, Serialize)]
pub struct QueueMonitorResult {
    /// True queue length per tick: `(t_s, packets)`.
    pub queue_series: Vec<(f64, f64)>,
    /// True band per tick (0 = Low, 1 = Mid, 2 = High).
    pub true_bands: Vec<(f64, u8)>,
    /// Bands the controller decoded from sound: `(t_s, band)`.
    pub decoded_bands: Vec<(f64, u8)>,
    /// Fraction of ticks whose nearest decoded band matches the truth.
    pub band_accuracy: f64,
    /// When the controller first heard High (congestion onset), seconds.
    pub congestion_onset_s: Option<f64>,
    /// When the queue was heard Low again after the onset, seconds.
    pub drain_s: Option<f64>,
    /// Figure 5d: tone magnitudes over time at 500/600/700 Hz.
    pub tone_tracks: Vec<(f64, f64, f64, f64)>,
}

fn band_code(b: QueueBand) -> u8 {
    match b {
        QueueBand::Low => 0,
        QueueBand::Mid => 1,
        QueueBand::High => 2,
    }
}

/// Run Figure 5c/5d: triangular offered load through one switch.
pub fn queue_monitor() -> QueueMonitorResult {
    let total = Duration::from_secs(12);
    let mut net = Network::new();
    // Fast ingress, 10 Mbps egress: the switch queue is the bottleneck.
    let topo = topology::line_rates(&mut net, 100_000_000, 10_000_000, Duration::from_micros(50));
    let dst_ip = Ip::v4(10, 0, 0, 2);
    net.install_rule(
        topo.s1,
        Rule {
            mat: Match::dst(dst_ip),
            priority: 10,
            action: Action::Forward(1),
        },
    );
    let flow = FlowKey::udp(Ip::v4(10, 0, 0, 1), 7_000, dst_ip, 8_000);
    // Triangular load: up over 5 s, down over 5 s (peak 16 Mbps offered
    // into 10 Mbps).
    net.attach_generator(
        topo.h1,
        TrafficPattern::Ramp {
            flow,
            start_pps: 200.0,
            end_pps: 1600.0,
            size: 1250,
            start: Duration::ZERO,
            stop: Duration::from_secs(5),
        },
    );
    net.attach_generator(
        topo.h1,
        TrafficPattern::Ramp {
            flow,
            start_pps: 1600.0,
            end_pps: 100.0,
            size: 1250,
            start: Duration::from_secs(5),
            stop: Duration::from_secs(10),
        },
    );

    let mapper = QueueToneMapper::default();
    let mut plan = FrequencyPlan::new(500.0, 800.0, 100.0);
    let set = plan
        .allocate("s1", QueueToneMapper::SLOTS)
        .expect("plan capacity");
    let mut scene = Scene::quiet(SAMPLE_RATE);
    let mut device = SoundingDevice::new("s1", set.clone(), Pos::ORIGIN);
    let mut ctl = MdnController::new(Microphone::measurement(), Pos::new(0.5, 0.3, 0.0));
    ctl.bind_device("s1", set);

    let mut at = SAMPLE_INTERVAL;
    while at <= total {
        net.schedule_tick(at, at.as_millis() as u64);
        at += SAMPLE_INTERVAL;
    }

    let mut queue_series = Vec::new();
    let mut true_bands = Vec::new();
    while let RunOutcome::Tick { at, .. } = net.run_until(total + SAMPLE_INTERVAL) {
        let q = net.switch(topo.s1).queue_len(1);
        queue_series.push((at.as_secs_f64(), q as f64));
        let band = mapper.band_of(q);
        true_bands.push((at.as_secs_f64(), band_code(band)));
        device
            .emit_slot(
                &mut scene,
                mapper.slot_of(band),
                at,
                Duration::from_millis(100),
            )
            .expect("queue tone");
    }
    net.drain();

    // Decode the whole soundtrack post-hoc (the monitor is passive).
    let monitor = QueueMonitor::new("s1", mapper);
    let events = ctl.listen(
        &scene,
        Window::from_start(total + Duration::from_millis(200)),
    );
    let reports = monitor.reports(&events);
    let decoded_bands: Vec<(f64, u8)> = reports
        .iter()
        .map(|r| (r.time.as_secs_f64(), band_code(r.band)))
        .collect();

    // Accuracy: for each emitted tone, does some decoded report within
    // ±160 ms agree?
    let matched = true_bands
        .iter()
        .filter(|&&(t, b)| {
            decoded_bands
                .iter()
                .any(|&(dt, db)| (dt - t).abs() < 0.16 && db == b)
        })
        .count();
    let band_accuracy = matched as f64 / true_bands.len().max(1) as f64;

    let congestion_onset_s = monitor.congestion_onset(&events).map(|d| d.as_secs_f64());
    let drain_s = monitor
        .congestion_onset(&events)
        .and_then(|onset| monitor.drain_time(&events, onset))
        .map(|d| d.as_secs_f64());

    QueueMonitorResult {
        queue_series,
        true_bands,
        decoded_bands,
        band_accuracy,
        congestion_onset_s,
        drain_s,
        tone_tracks: queue_tone_tracks(&ctl, &scene, total),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5a_load_balancer_splits_on_congestion_tone() {
        let r = load_balancing();
        let t = r.rebalance_time_s.expect("congestion tone never heard");
        // The ramp crosses 10 Mbps ≈ 800 pps at t ≈ 3.4 s; the queue then
        // needs a moment to exceed 75 packets.
        assert!(t > 2.0 && t < 9.0, "rebalanced at {t}");
        assert!(r.peak_before > 75.0, "peak before split {}", r.peak_before);
        assert!(
            r.peak_after_drain < 76.0,
            "queues stayed congested after split: {}",
            r.peak_after_drain
        );
        assert!(r.delivered > 1000);
        // The bottom path carries traffic after the split.
        assert!(
            r.bottom_path_packets > 100,
            "bottom path saw {}",
            r.bottom_path_packets
        );
    }

    #[test]
    fn fig5c_decoded_bands_track_queue() {
        let r = queue_monitor();
        assert!(r.band_accuracy > 0.85, "band accuracy {}", r.band_accuracy);
        let onset = r.congestion_onset_s.expect("never heard High");
        let drain = r.drain_s.expect("never heard Low after High");
        assert!(drain > onset);
        // The true queue actually crossed both thresholds.
        let peak = r.queue_series.iter().map(|&(_, q)| q).fold(0.0, f64::max);
        assert!(peak > 75.0, "queue never congested (peak {peak})");
        let last = r.queue_series.last().unwrap().1;
        assert!(last < 25.0, "queue never drained (final {last})");
    }
}
