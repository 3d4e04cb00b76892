//! Ablation A1 — in-band monitoring vs Music-Defined monitoring.
//!
//! The paper's core motivation: "management traffic is still carried
//! in-band with data plane traffic [...] data plane or hardware failures
//! could cut off network management traffic as well". This experiment
//! quantifies it on the queue-monitoring task of Figure 5c:
//!
//! * the **in-band** monitor is a switch-local OpenFlow agent that sends a
//!   64-byte PortStats report to a collector every 300 ms — and the
//!   collector sits behind the same bottleneck link the reports describe,
//!   as in-band management inevitably does somewhere;
//! * the **MDN** monitor plays the 500/600/700 Hz queue band tone at the
//!   same cadence, out of band.
//!
//! When the queue congests, the in-band reports drop at the very queue
//! they are reporting on; the tones keep arriving.

use super::SAMPLE_RATE;
use mdn_acoustics::medium::Pos;
use mdn_acoustics::mic::Microphone;
use mdn_acoustics::scene::Scene;
use mdn_acoustics::Window;
use mdn_core::apps::queuemon::{QueueMonitor, QueueToneMapper, SAMPLE_INTERVAL};
use mdn_core::controller::MdnController;
use mdn_core::encoder::SoundingDevice;
use mdn_core::freqplan::FrequencyPlan;
use mdn_net::ftable::{Action, Match, Rule};
use mdn_net::network::{Network, RunOutcome};
use mdn_net::packet::{FlowKey, Ip};
use mdn_net::traffic::TrafficPattern;
use serde::Serialize;
use std::time::Duration;

/// Result of the monitoring ablation.
#[derive(Debug, Clone, Serialize)]
pub struct MonitoringAblationResult {
    /// Monitoring reports attempted (same count for both channels).
    pub reports_sent: usize,
    /// In-band reports that reached the collector.
    pub inband_delivered: usize,
    /// In-band reports sent *while the monitored queue was congested*
    /// (>75 packets) that reached the collector.
    pub inband_delivered_during_congestion: usize,
    /// Reports sent during congestion (denominator for the above).
    pub reports_during_congestion: usize,
    /// MDN tone reports the controller decoded.
    pub mdn_heard: usize,
    /// MDN reports decoded from tones sent during congestion.
    pub mdn_heard_during_congestion: usize,
    /// Extra bytes the in-band monitor pushed through the congested link.
    pub inband_bytes_on_bottleneck: u64,
    /// Management bytes MDN added to the data network (always zero — the
    /// MP frames ride the switch→Pi wire and the air).
    pub mdn_bytes_on_network: u64,
}

/// Run the ablation.
pub fn monitoring_under_congestion() -> MonitoringAblationResult {
    let total = Duration::from_secs(12);
    const REPORT_SIZE: u32 = 64; // PortStatsReply (38 B) + L2/L3 overhead

    // Topology: h1 →(1 Gbps) s1 →(10 Mbps, the bottleneck) s2 → {h2, h_ctl}.
    // The OF agent h_agent hangs off s1; its reports must cross the
    // bottleneck to reach the collector h_ctl.
    let mut net = Network::new();
    let h1 = net.add_host("h1", Ip::v4(10, 0, 0, 1));
    let h2 = net.add_host("h2", Ip::v4(10, 0, 0, 2));
    let h_ctl = net.add_host("h_ctl", Ip::v4(10, 0, 0, 9));
    net.host_mut(h_ctl).enable_rx_log();
    let h_agent = net.add_host("h_agent", Ip::v4(10, 0, 0, 8));
    let s1 = net.add_switch("s1", 3);
    let s2 = net.add_switch("s2", 3);
    let fast = 1_000_000_000;
    net.connect(h1, 0, s1, 0, fast, Duration::from_micros(20));
    net.connect(s1, 1, s2, 0, 10_000_000, Duration::from_micros(20));
    net.connect(h_agent, 0, s1, 2, fast, Duration::from_micros(20));
    net.connect(h2, 0, s2, 1, fast, Duration::from_micros(20));
    net.connect(h_ctl, 0, s2, 2, fast, Duration::from_micros(20));
    net.install_rule(
        s1,
        Rule {
            mat: Match::dst(Ip::v4(10, 0, 0, 2)),
            priority: 10,
            action: Action::Forward(1),
        },
    );
    net.install_rule(
        s1,
        Rule {
            mat: Match::dst(Ip::v4(10, 0, 0, 9)),
            priority: 10,
            action: Action::Forward(1),
        },
    );
    net.install_rule(
        s2,
        Rule {
            mat: Match::dst(Ip::v4(10, 0, 0, 2)),
            priority: 10,
            action: Action::Forward(1),
        },
    );
    net.install_rule(
        s2,
        Rule {
            mat: Match::dst(Ip::v4(10, 0, 0, 9)),
            priority: 10,
            action: Action::Forward(2),
        },
    );

    // The Figure 5c triangular overload.
    let data = FlowKey::udp(Ip::v4(10, 0, 0, 1), 7000, Ip::v4(10, 0, 0, 2), 8000);
    net.attach_generator(
        h1,
        TrafficPattern::Ramp {
            flow: data,
            start_pps: 200.0,
            end_pps: 1600.0,
            size: 1250,
            start: Duration::ZERO,
            stop: Duration::from_secs(5),
        },
    );
    net.attach_generator(
        h1,
        TrafficPattern::Ramp {
            flow: data,
            start_pps: 1600.0,
            end_pps: 100.0,
            size: 1250,
            start: Duration::from_secs(5),
            stop: Duration::from_secs(10),
        },
    );

    // Acoustics for the MDN half.
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

    // Per report: (sent_at, queue_len_at_send, src_port used as sequence).
    let mut reports: Vec<(Duration, usize, u16)> = Vec::new();
    let mut seq: u16 = 20_000;
    while let RunOutcome::Tick { at, .. } = net.run_until(total + SAMPLE_INTERVAL) {
        let q = net.switch(s1).queue_len(1);
        // In-band: the agent sends one report packet through the
        // bottleneck to the collector.
        let report_flow = FlowKey::udp(Ip::v4(10, 0, 0, 8), seq, Ip::v4(10, 0, 0, 9), 9099);
        net.attach_generator(
            h_agent,
            TrafficPattern::Cbr {
                flow: report_flow,
                pps: 1000.0,
                size: REPORT_SIZE,
                start: at,
                stop: at + Duration::from_millis(1),
            },
        );
        // Out-of-band: the queue band tone.
        let band = mapper.band_of(q);
        device
            .emit_slot(
                &mut scene,
                mapper.slot_of(band),
                at,
                Duration::from_millis(100),
            )
            .expect("queue tone");
        reports.push((at, q, seq));
        seq += 1;
    }
    net.drain();

    // In-band outcome: which report sequence numbers reached the collector?
    let delivered: std::collections::HashSet<u16> = net
        .host(h_ctl)
        .rx_log
        .iter()
        .map(|r| r.flow.src_port)
        .collect();
    // MDN outcome: decode all tones post-hoc.
    let monitor = QueueMonitor::new("s1", mapper);
    let events = ctl.listen(
        &scene,
        Window::from_start(total + Duration::from_millis(200)),
    );
    let decoded = monitor.reports(&events);
    // A tone sent at `at` is heard if some decoded report lands within
    // ±160 ms with the right band.
    let heard = |at: Duration, q: usize| {
        let want = mapper.band_of(q);
        decoded
            .iter()
            .any(|r| (r.time.as_secs_f64() - at.as_secs_f64()).abs() < 0.16 && r.band == want)
    };

    let congested = |q: usize| q > 75;
    let reports_during_congestion = reports.iter().filter(|&&(_, q, _)| congested(q)).count();
    let inband_delivered = reports
        .iter()
        .filter(|&&(_, _, s)| delivered.contains(&s))
        .count();
    let inband_delivered_during_congestion = reports
        .iter()
        .filter(|&&(_, q, s)| congested(q) && delivered.contains(&s))
        .count();
    let mdn_heard = reports.iter().filter(|&&(at, q, _)| heard(at, q)).count();
    let mdn_heard_during_congestion = reports
        .iter()
        .filter(|&&(at, q, _)| congested(q) && heard(at, q))
        .count();

    MonitoringAblationResult {
        reports_sent: reports.len(),
        inband_delivered,
        inband_delivered_during_congestion,
        reports_during_congestion,
        mdn_heard,
        mdn_heard_during_congestion,
        inband_bytes_on_bottleneck: reports.len() as u64 * REPORT_SIZE as u64,
        mdn_bytes_on_network: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inband_monitoring_fails_under_congestion_mdn_does_not() {
        let r = monitoring_under_congestion();
        assert!(
            r.reports_during_congestion >= 3,
            "queue never congested: {r:?}"
        );
        // MDN hears every report, congested or not.
        assert_eq!(r.mdn_heard, r.reports_sent, "MDN lost reports: {r:?}");
        assert_eq!(r.mdn_heard_during_congestion, r.reports_during_congestion);
        // The in-band channel loses reports exactly during congestion.
        assert!(
            r.inband_delivered_during_congestion < r.reports_during_congestion,
            "in-band monitoring unexpectedly survived congestion: {r:?}"
        );
        // Outside congestion the in-band channel works (the loss is not an
        // artifact of the setup).
        let ok_outside = r.inband_delivered - r.inband_delivered_during_congestion;
        let sent_outside = r.reports_sent - r.reports_during_congestion;
        assert!(
            ok_outside as f64 >= 0.9 * sent_outside as f64,
            "in-band broken even without congestion: {r:?}"
        );
    }
}
