//! Figure 3 — port knocking, end-to-end.
//!
//! The sender transmits TCP traffic to a protected port that the switch
//! drops; it also sends three knock packets. The switch sonifies each
//! knock's destination port (via its tap, standing in for the modified
//! firmware); the MDN controller's FSM hears the three tones in order and
//! installs the FlowMod that opens the port. Figure 3a is the
//! bytes-sent/bytes-received pair of curves; the unlock is where they meet.

use super::SAMPLE_RATE;
use mdn_acoustics::medium::Pos;
use mdn_acoustics::mic::Microphone;
use mdn_acoustics::scene::Scene;
use mdn_acoustics::Window;
use mdn_core::apps::portknock::PortKnockApp;
use mdn_core::controller::MdnController;
use mdn_core::encoder::SoundingDevice;
use mdn_core::freqplan::FrequencyPlan;
use mdn_net::network::{Network, RunOutcome};
use mdn_net::packet::{FlowKey, Ip};
use mdn_net::topology;
use mdn_net::traffic::TrafficPattern;
use mdn_proto::channel::{pump_to_switch, ControlChannel};
use serde::Serialize;
use std::time::Duration;

/// Parameters for the port-knocking run.
#[derive(Debug, Clone)]
pub struct PortKnockParams {
    /// Total experiment time.
    pub total: Duration,
    /// When the three knocks are sent.
    pub knock_times: [Duration; 3],
    /// The protected TCP port.
    pub protected_port: u16,
    /// Data rate of the blocked sender, packets/s.
    pub data_pps: f64,
}

impl Default for PortKnockParams {
    fn default() -> Self {
        Self {
            total: Duration::from_secs(20),
            knock_times: [
                Duration::from_secs(8),
                Duration::from_millis(9_000),
                Duration::from_millis(10_000),
            ],
            protected_port: 8080,
            data_pps: 100.0,
        }
    }
}

/// Result of the port-knocking experiment.
#[derive(Debug, Clone, Serialize)]
pub struct PortKnockResult {
    /// When the controller installed the opening FlowMod (seconds), if the
    /// unlock happened.
    pub unlock_time_s: Option<f64>,
    /// Bytes the sender offered per 500 ms bucket: `(t, bytes)`.
    pub sent_series: Vec<(f64, f64)>,
    /// Bytes the receiver got per 500 ms bucket: `(t, bytes)`.
    pub received_series: Vec<(f64, f64)>,
    /// Bytes received before the unlock (must be 0).
    pub bytes_before_unlock: u64,
    /// Bytes received in total.
    pub bytes_received: u64,
    /// Times at which knock tones were emitted (seconds).
    pub knock_tone_times_s: Vec<f64>,
    /// Figure 3b: the mel-spectrogram ridge of the knock band,
    /// `(time_s, mel_band)` for frames with tone energy — three marks, one
    /// per knock.
    pub mel_ridge: Vec<(f64, usize)>,
}

const TICK: Duration = Duration::from_millis(300);
const KNOCK_PORTS: [u16; 3] = [7001, 7002, 7003];

/// Run the Figure 3 experiment.
pub fn port_knocking(params: &PortKnockParams) -> PortKnockResult {
    let mut net = Network::new();
    let topo = topology::line(&mut net, 10_000_000, Duration::from_micros(50));
    net.switch_mut(topo.s1).enable_tap();
    net.host_mut(topo.h2).enable_rx_log();

    // Acoustic side: the switch owns three knock slots (one per knock
    // port); the controller's FSM expects them in order.
    let mut plan = FrequencyPlan::audible_default();
    let set = plan.allocate("s1", 3).expect("plan capacity");
    let mut scene = Scene::quiet(SAMPLE_RATE);
    let mut device = SoundingDevice::new("s1", set.clone(), Pos::ORIGIN);
    let mut ctl = MdnController::new(Microphone::measurement(), Pos::new(0.5, 0.3, 0.0));
    ctl.bind_device("s1", set);
    let mut app = PortKnockApp::new("s1", vec![0, 1, 2], params.protected_port, 1);
    net.install_rule(topo.s1, app.baseline_drop_rule());
    let mut chan = ControlChannel::new();

    // Blocked data traffic for the whole run.
    let data_flow = FlowKey::tcp(
        Ip::v4(10, 0, 0, 1),
        42_000,
        Ip::v4(10, 0, 0, 2),
        params.protected_port,
    );
    net.attach_generator(
        topo.h1,
        TrafficPattern::Cbr {
            flow: data_flow,
            pps: params.data_pps,
            size: 1000,
            start: Duration::ZERO,
            stop: params.total,
        },
    );
    // The three knock packets (single-shot CBR bursts).
    for (i, &t) in params.knock_times.iter().enumerate() {
        let flow = FlowKey::tcp(
            Ip::v4(10, 0, 0, 1),
            42_001,
            Ip::v4(10, 0, 0, 2),
            KNOCK_PORTS[i],
        );
        net.attach_generator(
            topo.h1,
            TrafficPattern::Cbr {
                flow,
                pps: 1000.0,
                size: 64,
                start: t,
                stop: t + Duration::from_millis(1),
            },
        );
    }

    // Tick schedule for the whole run.
    let mut at = TICK;
    while at <= params.total {
        net.schedule_tick(at, at.as_millis() as u64);
        at += TICK;
    }

    let mut tap_cursor = 0usize;
    let mut unlock_time = None;
    let mut knock_tone_times = Vec::new();
    while let RunOutcome::Tick { at, .. } = net.run_until(params.total + TICK) {
        // 1. Sonify fresh tap records for knock ports at their
        //    actual arrival times.
        let tap_len = net.switch(topo.s1).tap.as_ref().map_or(0, Vec::len);
        for idx in tap_cursor..tap_len {
            let rec = net.switch(topo.s1).tap.as_ref().unwrap()[idx];
            if let Some(slot) = KNOCK_PORTS.iter().position(|&p| p == rec.flow.dst_port) {
                device
                    .emit_slot(&mut scene, slot, rec.at, Duration::from_millis(100))
                    .expect("knock tone");
                knock_tone_times.push(rec.at.as_secs_f64());
            }
        }
        tap_cursor = tap_len;
        // 2. Listen one tick behind (tones already in the scene),
        //    with overlap so boundary tones aren't clipped.
        if at >= TICK * 2 {
            let from = at - TICK * 2;
            let events = ctl.listen(&scene, Window::new(from, TICK + Duration::from_millis(150)));
            // 3. Feed the FSM; deliver any FlowMod over the control
            //    channel, through the real wire format.
            if let Some(msg) = app.on_events(&events) {
                chan.send_to_switch(&msg);
                pump_to_switch(&mut chan, &mut net, topo.s1);
                unlock_time = Some(at.as_secs_f64());
            }
        }
    }
    net.drain();

    let bucket = Duration::from_millis(500);
    let received =
        mdn_net::stats::rx_bytes_per_interval(&net.host(topo.h2).rx_log, bucket, params.total);
    // "Sent" = data-flow arrivals at the switch (the tap sees them whether
    // or not the policy then drops them).
    let tap = net.switch(topo.s1).tap.as_ref().unwrap();
    let nbuckets = (params.total.as_secs_f64() / bucket.as_secs_f64()).ceil() as usize;
    let mut sent = vec![0.0f64; nbuckets];
    for rec in tap {
        if rec.flow.dst_port == params.protected_port && rec.at < params.total {
            sent[(rec.at.as_secs_f64() / bucket.as_secs_f64()) as usize] += 1000.0;
        }
    }
    let sent_series: Vec<(f64, f64)> = sent
        .iter()
        .enumerate()
        .map(|(i, &b)| (i as f64 * 0.5, b))
        .collect();

    let bytes_before_unlock = match unlock_time {
        Some(t) => net
            .host(topo.h2)
            .rx_log
            .iter()
            .filter(|r| r.at.as_secs_f64() < t - 1.0) // exclude in-flight fuzz
            .map(|r| r.size_bytes as u64)
            .sum(),
        None => net.host(topo.h2).rx_bytes,
    };

    // Figure 3b: the mel spectrogram of the knock soundtrack.
    let capture = ctl.capture(&scene, Window::from_start(params.total));
    let sg = mdn_audio::spectrogram::Spectrogram::compute(
        &capture,
        &mdn_audio::spectrogram::StftConfig::default_for(SAMPLE_RATE),
    );
    let mel = mdn_audio::mel::MelSpectrogram::from_spectrogram(&sg, 48, 200.0, 2_000.0);
    let mel_ridge: Vec<(f64, usize)> = mel
        .ridge(1e-7)
        .into_iter()
        .enumerate()
        .filter_map(|(t, band)| band.map(|b| (mel.times()[t], b)))
        .collect();

    PortKnockResult {
        unlock_time_s: unlock_time,
        sent_series,
        received_series: received.points,
        bytes_before_unlock,
        bytes_received: net.host(topo.h2).rx_bytes,
        knock_tone_times_s: knock_tone_times,
        mel_ridge,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knocking_opens_the_port_and_traffic_flows() {
        // (run length, knock times in ms, unlock window in s): the 8 s run,
        // and a 5 s run with knocks only 800 ms apart that must still unlock.
        let cases = [
            (8, [2_000, 3_000, 4_000], (4.0, 6.0)),
            (5, [1_000, 1_800, 2_600], (2.6, 4.0)),
        ];
        for (total_s, knock_ms, (lo, hi)) in cases {
            let params = PortKnockParams {
                total: Duration::from_secs(total_s),
                knock_times: knock_ms.map(Duration::from_millis),
                ..PortKnockParams::default()
            };
            let r = port_knocking(&params);
            let unlock = r.unlock_time_s.expect("port never unlocked");
            assert!(
                unlock > lo && unlock < hi,
                "{total_s} s run: unlock at {unlock}"
            );
            assert_eq!(
                r.bytes_before_unlock, 0,
                "{total_s} s run: traffic leaked before unlock"
            );
            assert!(
                r.bytes_received > 100_000,
                "{total_s} s run: only {} bytes after unlock",
                r.bytes_received
            );
            assert_eq!(r.knock_tone_times_s.len(), 3);
            // Sent curve is ~flat; received jumps from 0 after unlock.
            let sent_early: f64 = r.sent_series[..4].iter().map(|p| p.1).sum();
            assert!(sent_early > 0.0);
            let rx_early: f64 = r.received_series[..4].iter().map(|p| p.1).sum();
            assert_eq!(rx_early, 0.0);
            let rx_late: f64 = r
                .received_series
                .iter()
                .filter(|p| p.0 >= hi)
                .map(|p| p.1)
                .sum();
            assert!(
                rx_late > 0.0,
                "{total_s} s run: nothing received after {hi} s"
            );
        }
    }
}
