//! Figure 4 — Music-Defined Telemetry.
//!
//! (a/b) Heavy-hitter detection: 32 light Poisson flows plus one heavy
//! flow cross a switch; the switch sonifies each forwarded packet's flow
//! hash (rate-limited per slot); the controller counts tones per slot and
//! flags the heavy one. Variant (b) plays the pop-song interference track
//! in the room.
//!
//! (c/d) Port-scan detection: a scanner sweeps 1024 destination ports; the
//! switch sonifies destination ports; the scan appears as a monotone slot
//! sweep (log-shaped on the mel axis) and as a distinct-slots alert.
//! Variant (d) adds the music again.

use super::SAMPLE_RATE;
use mdn_acoustics::medium::Pos;
use mdn_acoustics::mic::Microphone;
use mdn_acoustics::scene::Scene;
use mdn_acoustics::Window;
use mdn_audio::mel::MelSpectrogram;
use mdn_audio::noise::MusicNoise;
use mdn_audio::spectrogram::{Spectrogram, StftConfig};
use mdn_core::apps::heavyhitter::{FlowToneMapper, HeavyHitterDetector};
use mdn_core::apps::portscan::{PortScanDetector, PortToneMapper};
use mdn_core::controller::MdnController;
use mdn_core::encoder::SoundingDevice;
use mdn_core::freqplan::FrequencyPlan;
use mdn_net::ftable::{Action, Match, Rule};
use mdn_net::network::Network;
use mdn_net::packet::{FlowKey, Ip};
use mdn_net::topology;
use mdn_net::traffic::TrafficPattern;
use serde::Serialize;
use std::time::Duration;

/// Telemetry slot count used by both experiments.
const SLOTS: usize = 64;

/// Result of the heavy-hitter experiment.
#[derive(Debug, Clone, Serialize)]
pub struct HeavyHitterResult {
    /// Whether background music was playing.
    pub with_noise: bool,
    /// The slot the heavy flow hashes to.
    pub heavy_slot: usize,
    /// Collapsed tone counts per slot over the run: `(slot, count)`.
    pub slot_counts: Vec<(usize, usize)>,
    /// Slots the detector flagged as heavy hitters.
    pub flagged_slots: Vec<usize>,
    /// True when the heavy slot was flagged and no light slot was.
    pub correct: bool,
}

/// Run Figure 4a (`with_noise = false`) / 4b (`with_noise = true`).
pub fn heavy_hitter(with_noise: bool) -> HeavyHitterResult {
    let total = Duration::from_secs(8);
    let mut net = Network::new();
    let topo = topology::line(&mut net, 50_000_000, Duration::from_micros(50));
    net.switch_mut(topo.s1).enable_tap();
    net.install_rule(
        topo.s1,
        Rule {
            mat: Match::ANY,
            priority: 0,
            action: Action::Forward(1),
        },
    );

    let sink = Ip::v4(10, 0, 0, 2);
    // 32 light Poisson flows, ~2 pps each.
    for i in 0..32u16 {
        let flow = FlowKey::udp(Ip::v4(10, 0, 0, 1), 20_000 + i, sink, 30_000 + i);
        net.attach_generator(
            topo.h1,
            TrafficPattern::Poisson {
                flow,
                mean_pps: 2.0,
                size: 400,
                start: Duration::ZERO,
                stop: total,
                seed: 1000 + i as u64,
            },
        );
    }
    // One heavy flow: 80 pps — far more than its fair share.
    let heavy = FlowKey::udp(Ip::v4(10, 0, 0, 1), 55_555, sink, 9_999);
    net.attach_generator(
        topo.h1,
        TrafficPattern::Cbr {
            flow: heavy,
            pps: 80.0,
            size: 1200,
            start: Duration::ZERO,
            stop: total,
        },
    );
    net.drain();

    // Post-hoc sonification from the tap (telemetry never feeds back into
    // forwarding, so building the timeline after the fact is exact).
    // 60 Hz slot spacing: telemetry slots sound *simultaneously*, and at
    // the paper's 20 Hz minimum simultaneous neighbours interact; tripling
    // the spacing buys clean concurrent detection for only 3.8 kHz of band.
    let mut plan = FrequencyPlan::new(500.0, 500.0 + 60.0 * SLOTS as f64, 60.0);
    let set = plan.allocate("s1", SLOTS).expect("plan capacity");
    let mut scene = Scene::quiet(SAMPLE_RATE);
    let mut device = SoundingDevice::new("s1", set.clone(), Pos::ORIGIN);
    let mut mapper = FlowToneMapper::new(SLOTS, Duration::from_millis(150));
    let heavy_slot = mapper.slot_of(&heavy);
    let tap = net.switch(topo.s1).tap.as_ref().unwrap().clone();
    for rec in &tap {
        if let Some(slot) = mapper.on_packet(&rec.flow, rec.at) {
            device
                .emit(&mut scene, slot, rec.at)
                .expect("telemetry tone");
        }
    }
    if with_noise {
        let music = MusicNoise::default().render(total, SAMPLE_RATE);
        scene.add(
            Pos::new(2.0, 1.0, 0.0),
            Duration::ZERO,
            music,
            "cheap-thrills-alike",
        );
    }

    let mut ctl = MdnController::new(Microphone::measurement(), Pos::new(0.5, 0.3, 0.0));
    ctl.bind_device("s1", set);
    let events = ctl.listen(&scene, Window::from_start(total));

    let det = HeavyHitterDetector::new("s1", Duration::from_secs(1), 5);
    let totals = det.slot_totals(&events);
    let mut slot_counts: Vec<(usize, usize)> = totals.iter().map(|(&s, &c)| (s, c)).collect();
    slot_counts.sort_unstable();
    // Persistent flagging: colliding light flows may burst over threshold
    // in one interval; only the genuinely heavy flow stays over it.
    let flagged = det.persistent_hitters(&events, 0.5);
    let correct = flagged.contains(&heavy_slot) && flagged.iter().all(|&s| s == heavy_slot);

    HeavyHitterResult {
        with_noise,
        heavy_slot,
        slot_counts,
        flagged_slots: flagged,
        correct,
    }
}

/// Result of the port-scan experiment.
#[derive(Debug, Clone, Serialize)]
pub struct PortScanResult {
    /// Whether background music was playing.
    pub with_noise: bool,
    /// Scan alerts: `(window_start_s, distinct_slots, monotonicity)`.
    pub alerts: Vec<(f64, usize, f64)>,
    /// Whether the scan was detected at all.
    pub detected: bool,
    /// The mel-spectrogram ridge: `(time_s, mel_band)` per frame with
    /// enough energy — the "clear logarithmic line" of Figure 4c.
    pub mel_ridge: Vec<(f64, usize)>,
    /// Fraction of consecutive ridge points that ascend (sweep shape).
    pub ridge_monotonicity: f64,
}

/// Run Figure 4c (`with_noise = false`) / 4d (`with_noise = true`).
pub fn port_scan(with_noise: bool) -> PortScanResult {
    let total = Duration::from_secs(15);
    let mut net = Network::new();
    let topo = topology::line(&mut net, 50_000_000, Duration::from_micros(50));
    net.switch_mut(topo.s1).enable_tap();
    net.install_rule(
        topo.s1,
        Rule {
            mat: Match::ANY,
            priority: 0,
            action: Action::Forward(1),
        },
    );
    // A full-range sweep: every destination port, 200 µs apart (a naive
    // but fast scanner), so the 64-slot port mapping sweeps all its slots.
    let template = FlowKey::tcp(Ip::v4(10, 0, 0, 9), 31_337, Ip::v4(10, 0, 0, 2), 0);
    net.attach_generator(
        topo.h1,
        TrafficPattern::PortScan {
            template,
            first_port: 1,
            last_port: 65_535,
            interval: Duration::from_micros(200),
            size: 60,
            start: Duration::from_millis(500),
        },
    );
    net.drain();

    let mut plan = FrequencyPlan::new(500.0, 500.0 + 60.0 * SLOTS as f64, 60.0);
    let set = plan.allocate("s1", SLOTS).expect("plan capacity");
    let mut scene = Scene::quiet(SAMPLE_RATE);
    let mut device = SoundingDevice::new("s1", set.clone(), Pos::ORIGIN);
    let mapper = PortToneMapper::new(SLOTS);
    // Sonify on slot *transitions*: 1024 probes compress to 64 tones, which
    // respects the 30 ms hardware floor (16 probes × 5 ms = 80 ms per slot).
    let tap = net.switch(topo.s1).tap.as_ref().unwrap().clone();
    let mut last_slot = None;
    for rec in &tap {
        let slot = mapper.slot_of(rec.flow.dst_port);
        if last_slot != Some(slot) {
            device
                .emit_slot(&mut scene, slot, rec.at, Duration::from_millis(60))
                .expect("scan tone");
            last_slot = Some(slot);
        }
    }
    if with_noise {
        let music = MusicNoise::default().render(total, SAMPLE_RATE);
        scene.add(
            Pos::new(2.0, 1.0, 0.0),
            Duration::ZERO,
            music,
            "cheap-thrills-alike",
        );
    }

    let mut ctl = MdnController::new(Microphone::measurement(), Pos::new(0.5, 0.3, 0.0));
    ctl.bind_device("s1", set.clone());
    let events = ctl.listen(&scene, Window::from_start(total));
    // ~205 ms per slot (1024 ports × 200 µs): a 4 s window sees ~19 slots.
    let det = PortScanDetector::new("s1", Duration::from_secs(4), 12);
    let alerts: Vec<(f64, usize, f64)> = det
        .analyze(&events)
        .iter()
        .map(|a| {
            (
                a.window_start.as_secs_f64(),
                a.distinct_slots,
                a.monotonicity,
            )
        })
        .collect();

    // The figure itself: the mel ridge of the captured audio.
    let capture = ctl.capture(&scene, Window::from_start(total));
    let sg = Spectrogram::compute(&capture, &StftConfig::default_for(SAMPLE_RATE));
    let lo = set.freqs.first().unwrap() - 100.0;
    let hi = set.freqs.last().unwrap() + 100.0;
    let mel = MelSpectrogram::from_spectrogram(&sg, 64, lo.max(50.0), hi);
    let floor = 1e-7;
    let mel_ridge: Vec<(f64, usize)> = mel
        .ridge(floor)
        .into_iter()
        .enumerate()
        .filter_map(|(t, band)| band.map(|b| (mel.times()[t], b)))
        .collect();
    let ascending = mel_ridge.windows(2).filter(|w| w[1].1 >= w[0].1).count();
    let ridge_monotonicity = if mel_ridge.len() > 1 {
        ascending as f64 / (mel_ridge.len() - 1) as f64
    } else {
        0.0
    };

    PortScanResult {
        with_noise,
        detected: !alerts.is_empty(),
        alerts,
        mel_ridge,
        ridge_monotonicity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4a_heavy_hitter_clean() {
        let r = heavy_hitter(false);
        assert!(
            r.correct,
            "flagged {:?}, heavy slot {}",
            r.flagged_slots, r.heavy_slot
        );
        let heavy_count = r
            .slot_counts
            .iter()
            .find(|&&(s, _)| s == r.heavy_slot)
            .map_or(0, |&(_, c)| c);
        let max_light = r
            .slot_counts
            .iter()
            .filter(|&&(s, _)| s != r.heavy_slot)
            .map(|&(_, c)| c)
            .max()
            .unwrap_or(0);
        assert!(
            heavy_count > 2 * max_light,
            "heavy {heavy_count} vs light {max_light}"
        );
    }

    #[test]
    fn fig4b_heavy_hitter_survives_music() {
        let r = heavy_hitter(true);
        assert!(
            r.flagged_slots.contains(&r.heavy_slot),
            "heavy slot lost under music: {:?}",
            r.flagged_slots
        );
    }

    #[test]
    fn fig4c_port_scan_clean() {
        let r = port_scan(false);
        assert!(r.detected, "scan not detected");
        assert!(r.alerts.iter().any(|&(_, d, _)| d >= 12));
        assert!(
            r.alerts.iter().any(|&(_, _, m)| m > 0.8),
            "no monotone window: {:?}",
            r.alerts
        );
        assert!(r.mel_ridge.len() > 20);
        assert!(
            r.ridge_monotonicity > 0.7,
            "ridge monotonicity {}",
            r.ridge_monotonicity
        );
    }

    #[test]
    fn fig4d_port_scan_survives_music() {
        let r = port_scan(true);
        assert!(r.detected, "scan lost under music");
    }
}
