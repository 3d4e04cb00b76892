//! Figures 6 and 7 — server fan failure detection.
//!
//! Figure 6: mel-scaled spectrograms of a server with and without a
//! functioning fan, in a datacenter and in an office — the fan's spectral
//! lines are visible in both rooms.
//!
//! Figure 7: the amplitude-difference statistic. On-vs-off differences
//! (the paper's blue line) sit far above on-vs-on differences (the red
//! dashed line) in both rooms, so a threshold between them detects the
//! failure.

use super::SAMPLE_RATE;
use mdn_acoustics::ambient::AmbientProfile;
use mdn_acoustics::medium::Pos;
use mdn_acoustics::mic::Microphone;
use mdn_acoustics::scene::Scene;
use mdn_acoustics::Window;
use mdn_audio::mel::MelSpectrogram;
use mdn_audio::spectrogram::{Spectrogram, StftConfig};
use mdn_audio::Signal;
use mdn_core::apps::fanfail::FanFailureDetector;
use mdn_core::fan::{FanModel, FanState};
use serde::Serialize;
use std::time::Duration;

const WINDOW: Duration = Duration::from_secs(2);
const MIC_DISTANCE_M: f64 = 0.3;

/// Capture `state` fan sound in `ambient`, seeded.
fn capture(ambient: &AmbientProfile, state: FanState, seed: u64) -> Signal {
    let mut scene = Scene::new(SAMPLE_RATE, ambient.clone());
    scene.set_ambient_seed(seed);
    let fan = FanModel {
        state,
        ..FanModel::default()
    };
    scene.add(
        Pos::ORIGIN,
        Duration::ZERO,
        fan.render(WINDOW, SAMPLE_RATE, seed ^ 0xFA4),
        "server",
    );
    scene.capture(
        &Microphone::measurement(),
        Pos::new(MIC_DISTANCE_M, 0.0, 0.0),
        Window::from_start(WINDOW),
    )
}

/// One Figure 6 panel: mean mel-band energies of a capture.
#[derive(Debug, Clone, Serialize)]
pub struct FanPanel {
    /// Room name.
    pub room: String,
    /// Fan state rendered ("on" / "off").
    pub fan: String,
    /// Mel band centre frequencies, Hz.
    pub centers_hz: Vec<f64>,
    /// Mean energy per band over the capture.
    pub band_energy: Vec<f64>,
}

/// Result of the Figure 6 experiment: the four panels plus the
/// line-visibility check.
#[derive(Debug, Clone, Serialize)]
pub struct FanSpectrogramResult {
    /// The four panels (datacenter/office × on/off).
    pub panels: Vec<FanPanel>,
    /// Energy ratio at the blade-pass band, fan-on over fan-off, per room:
    /// `(room, ratio)` — ≫ 1 means the fan lines are visible.
    pub blade_pass_ratio: Vec<(String, f64)>,
}

/// Run Figure 6.
pub fn fan_spectrograms() -> FanSpectrogramResult {
    let fan = FanModel::default();
    let bpf = fan.blade_pass_hz();
    let mut panels = Vec::new();
    let mut blade_pass_ratio = Vec::new();
    for (room, ambient) in [
        ("datacenter", AmbientProfile::datacenter()),
        ("office", AmbientProfile::office()),
    ] {
        let mut on_energy_at_bpf = 0.0f64;
        for (fan_label, state) in [("on", FanState::Healthy), ("off", FanState::Off)] {
            let cap = capture(&ambient, state, 42);
            let sg = Spectrogram::compute(&cap, &StftConfig::default_for(SAMPLE_RATE));
            let mel = MelSpectrogram::from_spectrogram(&sg, 64, 50.0, 8_000.0);
            // Mean energy per band across frames.
            let nb = mel.num_bands();
            let mut band_energy = vec![0.0f64; nb];
            for t in 0..mel.num_frames() {
                for (b, e) in band_energy.iter_mut().zip(mel.frame(t)) {
                    *b += e;
                }
            }
            for b in &mut band_energy {
                *b /= mel.num_frames().max(1) as f64;
            }
            // Track the blade-pass band's energy for the visibility ratio.
            let band = mel
                .centers_hz()
                .iter()
                .enumerate()
                .min_by(|a, b| (a.1 - bpf).abs().total_cmp(&(b.1 - bpf).abs()))
                .map(|(i, _)| i)
                .unwrap();
            if fan_label == "on" {
                on_energy_at_bpf = band_energy[band];
            } else {
                let off = band_energy[band].max(1e-18);
                blade_pass_ratio.push((room.to_string(), on_energy_at_bpf / off));
            }
            panels.push(FanPanel {
                room: room.to_string(),
                fan: fan_label.to_string(),
                centers_hz: mel.centers_hz().to_vec(),
                band_energy,
            });
        }
    }
    FanSpectrogramResult {
        panels,
        blade_pass_ratio,
    }
}

/// Result of the Figure 7 experiment for one room.
#[derive(Debug, Clone, Serialize)]
pub struct FanFailureRoom {
    /// Room name.
    pub room: String,
    /// On-vs-baseline scores for fresh healthy captures (the red dashed
    /// line's distribution).
    pub on_scores: Vec<f64>,
    /// Off-vs-baseline scores (the blue line's distribution).
    pub off_scores: Vec<f64>,
    /// The calibrated alarm threshold.
    pub threshold: f64,
    /// True when every off score clears the threshold and no on score does.
    pub separated: bool,
}

/// Result of the Figure 7 experiment.
#[derive(Debug, Clone, Serialize)]
pub struct FanFailureResult {
    /// Per-room distributions.
    pub rooms: Vec<FanFailureRoom>,
}

/// Run Figure 7: score distributions in both rooms.
pub fn fan_failure(trials: usize) -> FanFailureResult {
    let mut rooms = Vec::new();
    for (room, ambient) in [
        ("datacenter", AmbientProfile::datacenter()),
        ("office", AmbientProfile::office()),
    ] {
        let healthy: Vec<Signal> = (0..6)
            .map(|s| capture(&ambient, FanState::Healthy, s))
            .collect();
        let mut det = FanFailureDetector::new();
        det.calibrate(&healthy).expect("calibration");
        let threshold = det.threshold().unwrap();
        let on_scores: Vec<f64> = (100..100 + trials as u64)
            .map(|s| det.score(&capture(&ambient, FanState::Healthy, s)))
            .collect();
        let off_scores: Vec<f64> = (200..200 + trials as u64)
            .map(|s| det.score(&capture(&ambient, FanState::Off, s)))
            .collect();
        let separated =
            off_scores.iter().all(|&s| s > threshold) && on_scores.iter().all(|&s| s <= threshold);
        rooms.push(FanFailureRoom {
            room: room.to_string(),
            on_scores,
            off_scores,
            threshold,
            separated,
        });
    }
    FanFailureResult { rooms }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_fan_lines_visible_in_both_rooms() {
        let r = fan_spectrograms();
        assert_eq!(r.panels.len(), 4);
        for (room, ratio) in &r.blade_pass_ratio {
            assert!(*ratio > 2.0, "{room}: blade-pass on/off ratio only {ratio}");
        }
    }

    #[test]
    fn fig7_distributions_separate_in_both_rooms() {
        let r = fan_failure(5);
        for room in &r.rooms {
            assert!(
                room.separated,
                "{}: on {:?} off {:?} thr {}",
                room.room, room.on_scores, room.off_scores, room.threshold
            );
            let max_on = room.on_scores.iter().cloned().fold(0.0, f64::max);
            let min_off = room
                .off_scores
                .iter()
                .cloned()
                .fold(f64::INFINITY, f64::min);
            assert!(min_off > max_on, "{}: overlap", room.room);
        }
    }
}
