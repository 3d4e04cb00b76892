//! Property: a detector whose noise floors are continuously re-tuned by
//! the streaming [`AmbientEstimator`] stays honest under ambient drift —
//! for random starting levels, random dB-step random walks, and random
//! tone schedules, the false-positive rate stays bounded and every
//! seeded true tone keeps decoding.
//!
//! This is the closed-loop counterpart of the one-shot `calibrate`
//! contract: the paper's bench calibration fixes thresholds once, and a
//! bed that drifts louder afterwards would either flood the detector
//! with ghosts (floors too low) or swallow real tones (floors cranked in
//! panic). The estimator must track the bed — excluding the tones
//! themselves from the estimate — so neither failure mode appears at any
//! point along the walk.

use mdn_acoustics::ambient::AmbientProfile;
use mdn_acoustics::medium::Pos;
use mdn_acoustics::scene::Scene;
use mdn_audio::signal::Window;
use mdn_audio::synth::Tone;
use mdn_core::detector::{DetectorConfig, ToneDetector};
use mdn_core::selfheal::{AmbientEstimator, AmbientEstimatorConfig};
use proptest::prelude::*;
use std::time::Duration;

const SR: u32 = 44_100;
/// Candidate slots, 20 Hz spaced around 1 kHz — away from the office
/// bed's hum lines and pink low end.
const FREQS: [f64; 5] = [1000.0, 1020.0, 1040.0, 1060.0, 1080.0];
/// Seeded true-tone amplitude: several times any plausible re-tuned gate
/// at these frequencies, as a real MP emission would be.
const TONE_AMP: f64 = 0.02;
/// Analysis window per step.
const WINDOW: Duration = Duration::from_millis(400);

/// One drift step: the bed level moves by `delta_db`, the detector
/// listens to one window (with a tone mixed in when `slot` is `Some`),
/// and the estimator re-tunes the floors for the next step.
fn run_walk(
    seed: u64,
    base_db: f64,
    deltas: &[f64],
    schedule: &[Option<usize>],
) -> (u64, u64, Vec<bool>) {
    let mut det = ToneDetector::new(FREQS.to_vec());
    let mut est = AmbientEstimator::new(FREQS.len(), AmbientEstimatorConfig::default());

    let mut level = base_db;
    let (mut false_obs, mut opportunities) = (0u64, 0u64);
    let mut tone_decoded = Vec::new();
    for (t, (delta, slot)) in deltas.iter().zip(schedule).enumerate() {
        level = (level + delta).clamp(25.0, 60.0);
        let mut profile = AmbientProfile::office();
        profile.level_spl = level;
        let mut scene = Scene::new(SR, profile);
        scene.set_ambient_seed(seed.wrapping_add(t as u64));
        let mut sig = scene.render_window(Pos::ORIGIN, Window::from_start(WINDOW));
        if let Some(s) = slot {
            let tone = Tone::new(FREQS[*s], Duration::from_millis(250), TONE_AMP).render(SR);
            sig.mix_at(&tone, (SR as f64 * 0.05) as usize);
        }

        let obs = det.detect(&sig);
        // The first window runs on the factory floors — warm-up, not part
        // of the property. Everything after is the steady closed loop.
        if t > 0 {
            let frames = det.analyze(&sig).n_frames() as u64;
            opportunities += frames * FREQS.len() as u64;
            false_obs += obs.iter().filter(|o| Some(o.candidate) != *slot).count() as u64;
            if let Some(s) = slot {
                tone_decoded.push(obs.iter().any(|o| o.candidate == *s));
            }
        }

        est.observe(&det.analyze(&sig));
        det.set_noise_floor(&est.floors());
    }
    (false_obs, opportunities, tone_decoded)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn recalibrated_detector_bounds_ghosts_and_keeps_decoding(
        seed in any::<u64>(),
        base_db in 30.0f64..55.0,
        deltas in prop::collection::vec(-3.0f64..3.0, 8..9),
        slots in prop::collection::vec(prop::option::of(0usize..5), 8..9),
    ) {
        let (false_obs, opportunities, tone_decoded) =
            run_walk(seed, base_db, &deltas, &slots);
        prop_assert!(opportunities > 0, "walk produced no analysis frames");
        let fp_rate = false_obs as f64 / opportunities as f64;
        prop_assert!(
            fp_rate <= 0.05,
            "false-positive rate {fp_rate:.4} ({false_obs}/{opportunities}) above bound"
        );
        prop_assert!(
            tone_decoded.iter().all(|&d| d),
            "a seeded tone went undecoded along the walk: {tone_decoded:?}"
        );
    }

    /// Inversion — the loop matters: freezing the floors at their factory
    /// values while the same bed drifts to the top of the range must leak
    /// more ghosts than the re-tuned detector admits under the bound.
    /// (Run at the band floor, frame-relative gating off, so the bed is
    /// the only gate-keeper — the configuration one-shot calibration
    /// leaves you in when the room gets louder after the bench.)
    #[test]
    fn frozen_floors_leak_under_the_same_drift(seed in any::<u64>()) {
        let cfg = DetectorConfig {
            frame_rel_floor: 0.0,
            local_max_radius_hz: 0.0,
            ..DetectorConfig::default()
        };
        let det = ToneDetector::with_config(FREQS.to_vec(), cfg);
        let mut profile = AmbientProfile::office();
        profile.level_spl = 60.0;
        let mut scene = Scene::new(SR, profile);
        scene.set_ambient_seed(seed);
        let sig = scene.render_window(Pos::ORIGIN, Window::from_start(WINDOW));
        let obs = det.detect(&sig);
        let frames = det.analyze(&sig).n_frames();
        let fp_rate = obs.len() as f64 / (frames * FREQS.len()) as f64;
        prop_assert!(
            fp_rate > 0.05,
            "a 60 dB bed over factory floors should flood an ungated detector \
             (rate {fp_rate:.4})"
        );
    }
}
