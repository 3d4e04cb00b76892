//! The paper's quantitative claims, as parameter sweeps.
//!
//! * "a distance of approximately 20 Hz between frequencies is needed to
//!   accurately differentiate them" → [`spacing_sweep`];
//! * "the shortest possible length generated in our testbed was
//!   approximately 30 ms" → [`duration_sweep`] (how short can a tone get
//!   before detection degrades);
//! * "we could distinguish up to 1000 distinct frequencies played
//!   simultaneously" → [`capacity_sweep`];
//! * "we played sounds of at least 30 dB" → [`intensity_sweep`].

use super::SAMPLE_RATE;
use mdn_acoustics::ambient::AmbientProfile;
use mdn_acoustics::medium::Pos;
use mdn_acoustics::mic::Microphone;
use mdn_acoustics::scene::Scene;
use mdn_acoustics::Window;
use mdn_audio::signal::spl_to_amplitude;
use mdn_audio::synth::{render_mixture, Tone};
use mdn_core::detector::{DetectorConfig, ToneDetector};
use mdn_core::freqplan::FrequencyPlan;
use serde::Serialize;
use std::time::Duration;

/// One sweep point: parameter value → detection accuracy.
#[derive(Debug, Clone, Serialize)]
pub struct SweepPoint {
    /// The swept parameter's value.
    pub value: f64,
    /// Detection accuracy/recall in `[0, 1]`.
    pub accuracy: f64,
}

/// Result of a sweep.
#[derive(Debug, Clone, Serialize)]
pub struct SweepResult {
    /// What was swept.
    pub parameter: String,
    /// The measured points.
    pub points: Vec<SweepPoint>,
    /// The smallest parameter value whose accuracy reached 0.95 (the
    /// "knee" the paper's claim names), if any.
    pub knee: Option<f64>,
}

fn knee_of(points: &[SweepPoint]) -> Option<f64> {
    points.iter().find(|p| p.accuracy >= 0.95).map(|p| p.value)
}

/// Spacing sweep: two *simultaneous* equal-level tones `spacing` Hz apart,
/// analyzed with the paper's ~50 ms sample. The trial succeeds when the
/// spectrum resolves exactly two peaks, each near its true frequency — the
/// operation MDN needs when two switches sound at once. With a 50 ms
/// rectangular analysis window the Rayleigh-style resolution limit sits at
/// roughly 20–25 Hz, which is the paper's empirical spacing.
pub fn spacing_sweep(trials: usize) -> SweepResult {
    use mdn_audio::fft::FftPlanner;
    use mdn_audio::spectral::Spectrum;
    use mdn_audio::window::WindowKind;

    let spacings = [5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 40.0, 50.0];
    let mut planner = FftPlanner::new();
    let mut points = Vec::new();
    for &spacing in &spacings {
        let mut hits = 0usize;
        for t in 0..trials {
            let f0 = 600.0 + t as f64 * 137.0;
            let tones = [
                Tone::new(f0, Duration::from_millis(50), 0.1),
                Tone {
                    phase: 1.0 + t as f64,
                    ..Tone::new(f0 + spacing, Duration::from_millis(50), 0.1)
                },
            ];
            let sig = render_mixture(&tones, SAMPLE_RATE);
            let spec = Spectrum::compute(&sig, WindowKind::Rectangular, Some(16_384), &mut planner);
            let peaks = spec.peaks(0.03, spacing * 0.5);
            let near = |freq: f64| {
                peaks
                    .iter()
                    .any(|p| (p.freq_hz - freq).abs() < spacing * 0.45)
            };
            let in_band = peaks
                .iter()
                .filter(|p| (p.freq_hz - f0 - spacing / 2.0).abs() < 100.0)
                .count();
            if in_band == 2 && near(f0) && near(f0 + spacing) {
                hits += 1;
            }
        }
        points.push(SweepPoint {
            value: spacing,
            accuracy: hits as f64 / trials as f64,
        });
    }
    SweepResult {
        parameter: "tone spacing (Hz)".into(),
        knee: knee_of(&points),
        points,
    }
}

/// One duration sweep point.
#[derive(Debug, Clone, Serialize)]
pub struct DurationPoint {
    /// Requested tone length, ms.
    pub requested_ms: f64,
    /// Length the testbed speaker actually produced, ms (the paper: "the
    /// shortest possible length generated in our testbed was approximately
    /// 30 ms" — shorter requests are stretched to the hardware floor).
    pub produced_ms: f64,
    /// End-to-end detection rate through the full speaker→air→mic→detector
    /// pipeline (with the floor active).
    pub pipeline_accuracy: f64,
    /// Detection rate for a *raw* tone of exactly the requested length
    /// (floor bypassed) at a marginal SNR, with the paper's fixed ~50 ms
    /// analysis frame — why a hardware floor this size is harmless.
    pub raw_accuracy: f64,
}

/// Result of the duration sweep.
#[derive(Debug, Clone, Serialize)]
pub struct DurationSweepResult {
    /// The measured points, shortest request first.
    pub points: Vec<DurationPoint>,
}

/// Duration sweep: reproduce the 30 ms hardware floor and show the system
/// works across requested durations.
pub fn duration_sweep(trials: usize) -> DurationSweepResult {
    use mdn_acoustics::speaker::{Speaker, ToneRequest};
    let durations_ms = [5.0, 10.0, 20.0, 30.0, 50.0, 80.0, 100.0];
    let ambient = AmbientProfile::office();
    let speaker = Speaker::cheap();
    let mut points = Vec::new();
    for &ms in &durations_ms {
        let req_duration = Duration::from_secs_f64(ms / 1000.0);
        // The hardware floor, measured from the speaker model itself.
        let produced = speaker
            .shape(ToneRequest {
                freq_hz: 700.0,
                duration: req_duration,
                level_spl: 60.0,
            })
            .expect("in-band request")
            .duration;
        let mut pipeline_hits = 0usize;
        let mut raw_hits = 0usize;
        for t in 0..trials {
            let freq = 700.0 + t as f64 * 61.0;
            // Full pipeline: speaker enforces its floor.
            let det = ToneDetector::with_config(
                vec![freq],
                DetectorConfig {
                    min_magnitude: 1e-3,
                    ..DetectorConfig::default()
                },
            );
            let mut scene = Scene::new(SAMPLE_RATE, ambient.clone());
            scene.set_ambient_seed(t as u64);
            let sig = speaker
                .play(
                    ToneRequest {
                        freq_hz: freq,
                        duration: req_duration,
                        level_spl: 60.0,
                    },
                    SAMPLE_RATE,
                )
                .expect("in-band request");
            scene.add(Pos::ORIGIN, Duration::from_millis(100), sig, "dev");
            let cap = scene.capture(
                &Microphone::measurement(),
                Pos::new(0.5, 0.0, 0.0),
                Window::from_start(Duration::from_millis(300)),
            );
            if !det.detect(&cap).is_empty() {
                pipeline_hits += 1;
            }
            // Raw tone of exactly the requested length at a marginal SNR,
            // fixed ~50 ms analysis frame, calibrated floor.
            let mut scene = Scene::new(SAMPLE_RATE, ambient.clone());
            scene.set_ambient_seed(100 + t as u64);
            let tone = Tone::new(freq, req_duration, spl_to_amplitude(42.0));
            scene.add(
                Pos::ORIGIN,
                Duration::from_millis(100),
                tone.render(SAMPLE_RATE),
                "dev",
            );
            let cap = scene.capture(
                &Microphone::measurement(),
                Pos::new(0.5, 0.0, 0.0),
                Window::from_start(Duration::from_millis(300)),
            );
            let mut det = ToneDetector::with_config(
                vec![freq],
                DetectorConfig {
                    min_magnitude: 1e-5,
                    ..DetectorConfig::default()
                },
            );
            let mut noise_scene = Scene::new(SAMPLE_RATE, ambient.clone());
            noise_scene.set_ambient_seed(900 + t as u64);
            let noise = noise_scene.capture(
                &Microphone::measurement(),
                Pos::new(0.5, 0.0, 0.0),
                Window::from_start(Duration::from_millis(300)),
            );
            det.calibrate(&noise);
            if !det.detect(&cap).is_empty() {
                raw_hits += 1;
            }
        }
        points.push(DurationPoint {
            requested_ms: ms,
            produced_ms: produced.as_secs_f64() * 1e3,
            pipeline_accuracy: pipeline_hits as f64 / trials as f64,
            raw_accuracy: raw_hits as f64 / trials as f64,
        });
    }
    DurationSweepResult { points }
}

/// Capacity sweep: `n` simultaneous tones across the audible plan; measure
/// identification recall. The paper: "up to 1000 distinct frequencies".
pub fn capacity_sweep(counts: &[usize]) -> SweepResult {
    let mut points = Vec::new();
    for &n in counts {
        let plan = FrequencyPlan::audible_default();
        let n = n.min(plan.capacity());
        // Every n-th slot across the full band.
        let stride = plan.capacity() / n;
        let freqs: Vec<f64> = (0..n)
            .map(|k| plan.slot_freq((k * stride).min(plan.capacity() - 1)))
            .collect();
        // Per-tone amplitude low enough that the sum stays inside full
        // scale: crest ≈ sqrt(n/2) for incoherent tones.
        let amp = (0.5 / (n as f64).sqrt()).min(0.02);
        let tones: Vec<Tone> = freqs
            .iter()
            .enumerate()
            .map(|(i, &f)| Tone {
                phase: i as f64 * 2.39996, // golden-angle phases decorrelate the sum
                ..Tone::new(f, Duration::from_millis(200), amp)
            })
            .collect();
        let sig = render_mixture(&tones, SAMPLE_RATE);
        let det = ToneDetector::with_config(
            freqs.clone(),
            DetectorConfig {
                frame: Duration::from_millis(100),
                hop: Duration::from_millis(50),
                min_magnitude: amp * 0.3,
                frame_rel_floor: 0.0, // all tones are deliberately equal
                local_max_radius_hz: 0.0,
                min_snr: 1.0,
            },
        );
        let active = det.active_candidates(&sig);
        points.push(SweepPoint {
            value: n as f64,
            accuracy: active.len() as f64 / n as f64,
        });
    }
    SweepResult {
        parameter: "simultaneous tones".into(),
        knee: None, // capacity is read off the curve, not a threshold knee
        points,
    }
}

/// Intensity sweep: a tone at `spl` dB in an office ambient; detection
/// rate vs level. The paper played "sounds of at least 30 dB".
pub fn intensity_sweep(trials: usize) -> SweepResult {
    let levels = [10.0, 20.0, 25.0, 30.0, 35.0, 40.0, 50.0, 60.0];
    let ambient = AmbientProfile::office();
    let mut points = Vec::new();
    for &spl in &levels {
        let mut hits = 0usize;
        for t in 0..trials {
            let freq = 900.0 + t as f64 * 83.0;
            let mut scene = Scene::new(SAMPLE_RATE, ambient.clone());
            scene.set_ambient_seed(1000 + t as u64);
            let tone = Tone::new(freq, Duration::from_millis(150), spl_to_amplitude(spl));
            scene.add(
                Pos::ORIGIN,
                Duration::from_millis(100),
                tone.render(SAMPLE_RATE),
                "dev",
            );
            let cap = scene.capture(
                &Microphone::measurement(),
                Pos::new(0.3, 0.0, 0.0),
                Window::from_start(Duration::from_millis(400)),
            );
            // Calibrated detector: floor learned from the ambient alone.
            let mut det = ToneDetector::with_config(
                vec![freq],
                DetectorConfig {
                    min_magnitude: 1e-5,
                    ..DetectorConfig::default()
                },
            );
            let mut noise_scene = Scene::new(SAMPLE_RATE, ambient.clone());
            noise_scene.set_ambient_seed(5000 + t as u64);
            let noise_cap = noise_scene.capture(
                &Microphone::measurement(),
                Pos::new(0.3, 0.0, 0.0),
                Window::from_start(Duration::from_millis(400)),
            );
            det.calibrate(&noise_cap);
            if !det.detect(&cap).is_empty() {
                hits += 1;
            }
        }
        points.push(SweepPoint {
            value: spl,
            accuracy: hits as f64 / trials as f64,
        });
    }
    SweepResult {
        parameter: "tone level (dB SPL)".into(),
        knee: knee_of(&points),
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spacing_knee_is_near_the_papers_20hz() {
        let r = spacing_sweep(10);
        let knee = r.knee.expect("no spacing achieved full accuracy");
        assert!(
            (15.0..=30.0).contains(&knee),
            "spacing knee {knee} Hz, points {:?}",
            r.points
        );
        // Below 10 Hz the pair is not resolvable with ~50 ms frames.
        let p5 = r.points.iter().find(|p| p.value == 5.0).unwrap();
        assert!(p5.accuracy < 0.95, "5 Hz unexpectedly resolvable");
    }

    #[test]
    fn duration_sweep_reproduces_the_30ms_hardware_floor() {
        let r = duration_sweep(6);
        for p in &r.points {
            // The speaker never produces a tone shorter than ~30 ms.
            assert!(
                (p.produced_ms - p.requested_ms.max(30.0)).abs() < 1e-9,
                "requested {} produced {}",
                p.requested_ms,
                p.produced_ms
            );
            // With the floor active, the full pipeline decodes every
            // requested duration.
            assert_eq!(
                p.pipeline_accuracy, 1.0,
                "pipeline missed {} ms tones",
                p.requested_ms
            );
        }
        // The raw (floorless) curve degrades for short tones and is solid
        // at 50 ms+ — why a ~30 ms floor is the right hardware target.
        let raw_5 = r
            .points
            .iter()
            .find(|p| p.requested_ms == 5.0)
            .unwrap()
            .raw_accuracy;
        let raw_80 = r
            .points
            .iter()
            .find(|p| p.requested_ms == 80.0)
            .unwrap()
            .raw_accuracy;
        assert!(raw_80 >= raw_5, "raw accuracy not improving with duration");
        assert!(raw_80 >= 0.95, "long raw tones unreliable: {raw_80}");
    }

    #[test]
    fn capacity_reaches_the_papers_order_of_1000() {
        let r = capacity_sweep(&[100, 400, 800, 911]);
        for p in &r.points {
            assert!(
                p.accuracy >= 0.95,
                "{} simultaneous tones: recall {}",
                p.value,
                p.accuracy
            );
        }
    }

    #[test]
    fn intensity_works_at_the_papers_30db() {
        let r = intensity_sweep(6);
        let at_30 = r.points.iter().find(|p| p.value == 30.0).unwrap();
        assert!(at_30.accuracy >= 0.95, "30 dB accuracy {}", at_30.accuracy);
        let at_10 = r.points.iter().find(|p| p.value == 10.0).unwrap();
        assert!(at_10.accuracy < 0.95, "10 dB unexpectedly reliable");
    }
}
