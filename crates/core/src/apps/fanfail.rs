//! §7 — Server fan failure detection.
//!
//! "We find the total amplitude of each frequency in recorded sounds with a
//! server fan both on and off; we obtain such amplitudes by computing the
//! FFT of each given sound sample. [...] The difference in amplitude for
//! certain frequencies is considerably larger when comparing two audio
//! signals of the fan on and off than when comparing two samples of a
//! functioning fan."
//!
//! The detector Welch-averages each capture's magnitude spectrum (averaging
//! across frames collapses the run-to-run variance of broadband room noise
//! while the fan's stationary lines persist), selects the baseline's
//! *signature bins* — "certain frequencies": the bins where the healthy fan
//! stands above the noise floor — and scores captures by summed amplitude
//! difference over those bins. The alarm threshold is calibrated from the
//! observed on-vs-on variation (Figure 7's red dashed line) so the
//! on-vs-off difference (the blue line) clears it.

use mdn_audio::fft::FftPlanner;
use mdn_audio::spectral::Spectrum;
use mdn_audio::window::WindowKind;
use mdn_audio::Signal;

/// Classification outcome for one capture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FanVerdict {
    /// The capture looks like the healthy baseline.
    Healthy {
        /// The amplitude-difference score.
        score: f64,
    },
    /// The capture deviates beyond the calibrated threshold.
    Failed {
        /// The amplitude-difference score.
        score: f64,
        /// The threshold it exceeded.
        threshold: f64,
    },
}

impl FanVerdict {
    /// True for a failure verdict.
    pub fn is_failure(&self) -> bool {
        matches!(self, FanVerdict::Failed { .. })
    }

    /// The underlying score.
    pub fn score(&self) -> f64 {
        match self {
            FanVerdict::Healthy { score } | FanVerdict::Failed { score, .. } => *score,
        }
    }
}

/// Errors from the detector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FanDetectError {
    /// Calibration needs at least two healthy captures.
    NotEnoughBaseline {
        /// How many were provided.
        got: usize,
    },
    /// A capture's shape (rate/length) differs from the baseline's.
    ShapeMismatch,
}

impl std::fmt::Display for FanDetectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FanDetectError::NotEnoughBaseline { got } => {
                write!(f, "need ≥2 healthy captures to calibrate, got {got}")
            }
            FanDetectError::ShapeMismatch => write!(f, "capture shape differs from baseline"),
        }
    }
}

impl std::error::Error for FanDetectError {}

/// The amplitude-differencing fan-failure detector.
#[derive(Debug, Clone)]
pub struct FanFailureDetector {
    /// Welch frame length in samples (also the FFT size; power of two).
    pub fft_size: usize,
    /// Safety factor over the worst healthy-vs-healthy score (threshold =
    /// margin × max on-vs-on difference).
    pub margin: f64,
    /// Signature-bin selection: a baseline bin is a signature bin when its
    /// magnitude is at least this multiple of the baseline's median bin.
    pub signature_ratio: f64,
    /// Cap on how many signature bins are kept (strongest first).
    pub max_signature_bins: usize,
    baseline: Option<Vec<f64>>,
    signature: Vec<usize>,
    /// Per-signature-bin weights: 1 / (healthy deviation + 2% of mean).
    /// Normalizing each bin's difference by its healthy variability keeps
    /// unstable broadband bins from diluting the stable fan lines — the
    /// quantitative version of the paper's "certain frequencies".
    weights: Vec<f64>,
    threshold: Option<f64>,
}

impl Default for FanFailureDetector {
    fn default() -> Self {
        Self {
            fft_size: 4096,
            margin: 2.0,
            signature_ratio: 3.0,
            max_signature_bins: 128,
            baseline: None,
            signature: Vec::new(),
            weights: Vec::new(),
            threshold: None,
        }
    }
}

impl FanFailureDetector {
    /// A detector with default parameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Welch-averaged magnitude spectrum: mean of Hann-windowed frame
    /// spectra with 75% overlap (more averaging per second of capture
    /// tightens both score distributions).
    fn averaged_spectrum(&self, capture: &Signal) -> Vec<f64> {
        let frame_len = self.fft_size;
        let hop = frame_len / 4;
        let mut planner = FftPlanner::new();
        let mut acc: Vec<f64> = vec![0.0; frame_len / 2 + 1];
        let mut frames = 0usize;
        let mut start = 0usize;
        while start + frame_len <= capture.len() {
            let frame = capture.slice(start, start + frame_len);
            let spec = Spectrum::compute(&frame, WindowKind::Hann, Some(frame_len), &mut planner);
            for (a, &m) in acc.iter_mut().zip(spec.magnitudes()) {
                *a += m;
            }
            frames += 1;
            start += hop;
        }
        if frames > 0 {
            for a in &mut acc {
                *a /= frames as f64;
            }
        }
        acc
    }

    /// Pick the signature bins: strong (≥ `signature_ratio` × median of the
    /// mean spectrum) *and stable* across the healthy captures (relative
    /// deviation ≤ 50%). The fan's tonal lines are both; broadband room
    /// noise is strong-but-unstable at low frequencies and gets excluded —
    /// which is what makes the statistic work at datacenter noise levels.
    fn select_signature(&self, mean: &[f64], specs: &[Vec<f64>]) -> Vec<usize> {
        let mut sorted: Vec<f64> = mean.to_vec();
        sorted.sort_by(f64::total_cmp);
        let median = sorted[sorted.len() / 2].max(1e-18);
        let max_rel_dev = 0.5;
        let rel_dev = |k: usize| {
            let m = mean[k].max(1e-18);
            specs
                .iter()
                .map(|s| (s[k] - mean[k]).abs() / m)
                .fold(0.0f64, f64::max)
        };
        // Rank by stability-weighted prominence, not raw magnitude: a
        // moderately strong but rock-stable fan line beats a loud but
        // fluctuating ambient bin.
        let mut bins: Vec<(usize, f64)> = (1..mean.len()) // skip DC
            .filter(|&k| mean[k] >= median * self.signature_ratio && rel_dev(k) <= max_rel_dev)
            .map(|k| (k, mean[k] / (rel_dev(k) + 0.02)))
            .collect();
        bins.sort_by(|a, b| b.1.total_cmp(&a.1));
        bins.truncate(self.max_signature_bins);
        if bins.len() < 8 {
            // Degenerate baseline (e.g. very flat): fall back to the most
            // stable strong bins so the statistic is still defined.
            let mut all: Vec<(usize, f64)> = (1..mean.len())
                .map(|k| (k, mean[k] / (rel_dev(k) + 0.05)))
                .collect();
            all.sort_by(|a, b| b.1.total_cmp(&a.1));
            all.truncate(32);
            bins = all;
        }
        let mut idx: Vec<usize> = bins.into_iter().map(|(k, _)| k).collect();
        idx.sort_unstable();
        idx
    }

    /// Calibrate from healthy captures: their mean Welch spectrum becomes
    /// the baseline, the strong-and-stable bins become the signature, and
    /// the worst healthy-vs-baseline signature difference (times
    /// [`Self::margin`]) becomes the alarm threshold.
    pub fn calibrate(&mut self, healthy: &[Signal]) -> Result<(), FanDetectError> {
        if healthy.len() < 2 {
            return Err(FanDetectError::NotEnoughBaseline { got: healthy.len() });
        }
        let specs: Vec<Vec<f64>> = healthy.iter().map(|c| self.averaged_spectrum(c)).collect();
        let n = specs[0].len();
        if specs.iter().any(|s| s.len() != n) {
            return Err(FanDetectError::ShapeMismatch);
        }
        let mut mean = vec![0.0f64; n];
        for spec in &specs {
            for (m, &v) in mean.iter_mut().zip(spec) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= specs.len() as f64;
        }
        self.signature = self.select_signature(&mean, &specs);
        // Weight each signature bin inversely to its healthy variability.
        self.weights = self
            .signature
            .iter()
            .map(|&k| {
                let dev = specs
                    .iter()
                    .map(|s| (s[k] - mean[k]).abs())
                    .fold(0.0f64, f64::max);
                1.0 / (dev + 0.05 * mean[k] + 1e-12)
            })
            .collect();
        let worst = specs
            .iter()
            .map(|s| Self::diff_over(&self.signature, &self.weights, &mean, s))
            .fold(0.0f64, f64::max);
        self.threshold = Some(worst * self.margin);
        self.baseline = Some(mean);
        Ok(())
    }

    fn diff_over(signature: &[usize], weights: &[f64], a: &[f64], b: &[f64]) -> f64 {
        signature
            .iter()
            .zip(weights)
            .map(|(&k, &w)| (a[k] - b[k]).abs() * w)
            .sum()
    }

    /// The calibrated threshold, if calibrated.
    pub fn threshold(&self) -> Option<f64> {
        self.threshold
    }

    /// Score a capture against the baseline (no thresholding): summed
    /// amplitude difference over the signature bins.
    ///
    /// # Panics
    /// Panics if called before calibration.
    pub fn score(&self, capture: &Signal) -> f64 {
        let baseline = self.baseline.as_ref().expect("calibrate before scoring");
        let spec = self.averaged_spectrum(capture);
        Self::diff_over(&self.signature, &self.weights, baseline, &spec)
    }

    /// Classify a capture.
    ///
    /// # Panics
    /// Panics if called before calibration.
    pub fn classify(&self, capture: &Signal) -> FanVerdict {
        let score = self.score(capture);
        let threshold = self.threshold.expect("calibrate before classifying");
        if score > threshold {
            FanVerdict::Failed { score, threshold }
        } else {
            FanVerdict::Healthy { score }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fan::{FanModel, FanState};
    use mdn_acoustics::ambient::AmbientProfile;
    use mdn_acoustics::medium::Pos;
    use mdn_acoustics::mic::Microphone;
    use mdn_acoustics::scene::Scene;
    use mdn_audio::signal::Window;
    use std::time::Duration;

    const SR: u32 = 44_100;
    const WINDOW: Duration = Duration::from_secs(1);

    /// Capture `state` fan sound in `ambient` with seed variation.
    fn capture(ambient: &AmbientProfile, state: FanState, seed: u64) -> Signal {
        let mut scene = Scene::new(SR, ambient.clone());
        scene.set_ambient_seed(seed);
        let fan = FanModel {
            state,
            ..FanModel::default()
        };
        scene.add(
            Pos::ORIGIN,
            Duration::ZERO,
            fan.render(WINDOW, SR, seed ^ 0xFA4),
            "server",
        );
        // Close-range microphone, as the paper's answer requires.
        Microphone::measurement()
            .capture(&scene.render_window(Pos::new(0.3, 0.0, 0.0), Window::from_start(WINDOW)))
    }

    fn calibrated(ambient: &AmbientProfile) -> FanFailureDetector {
        let healthy: Vec<Signal> = (0..6)
            .map(|s| capture(ambient, FanState::Healthy, s))
            .collect();
        let mut det = FanFailureDetector::new();
        det.calibrate(&healthy).unwrap();
        det
    }

    #[test]
    fn detects_fan_off_in_office() {
        let ambient = AmbientProfile::office();
        let det = calibrated(&ambient);
        let off = capture(&ambient, FanState::Off, 99);
        assert!(det.classify(&off).is_failure());
        let healthy = capture(&ambient, FanState::Healthy, 98);
        assert!(!det.classify(&healthy).is_failure());
    }

    #[test]
    fn detects_fan_off_in_datacenter_noise() {
        // The paper's headline question: "Can we detect the failure of a
        // single server despite the typical datacenter noise?" — yes, with
        // a closely placed microphone.
        let ambient = AmbientProfile::datacenter();
        let det = calibrated(&ambient);
        let off = capture(&ambient, FanState::Off, 77);
        assert!(
            det.classify(&off).is_failure(),
            "fan-off missed in datacenter noise: score {} vs threshold {:?} ({} signature bins)",
            det.score(&off),
            det.threshold(),
            det.signature.len(),
        );
        let healthy = capture(&ambient, FanState::Healthy, 76);
        assert!(
            !det.classify(&healthy).is_failure(),
            "false alarm on healthy fan in datacenter noise"
        );
    }

    #[test]
    fn on_vs_off_scores_separate_from_on_vs_on() {
        let ambient = AmbientProfile::office();
        let det = calibrated(&ambient);
        let on_scores: Vec<f64> = (10..14)
            .map(|s| det.score(&capture(&ambient, FanState::Healthy, s)))
            .collect();
        let off_scores: Vec<f64> = (20..24)
            .map(|s| det.score(&capture(&ambient, FanState::Off, s)))
            .collect();
        let max_on = on_scores.iter().cloned().fold(0.0, f64::max);
        let min_off = off_scores.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            min_off > max_on,
            "distributions overlap: on max {max_on}, off min {min_off}"
        );
    }

    #[test]
    fn worn_bearing_detected_as_anomaly() {
        let ambient = AmbientProfile::office();
        let det = calibrated(&ambient);
        let worn = capture(&ambient, FanState::WornBearing, 55);
        assert!(det.classify(&worn).is_failure(), "worn bearing not flagged");
    }

    #[test]
    fn blocked_rotor_detected_as_anomaly() {
        let ambient = AmbientProfile::office();
        let det = calibrated(&ambient);
        let blocked = capture(&ambient, FanState::Blocked, 66);
        assert!(
            det.classify(&blocked).is_failure(),
            "blocked rotor not flagged"
        );
    }

    #[test]
    fn calibration_needs_two_captures() {
        let mut det = FanFailureDetector::new();
        let one = capture(&AmbientProfile::office(), FanState::Healthy, 1);
        assert_eq!(
            det.calibrate(&[one]),
            Err(FanDetectError::NotEnoughBaseline { got: 1 })
        );
    }

    #[test]
    #[should_panic(expected = "calibrate before")]
    fn classify_before_calibration_panics() {
        let det = FanFailureDetector::new();
        det.classify(&Signal::silence(WINDOW, SR));
    }
}
