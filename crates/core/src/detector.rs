//! The passive sound path: microphone samples → detected tones.
//!
//! The listening half of every MDN application. The detector slices a
//! captured signal into ~50 ms frames (the paper's analysis window), probes
//! each candidate frequency with a Goertzel filter bank — cheap when the
//! frequency map is known, which in MDN it always is — and reports tone
//! observations above a noise-calibrated threshold.
//!
//! # Hot path
//!
//! Detection latency is the MDN control-loop budget (the paper's Figure 2b
//! benchmarks exactly this), so the per-frame path is tight:
//!
//! * all candidates are evaluated in **one pass** over each frame by a
//!   [`GoertzelBank`] (one traversal instead of one per candidate);
//! * the steady-state loop performs **no allocation** — recurrence state
//!   and the tail-frame scratch are reused.
//!
//! A decode runs on the calling thread. Captures are decoded in parallel
//! one level up, one cell per worker, by
//! [`crate::cells::ShardedController::listen`].

use mdn_audio::goertzel::{GoertzelBank, GoertzelState};
use mdn_audio::signal::duration_to_samples;
use mdn_audio::Signal;
use mdn_obs::{Counter, Histogram, Registry};
use std::collections::BTreeSet;
use std::time::Duration;

/// Detection parameters.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DetectorConfig {
    /// Analysis frame length (the paper: ≈ 50 ms).
    pub frame: Duration,
    /// Hop between frames.
    pub hop: Duration,
    /// Absolute magnitude floor for a detection (linear amplitude).
    pub min_magnitude: f64,
    /// Required ratio over the calibrated noise floor (linear).
    pub min_snr: f64,
    /// Per-frame relative gate: a candidate only fires if its magnitude is
    /// at least this fraction of the strongest candidate in the same
    /// frame. Suppresses spectral-leakage ghosts from a loud tone without
    /// masking genuinely simultaneous tones (which have comparable
    /// levels). Set to 0.0 to disable.
    pub frame_rel_floor: f64,
    /// Local-maximum suppression radius: a candidate is dropped if another
    /// candidate within this many Hz measures stronger in the same frame
    /// (a real tone always out-measures its own leakage into neighbouring
    /// 20 Hz slots). Ties break toward the lower candidate index, so
    /// exactly one of two equal-magnitude neighbours fires. Set to 0.0 to
    /// disable.
    pub local_max_radius_hz: f64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        Self {
            frame: Duration::from_millis(50),
            hop: Duration::from_millis(25),
            min_magnitude: 1e-4,
            min_snr: 3.0,
            frame_rel_floor: 0.25,
            local_max_radius_hz: 50.0,
        }
    }
}

impl DetectorConfig {
    /// Check the invariants the detection hot path assumes instead of
    /// letting a degenerate value panic (or spin) frames deep into a run.
    pub fn validate(&self) -> Result<(), mdn_obs::ConfigError> {
        if self.frame == Duration::ZERO {
            return Err(mdn_obs::ConfigError::new(
                "frame",
                "analysis frames must be longer than zero",
            ));
        }
        if self.hop == Duration::ZERO {
            return Err(mdn_obs::ConfigError::new(
                "hop",
                "a zero hop never advances past the first frame",
            ));
        }
        if self.min_magnitude.is_nan() || self.min_magnitude < 0.0 {
            return Err(mdn_obs::ConfigError::new(
                "min_magnitude",
                format!("magnitude floor must be finite and >= 0, got {}", self.min_magnitude),
            ));
        }
        if self.min_snr.is_nan() || self.min_snr < 0.0 {
            return Err(mdn_obs::ConfigError::new(
                "min_snr",
                format!("SNR gate must be finite and >= 0, got {}", self.min_snr),
            ));
        }
        if !(0.0..=1.0).contains(&self.frame_rel_floor) {
            return Err(mdn_obs::ConfigError::new(
                "frame_rel_floor",
                format!("per-frame relative gate is a fraction in [0, 1], got {}", self.frame_rel_floor),
            ));
        }
        if self.local_max_radius_hz.is_nan() || self.local_max_radius_hz < 0.0 {
            return Err(mdn_obs::ConfigError::new(
                "local_max_radius_hz",
                format!("suppression radius must be finite and >= 0, got {}", self.local_max_radius_hz),
            ));
        }
        Ok(())
    }
}

/// One detected tone in one analysis frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ToneObservation {
    /// Start time of the frame within the analyzed signal.
    pub time: Duration,
    /// The candidate frequency that fired.
    pub freq_hz: f64,
    /// Index of the candidate in the detector's list.
    pub candidate: usize,
    /// Measured magnitude (linear amplitude).
    pub magnitude: f64,
}

/// The frame tiling of one capture: all hop-aligned frames whose start lies
/// inside the signal. Frames that would run past the end — the capture's
/// tail — are analyzed zero-padded to the full frame length, so a tone
/// confined to the last few tens of milliseconds (the paper's minimum tone
/// is 30 ms) is still observed.
#[derive(Debug, Clone, Copy)]
struct FrameGrid {
    frame_len: usize,
    hop: usize,
    n_frames: usize,
    sample_rate: u32,
}

impl FrameGrid {
    fn start(&self, fi: usize) -> usize {
        fi * self.hop
    }

    fn time(&self, fi: usize) -> Duration {
        Duration::from_secs_f64(self.start(fi) as f64 / self.sample_rate as f64)
    }

    /// The samples of frame `fi`: a borrow of the signal for complete
    /// frames, or `scratch` refilled with the zero-padded tail.
    fn frame<'a>(&self, samples: &'a [f32], fi: usize, scratch: &'a mut Vec<f32>) -> &'a [f32] {
        let start = self.start(fi);
        if start + self.frame_len <= samples.len() {
            &samples[start..start + self.frame_len]
        } else {
            let tail = &samples[start..];
            scratch.clear();
            scratch.resize(self.frame_len, 0.0);
            scratch[..tail.len()].copy_from_slice(tail);
            scratch
        }
    }
}

/// Registry handles for the detector's counters and stage spans; disabled
/// (free) by default. Cells decoding on parallel listen workers share one
/// registry, which the atomic handles make safe; histograms are resolved
/// once at attach time so the hot loop never touches the registry lock.
#[derive(Debug, Clone, Default)]
struct DetectorObs {
    frames: Counter,
    observations: Counter,
    goertzel_span: Histogram,
    local_max_span: Histogram,
}

/// The times and magnitude matrix of one analyzed capture — every
/// candidate's Goertzel magnitude in every analysis frame, the raw
/// material for ambient tracking and calibration.
#[derive(Debug, Clone)]
pub struct FrameMagnitudes {
    /// Start time of each frame within the capture.
    pub times: Vec<Duration>,
    /// Row-major `n_frames × candidates` magnitude matrix.
    pub magnitudes: Vec<f64>,
    /// Number of candidates (row width).
    pub candidates: usize,
}

impl FrameMagnitudes {
    /// Number of analysis frames.
    pub fn n_frames(&self) -> usize {
        self.times.len()
    }

    /// The per-candidate magnitudes of frame `fi`.
    pub fn frame(&self, fi: usize) -> &[f64] {
        &self.magnitudes[fi * self.candidates..(fi + 1) * self.candidates]
    }
}

/// A multi-frequency tone detector.
#[derive(Debug, Clone)]
pub struct ToneDetector {
    config: DetectorConfig,
    candidates: Vec<f64>,
    /// Per-candidate noise floor (linear magnitude), from
    /// [`ToneDetector::calibrate`] or [`ToneDetector::set_noise_floor`].
    /// Never below [`ToneDetector::floor_min`], so the SNR gate always
    /// has a real floor to work against — an uncalibrated detector's
    /// floors used to be literal zeros, which silently reduced
    /// `min_snr` to a no-op.
    noise_floor: Vec<f64>,
    obs: DetectorObs,
}

impl ToneDetector {
    /// A detector for the given candidate frequencies with default config.
    pub fn new(candidates: Vec<f64>) -> Self {
        Self::with_config(candidates, DetectorConfig::default())
    }

    /// A detector with explicit config.
    ///
    /// # Panics
    /// Panics if there are no candidates or the frame/hop are zero.
    pub fn with_config(candidates: Vec<f64>, config: DetectorConfig) -> Self {
        assert!(
            !candidates.is_empty(),
            "need at least one candidate frequency"
        );
        assert!(
            !config.frame.is_zero() && !config.hop.is_zero(),
            "frame/hop must be non-zero"
        );
        let n = candidates.len();
        let floor = Self::floor_min_for(&config);
        Self {
            config,
            candidates,
            noise_floor: vec![floor; n],
            obs: DetectorObs::default(),
        }
    }

    /// The smallest noise floor any candidate may carry: the floor at
    /// which the SNR gate (`magnitude ≥ floor × min_snr`) exactly meets
    /// the absolute gate (`magnitude ≥ min_magnitude`). Floors below this
    /// add no information — they only weaken the SNR gate — so
    /// construction, [`Self::calibrate`], and [`Self::set_noise_floor`]
    /// all clamp to it.
    pub fn floor_min(&self) -> f64 {
        Self::floor_min_for(&self.config)
    }

    fn floor_min_for(config: &DetectorConfig) -> f64 {
        if config.min_snr > 0.0 {
            config.min_magnitude / config.min_snr
        } else {
            0.0
        }
    }

    /// Register this detector's metrics with an observability registry:
    /// `mdn_detect_frames_total` (analysis frames processed),
    /// `mdn_detect_observations_total`, and the
    /// `mdn_stage_ns` spans for `detect.goertzel_bank` and
    /// `detect.local_max`.
    pub fn attach_obs(&mut self, registry: &Registry) {
        self.obs = DetectorObs {
            frames: registry.counter("mdn_detect_frames_total", &[]),
            observations: registry.counter("mdn_detect_observations_total", &[]),
            goertzel_span: registry.stage_histogram("detect.goertzel_bank"),
            local_max_span: registry.stage_histogram("detect.local_max"),
        };
    }

    /// The candidate frequencies.
    pub fn candidates(&self) -> &[f64] {
        &self.candidates
    }

    /// The active configuration.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// Calibrate the per-candidate noise floor from a signal known to
    /// contain no MDN tones (e.g. a capture of the idle room). Each
    /// candidate's floor becomes its maximum magnitude over the sample's
    /// frames, clamped to [`Self::floor_min`] — calibrating against
    /// digital silence (a dead microphone, an empty buffer) must not
    /// zero the floors and quietly disarm the SNR gate.
    pub fn calibrate(&mut self, noise_only: &Signal) {
        let min = self.floor_min();
        let (grid, mags) = self.frame_magnitudes(noise_only);
        let k = self.candidates.len();
        for (c, floor) in self.noise_floor.iter_mut().enumerate() {
            *floor = (0..grid.n_frames)
                .map(|fi| mags[fi * k + c])
                .fold(min, f64::max);
        }
    }

    /// The calibrated noise floor per candidate.
    pub fn noise_floor(&self) -> &[f64] {
        &self.noise_floor
    }

    /// Replace the per-candidate noise floors directly — the hook a
    /// streaming ambient estimator uses to re-tune thresholds without a
    /// dedicated calibration capture. Floors are clamped to
    /// [`Self::floor_min`].
    ///
    /// # Panics
    /// Panics if `floors.len()` differs from the candidate count.
    pub fn set_noise_floor(&mut self, floors: &[f64]) {
        assert_eq!(
            floors.len(),
            self.candidates.len(),
            "floor count must match candidate count"
        );
        let min = self.floor_min();
        for (dst, &src) in self.noise_floor.iter_mut().zip(floors) {
            *dst = src.max(min);
        }
    }

    /// The full per-frame magnitude matrix for `signal` — every
    /// candidate probed in every frame, with frame start times. This is
    /// [`Self::detect`] without the thresholding: ambient trackers use it
    /// to watch the slots that *didn't* fire.
    pub fn analyze(&self, signal: &Signal) -> FrameMagnitudes {
        let (grid, magnitudes) = self.frame_magnitudes(signal);
        FrameMagnitudes {
            times: (0..grid.n_frames).map(|fi| grid.time(fi)).collect(),
            magnitudes,
            candidates: self.candidates.len(),
        }
    }

    fn grid(&self, samples_len: usize, sample_rate: u32) -> FrameGrid {
        let frame_len = duration_to_samples(self.config.frame, sample_rate).max(1);
        let hop = duration_to_samples(self.config.hop, sample_rate).max(1);
        let n_frames = if samples_len == 0 {
            0
        } else {
            (samples_len - 1) / hop + 1
        };
        FrameGrid {
            frame_len,
            hop,
            n_frames,
            sample_rate,
        }
    }

    /// The magnitude matrix (`n_frames × candidates`, row-major) for every
    /// frame of `signal`, computed by the Goertzel bank.
    fn frame_magnitudes(&self, signal: &Signal) -> (FrameGrid, Vec<f64>) {
        let _span = self.obs.goertzel_span.start_span();
        let sr = signal.sample_rate();
        let samples = signal.samples();
        let grid = self.grid(samples.len(), sr);
        let k = self.candidates.len();
        let bank = GoertzelBank::new(&self.candidates, sr);
        let mut mags = vec![0.0f64; grid.n_frames * k];
        let mut state = GoertzelState::default();
        let mut tail = Vec::new();
        for (fi, row) in mags.chunks_mut(k).enumerate() {
            let frame = grid.frame(samples, fi, &mut tail);
            bank.magnitudes_into(frame, &mut state, row);
        }
        self.obs.frames.add(grid.n_frames as u64);
        (grid, mags)
    }

    /// Goertzel detection: probe every candidate in every frame.
    ///
    /// Two leakage suppressors run per frame, mirroring how the paper's
    /// pipeline reads FFT *peaks* rather than raw bin energies:
    /// * a candidate must be a local maximum among the frequency-sorted
    ///   candidates (a real tone always out-measures its own leakage into
    ///   the neighbouring 20 Hz slots); equal magnitudes break toward the
    ///   lower candidate index so one tone is never double-reported;
    /// * a candidate must reach [`DetectorConfig::frame_rel_floor`] of the
    ///   frame's strongest candidate (suppresses far sidelobes of loud
    ///   tones in partially-occupied frames).
    pub fn detect(&self, signal: &Signal) -> Vec<ToneObservation> {
        let (grid, all_mags) = self.frame_magnitudes(signal);
        let _span = self.obs.local_max_span.start_span();
        let k = self.candidates.len();
        // Candidate indices sorted by frequency, for local-max testing.
        let mut order: Vec<usize> = (0..k).collect();
        order.sort_by(|&a, &b| self.candidates[a].total_cmp(&self.candidates[b]));
        let mut rank = vec![0usize; order.len()];
        for (p, &c) in order.iter().enumerate() {
            rank[c] = p;
        }
        // Per-frame maxima, computed up front so the relative gate can look
        // at a frame's neighbours: a tone's onset and tail splatter energy
        // into one boundary frame, and gating that frame against the
        // adjacent full-tone frame suppresses the ghosts.
        let frame_maxes: Vec<f64> = all_mags
            .chunks(k.max(1))
            .map(|mags| mags.iter().cloned().fold(0.0, f64::max))
            .collect();
        let mut out = Vec::new();
        for fi in 0..grid.n_frames {
            let mags = &all_mags[fi * k..(fi + 1) * k];
            let time = grid.time(fi);
            let neighborhood_max = frame_maxes[fi.saturating_sub(1)..(fi + 2).min(grid.n_frames)]
                .iter()
                .cloned()
                .fold(0.0, f64::max);
            let rel_gate = neighborhood_max * self.config.frame_rel_floor;
            for (c, &magnitude) in mags.iter().enumerate() {
                // Local-max test against every candidate within the radius.
                // `beats` breaks exact ties toward the lower candidate
                // index, so equal-magnitude neighbours yield one report.
                let beats = |other: usize| {
                    mags[other] > magnitude || (mags[other] == magnitude && other < c)
                };
                let p = rank[c];
                let f = self.candidates[c];
                let radius = self.config.local_max_radius_hz;
                let mut is_local_max = true;
                for q in (0..p).rev() {
                    let other = order[q];
                    if (f - self.candidates[other]).abs() > radius {
                        break;
                    }
                    if beats(other) {
                        is_local_max = false;
                        break;
                    }
                }
                for &other in order.iter().skip(p + 1) {
                    if !is_local_max || (self.candidates[other] - f).abs() > radius {
                        break;
                    }
                    if beats(other) {
                        is_local_max = false;
                    }
                }
                if is_local_max && magnitude >= rel_gate && self.passes(c, magnitude) {
                    out.push(ToneObservation {
                        time,
                        freq_hz: self.candidates[c],
                        candidate: c,
                        magnitude,
                    });
                }
            }
        }
        self.obs.observations.add(out.len() as u64);
        out
    }

    fn passes(&self, candidate: usize, magnitude: f64) -> bool {
        magnitude >= self.config.min_magnitude
            && magnitude >= self.noise_floor[candidate] * self.config.min_snr
    }

    /// The distinct candidate indices observed anywhere in the signal.
    pub fn active_candidates(&self, signal: &Signal) -> BTreeSet<usize> {
        self.detect(signal)
            .into_iter()
            .map(|o| o.candidate)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdn_audio::goertzel::Goertzel;
    use mdn_audio::noise::white_noise;
    use mdn_audio::signal::spl_to_amplitude;
    use mdn_audio::synth::{render_sequence, Tone};

    const SR: u32 = 44_100;

    fn tone_at(freq: f64, start_ms: u64, dur_ms: u64, amp: f64) -> (Duration, Tone) {
        (
            Duration::from_millis(start_ms),
            Tone::new(freq, Duration::from_millis(dur_ms), amp),
        )
    }

    #[test]
    fn detects_single_tone_at_right_time() {
        let seq = [tone_at(700.0, 200, 100, 0.1)];
        let mut sig = render_sequence(&seq, SR);
        sig.pad_to(duration_to_samples(Duration::from_millis(500), SR));
        let det = ToneDetector::new(vec![500.0, 700.0, 900.0]);
        let obs = det.detect(&sig);
        assert!(!obs.is_empty());
        assert!(obs.iter().all(|o| o.candidate == 1));
        let first = obs.iter().map(|o| o.time).min().unwrap();
        assert!(
            (first.as_secs_f64() - 0.2).abs() < 0.06,
            "first detection at {first:?}"
        );
    }

    #[test]
    fn silence_yields_nothing() {
        let sig = Signal::silence(Duration::from_millis(500), SR);
        let det = ToneDetector::new(vec![500.0, 700.0]);
        assert!(det.detect(&sig).is_empty());
    }

    #[test]
    fn distinguishes_20hz_neighbours() {
        // Tones on two 20 Hz-spaced candidates, played one after the other:
        // each must be attributed to the right slot (100 ms frames give the
        // resolution the paper's spacing needs).
        let seq = [tone_at(1000.0, 0, 200, 0.1), tone_at(1020.0, 300, 200, 0.1)];
        let sig = render_sequence(&seq, SR);
        let cfg = DetectorConfig {
            frame: Duration::from_millis(100),
            hop: Duration::from_millis(50),
            ..DetectorConfig::default()
        };
        let det = ToneDetector::with_config(vec![1000.0, 1020.0], cfg);
        let obs = det.detect(&sig);
        let early: BTreeSet<usize> = obs
            .iter()
            .filter(|o| o.time < Duration::from_millis(150))
            .map(|o| o.candidate)
            .collect();
        let late: BTreeSet<usize> = obs
            .iter()
            .filter(|o| o.time >= Duration::from_millis(300))
            .map(|o| o.candidate)
            .collect();
        assert_eq!(early, BTreeSet::from([0]));
        assert_eq!(late, BTreeSet::from([1]));
    }

    #[test]
    fn simultaneous_tones_all_found() {
        let seq = [
            tone_at(600.0, 0, 300, 0.08),
            tone_at(900.0, 0, 300, 0.08),
            tone_at(1300.0, 0, 300, 0.08),
        ];
        let sig = render_sequence(&seq, SR);
        let det = ToneDetector::new(vec![600.0, 900.0, 1300.0, 1700.0]);
        let active = det.active_candidates(&sig);
        assert_eq!(active, BTreeSet::from([0, 1, 2]));
    }

    #[test]
    fn calibration_suppresses_noise_band_false_positives() {
        // A noisy environment at a level above the absolute floor.
        let noise = white_noise(Duration::from_secs(1), spl_to_amplitude(70.0), SR, 3);
        let mut det = ToneDetector::new(vec![800.0]);
        // Without calibration, broadband noise can poke above the absolute
        // threshold in some frames; calibration raises the bar per-slot.
        det.calibrate(&noise);
        let more_noise = white_noise(Duration::from_secs(1), spl_to_amplitude(70.0), SR, 4);
        let obs = det.detect(&more_noise);
        assert!(
            obs.is_empty(),
            "calibrated detector still fired {} times on noise",
            obs.len()
        );
        // And a real tone well above the floor still gets through.
        let mut sig = more_noise.clone();
        let tone = Tone::new(800.0, Duration::from_millis(300), spl_to_amplitude(85.0)).render(SR);
        sig.mix_at(&tone, 0);
        assert!(!det.detect(&sig).is_empty());
    }

    #[test]
    fn sub_frame_signal_still_analyzed() {
        // Shorter than one 50 ms frame: the zero-padded tail frame must
        // still be probed (the paper's minimum tone is 30 ms). Silence
        // stays silent; a tone is found.
        let sig = Signal::silence(Duration::from_millis(10), SR);
        let det = ToneDetector::new(vec![500.0]);
        assert!(det.detect(&sig).is_empty());
        let tone = Tone::new(500.0, Duration::from_millis(30), 0.1).render(SR);
        let obs = det.detect(&tone);
        assert!(!obs.is_empty(), "30 ms capture must be detectable");
        assert!(obs.iter().all(|o| o.candidate == 0));
    }

    #[test]
    fn tone_at_very_end_of_capture_is_detected() {
        // Regression: the final partial frame used to be dropped, so a tone
        // confined to the capture's tail went unobserved. 490 ms capture
        // (not hop-aligned), 30 ms tone ending exactly at the end.
        let seq = [tone_at(700.0, 460, 30, 0.1)];
        let mut sig = render_sequence(&seq, SR);
        sig.pad_to(duration_to_samples(Duration::from_millis(490), SR));
        let det = ToneDetector::new(vec![500.0, 700.0]);
        let obs = det.detect(&sig);
        assert!(!obs.is_empty(), "tail tone must be detected");
        assert!(obs.iter().all(|o| o.candidate == 1));
        // At least one observation must come from a zero-padded tail frame
        // (start beyond the last complete-frame start, 440 ms).
        let last = obs.iter().map(|o| o.time).max().unwrap();
        assert!(
            last >= Duration::from_millis(450),
            "no tail-frame observation; last was {last:?}"
        );
    }

    #[test]
    fn equal_magnitude_neighbours_report_once() {
        // Two candidates at the same frequency measure bit-identical
        // magnitudes in every frame; the local-max tie-break must keep
        // exactly one (the lower index), not double-report the tone.
        let seq = [tone_at(700.0, 0, 200, 0.1)];
        let sig = render_sequence(&seq, SR);
        let det = ToneDetector::new(vec![700.0, 700.0]);
        let obs = det.detect(&sig);
        assert!(!obs.is_empty());
        assert!(
            obs.iter().all(|o| o.candidate == 0),
            "tie must break to the lower index: {obs:?}"
        );
        // No frame reports both.
        let mut times = BTreeSet::new();
        for o in &obs {
            assert!(times.insert(o.time), "frame {:?} double-reported", o.time);
        }
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn empty_candidates_panics() {
        ToneDetector::new(vec![]);
    }

    #[test]
    fn magnitude_reported_accurately() {
        let seq = [tone_at(700.0, 0, 200, 0.2)];
        let sig = render_sequence(&seq, SR);
        let det = ToneDetector::new(vec![700.0]);
        let obs = det.detect(&sig);
        // Middle frames see the full tone.
        let max = obs.iter().map(|o| o.magnitude).fold(0.0, f64::max);
        assert!((max - 0.2).abs() < 0.04, "max magnitude {max}");
    }

    fn busy_capture() -> Signal {
        let seq = [
            tone_at(600.0, 0, 300, 0.08),
            tone_at(900.0, 100, 300, 0.08),
            tone_at(1300.0, 450, 200, 0.06),
            tone_at(700.0, 900, 80, 0.1),
        ];
        let mut sig = render_sequence(&seq, SR);
        sig.mix_at(&white_noise(sig.duration(), 0.003, SR, 11), 0);
        sig
    }

    #[test]
    fn bank_matches_per_candidate_goertzel_bit_for_bit() {
        // The banked one-pass evaluation must reproduce the per-candidate
        // Goertzel pass exactly, frame by frame.
        let sig = busy_capture();
        let candidates = [600.0f64, 700.0, 900.0, 1300.0, 1700.0];
        let det = ToneDetector::new(candidates.to_vec());
        let (grid, mags) = det.frame_magnitudes(&sig);
        assert!(grid.n_frames > 0);
        let mut tail = Vec::new();
        for fi in 0..grid.n_frames {
            let frame = grid.frame(sig.samples(), fi, &mut tail);
            for (c, &f) in candidates.iter().enumerate() {
                let expect = Goertzel::new(f, SR).magnitude(frame);
                assert_eq!(
                    mags[fi * candidates.len() + c],
                    expect,
                    "frame {fi} candidate {c}"
                );
            }
        }
    }

    #[test]
    fn obs_counter_totals_match_the_decode() {
        let sig = busy_capture();
        let registry = mdn_obs::Registry::new();
        let mut det = ToneDetector::new(vec![600.0, 700.0, 900.0, 1300.0, 1700.0]);
        det.attach_obs(&registry);
        let obs = det.detect(&sig);
        let snap = registry.snapshot();
        let expected_frames = det.grid(sig.samples().len(), SR).n_frames as u64;
        assert_eq!(snap.counters["mdn_detect_frames_total"], expected_frames);
        assert_eq!(
            snap.counters["mdn_detect_observations_total"],
            obs.len() as u64
        );
        // Both detect stages timed something.
        let goertzel = &snap.histograms["mdn_stage_ns{stage=\"detect.goertzel_bank\"}"];
        let local_max = &snap.histograms["mdn_stage_ns{stage=\"detect.local_max\"}"];
        assert_eq!(goertzel.count, 1);
        assert_eq!(local_max.count, 1);
    }

    #[test]
    fn obs_disabled_detector_counts_nothing() {
        let sig = busy_capture();
        let det = ToneDetector::new(vec![600.0, 900.0]);
        assert!(!det.detect(&sig).is_empty());
        assert_eq!(det.obs.frames.get(), 0, "default handles stay inert");
    }

    #[test]
    fn uncalibrated_floor_is_explicit_not_zero() {
        // Regression: fresh detectors used to carry all-zero noise floors,
        // which silently reduced the SNR gate to a no-op. The floor must
        // start at the explicit minimum where the SNR gate meets the
        // absolute gate.
        let det = ToneDetector::new(vec![500.0, 700.0]);
        let expect = det.config().min_magnitude / det.config().min_snr;
        assert!(expect > 0.0);
        assert!(
            det.noise_floor().iter().all(|&f| f == expect),
            "floors {:?}",
            det.noise_floor()
        );
    }

    #[test]
    fn calibrating_on_silence_keeps_the_floor() {
        // A dead microphone hands the calibrator digital silence; the
        // floors must clamp at the minimum instead of collapsing to zero.
        let mut det = ToneDetector::new(vec![500.0, 700.0]);
        det.calibrate(&Signal::silence(Duration::from_millis(500), SR));
        let min = det.floor_min();
        assert!(
            det.noise_floor().iter().all(|&f| f == min),
            "floors {:?}",
            det.noise_floor()
        );
    }

    #[test]
    fn set_noise_floor_clamps_and_gates() {
        let mut det = ToneDetector::new(vec![700.0]);
        det.set_noise_floor(&[0.0]);
        assert_eq!(det.noise_floor()[0], det.floor_min(), "zero must clamp");
        // A raised floor must actually gate: a tone below floor × min_snr
        // goes unreported, the same tone passes once the floor drops back.
        let sig = render_sequence(&[tone_at(700.0, 0, 300, 0.01)], SR);
        det.set_noise_floor(&[0.02]);
        assert!(
            det.detect(&sig).is_empty(),
            "0.01 tone over 0.02 floor must not fire"
        );
        det.set_noise_floor(&[0.001]);
        assert!(
            !det.detect(&sig).is_empty(),
            "tone must fire after re-tuning down"
        );
    }

    #[test]
    #[should_panic(expected = "floor count")]
    fn set_noise_floor_rejects_wrong_length() {
        ToneDetector::new(vec![700.0]).set_noise_floor(&[0.1, 0.2]);
    }

    #[test]
    fn analyze_exposes_the_detect_matrix() {
        let sig = busy_capture();
        let det = ToneDetector::new(vec![600.0, 900.0]);
        let fm = det.analyze(&sig);
        assert_eq!(fm.candidates, 2);
        assert_eq!(fm.magnitudes.len(), fm.n_frames() * 2);
        let (grid, raw) = det.frame_magnitudes(&sig);
        assert_eq!(fm.n_frames(), grid.n_frames);
        assert_eq!(fm.magnitudes, raw, "analyze must be the raw matrix");
        assert_eq!(fm.times[0], Duration::ZERO);
        assert!(fm.frame(1).iter().all(|&m| m >= 0.0));
    }
}
