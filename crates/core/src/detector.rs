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
//! * all candidates are evaluated together by a [`GoertzelBank`] (one
//!   traversal per 16 candidates instead of one per candidate);
//! * every captured sample runs through the bank **once**, although frames
//!   overlap: each frame is cut at the same frame-relative offsets, the
//!   shared segments are evaluated once, and a frame's response is the sum
//!   of its segments' responses, each turned by the phase of the samples
//!   after it (see `FrameGrid`);
//! * the steady-state loop performs **no allocation** per frame — the
//!   bank's scratch is reused, and the zero-padded tail frame needs no
//!   copy;
//! * the bank and the segments' turns are built once per detector and
//!   sample rate, not per capture;
//! * [`ToneDetector::detect_from`] skips the frames a caller would
//!   discard: it analyses only the first reported frame's neighbour and
//!   the frames after it.
//!
//! The bank is bit-for-bit the per-candidate [`Goertzel`] filter. A frame
//! row is a sum of segments rather than one recurrence, so it stays within
//! 1e-9 × the frame's largest magnitude of [`Goertzel::magnitude`] on that
//! frame; and since every frame has the same cuts, a complete frame's row
//! depends only on that frame's samples, bit for bit, wherever the capture
//! starts. That is what keeps streaming and windowed decodes byte-identical
//! to batch ones.
//!
//! [`Goertzel`]: mdn_audio::goertzel::Goertzel
//! [`Goertzel::magnitude`]: mdn_audio::goertzel::Goertzel::magnitude
//!
//! A decode runs on the calling thread. Captures are decoded in parallel
//! one level up, one cell per worker, by
//! [`crate::cells::ShardedController::listen`].

use mdn_audio::goertzel::{GoertzelBank, GoertzelState};
use mdn_audio::signal::duration_to_samples;
use mdn_audio::Signal;
use mdn_obs::{Counter, Histogram, Registry};
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::sync::OnceLock;
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
                format!(
                    "magnitude floor must be finite and >= 0, got {}",
                    self.min_magnitude
                ),
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
                format!(
                    "per-frame relative gate is a fraction in [0, 1], got {}",
                    self.frame_rel_floor
                ),
            ));
        }
        if self.local_max_radius_hz.is_nan() || self.local_max_radius_hz < 0.0 {
            return Err(mdn_obs::ConfigError::new(
                "local_max_radius_hz",
                format!(
                    "suppression radius must be finite and >= 0, got {}",
                    self.local_max_radius_hz
                ),
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
///
/// Every frame is cut into segments at the same frame-relative offsets,
/// `{0, j·hop, frame_len − j·hop, frame_len}` for every `j ≥ 0` that stays
/// inside the frame. Those cuts repeat with the hop, so neighbouring frames
/// share segments: a shared segment is run through the bank once and every
/// frame that covers it reuses the response. Samples in no frame (a hop
/// longer than the frame) belong to no segment.
#[derive(Debug, Clone)]
struct FrameGrid {
    frame_len: usize,
    hop: usize,
    n_frames: usize,
    sample_rate: u32,
    /// The frame-relative cut offsets, ascending, from 0 to `frame_len`.
    cuts: Vec<usize>,
    /// How many segment starts lie in `[0, hop)`: the segments each hop
    /// adds.
    per_hop: usize,
}

impl FrameGrid {
    fn new(frame_len: usize, hop: usize, n_frames: usize, sample_rate: u32) -> Self {
        let mut cuts: Vec<usize> = (0..=frame_len / hop)
            .flat_map(|j| [j * hop, frame_len - j * hop])
            .collect();
        cuts.sort_unstable();
        cuts.dedup();
        let per_hop = cuts[..cuts.len() - 1].iter().filter(|&&c| c < hop).count();
        Self {
            frame_len,
            hop,
            n_frames,
            sample_rate,
            cuts,
            per_hop,
        }
    }

    fn start(&self, fi: usize) -> usize {
        fi * self.hop
    }

    fn time(&self, fi: usize) -> Duration {
        Duration::from_secs_f64(self.start(fi) as f64 / self.sample_rate as f64)
    }

    /// Distinct segments over all frames. Segment `i` of frame `fi` is
    /// segment `fi · per_hop + i` of the capture.
    fn n_segments(&self) -> usize {
        match self.n_frames {
            0 => 0,
            n => (n - 1) * self.per_hop + self.cuts.len() - 1,
        }
    }

    /// The sample range of capture segment `s`.
    fn segment(&self, s: usize) -> std::ops::Range<usize> {
        let i = s % self.per_hop;
        let start = self.start(s / self.per_hop) + self.cuts[i];
        start..start + self.cuts[i + 1] - self.cuts[i]
    }
}

/// What a detector's frame analysis needs at one sample rate, built once:
/// the Goertzel bank over its candidates and, per frame segment, the turn
/// by the samples after it in the frame (row-major, segments × candidates).
#[derive(Debug, Clone)]
struct BankPlan {
    sample_rate: u32,
    bank: GoertzelBank,
    turns: Vec<(f64, f64)>,
}

/// The magnitude rows of frames `first_row..grid.n_frames` of a capture.
struct FrameRows {
    grid: FrameGrid,
    first_row: usize,
    /// Row-major `(n_frames − first_row) × candidates`.
    mags: Vec<f64>,
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
///
/// The Goertzel bank over its candidates and the frame segments' turns
/// are built on the first analysis and reused by every later one at the
/// same sample rate. [`Self::detect`] decodes a whole capture;
/// [`Self::detect_from`] decodes the frames from an offset on, with the
/// same bytes, and runs the bank over no frame it would drop except the
/// one neighbour its relative gate reads.
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
    /// The bank and turns for the first sample rate analysed; another
    /// rate builds its own per call.
    plan: OnceLock<BankPlan>,
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
            plan: OnceLock::new(),
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
        let rows = self.frame_magnitudes(noise_only, Duration::ZERO);
        let k = self.candidates.len();
        for (c, floor) in self.noise_floor.iter_mut().enumerate() {
            *floor = (0..rows.grid.n_frames)
                .map(|fi| rows.mags[fi * k + c])
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
        let FrameRows { grid, mags, .. } = self.frame_magnitudes(signal, Duration::ZERO);
        FrameMagnitudes {
            times: (0..grid.n_frames).map(|fi| grid.time(fi)).collect(),
            magnitudes: mags,
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
        FrameGrid::new(frame_len, hop, n_frames, sample_rate)
    }

    /// The bank and segment turns at `grid`'s sample rate: built on the
    /// first analysis and kept, or built for this call at another rate.
    fn plan(&self, grid: &FrameGrid) -> Cow<'_, BankPlan> {
        let build = || {
            let bank = GoertzelBank::new(&self.candidates, grid.sample_rate);
            let turns = grid.cuts[1..]
                .iter()
                .flat_map(|&end| bank.phasors(grid.frame_len - end))
                .collect();
            BankPlan {
                sample_rate: grid.sample_rate,
                bank,
                turns,
            }
        };
        let plan = self.plan.get_or_init(build);
        if plan.sample_rate == grid.sample_rate {
            Cow::Borrowed(plan)
        } else {
            Cow::Owned(build())
        }
    }

    /// The magnitude rows (`candidates` wide, row-major) of the frames of
    /// `signal` from the neighbour of the first frame starting at or after
    /// `from` onward. Each segment of those frames runs through the
    /// Goertzel bank once; a frame's response is the sum, in offset order,
    /// of its segments' responses, each turned by the samples that follow
    /// it in the frame. A segment past the end of the capture is zero, and
    /// the one the end cuts short is turned by its missing samples, which
    /// is the zero-padded tail. Since every frame has the same cuts, the
    /// same turns and the same order of addition, a complete frame's row
    /// depends only on that frame's samples, and every row is bit-for-bit
    /// the row of a whole-capture analysis.
    fn frame_magnitudes(&self, signal: &Signal, from: Duration) -> FrameRows {
        let _span = self.obs.goertzel_span.start_span();
        let samples = signal.samples();
        let grid = self.grid(samples.len(), signal.sample_rate());
        let first_kept = (0..grid.n_frames)
            .find(|&fi| grid.time(fi) >= from)
            .unwrap_or(grid.n_frames);
        // The first kept frame's relative gate reads its left neighbour.
        let first_row = if first_kept == grid.n_frames {
            first_kept
        } else {
            first_kept.saturating_sub(1)
        };
        let k = self.candidates.len();
        let first_segment = first_row * grid.per_hop;
        let plan = self.plan(&grid);
        let bank = &plan.bank;
        let mut state = GoertzelState::default();
        let n_segments = grid.n_segments().saturating_sub(first_segment);
        let mut segments = vec![(0.0f64, 0.0f64); n_segments * k];
        for (s, row) in segments.chunks_mut(k).enumerate() {
            let range = grid.segment(first_segment + s);
            if range.start >= samples.len() {
                break;
            }
            let end = range.end.min(samples.len());
            let response = bank.response(&samples[range.start..end], &mut state);
            if end == range.end {
                row.copy_from_slice(response);
            } else {
                let pad = bank.phasors(range.end - end);
                for ((out, &y), p) in row.iter_mut().zip(response).zip(pad) {
                    *out = turn(y, p);
                }
            }
        }
        let len = grid.frame_len as f64;
        let mut mags = vec![0.0f64; (grid.n_frames - first_row) * k];
        let mut acc = vec![(0.0f64, 0.0f64); k];
        for (r, row) in mags.chunks_mut(k).enumerate() {
            acc.fill((0.0, 0.0));
            for (i, turns) in plan.turns.chunks(k).enumerate() {
                let s = r * grid.per_hop + i;
                for ((a, &y), &p) in acc.iter_mut().zip(&segments[s * k..][..k]).zip(turns) {
                    let (re, im) = turn(y, p);
                    *a = (a.0 + re, a.1 + im);
                }
            }
            for (m, &(re, im)) in row.iter_mut().zip(&acc) {
                *m = re.hypot(im) * 2.0 / len;
            }
        }
        self.obs.frames.add((grid.n_frames - first_row) as u64);
        FrameRows {
            grid,
            first_row,
            mags,
        }
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
        self.detect_from(signal, Duration::ZERO)
    }

    /// [`Self::detect`] filtered to observations at or after `from`, bit
    /// for bit, without the work for the frames it drops: only the first
    /// kept frame's neighbour (which its relative gate reads) and the
    /// frames after it run through the bank. A listen whose capture opens
    /// with a context pre-roll decodes this way.
    pub fn detect_from(&self, signal: &Signal, from: Duration) -> Vec<ToneObservation> {
        let FrameRows {
            grid,
            first_row,
            mags: all_mags,
        } = self.frame_magnitudes(signal, from);
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
        let rows = frame_maxes.len();
        let mut out = Vec::new();
        for fi in first_row..grid.n_frames {
            let time = grid.time(fi);
            if time < from {
                continue;
            }
            let r = fi - first_row;
            let mags = &all_mags[r * k..(r + 1) * k];
            let neighborhood_max = frame_maxes[r.saturating_sub(1)..(r + 2).min(rows)]
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

/// The complex product `y · p`: a response turned by a phasor.
fn turn((re, im): (f64, f64), (cos, sin): (f64, f64)) -> (f64, f64) {
    (re * cos - im * sin, re * sin + im * cos)
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

    /// Frame/hop pairs in ms: the default, the 20 Hz-resolution frames,
    /// a hop that does not divide the frame, and a hop longer than the
    /// frame (samples between frames belong to none).
    const GRIDS: [(u64, u64); 4] = [(50, 25), (100, 50), (50, 20), (30, 40)];
    const RATES: [u32; 3] = [16_000, 44_100, 96_000];

    /// A seeded capture at `sr` that ends mid-frame: a noise bed with tones
    /// starting and stopping inside frames, 427 ms long.
    fn seeded_capture(sr: u32, seed: u64) -> Signal {
        let len = Duration::from_millis(427);
        let mut sig = white_noise(len, 0.003, sr, seed);
        for (freq, start_ms, dur_ms, amp) in [
            (600.0, 0, 130, 0.08),
            (1337.0, 90, 211, 0.05),
            (4100.0, 250, 160, 0.1),
        ] {
            let tone = Tone::new(freq, Duration::from_millis(dur_ms), amp).render(sr);
            sig.mix_at(
                &tone,
                duration_to_samples(Duration::from_millis(start_ms), sr),
            );
        }
        sig
    }

    /// 1, 5 and 48 candidates spread below the lowest rate's Nyquist.
    fn candidate_sets() -> [Vec<f64>; 3] {
        [
            vec![1337.0],
            vec![600.0, 700.0, 1337.0, 4100.0, 7300.0],
            (0..48).map(|i| 600.0 + 137.0 * i as f64).collect(),
        ]
    }

    fn config(frame_ms: u64, hop_ms: u64) -> DetectorConfig {
        DetectorConfig {
            frame: Duration::from_millis(frame_ms),
            hop: Duration::from_millis(hop_ms),
            ..DetectorConfig::default()
        }
    }

    #[test]
    fn segmented_rows_stay_within_bound_of_per_frame_goertzel() {
        // Each row is its frame's segment responses turned and summed, not
        // one recurrence over the frame, so it differs from the
        // per-candidate filter on the zero-padded frame only by rounding.
        for sr in RATES {
            let sig = seeded_capture(sr, u64::from(sr));
            let samples = sig.samples();
            for (frame_ms, hop_ms) in GRIDS {
                for candidates in candidate_sets() {
                    let det =
                        ToneDetector::with_config(candidates.clone(), config(frame_ms, hop_ms));
                    let fm = det.analyze(&sig);
                    let grid = det.grid(samples.len(), sr);
                    assert_eq!(fm.n_frames(), grid.n_frames);
                    let last = grid.start(grid.n_frames - 1);
                    assert!(
                        last + grid.frame_len > samples.len(),
                        "{sr} Hz {frame_ms}/{hop_ms} ms: the capture must end mid-frame"
                    );
                    for fi in 0..grid.n_frames {
                        let start = grid.start(fi);
                        let mut frame =
                            samples[start..(start + grid.frame_len).min(samples.len())].to_vec();
                        frame.resize(grid.frame_len, 0.0);
                        let want: Vec<f64> = candidates
                            .iter()
                            .map(|&f| Goertzel::new(f, sr).magnitude(&frame))
                            .collect();
                        let bound = 1e-9 * want.iter().cloned().fold(0.0, f64::max);
                        assert!(bound > 0.0);
                        for (c, (&got, &want)) in fm.frame(fi).iter().zip(&want).enumerate() {
                            assert!(
                                (got - want).abs() <= bound,
                                "{sr} Hz {frame_ms}/{hop_ms} ms, {} candidates, frame {fi} \
                                 candidate {c}: {got} vs {want}",
                                candidates.len()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn complete_frame_rows_depend_only_on_the_frame_samples() {
        // Every frame is cut at the same frame-relative offsets, so a
        // complete frame's row is bit-identical wherever the capture
        // starts: row `fi` of the capture equals row 0 of the capture cut
        // at that frame's start.
        for sr in RATES {
            let sig = seeded_capture(sr, 7);
            let n = sig.samples().len();
            for (frame_ms, hop_ms) in GRIDS {
                for candidates in candidate_sets() {
                    let k = candidates.len();
                    let det = ToneDetector::with_config(candidates, config(frame_ms, hop_ms));
                    let fm = det.analyze(&sig);
                    let grid = det.grid(n, sr);
                    let complete = (0..grid.n_frames)
                        .take_while(|&fi| grid.start(fi) + grid.frame_len <= n)
                        .count();
                    assert!(complete >= 2, "{sr} Hz {frame_ms}/{hop_ms} ms");
                    for fi in 0..complete {
                        let cut = det.analyze(&sig.slice(grid.start(fi), n));
                        let bits =
                            |row: &[f64]| row.iter().map(|m| m.to_bits()).collect::<Vec<_>>();
                        assert_eq!(
                            bits(fm.frame(fi)),
                            bits(cut.frame(0)),
                            "{sr} Hz {frame_ms}/{hop_ms} ms, {k} candidates, frame {fi}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn detect_from_is_detect_filtered_bit_for_bit() {
        // Offsets of 0, on a frame start, between frame starts and past
        // the end, over captures cut to seeded lengths: `detect_from`
        // must be `detect` filtered to `time >= from`, field by field.
        let mut rng = mdn_obs::SplitMix64::new(31);
        for sr in RATES {
            let full = seeded_capture(sr, u64::from(sr) ^ 5);
            for (frame_ms, hop_ms) in GRIDS {
                for candidates in candidate_sets() {
                    let det = ToneDetector::with_config(candidates, config(frame_ms, hop_ms));
                    for _ in 0..3 {
                        let len = 1 + (rng.next_u64() % full.len() as u64) as usize;
                        let sig = full.slice(0, len);
                        let all = det.detect(&sig);
                        let grid = det.grid(len, sr);
                        let mut offsets = vec![Duration::ZERO, sig.duration() * 2];
                        for fi in 0..grid.n_frames {
                            offsets.push(grid.time(fi));
                            offsets.push(grid.time(fi) + Duration::from_nanos(1));
                            offsets.push(grid.time(fi) + config(frame_ms, hop_ms).hop / 2);
                        }
                        let key = |o: &ToneObservation| {
                            (
                                o.time,
                                o.candidate,
                                o.freq_hz.to_bits(),
                                o.magnitude.to_bits(),
                            )
                        };
                        for from in offsets {
                            let want: Vec<_> =
                                all.iter().filter(|o| o.time >= from).map(key).collect();
                            let got: Vec<_> = det.detect_from(&sig, from).iter().map(key).collect();
                            assert_eq!(
                                got, want,
                                "{sr} Hz {frame_ms}/{hop_ms} ms, {len} samples, from {from:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn obs_counter_totals_match_the_decode() {
        let sig = busy_capture();
        let registry = mdn_obs::Registry::new();
        let candidates = vec![600.0, 700.0, 900.0, 1300.0, 1700.0];
        let mut det = ToneDetector::new(candidates.clone());
        det.attach_obs(&registry);
        let obs = det.detect(&sig);
        // Attaching obs must not change what the detector hears.
        let bare = ToneDetector::new(candidates).detect(&sig);
        assert_eq!(obs.len(), bare.len());
        for (o, b) in obs.iter().zip(&bare) {
            assert_eq!(o.time, b.time);
            assert_eq!(o.candidate, b.candidate);
            assert_eq!(o.freq_hz.to_bits(), b.freq_hz.to_bits());
            assert_eq!(o.magnitude.to_bits(), b.magnitude.to_bits());
        }
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
        let rows = det.frame_magnitudes(&sig, Duration::ZERO);
        assert_eq!(fm.n_frames(), rows.grid.n_frames);
        assert_eq!(fm.magnitudes, rows.mags, "analyze must be the raw matrix");
        assert_eq!(fm.times[0], Duration::ZERO);
        assert!(fm.frame(1).iter().all(|&m| m >= 0.0));
    }
}
