//! Short-time Fourier transform spectrograms.
//!
//! Every spectrogram panel in the paper (Figures 3b, 4, 5b/5d, 6) is an
//! STFT of the captured microphone signal; the mel-scaled variants layer a
//! mel filterbank on top (see [`crate::mel`]).

use crate::fft::FftPlanner;
use crate::signal::Signal;
use crate::spectral::Spectrum;
use crate::window::WindowKind;

/// STFT parameters.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct StftConfig {
    /// Analysis frame length in samples.
    pub frame_len: usize,
    /// Hop between consecutive frames in samples.
    pub hop: usize,
    /// Window applied to each frame.
    pub window: WindowKind,
    /// Zero-pad each frame to at least this FFT size (power of two applied
    /// automatically).
    pub min_fft: Option<usize>,
}

impl Default for StftConfig {
    /// [`StftConfig::default_for`] at the testbed's 44.1 kHz.
    fn default() -> Self {
        Self::default_for(44_100)
    }
}

impl StftConfig {
    /// Check the invariants the compute path assumes: zero-length frames
    /// or hops would loop forever (or divide by zero) in
    /// [`Spectrogram::compute`]. (`min_fft` needs no check — the FFT
    /// size is the next power of two of `max(frame_len, min_fft)`.)
    pub fn validate(&self) -> Result<(), mdn_obs::ConfigError> {
        if self.frame_len == 0 {
            return Err(mdn_obs::ConfigError::new(
                "frame_len",
                "analysis frames must be at least one sample",
            ));
        }
        if self.hop == 0 {
            return Err(mdn_obs::ConfigError::new(
                "hop",
                "a zero hop never advances past the first frame",
            ));
        }
        Ok(())
    }

    /// The pipeline default: ~46 ms frames with 50% overlap at 44.1 kHz —
    /// close to the paper's ~50 ms analysis windows.
    pub fn default_for(sample_rate: u32) -> Self {
        let frame_len = (sample_rate as usize * 46 / 1000)
            .next_power_of_two()
            .min(4096);
        Self {
            frame_len,
            hop: frame_len / 2,
            window: WindowKind::Hann,
            min_fft: None,
        }
    }
}

/// A time-frequency magnitude matrix: `frames × bins`.
#[derive(Debug, Clone)]
pub struct Spectrogram {
    /// One amplitude spectrum per frame, in time order.
    frames: Vec<Vec<f64>>,
    /// Centre time of each frame, seconds.
    times: Vec<f64>,
    bin_hz: f64,
    sample_rate: u32,
}

impl Spectrogram {
    /// Compute the STFT of `signal` under `config`. Signals shorter than
    /// one frame produce an empty spectrogram.
    pub fn compute(signal: &Signal, config: &StftConfig) -> Self {
        let sr = signal.sample_rate();
        let samples = signal.samples();
        let mut planner = FftPlanner::new();
        let mut frames = Vec::new();
        let mut times = Vec::new();
        let mut bin_hz = 0.0;
        let mut start = 0usize;
        while start + config.frame_len <= samples.len() {
            let frame = signal.slice(start, start + config.frame_len);
            let spec = Spectrum::compute(&frame, config.window, config.min_fft, &mut planner);
            bin_hz = spec.bin_hz();
            times.push((start + config.frame_len / 2) as f64 / sr as f64);
            frames.push(spec.magnitudes().to_vec());
            start += config.hop;
        }
        Self {
            frames,
            times,
            bin_hz,
            sample_rate: sr,
        }
    }

    /// Number of time frames.
    pub fn num_frames(&self) -> usize {
        self.frames.len()
    }

    /// Number of frequency bins per frame (0 if empty).
    pub fn num_bins(&self) -> usize {
        self.frames.first().map_or(0, Vec::len)
    }

    /// Magnitudes of frame `t`.
    pub fn frame(&self, t: usize) -> &[f64] {
        &self.frames[t]
    }

    /// All frames, time-major.
    pub fn frames(&self) -> &[Vec<f64>] {
        &self.frames
    }

    /// Centre time of frame `t` in seconds.
    pub fn time(&self, t: usize) -> f64 {
        self.times[t]
    }

    /// Frame centre times, seconds.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Width of a frequency bin in Hz.
    pub fn bin_hz(&self) -> f64 {
        self.bin_hz
    }

    /// Sample rate of the source signal.
    pub fn sample_rate(&self) -> u32 {
        self.sample_rate
    }

    /// The bin index nearest `freq_hz`.
    pub fn hz_to_bin(&self, freq_hz: f64) -> usize {
        ((freq_hz / self.bin_hz).round() as usize).min(self.num_bins().saturating_sub(1))
    }

    /// Time series of the magnitude at the bin nearest `freq_hz` — the
    /// "follow one switch's tone over time" view used by the queue
    /// monitoring figure.
    pub fn track_frequency(&self, freq_hz: f64) -> Vec<f64> {
        let bin = self.hz_to_bin(freq_hz);
        self.frames.iter().map(|f| f[bin]).collect()
    }

    /// For each frame, the frequency (Hz) of the strongest bin, or `None`
    /// when the frame's peak is below `threshold` — the "ridge" of the
    /// spectrogram, which traces the port-scan sweep of Figure 4c.
    pub fn ridge(&self, threshold: f64) -> Vec<Option<f64>> {
        self.frames
            .iter()
            .map(|frame| {
                frame
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .filter(|&(_, &m)| m >= threshold)
                    .map(|(k, _)| k as f64 * self.bin_hz)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{chirp, render_sequence, Tone};
    use std::time::Duration;

    const SR: u32 = 44_100;

    #[test]
    fn frame_count_matches_hop_arithmetic() {
        let s = Signal::silence(Duration::from_secs(1), SR);
        let cfg = StftConfig {
            frame_len: 1024,
            hop: 512,
            window: WindowKind::Hann,
            min_fft: None,
        };
        let sg = Spectrogram::compute(&s, &cfg);
        assert_eq!(sg.num_frames(), (44_100 - 1024) / 512 + 1);
        assert_eq!(sg.num_bins(), 513);
    }

    #[test]
    fn short_signal_yields_empty() {
        let s = Signal::silence(Duration::from_millis(1), SR);
        let cfg = StftConfig::default_for(SR);
        let sg = Spectrogram::compute(&s, &cfg);
        assert_eq!(sg.num_frames(), 0);
        assert_eq!(sg.num_bins(), 0);
    }

    #[test]
    fn track_frequency_follows_tone_onset() {
        let seq = [(
            Duration::from_millis(500),
            Tone::new(1000.0, Duration::from_millis(500), 0.8),
        )];
        let s = {
            let mut s = render_sequence(&seq, SR);
            s.pad_to(SR as usize); // 1 s total
            s
        };
        let sg = Spectrogram::compute(&s, &StftConfig::default_for(SR));
        let track = sg.track_frequency(1000.0);
        let first_half_max = track[..sg.num_frames() / 3]
            .iter()
            .cloned()
            .fold(0.0, f64::max);
        let second_half_max = track[sg.num_frames() / 2..]
            .iter()
            .cloned()
            .fold(0.0, f64::max);
        assert!(second_half_max > 0.4);
        assert!(first_half_max < 0.05);
    }

    #[test]
    fn ridge_traces_a_chirp_upward() {
        let s = chirp(300.0, 3000.0, Duration::from_secs(1), 0.8, SR);
        let sg = Spectrogram::compute(&s, &StftConfig::default_for(SR));
        let ridge: Vec<f64> = sg.ridge(0.05).into_iter().flatten().collect();
        assert!(ridge.len() > sg.num_frames() / 2);
        // Monotone-ish increase: last ridge point well above the first.
        assert!(ridge[ridge.len() - 1] > ridge[0] + 1000.0);
    }

    #[test]
    fn ridge_below_threshold_is_none() {
        let s = Signal::silence(Duration::from_secs(1), SR);
        let sg = Spectrogram::compute(&s, &StftConfig::default_for(SR));
        assert!(sg.ridge(0.01).iter().all(Option::is_none));
    }

    #[test]
    fn times_increase_monotonically() {
        let s = Signal::silence(Duration::from_secs(1), SR);
        let sg = Spectrogram::compute(&s, &StftConfig::default_for(SR));
        assert!(sg.times().windows(2).all(|w| w[1] > w[0]));
    }
}
