//! Mel scale and mel-scaled spectrograms.
//!
//! The paper plots its spectrogram figures on the mel scale ("Frequency
//! values in the spectrogram are normalized by the mel-scale", Fig 5) — a
//! perceptual frequency warp that is logarithmic above ~1 kHz, which is why
//! the linear port sweep of Figure 4c shows up as a logarithmic curve.

use crate::spectrogram::Spectrogram;

/// Convert Hz to mel (O'Shaughnessy / HTK formula).
///
/// ```
/// use mdn_audio::mel::{hz_to_mel, mel_to_hz};
/// assert!((hz_to_mel(1000.0) - 1000.0).abs() < 1.0); // the scale's anchor
/// assert!((mel_to_hz(hz_to_mel(4321.0)) - 4321.0).abs() < 1e-6);
/// ```
#[inline]
pub fn hz_to_mel(hz: f64) -> f64 {
    2595.0 * (1.0 + hz / 700.0).log10()
}

/// Convert mel to Hz (inverse of [`hz_to_mel`]).
#[inline]
pub fn mel_to_hz(mel: f64) -> f64 {
    700.0 * (10f64.powf(mel / 2595.0) - 1.0)
}

/// A bank of triangular mel filters over FFT bins.
#[derive(Debug, Clone)]
pub struct MelFilterbank {
    /// `filters[m]` = list of `(bin, weight)` with non-zero weight.
    filters: Vec<Vec<(usize, f64)>>,
    /// Centre frequency of each mel band, Hz.
    centers_hz: Vec<f64>,
}

impl MelFilterbank {
    /// Build `num_bands` triangular filters spanning `[lo_hz, hi_hz]`, for
    /// spectra with `num_bins` bins of width `bin_hz`.
    ///
    /// # Panics
    /// Panics if `num_bands` is zero or the band edges are degenerate.
    pub fn new(num_bands: usize, lo_hz: f64, hi_hz: f64, num_bins: usize, bin_hz: f64) -> Self {
        assert!(num_bands > 0, "need at least one mel band");
        assert!(
            hi_hz > lo_hz && lo_hz >= 0.0,
            "bad band edges {lo_hz}..{hi_hz}"
        );
        assert!(num_bins > 1 && bin_hz > 0.0, "bad spectrum shape");
        let lo_mel = hz_to_mel(lo_hz);
        let hi_mel = hz_to_mel(hi_hz);
        // num_bands + 2 edge points, evenly spaced in mel.
        let edges_hz: Vec<f64> = (0..num_bands + 2)
            .map(|i| mel_to_hz(lo_mel + (hi_mel - lo_mel) * i as f64 / (num_bands + 1) as f64))
            .collect();
        let mut filters = Vec::with_capacity(num_bands);
        let mut centers_hz = Vec::with_capacity(num_bands);
        for m in 0..num_bands {
            let (left, center, right) = (edges_hz[m], edges_hz[m + 1], edges_hz[m + 2]);
            centers_hz.push(center);
            let mut taps = Vec::new();
            let k_lo = (left / bin_hz).floor().max(0.0) as usize;
            let k_hi = ((right / bin_hz).ceil() as usize).min(num_bins - 1);
            for k in k_lo..=k_hi {
                let f = k as f64 * bin_hz;
                let w = if f < left || f > right {
                    0.0
                } else if f <= center {
                    if center > left {
                        (f - left) / (center - left)
                    } else {
                        1.0
                    }
                } else if right > center {
                    (right - f) / (right - center)
                } else {
                    1.0
                };
                if w > 0.0 {
                    taps.push((k, w));
                }
            }
            filters.push(taps);
        }
        Self {
            filters,
            centers_hz,
        }
    }

    /// Number of mel bands.
    pub fn num_bands(&self) -> usize {
        self.filters.len()
    }

    /// Centre frequency (Hz) of band `m`.
    pub fn center_hz(&self, m: usize) -> f64 {
        self.centers_hz[m]
    }

    /// Apply the filterbank to one magnitude spectrum (energy domain: the
    /// filters weight squared magnitudes).
    pub fn apply(&self, magnitudes: &[f64]) -> Vec<f64> {
        self.filters
            .iter()
            .map(|taps| {
                taps.iter()
                    .filter(|(k, _)| *k < magnitudes.len())
                    .map(|&(k, w)| w * magnitudes[k] * magnitudes[k])
                    .sum()
            })
            .collect()
    }
}

/// A mel-scaled spectrogram: `frames × mel_bands` energies.
#[derive(Debug, Clone)]
pub struct MelSpectrogram {
    frames: Vec<Vec<f64>>,
    times: Vec<f64>,
    centers_hz: Vec<f64>,
}

impl MelSpectrogram {
    /// Warp a linear spectrogram through a mel filterbank with `num_bands`
    /// bands spanning `[lo_hz, hi_hz]`.
    pub fn from_spectrogram(sg: &Spectrogram, num_bands: usize, lo_hz: f64, hi_hz: f64) -> Self {
        let bank = MelFilterbank::new(num_bands, lo_hz, hi_hz, sg.num_bins().max(2), sg.bin_hz());
        let frames = sg.frames().iter().map(|f| bank.apply(f)).collect();
        let centers_hz = (0..bank.num_bands()).map(|m| bank.center_hz(m)).collect();
        Self {
            frames,
            times: sg.times().to_vec(),
            centers_hz,
        }
    }

    /// Number of time frames.
    pub fn num_frames(&self) -> usize {
        self.frames.len()
    }

    /// Number of mel bands.
    pub fn num_bands(&self) -> usize {
        self.centers_hz.len()
    }

    /// Energies of frame `t`.
    pub fn frame(&self, t: usize) -> &[f64] {
        &self.frames[t]
    }

    /// Frame centre times, seconds.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Centre frequencies of the mel bands, Hz.
    pub fn centers_hz(&self) -> &[f64] {
        &self.centers_hz
    }

    /// Per-frame index of the strongest band above `threshold` — the mel
    /// ridge that makes Figure 4c's port sweep look logarithmic.
    pub fn ridge(&self, threshold: f64) -> Vec<Option<usize>> {
        self.frames
            .iter()
            .map(|frame| {
                frame
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .filter(|(_, &e)| e >= threshold)
                    .map(|(m, _)| m)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::Signal;
    use crate::spectrogram::StftConfig;
    use crate::synth::{chirp, Tone};
    use std::time::Duration;

    const SR: u32 = 44_100;

    #[test]
    fn mel_hz_roundtrip() {
        for hz in [50.0, 440.0, 1000.0, 4000.0, 15000.0] {
            assert!((mel_to_hz(hz_to_mel(hz)) - hz).abs() < 1e-6);
        }
    }

    #[test]
    fn mel_1000hz_is_1000mel() {
        // The scale's anchor point: 1000 Hz ≈ 1000 mel.
        assert!((hz_to_mel(1000.0) - 999.99).abs() < 0.5);
    }

    #[test]
    fn mel_is_compressive_at_high_frequency() {
        let low_span = hz_to_mel(600.0) - hz_to_mel(500.0);
        let high_span = hz_to_mel(10_100.0) - hz_to_mel(10_000.0);
        assert!(low_span > 5.0 * high_span);
    }

    #[test]
    fn filterbank_centers_monotone() {
        let fb = MelFilterbank::new(40, 100.0, 8000.0, 2049, 44_100.0 / 4096.0);
        for m in 1..fb.num_bands() {
            assert!(fb.center_hz(m) > fb.center_hz(m - 1));
        }
    }

    #[test]
    fn tone_energizes_matching_band() {
        let s = Tone::new(1000.0, Duration::from_millis(200), 0.8).render(SR);
        let sg = Spectrogram::compute(&s, &StftConfig::default_for(SR));
        let mel = MelSpectrogram::from_spectrogram(&sg, 64, 100.0, 8000.0);
        let fb = MelFilterbank::new(64, 100.0, 8000.0, sg.num_bins(), sg.bin_hz());
        let distance = |band: usize| (fb.center_hz(band) - 1000.0).abs();
        let target = (0..fb.num_bands())
            .min_by(|&a, &b| distance(a).total_cmp(&distance(b)))
            .unwrap();
        let frame = mel.frame(mel.num_frames() / 2);
        let best = frame
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert!(
            (best as i64 - target as i64).abs() <= 1,
            "energy in band {best}, expected near {target}"
        );
    }

    #[test]
    fn chirp_ridge_rises_in_band_index() {
        let s = chirp(300.0, 6000.0, Duration::from_secs(1), 0.8, SR);
        let sg = Spectrogram::compute(&s, &StftConfig::default_for(SR));
        let mel = MelSpectrogram::from_spectrogram(&sg, 64, 100.0, 8000.0);
        let ridge: Vec<usize> = mel.ridge(1e-6).into_iter().flatten().collect();
        assert!(ridge.last().unwrap() > &(ridge[0] + 20));
    }

    #[test]
    fn silence_ridge_is_none() {
        let s = Signal::silence(Duration::from_secs(1), SR);
        let sg = Spectrogram::compute(&s, &StftConfig::default_for(SR));
        let mel = MelSpectrogram::from_spectrogram(&sg, 32, 100.0, 8000.0);
        assert!(mel.ridge(1e-9).iter().all(Option::is_none));
    }

    #[test]
    #[should_panic(expected = "at least one mel band")]
    fn zero_bands_panics() {
        MelFilterbank::new(0, 100.0, 8000.0, 1025, 43.0);
    }

    #[test]
    #[should_panic(expected = "bad band edges")]
    fn inverted_edges_panic() {
        MelFilterbank::new(10, 8000.0, 100.0, 1025, 43.0);
    }
}
