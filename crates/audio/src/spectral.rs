//! Magnitude spectra and peak picking.
//!
//! This is the analysis half of the paper's Figure 2a ("FFT of audio from 5
//! switches"): take a windowed frame, compute its amplitude spectrum, and
//! find the spectral peaks, with quadratic interpolation so a tone between
//! bins is still located to sub-bin accuracy.

use crate::fft::FftPlanner;
use crate::signal::Signal;
use crate::window::WindowKind;

/// An amplitude spectrum: one magnitude per non-redundant FFT bin, with the
/// metadata needed to map bins to Hz and magnitudes back to amplitudes.
#[derive(Debug, Clone)]
pub struct Spectrum {
    magnitudes: Vec<f64>,
    sample_rate: u32,
    fft_size: usize,
}

impl Spectrum {
    /// Compute the spectrum of `signal` with the given window, zero-padding
    /// to the next power of two (at least `min_fft` if given). Magnitudes
    /// are normalized so a sinusoid of amplitude `a` centred on a bin reads
    /// ≈ `a` (window coherent gain compensated).
    pub fn compute(
        signal: &Signal,
        window: WindowKind,
        min_fft: Option<usize>,
        planner: &mut FftPlanner,
    ) -> Self {
        let frame_len = signal.len();
        let mut frame = signal.samples().to_vec();
        let gain = window.apply(&mut frame);
        let fft = planner.forward_real(&frame, min_fft);
        let n = fft.len();
        // Amplitude normalization: 2/N_frame for a one-sided spectrum,
        // divided by the window's coherent gain.
        let scale = if frame_len == 0 || gain == 0.0 {
            0.0
        } else {
            2.0 / (frame_len as f64 * gain)
        };
        Self {
            magnitudes: fft[..n / 2 + 1].iter().map(|c| c.norm() * scale).collect(),
            sample_rate: signal.sample_rate(),
            fft_size: n,
        }
    }

    /// Convenience: Hann window, default padding, fresh planner.
    pub fn of(signal: &Signal) -> Self {
        Spectrum::compute(signal, WindowKind::Hann, None, &mut FftPlanner::new())
    }

    /// Magnitude per bin (bin 0 = DC, last bin = Nyquist).
    pub fn magnitudes(&self) -> &[f64] {
        &self.magnitudes
    }

    /// Width of one bin in Hz.
    pub fn bin_hz(&self) -> f64 {
        self.sample_rate as f64 / self.fft_size as f64
    }

    /// Centre frequency of bin `k`.
    pub fn bin_to_hz(&self, k: usize) -> f64 {
        k as f64 * self.bin_hz()
    }

    /// The bin whose centre is nearest `freq_hz`.
    pub fn hz_to_bin(&self, freq_hz: f64) -> usize {
        ((freq_hz / self.bin_hz()).round() as usize).min(self.magnitudes.len().saturating_sub(1))
    }

    /// Magnitude at the bin nearest `freq_hz`.
    pub fn magnitude_at(&self, freq_hz: f64) -> f64 {
        self.magnitudes[self.hz_to_bin(freq_hz)]
    }

    /// The underlying FFT size used.
    pub fn fft_size(&self) -> usize {
        self.fft_size
    }

    /// The signal's sample rate.
    pub fn sample_rate(&self) -> u32 {
        self.sample_rate
    }

    /// Find local maxima above `threshold`, separated by at least
    /// `min_separation_hz`, strongest first.
    pub fn peaks(&self, threshold: f64, min_separation_hz: f64) -> Vec<Peak> {
        let mags = &self.magnitudes;
        let mut candidates: Vec<Peak> = Vec::new();
        for k in 1..mags.len().saturating_sub(1) {
            if mags[k] >= threshold && mags[k] >= mags[k - 1] && mags[k] > mags[k + 1] {
                let (freq, mag) = self.interpolate_peak(k);
                candidates.push(Peak {
                    freq_hz: freq,
                    magnitude: mag,
                    bin: k,
                });
            }
        }
        candidates.sort_by(|a, b| b.magnitude.total_cmp(&a.magnitude));
        // Greedy non-maximum suppression by frequency distance.
        let mut kept: Vec<Peak> = Vec::new();
        for c in candidates {
            if kept
                .iter()
                .all(|p| (p.freq_hz - c.freq_hz).abs() >= min_separation_hz)
            {
                kept.push(c);
            }
        }
        kept
    }

    /// Quadratic (parabolic) interpolation of the peak around bin `k` in the
    /// log-magnitude domain; returns `(freq_hz, magnitude)`.
    fn interpolate_peak(&self, k: usize) -> (f64, f64) {
        let mags = &self.magnitudes;
        if k == 0 || k + 1 >= mags.len() {
            return (self.bin_to_hz(k), mags[k]);
        }
        let eps = 1e-30;
        let (a, b, c) = (
            (mags[k - 1] + eps).ln(),
            (mags[k] + eps).ln(),
            (mags[k + 1] + eps).ln(),
        );
        let denom = a - 2.0 * b + c;
        if denom.abs() < 1e-18 {
            return (self.bin_to_hz(k), mags[k]);
        }
        let delta = 0.5 * (a - c) / denom;
        let delta = delta.clamp(-0.5, 0.5);
        let freq = (k as f64 + delta) * self.bin_hz();
        let mag = (b - 0.25 * (a - c) * delta).exp();
        (freq, mag)
    }

    /// Total signal power in the band `[lo_hz, hi_hz]` (sum of squared bin
    /// magnitudes).
    pub fn band_power(&self, lo_hz: f64, hi_hz: f64) -> f64 {
        let lo = self.hz_to_bin(lo_hz.min(hi_hz));
        let hi = self.hz_to_bin(hi_hz.max(lo_hz));
        self.magnitudes[lo..=hi].iter().map(|m| m * m).sum()
    }
}

/// A detected spectral peak.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Peak {
    /// Interpolated peak frequency in Hz.
    pub freq_hz: f64,
    /// Interpolated peak magnitude (amplitude units).
    pub magnitude: f64,
    /// The FFT bin the peak sits on.
    pub bin: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{render_mixture, Tone};
    use std::time::Duration;

    const SR: u32 = 44_100;

    fn tone(freq: f64, ms: u64, amp: f64) -> Signal {
        Tone::new(freq, Duration::from_millis(ms), amp).render(SR)
    }

    #[test]
    fn single_tone_peak_located_and_scaled() {
        let s = tone(1000.0, 100, 0.6);
        let spec = Spectrum::of(&s);
        let peaks = spec.peaks(0.1, 50.0);
        assert_eq!(peaks.len(), 1);
        assert!(
            (peaks[0].freq_hz - 1000.0).abs() < 3.0,
            "freq {}",
            peaks[0].freq_hz
        );
        assert!(
            (peaks[0].magnitude - 0.6).abs() < 0.08,
            "mag {}",
            peaks[0].magnitude
        );
    }

    #[test]
    fn off_bin_tone_interpolated() {
        // Pick a frequency guaranteed to fall between bins.
        let spec0 = Spectrum::of(&tone(1000.0, 100, 0.5));
        let half_bin = spec0.bin_hz() / 2.0;
        let f = 1000.0 + half_bin;
        let spec = Spectrum::of(&tone(f, 100, 0.5));
        let peaks = spec.peaks(0.1, 50.0);
        assert!((peaks[0].freq_hz - f).abs() < spec.bin_hz() * 0.3);
    }

    #[test]
    fn five_switch_mixture_resolved() {
        // Figure 2a: five switches, disjoint frequencies, all identified.
        let freqs = [600.0, 900.0, 1300.0, 1800.0, 2400.0];
        let tones: Vec<Tone> = freqs
            .iter()
            .map(|&f| Tone::new(f, Duration::from_millis(100), 0.3))
            .collect();
        let s = render_mixture(&tones, SR);
        let spec = Spectrum::of(&s);
        let peaks = spec.peaks(0.05, 50.0);
        assert_eq!(peaks.len(), 5, "peaks: {peaks:?}");
        let mut found: Vec<f64> = peaks.iter().map(|p| p.freq_hz).collect();
        found.sort_by(f64::total_cmp);
        for (f, p) in freqs.iter().zip(found) {
            assert!((f - p).abs() < 5.0, "expected {f}, got {p}");
        }
    }

    #[test]
    fn min_separation_suppresses_sidelobe_duplicates() {
        let s = tone(1000.0, 50, 0.8);
        let spec = Spectrum::of(&s);
        // Threshold above the Hann sidelobe level (−31 dB of 0.8 ≈ 0.022).
        let peaks = spec.peaks(0.05, 40.0);
        let near_1k = peaks
            .iter()
            .filter(|p| (p.freq_hz - 1000.0).abs() < 150.0)
            .count();
        assert_eq!(near_1k, 1, "peaks: {peaks:?}");
    }

    #[test]
    fn band_power_isolates_band() {
        let mut s = tone(500.0, 100, 0.5);
        s.mix_at(&tone(3000.0, 100, 0.5), 0);
        let spec = Spectrum::of(&s);
        let low = spec.band_power(400.0, 600.0);
        let mid = spec.band_power(1000.0, 2000.0);
        let high = spec.band_power(2900.0, 3100.0);
        assert!(low > 100.0 * mid);
        assert!(high > 100.0 * mid);
    }

    #[test]
    fn hz_bin_roundtrip() {
        let spec = Spectrum::of(&tone(1000.0, 100, 0.5));
        let k = spec.hz_to_bin(1000.0);
        assert!((spec.bin_to_hz(k) - 1000.0).abs() <= spec.bin_hz() / 2.0 + 1e-9);
    }

    #[test]
    fn empty_signal_spectrum_is_silent() {
        let spec = Spectrum::of(&Signal::empty(SR));
        assert!(spec.magnitudes().iter().all(|&m| m == 0.0));
    }

    /// FNV-1a over the magnitudes' bit patterns, the FFT size and the bin
    /// count: one number per spectrum, so a golden can pin every bit.
    fn spectrum_digest(spec: &Spectrum) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        let words = [spec.fft_size() as u64, spec.magnitudes().len() as u64];
        for w in words
            .into_iter()
            .chain(spec.magnitudes().iter().map(|m| m.to_bits()))
        {
            for byte in w.to_le_bytes() {
                h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        h
    }

    /// A fixed test frame: two off-bin tones plus LCG noise.
    fn golden_frame(len: usize) -> Signal {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let samples = (0..len)
            .map(|i| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let noise = (state >> 40) as f64 / (1u64 << 24) as f64 - 0.5;
                let t = i as f64 / SR as f64;
                (0.4 * (2.0 * std::f64::consts::PI * 1003.7 * t).sin()
                    + 0.2 * (2.0 * std::f64::consts::PI * 4411.3 * t + 0.3).sin()
                    + 0.1 * noise) as f32
            })
            .collect();
        Signal::from_samples(samples, SR)
    }

    /// `Spectrum::compute`, pinned bit for bit: every window kind at three
    /// frame lengths, with and without a `min_fft` floor.
    #[test]
    fn compute_matches_recorded_bits() {
        const KINDS: [WindowKind; 4] = [
            WindowKind::Rectangular,
            WindowKind::Hann,
            WindowKind::Hamming,
            WindowKind::Blackman,
        ];
        let mut planner = FftPlanner::new();
        let mut got = Vec::new();
        for len in [1, 441, 2205] {
            let frame = golden_frame(len);
            for kind in KINDS {
                for min_fft in [None, Some(8192)] {
                    let spec = Spectrum::compute(&frame, kind, min_fft, &mut planner);
                    got.push(spectrum_digest(&spec));
                }
            }
        }
        let want: [u64; 24] = [
            // len 1: a one-point window is 1.0 whatever its kind.
            0x47de_41a3_aed3_ce13,
            0x916e_6620_a659_8c26,
            0x47de_41a3_aed3_ce13,
            0x916e_6620_a659_8c26,
            0x47de_41a3_aed3_ce13,
            0x916e_6620_a659_8c26,
            0x47de_41a3_aed3_ce13,
            0x916e_6620_a659_8c26,
            // len 441
            0xcf4d_6a8c_637f_b35d,
            0x84ea_280f_3761_0d93,
            0x76e6_0461_0d17_c1d3,
            0x9510_ede0_4586_1a2d,
            0x049f_27fa_12dd_5ad0,
            0x7ea4_959c_ef84_e5b0,
            0x43a7_c3cc_3786_68ca,
            0x6380_0a54_2290_33b0,
            // len 2205
            0x5ead_ae47_3393_75e8,
            0xf138_e5eb_c1bd_055a,
            0xca5a_5807_f054_f0f5,
            0xd4a7_ac76_6df9_e882,
            0x72d2_61a2_2d3e_6911,
            0x0b50_bf66_d8d4_7fea,
            0x4992_dc94_813c_5762,
            0x2a58_5a5c_b9fd_3bc8,
        ];
        assert_eq!(got, want);
    }
}
