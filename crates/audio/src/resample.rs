//! Sample-rate conversion.
//!
//! Microphone models capture at their own ADC rate (cheap mics in the
//! paper's testbed ran at lower rates than the analysis pipeline); the
//! resampler bridges the two. Linear interpolation is sufficient here: the
//! tones of interest sit far below Nyquist at every rate we model.

use crate::signal::Signal;

/// Resample `signal` to `target_rate` by linear interpolation.
///
/// Returns the input unchanged (cloned) when the rates already match.
pub fn resample(signal: &Signal, target_rate: u32) -> Signal {
    assert!(target_rate > 0, "target rate must be non-zero");
    let src_rate = signal.sample_rate();
    if src_rate == target_rate {
        return signal.clone();
    }
    let src = signal.samples();
    if src.is_empty() {
        return Signal::empty(target_rate);
    }
    let ratio = src_rate as f64 / target_rate as f64;
    let out_len = ((src.len() as f64) / ratio).floor() as usize;
    let mut out = Vec::with_capacity(out_len);
    for i in 0..out_len {
        let pos = i as f64 * ratio;
        let k = pos as usize;
        let frac = pos - k as f64;
        let a = src[k] as f64;
        let b = src[(k + 1).min(src.len() - 1)] as f64;
        out.push((a + (b - a) * frac) as f32);
    }
    Signal::from_samples(out, target_rate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spectral::Spectrum;
    use crate::synth::Tone;
    use std::time::Duration;

    #[test]
    fn same_rate_is_identity() {
        let s = Tone::new(440.0, Duration::from_millis(50), 0.5).render(44_100);
        let r = resample(&s, 44_100);
        assert_eq!(s.samples(), r.samples());
    }

    #[test]
    fn downsample_halves_length() {
        let s = Signal::from_samples(vec![0.0; 1000], 44_100);
        let r = resample(&s, 22_050);
        assert!((r.len() as i64 - 500).abs() <= 1);
        assert_eq!(r.sample_rate(), 22_050);
    }

    #[test]
    fn tone_frequency_preserved_across_resample() {
        let s = Tone::new(1000.0, Duration::from_millis(200), 0.8).render(44_100);
        let r = resample(&s, 16_000);
        let spec = Spectrum::of(&r);
        let peaks = spec.peaks(0.2, 50.0);
        assert!(!peaks.is_empty());
        assert!(
            (peaks[0].freq_hz - 1000.0).abs() < 5.0,
            "freq {}",
            peaks[0].freq_hz
        );
    }

    #[test]
    fn upsample_preserves_tone() {
        let s = Tone::new(500.0, Duration::from_millis(200), 0.5).render(16_000);
        let r = resample(&s, 48_000);
        let spec = Spectrum::of(&r);
        let peaks = spec.peaks(0.15, 50.0);
        assert!((peaks[0].freq_hz - 500.0).abs() < 5.0);
    }

    #[test]
    fn empty_input_empty_output() {
        let s = Signal::empty(44_100);
        assert!(resample(&s, 8_000).is_empty());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_target_rate_panics() {
        resample(&Signal::empty(44_100), 0);
    }
}
