//! Microphone model.
//!
//! The paper tests "different types of microphones (from very cheap to
//! fairly expensive)". A microphone here is an ADC front-end: it resamples
//! the pressure signal at the listener position to its own capture rate,
//! adds its self-noise floor, applies a response band, and clips at full
//! scale.

use mdn_audio::noise::white_noise;
use mdn_audio::resample::resample;
use mdn_audio::signal::spl_to_amplitude;
use mdn_audio::Signal;

/// A microphone/ADC model.
#[derive(Debug, Clone)]
pub struct Microphone {
    /// Human-readable name.
    pub name: &'static str,
    /// Capture sample rate in Hz.
    pub sample_rate: u32,
    /// Self-noise floor in dB SPL (electronics hiss added to every capture).
    pub noise_floor_spl: f64,
    /// Usable response band `(lo_hz, hi_hz)`; energy outside is attenuated
    /// by simple one-pole filters.
    pub band: (f64, f64),
    /// Seed for the self-noise generator (captures are deterministic).
    pub noise_seed: u64,
}

impl Microphone {
    /// A very cheap electret capsule: 16 kHz capture, 35 dB SPL self-noise,
    /// narrow band.
    pub fn cheap() -> Self {
        Self {
            name: "cheap-electret",
            sample_rate: 16_000,
            noise_floor_spl: 35.0,
            band: (150.0, 7_000.0),
            noise_seed: 0x31C,
        }
    }

    /// A decent USB measurement mic: 44.1 kHz, 18 dB SPL self-noise.
    pub fn measurement() -> Self {
        Self {
            name: "measurement",
            sample_rate: 44_100,
            noise_floor_spl: 18.0,
            band: (40.0, 20_000.0),
            noise_seed: 0xA11CE,
        }
    }

    /// An ultrasound-capable instrumentation mic (96 kHz capture) for the
    /// §8 extension.
    pub fn ultrasound() -> Self {
        Self {
            name: "ultrasound",
            sample_rate: 96_000,
            noise_floor_spl: 22.0,
            band: (40.0, 45_000.0),
            noise_seed: 0xBA7,
        }
    }

    /// Capture a pressure signal: band-limit, resample to the ADC rate, add
    /// the self-noise floor, clip at full scale.
    pub fn capture(&self, pressure: &Signal) -> Signal {
        let mut sig = band_limit(pressure, self.band.0, self.band.1);
        if sig.sample_rate() != self.sample_rate {
            sig = resample(&sig, self.sample_rate);
        }
        if !sig.is_empty() {
            let floor = white_noise(
                sig.duration(),
                spl_to_amplitude(self.noise_floor_spl),
                self.sample_rate,
                self.noise_seed,
            );
            sig.mix_at(&floor, 0);
        }
        sig.clip();
        sig
    }
}

/// Band-limit a signal with cascaded one-pole high/low-pass filters.
fn band_limit(signal: &Signal, lo_hz: f64, hi_hz: f64) -> Signal {
    let sr = signal.sample_rate() as f64;
    let dt = 1.0 / sr;
    let alpha = |fc: f64| {
        let rc = 1.0 / (2.0 * std::f64::consts::PI * fc);
        dt / (rc + dt)
    };
    let a_lo = alpha(lo_hz.max(1.0));
    let a_hi = alpha(hi_hz.min(sr / 2.0 - 1.0));
    let mut lp_state = 0.0f64; // tracks low-frequency content (to subtract)
    let mut out_state = 0.0f64; // lowpass at the upper cutoff
    let mut out = Vec::with_capacity(signal.len());
    for &x in signal.samples() {
        lp_state += a_lo * (x as f64 - lp_state);
        let highpassed = x as f64 - lp_state;
        out_state += a_hi * (highpassed - out_state);
        out.push(out_state as f32);
    }
    Signal::from_samples(out, signal.sample_rate())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdn_audio::spectral::Spectrum;
    use mdn_audio::synth::Tone;
    use std::time::Duration;

    const SR: u32 = 44_100;

    fn tone(freq: f64, ms: u64, spl: f64) -> Signal {
        Tone::new(freq, Duration::from_millis(ms), spl_to_amplitude(spl)).render(SR)
    }

    #[test]
    fn capture_resamples_to_adc_rate() {
        let mic = Microphone::cheap();
        let cap = mic.capture(&tone(1000.0, 100, 60.0));
        assert_eq!(cap.sample_rate(), 16_000);
        assert!((cap.duration().as_secs_f64() - 0.1).abs() < 0.01);
    }

    #[test]
    fn in_band_tone_survives_capture() {
        let mic = Microphone::measurement();
        let cap = mic.capture(&tone(1000.0, 200, 60.0));
        let spec = Spectrum::of(&cap);
        let peaks = spec.peaks(spl_to_amplitude(50.0), 50.0);
        assert!(!peaks.is_empty(), "tone lost in capture");
        assert!((peaks[0].freq_hz - 1000.0).abs() < 10.0);
    }

    #[test]
    fn out_of_band_tone_attenuated_by_cheap_mic() {
        let mic = Microphone::cheap();
        // 20 Hz is far below the cheap mic's 150 Hz corner. Compare the
        // captured tone energy at its own frequency against in-band.
        let low = mic.capture(&tone(20.0, 500, 70.0));
        let mid = mic.capture(&tone(1000.0, 500, 70.0));
        let low_mag = Spectrum::of(&low).magnitude_at(20.0);
        let mid_mag = Spectrum::of(&mid).magnitude_at(1000.0);
        assert!(mid_mag > 5.0 * low_mag, "mid {mid_mag} low {low_mag}");
    }

    #[test]
    fn noise_floor_present_in_silence() {
        let mic = Microphone::measurement();
        let cap = mic.capture(&Signal::silence(Duration::from_millis(500), SR));
        let spl = cap.rms_spl();
        // Should land near the configured floor (within the band-limit loss).
        assert!(spl > 5.0 && spl < 25.0, "floor captured at {spl} dB SPL");
    }

    #[test]
    fn capture_is_deterministic() {
        let mic = Microphone::measurement();
        let sig = tone(700.0, 100, 60.0);
        assert_eq!(mic.capture(&sig).samples(), mic.capture(&sig).samples());
    }

    #[test]
    fn loud_input_is_clipped() {
        let mic = Microphone::measurement();
        let loud = tone(1000.0, 100, 130.0); // 30 dB over full scale
        let cap = mic.capture(&loud);
        assert!(cap.peak() <= 1.0);
    }

    #[test]
    fn empty_input_empty_output() {
        let mic = Microphone::cheap();
        assert!(mic.capture(&Signal::empty(SR)).is_empty());
    }
}
