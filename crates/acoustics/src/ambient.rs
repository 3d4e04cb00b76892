//! Ambient noise profiles.
//!
//! The paper evaluates in two rooms: a datacenter (noise "may exceed
//! 85 dBA", dominated by hundreds of fans and HVAC) and an office
//! (conversation-level, ~50 dB). A profile renders a deterministic noise
//! bed at a calibrated SPL; the fan-failure experiment (§7 / Figures 6–7)
//! runs the same detector against both.

use mdn_audio::noise::{
    band_noise_add, band_noise_psd, pink_noise_add, pink_noise_psd, white_noise_add,
    white_noise_psd,
};
use mdn_audio::signal::{spl_to_amplitude, Signal, Window};
use std::f64::consts::TAU;
use std::time::Duration;

/// A parametric ambient noise bed.
#[derive(Debug, Clone)]
pub struct AmbientProfile {
    /// Human-readable name ("datacenter", "office", …).
    pub name: &'static str,
    /// Overall level of the bed in dB SPL.
    pub level_spl: f64,
    /// Fraction of the bed's amplitude that is pink (vs white) noise.
    pub pink_fraction: f64,
    /// Extra band-limited rumble: `(lo_hz, hi_hz, relative_amplitude)`.
    pub rumble_band: Option<(f64, f64, f64)>,
    /// Steady hum lines (mains/HVAC): `(freq_hz, relative_amplitude)`.
    pub hum_lines: Vec<(f64, f64)>,
}

impl AmbientProfile {
    /// Near-silence: an anechoic-ish room at 20 dB SPL, for unit tests that
    /// want the channel without the environment.
    pub fn quiet() -> Self {
        Self {
            name: "quiet",
            level_spl: 20.0,
            pink_fraction: 1.0,
            rumble_band: None,
            hum_lines: Vec::new(),
        }
    }

    /// An office at ~45 dB SPL: pink-dominated, light 60 Hz hum.
    pub fn office() -> Self {
        Self {
            name: "office",
            level_spl: 45.0,
            pink_fraction: 0.8,
            rumble_band: None,
            hum_lines: vec![(60.0, 0.2), (120.0, 0.1)],
        }
    }

    /// A datacenter at ~80 dB SPL: broadband fan wash (100 Hz – 4 kHz),
    /// strong HVAC rumble and mains-harmonic hum — the paper's "typical
    /// datacenter noise".
    pub fn datacenter() -> Self {
        Self {
            name: "datacenter",
            level_spl: 80.0,
            pink_fraction: 0.5,
            rumble_band: Some((100.0, 4000.0, 0.7)),
            hum_lines: vec![(60.0, 0.3), (120.0, 0.25), (240.0, 0.15), (360.0, 0.1)],
        }
    }

    /// Amplitude gain taking the unit-parameter component mix to
    /// [`Self::level_spl`], computed analytically from the components'
    /// expected powers (components are independent, so powers add; a hum
    /// line of amplitude `a` carries power `a²/2`). Analytic calibration —
    /// rather than measuring the rendered bed's RMS — is what keeps the
    /// bed a pure function of the absolute sample index, and therefore
    /// seekable: a measured-RMS normalization would couple every sample's
    /// value to the render's duration.
    fn mix_gain(&self) -> f64 {
        let mut power = self.pink_fraction * self.pink_fraction;
        if self.pink_fraction < 1.0 {
            let w = 1.0 - self.pink_fraction;
            power += w * w;
        }
        if let Some((_, _, amp)) = self.rumble_band {
            power += amp * amp;
        }
        for &(_, amp) in &self.hum_lines {
            power += amp * amp / 2.0;
        }
        spl_to_amplitude(self.level_spl) / power.sqrt().max(1e-12)
    }

    /// Worst-case expected tone-equivalent magnitude the bed leaks into one
    /// detector bin of width `bin_hz`, over every bin centre `lo_hz,
    /// lo_hz + bin_hz, …` up to `hi_hz` — the floor a detector watching any
    /// slot in that range must stay above to gate this bed out. Walks real
    /// bin centres, so a slot grid with `bin_hz` spacing starting at `lo_hz`
    /// is evaluated exactly; `lo_hz == hi_hz` asks about one bin. The
    /// magnitude is what a Goertzel-style detector (normalized so a
    /// sinusoid of peak amplitude `a` reads `a`) typically reports for this
    /// bed at that frequency.
    ///
    /// Composed from each component's analytic one-sided PSD (white flat,
    /// pink per Voss row, rumble per the band filter's real `|H|⁴`
    /// response): broadband parts contribute `√(2·S(f)·bin_hz)` in power
    /// sum; hum lines are tonal, so a line contributes its full amplitude
    /// when it falls in the bin, decaying with a conservative
    /// `1/(1 + (Δf/bin)²)` skirt off-bin.
    pub fn peak_bin_leakage(&self, lo_hz: f64, hi_hz: f64, bin_hz: f64, sample_rate: u32) -> f64 {
        assert!(bin_hz > 0.0, "bin width must be positive");
        assert!(hi_hz >= lo_hz, "inverted range {lo_hz}..{hi_hz}");
        let gain = self.mix_gain();
        let white_psd = if self.pink_fraction < 1.0 {
            white_noise_psd((1.0 - self.pink_fraction) * gain, sample_rate)
        } else {
            0.0
        };
        let pink_rms = self.pink_fraction * gain;
        let mut worst = 0.0f64;
        let bins = ((hi_hz - lo_hz) / bin_hz).floor() as usize + 1;
        for b in 0..bins {
            let f = lo_hz + b as f64 * bin_hz;
            let mut psd = white_psd + pink_noise_psd(pink_rms, f, sample_rate);
            if let Some((lo, hi, amp)) = self.rumble_band {
                psd += band_noise_psd(amp * gain, lo, hi, f, sample_rate);
            }
            let mut mag = (2.0 * psd * bin_hz).sqrt();
            for &(line, amp) in &self.hum_lines {
                let df = (f - line) / bin_hz;
                mag += amp * gain / (1.0 + df * df);
            }
            worst = worst.max(mag);
        }
        worst
    }

    /// Add samples `[from, from + out.len())` of the infinite ambient
    /// stream into `out`. Every sample is a pure function of its absolute
    /// index, so any window of the stream renders byte-identically to the
    /// same span of a from-zero render — the property `Scene::render_window`
    /// is built on.
    pub fn render_into(&self, out: &mut [f32], from: u64, sample_rate: u32, seed: u64) {
        if out.is_empty() {
            return;
        }
        let gain = self.mix_gain();
        pink_noise_add(out, from, self.pink_fraction * gain, seed);
        if self.pink_fraction < 1.0 {
            white_noise_add(out, from, (1.0 - self.pink_fraction) * gain, seed ^ 0x11);
        }
        if let Some((lo, hi, amp)) = self.rumble_band {
            band_noise_add(out, from, lo, hi, amp * gain, sample_rate, seed ^ 0x22);
        }
        for (line, &(freq, amp)) in self.hum_lines.iter().enumerate() {
            let step = TAU * freq / sample_rate as f64;
            let phase = line as f64; // de-phase stacked harmonics
            let a = amp * gain;
            for (i, o) in out.iter_mut().enumerate() {
                *o += (a * (phase + step * (from + i as u64) as f64).sin()) as f32;
            }
        }
    }

    /// Render window `w` of the bed at `sample_rate`, deterministic under
    /// `seed` and byte-identical to the same span of any other window.
    pub fn render_window(&self, w: Window, sample_rate: u32, seed: u64) -> Signal {
        let (a, b) = w.sample_range(sample_rate);
        let mut out = Signal::from_samples(vec![0.0; b - a], sample_rate);
        self.render_into(out.samples_mut(), a as u64, sample_rate, seed);
        out
    }

    /// Render `duration` of the bed at `sample_rate`, deterministic under
    /// `seed`. The mix is calibrated analytically so its RMS matches
    /// [`Self::level_spl`] under the crate's SPL calibration.
    pub fn render(&self, duration: Duration, sample_rate: u32, seed: u64) -> Signal {
        self.render_window(Window::from_start(duration), sample_rate, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SR: u32 = 44_100;
    const SEC: Duration = Duration::from_secs(1);

    #[test]
    fn rendered_level_matches_spl() {
        for profile in [
            AmbientProfile::quiet(),
            AmbientProfile::office(),
            AmbientProfile::datacenter(),
        ] {
            let bed = profile.render(SEC, SR, 1);
            let err = (bed.rms_spl() - profile.level_spl).abs();
            assert!(
                err < 0.5,
                "{}: rms {} dB vs {} dB",
                profile.name,
                bed.rms_spl(),
                profile.level_spl
            );
        }
    }

    #[test]
    fn bin_leakage_tracks_spectral_concentration() {
        // The datacenter bed stacks rumble, pink tilt, and hum at low
        // frequencies: the model must report far more leakage at 400 Hz
        // than a flat spread of the same total power would, and far more
        // than at 10 kHz, where only the white tail remains.
        let dc = AmbientProfile::datacenter();
        let uniform =
            mdn_audio::signal::spl_to_amplitude(dc.level_spl) * (20.0f64 / 20_000.0).sqrt();
        let low = dc.peak_bin_leakage(400.0, 400.0, 20.0, SR);
        assert!(
            low > 1.5 * uniform,
            "low-band leakage {low:.3e} should beat the uniform estimate {uniform:.3e}"
        );
        assert!(low > 5.0 * dc.peak_bin_leakage(10_000.0, 10_000.0, 20.0, SR));
        // Quiet room: pink only, everything tiny.
        assert!(AmbientProfile::quiet().peak_bin_leakage(400.0, 400.0, 20.0, SR) < 1e-4);
    }

    #[test]
    fn peak_bin_leakage_bounds_the_rendered_bed() {
        // The whole point of the estimate: real Goertzel magnitudes of the
        // rendered bed must stay under ~3× the modeled per-bin leakage at
        // every slot a detector might watch (the same headroom the
        // detector's SNR gate assumes).
        use mdn_audio::goertzel::Goertzel;
        for profile in [AmbientProfile::office(), AmbientProfile::datacenter()] {
            let bed = profile.render(Duration::from_millis(400), SR, 0xBED);
            let frame = (SR as usize) / 20; // 50 ms → 20 Hz resolution
            for slot in 0..40 {
                let f = 300.0 + slot as f64 * 20.0;
                let est = profile.peak_bin_leakage(f, f, 20.0, SR);
                for start in (0..bed.samples().len() - frame).step_by(frame / 2) {
                    let mag = Goertzel::new(f, SR).magnitude(&bed.samples()[start..start + frame]);
                    assert!(
                        mag < 3.0 * est,
                        "{} at {f} Hz: measured {mag:.3e} vs estimate {est:.3e}",
                        profile.name
                    );
                }
            }
        }
    }

    #[test]
    fn peak_bin_leakage_is_the_range_maximum() {
        let dc = AmbientProfile::datacenter();
        let peak = dc.peak_bin_leakage(300.0, 1100.0, 20.0, SR);
        let mut max_single = 0.0f64;
        for slot in 0..41 {
            let f = 300.0 + slot as f64 * 20.0;
            max_single = max_single.max(dc.peak_bin_leakage(f, f, 20.0, SR));
        }
        assert!((peak - max_single).abs() < 1e-12);
    }

    #[test]
    fn datacenter_is_much_louder_than_office() {
        let dc = AmbientProfile::datacenter().render(SEC, SR, 1);
        let office = AmbientProfile::office().render(SEC, SR, 1);
        // 35 dB difference → ~56× in amplitude.
        assert!(dc.rms() > 30.0 * office.rms());
    }

    #[test]
    fn deterministic_under_seed() {
        let p = AmbientProfile::datacenter();
        let a = p.render(Duration::from_millis(200), SR, 9);
        let b = p.render(Duration::from_millis(200), SR, 9);
        assert_eq!(a.samples(), b.samples());
        let c = p.render(Duration::from_millis(200), SR, 10);
        assert_ne!(a.samples(), c.samples());
    }

    #[test]
    fn datacenter_has_hum_lines() {
        use mdn_audio::spectral::Spectrum;
        let bed = AmbientProfile::datacenter().render(Duration::from_secs(2), SR, 4);
        let spec = Spectrum::of(&bed);
        // 120 Hz hum should stand above the neighbouring broadband floor.
        let hum = spec.magnitude_at(120.0);
        let floor = spec.magnitude_at(95.0).max(spec.magnitude_at(145.0));
        assert!(hum > 1.5 * floor, "hum {hum} floor {floor}");
    }

    #[test]
    fn windowed_render_matches_from_zero_render() {
        for profile in [
            AmbientProfile::quiet(),
            AmbientProfile::office(),
            AmbientProfile::datacenter(),
        ] {
            let full = profile.render(Duration::from_millis(600), SR, 7);
            let w = Window::new(Duration::from_millis(250), Duration::from_millis(200));
            let windowed = profile.render_window(w, SR, 7);
            let (a, b) = w.sample_range(SR);
            assert_eq!(
                windowed.samples(),
                &full.samples()[a..b],
                "{}: windowed ambient diverged",
                profile.name
            );
        }
    }

    #[test]
    fn zero_duration_is_empty() {
        assert!(AmbientProfile::office()
            .render(Duration::ZERO, SR, 1)
            .is_empty());
    }
}
