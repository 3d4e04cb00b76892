//! Noise and interference generators.
//!
//! Three kinds of interference appear in the paper's experiments:
//!
//! * broadband environment noise (HVAC, many fans — approximated by white
//!   and pink noise at a configured SPL),
//! * structured musical interference — the paper plays Sia's *Cheap Thrills*
//!   as "random background noise" in Figures 4b/4d. We cannot ship the
//!   recording, so [`MusicNoise`] synthesizes a deterministic pop-style
//!   track (chord loop, melody, percussion) with comparable spectral
//!   occupancy, which exercises the identical detection path,
//! * narrowband interferers (a rogue tone), for robustness tests.
//!
//! All generators are seeded and fully deterministic — and **seekable**:
//! sample `i` of a stream is a pure function of `(seed, i)` (white, pink)
//! or of `i`'s position within a fixed absolute block grid (band noise),
//! never of a sequential RNG. That is what lets the windowed render path
//! (`Scene::render_window`) start an ambient bed mid-stream and still
//! produce output byte-identical to a from-zero render: the `*_noise_at`
//! entry points generate `[from, from + n)` of the infinite stream
//! without touching the prefix.

use crate::signal::{duration_to_samples, Signal};
use crate::synth::{Oscillator, Tone};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// splitmix64 finalizer: the stateless hash behind every counter-based
/// generator here.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform in `[-0.5, 0.5)` from 32 hash bits.
#[inline]
fn uniform_half(bits: u64) -> f64 {
    (bits & 0xFFFF_FFFF) as f64 / 4_294_967_296.0 - 0.5
}

/// One sample of the unit-variance-ish white stream for `(seed, index)`:
/// Irwin–Hall(4) — the sum of four uniforms in `[-0.5, 0.5)`, variance
/// `4/12 = 1/3`. Pure function of its arguments, hence seekable.
#[inline]
fn white_sample(seed_hash: u64, index: u64) -> f64 {
    let h1 = splitmix64(index.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seed_hash);
    let h2 = splitmix64(h1);
    uniform_half(h1) + uniform_half(h1 >> 32) + uniform_half(h2) + uniform_half(h2 >> 32)
}

/// Amplitude scale taking the Irwin–Hall(4) stream (std `1/√3`) to `rms`.
#[inline]
fn white_scale(rms: f64) -> f64 {
    rms / (1.0 / 3f64).sqrt()
}

/// Gaussian-ish white noise (sum of 4 uniforms, Irwin–Hall), deterministic
/// under `seed`, with RMS ≈ `rms`. Samples `[0, duration)` of the stream;
/// see [`white_noise_at`] to start mid-stream.
pub fn white_noise(duration: Duration, rms: f64, sample_rate: u32, seed: u64) -> Signal {
    white_noise_at(
        0,
        duration_to_samples(duration, sample_rate),
        rms,
        sample_rate,
        seed,
    )
}

/// Samples `[from, from + n)` of the seeded white-noise stream — the same
/// values a from-zero [`white_noise`] would produce at those indices.
pub fn white_noise_at(from: u64, n: usize, rms: f64, sample_rate: u32, seed: u64) -> Signal {
    let k = splitmix64(seed);
    let scale = white_scale(rms);
    let samples = (0..n as u64)
        .map(|i| (white_sample(k, from + i) * scale) as f32)
        .collect();
    Signal::from_samples(samples, sample_rate)
}

/// Add samples `[from, from + out.len())` of the seeded white-noise stream
/// into `out`, one `+= (v·scale) as f32` per sample — the allocation-free
/// mixing primitive the windowed ambient/fault paths build on.
pub fn white_noise_add(out: &mut [f32], from: u64, rms: f64, seed: u64) {
    let k = splitmix64(seed);
    let scale = white_scale(rms);
    for (i, o) in out.iter_mut().enumerate() {
        *o += (white_sample(k, from + i as u64) * scale) as f32;
    }
}

/// Octave rows of the Voss–McCartney pink-noise generator. 12 rows keep
/// the `1/f` tilt down to ~10 Hz at 44.1 kHz while the slowest row still
/// refreshes ~10×/s, keeping the short-window RMS close to its analytic
/// expectation.
const PINK_ROWS: usize = 12;

/// Per-row hashed salts so rows draw independent streams.
#[inline]
fn pink_salts(seed: u64) -> [u64; PINK_ROWS] {
    let mut salts = [0u64; PINK_ROWS];
    for (r, s) in salts.iter_mut().enumerate() {
        *s = splitmix64(seed ^ (r as u64).wrapping_mul(0xA076_1D64_78BD_642F));
    }
    salts
}

/// One sample of the unscaled pink stream: row `r` holds a uniform in
/// `[-1, 1)` that refreshes every `2^r` samples (rows staggered by half a
/// period so they don't all step at once); the sample is the row sum.
/// Each row value is a hash of its block index — a pure function of
/// `(seed, i)`, hence seekable. Row variance is `1/3`, so the sum's RMS
/// is exactly `√(PINK_ROWS/3)` in expectation.
#[inline]
fn pink_sample(salts: &[u64; PINK_ROWS], index: u64) -> f64 {
    let mut sum = 0.0;
    for (r, &salt) in salts.iter().enumerate() {
        let block = (index + ((1u64 << r) >> 1)) >> r;
        sum += uniform_half(splitmix64(block ^ salt)) * 2.0;
    }
    sum
}

/// Pink (1/f) noise via a hashed Voss–McCartney scheme with
/// `PINK_ROWS` octave rows, calibrated analytically to RMS ≈ `rms`.
/// Samples `[0, duration)` of the stream; see [`pink_noise_at`].
pub fn pink_noise(duration: Duration, rms: f64, sample_rate: u32, seed: u64) -> Signal {
    pink_noise_at(
        0,
        duration_to_samples(duration, sample_rate),
        rms,
        sample_rate,
        seed,
    )
}

/// Samples `[from, from + n)` of the seeded pink-noise stream.
pub fn pink_noise_at(from: u64, n: usize, rms: f64, sample_rate: u32, seed: u64) -> Signal {
    let salts = pink_salts(seed);
    let scale = rms / (PINK_ROWS as f64 / 3.0).sqrt();
    let samples = (0..n as u64)
        .map(|i| (pink_sample(&salts, from + i) * scale) as f32)
        .collect();
    Signal::from_samples(samples, sample_rate)
}

/// Add samples `[from, from + out.len())` of the seeded pink-noise stream
/// into `out`.
pub fn pink_noise_add(out: &mut [f32], from: u64, rms: f64, seed: u64) {
    let salts = pink_salts(seed);
    let scale = rms / (PINK_ROWS as f64 / 3.0).sqrt();
    for (i, o) in out.iter_mut().enumerate() {
        *o += (pink_sample(&salts, from + i as u64) * scale) as f32;
    }
}

/// `sin(x)/x`, continuous at zero.
#[inline]
fn sinc(x: f64) -> f64 {
    if x.abs() < 1e-12 {
        1.0
    } else {
        x.sin() / x
    }
}

/// One-sided power spectral density (power per Hz) of the white stream at
/// RMS `rms`: flat across `[0, sample_rate/2]`.
pub fn white_noise_psd(rms: f64, sample_rate: u32) -> f64 {
    rms * rms / (sample_rate as f64 / 2.0)
}

/// One-sided power spectral density of the pink stream at RMS `rms`,
/// evaluated at `freq_hz`. Exact for the generator actually shipped: each
/// Voss–McCartney row is a zero-order hold over `2^r` samples, so its
/// spectrum is the hold's `sinc²`, and independent rows add in power. The
/// densities integrate back to `rms²` over the Nyquist band.
pub fn pink_noise_psd(rms: f64, freq_hz: f64, sample_rate: u32) -> f64 {
    let sr = sample_rate as f64;
    let row_var = rms * rms / PINK_ROWS as f64; // scale² · (1/3) per row
    let mut psd = 0.0;
    for r in 0..PINK_ROWS {
        let hold = (1u64 << r) as f64;
        let s = sinc(std::f64::consts::PI * freq_hz * hold / sr);
        psd += 2.0 * row_var * (hold / sr) * s * s;
    }
    psd
}

/// One-sided power spectral density of the band-noise stream at RMS
/// `rms` over `[lo_hz, hi_hz]`, evaluated at `freq_hz` — the white
/// input's flat density shaped by the cascaded band section's actual
/// `|H|⁴` response, normalized by the same analytic gain the generator
/// calibrates with. Integrates back to `rms²` over the Nyquist band.
pub fn band_noise_psd(rms: f64, lo_hz: f64, hi_hz: f64, freq_hz: f64, sample_rate: u32) -> f64 {
    assert!(hi_hz > lo_hz && lo_hz > 0.0, "bad band {lo_hz}..{hi_hz}");
    let a_hi = one_pole_alpha(hi_hz, sample_rate);
    let a_lo = one_pole_alpha(lo_hz, sample_rate);
    let g = band_gain_rms(a_hi, a_lo); // √(mean |H_hi − H_lo|⁴)
    let w = std::f64::consts::TAU * freq_hz / sample_rate as f64;
    let (hr, hi) = one_pole_response(a_hi, w);
    let (lr, li) = one_pole_response(a_lo, w);
    let mag_sq = (hr - lr) * (hr - lr) + (hi - li) * (hi - li);
    rms * rms * (mag_sq * mag_sq) / (g * g) / (sample_rate as f64 / 2.0)
}

/// Band-noise block grid: the IIR filter state is re-derived per absolute
/// block of this many samples, so any block can be generated alone.
const BAND_BLOCK: u64 = 1 << 14;

/// Warm-up run-in before each block, from zero state. The slowest pole in
/// any profile (100 Hz low cutoff) decays by `e^{-2π·100·4096/44100}` ≈
/// 10⁻²⁶ over this run-in, so the truncated pre-history is far below f32
/// resolution — while staying an absolute function of the block index,
/// which is what makes the stream seekable *and* byte-stable across
/// arbitrary windows.
const BAND_WARMUP: u64 = 1 << 12;

/// Frequency response of the one-pole lowpass with coefficient `a` at
/// normalized angular frequency `w`:
/// `H(e^{jw}) = a / ((1 − (1−a)cos w) + j(1−a)sin w)`.
#[inline]
fn one_pole_response(a: f64, w: f64) -> (f64, f64) {
    let re_d = 1.0 - (1.0 - a) * w.cos();
    let im_d = (1.0 - a) * w.sin();
    let den = re_d * re_d + im_d * im_d;
    (a * re_d / den, -a * im_d / den)
}

/// One-pole lowpass coefficient for cutoff `fc`.
#[inline]
fn one_pole_alpha(fc: f64, sample_rate: u32) -> f64 {
    let dt = 1.0 / sample_rate as f64;
    let rc = 1.0 / (2.0 * std::f64::consts::PI * fc);
    dt / (rc + dt)
}

/// Analytic RMS gain of the cascaded band section pair for unit-variance
/// white input: the cascade is `H(z) = (H_hi(z) − H_lo(z))²` with
/// `H_c(z) = a_c / (1 − (1−a_c)·z⁻¹)`, so the output power is the white
/// input power times the mean of `|H_hi − H_lo|⁴` over frequency.
/// Evaluated by midpoint quadrature — deterministic, duration-free, and
/// the reason the generator no longer needs a measured-RMS normalization
/// pass (which would have made the stream un-seekable).
fn band_gain_rms(a_hi: f64, a_lo: f64) -> f64 {
    const M: usize = 4096;
    let mut acc = 0.0;
    for m in 0..M {
        let w = std::f64::consts::PI * (m as f64 + 0.5) / M as f64;
        let (hr, hi) = one_pole_response(a_hi, w);
        let (lr, li) = one_pole_response(a_lo, w);
        let (dr, di) = (hr - lr, hi - li);
        let mag_sq = dr * dr + di * di;
        acc += mag_sq * mag_sq; // |H_hi − H_lo|⁴ = |cascade|²
    }
    (acc / M as f64).sqrt()
}

/// Run the band filter over absolute indices, adding scaled output for
/// indices within `[from, from + out.len())` into `out`.
fn band_noise_run(out: &mut [f32], from: u64, a_hi: f64, a_lo: f64, scale: f64, seed_hash: u64) {
    if out.is_empty() {
        return;
    }
    let end = from + out.len() as u64;
    let white = white_scale(1.0);
    let (first_block, last_block) = (from / BAND_BLOCK, (end - 1) / BAND_BLOCK);
    for block in first_block..=last_block {
        // Warm-up may reach below index 0 for block 0: the conceptual
        // stream is indexed in two's complement, so negative indices hash
        // deterministically too.
        let sim_start = (block * BAND_BLOCK) as i64 - BAND_WARMUP as i64;
        let sim_end = ((block + 1) * BAND_BLOCK).min(end) as i64;
        // Only this block's own samples are written; a block's warm-up may
        // overlap the previous block's range, which the previous block owns.
        let write_from = ((block * BAND_BLOCK) as i64).max(from as i64);
        let mut state = [0.0f64; 4]; // [hi1, lo1, hi2, lo2]
        for i in sim_start..sim_end {
            let x = white_sample(seed_hash, i as u64) * white;
            state[0] += a_hi * (x - state[0]);
            state[1] += a_lo * (x - state[1]);
            let band1 = state[0] - state[1];
            state[2] += a_hi * (band1 - state[2]);
            state[3] += a_lo * (band1 - state[3]);
            if i >= write_from {
                out[(i - from as i64) as usize] += ((state[2] - state[3]) * scale) as f32;
            }
        }
    }
}

/// Band-limited noise: white noise passed through a crude bandpass
/// (a cascaded difference of one-pole lowpasses), calibrated analytically
/// to RMS ≈ `rms`. Samples `[0, duration)` of the stream; see
/// [`band_noise_at`].
pub fn band_noise(
    duration: Duration,
    lo_hz: f64,
    hi_hz: f64,
    rms: f64,
    sample_rate: u32,
    seed: u64,
) -> Signal {
    band_noise_at(
        0,
        duration_to_samples(duration, sample_rate),
        lo_hz,
        hi_hz,
        rms,
        sample_rate,
        seed,
    )
}

/// Samples `[from, from + n)` of the seeded band-noise stream. The filter
/// state is reconstructed on an absolute block grid (`BAND_BLOCK` with
/// `BAND_WARMUP` run-in), so the values are byte-identical no matter
/// which window of the stream is requested.
pub fn band_noise_at(
    from: u64,
    n: usize,
    lo_hz: f64,
    hi_hz: f64,
    rms: f64,
    sample_rate: u32,
    seed: u64,
) -> Signal {
    let mut out = Signal::from_samples(vec![0.0; n], sample_rate);
    band_noise_add(
        out.samples_mut(),
        from,
        lo_hz,
        hi_hz,
        rms,
        sample_rate,
        seed,
    );
    out
}

/// Add samples `[from, from + out.len())` of the seeded band-noise stream
/// into `out`.
pub fn band_noise_add(
    out: &mut [f32],
    from: u64,
    lo_hz: f64,
    hi_hz: f64,
    rms: f64,
    sample_rate: u32,
    seed: u64,
) {
    assert!(hi_hz > lo_hz && lo_hz > 0.0, "bad band {lo_hz}..{hi_hz}");
    let a_hi = one_pole_alpha(hi_hz, sample_rate);
    let a_lo = one_pole_alpha(lo_hz, sample_rate);
    let scale = rms / band_gain_rms(a_hi, a_lo).max(1e-12);
    band_noise_run(out, from, a_hi, a_lo, scale, splitmix64(seed));
}

/// Equal-tempered pitch: MIDI note number to Hz (A4 = 69 = 440 Hz).
#[inline]
pub fn midi_to_hz(note: i32) -> f64 {
    440.0 * 2f64.powf((note - 69) as f64 / 12.0)
}

/// A deterministic pop-song synthesizer standing in for the paper's
/// *Cheap Thrills* background track.
///
/// Structure: a four-chord loop (vi–IV–I–V in C major) of sustained triads,
/// an eighth-note melody walking the pentatonic scale, a bass line on the
/// roots, and noise-burst percussion on each beat. The result occupies
/// roughly 80 Hz – 6 kHz — the same band as the signalling tones — which is
/// what makes it a meaningful interference source.
#[derive(Debug, Clone)]
pub struct MusicNoise {
    /// Beats per minute (the real track is ≈ 90 BPM).
    pub bpm: f64,
    /// Linear output amplitude of the mix.
    pub level: f64,
    /// Seed for the melody walk and percussion jitter.
    pub seed: u64,
}

impl Default for MusicNoise {
    fn default() -> Self {
        Self {
            bpm: 90.0,
            level: 0.25,
            seed: 0xC4EA9,
        }
    }
}

impl MusicNoise {
    /// Render `duration` of the track at `sample_rate`.
    pub fn render(&self, duration: Duration, sample_rate: u32) -> Signal {
        let n = duration_to_samples(duration, sample_rate);
        let mut out = Signal::from_samples(vec![0.0; n], sample_rate);
        if n == 0 {
            return out;
        }
        let beat = Duration::from_secs_f64(60.0 / self.bpm);
        let mut rng = StdRng::seed_from_u64(self.seed);

        // vi–IV–I–V in C major: Am, F, C, G — as MIDI triads.
        let chords: [[i32; 3]; 4] = [[57, 60, 64], [53, 57, 60], [48, 52, 55], [55, 59, 62]];
        let pentatonic: [i32; 6] = [72, 74, 76, 79, 81, 84]; // C pent. up top
        let total = duration.as_secs_f64();
        let beat_s = beat.as_secs_f64();

        // Chords: one bar (4 beats) each, looped.
        let mut t = 0.0;
        let mut bar = 0usize;
        while t < total {
            let chord = chords[bar % chords.len()];
            let bar_len = Duration::from_secs_f64((4.0 * beat_s).min(total - t));
            for &note in &chord {
                let tone = Tone::new(midi_to_hz(note), bar_len, self.level * 0.22);
                out.mix_at_time(&tone.render(sample_rate), Duration::from_secs_f64(t));
                // Bass an octave below the root.
                if note == chord[0] {
                    let bass = Tone::new(midi_to_hz(note - 12), bar_len, self.level * 0.3);
                    out.mix_at_time(&bass.render(sample_rate), Duration::from_secs_f64(t));
                }
            }
            t += 4.0 * beat_s;
            bar += 1;
        }

        // Melody: eighth notes, random pentatonic walk.
        let eighth = beat_s / 2.0;
        let mut idx = 2usize;
        let mut t = 0.0;
        let mut osc = Oscillator::new(sample_rate);
        while t + eighth <= total {
            let step: i64 = rng.gen_range(-2..=2);
            idx = (idx as i64 + step).clamp(0, pentatonic.len() as i64 - 1) as usize;
            let note = pentatonic[idx];
            let seg = osc.render(
                midi_to_hz(note),
                self.level * 0.35,
                Duration::from_secs_f64(eighth * 0.9),
            );
            out.mix_at_time(&seg, Duration::from_secs_f64(t));
            t += eighth;
        }

        // Percussion: a 25 ms noise burst on each beat.
        let mut t = 0.0;
        let mut hit = 0u64;
        while t < total {
            let burst = white_noise(
                Duration::from_millis(25),
                self.level * 0.4,
                sample_rate,
                self.seed ^ hit,
            );
            out.mix_at_time(&burst, Duration::from_secs_f64(t));
            t += beat_s;
            hit += 1;
        }

        out.clip();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spectral::Spectrum;

    const SR: u32 = 44_100;

    #[test]
    fn white_noise_rms_calibrated() {
        let s = white_noise(Duration::from_secs(1), 0.1, SR, 7);
        assert!((s.rms() - 0.1).abs() < 0.01, "rms {}", s.rms());
    }

    #[test]
    fn white_noise_deterministic_under_seed() {
        let a = white_noise(Duration::from_millis(100), 0.1, SR, 42);
        let b = white_noise(Duration::from_millis(100), 0.1, SR, 42);
        assert_eq!(a.samples(), b.samples());
        let c = white_noise(Duration::from_millis(100), 0.1, SR, 43);
        assert_ne!(a.samples(), c.samples());
    }

    #[test]
    fn pink_noise_rms_calibrated() {
        let s = pink_noise(Duration::from_secs(1), 0.1, SR, 7);
        assert!((s.rms() - 0.1).abs() < 0.02, "rms {}", s.rms());
    }

    #[test]
    fn pink_noise_tilts_toward_low_frequencies() {
        let s = pink_noise(Duration::from_secs(2), 0.1, SR, 3);
        let spec = Spectrum::of(&s);
        let low = spec.band_power(50.0, 500.0);
        let high = spec.band_power(5000.0, 5450.0); // equal-width band
        assert!(low > 3.0 * high, "low {low} high {high}");
    }

    #[test]
    fn band_noise_concentrates_in_band() {
        let s = band_noise(Duration::from_secs(2), 800.0, 1600.0, 0.1, SR, 9);
        let spec = Spectrum::of(&s);
        let inside = spec.band_power(800.0, 1600.0);
        let outside = spec.band_power(5000.0, 5800.0);
        assert!(inside > 10.0 * outside, "in {inside} out {outside}");
    }

    #[test]
    fn midi_anchors() {
        assert!((midi_to_hz(69) - 440.0).abs() < 1e-9);
        assert!((midi_to_hz(60) - 261.6256).abs() < 0.01);
        assert!((midi_to_hz(81) - 880.0).abs() < 1e-6);
    }

    #[test]
    fn music_noise_is_deterministic() {
        let m = MusicNoise::default();
        let a = m.render(Duration::from_millis(500), SR);
        let b = m.render(Duration::from_millis(500), SR);
        assert_eq!(a.samples(), b.samples());
    }

    #[test]
    fn music_noise_occupies_wide_band() {
        let s = MusicNoise::default().render(Duration::from_secs(3), SR);
        let spec = Spectrum::of(&s);
        // Energy in bass, mid and treble regions — a broadband interferer.
        assert!(spec.band_power(80.0, 300.0) > 1e-4);
        assert!(spec.band_power(300.0, 1200.0) > 1e-4);
        assert!(spec.band_power(1200.0, 6000.0) > 1e-6);
    }

    #[test]
    fn music_noise_level_scales_output() {
        let quiet = MusicNoise {
            level: 0.05,
            ..Default::default()
        }
        .render(Duration::from_secs(1), SR);
        let loud = MusicNoise {
            level: 0.4,
            ..Default::default()
        }
        .render(Duration::from_secs(1), SR);
        assert!(loud.rms() > 3.0 * quiet.rms());
    }

    #[test]
    fn zero_duration_renders_empty() {
        assert!(MusicNoise::default().render(Duration::ZERO, SR).is_empty());
        assert!(white_noise(Duration::ZERO, 0.1, SR, 1).is_empty());
    }

    #[test]
    #[should_panic(expected = "bad band")]
    fn band_noise_rejects_inverted_band() {
        band_noise(Duration::from_millis(10), 2000.0, 1000.0, 0.1, SR, 1);
    }

    /// Midpoint-integrate a PSD over `[0, sr/2]` in 1 Hz steps.
    fn integrate_psd(psd: impl Fn(f64) -> f64) -> f64 {
        (0..SR / 2).map(|f| psd(f as f64 + 0.5)).sum()
    }

    #[test]
    fn psds_integrate_to_total_power() {
        let total = integrate_psd(|f| white_noise_psd(0.1, SR).max(f * 0.0));
        assert!((total - 0.01).abs() < 1e-4, "white {total}");
        let total = integrate_psd(|f| pink_noise_psd(0.1, f, SR));
        assert!((total - 0.01).abs() < 1e-3, "pink {total}");
        let total = integrate_psd(|f| band_noise_psd(0.1, 800.0, 1600.0, f, SR));
        assert!((total - 0.01).abs() < 1e-3, "band {total}");
    }

    #[test]
    fn pink_psd_matches_measured_band_ratio() {
        // Absolute `band_power` carries the spectrum's amplitude-vs-power
        // normalization convention; the ratio between two bands cancels it.
        let s = pink_noise(Duration::from_secs(4), 0.1, SR, 11);
        let spec = Spectrum::of(&s);
        let band = |lo: u32, hi: u32| -> f64 {
            (lo..hi)
                .map(|f| pink_noise_psd(0.1, f as f64 + 0.5, SR))
                .sum()
        };
        let modeled = band(100, 400) / band(1000, 4000);
        let measured = spec.band_power(100.0, 400.0) / spec.band_power(1000.0, 4000.0);
        assert!(
            measured > 0.5 * modeled && measured < 2.0 * modeled,
            "measured ratio {measured:.3} vs modeled {modeled:.3}"
        );
    }

    #[test]
    fn band_psd_concentrates_power_in_band() {
        let in_band = band_noise_psd(0.1, 800.0, 1600.0, 1200.0, SR);
        let out_band = band_noise_psd(0.1, 800.0, 1600.0, 8000.0, SR);
        assert!(in_band > 20.0 * out_band, "in {in_band} out {out_band}");
        // In-band density must exceed the power-spread-uniformly estimate:
        // the response is peaked, not flat.
        assert!(in_band > 0.01 / 20_000.0);
    }

    #[test]
    fn white_noise_is_seekable() {
        let full = white_noise(Duration::from_millis(500), 0.1, SR, 99);
        let mid = white_noise_at(5_000, 2_000, 0.1, SR, 99);
        assert_eq!(mid.samples(), &full.samples()[5_000..7_000]);
    }

    #[test]
    fn pink_noise_is_seekable() {
        let full = pink_noise(Duration::from_millis(500), 0.1, SR, 99);
        let mid = pink_noise_at(5_000, 2_000, 0.1, SR, 99);
        assert_eq!(mid.samples(), &full.samples()[5_000..7_000]);
    }

    #[test]
    fn band_noise_is_seekable_across_block_boundaries() {
        // [15_000, 19_000) straddles the 16_384-sample block boundary, so
        // this checks both the intra-block path and the grid alignment.
        let full = band_noise(Duration::from_millis(500), 800.0, 1600.0, 0.1, SR, 99);
        let mid = band_noise_at(15_000, 4_000, 800.0, 1600.0, 0.1, SR, 99);
        assert_eq!(mid.samples(), &full.samples()[15_000..19_000]);
    }

    #[test]
    fn band_noise_analytic_rms_is_calibrated() {
        let s = band_noise(Duration::from_secs(2), 200.0, 2000.0, 0.1, SR, 5);
        assert!((s.rms() - 0.1).abs() < 0.02, "rms {}", s.rms());
    }

    #[test]
    fn noise_add_variants_match_at_variants() {
        let n = 3_000;
        let mut acc = vec![0.0f32; n];
        white_noise_add(&mut acc, 1_234, 0.1, 7);
        let alone = white_noise_at(1_234, n, 0.1, SR, 7);
        assert_eq!(&acc, alone.samples());

        let mut acc = vec![0.0f32; n];
        pink_noise_add(&mut acc, 1_234, 0.1, 7);
        let alone = pink_noise_at(1_234, n, 0.1, SR, 7);
        assert_eq!(&acc, alone.samples());

        let mut acc = vec![0.0f32; n];
        band_noise_add(&mut acc, 1_234, 500.0, 1500.0, 0.1, SR, 7);
        let alone = band_noise_at(1_234, n, 500.0, 1500.0, 0.1, SR, 7);
        assert_eq!(&acc, alone.samples());
    }
}
