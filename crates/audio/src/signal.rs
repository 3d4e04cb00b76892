//! Sample buffers and level arithmetic.
//!
//! A [`Signal`] is a mono buffer of `f32` samples tagged with a sample rate.
//! All of the DSP in this crate operates on `Signal`s; the acoustic layer
//! renders them and the MDN detector consumes them.
//!
//! Levels use two conventions, mirroring how the paper talks about sound:
//!
//! * **dBFS** (decibels relative to full scale): digital amplitude, where a
//!   full-scale sine peaks at 0 dBFS.
//! * **dB SPL** (sound pressure level): acoustic loudness as the paper
//!   reports it ("at least 30 dB", "datacenter noise may exceed 85 dBA").
//!   The acoustic layer maps SPL to digital amplitude through a fixed
//!   calibration constant: [`SPL_FULL_SCALE_DB`] dB SPL corresponds to a
//!   full-scale (amplitude 1.0) sine.

use std::f64::consts::PI;
use std::fmt;
use std::time::Duration;

/// The SPL, in dB, that maps to digital full scale (amplitude 1.0).
///
/// 100 dB SPL at amplitude 1.0 leaves headroom above the paper's loudest
/// environment (85 dBA datacenter) while keeping a 30 dB SPL tone
/// (amplitude ≈ 10^((30-100)/20) ≈ 3.2e-4) far above `f32` precision.
pub const SPL_FULL_SCALE_DB: f64 = 100.0;

/// Convert an amplitude ratio to decibels (`20·log10`).
///
/// Returns `f64::NEG_INFINITY` for a zero or negative ratio.
#[inline]
pub fn ratio_to_db(ratio: f64) -> f64 {
    if ratio <= 0.0 {
        f64::NEG_INFINITY
    } else {
        20.0 * ratio.log10()
    }
}

/// Convert decibels to an amplitude ratio (`10^(db/20)`).
#[inline]
pub fn db_to_ratio(db: f64) -> f64 {
    10f64.powf(db / 20.0)
}

/// Convert a sound pressure level in dB SPL to a digital amplitude under the
/// crate's calibration ([`SPL_FULL_SCALE_DB`] dB SPL ↔ amplitude 1.0).
#[inline]
pub fn spl_to_amplitude(spl_db: f64) -> f64 {
    db_to_ratio(spl_db - SPL_FULL_SCALE_DB)
}

/// Convert a digital amplitude to dB SPL under the crate's calibration.
#[inline]
pub fn amplitude_to_spl(amplitude: f64) -> f64 {
    ratio_to_db(amplitude) + SPL_FULL_SCALE_DB
}

/// A half-open time window `[from, from + len)` on a shared timeline.
///
/// This is *the* capture-window currency of the workspace: scene renders,
/// controller captures/listens, fault-plan intervals and signal slicing
/// all take a `Window` instead of ad-hoc `(from, len)` / `(from, to)`
/// `Duration` pairs. A window maps to the absolute sample range
/// [`Window::sample_range`] — `[round(from·sr), round(end·sr))` — so
/// adjacent windows tile the sample grid exactly: rendering `[a, b)` and
/// `[b, c)` separately concatenates bit-for-bit into a render of `[a, c)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Window {
    /// Window start (inclusive).
    pub from: Duration,
    /// Window length.
    pub len: Duration,
}

impl Window {
    /// The window `[from, from + len)`.
    pub fn new(from: Duration, len: Duration) -> Self {
        Self { from, len }
    }

    /// The window `[0, len)` — a render "from the start", as
    /// `Scene::render_at` has always meant.
    pub fn from_start(len: Duration) -> Self {
        Self {
            from: Duration::ZERO,
            len,
        }
    }

    /// The window `[from, to)`.
    ///
    /// # Panics
    /// Panics unless `from <= to`.
    pub fn between(from: Duration, to: Duration) -> Self {
        assert!(from <= to, "window must start before it ends");
        Self {
            from,
            len: to - from,
        }
    }

    /// Window end (exclusive): `from + len`.
    pub fn end(&self) -> Duration {
        self.from + self.len
    }

    /// True for a zero-length window.
    pub fn is_empty(&self) -> bool {
        self.len.is_zero()
    }

    /// Does the window contain `t`?
    pub fn contains(&self, t: Duration) -> bool {
        t >= self.from && t < self.end()
    }

    /// The absolute sample range `[round(from·sr), round(end·sr))` this
    /// window covers at `sample_rate`. Deriving both endpoints from the
    /// timeline (rather than rounding the length) is what makes adjacent
    /// windows tile the sample grid without gaps or overlaps.
    pub fn sample_range(&self, sample_rate: u32) -> (usize, usize) {
        let a = duration_to_samples(self.from, sample_rate);
        let b = duration_to_samples(self.end(), sample_rate);
        (a, b.max(a))
    }
}

/// A mono buffer of `f32` samples at a fixed sample rate.
#[derive(Clone, PartialEq)]
pub struct Signal {
    samples: Vec<f32>,
    sample_rate: u32,
}

impl fmt::Debug for Signal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Signal")
            .field("len", &self.samples.len())
            .field("sample_rate", &self.sample_rate)
            .field("duration_s", &self.duration().as_secs_f64())
            .field("rms", &self.rms())
            .finish()
    }
}

impl Signal {
    /// Create a signal from raw samples.
    ///
    /// # Panics
    /// Panics if `sample_rate` is zero.
    pub fn from_samples(samples: Vec<f32>, sample_rate: u32) -> Self {
        assert!(sample_rate > 0, "sample rate must be non-zero");
        Self {
            samples,
            sample_rate,
        }
    }

    /// A silent signal of the given duration.
    pub fn silence(duration: Duration, sample_rate: u32) -> Self {
        let n = duration_to_samples(duration, sample_rate);
        Self::from_samples(vec![0.0; n], sample_rate)
    }

    /// An empty signal (zero samples) at the given rate.
    pub fn empty(sample_rate: u32) -> Self {
        Self::from_samples(Vec::new(), sample_rate)
    }

    /// The sample rate in Hz.
    #[inline]
    pub fn sample_rate(&self) -> u32 {
        self.sample_rate
    }

    /// Number of samples.
    #[inline]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if the buffer holds no samples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Duration of the buffer.
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.samples.len() as f64 / self.sample_rate as f64)
    }

    /// Immutable view of the samples.
    #[inline]
    pub fn samples(&self) -> &[f32] {
        &self.samples
    }

    /// Mutable view of the samples.
    #[inline]
    pub fn samples_mut(&mut self) -> &mut [f32] {
        &mut self.samples
    }

    /// Root-mean-square amplitude of the buffer (0.0 for an empty buffer).
    pub fn rms(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let sum_sq: f64 = self.samples.iter().map(|&s| (s as f64) * (s as f64)).sum();
        (sum_sq / self.samples.len() as f64).sqrt()
    }

    /// Peak absolute amplitude.
    pub fn peak(&self) -> f64 {
        self.samples
            .iter()
            .fold(0.0f64, |m, &s| m.max((s as f64).abs()))
    }

    /// RMS level in dB SPL under the crate calibration.
    pub fn rms_spl(&self) -> f64 {
        amplitude_to_spl(self.rms())
    }

    /// Mix `other` into `self` sample-by-sample, starting at `offset`
    /// samples. `self` is grown with silence if `other` extends past its
    /// end.
    ///
    /// # Panics
    /// Panics if the sample rates differ.
    pub fn mix_at(&mut self, other: &Signal, offset: usize) {
        assert_eq!(
            self.sample_rate, other.sample_rate,
            "cannot mix signals with different sample rates"
        );
        let needed = offset + other.len();
        if needed > self.samples.len() {
            self.samples.resize(needed, 0.0);
        }
        for (dst, &src) in self.samples[offset..needed].iter_mut().zip(other.samples()) {
            *dst += src;
        }
    }

    /// Mix `other` into `self` starting at time `at`.
    pub fn mix_at_time(&mut self, other: &Signal, at: Duration) {
        let offset = duration_to_samples(at, self.sample_rate);
        self.mix_at(other, offset);
    }

    /// Multiply every sample by `gain`.
    pub fn scale(&mut self, gain: f64) {
        for s in &mut self.samples {
            *s = (*s as f64 * gain) as f32;
        }
    }

    /// Return a copy scaled by `gain`.
    pub fn scaled(&self, gain: f64) -> Signal {
        let mut out = self.clone();
        out.scale(gain);
        out
    }

    /// Extract the half-open sample range `[start, end)` as a new signal.
    /// The range is clamped to the buffer.
    pub fn slice(&self, start: usize, end: usize) -> Signal {
        let end = end.min(self.samples.len());
        let start = start.min(end);
        Signal::from_samples(self.samples[start..end].to_vec(), self.sample_rate)
    }

    /// Extract the time window `w` as a new signal, covering exactly
    /// `w.sample_range(self.sample_rate())` (clamped to the buffer).
    pub fn window(&self, w: Window) -> Signal {
        let (start, end) = w.sample_range(self.sample_rate);
        self.slice(start, end)
    }

    /// Reset the buffer to `n` zero samples, keeping allocated capacity —
    /// the scratch-reuse primitive behind the windowed render path.
    pub fn reset(&mut self, n: usize) {
        self.samples.clear();
        self.samples.resize(n, 0.0);
    }

    /// Append another signal (must share the sample rate).
    pub fn append(&mut self, other: &Signal) {
        assert_eq!(
            self.sample_rate, other.sample_rate,
            "cannot append signals with different sample rates"
        );
        self.samples.extend_from_slice(other.samples());
    }

    /// Pad with trailing silence until the buffer holds at least `n` samples.
    pub fn pad_to(&mut self, n: usize) {
        if self.samples.len() < n {
            self.samples.resize(n, 0.0);
        }
    }

    /// Hard-clip every sample into `[-1.0, 1.0]`, as a real DAC would.
    pub fn clip(&mut self) {
        for s in &mut self.samples {
            *s = s.clamp(-1.0, 1.0);
        }
    }

    /// Split the signal into consecutive non-overlapping chunks of
    /// `chunk_len` samples; a final partial chunk is discarded.
    pub fn chunks(&self, chunk_len: usize) -> impl Iterator<Item = Signal> + '_ {
        assert!(chunk_len > 0, "chunk length must be non-zero");
        self.samples
            .chunks_exact(chunk_len)
            .map(move |c| Signal::from_samples(c.to_vec(), self.sample_rate))
    }
}

/// Number of samples covering `duration` at `sample_rate` (rounded to
/// nearest).
#[inline]
pub fn duration_to_samples(duration: Duration, sample_rate: u32) -> usize {
    (duration.as_secs_f64() * sample_rate as f64).round() as usize
}

/// Duration covered by `n` samples at `sample_rate`.
#[inline]
pub fn samples_to_duration(n: usize, sample_rate: u32) -> Duration {
    Duration::from_secs_f64(n as f64 / sample_rate as f64)
}

/// Generate one sample of a unit sine at `freq_hz`, sample index `i`.
#[inline]
pub fn sine_sample(freq_hz: f64, i: usize, sample_rate: u32, phase: f64) -> f64 {
    (2.0 * PI * freq_hz * i as f64 / sample_rate as f64 + phase).sin()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_roundtrip() {
        for db in [-60.0, -20.0, -3.0, 0.0, 6.0] {
            let ratio = db_to_ratio(db);
            assert!((ratio_to_db(ratio) - db).abs() < 1e-9);
        }
    }

    #[test]
    fn zero_ratio_is_neg_infinity() {
        assert_eq!(ratio_to_db(0.0), f64::NEG_INFINITY);
        assert_eq!(ratio_to_db(-1.0), f64::NEG_INFINITY);
    }

    #[test]
    fn spl_calibration_full_scale() {
        assert!((spl_to_amplitude(SPL_FULL_SCALE_DB) - 1.0).abs() < 1e-12);
        assert!((amplitude_to_spl(1.0) - SPL_FULL_SCALE_DB).abs() < 1e-12);
    }

    #[test]
    fn spl_30db_tone_is_detectable_amplitude() {
        // The paper's quietest tone (30 dB SPL) must stay well above f32
        // epsilon under the calibration.
        let a = spl_to_amplitude(30.0);
        assert!(a > 1e-5, "30 dB SPL amplitude {a} too small");
    }

    #[test]
    fn silence_has_right_length_and_zero_rms() {
        let s = Signal::silence(Duration::from_millis(50), 44_100);
        assert_eq!(s.len(), 2205);
        assert_eq!(s.rms(), 0.0);
    }

    #[test]
    fn duration_roundtrip() {
        let s = Signal::silence(Duration::from_millis(300), 48_000);
        let d = s.duration();
        assert!((d.as_secs_f64() - 0.3).abs() < 1e-6);
    }

    #[test]
    fn rms_of_full_scale_sine_is_minus_3dbfs() {
        let sr = 44_100;
        let samples: Vec<f32> = (0..sr as usize)
            .map(|i| sine_sample(441.0, i, sr, 0.0) as f32)
            .collect();
        let s = Signal::from_samples(samples, sr);
        // RMS of a sine is 1/sqrt(2) => -3.0103 dBFS.
        let dbfs = ratio_to_db(s.rms());
        assert!((dbfs - (-3.0103)).abs() < 0.05, "got {dbfs}");
    }

    #[test]
    fn mix_at_grows_buffer_and_adds() {
        let sr = 8_000;
        let mut a = Signal::from_samples(vec![1.0, 1.0], sr);
        let b = Signal::from_samples(vec![0.5, 0.5, 0.5], sr);
        a.mix_at(&b, 1);
        assert_eq!(a.samples(), &[1.0, 1.5, 0.5, 0.5]);
    }

    #[test]
    #[should_panic(expected = "different sample rates")]
    fn mix_rejects_rate_mismatch() {
        let mut a = Signal::silence(Duration::from_millis(10), 44_100);
        let b = Signal::silence(Duration::from_millis(10), 48_000);
        a.mix_at(&b, 0);
    }

    #[test]
    fn scale_and_peak() {
        let mut s = Signal::from_samples(vec![0.5, -0.25], 8_000);
        s.scale(2.0);
        assert_eq!(s.samples(), &[1.0, -0.5]);
        assert!((s.peak() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn slice_clamps_to_buffer() {
        let s = Signal::from_samples(vec![1.0, 2.0, 3.0], 8_000);
        let w = s.slice(1, 10);
        assert_eq!(w.samples(), &[2.0, 3.0]);
        let e = s.slice(5, 10);
        assert!(e.is_empty());
    }

    #[test]
    fn window_by_time() {
        let sr = 1_000;
        let samples: Vec<f32> = (0..1000).map(|i| i as f32).collect();
        let s = Signal::from_samples(samples, sr);
        let w = s.window(Window::new(
            Duration::from_millis(100),
            Duration::from_millis(50),
        ));
        assert_eq!(w.len(), 50);
        assert_eq!(w.samples()[0], 100.0);
    }

    #[test]
    fn window_endpoints_are_half_open() {
        let w = Window::between(Duration::from_millis(100), Duration::from_millis(200));
        assert!(!w.contains(Duration::from_millis(99)));
        assert!(w.contains(Duration::from_millis(100)));
        assert!(w.contains(Duration::from_millis(199)));
        assert!(!w.contains(Duration::from_millis(200)));
        assert_eq!(w.end(), Duration::from_millis(200));
    }

    #[test]
    #[should_panic(expected = "start before")]
    fn window_rejects_inverted_endpoints() {
        Window::between(Duration::from_millis(200), Duration::from_millis(100));
    }

    #[test]
    fn adjacent_windows_tile_the_sample_grid() {
        // Fractional boundaries: rounding each endpoint (not the length)
        // means [a,b) and [b,c) never overlap or leave a gap.
        let sr = 44_100;
        let a = Window::between(Duration::ZERO, Duration::from_micros(10_700));
        let b = Window::between(Duration::from_micros(10_700), Duration::from_micros(21_300));
        let (a_start, a_end) = a.sample_range(sr);
        let (b_start, b_end) = b.sample_range(sr);
        assert_eq!(a_end, b_start);
        assert_eq!(
            (a_start, b_end),
            Window::between(Duration::ZERO, Duration::from_micros(21_300)).sample_range(sr)
        );
    }

    #[test]
    fn reset_zeroes_and_resizes() {
        let mut s = Signal::from_samples(vec![1.0, 2.0, 3.0], 8_000);
        s.reset(2);
        assert_eq!(s.samples(), &[0.0, 0.0]);
        s.reset(4);
        assert_eq!(s.samples(), &[0.0; 4]);
    }

    #[test]
    fn chunks_drop_partial_tail() {
        let s = Signal::from_samples(vec![0.0; 10], 8_000);
        let n: Vec<_> = s.chunks(3).collect();
        assert_eq!(n.len(), 3);
        assert!(n.iter().all(|c| c.len() == 3));
    }

    #[test]
    fn clip_bounds_samples() {
        let mut s = Signal::from_samples(vec![2.0, -3.0, 0.5], 8_000);
        s.clip();
        assert_eq!(s.samples(), &[1.0, -1.0, 0.5]);
    }

    #[test]
    fn append_concatenates() {
        let sr = 8_000;
        let mut a = Signal::from_samples(vec![1.0], sr);
        let b = Signal::from_samples(vec![2.0, 3.0], sr);
        a.append(&b);
        assert_eq!(a.samples(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn duration_samples_roundtrip() {
        for (ms, sr) in [(50u64, 44_100u32), (300, 48_000), (30, 16_000)] {
            let n = duration_to_samples(Duration::from_millis(ms), sr);
            let d = samples_to_duration(n, sr);
            assert!((d.as_secs_f64() - ms as f64 / 1000.0).abs() < 1.0 / sr as f64);
        }
    }
}
