//! Goertzel single-bin tone detection.
//!
//! When the MDN controller knows exactly which frequencies to listen for
//! (the common case — each switch owns a published set), evaluating one DFT
//! bin per candidate frequency with the Goertzel recurrence is far cheaper
//! than a full FFT. The ablation bench `claims.rs` compares the two paths.

use crate::kernels::{BankLanes, Kernels, BANK_PAD};
use std::f64::consts::PI;

/// A Goertzel filter tuned to one target frequency at one sample rate.
///
/// ```
/// use mdn_audio::goertzel::Goertzel;
/// use mdn_audio::synth::Tone;
/// use std::time::Duration;
///
/// let tone = Tone::new(700.0, Duration::from_millis(100), 0.4).render(44_100);
/// let det = Goertzel::new(700.0, 44_100);
/// assert!((det.magnitude(tone.samples()) - 0.4).abs() < 0.05);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Goertzel {
    coeff: f64,
    sin_w: f64,
    cos_w: f64,
}

impl Goertzel {
    /// Build a detector for `freq_hz` at `sample_rate`.
    ///
    /// # Panics
    /// Panics if the frequency is not in `(0, sample_rate/2)`.
    pub fn new(freq_hz: f64, sample_rate: u32) -> Self {
        let nyquist = sample_rate as f64 / 2.0;
        assert!(
            freq_hz > 0.0 && freq_hz < nyquist,
            "frequency {freq_hz} Hz outside (0, {nyquist})"
        );
        let w = 2.0 * PI * freq_hz / sample_rate as f64;
        Self {
            coeff: 2.0 * w.cos(),
            sin_w: w.sin(),
            cos_w: w.cos(),
        }
    }

    /// Run the recurrence over `samples`, returning the complex DFT-like
    /// response (magnitude comparable to an unnormalized DFT bin).
    pub fn run(&self, samples: &[f32]) -> (f64, f64) {
        let mut s_prev = 0.0f64;
        let mut s_prev2 = 0.0f64;
        for &x in samples {
            let s = x as f64 + self.coeff * s_prev - s_prev2;
            s_prev2 = s_prev;
            s_prev = s;
        }
        let re = s_prev * self.cos_w - s_prev2;
        let im = s_prev * self.sin_w;
        (re, im)
    }

    /// Magnitude of the target-frequency component, normalized so that a
    /// unit-amplitude sine exactly at the target frequency yields ≈ 1.0
    /// regardless of buffer length.
    pub fn magnitude(&self, samples: &[f32]) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let (re, im) = self.run(samples);
        re.hypot(im) * 2.0 / samples.len() as f64
    }
}

/// Reusable scratch for [`GoertzelBank`]; one per worker thread.
///
/// Holding the scratch outside the bank keeps the bank shareable (`&self`)
/// across threads while each call reuses it allocation-free.
#[derive(Debug, Clone, Default)]
pub struct GoertzelState {
    /// Complex response per lane, padding lanes included.
    response: Vec<(f64, f64)>,
}

/// A bank of Goertzel filters evaluated together over a slice of samples.
///
/// Probing C candidate frequencies with independent [`Goertzel`] filters
/// runs C separate recurrences, one after another. The bank instead groups
/// the candidates into blocks of lanes and walks the slice once per block.
/// A block's recurrences live in local arrays rather than being loaded from
/// and stored to memory at every sample, so they stay in vector registers.
/// The block is as wide as the CPU's vectors need to hide the
/// recurrence's latency, picked once at run time: 48 lanes with AVX-512F,
/// 24 with AVX2, else 16 (SSE2). A bank narrower than its block, or the
/// rest after its whole blocks, runs as one narrower block of whole
/// vectors. The per-candidate constants are zero-padded once, at
/// construction, to a multiple of 16 lanes; pad lanes are computed and
/// discarded. The slice is small enough to stay in L1 cache between
/// blocks.
///
/// [`Self::response`] is the one kernel: the unnormalized complex response
/// of every candidate, exactly [`Goertzel::run`]'s. Per candidate, the
/// recurrence `x + coeff * s1 - s2` and the response are written exactly as
/// in [`Goertzel`] — never as a fused multiply-add (`mul_add`) or in another
/// association order, either of which rounds differently — so the bank is
/// bit-for-bit the same as the per-candidate path, whatever the vector
/// width.
///
/// The response over `x` followed by `d` zeros is the response over `x`
/// turned by `e^{jωd}` ([`Self::phasors`]), so responses of consecutive
/// slices combine into the response of their concatenation: each is turned
/// by the number of samples that follow it, then they are summed.
///
/// ```
/// use mdn_audio::goertzel::{Goertzel, GoertzelBank, GoertzelState};
/// use mdn_audio::synth::Tone;
/// use std::time::Duration;
///
/// let tone = Tone::new(700.0, Duration::from_millis(100), 0.4).render(44_100);
/// let bank = GoertzelBank::new(&[500.0, 700.0], 44_100);
/// let mut state = GoertzelState::default();
/// let response = bank.response(tone.samples(), &mut state);
/// assert_eq!(response[1], Goertzel::new(700.0, 44_100).run(tone.samples()));
/// ```
#[derive(Debug, Clone)]
pub struct GoertzelBank {
    /// Number of real candidates; the vectors below are padded past it.
    len: usize,
    /// Angular frequency per candidate, radians per sample.
    w: Vec<f64>,
    /// Per-candidate constants, zero-padded to a multiple of 16 lanes.
    coeff: Vec<f64>,
    sin_w: Vec<f64>,
    cos_w: Vec<f64>,
}

impl GoertzelBank {
    /// Build a bank for `freqs_hz` at `sample_rate`.
    ///
    /// # Panics
    /// Panics if any frequency is not in `(0, sample_rate/2)`.
    pub fn new(freqs_hz: &[f64], sample_rate: u32) -> Self {
        let padded = freqs_hz.len().next_multiple_of(BANK_PAD);
        let mut coeff = vec![0.0; padded];
        let mut sin_w = vec![0.0; padded];
        let mut cos_w = vec![0.0; padded];
        for (c, &f) in freqs_hz.iter().enumerate() {
            let g = Goertzel::new(f, sample_rate);
            coeff[c] = g.coeff;
            sin_w[c] = g.sin_w;
            cos_w[c] = g.cos_w;
        }
        Self {
            len: freqs_hz.len(),
            w: freqs_hz
                .iter()
                .map(|&f| 2.0 * PI * f / sample_rate as f64)
                .collect(),
            coeff,
            sin_w,
            cos_w,
        }
    }

    /// Number of candidate frequencies in the bank.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the bank holds no candidates.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The unnormalized complex response `(re, im)` of every candidate over
    /// `samples`, in bank order — per candidate exactly [`Goertzel::run`].
    /// The result lives in `state`, which is reused so the hot path
    /// allocates nothing. An empty slice responds with zeros.
    pub fn response<'s>(&self, samples: &[f32], state: &'s mut GoertzelState) -> &'s [(f64, f64)] {
        self.response_with(Kernels::detected(), samples, state)
    }

    /// [`Self::response`] on the instruction-set path `kernels`.
    pub(crate) fn response_with<'s>(
        &self,
        kernels: Kernels,
        samples: &[f32],
        state: &'s mut GoertzelState,
    ) -> &'s [(f64, f64)] {
        // The kernel overwrites every lane this bank reads.
        state.response.resize(self.coeff.len(), (0.0, 0.0));
        let lanes = BankLanes {
            coeff: &self.coeff,
            cos_w: &self.cos_w,
            sin_w: &self.sin_w,
        };
        kernels.goertzel(self.len, lanes, samples, &mut state.response);
        &state.response[..self.len]
    }

    /// Per-candidate phasor `e^{jωd}` as `(cos, sin)`: the turn that `d`
    /// trailing zero samples give a [`Self::response`].
    pub fn phasors(&self, d: usize) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.w.iter().map(move |&w| {
            let (sin, cos) = (w * d as f64).sin_cos();
            (cos, sin)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::Signal;
    use crate::synth::Tone;
    use std::time::Duration;

    const SR: u32 = 44_100;

    fn tone(freq: f64, ms: u64, amp: f64) -> Signal {
        Tone::new(freq, Duration::from_millis(ms), amp).render(SR)
    }

    #[test]
    fn detects_matching_tone_with_unit_normalization() {
        let s = tone(1000.0, 100, 0.8);
        let g = Goertzel::new(1000.0, SR);
        let m = g.magnitude(s.samples());
        assert!((m - 0.8).abs() < 0.05, "magnitude {m}");
    }

    #[test]
    fn rejects_distant_tone() {
        let s = tone(1000.0, 100, 0.8);
        let g = Goertzel::new(2000.0, SR);
        assert!(g.magnitude(s.samples()) < 0.02);
    }

    #[test]
    fn separates_20hz_spaced_tones_in_long_window() {
        // The paper's 20 Hz spacing claim: with a long enough window the
        // Goertzel bin at f rejects a tone at f+20.
        let s = tone(1000.0, 200, 0.5);
        let on = Goertzel::new(1000.0, SR).magnitude(s.samples());
        let off = Goertzel::new(1020.0, SR).magnitude(s.samples());
        assert!(on > 10.0 * off, "on {on} off {off}");
    }

    #[test]
    fn magnitude_of_silence_is_zero() {
        let s = Signal::silence(Duration::from_millis(50), SR);
        assert_eq!(Goertzel::new(440.0, SR).magnitude(s.samples()), 0.0);
    }

    #[test]
    fn empty_buffer_is_zero() {
        assert_eq!(Goertzel::new(440.0, SR).magnitude(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn rejects_frequency_above_nyquist() {
        Goertzel::new(30_000.0, SR);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn rejects_zero_frequency() {
        Goertzel::new(0.0, SR);
    }

    /// Candidate frequencies 20 Hz apart from 440 Hz, as many as asked.
    fn spaced(n: usize) -> Vec<f64> {
        (0..n).map(|i| 440.0 + 20.0 * i as f64).collect()
    }

    /// A busy 50 ms buffer (two tones plus a noise bed) so the recurrences
    /// carry non-trivial state in every lane.
    fn busy_frame() -> Signal {
        let mut s = tone(500.0, 50, 0.5);
        s.mix_at(&tone(740.0, 50, 0.3), 0);
        s.mix_at(&crate::noise::white_noise(s.duration(), 0.01, SR, 3), 0);
        s
    }

    /// `(re, im)` as bit patterns, for exact comparisons.
    fn bits(v: &[(f64, f64)]) -> Vec<(u64, u64)> {
        v.iter()
            .map(|(re, im)| (re.to_bits(), im.to_bits()))
            .collect()
    }

    #[test]
    fn bank_matches_individual_filters_exactly() {
        // Candidate counts below, at and across the 16-lane block edges,
        // over frames from one sample to a whole 50 ms frame: the bank must
        // equal the per-candidate path to the last bit on every frequency.
        let s = busy_frame();
        assert_eq!(s.samples().len(), 2205);
        let mut state = GoertzelState::default();
        for n in [1, 5, 15, 16, 17, 33, 48, 56, 64] {
            let freqs = spaced(n);
            let bank = GoertzelBank::new(&freqs, SR);
            assert_eq!(bank.len(), n);
            assert!(!bank.is_empty());
            for len in [1, 7, 1103, 2205] {
                let frame = &s.samples()[..len];
                let got = bits(bank.response(frame, &mut state));
                let want: Vec<(f64, f64)> = freqs
                    .iter()
                    .map(|&f| Goertzel::new(f, SR).run(frame))
                    .collect();
                assert_eq!(got, bits(&want), "{n} candidates, {len} samples");
            }
        }
    }

    #[test]
    fn bank_state_reuse_across_widths_matches_fresh_state() {
        // One state shared by banks of different widths (three blocks, a
        // partial block, then two blocks) must never carry lanes over.
        let s = busy_frame();
        let mut state = GoertzelState::default();
        for n in [48, 3, 17] {
            let bank = GoertzelBank::new(&spaced(n), SR);
            let reused = bits(bank.response(s.samples(), &mut state));
            let fresh = bits(bank.response(s.samples(), &mut GoertzelState::default()));
            assert_eq!(reused, fresh, "{n} candidates after reuse");
        }
    }

    #[test]
    fn bank_response_is_run_and_phasors_join_slices() {
        // The response is `Goertzel::run` to the last bit, and a slice's
        // response turned by the phasor of the samples after it, plus the
        // response of those samples, is the response of the whole.
        let s = busy_frame();
        let freqs = spaced(17);
        let bank = GoertzelBank::new(&freqs, SR);
        let mut state = GoertzelState::default();
        let (head, tail) = s.samples().split_at(1102);
        let whole = bank.response(s.samples(), &mut state).to_vec();
        let head_r = bank.response(head, &mut state).to_vec();
        let tail_r = bank.response(tail, &mut state).to_vec();
        let turns: Vec<(f64, f64)> = bank.phasors(tail.len()).collect();
        for (c, &f) in freqs.iter().enumerate() {
            let (re, im) = Goertzel::new(f, SR).run(s.samples());
            assert_eq!(whole[c].0.to_bits(), re.to_bits(), "{f} Hz re");
            assert_eq!(whole[c].1.to_bits(), im.to_bits(), "{f} Hz im");
            let ((hr, hi), (cos, sin)) = (head_r[c], turns[c]);
            let joined = (
                hr * cos - hi * sin + tail_r[c].0,
                hr * sin + hi * cos + tail_r[c].1,
            );
            let err = (joined.0 - re).hypot(joined.1 - im);
            assert!(
                err <= 1e-9 * re.hypot(im).max(1.0),
                "{f} Hz: joined off by {err}"
            );
        }
        assert_eq!(bank.phasors(0).collect::<Vec<_>>(), vec![(1.0, 0.0); 17]);
    }

    #[test]
    fn bank_empty_samples_yield_zeros() {
        let bank = GoertzelBank::new(&[500.0, 700.0], SR);
        let mut state = GoertzelState::default();
        assert_eq!(bank.response(&[], &mut state), [(0.0, 0.0); 2]);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn bank_rejects_frequency_above_nyquist() {
        GoertzelBank::new(&[700.0, 30_000.0], SR);
    }

    #[test]
    fn agrees_with_fft_bin() {
        use crate::fft::FftPlanner;
        // Tone exactly on an FFT bin: both estimates should agree.
        let n = 4096usize;
        let bin = 93usize;
        let freq = bin as f64 * SR as f64 / n as f64;
        let samples: Vec<f32> = (0..n)
            .map(|i| (2.0 * PI * freq * i as f64 / SR as f64).sin() as f32)
            .collect();
        let g = Goertzel::new(freq, SR).magnitude(&samples);
        let spec = FftPlanner::new().forward_real(&samples, None);
        let f = spec[bin].norm() * 2.0 / n as f64;
        assert!((g - f).abs() < 1e-6, "goertzel {g} fft {f}");
    }
}
