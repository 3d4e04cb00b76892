//! Fast Fourier Transform.
//!
//! An iterative radix-2 Cooley–Tukey FFT implemented from scratch (the paper
//! leans on the FFT for every detection pipeline, so it is a substrate we
//! own). Provides forward/inverse complex transforms, a real-input
//! convenience wrapper, and a reusable [`FftPlanner`] that caches twiddle
//! factors — Figure 2b of the paper benchmarks exactly this code path.

use std::f64::consts::PI;
use std::ops::{Add, Mul, Sub};

/// A complex number; deliberately minimal (no external num crate).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Construct from rectangular parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// The additive identity.
    pub const ZERO: Complex = Complex::new(0.0, 0.0);

    /// `e^{iθ}`.
    #[inline]
    pub fn from_angle(theta: f64) -> Self {
        Self {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Magnitude (absolute value).
    #[inline]
    pub fn norm(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude.
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Self {
            re: self.re,
            im: -self.im,
        }
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

/// Round `n` up to the next power of two (minimum 1).
#[inline]
pub fn next_pow2(n: usize) -> usize {
    n.next_power_of_two().max(1)
}

/// A planner that caches bit-reversal tables and twiddle factors per size,
/// so repeated transforms of the same length (the common case in an STFT or
/// a detector loop) pay the trigonometry once.
///
/// ```
/// use mdn_audio::fft::FftPlanner;
/// let mut planner = FftPlanner::new();
/// // ~50 ms at 44.1 kHz: 2205 samples, padded to a 4096-point transform.
/// let samples = vec![0.5f32; 2205];
/// let spectrum = planner.forward_real(&samples, None);
/// assert_eq!(spectrum.len(), 4096);
/// ```
#[derive(Debug, Default)]
pub struct FftPlanner {
    plans: Vec<Plan>,
}

#[derive(Debug)]
struct Plan {
    n: usize,
    bitrev: Vec<u32>,
    /// Forward twiddles, one table of n/2 factors.
    twiddles: Vec<Complex>,
}

impl Plan {
    fn new(n: usize) -> Self {
        debug_assert!(n.is_power_of_two());
        let bits = n.trailing_zeros();
        let bitrev = (0..n as u32)
            .map(|i| i.reverse_bits() >> (32 - bits.max(1)))
            .collect::<Vec<_>>();
        let twiddles = (0..n / 2)
            .map(|k| Complex::from_angle(-2.0 * PI * k as f64 / n as f64))
            .collect();
        Self {
            n,
            bitrev,
            twiddles,
        }
    }

    /// In-place iterative radix-2 DIT FFT. `inverse` conjugates twiddles;
    /// the caller handles 1/n scaling.
    fn execute(&self, buf: &mut [Complex], inverse: bool) {
        let n = self.n;
        debug_assert_eq!(buf.len(), n);
        if n <= 1 {
            return;
        }
        // Bit-reversal permutation.
        for i in 0..n {
            let j = self.bitrev[i] as usize;
            if i < j {
                buf.swap(i, j);
            }
        }
        // Butterflies.
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            let stride = n / len;
            for start in (0..n).step_by(len) {
                for k in 0..half {
                    let mut w = self.twiddles[k * stride];
                    if inverse {
                        w = w.conj();
                    }
                    let a = buf[start + k];
                    let b = buf[start + k + half] * w;
                    buf[start + k] = a + b;
                    buf[start + k + half] = a - b;
                }
            }
            len <<= 1;
        }
    }
}

impl FftPlanner {
    /// A planner with no cached plans.
    pub fn new() -> Self {
        Self::default()
    }

    fn plan(&mut self, n: usize) -> &Plan {
        assert!(
            n.is_power_of_two(),
            "FFT size must be a power of two, got {n}"
        );
        // Plans are kept sorted by size so repeated lookups are a binary
        // search, not a linear re-scan of every cached plan.
        let idx = match self.plans.binary_search_by_key(&n, |p| p.n) {
            Ok(idx) => idx,
            Err(idx) => {
                self.plans.insert(idx, Plan::new(n));
                idx
            }
        };
        &self.plans[idx]
    }

    /// Forward FFT in place. `buf.len()` must be a power of two.
    pub fn forward(&mut self, buf: &mut [Complex]) {
        self.plan(buf.len()).execute(buf, false);
    }

    /// Inverse FFT in place (includes the 1/n scaling).
    pub fn inverse(&mut self, buf: &mut [Complex]) {
        let n = buf.len();
        self.plan(n).execute(buf, true);
        let scale = 1.0 / n as f64;
        for v in buf.iter_mut() {
            v.re *= scale;
            v.im *= scale;
        }
    }

    /// FFT of real samples, zero-padded to the next power of two (at least
    /// `min_size` if given). Returns the full complex spectrum of length
    /// `n`; bins `0..=n/2` are the non-redundant half.
    pub fn forward_real(&mut self, samples: &[f32], min_size: Option<usize>) -> Vec<Complex> {
        let n = next_pow2(samples.len().max(min_size.unwrap_or(1)));
        let mut buf = vec![Complex::ZERO; n];
        for (dst, &s) in buf.iter_mut().zip(samples) {
            dst.re = s as f64;
        }
        self.forward(&mut buf);
        buf
    }
}

/// One-shot forward FFT (allocates a fresh plan; prefer [`FftPlanner`] in
/// loops).
pub fn fft(buf: &mut [Complex]) {
    FftPlanner::new().forward(buf);
}

/// Naive O(n²) DFT, used as the correctness oracle in tests and nowhere
/// else.
pub fn dft_reference(input: &[Complex]) -> Vec<Complex> {
    let n = input.len();
    (0..n)
        .map(|k| {
            let mut acc = Complex::ZERO;
            for (j, &x) in input.iter().enumerate() {
                acc = acc + x * Complex::from_angle(-2.0 * PI * (k * j) as f64 / n as f64);
            }
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[Complex], b: &[Complex], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x.re - y.re).abs() <= tol && (x.im - y.im).abs() <= tol,
                "bin {i}: {x:?} vs {y:?}"
            );
        }
    }

    #[test]
    fn matches_dft_reference() {
        for n in [1usize, 2, 4, 8, 64, 256] {
            let input: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.7).sin(), (i as f64 * 1.3).cos()))
                .collect();
            let mut buf = input.clone();
            fft(&mut buf);
            let expect = dft_reference(&input);
            assert_close(&buf, &expect, 1e-8 * n as f64);
        }
    }

    #[test]
    fn roundtrip_forward_inverse() {
        let n = 1024;
        let input: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64).sin(), (i as f64 * 0.1).cos()))
            .collect();
        let mut buf = input.clone();
        let mut planner = FftPlanner::new();
        planner.forward(&mut buf);
        planner.inverse(&mut buf);
        assert_close(&buf, &input, 1e-10);
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let mut buf = vec![Complex::ZERO; 64];
        buf[0] = Complex::new(1.0, 0.0);
        fft(&mut buf);
        for v in &buf {
            assert!((v.norm() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn sine_concentrates_in_one_bin() {
        // A sine exactly on bin 8 of a 256-pt FFT.
        let n = 256;
        let k = 8;
        let mut buf: Vec<Complex> = (0..n)
            .map(|i| Complex::new((2.0 * PI * k as f64 * i as f64 / n as f64).sin(), 0.0))
            .collect();
        fft(&mut buf);
        // Energy at bins k and n-k, magnitude n/2 each.
        assert!((buf[k].norm() - n as f64 / 2.0).abs() < 1e-6);
        assert!((buf[n - k].norm() - n as f64 / 2.0).abs() < 1e-6);
        for (i, v) in buf.iter().enumerate() {
            if i != k && i != n - k {
                assert!(v.norm() < 1e-6, "bin {i} leaked {}", v.norm());
            }
        }
    }

    #[test]
    fn parseval_energy_conserved() {
        let n = 512;
        let input: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.37).sin(), 0.0))
            .collect();
        let time_energy: f64 = input.iter().map(|v| v.norm_sq()).sum();
        let mut buf = input;
        fft(&mut buf);
        let freq_energy: f64 = buf.iter().map(|v| v.norm_sq()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-8 * time_energy);
    }

    #[test]
    fn linearity() {
        let n = 128;
        let a: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64).cos(), 0.0))
            .collect();
        let b: Vec<Complex> = (0..n)
            .map(|i| Complex::new(0.0, (i as f64 * 2.0).sin()))
            .collect();
        let sum: Vec<Complex> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
        let (mut fa, mut fb, mut fs) = (a, b, sum);
        fft(&mut fa);
        fft(&mut fb);
        fft(&mut fs);
        let combined: Vec<Complex> = fa.iter().zip(&fb).map(|(&x, &y)| x + y).collect();
        assert_close(&fs, &combined, 1e-9);
    }

    #[test]
    fn forward_real_pads_to_pow2() {
        let mut planner = FftPlanner::new();
        let samples = vec![1.0f32; 2205]; // the paper's ~50 ms at 44.1 kHz
        let spec = planner.forward_real(&samples, None);
        assert_eq!(spec.len(), 4096);
    }

    #[test]
    fn forward_real_respects_min_size() {
        let mut planner = FftPlanner::new();
        let spec = planner.forward_real(&[1.0, 2.0], Some(64));
        assert_eq!(spec.len(), 64);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_panics() {
        let mut buf = vec![Complex::ZERO; 6];
        fft(&mut buf);
    }

    #[test]
    fn real_input_spectrum_is_conjugate_symmetric() {
        let mut planner = FftPlanner::new();
        let samples: Vec<f32> = (0..128)
            .map(|i| ((i * 13 % 97) as f32 / 97.0) - 0.5)
            .collect();
        let spec = planner.forward_real(&samples, None);
        let n = spec.len();
        for k in 1..n / 2 {
            let a = spec[k];
            let b = spec[n - k].conj();
            assert!((a.re - b.re).abs() < 1e-9 && (a.im - b.im).abs() < 1e-9);
        }
    }

    #[test]
    fn plan_cache_handles_interleaved_sizes() {
        // Exercise the sorted-insert path: sizes arriving out of order must
        // all resolve to correct transforms.
        let mut planner = FftPlanner::new();
        for n in [1024usize, 64, 4096, 256, 64, 1024, 16] {
            let input: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.3).sin(), 0.0))
                .collect();
            let mut buf = input.clone();
            planner.forward(&mut buf);
            planner.inverse(&mut buf);
            assert_close(&buf, &input, 1e-9);
        }
    }

    #[test]
    fn planner_reuse_is_consistent() {
        let mut planner = FftPlanner::new();
        let input: Vec<Complex> = (0..64).map(|i| Complex::new(i as f64, 0.0)).collect();
        let mut a = input.clone();
        let mut b = input.clone();
        planner.forward(&mut a);
        planner.forward(&mut b); // reuses cached plan
        assert_close(&a, &b, 0.0);
    }
}
