//! Analysis window functions.
//!
//! The detector and spectrogram pipelines multiply each analysis frame by a
//! window to control spectral leakage. With the paper's 20 Hz tone spacing
//! and ~50 ms frames, leakage control is what makes adjacent switch
//! frequencies separable, so the choice of window is load-bearing.

use std::f64::consts::PI;

/// Supported window shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WindowKind {
    /// No weighting; narrowest main lobe, worst sidelobes (−13 dB).
    Rectangular,
    /// Hann (raised cosine); −31 dB sidelobes, the pipeline default.
    Hann,
    /// Hamming; −41 dB first sidelobe, slower rolloff.
    Hamming,
    /// Blackman; −58 dB sidelobes, widest main lobe.
    Blackman,
}

impl serde::Serialize for WindowKind {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(
            match self {
                WindowKind::Rectangular => "rectangular",
                WindowKind::Hann => "hann",
                WindowKind::Hamming => "hamming",
                WindowKind::Blackman => "blackman",
            }
            .to_string(),
        )
    }
}

impl serde::Deserialize for WindowKind {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        match v.as_str() {
            Some("rectangular") => Ok(WindowKind::Rectangular),
            Some("hann") => Ok(WindowKind::Hann),
            Some("hamming") => Ok(WindowKind::Hamming),
            Some("blackman") => Ok(WindowKind::Blackman),
            Some(other) => Err(serde::DeError::new(format!(
                "unknown window kind `{other}` (expected rectangular|hann|hamming|blackman)"
            ))),
            None => Err(serde::DeError::expected("a window-kind string", v)),
        }
    }
}

impl WindowKind {
    /// Generate the window coefficients for `n` points (periodic form,
    /// appropriate for STFT analysis).
    pub fn coefficients(self, n: usize) -> Vec<f64> {
        if n == 0 {
            return Vec::new();
        }
        if n == 1 {
            return vec![1.0];
        }
        let m = n as f64;
        (0..n)
            .map(|i| {
                let x = 2.0 * PI * i as f64 / m;
                match self {
                    WindowKind::Rectangular => 1.0,
                    WindowKind::Hann => 0.5 - 0.5 * x.cos(),
                    WindowKind::Hamming => 0.54 - 0.46 * x.cos(),
                    WindowKind::Blackman => 0.42 - 0.5 * x.cos() + 0.08 * (2.0 * x).cos(),
                }
            })
            .collect()
    }

    /// Coherent gain: mean of the coefficients. Dividing a windowed
    /// spectrum's magnitude by this recovers the amplitude of a sinusoid
    /// centred on a bin.
    pub fn coherent_gain(self, n: usize) -> f64 {
        mean(&self.coefficients(n))
    }

    /// Apply the window in place to a frame of samples and return its
    /// [`coherent_gain`](Self::coherent_gain), from one set of
    /// coefficients.
    pub fn apply(self, frame: &mut [f32]) -> f64 {
        let coeffs = self.coefficients(frame.len());
        if self != WindowKind::Rectangular {
            for (s, w) in frame.iter_mut().zip(&coeffs) {
                *s = (*s as f64 * w) as f32;
            }
        }
        mean(&coeffs)
    }
}

/// Mean of a window's coefficients; zero for an empty window.
fn mean(coeffs: &[f64]) -> f64 {
    if coeffs.is_empty() {
        return 0.0;
    }
    coeffs.iter().sum::<f64>() / coeffs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rectangular_is_all_ones() {
        let c = WindowKind::Rectangular.coefficients(8);
        assert!(c.iter().all(|&v| v == 1.0));
    }

    #[test]
    fn hann_starts_at_zero_and_peaks_mid() {
        let c = WindowKind::Hann.coefficients(64);
        assert!(c[0].abs() < 1e-12);
        assert!((c[32] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn hamming_edges_nonzero() {
        let c = WindowKind::Hamming.coefficients(64);
        assert!((c[0] - 0.08).abs() < 1e-9);
    }

    #[test]
    fn blackman_sums_sane() {
        let c = WindowKind::Blackman.coefficients(128);
        assert!(c.iter().all(|&v| (-1e-12..=1.0 + 1e-12).contains(&v)));
        assert!((c[0]).abs() < 1e-9);
    }

    #[test]
    fn coherent_gain_matches_known_values() {
        // Hann coherent gain is 0.5, Hamming 0.54, rectangular 1.0.
        assert!((WindowKind::Hann.coherent_gain(4096) - 0.5).abs() < 1e-3);
        assert!((WindowKind::Hamming.coherent_gain(4096) - 0.54).abs() < 1e-3);
        assert!((WindowKind::Rectangular.coherent_gain(4096) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn apply_scales_frame() {
        let mut frame = vec![1.0f32; 16];
        let gain = WindowKind::Hann.apply(&mut frame);
        assert!(frame[0].abs() < 1e-9);
        assert!((frame[8] - 1.0).abs() < 1e-6);
        assert_eq!(gain.to_bits(), WindowKind::Hann.coherent_gain(16).to_bits());
    }

    #[test]
    fn degenerate_sizes() {
        assert!(WindowKind::Hann.coefficients(0).is_empty());
        assert_eq!(WindowKind::Hann.coefficients(1), vec![1.0]);
        assert_eq!(WindowKind::Blackman.coherent_gain(0), 0.0);
    }
}
