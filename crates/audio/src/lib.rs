//! # mdn-audio — DSP substrate for Music-Defined Networking
//!
//! Everything the paper's signal pipeline needs, implemented from scratch:
//!
//! * [`signal`] — sample buffers, dBFS/dB SPL level arithmetic;
//! * [`synth`] — pure tones, chirps, mixtures, phase-continuous oscillators;
//! * [`window`] — Hann/Hamming/Blackman analysis windows;
//! * [`fft`] — iterative radix-2 Cooley–Tukey FFT with a caching planner
//!   (the code path benchmarked in the paper's Figure 2b);
//! * [`goertzel`] — cheap per-frequency tone detection;
//! * [`spectral`] — amplitude spectra, peak picking, band power;
//! * [`spectrogram`] — STFT spectrograms and ridge extraction;
//! * [`mel`] — mel scale + mel-scaled spectrograms (the paper's figures);
//! * [`noise`] — white/pink/band noise and the deterministic pop-song
//!   interference track standing in for the paper's background music;
//! * [`resample`] — sample-rate conversion for microphone ADC models;
//! * [`wav`] — mono 16-bit PCM WAV export/import, so every experiment's
//!   soundtrack is playable.
//!
//! ```
//! use mdn_audio::synth::Tone;
//! use mdn_audio::spectral::Spectrum;
//! use std::time::Duration;
//!
//! let tone = Tone::new(700.0, Duration::from_millis(50), 0.5).render(44_100);
//! let spec = Spectrum::of(&tone);
//! let peaks = spec.peaks(0.1, 20.0);
//! assert!((peaks[0].freq_hz - 700.0).abs() < 5.0);
//! ```

#![warn(missing_docs)]

pub mod fft;
pub mod goertzel;
mod kernels;
pub mod mel;
pub mod noise;
pub mod resample;
pub mod signal;
pub mod spectral;
pub mod spectrogram;
pub mod synth;
pub mod wav;
pub mod window;

pub use signal::{Signal, Window};
