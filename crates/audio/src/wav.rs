//! Minimal WAV (RIFF) export/import — mono, 16-bit PCM.
//!
//! The whole point of Music-Defined Networking is that you can *hear* it.
//! [`write_wav`] turns any [`Signal`] — a port-scan soundtrack, a queue-tone
//! sequence, a failing fan in a datacenter — into a playable file, and
//! [`read_wav`] loads one back (round-trip tested). Implemented from
//! scratch: a RIFF header plus little-endian PCM samples, no dependencies.

use crate::signal::Signal;
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::Path;

/// Errors from WAV I/O.
#[derive(Debug)]
pub enum WavError {
    /// Underlying file I/O failed.
    Io(io::Error),
    /// The file is not a WAV this reader supports (mono 16-bit PCM).
    Unsupported(&'static str),
}

impl std::fmt::Display for WavError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WavError::Io(e) => write!(f, "wav io: {e}"),
            WavError::Unsupported(what) => write!(f, "unsupported wav: {what}"),
        }
    }
}

impl std::error::Error for WavError {}

impl From<io::Error> for WavError {
    fn from(e: io::Error) -> Self {
        WavError::Io(e)
    }
}

/// Write `signal` as a mono 16-bit PCM WAV file. Samples are clamped to
/// `[-1, 1]` before quantization.
pub fn write_wav(signal: &Signal, path: impl AsRef<Path>) -> Result<(), WavError> {
    let mut out = File::create(path)?;
    let n = signal.len() as u32;
    let sr = signal.sample_rate();
    let data_bytes = n * 2;
    let byte_rate = sr * 2;

    // RIFF header.
    out.write_all(b"RIFF")?;
    out.write_all(&(36 + data_bytes).to_le_bytes())?;
    out.write_all(b"WAVE")?;
    // fmt chunk: PCM, mono, 16-bit.
    out.write_all(b"fmt ")?;
    out.write_all(&16u32.to_le_bytes())?;
    out.write_all(&1u16.to_le_bytes())?; // PCM
    out.write_all(&1u16.to_le_bytes())?; // mono
    out.write_all(&sr.to_le_bytes())?;
    out.write_all(&byte_rate.to_le_bytes())?;
    out.write_all(&2u16.to_le_bytes())?; // block align
    out.write_all(&16u16.to_le_bytes())?; // bits per sample

    // data chunk.
    out.write_all(b"data")?;
    out.write_all(&data_bytes.to_le_bytes())?;
    let mut buf = Vec::with_capacity(signal.len() * 2);
    for &s in signal.samples() {
        let q = (s.clamp(-1.0, 1.0) * i16::MAX as f32).round() as i16;
        buf.extend_from_slice(&q.to_le_bytes());
    }
    out.write_all(&buf)?;
    Ok(())
}

fn take<const N: usize>(data: &[u8], at: &mut usize) -> Result<[u8; N], WavError> {
    let end = *at + N;
    let bytes = data
        .get(*at..end)
        .and_then(|slice| slice.try_into().ok())
        .ok_or(WavError::Unsupported("truncated file"))?;
    *at = end;
    Ok(bytes)
}

/// Read a mono 16-bit PCM WAV file back into a [`Signal`].
pub fn read_wav(path: impl AsRef<Path>) -> Result<Signal, WavError> {
    let mut data = Vec::new();
    File::open(path)?.read_to_end(&mut data)?;
    let mut at = 0usize;
    if &take::<4>(&data, &mut at)? != b"RIFF" {
        return Err(WavError::Unsupported("missing RIFF magic"));
    }
    let _riff_len = u32::from_le_bytes(take(&data, &mut at)?);
    if &take::<4>(&data, &mut at)? != b"WAVE" {
        return Err(WavError::Unsupported("missing WAVE tag"));
    }
    // Walk chunks: we need fmt then data (tolerating extra chunks).
    let mut sample_rate = None;
    loop {
        let id = take::<4>(&data, &mut at)?;
        let len = u32::from_le_bytes(take(&data, &mut at)?) as usize;
        match &id {
            b"fmt " => {
                // The fields are read from the chunk's own bytes, never
                // from the chunk after a short one.
                let body = data
                    .get(at..at + len)
                    .ok_or(WavError::Unsupported("truncated fmt chunk"))?;
                if len < 16 {
                    return Err(WavError::Unsupported("fmt chunk shorter than 16 bytes"));
                }
                let mut p = 0;
                let format = u16::from_le_bytes(take(body, &mut p)?);
                let channels = u16::from_le_bytes(take(body, &mut p)?);
                let sr = u32::from_le_bytes(take(body, &mut p)?);
                let _byte_rate = u32::from_le_bytes(take(body, &mut p)?);
                let _block = u16::from_le_bytes(take(body, &mut p)?);
                let bits = u16::from_le_bytes(take(body, &mut p)?);
                if format != 1 {
                    return Err(WavError::Unsupported("not PCM"));
                }
                if channels != 1 {
                    return Err(WavError::Unsupported("not mono"));
                }
                if bits != 16 {
                    return Err(WavError::Unsupported("not 16-bit"));
                }
                if sr == 0 {
                    return Err(WavError::Unsupported("zero sample rate"));
                }
                sample_rate = Some(sr);
                at += len;
            }
            b"data" => {
                let sr = sample_rate.ok_or(WavError::Unsupported("data before fmt"))?;
                let body = data
                    .get(at..at + len)
                    .ok_or(WavError::Unsupported("truncated data chunk"))?;
                let samples: Vec<f32> = body
                    .chunks_exact(2)
                    .map(|b| i16::from_le_bytes([b[0], b[1]]) as f32 / i16::MAX as f32)
                    .collect();
                return Ok(Signal::from_samples(samples, sr));
            }
            _ => {
                // Skip unknown chunks (pad byte for odd sizes).
                at += len + (len & 1);
            }
        }
        if at >= data.len() {
            return Err(WavError::Unsupported("no data chunk"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::Tone;
    use std::time::Duration;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("mdn_wav_test_{name}.wav"))
    }

    #[test]
    fn roundtrip_preserves_signal() {
        let sig = Tone::new(700.0, Duration::from_millis(50), 0.5).render(44_100);
        let path = tmp("roundtrip");
        write_wav(&sig, &path).unwrap();
        let back = read_wav(&path).unwrap();
        assert_eq!(back.sample_rate(), 44_100);
        assert_eq!(back.len(), sig.len());
        for (a, b) in sig.samples().iter().zip(back.samples()) {
            assert!((a - b).abs() < 2.0 / i16::MAX as f32, "{a} vs {b}");
        }
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn header_is_canonical_riff() {
        let sig = Signal::from_samples(vec![0.0; 100], 8_000);
        let path = tmp("header");
        write_wav(&sig, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(&bytes[0..4], b"RIFF");
        assert_eq!(&bytes[8..12], b"WAVE");
        assert_eq!(&bytes[12..16], b"fmt ");
        assert_eq!(&bytes[36..40], b"data");
        assert_eq!(bytes.len(), 44 + 200);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn loud_samples_clamped_not_wrapped() {
        let sig = Signal::from_samples(vec![2.0, -2.0], 8_000);
        let path = tmp("clamp");
        write_wav(&sig, &path).unwrap();
        let back = read_wav(&path).unwrap();
        assert!((back.samples()[0] - 1.0).abs() < 1e-3);
        assert!((back.samples()[1] + 1.0).abs() < 1e-3);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn rejects_garbage() {
        let path = tmp("garbage");
        std::fs::write(&path, b"not a wav at all").unwrap();
        assert!(matches!(read_wav(&path), Err(WavError::Unsupported(_))));
        std::fs::remove_file(path).unwrap();
    }

    /// A canonical 10-sample file at 8 kHz, as bytes.
    fn canonical_bytes(name: &str) -> Vec<u8> {
        let path = tmp(name);
        write_wav(&Signal::from_samples(vec![0.25; 10], 8_000), &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(path).unwrap();
        bytes
    }

    fn read_bytes(name: &str, bytes: &[u8]) -> Result<Signal, WavError> {
        let path = tmp(name);
        std::fs::write(&path, bytes).unwrap();
        let got = read_wav(&path);
        std::fs::remove_file(path).unwrap();
        got
    }

    #[test]
    fn rejects_a_zero_sample_rate() {
        let mut bytes = canonical_bytes("zero_rate_src");
        bytes[24..28].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            read_bytes("zero_rate", &bytes),
            Err(WavError::Unsupported("zero sample rate"))
        ));
    }

    #[test]
    fn rejects_a_fmt_chunk_shorter_than_its_fields() {
        // A 14-byte fmt chunk: its last field would be read from the
        // `data` chunk's id.
        let mut bytes = canonical_bytes("short_fmt_src");
        bytes[16..20].copy_from_slice(&14u32.to_le_bytes());
        bytes.drain(34..36);
        assert!(matches!(
            read_bytes("short_fmt", &bytes),
            Err(WavError::Unsupported("fmt chunk shorter than 16 bytes"))
        ));
        // A fmt chunk cut off by the end of the file.
        let bytes = canonical_bytes("cut_fmt_src");
        assert!(matches!(
            read_bytes("cut_fmt", &bytes[..30]),
            Err(WavError::Unsupported("truncated fmt chunk"))
        ));
    }

    #[test]
    fn rejects_stereo() {
        // Hand-build a stereo header.
        let sig = Signal::from_samples(vec![0.0; 10], 8_000);
        let path = tmp("stereo");
        write_wav(&sig, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[22] = 2; // channels = 2
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_wav(&path),
            Err(WavError::Unsupported("not mono"))
        ));
        std::fs::remove_file(path).unwrap();
    }
}
