//! The Music Protocol (MP).
//!
//! The paper modified the Zodiac FX firmware so a switch can ask its
//! attached Raspberry Pi to play a sound: "The MP payload contains the
//! frequency at which we want to play the sound, its duration and
//! intensity (volume)." This module defines that message and a compact
//! binary wire format for it, plus sequences and acks so a Pi can confirm
//! playback.
//!
//! ## Frame layout (big-endian)
//!
//! ```text
//! +--------+---------+--------+--------+----------+
//! | magic  | version | type   | seq    | body len |
//! | u16    | u8      | u8     | u16    | u16      |  = 8-byte header
//! +--------+---------+--------+--------+----------+
//! PlayTone body: freq_chz u32 · duration_ms u16 · intensity_ddb u16
//! PlaySequence body: count u8 · count × (tone body · gap_ms u16)
//! Ack body: empty (seq echoes the acked frame)
//! ```
//!
//! Frequency is in centihertz (0.01 Hz resolution, max ≈ 42.9 MHz) and
//! intensity in deci-dB SPL (0.1 dB resolution, max 6553.5 dB) — integer
//! fields that cover the acoustic range with room to spare.

use crate::wire::{Reader, WireError, Writer};
use std::fmt;
use std::time::Duration;

/// MP magic: ASCII "MP".
pub const MP_MAGIC: u16 = 0x4D50;
/// Protocol version implemented here.
pub const MP_VERSION: u8 = 1;
/// Header size in bytes.
pub const MP_HEADER_LEN: usize = 8;

const TYPE_PLAY_TONE: u8 = 1;
const TYPE_PLAY_SEQUENCE: u8 = 2;
const TYPE_ACK: u8 = 3;

/// One tone descriptor: the MP payload of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MpTone {
    /// Frequency in centihertz (100 = 1 Hz).
    pub freq_chz: u32,
    /// Duration in milliseconds.
    pub duration_ms: u16,
    /// Intensity in deci-dB SPL (600 = 60.0 dB).
    pub intensity_ddb: u16,
}

/// Why a tone's engineering units don't fit the wire format.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MpToneError {
    /// Frequency outside `0 ..= u32::MAX` centihertz (or not finite).
    FrequencyOutOfRange(f64),
    /// Duration longer than `u16::MAX` milliseconds.
    DurationOutOfRange(Duration),
    /// Intensity outside `0 ..= u16::MAX` deci-dB (or not finite).
    IntensityOutOfRange(f64),
}

impl fmt::Display for MpToneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MpToneError::FrequencyOutOfRange(hz) => {
                write!(f, "frequency out of range: {hz} Hz")
            }
            MpToneError::DurationOutOfRange(d) => {
                write!(f, "duration out of range: {d:?}")
            }
            MpToneError::IntensityOutOfRange(db) => {
                write!(f, "intensity out of range: {db} dB SPL")
            }
        }
    }
}

impl std::error::Error for MpToneError {}

impl MpTone {
    /// Build from engineering units, checking the wire ranges.
    pub fn try_from_units(
        freq_hz: f64,
        duration: Duration,
        intensity_db: f64,
    ) -> Result<Self, MpToneError> {
        let freq_chz = (freq_hz * 100.0).round();
        if !(0.0..=u32::MAX as f64).contains(&freq_chz) {
            return Err(MpToneError::FrequencyOutOfRange(freq_hz));
        }
        let duration_ms = duration.as_millis();
        if duration_ms > u16::MAX as u128 {
            return Err(MpToneError::DurationOutOfRange(duration));
        }
        let ddb = (intensity_db * 10.0).round();
        if !(0.0..=u16::MAX as f64).contains(&ddb) {
            return Err(MpToneError::IntensityOutOfRange(intensity_db));
        }
        Ok(Self {
            freq_chz: freq_chz as u32,
            duration_ms: duration_ms as u16,
            intensity_ddb: ddb as u16,
        })
    }

    /// Build from engineering units.
    ///
    /// # Panics
    /// Panics if the values exceed the wire ranges; use
    /// [`try_from_units`](Self::try_from_units) to handle that
    /// gracefully.
    #[allow(
        clippy::panic,
        reason = "documented panic; `try_from_units` is the typed path"
    )]
    pub fn from_units(freq_hz: f64, duration: Duration, intensity_db: f64) -> Self {
        Self::try_from_units(freq_hz, duration, intensity_db).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Frequency in Hz.
    pub fn freq_hz(&self) -> f64 {
        self.freq_chz as f64 / 100.0
    }

    /// Duration as a [`Duration`].
    pub fn duration(&self) -> Duration {
        Duration::from_millis(self.duration_ms as u64)
    }

    /// Intensity in dB SPL.
    pub fn intensity_db(&self) -> f64 {
        self.intensity_ddb as f64 / 10.0
    }

    fn write(&self, w: &mut Writer) {
        w.u32(self.freq_chz)
            .u16(self.duration_ms)
            .u16(self.intensity_ddb);
    }

    fn read(r: &mut Reader) -> Result<Self, WireError> {
        Ok(Self {
            freq_chz: r.u32()?,
            duration_ms: r.u16()?,
            intensity_ddb: r.u16()?,
        })
    }
}

/// A Music Protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MpMessage {
    /// Play one tone.
    PlayTone {
        /// Sequence number (echoed by the ack).
        seq: u16,
        /// The tone.
        tone: MpTone,
    },
    /// Play several tones back-to-back with per-tone trailing gaps —
    /// a melody, e.g. a port-knock sequence emitted by one switch.
    PlaySequence {
        /// Sequence number (echoed by the ack).
        seq: u16,
        /// `(tone, gap_after)` pairs.
        tones: Vec<(MpTone, Duration)>,
    },
    /// Acknowledge the frame with the same `seq`.
    Ack {
        /// The acked sequence number.
        seq: u16,
    },
}

impl MpMessage {
    /// The message's sequence number.
    pub fn seq(&self) -> u16 {
        match self {
            MpMessage::PlayTone { seq, .. }
            | MpMessage::PlaySequence { seq, .. }
            | MpMessage::Ack { seq } => *seq,
        }
    }

    /// Serialize to a wire frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Writer::new();
        let (ty, seq) = match self {
            MpMessage::PlayTone { seq, tone } => {
                tone.write(&mut body);
                (TYPE_PLAY_TONE, *seq)
            }
            MpMessage::PlaySequence { seq, tones } => {
                assert!(tones.len() <= u8::MAX as usize, "sequence too long");
                body.u8(tones.len() as u8);
                for (tone, gap) in tones {
                    tone.write(&mut body);
                    let gap_ms = gap.as_millis().min(u16::MAX as u128) as u16;
                    body.u16(gap_ms);
                }
                (TYPE_PLAY_SEQUENCE, *seq)
            }
            MpMessage::Ack { seq } => (TYPE_ACK, *seq),
        };
        let body = body.finish();
        let mut w = Writer::new();
        w.u16(MP_MAGIC)
            .u8(MP_VERSION)
            .u8(ty)
            .u16(seq)
            .u16(body.len() as u16)
            .raw(&body);
        w.finish()
    }

    /// Parse a wire frame.
    pub fn decode(frame: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(frame);
        let magic = r.u16()?;
        if magic != MP_MAGIC {
            return Err(WireError::BadMagic {
                expected: MP_MAGIC as u32,
                found: magic as u32,
            });
        }
        let version = r.u8()?;
        if version != MP_VERSION {
            return Err(WireError::BadVersion(version));
        }
        let ty = r.u8()?;
        let seq = r.u16()?;
        let len = r.u16()? as usize;
        if r.remaining() != len {
            return Err(WireError::LengthMismatch {
                declared: len,
                actual: r.remaining(),
            });
        }
        let msg = match ty {
            TYPE_PLAY_TONE => MpMessage::PlayTone {
                seq,
                tone: MpTone::read(&mut r)?,
            },
            TYPE_PLAY_SEQUENCE => {
                let count = r.u8()? as usize;
                let mut tones = Vec::with_capacity(count);
                for _ in 0..count {
                    let tone = MpTone::read(&mut r)?;
                    let gap = Duration::from_millis(r.u16()? as u64);
                    tones.push((tone, gap));
                }
                MpMessage::PlaySequence { seq, tones }
            }
            TYPE_ACK => MpMessage::Ack { seq },
            other => return Err(WireError::UnknownType(other)),
        };
        r.expect_end()?;
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone() -> MpTone {
        MpTone::from_units(1020.0, Duration::from_millis(50), 62.5)
    }

    #[test]
    fn units_roundtrip() {
        let t = tone();
        assert_eq!(t.freq_hz(), 1020.0);
        assert_eq!(t.duration(), Duration::from_millis(50));
        assert_eq!(t.intensity_db(), 62.5);
    }

    #[test]
    fn centihertz_resolution() {
        let t = MpTone::from_units(440.01, Duration::from_millis(30), 30.0);
        assert_eq!(t.freq_chz, 44001);
        assert!((t.freq_hz() - 440.01).abs() < 1e-9);
    }

    #[test]
    fn play_tone_roundtrip() {
        let msg = MpMessage::PlayTone {
            seq: 7,
            tone: tone(),
        };
        let decoded = MpMessage::decode(&msg.encode()).unwrap();
        assert_eq!(decoded, msg);
    }

    #[test]
    fn play_sequence_roundtrip() {
        let msg = MpMessage::PlaySequence {
            seq: 99,
            tones: vec![
                (tone(), Duration::from_millis(100)),
                (
                    MpTone::from_units(700.0, Duration::from_millis(30), 55.0),
                    Duration::ZERO,
                ),
            ],
        };
        let decoded = MpMessage::decode(&msg.encode()).unwrap();
        assert_eq!(decoded, msg);
    }

    #[test]
    fn ack_roundtrip_and_header_len() {
        let msg = MpMessage::Ack { seq: 0xBEEF };
        let frame = msg.encode();
        assert_eq!(frame.len(), MP_HEADER_LEN);
        assert_eq!(MpMessage::decode(&frame).unwrap(), msg);
    }

    #[test]
    fn play_tone_frame_is_compact() {
        // Header (8) + tone body (8) — tiny enough for the Zodiac FX's
        // 120 KB RAM constraint the paper mentions.
        let frame = MpMessage::PlayTone {
            seq: 0,
            tone: tone(),
        }
        .encode();
        assert_eq!(frame.len(), 16);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bad = MpMessage::Ack { seq: 1 }.encode();
        bad[0] = 0x00;
        let err = MpMessage::decode(&bad).unwrap_err();
        assert!(matches!(err, WireError::BadMagic { .. }));
    }

    #[test]
    fn rejects_bad_version() {
        let mut bad = MpMessage::Ack { seq: 1 }.encode();
        bad[2] = 9;
        assert_eq!(MpMessage::decode(&bad), Err(WireError::BadVersion(9)));
    }

    #[test]
    fn rejects_unknown_type() {
        let mut bad = MpMessage::Ack { seq: 1 }.encode();
        bad[3] = 0xEE;
        assert_eq!(MpMessage::decode(&bad), Err(WireError::UnknownType(0xEE)));
    }

    #[test]
    fn rejects_length_mismatch() {
        let mut bad = MpMessage::PlayTone {
            seq: 1,
            tone: tone(),
        }
        .encode();
        bad.truncate(12); // cut into the body
        let err = MpMessage::decode(&bad).unwrap_err();
        assert!(matches!(err, WireError::LengthMismatch { .. }));
    }

    #[test]
    fn trailing_body_bytes_report_the_real_counts() {
        // A PlayTone whose length field covers 3 bytes past the tone.
        let mut bad = MpMessage::PlayTone {
            seq: 1,
            tone: tone(),
        }
        .encode();
        let end = bad.len();
        bad.extend_from_slice(&[0xAB; 3]);
        let len = (end - MP_HEADER_LEN + 3) as u16;
        bad[6..8].copy_from_slice(&len.to_be_bytes());
        assert_eq!(
            MpMessage::decode(&bad),
            Err(WireError::TrailingBytes { end, extra: 3 })
        );
    }

    #[test]
    fn rejects_truncated_header() {
        let err = MpMessage::decode(&[0x4D]).unwrap_err();
        assert!(matches!(err, WireError::Truncated { .. }));
    }

    #[test]
    fn seq_accessor() {
        assert_eq!(MpMessage::Ack { seq: 3 }.seq(), 3);
        assert_eq!(
            MpMessage::PlayTone {
                seq: 4,
                tone: tone()
            }
            .seq(),
            4
        );
    }

    #[test]
    #[should_panic(expected = "duration out of range")]
    fn from_units_checks_duration() {
        MpTone::from_units(440.0, Duration::from_secs(120), 60.0);
    }

    #[test]
    fn try_from_units_returns_typed_errors() {
        assert!(matches!(
            MpTone::try_from_units(-1.0, Duration::from_millis(50), 60.0),
            Err(MpToneError::FrequencyOutOfRange(_))
        ));
        assert!(matches!(
            MpTone::try_from_units(f64::NAN, Duration::from_millis(50), 60.0),
            Err(MpToneError::FrequencyOutOfRange(_))
        ));
        assert!(matches!(
            MpTone::try_from_units(440.0, Duration::from_secs(120), 60.0),
            Err(MpToneError::DurationOutOfRange(_))
        ));
        assert!(matches!(
            MpTone::try_from_units(440.0, Duration::from_millis(50), -3.0),
            Err(MpToneError::IntensityOutOfRange(_))
        ));
        let ok = MpTone::try_from_units(440.0, Duration::from_millis(50), 60.0).unwrap();
        assert_eq!(
            ok,
            MpTone::from_units(440.0, Duration::from_millis(50), 60.0)
        );
    }

    #[test]
    fn tone_errors_display_the_offending_value() {
        let e = MpTone::try_from_units(440.0, Duration::from_secs(120), 60.0).unwrap_err();
        assert!(e.to_string().contains("duration out of range"));
        let e = MpTone::try_from_units(-5.0, Duration::ZERO, 60.0).unwrap_err();
        assert!(e.to_string().contains("-5"));
    }
}
