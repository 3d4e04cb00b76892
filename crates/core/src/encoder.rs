//! The active sound path: device event → Music Protocol frame → speaker →
//! acoustic scene.
//!
//! A [`SoundingDevice`] models one paper testbed unit: a switch (or server)
//! that owns a [`FrequencySet`], marshals MP messages to its Raspberry Pi
//! (the frame is genuinely encoded and decoded — wire bugs can't hide), and
//! plays the resulting tone into the shared [`Scene`] from its position.

use crate::freqplan::FrequencySet;
use mdn_acoustics::medium::Pos;
use mdn_acoustics::scene::Scene;
use mdn_acoustics::speaker::{Speaker, SpeakerError, ToneRequest};
use mdn_proto::mp::{MpMessage, MpTone, MpToneError};
use std::time::Duration;

/// Default tone duration: the paper's ~50 ms analysis window.
pub const DEFAULT_TONE: Duration = Duration::from_millis(50);

/// Default emission level, dB SPL at 1 m — comfortably above the paper's
/// 30 dB floor, below conversation level.
pub const DEFAULT_LEVEL_DB: f64 = 65.0;

/// Errors from the emission path.
#[derive(Debug, Clone, PartialEq)]
pub enum EmitError {
    /// The set-local slot index does not exist.
    BadSlot {
        /// Requested local slot.
        slot: usize,
        /// Size of the device's set.
        set_len: usize,
    },
    /// The speaker refused the tone.
    Speaker(SpeakerError),
    /// The requested tone does not fit the Music Protocol wire encoding.
    Tone(MpToneError),
}

impl std::fmt::Display for EmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EmitError::BadSlot { slot, set_len } => {
                write!(f, "slot {slot} out of range for a {set_len}-tone set")
            }
            EmitError::Speaker(e) => write!(f, "speaker: {e}"),
            EmitError::Tone(e) => write!(f, "tone: {e}"),
        }
    }
}

impl std::error::Error for EmitError {}

impl From<SpeakerError> for EmitError {
    fn from(e: SpeakerError) -> Self {
        EmitError::Speaker(e)
    }
}

impl From<MpToneError> for EmitError {
    fn from(e: MpToneError) -> Self {
        EmitError::Tone(e)
    }
}

/// One sound-capable device: a frequency set, a speaker, a position, and an
/// MP sequence counter.
#[derive(Debug, Clone)]
pub struct SoundingDevice {
    /// Device name (also used as the scene emission label).
    pub name: String,
    /// The device's disjoint tone slots.
    pub set: FrequencySet,
    /// The attached speaker.
    pub speaker: Speaker,
    /// Where the speaker sits.
    pub pos: Pos,
    /// Default emission level in dB SPL.
    pub level_db: f64,
    next_seq: u16,
    /// Every MP frame "sent to the Pi", for tests and byte accounting.
    pub mp_frames_sent: u64,
    /// Total MP bytes marshaled.
    pub mp_bytes_sent: u64,
}

impl SoundingDevice {
    /// Build a device with the cheap testbed speaker and default level.
    pub fn new(name: impl Into<String>, set: FrequencySet, pos: Pos) -> Self {
        Self {
            name: name.into(),
            set,
            speaker: Speaker::cheap(),
            pos,
            level_db: DEFAULT_LEVEL_DB,
            next_seq: 0,
            mp_frames_sent: 0,
            mp_bytes_sent: 0,
        }
    }

    /// Emit the tone for set-local `slot` into `scene` at `start`, for
    /// `duration`, via the full MP marshal→unmarshal→speaker path.
    pub fn emit_slot(
        &mut self,
        scene: &mut Scene,
        slot: usize,
        start: Duration,
        duration: Duration,
    ) -> Result<(), EmitError> {
        if slot >= self.set.len() {
            return Err(EmitError::BadSlot {
                slot,
                set_len: self.set.len(),
            });
        }
        let freq_hz = self.set.freq(slot);
        // Marshal the MP frame exactly as the modified Zodiac firmware
        // would, then decode it on the "Pi" side.
        let msg = MpMessage::PlayTone {
            seq: self.next_seq,
            tone: MpTone::try_from_units(freq_hz, duration, self.level_db)?,
        };
        self.next_seq = self.next_seq.wrapping_add(1);
        let frame = msg.encode();
        self.mp_frames_sent += 1;
        self.mp_bytes_sent += frame.len() as u64;
        let decoded = MpMessage::decode(&frame).expect("self-encoded MP frame decodes");
        let MpMessage::PlayTone { tone, .. } = decoded else {
            unreachable!("encoded a PlayTone");
        };
        // The Pi drives the speaker.
        let req = ToneRequest {
            freq_hz: tone.freq_hz(),
            duration: tone.duration(),
            level_spl: tone.intensity_db(),
        };
        let tone = self.speaker.shape(req)?;
        scene.add_tone(self.pos, start, &tone, self.name.clone());
        Ok(())
    }

    /// Emit with the default 50 ms duration.
    pub fn emit(
        &mut self,
        scene: &mut Scene,
        slot: usize,
        start: Duration,
    ) -> Result<(), EmitError> {
        self.emit_slot(scene, slot, start, DEFAULT_TONE)
    }

    /// Emit a *melody*: a timed sequence of slots as one Music Protocol
    /// `PlaySequence` frame (marshaled and unmarshaled like everything
    /// else), each tone followed by `gap` of silence. Returns the time at
    /// which the melody ends.
    pub fn emit_melody(
        &mut self,
        scene: &mut Scene,
        slots: &[usize],
        start: Duration,
        tone: Duration,
        gap: Duration,
    ) -> Result<Duration, EmitError> {
        if let Some(&bad) = slots.iter().find(|&&s| s >= self.set.len()) {
            return Err(EmitError::BadSlot {
                slot: bad,
                set_len: self.set.len(),
            });
        }
        let tones: Vec<(MpTone, Duration)> = slots
            .iter()
            .map(|&s| {
                Ok((
                    MpTone::try_from_units(self.set.freq(s), tone, self.level_db)?,
                    gap,
                ))
            })
            .collect::<Result<_, MpToneError>>()?;
        let msg = MpMessage::PlaySequence {
            seq: self.next_seq,
            tones,
        };
        self.next_seq = self.next_seq.wrapping_add(1);
        let frame = msg.encode();
        self.mp_frames_sent += 1;
        self.mp_bytes_sent += frame.len() as u64;
        let decoded = MpMessage::decode(&frame).expect("self-encoded MP frame decodes");
        let MpMessage::PlaySequence { tones, .. } = decoded else {
            unreachable!("encoded a PlaySequence");
        };
        // The Pi plays the sequence back-to-back with the encoded gaps.
        let mut at = start;
        for (t, g) in tones {
            let req = ToneRequest {
                freq_hz: t.freq_hz(),
                duration: t.duration(),
                level_spl: t.intensity_db(),
            };
            let tone = self.speaker.shape(req)?;
            let produced = scene.add_tone(self.pos, at, &tone, self.name.clone());
            at += produced + g;
        }
        Ok(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freqplan::FrequencyPlan;
    use mdn_audio::spectral::Spectrum;
    use mdn_audio::Signal;
    use std::sync::Arc;

    const SR: u32 = 44_100;

    fn device() -> SoundingDevice {
        let mut plan = FrequencyPlan::new(500.0, 1000.0, 20.0);
        let set = plan.allocate("sw1", 5).unwrap();
        SoundingDevice::new("sw1", set, Pos::ORIGIN)
    }

    #[test]
    fn emitted_tone_lands_at_slot_frequency() {
        let mut dev = device();
        let mut scene = Scene::quiet(SR);
        dev.emit(&mut scene, 2, Duration::ZERO).unwrap();
        let heard = scene.render_at(Pos::new(0.5, 0.0, 0.0), Duration::from_millis(60));
        let spec = Spectrum::of(&heard);
        let peaks = spec.peaks(1e-4, 15.0);
        assert!(!peaks.is_empty());
        assert!(
            (peaks[0].freq_hz - dev.set.freq(2)).abs() < 10.0,
            "peak {}",
            peaks[0].freq_hz
        );
    }

    #[test]
    fn bad_slot_is_an_error() {
        let mut dev = device();
        let mut scene = Scene::quiet(SR);
        let err = dev.emit(&mut scene, 9, Duration::ZERO).unwrap_err();
        assert_eq!(
            err,
            EmitError::BadSlot {
                slot: 9,
                set_len: 5
            }
        );
        assert_eq!(scene.num_emissions(), 0);
    }

    #[test]
    fn mp_accounting_tracks_frames() {
        let mut dev = device();
        let mut scene = Scene::quiet(SR);
        dev.emit(&mut scene, 0, Duration::ZERO).unwrap();
        dev.emit(&mut scene, 1, Duration::from_millis(100)).unwrap();
        assert_eq!(dev.mp_frames_sent, 2);
        assert_eq!(dev.mp_bytes_sent, 32); // 16 bytes per PlayTone frame
        assert_eq!(scene.num_emissions(), 2);
    }

    #[test]
    fn sub_minimum_duration_is_stretched_by_speaker() {
        let mut dev = device();
        let mut scene = Scene::quiet(SR);
        dev.emit_slot(&mut scene, 0, Duration::ZERO, Duration::from_millis(5))
            .unwrap();
        let e = &scene.emissions()[0];
        // The cheap speaker stretches to its 30 ms floor.
        assert!((e.signal.duration().as_secs_f64() - 0.030).abs() < 0.002);
    }

    #[test]
    fn out_of_speaker_band_slot_fails_cleanly() {
        let mut plan = FrequencyPlan::new(16_000.0, 30_000.0, 100.0);
        let set = plan.allocate("hi", 20).unwrap();
        let mut dev = SoundingDevice::new("hi", set, Pos::ORIGIN);
        let mut scene = Scene::quiet(SR);
        // Slot frequencies above the cheap speaker's 15 kHz limit.
        let err = dev.emit(&mut scene, 0, Duration::ZERO).unwrap_err();
        assert!(matches!(
            err,
            EmitError::Speaker(SpeakerError::OutOfBand { .. })
        ));
    }

    #[test]
    fn unencodable_tone_is_an_error_not_a_panic() {
        let mut dev = device();
        dev.level_db = -3.0; // below the MP intensity encoding's floor
        let mut scene = Scene::quiet(SR);
        let err = dev.emit(&mut scene, 0, Duration::ZERO).unwrap_err();
        assert!(matches!(err, EmitError::Tone(_)), "got {err:?}");
        assert!(err.to_string().contains("intensity out of range"));
        assert_eq!(scene.num_emissions(), 0);
    }

    /// The request the Pi hands its speaker for `freq` at `dur` and
    /// `level`, after the MP frame's unit quantisation.
    fn pi_request(freq: f64, dur: Duration, level: f64) -> ToneRequest {
        let tone = MpTone::try_from_units(freq, dur, level).unwrap();
        ToneRequest {
            freq_hz: tone.freq_hz(),
            duration: tone.duration(),
            level_spl: tone.intensity_db(),
        }
    }

    #[test]
    fn memoized_emissions_equal_fresh_speaker_renders() {
        // Repeated and interleaved (slot, duration, level) keys — one
        // duration below the speaker floor, so two requests shape to one
        // tone — through both emit paths, both speaker presets and three
        // scene rates: every emission's samples are a fresh
        // `Speaker::play`'s, bit for bit, and equal tones share one array.
        let bits = |s: &Signal| s.samples().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let ms = Duration::from_millis;
        for sr in [16_000, 44_100, 96_000] {
            for speaker in [Speaker::cheap(), Speaker::ultrasound_capable()] {
                let mut plan = FrequencyPlan::new(500.0, 5000.0, 20.0);
                let mut a = SoundingDevice::new("a", plan.allocate("a", 3).unwrap(), Pos::ORIGIN);
                let mut b = SoundingDevice::new("b", plan.allocate("b", 3).unwrap(), Pos::ORIGIN);
                a.speaker = speaker.clone();
                b.speaker = speaker.clone();
                b.level_db = 70.0;
                let mut scene = Scene::quiet(sr);
                let mut want = Vec::new();
                let schedule = [(0, 50), (1, 50), (0, 50), (0, 80), (2, 1), (2, 3), (1, 50)];
                for (i, &(slot, dur)) in schedule.iter().enumerate() {
                    let at = ms(100 * i as u64);
                    for dev in [&mut a, &mut b] {
                        dev.emit_slot(&mut scene, slot, at, ms(dur)).unwrap();
                        want.push(pi_request(dev.set.freq(slot), ms(dur), dev.level_db));
                    }
                }
                let melody = [2, 0, 2, 1];
                a.emit_melody(&mut scene, &melody, ms(900), ms(40), ms(10))
                    .unwrap();
                want.extend(
                    melody
                        .iter()
                        .map(|&slot| pi_request(a.set.freq(slot), ms(40), a.level_db)),
                );
                let emissions = scene.emissions();
                assert_eq!(emissions.len(), want.len());
                for (e, req) in emissions.iter().zip(&want) {
                    let fresh = speaker.play(*req, sr).unwrap();
                    assert_eq!(bits(&e.signal), bits(&fresh), "{sr} Hz {req:?}");
                }
                // Two emissions share an array exactly when the speaker
                // shapes their requests to the same tone.
                for (e, req) in emissions.iter().zip(&want) {
                    for (f, other) in emissions.iter().zip(&want) {
                        let same = speaker.shape(*req) == speaker.shape(*other);
                        assert_eq!(Arc::ptr_eq(&e.signal, &f.signal), same, "{sr} Hz");
                    }
                }
            }
        }
    }

    #[test]
    fn sequence_numbers_advance() {
        let mut dev = device();
        let mut scene = Scene::quiet(SR);
        for i in 0..3 {
            dev.emit(&mut scene, 0, Duration::from_millis(i * 100))
                .unwrap();
        }
        assert_eq!(dev.next_seq, 3);
    }
}
