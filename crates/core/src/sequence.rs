//! Melodies: management symbols as timed tone sequences.
//!
//! The paper's title is literal — "sounds, if played in the right
//! sequence" (§4) carry management state. A [`MelodyCodec`] turns a string
//! of k-ary symbols into one Music Protocol `PlaySequence` frame (played
//! as a melody by the device's speaker) and decodes the controller's event
//! stream back into the symbol string. With a power-of-two alphabet it
//! also carries raw bytes, which puts a number on the channel's management
//!-plane throughput (the related work the paper cites measured ~20 bytes
//! per six seconds for acoustic data links; this codec lands in the same
//! regime).

use crate::controller::{device_tones, MdnEvent};
use crate::encoder::{EmitError, SoundingDevice};
use mdn_acoustics::scene::Scene;
use std::time::Duration;

/// Errors from melody encoding/decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MelodyError {
    /// A symbol exceeds the alphabet size.
    SymbolOutOfRange {
        /// The offending symbol.
        symbol: usize,
        /// The alphabet size.
        alphabet: usize,
    },
    /// Byte transport requires a power-of-two alphabet of at least 2.
    AlphabetNotPowerOfTwo(usize),
}

impl std::fmt::Display for MelodyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MelodyError::SymbolOutOfRange { symbol, alphabet } => {
                write!(f, "symbol {symbol} outside alphabet of {alphabet}")
            }
            MelodyError::AlphabetNotPowerOfTwo(n) => {
                write!(f, "byte transport needs a power-of-two alphabet, got {n}")
            }
        }
    }
}

impl std::error::Error for MelodyError {}

/// Timing and alphabet for melody transport. The alphabet is the sounding
/// device's frequency set: symbol `k` plays the set's local slot `k`.
#[derive(Debug, Clone, Copy)]
pub struct MelodyCodec {
    /// Alphabet size (must not exceed the device set's size at emit time).
    pub alphabet: usize,
    /// Per-symbol tone length. The default respects the 30 ms hardware
    /// floor with margin.
    pub tone: Duration,
    /// Silence between symbols (lets the detector separate repeats).
    pub gap: Duration,
}

impl MelodyCodec {
    /// A codec with the default timing (80 ms tone + 80 ms gap).
    pub fn new(alphabet: usize) -> Self {
        assert!(alphabet >= 2, "alphabet needs at least two symbols");
        Self {
            alphabet,
            tone: Duration::from_millis(80),
            gap: Duration::from_millis(80),
        }
    }

    /// Time taken per symbol.
    pub fn symbol_period(&self) -> Duration {
        self.tone + self.gap
    }

    /// Raw symbol rate, symbols/second.
    pub fn symbols_per_second(&self) -> f64 {
        1.0 / self.symbol_period().as_secs_f64()
    }

    /// Bits carried per symbol for byte transport (power-of-two alphabets).
    pub fn bits_per_symbol(&self) -> u32 {
        self.alphabet.ilog2()
    }

    /// Byte-transport throughput in bits/second.
    pub fn bits_per_second(&self) -> f64 {
        self.bits_per_symbol() as f64 * self.symbols_per_second()
    }

    /// Emit `symbols` as a melody from `device` starting at `start`;
    /// returns the end time.
    pub fn emit(
        &self,
        device: &mut SoundingDevice,
        scene: &mut Scene,
        symbols: &[usize],
        start: Duration,
    ) -> Result<Duration, EmitError> {
        // Symbol range is validated against the codec's alphabet first so
        // errors reference the codec, then against the device's set by
        // emit_melody.
        if let Some(&bad) = symbols.iter().find(|&&s| s >= self.alphabet) {
            return Err(EmitError::BadSlot {
                slot: bad,
                set_len: self.alphabet,
            });
        }
        device.emit_melody(scene, symbols, start, self.tone, self.gap)
    }

    /// Decode a controller event stream back into the symbol string sent
    /// by `device` (events may span several listen windows; they are
    /// collapsed and time-ordered).
    pub fn decode(&self, events: &[MdnEvent], device: &str) -> Vec<usize> {
        // Refractory shorter than the gap so repeated symbols separate,
        // longer than the detector hop so one tone stays one event.
        let refractory = self.gap.mul_f64(0.7).max(Duration::from_millis(30));
        device_tones(events, device, refractory)
            .into_iter()
            .map(|e| e.slot)
            .filter(|&slot| slot < self.alphabet)
            .collect()
    }

    /// Pack bytes into symbols (big-endian bit order). Requires a
    /// power-of-two alphabet.
    pub fn bytes_to_symbols(&self, bytes: &[u8]) -> Result<Vec<usize>, MelodyError> {
        if !self.alphabet.is_power_of_two() {
            return Err(MelodyError::AlphabetNotPowerOfTwo(self.alphabet));
        }
        let bits = self.bits_per_symbol() as usize;
        let mut symbols = Vec::with_capacity(bytes.len() * 8 / bits + 1);
        let mut acc: u32 = 0;
        let mut nbits = 0usize;
        for &b in bytes {
            acc = (acc << 8) | b as u32;
            nbits += 8;
            while nbits >= bits {
                nbits -= bits;
                symbols.push(((acc >> nbits) as usize) & (self.alphabet - 1));
            }
        }
        if nbits > 0 {
            // Pad the tail with zero bits.
            symbols.push(((acc << (bits - nbits)) as usize) & (self.alphabet - 1));
        }
        Ok(symbols)
    }

    /// Unpack symbols back into bytes (inverse of
    /// [`Self::bytes_to_symbols`]; trailing pad bits are discarded).
    pub fn symbols_to_bytes(&self, symbols: &[usize]) -> Result<Vec<u8>, MelodyError> {
        if !self.alphabet.is_power_of_two() {
            return Err(MelodyError::AlphabetNotPowerOfTwo(self.alphabet));
        }
        for &s in symbols {
            if s >= self.alphabet {
                return Err(MelodyError::SymbolOutOfRange {
                    symbol: s,
                    alphabet: self.alphabet,
                });
            }
        }
        let bits = self.bits_per_symbol() as usize;
        let mut bytes = Vec::with_capacity(symbols.len() * bits / 8);
        let mut acc: u32 = 0;
        let mut nbits = 0usize;
        for &s in symbols {
            acc = (acc << bits) | s as u32;
            nbits += bits;
            if nbits >= 8 {
                nbits -= 8;
                bytes.push((acc >> nbits) as u8);
            }
        }
        Ok(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdn_audio::signal::Window;
    use crate::controller::MdnController;
    use crate::freqplan::FrequencyPlan;
    use mdn_acoustics::medium::Pos;
    use mdn_acoustics::mic::Microphone;

    const SR: u32 = 44_100;

    fn setup(alphabet: usize) -> (Scene, SoundingDevice, MdnController, MelodyCodec) {
        // 60 Hz spacing: melody symbols repeat quickly and adjacent-slot
        // margins matter (see the relay spacing guidance).
        let mut plan = FrequencyPlan::new(600.0, 600.0 + 60.0 * (alphabet + 1) as f64, 60.0);
        let set = plan.allocate("dev", alphabet).unwrap();
        let scene = Scene::quiet(SR);
        let dev = SoundingDevice::new("dev", set.clone(), Pos::ORIGIN);
        let mut ctl = MdnController::new(Microphone::measurement(), Pos::new(0.4, 0.0, 0.0));
        ctl.bind_device("dev", set);
        (scene, dev, ctl, MelodyCodec::new(alphabet))
    }

    #[test]
    fn melody_roundtrip_over_the_air() {
        let (mut scene, mut dev, ctl, codec) = setup(8);
        let symbols = vec![3usize, 1, 4, 1, 5];
        let end = codec
            .emit(&mut dev, &mut scene, &symbols, Duration::from_millis(100))
            .unwrap();
        let events = ctl.listen(&scene, Window::from_start(end + Duration::from_millis(100)));
        assert_eq!(codec.decode(&events, "dev"), symbols);
    }

    #[test]
    fn repeated_symbols_survive_the_gap() {
        let (mut scene, mut dev, ctl, codec) = setup(4);
        let symbols = vec![2usize, 2, 2, 0, 0];
        let end = codec
            .emit(&mut dev, &mut scene, &symbols, Duration::from_millis(50))
            .unwrap();
        let events = ctl.listen(&scene, Window::from_start(end + Duration::from_millis(100)));
        assert_eq!(codec.decode(&events, "dev"), symbols);
    }

    #[test]
    fn melody_is_one_mp_frame() {
        let (mut scene, mut dev, _, codec) = setup(8);
        codec
            .emit(&mut dev, &mut scene, &[1, 2, 3], Duration::ZERO)
            .unwrap();
        assert_eq!(
            dev.mp_frames_sent, 1,
            "a melody should be one PlaySequence frame"
        );
        assert_eq!(scene.num_emissions(), 3, "…rendered as three tones");
    }

    #[test]
    fn out_of_alphabet_symbol_is_rejected() {
        let (mut scene, mut dev, _, codec) = setup(4);
        let err = codec
            .emit(&mut dev, &mut scene, &[0, 4], Duration::ZERO)
            .unwrap_err();
        assert_eq!(
            err,
            EmitError::BadSlot {
                slot: 4,
                set_len: 4
            }
        );
        assert_eq!(scene.num_emissions(), 0);
    }

    #[test]
    fn bytes_roundtrip_through_symbols() {
        for alphabet in [2usize, 4, 16] {
            let codec = MelodyCodec::new(alphabet);
            let payload = b"MDN!";
            let symbols = codec.bytes_to_symbols(payload).unwrap();
            let back = codec.symbols_to_bytes(&symbols).unwrap();
            assert_eq!(&back[..payload.len()], payload, "alphabet {alphabet}");
        }
    }

    #[test]
    fn byte_transport_over_the_air() {
        let (mut scene, mut dev, ctl, codec) = setup(16);
        let payload = b"OK";
        let symbols = codec.bytes_to_symbols(payload).unwrap();
        let end = codec
            .emit(&mut dev, &mut scene, &symbols, Duration::from_millis(50))
            .unwrap();
        let events = ctl.listen(&scene, Window::from_start(end + Duration::from_millis(100)));
        let decoded = codec.decode(&events, "dev");
        let bytes = codec.symbols_to_bytes(&decoded).unwrap();
        assert_eq!(&bytes[..payload.len()], payload);
    }

    #[test]
    fn throughput_matches_the_acoustic_regime() {
        // Related work cited by the paper: ~20 bytes per ~6 s over one
        // acoustic hop. A 16-symbol alphabet at the default timing gives
        // the same order of magnitude.
        let codec = MelodyCodec::new(16);
        let bps = codec.bits_per_second();
        assert!(
            (10.0..=100.0).contains(&bps),
            "throughput {bps} bit/s out of regime"
        );
        let secs_for_20_bytes = 20.0 * 8.0 / bps;
        assert!(
            (1.0..=16.0).contains(&secs_for_20_bytes),
            "20 bytes in {secs_for_20_bytes} s"
        );
    }

    #[test]
    fn non_power_of_two_alphabet_rejects_bytes() {
        let codec = MelodyCodec::new(6);
        assert_eq!(
            codec.bytes_to_symbols(b"x"),
            Err(MelodyError::AlphabetNotPowerOfTwo(6))
        );
    }

    #[test]
    fn decode_ignores_other_devices_and_foreign_slots() {
        let codec = MelodyCodec::new(4);
        let mk = |device: &str, slot: usize, ms: u64| MdnEvent {
            device: device.into(),
            slot,
            time: Duration::from_millis(ms),
            freq_hz: 0.0,
            magnitude: 0.1,
        };
        let events = vec![
            mk("dev", 1, 0),
            mk("other", 2, 100),
            mk("dev", 9, 200),
            mk("dev", 3, 300),
        ];
        assert_eq!(codec.decode(&events, "dev"), vec![1, 3]);
    }
}
