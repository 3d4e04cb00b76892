//! Microphone model.
//!
//! The paper tests "different types of microphones (from very cheap to
//! fairly expensive)". A microphone here is an ADC front-end: it resamples
//! the pressure signal at the listener position to its own capture rate,
//! adds its self-noise floor, applies a response band, and clips at full
//! scale.
//!
//! A capture's self-noise is samples `[0, len)` of the mic's seeded white
//! stream, so every capture of a given length adds the same floor. The
//! stream is kept as one process-wide memoized prefix per noise
//! configuration, and a capture adds its first `len` samples instead of
//! synthesising them again.
//!
//! Captures run in batches ([`capture_batch`]): independent streams'
//! band limits advance side by side as the lanes of one pass, with the
//! bits of lone captures. [`Microphone::capture`] is a batch of one.

use mdn_audio::noise::white_noise_at;
use mdn_audio::resample::resample;
use mdn_audio::signal::spl_to_amplitude;
use mdn_audio::Signal;
use std::sync::{Arc, Mutex, PoisonError};

/// A microphone/ADC model.
#[derive(Debug, Clone)]
pub struct Microphone {
    /// Human-readable name.
    pub name: &'static str,
    /// Capture sample rate in Hz.
    pub sample_rate: u32,
    /// Self-noise floor in dB SPL (electronics hiss added to every capture).
    pub noise_floor_spl: f64,
    /// Usable response band `(lo_hz, hi_hz)`; energy outside is attenuated
    /// by simple one-pole filters.
    pub band: (f64, f64),
    /// Seed for the self-noise generator (captures are deterministic).
    pub noise_seed: u64,
}

impl Microphone {
    /// A very cheap electret capsule: 16 kHz capture, 35 dB SPL self-noise,
    /// narrow band.
    pub fn cheap() -> Self {
        Self {
            name: "cheap-electret",
            sample_rate: 16_000,
            noise_floor_spl: 35.0,
            band: (150.0, 7_000.0),
            noise_seed: 0x31C,
        }
    }

    /// A decent USB measurement mic: 44.1 kHz, 18 dB SPL self-noise.
    pub fn measurement() -> Self {
        Self {
            name: "measurement",
            sample_rate: 44_100,
            noise_floor_spl: 18.0,
            band: (40.0, 20_000.0),
            noise_seed: 0xA11CE,
        }
    }

    /// An ultrasound-capable instrumentation mic (96 kHz capture) for the
    /// §8 extension.
    pub fn ultrasound() -> Self {
        Self {
            name: "ultrasound",
            sample_rate: 96_000,
            noise_floor_spl: 22.0,
            band: (40.0, 45_000.0),
            noise_seed: 0xBA7,
        }
    }

    /// Capture a pressure signal: band-limit, resample to the ADC rate, add
    /// the self-noise floor, clip at full scale. This is the one-stream
    /// case of [`capture_batch`], so every capture runs the same code.
    pub fn capture(&self, pressure: &Signal) -> Signal {
        let mut sig = pressure.clone();
        capture_batch(&mut [(self, &mut sig)]);
        sig
    }

    /// What a capture of a `sample_rate` pressure signal depends on
    /// besides its samples: streams with equal keys can share a pass.
    fn lane_key(&self, sample_rate: u32) -> LaneKey {
        let sr = sample_rate as f64;
        let dt = 1.0 / sr;
        let alpha = |fc: f64| {
            let rc = 1.0 / (2.0 * std::f64::consts::PI * fc);
            dt / (rc + dt)
        };
        let (lo_hz, hi_hz) = self.band;
        let a_lo = alpha(lo_hz.max(1.0));
        let a_hi = alpha(hi_hz.min(sr / 2.0 - 1.0));
        LaneKey {
            sample_rate,
            a_lo: a_lo.to_bits(),
            a_hi: a_hi.to_bits(),
            noise: self.noise_key(),
        }
    }

    /// This mic's self-noise stream's identity, read from its fields.
    fn noise_key(&self) -> NoiseKey {
        let rms = spl_to_amplitude(self.noise_floor_spl);
        (self.noise_seed, rms.to_bits(), self.sample_rate)
    }
}

/// Noise configurations the floor memo keeps before it drops the oldest.
const NOISE_FLOOR_KEYS: usize = 8;

/// A self-noise stream's identity: `(noise_seed, rms bits, sample_rate)`,
/// every input of a sample of the stream besides its index. The mic's
/// fields are public, so the key is read at each capture.
type NoiseKey = (u64, u64, u32);

/// Memoized prefixes of microphone self-noise streams, one per
/// [`NoiseKey`]. A prefix grows by doubling, so a run's
/// captures synthesise each noise sample at most twice. Sample `i` of
/// `white_noise_at(0, n, …)` does not depend on `n`, so the first `len`
/// samples of any prefix are byte-identical to a `len`-sample
/// `white_noise`. It is shared process-wide because a hall's cells all
/// use the same mic model and capture from the sharded listen's scoped
/// workers; a miss holds the lock while it synthesises.
static NOISE_FLOORS: Mutex<Vec<(NoiseKey, Arc<[f32]>)>> = Mutex::new(Vec::new());

/// At least the first `len` samples of the self-noise stream `key`, from
/// the process-wide memo.
fn noise_floor(key: NoiseKey, len: usize) -> Arc<[f32]> {
    let (seed, rms, sample_rate) = key;
    // Every update below swaps in a whole entry or prefix, so the memo
    // stays valid even if a holder panicked: recover a poisoned lock.
    let mut memo = NOISE_FLOORS.lock().unwrap_or_else(PoisonError::into_inner);
    let at = match memo.iter().position(|(k, _)| *k == key) {
        Some(at) => at,
        None => {
            if memo.len() == NOISE_FLOOR_KEYS {
                memo.remove(0);
            }
            memo.push((key, Arc::from([])));
            memo.len() - 1
        }
    };
    let prefix = &mut memo[at].1;
    if prefix.len() < len {
        let grown = len.max(2 * prefix.len());
        let noise = white_noise_at(0, grown, f64::from_bits(rms), sample_rate, seed);
        *prefix = noise.samples().into();
    }
    Arc::clone(prefix)
}

/// Capture every stream in place: `streams[i].1`, a pressure signal,
/// becomes its capture through `streams[i].0`, bit for bit
/// [`Microphone::capture`] of it.
///
/// Each capture band-limits its pressure with two one-pole recurrences
/// per sample, whose latency, not their arithmetic, sets its speed. The
/// batch therefore runs independent streams side by side, one lane each,
/// up to [`CAPTURE_LANES`] per pass: streams share a pass when they share
/// their input rate, band-limit coefficients and noise floor. Every lane
/// performs a lone capture's operations in its order, so the bits do not
/// depend on which streams share a pass, or on the batch at all. At the
/// ADC rate the floor and the clip are applied as each sample leaves the
/// pass; a resampling mic band-limits in the pass, then resamples and
/// adds the floor. Either way each sample is
/// `(band_limited as f32 + floor).clamp(-1, 1)`, the arithmetic of mixing
/// a from-zero `white_noise` floor and clipping.
pub fn capture_batch(streams: &mut [(&Microphone, &mut Signal)]) {
    let mut lanes: Vec<(LaneKey, &mut Signal)> = streams
        .iter_mut()
        .map(|(mic, sig)| (mic.lane_key(sig.sample_rate()), &mut **sig))
        .collect();
    // Equal keys side by side, longest first, so a pass's lanes end
    // close together.
    lanes.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.len().cmp(&a.1.len())));
    for same in lanes.chunk_by_mut(|a, b| a.0 == b.0) {
        let key = same[0].0;
        let coeffs = (f64::from_bits(key.a_lo), f64::from_bits(key.a_hi));
        let resamples = key.sample_rate != key.noise.2;
        let floor = (!resamples).then(|| noise_floor(key.noise, same[0].1.len()));
        for pass in same.chunks_mut(CAPTURE_LANES) {
            let width = pass.len();
            let mut bufs: [&mut [f32]; CAPTURE_LANES] = Default::default();
            for (buf, (_, sig)) in bufs.iter_mut().zip(pass) {
                *buf = sig.samples_mut();
            }
            let (bufs, floor) = (&mut bufs[..width], floor.as_deref());
            match width {
                5.. => band_limit_pass::<CAPTURE_LANES, TILE>(coeffs, bufs, floor),
                2..=4 => band_limit_pass::<4, TILE>(coeffs, bufs, floor),
                _ => band_limit_pass::<1, 1>(coeffs, bufs, floor),
            }
        }
        if resamples {
            for (_, sig) in same.iter_mut() {
                **sig = resample(sig, key.noise.2);
                let floor = noise_floor(key.noise, sig.len());
                for (s, &n) in sig.samples_mut().iter_mut().zip(floor.iter()) {
                    *s = add_floor(*s, n);
                }
            }
        }
    }
}

/// Streams one band-limit pass carries: enough independent recurrences
/// to hide the latency of one sample's subtract, multiply and add.
pub const CAPTURE_LANES: usize = 8;

/// Samples per lane a pass of several lanes moves between the streams
/// and its registers at a time.
const TILE: usize = 64;

/// Everything a capture depends on besides its pressure samples: the
/// input rate, the band limit's one-pole coefficients (as bits) and the
/// noise floor. Streams with equal keys share a pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct LaneKey {
    sample_rate: u32,
    a_lo: u64,
    a_hi: u64,
    noise: NoiseKey,
}

/// Band-limit up to `K` streams in place, one lane each, with cascaded
/// one-pole high/low-pass filters of coefficients `(a_lo, a_hi)`; with a
/// `floor`, add it and clip each sample as it is written back. Lanes run
/// to the longest stream; a shorter stream's lane writes nothing past its
/// end.
///
/// This is the workspace's one band limit. Each lane performs exactly a
/// lone stream's operations in its order: `lp += a_lo * (x - lp)`,
/// `hp = x - lp`, `out += a_hi * (hp - out)`, `y = out as f32`. The
/// samples are transposed through `T × K` tiles on the stack, so the
/// inner loop advances all `K` recurrences in step in vector registers.
/// A lone stream takes `T = 1`: its tile's samples would be stored one
/// by one and loaded back as a vector, which stalls store forwarding.
fn band_limit_pass<const K: usize, const T: usize>(
    (a_lo, a_hi): (f64, f64),
    lanes: &mut [&mut [f32]],
    floor: Option<&[f32]>,
) {
    debug_assert!(lanes.len() <= K);
    let len = lanes.iter().map(|l| l.len()).max().unwrap_or(0);
    let mut lp = [0.0f64; K];
    let mut out = [0.0f64; K];
    // A lane past its stream's end keeps whatever the last tile left:
    // its outputs are never written back.
    let mut x = [[0.0f32; K]; T];
    let mut y = [[0.0f32; K]; T];
    for t0 in (0..len).step_by(T) {
        for (l, lane) in lanes.iter().enumerate() {
            let src = lane.get(t0..).unwrap_or_default();
            for (xi, &s) in x.iter_mut().zip(src) {
                xi[l] = s;
            }
        }
        for (xi, yi) in x.iter().zip(&mut y) {
            for l in 0..K {
                let x = xi[l] as f64;
                lp[l] += a_lo * (x - lp[l]);
                let hp = x - lp[l];
                out[l] += a_hi * (hp - out[l]);
                yi[l] = out[l] as f32;
            }
        }
        for (l, lane) in lanes.iter_mut().enumerate() {
            let dst = lane.get_mut(t0..).unwrap_or_default();
            match floor {
                Some(floor) => {
                    for ((d, yi), &n) in dst.iter_mut().zip(&y).zip(&floor[t0..]) {
                        *d = add_floor(yi[l], n);
                    }
                }
                None => {
                    for (d, yi) in dst.iter_mut().zip(&y) {
                        *d = yi[l];
                    }
                }
            }
        }
    }
}

/// One captured sample: the band-limited pressure plus the mic floor,
/// clipped at full scale.
#[inline]
fn add_floor(y: f32, noise: f32) -> f32 {
    (y + noise).clamp(-1.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdn_audio::spectral::Spectrum;
    use mdn_audio::synth::Tone;
    use std::time::Duration;

    const SR: u32 = 44_100;

    fn tone(freq: f64, ms: u64, spl: f64) -> Signal {
        Tone::new(freq, Duration::from_millis(ms), spl_to_amplitude(spl)).render(SR)
    }

    #[test]
    fn capture_resamples_to_adc_rate() {
        let mic = Microphone::cheap();
        let cap = mic.capture(&tone(1000.0, 100, 60.0));
        assert_eq!(cap.sample_rate(), 16_000);
        assert!((cap.duration().as_secs_f64() - 0.1).abs() < 0.01);
    }

    #[test]
    fn in_band_tone_survives_capture() {
        let mic = Microphone::measurement();
        let cap = mic.capture(&tone(1000.0, 200, 60.0));
        let spec = Spectrum::of(&cap);
        let peaks = spec.peaks(spl_to_amplitude(50.0), 50.0);
        assert!(!peaks.is_empty(), "tone lost in capture");
        assert!((peaks[0].freq_hz - 1000.0).abs() < 10.0);
    }

    #[test]
    fn out_of_band_tone_attenuated_by_cheap_mic() {
        let mic = Microphone::cheap();
        // 20 Hz is far below the cheap mic's 150 Hz corner. Compare the
        // captured tone energy at its own frequency against in-band.
        let low = mic.capture(&tone(20.0, 500, 70.0));
        let mid = mic.capture(&tone(1000.0, 500, 70.0));
        let low_mag = Spectrum::of(&low).magnitude_at(20.0);
        let mid_mag = Spectrum::of(&mid).magnitude_at(1000.0);
        assert!(mid_mag > 5.0 * low_mag, "mid {mid_mag} low {low_mag}");
    }

    #[test]
    fn noise_floor_present_in_silence() {
        let mic = Microphone::measurement();
        let cap = mic.capture(&Signal::silence(Duration::from_millis(500), SR));
        let spl = cap.rms_spl();
        // Should land near the configured floor (within the band-limit loss).
        assert!(spl > 5.0 && spl < 25.0, "floor captured at {spl} dB SPL");
    }

    #[test]
    fn capture_is_deterministic() {
        let mic = Microphone::measurement();
        let sig = tone(700.0, 100, 60.0);
        assert_eq!(mic.capture(&sig).samples(), mic.capture(&sig).samples());
    }

    #[test]
    fn loud_input_is_clipped() {
        let mic = Microphone::measurement();
        let loud = tone(1000.0, 100, 130.0); // 30 dB over full scale
        let cap = mic.capture(&loud);
        assert!(cap.peak() <= 1.0);
    }

    #[test]
    fn empty_input_empty_output() {
        let mic = Microphone::cheap();
        assert!(mic.capture(&Signal::empty(SR)).is_empty());
    }

    /// The staged capture chain the memoized, fused one replaces: a
    /// band-limited signal, a resample, a from-zero `white_noise` floor of
    /// the signal's duration mixed in, then a clip.
    fn staged_capture(mic: &Microphone, pressure: &Signal) -> Signal {
        let mut sig = pressure.clone();
        let key = mic.lane_key(sig.sample_rate());
        let coeffs = (f64::from_bits(key.a_lo), f64::from_bits(key.a_hi));
        band_limit_pass::<1, 1>(coeffs, &mut [sig.samples_mut()], None);
        if sig.sample_rate() != mic.sample_rate {
            sig = resample(&sig, mic.sample_rate);
        }
        if !sig.is_empty() {
            let floor = mdn_audio::noise::white_noise(
                sig.duration(),
                spl_to_amplitude(mic.noise_floor_spl),
                mic.sample_rate,
                mic.noise_seed,
            );
            sig.mix_at(&floor, 0);
        }
        sig.clip();
        sig
    }

    fn assert_same_bits(got: &Signal, want: &Signal, what: &str) {
        assert_eq!(got.sample_rate(), want.sample_rate(), "{what}: rate");
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.samples().iter().zip(want.samples()).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: sample {i}");
        }
    }

    /// `n` samples of loud broadband pressure at `sr`, loud enough that
    /// the clip engages on some of them.
    fn pressure(n: usize, sr: u32, seed: u64) -> Signal {
        mdn_audio::noise::white_noise_at(0, n, 0.7, sr, seed)
    }

    /// Capture lengths that grow the memo, hit it, and grow it again.
    fn lengths() -> Vec<usize> {
        let mut ns: Vec<usize> = (0..=40).collect();
        ns.extend([
            100, 441, 1102, 2205, 4410, 4409, 3, 0, 4411, 7000, 6999, 8820, 1,
        ]);
        ns
    }

    #[test]
    fn memoized_capture_matches_the_staged_chain_bit_for_bit() {
        for (k, base) in [
            Microphone::cheap(),
            Microphone::measurement(),
            Microphone::ultrasound(),
        ]
        .into_iter()
        .enumerate()
        {
            // A seed no other test uses, so the memo entry starts empty
            // and the length sweep grows it from zero.
            let mic = Microphone {
                noise_seed: 0x5EED_0000 + k as u64,
                ..base.clone()
            };
            for rate in [SR, mic.sample_rate] {
                for n in lengths() {
                    let p = pressure(n, rate, n as u64);
                    let what = format!("{} at {rate} Hz, {n} samples", mic.name);
                    assert_same_bits(&mic.capture(&p), &staged_capture(&mic, &p), &what);
                    assert_same_bits(&base.capture(&p), &staged_capture(&base, &p), &what);
                }
            }
        }
    }

    #[test]
    fn memo_follows_noise_fields_changed_between_captures() {
        let mut mic = Microphone::measurement();
        let p = pressure(3000, SR, 9);
        let first = mic.capture(&p);
        mic.noise_seed ^= 0xFFFF;
        let reseeded = mic.capture(&p);
        assert_same_bits(&reseeded, &staged_capture(&mic, &p), "new seed");
        assert_ne!(
            first.samples(),
            reseeded.samples(),
            "seed must move the floor"
        );
        mic.noise_floor_spl += 6.0;
        let louder = mic.capture(&p);
        assert_same_bits(&louder, &staged_capture(&mic, &p), "new floor level");
        assert_ne!(reseeded.samples(), louder.samples());
        mic.sample_rate = 22_050;
        assert_same_bits(&mic.capture(&p), &staged_capture(&mic, &p), "new rate");
    }

    #[test]
    fn memoized_capture_is_exact_from_scoped_workers() {
        let mics = [
            Microphone::cheap(),
            Microphone::measurement(),
            Microphone::ultrasound(),
        ];
        // All four workers start together, so their first captures race
        // for the memo, growing entries the others read.
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for w in 0..4usize {
                let (mics, start) = (&mics, &start);
                s.spawn(move || {
                    start.wait();
                    for (i, n) in lengths().into_iter().enumerate().skip(w) {
                        let mic = &mics[(i + w) % mics.len()];
                        let p = pressure(n * 3, SR, (w * 1000 + i) as u64);
                        let what = format!("worker {w}: {} {} samples", mic.name, n * 3);
                        assert_same_bits(&mic.capture(&p), &staged_capture(mic, &p), &what);
                    }
                });
            }
        });
    }

    #[test]
    fn duration_round_trip_is_exact_up_to_ten_seconds() {
        // The staged chain sized its floor from the capture's duration;
        // the memo adds exactly `len` samples. The two agree because the
        // sample count survives the round trip through a `Duration`.
        use mdn_audio::signal::{duration_to_samples, samples_to_duration};
        for mic in [
            Microphone::cheap(),
            Microphone::measurement(),
            Microphone::ultrasound(),
        ] {
            let sr = mic.sample_rate;
            for n in 0..=10 * sr as usize {
                assert_eq!(
                    duration_to_samples(samples_to_duration(n, sr), sr),
                    n,
                    "{n} samples at {sr} Hz"
                );
            }
            for n in [0, 1, 4410, sr as usize] {
                let sig = Signal::from_samples(vec![0.0; n], sr);
                assert_eq!(sig.duration(), samples_to_duration(n, sr));
            }
        }
    }
}
