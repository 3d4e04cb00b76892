//! Bit-identity proofs for the acoustic kernels, through the public API,
//! so that the root package's `cargo test` runs them.
//!
//! * Batched capture ([`capture_batch`]) equals, by `to_bits`, the staged
//!   chain written out here (a scalar band limit, a resample, a from-zero
//!   `white_noise` floor mixed in, a clip) and per-stream
//!   [`Microphone::capture`]: every mic preset, at 44.1 kHz and at the
//!   mic's own rate, batches of 0–40 streams of equal and ragged lengths,
//!   one mic or several per batch, loud enough to clip, with subnormal
//!   and zero samples.
//! * [`GoertzelBank::response`] equals per-candidate [`Goertzel::run`].
//! * [`mix_scaled`] equals the scalar `*d += (s as f64 * gain) as f32`.
//!
//! Each property counts the case classes it drew and fails if one was
//! never hit, so a narrowed generator cannot pass silently.

use mdn_acoustics::mic::{capture_batch, Microphone, CAPTURE_LANES};
use mdn_audio::goertzel::{Goertzel, GoertzelBank, GoertzelState};
use mdn_audio::noise::white_noise;
use mdn_audio::resample::resample;
use mdn_audio::signal::{mix_scaled, spl_to_amplitude};
use mdn_audio::Signal;
use mdn_obs::SplitMix64;
use std::collections::BTreeSet;

/// The largest subnormal `f32`.
const SUBNORMAL: f32 = f32::from_bits(0x007f_ffff);

fn presets() -> [Microphone; 3] {
    [
        Microphone::cheap(),
        Microphone::measurement(),
        Microphone::ultrasound(),
    ]
}

/// The band limit a capture applies, as one scalar pass: cascaded
/// one-pole high/low-pass filters at the mic's band edges.
fn band_limited(mic: &Microphone, pressure: &Signal) -> Signal {
    let sr = pressure.sample_rate() as f64;
    let dt = 1.0 / sr;
    let alpha = |fc: f64| {
        let rc = 1.0 / (2.0 * std::f64::consts::PI * fc);
        dt / (rc + dt)
    };
    let a_lo = alpha(mic.band.0.max(1.0));
    let a_hi = alpha(mic.band.1.min(sr / 2.0 - 1.0));
    let (mut lp, mut out) = (0.0f64, 0.0f64);
    let samples = pressure
        .samples()
        .iter()
        .map(|&x| {
            lp += a_lo * (x as f64 - lp);
            let hp = x as f64 - lp;
            out += a_hi * (hp - out);
            out as f32
        })
        .collect();
    Signal::from_samples(samples, pressure.sample_rate())
}

/// The staged capture chain: band limit, resample to the ADC rate, a
/// from-zero `white_noise` floor of the result's duration, clip.
fn staged_capture(mic: &Microphone, pressure: &Signal) -> Signal {
    let mut sig = band_limited(mic, pressure);
    if sig.sample_rate() != mic.sample_rate {
        sig = resample(&sig, mic.sample_rate);
    }
    if !sig.is_empty() {
        let floor = white_noise(
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

/// A sample from `rng`: zero, a subnormal, or a value up to `loud` in
/// magnitude.
fn sample(rng: &mut SplitMix64, loud: f64) -> f32 {
    match rng.below(16) {
        0 => 0.0,
        1 => SUBNORMAL,
        2 => -SUBNORMAL,
        _ => ((rng.f64() * 2.0 - 1.0) * loud) as f32,
    }
}

/// A slice length below `max`: empty, short (under two tiles) or any.
fn length(rng: &mut SplitMix64, max: u64) -> usize {
    (match rng.below(8) {
        0 => 0,
        1 => rng.range(1, 32),
        _ => rng.range(0, max),
    }) as usize
}

#[test]
fn batched_capture_equals_the_staged_chain_and_lone_captures_bit_for_bit() {
    let presets = presets();
    let mut rng = SplitMix64::new(0x0CA9_70E5);
    let mut hit = BTreeSet::new();
    for case in 0..160 {
        let count = match case % 8 {
            0 => 0,
            1 => 1,
            2 => CAPTURE_LANES,
            3 => 2 * CAPTURE_LANES + 1,
            _ => rng.range(0, 41) as usize,
        };
        let mixed_mics = case % 5 == 4;
        let equal_len = rng.below(2) == 0;
        let shared_len = length(&mut rng, 1200);
        // Loud enough that the clip engages on most samples, or quiet.
        let loud = if rng.below(3) == 0 { 0.05 } else { 4.0 };
        let base = rng.below(3) as usize;
        let mut mics = Vec::new();
        let mut pressures = Vec::new();
        for _ in 0..count {
            let mic = &presets[if mixed_mics {
                rng.below(3) as usize
            } else {
                base
            }];
            let rate = if rng.below(2) == 0 {
                44_100
            } else {
                mic.sample_rate
            };
            let len = if equal_len {
                shared_len
            } else {
                length(&mut rng, 1200)
            };
            let samples = (0..len).map(|_| sample(&mut rng, loud)).collect();
            mics.push(mic);
            pressures.push(Signal::from_samples(samples, rate));
        }

        let mut captured = pressures.clone();
        let mut streams: Vec<(&Microphone, &mut Signal)> =
            mics.iter().copied().zip(captured.iter_mut()).collect();
        capture_batch(&mut streams);

        for (k, ((mic, pressure), got)) in mics.iter().zip(&pressures).zip(&captured).enumerate() {
            let what = format!(
                "case {case}, stream {k} of {count}: {} at {} Hz, {} samples",
                mic.name,
                pressure.sample_rate(),
                pressure.len()
            );
            let want = staged_capture(mic, pressure);
            assert_same_bits(got, &want, &format!("{what} vs the staged chain"));
            assert_same_bits(got, &mic.capture(pressure), &format!("{what} vs alone"));
            if pressure.sample_rate() != mic.sample_rate {
                hit.insert("the resample path");
            } else {
                hit.insert("the ADC-rate path");
            }
            if want.samples().iter().any(|s| s.abs() == 1.0) {
                hit.insert("a clip");
            }
            if pressure.samples().iter().any(|s| s.is_subnormal()) {
                hit.insert("a subnormal sample");
            }
            if pressure.is_empty() {
                hit.insert("an empty stream");
            }
        }
        let lens: BTreeSet<usize> = pressures.iter().map(Signal::len).collect();
        hit.insert(match count {
            0 => "an empty batch",
            1 => "a single stream",
            n if n % CAPTURE_LANES == 0 => "whole passes",
            n if n > CAPTURE_LANES => "a partial group after a whole pass",
            _ => "a partial group alone",
        });
        if lens.len() > 1 {
            hit.insert("mixed lengths");
        } else if count > 1 {
            hit.insert("equal lengths");
        }
        let rates: BTreeSet<(&str, u32)> = mics
            .iter()
            .zip(&pressures)
            .map(|(m, p)| (m.name, p.sample_rate()))
            .collect();
        if rates.len() > 1 {
            hit.insert("several keys in one batch");
        }
    }
    let want = [
        "the resample path",
        "the ADC-rate path",
        "a clip",
        "a subnormal sample",
        "an empty stream",
        "an empty batch",
        "a single stream",
        "whole passes",
        "a partial group after a whole pass",
        "a partial group alone",
        "mixed lengths",
        "equal lengths",
        "several keys in one batch",
    ];
    let missed: Vec<&str> = want.into_iter().filter(|c| !hit.contains(c)).collect();
    assert!(missed.is_empty(), "case classes never hit: {missed:?}");
}

#[test]
fn goertzel_bank_response_equals_per_candidate_run_bit_for_bit() {
    let mut rng = SplitMix64::new(0xB44C);
    let mut hit = BTreeSet::new();
    let mut state = GoertzelState::default();
    for case in 0..120 {
        let sr = [16_000, 44_100, 96_000][case % 3];
        let count = rng.range(1, 101) as usize;
        let freqs: Vec<f64> = (0..count)
            .map(|_| 1.0 + rng.f64() * (sr as f64 / 2.0 - 2.0))
            .collect();
        let len = length(&mut rng, 300);
        let samples: Vec<f32> = (0..len).map(|_| sample(&mut rng, 1.0)).collect();
        let bank = GoertzelBank::new(&freqs, sr);
        let got = bank.response(&samples, &mut state);
        assert_eq!(got.len(), count, "case {case}: one response per candidate");
        for (k, (&f, &(re, im))) in freqs.iter().zip(got).enumerate() {
            let (want_re, want_im) = Goertzel::new(f, sr).run(&samples);
            assert_eq!(
                (re.to_bits(), im.to_bits()),
                (want_re.to_bits(), want_im.to_bits()),
                "case {case}: candidate {k} of {count}, {len} samples"
            );
        }
        hit.insert(if count < 16 {
            "a bank narrower than a portable block"
        } else {
            "a bank of whole and partial blocks"
        });
        hit.insert(if len == 0 {
            "an empty slice"
        } else {
            "samples"
        });
        if samples.iter().any(|s| s.is_subnormal()) {
            hit.insert("a subnormal sample");
        }
    }
    let want = [
        "a bank narrower than a portable block",
        "a bank of whole and partial blocks",
        "an empty slice",
        "samples",
        "a subnormal sample",
    ];
    let missed: Vec<&str> = want.into_iter().filter(|c| !hit.contains(c)).collect();
    assert!(missed.is_empty(), "case classes never hit: {missed:?}");
}

#[test]
fn mix_scaled_equals_the_scalar_mix_bit_for_bit() {
    let mut rng = SplitMix64::new(0x313C);
    let mut hit = BTreeSet::new();
    for case in 0..200 {
        let gain = match case % 6 {
            0 => 0.0,
            1 => -0.0,
            2 => 1e-300,
            3 => -1e-300,
            4 => -(rng.f64() * 4.0 + 1e-3),
            _ => rng.f64() * 4.0 + 1e-3,
        };
        let len = length(&mut rng, 200);
        let dst: Vec<f32> = (0..len).map(|_| sample(&mut rng, 1.0)).collect();
        let src: Vec<f32> = (0..len).map(|_| sample(&mut rng, 1.0)).collect();
        let mut want = dst.clone();
        for (d, &s) in want.iter_mut().zip(&src) {
            *d += (s as f64 * gain) as f32;
        }
        let mut got = dst;
        mix_scaled(&mut got, &src, gain);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&got),
            bits(&want),
            "case {case}: gain {gain:e}, {len} samples"
        );
        hit.insert(match len {
            0 => "an empty slice",
            n if n % 16 == 0 => "whole vectors",
            _ => "a partial vector",
        });
        if src.iter().any(|s| s.is_subnormal()) {
            hit.insert("a subnormal sample");
        }
    }
    let want = [
        "an empty slice",
        "whole vectors",
        "a partial vector",
        "a subnormal sample",
    ];
    let missed: Vec<&str> = want.into_iter().filter(|c| !hit.contains(c)).collect();
    assert!(missed.is_empty(), "case classes never hit: {missed:?}");
}
