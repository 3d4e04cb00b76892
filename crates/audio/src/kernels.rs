//! Wide-vector kernels for the two acoustic hot loops: the Goertzel bank's
//! block recurrence ([`crate::goertzel::GoertzelBank::response`]) and the
//! scaled mix ([`crate::signal::mix_scaled`]).
//!
//! Each kernel is one `#[inline(always)]` body, compiled once per
//! instruction set through a thin `#[target_feature]` wrapper. Which
//! wrapper runs is decided once per process, at run time: AVX-512F, then
//! AVX2, else the portable build (SSE2 on x86-64, and the only path on
//! other targets). Only the number of lanes one instruction carries
//! differs between the paths, never the bits: Rust never contracts
//! `a * b + c` into a fused multiply-add and never reorders float
//! operations, so every lane of every path performs the same IEEE 754
//! operations, in the same order, as the scalar code. That is also why
//! nothing here enables `fma` or calls `mul_add`.
//!
//! This is the crate's only `unsafe` code. Calling a `#[target_feature]`
//! function is `unsafe` where the feature is not enabled at compile time;
//! each such call is sound because a [`Kernels`] value for an instruction
//! set exists only after the runtime check found that set on the host.

#![allow(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]

use std::sync::OnceLock;

/// An instruction set the kernels are compiled for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Isa {
    /// The build's baseline: SSE2 on x86-64.
    Portable,
    /// 256-bit vectors, four `f64` lanes each.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// 512-bit vectors, eight `f64` lanes each.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Isa {
    /// Every path this target compiles, narrowest first.
    pub(crate) const ALL: &'static [Isa] = &[
        Isa::Portable,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512,
    ];

    /// Whether the host can run this path.
    fn supported(self) -> bool {
        match self {
            Isa::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => is_x86_feature_detected!("avx512f"),
        }
    }

    /// Candidates per block of the bank: enough independent recurrences
    /// to hide the latency of one sample's multiply, add and subtract.
    /// A block of 16 is latency-bound on the wider vectors.
    pub(crate) const fn block(self) -> usize {
        match self {
            Isa::Portable => 16,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => 24,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => 48,
        }
    }

    /// The bank's lanes are computed in whole multiples of this: one
    /// vector on the wide paths, so a bank narrower than its block is
    /// padded by less than one vector; one block on the portable path.
    pub(crate) const fn granule(self) -> usize {
        match self {
            Isa::Portable => 16,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => 4,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => 8,
        }
    }
}

/// The bank's per-candidate constants are zero-padded to a multiple of
/// this many lanes, which every path's granule divides.
pub(crate) const BANK_PAD: usize = 16;

const _: () = {
    let mut i = 0;
    while i < Isa::ALL.len() {
        assert!(BANK_PAD.is_multiple_of(Isa::ALL[i].granule()));
        i += 1;
    }
};

/// The kernels of one instruction set the host supports.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Kernels(Isa);

impl Kernels {
    /// The widest path the host supports, detected on first use.
    pub(crate) fn detected() -> Self {
        static DETECTED: OnceLock<Isa> = OnceLock::new();
        Kernels(*DETECTED.get_or_init(|| {
            let widest = Isa::ALL.iter().rev().find(|isa| isa.supported());
            *widest.unwrap_or(&Isa::Portable)
        }))
    }

    /// The kernels of `isa`, if the host supports it.
    #[cfg(test)]
    pub(crate) fn of(isa: Isa) -> Option<Self> {
        isa.supported().then_some(Kernels(isa))
    }

    /// Overwrite `out[l]` with the unnormalized complex Goertzel response
    /// over `samples` of every lane `l` below `len` rounded up to this
    /// path's granule, from the lane constants `bank`. Lanes past `len`
    /// are padding.
    ///
    /// # Panics
    /// Panics if `out` or the constants are shorter than the rounded
    /// lane count.
    pub(crate) fn goertzel(
        self,
        len: usize,
        bank: BankLanes<'_>,
        samples: &[f32],
        out: &mut [(f64, f64)],
    ) {
        let lanes = len.next_multiple_of(self.0.granule());
        let bank = BankLanes {
            coeff: &bank.coeff[..lanes],
            cos_w: &bank.cos_w[..lanes],
            sin_w: &bank.sin_w[..lanes],
        };
        let out = &mut out[..lanes];
        match self.0 {
            Isa::Portable => goertzel_portable(bank, samples, out),
            // SAFETY: `Kernels(Isa::Avx2)` is built only where
            // `is_x86_feature_detected!("avx2")` held.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => unsafe { goertzel_avx2(bank, samples, out) },
            // SAFETY: `Kernels(Isa::Avx512)` is built only where
            // `is_x86_feature_detected!("avx512f")` held.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => unsafe { goertzel_avx512(bank, samples, out) },
        }
    }

    /// `dst[i] += (src[i] as f64 * gain) as f32` for every `i`.
    ///
    /// # Panics
    /// Panics if the slices' lengths differ.
    pub(crate) fn mix_scaled(self, dst: &mut [f32], src: &[f32], gain: f64) {
        assert_eq!(dst.len(), src.len(), "mix_scaled: slice lengths differ");
        match self.0 {
            Isa::Portable => mix_scaled_body(dst, src, gain),
            // SAFETY: `Kernels(Isa::Avx2)` is built only where
            // `is_x86_feature_detected!("avx2")` held.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => unsafe { mix_scaled_avx2(dst, src, gain) },
            // SAFETY: `Kernels(Isa::Avx512)` is built only where
            // `is_x86_feature_detected!("avx512f")` held.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => unsafe { mix_scaled_avx512(dst, src, gain) },
        }
    }
}

/// Per-lane Goertzel constants, one entry per lane.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BankLanes<'a> {
    /// `2 cos ω` per lane.
    pub(crate) coeff: &'a [f64],
    /// `cos ω` per lane.
    pub(crate) cos_w: &'a [f64],
    /// `sin ω` per lane.
    pub(crate) sin_w: &'a [f64],
}

/// Run the bank over `out.len()` lanes in blocks of `isa`'s width, then
/// in at most one block of each narrower width: listing every multiple of
/// the granule below the block covers any whole number of granules.
macro_rules! bank_in_blocks {
    ($isa:expr; $bank:expr, $samples:expr, $out:expr; $block:literal $(, $width:literal)*) => {{
        debug_assert_eq!($block, $isa.block());
        let at = blocks::<$block>($bank, $samples, $out, 0);
        $(let at = blocks::<$width>($bank, $samples, $out, at);)*
        debug_assert_eq!(at, $out.len());
    }};
}

fn goertzel_portable(bank: BankLanes<'_>, samples: &[f32], out: &mut [(f64, f64)]) {
    bank_in_blocks!(Isa::Portable; bank, samples, out; 16);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn goertzel_avx2(bank: BankLanes<'_>, samples: &[f32], out: &mut [(f64, f64)]) {
    bank_in_blocks!(Isa::Avx2; bank, samples, out; 24, 20, 16, 12, 8, 4);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn goertzel_avx512(bank: BankLanes<'_>, samples: &[f32], out: &mut [(f64, f64)]) {
    bank_in_blocks!(Isa::Avx512; bank, samples, out; 48, 40, 32, 24, 16, 8);
}

/// Run blocks of `W` lanes from lane `at` while a whole block fits in
/// `out`; returns the first lane left.
#[inline(always)]
fn blocks<const W: usize>(
    bank: BankLanes<'_>,
    samples: &[f32],
    out: &mut [(f64, f64)],
    mut at: usize,
) -> usize {
    while at + W <= out.len() {
        let lane = |v: &[f64]| -> [f64; W] { v[at..at + W].try_into().expect("W lanes") };
        let (coeff, cos_w, sin_w) = (lane(bank.coeff), lane(bank.cos_w), lane(bank.sin_w));
        let mut s1 = [0.0f64; W];
        let mut s2 = [0.0f64; W];
        // One traversal of the slice per block; the block's recurrences
        // advance in lockstep in registers, exactly `Goertzel::run`'s
        // `x + coeff * s1 - s2` per lane.
        for &x in samples {
            let x = x as f64;
            for l in 0..W {
                let s = x + coeff[l] * s1[l] - s2[l];
                s2[l] = s1[l];
                s1[l] = s;
            }
        }
        for (l, o) in out[at..at + W].iter_mut().enumerate() {
            *o = (s1[l] * cos_w[l] - s2[l], s1[l] * sin_w[l]);
        }
        at += W;
    }
    at
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn mix_scaled_avx2(dst: &mut [f32], src: &[f32], gain: f64) {
    mix_scaled_body(dst, src, gain);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn mix_scaled_avx512(dst: &mut [f32], src: &[f32], gain: f64) {
    mix_scaled_body(dst, src, gain);
}

#[inline(always)]
fn mix_scaled_body(dst: &mut [f32], src: &[f32], gain: f64) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += (s as f64 * gain) as f32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::goertzel::{Goertzel, GoertzelBank, GoertzelState};
    use proptest::prelude::*;
    use std::cell::RefCell;
    use std::collections::BTreeSet;

    const SR: u32 = 48_000;
    /// The largest subnormal `f32`.
    const SUBNORMAL: f32 = f32::from_bits(0x007f_ffff);

    /// The paths this host runs, which the properties compare; the others
    /// are named on stderr so a host without them shows up as such.
    fn host_paths() -> Vec<Kernels> {
        let paths: Vec<Kernels> = Isa::ALL
            .iter()
            .filter_map(|&isa| Kernels::of(isa))
            .collect();
        let missing: Vec<Isa> = Isa::ALL
            .iter()
            .copied()
            .filter(|&isa| paths.iter().all(|k| k.0 != isa))
            .collect();
        let ran: Vec<Isa> = paths.iter().map(|k| k.0).collect();
        eprintln!("kernel paths exercised: {ran:?}; not supported on this host: {missing:?}");
        paths
    }

    /// A sample: the special values the kernels must carry exactly, or
    /// any value in `[-1, 1)`.
    fn sample() -> impl Strategy<Value = f32> {
        prop_oneof![
            Just(0.0f32),
            Just(1.0f32),
            Just(-1.0f32),
            Just(SUBNORMAL),
            Just(-SUBNORMAL),
            Just(f32::MIN_POSITIVE),
            -1.0f32..1.0,
            -1.0f32..1.0,
        ]
    }

    /// The special-value classes present in `samples`.
    fn sample_classes(what: &str, samples: &[f32], hit: &mut BTreeSet<String>) {
        for &x in samples {
            let class = match x {
                0.0 => "0",
                x if x.abs() == 1.0 => "±1",
                x if x.is_subnormal() => "subnormal",
                f32::MIN_POSITIVE => "MIN_POSITIVE",
                _ => continue,
            };
            hit.insert(format!("{what} sample {class}"));
        }
    }

    fn bits(v: &[(f64, f64)]) -> Vec<(u64, u64)> {
        v.iter()
            .map(|(re, im)| (re.to_bits(), im.to_bits()))
            .collect()
    }

    /// Every path's bank response equals the portable path's, and that
    /// equals per-candidate [`Goertzel::run`], by `to_bits`, over
    /// candidate counts 1–100 (every block edge and padding width of
    /// every path) and slices of 0–300 samples with special values.
    #[test]
    fn kernels_bank_paths_equal_portable_bit_for_bit() {
        let paths = host_paths();
        let hit = RefCell::new(BTreeSet::new());
        let strategy = (
            1usize..=100,
            prop::collection::vec(1.0f64..23_999.0, 100..101),
            prop::collection::vec(sample(), 0..300),
        );
        proptest::runner::run(
            "kernels_bank_paths_equal_portable_bit_for_bit",
            &ProptestConfig::with_cases(400),
            &strategy,
            |(count, freqs, samples)| {
                let freqs = &freqs[..count];
                let bank = GoertzelBank::new(freqs, SR);
                let want: Vec<(f64, f64)> = freqs
                    .iter()
                    .map(|&f| Goertzel::new(f, SR).run(&samples))
                    .collect();
                let mut state = GoertzelState::default();
                let portable =
                    bits(bank.response_with(Kernels(Isa::Portable), &samples, &mut state));
                prop_assert_eq!(&portable, &bits(&want), "portable, {} candidates", count);
                for &k in &paths {
                    let got = bits(bank.response_with(k, &samples, &mut state));
                    prop_assert_eq!(&got, &portable, "{:?}, {} candidates", k.0, count);
                }
                let mut hit = hit.borrow_mut();
                for &isa in Isa::ALL {
                    let (block, granule) = (isa.block(), isa.granule());
                    let tail = count.next_multiple_of(granule) % block;
                    hit.insert(format!("{block}-lane blocks, {tail}-lane tail"));
                    let edge = match count % block {
                        0 => "on",
                        1 => "one past",
                        r if r == block - 1 => "one short of",
                        _ => "off",
                    };
                    hit.insert(format!("{edge} a {block}-lane block edge"));
                    let wide = if count < block { "narrower" } else { "wider" };
                    hit.insert(format!("bank {wide} than {block} lanes"));
                    let pad = if count % granule == 0 {
                        "unpadded"
                    } else {
                        "padded"
                    };
                    hit.insert(format!("{pad} to {granule} lanes"));
                }
                let len = if samples.is_empty() {
                    "empty"
                } else {
                    "non-empty"
                };
                hit.insert(format!("bank {len} slice"));
                sample_classes("bank", &samples, &mut hit);
                Ok(())
            },
        );
        let mut want = BTreeSet::new();
        for &isa in Isa::ALL {
            let (block, granule) = (isa.block(), isa.granule());
            for tail in (0..block).step_by(granule) {
                want.insert(format!("{block}-lane blocks, {tail}-lane tail"));
            }
            for edge in ["on", "one past", "one short of"] {
                want.insert(format!("{edge} a {block}-lane block edge"));
            }
            for wide in ["narrower", "wider"] {
                want.insert(format!("bank {wide} than {block} lanes"));
            }
            want.insert(format!("padded to {granule} lanes"));
            want.insert(format!("unpadded to {granule} lanes"));
        }
        want.extend([
            "bank empty slice".to_string(),
            "bank non-empty slice".to_string(),
        ]);
        for class in ["0", "±1", "subnormal", "MIN_POSITIVE"] {
            want.insert(format!("bank sample {class}"));
        }
        let hit = hit.into_inner();
        let missed: Vec<&String> = want.difference(&hit).collect();
        assert!(missed.is_empty(), "case classes never hit: {missed:?}");
    }

    /// Every path's mix equals the portable path's, and that equals the
    /// scalar `*d += (s as f64 * gain) as f32`, by `to_bits`, over slices
    /// of 0–200 samples and gains of 0, negative values and 1e-300.
    #[test]
    fn kernels_mix_paths_equal_portable_bit_for_bit() {
        let paths = host_paths();
        let hit = RefCell::new(BTreeSet::new());
        let gain = prop_oneof![
            Just(0.0f64),
            Just(-0.0f64),
            Just(1e-300f64),
            Just(-1e-300f64),
            -4.0f64..-1e-3,
            1e-3f64..4.0,
        ];
        let strategy = (prop::collection::vec((sample(), sample()), 0..200), gain);
        proptest::runner::run(
            "kernels_mix_paths_equal_portable_bit_for_bit",
            &ProptestConfig::with_cases(400),
            &strategy,
            |(pairs, gain)| {
                let (dst, src): (Vec<f32>, Vec<f32>) = pairs.into_iter().unzip();
                let mut want = dst.clone();
                for (d, &s) in want.iter_mut().zip(&src) {
                    *d += (s as f64 * gain) as f32;
                }
                let want: Vec<u32> = want.iter().map(|x| x.to_bits()).collect();
                let mut portable = dst.clone();
                Kernels(Isa::Portable).mix_scaled(&mut portable, &src, gain);
                let portable: Vec<u32> = portable.iter().map(|x| x.to_bits()).collect();
                prop_assert_eq!(&portable, &want, "portable, gain {:e}", gain);
                for &k in &paths {
                    let mut got = dst.clone();
                    k.mix_scaled(&mut got, &src, gain);
                    let got: Vec<u32> = got.iter().map(|x| x.to_bits()).collect();
                    prop_assert_eq!(&got, &portable, "{:?}, gain {:e}", k.0, gain);
                }
                let mut hit = hit.borrow_mut();
                let gain_class = match gain {
                    0.0 => "0",
                    g if g.abs() == 1e-300 => "±1e-300",
                    g if g < 0.0 => "negative",
                    _ => "positive",
                };
                hit.insert(format!("gain {gain_class}"));
                let len = match src.len() {
                    0 => "empty",
                    n if n % 16 == 0 => "whole vectors",
                    _ => "partial vector",
                };
                hit.insert(format!("mix {len} slice"));
                sample_classes("mix dst", &dst, &mut hit);
                sample_classes("mix src", &src, &mut hit);
                Ok(())
            },
        );
        let mut want: BTreeSet<String> = ["0", "±1e-300", "negative", "positive"]
            .iter()
            .map(|g| format!("gain {g}"))
            .collect();
        for len in ["empty", "whole vectors", "partial vector"] {
            want.insert(format!("mix {len} slice"));
        }
        for side in ["dst", "src"] {
            for class in ["0", "±1", "subnormal", "MIN_POSITIVE"] {
                want.insert(format!("mix {side} sample {class}"));
            }
        }
        let hit = hit.into_inner();
        let missed: Vec<&String> = want.difference(&hit).collect();
        assert!(missed.is_empty(), "case classes never hit: {missed:?}");
    }

    #[test]
    fn kernels_detect_a_supported_path() {
        let k = Kernels::detected();
        assert!(k.0.supported());
        assert_eq!(Kernels::of(k.0).map(|k| k.0), Some(k.0));
    }
}
