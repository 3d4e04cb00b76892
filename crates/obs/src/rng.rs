//! The workspace's one seeded random stream: splitmix64.
//!
//! Every seeded draw in the repository comes from here — fault
//! injection on control channels, the scenario fuzzer, the benchmark's
//! chaos specs, the synthetic melody behind Figures 4b/4d, Poisson
//! traffic — and the counter-based ambient noise generators hash with
//! the same [`splitmix64`] mixer. The stream is defined by this file
//! alone, so output bytes that depend on it depend on no external
//! crate, and `stream_golden` below pins its first draws exactly.

/// splitmix64's state increment (the golden-ratio gamma).
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The splitmix64 mixer: step `z` by the gamma and finalize it. Stateless
/// — `splitmix64(s)` is the first draw of [`SplitMix64::new(s)`] — so it
/// doubles as the hash behind every counter-based generator.
///
/// [`SplitMix64::new(s)`]: SplitMix64::new
#[inline]
pub fn splitmix64(z: u64) -> u64 {
    let mut z = z.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded splitmix64 stream.
///
/// Small enough that the draw sequence is trivially reproducible outside
/// Rust (the chaos tests pick seeds by mirroring this integer
/// arithmetic).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A stream seeded with `seed`.
    #[inline]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit draw.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let out = splitmix64(self.state);
        self.state = self.state.wrapping_add(GAMMA);
        out
    }

    /// Uniform draw in `[0, 1)` with 53-bit resolution.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform draw in `[0, n)`: one raw draw modulo `n`.
    ///
    /// # Panics
    /// Panics if `n` is zero.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        self.next_u64() % n
    }

    /// Uniform-ish draw in `[lo, hi)`: `lo` plus one raw draw modulo the
    /// span.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEEDS: [u64; 3] = [0, 7, 403];

    /// The first four `next_u64` of each seed.
    const RAW: [[u64; 4]; 3] = [
        [
            0xE220_A839_7B1D_CDAF,
            0x6E78_9E6A_A1B9_65F4,
            0x06C4_5D18_8009_454F,
            0xF88B_B8A8_724C_81EC,
        ],
        [
            0x63CB_E1E4_5932_0DD7,
            0x044C_3CD7_F43C_661C,
            0xE698_4080_BAB1_2A02,
            0x953A_EB70_673E_29CB,
        ],
        [
            0xD60F_68C8_07EC_3606,
            0x6695_AAF5_A19A_D07E,
            0xCDE4_8F98_B29C_97E8,
            0x5338_4631_97F0_DAE8,
        ],
    ];

    /// `MusicNoise`'s melody step, `below(5) as i64 - 2`.
    const STEPS: [[i64; 8]; 3] = [
        [-2, -2, 2, 2, 0, -2, 1, -2],
        [0, 2, -1, 1, 2, -2, 1, 0],
        [-1, -2, -2, 2, -1, -1, 1, -2],
    ];

    /// The Poisson generator's uniform, `1e-12 + (1 - 1e-12)·f64()`, by
    /// `to_bits`.
    const UNIFORMS: [[u64; 4]; 3] = [
        [
            0x3FEC_4415_072F_67D4,
            0x3FDB_9E27_9AA8_9658,
            0x3F9B_1174_6204_6D23,
            0x3FEF_1177_150E_4A96,
        ],
        [
            0x3FD8_F2F8_7916_7772,
            0x3F91_30F3_5FD5_447F,
            0x3FEC_D308_1017_59A3,
            0x3FE2_A75D_6E0C_F672,
        ],
        [
            0x3FEA_C1ED_1901_034A,
            0x3FD9_A56A_BD68_90DF,
            0x3FE9_BC91_F316_5A75,
            0x3FD4_CE11_8C66_2BB4,
        ],
    ];

    /// The stream, pinned bit for bit. The values were recorded from the
    /// `StdRng` stand-in this type replaced, so the melody and Poisson
    /// draws behind `results/` kept their bytes across the swap.
    #[test]
    fn stream_golden() {
        for (i, seed) in SEEDS.into_iter().enumerate() {
            let mut rng = SplitMix64::new(seed);
            assert_eq!(RAW[i].map(|_| rng.next_u64()), RAW[i], "seed {seed}");
            assert_eq!(splitmix64(seed), RAW[i][0], "seed {seed}: mixer");
            let mut rng = SplitMix64::new(seed);
            let steps = STEPS[i].map(|_| rng.below(5) as i64 - 2);
            assert_eq!(steps, STEPS[i], "seed {seed}: melody step");
            let mut rng = SplitMix64::new(seed);
            let uniforms = UNIFORMS[i].map(|_| (1e-12 + (1.0 - 1e-12) * rng.f64()).to_bits());
            assert_eq!(uniforms, UNIFORMS[i], "seed {seed}: Poisson uniform");
        }
    }

    #[test]
    fn range_and_below_stay_in_bounds() {
        let mut rng = SplitMix64::default();
        for _ in 0..1000 {
            assert!((3..10).contains(&rng.range(3, 10)));
            assert!(rng.below(5) < 5);
            assert!((0.0..1.0).contains(&rng.f64()));
        }
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_panics() {
        SplitMix64::new(1).below(0);
    }
}
