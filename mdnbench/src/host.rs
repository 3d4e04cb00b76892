//! The host-speed probe: a fixed kernel of the benchmark's own, run
//! after every window step, whose time rescales the end-to-end timings
//! to one reference host speed.
//!
//! The shared 2-core VM this benchmark is tuned on drifts in speed by
//! up to ±30% over seconds to minutes, with the memory traffic of other
//! tenants; a run's wall-clock figures follow the drift, not the
//! program. A multiply-add sweep over a buffer the size of one core's
//! L2 cache slows with the same drift, and more steeply: regressing log
//! pass time on log mean probe time over consecutive passes gave slopes
//! of 0.68 on `chaos` (20 passes, correlation 0.96), 0.53 on `hall_600`
//! (12 passes, 0.77) and 0.36 on `fabric` (10 passes, 0.49). Timings are
//! therefore rescaled by the probe's speed ratio to the power
//! [`ELASTICITY`], which left a standard deviation of log pass time of
//! 0.027 / 0.027 / 0.048 on those passes, against 0.071 / 0.042 / 0.054
//! raw and 0.037 / 0.040 / 0.067 at the full ratio. The probe shares no
//! code and no data with the program, and clears the cache before it is
//! timed, so a change to the program leaves it unchanged.

use std::time::Instant;

/// The probe's buffer: 2 MiB of `f64`, one core's L2 cache on the
/// tuning host.
const BUF_LEN: usize = 1 << 18;
/// The source pattern it mixes in, 32 KiB, L1-resident.
const SRC_LEN: usize = 1 << 12;
/// Sweeps over the buffer per sample.
const SWEEPS: usize = 6;
/// The probe's reference time, ns, about its median on the tuning
/// host: rescaled figures read as if measured there at that speed.
pub const NOMINAL_NS: f64 = 1.5e6;
/// How far the program's time follows the probe's, one value for every
/// workload, between the slopes measured on them.
const ELASTICITY: f64 = 0.5;

pub struct Probe {
    buf: Vec<f64>,
    src: Vec<f64>,
}

impl Probe {
    pub fn new() -> Self {
        let mut probe = Self {
            buf: vec![1.0; BUF_LEN],
            src: (0..SRC_LEN).map(|i| (i as f64 * 0.37).sin()).collect(),
        };
        // Warm-up: fault the buffer in before anything is timed.
        probe.sample();
        probe
    }

    /// Run the kernel twice; the second run's wall time, ns. The first,
    /// untimed, writes back and evicts what the program left in the
    /// cache, so the timed run sees the host and not the footprint of
    /// the code that ran before it: timed first, the probe read 5–10%
    /// slower after a `chaos` window step than on its own.
    pub fn sample(&mut self) -> u64 {
        self.sweep();
        let started = Instant::now();
        self.sweep();
        started.elapsed().as_nanos() as u64
    }

    fn sweep(&mut self) {
        for sweep in 0..SWEEPS {
            let gain = 0.999 + sweep as f64 * 1e-6;
            for (i, x) in self.buf.iter_mut().enumerate() {
                *x = *x * gain + self.src[i & (SRC_LEN - 1)];
            }
        }
        std::hint::black_box(&mut self.buf);
    }
}

/// The factor that rescales a stretch of time probed by `samples` to
/// the reference speed: (`NOMINAL_NS` ÷ their mean) ^ `ELASTICITY`.
/// Below 1 when the host ran slow, above 1 when it ran fast.
pub fn factor(samples: &[u64]) -> f64 {
    assert!(!samples.is_empty(), "rescale factor of no probes");
    let mean_ns = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
    (NOMINAL_NS / mean_ns).powf(ELASTICITY)
}
