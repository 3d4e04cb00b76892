//! Figure 2 — the DSP foundation.
//!
//! (a) "FFT of audio from 5 switches": five switches with disjoint
//! frequency sets sound simultaneously; the listening pipeline must
//! identify every tone and attribute it to the right switch.
//!
//! (b) "CDF of FFT processing time": the wall-clock cost of the FFT on
//! ~50 ms samples — the paper reports ≈90% of samples processed in
//! ≤0.35 ms on their hardware.

use super::SAMPLE_RATE;
use mdn_acoustics::medium::Pos;
use mdn_acoustics::mic::Microphone;
use mdn_acoustics::scene::Scene;
use mdn_acoustics::Window;
use mdn_audio::fft::FftPlanner;
use mdn_audio::noise::white_noise;
use mdn_audio::Signal;
use mdn_core::controller::MdnController;
use mdn_core::encoder::SoundingDevice;
use mdn_core::freqplan::FrequencyPlan;
use mdn_net::stats::{cdf, quantile};
use serde::Serialize;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Result of the Figure 2a experiment.
#[derive(Debug, Clone, Serialize)]
pub struct MultiSwitchFftResult {
    /// Switch names, in emission order.
    pub switches: Vec<String>,
    /// The frequency each switch sounded.
    pub emitted_hz: Vec<f64>,
    /// `(switch, slot)` pairs that were expected and detected.
    pub detected: Vec<(String, usize)>,
    /// `(switch, slot)` pairs detected but never emitted (false positives).
    pub spurious: Vec<(String, usize)>,
    /// Fraction of emitted tones identified.
    pub recall: f64,
    /// The magnitude spectrum of the mixed capture: `(freq_hz, magnitude)`
    /// pairs around the active band, for plotting the figure itself.
    pub spectrum: Vec<(f64, f64)>,
}

/// Figure 2a: five simultaneous switches, one tone each.
pub fn multiswitch_fft(num_switches: usize, slots_per_switch: usize) -> MultiSwitchFftResult {
    let mut plan = FrequencyPlan::audible_default();
    let mut scene = Scene::quiet(SAMPLE_RATE);
    let mut ctl = MdnController::new(Microphone::measurement(), Pos::new(0.5, 0.5, 0.0));

    let mut switches = Vec::new();
    let mut emitted_hz = Vec::new();
    let mut expected = BTreeSet::new();
    for i in 0..num_switches {
        let name = format!("switch-{}", i + 1);
        let set = plan
            .allocate(&name, slots_per_switch)
            .expect("plan capacity");
        ctl.bind_device(&name, set.clone());
        let mut dev = SoundingDevice::new(&name, set, Pos::new(i as f64 * 0.4, 0.0, 0.0));
        // Each switch sounds a different local slot, all at t = 100 ms.
        let slot = i % slots_per_switch;
        dev.emit_slot(
            &mut scene,
            slot,
            Duration::from_millis(100),
            Duration::from_millis(200),
        )
        .expect("emission");
        emitted_hz.push(dev.set.freq(slot));
        expected.insert((name.clone(), slot));
        switches.push(name);
    }

    let events = ctl.listen(&scene, Window::from_start(Duration::from_millis(400)));
    let heard: BTreeSet<(String, usize)> =
        events.iter().map(|e| (e.device.clone(), e.slot)).collect();
    let detected: Vec<(String, usize)> = expected.intersection(&heard).cloned().collect();
    let spurious: Vec<(String, usize)> = heard.difference(&expected).cloned().collect();
    let recall = detected.len() as f64 / expected.len().max(1) as f64;

    // The plotted spectrum: one 100 ms frame of the mixture.
    let capture = ctl.capture(
        &scene,
        Window::new(Duration::from_millis(150), Duration::from_millis(100)),
    );
    let spec = mdn_audio::spectral::Spectrum::of(&capture);
    let lo = emitted_hz.iter().cloned().fold(f64::INFINITY, f64::min) - 100.0;
    let hi = emitted_hz.iter().cloned().fold(0.0, f64::max) + 100.0;
    let spectrum: Vec<(f64, f64)> = (0..spec.magnitudes().len())
        .map(|k| (spec.bin_to_hz(k), spec.magnitudes()[k]))
        .filter(|&(f, _)| f >= lo && f <= hi)
        .collect();

    MultiSwitchFftResult {
        switches,
        emitted_hz,
        detected,
        spurious,
        recall,
        spectrum,
    }
}

/// Result of the Figure 2b experiment.
#[derive(Debug, Clone, Serialize)]
pub struct FftLatencyResult {
    /// Number of samples timed.
    pub samples: usize,
    /// Length of each audio sample in milliseconds.
    pub sample_ms: f64,
    /// The empirical CDF: `(latency_ms, fraction)`.
    pub cdf: Vec<(f64, f64)>,
    /// Median latency, ms.
    pub p50_ms: f64,
    /// 90th percentile latency, ms — the paper's headline (0.35 ms).
    pub p90_ms: f64,
    /// 99th percentile latency, ms.
    pub p99_ms: f64,
    /// Fraction of samples processed within the paper's 0.35 ms.
    pub fraction_under_paper_0_35ms: f64,
}

/// Figure 2b: wall-clock FFT latency over `n` ~50 ms captures.
pub fn fft_latency(n: usize) -> FftLatencyResult {
    let mut planner = FftPlanner::new();
    let sample_len = Duration::from_millis(50);
    // Realistic inputs: noise + a tone, fresh buffer per iteration.
    let inputs: Vec<Signal> = (0..n)
        .map(|i| {
            let mut s = white_noise(sample_len, 0.01, SAMPLE_RATE, i as u64);
            let tone =
                mdn_audio::synth::Tone::new(500.0 + (i % 100) as f64 * 20.0, sample_len, 0.1)
                    .render(SAMPLE_RATE);
            s.mix_at(&tone, 0);
            s
        })
        .collect();
    // Warm the planner (the paper's pipeline reuses its FFT plan too).
    let _ = planner.forward_real(inputs[0].samples(), None);
    let mut latencies_ms = Vec::with_capacity(n);
    for input in &inputs {
        let start = Instant::now();
        let spec = planner.forward_real(input.samples(), None);
        let elapsed = start.elapsed();
        std::hint::black_box(&spec);
        latencies_ms.push(elapsed.as_secs_f64() * 1e3);
    }
    let cdf_points = cdf(&latencies_ms);
    let under = latencies_ms.iter().filter(|&&v| v <= 0.35).count() as f64 / n as f64;
    FftLatencyResult {
        samples: n,
        sample_ms: 50.0,
        p50_ms: quantile(&latencies_ms, 0.5).unwrap(),
        p90_ms: quantile(&latencies_ms, 0.9).unwrap(),
        p99_ms: quantile(&latencies_ms, 0.99).unwrap(),
        fraction_under_paper_0_35ms: under,
        cdf: cdf_points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2a_identifies_all_five_switches() {
        let r = multiswitch_fft(5, 5);
        assert_eq!(r.recall, 1.0, "missed tones: detected {:?}", r.detected);
        assert!(r.spurious.is_empty(), "spurious: {:?}", r.spurious);
        assert_eq!(r.emitted_hz.len(), 5);
        assert!(!r.spectrum.is_empty());
    }

    #[test]
    fn fig2b_latency_sane_and_cdf_complete() {
        let r = fft_latency(100);
        assert_eq!(r.cdf.len(), 100);
        assert!(r.p50_ms > 0.0);
        assert!(r.p90_ms >= r.p50_ms);
        // Modern hardware: well under 5 ms for a 4096-pt FFT.
        assert!(r.p99_ms < 5.0, "p99 {} ms", r.p99_ms);
    }
}
