//! Detection hot-path benchmarks (the paper's Figure 2b, scaled up).
//!
//! The control loop's latency budget is dominated by `ToneDetector::detect`
//! over the most recent capture, so this bench sweeps the axes that matter
//! in deployment: candidate count (1–48; 48 is a hall cell's 6 switches ×
//! 8 slots) and capture length (1 s–60 s). A decode runs on one thread;
//! captures are decoded in parallel only across cells. Criterion covers the
//! short captures with tight statistics; a manual best-of-R sweep covers
//! the long ones and writes a machine-readable summary to
//! `BENCH_detect.json` at the workspace root, including the speedup of the
//! banked path over the old per-candidate scan on the 16-candidate 10 s
//! capture, and the overhead ratio of the
//! `mdn-obs`-instrumented detector over the bare one on the same capture
//! (both ratios are medians over interleaved pairs so host drift cancels).
//!
//! `cargo bench -p mdn-bench --bench detect -- --test` runs one smoke
//! iteration of everything and skips the JSON (CI uses this).

use criterion::{BenchmarkId, Criterion};
use mdn_audio::goertzel::{Goertzel, GoertzelBank};
use mdn_audio::noise::white_noise;
use mdn_audio::signal::duration_to_samples;
use mdn_audio::synth::Tone;
use mdn_audio::Signal;
use mdn_core::detector::ToneDetector;
use mdn_obs::Registry;
use std::hint::black_box;
use std::time::{Duration, Instant};

const SR: u32 = 44_100;

fn candidate_freqs(n: usize) -> Vec<f64> {
    (0..n).map(|i| 600.0 + 60.0 * i as f64).collect()
}

/// A busy capture: tones hopping across the candidate set every 200 ms over
/// a light noise bed — the steady-state signal a loaded rack produces.
fn capture(duration: Duration, candidates: &[f64]) -> Signal {
    let mut sig = white_noise(duration, 0.004, SR, 17);
    let tone_len = Duration::from_millis(100);
    let mut at = Duration::ZERO;
    let mut slot = 0usize;
    while at + tone_len < duration {
        let tone = Tone::new(candidates[slot % candidates.len()], tone_len, 0.1).render(SR);
        sig.mix_at(&tone, duration_to_samples(at, SR));
        at += Duration::from_millis(200);
        slot += 1;
    }
    sig
}

/// A default detector with live `mdn-obs` handles attached — the
/// configuration the overhead claim is about (frame and observation
/// counters, two stage spans per call).
fn detector_obs(candidates: &[f64]) -> ToneDetector {
    let mut det = ToneDetector::new(candidates.to_vec());
    det.attach_obs(&Registry::new());
    det
}

/// The pre-bank hot path, kept as the speedup reference: one independent
/// Goertzel pass per candidate per complete frame (partial tail frames were
/// dropped), sequential.
fn old_per_candidate_scan(sig: &Signal, candidates: &[f64]) -> Vec<f64> {
    let frame = duration_to_samples(Duration::from_millis(50), SR).max(1);
    let hop = duration_to_samples(Duration::from_millis(25), SR).max(1);
    let samples = sig.samples();
    let filters: Vec<Goertzel> = candidates.iter().map(|&f| Goertzel::new(f, SR)).collect();
    let mut mags = Vec::new();
    let mut start = 0;
    while start + frame <= samples.len() {
        let window = &samples[start..start + frame];
        for g in &filters {
            mags.push(g.magnitude(window));
        }
        start += hop;
    }
    mags
}

/// Sanity for the speedup claim: the bank reproduces the per-candidate scan
/// bit for bit on complete frames.
fn assert_paths_agree(sig: &Signal, candidates: &[f64]) {
    let old = old_per_candidate_scan(sig, candidates);
    let bank = GoertzelBank::new(candidates, SR);
    let frame = duration_to_samples(Duration::from_millis(50), SR).max(1);
    let hop = duration_to_samples(Duration::from_millis(25), SR).max(1);
    let samples = sig.samples();
    let mut start = 0;
    let mut fi = 0;
    while start + frame <= samples.len() {
        let got = bank.magnitudes(&samples[start..start + frame]);
        assert_eq!(
            &old[fi * candidates.len()..(fi + 1) * candidates.len()],
            &got[..],
            "bank diverged from per-candidate scan at frame {fi}"
        );
        start += hop;
        fi += 1;
    }
}

fn criterion_benches(c: &mut Criterion) {
    // Short-capture statistics: 1 s, across candidate counts × paths.
    let mut group = c.benchmark_group("detect/1s");
    group.sample_size(10);
    for &n in &[1usize, 4, 16, 48] {
        let candidates = candidate_freqs(n);
        let sig = capture(Duration::from_secs(1), &candidates);
        let det = ToneDetector::new(candidates.clone());
        group.bench_with_input(BenchmarkId::new("goertzel", n), &sig, |b, sig| {
            b.iter(|| black_box(det.detect(black_box(sig))))
        });
        let det = detector_obs(&candidates);
        group.bench_with_input(BenchmarkId::new("goertzel_obs", n), &sig, |b, sig| {
            b.iter(|| black_box(det.detect(black_box(sig))))
        });
        group.bench_with_input(
            BenchmarkId::new("goertzel/old_per_candidate", n),
            &sig,
            |b, sig| b.iter(|| black_box(old_per_candidate_scan(black_box(sig), &candidates))),
        );
    }
    group.finish();
}

#[derive(serde::Serialize)]
struct SweepRow {
    path: &'static str,
    candidates: usize,
    capture_s: u64,
    millis: f64,
}

fn best_of<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Median of per-pair time ratios between two interleaved closures.
/// Independent best-of loops pick up slow host drift that can dwarf the
/// effect being measured; interleaving cancels the drift and the median
/// discards outlier reps.
fn paired_ratio<N: FnMut(), D: FnMut()>(pairs: usize, mut num: N, mut den: D) -> f64 {
    let mut ratios = Vec::with_capacity(pairs);
    for _ in 0..pairs {
        let t = Instant::now();
        num();
        let n = t.elapsed().as_secs_f64();
        let t = Instant::now();
        den();
        ratios.push(n / t.elapsed().as_secs_f64());
    }
    ratios.sort_by(f64::total_cmp);
    ratios[ratios.len() / 2]
}

/// The long-capture sweep (manual timing; criterion's statistics are
/// overkill at seconds per iteration) and the JSON summary.
fn sweep_and_report(smoke: bool) {
    let reps = if smoke { 1 } else { 3 };
    let durations: &[u64] = if smoke { &[1] } else { &[1, 10, 60] };
    let mut rows: Vec<SweepRow> = Vec::new();
    let mut speedup_16c_10s = None;
    let mut obs_overhead_16c_10s = None;
    for &secs in durations {
        for &n in &[1usize, 4, 16, 48] {
            let candidates = candidate_freqs(n);
            let sig = capture(Duration::from_secs(secs), &candidates);
            if secs == durations[0] {
                assert_paths_agree(&sig, &candidates);
            }
            let old_ms = best_of(reps, || {
                black_box(old_per_candidate_scan(black_box(&sig), &candidates));
            });
            rows.push(SweepRow {
                path: "goertzel_old_per_candidate",
                candidates: n,
                capture_s: secs,
                millis: old_ms,
            });
            let det = ToneDetector::new(candidates.clone());
            let new_ms = best_of(reps, || {
                black_box(det.detect(black_box(&sig)));
            });
            rows.push(SweepRow {
                path: "goertzel_bank",
                candidates: n,
                capture_s: secs,
                millis: new_ms,
            });
            let det_obs = detector_obs(&candidates);
            let obs_ms = best_of(reps, || {
                black_box(det_obs.detect(black_box(&sig)));
            });
            rows.push(SweepRow {
                path: "goertzel_bank_obs",
                candidates: n,
                capture_s: secs,
                millis: obs_ms,
            });
            if n == 16 && secs == 10 {
                let pairs = if smoke { 1 } else { 9 };
                speedup_16c_10s = Some(paired_ratio(
                    pairs,
                    || {
                        black_box(old_per_candidate_scan(black_box(&sig), &candidates));
                    },
                    || {
                        black_box(det.detect(black_box(&sig)));
                    },
                ));
                obs_overhead_16c_10s = Some(paired_ratio(
                    pairs,
                    || {
                        black_box(det_obs.detect(black_box(&sig)));
                    },
                    || {
                        black_box(det.detect(black_box(&sig)));
                    },
                ));
            }
        }
    }
    if smoke {
        eprintln!("detect sweep smoke: {} rows timed, bank agrees", rows.len());
        return;
    }
    let summary = serde_json::json!({
        "bench": "detect",
        "unit": "milliseconds (best of 3)",
        "sample_rate": SR,
        "frame_ms": 50,
        "hop_ms": 25,
        "speedup_old_vs_bank_16c_10s": speedup_16c_10s,
        "obs_overhead_ratio_16c_10s": obs_overhead_16c_10s,
        "rows": rows,
    });
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_detect.json");
    std::fs::write(path, serde_json::to_string_pretty(&summary).unwrap() + "\n")
        .expect("write BENCH_detect.json");
    if let Some(s) = speedup_16c_10s {
        eprintln!("detect: old/new speedup on 16 candidates × 10 s = {s:.2}×");
    }
    if let Some(r) = obs_overhead_16c_10s {
        eprintln!("detect: obs-instrumented / bare on 16 candidates × 10 s = {r:.3}×");
    }
    eprintln!("wrote {path}");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let mut c = Criterion::default().configure_from_args();
    criterion_benches(&mut c);
    c.final_summary();
    sweep_and_report(smoke);
}
