//! Benchmarks behind the paper's quantitative claims, plus design-choice
//! ablations called out in DESIGN.md:
//!
//! * detection cost vs candidate-set size (the Goertzel bank scales
//!   linearly in candidates);
//! * 911 simultaneous tones (the "~1000 frequencies" capacity point);
//! * tone-encode cost including the MP marshal/unmarshal round trip.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mdn_acoustics::medium::Pos;
use mdn_acoustics::scene::Scene;
use mdn_audio::noise::white_noise;
use mdn_bench::experiments::claims::capacity_sweep;
use mdn_core::detector::{DetectorConfig, ToneDetector};
use mdn_core::encoder::SoundingDevice;
use mdn_core::freqplan::FrequencyPlan;
use std::hint::black_box;
use std::time::Duration;

const SR: u32 = 44_100;

fn bench_detection_vs_candidates(c: &mut Criterion) {
    let signal = white_noise(Duration::from_millis(300), 0.02, SR, 5);
    let mut group = c.benchmark_group("claims/detect_cost_vs_candidates");
    for &n in &[4usize, 16, 64, 256] {
        let plan = FrequencyPlan::audible_default();
        let stride = plan.capacity() / n;
        let freqs: Vec<f64> = (0..n).map(|k| plan.slot_freq(k * stride)).collect();
        let det = ToneDetector::new(freqs.clone());
        group.bench_with_input(BenchmarkId::new("goertzel", n), &n, |b, _| {
            b.iter(|| black_box(det.detect(&signal)))
        });
    }
    group.finish();
}

fn bench_capacity_point(c: &mut Criterion) {
    let mut group = c.benchmark_group("claims/capacity");
    group.sample_size(10);
    group.bench_function("911_simultaneous_tones", |b| {
        b.iter(|| {
            let r = capacity_sweep(&[911]);
            assert!(r.points[0].accuracy >= 0.95);
            black_box(r)
        })
    });
    group.finish();
}

fn bench_tone_emission(c: &mut Criterion) {
    let mut plan = FrequencyPlan::audible_default();
    let set = plan.allocate("sw", 8).unwrap();
    c.bench_function("claims/emit_tone_with_mp_roundtrip", |b| {
        b.iter_batched(
            || {
                (
                    SoundingDevice::new("sw", set.clone(), Pos::ORIGIN),
                    Scene::quiet(SR),
                )
            },
            |(mut dev, mut scene)| {
                dev.emit(&mut scene, 3, Duration::ZERO).unwrap();
                black_box(scene.num_emissions())
            },
            criterion::BatchSize::SmallInput,
        )
    });
}

fn bench_calibration(c: &mut Criterion) {
    let noise = white_noise(Duration::from_secs(1), 0.01, SR, 9);
    c.bench_function("claims/calibrate_64_candidates_1s_noise", |b| {
        b.iter_batched(
            || {
                let plan = FrequencyPlan::audible_default();
                let freqs: Vec<f64> = (0..64).map(|k| plan.slot_freq(k * 14)).collect();
                ToneDetector::with_config(freqs, DetectorConfig::default())
            },
            |mut det| {
                det.calibrate(&noise);
                black_box(det.noise_floor().len())
            },
            criterion::BatchSize::SmallInput,
        )
    });
}

fn bench_melody_codec(c: &mut Criterion) {
    use mdn_core::sequence::MelodyCodec;
    let codec = MelodyCodec::new(16);
    let payload: Vec<u8> = (0..64u8).collect();
    c.bench_function("claims/melody_pack_unpack_64_bytes", |b| {
        b.iter(|| {
            let symbols = codec.bytes_to_symbols(black_box(&payload)).unwrap();
            black_box(codec.symbols_to_bytes(&symbols).unwrap())
        })
    });
}

fn bench_live_listener(c: &mut Criterion) {
    use mdn_core::live::LiveListener;
    use mdn_core::controller::MdnController;
    use mdn_core::encoder::SoundingDevice;
    use mdn_acoustics::mic::Microphone;
    use mdn_acoustics::scene::Scene;
    // One second of audio containing four tones, streamed in 100 ms chunks.
    let mut plan = FrequencyPlan::new(700.0, 1500.0, 60.0);
    let set = plan.allocate("dev", 4).unwrap();
    let mut scene = Scene::quiet(SR);
    let mut dev = SoundingDevice::new("dev", set.clone(), Pos::ORIGIN);
    for k in 0..4usize {
        dev.emit(&mut scene, k, Duration::from_millis(100 + 220 * k as u64)).unwrap();
    }
    let audio = scene.render_at(Pos::new(0.4, 0.0, 0.0), Duration::from_secs(1));
    let chunk = SR as usize / 10;
    let mut group = c.benchmark_group("claims/live_listener");
    group.throughput(criterion::Throughput::Elements(audio.len() as u64));
    group.bench_function("stream_1s_in_100ms_chunks", |b| {
        b.iter(|| {
            let mut ctl = MdnController::new(Microphone::measurement(), Pos::ORIGIN);
            ctl.bind_device("dev", set.clone());
            let mut listener = LiveListener::new(ctl, SR);
            let mut decoded = 0;
            let mut fed = 0;
            while fed < audio.len() {
                let to = (fed + chunk).min(audio.len());
                decoded += listener.push(&audio.slice(fed, to)).len();
                fed = to;
            }
            black_box(decoded + listener.finish().len())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_detection_vs_candidates,
    bench_capacity_point,
    bench_tone_emission,
    bench_calibration,
    bench_melody_codec,
    bench_live_listener
);
criterion_main!(benches);
