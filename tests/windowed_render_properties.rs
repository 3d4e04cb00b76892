//! Property-based contract of the windowed render path: any window of a
//! scene renders byte-identically to the same span of a from-zero render,
//! for any emissions, ambient profile/seed, and fault plan — and a [`SceneCursor`](mdn_acoustics::scene::SceneCursor) walking the
//! timeline in arbitrary chunks reproduces the batch render exactly.
//! The scene's shared ambient memo never shows: any interleaving of
//! windows, listeners, re-seeds and clones renders what a fresh scene
//! renders. Fault edges fall between whole milliseconds, and windows
//! are cut exactly at every edge of every fault, including a burst's
//! end rounded up to its last sample.

use mdn_acoustics::ambient::AmbientProfile;
use mdn_acoustics::faults::{SceneFaultPlan, Window};
use mdn_acoustics::medium::Pos;
use mdn_acoustics::mic::Microphone;
use mdn_acoustics::scene::Scene;
use mdn_audio::signal::{duration_to_samples, samples_to_duration};
use mdn_audio::synth::Tone;
use mdn_core::controller::MdnController;
use proptest::prelude::*;
use std::time::Duration;

const SR: u32 = 44_100;

const MS: fn(u64) -> Duration = Duration::from_millis;
const US: fn(u64) -> Duration = Duration::from_micros;

/// One randomly placed tone emission.
#[derive(Debug, Clone)]
struct Emission {
    freq: f64,
    start_ms: u64,
    dur_ms: u64,
    x: f64,
    y: f64,
}

fn emission_strategy() -> impl Strategy<Value = Emission> {
    (
        300.0f64..6_000.0,
        0u64..700,
        30u64..200,
        -20.0f64..20.0,
        -5.0f64..5.0,
    )
        .prop_map(|(freq, start_ms, dur_ms, x, y)| Emission {
            freq,
            start_ms,
            dur_ms,
            x,
            y,
        })
}

/// An optional fault plan: a noise burst, a mic-dead interval, and a
/// speaker dropout, each present ~half the time. Windows are
/// `(from, len)` in microseconds, so their edges rarely land on a sample.
#[derive(Debug, Clone)]
struct Faults {
    burst: Option<(u64, u64, f64)>,
    mic_dead: Option<(u64, u64)>,
    dropout: Option<(u64, u64)>,
    seed: u64,
}

/// A fault window `(from, len)` in microseconds.
fn span_us() -> impl Strategy<Value = (u64, u64)> {
    (0u64..800_000, 20_000u64..300_000)
}

fn faults_strategy() -> impl Strategy<Value = Faults> {
    (
        proptest::option::of((span_us(), 30.0f64..60.0)),
        proptest::option::of(span_us()),
        proptest::option::of(span_us()),
        0u64..1000,
    )
        .prop_map(|(burst, mic_dead, dropout, seed)| Faults {
            burst: burst.map(|((from, len), spl)| (from, len, spl)),
            mic_dead,
            dropout,
            seed,
        })
}

/// Every instant a fault starts or stops acting, sorted: each window's
/// start and end, and the sample-aligned start and end the renderer
/// actually uses. A burst covers samples `[round(from), + round(len))`,
/// whose end can lie one sample past `round(from + len)`.
fn fault_edges(faults: &Faults) -> Vec<Duration> {
    let spans = [
        faults.burst.map(|(from, len, _)| (from, len)),
        faults.mic_dead,
        faults.dropout,
    ];
    let mut edges = Vec::new();
    for (from, len) in spans.into_iter().flatten() {
        let (s0, n) = (
            duration_to_samples(US(from), SR),
            duration_to_samples(US(len), SR),
        );
        edges.extend([US(from), US(from + len)]);
        edges.extend([s0, s0 + n].map(|s| samples_to_duration(s, SR)));
    }
    edges.sort();
    edges
}

fn build_scene(
    emissions: &[Emission],
    ambient_idx: usize,
    ambient_seed: u64,
    faults: &Faults,
) -> Scene {
    let profile = match ambient_idx % 3 {
        0 => AmbientProfile::quiet(),
        1 => AmbientProfile::office(),
        _ => AmbientProfile::datacenter(),
    };
    let mut scene = Scene::new(SR, profile);
    scene.set_ambient_seed(ambient_seed);
    let mut plan = SceneFaultPlan::new(faults.seed);
    if let Some((from, len, spl)) = faults.burst {
        plan = plan.noise_burst(Window::new(US(from), US(len)), spl);
    }
    if let Some((from, len)) = faults.mic_dead {
        plan = plan.mic_dead(Window::new(US(from), US(len)));
    }
    if let Some((from, len)) = faults.dropout {
        plan = plan.speaker_dropout("sw-0", Window::new(US(from), US(len)));
    }
    scene.set_faults(plan);
    for (k, e) in emissions.iter().enumerate() {
        let tone = Tone::new(e.freq, MS(e.dur_ms), 0.05).render(SR);
        scene.add(
            Pos::new(e.x, e.y, 0.0),
            MS(e.start_ms),
            tone,
            format!("sw-{k}"),
        );
    }
    scene
}

/// One call against a long-lived scene in [`memo_never_shows`].
#[derive(Debug, Clone)]
enum RenderOp {
    /// Render `[from, from + len)` at listener `who`: overlapping,
    /// disjoint or earlier than the last window, as drawn.
    Window {
        from_ms: u64,
        len_ms: u64,
        who: usize,
    },
    /// Render the last window minus its first `skip_ms` — the heal
    /// pass's re-capture of a listen's pre-rolled window.
    Suffix { skip_ms: u64, who: usize },
    /// Render `len_ms` starting (or, with `ends`, ending) exactly at
    /// fault edge `edge` (mod the number of edges).
    FaultEdge {
        edge: usize,
        len_ms: u64,
        ends: bool,
        who: usize,
    },
    /// Replace the ambient seed.
    Reseed(u64),
    /// Carry on with a clone of the scene.
    Clone,
}

fn render_op_strategy() -> impl Strategy<Value = RenderOp> {
    prop_oneof![
        (0u64..900, 0u64..500, 0usize..3).prop_map(|(from_ms, len_ms, who)| RenderOp::Window {
            from_ms,
            len_ms,
            who
        }),
        (0u64..300, 0usize..3).prop_map(|(skip_ms, who)| RenderOp::Suffix { skip_ms, who }),
        (0usize..12, 0u64..400, any::<bool>(), 0usize..3).prop_map(|(edge, len_ms, ends, who)| {
            RenderOp::FaultEdge {
                edge,
                len_ms,
                ends,
                who,
            }
        }),
        (0u64..1000).prop_map(RenderOp::Reseed),
        Just(RenderOp::Clone),
    ]
}

/// `len` starting at `at`, or with `ends`, ending at `at` (clipped at zero).
fn edge_window(at: Duration, len: Duration, ends: bool) -> Window {
    match ends {
        false => Window::new(at, len),
        true => Window::between(at.saturating_sub(len), at),
    }
}

const LISTENERS: [Pos; 3] = [
    Pos::new(0.5, 0.3, 0.0),
    Pos::new(-4.0, 2.0, 0.0),
    Pos::new(12.0, -1.0, 1.0),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every render of an interleaved sequence on one scene is
    /// byte-identical to the same span of a fresh scene's from-zero
    /// render, whatever the scene rendered before, for every ambient
    /// profile.
    #[test]
    fn memo_never_shows(
        emissions in proptest::collection::vec(emission_strategy(), 0..3),
        ambient_idx in 0usize..3,
        ambient_seed in 0u64..1000,
        faults in faults_strategy(),
        ops in proptest::collection::vec(render_op_strategy(), 1..16),
    ) {
        let mut scene = build_scene(&emissions, ambient_idx, ambient_seed, &faults);
        let mut seed = ambient_seed;
        let mut last = Window::new(MS(0), MS(300));
        for op in &ops {
            let (w, who) = match *op {
                RenderOp::Window { from_ms, len_ms, who } => {
                    (Window::new(MS(from_ms), MS(len_ms)), who)
                }
                RenderOp::Suffix { skip_ms, who } => {
                    let skip = MS(skip_ms).min(last.len);
                    (Window::new(last.from + skip, last.len - skip), who)
                }
                RenderOp::FaultEdge { edge, len_ms, ends, who } => {
                    let edges = fault_edges(&faults);
                    let Some(&at) = edges.get(edge % edges.len().max(1)) else {
                        continue;
                    };
                    (edge_window(at, MS(len_ms), ends), who)
                }
                RenderOp::Reseed(s) => {
                    seed = s;
                    scene.set_ambient_seed(s);
                    continue;
                }
                RenderOp::Clone => {
                    scene = scene.clone();
                    continue;
                }
            };
            last = w;
            let listener = LISTENERS[who];
            let fresh = build_scene(&emissions, ambient_idx, seed, &faults)
                .render_at(listener, w.end());
            let (a, b) = w.sample_range(SR);
            prop_assert_eq!(scene.render_window(listener, w).samples(), &fresh.samples()[a..b],
                "{:?} diverged from a fresh scene", op);
        }
    }

    /// `render_window(w)` is bit-for-bit the `w` span of a from-zero
    /// render, whatever the emissions, ambient bed or faults.
    #[test]
    fn window_render_equals_full_render_slice(
        emissions in proptest::collection::vec(emission_strategy(), 0..4),
        ambient_idx in 0usize..3,
        ambient_seed in 0u64..1000,
        faults in faults_strategy(),
        from_ms in 0u64..900,
        len_ms in 0u64..600,
    ) {
        let scene = build_scene(&emissions, ambient_idx, ambient_seed, &faults);
        let w = Window::new(MS(from_ms), MS(len_ms));
        let listener = Pos::new(0.5, 0.3, 0.0);
        // Windowed first, so the window's ambient bed is synthesised on
        // its own rather than sliced from the full render's.
        let windowed = scene.render_window(listener, w);
        let full = scene.render_at(listener, w.end());
        let (a, b) = w.sample_range(SR);
        prop_assert_eq!(windowed.samples(), &full.samples()[a..b]);
    }

    /// A window starting or ending exactly on any fault's edge renders
    /// the same span of a from-zero render, wherever the edge falls
    /// between samples.
    #[test]
    fn windows_cut_at_fault_edges_equal_full_render_slice(
        emissions in proptest::collection::vec(emission_strategy(), 0..3),
        burst in (span_us(), 30.0f64..60.0),
        mic_dead in span_us(),
        dropout in span_us(),
        seed in 0u64..1000,
        len_ms in 1u64..300,
    ) {
        let ((from, len), spl) = burst;
        let faults = Faults {
            burst: Some((from, len, spl)),
            mic_dead: Some(mic_dead),
            dropout: Some(dropout),
            seed,
        };
        let scene = build_scene(&emissions, 1, seed, &faults);
        let listener = Pos::new(0.5, 0.3, 0.0);
        let edges = fault_edges(&faults);
        let last = edges.last().copied().unwrap_or_default() + MS(len_ms);
        let full = scene.render_at(listener, last);
        for at in edges {
            for ends in [false, true] {
                let w = edge_window(at, MS(len_ms), ends);
                let (a, b) = w.sample_range(SR);
                prop_assert_eq!(scene.render_window(listener, w).samples(), &full.samples()[a..b],
                    "window {:?} at fault edge {:?}", w, at);
            }
        }
    }

    /// A cursor advancing in arbitrary chunk sizes concatenates to exactly
    /// the batch render of the same span.
    #[test]
    fn cursor_chunks_equal_batch(
        emissions in proptest::collection::vec(emission_strategy(), 0..4),
        ambient_seed in 0u64..1000,
        faults in faults_strategy(),
        chunks_ms in proptest::collection::vec(1u64..400, 1..6),
    ) {
        let scene = build_scene(&emissions, 1, ambient_seed, &faults);
        let listener = Pos::new(0.5, 0.3, 0.0);
        let mut cursor = scene.cursor(listener);
        let mut streamed: Vec<f32> = Vec::new();
        for &c in &chunks_ms {
            streamed.extend_from_slice(cursor.advance(MS(c)).samples());
        }
        let total: u64 = chunks_ms.iter().sum();
        let batch = scene.render_at(listener, MS(total));
        prop_assert_eq!(cursor.position(), MS(total));
        prop_assert_eq!(streamed.len(), batch.len());
        prop_assert_eq!(&streamed[..], batch.samples());
    }

    /// The two public capture paths are one implementation: capturing
    /// through a controller equals capturing from the scene directly.
    #[test]
    fn controller_capture_equals_scene_capture(
        emissions in proptest::collection::vec(emission_strategy(), 0..3),
        ambient_seed in 0u64..1000,
        from_ms in 0u64..400,
        len_ms in 0u64..500,
    ) {
        let scene = build_scene(&emissions, 2, ambient_seed, &Faults {
            burst: None, mic_dead: None, dropout: None, seed: 0,
        });
        let w = Window::new(MS(from_ms), MS(len_ms));
        let pos = Pos::new(0.4, 0.0, 0.0);
        let ctl = MdnController::new(Microphone::measurement(), pos);
        let via_ctl = ctl.capture(&scene, w);
        let via_scene = scene.capture(&ctl.mic, pos, w);
        prop_assert_eq!(via_ctl.samples(), via_scene.samples());
    }
}
