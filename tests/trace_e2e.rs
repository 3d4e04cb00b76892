//! Causal-tracing end to end: follow single tones through the unified
//! pipeline by TraceId.
//!
//! A four-cell hall runs under [`UnifiedLoop`] with tracing attached.
//! Every switch sounds its slot each 300 ms window; at 1.2 s cell 1's
//! microphone dies for good, so its switches starve until the self-heal
//! pass evacuates the cell. The traces must tell both stories:
//!
//! * a **happy-path tone** decomposes into at least five hops —
//!   `schedule` → `emit` → `window_close` → `detect` → `decode` — all on
//!   one deterministic [`TraceId`];
//! * a **mic-death tone** closes negatively: `missed` →
//!   `health_penalty`, and the final starved tone carries the `replan`
//!   span of the evacuation built from its evidence.
//!
//! Span sim-time bounds are part of the pipeline's determinism contract:
//! the full span sequence (wall costs zeroed via `deterministic_view`)
//! must be identical for 0, 1 and 4 shard threads. The Chrome
//! trace-event export must parse as JSON with matched begin/end pairs.

use mdn_acoustics::ambient::AmbientProfile;
use mdn_acoustics::faults::{SceneFaultPlan, Window};
use mdn_acoustics::scene::Scene;
use mdn_core::cells::{CellConfig, CellPlan};
use mdn_core::eventloop::{Step, UnifiedLoop};
use mdn_core::selfheal::{SelfHealConfig, SelfHealingController};
use mdn_net::Network;
use mdn_obs::{Registry, SpanKind, TraceSpan};
use std::time::Duration;

const SR: u32 = 44_100;
const WIN: Duration = Duration::from_millis(300);
const WINDOWS: u64 = 12;
const MS: fn(u64) -> Duration = Duration::from_millis;
const SEED: u64 = 2018;
/// Cell 1's mic dies at the start of window 4 and stays dead.
const DEAD_CELL: usize = 1;
const FAULT_AT: Duration = Duration::from_millis(1200);

/// Run the scenario with `threads` shard threads; return every span
/// (record order) plus the Chrome JSON export and the replans seen.
fn run_traced(threads: usize) -> (Vec<TraceSpan>, String, Vec<(Duration, usize)>) {
    let registry = Registry::with_trace(1 << 16);
    let plan = CellPlan::plan(
        4,
        &[AmbientProfile::quiet()],
        CellConfig {
            switches_per_cell: 2,
            slots_per_switch: 3,
            ..CellConfig::default()
        },
    )
    .unwrap();
    let names: Vec<Vec<String>> = plan
        .cells()
        .iter()
        .map(|c| c.device_names.clone())
        .collect();
    let total = WIN * WINDOWS as u32;

    let mut scene = Scene::new(SR, AmbientProfile::quiet());
    scene.set_ambient_seed(SEED);
    scene.set_faults(SceneFaultPlan::new(SEED).mic_dead_at(
        plan.cells()[DEAD_CELL].mic_pos,
        1.0,
        Window::between(FAULT_AT, total),
    ));

    let mut heal = SelfHealingController::with_config(
        plan,
        SelfHealConfig {
            verify_on_replan: false,
            ..SelfHealConfig::default()
        },
    );
    heal.sharded_mut().set_threads(threads);

    let mut lp = UnifiedLoop::new(Network::new(), scene, heal, WIN);
    lp.attach_trace(&registry.trace());

    // Every switch sounds its window's slot, every window, 50 ms in.
    for w in 0..WINDOWS {
        let at = WIN * w as u32 + MS(50);
        for cell_names in &names {
            for name in cell_names {
                lp.schedule_emission(at, name, w as usize % 3, MS(150));
            }
        }
    }

    let mut replans = Vec::new();
    let mut closed = 0u64;
    while closed < WINDOWS {
        match lp.step(total + WIN) {
            Step::Window { window, report } => {
                closed += 1;
                if let Some(cell) = report.replanned {
                    replans.push((window.end(), cell));
                }
            }
            Step::App { .. } => unreachable!("no app events scheduled"),
            Step::Done => panic!("queue ran dry before {WINDOWS} windows"),
        }
    }

    let sink = registry.trace();
    assert_eq!(sink.dropped(), 0, "trace ring must not overflow this run");
    (sink.spans(), sink.to_chrome_json(), replans)
}

/// The span kinds of one trace, in record order.
fn kinds_of(spans: &[TraceSpan], id: mdn_obs::TraceId) -> Vec<SpanKind> {
    spans
        .iter()
        .filter(|s| s.trace == id)
        .map(|s| s.kind)
        .collect()
}

#[test]
fn tones_trace_through_five_hops_and_the_evacuation_chain() {
    let (spans, chrome, replans) = run_traced(1);

    // The mic death must have evacuated exactly the dead cell.
    assert_eq!(replans.len(), 1, "expected exactly one evacuation");
    assert_eq!(replans[0].1, DEAD_CELL);
    assert!(replans[0].0 > FAULT_AT);

    // Happy path: the first tone of cell 0's first switch. Its schedule
    // span names the device; everything else hangs off the same id.
    let schedule = spans
        .iter()
        .find(|s| s.kind == SpanKind::Schedule && s.detail.starts_with("c0-s0 "))
        .expect("c0-s0 scheduled");
    let happy = kinds_of(&spans, schedule.trace);
    assert_eq!(
        happy,
        [
            SpanKind::Schedule,
            SpanKind::Emit,
            SpanKind::WindowClose,
            SpanKind::Detect,
            SpanKind::Decode,
        ],
        "a heard tone decomposes into its five pipeline hops"
    );
    assert!(happy.len() >= 5);
    // The hops tile the tone's life: schedule ends where the emission
    // starts, and every later hop closes at the window boundary.
    let by_id: Vec<&TraceSpan> = spans.iter().filter(|s| s.trace == schedule.trace).collect();
    assert_eq!(by_id[0].to, by_id[1].from, "schedule hands off to emit");
    let boundary = by_id[2].to;
    assert!(by_id[1].to <= boundary, "air time ends before the close");
    assert!(by_id.iter().skip(2).all(|s| s.to == boundary));
    assert_eq!(by_id[0].cell, 0);

    // Negative path: some starved tone of the dead cell must carry the
    // full missed → health_penalty → replan evidence chain.
    let evacuated = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Replan)
        .map(|s| s.trace)
        .find(|&id| {
            let k = kinds_of(&spans, id);
            k.contains(&SpanKind::Missed) && k.contains(&SpanKind::HealthPenalty)
        })
        .expect("a missed tone carries the replan span");
    let chain: Vec<&TraceSpan> = spans.iter().filter(|s| s.trace == evacuated).collect();
    assert!(chain.iter().all(|s| s.cell == DEAD_CELL));
    assert!(
        chain.iter().any(
            |s| s.kind == SpanKind::Replan && s.detail == format!("evacuated cell {DEAD_CELL}")
        ),
        "replan span names the evacuated cell"
    );
    // No decode anywhere on a starved tone.
    assert!(chain.iter().all(|s| s.kind != SpanKind::Decode));

    // The export is real JSON with matched async begin/end pairs.
    let doc: serde_json::Value = serde_json::from_str(&chrome).expect("chrome JSON parses");
    let events = doc["traceEvents"].as_array().expect("traceEvents array");
    let begins = events
        .iter()
        .filter(|e| e["ph"].as_str() == Some("b"))
        .count();
    let ends = events
        .iter()
        .filter(|e| e["ph"].as_str() == Some("e"))
        .count();
    assert_eq!(begins, ends, "every begin has its end");
    assert_eq!(begins, spans.len(), "one pair per span");
}

#[test]
fn traces_are_identical_for_any_thread_count() {
    let base: Vec<TraceSpan> = run_traced(0)
        .0
        .iter()
        .map(TraceSpan::deterministic_view)
        .collect();
    assert!(!base.is_empty());
    for threads in [1usize, 4] {
        let other: Vec<TraceSpan> = run_traced(threads)
            .0
            .iter()
            .map(TraceSpan::deterministic_view)
            .collect();
        assert_eq!(
            base, other,
            "span sequence diverged at {threads} shard threads"
        );
    }
}
