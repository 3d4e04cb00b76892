//! Multi-cell scale-out past the single-microphone ceiling: 120 switches
//! across 20 acoustic cells decode correctly — with every switch sounding
//! simultaneously — where a flat `FrequencyPlan::audible_default()`
//! exhausts before binding them all. Smaller halls of 1, 2, 4 and 8
//! cells decode just as exactly. The merged event stream is
//! bit-identical for any shard thread count.

use mdn_acoustics::ambient::AmbientProfile;
use mdn_acoustics::Window;
use mdn_core::cells::{CellPlan, ShardEvent, ShardedController};
use mdn_core::freqplan::{FrequencyPlan, PlanError};
use mdn_core::scenario::{ScenarioBuilder, ScenarioSpec};
use mdn_obs::Registry;
use std::collections::BTreeSet;
use std::sync::OnceLock;
use std::time::Duration;

const SR: u32 = 44_100;
const CELLS: usize = 20;

/// A hall of `cells` default cells, planned through the shared scenario
/// preset (at 20 cells, the hall `scenarios/scale_120.json` runs
/// end-to-end).
fn plan_hall(cells: usize) -> CellPlan {
    let spec = ScenarioSpec::small_hall(cells, 6, 8, "office");
    ScenarioBuilder::new(&spec)
        .expect("default hall validates")
        .plan()
        .clone()
}

type EmittedScene = (
    mdn_acoustics::scene::Scene,
    CellPlan,
    BTreeSet<(usize, String, usize)>,
);

/// A `cells`-cell hall in which every switch sounds one slot,
/// simultaneously, at 700 ms; the first 500 ms are tone-free for
/// calibration. Expected = the exact `(cell, device, slot)` set.
fn build_scene(cells: usize) -> EmittedScene {
    let plan = plan_hall(cells);
    let mut scene = mdn_acoustics::scene::Scene::new(SR, AmbientProfile::office());
    scene.set_ambient_seed(42);
    let mut expected = BTreeSet::new();
    for (c, mut devs) in plan.sounding_devices().into_iter().enumerate() {
        for dev in devs.iter_mut() {
            // One slot index per cell: within a cell the six
            // simultaneous tones stay 160 Hz apart (concurrent tones
            // 20 Hz apart would trip the detector's local-max
            // suppression, the known §3 limit), while across cells
            // the staggered index makes some same-color foreign cells
            // sound *different* slots of the reused sub-band — the
            // false-attribution case — and others the identical slot
            // — the additive case.
            let slot = c % plan.config().slots_per_switch;
            dev.emit_slot(
                &mut scene,
                slot,
                Duration::from_millis(700),
                Duration::from_millis(150),
            )
            .expect("emit");
            expected.insert((c, dev.name.clone(), slot));
        }
    }
    (scene, plan, expected)
}

/// The 120-switch scene most tests listen to, built once.
fn emitted_scene() -> &'static EmittedScene {
    static SCENE: OnceLock<EmittedScene> = OnceLock::new();
    SCENE.get_or_init(|| build_scene(CELLS))
}

fn listen((scene, plan, _): &EmittedScene, threads: usize) -> Vec<ShardEvent> {
    let mut sharded = ShardedController::new(plan);
    sharded.set_threads(threads);
    sharded.calibrate(scene, Window::from_start(Duration::from_millis(500)));
    sharded.listen(
        scene,
        Window::new(Duration::from_millis(550), Duration::from_millis(500)),
    )
}

/// A flat single-mic plan cannot even allocate this deployment: it
/// exhausts the ~911-slot audible band before 120 switches.
#[test]
fn flat_plan_exhausts_before_the_target_scale() {
    let mut flat = FrequencyPlan::audible_default();
    let mut failed_at = None;
    for i in 0..CELLS * 6 {
        if let Err(e) = flat.allocate(format!("sw{i}"), 8) {
            assert!(matches!(e, PlanError::Exhausted { .. }));
            failed_at = Some(i);
            break;
        }
    }
    let failed_at = failed_at.expect("flat plan should exhaust");
    assert!(
        failed_at < 120,
        "flat plan unexpectedly fit {failed_at} switches"
    );
}

/// The tentpole claim: ≥100 switches, ≥4× frequency reuse, every tone
/// decoded and attributed to the right cell, none mis-attributed. Halls
/// of 1, 2, 4 and 8 cells decode just as exactly.
#[test]
fn hundred_twenty_switches_decode_with_reuse() {
    let (_, plan, _) = emitted_scene();
    assert!(plan.total_switches() >= 100);
    assert!(
        plan.reuse_factor() >= 4.0,
        "reuse only {}×",
        plan.reuse_factor()
    );
    for cells in [1, 2, 4, 8] {
        assert_decodes_exactly(&build_scene(cells));
    }
    assert_decodes_exactly(emitted_scene());
}

/// Listen to `run` and require the decoded `(cell, device, slot)` set to
/// equal the sounded one: accuracy 1.0, zero false attributions.
fn assert_decodes_exactly(run: &EmittedScene) {
    let (_, plan, expected) = run;
    let cells = plan.cells().len();
    assert_eq!(
        expected.len(),
        cells * 6,
        "{cells} cells: every switch sounds"
    );
    let events = listen(run, 0);
    let heard: BTreeSet<(usize, String, usize)> = events
        .iter()
        .map(|e| (e.shard, e.event.device.clone(), e.event.slot))
        .collect();
    assert_eq!(
        &heard, expected,
        "{cells} cells: decode/attribution mismatch"
    );
    // Attribution is structural: a cell's controller only knows its own
    // devices, and device names encode the cell.
    for e in &events {
        assert!(
            e.event.device.starts_with(&format!("c{}-", e.shard)),
            "event {:?} attributed across cells",
            e
        );
    }
}

/// Determinism: the merged stream is bit-identical whether the 20 cells
/// are decoded by 1, 2, 3, 8, or 20 worker threads.
#[test]
fn merged_stream_is_bit_identical_for_any_thread_count() {
    let reference = listen(emitted_scene(), 1);
    assert!(!reference.is_empty());
    for threads in [2, 3, 8, 20] {
        let got = listen(emitted_scene(), threads);
        assert_eq!(got, reference, "thread count {threads} changed the stream");
    }
}

/// The planner's interference bound is not hand-waved: the worst-case
/// foreign-reuse scene, replayed through the real detector pipeline,
/// produces zero local attributions in every cell.
#[test]
fn planner_worst_case_verified_against_detector() {
    plan_hall(CELLS).verify_reuse(SR).unwrap();
}

/// Per-cell counters and the reuse-factor gauge flow through mdn-obs.
#[test]
fn obs_reports_per_cell_counters_and_reuse_gauge() {
    let (scene, plan, expected) = emitted_scene();
    let registry = Registry::new();
    let mut sharded = ShardedController::new(plan);
    sharded.attach_obs(&registry);
    sharded.calibrate(scene, Window::from_start(Duration::from_millis(500)));
    let events = sharded.listen(
        scene,
        Window::new(Duration::from_millis(550), Duration::from_millis(500)),
    );
    let snap = registry.snapshot();
    assert_eq!(
        snap.gauges["mdn_cells_reuse_factor"],
        plan.reuse_factor(),
        "reuse gauge"
    );
    assert_eq!(snap.gauges["mdn_cells_total"], CELLS as f64);
    let mut counted = 0;
    for c in 0..CELLS {
        let key = format!("mdn_cell_events_total{{cell=\"{c}\"}}");
        let per_cell = snap.counters.get(key.as_str()).copied().unwrap_or(0);
        assert!(per_cell > 0, "cell {c} decoded nothing");
        counted += per_cell;
    }
    assert_eq!(counted, events.len() as u64);
    assert_eq!(
        expected.len(),
        plan.total_switches(),
        "every switch sounded exactly once"
    );
}
