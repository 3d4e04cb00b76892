//! Self-healing chaos: the closed acoustic control loop under seeded
//! mid-run faults.
//!
//! A four-cell deployment runs a steady tick loop — every switch sounds
//! its slot-0 tone each tick, the [`SelfHealingController`] listens,
//! re-tunes detector floors from its streaming ambient estimate, and
//! feeds hear/miss evidence into the health ledger — while the ambient
//! bed drifts louder tick by tick. Mid-run, two faults land at once:
//!
//! * cell 1's **microphone dies** (a positional mic kill covering only
//!   its mic), starving every switch the cell binds, and
//! * cell 2's **speaker `c2-s0` drops out** for a bounded window (a dead
//!   amplifier on one switch, not a dead mic).
//!
//! The loop must tell the two apart: the all-switches-starve signature
//! declares cell 1's mic dead and evacuates the cell — its switches
//! migrate onto a neighbour's spare slots via
//! [`CellPlan::replan_without_cell`], the patched plan is re-proven with
//! `verify_reuse`, and the sharded controller hot-swaps plans between
//! capture windows — while `c2-s0` merely waits out its dropout and
//! recovers in place. Both recovery times land in the health tracker's
//! MTTR ledger, exactly where the seeded timeline says they must.
//!
//! The hall, the fault script, and the sonification schedule all come
//! from `scenarios/chaos_selfheal.json` via [`ScenarioBuilder`] — the
//! same spec the CI scenario matrix runs end-to-end through the unified
//! loop. This suite keeps its own per-tick loop because it exercises
//! what the spec deliberately holds fixed: a fresh scene each tick with
//! the ambient bed drifting ~0.8 dB louder every time, forcing the
//! streaming estimator to keep the floors tracking.
//!
//! The same loop heals a mic death in any of the four cells: a rotation
//! test moves the dead mic (and the dropped speaker, one cell over) to
//! cells 0, 2 and 3.
//!
//! Everything is driven by one scenario seed, so the whole outcome —
//! per-tick hear/miss sets, the replan instant, MTTR samples, metrics,
//! journal — is bit-for-bit reproducible.

use mdn_acoustics::faults::Window;
use mdn_acoustics::scene::Scene;
use mdn_core::cells::CellPlan;
use mdn_core::scenario::{ScenarioBuilder, ScenarioSpec};
use std::collections::BTreeMap;
use std::time::Duration;

const TICK: Duration = Duration::from_millis(300);
const MS: fn(u64) -> Duration = Duration::from_millis;

/// The scenario seed: drives the ambient beds and the fault-plan noise.
const SEED: u64 = 2018;

/// Ticks in the run (4.5 s total).
const TICKS: u64 = 15;
/// Cells in the hall.
const CELLS: usize = 4;
/// The cell whose mic dies.
const DEAD_CELL: usize = 1;
/// The switch whose speaker drops out.
const DEAD_SPEAKER: &str = "c2-s0";

const SPEC_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/chaos_selfheal.json");

/// The checked-in chaos spec. The constants above are the seeded
/// timeline this suite asserts tick by tick — fail loudly here if the
/// spec file ever drifts away from them.
fn chaos_spec() -> ScenarioSpec {
    let spec = ScenarioSpec::load(SPEC_PATH).expect("load chaos scenario spec");
    assert_eq!(spec.window(), TICK, "spec window drifted from the timeline");
    assert_eq!(spec.windows, TICKS);
    assert_eq!(spec.seed, SEED);
    assert_eq!(spec.hall.cells, CELLS);
    assert_eq!(spec.faults[0].cell, Some(DEAD_CELL));
    assert_eq!(spec.faults[1].device.as_deref(), Some(DEAD_SPEAKER));
    spec
}

/// The four-cell hall the spec plans.
fn chaos_plan() -> CellPlan {
    ScenarioBuilder::new(&chaos_spec())
        .expect("chaos spec validates")
        .plan()
        .clone()
}

/// Everything observable about one scenario run, for exact comparison.
#[derive(Debug, Clone, PartialEq)]
struct ScenarioOutcome {
    /// `(tick end, evacuated cell)` for every replan the loop performed.
    replans: Vec<(Duration, usize)>,
    /// Device → tick ends at which it was expected but not decoded.
    missed: BTreeMap<String, Vec<Duration>>,
    /// Device → `(recovered at, outage duration)` MTTR samples.
    recoveries: BTreeMap<String, (Duration, Duration)>,
    /// Device → host cell in the final plan.
    final_homes: BTreeMap<String, usize>,
    /// Frequencies each migrated switch ended up sounding.
    migrated_freqs: BTreeMap<String, Vec<f64>>,
    /// Devices decoded in the final (steady-state) tick.
    final_heard: Vec<String>,
    /// Heard device-ticks / expected device-ticks over the whole run.
    availability: f64,
    /// Liveness of every cell in the final plan.
    cells_alive: Vec<bool>,
    obs_counters: BTreeMap<String, u64>,
    obs_journal: Vec<mdn_obs::JournalEvent>,
    recovery_hist: Option<(u64, u64)>,
}

/// The speaker dropped alongside `dead_cell`'s mic: the next cell's
/// first switch.
fn dropped_speaker(dead_cell: usize) -> String {
    format!("c{}-s0", (dead_cell + 1) % CELLS)
}

/// Run the chaos scenario: the spec's schedule over a drifting ambient
/// bed, with the spec's fault script injected when `inject` is set —
/// moved so that `dead_cell`'s mic dies and [`dropped_speaker`] drops.
fn run_scenario(seed: u64, dead_cell: usize, inject: bool) -> ScenarioOutcome {
    let registry = mdn_obs::Registry::new();
    let mut spec = chaos_spec();
    spec.seed = seed;
    spec.faults[0].cell = Some(dead_cell);
    spec.faults[1].device = Some(dropped_speaker(dead_cell));
    if !inject {
        spec.faults.clear();
    }
    let builder = ScenarioBuilder::new(&spec).expect("chaos spec validates");
    let faults = builder.scene_faults();
    let base_ambient = builder.ambient().clone();
    let slot = spec.emissions.slot.expect("chaos schedule pins one slot");
    let (offset, dur) = (MS(spec.emissions.offset_ms), MS(spec.emissions.duration_ms));

    let mut loop_ = builder.heal();
    loop_.attach_obs(&registry);

    let mut out = ScenarioOutcome {
        replans: Vec::new(),
        missed: BTreeMap::new(),
        recoveries: BTreeMap::new(),
        final_homes: BTreeMap::new(),
        migrated_freqs: BTreeMap::new(),
        final_heard: Vec::new(),
        availability: 0.0,
        cells_alive: Vec::new(),
        obs_counters: BTreeMap::new(),
        obs_journal: Vec::new(),
        recovery_hist: None,
    };
    let (mut expected_ticks, mut heard_ticks) = (0u64, 0u64);
    for t in 0..spec.windows {
        let start = TICK * t as u32;
        // The ambient bed drifts ~0.8 dB louder every tick — the
        // estimator must keep the floors tracking it.
        let mut profile = base_ambient.clone();
        profile.level_spl += 12.0 * t as f64 / spec.windows as f64;
        let mut scene = Scene::new(spec.sample_rate, profile);
        scene.set_ambient_seed(seed ^ t);
        scene.set_faults(faults.clone());

        // Every switch of the CURRENT plan sounds the spec's slot —
        // after a replan, migrated switches sound their new frequencies
        // from their original rack positions.
        let mut expected = Vec::new();
        for cell_devs in &mut loop_.plan().sounding_devices() {
            for dev in cell_devs {
                expected.push(dev.name.clone());
                dev.emit_slot(&mut scene, slot, start + offset, dur)
                    .unwrap();
            }
        }
        expected_ticks += expected.len() as u64;

        let r = loop_.tick(&scene, Window::new(start, TICK), &expected);
        let end = start + TICK;
        heard_ticks += r.heard.len() as u64;
        for d in &r.missed {
            out.missed.entry(d.clone()).or_default().push(end);
        }
        if let Some(cell) = r.replanned {
            out.replans.push((end, cell));
        }
        for d in &r.recovered {
            let took = loop_
                .health()
                .recovery_time(d)
                .expect("recovered without MTTR");
            out.recoveries.insert(d.clone(), (end, took));
        }
        if t == spec.windows - 1 {
            out.final_heard = r.heard.clone();
        }
    }

    out.availability = heard_ticks as f64 / expected_ticks as f64;
    out.cells_alive = loop_.plan().cells().iter().map(|c| c.alive).collect();
    for cell in loop_.plan().cells() {
        for (j, name) in cell.device_names.iter().enumerate() {
            out.final_homes.insert(name.clone(), cell.id);
            if name.starts_with(&format!("c{dead_cell}-")) && cell.id != dead_cell {
                out.migrated_freqs
                    .insert(name.clone(), cell.sets[j].freqs.clone());
            }
        }
    }

    let snap = registry.snapshot();
    out.obs_counters = snap.counters;
    out.obs_journal = snap.journal;
    out.recovery_hist = snap
        .histograms
        .get("mdn_health_recovery_ns")
        .map(|h| (h.count, h.max));
    out
}

/// The headline scenario: mic kill + speaker dropout mid-run under
/// ambient drift, and the loop heals itself — discriminating the two
/// faults, migrating the starved cell's switches onto a neighbour's
/// spare slots, and bounding both recovery times.
#[test]
fn mic_kill_and_speaker_dropout_self_heal() {
    let out = run_scenario(SEED, DEAD_CELL, true);

    // Exactly one replan: cell 1's mic death is recognised after three
    // starved ticks (the acoustic ledger's death threshold) and the cell
    // is evacuated at that very tick. Cell 2 — one dead speaker, one
    // healthy switch — is never evacuated.
    assert_eq!(
        out.replans,
        vec![(MS(2100), DEAD_CELL)],
        "the mic-dead cell must be evacuated exactly once, at the third starved tick"
    );
    assert_eq!(
        out.cells_alive,
        vec![true, false, true, true],
        "only the evacuated cell is dead in the final plan"
    );

    // Both of cell 1's switches migrated to the same neighbouring host
    // and decode there — on frequencies disjoint from their old ones
    // (the host's sub-band spares, not cell 1's band).
    let original = chaos_plan();
    let old_freqs: Vec<f64> = original.cells()[DEAD_CELL]
        .sets
        .iter()
        .flat_map(|s| s.freqs.clone())
        .collect();
    let host = out.final_homes["c1-s0"];
    assert_ne!(host, DEAD_CELL, "migrants must leave the dead cell");
    assert_eq!(
        out.final_homes["c1-s1"], host,
        "both migrants share one host"
    );
    for migrant in ["c1-s0", "c1-s1"] {
        let freqs = &out.migrated_freqs[migrant];
        assert!(!freqs.is_empty(), "{migrant} has no migrated slots");
        for f in freqs {
            assert!(
                old_freqs.iter().all(|o| (o - f).abs() > 1e-9),
                "{migrant} still sounds an old cell-{DEAD_CELL} frequency {f}"
            );
        }
    }

    // Steady state: every switch decodes again — the migrants on their
    // new slots, the dropped speaker back in place.
    for d in [
        "c0-s0", "c0-s1", "c1-s0", "c1-s1", "c2-s0", "c2-s1", "c3-s0", "c3-s1",
    ] {
        assert!(
            out.final_heard.iter().any(|h| h == d),
            "{d} not decoding in the final tick: {:?}",
            out.final_heard
        );
    }

    // Recovery times, straight off the seeded timeline. The migrants
    // starve for three ticks, die and are evacuated at 2.1 s, and decode
    // on the very next tick: MTTR = one tick. The dropped speaker
    // accrues a fourth miss before its window ends, so reviving takes a
    // second heard tick: MTTR = two ticks.
    assert_eq!(
        out.recoveries["c1-s0"],
        (MS(2400), TICK),
        "migrant MTTR is one tick"
    );
    assert_eq!(out.recoveries["c1-s1"], (MS(2400), TICK));
    assert_eq!(
        out.recoveries[DEAD_SPEAKER],
        (MS(2700), TICK * 2),
        "the dropped speaker recovers in place two ticks after evacuation"
    );
    for (d, (_, took)) in &out.recoveries {
        assert!(*took <= TICK * 2, "{d} recovery unbounded: {took:?}");
    }

    // Misses are exactly the fault windows: three starved ticks for each
    // of the mic-dead cell's switches, four for the dropped speaker
    // (its window outlives the evacuation by one tick), none anywhere
    // else.
    assert_eq!(out.missed["c1-s0"], vec![MS(1500), MS(1800), MS(2100)]);
    assert_eq!(out.missed["c1-s1"], vec![MS(1500), MS(1800), MS(2100)]);
    assert_eq!(
        out.missed[DEAD_SPEAKER],
        vec![MS(1500), MS(1800), MS(2100), MS(2400)]
    );
    assert_eq!(
        out.missed.len(),
        3,
        "no device outside the faults ever missed"
    );
    assert!(
        out.availability > 0.9,
        "availability {:.3} below the healed-run floor",
        out.availability
    );
}

/// The obs registry is a second witness: the loop's counters, the health
/// ledger's MTTR histogram, and the journal must all replay the same
/// story the tick reports told.
#[test]
fn selfheal_metrics_and_journal_replay_the_run() {
    let out = run_scenario(SEED, DEAD_CELL, true);
    let c = &out.obs_counters;

    assert_eq!(c["mdn_selfheal_ticks_total"], TICKS);
    assert_eq!(c["mdn_selfheal_replans_total"], 1);
    assert_eq!(
        c.get("mdn_selfheal_replan_failures_total")
            .copied()
            .unwrap_or(0),
        0
    );
    assert_eq!(c["mdn_cells_plan_swaps_total"], 1);
    assert!(
        c["mdn_selfheal_retunes_total"] >= TICKS,
        "floors re-tuned every tick"
    );

    // Three acoustic deaths (two starved migrants + the dropped
    // speaker), three recoveries, and an MTTR sample for each capped by
    // the slowest (the speaker's two ticks).
    assert_eq!(c["mdn_health_acoustic_deaths_total"], 3);
    assert_eq!(c["mdn_health_recoveries_total"], 3);
    let (count, max) = out.recovery_hist.expect("recovery histogram missing");
    assert_eq!(count, 3);
    assert_eq!(max, (TICK * 2).as_nanos() as u64);

    // The journal replays the evacuation and all three recoveries.
    let replans: Vec<_> = out
        .obs_journal
        .iter()
        .filter(|e| e.kind == "selfheal.replan")
        .collect();
    assert_eq!(replans.len(), 1);
    assert_eq!(replans[0].at, MS(2100));
    assert!(replans[0].detail.contains(&format!("cell {DEAD_CELL}")));
    let recovered: Vec<_> = out
        .obs_journal
        .iter()
        .filter(|e| e.kind == "health.recovered")
        .collect();
    assert_eq!(recovered.len(), 3);
    for d in ["c1-s0", "c1-s1", DEAD_SPEAKER] {
        assert!(
            recovered.iter().any(|e| e.detail.starts_with(d)),
            "{d} never journaled a recovery"
        );
    }
}

/// The rotation: the mic dies in cell 0, 2 or 3 instead (the dropped
/// speaker follows, one cell over). Each heals the same way: exactly one evacuation, of the dead cell;
/// all eight switches heard in the last tick; an MTTR sample of at most
/// two ticks for both migrants and the dropped speaker; availability
/// above 0.85.
#[test]
fn every_dead_cell_rotation_self_heals() {
    for dead_cell in (0..CELLS).filter(|&c| c != DEAD_CELL) {
        let out = run_scenario(SEED, dead_cell, true);
        let evacuated: Vec<usize> = out.replans.iter().map(|&(_, cell)| cell).collect();
        assert_eq!(
            evacuated,
            vec![dead_cell],
            "dead cell {dead_cell}: evacuations"
        );
        assert_eq!(
            out.final_heard.len(),
            CELLS * 2,
            "dead cell {dead_cell}: not every switch decodes after healing: {:?}",
            out.final_heard
        );
        let affected = [
            format!("c{dead_cell}-s0"),
            format!("c{dead_cell}-s1"),
            dropped_speaker(dead_cell),
        ];
        for d in &affected {
            let (_, took) = out
                .recoveries
                .get(d)
                .unwrap_or_else(|| panic!("dead cell {dead_cell}: {d} has no MTTR sample"));
            assert!(
                *took <= TICK * 2,
                "dead cell {dead_cell}: {d} took {took:?}"
            );
        }
        assert!(
            out.availability > 0.85,
            "dead cell {dead_cell}: availability {:.3}",
            out.availability
        );
    }
}

/// The patched plan the loop swapped in is provably legal: the scenario
/// runs with `verify_on_replan` on (the default), so the evacuation
/// itself re-proved reuse; this re-checks the final plan from scratch.
#[test]
fn patched_plan_passes_verify_reuse() {
    let spec = chaos_spec();
    let patched = chaos_plan().replan_without_cell(DEAD_CELL).unwrap();
    patched.verify_reuse(spec.sample_rate).unwrap();
}

/// Inversion: the same loop with no faults injected never replans, never
/// records a death, and hears every switch on every tick.
#[test]
fn without_faults_nothing_heals_because_nothing_breaks() {
    let out = run_scenario(SEED, DEAD_CELL, false);
    assert!(out.replans.is_empty(), "replanned a healthy deployment");
    assert!(
        out.missed.is_empty(),
        "missed ticks without faults: {:?}",
        out.missed
    );
    assert!(out.recoveries.is_empty());
    assert_eq!(out.availability, 1.0);
    assert!(out.cells_alive.iter().all(|&a| a));
    assert_eq!(
        out.obs_counters
            .get("mdn_health_acoustic_deaths_total")
            .copied()
            .unwrap_or(0),
        0
    );
}

/// Same seed, same everything: the entire outcome — replan instant,
/// miss sets, MTTR samples, metrics, journal — is identical across runs.
#[test]
fn selfheal_chaos_is_deterministic() {
    let a = run_scenario(SEED, DEAD_CELL, true);
    let b = run_scenario(SEED, DEAD_CELL, true);
    assert_eq!(a, b);
}

/// `verify_on_replan` in an ultrasound-fitted hall: the re-plan proof
/// sounds the worst-case foreign tones through the default cheap
/// speaker, whose band ends at 15 kHz, while this hall's high sub-bands
/// sit above it. The evacuation must fail as a typed re-plan failure —
/// journalled and counted, the old plan kept — instead of aborting the
/// run. The mic dies at 0.3 s and is declared dead in the fourth (last)
/// window, so the run sees exactly one attempt.
#[test]
fn ultrasound_hall_verify_failure_is_a_replan_failure_not_a_panic() {
    let spec = ScenarioSpec::from_json(
        r#"{
          "name": "ultrasound_verify",
          "seed": 7,
          "windows": 4,
          "hall": {
            "cells": 6,
            "ambient": "office",
            "speaker": "ultrasound",
            "cell": { "switches_per_cell": 2, "slots_per_switch": 16 }
          },
          "selfheal": { "config": { "verify_on_replan": true } },
          "emissions": { "pattern": "all", "slot": 0 },
          "faults": [ { "kind": "mic_dead", "cell": 1, "at_ms": 300 } ]
        }"#,
    )
    .expect("spec parses");

    let batch = mdn_core::scenario::run_batch(&spec).expect("batch run");
    assert_eq!(batch.len(), 4);
    assert!(batch.iter().all(|w| w.replanned.is_none()), "no plan swap");
    assert_eq!(batch[3].missed.len(), 2, "cell 1's two switches starve");

    // The event path replays the same windows and exposes the counters.
    let registry = mdn_obs::Registry::new();
    let out = mdn_core::scenario::run(&spec, &registry).expect("event run");
    assert_eq!(out.windows, batch);
    let counters = registry.snapshot().counters;
    assert_eq!(counters["mdn_selfheal_replan_failures_total"], 1);
    assert_eq!(
        counters
            .get("mdn_selfheal_replans_total")
            .copied()
            .unwrap_or(0),
        0
    );
    let failures: Vec<_> = registry
        .journal()
        .events()
        .into_iter()
        .filter(|e| e.kind == "selfheal.replan_failed")
        .collect();
    assert_eq!(failures.len(), 1);
    assert!(
        failures[0].detail.contains("outside speaker band"),
        "{}",
        failures[0].detail
    );
}
