//! Property: the unified event-driven control loop is *bit-identical*
//! to the fixed-tick batch loop.
//!
//! The batch loop pre-builds each window's emissions and calls
//! [`SelfHealingController::tick`] from an outer `for` loop; the
//! event path schedules the same emissions as heap events on the
//! network's `(time, seq)` queue — interleaved with live packet traffic
//! — and lets window boundaries and heal passes fire as events. For
//! random seeds, window lengths, emission schedules, acoustic fault
//! scripts, and thread counts, both must decode the *same bytes*: equal
//! [`WindowReport`] streams — events, heard/missed sets, replan
//! decisions and recoveries all included.
//!
//! Both paths are driven through the scenario harness: proptest draws a
//! [`ScenarioSpec`] (a `small_hall` preset with an explicit emission
//! schedule, a pair network under CBR, and one of four fault scripts),
//! and the property holds `mdn_core::scenario::run` equal to
//! `mdn_core::scenario::run_batch` on it. The seeded fuzz harness
//! (`scenario --fuzz`) checks the same invariant over its own spec
//! stream; this suite keeps proptest shrinking on top.
//!
//! Why this holds (and what would break it): a rendered sample can only
//! depend on emissions whose delayed signal has already started, so
//! adding emissions at event-fire time instead of up front cannot
//! change any window's samples — *provided the scene receives them in
//! the same order* (f32 mixing is order-sensitive). The loop's heap
//! breaks time ties by schedule order, and the runner schedules each
//! window's emissions in time-sorted order, reproducing the batch
//! insertion order exactly. Any seam bug — an event at a boundary
//! counted in the wrong window, a capture that doesn't match
//! `[from, from+len)` — shows up here as a byte diff.
//!
//! [`SelfHealingController::tick`]: mdn_core::selfheal::SelfHealingController::tick
//! [`WindowReport`]: mdn_core::scenario::WindowReport
//! [`ScenarioSpec`]: mdn_core::scenario::ScenarioSpec

use mdn_acoustics::mic::CAPTURE_LANES;
use mdn_audio::signal::Window;
use mdn_core::controller::LISTEN_PRE_ROLL;
use mdn_core::scenario::{
    self, EmissionSpec, EmitSpec, FaultSpec, ScenarioBuilder, ScenarioSpec, TrafficSpec,
};
use mdn_core::selfheal::TickReport;
use mdn_obs::Registry;
use proptest::prelude::*;
use std::time::Duration;

const WINDOWS: u64 = 3;

/// A seeded mid-run acoustic fault script.
#[derive(Debug, Clone, Copy)]
enum FaultKind {
    None,
    /// Device 0's speaker drops out across windows 1–2.
    SpeakerDropout,
    /// A loud wide-band burst over window 1.
    NoiseBurst,
    /// Cell 1's mic dies from window 1 on (starves its switches).
    MicDead,
}

/// The drawn inputs as a scenario spec: the same 2-cell, 2×3-switch
/// office hall the suite always used, with the schedule spelled out as
/// explicit emissions and the fault script as spec fault entries.
fn spec_for(seed: u64, win_ms: u64, emits: Vec<EmitSpec>, kind: FaultKind) -> ScenarioSpec {
    let mut spec = ScenarioSpec::small_hall(2, 2, 3, "office");
    spec.name = "equivalence".into();
    spec.seed = seed;
    spec.window_ms = win_ms;
    spec.windows = WINDOWS;
    // A live two-host network so packet Deliver/PortFree/Generate events
    // interleave with every control event on the one heap.
    spec.traffic = TrafficSpec {
        topology: "pair".into(),
        ..TrafficSpec::default()
    };
    spec.emissions = EmissionSpec {
        pattern: "explicit".into(),
        explicit: emits,
        ..EmissionSpec::default()
    };
    let total_ms = win_ms * WINDOWS;
    spec.faults = match kind {
        FaultKind::None => vec![],
        FaultKind::SpeakerDropout => vec![FaultSpec {
            kind: "speaker_dropout".into(),
            device: Some("c0-s0".into()),
            at_ms: win_ms,
            until_ms: Some(total_ms),
            ..FaultSpec::default()
        }],
        FaultKind::NoiseBurst => vec![FaultSpec {
            kind: "noise_burst".into(),
            level_db: Some(60.0),
            at_ms: win_ms,
            until_ms: Some(win_ms * 2),
            ..FaultSpec::default()
        }],
        FaultKind::MicDead => vec![FaultSpec {
            kind: "mic_dead".into(),
            cell: Some(1),
            at_ms: win_ms,
            until_ms: Some(total_ms),
            ..FaultSpec::default()
        }],
    };
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The headline equivalence: batch and event-driven outcomes are
    /// equal byte-for-byte for thread counts 0, 1, and 4 — and all
    /// thread counts agree with each other.
    #[test]
    fn event_loop_matches_batch_loop_bit_for_bit(
        seed in any::<u64>(),
        win_ms in 250u64..400,
        raw_emits in prop::collection::vec(
            (0u64..WINDOWS, 0u64..1000, 0usize..4, 0usize..3, 40u64..120),
            3..10,
        ),
        kind_sel in 0u8..4,
    ) {
        let kind = match kind_sel {
            0 => FaultKind::None,
            1 => FaultKind::SpeakerDropout,
            2 => FaultKind::NoiseBurst,
            _ => FaultKind::MicDead,
        };
        let emits: Vec<EmitSpec> = raw_emits
            .into_iter()
            .map(|(window, permil, dev, slot, dur_ms)| EmitSpec { window, permil, dev, slot, dur_ms })
            .collect();
        let n_emits = emits.len();
        let spec = spec_for(seed, win_ms, emits, kind);

        let reference = scenario::run_batch(&spec).expect("batch reference");
        for threads in [0usize, 1, 4] {
            let mut s = spec.clone();
            s.selfheal.threads = threads;
            let batch = scenario::run_batch(&s).expect("batch run");
            prop_assert_eq!(
                &batch, &reference,
                "batch loop diverged across thread counts (threads={})", threads
            );
            let outcome = scenario::run(&s, &Registry::new()).expect("event run");
            prop_assert_eq!(
                &outcome.windows, &batch,
                "event loop diverged from batch (threads={})", threads
            );
            prop_assert!(
                outcome.events_total > 0,
                "packet traffic ran on the same heap"
            );
        }
        prop_assert!(!reference.is_empty());
        // At least the schedule's devices appear as heard-or-missed.
        let accounted: usize = reference.iter().map(|w| w.heard.len() + w.missed.len()).sum();
        prop_assert_eq!(accounted, n_emits, "every scheduled emission is accounted");
    }
}

/// Consecutive heal windows in the shared-render property.
const HEAL_WINDOWS: u64 = 5;

/// Consecutive windows in the carried pre-roll property: enough for a
/// dead mic's three missed ticks to evacuate its cell mid-run.
const CARRY_WINDOWS: u64 = 8;

/// A hall of one whole capture group and a partial one: the shard
/// listens batch the captures of up to [`CAPTURE_LANES`] cells, so with
/// cell 1's mic dead, the evacuated cell sits inside the first group.
const GROUPS_HALL: usize = CAPTURE_LANES + 3;

/// A tick's report and every cell's detector floors (as bits) after it.
type HealStep = (TickReport, Vec<Vec<u64>>);

/// What a [`heal_run`] schedules besides its windows.
struct Drive<'a> {
    /// The first window's length; the rest are `spec.window_ms` long.
    first_ms: u64,
    /// `(window, permil, device, slot, dur_ms)` tones.
    emits: &'a [EmitSpec],
    /// The device that sounds at exactly each window's end.
    edge_dev: usize,
    /// Sound every device of cell 1 once per window, so a dead mic there
    /// is evacuated mid-run.
    starve_cell_1: bool,
    /// Windows after whose heal a tone starts 40 ms before the boundary:
    /// inside the span the next listen would carry.
    late: &'a [u64],
    /// Retire spent emissions after each window up to the next listen's
    /// pre-roll, as `UnifiedLoop`'s GC does.
    gc: bool,
}

/// Drive `spec`'s hall over `spec.windows` consecutive windows as `drive`
/// schedules them. With `shared`, each window is one `tick`, which
/// analyses the listen's own render and carries each cell's pre-roll
/// render over from the window before; otherwise it is a fresh
/// `sharded().listen` plus `heal_pass`, which renders the whole
/// pre-rolled span and then the window again, with the end-of-window
/// tone added between the two halves. Each step comes with how many cell
/// listens reused their carried pre-roll.
fn heal_run(spec: &ScenarioSpec, drive: &Drive, shared: bool) -> Vec<(HealStep, u64)> {
    let builder = ScenarioBuilder::new(spec).expect("spec validates");
    let mut scene = builder.scene(None).expect("scene builds");
    let mut heal = builder.heal();
    let registry = Registry::new();
    heal.attach_obs(&registry);
    let carried_total = || {
        registry
            .snapshot()
            .counters
            .get("mdn_listen_pre_roll_carried_total")
            .copied()
            .unwrap_or(0)
    };
    let cells = builder.device_names();
    let names: Vec<String> = cells.concat();
    let hall_m = spec.hall.cell.cell_pitch_m * spec.hall.cells as f64 + 10.0;
    let gc_bound = Duration::from_secs_f64(hall_m / 343.0 + 0.1);
    let mut carried: Vec<String> = Vec::new();
    let mut from = Duration::ZERO;
    let mut out = Vec::new();
    for t in 0..spec.windows {
        let ms = if t == 0 {
            drive.first_ms
        } else {
            spec.window_ms
        };
        let len = Duration::from_millis(ms);
        let w = Window::new(from, len);
        let mut expected = std::mem::take(&mut carried);
        let mut tones: Vec<(Duration, String, usize, Duration)> = drive
            .emits
            .iter()
            .filter(|e| e.window == t)
            .map(|e| {
                let at = from + len * e.permil as u32 / 1000;
                let name = names[e.dev % names.len()].clone();
                (at, name, e.slot, Duration::from_millis(e.dur_ms))
            })
            .collect();
        if drive.starve_cell_1 {
            for (i, name) in cells[1].iter().enumerate() {
                let at = from + Duration::from_millis(30 + 40 * i as u64);
                tones.push((at, name.clone(), 1, Duration::from_millis(60)));
            }
        }
        tones.sort_by_key(|tone| tone.0);
        for (at, name, slot, dur) in tones {
            if let Some(mut d) = heal.plan().sounding_device(&name) {
                let _ = d.emit_slot(&mut scene, slot, at, dur);
                expected.push(name);
            }
        }
        // A tone at exactly `w.end()` starts no sample of `w`; it is the
        // next window's evidence. It plays from the plan the window was
        // listened under, evacuated after it or not.
        let edge = names[drive.edge_dev % names.len()].clone();
        let mut edge_dev = heal.plan().sounding_device(&edge).expect("device");
        let edge_tone = Duration::from_millis(60);
        let before = carried_total();
        let report = if shared {
            let report = heal.tick(&scene, w, &expected);
            let _ = edge_dev.emit_slot(&mut scene, 0, w.end(), edge_tone);
            report
        } else {
            let events = heal.sharded().listen(&scene, w);
            let _ = edge_dev.emit_slot(&mut scene, 0, w.end(), edge_tone);
            heal.heal_pass(&scene, w, &expected, events)
        };
        let reused = carried_total() - before;
        carried.push(edge);
        if drive.late.contains(&t) {
            let name = &names[(t as usize + 1) % names.len()];
            if let Some(mut d) = heal.plan().sounding_device(name) {
                let at = w.end() - Duration::from_millis(40);
                let _ = d.emit_slot(&mut scene, 2, at, Duration::from_millis(60));
            }
        }
        if drive.gc {
            scene.retire_emissions_before(w.end().saturating_sub(LISTEN_PRE_ROLL), gc_bound);
        }
        let floors = heal
            .sharded()
            .controllers()
            .iter()
            .map(|ctl| {
                ctl.detector()
                    .map(|d| d.noise_floor().iter().map(|f| f.to_bits()).collect())
                    .unwrap_or_default()
            })
            .collect();
        out.push(((report, floors), reused));
        from = w.end();
    }
    out
}

/// Hold a shared run to the fresh reference, window by window, and check
/// how many cells reused their carried pre-roll in each: every live cell,
/// except in the first window, after a tone landed inside the carried
/// span (`late`) and after an evacuation rebuilt the cells, where none.
fn check_shared_run(
    shared: &[(HealStep, u64)],
    reference: &[(HealStep, u64)],
    cells: u64,
    late: &[u64],
) -> Result<(), String> {
    let replanned = |t: usize| shared[t].0 .0.replanned.is_some();
    for (t, ((step, reused), (want, _))) in shared.iter().zip(reference).enumerate() {
        prop_assert_eq!(step, want, "window {} diverged from the fresh listen", t);
        let invalidated = t
            .checked_sub(1)
            .is_none_or(|p| late.contains(&(p as u64)) || replanned(p));
        let live = cells - (0..t).filter(|&p| replanned(p)).count() as u64;
        let want_reused = if invalidated { 0 } else { live };
        prop_assert_eq!(*reused, want_reused, "window {}: carried pre-rolls", t);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `tick` cuts the ambient retune's analysis out of each cell's one
    /// listen render; `sharded().listen` + `heal_pass` renders the window
    /// a second time for it. Over consecutive windows — the first at
    /// `w.from` = 0, the second with its pre-roll clamped short of
    /// 150 ms — the two give the same reports and bit-identical detector
    /// floors, under each acoustic fault, for shard threads 0, 1, 4, on a
    /// hall of one partial capture group and on one of a whole group and
    /// a partial one.
    #[test]
    fn shared_render_tick_matches_rerender_heal_pass(
        seed in any::<u64>(),
        first_ms in 20u64..150,
        win_ms in 150u64..350,
        raw_emits in prop::collection::vec(
            (0u64..HEAL_WINDOWS, 0u64..1000, 0usize..4, 0usize..3, 40u64..120),
            3..12,
        ),
        edge_dev in 0usize..4,
        kind_sel in 0u8..4,
    ) {
        let emits: Vec<EmitSpec> = raw_emits
            .into_iter()
            .map(|(window, permil, dev, slot, dur_ms)| EmitSpec { window, permil, dev, slot, dur_ms })
            .collect();
        for cells in [2, GROUPS_HALL] {
            let mut spec = ScenarioSpec::small_hall(cells, 2, 3, "office");
            spec.seed = seed;
            spec.window_ms = win_ms;
            spec.windows = HEAL_WINDOWS;
            let total_ms = first_ms + win_ms * (HEAL_WINDOWS - 1);
            spec.faults = match kind_sel {
                0 => vec![],
                1 => vec![FaultSpec {
                    kind: "mic_dead".into(),
                    cell: Some(1),
                    at_ms: first_ms,
                    until_ms: Some(total_ms),
                    ..FaultSpec::default()
                }],
                2 => vec![FaultSpec {
                    kind: "noise_burst".into(),
                    level_db: Some(60.0),
                    at_ms: first_ms / 2,
                    until_ms: Some(first_ms + win_ms),
                    ..FaultSpec::default()
                }],
                _ => vec![FaultSpec {
                    kind: "speaker_degraded".into(),
                    device: Some("c0-s0".into()),
                    level_db: Some(12.0),
                    at_ms: 0,
                    until_ms: Some(total_ms),
                    ..FaultSpec::default()
                }],
            };
            let drive = Drive {
                first_ms,
                emits: &emits,
                edge_dev,
                starve_cell_1: false,
                late: &[],
                gc: false,
            };

            spec.selfheal.threads = 1;
            let reference = heal_run(&spec, &drive, false);
            for threads in [0usize, 1, 4] {
                spec.selfheal.threads = threads;
                let shared = heal_run(&spec, &drive, true);
                check_shared_run(&shared, &reference, cells as u64, &[])
                    .map_err(|e| format!("{cells} cells, threads={threads}: {e}"))?;
            }
            prop_assert!(
                reference.iter().any(|((r, _), _)| !r.events.is_empty()),
                "the schedule decoded something"
            );
        }
    }

    /// `tick` carries each cell's pre-roll render from one window to the
    /// next and renders only the new window; a fresh `listen` renders the
    /// whole pre-rolled span every time. Over consecutive windows with
    /// tones at the boundaries, scene GC, each fault plan and (under a
    /// dead mic) an evacuation mid-run, both give the same reports and
    /// bit-identical detector floors for shard threads 0, 1 and 4. A tone
    /// that lands inside the carried span makes the next listen render
    /// the whole span again. The dead mic also runs on a hall of a whole
    /// capture group and a partial one, where the evacuated cell sits
    /// inside the first group and the first two windows' pre-rolls are
    /// clamped.
    #[test]
    fn carried_pre_roll_tick_matches_fresh_listen(
        seed in any::<u64>(),
        win_ms in 150u64..350,
        raw_emits in prop::collection::vec(
            (0u64..CARRY_WINDOWS, 0u64..1000, 0usize..4, 0usize..3, 40u64..120),
            3..12,
        ),
        edge_dev in 0usize..4,
        late in prop::collection::vec(0u64..CARRY_WINDOWS - 1, 1..3),
        first_ms in 20u64..150,
    ) {
        let emits: Vec<EmitSpec> = raw_emits
            .into_iter()
            .map(|(window, permil, dev, slot, dur_ms)| EmitSpec { window, permil, dev, slot, dur_ms })
            .collect();
        let total_ms = win_ms * CARRY_WINDOWS;
        // Every fault plan on the two-cell hall, whose cells share one
        // capture group; then the dead mic on a hall of whole and partial
        // groups, with a short first window so that the second window's
        // pre-roll is clamped too.
        let runs = (0..4)
            .map(|kind_sel| (2, kind_sel, win_ms))
            .chain([(GROUPS_HALL, 1, first_ms)]);
        for (cells, kind_sel, first_ms) in runs {
            let mut spec = ScenarioSpec::small_hall(cells, 2, 3, "office");
            spec.seed = seed;
            spec.window_ms = win_ms;
            spec.windows = CARRY_WINDOWS;
            spec.faults = match kind_sel {
                0 => vec![],
                1 => vec![FaultSpec {
                    kind: "mic_dead".into(),
                    cell: Some(1),
                    at_ms: win_ms,
                    until_ms: Some(total_ms),
                    ..FaultSpec::default()
                }],
                2 => vec![FaultSpec {
                    kind: "noise_burst".into(),
                    level_db: Some(60.0),
                    at_ms: win_ms / 2,
                    until_ms: Some(win_ms * 3),
                    ..FaultSpec::default()
                }],
                _ => vec![FaultSpec {
                    kind: "speaker_dropout".into(),
                    device: Some("c0-s0".into()),
                    at_ms: win_ms,
                    until_ms: Some(win_ms * 4),
                    ..FaultSpec::default()
                }],
            };
            let drive = Drive {
                first_ms,
                emits: &emits,
                edge_dev,
                starve_cell_1: kind_sel == 1,
                late: &late,
                gc: true,
            };

            spec.selfheal.threads = 1;
            let fresh = heal_run(&spec, &drive, false);
            for threads in [0usize, 1, 4] {
                spec.selfheal.threads = threads;
                let carried = heal_run(&spec, &drive, true);
                check_shared_run(&carried, &fresh, cells as u64, &late).map_err(|e| {
                    format!("{cells} cells, fault {kind_sel}, threads={threads}: {e}")
                })?;
            }
            prop_assert!(
                fresh.iter().any(|((r, _), _)| !r.events.is_empty()),
                "the schedule decoded something"
            );
            if drive.starve_cell_1 {
                prop_assert!(
                    fresh.iter().any(|((r, _), _)| r.replanned == Some(1)),
                    "the dead mic's cell was evacuated mid-run"
                );
            }
        }
    }
}
