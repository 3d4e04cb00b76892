//! Seeded scenario fuzzing: generate small random specs and assert the
//! pipeline's standing invariants on every one.
//!
//! Each case draws a hall, a window length, a hand-placed emission
//! schedule and a fault script from a [`SplitMix64`] stream, and the
//! packet fabric (a `pair` or a small `leaf_spine`) plus a mix of
//! `speaker_degraded`, `music` and `link_flap` faults from a second
//! stream seeded by the case, then checks:
//!
//! 1. **Windowed ≡ batch** — the event-driven run's per-window reports
//!    equal the fixed-tick batch reference byte-for-byte (the
//!    equivalence property, exercised over spec-shaped inputs).
//! 2. **Any-thread-count determinism** — shard thread counts 0, 1 and 4
//!    all produce that same byte-identical outcome.
//! 3. **No foreign-cell leaks** — `CellPlan::verify_reuse` replays the
//!    worst-case foreign-interference scene through the real detector
//!    pipeline and finds zero cross-cell attributions.
//! 4. **Accounting** — every scheduled emission shows up as exactly one
//!    heard-or-missed entry.
//!
//! Everything derives from one u64 seed, so a failing case's number and
//! seed reproduce it exactly (`scenario --fuzz N --seed S`).

use super::run::run_batch;
use super::spec::{EmissionSpec, EmitSpec, FaultSpec, ScenarioError, ScenarioSpec, TrafficSpec};
use super::{ScenarioBuilder, SplitMix64};
use mdn_obs::Registry;

/// What a fuzz batch covered.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzReport {
    /// Cases generated and checked.
    pub cases: u32,
    /// Window reports compared across all paths.
    pub windows_checked: u64,
    /// Emissions scheduled across all cases.
    pub emissions_checked: u64,
}

/// Mixed into a case's seed to start its second stream.
const EXTRA_STREAM: u64 = 0xA5A5_5A5A_C3C3_3C3C;

/// One random small-hall spec. Small on purpose: 2–3 cells of 2×3
/// switches keeps a case under a second while still exercising replans,
/// dropouts, degraded speakers, bursts, music, link flaps and packet
/// interleaving.
fn random_spec(rng: &mut SplitMix64, case: u32) -> ScenarioSpec {
    let cells = rng.range(2, 4) as usize;
    let windows = rng.range(2, 4);
    let mut spec = ScenarioSpec::small_hall(cells, 2, 3, "office");
    spec.name = format!("fuzz-{case}");
    spec.seed = rng.next_u64();
    spec.window_ms = rng.range(250, 400);
    spec.windows = windows;
    // Live packet traffic on the same heap, so Deliver/Generate events
    // interleave with every control event.
    spec.traffic = TrafficSpec {
        topology: "pair".into(),
        ..TrafficSpec::default()
    };

    // A hand-placed schedule, time-sorted per window by the runner.
    let devices = cells * 2;
    let n_emits = rng.range(3, 10);
    let explicit: Vec<EmitSpec> = (0..n_emits)
        .map(|_| EmitSpec {
            window: rng.range(0, windows),
            permil: rng.range(0, 1000),
            dev: rng.range(0, devices as u64) as usize,
            slot: rng.range(0, 3) as usize,
            dur_ms: rng.range(40, 120),
        })
        .collect();
    spec.emissions = EmissionSpec {
        pattern: "explicit".into(),
        explicit,
        ..EmissionSpec::default()
    };

    // A seeded mid-run fault, one of the equivalence suite's four kinds.
    let total_ms = spec.window_ms * spec.windows;
    spec.faults = match rng.range(0, 4) {
        0 => vec![],
        1 => vec![FaultSpec {
            kind: "speaker_dropout".into(),
            device: Some("c0-s0".into()),
            at_ms: spec.window_ms,
            until_ms: Some(total_ms),
            ..FaultSpec::default()
        }],
        2 => vec![FaultSpec {
            kind: "noise_burst".into(),
            level_db: Some(60.0),
            at_ms: spec.window_ms,
            until_ms: Some(spec.window_ms * 2),
            ..FaultSpec::default()
        }],
        _ => vec![FaultSpec {
            kind: "mic_dead".into(),
            cell: Some(1),
            at_ms: spec.window_ms,
            until_ms: Some(total_ms),
            ..FaultSpec::default()
        }],
    };

    // A second stream, so these draws never shift the cases `rng`
    // generates after this one.
    let mut x = SplitMix64::new(spec.seed ^ EXTRA_STREAM);
    if x.range(0, 2) == 1 {
        spec.traffic.topology = "leaf_spine".into();
        spec.traffic.spines = x.range(1, 3) as usize;
        spec.traffic.leaves = x.range(2, 5) as usize;
    }
    for kind in ["link_flap", "speaker_degraded", "music"] {
        if x.range(0, 2) == 0 || (kind == "link_flap" && spec.traffic.topology == "pair") {
            continue;
        }
        let at_ms = x.range(0, total_ms);
        let cell = x.range(0, cells as u64) as usize;
        // An attenuation for a degraded speaker, an SPL for music.
        let level_db = if kind == "music" {
            x.range(50, 80)
        } else {
            x.range(3, 30)
        };
        spec.faults.push(FaultSpec {
            kind: kind.into(),
            at_ms,
            until_ms: Some(x.range(at_ms + 1, total_ms + 1)),
            cell: Some(cell),
            device: Some(format!("c{cell}-s{}", x.range(0, 2))),
            level_db: Some(level_db as f64),
            leaf: Some(x.range(0, spec.traffic.leaves as u64) as usize),
            tempo_bpm: x.range(120, 360) as f64,
            ..FaultSpec::default()
        });
    }
    spec
}

/// Run `cases` random specs from `seed`, asserting every invariant.
/// Returns the coverage report, or the first violation as an error
/// naming the case.
pub fn fuzz(cases: u32, seed: u64) -> Result<FuzzReport, ScenarioError> {
    let mut rng = SplitMix64::new(seed);
    let mut report = FuzzReport {
        cases,
        windows_checked: 0,
        emissions_checked: 0,
    };
    for case in 0..cases {
        let spec = random_spec(&mut rng, case);
        let fail = |what: String| ScenarioError::Run(format!("fuzz case {case}: {what}"));

        // Invariant 3: the planner's interference bound holds against
        // the real detector — no foreign-cell leaks.
        ScenarioBuilder::new(&spec)?
            .plan()
            .verify_reuse(spec.sample_rate)
            .map_err(|e| fail(format!("verify_reuse rejected the plan: {e:?}")))?;

        // Invariant 1 reference: the fixed-tick batch loop.
        let reference = run_batch(&spec)?;

        // Invariants 1 + 2: the event loop matches the batch reference
        // for every thread count, hence all thread counts match each
        // other.
        for threads in [0usize, 1, 4] {
            let mut s = spec.clone();
            s.selfheal.threads = threads;
            let batch = run_batch(&s)?;
            if batch != reference {
                return Err(fail(format!(
                    "batch loop diverged across thread counts (threads={threads})"
                )));
            }
            let outcome = super::run::run(&s, &Registry::new())?;
            if outcome.windows != reference {
                return Err(fail(format!(
                    "event loop diverged from batch (threads={threads})"
                )));
            }
        }

        // Invariant 4: every scheduled emission is accounted for as
        // heard or missed, exactly once.
        let accounted: usize = reference
            .iter()
            .map(|w| w.heard.len() + w.missed.len())
            .sum();
        if accounted != spec.emissions.explicit.len() {
            return Err(fail(format!(
                "{} emissions scheduled but {accounted} accounted as heard+missed",
                spec.emissions.explicit.len()
            )));
        }

        report.windows_checked += spec.windows * 4; // batch ref + 3 event runs
        report.emissions_checked += spec.emissions.explicit.len() as u64;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_draws_every_fault_kind_and_both_fabrics() {
        let mut rng = SplitMix64::new(7);
        let mut kinds = std::collections::BTreeSet::new();
        let mut topologies = std::collections::BTreeSet::new();
        for case in 0..64 {
            let spec = random_spec(&mut rng, case);
            spec.validate().expect("generated specs validate");
            kinds.extend(spec.faults.iter().map(|f| f.kind.clone()));
            topologies.insert(spec.traffic.topology.clone());
        }
        let all = [
            "link_flap",
            "mic_dead",
            "music",
            "noise_burst",
            "speaker_degraded",
            "speaker_dropout",
        ];
        assert_eq!(kinds.into_iter().collect::<Vec<_>>(), all);
        assert_eq!(
            topologies.into_iter().collect::<Vec<_>>(),
            ["leaf_spine", "pair"]
        );
    }
}
