//! The scenario DSL's contract: specs round-trip through JSON
//! bit-identically, malformed experiments are rejected with a typed
//! error naming the offending field, and every checked-in spec under
//! `scenarios/` (the CI matrix) parses, validates, and plans.

use mdn_core::scenario::spec::{MAX_CELLS, MAX_FABRIC_SWITCHES};
use mdn_core::scenario::{
    AppSpec, EmissionSpec, EmitSpec, ExpectSpec, FaultSpec, ScenarioBuilder, ScenarioError,
    ScenarioSpec, TrafficSpec,
};
use std::time::Duration;

/// A spec that strays from the defaults in every block, so the
/// round-trip exercises the whole tree, not just the overlay's no-op
/// path.
fn golden() -> ScenarioSpec {
    let mut spec = ScenarioSpec::leaf_spine_hall(3, 2, 8, 5);
    spec.name = "golden".into();
    spec.seed = 77;
    spec.sample_rate = 48_000;
    spec.window_ms = 250;
    spec.hall.ambient_spl = Some(48.5);
    spec.hall.gc = false;
    spec.selfheal.threads = 4;
    spec.emissions = EmissionSpec {
        pattern: "explicit".into(),
        offset_ms: 40,
        duration_ms: 120,
        slot: None,
        explicit: vec![
            EmitSpec {
                window: 0,
                permil: 250,
                dev: 2,
                slot: 1,
                dur_ms: 90,
            },
            EmitSpec {
                window: 4,
                permil: 0,
                dev: 17,
                slot: 7,
                dur_ms: 60,
            },
        ],
    };
    spec.traffic = TrafficSpec {
        topology: "leaf_spine".into(),
        spines: 2,
        leaves: 8,
        pps: 120.5,
        size: 640,
        stagger_ms: 10,
        ..TrafficSpec::default()
    };
    spec.faults = vec![
        FaultSpec {
            kind: "mic_dead".into(),
            cell: Some(1),
            at_ms: 300,
            radius_m: 2.5,
            ..FaultSpec::default()
        },
        FaultSpec {
            kind: "music".into(),
            cell: Some(0),
            at_ms: 250,
            until_ms: Some(1000),
            level_db: Some(92.0),
            tempo_bpm: 180.0,
            notes: vec![440.0, 660.0],
            ..FaultSpec::default()
        },
        FaultSpec {
            kind: "link_flap".into(),
            leaf: Some(3),
            at_ms: 500,
            until_ms: Some(750),
            ..FaultSpec::default()
        },
    ];
    spec.apps = vec![AppSpec {
        at_ms: 100,
        token: 9,
    }];
    spec.output.bench_json = Some("results/golden.json".into());
    spec.output.trace_cap = Some(4096);
    spec.expect = ExpectSpec {
        min_availability: Some(0.9),
        replans: Some(1),
        replanned_cell: Some(1),
        drops: Some(true),
        ..ExpectSpec::default()
    };
    spec
}

/// spec → JSON → spec is the identity, and the re-serialized text is
/// byte-identical — nothing is lost, reordered, or defaulted away.
#[test]
fn golden_spec_round_trips_bit_identically() {
    let spec = golden();
    spec.validate().expect("golden spec validates");
    let json = spec.to_json();
    let back = ScenarioSpec::from_json(&json).expect("reparse");
    assert_eq!(back, spec, "round-trip changed the spec");
    assert_eq!(back.to_json(), json, "round-trip changed the JSON text");
}

/// A default spec round-trips too (the all-defaults overlay).
#[test]
fn default_spec_round_trips() {
    let spec = ScenarioSpec::default();
    let back = ScenarioSpec::from_json(&spec.to_json()).unwrap();
    assert_eq!(back, spec);
}

/// A typo'd or unknown knob must not silently run the default
/// experiment.
#[test]
fn unknown_keys_are_hard_errors() {
    for text in [
        r#"{"windoes": 4}"#,
        r#"{"hall": {"cels": 2}}"#,
        r#"{"expect": {"min_avalability": 0.9}}"#,
        r#"{"selfheal": {"config": {"health": {"decay": 0.85}}}}"#,
    ] {
        match ScenarioSpec::from_json(text) {
            Err(ScenarioError::Parse(_)) => {}
            other => panic!("typo in {text} not rejected as a parse error: {other:?}"),
        }
    }
}

/// Negative evidence weights turn the acoustic ledger around: every
/// heard tone raises the score until a healthy device is declared dead
/// and its cell evacuated. An infinite death threshold (`1e999` parses
/// as one) turns the ledger off. Such specs are refused before they run.
#[test]
fn negative_health_weights_are_rejected() {
    for (text, field) in [
        (
            r#"{"selfheal": {"config": {"health": {"missed_tone_penalty": -1.5, "heard_tone_reward": -3.0}}}}"#,
            "missed_tone_penalty",
        ),
        (
            r#"{"selfheal": {"config": {"health": {"acoustic_dead_at": 1e999}}}}"#,
            "acoustic_dead_at",
        ),
    ] {
        let spec = ScenarioSpec::from_json(text).expect("the spec parses");
        match ScenarioBuilder::new(&spec).map(|_| ()) {
            Err(ScenarioError::Config(e)) => {
                assert_eq!(e.field, "health");
                assert!(e.reason.starts_with(&format!("{field}:")), "{e}");
            }
            other => panic!("{text} not rejected: {other:?}"),
        }
    }
}

/// The rejection table: each structural violation is refused with the
/// offending field's dotted path.
#[test]
fn validation_rejects_malformed_specs_by_field() {
    type Mutation = Box<dyn Fn(&mut ScenarioSpec)>;
    let mutations: Vec<(&str, Mutation)> = vec![
        ("windows", Box::new(|s| s.windows = 0)),
        ("window_ms", Box::new(|s| s.window_ms = 0)),
        // The run's length overflows u64 milliseconds.
        (
            "windows",
            Box::new(|s| {
                s.window_ms = u64::MAX;
                s.windows = 4;
            }),
        ),
        // Ten-minute windows: 26.5 M samples per listen buffer.
        ("window_ms", Box::new(|s| s.window_ms = 600_000)),
        ("window_ms", Box::new(|s| s.sample_rate = u32::MAX)),
        ("hall.cells", Box::new(|s| s.hall.cells = 0)),
        ("hall.cells", Box::new(|s| s.hall.cells = 1 << 32)),
        ("hall.cells", Box::new(|s| s.hall.cells = MAX_CELLS + 1)),
        ("hall.ambient", Box::new(|s| s.hall.ambient = "cave".into())),
        ("hall.speaker", Box::new(|s| s.hall.speaker = "horn".into())),
        // Overlapping cells: racks spaced wider than the cell pitch.
        (
            "hall.cell.cell_pitch_m",
            Box::new(|s| {
                s.hall.cell.rack_spacing_m = 7.0;
                s.hall.cell.cell_pitch_m = 6.5;
            }),
        ),
        (
            "emissions.pattern",
            Box::new(|s| s.emissions.pattern = "sometimes".into()),
        ),
        (
            "emissions.duration_ms",
            Box::new(|s| s.emissions.duration_ms = 0),
        ),
        // A tone longer than a window's sample cap: one huge allocation.
        (
            "emissions.duration_ms",
            Box::new(|s| s.emissions.duration_ms = u64::MAX),
        ),
        // Slot outside the per-switch set.
        ("emissions.slot", Box::new(|s| s.emissions.slot = Some(99))),
        (
            "emissions.explicit",
            Box::new(|s| {
                s.emissions.pattern = "explicit".into();
                s.emissions.explicit = vec![EmitSpec {
                    window: 99,
                    permil: 0,
                    dev: 0,
                    slot: 0,
                    dur_ms: 50,
                }];
            }),
        ),
        (
            "emissions.explicit[0]",
            Box::new(|s| {
                s.emissions.pattern = "explicit".into();
                s.emissions.explicit = vec![EmitSpec {
                    window: 0,
                    permil: 0,
                    dev: 0,
                    slot: 0,
                    dur_ms: 10_000_000,
                }];
            }),
        ),
        (
            "traffic.topology",
            Box::new(|s| s.traffic.topology = "ring".into()),
        ),
        (
            "traffic.pps",
            Box::new(|s| {
                s.traffic.topology = "pair".into();
                s.traffic.pps = 0.0;
            }),
        ),
        (
            "traffic",
            Box::new(|s| {
                s.traffic.topology = "leaf_spine".into();
                s.traffic.spines = 4;
                s.traffic.leaves = MAX_FABRIC_SWITCHES;
            }),
        ),
        (
            "traffic",
            Box::new(|s| {
                s.traffic.topology = "leaf_spine".into();
                s.traffic.spines = usize::MAX;
                s.traffic.leaves = usize::MAX;
            }),
        ),
        (
            "faults[0]",
            Box::new(|s| {
                s.faults = vec![FaultSpec {
                    kind: "earthquake".into(),
                    at_ms: 100,
                    ..FaultSpec::default()
                }]
            }),
        ),
        (
            "faults[0]",
            Box::new(|s| {
                s.faults = vec![FaultSpec {
                    kind: "mic_dead".into(),
                    cell: Some(99),
                    at_ms: 100,
                    ..FaultSpec::default()
                }]
            }),
        ),
        (
            "faults[0]",
            Box::new(|s| {
                s.faults = vec![FaultSpec {
                    kind: "noise_burst".into(),
                    at_ms: 500,
                    until_ms: Some(400),
                    ..FaultSpec::default()
                }]
            }),
        ),
        (
            "faults[0]",
            Box::new(|s| {
                s.faults = vec![FaultSpec {
                    kind: "speaker_dropout".into(),
                    at_ms: 100,
                    ..FaultSpec::default()
                }]
            }),
        ),
        // A tempo so slow its note overflows a Duration (a panic in the
        // builder), and one so fast its note is zero-length (a note loop
        // that never ends).
        (
            "faults[0]",
            Box::new(|s| {
                s.faults = vec![FaultSpec {
                    kind: "music".into(),
                    tempo_bpm: 1e-300,
                    ..FaultSpec::default()
                }]
            }),
        ),
        (
            "faults[0]",
            Box::new(|s| {
                s.faults = vec![FaultSpec {
                    kind: "music".into(),
                    tempo_bpm: f64::INFINITY,
                    ..FaultSpec::default()
                }]
            }),
        ),
        // Music with no `until_ms` renders to the horizon in one buffer:
        // here 3 000 000 s of samples.
        (
            "faults[0]",
            Box::new(|s| {
                s.windows = 10_000_000;
                s.faults = vec![FaultSpec {
                    kind: "music".into(),
                    ..FaultSpec::default()
                }]
            }),
        ),
        // link_flap without a fabric to flap.
        (
            "faults[0]",
            Box::new(|s| {
                s.faults = vec![FaultSpec {
                    kind: "link_flap".into(),
                    leaf: Some(0),
                    at_ms: 100,
                    until_ms: Some(200),
                    ..FaultSpec::default()
                }]
            }),
        ),
        (
            "apps[0]",
            Box::new(|s| {
                s.apps = vec![AppSpec {
                    at_ms: 10_000_000,
                    token: 0,
                }]
            }),
        ),
    ];
    // Rejections only the planned hall can make: the spec validates, and
    // `ScenarioBuilder::new` refuses it. The hall has switches c0-s0 to
    // c1-s1.
    let speaker_fault = |kind: &str, device: &str| FaultSpec {
        kind: kind.into(),
        device: Some(device.into()),
        at_ms: 100,
        ..FaultSpec::default()
    };
    let planned: Vec<(&str, Mutation)> = vec![
        (
            "faults[0]",
            Box::new(move |s| s.faults = vec![speaker_fault("speaker_dropout", "c9-s7")]),
        ),
        (
            "faults[1]",
            Box::new(move |s| {
                s.faults = vec![
                    speaker_fault("speaker_dropout", "c1-s1"),
                    speaker_fault("speaker_degraded", "c0-s2"),
                ]
            }),
        ),
    ];
    let cases = mutations.into_iter().map(|(field, m)| (field, m, false));
    for (field, mutate, planned) in cases.chain(planned.into_iter().map(|(f, m)| (f, m, true))) {
        let mut spec = ScenarioSpec::small_hall(2, 2, 3, "office");
        mutate(&mut spec);
        let validated = spec.validate();
        let built = ScenarioBuilder::new(&spec).map(|_| ());
        if planned {
            assert_eq!(validated, Ok(()), "`{field}` case fails validation");
        } else {
            assert_eq!(
                built, validated,
                "builder and validation disagree on `{field}`"
            );
        }
        match built {
            Err(ScenarioError::Invalid { field: got, .. }) => assert!(
                got.contains(field),
                "expected rejection naming `{field}`, got `{got}`"
            ),
            other => panic!("mutation of `{field}` not rejected: {other:?}"),
        }
    }
}

/// Slots the speaker cannot drive are refused by the planner, not
/// silently dropped: a 100-cell hall needs sub-bands past the cheap
/// testbed speaker's ceiling, so planning it without ultrasound
/// hardware must fail.
#[test]
fn planner_rejects_slots_outside_the_speaker_band() {
    let mut spec = ScenarioSpec::leaf_spine_hall(100, 2, 8, 2);
    spec.hall.speaker = "cheap".into();
    match ScenarioBuilder::new(&spec).map(|_| ()) {
        Err(ScenarioError::Plan(_)) => {}
        other => panic!("cheap-speaker 100-cell hall not rejected by the planner: {other:?}"),
    }
}

/// Every checked-in spec — the CI scenario matrix — parses, validates,
/// and plans. A spec that rots in the repo fails here first.
#[test]
fn all_checked_in_scenarios_parse_validate_and_plan() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios");
    let mut seen = 0;
    for entry in std::fs::read_dir(dir).expect("scenarios/ exists") {
        let path = entry.expect("read scenarios/").path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let spec = ScenarioSpec::load(path.to_str().unwrap())
            .unwrap_or_else(|e| panic!("{path:?} failed to parse: {e}"));
        ScenarioBuilder::new(&spec)
            .unwrap_or_else(|e| panic!("{path:?} failed to validate/plan: {e}"));
        seen += 1;
    }
    assert!(seen >= 8, "scenario matrix shrank to {seen} specs");
}

/// The limits sit well above every real experiment: the benchmark's
/// specs (the 100-cell hall over a 600-switch fabric among them) still
/// parse, validate and plan.
#[test]
fn benchmark_specs_validate_and_plan() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/mdnbench/specs");
    let mut seen = 0;
    for entry in std::fs::read_dir(dir).expect("mdnbench/specs/ exists") {
        let path = entry.expect("read mdnbench/specs/").path();
        let spec = ScenarioSpec::load(path.to_str().unwrap())
            .unwrap_or_else(|e| panic!("{path:?} failed to parse: {e}"));
        ScenarioBuilder::new(&spec)
            .unwrap_or_else(|e| panic!("{path:?} failed to validate/plan: {e}"));
        seen += 1;
    }
    assert_eq!(seen, 3, "hall_600, fabric and chaos");
}

/// A run of more than `u32::MAX` windows keeps its full length: the
/// horizon does not truncate the window count to 32 bits.
#[test]
fn horizon_counts_every_window() {
    let mut spec = ScenarioSpec::small_hall(2, 2, 3, "office");
    spec.window_ms = 1;
    spec.windows = (1 << 32) + 3;
    spec.validate()
        .expect("a long run of short windows is valid");
    assert_eq!(spec.total(), Duration::from_millis((1 << 32) + 3));
}
