//! The workloads: scenario specs lowered through `mdn_core::scenario`.

use mdn_core::scenario::{EmitSpec, FaultSpec, ScenarioSpec, SplitMix64};
use std::time::Duration;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// `soak_600`'s hall and fabric, cut to one pass of 40 windows.
    Hall600,
    /// The same fabric at 10x the per-host rate over a one-cell hall.
    Fabric,
    /// A 20-cell cheap-speaker hall with a seeded fault script and
    /// sparse seeded emissions; re-plan verification on.
    Chaos,
}

pub const ALL: [Workload; 3] = [Workload::Hall600, Workload::Fabric, Workload::Chaos];

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::Hall600 => "hall_600",
            Self::Fabric => "fabric",
            Self::Chaos => "chaos",
        }
    }

    /// Whether `--seed` changes this workload's inputs. The two fabric
    /// workloads replay fixed `soak_600` cuts; their outcome is recorded
    /// once for every seed.
    pub fn seeded(self) -> bool {
        self == Self::Chaos
    }

    /// About how long one pass steps at the reference host speed,
    /// seconds: a run of `--seconds` steps `--seconds` ÷ this many
    /// passes, rounded, so every run of a workload does the same work.
    pub fn pass_seconds(self) -> f64 {
        match self {
            Self::Hall600 => 25.0,
            Self::Fabric => 15.0,
            Self::Chaos => 6.0,
        }
    }

    /// The scenario spec the workload runs at `seed`.
    pub fn spec(self, seed: u64) -> ScenarioSpec {
        let text = match self {
            Self::Hall600 => include_str!("../specs/hall_600.json"),
            Self::Fabric => include_str!("../specs/fabric.json"),
            Self::Chaos => include_str!("../specs/chaos.json"),
        };
        let mut spec = ScenarioSpec::from_json(text).expect("benchmark spec parses");
        if self == Self::Chaos {
            seed_chaos(&mut spec, seed);
        }
        spec
    }
}

/// Fill in the chaos hall's emission schedule and fault script from
/// `seed`.
///
/// Every cell sounds in one seeded window of each block of four: all of
/// its switches, each at a seeded offset in the window's first half (so
/// a 150 ms tone ends inside its window) and a seeded slot. About a
/// quarter of the switches sound per window and about three quarters
/// of the cell-windows are silent. The stratified cadence makes each
/// cell sound every 1-7 windows, so a dead mic always starves its whole
/// cell into an evacuation.
///
/// Faults: two mic deaths in cells at least five apart, early enough
/// that both verified evacuations land inside the run; a speaker
/// dropout, a degraded speaker, a noise burst and music interference,
/// all away from the dying cells and their neighbours, so every
/// evacuation finds a healthy host.
fn seed_chaos(spec: &mut ScenarioSpec, seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let cells = spec.hall.cells as u64;
    let per_cell = spec.hall.cell.switches_per_cell as u64;
    let slots = spec.hall.cell.slots_per_switch as u64;
    spec.seed = seed;

    let mut explicit = Vec::new();
    for block in (0..spec.windows).step_by(4) {
        for cell in 0..cells {
            let window = block + rng.range(0, 4);
            for dev in cell * per_cell..(cell + 1) * per_cell {
                let emit = EmitSpec {
                    window,
                    permil: rng.range(0, 500),
                    dev: dev as usize,
                    slot: rng.range(0, slots) as usize,
                    dur_ms: 150,
                };
                if window < spec.windows {
                    explicit.push(emit);
                }
            }
        }
    }
    explicit.sort_by_key(|e| (e.window, e.permil, e.dev));
    spec.emissions.explicit = explicit;

    let dying_a = rng.range(0, cells);
    let dying_b = loop {
        let c = rng.range(0, cells);
        if c.abs_diff(dying_a) >= 5 {
            break c;
        }
    };
    let mut healthy_cell = || loop {
        let c = rng.range(0, cells);
        if c.abs_diff(dying_a) > 1 && c.abs_diff(dying_b) > 1 {
            break c as usize;
        }
    };
    let (dropout, degraded, music) = (healthy_cell(), healthy_cell(), healthy_cell());
    let device = |cell: usize, rng: &mut SplitMix64| format!("c{cell}-s{}", rng.range(0, per_cell));
    let dropout_dev = device(dropout, &mut rng);
    let degraded_dev = device(degraded, &mut rng);
    let mic_a = rng.range(900, 2400);
    let mic_b = rng.range(6000, 8000);
    let dropout_at = rng.range(3000, 6000);
    let degraded_at = rng.range(4000, 9000);
    let burst_at = rng.range(9000, 12000);
    let music_at = rng.range(12000, 15000);
    spec.faults = vec![
        FaultSpec {
            kind: "mic_dead".into(),
            cell: Some(dying_a as usize),
            at_ms: mic_a,
            ..FaultSpec::default()
        },
        FaultSpec {
            kind: "mic_dead".into(),
            cell: Some(dying_b as usize),
            at_ms: mic_b,
            ..FaultSpec::default()
        },
        FaultSpec {
            kind: "speaker_dropout".into(),
            device: Some(dropout_dev),
            at_ms: dropout_at,
            until_ms: Some(dropout_at + 1500),
            ..FaultSpec::default()
        },
        FaultSpec {
            kind: "speaker_degraded".into(),
            device: Some(degraded_dev),
            level_db: Some(25.0),
            at_ms: degraded_at,
            until_ms: Some(degraded_at + 3000),
            ..FaultSpec::default()
        },
        FaultSpec {
            kind: "noise_burst".into(),
            at_ms: burst_at,
            until_ms: Some(burst_at + 600),
            ..FaultSpec::default()
        },
        FaultSpec {
            kind: "music".into(),
            cell: Some(music),
            at_ms: music_at,
            until_ms: Some(music_at + 1500),
            ..FaultSpec::default()
        },
    ];
}

/// Window `t`'s emissions `(at, device, slot, duration)` in the order
/// the scenario harness schedules them: `rotate` sounds switch
/// `(t + c) mod per_cell` of every cell; `explicit` plays the window's
/// hand-placed list, stably sorted by offset; `none` sounds nothing.
pub fn window_emissions<'a>(
    spec: &ScenarioSpec,
    names: &'a [Vec<String>],
    t: u64,
) -> Vec<(Duration, &'a str, usize, Duration)> {
    let win = spec.window();
    let e = &spec.emissions;
    let ms = Duration::from_millis;
    match e.pattern.as_str() {
        "rotate" => {
            let per_cell = spec.hall.cell.switches_per_cell;
            let slot = t as usize % spec.hall.cell.slots_per_switch;
            let at = win * t as u32 + ms(e.offset_ms);
            names
                .iter()
                .enumerate()
                .map(|(c, cell)| {
                    let j = (t as usize + c) % per_cell;
                    (at, cell[j].as_str(), slot, ms(e.duration_ms))
                })
                .collect()
        }
        "explicit" => {
            let flat: Vec<&String> = names.iter().flatten().collect();
            let mut emits: Vec<&EmitSpec> = e.explicit.iter().filter(|em| em.window == t).collect();
            emits.sort_by_key(|em| em.permil);
            emits
                .into_iter()
                .map(|em| {
                    let at = win * em.window as u32 + win.mul_f64(em.permil as f64 / 1000.0);
                    (at, flat[em.dev].as_str(), em.slot, ms(em.dur_ms))
                })
                .collect()
        }
        "none" => Vec::new(),
        other => panic!("benchmark specs use rotate, explicit or no emissions, not {other}"),
    }
}

/// The network side of `spec` alone: the same fabric, traffic and link
/// flaps under a one-cell hall that never sounds. Its stepping loop is
/// `mdn-net`'s dispatch and event queue plus a negligible listen.
pub fn network_only(spec: &ScenarioSpec) -> ScenarioSpec {
    let mut net = spec.clone();
    net.hall.cells = 1;
    net.emissions.pattern = "none".into();
    net.faults.retain(|f| f.kind == "link_flap");
    net
}
