//! The declarative scenario spec: every knob an experiment needs, as one
//! serde-backed value tree.
//!
//! A [`ScenarioSpec`] captures what the soak bench, the chaos tests, the
//! scale tests and the examples used to hand-roll: hall geometry and the
//! cell plan, the self-heal loop's tuning, the traffic mix, the fault
//! script, the sonification schedule, seeds, duration, and output sinks.
//! Specs round-trip through JSON bit-identically (`from_json` ∘ `to_json`
//! is the identity), and [`ScenarioSpec::validate`] rejects malformed
//! experiments with a typed [`ScenarioError`] naming the offending field
//! — overlapping cells, unknown fault kinds, slots past the set size —
//! before anything is built.
//!
//! Deserialization is overlay-on-default: a spec file only states what it
//! changes, and unknown keys are hard errors (a typo'd knob must not
//! silently run the default experiment).

use crate::cells::{CellConfig, CellPlanError};
use crate::selfheal::SelfHealConfig;
use std::fmt;
use std::time::Duration;

// Size limits `ScenarioSpec::validate` enforces, so that a typo'd size
// fails validation rather than the allocator. Each sits far above the
// largest checked-in spec: 100 cells, 4 spines + 596 leaves, 300 ms windows.

/// Most cells in a hall.
pub const MAX_CELLS: usize = 10_000;
/// Most switches (`spines + leaves`) in a leaf-spine fabric.
pub const MAX_FABRIC_SWITCHES: usize = 10_000;
/// Most samples in one capture window (over six minutes at 44.1 kHz).
pub const MAX_WINDOW_SAMPLES: u64 = 1 << 24;

/// Anything that can go wrong turning a spec into a running experiment.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The JSON didn't parse or didn't match the spec shape.
    Parse(String),
    /// A field failed a structural invariant.
    Invalid {
        /// Dotted path of the offending field.
        field: String,
        /// Why it is rejected.
        reason: String,
    },
    /// A nested config struct failed its own `validate()`.
    Config(mdn_obs::ConfigError),
    /// The cell planner refused the hall (capacity, reuse safety,
    /// speaker reachability…).
    Plan(CellPlanError),
    /// A file read or write failed.
    Io {
        /// The path involved.
        path: String,
        /// The OS error text.
        err: String,
    },
    /// The run itself failed (obs bind, controller handshake, dry queue).
    Run(String),
    /// A declared expectation was not met by the run.
    Expect {
        /// Which `expect.*` check failed.
        check: String,
        /// Expected-vs-got detail.
        detail: String,
    },
}

impl ScenarioError {
    /// Shorthand for a structural validation error.
    pub fn invalid(field: impl Into<String>, reason: impl Into<String>) -> Self {
        Self::Invalid {
            field: field.into(),
            reason: reason.into(),
        }
    }
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Parse(e) => write!(f, "scenario parse error: {e}"),
            Self::Invalid { field, reason } => {
                write!(f, "invalid scenario field `{field}`: {reason}")
            }
            Self::Config(e) => write!(f, "scenario config rejected: {e}"),
            Self::Plan(e) => write!(f, "cell planner rejected the hall: {e:?}"),
            Self::Io { path, err } => write!(f, "scenario io `{path}`: {err}"),
            Self::Run(e) => write!(f, "scenario run failed: {e}"),
            Self::Expect { check, detail } => {
                write!(f, "expectation `{check}` failed: {detail}")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<serde::DeError> for ScenarioError {
    fn from(e: serde::DeError) -> Self {
        Self::Parse(e.to_string())
    }
}

impl From<mdn_obs::ConfigError> for ScenarioError {
    fn from(e: mdn_obs::ConfigError) -> Self {
        Self::Config(e)
    }
}

impl From<CellPlanError> for ScenarioError {
    fn from(e: CellPlanError) -> Self {
        Self::Plan(e)
    }
}

/// The root of the DSL: one complete experiment.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ScenarioSpec {
    /// Experiment name; becomes the `bench` key of the summary.
    pub name: String,
    /// The one seed: ambient beds, fault-plan noise, everything.
    pub seed: u64,
    /// Audio sample rate.
    pub sample_rate: u32,
    /// Capture-window length in milliseconds.
    pub window_ms: u64,
    /// How many capture windows to run.
    pub windows: u64,
    /// Hall geometry and the cell plan.
    pub hall: HallSpec,
    /// Self-heal loop tuning.
    pub selfheal: SelfHealSpec,
    /// Which switches sound when.
    pub emissions: EmissionSpec,
    /// The packet side: topology and load.
    pub traffic: TrafficSpec,
    /// Optional OpenFlow controller attached to the fabric.
    pub controller: ControllerSpec,
    /// The fault script, acoustic and network.
    pub faults: Vec<FaultSpec>,
    /// Application-level wakeups on the unified queue (controller pumps).
    pub apps: Vec<AppSpec>,
    /// Where results, traces and live metrics go.
    pub output: OutputSpec,
    /// Assertions checked after the run.
    pub expect: ExpectSpec,
}

impl Default for ScenarioSpec {
    fn default() -> Self {
        Self {
            name: "scenario".into(),
            seed: 2018,
            sample_rate: 44_100,
            window_ms: 300,
            windows: 4,
            hall: HallSpec::default(),
            selfheal: SelfHealSpec::default(),
            emissions: EmissionSpec::default(),
            traffic: TrafficSpec::default(),
            controller: ControllerSpec::default(),
            faults: Vec::new(),
            apps: Vec::new(),
            output: OutputSpec::default(),
            expect: ExpectSpec::default(),
        }
    }
}

/// The acoustic hall: cells, ambient bed, speaker hardware.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct HallSpec {
    /// Number of acoustic cells.
    pub cells: usize,
    /// Ambient bed: `quiet`, `office` or `datacenter`.
    pub ambient: String,
    /// Override the profile's SPL (drifting-ambient experiments).
    pub ambient_spl: Option<f64>,
    /// Speaker hardware: `cheap` (15 kHz ceiling) or `ultrasound`.
    pub speaker: String,
    /// Scene garbage collection: retire spent emissions past the hall's
    /// worst-case propagation bound (keeps windows byte-identical).
    pub gc: bool,
    /// Per-cell geometry and allocation knobs.
    pub cell: CellConfig,
}

impl Default for HallSpec {
    fn default() -> Self {
        Self {
            cells: 2,
            ambient: "office".into(),
            ambient_spl: None,
            speaker: "cheap".into(),
            gc: true,
            cell: CellConfig::default(),
        }
    }
}

/// Self-heal loop: shard threading plus the full [`SelfHealConfig`].
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct SelfHealSpec {
    /// Shard worker threads (0 = machine parallelism).
    pub threads: usize,
    /// The closed loop's tuning.
    pub config: SelfHealConfig,
}

/// Which switches sound in which window.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EmissionSpec {
    /// `rotate` (each cell sounds switch `(t+c) mod per_cell`, the soak
    /// idiom), `all` (every switch every window), `explicit`
    /// (the `explicit` list), or `none`.
    pub pattern: String,
    /// Offset into each window, ms (`rotate`/`all`).
    pub offset_ms: u64,
    /// Tone duration, ms (`rotate`/`all`).
    pub duration_ms: u64,
    /// Fixed slot for `all`; `None` sounds slot `t mod slots_per_switch`.
    pub slot: Option<usize>,
    /// Hand-placed emissions (`pattern = "explicit"`).
    pub explicit: Vec<EmitSpec>,
}

impl Default for EmissionSpec {
    fn default() -> Self {
        Self {
            pattern: "all".into(),
            offset_ms: 50,
            duration_ms: 150,
            slot: None,
            explicit: Vec::new(),
        }
    }
}

/// One hand-placed emission: which window, where inside it (permil of
/// the window length, so 0 lands exactly on a boundary), which device of
/// the flattened name list, which set-local slot, how long.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EmitSpec {
    /// Window index.
    pub window: u64,
    /// Position inside the window, 0..1000.
    pub permil: u64,
    /// Flattened device index (cell-major).
    pub dev: usize,
    /// Set-local slot.
    pub slot: usize,
    /// Tone duration, ms.
    pub dur_ms: u64,
}

impl Default for EmitSpec {
    fn default() -> Self {
        Self {
            window: 0,
            permil: 0,
            dev: 0,
            slot: 0,
            dur_ms: 150,
        }
    }
}

/// The packet side.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TrafficSpec {
    /// `none`, `pair` (h1—s—h2, the equivalence/controller idiom), or
    /// `leaf_spine` (the soak fabric, one host per leaf, CBR
    /// cross-traffic through exact-match spine routing).
    pub topology: String,
    /// Spine count (`leaf_spine`).
    pub spines: usize,
    /// Leaf count (`leaf_spine`).
    pub leaves: usize,
    /// Per-host CBR rate, packets/sec.
    pub pps: f64,
    /// Packet size, bytes.
    pub size: u32,
    /// Host start times are staggered `host mod stagger_ms` (`leaf_spine`).
    pub stagger_ms: u64,
    /// Leaf/edge link bandwidth, bits/sec.
    pub leaf_bw: u64,
    /// Spine link bandwidth, bits/sec (`leaf_spine`).
    pub spine_bw: u64,
    /// Per-link latency, microseconds.
    pub latency_us: u64,
}

impl Default for TrafficSpec {
    fn default() -> Self {
        Self {
            topology: "none".into(),
            spines: 2,
            leaves: 4,
            pps: 500.0,
            size: 800,
            stagger_ms: 25,
            leaf_bw: 1_000_000_000,
            spine_bw: 10_000_000_000,
            latency_us: 20,
        }
    }
}

/// The optional OpenFlow controller (requires the `pair` topology: the
/// switch starts with an empty table and a learning switch programs it
/// in-process through [`crate::ofbridge::OfAgent`]).
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ControllerSpec {
    /// Attach the controller to the pair switch.
    pub enabled: bool,
}

/// One scripted fault. `kind` selects which optional fields apply:
///
/// * `mic_dead` — `cell` (+ `radius_m`): positional mic kill at that
///   cell's microphone.
/// * `speaker_dropout` — `device`: that switch's amplifier dies.
/// * `speaker_degraded` — `device` + `level_db`: attenuation in dB.
/// * `noise_burst` — `level_db`: a wide-band burst every mic hears.
/// * `music` — `cell` (+ `level_db`, `tempo_bpm`, `notes`): music
///   playback near that cell's mic, the §3 interference case.
/// * `link_flap` — `leaf` + `until_ms`: the leaf's whole uplink bundle
///   goes down at `at_ms` and back up at `until_ms` (`leaf_spine` only).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FaultSpec {
    /// The fault kind (see type docs).
    pub kind: String,
    /// When the fault lands, ms from scenario start.
    pub at_ms: u64,
    /// When it lifts; `None` = end of run.
    pub until_ms: Option<u64>,
    /// Target cell (`mic_dead`, `music`).
    pub cell: Option<usize>,
    /// Target device name (`speaker_dropout`, `speaker_degraded`).
    pub device: Option<String>,
    /// Level: burst/music SPL, or degradation attenuation in dB.
    pub level_db: Option<f64>,
    /// Target leaf (`link_flap`).
    pub leaf: Option<usize>,
    /// Mic-kill radius, metres (`mic_dead`).
    pub radius_m: f64,
    /// Note rate (`music`).
    pub tempo_bpm: f64,
    /// Note frequencies cycled by `music` (default: A-major arpeggio).
    pub notes: Vec<f64>,
}

impl Default for FaultSpec {
    fn default() -> Self {
        Self {
            kind: String::new(),
            at_ms: 0,
            until_ms: None,
            cell: None,
            device: None,
            level_db: None,
            leaf: None,
            radius_m: 1.0,
            tempo_bpm: 240.0,
            notes: vec![440.0, 554.37, 659.25, 880.0],
        }
    }
}

/// An application wakeup on the unified queue ([`crate::eventloop::Step::App`]);
/// with a controller attached, each one pumps the OpenFlow channel.
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct AppSpec {
    /// When the wakeup fires, ms from scenario start.
    pub at_ms: u64,
    /// Opaque token handed back by the loop.
    pub token: u64,
}

/// Output sinks. This is also the ONE place the legacy environment
/// overrides are honoured — see [`OutputSpec::apply_env_overrides`].
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct OutputSpec {
    /// Write the summary JSON here (in addition to stdout).
    pub bench_json: Option<String>,
    /// Write retained trace spans as Chrome trace-event JSON here.
    pub trace_out: Option<String>,
    /// Trace ring capacity in spans (default 262144 when tracing is on).
    pub trace_cap: Option<u64>,
    /// Serve `/metrics`, `/snapshot`, `/trace?since=` here for the run's
    /// lifetime (use `:0` for an ephemeral port).
    pub obs_addr: Option<String>,
    /// Keep the obs server up this many seconds after the report.
    pub obs_hold_secs: Option<u64>,
}

impl OutputSpec {
    /// Overlay the legacy environment knobs onto the spec. The variables
    /// `MDN_TRACE_OUT`, `MDN_TRACE_CAP`, `MDN_OBS_ADDR` and
    /// `MDN_OBS_HOLD_SECS` are parsed here and nowhere else; a set
    /// variable wins over the spec file, an unset one leaves it alone.
    pub fn apply_env_overrides(&mut self) {
        if let Ok(v) = std::env::var("MDN_TRACE_OUT") {
            self.trace_out = Some(v);
        }
        if let Some(v) = std::env::var("MDN_TRACE_CAP")
            .ok()
            .and_then(|v| v.parse().ok())
        {
            self.trace_cap = Some(v);
        }
        if let Ok(v) = std::env::var("MDN_OBS_ADDR") {
            self.obs_addr = Some(v);
        }
        if let Some(v) = std::env::var("MDN_OBS_HOLD_SECS")
            .ok()
            .and_then(|v| v.parse().ok())
        {
            self.obs_hold_secs = Some(v);
        }
    }
}

/// Post-run assertions, checked by [`super::run::execute`]. `None`
/// skips the check.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ExpectSpec {
    /// Heard / expected device-windows floor.
    pub min_availability: Option<f64>,
    /// Exact number of evacuations.
    pub replans: Option<u64>,
    /// The cell the (first) evacuation must target.
    pub replanned_cell: Option<usize>,
    /// The first evacuation must land after this instant, ms.
    pub replan_after_ms: Option<u64>,
    /// Exact count of fired tone emissions.
    pub tone_events: Option<u64>,
    /// Fabric delivery floor.
    pub min_packets_delivered: Option<u64>,
    /// Whether the run must (true) or must not (false) drop packets.
    pub drops: Option<bool>,
    /// Controller floor: FlowMods applied to the live table.
    pub min_flow_mods: Option<u64>,
    /// Controller floor: PacketIns sent up to the controller.
    pub min_packet_ins: Option<u64>,
    /// Every scheduled emission must actually play (no emit failures).
    pub all_emissions_play: bool,
}

impl Default for ExpectSpec {
    fn default() -> Self {
        Self {
            min_availability: None,
            replans: None,
            replanned_cell: None,
            replan_after_ms: None,
            tone_events: None,
            min_packets_delivered: None,
            drops: None,
            min_flow_mods: None,
            min_packet_ins: None,
            all_emissions_play: true,
        }
    }
}

const AMBIENTS: &[&str] = &["quiet", "office", "datacenter"];
const SPEAKERS: &[&str] = &["cheap", "ultrasound"];
const PATTERNS: &[&str] = &["rotate", "all", "explicit", "none"];
const TOPOLOGIES: &[&str] = &["none", "pair", "leaf_spine"];
const FAULT_KINDS: &[&str] = &[
    "mic_dead",
    "speaker_dropout",
    "speaker_degraded",
    "noise_burst",
    "music",
    "link_flap",
];

fn known(field: &str, value: &str, table: &[&str]) -> Result<(), ScenarioError> {
    if table.contains(&value) {
        return Ok(());
    }
    Err(ScenarioError::invalid(
        field,
        format!("unknown value `{value}` (expected one of {})", table.join("|")),
    ))
}

impl ScenarioSpec {
    /// The capture-window length.
    pub fn window(&self) -> Duration {
        Duration::from_millis(self.window_ms)
    }

    /// The simulated horizon: `windows × window`. Saturates for the
    /// overflowing lengths [`Self::validate`] rejects.
    pub fn total(&self) -> Duration {
        Duration::from_millis(self.window_ms.saturating_mul(self.windows))
    }

    /// Parse a spec from JSON (overlay-on-default; unknown keys are
    /// errors). Does not validate — call [`Self::validate`] (or build
    /// via [`super::ScenarioBuilder`], which does).
    pub fn from_json(text: &str) -> Result<Self, ScenarioError> {
        let v = serde_json::from_str(text).map_err(|e| ScenarioError::Parse(e.to_string()))?;
        Ok(<Self as serde::Deserialize>::from_value(&v)?)
    }

    /// Pretty-printed JSON of the full spec (every field explicit, so
    /// round-trips are bit-identical).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("spec serialization is infallible")
    }

    /// Load a spec from a JSON file.
    pub fn load(path: &str) -> Result<Self, ScenarioError> {
        let text = std::fs::read_to_string(path).map_err(|e| ScenarioError::Io {
            path: path.into(),
            err: e.to_string(),
        })?;
        Self::from_json(&text)
    }

    /// Structural validation: every cheap invariant that doesn't need the
    /// cell planner. Planner-level rejections (capacity, reuse safety,
    /// slots outside the speaker band) surface from
    /// [`super::ScenarioBuilder::new`], which runs this first.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.windows == 0 {
            return Err(ScenarioError::invalid("windows", "a run needs at least one window"));
        }
        if self.window_ms == 0 {
            return Err(ScenarioError::invalid(
                "window_ms",
                "zero-length capture windows render nothing",
            ));
        }
        if self.sample_rate == 0 {
            return Err(ScenarioError::invalid("sample_rate", "must be non-zero"));
        }
        let total_ms = self.window_ms.checked_mul(self.windows).ok_or_else(|| {
            ScenarioError::invalid("windows", "the run's length overflows u64 milliseconds")
        })?;
        // A window's listen buffer and a tone's signal are each one
        // allocation of this many samples.
        let samples = |ms: u64| u128::from(ms) * u128::from(self.sample_rate) / 1000;
        let window_samples = samples(self.window_ms);
        if window_samples > u128::from(MAX_WINDOW_SAMPLES) {
            return Err(ScenarioError::invalid(
                "window_ms",
                format!("{window_samples} samples per window exceed {MAX_WINDOW_SAMPLES}"),
            ));
        }

        // Hall.
        let h = &self.hall;
        if h.cells == 0 || h.cells > MAX_CELLS {
            return Err(ScenarioError::invalid(
                "hall.cells",
                format!("a hall needs 1 to {MAX_CELLS} cells, not {}", h.cells),
            ));
        }
        known("hall.ambient", &h.ambient, AMBIENTS)?;
        known("hall.speaker", &h.speaker, SPEAKERS)?;
        let c = &h.cell;
        if c.switches_per_cell == 0 || c.slots_per_switch == 0 {
            return Err(ScenarioError::invalid(
                "hall.cell",
                "switches_per_cell and slots_per_switch must be at least 1",
            ));
        }
        let bad_len = |m: f64| m.is_nan() || m <= 0.0;
        if bad_len(c.rack_spacing_m) || bad_len(c.cell_pitch_m) {
            return Err(ScenarioError::invalid(
                "hall.cell",
                "rack_spacing_m and cell_pitch_m must be positive",
            ));
        }
        // Overlapping cells: a cell's rack row spans
        // `rack_spacing_m × (switches_per_cell − 1)` metres; the next
        // cell starts `cell_pitch_m` away. A span reaching the pitch
        // means two cells' racks interleave and per-cell attribution is
        // geometric nonsense.
        let span = c.rack_spacing_m * (c.switches_per_cell - 1) as f64;
        if span >= c.cell_pitch_m {
            return Err(ScenarioError::invalid(
                "hall.cell.cell_pitch_m",
                format!(
                    "cells overlap: rack row spans {span:.2} m but the cell pitch is only {:.2} m",
                    c.cell_pitch_m
                ),
            ));
        }

        self.selfheal.config.validate()?;

        // Emissions.
        let e = &self.emissions;
        known("emissions.pattern", &e.pattern, PATTERNS)?;
        let slots = c.slots_per_switch;
        let devices = h.cells.saturating_mul(c.switches_per_cell);
        if matches!(e.pattern.as_str(), "rotate" | "all") {
            if e.duration_ms == 0 {
                return Err(ScenarioError::invalid(
                    "emissions.duration_ms",
                    "zero-length tones are inaudible by construction",
                ));
            }
            if samples(e.duration_ms) > u128::from(MAX_WINDOW_SAMPLES) {
                return Err(ScenarioError::invalid(
                    "emissions.duration_ms",
                    format!("tones over {MAX_WINDOW_SAMPLES} samples"),
                ));
            }
            if let Some(s) = e.slot {
                if s >= slots {
                    return Err(ScenarioError::invalid(
                        "emissions.slot",
                        format!("slot {s} outside the {slots}-slot set"),
                    ));
                }
            }
        }
        if e.pattern == "explicit" {
            for (i, em) in e.explicit.iter().enumerate() {
                let field = format!("emissions.explicit[{i}]");
                if em.window >= self.windows {
                    return Err(ScenarioError::invalid(
                        field,
                        format!("window {} past the run's {} windows", em.window, self.windows),
                    ));
                }
                if em.permil >= 1000 {
                    return Err(ScenarioError::invalid(field, "permil must be 0..1000"));
                }
                if em.dev >= devices {
                    return Err(ScenarioError::invalid(
                        field,
                        format!("device index {} past the hall's {devices} switches", em.dev),
                    ));
                }
                if em.slot >= slots {
                    return Err(ScenarioError::invalid(
                        field,
                        format!("slot {} outside the {slots}-slot set", em.slot),
                    ));
                }
                if em.dur_ms == 0 {
                    return Err(ScenarioError::invalid(field, "zero-length tone"));
                }
                if samples(em.dur_ms) > u128::from(MAX_WINDOW_SAMPLES) {
                    return Err(ScenarioError::invalid(
                        field,
                        format!("tone over {MAX_WINDOW_SAMPLES} samples"),
                    ));
                }
            }
        }

        // Traffic.
        let t = &self.traffic;
        known("traffic.topology", &t.topology, TOPOLOGIES)?;
        if t.topology != "none" && (t.pps.is_nan() || t.pps <= 0.0) {
            return Err(ScenarioError::invalid("traffic.pps", "CBR rate must be positive"));
        }
        let fabric = t.spines.saturating_add(t.leaves);
        if t.topology == "leaf_spine"
            && (t.spines == 0 || t.leaves == 0 || fabric > MAX_FABRIC_SWITCHES)
        {
            return Err(ScenarioError::invalid(
                "traffic",
                format!(
                    "a leaf-spine fabric needs a spine, a leaf and at most \
                     {MAX_FABRIC_SWITCHES} switches, not {} + {}",
                    t.spines, t.leaves
                ),
            ));
        }

        // Controller.
        if self.controller.enabled && t.topology != "pair" {
            return Err(ScenarioError::invalid(
                "controller.enabled",
                "the OpenFlow controller attaches to the `pair` topology's switch",
            ));
        }

        // Faults.
        for (i, fault) in self.faults.iter().enumerate() {
            let field = format!("faults[{i}]");
            known(&field, &fault.kind, FAULT_KINDS)?;
            if let Some(until) = fault.until_ms {
                if until <= fault.at_ms {
                    return Err(ScenarioError::invalid(
                        field,
                        format!("until_ms {until} not after at_ms {}", fault.at_ms),
                    ));
                }
            }
            match fault.kind.as_str() {
                "mic_dead" | "music" => {
                    let cell = fault.cell.unwrap_or(0);
                    if cell >= h.cells {
                        return Err(ScenarioError::invalid(
                            field,
                            format!("cell {cell} past the hall's {} cells", h.cells),
                        ));
                    }
                }
                "speaker_dropout" | "speaker_degraded" => {
                    if fault.device.is_none() {
                        return Err(ScenarioError::invalid(
                            field,
                            "speaker faults need a `device` name",
                        ));
                    }
                    let atten = fault.level_db.unwrap_or(0.0);
                    if fault.kind == "speaker_degraded" && (atten.is_nan() || atten < 0.0) {
                        return Err(ScenarioError::invalid(
                            field,
                            "degradation `level_db` is an attenuation and must be >= 0",
                        ));
                    }
                }
                "link_flap" => {
                    if t.topology != "leaf_spine" {
                        return Err(ScenarioError::invalid(
                            field,
                            "link_flap needs the leaf_spine topology",
                        ));
                    }
                    let leaf = fault.leaf.ok_or_else(|| {
                        ScenarioError::invalid(field.clone(), "link_flap needs a `leaf` index")
                    })?;
                    if leaf >= t.leaves {
                        return Err(ScenarioError::invalid(
                            field,
                            format!("leaf {leaf} past the fabric's {} leaves", t.leaves),
                        ));
                    }
                    if fault.until_ms.is_none() {
                        return Err(ScenarioError::invalid(
                            field,
                            "link_flap needs `until_ms` (when the bundle comes back)",
                        ));
                    }
                }
                _ => {}
            }
            if fault.kind == "music" {
                if fault.notes.is_empty() {
                    return Err(ScenarioError::invalid(field, "music needs at least one note"));
                }
                // The builder renders the whole span, from `at_ms` to
                // `until_ms` or the horizon, as one allocation.
                let span = fault
                    .until_ms
                    .unwrap_or(total_ms)
                    .saturating_sub(fault.at_ms);
                if samples(span) > u128::from(MAX_WINDOW_SAMPLES) {
                    return Err(ScenarioError::invalid(
                        field,
                        format!("music spans over {MAX_WINDOW_SAMPLES} samples"),
                    ));
                }
                // The builder cycles notes of `60 / tempo_bpm` seconds.
                let note = Duration::try_from_secs_f64(60.0 / fault.tempo_bpm);
                if !note.is_ok_and(|n| n >= Duration::from_millis(1)) {
                    return Err(ScenarioError::invalid(
                        field,
                        "tempo_bpm must be positive, give a note of at least 1 ms \
                         and not overflow a Duration",
                    ));
                }
            }
        }

        // Apps must land inside the horizon or the loop never reaches them.
        for (i, app) in self.apps.iter().enumerate() {
            if app.at_ms >= total_ms {
                return Err(ScenarioError::invalid(
                    format!("apps[{i}]"),
                    format!("at_ms {} past the {total_ms} ms horizon", app.at_ms),
                ));
            }
        }
        Ok(())
    }

    /// The shared small-hall preset: `cells` cells of
    /// `switches × slots` switches over a named ambient bed — the shape
    /// the equivalence, chaos and obs examples all hand-rolled.
    pub fn small_hall(cells: usize, switches: usize, slots: usize, ambient: &str) -> Self {
        Self {
            hall: HallSpec {
                cells,
                ambient: ambient.into(),
                cell: CellConfig {
                    switches_per_cell: switches,
                    slots_per_switch: slots,
                    ..CellConfig::default()
                },
                ..HallSpec::default()
            },
            selfheal: SelfHealSpec {
                threads: 0,
                config: SelfHealConfig {
                    verify_on_replan: false,
                    ..SelfHealConfig::default()
                },
            },
            ..Self::default()
        }
    }

    /// The shared leaf-spine-hall preset: an ultrasound-fitted hall of
    /// `cells` default cells over a `spines × leaves` fabric with
    /// per-host CBR cross-traffic — the soak-bench shape.
    pub fn leaf_spine_hall(cells: usize, spines: usize, leaves: usize, windows: u64) -> Self {
        Self {
            windows,
            hall: HallSpec {
                cells,
                speaker: "ultrasound".into(),
                ..HallSpec::default()
            },
            selfheal: SelfHealSpec {
                threads: 0,
                config: SelfHealConfig {
                    // Replaying real audio per cell is O(hall) — skip the proof.
                    verify_on_replan: false,
                    ..SelfHealConfig::default()
                },
            },
            emissions: EmissionSpec {
                pattern: "rotate".into(),
                ..EmissionSpec::default()
            },
            traffic: TrafficSpec {
                topology: "leaf_spine".into(),
                spines,
                leaves,
                pps: 40.0,
                size: 1000,
                latency_us: 5,
                ..TrafficSpec::default()
            },
            ..Self::default()
        }
    }
}
