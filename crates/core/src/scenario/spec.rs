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
//! before anything is built. The spec's string choices (ambient bed,
//! speaker, pattern, topology, fault kinds) are read only here, by
//! `ScenarioSpec::parse`, into typed values the builder and runner match.
//!
//! Deserialization is overlay-on-default: a spec file only states what it
//! changes, and unknown keys are hard errors (a typo'd knob must not
//! silently run the default experiment).

use crate::cells::{CellConfig, CellPlanError};
use crate::selfheal::SelfHealConfig;
use mdn_acoustics::ambient::AmbientProfile;
use mdn_acoustics::faults::Window;
use mdn_acoustics::speaker::Speaker;
use std::fmt;
use std::time::Duration;

const MS: fn(u64) -> Duration = Duration::from_millis;

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
    /// Trace ring capacity in spans (default
    /// [`DEFAULT_TRACE_CAPACITY`](mdn_obs::registry::DEFAULT_TRACE_CAPACITY),
    /// 262144, when tracing is on).
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
        let var = |name| std::env::var(name).ok();
        self.trace_out = var("MDN_TRACE_OUT").or(self.trace_out.take());
        let cap = var("MDN_TRACE_CAP").and_then(|v| v.parse().ok());
        self.trace_cap = cap.or(self.trace_cap);
        self.obs_addr = var("MDN_OBS_ADDR").or(self.obs_addr.take());
        let hold = var("MDN_OBS_HOLD_SECS").and_then(|v| v.parse().ok());
        self.obs_hold_secs = hold.or(self.obs_hold_secs);
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

/// Default SPL of injected music playback, dB — loud office speakers.
const MUSIC_SPL_DB: f64 = 75.0;
/// Default SPL of a scripted wide-band noise burst, dB.
const BURST_SPL_DB: f64 = 60.0;

/// A spec's string choices as typed values, every default resolved:
/// what [`ScenarioSpec::parse`] returns, and all the builder and the
/// runner read of the spec's vocabulary.
pub(crate) struct Parsed {
    /// The ambient bed, `ambient_spl` applied.
    pub ambient: AmbientProfile,
    /// The non-default speaker every emission drives (`ultrasound`).
    pub speaker: Option<Speaker>,
    /// `emissions.pattern`.
    pub pattern: Pattern,
    /// `traffic.topology`.
    pub topology: Topology,
    /// The fault script in spec order: a noise burst's seed is its index
    /// among the bursts.
    pub faults: Vec<Fault>,
}

/// Which switches sound in which window (see [`EmissionSpec`]).
#[derive(Clone, Copy)]
pub(crate) enum Pattern {
    Rotate,
    All,
    Explicit,
    None,
}

/// The packet side's shape (see [`TrafficSpec`]).
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum Topology {
    None,
    /// h1 —(p0)— s —(p1)— h2; `controller` attaches the OpenFlow
    /// controller to `s`.
    Pair {
        controller: bool,
    },
    LeafSpine {
        spines: usize,
        leaves: usize,
    },
}

impl Topology {
    /// `(switches, hosts)` in the fabric.
    pub fn size(self) -> (usize, usize) {
        match self {
            Self::None => (0, 0),
            Self::Pair { .. } => (1, 2),
            Self::LeafSpine { spines, leaves } => (leaves + spines, leaves),
        }
    }
}

/// One scripted fault with its defaults resolved (see [`FaultSpec`]);
/// `window` ends at `until_ms` or the horizon.
pub(crate) enum Fault {
    MicDead {
        cell: usize,
        radius_m: f64,
        window: Window,
    },
    SpeakerDropout {
        device: String,
        window: Window,
    },
    SpeakerDegraded {
        device: String,
        window: Window,
        atten_db: f64,
    },
    NoiseBurst {
        window: Window,
        spl_db: f64,
    },
    Music {
        cell: usize,
        window: Window,
        spl_db: f64,
        note: Duration,
        notes: Vec<f64>,
    },
    /// Down over `window`: from `at_ms` until `until_ms`.
    LinkFlap {
        leaf: usize,
        window: Window,
    },
}

/// `FaultSpec::kind`, before its fields are read.
#[derive(Clone, Copy)]
enum Kind {
    MicDead,
    SpeakerDropout,
    SpeakerDegraded,
    NoiseBurst,
    Music,
    LinkFlap,
}

/// `value`'s choice in `table`, or an error naming `field` and every
/// accepted value.
fn pick<T: Copy>(field: &str, value: &str, table: &[(&str, T)]) -> Result<T, ScenarioError> {
    if let Some(&(_, choice)) = table.iter().find(|(name, _)| *name == value) {
        return Ok(choice);
    }
    let names: Vec<&str> = table.iter().map(|&(name, _)| name).collect();
    Err(ScenarioError::invalid(
        field,
        format!(
            "unknown value `{value}` (expected one of {})",
            names.join("|")
        ),
    ))
}

/// Return `Invalid { field, reason }` from the enclosing function when
/// `bad` holds; the reason is formatted only then.
macro_rules! reject_if {
    ($bad:expr, $field:expr, $($reason:tt)+) => {
        if $bad {
            return Err(ScenarioError::invalid($field, format!($($reason)+)));
        }
    };
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
    #[allow(
        clippy::expect_used,
        reason = "the serde_json stand-in's serializer never fails"
    )]
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
        self.parse().map(|_| ())
    }

    /// [`Self::validate`], returning the spec's choices as typed values:
    /// the one place the spec's string vocabulary is read.
    pub(crate) fn parse(&self) -> Result<Parsed, ScenarioError> {
        reject_if! { self.windows == 0, "windows", "a run needs at least one window" }
        reject_if! {
            self.window_ms == 0, "window_ms", "zero-length capture windows render nothing"
        }
        reject_if! { self.sample_rate == 0, "sample_rate", "must be non-zero" }
        let total_ms = self.window_ms.checked_mul(self.windows).ok_or_else(|| {
            ScenarioError::invalid("windows", "the run's length overflows u64 milliseconds")
        })?;
        // A window's listen buffer and a tone's signal are each one
        // allocation of this many samples.
        let samples = |ms: u64| u128::from(ms) * u128::from(self.sample_rate) / 1000;
        let too_long = |ms: u64| samples(ms) > u128::from(MAX_WINDOW_SAMPLES);
        let window_samples = samples(self.window_ms);
        reject_if! {
            too_long(self.window_ms), "window_ms",
            "{window_samples} samples per window exceed {MAX_WINDOW_SAMPLES}"
        }

        // Hall.
        let h = &self.hall;
        reject_if! {
            h.cells == 0 || h.cells > MAX_CELLS, "hall.cells",
            "a hall needs 1 to {MAX_CELLS} cells, not {}", h.cells
        }
        let bed: fn() -> AmbientProfile = pick(
            "hall.ambient",
            &h.ambient,
            &[
                ("quiet", AmbientProfile::quiet as _),
                ("office", AmbientProfile::office as _),
                ("datacenter", AmbientProfile::datacenter as _),
            ],
        )?;
        let mut ambient = bed();
        if let Some(spl) = h.ambient_spl {
            ambient.level_spl = spl;
        }
        let speakers = [("cheap", false), ("ultrasound", true)];
        let ultrasound = pick("hall.speaker", &h.speaker, &speakers)?;
        let c = &h.cell;
        reject_if! {
            c.switches_per_cell == 0 || c.slots_per_switch == 0, "hall.cell",
            "switches_per_cell and slots_per_switch must be at least 1"
        }
        let bad_len = |m: f64| m.is_nan() || m <= 0.0;
        reject_if! {
            bad_len(c.rack_spacing_m) || bad_len(c.cell_pitch_m), "hall.cell",
            "rack_spacing_m and cell_pitch_m must be positive"
        }
        // Overlapping cells: a cell's rack row spans
        // `rack_spacing_m × (switches_per_cell − 1)` metres; the next
        // cell starts `cell_pitch_m` away. A span reaching the pitch
        // means two cells' racks interleave and per-cell attribution is
        // geometric nonsense.
        let span = c.rack_spacing_m * (c.switches_per_cell - 1) as f64;
        reject_if! {
            span >= c.cell_pitch_m, "hall.cell.cell_pitch_m",
            "cells overlap: rack row spans {span:.2} m but the cell pitch is only {:.2} m",
            c.cell_pitch_m
        }

        self.selfheal.config.validate()?;

        // Emissions.
        let e = &self.emissions;
        let patterns = [
            ("rotate", Pattern::Rotate),
            ("all", Pattern::All),
            ("explicit", Pattern::Explicit),
            ("none", Pattern::None),
        ];
        let pattern = pick("emissions.pattern", &e.pattern, &patterns)?;
        let slots = c.slots_per_switch;
        let devices = h.cells.saturating_mul(c.switches_per_cell);
        match pattern {
            Pattern::Rotate | Pattern::All => {
                reject_if! {
                    e.duration_ms == 0, "emissions.duration_ms",
                    "zero-length tones are inaudible by construction"
                }
                reject_if! {
                    too_long(e.duration_ms), "emissions.duration_ms",
                    "tones over {MAX_WINDOW_SAMPLES} samples"
                }
                if let Some(s) = e.slot {
                    reject_if! {
                        s >= slots, "emissions.slot", "slot {s} outside the {slots}-slot set"
                    }
                }
            }
            Pattern::Explicit => {
                for (i, em) in e.explicit.iter().enumerate() {
                    let field = format!("emissions.explicit[{i}]");
                    reject_if! {
                        em.window >= self.windows, field,
                        "window {} past the run's {} windows", em.window, self.windows
                    }
                    reject_if! { em.permil >= 1000, field, "permil must be 0..1000" }
                    reject_if! {
                        em.dev >= devices, field,
                        "device index {} past the hall's {devices} switches", em.dev
                    }
                    reject_if! {
                        em.slot >= slots, field, "slot {} outside the {slots}-slot set", em.slot
                    }
                    reject_if! { em.dur_ms == 0, field, "zero-length tone" }
                    reject_if! {
                        too_long(em.dur_ms), field, "tone over {MAX_WINDOW_SAMPLES} samples"
                    }
                }
            }
            Pattern::None => {}
        }

        // Traffic.
        let t = &self.traffic;
        let (spines, leaves, controller) = (t.spines, t.leaves, self.controller.enabled);
        let topologies = [
            ("none", Topology::None),
            ("pair", Topology::Pair { controller }),
            ("leaf_spine", Topology::LeafSpine { spines, leaves }),
        ];
        let topology = pick("traffic.topology", &t.topology, &topologies)?;
        reject_if! {
            topology != Topology::None && (t.pps.is_nan() || t.pps <= 0.0), "traffic.pps",
            "CBR rate must be positive"
        }
        if let Topology::LeafSpine { spines, leaves } = topology {
            reject_if! {
                spines == 0 || leaves == 0 || spines.saturating_add(leaves) > MAX_FABRIC_SWITCHES,
                "traffic",
                "a leaf-spine fabric needs a spine, a leaf and at most \
                 {MAX_FABRIC_SWITCHES} switches, not {spines} + {leaves}"
            }
        }

        // Controller.
        if let Topology::None | Topology::LeafSpine { .. } = topology {
            reject_if! {
                controller, "controller.enabled",
                "the OpenFlow controller attaches to the `pair` topology's switch"
            }
        }

        // Faults, in spec order.
        let kinds = [
            ("mic_dead", Kind::MicDead),
            ("speaker_dropout", Kind::SpeakerDropout),
            ("speaker_degraded", Kind::SpeakerDegraded),
            ("noise_burst", Kind::NoiseBurst),
            ("music", Kind::Music),
            ("link_flap", Kind::LinkFlap),
        ];
        let mut faults = Vec::with_capacity(self.faults.len());
        for (i, f) in self.faults.iter().enumerate() {
            let field = format!("faults[{i}]");
            let kind = pick(&field, &f.kind, &kinds)?;
            if let Some(until) = f.until_ms {
                reject_if! {
                    until <= f.at_ms, field, "until_ms {until} not after at_ms {}", f.at_ms
                }
            }
            // The fault lifts at `until_ms` or the horizon; one landing
            // past the horizon never sounds.
            let until_ms = f.until_ms.unwrap_or(total_ms).max(f.at_ms);
            let window = Window::between(MS(f.at_ms), MS(until_ms));
            let cell = f.cell.unwrap_or(0);
            let check_cell = || -> Result<(), ScenarioError> {
                reject_if! {
                    cell >= h.cells, &field, "cell {cell} past the hall's {} cells", h.cells
                }
                Ok(())
            };
            let device = || {
                let reason = "speaker faults need a `device` name";
                f.device
                    .clone()
                    .ok_or_else(|| ScenarioError::invalid(&field, reason))
            };
            faults.push(match kind {
                Kind::MicDead => {
                    check_cell()?;
                    Fault::MicDead {
                        cell,
                        radius_m: f.radius_m,
                        window,
                    }
                }
                Kind::SpeakerDropout => Fault::SpeakerDropout {
                    device: device()?,
                    window,
                },
                Kind::SpeakerDegraded => {
                    let device = device()?;
                    let atten_db = f.level_db.unwrap_or(0.0);
                    reject_if! {
                        atten_db.is_nan() || atten_db < 0.0, field,
                        "degradation `level_db` is an attenuation and must be >= 0"
                    }
                    Fault::SpeakerDegraded {
                        device,
                        window,
                        atten_db,
                    }
                }
                Kind::NoiseBurst => {
                    let spl_db = f.level_db.unwrap_or(BURST_SPL_DB);
                    Fault::NoiseBurst { window, spl_db }
                }
                Kind::Music => {
                    check_cell()?;
                    reject_if! { f.notes.is_empty(), field, "music needs at least one note" }
                    // The builder renders the whole window as one allocation.
                    reject_if! {
                        too_long(until_ms - f.at_ms), field,
                        "music spans over {MAX_WINDOW_SAMPLES} samples"
                    }
                    // The builder cycles notes of `60 / tempo_bpm` seconds.
                    let note = Duration::try_from_secs_f64(60.0 / f.tempo_bpm);
                    let note = note.unwrap_or(Duration::ZERO);
                    reject_if! {
                        note < Duration::from_millis(1), field,
                        "tempo_bpm must be positive, give a note of at least 1 ms \
                         and not overflow a Duration"
                    }
                    Fault::Music {
                        cell,
                        window,
                        spl_db: f.level_db.unwrap_or(MUSIC_SPL_DB),
                        note,
                        notes: f.notes.clone(),
                    }
                }
                Kind::LinkFlap => {
                    let Topology::LeafSpine { leaves, .. } = topology else {
                        let reason = "link_flap needs the leaf_spine topology";
                        return Err(ScenarioError::invalid(field, reason));
                    };
                    reject_if! { f.leaf.is_none(), field, "link_flap needs a `leaf` index" }
                    let leaf = f.leaf.unwrap_or_default();
                    reject_if! {
                        leaf >= leaves, field, "leaf {leaf} past the fabric's {leaves} leaves"
                    }
                    reject_if! {
                        f.until_ms.is_none(), field,
                        "link_flap needs `until_ms` (when the bundle comes back)"
                    }
                    Fault::LinkFlap { leaf, window }
                }
            });
        }

        // Apps must land inside the horizon or the loop never reaches them.
        for (i, app) in self.apps.iter().enumerate() {
            reject_if! {
                app.at_ms >= total_ms, format!("apps[{i}]"),
                "at_ms {} past the {total_ms} ms horizon", app.at_ms
            }
        }
        Ok(Parsed {
            ambient,
            speaker: ultrasound.then(Speaker::ultrasound_capable),
            pattern,
            topology,
            faults,
        })
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
                    // Replaying real audio per cell is O(hall) — skip the proof.
                    verify_on_replan: false,
                    ..SelfHealConfig::default()
                },
            },
            ..Self::default()
        }
    }

    /// The shared leaf-spine-hall preset: an ultrasound-fitted
    /// [`Self::small_hall`] of `cells` default cells over a
    /// `spines × leaves` fabric with per-host CBR cross-traffic — the
    /// soak-bench shape.
    pub fn leaf_spine_hall(cells: usize, spines: usize, leaves: usize, windows: u64) -> Self {
        let cell = CellConfig::default();
        let base = Self::small_hall(
            cells,
            cell.switches_per_cell,
            cell.slots_per_switch,
            "office",
        );
        Self {
            windows,
            hall: HallSpec {
                speaker: "ultrasound".into(),
                ..base.hall
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
            ..base
        }
    }
}
