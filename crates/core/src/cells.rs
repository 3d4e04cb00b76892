//! Acoustic cells: spatial frequency reuse past the single-mic ceiling.
//!
//! §5 of the paper bounds one microphone to "up to 1000 distinct
//! frequencies played simultaneously" — a few dozen switches at realistic
//! per-switch sets. Sound attenuates as `1/r`, so the same trick cellular
//! radio uses applies: partition the datacenter into **cells** along the
//! rack rows, give each cell its own microphone and controller, and reuse
//! tone slots between cells far enough apart that the foreign tone lands
//! below the local detector's magnitude floor.
//!
//! The [`CellPlan`] colors cells with `k` sub-bands of the audible plan
//! (cell `c` → color `c mod k`); same-color cells share identical
//! frequencies, so total distinct slots consumed is `k × per-cell slots`
//! and the **reuse factor** is `cells / k`. Legality is a worst-case
//! interference bound, not a hope: for every cell and every reused
//! frequency, the *coherent sum* of all same-color foreign emitters at
//! that frequency — attenuated by the same spreading law the renderer
//! applies — must stay under the cell's detection threshold with a safety
//! margin. Within a cell slot sets are disjoint, so at most one switch
//! per foreign cell can sound any given frequency; that is what makes the
//! bound finite and the scheme work. [`CellPlan::verify_reuse`] replays
//! the worst case through the real render → microphone → detector
//! pipeline and fails if a single foreign tone is attributed locally.
//!
//! The [`ShardedController`] owns one [`MdnController`] + microphone per
//! cell, renders/detects cells in parallel with `std::thread::scope`
//! (pre-sized per-cell output slots, so the merged stream is bit-identical
//! for any thread count), and merges per-cell observations into one
//! [`ShardEvent`] stream. This per-cell listen is the workspace's only
//! thread fan-out: the render and the decode inside it are sequential.
//! The same worker also analyses the window's own span of that render
//! for the cell's ambient retune. Captures go through the windowed render
//! path, so each listening tick costs O(window) regardless of elapsed
//! scene time.

use crate::controller::{
    listen_cells, merge_event_streams, Heard, ListenScratch, MdnController, MdnEvent, PreRoll,
};
pub use crate::controller::{CellId, ShardEvent};
use crate::detector::{DetectorConfig, FrameMagnitudes};
use crate::encoder::{EmitError, SoundingDevice};
use crate::freqplan::{FrequencyPlan, FrequencySet};
use mdn_acoustics::ambient::AmbientProfile;
use mdn_acoustics::medium::{incident_amplitude, spreading_gain, Pos};
use mdn_acoustics::mic::{Microphone, CAPTURE_LANES};
use mdn_acoustics::scene::Scene;
use mdn_acoustics::speaker::Speaker;
use mdn_audio::signal::{amplitude_to_spl, spl_to_amplitude, Window};
use mdn_obs::{Counter, Registry};
use std::fmt;
use std::time::Duration;

/// Multiplier applied to the per-bin ambient leakage when deriving a
/// cell's magnitude threshold — mirrors the detector's default SNR gate.
const AMBIENT_SNR: f64 = 3.0;

/// Sample rate the ambient leakage model is evaluated at when planning,
/// and the self-healing loop's re-plan proof renders at. Thresholds are
/// derived before any audio exists; the generators' spectra vary only
/// weakly with the rate, so the nominal testbed rate is representative
/// for any deployment rate.
pub(crate) const PLAN_SAMPLE_RATE: u32 = 44_100;

/// Hard ceiling on the boosted source level a migrated switch may be
/// driven at — roughly what a commodity speaker sustains without
/// clipping. A migration that would need more is infeasible.
const MAX_MIGRATED_LEVEL_DB: f64 = 85.0;

/// Extra linear headroom (6 dB) on a migrated switch's boost, covering
/// what the geometric model leaves out: the microphone's band-limiting
/// rolloff near the sub-band top (where spare slots live) and analysis
/// windowing losses. The interference side stays conservative — foreign
/// budgets assume the *unattenuated* incident amplitude.
const MIGRATION_RESPONSE_MARGIN: f64 = 2.0;

/// Geometry and detection parameters for planning a cell grid.
///
/// Defaults model the paper's testbed scaled out: racks 0.4 m apart in a
/// row, one measurement mic per cell hovering over the row centre, cells
/// pitched 6.5 m apart along the row, sources at the Music Protocol's
/// 65 dB SPL, and a raised per-cell magnitude floor (4×10⁻³ linear) that
/// foreign reuse must stay under with a 1.5× margin.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CellConfig {
    /// Switches in each cell's rack row.
    pub switches_per_cell: usize,
    /// Tone slots allocated to each switch.
    pub slots_per_switch: usize,
    /// Spacing between adjacent switches in a row, metres.
    pub rack_spacing_m: f64,
    /// Microphone height above the row, metres.
    pub mic_height_m: f64,
    /// Distance between the origins of adjacent cells, metres.
    pub cell_pitch_m: f64,
    /// Number of reuse colors (sub-bands); `0` lets the planner pick the
    /// smallest color count whose interference bound holds.
    pub colors: usize,
    /// Per-cell detector magnitude floor (linear amplitude). Raised from
    /// the single-cell default so reuse distances stay practical; local
    /// tones at ≤ ~1.5 m clear it by a wide margin.
    pub detector_floor: f64,
    /// Source level of every switch speaker, dB SPL at 1 m.
    pub source_level_db: f64,
    /// Safety factor the worst-case interference must clear the threshold
    /// by (≥ 1).
    pub safety_margin: f64,
    /// Usable response band of the switches' speakers `(lo_hz, hi_hz)`.
    /// The planner refuses any coloring whose allocated slots fall outside
    /// it — a slot the speaker cannot drive is silence, not capacity — and
    /// migration only claims spares inside it. Defaults to the paper's
    /// cheap testbed speaker; halls fitted with the §8 ultrasound-capable
    /// hardware widen it to unlock high sub-bands at large color counts.
    pub speaker_band: (f64, f64),
}

impl Default for CellConfig {
    fn default() -> Self {
        Self {
            switches_per_cell: 6,
            slots_per_switch: 8,
            rack_spacing_m: 0.4,
            mic_height_m: 0.6,
            cell_pitch_m: 6.5,
            colors: 0,
            detector_floor: 4e-3,
            source_level_db: crate::encoder::DEFAULT_LEVEL_DB,
            safety_margin: 1.5,
            speaker_band: Speaker::cheap().band,
        }
    }
}

/// Why a cell plan could not be built or verified.
#[derive(Debug, Clone, PartialEq)]
pub enum CellPlanError {
    /// A parameter was out of range.
    BadConfig(String),
    /// The base band cannot hold `colors × per-cell slots`.
    Capacity {
        /// Colors the allocation needed.
        colors: usize,
        /// Slots needed across all colors.
        needed: usize,
        /// Slots the base plan has.
        capacity: usize,
    },
    /// No legal coloring: even at the reported color count, some cell's
    /// worst-case foreign interference breaches its threshold budget.
    ReuseUnsafe {
        /// The violating cell.
        cell: usize,
        /// Worst-case coherent foreign amplitude at that cell's mic.
        interference: f64,
        /// The budget it had to stay under (`threshold / margin`).
        budget: f64,
    },
    /// A coloring that satisfies the interference bound allocates slots
    /// the configured speaker cannot drive: higher color counts push the
    /// top sub-bands past the speaker's response band, so every emission
    /// there would fail at the speaker — silently missing evidence, not
    /// occupying spectrum.
    SpeakerUnreachable {
        /// Color count under which the allocation was attempted.
        colors: usize,
        /// The sub-band color whose allocation leaves the band.
        color: usize,
        /// The offending slot frequency.
        freq_hz: f64,
        /// The speaker's usable band.
        band: (f64, f64),
    },
    /// [`CellPlan::replan_without_cell`] found no host able to absorb a
    /// dead cell's switches.
    MigrationInfeasible {
        /// The cell being evacuated.
        dead: usize,
        /// Why the best candidate host failed.
        detail: String,
    },
    /// `verify_reuse` caught the real detector attributing a foreign
    /// reused tone to a local switch.
    DetectorLeak {
        /// The cell whose controller mis-attributed.
        cell: usize,
        /// The local device it blamed.
        device: String,
        /// The device-local slot.
        slot: usize,
        /// The measured magnitude.
        magnitude: f64,
    },
    /// `verify_reuse` could not sound a foreign worst-case tone over a
    /// cell's mic (e.g. the test speaker cannot drive the tone's band).
    VerifyEmit {
        /// The cell under verification.
        cell: usize,
        /// The foreign device whose emission failed.
        device: String,
        /// Why the emission failed.
        error: EmitError,
    },
}

impl fmt::Display for CellPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellPlanError::BadConfig(msg) => write!(f, "bad cell config: {msg}"),
            CellPlanError::Capacity {
                colors,
                needed,
                capacity,
            } => write!(
                f,
                "band exhausted: {colors} colors need {needed} slots, base plan has {capacity}"
            ),
            CellPlanError::ReuseUnsafe {
                cell,
                interference,
                budget,
            } => write!(
                f,
                "reuse unsafe at cell {cell}: worst-case foreign amplitude {interference:.2e} \
                 exceeds budget {budget:.2e}"
            ),
            CellPlanError::SpeakerUnreachable {
                colors,
                color,
                freq_hz,
                band,
            } => write!(
                f,
                "{colors}-color plan allocates {freq_hz} Hz in color {color}, outside the \
                 speaker band {}..{} Hz",
                band.0, band.1
            ),
            CellPlanError::MigrationInfeasible { dead, detail } => {
                write!(f, "cannot evacuate dead cell {dead}: {detail}")
            }
            CellPlanError::DetectorLeak {
                cell,
                device,
                slot,
                magnitude,
            } => write!(
                f,
                "detector leak at cell {cell}: foreign tone attributed to {device} slot {slot} \
                 at magnitude {magnitude:.2e}"
            ),
            CellPlanError::VerifyEmit {
                cell,
                device,
                error,
            } => write!(
                f,
                "cannot verify cell {cell}: worst-case emission from {device} failed: {error}"
            ),
        }
    }
}

impl std::error::Error for CellPlanError {}

/// One planned acoustic cell: geometry, ambient, threshold, and the
/// frequency sets of its switches.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Cell index (0-based along the row of cells).
    pub id: usize,
    /// Reuse color (`id mod colors`); same-color cells share frequencies.
    pub color: usize,
    /// Switch positions, one per switch in rack-row order.
    pub switch_pos: Vec<Pos>,
    /// The cell microphone's position (over the row centre).
    pub mic_pos: Pos,
    /// The cell's ambient profile, used both for threshold derivation and
    /// for synthetic verification scenes.
    pub ambient: AmbientProfile,
    /// Detector magnitude floor for this cell (linear amplitude): the
    /// configured floor raised, if necessary, above the ambient bed's
    /// per-bin leakage.
    pub threshold: f64,
    /// Worst-case coherent foreign amplitude at this cell's mic over all
    /// reused frequencies (same-color cells summed, nearest-switch case).
    pub worst_interference: f64,
    /// The switch index whose reused frequencies realise
    /// `worst_interference` — the slot `verify_reuse` attacks.
    pub worst_switch: usize,
    /// Per-switch frequency sets; same-color cells hold identical `freqs`.
    /// A host cell that absorbed a dead neighbour's switches carries extra
    /// sets past `switches_per_cell`, drawn from its sub-band's spare
    /// slots.
    pub sets: Vec<FrequencySet>,
    /// Globally unique device names, parallel to `sets` (`c<id>-s<j>`).
    /// Migrated switches keep their original names, so event attribution
    /// survives re-planning.
    pub device_names: Vec<String>,
    /// Per-switch source levels (dB SPL at 1 m), parallel to `sets`.
    /// Migrated switches play boosted so the farther host mic still
    /// decodes them.
    pub levels: Vec<f64>,
    /// False once the cell's mic is declared dead and its switches have
    /// been migrated away ([`CellPlan::replan_without_cell`]).
    pub alive: bool,
}

/// A planned multi-cell deployment: geometry, coloring, and per-cell
/// frequency allocations with a proven interference bound.
///
/// ```
/// use mdn_core::cells::{CellConfig, CellPlan};
/// use mdn_acoustics::ambient::AmbientProfile;
///
/// let plan = CellPlan::plan(20, &[AmbientProfile::office()], CellConfig::default()).unwrap();
/// assert!(plan.total_switches() >= 100);
/// assert!(plan.reuse_factor() >= 4.0); // same tones live in ≥4 cells
/// ```
#[derive(Debug, Clone)]
pub struct CellPlan {
    cells: Vec<Cell>,
    colors: usize,
    cfg: CellConfig,
    source_amplitude: f64,
}

/// Detection threshold cell `c` needs under color count `k`: the
/// configured floor, raised above the worst per-bin leakage the cell's
/// ambient bed produces anywhere in the sub-band the cell would actually
/// be assigned (`color = c mod k`). Spectrally honest — a datacenter bed
/// concentrates rumble, pink tilt, and hum at low frequencies, so cells
/// holding low sub-bands need a far higher floor than a flat spread of
/// the bed's power would suggest.
fn cell_threshold(
    base: &FrequencyPlan,
    ambient: &AmbientProfile,
    floor: f64,
    c: usize,
    k: usize,
) -> f64 {
    let sub = base.subband(c % k, k);
    let (lo, hi) = (sub.slot_freq(0), sub.slot_freq(sub.capacity() - 1));
    floor.max(AMBIENT_SNR * ambient.peak_bin_leakage(lo, hi, base.spacing_hz(), PLAN_SAMPLE_RATE))
}

impl CellPlan {
    /// Plan `num_cells` cells over the audible band. `ambients` is cycled
    /// across cells (`ambients[c mod len]`), so one entry means a uniform
    /// room and `num_cells` entries give per-cell profiles.
    ///
    /// The planner searches color counts `k = 1, 2, …` (unless
    /// `cfg.colors` pins one) and takes the smallest `k` — the highest
    /// reuse — for which every cell's worst-case foreign interference,
    /// scaled by `cfg.safety_margin`, stays under the cell's threshold.
    pub fn plan(
        num_cells: usize,
        ambients: &[AmbientProfile],
        cfg: CellConfig,
    ) -> Result<Self, CellPlanError> {
        Self::validate(num_cells, ambients, &cfg)?;
        let base = FrequencyPlan::audible_default();
        let per_cell = cfg.switches_per_cell * cfg.slots_per_switch;
        let max_colors = base.capacity() / per_cell;
        if max_colors == 0 {
            return Err(CellPlanError::Capacity {
                colors: 1,
                needed: per_cell,
                capacity: base.capacity(),
            });
        }

        let source_amplitude = spl_to_amplitude(cfg.source_level_db);
        let mic_pos: Vec<Pos> = (0..num_cells).map(|c| Self::mic_pos(c, &cfg)).collect();
        // Thresholds depend on the sub-band a cell would hold, hence on
        // the color count under consideration.
        let threshold_for = |c: usize, k: usize| -> f64 {
            cell_threshold(
                &base,
                &ambients[c % ambients.len()],
                cfg.detector_floor,
                c,
                k,
            )
        };

        // Worst-case interference at cell `c` for color count `k`: over
        // reused frequencies — i.e. over switch indices `j`, since slot
        // sets within a cell are disjoint and switch `j` owns the same
        // frequencies in every same-color cell — sum the closest-incidence
        // amplitude from each same-color foreign cell coherently.
        let interference = |c: usize, k: usize| -> (f64, usize) {
            let mut worst = (0.0f64, 0usize);
            for j in 0..cfg.switches_per_cell {
                let mut sum = 0.0;
                for d in 0..num_cells {
                    if d == c || d % k != c % k {
                        continue;
                    }
                    let dist = mic_pos[c].distance(&Self::switch_pos(d, j, &cfg));
                    sum += incident_amplitude(source_amplitude, dist);
                }
                if sum > worst.0 {
                    worst = (sum, j);
                }
            }
            worst
        };

        let legal = |k: usize| -> Result<(), CellPlanError> {
            for c in 0..num_cells {
                let (w, _) = interference(c, k);
                let budget = threshold_for(c, k) / cfg.safety_margin;
                if w > budget {
                    return Err(CellPlanError::ReuseUnsafe {
                        cell: c,
                        interference: w,
                        budget,
                    });
                }
            }
            Ok(())
        };

        // Every slot a coloring would hand out must sit inside the
        // configured speaker's response band: allocation takes the bottom
        // `per_cell` slots of each used sub-band, so checking both ends of
        // that prefix per color suffices. Without this, high color counts
        // "succeed" with sub-bands the hardware cannot drive and every
        // emission there fails at the speaker — the same physical limit
        // `try_migrate` already enforces for spare slots.
        let (band_lo, band_hi) = cfg.speaker_band;
        let playable = |k: usize| -> Result<(), CellPlanError> {
            for color in 0..k.min(num_cells) {
                let sub = base.subband(color, k);
                for i in [0, per_cell - 1] {
                    let f = sub.slot_freq(i);
                    if f < band_lo || f > band_hi {
                        return Err(CellPlanError::SpeakerUnreachable {
                            colors: k,
                            color,
                            freq_hz: f,
                            band: cfg.speaker_band,
                        });
                    }
                }
            }
            Ok(())
        };

        let colors = if cfg.colors > 0 {
            if cfg.colors > max_colors {
                return Err(CellPlanError::Capacity {
                    colors: cfg.colors,
                    needed: cfg.colors * per_cell,
                    capacity: base.capacity(),
                });
            }
            legal(cfg.colors)?;
            playable(cfg.colors)?;
            cfg.colors
        } else {
            let upper = max_colors.min(num_cells);
            let mut found = None;
            let mut last_err = None;
            for k in 1..=upper {
                match legal(k).and_then(|()| playable(k)) {
                    Ok(()) => {
                        found = Some(k);
                        break;
                    }
                    Err(e) => last_err = Some(e),
                }
            }
            match found {
                Some(k) => k,
                None => {
                    return Err(last_err.unwrap_or(CellPlanError::Capacity {
                        colors: upper,
                        needed: upper * per_cell,
                        capacity: base.capacity(),
                    }))
                }
            }
        };

        let cells = (0..num_cells)
            .map(|c| {
                let color = c % colors;
                // A fresh copy of the color's sub-band per cell: same
                // frequencies for same-color cells, globally unique names.
                let mut sub = base.subband(color, colors);
                let mut sets = Vec::with_capacity(cfg.switches_per_cell);
                let mut device_names = Vec::with_capacity(cfg.switches_per_cell);
                for j in 0..cfg.switches_per_cell {
                    let name = format!("c{c}-s{j}");
                    let set = sub.allocate(&name, cfg.slots_per_switch).map_err(|_| {
                        CellPlanError::Capacity {
                            colors,
                            needed: colors * per_cell,
                            capacity: base.capacity(),
                        }
                    })?;
                    sets.push(set);
                    device_names.push(name);
                }
                let (worst_interference, worst_switch) = interference(c, colors);
                Ok(Cell {
                    id: c,
                    color,
                    switch_pos: (0..cfg.switches_per_cell)
                        .map(|j| Self::switch_pos(c, j, &cfg))
                        .collect(),
                    mic_pos: mic_pos[c],
                    ambient: ambients[c % ambients.len()].clone(),
                    threshold: threshold_for(c, colors),
                    worst_interference,
                    worst_switch,
                    sets,
                    device_names,
                    levels: vec![cfg.source_level_db; cfg.switches_per_cell],
                    alive: true,
                })
            })
            .collect::<Result<Vec<_>, CellPlanError>>()?;

        Ok(Self {
            cells,
            colors,
            cfg,
            source_amplitude,
        })
    }

    fn validate(
        num_cells: usize,
        ambients: &[AmbientProfile],
        cfg: &CellConfig,
    ) -> Result<(), CellPlanError> {
        let bad = |msg: &str| Err(CellPlanError::BadConfig(msg.into()));
        if num_cells == 0 {
            return bad("need at least one cell");
        }
        if ambients.is_empty() {
            return bad("need at least one ambient profile");
        }
        if cfg.switches_per_cell == 0 || cfg.slots_per_switch == 0 {
            return bad("switches_per_cell and slots_per_switch must be non-zero");
        }
        if !(cfg.rack_spacing_m > 0.0 && cfg.cell_pitch_m > 0.0 && cfg.mic_height_m > 0.0) {
            return bad("geometry distances must be positive");
        }
        if cfg.cell_pitch_m <= cfg.rack_spacing_m * (cfg.switches_per_cell - 1) as f64 {
            return bad("cell pitch must exceed the rack row length");
        }
        if cfg.detector_floor <= 0.0 {
            return bad("detector floor must be positive");
        }
        if cfg.safety_margin < 1.0 {
            return bad("safety margin must be at least 1");
        }
        if !(cfg.speaker_band.0 >= 0.0 && cfg.speaker_band.1 > cfg.speaker_band.0) {
            return bad("speaker band must be a non-empty non-negative range");
        }
        Ok(())
    }

    /// Switch `j` of cell `c` sits in the cell's rack row.
    fn switch_pos(c: usize, j: usize, cfg: &CellConfig) -> Pos {
        Pos::new(
            c as f64 * cfg.cell_pitch_m + j as f64 * cfg.rack_spacing_m,
            0.0,
            0.0,
        )
    }

    /// The cell mic hovers over the row centre.
    fn mic_pos(c: usize, cfg: &CellConfig) -> Pos {
        let half_row = cfg.rack_spacing_m * (cfg.switches_per_cell - 1) as f64 / 2.0;
        Pos::new(
            c as f64 * cfg.cell_pitch_m + half_row,
            cfg.mic_height_m,
            0.0,
        )
    }

    /// The planned cells, in id order.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Number of reuse colors (distinct sub-bands in use).
    pub fn colors(&self) -> usize {
        self.colors
    }

    /// How many cells share each set of frequencies on average — the
    /// scale-out multiplier over a flat plan.
    pub fn reuse_factor(&self) -> f64 {
        self.cells.len() as f64 / self.colors as f64
    }

    /// Total switches across all cells.
    pub fn total_switches(&self) -> usize {
        self.cells.len() * self.cfg.switches_per_cell
    }

    /// Distinct tone slots the deployment consumes from the base band
    /// (reused slots counted once).
    pub fn distinct_slots(&self) -> usize {
        self.colors * self.cfg.switches_per_cell * self.cfg.slots_per_switch
    }

    /// The configuration the plan was built from.
    pub fn config(&self) -> &CellConfig {
        &self.cfg
    }

    /// Peak amplitude of each switch speaker at 1 m (linear).
    pub fn source_amplitude(&self) -> f64 {
        self.source_amplitude
    }

    /// Sounding devices for every switch, grouped per cell, positioned on
    /// the planned geometry and set to the planned source level.
    pub fn sounding_devices(&self) -> Vec<Vec<SoundingDevice>> {
        self.cells
            .iter()
            .map(|cell| {
                cell.sets
                    .iter()
                    .zip(&cell.device_names)
                    .zip(cell.switch_pos.iter().zip(&cell.levels))
                    .map(|((set, name), (&pos, &level))| {
                        let mut dev = SoundingDevice::new(name, set.clone(), pos);
                        dev.level_db = level;
                        dev
                    })
                    .collect()
            })
            .collect()
    }

    /// Which cell binds the device `name`, with its per-cell switch
    /// index — after a migration this is the host cell, not the cell the
    /// name was minted in.
    pub fn find_device(&self, name: &str) -> Option<(usize, usize)> {
        self.cells.iter().find_map(|cell| {
            cell.device_names
                .iter()
                .position(|n| n == name)
                .map(|j| (cell.id, j))
        })
    }

    /// The sounding device `name` under the current plan: planned set,
    /// position, and level. After a migration this reflects the hosting
    /// cell's patched allocation (boosted level, spare slots), so an
    /// event loop that resolves devices at emission time follows the
    /// switch through an evacuation. `None` if no cell binds the name.
    pub fn sounding_device(&self, name: &str) -> Option<SoundingDevice> {
        let (c, j) = self.find_device(name)?;
        let cell = &self.cells[c];
        let mut dev = SoundingDevice::new(name, cell.sets[j].clone(), cell.switch_pos[j]);
        dev.level_db = cell.levels[j];
        Some(dev)
    }

    /// The detector configuration cell `c`'s controller runs: defaults
    /// with the magnitude floor raised to the cell's threshold.
    ///
    /// A cell hosting migrated switches drops the per-frame relative gate
    /// ([`DetectorConfig::frame_rel_floor`]): that gate assumes
    /// simultaneous tones have comparable levels, but a host deliberately
    /// listens to two loudness classes at once — its own switches ~1 m
    /// away and migrants a cell pitch away — and the gate would mask the
    /// faint class behind the loud one. Ghost suppression still comes
    /// from the local-max radius and the per-candidate magnitude/SNR
    /// floors, and [`CellPlan::verify_reuse`] re-proves the relaxed
    /// detector attributes no foreign tone.
    pub fn detector_config(&self, c: usize) -> DetectorConfig {
        let hosts_migrants = self.cells[c].sets.len() > self.cfg.switches_per_cell;
        DetectorConfig {
            min_magnitude: self.cells[c].threshold,
            frame_rel_floor: if hosts_migrants {
                0.0
            } else {
                DetectorConfig::default().frame_rel_floor
            },
            ..DetectorConfig::default()
        }
    }

    /// Build cell `c`'s controller: measurement mic at the planned
    /// position, the cell's threshold, and its local devices bound.
    pub fn controller_for(&self, c: usize) -> MdnController {
        let cell = &self.cells[c];
        let mut ctl = MdnController::new(Microphone::measurement(), cell.mic_pos);
        ctl.set_config(self.detector_config(c));
        for (name, set) in cell.device_names.iter().zip(&cell.sets) {
            ctl.bind_device(name, set.clone());
        }
        ctl
    }

    /// Evacuate a cell whose mic died: migrate every one of its switches
    /// onto a neighbouring alive cell's **spare** sub-band slots, so the
    /// host's mic hears them on frequencies no other cell binds.
    ///
    /// Host candidates are tried nearest-mic-first. A host is feasible
    /// when (a) its color's sub-band has enough slots bound by *no* cell
    /// of that color — chained migrations included — and (b) every
    /// migrated switch, played at a boosted level capped at 85 dB SPL,
    /// still clears the host's detection threshold with the plan's safety
    /// margin from its original rack position. Migrated slots are taken
    /// from the top of the sub-band (the ambient bed concentrates power
    /// low), and migrated switches keep their device names so event
    /// attribution survives the swap.
    ///
    /// Legality of the patched plan needs no new interference bound: the
    /// migrated frequencies are spare in every same-color cell, so only
    /// the host's detector binds them. [`CellPlan::verify_reuse`] replays
    /// the patched worst case — boosted migrants included — through the
    /// real pipeline as the final proof.
    pub fn replan_without_cell(&self, dead: usize) -> Result<CellPlan, CellPlanError> {
        if dead >= self.cells.len() {
            return Err(CellPlanError::BadConfig(format!(
                "cell {dead} out of range ({} cells)",
                self.cells.len()
            )));
        }
        if !self.cells[dead].alive {
            return Err(CellPlanError::BadConfig(format!(
                "cell {dead} is already dead"
            )));
        }
        let dead_mic = self.cells[dead].mic_pos;
        let mut hosts: Vec<usize> = self
            .cells
            .iter()
            .filter(|c| c.alive && c.id != dead)
            .map(|c| c.id)
            .collect();
        if hosts.is_empty() {
            return Err(CellPlanError::MigrationInfeasible {
                dead,
                detail: "no alive host cells".into(),
            });
        }
        hosts.sort_by(|&a, &b| {
            self.cells[a]
                .mic_pos
                .distance(&dead_mic)
                .total_cmp(&self.cells[b].mic_pos.distance(&dead_mic))
                .then(a.cmp(&b))
        });
        let base = FrequencyPlan::audible_default();
        let mut last = String::new();
        for host in hosts {
            match self.try_migrate(dead, host, &base) {
                Ok(plan) => return Ok(plan),
                Err(detail) => {
                    if last.is_empty() {
                        last = format!("host {host}: {detail}");
                    }
                }
            }
        }
        Err(CellPlanError::MigrationInfeasible { dead, detail: last })
    }

    /// Attempt the migration of `dead`'s switches onto `host`; `Err` is a
    /// human-readable reason the host cannot absorb them.
    fn try_migrate(
        &self,
        dead: usize,
        host: usize,
        base: &FrequencyPlan,
    ) -> Result<CellPlan, String> {
        let host_cell = &self.cells[host];
        let sub = base.subband(host_cell.color, self.colors);
        // Sub-band slots bound by ANY cell of this color: same-color cells
        // allocate identically, and earlier migrations may have claimed
        // spares — both must stay untouched.
        let mut occupied = vec![false; sub.capacity()];
        for cell in &self.cells {
            if cell.color != host_cell.color {
                continue;
            }
            for set in &cell.sets {
                for &s in &set.slots {
                    occupied[s] = true;
                }
            }
        }
        let migrants = &self.cells[dead];
        let needed: usize = migrants.sets.iter().map(|s| s.len()).sum();
        // Free slots, top of the sub-band first — but only slots the
        // migrants' speakers can actually drive: a high color's sub-band
        // extends past the configured speaker's response band, and a
        // slot the speaker refuses is not a usable spare.
        let (band_lo, band_hi) = self.cfg.speaker_band;
        let mut free: Vec<usize> = (0..sub.capacity())
            .rev()
            .filter(|&i| !occupied[i])
            .filter(|&i| {
                let f = sub.slot_freq(i);
                f >= band_lo && f <= band_hi
            })
            .collect();
        if free.len() < needed {
            return Err(format!(
                "{} speaker-reachable spare slots in color {}, need {needed}",
                free.len(),
                host_cell.color
            ));
        }

        // Per-migrant boosted level: enough incident amplitude at the host
        // mic to clear its threshold with the plan's safety margin, plus
        // headroom for capture-chain losses the geometry doesn't model.
        let mut levels = Vec::with_capacity(migrants.sets.len());
        for &pos in &migrants.switch_pos {
            let dist = host_cell.mic_pos.distance(&pos);
            let needed_amp =
                host_cell.threshold * self.cfg.safety_margin * MIGRATION_RESPONSE_MARGIN;
            let level =
                amplitude_to_spl(needed_amp / spreading_gain(dist)).max(self.cfg.source_level_db);
            if level > MAX_MIGRATED_LEVEL_DB {
                return Err(format!(
                    "switch at {dist:.1} m would need {level:.1} dB SPL (cap {MAX_MIGRATED_LEVEL_DB})"
                ));
            }
            levels.push(level);
        }

        let mut cells = self.cells.clone();
        let d = &mut cells[dead];
        d.alive = false;
        d.worst_interference = 0.0;
        let moved_sets = std::mem::take(&mut d.sets);
        let moved_names = std::mem::take(&mut d.device_names);
        let moved_pos = std::mem::take(&mut d.switch_pos);
        d.levels.clear();

        let h = &mut cells[host];
        for (((old, name), pos), level) in moved_sets
            .into_iter()
            .zip(moved_names)
            .zip(moved_pos)
            .zip(levels)
        {
            let mut slots: Vec<usize> = free.drain(..old.len()).collect();
            slots.sort_unstable();
            let freqs = slots.iter().map(|&s| sub.slot_freq(s)).collect();
            h.sets.push(FrequencySet {
                label: name.clone(),
                slots,
                freqs,
            });
            h.device_names.push(name);
            h.switch_pos.push(pos);
            h.levels.push(level);
        }

        Ok(CellPlan {
            cells,
            colors: self.colors,
            cfg: self.cfg.clone(),
            source_amplitude: self.source_amplitude,
        })
    }

    /// Replay the analytic worst case through the real pipeline: for each
    /// cell, every same-color foreign cell sounds the reused frequency
    /// that lands hardest on this cell's mic — simultaneously, through
    /// the full Music Protocol encode → speaker → air → microphone →
    /// detector chain, over the cell's own ambient bed — while the local
    /// cell stays silent. Any event the cell's controller attributes to a
    /// local switch is a leak and fails the plan.
    pub fn verify_reuse(&self, sample_rate: u32) -> Result<(), CellPlanError> {
        for cell in &self.cells {
            if !cell.alive || cell.sets.is_empty() {
                continue;
            }
            let j = cell.worst_switch;
            let mut scene = Scene::new(sample_rate, cell.ambient.clone());
            scene.set_ambient_seed(0xCE11 + cell.id as u64);
            for foreign in &self.cells {
                if foreign.id == cell.id || foreign.color != cell.color || foreign.sets.is_empty() {
                    continue;
                }
                let mut dev = SoundingDevice::new(
                    &foreign.device_names[j],
                    foreign.sets[j].clone(),
                    foreign.switch_pos[j],
                );
                dev.level_db = foreign.levels[j];
                emit_worst_case(&mut dev, &mut scene, cell.id)?;
                // Migrated switches (extra sets past the planned row)
                // play boosted from the evacuated cell's rack — include
                // them so their leakage into this cell is tested too.
                for m in self.cfg.switches_per_cell..foreign.sets.len() {
                    let mut dev = SoundingDevice::new(
                        &foreign.device_names[m],
                        foreign.sets[m].clone(),
                        foreign.switch_pos[m],
                    );
                    dev.level_db = foreign.levels[m];
                    emit_worst_case(&mut dev, &mut scene, cell.id)?;
                }
            }
            let ctl = self.controller_for(cell.id);
            let events = ctl.listen(&scene, Window::from_start(Duration::from_millis(400)));
            if let Some(e) = events.first() {
                return Err(CellPlanError::DetectorLeak {
                    cell: cell.id,
                    device: e.device.clone(),
                    slot: e.slot,
                    magnitude: e.magnitude,
                });
            }
        }
        Ok(())
    }
}

/// Sound `dev`'s first slot over `[100, 300)` ms of a verification scene
/// for `cell`, as a typed error if the device cannot play it.
fn emit_worst_case(
    dev: &mut SoundingDevice,
    scene: &mut Scene,
    cell: usize,
) -> Result<(), CellPlanError> {
    dev.emit_slot(
        scene,
        0,
        Duration::from_millis(100),
        Duration::from_millis(200),
    )
    .map_err(|error| CellPlanError::VerifyEmit {
        cell,
        device: dev.name.clone(),
        error,
    })
}

/// One controller + microphone per cell, listened in parallel, merged
/// into a single deterministic event stream.
#[derive(Debug)]
pub struct ShardedController {
    controllers: Vec<MdnController>,
    /// Each cell's carried pre-roll render, for its next listen.
    pre_rolls: Vec<Option<PreRoll>>,
    /// Each shard worker's render and capture buffers, kept from one
    /// listen to the next.
    scratch: Vec<ListenScratch>,
    reuse_factor: f64,
    threads: usize,
    obs_cell_events: Vec<Counter>,
    obs_registry: Option<Registry>,
    obs_plan_swaps: Counter,
}

impl ShardedController {
    /// Controllers for every cell of `plan`.
    pub fn new(plan: &CellPlan) -> Self {
        let controllers = (0..plan.cells().len())
            .map(|c| plan.controller_for(c))
            .collect::<Vec<_>>();
        let obs_cell_events = (0..controllers.len())
            .map(|_| Counter::disabled())
            .collect();
        Self {
            pre_rolls: controllers.iter().map(|_| None).collect(),
            scratch: Vec::new(),
            controllers,
            reuse_factor: plan.reuse_factor(),
            threads: 0,
            obs_cell_events,
            obs_registry: None,
            obs_plan_swaps: Counter::disabled(),
        }
    }

    /// Hot-swap to a patched plan between capture windows: every cell's
    /// controller is rebuilt from `plan` (a dead cell's controller ends
    /// up with no bindings and is skipped by [`ShardedController::listen`]).
    /// Rebuilding resets detector noise floors to their static floor —
    /// the self-healing loop re-tunes them from its running ambient
    /// estimate after the swap.
    ///
    /// # Panics
    /// Panics if `plan` has a different cell count.
    pub fn apply_plan(&mut self, plan: &CellPlan) {
        assert_eq!(
            plan.cells().len(),
            self.controllers.len(),
            "hot swap must keep the cell count"
        );
        self.controllers = (0..plan.cells().len())
            .map(|c| plan.controller_for(c))
            .collect();
        self.pre_rolls.fill_with(|| None);
        self.reuse_factor = plan.reuse_factor();
        if let Some(registry) = self.obs_registry.clone() {
            // Re-attach so rebuilt controllers keep feeding the same
            // registry the originals did.
            self.attach_obs(&registry);
        }
        self.obs_plan_swaps.inc();
    }

    /// Number of cell shards.
    pub fn num_cells(&self) -> usize {
        self.controllers.len()
    }

    /// The per-cell controllers, in cell order.
    pub fn controllers(&self) -> &[MdnController] {
        &self.controllers
    }

    /// Mutable access to one cell's controller (calibration, health).
    pub fn controller_mut(&mut self, cell: usize) -> &mut MdnController {
        &mut self.controllers[cell]
    }

    /// Worker threads for [`ShardedController::listen`]: `0` sizes from
    /// the machine, `1` forces sequential, `n` caps at `n`. The merged
    /// stream is bit-identical for every setting.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads;
    }

    /// Register per-cell event counters
    /// (`mdn_cell_events_total{cell="…"}`), the plan-swap counter
    /// (`mdn_cells_plan_swaps_total`), the reuse-factor and cell-count
    /// gauges, and every cell controller's own metrics. The registry is
    /// remembered so [`ShardedController::apply_plan`] can re-attach
    /// rebuilt controllers.
    pub fn attach_obs(&mut self, registry: &Registry) {
        self.obs_registry = Some(registry.clone());
        self.obs_plan_swaps = registry.counter("mdn_cells_plan_swaps_total", &[]);
        for (c, slot) in self.obs_cell_events.iter_mut().enumerate() {
            *slot = registry.counter("mdn_cell_events_total", &[("cell", &c.to_string())]);
        }
        registry
            .gauge("mdn_cells_reuse_factor", &[])
            .set(self.reuse_factor);
        registry
            .gauge("mdn_cells_total", &[])
            .set(self.controllers.len() as f64);
        for ctl in &mut self.controllers {
            ctl.attach_obs(registry);
        }
    }

    /// Listen over window `w` with every cell's controller: the merged,
    /// time-ordered, cell-attributed event stream, and each cell's
    /// ambient-retune analysis of `w` (`None` for a cell with no
    /// bindings). Cell `c`'s events are `controllers()[c].listen(scene,
    /// w)`'s, and its analysis is that of a separate capture of `w`.
    ///
    /// Cells are listened in parallel (chunked over scoped threads, each
    /// writing a pre-assigned output slot; inside a chunk, groups of
    /// [`CAPTURE_LANES`] cells share one batched capture, and each cell's
    /// analysis is cut from its one listen render; see [`listen_cells`])
    /// and merged sequentially by [`merge_event_streams`], so the result
    /// is bit-identical for any thread count. Each cell carries the tail
    /// of its render to the next call, which reuses it only while
    /// [`Scene::renders_unchanged`] proves it exact (in practice, when
    /// that call's window starts where this one ended);
    /// [`Self::apply_plan`] drops the carried tails.
    pub fn listen(
        &mut self,
        scene: &Scene,
        w: Window,
    ) -> (Vec<ShardEvent>, Vec<Option<FrameMagnitudes>>) {
        let n = self.controllers.len();
        let mut heard: Vec<Heard> = Vec::with_capacity(n);
        heard.resize_with(n, Heard::default);

        let workers = if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, |p| p.get())
        } else {
            self.threads
        }
        .clamp(1, n.max(1));
        self.scratch.resize_with(workers, ListenScratch::default);

        // A worker's contiguous chunk of cells, in groups of
        // `CAPTURE_LANES`, in cell order.
        let listen_chunk = |ctls: &[MdnController],
                            pre_rolls: &mut [Option<PreRoll>],
                            scratch: &mut ListenScratch,
                            out: &mut [Heard]| {
            for ((ctls, pre_rolls), out) in ctls
                .chunks(CAPTURE_LANES)
                .zip(pre_rolls.chunks_mut(CAPTURE_LANES))
                .zip(out.chunks_mut(CAPTURE_LANES))
            {
                listen_cells(ctls, pre_rolls, scene, w, scratch, out);
            }
        };

        if workers <= 1 {
            listen_chunk(
                &self.controllers,
                &mut self.pre_rolls,
                &mut self.scratch[0],
                &mut heard,
            );
        } else {
            let chunk = n.div_ceil(workers);
            let listen_chunk = &listen_chunk;
            std::thread::scope(|s| {
                for (((ctls, pre_rolls), scratch), out) in self
                    .controllers
                    .chunks(chunk)
                    .zip(self.pre_rolls.chunks_mut(chunk))
                    .zip(self.scratch.iter_mut())
                    .zip(heard.chunks_mut(chunk))
                {
                    s.spawn(move || listen_chunk(ctls, pre_rolls, scratch, out));
                }
            });
        }
        let (per_cell, analyses) = heard.into_iter().unzip();
        (self.merge(per_cell), analyses)
    }

    /// Count each cell's events and merge the shards.
    fn merge(&self, per_cell: Vec<Vec<MdnEvent>>) -> Vec<ShardEvent> {
        for (c, events) in per_cell.iter().enumerate() {
            if !events.is_empty() {
                self.obs_cell_events[c].add(events.len() as u64);
            }
        }
        merge_event_streams(per_cell)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> CellConfig {
        CellConfig {
            switches_per_cell: 3,
            slots_per_switch: 4,
            ..CellConfig::default()
        }
    }

    #[test]
    fn default_plan_reaches_target_scale_and_reuse() {
        let plan = CellPlan::plan(20, &[AmbientProfile::office()], CellConfig::default()).unwrap();
        assert_eq!(plan.total_switches(), 120);
        let flat_slots = plan.total_switches() * plan.config().slots_per_switch;
        assert!(flat_slots > FrequencyPlan::audible_default().capacity());
        assert!(
            plan.reuse_factor() >= 4.0,
            "reuse only {}×",
            plan.reuse_factor()
        );
        assert!(plan.distinct_slots() <= FrequencyPlan::audible_default().capacity());
    }

    #[test]
    fn same_color_cells_share_frequencies_distinct_colors_are_disjoint() {
        let plan = CellPlan::plan(8, &[AmbientProfile::quiet()], small_cfg()).unwrap();
        let k = plan.colors();
        assert!(k >= 2, "no reuse structure to test");
        let cells = plan.cells();
        let freqs =
            |c: usize| -> Vec<f64> { cells[c].sets.iter().flat_map(|s| s.freqs.clone()).collect() };
        assert_eq!(freqs(0), freqs(k), "same color must share tones");
        let a = freqs(0);
        let b = freqs(1);
        assert!(
            a.iter().all(|f| !b.contains(f)),
            "adjacent colors must be disjoint"
        );
    }

    #[test]
    fn interference_bound_holds_with_margin() {
        let plan = CellPlan::plan(20, &[AmbientProfile::office()], CellConfig::default()).unwrap();
        for cell in plan.cells() {
            assert!(
                cell.worst_interference * plan.config().safety_margin <= cell.threshold,
                "cell {}: {:.2e} × margin breaches {:.2e}",
                cell.id,
                cell.worst_interference,
                cell.threshold
            );
            assert!(cell.worst_interference > 0.0, "bound should be non-trivial");
        }
    }

    #[test]
    fn noisy_ambient_raises_the_threshold() {
        let quiet = CellPlan::plan(4, &[AmbientProfile::quiet()], small_cfg()).unwrap();
        let loud = CellPlan::plan(4, &[AmbientProfile::datacenter()], small_cfg()).unwrap();
        assert_eq!(quiet.cells()[0].threshold, small_cfg().detector_floor);
        assert!(
            loud.cells()[0].threshold > quiet.cells()[0].threshold,
            "datacenter ambient must raise the floor"
        );
    }

    #[test]
    fn unplayable_high_colors_are_rejected_not_silently_allocated() {
        // 100 cells need 6 colors for the interference bound, but color 5's
        // sub-band starts above the cheap speaker's 15 kHz top: every
        // emission there would fail at the speaker. The planner must refuse
        // rather than hand out dead spectrum.
        let err = CellPlan::plan(100, &[AmbientProfile::office()], CellConfig::default())
            .expect_err("cheap speakers cannot drive a 6-color plan");
        assert!(
            matches!(err, CellPlanError::SpeakerUnreachable { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn ultrasound_band_unlocks_the_same_plan() {
        let cfg = CellConfig {
            speaker_band: Speaker::ultrasound_capable().band,
            ..CellConfig::default()
        };
        let plan = CellPlan::plan(100, &[AmbientProfile::office()], cfg).unwrap();
        assert!(plan.colors() >= 5, "expected a high-reuse coloring");
        let (lo, hi) = plan.config().speaker_band;
        for cell in plan.cells() {
            for set in &cell.sets {
                for &f in &set.freqs {
                    assert!((lo..=hi).contains(&f), "allocated {f} Hz outside band");
                }
            }
        }
    }

    #[test]
    fn forced_tight_coloring_is_rejected() {
        let cfg = CellConfig {
            colors: 1,
            cell_pitch_m: 2.0,
            switches_per_cell: 3,
            slots_per_switch: 4,
            ..CellConfig::default()
        };
        let err = CellPlan::plan(6, &[AmbientProfile::quiet()], cfg).unwrap_err();
        assert!(
            matches!(err, CellPlanError::ReuseUnsafe { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn capacity_overflow_is_an_error() {
        let cfg = CellConfig {
            switches_per_cell: 200,
            slots_per_switch: 8,
            cell_pitch_m: 100.0,
            ..CellConfig::default()
        };
        let err = CellPlan::plan(2, &[AmbientProfile::quiet()], cfg).unwrap_err();
        assert!(matches!(err, CellPlanError::Capacity { .. }), "got {err:?}");
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        let cfg = CellConfig {
            safety_margin: 0.5,
            ..CellConfig::default()
        };
        assert!(matches!(
            CellPlan::plan(2, &[AmbientProfile::quiet()], cfg).unwrap_err(),
            CellPlanError::BadConfig(_)
        ));
        assert!(matches!(
            CellPlan::plan(0, &[AmbientProfile::quiet()], CellConfig::default()).unwrap_err(),
            CellPlanError::BadConfig(_)
        ));
        assert!(matches!(
            CellPlan::plan(2, &[], CellConfig::default()).unwrap_err(),
            CellPlanError::BadConfig(_)
        ));
    }

    #[test]
    fn devices_sit_on_planned_geometry() {
        let plan = CellPlan::plan(3, &[AmbientProfile::quiet()], small_cfg()).unwrap();
        let devices = plan.sounding_devices();
        assert_eq!(devices.len(), 3);
        for (cell, devs) in plan.cells().iter().zip(&devices) {
            for (dev, &pos) in devs.iter().zip(&cell.switch_pos) {
                assert_eq!(dev.pos, pos);
                assert_eq!(dev.level_db, plan.config().source_level_db);
            }
        }
        // Mic sits over the row centre, between first and last switch.
        let c0 = &plan.cells()[0];
        assert!(c0.mic_pos.x > c0.switch_pos[0].x);
        assert!(c0.mic_pos.x < c0.switch_pos.last().unwrap().x);
    }

    #[test]
    fn verify_reuse_passes_on_a_small_plan() {
        let plan = CellPlan::plan(6, &[AmbientProfile::quiet()], small_cfg()).unwrap();
        plan.verify_reuse(44_100).unwrap();
    }

    #[test]
    fn replan_moves_dead_cells_switches_to_spare_slots() {
        let plan = CellPlan::plan(6, &[AmbientProfile::quiet()], small_cfg()).unwrap();
        let patched = plan.replan_without_cell(2).unwrap();

        let dead = &patched.cells()[2];
        assert!(!dead.alive);
        assert!(dead.sets.is_empty() && dead.device_names.is_empty());

        // Every evacuated device is rebound somewhere, under its old name.
        for j in 0..plan.config().switches_per_cell {
            let name = format!("c2-s{j}");
            let (host, local) = patched.find_device(&name).expect("device rebound");
            assert_ne!(host, 2);
            let hc = &patched.cells()[host];
            assert!(hc.alive);
            // Migrated slots live in the host's sub-band but collide with
            // no same-color cell's allocation.
            let set = &hc.sets[local];
            assert_eq!(set.len(), plan.config().slots_per_switch);
            for other in patched.cells() {
                if other.color != hc.color || other.id == host {
                    continue;
                }
                for s in &other.sets {
                    assert!(
                        set.slots.iter().all(|x| !s.slots.contains(x)),
                        "migrated slots must be spare everywhere on the color"
                    );
                }
            }
            // The switch did not physically move, and it plays boosted
            // (or at least at the planned level).
            assert_eq!(hc.switch_pos[local], plan.cells()[2].switch_pos[j]);
            assert!(hc.levels[local] >= plan.config().source_level_db);
            assert!(hc.levels[local] <= 85.0);
        }

        // The patched plan still passes the real-pipeline reuse proof.
        patched.verify_reuse(44_100).unwrap();
    }

    #[test]
    fn replan_rejects_an_already_dead_cell() {
        let plan = CellPlan::plan(4, &[AmbientProfile::quiet()], small_cfg()).unwrap();
        let patched = plan.replan_without_cell(1).unwrap();
        assert!(matches!(
            patched.replan_without_cell(1).unwrap_err(),
            CellPlanError::BadConfig(_)
        ));
    }

    #[test]
    fn chained_replans_keep_slots_disjoint() {
        let plan = CellPlan::plan(6, &[AmbientProfile::quiet()], small_cfg()).unwrap();
        let once = plan.replan_without_cell(1).unwrap();
        let twice = once.replan_without_cell(4).unwrap();
        // Same-color cells share their planned slots by design; migrated
        // (extra) sets must be disjoint from every other allocation on
        // their color, including other migrations.
        let k = twice.config().switches_per_cell;
        for cell in twice.cells() {
            for set in cell.sets.iter().skip(k) {
                for other in twice.cells() {
                    if other.color != cell.color {
                        continue;
                    }
                    for (oi, os) in other.sets.iter().enumerate() {
                        if other.id == cell.id && os.label == set.label {
                            continue;
                        }
                        assert!(
                            set.slots.iter().all(|s| !os.slots.contains(s)),
                            "migrated {} collides with {} (cell {} set {oi})",
                            set.label,
                            os.label,
                            other.id
                        );
                    }
                }
            }
        }
        twice.verify_reuse(44_100).unwrap();
    }

    #[test]
    fn apply_plan_hot_swaps_controllers() {
        let plan = CellPlan::plan(4, &[AmbientProfile::quiet()], small_cfg()).unwrap();
        let mut sharded = ShardedController::new(&plan);
        let patched = plan.replan_without_cell(0).unwrap();
        sharded.apply_plan(&patched);
        assert!(
            sharded.controllers()[0].bindings().is_empty(),
            "dead cell's controller unbinds"
        );
        let host = patched.find_device("c0-s0").unwrap().0;
        assert!(
            sharded.controllers()[host].bindings().len() > plan.config().switches_per_cell,
            "host controller binds the migrants"
        );
    }

    #[test]
    fn mic_capture_span_counts_one_batch_per_group_of_cells() {
        let plan =
            CellPlan::plan(CAPTURE_LANES + 2, &[AmbientProfile::quiet()], small_cfg()).unwrap();
        let mut sharded = ShardedController::new(&plan);
        sharded.set_threads(1);
        let registry = Registry::new();
        sharded.attach_obs(&registry);
        let batches =
            || registry.snapshot().histograms["mdn_stage_ns{stage=\"mic.capture\"}"].count;
        let scene = Scene::quiet(44_100);
        let w = Window::new(Duration::from_millis(300), Duration::from_millis(300));
        // A whole group of cells and a partial one: two batched calls,
        // each capturing its cells' listen and retune streams together.
        let _ = sharded.listen(&scene, w);
        assert_eq!(batches(), 2);
        // An evacuated cell inside the first group is skipped, not a
        // batch of its own.
        sharded.apply_plan(&plan.replan_without_cell(1).unwrap());
        assert!(sharded.controllers()[1].bindings().is_empty());
        let _ = sharded.listen(&scene, w);
        assert_eq!(batches(), 4);
    }

    #[test]
    fn listens_in_any_window_order_equal_fresh_per_cell_listens() {
        // A cell reuses its carried pre-roll only when the listen needs
        // exactly the span it holds, heard from where it was rendered.
        // Re-listening a window, going back, skipping ahead or moving the
        // mic renders the whole span again; every order gives each cell's
        // fresh `MdnController::listen` and the analysis of a separate
        // capture of the window.
        let plan = CellPlan::plan(3, &[AmbientProfile::office()], small_cfg()).unwrap();
        let slots = plan.config().slots_per_switch;
        let mut scene = Scene::new(44_100, AmbientProfile::office());
        scene.set_ambient_seed(7);
        for (c, devs) in plan.sounding_devices().into_iter().enumerate() {
            for (j, mut dev) in devs.into_iter().enumerate() {
                // One tone across every window boundary.
                for k in 0..5u64 {
                    let at = Duration::from_millis(300 * k + 250 + 10 * j as u64);
                    let slot = (c + k as usize) % slots;
                    dev.emit_slot(&mut scene, slot, at, Duration::from_millis(100))
                        .unwrap();
                }
            }
        }
        let mut sharded = ShardedController::new(&plan);
        sharded.set_threads(1);
        let registry = Registry::new();
        sharded.attach_obs(&registry);
        let carried = || {
            registry
                .snapshot()
                .counters
                .get("mdn_listen_pre_roll_carried_total")
                .copied()
                .unwrap_or(0)
        };
        let bits = |a: &Option<FrameMagnitudes>| {
            a.as_ref()
                .map(|a| a.magnitudes.iter().map(|m| m.to_bits()).collect::<Vec<_>>())
        };
        let mut heard = 0;
        // (window index, cells that reuse their carried pre-roll); cell 0's
        // mic moves before window 5.
        for (t, reused) in [(1, 0), (2, 3), (2, 0), (1, 0), (3, 0), (4, 3), (5, 2)] {
            if t == 5 {
                sharded.controller_mut(0).pos.x += 0.5;
            }
            let w = Window::new(Duration::from_millis(300) * t, Duration::from_millis(300));
            let before = carried();
            let (events, analyses) = sharded.listen(&scene, w);
            assert_eq!(carried() - before, reused, "window {t}");
            let fresh = sharded
                .controllers()
                .iter()
                .map(|ctl| ctl.listen(&scene, w))
                .collect();
            assert_eq!(events, merge_event_streams(fresh), "window {t}");
            for (c, (ctl, got)) in sharded.controllers().iter().zip(&analyses).enumerate() {
                let want = ctl.analyze(&ctl.capture(&scene, w));
                assert_eq!(bits(got), bits(&want), "window {t}, cell {c}");
            }
            heard += events.len();
        }
        assert!(heard > 0, "the boundary tones decoded");
    }

    #[test]
    fn resampling_mics_listen_in_groups_as_lone_captures() {
        // A 48 kHz scene heard through the 44.1 kHz measurement mic: each
        // capture resamples, leaving its group buffer at the mic's rate
        // for the next group and the next window to render into again.
        let plan =
            CellPlan::plan(CAPTURE_LANES + 2, &[AmbientProfile::office()], small_cfg()).unwrap();
        let mut sharded = ShardedController::new(&plan);
        sharded.set_threads(1);
        let scene = Scene::new(48_000, AmbientProfile::office());
        for t in 0..2u32 {
            let w = Window::new(Duration::from_millis(300) * t, Duration::from_millis(300));
            let (_, analyses) = sharded.listen(&scene, w);
            for (c, (ctl, got)) in sharded.controllers().iter().zip(&analyses).enumerate() {
                let want = ctl.analyze(&ctl.capture(&scene, w));
                let bits = |a: &Option<FrameMagnitudes>| {
                    a.as_ref()
                        .map(|a| a.magnitudes.iter().map(|m| m.to_bits()).collect::<Vec<_>>())
                };
                assert_eq!(bits(got), bits(&want), "window {t}, cell {c}");
            }
        }
    }

    #[test]
    fn sharded_controller_counts_match_plan() {
        let plan = CellPlan::plan(5, &[AmbientProfile::quiet()], small_cfg()).unwrap();
        let sharded = ShardedController::new(&plan);
        assert_eq!(sharded.num_cells(), 5);
        assert_eq!(
            sharded.controllers()[2].bindings().len(),
            plan.config().switches_per_cell
        );
    }
}
