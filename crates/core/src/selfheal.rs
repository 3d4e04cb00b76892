//! The self-healing acoustic plane: closed-loop recalibration, dead
//! device detection, and live cell re-planning.
//!
//! The paper's one-shot `calibrate` step measures the ambient bed once
//! and fixes detector thresholds forever — fine on a bench, wrong in a
//! datacenter whose HVAC load drifts hour to hour. This module closes
//! the loop:
//!
//! * [`AmbientEstimator`] — a streaming per-slot EWMA noise tracker fed
//!   from every capture window. Frames that look like MDN tones (large
//!   against both the running floor and the frame's own median) are
//!   excluded per candidate, so the estimate tracks the *bed*, not the
//!   signal, and detector floors re-tune continuously.
//! * [`SelfHealingController`] — wraps a [`ShardedController`] and its
//!   [`CellPlan`]; each [`SelfHealingController::tick`] listens over one
//!   window, updates the ambient estimate, feeds hear/miss evidence into
//!   a [`HealthTracker`], and — when every switch of a cell has gone
//!   acoustically dead at once (the signature of a dead microphone, not
//!   of one blown speaker) — evacuates the cell with
//!   [`CellPlan::replan_without_cell`] and hot-swaps the patched plan
//!   between capture windows. Recovery times land in the tracker's MTTR
//!   ledger and the attached registry.

use crate::cells::{CellPlan, CellPlanError, ShardedController};
use crate::controller::ShardEvent;
use crate::detector::FrameMagnitudes;
use crate::health::{HealthConfig, HealthTracker};
use mdn_acoustics::scene::Scene;
use mdn_audio::signal::Window;
use mdn_obs::{Counter, Journal, Registry};
use std::collections::BTreeSet;
use std::time::Duration;

/// Tuning for the streaming ambient tracker.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AmbientEstimatorConfig {
    /// EWMA weight of a new non-tone frame (0 < alpha ≤ 1). Smaller is
    /// smoother; larger tracks drift faster.
    pub alpha: f64,
    /// A candidate's frame magnitude is tone-suspect (excluded from the
    /// floor update) when it exceeds `tone_floor_ratio ×` its running
    /// floor…
    pub tone_floor_ratio: f64,
    /// …AND `tone_median_ratio ×` the frame's median across candidates.
    /// The median guard keeps a genuine broadband jump (every slot rises
    /// together) flowing into the estimate instead of being mistaken for
    /// hundreds of simultaneous tones.
    pub tone_median_ratio: f64,
}

impl Default for AmbientEstimatorConfig {
    fn default() -> Self {
        Self {
            alpha: 0.2,
            tone_floor_ratio: 3.0,
            tone_median_ratio: 3.0,
        }
    }
}

impl AmbientEstimatorConfig {
    /// Check the EWMA invariants without panicking: `alpha` outside
    /// (0, 1] either freezes the floor forever or overshoots it, and a
    /// non-positive tone-guard ratio marks every frame tone-suspect,
    /// starving the estimate.
    pub fn validate(&self) -> Result<(), mdn_obs::ConfigError> {
        if !(self.alpha > 0.0 && self.alpha <= 1.0) {
            return Err(mdn_obs::ConfigError::new(
                "alpha",
                format!("EWMA weight must be in (0, 1], got {}", self.alpha),
            ));
        }
        if self.tone_floor_ratio.is_nan() || self.tone_floor_ratio <= 0.0 {
            return Err(mdn_obs::ConfigError::new(
                "tone_floor_ratio",
                format!(
                    "tone guard ratio must be positive, got {}",
                    self.tone_floor_ratio
                ),
            ));
        }
        if self.tone_median_ratio.is_nan() || self.tone_median_ratio <= 0.0 {
            return Err(mdn_obs::ConfigError::new(
                "tone_median_ratio",
                format!(
                    "tone guard ratio must be positive, got {}",
                    self.tone_median_ratio
                ),
            ));
        }
        Ok(())
    }
}

/// Streaming per-candidate noise-floor estimator: an EWMA over frames
/// that don't look like tones.
#[derive(Debug, Clone)]
pub struct AmbientEstimator {
    cfg: AmbientEstimatorConfig,
    /// Running floor per candidate; `< 0` marks "no frame seen yet".
    floors: Vec<f64>,
    frames_seen: u64,
    /// Per-candidate updates skipped as tone-suspect.
    updates_skipped: u64,
}

impl AmbientEstimator {
    /// An estimator for `candidates` detector slots.
    pub fn new(candidates: usize, cfg: AmbientEstimatorConfig) -> Self {
        Self::try_new(candidates, cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible construction: a rejected config comes back as a typed
    /// [`mdn_obs::ConfigError`] naming the field instead of a panic —
    /// the entry point scenario lowering uses.
    pub fn try_new(
        candidates: usize,
        cfg: AmbientEstimatorConfig,
    ) -> Result<Self, mdn_obs::ConfigError> {
        cfg.validate()?;
        Ok(Self {
            cfg,
            floors: vec![-1.0; candidates],
            frames_seen: 0,
            updates_skipped: 0,
        })
    }

    /// Number of candidates tracked.
    pub fn candidates(&self) -> usize {
        self.floors.len()
    }

    /// Frames folded in so far.
    pub fn frames_seen(&self) -> u64 {
        self.frames_seen
    }

    /// Per-candidate updates rejected as tone-suspect.
    pub fn updates_skipped(&self) -> u64 {
        self.updates_skipped
    }

    /// Fold one analysis window into the running estimate.
    ///
    /// # Panics
    /// Panics if `fm`'s candidate count differs from the estimator's.
    pub fn observe(&mut self, fm: &FrameMagnitudes) {
        assert_eq!(
            fm.candidates,
            self.floors.len(),
            "analysis candidate count must match the estimator"
        );
        if fm.candidates == 0 {
            return;
        }
        // One scratch per call; each frame's lower median is a selection,
        // not a sort, and picks the value a sort would.
        let mut scratch = vec![0.0f64; fm.candidates];
        let mid = (fm.candidates - 1) / 2;
        for fi in 0..fm.n_frames() {
            let frame = fm.frame(fi);
            scratch.copy_from_slice(frame);
            // Lower median: with few candidates the upper-middle element
            // can be the tone itself, which would mask it from the guard.
            let (_, &mut median, _) = scratch.select_nth_unstable_by(mid, f64::total_cmp);
            for (c, &m) in frame.iter().enumerate() {
                let floor = self.floors[c];
                let suspect = floor >= 0.0
                    && m >= self.cfg.tone_floor_ratio * floor
                    && m >= self.cfg.tone_median_ratio * median;
                if suspect {
                    self.updates_skipped += 1;
                } else if floor < 0.0 {
                    self.floors[c] = m;
                } else {
                    self.floors[c] = (1.0 - self.cfg.alpha) * floor + self.cfg.alpha * m;
                }
            }
            self.frames_seen += 1;
        }
    }

    /// The current floor estimate, zero for never-updated candidates —
    /// shaped for [`crate::controller::MdnController::set_noise_floor`],
    /// which clamps from below.
    pub fn floors(&self) -> Vec<f64> {
        self.floors.iter().map(|&f| f.max(0.0)).collect()
    }
}

/// Tuning for the self-healing loop.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SelfHealConfig {
    /// The ambient tracker's parameters.
    pub estimator: AmbientEstimatorConfig,
    /// Acoustic-ledger scoring: the missed/heard tone weights and the
    /// death threshold.
    pub health: HealthConfig,
    /// Run [`CellPlan::verify_reuse`] on every patched plan before
    /// swapping it in. The proof replays real audio per cell — cheap at
    /// test scale, worth skipping in large soaks.
    pub verify_on_replan: bool,
    /// Sample rate `verify_reuse` renders at.
    pub verify_sample_rate: u32,
}

impl Default for SelfHealConfig {
    fn default() -> Self {
        Self {
            estimator: AmbientEstimatorConfig::default(),
            health: HealthConfig::default(),
            verify_on_replan: true,
            verify_sample_rate: 44_100,
        }
    }
}

impl SelfHealConfig {
    /// Check this config and every nested one, prefixing nested fields
    /// with their section (`estimator.alpha`, `health.acoustic_dead_at`).
    pub fn validate(&self) -> Result<(), mdn_obs::ConfigError> {
        self.estimator.validate().map_err(|e| {
            mdn_obs::ConfigError::new("estimator", format!("{}: {}", e.field, e.reason))
        })?;
        self.health.validate().map_err(|e| {
            mdn_obs::ConfigError::new("health", format!("{}: {}", e.field, e.reason))
        })?;
        if self.verify_sample_rate == 0 {
            return Err(mdn_obs::ConfigError::new(
                "verify_sample_rate",
                "verification cannot render audio at 0 Hz",
            ));
        }
        Ok(())
    }
}

/// What one [`SelfHealingController::tick`] observed and did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TickReport {
    /// Decoded, cell-attributed events for the window.
    pub events: Vec<ShardEvent>,
    /// Expected devices that decoded at least once.
    pub heard: Vec<String>,
    /// Expected devices that never decoded.
    pub missed: Vec<String>,
    /// A cell evacuated this tick, with the patched-plan result.
    pub replanned: Option<usize>,
    /// Devices that completed a recovery this tick (their MTTR sample is
    /// in [`HealthTracker::recovery_time`]).
    pub recovered: Vec<String>,
}

/// Registry handles for the loop; disabled (free) by default.
#[derive(Debug, Clone, Default)]
struct SelfHealObs {
    ticks: Counter,
    retunes: Counter,
    replans: Counter,
    replan_failures: Counter,
    journal: Journal,
}

/// The closed loop: sharded listening + ambient re-tuning + health
/// bookkeeping + live re-planning, one capture window at a time.
#[derive(Debug)]
pub struct SelfHealingController {
    plan: CellPlan,
    sharded: ShardedController,
    health: HealthTracker,
    estimators: Vec<Option<AmbientEstimator>>,
    cfg: SelfHealConfig,
    obs: SelfHealObs,
    registry: Option<Registry>,
}

impl SelfHealingController {
    /// A loop over `plan` with default tuning.
    pub fn new(plan: CellPlan) -> Self {
        Self::with_config(plan, SelfHealConfig::default())
    }

    /// A loop over `plan` with explicit tuning.
    pub fn with_config(plan: CellPlan, cfg: SelfHealConfig) -> Self {
        let sharded = ShardedController::new(&plan);
        let estimators = (0..plan.cells().len()).map(|_| None).collect();
        Self {
            sharded,
            health: HealthTracker::new(cfg.health),
            estimators,
            cfg,
            plan,
            obs: SelfHealObs::default(),
            registry: None,
        }
    }

    /// Register the loop's metrics: `mdn_selfheal_ticks_total`,
    /// `mdn_selfheal_retunes_total`, `mdn_selfheal_replans_total`,
    /// `mdn_selfheal_replan_failures_total`, journal entries
    /// (`selfheal.replan`, `selfheal.replan_failed`), plus everything the
    /// wrapped sharded controller and health tracker export.
    pub fn attach_obs(&mut self, registry: &Registry) {
        self.registry = Some(registry.clone());
        self.obs = SelfHealObs {
            ticks: registry.counter("mdn_selfheal_ticks_total", &[]),
            retunes: registry.counter("mdn_selfheal_retunes_total", &[]),
            replans: registry.counter("mdn_selfheal_replans_total", &[]),
            replan_failures: registry.counter("mdn_selfheal_replan_failures_total", &[]),
            journal: registry.journal(),
        };
        self.sharded.attach_obs(registry);
        self.health.attach_obs(registry);
    }

    /// The current (possibly patched) plan.
    pub fn plan(&self) -> &CellPlan {
        &self.plan
    }

    /// The wrapped sharded controller.
    pub fn sharded(&self) -> &ShardedController {
        &self.sharded
    }

    /// Mutable access to the wrapped sharded controller (thread tuning).
    pub fn sharded_mut(&mut self) -> &mut ShardedController {
        &mut self.sharded
    }

    /// The device-health ledger (acoustic liveness, MTTR samples).
    pub fn health(&self) -> &HealthTracker {
        &self.health
    }

    /// Cell `c`'s ambient estimator, if it has observed a window yet.
    pub fn estimator(&self, c: usize) -> Option<&AmbientEstimator> {
        self.estimators[c].as_ref()
    }

    /// Run one loop iteration over window `w` of `scene`.
    ///
    /// `expected` names the devices scheduled to sound inside `w`; a
    /// device that decodes is heard-evidence, an expected device that
    /// doesn't is missed-evidence. When every switch a live cell binds
    /// has gone acoustically dead simultaneously, the cell's mic is
    /// declared dead and the cell is evacuated (at most one evacuation
    /// per tick).
    ///
    /// Each cell renders its pre-rolled listen window once: the listen
    /// decodes it, and the ambient retune analyses the `w` span cut from
    /// the same render, inside the same shard worker. Consecutive ticks
    /// carry each cell's pre-roll render over: when `w` starts where the
    /// last tick's window ended and the scene proves that span unchanged
    /// ([`Scene::renders_unchanged`]), only `w` itself is rendered. The
    /// report and every detector floor are byte-identical to
    /// [`ShardedController::listen`] followed by [`Self::heal_pass`],
    /// which renders the whole pre-rolled span and then `w` a second
    /// time.
    pub fn tick(&mut self, scene: &Scene, w: Window, expected: &[String]) -> TickReport {
        let (events, analyses) = self.sharded.listen_and_analyze(scene, w);
        self.heal_analyzed(w, expected, events, analyses)
    }

    /// The reacting half of a tick: fold `events` (the decode of window
    /// `w`) into the ambient estimate, the health ledger, and — when a
    /// cell's mic is declared dead — the evacuation re-plan.
    ///
    /// This pass renders and captures `w` again for every live cell to
    /// analyse it for the ambient retune. [`Self::tick`] and the
    /// event-driven loop do not: they take the analysis from the
    /// listen's own render, at the window-boundary event, and feed the
    /// same fold, so the three give byte-identical reports and floors.
    pub fn heal_pass(
        &mut self,
        scene: &Scene,
        w: Window,
        expected: &[String],
        events: Vec<ShardEvent>,
    ) -> TickReport {
        let analyses = self
            .plan
            .cells()
            .iter()
            .zip(self.sharded.controllers())
            .map(|(cell, ctl)| {
                if !cell.alive || ctl.bindings().is_empty() {
                    return None;
                }
                ctl.analyze(&ctl.capture(scene, w))
            })
            .collect();
        self.heal_analyzed(w, expected, events, analyses)
    }

    /// The fold both heal paths share: `analyses[c]` is cell `c`'s
    /// analysis of `w` (`None` skips its retune), `events` the decode of
    /// `w`.
    pub(crate) fn heal_analyzed(
        &mut self,
        w: Window,
        expected: &[String],
        events: Vec<ShardEvent>,
        analyses: Vec<Option<FrameMagnitudes>>,
    ) -> TickReport {
        let now = w.end();
        let mut report = TickReport {
            events,
            ..TickReport::default()
        };
        self.obs.ticks.inc();

        self.retune_floors(analyses);

        // Hear/miss evidence. Any decode is positive evidence for its
        // device, expected or not; misses only count for devices the
        // caller scheduled.
        let heard: BTreeSet<&str> = report
            .events
            .iter()
            .map(|e| e.event.device.as_str())
            .collect();
        let was_down: Vec<String> = expected
            .iter()
            .filter(|d| !self.health.acoustic_alive(d))
            .cloned()
            .collect();
        for device in &heard {
            self.health.record_heard_tone(device, 1, now);
        }
        for device in expected {
            if heard.contains(device.as_str()) {
                report.heard.push(device.clone());
            } else {
                self.health.record_missed_tone(device, 1, now);
                report.missed.push(device.clone());
            }
        }
        report.recovered = was_down
            .into_iter()
            .filter(|d| self.health.acoustic_alive(d))
            .collect();

        if let Some(dead) = self.find_dead_cell() {
            self.evacuate(dead, now, &mut report);
        }
        report
    }

    /// Fold every live cell's analysis of the window into its ambient
    /// estimate and push the floors into its detector.
    fn retune_floors(&mut self, analyses: Vec<Option<FrameMagnitudes>>) {
        for ((c, cell), fm) in self.plan.cells().iter().enumerate().zip(analyses) {
            if !cell.alive || self.sharded.controllers()[c].bindings().is_empty() {
                continue;
            }
            let Some(fm) = fm else {
                continue;
            };
            let est = match &mut self.estimators[c] {
                Some(est) if est.candidates() == fm.candidates => est,
                slot => slot.insert(AmbientEstimator::new(fm.candidates, self.cfg.estimator)),
            };
            est.observe(&fm);
            let floors = est.floors();
            self.sharded.controller_mut(c).set_noise_floor(&floors);
            self.obs.retunes.inc();
        }
    }

    /// A live cell all of whose bound switches are acoustically dead —
    /// one blown speaker can't do that, a dead mic does.
    fn find_dead_cell(&self) -> Option<usize> {
        self.plan.cells().iter().find_map(|cell| {
            (cell.alive
                && !cell.device_names.is_empty()
                && cell
                    .device_names
                    .iter()
                    .all(|d| !self.health.acoustic_alive(d)))
            .then_some(cell.id)
        })
    }

    /// Evacuate `dead`, verify the patched plan if configured, and swap
    /// it in.
    fn evacuate(&mut self, dead: usize, now: Duration, report: &mut TickReport) {
        let patched =
            self.plan
                .replan_without_cell(dead)
                .and_then(|p| -> Result<CellPlan, CellPlanError> {
                    if self.cfg.verify_on_replan {
                        p.verify_reuse(self.cfg.verify_sample_rate)?;
                    }
                    Ok(p)
                });
        match patched {
            Ok(plan) => {
                self.sharded.apply_plan(&plan);
                self.estimators[dead] = None;
                self.plan = plan;
                self.obs.replans.inc();
                self.obs.journal.record(
                    now,
                    "selfheal.replan",
                    format!("cell {dead} evacuated; plan hot-swapped"),
                );
                report.replanned = Some(dead);
            }
            Err(e) => {
                self.obs.replan_failures.inc();
                self.obs
                    .journal
                    .record(now, "selfheal.replan_failed", format!("cell {dead}: {e}"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::CellConfig;
    use crate::detector::{DetectorConfig, ToneDetector};
    use mdn_acoustics::ambient::AmbientProfile;
    use mdn_audio::signal::Signal;
    use mdn_audio::synth::Tone;

    const SR: u32 = 44_100;

    fn analysis(det: &ToneDetector, sig: &Signal) -> FrameMagnitudes {
        det.analyze(sig)
    }

    #[test]
    fn estimator_tracks_a_drifting_bed() {
        let det = ToneDetector::with_config(vec![500.0, 700.0], DetectorConfig::default());
        let mut est = AmbientEstimator::new(2, AmbientEstimatorConfig::default());
        // A quiet bed, then a 4x louder one: the estimate should follow.
        let mut quiet = Scene::new(SR, AmbientProfile::office());
        quiet.set_ambient_seed(1);
        let w = Window::from_start(Duration::from_millis(500));
        let bed = quiet.render_window(mdn_acoustics::medium::Pos::ORIGIN, w);
        est.observe(&analysis(&det, &bed));
        let before = est.floors();
        assert!(est.frames_seen() > 0);

        let mut loud = Scene::new(SR, AmbientProfile::datacenter());
        loud.set_ambient_seed(2);
        let bed = loud.render_window(mdn_acoustics::medium::Pos::ORIGIN, w);
        for _ in 0..8 {
            est.observe(&analysis(&det, &bed));
        }
        let after = est.floors();
        assert!(
            after[0] > 2.0 * before[0],
            "floor should chase the louder bed: {before:?} -> {after:?}"
        );
    }

    #[test]
    fn estimator_excludes_tone_frames_from_the_floor() {
        let det = ToneDetector::with_config(vec![500.0, 700.0], DetectorConfig::default());
        let mut est = AmbientEstimator::new(2, AmbientEstimatorConfig::default());
        // Seed the floor with a real quiet bed.
        let mut scene = Scene::new(SR, AmbientProfile::office());
        scene.set_ambient_seed(3);
        let w = Window::from_start(Duration::from_millis(500));
        let bed = scene.render_window(mdn_acoustics::medium::Pos::ORIGIN, w);
        est.observe(&analysis(&det, &bed));
        let before = est.floors()[0];

        // Now a loud 500 Hz tone rides on top: the 500 Hz floor must not
        // chase it.
        let mut with_tone = bed.clone();
        let tone = Tone::new(500.0, Duration::from_millis(500), 0.05).render(SR);
        with_tone.mix_at(&tone, 0);
        for _ in 0..8 {
            est.observe(&analysis(&det, &with_tone));
        }
        let after = est.floors()[0];
        assert!(est.updates_skipped() > 0, "tone frames should be skipped");
        assert!(
            after < 3.0 * before.max(1e-9),
            "floor chased the tone: {before:.3e} -> {after:.3e}"
        );
    }

    #[test]
    fn estimator_guard_uses_the_lower_median() {
        // Two of four slots carry tones in every frame: the lower median is
        // a quiet slot, so both tones are tone-suspect and skipped. The
        // upper median would be a tone and wave both into the floor.
        let frames = |rows: &[[f64; 4]]| FrameMagnitudes {
            times: vec![Duration::ZERO; rows.len()],
            magnitudes: rows.concat(),
            candidates: 4,
        };
        let mut est = AmbientEstimator::new(4, AmbientEstimatorConfig::default());
        est.observe(&frames(&[[1e-4; 4]]));
        est.observe(&frames(&[
            [1e-4, 0.5, 1.2e-4, 0.4],
            [0.3, 1e-4, 0.2, 1.1e-4],
        ]));
        assert_eq!(est.updates_skipped(), 4);
        assert_eq!(est.frames_seen(), 3);
        let floors = est.floors();
        assert!(
            floors.iter().all(|&f| f < 2e-4),
            "a tone reached the floor: {floors:?}"
        );
    }

    #[test]
    #[should_panic(expected = "candidate count must match")]
    fn estimator_rejects_mismatched_analysis() {
        let det = ToneDetector::with_config(vec![500.0], DetectorConfig::default());
        let mut est = AmbientEstimator::new(2, AmbientEstimatorConfig::default());
        let sig = Signal::silence(Duration::from_millis(100), SR);
        est.observe(&det.analyze(&sig));
    }

    fn small_plan() -> CellPlan {
        CellPlan::plan(
            4,
            &[AmbientProfile::quiet()],
            CellConfig {
                switches_per_cell: 2,
                slots_per_switch: 3,
                ..CellConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn silent_ticks_declare_a_cell_dead_and_replan() {
        let plan = small_plan();
        let all: Vec<String> = plan
            .cells()
            .iter()
            .flat_map(|c| c.device_names.clone())
            .collect();
        let mut loop_ = SelfHealingController::with_config(
            plan,
            SelfHealConfig {
                verify_on_replan: false,
                ..SelfHealConfig::default()
            },
        );
        let scene = Scene::quiet(SR);
        // Nothing ever sounds: every cell starves. The first cell to
        // cross the threshold gets evacuated.
        let tick = Duration::from_millis(200);
        let mut replanned = None;
        for t in 0..4u64 {
            let w = Window::new(Duration::from_millis(200 * t), tick);
            let r = loop_.tick(&scene, w, &all);
            if r.replanned.is_some() {
                replanned = r.replanned;
                break;
            }
        }
        assert_eq!(replanned, Some(0), "cell 0 starves first in scan order");
        assert!(!loop_.plan().cells()[0].alive);
        assert!(loop_.plan().find_device("c0-s0").is_some());
    }

    #[test]
    fn healthy_traffic_keeps_every_cell_alive() {
        let plan = small_plan();
        let devices = plan.sounding_devices();
        let all: Vec<String> = plan
            .cells()
            .iter()
            .flat_map(|c| c.device_names.clone())
            .collect();
        let mut loop_ = SelfHealingController::new(plan);
        let tick = Duration::from_millis(300);
        for t in 0..3u64 {
            let start = Duration::from_millis(300 * t);
            let mut scene = Scene::quiet(SR);
            for cell_devs in &devices {
                for dev in cell_devs {
                    let mut d = dev.clone();
                    d.emit_slot(
                        &mut scene,
                        0,
                        start + Duration::from_millis(50),
                        Duration::from_millis(150),
                    )
                    .unwrap();
                }
            }
            let r = loop_.tick(&scene, Window::new(start, tick), &all);
            assert!(r.missed.is_empty(), "tick {t} missed {:?}", r.missed);
            assert!(r.replanned.is_none());
        }
        assert!(loop_.plan().cells().iter().all(|c| c.alive));
        for d in &all {
            assert!(loop_.health().acoustic_alive(d));
        }
    }
}
