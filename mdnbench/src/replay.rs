//! The traced replay of a scenario's acoustic plane, through the same
//! public calls `scenario::run_batch` composes, one span per call.
//!
//! Per window: `SoundingDevice::emit_slot` per emission; per cell
//! `Scene::render_window` -> `Microphone::capture` ->
//! `MdnController::decode` over the window plus its 150 ms pre-roll;
//! `merge_event_streams`; `SelfHealingController::heal_pass`;
//! `Scene::retire_emissions_before`. Cells are visited sequentially, as
//! the untraced run's one shard worker does, so the replay does the
//! same acoustic work as the untraced run plus the spans' own cost.

use crate::scenario::Outcome;
use crate::trace::Tracer;
use crate::workloads::window_emissions;
use mdn_acoustics::mic::Microphone;
use mdn_acoustics::scene::Scene;
use mdn_acoustics::speaker::Speaker;
use mdn_audio::signal::Window;
use mdn_core::controller::{merge_event_streams, LISTEN_PRE_ROLL};
use mdn_core::scenario::{ScenarioBuilder, ScenarioSpec};
use mdn_core::selfheal::SelfHealingController;
use mdn_obs::Registry;
use std::time::{Duration, Instant};

/// What the replay measured, once every window is done.
pub struct Replay {
    pub outcome: Outcome,
    /// Wall time of the replayed windows, seconds.
    pub wall_s: f64,
    pub tracer: Tracer,
    /// The program's own `scene.render` stage count (listen and heal).
    pub render_total_calls: u64,
    /// The program's `detect.goertzel_bank` stage sum, ns.
    pub goertzel_ns: u64,
    /// The program's `detect.local_max` stage sum, ns.
    pub local_max_ns: u64,
    /// Events decoded by the listen half.
    pub detect_events: u64,
    /// Cell-windows listened, and those that yielded an event.
    pub cell_windows: u64,
    pub useful_cell_windows: u64,
    /// Emissions retired by the scene GC.
    pub gc_retired: u64,
    /// Most emissions live in the scene, just before a GC.
    pub live_emissions_max: usize,
    /// Busy time of heal passes that evacuated a cell, ns.
    pub replan_pass_ns: u64,
}

impl Replay {
    /// Busy time of the window's top-level calls: emissions, listen,
    /// heal pass and GC, seconds.
    pub fn acoustic_busy_s(&self) -> f64 {
        let spans = self.tracer.layers();
        let busy: u64 = ["encoder.emit", "listen", "heal.pass", "scene.gc"]
            .iter()
            .filter_map(|name| spans.get(name).map(|l| l.busy_ns))
            .sum();
        busy as f64 / 1e9
    }
}

/// The GC delay bound `ScenarioBuilder::build` gives the loop: one
/// cell pitch per cell plus 10 m of propagation, plus 100 ms.
fn gc_delay_bound(spec: &ScenarioSpec) -> Option<Duration> {
    let hall_m = spec.hall.cell.cell_pitch_m * spec.hall.cells as f64 + 10.0;
    spec.hall
        .gc
        .then(|| Duration::from_secs_f64(hall_m / 343.0 + 0.1))
}

/// The replay in progress, one window per [`Replayer::step`].
pub struct Replayer<'a> {
    spec: &'a ScenarioSpec,
    registry: Registry,
    scene: Scene,
    heal: SelfHealingController,
    names: Vec<Vec<String>>,
    speaker: Option<Speaker>,
    gc_bound: Option<Duration>,
    mic: Microphone,
    r: Replay,
}

impl<'a> Replayer<'a> {
    pub fn new(spec: &'a ScenarioSpec) -> Result<Self, String> {
        let registry = Registry::new();
        let builder = ScenarioBuilder::new(spec).map_err(|e| e.to_string())?;
        let scene = builder.scene(Some(&registry)).map_err(|e| e.to_string())?;
        let mut heal = builder.heal();
        heal.attach_obs(&registry);
        Ok(Self {
            spec,
            scene,
            heal,
            names: builder.device_names(),
            speaker: builder.speaker().cloned(),
            gc_bound: gc_delay_bound(spec),
            // `CellPlan::controller_for` fits every cell with this mic.
            mic: Microphone::measurement(),
            registry,
            r: Replay {
                outcome: Outcome::default(),
                wall_s: 0.0,
                tracer: Tracer::new(Instant::now()),
                render_total_calls: 0,
                goertzel_ns: 0,
                local_max_ns: 0,
                detect_events: 0,
                cell_windows: 0,
                useful_cell_windows: 0,
                gc_retired: 0,
                live_emissions_max: 0,
                replan_pass_ns: 0,
            },
        })
    }

    /// Replay the next window.
    pub fn step(&mut self) -> Result<(), String> {
        let started = Instant::now();
        let t = self.r.outcome.windows.len() as u64;
        let win = self.spec.window();
        let w = Window::new(win * t as u32, win);
        let (scene, heal, r) = (&mut self.scene, &mut self.heal, &mut self.r);
        let tr = &mut r.tracer;
        let root = tr.enter("window");

        let mut expected = Vec::new();
        for (at, name, slot, dur) in window_emissions(self.spec, &self.names, t) {
            let mut dev = heal
                .plan()
                .sounding_device(name)
                .ok_or_else(|| format!("device {name} left the plan"))?;
            if let Some(sp) = &self.speaker {
                dev.speaker = sp.clone();
            }
            tr.span("encoder.emit", || dev.emit_slot(scene, slot, at, dur))
                .map_err(|e| format!("{name} failed to emit: {e:?}"))?;
            r.outcome.tone_events += 1;
            expected.push(name.to_string());
        }

        let listen = tr.enter("listen");
        let pre_roll = LISTEN_PRE_ROLL.min(w.from);
        let start = w.from - pre_roll;
        let capture_window = Window::new(start, w.len + pre_roll);
        let mut per_cell = Vec::new();
        for (c, ctl) in heal.sharded().controllers().iter().enumerate() {
            if ctl.bindings().is_empty() {
                per_cell.push(Vec::new());
                continue;
            }
            let pos = heal.plan().cells()[c].mic_pos;
            let pressure = tr.span("scene.render", || scene.render_window(pos, capture_window));
            let capture = tr.span("mic.capture", || self.mic.capture(&pressure));
            let decoded = tr.span("detect.decode", || ctl.decode(&capture));
            let events: Vec<_> = decoded
                .into_iter()
                .filter(|e| e.time >= pre_roll)
                .map(|mut e| {
                    e.time += start;
                    e
                })
                .collect();
            r.cell_windows += 1;
            r.useful_cell_windows += u64::from(!events.is_empty());
            r.detect_events += events.len() as u64;
            per_cell.push(events);
        }
        let merged = tr.span("merge", || merge_event_streams(per_cell));
        tr.exit(listen);

        let pass = tr.enter("heal.pass");
        let report = heal.heal_pass(scene, w, &expected, merged);
        tr.exit(pass);
        if report.replanned.is_some() {
            r.replan_pass_ns += tr.duration_ns(pass);
        }
        r.outcome.fold(
            &report.events,
            &report.heard,
            &report.missed,
            report.replanned,
        );

        r.live_emissions_max = r.live_emissions_max.max(scene.num_emissions());
        if let Some(bound) = self.gc_bound {
            let cutoff = w.end().saturating_sub(LISTEN_PRE_ROLL);
            r.gc_retired +=
                tr.span("scene.gc", || scene.retire_emissions_before(cutoff, bound)) as u64;
        }
        tr.exit(root);
        r.wall_s += started.elapsed().as_secs_f64();
        Ok(())
    }

    /// Read the program's own stage counters and hand back the totals.
    pub fn finish(self) -> Replay {
        let mut r = self.r;
        r.render_total_calls = self.registry.stage_histogram("scene.render").count();
        r.goertzel_ns = self.registry.stage_histogram("detect.goertzel_bank").sum();
        r.local_max_ns = self.registry.stage_histogram("detect.local_max").sum();
        r
    }
}
