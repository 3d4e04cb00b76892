//! One event queue for both worlds: the unified control loop.
//!
//! The batch loops of §6 stitch two clocks together — `mdn-net` is a
//! discrete-event simulator, while the acoustic side advances in
//! fixed-tick capture windows driven by an outer `for` loop. The seams
//! between the two are where the boundary bugs live (see the half-open
//! `run_until` fix in `mdn-net`). [`UnifiedLoop`] removes the seam: tone
//! emissions, capture-window boundaries, self-heal passes, fault
//! transitions, and application ticks all ride the *network's* event
//! heap, interleaved with packet deliveries on one deterministic
//! `(time, seq)` order.
//!
//! # Event taxonomy
//!
//! The network heap natively carries `Deliver`, `PortFree`, and
//! `Generate` events. Control-plane events are encoded as
//! [`mdn_net::sim::Event::Tick`] entries whose tag indexes a registry of
//! `ControlEvent`s owned by the loop:
//!
//! * **ToneEmission** — a named switch sounds one of its slots. The
//!   device is resolved from the *current* plan at fire time, so an
//!   emission scheduled before an evacuation plays from the migrated
//!   switch's patched allocation (boosted level, spare slots), exactly
//!   as the physical switch would.
//! * **WindowBoundary** — close the capture window that ends here: run
//!   the sharded listen over `[window_start, now)` and schedule the
//!   matching *SelfHealTick* at the same instant (it lands later in the
//!   tie order, so every same-time event fires first). The next
//!   boundary is scheduled one window ahead; the chain is self-sustaining.
//! * **SelfHealTick** — the reacting half: fold the observed events into
//!   ambient floors, the health ledger, and (at most) one evacuation,
//!   then retire emissions the next capture can no longer see.
//! * **Fault** — a [`NetFault`] transition (link down/up, switch
//!   crash/restart) applied to the network at its scheduled instant
//!   rather than at the next batch-tick boundary.
//! * **App** — an opaque caller token; [`UnifiedLoop::step`] returns it
//!   so application policy (rule installs, traffic changes, emission
//!   scheduling) runs interleaved with the control plane.
//!
//! Detector *frame* completions are deliberately **not** heap events:
//! the frame grid is a pure function of the capture window (frame `k`
//! spans `[w.from + k·frame, …)`), so materialising per-frame events
//! would add heap traffic without adding information. The window
//! boundary is the finest-grained instant at which frames become
//! observable.
//!
//! # Determinism contract
//!
//! The heap orders by `(time, seq)` with `seq` assigned at schedule
//! time, so equal-time events fire in schedule order and a run is a
//! pure function of its inputs. Emissions only append to the scene, and
//! a rendered sample can only depend on emissions whose (propagation-
//! delayed) signal has already started — so adding emissions as their
//! events fire produces byte-identical windows to pre-building the
//! whole scene, and the event-driven loop decodes bit-identical
//! [`ShardEvent`] streams to the batch loop for **any** thread count
//! (the sharded merge is already order-canonical). The equivalence
//! proptest in `tests/event_loop_equivalence.rs` pins this.
//!
//! # Boundary convention
//!
//! Everything is half-open. A window spans `[from, from + len)`; an
//! event at exactly a window's end belongs to the *next* window, both
//! on the network heap (`run_until`'s `[now, deadline)`) and in the
//! expected-device ledger (an emission firing exactly at a boundary is
//! carried to the following window's expectations, matching where its
//! samples land).

use crate::controller::{ShardEvent, LISTEN_PRE_ROLL};
use crate::selfheal::{SelfHealingController, TickReport};
use mdn_acoustics::scene::Scene;
use mdn_acoustics::speaker::Speaker;
use mdn_audio::signal::Window;
use mdn_net::faults::NetFault;
use mdn_net::network::{Network, RunOutcome};
use mdn_obs::{SpanKind, TraceId, TraceSink, TraceSpan};
use std::collections::BTreeMap;
use std::time::Duration;
use std::time::Instant;

/// A control-plane event carried on the network heap as a tagged tick.
#[derive(Debug, Clone)]
enum ControlEvent {
    /// Device `name` sounds set-local `slot` for `duration`.
    Emission {
        device: String,
        slot: usize,
        duration: Duration,
        /// The tone's causal trace (`None` when tracing is off).
        trace: Option<(TraceId, usize)>,
    },
    /// Close the capture window ending now; observe it.
    WindowBoundary,
    /// React to the window just observed (retune, health, evacuate).
    SelfHealTick,
    /// Apply a network fault transition.
    Fault(NetFault),
    /// Opaque application token, surfaced through [`Step::App`].
    App(u64),
}

/// Why [`UnifiedLoop::step`] returned control to the caller.
#[derive(Debug, Clone)]
pub enum Step {
    /// A capture window closed and its heal pass ran; the report covers
    /// the window `[report window's start, boundary)`.
    Window {
        /// The window the report describes.
        window: Window,
        /// What the self-heal pass observed and did.
        report: TickReport,
    },
    /// An application event scheduled via [`UnifiedLoop::schedule_app`]
    /// fired; handle it and call [`UnifiedLoop::step`] again.
    App {
        /// The token passed at scheduling time.
        token: u64,
        /// Virtual time of the event.
        at: Duration,
    },
    /// The horizon was reached (or the heap ran dry before it).
    Done,
}

/// The unified event-driven control loop: a [`Network`], a [`Scene`],
/// and a [`SelfHealingController`] advanced by one deterministic event
/// queue.
///
/// The loop owns all three worlds; callers schedule work with
/// [`UnifiedLoop::schedule_emission`], [`UnifiedLoop::schedule_fault`],
/// and [`UnifiedLoop::schedule_app`], then pump [`UnifiedLoop::step`]
/// until it returns [`Step::Done`]. While a `UnifiedLoop` owns the
/// network, all ticks must go through the loop — scheduling raw ticks
/// via [`Network::schedule_tick`] would collide with the loop's tag
/// registry.
#[derive(Debug)]
pub struct UnifiedLoop {
    net: Network,
    scene: Scene,
    heal: SelfHealingController,
    window_len: Duration,
    /// Start of the capture window currently accumulating.
    window_start: Duration,
    /// Tag registry: heap tick `tag` indexes this; entries are one-shot.
    tags: Vec<Option<ControlEvent>>,
    /// Slots of `tags` whose event has fired, reused by the next
    /// schedule so the registry stays as large as the peak number of
    /// pending control events.
    free_tags: Vec<u64>,
    /// Emissions fired but not yet folded into a heal pass, in fire
    /// (time, seq) order.
    pending_expected: Vec<PendingTone>,
    /// A window observed at its boundary, awaiting its SelfHealTick:
    /// the window, its decoded events, and the observation's wall cost.
    observed: Option<(Window, Vec<ShardEvent>, u64)>,
    /// When set, each heal pass retires emissions that ended (plus this
    /// propagation bound) before the next capture's pre-roll, keeping
    /// the scene O(active) over long soaks.
    retire_delay_bound: Option<Duration>,
    /// When set, every fired device drives this speaker instead of the
    /// default testbed hardware — the hall's installed loudspeaker model.
    speaker: Option<Speaker>,
    emit_failures: u64,
    emissions_fired: u64,
    emissions_retired: u64,
    /// Causal-trace sink; disabled (free) unless attached.
    trace: TraceSink,
    /// Per-device schedule sequence numbers for [`TraceId::derive`].
    /// Only advanced while tracing is on.
    trace_seq: BTreeMap<String, u64>,
}

/// One fired-but-not-yet-healed emission in the expected-device ledger.
#[derive(Debug, Clone)]
struct PendingTone {
    /// Fire time (emission start).
    at: Duration,
    /// The scheduled device name.
    device: String,
    /// Tracing context: `(id, cell, scheduled signal end)`.
    trace: Option<(TraceId, usize, Duration)>,
}

impl UnifiedLoop {
    /// Wire the three worlds together with capture windows of
    /// `window_len`. The first window starts at the network's current
    /// time (normally zero) and the first boundary is scheduled one
    /// window ahead.
    pub fn new(
        net: Network,
        scene: Scene,
        heal: SelfHealingController,
        window_len: Duration,
    ) -> Self {
        Self::try_new(net, scene, heal, window_len).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible construction: a degenerate window length comes back as a
    /// typed [`mdn_obs::ConfigError`] instead of a panic — the entry
    /// point scenario lowering uses.
    pub fn try_new(
        net: Network,
        scene: Scene,
        heal: SelfHealingController,
        window_len: Duration,
    ) -> Result<Self, mdn_obs::ConfigError> {
        if window_len == Duration::ZERO {
            return Err(mdn_obs::ConfigError::new(
                "window_len",
                "capture windows must be longer than zero",
            ));
        }
        let window_start = net.now();
        let mut lp = Self {
            net,
            scene,
            heal,
            window_len,
            window_start,
            tags: Vec::new(),
            free_tags: Vec::new(),
            pending_expected: Vec::new(),
            observed: None,
            retire_delay_bound: None,
            speaker: None,
            emit_failures: 0,
            emissions_fired: 0,
            emissions_retired: 0,
            trace: TraceSink::disabled(),
            trace_seq: BTreeMap::new(),
        };
        lp.schedule_control(window_start + window_len, ControlEvent::WindowBoundary);
        Ok(lp)
    }

    /// Enable scene garbage collection: after each heal pass, retire
    /// emissions whose signal (plus `delay_bound` of propagation) ended
    /// before the next capture's pre-roll. `delay_bound` must be at
    /// least the worst-case source→listener delay in the hall; windows
    /// stay byte-identical (see `Scene::retire_emissions_before`).
    pub fn set_retire_delay_bound(&mut self, delay_bound: Option<Duration>) {
        self.retire_delay_bound = delay_bound;
    }

    /// Fit the hall's switches with `speaker` instead of the default
    /// cheap testbed hardware (e.g. [`Speaker::ultrasound_capable`] for
    /// halls whose [`CellConfig::speaker_band`](crate::cells::CellConfig)
    /// was widened to unlock high sub-bands). For tones the default
    /// speaker could already drive, rendering is byte-identical — the
    /// models differ only in band, duration floor, and level ceiling.
    pub fn set_speaker(&mut self, speaker: Option<Speaker>) {
        self.speaker = speaker;
    }

    /// Attach a causal-trace sink: every emission scheduled from here on
    /// mints a deterministic [`TraceId`] and records a span per pipeline
    /// hop it takes — `schedule`, `emit` (via the scene), `window_close`,
    /// `detect`, then `decode` or the `missed` → `health_penalty` →
    /// `replan` chain. Span sim-time bounds are bit-identical across
    /// thread counts; wall costs are diagnostic only.
    pub fn attach_trace(&mut self, sink: &TraceSink) {
        self.trace = sink.clone();
        self.scene.attach_trace(sink);
    }

    /// Schedule device `name` to sound set-local `slot` at `at` for
    /// `duration`. The device is resolved from the plan current at fire
    /// time; the emission is added to the next window's expected set.
    pub fn schedule_emission(
        &mut self,
        at: Duration,
        name: impl Into<String>,
        slot: usize,
        duration: Duration,
    ) {
        let device = name.into();
        let trace = if self.trace.is_enabled() {
            // (cell, switch) come from the plan at *schedule* time — the
            // id names the tone as asked for, even if an evacuation later
            // migrates the device before it fires.
            let (cell, switch) = self
                .heal
                .plan()
                .find_device(&device)
                .unwrap_or((usize::MAX, usize::MAX));
            let seq = self.trace_seq.entry(device.clone()).or_insert(0);
            let id = TraceId::derive(cell as u64, switch as u64, *seq);
            *seq += 1;
            self.trace.record(TraceSpan {
                trace: id,
                kind: SpanKind::Schedule,
                from: self.net.now().min(at),
                to: at.max(self.net.now()),
                wall_ns: 0,
                cell,
                detail: format!("{device} slot {slot}"),
            });
            Some((id, cell))
        } else {
            None
        };
        self.schedule_control(
            at,
            ControlEvent::Emission {
                device,
                slot,
                duration,
                trace,
            },
        );
    }

    /// Schedule a network fault transition at `at`.
    pub fn schedule_fault(&mut self, at: Duration, fault: NetFault) {
        self.schedule_control(at, ControlEvent::Fault(fault));
    }

    /// Schedule an application event at `at`; [`UnifiedLoop::step`]
    /// returns [`Step::App`] with `token` when it fires.
    pub fn schedule_app(&mut self, at: Duration, token: u64) {
        self.schedule_control(at, ControlEvent::App(token));
    }

    fn schedule_control(&mut self, at: Duration, ev: ControlEvent) {
        // Tags are opaque handles: same-time order comes from the heap's
        // schedule sequence, so reusing a fired slot changes no output.
        let tag = match self.free_tags.pop() {
            Some(tag) => {
                self.tags[tag as usize] = Some(ev);
                tag
            }
            None => {
                self.tags.push(Some(ev));
                self.tags.len() as u64 - 1
            }
        };
        self.net.schedule_tick(at, tag);
    }

    /// Advance the unified queue until an application event fires, a
    /// capture window closes, or `horizon` is reached (half-open: an
    /// event at exactly `horizon` stays pending). Pump in a
    /// `while !matches!(lp.step(h), Step::Done)` loop — or match on the
    /// outcome to interleave policy.
    pub fn step(&mut self, horizon: Duration) -> Step {
        loop {
            let (tag, at) = match self.net.run_until(horizon) {
                RunOutcome::DeadlineReached | RunOutcome::Exhausted => return Step::Done,
                RunOutcome::Tick { tag, at } => (tag, at),
            };
            let Some(ev) = self.tags.get_mut(tag as usize).and_then(Option::take) else {
                debug_assert!(false, "tick tag {tag} not in the loop's registry");
                continue;
            };
            self.free_tags.push(tag);
            match ev {
                ControlEvent::App(token) => return Step::App { token, at },
                ControlEvent::Fault(fault) => match fault {
                    NetFault::LinkDown(l) => self.net.set_link_up(l, false),
                    NetFault::LinkUp(l) => self.net.set_link_up(l, true),
                    NetFault::SwitchCrash(s) => self.net.crash_switch(s),
                    NetFault::SwitchRestart(s) => self.net.restart_switch(s),
                },
                ControlEvent::Emission {
                    device,
                    slot,
                    duration,
                    trace,
                } => {
                    self.fire_emission(at, device, slot, duration, trace);
                }
                ControlEvent::WindowBoundary => {
                    let w = Window::between(self.window_start, at);
                    let observe_started = self.trace.is_enabled().then(Instant::now);
                    let events = self.heal.sharded().listen(&self.scene, w);
                    let observe_wall_ns = observe_started
                        .map_or(0, |t| t.elapsed().as_nanos() as u64);
                    self.observed = Some((w, events, observe_wall_ns));
                    // Same instant, later seq: every already-scheduled
                    // event at `at` fires before the heal pass.
                    self.schedule_control(at, ControlEvent::SelfHealTick);
                    self.schedule_control(at + self.window_len, ControlEvent::WindowBoundary);
                }
                ControlEvent::SelfHealTick => {
                    let (w, events, observe_wall_ns) = self
                        .observed
                        .take()
                        .expect("a SelfHealTick always follows its WindowBoundary");
                    let boundary = w.end();
                    // Half-open: an emission at exactly the boundary
                    // belongs to the next window, like its samples.
                    let split = self
                        .pending_expected
                        .partition_point(|tone| tone.at < boundary);
                    let drained: Vec<PendingTone> =
                        self.pending_expected.drain(..split).collect();
                    let expected: Vec<String> =
                        drained.iter().map(|tone| tone.device.clone()).collect();
                    let heal_started = self.trace.is_enabled().then(Instant::now);
                    let report = self.heal.heal_pass(&self.scene, w, &expected, events);
                    if self.trace.is_enabled() {
                        let heal_wall_ns =
                            heal_started.map_or(0, |t| t.elapsed().as_nanos() as u64);
                        self.trace_window_hops(&drained, w, &report, observe_wall_ns, heal_wall_ns);
                    }
                    self.window_start = boundary;
                    if let Some(bound) = self.retire_delay_bound {
                        let cutoff = boundary.saturating_sub(LISTEN_PRE_ROLL);
                        self.emissions_retired +=
                            self.scene.retire_emissions_before(cutoff, bound) as u64;
                    }
                    return Step::Window { window: w, report };
                }
            }
        }
    }

    fn fire_emission(
        &mut self,
        at: Duration,
        device: String,
        slot: usize,
        duration: Duration,
        trace: Option<(TraceId, usize)>,
    ) {
        if let Some((id, cell)) = trace {
            // Armed before the emit so the scene stamps the `emit` span
            // with the signal's true air time; a failed emit never
            // reaches `Scene::add`, so disarm below.
            self.scene.set_next_emission_trace(id, cell);
        }
        match self.heal.plan().sounding_device(&device) {
            Some(mut dev) => {
                if let Some(sp) = &self.speaker {
                    dev.speaker = sp.clone();
                }
                if dev.emit_slot(&mut self.scene, slot, at, duration).is_err() {
                    self.emit_failures += 1;
                    self.scene.clear_emission_trace();
                }
            }
            None => {
                self.emit_failures += 1;
                self.scene.clear_emission_trace();
            }
        }
        self.emissions_fired += 1;
        // Scheduled means expected either way: a device that failed to
        // sound should be missed-evidence, exactly as a silent switch.
        self.pending_expected.push(PendingTone {
            at,
            device,
            trace: trace.map(|(id, cell)| (id, cell, at + duration)),
        });
    }

    /// Record the window-resolution hops for every tone the heal pass
    /// just folded in. Runs only while tracing is on, always on the loop
    /// thread, iterating tones in fire order — so span order (and every
    /// sim-time field) is deterministic; only the wall costs vary.
    fn trace_window_hops(
        &self,
        drained: &[PendingTone],
        w: Window,
        report: &TickReport,
        observe_wall_ns: u64,
        heal_wall_ns: u64,
    ) {
        let boundary = w.end();
        for tone in drained {
            let Some((id, cell, end)) = tone.trace else {
                continue;
            };
            // The tone's samples are down; the window boundary is what
            // makes them observable.
            self.trace.record(TraceSpan {
                trace: id,
                kind: SpanKind::WindowClose,
                from: end.min(boundary),
                to: boundary,
                wall_ns: 0,
                cell,
                detail: tone.device.clone(),
            });
            // The sharded listen covers the whole window; its wall cost
            // is shared by every tone the window resolves.
            self.trace.record(TraceSpan {
                trace: id,
                kind: SpanKind::Detect,
                from: w.from,
                to: boundary,
                wall_ns: observe_wall_ns,
                cell,
                detail: tone.device.clone(),
            });
            let first_decode = report
                .events
                .iter()
                .find(|se| se.event.device == tone.device);
            if let Some(se) = first_decode {
                self.trace.record(TraceSpan {
                    trace: id,
                    kind: SpanKind::Decode,
                    from: se.event.time.min(boundary),
                    to: boundary,
                    wall_ns: 0,
                    cell,
                    detail: format!(
                        "{} slot {} @{:.0}Hz",
                        tone.device, se.event.slot, se.event.freq_hz
                    ),
                });
                continue;
            }
            // Negative trace: scheduled but never heard. This is the
            // evidence chain an evacuation is built from, so it stays on
            // the tone's own id.
            self.trace.record(TraceSpan {
                trace: id,
                kind: SpanKind::Missed,
                from: tone.at.min(boundary),
                to: boundary,
                wall_ns: 0,
                cell,
                detail: tone.device.clone(),
            });
            self.trace.record(TraceSpan {
                trace: id,
                kind: SpanKind::HealthPenalty,
                from: boundary,
                to: boundary,
                wall_ns: 0,
                cell,
                detail: format!(
                    "{} acoustic_score {:.1}",
                    tone.device,
                    self.heal.health().acoustic_score(&tone.device)
                ),
            });
            if report.replanned == Some(cell) {
                self.trace.record(TraceSpan {
                    trace: id,
                    kind: SpanKind::Replan,
                    from: boundary,
                    to: boundary,
                    wall_ns: heal_wall_ns,
                    cell,
                    detail: format!("evacuated cell {cell}"),
                });
            }
        }
    }

    /// The wrapped network.
    pub fn net(&self) -> &Network {
        &self.net
    }

    /// Mutable network access (rules, generators, topology). Do not
    /// schedule raw ticks here; use the loop's scheduling methods.
    pub fn net_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    /// The acoustic scene.
    pub fn scene(&self) -> &Scene {
        &self.scene
    }

    /// The self-healing controller.
    pub fn heal(&self) -> &SelfHealingController {
        &self.heal
    }

    /// Capture window length.
    pub fn window_len(&self) -> Duration {
        self.window_len
    }

    /// Start of the window currently accumulating.
    pub fn window_start(&self) -> Duration {
        self.window_start
    }

    /// Emissions whose device could not be resolved or whose slot the
    /// speaker refused.
    pub fn emit_failures(&self) -> u64 {
        self.emit_failures
    }

    /// Tone emissions fired so far.
    pub fn emissions_fired(&self) -> u64 {
        self.emissions_fired
    }

    /// Emissions retired by scene garbage collection so far.
    pub fn emissions_retired(&self) -> u64 {
        self.emissions_retired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::{CellConfig, CellPlan};
    use mdn_acoustics::ambient::AmbientProfile;

    fn small_plan() -> CellPlan {
        CellPlan::plan(
            2,
            &[AmbientProfile::office()],
            CellConfig {
                switches_per_cell: 2,
                ..CellConfig::default()
            },
        )
        .expect("2-cell plan")
    }

    #[test]
    fn windows_close_in_order_and_report_heard_devices() {
        let plan = small_plan();
        let device = plan.cells()[0].device_names[0].clone();
        let scene = Scene::new(44_100, AmbientProfile::office());
        let heal = SelfHealingController::new(plan);
        let mut lp = UnifiedLoop::new(Network::new(), scene, heal, Duration::from_millis(300));

        lp.schedule_emission(Duration::from_millis(100), &device, 0, Duration::from_millis(60));
        let mut windows = Vec::new();
        loop {
            match lp.step(Duration::from_millis(950)) {
                Step::Window { window, report } => windows.push((window, report)),
                Step::App { .. } => unreachable!("no app events scheduled"),
                Step::Done => break,
            }
        }
        // Horizon is half-open, so the boundary at exactly 900 ms fires
        // but the one at 1200 ms does not.
        assert_eq!(windows.len(), 3);
        assert_eq!(windows[0].0, Window::between(Duration::ZERO, Duration::from_millis(300)));
        assert!(windows[0].1.heard.contains(&device), "emission in window 0 decodes");
        assert!(windows[1].1.heard.is_empty() && windows[1].1.missed.is_empty());
    }

    #[test]
    fn emission_at_boundary_is_expected_in_the_next_window() {
        let plan = small_plan();
        let device = plan.cells()[0].device_names[0].clone();
        let scene = Scene::new(44_100, AmbientProfile::office());
        let heal = SelfHealingController::new(plan);
        let mut lp = UnifiedLoop::new(Network::new(), scene, heal, Duration::from_millis(300));

        // Exactly at the first boundary: samples land in [300, 600) ms,
        // so the expectation must too.
        lp.schedule_emission(Duration::from_millis(300), &device, 0, Duration::from_millis(60));
        let mut reports = Vec::new();
        while let Step::Window { report, .. } = lp.step(Duration::from_millis(700)) {
            reports.push(report);
        }
        assert_eq!(reports.len(), 2);
        assert!(
            reports[0].heard.is_empty() && reports[0].missed.is_empty(),
            "window 0 expects nothing"
        );
        assert!(reports[1].heard.contains(&device), "window 1 hears the boundary emission");
    }

    #[test]
    fn app_events_interleave_with_windows() {
        let plan = small_plan();
        let scene = Scene::new(44_100, AmbientProfile::office());
        let heal = SelfHealingController::new(plan);
        let mut lp = UnifiedLoop::new(Network::new(), scene, heal, Duration::from_millis(200));

        lp.schedule_app(Duration::from_millis(50), 7);
        lp.schedule_app(Duration::from_millis(350), 8);
        let mut order = Vec::new();
        loop {
            match lp.step(Duration::from_millis(500)) {
                Step::Window { window, .. } => order.push(format!("w@{}", window.end().as_millis())),
                Step::App { token, at } => order.push(format!("a{token}@{}", at.as_millis())),
                Step::Done => break,
            }
        }
        assert_eq!(order, ["a7@50", "w@200", "a8@350", "w@400"]);
    }

    #[test]
    fn tag_registry_reuses_fired_slots() {
        let plan = CellPlan::plan(
            1,
            &[AmbientProfile::quiet()],
            CellConfig {
                switches_per_cell: 1,
                ..CellConfig::default()
            },
        )
        .expect("1-cell plan");
        let device = plan.cells()[0].device_names[0].clone();
        let scene = Scene::new(44_100, AmbientProfile::quiet());
        let heal = SelfHealingController::new(plan);
        let window = Duration::from_millis(20);
        let mut lp = UnifiedLoop::new(Network::new(), scene, heal, window);

        let mut peak_pending = 0;
        let mut windows = 0;
        while windows < 2_000 {
            // One tone in every window on top of the boundary chain.
            let at = lp.window_start() + window / 2;
            lp.schedule_emission(at, &device, 0, Duration::from_millis(5));
            let pending = lp.tags.iter().filter(|t| t.is_some()).count();
            peak_pending = peak_pending.max(pending);
            if let Step::Window { .. } = lp.step(at + window) {
                windows += 1;
            }
            assert!(
                lp.tags.len() <= peak_pending,
                "registry grew to {} slots with at most {peak_pending} pending",
                lp.tags.len()
            );
        }
        assert_eq!(lp.emissions_fired(), 2_000);
    }
}
