//! The MDN controller: microphone in, device events out.
//!
//! The paper's controller "keeps track of what sounds it has heard thus far
//! from the switch" and knows "what frequencies are associated with each
//! port for a switch". Here that knowledge is a list of
//! [`DeviceBinding`]s — one frequency set per sounding device — and the
//! controller turns raw captures into `(device, slot, time)` events that
//! the §4–§7 applications consume.

use crate::detector::{DetectorConfig, FrameMagnitudes, ToneDetector, ToneObservation};
use crate::freqplan::FrequencySet;
use mdn_acoustics::medium::Pos;
use mdn_acoustics::mic::{capture_batch, Microphone};
use mdn_acoustics::scene::{RenderMark, Scene};
use mdn_audio::signal::{duration_to_samples, Window};
use mdn_audio::Signal;
use mdn_obs::{Counter, Histogram, Registry};
use std::time::Duration;

/// How far before a window [`MdnController::listen`] extends its capture
/// so the detector's neighbouring-frame gate sees the body of a tone
/// whose tail crosses the boundary (clamped at scene start). Anything
/// that ended more than this before a capture can never influence it —
/// the bound an event loop's scene garbage collection builds on.
pub const LISTEN_PRE_ROLL: Duration = Duration::from_millis(150);

/// The pre-roll span of a listen of `w`: the [`LISTEN_PRE_ROLL`] before
/// it, clamped at scene start.
fn pre_roll_span(w: Window) -> Window {
    let len = LISTEN_PRE_ROLL.min(w.from);
    Window::new(w.from - len, len)
}

/// The pressure a cell's loop listen rendered over the next listen's
/// pre-roll span, and the scene state it was rendered in. The next
/// listen prepends it to a render of its own window alone when the scene
/// proves the span unchanged ([`Scene::renders_unchanged`]); a render is
/// time-functional, so the joined buffer is the bytes of one pre-rolled
/// render.
#[derive(Debug)]
pub(crate) struct PreRoll {
    mark: RenderMark,
    span: Window,
    samples: Signal,
}

impl PreRoll {
    /// The tail of `pressure`, a render of `[from, w.end())` taken at
    /// `mark`, that the listen of the window after `w` opens with; `None`
    /// when `pressure` starts too late to hold it.
    fn keep(mark: RenderMark, pressure: &Signal, from: Duration, w: Window) -> Option<Self> {
        let span = pre_roll_span(Window::new(w.end(), Duration::ZERO));
        if span.from < from {
            return None;
        }
        let sr = pressure.sample_rate();
        let skip = duration_to_samples(span.from, sr) - duration_to_samples(from, sr);
        Some(Self {
            mark,
            span,
            samples: pressure.slice(skip, pressure.len()),
        })
    }
}

/// A device the controller listens for.
#[derive(Debug, Clone)]
pub struct DeviceBinding {
    /// The device name.
    pub device: String,
    /// Its allocated frequency set.
    pub set: FrequencySet,
}

/// A decoded management event: device X sounded its local slot Y.
#[derive(Debug, Clone, PartialEq)]
pub struct MdnEvent {
    /// Which device sounded.
    pub device: String,
    /// The device-local slot index (the application-level symbol).
    pub slot: usize,
    /// Frame start time within the listened window.
    pub time: Duration,
    /// The slot's frequency.
    pub freq_hz: f64,
    /// Measured magnitude.
    pub magnitude: f64,
}

/// The Music-Defined Networking controller.
#[derive(Debug)]
pub struct MdnController {
    /// The microphone it listens through.
    pub mic: Microphone,
    /// Where the microphone sits.
    pub pos: Pos,
    bindings: Vec<DeviceBinding>,
    detector: Option<ToneDetector>,
    config: DetectorConfig,
    /// Map from detector-candidate index to (binding index, local slot).
    candidate_map: Vec<(usize, usize)>,
    /// The attached observability registry (disabled by default), kept so
    /// `rebuild` can re-instrument freshly constructed detectors.
    obs_registry: Registry,
    obs_events: Counter,
    obs_pre_roll_carried: Counter,
    obs_capture_span: Histogram,
}

impl MdnController {
    /// A controller with the measurement microphone at `pos` and default
    /// detector config.
    pub fn new(mic: Microphone, pos: Pos) -> Self {
        Self {
            mic,
            pos,
            bindings: Vec::new(),
            detector: None,
            config: DetectorConfig::default(),
            candidate_map: Vec::new(),
            obs_registry: Registry::disabled(),
            obs_events: Counter::disabled(),
            obs_pre_roll_carried: Counter::disabled(),
            obs_capture_span: Histogram::disabled(),
        }
    }

    /// Register the controller's metrics with an observability registry:
    /// `mdn_events_decoded_total`, `mdn_listen_pre_roll_carried_total`
    /// (loop listens that reused the previous window's pre-roll render),
    /// the `mdn_stage_ns{stage="mic.capture"}` span, and the detector's
    /// counters and stage spans (kept attached across
    /// [`MdnController::set_config`] / [`MdnController::bind_device`]
    /// rebuilds).
    pub fn attach_obs(&mut self, registry: &Registry) {
        self.obs_registry = registry.clone();
        self.obs_events = registry.counter("mdn_events_decoded_total", &[]);
        self.obs_pre_roll_carried = registry.counter("mdn_listen_pre_roll_carried_total", &[]);
        self.obs_capture_span = registry.stage_histogram("mic.capture");
        if let Some(det) = &mut self.detector {
            det.attach_obs(registry);
        }
    }

    /// Replace the detector configuration (before or between listens).
    pub fn set_config(&mut self, config: DetectorConfig) {
        self.config = config;
        self.rebuild();
    }

    /// Register a device's frequency set.
    pub fn bind_device(&mut self, device: impl Into<String>, set: FrequencySet) {
        self.bindings.push(DeviceBinding {
            device: device.into(),
            set,
        });
        self.rebuild();
    }

    /// The registered bindings.
    pub fn bindings(&self) -> &[DeviceBinding] {
        &self.bindings
    }

    fn rebuild(&mut self) {
        let mut candidates = Vec::new();
        let mut map = Vec::new();
        for (b, binding) in self.bindings.iter().enumerate() {
            for (local, &f) in binding.set.freqs.iter().enumerate() {
                candidates.push(f);
                map.push((b, local));
            }
        }
        self.candidate_map = map;
        self.detector = if candidates.is_empty() {
            None
        } else {
            let mut det = ToneDetector::with_config(candidates, self.config);
            det.attach_obs(&self.obs_registry);
            Some(det)
        };
    }

    /// Capture window `w` of the scene through the controller's
    /// microphone — [`Scene::capture`] at the controller's position, so a
    /// tick render costs O(window) no matter how much scene time has
    /// elapsed.
    pub fn capture(&self, scene: &Scene, w: Window) -> Signal {
        self.capture_pressure(&scene.render_window(self.pos, w))
    }

    /// Capture `pressure` through the controller's microphone, timed as
    /// the `mic.capture` stage.
    fn capture_pressure(&self, pressure: &Signal) -> Signal {
        let _span = self.obs_capture_span.start_span();
        self.mic.capture(pressure)
    }

    /// Calibrate the detector's per-slot noise floor against the scene's
    /// ambient bed (a capture containing no MDN tones).
    ///
    /// # Panics
    /// Panics if no devices are bound yet.
    pub fn calibrate(&mut self, ambient_only: &Signal) {
        let det = self
            .detector
            .as_mut()
            .expect("bind devices before calibrating");
        det.calibrate(ambient_only);
    }

    /// Read access to the underlying detector (`None` until a device is
    /// bound).
    pub fn detector(&self) -> Option<&ToneDetector> {
        self.detector.as_ref()
    }

    /// Replace the detector's per-candidate noise floors — the ambient
    /// estimator's re-tuning hook. Candidate order is binding order, each
    /// binding's slots in slot order (the same order
    /// [`ToneDetector::candidates`] reports).
    ///
    /// # Panics
    /// Panics if no devices are bound, or the length does not match.
    pub fn set_noise_floor(&mut self, floors: &[f64]) {
        self.detector
            .as_mut()
            .expect("bind devices before setting floors")
            .set_noise_floor(floors);
    }

    /// The full per-frame magnitude matrix of a capture — decoding
    /// without the thresholds, for ambient tracking. `None` until a
    /// device is bound.
    pub fn analyze(&self, capture: &Signal) -> Option<FrameMagnitudes> {
        self.detector.as_ref().map(|det| det.analyze(capture))
    }

    /// Decode a captured signal into device events. Times are relative to
    /// the start of the capture.
    pub fn decode(&self, capture: &Signal) -> Vec<MdnEvent> {
        self.decode_from(capture, Duration::ZERO)
    }

    /// [`Self::decode`] of the events at or after `from` alone
    /// ([`ToneDetector::detect_from`]).
    fn decode_from(&self, capture: &Signal, from: Duration) -> Vec<MdnEvent> {
        let Some(det) = &self.detector else {
            return Vec::new();
        };
        let events: Vec<MdnEvent> = det
            .detect_from(capture, from)
            .into_iter()
            .map(|o| self.to_event(o))
            .collect();
        self.obs_events.add(events.len() as u64);
        events
    }

    /// Capture window `w` and decode it in one step; event times are
    /// offset by `w.from` so they are scene-absolute.
    ///
    /// The capture includes a 150 ms *pre-roll* before the window (clamped at
    /// scene start) that is decoded for context but filtered from the
    /// returned events: a tone that *ends* right at `from` then has its
    /// loud body inside the same capture, so the detector's
    /// neighbouring-frame gate can suppress the offset splatter instead of
    /// reporting a ghost event. Without the pre-roll, windowed listeners
    /// (the 300 ms tick loops of §6) see phantom tones at window
    /// boundaries. The bank runs over the pre-roll only as far as that
    /// gate reads it: from the frame before the window's first onward.
    ///
    /// The self-healing loop listens through a variant that also returns
    /// the ambient retune's analysis of `w`, cut from this same render,
    /// that carries each window's pre-roll render over from the window
    /// before, and that captures a group of cells' streams in one batched
    /// call (see [`crate::selfheal::SelfHealingController::tick`]); both
    /// give this call's events. This call renders the whole span,
    /// captures and decodes.
    pub fn listen(&self, scene: &Scene, w: Window) -> Vec<MdnEvent> {
        let span = pre_roll_span(w);
        let pressure = scene.render_window(self.pos, Window::new(span.from, span.len + w.len));
        self.decode_listen(&self.capture_pressure(&pressure), span)
    }

    /// Render the pre-rolled span of the loop's listen of `w` into
    /// `pressure`, with the pre-roll render carried between consecutive
    /// calls in `pre_roll`. When the carried span is the one this listen
    /// needs and the scene proves it unchanged, only `w` is rendered and
    /// appended to it; otherwise the whole span is. Either way the bytes
    /// are those of one render of the whole span, and `pre_roll` then
    /// holds this render's tail for the next window.
    fn render_listen(
        &self,
        scene: &Scene,
        w: Window,
        pre_roll: &mut Option<PreRoll>,
        pressure: &mut Signal,
    ) {
        let span = pre_roll_span(w);
        let mark = scene.render_mark();
        match pre_roll.take() {
            Some(carried)
                if carried.span == span && scene.renders_unchanged(carried.mark, span) =>
            {
                self.obs_pre_roll_carried.inc();
                pressure.reset(0);
                pressure.append(&carried.samples);
                scene.extend_render(self.pos, w, pressure);
            }
            _ => scene.render_window_into(
                self.pos,
                Window::new(span.from, span.len + w.len),
                pressure,
            ),
        }
        *pre_roll = PreRoll::keep(mark, pressure, span.from, w);
    }

    /// The events of `capture`, a capture of `span` followed by the
    /// listened window: decoded from the window's start, with
    /// scene-absolute times.
    fn decode_listen(&self, capture: &Signal, span: Window) -> Vec<MdnEvent> {
        let mut events = self.decode_from(capture, span.len);
        for e in &mut events {
            e.time += span.from;
        }
        events
    }

    fn to_event(&self, o: ToneObservation) -> MdnEvent {
        let (b, local) = self.candidate_map[o.candidate];
        MdnEvent {
            device: self.bindings[b].device.clone(),
            slot: local,
            time: o.time,
            freq_hz: o.freq_hz,
            magnitude: o.magnitude,
        }
    }
}

/// One cell's share of a listen: its events and, for the loop's listen,
/// the ambient retune's analysis of the window.
pub(crate) type Heard = (Vec<MdnEvent>, Option<FrameMagnitudes>);

/// The buffers a shard worker's batched listens render and capture into,
/// reused from one group of cells to the next: per cell of a group, the
/// pre-rolled render and the retune's copy of the window's span, each
/// captured in place.
#[derive(Debug, Default)]
pub(crate) struct ListenScratch(Vec<(Signal, Signal)>);

/// Listen to window `w` with a group of cells' controllers, batched at
/// the capture, writing cell `c`'s share to `out[c]`. A cell with no
/// bindings (an evacuated one) is skipped and keeps the default.
///
/// First every cell renders its pre-rolled span; then one
/// [`capture_batch`] call, timed as one `mic.capture` span, captures all
/// of the group's streams side by side; then each cell decodes its
/// capture. Without `pre_rolls` this is [`MdnController::listen`] per
/// cell: the whole span is rendered and only the listen is captured.
/// With them it is the loop's listen: each cell carries its pre-roll
/// render in `pre_rolls[c]` (see [`MdnController::render_listen`]), and
/// the span of `w` is copied from the same render, captured from zero
/// state and analysed for the ambient retune: the same bytes a separate
/// capture of `w` would give. A capture's bits do not depend on the
/// batch, so the result is the same for any grouping of the cells.
pub(crate) fn listen_cells(
    ctls: &[MdnController],
    mut pre_rolls: Option<&mut [Option<PreRoll>]>,
    scene: &Scene,
    w: Window,
    scratch: &mut ListenScratch,
    out: &mut [Heard],
) {
    let span = pre_roll_span(w);
    let sr = scene.sample_rate();
    let offset = duration_to_samples(w.from, sr) - duration_to_samples(span.from, sr);
    let live: Vec<usize> = (0..ctls.len())
        .filter(|&c| !ctls[c].bindings().is_empty())
        .collect();
    let Some(&first) = live.first() else {
        return;
    };
    let bufs = &mut scratch.0;
    if bufs.len() < live.len() {
        bufs.resize_with(live.len(), || (Signal::empty(sr), Signal::empty(sr)));
    }
    let bufs = &mut bufs[..live.len()];
    for (&c, (listen, own)) in live.iter().zip(bufs.iter_mut()) {
        // A resampling mic left its capture at its own rate.
        for buf in [&mut *listen, &mut *own] {
            if buf.sample_rate() != sr {
                *buf = Signal::empty(sr);
            }
        }
        let ctl = &ctls[c];
        match pre_rolls.as_deref_mut() {
            Some(pre_rolls) => {
                ctl.render_listen(scene, w, &mut pre_rolls[c], listen);
                own.reset(listen.len() - offset);
                own.samples_mut()
                    .copy_from_slice(&listen.samples()[offset..]);
            }
            None => {
                let whole = Window::new(span.from, span.len + w.len);
                scene.render_window_into(ctl.pos, whole, listen);
            }
        }
    }
    let retune = pre_rolls.is_some();
    let mut streams: Vec<(&Microphone, &mut Signal)> = Vec::with_capacity(2 * live.len());
    for (&c, (listen, own)) in live.iter().zip(bufs.iter_mut()) {
        streams.push((&ctls[c].mic, listen));
        if retune {
            streams.push((&ctls[c].mic, own));
        }
    }
    {
        let _span = ctls[first].obs_capture_span.start_span();
        capture_batch(&mut streams);
    }
    for (&c, (listen, own)) in live.iter().zip(bufs.iter()) {
        let ctl = &ctls[c];
        let analysis = if retune { ctl.analyze(own) } else { None };
        out[c] = (ctl.decode_listen(listen, span), analysis);
    }
}

/// Collapse per-frame observations into discrete tone events: consecutive
/// events with the same `(device, slot)` whose times are within
/// `refractory` of the previous one are merged into the first. Detector
/// frames overlap (25 ms hop over 50 ms frames), so one physical tone
/// produces several observations; applications that count *tones* — port
/// knocks, heavy-hitter occurrences — consume the collapsed stream. The
/// output is in time order.
pub fn collapse_events(events: &[MdnEvent], refractory: Duration) -> Vec<MdnEvent> {
    collapse(events.iter(), refractory)
}

/// The tones `device` sounded: its events alone, collapsed as
/// [`collapse_events`] does, in time order. This is how the §4–§7
/// applications read a decoded stream.
pub fn device_tones(events: &[MdnEvent], device: &str, refractory: Duration) -> Vec<MdnEvent> {
    collapse(events.iter().filter(|e| e.device == device), refractory)
}

fn collapse<'a>(events: impl Iterator<Item = &'a MdnEvent>, refractory: Duration) -> Vec<MdnEvent> {
    let mut sorted: Vec<&MdnEvent> = events.collect();
    sorted.sort_by_key(|e| e.time);
    let mut out: Vec<MdnEvent> = Vec::new();
    let mut last_seen: Vec<(&str, usize, Duration)> = Vec::new();
    for e in sorted {
        match last_seen
            .iter_mut()
            .find(|(d, s, _)| *d == e.device && *s == e.slot)
        {
            Some((_, _, t)) if e.time.saturating_sub(*t) <= refractory => {
                // Same tone still ringing: extend the refractory window.
                *t = e.time;
            }
            Some((_, _, t)) => {
                *t = e.time;
                out.push(e.clone());
            }
            None => {
                last_seen.push((&e.device, e.slot, e.time));
                out.push(e.clone());
            }
        }
    }
    out
}

/// Index of an acoustic cell (decode shard) in a sharded deployment.
pub type CellId = usize;

/// An [`MdnEvent`] attributed to the acoustic cell that decoded it.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardEvent {
    /// The cell whose controller decoded the event.
    pub shard: CellId,
    /// The decoded event (times are scene-absolute).
    pub event: MdnEvent,
}

/// Merge per-shard event streams (one per acoustic cell) into a single
/// stream tagged with the shard index. Ordering is by event time, then
/// shard index, then each shard's own decode order — a function of the
/// input streams alone, so the merged stream is bit-identical no matter
/// how many threads produced the shards or in what order they finished.
pub fn merge_event_streams(streams: Vec<Vec<MdnEvent>>) -> Vec<ShardEvent> {
    let mut merged: Vec<ShardEvent> = streams
        .into_iter()
        .enumerate()
        .flat_map(|(shard, events)| {
            events
                .into_iter()
                .map(move |event| ShardEvent { shard, event })
        })
        .collect();
    // Stable sort: equal (time, shard) pairs keep their within-shard
    // decode order.
    merged.sort_by(|a, b| a.event.time.cmp(&b.event.time).then(a.shard.cmp(&b.shard)));
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::SoundingDevice;
    use crate::freqplan::FrequencyPlan;
    use mdn_acoustics::AmbientProfile;

    const SR: u32 = 44_100;

    fn setup() -> (Scene, MdnController, SoundingDevice, SoundingDevice) {
        let mut plan = FrequencyPlan::new(500.0, 2000.0, 20.0);
        let set1 = plan.allocate("sw1", 5).unwrap();
        let set2 = plan.allocate("sw2", 5).unwrap();
        let scene = Scene::quiet(SR);
        let mut ctl = MdnController::new(Microphone::measurement(), Pos::new(0.5, 0.5, 0.0));
        ctl.bind_device("sw1", set1.clone());
        ctl.bind_device("sw2", set2.clone());
        let d1 = SoundingDevice::new("sw1", set1, Pos::ORIGIN);
        let d2 = SoundingDevice::new("sw2", set2, Pos::new(1.0, 0.0, 0.0));
        (scene, ctl, d1, d2)
    }

    #[test]
    fn controller_capture_pins_to_scene_capture() {
        // There is exactly one capture implementation: the controller
        // delegates to `Scene::capture` at its own mic/position. Pin the
        // equivalence so the two paths can never drift apart again.
        let (_, ctl, mut d1, _) = setup();
        let mut scene = Scene::new(SR, AmbientProfile::office());
        scene.set_ambient_seed(3);
        d1.emit(&mut scene, 2, Duration::from_millis(40)).unwrap();
        let w = Window::new(Duration::from_millis(20), Duration::from_millis(150));
        let via_ctl = ctl.capture(&scene, w);
        let via_scene = scene.capture(&ctl.mic, ctl.pos, w);
        assert_eq!(via_ctl.samples(), via_scene.samples());
    }

    #[test]
    fn decodes_one_device_slot() {
        let (mut scene, ctl, mut d1, _) = setup();
        d1.emit(&mut scene, 3, Duration::from_millis(100)).unwrap();
        let events = ctl.listen(&scene, Window::from_start(Duration::from_millis(300)));
        assert!(!events.is_empty());
        assert!(
            events.iter().all(|e| e.device == "sw1" && e.slot == 3),
            "stray events: {events:?}"
        );
    }

    #[test]
    fn distinguishes_simultaneous_devices() {
        // Figure 2a in miniature: two switches sound at once; the
        // controller attributes each tone to the right device.
        let (mut scene, ctl, mut d1, mut d2) = setup();
        d1.emit(&mut scene, 0, Duration::from_millis(50)).unwrap();
        d2.emit(&mut scene, 2, Duration::from_millis(50)).unwrap();
        let events = ctl.listen(&scene, Window::from_start(Duration::from_millis(200)));
        let sw1: Vec<_> = events.iter().filter(|e| e.device == "sw1").collect();
        let sw2: Vec<_> = events.iter().filter(|e| e.device == "sw2").collect();
        assert!(!sw1.is_empty() && sw1.iter().all(|e| e.slot == 0));
        assert!(!sw2.is_empty() && sw2.iter().all(|e| e.slot == 2));
    }

    #[test]
    fn event_times_are_scene_absolute() {
        let (mut scene, ctl, mut d1, _) = setup();
        d1.emit(&mut scene, 1, Duration::from_millis(600)).unwrap();
        let events = ctl.listen(
            &scene,
            Window::new(Duration::from_millis(500), Duration::from_millis(300)),
        );
        assert!(!events.is_empty());
        let t = events[0].time;
        assert!(
            t >= Duration::from_millis(550) && t <= Duration::from_millis(700),
            "event at {t:?}"
        );
    }

    #[test]
    fn no_bindings_means_no_events() {
        let scene = Scene::quiet(SR);
        let ctl = MdnController::new(Microphone::measurement(), Pos::ORIGIN);
        assert!(ctl
            .listen(&scene, Window::from_start(Duration::from_millis(100)))
            .is_empty());
    }

    #[test]
    fn works_in_datacenter_noise_after_calibration() {
        let mut plan = FrequencyPlan::new(500.0, 2000.0, 20.0);
        let set = plan.allocate("sw1", 3).unwrap();
        let mut scene = Scene::new(SR, AmbientProfile::datacenter());
        let mut ctl = MdnController::new(Microphone::measurement(), Pos::new(0.5, 0.0, 0.0));
        ctl.bind_device("sw1", set.clone());
        // Calibrate on the ambient-only scene.
        let ambient = ctl.capture(&scene, Window::from_start(Duration::from_millis(500)));
        ctl.calibrate(&ambient);
        // Then emit a loud tone and listen.
        let mut dev = SoundingDevice::new("sw1", set, Pos::ORIGIN);
        dev.level_db = 80.0; // audible over the 80 dB floor at close range
        dev.emit_slot(
            &mut scene,
            1,
            Duration::from_millis(600),
            Duration::from_millis(200),
        )
        .unwrap();
        let events = ctl.listen(
            &scene,
            Window::new(Duration::from_millis(500), Duration::from_millis(400)),
        );
        assert!(!events.is_empty(), "tone lost in datacenter noise");
        assert!(events.iter().all(|e| e.slot == 1));
    }

    fn ev(device: &str, slot: usize, ms: u64) -> MdnEvent {
        MdnEvent {
            device: device.into(),
            slot,
            time: Duration::from_millis(ms),
            freq_hz: 500.0,
            magnitude: 0.1,
        }
    }

    #[test]
    fn collapse_merges_overlapping_frames() {
        let events = vec![
            ev("sw1", 0, 0),
            ev("sw1", 0, 25),
            ev("sw1", 0, 50),
            ev("sw1", 0, 500),
        ];
        let collapsed = collapse_events(&events, Duration::from_millis(60));
        assert_eq!(collapsed.len(), 2);
        assert_eq!(collapsed[0].time, Duration::ZERO);
        assert_eq!(collapsed[1].time, Duration::from_millis(500));
    }

    #[test]
    fn collapse_keeps_distinct_slots_and_devices() {
        let events = vec![ev("sw1", 0, 0), ev("sw1", 1, 10), ev("sw2", 0, 20)];
        let collapsed = collapse_events(&events, Duration::from_millis(100));
        assert_eq!(collapsed.len(), 3);
    }

    #[test]
    fn collapse_handles_unsorted_input() {
        let events = vec![ev("sw1", 0, 50), ev("sw1", 0, 0), ev("sw1", 0, 25)];
        let collapsed = collapse_events(&events, Duration::from_millis(60));
        assert_eq!(collapsed.len(), 1);
    }

    #[test]
    fn collapse_chains_refractory_windows() {
        // A long tone: frames at 0,25,...,200 each within 60 ms of the
        // previous — all one event even though 200 ms > refractory.
        let events: Vec<MdnEvent> = (0..9).map(|i| ev("sw1", 0, i * 25)).collect();
        let collapsed = collapse_events(&events, Duration::from_millis(60));
        assert_eq!(collapsed.len(), 1);
    }

    #[test]
    fn obs_survives_rebuilds_and_counts_decoded_events() {
        let registry = Registry::new();
        let (mut scene, mut ctl, mut d1, _) = setup();
        ctl.attach_obs(&registry);
        // Rebuild after attachment: the fresh detector must stay
        // instrumented.
        ctl.set_config(DetectorConfig::default());
        d1.emit(&mut scene, 2, Duration::from_millis(100)).unwrap();
        let events = ctl.listen(&scene, Window::from_start(Duration::from_millis(300)));
        assert!(!events.is_empty());
        let snap = registry.snapshot();
        assert!(
            snap.counters["mdn_detect_frames_total"] > 0,
            "rebuilt detector lost its obs handles"
        );
        // `listen` decodes a pre-rolled capture and then filters; the
        // decoded-event counter sees the unfiltered stream, so it is at
        // least the returned count.
        assert!(snap.counters["mdn_events_decoded_total"] >= events.len() as u64);
        assert!(snap
            .histograms
            .contains_key("mdn_stage_ns{stage=\"detect.goertzel_bank\"}"));
        // The one listen captured once, inside the `mic.capture` span.
        assert_eq!(
            snap.histograms["mdn_stage_ns{stage=\"mic.capture\"}"].count,
            1
        );
        // A health ledger attached beside it reports into the same
        // registry.
        let mut health = crate::health::HealthTracker::default();
        health.attach_obs(&registry);
        health.record_missed_tone("sw1", 3, Duration::from_millis(900));
        let snap = registry.snapshot();
        assert_eq!(snap.counters["mdn_health_acoustic_deaths_total"], 1);
        assert_eq!(snap.journal.len(), 1);
        assert_eq!(snap.journal[0].kind, "health.acoustic");
        assert_eq!(snap.journal[0].detail, "sw1: dead");
    }

    #[test]
    fn quiet_scene_produces_no_false_events() {
        let (scene, ctl, _, _) = setup();
        let events = ctl.listen(&scene, Window::from_start(Duration::from_millis(500)));
        assert!(events.is_empty(), "false events: {events:?}");
    }

    #[test]
    fn merge_orders_by_time_then_shard_and_keeps_shard_order() {
        let ev = |device: &str, ms: u64| MdnEvent {
            device: device.into(),
            slot: 0,
            time: Duration::from_millis(ms),
            freq_hz: 500.0,
            magnitude: 0.01,
        };
        let shard0 = vec![ev("a", 10), ev("b", 30)];
        let shard1 = vec![ev("c", 10), ev("d", 20)];
        let merged = merge_event_streams(vec![shard0.clone(), shard1.clone()]);
        let order: Vec<(usize, &str)> = merged
            .iter()
            .map(|e| (e.shard, e.event.device.as_str()))
            .collect();
        // t=10 ties break by shard; t=20 then t=30 interleave across
        // shards by time.
        assert_eq!(order, vec![(0, "a"), (1, "c"), (1, "d"), (0, "b")]);
        // Permuting the outer order of thread completion cannot matter:
        // the function's input is indexed, so same input → same output.
        let again = merge_event_streams(vec![shard0, shard1]);
        assert_eq!(merged, again);
    }

    #[test]
    fn merge_of_empty_streams_is_empty() {
        assert!(merge_event_streams(vec![Vec::new(), Vec::new()]).is_empty());
        assert!(merge_event_streams(Vec::new()).is_empty());
    }
}
