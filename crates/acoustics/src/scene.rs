//! Acoustic scenes: emitters + ambient + listeners.
//!
//! A [`Scene`] collects every sound event in an experiment — the tones
//! switches play, the background music, the fan — each at a position and a
//! start time, plus an ambient profile. Rendering for a listener mixes all
//! of it with per-source distance attenuation and propagation delay, which
//! is exactly the pressure field a microphone at that spot would see.
//!
//! Rendering is *windowed*: [`Scene::render_window`] produces any span
//! `[from, from + len)` of the listener's timeline byte-identically to the
//! same slice of a from-zero render, touching only the work inside the
//! window — a sorted interval index selects the emissions that can reach
//! the window (propagation delay included), the ambient bed is seekable
//! (`mdn_audio::noise::*_at`), and faults are clipped to the window. That
//! is what makes a closed control loop O(window) per tick instead of
//! re-rendering the entire elapsed history; [`SceneCursor`] streams
//! consecutive windows through one reusable scratch buffer.
//!
//! The ambient bed is one field every listener hears, so a scene keeps
//! the most recently synthesised span of it and serves any window inside
//! that span by copying: a hall's per-cell listens of one window
//! synthesise the bed once between them.
//!
//! Tones repeat: a hall's switches sound a few hundred distinct
//! `(frequency, level, duration)` tones over and over. [`Scene::add_tone`]
//! renders each distinct shaped [`Tone`] once per scene and every emission
//! of it shares the one array ([`Emission::signal`] is an `Arc`). A tone's
//! samples are a pure function of its fields and the sample rate, so a
//! shared array is bit-for-bit the array a fresh render would give.
//! [`Scene::retire_emissions_before`] drops the tones no live emission
//! holds any more.
//!
//! Because a render is time-functional, a span rendered earlier stays
//! valid until something that can reach it changes. [`Scene::render_mark`]
//! stamps the scene's state, and [`Scene::renders_unchanged`] proves a
//! span still renders as it did: same scene, no fault-plan or ambient-seed
//! change, no emission added since that starts before the span's end, and
//! no garbage collection past its start. A listener that keeps the tail
//! of one window's render can then prepend it to the next window's
//! ([`Scene::extend_render`]) instead of rendering it again.
//!
//! A render is sequential. The one parallel layer sits above it, in the
//! per-cell listens of `mdn_core::cells::ShardedController`, which share
//! one `&Scene`: hence the atomic counters and the memo's `Mutex`.

use crate::ambient::AmbientProfile;
use crate::faults::SceneFaultPlan;
use crate::medium::{incident_amplitude, propagation_delay_s, spreading_gain, Pos};
use mdn_audio::noise::white_noise_add;
use mdn_audio::signal::{duration_to_samples, mix_scaled, spl_to_amplitude, Window};
use mdn_audio::synth::Tone;
use mdn_audio::Signal;
use mdn_obs::{Counter, Histogram, Registry, SpanKind, TraceId, TraceSink, TraceSpan};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Duration;

/// Registry handles for a [`Scene`]'s counters; disabled by default.
/// Updates happen from `&self` render paths, which may run on the
/// per-cell listen workers at once; the atomic handles make that safe.
#[derive(Debug, Clone, Default)]
struct SceneObs {
    emissions: Counter,
    muted_emissions: Counter,
    degraded_emissions: Counter,
    noise_bursts: Counter,
    mic_dead_windows: Counter,
    render_span: Histogram,
}

/// One scheduled sound in the scene.
#[derive(Debug, Clone)]
pub struct Emission {
    /// Where the source sits.
    pub pos: Pos,
    /// When the source starts playing (scene time).
    pub start: Duration,
    /// What it plays (pressure at the 1 m reference distance), shared
    /// with every other emission of the same tone.
    pub signal: Arc<Signal>,
    /// Label for debugging/tracing (e.g. "switch-3").
    pub label: String,
    /// Insertion sequence number: how many emissions the scene was given
    /// before this one.
    seq: u64,
}

/// A memoised tone: the bits of the shaped [`Tone`]'s frequency,
/// amplitude and phase, and its duration in nanoseconds.
type ToneKey = (u64, u64, u64, u128);

fn tone_key(tone: &Tone) -> ToneKey {
    (
        tone.freq_hz.to_bits(),
        tone.amplitude.to_bits(),
        tone.phase.to_bits(),
        tone.duration.as_nanos(),
    )
}

/// A process-unique scene identity. A clone is another scene that can
/// diverge from the original, so it draws a fresh id.
#[derive(Debug)]
struct SceneId(u64);

impl SceneId {
    fn fresh() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        Self(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

impl Clone for SceneId {
    fn clone(&self) -> Self {
        Self::fresh()
    }
}

/// A stamp of everything a scene's render depends on, from
/// [`Scene::render_mark`]; [`Scene::renders_unchanged`] checks a span
/// against it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RenderMark {
    scene: u64,
    edits: u64,
    added: u64,
}

/// Single-entry memo of the ambient bed: samples `[from, from +
/// samples.len())` of the scene's ambient stream, synthesised onto a
/// zeroed buffer exactly as a direct render would. The bed depends only
/// on the absolute sample index, the seed and the sample rate, so a slice
/// of it is byte-identical to synthesising the slice alone. A clone
/// starts empty.
#[derive(Debug, Default)]
struct AmbientMemo(Mutex<AmbientSpan>);

#[derive(Debug, Default)]
struct AmbientSpan {
    from: usize,
    samples: Vec<f32>,
}

impl Clone for AmbientMemo {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl AmbientSpan {
    /// Replace the memo with samples `[from, from + len)` of the bed,
    /// reusing the allocation. The buffer is taken out while it is
    /// written, so a panic mid-synthesis leaves an empty memo behind.
    #[cold]
    #[inline(never)]
    fn synthesise(
        &mut self,
        ambient: &AmbientProfile,
        from: usize,
        len: usize,
        sr: u32,
        seed: u64,
    ) {
        let mut samples = std::mem::take(&mut self.samples);
        samples.clear();
        samples.resize(len, 0.0);
        ambient.render_into(&mut samples, from as u64, sr, seed);
        self.from = from;
        self.samples = samples;
    }
}

/// Start-sorted interval index over a scene's emissions, built lazily on
/// first render and invalidated by [`Scene::add`]. `prefix_max_end[k]`
/// bounds `start + duration` over the first `k + 1` sorted emissions, so a
/// reverse walk from the last emission starting before the window's end
/// can stop as soon as even the longest-lived earlier emission — delayed
/// by the worst-case propagation over the scene's bounding box — cannot
/// reach the window's start.
#[derive(Debug, Clone)]
struct EmissionIndex {
    /// Emission indices sorted by start time.
    order: Vec<usize>,
    /// Start times, in `order` order.
    starts: Vec<Duration>,
    /// Prefix max of `start + signal.duration()`, in `order` order.
    prefix_max_end: Vec<Duration>,
    /// Axis-aligned bounds over emission positions.
    bbox: Option<(Pos, Pos)>,
}

impl EmissionIndex {
    fn build(emissions: &[Emission]) -> Self {
        let mut order: Vec<usize> = (0..emissions.len()).collect();
        order.sort_by_key(|&i| emissions[i].start);
        let starts = order.iter().map(|&i| emissions[i].start).collect();
        let mut prefix_max_end = Vec::with_capacity(order.len());
        let mut max_end = Duration::ZERO;
        for &i in &order {
            max_end = max_end.max(emissions[i].start + emissions[i].signal.duration());
            prefix_max_end.push(max_end);
        }
        let bbox = emissions.iter().map(|e| e.pos).fold(None, |acc, p| {
            let (lo, hi) = acc.unwrap_or((p, p));
            Some((
                Pos::new(lo.x.min(p.x), lo.y.min(p.y), lo.z.min(p.z)),
                Pos::new(hi.x.max(p.x), hi.y.max(p.y), hi.z.max(p.z)),
            ))
        });
        Self {
            order,
            starts,
            prefix_max_end,
            bbox,
        }
    }

    /// Upper bound on the propagation delay from any emission to
    /// `listener`: the delay over the farthest corner of the bounding box.
    fn max_delay(&self, listener: Pos) -> Duration {
        match self.bbox {
            None => Duration::ZERO,
            Some((lo, hi)) => {
                let dx = (listener.x - lo.x).abs().max((listener.x - hi.x).abs());
                let dy = (listener.y - lo.y).abs().max((listener.y - hi.y).abs());
                let dz = (listener.z - lo.z).abs().max((listener.z - hi.z).abs());
                let dist = (dx * dx + dy * dy + dz * dz).sqrt();
                Duration::from_secs_f64(propagation_delay_s(dist))
            }
        }
    }
}

/// A collection of emissions over a shared timeline, with an ambient bed.
#[derive(Debug, Clone)]
pub struct Scene {
    id: SceneId,
    sample_rate: u32,
    emissions: Vec<Emission>,
    /// Emissions ever added; the next one's `seq`.
    added: u64,
    /// Calls that change how any span renders: [`Scene::set_faults`] and
    /// [`Scene::set_ambient_seed`].
    edits: u64,
    /// The latest [`Scene::retire_emissions_before`] cutoff.
    gc_cutoff: Duration,
    /// Rendered tones by shaped [`Tone`], shared by their emissions.
    tones: HashMap<ToneKey, Arc<Signal>>,
    ambient: AmbientProfile,
    ambient_seed: u64,
    faults: Option<SceneFaultPlan>,
    index: OnceLock<EmissionIndex>,
    /// The last synthesised span of the ambient bed; cleared by
    /// [`Scene::set_ambient_seed`].
    ambient_memo: AmbientMemo,
    obs: SceneObs,
    trace: TraceSink,
    /// A trace armed by [`Scene::set_next_emission_trace`], consumed by
    /// the next [`Scene::add`] to record that emission's `emit` span.
    pending_trace: Option<(TraceId, usize)>,
}

impl Scene {
    /// An empty scene at `sample_rate` with the given ambient profile.
    pub fn new(sample_rate: u32, ambient: AmbientProfile) -> Self {
        assert!(sample_rate > 0);
        Self {
            id: SceneId::fresh(),
            sample_rate,
            emissions: Vec::new(),
            added: 0,
            edits: 0,
            gc_cutoff: Duration::ZERO,
            tones: HashMap::new(),
            ambient,
            ambient_seed: 0,
            faults: None,
            index: OnceLock::new(),
            ambient_memo: AmbientMemo::default(),
            obs: SceneObs::default(),
            trace: TraceSink::disabled(),
            pending_trace: None,
        }
    }

    /// Register this scene's metrics with an observability registry:
    /// `mdn_scene_emissions_total`, fault-activation counters
    /// (`mdn_scene_muted_emissions_total`,
    /// `mdn_scene_degraded_emissions_total`, `mdn_scene_noise_bursts_total`,
    /// `mdn_scene_mic_dead_windows_total`), and the
    /// `mdn_stage_ns{stage="scene.render"}` span. Emissions already
    /// scheduled are carried over.
    pub fn attach_obs(&mut self, registry: &Registry) {
        self.obs = SceneObs {
            emissions: registry.counter("mdn_scene_emissions_total", &[]),
            muted_emissions: registry.counter("mdn_scene_muted_emissions_total", &[]),
            degraded_emissions: registry.counter("mdn_scene_degraded_emissions_total", &[]),
            noise_bursts: registry.counter("mdn_scene_noise_bursts_total", &[]),
            mic_dead_windows: registry.counter("mdn_scene_mic_dead_windows_total", &[]),
            render_span: registry.stage_histogram("scene.render"),
        };
        self.obs.emissions.add(self.emissions.len() as u64);
    }

    /// Attach a causal-trace sink. Once attached, an emission armed with
    /// [`Scene::set_next_emission_trace`] records an `emit` span covering
    /// its signal's air time when it lands in [`Scene::add`].
    pub fn attach_trace(&mut self, sink: &TraceSink) {
        self.trace = sink.clone();
    }

    /// Arm the next [`Scene::add`] call to record its emission against
    /// `trace` (attributed to `cell`). Un-consumed arms are replaced by
    /// the next call; [`Scene::clear_emission_trace`] disarms (e.g. when
    /// the emit attempt failed before reaching the scene).
    pub fn set_next_emission_trace(&mut self, trace: TraceId, cell: usize) {
        if self.trace.is_enabled() {
            self.pending_trace = Some((trace, cell));
        }
    }

    /// Disarm a pending [`Scene::set_next_emission_trace`].
    pub fn clear_emission_trace(&mut self) {
        self.pending_trace = None;
    }

    /// A quiet scene (20 dB SPL ambient) — the default for unit tests.
    pub fn quiet(sample_rate: u32) -> Self {
        Self::new(sample_rate, AmbientProfile::quiet())
    }

    /// Replace the ambient noise seed (defaults to 0).
    pub fn set_ambient_seed(&mut self, seed: u64) {
        self.ambient_seed = seed;
        self.edits += 1;
        let memo = self
            .ambient_memo
            .0
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        memo.samples.clear();
    }

    /// Attach (or replace) an acoustic fault plan. Faults apply at render
    /// time, so one scene can be rendered with and without them.
    pub fn set_faults(&mut self, plan: SceneFaultPlan) {
        self.faults = Some(plan);
        self.edits += 1;
    }

    /// The attached fault plan, if any.
    pub fn faults(&self) -> Option<&SceneFaultPlan> {
        self.faults.as_ref()
    }

    /// The scene's sample rate.
    pub fn sample_rate(&self) -> u32 {
        self.sample_rate
    }

    /// Schedule `signal` to play from `pos` starting at `start`.
    ///
    /// # Panics
    /// Panics if the signal's sample rate differs from the scene's.
    pub fn add(&mut self, pos: Pos, start: Duration, signal: Signal, label: impl Into<String>) {
        self.add_shared(pos, start, Arc::new(signal), label.into());
    }

    /// Schedule `tone` to play from `pos` starting at `start`, rendered
    /// at the scene's rate, and return how long it plays. The first
    /// emission of a tone renders it; later ones share that array, which
    /// is bit-for-bit `tone.render(sample_rate)`.
    pub fn add_tone(
        &mut self,
        pos: Pos,
        start: Duration,
        tone: &Tone,
        label: impl Into<String>,
    ) -> Duration {
        let sr = self.sample_rate;
        let signal = self
            .tones
            .entry(tone_key(tone))
            .or_insert_with(|| Arc::new(tone.render(sr)))
            .clone();
        let played = signal.duration();
        self.add_shared(pos, start, signal, label.into());
        played
    }

    fn add_shared(&mut self, pos: Pos, start: Duration, signal: Arc<Signal>, label: String) {
        assert_eq!(
            signal.sample_rate(),
            self.sample_rate,
            "emission sample rate must match the scene"
        );
        if let Some((trace, cell)) = self.pending_trace.take() {
            self.trace.record(TraceSpan {
                trace,
                kind: SpanKind::Emit,
                from: start,
                to: start + signal.duration(),
                wall_ns: 0,
                cell,
                detail: label.clone(),
            });
        }
        self.emissions.push(Emission {
            pos,
            start,
            signal,
            label,
            seq: self.added,
        });
        self.added += 1;
        self.index.take();
        self.obs.emissions.inc();
    }

    /// Stamp the scene's current render state, for a later
    /// [`Scene::renders_unchanged`].
    pub fn render_mark(&self) -> RenderMark {
        RenderMark {
            scene: self.id.0,
            edits: self.edits,
            added: self.added,
        }
    }

    /// True when window `span` renders now, for every listener, exactly
    /// as it did when `mark` was taken: `mark` is this scene's, neither
    /// [`Scene::set_faults`] nor [`Scene::set_ambient_seed`] ran since,
    /// every emission added since starts at or after `span.end()` (an
    /// emission is heard no earlier than it starts), and no
    /// [`Scene::retire_emissions_before`] cutoff lies past `span.from`.
    pub fn renders_unchanged(&self, mark: RenderMark, span: Window) -> bool {
        if mark.scene != self.id.0 || mark.edits != self.edits || self.gc_cutoff > span.from {
            return false;
        }
        let since = self.emissions.partition_point(|e| e.seq < mark.added);
        self.emissions[since..]
            .iter()
            .all(|e| e.start >= span.end())
    }

    /// Number of scheduled emissions.
    pub fn num_emissions(&self) -> usize {
        self.emissions.len()
    }

    /// The scheduled emissions.
    pub fn emissions(&self) -> &[Emission] {
        &self.emissions
    }

    /// Drop emissions that cannot be heard in any window starting at or
    /// after `cutoff`: those with `start + duration + delay_bound <=
    /// cutoff`, where `delay_bound` is a caller-supplied upper bound on
    /// the propagation delay from any emission to any listener it will
    /// still render for (e.g. the delay across the hall's diagonal).
    /// Returns the number retired.
    ///
    /// Rendering is time-functional — an emission only contributes to
    /// samples at or after its own delayed start — so windows from
    /// `cutoff` onward stay byte-identical after the sweep. This is the
    /// garbage collection that keeps a soak's emission index O(active
    /// tones) instead of O(all tones ever played); windows *before*
    /// `cutoff` must not be rendered again afterwards.
    ///
    /// Memoised tones that no remaining emission holds are dropped too.
    pub fn retire_emissions_before(&mut self, cutoff: Duration, delay_bound: Duration) -> usize {
        let before = self.emissions.len();
        self.emissions
            .retain(|e| e.start + e.signal.duration() + delay_bound > cutoff);
        self.gc_cutoff = self.gc_cutoff.max(cutoff);
        let retired = before - self.emissions.len();
        if retired > 0 {
            self.index.take();
            self.tones.retain(|_, signal| Arc::strong_count(signal) > 1);
        }
        retired
    }

    /// Placement pass for window `w`: `(emission index, spreading gain,
    /// absolute start sample)` for every emission whose delayed sample
    /// range overlaps the window's. The interval index prunes the scan to
    /// emissions near the window — a reverse walk over start-sorted
    /// emissions that stops once `prefix_max_end + max_delay` falls before
    /// the window — so a tick render of a long scene does O(hits + log n)
    /// selection work, not O(n). Hits are returned in emission insertion
    /// order, which makes the mix independent of the window split.
    fn place_in_window(&self, listener: Pos, w: Window) -> Vec<(usize, f64, usize)> {
        let index = self
            .index
            .get_or_init(|| EmissionIndex::build(&self.emissions));
        let delay_cap = index.max_delay(listener);
        let (a, b) = w.sample_range(self.sample_rate);
        let mut hits = Vec::new();
        // An emission arrives no earlier than it starts, so only starts
        // before the window's end can be heard inside it.
        let upper = index.starts.partition_point(|&s| s < w.end());
        for k in (0..upper).rev() {
            if index.prefix_max_end[k] + delay_cap <= w.from {
                // Even the longest-lived emission so far, delayed by the
                // worst case, ends before the window starts — and the
                // prefix max only shrinks further left.
                break;
            }
            let e = &self.emissions[index.order[k]];
            let mut fault_gain = 1.0;
            if let Some(plan) = &self.faults {
                // A dead speaker plays nothing for the whole emission.
                if plan.speaker_muted(&e.label, e.start) {
                    self.obs.muted_emissions.inc();
                    continue;
                }
                // A degraded speaker plays the whole emission quieter.
                fault_gain = plan.speaker_gain(&e.label, e.start);
                if fault_gain != 1.0 {
                    self.obs.degraded_emissions.inc();
                }
            }
            let dist = e.pos.distance(&listener);
            let gain = spreading_gain(dist) * fault_gain;
            let delay = Duration::from_secs_f64(propagation_delay_s(dist));
            let offset = duration_to_samples(e.start + delay, self.sample_rate);
            if offset >= b || offset + e.signal.len() <= a {
                continue;
            }
            hits.push((index.order[k], gain, offset));
        }
        hits.sort_unstable_by_key(|&(i, _, _)| i);
        hits
    }

    /// Mix placed emissions into `out`, whose first sample sits at
    /// absolute scene sample `range0`.
    ///
    /// Each output sample accumulates its emissions in emission order with
    /// the same per-sample arithmetic as `Signal::scaled` + `Signal::mix_at`
    /// (`out[i] += (src as f64 * gain) as f32`), so the result is
    /// byte-identical for any window split.
    fn mix_placed(&self, placed: &[(usize, f64, usize)], range0: usize, out: &mut [f32]) {
        let range_end = range0 + out.len();
        for &(ei, gain, offset) in placed {
            let src = self.emissions[ei].signal.samples();
            let begin = offset.max(range0);
            let end = (offset + src.len()).min(range_end);
            if begin >= end {
                continue;
            }
            mix_scaled(
                &mut out[begin - range0..end - range0],
                &src[begin - offset..end - offset],
                gain,
            );
        }
    }

    /// Overwrite `out` with samples `[a, a + out.len())` of the ambient
    /// bed, copied from the memo when it covers them and synthesised
    /// into the memo first when it does not.
    fn ambient_into(&self, a: usize, out: &mut [f32]) {
        let mut memo = self
            .ambient_memo
            .0
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let b = a + out.len();
        if a < memo.from || b > memo.from + memo.samples.len() {
            memo.synthesise(
                &self.ambient,
                a,
                out.len(),
                self.sample_rate,
                self.ambient_seed,
            );
        }
        out.copy_from_slice(&memo.samples[a - memo.from..b - memo.from]);
    }

    /// Render window `w` of the listener's timeline into `out`, reusing
    /// its allocation ([`Signal::reset`]). Touches only work overlapping
    /// the window; the output is byte-identical to the same span of a
    /// from-zero render.
    ///
    /// # Panics
    /// Panics if `out`'s sample rate differs from the scene's.
    pub fn render_window_into(&self, listener: Pos, w: Window, out: &mut Signal) {
        out.reset(0);
        self.extend_render(listener, w, out);
    }

    /// Append window `w` of the listener's timeline to `out`. When `out`
    /// holds the span just before `w` (rendered while
    /// [`Scene::renders_unchanged`] still holds for it), the result is
    /// byte-identical to one render of the joined window.
    ///
    /// # Panics
    /// Panics if `out`'s sample rate differs from the scene's.
    pub fn extend_render(&self, listener: Pos, w: Window, out: &mut Signal) {
        assert_eq!(
            out.sample_rate(),
            self.sample_rate,
            "scratch sample rate must match the scene"
        );
        let _span = self.obs.render_span.start_span();
        let (a, b) = w.sample_range(self.sample_rate);
        let kept = out.len();
        out.pad_to(kept + b - a);
        if a == b {
            return;
        }
        let out = &mut out.samples_mut()[kept..];
        self.ambient_into(a, out);
        let placed = self.place_in_window(listener, w);
        self.mix_placed(&placed, a, out);
        if let Some(plan) = &self.faults {
            for (i, (win, level_db)) in plan.noise_bursts().iter().enumerate() {
                // The burst is samples [0, round(len)) of its own white
                // stream, placed at the absolute sample of its start. Its
                // last sample can lie one past round(end), so the window
                // is clipped in samples, never by `win.end()`.
                let s0 = duration_to_samples(win.from, self.sample_rate);
                let blen = duration_to_samples(win.len, self.sample_rate);
                let begin = s0.max(a);
                let end = (s0 + blen).min(b);
                if begin < end {
                    self.obs.noise_bursts.inc();
                    white_noise_add(
                        &mut out[begin - a..end - a],
                        (begin - s0) as u64,
                        spl_to_amplitude(*level_db),
                        plan.seed() ^ (i as u64),
                    );
                }
            }
            for win in plan.mic_dead_windows_at(listener) {
                let begin = duration_to_samples(win.from, self.sample_rate).max(a);
                let end = duration_to_samples(win.end(), self.sample_rate).min(b);
                if begin < end {
                    self.obs.mic_dead_windows.inc();
                    out[begin - a..end - a].fill(0.0);
                }
            }
        }
    }

    /// Render window `w` of the pressure signal an ideal listener at
    /// `listener` would observe: all emissions attenuated by distance,
    /// delayed by propagation, plus the ambient bed, with any fault plan
    /// applied — all clipped to the window.
    ///
    /// The output equals the `[w.from, w.end())` span of
    /// `render_at(listener, w.end())` exactly.
    pub fn render_window(&self, listener: Pos, w: Window) -> Signal {
        let mut out = Signal::empty(self.sample_rate);
        self.render_window_into(listener, w, &mut out);
        out
    }

    /// Render `[0, duration)` for a listener — a from-zero
    /// [`Scene::render_window`].
    pub fn render_at(&self, listener: Pos, duration: Duration) -> Signal {
        self.render_window(listener, Window::from_start(duration))
    }

    /// A streaming renderer for consecutive windows at `listener`,
    /// starting at time zero.
    pub fn cursor(&self, listener: Pos) -> SceneCursor<'_> {
        SceneCursor {
            scene: self,
            listener,
            at: Duration::ZERO,
            scratch: Signal::empty(self.sample_rate),
        }
    }

    /// Worst-case peak amplitude this scene's emissions can present at
    /// `listener`, excluding ambient: each emission's peak scaled by the
    /// same spreading law the renderer applies, summed coherently (as if
    /// every source lined up in phase). The render at `listener` can never
    /// exceed this bound plus the ambient bed. It is the test oracle for
    /// that bound; the acoustic-cell planner evaluates the same per-source
    /// term, [`incident_amplitude`], itself.
    pub fn incident_peak_at(&self, listener: Pos) -> f64 {
        self.emissions
            .iter()
            .map(|e| incident_amplitude(e.signal.peak(), e.pos.distance(&listener)))
            .sum()
    }
}

/// A stateful streaming renderer: repeated [`SceneCursor::advance`] calls
/// return consecutive windows of the listener's timeline through one
/// reusable scratch buffer, so a closed control loop allocates nothing per
/// tick and the concatenated chunks are byte-identical to one batch
/// render ([`Window::sample_range`] makes adjacent windows tile the sample
/// grid exactly).
#[derive(Debug)]
pub struct SceneCursor<'a> {
    scene: &'a Scene,
    listener: Pos,
    at: Duration,
    scratch: Signal,
}

impl SceneCursor<'_> {
    /// The time the next [`SceneCursor::advance`] starts from.
    pub fn position(&self) -> Duration {
        self.at
    }

    /// Render the next `len` of the stream and advance past it. The
    /// returned signal borrows the cursor's scratch buffer and is valid
    /// until the next call.
    pub fn advance(&mut self, len: Duration) -> &Signal {
        let w = Window::new(self.at, len);
        self.scene
            .render_window_into(self.listener, w, &mut self.scratch);
        self.at = w.end();
        &self.scratch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mic::Microphone;
    use mdn_audio::signal::spl_to_amplitude;
    use mdn_audio::spectral::Spectrum;
    use mdn_audio::synth::Tone;

    const SR: u32 = 44_100;

    fn tone(freq: f64, ms: u64, spl: f64) -> Signal {
        Tone::new(freq, Duration::from_millis(ms), spl_to_amplitude(spl)).render(SR)
    }

    fn win(from_ms: u64, len_ms: u64) -> Window {
        Window::new(
            Duration::from_millis(from_ms),
            Duration::from_millis(len_ms),
        )
    }

    #[test]
    fn empty_scene_renders_ambient_only() {
        let scene = Scene::quiet(SR);
        let out = scene.render_at(Pos::ORIGIN, Duration::from_millis(200));
        assert_eq!(out.len(), 8820);
        // Quiet ambient: ~20 dB SPL.
        assert!((out.rms_spl() - 20.0).abs() < 2.0, "got {}", out.rms_spl());
    }

    #[test]
    fn retiring_spent_emissions_keeps_later_windows_byte_identical() {
        let mut scene = Scene::quiet(SR);
        scene.set_ambient_seed(11);
        let far = Pos::new(8.0, 0.0, 0.0);
        scene.add(Pos::ORIGIN, Duration::ZERO, tone(900.0, 100, 60.0), "old");
        // Ends (at the source) just before the cutoff, but its ~20 ms
        // propagation delay to the listener pushes its tail across it —
        // exactly the emission a naive `end <= cutoff` sweep would lose.
        scene.add(
            far,
            Duration::from_millis(440),
            tone(1100.0, 55, 60.0),
            "mid",
        );
        scene.add(
            Pos::ORIGIN,
            Duration::from_millis(600),
            tone(700.0, 100, 60.0),
            "live",
        );
        let listener = Pos::new(1.0, 0.5, 0.0);
        let w = win(500, 300);
        let reference = scene.render_window(listener, w);

        // A generous delay bound keeps "mid" (still ringing into later
        // windows after propagation) but retires "old".
        let delay_bound = Duration::from_millis(50);
        let retired = scene.retire_emissions_before(Duration::from_millis(500), delay_bound);
        assert_eq!(retired, 1, "only the spent emission goes");
        assert_eq!(scene.num_emissions(), 2);
        let swept = scene.render_window(listener, w);
        assert_eq!(
            reference.samples(),
            swept.samples(),
            "windows after the cutoff must not change"
        );

        // Retiring nothing touches nothing.
        assert_eq!(
            scene.retire_emissions_before(Duration::ZERO, delay_bound),
            0
        );
    }

    #[test]
    fn nearby_tone_dominates_render() {
        let mut scene = Scene::quiet(SR);
        scene.add(Pos::ORIGIN, Duration::ZERO, tone(1000.0, 300, 60.0), "sw");
        let out = scene.render_at(Pos::new(0.5, 0.0, 0.0), Duration::from_millis(300));
        let spec = Spectrum::of(&out);
        let peak = spec.magnitude_at(1000.0);
        assert!(peak > spl_to_amplitude(55.0), "peak {peak}");
    }

    #[test]
    fn distance_attenuates_by_inverse_law() {
        let mut scene = Scene::quiet(SR);
        scene.add(Pos::ORIGIN, Duration::ZERO, tone(1000.0, 500, 70.0), "sw");
        let near = scene.render_at(Pos::new(1.0, 0.0, 0.0), Duration::from_millis(500));
        let far = scene.render_at(Pos::new(4.0, 0.0, 0.0), Duration::from_millis(500));
        let near_mag = Spectrum::of(&near).magnitude_at(1000.0);
        let far_mag = Spectrum::of(&far).magnitude_at(1000.0);
        let ratio = near_mag / far_mag;
        assert!((ratio - 4.0).abs() < 0.8, "ratio {ratio}");
    }

    #[test]
    fn propagation_delays_distant_sources() {
        let mut scene = Scene::quiet(SR);
        // 34.3 m away → 100 ms of flight time.
        scene.add(
            Pos::new(34.3, 0.0, 0.0),
            Duration::ZERO,
            tone(2000.0, 100, 80.0),
            "far",
        );
        let out = scene.render_at(Pos::ORIGIN, Duration::from_millis(400));
        let early = out.window(win(0, 80));
        let later = out.window(win(110, 80));
        let early_mag = Spectrum::of(&early).magnitude_at(2000.0);
        let later_mag = Spectrum::of(&later).magnitude_at(2000.0);
        assert!(
            later_mag > 10.0 * early_mag.max(1e-9),
            "early {early_mag} later {later_mag}"
        );
    }

    #[test]
    fn render_length_is_exact_despite_overruns() {
        let mut scene = Scene::quiet(SR);
        // Emission extends past the render window.
        scene.add(
            Pos::ORIGIN,
            Duration::from_millis(150),
            tone(500.0, 500, 60.0),
            "long",
        );
        let out = scene.render_at(Pos::ORIGIN, Duration::from_millis(200));
        assert_eq!(out.len(), 8820);
    }

    #[test]
    fn emission_after_window_is_skipped() {
        let mut scene = Scene::quiet(SR);
        scene.add(
            Pos::ORIGIN,
            Duration::from_secs(5),
            tone(500.0, 100, 90.0),
            "late",
        );
        let out = scene.render_at(Pos::ORIGIN, Duration::from_millis(100));
        let spec = Spectrum::of(&out);
        assert!(spec.magnitude_at(500.0) < spl_to_amplitude(40.0));
    }

    #[test]
    fn capture_through_microphone() {
        let mut scene = Scene::quiet(SR);
        scene.add(Pos::ORIGIN, Duration::ZERO, tone(1000.0, 300, 60.0), "sw");
        let cap = Microphone::measurement().capture(&scene.render_window(
            Pos::new(0.5, 0.0, 0.0),
            Window::from_start(Duration::from_millis(300)),
        ));
        assert_eq!(cap.sample_rate(), 44_100);
        let spec = Spectrum::of(&cap);
        assert!(spec.magnitude_at(1000.0) > spl_to_amplitude(50.0));
    }

    #[test]
    #[should_panic(expected = "sample rate must match")]
    fn rejects_rate_mismatch() {
        let mut scene = Scene::quiet(SR);
        let wrong = Tone::new(500.0, Duration::from_millis(10), 0.1).render(48_000);
        scene.add(Pos::ORIGIN, Duration::ZERO, wrong, "bad");
    }

    #[test]
    fn speaker_dropout_silences_matching_emission() {
        let mut scene = Scene::quiet(SR);
        scene.add(Pos::ORIGIN, Duration::ZERO, tone(1000.0, 300, 60.0), "sw-1");
        let healthy = scene.render_at(Pos::new(0.5, 0.0, 0.0), Duration::from_millis(300));
        scene.set_faults(SceneFaultPlan::new(0).speaker_dropout(
            "sw-1",
            Window::between(Duration::ZERO, Duration::from_secs(1)),
        ));
        let muted = scene.render_at(Pos::new(0.5, 0.0, 0.0), Duration::from_millis(300));
        let h = Spectrum::of(&healthy).magnitude_at(1000.0);
        let m = Spectrum::of(&muted).magnitude_at(1000.0);
        assert!(h > spl_to_amplitude(55.0), "healthy peak {h}");
        assert!(m < h / 10.0, "muted peak {m} vs healthy {h}");
        // Dropout window over: the speaker plays again.
        scene.set_faults(SceneFaultPlan::new(0).speaker_dropout(
            "sw-1",
            Window::between(Duration::from_secs(2), Duration::from_secs(3)),
        ));
        let later = scene.render_at(Pos::new(0.5, 0.0, 0.0), Duration::from_millis(300));
        assert!(Spectrum::of(&later).magnitude_at(1000.0) > spl_to_amplitude(55.0));
    }

    #[test]
    fn mic_dead_window_zeroes_capture() {
        let mut scene = Scene::quiet(SR);
        scene.add(Pos::ORIGIN, Duration::ZERO, tone(1000.0, 400, 70.0), "sw");
        scene.set_faults(SceneFaultPlan::new(0).mic_dead(Window::between(
            Duration::from_millis(100),
            Duration::from_millis(200),
        )));
        let out = scene.render_at(Pos::new(0.5, 0.0, 0.0), Duration::from_millis(400));
        let dead = out.window(win(110, 80));
        assert!(
            dead.samples().iter().all(|&s| s == 0.0),
            "dead window silent"
        );
        let alive = out.window(win(250, 100));
        assert!(alive.samples().iter().any(|&s| s != 0.0));
    }

    #[test]
    fn noise_burst_raises_level_inside_window_only() {
        let mut scene = Scene::quiet(SR);
        scene.set_faults(SceneFaultPlan::new(7).noise_burst(
            Window::between(Duration::from_millis(200), Duration::from_millis(400)),
            65.0,
        ));
        let out = scene.render_at(Pos::ORIGIN, Duration::from_millis(600));
        let quiet = out.window(win(0, 180));
        let loud = out.window(win(210, 180));
        assert!(
            loud.rms_spl() > quiet.rms_spl() + 20.0,
            "burst {} vs quiet {}",
            loud.rms_spl(),
            quiet.rms_spl()
        );
        // Deterministic: same plan, same burst.
        let again = scene.render_at(Pos::ORIGIN, Duration::from_millis(600));
        assert_eq!(out.samples(), again.samples());
    }

    #[test]
    fn speaker_degraded_attenuates_by_the_given_db() {
        let mut scene = Scene::quiet(SR);
        scene.add(Pos::ORIGIN, Duration::ZERO, tone(1000.0, 300, 60.0), "sw-1");
        let at = Pos::new(0.5, 0.0, 0.0);
        let healthy = scene.render_at(at, Duration::from_millis(300));
        scene.set_faults(SceneFaultPlan::new(0).speaker_degraded(
            "sw-1",
            Window::between(Duration::ZERO, Duration::from_secs(1)),
            20.0,
        ));
        let degraded = scene.render_at(at, Duration::from_millis(300));
        let h = Spectrum::of(&healthy).magnitude_at(1000.0);
        let d = Spectrum::of(&degraded).magnitude_at(1000.0);
        // 20 dB down is a 10x amplitude drop — quieter but not silent.
        assert!(
            (d / h - 0.1).abs() < 0.02,
            "degraded/healthy ratio {} should be ~0.1",
            d / h
        );
        assert!(d > spl_to_amplitude(30.0), "still audible");
        // Outside the window the speaker plays at full level.
        scene.set_faults(SceneFaultPlan::new(0).speaker_degraded(
            "sw-1",
            Window::between(Duration::from_secs(2), Duration::from_secs(3)),
            20.0,
        ));
        let later = scene.render_at(at, Duration::from_millis(300));
        let l = Spectrum::of(&later).magnitude_at(1000.0);
        assert!((l / h - 1.0).abs() < 1e-6, "unwindowed ratio {}", l / h);
    }

    #[test]
    #[should_panic(expected = "attenuation must be non-negative")]
    fn speaker_degraded_rejects_negative_attenuation() {
        let _ = SceneFaultPlan::new(0).speaker_degraded(
            "sw",
            Window::between(Duration::ZERO, Duration::from_secs(1)),
            -3.0,
        );
    }

    #[test]
    fn positional_mic_dead_only_silences_nearby_listeners() {
        let mut scene = Scene::quiet(SR);
        scene.add(Pos::ORIGIN, Duration::ZERO, tone(1000.0, 400, 70.0), "sw");
        let near = Pos::new(0.5, 0.0, 0.0);
        let far = Pos::new(6.0, 0.0, 0.0);
        scene.set_faults(SceneFaultPlan::new(0).mic_dead_at(
            near,
            1.0,
            Window::between(Duration::from_millis(100), Duration::from_millis(200)),
        ));
        let near_cap = scene.render_at(near, Duration::from_millis(400));
        let dead = near_cap.window(win(110, 80));
        assert!(
            dead.samples().iter().all(|&s| s == 0.0),
            "listener inside the zone hears nothing in the window"
        );
        let far_cap = scene.render_at(far, Duration::from_millis(400));
        let same_span = far_cap.window(win(110, 80));
        assert!(
            same_span.samples().iter().any(|&s| s != 0.0),
            "listener outside the zone is unaffected"
        );
    }

    /// A scene exercising every render feature at once: overlapping
    /// emissions at different distances, a far (delayed) source, an
    /// ambient bed with every component, and all three fault kinds.
    fn busy_scene() -> Scene {
        let mut scene = Scene::new(SR, crate::ambient::AmbientProfile::datacenter());
        scene.set_ambient_seed(11);
        for i in 0..5 {
            scene.add(
                Pos::new(0.4 * (i + 1) as f64, 0.1, 0.0),
                Duration::from_millis(120 * i as u64),
                tone(500.0 + 150.0 * i as f64, 400, 62.0),
                format!("sw-{i}"),
            );
        }
        // 17 m away: ~50 ms of flight time pushes it across window edges.
        scene.add(
            Pos::new(17.0, 0.0, 0.0),
            Duration::from_millis(300),
            tone(1800.0, 200, 80.0),
            "far",
        );
        scene.set_faults(
            SceneFaultPlan::new(5)
                .speaker_dropout(
                    "sw-2",
                    Window::between(Duration::ZERO, Duration::from_secs(2)),
                )
                .noise_burst(win(350, 200), 70.0)
                .mic_dead(win(600, 100)),
        );
        scene
    }

    #[test]
    fn windowed_render_matches_full_render_slice() {
        let scene = busy_scene();
        let listener = Pos::new(0.9, -0.3, 0.2);
        let full = scene.render_at(listener, Duration::from_millis(1000));
        for (from, len) in [
            (0u64, 1000u64),
            (0, 130),
            (130, 300),
            (270, 1),
            (555, 445),
            (900, 300),
        ] {
            let w = win(from, len);
            let windowed = scene.render_window(listener, w);
            let (a, b) = w.sample_range(SR);
            let b_in = b.min(full.len());
            assert_eq!(
                &windowed.samples()[..b_in - a],
                &full.samples()[a..b_in],
                "window {from}+{len} ms diverged from the full render"
            );
        }
    }

    #[test]
    fn a_window_from_a_bursts_rounded_end_keeps_its_last_sample() {
        // At 44.1 kHz a burst over [75.5, 453) ms covers samples
        // [round(3329.55), + round(16647.75)) = [3330, 19978), one past
        // round(453 ms) = 19977. A window starting at 453 ms must still
        // carry sample 19977's burst, as the longer render does.
        let mut scene = Scene::quiet(SR);
        scene.set_faults(SceneFaultPlan::new(9).noise_burst(
            Window::between(Duration::from_micros(75_500), Duration::from_millis(453)),
            70.0,
        ));
        let listener = Pos::ORIGIN;
        let whole = scene.render_window(listener, win(300, 300));
        let tail = scene.render_window(listener, win(453, 147));
        let (a, _) = win(453, 147).sample_range(SR);
        let (w0, _) = win(300, 300).sample_range(SR);
        assert_eq!(a, 19_977);
        assert_eq!(tail.samples(), &whole.samples()[a - w0..]);
    }

    #[test]
    fn cursor_chunks_concatenate_to_batch_render() {
        let scene = busy_scene();
        let listener = Pos::new(0.9, -0.3, 0.2);
        let batch = scene.render_at(listener, Duration::from_millis(900));
        // Uneven chunks, including ones that don't land on sample edges.
        let mut cursor = scene.cursor(listener);
        let mut streamed: Vec<f32> = Vec::new();
        for chunk_ms in [70u64, 230, 1, 399, 200] {
            streamed.extend_from_slice(cursor.advance(Duration::from_millis(chunk_ms)).samples());
        }
        assert_eq!(cursor.position(), Duration::from_millis(900));
        assert_eq!(streamed, batch.samples(), "streamed chunks diverged");
    }

    #[test]
    fn extended_render_joins_windows_into_one_render() {
        let scene = busy_scene();
        let listener = Pos::new(0.9, -0.3, 0.2);
        for (from, split, to) in [(0u64, 150u64, 450u64), (270, 420, 721), (555, 556, 1000)] {
            let whole = scene.render_window(listener, win(from, to - from));
            let mut joined = scene.render_window(listener, win(from, split - from));
            scene.extend_render(listener, win(split, to - split), &mut joined);
            assert_eq!(
                joined.samples(),
                whole.samples(),
                "{from}..{split}..{to} ms"
            );
        }
    }

    #[test]
    fn render_mark_holds_until_something_can_reach_the_span() {
        let mut scene = busy_scene();
        let span = win(600, 150);
        let ms = Duration::from_millis;
        let mark = scene.render_mark();
        assert!(scene.renders_unchanged(mark, span));
        // Heard no earlier than it starts: a tone from the span's end on
        // cannot reach it, one starting a nanosecond before can.
        scene.add(Pos::ORIGIN, span.end(), tone(800.0, 50, 60.0), "after");
        assert!(scene.renders_unchanged(mark, span));
        scene.add(
            Pos::ORIGIN,
            span.end() - Duration::from_nanos(1),
            tone(800.0, 50, 60.0),
            "inside",
        );
        assert!(!scene.renders_unchanged(mark, span));
        let mark = scene.render_mark();
        assert!(scene.renders_unchanged(mark, span));
        scene.set_ambient_seed(3);
        assert!(!scene.renders_unchanged(mark, span));
        let mark = scene.render_mark();
        scene.set_faults(SceneFaultPlan::new(1));
        assert!(!scene.renders_unchanged(mark, span));
        // GC up to the span's start keeps it; past it, it may not.
        let mark = scene.render_mark();
        scene.retire_emissions_before(span.from, ms(50));
        assert!(scene.renders_unchanged(mark, span));
        scene.retire_emissions_before(span.from + ms(1), ms(50));
        assert!(!scene.renders_unchanged(mark, span));
        // A clone is another scene: its marks and the original's differ.
        let clone = scene.clone();
        let later = win(900, 150);
        assert!(!clone.renders_unchanged(scene.render_mark(), later));
        assert!(clone.renders_unchanged(clone.render_mark(), later));
    }

    #[test]
    fn tone_memo_shares_arrays_and_drops_unheld_tones() {
        let mut scene = Scene::quiet(SR);
        let ms = Duration::from_millis;
        let a = Tone::new(900.0, ms(50), 0.01);
        let b = Tone::new(900.0, ms(60), 0.01);
        assert_eq!(
            scene.add_tone(Pos::ORIGIN, ms(0), &a, "x"),
            a.render(SR).duration()
        );
        scene.add_tone(Pos::ORIGIN, ms(100), &b, "y");
        scene.add_tone(Pos::ORIGIN, ms(500), &a, "x");
        let e = scene.emissions();
        assert!(Arc::ptr_eq(&e[0].signal, &e[2].signal));
        assert_eq!(e[1].signal.samples(), b.render(SR).samples());
        assert_eq!(scene.tones.len(), 2);
        // The first two emissions retire; `b` goes with them, `a` stays
        // held by the third.
        assert_eq!(scene.retire_emissions_before(ms(400), ms(10)), 2);
        assert_eq!(scene.tones.len(), 1);
        scene.add_tone(Pos::ORIGIN, ms(600), &a, "x");
        let e = scene.emissions();
        assert!(Arc::ptr_eq(&e[0].signal, &e[1].signal));
    }

    #[test]
    fn obs_counters_mirror_scene_activity() {
        let registry = Registry::new();
        let mut scene = Scene::quiet(SR);
        scene.add(Pos::ORIGIN, Duration::ZERO, tone(1000.0, 200, 60.0), "sw-1");
        // Attaching after the fact carries over already-scheduled emissions.
        scene.attach_obs(&registry);
        scene.add(Pos::ORIGIN, Duration::ZERO, tone(2000.0, 200, 60.0), "sw-2");
        scene.set_faults(
            SceneFaultPlan::new(3)
                .speaker_dropout(
                    "sw-1",
                    Window::between(Duration::ZERO, Duration::from_secs(1)),
                )
                .noise_burst(win(50, 50), 65.0)
                .mic_dead(win(120, 40)),
        );
        scene.render_at(Pos::new(0.5, 0.0, 0.0), Duration::from_millis(200));
        let snap = registry.snapshot();
        assert_eq!(snap.counters["mdn_scene_emissions_total"], 2);
        assert_eq!(snap.counters["mdn_scene_muted_emissions_total"], 1);
        assert_eq!(snap.counters["mdn_scene_noise_bursts_total"], 1);
        assert_eq!(snap.counters["mdn_scene_mic_dead_windows_total"], 1);
        let render = &snap.histograms["mdn_stage_ns{stage=\"scene.render\"}"];
        assert_eq!(render.count, 1);
        assert!(render.sum > 0);
    }

    #[test]
    fn ambient_seed_changes_bed() {
        let mut a = Scene::quiet(SR);
        let mut b = Scene::quiet(SR);
        a.set_ambient_seed(1);
        b.set_ambient_seed(2);
        let ra = a.render_at(Pos::ORIGIN, Duration::from_millis(50));
        let rb = b.render_at(Pos::ORIGIN, Duration::from_millis(50));
        assert_ne!(ra.samples(), rb.samples());
    }

    #[test]
    fn incident_peak_bounds_the_render() {
        let mut scene = Scene::quiet(SR);
        scene.add(Pos::ORIGIN, Duration::ZERO, tone(1000.0, 300, 60.0), "a");
        scene.add(
            Pos::new(3.0, 0.0, 0.0),
            Duration::ZERO,
            tone(1100.0, 300, 60.0),
            "b",
        );
        let listener = Pos::new(1.0, 0.5, 0.0);
        let bound = scene.incident_peak_at(listener);
        let out = scene.render_at(listener, Duration::from_millis(300));
        // Coherent-sum bound plus a small ambient allowance covers the
        // rendered peak.
        assert!(
            out.peak() <= bound + spl_to_amplitude(30.0),
            "render peak {} exceeds bound {}",
            out.peak(),
            bound
        );
        // And the bound is tight for a single nearby source: within 2× of
        // the actual peak (ambient and the second, farther source are the
        // slack).
        assert!(bound < 2.5 * out.peak(), "bound {bound} is vacuous");
    }

    #[test]
    fn incident_peak_follows_inverse_distance() {
        let mut scene = Scene::quiet(SR);
        scene.add(Pos::ORIGIN, Duration::ZERO, tone(1000.0, 100, 60.0), "a");
        let near = scene.incident_peak_at(Pos::new(1.0, 0.0, 0.0));
        let far = scene.incident_peak_at(Pos::new(4.0, 0.0, 0.0));
        assert!((near / far - 4.0).abs() < 1e-9, "near {near} far {far}");
    }
}
