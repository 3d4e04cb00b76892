//! Live (streaming) listening.
//!
//! Everything else in this crate analyzes captured buffers after the fact —
//! fine for experiments, but a deployed MDN controller listens to an
//! endless microphone stream and must produce events as tones happen. A
//! [`LiveListener`] is a synchronous streaming decoder around an
//! [`MdnController`]: audio arrives in arbitrary-sized chunks, a carry-over
//! buffer preserves detector frames across chunk boundaries, and each
//! chunk returns the events it decided, decoded by
//! [`MdnController::decode`] exactly as a batch capture would be.
//!
//! In simulation the stream comes from a
//! [`SceneCursor`]: [`LiveListener::pump`]
//! renders the next window of the scene into the cursor's reusable scratch
//! buffer and decodes it in place, so an endless closed loop costs
//! O(chunk) per tick instead of re-rendering the scene from zero.

use crate::controller::{MdnController, MdnEvent};
use mdn_acoustics::scene::SceneCursor;
use mdn_audio::signal::duration_to_samples;
use mdn_audio::Signal;
use std::time::Duration;

/// A streaming decoder: chunks in, the events each chunk decided out.
#[derive(Debug)]
pub struct LiveListener {
    controller: MdnController,
    sample_rate: u32,
    /// Detector frame and hop, in samples.
    frame: usize,
    hop: usize,
    /// How many samples the carry-over keeps behind the newest chunk.
    carry_len: usize,
    carry: Signal,
    /// Absolute sample index of `carry[0]` in the stream.
    carry_start: u64,
    /// Absolute sample index up to which frame decisions are final.
    /// Each frame is *decided exactly once*, at the first analysis where
    /// both its neighbouring frames are present in the buffer (the
    /// detector's splatter gate looks one frame to each side). The newest
    /// complete frame is therefore deferred by one hop and decided on the
    /// next chunk; [`LiveListener::finish`] decides the tail.
    decided_until: Option<u64>,
    samples_pushed: u64,
}

impl LiveListener {
    /// A listener decoding a `sample_rate` stream with `controller`, whose
    /// bindings name the devices and slots of the returned events.
    ///
    /// # Panics
    /// Panics if the controller has no device bound.
    pub fn new(controller: MdnController, sample_rate: u32) -> Self {
        let config = *controller
            .detector()
            .expect("bind devices before streaming")
            .config();
        // Frames are `frame` long with `hop` spacing. The carry-over keeps
        // a little more than one full frame so that (a) a tone spanning a
        // chunk boundary lands in a complete frame, and (b) the detector's
        // neighbouring-frame gate still sees the loud frame next to a
        // boundary frame (otherwise tone-tail splatter ghosts appear at
        // chunk edges). Re-analyzed overlap frames produce duplicate
        // events at identical times, which `collapse_events` merges.
        let frame = duration_to_samples(config.frame, sample_rate).max(1);
        let hop = duration_to_samples(config.hop, sample_rate).max(1);
        Self {
            controller,
            sample_rate,
            frame,
            hop,
            carry_len: (frame + 2 * hop).div_ceil(hop) * hop,
            carry: Signal::empty(sample_rate),
            carry_start: 0,
            decided_until: None,
            samples_pushed: 0,
        }
    }

    /// The stream's sample rate.
    pub fn sample_rate(&self) -> u32 {
        self.sample_rate
    }

    /// Total stream time pushed so far.
    pub fn pushed(&self) -> Duration {
        Duration::from_secs_f64(self.samples_pushed as f64 / self.sample_rate as f64)
    }

    /// Decode one captured chunk and return the events it decided, with
    /// stream-absolute times. Deduplication across overlapping frames is
    /// the consumer's job, exactly as for batch listening — use
    /// [`crate::controller::collapse_events`].
    ///
    /// # Panics
    /// Panics if the chunk's sample rate differs from the listener's.
    pub fn push(&mut self, chunk: &Signal) -> Vec<MdnEvent> {
        assert_eq!(
            chunk.sample_rate(),
            self.sample_rate,
            "chunk sample rate mismatch"
        );
        self.samples_pushed += chunk.len() as u64;
        let mut buf = std::mem::replace(&mut self.carry, Signal::empty(self.sample_rate));
        buf.append(chunk);
        // Frames fully decidable now: all complete frames except the
        // newest (which lacks its right-context frame).
        let complete = if buf.len() >= self.frame {
            (buf.len() - self.frame) / self.hop + 1
        } else {
            0
        };
        let events = if complete >= 2 {
            let until = self.carry_start + ((complete - 2) * self.hop) as u64;
            self.decide(&buf, until)
        } else {
            Vec::new()
        };
        // Consume whole hops, keeping at least `carry_len` behind, so the
        // overlap re-analysis reproduces the same frame grid and undecided
        // frames keep their left context.
        let keep_from = if buf.len() > self.carry_len {
            (buf.len() - self.carry_len) / self.hop * self.hop
        } else {
            0
        };
        self.carry = buf.slice(keep_from, buf.len());
        self.carry_start += keep_from as u64;
        events
    }

    /// Render the next `len` of the cursor's scene and decode it — the
    /// glue between the windowed scene renderer and the streaming
    /// detector. The cursor reuses its scratch buffer, so each tick renders
    /// only `len` of audio no matter how much stream time has already
    /// elapsed.
    ///
    /// # Panics
    /// Panics if the cursor's scene sample rate differs from the
    /// listener's.
    pub fn pump(&mut self, cursor: &mut SceneCursor<'_>, len: Duration) -> Vec<MdnEvent> {
        self.push(cursor.advance(len))
    }

    /// Close the stream and decide the deferred tail (no right context —
    /// exactly like the end of a batch capture). Returns the tail's events.
    pub fn finish(mut self) -> Vec<MdnEvent> {
        let carry = std::mem::replace(&mut self.carry, Signal::empty(self.sample_rate));
        self.decide(&carry, u64::MAX)
    }

    /// Decode `buf` (which starts at stream sample `carry_start`) and keep
    /// the events of frames not yet decided and starting at or before
    /// `until`; those frames are then final.
    fn decide(&mut self, buf: &Signal, until: u64) -> Vec<MdnEvent> {
        let sr = self.sample_rate as f64;
        let offset = Duration::from_secs_f64(self.carry_start as f64 / sr);
        let events = self
            .controller
            .decode(buf)
            .into_iter()
            .filter(|e| {
                let frame_abs = self.carry_start + (e.time.as_secs_f64() * sr).round() as u64;
                self.decided_until.is_none_or(|w| frame_abs > w) && frame_abs <= until
            })
            .map(|mut e| {
                e.time += offset;
                e
            })
            .collect();
        self.decided_until = Some(self.decided_until.map_or(until, |w| w.max(until)));
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::collapse_events;
    use crate::encoder::SoundingDevice;
    use crate::freqplan::{FrequencyPlan, FrequencySet};
    use mdn_acoustics::medium::Pos;
    use mdn_acoustics::mic::Microphone;
    use mdn_acoustics::scene::Scene;

    const SR: u32 = 44_100;

    fn scene_with_tones() -> (Scene, FrequencySet, Vec<(usize, Duration)>) {
        let mut plan = FrequencyPlan::new(700.0, 1500.0, 60.0);
        let set = plan.allocate("dev", 4).unwrap();
        let mut scene = Scene::quiet(SR);
        let mut dev = SoundingDevice::new("dev", set.clone(), Pos::ORIGIN);
        let tones = vec![
            (1usize, Duration::from_millis(150)),
            (3, Duration::from_millis(600)),
            (0, Duration::from_millis(1050)),
        ];
        for &(slot, at) in &tones {
            dev.emit_slot(&mut scene, slot, at, Duration::from_millis(100))
                .unwrap();
        }
        (scene, set, tones)
    }

    fn controller(set: FrequencySet) -> MdnController {
        let mut ctl = MdnController::new(Microphone::measurement(), Pos::ORIGIN);
        ctl.bind_device("dev", set);
        ctl
    }

    fn stream_and_collect(chunk_ms: u64) -> Vec<MdnEvent> {
        let (scene, set, _) = scene_with_tones();
        let full = scene.render_at(Pos::new(0.4, 0.0, 0.0), Duration::from_millis(1400));
        let mut listener = LiveListener::new(controller(set), SR);
        let chunk_len = duration_to_samples(Duration::from_millis(chunk_ms), SR);
        let mut events = Vec::new();
        let mut start = 0;
        while start < full.len() {
            let end = (start + chunk_len).min(full.len());
            events.extend(listener.push(&full.slice(start, end)));
            start = end;
        }
        events.extend(listener.finish());
        collapse_events(&events, Duration::from_millis(80))
    }

    #[test]
    fn live_stream_decodes_all_tones() {
        let events = stream_and_collect(200);
        let decoded: Vec<usize> = events.iter().map(|e| e.slot).collect();
        assert_eq!(decoded, vec![1, 3, 0], "events: {events:?}");
    }

    #[test]
    fn tiny_chunks_spanning_frames_still_decode() {
        // 10 ms chunks are much shorter than the 50 ms analysis frame; the
        // carry buffer must stitch them together.
        let events = stream_and_collect(10);
        let decoded: Vec<usize> = events.iter().map(|e| e.slot).collect();
        assert_eq!(decoded, vec![1, 3, 0], "events: {events:?}");
    }

    #[test]
    fn event_times_are_stream_absolute() {
        let events = stream_and_collect(137); // awkward chunk size on purpose
        assert_eq!(events.len(), 3);
        let expect = [0.15f64, 0.6, 1.05];
        for (e, &want) in events.iter().zip(&expect) {
            let got = e.time.as_secs_f64();
            assert!(
                (got - want).abs() < 0.08,
                "event at {got}, expected ≈{want}"
            );
        }
    }

    #[test]
    fn matches_batch_detection() {
        let (scene, set, _) = scene_with_tones();
        let full = scene.render_at(Pos::new(0.4, 0.0, 0.0), Duration::from_millis(1400));
        let batch: Vec<usize> =
            collapse_events(&controller(set).decode(&full), Duration::from_millis(80))
                .iter()
                .map(|e| e.slot)
                .collect();
        let live: Vec<usize> = stream_and_collect(250).iter().map(|e| e.slot).collect();
        assert_eq!(batch, live);
    }

    #[test]
    fn mid_stream_events_plus_finish_equal_one_shot() {
        // Events come back chunk by chunk: the first half's push already
        // returns its tones, and the pushes plus the tail from `finish`
        // are the one-shot decode of the whole capture, event for event.
        let (scene, set, _) = scene_with_tones();
        let full = scene.render_at(Pos::new(0.4, 0.0, 0.0), Duration::from_millis(1400));
        let one_shot = controller(set.clone()).decode(&full);

        let mut listener = LiveListener::new(controller(set), SR);
        let half = full.len() / 2;
        let mut all = listener.push(&full.slice(0, half));
        let early: Vec<usize> = collapse_events(&all, Duration::from_millis(80))
            .iter()
            .map(|e| e.slot)
            .collect();
        assert_eq!(early, vec![1, 3], "first half decides its own tones");
        all.extend(listener.push(&full.slice(half, full.len())));
        all.extend(listener.finish());
        assert_eq!(all.len(), one_shot.len(), "{all:?} vs {one_shot:?}");
        for (s, b) in all.iter().zip(&one_shot) {
            // Stream-absolute times add the chunk offset, so they may
            // differ from the batch time by a nanosecond of rounding.
            assert!(
                s.time.abs_diff(b.time) <= Duration::from_nanos(1),
                "{s:?} vs {b:?}"
            );
            assert_eq!(
                (&s.device, s.slot, s.magnitude),
                (&b.device, b.slot, b.magnitude)
            );
        }
    }

    #[test]
    fn cursor_pump_matches_chunked_stream() {
        // The closed-loop path (SceneCursor::advance → pump) must decode
        // exactly what pushing pre-rendered slices of the full render does.
        let (scene, set, _) = scene_with_tones();
        let mut listener = LiveListener::new(controller(set), SR);
        let mut cursor = scene.cursor(Pos::new(0.4, 0.0, 0.0));
        let total = Duration::from_millis(1400);
        let mut events = Vec::new();
        while cursor.position() < total {
            events.extend(listener.pump(&mut cursor, Duration::from_millis(200)));
        }
        assert_eq!(listener.pushed(), total);
        events.extend(listener.finish());
        let decoded: Vec<usize> = collapse_events(&events, Duration::from_millis(80))
            .iter()
            .map(|e| e.slot)
            .collect();
        assert_eq!(decoded, vec![1, 3, 0], "events: {events:?}");
    }

    #[test]
    fn silence_stream_is_quiet() {
        let mut plan = FrequencyPlan::new(700.0, 1500.0, 60.0);
        let set = plan.allocate("dev", 4).unwrap();
        let mut listener = LiveListener::new(controller(set), SR);
        for _ in 0..5 {
            assert!(listener
                .push(&Signal::silence(Duration::from_millis(100), SR))
                .is_empty());
        }
        assert!(listener.finish().is_empty());
    }

    #[test]
    #[should_panic(expected = "sample rate mismatch")]
    fn wrong_rate_chunk_panics() {
        let mut plan = FrequencyPlan::new(700.0, 1500.0, 60.0);
        let set = plan.allocate("dev", 2).unwrap();
        let mut listener = LiveListener::new(controller(set), SR);
        listener.push(&Signal::silence(Duration::from_millis(10), 48_000));
    }
}
