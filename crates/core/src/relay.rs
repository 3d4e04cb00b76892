//! §8 extension — multi-hop tone relay.
//!
//! The paper's evaluation is single-hop: "Practical systems are limited to
//! devices that are placed close enough to each other to transmit sounds
//! without significant signal degradation. [...] A more efficient multi-hop
//! sound transmission would allow greater flexibility in device placement.
//! We leave this as an open question."
//!
//! A [`ToneRelay`] listens for tones in an upstream frequency set — through
//! an [`MdnController`] bound to that set at the relay's position — and
//! re-emits the same local slot in its own downstream set after a
//! processing delay — extending acoustic reach one room at a time, with
//! per-hop latency and loss accounted. The integration tests chain relays
//! and measure end-to-end symbol delivery.
//!
//! **Spacing guidance:** relayed symbols may sound simultaneously (several
//! heard in one window are re-emitted together), so relay alphabets should
//! use ≥3× the paper's 20 Hz minimum slot spacing — concurrent neighbours
//! at exactly 20 Hz sit at the resolvability limit of ~50 ms analysis
//! frames.

use crate::controller::MdnController;
use crate::encoder::{SoundingDevice, DEFAULT_TONE};
use crate::freqplan::FrequencySet;
use mdn_acoustics::medium::Pos;
use mdn_acoustics::mic::Microphone;
use mdn_acoustics::scene::Scene;
use mdn_acoustics::speaker::ToneRequest;
use mdn_audio::signal::Window;
use std::collections::BTreeSet;
use std::time::Duration;

/// One relay hop: hears set A, re-speaks set B.
#[derive(Debug)]
pub struct ToneRelay {
    /// The relay's name (used as its emission label).
    pub name: String,
    /// The upstream set it listens for.
    pub upstream: FrequencySet,
    /// Processing delay between hearing a tone and re-emitting it.
    pub process_delay: Duration,
    /// Listens for `upstream` through a measurement mic at the relay's
    /// position (mic and speaker co-located).
    controller: MdnController,
    device: SoundingDevice,
    /// Symbols relayed so far.
    pub relayed: u64,
}

impl ToneRelay {
    /// Build a relay at `pos` translating `upstream` → `downstream`.
    ///
    /// # Panics
    /// Panics if the two sets have different sizes (slots map one-to-one),
    /// or if the relay's speaker cannot play a downstream frequency.
    pub fn new(
        name: impl Into<String>,
        upstream: FrequencySet,
        downstream: FrequencySet,
        pos: Pos,
    ) -> Self {
        assert_eq!(
            upstream.len(),
            downstream.len(),
            "upstream and downstream sets must be the same size"
        );
        let name = name.into();
        let device = SoundingDevice::new(name.clone(), downstream, pos);
        for &freq_hz in &device.set.freqs {
            let req = ToneRequest {
                freq_hz,
                duration: DEFAULT_TONE,
                level_spl: device.level_db,
            };
            if let Err(e) = device.speaker.shape(req) {
                panic!("downstream set must be playable by the relay's speaker: {e}");
            }
        }
        let mut controller = MdnController::new(Microphone::measurement(), pos);
        controller.bind_device("upstream", upstream.clone());
        Self {
            name,
            upstream,
            process_delay: Duration::from_millis(20),
            controller,
            device,
            relayed: 0,
        }
    }

    /// The downstream set the relay emits on.
    pub fn downstream(&self) -> &FrequencySet {
        &self.device.set
    }

    /// Calibrate the relay's per-slot noise floor from a tone-free capture
    /// at its own position (required in noisy rooms, exactly as for the
    /// controller).
    pub fn calibrate(&mut self, scene: &Scene, w: Window) {
        let capture = self.controller.capture(scene, w);
        self.controller.calibrate(&capture);
    }

    /// Listen to window `w` of the scene and re-emit every distinct
    /// upstream slot heard, `process_delay` after the end of the window.
    /// Returns the slots relayed.
    ///
    /// Hearing is [`MdnController::listen`], pre-roll included, so it
    /// stays O(window) no matter how much scene time has already elapsed.
    pub fn relay_window(&mut self, scene: &mut Scene, w: Window) -> BTreeSet<usize> {
        let heard: BTreeSet<usize> = self
            .controller
            .listen(scene, w)
            .into_iter()
            .map(|e| e.slot)
            .collect();
        let emit_at = w.end() + self.process_delay;
        for (k, &slot) in heard.iter().enumerate() {
            // Stagger re-emissions so simultaneous symbols stay separable
            // in time as well as frequency.
            let at = emit_at + Duration::from_millis(5) * k as u32;
            self.device
                .emit(scene, slot, at)
                .expect("downstream slots were validated at construction");
            self.relayed += 1;
        }
        heard
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::MdnController;
    use crate::freqplan::FrequencyPlan;

    const SR: u32 = 44_100;

    #[test]
    fn single_hop_relay_translates_slot() {
        let mut plan = FrequencyPlan::new(500.0, 3000.0, 20.0);
        let up = plan.allocate("up", 4).unwrap();
        let down = plan.allocate("down", 4).unwrap();

        let mut scene = Scene::quiet(SR);
        // Source speaks upstream slot 2 at the origin.
        let mut source = SoundingDevice::new("source", up.clone(), Pos::ORIGIN);
        source
            .emit(&mut scene, 2, Duration::from_millis(50))
            .unwrap();

        // Relay 2 m away hears it and re-speaks downstream.
        let mut relay = ToneRelay::new("relay", up, down.clone(), Pos::new(2.0, 0.0, 0.0));
        let heard = relay.relay_window(&mut scene, Window::from_start(Duration::from_millis(200)));
        assert_eq!(heard, BTreeSet::from([2]));
        assert_eq!(relay.relayed, 1);

        // A controller near the relay hears the downstream tone.
        let mut ctl = MdnController::new(Microphone::measurement(), Pos::new(2.5, 0.0, 0.0));
        ctl.bind_device("relay", down);
        let events = ctl.listen(
            &scene,
            Window::new(Duration::from_millis(200), Duration::from_millis(300)),
        );
        assert!(!events.is_empty(), "relayed tone not heard");
        assert!(events.iter().all(|e| e.slot == 2));
    }

    #[test]
    fn relay_is_quiet_when_upstream_is_quiet() {
        let mut plan = FrequencyPlan::new(500.0, 3000.0, 20.0);
        let up = plan.allocate("up", 4).unwrap();
        let down = plan.allocate("down", 4).unwrap();
        let mut scene = Scene::quiet(SR);
        let mut relay = ToneRelay::new("relay", up, down, Pos::ORIGIN);
        let heard = relay.relay_window(&mut scene, Window::from_start(Duration::from_millis(200)));
        assert!(heard.is_empty());
        assert_eq!(scene.num_emissions(), 0);
    }

    #[test]
    fn relay_carries_multiple_slots() {
        let mut plan = FrequencyPlan::new(500.0, 3000.0, 20.0);
        let up = plan.allocate("up", 4).unwrap();
        let down = plan.allocate("down", 4).unwrap();
        let mut scene = Scene::quiet(SR);
        let mut source = SoundingDevice::new("source", up.clone(), Pos::ORIGIN);
        source
            .emit(&mut scene, 0, Duration::from_millis(50))
            .unwrap();
        source
            .emit(&mut scene, 3, Duration::from_millis(50))
            .unwrap();
        let mut relay = ToneRelay::new("relay", up, down, Pos::new(1.5, 0.0, 0.0));
        let heard = relay.relay_window(&mut scene, Window::from_start(Duration::from_millis(200)));
        assert_eq!(heard, BTreeSet::from([0, 3]));
    }

    #[test]
    #[should_panic(expected = "same size")]
    fn mismatched_sets_panic() {
        let mut plan = FrequencyPlan::new(500.0, 3000.0, 20.0);
        let up = plan.allocate("up", 4).unwrap();
        let down = plan.allocate("down", 3).unwrap();
        ToneRelay::new("r", up, down, Pos::ORIGIN);
    }

    #[test]
    #[should_panic(expected = "playable by the relay's speaker")]
    fn unplayable_downstream_set_panics_at_construction() {
        // The cheap speaker stops at 15 kHz: a 15.5–17 kHz downstream set
        // must be refused here, not on the first tone the relay hears.
        let up = FrequencyPlan::new(500.0, 3000.0, 60.0)
            .allocate("up", 4)
            .unwrap();
        let down = FrequencyPlan::new(15_500.0, 17_000.0, 60.0)
            .allocate("down", 4)
            .unwrap();
        ToneRelay::new("r", up, down, Pos::ORIGIN);
    }
}
