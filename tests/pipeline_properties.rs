//! End-to-end properties of the whole acoustic pipeline: for any
//! well-formed tone schedule (slots spaced ≥60 Hz, emissions separated in
//! time, reasonable levels and distances), encode → air → capture → decode
//! recovers exactly the schedule. This is the contract every MDN
//! application builds on.

use mdn_acoustics::Window;
use mdn_acoustics::{medium::Pos, mic::Microphone, scene::Scene};
use mdn_core::controller::{collapse_events, MdnController};
use mdn_core::encoder::SoundingDevice;
use mdn_core::freqplan::FrequencyPlan;
use proptest::prelude::*;
use std::time::Duration;

const SR: u32 = 44_100;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any sequential schedule of slots decodes exactly, in order.
    #[test]
    fn sequential_schedules_always_decode(
        slots in prop::collection::vec(0usize..6, 1..8),
        gap_ms in 250u64..500,
        level_db in 55.0f64..75.0,
        mic_x in 0.2f64..1.5,
        band_lo in 400.0f64..2_000.0,
    ) {
        let mut plan = FrequencyPlan::new(band_lo, band_lo + 60.0 * 8.0, 60.0);
        let set = plan.allocate("dev", 6).unwrap();
        let mut scene = Scene::quiet(SR);
        let mut dev = SoundingDevice::new("dev", set.clone(), Pos::ORIGIN);
        dev.level_db = level_db;
        for (i, &slot) in slots.iter().enumerate() {
            dev.emit_slot(
                &mut scene,
                slot,
                Duration::from_millis(100 + gap_ms * i as u64),
                Duration::from_millis(100),
            )
            .unwrap();
        }
        let mut ctl = MdnController::new(Microphone::measurement(), Pos::new(mic_x, 0.0, 0.0));
        ctl.bind_device("dev", set);
        let total = Duration::from_millis(100 + gap_ms * slots.len() as u64 + 300);
        let events = ctl.listen(&scene, Window::from_start(total));
        let decoded: Vec<usize> = collapse_events(&events, Duration::from_millis(150))
            .iter()
            .map(|e| e.slot)
            .collect();
        prop_assert_eq!(decoded, slots);
    }

    /// Two devices with disjoint sets never cross-attribute, whatever the
    /// interleaving.
    #[test]
    fn attribution_never_crosses_devices(
        a_slot in 0usize..4,
        b_slot in 0usize..4,
        offset_ms in 0u64..400,
    ) {
        let mut plan = FrequencyPlan::new(800.0, 2000.0, 60.0);
        let set_a = plan.allocate("a", 4).unwrap();
        let set_b = plan.allocate("b", 4).unwrap();
        let mut scene = Scene::quiet(SR);
        let mut dev_a = SoundingDevice::new("a", set_a.clone(), Pos::ORIGIN);
        let mut dev_b = SoundingDevice::new("b", set_b.clone(), Pos::new(0.8, 0.0, 0.0));
        dev_a.emit_slot(&mut scene, a_slot, Duration::from_millis(100), Duration::from_millis(120)).unwrap();
        dev_b.emit_slot(
            &mut scene,
            b_slot,
            Duration::from_millis(100 + offset_ms),
            Duration::from_millis(120),
        ).unwrap();
        let mut ctl = MdnController::new(Microphone::measurement(), Pos::new(0.4, 0.4, 0.0));
        ctl.bind_device("a", set_a);
        ctl.bind_device("b", set_b);
        let events = ctl.listen(&scene, Window::from_start(Duration::from_millis(900)));
        prop_assert!(!events.is_empty());
        for e in &events {
            let expected = if e.device == "a" { a_slot } else { b_slot };
            prop_assert_eq!(e.slot, expected, "cross-attribution: {:?}", e);
        }
        // Both devices heard.
        prop_assert!(events.iter().any(|e| e.device == "a"));
        prop_assert!(events.iter().any(|e| e.device == "b"));
    }

    /// Decoding is deterministic: the same scene decodes identically twice.
    #[test]
    fn decoding_is_deterministic(slot in 0usize..4, seed in 0u64..100) {
        let mut plan = FrequencyPlan::new(900.0, 1500.0, 60.0);
        let set = plan.allocate("dev", 4).unwrap();
        let mut scene = Scene::new(SR, mdn_acoustics::AmbientProfile::office());
        scene.set_ambient_seed(seed);
        let mut dev = SoundingDevice::new("dev", set.clone(), Pos::ORIGIN);
        dev.emit_slot(&mut scene, slot, Duration::from_millis(100), Duration::from_millis(100)).unwrap();
        let mut ctl = MdnController::new(Microphone::measurement(), Pos::new(0.5, 0.0, 0.0));
        ctl.bind_device("dev", set);
        let run = || ctl.listen(&scene, Window::from_start(Duration::from_millis(400)));
        prop_assert_eq!(run(), run());
    }
}
