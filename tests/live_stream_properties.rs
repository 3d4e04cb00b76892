//! Chunking-invariance of the live listener: however a capture is sliced
//! into streaming chunks — any sequence of sizes from 1 ms to 400 ms — the
//! collapsed events out of [`LiveListener`] must match
//! [`MdnController::decode`] over the whole capture, with every event
//! attributed to the same device binding. This is the contract that lets
//! the controller treat streamed and recorded audio identically.

use mdn_acoustics::medium::Pos;
use mdn_acoustics::mic::Microphone;
use mdn_acoustics::scene::Scene;
use mdn_audio::signal::duration_to_samples;
use mdn_audio::Signal;
use mdn_core::controller::{collapse_events, MdnController, MdnEvent};
use mdn_core::encoder::SoundingDevice;
use mdn_core::freqplan::FrequencyPlan;
use mdn_core::live::LiveListener;
use proptest::prelude::*;
use std::time::Duration;

const SR: u32 = 44_100;
const REFRACTORY: Duration = Duration::from_millis(80);

/// A fixed scene of two devices bound in one controller: "dev" sounds
/// slots 1, 3, 0 at 150 / 600 / 1050 ms (the live module's own test
/// scene), and "dev2" sounds slots 2, 0 at 380 / 820 ms, so tones of both
/// bindings straddle chunk seams.
fn rendered_capture() -> (Signal, MdnController) {
    let mut plan = FrequencyPlan::new(700.0, 1500.0, 60.0);
    let set = plan.allocate("dev", 4).unwrap();
    let set2 = plan.allocate("dev2", 4).unwrap();
    let mut scene = Scene::quiet(SR);
    let mut dev = SoundingDevice::new("dev", set.clone(), Pos::ORIGIN);
    let mut dev2 = SoundingDevice::new("dev2", set2.clone(), Pos::new(0.8, 0.0, 0.0));
    let tones = [
        (0, 1usize, 150u64),
        (0, 3, 600),
        (0, 0, 1050),
        (1, 2, 380),
        (1, 0, 820),
    ];
    for (d, slot, at_ms) in tones {
        let d = if d == 0 { &mut dev } else { &mut dev2 };
        d.emit_slot(
            &mut scene,
            slot,
            Duration::from_millis(at_ms),
            Duration::from_millis(100),
        )
        .unwrap();
    }
    let full = scene.render_at(Pos::new(0.4, 0.0, 0.0), Duration::from_millis(1400));
    let mut ctl = MdnController::new(Microphone::measurement(), Pos::new(0.4, 0.0, 0.0));
    ctl.bind_device("dev", set);
    ctl.bind_device("dev2", set2);
    (full, ctl)
}

fn batch_events(full: &Signal, ctl: &MdnController) -> Vec<MdnEvent> {
    collapse_events(&ctl.decode(full), REFRACTORY)
}

fn live_events(full: &Signal, ctl: MdnController, chunk_ms: &[u64]) -> Vec<MdnEvent> {
    let mut listener = LiveListener::new(ctl, SR);
    let mut events = Vec::new();
    let mut start = 0;
    let mut i = 0;
    while start < full.len() {
        // Cycle through the generated chunk sizes until the capture is
        // fully streamed.
        let len =
            duration_to_samples(Duration::from_millis(chunk_ms[i % chunk_ms.len()]), SR).max(1);
        let end = (start + len).min(full.len());
        events.extend(listener.push(&full.slice(start, end)));
        start = end;
        i += 1;
    }
    events.extend(listener.finish());
    collapse_events(&events, REFRACTORY)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Streaming in chunks of any random size sequence decodes the same
    /// collapsed events as batch decoding: same devices and slots in the
    /// same order, at the same times (within one hop of jitter from
    /// overlap re-analysis).
    #[test]
    fn chunked_streaming_matches_batch_detection(
        chunk_ms in prop::collection::vec(1u64..400, 1..12),
    ) {
        let (full, ctl) = rendered_capture();
        let batch = batch_events(&full, &ctl);
        // The fixed scene must actually decode, both devices included —
        // guards against a vacuous pass if the scene ever changes.
        prop_assert_eq!(
            batch.iter().map(|e| (e.device.as_str(), e.slot)).collect::<Vec<_>>(),
            vec![("dev", 1), ("dev2", 2), ("dev", 3), ("dev2", 0), ("dev", 0)]
        );
        let live = live_events(&full, ctl, &chunk_ms);
        prop_assert_eq!(live.len(), batch.len(), "live {live:?} vs batch {batch:?}");
        for (l, b) in live.iter().zip(&batch) {
            prop_assert_eq!(l.slot, b.slot);
            prop_assert_eq!(&l.device, &b.device);
            let dt = l.time.as_secs_f64() - b.time.as_secs_f64();
            prop_assert!(
                dt.abs() <= 0.026,
                "slot {} at {:?} live vs {:?} batch",
                l.slot, l.time, b.time
            );
        }
    }
}
