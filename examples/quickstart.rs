//! Quickstart: the smallest complete Music-Defined Networking loop.
//!
//! A switch is allocated a set of tone frequencies, encodes a management
//! symbol as a tone (through the real Music Protocol wire format and a
//! speaker model), the tone crosses the simulated air, and the MDN
//! controller decodes it back into a `(device, slot)` event.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use mdn_acoustics::Window;
use mdn_acoustics::{medium::Pos, mic::Microphone, scene::Scene};
use mdn_core::controller::MdnController;
use mdn_core::encoder::SoundingDevice;
use mdn_core::freqplan::FrequencyPlan;
use std::time::Duration;

fn main() {
    const SAMPLE_RATE: u32 = 44_100;

    // 1. Plan the spectrum: 20 Hz-spaced slots across the audible band,
    //    with a disjoint set per device (the paper's §3 setup).
    let mut plan = FrequencyPlan::audible_default();
    println!(
        "frequency plan: {} usable slots (paper: ~1000)",
        plan.capacity()
    );
    let set = plan
        .allocate("switch-1", 5)
        .expect("plenty of spectrum left");
    println!(
        "switch-1 owns slots at {:?} Hz",
        set.freqs.iter().map(|f| *f as u32).collect::<Vec<_>>()
    );

    // 2. The acoustic world: a quiet room, the switch's speaker at the
    //    origin, the controller's microphone half a metre away.
    let mut scene = Scene::quiet(SAMPLE_RATE);
    let mut device = SoundingDevice::new("switch-1", set.clone(), Pos::ORIGIN);
    let mut controller = MdnController::new(Microphone::measurement(), Pos::new(0.5, 0.0, 0.0));
    controller.bind_device("switch-1", set);

    // 3. The switch sounds local slot 3 at t = 100 ms. Internally this
    //    marshals a 16-byte Music Protocol frame (the Zodiac-FX→Pi hop),
    //    decodes it, validates it against the speaker's limits, and
    //    schedules the pressure wave.
    device
        .emit(&mut scene, 3, Duration::from_millis(100))
        .expect("slot exists and frequency is in the speaker band");
    println!(
        "switch-1 emitted slot 3 ({} Hz) — {} MP bytes on the wire",
        device.set.freq(3) as u32,
        device.mp_bytes_sent
    );

    // 4. The controller listens and decodes.
    let events = controller.listen(&scene, Window::from_start(Duration::from_millis(300)));
    assert!(!events.is_empty(), "tone should be heard in a quiet room");
    let e = &events[0];
    println!(
        "controller heard: device={} slot={} at t={:.0} ms (magnitude {:.4})",
        e.device,
        e.slot,
        e.time.as_secs_f64() * 1e3,
        e.magnitude
    );
    assert_eq!(e.device, "switch-1");
    assert_eq!(e.slot, 3);
    println!("round trip OK: management symbol delivered over sound.");
}
