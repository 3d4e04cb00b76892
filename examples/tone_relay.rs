//! Multi-hop tone relay (§8's open question, implemented as an extension).
//!
//! A switch's tone can only carry so far through air; a chain of relays —
//! each listening on an upstream frequency set and re-speaking the symbol
//! on its own downstream set — extends reach room by room. This example
//! pushes a management symbol across two hops (~6 m of air) that a direct
//! listener could not decode reliably.
//!
//! ```text
//! cargo run --release --example tone_relay
//! ```

use mdn_acoustics::Window;
use mdn_acoustics::{medium::Pos, mic::Microphone, scene::Scene};
use mdn_core::controller::MdnController;
use mdn_core::encoder::SoundingDevice;
use mdn_core::freqplan::FrequencyPlan;
use mdn_core::relay::ToneRelay;
use std::time::Duration;

const SAMPLE_RATE: u32 = 44_100;

fn main() {
    let mut plan = FrequencyPlan::audible_default();
    let hop0 = plan.allocate("hop0", 4).unwrap();
    let hop1 = plan.allocate("hop1", 4).unwrap();
    let hop2 = plan.allocate("hop2", 4).unwrap();

    let mut scene = Scene::quiet(SAMPLE_RATE);

    // The source switch speaks symbol (slot) 2 at the origin.
    let mut source = SoundingDevice::new("switch", hop0.clone(), Pos::ORIGIN);
    source
        .emit_slot(
            &mut scene,
            2,
            Duration::from_millis(50),
            Duration::from_millis(100),
        )
        .unwrap();
    println!(
        "switch emitted slot 2 on hop0 set ({} Hz)",
        source.set.freq(2) as u32
    );

    // Two relays, 3 m apart each.
    let mut relay_a = ToneRelay::new("relay-a", hop0, hop1.clone(), Pos::new(3.0, 0.0, 0.0));
    let mut relay_b = ToneRelay::new("relay-b", hop1, hop2.clone(), Pos::new(6.0, 0.0, 0.0));

    // Relay A processes the first window, relay B the second.
    let heard_a = relay_a.relay_window(&mut scene, Window::from_start(Duration::from_millis(300)));
    println!("relay-a heard {heard_a:?}, re-spoke on hop1");
    let heard_b = relay_b.relay_window(
        &mut scene,
        Window::new(Duration::from_millis(300), Duration::from_millis(300)),
    );
    println!("relay-b heard {heard_b:?}, re-spoke on hop2");

    // The far controller, 6.5 m from the source, listens only on hop2.
    let mut controller = MdnController::new(Microphone::measurement(), Pos::new(6.5, 0.0, 0.0));
    controller.bind_device("relay-b", hop2);
    let events = controller.listen(
        &scene,
        Window::new(Duration::from_millis(600), Duration::from_millis(400)),
    );
    assert!(!events.is_empty(), "relayed symbol must arrive");
    assert!(
        events.iter().all(|e| e.slot == 2),
        "symbol must be preserved: {events:?}"
    );
    println!(
        "controller at 6.5 m decoded slot {} from {} after 2 hops",
        events[0].slot, events[0].device
    );
    println!(
        "hop latency budget: 2 × (300 ms window + 20 ms processing) = {:?}",
        2 * (Duration::from_millis(300) + relay_a.process_delay)
    );
    println!("multi-hop sound relay: OK");
}
