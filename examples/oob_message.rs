//! An out-of-band management message over sound, end to end and *live*.
//!
//! A switch encodes a 12-byte management payload as a melody (one Music
//! Protocol `PlaySequence` frame), plays it into the room, and a streaming
//! [`LiveListener`] — fed 100 ms microphone chunks, the way a real capture
//! pipeline works — decodes the bytes on the fly.
//!
//! ```text
//! cargo run --release -p music-defined-networking --example oob_message
//! ```

use mdn_acoustics::{medium::Pos, mic::Microphone, scene::Scene};
use mdn_core::controller::{collapse_events, MdnController};
use mdn_core::encoder::SoundingDevice;
use mdn_core::freqplan::FrequencyPlan;
use mdn_core::live::LiveListener;
use mdn_core::sequence::MelodyCodec;
use std::time::Duration;

const SAMPLE_RATE: u32 = 44_100;

fn main() {
    // A 16-tone alphabet (4 bits/symbol) at 60 Hz spacing.
    let mut plan = FrequencyPlan::new(600.0, 2000.0, 60.0);
    let set = plan.allocate("switch-7", 16).unwrap();
    let codec = MelodyCodec::new(16);
    println!(
        "alphabet: 16 tones, {:.0} ms/symbol -> {:.1} bit/s",
        codec.symbol_period().as_secs_f64() * 1e3,
        codec.bits_per_second()
    );

    // The payload: a terse management report.
    let payload = b"FAN2 DEGRADED";
    let symbols = codec.bytes_to_symbols(payload).unwrap();
    println!(
        "payload: {:?} ({} bytes -> {} symbols)",
        String::from_utf8_lossy(payload),
        payload.len(),
        symbols.len()
    );

    // The switch sings it.
    let mut scene = Scene::quiet(SAMPLE_RATE);
    let mut dev = SoundingDevice::new("switch-7", set.clone(), Pos::ORIGIN);
    let start = Duration::from_millis(200);
    let end = codec.emit(&mut dev, &mut scene, &symbols, start).unwrap();
    println!(
        "melody: one {}-byte MP PlaySequence frame, {:.2} s of airtime",
        dev.mp_bytes_sent,
        (end - start).as_secs_f64()
    );

    // A microphone half a metre away captures the room; we feed the
    // listener in 100 ms chunks, as a sound card would deliver them.
    let mic = Microphone::measurement();
    let room = scene.render_at(Pos::new(0.5, 0.0, 0.0), end + Duration::from_millis(300));
    let captured = mic.capture(&room);
    let mut controller = MdnController::new(mic, Pos::new(0.5, 0.0, 0.0));
    controller.bind_device("switch-7", set);
    let mut listener = LiveListener::new(controller, SAMPLE_RATE);
    let chunk = SAMPLE_RATE as usize / 10;
    let mut events = Vec::new();
    let mut fed = 0;
    while fed < captured.len() {
        let to = (fed + chunk).min(captured.len());
        events.extend(listener.push(&captured.slice(fed, to)));
        fed = to;
    }
    events.extend(listener.finish());

    // Collapse frame-level events into symbols, then bytes.
    let tones = collapse_events(&events, Duration::from_millis(56));
    let decoded_symbols: Vec<usize> = tones.iter().map(|e| e.slot).collect();
    let decoded = codec.symbols_to_bytes(&decoded_symbols).unwrap();
    let text = String::from_utf8_lossy(&decoded[..payload.len()]);
    println!("decoded live: {text:?}");
    assert_eq!(&decoded[..payload.len()], payload, "payload corrupted");
    println!("out-of-band message delivered over sound, decoded from a live stream.");
}
