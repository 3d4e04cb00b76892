//! Server fan failure detection (§7 / Figures 6–7 of the paper).
//!
//! Calibrates the amplitude-differencing detector on a healthy fan in a
//! loud datacenter and a quiet office, then classifies fresh captures in
//! four health states — including the paper's open question of
//! distinguishing multiple anomaly types.
//!
//! ```text
//! cargo run --release --example fan_watchdog
//! ```

use mdn_acoustics::ambient::AmbientProfile;
use mdn_acoustics::Window;
use mdn_acoustics::{medium::Pos, mic::Microphone, scene::Scene};
use mdn_audio::Signal;
use mdn_core::apps::fanfail::FanFailureDetector;
use mdn_core::fan::{FanModel, FanState};
use std::time::Duration;

const SAMPLE_RATE: u32 = 44_100;
const WINDOW: Duration = Duration::from_secs(2);

fn capture(ambient: &AmbientProfile, state: FanState, seed: u64) -> Signal {
    let mut scene = Scene::new(SAMPLE_RATE, ambient.clone());
    scene.set_ambient_seed(seed);
    let fan = FanModel {
        state,
        ..FanModel::default()
    };
    scene.add(
        Pos::ORIGIN,
        Duration::ZERO,
        fan.render(WINDOW, SAMPLE_RATE, seed ^ 0xFA4),
        "server-fan",
    );
    // The paper's answer to "can we hear one server in a datacenter?"
    // requires a closely placed microphone: 30 cm.
    scene.capture(
        &Microphone::measurement(),
        Pos::new(0.3, 0.0, 0.0),
        Window::from_start(WINDOW),
    )
}

fn main() {
    let fan = FanModel::default();
    println!(
        "fan under watch: {} rpm, {} blades -> blade-pass {} Hz\n",
        fan.rpm,
        fan.blades,
        fan.blade_pass_hz() as u32
    );

    for (room, ambient) in [
        ("datacenter (~80 dB SPL)", AmbientProfile::datacenter()),
        ("office (~45 dB SPL)", AmbientProfile::office()),
    ] {
        println!("== {room} ==");
        // Calibrate on six healthy captures.
        let healthy: Vec<Signal> = (0..6)
            .map(|s| capture(&ambient, FanState::Healthy, s))
            .collect();
        let mut det = FanFailureDetector::new();
        det.calibrate(&healthy).expect("calibration");
        println!(
            "calibrated: {} signature bins, alarm threshold {:.1}",
            det.signature_bins().len(),
            det.threshold().unwrap()
        );

        for (label, state) in [
            ("healthy fan   ", FanState::Healthy),
            ("fan stopped   ", FanState::Off),
            ("worn bearing  ", FanState::WornBearing),
            ("blocked intake", FanState::Blocked),
        ] {
            let verdict = det.classify(&capture(&ambient, state, 777));
            println!(
                "  {label}  score {:>8.1}  -> {}",
                verdict.score(),
                if verdict.is_failure() { "ALARM" } else { "ok" }
            );
            // The watchdog must stay quiet for a healthy fan and fire for
            // every anomaly.
            assert_eq!(verdict.is_failure(), state != FanState::Healthy);
        }
        println!();
    }
    println!("fan watchdog: all anomalies flagged, no false alarms.");
}
