//! Fan-failure detector ablations and failure injection, probing the
//! paper's §7 open questions: how many anomaly types are distinguishable,
//! and what microphone distance still works.

use mdn_acoustics::ambient::AmbientProfile;
use mdn_acoustics::Window;
use mdn_acoustics::{medium::Pos, mic::Microphone, scene::Scene};
use mdn_audio::Signal;
use mdn_core::apps::fanfail::{FanDetectError, FanFailureDetector};
use mdn_core::fan::{FanModel, FanState};
use std::time::Duration;

const SR: u32 = 44_100;
const WINDOW: Duration = Duration::from_secs(2);

fn capture_at(
    ambient: &AmbientProfile,
    state: FanState,
    mic: &Microphone,
    dist_m: f64,
    seed: u64,
) -> Signal {
    let mut scene = Scene::new(SR, ambient.clone());
    scene.set_ambient_seed(seed);
    let fan = FanModel {
        state,
        ..FanModel::default()
    };
    scene.add(
        Pos::ORIGIN,
        Duration::ZERO,
        fan.render(WINDOW, SR, seed ^ 0xFA4),
        "srv",
    );
    mic.capture(&scene.render_window(Pos::new(dist_m, 0.0, 0.0), Window::from_start(WINDOW)))
}

fn calibrated(ambient: &AmbientProfile, mic: &Microphone, dist_m: f64) -> FanFailureDetector {
    let healthy: Vec<Signal> = (0..6)
        .map(|s| capture_at(ambient, FanState::Healthy, mic, dist_m, s))
        .collect();
    let mut det = FanFailureDetector::new();
    det.calibrate(&healthy).expect("calibration");
    det
}

/// Paper open question 1: all three modelled anomalies are distinguishable
/// from healthy, in the quiet office and in the ~80 dB datacenter with the
/// mic 30 cm from the fan.
#[test]
fn all_anomaly_types_flagged_in_both_rooms() {
    let mic = Microphone::measurement();
    for (room, ambient) in [
        ("office", AmbientProfile::office()),
        ("datacenter", AmbientProfile::datacenter()),
    ] {
        let det = calibrated(&ambient, &mic, 0.3);
        for state in [FanState::Off, FanState::WornBearing, FanState::Blocked] {
            let verdict = det.classify(&capture_at(&ambient, state, &mic, 0.3, 321));
            assert!(
                verdict.is_failure(),
                "{room}: {state:?} not flagged (score {})",
                verdict.score()
            );
        }
        let healthy = det.classify(&capture_at(&ambient, FanState::Healthy, &mic, 0.3, 321));
        assert!(!healthy.is_failure(), "{room}: healthy fan false-alarmed");
    }
}

/// Paper open question 2: sweep the microphone distance in the datacenter
/// and find where the fan-off signal disappears into the noise. Close
/// placement works; far placement must *fail toward silence* (missed
/// detection), never toward false alarms.
#[test]
fn datacenter_distance_sweep_close_works_far_fails_safe() {
    let ambient = AmbientProfile::datacenter();
    let mic = Microphone::measurement();
    let mut detect_off = Vec::new();
    let mut false_alarm = Vec::new();
    for &dist in &[0.2, 0.5, 8.0] {
        let det = calibrated(&ambient, &mic, dist);
        let off: Vec<bool> = (50..54)
            .map(|s| {
                det.classify(&capture_at(&ambient, FanState::Off, &mic, dist, s))
                    .is_failure()
            })
            .collect();
        let healthy: Vec<bool> = (60..64)
            .map(|s| {
                det.classify(&capture_at(&ambient, FanState::Healthy, &mic, dist, s))
                    .is_failure()
            })
            .collect();
        detect_off.push((dist, off.iter().filter(|&&v| v).count()));
        false_alarm.push((dist, healthy.iter().filter(|&&v| v).count()));
    }
    // Close range: all off-captures detected (the paper's positive answer).
    assert_eq!(
        detect_off[0].1, 4,
        "close-range detection failed: {detect_off:?}"
    );
    // No false alarms at any distance (calibration adapts the threshold).
    assert!(
        false_alarm.iter().all(|&(_, n)| n == 0),
        "false alarms: {false_alarm:?}"
    );
}

/// A cheap 16 kHz electret is still sufficient at close range — the paper
/// tested "from very cheap to fairly expensive" microphones.
#[test]
fn cheap_microphone_still_detects_fan_off() {
    let ambient = AmbientProfile::office();
    let mic = Microphone::cheap();
    let det = calibrated(&ambient, &mic, 0.3);
    let off = det.classify(&capture_at(&ambient, FanState::Off, &mic, 0.3, 77));
    assert!(
        off.is_failure(),
        "cheap mic missed the failure (score {})",
        off.score()
    );
    let healthy = det.classify(&capture_at(&ambient, FanState::Healthy, &mic, 0.3, 78));
    assert!(!healthy.is_failure());
}

/// Failure injection: calibration rejects insufficient or mismatched
/// baselines instead of producing a garbage detector.
#[test]
fn calibration_input_validation() {
    let ambient = AmbientProfile::office();
    let mic = Microphone::measurement();
    let one = capture_at(&ambient, FanState::Healthy, &mic, 0.3, 1);
    let mut det = FanFailureDetector::new();
    assert_eq!(
        det.calibrate(std::slice::from_ref(&one)),
        Err(FanDetectError::NotEnoughBaseline { got: 1 })
    );
    assert_eq!(
        det.calibrate(&[]),
        Err(FanDetectError::NotEnoughBaseline { got: 0 })
    );
    // A capture of a different length still calibrates (Welch averaging
    // normalizes shape) — but a different sample rate cannot change the
    // bin count because fft_size is fixed, so ShapeMismatch is impossible
    // through the public API. Verify the success path instead.
    let two = capture_at(&ambient, FanState::Healthy, &mic, 0.3, 2);
    assert!(det.calibrate(&[one, two]).is_ok());
    assert!(det.threshold().is_some());
}

/// Scores are reproducible: the same capture scores identically twice.
#[test]
fn scoring_is_deterministic() {
    let ambient = AmbientProfile::office();
    let mic = Microphone::measurement();
    let det = calibrated(&ambient, &mic, 0.3);
    let cap = capture_at(&ambient, FanState::WornBearing, &mic, 0.3, 5);
    assert_eq!(det.score(&cap), det.score(&cap));
}
