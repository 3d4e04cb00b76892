//! The paper's testbed at full scale: "we connected 7 Zodiac FX switches
//! (whose cost is currently under 80 USD) to 7 Raspberry Pis", each with a
//! unique frequency set, identifiable even when sounding simultaneously.

use mdn_acoustics::ambient::AmbientProfile;
use mdn_acoustics::Window;
use mdn_acoustics::{medium::Pos, mic::Microphone, scene::Scene};
use mdn_core::controller::{collapse_events, MdnController};
use mdn_core::encoder::SoundingDevice;
use mdn_core::freqplan::FrequencyPlan;
use std::collections::BTreeSet;
use std::time::Duration;

const SR: u32 = 44_100;
const SWITCHES: usize = 7;

fn build(
    ambient: AmbientProfile,
    spacing: f64,
    slots_per_switch: usize,
) -> (Scene, Vec<SoundingDevice>, MdnController) {
    let hi = 300.0 + spacing * (SWITCHES * slots_per_switch + 2) as f64;
    let mut plan = FrequencyPlan::new(300.0, hi, spacing);
    let scene = Scene::new(SR, ambient);
    // One central microphone; switches arranged along a rack row, 40 cm
    // apart.
    let mut ctl = MdnController::new(Microphone::measurement(), Pos::new(1.2, 0.6, 0.0));
    let mut devices = Vec::new();
    for i in 0..SWITCHES {
        let name = format!("fx-{}", i + 1);
        let set = plan.allocate(&name, slots_per_switch).unwrap();
        ctl.bind_device(&name, set.clone());
        devices.push(SoundingDevice::new(
            &name,
            set,
            Pos::new(0.4 * i as f64, 0.0, 0.0),
        ));
    }
    (scene, devices, ctl)
}

/// All seven switches sound *simultaneously* (60 Hz spacing for concurrent
/// symbols); the controller attributes every tone.
#[test]
fn seven_switches_simultaneously() {
    let (mut scene, mut devices, ctl) = build(AmbientProfile::quiet(), 60.0, 3);
    let mut expected = BTreeSet::new();
    for (i, dev) in devices.iter_mut().enumerate() {
        let slot = i % 3;
        dev.emit_slot(
            &mut scene,
            slot,
            Duration::from_millis(100),
            Duration::from_millis(150),
        )
        .unwrap();
        expected.insert((dev.name.clone(), slot));
    }
    let events = ctl.listen(&scene, Window::from_start(Duration::from_millis(400)));
    let heard: BTreeSet<(String, usize)> =
        events.iter().map(|e| (e.device.clone(), e.slot)).collect();
    assert_eq!(heard, expected, "attribution failed");
}

/// Sequential tones from all seven at the paper's 20 Hz spacing, in office
/// noise, with per-slot calibration — the everyday operating mode.
#[test]
fn seven_switches_sequential_in_office_noise() {
    let (mut scene, mut devices, mut ctl) = build(AmbientProfile::office(), 20.0, 3);
    scene.set_ambient_seed(17);
    let ambient = ctl.capture(&scene, Window::from_start(Duration::from_millis(500)));
    ctl.calibrate(&ambient);
    // Each switch sounds one tone, 250 ms apart.
    let mut sent = Vec::new();
    for (i, dev) in devices.iter_mut().enumerate() {
        let slot = (i + 1) % 3;
        let at = Duration::from_millis(600 + 250 * i as u64);
        dev.emit_slot(&mut scene, slot, at, Duration::from_millis(120))
            .unwrap();
        sent.push((dev.name.clone(), slot));
    }
    let total = Duration::from_millis(600 + 250 * SWITCHES as u64 + 300);
    let events = ctl.listen(&scene, Window::new(Duration::from_millis(500), total));
    let tones = collapse_events(&events, Duration::from_millis(100));
    let decoded: Vec<(String, usize)> = tones.iter().map(|e| (e.device.clone(), e.slot)).collect();
    assert_eq!(decoded, sent, "sequence corrupted");
}

/// The whole testbed fits comfortably inside the audible plan: seven
/// switches with generous per-switch sets leave room for hundreds more.
#[test]
fn plan_capacity_covers_many_testbeds() {
    let mut plan = FrequencyPlan::audible_default();
    for i in 0..SWITCHES {
        plan.allocate(format!("fx-{i}"), 16).unwrap();
    }
    // 7 × 16 = 112 slots gone; most of the band remains.
    assert!(
        plan.available() > 700,
        "only {} slots left",
        plan.available()
    );
}
