//! §3: "it is possible to support multiple MDN applications
//! simultaneously, as long as each task uses a different set of frequencies
//! and the listening application knows the frequency mappings."
//!
//! Two applications share one room and one microphone: a queue monitor on
//! switch A and a port-knocking FSM on switch B, with tones interleaved in
//! time and overlapping in the capture. Each app must see exactly its own
//! device's events.

use mdn_acoustics::Window;
use mdn_acoustics::{medium::Pos, mic::Microphone, scene::Scene};
use mdn_core::apps::portknock::PortKnockApp;
use mdn_core::apps::queuemon::{QueueBand, QueueMonitor, QueueToneMapper};
use mdn_core::controller::MdnController;
use mdn_core::encoder::SoundingDevice;
use mdn_core::freqplan::FrequencyPlan;
use std::time::Duration;

const SR: u32 = 44_100;

#[test]
fn two_apps_share_the_air_without_crosstalk() {
    let mut plan = FrequencyPlan::audible_default();
    // Disjoint by construction; spread so neither app's set neighbours the
    // other's.
    let queue_set = plan.allocate("switch-a", QueueToneMapper::SLOTS).unwrap();
    plan.allocate("guard-gap", 3).unwrap();
    let knock_set = plan.allocate("switch-b", 3).unwrap();

    let mut scene = Scene::quiet(SR);
    let mut dev_a = SoundingDevice::new("switch-a", queue_set.clone(), Pos::ORIGIN);
    let mut dev_b = SoundingDevice::new("switch-b", knock_set.clone(), Pos::new(1.0, 0.0, 0.0));

    let mut ctl = MdnController::new(Microphone::measurement(), Pos::new(0.5, 0.5, 0.0));
    ctl.bind_device("switch-a", queue_set);
    ctl.bind_device("switch-b", knock_set);

    let mapper = QueueToneMapper::default();
    // Switch A: queue goes Low → Mid → High → Low, one tone per 300 ms.
    for (i, band) in [
        QueueBand::Low,
        QueueBand::Mid,
        QueueBand::High,
        QueueBand::Low,
    ]
    .into_iter()
    .enumerate()
    {
        dev_a
            .emit_slot(
                &mut scene,
                mapper.slot_of(band),
                Duration::from_millis(300 * i as u64),
                Duration::from_millis(100),
            )
            .unwrap();
    }
    // Switch B: the knock sequence 0, 1, 2 — deliberately overlapping
    // switch A's tones in time.
    for (i, slot) in [0usize, 1, 2].into_iter().enumerate() {
        dev_b
            .emit_slot(
                &mut scene,
                slot,
                Duration::from_millis(150 + 300 * i as u64),
                Duration::from_millis(100),
            )
            .unwrap();
    }

    let events = ctl.listen(&scene, Window::from_start(Duration::from_millis(1500)));

    // The queue monitor sees exactly its band sequence.
    let monitor = QueueMonitor::new("switch-a", mapper);
    let bands: Vec<QueueBand> = monitor.reports(&events).iter().map(|r| r.band).collect();
    assert_eq!(
        bands,
        vec![
            QueueBand::Low,
            QueueBand::Mid,
            QueueBand::High,
            QueueBand::Low
        ],
        "queue monitor saw {bands:?}"
    );
    // The High tone plays at t = 600 ms; the detecting frame may start up
    // to one frame early.
    let onset = monitor.congestion_onset(&events).expect("High heard");
    assert!(
        (Duration::from_millis(500)..=Duration::from_millis(750)).contains(&onset),
        "congestion heard at {onset:?}"
    );

    // The knocking app unlocks from its own tones despite the interleaved
    // queue tones.
    let mut app = PortKnockApp::new("switch-b", vec![0, 1, 2], 2222, 1);
    let flow_mod = app.on_events(&events);
    assert!(flow_mod.is_some(), "knock sequence lost in the mix");
    assert!(app.fsm.is_unlocked());
    assert_eq!(app.fsm.resets, 0, "crosstalk caused FSM resets");
}

#[test]
fn plan_exhaustion_is_reported_not_silent() {
    let mut plan = FrequencyPlan::new(500.0, 700.0, 20.0); // 11 slots
    plan.allocate("app-1", 6).unwrap();
    let err = plan.allocate("app-2", 6).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("exhausted"), "unhelpful error: {msg}");
    // And the failed allocation didn't corrupt the plan.
    assert_eq!(plan.available(), 5);
    plan.allocate("app-2-smaller", 5).unwrap();
}
