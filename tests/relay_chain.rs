//! Multi-hop tone relay (§8 extension) under realistic conditions: chains
//! of up to three hops, symbol preservation, and the comparison that
//! motivates relaying — a distant listener that cannot decode the source
//! directly can decode it through the chain.

use mdn_acoustics::ambient::AmbientProfile;
use mdn_acoustics::Window;
use mdn_acoustics::{medium::Pos, mic::Microphone, scene::Scene};
use mdn_core::controller::MdnController;
use mdn_core::encoder::SoundingDevice;
use mdn_core::freqplan::{FrequencyPlan, FrequencySet};
use mdn_core::relay::ToneRelay;
use std::collections::BTreeSet;
use std::time::Duration;

const SR: u32 = 44_100;
const HOP_M: f64 = 5.0;
const WINDOW: Duration = Duration::from_millis(300);

fn sets(n: usize) -> Vec<FrequencySet> {
    // Relays re-emit symbols that can sound *simultaneously*, so their
    // alphabets use 3× the paper's minimum spacing (60 Hz) — concurrent
    // neighbours at exactly 20 Hz are at the resolvability limit.
    let mut plan = FrequencyPlan::new(500.0, 18_500.0, 60.0);
    (0..n)
        .map(|i| plan.allocate(format!("hop{i}"), 4).unwrap())
        .collect()
}

#[test]
fn three_hop_chain_preserves_every_symbol() {
    let sets = sets(4);
    let mut scene = Scene::quiet(SR);
    let mut source = SoundingDevice::new("src", sets[0].clone(), Pos::ORIGIN);
    // Two symbols in one window.
    source
        .emit_slot(
            &mut scene,
            1,
            Duration::from_millis(40),
            Duration::from_millis(100),
        )
        .unwrap();
    source
        .emit_slot(
            &mut scene,
            3,
            Duration::from_millis(40),
            Duration::from_millis(100),
        )
        .unwrap();

    let mut relays: Vec<ToneRelay> = (0..3)
        .map(|i| {
            ToneRelay::new(
                format!("relay-{i}"),
                sets[i].clone(),
                sets[i + 1].clone(),
                Pos::new(HOP_M * (i + 1) as f64, 0.0, 0.0),
            )
        })
        .collect();

    // Each relay processes the window after its upstream spoke.
    for (i, relay) in relays.iter_mut().enumerate() {
        let heard = relay.relay_window(&mut scene, Window::new(WINDOW * i as u32, WINDOW));
        assert_eq!(
            heard,
            BTreeSet::from([1, 3]),
            "hop {i} lost symbols: {heard:?}"
        );
    }

    // The final listener sits past the last relay, on the last set.
    let mut ctl = MdnController::new(
        Microphone::measurement(),
        Pos::new(HOP_M * 3.0 + 1.0, 0.0, 0.0),
    );
    ctl.bind_device("relay-2", sets[3].clone());
    let events = ctl.listen(
        &scene,
        Window::new(WINDOW * 3, WINDOW + Duration::from_millis(100)),
    );
    let slots: BTreeSet<usize> = events.iter().map(|e| e.slot).collect();
    assert_eq!(
        slots,
        BTreeSet::from([1, 3]),
        "end of chain heard {slots:?}"
    );
}

#[test]
fn relaying_beats_direct_listening_at_distance() {
    let sets = sets(2);
    let far = Pos::new(12.0, 0.0, 0.0);
    let quiet_level = 48.0; // a quiet device in a 45 dB office

    let build_scene = || {
        let mut scene = Scene::new(SR, AmbientProfile::office());
        scene.set_ambient_seed(7);
        scene
    };

    // Direct attempt: source 12 m away, calibrated floor — inaudible.
    let mut scene = build_scene();
    let mut source = SoundingDevice::new("src", sets[0].clone(), Pos::ORIGIN);
    source.level_db = quiet_level;
    let mut direct_ctl = MdnController::new(Microphone::measurement(), far);
    direct_ctl.bind_device("src", sets[0].clone());
    let floor = direct_ctl.capture(&scene, Window::from_start(Duration::from_millis(400)));
    direct_ctl.calibrate(&floor);
    source
        .emit_slot(
            &mut scene,
            2,
            Duration::from_millis(500),
            Duration::from_millis(100),
        )
        .unwrap();
    let direct = direct_ctl.listen(&scene, Window::new(Duration::from_millis(450), WINDOW));
    assert!(
        direct.is_empty(),
        "12 m direct listening unexpectedly worked — relaying unneeded: {direct:?}"
    );

    // Relayed attempt: a calibrated relay sits 2 m from the source and
    // re-speaks at normal level; the far controller decodes it.
    let mut scene = build_scene();
    let mut relay = ToneRelay::new(
        "relay",
        sets[0].clone(),
        sets[1].clone(),
        Pos::new(2.0, 0.0, 0.0),
    );
    relay.calibrate(&scene, Window::from_start(Duration::from_millis(400)));
    let mut source = SoundingDevice::new("src", sets[0].clone(), Pos::ORIGIN);
    source.level_db = quiet_level;
    source
        .emit_slot(
            &mut scene,
            2,
            Duration::from_millis(450),
            Duration::from_millis(100),
        )
        .unwrap();
    let heard = relay.relay_window(&mut scene, Window::new(Duration::from_millis(400), WINDOW));
    assert_eq!(heard, BTreeSet::from([2]), "relay missed the quiet source");
    let mut relayed_ctl = MdnController::new(Microphone::measurement(), far);
    relayed_ctl.bind_device("relay", sets[1].clone());
    let events = relayed_ctl.listen(
        &scene,
        Window::new(
            Duration::from_millis(700),
            WINDOW + Duration::from_millis(100),
        ),
    );
    assert!(
        events.iter().any(|e| e.slot == 2),
        "relayed symbol lost: {events:?}"
    );
}

#[test]
fn relay_counts_symbols_for_capacity_accounting() {
    let sets = sets(2);
    let mut scene = Scene::quiet(SR);
    let mut source = SoundingDevice::new("src", sets[0].clone(), Pos::ORIGIN);
    for (i, slot) in [0usize, 2, 3].into_iter().enumerate() {
        source
            .emit_slot(
                &mut scene,
                slot,
                Duration::from_millis(40 + 5 * i as u64),
                Duration::from_millis(100),
            )
            .unwrap();
    }
    let mut relay = ToneRelay::new(
        "relay",
        sets[0].clone(),
        sets[1].clone(),
        Pos::new(2.0, 0.0, 0.0),
    );
    relay.relay_window(&mut scene, Window::from_start(WINDOW));
    assert_eq!(relay.relayed, 3);
}
