//! Export the experiments' soundtracks as WAV files — hear what the
//! network sounds like.
//!
//! Writes to `results/audio/`:
//! * `port_scan.wav` — the Figure 4c sweep (the "logarithmic line");
//! * `queue_tones.wav` — a 500/600/700 Hz congestion episode (Figure 5c);
//! * `knock_sequence.wav` — a three-tone port-knock melody (Figure 3);
//! * `fan_healthy.wav` / `fan_dying.wav` — a server fan, healthy and then
//!   stopping, over datacenter noise (Figures 6–7);
//! * `cheap_thrills_alike.wav` — the deterministic pop-noise track used as
//!   interference in Figures 4b/4d.
//!
//! ```text
//! cargo run --release -p music-defined-networking --example listen
//! ```

use mdn_acoustics::ambient::AmbientProfile;
use mdn_acoustics::Window;
use mdn_acoustics::{medium::Pos, mic::Microphone, scene::Scene};
use mdn_audio::noise::MusicNoise;
use mdn_audio::wav::write_wav;
use mdn_core::apps::queuemon::QueueToneMapper;
use mdn_core::encoder::SoundingDevice;
use mdn_core::fan::{FanModel, FanState};
use mdn_core::freqplan::FrequencyPlan;
use std::path::PathBuf;
use std::time::Duration;

const SR: u32 = 44_100;

fn out_dir() -> PathBuf {
    let dir = PathBuf::from("results/audio");
    std::fs::create_dir_all(&dir).expect("create results/audio");
    dir
}

fn capture(scene: &Scene, secs: f64) -> mdn_audio::Signal {
    scene.capture(
        &Microphone::measurement(),
        Pos::new(0.5, 0.3, 0.0),
        Window::from_start(Duration::from_secs_f64(secs)),
    )
}

fn main() {
    let dir = out_dir();

    // Port scan: 64 ascending slots, 80 ms apart.
    {
        let mut plan = FrequencyPlan::new(500.0, 500.0 + 60.0 * 64.0, 60.0);
        let set = plan.allocate("s1", 64).unwrap();
        let mut scene = Scene::quiet(SR);
        let mut dev = SoundingDevice::new("s1", set, Pos::ORIGIN);
        for slot in 0..64 {
            dev.emit_slot(
                &mut scene,
                slot,
                Duration::from_millis(200 + 80 * slot as u64),
                Duration::from_millis(60),
            )
            .unwrap();
        }
        let sig = capture(&scene, 5.6);
        write_wav(&sig, dir.join("port_scan.wav")).unwrap();
    }

    // Queue tones: low → mid → high → low episode at 300 ms cadence.
    {
        let mapper = QueueToneMapper::default();
        let mut plan = FrequencyPlan::new(500.0, 800.0, 100.0);
        let set = plan.allocate("s1", QueueToneMapper::SLOTS).unwrap();
        let mut scene = Scene::quiet(SR);
        let mut dev = SoundingDevice::new("s1", set, Pos::ORIGIN);
        let queue_lens = [5, 10, 30, 50, 80, 95, 90, 60, 30, 10, 5];
        for (i, &q) in queue_lens.iter().enumerate() {
            let band = mapper.band_of(q);
            dev.emit_slot(
                &mut scene,
                mapper.slot_of(band),
                Duration::from_millis(200 + 300 * i as u64),
                Duration::from_millis(100),
            )
            .unwrap();
        }
        let sig = capture(&scene, 3.8);
        write_wav(&sig, dir.join("queue_tones.wav")).unwrap();
    }

    // The knock melody.
    {
        let mut plan = FrequencyPlan::new(600.0, 1200.0, 60.0);
        let set = plan.allocate("s1", 3).unwrap();
        let mut scene = Scene::quiet(SR);
        let mut dev = SoundingDevice::new("s1", set, Pos::ORIGIN);
        dev.emit_melody(
            &mut scene,
            &[0, 1, 2],
            Duration::from_millis(300),
            Duration::from_millis(150),
            Duration::from_millis(350),
        )
        .unwrap();
        let sig = capture(&scene, 2.2);
        write_wav(&sig, dir.join("knock_sequence.wav")).unwrap();
    }

    // The fan, healthy and dying, in datacenter noise.
    {
        for (name, states) in [
            ("fan_healthy.wav", vec![(FanState::Healthy, 3.0)]),
            (
                "fan_dying.wav",
                vec![(FanState::Healthy, 1.5), (FanState::Off, 1.5)],
            ),
        ] {
            let mut scene = Scene::new(SR, AmbientProfile::datacenter());
            scene.set_ambient_seed(9);
            let mut t = 0.0;
            for (state, secs) in &states {
                let fan = FanModel {
                    state: *state,
                    ..FanModel::default()
                };
                scene.add(
                    Pos::ORIGIN,
                    Duration::from_secs_f64(t),
                    fan.render(Duration::from_secs_f64(*secs), SR, 7),
                    "server",
                );
                t += secs;
            }
            let sig = scene.capture(
                &Microphone::measurement(),
                Pos::new(0.3, 0.0, 0.0),
                Window::from_start(Duration::from_secs_f64(t)),
            );
            write_wav(&sig, dir.join(name)).unwrap();
        }
    }

    // The interference track.
    {
        let sig = MusicNoise::default().render(Duration::from_secs(8), SR);
        write_wav(&sig, dir.join("cheap_thrills_alike.wav")).unwrap();
    }

    for entry in std::fs::read_dir(&dir).unwrap() {
        let entry = entry.unwrap();
        println!(
            "{}  ({} kB)",
            entry.path().display(),
            entry.metadata().unwrap().len() / 1024
        );
    }
    println!("\nPlay them with any audio player — this is what MDN sounds like.");
}
