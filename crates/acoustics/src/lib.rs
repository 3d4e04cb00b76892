//! # mdn-acoustics — the physical channel for Music-Defined Networking
//!
//! Models the hardware half of the paper's testbed: the speakers wired to
//! each switch's Raspberry Pi, the microphones the MDN controller listens
//! through, the air in between, and the room's ambient noise.
//!
//! * [`speaker`] — speaker response band, 30 ms tone floor, level clamping;
//! * [`mic`] — microphone ADC models (cheap / measurement / ultrasound);
//! * [`medium`] — spherical spreading and propagation delay (what the
//!   renderer applies), plus an air-absorption model it does not apply;
//! * [`ambient`] — datacenter / office / quiet noise beds at calibrated SPL;
//! * [`scene`] — schedule emissions, render or capture at any listener
//!   position;
//! * [`faults`] — injectable acoustic failures: speaker dropouts, mic dead
//!   intervals, noise bursts.
//!
//! ```
//! use mdn_acoustics::{scene::Scene, speaker::{Speaker, ToneRequest}, mic::Microphone, medium::Pos, Window};
//! use std::time::Duration;
//!
//! let mut scene = Scene::quiet(44_100);
//! let speaker = Speaker::cheap();
//! let tone = speaker
//!     .play(ToneRequest { freq_hz: 700.0, duration: Duration::from_millis(50), level_spl: 60.0 }, 44_100)
//!     .unwrap();
//! scene.add(Pos::ORIGIN, Duration::ZERO, tone, "switch-0");
//! let pressure = scene.render_window(Pos::new(0.5, 0.0, 0.0), Window::from_start(Duration::from_millis(60)));
//! let heard = Microphone::measurement().capture(&pressure);
//! assert!(!heard.is_empty());
//! ```

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod ambient;
pub mod faults;
pub mod medium;
pub mod mic;
pub mod scene;
pub mod speaker;

pub use ambient::AmbientProfile;
pub use faults::{SceneFaultPlan, Window};
pub use medium::Pos;
pub use mic::Microphone;
pub use scene::Scene;
pub use speaker::{Speaker, ToneRequest};
