//! Umbrella crate for the Music-Defined Networking reproduction.
//!
//! Re-exports the workspace crates so that examples and integration tests
//! (and downstream users who want a single dependency) can reach the whole
//! stack through one name:
//!
//! ```
//! use music_defined_networking as mdn;
//! let plan = mdn::core::freqplan::FrequencyPlan::audible_default();
//! assert!(plan.capacity() >= 900);
//! ```
//!
//! The individual layers, bottom-up:
//!
//! * [`audio`] — DSP substrate: signals, synthesis, FFT, spectrograms, mel
//!   scale, Goertzel tone detection, noise generators.
//! * [`acoustics`] — the physical channel: speakers, microphones, air
//!   (distance attenuation), ambient noise profiles, acoustic scenes.
//! * [`net`] — the virtual network testbed: a deterministic discrete-event
//!   simulator with hosts, switches, queues, links, flow tables and traffic
//!   generators (the role Mininet played in the paper).
//! * [`proto`] — control-plane wire formats: the paper's Music Protocol and
//!   a minimal OpenFlow 1.0-style message subset.
//! * [`core`] — the paper's contribution: frequency planning, tone
//!   encoding/detection, the MDN controller, and the six applications from
//!   the paper (§4–§7) plus the extensions it proposes.

pub use mdn_acoustics as acoustics;
pub use mdn_audio as audio;
pub use mdn_core as core;
pub use mdn_net as net;
pub use mdn_proto as proto;

/// The types most programs need, in one import.
///
/// ```
/// use music_defined_networking::prelude::*;
/// use std::time::Duration;
///
/// let mut plan = FrequencyPlan::audible_default();
/// let set = plan.allocate("switch-1", 3).unwrap();
/// let mut scene = Scene::quiet(44_100);
/// let mut dev = SoundingDevice::new("switch-1", set.clone(), Pos::ORIGIN);
/// dev.emit(&mut scene, 1, Duration::from_millis(50)).unwrap();
/// let mut ctl = MdnController::new(Microphone::measurement(), Pos::new(0.5, 0.0, 0.0));
/// ctl.bind_device("switch-1", set);
/// assert!(!ctl.listen(&scene, Window::from_start(Duration::from_millis(200))).is_empty());
/// ```
pub mod prelude {
    pub use mdn_acoustics::{
        ambient::AmbientProfile, medium::Pos, mic::Microphone, scene::Scene, speaker::Speaker,
        Window,
    };
    pub use mdn_audio::Signal;
    pub use mdn_core::{
        cells::{CellConfig, CellPlan, ShardedController},
        controller::{
            collapse_events, merge_event_streams, CellId, MdnController, MdnEvent, ShardEvent,
        },
        detector::{DetectorConfig, ToneDetector},
        encoder::SoundingDevice,
        freqplan::{FrequencyPlan, FrequencySet},
    };
    pub use mdn_net::{
        ftable::{Action, Match, Rule},
        network::{Network, RunOutcome},
        packet::{FlowKey, Ip, Packet, Proto},
        topology,
        traffic::TrafficPattern,
    };
    pub use mdn_proto::{channel::ControlChannel, mp::MpMessage, openflow::OfMessage};
}
