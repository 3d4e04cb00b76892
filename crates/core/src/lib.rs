//! # mdn-core — Music-Defined Networking
//!
//! The paper's contribution: orchestrate network management with sound.
//! Network devices encode management state as tones on disjoint frequency
//! sets (the *active* direction), and an MDN controller listening through a
//! microphone decodes those tones into events that drive SDN actions; the
//! same pipeline passively monitors hardware health from the sounds devices
//! already make (the *passive* direction, §7).
//!
//! * [`freqplan`] — 20 Hz-spaced tone slots, disjoint per-device sets,
//!   ~1000-slot audible capacity, the §8 ultrasound extension;
//! * [`encoder`] — device event → Music Protocol frame → speaker → scene;
//! * [`eventloop`] — the unified event-driven control loop: packets,
//!   tone emissions, capture windows, self-heal passes, and faults on
//!   one deterministic `(time, seq)` heap;
//! * [`detector`] — microphone capture → Goertzel tone observations
//!   with noise-floor calibration;
//! * [`controller`] — bindings from frequency sets to devices, capture →
//!   `(device, slot, time)` events, and the one tone extractor the
//!   applications read (`collapse_events` / `device_tones`);
//! * [`cells`] — acoustic cells: spatial frequency reuse across cell
//!   sub-bands and a sharded multi-mic controller, scaling past the
//!   single-microphone ~1000-frequency ceiling;
//! * [`apps`] — the six applications of §4–§7 plus the open-problem
//!   extensions;
//! * [`fan`] — the parametric server-fan model behind Figures 6–7;
//! * [`health`] — the controller's per-device degradation ladder
//!   (Healthy → Degraded → Quarantined) and wire/acoustic path choice;
//! * [`selfheal`] — the self-healing acoustic plane: streaming ambient
//!   re-calibration, dead speaker/mic detection, and live cell
//!   re-planning with plan hot-swap;
//! * [`relay`] — the §8 multi-hop tone relay extension;
//! * [`live`] — a streaming decoder for endless microphone input: chunked
//!   audio in, each chunk's events out, decoded by the controller;
//! * [`ofbridge`] — simulated switches programmed by the OpenFlow
//!   controller session from `mdn-proto::controller`, in-process over a
//!   `ControlChannel`: ships table misses up as `PacketIn`s and applies
//!   returned `FlowMod`s;
//! * [`sequence`] — melodies: symbol strings and raw bytes as timed tone
//!   sequences via MP `PlaySequence` frames.
//!
//! ```
//! use mdn_core::freqplan::FrequencyPlan;
//! use mdn_core::encoder::SoundingDevice;
//! use mdn_core::controller::MdnController;
//! use mdn_acoustics::{scene::Scene, mic::Microphone, medium::Pos, Window};
//! use std::time::Duration;
//!
//! // Allocate a switch five tones, sound one, and decode it.
//! let mut plan = FrequencyPlan::audible_default();
//! let set = plan.allocate("switch-1", 5).unwrap();
//! let mut scene = Scene::quiet(44_100);
//! let mut dev = SoundingDevice::new("switch-1", set.clone(), Pos::ORIGIN);
//! dev.emit(&mut scene, 3, Duration::from_millis(100)).unwrap();
//!
//! let mut ctl = MdnController::new(Microphone::measurement(), Pos::new(0.5, 0.0, 0.0));
//! ctl.bind_device("switch-1", set);
//! let events = ctl.listen(&scene, Window::from_start(Duration::from_millis(300)));
//! assert!(events.iter().all(|e| e.device == "switch-1" && e.slot == 3));
//! ```

#![warn(missing_docs)]

pub mod apps;
pub mod cells;
pub mod controller;
pub mod detector;
pub mod encoder;
pub mod eventloop;
pub mod fan;
pub mod freqplan;
pub mod health;
pub mod live;
pub mod ofbridge;
pub mod relay;
pub mod scenario;
pub mod selfheal;
pub mod sequence;

pub use cells::{CellConfig, CellPlan, ShardedController};
pub use controller::{CellId, MdnController, MdnEvent, ShardEvent};
pub use detector::{DetectorConfig, ToneDetector};
pub use encoder::SoundingDevice;
pub use freqplan::{FrequencyPlan, FrequencySet};
pub use health::{ControlPath, HealthConfig, HealthState, HealthTracker};
pub use ofbridge::{OfAgent, PumpReport};
pub use selfheal::{AmbientEstimator, SelfHealConfig, SelfHealingController};
