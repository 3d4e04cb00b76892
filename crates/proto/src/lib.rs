//! # mdn-proto — control-plane wire formats
//!
//! The two protocols the paper's control loop speaks, with real binary
//! marshaling (the Zodiac FX firmware modification the authors describe is
//! exactly "marshal MP messages onto a port"):
//!
//! * [`mp`] — the Music Protocol: a switch asks its Raspberry Pi to play a
//!   tone `(frequency, duration, intensity)`, as a compact 16-byte frame;
//! * [`openflow`] — a minimal OpenFlow 1.0-style subset (Hello, Echo,
//!   PacketIn, FlowMod, PortStatus) sufficient for everything the paper
//!   does with its SDN controller;
//! * [`wire`] — shared checked big-endian readers/writers;
//! * [`channel`] — in-memory control channels that preserve the full
//!   encode→decode path between controller and switches;
//! * [`controller`] — the OpenFlow controller: a sans-IO
//!   [`controller::Session`] (Hello/Echo handshake, idle probing, a
//!   pluggable [`controller::ControllerApp`] trait with a learning-switch
//!   demo app) served over TCP on `mdn-obs`'s pure-std serve core, and
//!   stepped in-process by the simulation;
//! * [`faults`] — seeded, deterministic frame-level fault injection
//!   (drop, corruption, reordering, delay) attachable to any channel;
//! * [`reliable`] — ARQ machinery over MP (`seq`/`Ack` retransmission
//!   with exponential backoff) and OpenFlow echo liveness probing.
//!
//! ```
//! use mdn_proto::mp::{MpMessage, MpTone};
//! use std::time::Duration;
//!
//! let msg = MpMessage::PlayTone {
//!     seq: 1,
//!     tone: MpTone::from_units(700.0, Duration::from_millis(50), 60.0),
//! };
//! let frame = msg.encode();
//! assert_eq!(MpMessage::decode(frame).unwrap(), msg);
//! ```

#![warn(missing_docs)]

pub mod channel;
pub mod controller;
pub mod faults;
pub mod mp;
pub mod openflow;
pub mod reliable;
pub mod wire;

pub use channel::{ChannelStats, ControlChannel};
pub use controller::{
    ControllerApp, ControllerConfig, ControllerHandle, ControllerServer, ControllerStats, Ledger,
    LearningSwitch, OfClient, OfStreamError, PacketInEvent, Session, SessionError,
};
pub use faults::{DirectionFaults, FaultRng, FaultStats, FaultyQueue};
pub use mp::{MpMessage, MpTone, MpToneError};
pub use openflow::OfMessage;
pub use reliable::{BackoffConfig, EchoMonitor, MpDeliveryStats, MpEndpoint, MpLink, MpReceiver};
pub use wire::WireError;
