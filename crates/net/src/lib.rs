//! # mdn-net — the virtual network testbed
//!
//! A deterministic discrete-event network simulator: the role Mininet (and
//! the Zodiac FX hardware testbed) played in the Music-Defined Networking
//! paper. Hosts generate traffic, switches forward according to
//! match-action flow tables through bounded per-port queues, and links are
//! rate-limited with fixed latency. Everything is reproducible: the event
//! queue breaks ties deterministically and all randomness is seeded.
//!
//! * [`packet`] — packets, 5-tuple flow keys, addressing;
//! * [`flow`] — FNV-1a flow hashing (the §5 heavy-hitter mapping);
//! * [`queue`] — bounded drop-tail FIFOs with occupancy accounting;
//! * [`ftable`] — priority match-action tables with group/split actions;
//! * [`link`] — rate/latency links;
//! * [`node`] — hosts (with traffic generators) and switches;
//! * [`traffic`] — CBR / ramp / Poisson / port-scan generators;
//! * [`sim`] — the deterministic event queue;
//! * [`network`] — the event loop and the tick-driven controller API;
//! * [`topology`] — line / rhomboid / star builders from the paper;
//! * [`stats`] — time series, CDFs and quantiles for the figures;
//! * [`faults`] — scheduled link flaps and switch crash/restart scripts
//!   for chaos scenarios.
//!
//! ```
//! use mdn_net::{network::Network, topology, ftable::{Rule, Match, Action}};
//! use mdn_net::packet::{FlowKey, Ip};
//! use mdn_net::traffic::TrafficPattern;
//! use std::time::Duration;
//!
//! let mut net = Network::new();
//! let t = topology::line(&mut net, 10_000_000, Duration::from_micros(50));
//! net.install_rule(t.s1, Rule {
//!     mat: Match::dst(Ip::v4(10, 0, 0, 2)),
//!     priority: 1,
//!     action: Action::Forward(1),
//! });
//! net.attach_generator(t.h1, TrafficPattern::Cbr {
//!     flow: FlowKey::udp(Ip::v4(10, 0, 0, 1), 1000, Ip::v4(10, 0, 0, 2), 2000),
//!     pps: 100.0,
//!     size: 1000,
//!     start: Duration::ZERO,
//!     stop: Duration::from_secs(1),
//! });
//! net.drain();
//! assert_eq!(net.host(t.h2).rx_packets, 100);
//! ```

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod faults;
pub mod flow;
pub mod ftable;
pub mod link;
pub mod network;
pub mod node;
pub mod packet;
pub mod queue;
pub mod sim;
pub mod stats;
pub mod topology;
pub mod traffic;

pub use faults::{FaultScript, NetFault};
pub use network::{Network, QueueStat, QueueTotals, RunOutcome};
pub use packet::{FlowKey, Ip, Packet, Proto};
pub use sim::NodeId;
