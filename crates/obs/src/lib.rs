//! # mdn-obs — the observability layer
//!
//! The paper's evaluation (§6, Figures 4–7) is entirely about *observed*
//! behaviour — detection accuracy under noise, in-band telemetry latency,
//! recovery timelines. This crate gives every other `mdn-*` crate one way
//! to report that behaviour:
//!
//! * [`registry`] — a lock-free metrics [`Registry`]: atomic counters,
//!   gauges and fixed-bucket log₂ latency histograms. Handles are cheap
//!   `Arc` clones, safe to update from `std::thread::scope` workers, and
//!   carry a no-op *disabled* mode so an uninstrumented hot path pays
//!   nothing (not even a clock read).
//! * [`mod@span`] — lightweight span guards ([`span!`]) that record per-stage
//!   wall time into a histogram when dropped: the capture → window →
//!   Goertzel/FFT → local-max → event pipeline, per-queue testbed hops.
//! * [`export`] — a Prometheus text-format dump and a JSON
//!   [`Snapshot`] (same spirit as the `BENCH_*.json` summaries).
//! * [`journal`] — a bounded ring-buffer event journal holding the last N
//!   health/fault events, with an overflow counter instead of
//!   unbounded growth.
//! * [`trace`] — causal tracing: a deterministic [`TraceId`] per
//!   scheduled tone, typed [`TraceSpan`]s for every pipeline hop it
//!   takes (including the negative `missed` → health-penalty → replan
//!   chain), collected in a bounded [`TraceSink`] and exportable as
//!   Chrome trace-event / Perfetto JSON.
//! * [`serve`] — the one pure-std TCP serve core (bind, one accept
//!   thread, per-connection deadlines and handler threads, one shutdown
//!   path) under both the scrape server and `mdn-proto`'s OpenFlow
//!   controller front-end.
//! * [`http`] — a std-only scrape server ([`ObsServer`]) putting
//!   `/metrics`, `/snapshot` and `/trace?since=` on the serve core, so
//!   a live soak can be watched from `curl`.
//! * [`rng`] — the workspace's one seeded random stream, [`SplitMix64`],
//!   and its stateless [`splitmix64`] mixer.
//!
//! ```
//! use mdn_obs::Registry;
//!
//! let registry = Registry::new();
//! let frames = registry.counter("mdn_detect_frames_total", &[]);
//! frames.add(3);
//! {
//!     let _span = mdn_obs::span!(registry, "detect.goertzel_bank");
//!     // ... hot work; wall time lands in the stage histogram on drop ...
//! }
//! let snap = registry.snapshot();
//! assert_eq!(snap.counters["mdn_detect_frames_total"], 3);
//! assert!(registry.prometheus().contains("mdn_detect_frames_total 3"));
//!
//! // Disabled mode: identical call sites, zero work.
//! let off = Registry::disabled();
//! off.counter("x_total", &[]).inc();
//! assert!(off.snapshot().counters.is_empty());
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod export;
pub mod http;
pub mod journal;
pub mod registry;
mod ring;
pub mod rng;
pub mod serve;
pub mod span;
pub mod trace;

pub use config::ConfigError;
pub use export::{HistogramSnapshot, Snapshot};
pub use http::{ObsServer, ObsServerHandle};
pub use journal::{Journal, JournalEvent};
pub use registry::{Counter, Gauge, Histogram, Registry};
pub use rng::{splitmix64, SplitMix64};
pub use span::SpanTimer;
pub use trace::{chrome_trace_json, SpanKind, TraceId, TraceSink, TraceSpan};
