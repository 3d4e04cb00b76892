//! The declarative scenario DSL and unified experiment harness.
//!
//! Every experiment this repo runs — the 600-switch soak, the self-heal
//! chaos scripts, the scale tests, the observability demos — is the
//! same five ingredients: a hall (cells + ambient + speaker hardware), a
//! self-heal loop, a traffic mix, a sonification schedule, and a fault
//! script. This module makes that shape a first-class, serializable
//! value instead of five hand-rolled copies of the same setup code:
//!
//! * [`spec`] — [`ScenarioSpec`], the serde-backed JSON DSL, with typed
//!   validation ([`ScenarioError`]) and overlay-on-default parsing.
//! * [`builder`] — [`ScenarioBuilder`], which lowers a validated spec
//!   into a ready [`crate::eventloop::UnifiedLoop`] with scene faults,
//!   fabric, traffic, scripted link flaps, and an optional in-process
//!   OpenFlow controller.
//! * [`mod@run`] — the stepping loop, the fixed-tick batch reference, the
//!   BENCH-compatible summary JSON, `expect` gates, and [`run::execute`]
//!   which strings the whole experiment together (obs server, tracing,
//!   artifacts, self-scrape).
//! * [`mod@fuzz`] — seeded random specs asserting the standing invariants:
//!   windowed ≡ batch, any-thread-count determinism, no foreign-cell
//!   leaks.
//!
//! Checked-in specs live under `scenarios/` at the workspace root and
//! double as the CI scenario matrix; `src/bin/scenario.rs` is the CLI
//! front-end (`cargo run --release --bin scenario -- scenarios/<f>.json`,
//! or `--fuzz N --seed S`).
//!
//! Specs are input: outside tests no code here may `unwrap`, `expect` or
//! `panic!`; each failure is a typed [`ScenarioError`].

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod builder;
pub mod fuzz;
pub mod run;
pub mod spec;

pub use builder::{BuiltScenario, ScenarioBuilder};
pub use fuzz::{fuzz, FuzzReport};
/// The seeded splitmix64 stream the fuzzer and the benchmark workloads
/// draw from: the workspace's one generator, also behind fault injection.
pub use mdn_obs::SplitMix64;
pub use run::{check_expect, execute, run, run_batch, summary, ScenarioOutcome, ScenarioRun};
pub use spec::{
    AppSpec, ControllerSpec, EmissionSpec, EmitSpec, ExpectSpec, FaultSpec, HallSpec, OutputSpec,
    ScenarioError, ScenarioSpec, SelfHealSpec, TrafficSpec,
};
