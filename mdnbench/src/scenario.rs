//! The untraced scenario run: `ScenarioBuilder::new` + `build`, then
//! `UnifiedLoop::step` window by window, with each window-closing step
//! timed on its own.

use crate::workloads::window_emissions;
use mdn_core::controller::ShardEvent;
use mdn_core::eventloop::{Step, UnifiedLoop};
use mdn_core::scenario::{ScenarioBuilder, ScenarioSpec};
use mdn_net::node::Node;
use mdn_net::NodeId;
use mdn_obs::Registry;
use std::time::{Duration, Instant};

/// FNV-1a, 64 bit: the digest of per-window outcomes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) -> &mut Self {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    fn str(&mut self, s: &str) -> &mut Self {
        self.bytes(s.as_bytes()).bytes(&[0])
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Hash of one window's outcome: decoded events (cell, device, slot,
/// time), heard and missed devices, and the evacuated cell.
fn window_hash(
    events: &[ShardEvent],
    heard: &[String],
    missed: &[String],
    replanned: Option<usize>,
) -> u64 {
    let mut h = Fnv::new();
    h.u64(events.len() as u64);
    for e in events {
        h.u64(e.shard as u64)
            .str(&e.event.device)
            .u64(e.event.slot as u64)
            .u64(e.event.time.as_nanos() as u64);
    }
    h.u64(heard.len() as u64);
    for d in heard {
        h.str(d);
    }
    h.u64(missed.len() as u64);
    for d in missed {
        h.str(d);
    }
    h.u64(replanned.map_or(u64::MAX, |c| c as u64));
    h.finish()
}

/// A run's deterministic outcome, the thing the correctness check
/// compares.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Outcome {
    /// Per-window outcome hashes, in window order.
    pub windows: Vec<u64>,
    /// `(window index, evacuated cell)` for every replan.
    pub replans: Vec<(usize, usize)>,
    /// Tones scheduled.
    pub expected: u64,
    /// Tones heard.
    pub heard: u64,
    /// Tone emissions fired.
    pub tone_events: u64,
    /// Events through the unified queue (untraced runs only).
    pub events_total: u64,
    /// Packets delivered (untraced runs only).
    pub delivered: u64,
    /// Packets dropped, every cause (untraced runs only).
    pub dropped: u64,
}

impl Outcome {
    pub fn fold(
        &mut self,
        events: &[ShardEvent],
        heard: &[String],
        missed: &[String],
        replanned: Option<usize>,
    ) {
        if let Some(cell) = replanned {
            self.replans.push((self.windows.len(), cell));
        }
        self.expected += (heard.len() + missed.len()) as u64;
        self.heard += heard.len() as u64;
        self.windows
            .push(window_hash(events, heard, missed, replanned));
    }

    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for &w in &self.windows {
            h.u64(w);
        }
        h.finish()
    }

    pub fn availability(&self) -> f64 {
        if self.expected == 0 {
            1.0
        } else {
            self.heard as f64 / self.expected as f64
        }
    }

    pub fn replans_text(&self) -> String {
        if self.replans.is_empty() {
            return "none".into();
        }
        let parts: Vec<String> = self
            .replans
            .iter()
            .map(|(w, c)| format!("{c}@{w}"))
            .collect();
        parts.join(",")
    }

    /// The first difference in the acoustic outcome (windows, replans,
    /// tone counts), if any.
    pub fn acoustic_mismatch(&self, want: &Outcome) -> Option<String> {
        if let Some(t) = (0..self.windows.len().max(want.windows.len()))
            .find(|&t| self.windows.get(t) != want.windows.get(t))
        {
            return Some(format!("window {t} outcome differs"));
        }
        if self.replans != want.replans {
            return Some(format!(
                "replans {} != {}",
                self.replans_text(),
                want.replans_text()
            ));
        }
        if (self.expected, self.heard, self.tone_events)
            != (want.expected, want.heard, want.tone_events)
        {
            return Some(format!(
                "tones expected/heard/fired {}/{}/{} != {}/{}/{}",
                self.expected,
                self.heard,
                self.tone_events,
                want.expected,
                want.heard,
                want.tone_events
            ));
        }
        None
    }
}

/// Count and sum of one `mdn_net_dispatch_ns{kind}` histogram.
pub struct Dispatch {
    pub count: u64,
    pub sum_ns: u64,
}

pub const DISPATCH_KINDS: [&str; 3] = ["deliver", "generate", "port_free"];

/// One untraced pass over a scenario spec.
pub struct Pass {
    /// `ScenarioBuilder::new` wall time, seconds.
    pub plan_s: f64,
    /// `ScenarioBuilder::build` wall time, seconds.
    pub build_s: f64,
    /// Wall time of every window-closing `UnifiedLoop::step`, ns.
    pub step_ns: Vec<u64>,
    /// Wall time of the stepping loop (steps plus scheduling), s.
    pub loop_s: f64,
    pub outcome: Outcome,
    /// The program's always-on dispatch sums, per [`DISPATCH_KINDS`].
    pub dispatch: [Dispatch; 3],
    /// Σ `HostNode::rx_log.len()` after the pass.
    pub rx_log_records: u64,
    /// Most emissions live in the scene after any window's GC.
    pub live_emissions_max: usize,
}

/// A built scenario being stepped window by window.
pub struct Run<'a> {
    spec: &'a ScenarioSpec,
    registry: Registry,
    lp: UnifiedLoop,
    names: Vec<Vec<String>>,
    horizon: Duration,
    plan_s: f64,
    build_s: f64,
    step_ns: Vec<u64>,
    loop_s: f64,
    outcome: Outcome,
    live_emissions_max: usize,
}

impl<'a> Run<'a> {
    /// `ScenarioBuilder::new` + `build`, each timed, and window 0's
    /// emissions scheduled.
    pub fn new(spec: &'a ScenarioSpec) -> Result<Self, String> {
        let registry = Registry::new();
        let t0 = Instant::now();
        let builder = ScenarioBuilder::new(spec).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let built = builder.build(&registry).map_err(|e| e.to_string())?;
        let t2 = Instant::now();
        let mut run = Self {
            spec,
            registry,
            lp: built.lp,
            names: built.names,
            horizon: spec.total() + spec.window(),
            plan_s: (t1 - t0).as_secs_f64(),
            build_s: (t2 - t1).as_secs_f64(),
            step_ns: Vec::with_capacity(spec.windows as usize),
            loop_s: 0.0,
            outcome: Outcome::default(),
            live_emissions_max: 0,
        };
        run.schedule(0);
        Ok(run)
    }

    fn schedule(&mut self, t: u64) {
        for (at, name, slot, dur) in window_emissions(self.spec, &self.names, t) {
            self.lp.schedule_emission(at, name, slot, dur);
        }
    }

    /// `ScenarioBuilder::new` + `build` wall time, seconds.
    pub fn setup_s(&self) -> f64 {
        self.plan_s + self.build_s
    }

    pub fn done(&self) -> bool {
        self.outcome.windows.len() as u64 >= self.spec.windows
    }

    /// Close the next window: one timed `UnifiedLoop::step`, then the
    /// following window's emissions are scheduled.
    pub fn step(&mut self) -> Result<(), String> {
        let started = Instant::now();
        let step = self.lp.step(self.horizon);
        let took = started.elapsed();
        let Step::Window { report, .. } = step else {
            return Err(format!(
                "expected window {} of {} to close, got {step:?}",
                self.outcome.windows.len(),
                self.spec.windows
            ));
        };
        self.step_ns.push(took.as_nanos() as u64);
        self.outcome.fold(
            &report.events,
            &report.heard,
            &report.missed,
            report.replanned,
        );
        self.live_emissions_max = self.live_emissions_max.max(self.lp.scene().num_emissions());
        let next = self.outcome.windows.len() as u64;
        if next < self.spec.windows {
            self.schedule(next);
        }
        self.loop_s += started.elapsed().as_secs_f64();
        Ok(())
    }

    /// Collect the pass's counters once every window has closed.
    pub fn finish(self) -> Result<Pass, String> {
        let lp = &self.lp;
        if lp.emit_failures() > 0 {
            return Err(format!("{} emissions failed to play", lp.emit_failures()));
        }
        let c = lp.net().counters;
        let mut outcome = self.outcome;
        outcome.tone_events = lp.emissions_fired();
        outcome.events_total = lp.net().events_processed();
        outcome.delivered = c.delivered;
        outcome.dropped = c.queue_drops + c.policy_drops + c.link_drops + c.crash_drops;
        let dispatch = DISPATCH_KINDS.map(|kind| {
            let h = self
                .registry
                .histogram("mdn_net_dispatch_ns", &[("kind", kind)]);
            Dispatch {
                count: h.count(),
                sum_ns: h.sum(),
            }
        });
        Ok(Pass {
            plan_s: self.plan_s,
            build_s: self.build_s,
            step_ns: self.step_ns,
            loop_s: self.loop_s,
            outcome,
            dispatch,
            rx_log_records: rx_log_records(self.spec, lp),
            live_emissions_max: self.live_emissions_max,
        })
    }
}

/// Build the scenario and step it through all of its windows.
pub fn run_pass(spec: &ScenarioSpec) -> Result<Pass, String> {
    let mut run = Run::new(spec)?;
    while !run.done() {
        run.step()?;
    }
    run.finish()
}

/// Σ `HostNode::rx_log.len()` over the fabric's hosts. The network has
/// no node iterator, so the node count follows from the topology the
/// builder lays out: `spines + leaves` switches plus one host per leaf.
fn rx_log_records(spec: &ScenarioSpec, lp: &UnifiedLoop) -> u64 {
    let t = &spec.traffic;
    let nodes = match t.topology.as_str() {
        "leaf_spine" => t.spines + 2 * t.leaves,
        _ => 0,
    };
    (0..nodes)
        .filter_map(|i| match lp.net().node(NodeId(i)) {
            Node::Host(h) => Some(h.rx_log.len() as u64),
            Node::Switch(_) => None,
        })
        .sum()
}

/// The program's fixed-tick reference (`scenario::run_batch`, no
/// network): the oracle for seeds whose outcome is not recorded.
pub fn oracle(spec: &ScenarioSpec) -> Result<Outcome, String> {
    let reports = mdn_core::scenario::run_batch(spec).map_err(|e| e.to_string())?;
    let mut out = Outcome::default();
    for r in &reports {
        out.fold(&r.events, &r.heard, &r.missed, r.replanned);
    }
    out.tone_events = out.expected;
    Ok(out)
}
