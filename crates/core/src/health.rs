//! Per-device health tracking: the controller's degradation ladder.
//!
//! The paper's pitch is graceful degradation: when the wire control path
//! fails, management falls back to sound. This module gives
//! [`MdnController`](crate::controller::MdnController) the bookkeeping for
//! that decision. Every sounding device (and every wire control channel)
//! gets a health score fed by delivery evidence — retransmissions, expired
//! frames, echo timeouts push it up; acks pull it down; time decays it —
//! and the score maps onto a three-state ladder:
//!
//! ```text
//! Healthy ──score ≥ degraded_at──▶ Degraded ──score ≥ quarantine_at──▶ Quarantined
//!    ▲                                │                                     │
//!    └────────── decay + acks ────────┴──────── decay + acks ───────────────┘
//! ```
//!
//! A dead wire channel (echo monitor gave up) forces `Quarantined`
//! outright and flips the device's control path to
//! [`ControlPath::Acoustic`] — the fallback the paper motivates.
//!
//! The acoustic plane gets its own, parallel ledger: expected tones that
//! never decode ([`HealthTracker::record_missed_tone`]) push an acoustic
//! score up until the device's speaker/mic pair is declared dead
//! ([`DeviceHealth::acoustic_alive`] = false); decoded tones
//! ([`HealthTracker::record_heard_tone`]) pull it back. Unlike the wire
//! score, the acoustic score does **not** decay with time — silence is
//! the symptom, so only positive evidence (a heard tone) revives a dead
//! speaker. The tracker also timestamps outages (quarantine or acoustic
//! death) and, on recovery, records the outage length — the
//! mean-time-to-repair ledger the self-healing loop reports.

use mdn_obs::{Counter, Histogram, Journal, Registry};
use std::collections::BTreeMap;
use std::time::Duration;

/// Where a device sits on the degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthState {
    /// Delivery evidence is clean.
    Healthy,
    /// Elevated loss: retransmissions are carrying the traffic.
    Degraded,
    /// The path is not trustworthy; route around it.
    Quarantined,
}

/// Which control path the controller should use for a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlPath {
    /// The in-band wire channel (OpenFlow / MP over Ethernet).
    Wire,
    /// The out-of-band acoustic channel — the paper's fallback.
    Acoustic,
}

/// Scoring parameters for the ladder.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct HealthConfig {
    /// Score at or above which a device is `Degraded`.
    pub degraded_at: f64,
    /// Score at or above which a device is `Quarantined`.
    pub quarantine_at: f64,
    /// Score added per MP retransmission.
    pub retransmit_penalty: f64,
    /// Score added per expired (undeliverable) MP frame.
    pub expiry_penalty: f64,
    /// Score added per echo-probe timeout.
    pub echo_timeout_penalty: f64,
    /// Score subtracted per confirmed ack (floored at zero).
    pub ack_reward: f64,
    /// Multiplicative decay applied per tick.
    pub decay: f64,
    /// Acoustic score added per expected tone that never decoded.
    pub missed_tone_penalty: f64,
    /// Acoustic score subtracted per decoded tone (floored at zero).
    /// Sized so a revived speaker climbs back out in about two
    /// listen/decode ticks.
    pub heard_tone_reward: f64,
    /// Acoustic score at or above which the device's speaker/mic pair is
    /// declared dead (`acoustic_alive` = false).
    pub acoustic_dead_at: f64,
    /// Per-device transition-timeline ring capacity: when a device's
    /// timeline is full the oldest entry is evicted and its
    /// `dropped_transitions` counter bumped, so a long chaos run (a
    /// flapping link can transition every tick) cannot grow memory without
    /// bound. Capacity 0 keeps no timeline but still counts.
    pub timeline_capacity: usize,
}

impl Default for HealthConfig {
    fn default() -> Self {
        Self {
            degraded_at: 2.0,
            quarantine_at: 6.0,
            retransmit_penalty: 1.5,
            expiry_penalty: 3.0,
            echo_timeout_penalty: 3.0,
            ack_reward: 0.5,
            decay: 0.85,
            missed_tone_penalty: 1.5,
            heard_tone_reward: 3.0,
            acoustic_dead_at: 4.0,
            timeline_capacity: 64,
        }
    }
}

impl HealthConfig {
    /// Check the ladder's ordering invariants: an out-of-range decay
    /// grows scores without bound, and inverted thresholds make the
    /// `Degraded` rung unreachable.
    pub fn validate(&self) -> Result<(), mdn_obs::ConfigError> {
        if !(0.0..=1.0).contains(&self.decay) {
            return Err(mdn_obs::ConfigError::new(
                "decay",
                format!("per-tick decay is a fraction in [0, 1], got {}", self.decay),
            ));
        }
        if self.degraded_at.is_nan() || self.degraded_at <= 0.0 {
            return Err(mdn_obs::ConfigError::new(
                "degraded_at",
                format!(
                    "the Degraded threshold must be positive, got {}",
                    self.degraded_at
                ),
            ));
        }
        if self.quarantine_at < self.degraded_at {
            return Err(mdn_obs::ConfigError::new(
                "quarantine_at",
                format!(
                    "Quarantined threshold {} is below Degraded threshold {}",
                    self.quarantine_at, self.degraded_at
                ),
            ));
        }
        if self.acoustic_dead_at.is_nan() || self.acoustic_dead_at <= 0.0 {
            return Err(mdn_obs::ConfigError::new(
                "acoustic_dead_at",
                format!(
                    "the acoustic-death threshold must be positive, got {}",
                    self.acoustic_dead_at
                ),
            ));
        }
        Ok(())
    }
}

/// One device's health record.
#[derive(Debug, Clone)]
pub struct DeviceHealth {
    /// Current evidence score (higher = sicker).
    pub score: f64,
    /// Current ladder state.
    pub state: HealthState,
    /// False once the wire channel is declared dead (forces quarantine).
    pub wire_alive: bool,
    /// Acoustic-plane evidence score (higher = deafer). Does not decay.
    pub acoustic_score: f64,
    /// False once missed tones pushed `acoustic_score` past
    /// [`HealthConfig::acoustic_dead_at`]; only heard tones revive it.
    pub acoustic_alive: bool,
    /// When the current outage (quarantine or acoustic death) started;
    /// `None` while the device is serviceable.
    pub outage_since: Option<Duration>,
    /// `(when, outage length)` of the most recent completed recovery.
    pub last_recovery: Option<(Duration, Duration)>,
    /// Completed outage→recovery cycles.
    pub recoveries: u64,
    /// Times the acoustic plane was declared dead.
    pub acoustic_deaths: u64,
    /// The last [`HealthConfig::timeline_capacity`] state changes as
    /// `(when, new state)`, oldest first.
    pub transitions: Vec<(Duration, HealthState)>,
    /// State changes evicted from the front of `transitions` once the
    /// ring filled up.
    pub dropped_transitions: u64,
}

impl DeviceHealth {
    fn new() -> Self {
        Self {
            score: 0.0,
            state: HealthState::Healthy,
            wire_alive: true,
            acoustic_score: 0.0,
            acoustic_alive: true,
            outage_since: None,
            last_recovery: None,
            recoveries: 0,
            acoustic_deaths: 0,
            transitions: Vec::new(),
            dropped_transitions: 0,
        }
    }
}

/// Registry handles for the tracker's transition accounting; disabled
/// (free) by default.
#[derive(Debug, Clone, Default)]
struct TrackerObs {
    transitions: Counter,
    quarantines: Counter,
    acoustic_deaths: Counter,
    recoveries: Counter,
    recovery_time: Histogram,
    journal: Journal,
}

/// Health records for every tracked device, keyed by name.
///
/// Uses a `BTreeMap` so iteration order — and therefore any recovery
/// timeline built from it — is deterministic.
#[derive(Debug, Clone)]
pub struct HealthTracker {
    config: HealthConfig,
    devices: BTreeMap<String, DeviceHealth>,
    obs: TrackerObs,
}

impl HealthTracker {
    /// A tracker with the given scoring parameters.
    pub fn new(config: HealthConfig) -> Self {
        Self {
            config,
            devices: BTreeMap::new(),
            obs: TrackerObs::default(),
        }
    }

    /// The scoring parameters.
    pub fn config(&self) -> HealthConfig {
        self.config
    }

    /// Register this tracker's metrics with an observability registry:
    /// `mdn_health_transitions_total`, `mdn_health_quarantines_total`,
    /// `mdn_health_acoustic_deaths_total`, `mdn_health_recoveries_total`,
    /// a `mdn_health_recovery_ns` histogram of outage lengths, and
    /// `health.transition` / `health.acoustic` / `health.recovered`
    /// entries in the registry's journal. Events recorded before
    /// attachment are carried over to the counters (the journal and the
    /// histogram only see changes from now on).
    pub fn attach_obs(&mut self, registry: &Registry) {
        self.obs = TrackerObs {
            transitions: registry.counter("mdn_health_transitions_total", &[]),
            quarantines: registry.counter("mdn_health_quarantines_total", &[]),
            acoustic_deaths: registry.counter("mdn_health_acoustic_deaths_total", &[]),
            recoveries: registry.counter("mdn_health_recoveries_total", &[]),
            recovery_time: registry.histogram("mdn_health_recovery_ns", &[]),
            journal: registry.journal(),
        };
        let mut prior = 0u64;
        let mut prior_quarantines = 0u64;
        let mut prior_acoustic_deaths = 0u64;
        let mut prior_recoveries = 0u64;
        for d in self.devices.values() {
            prior += d.transitions.len() as u64 + d.dropped_transitions;
            prior_quarantines += d
                .transitions
                .iter()
                .filter(|(_, s)| *s == HealthState::Quarantined)
                .count() as u64;
            prior_acoustic_deaths += d.acoustic_deaths;
            prior_recoveries += d.recoveries;
        }
        self.obs.transitions.add(prior);
        self.obs.quarantines.add(prior_quarantines);
        self.obs.acoustic_deaths.add(prior_acoustic_deaths);
        self.obs.recoveries.add(prior_recoveries);
    }

    fn entry(&mut self, device: &str) -> &mut DeviceHealth {
        self.devices
            .entry(device.to_string())
            .or_insert_with(DeviceHealth::new)
    }

    fn recompute(
        config: &HealthConfig,
        obs: &TrackerObs,
        device: &str,
        d: &mut DeviceHealth,
        now: Duration,
    ) {
        let state = if !d.wire_alive || d.score >= config.quarantine_at {
            HealthState::Quarantined
        } else if d.score >= config.degraded_at {
            HealthState::Degraded
        } else {
            HealthState::Healthy
        };
        if state != d.state {
            let old = d.state;
            d.state = state;
            if config.timeline_capacity == 0 {
                d.dropped_transitions += 1;
            } else {
                if d.transitions.len() >= config.timeline_capacity {
                    d.transitions.remove(0);
                    d.dropped_transitions += 1;
                }
                d.transitions.push((now, state));
            }
            obs.transitions.inc();
            if state == HealthState::Quarantined {
                obs.quarantines.inc();
            }
            obs.journal.record(
                now,
                "health.transition",
                format!("{device}: {old:?} -> {state:?}"),
            );
        }
        let acoustic = d.acoustic_score < config.acoustic_dead_at;
        if acoustic != d.acoustic_alive {
            d.acoustic_alive = acoustic;
            if !acoustic {
                d.acoustic_deaths += 1;
                obs.acoustic_deaths.inc();
            }
            obs.journal.record(
                now,
                "health.acoustic",
                format!("{device}: {}", if acoustic { "alive" } else { "dead" }),
            );
        }
        // Outage ledger: a device is in outage while quarantined or
        // acoustically dead; leaving that set completes a recovery.
        let in_outage = d.state == HealthState::Quarantined || !d.acoustic_alive;
        match (d.outage_since, in_outage) {
            (None, true) => d.outage_since = Some(now),
            (Some(start), false) => {
                let took = now.saturating_sub(start);
                d.outage_since = None;
                d.last_recovery = Some((now, took));
                d.recoveries += 1;
                obs.recoveries.inc();
                obs.recovery_time
                    .record(took.as_nanos().min(u64::MAX as u128) as u64);
                obs.journal.record(
                    now,
                    "health.recovered",
                    format!("{device}: recovered after {took:?}"),
                );
            }
            _ => {}
        }
    }

    /// Record confirmed MP acks for `device`.
    pub fn record_ack(&mut self, device: &str, count: u64, now: Duration) {
        let reward = self.config.ack_reward * count as f64;
        let (config, obs) = (self.config, self.obs.clone());
        let d = self.entry(device);
        d.score = (d.score - reward).max(0.0);
        Self::recompute(&config, &obs, device, d, now);
    }

    /// Record MP retransmissions for `device`.
    pub fn record_retransmit(&mut self, device: &str, count: u64, now: Duration) {
        let penalty = self.config.retransmit_penalty * count as f64;
        let (config, obs) = (self.config, self.obs.clone());
        let d = self.entry(device);
        d.score += penalty;
        Self::recompute(&config, &obs, device, d, now);
    }

    /// Record expired (gave-up) MP frames for `device`.
    pub fn record_expiry(&mut self, device: &str, count: u64, now: Duration) {
        let penalty = self.config.expiry_penalty * count as f64;
        let (config, obs) = (self.config, self.obs.clone());
        let d = self.entry(device);
        d.score += penalty;
        Self::recompute(&config, &obs, device, d, now);
    }

    /// Record echo-probe timeouts for `device`'s wire channel.
    pub fn record_echo_timeout(&mut self, device: &str, count: u64, now: Duration) {
        let penalty = self.config.echo_timeout_penalty * count as f64;
        let (config, obs) = (self.config, self.obs.clone());
        let d = self.entry(device);
        d.score += penalty;
        Self::recompute(&config, &obs, device, d, now);
    }

    /// Record expected acoustic tones (acks the controller scheduled)
    /// that never decoded for `device`. Enough consecutive misses declare
    /// the device's speaker/mic pair dead.
    pub fn record_missed_tone(&mut self, device: &str, count: u64, now: Duration) {
        let penalty = self.config.missed_tone_penalty * count as f64;
        let (config, obs) = (self.config, self.obs.clone());
        let d = self.entry(device);
        d.acoustic_score += penalty;
        Self::recompute(&config, &obs, device, d, now);
    }

    /// Record tones actually decoded from `device`. Positive evidence is
    /// the only thing that revives a dead acoustic plane — the score does
    /// not decay with time.
    pub fn record_heard_tone(&mut self, device: &str, count: u64, now: Duration) {
        let reward = self.config.heard_tone_reward * count as f64;
        let (config, obs) = (self.config, self.obs.clone());
        let d = self.entry(device);
        d.acoustic_score = (d.acoustic_score - reward).max(0.0);
        Self::recompute(&config, &obs, device, d, now);
    }

    /// Mark `device`'s wire channel alive or dead. A dead wire forces
    /// `Quarantined` regardless of score.
    pub fn set_wire_alive(&mut self, device: &str, alive: bool, now: Duration) {
        let (config, obs) = (self.config, self.obs.clone());
        let d = self.entry(device);
        d.wire_alive = alive;
        Self::recompute(&config, &obs, device, d, now);
    }

    /// Apply one tick of multiplicative decay to every device and
    /// recompute states (recoveries get timestamped here).
    pub fn decay_tick(&mut self, now: Duration) {
        let (config, obs) = (self.config, self.obs.clone());
        for (name, d) in self.devices.iter_mut() {
            d.score *= config.decay;
            Self::recompute(&config, &obs, name, d, now);
        }
    }

    /// `device`'s current state (`Healthy` if never seen).
    pub fn state(&self, device: &str) -> HealthState {
        self.devices
            .get(device)
            .map(|d| d.state)
            .unwrap_or(HealthState::Healthy)
    }

    /// `device`'s current score (0 if never seen).
    pub fn score(&self, device: &str) -> f64 {
        self.devices.get(device).map(|d| d.score).unwrap_or(0.0)
    }

    /// Which control path to use for `device`: acoustic once the wire is
    /// dead or the device is quarantined.
    pub fn control_path(&self, device: &str) -> ControlPath {
        match self.devices.get(device) {
            Some(d) if !d.wire_alive || d.state == HealthState::Quarantined => {
                ControlPath::Acoustic
            }
            _ => ControlPath::Wire,
        }
    }

    /// Is `device`'s acoustic plane serviceable? (`true` if never seen.)
    pub fn acoustic_alive(&self, device: &str) -> bool {
        self.devices.get(device).is_none_or(|d| d.acoustic_alive)
    }

    /// `device`'s acoustic evidence score (0 if never seen).
    pub fn acoustic_score(&self, device: &str) -> f64 {
        self.devices.get(device).map_or(0.0, |d| d.acoustic_score)
    }

    /// Can the controller still talk to `device` over *some* path — a
    /// trusted wire or a live speaker/mic pair? (`true` if never seen.)
    pub fn reachable(&self, device: &str) -> bool {
        self.devices.get(device).is_none_or(|d| {
            (d.wire_alive && d.state != HealthState::Quarantined) || d.acoustic_alive
        })
    }

    /// When `device`'s current outage started (`None` while serviceable).
    pub fn outage_since(&self, device: &str) -> Option<Duration> {
        self.devices.get(device).and_then(|d| d.outage_since)
    }

    /// Length of `device`'s most recent completed outage — the MTTR
    /// sample the self-healing loop reports (`None` until the first
    /// recovery).
    pub fn recovery_time(&self, device: &str) -> Option<Duration> {
        self.devices
            .get(device)
            .and_then(|d| d.last_recovery)
            .map(|(_, took)| took)
    }

    /// `(when, outage length)` of `device`'s most recent recovery.
    pub fn last_recovery(&self, device: &str) -> Option<(Duration, Duration)> {
        self.devices.get(device).and_then(|d| d.last_recovery)
    }

    /// `device`'s state-transition timeline — the most recent
    /// [`HealthConfig::timeline_capacity`] changes, oldest first (empty if
    /// never seen).
    pub fn timeline(&self, device: &str) -> &[(Duration, HealthState)] {
        self.devices
            .get(device)
            .map(|d| d.transitions.as_slice())
            .unwrap_or(&[])
    }

    /// How many of `device`'s transitions were evicted from the timeline
    /// ring (0 if never seen).
    pub fn dropped_transitions(&self, device: &str) -> u64 {
        self.devices
            .get(device)
            .map(|d| d.dropped_transitions)
            .unwrap_or(0)
    }

    /// Iterate over `(name, record)` in deterministic (name) order.
    pub fn devices(&self) -> impl Iterator<Item = (&str, &DeviceHealth)> {
        self.devices.iter().map(|(k, v)| (k.as_str(), v))
    }
}

impl Default for HealthTracker {
    fn default() -> Self {
        Self::new(HealthConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: fn(u64) -> Duration = Duration::from_millis;

    #[test]
    fn unknown_device_is_healthy_on_wire() {
        let t = HealthTracker::default();
        assert_eq!(t.state("ghost"), HealthState::Healthy);
        assert_eq!(t.control_path("ghost"), ControlPath::Wire);
        assert!(t.timeline("ghost").is_empty());
    }

    #[test]
    fn retransmissions_degrade_then_decay_recovers() {
        let mut t = HealthTracker::default();
        t.record_retransmit("dev", 1, MS(100));
        assert_eq!(t.state("dev"), HealthState::Healthy);
        t.record_retransmit("dev", 1, MS(200));
        assert_eq!(t.state("dev"), HealthState::Degraded);
        // Quiet period: decay brings it back.
        for step in 0..20u64 {
            t.decay_tick(MS(300 + step * 100));
        }
        assert_eq!(t.state("dev"), HealthState::Healthy);
        let timeline = t.timeline("dev");
        assert_eq!(timeline.len(), 2);
        assert_eq!(timeline[0].1, HealthState::Degraded);
        assert_eq!(timeline[1].1, HealthState::Healthy);
    }

    #[test]
    fn heavy_loss_quarantines_by_score() {
        let mut t = HealthTracker::default();
        t.record_expiry("dev", 2, MS(100));
        assert_eq!(t.state("dev"), HealthState::Quarantined);
        assert_eq!(t.control_path("dev"), ControlPath::Acoustic);
    }

    #[test]
    fn acks_pull_the_score_down() {
        let mut t = HealthTracker::default();
        t.record_retransmit("dev", 2, MS(100));
        assert_eq!(t.state("dev"), HealthState::Degraded);
        t.record_ack("dev", 10, MS(200));
        assert_eq!(t.state("dev"), HealthState::Healthy);
        assert_eq!(t.score("dev"), 0.0, "score floors at zero");
    }

    #[test]
    fn dead_wire_forces_quarantine_and_acoustic_path() {
        let mut t = HealthTracker::default();
        t.set_wire_alive("dev", false, MS(500));
        assert_eq!(t.state("dev"), HealthState::Quarantined);
        assert_eq!(t.control_path("dev"), ControlPath::Acoustic);
        // No amount of decay recovers a dead wire.
        for step in 0..50u64 {
            t.decay_tick(MS(600 + step * 100));
        }
        assert_eq!(t.state("dev"), HealthState::Quarantined);
        // Revival restores the ladder.
        t.set_wire_alive("dev", true, MS(6000));
        assert_eq!(t.state("dev"), HealthState::Healthy);
        assert_eq!(t.control_path("dev"), ControlPath::Wire);
        let states: Vec<HealthState> = t.timeline("dev").iter().map(|(_, s)| *s).collect();
        assert_eq!(states, vec![HealthState::Quarantined, HealthState::Healthy]);
    }

    #[test]
    fn echo_timeouts_escalate() {
        let mut t = HealthTracker::default();
        t.record_echo_timeout("dev", 1, MS(100));
        assert_eq!(t.state("dev"), HealthState::Degraded);
        t.record_echo_timeout("dev", 1, MS(200));
        assert_eq!(t.state("dev"), HealthState::Quarantined);
    }

    #[test]
    fn timeline_ring_evicts_oldest_and_counts_drops() {
        let mut t = HealthTracker::new(HealthConfig {
            timeline_capacity: 3,
            ..HealthConfig::default()
        });
        // Flap the wire: each flip after the first no-op (the device
        // starts alive) is one transition — 5 in total.
        for i in 1..6u64 {
            t.set_wire_alive("dev", i % 2 == 0, MS(i * 100));
        }
        let timeline = t.timeline("dev");
        assert_eq!(timeline.len(), 3, "ring holds the configured capacity");
        assert_eq!(t.dropped_transitions("dev"), 2);
        // The newest transitions survive: flips at t=300, 400, 500 ms.
        let times: Vec<u64> = timeline.iter().map(|(t, _)| t.as_millis() as u64).collect();
        assert_eq!(times, vec![300, 400, 500]);
    }

    #[test]
    fn zero_capacity_timeline_keeps_nothing_but_counts() {
        let mut t = HealthTracker::new(HealthConfig {
            timeline_capacity: 0,
            ..HealthConfig::default()
        });
        t.set_wire_alive("dev", false, MS(100));
        assert_eq!(
            t.state("dev"),
            HealthState::Quarantined,
            "state still moves"
        );
        assert!(t.timeline("dev").is_empty());
        assert_eq!(t.dropped_transitions("dev"), 1);
    }

    #[test]
    fn obs_counts_transitions_and_journals_them() {
        let registry = mdn_obs::Registry::new();
        let mut t = HealthTracker::default();
        // One pre-attachment quarantine: must be carried over.
        t.record_expiry("early", 2, MS(50));
        t.attach_obs(&registry);
        t.record_retransmit("dev", 2, MS(100)); // -> Degraded
        t.record_expiry("dev", 2, MS(200)); // -> Quarantined
        let snap = registry.snapshot();
        assert_eq!(snap.counters["mdn_health_transitions_total"], 3);
        assert_eq!(snap.counters["mdn_health_quarantines_total"], 2);
        let kinds: Vec<&str> = snap.journal.iter().map(|e| e.kind.as_str()).collect();
        assert_eq!(kinds, vec!["health.transition", "health.transition"]);
        assert_eq!(snap.journal[0].detail, "dev: Healthy -> Degraded");
        assert_eq!(snap.journal[1].detail, "dev: Degraded -> Quarantined");
        assert_eq!(snap.journal[1].at, MS(200));
    }

    #[test]
    fn missed_tones_kill_the_acoustic_plane() {
        let mut t = HealthTracker::default();
        t.record_missed_tone("sw", 1, MS(100));
        t.record_missed_tone("sw", 1, MS(200));
        assert!(t.acoustic_alive("sw"), "two misses are not conclusive");
        t.record_missed_tone("sw", 1, MS(300));
        assert!(!t.acoustic_alive("sw"), "three misses cross the threshold");
        assert!(t.reachable("sw"), "the wire still works");
        assert_eq!(t.outage_since("sw"), Some(MS(300)));
        // The wire ladder is a separate ledger: still Healthy.
        assert_eq!(t.state("sw"), HealthState::Healthy);
    }

    #[test]
    fn silence_does_not_revive_a_dead_speaker() {
        let mut t = HealthTracker::default();
        t.record_missed_tone("sw", 3, MS(100));
        assert!(!t.acoustic_alive("sw"));
        for step in 0..50u64 {
            t.decay_tick(MS(200 + step * 100));
        }
        assert!(
            !t.acoustic_alive("sw"),
            "absence of evidence must not revive the acoustic plane"
        );
    }

    #[test]
    fn heard_tones_revive_and_record_recovery_time() {
        let mut t = HealthTracker::default();
        t.record_missed_tone("sw", 3, MS(100)); // score 4.5 -> dead, outage starts
        assert!(!t.acoustic_alive("sw"));
        t.record_heard_tone("sw", 1, MS(700)); // score 1.5 -> alive again
        assert!(t.acoustic_alive("sw"));
        assert_eq!(t.recovery_time("sw"), Some(MS(600)));
        assert_eq!(t.last_recovery("sw"), Some((MS(700), MS(600))));
        assert_eq!(t.outage_since("sw"), None);
        t.record_heard_tone("sw", 1, MS(800));
        assert_eq!(t.acoustic_score("sw"), 0.0, "score floors at zero");
    }

    #[test]
    fn wire_and_acoustic_death_together_make_a_device_unreachable() {
        let mut t = HealthTracker::default();
        t.set_wire_alive("sw", false, MS(100));
        assert!(t.reachable("sw"), "acoustic fallback still works");
        t.record_missed_tone("sw", 3, MS(200));
        assert!(!t.reachable("sw"), "both planes down");
        t.record_heard_tone("sw", 2, MS(900));
        assert!(t.reachable("sw"), "a heard tone restores the fallback");
        // The outage spans the quarantine too: it only ends once the
        // device is neither quarantined nor acoustically dead.
        assert_eq!(t.recovery_time("sw"), None, "wire is still dead");
        t.set_wire_alive("sw", true, MS(1200));
        assert_eq!(t.recovery_time("sw"), Some(MS(1100)));
    }

    #[test]
    fn obs_records_acoustic_deaths_and_recoveries() {
        let registry = mdn_obs::Registry::new();
        let mut t = HealthTracker::default();
        // One pre-attachment death + recovery: carried over to counters.
        t.record_missed_tone("early", 3, MS(10));
        t.record_heard_tone("early", 2, MS(20));
        t.attach_obs(&registry);
        t.record_missed_tone("sw", 3, MS(100));
        t.record_heard_tone("sw", 2, MS(400));
        let snap = registry.snapshot();
        assert_eq!(snap.counters["mdn_health_acoustic_deaths_total"], 2);
        assert_eq!(snap.counters["mdn_health_recoveries_total"], 2);
        let hist = &snap.histograms["mdn_health_recovery_ns"];
        assert_eq!(hist.count, 1, "histogram only sees post-attachment outages");
        assert_eq!(hist.sum, MS(300).as_nanos() as u64);
        let kinds: Vec<&str> = snap.journal.iter().map(|e| e.kind.as_str()).collect();
        assert_eq!(
            kinds,
            vec!["health.acoustic", "health.acoustic", "health.recovered"]
        );
        assert_eq!(snap.journal[2].detail, "sw: recovered after 300ms");
    }

    #[test]
    fn devices_iterate_in_name_order() {
        let mut t = HealthTracker::default();
        t.record_retransmit("zeta", 1, MS(0));
        t.record_retransmit("alpha", 1, MS(0));
        let names: Vec<&str> = t.devices().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }
}
