//! Per-device acoustic health: the self-healing loop's liveness ledger.
//!
//! The paper's pitch is that management survives on sound. This module
//! gives [`SelfHealingController`](crate::selfheal::SelfHealingController)
//! the bookkeeping for whether a device's speaker/mic pair still carries
//! it. Expected tones that never decode
//! ([`HealthTracker::record_missed_tone`]) push an acoustic score up;
//! decoded tones ([`HealthTracker::record_heard_tone`]) pull it back,
//! floored at zero. The score maps onto two states:
//!
//! ```text
//!           missed tones (+missed_tone_penalty)
//! alive ──── score ≥ acoustic_dead_at ────▶ dead
//!   ▲                                        │
//!   └──── heard tones (−heard_tone_reward) ──┘
//! ```
//!
//! The score does **not** decay with time: silence is the symptom, so
//! only positive evidence (a heard tone) revives a dead speaker. A
//! device is in outage exactly while its acoustic plane is dead; the
//! tracker timestamps each outage and, on recovery, records its length —
//! the mean-time-to-repair ledger the self-healing loop reports.

use mdn_obs::{Counter, Histogram, Journal, Registry};
use std::collections::BTreeMap;
use std::time::Duration;

/// Scoring parameters for the acoustic ledger.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct HealthConfig {
    /// Acoustic score added per expected tone that never decoded.
    pub missed_tone_penalty: f64,
    /// Acoustic score subtracted per decoded tone (floored at zero).
    /// Sized so a revived speaker climbs back out in about two
    /// listen/decode ticks.
    pub heard_tone_reward: f64,
    /// Acoustic score at or above which the device's speaker/mic pair is
    /// declared dead (`acoustic_alive` = false).
    pub acoustic_dead_at: f64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        Self {
            missed_tone_penalty: 1.5,
            heard_tone_reward: 3.0,
            acoustic_dead_at: 4.0,
        }
    }
}

impl HealthConfig {
    /// Check the death threshold and the two evidence weights. At a
    /// threshold of zero or below, every device starts out dead; at an
    /// infinite one, none can die. A weight of zero or below turns its
    /// evidence around or off: a negative reward makes heard tones kill a
    /// healthy device.
    pub fn validate(&self) -> Result<(), mdn_obs::ConfigError> {
        if !(self.acoustic_dead_at.is_finite() && self.acoustic_dead_at > 0.0) {
            return Err(mdn_obs::ConfigError::new(
                "acoustic_dead_at",
                format!(
                    "the acoustic-death threshold must be finite and positive, got {}",
                    self.acoustic_dead_at
                ),
            ));
        }
        for (field, weight) in [
            ("missed_tone_penalty", self.missed_tone_penalty),
            ("heard_tone_reward", self.heard_tone_reward),
        ] {
            if !(weight.is_finite() && weight > 0.0) {
                return Err(mdn_obs::ConfigError::new(
                    field,
                    format!("the evidence weight must be finite and positive, got {weight}"),
                ));
            }
        }
        Ok(())
    }
}

/// One device's health record.
#[derive(Debug, Clone)]
pub struct DeviceHealth {
    /// Acoustic-plane evidence score (higher = deafer). Does not decay.
    pub acoustic_score: f64,
    /// False once missed tones pushed `acoustic_score` past
    /// [`HealthConfig::acoustic_dead_at`]; only heard tones revive it.
    pub acoustic_alive: bool,
    /// When the current outage (acoustic death) started; `None` while
    /// the device is serviceable.
    pub outage_since: Option<Duration>,
    /// `(when, outage length)` of the most recent completed recovery.
    pub last_recovery: Option<(Duration, Duration)>,
    /// Completed outage→recovery cycles.
    pub recoveries: u64,
    /// Times the acoustic plane was declared dead.
    pub acoustic_deaths: u64,
}

impl DeviceHealth {
    fn new() -> Self {
        Self {
            acoustic_score: 0.0,
            acoustic_alive: true,
            outage_since: None,
            last_recovery: None,
            recoveries: 0,
            acoustic_deaths: 0,
        }
    }
}

/// Registry handles for the tracker's accounting; disabled (free) by
/// default.
#[derive(Debug, Clone, Default)]
struct TrackerObs {
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
    /// `mdn_health_acoustic_deaths_total`, `mdn_health_recoveries_total`,
    /// a `mdn_health_recovery_ns` histogram of outage lengths, and
    /// `health.acoustic` / `health.recovered` entries in the registry's
    /// journal. Events recorded before attachment are carried over to the
    /// counters (the journal and the histogram only see changes from now
    /// on).
    pub fn attach_obs(&mut self, registry: &Registry) {
        self.obs = TrackerObs {
            acoustic_deaths: registry.counter("mdn_health_acoustic_deaths_total", &[]),
            recoveries: registry.counter("mdn_health_recoveries_total", &[]),
            recovery_time: registry.histogram("mdn_health_recovery_ns", &[]),
            journal: registry.journal(),
        };
        for d in self.devices.values() {
            self.obs.acoustic_deaths.add(d.acoustic_deaths);
            self.obs.recoveries.add(d.recoveries);
        }
    }

    /// Move `device`'s acoustic score by `delta` (floored at zero), then
    /// update its liveness and outage ledger.
    fn update(&mut self, device: &str, delta: f64, now: Duration) {
        let config = self.config;
        let obs = &self.obs;
        let d = self
            .devices
            .entry(device.to_string())
            .or_insert_with(DeviceHealth::new);
        d.acoustic_score = (d.acoustic_score + delta).max(0.0);
        let alive = d.acoustic_score < config.acoustic_dead_at;
        if alive == d.acoustic_alive {
            return;
        }
        d.acoustic_alive = alive;
        obs.journal.record(
            now,
            "health.acoustic",
            format!("{device}: {}", if alive { "alive" } else { "dead" }),
        );
        if !alive {
            d.acoustic_deaths += 1;
            obs.acoustic_deaths.inc();
            d.outage_since = Some(now);
        } else if let Some(start) = d.outage_since.take() {
            let took = now.saturating_sub(start);
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
    }

    /// Record expected acoustic tones (acks the controller scheduled)
    /// that never decoded for `device`. Enough consecutive misses declare
    /// the device's speaker/mic pair dead.
    pub fn record_missed_tone(&mut self, device: &str, count: u64, now: Duration) {
        self.update(device, self.config.missed_tone_penalty * count as f64, now);
    }

    /// Record tones actually decoded from `device`. Positive evidence is
    /// the only thing that revives a dead acoustic plane — the score does
    /// not decay with time.
    pub fn record_heard_tone(&mut self, device: &str, count: u64, now: Duration) {
        self.update(device, -(self.config.heard_tone_reward * count as f64), now);
    }

    /// Is `device`'s acoustic plane serviceable? (`true` if never seen.)
    pub fn acoustic_alive(&self, device: &str) -> bool {
        self.devices.get(device).is_none_or(|d| d.acoustic_alive)
    }

    /// `device`'s acoustic evidence score (0 if never seen).
    pub fn acoustic_score(&self, device: &str) -> f64 {
        self.devices.get(device).map_or(0.0, |d| d.acoustic_score)
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

    fn outage_since(t: &HealthTracker, device: &str) -> Option<Duration> {
        t.devices.get(device).and_then(|d| d.outage_since)
    }

    #[test]
    fn unknown_device_is_alive() {
        let t = HealthTracker::default();
        assert!(t.acoustic_alive("ghost"));
        assert_eq!(t.acoustic_score("ghost"), 0.0);
        assert_eq!(outage_since(&t, "ghost"), None);
        assert_eq!(t.recovery_time("ghost"), None);
    }

    #[test]
    fn missed_tones_kill_the_acoustic_plane() {
        let mut t = HealthTracker::default();
        t.record_missed_tone("sw", 1, MS(100));
        t.record_missed_tone("sw", 1, MS(200));
        assert!(t.acoustic_alive("sw"), "two misses are not conclusive");
        t.record_missed_tone("sw", 1, MS(300));
        assert!(!t.acoustic_alive("sw"), "three misses cross the threshold");
        assert_eq!(outage_since(&t, "sw"), Some(MS(300)));
        // More misses extend the same outage; they do not restart it.
        t.record_missed_tone("sw", 2, MS(400));
        assert_eq!(outage_since(&t, "sw"), Some(MS(300)));
        assert_eq!(t.devices().next().unwrap().1.acoustic_deaths, 1);
    }

    #[test]
    fn heard_tones_revive_and_record_recovery_time() {
        let mut t = HealthTracker::default();
        t.record_missed_tone("sw", 3, MS(100)); // score 4.5 -> dead, outage starts
        assert!(!t.acoustic_alive("sw"));
        t.record_heard_tone("sw", 1, MS(700)); // score 1.5 -> alive again
        assert!(t.acoustic_alive("sw"));
        assert_eq!(t.recovery_time("sw"), Some(MS(600)));
        assert_eq!(t.devices["sw"].last_recovery, Some((MS(700), MS(600))));
        assert_eq!(outage_since(&t, "sw"), None);
        t.record_heard_tone("sw", 1, MS(800));
        assert_eq!(t.acoustic_score("sw"), 0.0, "score floors at zero");
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
    fn nonpositive_death_threshold_is_rejected() {
        assert!(HealthConfig::default().validate().is_ok());
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let cfg = HealthConfig {
                acoustic_dead_at: bad,
                ..HealthConfig::default()
            };
            assert_eq!(cfg.validate().unwrap_err().field, "acoustic_dead_at");
        }
    }

    #[test]
    fn nonpositive_or_nonfinite_weights_are_rejected() {
        for bad in [0.0, -1.5, f64::NAN, f64::INFINITY] {
            let cfg = HealthConfig {
                missed_tone_penalty: bad,
                ..HealthConfig::default()
            };
            assert_eq!(cfg.validate().unwrap_err().field, "missed_tone_penalty");
            let cfg = HealthConfig {
                heard_tone_reward: bad,
                ..HealthConfig::default()
            };
            assert_eq!(cfg.validate().unwrap_err().field, "heard_tone_reward");
        }
    }

    #[test]
    fn devices_iterate_in_name_order() {
        let mut t = HealthTracker::default();
        t.record_missed_tone("zeta", 1, MS(0));
        t.record_missed_tone("alpha", 1, MS(0));
        let names: Vec<&str> = t.devices().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }
}
