//! §5 extension — k-superspreader / DDoS-victim detection.
//!
//! Left open by the paper: "a k-superspreader is a host that contacts more
//! than k unique destinations during a time interval. A DDoS victim is a
//! host that is contacted by more than k unique sources. By mapping
//! destination addresses to frequencies, we can presumably detect
//! k-superspreaders and hence a DDoS. We leave that as an open problem."
//!
//! We implement both directions of the idea at a monitored switch:
//!
//! * **victim watch** — the switch sonifies the *source* address of traffic
//!   arriving at a watched destination; > k distinct slots in a window ⇒
//!   DDoS alert for that destination;
//! * **spreader watch** — the switch sonifies the *destination* address of
//!   traffic leaving a watched source; > k distinct slots ⇒ the source is a
//!   k-superspreader.
//!
//! Hashing many addresses into finitely many slots can only *undercount*
//! distinct endpoints, so crossing k in slot space implies crossing k in
//! address space — the alert has no false positives from collisions.

use crate::controller::{device_tones, MdnEvent};
use mdn_net::packet::Ip;
use std::collections::BTreeSet;
use std::time::Duration;

/// Which endpoint of the flow the switch sonifies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchMode {
    /// Sonify source addresses (detect a DDoS on a watched destination).
    VictimSources,
    /// Sonify destination addresses (detect a superspreading source).
    SpreaderDestinations,
}

/// Switch-side mapping: IP address → telemetry slot.
#[derive(Debug, Clone, Copy)]
pub struct AddressToneMapper {
    /// Number of telemetry slots.
    pub slots: usize,
}

impl AddressToneMapper {
    /// A mapper over `slots` slots.
    ///
    /// # Panics
    /// Panics if `slots` is zero.
    pub fn new(slots: usize) -> Self {
        assert!(slots > 0, "need at least one slot");
        Self { slots }
    }

    /// The slot an address maps to (mixed so adjacent addresses spread).
    pub fn slot_of(&self, ip: Ip) -> usize {
        let mut h = ip.0 as u64;
        h ^= h >> 16;
        h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 32;
        (h % self.slots as u64) as usize
    }
}

/// A flagged spreader/victim window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpreaderAlert {
    /// Window start.
    pub window_start: Duration,
    /// Distinct endpoint slots heard.
    pub distinct: usize,
    /// What kind of event this is.
    pub mode: WatchMode,
}

/// Controller-side detector.
#[derive(Debug, Clone)]
pub struct SuperspreaderDetector {
    /// The device to watch.
    pub device: String,
    /// Detection direction.
    pub mode: WatchMode,
    /// Window length.
    pub window: Duration,
    /// Distinct-endpoint threshold k.
    pub k: usize,
    refractory: Duration,
}

impl SuperspreaderDetector {
    /// Build a detector.
    ///
    /// # Panics
    /// Panics on a zero window or k.
    pub fn new(device: impl Into<String>, mode: WatchMode, window: Duration, k: usize) -> Self {
        assert!(!window.is_zero() && k > 0, "window and k must be non-zero");
        Self {
            device: device.into(),
            mode,
            window,
            k,
            refractory: Duration::from_millis(40),
        }
    }

    /// Flag every window with more than k distinct endpoint slots.
    pub fn analyze(&self, events: &[MdnEvent]) -> Vec<SpreaderAlert> {
        let tones = device_tones(events, &self.device, self.refractory);
        let Some(end) = tones.last().map(|e| e.time) else {
            return Vec::new();
        };
        let mut alerts = Vec::new();
        let mut w = 0u32;
        loop {
            let start = self.window * w;
            if start > end {
                break;
            }
            let stop = start + self.window;
            let distinct: BTreeSet<usize> = tones
                .iter()
                .filter(|e| e.time >= start && e.time < stop)
                .map(|e| e.slot)
                .collect();
            if distinct.len() > self.k {
                alerts.push(SpreaderAlert {
                    window_start: start,
                    distinct: distinct.len(),
                    mode: self.mode,
                });
            }
            w += 1;
        }
        alerts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_mapper_spreads_sequential_addresses() {
        let m = AddressToneMapper::new(64);
        let slots: BTreeSet<usize> = (0..128u8)
            .map(|n| m.slot_of(Ip::v4(192, 168, 1, n)))
            .collect();
        assert!(slots.len() > 40, "only {} distinct slots", slots.len());
    }

    #[test]
    fn address_mapper_is_deterministic() {
        let m = AddressToneMapper::new(64);
        assert_eq!(m.slot_of(Ip::v4(1, 2, 3, 4)), m.slot_of(Ip::v4(1, 2, 3, 4)));
    }

    fn ev(slot: usize, ms: u64) -> MdnEvent {
        MdnEvent {
            device: "tor".into(),
            slot,
            time: Duration::from_millis(ms),
            freq_hz: 500.0,
            magnitude: 0.1,
        }
    }

    #[test]
    fn ddos_many_sources_flagged() {
        let det =
            SuperspreaderDetector::new("tor", WatchMode::VictimSources, Duration::from_secs(1), 10);
        // 30 distinct source slots inside one second.
        let events: Vec<MdnEvent> = (0..30).map(|s| ev(s, 30 * s as u64)).collect();
        let alerts = det.analyze(&events);
        assert_eq!(alerts.len(), 1);
        assert!(alerts[0].distinct > 10);
        assert_eq!(alerts[0].mode, WatchMode::VictimSources);
    }

    #[test]
    fn steady_few_sources_not_flagged() {
        let det =
            SuperspreaderDetector::new("tor", WatchMode::VictimSources, Duration::from_secs(1), 10);
        // Heavy traffic from only 4 sources.
        let events: Vec<MdnEvent> = (0..50)
            .map(|k| ev([1, 2, 3, 4][k % 4], 20 * k as u64))
            .collect();
        assert!(det.analyze(&events).is_empty());
    }

    #[test]
    fn exactly_k_is_not_over_k() {
        let det = SuperspreaderDetector::new(
            "tor",
            WatchMode::SpreaderDestinations,
            Duration::from_secs(1),
            5,
        );
        let events: Vec<MdnEvent> = (0..5).map(|s| ev(s, 100 * s as u64)).collect();
        assert!(det.analyze(&events).is_empty());
        let events: Vec<MdnEvent> = (0..6).map(|s| ev(s, 100 * s as u64)).collect();
        assert_eq!(det.analyze(&events).len(), 1);
    }

    #[test]
    fn empty_stream_no_alerts() {
        let det =
            SuperspreaderDetector::new("tor", WatchMode::VictimSources, Duration::from_secs(1), 3);
        assert!(det.analyze(&[]).is_empty());
    }
}
