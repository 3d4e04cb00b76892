//! §5 — Music-Defined Telemetry: heavy-hitter detection.
//!
//! "To detect a heavy hitter flow, we hash a flow tuple [...] and map it to
//! a given frequency. [The controller] can recognize when a sound with a
//! similar frequency is played more than a threshold in a given time
//! interval." The switch side maps each forwarded packet's flow hash to a
//! slot in its telemetry frequency set (sampling so tone rates stay within
//! hardware limits); the controller side counts collapsed tone events per
//! slot per interval and flags slots over threshold.

use crate::controller::{device_tones, MdnEvent};
use mdn_net::flow::flow_bucket;
use mdn_net::packet::FlowKey;
use std::collections::HashMap;
use std::time::Duration;

/// Switch-side mapping: flow → telemetry slot.
///
/// The paper's switch plays a sound "based on the hash of the flow". With
/// a 30 ms hardware tone floor a switch cannot sonify every packet, so the
/// mapper also carries a per-slot sampling interval: at most one tone per
/// slot per `min_gap`.
#[derive(Debug, Clone)]
pub struct FlowToneMapper {
    /// Number of telemetry slots available.
    pub slots: usize,
    /// Minimum gap between two tones for the same slot.
    pub min_gap: Duration,
    last_emit: HashMap<usize, Duration>,
}

impl FlowToneMapper {
    /// A mapper over `slots` slots with the given per-slot tone gap.
    ///
    /// # Panics
    /// Panics if `slots` is zero.
    pub fn new(slots: usize, min_gap: Duration) -> Self {
        assert!(slots > 0, "need at least one telemetry slot");
        Self {
            slots,
            min_gap,
            last_emit: HashMap::new(),
        }
    }

    /// The slot a flow hashes to.
    pub fn slot_of(&self, flow: &FlowKey) -> usize {
        flow_bucket(flow, self.slots)
    }

    /// Called per forwarded packet: returns the slot to sonify now, or
    /// `None` if this slot sounded too recently.
    pub fn on_packet(&mut self, flow: &FlowKey, now: Duration) -> Option<usize> {
        let slot = self.slot_of(flow);
        match self.last_emit.get(&slot) {
            Some(&t) if now.saturating_sub(t) < self.min_gap => None,
            _ => {
                self.last_emit.insert(slot, now);
                Some(slot)
            }
        }
    }
}

/// One flagged heavy hitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeavyHitterAlert {
    /// The telemetry slot that crossed the threshold.
    pub slot: usize,
    /// Tones counted in the interval.
    pub count: usize,
    /// Start of the counting interval.
    pub interval_start: Duration,
}

/// Controller-side counter: tone events per slot per fixed interval.
#[derive(Debug, Clone)]
pub struct HeavyHitterDetector {
    /// The device whose telemetry set we count.
    pub device: String,
    /// Counting interval ("a given time interval").
    pub interval: Duration,
    /// Tones per interval at or above which a slot is a heavy hitter.
    pub threshold: usize,
    refractory: Duration,
}

impl HeavyHitterDetector {
    /// Build a detector.
    ///
    /// # Panics
    /// Panics on a zero interval or threshold.
    pub fn new(device: impl Into<String>, interval: Duration, threshold: usize) -> Self {
        assert!(!interval.is_zero(), "interval must be non-zero");
        assert!(threshold > 0, "threshold must be positive");
        Self {
            device: device.into(),
            interval,
            threshold,
            refractory: Duration::from_millis(60),
        }
    }

    /// Count collapsed tones per `(interval, slot)` over an event stream
    /// and return every interval/slot pair at or over threshold.
    pub fn analyze(&self, events: &[MdnEvent]) -> Vec<HeavyHitterAlert> {
        let tones = device_tones(events, &self.device, self.refractory);
        let mut counts: HashMap<(u64, usize), usize> = HashMap::new();
        for t in &tones {
            let bucket = t.time.as_nanos() as u64 / self.interval.as_nanos() as u64;
            *counts.entry((bucket, t.slot)).or_insert(0) += 1;
        }
        let mut alerts: Vec<HeavyHitterAlert> = counts
            .into_iter()
            .filter(|&(_, c)| c >= self.threshold)
            .map(|((bucket, slot), count)| HeavyHitterAlert {
                slot,
                count,
                interval_start: self.interval * bucket as u32,
            })
            .collect();
        alerts.sort_by_key(|a| (a.interval_start, a.slot));
        alerts
    }

    /// Slots whose per-interval count crossed the threshold in at least
    /// `min_fraction` of the stream's intervals. A genuine heavy hitter is
    /// heavy *persistently*; a light flow colliding into a busy slot only
    /// bursts over threshold occasionally, so persistence separates them
    /// even under hash collisions.
    pub fn persistent_hitters(&self, events: &[MdnEvent], min_fraction: f64) -> Vec<usize> {
        let alerts = self.analyze(events);
        let last = events.iter().map(|e| e.time).max().unwrap_or_default();
        let total_intervals = (last.as_nanos() / self.interval.as_nanos()).max(1) as usize + 1;
        let mut per_slot: HashMap<usize, usize> = HashMap::new();
        for a in &alerts {
            *per_slot.entry(a.slot).or_insert(0) += 1;
        }
        let mut hitters: Vec<usize> = per_slot
            .into_iter()
            .filter(|&(_, n)| n as f64 >= min_fraction * total_intervals as f64)
            .map(|(slot, _)| slot)
            .collect();
        hitters.sort_unstable();
        hitters
    }

    /// Per-slot total collapsed-tone counts over the whole stream (the
    /// Figure 4a bar data).
    pub fn slot_totals(&self, events: &[MdnEvent]) -> HashMap<usize, usize> {
        let tones = device_tones(events, &self.device, self.refractory);
        let mut totals = HashMap::new();
        for t in &tones {
            *totals.entry(t.slot).or_insert(0) += 1;
        }
        totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdn_net::packet::Ip;

    fn flow(n: u8) -> FlowKey {
        FlowKey::udp(
            Ip::v4(10, 0, 0, n),
            1000 + n as u16,
            Ip::v4(10, 0, 1, 1),
            9000,
        )
    }

    #[test]
    fn mapper_is_stable_per_flow() {
        let mapper = FlowToneMapper::new(16, Duration::from_millis(100));
        let f = flow(3);
        let s = mapper.slot_of(&f);
        for _ in 0..10 {
            assert_eq!(mapper.slot_of(&f), s);
        }
        assert!(s < 16);
    }

    #[test]
    fn mapper_rate_limits_per_slot() {
        let mut mapper = FlowToneMapper::new(16, Duration::from_millis(100));
        let f = flow(1);
        assert!(mapper.on_packet(&f, Duration::ZERO).is_some());
        assert!(mapper.on_packet(&f, Duration::from_millis(50)).is_none());
        assert!(mapper.on_packet(&f, Duration::from_millis(100)).is_some());
    }

    #[test]
    fn mapper_slots_are_independent_for_rate_limit() {
        let mut mapper = FlowToneMapper::new(1024, Duration::from_millis(100));
        let (f1, f2) = (flow(1), flow(2));
        assert_ne!(
            mapper.slot_of(&f1),
            mapper.slot_of(&f2),
            "test needs distinct slots"
        );
        assert!(mapper.on_packet(&f1, Duration::ZERO).is_some());
        assert!(mapper.on_packet(&f2, Duration::from_millis(1)).is_some());
    }

    fn ev(slot: usize, ms: u64) -> MdnEvent {
        MdnEvent {
            device: "sw1".into(),
            slot,
            time: Duration::from_millis(ms),
            freq_hz: 500.0,
            magnitude: 0.1,
        }
    }

    #[test]
    fn heavy_slot_flagged_light_slots_not() {
        let det = HeavyHitterDetector::new("sw1", Duration::from_secs(1), 5);
        let mut events = Vec::new();
        // Slot 3: a tone every 150 ms → ~6 per second (heavy).
        for k in 0..20 {
            events.push(ev(3, 150 * k));
        }
        // Slot 7: one tone per second (light).
        for k in 0..3 {
            events.push(ev(7, 1000 * k + 500));
        }
        let alerts = det.analyze(&events);
        assert!(!alerts.is_empty());
        assert!(alerts.iter().all(|a| a.slot == 3), "alerts: {alerts:?}");
    }

    #[test]
    fn overlapping_frames_do_not_inflate_counts() {
        let det = HeavyHitterDetector::new("sw1", Duration::from_secs(1), 3);
        // One physical tone = 3 overlapping frame observations.
        let events = vec![ev(2, 0), ev(2, 25), ev(2, 50)];
        assert!(det.analyze(&events).is_empty());
        let totals = det.slot_totals(&events);
        assert_eq!(totals.get(&2), Some(&1));
    }

    #[test]
    fn other_devices_ignored() {
        let det = HeavyHitterDetector::new("sw1", Duration::from_secs(1), 1);
        let events = vec![MdnEvent {
            device: "sw2".into(),
            ..ev(0, 0)
        }];
        assert!(det.analyze(&events).is_empty());
    }

    #[test]
    fn persistence_separates_heavy_from_bursty() {
        let det = HeavyHitterDetector::new("sw1", Duration::from_secs(1), 3);
        let mut events = Vec::new();
        // Slot 1: 5 tones/s for all 4 seconds — persistently heavy.
        for k in 0..20 {
            events.push(ev(1, 200 * k));
        }
        // Slot 9: a single one-second burst of 4 tones, then quiet.
        for k in 0..4 {
            events.push(ev(9, 2000 + 200 * k));
        }
        // Both cross the per-interval threshold somewhere...
        let alerted: std::collections::BTreeSet<usize> =
            det.analyze(&events).iter().map(|a| a.slot).collect();
        assert!(alerted.contains(&1) && alerted.contains(&9));
        // ...but only slot 1 is persistent.
        assert_eq!(det.persistent_hitters(&events, 0.5), vec![1]);
    }

    #[test]
    fn alerts_sorted_by_time_then_slot() {
        let det = HeavyHitterDetector::new("sw1", Duration::from_millis(500), 2);
        let events = vec![
            ev(5, 1200),
            ev(5, 1400),
            ev(1, 100),
            ev(1, 300),
            ev(2, 120),
            ev(2, 320),
        ];
        let alerts = det.analyze(&events);
        assert_eq!(alerts.len(), 3);
        assert_eq!(alerts[0].slot, 1);
        assert_eq!(alerts[1].slot, 2);
        assert_eq!(alerts[2].slot, 5);
    }

    #[test]
    #[should_panic(expected = "threshold must be positive")]
    fn zero_threshold_panics() {
        HeavyHitterDetector::new("sw1", Duration::from_secs(1), 0);
    }
}
