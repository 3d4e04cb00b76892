//! §5 — Music-Defined Telemetry: port-scan detection.
//!
//! "When hit by a packet, the switch plays a sound whose frequency is based
//! on the destination port number. [...] the port scan can be identified by
//! a clear logarithmic line on the Mel-scaled spectrogram." The switch maps
//! destination ports into its telemetry set; the controller flags a scan
//! when it hears many *distinct* port slots from one device inside a
//! window — the signature a sweeping scanner produces and normal traffic
//! does not.

use crate::controller::{device_tones, MdnEvent};
use std::collections::BTreeSet;
use std::time::Duration;

/// Switch-side mapping: destination port → telemetry slot.
#[derive(Debug, Clone, Copy)]
pub struct PortToneMapper {
    /// Number of telemetry slots.
    pub slots: usize,
}

impl PortToneMapper {
    /// A mapper over `slots` slots.
    ///
    /// # Panics
    /// Panics if `slots` is zero.
    pub fn new(slots: usize) -> Self {
        assert!(slots > 0, "need at least one slot");
        Self { slots }
    }

    /// The slot for a destination port. Ports map proportionally (not
    /// hashed): a linear port sweep then produces a monotone slot sweep,
    /// which is what draws the paper's spectrogram line.
    pub fn slot_of(&self, dst_port: u16) -> usize {
        (dst_port as usize * self.slots) / (u16::MAX as usize + 1)
    }
}

/// A flagged scan.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanAlert {
    /// Window start.
    pub window_start: Duration,
    /// Distinct slots heard in the window.
    pub distinct_slots: usize,
    /// Fraction of consecutive slot observations that were ascending —
    /// near 1.0 for a sequential sweep.
    pub monotonicity: f64,
}

/// Controller-side scan detector.
#[derive(Debug, Clone)]
pub struct PortScanDetector {
    /// The device to watch.
    pub device: String,
    /// Sliding window length.
    pub window: Duration,
    /// Distinct-slot count at or above which a window is a scan.
    pub distinct_threshold: usize,
    refractory: Duration,
}

impl PortScanDetector {
    /// Build a detector.
    ///
    /// # Panics
    /// Panics on a zero window or threshold.
    pub fn new(device: impl Into<String>, window: Duration, distinct_threshold: usize) -> Self {
        assert!(!window.is_zero(), "window must be non-zero");
        assert!(distinct_threshold > 0, "threshold must be positive");
        Self {
            device: device.into(),
            window,
            distinct_threshold,
            refractory: Duration::from_millis(40),
        }
    }

    /// Analyze an event stream: tile it into windows and flag each window
    /// with enough distinct slots.
    pub fn analyze(&self, events: &[MdnEvent]) -> Vec<ScanAlert> {
        let tones = device_tones(events, &self.device, self.refractory);
        let mut alerts = Vec::new();
        if tones.is_empty() {
            return alerts;
        }
        let end = tones.last().unwrap().time;
        let mut w = 0u32;
        loop {
            let start = self.window * w;
            if start > end {
                break;
            }
            let stop = start + self.window;
            let in_window: Vec<&MdnEvent> = tones
                .iter()
                .filter(|e| e.time >= start && e.time < stop)
                .collect();
            let distinct: BTreeSet<usize> = in_window.iter().map(|e| e.slot).collect();
            if distinct.len() >= self.distinct_threshold {
                let ascending = in_window
                    .windows(2)
                    .filter(|p| p[1].slot > p[0].slot)
                    .count();
                let pairs = in_window.len().saturating_sub(1).max(1);
                alerts.push(ScanAlert {
                    window_start: start,
                    distinct_slots: distinct.len(),
                    monotonicity: ascending as f64 / pairs as f64,
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
    fn port_mapper_is_monotone() {
        let m = PortToneMapper::new(64);
        let mut last = 0;
        for port in (0..=u16::MAX).step_by(997) {
            let s = m.slot_of(port);
            assert!(s >= last, "slot went backwards at port {port}");
            assert!(s < 64);
            last = s;
        }
        assert_eq!(m.slot_of(0), 0);
        assert_eq!(m.slot_of(u16::MAX), 63);
    }

    #[test]
    fn mapper_covers_all_slots() {
        let m = PortToneMapper::new(16);
        let hit: BTreeSet<usize> = (0..=u16::MAX).step_by(256).map(|p| m.slot_of(p)).collect();
        assert_eq!(hit.len(), 16);
    }

    #[test]
    fn sweep_is_flagged_with_high_monotonicity() {
        let det = PortScanDetector::new("sw1", Duration::from_secs(2), 10);
        // A scan sweeping slots 0..20, one every 80 ms.
        let events: Vec<MdnEvent> = (0..20).map(|s| ev(s, 80 * s as u64)).collect();
        let alerts = det.analyze(&events);
        assert_eq!(alerts.len(), 1);
        assert!(alerts[0].distinct_slots >= 10);
        assert!(
            alerts[0].monotonicity > 0.9,
            "monotonicity {}",
            alerts[0].monotonicity
        );
    }

    #[test]
    fn normal_traffic_on_few_ports_not_flagged() {
        let det = PortScanDetector::new("sw1", Duration::from_secs(2), 10);
        // Busy traffic, but only three distinct ports (slots).
        let events: Vec<MdnEvent> = (0..40)
            .map(|k| ev([2, 5, 9][k % 3], 100 * k as u64))
            .collect();
        assert!(det.analyze(&events).is_empty());
    }

    #[test]
    fn scan_in_later_window_found() {
        let det = PortScanDetector::new("sw1", Duration::from_secs(1), 8);
        let mut events = vec![ev(1, 100), ev(2, 500)];
        for s in 0..10 {
            events.push(ev(s, 2000 + 90 * s as u64));
        }
        let alerts = det.analyze(&events);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].window_start, Duration::from_secs(2));
    }

    #[test]
    fn random_order_scan_has_low_monotonicity_but_still_flags() {
        let det = PortScanDetector::new("sw1", Duration::from_secs(2), 10);
        // A randomized scan: distinct slots but shuffled order.
        let order = [13usize, 2, 7, 19, 0, 11, 5, 17, 3, 9, 15, 1];
        let events: Vec<MdnEvent> = order
            .iter()
            .enumerate()
            .map(|(k, &s)| ev(s, 80 * k as u64))
            .collect();
        let alerts = det.analyze(&events);
        assert_eq!(alerts.len(), 1);
        assert!(alerts[0].monotonicity < 0.8);
    }

    #[test]
    fn empty_stream_no_alerts() {
        let det = PortScanDetector::new("sw1", Duration::from_secs(1), 5);
        assert!(det.analyze(&[]).is_empty());
    }
}
