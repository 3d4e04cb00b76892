//! §6 — Switch congestion monitoring by queue tones.
//!
//! "<25 pkts in queue play 500 Hz, 25<pkts<75 play 600 Hz, >75 pkts play
//! 700 Hz" (Figure 5c-d). The switch samples its queue every 300 ms (the
//! paper used `tc`) and plays the band tone; the controller decodes the
//! tone back into a queue-occupancy band and can drive congestion decisions
//! "without waiting for source reactions and without having to modify the
//! transport protocol".

use crate::controller::{device_tones, MdnEvent};
use std::time::Duration;

/// The paper's sampling cadence.
pub const SAMPLE_INTERVAL: Duration = Duration::from_millis(300);

/// Queue occupancy bands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum QueueBand {
    /// Fewer than `low` packets (the 500 Hz tone).
    Low,
    /// Between the thresholds (600 Hz).
    Mid,
    /// More than `high` packets — congested (700 Hz).
    High,
}

/// Switch-side mapping from queue length to band/slot.
#[derive(Debug, Clone, Copy)]
pub struct QueueToneMapper {
    /// Lower threshold in packets (paper: 25).
    pub low: usize,
    /// Upper threshold in packets (paper: 75).
    pub high: usize,
}

impl Default for QueueToneMapper {
    fn default() -> Self {
        Self { low: 25, high: 75 }
    }
}

impl QueueToneMapper {
    /// Thresholded band of a queue length.
    pub fn band_of(&self, queue_len: usize) -> QueueBand {
        if queue_len < self.low {
            QueueBand::Low
        } else if queue_len <= self.high {
            QueueBand::Mid
        } else {
            QueueBand::High
        }
    }

    /// The device-local slot for a band. A queue-monitoring device
    /// allocates exactly three slots; with the 500/600/700 Hz set of the
    /// paper, slot 0 = 500 Hz, slot 1 = 600 Hz, slot 2 = 700 Hz.
    pub fn slot_of(&self, band: QueueBand) -> usize {
        match band {
            QueueBand::Low => 0,
            QueueBand::Mid => 1,
            QueueBand::High => 2,
        }
    }

    /// Decode a slot back into a band (controller side).
    pub fn band_of_slot(&self, slot: usize) -> Option<QueueBand> {
        match slot {
            0 => Some(QueueBand::Low),
            1 => Some(QueueBand::Mid),
            2 => Some(QueueBand::High),
            _ => None,
        }
    }

    /// Number of slots this application needs from a frequency plan.
    pub const SLOTS: usize = 3;
}

/// One decoded queue-state report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueReport {
    /// When the tone was heard.
    pub time: Duration,
    /// The reported band.
    pub band: QueueBand,
}

/// Controller-side monitor: event stream → band time series.
#[derive(Debug, Clone)]
pub struct QueueMonitor {
    /// The device to watch.
    pub device: String,
    /// The shared threshold config.
    pub mapper: QueueToneMapper,
    refractory: Duration,
}

impl QueueMonitor {
    /// Build a monitor for `device`.
    pub fn new(device: impl Into<String>, mapper: QueueToneMapper) -> Self {
        Self {
            device: device.into(),
            mapper,
            refractory: Duration::from_millis(80),
        }
    }

    /// Decode the band reports in an event stream, in time order.
    pub fn reports(&self, events: &[MdnEvent]) -> Vec<QueueReport> {
        let tones = device_tones(events, &self.device, self.refractory);
        tones
            .iter()
            .filter_map(|e| {
                self.mapper
                    .band_of_slot(e.slot)
                    .map(|band| QueueReport { time: e.time, band })
            })
            .collect()
    }

    /// The first time congestion (High) was reported, if ever.
    pub fn congestion_onset(&self, events: &[MdnEvent]) -> Option<Duration> {
        self.reports(events)
            .into_iter()
            .find(|r| r.band == QueueBand::High)
            .map(|r| r.time)
    }

    /// The first time after `after` that the queue reported Low again —
    /// the "traffic drained" signal at the end of Figure 5c.
    pub fn drain_time(&self, events: &[MdnEvent], after: Duration) -> Option<Duration> {
        self.reports(events)
            .into_iter()
            .find(|r| r.time > after && r.band == QueueBand::Low)
            .map(|r| r.time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_thresholds_band_correctly() {
        let m = QueueToneMapper::default();
        assert_eq!(m.band_of(0), QueueBand::Low);
        assert_eq!(m.band_of(24), QueueBand::Low);
        assert_eq!(m.band_of(25), QueueBand::Mid);
        assert_eq!(m.band_of(75), QueueBand::Mid);
        assert_eq!(m.band_of(76), QueueBand::High);
        assert_eq!(m.band_of(100), QueueBand::High);
    }

    #[test]
    fn slot_band_roundtrip() {
        let m = QueueToneMapper::default();
        for band in [QueueBand::Low, QueueBand::Mid, QueueBand::High] {
            assert_eq!(m.band_of_slot(m.slot_of(band)), Some(band));
        }
        assert_eq!(m.band_of_slot(5), None);
    }

    fn ev(slot: usize, ms: u64) -> MdnEvent {
        MdnEvent {
            device: "sw1".into(),
            slot,
            time: Duration::from_millis(ms),
            freq_hz: 500.0 + 100.0 * slot as f64,
            magnitude: 0.1,
        }
    }

    #[test]
    fn reports_follow_the_tone_sequence() {
        let mon = QueueMonitor::new("sw1", QueueToneMapper::default());
        let events = vec![ev(0, 0), ev(1, 300), ev(2, 600), ev(2, 900), ev(0, 1200)];
        let reports = mon.reports(&events);
        let bands: Vec<QueueBand> = reports.iter().map(|r| r.band).collect();
        assert_eq!(
            bands,
            vec![
                QueueBand::Low,
                QueueBand::Mid,
                QueueBand::High,
                QueueBand::High,
                QueueBand::Low
            ]
        );
    }

    #[test]
    fn congestion_onset_is_first_high() {
        let mon = QueueMonitor::new("sw1", QueueToneMapper::default());
        let events = vec![ev(0, 0), ev(1, 300), ev(2, 600), ev(2, 900)];
        assert_eq!(
            mon.congestion_onset(&events),
            Some(Duration::from_millis(600))
        );
    }

    #[test]
    fn drain_detected_after_congestion() {
        let mon = QueueMonitor::new("sw1", QueueToneMapper::default());
        let events = vec![ev(0, 0), ev(2, 600), ev(1, 900), ev(0, 1500)];
        let onset = mon.congestion_onset(&events).unwrap();
        assert_eq!(
            mon.drain_time(&events, onset),
            Some(Duration::from_millis(1500))
        );
    }

    #[test]
    fn no_high_no_onset() {
        let mon = QueueMonitor::new("sw1", QueueToneMapper::default());
        let events = vec![ev(0, 0), ev(1, 300)];
        assert_eq!(mon.congestion_onset(&events), None);
    }

    #[test]
    fn unknown_slots_ignored() {
        let mon = QueueMonitor::new("sw1", QueueToneMapper::default());
        let events = vec![ev(7, 0), ev(0, 300)];
        let reports = mon.reports(&events);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].band, QueueBand::Low);
    }
}
