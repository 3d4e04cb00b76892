//! A bounded ring-buffer event journal.
//!
//! Counters summarise *how often*; the journal answers *what happened
//! last* — the final N acoustic deaths, recoveries, fault activations or
//! re-plans before a snapshot was taken. It is a fixed-capacity ring:
//! when full, the oldest event is dropped and a drop counter is bumped,
//! so long chaos runs can't grow memory without bound.

use crate::ring::Ring;
use std::time::Duration;

/// One journal entry: when it happened (scenario clock), an event kind
/// tag (e.g. `"health.transition"`, `"fault.noise_burst"`), and a short
/// human-readable detail string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEvent {
    /// Scenario-clock timestamp of the event.
    pub at: Duration,
    /// Dotted event-kind tag, e.g. `"health.transition"`.
    pub kind: String,
    /// Free-form detail, e.g. `"sw1: Healthy -> Degraded"`.
    pub detail: String,
}

/// A bounded, shareable event journal. Cloning is a cheap `Arc` clone;
/// the default value is a disabled (no-op) journal.
#[derive(Debug, Clone, Default)]
pub struct Journal(Ring<JournalEvent>);

impl Journal {
    /// A journal keeping the last `capacity` events (capacity 0 keeps
    /// none but still counts drops).
    pub fn with_capacity(capacity: usize) -> Self {
        Self(Ring::with_capacity(capacity))
    }

    /// A journal that ignores every record.
    pub const fn disabled() -> Self {
        Self(Ring::disabled())
    }

    /// Is this a live journal?
    pub fn is_enabled(&self) -> bool {
        self.0.is_enabled()
    }

    /// Append an event, evicting the oldest if the ring is full.
    pub fn record(&self, at: Duration, kind: &str, detail: impl Into<String>) {
        if self.is_enabled() {
            self.0.push(JournalEvent {
                at,
                kind: kind.to_string(),
                detail: detail.into(),
            });
        }
    }

    /// The retained events, oldest first (empty when disabled).
    pub fn events(&self) -> Vec<JournalEvent> {
        self.0.items()
    }

    /// How many events were evicted (or rejected at capacity 0).
    pub fn dropped(&self) -> u64 {
        self.0.evicted()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ring itself is tested in `ring.rs`; this checks the journal
    /// hands its events to it and reads them back.
    #[test]
    fn records_into_the_ring() {
        let j = Journal::with_capacity(2);
        for i in 0..3u64 {
            j.record(Duration::from_millis(i), "k", format!("e{i}"));
        }
        let want = |i: u64| JournalEvent {
            at: Duration::from_millis(i),
            kind: "k".into(),
            detail: format!("e{i}"),
        };
        assert_eq!(j.events(), [want(1), want(2)]);
        assert_eq!((j.len(), j.dropped()), (2, 1));
        assert!(j.is_enabled() && !j.is_empty());
        assert!(!Journal::disabled().is_enabled());
    }
}
