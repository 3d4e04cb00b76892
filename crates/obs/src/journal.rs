//! A bounded ring-buffer event journal.
//!
//! Counters summarise *how often*; the journal answers *what happened
//! last* — the final N acoustic deaths, recoveries, fault activations or
//! re-plans before a snapshot was taken. It is a fixed-capacity ring:
//! when full, the oldest event is dropped and a drop counter is bumped,
//! so long chaos runs can't grow memory without bound.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
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

#[derive(Debug)]
struct JournalInner {
    events: Mutex<JournalState>,
    capacity: usize,
}

#[derive(Debug)]
struct JournalState {
    ring: VecDeque<JournalEvent>,
    dropped: u64,
}

/// A bounded, shareable event journal. Cloning is a cheap `Arc` clone;
/// the default value is a disabled (no-op) journal.
#[derive(Debug, Clone, Default)]
pub struct Journal(Option<Arc<JournalInner>>);

impl Journal {
    /// A journal keeping the last `capacity` events (capacity 0 keeps
    /// none but still counts drops).
    pub fn with_capacity(capacity: usize) -> Self {
        Self(Some(Arc::new(JournalInner {
            events: Mutex::new(JournalState {
                ring: VecDeque::with_capacity(capacity.min(1024)),
                dropped: 0,
            }),
            capacity,
        })))
    }

    /// A journal that ignores every record.
    pub const fn disabled() -> Self {
        Self(None)
    }

    /// Is this a live journal?
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Append an event, evicting the oldest if the ring is full.
    pub fn record(&self, at: Duration, kind: &str, detail: impl Into<String>) {
        let Some(inner) = &self.0 else { return };
        let mut state = inner.events.lock().unwrap();
        if inner.capacity == 0 {
            state.dropped += 1;
            return;
        }
        if state.ring.len() == inner.capacity {
            state.ring.pop_front();
            state.dropped += 1;
        }
        state.ring.push_back(JournalEvent {
            at,
            kind: kind.to_string(),
            detail: detail.into(),
        });
    }

    /// The retained events, oldest first (empty when disabled).
    pub fn events(&self) -> Vec<JournalEvent> {
        self.0.as_ref().map_or_else(Vec::new, |inner| {
            inner.events.lock().unwrap().ring.iter().cloned().collect()
        })
    }

    /// How many events were evicted (or rejected at capacity 0).
    pub fn dropped(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |inner| inner.events.lock().unwrap().dropped)
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.0
            .as_ref()
            .map_or(0, |inner| inner.events.lock().unwrap().ring.len())
    }

    /// True when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let j = Journal::with_capacity(3);
        for i in 0..5u64 {
            j.record(Duration::from_millis(i), "k", format!("e{i}"));
        }
        let events: Vec<String> = j.events().into_iter().map(|e| e.detail).collect();
        assert_eq!(events, ["e2", "e3", "e4"]);
        assert_eq!(j.dropped(), 2);
        assert_eq!(j.len(), 3);
    }

    #[test]
    fn disabled_journal_is_inert() {
        let j = Journal::disabled();
        j.record(Duration::ZERO, "k", "x");
        assert!(j.events().is_empty());
        assert_eq!(j.dropped(), 0);
        assert!(!j.is_enabled());
    }

    #[test]
    fn zero_capacity_counts_but_keeps_nothing() {
        let j = Journal::with_capacity(0);
        j.record(Duration::ZERO, "k", "x");
        assert!(j.is_empty());
        assert_eq!(j.dropped(), 1);
    }
}
