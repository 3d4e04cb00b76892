//! The bounded ring behind [`Journal`](crate::Journal) and
//! [`TraceSink`](crate::TraceSink).
//!
//! A fixed-capacity FIFO: when full, the oldest item is evicted and
//! counted, so a long run cannot grow memory without bound. Every item
//! ever pushed has an all-time index; the ring keeps the index of its
//! oldest retained item, which is exactly the number evicted, so a reader
//! can page through with a cursor ([`Ring::since`]) and see any gap. The
//! default value is disabled: every push is one branch and is dropped
//! uncounted.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Every update leaves the ring valid, but a recorder that panicked while
/// holding the lock is a bug worth surfacing, not papering over.
const POISONED: &str = "a thread panicked while recording into the ring";

#[derive(Debug)]
struct RingInner<T> {
    state: Mutex<RingState<T>>,
    capacity: usize,
}

#[derive(Debug)]
struct RingState<T> {
    items: VecDeque<T>,
    /// All-time index of the oldest retained item: the number evicted
    /// (or rejected at capacity 0).
    evicted: u64,
}

/// A shareable bounded ring; cloning is a cheap `Arc` clone.
#[derive(Debug, Clone)]
pub(crate) struct Ring<T>(Option<Arc<RingInner<T>>>);

impl<T> Default for Ring<T> {
    fn default() -> Self {
        Self::disabled()
    }
}

impl<T> Ring<T> {
    /// A ring keeping the last `capacity` items (capacity 0 keeps none but
    /// still counts them as evicted).
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Self(Some(Arc::new(RingInner {
            state: Mutex::new(RingState {
                items: VecDeque::with_capacity(capacity.min(1024)),
                evicted: 0,
            }),
            capacity,
        })))
    }

    /// A ring that ignores every push.
    pub(crate) const fn disabled() -> Self {
        Self(None)
    }

    /// Is this a live ring?
    pub(crate) fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Append an item, evicting the oldest if the ring is full.
    pub(crate) fn push(&self, item: T) {
        let Some(inner) = &self.0 else { return };
        let mut state = inner.state.lock().expect(POISONED);
        if inner.capacity == 0 {
            state.evicted += 1;
            return;
        }
        if state.items.len() == inner.capacity {
            state.items.pop_front();
            state.evicted += 1;
        }
        state.items.push_back(item);
    }

    /// The retained items, oldest first (empty when disabled).
    pub(crate) fn items(&self) -> Vec<T>
    where
        T: Clone,
    {
        self.since(0).1
    }

    /// Retained items whose all-time index is `>= since`, plus the cursor
    /// to pass as the next `since`. A `since` older than the retained tail
    /// returns from the oldest retained item.
    pub(crate) fn since(&self, since: u64) -> (u64, Vec<T>)
    where
        T: Clone,
    {
        let Some(inner) = &self.0 else {
            return (0, Vec::new());
        };
        let state = inner.state.lock().expect(POISONED);
        let next = state.evicted + state.items.len() as u64;
        let skip = since.saturating_sub(state.evicted) as usize;
        (next, state.items.iter().skip(skip).cloned().collect())
    }

    /// Items evicted from the ring (or rejected at capacity 0).
    pub(crate) fn evicted(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |inner| inner.state.lock().expect(POISONED).evicted)
    }

    /// Items ever pushed (retained + evicted).
    pub(crate) fn total(&self) -> u64 {
        self.0.as_ref().map_or(0, |inner| {
            let state = inner.state.lock().expect(POISONED);
            state.evicted + state.items.len() as u64
        })
    }

    /// Number of retained items.
    pub(crate) fn len(&self) -> usize {
        self.0
            .as_ref()
            .map_or(0, |inner| inner.state.lock().expect(POISONED).items.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(capacity: usize, n: u32) -> Ring<u32> {
        let ring = Ring::with_capacity(capacity);
        for i in 0..n {
            ring.push(i);
        }
        ring
    }

    #[test]
    fn keeps_newest_and_counts_evictions() {
        let ring = filled(3, 5);
        assert_eq!(ring.items(), [2, 3, 4]);
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.evicted(), 2);
        assert_eq!(ring.total(), 5);
    }

    #[test]
    fn cursor_counts_across_eviction() {
        let ring = filled(3, 5);
        // since=4 returns only the newest item; the returned cursor
        // re-fetches nothing until new items arrive.
        let (next, tail) = ring.since(4);
        assert_eq!((next, tail), (5, vec![4]));
        assert_eq!(ring.since(next), (5, Vec::new()));
        // A cursor older than the retained tail clamps to the tail.
        assert_eq!(ring.since(0), (5, vec![2, 3, 4]));
        ring.push(5);
        assert_eq!(ring.since(next), (6, vec![5]));
    }

    #[test]
    fn zero_capacity_counts_but_keeps_nothing() {
        let ring = filled(0, 2);
        assert_eq!(ring.len(), 0);
        assert_eq!(ring.evicted(), 2);
        assert_eq!(ring.total(), 2);
        assert_eq!(ring.since(0), (2, Vec::new()));
    }

    #[test]
    fn disabled_ring_is_inert() {
        let ring = Ring::<u32>::default();
        ring.push(1);
        assert!(!ring.is_enabled());
        assert!(ring.items().is_empty());
        assert_eq!((ring.evicted(), ring.total(), ring.len()), (0, 0, 0));
        assert_eq!(ring.since(0), (0, Vec::new()));
    }
}
