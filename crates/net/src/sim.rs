//! Discrete-event engine.
//!
//! A deterministic event queue over virtual time. Ties are broken by
//! insertion order, so simulations are exactly reproducible run-to-run —
//! the property that lets every figure in this repo regenerate bit-for-bit.

use crate::ftable::PortId;
use crate::packet::Packet;
use std::time::Duration;

/// Identifies a node in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// An event scheduled on the virtual timeline.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A packet finishes crossing a link and arrives at `node` on `in_port`.
    Deliver {
        /// Receiving node.
        node: NodeId,
        /// Ingress port at the receiver.
        in_port: PortId,
        /// The packet.
        packet: Packet,
    },
    /// `node`'s transmitter on `port` finishes serializing a packet and can
    /// start on the next queued one.
    PortFree {
        /// Transmitting node.
        node: NodeId,
        /// The now-idle port.
        port: PortId,
    },
    /// A traffic generator on `node` should emit its next packet.
    Generate {
        /// Generating host.
        node: NodeId,
        /// Which of the host's generators fired.
        gen_idx: usize,
    },
    /// A caller-scheduled tick; the run loop yields these to the
    /// application layer (e.g. the 300 ms queue-sonification cadence).
    Tick {
        /// Caller-chosen tag.
        tag: u64,
    },
}

/// A queue key: the event's time and schedule sequence number, ordered as
/// `(at, seq)`, plus the slab slot that holds the event itself.
///
/// `(secs, nanos, seq)` reads as one 158-bit number — 64 bits of seconds,
/// 30 of nanoseconds (always below 10⁹ < 2³⁰), 64 of sequence — whose
/// numeric order is the `(at, seq)` order. The radix buckets are indexed
/// by the highest bit in which a key differs from the last popped one.
#[derive(Debug, Clone, Copy)]
struct Key {
    secs: u64,
    seq: u64,
    nanos: u32,
    slot: u32,
}

/// One bucket per bit of the 158-bit key, plus bucket 0 for a key equal
/// to the last popped one.
const BUCKETS: usize = 159;

impl Key {
    fn order(&self) -> (u64, u32, u64) {
        (self.secs, self.nanos, self.seq)
    }

    fn at(&self) -> Duration {
        Duration::new(self.secs, self.nanos)
    }

    /// One plus the position of the highest bit in which `self` differs
    /// from `last`; 0 when they are equal.
    fn bucket(&self, last: &Key) -> usize {
        let secs = self.secs ^ last.secs;
        if secs != 0 {
            return 158 - secs.leading_zeros() as usize;
        }
        let nanos = self.nanos ^ last.nanos;
        if nanos != 0 {
            return 96 - nanos.leading_zeros() as usize;
        }
        64 - (self.seq ^ last.seq).leading_zeros() as usize
    }
}

/// A deterministic priority queue of timed events, popped in `(at, seq)`
/// order.
///
/// It is a radix heap: popped keys never decrease, so a pending key
/// lives in the bucket named by the highest bit in which it differs from
/// the last popped key, and every key in a lower bucket is smaller than
/// every key in a higher one. Scheduling is a push onto one bucket. A pop
/// takes the lowest non-empty bucket's minimum and, when that bucket held
/// more, redistributes the rest into lower buckets relative to the new
/// last key — each pending key moves at most once per bit. The events
/// wait in a slab of slots whose free list recycles a slot as soon as its
/// event pops, so the slab never grows past the most events ever pending
/// at once.
#[derive(Debug)]
pub struct EventQueue {
    buckets: Vec<Vec<Key>>,
    /// Bit `b` of word `b / 64` is set while `buckets[b]` is non-empty.
    occupied: [u64; 3],
    /// The last popped key; nothing can be queued below it.
    last: Key,
    len: usize,
    slots: Vec<Option<Event>>,
    free: Vec<u32>,
    seq: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self {
            buckets: vec![Vec::new(); BUCKETS],
            occupied: [0; 3],
            last: Key {
                secs: 0,
                seq: 0,
                nanos: 0,
                slot: 0,
            },
            len: 0,
            slots: Vec::new(),
            free: Vec::new(),
            seq: 0,
        }
    }
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `event` at absolute virtual time `at`. Time never runs
    /// backward: an `at` before the last popped event's time is queued at
    /// that time instead (after everything already scheduled there).
    pub fn schedule(&mut self, at: Duration, event: Event) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(event);
                slot
            }
            None => {
                self.slots.push(Some(event));
                u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 pending events")
            }
        };
        let at = at.max(self.last.at());
        let key = Key {
            secs: at.as_secs(),
            seq: self.seq,
            nanos: at.subsec_nanos(),
            slot,
        };
        self.seq += 1;
        self.push(key);
        self.len += 1;
    }

    fn push(&mut self, key: Key) {
        let b = key.bucket(&self.last);
        self.buckets[b].push(key);
        self.occupied[b / 64] |= 1 << (b % 64);
    }

    /// The lowest non-empty bucket, if any.
    fn lowest(&self) -> Option<usize> {
        self.occupied
            .iter()
            .enumerate()
            .find(|(_, w)| **w != 0)
            .map(|(i, w)| i * 64 + w.trailing_zeros() as usize)
    }

    /// Index of the smallest key in bucket `b`.
    fn min_in(&self, b: usize) -> usize {
        let bucket = &self.buckets[b];
        (1..bucket.len()).fold(0, |m, i| {
            if bucket[i].order() < bucket[m].order() {
                i
            } else {
                m
            }
        })
    }

    /// Time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Duration> {
        let b = self.lowest()?;
        Some(self.buckets[b][self.min_in(b)].at())
    }

    /// Pop the earliest event.
    pub fn pop(&mut self) -> Option<(Duration, Event)> {
        self.pop_where(|_| true)
    }

    /// Pop the earliest event if it is due strictly before `deadline`.
    pub fn pop_before(&mut self, deadline: Duration) -> Option<(Duration, Event)> {
        self.pop_where(|at| at < deadline)
    }

    fn pop_where(&mut self, due: impl Fn(Duration) -> bool) -> Option<(Duration, Event)> {
        let b = self.lowest()?;
        let i = self.min_in(b);
        let key = self.buckets[b][i];
        if !due(key.at()) {
            return None;
        }
        let mut rest = std::mem::take(&mut self.buckets[b]);
        rest.swap_remove(i);
        self.occupied[b / 64] &= !(1 << (b % 64));
        self.last = key;
        // Relative to the new last key every remaining key of bucket `b`
        // lands in a lower bucket; the higher buckets stay valid.
        for k in rest.drain(..) {
            self.push(k);
        }
        self.buckets[b] = rest;
        self.len -= 1;
        let event = self.slots[key.slot as usize]
            .take()
            .expect("a queued key names a filled slot");
        self.free.push(key.slot);
        Some((key.at(), event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slab slots allocated so far: the most events ever pending at once.
    pub fn slots(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tick(tag: u64) -> Event {
        Event::Tick { tag }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Duration::from_millis(30), tick(3));
        q.schedule(Duration::from_millis(10), tick(1));
        q.schedule(Duration::from_millis(20), tick(2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::Tick { tag } => tag,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = Duration::from_millis(5);
        for tag in 0..10 {
            q.schedule(t, tick(tag));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::Tick { tag } => tag,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_time_matches_next_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(Duration::from_millis(7), tick(0));
        q.schedule(Duration::from_millis(3), tick(1));
        assert_eq!(q.peek_time(), Some(Duration::from_millis(3)));
        let (at, _) = q.pop().unwrap();
        assert_eq!(at, Duration::from_millis(3));
    }

    #[test]
    fn pop_before_leaves_events_at_the_deadline() {
        let mut q = EventQueue::new();
        q.schedule(Duration::from_millis(4), tick(0));
        q.schedule(Duration::from_millis(5), tick(1));
        let deadline = Duration::from_millis(5);
        assert_eq!(
            q.pop_before(deadline),
            Some((Duration::from_millis(4), tick(0)))
        );
        assert_eq!(q.pop_before(deadline), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((deadline, tick(1))));
    }

    #[test]
    fn scheduling_before_the_last_pop_is_clamped() {
        let mut q = EventQueue::new();
        q.schedule(Duration::from_millis(10), tick(0));
        q.schedule(Duration::from_millis(30), tick(1));
        assert_eq!(q.pop().map(|(at, _)| at), Some(Duration::from_millis(10)));
        // Time never runs backward: the late event pops at 10 ms, ahead of
        // the event already waiting at 30 ms.
        q.schedule(Duration::from_millis(3), tick(2));
        assert_eq!(q.pop(), Some((Duration::from_millis(10), tick(2))));
        assert_eq!(q.pop(), Some((Duration::from_millis(30), tick(1))));
    }

    #[test]
    fn len_and_empty_track_contents() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(Duration::ZERO, tick(0));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }
}
