//! Discrete-event engine.
//!
//! A deterministic event queue over virtual time. Ties are broken by
//! insertion order, so simulations are exactly reproducible run-to-run —
//! the property that lets every figure in this repo regenerate bit-for-bit.

use crate::ftable::PortId;
use crate::packet::Packet;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
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
        /// The link's up-epoch when the packet left; an older epoch than
        /// the link's means the link went down while the packet crossed.
        epoch: u32,
    },
    /// `node`'s transmitter on `port` finishes serializing a packet and can
    /// start on the next queued one.
    PortFree {
        /// Transmitting node.
        node: NodeId,
        /// The now-idle port.
        port: PortId,
        /// The port's link's up-epoch when serialization started; an
        /// older epoch than the link's names a frame the link cut off.
        epoch: u32,
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
/// `(at, seq)`, plus the slab slot that holds the event itself. `seq` is
/// unique, so `slot` never decides the order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    secs: u64,
    nanos: u32,
    seq: u64,
    slot: u32,
}

impl Key {
    fn at(&self) -> Duration {
        Duration::new(self.secs, self.nanos)
    }
}

/// How many delays get a FIFO lane of their own.
const LANES: usize = 8;

/// The keys scheduled `delay` after the pop that preceded them, oldest
/// first.
#[derive(Debug)]
struct Lane {
    delay: Duration,
    keys: VecDeque<Key>,
}

/// A deterministic priority queue of timed events, popped in `(at, seq)`
/// order.
///
/// Keys wait in FIFO lanes keyed by delay: a key's delay is its time
/// minus the last popped time. Popped times never decrease, so every key
/// pushed onto the lane for delay `d` is at or after that lane's tail,
/// with a larger `seq`, and each lane stays sorted with only `push_back`.
/// A pop takes the smallest front among at most `LANES` (8) lanes and the
/// top of a binary heap, which holds only the keys no lane fits; an
/// emptied lane is given to the next new delay. The events wait in a
/// slab of slots whose free list recycles a slot as soon as its event
/// pops, so the slab never grows past the most events ever pending at
/// once.
#[derive(Debug, Default)]
pub struct EventQueue {
    lanes: Vec<Lane>,
    heap: BinaryHeap<Reverse<Key>>,
    /// The last popped time; nothing can be queued below it.
    last: Duration,
    len: usize,
    slots: Vec<Option<Event>>,
    free: Vec<u32>,
    seq: u64,
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
        let at = at.max(self.last);
        let key = Key {
            secs: at.as_secs(),
            nanos: at.subsec_nanos(),
            seq: self.seq,
            slot,
        };
        self.seq += 1;
        self.len += 1;
        let delay = at - self.last;
        if let Some(lane) = self.lanes.iter_mut().find(|l| l.delay == delay) {
            lane.keys.push_back(key);
        } else if let Some(lane) = self.lanes.iter_mut().find(|l| l.keys.is_empty()) {
            lane.delay = delay;
            lane.keys.push_back(key);
        } else if self.lanes.len() < LANES {
            let keys = VecDeque::from([key]);
            self.lanes.push(Lane { delay, keys });
        } else {
            self.heap.push(Reverse(key));
        }
    }

    /// The smallest pending key and where it waits: a lane's index, or
    /// [`LANES`] for the heap.
    fn min(&self) -> Option<(usize, Key)> {
        let mut best = self.heap.peek().map(|&Reverse(key)| (LANES, key));
        for (i, lane) in self.lanes.iter().enumerate() {
            if let Some(&key) = lane.keys.front() {
                if best.is_none_or(|(_, b)| key < b) {
                    best = Some((i, key));
                }
            }
        }
        best
    }

    /// Time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Duration> {
        self.min().map(|(_, key)| key.at())
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
        let (from, key) = self.min()?;
        let at = key.at();
        if !due(at) {
            return None;
        }
        match self.lanes.get_mut(from) {
            Some(lane) => lane.keys.pop_front(),
            None => self.heap.pop().map(|Reverse(key)| key),
        };
        self.last = at;
        self.len -= 1;
        let event = self.slots[key.slot as usize]
            .take()
            .expect("a queued key names a filled slot");
        self.free.push(key.slot);
        Some((at, event))
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

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    /// Pop everything; the tags in pop order.
    fn drain_tags(q: &mut EventQueue) -> Vec<u64> {
        std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::Tick { tag } => tag,
                _ => unreachable!(),
            })
            .collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(ms(30), tick(3));
        q.schedule(ms(10), tick(1));
        q.schedule(ms(20), tick(2));
        assert_eq!(drain_tags(&mut q), vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for tag in 0..10 {
            q.schedule(ms(5), tick(tag));
        }
        assert_eq!(drain_tags(&mut q), (0..10).collect::<Vec<_>>());
    }

    /// Keys at 1, 2, 4, …, 128 ms fill every lane and `extra` more wait
    /// at 1 ms. The first pops, then a key at 128 ms brings a new delay,
    /// 127 ms.
    fn new_delay_after_full_lanes(extra: usize) -> EventQueue {
        let mut q = EventQueue::new();
        for tag in (0..LANES).map(|i| 1 << i) {
            q.schedule(ms(tag), tick(tag));
        }
        (0..extra).for_each(|_| q.schedule(ms(1), tick(1)));
        assert_eq!(q.pop(), Some((ms(1), tick(1))));
        q.schedule(ms(128), tick(129));
        q
    }

    #[test]
    fn a_lane_front_and_the_heap_top_tie_in_seq_order() {
        let mut q = new_delay_after_full_lanes(1);
        assert_eq!(q.heap.len(), 1, "no lane fits the new delay");
        let want = [1, 2, 4, 8, 16, 32, 64, 128, 129];
        assert_eq!(drain_tags(&mut q), want);
    }

    #[test]
    fn an_emptied_lane_is_reused_for_a_new_delay() {
        let mut q = new_delay_after_full_lanes(0);
        assert!(q.heap.is_empty());
        assert_eq!((q.lanes.len(), q.lanes[0].delay), (LANES, ms(127)));
        assert_eq!(drain_tags(&mut q), [2, 4, 8, 16, 32, 64, 128, 129]);
    }

    #[test]
    fn peek_time_matches_next_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(ms(7), tick(0));
        q.schedule(ms(3), tick(1));
        assert_eq!(q.peek_time(), Some(ms(3)));
        assert_eq!(q.pop().map(|(at, _)| at), Some(ms(3)));
    }

    #[test]
    fn pop_before_leaves_events_at_the_deadline() {
        let mut q = EventQueue::new();
        q.schedule(ms(4), tick(0));
        q.schedule(ms(5), tick(1));
        assert_eq!(q.pop_before(ms(5)), Some((ms(4), tick(0))));
        assert_eq!(q.pop_before(ms(5)), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((ms(5), tick(1))));
    }

    #[test]
    fn scheduling_before_the_last_pop_is_clamped() {
        let mut q = EventQueue::new();
        q.schedule(ms(10), tick(0));
        q.schedule(ms(10), tick(1));
        q.schedule(ms(30), tick(4));
        assert_eq!(q.pop().map(|(at, _)| at), Some(ms(10)));
        // Time never runs backward: the late event pops at 10 ms, after
        // the tie already waiting there and ahead of the event at 30 ms.
        q.schedule(ms(3), tick(2));
        q.schedule(ms(10), tick(3));
        assert_eq!(q.pop(), Some((ms(10), tick(1))));
        assert_eq!(q.pop(), Some((ms(10), tick(2))));
        assert_eq!(drain_tags(&mut q), [3, 4]);
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
