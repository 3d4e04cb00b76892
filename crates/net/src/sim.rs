//! Discrete-event engine.
//!
//! A deterministic event queue over virtual time. Ties are broken by
//! insertion order, so simulations are exactly reproducible run-to-run —
//! the property that lets every figure in this repo regenerate bit-for-bit.
//!
//! [`EventQueue`] keeps each event inline in the FIFO lane of its delay,
//! with the lanes' front keys in one contiguous array, so a pop is a scan
//! of nine adjacent keys and a read from one lane's head. The frame
//! events ([`Event::Deliver`], [`Event::PortFree`]) carry the
//! [`LinkId`] they crossed, so the network tests a frame's epoch against
//! its link without looking the link up.

use crate::ftable::PortId;
use crate::link::LinkId;
use crate::packet::Packet;
use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

/// Identifies a node in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// An event scheduled on the virtual timeline.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A packet finishes crossing `link` and arrives at its far end.
    Deliver {
        /// The packet.
        packet: Packet,
        /// The link the packet crossed.
        link: LinkId,
        /// True when the packet arrives at the link's `b` end, false for
        /// its `a` end.
        to_b: bool,
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
        /// The port's link.
        link: LinkId,
        /// The link's up-epoch when serialization started; an
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

/// A queue key, ordered as `(at, seq)`: the event's time in whole
/// nanoseconds in the high 64 bits, its schedule sequence number in the
/// low 64. `seq` is unique, so no two pending keys are equal. A time of
/// `u64::MAX` ns (584 years) or more saturates there; only the overflow
/// map holds such events, ordered by their full time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key(u128);

impl Key {
    fn new(at_ns: u64, seq: u64) -> Self {
        Key(u128::from(at_ns) << 64 | u128::from(seq))
    }

    fn saturating(at: Duration, seq: u64) -> Self {
        Key::new(u64::try_from(at.as_nanos()).unwrap_or(u64::MAX), seq)
    }

    fn nanos(self) -> u64 {
        (self.0 >> 64) as u64
    }
}

/// The front of an empty lane or overflow map: above every real key.
const EMPTY: Key = Key(u128::MAX);

/// How many delays get a FIFO lane of their own.
const LANES: usize = 8;

/// A deterministic priority queue of timed events, popped in `(at, seq)`
/// order.
///
/// Events wait in FIFO lanes keyed by delay: an event's delay is its time
/// minus the last popped time. Popped times never decrease, so every
/// event pushed onto the lane for delay `d` is at or after that lane's
/// tail, with a larger `seq`, and each lane stays sorted with only
/// `push_back`. A lane holds its events inline, in a ring beside the ring
/// of their keys, and the fronts of the `LANES` (8) lanes and of an
/// ordered overflow map sit in one array: a pop scans those nine adjacent
/// keys, takes the event from the winner's head and copies its next key
/// up. The overflow map holds only the events no lane fits; an emptied
/// lane is given to the next new delay.
#[derive(Debug)]
pub struct EventQueue {
    /// `fronts[i]`: lane `i`'s oldest key; `fronts[LANES]`: the overflow
    /// map's first. [`EMPTY`] where nothing waits.
    fronts: [Key; LANES + 1],
    /// `delays[i]`: the delay lane `i` holds, ns.
    delays: [u64; LANES],
    /// `keys[i]`: the keys queued behind lane `i`'s front, oldest first.
    keys: [VecDeque<Key>; LANES],
    /// `events[i]`: lane `i`'s events, its front's first.
    events: [VecDeque<Event>; LANES],
    /// The events no lane fits, by `(at, seq)`.
    overflow: BTreeMap<(Duration, u64), Event>,
    /// The last popped time; nothing can be queued below it.
    last: Duration,
    /// `last` in ns, or `u64::MAX` once it no longer fits a lane key.
    last_ns: u64,
    len: usize,
    /// The most events ever pending at once.
    peak: usize,
    seq: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self {
            fronts: [EMPTY; LANES + 1],
            delays: [u64::MAX; LANES],
            keys: Default::default(),
            events: Default::default(),
            overflow: BTreeMap::new(),
            last: Duration::ZERO,
            last_ns: 0,
            len: 0,
            peak: 0,
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
        let at = at.max(self.last);
        let seq = self.seq;
        self.seq += 1;
        self.len += 1;
        self.peak = self.peak.max(self.len);
        let ns = u64::try_from(at.as_nanos()).unwrap_or(u64::MAX);
        let lane = if ns < u64::MAX {
            self.lane(ns - self.last_ns)
        } else {
            None
        };
        let Some(i) = lane else {
            self.overflow.insert((at, seq), event);
            self.fronts[LANES] = self.overflow_front();
            return;
        };
        let key = Key::new(ns, seq);
        if self.fronts[i] == EMPTY {
            self.fronts[i] = key;
        } else {
            self.keys[i].push_back(key);
        }
        self.events[i].push_back(event);
    }

    /// The lane holding `delay`, else an empty lane, which takes it.
    fn lane(&mut self, delay: u64) -> Option<usize> {
        self.delays.iter().position(|&d| d == delay).or_else(|| {
            let i = self.fronts[..LANES].iter().position(|&f| f == EMPTY)?;
            self.delays[i] = delay;
            Some(i)
        })
    }

    /// The overflow map's first key, saturated, or [`EMPTY`].
    fn overflow_front(&self) -> Key {
        self.overflow
            .first_key_value()
            .map_or(EMPTY, |(&(at, seq), _)| Key::saturating(at, seq))
    }

    /// The smallest front and where it waits: a lane's index, or
    /// [`LANES`] for the overflow map. [`EMPTY`] when nothing is pending.
    fn min(&self) -> (usize, Key) {
        let mut best = (LANES, self.fronts[LANES]);
        for (i, &key) in self.fronts[..LANES].iter().enumerate() {
            if key < best.1 {
                best = (i, key);
            }
        }
        best
    }

    /// The earliest pending event's time and where it waits, if any.
    fn first(&self) -> Option<(usize, Duration)> {
        if self.len == 0 {
            return None;
        }
        match self.min() {
            (LANES, _) => {
                let (&(at, _), _) = self.overflow.first_key_value()?;
                Some((LANES, at))
            }
            (i, key) => Some((i, Duration::from_nanos(key.nanos()))),
        }
    }

    /// Time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Duration> {
        self.first().map(|(_, at)| at)
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
        let (from, at) = self.first()?;
        if !due(at) {
            return None;
        }
        let event = match self.keys.get_mut(from) {
            Some(keys) => {
                self.last_ns = self.fronts[from].nanos();
                self.fronts[from] = keys.pop_front().unwrap_or(EMPTY);
                self.events[from].pop_front()?
            }
            None => {
                let (_, event) = self.overflow.pop_first()?;
                self.fronts[LANES] = self.overflow_front();
                self.last_ns = u64::try_from(at.as_nanos()).unwrap_or(u64::MAX);
                event
            }
        };
        self.last = at;
        self.len -= 1;
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

    /// The most events ever pending at once.
    pub fn slots(&self) -> usize {
        self.peak
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
        assert_eq!(q.overflow.len(), 1, "no lane fits the new delay");
        assert_eq!(q.fronts[LANES].nanos(), 128_000_000);
        let want = [1, 2, 4, 8, 16, 32, 64, 128, 129];
        assert_eq!(drain_tags(&mut q), want);
    }

    #[test]
    fn an_emptied_lane_is_reused_for_a_new_delay() {
        let mut q = new_delay_after_full_lanes(0);
        assert!(q.overflow.is_empty());
        assert_eq!(q.delays[0], 127_000_000);
        assert!(q.fronts[..LANES].iter().all(|&f| f != EMPTY));
        assert_eq!(q.fronts[0].nanos(), 128_000_000);
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
    fn times_too_late_for_a_lane_key_pop_in_time_order() {
        let mut q = EventQueue::new();
        let edge = Duration::from_nanos(u64::MAX);
        let ns = Duration::from_nanos;
        q.schedule(Duration::MAX, tick(4));
        q.schedule(edge + ns(1), tick(3));
        q.schedule(edge, tick(2));
        q.schedule(edge - ns(1), tick(1));
        q.schedule(ms(1), tick(0));
        assert_eq!(q.overflow.len(), 3, "only lane keys below u64::MAX ns");
        assert_eq!(q.peek_time(), Some(ms(1)));
        assert_eq!(drain_tags(&mut q), [0, 1, 2, 3, 4]);
        // Past a lane key, later schedules clamp to the last pop and keep
        // their order.
        q.schedule(ms(6), tick(5));
        q.schedule(ms(5), tick(6));
        assert_eq!(q.pop(), Some((Duration::MAX, tick(5))));
        assert_eq!(q.pop(), Some((Duration::MAX, tick(6))));
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
