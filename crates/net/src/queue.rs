//! Bounded drop-tail FIFO queues.
//!
//! Every switch output port owns one. Queue *length in packets* is the
//! quantity the paper's traffic-engineering applications sonify (<25
//! packets → low tone, 25–75 → mid, >75 → high; §6), so the queue exposes
//! exactly that, plus drop accounting.

use crate::packet::Packet;
use std::collections::VecDeque;

/// Outcome of an enqueue attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Enqueue {
    /// Packet accepted.
    Ok,
    /// Packet dropped: the queue was full.
    Dropped,
}

/// A bounded FIFO packet queue with drop-tail semantics.
///
/// ```
/// use mdn_net::queue::{PacketQueue, Enqueue};
/// use mdn_net::packet::{Packet, FlowKey, Ip};
/// use std::time::Duration;
///
/// let flow = FlowKey::udp(Ip::v4(10, 0, 0, 1), 1, Ip::v4(10, 0, 0, 2), 2);
/// let mut q = PacketQueue::new(2);
/// assert_eq!(q.enqueue(Packet::new(flow, 100, 0, Duration::ZERO)), Enqueue::Ok);
/// assert_eq!(q.enqueue(Packet::new(flow, 100, 1, Duration::ZERO)), Enqueue::Ok);
/// assert_eq!(q.enqueue(Packet::new(flow, 100, 2, Duration::ZERO)), Enqueue::Dropped);
/// assert_eq!(q.dequeue().unwrap().seq, 0); // FIFO
/// ```
#[derive(Debug, Clone)]
pub struct PacketQueue {
    items: VecDeque<Packet>,
    capacity: usize,
    /// Total packets accepted over the queue's lifetime.
    pub accepted: u64,
    /// Total packets dropped at the tail.
    pub dropped: u64,
    /// Total bytes accepted.
    pub accepted_bytes: u64,
    /// Deepest occupancy (in packets) ever reached — the congestion
    /// figure the paper's queue tones quantise into low/mid/high bands.
    pub high_water: usize,
    /// Total packets removed by [`PacketQueue::dequeue`] over the queue's
    /// lifetime (i.e. handed to the transmitter).
    pub dequeued: u64,
    /// Total packets discarded by [`PacketQueue::clear`] over the queue's
    /// lifetime (link failures, switch crashes). Together with `dequeued`
    /// and the current occupancy this reconciles exactly against
    /// `accepted`: `accepted == dequeued + cleared + len()`.
    pub cleared: u64,
}

impl PacketQueue {
    /// A queue holding at most `capacity` packets. The ring is allocated
    /// on the first packet that waits in it, not here: an idle port, or
    /// one whose packets all [`pass_through`](Self::pass_through), costs
    /// no buffer however large its capacity.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be non-zero");
        Self {
            items: VecDeque::new(),
            capacity,
            accepted: 0,
            dropped: 0,
            accepted_bytes: 0,
            high_water: 0,
            dequeued: 0,
            cleared: 0,
        }
    }

    /// The configured capacity in packets.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current occupancy in packets — the number the paper's queue-tone
    /// applications report.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no packets are queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Current occupancy in bytes.
    pub fn bytes(&self) -> u64 {
        self.items.iter().map(|p| p.size_bytes as u64).sum()
    }

    /// Enqueue with drop-tail: reject the new packet when full.
    pub fn enqueue(&mut self, packet: Packet) -> Enqueue {
        if self.items.len() >= self.capacity {
            self.dropped += 1;
            return Enqueue::Dropped;
        }
        self.accepted += 1;
        self.accepted_bytes += packet.size_bytes as u64;
        self.items.push_back(packet);
        self.high_water = self.high_water.max(self.items.len());
        Enqueue::Ok
    }

    /// Dequeue the head packet, if any.
    pub fn dequeue(&mut self) -> Option<Packet> {
        let pkt = self.items.pop_front()?;
        self.dequeued += 1;
        if self.items.is_empty() {
            // `VecDeque::clear` rewinds the ring to its first slot, so a
            // port that drains between packets keeps reusing one cache
            // line instead of walking its whole buffer.
            self.items.clear();
        }
        Some(pkt)
    }

    /// Account for a packet of `size` bytes that an idle port hands
    /// straight to its transmitter: exactly what [`enqueue`](Self::enqueue)
    /// and then [`dequeue`](Self::dequeue) would do to the counters of an
    /// empty queue, without touching the ring.
    pub fn pass_through(&mut self, size: u32) {
        debug_assert!(self.items.is_empty(), "only an empty queue passes through");
        self.accepted += 1;
        self.accepted_bytes += size as u64;
        self.high_water = self.high_water.max(1);
        self.dequeued += 1;
    }

    /// Peek at the head packet without removing it.
    pub fn peek(&self) -> Option<&Packet> {
        self.items.front()
    }

    /// Drop everything currently queued (e.g. on link failure or switch
    /// crash) and return how many packets were discarded, so callers can
    /// charge the loss to the right drop counter instead of re-deriving
    /// the occupancy themselves. The count also accumulates into the
    /// lifetime [`cleared`](Self::cleared) counter.
    #[must_use = "cleared packets must be charged to a drop counter"]
    pub fn clear(&mut self) -> usize {
        let drained = self.items.len();
        self.items.clear();
        self.cleared += drained as u64;
        drained
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowKey, Ip};
    use std::time::Duration;

    fn pkt(seq: u64) -> Packet {
        let flow = FlowKey::tcp(Ip::v4(10, 0, 0, 1), 1, Ip::v4(10, 0, 0, 2), 80);
        Packet::new(flow, 1500, seq, Duration::ZERO)
    }

    #[test]
    fn fifo_order_preserved() {
        let mut q = PacketQueue::new(10);
        for i in 0..5 {
            assert_eq!(q.enqueue(pkt(i)), Enqueue::Ok);
        }
        for i in 0..5 {
            assert_eq!(q.dequeue().unwrap().seq, i);
        }
        assert!(q.dequeue().is_none());
    }

    #[test]
    fn drop_tail_when_full() {
        let mut q = PacketQueue::new(2);
        assert_eq!(q.enqueue(pkt(0)), Enqueue::Ok);
        assert_eq!(q.enqueue(pkt(1)), Enqueue::Ok);
        assert_eq!(q.enqueue(pkt(2)), Enqueue::Dropped);
        assert_eq!(q.len(), 2);
        assert_eq!(q.dropped, 1);
        assert_eq!(q.accepted, 2);
        // The head is still the oldest packet (tail drop, not head drop).
        assert_eq!(q.peek().unwrap().seq, 0);
    }

    #[test]
    fn byte_accounting() {
        let mut q = PacketQueue::new(10);
        q.enqueue(pkt(0));
        q.enqueue(pkt(1));
        assert_eq!(q.bytes(), 3000);
        assert_eq!(q.accepted_bytes, 3000);
        q.dequeue();
        assert_eq!(q.bytes(), 1500);
        assert_eq!(q.accepted_bytes, 3000); // lifetime counter unchanged
    }

    #[test]
    fn clear_empties_queue_and_reports_drained_count() {
        let mut q = PacketQueue::new(10);
        q.enqueue(pkt(0));
        q.enqueue(pkt(1));
        assert_eq!(q.clear(), 2);
        assert!(q.is_empty());
        assert_eq!(q.accepted, 2); // lifetime counters survive clear
        assert_eq!(q.cleared, 2);
        assert_eq!(q.clear(), 0, "clearing an empty queue drains nothing");
        assert_eq!(q.cleared, 2);
    }

    #[test]
    fn lifetime_counters_reconcile() {
        let mut q = PacketQueue::new(3);
        for i in 0..5 {
            q.enqueue(pkt(i)); // 3 accepted, 2 tail-dropped
        }
        q.dequeue();
        let _ = q.clear(); // 2 cleared
        q.enqueue(pkt(5));
        assert_eq!(q.accepted, 4);
        assert_eq!(q.dropped, 2);
        assert_eq!(q.dequeued, 1);
        assert_eq!(q.cleared, 2);
        assert_eq!(
            q.accepted,
            q.dequeued + q.cleared + q.len() as u64,
            "accepted == dequeued + cleared + in_flight"
        );
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        PacketQueue::new(0);
    }

    #[test]
    fn high_water_tracks_deepest_occupancy() {
        let mut q = PacketQueue::new(10);
        q.enqueue(pkt(0));
        q.enqueue(pkt(1));
        q.enqueue(pkt(2));
        assert_eq!(q.high_water, 3);
        q.dequeue();
        q.dequeue();
        assert_eq!(q.high_water, 3, "high-water mark never recedes");
        q.enqueue(pkt(3));
        assert_eq!(q.high_water, 3);
        for i in 4..8 {
            q.enqueue(pkt(i));
        }
        assert_eq!(q.high_water, 6);
        let _ = q.clear();
        assert_eq!(q.high_water, 6, "clear keeps lifetime accounting");
    }

    #[test]
    fn dequeue_frees_capacity() {
        let mut q = PacketQueue::new(1);
        q.enqueue(pkt(0));
        assert_eq!(q.enqueue(pkt(1)), Enqueue::Dropped);
        q.dequeue();
        assert_eq!(q.enqueue(pkt(2)), Enqueue::Ok);
    }
}
