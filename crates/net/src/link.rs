//! Links: rate-limited, fixed-latency, full-duplex pipes between node
//! ports.

use crate::ftable::PortId;
use crate::sim::NodeId;
use std::time::Duration;

/// Identifies a link in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkId(pub usize);

/// One end of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Endpoint {
    /// The node.
    pub node: NodeId,
    /// The port on that node.
    pub port: PortId,
}

/// A wired port's side of its link: the link, and whether the port's
/// frames arrive at the link's `b` end (the port is its `a` end) or at
/// its `a` end.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Wire {
    pub(crate) link: LinkId,
    pub(crate) to_b: bool,
}

/// A full-duplex point-to-point link.
#[derive(Debug, Clone)]
pub struct Link {
    /// One endpoint.
    pub a: Endpoint,
    /// The other endpoint.
    pub b: Endpoint,
    /// Line rate in bits per second.
    pub rate_bps: u64,
    /// One-way propagation latency.
    pub latency: Duration,
    /// Administratively up? (Failure injection flips this.)
    pub up: bool,
    /// Bumped each time the link goes down. A frame carries the epoch it
    /// left in, so a frame cut off by a flap is told from a later one.
    pub epoch: u32,
    /// Packets transmitted onto this link (both directions), lifetime.
    pub tx_packets: u64,
    /// Bytes transmitted onto this link (both directions), lifetime.
    pub tx_bytes: u64,
    /// The last packet size and its serialization delay.
    memo: (u32, Duration),
}

impl Link {
    /// Construct an up link.
    ///
    /// # Panics
    /// Panics if `rate_bps` is zero.
    pub fn new(a: Endpoint, b: Endpoint, rate_bps: u64, latency: Duration) -> Self {
        assert!(rate_bps > 0, "link rate must be non-zero");
        Self {
            a,
            b,
            rate_bps,
            latency,
            up: true,
            epoch: 0,
            tx_packets: 0,
            tx_bytes: 0,
            memo: (0, Duration::ZERO),
        }
    }

    /// Fraction of the line rate consumed by traffic transmitted so far,
    /// over a window of `elapsed` simulated time (0.0 for a zero window).
    /// Can exceed 1.0 when the window undercounts serialization overlap.
    pub fn utilization(&self, elapsed: Duration) -> f64 {
        let secs = elapsed.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        (self.tx_bytes as f64 * 8.0) / (self.rate_bps as f64 * secs)
    }

    /// Serialization delay for `bytes` at the line rate.
    pub fn serialization_delay(&self, bytes: u32) -> Duration {
        Duration::from_secs_f64(bytes as f64 * 8.0 / self.rate_bps as f64)
    }

    /// [`serialization_delay`](Self::serialization_delay), kept for the
    /// last packet size: a link mostly carries one size, and the f64 →
    /// `Duration` conversion is the costly part.
    pub(crate) fn serialization_delay_memo(&mut self, bytes: u32) -> Duration {
        if self.memo.0 != bytes {
            self.memo = (bytes, self.serialization_delay(bytes));
        }
        self.memo.1
    }

    /// The endpoint opposite `from`, or `None` if `from` is not on this
    /// link.
    pub fn other_end(&self, from: Endpoint) -> Option<Endpoint> {
        if from == self.a {
            Some(self.b)
        } else if from == self.b {
            Some(self.a)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ep(n: usize, p: usize) -> Endpoint {
        Endpoint {
            node: NodeId(n),
            port: p,
        }
    }

    #[test]
    fn serialization_delay_scales_with_size() {
        let l = Link::new(ep(0, 0), ep(1, 0), 10_000_000, Duration::from_micros(10));
        // 1500 B at 10 Mbps = 1.2 ms.
        let d = l.serialization_delay(1500);
        assert!((d.as_secs_f64() - 0.0012).abs() < 1e-9);
        assert_eq!(l.serialization_delay(0), Duration::ZERO);
    }

    #[test]
    fn other_end_resolves_both_directions() {
        let l = Link::new(ep(0, 1), ep(2, 3), 1_000_000, Duration::ZERO);
        assert_eq!(l.other_end(ep(0, 1)), Some(ep(2, 3)));
        assert_eq!(l.other_end(ep(2, 3)), Some(ep(0, 1)));
        assert_eq!(l.other_end(ep(9, 9)), None);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_rate_panics() {
        Link::new(ep(0, 0), ep(1, 0), 0, Duration::ZERO);
    }
}
