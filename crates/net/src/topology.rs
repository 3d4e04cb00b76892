//! Topology builders for the paper's testbeds.
//!
//! * [`fn@line`] — h1 — s1 — h2 (the port-knocking and queue-monitoring
//!   setups);
//! * [`rhomboid_rates`] — the §6 load-balancing topology: "four switches
//!   connected in a rhomboid topology, with the two hosts attached to two
//!   opposite vertices of the rhombus";
//! * [`star`] — one switch, many hosts (the telemetry experiments).

use crate::network::Network;
use crate::packet::Ip;
use crate::sim::NodeId;
use std::time::Duration;

/// Handles to a line topology: `h1 — s1 — h2`.
#[derive(Debug, Clone, Copy)]
pub struct LineTopo {
    /// Left host (10.0.0.1).
    pub h1: NodeId,
    /// Right host (10.0.0.2).
    pub h2: NodeId,
    /// The switch. Port 0 faces `h1`, port 1 faces `h2`.
    pub s1: NodeId,
}

/// Build a line topology with the given link rate and latency.
pub fn line(net: &mut Network, rate_bps: u64, latency: Duration) -> LineTopo {
    line_rates(net, rate_bps, rate_bps, latency)
}

/// Build a line topology with distinct ingress (`h1—s1`) and egress
/// (`s1—h2`) rates. A faster ingress makes the switch egress queue the
/// bottleneck — the configuration the paper's §6 queue experiments need
/// (in Mininet the sender's NIC was not the bottleneck either).
pub fn line_rates(
    net: &mut Network,
    ingress_bps: u64,
    egress_bps: u64,
    latency: Duration,
) -> LineTopo {
    let h1 = net.add_host("h1", Ip::v4(10, 0, 0, 1));
    let h2 = net.add_host("h2", Ip::v4(10, 0, 0, 2));
    let s1 = net.add_switch("s1", 2);
    net.connect(h1, 0, s1, 0, ingress_bps, latency);
    net.connect(h2, 0, s1, 1, egress_bps, latency);
    LineTopo { h1, h2, s1 }
}

/// Handles to the rhomboid topology of §6:
///
/// ```text
///            s_top
///           /     \
/// h_src — s_in     s_out — h_dst
///           \     /
///            s_bot
/// ```
///
/// `s_in` port map: 0 = h_src, 1 = s_top, 2 = s_bot.
/// `s_out` port map: 0 = h_dst, 1 = s_top, 2 = s_bot.
/// `s_top`/`s_bot` port map: 0 = s_in side, 1 = s_out side.
#[derive(Debug, Clone, Copy)]
pub struct RhomboidTopo {
    /// Traffic source (10.0.0.1).
    pub h_src: NodeId,
    /// Traffic sink (10.0.0.2).
    pub h_dst: NodeId,
    /// Ingress vertex.
    pub s_in: NodeId,
    /// Upper path vertex.
    pub s_top: NodeId,
    /// Lower path vertex.
    pub s_bot: NodeId,
    /// Egress vertex.
    pub s_out: NodeId,
}

/// Build the rhomboid with distinct access (host↔switch) and core
/// (switch↔switch) rates. Fast access links make the rhombus paths the
/// bottleneck, so queues build at `s_in` — the §6 load-balancing setup.
pub fn rhomboid_rates(
    net: &mut Network,
    access_bps: u64,
    core_bps: u64,
    latency: Duration,
) -> RhomboidTopo {
    let h_src = net.add_host("h_src", Ip::v4(10, 0, 0, 1));
    let h_dst = net.add_host("h_dst", Ip::v4(10, 0, 0, 2));
    let s_in = net.add_switch("s_in", 3);
    let s_top = net.add_switch("s_top", 2);
    let s_bot = net.add_switch("s_bot", 2);
    let s_out = net.add_switch("s_out", 3);
    net.connect(h_src, 0, s_in, 0, access_bps, latency);
    net.connect(s_in, 1, s_top, 0, core_bps, latency);
    net.connect(s_in, 2, s_bot, 0, core_bps, latency);
    net.connect(s_top, 1, s_out, 1, core_bps, latency);
    net.connect(s_bot, 1, s_out, 2, core_bps, latency);
    net.connect(h_dst, 0, s_out, 0, access_bps, latency);
    RhomboidTopo {
        h_src,
        h_dst,
        s_in,
        s_top,
        s_bot,
        s_out,
    }
}

/// Handles to a star topology: `num_hosts` hosts around one switch. Host
/// `i` has IP `10.0.0.(i+1)` and sits on switch port `i`.
#[derive(Debug, Clone)]
pub struct StarTopo {
    /// The hosts, in port order.
    pub hosts: Vec<NodeId>,
    /// The central switch.
    pub switch: NodeId,
}

/// Handles to a two-tier leaf-spine fabric: every leaf connects to every
/// spine, hosts hang off the leaves — the shape a 100+-switch datacenter
/// deployment (one acoustic cell per rack row of leaves) actually has.
#[derive(Debug, Clone)]
pub struct LeafSpineTopo {
    /// Spine switches. Spine `s`'s port `l` faces leaf `l`.
    pub spines: Vec<NodeId>,
    /// Leaf switches. Leaf `l`'s ports `0..hosts_per_leaf` face its
    /// hosts; port `hosts_per_leaf + s` faces spine `s`.
    pub leaves: Vec<NodeId>,
    /// Hosts, leaf-major: `hosts[l * hosts_per_leaf + h]` is host `h` on
    /// leaf `l`, with IP `10.(l/250).(l%250 + 1).(h+1)` — leaves spill
    /// into the second octet 250 at a time, so the first 250 leaves keep
    /// the historical `10.0.(l+1).(h+1)` addresses.
    pub hosts: Vec<NodeId>,
    /// Hosts attached to each leaf.
    pub hosts_per_leaf: usize,
}

impl LeafSpineTopo {
    /// Host `h` on leaf `l`.
    pub fn host(&self, leaf: usize, h: usize) -> NodeId {
        self.hosts[leaf * self.hosts_per_leaf + h]
    }

    /// The IP assigned to host `h` on leaf `l`.
    pub fn host_ip(&self, leaf: usize, h: usize) -> Ip {
        Ip::v4(
            10,
            (leaf / 250) as u8,
            (leaf % 250 + 1) as u8,
            (h + 1) as u8,
        )
    }

    /// The leaf port facing spine `s`.
    pub fn uplink_port(&self, s: usize) -> usize {
        self.hosts_per_leaf + s
    }
}

/// Build a leaf-spine fabric: `leaves × spines` core links at `core_bps`,
/// `leaves × hosts_per_leaf` access links at `access_bps`.
///
/// # Panics
/// Panics if any tier count is zero, `hosts_per_leaf` exceeds 250 (one
/// address octet), or `leaves` exceeds 62 500 (250 per second-octet
/// block, 250 blocks).
pub fn leaf_spine(
    net: &mut Network,
    spines: usize,
    leaves: usize,
    hosts_per_leaf: usize,
    access_bps: u64,
    core_bps: u64,
    latency: Duration,
) -> LeafSpineTopo {
    assert!(spines >= 1, "need at least one spine");
    assert!((1..=62_500).contains(&leaves), "leaves out of range");
    assert!(
        (1..=250).contains(&hosts_per_leaf),
        "hosts_per_leaf out of range"
    );
    let spine_ids: Vec<NodeId> = (0..spines)
        .map(|s| net.add_switch(format!("spine{}", s + 1), leaves))
        .collect();
    let mut leaf_ids = Vec::with_capacity(leaves);
    let mut host_ids = Vec::with_capacity(leaves * hosts_per_leaf);
    for l in 0..leaves {
        let leaf = net.add_switch(format!("leaf{}", l + 1), hosts_per_leaf + spines);
        for h in 0..hosts_per_leaf {
            let ip = Ip::v4(10, (l / 250) as u8, (l % 250 + 1) as u8, (h + 1) as u8);
            let host = net.add_host(format!("h{}-{}", l + 1, h + 1), ip);
            net.connect(host, 0, leaf, h, access_bps, latency);
            host_ids.push(host);
        }
        for (s, &spine) in spine_ids.iter().enumerate() {
            net.connect(leaf, hosts_per_leaf + s, spine, l, core_bps, latency);
        }
        leaf_ids.push(leaf);
    }
    LeafSpineTopo {
        spines: spine_ids,
        leaves: leaf_ids,
        hosts: host_ids,
        hosts_per_leaf,
    }
}

/// Build a star topology.
///
/// # Panics
/// Panics if `num_hosts` is zero or exceeds 250 (the /24 we address from).
pub fn star(net: &mut Network, num_hosts: usize, rate_bps: u64, latency: Duration) -> StarTopo {
    assert!((1..=250).contains(&num_hosts), "num_hosts out of range");
    let switch = net.add_switch("s1", num_hosts);
    let hosts: Vec<NodeId> = (0..num_hosts)
        .map(|i| {
            let h = net.add_host(format!("h{}", i + 1), Ip::v4(10, 0, 0, (i + 1) as u8));
            net.connect(h, 0, switch, i, rate_bps, latency);
            h
        })
        .collect();
    StarTopo { hosts, switch }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ftable::{Action, Match, Rule};
    use crate::packet::FlowKey;
    use crate::traffic::TrafficPattern;

    const MBPS: u64 = 1_000_000;

    #[test]
    fn line_carries_traffic() {
        let mut net = Network::new();
        let t = line(&mut net, 10 * MBPS, Duration::from_micros(10));
        net.install_rule(
            t.s1,
            Rule {
                mat: Match::dst(Ip::v4(10, 0, 0, 2)),
                priority: 1,
                action: Action::Forward(1),
            },
        );
        net.attach_generator(
            t.h1,
            TrafficPattern::Cbr {
                flow: FlowKey::udp(Ip::v4(10, 0, 0, 1), 1, Ip::v4(10, 0, 0, 2), 2),
                pps: 100.0,
                size: 500,
                start: Duration::ZERO,
                stop: Duration::from_millis(100),
            },
        );
        net.drain();
        assert_eq!(net.host(t.h2).rx_packets, 10);
    }

    #[test]
    fn rhomboid_has_two_disjoint_paths() {
        let mut net = Network::new();
        let t = rhomboid_rates(&mut net, 10 * MBPS, 10 * MBPS, Duration::from_micros(10));
        let dst = Match::dst(Ip::v4(10, 0, 0, 2));
        // Route via top only.
        net.install_rule(
            t.s_in,
            Rule {
                mat: dst,
                priority: 1,
                action: Action::Forward(1),
            },
        );
        net.install_rule(
            t.s_top,
            Rule {
                mat: dst,
                priority: 1,
                action: Action::Forward(1),
            },
        );
        net.install_rule(
            t.s_out,
            Rule {
                mat: dst,
                priority: 1,
                action: Action::Forward(0),
            },
        );
        net.attach_generator(
            t.h_src,
            TrafficPattern::Cbr {
                flow: FlowKey::udp(Ip::v4(10, 0, 0, 1), 1, Ip::v4(10, 0, 0, 2), 2),
                pps: 50.0,
                size: 500,
                start: Duration::ZERO,
                stop: Duration::from_millis(200),
            },
        );
        net.drain();
        assert_eq!(net.host(t.h_dst).rx_packets, 10);
        assert_eq!(net.switch(t.s_top).rx_packets, 10);
        assert_eq!(net.switch(t.s_bot).rx_packets, 0);

        // Now also route via bottom and verify the other path works too.
        net.install_rule(
            t.s_bot,
            Rule {
                mat: dst,
                priority: 1,
                action: Action::Forward(1),
            },
        );
        net.install_rule(
            t.s_in,
            Rule {
                mat: dst,
                priority: 2,
                action: Action::Forward(2),
            },
        );
        net.attach_generator(
            t.h_src,
            TrafficPattern::Cbr {
                flow: FlowKey::udp(Ip::v4(10, 0, 0, 1), 1, Ip::v4(10, 0, 0, 2), 2),
                pps: 50.0,
                size: 500,
                start: net.now(),
                stop: net.now() + Duration::from_millis(200),
            },
        );
        net.drain();
        assert_eq!(net.switch(t.s_bot).rx_packets, 10);
        assert_eq!(net.host(t.h_dst).rx_packets, 20);
    }

    #[test]
    fn star_addresses_and_ports_line_up() {
        let mut net = Network::new();
        let t = star(&mut net, 5, MBPS, Duration::ZERO);
        assert_eq!(t.hosts.len(), 5);
        assert_eq!(net.host(t.hosts[2]).ip, Ip::v4(10, 0, 0, 3));
        assert_eq!(net.switch(t.switch).ports.len(), 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn star_rejects_zero_hosts() {
        let mut net = Network::new();
        star(&mut net, 0, MBPS, Duration::ZERO);
    }

    #[test]
    fn leaf_spine_carries_traffic_across_the_spine() {
        let mut net = Network::new();
        let t = leaf_spine(
            &mut net,
            2,
            4,
            1,
            10 * MBPS,
            40 * MBPS,
            Duration::from_micros(10),
        );
        let dst = t.host_ip(1, 0); // h on leaf 2
                                   // leaf1 → spine1 → leaf2 → host.
        net.install_rule(
            t.leaves[0],
            Rule {
                mat: Match::dst(dst),
                priority: 1,
                action: Action::Forward(t.uplink_port(0)),
            },
        );
        net.install_rule(
            t.spines[0],
            Rule {
                mat: Match::dst(dst),
                priority: 1,
                action: Action::Forward(1), // spine port l faces leaf l
            },
        );
        net.install_rule(
            t.leaves[1],
            Rule {
                mat: Match::dst(dst),
                priority: 1,
                action: Action::Forward(0),
            },
        );
        net.attach_generator(
            t.host(0, 0),
            TrafficPattern::Cbr {
                flow: FlowKey::udp(t.host_ip(0, 0), 1, dst, 2),
                pps: 100.0,
                size: 500,
                start: Duration::ZERO,
                stop: Duration::from_millis(100),
            },
        );
        net.drain();
        assert_eq!(net.host(t.host(1, 0)).rx_packets, 10);
        assert_eq!(net.switch(t.spines[0]).rx_packets, 10);
        assert_eq!(net.switch(t.spines[1]).rx_packets, 0);
    }

    #[test]
    fn leaf_spine_scales_past_one_hundred_switches() {
        let mut net = Network::new();
        let t = leaf_spine(
            &mut net,
            8,
            96,
            1,
            MBPS,
            4 * MBPS,
            Duration::from_micros(10),
        );
        assert_eq!(t.spines.len() + t.leaves.len(), 104);
        assert_eq!(t.hosts.len(), 96);
        // Every leaf carries its host port plus one uplink per spine.
        assert_eq!(net.switch(t.leaves[95]).ports.len(), 1 + 8);
        assert_eq!(net.switch(t.spines[0]).ports.len(), 96);
        assert_eq!(net.host(t.host(95, 0)).ip, Ip::v4(10, 0, 96, 1));
    }

    #[test]
    fn leaf_spine_addresses_past_250_leaves() {
        let mut net = Network::new();
        let t = leaf_spine(
            &mut net,
            2,
            260,
            2,
            MBPS,
            4 * MBPS,
            Duration::from_micros(10),
        );
        assert_eq!(t.leaves.len(), 260);
        assert_eq!(t.hosts.len(), 520);
        // The first 250 leaves keep their historical third-octet
        // addresses; leaves beyond spill into the second octet.
        assert_eq!(t.host_ip(0, 0), Ip::v4(10, 0, 1, 1));
        assert_eq!(t.host_ip(249, 1), Ip::v4(10, 0, 250, 2));
        assert_eq!(t.host_ip(250, 0), Ip::v4(10, 1, 1, 1));
        assert_eq!(t.host_ip(259, 1), Ip::v4(10, 1, 10, 2));
        assert_eq!(net.host(t.host(259, 1)).ip, t.host_ip(259, 1));
        // No two hosts collide.
        let mut ips: Vec<Ip> = (0..260)
            .flat_map(|l| (0..2).map(move |h| (l, h)))
            .map(|(l, h)| t.host_ip(l, h))
            .collect();
        ips.sort();
        ips.dedup();
        assert_eq!(ips.len(), 520);
    }

    #[test]
    #[should_panic(expected = "at least one spine")]
    fn leaf_spine_rejects_zero_spines() {
        let mut net = Network::new();
        leaf_spine(&mut net, 0, 4, 1, MBPS, MBPS, Duration::ZERO);
    }
}
