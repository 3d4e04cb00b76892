//! The packet plane's indexed structures against their plain reference
//! models: the hash-indexed flow table against a linear scan in
//! rank order, and the delay-lane event queue against a `BinaryHeap` on
//! `(at, seq)`. Both references live only here. Also the sampled
//! dispatch timing's counts against an independent count of dispatched
//! events, under any split of the run, and the queue accounting of the
//! idle-port pass-through against the identities the ring path keeps,
//! under link flaps and switch crashes. And runs with every host's
//! receive log on against the same runs with it off: the log records
//! and changes nothing else. The queue, table and queue-accounting
//! proofs count the case classes their inputs reach and fail naming any
//! class no case hit, so a narrowed generator cannot pass silently.

use mdn_net::flow::hash_flow;
use mdn_net::ftable::{Action, Decision, FlowTable, Match, PortId, Rule};
use mdn_net::packet::{FlowKey, Ip};
use mdn_net::sim::{Event, EventQueue, NodeId};
use mdn_net::topology::{leaf_spine, star, StarTopo};
use mdn_net::traffic::TrafficPattern;
use mdn_net::{Network, RunOutcome};
use mdn_obs::Registry;
use proptest::prelude::*;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashSet, VecDeque};
use std::time::Duration;

/// The flow table as a single rank-ordered list, scanned front to back.
/// Each rule carries its own round-robin pointer.
#[derive(Default)]
struct LinearTable {
    rules: Vec<(Rule, usize)>,
    lookups: u64,
    misses: u64,
}

impl LinearTable {
    fn install(&mut self, rule: Rule) {
        let pos = self
            .rules
            .iter()
            .position(|(r, _)| r.priority < rule.priority)
            .unwrap_or(self.rules.len());
        self.rules.insert(pos, (rule, 0));
    }

    fn remove(&mut self, mat: &Match) -> usize {
        let before = self.rules.len();
        self.rules.retain(|(r, _)| &r.mat != mat);
        before - self.rules.len()
    }

    fn lookup(&mut self, in_port: PortId, flow: &FlowKey) -> Decision {
        self.lookups += 1;
        for (rule, rr) in &mut self.rules {
            if rule.mat.matches(in_port, flow) {
                return match &rule.action {
                    Action::Forward(p) => Decision::Forward(*p),
                    Action::Drop => Decision::Drop,
                    Action::SplitByFlow(ports) => {
                        Decision::Forward(ports[(hash_flow(flow) % ports.len() as u64) as usize])
                    }
                    Action::SplitRoundRobin(ports) => {
                        let i = *rr % ports.len();
                        *rr += 1;
                        Decision::Forward(ports[i])
                    }
                };
            }
        }
        self.misses += 1;
        Decision::Miss
    }
}

/// A small address space so that rules and packets collide often.
fn ip(n: u8) -> Ip {
    Ip::v4(10, 0, 0, 1 + n % 4)
}

fn transport_port(n: u8) -> u16 {
    [80, 443, 9][n as usize % 3]
}

fn flow_from(a: u8, b: u8) -> FlowKey {
    let (src, dst) = (ip(a), ip((a / 4).wrapping_add(b)));
    if b.is_multiple_of(2) {
        FlowKey::tcp(src, 40_000, dst, transport_port(b / 2))
    } else {
        FlowKey::udp(src, 40_000, dst, transport_port(b / 2))
    }
}

/// One of the match shapes rules are installed and removed with.
fn match_from(shape: u8, a: u8, b: u8) -> Match {
    match shape % 7 {
        0 => Match::dst(ip(a)),
        1 => Match::ANY,
        2 => Match {
            in_port: Some(a as usize % 3),
            ..Match::ANY
        },
        3 => Match::exact(&flow_from(a, b)),
        4 => Match::dst_transport_port(transport_port(a)),
        5 => Match {
            in_port: Some(b as usize % 3),
            ..Match::dst(ip(a))
        },
        _ => Match {
            src_ip: Some(ip(b)),
            ..Match::ANY
        },
    }
}

fn action_from(n: u8) -> Action {
    match n % 6 {
        0 | 1 => Action::Forward(n as usize % 4),
        2 => Action::Drop,
        3 => Action::SplitByFlow(vec![1, 2, 3]),
        4 => Action::SplitRoundRobin(vec![1, 2]),
        _ => Action::SplitRoundRobin(vec![3, 4, 5]),
    }
}

/// Delays after the last pop for the queue proptest: more distinct values
/// than the queue has lanes. Multiples of 250 ms make equal times from
/// different delays, the nanosecond pair straddles a second boundary,
/// 5.8, 8 and 13 µs and 2.5 ms are delays a `fabric` run's lanes hold,
/// and the last is far ahead.
const DELAYS: [Duration; 13] = [
    Duration::ZERO,
    Duration::from_nanos(1),
    Duration::from_nanos(999_999_999),
    Duration::from_nanos(5_800),
    Duration::from_micros(8),
    Duration::from_micros(13),
    Duration::from_micros(2_500),
    Duration::from_millis(250),
    Duration::from_millis(500),
    Duration::from_millis(750),
    Duration::from_millis(1_000),
    Duration::from_millis(1_250),
    Duration::from_secs(1 << 40),
];

/// A test event whose tag records the order it was scheduled in.
fn tick(tag: u64) -> Event {
    Event::Tick { tag }
}

/// The schedule order a test event carries.
fn tag_of(event: &Event) -> u64 {
    match event {
        Event::Tick { tag } => *tag,
        Event::Generate { gen_idx, .. } => *gen_idx as u64,
        other => panic!("unexpected event {other:?}"),
    }
}

/// The dispatch-timing kinds, in the order [`dispatch_counts`] reports.
const KINDS: [&str; 3] = ["generate", "port_free", "deliver"];

/// A four-host star with a route to every host and one Poisson flow per
/// `(src, dst, pps, seed)`, observed by a fresh registry.
fn star_network(flows: &[(u8, u8, u16, u64)], ticks: &[u64]) -> (Network, StarTopo, Registry) {
    let mut net = Network::new();
    let topo = star(&mut net, 4, 10_000_000, Duration::from_micros(20));
    for rule in star_routes() {
        net.install_rule(topo.switch, rule);
    }
    for &(src, dst, pps, seed) in flows {
        let (src, dst) = (src % 4, (src % 4 + 1 + dst % 3) % 4);
        net.attach_generator(
            topo.hosts[src as usize],
            TrafficPattern::Poisson {
                flow: FlowKey::udp(
                    Ip::v4(10, 0, 0, src + 1),
                    4000,
                    Ip::v4(10, 0, 0, dst + 1),
                    9,
                ),
                mean_pps: f64::from(pps),
                size: 1200,
                start: Duration::from_millis(u64::from(src)),
                stop: Duration::from_millis(300),
                seed,
            },
        );
    }
    for (tag, &ms) in ticks.iter().enumerate() {
        net.schedule_tick(Duration::from_millis(ms), tag as u64);
    }
    let registry = Registry::new();
    net.attach_obs(&registry);
    (net, topo, registry)
}

/// `(count, sum)` of each kind's `mdn_net_dispatch_ns` histogram, in
/// [`KINDS`] order, then the `kind="all"` count.
fn dispatch_counts(registry: &Registry) -> ([(u64, u64); 3], u64) {
    let hist = |kind: &str| registry.histogram("mdn_net_dispatch_ns", &[("kind", kind)]);
    (
        KINDS.map(|kind| (hist(kind).count(), hist(kind).sum())),
        hist("all").count(),
    )
}

/// Counts every event the network dispatched, kind by kind, without the
/// timing: each transmission schedules one `PortFree` and one `Deliver`,
/// and every other non-tick pop is a `Generate`. Valid once the queue is
/// empty.
fn independent_counts(net: &Network, topo: &StarTopo, ticks: u64) -> [u64; 3] {
    let tx: u64 = topo
        .hosts
        .iter()
        .map(|&h| net.link(net.link_at(h, 0).expect("host link")).tx_packets)
        .sum();
    [net.events_processed() - ticks - 2 * tx, tx, tx]
}

/// A test network, its hosts, and each switch with the rules it is
/// given at build time and again after every restart.
struct Fabric {
    net: Network,
    hosts: Vec<NodeId>,
    switches: Vec<(NodeId, Vec<Rule>)>,
}

impl Fabric {
    /// Install switch `i`'s rules.
    fn install(&mut self, i: usize) {
        let (switch, rules) = &self.switches[i];
        for rule in rules {
            self.net.install_rule(*switch, rule.clone());
        }
    }

    /// Run to completion under `(at_us, kind, len_us)` faults. Fault `i`
    /// starts at tick 2i and ends at tick 2i + 1, `len` µs later. A kind
    /// below the host count flaps that host's link; any other kind
    /// crashes switch `(kind - hosts) % switches`, which restarts with its
    /// rules reinstalled. Returns how many link-downs found a frame being
    /// serialized onto the link and how many crashes found one on a port
    /// of the switch.
    fn run_faulted(&mut self, faults: &[(u64, usize, u64)]) -> (usize, usize) {
        for (i, &(at, _, len)) in faults.iter().enumerate() {
            self.net
                .schedule_tick(Duration::from_micros(at), 2 * i as u64);
            self.net
                .schedule_tick(Duration::from_micros(at + len), 2 * i as u64 + 1);
        }
        let (mut cut_frames, mut crashes_mid_frame) = (0, 0);
        while let RunOutcome::Tick { tag, .. } = self.net.run_until(Duration::from_secs(10)) {
            let (start, kind) = (tag % 2 == 0, faults[tag as usize / 2].1);
            if let Some(&host) = self.hosts.get(kind) {
                let link = self.net.link_at(host, 0).expect("host link");
                let l = self.net.link(link);
                let sending = [l.a, l.b]
                    .iter()
                    .any(|end| self.net.node(end.node).port(end.port).busy);
                cut_frames += usize::from(start && l.up && sending);
                self.net.set_link_up(link, !start);
                continue;
            }
            let (switch, i) = {
                let i = (kind - self.hosts.len()) % self.switches.len();
                (self.switches[i].0, i)
            };
            if start {
                let s = self.net.switch(switch);
                let sending = s.ports.iter().any(|p| p.busy);
                crashes_mid_frame += usize::from(!s.crashed && sending);
                self.net.crash_switch(switch);
            } else {
                self.net.restart_switch(switch);
                self.install(i);
            }
        }
        self.net.drain();
        (cut_frames, crashes_mid_frame)
    }
}

/// A UDP flow of `size`-byte packets from `src` to `dst` over the first
/// 300 ms, at `pps` (CBR) or a Poisson mean of `pps` seeded by `seed`.
fn pattern(src: Ip, dst: Ip, size: u32, pps: u16, seed: u64, cbr: bool) -> TrafficPattern {
    let flow = FlowKey::udp(src, 4000, dst, 9);
    let (start, stop) = (
        Duration::from_micros(u64::from(pps) % 977),
        Duration::from_millis(300),
    );
    if cbr {
        TrafficPattern::Cbr {
            flow,
            pps: f64::from(pps),
            size,
            start,
            stop,
        }
    } else {
        TrafficPattern::Poisson {
            flow,
            mean_pps: f64::from(pps),
            size,
            start,
            stop,
            seed,
        }
    }
}

/// A four-host star whose switch ports hold `capacity` packets, hosts on
/// alternating 10 and 100 Mb/s links, with a route to every host and one
/// CBR or Poisson flow of 1200-byte packets per
/// `(src, dst, pps, seed, cbr)`.
fn small_queue_star(flows: &[(u8, u8, u16, u64, bool)], capacity: usize) -> Fabric {
    let mut net = Network::new();
    let switch = net.add_switch_with_queue("s1", 4, capacity);
    let hosts: Vec<NodeId> = (0..4u8)
        .map(|h| {
            let host = net.add_host(format!("h{}", h + 1), Ip::v4(10, 0, 0, h + 1));
            let rate = if h % 2 == 0 { 10_000_000 } else { 100_000_000 };
            net.connect(host, 0, switch, h as usize, rate, Duration::from_micros(20));
            host
        })
        .collect();
    for &(src, dst, pps, seed, cbr) in flows {
        let (src, dst) = (src % 4, (src % 4 + 1 + dst % 3) % 4);
        let (from, to) = (Ip::v4(10, 0, 0, src + 1), Ip::v4(10, 0, 0, dst + 1));
        net.attach_generator(hosts[src as usize], pattern(from, to, 1200, pps, seed, cbr));
    }
    let mut fabric = Fabric {
        net,
        hosts,
        switches: vec![(switch, star_routes())],
    };
    fabric.install(0);
    fabric
}

/// A leaf-spine fabric of two spines and three leaves with two hosts
/// each, every link at 10 Mb/s and every switch port holding the default
/// 100 packets. Each switch has a route to every host, and each leaf
/// spreads the rest over its uplinks by flow hash. One CBR or Poisson
/// flow per `(src, dst, pps, seed, cbr)`, its packet size drawn from its
/// rate.
fn small_leaf_spine(flows: &[(u8, u8, u16, u64, bool)]) -> Fabric {
    let mut net = Network::new();
    let topo = leaf_spine(
        &mut net,
        2,
        3,
        2,
        10_000_000,
        10_000_000,
        Duration::from_micros(20),
    );
    let ips: Vec<Ip> = (0..6).map(|i| topo.host_ip(i / 2, i % 2)).collect();
    let route = |host: usize, port: usize| Rule {
        mat: Match::dst(ips[host]),
        priority: 10,
        action: Action::Forward(port),
    };
    let mut switches: Vec<(NodeId, Vec<Rule>)> = topo
        .spines
        .iter()
        .map(|&spine| (spine, (0..6).map(|h| route(h, h / 2)).collect()))
        .collect();
    for (l, &leaf) in topo.leaves.iter().enumerate() {
        let mut rules: Vec<Rule> = (2 * l..2 * l + 2).map(|h| route(h, h % 2)).collect();
        rules.push(Rule {
            mat: Match::ANY,
            priority: 0,
            action: Action::SplitByFlow(vec![topo.uplink_port(0), topo.uplink_port(1)]),
        });
        switches.push((leaf, rules));
    }
    for &(src, dst, pps, seed, cbr) in flows {
        let (src, dst) = (
            src as usize % 6,
            (src as usize % 6 + 1 + dst as usize % 5) % 6,
        );
        let size = 64 + u32::from(pps) % 1400;
        net.attach_generator(
            topo.hosts[src],
            pattern(ips[src], ips[dst], size, pps, seed, cbr),
        );
    }
    let mut fabric = Fabric {
        net,
        hosts: topo.hosts,
        switches,
    };
    for i in 0..fabric.switches.len() {
        fabric.install(i);
    }
    fabric
}

/// A route to each of the four star hosts, on the port of the same index.
fn star_routes() -> Vec<Rule> {
    (0..4u8)
        .map(|h| Rule {
            mat: Match::dst(Ip::v4(10, 0, 0, h + 1)),
            priority: 1,
            action: Action::Forward(h as usize),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// One `drain`, one `run_until`, and random `run_until` slices with
    /// ticks interleaved all leave the same per-kind dispatch counts,
    /// equal to an independent count. After every return the counts
    /// cover exactly the events popped so far, and every kind that ran
    /// has a timed sample behind it.
    #[test]
    fn dispatch_counts_are_exact_under_any_window_split(
        flows in prop::collection::vec((any::<u8>(), any::<u8>(), 50u16..1500, any::<u64>()), 1..6),
        ticks in prop::collection::vec(0u64..400, 0..12),
        slices in prop::collection::vec(1u64..40, 1..30),
    ) {
        let (mut drained, topo, reg) = star_network(&flows, &ticks);
        drained.drain();
        let (counts, all) = dispatch_counts(&reg);
        let want = independent_counts(&drained, &topo, ticks.len() as u64);
        prop_assert_eq!(counts.map(|(n, _)| n), want);
        prop_assert_eq!(all, want.iter().sum::<u64>());
        for (n, sum) in counts {
            prop_assert!(n == 0 || sum > 0, "a kind that ran was timed");
        }

        let (mut once, topo, reg) = star_network(&flows, &[]);
        prop_assert_eq!(once.run_until(Duration::from_secs(10)), RunOutcome::Exhausted);
        prop_assert_eq!(dispatch_counts(&reg).0.map(|(n, _)| n), want);
        prop_assert_eq!(independent_counts(&once, &topo, 0), want);

        let (mut sliced, topo, reg) = star_network(&flows, &ticks);
        let mut ticks_seen = 0u64;
        let mut deadline = Duration::ZERO;
        for ms in slices.into_iter().chain([10_000]) {
            deadline += Duration::from_millis(ms);
            loop {
                let ticked = matches!(sliced.run_until(deadline), RunOutcome::Tick { .. });
                ticks_seen += u64::from(ticked);
                let (counts, all) = dispatch_counts(&reg);
                let dispatched: u64 = counts.iter().map(|(n, _)| n).sum();
                prop_assert_eq!(dispatched, sliced.events_processed() - ticks_seen);
                prop_assert_eq!(all, dispatched);
                if !ticked {
                    break;
                }
            }
        }
        prop_assert_eq!(ticks_seen, ticks.len() as u64);
        let (counts, _) = dispatch_counts(&reg);
        prop_assert_eq!(counts.map(|(n, _)| n), want);
        prop_assert_eq!(independent_counts(&sliced, &topo, ticks_seen), want);
        for (n, sum) in counts {
            prop_assert!(n == 0 || sum > 0, "a kind that ran was timed");
        }
    }

    /// The receive log only records. Over random stars with small switch
    /// queues and random leaf-spines, CBR and Poisson flows, and scripted
    /// link flaps and switch crash/restarts, a run with every host's log
    /// on and the same run with it off leave the same network counters,
    /// event count, per-host receive counters and per-port queue
    /// accounting. The logs hold exactly one record per packet received
    /// and sum to the bytes received; the unlogged hosts hold none.
    #[test]
    fn receive_log_changes_nothing_but_itself(
        flows in prop::collection::vec((any::<u8>(), any::<u8>(), 50u16..4000, any::<u64>(), any::<bool>()), 1..6),
        capacity in 1usize..5,
        leaf_spine in any::<bool>(),
        faults in prop::collection::vec((0u64..300_000, 0usize..11, 0u64..3_000), 0..8),
    ) {
        let run = |log: bool| {
            let mut fabric = if leaf_spine {
                small_leaf_spine(&flows)
            } else {
                small_queue_star(&flows, capacity)
            };
            if log {
                for &h in &fabric.hosts {
                    fabric.net.host_mut(h).enable_rx_log();
                }
            }
            fabric.run_faulted(&faults);
            fabric
        };
        let (on, off) = (run(true), run(false));
        let (a, b) = (&on.net, &off.net);
        prop_assert_eq!(a.counters, b.counters);
        prop_assert_eq!(a.events_processed(), b.events_processed());
        prop_assert_eq!(a.queue_stats(), b.queue_stats());
        let mut received = 0;
        for &h in &on.hosts {
            let (x, y) = (a.host(h), b.host(h));
            prop_assert_eq!((x.rx_packets, x.rx_bytes), (y.rx_packets, y.rx_bytes));
            let (qx, qy) = (&x.port.queue, &y.port.queue);
            prop_assert_eq!(
                (qx.accepted, qx.dequeued, qx.dropped, qx.high_water),
                (qy.accepted, qy.dequeued, qy.dropped, qy.high_water)
            );
            prop_assert_eq!(x.rx_log.len() as u64, x.rx_packets);
            prop_assert_eq!(x.rx_log.iter().map(|r| u64::from(r.size_bytes)).sum::<u64>(), x.rx_bytes);
            prop_assert!(y.rx_log.is_empty());
            received += x.rx_packets;
        }
        prop_assert_eq!(received, a.counters.delivered);
    }
}

/// Fail naming every case class of `want` that no case hit.
fn assert_all_hit(hit: &BTreeSet<&str>, want: &[&str]) {
    let missed: Vec<&str> = want.iter().copied().filter(|c| !hit.contains(c)).collect();
    assert!(missed.is_empty(), "case classes never hit: {missed:?}");
}

/// An address of a 512-address space, scattered over 10.1.0.0/16 (an
/// odd multiplier is a bijection on the low 16 bits): routes to a few
/// hundred of them at once make a table's destination index collide and
/// grow, where consecutive addresses would each hash to a slot of their
/// own.
fn wide_ip(n: u16) -> Ip {
    Ip(Ip::v4(10, 1, 0, 0).0 | u32::from(n.wrapping_mul(0xF491)))
}

/// Install `rule` in both tables, then true when it routes to a
/// destination in `emptied`, which it takes out.
fn install_both(
    table: &mut FlowTable,
    reference: &mut LinearTable,
    emptied: &mut HashSet<Ip>,
    rule: Rule,
) -> bool {
    table.install(rule.clone());
    let reinstalled = rule.mat.dst_ip.is_some_and(|ip| emptied.remove(&ip));
    reference.install(rule);
    reinstalled
}

/// Every lookup decision, the match order, the rule count and the
/// lookup/miss counters of the indexed table equal a linear scan's,
/// over random installs, removes (absent matches included) and lookups
/// at colliding priorities. Bursts route to 300 or more destinations at
/// once, and sweeps remove every rule of some of them, emptying their
/// buckets, then reinstall half of those.
#[test]
fn flow_table_index_matches_linear_scan() {
    let hit = RefCell::new(BTreeSet::new());
    let strategy = (prop::collection::vec(
        (0u8..12, any::<u8>(), any::<u8>(), any::<u8>(), 0u8..4),
        1..160,
    ),);
    proptest::runner::run(
        "flow_table_index_matches_linear_scan",
        &ProptestConfig::with_cases(200),
        &strategy,
        |(ops,)| {
            let mut hit = hit.borrow_mut();
            let mut table = FlowTable::new();
            let mut reference = LinearTable::default();
            let mut emptied = HashSet::new();
            let mut removed_any = false;
            for (op, a, b, c, prio) in ops {
                let priority = [0, 1, 5, 10][prio as usize];
                match op {
                    0..=3 => {
                        let rule = Rule {
                            mat: match_from(c, a, b),
                            priority,
                            action: action_from(a ^ b),
                        };
                        if install_both(&mut table, &mut reference, &mut emptied, rule) {
                            hit.insert("an emptied bucket reinstalled");
                        }
                    }
                    4 | 11 => {
                        // One match, or a sweep over every fifth wide
                        // destination's plain route and port-1 route.
                        let mats: Vec<Match> = if op == 4 {
                            vec![match_from(c, a, b)]
                        } else {
                            (u16::from(a % 5)..512)
                                .step_by(5)
                                .flat_map(|n| {
                                    let plain = Match::dst(wide_ip(n));
                                    [
                                        plain,
                                        Match {
                                            in_port: Some(1),
                                            ..plain
                                        },
                                    ]
                                })
                                .collect()
                        };
                        for mat in &mats {
                            let removed = table.remove(mat);
                            prop_assert_eq!(removed, reference.remove(mat));
                            removed_any |= removed > 0;
                            let Some(dst) = mat.dst_ip else { continue };
                            let left = reference
                                .rules
                                .iter()
                                .any(|(r, _)| r.mat.dst_ip == Some(dst));
                            if removed > 0 && !left {
                                emptied.insert(dst);
                            }
                        }
                        if op == 11 {
                            for mat in mats.iter().step_by(4) {
                                let action = Action::Forward(usize::from(c % 4));
                                let rule = Rule {
                                    mat: *mat,
                                    priority,
                                    action,
                                };
                                if install_both(&mut table, &mut reference, &mut emptied, rule) {
                                    hit.insert("an emptied bucket reinstalled");
                                }
                            }
                        }
                    }
                    10 if reference.rules.len() < 400 => {
                        for n in 0..300 + u16::from(a % 64) {
                            let n = n.wrapping_mul(u16::from(b | 1)) % 512;
                            let mat = if n % 7 == 0 {
                                Match {
                                    in_port: Some(1),
                                    ..Match::dst(wide_ip(n))
                                }
                            } else {
                                Match::dst(wide_ip(n))
                            };
                            let action = action_from(c ^ n as u8);
                            let rule = Rule {
                                mat,
                                priority,
                                action,
                            };
                            if install_both(&mut table, &mut reference, &mut emptied, rule) {
                                hit.insert("an emptied bucket reinstalled");
                            }
                        }
                    }
                    _ => {
                        let in_port = c as usize % 3;
                        let flow = if op == 9 {
                            let dst = wide_ip(u16::from_le_bytes([a, b]) % 512);
                            FlowKey::udp(ip(c), 40_000, dst, transport_port(b))
                        } else {
                            flow_from(a, b)
                        };
                        // Repeat the packet so round-robin pointers advance.
                        for _ in 0..1 + prio {
                            prop_assert_eq!(
                                table.lookup(in_port, &flow),
                                reference.lookup(in_port, &flow)
                            );
                        }
                    }
                }
                let order: Vec<&Rule> = reference.rules.iter().map(|(r, _)| r).collect();
                prop_assert_eq!(table.rules(), order);
                prop_assert_eq!(table.len(), reference.rules.len());
                prop_assert_eq!(table.lookups, reference.lookups);
                prop_assert_eq!(table.misses, reference.misses);
                let destinations: HashSet<Ip> = reference
                    .rules
                    .iter()
                    .filter_map(|(r, _)| r.mat.dst_ip)
                    .collect();
                if destinations.len() >= 300 {
                    hit.insert("300 or more destinations at once");
                }
                if std::mem::take(&mut removed_any) {
                    hit.insert("match order checked after a remove");
                }
                if !emptied.is_empty() {
                    hit.insert("a bucket removed to empty");
                }
            }
            Ok(())
        },
    );
    assert_all_hit(
        &hit.into_inner(),
        &[
            "300 or more destinations at once",
            "a bucket removed to empty",
            "an emptied bucket reinstalled",
            "match order checked after a remove",
        ],
    );
}

/// The event queue's lane count.
const LANES: usize = 8;

/// Where the queue's documented placement puts each key: on the lane of
/// its delay, else on the first empty lane, which takes that delay, else
/// in the overflow map. It classifies cases only; the order reference is
/// the `BinaryHeap`.
struct Placement {
    lanes: [(Duration, VecDeque<(Duration, u64)>); LANES],
    overflow: BTreeSet<(Duration, u64)>,
}

impl Placement {
    fn new() -> Self {
        Placement {
            lanes: std::array::from_fn(|_| (Duration::MAX, VecDeque::new())),
            overflow: BTreeSet::new(),
        }
    }

    /// Place a key scheduled `delay` after the last pop; returns the case
    /// classes the placement hits.
    fn schedule(&mut self, key: (Duration, u64), delay: Duration) -> Vec<&'static str> {
        let mut hit = Vec::new();
        let lane = self
            .lanes
            .iter()
            .position(|(d, _)| *d == delay)
            .or_else(|| {
                let i = self.lanes.iter().position(|(_, keys)| keys.is_empty())?;
                if self.lanes[i].0 != Duration::MAX {
                    hit.push("a lane emptied and re-keyed");
                }
                self.lanes[i].0 = delay;
                Some(i)
            });
        match lane {
            Some(i) => self.lanes[i].1.push_back(key),
            None => {
                hit.push("a ninth delay overflowing the lanes");
                self.overflow.insert(key);
            }
        }
        hit
    }

    /// Take the popped key from the lane front or overflow first holding it;
    /// `None` if neither does, which breaks the documented placement.
    fn pop(&mut self, key: (Duration, u64)) -> Option<Vec<&'static str>> {
        let mut hit = Vec::new();
        let top = self.overflow.first().copied();
        let fronts = self.lanes.iter().filter_map(|(_, keys)| keys.front());
        if top.is_some_and(|(t, _)| fronts.clone().any(|&(f, _)| f == t)) {
            hit.push("a lane front tying the overflow's first");
        }
        if top == Some(key) {
            self.overflow.pop_first();
        } else {
            let lane = self
                .lanes
                .iter_mut()
                .find(|(_, keys)| keys.front() == Some(&key))?;
            lane.1.pop_front();
        }
        Some(hit)
    }
}

/// The lane queue pops the same `(at, event)` sequence as a `BinaryHeap`
/// on `(at, seq)` — through `pop` and `pop_before` — and reports the same
/// `len`, `peek_time` and most events ever pending. Events are scheduled
/// a delay after the last popped time, as `Network` does, drawn from more
/// distinct delays than there are lanes, so lanes are emptied and
/// re-keyed, keys overflow the lanes while every lane holds events, and
/// equal times reached through different delays tie across lanes and
/// the overflow map. A few schedules name a time before the last pop and
/// are clamped. Every popped key is a lane front or the overflow map's
/// first under the documented placement.
#[test]
fn event_queue_matches_binary_heap() {
    let hit = RefCell::new(BTreeSet::new());
    let strategy = (prop::collection::vec(
        (0u8..6, 0usize..DELAYS.len(), any::<u16>()),
        1..400,
    ),);
    proptest::runner::run(
        "event_queue_matches_binary_heap",
        &ProptestConfig::with_cases(200),
        &strategy,
        |(ops,)| {
            let mut hit = hit.borrow_mut();
            let mut queue = EventQueue::new();
            let mut reference: BinaryHeap<(Reverse<Duration>, Reverse<u64>)> = BinaryHeap::new();
            let mut placement = Placement::new();
            let mut seq = 0u64;
            let mut floor = Duration::ZERO;
            let mut high_water = 0usize;
            for (op, d, n) in ops {
                let at = floor + DELAYS[d];
                match op {
                    0..=2 => {
                        let event = if n.is_multiple_of(2) {
                            tick(seq)
                        } else {
                            Event::Generate {
                                node: NodeId(n as usize),
                                gen_idx: seq as usize,
                            }
                        };
                        // One schedule in 16 asks for a time before the last
                        // pop; both queues hold it at the last pop.
                        let asked = if n % 16 == 1 {
                            floor.saturating_sub(DELAYS[d])
                        } else {
                            at
                        };
                        if asked < floor {
                            hit.insert("a clamped schedule");
                        }
                        queue.schedule(asked, event);
                        let key = asked.max(floor);
                        reference.push((Reverse(key), Reverse(seq)));
                        let classes = placement.schedule((key, seq), key - floor);
                        hit.extend(classes);
                        seq += 1;
                    }
                    3 | 4 => {
                        let deadline = if op == 3 { Duration::MAX } else { at };
                        let want = match reference.peek() {
                            Some((Reverse(t), _)) if *t < deadline => {
                                reference.pop().map(|(Reverse(t), Reverse(s))| (t, s))
                            }
                            Some((Reverse(t), _)) if *t == deadline => {
                                hit.insert("pop_before stopping at a deadline equal to a front");
                                None
                            }
                            _ => None,
                        };
                        let got = if op == 3 {
                            queue.pop()
                        } else {
                            queue.pop_before(deadline)
                        };
                        let got = got.map(|(t, event)| (t, tag_of(&event)));
                        prop_assert_eq!(got, want);
                        if let Some((t, s)) = got {
                            let Some(classes) = placement.pop((t, s)) else {
                                return Err(format!(
                                    "popped ({t:?}, {s}) is no lane front nor overflow first"
                                ));
                            };
                            hit.extend(classes);
                            floor = t;
                        }
                    }
                    _ => {}
                }
                high_water = high_water.max(reference.len());
                prop_assert_eq!(queue.len(), reference.len());
                prop_assert_eq!(queue.is_empty(), reference.is_empty());
                prop_assert_eq!(
                    queue.peek_time(),
                    reference.peek().map(|(Reverse(t), _)| *t)
                );
                prop_assert_eq!(queue.slots(), high_water);
            }
            while let Some((Reverse(at), Reverse(s))) = reference.pop() {
                let got = queue.pop().map(|(t, event)| (t, tag_of(&event)));
                prop_assert_eq!(got, Some((at, s)));
            }
            prop_assert!(queue.pop().is_none());
            Ok(())
        },
    );
    assert_all_hit(
        &hit.into_inner(),
        &[
            "a lane emptied and re-keyed",
            "a ninth delay overflowing the lanes",
            "a lane front tying the overflow's first",
            "a clamped schedule",
            "pop_before stopping at a deadline equal to a front",
        ],
    );
}

/// Idle ports hand packets straight to the transmitter; the queue
/// counters must still read as if every packet went through the ring.
/// Over stars with small switch queues and leaf-spines, CBR and Poisson
/// flows, and scripted link flaps and switch crash/restarts (many shorter
/// than a frame): every queue reconciles
/// `accepted == dequeued + cleared + in_flight` and has a high-water mark
/// once it accepted a packet, each host egress that dropped nothing
/// accepted exactly the host's `tx_bytes`, and every packet sent is
/// delivered or charged to one drop class.
#[test]
fn queue_accounting_reconciles_through_pass_through() {
    let hit = RefCell::new(BTreeSet::new());
    let flow = (
        any::<u8>(),
        any::<u8>(),
        50u16..4000,
        any::<u64>(),
        any::<bool>(),
    );
    let strategy = (
        prop::collection::vec(flow, 1..6),
        1usize..5,
        any::<bool>(),
        prop::collection::vec((0u64..300_000, 0usize..11, 0u64..3_000), 0..8),
    );
    proptest::runner::run(
        "queue_accounting_reconciles_through_pass_through",
        &ProptestConfig::with_cases(200),
        &strategy,
        |(flows, capacity, leaf_spine, faults)| {
            let mut hit = hit.borrow_mut();
            let mut fabric = if leaf_spine {
                small_leaf_spine(&flows)
            } else {
                small_queue_star(&flows, capacity)
            };
            let (cut_frames, crashes_mid_frame) = fabric.run_faulted(&faults);
            let net = &fabric.net;
            hit.insert(if leaf_spine { "a leaf-spine" } else { "a star" });
            if cut_frames > 0 {
                hit.insert("a flap cutting a frame");
            }
            if crashes_mid_frame > 0 {
                hit.insert("a crash inside a frame time");
            }
            if net.counters.queue_drops > 0 {
                hit.insert("a tail drop");
            }

            let host_queues = fabric.hosts.iter().map(|&h| &net.host(h).port.queue);
            let switch_stats = net.queue_stats();
            let switch_queues = switch_stats
                .iter()
                .map(|q| (q.accepted, q.dequeued, q.cleared, q.in_flight, q.high_water));
            for (accepted, dequeued, cleared, in_flight, high_water) in host_queues
                .map(|q| (q.accepted, q.dequeued, q.cleared, q.len(), q.high_water))
                .chain(switch_queues)
            {
                prop_assert_eq!(accepted, dequeued + cleared + in_flight as u64);
                prop_assert!(
                    accepted == 0 || high_water >= 1,
                    "a queue that accepted has a high-water mark"
                );
            }
            let mut sent = 0;
            for &h in &fabric.hosts {
                let host = net.host(h);
                if host.port.queue.dropped == 0 {
                    prop_assert_eq!(host.port.queue.accepted_bytes, host.tx_bytes);
                }
                sent += host.tx_packets;
            }
            let c = net.counters;
            prop_assert_eq!(
                sent,
                c.delivered + c.policy_drops + c.queue_drops + c.link_drops + c.crash_drops
            );
            Ok(())
        },
    );
    assert_all_hit(
        &hit.into_inner(),
        &[
            "a star",
            "a leaf-spine",
            "a flap cutting a frame",
            "a crash inside a frame time",
            "a tail drop",
        ],
    );
}
