//! The packet plane's indexed structures against their plain reference
//! models: the destination-indexed flow table against a linear scan in
//! rank order, and the radix-heap event queue against a `BinaryHeap` on
//! `(at, seq)`. Both references live only here. Also the sampled
//! dispatch timing's counts against an independent count of dispatched
//! events, under any split of the run.

use mdn_net::flow::hash_flow;
use mdn_net::ftable::{Action, Decision, FlowTable, Match, PortId, Rule};
use mdn_net::packet::{FlowKey, Ip};
use mdn_net::sim::{Event, EventQueue, NodeId};
use mdn_net::topology::{star, StarTopo};
use mdn_net::traffic::TrafficPattern;
use mdn_net::{Network, RunOutcome};
use mdn_obs::Registry;
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
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
    for h in 0..4u8 {
        net.install_rule(
            topo.switch,
            Rule {
                mat: Match::dst(Ip::v4(10, 0, 0, h + 1)),
                priority: 1,
                action: Action::Forward(h as usize),
            },
        );
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Every lookup decision, the match order, the rule count and the
    /// lookup/miss counters of the indexed table equal a linear scan's,
    /// over random installs, removes (absent matches included) and
    /// lookups at colliding priorities.
    #[test]
    fn flow_table_index_matches_linear_scan(
        ops in prop::collection::vec((0u8..10, any::<u8>(), any::<u8>(), any::<u8>(), 0u8..4), 1..160)
    ) {
        let mut table = FlowTable::new();
        let mut reference = LinearTable::default();
        for (op, a, b, c, prio) in ops {
            match op {
                0..=3 => {
                    let rule = Rule {
                        mat: match_from(c, a, b),
                        priority: [0, 1, 5, 10][prio as usize],
                        action: action_from(a ^ b),
                    };
                    table.install(rule.clone());
                    reference.install(rule);
                }
                4 => {
                    let mat = match_from(c, a, b);
                    prop_assert_eq!(table.remove(&mat), reference.remove(&mat));
                }
                _ => {
                    let in_port = c as usize % 3;
                    let flow = flow_from(a, b);
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
        }
    }

    /// The radix-heap queue pops the same `(at, event)` sequence as a
    /// `BinaryHeap` on `(at, seq)` — through `pop` and `pop_before` —
    /// reports the same `len` and `peek_time`, and reuses freed slots: the
    /// slab never grows past the most events pending at once. Events are
    /// scheduled at or after the last popped time, as `Network` does.
    #[test]
    fn event_queue_matches_binary_heap(
        ops in prop::collection::vec((0u8..5, 0u64..6, any::<u16>()), 1..400)
    ) {
        let mut queue = EventQueue::new();
        let mut reference: BinaryHeap<(Reverse<Duration>, Reverse<u64>)> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut floor = Duration::ZERO;
        let mut high_water = 0usize;
        for (op, ms, n) in ops {
            // Few distinct offsets, some across second boundaries and a few
            // far ahead: most events tie on time and fall back on seq.
            let mut at = floor;
            if n.is_multiple_of(3) {
                at += Duration::from_millis(ms * 250);
            }
            if n.is_multiple_of(7) {
                at += Duration::from_secs(u64::from(n) << 20);
            }
            match op {
                0 | 1 => {
                    let event = if n.is_multiple_of(2) {
                        tick(seq)
                    } else {
                        Event::Generate { node: NodeId(n as usize), gen_idx: seq as usize }
                    };
                    queue.schedule(at, event);
                    reference.push((Reverse(at), Reverse(seq)));
                    seq += 1;
                }
                2 | 3 => {
                    let deadline = if op == 2 { Duration::MAX } else { at };
                    let want = match reference.peek() {
                        Some((Reverse(t), _)) if *t < deadline => {
                            reference.pop().map(|(Reverse(t), Reverse(s))| (t, s))
                        }
                        _ => None,
                    };
                    let got = if op == 2 { queue.pop() } else { queue.pop_before(deadline) };
                    let got = got.map(|(t, event)| (t, tag_of(&event)));
                    prop_assert_eq!(got, want);
                    if let Some((t, _)) = got {
                        floor = t;
                    }
                }
                _ => {}
            }
            high_water = high_water.max(reference.len());
            prop_assert_eq!(queue.len(), reference.len());
            prop_assert_eq!(queue.is_empty(), reference.is_empty());
            prop_assert_eq!(queue.peek_time(), reference.peek().map(|(Reverse(t), _)| *t));
            prop_assert_eq!(queue.slots(), high_water);
        }
        while let Some((Reverse(at), Reverse(s))) = reference.pop() {
            let got = queue.pop().map(|(t, event)| (t, tag_of(&event)));
            prop_assert_eq!(got, Some((at, s)));
        }
        prop_assert!(queue.pop().is_none());
    }

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
}
