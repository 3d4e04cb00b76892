//! Match-action flow tables.
//!
//! The SDN half of the paper: switches forward only according to installed
//! rules; the MDN controller reacts to sounds by installing new ones (the
//! port-knocking FSM opens a port by "adding a flow table entry at the
//! switch", and the load balancer "sends an OpenFlow flow-MOD message so
//! that the source traffic gets split across two ports").

use crate::flow::hash_flow;
use crate::packet::{FlowKey, Ip, Proto};
use std::cmp::Reverse;

/// A port index on a node.
pub type PortId = usize;

/// Wildcardable match over the flow 5-tuple plus ingress port.
/// `None` matches anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Match {
    /// Ingress port constraint.
    pub in_port: Option<PortId>,
    /// Source address constraint.
    pub src_ip: Option<Ip>,
    /// Destination address constraint.
    pub dst_ip: Option<Ip>,
    /// Source transport port constraint.
    pub src_port: Option<u16>,
    /// Destination transport port constraint.
    pub dst_port: Option<u16>,
    /// Protocol constraint.
    pub proto: Option<Proto>,
}

impl Match {
    /// Match everything.
    pub const ANY: Match = Match {
        in_port: None,
        src_ip: None,
        dst_ip: None,
        src_port: None,
        dst_port: None,
        proto: None,
    };

    /// Match a destination address.
    pub fn dst(ip: Ip) -> Self {
        Match {
            dst_ip: Some(ip),
            ..Match::ANY
        }
    }

    /// Match a destination transport port (the port-knocking rule shape).
    pub fn dst_transport_port(port: u16) -> Self {
        Match {
            dst_port: Some(port),
            ..Match::ANY
        }
    }

    /// Match an exact flow.
    pub fn exact(flow: &FlowKey) -> Self {
        Match {
            in_port: None,
            src_ip: Some(flow.src_ip),
            dst_ip: Some(flow.dst_ip),
            src_port: Some(flow.src_port),
            dst_port: Some(flow.dst_port),
            proto: Some(flow.proto),
        }
    }

    /// Does this match cover `(in_port, flow)`?
    pub fn matches(&self, in_port: PortId, flow: &FlowKey) -> bool {
        self.in_port.is_none_or(|p| p == in_port)
            && self.src_ip.is_none_or(|v| v == flow.src_ip)
            && self.dst_ip.is_none_or(|v| v == flow.dst_ip)
            && self.src_port.is_none_or(|v| v == flow.src_port)
            && self.dst_port.is_none_or(|v| v == flow.dst_port)
            && self.proto.is_none_or(|v| v == flow.proto)
    }
}

/// What to do with a matching packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Forward out one port.
    Forward(PortId),
    /// Drop the packet.
    Drop,
    /// Hash-based split across several ports (OpenFlow select group): the
    /// flow hash picks the member, so one flow stays on one path.
    SplitByFlow(Vec<PortId>),
    /// Per-packet round-robin across several ports (finer-grained split,
    /// what the paper's Figure 5a load balancer effectively achieves on a
    /// single elephant flow).
    SplitRoundRobin(Vec<PortId>),
}

/// One installed rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    /// Match condition.
    pub mat: Match,
    /// Higher wins.
    pub priority: u16,
    /// Action on match.
    pub action: Action,
}

/// The forwarding decision a table lookup produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Send out this port.
    Forward(PortId),
    /// Drop the packet.
    Drop,
    /// No rule matched (table-miss); the switch applies its default policy.
    Miss,
}

/// A rule's place in match order, lowest first.
type Rank = (Reverse<u16>, u64);

/// One installed rule with its install sequence and group state.
#[derive(Debug, Clone)]
struct Entry {
    rule: Rule,
    /// Install sequence number: breaks ties among equal priorities.
    seq: u64,
    /// `SplitRoundRobin` member pointer. It lives on the rule's own entry,
    /// so installing or removing other rules never moves or resets it.
    rr_next: usize,
}

impl Entry {
    /// Match-order rank, lowest first: priority descending, then install
    /// order — the order a linear scan of the table visits rules in.
    fn rank(&self) -> Rank {
        (Reverse(self.rule.priority), self.seq)
    }

    /// Apply this rule's action to `flow`.
    fn decide(&mut self, flow: &FlowKey) -> Decision {
        match &self.rule.action {
            Action::Forward(p) => Decision::Forward(*p),
            Action::Drop => Decision::Drop,
            Action::SplitByFlow(ports) => {
                debug_assert!(!ports.is_empty());
                let i = (hash_flow(flow) % ports.len() as u64) as usize;
                Decision::Forward(ports[i])
            }
            Action::SplitRoundRobin(ports) => {
                debug_assert!(!ports.is_empty());
                let i = self.rr_next % ports.len();
                self.rr_next = self.rr_next.wrapping_add(1);
                Decision::Forward(ports[i])
            }
        }
    }
}

/// Insert `entry` into a rank-ordered list. It carries the newest install
/// sequence, so it goes after every rule of equal or higher priority.
fn insert_ranked(list: &mut Vec<Entry>, entry: Entry) {
    let pos = list.partition_point(|e| e.rule.priority >= entry.rule.priority);
    list.insert(pos, entry);
}

/// The rules whose match names one destination address, in rank order.
/// The best-ranked rule sits inline beside the address, so a lookup that
/// stops at it reads one contiguous record.
#[derive(Debug, Clone)]
struct Bucket {
    dst: Ip,
    head: Entry,
    /// The rules ranked after `head`, in rank order.
    rest: Vec<Entry>,
}

impl Bucket {
    /// The bucket's rules in rank order.
    fn iter(&self) -> impl Iterator<Item = &Entry> {
        std::iter::once(&self.head).chain(&self.rest)
    }

    /// The `i`-th rule in rank order.
    fn entry_mut(&mut self, i: usize) -> &mut Entry {
        match i.checked_sub(1) {
            None => &mut self.head,
            Some(j) => &mut self.rest[j],
        }
    }

    /// The first rule matching `(in_port, flow)`: its place in rank order
    /// and its rank.
    fn first_match(&self, in_port: PortId, flow: &FlowKey) -> Option<(usize, Rank)> {
        if self.head.rule.mat.matches(in_port, flow) {
            return Some((0, self.head.rank()));
        }
        let j = self
            .rest
            .iter()
            .position(|e| e.rule.mat.matches(in_port, flow))?;
        Some((j + 1, self.rest[j].rank()))
    }

    /// Insert the newest rule for this address.
    fn insert(&mut self, entry: Entry) {
        if entry.rule.priority > self.head.rule.priority {
            let head = std::mem::replace(&mut self.head, entry);
            self.rest.insert(0, head);
        } else {
            insert_ranked(&mut self.rest, entry);
        }
    }

    /// Remove every rule whose match equals `mat`. Returns how many, and
    /// whether none is left, in which case `head` is stale and the caller
    /// drops the bucket.
    fn remove(&mut self, mat: &Match) -> (usize, bool) {
        let removed = retain_unmatched(&mut self.rest, mat);
        if &self.head.rule.mat != mat {
            return (removed, false);
        }
        if self.rest.is_empty() {
            return (removed + 1, true);
        }
        self.head = self.rest.remove(0);
        (removed + 1, false)
    }
}

/// Marks a vacant [`DstIndex`] slot.
const VACANT: u32 = u32::MAX;

/// The position of each destination's bucket, by address: open
/// addressing with linear probing over a power-of-two table at most half
/// full. Installs and removes update it in place; it is rehashed only
/// when it doubles.
#[derive(Debug, Clone, Default)]
struct DstIndex {
    /// `(dst, bucket position)`, or a [`VACANT`] position. A position
    /// always fits: 2^32 buckets would take over 500 GB.
    slots: Vec<(Ip, u32)>,
    len: usize,
}

impl DstIndex {
    /// The slot where a probe for `dst` starts: the top bits of its
    /// Fibonacci hash. The table must not be empty.
    fn home(&self, dst: Ip) -> usize {
        let bits = self.slots.len().trailing_zeros();
        (u64::from(dst.0).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
    }

    /// The slot holding `dst`, or the vacant slot that ends its probe.
    /// The table must not be empty.
    fn probe(&self, dst: Ip) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = self.home(dst);
        while self.slots[i].1 != VACANT && self.slots[i].0 != dst {
            i = (i + 1) & mask;
        }
        i
    }

    /// The bucket position of `dst`, if it has one.
    fn find(&self, dst: Ip) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let (_, pos) = self.slots[self.probe(dst)];
        (pos != VACANT).then_some(pos as usize)
    }

    /// Index a new destination at bucket `pos`.
    fn insert(&mut self, dst: Ip, pos: usize) {
        if 2 * (self.len + 1) > self.slots.len() {
            let grown = vec![(Ip(0), VACANT); (2 * self.slots.len()).max(8)];
            let old = std::mem::replace(&mut self.slots, grown);
            for (ip, pos) in old.into_iter().filter(|&(_, pos)| pos != VACANT) {
                let i = self.probe(ip);
                self.slots[i] = (ip, pos);
            }
        }
        let i = self.probe(dst);
        self.slots[i] = (dst, pos as u32);
        self.len += 1;
    }

    /// Point indexed `dst` at bucket `pos`.
    fn set(&mut self, dst: Ip, pos: usize) {
        let i = self.probe(dst);
        self.slots[i].1 = pos as u32;
    }

    /// Unindex `dst`. Each later slot of the probe run moves back into the
    /// hole when its own probe starts at or before the hole, so every
    /// probe still finds its address before a vacant slot.
    fn remove(&mut self, dst: Ip) {
        let mask = self.slots.len() - 1;
        let mut hole = self.probe(dst);
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let (ip, pos) = self.slots[j];
            if pos == VACANT {
                break;
            }
            let home = self.home(ip);
            if j.wrapping_sub(home) & mask >= j.wrapping_sub(hole) & mask {
                self.slots[hole] = self.slots[j];
                hole = j;
            }
        }
        self.slots[hole] = (Ip(0), VACANT);
        self.len -= 1;
    }
}

/// A priority-ordered flow table.
///
/// Rules match in rank order: priority descending, then install order.
/// A rule that names a destination address can only match packets to that
/// address, so such rules live in per-destination buckets, found through
/// a hash index; the rest sit in one wildcard list. Each list is kept in
/// rank order, and a lookup takes the first match of the packet's bucket
/// and of the wildcard list and returns the better-ranked one — exactly
/// the rule a scan of the whole table in rank order would stop at.
///
/// ```
/// use mdn_net::ftable::{FlowTable, Rule, Match, Action, Decision};
/// use mdn_net::packet::{FlowKey, Ip};
///
/// let mut table = FlowTable::new();
/// table.install(Rule { mat: Match::ANY, priority: 0, action: Action::Drop });
/// table.install(Rule {
///     mat: Match::dst_transport_port(80),
///     priority: 10,
///     action: Action::Forward(2),
/// });
/// let web = FlowKey::tcp(Ip::v4(10, 0, 0, 1), 40_000, Ip::v4(10, 0, 0, 2), 80);
/// assert_eq!(table.lookup(0, &web), Decision::Forward(2));
/// assert_eq!(table.lookup(0, &web.reversed()), Decision::Drop);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FlowTable {
    /// One bucket per destination address that has rules, in no order.
    buckets: Vec<Bucket>,
    /// Each bucket's position in `buckets`, by address.
    index: DstIndex,
    /// The rules with no destination constraint, in rank order.
    wildcard: Vec<Entry>,
    len: usize,
    next_seq: u64,
    /// Lookup counter (all lookups).
    pub lookups: u64,
    /// Table-miss counter.
    pub misses: u64,
}

impl FlowTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install a rule. Rules match by descending priority; among equal
    /// priorities, the earliest installed wins.
    pub fn install(&mut self, rule: Rule) {
        let entry = Entry {
            rule,
            seq: self.next_seq,
            rr_next: 0,
        };
        self.next_seq += 1;
        self.len += 1;
        let Some(dst) = entry.rule.mat.dst_ip else {
            return insert_ranked(&mut self.wildcard, entry);
        };
        match self.index.find(dst) {
            Some(b) => self.buckets[b].insert(entry),
            None => {
                self.index.insert(dst, self.buckets.len());
                self.buckets.push(Bucket {
                    dst,
                    head: entry,
                    rest: Vec::new(),
                });
            }
        }
    }

    /// Remove every rule whose match equals `mat`. Returns how many were
    /// removed.
    pub fn remove(&mut self, mat: &Match) -> usize {
        let removed = match mat.dst_ip {
            None => retain_unmatched(&mut self.wildcard, mat),
            Some(dst) => {
                let Some(b) = self.index.find(dst) else {
                    return 0;
                };
                let (removed, emptied) = self.buckets[b].remove(mat);
                if emptied {
                    self.index.remove(dst);
                    self.buckets.swap_remove(b);
                    if let Some(moved) = self.buckets.get(b) {
                        self.index.set(moved.dst, b);
                    }
                }
                removed
            }
        };
        self.len -= removed;
        removed
    }

    /// Number of installed rules.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no rules are installed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The installed rules in match order.
    pub fn rules(&self) -> Vec<&Rule> {
        let mut all: Vec<&Entry> = self.buckets.iter().flat_map(Bucket::iter).collect();
        all.extend(&self.wildcard);
        all.sort_unstable_by_key(|e| e.rank());
        all.into_iter().map(|e| &e.rule).collect()
    }

    /// Look up the forwarding decision for `(in_port, flow)`.
    ///
    /// Mutable because round-robin group actions advance their member
    /// pointer per packet, mirroring group-bucket state in a real switch.
    pub fn lookup(&mut self, in_port: PortId, flow: &FlowKey) -> Decision {
        self.lookups += 1;
        let by_dst = self.index.find(flow.dst_ip).and_then(|b| {
            let (i, rank) = self.buckets[b].first_match(in_port, flow)?;
            Some((b, i, rank))
        });
        // Only a wildcard rule ranked above the destination hit can win.
        let by_wildcard = self
            .wildcard
            .iter()
            .take_while(|e| by_dst.is_none_or(|(_, _, r)| e.rank() < r))
            .position(|e| e.rule.mat.matches(in_port, flow));
        let entry = match (by_wildcard, by_dst) {
            (Some(i), _) => &mut self.wildcard[i],
            (None, Some((b, i, _))) => self.buckets[b].entry_mut(i),
            (None, None) => {
                self.misses += 1;
                return Decision::Miss;
            }
        };
        entry.decide(flow)
    }
}

/// Drop every entry of `list` whose match equals `mat`; returns how many.
fn retain_unmatched(list: &mut Vec<Entry>, mat: &Match) -> usize {
    let before = list.len();
    list.retain(|e| &e.rule.mat != mat);
    before - list.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(dst_port: u16) -> FlowKey {
        FlowKey::tcp(Ip::v4(10, 0, 0, 1), 40_000, Ip::v4(10, 0, 0, 2), dst_port)
    }

    #[test]
    fn empty_table_misses() {
        let mut t = FlowTable::new();
        assert_eq!(t.lookup(0, &flow(80)), Decision::Miss);
        assert_eq!(t.misses, 1);
        assert_eq!(t.lookups, 1);
    }

    #[test]
    fn priority_order_wins() {
        let mut t = FlowTable::new();
        t.install(Rule {
            mat: Match::ANY,
            priority: 0,
            action: Action::Drop,
        });
        t.install(Rule {
            mat: Match::dst_transport_port(80),
            priority: 10,
            action: Action::Forward(2),
        });
        assert_eq!(t.lookup(0, &flow(80)), Decision::Forward(2));
        assert_eq!(t.lookup(0, &flow(443)), Decision::Drop);
    }

    #[test]
    fn equal_priority_first_installed_wins() {
        let mut t = FlowTable::new();
        t.install(Rule {
            mat: Match::ANY,
            priority: 5,
            action: Action::Forward(1),
        });
        t.install(Rule {
            mat: Match::ANY,
            priority: 5,
            action: Action::Forward(2),
        });
        assert_eq!(t.lookup(0, &flow(80)), Decision::Forward(1));
    }

    #[test]
    fn in_port_constraint() {
        let mut t = FlowTable::new();
        t.install(Rule {
            mat: Match {
                in_port: Some(1),
                ..Match::ANY
            },
            priority: 1,
            action: Action::Forward(9),
        });
        assert_eq!(t.lookup(1, &flow(80)), Decision::Forward(9));
        assert_eq!(t.lookup(2, &flow(80)), Decision::Miss);
    }

    #[test]
    fn exact_match_covers_only_that_flow() {
        let f = flow(80);
        let mut t = FlowTable::new();
        t.install(Rule {
            mat: Match::exact(&f),
            priority: 1,
            action: Action::Forward(3),
        });
        assert_eq!(t.lookup(0, &f), Decision::Forward(3));
        assert_eq!(t.lookup(0, &f.reversed()), Decision::Miss);
        assert_eq!(t.lookup(0, &flow(81)), Decision::Miss);
    }

    #[test]
    fn split_by_flow_is_sticky_per_flow() {
        let mut t = FlowTable::new();
        t.install(Rule {
            mat: Match::ANY,
            priority: 1,
            action: Action::SplitByFlow(vec![1, 2]),
        });
        let f = flow(80);
        let first = t.lookup(0, &f);
        for _ in 0..10 {
            assert_eq!(t.lookup(0, &f), first);
        }
    }

    #[test]
    fn split_by_flow_spreads_flows() {
        let mut t = FlowTable::new();
        t.install(Rule {
            mat: Match::ANY,
            priority: 1,
            action: Action::SplitByFlow(vec![1, 2]),
        });
        let mut seen = std::collections::HashSet::new();
        for p in 0..32u16 {
            if let Decision::Forward(port) = t.lookup(0, &flow(1000 + p)) {
                seen.insert(port);
            }
        }
        assert_eq!(seen.len(), 2, "both ports should be used");
    }

    #[test]
    fn round_robin_alternates_per_packet() {
        let mut t = FlowTable::new();
        t.install(Rule {
            mat: Match::ANY,
            priority: 1,
            action: Action::SplitRoundRobin(vec![1, 2]),
        });
        let f = flow(80);
        let seq: Vec<Decision> = (0..4).map(|_| t.lookup(0, &f)).collect();
        assert_eq!(
            seq,
            vec![
                Decision::Forward(1),
                Decision::Forward(2),
                Decision::Forward(1),
                Decision::Forward(2)
            ]
        );
    }

    #[test]
    fn round_robin_pointer_survives_a_higher_priority_install() {
        let mut t = FlowTable::new();
        t.install(Rule {
            mat: Match::ANY,
            priority: 1,
            action: Action::SplitRoundRobin(vec![1, 2]),
        });
        let f = flow(80);
        assert_eq!(t.lookup(0, &f), Decision::Forward(1));
        // An unrelated rule ranked above the split must not restart it.
        t.install(Rule {
            mat: Match::dst_transport_port(9),
            priority: 100,
            action: Action::Drop,
        });
        assert_eq!(t.lookup(0, &f), Decision::Forward(2));
        assert_eq!(t.lookup(0, &f), Decision::Forward(1));
    }

    #[test]
    fn removed_round_robin_pointer_is_not_inherited() {
        let mut t = FlowTable::new();
        let web = Match::dst_transport_port(80);
        t.install(Rule {
            mat: web,
            priority: 5,
            action: Action::SplitRoundRobin(vec![1, 2]),
        });
        t.install(Rule {
            mat: Match::ANY,
            priority: 1,
            action: Action::SplitRoundRobin(vec![3, 4]),
        });
        let f = flow(80);
        assert_eq!(t.lookup(0, &f), Decision::Forward(1));
        assert_eq!(t.remove(&web), 1);
        // The surviving split starts at its own first member.
        assert_eq!(t.lookup(0, &f), Decision::Forward(3));
    }

    #[test]
    fn wildcard_above_destination_rule_wins() {
        let mut t = FlowTable::new();
        let dst = Ip::v4(10, 0, 0, 2);
        t.install(Rule {
            mat: Match::dst(dst),
            priority: 5,
            action: Action::Forward(1),
        });
        t.install(Rule {
            mat: Match::dst_transport_port(80),
            priority: 5,
            action: Action::Forward(2),
        });
        t.install(Rule {
            mat: Match::dst_transport_port(443),
            priority: 9,
            action: Action::Forward(3),
        });
        // Equal priority: the earlier destination rule wins.
        assert_eq!(t.lookup(0, &flow(80)), Decision::Forward(1));
        // Higher priority: the wildcard rule wins.
        assert_eq!(t.lookup(0, &flow(443)), Decision::Forward(3));
        let priorities: Vec<u16> = t.rules().iter().map(|r| r.priority).collect();
        assert_eq!(priorities, vec![9, 5, 5]);
        assert_eq!(t.rules()[1].action, Action::Forward(1));
    }

    #[test]
    fn remove_by_match() {
        let mut t = FlowTable::new();
        let m = Match::dst_transport_port(80);
        t.install(Rule {
            mat: m,
            priority: 1,
            action: Action::Forward(1),
        });
        t.install(Rule {
            mat: Match::ANY,
            priority: 0,
            action: Action::Drop,
        });
        assert_eq!(t.remove(&m), 1);
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(0, &flow(80)), Decision::Drop);
    }

    #[test]
    fn destination_index_collides_grows_and_closes_holes_on_remove() {
        // Distinct scattered addresses: consecutive ones never share a
        // Fibonacci home slot.
        let dst = |n: u32| Ip(n.wrapping_mul(0x2545_F491));
        let route = |n: u32| Rule {
            mat: Match::dst(dst(n)),
            priority: 1,
            action: Action::Forward(n as usize % 4),
        };
        let mut t = FlowTable::new();
        (0..600).for_each(|n| t.install(route(n)));
        // Doubled from 8 slots to stay at most half full.
        assert_eq!(t.index.slots.len(), 2048);
        let displaced = t.index.slots.iter().enumerate();
        let displaced = displaced.filter(|&(i, &(ip, pos))| pos != VACANT && t.index.home(ip) != i);
        assert!(displaced.count() > 0, "some destinations share a home slot");
        for n in (0..600).step_by(3) {
            assert_eq!(t.remove(&Match::dst(dst(n))), 1);
        }
        (0..600).step_by(6).for_each(|n| t.install(route(n)));
        for n in 0..600 {
            match t.index.find(dst(n)) {
                Some(b) => assert_eq!(t.buckets[b].dst, dst(n)),
                None => assert!(n % 3 == 0 && n % 6 != 0, "{n} lost from the index"),
            }
            let want = if n % 3 == 0 && n % 6 != 0 {
                Decision::Miss
            } else {
                Decision::Forward(n as usize % 4)
            };
            let flow = FlowKey::udp(Ip::v4(10, 0, 0, 1), 1, dst(n), 2);
            assert_eq!(t.lookup(0, &flow), want);
        }
        assert_eq!(t.len(), 500);
    }
}
