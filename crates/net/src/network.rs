//! The virtual network: nodes + links + the event loop.
//!
//! This is the Mininet stand-in. Packets are generated by hosts, queued at
//! ports, serialized onto rate-limited links, and forwarded by switch flow
//! tables. The caller drives the simulation with [`Network::run_until`],
//! which hands control back at every application [`Event::Tick`] so an MDN
//! controller can sample queues, emit tones and install rules mid-run —
//! exactly the 300 ms sense/act cadence of the paper's §6 experiments.

use crate::ftable::{Decision, PortId, Rule};
use crate::link::{Endpoint, Link, LinkId};
use crate::node::{HostNode, MissPolicy, Node, SwitchNode, DEFAULT_SWITCH_QUEUE};
use crate::packet::{Ip, Packet};
use crate::queue::Enqueue;
use crate::sim::{Event, EventQueue, NodeId};
use crate::traffic::{Generator, TrafficPattern};
use mdn_obs::Histogram;
use std::collections::HashMap;
use std::time::Duration;
use std::time::Instant;

/// Why [`Network::run_until`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// A caller-scheduled tick fired; handle it and call run again.
    Tick {
        /// The tag passed to [`Network::schedule_tick`].
        tag: u64,
        /// Virtual time of the tick.
        at: Duration,
    },
    /// The deadline was reached with events still pending after it.
    DeadlineReached,
    /// No events remain at or before the deadline (network idle).
    Exhausted,
}

/// Per-event-kind heap-dispatch wall-time handles, resolved once by
/// [`Network::attach_obs`] so the hot loop never touches the registry's
/// name table.
#[derive(Debug, Clone, Default)]
struct DispatchObs {
    deliver: Histogram,
    generate: Histogram,
    port_free: Histogram,
    all: Histogram,
}

/// Aggregate drop/delivery counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetworkCounters {
    /// Packets delivered to hosts.
    pub delivered: u64,
    /// Packets dropped at full queues.
    pub queue_drops: u64,
    /// Packets dropped by policy (Drop rules / table miss with Drop
    /// policy).
    pub policy_drops: u64,
    /// Packets dropped because a port had no (up) link.
    pub link_drops: u64,
    /// Packets black-holed by a crashed switch.
    pub crash_drops: u64,
    /// Schedule requests that named a time before the already-advanced
    /// `now` and were clamped to `now`. Virtual time never runs backward;
    /// a nonzero count means a caller tried to schedule into the past.
    pub late_schedules: u64,
}

/// Lifetime accounting for one switch port queue, from
/// [`Network::queue_stats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueStat {
    /// The switch owning the queue.
    pub node: NodeId,
    /// `"<switch name>:<port>"` — the label used in obs exports.
    pub name: String,
    /// The port index on that switch.
    pub port: PortId,
    /// Packets accepted, lifetime.
    pub accepted: u64,
    /// Bytes accepted, lifetime.
    pub accepted_bytes: u64,
    /// Packets tail-dropped, lifetime.
    pub dropped: u64,
    /// Packets dequeued for transmission, lifetime.
    pub dequeued: u64,
    /// Packets discarded by queue clears (link down, crash), lifetime.
    pub cleared: u64,
    /// Current occupancy, in packets.
    pub in_flight: usize,
    /// Deepest occupancy ever reached, in packets.
    pub high_water: usize,
}

/// Aggregate of every switch queue's lifetime accounting, from
/// [`Network::queue_totals`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueTotals {
    /// Packets accepted across all queues.
    pub accepted: u64,
    /// Bytes accepted across all queues.
    pub accepted_bytes: u64,
    /// Packets tail-dropped across all queues.
    pub dropped: u64,
    /// Packets dequeued for transmission across all queues.
    pub dequeued: u64,
    /// Packets discarded by queue clears across all queues.
    pub cleared: u64,
    /// Current occupancy across all queues, in packets.
    pub in_flight: usize,
    /// Deepest occupancy any single queue ever reached, in packets.
    pub high_water: usize,
}

/// The virtual testbed.
#[derive(Debug)]
pub struct Network {
    nodes: Vec<Node>,
    links: Vec<Link>,
    port_links: HashMap<(NodeId, PortId), LinkId>,
    events: EventQueue,
    now: Duration,
    events_processed: u64,
    /// Aggregate counters.
    pub counters: NetworkCounters,
    /// Dispatch-latency handles; `None` (free) unless attached.
    dispatch_obs: Option<DispatchObs>,
}

impl Default for Network {
    fn default() -> Self {
        Self::new()
    }
}

impl Network {
    /// An empty network at time zero.
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            links: Vec::new(),
            port_links: HashMap::new(),
            events: EventQueue::new(),
            now: Duration::ZERO,
            events_processed: 0,
            counters: NetworkCounters::default(),
            dispatch_obs: None,
        }
    }

    /// Attach per-event-kind heap-dispatch latency histograms:
    /// `mdn_net_dispatch_ns{kind="deliver"|"generate"|"port_free"}` plus
    /// the `kind="all"` aggregate. Handles are resolved once here; each
    /// dispatched event then costs two clock reads and a histogram
    /// record. Un-attached networks pay a single branch.
    pub fn attach_obs(&mut self, registry: &mdn_obs::Registry) {
        if !registry.is_enabled() {
            return;
        }
        self.dispatch_obs = Some(DispatchObs {
            deliver: registry.histogram("mdn_net_dispatch_ns", &[("kind", "deliver")]),
            generate: registry.histogram("mdn_net_dispatch_ns", &[("kind", "generate")]),
            port_free: registry.histogram("mdn_net_dispatch_ns", &[("kind", "port_free")]),
            all: registry.histogram("mdn_net_dispatch_ns", &[("kind", "all")]),
        });
    }

    /// Current virtual time.
    pub fn now(&self) -> Duration {
        self.now
    }

    /// Events popped and dispatched so far (ticks included) — the soak
    /// benchmarks' throughput denominator.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Schedule `event`, clamping times before the already-advanced `now`
    /// to `now`. The heap itself accepts any time; accepting a past time
    /// here would pop it next and move `now` *backward*, reordering every
    /// causality argument built on (time, seq). Clamped requests are
    /// counted in [`NetworkCounters::late_schedules`].
    fn schedule_at(&mut self, at: Duration, event: Event) {
        let at = if at < self.now {
            self.counters.late_schedules += 1;
            self.now
        } else {
            at
        };
        self.events.schedule(at, event);
    }

    /// Add a host; returns its id.
    pub fn add_host(&mut self, name: impl Into<String>, ip: Ip) -> NodeId {
        self.nodes.push(Node::Host(HostNode::new(name, ip)));
        NodeId(self.nodes.len() - 1)
    }

    /// Add a switch with `num_ports` ports and the default queue capacity.
    pub fn add_switch(&mut self, name: impl Into<String>, num_ports: usize) -> NodeId {
        self.add_switch_with_queue(name, num_ports, DEFAULT_SWITCH_QUEUE)
    }

    /// Add a switch with an explicit per-port queue capacity.
    pub fn add_switch_with_queue(
        &mut self,
        name: impl Into<String>,
        num_ports: usize,
        queue_capacity: usize,
    ) -> NodeId {
        self.nodes.push(Node::Switch(SwitchNode::new(
            name,
            num_ports,
            queue_capacity,
        )));
        NodeId(self.nodes.len() - 1)
    }

    /// Wire `(a, port_a)` to `(b, port_b)` with a full-duplex link.
    ///
    /// # Panics
    /// Panics if either port is already wired or out of range.
    pub fn connect(
        &mut self,
        a: NodeId,
        port_a: PortId,
        b: NodeId,
        port_b: PortId,
        rate_bps: u64,
        latency: Duration,
    ) -> LinkId {
        assert!(
            port_a < self.nodes[a.0].num_ports(),
            "port {port_a} out of range on {a:?}"
        );
        assert!(
            port_b < self.nodes[b.0].num_ports(),
            "port {port_b} out of range on {b:?}"
        );
        let ea = Endpoint {
            node: a,
            port: port_a,
        };
        let eb = Endpoint {
            node: b,
            port: port_b,
        };
        assert!(
            !self.port_links.contains_key(&(a, port_a)),
            "{}:{port_a} already wired",
            self.nodes[a.0].name()
        );
        assert!(
            !self.port_links.contains_key(&(b, port_b)),
            "{}:{port_b} already wired",
            self.nodes[b.0].name()
        );
        let id = LinkId(self.links.len());
        self.links.push(Link::new(ea, eb, rate_bps, latency));
        self.port_links.insert((a, port_a), id);
        self.port_links.insert((b, port_b), id);
        id
    }

    /// Attach a traffic pattern to a host and schedule its first emission.
    ///
    /// # Panics
    /// Panics if `host` is not a host node.
    pub fn attach_generator(&mut self, host: NodeId, pattern: TrafficPattern) {
        let generator = Generator::new(pattern);
        let start = generator.start_time();
        let gen_idx = match &mut self.nodes[host.0] {
            Node::Host(h) => {
                h.generators.push(generator);
                h.generators.len() - 1
            }
            Node::Switch(_) => panic!("generators attach to hosts"),
        };
        self.schedule_at(
            start,
            Event::Generate {
                node: host,
                gen_idx,
            },
        );
    }

    /// Schedule an application tick; [`Network::run_until`] yields it.
    /// A tick requested before the current `now` is clamped to `now` (and
    /// counted in [`NetworkCounters::late_schedules`]).
    pub fn schedule_tick(&mut self, at: Duration, tag: u64) {
        self.schedule_at(at, Event::Tick { tag });
    }

    /// Install a rule in a switch's flow table (what an OpenFlow FlowMod
    /// does once it reaches the switch).
    ///
    /// # Panics
    /// Panics if `switch` is not a switch node.
    pub fn install_rule(&mut self, switch: NodeId, rule: Rule) {
        match &mut self.nodes[switch.0] {
            Node::Switch(s) => s.table.install(rule),
            Node::Host(_) => panic!("flow rules install on switches"),
        }
    }

    /// Set a switch's table-miss policy.
    pub fn set_miss_policy(&mut self, switch: NodeId, policy: MissPolicy) {
        match &mut self.nodes[switch.0] {
            Node::Switch(s) => s.miss_policy = policy,
            Node::Host(_) => panic!("miss policy applies to switches"),
        }
    }

    /// Immutable access to a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// The host at `id`.
    ///
    /// # Panics
    /// Panics if `id` is not a host.
    pub fn host(&self, id: NodeId) -> &HostNode {
        match &self.nodes[id.0] {
            Node::Host(h) => h,
            Node::Switch(_) => panic!("{id:?} is not a host"),
        }
    }

    /// The switch at `id`.
    ///
    /// # Panics
    /// Panics if `id` is not a switch.
    pub fn switch(&self, id: NodeId) -> &SwitchNode {
        match &self.nodes[id.0] {
            Node::Switch(s) => s,
            Node::Host(_) => panic!("{id:?} is not a switch"),
        }
    }

    /// Mutable switch access.
    pub fn switch_mut(&mut self, id: NodeId) -> &mut SwitchNode {
        match &mut self.nodes[id.0] {
            Node::Switch(s) => s,
            Node::Host(_) => panic!("{id:?} is not a switch"),
        }
    }

    /// The link wired to `(node, port)`, if any — for failure injection
    /// and stats without depending on link-creation order.
    pub fn link_at(&self, node: NodeId, port: PortId) -> Option<LinkId> {
        self.port_links.get(&(node, port)).copied()
    }

    /// Immutable access to a link.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0]
    }

    /// Lifetime accounting for every switch port queue, in `(node, port)`
    /// order — the congestion evidence behind the paper's queue tones.
    pub fn queue_stats(&self) -> Vec<QueueStat> {
        let mut out = Vec::new();
        for (i, node) in self.nodes.iter().enumerate() {
            let Node::Switch(s) = node else { continue };
            for (p, port) in s.ports.iter().enumerate() {
                out.push(QueueStat {
                    node: NodeId(i),
                    name: format!("{}:{p}", s.name),
                    port: p,
                    accepted: port.queue.accepted,
                    accepted_bytes: port.queue.accepted_bytes,
                    dropped: port.queue.dropped,
                    dequeued: port.queue.dequeued,
                    cleared: port.queue.cleared,
                    in_flight: port.queue.len(),
                    high_water: port.queue.high_water,
                });
            }
        }
        out
    }

    /// Aggregate of [`Network::queue_stats`] across every switch queue
    /// (`high_water` is the deepest any single queue ever got).
    pub fn queue_totals(&self) -> QueueTotals {
        let mut totals = QueueTotals::default();
        for q in self.queue_stats() {
            totals.accepted += q.accepted;
            totals.accepted_bytes += q.accepted_bytes;
            totals.dropped += q.dropped;
            totals.dequeued += q.dequeued;
            totals.cleared += q.cleared;
            totals.in_flight += q.in_flight;
            totals.high_water = totals.high_water.max(q.high_water);
        }
        totals
    }

    /// Publish the testbed's current accounting into an observability
    /// registry: aggregate [`NetworkCounters`], per-queue drop/high-water
    /// figures, and per-link transmit totals and utilization (computed
    /// over `[0, now]` virtual time). Values are published as gauges set
    /// to the lifetime totals, so repeated calls are idempotent — call it
    /// right before taking a snapshot.
    pub fn publish_obs(&self, registry: &mdn_obs::Registry) {
        if !registry.is_enabled() {
            return;
        }
        let c = &self.counters;
        registry.gauge("mdn_net_delivered", &[]).set(c.delivered as f64);
        registry
            .gauge("mdn_net_queue_drops", &[])
            .set(c.queue_drops as f64);
        registry
            .gauge("mdn_net_policy_drops", &[])
            .set(c.policy_drops as f64);
        registry
            .gauge("mdn_net_link_drops", &[])
            .set(c.link_drops as f64);
        registry
            .gauge("mdn_net_crash_drops", &[])
            .set(c.crash_drops as f64);
        registry
            .gauge("mdn_net_late_schedules", &[])
            .set(c.late_schedules as f64);
        registry
            .gauge("mdn_net_events_processed", &[])
            .set(self.events_processed as f64);
        for q in self.queue_stats() {
            let labels = [("queue", q.name.as_str())];
            registry
                .gauge("mdn_queue_accepted", &labels)
                .set(q.accepted as f64);
            registry
                .gauge("mdn_queue_dropped", &labels)
                .set(q.dropped as f64);
            registry
                .gauge("mdn_queue_cleared", &labels)
                .set(q.cleared as f64);
            registry
                .gauge("mdn_queue_high_water", &labels)
                .set(q.high_water as f64);
        }
        for (i, link) in self.links.iter().enumerate() {
            let id = i.to_string();
            let labels = [("link", id.as_str())];
            registry
                .gauge("mdn_link_tx_packets", &labels)
                .set(link.tx_packets as f64);
            registry
                .gauge("mdn_link_tx_bytes", &labels)
                .set(link.tx_bytes as f64);
            registry
                .gauge("mdn_link_utilization", &labels)
                .set(link.utilization(self.now));
        }
    }

    /// Crash a switch: wipe its flow table (as a reboot of real hardware
    /// would) and black-hole every packet delivered to it until
    /// [`restart_switch`](Self::restart_switch). Queued packets are
    /// discarded as crash drops.
    ///
    /// # Panics
    /// Panics if `switch` is not a switch node.
    pub fn crash_switch(&mut self, switch: NodeId) {
        let s = self.switch_mut(switch);
        s.crashed = true;
        s.table = crate::ftable::FlowTable::new();
        let mut lost = 0u64;
        for p in &mut s.ports {
            lost += p.queue.clear() as u64;
            p.busy = false;
        }
        self.counters.crash_drops += lost;
    }

    /// Bring a crashed switch back up. Its flow table stays empty — the
    /// controller must reinstall state, exactly the recovery burden the
    /// paper's out-of-band channel is for.
    ///
    /// # Panics
    /// Panics if `switch` is not a switch node.
    pub fn restart_switch(&mut self, switch: NodeId) {
        self.switch_mut(switch).crashed = false;
    }

    /// Administratively set a link up/down. Taking a link down clears both
    /// endpoints' queues (those packets count as link drops).
    pub fn set_link_up(&mut self, link: LinkId, up: bool) {
        self.links[link.0].up = up;
        if !up {
            let (a, b) = (self.links[link.0].a, self.links[link.0].b);
            for ep in [a, b] {
                let port = self.nodes[ep.node.0].port_mut(ep.port);
                self.counters.link_drops += port.queue.clear() as u64;
                port.busy = false;
            }
        }
    }

    /// Run the event loop over the half-open span `[now, deadline)`,
    /// yielding at caller ticks. Advances `now` to the tick time, the
    /// deadline, or the last event.
    ///
    /// The span matches the acoustic `mdn_audio::signal::Window`
    /// convention: an event at exactly `deadline` is *out* of scope and
    /// stays pending, so chaining `run_until(w.end())` over consecutive
    /// windows processes every event exactly once, in the same epoch as
    /// the capture window that covers its samples.
    pub fn run_until(&mut self, deadline: Duration) -> RunOutcome {
        loop {
            match self.events.peek_time() {
                None => {
                    self.now = deadline;
                    return RunOutcome::Exhausted;
                }
                Some(t) if t >= deadline => {
                    self.now = deadline;
                    return RunOutcome::DeadlineReached;
                }
                Some(_) => {}
            }
            let (at, event) = self.events.pop().expect("peeked non-empty");
            self.now = at;
            self.events_processed += 1;
            if let Event::Tick { tag } = event {
                return RunOutcome::Tick { tag, at };
            }
            self.dispatch_timed(event);
        }
    }

    /// Run to quiescence (no deadline): processes every remaining event,
    /// ignoring ticks. Useful to drain a simulation at the end of an
    /// experiment.
    pub fn drain(&mut self) {
        while let Some((at, event)) = self.events.pop() {
            self.now = at;
            self.events_processed += 1;
            self.dispatch_timed(event);
        }
    }

    /// [`dispatch`](Self::dispatch) wrapped in per-kind wall timing when
    /// [`Network::attach_obs`] was called; a plain dispatch otherwise.
    fn dispatch_timed(&mut self, event: Event) {
        if self.dispatch_obs.is_none() {
            return self.dispatch(event);
        }
        let kind = match &event {
            Event::Tick { .. } => 0u8,
            Event::Generate { .. } => 1,
            Event::PortFree { .. } => 2,
            Event::Deliver { .. } => 3,
        };
        let started = Instant::now();
        self.dispatch(event);
        let ns = started.elapsed().as_nanos() as u64;
        let obs = self.dispatch_obs.as_ref().expect("checked above");
        match kind {
            1 => obs.generate.record(ns),
            2 => obs.port_free.record(ns),
            3 => obs.deliver.record(ns),
            _ => {}
        }
        obs.all.record(ns);
    }

    /// The one dispatch table for non-tick events. `run_until` and
    /// `drain` both route through here, so a new [`Event`] variant cannot
    /// silently diverge between the two run paths. Ticks never reach this
    /// point: `run_until` yields them to the caller and `drain` ignores
    /// them.
    fn dispatch(&mut self, event: Event) {
        match event {
            Event::Tick { .. } => {}
            Event::Generate { node, gen_idx } => self.handle_generate(node, gen_idx),
            Event::PortFree { node, port } => self.handle_port_free(node, port),
            Event::Deliver {
                node,
                in_port,
                packet,
            } => self.handle_deliver(node, in_port, packet),
        }
    }

    fn handle_generate(&mut self, node: NodeId, gen_idx: usize) {
        let now = self.now;
        let (packet, next) = match &mut self.nodes[node.0] {
            Node::Host(h) => {
                let (packet, next) = h.generators[gen_idx].emit(now);
                if let Some(p) = &packet {
                    h.tx_packets += 1;
                    h.tx_bytes += p.size_bytes as u64;
                }
                (packet, next)
            }
            Node::Switch(_) => return,
        };
        if let Some(p) = packet {
            self.enqueue_and_pump(node, 0, p);
        }
        if let Some(t) = next {
            self.schedule_at(t, Event::Generate { node, gen_idx });
        }
    }

    fn handle_port_free(&mut self, node: NodeId, port: PortId) {
        self.nodes[node.0].port_mut(port).busy = false;
        self.try_transmit(node, port);
    }

    fn handle_deliver(&mut self, node: NodeId, in_port: PortId, packet: Packet) {
        let now = self.now;
        // The packet traversed the link attached to (node, in_port). If that
        // link went down while the packet was mid-flight, the Deliver event
        // is stale: a real cut wire loses the frame. Drop it here — taking
        // the link down only clears the endpoint queues and cannot unschedule
        // events already in the heap.
        if let Some(&link_id) = self.port_links.get(&(node, in_port)) {
            if !self.links[link_id.0].up {
                self.counters.link_drops += 1;
                return;
            }
        }
        match &mut self.nodes[node.0] {
            Node::Host(h) => {
                h.record_rx(&packet, now);
                self.counters.delivered += 1;
            }
            Node::Switch(s) => {
                if s.crashed {
                    self.counters.crash_drops += 1;
                    return;
                }
                s.rx_packets += 1;
                if let Some(tap) = &mut s.tap {
                    tap.push(crate::node::TapRecord {
                        at: now,
                        in_port,
                        flow: packet.flow,
                    });
                }
                let decision = s.table.lookup(in_port, &packet.flow);
                match decision {
                    Decision::Forward(out) => {
                        if out < s.ports.len() && out != in_port {
                            self.enqueue_and_pump(node, out, packet);
                        } else {
                            // Forwarding to the ingress port or a bogus port
                            // is a policy error; count as a policy drop.
                            self.switch_mut(node).policy_drops += 1;
                            self.counters.policy_drops += 1;
                        }
                    }
                    Decision::Drop => {
                        s.policy_drops += 1;
                        self.counters.policy_drops += 1;
                    }
                    Decision::Miss => match s.miss_policy {
                        MissPolicy::Drop => {
                            s.policy_drops += 1;
                            self.counters.policy_drops += 1;
                        }
                        MissPolicy::PacketIn => {
                            s.policy_drops += 1;
                            self.counters.policy_drops += 1;
                            s.miss_outbox.push(crate::node::MissRecord {
                                at: now,
                                in_port,
                                flow: packet.flow,
                                total_len: packet.size_bytes,
                            });
                        }
                        MissPolicy::Flood => {
                            let out_ports: Vec<PortId> = (0..s.ports.len())
                                .filter(|&p| {
                                    p != in_port && self.port_links.contains_key(&(node, p))
                                })
                                .collect();
                            for p in out_ports {
                                self.enqueue_and_pump(node, p, packet.clone());
                            }
                        }
                    },
                }
            }
        }
    }

    /// Enqueue on `(node, port)` and start the transmitter if idle.
    fn enqueue_and_pump(&mut self, node: NodeId, port: PortId, packet: Packet) {
        let outcome = self.nodes[node.0].port_mut(port).queue.enqueue(packet);
        if outcome == Enqueue::Dropped {
            self.counters.queue_drops += 1;
            return;
        }
        self.try_transmit(node, port);
    }

    /// If `(node, port)` is idle and has queued packets and an up link,
    /// start serializing the head packet.
    fn try_transmit(&mut self, node: NodeId, port: PortId) {
        if self.nodes[node.0].port(port).busy {
            return;
        }
        let Some(&link_id) = self.port_links.get(&(node, port)) else {
            // No wire: drop everything queued here.
            let cleared = self.nodes[node.0].port_mut(port).queue.clear();
            self.counters.link_drops += cleared as u64;
            return;
        };
        let link = &self.links[link_id.0];
        if !link.up {
            let cleared = self.nodes[node.0].port_mut(port).queue.clear();
            self.counters.link_drops += cleared as u64;
            return;
        }
        let Some(packet) = self.nodes[node.0].port_mut(port).queue.dequeue() else {
            return;
        };
        let link = &mut self.links[link_id.0];
        link.tx_packets += 1;
        link.tx_bytes += packet.size_bytes as u64;
        let ser = link.serialization_delay(packet.size_bytes);
        let remote = link
            .other_end(Endpoint { node, port })
            .expect("port_links maps to a link containing the endpoint");
        let latency = link.latency;
        self.nodes[node.0].port_mut(port).busy = true;
        self.schedule_at(self.now + ser, Event::PortFree { node, port });
        self.schedule_at(
            self.now + ser + latency,
            Event::Deliver {
                node: remote.node,
                in_port: remote.port,
                packet,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ftable::{Action, Match};
    use crate::packet::FlowKey;

    const MBPS: u64 = 1_000_000;

    fn two_hosts_one_switch() -> (Network, NodeId, NodeId, NodeId) {
        let mut net = Network::new();
        let h1 = net.add_host("h1", Ip::v4(10, 0, 0, 1));
        let h2 = net.add_host("h2", Ip::v4(10, 0, 0, 2));
        let s = net.add_switch("s1", 4);
        net.connect(h1, 0, s, 0, 10 * MBPS, Duration::from_micros(50));
        net.connect(h2, 0, s, 1, 10 * MBPS, Duration::from_micros(50));
        (net, h1, h2, s)
    }

    fn flow() -> FlowKey {
        FlowKey::udp(Ip::v4(10, 0, 0, 1), 5000, Ip::v4(10, 0, 0, 2), 9000)
    }

    #[test]
    fn packets_flow_end_to_end_with_rule() {
        let (mut net, h1, h2, s) = two_hosts_one_switch();
        net.install_rule(
            s,
            Rule {
                mat: Match::dst(Ip::v4(10, 0, 0, 2)),
                priority: 1,
                action: Action::Forward(1),
            },
        );
        net.attach_generator(
            h1,
            TrafficPattern::Cbr {
                flow: flow(),
                pps: 100.0,
                size: 1000,
                start: Duration::ZERO,
                stop: Duration::from_millis(500),
            },
        );
        net.drain();
        assert_eq!(net.host(h2).rx_packets, 50);
        assert_eq!(net.host(h2).rx_bytes, 50_000);
        assert_eq!(net.host(h1).rx_packets, 0);
        assert_eq!(net.counters.delivered, 50);
    }

    #[test]
    fn default_miss_policy_drops() {
        let (mut net, h1, h2, _s) = two_hosts_one_switch();
        net.attach_generator(
            h1,
            TrafficPattern::Cbr {
                flow: flow(),
                pps: 10.0,
                size: 100,
                start: Duration::ZERO,
                stop: Duration::from_millis(500),
            },
        );
        net.drain();
        assert_eq!(net.host(h2).rx_packets, 0);
        assert_eq!(net.counters.policy_drops, 5);
    }

    #[test]
    fn flood_reaches_all_other_ports() {
        let mut net = Network::new();
        let h1 = net.add_host("h1", Ip::v4(10, 0, 0, 1));
        let h2 = net.add_host("h2", Ip::v4(10, 0, 0, 2));
        let h3 = net.add_host("h3", Ip::v4(10, 0, 0, 3));
        let s = net.add_switch("s1", 4);
        net.connect(h1, 0, s, 0, MBPS, Duration::ZERO);
        net.connect(h2, 0, s, 1, MBPS, Duration::ZERO);
        net.connect(h3, 0, s, 2, MBPS, Duration::ZERO);
        net.set_miss_policy(s, MissPolicy::Flood);
        net.attach_generator(
            h1,
            TrafficPattern::Cbr {
                flow: flow(),
                pps: 10.0,
                size: 100,
                start: Duration::ZERO,
                stop: Duration::from_millis(100),
            },
        );
        net.drain();
        assert_eq!(net.host(h2).rx_packets, 1);
        assert_eq!(net.host(h3).rx_packets, 1);
        assert_eq!(net.host(h1).rx_packets, 0); // not flooded back out ingress
    }

    #[test]
    fn latency_and_serialization_delay_arrival() {
        let (mut net, h1, h2, s) = two_hosts_one_switch();
        net.install_rule(
            s,
            Rule {
                mat: Match::ANY,
                priority: 0,
                action: Action::Forward(1),
            },
        );
        net.attach_generator(
            h1,
            TrafficPattern::Cbr {
                flow: flow(),
                pps: 1.0,
                size: 1250, // 1 ms at 10 Mbps
                start: Duration::ZERO,
                stop: Duration::from_millis(10),
            },
        );
        net.drain();
        let rx = &net.host(h2).rx_log;
        assert_eq!(rx.len(), 1);
        // Two hops × (1 ms serialization + 50 µs latency) = 2.1 ms.
        let expect = 0.0021;
        assert!(
            (rx[0].at.as_secs_f64() - expect).abs() < 1e-6,
            "arrived at {:?}",
            rx[0].at
        );
    }

    #[test]
    fn queue_builds_under_overload_and_drops() {
        let mut net = Network::new();
        let h1 = net.add_host("h1", Ip::v4(10, 0, 0, 1));
        let h2 = net.add_host("h2", Ip::v4(10, 0, 0, 2));
        let s = net.add_switch_with_queue("s1", 2, 50);
        // Fast ingress, slow egress: queue must build at the switch.
        net.connect(h1, 0, s, 0, 100 * MBPS, Duration::ZERO);
        net.connect(h2, 0, s, 1, MBPS, Duration::ZERO);
        net.install_rule(
            s,
            Rule {
                mat: Match::ANY,
                priority: 0,
                action: Action::Forward(1),
            },
        );
        net.attach_generator(
            h1,
            TrafficPattern::Cbr {
                flow: flow(),
                pps: 1000.0, // 8 Mbps offered into a 1 Mbps egress
                size: 1000,
                start: Duration::ZERO,
                stop: Duration::from_secs(1),
            },
        );
        // Sample the queue mid-run.
        net.schedule_tick(Duration::from_millis(500), 7);
        let outcome = net.run_until(Duration::from_secs(5));
        assert_eq!(
            outcome,
            RunOutcome::Tick {
                tag: 7,
                at: Duration::from_millis(500)
            }
        );
        let mid_queue = net.switch(s).queue_len(1);
        assert!(
            mid_queue == 50,
            "queue should be saturated, got {mid_queue}"
        );
        net.drain();
        assert!(net.counters.queue_drops > 0);
        assert!(net.host(h2).rx_packets > 0);
    }

    #[test]
    fn queue_totals_and_obs_publish_surface_congestion() {
        let mut net = Network::new();
        let h1 = net.add_host("h1", Ip::v4(10, 0, 0, 1));
        let h2 = net.add_host("h2", Ip::v4(10, 0, 0, 2));
        let s = net.add_switch_with_queue("sw", 2, 50);
        net.connect(h1, 0, s, 0, 100 * MBPS, Duration::ZERO);
        net.connect(h2, 0, s, 1, MBPS, Duration::ZERO);
        net.install_rule(
            s,
            Rule {
                mat: Match::ANY,
                priority: 0,
                action: Action::Forward(1),
            },
        );
        net.attach_generator(
            h1,
            TrafficPattern::Cbr {
                flow: flow(),
                pps: 1000.0,
                size: 1000,
                start: Duration::ZERO,
                stop: Duration::from_secs(1),
            },
        );
        net.drain();

        let totals = net.queue_totals();
        assert_eq!(totals.dropped, net.counters.queue_drops);
        assert_eq!(totals.high_water, 50, "egress queue must have saturated");
        let per_queue = net.queue_stats();
        let egress = per_queue.iter().find(|q| q.name == "sw:1").unwrap();
        assert_eq!(egress.high_water, 50);
        assert!(egress.dropped > 0);

        let reg = mdn_obs::Registry::new();
        net.publish_obs(&reg);
        // Publishing twice must not double anything (gauges, not adds).
        net.publish_obs(&reg);
        let snap = reg.snapshot();
        assert_eq!(
            snap.gauges["mdn_queue_high_water{queue=\"sw:1\"}"],
            egress.high_water as f64
        );
        assert_eq!(
            snap.gauges["mdn_queue_dropped{queue=\"sw:1\"}"],
            egress.dropped as f64
        );
        assert_eq!(
            snap.gauges["mdn_net_delivered"],
            net.counters.delivered as f64
        );
        // The slow egress link (link id 1) ran at capacity for most of the
        // run; its utilization must be high and the ingress link's low.
        let slow = snap.gauges["mdn_link_utilization{link=\"1\"}"];
        let fast = snap.gauges["mdn_link_utilization{link=\"0\"}"];
        assert!(slow > 0.5, "slow egress utilization {slow}");
        assert!(fast < 0.2, "fast ingress utilization {fast}");
    }

    /// The PR 7 clamp counter and the throughput denominator must be
    /// visible in scrapes, not just on the struct.
    #[test]
    fn late_schedules_and_events_processed_are_published() {
        let mut net = Network::new();
        net.schedule_tick(Duration::from_millis(100), 1);
        net.run_until(Duration::from_secs(1));
        // `now` is 100 ms; a deliberately-late schedule gets clamped.
        net.schedule_tick(Duration::from_millis(40), 2);
        net.run_until(Duration::from_secs(1));

        let reg = mdn_obs::Registry::new();
        net.publish_obs(&reg);
        let snap = reg.snapshot();
        assert_eq!(snap.gauges["mdn_net_late_schedules"], 1.0);
        assert_eq!(
            snap.gauges["mdn_net_events_processed"],
            net.events_processed() as f64
        );
        assert!(net.events_processed() >= 2);
        assert!(reg.prometheus().contains("mdn_net_late_schedules 1"));
    }

    /// With obs attached, every dispatched (non-tick) event lands in the
    /// per-kind latency histograms plus the `kind="all"` aggregate.
    #[test]
    fn dispatch_latency_histograms_count_every_event_kind() {
        let (mut net, h1, _h2, s) = two_hosts_one_switch();
        net.install_rule(
            s,
            Rule {
                mat: Match::dst(Ip::v4(10, 0, 0, 2)),
                priority: 1,
                action: Action::Forward(1),
            },
        );
        net.attach_generator(
            h1,
            TrafficPattern::Cbr {
                flow: flow(),
                pps: 100.0,
                size: 1000,
                start: Duration::ZERO,
                stop: Duration::from_millis(100),
            },
        );
        let reg = mdn_obs::Registry::new();
        net.attach_obs(&reg);
        net.drain();
        let snap = reg.snapshot();
        let count = |kind: &str| {
            snap.histograms
                .get(&format!("mdn_net_dispatch_ns{{kind=\"{kind}\"}}"))
                .map_or(0, |h| h.count)
        };
        assert!(count("deliver") > 0, "deliveries must be timed");
        assert!(count("generate") > 0, "generator events must be timed");
        assert!(count("port_free") > 0, "port-free events must be timed");
        assert_eq!(
            count("all"),
            count("deliver") + count("generate") + count("port_free"),
            "the aggregate covers exactly the per-kind samples"
        );
    }

    #[test]
    fn link_tx_accounting_counts_both_hops() {
        let (mut net, h1, h2, s) = two_hosts_one_switch();
        net.install_rule(
            s,
            Rule {
                mat: Match::ANY,
                priority: 0,
                action: Action::Forward(1),
            },
        );
        net.attach_generator(
            h1,
            TrafficPattern::Cbr {
                flow: flow(),
                pps: 10.0,
                size: 200,
                start: Duration::ZERO,
                stop: Duration::from_secs(1),
            },
        );
        net.drain();
        let ingress = net.link(net.link_at(h1, 0).unwrap());
        let egress = net.link(net.link_at(h2, 0).unwrap());
        assert_eq!(ingress.tx_packets, 10);
        assert_eq!(ingress.tx_bytes, 2000);
        assert_eq!(egress.tx_packets, 10);
        assert!(egress.utilization(net.now()) > 0.0);
    }

    #[test]
    fn run_until_deadline_pauses_and_resumes() {
        let (mut net, h1, h2, s) = two_hosts_one_switch();
        net.install_rule(
            s,
            Rule {
                mat: Match::ANY,
                priority: 0,
                action: Action::Forward(1),
            },
        );
        net.attach_generator(
            h1,
            TrafficPattern::Cbr {
                flow: flow(),
                pps: 100.0,
                size: 100,
                start: Duration::ZERO,
                stop: Duration::from_secs(1),
            },
        );
        let out = net.run_until(Duration::from_millis(100));
        assert_eq!(out, RunOutcome::DeadlineReached);
        let early = net.host(h2).rx_packets;
        assert!(early > 0 && early < 15, "early {early}");
        net.drain();
        assert_eq!(net.host(h2).rx_packets, 100);
    }

    #[test]
    fn link_down_drops_traffic() {
        let (mut net, h1, h2, s) = two_hosts_one_switch();
        net.install_rule(
            s,
            Rule {
                mat: Match::ANY,
                priority: 0,
                action: Action::Forward(1),
            },
        );
        let egress = net.port_links[&(s, 1)];
        net.set_link_up(egress, false);
        net.attach_generator(
            h1,
            TrafficPattern::Cbr {
                flow: flow(),
                pps: 10.0,
                size: 100,
                start: Duration::ZERO,
                stop: Duration::from_millis(500),
            },
        );
        net.drain();
        assert_eq!(net.host(h2).rx_packets, 0);
        assert_eq!(net.counters.link_drops, 5);
    }

    /// Regression: a packet already serialized onto a link (its `Deliver`
    /// event scheduled) must not arrive after the link goes down. Taking a
    /// link down cannot unschedule heap events, so the delivery handler has
    /// to drop stale arrivals over a downed link and charge `link_drops`.
    #[test]
    fn link_down_drops_mid_flight_packets() {
        let (mut net, h1, h2, s) = two_hosts_one_switch();
        net.install_rule(
            s,
            Rule {
                mat: Match::ANY,
                priority: 0,
                action: Action::Forward(1),
            },
        );
        // One 1250-byte packet: 1 ms serialization per 10 Mbps hop + 50 µs
        // latency. It is on the s→h2 wire from 1.05 ms (switch starts
        // transmitting) until 2.1 ms (arrival at h2).
        net.attach_generator(
            h1,
            TrafficPattern::Cbr {
                flow: flow(),
                pps: 1.0,
                size: 1250,
                start: Duration::ZERO,
                stop: Duration::from_millis(500),
            },
        );
        net.schedule_tick(Duration::from_micros(1500), 7);
        let outcome = net.run_until(Duration::from_secs(1));
        assert!(matches!(outcome, RunOutcome::Tick { tag: 7, .. }));
        // Cut the egress link while the packet is mid-flight.
        net.set_link_up(net.port_links[&(s, 1)], false);
        net.drain();
        assert_eq!(
            net.host(h2).rx_packets,
            0,
            "mid-flight packet arrived over a downed link"
        );
        assert_eq!(net.counters.link_drops, 1);
        assert_eq!(net.counters.delivered, 0);
    }

    /// Satellite bugfix pin: after a chaos run (overload, link flap with
    /// packets mid-flight, switch crash and restart) every loss is charged
    /// to exactly one counter and the queue lifetime counters reconcile:
    /// `accepted == dequeued + cleared + in_flight` per queue, and at the
    /// network level `host tx == delivered + all drop classes`.
    #[test]
    fn chaos_run_counters_reconcile() {
        let mut net = Network::new();
        let h1 = net.add_host("h1", Ip::v4(10, 0, 0, 1));
        let h2 = net.add_host("h2", Ip::v4(10, 0, 0, 2));
        let s = net.add_switch_with_queue("s1", 2, 20);
        // Fast ingress, slow egress: the switch queue saturates.
        net.connect(h1, 0, s, 0, 100 * MBPS, Duration::from_micros(50));
        net.connect(h2, 0, s, 1, MBPS, Duration::from_micros(50));
        let rule = Rule {
            mat: Match::ANY,
            priority: 0,
            action: Action::Forward(1),
        };
        net.install_rule(s, rule.clone());
        net.attach_generator(
            h1,
            TrafficPattern::Cbr {
                flow: flow(),
                pps: 1000.0, // 8 Mbps offered into a 1 Mbps egress
                size: 1000,
                start: Duration::ZERO,
                stop: Duration::from_secs(1),
            },
        );
        let egress = net.port_links[&(s, 1)];
        net.schedule_tick(Duration::from_millis(300), 0);
        net.schedule_tick(Duration::from_millis(400), 1);
        net.schedule_tick(Duration::from_millis(600), 2);
        net.schedule_tick(Duration::from_millis(700), 3);
        loop {
            match net.run_until(Duration::from_secs(5)) {
                RunOutcome::Tick { tag: 0, .. } => net.set_link_up(egress, false),
                RunOutcome::Tick { tag: 1, .. } => net.set_link_up(egress, true),
                RunOutcome::Tick { tag: 2, .. } => net.crash_switch(s),
                RunOutcome::Tick { tag: 3, .. } => {
                    net.restart_switch(s);
                    net.install_rule(s, rule.clone());
                }
                RunOutcome::Tick { .. } => unreachable!(),
                _ => break,
            }
        }
        net.drain();

        // The run actually exercised every loss path.
        let c = &net.counters;
        assert!(c.delivered > 0, "some traffic must get through");
        assert!(c.queue_drops > 0, "overload must tail-drop");
        assert!(c.link_drops > 0, "link flap must drop");
        assert!(c.crash_drops > 0, "crash must drop");
        let totals = net.queue_totals();
        assert!(totals.cleared > 0, "link flap / crash must clear queues");

        // Per-queue lifetime identity.
        for q in net.queue_stats() {
            assert_eq!(
                q.accepted,
                q.dequeued + q.cleared + q.in_flight as u64,
                "queue {} does not reconcile: {q:?}",
                q.name
            );
        }
        assert_eq!(totals.in_flight, 0, "drain leaves no occupancy");
        assert_eq!(totals.accepted, totals.dequeued + totals.cleared);

        // Network-level conservation: every emitted packet is delivered or
        // charged to exactly one drop class.
        let tx = net.host(h1).tx_packets;
        assert_eq!(
            tx,
            c.delivered + c.policy_drops + c.queue_drops + c.link_drops + c.crash_drops,
            "conservation violated: tx {tx} vs {c:?}"
        );
    }

    #[test]
    fn crashed_switch_black_holes_until_restart() {
        let (mut net, h1, h2, s) = two_hosts_one_switch();
        net.install_rule(
            s,
            Rule {
                mat: Match::ANY,
                priority: 0,
                action: Action::Forward(1),
            },
        );
        net.attach_generator(
            h1,
            TrafficPattern::Cbr {
                flow: flow(),
                pps: 10.0,
                size: 100,
                start: Duration::ZERO,
                stop: Duration::from_secs(1),
            },
        );
        net.schedule_tick(Duration::from_millis(300), 1);
        net.run_until(Duration::from_secs(2));
        net.crash_switch(s);
        assert!(net.switch(s).crashed);
        assert!(net.switch(s).table.is_empty(), "crash wipes the table");
        net.drain();
        let after_crash = net.host(h2).rx_packets;
        assert!(after_crash < 10, "crash must black-hole traffic");
        assert!(net.counters.crash_drops > 0);

        // Restart: the table is still empty, so the controller must
        // reinstall before traffic flows again.
        net.restart_switch(s);
        assert!(!net.switch(s).crashed);
        assert!(net.switch(s).table.is_empty());
        net.install_rule(
            s,
            Rule {
                mat: Match::ANY,
                priority: 0,
                action: Action::Forward(1),
            },
        );
        net.attach_generator(
            h1,
            TrafficPattern::Cbr {
                flow: flow(),
                pps: 10.0,
                size: 100,
                start: Duration::from_secs(2),
                stop: Duration::from_secs(3),
            },
        );
        net.drain();
        assert!(net.host(h2).rx_packets > after_crash);
    }

    #[test]
    fn link_accessor_reports_state() {
        let (mut net, _h1, _h2, s) = two_hosts_one_switch();
        let id = net.link_at(s, 1).unwrap();
        assert!(net.link(id).up);
        net.set_link_up(id, false);
        assert!(!net.link(id).up);
    }

    #[test]
    fn ticks_fire_in_order_with_tags() {
        let mut net = Network::new();
        net.schedule_tick(Duration::from_millis(20), 2);
        net.schedule_tick(Duration::from_millis(10), 1);
        let a = net.run_until(Duration::from_secs(1));
        let b = net.run_until(Duration::from_secs(1));
        let c = net.run_until(Duration::from_secs(1));
        assert_eq!(
            a,
            RunOutcome::Tick {
                tag: 1,
                at: Duration::from_millis(10)
            }
        );
        assert_eq!(
            b,
            RunOutcome::Tick {
                tag: 2,
                at: Duration::from_millis(20)
            }
        );
        assert_eq!(c, RunOutcome::Exhausted);
        assert_eq!(net.now(), Duration::from_secs(1));
    }

    /// Regression: scheduling an event before the already-advanced `now`
    /// used to be accepted verbatim, so the next pop moved virtual time
    /// *backward* through every causality argument. Late requests are now
    /// clamped to `now` and counted.
    #[test]
    fn late_schedule_is_clamped_to_now_and_counted() {
        let mut net = Network::new();
        net.schedule_tick(Duration::from_millis(100), 1);
        let out = net.run_until(Duration::from_secs(1));
        assert_eq!(
            out,
            RunOutcome::Tick {
                tag: 1,
                at: Duration::from_millis(100)
            }
        );
        assert_eq!(net.counters.late_schedules, 0);

        // `now` is 100 ms; ask for a tick 60 ms in the past.
        net.schedule_tick(Duration::from_millis(40), 2);
        assert_eq!(net.counters.late_schedules, 1);
        let out = net.run_until(Duration::from_secs(1));
        assert_eq!(
            out,
            RunOutcome::Tick {
                tag: 2,
                at: Duration::from_millis(100)
            },
            "late tick must fire at the clamped time, not in the past"
        );
        assert_eq!(net.now(), Duration::from_millis(100));
    }

    /// Regression: `run_until` used to treat an event at exactly the
    /// deadline as in-scope (`t > deadline` exited) while every acoustic
    /// span is half-open `[from, from + len)`. Chained window runs then
    /// disagreed with the capture windows about which epoch owns a
    /// boundary event. The run span is now `[now, deadline)`: a tick at
    /// exactly the boundary belongs to the *next* window, and is
    /// delivered exactly once.
    #[test]
    fn event_at_deadline_belongs_to_the_next_window() {
        let mut net = Network::new();
        let boundary = Duration::from_millis(300);
        net.schedule_tick(boundary, 7);

        // Window [0, 300): the boundary tick is out of scope.
        let first = net.run_until(boundary);
        assert_eq!(first, RunOutcome::DeadlineReached);
        assert_eq!(net.now(), boundary);

        // Window [300, 600): the tick fires here, exactly once.
        let second = net.run_until(Duration::from_millis(600));
        assert_eq!(
            second,
            RunOutcome::Tick {
                tag: 7,
                at: boundary
            }
        );
        let third = net.run_until(Duration::from_millis(600));
        assert_eq!(third, RunOutcome::Exhausted);
    }

    #[test]
    fn events_processed_counts_every_pop() {
        let mut net = Network::new();
        net.schedule_tick(Duration::from_millis(10), 0);
        net.schedule_tick(Duration::from_millis(20), 1);
        assert_eq!(net.events_processed(), 0);
        net.run_until(Duration::from_secs(1));
        assert_eq!(net.events_processed(), 1);
        net.drain();
        assert_eq!(net.events_processed(), 2);
    }

    #[test]
    #[should_panic(expected = "already wired")]
    fn double_wiring_a_port_panics() {
        let mut net = Network::new();
        let h1 = net.add_host("h1", Ip::v4(10, 0, 0, 1));
        let s = net.add_switch("s1", 4);
        net.connect(h1, 0, s, 0, MBPS, Duration::ZERO);
        let h2 = net.add_host("h2", Ip::v4(10, 0, 0, 2));
        net.connect(h2, 0, s, 0, MBPS, Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "generators attach to hosts")]
    fn generator_on_switch_panics() {
        let mut net = Network::new();
        let s = net.add_switch("s1", 2);
        net.attach_generator(
            s,
            TrafficPattern::Cbr {
                flow: flow(),
                pps: 1.0,
                size: 100,
                start: Duration::ZERO,
                stop: Duration::from_secs(1),
            },
        );
    }

    #[test]
    fn tap_records_arrivals_even_for_dropped_packets() {
        let (mut net, h1, _h2, s) = two_hosts_one_switch();
        net.switch_mut(s).enable_tap();
        // No rules: everything is policy-dropped, but the tap still sees it.
        net.attach_generator(
            h1,
            TrafficPattern::Cbr {
                flow: flow(),
                pps: 10.0,
                size: 100,
                start: Duration::ZERO,
                stop: Duration::from_millis(300),
            },
        );
        net.drain();
        let tap = net.switch(s).tap.as_ref().unwrap();
        assert_eq!(tap.len(), 3);
        assert!(tap.windows(2).all(|w| w[1].at >= w[0].at));
        assert_eq!(tap[0].in_port, 0);
        assert_eq!(tap[0].flow, flow());
    }

    #[test]
    fn packet_in_policy_queues_miss_records() {
        let (mut net, h1, h2, s) = two_hosts_one_switch();
        net.set_miss_policy(s, MissPolicy::PacketIn);
        net.attach_generator(
            h1,
            TrafficPattern::Cbr {
                flow: flow(),
                pps: 10.0,
                size: 123,
                start: Duration::ZERO,
                stop: Duration::from_millis(300),
            },
        );
        net.drain();
        // Misses were dropped (not delivered) but recorded for the
        // controller.
        assert_eq!(net.host(h2).rx_packets, 0);
        let outbox = &net.switch(s).miss_outbox;
        assert_eq!(outbox.len(), 3);
        assert!(outbox.windows(2).all(|w| w[1].at >= w[0].at));
        assert_eq!(outbox[0].in_port, 0);
        assert_eq!(outbox[0].flow, flow());
        assert_eq!(outbox[0].total_len, 123);
    }

    #[test]
    fn tap_disabled_by_default() {
        let (net, _, _, s) = two_hosts_one_switch();
        assert!(net.switch(s).tap.is_none());
    }

    #[test]
    fn forwarding_to_ingress_counts_as_policy_drop() {
        let (mut net, h1, _h2, s) = two_hosts_one_switch();
        // Bogus rule: send back out the ingress port.
        net.install_rule(
            s,
            Rule {
                mat: Match::ANY,
                priority: 0,
                action: Action::Forward(0),
            },
        );
        net.attach_generator(
            h1,
            TrafficPattern::Cbr {
                flow: flow(),
                pps: 10.0,
                size: 100,
                start: Duration::ZERO,
                stop: Duration::from_millis(200),
            },
        );
        net.drain();
        assert_eq!(net.counters.policy_drops, 2);
    }
}
