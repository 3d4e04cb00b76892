//! Scheduled network faults: link flaps and switch crashes.
//!
//! A [`FaultScript`] is a sorted list of `(time, fault)` events applied
//! to a [`Network`] as virtual time passes — the network-layer half of
//! the fault-injection subsystem (acoustic faults live in
//! `mdn_acoustics::faults`).
//! Scripts are plain data, so a chaos scenario is reproducible by
//! construction: same script, same network, same outcome.

use crate::link::LinkId;
use crate::network::Network;
use crate::sim::NodeId;
use std::time::Duration;

/// One injectable network fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// Take a link administratively down (queued packets are dropped).
    LinkDown(LinkId),
    /// Bring a link back up.
    LinkUp(LinkId),
    /// Crash a switch: wipe its flow table, black-hole its traffic.
    SwitchCrash(NodeId),
    /// Restart a crashed switch (its table stays empty).
    SwitchRestart(NodeId),
}

/// A time-ordered schedule of [`NetFault`]s.
#[derive(Debug, Clone, Default)]
pub struct FaultScript {
    /// `(when, what)`, sorted by time; ties apply in insertion order.
    events: Vec<(Duration, NetFault)>,
    applied: usize,
}

impl FaultScript {
    /// An empty script.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `fault` at `time` (builder-style; keeps the list sorted,
    /// ties after existing events at the same time).
    pub fn at(mut self, time: Duration, fault: NetFault) -> Self {
        let idx = self.events.partition_point(|(t, _)| *t <= time);
        self.events.insert(idx, (time, fault));
        self
    }

    /// Schedule a link flap: down at `down_at`, back up at `up_at`.
    ///
    /// # Panics
    /// Panics unless `down_at < up_at`.
    pub fn flap(self, link: LinkId, down_at: Duration, up_at: Duration) -> Self {
        assert!(down_at < up_at, "flap must go down before it comes up");
        self.at(down_at, NetFault::LinkDown(link))
            .at(up_at, NetFault::LinkUp(link))
    }

    /// Apply every not-yet-applied fault scheduled at or before `now`.
    /// Returns how many were applied. Call once per control tick.
    pub fn apply_due(&mut self, net: &mut Network, now: Duration) -> usize {
        let mut n = 0;
        while let Some(&(time, fault)) = self.events.get(self.applied) {
            if time > now {
                break;
            }
            net.apply_fault(fault);
            self.applied += 1;
            n += 1;
        }
        n
    }

    /// Faults not yet applied.
    pub fn remaining(&self) -> usize {
        self.events.len() - self.applied
    }

    /// The full schedule (applied and pending), in order.
    pub fn events(&self) -> &[(Duration, NetFault)] {
        &self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ftable::{Action, Match, Rule};
    use crate::packet::{FlowKey, Ip};
    use crate::traffic::TrafficPattern;

    const MS: fn(u64) -> Duration = Duration::from_millis;

    #[test]
    fn events_stay_sorted_regardless_of_insertion_order() {
        let s = FaultScript::new()
            .at(MS(300), NetFault::LinkUp(LinkId(0)))
            .at(MS(100), NetFault::LinkDown(LinkId(0)))
            .at(MS(200), NetFault::SwitchCrash(NodeId(1)));
        let times: Vec<u64> = s
            .events()
            .iter()
            .map(|(t, _)| t.as_millis() as u64)
            .collect();
        assert_eq!(times, vec![100, 200, 300]);
    }

    #[test]
    fn apply_due_is_incremental() {
        let mut net = Network::new();
        let h1 = net.add_host("h1", Ip::v4(10, 0, 0, 1));
        let s = net.add_switch("s1", 2);
        let link = net.connect(h1, 0, s, 0, 1_000_000, Duration::ZERO);
        let mut script = FaultScript::new().flap(link, MS(100), MS(300));
        assert_eq!(script.remaining(), 2);
        assert_eq!(script.apply_due(&mut net, MS(50)), 0);
        assert_eq!(script.apply_due(&mut net, MS(100)), 1);
        assert!(!net.link(link).up);
        // Same instant again: nothing re-applies.
        assert_eq!(script.apply_due(&mut net, MS(100)), 0);
        assert_eq!(script.apply_due(&mut net, MS(500)), 1);
        assert!(net.link(link).up);
        assert_eq!(script.remaining(), 0);
    }

    #[test]
    fn scripted_flap_interrupts_then_restores_traffic() {
        let mut net = Network::new();
        let h1 = net.add_host("h1", Ip::v4(10, 0, 0, 1));
        let h2 = net.add_host("h2", Ip::v4(10, 0, 0, 2));
        net.host_mut(h2).enable_rx_log();
        let s = net.add_switch("s1", 2);
        net.connect(h1, 0, s, 0, 10_000_000, Duration::from_micros(50));
        let egress = net.connect(h2, 0, s, 1, 10_000_000, Duration::from_micros(50));
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
                flow: FlowKey::udp(Ip::v4(10, 0, 0, 1), 1, Ip::v4(10, 0, 0, 2), 2),
                pps: 100.0,
                size: 100,
                start: Duration::ZERO,
                stop: MS(1000),
            },
        );
        let mut script = FaultScript::new().flap(egress, MS(300), MS(600));
        for step in 1..=10u64 {
            net.schedule_tick(MS(step * 100), step);
        }
        while let crate::network::RunOutcome::Tick { at, .. } = net.run_until(MS(1200)) {
            script.apply_due(&mut net, at);
        }
        net.drain();
        let before = net.host(h2).rx_bytes_between(Duration::ZERO, MS(300));
        let during = net.host(h2).rx_bytes_between(MS(310), MS(600));
        let after = net.host(h2).rx_bytes_between(MS(610), MS(1200));
        assert!(before > 0);
        assert_eq!(during, 0, "flapped link must carry nothing");
        assert!(after > 0, "traffic must resume after the flap");
        assert!(net.counters.link_drops > 0);
    }

    #[test]
    fn switch_crash_script_wipes_table() {
        let mut net = Network::new();
        let s = net.add_switch("s1", 2);
        net.install_rule(
            s,
            Rule {
                mat: Match::ANY,
                priority: 0,
                action: Action::Forward(1),
            },
        );
        let mut script = FaultScript::new()
            .at(MS(100), NetFault::SwitchCrash(s))
            .at(MS(200), NetFault::SwitchRestart(s));
        script.apply_due(&mut net, MS(150));
        assert!(net.switch(s).crashed);
        assert!(net.switch(s).table.is_empty());
        script.apply_due(&mut net, MS(250));
        assert!(!net.switch(s).crashed);
        assert!(
            net.switch(s).table.is_empty(),
            "restart does not restore rules"
        );
    }

    #[test]
    #[should_panic(expected = "down before")]
    fn flap_rejects_inverted_window() {
        FaultScript::new().flap(LinkId(0), MS(200), MS(100));
    }
}
