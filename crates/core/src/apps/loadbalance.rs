//! §6 — Music-defined load balancing.
//!
//! Figure 5a-b: four switches in a rhomboid; every 300 ms each switch
//! sounds its queue band; "when the MDN controller application hears a
//! sound associated with an overloaded switch, it sends an OpenFlow
//! flow-MOD message so that the source traffic gets split across two
//! ports, balancing the traffic load across the two different available
//! routes."

use crate::apps::queuemon::{QueueBand, QueueMonitor, QueueToneMapper};
use crate::controller::MdnEvent;
use mdn_net::ftable::{Action, Match};
use mdn_proto::openflow::{FlowModCommand, OfMessage};
use std::time::Duration;

/// The rebalancing decision the app produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Rebalance {
    /// When the triggering tone was heard.
    pub at: Duration,
    /// The FlowMod to deliver to the ingress switch.
    pub flow_mod: OfMessage,
}

/// The load-balancer application.
#[derive(Debug)]
pub struct LoadBalancerApp {
    /// The monitored (ingress) switch device name.
    pub watched_device: String,
    /// Match for the traffic to rebalance.
    pub traffic: Match,
    /// Ports to split across on the ingress switch.
    pub split_ports: Vec<usize>,
    monitor: QueueMonitor,
    rebalanced: bool,
    next_xid: u32,
}

impl LoadBalancerApp {
    /// Build the app: rebalance `traffic` across `split_ports` when
    /// `watched_device` sounds congested.
    ///
    /// # Panics
    /// Panics unless at least two split ports are given.
    pub fn new(
        watched_device: impl Into<String>,
        traffic: Match,
        split_ports: Vec<usize>,
        mapper: QueueToneMapper,
    ) -> Self {
        assert!(split_ports.len() >= 2, "splitting needs at least two ports");
        let watched_device = watched_device.into();
        Self {
            watched_device: watched_device.clone(),
            traffic,
            split_ports,
            monitor: QueueMonitor::new(watched_device, mapper),
            rebalanced: false,
            next_xid: 1,
        }
    }

    /// Feed one listen window of events. Returns the rebalance decision the
    /// first time a High band tone is heard; afterwards the app is quiet
    /// (the paper installs a single corrective FlowMod).
    pub fn on_events(&mut self, events: &[MdnEvent]) -> Option<Rebalance> {
        if self.rebalanced {
            return None;
        }
        let at = self
            .monitor
            .reports(events)
            .into_iter()
            .find(|r| r.band == QueueBand::High)?
            .time;
        self.rebalanced = true;
        let xid = self.next_xid;
        self.next_xid += 1;
        Some(Rebalance {
            at,
            flow_mod: OfMessage::FlowMod {
                xid,
                command: FlowModCommand::Add,
                // Outranks the single-path routing rule.
                priority: 50,
                mat: self.traffic,
                action: Action::SplitRoundRobin(self.split_ports.clone()),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdn_net::packet::Ip;

    fn ev(slot: usize, ms: u64) -> MdnEvent {
        MdnEvent {
            device: "s_in".into(),
            slot,
            time: Duration::from_millis(ms),
            freq_hz: 500.0 + 100.0 * slot as f64,
            magnitude: 0.1,
        }
    }

    fn app() -> LoadBalancerApp {
        LoadBalancerApp::new(
            "s_in",
            Match::dst(Ip::v4(10, 0, 0, 2)),
            vec![1, 2],
            QueueToneMapper::default(),
        )
    }

    #[test]
    fn low_and_mid_tones_do_not_trigger() {
        let mut a = app();
        assert!(a.on_events(&[ev(0, 0), ev(1, 300), ev(1, 600)]).is_none());
        assert!(!a.rebalanced);
    }

    #[test]
    fn high_tone_triggers_split_flowmod() {
        let mut a = app();
        let reb = a.on_events(&[ev(1, 300), ev(2, 600)]).expect("rebalance");
        assert_eq!(reb.at, Duration::from_millis(600));
        match reb.flow_mod {
            OfMessage::FlowMod {
                command: FlowModCommand::Add,
                action,
                priority,
                ..
            } => {
                assert_eq!(action, Action::SplitRoundRobin(vec![1, 2]));
                assert!(priority > 0);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(a.rebalanced);
    }

    #[test]
    fn only_rebalances_once() {
        let mut a = app();
        assert!(a.on_events(&[ev(2, 300)]).is_some());
        assert!(a.on_events(&[ev(2, 600)]).is_none());
    }

    #[test]
    fn ignores_other_devices() {
        let mut a = app();
        let other = MdnEvent {
            device: "s_out".into(),
            ..ev(2, 100)
        };
        assert!(a.on_events(&[other]).is_none());
    }

    #[test]
    #[should_panic(expected = "at least two ports")]
    fn single_split_port_panics() {
        LoadBalancerApp::new("s", Match::ANY, vec![1], QueueToneMapper::default());
    }
}
