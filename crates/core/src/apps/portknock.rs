//! §4 — State processing: the port-knocking finite state machine.
//!
//! "The controller keeps track of what sounds it has heard thus far from
//! the switch; each sound is then mapped to the destination port number
//! received by the switch. [...] Once we hear the frequencies in the
//! correct sequence, we allow traffic to be forwarded by adding a flow
//! table entry at the switch." The FSM lives in the MDN controller (not in
//! the switch, unlike OpenState) and emits the FlowMod that opens the port.

use crate::controller::{device_tones, MdnEvent};
use mdn_net::ftable::{Action, Match, Rule};
use mdn_proto::openflow::{FlowModCommand, OfMessage};
use std::time::Duration;

/// Result of feeding one knock to the FSM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnockOutcome {
    /// Correct knock; `usize` is how many of the sequence are now matched.
    Progress(usize),
    /// Wrong knock; the FSM reset (a correct *first* knock re-arms to 1).
    Reset,
    /// The final knock matched: the port is now open.
    Unlocked,
    /// Knocks after unlock are ignored.
    AlreadyUnlocked,
}

/// The port-knocking FSM.
#[derive(Debug, Clone)]
pub struct PortKnockFsm {
    sequence: Vec<usize>,
    progress: usize,
    unlocked: bool,
    /// Total knocks observed.
    pub knocks: u64,
    /// Times the FSM reset on a wrong knock.
    pub resets: u64,
}

impl PortKnockFsm {
    /// An FSM expecting the given slot sequence.
    ///
    /// # Panics
    /// Panics on an empty sequence.
    pub fn new(sequence: Vec<usize>) -> Self {
        assert!(!sequence.is_empty(), "knock sequence cannot be empty");
        Self {
            sequence,
            progress: 0,
            unlocked: false,
            knocks: 0,
            resets: 0,
        }
    }

    /// Has the full sequence been heard?
    pub fn is_unlocked(&self) -> bool {
        self.unlocked
    }

    /// How many sequence positions are currently matched.
    pub fn progress(&self) -> usize {
        self.progress
    }

    /// Feed one knock (a device-local slot index).
    pub fn observe(&mut self, slot: usize) -> KnockOutcome {
        if self.unlocked {
            return KnockOutcome::AlreadyUnlocked;
        }
        self.knocks += 1;
        if slot == self.sequence[self.progress] {
            self.progress += 1;
            if self.progress == self.sequence.len() {
                self.unlocked = true;
                KnockOutcome::Unlocked
            } else {
                KnockOutcome::Progress(self.progress)
            }
        } else {
            self.resets += 1;
            // A wrong knock that happens to equal the first symbol re-arms
            // the sequence at position 1 (standard knockd behaviour).
            self.progress = usize::from(slot == self.sequence[0]);
            KnockOutcome::Reset
        }
    }

    /// Relock the FSM (e.g. after a timeout policy).
    pub fn relock(&mut self) {
        self.unlocked = false;
        self.progress = 0;
    }
}

/// The controller-side application: binds the FSM to a device's tone
/// events and produces the FlowMod that opens the protected port.
#[derive(Debug)]
pub struct PortKnockApp {
    /// The sounding device whose knocks we accept.
    pub device: String,
    /// The FSM.
    pub fsm: PortKnockFsm,
    /// The TCP port to open on unlock.
    pub protected_port: u16,
    /// Switch port to forward unlocked traffic out of.
    pub egress_port: usize,
    refractory: Duration,
    next_xid: u32,
    /// Last processed time per slot, for deduplication across listen
    /// windows (windows may overlap so boundary tones aren't clipped).
    last_knock: std::collections::HashMap<usize, Duration>,
}

impl PortKnockApp {
    /// Build the application.
    pub fn new(
        device: impl Into<String>,
        sequence: Vec<usize>,
        protected_port: u16,
        egress_port: usize,
    ) -> Self {
        Self {
            device: device.into(),
            fsm: PortKnockFsm::new(sequence),
            protected_port,
            egress_port,
            refractory: Duration::from_millis(120),
            next_xid: 1,
            last_knock: std::collections::HashMap::new(),
        }
    }

    /// Feed a batch of controller events (one listen window; event times
    /// must be scene-absolute). Windows may overlap — a knock seen twice
    /// across windows is deduplicated by its absolute time. Returns the
    /// FlowMod to send when the unlock happens within this batch.
    pub fn on_events(&mut self, events: &[MdnEvent]) -> Option<OfMessage> {
        for e in device_tones(events, &self.device, self.refractory) {
            // Cross-window dedup: skip if this slot was already processed
            // at (or within refractory of) this time.
            match self.last_knock.get(&e.slot) {
                Some(&t) if e.time.saturating_sub(t) <= self.refractory => continue,
                _ => {}
            }
            self.last_knock.insert(e.slot, e.time);
            if self.fsm.observe(e.slot) == KnockOutcome::Unlocked {
                let xid = self.next_xid;
                self.next_xid += 1;
                return Some(OfMessage::FlowMod {
                    xid,
                    command: FlowModCommand::Add,
                    priority: 100,
                    mat: Match::dst_transport_port(self.protected_port),
                    action: Action::Forward(self.egress_port),
                });
            }
        }
        None
    }

    /// The baseline rule a secured switch starts with: drop traffic to the
    /// protected port (and everything else, via the table-miss Drop
    /// policy).
    pub fn baseline_drop_rule(&self) -> Rule {
        Rule {
            mat: Match::dst_transport_port(self.protected_port),
            priority: 1,
            action: Action::Drop,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correct_sequence_unlocks() {
        let mut fsm = PortKnockFsm::new(vec![2, 0, 1]);
        assert_eq!(fsm.observe(2), KnockOutcome::Progress(1));
        assert_eq!(fsm.observe(0), KnockOutcome::Progress(2));
        assert_eq!(fsm.observe(1), KnockOutcome::Unlocked);
        assert!(fsm.is_unlocked());
    }

    #[test]
    fn wrong_knock_resets() {
        let mut fsm = PortKnockFsm::new(vec![2, 0, 1]);
        fsm.observe(2);
        fsm.observe(0);
        assert_eq!(fsm.observe(3), KnockOutcome::Reset);
        assert_eq!(fsm.progress(), 0);
        assert_eq!(fsm.resets, 1);
        // The full sequence still works afterwards.
        fsm.observe(2);
        fsm.observe(0);
        assert_eq!(fsm.observe(1), KnockOutcome::Unlocked);
    }

    #[test]
    fn wrong_knock_equal_to_first_symbol_rearms() {
        let mut fsm = PortKnockFsm::new(vec![2, 0, 1]);
        fsm.observe(2);
        // Wrong (expected 0) but equals the first symbol → progress = 1.
        assert_eq!(fsm.observe(2), KnockOutcome::Reset);
        assert_eq!(fsm.progress(), 1);
        fsm.observe(0);
        assert_eq!(fsm.observe(1), KnockOutcome::Unlocked);
    }

    #[test]
    fn knocks_after_unlock_ignored() {
        let mut fsm = PortKnockFsm::new(vec![0]);
        assert_eq!(fsm.observe(0), KnockOutcome::Unlocked);
        assert_eq!(fsm.observe(5), KnockOutcome::AlreadyUnlocked);
        assert_eq!(fsm.knocks, 1);
    }

    #[test]
    fn relock_restores_initial_state() {
        let mut fsm = PortKnockFsm::new(vec![0, 1]);
        fsm.observe(0);
        fsm.observe(1);
        assert!(fsm.is_unlocked());
        fsm.relock();
        assert!(!fsm.is_unlocked());
        assert_eq!(fsm.progress(), 0);
    }

    #[test]
    #[should_panic(expected = "cannot be empty")]
    fn empty_sequence_panics() {
        PortKnockFsm::new(vec![]);
    }

    fn ev(device: &str, slot: usize, ms: u64) -> MdnEvent {
        MdnEvent {
            device: device.into(),
            slot,
            time: Duration::from_millis(ms),
            freq_hz: 500.0,
            magnitude: 0.1,
        }
    }

    #[test]
    fn app_unlocks_on_event_stream_and_emits_flowmod() {
        let mut app = PortKnockApp::new("sw1", vec![2, 0, 1], 8080, 1);
        // Each knock appears as several overlapping detector frames.
        let batch1 = vec![
            ev("sw1", 2, 0),
            ev("sw1", 2, 25),
            ev("sw1", 0, 400),
            ev("sw1", 0, 425),
        ];
        assert!(app.on_events(&batch1).is_none());
        assert_eq!(app.fsm.progress(), 2);
        let batch2 = vec![ev("sw1", 1, 800), ev("sw1", 1, 825)];
        let msg = app.on_events(&batch2).expect("unlock FlowMod");
        match msg {
            OfMessage::FlowMod {
                command: FlowModCommand::Add,
                mat,
                action,
                ..
            } => {
                assert_eq!(mat, Match::dst_transport_port(8080));
                assert_eq!(action, Action::Forward(1));
            }
            other => panic!("unexpected message {other:?}"),
        }
    }

    #[test]
    fn app_dedupes_across_overlapping_windows() {
        let mut app = PortKnockApp::new("sw1", vec![2, 0], 8080, 1);
        // Window 1 ends mid-tone; window 2 re-observes the same knock.
        assert!(app.on_events(&[ev("sw1", 2, 1000)]).is_none());
        assert!(app.on_events(&[ev("sw1", 2, 1025)]).is_none());
        assert_eq!(app.fsm.progress(), 1, "duplicate knock double-counted");
        let msg = app.on_events(&[ev("sw1", 0, 1500)]);
        assert!(msg.is_some());
    }

    #[test]
    fn app_ignores_other_devices() {
        let mut app = PortKnockApp::new("sw1", vec![0], 8080, 1);
        let events = vec![ev("sw2", 0, 0)];
        assert!(app.on_events(&events).is_none());
        assert!(!app.fsm.is_unlocked());
    }

    #[test]
    fn baseline_rule_drops_protected_port() {
        let app = PortKnockApp::new("sw1", vec![0], 22, 1);
        let rule = app.baseline_drop_rule();
        assert_eq!(rule.action, Action::Drop);
        assert_eq!(rule.mat, Match::dst_transport_port(22));
    }
}
