//! Reliable Music Protocol delivery and OpenFlow liveness probing.
//!
//! The MP wire format has carried `seq` and `Ack` fields since the seed,
//! but nothing used them: a lost `PlayTone` was simply a tone that never
//! sounded. This module closes that loop with classic ARQ machinery sized
//! for the paper's 300 ms control cadence:
//!
//! * [`MpLink`] — a bidirectional MP channel (switch → Pi frames, Pi →
//!   switch acks) built from two [`FaultyQueue`]s, so loss/corruption/
//!   reordering are injectable per direction;
//! * [`MpEndpoint`] — the switch side: tracks outstanding `seq`s,
//!   retransmits unacked frames with exponential backoff, expires frames
//!   past the retry budget, and surfaces delivery counters;
//! * [`MpReceiver`] — the Pi side: acks every data frame (including
//!   duplicates, so a lost ack is recoverable) and deduplicates by `seq`;
//! * [`EchoMonitor`] — OpenFlow `EchoRequest`/`EchoReply` probing over a
//!   [`ControlChannel`], declaring the wire dead after consecutive
//!   timeouts — the trigger for falling back to the acoustic path.

use crate::channel::ControlChannel;
use crate::faults::{DirectionFaults, FaultStats, FaultyQueue};
use crate::mp::{MpMessage, MpTone};
use crate::openflow::OfMessage;
use mdn_obs::{Counter, Gauge, Registry};
use std::collections::HashSet;
use std::time::Duration;

/// Registry handles for one [`MpEndpoint`]'s delivery counters.
#[derive(Debug, Clone, Default)]
struct MpObs {
    sent: Counter,
    retransmitted: Counter,
    acked: Counter,
    expired: Counter,
}

/// Retransmission policy: exponential backoff from `base` capped at
/// `cap`, giving up after `max_retries` retransmissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct BackoffConfig {
    /// Delay before the first retransmission.
    pub base: Duration,
    /// Upper bound on any retransmission delay.
    pub cap: Duration,
    /// Retransmissions allowed before a frame expires (0 = fire once).
    pub max_retries: u32,
}

impl Default for BackoffConfig {
    fn default() -> Self {
        Self {
            base: Duration::from_millis(200),
            cap: Duration::from_secs(1),
            max_retries: 5,
        }
    }
}

impl BackoffConfig {
    /// Check the retry-schedule invariants: a zero `base` would collapse
    /// every retransmission onto the original send, and a `cap` below
    /// `base` makes the very first delay violate its own bound.
    pub fn validate(&self) -> Result<(), mdn_obs::ConfigError> {
        if self.base == std::time::Duration::ZERO {
            return Err(mdn_obs::ConfigError::new(
                "base",
                "the first retransmission delay must be positive",
            ));
        }
        if self.cap < self.base {
            return Err(mdn_obs::ConfigError::new(
                "cap",
                format!("cap {:?} is below base {:?}", self.cap, self.base),
            ));
        }
        Ok(())
    }

    /// Delay scheduled after attempt number `attempt` (0 = the initial
    /// send): `min(base · 2^attempt, cap)`.
    pub fn delay(&self, attempt: u32) -> Duration {
        // 2^attempt saturates well past any sane cap; clamp the shift so
        // the multiplication cannot overflow.
        let factor = 1u32 << attempt.min(20);
        self.base.saturating_mul(factor).min(self.cap)
    }

    /// A policy with retransmission disabled entirely (frames expire at
    /// the first tick past `base`).
    pub fn no_retries(mut self) -> Self {
        self.max_retries = 0;
        self
    }
}

/// Delivery counters an [`MpEndpoint`] maintains.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MpDeliveryStats {
    /// Distinct frames sent (initial transmissions).
    pub sent: u64,
    /// Retransmissions pushed.
    pub retransmitted: u64,
    /// Frames confirmed by an ack.
    pub acked: u64,
    /// Frames abandoned after the retry budget.
    pub expired: u64,
}

/// A bidirectional MP channel: `forward` carries data frames (switch →
/// Pi), `reverse` carries acks (Pi → switch). Both directions are
/// [`FaultyQueue`]s, perfect by default.
#[derive(Debug, Clone, Default)]
pub struct MpLink {
    /// Data direction.
    pub forward: FaultyQueue,
    /// Ack direction.
    pub reverse: FaultyQueue,
}

impl MpLink {
    /// A lossless link.
    pub fn perfect() -> Self {
        Self::default()
    }

    /// A link with per-direction fault policies. Per-direction RNG seeds
    /// are derived from `seed` (forward first, then reverse), so one
    /// scenario seed fixes the whole loss pattern.
    pub fn with_faults(seed: u64, forward: DirectionFaults, reverse: DirectionFaults) -> Self {
        let mut root = mdn_obs::SplitMix64::new(seed);
        let fwd_seed = root.next_u64();
        let rev_seed = root.next_u64();
        Self {
            forward: FaultyQueue::new(fwd_seed, forward),
            reverse: FaultyQueue::new(rev_seed, reverse),
        }
    }

    /// Advance both directions' delay clocks by one tick.
    pub fn tick(&mut self) {
        self.forward.tick();
        self.reverse.tick();
    }

    /// Per-direction fault accounting `(forward, reverse)`.
    pub fn fault_stats(&self) -> (FaultStats, FaultStats) {
        (self.forward.stats, self.reverse.stats)
    }
}

#[derive(Debug, Clone)]
struct Outstanding {
    seq: u16,
    frame: Vec<u8>,
    /// Transmissions so far minus one (0 after the initial send).
    attempts: u32,
    next_retry: Duration,
}

/// The sending (switch) side of reliable MP delivery.
#[derive(Debug, Clone)]
pub struct MpEndpoint {
    backoff: BackoffConfig,
    next_seq: u16,
    outstanding: Vec<Outstanding>,
    stats: MpDeliveryStats,
    obs: MpObs,
}

impl MpEndpoint {
    /// An endpoint with the given retransmission policy.
    pub fn new(backoff: BackoffConfig) -> Self {
        Self {
            backoff,
            next_seq: 0,
            outstanding: Vec::new(),
            stats: MpDeliveryStats::default(),
            obs: MpObs::default(),
        }
    }

    /// Register this endpoint's delivery counters
    /// (`mdn_mp_sent_total`, `mdn_mp_retransmitted_total`,
    /// `mdn_mp_acked_total`, `mdn_mp_expired_total`) with a registry.
    /// Counts accumulated before attachment are carried over.
    pub fn attach_obs(&mut self, registry: &Registry) {
        self.obs = MpObs {
            sent: registry.counter("mdn_mp_sent_total", &[]),
            retransmitted: registry.counter("mdn_mp_retransmitted_total", &[]),
            acked: registry.counter("mdn_mp_acked_total", &[]),
            expired: registry.counter("mdn_mp_expired_total", &[]),
        };
        self.obs.sent.add(self.stats.sent);
        self.obs.retransmitted.add(self.stats.retransmitted);
        self.obs.acked.add(self.stats.acked);
        self.obs.expired.add(self.stats.expired);
    }

    /// Send a `PlayTone`, tracking it until acked or expired. Returns the
    /// assigned sequence number.
    pub fn send_tone(&mut self, link: &mut MpLink, tone: MpTone, now: Duration) -> u16 {
        let seq = self.next_seq;
        self.transmit(link, MpMessage::PlayTone { seq, tone }, now);
        seq
    }

    /// Send a `PlaySequence`, tracking it until acked or expired. Returns
    /// the assigned sequence number.
    pub fn send_sequence(
        &mut self,
        link: &mut MpLink,
        tones: Vec<(MpTone, Duration)>,
        now: Duration,
    ) -> u16 {
        let seq = self.next_seq;
        self.transmit(link, MpMessage::PlaySequence { seq, tones }, now);
        seq
    }

    fn transmit(&mut self, link: &mut MpLink, msg: MpMessage, now: Duration) {
        let frame = msg.encode();
        link.forward.push(frame.clone());
        self.outstanding.push(Outstanding {
            seq: msg.seq(),
            frame,
            attempts: 0,
            next_retry: now + self.backoff.delay(0),
        });
        self.next_seq = self.next_seq.wrapping_add(1);
        self.stats.sent += 1;
        self.obs.sent.inc();
    }

    /// Drain and process acks from the reverse direction. Returns how
    /// many outstanding frames were confirmed. Malformed or non-ack
    /// frames in the ack direction are ignored.
    pub fn poll_acks(&mut self, link: &mut MpLink) -> usize {
        let mut confirmed = 0;
        while let Some(frame) = link.reverse.pop() {
            if let Ok(MpMessage::Ack { seq }) = MpMessage::decode(&frame) {
                if let Some(i) = self.outstanding.iter().position(|o| o.seq == seq) {
                    self.outstanding.remove(i);
                    self.stats.acked += 1;
                    self.obs.acked.inc();
                    confirmed += 1;
                }
            }
        }
        confirmed
    }

    /// Retransmit every outstanding frame whose backoff deadline has
    /// passed; frames out of retries expire instead. Returns
    /// `(retransmitted, expired)` for this tick.
    pub fn tick(&mut self, link: &mut MpLink, now: Duration) -> (u32, u32) {
        let backoff = self.backoff;
        let mut retx = 0u32;
        let mut expired = 0u32;
        self.outstanding.retain_mut(|o| {
            if now < o.next_retry {
                return true;
            }
            if o.attempts >= backoff.max_retries {
                expired += 1;
                return false;
            }
            o.attempts += 1;
            link.forward.push(o.frame.clone());
            o.next_retry = now + backoff.delay(o.attempts);
            retx += 1;
            true
        });
        self.stats.retransmitted += retx as u64;
        self.stats.expired += expired as u64;
        self.obs.retransmitted.add(retx as u64);
        self.obs.expired.add(expired as u64);
        (retx, expired)
    }

    /// Frames sent but neither acked nor expired.
    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }

    /// Delivery counters so far.
    pub fn stats(&self) -> MpDeliveryStats {
        self.stats
    }

    /// The retransmission policy.
    pub fn backoff(&self) -> BackoffConfig {
        self.backoff
    }
}

impl Default for MpEndpoint {
    fn default() -> Self {
        Self::new(BackoffConfig::default())
    }
}

/// The receiving (Pi) side of reliable MP delivery.
///
/// Every well-formed data frame is acked — *including duplicates*, so a
/// retransmission whose original ack was lost still gets confirmed.
/// Duplicates are filtered from the returned messages by `seq`.
#[derive(Debug, Clone, Default)]
pub struct MpReceiver {
    seen: HashSet<u16>,
    /// Well-formed data frames received (including duplicates).
    pub frames_received: u64,
    /// Duplicate data frames filtered out.
    pub duplicates: u64,
    /// Frames that failed to decode.
    pub malformed: u64,
}

impl MpReceiver {
    /// A fresh receiver.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drain the forward direction: ack every valid data frame, return
    /// the first-time-seen messages in arrival order.
    pub fn poll(&mut self, link: &mut MpLink) -> Vec<MpMessage> {
        let mut fresh = Vec::new();
        while let Some(frame) = link.forward.pop() {
            match MpMessage::decode(&frame) {
                // An ack has no business in the data direction; ignore.
                Ok(MpMessage::Ack { .. }) => {}
                Ok(msg) => {
                    self.frames_received += 1;
                    let seq = msg.seq();
                    link.reverse.push(MpMessage::Ack { seq }.encode());
                    if self.seen.insert(seq) {
                        fresh.push(msg);
                    } else {
                        self.duplicates += 1;
                    }
                }
                Err(_) => self.malformed += 1,
            }
        }
        fresh
    }
}

/// OpenFlow liveness probing over a [`ControlChannel`].
///
/// Sends an `EchoRequest` every `interval`; an unanswered probe times out
/// after `timeout` and counts as a miss. `max_missed` consecutive misses
/// declare the channel dead. A later reply revives it.
#[derive(Debug, Clone)]
pub struct EchoMonitor {
    interval: Duration,
    timeout: Duration,
    max_missed: u32,
    next_xid: u32,
    last_send: Option<Duration>,
    outstanding: Option<(u32, Duration)>,
    missed: u32,
    alive: bool,
    /// Probes sent, lifetime.
    pub probes_sent: u64,
    /// Replies matched, lifetime.
    pub replies: u64,
    /// Probe timeouts, lifetime (does not reset on a reply).
    pub total_timeouts: u64,
    obs_probes: Counter,
    obs_replies: Counter,
    obs_timeouts: Counter,
    obs_alive: Gauge,
}

impl EchoMonitor {
    /// A monitor probing every `interval` with the given `timeout`,
    /// declaring death after `max_missed` consecutive misses.
    ///
    /// # Panics
    /// Panics if `max_missed` is zero.
    pub fn new(interval: Duration, timeout: Duration, max_missed: u32) -> Self {
        assert!(max_missed > 0, "max_missed must be at least 1");
        Self {
            interval,
            timeout,
            max_missed,
            next_xid: 1,
            last_send: None,
            outstanding: None,
            missed: 0,
            alive: true,
            probes_sent: 0,
            replies: 0,
            total_timeouts: 0,
            obs_probes: Counter::disabled(),
            obs_replies: Counter::disabled(),
            obs_timeouts: Counter::disabled(),
            obs_alive: Gauge::disabled(),
        }
    }

    /// Register this monitor's liveness metrics
    /// (`mdn_echo_probes_total`, `mdn_echo_replies_total`,
    /// `mdn_echo_timeouts_total`, and the `mdn_echo_alive` gauge) with a
    /// registry. Counts accumulated before attachment are carried over.
    pub fn attach_obs(&mut self, registry: &Registry) {
        self.obs_probes = registry.counter("mdn_echo_probes_total", &[]);
        self.obs_replies = registry.counter("mdn_echo_replies_total", &[]);
        self.obs_timeouts = registry.counter("mdn_echo_timeouts_total", &[]);
        self.obs_alive = registry.gauge("mdn_echo_alive", &[]);
        self.obs_probes.add(self.probes_sent);
        self.obs_replies.add(self.replies);
        self.obs_timeouts.add(self.total_timeouts);
        self.obs_alive.set(if self.alive { 1.0 } else { 0.0 });
    }

    /// Advance the monitor: expire a timed-out probe, then send a new one
    /// if the interval has elapsed and none is in flight.
    pub fn tick(&mut self, chan: &mut ControlChannel, now: Duration) {
        if let Some((_, sent_at)) = self.outstanding {
            if now >= sent_at + self.timeout {
                self.outstanding = None;
                self.missed += 1;
                self.total_timeouts += 1;
                self.obs_timeouts.inc();
                if self.missed >= self.max_missed {
                    self.alive = false;
                    self.obs_alive.set(0.0);
                }
            }
        }
        let due = self.last_send.is_none_or(|t| now >= t + self.interval);
        if self.outstanding.is_none() && due {
            let xid = self.next_xid;
            self.next_xid = self.next_xid.wrapping_add(1);
            chan.send_to_switch(&OfMessage::EchoRequest {
                xid,
                payload: Vec::new(),
            });
            self.outstanding = Some((xid, now));
            self.last_send = Some(now);
            self.probes_sent += 1;
            self.obs_probes.inc();
        }
    }

    /// Feed a controller-side message; consumes `EchoReply`s. Returns
    /// `true` when the message was an echo reply (handled here).
    pub fn observe(&mut self, msg: &OfMessage) -> bool {
        if let OfMessage::EchoReply { xid, .. } = msg {
            self.on_reply(*xid);
            true
        } else {
            false
        }
    }

    /// Record a reply. Any reply proves the channel alive, even one
    /// matching an already-expired probe.
    pub fn on_reply(&mut self, xid: u32) {
        if matches!(self.outstanding, Some((x, _)) if x == xid) {
            self.outstanding = None;
        }
        self.missed = 0;
        self.alive = true;
        self.replies += 1;
        self.obs_replies.inc();
        self.obs_alive.set(1.0);
    }

    /// Is the channel considered alive?
    pub fn is_alive(&self) -> bool {
        self.alive
    }

    /// Consecutive misses since the last reply.
    pub fn missed(&self) -> u32 {
        self.missed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::DirectionFaults;

    const MS: fn(u64) -> Duration = Duration::from_millis;

    fn tone() -> MpTone {
        MpTone::from_units(700.0, MS(50), 60.0)
    }

    #[test]
    fn lossless_roundtrip_acks_immediately() {
        let mut link = MpLink::perfect();
        let mut tx = MpEndpoint::default();
        let mut rx = MpReceiver::new();
        let seq = tx.send_tone(&mut link, tone(), MS(0));
        let got = rx.poll(&mut link);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].seq(), seq);
        assert_eq!(tx.poll_acks(&mut link), 1);
        assert_eq!(tx.outstanding(), 0);
        let s = tx.stats();
        assert_eq!((s.sent, s.retransmitted, s.acked, s.expired), (1, 0, 1, 0));
    }

    #[test]
    fn backoff_doubles_up_to_cap() {
        let b = BackoffConfig {
            base: MS(100),
            cap: MS(450),
            max_retries: 10,
        };
        assert_eq!(b.delay(0), MS(100));
        assert_eq!(b.delay(1), MS(200));
        assert_eq!(b.delay(2), MS(400));
        assert_eq!(b.delay(3), MS(450));
        assert_eq!(b.delay(60), MS(450), "huge attempts must not overflow");
    }

    #[test]
    fn lost_frame_is_retransmitted_and_recovered() {
        // Forward drops everything until we disable the fault; the
        // endpoint must keep retrying on schedule.
        let mut link = MpLink::perfect();
        link.forward
            .set_faults(1, DirectionFaults::none().drop(1.0));
        let b = BackoffConfig {
            base: MS(100),
            cap: MS(800),
            max_retries: 5,
        };
        let mut tx = MpEndpoint::new(b);
        let mut rx = MpReceiver::new();
        tx.send_tone(&mut link, tone(), MS(0));
        assert!(rx.poll(&mut link).is_empty(), "frame was dropped");
        // First retry due at 100 ms.
        assert_eq!(tx.tick(&mut link, MS(100)), (1, 0));
        assert!(rx.poll(&mut link).is_empty());
        // Channel heals; next retry due at 100 + 200 = 300 ms.
        link.forward.set_faults(1, DirectionFaults::none());
        assert_eq!(tx.tick(&mut link, MS(250)), (0, 0), "not due yet");
        assert_eq!(tx.tick(&mut link, MS(300)), (1, 0));
        let got = rx.poll(&mut link);
        assert_eq!(got.len(), 1);
        assert_eq!(tx.poll_acks(&mut link), 1);
        let s = tx.stats();
        assert_eq!((s.sent, s.retransmitted, s.acked, s.expired), (1, 2, 1, 0));
    }

    #[test]
    fn frame_expires_after_retry_budget() {
        let mut link = MpLink::perfect();
        link.forward
            .set_faults(1, DirectionFaults::none().drop(1.0));
        let b = BackoffConfig {
            base: MS(100),
            cap: MS(100),
            max_retries: 2,
        };
        let mut tx = MpEndpoint::new(b);
        tx.send_tone(&mut link, tone(), MS(0));
        assert_eq!(tx.tick(&mut link, MS(100)), (1, 0));
        assert_eq!(tx.tick(&mut link, MS(200)), (1, 0));
        assert_eq!(tx.tick(&mut link, MS(300)), (0, 1), "budget exhausted");
        assert_eq!(tx.outstanding(), 0);
        assert_eq!(tx.stats().expired, 1);
    }

    #[test]
    fn no_retries_policy_expires_at_first_deadline() {
        let mut link = MpLink::perfect();
        link.forward
            .set_faults(1, DirectionFaults::none().drop(1.0));
        let mut tx = MpEndpoint::new(BackoffConfig::default().no_retries());
        tx.send_tone(&mut link, tone(), MS(0));
        assert_eq!(tx.tick(&mut link, MS(200)), (0, 1));
        let s = tx.stats();
        assert_eq!((s.sent, s.retransmitted, s.expired), (1, 0, 1));
    }

    #[test]
    fn duplicate_data_frames_are_acked_but_filtered() {
        // Lose the first ack: the retransmission is a duplicate at the
        // receiver, which must re-ack it without re-delivering.
        let mut link = MpLink::perfect();
        let mut tx = MpEndpoint::new(BackoffConfig {
            base: MS(100),
            cap: MS(100),
            max_retries: 3,
        });
        let mut rx = MpReceiver::new();
        tx.send_tone(&mut link, tone(), MS(0));
        assert_eq!(rx.poll(&mut link).len(), 1);
        // Ack vanishes.
        assert!(link.reverse.pop().is_some());
        assert_eq!(tx.poll_acks(&mut link), 0);
        // Retry → duplicate at the receiver → fresh ack.
        assert_eq!(tx.tick(&mut link, MS(100)), (1, 0));
        assert!(rx.poll(&mut link).is_empty(), "duplicate filtered");
        assert_eq!(rx.duplicates, 1);
        assert_eq!(tx.poll_acks(&mut link), 1);
        assert_eq!(tx.outstanding(), 0);
    }

    #[test]
    fn sequence_frames_are_tracked_too() {
        let mut link = MpLink::perfect();
        let mut tx = MpEndpoint::default();
        let mut rx = MpReceiver::new();
        tx.send_sequence(&mut link, vec![(tone(), MS(20)), (tone(), MS(0))], MS(0));
        let got = rx.poll(&mut link);
        assert!(matches!(&got[0], MpMessage::PlaySequence { tones, .. } if tones.len() == 2));
        assert_eq!(tx.poll_acks(&mut link), 1);
    }

    #[test]
    fn corrupted_frame_counts_malformed_and_retry_recovers() {
        let mut link = MpLink::perfect();
        link.forward
            .set_faults(9, DirectionFaults::none().corrupt(1.0));
        let mut tx = MpEndpoint::new(BackoffConfig {
            base: MS(100),
            cap: MS(100),
            max_retries: 3,
        });
        let mut rx = MpReceiver::new();
        tx.send_tone(&mut link, tone(), MS(0));
        rx.poll(&mut link);
        // A single flipped bit may land in the payload (still decodable)
        // or the header (malformed) — either way nothing is lost silently.
        assert_eq!(rx.frames_received + rx.malformed, 1);
        link.forward.set_faults(9, DirectionFaults::none());
        tx.tick(&mut link, MS(100));
        rx.poll(&mut link);
        assert!(tx.poll_acks(&mut link) >= 1);
    }

    #[test]
    fn echo_monitor_declares_death_then_revives() {
        let mut chan = ControlChannel::new();
        let mut mon = EchoMonitor::new(MS(600), MS(900), 2);
        // Probe at t=0; never answered.
        mon.tick(&mut chan, MS(0));
        assert_eq!(mon.probes_sent, 1);
        assert!(mon.is_alive());
        // Timeout at t=900 → miss 1, and a fresh probe goes out.
        mon.tick(&mut chan, MS(900));
        assert_eq!(mon.missed(), 1);
        assert!(mon.is_alive());
        assert_eq!(mon.probes_sent, 2);
        // Second timeout → dead.
        mon.tick(&mut chan, MS(1800));
        assert!(!mon.is_alive());
        assert_eq!(mon.total_timeouts, 2);
        // A late reply revives the channel.
        mon.on_reply(999);
        assert!(mon.is_alive());
        assert_eq!(mon.missed(), 0);
    }

    #[test]
    fn endpoint_and_monitor_obs_mirror_ground_truth() {
        let reg = Registry::new();
        let mut link = MpLink::perfect();
        link.forward
            .set_faults(1, DirectionFaults::none().drop(1.0));
        let mut tx = MpEndpoint::new(BackoffConfig {
            base: MS(100),
            cap: MS(100),
            max_retries: 2,
        });
        tx.send_tone(&mut link, tone(), MS(0)); // sent before attach — carried over
        tx.attach_obs(&reg);
        tx.tick(&mut link, MS(100));
        tx.tick(&mut link, MS(200));
        tx.tick(&mut link, MS(300));

        let mut chan = ControlChannel::new();
        let mut mon = EchoMonitor::new(MS(600), MS(900), 2);
        mon.attach_obs(&reg);
        mon.tick(&mut chan, MS(0));
        mon.tick(&mut chan, MS(900));
        mon.tick(&mut chan, MS(1800));

        let snap = reg.snapshot();
        let s = tx.stats();
        assert_eq!(snap.counters["mdn_mp_sent_total"], s.sent);
        assert_eq!(snap.counters["mdn_mp_retransmitted_total"], s.retransmitted);
        assert_eq!(snap.counters["mdn_mp_expired_total"], s.expired);
        assert_eq!(snap.counters["mdn_mp_acked_total"], s.acked);
        assert_eq!(snap.counters["mdn_echo_probes_total"], mon.probes_sent);
        assert_eq!(snap.counters["mdn_echo_timeouts_total"], mon.total_timeouts);
        assert_eq!(snap.gauges["mdn_echo_alive"], 0.0, "monitor declared death");
        mon.on_reply(1);
        assert_eq!(reg.snapshot().gauges["mdn_echo_alive"], 1.0);
    }

    #[test]
    fn echo_monitor_stays_alive_when_answered() {
        let mut chan = ControlChannel::new();
        let mut mon = EchoMonitor::new(MS(600), MS(900), 2);
        for step in 0..10u64 {
            let now = MS(step * 300);
            mon.tick(&mut chan, now);
            // The "switch" answers immediately.
            while let Some(Ok(msg)) = chan.recv_at_switch() {
                if let OfMessage::EchoRequest { xid, payload } = msg {
                    chan.send_to_controller(&OfMessage::EchoReply { xid, payload });
                }
            }
            while let Some(Ok(msg)) = chan.recv_at_controller() {
                mon.observe(&msg);
            }
        }
        assert!(mon.is_alive());
        assert_eq!(mon.total_timeouts, 0);
        assert!(mon.replies >= 4);
    }
}
