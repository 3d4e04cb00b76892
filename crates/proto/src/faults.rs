//! Seeded, deterministic fault injection for control channels.
//!
//! The paper's pitch is that MDN survives exactly the failures that kill
//! in-band control — but the seed reproduction's channels were perfect:
//! no frame was ever lost, corrupted, reordered or delayed. This module
//! makes those failures injectable. A [`FaultyQueue`] wraps one direction
//! of a frame channel and applies a [`DirectionFaults`] policy driven by
//! its own [`SplitMix64`] stream, so two runs with the same seed produce
//! *exactly* the same loss pattern — the property every chaos test in `tests/`
//! leans on.
//!
//! Determinism contract: for a given [`DirectionFaults`] configuration,
//! each [`FaultyQueue::push`] consumes a fixed number of RNG draws — one
//! per *enabled* fault class (zero-probability faults consume none). The
//! draw order is drop → corrupt → delay jitter → reorder.

use mdn_obs::SplitMix64;
use std::collections::VecDeque;

/// Fault policy for one direction of a channel. All probabilities are
/// per-frame; delays are measured in channel ticks (one tick per
/// [`FaultyQueue::tick`] call — the chaos tests tick once per 300 ms
/// control-loop iteration).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DirectionFaults {
    /// Probability a pushed frame is silently dropped.
    pub drop_prob: f64,
    /// Probability a surviving frame has one random bit flipped.
    pub corrupt_prob: f64,
    /// Probability a surviving frame is inserted at the *front* of the
    /// queue instead of the back (reordering past everything pending).
    pub reorder_prob: f64,
    /// Fixed delivery delay in ticks (0 = immediate).
    pub delay_ticks: u32,
    /// Extra uniform jitter in `[0, delay_jitter_ticks]` ticks.
    pub delay_jitter_ticks: u32,
}

impl DirectionFaults {
    /// The identity policy: frames pass through untouched.
    pub fn none() -> Self {
        Self {
            drop_prob: 0.0,
            corrupt_prob: 0.0,
            reorder_prob: 0.0,
            delay_ticks: 0,
            delay_jitter_ticks: 0,
        }
    }

    /// Set the per-frame drop probability.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1]`.
    pub fn drop(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "drop probability out of range");
        self.drop_prob = p;
        self
    }

    /// Set the per-frame bit-corruption probability.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1]`.
    pub fn corrupt(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "corrupt probability out of range");
        self.corrupt_prob = p;
        self
    }

    /// Set the per-frame reorder probability.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1]`.
    pub fn reorder(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "reorder probability out of range");
        self.reorder_prob = p;
        self
    }

    /// Set a fixed delivery delay plus uniform jitter, in ticks.
    pub fn delay(mut self, ticks: u32, jitter_ticks: u32) -> Self {
        self.delay_ticks = ticks;
        self.delay_jitter_ticks = jitter_ticks;
        self
    }

    /// True when every fault class is disabled.
    pub fn is_none(&self) -> bool {
        self.drop_prob == 0.0
            && self.corrupt_prob == 0.0
            && self.reorder_prob == 0.0
            && self.delay_ticks == 0
            && self.delay_jitter_ticks == 0
    }
}

impl Default for DirectionFaults {
    fn default() -> Self {
        Self::none()
    }
}

/// What a [`FaultyQueue`] did to the frames offered to it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Frames pushed.
    pub offered: u64,
    /// Frames silently discarded.
    pub dropped: u64,
    /// Frames delivered with a flipped bit.
    pub corrupted: u64,
    /// Frames queued ahead of earlier frames.
    pub reordered: u64,
    /// Frames held back by a delivery delay.
    pub delayed: u64,
    /// Frames handed to the receiver.
    pub delivered: u64,
}

/// One direction of a frame channel with injectable faults.
///
/// With the default [`DirectionFaults::none`] policy this is an exact
/// stand-in for a `VecDeque<Vec<u8>>`: every frame passes through in order,
/// untouched, with no RNG draws.
#[derive(Debug, Clone, Default)]
pub struct FaultyQueue {
    queue: VecDeque<Vec<u8>>,
    /// Delayed frames: (ticks remaining, frame), in push order.
    held: VecDeque<(u32, Vec<u8>)>,
    faults: DirectionFaults,
    rng: SplitMix64,
    /// Accounting for tests and health tracking.
    pub stats: FaultStats,
}

impl FaultyQueue {
    /// A perfect queue (no faults).
    pub fn perfect() -> Self {
        Self::default()
    }

    /// A queue applying `faults`, seeded with `seed`.
    pub fn new(seed: u64, faults: DirectionFaults) -> Self {
        Self {
            queue: VecDeque::new(),
            held: VecDeque::new(),
            faults,
            rng: SplitMix64::new(seed),
            stats: FaultStats::default(),
        }
    }

    /// Replace the fault policy (and reseed) on a live queue.
    pub fn set_faults(&mut self, seed: u64, faults: DirectionFaults) {
        self.faults = faults;
        self.rng = SplitMix64::new(seed);
    }

    /// The active fault policy.
    pub fn faults(&self) -> DirectionFaults {
        self.faults
    }

    /// Offer one frame to the channel.
    pub fn push(&mut self, mut frame: Vec<u8>) {
        self.stats.offered += 1;
        if self.rng.chance(self.faults.drop_prob) {
            self.stats.dropped += 1;
            return;
        }
        if self.rng.chance(self.faults.corrupt_prob) && !frame.is_empty() {
            let bit = self.rng.below(frame.len() as u64 * 8);
            frame[(bit / 8) as usize] ^= 1 << (bit % 8);
            self.stats.corrupted += 1;
        }
        let mut delay = self.faults.delay_ticks;
        if self.faults.delay_jitter_ticks > 0 {
            delay += self.rng.below(self.faults.delay_jitter_ticks as u64 + 1) as u32;
        }
        if delay > 0 {
            self.stats.delayed += 1;
            self.held.push_back((delay, frame));
            return;
        }
        if self.rng.chance(self.faults.reorder_prob) && !self.queue.is_empty() {
            self.stats.reordered += 1;
            self.queue.push_front(frame);
        } else {
            self.queue.push_back(frame);
        }
    }

    /// Advance channel time by one tick: delayed frames whose holdoff
    /// expires move to the deliverable queue in their original order.
    pub fn tick(&mut self) {
        for (left, _) in self.held.iter_mut() {
            *left = left.saturating_sub(1);
        }
        while let Some((left, _)) = self.held.front() {
            if *left > 0 {
                break;
            }
            let (_, frame) = self.held.pop_front().expect("front checked");
            self.queue.push_back(frame);
        }
    }

    /// Take the next deliverable frame.
    pub fn pop(&mut self) -> Option<Vec<u8>> {
        let frame = self.queue.pop_front()?;
        self.stats.delivered += 1;
        Some(frame)
    }

    /// Deliverable frames pending.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when no frame is deliverable (delayed frames may still be
    /// held back — see [`Self::held_len`]).
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Frames still held back by a delivery delay.
    pub fn held_len(&self) -> usize {
        self.held.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(tag: u8) -> Vec<u8> {
        vec![tag, 0xAA, 0x55, tag]
    }

    #[test]
    fn perfect_queue_is_transparent_fifo() {
        let mut q = FaultyQueue::perfect();
        for t in 0..5u8 {
            q.push(frame(t));
        }
        for t in 0..5u8 {
            assert_eq!(q.pop().unwrap(), frame(t));
        }
        assert!(q.pop().is_none());
        assert_eq!(q.stats.offered, 5);
        assert_eq!(q.stats.delivered, 5);
        assert_eq!(q.stats.dropped, 0);
    }

    #[test]
    fn drop_probability_one_loses_everything() {
        let mut q = FaultyQueue::new(7, DirectionFaults::none().drop(1.0));
        for t in 0..10u8 {
            q.push(frame(t));
        }
        assert!(q.pop().is_none());
        assert_eq!(q.stats.dropped, 10);
    }

    #[test]
    fn partial_drop_is_seed_deterministic() {
        let run = |seed: u64| {
            let mut q = FaultyQueue::new(seed, DirectionFaults::none().drop(0.5));
            for t in 0..100u8 {
                q.push(frame(t));
            }
            let mut got = Vec::new();
            while let Some(f) = q.pop() {
                got.push(f[0]);
            }
            (got, q.stats)
        };
        let (a, sa) = run(42);
        let (b, sb) = run(42);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        assert!(sa.dropped > 20 && sa.dropped < 80, "dropped {}", sa.dropped);
        let (c, _) = run(43);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let mut q = FaultyQueue::new(1, DirectionFaults::none().corrupt(1.0));
        q.push(frame(9));
        let out = q.pop().unwrap();
        let orig = frame(9);
        let flipped: u32 = out
            .iter()
            .zip(orig.iter())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1, "exactly one bit must differ");
        assert_eq!(q.stats.corrupted, 1);
    }

    #[test]
    fn delay_holds_frames_for_n_ticks() {
        let mut q = FaultyQueue::new(0, DirectionFaults::none().delay(2, 0));
        q.push(frame(1));
        assert!(q.pop().is_none());
        assert_eq!(q.held_len(), 1);
        q.tick();
        assert!(q.pop().is_none());
        q.tick();
        assert_eq!(q.pop().unwrap(), frame(1));
        assert_eq!(q.stats.delayed, 1);
    }

    #[test]
    fn reorder_moves_a_frame_ahead() {
        let mut q = FaultyQueue::new(0, DirectionFaults::none());
        q.push(frame(1));
        // Force-reorder the second frame with probability 1.
        q.set_faults(5, DirectionFaults::none().reorder(1.0));
        q.push(frame(2));
        assert_eq!(q.pop().unwrap(), frame(2));
        assert_eq!(q.pop().unwrap(), frame(1));
        assert_eq!(q.stats.reordered, 1);
    }

    #[test]
    fn disabled_faults_consume_no_draws() {
        // Two queues, same seed: one pushes through a policy where only
        // drops are enabled, the other also has corrupt/reorder at p=0.
        // The drop pattern must be identical — zero-probability classes
        // must not consume RNG draws.
        let only_drop = DirectionFaults::none().drop(0.3);
        let drop_with_zeroes = DirectionFaults {
            drop_prob: 0.3,
            corrupt_prob: 0.0,
            reorder_prob: 0.0,
            delay_ticks: 0,
            delay_jitter_ticks: 0,
        };
        let mut a = FaultyQueue::new(11, only_drop);
        let mut b = FaultyQueue::new(11, drop_with_zeroes);
        for t in 0..50u8 {
            a.push(frame(t));
            b.push(frame(t));
        }
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn rng_matches_reference_sequence() {
        // Splitmix64 reference values — the same arithmetic the chaos
        // tests mirror outside Rust to pick their seeds.
        let mut rng = SplitMix64::new(403);
        let fwd_seed = rng.next_u64();
        let rev_seed = rng.next_u64();
        let mut fwd = SplitMix64::new(fwd_seed);
        let f: Vec<f64> = (0..4).map(|_| fwd.f64()).collect();
        assert!(f[0] < 0.5 && f[1] < 0.5, "first two forward draws drop");
        assert!(f[2] >= 0.5 && f[3] >= 0.5, "next two forward draws pass");
        let mut rev = SplitMix64::new(rev_seed);
        assert!(rev.f64() < 0.3, "first ack draw drops");
        assert!(rev.f64() >= 0.3, "second ack draw passes");
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn rejects_bad_probability() {
        DirectionFaults::none().drop(1.5);
    }
}
