//! Traffic generators.
//!
//! The workloads behind the paper's experiments: constant-bit-rate flows, a
//! linearly ramping source (the Figure 5a load-balancing sender
//! "continuously sends traffic with a progressively increasing rate"),
//! Poisson background flows (the heavy-hitter mix), and a sequential port
//! scan (Figure 4c).

use crate::packet::{FlowKey, Packet};
use mdn_obs::SplitMix64;
use std::time::Duration;

/// What a host should transmit.
#[derive(Debug, Clone, Copy)]
pub enum TrafficPattern {
    /// Constant packet rate.
    Cbr {
        /// The flow to emit.
        flow: FlowKey,
        /// Packets per second.
        pps: f64,
        /// Packet size in bytes.
        size: u32,
        /// First emission time.
        start: Duration,
        /// No emissions at or after this time.
        stop: Duration,
    },
    /// Linearly increasing packet rate between `start` and `stop`.
    Ramp {
        /// The flow to emit.
        flow: FlowKey,
        /// Rate at `start`, packets per second.
        start_pps: f64,
        /// Rate at `stop`, packets per second.
        end_pps: f64,
        /// Packet size in bytes.
        size: u32,
        /// Ramp begin.
        start: Duration,
        /// Ramp end (emissions cease).
        stop: Duration,
    },
    /// Poisson arrivals (exponential inter-packet gaps), deterministic
    /// under `seed`.
    Poisson {
        /// The flow to emit.
        flow: FlowKey,
        /// Mean packets per second.
        mean_pps: f64,
        /// Packet size in bytes.
        size: u32,
        /// First emission time.
        start: Duration,
        /// No emissions at or after this time.
        stop: Duration,
        /// RNG seed.
        seed: u64,
    },
    /// One probe per destination port, sequentially — a naive port scan.
    PortScan {
        /// Template flow; `dst_port` is overwritten per probe.
        template: FlowKey,
        /// First port probed (inclusive).
        first_port: u16,
        /// Last port probed (inclusive).
        last_port: u16,
        /// Gap between consecutive probes.
        interval: Duration,
        /// Probe packet size in bytes.
        size: u32,
        /// Scan begin.
        start: Duration,
    },
}

/// A running generator: a pattern plus its emission state.
#[derive(Debug, Clone)]
pub struct Generator {
    pattern: TrafficPattern,
    seq: u64,
    scan_offset: u32,
    /// A Poisson pattern's gap draws, seeded by its `seed`; unused by the
    /// other patterns.
    rng: SplitMix64,
    /// A CBR pattern's inter-packet gap, converted once.
    cbr_gap: Duration,
}

impl Generator {
    /// Wrap a pattern.
    pub fn new(pattern: TrafficPattern) -> Self {
        let rng = match &pattern {
            TrafficPattern::Poisson { seed, .. } => SplitMix64::new(*seed),
            _ => SplitMix64::new(0),
        };
        let cbr_gap = match &pattern {
            TrafficPattern::Cbr { pps, .. } => Duration::from_secs_f64(1.0 / pps.max(1e-9)),
            _ => Duration::ZERO,
        };
        Self {
            pattern,
            seq: 0,
            scan_offset: 0,
            rng,
            cbr_gap,
        }
    }

    /// When the first emission should fire.
    pub fn start_time(&self) -> Duration {
        match &self.pattern {
            TrafficPattern::Cbr { start, .. }
            | TrafficPattern::Ramp { start, .. }
            | TrafficPattern::Poisson { start, .. }
            | TrafficPattern::PortScan { start, .. } => *start,
        }
    }

    /// Emit the packet due at `now`. Returns the packet and the time of the
    /// next emission, or `None` for the packet / next time when the pattern
    /// has finished.
    pub fn emit(&mut self, now: Duration) -> (Option<Packet>, Option<Duration>) {
        match self.pattern {
            TrafficPattern::Cbr {
                flow, size, stop, ..
            } => {
                if now >= stop {
                    return (None, None);
                }
                let pkt = self.make(flow, size, now);
                let next = now + self.cbr_gap;
                (Some(pkt), (next < stop).then_some(next))
            }
            TrafficPattern::Ramp {
                flow,
                start_pps,
                end_pps,
                size,
                start,
                stop,
            } => {
                if now >= stop {
                    return (None, None);
                }
                let span = stop.as_secs_f64() - start.as_secs_f64();
                let frac = if span > 0.0 {
                    ((now.as_secs_f64() - start.as_secs_f64()) / span).clamp(0.0, 1.0)
                } else {
                    1.0
                };
                // Instantaneous rate r(t) = start_pps + m·t and slope m of
                // the ramp at `now`.
                let rate = (start_pps + (end_pps - start_pps) * frac).max(1e-9);
                let slope = if span > 0.0 {
                    (end_pps - start_pps) / span
                } else {
                    0.0
                };
                let pkt = self.make(flow, size, now);
                // The next emission is where the integral of r(t) from `now`
                // accumulates one packet: r·Δ + m·Δ²/2 = 1, so
                // Δ = (−r + √(r² + 2m)) / m. Using 1/r(now) instead (the
                // rate at the *previous* emission) systematically overshoots
                // each gap on a rising ramp and undershoots the analytic
                // packet count (start_pps+end_pps)/2 · span.
                let disc = rate * rate + 2.0 * slope;
                let gap = if slope.abs() < 1e-12 || disc <= 0.0 {
                    1.0 / rate
                } else {
                    (disc.sqrt() - rate) / slope
                };
                let next = now + Duration::from_secs_f64(gap.max(1e-12));
                (Some(pkt), (next < stop).then_some(next))
            }
            TrafficPattern::Poisson {
                flow,
                mean_pps,
                size,
                stop,
                ..
            } => {
                if now >= stop {
                    return (None, None);
                }
                let pkt = self.make(flow, size, now);
                let u = 1e-12 + (1.0 - 1e-12) * self.rng.f64();
                let gap = -u.ln() / mean_pps.max(1e-9);
                let next = now + Duration::from_secs_f64(gap);
                (Some(pkt), (next < stop).then_some(next))
            }
            TrafficPattern::PortScan {
                template,
                first_port,
                last_port,
                interval,
                size,
                ..
            } => {
                let port = (first_port as u32 + self.scan_offset) as u16;
                if port > last_port || (first_port as u32 + self.scan_offset) > u16::MAX as u32 {
                    return (None, None);
                }
                let flow = FlowKey {
                    dst_port: port,
                    ..template
                };
                let pkt = self.make(flow, size, now);
                self.scan_offset += 1;
                let more = (first_port as u32 + self.scan_offset) <= last_port as u32;
                (Some(pkt), more.then(|| now + interval))
            }
        }
    }

    fn make(&mut self, flow: FlowKey, size: u32, now: Duration) -> Packet {
        let pkt = Packet::new(flow, size, self.seq, now);
        self.seq += 1;
        pkt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Ip;

    fn flow() -> FlowKey {
        FlowKey::udp(Ip::v4(10, 0, 0, 1), 5000, Ip::v4(10, 0, 0, 2), 9000)
    }

    fn drain(mut g: Generator, limit: usize) -> Vec<(Duration, Packet)> {
        let mut out = Vec::new();
        let mut t = g.start_time();
        for _ in 0..limit {
            let (pkt, next) = g.emit(t);
            if let Some(p) = pkt {
                out.push((t, p));
            }
            match next {
                Some(n) => t = n,
                None => break,
            }
        }
        out
    }

    #[test]
    fn cbr_emits_at_constant_interval() {
        let g = Generator::new(TrafficPattern::Cbr {
            flow: flow(),
            pps: 100.0,
            size: 500,
            start: Duration::ZERO,
            stop: Duration::from_secs(1),
        });
        let pkts = drain(g, 1000);
        assert_eq!(pkts.len(), 100);
        let gap = pkts[1].0 - pkts[0].0;
        assert!((gap.as_secs_f64() - 0.01).abs() < 1e-9);
        // Sequence numbers increase.
        assert!(pkts.windows(2).all(|w| w[1].1.seq == w[0].1.seq + 1));
    }

    #[test]
    fn cbr_respects_stop() {
        let g = Generator::new(TrafficPattern::Cbr {
            flow: flow(),
            pps: 10.0,
            size: 100,
            start: Duration::from_millis(500),
            stop: Duration::from_millis(900),
        });
        let pkts = drain(g, 100);
        assert!(pkts.iter().all(|(t, _)| *t < Duration::from_millis(900)));
        assert!(pkts[0].0 == Duration::from_millis(500));
        assert_eq!(pkts.len(), 4);
    }

    #[test]
    fn ramp_accelerates() {
        let g = Generator::new(TrafficPattern::Ramp {
            flow: flow(),
            start_pps: 10.0,
            end_pps: 1000.0,
            size: 100,
            start: Duration::ZERO,
            stop: Duration::from_secs(2),
        });
        let pkts = drain(g, 100_000);
        assert!(pkts.len() > 200);
        // Count packets in first and last 200 ms.
        let early = pkts
            .iter()
            .filter(|(t, _)| *t < Duration::from_millis(200))
            .count();
        let late = pkts
            .iter()
            .filter(|(t, _)| *t >= Duration::from_millis(1800))
            .count();
        assert!(late > 10 * early.max(1), "early {early} late {late}");
    }

    /// Regression: the ramp gap must integrate the instantaneous rate, not
    /// sample it at the previous emission. The old per-sample gap is longest
    /// exactly when the rate is about to grow, so a steep ramp from a low
    /// start rate lost a large slice of its window to the first gap: 2→600
    /// pps over 1 s emitted 226 packets against the analytic integral
    /// (start+end)/2 · span = 301 (−25%), and 0.3→300 pps over 1 s emitted
    /// a single packet because 1/0.3 s overshot `stop` entirely. The
    /// integrated gap lands within 1% on every shape, including a
    /// decelerating ramp.
    #[test]
    fn ramp_count_matches_analytic_integral() {
        for &(start_pps, end_pps, secs) in &[
            (2.0, 600.0, 1u64),
            (0.3, 300.0, 1),
            (10.0, 1000.0, 2),
            (50.0, 500.0, 4),
            (400.0, 40.0, 3),
        ] {
            let g = Generator::new(TrafficPattern::Ramp {
                flow: flow(),
                start_pps,
                end_pps,
                size: 100,
                start: Duration::ZERO,
                stop: Duration::from_secs(secs),
            });
            let pkts = drain(g, 1_000_000);
            let expected = (start_pps + end_pps) / 2.0 * secs as f64;
            let got = pkts.len() as f64;
            assert!(
                (got - expected).abs() / expected < 0.01,
                "ramp {start_pps}->{end_pps} over {secs}s: emitted {got}, analytic {expected}"
            );
        }
    }

    /// A zero-length ramp degenerates to a single burst window and must not
    /// divide by zero or spin.
    #[test]
    fn ramp_zero_span_is_silent() {
        let g = Generator::new(TrafficPattern::Ramp {
            flow: flow(),
            start_pps: 10.0,
            end_pps: 1000.0,
            size: 100,
            start: Duration::from_secs(1),
            stop: Duration::from_secs(1),
        });
        let pkts = drain(g, 1000);
        assert!(pkts.is_empty());
    }

    #[test]
    fn poisson_is_deterministic_and_near_mean() {
        let make = || {
            Generator::new(TrafficPattern::Poisson {
                flow: flow(),
                mean_pps: 200.0,
                size: 100,
                start: Duration::ZERO,
                stop: Duration::from_secs(5),
                seed: 11,
            })
        };
        let a = drain(make(), 100_000);
        let b = drain(make(), 100_000);
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(&b).all(|(x, y)| x.0 == y.0));
        // ~1000 packets expected over 5 s at 200 pps.
        assert!((800..1200).contains(&a.len()), "got {}", a.len());
    }

    #[test]
    fn port_scan_sweeps_every_port_once() {
        let g = Generator::new(TrafficPattern::PortScan {
            template: flow(),
            first_port: 20,
            last_port: 29,
            interval: Duration::from_millis(10),
            size: 60,
            start: Duration::from_millis(100),
        });
        let pkts = drain(g, 100);
        assert_eq!(pkts.len(), 10);
        let ports: Vec<u16> = pkts.iter().map(|(_, p)| p.flow.dst_port).collect();
        assert_eq!(ports, (20..=29).collect::<Vec<_>>());
        // Uniform spacing.
        assert_eq!(pkts[1].0 - pkts[0].0, Duration::from_millis(10));
    }

    #[test]
    fn port_scan_single_port_edge() {
        let g = Generator::new(TrafficPattern::PortScan {
            template: flow(),
            first_port: 80,
            last_port: 80,
            interval: Duration::from_millis(1),
            size: 60,
            start: Duration::ZERO,
        });
        let pkts = drain(g, 10);
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0].1.flow.dst_port, 80);
    }
}
