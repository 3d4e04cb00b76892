//! Property-based round-trips of both wire formats, equivalence between
//! rules installed directly and rules delivered over the wire, and a
//! seeded corruption sweep proving both decoders total on mangled frames.

use mdn_net::ftable::{Action, Decision, Match, PortId};
use mdn_net::network::Network;
use mdn_net::packet::{FlowKey, Ip, Proto};
use mdn_obs::SplitMix64;
use mdn_proto::channel::{apply_at_switch, ControlChannel};
use mdn_proto::mp::{MpMessage, MpTone};
use mdn_proto::openflow::{FlowModCommand, OfMessage, PacketInReason};
use proptest::prelude::*;
use std::time::Duration;

fn arb_ip() -> impl Strategy<Value = Ip> {
    any::<u32>().prop_map(Ip)
}

fn arb_proto() -> impl Strategy<Value = Proto> {
    any::<u8>().prop_map(Proto::from_number)
}

fn arb_flow() -> impl Strategy<Value = FlowKey> {
    (arb_ip(), arb_ip(), any::<u16>(), any::<u16>(), arb_proto()).prop_map(
        |(src_ip, dst_ip, src_port, dst_port, proto)| FlowKey {
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            proto,
        },
    )
}

fn arb_match() -> impl Strategy<Value = Match> {
    (
        prop::option::of(0usize..16),
        prop::option::of(arb_ip()),
        prop::option::of(arb_ip()),
        prop::option::of(any::<u16>()),
        prop::option::of(any::<u16>()),
        prop::option::of(arb_proto()),
    )
        .prop_map(
            |(in_port, src_ip, dst_ip, src_port, dst_port, proto)| Match {
                in_port,
                src_ip,
                dst_ip,
                src_port,
                dst_port,
                proto,
            },
        )
}

fn arb_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        Just(Action::Drop),
        (0usize..64).prop_map(Action::Forward),
        prop::collection::vec(0usize..64, 1..8).prop_map(Action::SplitByFlow),
        prop::collection::vec(0usize..64, 1..8).prop_map(Action::SplitRoundRobin),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every MP tone round-trips bit-exactly.
    #[test]
    fn mp_tone_roundtrip(
        freq_chz in 1u32..4_400_000,
        duration_ms in 0u16..=u16::MAX,
        intensity_ddb in 0u16..=u16::MAX,
        seq in any::<u16>(),
    ) {
        let msg = MpMessage::PlayTone {
            seq,
            tone: MpTone { freq_chz, duration_ms, intensity_ddb },
        };
        prop_assert_eq!(MpMessage::decode(&msg.encode()).unwrap(), msg);
    }

    /// Every MP sequence round-trips.
    #[test]
    fn mp_sequence_roundtrip(
        seq in any::<u16>(),
        tones in prop::collection::vec(
            (1u32..4_400_000, 0u16..2_000, 0u16..1_200, 0u16..5_000),
            0..20,
        ),
    ) {
        let tones: Vec<(MpTone, Duration)> = tones
            .into_iter()
            .map(|(f, d, i, gap)| {
                (
                    MpTone { freq_chz: f, duration_ms: d, intensity_ddb: i },
                    Duration::from_millis(gap as u64),
                )
            })
            .collect();
        let msg = MpMessage::PlaySequence { seq, tones };
        prop_assert_eq!(MpMessage::decode(&msg.encode()).unwrap(), msg);
    }

    /// Truncating any MP frame yields a typed error, never a panic.
    #[test]
    fn mp_truncation_never_panics(
        seq in any::<u16>(),
        cut in 0usize..16,
    ) {
        let msg = MpMessage::PlayTone {
            seq,
            tone: MpTone { freq_chz: 70000, duration_ms: 50, intensity_ddb: 600 },
        };
        let frame = msg.encode();
        let cut = cut.min(frame.len().saturating_sub(1));
        prop_assert!(MpMessage::decode(&frame[..cut]).is_err());
    }

    /// Arbitrary bytes never panic the MP decoder.
    #[test]
    fn mp_decoder_is_total(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        let _ = MpMessage::decode(&bytes);
    }

    /// Every FlowMod round-trips through the OpenFlow wire format.
    #[test]
    fn flowmod_roundtrip(
        xid in any::<u32>(),
        priority in any::<u16>(),
        mat in arb_match(),
        action in arb_action(),
        delete in any::<bool>(),
    ) {
        let msg = OfMessage::FlowMod {
            xid,
            command: if delete { FlowModCommand::Delete } else { FlowModCommand::Add },
            priority,
            mat,
            action,
        };
        prop_assert_eq!(OfMessage::decode(&msg.encode().unwrap()).unwrap(), msg);
    }

    /// PacketIn round-trips for arbitrary flows.
    #[test]
    fn packet_in_roundtrip(
        xid in any::<u32>(),
        in_port in any::<u16>(),
        flow in arb_flow(),
        total_len in any::<u16>(),
        reason in any::<bool>(),
    ) {
        let msg = OfMessage::PacketIn {
            xid,
            in_port,
            flow,
            total_len,
            reason: if reason { PacketInReason::Action } else { PacketInReason::NoMatch },
        };
        prop_assert_eq!(OfMessage::decode(&msg.encode().unwrap()).unwrap(), msg);
    }

    /// Arbitrary bytes never panic the OpenFlow decoder.
    #[test]
    fn of_decoder_is_total(bytes in prop::collection::vec(any::<u8>(), 0..128)) {
        let _ = OfMessage::decode(&bytes);
    }

    /// A rule delivered over the wire behaves identically to one installed
    /// directly: same decision for every probed packet.
    #[test]
    fn wire_delivered_rules_match_direct_install(
        mat in arb_match(),
        priority in any::<u16>(),
        out_port in 1usize..4,
        probes in prop::collection::vec((arb_flow(), 0usize..4), 1..16),
    ) {
        let action = Action::Forward(out_port);
        // Direct install.
        let mut direct = Network::new();
        let sd = direct.add_switch("s", 4);
        direct.install_rule(sd, mdn_net::ftable::Rule { mat, priority, action: action.clone() });
        // Wire install.
        let mut wired = Network::new();
        let sw = wired.add_switch("s", 4);
        let mut chan = ControlChannel::new();
        chan.send_to_switch(&OfMessage::FlowMod {
            xid: 9,
            command: FlowModCommand::Add,
            priority,
            mat,
            action,
        });
        let frame = chan.recv_at_switch().unwrap().unwrap();
        apply_at_switch(&mut wired.switch_mut(sw).table, &frame);
        // Same decisions.
        for (flow, in_port) in probes {
            let d1 = direct.switch_mut(sd).table.lookup(in_port as PortId, &flow);
            let d2 = wired.switch_mut(sw).table.lookup(in_port as PortId, &flow);
            prop_assert_eq!(d1, d2);
            if mat.matches(in_port, &flow) {
                prop_assert_eq!(d1, Decision::Forward(out_port));
            }
        }
    }
}

/// One well-formed frame of every message shape in both wire formats.
fn frame_corpus() -> Vec<Vec<u8>> {
    use mdn_proto::openflow::PortReason;
    let flow = FlowKey::udp(Ip::v4(10, 0, 0, 1), 7000, Ip::v4(10, 0, 0, 2), 8000);
    let mp = [
        MpMessage::PlayTone {
            seq: 7,
            tone: MpTone {
                freq_chz: 70_000,
                duration_ms: 50,
                intensity_ddb: 650,
            },
        },
        MpMessage::PlaySequence {
            seq: 8,
            tones: vec![
                (
                    MpTone {
                        freq_chz: 90_000,
                        duration_ms: 40,
                        intensity_ddb: 600,
                    },
                    Duration::from_millis(10),
                ),
                (
                    MpTone {
                        freq_chz: 95_000,
                        duration_ms: 40,
                        intensity_ddb: 600,
                    },
                    Duration::ZERO,
                ),
            ],
        },
        MpMessage::Ack { seq: 7 },
    ];
    let of = [
        OfMessage::Hello { xid: 1 },
        OfMessage::EchoRequest {
            xid: 2,
            payload: b"ping".to_vec(),
        },
        OfMessage::EchoReply {
            xid: 2,
            payload: b"ping".to_vec(),
        },
        OfMessage::PacketIn {
            xid: 3,
            in_port: 1,
            flow,
            total_len: 1000,
            reason: PacketInReason::NoMatch,
        },
        OfMessage::FlowMod {
            xid: 4,
            command: FlowModCommand::Add,
            priority: 10,
            mat: Match::dst(Ip::v4(10, 0, 0, 2)),
            action: Action::Forward(1),
        },
        OfMessage::PortStatus {
            xid: 5,
            port: 1,
            reason: PortReason::Delete,
            link_up: false,
        },
        OfMessage::PortStatsRequest { xid: 6, port: 0 },
        OfMessage::PortStatsReply {
            xid: 7,
            port: 0,
            tx_packets: 1234,
            tx_bytes: 5678,
            queue_len: 9,
            queue_drops: 2,
        },
    ];
    mp.iter()
        .map(MpMessage::encode)
        .chain(of.iter().map(|msg| msg.encode().expect("corpus in range")))
        .collect()
}

/// Feed a mangled frame to both decoders; the property is totality —
/// a typed result, never a panic.
fn decode_both(frame: &[u8]) {
    let _ = MpMessage::decode(frame);
    let _ = OfMessage::decode(frame);
}

/// Every truncation of every corpus frame decodes to a typed result.
#[test]
fn truncated_frames_never_panic_either_decoder() {
    for frame in frame_corpus() {
        for cut in 0..frame.len() {
            decode_both(&frame[..cut]);
        }
    }
}

/// Corrupting any header byte — magic, version, type, seq/xid, length —
/// yields a typed result, never a panic.
#[test]
fn header_corruption_never_panics_either_decoder() {
    let mut rng = SplitMix64::new(101);
    for frame in frame_corpus() {
        for pos in 0..frame.len().min(8) {
            for _ in 0..4 {
                let mut bytes = frame.clone();
                bytes[pos] ^= (rng.next_u64() % 255 + 1) as u8;
                decode_both(&bytes);
            }
        }
    }
}

/// A seeded storm of random bit flips (1–4 per frame, 64 rounds per
/// corpus frame) yields typed results, never panics.
#[test]
fn seeded_bit_flip_storm_never_panics_either_decoder() {
    let mut rng = SplitMix64::new(202);
    for frame in frame_corpus() {
        for _ in 0..64 {
            let mut bytes = frame.clone();
            let flips = rng.below(4) + 1;
            for _ in 0..flips {
                let bit = rng.below(bytes.len() as u64 * 8) as usize;
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
            decode_both(&bytes);
        }
    }
}
