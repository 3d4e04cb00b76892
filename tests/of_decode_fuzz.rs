//! Seeded mutation/truncation fuzz sweep over `OfMessage::decode`.
//!
//! The TCP controller's reader loop feeds network-supplied bytes
//! straight into the codec, so the codec must hold three guarantees
//! under arbitrary corruption: it never panics, every failure is a
//! typed `WireError`, and valid frames round-trip exactly. The sweep is
//! deterministic (splitmix64 from fixed seeds) so a failure reproduces.

use mdn_net::ftable::{Action, Match};
use mdn_net::packet::{FlowKey, Ip, Proto};
use mdn_obs::SplitMix64;
use mdn_proto::openflow::{FlowModCommand, OfMessage, PacketInReason, PortReason, OF_HEADER_LEN};

/// One exemplar of every message kind, with payload sizes varied by `i`.
fn corpus(i: usize) -> Vec<OfMessage> {
    let flow = FlowKey {
        src_ip: Ip::v4(10, 0, (i % 256) as u8, 1),
        dst_ip: Ip::v4(10, 0, 0, 2),
        src_port: 40_000 + i as u16,
        dst_port: 80,
        proto: if i.is_multiple_of(2) {
            Proto::Tcp
        } else {
            Proto::Udp
        },
    };
    let payload = vec![0xA5u8; i % 96];
    vec![
        OfMessage::Hello { xid: i as u32 },
        OfMessage::EchoRequest {
            xid: 1 + i as u32,
            payload: payload.clone(),
        },
        OfMessage::EchoReply {
            xid: 2 + i as u32,
            payload,
        },
        OfMessage::PacketIn {
            xid: 3 + i as u32,
            in_port: (i % 48) as u16,
            flow,
            total_len: 64 + (i % 1400) as u16,
            reason: if i.is_multiple_of(2) {
                PacketInReason::NoMatch
            } else {
                PacketInReason::Action
            },
        },
        OfMessage::FlowMod {
            xid: 4 + i as u32,
            command: if i.is_multiple_of(3) {
                FlowModCommand::Delete
            } else {
                FlowModCommand::Add
            },
            priority: (i % 100) as u16,
            mat: if i.is_multiple_of(2) {
                Match::dst(flow.dst_ip)
            } else {
                Match::exact(&flow)
            },
            action: if i.is_multiple_of(2) {
                Action::Forward(i % 8)
            } else {
                Action::Drop
            },
        },
        OfMessage::PortStatus {
            xid: 5 + i as u32,
            port: (i % 48) as u16,
            reason: match i % 3 {
                0 => PortReason::Add,
                1 => PortReason::Delete,
                _ => PortReason::Modify,
            },
            link_up: i.is_multiple_of(2),
        },
        OfMessage::PortStatsRequest {
            xid: 6 + i as u32,
            port: (i % 48) as u16,
        },
        OfMessage::PortStatsReply {
            xid: 7 + i as u32,
            port: (i % 48) as u16,
            tx_packets: (i as u64) << 16,
            tx_bytes: (i as u64) << 24,
            queue_len: (i % 512) as u32,
            queue_drops: i as u64,
        },
    ]
}

/// Decode must not panic; that's the whole assertion. Any `Ok`/`Err` is
/// acceptable as long as it is *returned*, not thrown.
fn decode_must_not_panic(frame: Vec<u8>) {
    let _ = OfMessage::decode(&frame);
}

#[test]
fn roundtrip_holds_for_every_message_kind() {
    for i in 0..64 {
        for msg in corpus(i) {
            let frame = msg.encode().expect("corpus messages are well-sized");
            let back = OfMessage::decode(&frame).expect("encoded frames decode");
            assert_eq!(back, msg);
        }
    }
}

#[test]
fn single_byte_flips_never_panic() {
    let mut rng = SplitMix64::new(0x5EED_0001);
    for i in 0..24 {
        for msg in corpus(i) {
            let frame = msg.encode().unwrap();
            // Exhaustive single-byte, sampled bit: every position gets
            // one flip per message.
            for pos in 0..frame.len() {
                let mut mutant = frame.clone();
                mutant[pos] ^= 1 << rng.below(8);
                decode_must_not_panic(mutant);
            }
        }
    }
}

#[test]
fn random_multi_byte_corruption_never_panics() {
    let mut rng = SplitMix64::new(0x5EED_0002);
    for i in 0..24 {
        for msg in corpus(i) {
            let frame = msg.encode().unwrap();
            for _ in 0..64 {
                let mut mutant = frame.clone();
                for _ in 0..(1 + rng.below(6)) {
                    let pos = rng.below(mutant.len() as u64) as usize;
                    mutant[pos] = rng.next_u64() as u8;
                }
                decode_must_not_panic(mutant);
            }
        }
    }
}

#[test]
fn truncation_at_every_length_is_a_typed_error() {
    for i in 0..24 {
        for msg in corpus(i) {
            let frame = msg.encode().unwrap();
            for cut in 0..frame.len() {
                let err = OfMessage::decode(&frame[..cut])
                    .expect_err("a shortened frame can never parse");
                // Any WireError variant is fine — the point is that it
                // IS a WireError, which the type system already proves;
                // exercise Display for good measure.
                let _ = err.to_string();
            }
        }
    }
}

#[test]
fn inflated_and_deflated_declared_lengths_never_panic() {
    let mut rng = SplitMix64::new(0x5EED_0003);
    for i in 0..24 {
        for msg in corpus(i) {
            let frame = msg.encode().unwrap();
            // Rewrite the header's length field to every interesting
            // wrong value: 0, header-1, actual±1, huge, random.
            let actual = frame.len() as u16;
            let mut lengths = vec![
                0,
                (OF_HEADER_LEN - 1) as u16,
                actual.wrapping_sub(1),
                actual.wrapping_add(1),
                u16::MAX,
            ];
            for _ in 0..8 {
                lengths.push(rng.next_u64() as u16);
            }
            for wrong in lengths {
                let mut mutant = frame.clone();
                mutant[2..4].copy_from_slice(&wrong.to_be_bytes());
                decode_must_not_panic(mutant);
            }
            // And extend the buffer past the declared length.
            let mut padded = frame.clone();
            padded.extend_from_slice(&[0u8; 32]);
            decode_must_not_panic(padded);
        }
    }
}

#[test]
fn pure_noise_frames_never_panic() {
    let mut rng = SplitMix64::new(0x5EED_0004);
    for _ in 0..4096 {
        let len = rng.below(96);
        let frame: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        decode_must_not_panic(frame);
    }
}
