//! Seeded fuzz sweep over the controller's sans-IO `Session`.
//!
//! The session is stepped with whatever a peer sends: traffic before
//! Hello, duplicate Hellos, truncated, oversize, bit-flipped and garbage
//! frames, interleaved with idle ticks. It must never panic, every
//! failure must come back as the typed `SessionError` a reference model
//! predicts, everything it asks the transport to send must encode, and
//! its ledger must add up. The sweep is deterministic (splitmix64 from
//! fixed seeds) so a failure reproduces.

use mdn_net::ftable::{Action, Match};
use mdn_net::packet::{FlowKey, Ip};
use mdn_obs::{Registry, SplitMix64};
use mdn_proto::controller::{LearningSwitch, Ledger, Session, SessionError};
use mdn_proto::openflow::{FlowModCommand, OfMessage, PacketInReason, PortReason};

/// A random well-formed message; Hellos and PacketIns are the common
/// cases, so handshakes, duplicates and learning all get exercised.
fn message(rng: &mut SplitMix64) -> OfMessage {
    let xid = rng.next_u64() as u32;
    // Four hosts on four ports, so the learner sees moves and repeats.
    let host = |k: usize| Ip::v4(10, 0, 0, 1 + k as u8);
    let (a, b) = (rng.below(4) as usize, rng.below(4) as usize);
    let flow = FlowKey::tcp(host(a), 40_000, host(b), 80);
    match rng.below(9) {
        0 | 1 => OfMessage::Hello { xid },
        2 => OfMessage::EchoRequest {
            xid,
            payload: vec![0x5A; rng.below(64) as usize],
        },
        3 => OfMessage::EchoReply {
            xid,
            payload: Vec::new(),
        },
        4 | 5 => OfMessage::PacketIn {
            xid,
            in_port: a as u16,
            flow,
            total_len: 64 + rng.below(1400) as u16,
            reason: PacketInReason::NoMatch,
        },
        6 => OfMessage::PortStatus {
            xid,
            port: rng.below(8) as u16,
            reason: PortReason::Modify,
            link_up: rng.below(2) == 0,
        },
        7 => OfMessage::FlowMod {
            xid,
            command: FlowModCommand::Add,
            priority: 1,
            mat: Match::dst(host(b)),
            action: Action::Forward(a),
        },
        _ => OfMessage::PortStatsRequest {
            xid,
            port: rng.below(8) as u16,
        },
    }
}

/// One step of a peer script.
enum Step {
    Frame(Vec<u8>),
    Idle,
}

/// A random step: mostly well-formed frames, the rest every way a frame
/// can go wrong, and idle ticks in between.
fn step(rng: &mut SplitMix64) -> Step {
    let frame = message(rng).encode().expect("corpus messages encode");
    match rng.below(16) {
        0..=9 => Step::Frame(frame),
        10 => {
            // Truncated: cut anywhere, down to nothing.
            let keep = rng.below(frame.len() as u64) as usize;
            Step::Frame(frame[..keep].to_vec())
        }
        11 => {
            // Oversize: trailing bytes, sometimes past the u16 length.
            let extra = if rng.below(8) == 0 {
                70_000
            } else {
                1 + rng.below(32) as usize
            };
            let mut long = frame;
            long.resize(long.len() + extra, 0xEE);
            Step::Frame(long)
        }
        12 => {
            // One flipped bit anywhere, header included.
            let mut flipped = frame;
            let at = rng.below(flipped.len() as u64) as usize;
            flipped[at] ^= 1 << rng.below(8);
            Step::Frame(flipped)
        }
        13 => Step::Frame((0..rng.below(40)).map(|_| rng.next_u64() as u8).collect()),
        _ => Step::Idle,
    }
}

/// What the reference model expects the session to keep in its ledger.
#[derive(Default)]
struct Tally {
    sessions: u64,
    handshaken: u64,
    rx: u64,
    tx: u64,
    echo_probes: u64,
    decode_errors: u64,
    idle_disconnects: u64,
    protocol_errors: u64,
}

/// Drive one session through a seeded script, checking every result
/// against the reference model.
fn run_script(seed: u64, ledger: &Ledger, tally: &mut Tally) {
    let mut rng = SplitMix64::new(seed);
    let (mut session, hello) = Session::open(seed, Box::new(LearningSwitch::new()), ledger);
    assert!(
        matches!(hello, OfMessage::Hello { .. }),
        "seed {seed}: opens with Hello"
    );
    tally.sessions += 1;
    tally.tx += 1;
    let (mut handshaken, mut probing, mut closed) = (false, false, false);
    // Most peers open with a Hello; the rest start with anything at all.
    let opening = OfMessage::Hello { xid: 1 }.encode().unwrap();
    for i in 0..rng.below(40) {
        let what = format!("seed {seed} step {i}");
        let next = if i == 0 && rng.below(4) != 0 {
            Step::Frame(opening.clone())
        } else {
            step(&mut rng)
        };
        match next {
            Step::Idle => {
                let got = session.on_idle();
                if closed {
                    assert_eq!(got, Err(SessionError::Closed), "{what}");
                } else if probing {
                    assert_eq!(got, Err(SessionError::IdleTimeout), "{what}");
                    tally.idle_disconnects += 1;
                    closed = true;
                } else {
                    let probe = got.unwrap_or_else(|e| panic!("{what}: probe refused: {e}"));
                    assert!(matches!(probe, OfMessage::EchoRequest { .. }), "{what}");
                    tally.echo_probes += 1;
                    tally.tx += 1;
                    probing = true;
                }
            }
            Step::Frame(frame) => {
                let got = session.on_frame(&frame);
                if closed {
                    assert_eq!(got, Err(SessionError::Closed), "{what}");
                    continue;
                }
                let msg = match OfMessage::decode(&frame) {
                    Ok(msg) => msg,
                    Err(e) => {
                        assert_eq!(got, Err(SessionError::Decode(e)), "{what}");
                        tally.decode_errors += 1;
                        closed = true;
                        continue;
                    }
                };
                tally.rx += 1;
                probing = false;
                let is_hello = matches!(msg, OfMessage::Hello { .. });
                if !handshaken && !is_hello {
                    assert_eq!(got, Err(SessionError::BeforeHello), "{what}");
                    tally.protocol_errors += 1;
                    closed = true;
                    continue;
                }
                let out = got.unwrap_or_else(|e| panic!("{what}: {msg:?} refused: {e}"));
                for sent in &out {
                    assert!(sent.encode().is_ok(), "{what}: unencodable {sent:?}");
                }
                tally.tx += out.len() as u64;
                match msg {
                    OfMessage::Hello { .. } if handshaken => {
                        tally.protocol_errors += 1;
                        assert!(out.is_empty(), "{what}");
                    }
                    OfMessage::Hello { .. } => {
                        tally.handshaken += 1;
                        handshaken = true;
                    }
                    OfMessage::EchoRequest { xid, payload } => {
                        assert_eq!(out, vec![OfMessage::EchoReply { xid, payload }], "{what}");
                    }
                    OfMessage::PacketIn { .. } => {
                        let flow_mods = out.iter().all(|m| matches!(m, OfMessage::FlowMod { .. }));
                        assert!(flow_mods, "{what}: {out:?}");
                    }
                    _ => assert!(out.is_empty(), "{what}: {out:?}"),
                }
            }
        }
    }
}

#[test]
fn seeded_session_sweep_never_panics_and_fails_typed() {
    const SESSIONS: u64 = 3_000;
    let ledger = Ledger::new(&Registry::new());
    let mut tally = Tally::default();
    for seed in 0..SESSIONS {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_script(seed, &ledger, &mut tally)
        }));
        if let Err(panic) = outcome {
            std::panic::resume_unwind(panic);
        }
    }
    // Every session is dropped by now: the ledger closes the books.
    let stats = ledger.stats();
    assert_eq!(stats.connections, tally.sessions);
    assert_eq!(stats.active, 0);
    assert_eq!(stats.handshaken, tally.handshaken);
    assert_eq!(stats.rx_messages, tally.rx);
    assert_eq!(stats.tx_messages, tally.tx);
    assert_eq!(stats.echo_probes, tally.echo_probes);
    assert_eq!(stats.decode_errors, tally.decode_errors);
    assert_eq!(stats.idle_disconnects, tally.idle_disconnects);
    assert_eq!(stats.protocol_errors, tally.protocol_errors);
    // The sweep reached every outcome, or it proves little.
    for (what, n) in [
        ("handshakes", tally.handshaken),
        ("decode errors", tally.decode_errors),
        ("idle reaps", tally.idle_disconnects),
        ("protocol errors", tally.protocol_errors),
        ("flow mods", stats.flow_mods_tx),
    ] {
        assert!(n >= 50, "only {n} {what} in {SESSIONS} sessions");
    }
}

/// The opening exchanges a transport relies on, step by step.
#[test]
fn handshake_probe_and_reap_in_order() {
    let ledger = Ledger::new(&Registry::disabled());
    let (mut session, hello) = Session::open(7, Box::new(LearningSwitch::new()), &ledger);
    assert_eq!(hello, OfMessage::Hello { xid: 1 });

    // Pre-Hello Echo is refused, and the session stays closed.
    let echo = OfMessage::EchoRequest {
        xid: 9,
        payload: b"hi".to_vec(),
    };
    let frame = echo.encode().unwrap();
    assert_eq!(session.on_frame(&frame), Err(SessionError::BeforeHello));
    assert_eq!(session.on_idle(), Err(SessionError::Closed));
    drop(session);

    let (mut session, _) = Session::open(8, Box::new(LearningSwitch::new()), &ledger);
    let peer_hello = OfMessage::Hello { xid: 1 }.encode().unwrap();
    assert_eq!(session.on_frame(&peer_hello), Ok(vec![]));
    // A duplicate Hello is counted, not fatal.
    assert_eq!(session.on_frame(&peer_hello), Ok(vec![]));
    assert_eq!(
        session.on_frame(&frame),
        Ok(vec![OfMessage::EchoReply {
            xid: 9,
            payload: b"hi".to_vec(),
        }])
    );
    // Idle: probe (the next controller xid), then reap.
    assert!(matches!(
        session.on_idle(),
        Ok(OfMessage::EchoRequest { xid: 2, .. })
    ));
    assert_eq!(session.on_idle(), Err(SessionError::IdleTimeout));
    drop(session);

    let stats = ledger.stats();
    assert_eq!(
        (stats.connections, stats.active, stats.handshaken),
        (2, 0, 1)
    );
    assert_eq!((stats.protocol_errors, stats.idle_disconnects), (2, 1));
}
