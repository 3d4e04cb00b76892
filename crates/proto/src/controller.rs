//! The OpenFlow controller: one sans-IO session core behind two
//! transports.
//!
//! Everything else in this crate marshals the OpenFlow subset in memory;
//! this module holds the controller side of a connection and serves it
//! over real sockets, in the `rust_ofp` mold the paper's
//! modified-firmware switches would connect to. The pieces:
//!
//! * **[`Session`]** — one connection's protocol state with no I/O: Hello
//!   handshake, xid bookkeeping, EchoRequest idle probing and reaping,
//!   and app dispatch. Frames and read deadlines go in; messages to send
//!   or a typed [`SessionError`] come out. The TCP server below drives
//!   it, and so does `mdn-core::ofbridge::OfAgent` in-process over a
//!   [`crate::channel::ControlChannel`] for the simulation.
//! * **[`Ledger`]** — the connection-plane counters every session of a
//!   controller updates: the `mdn_ctrl_*` metric families, read back as
//!   [`ControllerStats`].
//! * **Framing** — [`read_message`] / [`write_message`]: length-prefixed
//!   OF framing over any byte stream (read the 8-byte header, then
//!   exactly `total − 8` body bytes; [`OfMessage::decode`] wants a
//!   pre-framed buffer and cannot be fed a stream directly).
//! * **[`ControllerServer`]** — the TCP transport: a read → step → write
//!   shell around one [`Session`] per connection, on the
//!   [`mdn_obs::serve`] core `ObsServer` also runs on.
//! * **[`ControllerApp`]** — the pluggable policy trait; each session
//!   drives one app instance. [`LearningSwitch`] is the classic demo
//!   app: it turns `PacketIn` table-miss summaries into `FlowMod`
//!   installs.
//! * **[`OfClient`]** — the switch side over TCP: connect, handshake,
//!   send `PacketIn`s, receive `FlowMod`s.
//!
//! # Handshake state machine
//!
//! Both sides send `Hello` immediately after connect (so neither blocks
//! on the other). A session is *handshaken* once the peer's `Hello`
//! arrives; any other message first, Echo included, is a protocol error
//! that ends it. After the handshake, the session answers
//! `EchoRequest`s, dispatches `PacketIn`/`PortStatus` to the app, and
//! probes idle peers: a read that times out with no partial frame sends
//! one `EchoRequest`; a second consecutive timeout with no traffic at
//! all reaps the connection (the slow-loris defence the scrape plane
//! shares).
//!
//! # Threading model
//!
//! Thread-per-connection, like the Zodiac-class deployments the paper
//! targets (hundreds to low thousands of switches): the serve core's
//! accept thread owns the listener, each connection owns one reader
//! thread and its session, and all shared state is the ledger's
//! atomics. A wedged peer costs one parked thread until its idle probe
//! reaps it; `benches/controller.rs` holds ≥1000 concurrent connections.

use crate::openflow::{OfMessage, PacketInReason, PortReason, OF_HEADER_LEN};
use crate::wire::WireError;
use bytes::Bytes;
use mdn_net::ftable::{Action, Match, PortId};
use mdn_net::packet::{FlowKey, Ip};
use mdn_obs::serve::{self, check_deadline, ServeHandle};
use mdn_obs::{Counter, Gauge, Registry};
use std::collections::HashMap;
use std::fmt;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Why a framed read or write failed.
#[derive(Debug)]
pub enum OfStreamError {
    /// The read timed out *between* frames (no byte of the next header
    /// had arrived). The peer is idle, not broken — probe or wait.
    Idle,
    /// Transport failure: closed, reset, or a timeout *inside* a frame
    /// (the stream is no longer at a frame boundary, so it cannot be
    /// resumed).
    Io(std::io::Error),
    /// The frame arrived but did not parse.
    Wire(WireError),
}

impl fmt::Display for OfStreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OfStreamError::Idle => write!(f, "read timed out at a frame boundary"),
            OfStreamError::Io(e) => write!(f, "transport error: {e}"),
            OfStreamError::Wire(e) => write!(f, "frame error: {e}"),
        }
    }
}

impl std::error::Error for OfStreamError {}

impl From<std::io::Error> for OfStreamError {
    fn from(e: std::io::Error) -> Self {
        OfStreamError::Io(e)
    }
}

impl From<WireError> for OfStreamError {
    fn from(e: WireError) -> Self {
        OfStreamError::Wire(e)
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Read exactly `buf.len()` bytes, reporting how many landed before an
/// error. Distinguishes "timed out having read nothing" (resumable) from
/// "timed out mid-frame" (fatal) — `Read::read_exact` cannot.
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> Result<(), (usize, std::io::Error)> {
    let mut done = 0;
    while done < buf.len() {
        match r.read(&mut buf[done..]) {
            Ok(0) => {
                return Err((done, std::io::Error::from(ErrorKind::UnexpectedEof)));
            }
            Ok(n) => done += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err((done, e)),
        }
    }
    Ok(())
}

/// Read one length-prefixed OF frame from a byte stream: the 8-byte
/// header, then exactly `total − 8` body bytes.
///
/// A read timeout before the first header byte returns
/// [`OfStreamError::Idle`]; a timeout after any byte has been consumed is
/// an [`OfStreamError::Io`] (the stream is mid-frame and unrecoverable).
pub fn read_frame(r: &mut impl Read) -> Result<Bytes, OfStreamError> {
    let mut header = [0u8; OF_HEADER_LEN];
    if let Err((done, e)) = read_full(r, &mut header) {
        if done == 0 && is_timeout(&e) {
            return Err(OfStreamError::Idle);
        }
        return Err(OfStreamError::Io(e));
    }
    let total = u16::from_be_bytes([header[2], header[3]]) as usize;
    if total < OF_HEADER_LEN {
        return Err(OfStreamError::Wire(WireError::InvalidField(
            "length shorter than header",
        )));
    }
    let mut frame = vec![0u8; total];
    frame[..OF_HEADER_LEN].copy_from_slice(&header);
    if let Err((_, e)) = read_full(r, &mut frame[OF_HEADER_LEN..]) {
        return Err(OfStreamError::Io(e));
    }
    Ok(Bytes::from(frame))
}

/// Read and decode one message (see [`read_frame`] for timeout
/// semantics).
pub fn read_message(r: &mut impl Read) -> Result<OfMessage, OfStreamError> {
    Ok(OfMessage::decode(read_frame(r)?)?)
}

/// Encode and write one message, flushing the stream.
pub fn write_message(w: &mut impl Write, msg: &OfMessage) -> Result<(), OfStreamError> {
    let frame = msg.encode()?;
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Tuning knobs for [`ControllerServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControllerConfig {
    /// Per-read deadline on accepted connections. One silent period
    /// triggers an EchoRequest probe; a second reaps the connection —
    /// worst-case hold on a dead peer is `2 × idle_timeout`.
    pub idle_timeout: Duration,
    /// Write deadline on accepted connections (a peer that stops
    /// draining its socket cannot pin a handler thread).
    pub write_timeout: Duration,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        Self {
            idle_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
        }
    }
}

impl ControllerConfig {
    /// Check the serve core's socket-deadline rule
    /// ([`check_deadline`]) on both deadlines.
    pub fn validate(&self) -> Result<(), mdn_obs::ConfigError> {
        check_deadline("idle_timeout", self.idle_timeout)?;
        check_deadline("write_timeout", self.write_timeout)
    }
}

/// One `PacketIn`, decoded and handed to the app.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketInEvent {
    /// The switch's transaction id.
    pub xid: u32,
    /// Ingress port at the switch.
    pub in_port: u16,
    /// The packet's flow key.
    pub flow: FlowKey,
    /// Original packet length.
    pub total_len: u16,
    /// Why the switch sent it up.
    pub reason: PacketInReason,
}

/// Per-connection context handed to [`ControllerApp`] callbacks: the
/// connection id, the controller-side xid counter, and an outbox the
/// [`Session`] hands to its transport after each callback returns.
#[derive(Debug)]
pub struct AppCtx {
    conn_id: u64,
    next_xid: u32,
    outbox: Vec<OfMessage>,
}

impl AppCtx {
    fn new(conn_id: u64) -> Self {
        Self {
            conn_id,
            next_xid: 0,
            outbox: Vec::new(),
        }
    }

    /// This connection's id (dense, assigned at accept).
    pub fn conn_id(&self) -> u64 {
        self.conn_id
    }

    /// The next controller-initiated transaction id on this connection.
    pub fn next_xid(&mut self) -> u32 {
        self.next_xid = self.next_xid.wrapping_add(1);
        self.next_xid
    }

    /// Queue a message for the switch; sent when the current callback
    /// returns.
    pub fn send(&mut self, msg: OfMessage) {
        self.outbox.push(msg);
    }

    /// Queue a `FlowMod` Add installing `action` for `mat`.
    pub fn install(&mut self, priority: u16, mat: Match, action: Action) {
        let xid = self.next_xid();
        self.send(OfMessage::FlowMod {
            xid,
            command: crate::openflow::FlowModCommand::Add,
            priority,
            mat,
            action,
        });
    }
}

/// Controller policy, driven by a [`Session`] with one instance per
/// connection (a learning table is per switch, like group state in a
/// real switch). Callbacks run wherever the session is stepped: the
/// connection's reader thread under TCP, the caller's thread in-process.
pub trait ControllerApp: Send {
    /// The peer's Hello arrived; the channel is established.
    fn switch_connected(&mut self, _ctx: &mut AppCtx) {}

    /// A table-miss (or send-to-controller) summary arrived.
    fn packet_in(&mut self, _ctx: &mut AppCtx, _pkt: &PacketInEvent) {}

    /// A port's status changed at the switch.
    fn port_status(&mut self, _ctx: &mut AppCtx, _port: u16, _reason: PortReason, _link_up: bool) {}

    /// Any other post-handshake message (PortStatsReply, FlowMod echoes
    /// from misbehaving peers, ...). Echo liveness is handled by the
    /// session before this is called.
    fn other(&mut self, _ctx: &mut AppCtx, _msg: &OfMessage) {}
}

/// The classic reactive demo app: learn `src_ip → in_port` from every
/// `PacketIn`; once both endpoints of a flow are known, install
/// destination rules for *both* directions (misses are the only
/// signal this app sees, so installing one direction at a time would
/// starve the reverse learner). Installs are deduplicated — a burst of
/// queued misses for the same flow yields each rule once, and a rule is
/// re-sent only when the learned port actually moves (the host
/// migrated), so the switch's table never fills with duplicates.
#[derive(Debug, Default)]
pub struct LearningSwitch {
    learned: HashMap<Ip, u16>,
    pushed: HashMap<Ip, u16>,
    /// Priority for installed rules.
    pub priority: u16,
}

impl LearningSwitch {
    /// A fresh learner installing rules at priority 10.
    pub fn new() -> Self {
        Self {
            learned: HashMap::new(),
            pushed: HashMap::new(),
            priority: 10,
        }
    }

    /// The learned `ip → port` table.
    pub fn learned(&self) -> &HashMap<Ip, u16> {
        &self.learned
    }

    /// Install `dst(ip) → Forward(out)` unless that exact rule is
    /// already on the switch.
    fn push(&mut self, ctx: &mut AppCtx, ip: Ip, out: u16) {
        if self.pushed.get(&ip) != Some(&out) {
            self.pushed.insert(ip, out);
            ctx.install(self.priority, Match::dst(ip), Action::Forward(out as PortId));
        }
    }
}

impl ControllerApp for LearningSwitch {
    fn packet_in(&mut self, ctx: &mut AppCtx, pkt: &PacketInEvent) {
        self.learned.insert(pkt.flow.src_ip, pkt.in_port);
        if let Some(&out) = self.learned.get(&pkt.flow.dst_ip) {
            // Both endpoints known: open both directions.
            let (src, in_port) = (pkt.flow.src_ip, pkt.in_port);
            self.push(ctx, pkt.flow.dst_ip, out);
            self.push(ctx, src, in_port);
        }
    }
}

/// Message-kind index shared by the ledger's per-kind counters and their
/// obs labels.
fn kind_idx(msg: &OfMessage) -> usize {
    match msg {
        OfMessage::Hello { .. } => 0,
        OfMessage::EchoRequest { .. } => 1,
        OfMessage::EchoReply { .. } => 2,
        OfMessage::PacketIn { .. } => 3,
        OfMessage::PortStatus { .. } => 4,
        OfMessage::FlowMod { .. } => 5,
        OfMessage::PortStatsRequest { .. } => 6,
        OfMessage::PortStatsReply { .. } => 7,
    }
}

const KIND_NAMES: [&str; 8] = [
    "hello",
    "echo_request",
    "echo_reply",
    "packet_in",
    "port_status",
    "flow_mod",
    "port_stats_request",
    "port_stats_reply",
];

/// A point-in-time snapshot of a [`Ledger`]'s connection-plane counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControllerStats {
    /// Connections accepted, lifetime.
    pub connections: u64,
    /// Connections currently open.
    pub active: u64,
    /// Connections whose Hello handshake completed, lifetime.
    pub handshaken: u64,
    /// Messages received (all kinds), lifetime.
    pub rx_messages: u64,
    /// Messages sent (all kinds), lifetime.
    pub tx_messages: u64,
    /// FlowMods sent, lifetime.
    pub flow_mods_tx: u64,
    /// PacketIns received, lifetime.
    pub packet_ins_rx: u64,
    /// EchoRequest idle probes sent, lifetime.
    pub echo_probes: u64,
    /// Connections dropped on an unparseable frame, lifetime.
    pub decode_errors: u64,
    /// Connections reaped after two silent idle periods, lifetime.
    pub idle_disconnects: u64,
    /// Out-of-order protocol messages seen (e.g. traffic before Hello),
    /// lifetime.
    pub protocol_errors: u64,
}

/// The connection-plane ledger: the one set of live counters every
/// [`Session`] of a controller updates. They are the `mdn_ctrl_*`
/// families of the registry given to [`Ledger::new`], and
/// [`Ledger::stats`] reads the same counters back. Clones share them.
#[derive(Debug, Clone)]
pub struct Ledger {
    connections: Counter,
    disconnects: Counter,
    active: Gauge,
    handshakes: Counter,
    rx_by_kind: [Counter; 8],
    tx_by_kind: [Counter; 8],
    decode_errors: Counter,
    idle_disconnects: Counter,
    protocol_errors: Counter,
    echo_probes: Counter,
}

impl Ledger {
    /// Counters registered in `registry` (`mdn_ctrl_connections_total`,
    /// `mdn_ctrl_connections_active`,
    /// `mdn_ctrl_messages_{rx,tx}_total{kind=...}`, ...). A disabled
    /// registry gets a private one instead, so the stats always count.
    pub fn new(registry: &Registry) -> Self {
        let private;
        let registry = if registry.is_enabled() {
            registry
        } else {
            private = Registry::new();
            &private
        };
        let by_kind = |name: &str| -> [Counter; 8] {
            std::array::from_fn(|k| registry.counter(name, &[("kind", KIND_NAMES[k])]))
        };
        Self {
            connections: registry.counter("mdn_ctrl_connections_total", &[]),
            disconnects: registry.counter("mdn_ctrl_disconnects_total", &[]),
            active: registry.gauge("mdn_ctrl_connections_active", &[]),
            handshakes: registry.counter("mdn_ctrl_handshakes_total", &[]),
            rx_by_kind: by_kind("mdn_ctrl_messages_rx_total"),
            tx_by_kind: by_kind("mdn_ctrl_messages_tx_total"),
            decode_errors: registry.counter("mdn_ctrl_decode_errors_total", &[]),
            idle_disconnects: registry.counter("mdn_ctrl_idle_disconnects_total", &[]),
            protocol_errors: registry.counter("mdn_ctrl_protocol_errors_total", &[]),
            echo_probes: registry.counter("mdn_ctrl_echo_probes_total", &[]),
        }
    }

    /// A point-in-time snapshot. Totals are sums of the per-kind message
    /// counters; `active` is connections minus disconnects. The counters
    /// are `Relaxed` statistics that publish no other data, so a snapshot
    /// taken while connections run may lag them by a message.
    pub fn stats(&self) -> ControllerStats {
        let sum = |counters: &[Counter; 8]| counters.iter().map(Counter::get).sum();
        ControllerStats {
            connections: self.connections.get(),
            active: self.open_connections(),
            handshaken: self.handshakes.get(),
            rx_messages: sum(&self.rx_by_kind),
            tx_messages: sum(&self.tx_by_kind),
            flow_mods_tx: self.tx_by_kind[5].get(), // "flow_mod"
            packet_ins_rx: self.rx_by_kind[3].get(), // "packet_in"
            echo_probes: self.echo_probes.get(),
            decode_errors: self.decode_errors.get(),
            idle_disconnects: self.idle_disconnects.get(),
            protocol_errors: self.protocol_errors.get(),
        }
    }

    fn open_connections(&self) -> u64 {
        // Disconnects first: each one is already in `connections`, so the
        // difference cannot go negative unless the reads race.
        let closed = self.disconnects.get();
        self.connections.get().saturating_sub(closed)
    }

    fn sent(&self, msg: &OfMessage) {
        self.tx_by_kind[kind_idx(msg)].inc();
    }
}

/// Why a [`Session`] refused a frame or an idle tick. Each variant but
/// [`SessionError::Closed`] ends the session; every later call returns
/// `Closed`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// The frame did not parse. On a byte stream the framing is lost, so
    /// nothing after it can be trusted.
    Decode(WireError),
    /// A message other than Hello, Echo included, arrived before the
    /// peer's Hello: the peer does not speak the protocol.
    BeforeHello,
    /// Probed after one silent period and still silent after a second.
    IdleTimeout,
    /// The session already ended on an earlier error.
    Closed,
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Decode(e) => write!(f, "frame error: {e}"),
            SessionError::BeforeHello => write!(f, "traffic before the peer's Hello"),
            SessionError::IdleTimeout => write!(f, "idle probe went unanswered"),
            SessionError::Closed => write!(f, "session already closed"),
        }
    }
}

impl std::error::Error for SessionError {}

/// The controller side of one OpenFlow connection, with no I/O: the
/// Hello handshake, the xid counter and [`AppCtx`], the idle probe and
/// reap, and [`ControllerApp`] dispatch. A transport feeds it frames
/// ([`Session::on_frame`], [`Session::on_decoded`]) and read deadlines
/// ([`Session::on_idle`]) and sends what comes back. Two transports
/// drive it: the TCP [`ControllerServer`], and `mdn-core`'s in-process
/// `OfAgent` over a [`crate::channel::ControlChannel`].
///
/// The session counts itself in its [`Ledger`]: a connection when
/// opened, a disconnect when dropped, and every message and error in
/// between.
pub struct Session {
    ctx: AppCtx,
    app: Box<dyn ControllerApp>,
    ledger: Ledger,
    handshaken: bool,
    probe_outstanding: bool,
    closed: bool,
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("conn_id", &self.ctx.conn_id)
            .field("handshaken", &self.handshaken)
            .field("closed", &self.closed)
            .finish_non_exhaustive()
    }
}

impl Session {
    /// Open connection `conn_id` running `app`. Returns the session and
    /// the controller's Hello, which the transport sends first (the
    /// peer's Hello may already be in flight).
    pub fn open(conn_id: u64, app: Box<dyn ControllerApp>, ledger: &Ledger) -> (Self, OfMessage) {
        let mut session = Self {
            ctx: AppCtx::new(conn_id),
            app,
            ledger: ledger.clone(),
            handshaken: false,
            probe_outstanding: false,
            closed: false,
        };
        session.ledger.connections.inc();
        session.publish_active();
        let hello = OfMessage::Hello {
            xid: session.ctx.next_xid(),
        };
        session.ledger.sent(&hello);
        (session, hello)
    }

    /// Step one raw frame: decode it, then as [`Session::on_decoded`].
    pub fn on_frame(&mut self, frame: &[u8]) -> Result<Vec<OfMessage>, SessionError> {
        self.on_decoded(OfMessage::decode(Bytes::from(frame)))
    }

    /// Step one frame a transport has already decoded, or failed to.
    /// Returns the messages to send back, in order.
    pub fn on_decoded(
        &mut self,
        frame: Result<OfMessage, WireError>,
    ) -> Result<Vec<OfMessage>, SessionError> {
        if self.closed {
            return Err(SessionError::Closed);
        }
        let msg = match frame {
            Ok(msg) => msg,
            Err(e) => {
                self.ledger.decode_errors.inc();
                return Err(self.close(SessionError::Decode(e)));
            }
        };
        // Any traffic proves liveness.
        self.probe_outstanding = false;
        self.ledger.rx_by_kind[kind_idx(&msg)].inc();
        match msg {
            OfMessage::Hello { .. } if !self.handshaken => {
                self.handshaken = true;
                self.ledger.handshakes.inc();
                self.app.switch_connected(&mut self.ctx);
            }
            // A duplicate Hello is harmless chatter.
            OfMessage::Hello { .. } => self.ledger.protocol_errors.inc(),
            _ if !self.handshaken => {
                // Echoing alone must not hold a connection open either.
                self.ledger.protocol_errors.inc();
                return Err(self.close(SessionError::BeforeHello));
            }
            OfMessage::EchoRequest { xid, payload } => {
                self.ctx.send(OfMessage::EchoReply { xid, payload });
            }
            OfMessage::EchoReply { .. } => {}
            OfMessage::PacketIn {
                xid,
                in_port,
                flow,
                total_len,
                reason,
            } => {
                let pkt = PacketInEvent {
                    xid,
                    in_port,
                    flow,
                    total_len,
                    reason,
                };
                self.app.packet_in(&mut self.ctx, &pkt);
            }
            OfMessage::PortStatus {
                port,
                reason,
                link_up,
                ..
            } => self.app.port_status(&mut self.ctx, port, reason, link_up),
            other => self.app.other(&mut self.ctx, &other),
        }
        let out = std::mem::take(&mut self.ctx.outbox);
        out.iter().for_each(|msg| self.ledger.sent(msg));
        Ok(out)
    }

    /// A read deadline passed between frames. The first silent period
    /// returns an EchoRequest probe; a second in a row, with no traffic
    /// at all, ends the session with [`SessionError::IdleTimeout`].
    pub fn on_idle(&mut self) -> Result<OfMessage, SessionError> {
        if self.closed {
            return Err(SessionError::Closed);
        }
        if self.probe_outstanding {
            self.ledger.idle_disconnects.inc();
            return Err(self.close(SessionError::IdleTimeout));
        }
        self.probe_outstanding = true;
        self.ledger.echo_probes.inc();
        let probe = OfMessage::EchoRequest {
            xid: self.ctx.next_xid(),
            payload: Bytes::new(),
        };
        self.ledger.sent(&probe);
        Ok(probe)
    }

    fn close(&mut self, err: SessionError) -> SessionError {
        self.closed = true;
        err
    }

    fn publish_active(&self) {
        self.ledger
            .active
            .set(self.ledger.open_connections() as f64);
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.ledger.disconnects.inc();
        self.publish_active();
    }
}

/// Builds one [`ControllerApp`] per accepted connection.
pub type AppFactory = dyn Fn(u64) -> Box<dyn ControllerApp> + Send + Sync;

/// The TCP OpenFlow controller front-end. Construct with an app
/// factory, then [`ControllerServer::serve`] to bind and accept.
pub struct ControllerServer {
    factory: Box<AppFactory>,
    config: ControllerConfig,
    ledger: Ledger,
}

impl fmt::Debug for ControllerServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ControllerServer")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

/// A running [`ControllerServer`]: the serve core's handle plus the
/// server's [`Ledger`]. Stops accepting on drop.
#[derive(Debug)]
pub struct ControllerHandle {
    serve: ServeHandle,
    ledger: Ledger,
}

impl ControllerServer {
    /// A server that runs `factory(conn_id)`'s app on each connection.
    pub fn new(factory: impl Fn(u64) -> Box<dyn ControllerApp> + Send + Sync + 'static) -> Self {
        Self {
            factory: Box::new(factory),
            config: ControllerConfig::default(),
            ledger: Ledger::new(&Registry::disabled()),
        }
    }

    /// Replace the default timeouts.
    pub fn with_config(mut self, config: ControllerConfig) -> Self {
        self.config = config;
        self
    }

    /// Keep the connection-plane counters in `registry` (see
    /// [`Ledger::new`] for the metric names).
    pub fn attach_obs(mut self, registry: &Registry) -> Self {
        self.ledger = Ledger::new(registry);
        self
    }

    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and start accepting. Each
    /// connection gets its own reader thread and app instance. A zero
    /// deadline in the config is an [`ErrorKind::InvalidInput`] error.
    pub fn serve(self, addr: impl ToSocketAddrs) -> std::io::Result<ControllerHandle> {
        let ledger = self.ledger.clone();
        let config = self.config;
        let handler = move |stream, conn_id, stop: &AtomicBool| {
            serve_connection(stream, conn_id, &self, stop);
        };
        let serve = serve::serve(addr, config.idle_timeout, config.write_timeout, handler)?;
        Ok(ControllerHandle { serve, ledger })
    }
}

/// One connection: the read → step → write shell around a [`Session`].
/// Ends on EOF, a transport or write failure, shutdown, or the first
/// [`SessionError`].
fn serve_connection(
    mut stream: TcpStream,
    conn_id: u64,
    server: &ControllerServer,
    stop: &AtomicBool,
) {
    let _ = stream.set_nodelay(true);
    let app = (server.factory)(conn_id);
    let (mut session, hello) = Session::open(conn_id, app, &server.ledger);
    let mut out = vec![hello];
    loop {
        if out
            .iter()
            .any(|msg| write_message(&mut stream, msg).is_err())
            || stop.load(Ordering::SeqCst)
        {
            return;
        }
        let step = match read_frame(&mut stream) {
            Ok(frame) => session.on_frame(&frame),
            Err(OfStreamError::Idle) => session.on_idle().map(|probe| vec![probe]),
            Err(OfStreamError::Wire(e)) => session.on_decoded(Err(e)),
            Err(OfStreamError::Io(_)) => return,
        };
        let Ok(msgs) = step else { return };
        out = msgs;
    }
}

impl ControllerHandle {
    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.serve.addr()
    }

    /// A point-in-time snapshot of the connection-plane counters.
    pub fn stats(&self) -> ControllerStats {
        self.ledger.stats()
    }

    /// Stop accepting connections and join the accept thread. Open
    /// connections drain on their own threads (EOF or idle reap).
    pub fn shutdown(self) {
        self.serve.shutdown();
    }
}

/// The switch side of the control channel: a framed [`OfMessage`]
/// connection with its own xid counter. [`OfClient::connect`] performs
/// the Hello handshake; [`OfClient::recv_responding`] and
/// [`OfClient::poll`] answer the server's idle probes transparently so a
/// quiet-but-polled client stays connected.
#[derive(Debug)]
pub struct OfClient {
    stream: TcpStream,
    next_xid: u32,
}

impl OfClient {
    /// Connect to a controller and complete the Hello handshake: send
    /// our Hello, then wait (up to `timeout`) for the controller's.
    pub fn connect(addr: impl ToSocketAddrs, timeout: Duration) -> Result<Self, OfStreamError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        stream.set_read_timeout(Some(timeout))?;
        let mut client = Self {
            stream,
            next_xid: 0,
        };
        let xid = client.next_xid();
        client.send(&OfMessage::Hello { xid })?;
        loop {
            match client.recv()? {
                OfMessage::Hello { .. } => return Ok(client),
                OfMessage::EchoRequest { xid, payload } => {
                    client.send(&OfMessage::EchoReply { xid, payload })?;
                }
                _ => {
                    return Err(OfStreamError::Wire(WireError::InvalidField(
                        "expected Hello during handshake",
                    )))
                }
            }
        }
    }

    /// Mutable access to the underlying stream — for harnesses that
    /// need to write raw (even malformed) bytes past the codec.
    pub fn stream_mut(&mut self) -> &mut TcpStream {
        &mut self.stream
    }

    /// The next switch-initiated transaction id.
    pub fn next_xid(&mut self) -> u32 {
        self.next_xid = self.next_xid.wrapping_add(1);
        self.next_xid
    }

    /// Send one message.
    pub fn send(&mut self, msg: &OfMessage) -> Result<(), OfStreamError> {
        write_message(&mut self.stream, msg)
    }

    /// Ship a table-miss summary as a `PacketIn`.
    pub fn packet_in(
        &mut self,
        in_port: u16,
        flow: FlowKey,
        total_len: u16,
    ) -> Result<(), OfStreamError> {
        let xid = self.next_xid();
        self.send(&OfMessage::PacketIn {
            xid,
            in_port,
            flow,
            total_len,
            reason: PacketInReason::NoMatch,
        })
    }

    /// Receive one raw message (blocking up to the connect timeout;
    /// [`OfStreamError::Idle`] if none arrives).
    pub fn recv(&mut self) -> Result<OfMessage, OfStreamError> {
        read_message(&mut self.stream)
    }

    /// Receive the next *application* message, transparently answering
    /// the server's EchoRequest probes.
    pub fn recv_responding(&mut self) -> Result<OfMessage, OfStreamError> {
        loop {
            match self.recv()? {
                OfMessage::EchoRequest { xid, payload } => {
                    self.send(&OfMessage::EchoReply { xid, payload })?;
                }
                msg => return Ok(msg),
            }
        }
    }

    /// Wait up to `wait` for an application message; `Ok(None)` if the
    /// link stayed idle. Echo probes are answered and do not count —
    /// each answered probe restarts the `wait` window, so a poll can
    /// outlast `wait` by one probe interval per probe received.
    pub fn poll(&mut self, wait: Duration) -> Result<Option<OfMessage>, OfStreamError> {
        self.stream
            .set_read_timeout(Some(wait.max(Duration::from_millis(1))))?;
        match self.recv_responding() {
            Ok(msg) => Ok(Some(msg)),
            Err(OfStreamError::Idle) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// One EchoRequest round-trip with `payload`; errors if the reply
    /// carries a different xid or payload. Returns the number of
    /// intervening application messages discarded while waiting.
    pub fn echo(&mut self, payload: Bytes) -> Result<usize, OfStreamError> {
        let xid = self.next_xid();
        self.send(&OfMessage::EchoRequest {
            xid,
            payload: payload.clone(),
        })?;
        let mut skipped = 0;
        loop {
            match self.recv_responding()? {
                OfMessage::EchoReply {
                    xid: rx,
                    payload: rp,
                } => {
                    if rx != xid || rp != payload {
                        return Err(OfStreamError::Wire(WireError::InvalidField(
                            "echo reply mismatch",
                        )));
                    }
                    return Ok(skipped);
                }
                _ => skipped += 1,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdn_net::ftable::{Decision, FlowTable};

    fn learning_server(config: ControllerConfig) -> ControllerHandle {
        ControllerServer::new(|_| Box::new(LearningSwitch::new()))
            .with_config(config)
            .serve("127.0.0.1:0")
            .expect("bind controller")
    }

    fn fast_config() -> ControllerConfig {
        ControllerConfig {
            idle_timeout: Duration::from_millis(100),
            write_timeout: Duration::from_secs(1),
        }
    }

    fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
        for _ in 0..200 {
            if done() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("timed out waiting for {what}");
    }

    #[test]
    fn handshake_completes_over_a_real_socket() {
        let handle = learning_server(ControllerConfig::default());
        let client =
            OfClient::connect(handle.addr(), Duration::from_secs(2)).expect("handshake");
        wait_until("handshake counted", || handle.stats().handshaken == 1);
        let stats = handle.stats();
        assert_eq!(stats.connections, 1);
        assert_eq!(stats.active, 1);
        drop(client);
        wait_until("disconnect observed", || handle.stats().active == 0);
        handle.shutdown();
    }

    #[test]
    fn echo_round_trips_with_matching_xid_and_payload() {
        let handle = learning_server(ControllerConfig::default());
        let mut client = OfClient::connect(handle.addr(), Duration::from_secs(2)).unwrap();
        let skipped = client.echo(Bytes::from_static(b"ping")).unwrap();
        assert_eq!(skipped, 0);
        handle.shutdown();
    }

    #[test]
    fn learning_switch_installs_both_directions() {
        let handle = learning_server(ControllerConfig::default());
        let mut client = OfClient::connect(handle.addr(), Duration::from_secs(2)).unwrap();
        let h1 = Ip::v4(10, 0, 0, 1);
        let h2 = Ip::v4(10, 0, 0, 2);
        let fwd = FlowKey::tcp(h1, 40_000, h2, 80);

        // First miss: h1 learned, h2 unknown — no installs yet.
        client.packet_in(0, fwd, 1500).unwrap();
        assert!(client.poll(Duration::from_millis(200)).unwrap().is_none());

        // Reverse miss: both endpoints known — two FlowMods come back.
        client.packet_in(1, fwd.reversed(), 1500).unwrap();
        let mut table = FlowTable::new();
        for _ in 0..2 {
            let msg = client.recv_responding().unwrap();
            assert!(crate::channel::apply_at_switch(&mut table, &msg));
        }
        assert_eq!(table.lookup(0, &fwd), Decision::Forward(1));
        assert_eq!(table.lookup(1, &fwd.reversed()), Decision::Forward(0));
        // Counters bump after the writes; give the server thread a turn.
        wait_until("message counters settle", || {
            let stats = handle.stats();
            stats.packet_ins_rx == 2 && stats.flow_mods_tx == 2
        });
        handle.shutdown();
    }

    #[test]
    fn idle_client_is_probed_then_reaped() {
        let handle = learning_server(fast_config());
        let mut client = OfClient::connect(handle.addr(), Duration::from_secs(2)).unwrap();
        // The first probe arrives after one idle period; answer it once.
        match client.recv().expect("the idle probe") {
            OfMessage::EchoRequest { xid, payload } => {
                client.send(&OfMessage::EchoReply { xid, payload }).unwrap();
            }
            other => panic!("expected a probe, got {other:?}"),
        }
        // Reaping needs two more silent periods; we are still alive now.
        assert_eq!(handle.stats().active, 1, "answered probe keeps us alive");

        // Now go fully silent: probed again, unanswered, reaped.
        wait_until("idle reap", || handle.stats().idle_disconnects == 1);
        wait_until("connection closed", || handle.stats().active == 0);
        assert!(handle.stats().echo_probes >= 2);
        handle.shutdown();
    }

    #[test]
    fn malformed_frame_disconnects_with_a_typed_count() {
        let handle = learning_server(ControllerConfig::default());
        let mut client = OfClient::connect(handle.addr(), Duration::from_secs(2)).unwrap();
        // A header whose declared length is shorter than the header.
        client
            .stream
            .write_all(&[0x01, 0x00, 0x00, 0x04, 0, 0, 0, 1])
            .unwrap();
        wait_until("decode error counted", || handle.stats().decode_errors == 1);
        wait_until("connection dropped", || handle.stats().active == 0);
        handle.shutdown();
    }

    #[test]
    fn traffic_before_hello_is_a_protocol_error() {
        let handle = learning_server(ControllerConfig::default());
        // Skip our Hello; go straight to a PacketIn, or to Echo traffic
        // (which alone must not hold a reader thread).
        let msgs = [
            OfMessage::PacketIn {
                xid: 1,
                in_port: 0,
                flow: FlowKey::tcp(Ip::v4(1, 1, 1, 1), 1, Ip::v4(2, 2, 2, 2), 2),
                total_len: 64,
                reason: PacketInReason::NoMatch,
            },
            OfMessage::EchoRequest {
                xid: 1,
                payload: Bytes::from_static(b"ping"),
            },
        ];
        for (i, msg) in msgs.iter().enumerate() {
            let mut raw = TcpStream::connect(handle.addr()).unwrap();
            raw.write_all(&msg.encode().unwrap()).unwrap();
            wait_until("protocol error counted", || {
                handle.stats().protocol_errors > i as u64
            });
            wait_until("connection dropped", || handle.stats().active == 0);
        }
        handle.shutdown();
    }

    #[test]
    fn zero_deadlines_are_refused_at_serve() {
        for config in [
            ControllerConfig {
                idle_timeout: Duration::ZERO,
                ..ControllerConfig::default()
            },
            ControllerConfig {
                write_timeout: Duration::ZERO,
                ..ControllerConfig::default()
            },
        ] {
            assert!(config.validate().is_err());
            let err = ControllerServer::new(|_| Box::new(LearningSwitch::new()))
                .with_config(config)
                .serve("127.0.0.1:0")
                .expect_err("a zero deadline must not bind");
            assert_eq!(err.kind(), ErrorKind::InvalidInput, "{err}");
        }
    }

    #[test]
    fn obs_counters_track_the_message_plane() {
        let registry = Registry::new();
        let handle = ControllerServer::new(|_| Box::new(LearningSwitch::new()))
            .attach_obs(&registry)
            .serve("127.0.0.1:0")
            .unwrap();
        let mut client = OfClient::connect(handle.addr(), Duration::from_secs(2)).unwrap();
        client.echo(Bytes::from_static(b"x")).unwrap();
        wait_until("hello rx counted", || {
            registry
                .counter("mdn_ctrl_messages_rx_total", &[("kind", "hello")])
                .get()
                == 1
        });
        assert_eq!(
            registry.counter("mdn_ctrl_connections_total", &[]).get(),
            1
        );
        // The tx counter bumps after the reply is written; on one core
        // the server thread may not have run again yet.
        wait_until("echo reply tx counted", || {
            registry
                .counter("mdn_ctrl_messages_tx_total", &[("kind", "echo_reply")])
                .get()
                == 1
        });
        let prom = registry.prometheus();
        assert!(prom.contains("mdn_ctrl_connections_active"), "{prom}");
        handle.shutdown();
    }

    #[test]
    fn frame_reader_rejects_undersized_length() {
        let bytes: &[u8] = &[0x01, 0x00, 0x00, 0x07, 0, 0, 0, 1];
        let mut cursor = bytes;
        match read_frame(&mut cursor) {
            Err(OfStreamError::Wire(WireError::InvalidField(f))) => {
                assert_eq!(f, "length shorter than header");
            }
            other => panic!("expected InvalidField, got {other:?}"),
        }
    }

    #[test]
    fn frame_reader_roundtrips_through_a_buffer() {
        let msg = OfMessage::PortStatsRequest { xid: 7, port: 3 };
        let mut buf = Vec::new();
        write_message(&mut buf, &msg).unwrap();
        let mut cursor = &buf[..];
        assert_eq!(read_message(&mut cursor).unwrap(), msg);
    }

    #[test]
    fn truncated_stream_is_io_not_idle() {
        // Half a header then EOF: a mid-frame failure, not idleness.
        let bytes: &[u8] = &[0x01, 0x00, 0x00];
        let mut cursor = bytes;
        match read_frame(&mut cursor) {
            Err(OfStreamError::Io(e)) => assert_eq!(e.kind(), ErrorKind::UnexpectedEof),
            other => panic!("expected Io, got {other:?}"),
        }
    }
}
