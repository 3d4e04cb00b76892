//! A std-only HTTP scrape plane for a running experiment.
//!
//! The registry's exporters are in-process snapshots; a *live* soak needs
//! its metrics reachable over a socket, the way the OpenFlow controller
//! front-end serves control traffic — `TcpListener`, one thread per
//! connection, no dependencies. [`ObsServer`] serves three read-only
//! endpoints:
//!
//! * `GET /metrics` — the Prometheus text exposition
//!   ([`Registry::prometheus`]).
//! * `GET /snapshot` — the JSON snapshot ([`crate::export::Snapshot::to_json`]).
//! * `GET /trace?since=N` — retained trace spans with all-time index
//!   `>= N` as Chrome trace-event JSON, plus an `X-Mdn-Trace-Next`
//!   header carrying the cursor to pass as the next `since` (omit
//!   `since` for the whole retained tail).
//!
//! Connections are short-lived (`Connection: close`); a scrape never
//! pauses writers because the exporters are already lock-light
//! point-in-time reads. Sockets are the shared [`crate::serve`] core's;
//! a request head must arrive within the client timeout and fit in 8 KiB
//! (else `431`). Drop the [`ObsServerHandle`] (or call
//! [`ServeHandle::shutdown`]) to stop accepting.

use crate::registry::Registry;
use crate::serve::{serve, ServeHandle};
use crate::trace::{chrome_trace_json, TraceSink};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// How long a client may take over its request head before it is reaped.
///
/// Scrapes are one short request–response exchange; anything that holds
/// a socket open without finishing its request (a slow-loris client, a
/// dead peer) is cut after this deadline so it cannot pin a handler
/// thread forever.
const DEFAULT_CLIENT_TIMEOUT: Duration = Duration::from_secs(5);

/// The longest request head (request line plus headers) a scrape may
/// send; a GET needs a few hundred bytes.
const MAX_REQUEST_HEAD: u64 = 8 * 1024;

/// The scrape server: a registry + trace sink pair served over HTTP.
#[derive(Debug, Clone)]
pub struct ObsServer {
    registry: Registry,
    trace: TraceSink,
    client_timeout: Duration,
}

/// A running [`ObsServer`]: the serve core's handle. Shuts down on drop.
pub type ObsServerHandle = ServeHandle;

/// Reads from a stream against one deadline for the whole read, not a
/// fresh timeout per call.
struct Deadline<'a>(&'a TcpStream, Instant);

impl Read for Deadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        // Past the deadline the timeout is zero, which
        // `set_read_timeout` itself refuses.
        let left = self.1.saturating_duration_since(Instant::now());
        self.0.set_read_timeout(Some(left))?;
        self.0.read(buf)
    }
}

impl ObsServer {
    /// A server over `registry` and its trace sink.
    pub fn new(registry: &Registry, trace: &TraceSink) -> Self {
        Self {
            registry: registry.clone(),
            trace: trace.clone(),
            client_timeout: DEFAULT_CLIENT_TIMEOUT,
        }
    }

    /// Replace the default deadline on a request head and each write.
    pub fn with_client_timeout(mut self, timeout: Duration) -> Self {
        self.client_timeout = timeout;
        self
    }

    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and start
    /// accepting, one thread per connection. A zero timeout is an
    /// `InvalidInput` error.
    pub fn serve(self, addr: impl ToSocketAddrs) -> std::io::Result<ObsServerHandle> {
        let timeout = self.client_timeout;
        serve(addr, timeout, timeout, move |stream, _, _| {
            let _ = self.handle(stream);
        })
    }

    /// Serve one connection: read the request head, route, respond,
    /// close.
    fn handle(&self, stream: TcpStream) -> std::io::Result<()> {
        let deadline = Deadline(&stream, Instant::now() + self.client_timeout);
        let mut reader = BufReader::new(deadline.take(MAX_REQUEST_HEAD));
        let mut request_line = String::new();
        reader.read_line(&mut request_line)?;
        // Drain headers so well-behaved clients see a clean close.
        let mut line = String::new();
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 || line == "\r\n" || line == "\n" {
                break;
            }
        }
        // The head ended without its blank line because the size cap
        // cut it off, not because the client closed.
        if line.is_empty() && reader.get_ref().limit() == 0 {
            return respond(&stream, 431, "text/plain", "request head too large\n", &[]);
        }

        let mut parts = request_line.split_whitespace();
        let method = parts.next().unwrap_or("");
        let target = parts.next().unwrap_or("");
        if method != "GET" {
            return respond(&stream, 405, "text/plain", "method not allowed\n", &[]);
        }
        let (path, query) = match target.split_once('?') {
            Some((p, q)) => (p, q),
            None => (target, ""),
        };
        match path {
            "/metrics" => {
                let body = self.registry.prometheus();
                respond(
                    &stream,
                    200,
                    "text/plain; version=0.0.4; charset=utf-8",
                    &body,
                    &[],
                )
            }
            "/snapshot" => {
                let body = self.registry.snapshot().to_json();
                respond(&stream, 200, "application/json", &body, &[])
            }
            "/trace" => {
                // An absent cursor means "the whole retained tail"; a
                // present-but-unparseable one is a client error, not a
                // silent restart from zero.
                let since = match query.split('&').find_map(|kv| kv.strip_prefix("since=")) {
                    None => 0,
                    Some(v) => match v.parse::<u64>() {
                        Ok(n) => n,
                        Err(_) => {
                            return respond(
                                &stream,
                                400,
                                "text/plain",
                                "bad since cursor: expected a non-negative integer\n",
                                &[],
                            );
                        }
                    },
                };
                let (next, spans) = self.trace.spans_since(since);
                let body = chrome_trace_json(&spans);
                let next_header = format!("X-Mdn-Trace-Next: {next}");
                respond(&stream, 200, "application/json", &body, &[&next_header])
            }
            _ => respond(&stream, 404, "text/plain", "not found\n", &[]),
        }
    }
}

fn respond(
    mut stream: &TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
    extra_headers: &[&str],
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        431 => "Request Header Fields Too Large",
        _ => "Error",
    };
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for h in extra_headers {
        head.push_str(h);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{SpanKind, TraceId, TraceSpan};
    use std::io::{ErrorKind, Read};
    use std::net::SocketAddr;
    use std::time::Duration;

    /// Minimal test client: one GET, full response as a string.
    fn get(addr: SocketAddr, target: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "GET {target} HTTP/1.1\r\nHost: mdn\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    fn body(response: &str) -> &str {
        response.split("\r\n\r\n").nth(1).unwrap_or("")
    }

    #[test]
    fn serves_metrics_snapshot_and_trace() {
        let registry = Registry::new();
        registry.counter("mdn_http_test_total", &[]).add(3);
        let sink = TraceSink::with_capacity(8);
        sink.record(TraceSpan {
            trace: TraceId::derive(0, 0, 0),
            kind: SpanKind::Schedule,
            from: Duration::ZERO,
            to: Duration::from_millis(10),
            wall_ns: 5,
            cell: 0,
            detail: "c0-s0".into(),
        });
        let handle = ObsServer::new(&registry, &sink)
            .serve("127.0.0.1:0")
            .unwrap();
        let addr = handle.addr();

        let metrics = get(addr, "/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200"), "{metrics}");
        assert!(body(&metrics).contains("mdn_http_test_total 3"));

        let snapshot = get(addr, "/snapshot");
        assert!(snapshot.contains("application/json"));
        assert!(body(&snapshot).contains("\"mdn_http_test_total\": 3"));

        let trace = get(addr, "/trace?since=0");
        assert!(trace.contains("X-Mdn-Trace-Next: 1"), "{trace}");
        assert!(body(&trace).contains("\"name\": \"schedule\""));
        // Cursor past the tail: empty event list.
        let empty = get(addr, "/trace?since=1");
        assert!(!body(&empty).contains("\"ph\""));

        let missing = get(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.1 404"));

        handle.shutdown();
    }

    #[test]
    fn malformed_trace_cursor_is_a_client_error() {
        let registry = Registry::new();
        let sink = TraceSink::with_capacity(8);
        sink.record(TraceSpan {
            trace: TraceId::derive(0, 0, 0),
            kind: SpanKind::Schedule,
            from: Duration::ZERO,
            to: Duration::from_millis(10),
            wall_ns: 5,
            cell: 0,
            detail: "c0-s0".into(),
        });
        let handle = ObsServer::new(&registry, &sink).serve("127.0.0.1:0").unwrap();
        let addr = handle.addr();

        for target in ["/trace?since=garbage", "/trace?since=-3", "/trace?since="] {
            let bad = get(addr, target);
            assert!(bad.starts_with("HTTP/1.1 400"), "{target}: {bad}");
            assert!(body(&bad).contains("bad since cursor"), "{bad}");
        }
        // The numeric path still pages through the ring.
        let good = get(addr, "/trace?since=0");
        assert!(good.starts_with("HTTP/1.1 200"), "{good}");
        assert!(good.contains("X-Mdn-Trace-Next: 1"), "{good}");
        // And an absent cursor still means "from the start".
        let whole = get(addr, "/trace");
        assert!(whole.starts_with("HTTP/1.1 200"), "{whole}");
        assert!(body(&whole).contains("\"name\": \"schedule\""));
        handle.shutdown();
    }

    #[test]
    fn silent_connection_is_reaped_while_metrics_stays_responsive() {
        let registry = Registry::new();
        registry.counter("mdn_http_loris_total", &[]).add(1);
        let handle = ObsServer::new(&registry, &TraceSink::disabled())
            .with_client_timeout(Duration::from_millis(150))
            .serve("127.0.0.1:0")
            .unwrap();
        let addr = handle.addr();

        // A slow-loris client: connects, sends nothing.
        let mut silent = TcpStream::connect(addr).unwrap();

        // The scrape plane keeps answering while the loris dangles.
        let metrics = get(addr, "/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200"), "{metrics}");
        assert!(body(&metrics).contains("mdn_http_loris_total 1"));

        // The handler's read deadline fires and the server closes the
        // socket: our read sees EOF instead of blocking forever.
        silent
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut buf = [0u8; 16];
        let n = silent.read(&mut buf).unwrap();
        assert_eq!(n, 0, "server hung up on the silent connection");
        handle.shutdown();
    }

    #[test]
    fn rejects_non_get() {
        let registry = Registry::new();
        let handle = ObsServer::new(&registry, &TraceSink::disabled())
            .serve("127.0.0.1:0")
            .unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        write!(stream, "POST /metrics HTTP/1.1\r\n\r\n").unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 405"));
    }

    #[test]
    fn trickled_request_head_is_cut_at_the_client_timeout() {
        let handle = ObsServer::new(&Registry::new(), &TraceSink::disabled())
            .with_client_timeout(Duration::from_millis(150))
            .serve("127.0.0.1:0")
            .unwrap();
        // A slow-loris that never goes silent: one byte every 50 ms, each
        // well inside the timeout, and never the end of the head.
        let mut loris = TcpStream::connect(handle.addr()).unwrap();
        loris
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let start = Instant::now();
        let mut buf = [0u8; 16];
        let hung_up = loop {
            if start.elapsed() > Duration::from_secs(3) {
                break false;
            }
            if loris.write_all(b"G").is_err() {
                break true;
            }
            match loris.read(&mut buf) {
                Ok(0) => break true,
                Ok(_) => panic!("a timed-out head gets no response"),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(_) => break true,
            }
        };
        let held = start.elapsed();
        assert!(
            hung_up && held < Duration::from_millis(1500),
            "a 150 ms head deadline held a trickling client for {held:?}"
        );
    }

    #[test]
    fn oversized_request_head_is_refused() {
        let handle = ObsServer::new(&Registry::new(), &TraceSink::disabled())
            .serve("127.0.0.1:0")
            .unwrap();
        let mut flood = TcpStream::connect(handle.addr()).unwrap();
        flood
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // A 64 KiB request line with no newline. The server stops reading
        // at its cap, so the tail of this write (or the read below) may
        // meet a reset after the response is already queued.
        let _ = flood.write_all(&[b'a'; 64 * 1024]);
        let mut out = Vec::new();
        let mut buf = [0u8; 1024];
        while let Ok(n @ 1..) = flood.read(&mut buf) {
            out.extend_from_slice(&buf[..n]);
        }
        let out = String::from_utf8_lossy(&out);
        assert!(out.starts_with("HTTP/1.1 431"), "{out}");
        assert!(out.contains("Connection: close"), "{out}");
    }

    #[test]
    fn zero_client_timeout_is_refused_at_serve() {
        let err = ObsServer::new(&Registry::new(), &TraceSink::disabled())
            .with_client_timeout(Duration::ZERO)
            .serve("127.0.0.1:0")
            .expect_err("a zero deadline must not bind");
        assert_eq!(err.kind(), ErrorKind::InvalidInput, "{err}");
    }
}
