//! The one TCP serve core under both servers: the scrape plane
//! ([`crate::http::ObsServer`]) and `mdn-proto`'s OpenFlow controller.
//! It binds, accepts, sets each stream's deadlines, hands out dense
//! connection ids, runs one handler thread per connection with the stop
//! flag, and owns the one shutdown path. Everything above the socket
//! (HTTP, the OpenFlow handshake, counters) is the handler's.

use crate::config::ConfigError;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The socket-deadline rule: `set_read_timeout` / `set_write_timeout`
/// refuse a zero `Duration`, which would close every connection unserved.
pub fn check_deadline(field: &'static str, deadline: Duration) -> Result<(), ConfigError> {
    if deadline.is_zero() {
        return Err(ConfigError::new(field, "socket deadlines must be positive"));
    }
    Ok(())
}

/// A running server: owns the accept thread. Stops accepting on drop.
#[derive(Debug)]
pub struct ServeHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

/// Bind `addr` (e.g. `"127.0.0.1:0"`) and run `handler(stream, conn_id,
/// stop)` on a thread of its own per accepted connection. A zero deadline
/// is an [`io::ErrorKind::InvalidInput`] error.
pub fn serve<H>(
    addr: impl ToSocketAddrs,
    read_timeout: Duration,
    write_timeout: Duration,
    handler: H,
) -> io::Result<ServeHandle>
where
    H: Fn(TcpStream, u64, &AtomicBool) + Send + Sync + 'static,
{
    check_deadline("read_timeout", read_timeout)
        .and(check_deadline("write_timeout", write_timeout))
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_accept = stop.clone();
    let handler = Arc::new(handler);
    let accept_thread = std::thread::Builder::new().spawn(move || {
        let mut next_conn = 0u64;
        for conn in listener.incoming() {
            if stop_accept.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = conn else { continue };
            if stream.set_read_timeout(Some(read_timeout)).is_err()
                || stream.set_write_timeout(Some(write_timeout)).is_err()
            {
                continue;
            }
            let conn_id = next_conn;
            next_conn += 1;
            let handler = handler.clone();
            let stop = stop_accept.clone();
            // Detached: a connection ends on its own (EOF, deadline, idle
            // reap) and shutdown does not wait for it. A failed spawn
            // drops the connection, not the accept loop.
            let _ = std::thread::Builder::new().spawn(move || handler(stream, conn_id, &stop));
        }
    })?;
    Ok(ServeHandle {
        addr,
        stop,
        accept_thread: Some(accept_thread),
    })
}

impl ServeHandle {
    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the accept thread, as dropping does. Open
    /// connections finish on their own threads.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with one last local connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}
