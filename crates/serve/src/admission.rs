//! Connection admission and drain coordination for the TCP front-end.
//!
//! [`ServerControl`] is the shared control plane a server loop and its
//! per-connection readers hang off:
//!
//! * **Connection cap** — [`ServerControl::register`] admits at most
//!   `max_connections` concurrent connections; past the cap the accept
//!   loop refuses with a structured one-line JSON error instead of
//!   spawning an unbounded thread. The returned [`ConnGuard`] is RAII:
//!   dropping it (reader exit, panic included) releases the slot, so the
//!   cap can never leak.
//! * **Graceful drain** — [`ServerControl::begin_drain`] (idempotent;
//!   wired to SIGTERM/SIGINT and the `shutdown` control line) flips the
//!   server to draining: the accept loop stops, every registered
//!   connection's read half is shut down so blocked readers wake to EOF,
//!   and lines still buffered in userspace are answered
//!   `shutting_down` while in-flight requests finish on their
//!   generation.
//!
//! The registry keeps a second handle (`try_clone`) to each admitted
//! socket purely so drain can interrupt readers blocked in `read` — the
//! reader owns the primary handle and its lifecycle.

use std::collections::HashMap;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Shared admission/drain state for one server instance.
#[derive(Debug)]
pub struct ServerControl {
    max_connections: usize,
    next_id: AtomicU64,
    conns: Mutex<HashMap<u64, TcpStream>>,
    active: AtomicU64,
    draining: AtomicBool,
}

impl ServerControl {
    /// A control plane admitting at most `max_connections` concurrent
    /// connections; `0` means unlimited.
    pub fn new(max_connections: usize) -> Self {
        Self {
            max_connections,
            next_id: AtomicU64::new(0),
            conns: Mutex::new(HashMap::new()),
            active: AtomicU64::new(0),
            draining: AtomicBool::new(false),
        }
    }

    /// A control plane with no connection cap (stdin mode, unit tests).
    pub fn unlimited() -> Self {
        Self::new(0)
    }

    /// Tries to admit a connection. `stream`, when given, is a *second*
    /// handle to the connection's socket kept so
    /// [`begin_drain`](Self::begin_drain) can wake its blocked reader; pass
    /// `None` for non-socket transports. Returns `None` when the server
    /// is at its cap or draining — the caller refuses the connection.
    pub fn register(&self, stream: Option<TcpStream>) -> Option<ConnGuard<'_>> {
        if self.draining.load(Ordering::SeqCst) {
            return None;
        }
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        let mut conns = self.conns.lock().unwrap_or_else(|e| e.into_inner());
        if self.max_connections > 0
            && self.active.load(Ordering::SeqCst) >= self.max_connections as u64
        {
            return None;
        }
        self.active.fetch_add(1, Ordering::SeqCst);
        if let Some(stream) = stream {
            conns.insert(id, stream);
        }
        // a drain that raced past the check above re-sweeps after
        // insertion, so this connection still gets its read-half wakeup
        drop(conns);
        if self.draining.load(Ordering::SeqCst) {
            self.shutdown_registered_reads();
        }
        Some(ConnGuard { control: self, id })
    }

    /// Connections currently admitted (guards alive).
    pub fn active_connections(&self) -> usize {
        self.active.load(Ordering::SeqCst) as usize
    }

    /// Whether drain has begun.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Flips the server to draining (idempotent; first caller wins) and
    /// wakes every admitted connection's blocked reader by shutting down
    /// its socket read half. Readers then drain their userspace buffer —
    /// those lines are answered `shutting_down` — and exit on EOF.
    pub fn begin_drain(&self) {
        if self.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        self.shutdown_registered_reads();
    }

    fn shutdown_registered_reads(&self) {
        let conns = self.conns.lock().unwrap_or_else(|e| e.into_inner());
        for stream in conns.values() {
            // best-effort: a peer that already disconnected errors here,
            // and its reader is already waking to that same error
            let _ = stream.shutdown(Shutdown::Read);
        }
    }

    fn deregister(&self, id: u64) {
        let mut conns = self.conns.lock().unwrap_or_else(|e| e.into_inner());
        conns.remove(&id);
        self.active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// RAII admission slot: holds one unit of the connection cap, released
/// on drop no matter how the connection handler exits.
#[derive(Debug)]
pub struct ConnGuard<'a> {
    control: &'a ServerControl,
    id: u64,
}

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        self.control.deregister(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cap_admits_exactly_max_and_guards_release_slots() {
        let control = ServerControl::new(2);
        let a = control.register(None).expect("slot 1");
        let b = control.register(None).expect("slot 2");
        assert!(control.register(None).is_none(), "third must be refused");
        assert_eq!(control.active_connections(), 2);
        drop(a);
        assert_eq!(control.active_connections(), 1);
        let c = control.register(None).expect("freed slot reusable");
        drop(b);
        drop(c);
        assert_eq!(control.active_connections(), 0);
    }

    #[test]
    fn unlimited_control_never_refuses_until_drain() {
        let control = ServerControl::unlimited();
        let guards: Vec<_> = (0..100)
            .map(|_| control.register(None).expect("unlimited"))
            .collect();
        assert_eq!(control.active_connections(), 100);
        control.begin_drain();
        assert!(control.is_draining());
        assert!(
            control.register(None).is_none(),
            "draining refuses new connections"
        );
        drop(guards);
        assert_eq!(control.active_connections(), 0);
    }

    #[test]
    fn begin_drain_is_idempotent() {
        let control = ServerControl::new(1);
        assert!(!control.is_draining());
        control.begin_drain();
        control.begin_drain();
        assert!(control.is_draining());
    }
}
