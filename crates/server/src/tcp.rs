//! TCP serving: a non-blocking listener in front of [`EngineServer`].
//!
//! There is no async runtime or epoll shim in this workspace, so the
//! network path is the same readiness-polling loop as loopback: the
//! listener is non-blocking, every accepted socket becomes a
//! [`TcpTransport`] attached to the engine server, and each
//! [`TcpServer::pump`] accepts pending connections and runs one batch
//! cycle.  One thread drives everything — sockets, admission, and the
//! engine — which keeps the command path deterministic relative to
//! batch boundaries even over real sockets.
//!
//! [`TcpServer::serve`] is the paper's AEU loop around that cycle: it
//! keeps pumping while there is traffic and for a short window after it
//! ([`IdleRule`]), and only then sleeps between pumps.

use crate::client::Client;
use crate::server::{EngineServer, PumpReport, ShutdownOutcome};
use crate::transport::TcpTransport;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What a serving loop does between two pumps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdleStep {
    /// Pump again at once (after yielding the core to whoever waits).
    Spin,
    /// Nothing has happened for a while: sleep this long first.
    Sleep(Duration),
}

/// The serving loop's idle rule: keep pumping while a frame or command
/// was seen within [`IdleRule::SPIN_WINDOW`], sleep
/// [`IdleRule::IDLE_SLEEP`] between pumps otherwise.  Pure over the
/// clock readings it is handed, so any serving loop (and a test on an
/// injected clock) can use it.
#[derive(Debug, Clone, Copy)]
pub struct IdleRule {
    last_activity_ns: u64,
}

impl IdleRule {
    /// How long after the last frame the loop keeps polling.  A request
    /// that arrives inside the window is picked up by the next pump
    /// (microseconds) instead of after a sleep; 1 ms covers every client
    /// that sends at 1 kHz or faster and bounds what a burst costs an
    /// otherwise idle server to 1 ms of one core (see DESIGN.md).
    pub const SPIN_WINDOW: Duration = Duration::from_millis(1);
    /// The sleep between pumps of an idle server: what a request pays at
    /// most when it arrives after a pause longer than the window.
    pub const IDLE_SLEEP: Duration = Duration::from_micros(200);

    /// A loop starting at `now_ns` (it polls for one window first).
    pub fn new(now_ns: u64) -> IdleRule {
        IdleRule {
            last_activity_ns: now_ns,
        }
    }

    /// The step after a pump that ended at `now_ns` and was `active` (saw
    /// a frame or a command) or not.
    pub fn after_pump(&mut self, now_ns: u64, active: bool) -> IdleStep {
        if active {
            self.last_activity_ns = now_ns;
        }
        let quiet_ns = now_ns.saturating_sub(self.last_activity_ns);
        if quiet_ns < Self::SPIN_WINDOW.as_nanos() as u64 {
            IdleStep::Spin
        } else {
            IdleStep::Sleep(Self::IDLE_SLEEP)
        }
    }
}

/// The listener is polled when this long has passed since the last poll —
/// every iteration of a sleeping loop, a small share of a busy one's
/// (an `accept()` that finds nothing is a ~2 us syscall).
const ACCEPT_INTERVAL_NS: u64 = 100_000;

/// A TCP front end around an [`EngineServer`].
pub struct TcpServer {
    listener: TcpListener,
    server: EngineServer,
}

impl TcpServer {
    /// Bind `addr` (use port 0 for an ephemeral port) in non-blocking
    /// mode and serve `server` behind it.
    pub fn bind(addr: SocketAddr, server: EngineServer) -> io::Result<TcpServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(TcpServer { listener, server })
    }

    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    pub fn server(&self) -> &EngineServer {
        &self.server
    }

    pub fn server_mut(&mut self) -> &mut EngineServer {
        &mut self.server
    }

    /// Accept every connection waiting on the listener; returns how
    /// many were attached.
    pub fn poll_accept(&mut self) -> usize {
        let mut accepted = 0;
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => match TcpTransport::new(stream) {
                    Ok(t) => {
                        self.server.attach(Box::new(t));
                        accepted += 1;
                    }
                    Err(_) => continue,
                },
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        accepted
    }

    /// One serving cycle: accept, then one engine-server batch cycle.
    pub fn pump(&mut self) -> PumpReport {
        self.poll_accept();
        self.server.pump()
    }

    /// Pump until `stop` is raised: back to back while traffic flows and
    /// for [`IdleRule::SPIN_WINDOW`] after it, with a short sleep between
    /// pumps once the server has been idle for longer, so an idle server
    /// does not spin a core.  Returns the shutdown outcome (drain, ledger
    /// proof, snapshot); its counters say how often the loop spun and
    /// slept.
    pub fn serve(mut self, stop: &Arc<AtomicBool>) -> ShutdownOutcome {
        let mut now = eris_obs::now_ns();
        let mut idle = IdleRule::new(now);
        let mut accept_due_ns = 0;
        while !stop.load(Ordering::Relaxed) {
            if now >= accept_due_ns {
                self.poll_accept();
                accept_due_ns = now + ACCEPT_INTERVAL_NS;
            }
            let r = self.server.pump();
            let active = r.frames > 0 || r.commands > 0;
            // One clock read per iteration: the listener check sees the
            // time before the sleep, and a sleep ago is still an interval
            // ago, so a sleeping loop polls it every time.
            now = eris_obs::now_ns();
            match idle.after_pump(now, active) {
                IdleStep::Spin => {
                    self.server.counters_mut().serve_spins += 1;
                    std::thread::yield_now();
                }
                IdleStep::Sleep(d) => {
                    self.server.counters_mut().serve_sleeps += 1;
                    std::thread::sleep(d);
                }
            }
        }
        self.server.shutdown()
    }

    /// Graceful stop without the serve loop.
    pub fn shutdown(self) -> ShutdownOutcome {
        self.server.shutdown()
    }
}

impl Client<TcpTransport> {
    /// Connect a client session over TCP.
    pub fn connect_tcp(addr: SocketAddr, tenant: u32) -> io::Result<Client<TcpTransport>> {
        Ok(Client::connect(TcpTransport::connect(addr)?, tenant))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const US: u64 = 1_000;

    #[test]
    fn traffic_within_the_window_keeps_the_loop_spinning() {
        let window = IdleRule::SPIN_WINDOW.as_nanos() as u64;
        let mut rule = IdleRule::new(0);
        // A fresh loop polls for one window before its first sleep.
        assert_eq!(rule.after_pump(window - 1, false), IdleStep::Spin);
        assert_eq!(
            rule.after_pump(window, false),
            IdleStep::Sleep(IdleRule::IDLE_SLEEP)
        );
        // One command every 100 us, ten empty pumps in between: no sleep.
        let mut now = 5 * window;
        for _ in 0..1_000 {
            assert_eq!(rule.after_pump(now, true), IdleStep::Spin);
            for i in 1..10 {
                assert_eq!(rule.after_pump(now + i * 10 * US, false), IdleStep::Spin);
            }
            now += 100 * US;
        }
        // Silence: spin out the window, then sleep until traffic returns.
        let last = now - 100 * US;
        assert_eq!(rule.after_pump(last + window - 1, false), IdleStep::Spin);
        for i in 0..250 {
            let at = last + window + i * 200 * US;
            assert_eq!(
                rule.after_pump(at, false),
                IdleStep::Sleep(IdleRule::IDLE_SLEEP)
            );
        }
        let back = last + 100 * window;
        assert_eq!(rule.after_pump(back, true), IdleStep::Spin);
        assert_eq!(rule.after_pump(back + window - 1, false), IdleStep::Spin);
    }
}
