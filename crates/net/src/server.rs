//! [`PlanServer`]: the planning service behind a hardened TCP front end.
//!
//! One event-loop thread owns the listener and every connection,
//! nonblocking throughout — accept, read, frame decode, write and the idle
//! reaper all run in a single readiness loop, so no peer can block another
//! by stalling. The loop sleeps in `poll(2)` until the listener, a
//! connection or the dispatchers' wake channel is ready, or the earliest
//! reaper / drain deadline passes, and then serves only what is ready: an
//! idle server makes no system calls at all. Decoded requests hand off
//! through a bounded [`AdmissionQueue`] to a small pool of dispatcher
//! threads; each dispatcher submits to the in-process [`PlanningService`],
//! waits on the ticket *with a timeout*, encodes the reply, posts it back
//! to the event loop and wakes it for writing. The dispatch queue is the
//! backpressure point: when it is full the event loop answers `Overloaded`
//! immediately instead of buffering without bound.
//!
//! Robustness decisions worth naming:
//!
//! * **Deadline anchoring.** The wire carries a relative `deadline_ms`
//!   budget (clients don't share our clock); the server anchors it at
//!   decode time. Everything after — dispatch queue wait, the planning
//!   service's own admission queue — counts against the budget, and the
//!   planning workers answer expired requests from the ladder's
//!   zero-evaluation rung.
//! * **Reply-ring idempotence.** The last [`NetConfig::reply_ring`]
//!   successfully encoded replies are kept by request id *and* content
//!   fingerprint. A client retry of an answered request — including on a
//!   *new* connection after the original died mid-reply — is served from
//!   the ring without re-planning, while an unrelated client that happens
//!   to reuse an id never sees another request's reply. Error replies are
//!   never cached: a retry after `WaitTimeout` deserves a fresh attempt.
//!   The ring shares each reply's encoded bytes with the connection write;
//!   nothing is copied per reply.
//! * **Graceful drain.** Shutdown stops accepting, answers `Draining` to
//!   new requests, lets in-flight work finish (bounded by
//!   [`NetConfig::drain_timeout`]) — past that bound queued work is
//!   discarded and a dispatcher still waiting on a ticket abandons it, so
//!   drain can never overrun its timeout by a ticket wait — flushes the
//!   cache-bank checkpoint so a restarted server plans warm, then closes
//!   every connection and joins the dispatchers.
//! * **The reaper spares working connections, not half-open ones.** Idle
//!   is "no in-flight request and no socket activity" for
//!   [`NetConfig::idle_timeout`]; a connection waiting on a slow plan is
//!   not idle, but one holding a half-received frame (slow loris, peer
//!   crash without FIN) or ignoring its replies *is* — it gets a
//!   best-effort [`ErrorCode::Torn`] frame if it left a partial frame
//!   behind, then the slot back.
//! * **Output is bounded too.** A peer that pipelines requests but never
//!   reads accumulates at most [`NetConfig::output_cap`] bytes of replies;
//!   past the cap the connection is shed
//!   (`raqo_net_shed_total{reason="slow_reader"}`) instead of growing the
//!   buffer without bound.

use crate::frame::{
    self, Decoded, ErrorCode, ErrorFrame, Frame, ReplyFrame, RequestFrame, FLAG_DEADLINE_EXPIRED,
    FLAG_SHED,
};
use crate::probes;
use raqo_core::service::{PlanRequest, PlanTicket, PlanningService, ServiceReply, WaitTimeout};
use raqo_sim::AdmissionQueue;
use raqo_telemetry::{Counter, Telemetry};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Wire front-end knobs. The event loop has no cadence to tune: it waits
/// on socket readiness and the reaper / drain deadlines below.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Live connections before accept-time shedding (`conn_cap`).
    pub max_connections: usize,
    /// Dispatcher threads bridging the event loop to the planning service.
    pub dispatchers: usize,
    /// Bounded dispatch handoff; full means `Overloaded` replies.
    pub dispatch_capacity: usize,
    /// Frame body cap; larger length prefixes are rejected unbuffered.
    pub max_body: usize,
    /// Cap on unflushed reply bytes buffered per connection. A peer that
    /// stops reading its socket is disconnected once its output backlog
    /// would pass this, rather than buffering without bound.
    pub output_cap: usize,
    /// Reap connections with no activity and no in-flight work after this.
    pub idle_timeout: Duration,
    /// Cap on waiting for a planning ticket before a `WaitTimeout` error
    /// frame — one wedged ticket must not hold a dispatcher forever. A
    /// shutdown past its drain ends the wait early and answers nothing.
    pub ticket_timeout: Duration,
    /// Recently answered request ids kept for retry dedup.
    pub reply_ring: usize,
    /// Bound on waiting for in-flight work during graceful drain.
    pub drain_timeout: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_connections: 64,
            dispatchers: 2,
            dispatch_capacity: 64,
            max_body: frame::DEFAULT_MAX_BODY,
            output_cap: 4 * frame::DEFAULT_MAX_BODY,
            idle_timeout: Duration::from_secs(30),
            ticket_timeout: Duration::from_secs(30),
            reply_ring: 128,
            drain_timeout: Duration::from_secs(5),
        }
    }
}

/// How often a dispatcher waiting on a ticket looks at `dispatch_stop`:
/// the most a shutdown past its drain can wait on an abandoned ticket.
const STOP_CHECK: Duration = Duration::from_millis(10);

/// A decoded request waiting for a dispatcher.
struct DispatchJob {
    conn_id: u64,
    request: RequestFrame,
    /// Content fingerprint, forwarded into the reply ring for dedup.
    fingerprint: u64,
    /// When the frame was decoded — the deadline anchor.
    decoded_at: Instant,
}

/// An encoded reply travelling back to the event loop.
struct Completion {
    conn_id: u64,
    request_id: u64,
    /// The request's content fingerprint, keyed into the reply ring.
    fingerprint: u64,
    /// Shared by the connection write and the reply ring.
    bytes: Arc<[u8]>,
    /// Only successful replies enter the dedup ring; errors (WaitTimeout)
    /// must not be replayed to a retry that deserves a fresh attempt.
    cacheable: bool,
}

struct NetShared {
    service: Arc<PlanningService>,
    telemetry: Telemetry,
    config: NetConfig,
    /// Graceful-drain request (set by shutdown/Drop).
    stop: AtomicBool,
    dispatch: Mutex<AdmissionQueue<DispatchJob>>,
    dispatch_ready: Condvar,
    /// Set by the event loop once drained; releases the dispatchers.
    dispatch_stop: AtomicBool,
    completions: Mutex<Vec<Completion>>,
    /// Requests handed to dispatch whose completions the event loop has
    /// not yet consumed — the drain barrier.
    in_flight: AtomicUsize,
    live_connections: AtomicUsize,
    /// Write end of the event loop's wake channel.
    wake_tx: UnixStream,
    /// True while a wake byte is in flight; coalesces a burst of wakes
    /// into one byte.
    wake_pending: AtomicBool,
}

impl NetShared {
    /// Wake the event loop out of `poll`. Call *after* publishing the
    /// state change (a completion, `stop`) the loop should see.
    fn wake(&self) {
        if !self.wake_pending.swap(true, Ordering::AcqRel) {
            // Nonblocking; at most a couple of bytes are ever unread, so
            // the write cannot find the buffer full.
            let _ = (&self.wake_tx).write(&[1]);
        }
    }
}

fn lock<'m, T>(m: &'m Mutex<T>) -> std::sync::MutexGuard<'m, T> {
    // A panic fault inside a dispatcher (chaos suite) may poison these;
    // the protected state is structurally valid after any single push/pop.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The wire front end. Dropping (or [`shutdown`](PlanServer::shutdown))
/// drains gracefully; the underlying [`PlanningService`] is shared and
/// survives the server.
pub struct PlanServer {
    shared: Arc<NetShared>,
    local_addr: SocketAddr,
    event: Option<std::thread::JoinHandle<()>>,
    dispatchers: Vec<std::thread::JoinHandle<()>>,
}

impl PlanServer {
    /// Bind `addr` and start serving `service`. Pass port 0 to let the OS
    /// pick; read the result back with [`local_addr`](Self::local_addr).
    pub fn bind(
        addr: impl ToSocketAddrs,
        config: NetConfig,
        service: Arc<PlanningService>,
        telemetry: Telemetry,
    ) -> std::io::Result<PlanServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        let classes = raqo_core::Priority::ALL.len();
        let shared = Arc::new(NetShared {
            service,
            telemetry,
            dispatch: Mutex::new(AdmissionQueue::bounded(
                classes,
                config.dispatch_capacity.max(1),
            )),
            dispatch_ready: Condvar::new(),
            dispatch_stop: AtomicBool::new(false),
            completions: Mutex::new(Vec::new()),
            in_flight: AtomicUsize::new(0),
            live_connections: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            wake_tx,
            wake_pending: AtomicBool::new(false),
            config,
        });
        let mut dispatchers = Vec::new();
        for _ in 0..shared.config.dispatchers.max(1) {
            let shared = Arc::clone(&shared);
            dispatchers.push(std::thread::spawn(move || dispatcher_loop(&shared)));
        }
        let event = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || event_loop(&shared, listener, wake_rx))
        };
        Ok(PlanServer { shared, local_addr, event: Some(event), dispatchers })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Connections currently held by the event loop.
    pub fn live_connections(&self) -> usize {
        self.shared.live_connections.load(Ordering::Relaxed)
    }

    /// Requests dispatched but not yet answered back to the event loop.
    pub fn in_flight(&self) -> usize {
        self.shared.in_flight.load(Ordering::Relaxed)
    }

    /// Graceful drain: stop accepting, answer `Draining`, finish in-flight
    /// work, flush the cache-bank checkpoint, close, join every thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        self.shared.wake();
        if let Some(event) = self.event.take() {
            let _ = event.join();
        }
        // The event loop sets dispatch_stop on its way out; belt and
        // braces in case it died by panic.
        self.shared.dispatch_stop.store(true, Ordering::Release);
        self.shared.dispatch_ready.notify_all();
        for handle in self.dispatchers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for PlanServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

// ---- poll(2) -----------------------------------------------------------

/// The crate's one foreign call: libc's `poll(2)`, which std already links.
mod sys {
    use std::os::raw::{c_int, c_short};
    use std::time::Duration;

    pub const POLLIN: c_short = 0x001;
    pub const POLLOUT: c_short = 0x004;

    /// `struct pollfd`.
    #[repr(C)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    #[cfg(target_os = "linux")]
    type Nfds = std::os::raw::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type Nfds = std::os::raw::c_uint;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
    }

    /// Block until an entry of `fds` is ready or `timeout` passes (`None`
    /// waits indefinitely), filling every `revents`. A signal interrupting
    /// the wait counts as a timeout.
    pub fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> std::io::Result<()> {
        // Round up: a deadline under a millisecond away must not become a
        // zero timeout that spins until it passes.
        let timeout_ms = timeout
            .map_or(-1, |t| t.as_micros().div_ceil(1000).min(c_int::MAX as u128) as c_int);
        // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
        // `struct pollfd` values and `nfds` is its exact length, so the
        // kernel reads and writes only inside it. A descriptor that is not
        // open is reported as POLLNVAL, not undefined behaviour.
        let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, timeout_ms) };
        if ready < 0 {
            let err = std::io::Error::last_os_error();
            if err.kind() != std::io::ErrorKind::Interrupted {
                return Err(err);
            }
            for fd in fds.iter_mut() {
                fd.revents = 0;
            }
        }
        Ok(())
    }
}

// ---- event loop --------------------------------------------------------

struct Conn {
    stream: TcpStream,
    read_buf: Vec<u8>,
    out: Vec<u8>,
    out_pos: usize,
    last_activity: Instant,
    in_flight: usize,
    close_after_flush: bool,
    /// The peer closed its write side: nothing more to read.
    eof: bool,
    /// Set when the output cap is blown: close now, no flush courtesy.
    kill: bool,
    /// What to serve this pass: the poll `revents`, plus `POLLOUT` when a
    /// reply was queued for it. Zero means the pass skips the connection.
    ready: i16,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            read_buf: Vec::new(),
            out: Vec::new(),
            out_pos: 0,
            last_activity: Instant::now(),
            in_flight: 0,
            close_after_flush: false,
            eof: false,
            kill: false,
            ready: 0,
        }
    }

    fn flushed(&self) -> bool {
        self.out_pos >= self.out.len()
    }

    /// Unflushed output bytes waiting on the peer to read.
    fn pending_out(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// Queue a frame for writing, bounded by `output_cap`: a peer that
    /// never drains its socket is marked for disconnect instead of growing
    /// the buffer without bound.
    fn push_frame(&mut self, bytes: &[u8], output_cap: usize, telemetry: &Telemetry) {
        if self.pending_out() + bytes.len() > output_cap {
            telemetry.inc(Counter::NetShedSlowReader);
            self.kill = true;
            return;
        }
        self.out.extend_from_slice(bytes);
        telemetry.inc(Counter::NetFramesOut);
    }

    /// What to wait for: input until EOF, writability while output is
    /// pending. Errors and hang-ups are always reported.
    fn poll_fd(&self) -> sys::PollFd {
        let mut events = 0;
        if !self.eof {
            events |= sys::POLLIN;
        }
        if !self.flushed() {
            events |= sys::POLLOUT;
        }
        sys::PollFd { fd: self.stream.as_raw_fd(), events, revents: 0 }
    }
}

/// What a service pass decided about one connection.
#[derive(PartialEq)]
enum Fate {
    Keep,
    Close,
}

/// Recently answered (request id, content fingerprint, encoded reply).
type ReplyRing = VecDeque<(u64, u64, Arc<[u8]>)>;

/// The next moment the loop must act without any fd becoming ready: the
/// earliest idle-reaper expiry among connections with nothing in flight,
/// or the drain deadline.
fn next_deadline(
    conns: &HashMap<u64, Conn>,
    cfg: &NetConfig,
    drain_started: Option<Instant>,
) -> Option<Instant> {
    let reap = conns
        .values()
        .filter(|c| c.in_flight == 0)
        .filter_map(|c| c.last_activity.checked_add(cfg.idle_timeout))
        .min();
    let drain = drain_started.and_then(|t| t.checked_add(cfg.drain_timeout));
    match (reap, drain) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

fn event_loop(shared: &NetShared, listener: TcpListener, wake_rx: UnixStream) {
    let cfg = &shared.config;
    let tel = &shared.telemetry;
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_id: u64 = 1;
    let mut reply_ring = ReplyRing::new();
    let mut drain_started: Option<Instant> = None;
    let mut draining = false;
    // Reused across passes: the poll set, the connection id behind each
    // of its connection entries, and the swapped-out completion batch.
    let mut fds: Vec<sys::PollFd> = Vec::new();
    let mut polled: Vec<u64> = Vec::new();
    let mut done: Vec<Completion> = Vec::new();

    loop {
        // -- wait --
        // Entry 0 is the wake channel, entry 1 the listener until the
        // drain starts, then one entry per connection.
        fds.clear();
        polled.clear();
        fds.push(sys::PollFd { fd: wake_rx.as_raw_fd(), events: sys::POLLIN, revents: 0 });
        let accepting = !draining;
        if accepting {
            fds.push(sys::PollFd { fd: listener.as_raw_fd(), events: sys::POLLIN, revents: 0 });
        }
        let first_conn = fds.len();
        for (&id, conn) in &conns {
            fds.push(conn.poll_fd());
            polled.push(id);
        }
        let timeout = next_deadline(&conns, cfg, drain_started)
            .map(|t| t.saturating_duration_since(Instant::now()));
        if sys::wait(&mut fds, timeout).is_err() {
            // Only a kernel out of memory fails poll here; serve every fd
            // as if ready (all nonblocking) rather than stall.
            for fd in fds.iter_mut() {
                fd.revents = fd.events;
            }
        }

        // -- wake protocol --
        // Drain the channel, then clear the flag, then read the state the
        // wakers published. A wake landing after the clear writes a fresh
        // byte, so the next poll returns at once; reading `stop` before
        // the clear could miss a shutdown whose wake byte this pass then
        // swallows, leaving teardown to wait on the next deadline.
        if fds[0].revents != 0 {
            let mut sink = [0u8; 64];
            let _ = (&wake_rx).read(&mut sink);
        }
        // Acquire pairs with the release half of `wake`'s swap: whatever a
        // waker published before finding the flag set is visible below.
        shared.wake_pending.swap(false, Ordering::AcqRel);
        draining = shared.stop.load(Ordering::Acquire);
        if draining && drain_started.is_none() {
            drain_started = Some(Instant::now());
        }

        // Accept until the backlog is empty (skipped once draining).
        if accepting && !draining && fds[1].revents != 0 {
            loop {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        if probes::probe("net.accept") == probes::Action::Fail {
                            // Injected accept failure: the connection dies
                            // before entering the loop, exactly like a peer
                            // resetting inside the handshake.
                            continue;
                        }
                        if conns.len() >= cfg.max_connections {
                            shed_at_accept(stream, tel);
                            continue;
                        }
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        let _ = stream.set_nodelay(true);
                        conns.insert(next_id, Conn::new(stream));
                        next_id += 1;
                        tel.inc(Counter::NetConnectionsOpened);
                        shared.live_connections.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }
        }
        for (i, id) in polled.iter().enumerate() {
            let revents = fds[first_conn + i].revents;
            if revents != 0 {
                if let Some(conn) = conns.get_mut(id) {
                    conn.ready |= revents;
                }
            }
        }

        // Route finished plans back to their connections.
        std::mem::swap(&mut done, &mut *lock(&shared.completions));
        for c in done.drain(..) {
            shared.in_flight.fetch_sub(1, Ordering::Relaxed);
            if c.cacheable {
                if reply_ring.len() >= cfg.reply_ring.max(1) {
                    reply_ring.pop_front();
                }
                reply_ring.push_back((c.request_id, c.fingerprint, Arc::clone(&c.bytes)));
            }
            if let Some(conn) = conns.get_mut(&c.conn_id) {
                conn.in_flight = conn.in_flight.saturating_sub(1);
                conn.push_frame(&c.bytes, cfg.output_cap, tel);
                // Try the write now rather than wait a poll for POLLOUT.
                conn.ready |= sys::POLLOUT;
            }
            // Connection gone: the ring above still serves a retry that
            // arrives on a replacement connection.
        }

        // Read, decode, dispatch and write for every ready connection.
        let mut to_close: Vec<u64> = Vec::new();
        for (&id, conn) in conns.iter_mut() {
            let ready = std::mem::take(&mut conn.ready);
            if ready != 0
                && service_conn(id, conn, ready, shared, &mut reply_ring, draining) == Fate::Close
            {
                to_close.push(id);
            }
        }

        // Idle reaper: inactivity with no in-flight work is enough — a
        // half-received frame (slow loris, peer crash without FIN) or a
        // backlog the peer refuses to read must not hold a connection slot
        // forever. Only a request actually being planned earns a stay.
        for (&id, conn) in conns.iter_mut() {
            if conn.in_flight == 0
                && conn.last_activity.elapsed() >= cfg.idle_timeout
                && !to_close.contains(&id)
            {
                if !conn.read_buf.is_empty() && conn.flushed() {
                    // The peer left a partial frame behind: tell it the
                    // stream is torn before taking the slot back. One
                    // best-effort nonblocking write — the peer is likely
                    // gone, and the event loop must not wait on it. (With
                    // a half-written reply still pending the frame would
                    // splice mid-stream, so only a flushed stream gets
                    // the courtesy.)
                    let torn = ErrorFrame {
                        request_id: 0,
                        code: ErrorCode::Torn,
                        message: "connection idle holding an incomplete frame".into(),
                    }
                    .encode();
                    if conn.stream.write(&torn).is_ok() {
                        tel.inc(Counter::NetFramesOut);
                    }
                }
                tel.inc(Counter::NetIdleReaped);
                to_close.push(id);
            }
        }

        for id in to_close {
            if conns.remove(&id).is_some() {
                tel.inc(Counter::NetConnectionsClosed);
                shared.live_connections.fetch_sub(1, Ordering::Relaxed);
            }
        }

        if draining {
            let quiesced = shared.in_flight.load(Ordering::Relaxed) == 0
                && conns.values().all(Conn::flushed);
            let expired =
                drain_started.map_or(false, |t| t.elapsed() >= cfg.drain_timeout);
            if quiesced || expired {
                break;
            }
        }
    }

    // Drained (or drain timed out): flush the shared cache bank so a
    // restarted server starts warm, close everything, release dispatchers.
    let svc_cfg = shared.service.config();
    let bank = shared.service.bank();
    if let Some(high_water) = svc_cfg.compact_high_water {
        bank.compact(high_water);
    }
    if let Some(path) = &svc_cfg.checkpoint_path {
        let _ = match svc_cfg.model_fingerprint {
            Some(fp) => bank.checkpoint_with_fingerprint(path, fp).map(|_| ()),
            None => bank.checkpoint(path).map(|_| ()),
        };
    }
    for _ in conns.drain() {
        tel.inc(Counter::NetConnectionsClosed);
        shared.live_connections.fetch_sub(1, Ordering::Relaxed);
    }
    shared.dispatch_stop.store(true, Ordering::Release);
    shared.dispatch_ready.notify_all();
}

/// Best-effort `Overloaded` reply to a connection shed at the cap: one
/// nonblocking write, then the socket drops. This runs on the event-loop
/// thread, so it must never wait on the peer — a freshly accepted socket
/// has an empty send buffer, so the single write virtually always lands.
fn shed_at_accept(mut stream: TcpStream, telemetry: &Telemetry) {
    telemetry.inc(Counter::NetShedConnCap);
    let bytes = ErrorFrame {
        request_id: 0,
        code: ErrorCode::Overloaded,
        message: "connection cap reached".into(),
    }
    .encode();
    if stream.set_nonblocking(true).is_ok() && stream.write(&bytes).is_ok() {
        telemetry.inc(Counter::NetFramesOut);
    }
}

/// Serve one ready connection: read and decode if the poll reported input
/// (or an error or hang-up), then flush output. Returns its fate.
fn service_conn(
    id: u64,
    conn: &mut Conn,
    ready: i16,
    shared: &NetShared,
    reply_ring: &mut ReplyRing,
    draining: bool,
) -> Fate {
    if ready & !sys::POLLOUT != 0 {
        if conn.eof {
            // Past EOF only an error or hang-up is reported: the peer is
            // gone both ways and nothing pending can reach it.
            return Fate::Close;
        }
        if read_and_decode(id, conn, shared, reply_ring, draining) == Fate::Close {
            return Fate::Close;
        }
    }
    flush(conn)
}

/// Drain readable bytes, decode frames and dispatch their requests.
fn read_and_decode(
    id: u64,
    conn: &mut Conn,
    shared: &NetShared,
    reply_ring: &mut ReplyRing,
    draining: bool,
) -> Fate {
    let tel = &shared.telemetry;

    // -- read --
    if probes::probe("net.read") == probes::Action::Fail {
        return Fate::Close; // injected reset
    }
    let mut chunk = [0u8; 4096];
    let mut saw_eof = false;
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                // Peer EOF: finish what's pending, then close.
                saw_eof = true;
                conn.eof = true;
                conn.close_after_flush = true;
                break;
            }
            Ok(n) => {
                conn.read_buf.extend_from_slice(&chunk[..n]);
                conn.last_activity = Instant::now();
                if n < chunk.len() {
                    // A short read emptied the socket; the level-triggered
                    // poll reports anything that arrives later.
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Fate::Close,
        }
    }

    // -- decode --
    if !conn.read_buf.is_empty() {
        match probes::probe("net.frame") {
            probes::Action::Fail => {
                // Torn frame: the tail of the buffered bytes vanishes, as
                // if the network cut mid-frame. The surviving prefix is
                // either complete frames (served) or an incomplete one the
                // loop waits on until EOF or the reaper answers
                // `ErrorCode::Torn` and closes.
                let keep = conn.read_buf.len() / 2;
                conn.read_buf.truncate(keep);
            }
            probes::Action::Nan => {
                // Garbage on the wire: one buffered byte flips.
                let mid = conn.read_buf.len() / 2;
                conn.read_buf[mid] ^= 0xA5;
            }
            probes::Action::Proceed => {}
        }
    }
    let mut consumed = 0usize;
    loop {
        match frame::decode(&conn.read_buf[consumed..], shared.config.max_body) {
            Decoded::Incomplete { .. } => break,
            Decoded::Corrupt(e) => {
                // Framing is lost: answer with the typed error, then close
                // once it flushes. Never silent, never a hang, never a
                // panic.
                tel.inc(Counter::NetFrameErrors);
                let bytes = ErrorFrame {
                    request_id: 0,
                    code: e.code(),
                    message: e.to_string(),
                }
                .encode();
                conn.push_frame(&bytes, shared.config.output_cap, tel);
                conn.close_after_flush = true;
                conn.read_buf.clear();
                consumed = 0;
                break;
            }
            Decoded::Frame(frame, n) => {
                consumed += n;
                tel.inc(Counter::NetFramesIn);
                match frame {
                    Frame::Request(req) => {
                        handle_request(id, conn, req, shared, reply_ring, draining)
                    }
                    Frame::Reply(_) | Frame::Error(_) => {
                        // Clients send requests; anything else means the
                        // peer is confused about who is who.
                        tel.inc(Counter::NetFrameErrors);
                        let bytes = ErrorFrame {
                            request_id: 0,
                            code: ErrorCode::BadBody,
                            message: "only request frames are accepted here".into(),
                        }
                        .encode();
                        conn.push_frame(&bytes, shared.config.output_cap, tel);
                        conn.close_after_flush = true;
                    }
                }
            }
        }
    }
    if consumed > 0 {
        conn.read_buf.drain(..consumed);
    }

    // Peer EOF with a partial frame still buffered: the stream tore
    // mid-frame and no more bytes are coming. Answer with the typed
    // `Torn` error before the close — never a silent drop.
    if saw_eof && !conn.read_buf.is_empty() {
        tel.inc(Counter::NetFrameErrors);
        let bytes = ErrorFrame {
            request_id: 0,
            code: ErrorCode::Torn,
            message: "stream ended mid-frame".into(),
        }
        .encode();
        conn.push_frame(&bytes, shared.config.output_cap, tel);
        conn.read_buf.clear();
    }
    Fate::Keep
}

/// Write pending output until done or the socket would block, then decide
/// whether the connection stays.
fn flush(conn: &mut Conn) -> Fate {
    if !conn.flushed() {
        if probes::probe("net.write") == probes::Action::Fail {
            return Fate::Close; // injected reset on the write side
        }
        loop {
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => return Fate::Close,
                Ok(n) => {
                    conn.out_pos += n;
                    conn.last_activity = Instant::now();
                    if conn.flushed() {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return Fate::Close,
            }
        }
        if conn.flushed() {
            conn.out.clear();
            conn.out_pos = 0;
        }
    }

    if conn.kill {
        // Output cap blown: the peer is not reading, so there is nothing
        // left to flush to it. Drop the connection now.
        return Fate::Close;
    }
    if conn.close_after_flush && conn.flushed() && conn.in_flight == 0 {
        return Fate::Close;
    }
    Fate::Keep
}

fn handle_request(
    conn_id: u64,
    conn: &mut Conn,
    req: RequestFrame,
    shared: &NetShared,
    reply_ring: &mut ReplyRing,
    draining: bool,
) {
    let tel = &shared.telemetry;
    if draining {
        let bytes = ErrorFrame {
            request_id: req.request_id,
            code: ErrorCode::Draining,
            message: "server is draining for shutdown".into(),
        }
        .encode();
        conn.push_frame(&bytes, shared.config.output_cap, tel);
        return;
    }
    // Retry dedup: a request we already answered is served from the ring —
    // no second planning run, same bytes, even across connections. The
    // content fingerprint keeps the match honest: an unrelated client
    // reusing the same id (every client counts from the same default
    // sequence) never receives another request's reply.
    let fingerprint = req.fingerprint();
    if let Some((.., bytes)) = reply_ring
        .iter()
        .find(|(rid, rfp, _)| *rid == req.request_id && *rfp == fingerprint)
    {
        tel.inc(Counter::NetRepliesDeduped);
        conn.push_frame(bytes, shared.config.output_cap, tel);
        return;
    }
    let class = req.priority as usize;
    let request_id = req.request_id;
    let job = DispatchJob { conn_id, request: req, fingerprint, decoded_at: Instant::now() };
    let pushed = lock(&shared.dispatch).try_push(class, job);
    match pushed {
        Ok(()) => {
            conn.in_flight += 1;
            shared.in_flight.fetch_add(1, Ordering::Relaxed);
            shared.dispatch_ready.notify_one();
        }
        Err(_rejected) => {
            // The bounded handoff is full: shed with a typed reply rather
            // than buffer without bound.
            tel.inc(Counter::NetShedOverloaded);
            let bytes = ErrorFrame {
                request_id,
                code: ErrorCode::Overloaded,
                message: "dispatch queue full".into(),
            }
            .encode();
            conn.push_frame(&bytes, shared.config.output_cap, tel);
        }
    }
}

// ---- dispatchers -------------------------------------------------------

fn dispatcher_loop(shared: &NetShared) {
    loop {
        let job = {
            let mut queue = lock(&shared.dispatch);
            loop {
                // Stop check first: once the drain (or its timeout) has
                // released the dispatchers, leftover queued jobs are
                // discarded, not planned — each could wait up to
                // `ticket_timeout`, and shutdown joins this thread, so
                // planning them would let shutdown overrun the
                // `drain_timeout` bound by queued_jobs × ticket_timeout.
                if shared.dispatch_stop.load(Ordering::Acquire) {
                    while queue.pop_next().is_some() {
                        shared.in_flight.fetch_sub(1, Ordering::Relaxed);
                    }
                    break None;
                }
                if let Some((_, job)) = queue.pop_next() {
                    break Some(job);
                }
                queue = shared
                    .dispatch_ready
                    .wait(queue)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        let Some(job) = job else { return };
        match run_job(shared, job) {
            Some(completion) => {
                lock(&shared.completions).push(completion);
                shared.wake();
            }
            // Abandoned at shutdown: the event loop is gone and so is the
            // connection the answer was for.
            None => {
                shared.in_flight.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }
}

/// Wait for a ticket's reply up to `ticket_timeout`, in `STOP_CHECK`
/// slices so a shutdown past its drain ends the wait instead of joining
/// on it. `None` is an abandoned wait; a zero `ticket_timeout` always
/// times out.
fn wait_ticket(
    shared: &NetShared,
    ticket: &PlanTicket,
) -> Option<Result<ServiceReply, WaitTimeout>> {
    let deadline = Instant::now().checked_add(shared.config.ticket_timeout);
    loop {
        let left =
            deadline.map_or(Duration::MAX, |d| d.saturating_duration_since(Instant::now()));
        if left.is_zero() {
            return Some(Err(WaitTimeout));
        }
        if let Some(reply) = ticket.wait_for(left.min(STOP_CHECK)) {
            return Some(Ok(reply));
        }
        if shared.dispatch_stop.load(Ordering::Acquire) {
            return None;
        }
    }
}

/// Plan one request through the in-process service and encode the answer;
/// `None` when shutdown abandoned the wait.
fn run_job(shared: &NetShared, job: DispatchJob) -> Option<Completion> {
    let req = &job.request;
    let mut request =
        PlanRequest::new(req.query.clone(), req.priority).with_namespace(req.namespace);
    if req.deadline_ms > 0 {
        // Anchor at decode time: dispatch-queue wait has already been
        // spent, and the planning service charges its own queue wait too.
        request = request.with_deadline_at(
            job.decoded_at + Duration::from_millis(u64::from(req.deadline_ms)),
        );
    }
    let ticket = shared.service.submit(request);
    match wait_ticket(shared, &ticket)? {
        Ok(reply) => {
            if reply.deadline_expired {
                shared.telemetry.inc(Counter::NetShedDeadline);
            }
            let mut flags = 0u8;
            if reply.shed {
                flags |= FLAG_SHED;
            }
            if reply.deadline_expired {
                flags |= FLAG_DEADLINE_EXPIRED;
            }
            let plan_json =
                serde_json::to_string(&reply.plan).unwrap_or_else(|_| "null".to_string());
            let bytes = ReplyFrame {
                request_id: req.request_id,
                trace_id: reply.trace_id,
                flags,
                queue_wait_us: reply.queue_wait_us,
                service_us: reply.service_us,
                plan_json,
            }
            .encode();
            Some(Completion {
                conn_id: job.conn_id,
                request_id: req.request_id,
                fingerprint: job.fingerprint,
                bytes: bytes.into(),
                cacheable: true,
            })
        }
        Err(_timeout) => {
            let bytes = ErrorFrame {
                request_id: req.request_id,
                code: ErrorCode::WaitTimeout,
                message: format!(
                    "planning did not finish within {:?}",
                    shared.config.ticket_timeout
                ),
            }
            .encode();
            Some(Completion {
                conn_id: job.conn_id,
                request_id: req.request_id,
                fingerprint: job.fingerprint,
                bytes: bytes.into(),
                cacheable: false,
            })
        }
    }
}
