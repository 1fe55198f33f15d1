//! The server half: a thread-per-connection TCP front end exposing a
//! [`StreamService`] over the wire protocol in [`crate::protocol`].
//!
//! The server owns an *attach-first* service (started empty) and a
//! catalog of prepared, compiled queries; remote clients attach catalog
//! entries by name, subscribe to their per-key output streams, push
//! event batches with credit-based backpressure, and scrape stats /
//! metrics / the control-plane journal. One accept-loop thread hands
//! each connection to its own handler thread; per-connection writes are
//! serialized behind a mutex so shard threads (fanning output out to
//! subscribers) and the handler (sending replies) never interleave
//! frames.
//!
//! # Backpressure
//!
//! Every [`Message::Ingest`] is answered with exactly one
//! [`Message::Credit`] (no shard queue was full) or [`Message::Busy`]
//! (at least one enqueue had to block until a shard caught up — the
//! batch *was* applied, but the producer should slow down; the server
//! also shrinks the replenished grant). `tilt_server_credit_stalls_total`
//! counts Busy replies.
//!
//! # Hostile clients
//!
//! A malformed frame (unknown tag, truncation, oversize header, bad
//! UTF-8, empty event interval, …) is counted in
//! `tilt_server_decode_errors_total`, answered with a best-effort
//! [`Message::Error`], and the connection is closed. Decoding is total —
//! see [`crate::protocol`] — so no byte sequence a client sends can
//! panic a shard or the handler.

use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

use tilt_core::CompiledQuery;
use tilt_data::Time;
use tilt_obs::{Counter, Gauge};
use tilt_runtime::{
    ControlEvent, KeyedEvent, QueryHandle, QuerySettings, RuntimeConfig, RuntimeStats,
    ServiceError, StreamService,
};

use crate::protocol::{
    fitting_frame, read_message, try_encode_frame, ErrorCode, Message, RecvError, TextKind,
    WireError, MAX_FRAME_LEN, MIN_EVENT_LEN, PROTOCOL_VERSION,
};

/// Events a client may put in one [`Message::Ingest`] frame on the happy
/// path.
pub const INITIAL_CREDIT: u32 = 4096;

/// The reduced grant replenished by a [`Message::Busy`] reply — the
/// wire-level analogue of a congestion window shrinking.
pub const BUSY_CREDIT: u32 = 256;

/// How long a subscriber's socket may stall an output write before the
/// server declares the connection dead and drops it. Bounds how long a
/// slow consumer can block a shard thread.
const WRITE_STALL_LIMIT: Duration = Duration::from_secs(5);

/// Knobs for the connection supervisor and subscriber-resume machinery,
/// on top of the runtime configuration the service itself is started
/// with. [`Server::start`] uses [`ServerConfig::default`] for everything
/// but the runtime; [`Server::start_with`] takes the full set.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// The runtime configuration for the owned [`StreamService`].
    pub runtime: RuntimeConfig,
    /// Disconnect a peer whose socket stays silent this long between
    /// frames (`None` = wait forever). Counted in
    /// `tilt_server_idle_disconnects_total`.
    pub idle_timeout: Option<Duration>,
    /// How many *recoverable* malformed frames (frame fully read, payload
    /// failed to decode) one connection may send before it is dropped.
    /// Desynchronizing errors (oversize headers, torn frames) always
    /// close immediately. Exhaustion is counted in
    /// `tilt_server_budget_disconnects_total`.
    pub decode_error_budget: u32,
    /// Output frames retained per query for [`Message::Resume`] replay.
    /// A reconnecting subscriber further behind than this earns
    /// [`ErrorCode::ResumeGap`]. Evictions are counted in
    /// `tilt_server_replay_ring_evictions_total`.
    pub replay_ring_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            runtime: RuntimeConfig::default(),
            idle_timeout: None,
            decode_error_budget: 3,
            replay_ring_capacity: 1024,
        }
    }
}

/// Declares the server's own accounting once per counter: the handle
/// (named as it appears in a `StatsReply`), its kind, and its metric
/// name. Registration, re-homing and the wire fields all follow the rows.
macro_rules! net_stats {
    ($( $field:ident: $kind:ident = $register:ident($metric:literal), )*) => {
        /// Server-side connection/byte/credit accounting, registered in
        /// the *service's* metrics registry so one scrape covers both
        /// layers. Shared as one `Arc<NetStats>` ([`Inner::net`]).
        struct NetStats {
            $( $field: Arc<$kind>, )*
        }

        impl NetStats {
            fn new(registry: &tilt_obs::Registry) -> NetStats {
                NetStats { $( $field: registry.$register($metric), )* }
            }

            /// Re-homes the accounting into `registry` (a restored
            /// service's), carrying the current values over so the scrape
            /// stays continuous.
            fn rehome(&self, registry: &tilt_obs::Registry) -> NetStats {
                let next = NetStats::new(registry);
                $( next.$field.add(self.$field.get()); )*
                next
            }

            fn fields(&self) -> impl Iterator<Item = (&'static str, i64)> {
                [ $( (stringify!($field), self.$field.get() as i64), )* ].into_iter()
            }
        }
    };
}

net_stats! {
    conns_open: Gauge = gauge("tilt_server_conns_open"),
    conns_total: Counter = counter("tilt_server_conns_total"),
    bytes_in: Counter = counter("tilt_server_bytes_in_total"),
    bytes_out: Counter = counter("tilt_server_bytes_out_total"),
    frames_in: Counter = counter("tilt_server_frames_in_total"),
    frames_out: Counter = counter("tilt_server_frames_out_total"),
    credit_stalls: Counter = counter("tilt_server_credit_stalls_total"),
    decode_errors: Counter = counter("tilt_server_decode_errors_total"),
    resume_replays: Counter = counter("tilt_server_resume_replays_total"),
    resume_gaps: Counter = counter("tilt_server_resume_gaps_total"),
    ring_evictions: Counter = counter("tilt_server_replay_ring_evictions_total"),
    idle_disconnects: Counter = counter("tilt_server_idle_disconnects_total"),
    budget_disconnects: Counter = counter("tilt_server_budget_disconnects_total"),
}

/// One connection's write half, shared between its handler thread and
/// the shard threads fanning subscribed output to it.
struct ConnShared {
    id: u64,
    writer: Mutex<TcpStream>,
    alive: AtomicBool,
}

impl ConnShared {
    /// Sends one message as one frame; see [`ConnShared::send_frame`]. A
    /// message too large to frame also ends the connection: the peer is
    /// waiting for a reply that cannot be delivered.
    fn send(&self, msg: &Message, net: &NetStats) -> bool {
        match try_encode_frame(msg) {
            Ok(frame) => self.send_frame(&frame, net),
            Err(_) => {
                self.close(&self.writer.lock().expect("conn writer lock"));
                false
            }
        }
    }

    /// Sends one encoded frame atomically (whole frames never
    /// interleave). Returns `false` — and marks the connection dead — if
    /// the write fails or stalls past [`WRITE_STALL_LIMIT`].
    fn send_frame(&self, frame: &[u8], net: &NetStats) -> bool {
        if !self.alive.load(Ordering::Acquire) {
            return false;
        }
        let mut w = self.writer.lock().expect("conn writer lock");
        tilt_fault::fail_point!("server.conn.write", {
            self.close(&w);
            return false;
        });
        match w.write_all(frame).and_then(|_| w.flush()) {
            Ok(()) => {
                net.bytes_out.add(frame.len() as u64);
                net.frames_out.inc();
                true
            }
            Err(_) => {
                self.close(&w);
                false
            }
        }
    }

    fn close(&self, writer: &TcpStream) {
        self.alive.store(false, Ordering::Release);
        let _ = writer.shutdown(Shutdown::Both);
    }
}

/// Per-query delivery state shared by the fan-out sink, the subscribe /
/// resume handlers, and connection teardown. One lock covers sequence
/// assignment, the replay ring, and the subscriber list, so every
/// subscriber observes the frame sequence gap-free and in order.
#[derive(Default)]
struct SubState {
    /// The sequence number the next output frame will carry.
    next_seq: u64,
    /// The most recent encoded [`Message::OutputSeq`] frames, oldest
    /// first, each with its sequence number.
    ring: VecDeque<(u64, Vec<u8>)>,
    /// Connections currently receiving this query's output.
    conns: Vec<Arc<ConnShared>>,
}

/// The service slot: running until the first successful
/// [`Message::Shutdown`], then a frozen snapshot so scrapes keep
/// answering.
// One instance per server, so the variant size asymmetry is harmless.
#[allow(clippy::large_enum_variant)]
enum Slot {
    Running(StreamService),
    Finished(Box<FinalState>),
    // Transient state while a shutdown drains the service.
    Draining,
}

/// What scrapes serve after the service has been drained.
struct FinalState {
    stats: RuntimeStats,
    metrics_text: String,
    journal_text: String,
}

struct Inner {
    slot: RwLock<Slot>,
    catalog: Vec<(String, Arc<CompiledQuery>)>,
    /// Wire query id (== [`QueryHandle::index`]) → handle.
    handles: Mutex<HashMap<u32, QueryHandle>>,
    /// Wire query id → that query's delivery state. An entry appears on
    /// the first subscribe, outlives every individual subscriber (the
    /// ring keeps recording so a reconnect can resume), and is removed
    /// when the query ends (Eos).
    subs: Mutex<HashMap<u32, Arc<Mutex<SubState>>>>,
    /// Behind a lock so a restore can re-home the counters into the
    /// replacement service's registry ([`NetStats::rehome`]).
    net: RwLock<Arc<NetStats>>,
    running: AtomicBool,
    idle_timeout: Option<Duration>,
    decode_error_budget: u32,
    replay_ring_capacity: usize,
}

impl Inner {
    /// A shared handle on the current accounting: one reference-count
    /// bump, whatever the number of counters. Hot paths (the fan-out sink
    /// runs once per key per window close on a shard thread) take it once
    /// per call, not once per counter touched.
    fn net(&self) -> Arc<NetStats> {
        Arc::clone(&self.net.read().expect("net lock"))
    }

    /// The delivery state for `query`, created on first use.
    fn substate(&self, query: u32) -> Arc<Mutex<SubState>> {
        Arc::clone(self.subs.lock().expect("subs lock").entry(query).or_default())
    }

    /// The fan-out sink for `query`: encodes each sink call once, as
    /// consecutive frames that each fit the frame cap, gives every frame
    /// the next sequence number, sends it to every live subscriber and
    /// records it in the replay ring — all under the query's delivery
    /// lock, so the sequence each connection observes is gap-free and
    /// monotone. Records even with zero subscribers, so a resume after a
    /// full disconnect still replays the missed suffix.
    fn fanout_sink(self: &Arc<Self>, query: u32) -> tilt_runtime::OutputSink {
        let inner = Arc::clone(self);
        let sub = self.substate(query);
        Arc::new(move |key, events| {
            let net = inner.net();
            let mut st = sub.lock().expect("substate lock");
            let mut rest = events;
            while !rest.is_empty() {
                let seq = st.next_seq;
                // No frame holds more events than this; encoding more only
                // to find that out would make a huge release quadratic.
                let most = MAX_FRAME_LEN as usize / MIN_EVENT_LEN;
                let framed = fitting_frame(rest, most, |events| Message::OutputSeq {
                    query,
                    seq,
                    key,
                    events: events.to_vec(),
                });
                let Ok((frame, taken)) = framed else {
                    // One event larger than a whole frame has no wire
                    // representation; the stream continues without it.
                    rest = &rest[1..];
                    continue;
                };
                rest = &rest[taken..];
                for conn in &st.conns {
                    conn.send_frame(&frame, &net);
                }
                st.next_seq += 1;
                st.ring.push_back((seq, frame));
                if st.ring.len() > inner.replay_ring_capacity {
                    st.ring.pop_front();
                    net.ring_evictions.inc();
                }
            }
        })
    }

    /// Sends `Eos` to every subscriber of `query` and retires its
    /// delivery state (the stream is over; there is nothing to resume).
    fn finish_subscribers(&self, query: u32) {
        let sub = self.subs.lock().expect("subs lock").remove(&query);
        if let Some(sub) = sub {
            let st = sub.lock().expect("substate lock");
            let net = self.net();
            for conn in &st.conns {
                conn.send(&Message::Eos { query }, &net);
            }
        }
    }

    /// Stats counters as wire fields: every scalar of the service's
    /// [`RuntimeStats`] plus the server's own accounting.
    fn stats_fields(&self, stats: &RuntimeStats) -> Vec<(String, i64)> {
        stats.fields().chain(self.net().fields()).map(|(name, v)| (name.to_owned(), v)).collect()
    }

    /// Runs `f` on the running service and the handle of attached query
    /// `query`; otherwise the error reply saying which of the two is
    /// missing.
    fn with_query<T>(
        &self,
        query: u32,
        f: impl FnOnce(&StreamService, QueryHandle) -> Result<T, Message>,
    ) -> Result<T, Message> {
        let handle = self.handles.lock().expect("handles lock").get(&query).copied();
        match (handle, &*self.slot.read().expect("slot lock")) {
            (None, _) => Err(Message::Error {
                code: ErrorCode::UnknownQuery,
                message: format!("no attached query {query}"),
            }),
            (Some(handle), Slot::Running(svc)) => f(svc, handle),
            (Some(_), _) => Err(shut_down()),
        }
    }
}

fn shut_down() -> Message {
    Message::Error { code: ErrorCode::ShuttingDown, message: "service has shut down".into() }
}

fn service_error(e: ServiceError) -> Message {
    let code = match &e {
        ServiceError::Compile(_) => ErrorCode::Conflict,
        ServiceError::UnknownQuery(_) => ErrorCode::UnknownQuery,
        ServiceError::Detached(_) => ErrorCode::Detached,
        ServiceError::Durability(_) => ErrorCode::Internal,
    };
    Message::Error { code, message: e.to_string() }
}

/// A running TCP front end over one [`StreamService`].
///
/// ```no_run
/// use std::sync::Arc;
/// use tilt_runtime::RuntimeConfig;
/// use tilt_server::Server;
///
/// # fn catalog() -> Vec<(String, Arc<tilt_core::CompiledQuery>)> { vec![] }
/// let server = Server::start(RuntimeConfig::default(), catalog()).unwrap();
/// println!("serving on {}", server.addr());
/// // … clients connect, attach, subscribe, ingest, shut down …
/// server.stop();
/// ```
pub struct Server {
    inner: Arc<Inner>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
    conns: Arc<Mutex<Vec<Arc<ConnShared>>>>,
}

impl Server {
    /// Starts an empty attach-first service and serves it on an
    /// ephemeral loopback port. `catalog` maps attachable names to
    /// prepared queries. Supervisor knobs take their defaults; use
    /// [`Server::start_with`] to set them.
    pub fn start(
        config: RuntimeConfig,
        catalog: Vec<(String, Arc<CompiledQuery>)>,
    ) -> std::io::Result<Server> {
        Server::start_with(ServerConfig { runtime: config, ..ServerConfig::default() }, catalog)
    }

    /// Like [`Server::start`], with explicit supervisor configuration.
    pub fn start_with(
        config: ServerConfig,
        catalog: Vec<(String, Arc<CompiledQuery>)>,
    ) -> std::io::Result<Server> {
        Server::bind_with("127.0.0.1:0", config, catalog)
    }

    /// Like [`Server::start`], on an explicit bind address.
    pub fn bind(
        addr: &str,
        config: RuntimeConfig,
        catalog: Vec<(String, Arc<CompiledQuery>)>,
    ) -> std::io::Result<Server> {
        Server::bind_with(
            addr,
            ServerConfig { runtime: config, ..ServerConfig::default() },
            catalog,
        )
    }

    /// Like [`Server::start_with`], on an explicit bind address.
    pub fn bind_with(
        addr: &str,
        config: ServerConfig,
        catalog: Vec<(String, Arc<CompiledQuery>)>,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let service = StreamService::start(config.runtime);
        let net = NetStats::new(&service.registry());
        let inner = Arc::new(Inner {
            slot: RwLock::new(Slot::Running(service)),
            catalog,
            handles: Mutex::new(HashMap::new()),
            subs: Mutex::new(HashMap::new()),
            net: RwLock::new(Arc::new(net)),
            running: AtomicBool::new(true),
            idle_timeout: config.idle_timeout,
            decode_error_budget: config.decode_error_budget,
            replay_ring_capacity: config.replay_ring_capacity,
        });
        let conn_threads = Arc::new(Mutex::new(Vec::new()));
        let conns = Arc::new(Mutex::new(Vec::<Arc<ConnShared>>::new()));
        let accept = {
            let inner = Arc::clone(&inner);
            let conn_threads = Arc::clone(&conn_threads);
            let conns = Arc::clone(&conns);
            let next_id = AtomicU64::new(0);
            std::thread::Builder::new().name("tilt-server-accept".into()).spawn(move || {
                while inner.running.load(Ordering::Acquire) {
                    let stream = match listener.accept() {
                        Ok((s, _)) => s,
                        Err(_) => continue,
                    };
                    if !inner.running.load(Ordering::Acquire) {
                        break;
                    }
                    let id = next_id.fetch_add(1, Ordering::Relaxed);
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_write_timeout(Some(WRITE_STALL_LIMIT));
                    if let Some(limit) = inner.idle_timeout {
                        let _ = stream.set_read_timeout(Some(limit));
                    }
                    let writer = match stream.try_clone() {
                        Ok(w) => w,
                        Err(_) => continue,
                    };
                    let conn = Arc::new(ConnShared {
                        id,
                        writer: Mutex::new(writer),
                        alive: AtomicBool::new(true),
                    });
                    conns.lock().expect("conns lock").push(Arc::clone(&conn));
                    inner.net().conns_total.inc();
                    inner.net().conns_open.add(1);
                    if let Slot::Running(svc) = &*inner.slot.read().expect("slot lock") {
                        svc.record_control(ControlEvent::Connect { conn: id });
                    }
                    let inner2 = Arc::clone(&inner);
                    let handle = std::thread::Builder::new()
                        .name(format!("tilt-server-conn-{id}"))
                        .spawn(move || handle_conn(inner2, conn, stream))
                        .expect("spawn connection handler");
                    conn_threads.lock().expect("threads lock").push(handle);
                }
            })?
        };
        Ok(Server { inner, addr, accept: Some(accept), conn_threads, conns })
    }

    /// The address the server is listening on (ephemeral port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, closes every connection, joins every thread, and
    /// — if no client issued [`Message::Shutdown`] — drains the service.
    pub fn stop(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        if !self.inner.running.swap(false, Ordering::AcqRel) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for conn in self.conns.lock().expect("conns lock").drain(..) {
            conn.alive.store(false, Ordering::Release);
            let _ = conn.writer.lock().expect("conn writer lock").shutdown(Shutdown::Both);
        }
        let threads: Vec<_> = self.conn_threads.lock().expect("threads lock").drain(..).collect();
        for h in threads {
            let _ = h.join();
        }
        // Drain the service if it is still running so shard threads join.
        let mut slot = self.inner.slot.write().expect("slot lock");
        if matches!(&*slot, Slot::Running(_)) {
            if let Slot::Running(svc) = std::mem::replace(&mut *slot, Slot::Draining) {
                let out = svc.finish();
                *slot = Slot::Finished(Box::new(FinalState {
                    stats: out.stats,
                    metrics_text: out.metrics.to_prometheus(),
                    journal_text: out.journal.to_text(),
                }));
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

/// Reads one frame, applying the `server.frame.decode` failpoint (an
/// injected failure lands exactly like a malformed-but-fully-read frame,
/// which is the recoverable kind the error budget covers).
fn read_frame(r: &mut impl std::io::Read) -> Result<(Message, usize), RecvError> {
    let got = read_message(r)?;
    tilt_fault::fail_point!("server.frame.decode", {
        return Err(RecvError::Decode(WireError::BadTag { what: "message (injected)", tag: 0xFF }));
    });
    Ok(got)
}

/// Runs one connection: handshake, then request/reply until the peer
/// closes, errs, idles out, or exhausts its decode-error budget.
fn handle_conn(inner: Arc<Inner>, conn: Arc<ConnShared>, stream: TcpStream) {
    let mut reader = BufReader::new(stream);
    let mut greeted = false;
    let mut decode_errors = 0u32;
    loop {
        let msg = match read_frame(&mut reader) {
            Ok((msg, n)) => {
                inner.net().bytes_in.add(n as u64);
                inner.net().frames_in.inc();
                msg
            }
            Err(RecvError::Closed) => break,
            Err(RecvError::Io(e)) => {
                if inner.idle_timeout.is_some()
                    && matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    )
                {
                    inner.net().idle_disconnects.inc();
                }
                break;
            }
            Err(RecvError::Decode(e)) => {
                inner.net().decode_errors.inc();
                conn.send(
                    &Message::Error { code: ErrorCode::Protocol, message: e.to_string() },
                    &inner.net(),
                );
                // An oversize header leaves the unread payload in the
                // stream — unrecoverable desync. Anything else was a
                // fully read frame; tolerate it within the budget.
                decode_errors += 1;
                if matches!(e, WireError::Oversize(_)) {
                    break;
                }
                if decode_errors > inner.decode_error_budget {
                    inner.net().budget_disconnects.inc();
                    break;
                }
                continue;
            }
        };
        if !greeted {
            match msg {
                Message::Hello { version: PROTOCOL_VERSION } => {
                    greeted = true;
                    conn.send(
                        &Message::HelloAck { version: PROTOCOL_VERSION, credit: INITIAL_CREDIT },
                        &inner.net(),
                    );
                    continue;
                }
                Message::Hello { version } => {
                    conn.send(
                        &Message::Error {
                            code: ErrorCode::Version,
                            message: format!(
                                "server speaks version {PROTOCOL_VERSION}, client sent {version}"
                            ),
                        },
                        &inner.net(),
                    );
                    break;
                }
                _ => {
                    conn.send(
                        &Message::Error {
                            code: ErrorCode::Protocol,
                            message: "first frame must be Hello".into(),
                        },
                        &inner.net(),
                    );
                    break;
                }
            }
        }
        if !handle_request(&inner, &conn, msg) {
            break;
        }
    }
    // Cleanup: leave every subscription (the delivery state itself
    // stays — its ring keeps recording so the peer can resume) and
    // close the books.
    {
        let states: Vec<Arc<Mutex<SubState>>> =
            inner.subs.lock().expect("subs lock").values().cloned().collect();
        for sub in states {
            sub.lock().expect("substate lock").conns.retain(|c| c.id != conn.id);
        }
    }
    conn.alive.store(false, Ordering::Release);
    let _ = conn.writer.lock().expect("conn writer lock").shutdown(Shutdown::Both);
    inner.net().conns_open.sub(1);
    if let Slot::Running(svc) = &*inner.slot.read().expect("slot lock") {
        svc.record_control(ControlEvent::Disconnect { conn: conn.id });
    }
}

/// Replaces a *fresh* running service with one rebuilt from the snapshot
/// at `path`, resolving `names` against the catalog for the recorded
/// query roster. The server must be pristine — no attached queries, no
/// ingested events — so a restore never destroys live state; a busy
/// server answers [`ErrorCode::Conflict`].
fn restore_service(inner: &Arc<Inner>, path: &str, names: &[String]) -> Message {
    let mut roster = Vec::with_capacity(names.len());
    for name in names {
        match inner.catalog.iter().find(|(n, _)| n == name) {
            Some((_, cq)) => roster.push(Arc::clone(cq)),
            None => {
                return Message::Error {
                    code: ErrorCode::UnknownName,
                    message: format!("no catalog query named {name:?}"),
                };
            }
        }
    }
    let mut slot = inner.slot.write().expect("slot lock");
    match &*slot {
        Slot::Running(svc) => {
            let stats = svc.stats();
            let pristine =
                stats.events_in == 0 && inner.handles.lock().expect("handles lock").is_empty();
            if !pristine {
                return Message::Error {
                    code: ErrorCode::Conflict,
                    message: "restore requires a fresh service \
                              (no attached queries, no ingested events)"
                        .into(),
                };
            }
        }
        _ => {
            return shut_down();
        }
    }
    let restored = match StreamService::restore(std::path::Path::new(path), &roster) {
        Ok(svc) => svc,
        Err(e) => return Message::Error { code: ErrorCode::Internal, message: e.to_string() },
    };
    *inner.net.write().expect("net lock") = Arc::new(inner.net().rehome(&restored.registry()));
    let queries: Vec<(u32, i64)> = restored
        .query_handles()
        .into_iter()
        .map(|h| (h.index() as u32, h.frontier().ticks()))
        .collect();
    {
        let mut handles = inner.handles.lock().expect("handles lock");
        for h in restored.query_handles() {
            handles.insert(h.index() as u32, h);
        }
    }
    // The replaced service is pristine: drain it so its shard threads
    // join, and discard the (empty) output.
    if let Slot::Running(old) = std::mem::replace(&mut *slot, Slot::Running(restored)) {
        let _ = old.finish();
    }
    Message::Restored { queries }
}

/// Adds `conn` to the subscribers of `query`: at the live edge for a
/// [`Message::Subscribe`], or — for a [`Message::Resume`] — after
/// replaying every retained frame from `resume_at` on. The reply, the
/// replay and the join all happen under the query's delivery lock, so
/// the replayed suffix and the live frames after it are contiguous, each
/// sequence number exactly once. Returns `false` to close the connection.
fn join_stream(
    inner: &Arc<Inner>,
    conn: &Arc<ConnShared>,
    query: u32,
    resume_at: Option<u64>,
) -> bool {
    let joined = inner.with_query(query, |svc, handle| {
        // (Re-)install the fan-out sink — idempotent, and necessary when
        // a resuming client is the query's only subscriber and the sink
        // was never installed on this service instance.
        svc.subscribe(handle, inner.fanout_sink(query)).map_err(service_error)?;
        let net = inner.net();
        let sub = inner.substate(query);
        let mut st = sub.lock().expect("substate lock");
        let reply = match resume_at {
            None => Message::Ok,
            Some(next_seq) if next_seq > st.next_seq => {
                return Err(Message::Error {
                    code: ErrorCode::Protocol,
                    message: format!(
                        "resume seq {next_seq} is ahead of the stream \
                         (next unassigned seq is {})",
                        st.next_seq
                    ),
                });
            }
            Some(next_seq) if next_seq < st.next_seq - st.ring.len() as u64 => {
                net.resume_gaps.inc();
                return Err(Message::Error {
                    code: ErrorCode::ResumeGap,
                    message: format!(
                        "replay ring retains seqs {}..{}, seq {next_seq} was evicted",
                        st.next_seq - st.ring.len() as u64,
                        st.next_seq
                    ),
                });
            }
            Some(next_seq) => Message::Resumed { query, replayed: st.next_seq - next_seq },
        };
        let alive = conn.send(&reply, &net);
        if let Some(next_seq) = resume_at {
            for (_, frame) in st.ring.iter().filter(|(seq, _)| *seq >= next_seq) {
                conn.send_frame(frame, &net);
            }
            net.resume_replays.add(st.next_seq - next_seq);
        }
        if !st.conns.iter().any(|c| c.id == conn.id) {
            st.conns.push(Arc::clone(conn));
        }
        svc.record_control(ControlEvent::Subscribe { conn: conn.id, query: query as usize });
        Ok(alive)
    });
    joined.unwrap_or_else(|reply| conn.send(&reply, &inner.net()))
}

/// Handles one post-handshake request. Returns `false` to close the
/// connection.
fn handle_request(inner: &Arc<Inner>, conn: &Arc<ConnShared>, msg: Message) -> bool {
    match msg {
        Message::Hello { .. } => {
            conn.send(
                &Message::Error { code: ErrorCode::Protocol, message: "duplicate Hello".into() },
                &inner.net(),
            );
            false
        }
        Message::Ingest { events } => {
            let slot = inner.slot.read().expect("slot lock");
            let reply = match &*slot {
                Slot::Running(svc) => {
                    let stalled = svc.ingest_with_pressure(
                        events
                            .into_iter()
                            .map(|we| KeyedEvent::new(we.key, we.source as usize, we.event)),
                    );
                    if stalled {
                        inner.net().credit_stalls.inc();
                        Message::Busy { grant: BUSY_CREDIT }
                    } else {
                        Message::Credit { grant: INITIAL_CREDIT }
                    }
                }
                _ => shut_down(),
            };
            conn.send(&reply, &inner.net())
        }
        Message::Watermark { source, time } => {
            if let Slot::Running(svc) = &*inner.slot.read().expect("slot lock") {
                svc.watermark(source as usize, Time::new(time));
            }
            true
        }
        Message::Attach { name, lateness, emit_interval } => {
            let cq = inner.catalog.iter().find(|(n, _)| *n == name).map(|(_, cq)| Arc::clone(cq));
            let reply = match (cq, &*inner.slot.read().expect("slot lock")) {
                (None, _) => Message::Error {
                    code: ErrorCode::UnknownName,
                    message: format!("no catalog query named {name:?}"),
                },
                (Some(cq), Slot::Running(svc)) => {
                    let settings =
                        QuerySettings { allowed_lateness: lateness, emit_interval, sink: None };
                    match svc.attach(cq, settings) {
                        Ok(handle) => {
                            let query = handle.index() as u32;
                            inner.handles.lock().expect("handles lock").insert(query, handle);
                            Message::Attached { query, frontier: handle.frontier().ticks() }
                        }
                        Err(e) => service_error(e),
                    }
                }
                (Some(_), _) => shut_down(),
            };
            conn.send(&reply, &inner.net())
        }
        Message::Detach { query } => {
            let detached =
                inner.with_query(query, |svc, handle| svc.detach(handle).map_err(service_error));
            let reply = match detached {
                Ok(()) => {
                    inner.finish_subscribers(query);
                    Message::Ok
                }
                Err(reply) => reply,
            };
            conn.send(&reply, &inner.net())
        }
        Message::Subscribe { query } => join_stream(inner, conn, query, None),
        Message::Stats => {
            let reply = {
                let slot = inner.slot.read().expect("slot lock");
                let fields = match &*slot {
                    Slot::Running(svc) => inner.stats_fields(&svc.stats()),
                    Slot::Finished(fs) => inner.stats_fields(&fs.stats),
                    Slot::Draining => Vec::new(),
                };
                Message::StatsReply { fields }
            };
            conn.send(&reply, &inner.net())
        }
        Message::MetricsText => {
            let text = match &*inner.slot.read().expect("slot lock") {
                Slot::Running(svc) => svc.metrics_text(),
                Slot::Finished(fs) => fs.metrics_text.clone(),
                Slot::Draining => String::new(),
            };
            conn.send(&Message::Text { kind: TextKind::Metrics, text }, &inner.net())
        }
        Message::Journal => {
            let text = match &*inner.slot.read().expect("slot lock") {
                Slot::Running(svc) => svc.journal().to_text(),
                Slot::Finished(fs) => fs.journal_text.clone(),
                Slot::Draining => String::new(),
            };
            conn.send(&Message::Text { kind: TextKind::Journal, text }, &inner.net())
        }
        Message::Catalog => {
            let mut text = String::new();
            for (name, _) in &inner.catalog {
                text.push_str(name);
                text.push('\n');
            }
            conn.send(&Message::Text { kind: TextKind::Catalog, text }, &inner.net())
        }
        Message::Shutdown { end } => {
            // Take the write lock: exactly one shutdown drains; the rest
            // see Finished and reply Ok idempotently.
            let reply = {
                let mut slot = inner.slot.write().expect("slot lock");
                if matches!(&*slot, Slot::Running(_)) {
                    if let Slot::Running(svc) = std::mem::replace(&mut *slot, Slot::Draining) {
                        // finish() joins the shard threads, so every
                        // subscriber has its full output (flush tail
                        // included) before any Eos below.
                        let out = match end {
                            Some(t) => svc.finish_at(Time::new(t)),
                            None => svc.finish(),
                        };
                        *slot = Slot::Finished(Box::new(FinalState {
                            stats: out.stats,
                            metrics_text: out.metrics.to_prometheus(),
                            journal_text: out.journal.to_text(),
                        }));
                    }
                    drop(slot);
                    let queries: Vec<u32> =
                        inner.subs.lock().expect("subs lock").keys().copied().collect();
                    for query in queries {
                        inner.finish_subscribers(query);
                    }
                }
                Message::Ok
            };
            conn.send(&reply, &inner.net())
        }
        Message::Checkpoint { path } => {
            let reply = match &*inner.slot.read().expect("slot lock") {
                Slot::Running(svc) => match svc.checkpoint(std::path::Path::new(&path)) {
                    Ok(_) => Message::Ok,
                    Err(e) => Message::Error { code: ErrorCode::Internal, message: e.to_string() },
                },
                _ => shut_down(),
            };
            conn.send(&reply, &inner.net())
        }
        Message::Restore { path, queries } => {
            conn.send(&restore_service(inner, &path, &queries), &inner.net())
        }
        Message::Resume { query, next_seq } => join_stream(inner, conn, query, Some(next_seq)),
        // Server-to-client tags arriving at the server are a protocol
        // violation; close on them.
        Message::HelloAck { .. }
        | Message::Credit { .. }
        | Message::Busy { .. }
        | Message::Attached { .. }
        | Message::Ok
        | Message::Error { .. }
        | Message::Eos { .. }
        | Message::StatsReply { .. }
        | Message::Text { .. }
        | Message::Restored { .. }
        | Message::OutputSeq { .. }
        | Message::Resumed { .. } => {
            conn.send(
                &Message::Error {
                    code: ErrorCode::Protocol,
                    message: "server-to-client message sent by client".into(),
                },
                &inner.net(),
            );
            false
        }
    }
}
