//! The client half: a blocking library client for the wire protocol,
//! used by tests, benches, and examples (and as the reference for
//! third-party implementations).
//!
//! A [`Client`] owns one TCP connection. A background reader thread
//! splits the incoming frame stream in two: request replies go to the
//! (single) in-flight request, while output / [`Message::Eos`] frames
//! are routed to their [`Subscription`] channels — so a subscriber can
//! keep draining output while another thread of the same client is
//! blocked waiting for an ingest credit. Requests are serialized behind
//! a mutex: one outstanding request per connection, matching the
//! server's in-order replies.
//!
//! Ingest is credit-driven: the client chunks batches to the server's
//! current grant (and to the frame size cap, whichever is reached first)
//! and waits for each chunk's [`Message::Credit`] / [`Message::Busy`]
//! before sending the next, so a slow service backpressures the producer
//! instead of ballooning socket buffers.
//!
//! # Self-healing
//!
//! With a [`RetryPolicy`] configured ([`Client::connect_with`]), a dead
//! socket is not the end: the client redials with jittered exponential
//! backoff, re-handshakes, and sends [`Message::Resume`] for every live
//! subscription, so each subscriber observes every output frame exactly
//! once across the reconnect (the client tracks each query's next
//! expected sequence number and drops replayed duplicates). Requests
//! other than ingest are retried once on the fresh connection; ingest is
//! *not* auto-retried, because a batch that died mid-flight may or may
//! not have been applied — the caller sees the error and decides. If the
//! server's replay ring has already evicted part of the missed suffix,
//! the subscription ends (its collector returns) and
//! [`Client::resume_gaps`] counts the loss.

use std::collections::HashMap;
use std::io::{self, Write as _};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use tilt_data::{Event, Time, Value};
use tilt_runtime::KeyedEvent;

use crate::protocol::{
    fitting_frame, read_message, try_encode_frame, write_message, ErrorCode, Message, RecvError,
    TextKind, WireError, WireEvent, PROTOCOL_VERSION,
};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed.
    Io(io::Error),
    /// The connection closed while a reply was pending.
    Closed,
    /// The server sent something the protocol does not allow here.
    Protocol(String),
    /// The server answered with [`Message::Error`].
    Server {
        /// Machine-readable category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Closed => write!(f, "connection closed"),
            ClientError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            ClientError::Server { code, message } => {
                write!(f, "server error ({code:?}): {message}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Protocol(e.to_string())
    }
}

/// Jittered exponential backoff for redialing a dead connection.
/// Deterministic: the jitter is derived from `seed` and the attempt
/// number, so a seeded chaos run reproduces its exact timing decisions.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Redial attempts before giving up (at least 1).
    pub max_attempts: u32,
    /// Delay before the first attempt; doubles each attempt.
    pub base: Duration,
    /// Upper bound on any single delay.
    pub cap: Duration,
    /// Seed for the deterministic jitter.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 8,
            base: Duration::from_millis(5),
            cap: Duration::from_millis(500),
            seed: 0x5EED,
        }
    }
}

/// SplitMix64: a tiny, high-quality mixer for deterministic jitter.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl RetryPolicy {
    /// The delay before redial `attempt` (1-based): `base << (attempt-1)`
    /// capped at `cap`, then jittered into `[50%, 100%]` of itself so a
    /// fleet of reconnecting clients does not stampede in lockstep.
    fn delay(&self, attempt: u32) -> Duration {
        let shift = (attempt.saturating_sub(1)).min(16);
        let exp = self.base.saturating_mul(1u32 << shift).min(self.cap);
        let nanos = exp.as_nanos().min(u64::MAX as u128) as u64;
        let jitter = splitmix64(self.seed ^ u64::from(attempt)) % (nanos / 2 + 1);
        Duration::from_nanos(nanos - jitter)
    }
}

/// Connection-level knobs. [`Client::connect`] uses the defaults (no
/// retries, no timeouts); [`Client::connect_with`] takes the full set.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClientConfig {
    /// `Some` enables automatic redial + re-handshake + subscriber
    /// resume when the connection dies.
    pub retry: Option<RetryPolicy>,
    /// Socket read/write timeout. A connection that stalls longer is
    /// declared dead (and, with `retry`, redialed).
    pub io_timeout: Option<Duration>,
}

/// A query attached over the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RemoteQuery {
    id: u32,
    frontier: Time,
}

impl RemoteQuery {
    /// The wire query id (stable for the life of the service).
    pub fn id(self) -> u32 {
        self.id
    }

    /// The join frontier the server admitted the query at: its output
    /// covers only ticks at or after this.
    pub fn frontier(self) -> Time {
        self.frontier
    }
}

/// What one ingest call experienced.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// Events delivered.
    pub events: usize,
    /// Wire frames the batch was split into (credit-sized chunks).
    pub frames: usize,
    /// How many chunks were answered with [`Message::Busy`] — the
    /// service was backpressured while applying them.
    pub busy: usize,
}

enum SubItem {
    Output(u64, Vec<Event<Value>>),
    Eos,
}

/// A live output stream for one subscribed query.
///
/// Frames arrive in per-key time order. The stream ends (every method
/// reports exhaustion) when the server sends [`Message::Eos`] — on
/// service shutdown or query detach — or the connection drops beyond
/// recovery.
pub struct Subscription {
    rx: Receiver<SubItem>,
}

impl Subscription {
    /// Blocks for the next output frame: one key's newly finalized
    /// events. `None` when the stream has ended.
    pub fn next(&self) -> Option<(u64, Vec<Event<Value>>)> {
        match self.rx.recv() {
            Ok(SubItem::Output(key, events)) => Some((key, events)),
            Ok(SubItem::Eos) | Err(_) => None,
        }
    }

    /// Drains the stream to its end, grouping events per key in arrival
    /// order — the shape [`tilt_runtime::ServiceOutput`] uses, so remote
    /// output can be compared directly against an in-process run.
    pub fn collect_per_key(self) -> HashMap<u64, Vec<Event<Value>>> {
        let mut out: HashMap<u64, Vec<Event<Value>>> = HashMap::new();
        while let Some((key, events)) = self.next() {
            out.entry(key).or_default().extend(events);
        }
        out
    }
}

/// A counter snapshot scraped from the server.
#[derive(Clone, Debug, Default)]
pub struct RemoteStats {
    /// `(name, value)` pairs in server order.
    pub fields: Vec<(String, i64)>,
}

impl RemoteStats {
    /// Looks a counter up by name.
    pub fn get(&self, name: &str) -> Option<i64> {
        self.fields.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// One live subscription's routing entry.
struct SubEntry {
    tx: Sender<SubItem>,
    /// The next sequence number this subscriber expects — advanced on
    /// every delivered [`Message::OutputSeq`], offered in
    /// [`Message::Resume`] after a reconnect, and used to drop replayed
    /// duplicates.
    next_seq: u64,
}

/// Serializes requests: exactly one in flight per connection. `epoch`
/// counts reconnects, so a dying reader can tell whether its connection
/// has already been replaced.
struct Lane {
    writer: TcpStream,
    replies: Receiver<Message>,
    credit: u32,
    epoch: u64,
}

struct Inner {
    addr: SocketAddr,
    config: ClientConfig,
    lane: Mutex<Lane>,
    /// Per-query routing for output/Eos frames.
    subs: Mutex<HashMap<u32, SubEntry>>,
    reconnects: AtomicU64,
    resume_gaps: AtomicU64,
    /// Set by [`Client::drop`]; stops the reader from redialing.
    closed: AtomicBool,
}

/// A blocking connection to a `tilt-server`.
///
/// ```no_run
/// use tilt_data::{Event, Time, Value};
/// use tilt_runtime::KeyedEvent;
/// use tilt_server::Client;
///
/// let client = Client::connect("127.0.0.1:4815").unwrap();
/// let q = client.attach("sliding_sum", None, None).unwrap();
/// let sub = client.subscribe(q).unwrap();
/// client
///     .ingest(vec![KeyedEvent::new(7, 0, Event::point(Time::new(1), Value::Float(1.0)))])
///     .unwrap();
/// client.shutdown(None).unwrap();
/// let per_key = sub.collect_per_key();
/// assert!(per_key.contains_key(&7));
/// ```
pub struct Client {
    inner: Arc<Inner>,
}

/// The raw halves of one freshly handshaken connection.
struct RawConn {
    writer: TcpStream,
    read_half: TcpStream,
    credit: u32,
}

/// Dials and handshakes one connection under `config`.
fn open_conn(addr: SocketAddr, config: &ClientConfig) -> Result<RawConn, ClientError> {
    let stream = TcpStream::connect(addr)?;
    let _ = stream.set_nodelay(true);
    if let Some(limit) = config.io_timeout {
        let _ = stream.set_read_timeout(Some(limit));
        let _ = stream.set_write_timeout(Some(limit));
    }
    let mut writer = stream.try_clone()?;
    write_message(&mut writer, &Message::Hello { version: PROTOCOL_VERSION })?;
    writer.flush()?;
    // Read the HelloAck inline, before any reader thread exists.
    let mut read_half = stream;
    let credit = match read_message(&mut read_half) {
        Ok((Message::HelloAck { version: PROTOCOL_VERSION, credit }, _)) => credit,
        Ok((Message::Error { code, message }, _)) => {
            return Err(ClientError::Server { code, message });
        }
        Ok((other, _)) => {
            return Err(ClientError::Protocol(format!("expected HelloAck, got {other:?}")));
        }
        Err(RecvError::Closed) => return Err(ClientError::Closed),
        Err(RecvError::Io(e)) => return Err(ClientError::Io(e)),
        Err(RecvError::Decode(e)) => return Err(ClientError::Protocol(e.to_string())),
    };
    Ok(RawConn { writer, read_half, credit })
}

impl Client {
    /// Connects and performs the version handshake, with the default
    /// [`ClientConfig`] (no retries, no timeouts).
    pub fn connect(addr: impl std::net::ToSocketAddrs) -> Result<Client, ClientError> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| ClientError::Io(io::Error::other("address resolved to nothing")))?;
        Client::connect_with(addr, ClientConfig::default())
    }

    /// [`Client::connect`] for an already resolved address.
    pub fn connect_addr(addr: SocketAddr) -> Result<Client, ClientError> {
        Client::connect_with(addr, ClientConfig::default())
    }

    /// Connects with explicit connection-level configuration.
    pub fn connect_with(addr: SocketAddr, config: ClientConfig) -> Result<Client, ClientError> {
        let conn = open_conn(addr, &config)?;
        let (reply_tx, reply_rx) = channel();
        let inner = Arc::new(Inner {
            addr,
            config,
            lane: Mutex::new(Lane {
                writer: conn.writer,
                replies: reply_rx,
                credit: conn.credit.max(1),
                epoch: 0,
            }),
            subs: Mutex::new(HashMap::new()),
            reconnects: AtomicU64::new(0),
            resume_gaps: AtomicU64::new(0),
            closed: AtomicBool::new(false),
        });
        spawn_reader(&inner, conn.read_half, reply_tx, 0)?;
        Ok(Client { inner })
    }

    /// How many times this client has successfully redialed and
    /// re-handshaken after losing its connection.
    pub fn reconnects(&self) -> u64 {
        self.inner.reconnects.load(Ordering::Relaxed)
    }

    /// How many subscriptions ended because the server's replay ring had
    /// already evicted part of the suffix a resume asked for.
    pub fn resume_gaps(&self) -> u64 {
        self.inner.resume_gaps.load(Ordering::Relaxed)
    }

    /// Test helper: severs the underlying socket, as a crashed link or
    /// middlebox would. With a [`RetryPolicy`] configured the client
    /// heals itself: the reader notices, redials, and resumes every live
    /// subscription.
    pub fn kill_connection(&self) {
        let lane = self.inner.lane.lock().expect("request lane lock");
        let _ = lane.writer.shutdown(Shutdown::Both);
    }

    /// Sends one request frame and waits for its reply. `Error` replies
    /// become [`ClientError::Server`]. If the connection died and a
    /// [`RetryPolicy`] is configured, reconnects and retries once.
    fn request(&self, msg: &Message) -> Result<Message, ClientError> {
        let mut lane = self.inner.lane.lock().expect("request lane lock");
        match Client::request_on(&mut lane, msg) {
            Err(e)
                if matches!(e, ClientError::Io(_) | ClientError::Closed)
                    && self.inner.config.retry.is_some() =>
            {
                reconnect_locked(&self.inner, &mut lane)?;
                Client::request_on(&mut lane, msg)
            }
            other => other,
        }
    }

    fn request_on(lane: &mut Lane, msg: &Message) -> Result<Message, ClientError> {
        Client::exchange(lane, &try_encode_frame(msg)?)
    }

    /// Writes one encoded request frame and waits for its reply.
    fn exchange(lane: &mut Lane, frame: &[u8]) -> Result<Message, ClientError> {
        lane.writer.write_all(frame)?;
        lane.writer.flush()?;
        match lane.replies.recv() {
            Ok(Message::Error { code, message }) => Err(ClientError::Server { code, message }),
            Ok(reply) => Ok(reply),
            Err(_) => Err(ClientError::Closed),
        }
    }

    /// Attaches a catalog query by name, optionally overriding allowed
    /// lateness / emission cadence (in ticks).
    pub fn attach(
        &self,
        name: &str,
        lateness: Option<i64>,
        emit_interval: Option<i64>,
    ) -> Result<RemoteQuery, ClientError> {
        match self.request(&Message::Attach { name: name.to_owned(), lateness, emit_interval })? {
            Message::Attached { query, frontier } => {
                Ok(RemoteQuery { id: query, frontier: Time::new(frontier) })
            }
            other => Err(ClientError::Protocol(format!("expected Attached, got {other:?}"))),
        }
    }

    /// Detaches a query attached over this or any other connection.
    pub fn detach(&self, query: RemoteQuery) -> Result<(), ClientError> {
        match self.request(&Message::Detach { query: query.id })? {
            Message::Ok => Ok(()),
            other => Err(ClientError::Protocol(format!("expected Ok, got {other:?}"))),
        }
    }

    /// Subscribes this connection to a query's per-key output stream.
    pub fn subscribe(&self, query: RemoteQuery) -> Result<Subscription, ClientError> {
        // Register the route first: output may start the instant the
        // server processes the request, before the reply arrives here.
        let (tx, rx) = channel();
        self.inner.subs.lock().expect("subs lock").insert(query.id, SubEntry { tx, next_seq: 0 });
        match self.request(&Message::Subscribe { query: query.id }) {
            Ok(Message::Ok) => Ok(Subscription { rx }),
            Ok(other) => {
                self.inner.subs.lock().expect("subs lock").remove(&query.id);
                Err(ClientError::Protocol(format!("expected Ok, got {other:?}")))
            }
            Err(e) => {
                self.inner.subs.lock().expect("subs lock").remove(&query.id);
                Err(e)
            }
        }
    }

    /// Delivers a batch of events, chunked to the server's credit grants
    /// and the frame size cap, waiting for each chunk's acknowledgement —
    /// the producer-side half of the backpressure loop. An event that
    /// cannot fit a frame on its own fails the call with
    /// [`ClientError::Protocol`]; the chunks before it were delivered.
    ///
    /// Never auto-retried: a chunk that died mid-flight may or may not
    /// have been applied, and only the caller can decide whether
    /// re-sending (at-least-once) is acceptable.
    pub fn ingest<I: IntoIterator<Item = KeyedEvent>>(
        &self,
        events: I,
    ) -> Result<IngestReport, ClientError> {
        let wire: Vec<WireEvent> = events
            .into_iter()
            .map(|ke| WireEvent { key: ke.key, source: ke.source as u32, event: ke.event })
            .collect();
        let mut report = IngestReport { events: wire.len(), frames: 0, busy: 0 };
        let mut lane = self.inner.lane.lock().expect("request lane lock");
        let mut rest = wire.as_slice();
        while !rest.is_empty() {
            let (frame, taken) = fitting_frame(rest, lane.credit.max(1) as usize, |events| {
                Message::Ingest { events: events.to_vec() }
            })?;
            rest = &rest[taken..];
            report.frames += 1;
            match Client::exchange(&mut lane, &frame)? {
                Message::Credit { grant } => lane.credit = grant.max(1),
                Message::Busy { grant } => {
                    report.busy += 1;
                    lane.credit = grant.max(1);
                }
                other => {
                    return Err(ClientError::Protocol(format!(
                        "expected Credit or Busy, got {other:?}"
                    )));
                }
            }
        }
        Ok(report)
    }

    /// Broadcasts an explicit watermark promise for one source
    /// (fire-and-forget: no reply).
    pub fn watermark(&self, source: usize, time: Time) -> Result<(), ClientError> {
        let mut lane = self.inner.lane.lock().expect("request lane lock");
        write_message(
            &mut lane.writer,
            &Message::Watermark { source: source as u32, time: time.ticks() },
        )?;
        lane.writer.flush()?;
        Ok(())
    }

    /// Scrapes the server's counter snapshot.
    pub fn stats(&self) -> Result<RemoteStats, ClientError> {
        match self.request(&Message::Stats)? {
            Message::StatsReply { fields } => Ok(RemoteStats { fields }),
            other => Err(ClientError::Protocol(format!("expected StatsReply, got {other:?}"))),
        }
    }

    fn text(&self, req: &Message, want: TextKind) -> Result<String, ClientError> {
        match self.request(req)? {
            Message::Text { kind, text } if kind == want => Ok(text),
            other => Err(ClientError::Protocol(format!("expected {want:?} text, got {other:?}"))),
        }
    }

    /// Scrapes the Prometheus metrics exposition (service + server).
    pub fn metrics_text(&self) -> Result<String, ClientError> {
        self.text(&Message::MetricsText, TextKind::Metrics)
    }

    /// Scrapes the control-plane journal as text.
    pub fn journal_text(&self) -> Result<String, ClientError> {
        self.text(&Message::Journal, TextKind::Journal)
    }

    /// Lists the attachable catalog query names, one per line.
    pub fn catalog_text(&self) -> Result<String, ClientError> {
        self.text(&Message::Catalog, TextKind::Catalog)
    }

    /// Checkpoints the service into one snapshot file at `path` on the
    /// **server's** filesystem (the snapshot bytes never cross the
    /// wire).
    pub fn checkpoint(&self, path: &str) -> Result<(), ClientError> {
        match self.request(&Message::Checkpoint { path: path.to_owned() })? {
            Message::Ok => Ok(()),
            other => Err(ClientError::Protocol(format!("expected Ok, got {other:?}"))),
        }
    }

    /// Rebuilds the service from a snapshot at `path` on the server's
    /// filesystem. `queries` names the catalog entry for every recorded
    /// query slot, in registration order. Only a fresh service (no
    /// attached queries, no ingested events) can be replaced. Returns
    /// the live restored queries, ready to [`Client::subscribe`].
    pub fn restore(&self, path: &str, queries: &[&str]) -> Result<Vec<RemoteQuery>, ClientError> {
        let msg = Message::Restore {
            path: path.to_owned(),
            queries: queries.iter().map(|&n| n.to_owned()).collect(),
        };
        match self.request(&msg)? {
            Message::Restored { queries } => Ok(queries
                .into_iter()
                .map(|(id, frontier)| RemoteQuery { id, frontier: Time::new(frontier) })
                .collect()),
            other => Err(ClientError::Protocol(format!("expected Restored, got {other:?}"))),
        }
    }

    /// Drains and shuts the service down, flushing every key's sessions
    /// through `end` when given (matching
    /// [`tilt_runtime::StreamService::finish_at`]). Subscriptions end
    /// after receiving their flush tails. Idempotent across clients.
    pub fn shutdown(&self, end: Option<Time>) -> Result<(), ClientError> {
        match self.request(&Message::Shutdown { end: end.map(|t| t.ticks()) })? {
            Message::Ok => Ok(()),
            other => Err(ClientError::Protocol(format!("expected Ok, got {other:?}"))),
        }
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        self.inner.closed.store(true, Ordering::Release);
        if let Ok(lane) = self.inner.lane.lock() {
            let _ = lane.writer.shutdown(Shutdown::Both);
        }
    }
}

/// Spawns the reader thread for one connection epoch.
fn spawn_reader(
    inner: &Arc<Inner>,
    read_half: TcpStream,
    replies: Sender<Message>,
    epoch: u64,
) -> Result<(), ClientError> {
    let inner = Arc::clone(inner);
    std::thread::Builder::new()
        .name(format!("tilt-client-reader-{epoch}"))
        .spawn(move || reader_loop(read_half, inner, replies, epoch))
        .map_err(ClientError::Io)?;
    Ok(())
}

/// Redials, re-handshakes, and resumes every live subscription, under
/// the already-held lane lock (requests block until the lane is whole
/// again). Jittered exponential backoff between attempts.
fn reconnect_locked(inner: &Arc<Inner>, lane: &mut Lane) -> Result<(), ClientError> {
    let Some(policy) = inner.config.retry else {
        return Err(ClientError::Closed);
    };
    if inner.closed.load(Ordering::Acquire) {
        return Err(ClientError::Closed);
    }
    let mut last = ClientError::Closed;
    for attempt in 1..=policy.max_attempts.max(1) {
        std::thread::sleep(policy.delay(attempt));
        let conn = match open_conn(inner.addr, &inner.config) {
            Ok(c) => c,
            Err(e) => {
                last = e;
                continue;
            }
        };
        let (reply_tx, reply_rx) = channel();
        lane.epoch += 1;
        lane.writer = conn.writer;
        lane.replies = reply_rx;
        lane.credit = conn.credit.max(1);
        spawn_reader(inner, conn.read_half, reply_tx, lane.epoch)?;
        inner.reconnects.fetch_add(1, Ordering::Relaxed);
        resume_subscriptions(inner, lane);
        return Ok(());
    }
    Err(last)
}

/// Re-joins every live subscription on a fresh connection, each exactly
/// where it left off; one that cannot be made whole ends instead of
/// silently gapping.
fn resume_subscriptions(inner: &Arc<Inner>, lane: &mut Lane) {
    let live: Vec<(u32, u64)> = inner
        .subs
        .lock()
        .expect("subs lock")
        .iter()
        .map(|(query, entry)| (*query, entry.next_seq))
        .collect();
    for (query, next_seq) in live {
        let end_sub = |gap: bool| {
            if gap {
                inner.resume_gaps.fetch_add(1, Ordering::Relaxed);
            }
            if let Some(entry) = inner.subs.lock().expect("subs lock").remove(&query) {
                let _ = entry.tx.send(SubItem::Eos);
            }
        };
        match Client::request_on(lane, &Message::Resume { query, next_seq }) {
            // Replayed frames follow on the reader thread, routed and
            // de-duplicated like any live frame.
            Ok(Message::Resumed { .. }) => {}
            Err(ClientError::Server { code: ErrorCode::ResumeGap, .. }) => end_sub(true),
            // Unknown query, shutdown, transport death, …: the stream
            // cannot continue.
            _ => end_sub(false),
        }
    }
}

/// Routes incoming frames: output/Eos to their subscription channels,
/// everything else to the in-flight request. When the connection dies,
/// attempts the self-heal path (redial + resume) if configured and not
/// already handled by a concurrent request.
fn reader_loop(stream: TcpStream, inner: Arc<Inner>, replies: Sender<Message>, epoch: u64) {
    let mut stream = std::io::BufReader::new(stream);
    loop {
        match read_message(&mut stream) {
            Ok((Message::OutputSeq { query, seq, key, events }, _)) => {
                let mut subs = inner.subs.lock().expect("subs lock");
                if let Some(entry) = subs.get_mut(&query) {
                    // Drop already-seen frames (replay overlap): each
                    // seq is delivered at most once.
                    if seq >= entry.next_seq {
                        entry.next_seq = seq + 1;
                        let _ = entry.tx.send(SubItem::Output(key, events));
                    }
                }
            }
            Ok((Message::Eos { query }, _)) => {
                if let Some(entry) = inner.subs.lock().expect("subs lock").remove(&query) {
                    let _ = entry.tx.send(SubItem::Eos);
                }
            }
            Ok((reply, _)) => {
                if replies.send(reply).is_err() {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    // Unblock any request waiting on this connection's replies *before*
    // taking the lane lock (the waiter holds it).
    drop(replies);
    // Self-heal: redial unless the client is closing, retries are off,
    // or a concurrent request already replaced the connection.
    if inner.config.retry.is_some() && !inner.closed.load(Ordering::Acquire) {
        let mut lane = inner.lane.lock().expect("request lane lock");
        if lane.epoch != epoch {
            return; // already healed by the request path
        }
        if reconnect_locked(&inner, &mut lane).is_ok() {
            return;
        }
    }
    // No recovery: end every live subscription so collectors return.
    for (_, entry) in inner.subs.lock().expect("subs lock").drain() {
        let _ = entry.tx.send(SubItem::Eos);
    }
}
