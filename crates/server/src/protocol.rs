//! The TiLT wire protocol: a hand-rolled, dependency-free codec for the
//! length-prefixed binary frames `tilt-server` and `tilt-client` exchange.
//!
//! # Frame layout
//!
//! Every message travels in one frame:
//!
//! ```text
//! ┌──────────────┬─────────────────────────────┐
//! │ len: u32 LE  │ payload: len bytes          │
//! └──────────────┴─────────────────────────────┘
//! payload = [ tag: u8 ][ fixed-width fields … ]
//! ```
//!
//! `len` counts the payload only (not the header) and is capped at
//! [`MAX_FRAME_LEN`]; a header above the cap is a protocol violation and
//! the connection is closed. All integers are fixed-width little-endian —
//! no varints, so every field has a statically known size and truncation
//! is detected exactly. Strings are `u32` length + UTF-8 bytes;
//! vectors are `u32` count + elements; `Option<i64>` is a `u8` presence
//! flag + value. Those primitives, and the layout of [`Value`] and
//! [`Event`], are [`tilt_data::codec`]'s — the same bytes a snapshot file
//! holds; this module adds only framing and per-message field order.
//!
//! # Versioning
//!
//! There is one protocol version, [`PROTOCOL_VERSION`]. The first frame
//! on a connection must be [`Message::Hello`] carrying exactly that
//! version; the server answers [`Message::HelloAck`] echoing it. Any
//! other version is refused with [`ErrorCode::Version`] and the
//! connection closes — both halves ship from this crate, so there is
//! nothing older to negotiate down to. Unknown message tags and
//! malformed bodies are [`WireError`]s, never panics — a hostile peer
//! can at worst get its own connection closed.
//!
//! # Safety against hostile input
//!
//! Decoding is total: every read is bounds-checked, collection counts are
//! validated against the bytes actually present before allocation, string
//! bytes must be UTF-8, event intervals must be non-empty (`end > start`),
//! tuple values are depth-limited ([`MAX_VALUE_DEPTH`]), and a payload
//! with trailing bytes is rejected. The codec allocates at most
//! proportionally to the (capped) frame it was handed. Encoding honours
//! the same cap: a sender splits event batches into frames that fit
//! ([`fitting_frame`]) and a message that still cannot fit is an error
//! ([`WireError::Oversize`]), never an oversize frame.

use std::io::{self, Read, Write};

use tilt_data::codec::{CodecError, Dec, Enc};
use tilt_data::{Event, Value};

pub use tilt_data::codec::MAX_VALUE_DEPTH;

/// The one protocol version this build speaks.
pub const PROTOCOL_VERSION: u16 = 4;

/// Upper bound on a frame's payload length. A `len` header above this is
/// rejected without allocating, and no frame above it is ever sent.
pub const MAX_FRAME_LEN: u32 = 1 << 20;

/// The fixed-width part of an encoded event: start(8) + end(8) + value
/// tag(1). No frame holds more than `MAX_FRAME_LEN / MIN_EVENT_LEN`
/// events, which bounds what a sender need try to fit.
pub const MIN_EVENT_LEN: usize = 17;

/// Machine-readable error category carried by [`Message::Error`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ErrorCode {
    /// The peer speaks an unsupported protocol version.
    Version,
    /// A request referenced a query id this service does not serve.
    UnknownQuery,
    /// An attach named a catalog entry the server does not host.
    UnknownName,
    /// The referenced query was already detached.
    Detached,
    /// The message was valid but illegal in this connection state (e.g.
    /// a second `Hello`, or a server-only message sent by a client).
    Protocol,
    /// The service has been shut down; no further ingest or control ops.
    ShuttingDown,
    /// The query could not be admitted (e.g. source-type conflict).
    Conflict,
    /// Anything else.
    Internal,
    /// A [`Message::Resume`] asked for sequence numbers the server's
    /// bounded replay ring has already evicted — the subscriber fell too
    /// far behind to resume losslessly and must re-subscribe, accepting
    /// the gap.
    ResumeGap,
}

impl ErrorCode {
    fn to_u8(self) -> u8 {
        match self {
            ErrorCode::Version => 1,
            ErrorCode::UnknownQuery => 2,
            ErrorCode::UnknownName => 3,
            ErrorCode::Detached => 4,
            ErrorCode::Protocol => 5,
            ErrorCode::ShuttingDown => 6,
            ErrorCode::Conflict => 7,
            ErrorCode::Internal => 8,
            ErrorCode::ResumeGap => 9,
        }
    }

    fn from_u8(x: u8) -> Option<ErrorCode> {
        Some(match x {
            1 => ErrorCode::Version,
            2 => ErrorCode::UnknownQuery,
            3 => ErrorCode::UnknownName,
            4 => ErrorCode::Detached,
            5 => ErrorCode::Protocol,
            6 => ErrorCode::ShuttingDown,
            7 => ErrorCode::Conflict,
            8 => ErrorCode::Internal,
            9 => ErrorCode::ResumeGap,
            _ => return None,
        })
    }
}

/// One keyed event as it travels in an [`Message::Ingest`] frame.
#[derive(Clone, Debug, PartialEq)]
pub struct WireEvent {
    /// The stream key.
    pub key: u64,
    /// The source position the event feeds.
    pub source: u32,
    /// The event: payload valid on `(start, end]`; decode rejects empty
    /// intervals so [`Event::new`]'s invariant can never panic server-side.
    pub event: Event<Value>,
}

/// Which text document a [`Message::Text`] reply carries.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TextKind {
    /// Prometheus exposition from the service metrics registry.
    Metrics,
    /// The control-plane journal, one line per entry.
    Journal,
    /// The catalog of attachable query names, one per line.
    Catalog,
}

impl TextKind {
    fn to_u8(self) -> u8 {
        match self {
            TextKind::Metrics => 1,
            TextKind::Journal => 2,
            TextKind::Catalog => 3,
        }
    }

    fn from_u8(x: u8) -> Option<TextKind> {
        Some(match x {
            1 => TextKind::Metrics,
            2 => TextKind::Journal,
            3 => TextKind::Catalog,
            _ => return None,
        })
    }
}

/// Every message either side can put on the wire, client-originated first.
///
/// One enum covers both directions so the codec round-trips uniformly (the
/// property tests exercise arbitrary messages); the connection handlers
/// enforce directionality ([`ErrorCode::Protocol`] for a server-only tag
/// arriving at the server).
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    // ── client → server ────────────────────────────────────────────────
    /// Mandatory first frame: version negotiation.
    Hello {
        /// The version the client speaks.
        version: u16,
    },
    /// A batch of keyed events for the service. The server answers every
    /// ingest with exactly one [`Message::Credit`] or [`Message::Busy`].
    Ingest {
        /// The events, in arrival order.
        events: Vec<WireEvent>,
    },
    /// An explicit watermark promise for one source (fire-and-forget).
    Watermark {
        /// The source position.
        source: u32,
        /// No further events at or before this tick.
        time: i64,
    },
    /// Attach a catalog query to the running service. Answered with
    /// [`Message::Attached`] or [`Message::Error`].
    Attach {
        /// Name of the prepared query in the server's catalog.
        name: String,
        /// Allowed lateness override in ticks (`None` inherits the
        /// service default).
        lateness: Option<i64>,
        /// Emission-cadence override in ticks (`None` inherits).
        emit_interval: Option<i64>,
    },
    /// Detach a previously attached query. Answered with [`Message::Ok`]
    /// or [`Message::Error`].
    Detach {
        /// The query id from [`Message::Attached`].
        query: u32,
    },
    /// Stream the query's per-key finalized output to *this* connection
    /// as [`Message::OutputSeq`] frames. Answered with [`Message::Ok`] or
    /// [`Message::Error`]; several connections may subscribe to one query.
    Subscribe {
        /// The query id from [`Message::Attached`].
        query: u32,
    },
    /// Request a counter snapshot. Answered with [`Message::StatsReply`].
    Stats,
    /// Request Prometheus text exposition. Answered with
    /// [`Message::Text`] of kind [`TextKind::Metrics`].
    MetricsText,
    /// Request the control-plane journal. Answered with
    /// [`Message::Text`] of kind [`TextKind::Journal`].
    Journal,
    /// Request the attachable query names. Answered with
    /// [`Message::Text`] of kind [`TextKind::Catalog`].
    Catalog,
    /// Drain and shut the service down, flushing through `end` when
    /// given. Subscribers receive their tails then [`Message::Eos`];
    /// the requester gets [`Message::Ok`] once the drain completes.
    Shutdown {
        /// Explicit flush horizon (ticks); `None` flushes through each
        /// shard's newest event.
        end: Option<i64>,
    },
    /// Checkpoint the running service into one snapshot file at `path`
    /// on the **server's** filesystem (the bytes never cross the wire).
    /// Answered with [`Message::Ok`] or [`Message::Error`].
    Checkpoint {
        /// Server-side snapshot path.
        path: String,
    },
    /// Rebuild the service from a snapshot at `path` on the server's
    /// filesystem. `queries` names the catalog entry for every recorded
    /// query slot, in registration order — queries are code, not data,
    /// so the server re-resolves them by name. Only a *fresh* service
    /// (no attached queries, no ingested events) may be replaced;
    /// otherwise the server answers [`ErrorCode::Conflict`]. Answered
    /// with [`Message::Restored`] or [`Message::Error`].
    Restore {
        /// Server-side snapshot path.
        path: String,
        /// Catalog names filling the recorded roster slots, in order.
        queries: Vec<String>,
    },
    /// Re-join a query's output stream after a reconnect, replaying the
    /// missed suffix from the server's bounded per-query replay ring.
    /// Answered with [`Message::Resumed`] (followed immediately by every
    /// retained [`Message::OutputSeq`] frame with `seq >= next_seq`,
    /// exactly once, in order) or [`Message::Error`]
    /// ([`ErrorCode::ResumeGap`] when the ring has already evicted part
    /// of the requested suffix).
    Resume {
        /// The query id from [`Message::Attached`].
        query: u32,
        /// The first sequence number the subscriber has *not* seen.
        next_seq: u64,
    },

    // ── server → client ────────────────────────────────────────────────
    /// Handshake accept: the version the server speaks and the initial
    /// ingest credit (events the client may put in its next frame).
    HelloAck {
        /// The server's protocol version.
        version: u16,
        /// Events allowed in the next [`Message::Ingest`] frame.
        credit: u32,
    },
    /// Happy-path ingest ack: the batch was applied with no backpressure;
    /// `grant` replenishes the client's credit.
    Credit {
        /// Events allowed in the next [`Message::Ingest`] frame.
        grant: u32,
    },
    /// Backpressure ingest ack: the batch *was* applied, but a shard
    /// queue was full and the enqueue had to block — the producer should
    /// slow down. `grant` replenishes (typically reduced) credit.
    Busy {
        /// Events allowed in the next [`Message::Ingest`] frame.
        grant: u32,
    },
    /// Attach succeeded.
    Attached {
        /// The query id for later `Detach`/`Subscribe` calls.
        query: u32,
        /// The negotiated join frontier (ticks).
        frontier: i64,
    },
    /// Generic success reply.
    Ok,
    /// Generic failure reply.
    Error {
        /// Machine-readable category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// No further [`Message::OutputSeq`] frames will arrive for this query
    /// (service shut down or query detached).
    Eos {
        /// The subscribed query.
        query: u32,
    },
    /// Counter snapshot: `(name, value)` pairs (service health counters
    /// plus the server's own connection/byte/credit accounting).
    StatsReply {
        /// The counters, in server-chosen order.
        fields: Vec<(String, i64)>,
    },
    /// A text document (metrics exposition, journal, or catalog).
    Text {
        /// Which document this is.
        kind: TextKind,
        /// The document body.
        text: String,
    },
    /// Restore succeeded: the live queries of the rebuilt service, as
    /// `(query id, current frontier)` pairs usable exactly like
    /// [`Message::Attached`] replies (detached roster slots are omitted
    /// — their ids stay reserved but cannot be subscribed).
    Restored {
        /// `(id, frontier ticks)` per live restored query, in slot order.
        queries: Vec<(u32, i64)>,
    },
    /// One key's newly finalized events for one subscribed query, in
    /// per-key time order, tagged with the query's delivery sequence
    /// number. `seq` is contiguous and monotone per query across *all* of
    /// the query's output frames (shared by every subscriber), which is
    /// what makes [`Message::Resume`] exact.
    OutputSeq {
        /// The subscribed query.
        query: u32,
        /// This frame's position in the query's output stream (0-based).
        seq: u64,
        /// The key these events belong to.
        key: u64,
        /// The finalized events.
        events: Vec<Event<Value>>,
    },
    /// Reply to a successful [`Message::Resume`]: the replayed suffix
    /// follows this frame on the same connection.
    Resumed {
        /// The resumed query.
        query: u32,
        /// Retained frames about to be replayed (0 = nothing was missed).
        replayed: u64,
    },
}

/// Why a payload failed to decode. Every variant closes the connection;
/// none of them panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before a field's fixed width was satisfied, or a
    /// declared string/vector length exceeds the bytes present.
    Truncated,
    /// A frame header declared — or a message encoded to — a payload above
    /// [`MAX_FRAME_LEN`].
    Oversize(u32),
    /// An unknown tag where a known enum discriminant was required.
    BadTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// String bytes were not UTF-8.
    BadUtf8,
    /// An event interval was empty (`end <= start`).
    BadInterval {
        /// The declared start.
        start: i64,
        /// The declared end.
        end: i64,
    },
    /// Tuple nesting exceeded [`MAX_VALUE_DEPTH`].
    TooDeep,
    /// The payload decoded to a message with bytes left over.
    TrailingBytes(usize),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::Oversize(len) => {
                write!(f, "frame length {len} exceeds cap {MAX_FRAME_LEN}")
            }
            WireError::BadTag { what, tag } => write!(f, "unknown {what} tag {tag:#04x}"),
            WireError::BadUtf8 => write!(f, "string field is not UTF-8"),
            WireError::BadInterval { start, end } => {
                write!(f, "empty event interval ({start}, {end}]")
            }
            WireError::TooDeep => write!(f, "tuple nesting exceeds {MAX_VALUE_DEPTH}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> WireError {
        match e {
            CodecError::Truncated | CodecError::BadCount => WireError::Truncated,
            CodecError::BadTag { what, tag } => WireError::BadTag { what, tag },
            CodecError::BadUtf8 => WireError::BadUtf8,
            CodecError::BadInterval { start, end } => WireError::BadInterval { start, end },
            CodecError::TooDeep => WireError::TooDeep,
            CodecError::TrailingBytes(n) => WireError::TrailingBytes(n),
        }
    }
}

/// Why reading the next message off a connection failed.
#[derive(Debug)]
pub enum RecvError {
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// The transport failed (including EOF mid-frame).
    Io(io::Error),
    /// The frame arrived but did not decode.
    Decode(WireError),
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Closed => write!(f, "connection closed"),
            RecvError::Io(e) => write!(f, "transport error: {e}"),
            RecvError::Decode(e) => write!(f, "decode error: {e}"),
        }
    }
}

impl std::error::Error for RecvError {}

// ── encoding ───────────────────────────────────────────────────────────

fn encode_into(e: &mut Enc, msg: &Message) {
    match msg {
        Message::Hello { version } => {
            e.u8(0x01);
            e.u16(*version);
        }
        Message::Ingest { events } => {
            e.u8(0x02);
            e.u32(events.len() as u32);
            for ev in events {
                e.u64(ev.key);
                e.u32(ev.source);
                e.event(&ev.event);
            }
        }
        Message::Watermark { source, time } => {
            e.u8(0x03);
            e.u32(*source);
            e.i64(*time);
        }
        Message::Attach { name, lateness, emit_interval } => {
            e.u8(0x04);
            e.str(name);
            e.opt_i64(*lateness);
            e.opt_i64(*emit_interval);
        }
        Message::Detach { query } => {
            e.u8(0x05);
            e.u32(*query);
        }
        Message::Subscribe { query } => {
            e.u8(0x06);
            e.u32(*query);
        }
        Message::Stats => e.u8(0x07),
        Message::MetricsText => e.u8(0x08),
        Message::Journal => e.u8(0x09),
        Message::Catalog => e.u8(0x0A),
        Message::Shutdown { end } => {
            e.u8(0x0B);
            e.opt_i64(*end);
        }
        Message::Checkpoint { path } => {
            e.u8(0x0C);
            e.str(path);
        }
        Message::Restore { path, queries } => {
            e.u8(0x0D);
            e.str(path);
            e.u32(queries.len() as u32);
            for name in queries {
                e.str(name);
            }
        }
        Message::Resume { query, next_seq } => {
            e.u8(0x0E);
            e.u32(*query);
            e.u64(*next_seq);
        }
        Message::HelloAck { version, credit } => {
            e.u8(0x81);
            e.u16(*version);
            e.u32(*credit);
        }
        Message::Credit { grant } => {
            e.u8(0x82);
            e.u32(*grant);
        }
        Message::Busy { grant } => {
            e.u8(0x83);
            e.u32(*grant);
        }
        Message::Attached { query, frontier } => {
            e.u8(0x84);
            e.u32(*query);
            e.i64(*frontier);
        }
        Message::Ok => e.u8(0x85),
        Message::Error { code, message } => {
            e.u8(0x86);
            e.u8(code.to_u8());
            e.str(message);
        }
        // 0x87 was the unsequenced `Output` of protocol versions 1–3.
        Message::Eos { query } => {
            e.u8(0x88);
            e.u32(*query);
        }
        Message::StatsReply { fields } => {
            e.u8(0x89);
            e.u32(fields.len() as u32);
            for (name, value) in fields {
                e.str(name);
                e.i64(*value);
            }
        }
        Message::Text { kind, text } => {
            e.u8(0x8A);
            e.u8(kind.to_u8());
            e.str(text);
        }
        Message::Restored { queries } => {
            e.u8(0x8B);
            e.u32(queries.len() as u32);
            for (id, frontier) in queries {
                e.u32(*id);
                e.i64(*frontier);
            }
        }
        Message::OutputSeq { query, seq, key, events } => {
            e.u8(0x8C);
            e.u32(*query);
            e.u64(*seq);
            e.u64(*key);
            e.u32(events.len() as u32);
            for ev in events {
                e.event(ev);
            }
        }
        Message::Resumed { query, replayed } => {
            e.u8(0x8D);
            e.u32(*query);
            e.u64(*replayed);
        }
    }
}

/// Encodes `msg` as a frame payload (no length header).
pub fn encode(msg: &Message) -> Vec<u8> {
    let mut e = Enc::new();
    encode_into(&mut e, msg);
    e.into_bytes()
}

/// Encodes `msg` as a complete frame (length header + payload), or
/// [`WireError::Oversize`] if the payload exceeds [`MAX_FRAME_LEN`].
pub fn try_encode_frame(msg: &Message) -> Result<Vec<u8>, WireError> {
    let mut e = Enc::new();
    e.u32(0); // the length header, filled in below
    encode_into(&mut e, msg);
    let mut frame = e.into_bytes();
    let len = u32::try_from(frame.len() - 4).unwrap_or(u32::MAX);
    if len > MAX_FRAME_LEN {
        return Err(WireError::Oversize(len));
    }
    frame[..4].copy_from_slice(&len.to_le_bytes());
    Ok(frame)
}

/// [`try_encode_frame`] for messages known to fit.
///
/// # Panics
///
/// If the payload exceeds [`MAX_FRAME_LEN`].
pub fn encode_frame(msg: &Message) -> Vec<u8> {
    try_encode_frame(msg).expect("message exceeds MAX_FRAME_LEN")
}

/// The frame of `make(&items[..n])` for an `n <= limit` whose frame fits
/// [`MAX_FRAME_LEN`], with that `n`: all `limit` items if they fit,
/// otherwise as many as the overshoot suggests. This is how senders of
/// event batches ([`Message::Ingest`], [`Message::OutputSeq`]) split by
/// bytes: take what fits, send it, come back with the rest. Fails only
/// when a single item does not fit.
pub fn fitting_frame<T>(
    items: &[T],
    limit: usize,
    make: impl Fn(&[T]) -> Message,
) -> Result<(Vec<u8>, usize), WireError> {
    let mut n = items.len().min(limit);
    loop {
        match try_encode_frame(&make(&items[..n])) {
            Err(WireError::Oversize(len)) if n > 1 => {
                n = (n as u64 * MAX_FRAME_LEN as u64 / len as u64).clamp(1, n as u64 - 1) as usize;
            }
            frame => return frame.map(|frame| (frame, n)),
        }
    }
}

// ── decoding ───────────────────────────────────────────────────────────

/// Decodes one frame payload into a [`Message`]. Total: returns an error
/// for any byte sequence it cannot interpret, and never panics.
pub fn decode(payload: &[u8]) -> Result<Message, WireError> {
    let mut d = Dec::new(payload);
    let msg = match d.u8()? {
        0x01 => Message::Hello { version: d.u16()? },
        0x02 => Message::Ingest {
            // key(8) + source(4) + the event
            events: d.seq(12 + MIN_EVENT_LEN, |d| {
                Ok(WireEvent { key: d.u64()?, source: d.u32()?, event: d.event()? })
            })?,
        },
        0x03 => Message::Watermark { source: d.u32()?, time: d.i64()? },
        0x04 => {
            Message::Attach { name: d.str()?, lateness: d.opt_i64()?, emit_interval: d.opt_i64()? }
        }
        0x05 => Message::Detach { query: d.u32()? },
        0x06 => Message::Subscribe { query: d.u32()? },
        0x07 => Message::Stats,
        0x08 => Message::MetricsText,
        0x09 => Message::Journal,
        0x0A => Message::Catalog,
        0x0B => Message::Shutdown { end: d.opt_i64()? },
        0x0C => Message::Checkpoint { path: d.str()? },
        // Each name carries at least its 4-byte length header.
        0x0D => Message::Restore { path: d.str()?, queries: d.seq(4, Dec::str)? },
        0x0E => Message::Resume { query: d.u32()?, next_seq: d.u64()? },
        0x81 => Message::HelloAck { version: d.u16()?, credit: d.u32()? },
        0x82 => Message::Credit { grant: d.u32()? },
        0x83 => Message::Busy { grant: d.u32()? },
        0x84 => Message::Attached { query: d.u32()?, frontier: d.i64()? },
        0x85 => Message::Ok,
        0x86 => {
            let code = ErrorCode::from_u8(d.u8()?)
                .ok_or(WireError::BadTag { what: "error code", tag: 0 })?;
            Message::Error { code, message: d.str()? }
        }
        0x88 => Message::Eos { query: d.u32()? },
        // name len(4) + value(8)
        0x89 => Message::StatsReply { fields: d.seq(12, |d| Ok((d.str()?, d.i64()?)))? },
        0x8A => {
            let kind = TextKind::from_u8(d.u8()?)
                .ok_or(WireError::BadTag { what: "text kind", tag: 0 })?;
            Message::Text { kind, text: d.str()? }
        }
        // id(4) + frontier(8)
        0x8B => Message::Restored { queries: d.seq(12, |d| Ok((d.u32()?, d.i64()?)))? },
        0x8C => Message::OutputSeq {
            query: d.u32()?,
            seq: d.u64()?,
            key: d.u64()?,
            events: d.seq(MIN_EVENT_LEN, Dec::event)?,
        },
        0x8D => Message::Resumed { query: d.u32()?, replayed: d.u64()? },
        tag => return Err(WireError::BadTag { what: "message", tag }),
    };
    d.finish()?;
    Ok(msg)
}

// ── framed transport ───────────────────────────────────────────────────

/// Writes `msg` as one frame, returning the bytes written. A message
/// that encodes above [`MAX_FRAME_LEN`] is an `InvalidInput` error and
/// nothing is written.
pub fn write_message(w: &mut impl Write, msg: &Message) -> io::Result<usize> {
    let frame =
        try_encode_frame(msg).map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    w.write_all(&frame)?;
    Ok(frame.len())
}

/// Reads one frame and decodes it, returning the message and the total
/// bytes consumed (header + payload).
///
/// EOF *before the first header byte* is a clean close
/// ([`RecvError::Closed`]); EOF anywhere inside a frame is an I/O error.
/// A length header above [`MAX_FRAME_LEN`] is reported as
/// [`WireError::Oversize`] without reading (or allocating) the payload.
pub fn read_message(r: &mut impl Read) -> Result<(Message, usize), RecvError> {
    let mut header = [0u8; 4];
    // Distinguish clean EOF (no bytes) from a torn header.
    let mut got = 0usize;
    while got < 4 {
        match r.read(&mut header[got..]) {
            Ok(0) => {
                return Err(if got == 0 {
                    RecvError::Closed
                } else {
                    RecvError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "EOF inside frame header",
                    ))
                });
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(RecvError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(header);
    if len > MAX_FRAME_LEN {
        return Err(RecvError::Decode(WireError::Oversize(len)));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload).map_err(RecvError::Io)?;
    let msg = decode(&payload).map_err(RecvError::Decode)?;
    Ok((msg, 4 + len as usize))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tilt_data::Time;

    fn roundtrip(msg: Message) {
        let payload = encode(&msg);
        assert_eq!(decode(&payload).expect("decode"), msg);
    }

    #[test]
    fn representative_messages_roundtrip() {
        roundtrip(Message::Hello { version: PROTOCOL_VERSION });
        roundtrip(Message::HelloAck { version: PROTOCOL_VERSION, credit: 8192 });
        roundtrip(Message::Ingest {
            events: vec![WireEvent {
                key: 7,
                source: 0,
                event: Event::new(Time::new(1), Time::new(3), Value::Float(2.5)),
            }],
        });
        roundtrip(Message::Attach {
            name: "sliding_sum".into(),
            lateness: Some(8),
            emit_interval: None,
        });
        roundtrip(Message::Error { code: ErrorCode::UnknownName, message: "no such query".into() });
        roundtrip(Message::StatsReply {
            fields: vec![("events_in".into(), 100), ("conservation_balance".into(), 0)],
        });
        roundtrip(Message::Text { kind: TextKind::Journal, text: "0 +1ms connect conn=1".into() });
        roundtrip(Message::Checkpoint { path: "/tmp/snap.tiltsnp".into() });
        roundtrip(Message::Restore { path: "snap".into(), queries: vec![] });
        roundtrip(Message::Restore {
            path: "/var/lib/tilt/epoch-7.tiltsnp".into(),
            queries: vec!["sliding_sum".into(), "naïve".into(), String::new()],
        });
        roundtrip(Message::Restored { queries: vec![] });
        roundtrip(Message::Restored { queries: vec![(0, 0), (2, -5), (u32::MAX, i64::MAX)] });
        roundtrip(Message::Resume { query: 0, next_seq: 0 });
        roundtrip(Message::Resume { query: 3, next_seq: u64::MAX });
        roundtrip(Message::OutputSeq { query: 1, seq: 0, key: u64::MAX, events: vec![] });
        roundtrip(Message::OutputSeq {
            query: 3,
            seq: 9_000_000_000,
            key: 42,
            events: vec![Event::new(
                Time::new(-5),
                Time::new(0),
                Value::tuple([Value::Int(1), Value::Str(Arc::from("hi")), Value::Null]),
            )],
        });
        roundtrip(Message::Resumed { query: 3, replayed: 0 });
        roundtrip(Message::Resumed { query: u32::MAX, replayed: u64::MAX });
    }

    #[test]
    fn every_truncation_of_a_valid_payload_errors() {
        let msg = Message::Ingest {
            events: vec![
                WireEvent {
                    key: u64::MAX,
                    source: 3,
                    event: Event::new(
                        Time::new(-1),
                        Time::new(9),
                        Value::tuple([Value::Bool(true), Value::Float(f64::NAN)]),
                    ),
                },
                WireEvent {
                    key: 0,
                    source: 0,
                    event: Event::new(Time::new(0), Time::new(1), Value::str("αβγ")),
                },
            ],
        };
        let payload = encode(&msg);
        for cut in 0..payload.len() {
            assert!(
                decode(&payload[..cut]).is_err(),
                "truncation to {cut}/{} bytes decoded",
                payload.len()
            );
        }
    }

    #[test]
    fn empty_event_intervals_are_rejected() {
        // Hand-assemble an Ingest frame whose event has end == start.
        let mut e = Enc::new();
        e.u8(0x02);
        e.u32(1);
        e.u64(1); // key
        e.u32(0); // source
        e.i64(5); // start
        e.i64(5); // end == start: empty
        e.u8(0); // Null payload
        assert_eq!(
            decode(&e.into_bytes()),
            Err(WireError::BadInterval { start: 5, end: 5 }),
            "empty interval must be refused before Event::new can panic"
        );
    }

    #[test]
    fn tuple_depth_is_bounded() {
        // A payload of nested tuple tags deeper than MAX_VALUE_DEPTH.
        let mut e = Enc::new();
        e.u8(0x8C); // OutputSeq
        e.u32(0); // query
        e.u64(0); // seq
        e.u64(0); // key
        e.u32(1); // one event
        e.i64(0); // start
        e.i64(1); // end
        for _ in 0..(MAX_VALUE_DEPTH + 2) {
            e.u8(5); // Tuple
            e.u32(1); // one field
        }
        e.u8(0); // innermost Null
        assert_eq!(decode(&e.into_bytes()), Err(WireError::TooDeep));
    }

    #[test]
    fn hostile_counts_do_not_allocate() {
        // Ingest claiming u32::MAX events with a 1-byte body.
        let mut buf = vec![0x02];
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.push(0);
        assert_eq!(decode(&buf), Err(WireError::Truncated));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut payload = encode(&Message::Ok);
        payload.push(0xFF);
        assert_eq!(decode(&payload), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn oversize_header_is_refused_without_reading_the_body() {
        let mut frame = Vec::new();
        frame.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        let mut cursor = io::Cursor::new(frame);
        match read_message(&mut cursor) {
            Err(RecvError::Decode(WireError::Oversize(len))) => {
                assert_eq!(len, MAX_FRAME_LEN + 1)
            }
            other => panic!("expected oversize error, got {other:?}"),
        }
        // Nothing past the header was consumed.
        assert_eq!(cursor.position(), 4);
    }

    #[test]
    fn clean_close_is_distinguished_from_torn_frames() {
        let mut empty = io::Cursor::new(Vec::<u8>::new());
        assert!(matches!(read_message(&mut empty), Err(RecvError::Closed)));
        let mut torn = io::Cursor::new(vec![3, 0]);
        assert!(matches!(read_message(&mut torn), Err(RecvError::Io(_))));
        let mut torn_body = io::Cursor::new(vec![3, 0, 0, 0, 0x85]);
        assert!(matches!(read_message(&mut torn_body), Err(RecvError::Io(_))));
    }
}
