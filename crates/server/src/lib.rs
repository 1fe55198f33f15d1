//! Network front door for the TiLT runtime.
//!
//! Everything the in-process [`tilt_runtime::StreamService`] offers —
//! batched ingest, the live attach/detach/subscribe control plane, and
//! the stats/metrics/journal scrape surface — exposed over TCP via a
//! hand-rolled, length-prefixed binary protocol, with nothing beyond the
//! standard library.
//!
//! Three layers:
//!
//! * [`protocol`] — framing and per-message field order over
//!   [`tilt_data::codec`]: the [`protocol::Message`] enum, one protocol
//!   version, and a total (panic-free) decoder hardened against hostile
//!   frames.
//! * [`Server`] — thread-per-connection TCP server owning an
//!   attach-first service and a catalog of prepared queries; surfaces
//!   shard backpressure to producers as explicit
//!   [`protocol::Message::Credit`] / [`protocol::Message::Busy`] grants.
//! * [`Client`] — the blocking client library: credit-driven ingest,
//!   remote attach/detach, and [`Subscription`] streams whose contents
//!   are byte-identical to an in-process run's per-key output.
//!
//! The wire format is specified in this crate's `README.md`; the
//! differential property suite (`server_protocol_properties`) holds the
//! remote path to identity with the in-process path at 1, 2, and 4
//! shards, in order and under bounded disorder.

#![warn(missing_docs)]

pub mod protocol;

mod client;
mod server;

pub use client::{
    Client, ClientConfig, ClientError, IngestReport, RemoteQuery, RemoteStats, RetryPolicy,
    Subscription,
};
pub use server::{Server, ServerConfig, BUSY_CREDIT, INITIAL_CREDIT};
