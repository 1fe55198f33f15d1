//! `tilt-runtime` — a sharded, keyed, out-of-order-tolerant streaming
//! service that serves a **dynamic set** of compiled TiLT queries over
//! many independent key streams.
//!
//! The TiLT compiler (paper §6) produces a [`CompiledQuery`] for a single
//! logical stream. Long-running services need the layer above: millions of
//! per-key streams (one per user, campaign, device, …) multiplexed over a
//! fixed worker pool, events arriving out of order, many queries watching
//! the same streams — and tenants coming and going *while the service
//! runs*. This crate provides that layer behind one handle-based control
//! plane, [`StreamService`]:
//!
//! * **Build → run** — [`StreamService::builder`] registers queries (each
//!   returning a typed [`QueryHandle`]) and [`StreamServiceBuilder::start`]
//!   spawns the shard workers;
//! * **Live attach/detach** — [`StreamService::attach`] admits a query to
//!   the *running* service: it joins at a negotiated frontier at or above
//!   the current watermark, and from that frontier onward its output is
//!   identical to a standalone service fed only the post-frontier suffix
//!   (cf. *Shared Arrangements*). [`StreamService::detach`] removes a
//!   query, reclaiming its per-key sessions and tombstone output
//!   ([`RuntimeStats::sessions_reclaimed`]). The service holds the one
//!   cell roster and decides each edit once; shards apply the edited
//!   cell it sends, and a checkpoint records the roster as it stands;
//! * **Per-query settings** — [`QuerySettings`] gives each registration its
//!   own allowed lateness, emission cadence, and sink instead of one
//!   group-wide conservative setting; queries with identical settings share
//!   an execution cell and its kernel-prefix dedup
//!   ([`tilt_core::sharing::QueryGroup`]);
//! * **Output subscription** — [`StreamService::subscribe`] installs a sink
//!   on a live query so finalized events stream out without waiting for
//!   [`StreamService::finish`];
//! * **Keyed ingestion** — [`StreamService::ingest`] hash-partitions
//!   [`KeyedEvent`]s across `N` shard threads over bounded channels
//!   (backpressure: producers block when a shard falls behind);
//! * **Out-of-order tolerance** — each shard holds a per-key, per-source
//!   reorder buffer shared by every query; events mature once a query's
//!   cell watermark passes them. Watermarks advance as `max event start
//!   seen − allowed_lateness` per source (floored by explicit
//!   [`StreamService::watermark`] promises) and their minimum over a
//!   cell's sources drives emission, so a slow source holds results back
//!   rather than corrupting them;
//! * **Hardening** — idle sessions are evicted by event-time TTL
//!   ([`RuntimeConfig::key_ttl`]) *and* wall-clock TTL
//!   ([`RuntimeConfig::wall_clock_ttl`]) so a shard with no traffic still
//!   frees memory; reorder buffers are capped
//!   ([`RuntimeConfig::max_pending_per_key`] /
//!   [`RuntimeConfig::max_pending_per_shard`] with a [`BackstopPolicy`]);
//!   kernel execution runs under `catch_unwind` so a poisoned key is
//!   quarantined instead of killing its shard;
//! * **Observability** — [`StreamService::stats`] snapshots throughput,
//!   watermark lag, late drops, per-query output counts and join
//!   frontiers, attach/detach/reclamation counters, eviction and
//!   quarantine gauges, queue depths, and kernel executions saved by
//!   dedup. Underneath, every counter lives in a `tilt_obs` metrics
//!   registry: [`StreamService::metrics`] exposes the full structured
//!   snapshot (including ingest-lag / watermark-lag / advance-time
//!   histograms and per-query attribution when
//!   [`RuntimeConfig::metrics`] is on), [`StreamService::metrics_text`]
//!   renders Prometheus text exposition, and [`StreamService::journal`]
//!   replays recent control-plane transitions
//!   (attach/detach/evict/revive/quarantine/backstop) from a bounded
//!   ring journal.
//!
//! Events later than every interested query's allowed lateness are
//! *dropped and counted* ([`RuntimeStats::late_dropped`]), the classic
//! watermark trade-off.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use tilt_core::ir::{DataType, Expr, Query, ReduceOp, TDom};
//! use tilt_core::Compiler;
//! use tilt_data::{Event, Time, Value};
//! use tilt_runtime::{KeyedEvent, RuntimeConfig, StreamService};
//!
//! // Per-key 4-tick sliding sum.
//! let mut b = Query::builder();
//! let input = b.input("x", DataType::Float);
//! let sum = b.temporal("sum", TDom::every_tick(), Expr::reduce_window(ReduceOp::Sum, input, 4));
//! let query = b.finish(sum).unwrap();
//! let cq = Arc::new(Compiler::new().compile(&query).unwrap());
//!
//! let mut builder = StreamService::builder(RuntimeConfig {
//!     shards: 2,
//!     allowed_lateness: 8,
//!     ..RuntimeConfig::default()
//! });
//! let sum_q = builder.register(Arc::clone(&cq));
//! let service = builder.start().unwrap();
//! // Two keys, events interleaved and out of order within each key.
//! service.ingest([
//!     KeyedEvent::new(7, 0, Event::point(Time::new(2), Value::Float(1.0))),
//!     KeyedEvent::new(9, 0, Event::point(Time::new(1), Value::Float(5.0))),
//!     KeyedEvent::new(7, 0, Event::point(Time::new(1), Value::Float(2.0))), // late, in bound
//!     KeyedEvent::new(9, 0, Event::point(Time::new(2), Value::Float(6.0))),
//! ]);
//! let output = service.finish_at(Time::new(4));
//! assert_eq!(output.stats.late_dropped, 0);
//! // Key 7 saw 1.0@2 and 2.0@1: the 4-tick sum at t=2 is 3.0.
//! let key7 = &output.per_query[sum_q.index()][&7];
//! assert!(key7.iter().any(|e| e.payload == Value::Float(3.0)));
//! ```
//!
//! # Live attach/detach example
//!
//! ```
//! use std::sync::Arc;
//! use tilt_core::ir::{DataType, Expr, Query, ReduceOp, TDom};
//! use tilt_core::Compiler;
//! use tilt_data::{Event, Time, Value};
//! use tilt_runtime::{KeyedEvent, QuerySettings, RuntimeConfig, StreamService};
//!
//! let compile = |window: i64| {
//!     let mut b = Query::builder();
//!     let input = b.input("x", DataType::Float);
//!     let s = b.temporal("s", TDom::every_tick(), Expr::reduce_window(ReduceOp::Sum, input, window));
//!     Arc::new(Compiler::new().compile(&b.finish(s).unwrap()).unwrap())
//! };
//! let mut builder = StreamService::builder(RuntimeConfig { shards: 2, ..Default::default() });
//! let q_fast = builder.register(compile(2));
//! let service = builder.start().unwrap();
//! let event = |t: i64| KeyedEvent::new(t as u64 % 5, 0, Event::point(Time::new(t), Value::Float(1.0)));
//! service.ingest((1..=50).map(event));
//!
//! // A tenant joins the *running* service: its handle records the
//! // negotiated frontier, and it sees exactly the post-frontier suffix.
//! let tenant = service.attach(compile(2), QuerySettings::default()).unwrap();
//! assert!(tenant.frontier() >= Time::new(50));
//! service.ingest((51..=100).map(event));
//!
//! let out = service.finish_at(Time::new(108));
//! assert_eq!(out.stats.attached, 1);
//! // Both queries are live through the shutdown flush; the tenant's
//! // output covers only ticks at or after its join frontier.
//! assert!(!out.per_query[q_fast.index()].is_empty());
//! assert!(out.per_query[tenant.index()]
//!     .values()
//!     .flatten()
//!     .all(|e| e.start >= tenant.frontier()));
//! ```

#![warn(missing_docs)]

mod durability;
mod shard;
mod stats;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

use tilt_core::ir::DataType;
use tilt_core::CompiledQuery;
use tilt_data::{Event, Time, Value};
use tilt_state::{SnapshotFile, SnapshotWriter, StateError};

pub use tilt_state::Lineage;

use durability::{ServiceRecord, SpillStore, KIND_SERVICE, KIND_SHARD};
use shard::{CellSpec, Shard, ShardMsg, ShardOutput};
pub use stats::{ControlEvent, RuntimeStats};
use stats::{SharedStats, SinkTable};

/// One event addressed to one key's stream.
///
/// `source` selects which input stream the event feeds (0 for single-input
/// queries). Source `i` feeds input `i` of every registered query that
/// declares at least `i + 1` inputs.
#[derive(Clone, Debug)]
pub struct KeyedEvent {
    /// The stream key (user id, campaign id, device id, …).
    pub key: u64,
    /// Index into the service's input sources.
    pub source: usize,
    /// The event itself.
    pub event: Event<Value>,
}

impl KeyedEvent {
    /// Convenience constructor.
    pub fn new(key: u64, source: usize, event: Event<Value>) -> Self {
        KeyedEvent { key, source, event }
    }
}

/// Streaming output consumer: called by shard threads with each key's
/// newly finalized events, in per-key time order.
pub type OutputSink = Arc<dyn Fn(u64, &[Event<Value>]) + Send + Sync>;

/// What a shard does when a reorder-buffer cap
/// ([`RuntimeConfig::max_pending_per_key`] /
/// [`RuntimeConfig::max_pending_per_shard`]) is hit.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum BackstopPolicy {
    /// Drop the incoming event and count it
    /// ([`RuntimeStats::backstop_dropped`]). Strictly bounds memory; the
    /// stream loses its newest out-of-order arrivals while the cap holds.
    #[default]
    DropNewest,
    /// Force-drain the oldest buffered events into their key's sessions
    /// ahead of the watermark, emitting what matures
    /// ([`RuntimeStats::backstop_forced`]). Nothing is lost at the moment
    /// the cap is hit, but the drained keys sacrifice lateness tolerance:
    /// stragglers older than the force-drained frontier are late-dropped.
    ForceDrain,
}

/// Configuration for [`StreamService::builder`].
#[derive(Clone, Copy, Debug)]
pub struct RuntimeConfig {
    /// Number of shard worker threads (keys are hash-partitioned across
    /// them). Defaults to available parallelism.
    pub shards: usize,
    /// Default allowed lateness (ticks): how late an event may arrive (its
    /// start relative to the newest event start seen on its source) before
    /// it is dropped. 0 = in-order input. Overridable per query via
    /// [`QuerySettings::allowed_lateness`].
    pub allowed_lateness: i64,
    /// Target bound on each shard's ingest queue, in events; producers
    /// block when a queue is full (backpressure). Enforced in channel
    /// messages as `max(channel_capacity / ingest_batch, 1)`, so it is
    /// exact for full [`StreamService::ingest`] batches; producers sending
    /// single-event messages ([`StreamService::send`]) hit the message
    /// bound after `channel_capacity / ingest_batch` events instead.
    pub channel_capacity: usize,
    /// Events per channel message: [`StreamService::ingest`] groups routed
    /// events into batches of this size to amortize channel overhead.
    pub ingest_batch: usize,
    /// Default minimum watermark advance (ticks) between kernel re-runs per
    /// key. Larger values batch more input into each kernel invocation.
    /// Overridable per query via [`QuerySettings::emit_interval`].
    pub emit_interval: i64,
    /// Logical start of every key's timeline.
    pub start: Time,
    /// Event-time idle-eviction TTL in ticks: a key whose reorder buffers
    /// are empty and whose newest event trails the shard's emission horizon
    /// by more than this is retired — its sessions (history, buffers) are
    /// torn down and transparently re-created if the key revives. `None`
    /// (default) keeps every session forever. The TTL is clamped up to the
    /// widest live query's *state horizon* (input lookback + the lookahead
    /// emission trails the watermark by — the aligned one, 0 for window
    /// reduces without a forward shift — + 2 grid steps) so eviction never
    /// changes output; an evicted key's revival
    /// events must start at or after its eviction frontier (earlier
    /// stragglers are late-dropped, as they would be past any lateness
    /// horizon).
    pub key_ttl: Option<i64>,
    /// Wall-clock idle-eviction TTL: a key that has received no events for
    /// this long is retired even if the event-time watermark never moved —
    /// the escape hatch for shards whose sources went silent entirely,
    /// where the purely event-time `key_ttl` can never fire. Anything the
    /// key still has buffered is force-flushed through its sessions first
    /// (the wall clock, not the watermark, declares the stream over) and
    /// the key is tombstoned past its full output tail, so for traffic
    /// that simply stopped the output is unchanged; in-bound stragglers
    /// arriving *after* the eviction land behind that frontier and are
    /// late-dropped — the trade wall-clock reclamation makes that
    /// event-time eviction never has to. `None` (default) disables
    /// wall-clock eviction.
    pub wall_clock_ttl: Option<Duration>,
    /// Cap on buffered out-of-order events per key and source (`None` =
    /// unbounded). On overflow, [`RuntimeConfig::backstop`] applies.
    pub max_pending_per_key: Option<usize>,
    /// Cap on buffered out-of-order events across a whole shard (`None` =
    /// unbounded) — the OOM backstop for a stalled source holding the
    /// watermark while other sources keep feeding. On overflow,
    /// [`RuntimeConfig::backstop`] applies to the fullest key.
    pub max_pending_per_shard: Option<usize>,
    /// What to do when a reorder-buffer cap is hit.
    pub backstop: BackstopPolicy,
    /// Enables detailed metrics: latency/lag histograms, per-query late
    /// and shared-kernel attribution, and the control-plane event journal.
    /// The base counters behind [`StreamService::stats`] are always
    /// maintained; disabling this only turns off the parts that cost extra
    /// work on the hot path (clock reads, histogram records, journal
    /// pushes). Output events are byte-identical either way.
    pub metrics: bool,
    /// Capacity (events) of the bounded control-plane journal ring; when
    /// full, the oldest entries are overwritten and counted
    /// ([`tilt_obs::JournalSnapshot::dropped`]). Ignored when
    /// [`RuntimeConfig::metrics`] is off.
    pub journal_capacity: usize,
    /// Cap on the sink-less output events a *retired* key's tombstone may
    /// hold per query (`None` = unbounded, the default). Without a cap, a
    /// churning key population under eviction accumulates output in
    /// tombstones forever when nobody installed a sink; with one, each
    /// retiring key keeps only its newest `cap` events per query and the
    /// trimmed events are counted ([`RuntimeStats::tombstone_dropped`]).
    /// Live keys are never capped — [`StreamService::finish`] returns
    /// their output in full. Spilling
    /// ([`StreamServiceBuilder::spill_to`]) supersedes this: spilled keys
    /// hold no in-memory tombstone at all.
    pub tombstone_output_cap: Option<usize>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            shards: std::thread::available_parallelism().map_or(4, |n| n.get()),
            allowed_lateness: 0,
            channel_capacity: 65_536,
            ingest_batch: 256,
            emit_interval: 64,
            start: Time::ZERO,
            key_ttl: None,
            wall_clock_ttl: None,
            max_pending_per_key: None,
            max_pending_per_shard: None,
            backstop: BackstopPolicy::DropNewest,
            metrics: true,
            journal_capacity: 1024,
            tombstone_output_cap: None,
        }
    }
}

/// Per-query settings, resolved against the service-wide
/// [`RuntimeConfig`] defaults at registration.
#[derive(Clone, Default)]
pub struct QuerySettings {
    /// Allowed lateness for this query, in ticks (`None` inherits
    /// [`RuntimeConfig::allowed_lateness`]). Queries with a larger bound
    /// hold shared reorder-buffer entries longer; each query drops exactly
    /// the stragglers *its* bound refuses.
    pub allowed_lateness: Option<i64>,
    /// Emission cadence for this query (`None` inherits
    /// [`RuntimeConfig::emit_interval`]).
    pub emit_interval: Option<i64>,
    /// Where this query's finalized events stream, if anywhere (also
    /// installable later via [`StreamService::subscribe`]).
    pub sink: Option<OutputSink>,
}

impl QuerySettings {
    /// Settings that inherit every service default and stream to `sink`.
    pub fn with_sink(sink: OutputSink) -> QuerySettings {
        QuerySettings { sink: Some(sink), ..QuerySettings::default() }
    }

    /// The resolved (allowed lateness, emission cadence): what decides
    /// which cell a query joins.
    fn resolve(&self, config: &RuntimeConfig) -> (i64, i64) {
        (
            self.allowed_lateness.unwrap_or(config.allowed_lateness),
            self.emit_interval.unwrap_or(config.emit_interval),
        )
    }
}

impl std::fmt::Debug for QuerySettings {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuerySettings")
            .field("allowed_lateness", &self.allowed_lateness)
            .field("emit_interval", &self.emit_interval)
            .field("sink", &self.sink.as_ref().map(|_| "…"))
            .finish()
    }
}

/// Identifies one registered query of a [`StreamService`] and records the
/// frontier it joined at.
///
/// Handles index [`ServiceOutput::per_query`],
/// [`RuntimeStats::events_out_per_query`], and
/// [`RuntimeStats::query_frontiers`]; they stay valid (for indexing) after
/// detach — slots are never reused.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct QueryHandle {
    id: usize,
    frontier: Time,
}

impl QueryHandle {
    /// The query's slot in registration order.
    pub fn index(self) -> usize {
        self.id
    }

    /// The join frontier this query was admitted at: `config.start` for
    /// queries registered before the service started, the negotiated
    /// frontier (≥ every watermark at attach time) for live attaches. The
    /// query's output covers only ticks at or after it.
    pub fn frontier(self) -> Time {
        self.frontier
    }
}

/// Control-plane errors from [`StreamService::attach`] /
/// [`StreamService::detach`] / [`StreamService::subscribe`].
#[derive(Debug)]
pub enum ServiceError {
    /// The query could not be admitted (source-type conflict with a live
    /// query, or query-group construction failed).
    Compile(tilt_core::CompileError),
    /// The handle does not name a query of this service.
    UnknownQuery(usize),
    /// The query was already detached.
    Detached(usize),
    /// A durable-state operation failed (spill-store creation, checkpoint
    /// I/O, or a rejected snapshot).
    Durability(StateError),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Compile(e) => write!(f, "cannot admit query: {e}"),
            ServiceError::UnknownQuery(id) => write!(f, "unknown query handle {id}"),
            ServiceError::Detached(id) => write!(f, "query {id} was already detached"),
            ServiceError::Durability(e) => write!(f, "durable state error: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<tilt_core::CompileError> for ServiceError {
    fn from(e: tilt_core::CompileError) -> Self {
        ServiceError::Compile(e)
    }
}

impl From<StateError> for ServiceError {
    fn from(e: StateError) -> Self {
        ServiceError::Durability(e)
    }
}

/// One query's finalized output events, per key.
pub type PerKeyOutput = HashMap<u64, Vec<Event<Value>>>;

/// Everything a [`StreamService`] hands back when it drains and shuts
/// down.
#[derive(Debug)]
pub struct ServiceOutput {
    /// Per registered query (indexed by [`QueryHandle::index`]): finalized
    /// output events per key. Every map carries an entry for every key the
    /// service saw; the vectors are empty for queries whose sinks consumed
    /// their events and for detached queries (whose accumulated output was
    /// reclaimed).
    pub per_query: Vec<PerKeyOutput>,
    /// Final counter snapshot.
    pub stats: RuntimeStats,
    /// Final metrics-registry snapshot (counters, gauges, histograms),
    /// exportable via [`tilt_obs::MetricsSnapshot::to_prometheus`] /
    /// [`tilt_obs::MetricsSnapshot::to_json`].
    pub metrics: tilt_obs::MetricsSnapshot,
    /// Final control-plane journal snapshot (empty when
    /// [`RuntimeConfig::metrics`] is off).
    pub journal: tilt_obs::JournalSnapshot<ControlEvent>,
}

/// The service's registry: the query slots and the one cell roster.
/// Attach and detach decide each roster edit here, once, and send shards
/// the edited cell; a checkpoint records the roster as it stands, and
/// restore rebuilds it from that record.
#[derive(Debug, Default)]
struct Registry {
    /// Liveness per query slot.
    live: Vec<bool>,
    /// Source payload types any live-or-past query has declared, by source
    /// position (conservative: never shrinks on detach).
    source_types: Vec<Option<DataType>>,
    /// The cell roster, dead cells included: slots are never reused, so
    /// roster indices in per-key state stay valid.
    cells: Vec<Arc<CellSpec>>,
}

/// Registers queries for a [`StreamService`] before it starts; create with
/// [`StreamService::builder`].
///
/// Queries registered with identical (resolved) lateness and emission
/// cadence share one execution cell, so structurally identical kernel
/// prefixes across them execute once per advance.
pub struct StreamServiceBuilder {
    config: RuntimeConfig,
    regs: Vec<(Arc<CompiledQuery>, QuerySettings)>,
    spill_dir: Option<PathBuf>,
}

impl StreamServiceBuilder {
    /// Enables cold spill: idle-evicted keys serialize their state
    /// verbatim into single-record bundle files under `dir` instead of
    /// being flushed and tombstoned, and revive transparently — byte-for-
    /// byte identically — when the key next receives an event (or at the
    /// final flush). Bounds resident memory by the *hot* key population
    /// under churn while keeping every key's output exact. The directory
    /// is created if needed.
    pub fn spill_to(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }
    /// Registers a query with default settings; its outputs accumulate
    /// until [`StreamService::finish`].
    pub fn register(&mut self, cq: Arc<CompiledQuery>) -> QueryHandle {
        self.register_with(cq, QuerySettings::default())
    }

    /// Registers a query with explicit per-query settings.
    pub fn register_with(
        &mut self,
        cq: Arc<CompiledQuery>,
        settings: QuerySettings,
    ) -> QueryHandle {
        self.regs.push((cq, settings));
        QueryHandle { id: self.regs.len() - 1, frontier: self.config.start }
    }

    /// Spawns the shard workers and returns the running service. A builder
    /// with no registrations starts an *empty* service — attach queries
    /// before ingesting events.
    ///
    /// # Errors
    ///
    /// Fails when two queries declare different payload types for the same
    /// source position, or a query group cannot be built.
    pub fn start(self) -> Result<StreamService, ServiceError> {
        let config = self.config;
        let mut service = StreamService::unspawned(config);
        let mut registry = service.registry.lock().expect("registry lock");
        // One cell per distinct (lateness, cadence) pair, in registration
        // order.
        let mut cells: Vec<((i64, i64), Vec<usize>)> = Vec::new();
        for (cq, settings) in &self.regs {
            let qid =
                service.admit(&mut registry, cq, config.start, false, settings.sink.clone())?;
            let cadence = settings.resolve(&config);
            match cells.iter_mut().find(|(c, _)| *c == cadence) {
                Some((_, qids)) => qids.push(qid),
                None => cells.push((cadence, vec![qid])),
            }
        }
        for ((lateness, emit_interval), qids) in cells {
            let members = qids.iter().map(|&q| Arc::clone(&self.regs[q].0)).collect();
            let spec = CellSpec::new(members, qids, config.start, lateness, emit_interval)?;
            registry.cells.push(Arc::new(spec));
        }
        drop(registry);
        let spill = match &self.spill_dir {
            Some(dir) => Some(Arc::new(SpillStore::open(dir)?)),
            None => None,
        };
        service.spawn(spill);
        Ok(service)
    }
}

/// A running sharded streaming service over a **dynamic set of registered
/// queries** sharing one ingested keyed stream.
///
/// Build with [`StreamService::builder`], feed with
/// [`StreamService::ingest`], grow and shrink the query set with
/// [`StreamService::attach`] / [`StreamService::detach`], observe with
/// [`StreamService::stats`] and [`StreamService::subscribe`], and shut
/// down with [`StreamService::finish`] / [`StreamService::finish_at`]
/// (graceful drain: buffered events are flushed through the final horizon
/// before worker threads exit). Dropping a service without finishing also
/// joins the workers, discarding their output.
///
/// **Sharing.** Ingestion, hash-partitioning, reorder buffering, and
/// watermark tracking happen once per shard regardless of how many queries
/// are registered; queries with identical settings and join frontier
/// additionally share structurally identical kernel prefixes
/// ([`tilt_core::sharing::QueryGroup`]). Each query's output is observationally identical to
/// running it alone — the differential property suites pin this guarantee.
///
/// **Watermarks are per cell.** Emission for a query is driven by the
/// minimum watermark over the sources *its cell* reads, under *its*
/// allowed lateness. Queries of different input arity registered with the
/// same settings still gate each other (they share a cell); give the
/// narrow query its own [`QuerySettings`] to decouple it.
///
/// **Attach semantics.** A query attached mid-stream joins at a negotiated
/// frontier ≥ every current watermark ([`QueryHandle::frontier`]). Events
/// ingested after `attach` returns whose start is at or after the frontier
/// are guaranteed visible to it; its output is identical, per key, to a
/// standalone service (with `config.start` = the frontier) fed only those
/// suffix events. Events concurrently in flight during the call may or may
/// not be seen.
#[derive(Debug)]
pub struct StreamService {
    config: RuntimeConfig,
    senders: Vec<SyncSender<ShardMsg>>,
    handles: Vec<JoinHandle<ShardOutput>>,
    stats: Arc<SharedStats>,
    sinks: Arc<SinkTable>,
    /// Held for every roster edit, and by a checkpoint from its barrier
    /// until its record is built.
    registry: Mutex<Registry>,
    shards: usize,
    ingest_batch: usize,
    /// Key-route overrides installed by migrations: keys not present here
    /// route by [`shard_index`] as always.
    routes: RwLock<HashMap<u64, usize, KeyHash>>,
    /// Fast-path flag: `false` until the first migration, so services that
    /// never rebalance pay one relaxed load (no lock) per routed event.
    routed: AtomicBool,
}

impl StreamService {
    /// A service with an empty registry and no shard workers: admit its
    /// query slots, build its roster, then [`StreamService::spawn`].
    fn unspawned(config: RuntimeConfig) -> StreamService {
        let shards = config.shards.max(1);
        StreamService {
            config,
            senders: Vec::with_capacity(shards),
            handles: Vec::with_capacity(shards),
            stats: Arc::new(SharedStats::new(shards, config.metrics, config.journal_capacity)),
            sinks: Arc::new(SinkTable::new()),
            registry: Mutex::default(),
            shards,
            ingest_batch: config.ingest_batch.max(1),
            routes: RwLock::default(),
            routed: AtomicBool::new(false),
        }
    }

    /// Spawns the shard workers over the roster in the registry.
    fn spawn(&mut self, spill: Option<Arc<SpillStore>>) {
        let cells = self.registry.get_mut().expect("registry lock").cells.clone();
        let cap_msgs = (self.config.channel_capacity / self.ingest_batch).max(1);
        for id in 0..self.shards {
            let (tx, rx) = std::sync::mpsc::sync_channel(cap_msgs);
            let sinks = Arc::clone(&self.sinks);
            let shard =
                Shard::new(id, &cells, self.config, sinks, Arc::clone(&self.stats), spill.clone());
            let handle = std::thread::Builder::new()
                .name(format!("tilt-shard-{id}"))
                .spawn(move || shard.run(rx))
                .expect("spawn shard worker");
            self.senders.push(tx);
            self.handles.push(handle);
        }
        self.routed = AtomicBool::new(!self.routes.get_mut().expect("route lock").is_empty());
    }

    /// Admits one query slot — the one admission start, attach and restore
    /// share: checks `cq`'s source payload types against every earlier
    /// slot's and records its own, then gives the slot its liveness,
    /// counters, join frontier and sink. Returns the slot.
    fn admit(
        &self,
        registry: &mut Registry,
        cq: &CompiledQuery,
        frontier: Time,
        live_attach: bool,
        sink: Option<OutputSink>,
    ) -> Result<usize, ServiceError> {
        let q = cq.query();
        for (i, obj) in q.inputs().iter().enumerate() {
            let Some(ty) = q.input_type(*obj) else { continue };
            if registry.source_types.len() <= i {
                registry.source_types.resize(i + 1, None);
            }
            match &registry.source_types[i] {
                None => registry.source_types[i] = Some(ty.clone()),
                Some(prev) if prev == ty => {}
                Some(prev) => {
                    return Err(ServiceError::Compile(tilt_core::CompileError::Type(format!(
                        "query reads source {i} as {ty:?}, \
                         but a registered query reads it as {prev:?}"
                    ))));
                }
            }
        }
        registry.live.push(true);
        let qid = self.stats.register_query(frontier, live_attach);
        debug_assert_eq!(qid + 1, registry.live.len());
        self.sinks.push(sink);
        Ok(qid)
    }

    /// The shard serving `key` right now: the migration route override if
    /// one exists, the stable hash partition otherwise.
    fn route_of(&self, key: u64) -> usize {
        if self.routed.load(Ordering::Relaxed) {
            if let Some(&s) = self.routes.read().expect("route lock").get(&key) {
                return s;
            }
        }
        shard_index(key, self.shards)
    }

    fn set_route(&self, key: u64, shard: usize) {
        self.routes.write().expect("route lock").insert(key, shard);
        self.routed.store(true, Ordering::Relaxed);
    }

    /// The frontier a query attaching right now joins at: past every event
    /// already ingested (event starts are strictly below their ends) and
    /// every explicit watermark promise, hence at or above every shard's
    /// current and future-given-no-new-input watermark. Monotone
    /// non-decreasing across attaches.
    fn negotiate_frontier(&self) -> Time {
        let seen = Time::new(self.stats.max_event_end.get());
        let promised = Time::new(self.stats.max_promise.get());
        self.config.start.max(seen).max(promised)
    }

    /// Enqueues one routed batch, returning `true` if the shard's queue
    /// was full and the send had to block (the backpressure signal remote
    /// front ends surface to their producers as `Busy`).
    fn send_batch(&self, shard: usize, batch: Vec<KeyedEvent>) -> bool {
        self.stats.queue_depth[shard].add(batch.len() as i64);
        // A send can only fail if the shard thread died; surface that on
        // join rather than panicking mid-ingest.
        // Delay-only failpoint: a cross-thread send must never drop the
        // batch (that would lose events), so error policies are inert here
        // and Delay models a stalled shard queue instead.
        tilt_fault::fail_point!("runtime.shard.send");
        match self.senders[shard].try_send(ShardMsg::Batch(batch)) {
            Ok(()) => false,
            Err(std::sync::mpsc::TrySendError::Full(msg)) => {
                let _ = self.senders[shard].send(msg);
                true
            }
            Err(std::sync::mpsc::TrySendError::Disconnected(_)) => false,
        }
    }

    /// Starts registering queries for a new service.
    pub fn builder(config: RuntimeConfig) -> StreamServiceBuilder {
        StreamServiceBuilder { config, regs: Vec::new(), spill_dir: None }
    }

    /// Starts an empty service (attach queries before ingesting events).
    pub fn start(config: RuntimeConfig) -> StreamService {
        StreamService::builder(config).start().expect("empty registration cannot conflict")
    }

    /// Attaches `cq` to the running service as a new query with its own
    /// settings. Returns a handle recording the negotiated join frontier;
    /// see the [type-level docs](StreamService) for the exact visibility
    /// guarantee.
    ///
    /// # Errors
    ///
    /// Fails when the query's source payload types conflict with a
    /// registered query's.
    pub fn attach(
        &self,
        cq: Arc<CompiledQuery>,
        settings: QuerySettings,
    ) -> Result<QueryHandle, ServiceError> {
        let mut registry = self.registry.lock().expect("registry lock");
        let frontier = self.negotiate_frontier();
        let (lateness, emit_interval) = settings.resolve(&self.config);
        let qids = vec![registry.live.len()];
        let spec = CellSpec::new(vec![Arc::clone(&cq)], qids, frontier, lateness, emit_interval)?;
        let qid = self.admit(&mut registry, &cq, frontier, true, settings.sink)?;
        let spec = Arc::new(spec);
        registry.cells.push(Arc::clone(&spec));
        for tx in &self.senders {
            let _ = tx.send(ShardMsg::Attach(Arc::clone(&spec)));
        }
        Ok(QueryHandle { id: qid, frontier })
    }

    /// Detaches a query from the running service. Surviving queries are
    /// unaffected (their outputs stay byte-identical); the detached
    /// query's per-key sessions and tombstone output slots are reclaimed
    /// ([`RuntimeStats::sessions_reclaimed`]), and its slot in
    /// [`ServiceOutput::per_query`] comes back empty.
    ///
    /// # Errors
    ///
    /// Fails when the handle is unknown or already detached.
    pub fn detach(&self, handle: QueryHandle) -> Result<(), ServiceError> {
        let mut registry = self.registry.lock().expect("registry lock");
        match registry.live.get(handle.id) {
            None => return Err(ServiceError::UnknownQuery(handle.id)),
            Some(false) => return Err(ServiceError::Detached(handle.id)),
            Some(true) => {}
        }
        // The roster edit, decided once for every shard: a single-member
        // cell dies in place (its slot is never reused), a multi-member
        // cell sheds the leaving query.
        let ci = registry
            .cells
            .iter()
            .position(|c| c.alive && c.qids.contains(&handle.id))
            .expect("a live query belongs to a live cell");
        let mut spec = CellSpec::clone(&registry.cells[ci]);
        if spec.qids.len() == 1 {
            spec.alive = false;
        } else {
            let mi = spec.qids.iter().position(|q| *q == handle.id).expect("member found");
            let group = spec.group.without_member(mi).expect("the group keeps a member");
            spec.group = Arc::new(group);
            spec.qids.remove(mi);
        }
        let spec = Arc::new(spec);
        registry.cells[ci] = Arc::clone(&spec);
        registry.live[handle.id] = false;
        self.stats.note_detach(handle.id);
        self.sinks.set(handle.id, None);
        for tx in &self.senders {
            let msg = ShardMsg::Detach { qid: handle.id, cell: ci, spec: Arc::clone(&spec) };
            let _ = tx.send(msg);
        }
        Ok(())
    }

    /// Installs (or replaces) a live query's output sink: finalized events
    /// stream to it from now on, without waiting for
    /// [`StreamService::finish`]. Events finalized *before* the
    /// subscription keep accumulating for the shutdown output.
    ///
    /// # Errors
    ///
    /// Fails when the handle is unknown or detached.
    pub fn subscribe(&self, handle: QueryHandle, sink: OutputSink) -> Result<(), ServiceError> {
        let registry = self.registry.lock().expect("registry lock");
        match registry.live.get(handle.id) {
            None => return Err(ServiceError::UnknownQuery(handle.id)),
            Some(false) => return Err(ServiceError::Detached(handle.id)),
            Some(true) => {}
        }
        self.sinks.set(handle.id, Some(sink));
        Ok(())
    }

    /// Number of queries currently being served.
    pub fn num_queries(&self) -> usize {
        let registry = self.registry.lock().expect("registry lock");
        registry.live.iter().filter(|l| **l).count()
    }

    /// Which shard serves `key`: the stable hash partition, unless a
    /// migration ([`StreamService::migrate_key`] /
    /// [`StreamService::rebalance`]) installed a route override.
    pub fn shard_of(&self, key: u64) -> usize {
        self.route_of(key)
    }

    /// Routes and enqueues events once for all registered queries,
    /// blocking when a destination shard's queue is full (backpressure).
    /// Events for different keys may be interleaved arbitrarily; within a
    /// key and source, arrival order may deviate from time order by up to
    /// the configured allowed lateness.
    pub fn ingest<I: IntoIterator<Item = KeyedEvent>>(&self, events: I) {
        self.ingest_with_pressure(events);
    }

    /// Like [`StreamService::ingest`], but additionally reports whether
    /// backpressure engaged: `true` means at least one destination shard's
    /// queue was full when a batch arrived and the enqueue had to block
    /// until the shard caught up. The events are delivered either way.
    ///
    /// This is the entry point for network front ends (`tilt-server`) that
    /// surface backpressure to remote producers as explicit `Busy` replies
    /// instead of silently blocking their connection threads.
    pub fn ingest_with_pressure<I: IntoIterator<Item = KeyedEvent>>(&self, events: I) -> bool {
        let mut routed: Vec<Vec<KeyedEvent>> = (0..self.shards).map(|_| Vec::new()).collect();
        let mut n: u64 = 0;
        let mut stalled = false;
        // The newest event end routed so far, published before every send:
        // an attach negotiating its frontier right after a shard received a
        // message sees the end of every event in it (one atomic per
        // message, not per event).
        let mut max_end = Time::MIN;
        for ev in events {
            n += 1;
            max_end = max_end.max(ev.event.end);
            let s = self.route_of(ev.key);
            routed[s].push(ev);
            if routed[s].len() >= self.ingest_batch {
                self.stats.note_event_end(max_end);
                stalled |= self.send_batch(s, std::mem::take(&mut routed[s]));
            }
        }
        if n > 0 {
            self.stats.note_event_end(max_end);
        }
        for (s, batch) in routed.into_iter().enumerate() {
            if !batch.is_empty() {
                stalled |= self.send_batch(s, batch);
            }
        }
        self.stats.events_in.add(n);
        stalled
    }

    /// Ingests a single event ([`StreamService::ingest`] amortizes
    /// better).
    pub fn send(&self, event: KeyedEvent) {
        self.stats.note_event_end(event.event.end);
        let s = self.route_of(event.key);
        self.send_batch(s, vec![event]);
        self.stats.events_in.inc();
    }

    /// Broadcasts an explicit watermark: source `source` promises to
    /// deliver no further events starting at or before `time`. Drives
    /// emission forward on sources that have gone quiet. Floors, never
    /// regresses: a promise behind the observed event frontier is a no-op.
    pub fn watermark(&self, source: usize, time: Time) {
        self.stats.note_promise(time);
        for tx in &self.senders {
            let _ = tx.send(ShardMsg::Watermark { source, time });
        }
    }

    /// Snapshots service health counters.
    pub fn stats(&self) -> RuntimeStats {
        self.stats.snapshot()
    }

    /// Snapshots the full metrics registry: every counter, gauge, and
    /// histogram, with labels — the structured superset of
    /// [`StreamService::stats`]. Export with
    /// [`tilt_obs::MetricsSnapshot::to_prometheus`] or
    /// [`tilt_obs::MetricsSnapshot::to_json`].
    pub fn metrics(&self) -> tilt_obs::MetricsSnapshot {
        self.stats.metrics()
    }

    /// The metrics registry in Prometheus text exposition format —
    /// shorthand for `self.metrics().to_prometheus()`.
    pub fn metrics_text(&self) -> String {
        self.stats.metrics().to_prometheus()
    }

    /// Snapshots the control-plane event journal: attach/detach,
    /// eviction, revival, quarantine, and backstop-drain transitions in
    /// sequence order. Empty when [`RuntimeConfig::metrics`] is off.
    pub fn journal(&self) -> tilt_obs::JournalSnapshot<ControlEvent> {
        self.stats.journal_snapshot()
    }

    /// The metrics registry every service instrument lives in. Front ends
    /// layered over the service (e.g. the `tilt-server` wire protocol)
    /// register their own instruments here so one
    /// [`StreamService::metrics_text`] scrape covers the whole process.
    pub fn registry(&self) -> Arc<tilt_obs::Registry> {
        Arc::clone(&self.stats.registry)
    }

    /// Appends a control-plane transition to the service journal on behalf
    /// of a front end layered over the service — the hook `tilt-server`
    /// uses to journal [`ControlEvent::Connect`] /
    /// [`ControlEvent::Disconnect`] / [`ControlEvent::Subscribe`]
    /// alongside the transitions the shards record themselves. A no-op
    /// when [`RuntimeConfig::metrics`] is off, like every other journal
    /// write.
    pub fn record_control(&self, event: ControlEvent) {
        self.stats.note_control(event);
    }

    /// Checkpoints the whole service into one snapshot file at `path`,
    /// returning the bytes written.
    ///
    /// Each shard is quiesced with an in-band message: the channel is
    /// FIFO, so the shard's reply reflects every batch enqueued before
    /// this call, and the snapshot is a consistent frontier for any
    /// driver that ingests and checkpoints from one thread. The file
    /// holds the service header (config, query and cell rosters, route
    /// overrides, counters) plus one record per shard (sessions, reorder
    /// buffers, tombstones, watermarks, emission progress), each
    /// CRC-guarded; a service rebuilt by [`StreamService::restore`]
    /// produces byte-identical subsequent output.
    ///
    /// Keys currently spilled to a cold store are *not* captured — their
    /// bundles live in the spill directory, not the snapshot. Checkpoint
    /// a spilling service only when spill and snapshot directories are
    /// preserved together (the property suites exercise them
    /// separately).
    ///
    /// The roster is locked from the barrier until the service record is
    /// built, so an attach or detach from another thread lands wholly
    /// before the cut or wholly after it.
    pub fn checkpoint(&self, path: &Path) -> Result<u64, StateError> {
        let registry = self.registry.lock().expect("registry lock");
        let mut pending = Vec::with_capacity(self.senders.len());
        let mut resumes = Vec::with_capacity(self.senders.len());
        for tx in &self.senders {
            let (reply, rx) = std::sync::mpsc::sync_channel(1);
            let (resume_tx, resume) = std::sync::mpsc::sync_channel(1);
            if tx.send(ShardMsg::Checkpoint { reply, resume }).is_err() {
                return Err(StateError::Corrupt("shard exited before checkpoint"));
            }
            pending.push(rx);
            resumes.push(resume_tx);
        }
        let mut shard_payloads = Vec::with_capacity(pending.len());
        for rx in pending {
            match rx.recv() {
                Ok(p) => shard_payloads.push(p),
                Err(_) => return Err(StateError::Corrupt("shard exited during checkpoint")),
            }
        }
        // Every shard is now parked at the barrier: the counters read
        // below describe exactly the state the payloads carry. Counted
        // before the record is built so the snapshot itself remembers
        // this checkpoint: a restored service reports the checkpoint
        // lineage it came from.
        self.stats.checkpoints.inc();
        let record = self.service_record(&registry);
        drop(registry);
        drop(resumes);
        let mut w = SnapshotWriter::create(path)?;
        w.record(KIND_SERVICE, &record.encode())?;
        for p in &shard_payloads {
            w.record(KIND_SHARD, p)?;
        }
        let bytes = w.finish()?;
        self.stats.state_bytes_written.add(bytes);
        self.stats.note_control(ControlEvent::Checkpoint { shards: shard_payloads.len(), bytes });
        Ok(bytes)
    }

    /// Checkpoints into the next numbered member of a snapshot
    /// [`Lineage`] and prunes old generations, returning the published
    /// path and the bytes written. Combined with
    /// [`StreamService::restore_latest`] this is the crash-safe
    /// checkpoint loop: every write stages to `*.part` and renames over
    /// a *new* index, so no failure mode — torn write, failed fsync,
    /// failed rename, power loss — can damage an already-published
    /// snapshot.
    pub fn checkpoint_to(&self, lineage: &Lineage) -> Result<(PathBuf, u64), StateError> {
        let path = lineage.next_path();
        let bytes = self.checkpoint(&path)?;
        lineage.prune();
        Ok((path, bytes))
    }

    /// Rebuilds a service from the newest member of `lineage` that both
    /// validates *and* restores, walking backwards over retained
    /// generations. A torn or corrupt newer snapshot (a crash
    /// mid-checkpoint that somehow published, or bit rot since) falls
    /// back to the previous one instead of failing the recovery.
    /// Returns the service and the path it was restored from; errors
    /// only when no retained member restores.
    pub fn restore_latest(
        lineage: &Lineage,
        queries: &[Arc<CompiledQuery>],
    ) -> Result<(StreamService, PathBuf), StateError> {
        let mut last_err = StateError::Corrupt("snapshot lineage is empty");
        for path in lineage.paths().into_iter().rev() {
            match Self::restore(&path, queries) {
                Ok(service) => return Ok((service, path)),
                Err(e) => last_err = e,
            }
        }
        Err(last_err)
    }

    /// Assembles the service-wide checkpoint header from the registry,
    /// route table, and counter registry.
    fn service_record(&self, registry: &Registry) -> ServiceRecord {
        let mut routes: Vec<(u64, u32)> =
            self.routes.read().expect("route lock").iter().map(|(k, s)| (*k, *s as u32)).collect();
        routes.sort_unstable();
        ServiceRecord {
            config: self.config,
            live: registry.live.clone(),
            frontiers: self
                .stats
                .query_frontier
                .read()
                .expect("stats lock")
                .iter()
                .map(|t| Time::new(*t))
                .collect(),
            cells: registry.cells.clone(),
            routes,
            counters: self.stats.durable_counters(),
            max_event_end: self.stats.max_event_end.get(),
            max_promise: self.stats.max_promise.get(),
        }
    }

    /// Rebuilds a service from a [`StreamService::checkpoint`] snapshot.
    ///
    /// `queries` must provide the compiled query for every recorded slot,
    /// in registration order — queries are code, not data, so the
    /// snapshot records only their roster and the caller re-supplies the
    /// compiled artifacts (detached slots still need theirs). The cell
    /// roster comes back exactly as recorded, detach edits included: a
    /// dead cell stays dead in its slot, so roster indices stay stable,
    /// and a cell that shed members is rebuilt over the ones it kept.
    /// Every shard's record is checked against that roster. The restored
    /// service's subsequent output is byte-identical to one that never
    /// stopped: sessions, reorder buffers (with per-cell consumption
    /// flags), tombstones, watermarks, emission progress, route
    /// overrides, and counters all resume exactly.
    ///
    /// Sinks are *not* restored (closures don't serialize) — re-install
    /// them with [`StreamService::subscribe`]. A torn, truncated, or
    /// bit-flipped snapshot is rejected with a typed [`StateError`]; it
    /// never panics and never half-starts a service.
    pub fn restore(
        path: &Path,
        queries: &[Arc<CompiledQuery>],
    ) -> Result<StreamService, StateError> {
        let file = SnapshotFile::read(path)?;
        let bytes = file.bytes();
        let records = file.records();
        let Some((kind, service_payload)) = records.first() else {
            return Err(StateError::Corrupt("snapshot holds no records"));
        };
        if *kind != KIND_SERVICE {
            return Err(StateError::Corrupt("snapshot does not start with a service record"));
        }
        let record = ServiceRecord::decode(service_payload, queries)?;
        let shards = record.config.shards.max(1);
        let shard_records = &records[1..];
        if shard_records.len() != shards {
            return Err(StateError::Corrupt("shard record count does not match the config"));
        }
        if shard_records.iter().any(|(k, _)| *k != KIND_SHARD) {
            return Err(StateError::Corrupt("unexpected record kind after the service record"));
        }
        if queries.len() != record.live.len() {
            return Err(StateError::Corrupt("restore needs one compiled query per recorded slot"));
        }
        let mut service = StreamService::unspawned(record.config);
        let stats = Arc::clone(&service.stats);
        let mut registry = service.registry.lock().expect("registry lock");
        for (qid, cq) in queries.iter().enumerate() {
            service
                .admit(&mut registry, cq, record.frontiers[qid], false, None)
                .map_err(|_| StateError::Corrupt("query conflicts with recorded source types"))?;
            if !record.live[qid] {
                registry.live[qid] = false;
                stats.queries_live.sub(1);
            }
        }
        registry.cells = record.cells;
        drop(registry);
        stats.restore_counters(&record.counters);
        stats.max_event_end.set_max(record.max_event_end);
        stats.max_promise.set_max(record.max_promise);
        *service.routes.get_mut().expect("route lock") =
            record.routes.iter().map(|&(k, s)| (k, s as usize)).collect();
        service.spawn(None);
        // Install each shard's recorded state as that shard's first
        // message; a rejected record aborts the whole restore (dropping
        // the half-built service joins its workers).
        for ((_, payload), tx) in shard_records.iter().zip(&service.senders) {
            let (reply, rx) = std::sync::mpsc::sync_channel(1);
            if tx.send(ShardMsg::Restore { payload: payload.clone(), reply }).is_err() {
                return Err(StateError::Corrupt("shard exited before restore"));
            }
            match rx.recv() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => return Err(e),
                Err(_) => return Err(StateError::Corrupt("shard exited during restore")),
            }
        }
        stats.state_bytes_read.add(bytes);
        stats.note_control(ControlEvent::Restored { shards, bytes });
        Ok(service)
    }

    /// Handles for every *live* query slot, with their current
    /// frontiers. [`StreamService::restore`] does not return handles
    /// (the roster is data, not a return value), so this is how a
    /// restore consumer re-installs sinks: enumerate the live slots and
    /// [`StreamService::subscribe`] each. Detached slots are omitted —
    /// their indices stay reserved but accept no sinks.
    pub fn query_handles(&self) -> Vec<QueryHandle> {
        let live = self.registry.lock().expect("registry lock").live.clone();
        let frontiers = self.stats.query_frontier.read().expect("stats lock");
        live.iter()
            .enumerate()
            .filter(|&(_, alive)| *alive)
            .map(|(id, _)| QueryHandle { id, frontier: Time::new(frontiers[id]) })
            .collect()
    }

    /// Migrates one key's complete state (sessions, reorder buffers,
    /// accumulated output) from its current shard to shard `to`, and
    /// installs a route override so subsequent arrivals follow it. The
    /// serialized hop uses the same encoding as checkpoints and spills,
    /// so the key's subsequent output is byte-identical to never moving.
    /// Returns `false` (and changes nothing) when `to` is out of range,
    /// already serves the key, or the key holds no live state on its
    /// shard. Like checkpointing, the consistency story assumes a
    /// single-threaded driver: don't ingest the key concurrently with
    /// migrating it.
    pub fn migrate_key(&self, key: u64, to: usize) -> bool {
        if to >= self.shards {
            return false;
        }
        let from = self.route_of(key);
        if from == to {
            return false;
        }
        let (reply, rx) = std::sync::mpsc::sync_channel(1);
        if self.senders[from].send(ShardMsg::MigrateOut { key, reply }).is_err() {
            return false;
        }
        let Ok(Some((bundle, pending))) = rx.recv() else { return false };
        self.set_route(key, to);
        self.stats.state_bytes_written.add(bundle.len() as u64);
        self.stats.state_bytes_read.add(bundle.len() as u64);
        let _ = self.senders[to].send(ShardMsg::MigrateIn { key, bundle, pending });
        self.stats.migrations.inc();
        self.stats.note_control(ControlEvent::Migrate { key, from, to });
        true
    }

    /// Rebalances load by migrating the heaviest keys off the most loaded
    /// shard onto the least loaded one, driven by a per-shard census of
    /// per-key load scores (sessions + buffered events). Moves at most 16
    /// keys per call and never more than half the load gap (so repeated
    /// calls converge instead of oscillating); returns how many keys
    /// moved. No-op on single-shard services or when the population is
    /// already balanced.
    pub fn rebalance(&self) -> usize {
        if self.shards < 2 {
            return 0;
        }
        let mut pending = Vec::with_capacity(self.senders.len());
        for tx in &self.senders {
            let (reply, rx) = std::sync::mpsc::sync_channel(1);
            if tx.send(ShardMsg::Census { reply }).is_err() {
                return 0;
            }
            pending.push(rx);
        }
        let mut per_shard: Vec<Vec<(u64, u64)>> = Vec::with_capacity(pending.len());
        for rx in pending {
            match rx.recv() {
                Ok(c) => per_shard.push(c),
                Err(_) => return 0,
            }
        }
        let loads: Vec<u64> = per_shard.iter().map(|c| c.iter().map(|(_, s)| *s).sum()).collect();
        let busiest = (0..loads.len()).max_by_key(|&i| loads[i]).expect("shards >= 2");
        let idlest = (0..loads.len()).min_by_key(|&i| loads[i]).expect("shards >= 2");
        let gap = loads[busiest] - loads[idlest];
        if busiest == idlest || gap < 2 {
            return 0;
        }
        let mut candidates = per_shard[busiest].clone();
        candidates.sort_unstable_by_key(|&(key, score)| (std::cmp::Reverse(score), key));
        let mut moved = 0usize;
        let mut moved_score = 0u64;
        for (key, score) in candidates {
            if moved >= 16 {
                break;
            }
            // Never move more than half the gap: overshooting would just
            // invert the imbalance and make the next call undo this one.
            if (moved_score + score) * 2 > gap {
                continue;
            }
            if self.migrate_key(key, idlest) {
                moved += 1;
                moved_score += score;
            }
        }
        moved
    }

    /// Gracefully drains and shuts down: every buffered event is flushed,
    /// every session is run through the horizon of its shard's newest
    /// event, and per-query, per-key outputs are returned.
    pub fn finish(self) -> ServiceOutput {
        self.shutdown(None)
    }

    /// Like [`StreamService::finish`], but flushes every key's sessions
    /// through the same explicit horizon `end`, making outputs independent
    /// of how events were interleaved across shards.
    pub fn finish_at(self, end: Time) -> ServiceOutput {
        self.shutdown(Some(end))
    }

    fn shutdown(mut self, end: Option<Time>) -> ServiceOutput {
        if let Some(end) = end {
            for tx in &self.senders {
                let _ = tx.send(ShardMsg::FinishAt(end));
            }
        }
        self.senders.clear(); // close channels: workers drain and exit
        let n_queries = self.registry.lock().expect("registry lock").live.len();
        let mut per_query: Vec<PerKeyOutput> = (0..n_queries).map(|_| HashMap::new()).collect();
        for handle in self.handles.drain(..) {
            let out = match handle.join() {
                Ok(out) => out,
                Err(cause) => std::panic::resume_unwind(cause),
            };
            for (key, mut outs) in out.per_key {
                outs.resize_with(n_queries, Vec::new);
                for (qi, events) in outs.into_iter().enumerate() {
                    per_query[qi].insert(key, events);
                }
            }
        }
        let stats = self.stats.snapshot();
        let metrics = self.stats.metrics();
        let journal = self.stats.journal_snapshot();
        ServiceOutput { per_query, stats, metrics, journal }
    }
}

impl Drop for StreamService {
    fn drop(&mut self) {
        self.senders.clear();
        for handle in self.handles.drain(..) {
            if let Err(cause) = handle.join() {
                // A dead shard means lost events; surface the worker's
                // panic instead of silently discarding it (unless this
                // drop is itself part of a panic unwind).
                if !std::thread::panicking() {
                    std::panic::resume_unwind(cause);
                }
            }
        }
    }
}

fn shard_index(key: u64, shards: usize) -> usize {
    // SplitMix64 finalizer: cheap, well-mixed, stable across runs.
    let mut z = key.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^= z >> 31;
    (z % shards as u64) as usize
}

/// Spreads a stream key over 64 bits with one widening multiply whose two
/// halves are folded together, so every key bit reaches both the low bits
/// (a table's slot) and the high bits (its tag, and a grouping bucket).
///
/// This is what the in-memory key tables hash with. It is deliberately
/// *not* [`shard_index`]'s mix: all keys of one shard agree on that value
/// modulo the shard count, which would leave a table keyed by it using a
/// fraction of its slots. Nothing durable or on the wire depends on this
/// function — it may change freely; `shard_index` may not.
pub(crate) fn mix_key(key: u64) -> u64 {
    let wide = u128::from(key) * 0x9E37_79B9_7F4A_7C15_u128;
    (wide as u64) ^ ((wide >> 64) as u64)
}

/// [`mix_key`] as a [`std::hash::Hasher`] for the maps keyed by stream key.
///
/// The default SipHash costs more than the rest of a lookup on a `u64`
/// and buys resistance to crafted collisions; this gives that up. A
/// producer that wants one shard slow can already aim every key at it
/// through the fixed, public `shard_index`.
#[derive(Clone, Copy, Default)]
pub(crate) struct KeyHasher(u64);

impl std::hash::Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = mix_key(self.0 ^ key);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }
}

/// The hasher of every map and set keyed by stream key: a shard's live,
/// retired and spilled keys, and the service's route overrides.
pub(crate) type KeyHash = std::hash::BuildHasherDefault<KeyHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use tilt_core::ir::{DataType, Expr, Query, ReduceOp, TDom};
    use tilt_core::Compiler;
    use tilt_data::{coalesce, streams_equivalent, TimeRange};

    fn sliding_sum_query(window: i64) -> Arc<CompiledQuery> {
        let mut b = Query::builder();
        let input = b.input("x", DataType::Float);
        let sum = b.temporal(
            "sum",
            TDom::every_tick(),
            Expr::reduce_window(ReduceOp::Sum, input, window),
        );
        let q = b.finish(sum).unwrap();
        Arc::new(Compiler::new().compile(&q).unwrap())
    }

    /// A single-query service.
    fn single(cq: &Arc<CompiledQuery>, config: RuntimeConfig) -> (StreamService, QueryHandle) {
        let mut builder = StreamService::builder(config);
        let q = builder.register(Arc::clone(cq));
        (builder.start().unwrap(), q)
    }

    fn single_with_sink(
        cq: &Arc<CompiledQuery>,
        config: RuntimeConfig,
        sink: OutputSink,
    ) -> (StreamService, QueryHandle) {
        let mut builder = StreamService::builder(config);
        let q = builder.register_with(Arc::clone(cq), QuerySettings::with_sink(sink));
        (builder.start().unwrap(), q)
    }

    fn key_events(key: u64, n: i64) -> Vec<KeyedEvent> {
        (1..=n)
            .map(|t| {
                KeyedEvent::new(
                    key,
                    0,
                    Event::point(Time::new(t), Value::Float((key as f64) + t as f64)),
                )
            })
            .collect()
    }

    /// In-order replay of one key through a single-query session — the
    /// ground truth the service must reproduce.
    fn replay(cq: &Arc<CompiledQuery>, events: &[Event<Value>], end: Time) -> Vec<Event<Value>> {
        let mut session = cq.shared_stream_session(Time::ZERO);
        session.push_events(0, events);
        session.flush_to(end).to_events()
    }

    /// `shard_index` is a format, not an implementation detail: checkpoint
    /// records, spill bundles, route overrides and remote clients all
    /// assume a key lives where it says. (The in-memory tables hash with
    /// `mix_key`, which may change; this may not.)
    #[test]
    fn shard_index_is_pinned() {
        for (key, shards, want) in [
            (0u64, 2usize, 1usize),
            (1, 2, 1),
            (2, 3, 1),
            (7, 4, 3),
            (42, 4, 1),
            (999, 7, 0),
            (1 << 48, 4, 0),
            (u64::MAX, 5, 1),
            (0xDEAD_BEEF, 16, 11),
            (123_456_789, 1000, 897),
        ] {
            assert_eq!(shard_index(key, shards), want, "shard_index({key:#x}, {shards})");
        }
    }

    /// The key tables' hash spreads what `shard_index` put on one shard:
    /// keys that agree modulo the shard count, sequential ids, and ids that
    /// differ only in their high bits all reach distinct low and high bits.
    #[test]
    fn mix_key_spreads_the_keys_of_one_shard() {
        let resident: Vec<u64> = (0..4096u64).filter(|k| shard_index(*k, 4) == 0).collect();
        let families: [Vec<u64>; 3] =
            [resident, (0..1024).collect(), (0..1024u64).map(|i| i << 48).collect()];
        for keys in &families {
            for shift in [0u32, 54] {
                let slots: std::collections::HashSet<u64> =
                    keys.iter().map(|k| (mix_key(*k) >> shift) & 1023).collect();
                assert!(
                    slots.len() * 2 > keys.len().min(1024),
                    "{} keys reach {} of 1024 slots at shift {shift}",
                    keys.len(),
                    slots.len()
                );
            }
        }
    }

    #[test]
    fn in_order_multi_key_matches_replay() {
        let cq = sliding_sum_query(10);
        let n = 300i64;
        let keys: Vec<u64> = (0..7).collect();
        let (service, q) = single(&cq, RuntimeConfig { shards: 3, ..RuntimeConfig::default() });
        // Interleave keys round-robin, in time order within each key.
        for t in 1..=n {
            service.ingest(keys.iter().map(|&k| {
                KeyedEvent::new(k, 0, Event::point(Time::new(t), Value::Float(k as f64 + t as f64)))
            }));
        }
        let end = Time::new(n + 10);
        let out = service.finish_at(end);
        assert_eq!(out.stats.late_dropped, 0);
        assert_eq!(out.stats.events_in, (n as u64) * keys.len() as u64);
        assert_eq!(out.per_query[q.index()].len(), keys.len());
        for &k in &keys {
            let expected = replay(
                &cq,
                &key_events(k, n).iter().map(|e| e.event.clone()).collect::<Vec<_>>(),
                end,
            );
            let got = &out.per_query[q.index()][&k];
            assert!(
                streams_equivalent(&coalesce(&expected), &coalesce(got)),
                "key {k}: {} vs {} events",
                expected.len(),
                got.len()
            );
        }
    }

    #[test]
    fn bounded_out_of_order_matches_replay() {
        let cq = sliding_sum_query(8);
        let n = 240i64;
        let key = 42u64;
        let mut events = key_events(key, n);
        // Deterministic bounded shuffle: swap within windows of 6.
        for w in events.chunks_mut(6) {
            w.reverse();
        }
        let (service, q) = single(
            &cq,
            RuntimeConfig { shards: 2, allowed_lateness: 8, ..RuntimeConfig::default() },
        );
        service.ingest(events.clone());
        let end = Time::new(n + 8);
        let out = service.finish_at(end);
        assert_eq!(out.stats.late_dropped, 0, "lateness bound must absorb the shuffle");
        let expected = replay(
            &cq,
            &key_events(key, n).iter().map(|e| e.event.clone()).collect::<Vec<_>>(),
            end,
        );
        assert!(streams_equivalent(
            &coalesce(&expected),
            &coalesce(&out.per_query[q.index()][&key])
        ));
    }

    #[test]
    fn beyond_lateness_events_are_dropped_and_counted() {
        let cq = sliding_sum_query(4);
        let (service, q) = single(
            &cq,
            RuntimeConfig {
                shards: 1,
                allowed_lateness: 2,
                emit_interval: 1,
                ..RuntimeConfig::default()
            },
        );
        let key = 5u64;
        // Advance far, then send a hopeless straggler.
        service.ingest(
            (1..=100)
                .map(|t| KeyedEvent::new(key, 0, Event::point(Time::new(t), Value::Float(1.0)))),
        );
        service.ingest([KeyedEvent::new(key, 0, Event::point(Time::new(3), Value::Float(9.0)))]);
        let out = service.finish_at(Time::new(104));
        assert_eq!(out.stats.late_dropped, 1);
        // Output equals a replay that never saw the straggler.
        let clean: Vec<Event<Value>> =
            (1..=100).map(|t| Event::point(Time::new(t), Value::Float(1.0))).collect();
        let expected = replay(&cq, &clean, Time::new(104));
        assert!(streams_equivalent(
            &coalesce(&expected),
            &coalesce(&out.per_query[q.index()][&key])
        ));
    }

    // ── Hardening: eviction, backstop ──────────────────────────────────

    /// One shard, one hot key driving the watermark, one key that goes
    /// idle past the TTL and then revives. The evicting service's output
    /// must equal both a never-evicting service's and an in-order replay.
    #[test]
    fn idle_key_eviction_and_revival_are_transparent() {
        let cq = sliding_sum_query(4);
        let config = |ttl| RuntimeConfig {
            shards: 1,
            emit_interval: 8,
            key_ttl: ttl,
            ..RuntimeConfig::default()
        };
        let phase1: Vec<KeyedEvent> =
            key_events(7, 20).into_iter().chain(key_events(9, 500)).collect();
        let phase2: Vec<KeyedEvent> = (501..=520)
            .flat_map(|t| {
                [7u64, 9u64].map(|k| {
                    KeyedEvent::new(k, 0, Event::point(Time::new(t), Value::Float(k as f64)))
                })
            })
            .collect();
        let end = Time::new(530);

        let (evicting, q) = single(&cq, config(Some(32)));
        evicting.ingest(phase1.iter().cloned());
        // Key 7 idles while key 9 drives the watermark: wait for the sweep
        // to retire it before reviving it.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while evicting.stats().evictions == 0 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert!(evicting.stats().evictions >= 1, "idle key was never evicted");
        assert_eq!(evicting.stats().live_keys, 1, "only the hot key stays live");
        evicting.ingest(phase2.iter().cloned());
        let out = evicting.finish_at(end);
        assert_eq!(out.stats.late_dropped, 0);
        assert!(out.stats.revivals >= 1, "revival event must re-create the session");
        assert_eq!(out.stats.keys, 2, "keys counts distinct keys ever seen");

        let (plain, pq) = single(&cq, config(None));
        plain.ingest(phase1.iter().cloned());
        plain.ingest(phase2.iter().cloned());
        let base = plain.finish_at(end);
        assert_eq!(base.stats.evictions, 0);
        for k in [7u64, 9u64] {
            assert!(
                streams_equivalent(
                    &coalesce(&base.per_query[pq.index()][&k]),
                    &coalesce(&out.per_query[q.index()][&k])
                ),
                "key {k}: evicting service diverged from never-evicting"
            );
            // And both equal the in-order replay of the key's own stream.
            let events: Vec<Event<Value>> = phase1
                .iter()
                .chain(phase2.iter())
                .filter(|ke| ke.key == k)
                .map(|ke| ke.event.clone())
                .collect();
            let expected = replay(&cq, &events, end);
            assert!(
                streams_equivalent(&coalesce(&expected), &coalesce(&out.per_query[q.index()][&k])),
                "key {k}: evicting service diverged from replay"
            );
        }
    }

    /// The YSB shape — Where, then a tumbling count of `window` ticks — and
    /// with `factor`, its factor query: the peak pane per `factor` panes.
    fn pane_query(window: i64, factor: Option<i64>) -> Arc<CompiledQuery> {
        let mut b = Query::builder();
        let x = b.input("ads", DataType::Int);
        let views = b.temporal(
            "views",
            TDom::every_tick(),
            Expr::if_else(Expr::at(x).eq(Expr::c(0i64)), Expr::at(x), Expr::null()),
        );
        let mut out = b.temporal(
            "count",
            TDom::unbounded(window),
            Expr::reduce_window(ReduceOp::Count, views, window),
        );
        if let Some(f) = factor {
            out = b.temporal(
                "peak",
                TDom::unbounded(f * window),
                Expr::reduce_window(ReduceOp::Max, out, f * window),
            );
        }
        let q = b.finish(out).unwrap();
        Arc::new(Compiler::new().compile(&q).unwrap())
    }

    /// The newest output end per query after exactly the first `n` events of
    /// one key — event `i` covers `(i, i + 1]` — went in one per `ingest`.
    /// `finish_at(Time::ZERO)` drains the shard without flushing anything,
    /// so what is out is what the watermark alone released.
    fn released_after(queries: &[Arc<CompiledQuery>], n: i64, lateness: i64) -> Vec<i64> {
        let mut builder = StreamService::builder(RuntimeConfig {
            shards: 1,
            allowed_lateness: lateness,
            emit_interval: 1,
            ..RuntimeConfig::default()
        });
        let handles: Vec<QueryHandle> =
            queries.iter().map(|cq| builder.register(Arc::clone(cq))).collect();
        let service = builder.start().unwrap();
        for i in 0..n {
            service.ingest([KeyedEvent::new(
                3,
                0,
                Event::new(Time::new(i), Time::new(i + 1), Value::Int(0)),
            )]);
        }
        let out = service.finish_at(Time::ZERO);
        assert_eq!(out.stats.late_dropped, 0);
        handles
            .iter()
            .map(|h| {
                out.per_query[h.index()]
                    .get(&3)
                    .and_then(|evs| evs.iter().map(|e| e.end.ticks()).max())
                    .unwrap_or(0)
            })
            .collect()
    }

    #[test]
    fn tumbling_window_leaves_with_the_event_that_carries_the_watermark_to_its_end() {
        // The watermark is the newest start minus the lateness, so it
        // reaches `e` when the event starting at `e + lateness` — the
        // `e + lateness + 1`-th — is in. That event releases the window
        // ending at `e`; the one before it must not.
        let window = 10;
        let ysb = pane_query(window, None);
        for lateness in [0i64, 7] {
            for e in [10i64, 30, 70] {
                let trigger = e + lateness;
                assert_eq!(
                    released_after(&[Arc::clone(&ysb)], trigger, lateness),
                    [e - window],
                    "lateness {lateness}: window {e} left before its trigger"
                );
                assert_eq!(
                    released_after(&[Arc::clone(&ysb)], trigger + 1, lateness),
                    [e],
                    "lateness {lateness}: window {e} held past its trigger"
                );
            }
        }
    }

    #[test]
    fn a_shared_cell_releases_every_member_at_the_group_grid() {
        // `[ysb, ysb_factor]` in one cell share the pane kernel and emit at
        // the lcm of their grids: both are out through `e` — a multiple of
        // the coarse window — with the event that carries the watermark
        // there, and neither moves before it.
        let (window, factor) = (10, 6);
        let coarse = factor * window;
        let members = [pane_query(window, None), pane_query(window, Some(factor))];
        for lateness in [0i64, 7] {
            for e in [coarse, 3 * coarse] {
                let trigger = e + lateness;
                assert_eq!(
                    released_after(&members, trigger, lateness),
                    [e - coarse, e - coarse],
                    "lateness {lateness}: the cell moved before the trigger of {e}"
                );
                assert_eq!(
                    released_after(&members, trigger + 1, lateness),
                    [e, e],
                    "lateness {lateness}: the cell held {e} past its trigger"
                );
            }
        }
    }

    #[test]
    fn wall_clock_ttl_evicts_without_event_time_progress() {
        // No watermark movement at all after ingestion: the event-time
        // sweep can never fire, but the wall-clock TTL still retires the
        // idle sessions — and the final flush output is unchanged.
        let cq = sliding_sum_query(4);
        let (service, q) = single(
            &cq,
            RuntimeConfig {
                shards: 1,
                emit_interval: 1,
                wall_clock_ttl: Some(Duration::from_millis(30)),
                ..RuntimeConfig::default()
            },
        );
        service.ingest(key_events(1, 40));
        service.ingest(key_events(2, 40));
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while service.stats().wall_evictions < 2 && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let mid = service.stats();
        assert!(mid.wall_evictions >= 2, "wall-clock TTL never fired: {mid}");
        assert_eq!(mid.live_keys, 0, "both keys idle out");
        // Revive key 1 with traffic past the eviction frontier (the dead
        // stream's end + the query's state horizon).
        let revive_from = 41 + cq.state_horizon();
        service.ingest((revive_from..=revive_from + 20).map(|t| {
            KeyedEvent::new(1, 0, Event::point(Time::new(t), Value::Float(1.0 + t as f64)))
        }));
        let end = Time::new(revive_from + 30);
        let out = service.finish_at(end);
        assert!(out.stats.revivals >= 1);
        let mut full: Vec<Event<Value>> =
            key_events(1, 40).iter().map(|ke| ke.event.clone()).collect();
        full.extend(
            (revive_from..=revive_from + 20)
                .map(|t| Event::point(Time::new(t), Value::Float(1.0 + t as f64))),
        );
        let expected = replay(&cq, &full, end);
        assert!(
            streams_equivalent(&coalesce(&expected), &coalesce(&out.per_query[q.index()][&1])),
            "wall-clock eviction + revival diverged from replay"
        );
        let expected2 = replay(
            &cq,
            &key_events(2, 40).iter().map(|ke| ke.event.clone()).collect::<Vec<_>>(),
            end,
        );
        assert!(streams_equivalent(
            &coalesce(&expected2),
            &coalesce(&out.per_query[q.index()][&2])
        ));
    }

    #[test]
    fn backstop_drop_newest_caps_buffered_events() {
        // A watermark pinned by huge allowed lateness: nothing matures, so
        // the reorder buffer is the only place events can live. The cap
        // holds and the overflow is counted.
        let cq = sliding_sum_query(4);
        let (service, q) = single(
            &cq,
            RuntimeConfig {
                shards: 1,
                allowed_lateness: 1_000_000,
                emit_interval: 1,
                max_pending_per_key: Some(64),
                backstop: BackstopPolicy::DropNewest,
                ..RuntimeConfig::default()
            },
        );
        service.ingest(key_events(1, 500));
        let out = service.finish_at(Time::new(504));
        assert_eq!(out.stats.backstop_dropped, 500 - 64, "overflow is dropped and counted");
        assert_eq!(out.stats.backstop_forced, 0);
        // The survivors are the oldest 64 (the cap refuses newest), so the
        // output equals a replay of the in-order prefix.
        let prefix: Vec<Event<Value>> =
            key_events(1, 64).iter().map(|ke| ke.event.clone()).collect();
        let expected = replay(&cq, &prefix, Time::new(504));
        assert!(streams_equivalent(&coalesce(&expected), &coalesce(&out.per_query[q.index()][&1])));
        assert!(out.stats.reorder_pending.iter().all(|&p| p == 0), "drained at shutdown");
    }

    #[test]
    fn backstop_force_drain_is_lossless_for_in_order_input() {
        // Same pinned watermark, but the force-drain policy pushes the
        // oldest buffered events through the session instead of dropping
        // the newest: for in-order input nothing is lost at all.
        let cq = sliding_sum_query(4);
        let (service, q) = single(
            &cq,
            RuntimeConfig {
                shards: 1,
                allowed_lateness: 1_000_000,
                emit_interval: 1,
                max_pending_per_key: Some(64),
                backstop: BackstopPolicy::ForceDrain,
                ..RuntimeConfig::default()
            },
        );
        service.ingest(key_events(1, 500));
        let out = service.finish_at(Time::new(504));
        assert_eq!(out.stats.backstop_dropped, 0);
        assert_eq!(out.stats.late_dropped, 0, "in-order input loses nothing to force-drain");
        assert!(out.stats.backstop_forced > 0, "the cap must have fired");
        let all: Vec<Event<Value>> = key_events(1, 500).iter().map(|ke| ke.event.clone()).collect();
        let expected = replay(&cq, &all, Time::new(504));
        assert!(streams_equivalent(&coalesce(&expected), &coalesce(&out.per_query[q.index()][&1])));
    }

    #[test]
    fn shard_level_backstop_bounds_total_pending() {
        // Many keys share one shard: no single key exceeds the per-key cap,
        // but the shard-wide cap still bounds the backlog.
        let cq = sliding_sum_query(4);
        let (service, _q) = single(
            &cq,
            RuntimeConfig {
                shards: 1,
                allowed_lateness: 1_000_000,
                emit_interval: 1,
                max_pending_per_shard: Some(100),
                backstop: BackstopPolicy::DropNewest,
                ..RuntimeConfig::default()
            },
        );
        for k in 0..20u64 {
            service.ingest(key_events(k, 10));
        }
        let out = service.finish_at(Time::new(20));
        assert_eq!(out.stats.backstop_dropped, 100, "200 sent, 100 buffered, 100 refused");
        assert_eq!(out.stats.reorder_buffered, 100);
    }

    #[test]
    fn explicit_watermarks_drive_emission_and_sink_streams() {
        let cq = sliding_sum_query(4);
        let emitted = Arc::new(std::sync::Mutex::new(Vec::<(u64, Event<Value>)>::new()));
        let sink_store = Arc::clone(&emitted);
        let (service, q) = single_with_sink(
            &cq,
            RuntimeConfig { shards: 2, emit_interval: 1, ..RuntimeConfig::default() },
            Arc::new(move |key, events| {
                sink_store.lock().unwrap().extend(events.iter().map(|e| (key, e.clone())));
            }),
        );
        service.ingest(key_events(1, 50));
        service.watermark(0, Time::new(50));
        // The sink sees finalized prefixes before shutdown.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while emitted.lock().unwrap().is_empty() && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert!(!emitted.lock().unwrap().is_empty(), "sink never saw streamed output");
        let out = service.finish_at(Time::new(54));
        assert!(out.per_query[q.index()][&1].is_empty(), "sink consumed the events");
        assert_eq!(out.stats.events_out as usize, emitted.lock().unwrap().len());
        // Streamed output equals replay.
        let expected = replay(
            &cq,
            &key_events(1, 50).iter().map(|e| e.event.clone()).collect::<Vec<_>>(),
            Time::new(54),
        );
        let streamed: Vec<Event<Value>> =
            emitted.lock().unwrap().iter().map(|(_, e)| e.clone()).collect();
        assert!(streams_equivalent(&coalesce(&expected), &coalesce(&streamed)));
    }

    #[test]
    fn quiet_key_tail_reaches_sink_without_finish() {
        // Key 1 stops at t=20; key 2 keeps driving the shard watermark
        // forward. The sink must receive key 1's closing windows (the last
        // non-φ output of a 4-tick sum ends at t=23) while the service is
        // still running — not only at shutdown flush.
        let cq = sliding_sum_query(4);
        let emitted = Arc::new(std::sync::Mutex::new(Vec::<(u64, Event<Value>)>::new()));
        let sink_store = Arc::clone(&emitted);
        let (service, _q) = single_with_sink(
            &cq,
            RuntimeConfig { shards: 1, emit_interval: 1, ..RuntimeConfig::default() },
            Arc::new(move |key, events| {
                sink_store.lock().unwrap().extend(events.iter().map(|e| (key, e.clone())));
            }),
        );
        service.ingest(key_events(1, 20));
        let quiet_tail_seen = |emitted: &std::sync::Mutex<Vec<(u64, Event<Value>)>>| {
            emitted.lock().unwrap().iter().any(|(k, e)| *k == 1 && e.end >= Time::new(23))
        };
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        let mut t = 21i64;
        while !quiet_tail_seen(&emitted) && std::time::Instant::now() < deadline {
            service.send(KeyedEvent::new(2, 0, Event::point(Time::new(t), Value::Float(1.0))));
            t += 1;
        }
        assert!(
            quiet_tail_seen(&emitted),
            "quiet key's finalized tail never reached the sink while running (watermark pushed to t={t})"
        );
        service.finish();
    }

    #[test]
    fn stats_track_queue_and_watermarks() {
        let cq = sliding_sum_query(4);
        let (service, _q) =
            single(&cq, RuntimeConfig { shards: 2, emit_interval: 1, ..RuntimeConfig::default() });
        service.ingest(key_events(3, 100));
        service.ingest(key_events(4, 100));
        let out = service.finish();
        assert_eq!(out.stats.events_in, 200);
        assert!(out.stats.events_out > 0);
        assert_eq!(out.stats.keys, 2);
        assert_eq!(out.stats.queue_depths.len(), 2);
        assert!(out.stats.queue_depths.iter().all(|&d| d == 0), "drained queues");
        assert!(out.stats.min_watermark >= Time::new(100), "flush horizon reached");
        // Single-query accounting: every event buffered once, nothing saved.
        assert_eq!(out.stats.reorder_buffered, 200);
        assert_eq!(out.stats.kernels_saved, 0);
        assert_eq!(out.stats.events_out_per_query, vec![out.stats.events_out]);
        assert_eq!(out.stats.query_frontiers, vec![Time::ZERO]);
        assert_eq!(out.stats.queries_live, 1);
        assert_eq!(out.stats.attached, 0, "pre-start registrations are not live attaches");
    }

    #[test]
    fn two_source_query_holds_back_for_slowest_source() {
        // join(a, b): per-key sum of two sources' running 4-windows.
        let mut b = Query::builder();
        let a_in = b.input("a", DataType::Float);
        let b_in = b.input("b", DataType::Float);
        let sum = b.temporal(
            "sum",
            TDom::every_tick(),
            Expr::reduce_window(ReduceOp::Sum, a_in, 4).add(Expr::reduce_window(
                ReduceOp::Sum,
                b_in,
                4,
            )),
        );
        let q = b.finish(sum).unwrap();
        let cq = Arc::new(Compiler::new().compile(&q).unwrap());

        let (service, qh) =
            single(&cq, RuntimeConfig { shards: 1, emit_interval: 1, ..RuntimeConfig::default() });
        let key = 9u64;
        // Source 0 races ahead; source 1 lags at t=10.
        service.ingest(
            (1..=60)
                .map(|t| KeyedEvent::new(key, 0, Event::point(Time::new(t), Value::Float(1.0)))),
        );
        service.ingest(
            (1..=10)
                .map(|t| KeyedEvent::new(key, 1, Event::point(Time::new(t), Value::Float(10.0)))),
        );
        let stats = service.stats();
        // Min-watermark propagation: the shard watermark tracks the slow
        // source, not the fast one.
        assert!(
            stats.shard_watermarks.iter().all(|&w| w <= Time::new(10)),
            "watermarks {:?} ran ahead of the slow source",
            stats.shard_watermarks
        );
        let out = service.finish_at(Time::new(64));
        // Ground truth: replay both sources in order.
        let mut session = cq.shared_stream_session(Time::ZERO);
        session.push_events(
            0,
            &(1..=60).map(|t| Event::point(Time::new(t), Value::Float(1.0))).collect::<Vec<_>>(),
        );
        session.push_events(
            1,
            &(1..=10).map(|t| Event::point(Time::new(t), Value::Float(10.0))).collect::<Vec<_>>(),
        );
        let expected = session.flush_to(Time::new(64)).to_events();
        assert!(streams_equivalent(
            &coalesce(&expected),
            &coalesce(&out.per_query[qh.index()][&key])
        ));
    }

    #[test]
    fn keys_partition_stably_across_shards() {
        let shards = 8;
        for key in 0..1000u64 {
            let a = shard_index(key, shards);
            let b = shard_index(key, shards);
            assert_eq!(a, b);
            assert!(a < shards);
        }
        // Rough balance over sequential keys.
        let mut counts = vec![0usize; shards];
        for key in 0..8000u64 {
            counts[shard_index(key, shards)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 500), "skewed: {counts:?}");
    }

    #[test]
    fn drop_without_finish_joins_workers() {
        let cq = sliding_sum_query(4);
        let (service, _q) = single(&cq, RuntimeConfig::default());
        service.ingest(key_events(1, 10));
        drop(service); // must not hang or leak panics
    }

    #[test]
    fn one_shot_run_agrees_with_service_for_single_key() {
        // Closing the loop with the batch executor: service output ==
        // CompiledQuery::run over the same events.
        let cq = sliding_sum_query(6);
        let n = 120i64;
        let events: Vec<Event<Value>> =
            (1..=n).map(|t| Event::point(Time::new(t), Value::Float(t as f64 * 0.5))).collect();
        let range = TimeRange::new(Time::ZERO, Time::new(n + 6));
        let buf = tilt_data::SnapshotBuf::from_events(&events, range);
        let oneshot = cq.run(&[&buf], range).to_events();

        let (service, q) = single(&cq, RuntimeConfig::default());
        service.ingest(events.iter().map(|e| KeyedEvent::new(77, 0, e.clone())));
        let out = service.finish_at(Time::new(n + 6));
        assert!(streams_equivalent(&coalesce(&oneshot), &coalesce(&out.per_query[q.index()][&77])));
    }

    // ── Watermark / lateness edge cases ────────────────────────────────

    #[test]
    fn explicit_watermark_floors_but_never_regresses() {
        // The event-driven watermark reached t=50; a stale explicit promise
        // at t=10 must not pull emission backwards, and a forward promise
        // must floor the watermark even with no further events.
        let cq = sliding_sum_query(4);
        let (service, q) =
            single(&cq, RuntimeConfig { shards: 1, emit_interval: 1, ..RuntimeConfig::default() });
        service.ingest(key_events(1, 50));
        service.watermark(0, Time::new(10)); // stale: behind max_start
        let wait_for_wm = |service: &StreamService, at_least: Time| {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
            while std::time::Instant::now() < deadline {
                if service.stats().min_watermark >= at_least {
                    return true;
                }
                std::thread::yield_now();
            }
            false
        };
        // Point events at t=1..=50 span (t−1, t]: the start-based watermark
        // rests at 49, and the stale promise at 10 must not move it.
        assert!(wait_for_wm(&service, Time::new(49)), "event-driven watermark must hold at 49");
        // Forward promise: emission advances past the last event with no
        // new input at all.
        service.watermark(0, Time::new(90));
        assert!(wait_for_wm(&service, Time::new(90)), "explicit watermark must floor to 90");
        // A second stale promise after the forward one is also a no-op.
        service.watermark(0, Time::new(40));
        let out = service.finish_at(Time::new(94));
        assert_eq!(out.stats.late_dropped, 0);
        let expected = replay(
            &cq,
            &key_events(1, 50).iter().map(|e| e.event.clone()).collect::<Vec<_>>(),
            Time::new(94),
        );
        assert!(streams_equivalent(&coalesce(&expected), &coalesce(&out.per_query[q.index()][&1])));
    }

    #[test]
    fn finish_at_drains_events_still_held_by_lateness() {
        // A huge allowed lateness keeps the watermark far behind the data:
        // nothing matures during the run. finish_at must still flush every
        // buffered event through the horizon — a drained shutdown loses
        // nothing.
        let cq = sliding_sum_query(4);
        let (service, q) = single(
            &cq,
            RuntimeConfig {
                shards: 2,
                allowed_lateness: 1_000_000,
                emit_interval: 1,
                ..RuntimeConfig::default()
            },
        );
        service.ingest(key_events(8, 60));
        let mid = service.stats();
        assert_eq!(mid.events_out, 0, "nothing may emit while the watermark holds everything");
        let out = service.finish_at(Time::new(64));
        assert_eq!(out.stats.late_dropped, 0);
        let expected = replay(
            &cq,
            &key_events(8, 60).iter().map(|e| e.event.clone()).collect::<Vec<_>>(),
            Time::new(64),
        );
        assert!(streams_equivalent(&coalesce(&expected), &coalesce(&out.per_query[q.index()][&8])));
    }

    #[test]
    fn interval_event_straddling_emission_horizon_is_exact() {
        // Regression for the PR 1 boundary fix: a long interval event spans
        // several emission cycles (emit_interval 8 with points driving the
        // watermark across its extent). The straddled event's early ticks
        // are emitted before its interval closes; the result must still
        // equal an in-order replay.
        let mut b = Query::builder();
        let input = b.input("x", DataType::Float);
        let sum =
            b.temporal("sum", TDom::every_tick(), Expr::reduce_window(ReduceOp::Sum, input, 5));
        let q = b.finish(sum).unwrap();
        let cq = Arc::new(Compiler::new().compile(&q).unwrap());

        // One long event (10, 40] then points 41..=80 pushing the watermark
        // over both of its edges.
        let mut events: Vec<Event<Value>> =
            vec![Event::new(Time::new(10), Time::new(40), Value::Float(2.5))];
        events.extend((41..=80).map(|t| Event::point(Time::new(t), Value::Float(1.0))));
        let (service, qh) =
            single(&cq, RuntimeConfig { shards: 1, emit_interval: 8, ..RuntimeConfig::default() });
        service.ingest(events.iter().map(|e| KeyedEvent::new(3, 0, e.clone())));
        let out = service.finish_at(Time::new(85));
        assert_eq!(out.stats.late_dropped, 0);
        let expected = replay(&cq, &events, Time::new(85));
        assert!(
            streams_equivalent(&coalesce(&expected), &coalesce(&out.per_query[qh.index()][&3])),
            "straddling interval event corrupted emission: {:?} vs {:?}",
            expected,
            out.per_query[qh.index()][&3]
        );
    }

    // ── Multi-query service ────────────────────────────────────────────

    #[test]
    fn shared_service_outputs_match_standalone_services() {
        let fast = sliding_sum_query(3);
        let slow = sliding_sum_query(9);
        let mut builder = StreamService::builder(RuntimeConfig {
            shards: 2,
            allowed_lateness: 8,
            ..RuntimeConfig::default()
        });
        let q_fast = builder.register(Arc::clone(&fast));
        let q_slow = builder.register(Arc::clone(&slow));
        let multi = builder.start().unwrap();

        // Interleave keys by time, then scramble arrival order within
        // bounded blocks (shared by the multi and standalone runs).
        let mut events: Vec<KeyedEvent> = Vec::new();
        for t in 1..=120i64 {
            for k in 0..4u64 {
                events.push(KeyedEvent::new(
                    k,
                    0,
                    Event::point(Time::new(t), Value::Float(k as f64 + t as f64)),
                ));
            }
        }
        for w in events.chunks_mut(5) {
            w.reverse();
        }
        multi.ingest(events.iter().cloned());
        let end = Time::new(140);
        let out = multi.finish_at(end);
        assert_eq!(out.stats.late_dropped, 0);
        assert_eq!(out.stats.reorder_buffered, events.len() as u64, "buffered once, not per query");

        for (qid, cq) in [(q_fast, &fast), (q_slow, &slow)] {
            let (standalone, sq) = single(
                cq,
                RuntimeConfig { shards: 2, allowed_lateness: 8, ..RuntimeConfig::default() },
            );
            standalone.ingest(events.iter().cloned());
            let solo = standalone.finish_at(end);
            for k in 0..4u64 {
                assert!(
                    streams_equivalent(
                        &coalesce(&solo.per_query[sq.index()][&k]),
                        &coalesce(&out.per_query[qid.index()][&k])
                    ),
                    "query {} key {k} diverged from standalone service",
                    qid.index()
                );
            }
        }
    }

    #[test]
    fn per_query_sinks_and_stats() {
        let cq = sliding_sum_query(4);
        let streamed = Arc::new(std::sync::Mutex::new(Vec::<Event<Value>>::new()));
        let sink_store = Arc::clone(&streamed);
        let mut builder = StreamService::builder(RuntimeConfig {
            shards: 1,
            emit_interval: 1,
            ..RuntimeConfig::default()
        });
        let sunk = builder.register_with(
            Arc::clone(&cq),
            QuerySettings::with_sink(Arc::new(move |_key, events| {
                sink_store.lock().unwrap().extend(events.iter().cloned());
            })),
        );
        let kept = builder.register(Arc::clone(&cq));
        let multi = builder.start().unwrap();
        assert_eq!(multi.num_queries(), 2);

        multi.ingest(key_events(1, 50));
        let out = multi.finish_at(Time::new(54));
        // The sink consumed query 0; query 1 accumulated.
        assert!(out.per_query[sunk.index()][&1].is_empty());
        assert!(!out.per_query[kept.index()][&1].is_empty());
        // Both queries emitted the same number of events, counted per query.
        assert_eq!(
            out.stats.events_out_per_query[sunk.index()],
            out.stats.events_out_per_query[kept.index()]
        );
        assert_eq!(out.stats.events_out_per_query.iter().sum::<u64>(), out.stats.events_out);
        assert!(out.stats.kernels_saved > 0, "dedup must fire for identical queries");
        // Streamed == kept.
        assert!(streams_equivalent(
            &coalesce(&streamed.lock().unwrap()),
            &coalesce(&out.per_query[kept.index()][&1])
        ));
    }

    #[test]
    fn shared_service_drops_late_events_once() {
        // A beyond-lateness straggler is one lost *ingest* event, however
        // many queries are registered.
        let cq = sliding_sum_query(4);
        let mut builder = StreamService::builder(RuntimeConfig {
            shards: 1,
            allowed_lateness: 2,
            emit_interval: 1,
            ..RuntimeConfig::default()
        });
        let a = builder.register(Arc::clone(&cq));
        let b = builder.register(Arc::clone(&cq));
        let multi = builder.start().unwrap();
        multi.ingest(
            (1..=100).map(|t| KeyedEvent::new(5, 0, Event::point(Time::new(t), Value::Float(1.0)))),
        );
        multi.ingest([KeyedEvent::new(5, 0, Event::point(Time::new(3), Value::Float(9.0)))]);
        let out = multi.finish_at(Time::new(104));
        assert_eq!(out.stats.late_dropped, 1, "dropped once, not once per query");
        let clean: Vec<Event<Value>> =
            (1..=100).map(|t| Event::point(Time::new(t), Value::Float(1.0))).collect();
        let expected = replay(&cq, &clean, Time::new(104));
        for qid in [a, b] {
            assert!(streams_equivalent(
                &coalesce(&expected),
                &coalesce(&out.per_query[qid.index()][&5])
            ));
        }
    }

    #[test]
    fn mixed_arity_cell_waits_for_quiet_source_until_promised() {
        // Same-settings queries share a cell, so a 1-input query
        // co-registered with a 2-input query is gated by the 2-input
        // query's second source. With source 1 silent nothing streams; an
        // explicit watermark promise on source 1 releases emission; the
        // flush output still matches replay.
        let single_q = sliding_sum_query(4);
        let dual = {
            let mut b = Query::builder();
            let a_in = b.input("a", DataType::Float);
            let b_in = b.input("b", DataType::Float);
            let sum = b.temporal(
                "sum",
                TDom::every_tick(),
                Expr::reduce_window(ReduceOp::Sum, a_in, 4).add(Expr::reduce_window(
                    ReduceOp::Sum,
                    b_in,
                    4,
                )),
            );
            Arc::new(Compiler::new().compile(&b.finish(sum).unwrap()).unwrap())
        };
        let streamed = Arc::new(std::sync::Mutex::new(Vec::<Event<Value>>::new()));
        let sink_store = Arc::clone(&streamed);
        let mut builder = StreamService::builder(RuntimeConfig {
            shards: 1,
            emit_interval: 1,
            ..RuntimeConfig::default()
        });
        let single_id = builder.register_with(
            Arc::clone(&single_q),
            QuerySettings::with_sink(Arc::new(move |_key, events| {
                sink_store.lock().unwrap().extend(events.iter().cloned());
            })),
        );
        builder.register(dual);
        let multi = builder.start().unwrap();

        multi.ingest(key_events(1, 40)); // source 0 only; source 1 silent
                                         // The quiet source holds the cell watermark at -inf: nothing may
                                         // stream yet (bounded wait to let the shard process the batch).
        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(200);
        while std::time::Instant::now() < deadline {
            assert!(
                streamed.lock().unwrap().is_empty(),
                "1-input query streamed while the cell watermark was held"
            );
            std::thread::yield_now();
        }
        // An explicit promise on the silent source releases emission.
        multi.watermark(1, Time::new(40));
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while streamed.lock().unwrap().is_empty() && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert!(
            !streamed.lock().unwrap().is_empty(),
            "explicit watermark on the quiet source must unstick streaming"
        );
        let out = multi.finish_at(Time::new(44));
        assert!(out.per_query[single_id.index()][&1].is_empty(), "sink consumed the events");
        let expected = replay(
            &single_q,
            &key_events(1, 40).iter().map(|e| e.event.clone()).collect::<Vec<_>>(),
            Time::new(44),
        );
        let streamed: Vec<Event<Value>> = streamed.lock().unwrap().clone();
        assert!(streams_equivalent(&coalesce(&expected), &coalesce(&streamed)));
    }

    #[test]
    fn narrow_query_with_own_settings_is_not_gated_by_wide_query() {
        // The per-query-settings escape hatch for the mixed-arity gotcha:
        // give the 1-input query its own emission cadence, so it lands in
        // its own cell and streams even while the 2-input query's second
        // source is silent.
        let single_q = sliding_sum_query(4);
        let dual = {
            let mut b = Query::builder();
            let a_in = b.input("a", DataType::Float);
            let b_in = b.input("b", DataType::Float);
            let sum = b.temporal(
                "sum",
                TDom::every_tick(),
                Expr::reduce_window(ReduceOp::Sum, a_in, 4).add(Expr::reduce_window(
                    ReduceOp::Sum,
                    b_in,
                    4,
                )),
            );
            Arc::new(Compiler::new().compile(&b.finish(sum).unwrap()).unwrap())
        };
        let streamed = Arc::new(std::sync::Mutex::new(Vec::<Event<Value>>::new()));
        let sink_store = Arc::clone(&streamed);
        let mut builder = StreamService::builder(RuntimeConfig {
            shards: 1,
            emit_interval: 4,
            ..RuntimeConfig::default()
        });
        builder.register_with(
            Arc::clone(&single_q),
            QuerySettings {
                emit_interval: Some(1), // distinct settings: own cell
                sink: Some(Arc::new(move |_key, events| {
                    sink_store.lock().unwrap().extend(events.iter().cloned());
                })),
                ..QuerySettings::default()
            },
        );
        builder.register(dual);
        let multi = builder.start().unwrap();
        multi.ingest(key_events(1, 40)); // source 1 stays silent
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while streamed.lock().unwrap().is_empty() && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert!(
            !streamed.lock().unwrap().is_empty(),
            "a decoupled 1-input query must stream despite the silent source"
        );
        let out = multi.finish_at(Time::new(44));
        let expected = replay(
            &single_q,
            &key_events(1, 40).iter().map(|e| e.event.clone()).collect::<Vec<_>>(),
            Time::new(44),
        );
        let streamed: Vec<Event<Value>> = streamed.lock().unwrap().clone();
        assert!(streams_equivalent(&coalesce(&expected), &coalesce(&streamed)));
        assert_eq!(out.stats.late_dropped, 0);
    }

    #[test]
    fn conflicting_source_types_are_rejected() {
        let float_q = sliding_sum_query(4);
        let int_q = {
            let mut b = Query::builder();
            let input = b.input("x", DataType::Int);
            let s =
                b.temporal("s", TDom::every_tick(), Expr::reduce_window(ReduceOp::Count, input, 4));
            Arc::new(Compiler::new().compile(&b.finish(s).unwrap()).unwrap())
        };
        let mut builder = StreamService::builder(RuntimeConfig::default());
        builder.register(Arc::clone(&float_q));
        builder.register(Arc::clone(&int_q));
        assert!(builder.start().is_err());
        // An empty service is now legal (attach-first pattern)…
        let empty = StreamService::start(RuntimeConfig::default());
        // …and live attach enforces the same type discipline.
        empty.attach(float_q, QuerySettings::default()).unwrap();
        assert!(matches!(
            empty.attach(int_q, QuerySettings::default()),
            Err(ServiceError::Compile(_))
        ));
        empty.finish();
    }

    // ── Control plane: attach / detach / subscribe ─────────────────────

    #[test]
    fn attach_joins_at_frontier_and_matches_suffix_run() {
        let cq = sliding_sum_query(4);
        let (service, q0) =
            single(&cq, RuntimeConfig { shards: 2, emit_interval: 1, ..RuntimeConfig::default() });
        service.ingest(key_events(1, 50));
        service.ingest(key_events(2, 50));
        let tenant = service.attach(Arc::clone(&cq), QuerySettings::default()).unwrap();
        assert!(tenant.frontier() >= Time::new(50), "frontier must clear every ingested event");
        assert_eq!(service.num_queries(), 2);
        let suffix: Vec<KeyedEvent> = (51..=120)
            .flat_map(|t| {
                [1u64, 2u64].map(|k| {
                    KeyedEvent::new(
                        k,
                        0,
                        Event::point(Time::new(t), Value::Float(k as f64 + t as f64)),
                    )
                })
            })
            .collect();
        service.ingest(suffix.iter().cloned());
        let end = Time::new(128);
        let out = service.finish_at(end);
        assert_eq!(out.stats.attached, 1);
        assert_eq!(out.stats.query_frontiers[tenant.index()], tenant.frontier());

        // The tenant sees exactly what a standalone service rooted at the
        // frontier and fed only the suffix would see.
        let (suffix_run, sq) = single(
            &cq,
            RuntimeConfig {
                shards: 2,
                emit_interval: 1,
                start: tenant.frontier(),
                ..RuntimeConfig::default()
            },
        );
        suffix_run.ingest(suffix.iter().cloned());
        let solo = suffix_run.finish_at(end);
        for k in [1u64, 2u64] {
            assert!(
                streams_equivalent(
                    &coalesce(&solo.per_query[sq.index()][&k]),
                    &coalesce(&out.per_query[tenant.index()][&k])
                ),
                "tenant key {k} diverged from the standalone suffix run"
            );
        }
        // And the original query saw everything.
        let full: Vec<Event<Value>> = key_events(1, 50)
            .iter()
            .map(|ke| ke.event.clone())
            .chain(suffix.iter().filter(|ke| ke.key == 1).map(|ke| ke.event.clone()))
            .collect();
        let expected = replay(&cq, &full, end);
        assert!(streams_equivalent(
            &coalesce(&expected),
            &coalesce(&out.per_query[q0.index()][&1])
        ));
    }

    #[test]
    fn detach_reclaims_sessions_and_leaves_survivors_identical() {
        let cq = sliding_sum_query(4);
        let events_a = key_events(1, 60);
        // The second phase postdates the attach frontier (≥ 60), so the
        // attached cell actually opens sessions to reclaim.
        let events_b: Vec<KeyedEvent> = (61..=120)
            .map(|t| {
                KeyedEvent::new(2, 0, Event::point(Time::new(t), Value::Float(2.0 + t as f64)))
            })
            .collect();

        // Baseline: survivor alone over the whole stream.
        let (baseline, bq) =
            single(&cq, RuntimeConfig { shards: 2, emit_interval: 1, ..RuntimeConfig::default() });
        baseline.ingest(events_a.iter().cloned());
        baseline.ingest(events_b.iter().cloned());
        let base = baseline.finish_at(Time::new(130));

        // Churning service: a second query joins pre-start (shared cell)
        // and a third attaches mid-stream (own cell); both detach.
        let mut builder = StreamService::builder(RuntimeConfig {
            shards: 2,
            emit_interval: 1,
            ..RuntimeConfig::default()
        });
        let survivor = builder.register(Arc::clone(&cq));
        let doomed = builder.register(Arc::clone(&cq));
        let service = builder.start().unwrap();
        service.ingest(events_a.iter().cloned());
        let attached = service.attach(Arc::clone(&cq), QuerySettings::default()).unwrap();
        service.detach(doomed).unwrap(); // exercises in-cell member removal
        service.ingest(events_b.iter().cloned());
        service.detach(attached).unwrap(); // exercises whole-cell teardown
        assert!(service.detach(attached).is_err(), "double detach must fail");
        assert!(
            service.detach(QueryHandle { id: 99, frontier: Time::ZERO }).is_err(),
            "unknown handle must fail"
        );
        let out = service.finish_at(Time::new(130));
        assert_eq!(out.stats.detached, 2);
        assert_eq!(out.stats.queries_live, 1);
        assert!(out.stats.sessions_reclaimed > 0, "cell teardown must reclaim sessions");
        // Detached queries hand back nothing.
        assert!(out.per_query[doomed.index()].values().all(|v| v.is_empty()));
        assert!(out.per_query[attached.index()].values().all(|v| v.is_empty()));
        // The survivor is byte-identical to its churn-free baseline.
        for k in [1u64, 2u64] {
            assert!(
                streams_equivalent(
                    &coalesce(&base.per_query[bq.index()][&k]),
                    &coalesce(&out.per_query[survivor.index()][&k])
                ),
                "survivor key {k} changed under attach/detach churn"
            );
        }
    }

    #[test]
    fn subscribe_streams_live_output_without_finish() {
        let cq = sliding_sum_query(4);
        let (service, q) =
            single(&cq, RuntimeConfig { shards: 1, emit_interval: 1, ..RuntimeConfig::default() });
        service.ingest(key_events(1, 30));
        let streamed = Arc::new(std::sync::Mutex::new(Vec::<Event<Value>>::new()));
        let sink_store = Arc::clone(&streamed);
        service
            .subscribe(
                q,
                Arc::new(move |_key, events| {
                    sink_store.lock().unwrap().extend(events.iter().cloned());
                }),
            )
            .unwrap();
        // Later traffic reaches the sink while the service runs.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        let mut t = 31i64;
        while streamed.lock().unwrap().is_empty() && std::time::Instant::now() < deadline {
            service.send(KeyedEvent::new(1, 0, Event::point(Time::new(t), Value::Float(1.0))));
            t += 1;
        }
        assert!(!streamed.lock().unwrap().is_empty(), "subscription never streamed");
        service.finish();
    }

    #[test]
    fn ingest_before_first_attach_drops_and_counts() {
        // An attach-first service fed before any query exists must refuse
        // the events gracefully — not panic a shard thread.
        let service = StreamService::start(RuntimeConfig { shards: 2, ..RuntimeConfig::default() });
        service.ingest(key_events(1, 10));
        let cq = sliding_sum_query(4);
        let q = service.attach(Arc::clone(&cq), QuerySettings::default()).unwrap();
        service.ingest(
            (11..=30).map(|t| KeyedEvent::new(1, 0, Event::point(Time::new(t), Value::Float(1.0)))),
        );
        let out = service.finish_at(Time::new(34));
        assert_eq!(out.stats.late_dropped, 10, "pre-attach events are refused and counted");
        assert!(!out.per_query[q.index()][&1].is_empty());
    }

    /// The `service_scalars!` table is the only list of scalar counters:
    /// registration, the stats snapshot, the wire fields and the
    /// checkpoint record all follow it.
    #[test]
    fn every_scalar_row_reaches_the_registry_the_snapshot_and_the_checkpoint() {
        use tilt_obs::SampleValue;
        let service = StreamService::start(RuntimeConfig { shards: 1, ..RuntimeConfig::default() });
        let registry = service.registry();
        // (is a counter, current value) of a metric, straight from the registry.
        let sample = |metric: &str| match service.metrics().find(metric, &[]).map(|s| &s.value) {
            Some(SampleValue::Counter(v)) => (true, *v as i64),
            Some(SampleValue::Gauge(v)) => (false, *v),
            other => panic!("{metric} is not a registered scalar: {other:?}"),
        };
        // Poke every row to its own prime, through the registry by name.
        let primes = (2u64..).filter(|n| (2..*n).all(|d| n % d != 0));
        for (&(_, metric, _), prime) in stats::SCALARS.iter().zip(primes) {
            match sample(metric).0 {
                true => registry.counter(metric).add(prime),
                false => registry.gauge(metric).set(prime as i64),
            }
        }
        let before: HashMap<&str, i64> = service.stats().fields().collect();
        for &(field, metric, _) in stats::SCALARS {
            assert!(before[field] >= 2, "{field} was poked");
            assert_eq!(before[field], sample(metric).1, "{field} reads {metric}");
        }
        // The names the benchmark's remote scrape reads.
        for name in [
            "events_out",
            "late_dropped",
            "backstop_dropped",
            "quarantine_dropped",
            "conservation_balance",
            "evictions",
            "revivals",
            "live_keys",
        ] {
            assert!(before.contains_key(name), "fields() lost {name}");
        }

        let dir = std::env::temp_dir().join(format!("tilt-scalar-table-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.tiltsnp");
        let bytes = service.checkpoint(&path).expect("checkpoint") as i64;
        service.finish();
        let restored = StreamService::restore(&path, &[]).expect("restore");
        let after: HashMap<&str, i64> = restored.stats().fields().collect();
        for &(field, _, _) in stats::SCALARS.iter().filter(|row| row.2) {
            // The snapshot counts itself; reading it back counts its bytes.
            let expected = before[field]
                + match field {
                    "checkpoints" => 1,
                    "state_bytes_read" => bytes,
                    _ => 0,
                };
            assert_eq!(after[field], expected, "{field} survives checkpoint → restore");
        }
        restored.finish();
        std::fs::remove_dir_all(&dir).ok();
    }
}
