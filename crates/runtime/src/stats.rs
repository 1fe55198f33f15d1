//! Runtime observability: lock-free counters updated by producers and
//! shard workers, snapshotted on demand as [`RuntimeStats`].
//!
//! Every scalar counter and gauge here is an instrument registered in a
//! [`tilt_obs::Registry`], so the same numbers that drive [`RuntimeStats`]
//! are exportable as Prometheus text exposition or JSON
//! ([`crate::StreamService::metrics`]) without a second bookkeeping path.
//! The registry hands out `Arc`'d atomics at registration; hot paths never
//! touch the registry lock. The scalars are declared once, in the
//! `service_scalars!` table: handle, metric name, checkpoint membership,
//! [`RuntimeStats`] field and wire name all derive from one row.
//!
//! Three layers of detail:
//!
//! * **Base counters** — always on (they are the seed-era service health
//!   numbers: throughput, drops, keys, control-plane counts). One relaxed
//!   atomic op each, same cost as before the rework.
//! * **Detailed instrumentation** — gated by
//!   [`crate::RuntimeConfig::metrics`]: per-shard histograms (ingest lag,
//!   watermark lag, reorder residency, advance/flush wall time), per-query
//!   late/kernel attribution, and the control-plane [`Journal`]. Disabled,
//!   none of these paths read a clock or touch a histogram.
//! * **Conservation counters** — `events_consumed` and `detach_dropped`
//!   complete the event-accounting partition so that
//!   [`RuntimeStats::conservation_balance`] can audit that every ingested
//!   event is accounted for exactly once.
//!
//! Per-query tables (output counts, join frontiers, sinks) are growable
//! behind `RwLock`s because the control plane can attach queries to a
//! *running* service; the hot paths only ever take the read lock.

use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use tilt_data::Time;
use tilt_obs::{Counter, Gauge, Histogram, Journal, JournalSnapshot, MetricsSnapshot};

use crate::OutputSink;

/// One control-plane transition, as recorded in the service journal
/// ([`crate::StreamService::journal`]).
///
/// The journal records *transitions* — state changes of the service's
/// key/query population — not per-event outcomes: a `DropNewest` backstop
/// refusal only moves a counter ([`RuntimeStats::backstop_dropped`]),
/// while a force-drain *trigger* changes a key's effective frontier and is
/// journaled.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ControlEvent {
    /// A query joined: at service start (`live: false`) or via
    /// [`crate::StreamService::attach`] (`live: true`).
    Attach {
        /// The query's slot ([`crate::QueryHandle::index`]).
        query: usize,
        /// The join frontier it was admitted at.
        frontier: Time,
        /// Whether this was a live attach to the running service.
        live: bool,
    },
    /// A query was detached ([`crate::StreamService::detach`]).
    Detach {
        /// The query's slot.
        query: usize,
    },
    /// An idle key's sessions were retired by a TTL policy.
    Evict {
        /// The shard that owned the key.
        shard: usize,
        /// The retired key.
        key: u64,
        /// `true` for the wall-clock TTL, `false` for event-time idleness.
        wall: bool,
    },
    /// An evicted key was transparently re-created by a later arrival.
    Revive {
        /// The shard that owns the key.
        shard: usize,
        /// The revived key.
        key: u64,
    },
    /// A key's kernel execution panicked; the key is quarantined and its
    /// pending events were discarded.
    Quarantine {
        /// The shard that owned the key.
        shard: usize,
        /// The quarantined key.
        key: u64,
        /// Buffered events discarded at quarantine time (subsequent
        /// arrivals are counted in [`RuntimeStats::quarantine_dropped`]
        /// as they are refused).
        dropped: u64,
    },
    /// The [`crate::BackstopPolicy::ForceDrain`] backstop fired: a cap was
    /// hit and the key's oldest buffered events were drained into its
    /// sessions ahead of the watermark.
    BackstopDrain {
        /// The shard that owns the key.
        shard: usize,
        /// The drained key.
        key: u64,
        /// Events force-drained by this trigger.
        drained: u64,
    },
    /// A whole-service checkpoint was written
    /// ([`crate::StreamService::checkpoint`]).
    Checkpoint {
        /// Shards quiesced into the snapshot.
        shards: usize,
        /// Snapshot file size in bytes.
        bytes: u64,
    },
    /// A service was rebuilt from a checkpoint
    /// ([`crate::StreamService::restore`]).
    Restored {
        /// Shards rebuilt from the snapshot.
        shards: usize,
        /// Snapshot file size in bytes.
        bytes: u64,
    },
    /// An idle key's state was serialized verbatim to the spill store
    /// instead of being flushed to a tombstone.
    Spill {
        /// The shard that owned the key.
        shard: usize,
        /// The spilled key.
        key: u64,
    },
    /// A spilled key's on-disk bundle failed to read back (torn,
    /// bit-rotted, or lost). The key quarantines fail-closed, but this
    /// event — unlike a plain [`ControlEvent::Quarantine`] — tells the
    /// operator the cause was disk corruption, not a kernel panic.
    SpillCorrupt {
        /// The shard that owns the key.
        shard: usize,
        /// The key whose bundle was unreadable.
        key: u64,
    },
    /// A key's sessions moved between shards
    /// ([`crate::StreamService::migrate_key`] /
    /// [`crate::StreamService::rebalance`]).
    Migrate {
        /// The migrated key.
        key: u64,
        /// The shard the key left.
        from: usize,
        /// The shard the key now lives on.
        to: usize,
    },
    /// A remote client connected to a network front end serving this
    /// service (recorded via [`crate::StreamService::record_control`]).
    Connect {
        /// The front end's connection id.
        conn: u64,
    },
    /// A remote client's connection closed (cleanly or on error).
    Disconnect {
        /// The front end's connection id.
        conn: u64,
    },
    /// A remote client subscribed to a query's per-key output stream.
    Subscribe {
        /// The front end's connection id.
        conn: u64,
        /// The subscribed query's slot.
        query: usize,
    },
}

impl std::fmt::Display for ControlEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ControlEvent::Attach { query, frontier, live } => {
                let how = if *live { "live-attach" } else { "register" };
                write!(f, "{how} query={query} frontier={}", frontier.ticks())
            }
            ControlEvent::Detach { query } => write!(f, "detach query={query}"),
            ControlEvent::Evict { shard, key, wall } => {
                let how = if *wall { "wall-evict" } else { "evict" };
                write!(f, "{how} shard={shard} key={key}")
            }
            ControlEvent::Revive { shard, key } => write!(f, "revive shard={shard} key={key}"),
            ControlEvent::Quarantine { shard, key, dropped } => {
                write!(f, "quarantine shard={shard} key={key} dropped={dropped}")
            }
            ControlEvent::BackstopDrain { shard, key, drained } => {
                write!(f, "backstop-drain shard={shard} key={key} drained={drained}")
            }
            ControlEvent::Checkpoint { shards, bytes } => {
                write!(f, "checkpoint shards={shards} bytes={bytes}")
            }
            ControlEvent::Restored { shards, bytes } => {
                write!(f, "restored shards={shards} bytes={bytes}")
            }
            ControlEvent::Spill { shard, key } => write!(f, "spill shard={shard} key={key}"),
            ControlEvent::SpillCorrupt { shard, key } => {
                write!(f, "spill-corrupt shard={shard} key={key}")
            }
            ControlEvent::Migrate { key, from, to } => {
                write!(f, "migrate key={key} from={from} to={to}")
            }
            ControlEvent::Connect { conn } => write!(f, "connect conn={conn}"),
            ControlEvent::Disconnect { conn } => write!(f, "disconnect conn={conn}"),
            ControlEvent::Subscribe { conn, query } => {
                write!(f, "subscribe conn={conn} query={query}")
            }
        }
    }
}

/// The per-query attribution counters, cached by execution cells so the
/// emit/advance hot paths touch plain `Arc`'d atomics instead of the
/// per-query table lock.
#[derive(Clone, Debug)]
pub(crate) struct QueryCounters {
    /// Output events emitted for this query.
    pub(crate) emitted: Arc<Counter>,
    /// Events this query lost to its lateness bound (admission refusals
    /// and released-but-never-admitted stragglers, attributed per query —
    /// the service-wide [`RuntimeStats::late_dropped`] counts an event
    /// only when *no* query could use it).
    pub(crate) late: Arc<Counter>,
    /// Kernel work attributed to this query, in *millikernels*: each cell
    /// advance that runs `d` distinct kernels for `m` member queries
    /// charges each member `d·1000/m`, so shared-kernel work splits
    /// evenly and the totals still sum to `kernels_run × 1000` per cell.
    pub(crate) kernel_millis: Arc<Counter>,
}

/// Declares the scalar service counters and gauges **once**. Each row is
/// `field: "metric name"` under the documentation of its public
/// [`RuntimeStats`] field; from the rows this derives
///
/// * the handle field in [`SharedStats`] and its registration in
///   [`SharedStats::new`],
/// * the counter list a checkpoint carries, in both directions
///   ([`SharedStats::durable`], in `durable` row order),
/// * the [`RuntimeStats`] field, its sampling in [`SharedStats::snapshot`],
///   and its `(name, value)` entry in [`RuntimeStats::fields`].
///
/// Adding a counter is one row. Per-shard vectors, per-query attribution
/// and the derived watermark/throughput fields are written out by hand in
/// the macro body below.
macro_rules! service_scalars {
    (
        durable { $( $(#[$ddoc:meta])* $d:ident: $dm:literal, )* }
        counters { $( $(#[$cdoc:meta])* $c:ident: $cm:literal, )* }
        gauges { $( $(#[$gdoc:meta])* $g:ident: $gt:ty = $gm:literal, )* }
    ) => {
        /// Shared counters and instruments; one instance per service,
        /// updated by every producer and shard thread.
        pub(crate) struct SharedStats {
            $( pub(crate) $d: Arc<Counter>, )*
            $( pub(crate) $c: Arc<Counter>, )*
            $( pub(crate) $g: Arc<Gauge>, )*
            /// The metric registry every instrument here is registered in;
            /// the source for [`crate::StreamService::metrics`].
            pub(crate) registry: Arc<tilt_obs::Registry>,
            pub(crate) started: Instant,
            /// Whether detailed instrumentation (histograms, per-query
            /// attribution, kernel timing, the journal) is collected.
            /// Base counters are always on.
            pub(crate) detailed: bool,
            journal: Journal<ControlEvent>,
            /// Per registered query (by [`crate::QueryHandle`] index):
            /// attribution counters. Grows on live attach.
            per_query: RwLock<Vec<QueryCounters>>,
            /// Per registered query: the join frontier it was admitted at
            /// (`config.start` for queries registered before the service
            /// started).
            pub(crate) query_frontier: RwLock<Vec<i64>>,
            /// The newest event end seen (feeds attach-frontier
            /// negotiation).
            pub(crate) max_event_end: Arc<Gauge>,
            /// The largest explicit watermark promise made on any source
            /// (feeds attach-frontier negotiation).
            pub(crate) max_promise: Arc<Gauge>,
            /// Per shard: events sent to the shard and not yet accepted —
            /// in its channel, or in the receive burst it is accepting
            /// (a burst leaves this gauge in one step, when it is settled).
            pub(crate) queue_depth: Vec<Arc<Gauge>>,
            /// Per shard: events currently held in reorder buffers (gauge;
            /// the backstop caps this). Written by the shard thread only.
            pub(crate) reorder_pending: Vec<Arc<Gauge>>,
            /// Per shard: the low-watermark the shard last propagated
            /// (minimum over its live cells' watermarks).
            pub(crate) shard_watermark: Vec<Arc<Gauge>>,
            /// Per shard: how many ticks each accepted event trails the
            /// newest event start seen on its source (0 = in order).
            pub(crate) ingest_lag: Vec<Arc<Histogram>>,
            /// Per shard: ticks between the newest event start the shard
            /// has seen and each cell's previously finalized emission
            /// point, sampled as a new cycle becomes due (finalization
            /// staleness at catch-up).
            pub(crate) watermark_lag_hist: Vec<Arc<Histogram>>,
            /// Per shard: ticks each event sat in a reorder buffer past its
            /// start before release.
            pub(crate) reorder_residency: Vec<Arc<Histogram>>,
            /// Per shard: wall nanoseconds per watermark-advance cycle.
            pub(crate) advance_ns: Vec<Arc<Histogram>>,
            /// Per shard: wall nanoseconds per shutdown-flush drain.
            pub(crate) flush_ns: Vec<Arc<Histogram>>,
            /// Per shard: events in each receive burst the shard accepted.
            pub(crate) burst_events: Vec<Arc<Histogram>>,
            /// Per shard: distinct keys in each receive burst. Events over
            /// keys is how many events one visit to a key's state serves.
            pub(crate) burst_keys: Vec<Arc<Histogram>>,
        }

        impl SharedStats {
            pub(crate) fn new(shards: usize, detailed: bool, journal_capacity: usize) -> Self {
                let r = Arc::new(tilt_obs::Registry::new());
                let per_shard_gauge = |name: &str| -> Vec<Arc<Gauge>> {
                    (0..shards).map(|i| r.gauge_with(name, &[("shard", &i.to_string())])).collect()
                };
                let per_shard_hist = |name: &str| -> Vec<Arc<Histogram>> {
                    (0..shards)
                        .map(|i| r.histogram_with(name, &[("shard", &i.to_string())]))
                        .collect()
                };
                let floor = |gauge: Arc<Gauge>| {
                    gauge.set(Time::MIN.ticks());
                    gauge
                };
                SharedStats {
                    $( $d: r.counter($dm), )*
                    $( $c: r.counter($cm), )*
                    $( $g: r.gauge($gm), )*
                    started: Instant::now(),
                    detailed,
                    journal: Journal::new(journal_capacity),
                    per_query: RwLock::new(Vec::new()),
                    query_frontier: RwLock::new(Vec::new()),
                    max_event_end: floor(r.gauge("tilt_max_event_end_ticks")),
                    max_promise: floor(r.gauge("tilt_max_promise_ticks")),
                    queue_depth: per_shard_gauge("tilt_queue_depth"),
                    reorder_pending: per_shard_gauge("tilt_reorder_pending"),
                    shard_watermark: per_shard_gauge("tilt_shard_watermark_ticks")
                        .into_iter()
                        .map(floor)
                        .collect(),
                    ingest_lag: per_shard_hist("tilt_ingest_lag_ticks"),
                    watermark_lag_hist: per_shard_hist("tilt_watermark_lag_ticks"),
                    reorder_residency: per_shard_hist("tilt_reorder_residency_ticks"),
                    advance_ns: per_shard_hist("tilt_advance_ns"),
                    flush_ns: per_shard_hist("tilt_flush_ns"),
                    burst_events: per_shard_hist("tilt_burst_events"),
                    burst_keys: per_shard_hist("tilt_burst_keys"),
                    registry: r,
                }
            }

            /// The monotone service counters a checkpoint carries, in the
            /// order the record stores them. Rows may only be appended:
            /// restore zips, so older snapshots with fewer entries still
            /// load. Gauges (queue depths, pending, live keys) are
            /// deliberately absent: restore recomputes them from the
            /// reinstalled state.
            fn durable(&self) -> Vec<&Counter> {
                vec![ $( &*self.$d, )* ]
            }

            pub(crate) fn snapshot(&self) -> RuntimeStats {
                // The two gauges an event passes through on its way in are
                // read back to back: a shard moves a burst from one to the
                // other in two adjacent steps, and a snapshot that reads
                // anything in between counts those events twice.
                let queue_depths: Vec<usize> =
                    self.queue_depth.iter().map(|d| d.get().max(0) as usize).collect();
                let reorder_pending: Vec<usize> =
                    self.reorder_pending.iter().map(|d| d.get().max(0) as usize).collect();
                let shard_watermarks: Vec<Time> =
                    self.shard_watermark.iter().map(|w| Time::new(w.get())).collect();
                let min_watermark = shard_watermarks.iter().copied().min().unwrap_or(Time::MIN);
                let max_event_end = Time::new(self.max_event_end.get());
                let elapsed = self.started.elapsed();
                let events_in = self.events_in.get();
                let per_query = self.per_query.read().expect("stats lock");
                RuntimeStats {
                    $( $d: self.$d.get(), )*
                    $( $c: self.$c.get(), )*
                    $( $g: self.$g.get().max(0) as $gt, )*
                    events_out_per_query: per_query.iter().map(|c| c.emitted.get()).collect(),
                    late_per_query: per_query.iter().map(|c| c.late.get()).collect(),
                    kernel_millis_per_query: per_query
                        .iter()
                        .map(|c| c.kernel_millis.get())
                        .collect(),
                    query_frontiers: self
                        .query_frontier
                        .read()
                        .expect("stats lock")
                        .iter()
                        .map(|t| Time::new(*t))
                        .collect(),
                    reorder_pending,
                    queue_depths,
                    shard_watermarks,
                    min_watermark,
                    watermark_lag: if max_event_end > min_watermark {
                        max_event_end - min_watermark
                    } else {
                        0
                    },
                    elapsed,
                    events_per_sec: if elapsed.as_secs_f64() > 0.0 {
                        events_in as f64 / elapsed.as_secs_f64()
                    } else {
                        0.0
                    },
                }
            }
        }

        /// A point-in-time snapshot of service health, returned by
        /// [`crate::StreamService::stats`].
        #[derive(Clone, Debug)]
        pub struct RuntimeStats {
            $( $(#[$ddoc])* pub $d: u64, )*
            $( $(#[$cdoc])* pub $c: u64, )*
            $( $(#[$gdoc])* pub $g: $gt, )*
            /// Output events emitted per registered query, indexed by
            /// [`crate::QueryHandle::index`]. Detached queries keep their
            /// final counts.
            pub events_out_per_query: Vec<u64>,
            /// Per registered query: events that query lost to its own
            /// lateness bound (admission refusals attributed per query; an
            /// event several queries refuse is attributed to each).
            /// Collected only with [`crate::RuntimeConfig::metrics`] on;
            /// zeros otherwise.
            pub late_per_query: Vec<u64>,
            /// Per registered query: kernel work attributed to it, in
            /// *millikernels* (an advance running `d` distinct kernels for
            /// `m` member queries charges each member `d·1000/m`).
            /// Collected only with [`crate::RuntimeConfig::metrics`] on;
            /// zeros otherwise.
            pub kernel_millis_per_query: Vec<u64>,
            /// Per registered query: the join frontier it was admitted at —
            /// `config.start` for queries registered before the service
            /// started, the negotiated attach frontier for live attaches.
            /// Monotone non-decreasing in registration order.
            pub query_frontiers: Vec<Time>,
            /// Events currently held in each shard's reorder buffers
            /// (gauge; the backstop caps on this are
            /// [`crate::RuntimeConfig::max_pending_per_key`] and
            /// [`crate::RuntimeConfig::max_pending_per_shard`]).
            pub reorder_pending: Vec<usize>,
            /// Events sent to each shard and not yet accepted: those in its
            /// ingest queue (the backpressure signal) plus the receive burst
            /// it is working through, at most 64 messages' worth.
            pub queue_depths: Vec<usize>,
            /// Each shard's current low-watermark.
            pub shard_watermarks: Vec<Time>,
            /// The minimum shard watermark: everything at or before this
            /// time has been finalized on every shard.
            pub min_watermark: Time,
            /// Ticks between the newest event seen and the minimum
            /// watermark — how far finalization trails ingestion.
            pub watermark_lag: i64,
            /// Wall-clock time since the service started.
            pub elapsed: Duration,
            /// Ingest throughput since start (events per wall-clock second).
            pub events_per_sec: f64,
        }

        impl RuntimeStats {
            /// Every scalar counter and gauge as a `(field name, value)`
            /// pair, plus [`RuntimeStats::conservation_balance`] — the
            /// form remote scrapes carry.
            pub fn fields(&self) -> impl Iterator<Item = (&'static str, i64)> {
                [
                    $( (stringify!($d), self.$d as i64), )*
                    $( (stringify!($c), self.$c as i64), )*
                    $( (stringify!($g), self.$g as i64), )*
                    ("conservation_balance", self.conservation_balance()),
                ]
                .into_iter()
            }
        }

        /// `(field, metric name, checkpointed)` per row, for the test that
        /// holds every derived list to the table.
        #[cfg(test)]
        pub(crate) const SCALARS: &[(&str, &str, bool)] = &[
            $( (stringify!($d), $dm, true), )*
            $( (stringify!($c), $cm, false), )*
            $( (stringify!($g), $gm, false), )*
        ];
    };
}

service_scalars! {
    durable {
        /// Events accepted by ingestion so far.
        events_in: "tilt_events_in_total",
        /// Output events emitted across all keys and queries so far.
        events_out: "tilt_events_out_total",
        /// Events released from reorder buffers into at least one query's
        /// session (an event consumed by several cells counts once). With
        /// `late_dropped`, the drop counters, and the pending gauges this
        /// partitions `events_in` — see
        /// [`RuntimeStats::conservation_balance`].
        events_consumed: "tilt_events_consumed_total",
        /// Events released from reorder buffers after every query that
        /// could have consumed them detached (neither consumed nor late).
        detach_dropped: "tilt_detach_dropped_total",
        /// Events no registered query could use: later than every
        /// interested query's allowed lateness, or addressed to a source
        /// position no query reads (e.g. ingesting into an attach-first
        /// service before its first attach). Counted once per event,
        /// however many queries are registered.
        late_dropped: "tilt_late_dropped_total",
        /// Distinct keys ever seen (live, evicted, and quarantined).
        keys: "tilt_keys_total",
        /// Idle sessions retired by the TTL policies.
        evictions: "tilt_evictions_total",
        /// The subset of `evictions` triggered by the wall-clock TTL
        /// ([`crate::RuntimeConfig::wall_clock_ttl`]) rather than
        /// event-time idleness.
        wall_evictions: "tilt_wall_evictions_total",
        /// Evicted keys whose session was transparently re-created by a
        /// later arrival.
        revivals: "tilt_revivals_total",
        /// Events rejected by the reorder-buffer backstop under
        /// [`crate::BackstopPolicy::DropNewest`] (arrivals behind a
        /// force-drained frontier are counted as `late_dropped` instead).
        backstop_dropped: "tilt_backstop_dropped_total",
        /// Events force-drained into their session ahead of the watermark
        /// under [`crate::BackstopPolicy::ForceDrain`].
        backstop_forced: "tilt_backstop_forced_total",
        /// Keys quarantined after a panic inside their kernel execution;
        /// their subsequent events are dropped (`quarantine_dropped`)
        /// instead of taking the shard down.
        keys_quarantined: "tilt_keys_quarantined_total",
        /// Events dropped because their key is quarantined, plus buffered
        /// events discarded at quarantine time.
        quarantine_dropped: "tilt_quarantine_dropped_total",
        /// Events accepted into per-key reorder buffers. Reorder/watermark
        /// work is shared: this counts each ingested event once no matter
        /// how many queries are registered, whereas N independent services
        /// would buffer and sort every event N times.
        reorder_buffered: "tilt_reorder_buffered_total",
        /// Kernel executions performed by session advances and flushes.
        kernels_run: "tilt_kernels_run_total",
        /// Kernel executions avoided by the structural prefix dedup across
        /// registered queries (0 for a single-query service).
        kernels_saved: "tilt_kernels_saved_total",
        /// Queries attached to the running service (pre-start
        /// registrations are not counted).
        attached: "tilt_attached_total",
        /// Queries detached from the running service.
        detached: "tilt_detached_total",
        /// Per-key execution sessions (and tombstone output slots)
        /// reclaimed by detach.
        sessions_reclaimed: "tilt_sessions_reclaimed_total",
        /// Tombstone output events discarded by
        /// [`crate::RuntimeConfig::tombstone_output_cap`].
        tombstone_dropped: "tilt_tombstone_output_dropped_total",
        /// Keys whose state was spilled verbatim to the cold store instead
        /// of being flushed to an in-memory tombstone (requires
        /// [`crate::StreamServiceBuilder::spill_to`]).
        spills: "tilt_state_spills_total",
        /// Spilled keys revived from disk — by a later arrival or by the
        /// final flush. Every spilled key is eventually revived exactly
        /// once (`tests/state_properties.rs` asserts
        /// `spills == spill_revivals` at shutdown).
        spill_revivals: "tilt_state_revivals_total",
        /// Keys migrated between shards
        /// ([`crate::StreamService::migrate_key`] /
        /// [`crate::StreamService::rebalance`]).
        migrations: "tilt_state_migrations_total",
        /// Whole-service checkpoints written
        /// ([`crate::StreamService::checkpoint`]).
        checkpoints: "tilt_state_checkpoints_total",
        /// Bytes written through the durable state layer: checkpoints,
        /// spill bundles, and migration payloads.
        state_bytes_written: "tilt_state_bytes_written_total",
        /// Bytes read back through the durable state layer.
        state_bytes_read: "tilt_state_bytes_read_total",
        /// Spill bundles that failed to read back from disk. Each one also
        /// quarantined its key — this counter is what distinguishes disk
        /// corruption from kernel panics in
        /// [`RuntimeStats::keys_quarantined`].
        spill_corrupt: "tilt_state_spill_corrupt_total",
    }
    counters {
        /// Reorder-pending decrements that had to be clamped at zero
        /// (always 0 unless accounting is broken;
        /// `tests/observability_properties.rs` asserts on it).
        reorder_underflow: "tilt_reorder_underflow_total",
    }
    gauges {
        /// Keys with a live session right now (created − evicted −
        /// quarantined + revived). With idle eviction enabled
        /// ([`crate::RuntimeConfig::key_ttl`] /
        /// [`crate::RuntimeConfig::wall_clock_ttl`]) this is the
        /// steady-state memory gauge: it tracks the *active* key
        /// population, not every key ever seen.
        live_keys: u64 = "tilt_live_keys",
        /// Queries currently being served.
        queries_live: u64 = "tilt_queries_live",
        /// Buffered events currently serialized inside spill or migration
        /// bundles rather than resident in a reorder buffer. Still part of
        /// the conservation partition:
        /// [`RuntimeStats::conservation_balance`] counts them as their own
        /// account.
        spilled_pending: usize = "tilt_state_spilled_pending",
    }
}

impl std::fmt::Debug for SharedStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SharedStats(in={}, out={}, shards={}, detailed={})",
            self.events_in.get(),
            self.events_out.get(),
            self.queue_depth.len(),
            self.detailed,
        )
    }
}

impl SharedStats {
    /// Records a control-plane transition in the journal (a no-op when
    /// detailed instrumentation is off).
    pub(crate) fn note_control(&self, event: ControlEvent) {
        if self.detailed {
            self.journal.push(event);
        }
    }

    /// Copies out the retained journal events.
    pub(crate) fn journal_snapshot(&self) -> JournalSnapshot<ControlEvent> {
        self.journal.snapshot()
    }

    /// Freezes every registered metric.
    pub(crate) fn metrics(&self) -> MetricsSnapshot {
        // Bridge the dependency-free fault registry's per-site injection
        // counts into the scrape (absolute values, so a gauge). Empty —
        // and absent — in every production run.
        for (site, n) in tilt_fault::counters() {
            self.registry
                .gauge_with("tilt_fault_injected_total", &[("site", &site)])
                .set(n.min(i64::MAX as u64) as i64);
        }
        self.registry.snapshot()
    }

    /// Allocates the next query slot (attribution counters + frontier
    /// record) and returns its index. Callers serialize registrations (the
    /// service's registry lock), so slot indices agree with registry order.
    pub(crate) fn register_query(&self, frontier: Time, live_attach: bool) -> usize {
        let mut counters = self.per_query.write().expect("stats lock");
        let id = counters.len();
        let q = id.to_string();
        let labels: &[(&str, &str)] = &[("query", &q)];
        counters.push(QueryCounters {
            emitted: self.registry.counter_with("tilt_query_emitted_total", labels),
            late: self.registry.counter_with("tilt_query_late_total", labels),
            kernel_millis: self.registry.counter_with("tilt_query_kernel_millis_total", labels),
        });
        drop(counters);
        self.query_frontier.write().expect("stats lock").push(frontier.ticks());
        self.queries_live.add(1);
        if live_attach {
            self.attached.inc();
        }
        self.note_control(ControlEvent::Attach { query: id, frontier, live: live_attach });
        id
    }

    pub(crate) fn note_detach(&self, query: usize) {
        self.detached.inc();
        self.queries_live.sub(1);
        self.note_control(ControlEvent::Detach { query });
    }

    /// The attribution counters for a set of query slots, for cells to
    /// cache (missing slots are skipped — they cannot occur for live
    /// cells).
    pub(crate) fn query_counters(&self, qids: &[usize]) -> Vec<QueryCounters> {
        let table = self.per_query.read().expect("stats lock");
        qids.iter().filter_map(|&q| table.get(q).cloned()).collect()
    }

    pub(crate) fn add_events_out(&self, query: usize, n: u64) {
        self.events_out.add(n);
        let counters = self.per_query.read().expect("stats lock");
        if let Some(c) = counters.get(query) {
            c.emitted.add(n);
        }
    }

    pub(crate) fn note_event_end(&self, end: Time) {
        self.max_event_end.set_max(end.ticks());
    }

    pub(crate) fn note_promise(&self, time: Time) {
        self.max_promise.set_max(time.ticks());
    }

    /// The values of the checkpointed counters ([`SharedStats::durable`]).
    pub(crate) fn durable_counters(&self) -> Vec<u64> {
        self.durable().iter().map(|c| c.get()).collect()
    }

    /// Adds checkpointed counter values onto this (fresh) instance; the
    /// slice must come from [`SharedStats::durable_counters`].
    pub(crate) fn restore_counters(&self, vals: &[u64]) {
        for (counter, v) in self.durable().iter().zip(vals) {
            counter.add(*v);
        }
    }

    /// Decrements a shard's `reorder_pending` gauge, clamping at zero: a
    /// deficit means the accounting double-subtracted (a bug), so it is
    /// surfaced on the `reorder_underflow` counter (and trips debug
    /// builds) instead of corrupting the gauge.
    pub(crate) fn sub_reorder_pending(&self, shard: usize, n: usize) {
        let deficit = self.reorder_pending[shard].sub_clamped(n as i64);
        debug_assert_eq!(deficit, 0, "reorder_pending[{shard}] underflow by {deficit}");
        self.reorder_underflow.add(deficit as u64);
    }
}

/// The per-query sink registry: where each query's finalized events stream,
/// if anywhere. Growable and editable at runtime — that is what lets a
/// caller subscribe to a live query's output without waiting for `finish`.
pub(crate) struct SinkTable {
    sinks: RwLock<Vec<Option<OutputSink>>>,
}

impl std::fmt::Debug for SinkTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let sinks = self.sinks.read().expect("sink lock");
        write!(f, "SinkTable({}/{} set)", sinks.iter().filter(|s| s.is_some()).count(), sinks.len())
    }
}

impl SinkTable {
    pub(crate) fn new() -> Self {
        SinkTable { sinks: RwLock::new(Vec::new()) }
    }

    /// Appends the slot for a newly registered query.
    pub(crate) fn push(&self, sink: Option<OutputSink>) {
        self.sinks.write().expect("sink lock").push(sink);
    }

    /// Installs (or replaces) a live query's sink.
    pub(crate) fn set(&self, query: usize, sink: Option<OutputSink>) {
        let mut sinks = self.sinks.write().expect("sink lock");
        if query >= sinks.len() {
            sinks.resize_with(query + 1, || None);
        }
        sinks[query] = sink;
    }

    /// The sink for `query`, if one is installed.
    pub(crate) fn get(&self, query: usize) -> Option<OutputSink> {
        self.sinks.read().expect("sink lock").get(query).and_then(Clone::clone)
    }

    /// Whether any query has a sink (drives eager emission).
    pub(crate) fn any(&self) -> bool {
        self.sinks.read().expect("sink lock").iter().any(Option::is_some)
    }
}

impl RuntimeStats {
    /// The event-conservation imbalance: `events_in` minus every account
    /// an ingested event can end up in —
    ///
    /// `consumed + late_dropped + backstop_dropped + quarantine_dropped +
    ///  detach_dropped + spilled_pending + Σ reorder_pending + Σ queue_depths`
    ///
    /// Zero at any quiescent point (in particular on the final snapshot a
    /// `finish` returns, where the pending, spilled, and queue terms are
    /// zero). A positive balance means events vanished unaccounted;
    /// negative means something was double-counted. Every differential
    /// suite under `tests/` asserts 0. (`tombstone_dropped` counts *output*
    /// events, which are not part of this partition.)
    pub fn conservation_balance(&self) -> i64 {
        let accounted = self.events_consumed
            + self.late_dropped
            + self.backstop_dropped
            + self.quarantine_dropped
            + self.detach_dropped
            + self.spilled_pending as u64
            + self.reorder_pending.iter().sum::<usize>() as u64
            + self.queue_depths.iter().sum::<usize>() as u64;
        self.events_in as i64 - accounted as i64
    }
}

impl std::fmt::Display for RuntimeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if f.alternate() {
            return self.fmt_multiline(f);
        }
        write!(
            f,
            "in={} out={} late={} keys={} lag={} ticks, {:.0} ev/s, queues {:?}",
            self.events_in,
            self.events_out,
            self.late_dropped,
            self.keys,
            self.watermark_lag,
            self.events_per_sec,
            self.queue_depths,
        )?;
        if self.kernels_saved > 0 {
            write!(f, ", kernels {} run / {} deduped", self.kernels_run, self.kernels_saved)?;
        }
        if self.attached + self.detached > 0 {
            write!(
                f,
                ", queries {} live ({} attached, {} detached, {} sessions reclaimed)",
                self.queries_live, self.attached, self.detached, self.sessions_reclaimed
            )?;
        }
        if self.evictions > 0 {
            write!(
                f,
                ", sessions {} live ({} evicted ({} wall-clock), {} revived)",
                self.live_keys, self.evictions, self.wall_evictions, self.revivals
            )?;
        }
        if self.backstop_dropped + self.backstop_forced > 0 {
            write!(
                f,
                ", backstop {} dropped / {} forced",
                self.backstop_dropped, self.backstop_forced
            )?;
        }
        if self.keys_quarantined > 0 {
            write!(
                f,
                ", {} keys quarantined ({} events refused)",
                self.keys_quarantined, self.quarantine_dropped
            )?;
        }
        if self.checkpoints + self.spills + self.migrations > 0 {
            write!(
                f,
                ", durability {} checkpoints / {} spills ({} revived) / {} migrations",
                self.checkpoints, self.spills, self.spill_revivals, self.migrations
            )?;
        }
        Ok(())
    }
}

impl RuntimeStats {
    /// The `{:#}` pretty form: one labelled line per concern, for
    /// human-facing reports (the examples print this).
    fn fmt_multiline(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "throughput   {} in / {} out in {:.2?} ({:.0} ev/s)",
            self.events_in, self.events_out, self.elapsed, self.events_per_sec
        )?;
        writeln!(
            f,
            "accounting   {} consumed, {} late, {} backstop, {} quarantine, {} detach (balance {})",
            self.events_consumed,
            self.late_dropped,
            self.backstop_dropped,
            self.quarantine_dropped,
            self.detach_dropped,
            self.conservation_balance(),
        )?;
        writeln!(
            f,
            "keys         {} seen, {} live, {} evicted ({} wall-clock), {} revived, {} quarantined",
            self.keys,
            self.live_keys,
            self.evictions,
            self.wall_evictions,
            self.revivals,
            self.keys_quarantined
        )?;
        writeln!(
            f,
            "queries      {} live ({} attached, {} detached, {} sessions reclaimed)",
            self.queries_live, self.attached, self.detached, self.sessions_reclaimed
        )?;
        writeln!(f, "  out        {:?}", self.events_out_per_query)?;
        if self.late_per_query.iter().any(|&n| n > 0) {
            writeln!(f, "  late       {:?}", self.late_per_query)?;
        }
        if self.kernel_millis_per_query.iter().any(|&n| n > 0) {
            writeln!(f, "  kernel(m)  {:?}", self.kernel_millis_per_query)?;
        }
        writeln!(f, "kernels      {} run, {} deduped", self.kernels_run, self.kernels_saved)?;
        if self.checkpoints + self.spills + self.migrations > 0 {
            writeln!(
                f,
                "durability   {} checkpoints, {} spills ({} revived), {} migrations, \
                 {}B written / {}B read",
                self.checkpoints,
                self.spills,
                self.spill_revivals,
                self.migrations,
                self.state_bytes_written,
                self.state_bytes_read
            )?;
        }
        writeln!(
            f,
            "watermark    min {} (lag {} ticks)",
            self.min_watermark.ticks(),
            self.watermark_lag
        )?;
        write!(f, "shards       queues {:?}, pending {:?}", self.queue_depths, self.reorder_pending)
    }
}
