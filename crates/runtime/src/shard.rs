//! The shard worker: one thread owning a disjoint subset of keys.
//!
//! Each shard receives batches of keyed events over a bounded channel,
//! buffers them per key and per source in a reorder buffer, and serves a
//! dynamic set of **cells** — execution units pairing a
//! [`tilt_core::sharing::QueryGroup`] with per-query settings (allowed
//! lateness, emission cadence) and a *join frontier*. Queries registered
//! before start with identical settings share one cell (and therefore
//! kernel-prefix dedup); a query attached to the running service gets its
//! own cell rooted at the negotiated frontier, so its output from that
//! frontier onward is identical to a standalone run over the post-frontier
//! suffix.
//!
//! Per cell, per source, the watermark is `max event start seen − the
//! cell's allowed lateness`, floored by explicit watermark messages; the
//! cell watermark is the minimum over the sources its group reads, and —
//! whenever it crosses a new emission grid point — the matured prefix of
//! every active key's buffer drains into that key's cell session and the
//! session advances. Reorder buffers are **shared across cells**: each
//! event is buffered once and released only once every cell has matured
//! past it (a per-event `taken` flag tracks whether *any* cell consumed
//! it, so fully unconsumed events are still dropped-and-counted exactly
//! once).
//!
//! **A shard accepts a burst, not an event.** Everything queued when the
//! worker wakes (up to `MAX_MSGS_PER_CYCLE` messages) is one *receive
//! burst*. As its batches come off the channel only the arrival pass runs —
//! what depends on the order events arrive in across keys: the source
//! check, `max_start`/`max_end` (so every watermark), the ingest-lag sample
//! and the shard-wide backstop. At the end of the burst the held events are
//! grouped by key and accepted one key at a time, so a key's state — two
//! map probes, its sessions' frontiers, its reorder buffers' tails, all
//! cold after a thousand other keys — is visited once per burst rather than
//! once per event. Within a key, events are accepted in arrival order,
//! ties included, so what a key's buffers, sessions and counters end up
//! holding is what accepting the events one by one leaves there; across
//! keys inside one burst no order is promised (sink calls and journal
//! entries of different keys may interleave differently). A burst is never
//! carried over: it is settled before the emission cycle, before any
//! message that reads per-key state, and before the worker blocks — an
//! idle channel delivers bursts of one message, accepted on arrival.
//!
//! Attach and detach arrive as in-band control messages, so their position
//! in each shard's message stream is deterministic relative to event
//! batches. Detach edits the cell's [`QueryGroup`] incrementally
//! ([`QueryGroup::without_member`]) and migrates live sessions in place;
//! removing a cell's last member tears the cell's per-key sessions and
//! tombstone outputs down (the reclamation counted in
//! `RuntimeStats::sessions_reclaimed`).
//!
//! Keys never migrate between shards, so shards share nothing and run
//! synchronization-free, the runtime analogue of the paper's §6.2
//! partition workers. The hardening mechanisms of PR 3 — idle eviction
//! (now also wall-clock driven via `RuntimeConfig::wall_clock_ttl`),
//! reorder-buffer backstop caps, and per-key panic quarantine — all
//! operate per key, across every cell the key touches.

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{RecvTimeoutError, SyncSender};
use std::sync::Arc;
use std::time::Instant;

use tilt_core::sharing::{GroupSessionIn, QueryGroup, SharedGroupSession};
use tilt_data::{BufPool, Event, SnapshotBuf, Time, Value};
use tilt_state::{Dec, Enc, StateError};

use crate::durability::SpillStore;
use crate::stats::{ControlEvent, QueryCounters, SharedStats, SinkTable};
use crate::{mix_key, BackstopPolicy, KeyHash, KeyedEvent, RuntimeConfig};

/// Messages flowing from the service handle to a shard worker.
pub(crate) enum ShardMsg {
    /// A batch of events, already routed to this shard.
    Batch(Vec<KeyedEvent>),
    /// An explicit promise that source `source` will deliver no further
    /// events *starting* at or before `time`.
    Watermark { source: usize, time: Time },
    /// A query joins the running service as a new cell.
    Attach(Arc<CellSpec>),
    /// A query leaves the running service.
    Detach {
        /// The global query slot being detached.
        qid: usize,
    },
    /// Serialize the shard's full state (keys, tombstones, watermarks,
    /// emission progress) and reply with the record payload. In-band, so
    /// the snapshot reflects exactly the messages enqueued before it.
    /// After replying the shard parks on `resume` until the coordinator
    /// has read the service-wide counters — otherwise a shard could keep
    /// advancing (consuming events its payload still carries as pending)
    /// while the counters are being recorded, tearing the snapshot's
    /// conservation ledger.
    Checkpoint {
        /// Where the serialized shard record goes.
        reply: SyncSender<Vec<u8>>,
        /// Barrier: dropped or signalled by the coordinator once the
        /// counter snapshot is taken.
        resume: std::sync::mpsc::Receiver<()>,
    },
    /// Install a previously checkpointed shard record; sent as a shard's
    /// first message after a restore spawn.
    Restore {
        /// The shard record written by [`ShardMsg::Checkpoint`].
        payload: Vec<u8>,
        /// Install outcome (decode/roster errors travel back typed).
        reply: SyncSender<Result<(), StateError>>,
    },
    /// Serialize one key out of this shard for migration and forget it;
    /// replies `None` when the key holds no live state here.
    MigrateOut {
        /// The key leaving this shard.
        key: u64,
        /// Where the serialized key bundle goes.
        reply: SyncSender<Option<Vec<u8>>>,
    },
    /// Splice a migrated key's state into this shard.
    MigrateIn {
        /// The key arriving on this shard.
        key: u64,
        /// The bundle produced by [`ShardMsg::MigrateOut`].
        bundle: Vec<u8>,
    },
    /// Report per-key load scores (the input to
    /// [`crate::StreamService::rebalance`]).
    Census {
        /// Where the `(key, score)` list goes.
        reply: SyncSender<Vec<(u64, u64)>>,
    },
    /// Final horizon: flush every session through `time` when the channel
    /// closes.
    FinishAt(Time),
}

/// Everything a shard needs to instantiate one cell: built once by the
/// control plane, shared read-only by every shard.
pub(crate) struct CellSpec {
    /// The (deduplicated) execution plan for the cell's member queries.
    pub(crate) group: Arc<QueryGroup>,
    /// Global query slot per group member, in member order.
    pub(crate) qids: Vec<usize>,
    /// The join frontier: per-key sessions root here, and events starting
    /// before it never reach this cell.
    pub(crate) root: Time,
    /// The cell's allowed lateness (ticks).
    pub(crate) lateness: i64,
    /// The cell's emission cadence (minimum watermark advance between
    /// kernel re-runs).
    pub(crate) emit_interval: i64,
}

/// How many channel messages make one *receive burst*: after a blocking
/// `recv`, anything already queued is taken too, up to this bound (so sink
/// latency and the events held stay bounded — at most this many messages
/// of `ingest_batch` events each). The burst is the unit of acceptance:
/// its events are grouped by key and accepted a key at a time, then
/// `maybe_advance` runs once for all of it. An idle channel yields bursts
/// of one message, accepted the moment it arrives.
const MAX_MSGS_PER_CYCLE: usize = 64;

/// Most hash buckets the grouping pass of a burst spreads keys over
/// (`2^11`; a burst uses about one per eight events, see
/// [`Shard::group_burst`]).
const MAX_BUCKET_BITS: u32 = 11;

/// One buffered out-of-order event plus whether any cell consumed it.
#[derive(Debug)]
pub(crate) struct Buffered {
    pub(crate) event: Event<Value>,
    /// Set when some cell pushed the event into its session; events
    /// released with this still unset were useful to nobody and are
    /// counted as late-dropped (exactly once, however many cells exist).
    pub(crate) taken: bool,
}

/// A per-key, per-source reorder buffer kept sorted by `(start, end)` at
/// insertion time (monotone/binary insertion), so maturity scans never
/// re-sort.
///
/// Streams are mostly in order in practice: the fast path is an O(1)
/// append, and a displaced event pays a shift bounded by how far out of
/// order it actually arrived. A key's events are inserted in the order
/// they arrived — burst grouping reorders events of *different* keys
/// only — so equal `(start, end)` pairs drain in arrival order.
#[derive(Debug, Default)]
pub(crate) struct ReorderBuf {
    events: Vec<Buffered>,
}

impl ReorderBuf {
    /// Inserts `ev` at its sorted position; ties keep arrival order
    /// (stable, matching a stable sort).
    pub(crate) fn insert(&mut self, ev: Event<Value>) {
        let key = (ev.start, ev.end);
        let item = Buffered { event: ev, taken: false };
        if self.events.last().is_none_or(|last| (last.event.start, last.event.end) <= key) {
            self.events.push(item);
            return;
        }
        let i = self.events.partition_point(|e| (e.event.start, e.event.end) <= key);
        self.events.insert(i, item);
    }

    /// The matured prefix for one cell: every buffered event starting
    /// before `upto`, in time order, mutable so consumers can mark events
    /// taken. Events starting at or after the watermark stay out of reach —
    /// an earlier-starting straggler could still arrive and must sort in
    /// front of them.
    pub(crate) fn matured_mut(&mut self, upto: Time) -> &mut [Buffered] {
        let n = self.events.partition_point(|e| e.event.start < upto);
        &mut self.events[..n]
    }

    /// Removes every event starting before `upto` — callers pass the
    /// minimum maturity over all consuming cells, so nothing a cell still
    /// needs is released. Returns `(released, untaken)`.
    pub(crate) fn release(&mut self, upto: Time) -> (usize, usize) {
        self.release_with(upto, |_| {})
    }

    /// Like [`ReorderBuf::release`], calling `observe` on each released
    /// event first (the residency-histogram hook; the observation pass
    /// rides the drop scan the release pays anyway).
    pub(crate) fn release_with(
        &mut self,
        upto: Time,
        mut observe: impl FnMut(&Buffered),
    ) -> (usize, usize) {
        let n = self.events.partition_point(|e| e.event.start < upto);
        let mut untaken = 0;
        for e in &self.events[..n] {
            if !e.taken {
                untaken += 1;
            }
            observe(e);
        }
        self.events.drain(..n);
        (n, untaken)
    }

    /// Removes and returns the `n` oldest buffered events (the backstop's
    /// force-drain path), in time order.
    pub(crate) fn drain_oldest(&mut self, n: usize) -> Vec<Buffered> {
        let n = n.min(self.events.len());
        self.events.drain(..n).collect()
    }

    /// Whether any events are pending.
    pub(crate) fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of pending events.
    pub(crate) fn len(&self) -> usize {
        self.events.len()
    }
}

/// One cell as a shard serves it: the shared plan plus per-shard emission
/// progress.
struct Cell {
    group: Arc<QueryGroup>,
    /// Global query slot per group member, in member order.
    qids: Vec<usize>,
    root: Time,
    lateness: i64,
    emit_interval: i64,
    // Cached from `group` (refreshed after incremental edits).
    grid: i64,
    /// How far emission trails the watermark: the group's aligned input
    /// lookahead (0 unless a member shifts into the future).
    lookahead: i64,
    n_sources: usize,
    kernel_counts: (u64, u64),
    /// Per member (parallel to `qids`): the cached attribution counters,
    /// so emit/advance paths never touch the per-query table lock.
    counters: Vec<QueryCounters>,
    /// Kernel work charged to each member per advance, in millikernels
    /// (`distinct × 1000 / members` — shared-kernel work splits evenly).
    millis_per_member: u64,
    /// The last emission target this shard advanced the cell's keys to.
    emitted: Time,
    /// False once every member detached; dead cells hold no sessions.
    alive: bool,
}

impl Cell {
    fn new(spec: &CellSpec, stats: &SharedStats) -> Cell {
        let mut cell = Cell {
            group: Arc::clone(&spec.group),
            qids: spec.qids.clone(),
            root: spec.root,
            lateness: spec.lateness,
            emit_interval: spec.emit_interval,
            grid: 1,
            lookahead: 0,
            n_sources: 0,
            kernel_counts: (0, 0),
            counters: Vec::new(),
            millis_per_member: 0,
            emitted: spec.root,
            alive: true,
        };
        cell.refresh(stats);
        cell
    }

    /// Re-derives the cached plan facts after the group was edited.
    fn refresh(&mut self, stats: &SharedStats) {
        self.grid = self.group.grid();
        self.lookahead = self.group.max_input_lookahead();
        self.n_sources = self.group.n_sources();
        let distinct = self.group.distinct_kernels() as u64;
        self.kernel_counts = (distinct, self.group.kernel_instances() as u64 - distinct);
        self.counters = stats.query_counters(&self.qids);
        self.millis_per_member =
            if self.qids.is_empty() { 0 } else { distinct * 1000 / self.qids.len() as u64 };
    }

    /// Accounts one advance/flush of this cell's kernels: the shard-wide
    /// run/saved counters, plus (with detailed instrumentation) the
    /// per-member millikernel attribution.
    fn note_kernels(&self, stats: &SharedStats) {
        stats.kernels_run.add(self.kernel_counts.0);
        stats.kernels_saved.add(self.kernel_counts.1);
        if stats.detailed {
            for qc in &self.counters {
                qc.kernel_millis.add(self.millis_per_member);
            }
        }
    }

    /// The cell's low-watermark: the min across its sources of
    /// `max(max_start − allowed_lateness, explicit)`. No future event this
    /// cell accepts may start before it.
    fn watermark(&self, max_start: &[Time], explicit: &[Time]) -> Time {
        (0..self.n_sources)
            .map(|s| max_start[s].saturating_add(-self.lateness).max(explicit[s]))
            .min()
            .unwrap_or(Time::MIN)
    }
}

/// One emission cycle's view of a cell.
#[derive(Clone, Copy)]
struct CellPlan {
    alive: bool,
    wm: Time,
    target: Time,
    due: bool,
}

/// One key's state within one cell: the group session plus per-source push
/// frontiers.
struct CellSession {
    session: SharedGroupSession,
    /// End of the last event pushed into the session, per source: the
    /// frontier behind which arrivals are unsalvageably late *for this
    /// cell*.
    pushed_end: Vec<Time>,
    /// Whether events were pushed since the session last advanced.
    dirty: bool,
}

impl CellSession {
    fn open(cell: &Cell, root: Time) -> CellSession {
        CellSession {
            session: cell.group.shared_session(root),
            pushed_end: vec![root; cell.n_sources],
            dirty: false,
        }
    }
}

/// Per-key state: the shared reorder buffers plus one session per cell the
/// key participates in.
struct KeyState {
    /// Out-of-order arrivals per source, held until every cell's watermark
    /// passes them. Shared across cells: each event is buffered once.
    pending: Vec<ReorderBuf>,
    /// Parallel to the shard's cell roster; `None` until the cell sees an
    /// event for this key at or after its root.
    cells: Vec<Option<CellSession>>,
    /// Finalized output events per global query slot (drained by `finish`
    /// unless that query has a sink).
    out: Vec<Vec<Event<Value>>>,
    /// The newest event end accepted for this key (event-time idleness
    /// clock for the eviction sweep).
    last_end: Time,
    /// When this key last received an event (wall-clock idleness clock).
    last_touch: Instant,
    /// Whether the key is already on the shard's active-visit queue.
    queued: bool,
}

/// A retired key: evicted for idleness (revivable per cell at its
/// frontier) or quarantined after a kernel panic (never revived). Holds
/// only the accumulated non-sink output and per-cell frontiers — the
/// sessions and buffers are gone.
struct Retired {
    /// Per cell index at eviction time: where a revival re-creates the
    /// cell's session; arrivals starting before every frontier are
    /// unsalvageably late. `None` for cells the key had no session in.
    frontiers: Vec<Option<Time>>,
    /// Accumulated per-query output (returned at shutdown).
    out: Vec<Vec<Event<Value>>>,
    /// Whether the key was quarantined by a kernel panic (refuses all
    /// further events).
    quarantined: bool,
}

/// A key's durable state, decoded from a checkpoint, spill, or migration
/// bundle but not yet attached to a shard roster (cell indices are slots
/// in the roster the bundle was written against).
struct DecodedKey {
    last_end: Time,
    queued: bool,
    pending: Vec<ReorderBuf>,
    cells: Vec<Option<DecodedSession>>,
    out: Vec<Vec<Event<Value>>>,
}

/// One cell session's durable state: everything `GroupSessionIn` needs to
/// rebuild, plus the shard-side push frontiers and dirty flag.
struct DecodedSession {
    watermark: Time,
    histories: Vec<SnapshotBuf<Value>>,
    pushed_end: Vec<Time>,
    dirty: bool,
}

/// Everything a shard returns when it drains and exits.
pub(crate) struct ShardOutput {
    /// Finalized output per key, one vector per global query slot (empty
    /// when a sink consumed them; inner vectors may be shorter than the
    /// final slot count — the service pads).
    pub(crate) per_key: Vec<(u64, Vec<Vec<Event<Value>>>)>,
}

pub(crate) struct Shard {
    id: usize,
    cfg: RuntimeConfig,
    cells: Vec<Cell>,
    /// Max sources over all cells ever attached (monotone).
    n_sources: usize,
    /// The effective event-time idle TTL: `cfg.key_ttl` clamped up to the
    /// widest live cell's state horizon, so a retired-then-revived session
    /// is observationally identical to one that lived through the gap.
    ttl: Option<i64>,
    keys: HashMap<u64, KeyState, KeyHash>,
    /// Evicted and quarantined keys (see [`Retired`]).
    retired: HashMap<u64, Retired, KeyHash>,
    /// Per source: the largest event *start* observed on this shard.
    ///
    /// Watermarks are defined over starts, not ends: an event contributes
    /// value all the way back to its start, so a not-yet-arrived event with
    /// `start ≥ wm` can never change any tick at or before `wm` — which is
    /// exactly the finality emission needs.
    max_start: Vec<Time>,
    /// The largest event end observed (final flush horizon).
    max_end: Time,
    /// Per source: the largest explicit watermark received.
    explicit: Vec<Time>,
    /// The most conservative cell's emission progress (sweep cadence).
    emitted: Time,
    /// Where the last idle-eviction sweep ran (sweeps are amortized to at
    /// most one full key scan per `ttl / 2` ticks of emission progress).
    last_sweep: Time,
    /// When the last wall-clock sweep ran.
    last_wall_sweep: Instant,
    /// Keys needing a visit on the next emission cycle. Emission cost
    /// scales with this set, not with the total key population.
    active: Vec<u64>,
    /// The cold store evictions spill to instead of flushing, when the
    /// service was built with one.
    spill: Option<Arc<SpillStore>>,
    /// Keys currently living in the spill store: no in-memory state at
    /// all, revived verbatim from disk on their next arrival.
    spilled: HashSet<u64, KeyHash>,
    sinks: Arc<SinkTable>,
    stats: Arc<SharedStats>,
    /// Recycles intermediate kernel buffers across every advance on this
    /// shard (one pool per worker, not per key — no per-key memory). The
    /// kernels' run state is recycled likewise, by `tilt-core`, per
    /// thread: this worker's is reset by every advance of every key, and
    /// an advance that panics (see `maybe_advance`) discards it.
    pool: BufPool<Value>,
    /// Scratch for batching drained events into `push_events` calls.
    scratch: Vec<Event<Value>>,
    /// Thread-local buffer for the per-event ingest-lag samples; drained
    /// into the shared registry once per emission cycle so the accept hot
    /// path pays one array increment instead of three atomic RMWs.
    ingest_lag_scratch: tilt_obs::LocalHistogram,
    /// Same batching for per-event reorder-residency samples.
    residency_scratch: tilt_obs::LocalHistogram,
    /// The open receive burst: events that passed the arrival pass and
    /// await [`Shard::settle`], in arrival order. Empty whenever the shard
    /// blocks, runs an emission cycle, or applies a message that reads
    /// per-key state.
    burst: Vec<KeyedEvent>,
    /// Channel events the arrival pass has taken this burst, refused ones
    /// included: what `settle` moves off the `queue_depth` gauge.
    arrived: usize,
    /// Counter movements of the open burst, published by `settle`.
    tally: BurstTally,
    /// Grouping scratch: `(key, position in burst)`, one entry per held
    /// event, ordered so that a key's events are adjacent and in arrival
    /// order.
    order: Vec<(u64, usize)>,
    /// Grouping scratch: where each hash bucket's stretch of `order` ends.
    bucket_ends: Vec<usize>,
    /// Per burst: events settled, and distinct keys among them (the ratio
    /// is what a key touch is worth).
    burst_events_scratch: tilt_obs::LocalHistogram,
    burst_keys_scratch: tilt_obs::LocalHistogram,
}

/// What one burst's acceptance adds to the shared counters, summed locally
/// and published once (per event these were two to three atomic RMWs).
#[derive(Default)]
struct BurstTally {
    /// Accepted into a reorder buffer: `reorder_buffered` and the
    /// `reorder_pending` gauge.
    buffered: u64,
    late: u64,
    quarantined: u64,
    backstop_dropped: u64,
}

impl Shard {
    pub(crate) fn new(
        id: usize,
        cells: &[Arc<CellSpec>],
        cfg: RuntimeConfig,
        sinks: Arc<SinkTable>,
        stats: Arc<SharedStats>,
        spill: Option<Arc<SpillStore>>,
    ) -> Self {
        let cells: Vec<Cell> = cells.iter().map(|spec| Cell::new(spec, &stats)).collect();
        let n_sources = cells.iter().map(|c| c.n_sources).max().unwrap_or(0);
        let mut shard = Shard {
            id,
            cfg,
            cells,
            n_sources,
            ttl: None,
            keys: HashMap::default(),
            retired: HashMap::default(),
            max_start: vec![Time::MIN; n_sources],
            max_end: Time::MIN,
            explicit: vec![Time::MIN; n_sources],
            emitted: cfg.start,
            last_sweep: cfg.start,
            last_wall_sweep: Instant::now(),
            active: Vec::new(),
            spill,
            spilled: HashSet::default(),
            sinks,
            stats,
            pool: BufPool::new(),
            scratch: Vec::new(),
            ingest_lag_scratch: tilt_obs::LocalHistogram::new(),
            residency_scratch: tilt_obs::LocalHistogram::new(),
            burst: Vec::new(),
            arrived: 0,
            tally: BurstTally::default(),
            order: Vec::new(),
            bucket_ends: Vec::new(),
            burst_events_scratch: tilt_obs::LocalHistogram::new(),
            burst_keys_scratch: tilt_obs::LocalHistogram::new(),
        };
        shard.refresh_ttl();
        shard
    }

    /// Re-derives the effective TTL after the cell roster changed: the
    /// configured TTL clamped up to the widest live cell's state horizon.
    fn refresh_ttl(&mut self) {
        let horizon = self
            .cells
            .iter()
            .filter(|c| c.alive)
            .map(|c| c.group.state_horizon())
            .max()
            .unwrap_or(0);
        self.ttl = self.cfg.key_ttl.map(|t| t.max(horizon).max(1));
    }

    /// The shard main loop: take receive bursts off the channel, then flush
    /// and exit.
    ///
    /// After each blocking `recv`, every message already sitting in the
    /// channel (bounded by [`MAX_MSGS_PER_CYCLE`]) joins the same burst.
    /// Event batches only pass the arrival pass ([`Shard::arrive`]) as they
    /// are received; at the end of the burst the held events are grouped by
    /// key and accepted ([`Shard::settle`]), and `maybe_advance` recomputes
    /// cell watermarks and visits active keys once. Nothing is ever held
    /// across a blocking receive. With a wall-clock TTL configured, the
    /// blocking receive times out so idle shards still get to run their
    /// wall-clock sweeps.
    pub(crate) fn run(mut self, rx: std::sync::mpsc::Receiver<ShardMsg>) -> ShardOutput {
        let mut finish_at: Option<Time> = None;
        let wall_tick =
            self.cfg.wall_clock_ttl.map(|t| (t / 2).max(std::time::Duration::from_millis(1)));
        loop {
            let first = match wall_tick {
                Some(tick) => match rx.recv_timeout(tick) {
                    Ok(msg) => Some(msg),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => break,
                },
                None => match rx.recv() {
                    Ok(msg) => Some(msg),
                    Err(_) => break,
                },
            };
            match first {
                Some(msg) => {
                    self.apply(msg, &mut finish_at);
                    let mut folded = 1usize;
                    while folded < MAX_MSGS_PER_CYCLE {
                        match rx.try_recv() {
                            Ok(msg) => {
                                self.apply(msg, &mut finish_at);
                                folded += 1;
                            }
                            Err(_) => break,
                        }
                    }
                    self.settle(false);
                    self.maybe_advance();
                }
                None => self.wall_sweep(),
            }
        }
        self.flush(finish_at)
    }

    /// Folds one channel message into shard state (no emission). Event
    /// batches join the open burst; every message that reads or edits
    /// per-key state settles the burst first, so it sees each key exactly as
    /// accepting the events received before it, one by one, leaves it.
    fn apply(&mut self, msg: ShardMsg, finish_at: &mut Option<Time>) {
        // A watermark promise and the final horizon touch no per-key state
        // and nothing `settle` reads; anything else — including any message
        // kind added later — closes the burst.
        let keeps_burst_open =
            matches!(msg, ShardMsg::Batch(_) | ShardMsg::Watermark { .. } | ShardMsg::FinishAt(_));
        if !keeps_burst_open {
            self.settle(false);
        }
        match msg {
            ShardMsg::Batch(events) => self.arrive(events),
            ShardMsg::Watermark { source, time } => {
                if source < self.n_sources {
                    let w = &mut self.explicit[source];
                    *w = (*w).max(time);
                }
            }
            ShardMsg::Attach(spec) => self.attach(&spec),
            ShardMsg::Detach { qid } => self.detach(qid),
            ShardMsg::Checkpoint { reply, resume } => {
                let _ = reply.send(self.checkpoint_payload());
                let _ = resume.recv();
            }
            ShardMsg::Restore { payload, reply } => {
                let _ = reply.send(self.install(&payload));
            }
            ShardMsg::MigrateOut { key, reply } => {
                let _ = reply.send(self.migrate_out(key));
            }
            ShardMsg::MigrateIn { key, bundle } => self.migrate_in(key, bundle),
            ShardMsg::Census { reply } => {
                let _ = reply.send(self.census());
            }
            ShardMsg::FinishAt(time) => *finish_at = Some(time),
        }
    }

    /// Admits a new cell: later events at or after its root feed it.
    fn attach(&mut self, spec: &CellSpec) {
        let cell = Cell::new(spec, &self.stats);
        if cell.n_sources > self.n_sources {
            self.n_sources = cell.n_sources;
            self.max_start.resize(self.n_sources, Time::MIN);
            self.explicit.resize(self.n_sources, Time::MIN);
        }
        self.cells.push(cell);
        self.refresh_ttl();
    }

    /// Removes one query. If its cell keeps other members, the cell's
    /// group is edited incrementally and live sessions migrate in place;
    /// otherwise the whole cell dies and its per-key sessions and tombstone
    /// slots are reclaimed.
    fn detach(&mut self, qid: usize) {
        let Some(ci) = self.cells.iter().position(|c| c.alive && c.qids.contains(&qid)) else {
            return;
        };
        let mi = self.cells[ci].qids.iter().position(|q| *q == qid).expect("member found");
        if self.cells[ci].qids.len() == 1 {
            self.cells[ci].alive = false;
            for state in self.keys.values_mut() {
                if state.cells.len() > ci && state.cells[ci].take().is_some() {
                    self.stats.sessions_reclaimed.inc();
                }
                if state.out.len() > qid && !state.out[qid].is_empty() {
                    state.out[qid] = Vec::new();
                }
            }
            for r in self.retired.values_mut() {
                if r.frontiers.len() > ci && r.frontiers[ci].take().is_some() {
                    self.stats.sessions_reclaimed.inc();
                }
                if r.out.len() > qid && !r.out[qid].is_empty() {
                    r.out[qid] = Vec::new();
                }
            }
        } else {
            let edited = Arc::new(
                self.cells[ci].group.without_member(mi).expect("detach keeps the group non-empty"),
            );
            self.cells[ci].qids.remove(mi);
            self.cells[ci].group = Arc::clone(&edited);
            let stats = Arc::clone(&self.stats);
            self.cells[ci].refresh(&stats);
            for state in self.keys.values_mut() {
                if let Some(Some(cs)) = state.cells.get_mut(ci).map(Option::as_mut) {
                    cs.session.migrate_group(Arc::clone(&edited));
                }
                if state.out.len() > qid && !state.out[qid].is_empty() {
                    state.out[qid] = Vec::new();
                }
            }
            for r in self.retired.values_mut() {
                if r.out.len() > qid && !r.out[qid].is_empty() {
                    r.out[qid] = Vec::new();
                }
            }
        }
        self.refresh_ttl();
    }

    /// Grows a key's per-source and per-cell vectors to the current roster.
    fn sync_key(state: &mut KeyState, n_cells: usize, n_sources: usize) {
        if state.pending.len() < n_sources {
            state.pending.resize_with(n_sources, ReorderBuf::default);
        }
        if state.cells.len() < n_cells {
            state.cells.resize_with(n_cells, || None);
        }
    }

    /// The arrival pass over one event batch: everything that depends on the
    /// order events arrive in *across* keys, and nothing else. The events
    /// themselves are held for [`Shard::settle`].
    ///
    /// * An event on a source no registered query reads is refused here — an
    ///   attach-first service fed before its first attach, or an event
    ///   racing an in-flight attach that widens the source set. It is
    ///   counted like any other event no cell can use; panicking the shard
    ///   over a data-plane input would take every other key down with it.
    /// * `max_start` / `max_end`, hence every watermark and every "is a
    ///   cycle due" decision, and the ingest-lag sample taken against them.
    /// * The shard-wide backstop ([`RuntimeConfig::max_pending_per_shard`]),
    ///   whose verdict on an event depends on every event before it, of any
    ///   key. The `reorder_pending` gauge counts settled events only, so
    ///   gauge + events held bounds what accepting one at a time would read;
    ///   while that is under the cap the verdict is "not full" either way.
    ///   Once it is not, the burst is settled — the gauge is then exact —
    ///   and an event that does meet a full shard is accepted alone, at
    ///   once: the same events are dropped (or the same buffers
    ///   force-drained, at the same point of the stream) as without bursts.
    fn arrive(&mut self, events: Vec<KeyedEvent>) {
        self.burst.reserve(events.len());
        let detailed = self.stats.detailed;
        for ev in events {
            self.arrived += 1;
            if ev.source >= self.n_sources {
                self.tally.late += 1;
                continue;
            }
            self.max_start[ev.source] = self.max_start[ev.source].max(ev.event.start);
            self.max_end = self.max_end.max(ev.event.end);
            if detailed {
                // Event-time lag at ingest: how far this arrival trails the
                // newest start seen on its source (0 = in order). `max_start`
                // was just raised to at least this event's start, so the
                // difference is never negative.
                let lag = self.max_start[ev.source] - ev.event.start;
                self.ingest_lag_scratch.record(lag as u64);
            }
            let mut shard_full = false;
            if let Some(cap) = self.cfg.max_pending_per_shard {
                let pending = self.stats.reorder_pending[self.id].get();
                if pending + self.burst.len() as i64 >= cap as i64 {
                    self.settle(false);
                    shard_full = self.stats.reorder_pending[self.id].get() >= cap as i64;
                }
            }
            self.burst.push(ev);
            if shard_full {
                self.settle(true);
            }
        }
    }

    /// Closes the open burst: groups the held events by key, accepts them a
    /// key at a time ([`Shard::accept_run`]) and publishes the burst's
    /// counter movements — every destination account first, the
    /// `queue_depth` the events came from last, so a concurrent reader may
    /// count an event twice for a moment but never misses one.
    /// `shard_full` is the arrival pass's backstop verdict; it is only ever
    /// set for a burst of one event.
    fn settle(&mut self, shard_full: bool) {
        let n = self.burst.len();
        if n > 0 {
            debug_assert!(!shard_full || n == 1);
            self.group_burst();
            let mut keys = 0u64;
            let mut at = 0;
            while at < n {
                let key = self.order[at].0;
                let mut end = at + 1;
                while end < n && self.order[end].0 == key {
                    end += 1;
                }
                self.accept_run(key, at..end, shard_full);
                keys += 1;
                at = end;
            }
            // Every payload was moved out; what is left are husks.
            self.burst.clear();
            if self.stats.detailed {
                self.burst_events_scratch.record(n as u64);
                self.burst_keys_scratch.record(keys);
            }
        }
        self.publish_tally();
        if self.arrived > 0 {
            self.stats.queue_depth[self.id].sub(self.arrived as i64);
            self.arrived = 0;
        }
    }

    /// Adds the open burst's tally to the shared counters and zeroes it.
    /// Runs at the end of `settle`, and before a force drain, which
    /// subtracts what it releases from the `reorder_pending` gauge and
    /// reads it.
    fn publish_tally(&mut self) {
        let BurstTally { buffered, late, quarantined, backstop_dropped } =
            std::mem::take(&mut self.tally);
        if buffered > 0 {
            self.stats.reorder_buffered.add(buffered);
            self.stats.reorder_pending[self.id].add(buffered as i64);
        }
        if late > 0 {
            self.stats.late_dropped.add(late);
        }
        if quarantined > 0 {
            self.stats.quarantine_dropped.add(quarantined);
        }
        if backstop_dropped > 0 {
            self.stats.backstop_dropped.add(backstop_dropped);
        }
    }

    /// Fills `order` with one `(key, position in burst)` entry per held
    /// event such that each key's entries are adjacent and in arrival order
    /// (which key comes first is unspecified).
    ///
    /// One counting pass scatters the entries into hash buckets — about one
    /// bucket per eight events, so a burst of one message costs what its
    /// length costs and a burst of one event nothing — keeping arrival order
    /// within a bucket; each bucket is then sorted by `(key, position)`,
    /// which, positions being distinct, is the stable order by key. A
    /// bucket nearly always holds one or two keys already in order, so the
    /// sort is a scan. All scratch is the shard's and reused.
    fn group_burst(&mut self) {
        let n = self.burst.len();
        let bits = (n / 8).max(1).next_power_of_two().trailing_zeros().min(MAX_BUCKET_BITS);
        // The top `bits` bits of the mix (0 bits: one bucket).
        let bucket = |key: u64| ((mix_key(key) >> 1) >> (63 - bits)) as usize;
        let ends = &mut self.bucket_ends;
        ends.clear();
        ends.resize((1usize << bits) + 1, 0);
        for ev in &self.burst {
            ends[bucket(ev.key) + 1] += 1;
        }
        for b in 1..ends.len() {
            ends[b] += ends[b - 1];
        }
        // `ends[b]` is where bucket `b` starts; scattering advances it to
        // where the bucket ends.
        self.order.clear();
        self.order.resize(n, (0, 0));
        for (i, ev) in self.burst.iter().enumerate() {
            let at = &mut ends[bucket(ev.key)];
            self.order[*at] = (ev.key, i);
            *at += 1;
        }
        let mut start = 0;
        for &end in &ends[..ends.len() - 1] {
            self.order[start..end].sort_unstable();
            start = end;
        }
    }

    /// Accepts one key's events of the burst — `order[run]`, in arrival
    /// order — into its reorder buffers, creating cell sessions on first
    /// contact and reviving the key if it was spilled or evicted.
    ///
    /// The key's standing (spilled, retired, live) and its state are looked
    /// up once for the run, not once per event; per event, what is decided
    /// is exactly what accepting it alone decides, in the same order. A
    /// force drain — the only thing that can change the key's standing
    /// mid-run — sends the rest of the run through the lookup again.
    fn accept_run(&mut self, key: u64, run: std::ops::Range<usize>, shard_full: bool) {
        /// A backstop drain owed after an insert (needs `&mut self`, so it
        /// runs once the borrow of the key's state has ended).
        enum Drain {
            Key { source: usize, excess: usize },
            Shard,
        }
        let mut at = run.start;
        while at < run.end {
            // Spilled keys revive from disk on first contact, *before* any
            // admission checks: the bundle holds the key's exact pre-eviction
            // state (sessions, reorder buffers, accumulated output), so a
            // revived key is byte-identical to one that was never spilled.
            if !self.spilled.is_empty() && self.spilled.remove(&key) {
                self.revive_from_spill(key);
            }

            // Retired keys: quarantined ones refuse all events; evicted ones
            // revive if the event is usable by at least one cell (arrivals
            // behind every frontier are unsalvageably late — the sessions
            // that could have absorbed them are gone).
            if !self.retired.is_empty() {
                if let Some(r) = self.retired.get(&key) {
                    if r.quarantined {
                        self.tally.quarantined += (run.end - at) as u64;
                        return;
                    }
                    let ev = &self.burst[self.order[at].1];
                    let revivable = self.cells.iter().enumerate().any(|(ci, c)| {
                        c.alive
                            && ev.source < c.n_sources
                            && match r.frontiers.get(ci).copied().flatten() {
                                Some(f) => ev.event.start >= f,
                                None => ev.event.start >= c.root,
                            }
                    });
                    if !revivable {
                        self.tally.late += 1;
                        at += 1;
                        continue;
                    }
                    self.revive(key);
                }
            }

            let n_cells = self.cells.len();
            let n_sources = self.n_sources;
            let cells = &self.cells;
            let state = match self.keys.entry(key) {
                std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::hash_map::Entry::Vacant(e) => {
                    self.stats.keys.inc();
                    self.stats.live_keys.add(1);
                    e.insert(KeyState {
                        pending: (0..n_sources).map(|_| ReorderBuf::default()).collect(),
                        cells: (0..n_cells).map(|_| None).collect(),
                        out: Vec::new(),
                        last_end: self.cfg.start,
                        last_touch: Instant::now(),
                        queued: false,
                    })
                }
            };
            Self::sync_key(state, n_cells, n_sources);
            if self.cfg.wall_clock_ttl.is_some() {
                // The idleness clock only matters when wall-clock eviction
                // is on; skip the clock read otherwise.
                state.last_touch = Instant::now();
            }

            let detailed = self.stats.detailed;
            let mut owed: Option<Drain> = None;
            while at < run.end && owed.is_none() {
                let held = &mut self.burst[self.order[at].1];
                at += 1;
                let (source, start, end) = (held.source, held.event.start, held.event.end);

                // The event is admitted if at least one cell can still use
                // it: a cell with a session accepts anything at or after its
                // pushed frontier; a cell without one opens a session when
                // the event starts at or after its join root. Events behind
                // every cell are dropped and counted once, however many
                // cells are registered.
                let mut admitted = false;
                for (ci, c) in cells.iter().enumerate() {
                    if !c.alive || source >= c.n_sources {
                        continue;
                    }
                    let cell_admits = match &state.cells[ci] {
                        Some(cs) => start >= cs.pushed_end[source].max(cs.session.watermark()),
                        None => {
                            if start >= c.root {
                                state.cells[ci] = Some(CellSession::open(c, c.root));
                                true
                            } else {
                                false
                            }
                        }
                    };
                    if cell_admits {
                        admitted = true;
                    } else if detailed {
                        // Per-query late attribution: this cell's members
                        // each lost the event to their lateness bound,
                        // whether or not another cell still admits it. The
                        // service-wide `late_dropped` counts it only when
                        // nobody does.
                        for qc in &c.counters {
                            qc.late.inc();
                        }
                    }
                }
                if !admitted {
                    self.tally.late += 1;
                    continue;
                }
                state.last_end = state.last_end.max(end);

                // Reorder-buffer backstop: bound what a stalled watermark
                // can pin.
                let key_full = self
                    .cfg
                    .max_pending_per_key
                    .is_some_and(|cap| state.pending[source].len() >= cap);
                if (key_full || shard_full) && self.cfg.backstop == BackstopPolicy::DropNewest {
                    self.tally.backstop_dropped += 1;
                    continue;
                }

                let payload = std::mem::take(&mut held.event.payload);
                state.pending[source].insert(Event { start, end, payload });
                self.tally.buffered += 1;
                if !state.queued {
                    state.queued = true;
                    self.active.push(key);
                }
                if key_full {
                    let cap = self.cfg.max_pending_per_key.expect("key_full implies a cap");
                    let excess = state.pending[source].len().saturating_sub(cap / 2);
                    owed = Some(Drain::Key { source, excess });
                } else if shard_full {
                    owed = Some(Drain::Shard);
                }
            }
            if let Some(drain) = owed {
                self.publish_tally();
                match drain {
                    Drain::Key { source, excess } => self.force_drain_buf(key, source, excess),
                    Drain::Shard => self.force_drain_shard(),
                }
            }
        }
    }

    /// Brings an evicted key back: a fresh session per cell it had one in,
    /// rooted at that cell's eviction frontier, and the output its
    /// tombstone carried.
    fn revive(&mut self, key: u64) {
        let r = self.retired.remove(&key).expect("caller found the tombstone");
        self.stats.revivals.inc();
        self.stats.live_keys.add(1);
        self.stats.note_control(ControlEvent::Revive { shard: self.id, key });
        let mut cells: Vec<Option<CellSession>> = Vec::with_capacity(self.cells.len());
        let mut last_end = self.cfg.start;
        for (ci, c) in self.cells.iter().enumerate() {
            let frontier = if c.alive { r.frontiers.get(ci).copied().flatten() } else { None };
            cells.push(frontier.map(|f| {
                last_end = last_end.max(f);
                CellSession::open(c, f)
            }));
        }
        self.keys.insert(
            key,
            KeyState {
                pending: (0..self.n_sources).map(|_| ReorderBuf::default()).collect(),
                cells,
                out: r.out,
                last_end,
                last_touch: Instant::now(),
                queued: false,
            },
        );
    }

    /// One emission cycle's plan: each cell's watermark, emission target,
    /// and whether that target is due (at least `emit_interval` past the
    /// cell's previous target). The target is the last multiple `e` of the
    /// cell's grid with `e + lookahead ≤ watermark`, the lookahead being the
    /// group's aligned one (`QueryGroup::max_input_lookahead`): no event the
    /// cell still accepts starts before its watermark, so everything a
    /// window ending at `e` reads is in, and the window leaves in the cycle
    /// that carries the watermark to `e` — the target can equal the
    /// watermark.
    fn cell_plans(&self) -> Vec<CellPlan> {
        self.cells
            .iter()
            .map(|c| {
                if !c.alive {
                    return CellPlan { alive: false, wm: Time::MIN, target: Time::MIN, due: false };
                }
                let wm = c.watermark(&self.max_start, &self.explicit);
                let target = Time::new(wm.ticks().saturating_sub(c.lookahead)).align_down(c.grid);
                let due = target.ticks() >= c.emitted.ticks().saturating_add(c.emit_interval);
                CellPlan { alive: true, wm, target, due }
            })
            .collect()
    }

    /// Advances keys when at least one cell's watermark has crossed a new
    /// emission point.
    ///
    /// Only keys on the active queue are visited, so a cycle costs
    /// O(active keys), not O(total keys). A visited key is re-queued while
    /// it still has buffered input or pushed-but-unemitted history; with a
    /// sink it is additionally re-queued while its eager advances keep
    /// producing output. Kernel execution runs under `catch_unwind`: a
    /// panicking key is quarantined instead of unwinding the shard thread
    /// (and the kernels' run state the cut-short run was holding is
    /// dropped with it: the next key's kernels shape theirs afresh).
    fn maybe_advance(&mut self) {
        debug_assert!(self.burst.is_empty(), "an emission cycle never sees a held event");
        let plans = self.cell_plans();
        let shard_wm = plans.iter().filter(|p| p.alive).map(|p| p.wm).min().unwrap_or(Time::MIN);
        self.stats.shard_watermark[self.id].set(shard_wm.ticks());
        // Publish the per-event samples batched since the last cycle (a
        // no-op when nothing buffered): live snapshot readers see them at
        // cycle granularity instead of paying atomics per event.
        self.ingest_lag_scratch.flush_into(&self.stats.ingest_lag[self.id]);
        self.residency_scratch.flush_into(&self.stats.reorder_residency[self.id]);
        self.burst_events_scratch.flush_into(&self.stats.burst_events[self.id]);
        self.burst_keys_scratch.flush_into(&self.stats.burst_keys[self.id]);
        if let Some(ttl) = self.cfg.wall_clock_ttl {
            if self.last_wall_sweep.elapsed() >= ttl / 2 {
                self.wall_sweep();
            }
        }
        if !plans.iter().any(|p| p.due) {
            return;
        }
        let cycle_start = if self.stats.detailed {
            // Per-cell watermark lag: ticks between the newest start the
            // shard has seen and the emission point each advancing cell
            // had finalized *before* this cycle — how stale finalization
            // was at the moment it caught up. Measured against the
            // previous target (not the fresh watermark, which is derived
            // from the same `newest` and would be the lateness constant),
            // it spreads with emission cadence and ingest burstiness.
            let newest = self.max_start.iter().copied().max().unwrap_or(Time::MIN);
            if newest > Time::MIN {
                for (c, p) in self.cells.iter().zip(&plans) {
                    if p.alive && p.due && c.emitted > Time::MIN {
                        let lag = (newest - c.emitted).max(0);
                        self.stats.watermark_lag_hist[self.id].record(lag as u64);
                    }
                }
            }
            Some(Instant::now())
        } else {
            None
        };
        for (cell, plan) in self.cells.iter_mut().zip(&plans) {
            if plan.due {
                cell.emitted = plan.target;
            }
        }
        self.emitted =
            self.cells.iter().filter(|c| c.alive).map(|c| c.emitted).min().unwrap_or(self.emitted);

        let eager = self.sinks.any();
        let mut visit = std::mem::take(&mut self.active);
        let mut panicked_keys: Vec<u64> = Vec::new();
        {
            let id = self.id;
            let keys = &mut self.keys;
            let cells = &self.cells;
            let pool = &mut self.pool;
            let scratch = &mut self.scratch;
            let residency = &mut self.residency_scratch;
            let sinks = &self.sinks;
            let stats = &self.stats;
            let n_cells = cells.len();
            let n_sources = self.n_sources;
            for key in visit.drain(..) {
                let Some(state) = keys.get_mut(&key) else { continue };
                state.queued = false;
                Self::sync_key(state, n_cells, n_sources);
                let mut revisit = false;
                let panicked = catch_unwind(AssertUnwindSafe(|| {
                    // Inside the containment boundary: a Panic policy here
                    // exercises the same quarantine path a kernel bug would.
                    tilt_fault::fail_point!("runtime.kernel.exec");
                    Self::drain_and_release(id, state, cells, &plans, scratch, residency, stats);
                    let mut emitted_any = false;
                    for (ci, cell) in cells.iter().enumerate() {
                        let plan = &plans[ci];
                        if !plan.due {
                            continue;
                        }
                        let Some(cs) = state.cells[ci].as_mut() else { continue };
                        if (cs.dirty || eager) && plan.target > cs.session.watermark() {
                            let bufs = cs.session.advance_to_with(plan.wm, pool);
                            cs.dirty = false;
                            cell.note_kernels(stats);
                            for (mi, buf) in bufs.into_iter().enumerate() {
                                let emitted = buf.to_events();
                                pool.put(buf);
                                emitted_any |= !emitted.is_empty();
                                Self::deliver(
                                    key,
                                    cell.qids[mi],
                                    emitted,
                                    &mut state.out,
                                    sinks,
                                    stats,
                                );
                            }
                        }
                    }
                    revisit = state.cells.iter().flatten().any(|cs| cs.dirty)
                        || state.pending.iter().any(|p| !p.is_empty())
                        || (eager && emitted_any);
                }))
                .is_err();
                if panicked {
                    panicked_keys.push(key);
                } else if revisit {
                    if let Some(state) = keys.get_mut(&key) {
                        state.queued = true;
                        self.active.push(key);
                    }
                }
            }
        }
        for key in panicked_keys {
            self.quarantine(key);
        }
        if let Some(start) = cycle_start {
            self.stats.advance_ns[self.id].record(start.elapsed().as_nanos() as u64);
        }
        self.sweep_idle();
    }

    /// Moves every matured pending event into the sessions of the cells it
    /// is new to, then releases the prefix no cell still needs. Events
    /// released without any cell having taken them are counted as
    /// late-dropped, once.
    fn drain_and_release(
        shard_id: usize,
        state: &mut KeyState,
        cells: &[Cell],
        plans: &[CellPlan],
        scratch: &mut Vec<Event<Value>>,
        residency: &mut tilt_obs::LocalHistogram,
        stats: &SharedStats,
    ) {
        for (source, pending) in state.pending.iter_mut().enumerate() {
            if pending.is_empty() {
                continue;
            }
            for (ci, cell) in cells.iter().enumerate() {
                if !plans[ci].alive || source >= cell.n_sources {
                    continue;
                }
                let Some(cs) = state.cells[ci].as_mut() else { continue };
                let mut frontier = cs.pushed_end[source].max(cs.session.watermark());
                scratch.clear();
                for b in pending.matured_mut(plans[ci].wm) {
                    if b.event.start < frontier {
                        continue;
                    }
                    b.taken = true;
                    frontier = b.event.end;
                    scratch.push(b.event.clone());
                }
                if !scratch.is_empty() {
                    cs.session.push_events(source, scratch);
                    cs.pushed_end[source] = frontier;
                    cs.dirty = true;
                    scratch.clear();
                }
            }
            // Release below the slowest consumer of *this source*: cells
            // without a session for this key can never use the buffered
            // prefix (their join root postdates it), and cells whose
            // group does not read this source never will either.
            let release_to = state
                .cells
                .iter()
                .enumerate()
                .filter(|(ci, cs)| {
                    plans.get(*ci).is_some_and(|p| p.alive)
                        && cs.is_some()
                        && source < cells[*ci].n_sources
                })
                .map(|(ci, _)| plans[ci].wm)
                .min();
            let upto = release_to.unwrap_or(Time::MAX);
            let (released, untaken) = if stats.detailed && upto < Time::MAX {
                // Reorder-buffer residency: ticks each event waited past
                // its start before the watermark released it. The final
                // flush (upto == MAX) is excluded — its "residency" would
                // measure the shutdown horizon, not buffering.
                pending
                    .release_with(upto, |b| residency.record((upto - b.event.start).max(0) as u64))
            } else {
                pending.release(upto)
            };
            if released > 0 {
                stats.sub_reorder_pending(shard_id, released);
            }
            // Conservation: every released event was either consumed by at
            // least one cell (`taken`) or useful to nobody. Untaken events
            // are late — unless the key has no consuming cells left at all
            // (every interested query detached), in which case the events
            // were in bound and their drop is detach reclamation, not
            // lateness.
            stats.events_consumed.add((released - untaken) as u64);
            if untaken > 0 {
                if release_to.is_some() {
                    stats.late_dropped.add(untaken as u64);
                } else {
                    stats.detach_dropped.add(untaken as u64);
                }
            }
        }
    }

    /// Retires keys idle past the event-time TTL: each cell session is
    /// advanced through its current horizon (emitting its quiet tail),
    /// then torn down to a tombstone carrying per-cell eviction frontiers.
    /// Amortized to one key scan per `ttl / 2` ticks of emission progress.
    fn sweep_idle(&mut self) {
        let Some(ttl) = self.ttl else { return };
        if self.emitted - self.last_sweep < (ttl / 2).max(1) {
            return;
        }
        self.last_sweep = self.emitted;
        let cutoff = self.emitted.saturating_add(-ttl);
        let victims: Vec<u64> = self
            .keys
            .iter()
            .filter(|(_, s)| {
                !s.queued && s.last_end <= cutoff && s.pending.iter().all(|p| p.is_empty())
            })
            .map(|(k, _)| *k)
            .collect();
        if victims.is_empty() {
            return;
        }
        // Watermarks cannot move mid-sweep: one plan serves every victim.
        let plans = self.cell_plans();
        for key in victims {
            self.evict(key, &plans);
        }
    }

    /// Retires keys with no traffic for longer than the *wall-clock* TTL,
    /// regardless of event-time progress — the escape hatch for shards
    /// whose sources went silent entirely (the event-time sweep needs the
    /// watermark to move, and a dead stream's final events sit in the
    /// reorder buffer forever).
    fn wall_sweep(&mut self) {
        let Some(ttl) = self.cfg.wall_clock_ttl else { return };
        self.last_wall_sweep = Instant::now();
        let victims: Vec<u64> = self
            .keys
            .iter()
            .filter(|(_, s)| s.last_touch.elapsed() >= ttl)
            .map(|(k, _)| *k)
            .collect();
        if victims.is_empty() {
            return;
        }
        // At wall eviction every cell is treated as fully matured: one
        // shared plan serves every victim's final drain.
        let final_plans: Vec<CellPlan> = self
            .cells
            .iter()
            .map(|c| CellPlan { alive: c.alive, wm: Time::MAX, target: Time::MAX, due: c.alive })
            .collect();
        for key in victims {
            self.evict_wall(key, &final_plans);
        }
    }

    /// Wall-clock eviction of one key: everything still buffered is pushed
    /// through the sessions (the wall TTL, not the watermark, declares the
    /// stream over), each session is flushed through its full remaining
    /// output tail (pushed frontier + state horizon — everything the real
    /// events can ever influence), and the key is tombstoned there. For
    /// traffic that simply stopped this is output-identical to a surviving
    /// session; in-bound stragglers arriving after the eviction are
    /// late-dropped (they land behind the frontier) — the trade wall-clock
    /// reclamation makes that event-time eviction never has to.
    fn evict_wall(&mut self, key: u64, final_plans: &[CellPlan]) {
        if self.try_spill(key) {
            return;
        }
        let Some(mut state) = self.keys.remove(&key) else { return };
        let id = self.id;
        let sinks = Arc::clone(&self.sinks);
        let stats = Arc::clone(&self.stats);
        let cells = &self.cells;
        let pool = &mut self.pool;
        let scratch = &mut self.scratch;
        let residency = &mut self.residency_scratch;
        let n_cells = cells.len();
        let n_sources = self.n_sources;
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            Self::sync_key(&mut state, n_cells, n_sources);
            Self::drain_and_release(id, &mut state, cells, final_plans, scratch, residency, &stats);
            for (ci, cell) in cells.iter().enumerate() {
                if !cell.alive {
                    continue;
                }
                let Some(cs) = state.cells[ci].as_mut() else { continue };
                let tail = cs
                    .pushed_end
                    .iter()
                    .copied()
                    .max()
                    .unwrap_or(cs.session.watermark())
                    .saturating_add(cell.group.state_horizon());
                if tail > cs.session.watermark() {
                    let bufs = cs.session.flush_to_with(tail, pool);
                    cs.dirty = false;
                    cell.note_kernels(&stats);
                    for (mi, buf) in bufs.into_iter().enumerate() {
                        let emitted = buf.to_events();
                        pool.put(buf);
                        Self::deliver(key, cell.qids[mi], emitted, &mut state.out, &sinks, &stats);
                    }
                }
            }
        }))
        .is_err();
        self.stats.live_keys.sub(1);
        self.cap_tombstone_out(&mut state.out);
        if panicked {
            self.note_flush_panic(key, &state);
            self.retired
                .insert(key, Retired { frontiers: Vec::new(), out: state.out, quarantined: true });
            return;
        }
        self.stats.evictions.inc();
        self.stats.wall_evictions.inc();
        self.stats.note_control(ControlEvent::Evict { shard: self.id, key, wall: true });
        let frontiers =
            state.cells.iter().map(|cs| cs.as_ref().map(|cs| cs.session.watermark())).collect();
        self.retired.insert(key, Retired { frontiers, out: state.out, quarantined: false });
    }

    /// Accounts a key whose drain/flush panicked mid-eviction: it is
    /// quarantined, and whatever its reorder buffers still hold is
    /// discarded — subtracted from the pending gauge and counted as
    /// quarantine drops so event conservation survives the panic.
    fn note_flush_panic(&self, key: u64, state: &KeyState) {
        let remaining: usize = state.pending.iter().map(ReorderBuf::len).sum();
        if remaining > 0 {
            self.stats.sub_reorder_pending(self.id, remaining);
            self.stats.quarantine_dropped.add(remaining as u64);
        }
        self.stats.keys_quarantined.inc();
        self.stats.note_control(ControlEvent::Quarantine {
            shard: self.id,
            key,
            dropped: remaining as u64,
        });
    }

    /// Evicts one idle key: advance each cell session through its current
    /// horizon (the output it would eventually have emitted anyway), then
    /// replace the key with a [`Retired`] tombstone holding per-cell
    /// frontiers (each session's final watermark).
    fn evict(&mut self, key: u64, plans: &[CellPlan]) {
        if self.try_spill(key) {
            return;
        }
        let Some(mut state) = self.keys.remove(&key) else { return };
        let sinks = Arc::clone(&self.sinks);
        let stats = Arc::clone(&self.stats);
        let cells = &self.cells;
        let pool = &mut self.pool;
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            for (ci, cell) in cells.iter().enumerate() {
                if !plans[ci].alive {
                    continue;
                }
                let Some(cs) = state.cells.get_mut(ci).and_then(Option::as_mut) else { continue };
                if plans[ci].target > cs.session.watermark() {
                    let bufs = cs.session.advance_to_with(plans[ci].wm, pool);
                    cell.note_kernels(&stats);
                    for (mi, buf) in bufs.into_iter().enumerate() {
                        let emitted = buf.to_events();
                        pool.put(buf);
                        Self::deliver(key, cell.qids[mi], emitted, &mut state.out, &sinks, &stats);
                    }
                }
            }
        }))
        .is_err();
        self.stats.live_keys.sub(1);
        self.cap_tombstone_out(&mut state.out);
        if panicked {
            self.note_flush_panic(key, &state);
            self.retired
                .insert(key, Retired { frontiers: Vec::new(), out: state.out, quarantined: true });
            return;
        }
        self.stats.evictions.inc();
        self.stats.note_control(ControlEvent::Evict { shard: self.id, key, wall: false });
        let frontiers =
            state.cells.iter().map(|cs| cs.as_ref().map(|cs| cs.session.watermark())).collect();
        self.retired.insert(key, Retired { frontiers, out: state.out, quarantined: false });
    }

    /// Retires a key whose kernel execution panicked: its sessions (in an
    /// unknown state) and buffers are dropped, its accumulated output is
    /// kept for shutdown, and all further events for it are refused.
    fn quarantine(&mut self, key: u64) {
        let Some(mut state) = self.keys.remove(&key) else { return };
        let pending: usize = state.pending.iter().map(ReorderBuf::len).sum();
        if pending > 0 {
            self.stats.sub_reorder_pending(self.id, pending);
            // The discarded buffer contents are quarantine drops, not
            // lateness: conservation still partitions `events_in`.
            self.stats.quarantine_dropped.add(pending as u64);
        }
        self.stats.keys_quarantined.inc();
        self.stats.live_keys.sub(1);
        self.stats.note_control(ControlEvent::Quarantine {
            shard: self.id,
            key,
            dropped: pending as u64,
        });
        self.cap_tombstone_out(&mut state.out);
        self.retired
            .insert(key, Retired { frontiers: Vec::new(), out: state.out, quarantined: true });
    }

    /// Force-drains the `excess` oldest buffered events of one key/source
    /// into every accepting cell session ahead of the watermark
    /// ([`BackstopPolicy::ForceDrain`]), emitting what matures. The key
    /// keeps its output streams but loses lateness tolerance behind the
    /// drained frontier.
    fn force_drain_buf(&mut self, key: u64, source: usize, excess: usize) {
        if excess == 0 {
            return;
        }
        let Some(state) = self.keys.get_mut(&key) else { return };
        // The victim may be any key on the shard, and its roster vectors
        // are only re-synced on its own accept/visit paths — an attach that
        // grew the cell roster since this key last saw traffic would leave
        // `state.cells` short and the drain loop below indexing past it
        // (a caught panic that spuriously quarantined a healthy key,
        // discarding its share of the reorder buffer).
        Self::sync_key(state, self.cells.len(), self.n_sources);
        let id = self.id;
        let sinks = Arc::clone(&self.sinks);
        let stats = Arc::clone(&self.stats);
        let cells = &self.cells;
        let pool = &mut self.pool;
        let scratch = &mut self.scratch;
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            let mut drained = state.pending[source].drain_oldest(excess);
            stats.sub_reorder_pending(id, drained.len());
            stats.backstop_forced.add(drained.len() as u64);
            stats.note_control(ControlEvent::BackstopDrain {
                shard: id,
                key,
                drained: drained.len() as u64,
            });
            // The force-drain pushes ahead of the watermark by design, so
            // no per-cycle watermark plan is needed — liveness and arity
            // on the cell itself decide who receives the events. (This
            // runs once per overflowing arrival; keep it allocation-free.)
            for (ci, cell) in cells.iter().enumerate() {
                if !cell.alive || source >= cell.n_sources {
                    continue;
                }
                let Some(cs) = state.cells[ci].as_mut() else { continue };
                let mut frontier = cs.pushed_end[source].max(cs.session.watermark());
                scratch.clear();
                for b in drained.iter_mut() {
                    if b.event.start < frontier {
                        continue;
                    }
                    b.taken = true;
                    frontier = b.event.end;
                    scratch.push(b.event.clone());
                }
                if scratch.is_empty() {
                    continue;
                }
                let upto = frontier;
                cs.session.push_events(source, scratch);
                cs.pushed_end[source] = frontier;
                cs.dirty = true;
                scratch.clear();
                if upto > cs.session.watermark() {
                    let bufs = cs.session.advance_to_with(upto, pool);
                    cs.dirty = false;
                    cell.note_kernels(&stats);
                    for (mi, buf) in bufs.into_iter().enumerate() {
                        let emitted = buf.to_events();
                        pool.put(buf);
                        Self::deliver(key, cell.qids[mi], emitted, &mut state.out, &sinks, &stats);
                    }
                }
            }
            let untaken = drained.iter().filter(|b| !b.taken).count();
            stats.events_consumed.add((drained.len() - untaken) as u64);
            if untaken > 0 {
                stats.late_dropped.add(untaken as u64);
            }
        }))
        .is_err();
        if panicked {
            self.quarantine(key);
        }
    }

    /// Applies [`BackstopPolicy::ForceDrain`] at the shard level: the
    /// fullest buffers are drained until the shard backlog is at half its
    /// cap, so the O(keys) victim scans amortize across many arrivals.
    fn force_drain_shard(&mut self) {
        let Some(cap) = self.cfg.max_pending_per_shard else { return };
        let floor = (cap / 2).max(1) as i64;
        while self.stats.reorder_pending[self.id].get() > floor {
            let victim = self
                .keys
                .iter()
                .flat_map(|(k, s)| {
                    s.pending.iter().enumerate().map(move |(src, p)| (p.len(), *k, src))
                })
                .filter(|&(len, _, _)| len > 0)
                .max_by_key(|&(len, k, src)| (len, std::cmp::Reverse(k), std::cmp::Reverse(src)));
            let Some((len, key, source)) = victim else { break };
            self.force_drain_buf(key, source, (len / 2).max(1));
        }
    }

    /// Serializes one key's complete state: the single encoding shared by
    /// checkpoint records, spill bundles, and migration bundles. Cell
    /// slots are indices into the full roster; dead or absent cells
    /// encode as an absence flag.
    fn encode_key_state(state: &KeyState) -> Vec<u8> {
        let mut e = Enc::new();
        e.time(state.last_end);
        e.u8(state.queued as u8);
        e.u32(state.pending.len() as u32);
        for buf in &state.pending {
            e.u32(buf.events.len() as u32);
            for b in &buf.events {
                e.event(&b.event);
                e.u8(b.taken as u8);
            }
        }
        e.u32(state.cells.len() as u32);
        for slot in &state.cells {
            match slot {
                None => e.u8(0),
                Some(cs) => {
                    e.u8(1);
                    e.time(cs.session.watermark());
                    let hists = cs.session.histories();
                    e.u32(hists.len() as u32);
                    for h in hists {
                        e.ssbuf(h);
                    }
                    e.u32(cs.pushed_end.len() as u32);
                    for t in &cs.pushed_end {
                        e.time(*t);
                    }
                    e.u8(cs.dirty as u8);
                }
            }
        }
        Self::encode_out(&mut e, &state.out);
        e.into_bytes()
    }

    /// Appends a per-query output table (shared by live key states and
    /// retired tombstones).
    fn encode_out(e: &mut Enc, out: &[Vec<Event<Value>>]) {
        e.u32(out.len() as u32);
        for evs in out {
            e.u32(evs.len() as u32);
            for ev in evs {
                e.event(ev);
            }
        }
    }

    fn decode_out(d: &mut Dec<'_>) -> Result<Vec<Vec<Event<Value>>>, StateError> {
        Ok(d.seq(4, |d| d.seq(17, |d| d.event()))?)
    }

    /// Decodes the payload written by [`Shard::encode_key_state`]. Every
    /// structural invariant a checksum cannot vouch for is re-validated:
    /// reorder buffers must arrive in sorted order, histories must pass
    /// the snapshot-buffer invariants (checked later by `from_parts`).
    fn decode_key_state(payload: &[u8]) -> Result<DecodedKey, StateError> {
        let mut d = Dec::new(payload);
        let last_end = d.time()?;
        let queued = d.flag()?;
        let pending =
            d.seq(4, |d| d.seq(18, |d| Ok(Buffered { event: d.event()?, taken: d.flag()? })))?;
        let span = |b: &Buffered| (b.event.start, b.event.end);
        if pending.iter().any(|events| events.windows(2).any(|w| span(&w[1]) < span(&w[0]))) {
            return Err(StateError::Corrupt("reorder buffer events out of order"));
        }
        let pending = pending.into_iter().map(|events| ReorderBuf { events }).collect();
        let cells = d.seq(1, |d| {
            if !d.flag()? {
                return Ok(None);
            }
            Ok(Some(DecodedSession {
                watermark: d.time()?,
                histories: d.seq(12, |d| d.ssbuf())?,
                pushed_end: d.seq(8, |d| d.time())?,
                dirty: d.flag()?,
            }))
        })?;
        let out = Self::decode_out(&mut d)?;
        d.finish()?;
        Ok(DecodedKey { last_end, queued, pending, cells, out })
    }

    /// Rebuilds a key from decoded durable state against the *current*
    /// roster: recorded cells past the roster are an error, sessions for
    /// since-detached cells are dropped (counted as reclaimed), and
    /// output slots whose query left every live cell are cleared —
    /// mirroring what `detach` would have done to a resident key.
    fn install_key_state(
        &mut self,
        key: u64,
        dk: DecodedKey,
        from_spill: bool,
    ) -> Result<(), StateError> {
        if self.keys.contains_key(&key) {
            return Err(StateError::Corrupt("key bundle duplicates a live key"));
        }
        if dk.pending.len() > self.n_sources {
            return Err(StateError::Corrupt("key bundle names more sources than the roster"));
        }
        if dk.cells.len() > self.cells.len() {
            return Err(StateError::Corrupt("key bundle names a cell past the roster"));
        }
        let n_pending: usize = dk.pending.iter().map(ReorderBuf::len).sum();
        let mut cells: Vec<Option<CellSession>> = Vec::with_capacity(self.cells.len());
        for (ci, slot) in dk.cells.into_iter().enumerate() {
            let cell = &self.cells[ci];
            let Some(ds) = slot else {
                cells.push(None);
                continue;
            };
            if !cell.alive {
                self.stats.sessions_reclaimed.inc();
                cells.push(None);
                continue;
            }
            let session =
                GroupSessionIn::from_parts(Arc::clone(&cell.group), ds.histories, ds.watermark)
                    .map_err(|_| StateError::Corrupt("session state violates group invariants"))?;
            let mut pushed_end = ds.pushed_end;
            pushed_end.resize(cell.n_sources, ds.watermark);
            cells.push(Some(CellSession { session, pushed_end, dirty: ds.dirty }));
        }
        let mut out = dk.out;
        for (qid, evs) in out.iter_mut().enumerate() {
            if !evs.is_empty() && !self.cells.iter().any(|c| c.alive && c.qids.contains(&qid)) {
                *evs = Vec::new();
            }
        }
        let mut state = KeyState {
            pending: dk.pending,
            cells,
            out,
            last_end: dk.last_end,
            last_touch: Instant::now(),
            queued: false,
        };
        Self::sync_key(&mut state, self.cells.len(), self.n_sources);
        if dk.queued {
            state.queued = true;
            self.active.push(key);
        }
        self.keys.insert(key, state);
        self.stats.live_keys.add(1);
        if n_pending > 0 {
            self.stats.reorder_pending[self.id].add(n_pending as i64);
            if from_spill {
                self.stats.spilled_pending.sub(n_pending as i64);
            }
        }
        Ok(())
    }

    /// Serializes this shard's complete state as one checkpoint record.
    /// Keys and tombstones are written in sorted order so identical state
    /// produces identical bytes. Spilled keys are *not* included — their
    /// bundles live in the spill directory, not the snapshot.
    fn checkpoint_payload(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u32(self.id as u32);
        e.u32(self.max_start.len() as u32);
        for t in &self.max_start {
            e.time(*t);
        }
        for t in &self.explicit {
            e.time(*t);
        }
        e.time(self.max_end);
        e.time(self.emitted);
        e.time(self.last_sweep);
        e.u32(self.cells.len() as u32);
        for c in &self.cells {
            e.u8(c.alive as u8);
            e.time(c.emitted);
        }
        let mut keys: Vec<u64> = self.keys.keys().copied().collect();
        keys.sort_unstable();
        e.u32(keys.len() as u32);
        for k in keys {
            e.u64(k);
            e.bytes(&Self::encode_key_state(&self.keys[&k]));
        }
        let mut retired: Vec<u64> = self.retired.keys().copied().collect();
        retired.sort_unstable();
        e.u32(retired.len() as u32);
        for k in retired {
            let r = &self.retired[&k];
            e.u64(k);
            e.u8(r.quarantined as u8);
            e.u32(r.frontiers.len() as u32);
            for f in &r.frontiers {
                e.opt_i64(f.map(|t| t.ticks()));
            }
            Self::encode_out(&mut e, &r.out);
        }
        e.into_bytes()
    }

    /// Installs a checkpointed shard record. Sent as the first message
    /// after a restore spawn, so it replaces pristine state; the roster
    /// (rebuilt by the service from the same snapshot) must match.
    fn install(&mut self, payload: &[u8]) -> Result<(), StateError> {
        let mut d = Dec::new(payload);
        let id = d.u32()? as usize;
        if id != self.id {
            return Err(StateError::Corrupt("shard record routed to the wrong shard"));
        }
        let n_src = d.count(8)?;
        if n_src != self.n_sources {
            return Err(StateError::Corrupt("shard record source count does not match the roster"));
        }
        for i in 0..n_src {
            self.max_start[i] = d.time()?;
        }
        for i in 0..n_src {
            self.explicit[i] = d.time()?;
        }
        self.max_end = d.time()?;
        self.emitted = d.time()?;
        self.last_sweep = d.time()?;
        let n_cells = d.count(9)?;
        if n_cells != self.cells.len() {
            return Err(StateError::Corrupt("shard record cell count does not match the roster"));
        }
        for ci in 0..n_cells {
            self.cells[ci].alive = d.flag()?;
            self.cells[ci].emitted = d.time()?;
        }
        self.refresh_ttl();
        let n_keys = d.count(12)?;
        for _ in 0..n_keys {
            let key = d.u64()?;
            let dk = Self::decode_key_state(d.bytes()?)?;
            self.install_key_state(key, dk, false)?;
        }
        let n_retired = d.count(9)?;
        for _ in 0..n_retired {
            let key = d.u64()?;
            let quarantined = d.flag()?;
            let frontiers = d.seq(1, |d| Ok(d.opt_i64()?.map(Time::new)))?;
            let out = Self::decode_out(&mut d)?;
            if self.retired.insert(key, Retired { frontiers, out, quarantined }).is_some() {
                return Err(StateError::Corrupt("duplicate retired key in shard record"));
            }
        }
        Ok(d.finish()?)
    }

    /// Serializes one key out of this shard for migration and forgets it.
    /// Pending events leave the reorder gauge and ride the bundle, held
    /// by the `spilled_pending` gauge until the target installs them.
    fn migrate_out(&mut self, key: u64) -> Option<Vec<u8>> {
        let state = self.keys.remove(&key)?;
        let payload = Self::encode_key_state(&state);
        let n_pending: usize = state.pending.iter().map(ReorderBuf::len).sum();
        if n_pending > 0 {
            self.stats.sub_reorder_pending(self.id, n_pending);
            self.stats.spilled_pending.add(n_pending as i64);
        }
        self.stats.live_keys.sub(1);
        Some(payload)
    }

    /// Splices a migrated key into this shard. An undecodable bundle
    /// quarantines the key (fail closed) rather than silently restarting
    /// it from an empty session.
    fn migrate_in(&mut self, key: u64, bundle: Vec<u8>) {
        let installed =
            Self::decode_key_state(&bundle).and_then(|dk| self.install_key_state(key, dk, true));
        if installed.is_err() {
            self.stats.keys_quarantined.inc();
            self.stats.note_control(ControlEvent::Quarantine { shard: self.id, key, dropped: 0 });
            self.retired
                .insert(key, Retired { frontiers: Vec::new(), out: Vec::new(), quarantined: true });
        }
    }

    /// Per-key load scores — one point per key plus one per live session
    /// and buffered event — the shard-local input to
    /// [`crate::StreamService::rebalance`].
    fn census(&self) -> Vec<(u64, u64)> {
        self.keys
            .iter()
            .map(|(k, s)| {
                let pending: usize = s.pending.iter().map(ReorderBuf::len).sum();
                let sessions = s.cells.iter().flatten().count();
                (*k, 1 + pending as u64 + sessions as u64)
            })
            .collect()
    }

    /// Spills a key to the cold store instead of evicting it, when one is
    /// configured. The state is serialized verbatim — no flush, no
    /// session advance — so revival is byte-identical to never evicting:
    /// idle keys advance lazily on their next visit either way. Returns
    /// true when the eviction was fully handled here.
    fn try_spill(&mut self, key: u64) -> bool {
        let Some(spill) = self.spill.clone() else { return false };
        let Some(state) = self.keys.remove(&key) else { return true };
        let payload = Self::encode_key_state(&state);
        match spill.save(key, &payload) {
            Ok(bytes) => {
                let n_pending: usize = state.pending.iter().map(ReorderBuf::len).sum();
                if n_pending > 0 {
                    self.stats.sub_reorder_pending(self.id, n_pending);
                    self.stats.spilled_pending.add(n_pending as i64);
                }
                self.stats.live_keys.sub(1);
                self.stats.spills.inc();
                self.stats.state_bytes_written.add(bytes);
                self.stats.note_control(ControlEvent::Spill { shard: self.id, key });
                self.spilled.insert(key);
                true
            }
            Err(_) => {
                // The disk refused the bundle: fall back to the in-memory
                // eviction path, which needs no I/O to stay correct.
                self.keys.insert(key, state);
                false
            }
        }
    }

    /// Loads a spilled key back into memory. The caller has already
    /// removed the key from the spilled set; an unreadable or corrupt
    /// bundle quarantines the key so its events are refused and counted
    /// instead of silently recomputed from an empty session.
    fn revive_from_spill(&mut self, key: u64) {
        let spill = self.spill.clone().expect("spilled set implies a store");
        let revived = spill.load(key).and_then(|(payload, bytes)| {
            self.stats.state_bytes_read.add(bytes);
            let dk = Self::decode_key_state(&payload)?;
            self.install_key_state(key, dk, true)
        });
        match revived {
            Ok(()) => {
                self.stats.spill_revivals.inc();
                self.stats.note_control(ControlEvent::Revive { shard: self.id, key });
            }
            Err(_) => {
                // Disk corruption, not a kernel panic: count it apart so
                // the operator can tell the two quarantine causes apart.
                self.stats.spill_corrupt.inc();
                self.stats.keys_quarantined.inc();
                self.stats.note_control(ControlEvent::SpillCorrupt { shard: self.id, key });
                self.stats.note_control(ControlEvent::Quarantine {
                    shard: self.id,
                    key,
                    dropped: 0,
                });
                self.retired.insert(
                    key,
                    Retired { frontiers: Vec::new(), out: Vec::new(), quarantined: true },
                );
            }
        }
    }

    /// Applies `tombstone_output_cap`: a retiring key's accumulated
    /// sink-less output is trimmed to the newest `cap` events per query
    /// so a churning key population cannot pin unbounded memory in
    /// tombstones. Live keys are never capped — `finish` returns their
    /// output in full.
    fn cap_tombstone_out(&self, out: &mut [Vec<Event<Value>>]) {
        let Some(cap) = self.cfg.tombstone_output_cap else { return };
        for evs in out.iter_mut() {
            if evs.len() > cap {
                let dropped = evs.len() - cap;
                evs.drain(..dropped);
                self.stats.tombstone_dropped.add(dropped as u64);
            }
        }
    }

    fn deliver(
        key: u64,
        query: usize,
        events: Vec<Event<Value>>,
        out: &mut Vec<Vec<Event<Value>>>,
        sinks: &SinkTable,
        stats: &SharedStats,
    ) {
        if events.is_empty() {
            return;
        }
        stats.add_events_out(query, events.len() as u64);
        match sinks.get(query) {
            Some(sink) => sink(key, &events),
            None => {
                if out.len() <= query {
                    out.resize_with(query + 1, Vec::new);
                }
                out[query].extend(events);
            }
        }
    }

    /// End-of-stream: push everything still pending (the watermarks can no
    /// longer refute it), flush every cell session through the final
    /// horizon, and hand the per-key outputs back. Evicted keys are
    /// resurrected for the final flush so queries that emit output on an
    /// empty timeline still surface their tail; quarantined keys return
    /// what they had.
    fn flush(mut self, finish_at: Option<Time>) -> ShardOutput {
        debug_assert!(self.burst.is_empty(), "the run loop settles before it can exit");
        // Spilled keys rejoin for the final flush: their revival here is
        // what keeps spills == revivals and lets queries that emit on an
        // empty timeline surface the spilled keys' tails too.
        let spilled: Vec<u64> = std::mem::take(&mut self.spilled).into_iter().collect();
        for key in spilled {
            self.revive_from_spill(key);
        }
        let grid = self.cells.iter().filter(|c| c.alive).map(|c| c.grid).max().unwrap_or(1);
        let horizon = finish_at.unwrap_or_else(|| self.max_end.max(self.cfg.start).align_up(grid));
        self.stats.shard_watermark[self.id].set(horizon.ticks());
        let flush_start = self.stats.detailed.then(Instant::now);
        let id = self.id;
        let sinks = Arc::clone(&self.sinks);
        let stats = Arc::clone(&self.stats);
        let cells = std::mem::take(&mut self.cells);
        let pool = &mut self.pool;
        let scratch = &mut self.scratch;
        let residency = &mut self.residency_scratch;
        let n_cells = cells.len();
        let n_sources = self.n_sources;
        // At the final horizon every cell is fully matured: one shared
        // plan drains and flushes everything.
        let final_plans: Vec<CellPlan> = cells
            .iter()
            .map(|c| CellPlan { alive: c.alive, wm: Time::MAX, target: horizon, due: c.alive })
            .collect();
        let mut per_key: Vec<(u64, Vec<Vec<Event<Value>>>)> =
            Vec::with_capacity(self.keys.len() + self.retired.len());
        for (key, mut state) in self.keys.drain() {
            Self::sync_key(&mut state, n_cells, n_sources);
            let panicked = catch_unwind(AssertUnwindSafe(|| {
                Self::drain_and_release(
                    id,
                    &mut state,
                    &cells,
                    &final_plans,
                    scratch,
                    residency,
                    &stats,
                );
                for (ci, cell) in cells.iter().enumerate() {
                    if !cell.alive {
                        continue;
                    }
                    let Some(cs) = state.cells[ci].as_mut() else { continue };
                    if horizon > cs.session.watermark() {
                        let bufs = cs.session.flush_to_with(horizon, pool);
                        cell.note_kernels(&stats);
                        for (mi, buf) in bufs.into_iter().enumerate() {
                            let emitted = buf.to_events();
                            pool.put(buf);
                            Self::deliver(
                                key,
                                cell.qids[mi],
                                emitted,
                                &mut state.out,
                                &sinks,
                                &stats,
                            );
                        }
                    }
                }
            }))
            .is_err();
            if panicked {
                let remaining: usize = state.pending.iter().map(ReorderBuf::len).sum();
                if remaining > 0 {
                    stats.sub_reorder_pending(id, remaining);
                    stats.quarantine_dropped.add(remaining as u64);
                }
                stats.keys_quarantined.inc();
                stats.note_control(ControlEvent::Quarantine {
                    shard: id,
                    key,
                    dropped: remaining as u64,
                });
            }
            per_key.push((key, state.out));
        }
        for (key, r) in self.retired.drain() {
            let mut out = r.out;
            if !r.quarantined {
                for (ci, cell) in cells.iter().enumerate() {
                    if !cell.alive {
                        continue;
                    }
                    let Some(frontier) = r.frontiers.get(ci).copied().flatten() else { continue };
                    if horizon <= frontier {
                        continue;
                    }
                    let mut session = cell.group.shared_session(frontier);
                    match catch_unwind(AssertUnwindSafe(|| session.flush_to_with(horizon, pool))) {
                        Ok(bufs) => {
                            cell.note_kernels(&stats);
                            for (mi, buf) in bufs.into_iter().enumerate() {
                                let emitted = buf.to_events();
                                pool.put(buf);
                                Self::deliver(
                                    key,
                                    cell.qids[mi],
                                    emitted,
                                    &mut out,
                                    &sinks,
                                    &stats,
                                );
                            }
                        }
                        Err(_) => {
                            stats.keys_quarantined.inc();
                            stats.note_control(ControlEvent::Quarantine {
                                shard: id,
                                key,
                                dropped: 0,
                            });
                        }
                    }
                }
            }
            per_key.push((key, out));
        }
        per_key.sort_by_key(|(k, _)| *k);
        // Last chance to publish batched per-event samples: the shard
        // thread exits after this, and the final snapshot must see them.
        self.ingest_lag_scratch.flush_into(&self.stats.ingest_lag[self.id]);
        self.residency_scratch.flush_into(&self.stats.reorder_residency[self.id]);
        self.burst_events_scratch.flush_into(&self.stats.burst_events[self.id]);
        self.burst_keys_scratch.flush_into(&self.stats.burst_keys[self.id]);
        if let Some(start) = flush_start {
            self.stats.flush_ns[self.id].record(start.elapsed().as_nanos() as u64);
        }
        ShardOutput { per_key }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilt_core::ir::{DataType, Expr, Query, ReduceOp, TDom};
    use tilt_core::{CompiledQuery, Compiler};

    use crate::RuntimeStats;

    fn ev(start: i64, end: i64, v: f64) -> Event<Value> {
        Event::new(Time::new(start), Time::new(end), Value::Float(v))
    }

    #[test]
    fn monotone_insertion_preserves_order() {
        // Bounded-out-of-order arrivals; the matured prefix must be
        // (start, end)-sorted.
        let mut buf = ReorderBuf::default();
        for (s, e, v) in [(3, 4, 0.0), (1, 2, 1.0), (5, 6, 2.0), (2, 3, 3.0), (4, 5, 4.0)] {
            buf.insert(ev(s, e, v));
        }
        let matured = buf.matured_mut(Time::new(5));
        let starts: Vec<i64> = matured.iter().map(|b| b.event.start.ticks()).collect();
        assert_eq!(starts, vec![1, 2, 3, 4]);
        let (released, untaken) = buf.release(Time::new(5));
        assert_eq!((released, untaken), (4, 4), "nothing was marked taken");
        assert_eq!(buf.len(), 1, "event starting at 5 is not yet matured");
        buf.matured_mut(Time::MAX).iter_mut().for_each(|b| b.taken = true);
        assert_eq!(buf.release(Time::MAX), (1, 0));
        assert!(buf.is_empty());
    }

    #[test]
    fn equal_timestamps_keep_arrival_order() {
        // Stability: ties on (start, end) must drain in arrival order.
        let mut buf = ReorderBuf::default();
        buf.insert(ev(1, 2, 10.0));
        buf.insert(ev(1, 2, 20.0));
        buf.insert(ev(0, 1, 5.0));
        buf.insert(ev(1, 2, 30.0));
        let vals: Vec<f64> = buf
            .matured_mut(Time::MAX)
            .iter()
            .map(|b| match b.event.payload {
                Value::Float(f) => f,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(vals, vec![5.0, 10.0, 20.0, 30.0]);
    }

    #[test]
    fn in_order_insertion_is_append_only() {
        // The fast path: monotone arrivals never trigger a shifting insert.
        let mut buf = ReorderBuf::default();
        for t in 1..=1000 {
            buf.insert(ev(t, t + 1, t as f64));
        }
        assert_eq!(buf.len(), 1000);
        let matured = buf.matured_mut(Time::new(500));
        assert_eq!(matured.len(), 499);
        assert!(matured.windows(2).all(|w| w[0].event.start <= w[1].event.start));
    }

    #[test]
    fn drain_oldest_takes_the_sorted_prefix() {
        let mut buf = ReorderBuf::default();
        for (s, e) in [(5, 6), (1, 2), (3, 4), (2, 3)] {
            buf.insert(ev(s, e, 0.0));
        }
        let oldest = buf.drain_oldest(2);
        let starts: Vec<i64> = oldest.iter().map(|b| b.event.start.ticks()).collect();
        assert_eq!(starts, vec![1, 2]);
        assert_eq!(buf.len(), 2);
        // Asking for more than is buffered drains what exists.
        assert_eq!(buf.drain_oldest(10).len(), 2);
        assert!(buf.is_empty());
    }

    #[test]
    fn release_respects_taken_flags() {
        let mut buf = ReorderBuf::default();
        for t in 1..=6 {
            buf.insert(ev(t, t + 1, 0.0));
        }
        // A consumer takes the first three; a duplicate-looking straggler
        // stays untaken.
        for b in buf.matured_mut(Time::new(4)) {
            b.taken = true;
        }
        buf.insert(ev(2, 3, 9.9)); // behind the consumer's frontier: nobody takes it
        let (released, untaken) = buf.release(Time::new(4));
        assert_eq!(released, 4);
        assert_eq!(untaken, 1, "the unconsumed straggler is counted exactly once");
        assert_eq!(buf.len(), 3);
    }

    #[test]
    fn drain_random_interleaving_matches_sorted_reference() {
        // Pseudo-random bounded shuffle vs a reference sort.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as i64
        };
        let mut events: Vec<Event<Value>> =
            (0..200).map(|i| ev(i + next() % 8, i + 8 + next() % 4, i as f64)).collect();
        let mut reference = events.clone();
        reference.sort_by_key(|e| (e.start, e.end));
        // Scramble arrival order deterministically.
        for i in (1..events.len()).rev() {
            let j = (next() as usize) % (i + 1);
            events.swap(i, j);
        }
        let mut buf = ReorderBuf::default();
        for e in events {
            buf.insert(e);
        }
        let got: Vec<(Time, Time)> =
            buf.matured_mut(Time::MAX).iter().map(|b| (b.event.start, b.event.end)).collect();
        let want: Vec<(Time, Time)> = reference.iter().map(|e| (e.start, e.end)).collect();
        assert_eq!(got, want);
    }

    // ---- A burst of one equals a burst of many ----

    /// Ticks of event time one block of the differential stream spans.
    const BLOCK_TICKS: i64 = 4096;
    /// Events per block: 64 messages of 256, one receive burst at the
    /// [`MAX_MSGS_PER_CYCLE`] bound.
    const BLOCK_EVENTS: usize = MAX_MSGS_PER_CYCLE * 256;
    /// A key that is quarantined before the first event arrives.
    const QUARANTINED: u64 = 666;

    fn window_sums(sources: usize) -> Arc<CompiledQuery> {
        let mut b = Query::builder();
        let mut expr: Option<Expr> = None;
        for s in 0..sources {
            let input = b.input(&format!("s{s}"), DataType::Float);
            let sum = Expr::reduce_window(ReduceOp::Sum, input, 4);
            expr = Some(match expr {
                Some(e) => e.add(sum),
                None => sum,
            });
        }
        let out = b.temporal("sum", TDom::every_tick(), expr.expect("at least one source"));
        Arc::new(Compiler::new().compile(&b.finish(out).unwrap()).unwrap())
    }

    /// A shard serving two cells — source 0 alone under lateness 8, sources
    /// 0 and 1 under lateness 24 — with its own counters, and one key
    /// quarantined up front.
    fn two_cell_shard(cfg: RuntimeConfig) -> (Shard, Arc<SharedStats>) {
        let stats = Arc::new(SharedStats::new(1, true, 64));
        let sinks = Arc::new(SinkTable::new());
        let specs: Vec<Arc<CellSpec>> = [(window_sums(1), 8), (window_sums(2), 24)]
            .into_iter()
            .map(|(cq, lateness)| {
                let qid = stats.register_query(cfg.start, false);
                sinks.push(None);
                Arc::new(CellSpec {
                    group: Arc::new(QueryGroup::new(vec![cq]).unwrap()),
                    qids: vec![qid],
                    root: cfg.start,
                    lateness,
                    emit_interval: cfg.emit_interval,
                })
            })
            .collect();
        let mut shard = Shard::new(0, &specs, cfg, sinks, Arc::clone(&stats), None);
        shard.retired.insert(
            QUARANTINED,
            Retired { frontiers: Vec::new(), out: Vec::new(), quarantined: true },
        );
        (shard, stats)
    }

    /// One block of the seeded stream. Only its last event carries a cell's
    /// watermark over an emission point (every other source-0 start stays
    /// below `base + BLOCK_TICKS / 2`, the cells' `emit_interval`), so an
    /// emission cycle after every event and one after the whole block run
    /// the same cycles. Within the block: 40 hot keys in bounded disorder,
    /// stragglers inside one cell's bound and beyond both, the same
    /// `(start, end)` twice with different payloads, a source nobody reads,
    /// the quarantined key, and a churn set that is silent in blocks 1 and 2
    /// (evicted under a TTL) and returns in block 3 behind, then ahead of,
    /// its eviction frontier.
    fn block_events(block: usize, rng: &mut u64) -> Vec<KeyedEvent> {
        let mut next = || {
            *rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (*rng >> 33) as i64
        };
        let base = block as i64 * BLOCK_TICKS;
        let jump = base + BLOCK_TICKS + 24;
        let mut out: Vec<KeyedEvent> = Vec::with_capacity(BLOCK_EVENTS);
        let point = |key: u64, source: usize, start: i64, len: i64, v: f64| {
            KeyedEvent::new(key, source, ev(start, start + len, v))
        };
        for i in 0..BLOCK_EVENTS {
            let progress = base + (i as i64 * (BLOCK_TICKS / 2 - 64)) / BLOCK_EVENTS as i64;
            let v = (next() % 64) as f64 * 0.25;
            let len = 1 + next() % 3;
            let ke = if i == BLOCK_EVENTS - 1 {
                point(0, 0, jump, 1, v)
            } else if i == BLOCK_EVENTS / 2 {
                // Source 1 runs ahead first, so the block's last event moves
                // both cells' watermarks at once.
                point(1, 1, jump, 1, v)
            } else if i % 501 == 1 {
                let prev = out.last().expect("not the first event");
                KeyedEvent::new(
                    prev.key,
                    prev.source,
                    Event::new(prev.event.start, prev.event.end, Value::Float(v + 0.125)),
                )
            } else if i % 1999 == 0 {
                point((next() % 40) as u64, 2, progress + 1, len, v)
            } else if i % 777 == 0 {
                point(QUARANTINED, 0, progress + 1, len, v)
            } else if i % 53 == 0 && (block == 0 || block == 3) {
                let key = 100 + (next() % 8) as u64;
                // Key 100 first returns with an event from before its
                // eviction; the others (and its later events) are current.
                let start = if block == 3 && key == 100 && i < BLOCK_EVENTS / 4 {
                    10 + next() % 20
                } else {
                    progress + 1
                };
                point(key, 0, start, len, v)
            } else {
                let key = (next() % 40) as u64;
                let source = if next() % 8 == 0 { 1 } else { 0 };
                let disorder = if next() % 97 == 0 { 8 + next() % 40 } else { next() % 6 };
                point(key, source, (progress + 1 - disorder).max(1), len, v)
            };
            out.push(ke);
        }
        out
    }

    /// One receive burst as [`Shard::run`] folds it: every message applied,
    /// the burst settled, then one emission cycle. Accounts the events as
    /// `send_batch` and `ingest` do, so the conservation identity can be
    /// read.
    fn cycle(shard: &mut Shard, stats: &SharedStats, msgs: Vec<Vec<KeyedEvent>>) {
        let mut finish_at = None;
        for events in msgs {
            stats.queue_depth[0].add(events.len() as i64);
            stats.events_in.add(events.len() as u64);
            shard.apply(ShardMsg::Batch(events), &mut finish_at);
        }
        shard.settle(false);
        shard.maybe_advance();
    }

    fn burst_of_one_equals_burst_of_many(cfg: RuntimeConfig) -> RuntimeStats {
        let cfg = RuntimeConfig { emit_interval: BLOCK_TICKS / 2, ..cfg };
        let (mut single, single_stats) = two_cell_shard(cfg);
        let (mut folded, folded_stats) = two_cell_shard(cfg);
        let mut rng = 0x5EED_0000_0000_0029u64;
        for block in 0..4 {
            let events = block_events(block, &mut rng);
            for ke in &events {
                cycle(&mut single, &single_stats, vec![vec![ke.clone()]]);
            }
            cycle(&mut folded, &folded_stats, events.chunks(256).map(<[_]>::to_vec).collect());
            assert!(
                single.checkpoint_payload() == folded.checkpoint_payload(),
                "checkpoint bytes differ after block {block}"
            );
            let (a, b) = (single_stats.snapshot(), folded_stats.snapshot());
            assert_eq!(a.conservation_balance(), 0, "block {block}");
            assert_eq!(b.conservation_balance(), 0, "block {block}");
        }
        let a = single.flush(None).per_key;
        let b = folded.flush(None).per_key;
        assert_eq!(a.len(), b.len());
        for ((ka, oa), (kb, ob)) in a.iter().zip(&b) {
            assert_eq!(ka, kb);
            assert_eq!(oa, ob, "key {ka}");
        }
        assert!(a.iter().any(|(_, out)| out.iter().any(|evs| !evs.is_empty())));
        let (a, b) = (single_stats.snapshot(), folded_stats.snapshot());
        for (field, x, y) in [
            ("late_dropped", a.late_dropped, b.late_dropped),
            ("events_consumed", a.events_consumed, b.events_consumed),
            ("backstop_dropped", a.backstop_dropped, b.backstop_dropped),
            ("backstop_forced", a.backstop_forced, b.backstop_forced),
            ("evictions", a.evictions, b.evictions),
            ("revivals", a.revivals, b.revivals),
            ("quarantine_dropped", a.quarantine_dropped, b.quarantine_dropped),
            ("reorder_buffered", a.reorder_buffered, b.reorder_buffered),
            ("events_out", a.events_out, b.events_out),
            ("kernels_run", a.kernels_run, b.kernels_run),
            ("keys", a.keys, b.keys),
        ] {
            assert_eq!(x, y, "{field}");
        }
        assert_eq!(a.late_per_query, b.late_per_query);
        assert_eq!(b.conservation_balance(), 0);
        assert!(b.quarantine_dropped > 0 && b.late_dropped > 0 && b.events_consumed > 0);
        b
    }

    #[test]
    fn burst_of_one_equals_burst_of_many_with_eviction_and_revival() {
        let stats = burst_of_one_equals_burst_of_many(RuntimeConfig {
            key_ttl: Some(BLOCK_TICKS),
            ..RuntimeConfig::default()
        });
        assert!(stats.evictions >= 8, "the churn set is evicted: {}", stats.evictions);
        assert!(stats.revivals >= 8, "and revived: {}", stats.revivals);
    }

    #[test]
    fn burst_of_one_equals_burst_of_many_under_the_per_key_backstop() {
        for backstop in [BackstopPolicy::DropNewest, BackstopPolicy::ForceDrain] {
            let stats = burst_of_one_equals_burst_of_many(RuntimeConfig {
                max_pending_per_key: Some(16),
                backstop,
                ..RuntimeConfig::default()
            });
            match backstop {
                BackstopPolicy::DropNewest => assert!(stats.backstop_dropped > 0),
                BackstopPolicy::ForceDrain => assert!(stats.backstop_forced > 0),
            }
        }
    }

    #[test]
    fn burst_of_one_equals_burst_of_many_under_the_per_shard_backstop() {
        for backstop in [BackstopPolicy::DropNewest, BackstopPolicy::ForceDrain] {
            let stats = burst_of_one_equals_burst_of_many(RuntimeConfig {
                max_pending_per_shard: Some(2000),
                backstop,
                ..RuntimeConfig::default()
            });
            match backstop {
                BackstopPolicy::DropNewest => assert!(stats.backstop_dropped > 0),
                BackstopPolicy::ForceDrain => assert!(stats.backstop_forced > 0),
            }
        }
    }
}
