//! Service-side durable-state plumbing: the snapshot record kinds, the
//! spill store evicted keys cool off in, and the service-record codec
//! shared by [`crate::StreamService::checkpoint`] and
//! [`crate::StreamService::restore`].
//!
//! Everything here rides the `tilt-state` container format: a checkpoint
//! file is one [`KIND_SERVICE`] record followed by one [`KIND_SHARD`]
//! record per shard; a spill file is a single-record [`KIND_SPILL`]
//! bundle. The per-key payload encoding lives with the shard
//! (`Shard::encode_key_state`) — it is the *same* encoding inside all
//! three record kinds.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use tilt_core::CompiledQuery;
use tilt_data::Time;
use tilt_state::{Dec, Enc, StateError};

use crate::shard::CellSpec;
use crate::{BackstopPolicy, RuntimeConfig};

/// Checkpoint record carrying the service-wide header (config, query
/// roster, cell roster, route overrides, counters). Exactly one per
/// checkpoint file, and always the first record.
pub(crate) const KIND_SERVICE: u8 = 1;
/// Checkpoint record carrying one shard's complete state; one per shard,
/// in shard order, after the service record.
pub(crate) const KIND_SHARD: u8 = 2;
/// A spill bundle: one evicted key's state, serialized verbatim.
pub(crate) const KIND_SPILL: u8 = 3;

/// The cold store spilled keys live in: one single-record bundle file per
/// key under the configured directory
/// ([`crate::StreamServiceBuilder::spill_to`]).
#[derive(Debug)]
pub(crate) struct SpillStore {
    dir: PathBuf,
}

impl SpillStore {
    /// Opens (creating if needed) the spill directory.
    pub(crate) fn open(dir: &Path) -> Result<SpillStore, StateError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| StateError::Io { kind: e.kind(), context: "creating spill directory" })?;
        Ok(SpillStore { dir: dir.to_path_buf() })
    }

    fn path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("key-{key:016x}.spill"))
    }

    /// Writes one key's bundle, returning the bytes written.
    /// Failpoint: `state.spill.write` (a failed save falls back to
    /// keeping the key resident — eviction is abandoned, never lossy).
    pub(crate) fn save(&self, key: u64, payload: &[u8]) -> Result<u64, StateError> {
        tilt_fault::fail_point!("state.spill.write", {
            return Err(StateError::Io {
                kind: std::io::ErrorKind::Other,
                context: "writing spill bundle",
            });
        });
        tilt_state::write_bundle(&self.path(key), KIND_SPILL, payload)
    }

    /// Reads and *removes* one key's bundle, returning the payload and the
    /// bytes read. The removal makes revival exactly-once: a second load
    /// of the same key is an error, not a stale duplicate.
    /// Failpoint: `state.spill.read` (a failed load quarantines the key
    /// fail-closed and journals [`crate::ControlEvent::SpillCorrupt`]).
    pub(crate) fn load(&self, key: u64) -> Result<(Vec<u8>, u64), StateError> {
        tilt_fault::fail_point!("state.spill.read", {
            return Err(StateError::Io {
                kind: std::io::ErrorKind::Other,
                context: "reading spill bundle",
            });
        });
        let r = tilt_state::read_bundle(&self.path(key), KIND_SPILL)?;
        let _ = std::fs::remove_file(self.path(key));
        Ok(r)
    }
}

/// The [`KIND_SERVICE`] record: a cut of the service's registry, roster,
/// route table and counters.
pub(crate) struct ServiceRecord {
    pub(crate) config: RuntimeConfig,
    /// Liveness per query slot, in registration order.
    pub(crate) live: Vec<bool>,
    /// Join frontier per query slot.
    pub(crate) frontiers: Vec<Time>,
    /// The full cell roster, dead cells included (slots are never reused,
    /// so roster indices in per-key state stay valid).
    pub(crate) cells: Vec<Arc<CellSpec>>,
    /// Key-route overrides installed by migrations.
    pub(crate) routes: Vec<(u64, u32)>,
    /// Monotone service counters, in [`crate::stats`]'s fixed durable
    /// order.
    pub(crate) counters: Vec<u64>,
    /// The `max_event_end` gauge (attach-frontier negotiation state).
    pub(crate) max_event_end: i64,
    /// The `max_promise` gauge.
    pub(crate) max_promise: i64,
}

impl ServiceRecord {
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        let c = &self.config;
        e.u64(c.shards as u64);
        e.i64(c.allowed_lateness);
        e.u64(c.channel_capacity as u64);
        e.u64(c.ingest_batch as u64);
        e.i64(c.emit_interval);
        e.time(c.start);
        e.opt_i64(c.key_ttl);
        e.opt_u64(c.wall_clock_ttl.map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)));
        e.opt_u64(c.max_pending_per_key.map(|v| v as u64));
        e.opt_u64(c.max_pending_per_shard.map(|v| v as u64));
        e.u8(match c.backstop {
            BackstopPolicy::DropNewest => 0,
            BackstopPolicy::ForceDrain => 1,
        });
        e.u8(c.metrics as u8);
        e.u64(c.journal_capacity as u64);
        e.opt_u64(c.tombstone_output_cap.map(|v| v as u64));
        e.u32(self.live.len() as u32);
        for (live, f) in self.live.iter().zip(&self.frontiers) {
            e.u8(*live as u8);
            e.time(*f);
        }
        e.u32(self.cells.len() as u32);
        for cell in &self.cells {
            e.u8(cell.alive as u8);
            e.u32(cell.qids.len() as u32);
            for q in &cell.qids {
                e.u64(*q as u64);
            }
            e.time(cell.root);
            e.i64(cell.lateness);
            e.i64(cell.emit_interval);
        }
        e.u32(self.routes.len() as u32);
        for (key, shard) in &self.routes {
            e.u64(*key);
            e.u32(*shard);
        }
        e.u32(self.counters.len() as u32);
        for v in &self.counters {
            e.u64(*v);
        }
        e.i64(self.max_event_end);
        e.i64(self.max_promise);
        e.into_bytes()
    }

    /// Decodes a record, rebuilding each cell's group from `queries`, the
    /// compiled query of every recorded slot: queries are code, not data.
    pub(crate) fn decode(
        payload: &[u8],
        queries: &[Arc<CompiledQuery>],
    ) -> Result<ServiceRecord, StateError> {
        let mut d = Dec::new(payload);
        let shards = d.u64()? as usize;
        let allowed_lateness = d.i64()?;
        let channel_capacity = d.u64()? as usize;
        let ingest_batch = d.u64()? as usize;
        let emit_interval = d.i64()?;
        let start = d.time()?;
        let key_ttl = d.opt_i64()?;
        let wall_clock_ttl = d.opt_u64()?.map(Duration::from_nanos);
        let max_pending_per_key = d.opt_u64()?.map(|v| v as usize);
        let max_pending_per_shard = d.opt_u64()?.map(|v| v as usize);
        let backstop = match d.u8()? {
            0 => BackstopPolicy::DropNewest,
            1 => BackstopPolicy::ForceDrain,
            t => return Err(StateError::BadTag(t)),
        };
        let metrics = d.flag()?;
        let journal_capacity = d.u64()? as usize;
        let tombstone_output_cap = d.opt_u64()?.map(|v| v as usize);
        let config = RuntimeConfig {
            shards,
            allowed_lateness,
            channel_capacity,
            ingest_batch,
            emit_interval,
            start,
            key_ttl,
            wall_clock_ttl,
            max_pending_per_key,
            max_pending_per_shard,
            backstop,
            metrics,
            journal_capacity,
            tombstone_output_cap,
        };
        let (live, frontiers) = d.seq(9, |d| Ok((d.flag()?, d.time()?)))?.into_iter().unzip();
        let cells = d.seq(29, |d| {
            Ok((d.flag()?, d.seq(8, |d| Ok(d.u64()? as usize))?, d.time()?, d.i64()?, d.i64()?))
        })?;
        let routes = d.seq(12, |d| Ok((d.u64()?, d.u32()?)))?;
        let counters = d.seq(8, |d| d.u64())?;
        let max_event_end = d.i64()?;
        let max_promise = d.i64()?;
        d.finish()?;
        let cells = cells
            .into_iter()
            .map(|(alive, qids, root, lateness, emit_interval)| {
                let members = qids
                    .iter()
                    .map(|&q| queries.get(q).cloned())
                    .collect::<Option<_>>()
                    .ok_or(StateError::Corrupt("cell names an unknown query slot"))?;
                let spec = CellSpec::new(members, qids, root, lateness, emit_interval)
                    .map_err(|_| StateError::Corrupt("recorded cell failed to recompile"))?;
                Ok(Arc::new(CellSpec { alive, ..spec }))
            })
            .collect::<Result<_, StateError>>()?;
        Ok(ServiceRecord {
            config,
            live,
            frontiers,
            cells,
            routes,
            counters,
            max_event_end,
            max_promise,
        })
    }
}
