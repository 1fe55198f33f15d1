//! One run through the TCP front door: an in-process `Server` on a loopback
//! port, one producer connection (which also carries the control requests)
//! and one subscriber connection — two connections, the `nproc` of the
//! machine the sizes were chosen for.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use tilt_core::CompiledQuery;
use tilt_data::Time;
use tilt_runtime::RuntimeConfig;
use tilt_server::{Client, RemoteStats, Server};

use crate::probes::Layer;
use crate::service::Row;
use crate::trace::Lane;

const QUERY: &str = "ysb";

/// A started server with its two client connections.
pub struct Wire {
    server: Server,
    /// The producer connection.
    pub producer: Client,
    subscriber: JoinHandle<Vec<Row>>,
    /// Reference point of every `recv_ns` and hand-over time of this run.
    pub epoch: Instant,
}

/// What the server reported once the stream had ended.
pub struct WireEnd {
    /// Every output event, stamped on receipt by the subscriber.
    pub rows: Vec<Row>,
    /// The server's final counter snapshot.
    pub stats: RemoteStats,
    /// The final Prometheus exposition (service and server counters).
    pub metrics_text: String,
}

impl Wire {
    /// Starts the server, connects both clients, attaches and subscribes.
    /// Part of set-up: nothing here is inside a timed region.
    pub fn start(config: RuntimeConfig, cq: &Arc<CompiledQuery>, expect_rows: usize) -> Wire {
        let server =
            Server::start(config, vec![(QUERY.into(), Arc::clone(cq))]).expect("server starts");
        let producer = Client::connect(server.addr()).expect("producer connects");
        let query = producer.attach(QUERY, None, None).expect("query attaches");
        let consumer = Client::connect(server.addr()).expect("subscriber connects");
        let subscription = consumer.subscribe(query).expect("subscribes");
        let epoch = Instant::now();
        let subscriber = std::thread::spawn(move || {
            // The connection lives as long as its subscription is read.
            let _consumer = consumer;
            let mut rows = Vec::with_capacity(expect_rows);
            while let Some((key, events)) = subscription.next() {
                let recv_ns = epoch.elapsed().as_nanos() as u64;
                rows.extend(events.iter().map(|e| Row::of(key, e, recv_ns)));
            }
            rows
        });
        Wire { server, producer, subscriber, epoch }
    }

    /// Nanoseconds since this run's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Drains the service through `end`, waits for the subscriber to see the
    /// end of its stream, and returns `(seconds since `since`, what came
    /// out)`. The clock stops when the subscriber has everything; the final
    /// scrapes and the server's teardown are not timed.
    pub fn finish(self, end: Time, since: Instant, lane: &mut Lane) -> (f64, WireEnd) {
        lane.span("server.client_shutdown", 0, |_| self.producer.shutdown(Some(end)))
            .expect("shutdown is acknowledged");
        let rows = self.subscriber.join().expect("subscriber thread panicked");
        let secs = since.elapsed().as_secs_f64();
        let stats = self.producer.stats().expect("final stats");
        let metrics_text = self.producer.metrics_text().expect("final metrics");
        drop(self.producer);
        self.server.stop();
        (secs, WireEnd { rows, stats, metrics_text })
    }
}

/// Sum of the samples of counter or gauge `name` (over all label sets) in a
/// Prometheus text exposition.
pub fn prom_total(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| {
            l.strip_prefix(name).is_some_and(|rest| rest.starts_with(' ') || rest.starts_with('{'))
        })
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

/// Events the service lost, from the remote counters: late, backstop and
/// quarantine drops; every event on a conservation imbalance or a decode
/// error.
pub fn dropped_events(stats: &RemoteStats, attempted: usize) -> u64 {
    let get = |name: &str| stats.get(name).unwrap_or(-1);
    if get("conservation_balance") != 0 || get("decode_errors") != 0 {
        return attempted as u64;
    }
    (get("late_dropped") + get("backstop_dropped") + get("quarantine_dropped")).max(0) as u64
}

/// What one run's producer side counted.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProducerCounts {
    /// Time inside `Client::ingest`, ns.
    pub ingest_ns: u64,
    /// Ingest frames sent.
    pub frames: usize,
    /// Frames answered `Busy`.
    pub busy: usize,
}

/// The `server.*` and remotely visible `runtime.*` metrics of one run.
pub fn wire_layer(
    end: &WireEnd,
    producer: ProducerCounts,
    events: usize,
    secs: f64,
    shards: usize,
    layer: &mut Layer,
) {
    let n = events as f64;
    let stat = |name: &str| end.stats.get(name).unwrap_or(0) as f64;
    let prom = |name: &str| prom_total(&end.metrics_text, name);
    layer.insert("server.bytes_in_per_event", stat("bytes_in") / n);
    layer.insert(
        "server.bytes_out_per_output_event",
        stat("bytes_out") / stat("events_out").max(1.0),
    );
    layer.insert("server.client_ingest_ns_per_event", producer.ingest_ns as f64 / n);
    layer.insert("server.ingest_frames", producer.frames as f64);
    layer.insert("server.busy_replies", producer.busy as f64);
    layer.insert("server.credit_stalls", stat("credit_stalls"));
    layer.insert("server.decode_errors", stat("decode_errors"));
    let kernels = prom("tilt_kernels_run_total");
    layer.insert("runtime.kernels_run", kernels);
    layer.insert("runtime.events_per_kernel_run", n / kernels.max(1.0));
    layer.insert(
        "runtime.kernel_busy_frac",
        (prom("tilt_advance_ns_sum") + prom("tilt_flush_ns_sum")) / 1e9 / (secs * shards as f64),
    );
    layer.insert("runtime.reorder_buffered", prom("tilt_reorder_buffered_total"));
    layer.insert("runtime.late_dropped", stat("late_dropped"));
    layer.insert("runtime.evictions", stat("evictions"));
    layer.insert("runtime.revivals", stat("revivals"));
    layer.insert("runtime.live_keys_end", stat("live_keys"));
    layer.insert("runtime.conservation_balance", stat("conservation_balance"));
}

/// Per-key output in canonical form — time-ordered, adjacent events with the
/// same value merged — which is what `tilt_data::streams_equivalent`
/// compares, on the numeric rows both the sink and the subscriber keep.
pub fn canonical(rows: &[Row]) -> BTreeMap<u64, Vec<(i64, i64, u64)>> {
    let mut per_key: BTreeMap<u64, Vec<(i64, i64, u64)>> = BTreeMap::new();
    for r in rows {
        per_key.entry(r.key).or_default().push((r.start, r.end, r.value.to_bits()));
    }
    for events in per_key.values_mut() {
        events.sort_unstable();
        let mut merged: Vec<(i64, i64, u64)> = Vec::with_capacity(events.len());
        for &(start, end, bits) in events.iter() {
            match merged.last_mut() {
                Some(last) if last.1 == start && last.2 == bits => last.1 = end,
                _ => merged.push((start, end, bits)),
            }
        }
        *events = merged;
    }
    per_key
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_totals_sum_label_sets_and_ignore_longer_names() {
        let text = "# TYPE tilt_kernels_run_total counter\n\
                    tilt_kernels_run_total 12\n\
                    tilt_query_kernel_millis_total{query=\"0\"} 5\n\
                    tilt_query_kernel_millis_total{query=\"1\"} 7\n\
                    tilt_kernels_run_total_extra 99\n";
        assert_eq!(prom_total(text, "tilt_kernels_run_total"), 12.0);
        assert_eq!(prom_total(text, "tilt_query_kernel_millis_total"), 12.0);
        assert_eq!(prom_total(text, "absent"), 0.0);
    }

    #[test]
    fn canonical_form_merges_equal_neighbours_whatever_the_framing() {
        let row = |key, start, end, value| Row { key, start, end, value, recv_ns: 0 };
        let split =
            [row(1, 0, 10, 3.0), row(1, 10, 20, 3.0), row(2, 0, 10, 1.0), row(1, 20, 30, 4.0)];
        let whole = [row(2, 0, 10, 1.0), row(1, 20, 30, 4.0), row(1, 0, 20, 3.0)];
        assert_eq!(canonical(&split), canonical(&whole));
        let other = [row(2, 0, 10, 1.0), row(1, 20, 30, 4.0), row(1, 0, 20, 3.5)];
        assert_ne!(canonical(&split), canonical(&other));
    }
}
