//! Spans around every call the benchmark makes into a layer.
//!
//! A span is `{name, start_ns, end_ns, parent, req}` where `req` names the
//! round and batch that caused it. Each benchmark thread records into its own
//! pre-allocated [`Lane`] (no lock, no allocation while timing); lanes are
//! merged into one [`Trace`] when the run ends. With tracing off a lane only
//! forwards the call, so the untraced run — the one every end-to-end number
//! comes from — pays one branch per call.
//!
//! Spans are recorded from the benchmark's side of each public function.
//! Time spent inside a layer that no caller can see (queue wait, reorder
//! insert, output slicing) is not split further; that needs stage timers
//! inside the crates, which this benchmark does not add.

use std::collections::BTreeMap;
use std::time::Instant;

use tilt_obs::json::Json;

/// A span's position in the merged trace, or in its lane before merging.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId {
    lane: u16,
    idx: u32,
}

/// One timed call into a layer.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// `layer.function`, e.g. `core.exec.run`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Round of the workload this span belongs to.
    pub round: u32,
    /// Batch (chunk, partition, app) within the round.
    pub batch: u32,
}

/// The shared clock and on/off switch.
#[derive(Clone, Copy, Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
}

impl Tracer {
    /// A tracer; `on = false` makes every lane a pass-through.
    pub fn new(on: bool) -> Tracer {
        Tracer { on, epoch: Instant::now() }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A lane for one thread, holding at most `capacity` spans; further
    /// spans are counted in [`Trace::dropped`] instead of growing the
    /// vector inside a timed region.
    pub fn lane(&self, lane: u16, capacity: usize) -> Lane {
        Lane {
            tracer: *self,
            lane,
            spans: Vec::with_capacity(if self.on { capacity } else { 0 }),
            open: Vec::with_capacity(8),
            adopted: None,
            round: 0,
            dropped: 0,
        }
    }
}

/// The two lanes of a driving thread whose rounds alternate between plain and
/// traced: `(quiet, loud)`. The quiet lane never records; the loud one
/// records when `traced` is set.
pub fn lane_pair(traced: bool) -> (Lane, Lane) {
    (Tracer::new(false).lane(0, 0), Tracer::new(traced).lane(0, 1 << 16))
}

/// One thread's span buffer.
#[derive(Debug)]
pub struct Lane {
    tracer: Tracer,
    lane: u16,
    spans: Vec<Span>,
    open: Vec<u32>,
    adopted: Option<SpanId>,
    round: u32,
    dropped: u64,
}

impl Lane {
    /// Sets the round stamped on subsequent spans.
    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    /// Makes `parent` (a span of another lane) the parent of this lane's
    /// outermost spans: the round span on the driving thread causes the
    /// partition spans on the workers.
    pub fn adopt(&mut self, parent: Option<SpanId>) {
        self.adopted = parent;
    }

    /// The innermost open span, for handing to [`Lane::adopt`].
    pub fn current(&self) -> Option<SpanId> {
        self.open.last().map(|&idx| SpanId { lane: self.lane, idx })
    }

    /// Runs `f` inside a span.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, batch: u32, f: impl FnOnce(&mut Lane) -> R) -> R {
        if !self.tracer.on {
            return f(self);
        }
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return f(self);
        }
        let idx = self.spans.len() as u32;
        let parent = self.current().or(self.adopted);
        self.spans.push(Span {
            name,
            start_ns: self.tracer.now_ns(),
            end_ns: 0,
            parent,
            round: self.round,
            batch,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx as usize].end_ns = self.tracer.now_ns();
        out
    }
}

/// Self time and call count of one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotals {
    /// Calls.
    pub calls: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration minus what child spans cover.
    pub self_ns: u64,
}

/// All lanes of a run, merged.
#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
    offsets: BTreeMap<u16, u32>,
    /// Spans not recorded because a lane was full.
    pub dropped: u64,
}

impl Trace {
    /// Merges lanes. Span parents keep pointing at the right span: a
    /// [`SpanId`] resolves through the lane's offset in the merged vector.
    pub fn merge(lanes: Vec<Lane>) -> Trace {
        let mut trace = Trace::default();
        for lane in lanes {
            assert!(lane.open.is_empty(), "lane {} merged with a span still open", lane.lane);
            let at = trace.spans.len() as u32;
            assert!(trace.offsets.insert(lane.lane, at).is_none(), "lane ids are unique");
            trace.spans.extend(lane.spans);
            trace.dropped += lane.dropped;
        }
        trace
    }

    /// The merged spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn index(&self, id: SpanId) -> Option<usize> {
        self.offsets.get(&id.lane).map(|at| (*at + id.idx) as usize)
    }

    /// Per-name totals. A span's self time is its duration minus the part of
    /// its interval that its direct children cover — the union of their
    /// intervals, clipped to the parent, so children running concurrently on
    /// several worker lanes are not subtracted twice.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent.and_then(|id| self.index(id)) {
                let (lo, hi) = (self.spans[p].start_ns, self.spans[p].end_ns);
                let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
                if b > a {
                    children[p].push((a, b));
                }
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&mut children) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.total_ns += dur;
            t.self_ns += dur - covered(kids);
        }
        out
    }

    /// Self time of `name` in nanoseconds (0 when never called).
    pub fn self_ns(&self, name: &str) -> u64 {
        self.totals().get(name).map_or(0, |t| t.self_ns)
    }

    /// The trace as JSON: `{"workload", "dropped", "spans": [{name, start_ns,
    /// end_ns, parent, req: {workload, round, batch}}]}` with `parent` an
    /// index into `spans` or null.
    pub fn to_json(&self, workload: &str) -> Json {
        let spans: Vec<Json> = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", s.name.into()),
                    ("start_ns", s.start_ns.into()),
                    ("end_ns", s.end_ns.into()),
                    (
                        "parent",
                        s.parent.and_then(|id| self.index(id)).map_or(Json::Null, Json::from),
                    ),
                    (
                        "req",
                        Json::obj([
                            ("workload", workload.into()),
                            ("round", u64::from(s.round).into()),
                            ("batch", u64::from(s.batch).into()),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("workload", workload.into()),
            ("dropped", self.dropped.into()),
            ("spans", Json::Arr(spans)),
        ])
    }
}

/// Length of the union of `intervals` (sorted in place).
fn covered(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = 0;
    for &(a, b) in intervals.iter() {
        let a = a.max(reach);
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span { name, start_ns, end_ns, parent, round: 0, batch: 0 }
    }

    fn lane_of(lane: u16, spans: Vec<Span>) -> Lane {
        let mut l = Tracer::new(true).lane(lane, spans.len());
        l.spans = spans;
        l
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let root = SpanId { lane: 0, idx: 0 };
        // round [0,100) on lane 0 with a nested child [10,30);
        // two workers overlap on [40,70) and [60,90): union 50, not 60;
        // a child leaking past the parent's end is clipped.
        let main = lane_of(0, vec![span("round", 0, 100, None), span("setup", 10, 30, Some(root))]);
        let w1 = lane_of(1, vec![span("run", 40, 70, Some(root))]);
        let w2 =
            lane_of(2, vec![span("run", 60, 90, Some(root)), span("run", 95, 120, Some(root))]);
        let trace = Trace::merge(vec![main, w1, w2]);
        let totals = trace.totals();
        assert_eq!(totals["round"], NameTotals { calls: 1, total_ns: 100, self_ns: 100 - 20 - 55 });
        assert_eq!(totals["run"], NameTotals { calls: 3, total_ns: 85, self_ns: 85 });
        assert_eq!(trace.self_ns("setup"), 20);
        assert_eq!(trace.self_ns("never"), 0);
    }

    #[test]
    fn lanes_nest_adopt_and_stay_silent_when_off() {
        let tracer = Tracer::new(true);
        let mut main = tracer.lane(0, 4);
        let mut worker = tracer.lane(1, 1);
        main.set_round(3);
        main.span("outer", 7, |l| {
            worker.adopt(l.current());
            worker.span("work", 1, |_| ());
            worker.span("overflow", 2, |_| ());
            l.span("inner", 8, |_| ());
        });
        let trace = Trace::merge(vec![main, worker]);
        assert_eq!(trace.dropped, 1);
        let names: Vec<_> = trace.spans().iter().map(|s| s.name).collect();
        assert_eq!(names, ["outer", "inner", "work"]);
        let outer = Some(SpanId { lane: 0, idx: 0 });
        assert_eq!(trace.spans()[1].parent, outer);
        assert_eq!(trace.spans()[2].parent, outer);
        assert_eq!((trace.spans()[0].round, trace.spans()[0].batch), (3, 7));
        let json = trace.to_json("w").to_string();
        let parsed = tilt_obs::json::parse(&json).expect("trace JSON parses");
        let spans = parsed.get("spans").and_then(Json::as_arr).expect("spans array");
        assert_eq!(spans[2].get("parent").and_then(Json::as_i64), Some(0));
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));

        let mut off = Tracer::new(false).lane(0, 1024);
        assert_eq!(off.span("x", 0, |_| 5), 5);
        assert!(Trace::merge(vec![off]).spans().is_empty());
    }
}
