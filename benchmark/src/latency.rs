//! Which input event lets a result out, and when that event was handed over.
//!
//! The result ending at `e` can be final once the watermark — the newest
//! event *start* seen minus the allowed lateness — reaches `e`: nothing that
//! may still arrive can change it. Its latency is therefore counted from the
//! hand-over of the first arrival whose start is at least `e + lateness`. It
//! excludes the window length and the lateness hold, and includes queueing,
//! reordering, kernel execution, the sink or the wire, any stall the
//! generator suffered, and any further hold the service adds before it lets
//! the result out.
//!
//! YSB and the Zipf stream carry one event per tick (event `i` in time order
//! covers `(i, i + 1]`), so for in-order arrival the trigger of `e` is simply
//! arrival index `e + lateness`; a unit test in `workloads::ysb_service_sat`
//! pins that against a real service fed one event per batch: no result comes
//! out before its trigger went in.

/// For every multiple of `step` up to the stream's extent, the arrival index
/// of the first event whose start reaches it plus the allowed lateness.
#[derive(Clone, Debug)]
pub struct Triggers {
    step: i64,
    /// `first[k]` = first arrival index with `start >= k × step + lateness`.
    first: Vec<u32>,
}

impl Triggers {
    /// Scans event starts in arrival order. `step` is the output grid (the
    /// window length for tumbling windows, 1 for every-tick output).
    ///
    /// # Panics
    ///
    /// Panics when `step < 1` or more than `u32::MAX` events arrive.
    pub fn build(
        starts_in_arrival_order: impl IntoIterator<Item = i64>,
        step: i64,
        lateness: i64,
    ) -> Triggers {
        assert!(step >= 1 && lateness >= 0, "trigger grid must be positive, lateness not negative");
        let mut first: Vec<u32> = Vec::new();
        for (i, start) in starts_in_arrival_order.into_iter().enumerate() {
            // Every grid point this start reaches that nobody reached
            // before is reached now.
            while (first.len() as i64) * step + lateness <= start {
                first.push(u32::try_from(i).expect("arrival index fits u32"));
            }
        }
        Triggers { step, first }
    }

    /// The arrival index whose hand-over releases the result ending at
    /// `end` (rounded up to the grid), or `None` when no event in the
    /// stream does — the result only comes out with the end-of-stream flush.
    pub fn trigger_of(&self, end: i64) -> Option<usize> {
        let k = (end.max(0) + self.step - 1) / self.step;
        self.first.get(k as usize).map(|i| *i as usize)
    }
}

/// Turns `(result end, receive time)` pairs into latency samples: receive
/// time minus the hand-over time of the chunk holding the trigger event.
/// Only results whose trigger chunk was handed over within `handed_over`
/// count (which cuts a warm-up, or one second of a paced stream); results
/// without a trigger in the stream (the flush tail) give no sample. A result
/// that arrives before its trigger chunk was handed over is impossible under
/// the definition: it is counted and returned, and fails the run.
pub fn samples_ns(
    results: impl IntoIterator<Item = (i64, u64)>,
    triggers: &Triggers,
    chunk: usize,
    chunk_handover_ns: &[u64],
    handed_over: std::ops::Range<u64>,
) -> (Vec<u64>, u64) {
    let mut out = Vec::new();
    let mut impossible = 0;
    for (end, recv_ns) in results {
        let Some(idx) = triggers.trigger_of(end) else { continue };
        let Some(&sent_ns) = chunk_handover_ns.get(idx / chunk) else { continue };
        if !handed_over.contains(&sent_ns) {
            continue;
        }
        match recv_ns.checked_sub(sent_ns) {
            Some(ns) => out.push(ns),
            None => impossible += 1,
        }
    }
    (out, impossible)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_one_tick_per_event_is_a_fixed_offset() {
        // Event i starts at tick i.
        for lateness in [0, 26, 100] {
            let t = Triggers::build(0..1000, 100, lateness);
            for end in [100, 300, 800] {
                assert_eq!(t.trigger_of(end), Some((end + lateness) as usize));
            }
            // Nothing in the stream starts at or after 1000.
            assert_eq!(t.trigger_of(1000), None);
        }
        assert_eq!(Triggers::build(0..1000, 100, 101).trigger_of(900), None);
        // Every-tick grid.
        let t = Triggers::build(0..50, 1, 0);
        assert_eq!(t.trigger_of(17), Some(17));
        assert_eq!(t.trigger_of(49), Some(49));
        assert_eq!(t.trigger_of(50), None);
    }

    #[test]
    fn scrambled_arrival_uses_the_first_event_to_reach_the_mark() {
        // Starts arrive as 2 0 1 5 3 4 9 7: the running maximum reaches
        // 3, 4 and 5 at arrival 3, and 6..=9 at arrival 6.
        let starts = [2, 0, 1, 5, 3, 4, 9, 7];
        let t = Triggers::build(starts, 1, 0);
        assert_eq!(t.trigger_of(0), Some(0));
        assert_eq!(t.trigger_of(2), Some(0));
        assert_eq!(t.trigger_of(3), Some(3));
        assert_eq!(t.trigger_of(6), Some(6));
        assert_eq!(t.trigger_of(10), None);
        let t = Triggers::build(starts, 1, 2);
        assert_eq!(t.trigger_of(3), Some(3));
        assert_eq!(t.trigger_of(4), Some(6));
        assert_eq!(t.trigger_of(8), None);
    }

    #[test]
    fn samples_count_from_the_trigger_chunks_hand_over() {
        let t = Triggers::build(0..40, 10, 0);
        let handover = [1_000, 2_000, 3_000, 4_000]; // chunks of 10 events
                                                     // end 10 -> arrival 10 -> chunk 1; end 30 -> chunk 3; end 40 -> flush;
                                                     // end 20 -> chunk 2, received before it was handed over.
        let results = [(10, 2_500), (30, 4_100), (40, 9_000), (20, 2_900)];
        let (s, bad) = samples_ns(results, &t, 10, &handover, 0..u64::MAX);
        assert_eq!((s, bad), (vec![500, 100], 1));
        // Only results triggered within the window count.
        let (s, _) = samples_ns(results, &t, 10, &handover, 4_000..u64::MAX);
        assert_eq!(s, vec![100]);
        let (s, bad) = samples_ns(results, &t, 10, &handover, 0..3_000);
        assert_eq!((s, bad), (vec![500], 0));
    }
}
