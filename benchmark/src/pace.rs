//! The open-loop schedule of the paced workload.
//!
//! Batch `i` is due at `start + i × period`, whatever happened to the
//! batches before it. A generator that was stalled sends the overdue batches
//! back to back without sleeping, and every event keeps its *due* time as
//! its creation time — so a stall shows up as latency on everything queued
//! behind it instead of silently lowering the offered rate (coordinated
//! omission).

use std::time::{Duration, Instant};

/// What the generator does next, decided from two clock readings only so the
/// rule can be tested without sleeping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// Not due yet: wait this many nanoseconds, then look again.
    Wait(u64),
    /// Due (or overdue by `late_ns`): send now.
    Send {
        /// How far behind its due time the send starts.
        late_ns: u64,
    },
}

/// A fixed-period schedule in nanoseconds since its start.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    /// Nanoseconds between consecutive batches.
    pub period_ns: u64,
}

impl Schedule {
    /// When batch `i` is due. Depends on `i` alone — never on when earlier
    /// batches were actually sent.
    pub fn due_ns(&self, i: u64) -> u64 {
        i * self.period_ns
    }

    /// The next step for batch `i` at time `now_ns`.
    pub fn step(&self, i: u64, now_ns: u64) -> Step {
        let due = self.due_ns(i);
        if now_ns < due {
            Step::Wait(due - now_ns)
        } else {
            Step::Send { late_ns: now_ns - due }
        }
    }
}

/// Blocks until batch `i` of `schedule` (started at `start`) is due and
/// returns how late the send begins. Sleeps for the bulk of a wait and spins
/// through the last 150 µs: a sleep alone — or yielding, on a machine whose
/// cores the system under test keeps busy — wakes up to a millisecond late
/// several times in a hundred, a spin alone would take a whole core from the
/// system under test; this takes about a seventh of one.
pub fn wait_until_due(schedule: &Schedule, start: Instant, i: u64) -> u64 {
    const SPIN_WINDOW_NS: u64 = 150_000;
    loop {
        match schedule.step(i, start.elapsed().as_nanos() as u64) {
            Step::Send { late_ns } => return late_ns,
            Step::Wait(ns) if ns > SPIN_WINDOW_NS => {
                std::thread::sleep(Duration::from_nanos(ns - SPIN_WINDOW_NS));
            }
            Step::Wait(_) => std::hint::spin_loop(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_come_from_the_schedule_not_from_earlier_sends() {
        let s = Schedule { period_ns: 1_000_000 };
        assert_eq!(s.step(0, 0), Step::Send { late_ns: 0 });
        assert_eq!(s.step(1, 400_000), Step::Wait(600_000));
        // Batch 3 was stalled until t = 7.5 ms: it is 4.5 ms late, and the
        // batches behind it are overdue too — they go out at once, each
        // timed from its own due time, and the schedule does not shift.
        assert_eq!(s.step(3, 7_500_000), Step::Send { late_ns: 4_500_000 });
        assert_eq!(s.step(4, 7_600_000), Step::Send { late_ns: 3_600_000 });
        assert_eq!(s.step(7, 7_900_000), Step::Send { late_ns: 900_000 });
        // Caught up: batch 8 waits for its own due time again.
        assert_eq!(s.step(8, 7_950_000), Step::Wait(50_000));
        assert_eq!(s.due_ns(8), 8_000_000);
    }

    #[test]
    fn waiting_returns_at_or_after_the_due_time() {
        let s = Schedule { period_ns: 2_000_000 };
        let start = Instant::now();
        let late = wait_until_due(&s, start, 3);
        let now = start.elapsed().as_nanos() as u64;
        assert!(now >= s.due_ns(3));
        assert!(late <= now - s.due_ns(3));
        // Already overdue: returns immediately with the lateness.
        assert!(wait_until_due(&s, start, 0) >= now);
    }
}
