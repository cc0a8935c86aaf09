//! A deterministic pending-event set.
//!
//! [`EventQueue`] orders events by `(time, sequence number)` so that two
//! events scheduled for the same instant pop in insertion order. This keeps
//! simulations reproducible regardless of queue internals.
//!
//! The queue is a bucketed calendar queue (a timing wheel with an overflow
//! level) rather than a binary heap: events landing inside the wheel's
//! sliding window go straight into a coarse time bucket, and a bucket is
//! sorted only once, when the wheel reaches it. In steady state — where
//! events are scheduled a short, bounded horizon ahead of the cursor, as
//! the simulator's slice/arrival/monitor events are — both `schedule` and
//! `pop` reuse long-lived buffers and allocate nothing.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::VecDeque;

/// A scheduled event: a payload tagged with its due time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event<T> {
    /// When the event fires.
    pub time: SimTime,
    /// Monotonic insertion index; breaks ties at equal times.
    pub seq: u64,
    /// The user payload.
    pub payload: T,
}

// Reversed `(time, seq)` order so the soonest event is the maximum: kept
// for callers (and the equivalence tests) that put events in a max-heap.
// The queue itself no longer relies on it.
impl<T: Eq> Ord for Event<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<T: Eq> PartialOrd for Event<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Number of buckets in the wheel's sliding window.
const NUM_BUCKETS: usize = 64;
/// Width of one bucket in nanoseconds (1 ms — the simulator's natural
/// event spacing is slice boundaries and monitor windows in the
/// millisecond range).
const BUCKET_WIDTH_NS: u64 = 1_000_000;

/// A time-ordered queue of simulation events.
///
/// Three levels, nearest first:
///
/// - `near`: events before the wheel origin, sorted ascending by
///   `(time, seq)` and drained from the front;
/// - `buckets`: `NUM_BUCKETS` unsorted buckets of width
///   `BUCKET_WIDTH_NS`; bucket `i` covers times in
///   `[origin + i·w, origin + (i+1)·w)`;
/// - `overflow`: unsorted events at or past the wheel end.
///
/// When `near` runs dry the wheel advances to its first non-empty bucket,
/// sorts it into `near`, rotates the drained buckets to the back (keeping
/// their capacity), and pulls newly in-window overflow events into the
/// wheel. When the whole wheel is empty it jumps directly to the earliest
/// overflow time.
///
/// ```
/// use avfs_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(2), "b");
/// q.schedule(SimTime::from_secs(1), "a");
/// q.schedule(SimTime::from_secs(2), "c");
/// let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
/// assert_eq!(order, ["a", "b", "c"]); // FIFO among same-time events
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<T: Eq> {
    near: VecDeque<Event<T>>,
    buckets: Vec<Vec<Event<T>>>,
    overflow: Vec<Event<T>>,
    /// Wheel origin: exclusive upper bound on times stored in `near`,
    /// inclusive lower bound of bucket 0.
    origin_ns: u64,
    len: usize,
    next_seq: u64,
}

impl<T: Eq> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            near: VecDeque::new(),
            buckets: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            overflow: Vec::new(),
            origin_ns: 0,
            len: 0,
            next_seq: 0,
        }
    }

    /// Schedules `payload` to fire at `time`. Returns the event's sequence
    /// number, which can be used to correlate with popped events.
    pub fn schedule(&mut self, time: SimTime, payload: T) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let ev = Event { time, seq, payload };
        let t = time.as_nanos();
        if t < self.origin_ns {
            // Late insert behind the wheel: merge into the sorted near
            // level. `seq` exceeds every stored seq, so the slot right
            // after the last equal-time event preserves FIFO.
            let pos = self.near.partition_point(|e| e.time.as_nanos() <= t);
            self.near.insert(pos, ev);
        } else {
            match Self::bucket_index(self.origin_ns, t) {
                Some(i) => self.buckets[i].push(ev),
                None => self.overflow.push(ev),
            }
        }
        self.len += 1;
        seq
    }

    /// Bucket index for time `t`, or `None` when `t` lies at or past the
    /// wheel end (overflow level).
    fn bucket_index(origin_ns: u64, t: u64) -> Option<usize> {
        let i = t.checked_sub(origin_ns)? / BUCKET_WIDTH_NS;
        (i < NUM_BUCKETS as u64).then_some(i as usize)
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<Event<T>> {
        while self.near.is_empty() {
            if !self.advance() {
                return None;
            }
        }
        self.len -= 1;
        self.near.pop_front()
    }

    /// Moves the next batch of events into `near`. Returns `false` when
    /// nothing is pending beyond `near`.
    fn advance(&mut self) -> bool {
        if let Some(b) = self.buckets.iter().position(|bk| !bk.is_empty()) {
            let mut drained = std::mem::take(&mut self.buckets[b]);
            drained.sort_unstable_by_key(|e| (e.time, e.seq));
            self.near.extend(drained.drain(..));
            // Hand the capacity back, then rotate the now-empty buckets
            // 0..=b to the back of the window and slide the origin past
            // them.
            self.buckets[b] = drained;
            self.origin_ns = self
                .origin_ns
                .saturating_add((b as u64 + 1) * BUCKET_WIDTH_NS);
            self.buckets.rotate_left(b + 1);
            self.pull_overflow();
            return true;
        }
        // The wheel is empty: jump the window to the earliest overflow
        // event (if any), then let the caller loop into the bucket branch.
        let Some(min_t) = self.overflow.iter().map(|e| e.time.as_nanos()).min() else {
            return false;
        };
        self.origin_ns = min_t;
        self.pull_overflow();
        debug_assert!(!self.buckets[0].is_empty(), "jump lands in bucket 0");
        true
    }

    /// Moves overflow events that now fall inside the wheel window into
    /// their buckets. Order within overflow is irrelevant: buckets are
    /// sorted by `(time, seq)` when drained.
    fn pull_overflow(&mut self) {
        let mut i = 0;
        while i < self.overflow.len() {
            let t = self.overflow[i].time.as_nanos();
            match Self::bucket_index(self.origin_ns, t) {
                Some(b) => {
                    let ev = self.overflow.swap_remove(i);
                    self.buckets[b].push(ev);
                }
                None => i += 1,
            }
        }
    }

    /// The due time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        // Levels are disjoint time ranges: everything in `near` precedes
        // every bucket, buckets precede each other in index order, and
        // overflow lies past the wheel end.
        if let Some(e) = self.near.front() {
            return Some(e.time);
        }
        if let Some(bk) = self.buckets.iter().find(|bk| !bk.is_empty()) {
            return bk.iter().map(|e| e.time).min();
        }
        self.overflow.iter().map(|e| e.time).min()
    }

    /// Removes and returns the earliest event only if it is due at or before
    /// `now`.
    pub fn pop_due(&mut self, now: SimTime) -> Option<Event<T>> {
        match self.peek_time() {
            Some(t) if t <= now => self.pop(),
            _ => None,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops all pending events (sequence numbering continues).
    pub fn clear(&mut self) {
        self.near.clear();
        for bk in &mut self.buckets {
            bk.clear();
        }
        self.overflow.clear();
        self.origin_ns = 0;
        self.len = 0;
    }
}

impl<T: Eq> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Eq> Extend<(SimTime, T)> for EventQueue<T> {
    fn extend<I: IntoIterator<Item = (SimTime, T)>>(&mut self, iter: I) {
        for (time, payload) in iter {
            self.schedule(time, payload);
        }
    }
}

impl<T: Eq> FromIterator<(SimTime, T)> for EventQueue<T> {
    fn from_iter<I: IntoIterator<Item = (SimTime, T)>>(iter: I) -> Self {
        let mut q = EventQueue::new();
        q.extend(iter);
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), 3u32);
        q.schedule(SimTime::from_secs(1), 1);
        q.schedule(SimTime::from_secs(2), 2);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, [1, 2, 3]);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(7);
        for i in 0..100u32 {
            q.schedule(t, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), "late");
        q.schedule(SimTime::from_secs(1), "early");
        assert_eq!(
            q.pop_due(SimTime::from_secs(2)).map(|e| e.payload),
            Some("early")
        );
        assert_eq!(q.pop_due(SimTime::from_secs(2)), None);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn collect_from_iterator() {
        let q: EventQueue<u8> = [(SimTime::from_secs(1), 1u8), (SimTime::ZERO, 0)]
            .into_iter()
            .collect();
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::ZERO));
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO, 1u8);
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn late_insert_behind_the_wheel_pops_next() {
        let mut q = EventQueue::new();
        // Advance the wheel well past 1 ms...
        q.schedule(SimTime::from_millis(40), "far");
        assert_eq!(q.pop().map(|e| e.payload), Some("far"));
        // ...then schedule behind the origin: it must still pop first.
        q.schedule(SimTime::from_millis(50), "next");
        q.schedule(SimTime::from_millis(1), "behind");
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(1)));
        assert_eq!(q.pop().map(|e| e.payload), Some("behind"));
        assert_eq!(q.pop().map(|e| e.payload), Some("next"));
    }

    #[test]
    fn overflow_interleaves_with_bucket_events() {
        let mut q = EventQueue::new();
        // Past the initial 64 ms window: overflow level.
        q.schedule(SimTime::from_millis(100), 100u32);
        q.schedule(SimTime::from_secs(3), 3000);
        // In-window events.
        q.schedule(SimTime::from_millis(5), 5);
        q.schedule(SimTime::from_millis(70), 70);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, [5, 70, 100, 3000]);
    }
}
