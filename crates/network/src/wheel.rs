//! A hierarchical timing wheel: the per-lane message queue of the simulator.
//!
//! The engine schedules millions of events whose timestamps cluster tightly
//! around the current simulated time (message latencies are microseconds to
//! milliseconds). A binary heap pays O(log n) per event on that workload; a
//! timing wheel pays amortised O(1) for the dense near-future band and parks
//! a far-future tail in a heap until its window comes around. The wheel
//! cannot remove an entry before it is due, so actor timers — mostly
//! cancelled long before they would fire — wait in the lane's own timer set
//! instead (see [`crate::sim`]).
//!
//! The wheel has three levels of 256 slots each, with slot granularities of
//! 2⁴ µs (≈16 µs), 2¹² µs (≈4 ms) and 2²⁰ µs (≈1 s); events beyond the
//! ≈268 s horizon of level 2 overflow into a [`BinaryHeap`]. When the
//! cursor crosses into a higher-level slot, that slot's events cascade down
//! one level, so every event is eventually drained from level 0 in exact
//! `(at, key)` order.
//!
//! **Determinism contract:** events pop in strictly ascending
//! `(at, key)` order, where `key = (source rank, per-source sequence)`.
//! This total order is what makes the parallel scheduler's merge of
//! per-cluster queues bit-identical to the sequential engine.

use sharper_common::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Tie-break key for events that share a timestamp: the stable rank of the
/// event's source actor and the source's own event sequence number. Unique
/// per event, totally ordered, and computable without global coordination —
/// which is what lets independent lanes agree on merge order.
pub type EventKey = (u64, u64);

const SLOTS: usize = 256;
/// Bit shifts of the three slot granularities (µs): 16 µs, 4096 µs, ~1.05 s.
const SHIFT: [u32; 3] = [4, 12, 20];
/// Exclusive window span of each level (µs): 4096 µs, ~1.05 s, ~268 s.
const SPAN: [u64; 3] = [1 << 12, 1 << 20, 1 << 28];

#[derive(Debug)]
struct Entry<T> {
    at: u64,
    key: EventKey,
    value: T,
}

impl<T> Entry<T> {
    fn ord_key(&self) -> (u64, EventKey) {
        (self.at, self.key)
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.ord_key() == other.ord_key()
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed so the overflow BinaryHeap is a min-heap on (at, key).
        other.ord_key().cmp(&self.ord_key())
    }
}

/// A three-level hierarchical timing wheel with a heap fallback for events
/// beyond its ≈268 s horizon.
///
/// `push` clamps nothing and never reorders: an event pushed at or after the
/// wheel's current position pops in exact `(at, key)` order relative to every
/// other pending event. Pushing an event earlier than the last popped
/// position is a caller bug (events never travel into the past) and panics
/// in debug builds.
#[derive(Debug)]
pub struct EventWheel<T> {
    levels: [Vec<Vec<Entry<T>>>; 3],
    counts: [usize; 3],
    /// Start of each level's current valid window (absolute µs, aligned to
    /// the level's span for level 0/1 resets via cascade).
    window_start: [u64; 3],
    /// Next slot index to scan within each level's window.
    scan: [usize; 3],
    overflow: BinaryHeap<Entry<T>>,
    /// The due-run currently being drained, sorted descending by `(at, key)`
    /// so `Vec::pop` yields ascending order.
    current: Vec<Entry<T>>,
    /// Exclusive end (µs) of the region already materialised into `current`;
    /// a push below this bound inserts into `current` directly.
    run_end: u64,
    len: usize,
}

impl<T> Default for EventWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventWheel<T> {
    /// Creates an empty wheel positioned at time zero.
    pub fn new() -> Self {
        let mk = || (0..SLOTS).map(|_| Vec::new()).collect::<Vec<_>>();
        Self {
            levels: [mk(), mk(), mk()],
            counts: [0; 3],
            window_start: [0; 3],
            scan: [0; 3],
            overflow: BinaryHeap::new(),
            current: Vec::new(),
            run_end: 0,
            len: 0,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `value` at `(at, key)`.
    pub fn push(&mut self, at: SimTime, key: EventKey, value: T) {
        let at = at.as_micros();
        let entry = Entry { at, key, value };
        self.len += 1;
        if at < self.run_end {
            // The slot covering `at` was already materialised; keep `current`
            // sorted descending so `pop` still yields ascending order.
            let ord = entry.ord_key();
            let idx = self.current.partition_point(|e| e.ord_key() > ord);
            self.current.insert(idx, entry);
            return;
        }
        for level in 0..3 {
            if at < self.window_start[level] + SPAN[level] {
                debug_assert!(
                    at >= self.window_start[level],
                    "event scheduled in the past"
                );
                let slot = ((at >> SHIFT[level]) as usize) & (SLOTS - 1);
                self.levels[level][slot].push(entry);
                self.counts[level] += 1;
                return;
            }
        }
        self.overflow.push(entry);
    }

    /// The `(at, key)` of the earliest pending event, if any. May cascade
    /// internally (hence `&mut`), but never drops or reorders events.
    pub fn peek(&mut self) -> Option<(SimTime, EventKey)> {
        self.refill();
        self.current
            .last()
            .map(|e| (SimTime::from_micros(e.at), e.key))
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_at(&mut self) -> Option<SimTime> {
        self.peek().map(|(at, _)| at)
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<(SimTime, EventKey, T)> {
        self.refill();
        let entry = self.current.pop()?;
        self.len -= 1;
        Some((SimTime::from_micros(entry.at), entry.key, entry.value))
    }

    /// Ensures `current` holds the next due-run if any event is pending.
    fn refill(&mut self) {
        if !self.current.is_empty() || self.len == 0 {
            return;
        }
        loop {
            if self.counts[0] > 0 {
                for slot in self.scan[0]..SLOTS {
                    if self.levels[0][slot].is_empty() {
                        continue;
                    }
                    let mut run = std::mem::take(&mut self.levels[0][slot]);
                    self.counts[0] -= run.len();
                    run.sort_unstable_by_key(|e| std::cmp::Reverse(e.ord_key()));
                    self.current = run;
                    self.scan[0] = slot + 1;
                    self.run_end = self.window_start[0] + ((slot as u64 + 1) << SHIFT[0]);
                    return;
                }
                unreachable!("level-0 count is positive but every slot is empty");
            }
            if self.counts[1] > 0 {
                let slot = (self.scan[1]..SLOTS)
                    .find(|&s| !self.levels[1][s].is_empty())
                    .expect("level-1 count is positive");
                self.window_start[0] = self.window_start[1] + ((slot as u64) << SHIFT[1]);
                self.scan[0] = 0;
                self.cascade(1, slot);
                self.scan[1] = slot + 1;
                continue;
            }
            if self.counts[2] > 0 {
                let slot = (self.scan[2]..SLOTS)
                    .find(|&s| !self.levels[2][s].is_empty())
                    .expect("level-2 count is positive");
                self.window_start[1] = self.window_start[2] + ((slot as u64) << SHIFT[2]);
                self.scan[1] = 0;
                self.cascade(2, slot);
                self.scan[2] = slot + 1;
                continue;
            }
            // Heap fallback: re-anchor the top level at the earliest far-
            // future event and pull everything within its window back in.
            let earliest = self.overflow.peek().expect("len > 0").at;
            self.window_start[2] = earliest & !(SPAN[2] - 1);
            self.scan[2] = 0;
            let horizon = self.window_start[2] + SPAN[2];
            while self.overflow.peek().is_some_and(|e| e.at < horizon) {
                let e = self.overflow.pop().expect("peeked");
                let slot = ((e.at >> SHIFT[2]) as usize) & (SLOTS - 1);
                self.levels[2][slot].push(e);
                self.counts[2] += 1;
            }
        }
    }

    /// Moves every event of `levels[level][slot]` one level down.
    fn cascade(&mut self, level: usize, slot: usize) {
        let entries = std::mem::take(&mut self.levels[level][slot]);
        self.counts[level] -= entries.len();
        for e in entries {
            let lower = level - 1;
            let idx = ((e.at >> SHIFT[lower]) as usize) & (SLOTS - 1);
            self.levels[lower][idx].push(e);
            self.counts[lower] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<T>(wheel: &mut EventWheel<T>) -> Vec<(u64, EventKey)> {
        let mut out = Vec::new();
        while let Some((at, key, _)) = wheel.pop() {
            out.push((at.as_micros(), key));
        }
        out
    }

    #[test]
    fn pops_in_at_then_key_order() {
        let mut w: EventWheel<&str> = EventWheel::new();
        w.push(SimTime::from_micros(50), (2, 0), "c");
        w.push(SimTime::from_micros(10), (1, 1), "b");
        w.push(SimTime::from_micros(10), (1, 0), "a");
        w.push(SimTime::from_micros(10), (0, 7), "first");
        assert_eq!(w.len(), 4);
        assert_eq!(w.peek(), Some((SimTime::from_micros(10), (0, 7))));
        let order = drain(&mut w);
        assert_eq!(
            order,
            vec![(10, (0, 7)), (10, (1, 0)), (10, (1, 1)), (50, (2, 0))]
        );
        assert!(w.is_empty());
    }

    #[test]
    fn far_future_events_take_the_heap_fallback_and_come_back() {
        let mut w: EventWheel<u32> = EventWheel::new();
        // Beyond level 2's ~268 s horizon: a 10-minute retransmission timer.
        w.push(SimTime::from_secs(600), (0, 1), 1);
        w.push(SimTime::from_micros(5), (0, 0), 0);
        // ~80 s: lands in level 2 directly.
        w.push(SimTime::from_secs(80), (0, 2), 2);
        assert_eq!(w.overflow.len(), 1);
        let order = drain(&mut w);
        assert_eq!(
            order,
            vec![
                (5, (0, 0)),
                (80 * 1_000_000, (0, 2)),
                (600 * 1_000_000, (0, 1))
            ]
        );
    }

    #[test]
    fn interleaved_push_pop_preserves_order() {
        let mut w: EventWheel<u64> = EventWheel::new();
        w.push(SimTime::from_micros(100), (0, 0), 0);
        w.push(SimTime::from_micros(300), (0, 1), 1);
        assert_eq!(w.pop().unwrap().0, SimTime::from_micros(100));
        // Pushed into the already-materialised run region and beyond it.
        w.push(SimTime::from_micros(105), (0, 2), 2);
        w.push(SimTime::from_micros(200), (0, 3), 3);
        let order = drain(&mut w);
        assert_eq!(order, vec![(105, (0, 2)), (200, (0, 3)), (300, (0, 1))]);
    }

    #[test]
    fn matches_a_reference_heap_on_a_randomised_workload() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let mut wheel: EventWheel<usize> = EventWheel::new();
        let mut reference: Vec<(u64, EventKey)> = Vec::new();
        let mut now = 0u64;
        let mut seq = 0u64;
        let mut popped = Vec::new();
        for round in 0..2_000 {
            // Pushes relative to the current position, spanning all levels
            // and the overflow heap.
            for _ in 0..rng.gen_range(0u32..4) {
                let delta: u64 = match rng.gen_range(0u32..10) {
                    0..=5 => rng.gen_range(0u64..4_000),             // level 0
                    6..=7 => rng.gen_range(4_000u64..1_000_000),     // level 1
                    8 => rng.gen_range(1_000_000u64..200_000_000),   // level 2
                    _ => rng.gen_range(200_000_000u64..400_000_000), // overflow
                };
                let at = now + delta;
                let key = (rng.gen_range(0..4), seq);
                seq += 1;
                wheel.push(SimTime::from_micros(at), key, round);
                reference.push((at, key));
            }
            if rng.gen_bool(0.7) {
                if let Some((at, key, _)) = wheel.pop() {
                    now = at.as_micros();
                    popped.push((now, key));
                }
            }
        }
        popped.extend(drain(&mut wheel));
        reference.sort_unstable();
        assert_eq!(popped, reference);
        assert!(popped.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn len_tracks_push_and_pop() {
        let mut w: EventWheel<()> = EventWheel::new();
        assert!(w.is_empty());
        assert_eq!(w.pop().map(|(at, ..)| at), None);
        for i in 0..10 {
            w.push(SimTime::from_micros(i * 1_000), (0, i), ());
        }
        assert_eq!(w.len(), 10);
        w.pop();
        assert_eq!(w.len(), 9);
    }
}
