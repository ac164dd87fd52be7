//! Modelled (simulated-time) metrics computed from a trace alone: what the
//! clients of a deployment saw. Everything here is a pure function of the
//! event stream, so for a given seed it repeats exactly.

use sharper_common::{SimTime, TraceEvent, TraceKind, TxId};
use std::collections::{BTreeMap, HashMap};

/// The measurement window of a run, in simulated microseconds.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Start of the window: the end of the warm-up.
    pub warmup: SimTime,
    /// End of the run.
    pub end: SimTime,
    /// The latency limit L a request has to complete within.
    pub limit_us: u64,
}

/// What the clients saw inside the window.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ClientView {
    /// Requests first submitted in `[warmup, end − L)`: each had at least L
    /// to complete before the run stopped.
    pub attempted: usize,
    /// Of those, the ones not completed within L; a request never answered
    /// is one of them.
    pub missed: usize,
    /// Submit → reply-quorum latencies of the requests completed in
    /// `[warmup, end)`, sorted, in simulated microseconds. This is the
    /// sample `LatencySummary` buckets; here it is exact.
    pub latencies_us: Vec<u64>,
}

impl ClientView {
    pub fn of(events: &[TraceEvent], window: Window) -> ClientView {
        let mut submitted: HashMap<TxId, SimTime> = HashMap::new();
        let mut completed: HashMap<TxId, SimTime> = HashMap::new();
        for e in events {
            match &e.kind {
                TraceKind::ClientSubmit { tx } => {
                    submitted.entry(*tx).or_insert(e.at);
                }
                TraceKind::ClientComplete { tx, .. } => {
                    completed.entry(*tx).or_insert(e.at);
                }
                _ => {}
            }
        }
        let mut view = ClientView::default();
        let accounting_end = SimTime(window.end.0.saturating_sub(window.limit_us));
        for (tx, &at) in &submitted {
            let done = completed.get(tx).copied();
            if at >= window.warmup && at < accounting_end {
                view.attempted += 1;
                let in_time =
                    done.is_some_and(|d| d.saturating_since(at).as_micros() <= window.limit_us);
                if !in_time {
                    view.missed += 1;
                }
            }
            if let Some(d) = done {
                if d >= window.warmup && d < window.end {
                    view.latencies_us.push(d.saturating_since(at).as_micros());
                }
            }
        }
        view.latencies_us.sort_unstable();
        view
    }

    /// Share of the attempted requests that missed the limit.
    pub fn missed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.missed as f64 / self.attempted as f64
        }
    }
}

/// Time without service: per cluster, the longest interval inside
/// `[warmup, end]` in which no replica of the cluster executed a block; the
/// maximum over the clusters, in simulated microseconds. `cluster_of` maps a
/// trace rank to the cluster of that replica (`None` for clients). A cluster
/// that executed nothing is without service for the whole window.
pub fn max_stall_us(
    events: &[TraceEvent],
    window: Window,
    clusters: u32,
    cluster_of: impl Fn(u64) -> Option<u32>,
) -> u64 {
    let mut last: Vec<SimTime> = vec![window.warmup; clusters as usize];
    let mut longest = vec![0u64; clusters as usize];
    for e in events {
        if !matches!(e.kind, TraceKind::Execute { .. }) || e.at < window.warmup || e.at > window.end
        {
            continue;
        }
        let Some(c) = cluster_of(e.rank).filter(|c| *c < clusters) else {
            continue;
        };
        let c = c as usize;
        longest[c] = longest[c].max(e.at.saturating_since(last[c]).as_micros());
        last[c] = e.at;
    }
    (0..clusters as usize)
        .map(|c| longest[c].max(window.end.saturating_since(last[c]).as_micros()))
        .max()
        .unwrap_or(0)
}

/// How long each shard reservation was held, in simulated microseconds,
/// sorted: acquire → release on the same replica. A reservation still held
/// when the run stops is counted up to `end`.
pub fn reservation_holds_us(events: &[TraceEvent], end: SimTime) -> Vec<u64> {
    let mut held: BTreeMap<u64, SimTime> = BTreeMap::new();
    let mut holds = Vec::new();
    for e in events {
        match e.kind {
            TraceKind::ReservationAcquire { .. } => {
                held.insert(e.rank, e.at);
            }
            TraceKind::ReservationRelease { .. } => {
                if let Some(since) = held.remove(&e.rank) {
                    holds.push(e.at.saturating_since(since).as_micros());
                }
            }
            _ => {}
        }
    }
    holds.extend(
        held.values()
            .map(|since| end.saturating_since(*since).as_micros()),
    );
    holds.sort_unstable();
    holds
}

/// Wasted cross-shard rounds, counted from the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CrossRounds {
    /// Distinct cross-shard batches that committed somewhere.
    pub committed: usize,
    /// Abort announcements sent by initiators.
    pub aborts_sent: usize,
    /// Re-proposals (`xpropose` with an attempt above 0).
    pub repropose: usize,
}

impl CrossRounds {
    pub fn of(events: &[TraceEvent]) -> CrossRounds {
        let mut out = CrossRounds::default();
        let mut committed = std::collections::HashSet::new();
        for e in events {
            match e.kind {
                TraceKind::XCommit { batch } => {
                    committed.insert(batch);
                }
                TraceKind::XAbortSent { .. } => out.aborts_sent += 1,
                TraceKind::XPropose { attempt, .. } if attempt > 0 => out.repropose += 1,
                _ => {}
            }
        }
        out.committed = committed.len();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharper_common::ClientId;

    const CLIENT: u64 = 1 << 63;

    fn ev(at_us: u64, rank: u64, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            at: SimTime(at_us),
            rank,
            seq: at_us,
            kind,
        }
    }

    fn tx(seq: u64) -> TxId {
        TxId::new(ClientId(0), seq)
    }

    fn submit(at_us: u64, seq: u64) -> TraceEvent {
        ev(at_us, CLIENT, TraceKind::ClientSubmit { tx: tx(seq) })
    }

    fn complete(at_us: u64, seq: u64) -> TraceEvent {
        ev(
            at_us,
            CLIENT,
            TraceKind::ClientComplete {
                tx: tx(seq),
                cross: false,
            },
        )
    }

    fn execute(at_us: u64, rank: u64) -> TraceEvent {
        ev(
            at_us,
            rank,
            TraceKind::Execute {
                block: at_us,
                batch: at_us,
                txs: Vec::new(),
                cross: false,
            },
        )
    }

    /// Warm-up 300 ms, run 5 s, limit 1 s: requests count when first
    /// submitted in [300 ms, 4 s).
    const WINDOW: Window = Window {
        warmup: SimTime(300_000),
        end: SimTime(5_000_000),
        limit_us: 1_000_000,
    };

    #[test]
    fn a_request_completing_in_exactly_the_limit_is_in_time() {
        let view = ClientView::of(
            &[
                submit(400_000, 0),
                complete(1_400_000, 0), // exactly L
                submit(400_000, 1),
                complete(1_400_001, 1), // one microsecond late
            ],
            WINDOW,
        );
        assert_eq!((view.attempted, view.missed), (2, 1));
        assert_eq!(view.latencies_us, vec![1_000_000, 1_000_001]);
        assert_eq!(view.missed_ratio(), 0.5);
    }

    #[test]
    fn a_request_never_completed_misses_the_limit() {
        let view = ClientView::of(
            &[submit(500_000, 0), submit(600_000, 1), complete(610_000, 1)],
            WINDOW,
        );
        assert_eq!((view.attempted, view.missed), (2, 1));
        assert_eq!(view.latencies_us, vec![10_000]);
    }

    #[test]
    fn requests_outside_the_accounting_window_are_not_attempted() {
        let view = ClientView::of(
            &[
                submit(299_999, 0), // during warm-up
                complete(310_000, 0),
                submit(3_999_999, 1), // last microsecond that still has L to run
                submit(4_000_000, 2), // submitted after end − L, never answered
                submit(4_500_000, 3), // submitted after end − L, answered
                complete(4_505_000, 3),
                complete(5_000_000, 9), // a completion without a submit is ignored
            ],
            WINDOW,
        );
        assert_eq!((view.attempted, view.missed), (1, 1));
        // Latencies follow the completion time, like `LatencySummary`: the
        // warm-up request completed inside the window and counts there.
        assert_eq!(view.latencies_us, vec![5_000, 10_001]);
    }

    #[test]
    fn a_retransmitted_request_is_timed_from_its_first_submission() {
        let view = ClientView::of(
            &[
                submit(400_000, 0),
                submit(2_400_000, 0),
                complete(2_410_000, 0),
            ],
            WINDOW,
        );
        assert_eq!((view.attempted, view.missed), (1, 1));
        assert_eq!(view.latencies_us, vec![2_010_000]);
    }

    #[test]
    fn no_attempt_reads_as_all_missed() {
        let view = ClientView::of(&[], WINDOW);
        assert_eq!(view.missed_ratio(), 1.0);
        assert!(view.latencies_us.is_empty());
    }

    #[test]
    fn stall_is_the_longest_gap_of_the_worst_cluster() {
        // Two clusters of two replicas: ranks 0,1 → cluster 0; 2,3 → cluster 1.
        let cluster_of = |rank: u64| (rank < 4).then_some((rank / 2) as u32);
        let events = vec![
            execute(100_000, 0), // warm-up: ignored
            execute(400_000, 0),
            execute(900_000, 1), // cluster 0: gaps 100, 500, then 4 100 ms to the end
            execute(350_000, 2),
            execute(2_350_000, 3), // cluster 1: 50, 2 000, 250, 2 400 ms
            execute(2_600_000, 2),
            execute(2_700_000, CLIENT), // not a replica
        ];
        assert_eq!(max_stall_us(&events, WINDOW, 2, cluster_of), 4_100_000);
        // With cluster 0 serving again just before the end, its outage ends
        // there instead of at the end of the window.
        let mut events = events;
        events.push(execute(4_990_000, 0));
        events.sort_by_key(TraceEvent::key);
        assert_eq!(max_stall_us(&events, WINDOW, 2, cluster_of), 4_090_000);
    }

    #[test]
    fn a_cluster_that_never_executes_stalls_for_the_whole_window() {
        let events = vec![execute(400_000, 0), execute(4_999_000, 0)];
        assert_eq!(
            max_stall_us(&events, WINDOW, 2, |r| Some(r as u32)),
            4_700_000
        );
    }

    #[test]
    fn reservation_holds_pair_per_replica_and_run_to_the_end_when_open() {
        let acquire = |at, rank| ev(at, rank, TraceKind::ReservationAcquire { batch: 1 });
        let release = |at, rank| ev(at, rank, TraceKind::ReservationRelease { batch: 1 });
        let events = vec![
            acquire(1_000, 0),
            acquire(2_000, 3),
            release(11_000, 0),
            acquire(20_000, 0),
            release(500_000, 3),
        ];
        assert_eq!(
            reservation_holds_us(&events, SimTime(1_000_000)),
            vec![10_000, 498_000, 980_000]
        );
    }

    #[test]
    fn cross_rounds_count_distinct_commits_aborts_and_reproposals() {
        let events = vec![
            ev(
                1,
                0,
                TraceKind::XPropose {
                    batch: 7,
                    attempt: 0,
                },
            ),
            ev(2, 0, TraceKind::XAbortSent { batch: 7 }),
            ev(
                3,
                0,
                TraceKind::XPropose {
                    batch: 7,
                    attempt: 1,
                },
            ),
            ev(4, 0, TraceKind::XCommit { batch: 7 }),
            ev(5, 3, TraceKind::XCommit { batch: 7 }),
            ev(6, 3, TraceKind::XCommit { batch: 8 }),
        ];
        assert_eq!(
            CrossRounds::of(&events),
            CrossRounds {
                committed: 2,
                aborts_sent: 1,
                repropose: 1
            }
        );
    }
}
