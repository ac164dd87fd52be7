//! The deterministic observability plane: sim-time trace events and the
//! workspace's percentile and histogram helpers.
//!
//! ## Trace events
//!
//! Every instrumented handler records [`TraceKind`]s through its `Context`;
//! the simulation engine stamps each one with the handler's simulated time,
//! the recording actor's stable rank and a per-actor monotonically
//! increasing sequence number, producing a [`TraceEvent`]. The triple
//! `(at, rank, seq)` totally orders the merged trace of a run — the same
//! discipline that keys the event wheel — so traces are **bit-identical
//! across thread modes**: sequential, per-cluster and fixed-pool runs of the
//! same seed serialize to the same byte stream.
//!
//! Three rules keep the plane deterministic and free of observer effects:
//!
//! 1. **Sim time only.** Events carry the simulated clock, never a wall
//!    clock.
//! 2. **Record, never perturb.** Tracing charges no CPU cost, sends no
//!    messages and draws no randomness; enabling it cannot change a run's
//!    results, digests or reports.
//! 3. **Lane-private buffers.** Events are buffered per actor invocation and
//!    appended to the owning lane's private vector; the merge sorts by
//!    `(at, rank, seq)` after the run, so no cross-thread ordering can leak
//!    into the trace.
//!
//! When tracing is disabled (the default) the per-event closure passed to
//! `Context::trace` is never invoked, so disabled runs pay one branch per
//! call site and allocate nothing.
//!
//! ## Percentiles
//!
//! Exact percentiles over sorted samples go through the single nearest-rank
//! implementation here ([`percentile_nearest_rank`]); bounded-memory
//! distributions use [`StreamingHistogram`].

use crate::ids::TxId;
use crate::time::SimTime;
use std::fmt;
use std::fmt::Write as _;

/// What an instrumented handler observed (the payload of a [`TraceEvent`]).
///
/// Batch and block identities are carried as the first eight bytes of their
/// digest (little-endian `u64`) so the trace stays compact and this crate
/// stays free of crypto dependencies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceKind {
    /// A client submitted a transaction to the responsible primary.
    ClientSubmit {
        /// The submitted transaction.
        tx: TxId,
    },
    /// A client retransmitted a request whose reply quorum timed out.
    ClientRetry {
        /// The retransmitted transaction.
        tx: TxId,
    },
    /// A client collected its reply quorum: the transaction is complete.
    ClientComplete {
        /// The completed transaction.
        tx: TxId,
        /// Whether the transaction spanned more than one cluster.
        cross: bool,
    },
    /// A primary admitted a request into its mempool.
    MempoolAdmit {
        /// The admitted transaction.
        tx: TxId,
        /// Whether it waits in a cross-shard queue.
        cross: bool,
        /// Mempool depth after admission.
        depth: u64,
    },
    /// A primary sealed pending requests into a batch and started consensus.
    BatchSeal {
        /// Short digest of the sealed batch.
        batch: u64,
        /// The member transactions, in batch order.
        txs: Vec<TxId>,
        /// Whether this is a cross-shard batch.
        cross: bool,
    },
    /// An intra-shard proposal went out (Paxos accept / PBFT pre-prepare).
    Propose {
        /// Short digest of the proposed batch.
        batch: u64,
        /// The view the proposal was made in.
        view: u64,
    },
    /// A replica voted for a proposal (Paxos accepted / PBFT prepare).
    Accept {
        /// Short digest of the batch voted for.
        batch: u64,
        /// The view of the vote.
        view: u64,
    },
    /// A replica observed the quorum that commits a batch.
    Commit {
        /// Short digest of the committed batch.
        batch: u64,
    },
    /// A replica appended a block and executed its batch.
    Execute {
        /// Short digest of the appended block.
        block: u64,
        /// Short digest of the executed batch.
        batch: u64,
        /// The executed transactions, in batch order.
        txs: Vec<TxId>,
        /// Whether the block committed a cross-shard batch.
        cross: bool,
    },
    /// A replica replied to the issuing client.
    Reply {
        /// The transaction the reply is for.
        tx: TxId,
        /// Whether the transaction applied (vs. aborting on validation).
        applied: bool,
    },
    /// An initiator started (or retried) a cross-shard round.
    XPropose {
        /// Short digest of the cross-shard batch.
        batch: u64,
        /// Retry attempt (0 for the first transmission).
        attempt: u64,
    },
    /// A remote primary accepted a cross-shard proposal.
    XAccept {
        /// Short digest of the accepted batch.
        batch: u64,
    },
    /// A replica observed the cross-shard commit quorum (initiator side) or
    /// handled the resulting `XCommit` (remote side).
    XCommit {
        /// Short digest of the committed batch.
        batch: u64,
    },
    /// An initiator announced the abort of a cross-shard round.
    XAbortSent {
        /// Short digest of the aborted batch.
        batch: u64,
    },
    /// A replica handled a cross-shard abort announcement.
    XAbortRecv {
        /// Short digest of the aborted batch.
        batch: u64,
    },
    /// A remote primary probed the initiator cluster for a round's fate.
    XStatusProbe {
        /// Short digest of the probed batch.
        batch: u64,
    },
    /// A replica reserved its shard for a cross-shard round.
    ReservationAcquire {
        /// Short digest of the reserving batch.
        batch: u64,
    },
    /// A replica released its shard reservation (commit, abort or timeout).
    ReservationRelease {
        /// Short digest of the batch that held the reservation.
        batch: u64,
    },
    /// A replica voted to replace its primary.
    ViewChangeStart {
        /// The view the replica voted for.
        view: u64,
    },
    /// A replica installed a new view.
    ViewChangeEnd {
        /// The installed view.
        view: u64,
    },
    /// A crash-model replica adopted a higher ballot from a valid proposal.
    BallotAdopt {
        /// The adopted view.
        view: u64,
        /// The proposing node's id.
        proposer: u64,
    },
    /// A protocol-level retransmission (e.g. an `XAbort` re-announcement).
    Retransmit {
        /// Short digest of the batch being retransmitted.
        batch: u64,
    },
    /// The reshard coordinator issued a split/merge directive.
    ReshardDirective {
        /// The shard-map epoch the directive will establish.
        epoch: u64,
        /// First account of the moved range.
        start: u64,
        /// Number of consecutive accounts moved.
        len: u64,
        /// Destination cluster id.
        to: u64,
    },
    /// A replica applied a handover block: the range moved and the replica's
    /// shard map switched to the new epoch.
    ReshardApply {
        /// The epoch installed at apply.
        epoch: u64,
        /// First account of the moved range.
        start: u64,
        /// Number of consecutive accounts moved.
        len: u64,
        /// Source cluster id.
        from: u64,
        /// Destination cluster id.
        to: u64,
    },
    /// The partitioned executor scheduled a committed batch.
    ExecPlan {
        /// Short digest of the executed batch.
        batch: u64,
        /// Partitions with at least one queued step.
        partitions: u64,
        /// Steps claimed across all partition queues.
        steps: u64,
        /// Deepest partition queue of the plan.
        max_queue_depth: u64,
        /// Critical-path length of the schedule, in work units.
        makespan_units: u64,
    },
}

impl TraceKind {
    /// The stable snake_case label of this event kind (used by the JSONL
    /// serialization and by analyzers grouping events by kind).
    pub fn label(&self) -> &'static str {
        match self {
            TraceKind::ClientSubmit { .. } => "client_submit",
            TraceKind::ClientRetry { .. } => "client_retry",
            TraceKind::ClientComplete { .. } => "client_complete",
            TraceKind::MempoolAdmit { .. } => "mempool_admit",
            TraceKind::BatchSeal { .. } => "batch_seal",
            TraceKind::Propose { .. } => "propose",
            TraceKind::Accept { .. } => "accept",
            TraceKind::Commit { .. } => "commit",
            TraceKind::Execute { .. } => "execute",
            TraceKind::Reply { .. } => "reply",
            TraceKind::XPropose { .. } => "xpropose",
            TraceKind::XAccept { .. } => "xaccept",
            TraceKind::XCommit { .. } => "xcommit",
            TraceKind::XAbortSent { .. } => "xabort_sent",
            TraceKind::XAbortRecv { .. } => "xabort_recv",
            TraceKind::XStatusProbe { .. } => "xstatus_probe",
            TraceKind::ReservationAcquire { .. } => "reservation_acquire",
            TraceKind::ReservationRelease { .. } => "reservation_release",
            TraceKind::ViewChangeStart { .. } => "view_change_start",
            TraceKind::ViewChangeEnd { .. } => "view_change_end",
            TraceKind::BallotAdopt { .. } => "ballot_adopt",
            TraceKind::Retransmit { .. } => "retransmit",
            TraceKind::ReshardDirective { .. } => "reshard_directive",
            TraceKind::ReshardApply { .. } => "reshard_apply",
            TraceKind::ExecPlan { .. } => "exec_plan",
        }
    }
}

/// One recorded, stamped trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated time of the handler that recorded the event.
    pub at: SimTime,
    /// Stable rank of the recording actor (nodes before clients).
    pub rank: u64,
    /// Per-actor monotonically increasing trace sequence number.
    pub seq: u64,
    /// What was observed.
    pub kind: TraceKind,
}

impl TraceEvent {
    /// The `(at, rank, seq)` ordering key of this event.
    pub fn key(&self) -> (SimTime, u64, u64) {
        (self.at, self.rank, self.seq)
    }
}

fn tx_json(tx: &TxId) -> String {
    format!("\"c{}:{}\"", tx.client.0, tx.seq)
}

fn txs_json(txs: &[TxId]) -> String {
    let mut out = String::from("[");
    for (i, tx) in txs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&tx_json(tx));
    }
    out.push(']');
    out
}

/// Serializes a trace as JSON lines — one event per line, fields in a fixed
/// order, integers only. This is the byte stream the cross-thread-mode
/// determinism gate compares, so the format must stay a pure function of the
/// event sequence.
pub fn trace_to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 64);
    for e in events {
        let _ = write!(
            out,
            "{{\"at_us\":{},\"rank\":{},\"seq\":{},\"kind\":\"{}\"",
            e.at.as_micros(),
            e.rank,
            e.seq,
            e.kind.label()
        );
        match &e.kind {
            TraceKind::ClientSubmit { tx } | TraceKind::ClientRetry { tx } => {
                let _ = write!(out, ",\"tx\":{}", tx_json(tx));
            }
            TraceKind::ClientComplete { tx, cross } => {
                let _ = write!(out, ",\"tx\":{},\"cross\":{cross}", tx_json(tx));
            }
            TraceKind::MempoolAdmit { tx, cross, depth } => {
                let _ = write!(
                    out,
                    ",\"tx\":{},\"cross\":{cross},\"depth\":{depth}",
                    tx_json(tx)
                );
            }
            TraceKind::BatchSeal { batch, txs, cross } => {
                let _ = write!(
                    out,
                    ",\"batch\":\"{batch:016x}\",\"cross\":{cross},\"txs\":{}",
                    txs_json(txs)
                );
            }
            TraceKind::Propose { batch, view } | TraceKind::Accept { batch, view } => {
                let _ = write!(out, ",\"batch\":\"{batch:016x}\",\"view\":{view}");
            }
            TraceKind::Commit { batch }
            | TraceKind::XAccept { batch }
            | TraceKind::XCommit { batch }
            | TraceKind::XAbortSent { batch }
            | TraceKind::XAbortRecv { batch }
            | TraceKind::XStatusProbe { batch }
            | TraceKind::ReservationAcquire { batch }
            | TraceKind::ReservationRelease { batch }
            | TraceKind::Retransmit { batch } => {
                let _ = write!(out, ",\"batch\":\"{batch:016x}\"");
            }
            TraceKind::Execute {
                block,
                batch,
                txs,
                cross,
            } => {
                let _ = write!(
                    out,
                    ",\"block\":\"{block:016x}\",\"batch\":\"{batch:016x}\",\"cross\":{cross},\"txs\":{}",
                    txs_json(txs)
                );
            }
            TraceKind::Reply { tx, applied } => {
                let _ = write!(out, ",\"tx\":{},\"applied\":{applied}", tx_json(tx));
            }
            TraceKind::XPropose { batch, attempt } => {
                let _ = write!(out, ",\"batch\":\"{batch:016x}\",\"attempt\":{attempt}");
            }
            TraceKind::ViewChangeStart { view } | TraceKind::ViewChangeEnd { view } => {
                let _ = write!(out, ",\"view\":{view}");
            }
            TraceKind::BallotAdopt { view, proposer } => {
                let _ = write!(out, ",\"view\":{view},\"proposer\":{proposer}");
            }
            TraceKind::ReshardDirective {
                epoch,
                start,
                len,
                to,
            } => {
                let _ = write!(
                    out,
                    ",\"epoch\":{epoch},\"start\":{start},\"len\":{len},\"to\":{to}"
                );
            }
            TraceKind::ReshardApply {
                epoch,
                start,
                len,
                from,
                to,
            } => {
                let _ = write!(
                    out,
                    ",\"epoch\":{epoch},\"start\":{start},\"len\":{len},\"from\":{from},\"to\":{to}"
                );
            }
            TraceKind::ExecPlan {
                batch,
                partitions,
                steps,
                max_queue_depth,
                makespan_units,
            } => {
                let _ = write!(
                    out,
                    ",\"batch\":\"{batch:016x}\",\"partitions\":{partitions},\"steps\":{steps},\
                     \"max_queue_depth\":{max_queue_depth},\"makespan_units\":{makespan_units}"
                );
            }
        }
        out.push_str("}\n");
    }
    out
}

/// Nearest-rank percentile over an already **sorted** slice. Returns `None`
/// when the slice is empty. `pct` is clamped to `[0, 100]`; `pct = 0` yields
/// the minimum, `pct = 100` the maximum. With ties the tied value is
/// returned for every rank it occupies.
///
/// This is the single exact percentile implementation of the workspace —
/// the mempool wait metrics and the trace phase breakdown defer to it.
pub fn percentile_nearest_rank<T: Copy>(sorted: &[T], pct: u64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let pct = pct.min(100) as usize;
    let rank = (pct * sorted.len()).div_ceil(100).max(1);
    Some(sorted[rank - 1])
}

/// Nearest-rank percentile over sorted microsecond samples, 0 when empty
/// (the historical calling convention of the mempool wait metrics).
pub fn percentile_us(sorted: &[u64], pct: u64) -> u64 {
    percentile_nearest_rank(sorted, pct).unwrap_or(0)
}

/// Number of sub-buckets per power-of-two group in a [`StreamingHistogram`]
/// (5 significant bits → ≤ ~1.6% relative quantile error).
const STREAM_SUB_BUCKETS: u64 = 32;
/// Total bucket count: values `< 32` are exact, larger values land in one of
/// 59 log₂ groups × 32 sub-buckets. Covers the full `u64` range.
const STREAM_BUCKETS: usize = (STREAM_SUB_BUCKETS as usize) * 60;

/// A bounded-memory histogram with HDR-style log₂ bucketing.
///
/// Unlike a sorted sample buffer (which answers exact percentiles through
/// [`percentile_nearest_rank`]), this structure stores a fixed array of
/// counters — ~15 KB regardless of sample count — so unbounded-duration
/// sweeps stay spill-free.
/// Values below 32 are recorded exactly; larger values keep their top 5
/// significant bits, bounding relative error on percentile reads to ~1.6%.
/// `count`, `sum`, `min` and `max` stay exact.
///
/// Recording and [`merge`](Self::merge) are commutative and associative, so a
/// histogram merged from per-actor shards is independent of merge order —
/// which keeps reports bit-identical across simulator thread modes.
#[derive(Clone)]
pub struct StreamingHistogram {
    buckets: Box<[u64; STREAM_BUCKETS]>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for StreamingHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for StreamingHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StreamingHistogram")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("min", &self.min)
            .field("max", &self.max)
            .finish()
    }
}

impl StreamingHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: Box::new([0u64; STREAM_BUCKETS]),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket index for `value`: the identity below 32, otherwise
    /// `32·(log₂ group − 4) + top-5-sub-bits`.
    fn bucket_index(value: u64) -> usize {
        if value < STREAM_SUB_BUCKETS {
            return value as usize;
        }
        let e = 63 - value.leading_zeros() as u64; // value >= 32 → e >= 5
        let sub = (value >> (e - 5)) & (STREAM_SUB_BUCKETS - 1);
        ((e - 4) * STREAM_SUB_BUCKETS + sub) as usize
    }

    /// The representative value (bucket midpoint) for bucket `i`.
    fn bucket_value(i: usize) -> u64 {
        let i = i as u64;
        if i < STREAM_SUB_BUCKETS {
            return i;
        }
        let group = i / STREAM_SUB_BUCKETS; // >= 1
        let sub = i % STREAM_SUB_BUCKETS;
        let lower = (STREAM_SUB_BUCKETS + sub) << (group - 1);
        let width = 1u64 << (group - 1);
        lower + width / 2
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Folds `other` into `self`. Commutative: merge order never changes any
    /// subsequent read.
    pub fn merge(&mut self, other: &Self) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact (saturating) sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact minimum, 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact maximum, 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact mean, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate nearest-rank percentile (≤ ~1.6% relative error above 32,
    /// exact below), 0 when empty. Exact `min`/`max` are returned at the
    /// extremes so the reported range never exceeds the observed one.
    pub fn percentile(&self, pct: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let pct = pct.min(100);
        if pct == 0 {
            return self.min();
        }
        if pct == 100 {
            return self.max;
        }
        let rank = (pct as u128 * self.count as u128).div_ceil(100).max(1);
        let mut seen = 0u128;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n as u128;
            if seen >= rank {
                return Self::bucket_value(i).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ClientId;

    #[test]
    fn percentile_empty_is_none_and_zero() {
        assert_eq!(percentile_nearest_rank::<u64>(&[], 50), None);
        assert_eq!(percentile_us(&[], 99), 0);
    }

    #[test]
    fn percentile_single_sample_is_that_sample_at_every_rank() {
        for pct in [0, 1, 50, 99, 100, 250] {
            assert_eq!(percentile_nearest_rank(&[7u64], pct), Some(7));
        }
    }

    #[test]
    fn percentile_nearest_rank_matches_definition() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_us(&samples, 50), 50);
        assert_eq!(percentile_us(&samples, 95), 95);
        assert_eq!(percentile_us(&samples, 99), 99);
        assert_eq!(percentile_us(&samples, 100), 100);
        assert_eq!(percentile_us(&samples, 0), 1, "p0 is the minimum");
    }

    #[test]
    fn percentile_handles_ties() {
        // Five tied samples around the median: every mid-rank hits the tie.
        let samples = [1u64, 5, 5, 5, 5, 5, 9];
        for pct in [30, 50, 70, 85] {
            assert_eq!(percentile_us(&samples, pct), 5);
        }
        assert_eq!(percentile_us(&samples, 100), 9);
        // Works for floats too (shared helper is generic).
        let f = [1.0f64, 2.0, 2.0, 3.0];
        assert_eq!(percentile_nearest_rank(&f, 50), Some(2.0));
    }

    #[test]
    fn trace_events_sort_by_time_then_rank_then_seq() {
        let ev = |at, rank, seq| TraceEvent {
            at: SimTime(at),
            rank,
            seq,
            kind: TraceKind::Commit { batch: 1 },
        };
        let mut events = [ev(5, 1, 0), ev(5, 0, 1), ev(4, 9, 0), ev(5, 0, 0)];
        events.sort_by_key(TraceEvent::key);
        let keys: Vec<(u64, u64, u64)> = events
            .iter()
            .map(|e| (e.at.as_micros(), e.rank, e.seq))
            .collect();
        assert_eq!(keys, vec![(4, 9, 0), (5, 0, 0), (5, 0, 1), (5, 1, 0)]);
    }

    #[test]
    fn jsonl_serialization_is_stable_and_integer_only() {
        let tx = TxId::new(ClientId(3), 7);
        let events = vec![
            TraceEvent {
                at: SimTime(1_000),
                rank: 2,
                seq: 0,
                kind: TraceKind::ClientSubmit { tx },
            },
            TraceEvent {
                at: SimTime(2_000),
                rank: 0,
                seq: 5,
                kind: TraceKind::BatchSeal {
                    batch: 0xAB,
                    txs: vec![tx],
                    cross: true,
                },
            },
        ];
        let jsonl = trace_to_jsonl(&events);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"at_us\":1000,\"rank\":2,\"seq\":0,\"kind\":\"client_submit\",\"tx\":\"c3:7\"}"
        );
        assert_eq!(
            lines[1],
            "{\"at_us\":2000,\"rank\":0,\"seq\":5,\"kind\":\"batch_seal\",\
             \"batch\":\"00000000000000ab\",\"cross\":true,\"txs\":[\"c3:7\"]}"
        );
        // Serialization is a pure function of the events.
        assert_eq!(jsonl, trace_to_jsonl(&events));
    }

    #[test]
    fn streaming_histogram_is_exact_below_32_and_bounded_above() {
        let mut h = StreamingHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.percentile(50), 0);
        assert_eq!(h.min(), 0);

        for v in 0..32u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 32);
        assert_eq!(h.sum(), (0..32).sum::<u64>());
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 31);
        // Values below 32 are stored exactly: nearest-rank percentiles match
        // the exact implementation.
        let sorted: Vec<u64> = (0..32).collect();
        for pct in [1, 25, 50, 75, 99, 100] {
            assert_eq!(h.percentile(pct), percentile_us(&sorted, pct));
        }

        // Large values: relative error stays within one sub-bucket (~3.2%).
        let mut big = StreamingHistogram::new();
        for v in (1_000..101_000u64).step_by(100) {
            big.record(v);
        }
        for pct in [50, 95, 99] {
            let approx = big.percentile(pct) as f64;
            let exact = (1_000.0 + 100_000.0 * pct as f64 / 100.0).min(100_900.0);
            assert!(
                (approx - exact).abs() / exact < 0.04,
                "p{pct}: approx {approx} vs exact {exact}"
            );
        }
        assert_eq!(big.percentile(0), 1_000);
        assert_eq!(big.percentile(100), 100_900);
    }

    #[test]
    fn streaming_histogram_merge_is_order_insensitive() {
        let mut a = StreamingHistogram::new();
        let mut b = StreamingHistogram::new();
        let mut c = StreamingHistogram::new();
        for v in [5u64, 900, 17, 1_000_000, 42] {
            a.record(v);
        }
        for v in [7u64, 7, 123_456] {
            b.record(v);
        }
        c.record(0);

        let mut ab_c = StreamingHistogram::new();
        ab_c.merge(&a);
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut c_b_a = StreamingHistogram::new();
        c_b_a.merge(&c);
        c_b_a.merge(&b);
        c_b_a.merge(&a);

        assert_eq!(ab_c.count(), 9);
        assert_eq!(ab_c.count(), c_b_a.count());
        assert_eq!(ab_c.sum(), c_b_a.sum());
        assert_eq!(ab_c.min(), 0);
        assert_eq!(ab_c.max(), 1_000_000);
        for pct in 0..=100 {
            assert_eq!(ab_c.percentile(pct), c_b_a.percentile(pct));
        }
    }

    #[test]
    fn streaming_histogram_memory_is_independent_of_sample_count() {
        // The whole point: recording a million samples allocates nothing
        // beyond the fixed bucket array (checked structurally — the type has
        // no growable member — and sanity-checked via exact aggregates).
        let mut h = StreamingHistogram::new();
        for i in 0..1_000_000u64 {
            h.record(i % 10_000);
        }
        assert_eq!(h.count(), 1_000_000);
        assert_eq!(h.max(), 9_999);
        assert_eq!(
            std::mem::size_of_val(&h),
            std::mem::size_of::<u64>() * 4 + std::mem::size_of::<usize>()
        );
    }
}
