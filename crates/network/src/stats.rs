//! Measurement collection for simulation runs.
//!
//! The paper reports end-to-end throughput (committed transactions per
//! second) and latency (request submission to client-observed commit) "as the
//! average measured during the steady state of an experiment" (§4). The
//! [`StatsCollector`] aggregates exactly those measurements; clients hold a
//! cheap clonable [`StatsHandle`] and record one sample per committed
//! transaction.
//!
//! The collector is **spill-free**: commit latencies stream into a bounded
//! [`StreamingHistogram`] (fixed ~15 KB) instead of a per-sample buffer, so
//! memory stays flat no matter how many transactions a sweep commits. The
//! steady-state window is fixed *before* samples arrive — `warmup` at
//! construction, the window end via [`begin_measurement`] when the run
//! duration is known — and each sample is filtered at record time. Only a
//! small fixed-size ring of the most recent samples is retained, for
//! debugging.
//!
//! [`begin_measurement`]: StatsHandle::begin_measurement

use sharper_common::{Duration, SimTime, StreamingHistogram, TxId};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// How many of the most recent commit samples are kept for debugging.
const RECENT_SAMPLES: usize = 512;

/// One committed-transaction sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitSample {
    /// The transaction that committed.
    pub tx: TxId,
    /// When the client submitted it.
    pub submitted_at: SimTime,
    /// When the client considered it committed (enough replies received).
    pub committed_at: SimTime,
    /// Whether the transaction was cross-shard.
    pub cross_shard: bool,
}

impl CommitSample {
    /// The end-to-end latency of this sample.
    pub fn latency(&self) -> Duration {
        self.committed_at.saturating_since(self.submitted_at)
    }
}

/// Aggregated latency/throughput figures over a measurement window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Number of committed transactions in the window.
    pub committed: usize,
    /// Committed transactions per second of simulated time.
    pub throughput_tps: f64,
    /// Mean latency in milliseconds (exact).
    pub mean_latency_ms: f64,
    /// Median latency in milliseconds (streaming estimate, ≤ ~1.6% error).
    pub p50_latency_ms: f64,
    /// 95th-percentile latency in milliseconds (streaming estimate).
    pub p95_latency_ms: f64,
    /// 99th-percentile latency in milliseconds (streaming estimate).
    pub p99_latency_ms: f64,
}

impl LatencySummary {
    /// A summary with no samples.
    pub fn empty() -> Self {
        Self {
            committed: 0,
            throughput_tps: 0.0,
            mean_latency_ms: 0.0,
            p50_latency_ms: 0.0,
            p95_latency_ms: 0.0,
            p99_latency_ms: 0.0,
        }
    }
}

/// Collects commit measurements and submission counts during a run.
#[derive(Debug)]
pub struct StatsCollector {
    /// Steady-state window start: samples committing earlier are ignored.
    warmup: SimTime,
    /// Steady-state window end (exclusive); `SimTime(u64::MAX)` = open.
    end: SimTime,
    submitted: usize,
    /// Commits regardless of the window.
    committed_total: usize,
    /// Commits inside `[warmup, end)`.
    window_count: usize,
    /// Latency distribution (µs) of in-window commits. Recording is
    /// commutative, so the aggregate is independent of the order samples
    /// arrive in — reports stay bit-identical across simulator thread modes.
    latencies_us: StreamingHistogram,
    /// Latest in-window commit time (used when the window is open-ended).
    max_commit: SimTime,
    /// Ring of the most recent samples, for debugging only.
    recent: VecDeque<CommitSample>,
}

impl Default for StatsCollector {
    fn default() -> Self {
        Self::with_warmup(SimTime::ZERO)
    }
}

impl StatsCollector {
    /// Creates an empty collector measuring from time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty collector whose steady-state window opens at
    /// `warmup` (and stays open until [`begin_measurement`] bounds it).
    ///
    /// [`begin_measurement`]: Self::begin_measurement
    pub fn with_warmup(warmup: SimTime) -> Self {
        Self {
            warmup,
            end: SimTime(u64::MAX),
            submitted: 0,
            committed_total: 0,
            window_count: 0,
            latencies_us: StreamingHistogram::new(),
            max_commit: warmup,
            recent: VecDeque::with_capacity(RECENT_SAMPLES),
        }
    }

    /// Fixes the end (exclusive) of the steady-state window. Must be called
    /// before samples near `end` are recorded — the runner calls it when the
    /// run duration becomes known, before the simulation starts.
    pub fn begin_measurement(&mut self, end: SimTime) {
        self.end = end;
    }

    /// Records that a client submitted a transaction.
    pub fn record_submission(&mut self) {
        self.submitted += 1;
    }

    /// Records a commit sample. Every call counts: the client records a
    /// transaction once, when it first collects enough replies, and forgets
    /// it then — later replies and the replies to a retransmission find
    /// nothing outstanding and record nothing (see the client tests).
    pub fn record_commit(&mut self, sample: CommitSample) {
        self.committed_total += 1;
        if sample.committed_at >= self.warmup && sample.committed_at < self.end {
            self.window_count += 1;
            self.latencies_us.record(sample.latency().as_micros());
            if sample.committed_at > self.max_commit {
                self.max_commit = sample.committed_at;
            }
        }
        if self.recent.len() == RECENT_SAMPLES {
            self.recent.pop_front();
        }
        self.recent.push_back(sample);
    }

    /// Number of transactions submitted.
    pub fn submitted(&self) -> usize {
        self.submitted
    }

    /// Number of committed transactions (window-independent).
    pub fn committed(&self) -> usize {
        self.committed_total
    }

    /// The most recent commit samples (bounded ring, debugging only).
    pub fn recent_samples(&self) -> &VecDeque<CommitSample> {
        &self.recent
    }

    /// Summarises the steady state measured during the run.
    ///
    /// `warmup` and `window` describe the same window the collector filtered
    /// with at record time (`warmup` at construction, the end via
    /// [`begin_measurement`](Self::begin_measurement); `window` of zero
    /// means "until the last sample"). They are taken as parameters so the
    /// caller states the window it believes was measured — debug builds
    /// verify the two agree.
    pub fn summarize(&self, warmup: SimTime, window: Duration) -> LatencySummary {
        debug_assert_eq!(
            warmup, self.warmup,
            "summarize window must match the record-time filter"
        );
        debug_assert!(
            window == Duration::ZERO
                || warmup + window == self.end
                || self.end == SimTime(u64::MAX),
            "summarize window must match the record-time filter"
        );
        if self.window_count == 0 {
            return LatencySummary::empty();
        }
        let elapsed = if window == Duration::ZERO {
            self.max_commit.saturating_since(warmup)
        } else {
            window
        };
        let elapsed_s = elapsed.as_secs_f64().max(1e-9);
        let pct = |p: u64| self.latencies_us.percentile(p) as f64 / 1_000.0;
        LatencySummary {
            committed: self.window_count,
            throughput_tps: self.window_count as f64 / elapsed_s,
            mean_latency_ms: self.latencies_us.mean() / 1_000.0,
            p50_latency_ms: pct(50),
            p95_latency_ms: pct(95),
            p99_latency_ms: pct(99),
        }
    }
}

/// A cheaply clonable, shareable handle to a [`StatsCollector`].
///
/// Clients on different simulator lanes record into one collector, so the
/// handle guards it with a mutex.
#[derive(Debug, Clone, Default)]
pub struct StatsHandle(Arc<Mutex<StatsCollector>>);

impl StatsHandle {
    /// Creates a handle to a fresh collector measuring from time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a handle to a fresh collector whose steady-state window opens
    /// at `warmup`.
    pub fn with_warmup(warmup: SimTime) -> Self {
        Self(Arc::new(Mutex::new(StatsCollector::with_warmup(warmup))))
    }

    /// Locks the collector. Poisoning is ignored: the collector holds plain
    /// counters with no invariant a panicked holder could break.
    fn lock(&self) -> MutexGuard<'_, StatsCollector> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Fixes the end (exclusive) of the steady-state window — call before
    /// the simulation runs (see [`StatsCollector::begin_measurement`]).
    pub fn begin_measurement(&self, end: SimTime) {
        self.lock().begin_measurement(end);
    }

    /// Records a submission.
    pub fn record_submission(&self) {
        self.lock().record_submission();
    }

    /// Records a commit sample.
    pub fn record_commit(&self, sample: CommitSample) {
        self.lock().record_commit(sample);
    }

    /// Number of submitted transactions.
    pub fn submitted(&self) -> usize {
        self.lock().submitted()
    }

    /// Number of committed transactions.
    pub fn committed(&self) -> usize {
        self.lock().committed()
    }

    /// Summarises the steady-state window (see [`StatsCollector::summarize`]).
    pub fn summarize(&self, warmup: SimTime, window: Duration) -> LatencySummary {
        self.lock().summarize(warmup, window)
    }

    /// Clones the most recent commit samples out of the collector (bounded
    /// ring, debugging only).
    pub fn recent_samples(&self) -> Vec<CommitSample> {
        self.lock().recent_samples().iter().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharper_common::ClientId;

    fn sample(seq: u64, submit_ms: u64, commit_ms: u64) -> CommitSample {
        CommitSample {
            tx: TxId::new(ClientId(1), seq),
            submitted_at: SimTime::from_millis(submit_ms),
            committed_at: SimTime::from_millis(commit_ms),
            cross_shard: false,
        }
    }

    #[test]
    fn latency_of_a_sample() {
        assert_eq!(sample(0, 10, 25).latency(), Duration::from_millis(15));
    }

    #[test]
    fn every_recorded_commit_counts() {
        // The collector keeps no per-transaction state: a client records
        // each transaction's commit once, so every sample given counts.
        let mut c = StatsCollector::new();
        c.record_submission();
        c.record_submission();
        c.record_commit(sample(0, 0, 10));
        assert_eq!((c.submitted(), c.committed()), (2, 1));
        c.record_commit(sample(1, 5, 12));
        assert_eq!((c.submitted(), c.committed()), (2, 2));
        assert_eq!(c.recent_samples().len(), 2);
    }

    #[test]
    fn summary_over_full_run() {
        let mut c = StatsCollector::new();
        for i in 0..100u64 {
            // Commits every 10 ms, each with 20 ms latency.
            c.record_commit(sample(i, i * 10, i * 10 + 20));
        }
        let s = c.summarize(SimTime::ZERO, Duration::ZERO);
        assert_eq!(s.committed, 100);
        // The mean is exact; percentiles are streaming estimates.
        assert!((s.mean_latency_ms - 20.0).abs() < 1e-9);
        assert!((s.p50_latency_ms - 20.0).abs() / 20.0 < 0.02);
        // 100 commits over ~1.01 s of samples.
        assert!(s.throughput_tps > 90.0 && s.throughput_tps < 110.0);
    }

    #[test]
    fn summary_respects_warmup_and_window() {
        // Window covering commits in [200 ms, 700 ms).
        let mut c = StatsCollector::with_warmup(SimTime::from_millis(200));
        c.begin_measurement(SimTime::from_millis(700));
        for i in 0..100u64 {
            c.record_commit(sample(i, i * 10, i * 10 + 20));
        }
        let s = c.summarize(SimTime::from_millis(200), Duration::from_millis(500));
        assert_eq!(s.committed, 50);
        assert!((s.throughput_tps - 100.0).abs() < 1.0);
        // All 100 commits are still counted outside the window.
        assert_eq!(c.committed(), 100);

        // A window no commit falls into yields the empty summary.
        let mut c = StatsCollector::with_warmup(SimTime::from_secs(100));
        c.begin_measurement(SimTime::from_secs(100) + Duration::from_millis(10));
        for i in 0..100u64 {
            c.record_commit(sample(i, i * 10, i * 10 + 20));
        }
        let s = c.summarize(SimTime::from_secs(100), Duration::from_millis(10));
        assert_eq!(s.committed, 0);
        assert_eq!(s.throughput_tps, 0.0);
    }

    #[test]
    fn a_commit_exactly_at_the_window_end_is_excluded() {
        let mut c = StatsCollector::new();
        c.begin_measurement(SimTime::from_millis(100));
        c.record_commit(sample(0, 0, 99));
        c.record_commit(sample(1, 0, 100));
        let s = c.summarize(SimTime::ZERO, Duration::from_millis(100));
        assert_eq!(s.committed, 1);
        assert_eq!(c.committed(), 2);
    }

    #[test]
    fn percentiles_are_ordered() {
        let mut c = StatsCollector::new();
        for i in 0..1000u64 {
            c.record_commit(sample(i, 0, 1 + i % 50));
        }
        let s = c.summarize(SimTime::ZERO, Duration::ZERO);
        assert!(s.p50_latency_ms <= s.p95_latency_ms);
        assert!(s.p95_latency_ms <= s.p99_latency_ms);
    }

    #[test]
    fn recent_sample_ring_is_bounded() {
        let mut c = StatsCollector::new();
        for i in 0..(RECENT_SAMPLES as u64 + 100) {
            c.record_commit(sample(i, i, i + 5));
        }
        assert_eq!(c.recent_samples().len(), RECENT_SAMPLES);
        // The ring holds the latest samples, not the earliest.
        assert_eq!(
            c.recent_samples().back().unwrap().tx.seq,
            RECENT_SAMPLES as u64 + 99
        );
        // Aggregates still cover every sample.
        assert_eq!(c.committed(), RECENT_SAMPLES + 100);
        let s = c.summarize(SimTime::ZERO, Duration::ZERO);
        assert_eq!(s.committed, RECENT_SAMPLES + 100);
    }

    #[test]
    fn handle_shares_one_collector() {
        let h = StatsHandle::new();
        let h2 = h.clone();
        h.record_submission();
        h2.record_commit(sample(0, 0, 5));
        assert_eq!(h.submitted(), 1);
        assert_eq!(h.committed(), 1);
        assert_eq!(h2.recent_samples().len(), 1);
        let s = h.summarize(SimTime::ZERO, Duration::ZERO);
        assert_eq!(s.committed, 1);
    }

    #[test]
    fn empty_summary_is_zeroed() {
        let s = StatsCollector::new().summarize(SimTime::ZERO, Duration::ZERO);
        assert_eq!(s, LatencySummary::empty());
    }
}
