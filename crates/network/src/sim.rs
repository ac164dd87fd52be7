//! The discrete-event simulation engine.
//!
//! The engine owns a set of actors, per-cluster event queues and the
//! latency/cost/fault models. It delivers messages and timer expirations in
//! timestamp order, charges each actor the CPU time its handler reports, and
//! models every actor as a single-server FIFO queue: an event arriving while
//! the actor is still busy is parked in that actor's private defer queue and
//! drained — in arrival order — when the actor frees up. Saturation
//! therefore shows up exactly where it does on a real deployment — at the
//! replica that handles the most messages per transaction.
//!
//! ## Conservative parallel execution
//!
//! SharPer's clusters only interact over cross-cluster links with a known
//! minimum latency, so the engine partitions actors into **lanes** (one per
//! cluster; clients ride on their home cluster's lane) and can execute the
//! lanes on worker threads as a conservative parallel discrete-event
//! simulation. Each lane owns a hierarchical timing wheel ([`crate::wheel`])
//! and advances through *safe-time windows*: a lane may process every event
//! strictly before `min(other lanes' earliest-output-time)`, where a lane's
//! earliest output time is its own event horizon plus the **lookahead** —
//! the minimum base latency of any cross-lane link. Cross-lane messages
//! travel through per-lane inboxes; no barrier is ever taken.
//!
//! ## Determinism guarantee
//!
//! Every source of randomness and every tie-break is *per-actor*, never
//! global: each actor owns a seeded RNG stream (handler seeds, jitter, drop
//! and duplication draws for the messages it sends), a sequence counter that
//! keys the events it emits, and a timer-id counter. Events are totally
//! ordered by `(at, source rank, source sequence)`, and both execution modes
//! process each actor's events in exactly that order — the sequential engine
//! by merging all lanes globally, the parallel engine lane-locally under the
//! lookahead rule. Parallel runs are therefore **bit-identical** to
//! sequential runs: same [`SimulationReport`], same ledger digests. The
//! golden-seed suite exercises this equivalence as the correctness oracle
//! for the scheduler itself.

use crate::actor::{Actor, ActorId, ActorTable, Context, Outgoing, TimerId};
use crate::faults::FaultPlan;
use crate::topology::Topology;
use crate::wheel::{EventKey, EventWheel};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sharper_common::{
    ClusterId, Duration, LatencyModel, LinkKind, SimTime, ThreadMode, TraceEvent,
};
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex};

/// What happens at a scheduled instant.
#[derive(Debug, Clone)]
enum EventKind<M> {
    /// Deliver a message.
    Deliver {
        /// Sender.
        from: ActorId,
        /// Receiver.
        to: ActorId,
        /// Payload.
        msg: M,
    },
    /// Fire a timer.
    Timer {
        /// Owner of the timer.
        actor: ActorId,
        /// Timer handle.
        id: TimerId,
        /// Actor-chosen tag.
        tag: u64,
    },
    /// Drain an actor's defer queue once its busy period expires.
    Wake {
        /// The actor whose queue to drain.
        actor: ActorId,
    },
}

impl<M> EventKind<M> {
    /// The actor an event is addressed to.
    fn target(&self) -> ActorId {
        match self {
            EventKind::Deliver { to, .. } => *to,
            EventKind::Timer { actor, .. } | EventKind::Wake { actor } => *actor,
        }
    }
}

/// An event staged for another lane's queue.
struct Routed<M> {
    at: SimTime,
    key: EventKey,
    kind: EventKind<M>,
}

/// Statistics about a completed (or partially completed) run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimulationReport {
    /// Messages delivered to handlers.
    pub delivered: usize,
    /// Messages dropped by the fault plan (probabilistic drops, partitions,
    /// crashed senders/receivers).
    pub dropped: usize,
    /// Extra copies delivered because of duplication faults.
    pub duplicated: usize,
    /// Timer expirations fired.
    pub timers_fired: usize,
    /// Events deferred because the target actor was busy.
    pub deferred: usize,
    /// The simulated time when the run stopped.
    pub finished_at: SimTime,
    /// Requests admitted into replica mempools (filled in by the system
    /// layer after the run; the engine itself does not track mempools).
    pub mempool_admitted: u64,
    /// Requests evicted from replica mempools at capacity.
    pub mempool_evicted: u64,
    /// Maximum mempool depth observed on any replica.
    pub mempool_peak_depth: usize,
    /// Median mempool queueing delay across all proposed requests, in µs.
    pub mempool_wait_p50_us: u64,
    /// 95th-percentile mempool queueing delay, in µs.
    pub mempool_wait_p95_us: u64,
    /// 99th-percentile mempool queueing delay, in µs.
    pub mempool_wait_p99_us: u64,
}

impl SimulationReport {
    /// Adds another report's event counters into this one (used to merge
    /// per-lane counters; `finished_at` is set by the engine, not summed).
    ///
    /// Mempool fields merge by their own semantics: admission/eviction
    /// counters sum, peak depth is a maximum (summing depths across lanes
    /// would fabricate a queue that never existed), and the wait percentiles
    /// are deliberately **not** merged — order statistics cannot be combined
    /// lane-wise; the system layer recomputes them from the pooled wait
    /// samples after the run.
    fn absorb(&mut self, other: &SimulationReport) {
        self.delivered += other.delivered;
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
        self.timers_fired += other.timers_fired;
        self.deferred += other.deferred;
        self.mempool_admitted += other.mempool_admitted;
        self.mempool_evicted += other.mempool_evicted;
        self.mempool_peak_depth = self.mempool_peak_depth.max(other.mempool_peak_depth);
    }
}

/// The stable tie-break rank of an actor: nodes sort before clients, each in
/// id order. Together with the per-actor sequence counter this keys every
/// event an actor emits, independent of any global state.
fn rank_of(actor: ActorId) -> u64 {
    match actor {
        ActorId::Node(n) => n.0 as u64,
        ActorId::Client(c) => (1u64 << 63) | c.0,
    }
}

/// SplitMix64: derives an independent per-actor RNG seed from the run seed.
fn mix_seed(seed: u64, rank: u64) -> u64 {
    let mut z = seed ^ rank.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Where a registered actor lives once the run has started: its lane and
/// its index in that lane's actor vector.
#[derive(Debug, Clone, Copy)]
struct Slot {
    lane: usize,
    index: usize,
}

/// Read-only configuration shared by all lanes during a run.
struct SharedCfg {
    topology: Topology,
    latency: LatencyModel,
    faults: FaultPlan,
    /// The slot of each registered actor, assigned by `start()`. Ids nobody
    /// registered — protocols may address replicas that were never built —
    /// have none.
    directory: ActorTable<Slot>,
    /// Whether handlers record trace events (observation only: toggling this
    /// never changes simulation results).
    tracing: bool,
}

impl SharedCfg {
    /// The lane that owns `actor` (unknown actors route to lane 0).
    fn lane_of(&self, actor: ActorId) -> usize {
        self.directory.get(actor).map_or(0, |slot| slot.lane)
    }
}

/// Per-actor simulation state: the actor itself plus everything the engine
/// tracks about it. All of it is private to the actor's lane, which is what
/// makes lane-parallel execution free of shared mutable state.
struct ActorSlot<M, A> {
    actor: A,
    id: ActorId,
    rank: u64,
    /// This actor's private randomness stream (handler seeds and the fault/
    /// jitter draws of the messages it sends).
    rng: ChaCha8Rng,
    /// Sequence counter keying the events this actor emits.
    emit_seq: u64,
    /// Last scheduled arrival on each outgoing link, enforcing FIFO links.
    /// Keyed by the receiver, which need not be a registered actor. An actor
    /// talks to few peers, so the map stays small; a table over all actors
    /// per sender would not (a deployment may hold 100 000 clients).
    link_clock: BTreeMap<ActorId, SimTime>,
    /// Sequence counter stamping the trace events this actor records. Kept
    /// separate from `emit_seq` so enabling tracing never consumes message
    /// keys — which would reorder events and change results.
    trace_seq: u64,
    /// Timer-id counter (timer ids are unique per actor).
    next_timer: u64,
    busy_until: SimTime,
    wake_at: Option<SimTime>,
    defer: VecDeque<EventKind<M>>,
    cancelled: HashSet<TimerId>,
}

impl<M, A> ActorSlot<M, A> {
    fn new(id: ActorId, actor: A, seed: u64) -> Self {
        let rank = rank_of(id);
        Self {
            actor,
            id,
            rank,
            rng: ChaCha8Rng::seed_from_u64(mix_seed(seed, rank)),
            emit_seq: 0,
            link_clock: BTreeMap::new(),
            trace_seq: 0,
            next_timer: 0,
            busy_until: SimTime::ZERO,
            wake_at: None,
            defer: VecDeque::new(),
            cancelled: HashSet::new(),
        }
    }

    /// The `(rank, seq)` key for the next event this actor emits — the single
    /// definition of the key format the determinism contract rests on.
    fn next_key(&mut self) -> EventKey {
        let key = (self.rank, self.emit_seq);
        self.emit_seq += 1;
        key
    }
}

/// The event plumbing of one lane, split from the actors so handler
/// dispatch can borrow an actor and the queues simultaneously.
struct LaneIo<M> {
    index: usize,
    queue: EventWheel<EventKind<M>>,
    /// Events produced for other lanes, flushed by the driver.
    outbound: Vec<(usize, Routed<M>)>,
    counters: SimulationReport,
    /// Trace events recorded by this lane's actors, in lane-local order.
    /// Lane-private like everything else here; the driver merges and sorts
    /// by `(at, rank, seq)` after the run.
    trace: Vec<TraceEvent>,
}

impl<M: Clone> LaneIo<M> {
    /// Enqueues an event locally or stages it for its owning lane.
    fn route(&mut self, shared: &SharedCfg, at: SimTime, key: EventKey, kind: EventKind<M>) {
        let dest = shared.lane_of(kind.target());
        if dest == self.index {
            self.queue.push(at, key, kind);
        } else {
            self.outbound.push((dest, Routed { at, key, kind }));
        }
    }

    /// Sends `msg` from `sender` to `to`, applying sender-side faults,
    /// latency, jitter and the FIFO link clamp. All randomness, the event
    /// keys and the link clocks come from the sender's private state, so the
    /// outcome is independent of global event interleaving.
    fn send_message<A>(
        &mut self,
        shared: &SharedCfg,
        sender: &mut ActorSlot<M, A>,
        to: ActorId,
        msg: M,
        departure: SimTime,
    ) {
        let from = sender.id;
        // Sender-side faults: a crashed sender emits nothing; partitions cut
        // the link at send time.
        if shared.faults.is_crashed(from, departure)
            || shared.faults.is_partitioned(from, to, departure)
        {
            self.counters.dropped += 1;
            return;
        }
        if shared.faults.drop_probability > 0.0
            && sender.rng.gen_bool(shared.faults.drop_probability)
        {
            self.counters.dropped += 1;
            return;
        }
        let kind = shared.topology.link_kind(from, to);
        let mut delay = shared.latency.base(kind);
        if shared.latency.jitter_us > 0 {
            delay += Duration::from_micros(sender.rng.gen_range(0..=shared.latency.jitter_us));
        }
        if shared.faults.extra_delay > Duration::ZERO {
            delay += Duration::from_micros(
                sender
                    .rng
                    .gen_range(0..=shared.faults.extra_delay.as_micros()),
            );
        }
        // Point-to-point links are FIFO (deployments speak TCP): a message may
        // not overtake an earlier message on the same (from, to) link, so the
        // jittered arrival is clamped to the link's previous arrival. Events
        // with equal timestamps keep their send order through the sender's
        // sequence number, preserving FIFO exactly.
        let mut arrival = departure + delay;
        let link_clock = sender.link_clock.entry(to).or_insert(SimTime::ZERO);
        if arrival < *link_clock {
            arrival = *link_clock;
        } else {
            *link_clock = arrival;
        }
        let duplicate = shared.faults.duplicate_probability > 0.0
            && sender.rng.gen_bool(shared.faults.duplicate_probability);
        if duplicate {
            self.counters.duplicated += 1;
            let extra_arrival = arrival + Duration::from_micros(sender.rng.gen_range(1..=1_000));
            let key = sender.next_key();
            self.route(
                shared,
                extra_arrival,
                key,
                EventKind::Deliver {
                    from,
                    to,
                    msg: msg.clone(),
                },
            );
        }
        let key = sender.next_key();
        self.route(shared, arrival, key, EventKind::Deliver { from, to, msg });
    }
}

/// One lane: a set of actors (one cluster's replicas plus its home clients)
/// with their private event queue. Lanes share no mutable state; cross-lane
/// messages travel through [`LaneIo::outbound`] and the driver.
struct Lane<M, A> {
    /// This lane's actors in ascending id order; `SharedCfg::directory`
    /// maps an id to its index here.
    actors: Vec<ActorSlot<M, A>>,
    io: LaneIo<M>,
    now: SimTime,
}

enum Invocation<M> {
    Start,
    Message { from: ActorId, msg: M },
    Timer { id: TimerId, tag: u64 },
}

impl<M: Clone, A: Actor<M>> Lane<M, A> {
    fn new(index: usize) -> Self {
        Self {
            actors: Vec::new(),
            io: LaneIo {
                index,
                queue: EventWheel::new(),
                outbound: Vec::new(),
                counters: SimulationReport::default(),
                trace: Vec::new(),
            },
            now: SimTime::ZERO,
        }
    }

    fn dispatch(&mut self, shared: &SharedCfg, kind: EventKind<M>) {
        let target = kind.target();
        // Events are routed to the lane that owns their target, so a slot
        // found here is always one of this lane's.
        let index = shared.directory.get(target).map(|slot| slot.index);
        if let EventKind::Wake { .. } = kind {
            if let Some(index) = index {
                self.actors[index].wake_at = None;
                self.drain_deferred(shared, index);
            }
            return;
        }
        // A crashed receiver loses its queue: events addressed to it are
        // dropped at arrival, never parked for replay after a recovery.
        if shared.faults.is_crashed(target, self.now) {
            if matches!(kind, EventKind::Deliver { .. }) {
                self.io.counters.dropped += 1;
            }
            return;
        }
        let Some(index) = index else {
            // No such actor: preserve the accounting of a delivery into the
            // void (protocols may address replicas that were never built).
            match kind {
                EventKind::Deliver { .. } => self.io.counters.delivered += 1,
                EventKind::Timer { .. } => self.io.counters.timers_fired += 1,
                EventKind::Wake { .. } => unreachable!("handled above"),
            }
            return;
        };
        let slot = &mut self.actors[index];
        let busy = slot.busy_until > self.now;
        if busy || !slot.defer.is_empty() {
            // Single-server FIFO queueing: the event waits its turn behind
            // the actor's current work and earlier arrivals. It is parked
            // once in the actor's own queue; a single wake event drains it.
            self.io.counters.deferred += 1;
            let wake_at = slot.busy_until.max(self.now);
            slot.defer.push_back(kind);
            self.ensure_wake(shared, index, wake_at);
            return;
        }
        self.process(shared, index, kind);
    }

    /// Executes a Deliver/Timer event against the idle actor at `index`, at
    /// `self.now`.
    fn process(&mut self, shared: &SharedCfg, index: usize, kind: EventKind<M>) {
        match kind {
            EventKind::Deliver { from, to, msg } => {
                if shared.faults.is_crashed(to, self.now) {
                    self.io.counters.dropped += 1;
                    return;
                }
                self.io.counters.delivered += 1;
                self.invoke(shared, index, Invocation::Message { from, msg });
            }
            EventKind::Timer { actor, id, tag } => {
                if self.actors[index].cancelled.remove(&id) {
                    return;
                }
                if shared.faults.is_crashed(actor, self.now) {
                    return;
                }
                self.io.counters.timers_fired += 1;
                self.invoke(shared, index, Invocation::Timer { id, tag });
            }
            EventKind::Wake { .. } => unreachable!("wakes are handled in dispatch"),
        }
    }

    /// Drains the defer queue of the actor at `index` in arrival order for as
    /// long as the actor is free, re-arming a wake at the new busy horizon if
    /// events remain.
    fn drain_deferred(&mut self, shared: &SharedCfg, index: usize) {
        loop {
            let slot = &mut self.actors[index];
            if slot.busy_until > self.now {
                if !slot.defer.is_empty() {
                    let at = slot.busy_until;
                    self.ensure_wake(shared, index, at);
                }
                return;
            }
            let Some(kind) = slot.defer.pop_front() else {
                return;
            };
            self.process(shared, index, kind);
        }
    }

    /// Schedules a wake for the actor at `index` at `at` unless one is
    /// already pending at or before that time.
    fn ensure_wake(&mut self, shared: &SharedCfg, index: usize, at: SimTime) {
        let slot = &mut self.actors[index];
        match slot.wake_at {
            Some(pending) if pending <= at => {}
            _ => {
                slot.wake_at = Some(at);
                let key = slot.next_key();
                let actor = slot.id;
                self.io.route(shared, at, key, EventKind::Wake { actor });
            }
        }
    }

    fn invoke(&mut self, shared: &SharedCfg, index: usize, invocation: Invocation<M>) {
        let now = self.now;
        let slot = &mut self.actors[index];
        let target = slot.id;
        let mut ctx = Context::new(now, target, slot.rng.gen(), slot.next_timer);
        if shared.tracing {
            ctx.enable_tracing();
        }
        match invocation {
            Invocation::Start => slot.actor.on_start(&mut ctx),
            Invocation::Message { from, msg } => slot.actor.on_message(from, msg, &mut ctx),
            Invocation::Timer { id, tag } => slot.actor.on_timer(id, tag, &mut ctx),
        }
        slot.next_timer = ctx.next_timer;
        let finish = now + ctx.charged();
        slot.busy_until = finish;

        // Stamp the recorded trace events with the handler's sim time, the
        // actor's rank and its private trace sequence — the `(at, rank, seq)`
        // triple that totally orders merged traces regardless of which lane
        // or worker ran the handler.
        if shared.tracing {
            for kind in ctx.take_trace() {
                let seq = slot.trace_seq;
                slot.trace_seq += 1;
                self.io.trace.push(TraceEvent {
                    at: now,
                    rank: slot.rank,
                    seq,
                    kind,
                });
            }
        }

        for id in ctx.cancelled_timers.drain(..) {
            slot.cancelled.insert(id);
        }
        let new_timers = std::mem::take(&mut ctx.new_timers);
        for (id, delay, tag) in new_timers {
            let key = slot.next_key();
            self.io.route(
                shared,
                finish + delay,
                key,
                EventKind::Timer {
                    actor: target,
                    id,
                    tag,
                },
            );
        }
        for out in std::mem::take(&mut ctx.outbox) {
            match out {
                Outgoing::Unicast(to, msg) => {
                    self.io.send_message(shared, slot, to, msg, finish);
                }
                Outgoing::Broadcast(recipients, msg) => {
                    // One payload shared by the whole fan-out: clone per
                    // delivery event (an Arc bump for messages that keep
                    // bulky fields behind Arc), moving it into the last.
                    if let Some((&last, rest)) = recipients.split_last() {
                        for &to in rest {
                            self.io.send_message(shared, slot, to, msg.clone(), finish);
                        }
                        self.io.send_message(shared, slot, last, msg, finish);
                    }
                }
            }
        }
    }
}

/// The discrete-event simulator.
///
/// `M` is the message type exchanged by the actors, `A` the actor type
/// (systems typically use an enum covering replicas and clients). Both must
/// be `Send` so lanes can run on worker threads; all actor state remains
/// lane-private, so no `Sync` is required of the actors themselves.
pub struct Simulation<M, A: Actor<M>> {
    /// Construction-time inputs, consumed by `start()`.
    topology: Option<Topology>,
    latency: LatencyModel,
    faults: Option<FaultPlan>,
    seed: u64,
    threads: ThreadMode,
    tracing: bool,
    /// Actors registered before `start()`.
    pending: BTreeMap<ActorId, A>,
    lanes: Vec<Lane<M, A>>,
    shared: Option<Arc<SharedCfg>>,
    /// Minimum base latency of any cross-lane link (µs); `u64::MAX` when no
    /// cross-lane link can exist.
    lookahead_us: u64,
    now: SimTime,
    started: bool,
}

impl<M: Clone + Send, A: Actor<M> + Send> Simulation<M, A> {
    /// Creates a simulation over the given topology and models, seeded so the
    /// run is reproducible. Runs sequentially unless a parallel
    /// [`ThreadMode`] is selected with [`Self::with_threads`] — the mode
    /// changes wall-clock time only, never the simulation's outcome.
    pub fn new(topology: Topology, latency: LatencyModel, faults: FaultPlan, seed: u64) -> Self {
        Self {
            topology: Some(topology),
            latency,
            faults: Some(faults),
            seed,
            threads: ThreadMode::Sequential,
            tracing: false,
            pending: BTreeMap::new(),
            lanes: Vec::new(),
            shared: None,
            lookahead_us: u64::MAX,
            now: SimTime::ZERO,
            started: false,
        }
    }

    /// Selects the execution strategy (builder style). Must be called before
    /// the simulation starts.
    pub fn with_threads(mut self, threads: ThreadMode) -> Self {
        assert!(
            !self.started,
            "thread mode must be set before the run starts"
        );
        self.threads = threads;
        self
    }

    /// Enables trace recording (builder style). Must be set before the run
    /// starts. Tracing only observes — it cannot change results.
    pub fn with_tracing(mut self, tracing: bool) -> Self {
        assert!(!self.started, "tracing must be set before the run starts");
        self.tracing = tracing;
        self
    }

    /// Drains the trace recorded so far, merged across lanes and sorted into
    /// the canonical `(at, rank, seq)` order — the same byte stream in every
    /// [`ThreadMode`]. Empty when tracing is disabled.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        let mut events: Vec<TraceEvent> = self
            .lanes
            .iter_mut()
            .flat_map(|lane| lane.io.trace.drain(..))
            .collect();
        events.sort_by_key(TraceEvent::key);
        events
    }

    /// Registers an actor. Panics if an actor with the same id already exists.
    pub fn add_actor(&mut self, actor: A) {
        assert!(!self.started, "actors must be added before the run starts");
        let id = actor.id();
        let previous = self.pending.insert(id, actor);
        assert!(previous.is_none(), "duplicate actor {id}");
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Read access to an actor (for post-run inspection and assertions).
    pub fn actor(&self, id: impl Into<ActorId>) -> Option<&A> {
        let id = id.into();
        if let Some(actor) = self.pending.get(&id) {
            return Some(actor);
        }
        let slot = self.shared.as_ref()?.directory.get(id)?;
        Some(&self.lanes[slot.lane].actors[slot.index].actor)
    }

    /// Mutable access to an actor (used by tests to inject state).
    pub fn actor_mut(&mut self, id: impl Into<ActorId>) -> Option<&mut A> {
        let id = id.into();
        if let Some(actor) = self.pending.get_mut(&id) {
            return Some(actor);
        }
        let slot = self.shared.as_ref()?.directory.get(id)?;
        Some(&mut self.lanes[slot.lane].actors[slot.index].actor)
    }

    /// Iterates over all actors in ascending id order.
    pub fn actors(&self) -> impl Iterator<Item = &A> {
        let mut all: Vec<(ActorId, &A)> = self
            .pending
            .iter()
            .map(|(id, actor)| (*id, actor))
            .chain(
                self.lanes
                    .iter()
                    .flat_map(|lane| lane.actors.iter().map(|slot| (slot.id, &slot.actor))),
            )
            .collect();
        all.sort_by_key(|(id, _)| *id);
        all.into_iter().map(|(_, actor)| actor)
    }

    /// Consumes the simulation and returns its actors in ascending id order
    /// (for final auditing).
    pub fn into_actors(self) -> Vec<A> {
        let mut all: BTreeMap<ActorId, A> = self.pending.into_iter().collect();
        for lane in self.lanes {
            for slot in lane.actors {
                all.insert(slot.id, slot.actor);
            }
        }
        all.into_values().collect()
    }

    /// The report accumulated so far.
    pub fn report(&self) -> SimulationReport {
        let mut report = SimulationReport::default();
        for lane in &self.lanes {
            report.absorb(&lane.io.counters);
        }
        report.finished_at = self.now;
        report
    }

    /// Number of events currently queued.
    pub fn pending_events(&self) -> usize {
        self.lanes.iter().map(|lane| lane.io.queue.len()).sum()
    }

    /// The number of lanes (parallel workers) this simulation partitioned
    /// its actors into. Zero before the simulation starts.
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// The lookahead of the conservative scheduler: the minimum base latency
    /// of any link that can cross lanes. `None` before the simulation starts
    /// or when no cross-lane link exists.
    pub fn lookahead(&self) -> Option<Duration> {
        if self.started && self.lookahead_us != u64::MAX {
            Some(Duration::from_micros(self.lookahead_us))
        } else {
            None
        }
    }

    /// Runs every actor's `on_start` handler at time zero. Called
    /// automatically by [`Self::run_until`] if it has not run yet.
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        let topology = self.topology.take().expect("topology present until start");
        let faults = self.faults.take().expect("faults present until start");

        // Partition actors into lanes by their cluster. The partition can
        // never change results — only which worker executes an actor — so
        // sequential mode simply collapses everything into one lane.
        let mut clusters: Vec<ClusterId> = self
            .pending
            .keys()
            .filter_map(|&id| topology.location(id))
            .collect();
        clusters.sort_unstable();
        clusters.dedup();
        let lane_count = match self.threads {
            ThreadMode::Sequential | ThreadMode::Fixed(0 | 1) => 1,
            ThreadMode::PerCluster => clusters.len().max(1),
            ThreadMode::Fixed(n) => n.min(clusters.len()).max(1),
        };

        // Give every actor its slot: lanes take their actors in ascending id
        // order, and the directory remembers where each one went.
        self.lanes = (0..lane_count).map(Lane::new).collect();
        let mut directory = ActorTable::default();
        for (id, actor) in std::mem::take(&mut self.pending) {
            let lane = topology
                .location(id)
                .and_then(|c| clusters.binary_search(&c).ok())
                .map_or(0, |i| i % lane_count);
            let actors = &mut self.lanes[lane].actors;
            let index = actors.len();
            directory.insert(id, Slot { lane, index });
            actors.push(ActorSlot::new(id, actor, self.seed));
        }

        // Lookahead: the minimum base latency of any link that can connect
        // two different lanes. Replicas of one cluster always share a lane,
        // so only cross-cluster and client links count.
        let mut lookahead = u64::MAX;
        if lane_count > 1 {
            let lanes_holding = |node: bool| {
                let holds = |slot: &ActorSlot<M, A>| matches!(slot.id, ActorId::Node(_)) == node;
                self.lanes
                    .iter()
                    .filter(|lane| lane.actors.iter().any(holds))
                    .count()
            };
            if lanes_holding(true) > 1 {
                lookahead = lookahead.min(self.latency.base(LinkKind::CrossCluster).as_micros());
            }
            if lanes_holding(false) > 0 {
                lookahead = lookahead.min(self.latency.base(LinkKind::ClientToNode).as_micros());
            }
        }
        self.lookahead_us = lookahead;

        let shared = Arc::new(SharedCfg {
            topology,
            latency: self.latency,
            faults,
            directory,
            tracing: self.tracing,
        });

        // Start every actor at time zero, then route the resulting events to
        // their owning lanes (this happens on the driver thread, before any
        // worker runs, so start order cannot introduce nondeterminism — all
        // per-actor state is independent).
        for lane in &mut self.lanes {
            for index in 0..lane.actors.len() {
                lane.invoke(&shared, index, Invocation::Start);
            }
        }
        self.shared = Some(shared);
        self.flush_outbound();
    }

    /// Moves every staged cross-lane event into its destination lane's queue
    /// (sequential driver only; parallel workers flush through inboxes).
    fn flush_outbound(&mut self) {
        for i in 0..self.lanes.len() {
            let staged = std::mem::take(&mut self.lanes[i].io.outbound);
            for (dest, routed) in staged {
                self.lanes[dest]
                    .io
                    .queue
                    .push(routed.at, routed.key, routed.kind);
            }
        }
    }

    /// Runs the simulation until `end` (inclusive) or until no events remain.
    ///
    /// With a parallel [`ThreadMode`] and more than one lane this executes
    /// the lanes on worker threads under the conservative lookahead rule;
    /// the results are bit-identical to a sequential run.
    pub fn run_until(&mut self, end: SimTime) -> SimulationReport {
        self.start();
        if self.lanes.len() > 1 && self.threads.is_parallel() && self.lookahead_us > 0 {
            self.run_parallel(end);
        } else {
            self.run_sequential(end, usize::MAX);
        }
        if self.now < end {
            self.now = end;
        }
        self.report()
    }

    /// Runs until the event queue is empty or `max_events` have been
    /// processed (a safety valve for tests). Always executes on the calling
    /// thread, merging lanes in global timestamp order.
    pub fn run_to_quiescence(&mut self, max_events: usize) -> SimulationReport {
        self.start();
        self.run_sequential(SimTime(u64::MAX), max_events);
        self.report()
    }

    /// The sequential driver: repeatedly pops the globally earliest event
    /// across all lanes (by `(at, key)`), which reproduces exactly the order
    /// each lane processes its own events in under the parallel scheduler.
    fn run_sequential(&mut self, end: SimTime, max_events: usize) {
        let shared = Arc::clone(self.shared.as_ref().expect("started"));
        let mut processed = 0usize;
        while processed < max_events {
            let mut best: Option<(SimTime, EventKey, usize)> = None;
            for (i, lane) in self.lanes.iter_mut().enumerate() {
                if let Some((at, key)) = lane.io.queue.peek() {
                    if best.is_none_or(|(b_at, b_key, _)| (at, key) < (b_at, b_key)) {
                        best = Some((at, key, i));
                    }
                }
            }
            let Some((at, _, i)) = best else { break };
            if at > end {
                break;
            }
            let (_, _, kind) = self.lanes[i].io.queue.pop().expect("peeked");
            self.lanes[i].now = at;
            self.now = at;
            self.lanes[i].dispatch(&shared, kind);
            if !self.lanes[i].io.outbound.is_empty() {
                self.flush_outbound();
            }
            processed += 1;
        }
    }

    /// The conservative parallel driver: one worker per lane, synchronized
    /// only through per-lane "earliest output time" clocks and inboxes.
    fn run_parallel(&mut self, end: SimTime) {
        let lane_count = self.lanes.len();
        let shared = Arc::clone(self.shared.as_ref().expect("started"));
        let lookahead = self.lookahead_us;
        // eot[i]: lane i promises every message it has not yet flushed will
        // arrive at or after this time. Monotonically non-decreasing;
        // u64::MAX once the lane has finished.
        let eots: Vec<AtomicU64> = (0..lane_count).map(|_| AtomicU64::new(0)).collect();
        let inboxes: Vec<Mutex<Vec<Routed<M>>>> =
            (0..lane_count).map(|_| Mutex::new(Vec::new())).collect();

        std::thread::scope(|scope| {
            for (index, lane) in self.lanes.iter_mut().enumerate() {
                let shared = &shared;
                let eots = &eots;
                let inboxes = &inboxes;
                scope.spawn(move || {
                    lane_worker(index, lane, shared.as_ref(), eots, inboxes, lookahead, end);
                });
            }
        });

        // Messages flushed after their destination lane finished (arrivals
        // beyond `end`) are still pending: preserve them for a later run.
        for (i, inbox) in inboxes.iter().enumerate() {
            let mut inbox = inbox.lock().unwrap_or_else(|e| e.into_inner());
            for routed in inbox.drain(..) {
                self.lanes[i]
                    .io
                    .queue
                    .push(routed.at, routed.key, routed.kind);
            }
        }
        self.now = end.max(self.now);
    }
}

/// The body of one parallel worker: processes its lane's events inside the
/// safe window allowed by the other lanes' clocks, flushes cross-lane
/// messages to inboxes, and publishes its own earliest-output-time.
fn lane_worker<M: Clone, A: Actor<M>>(
    index: usize,
    lane: &mut Lane<M, A>,
    shared: &SharedCfg,
    eots: &[AtomicU64],
    inboxes: &[Mutex<Vec<Routed<M>>>],
    lookahead: u64,
    end: SimTime,
) {
    let mut published = 0u64;
    let mut idle_spins = 0u32;
    loop {
        // Safe horizon: no other lane will ever send us an event arriving
        // before `ext`. Read the clocks *before* draining the inbox: any
        // message relevant below `ext` was flushed before its sender
        // published the clock value we just read, so the drain sees it.
        let mut ext = u64::MAX;
        for (j, eot) in eots.iter().enumerate() {
            if j != index {
                ext = ext.min(eot.load(AtomicOrdering::Acquire));
            }
        }
        {
            let mut inbox = inboxes[index].lock().unwrap_or_else(|e| e.into_inner());
            for routed in inbox.drain(..) {
                lane.io.queue.push(routed.at, routed.key, routed.kind);
            }
        }

        // Process every local event strictly inside the safe window. Events
        // generated along the way either join the local queue (and are
        // processed in order) or are flushed to their lane's inbox before we
        // raise our clock, keeping the earliest-output-time promise.
        let mut progressed = false;
        while let Some((at, _)) = lane.io.queue.peek() {
            if at.as_micros() >= ext || at > end {
                break;
            }
            let (_, _, kind) = lane.io.queue.pop().expect("peeked");
            lane.now = at;
            lane.dispatch(shared, kind);
            progressed = true;
            if !lane.io.outbound.is_empty() {
                for (dest, routed) in lane.io.outbound.drain(..) {
                    let mut inbox = inboxes[dest].lock().unwrap_or_else(|e| e.into_inner());
                    inbox.push(routed);
                }
            }
        }

        let next_local = lane.io.queue.peek_at().map_or(u64::MAX, SimTime::as_micros);
        // Low-water mark: no event this lane will ever process is earlier
        // than this, so nothing it sends arrives before lwm + lookahead.
        let lwm = next_local.min(ext);
        if lwm > end.as_micros() {
            // Neither local events nor possible future arrivals are due on
            // or before `end`: the lane is done. Publishing MAX releases
            // every other lane from waiting on us.
            eots[index].store(u64::MAX, AtomicOrdering::Release);
            return;
        }
        let eot = lwm.saturating_add(lookahead);
        if eot > published {
            published = eot;
            eots[index].store(eot, AtomicOrdering::Release);
        }
        if progressed {
            idle_spins = 0;
        } else {
            // Another lane owns the earliest event; wait for its clock to
            // advance. Yield first, then back off to short sleeps so a
            // starved core (or an oversubscribed machine) is not burned on
            // spinning.
            idle_spins += 1;
            if idle_spins < 64 {
                std::thread::yield_now();
            } else {
                std::thread::sleep(std::time::Duration::from_micros(50));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharper_common::{ClientId, FailureModel, NodeId, SystemConfig};

    /// A ping-pong actor used to exercise the engine.
    #[derive(Debug)]
    struct PingPong {
        id: ActorId,
        peer: ActorId,
        initiator: bool,
        received: usize,
        max_rounds: usize,
        per_message_cost: Duration,
        timer_fired: bool,
        last_timer_tag: u64,
    }

    impl PingPong {
        fn new(id: ActorId, peer: ActorId, initiator: bool) -> Self {
            Self {
                id,
                peer,
                initiator,
                received: 0,
                max_rounds: 10,
                per_message_cost: Duration::from_micros(100),
                timer_fired: false,
                last_timer_tag: 0,
            }
        }
    }

    impl Actor<u64> for PingPong {
        fn id(&self) -> ActorId {
            self.id
        }

        fn on_start(&mut self, ctx: &mut Context<u64>) {
            if self.initiator {
                ctx.send(self.peer, 0);
                ctx.set_timer(Duration::from_millis(500), 7);
            }
        }

        fn on_message(&mut self, from: ActorId, msg: u64, ctx: &mut Context<u64>) {
            assert_eq!(from, self.peer);
            self.received += 1;
            ctx.trace(|| sharper_common::TraceKind::Commit { batch: msg });
            ctx.charge(self.per_message_cost);
            if (msg as usize) < self.max_rounds {
                ctx.send(self.peer, msg + 1);
            }
        }

        fn on_timer(&mut self, _timer: TimerId, tag: u64, _ctx: &mut Context<u64>) {
            self.timer_fired = true;
            self.last_timer_tag = tag;
        }
    }

    fn two_node_topology() -> Topology {
        let cfg = SystemConfig::uniform(FailureModel::Crash, 1, 1).unwrap();
        Topology::from_config(&cfg)
    }

    fn sim(faults: FaultPlan) -> Simulation<u64, PingPong> {
        let mut s = Simulation::new(two_node_topology(), LatencyModel::default(), faults, 1);
        let a = ActorId::Node(NodeId(0));
        let b = ActorId::Node(NodeId(1));
        s.add_actor(PingPong::new(a, b, true));
        s.add_actor(PingPong::new(b, a, false));
        s
    }

    #[test]
    fn ping_pong_completes_and_time_advances() {
        let mut s = sim(FaultPlan::none());
        let report = s.run_until(SimTime::from_secs(10));
        // 11 messages are exchanged in total (0..=10).
        assert_eq!(report.delivered, 11);
        assert_eq!(report.dropped, 0);
        let a = s.actor(NodeId(0)).unwrap();
        let b = s.actor(NodeId(1)).unwrap();
        assert_eq!(a.received + b.received, 11);
        assert!(a.timer_fired);
        assert_eq!(a.last_timer_tag, 7);
        assert!(report.finished_at >= SimTime::from_millis(5));
        assert_eq!(s.pending_events(), 0);
    }

    #[test]
    fn runs_are_deterministic_for_a_fixed_seed() {
        let run = |seed: u64| {
            let mut s = Simulation::new(
                two_node_topology(),
                LatencyModel::default(),
                FaultPlan::none().with_drop_probability(0.2),
                seed,
            );
            let a = ActorId::Node(NodeId(0));
            let b = ActorId::Node(NodeId(1));
            s.add_actor(PingPong::new(a, b, true));
            s.add_actor(PingPong::new(b, a, false));
            let r = s.run_until(SimTime::from_secs(10));
            (r.delivered, r.dropped, r.finished_at)
        };
        assert_eq!(run(5), run(5));
        // Different seeds are very likely to behave differently with drops.
        let baseline = run(5);
        let mut any_different = false;
        for seed in 6..12 {
            if run(seed) != baseline {
                any_different = true;
                break;
            }
        }
        assert!(any_different, "drop faults should depend on the seed");
    }

    #[test]
    fn crashed_receiver_drops_messages() {
        let faults = FaultPlan::none().with_crash(NodeId(1), SimTime::ZERO);
        let mut s = sim(faults);
        let report = s.run_until(SimTime::from_secs(5));
        assert_eq!(report.delivered, 0);
        assert_eq!(report.dropped, 1);
        assert_eq!(s.actor(NodeId(1)).unwrap().received, 0);
    }

    #[test]
    fn partition_blocks_cross_group_traffic() {
        use crate::faults::Partition;
        let faults = FaultPlan::none().with_partition(Partition {
            group_a: vec![ActorId::Node(NodeId(0))],
            group_b: vec![ActorId::Node(NodeId(1))],
            from: SimTime::ZERO,
            until: SimTime::from_secs(100),
        });
        let mut s = sim(faults);
        let report = s.run_until(SimTime::from_secs(5));
        assert_eq!(report.delivered, 0);
        assert!(report.dropped >= 1);
    }

    #[test]
    fn busy_actor_defers_messages() {
        // Give the responder an enormous per-message cost and flood it.
        #[derive(Debug)]
        struct Flooder {
            id: ActorId,
            peer: ActorId,
        }
        impl Actor<u64> for Flooder {
            fn id(&self) -> ActorId {
                self.id
            }
            fn on_start(&mut self, ctx: &mut Context<u64>) {
                for i in 0..20 {
                    ctx.send(self.peer, i);
                }
            }
            fn on_message(&mut self, _f: ActorId, _m: u64, _c: &mut Context<u64>) {}
            fn on_timer(&mut self, _t: TimerId, _tag: u64, _c: &mut Context<u64>) {}
        }
        #[derive(Debug)]
        struct Slow {
            id: ActorId,
            handled: usize,
        }
        impl Actor<u64> for Slow {
            fn id(&self) -> ActorId {
                self.id
            }
            fn on_message(&mut self, _f: ActorId, _m: u64, ctx: &mut Context<u64>) {
                self.handled += 1;
                ctx.charge(Duration::from_millis(10));
            }
            fn on_timer(&mut self, _t: TimerId, _tag: u64, _c: &mut Context<u64>) {}
        }

        #[derive(Debug)]
        enum Mixed {
            F(Flooder),
            S(Slow),
        }
        impl Actor<u64> for Mixed {
            fn id(&self) -> ActorId {
                match self {
                    Mixed::F(f) => f.id(),
                    Mixed::S(s) => s.id(),
                }
            }
            fn on_start(&mut self, ctx: &mut Context<u64>) {
                if let Mixed::F(f) = self {
                    f.on_start(ctx)
                }
            }
            fn on_message(&mut self, from: ActorId, msg: u64, ctx: &mut Context<u64>) {
                match self {
                    Mixed::F(f) => f.on_message(from, msg, ctx),
                    Mixed::S(s) => s.on_message(from, msg, ctx),
                }
            }
            fn on_timer(&mut self, t: TimerId, tag: u64, ctx: &mut Context<u64>) {
                match self {
                    Mixed::F(f) => f.on_timer(t, tag, ctx),
                    Mixed::S(s) => s.on_timer(t, tag, ctx),
                }
            }
        }

        let mut s: Simulation<u64, Mixed> = Simulation::new(
            two_node_topology(),
            LatencyModel::zero(),
            FaultPlan::none(),
            3,
        );
        s.add_actor(Mixed::F(Flooder {
            id: ActorId::Node(NodeId(0)),
            peer: ActorId::Node(NodeId(1)),
        }));
        s.add_actor(Mixed::S(Slow {
            id: ActorId::Node(NodeId(1)),
            handled: 0,
        }));
        let report = s.run_until(SimTime::from_secs(10));
        assert_eq!(report.delivered, 20);
        assert!(report.deferred > 0, "queueing must defer messages");
        // 20 messages × 10 ms service time ⇒ the last one finishes at ≥190 ms.
        assert!(report.finished_at >= SimTime::from_millis(190));
        match s.actor(NodeId(1)).unwrap() {
            Mixed::S(slow) => assert_eq!(slow.handled, 20),
            Mixed::F(_) => panic!("wrong actor"),
        }
    }

    #[test]
    fn busy_actor_drains_deferred_events_in_fifo_arrival_order() {
        // Two flooders race to a slow receiver; every message carries its
        // arrival rank. The per-actor defer queue must hand the backlog to
        // the receiver in exactly arrival order, even though the receiver is
        // busy for 10 ms per message and the backlog spans many busy periods.
        #[derive(Debug)]
        enum Node {
            Flooder {
                id: ActorId,
                peer: ActorId,
                base: u64,
            },
            Slow {
                id: ActorId,
                seen: Vec<u64>,
            },
        }
        impl Actor<u64> for Node {
            fn id(&self) -> ActorId {
                match self {
                    Node::Flooder { id, .. } | Node::Slow { id, .. } => *id,
                }
            }
            fn on_start(&mut self, ctx: &mut Context<u64>) {
                if let Node::Flooder { peer, base, .. } = self {
                    for i in 0..10 {
                        ctx.send(*peer, *base + i);
                    }
                }
            }
            fn on_message(&mut self, _f: ActorId, msg: u64, ctx: &mut Context<u64>) {
                if let Node::Slow { seen, .. } = self {
                    seen.push(msg);
                    ctx.charge(Duration::from_millis(10));
                }
            }
            fn on_timer(&mut self, _t: TimerId, _tag: u64, _c: &mut Context<u64>) {}
        }

        let cfg = SystemConfig::uniform(FailureModel::Crash, 1, 1).unwrap();
        let mut s: Simulation<u64, Node> = Simulation::new(
            Topology::from_config(&cfg),
            LatencyModel::zero(),
            FaultPlan::none(),
            11,
        );
        let slow = ActorId::Node(NodeId(2));
        s.add_actor(Node::Flooder {
            id: ActorId::Node(NodeId(0)),
            peer: slow,
            base: 0,
        });
        s.add_actor(Node::Flooder {
            id: ActorId::Node(NodeId(1)),
            peer: slow,
            base: 100,
        });
        s.add_actor(Node::Slow {
            id: slow,
            seen: Vec::new(),
        });
        let report = s.run_until(SimTime::from_secs(10));
        assert_eq!(report.delivered, 20);
        assert!(report.deferred > 0, "the slow actor must queue a backlog");
        let Node::Slow { seen, .. } = s.actor(NodeId(2)).unwrap() else {
            panic!("wrong actor");
        };
        // With zero latency all messages arrive at t=0 in send order: actor 0
        // has the lower source rank, so ranks 0..9 precede 100..109.
        let expected: Vec<u64> = (0..10).chain(100..110).collect();
        assert_eq!(seen, &expected, "backlog must drain in arrival order");
    }

    #[test]
    fn broadcast_shares_one_payload_allocation_across_recipients() {
        use std::sync::Arc;

        type Payload = Arc<Vec<u8>>;

        #[derive(Debug)]
        enum Node {
            Sender { id: ActorId, peers: Vec<ActorId> },
            Receiver { id: ActorId, got: Option<Payload> },
        }
        impl Actor<Payload> for Node {
            fn id(&self) -> ActorId {
                match self {
                    Node::Sender { id, .. } | Node::Receiver { id, .. } => *id,
                }
            }
            fn on_start(&mut self, ctx: &mut Context<Payload>) {
                if let Node::Sender { peers, .. } = self {
                    ctx.broadcast(peers.clone(), Arc::new(vec![0xAB; 4096]));
                }
            }
            fn on_message(&mut self, _f: ActorId, msg: Payload, _c: &mut Context<Payload>) {
                if let Node::Receiver { got, .. } = self {
                    *got = Some(msg);
                }
            }
            fn on_timer(&mut self, _t: TimerId, _tag: u64, _c: &mut Context<Payload>) {}
        }

        let cfg = SystemConfig::uniform(FailureModel::Crash, 2, 1).unwrap();
        let mut s: Simulation<Payload, Node> = Simulation::new(
            Topology::from_config(&cfg),
            LatencyModel::default(),
            FaultPlan::none(),
            5,
        );
        let peers: Vec<ActorId> = (1..4).map(|n| ActorId::Node(NodeId(n))).collect();
        s.add_actor(Node::Sender {
            id: ActorId::Node(NodeId(0)),
            peers: peers.clone(),
        });
        for p in &peers {
            s.add_actor(Node::Receiver { id: *p, got: None });
        }
        s.run_until(SimTime::from_secs(1));
        let received: Vec<&Payload> = peers
            .iter()
            .map(|p| match s.actor(*p).unwrap() {
                Node::Receiver { got: Some(m), .. } => m,
                _ => panic!("receiver {p} got nothing"),
            })
            .collect();
        // Every recipient holds the same allocation: the fan-out cloned the
        // Arc, never the 4 KiB payload.
        for pair in received.windows(2) {
            assert!(Arc::ptr_eq(pair[0], pair[1]));
        }
    }

    #[test]
    fn cancelled_timers_do_not_fire() {
        #[derive(Debug)]
        struct T {
            id: ActorId,
            fired: usize,
        }
        impl Actor<()> for T {
            fn id(&self) -> ActorId {
                self.id
            }
            fn on_start(&mut self, ctx: &mut Context<()>) {
                let a = ctx.set_timer(Duration::from_millis(10), 1);
                let _b = ctx.set_timer(Duration::from_millis(20), 2);
                ctx.cancel_timer(a);
            }
            fn on_message(&mut self, _f: ActorId, _m: (), _c: &mut Context<()>) {}
            fn on_timer(&mut self, _t: TimerId, tag: u64, _c: &mut Context<()>) {
                assert_eq!(tag, 2, "cancelled timer must not fire");
                self.fired += 1;
            }
        }
        let mut s: Simulation<(), T> = Simulation::new(
            Topology::default(),
            LatencyModel::zero(),
            FaultPlan::none(),
            0,
        );
        s.add_actor(T {
            id: ActorId::Client(ClientId(1)),
            fired: 0,
        });
        s.run_until(SimTime::from_secs(1));
        assert_eq!(s.actor(ClientId(1)).unwrap().fired, 1);
    }

    #[test]
    fn run_to_quiescence_respects_event_budget() {
        let mut s = sim(FaultPlan::none());
        let report = s.run_to_quiescence(3);
        assert!(report.delivered <= 3);
    }

    #[test]
    #[should_panic(expected = "duplicate actor")]
    fn duplicate_actor_ids_panic() {
        let mut s = sim(FaultPlan::none());
        s.add_actor(PingPong::new(
            ActorId::Node(NodeId(0)),
            ActorId::Node(NodeId(1)),
            false,
        ));
    }

    #[test]
    fn duplication_fault_delivers_extra_copies() {
        let faults = FaultPlan::none().with_duplicate_probability(1.0);
        let mut s = sim(faults);
        let report = s.run_until(SimTime::from_secs(10));
        assert!(report.duplicated > 0);
        assert!(report.delivered > 11);
    }

    /// Two clusters of cross-cluster ping-pong pairs, used to compare the
    /// sequential and parallel schedulers event for event.
    fn cross_cluster_sim(threads: ThreadMode, faults: FaultPlan) -> Simulation<u64, PingPong> {
        let cfg = SystemConfig::uniform(FailureModel::Crash, 2, 1).unwrap();
        let mut s = Simulation::new(
            Topology::from_config(&cfg),
            LatencyModel::default(),
            faults,
            42,
        )
        .with_threads(threads);
        // Pair node i of cluster 0 with node 3 + i of cluster 1.
        for i in 0..3u32 {
            let a = ActorId::Node(NodeId(i));
            let b = ActorId::Node(NodeId(3 + i));
            s.add_actor(PingPong::new(a, b, true));
            s.add_actor(PingPong::new(b, a, false));
        }
        s
    }

    #[test]
    fn parallel_run_matches_sequential_run_bit_for_bit() {
        for faults in [
            FaultPlan::none(),
            FaultPlan::none()
                .with_drop_probability(0.1)
                .with_duplicate_probability(0.1)
                .with_extra_delay(Duration::from_millis(1)),
        ] {
            let mut seq = cross_cluster_sim(ThreadMode::Sequential, faults.clone());
            let mut par = cross_cluster_sim(ThreadMode::PerCluster, faults);
            let end = SimTime::from_secs(2);
            let seq_report = seq.run_until(end);
            let par_report = par.run_until(end);
            assert_eq!(seq_report, par_report, "reports must be bit-identical");
            assert_eq!(par.lane_count(), 2);
            assert_eq!(
                par.lookahead(),
                Some(Duration::from_micros(
                    LatencyModel::default().cross_cluster_us
                ))
            );
            for i in 0..6u32 {
                let a = seq.actor(NodeId(i)).unwrap();
                let b = par.actor(NodeId(i)).unwrap();
                assert_eq!(a.received, b.received, "actor n{i} diverged");
            }
        }
    }

    #[test]
    fn absorb_pins_mempool_merge_semantics() {
        // Counters sum, peak depth merges via max, and the wait percentiles
        // are left alone: order statistics must be recomputed from pooled
        // samples, never combined lane-wise.
        let mut a = SimulationReport {
            delivered: 3,
            mempool_admitted: 10,
            mempool_evicted: 1,
            mempool_peak_depth: 7,
            mempool_wait_p50_us: 100,
            mempool_wait_p95_us: 200,
            mempool_wait_p99_us: 300,
            ..SimulationReport::default()
        };
        let b = SimulationReport {
            delivered: 2,
            mempool_admitted: 5,
            mempool_evicted: 2,
            mempool_peak_depth: 4,
            mempool_wait_p50_us: 900,
            mempool_wait_p95_us: 900,
            mempool_wait_p99_us: 900,
            ..SimulationReport::default()
        };
        a.absorb(&b);
        assert_eq!(a.delivered, 5);
        assert_eq!(a.mempool_admitted, 15);
        assert_eq!(a.mempool_evicted, 3);
        assert_eq!(a.mempool_peak_depth, 7, "peak depth merges via max");
        assert_eq!(a.mempool_wait_p50_us, 100, "percentiles must not be summed");
        assert_eq!(a.mempool_wait_p95_us, 200);
        assert_eq!(a.mempool_wait_p99_us, 300);

        // The deeper lane wins the peak regardless of absorb order.
        let mut c = SimulationReport::default();
        c.absorb(&b);
        assert_eq!(c.mempool_peak_depth, 4);
    }

    #[test]
    fn traces_are_bit_identical_across_thread_modes() {
        let end = SimTime::from_secs(2);
        let faults = FaultPlan::none()
            .with_drop_probability(0.1)
            .with_extra_delay(Duration::from_millis(1));
        let run = |threads: ThreadMode| {
            let mut s = cross_cluster_sim(threads, faults.clone()).with_tracing(true);
            s.run_until(end);
            s.take_trace()
        };
        let seq = run(ThreadMode::Sequential);
        assert!(!seq.is_empty(), "traced handlers must record events");
        let par = run(ThreadMode::PerCluster);
        let fixed = run(ThreadMode::Fixed(2));
        assert_eq!(seq, par, "per-cluster trace diverged from sequential");
        assert_eq!(seq, fixed, "fixed-2 trace diverged from sequential");
        // The serialized byte streams are identical too — this is the exact
        // property the CI determinism gate asserts on the full system.
        let jsonl = sharper_common::trace_to_jsonl(&seq);
        assert_eq!(jsonl, sharper_common::trace_to_jsonl(&par));
        // Ordering is canonical.
        let mut sorted = seq.clone();
        sorted.sort_by_key(TraceEvent::key);
        assert_eq!(seq, sorted);
    }

    #[test]
    fn disabled_tracing_records_nothing_and_changes_nothing() {
        let end = SimTime::from_secs(2);
        let mut traced =
            cross_cluster_sim(ThreadMode::Sequential, FaultPlan::none()).with_tracing(true);
        let mut untraced = cross_cluster_sim(ThreadMode::Sequential, FaultPlan::none());
        let r_on = traced.run_until(end);
        let r_off = untraced.run_until(end);
        assert_eq!(r_on, r_off, "tracing must not change simulation results");
        assert!(untraced.take_trace().is_empty());
        assert!(!traced.take_trace().is_empty());
        for i in 0..6u32 {
            assert_eq!(
                traced.actor(NodeId(i)).unwrap().received,
                untraced.actor(NodeId(i)).unwrap().received,
            );
        }
    }

    #[test]
    fn fixed_thread_mode_partitions_clusters_round_robin() {
        let cfg = SystemConfig::uniform(FailureModel::Crash, 4, 1).unwrap();
        let mut s: Simulation<u64, PingPong> = Simulation::new(
            Topology::from_config(&cfg),
            LatencyModel::default(),
            FaultPlan::none(),
            1,
        )
        .with_threads(ThreadMode::Fixed(2));
        for i in 0..4u32 {
            let a = ActorId::Node(NodeId(3 * i));
            let b = ActorId::Node(NodeId(3 * i + 1));
            s.add_actor(PingPong::new(a, b, true));
            s.add_actor(PingPong::new(b, a, false));
        }
        let report = s.run_until(SimTime::from_secs(2));
        assert_eq!(s.lane_count(), 2);
        assert_eq!(report.delivered, 44);
    }

    /// A relay that keeps messages moving between a fixed set of targets —
    /// some built, one crashing mid-run, some never built — and re-arms a
    /// timer, so every dispatch path of the engine carries traffic.
    #[derive(Debug)]
    struct Relay {
        id: ActorId,
        targets: Vec<ActorId>,
        received: u64,
        timers: u64,
    }

    impl Actor<u64> for Relay {
        fn id(&self) -> ActorId {
            self.id
        }

        fn on_start(&mut self, ctx: &mut Context<u64>) {
            ctx.broadcast(self.targets.clone(), 0);
            ctx.set_timer(Duration::from_millis(7), 0);
        }

        fn on_message(&mut self, from: ActorId, msg: u64, ctx: &mut Context<u64>) {
            self.received += 1;
            ctx.charge(Duration::from_micros(50));
            if msg < 30 {
                let next = (msg + self.received) as usize % self.targets.len();
                ctx.send(self.targets[next], msg + 1);
                if msg.is_multiple_of(3) {
                    ctx.send(from, msg + 1);
                }
            }
        }

        fn on_timer(&mut self, _timer: TimerId, tag: u64, ctx: &mut Context<u64>) {
            self.timers += 1;
            ctx.send(self.targets[tag as usize % self.targets.len()], 0);
            if tag < 12 {
                ctx.set_timer(Duration::from_millis(7), tag + 1);
            }
        }
    }

    /// Two clusters and two clients; replica n5 and client c9 are addressed
    /// but never built, and n4 is down from 20 ms to 45 ms.
    fn relay_run(threads: ThreadMode) -> (SimulationReport, Vec<(u64, u64)>) {
        let cfg = SystemConfig::uniform(FailureModel::Crash, 2, 1).unwrap();
        let topology = Topology::from_config(&cfg)
            .with_client(ClientId(0), ClusterId(0))
            .with_client(ClientId(1), ClusterId(1));
        let faults = FaultPlan::none()
            .with_drop_probability(0.02)
            .with_duplicate_probability(0.05)
            .with_extra_delay(Duration::from_micros(300))
            .with_crash_and_recovery(
                NodeId(4),
                SimTime::from_millis(20),
                SimTime::from_millis(45),
            );
        let mut s: Simulation<u64, Relay> =
            Simulation::new(topology, LatencyModel::default(), faults, 0xD15C)
                .with_threads(threads);
        let built: Vec<ActorId> = (0..5)
            .map(|n| ActorId::Node(NodeId(n)))
            .chain((0..2).map(|c| ActorId::Client(ClientId(c))))
            .collect();
        let void = [ActorId::Node(NodeId(5)), ActorId::Client(ClientId(9))];
        for &id in &built {
            let targets = built
                .iter()
                .chain(&void)
                .copied()
                .filter(|&t| t != id)
                .collect();
            s.add_actor(Relay {
                id,
                targets,
                received: 0,
                timers: 0,
            });
        }
        let report = s.run_until(SimTime::from_millis(200));
        assert!(s.actor(NodeId(5)).is_none() && s.actor(ClientId(9)).is_none());
        let per_actor = s.actors().map(|a| (a.received, a.timers)).collect();
        (report, per_actor)
    }

    #[test]
    fn void_targets_and_a_crashed_receiver_are_accounted_identically_in_every_mode() {
        let (report, per_actor) = relay_run(ThreadMode::Sequential);
        assert_eq!(
            (report, per_actor.clone()),
            relay_run(ThreadMode::PerCluster)
        );
        assert_eq!((report, per_actor.clone()), relay_run(ThreadMode::Fixed(2)));
        // Pinned from the engine as it was before actors got dense slots
        // (map-keyed lanes, a lane-wide link-clock table): deliveries into
        // the void still count as delivered, arrivals at the crashed n4 as
        // dropped, and n4's timer chain dies with the timer it lost.
        assert_eq!(
            report,
            SimulationReport {
                delivered: 5539,
                dropped: 166,
                duplicated: 302,
                timers_fired: 80,
                deferred: 1053,
                finished_at: SimTime::from_millis(200),
                ..SimulationReport::default()
            }
        );
        let expected = [
            (591, 13),
            (642, 13),
            (642, 13),
            (640, 13),
            (573, 2),
            (640, 13),
            (668, 13),
        ];
        assert_eq!(per_actor, expected);
    }
}
