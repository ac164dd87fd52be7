//! Actors: the unit of execution in the simulator.
//!
//! Replicas and clients are actors. An actor owns private state, receives
//! messages and timer expirations, and reacts by updating its state, sending
//! messages and (re-)arming timers through the [`Context`]. Actors never read
//! a wall clock or an unseeded RNG, which keeps simulations reproducible.

use sharper_common::{ClientId, Duration, NodeId, SimTime, TraceKind};
use std::fmt;

/// Identity of an actor in the simulated network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ActorId {
    /// A replica participating in consensus.
    Node(NodeId),
    /// A client of the accounting application.
    Client(ClientId),
}

impl ActorId {
    /// The node id, if this actor is a replica.
    pub fn as_node(self) -> Option<NodeId> {
        match self {
            ActorId::Node(n) => Some(n),
            ActorId::Client(_) => None,
        }
    }

    /// The client id, if this actor is a client.
    pub fn as_client(self) -> Option<ClientId> {
        match self {
            ActorId::Client(c) => Some(c),
            ActorId::Node(_) => None,
        }
    }
}

impl fmt::Display for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ActorId::Node(n) => write!(f, "{n}"),
            ActorId::Client(c) => write!(f, "{c}"),
        }
    }
}

impl From<NodeId> for ActorId {
    fn from(n: NodeId) -> Self {
        ActorId::Node(n)
    }
}

impl From<ClientId> for ActorId {
    fn from(c: ClientId) -> Self {
        ActorId::Client(c)
    }
}

/// A map from [`ActorId`] to `T`, stored as two tables indexed by the raw
/// node / client id. Deployments number their replicas and clients densely
/// from zero, so a lookup — the simulator does several per event — is an
/// array read, not a hash. Ids that were never inserted read as `None`.
#[derive(Debug, Clone)]
pub(crate) struct ActorTable<T> {
    nodes: Vec<Option<T>>,
    clients: Vec<Option<T>>,
}

impl<T> Default for ActorTable<T> {
    fn default() -> Self {
        Self {
            nodes: Vec::new(),
            clients: Vec::new(),
        }
    }
}

impl<T: Copy> ActorTable<T> {
    /// Maps `actor` to `value`, returning the value it replaces.
    pub(crate) fn insert(&mut self, actor: ActorId, value: T) -> Option<T> {
        let (table, raw) = match actor {
            ActorId::Node(n) => (&mut self.nodes, u64::from(n.0)),
            ActorId::Client(c) => (&mut self.clients, c.0),
        };
        let raw = usize::try_from(raw).expect("actor ids index a table");
        if table.len() <= raw {
            table.resize(raw + 1, None);
        }
        table[raw].replace(value)
    }

    pub(crate) fn get(&self, actor: ActorId) -> Option<T> {
        let (table, raw) = match actor {
            ActorId::Node(n) => (&self.nodes, u64::from(n.0)),
            ActorId::Client(c) => (&self.clients, c.0),
        };
        *table.get(usize::try_from(raw).ok()?)?
    }
}

/// Handle of a pending timer, returned by [`Context::set_timer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(pub u64);

/// One batched send: either a point-to-point message or a broadcast that
/// shares a single payload (and a single recipient list) across all
/// recipients. Fan-out cost is paid lazily by the simulator — one shallow
/// clone per delivery — instead of eagerly materialising a copy per peer in
/// the handler.
#[derive(Debug, Clone)]
pub(crate) enum Outgoing<M> {
    /// A message to a single recipient.
    Unicast(ActorId, M),
    /// One payload destined to every listed recipient.
    Broadcast(Vec<ActorId>, M),
}

/// The interface an actor uses to affect the world from inside a handler.
///
/// The context batches everything the handler does — outgoing messages, new
/// timers, cancelled timers and the CPU time charged — and the simulator
/// applies it when the handler returns.
pub struct Context<M> {
    now: SimTime,
    self_id: ActorId,
    rng_state: u64,
    charged: Duration,
    pub(crate) outbox: Vec<Outgoing<M>>,
    pub(crate) new_timers: Vec<(TimerId, Duration, u64)>,
    pub(crate) cancelled_timers: Vec<TimerId>,
    pub(crate) next_timer: u64,
    trace_on: bool,
    trace_buf: Vec<TraceKind>,
}

impl<M> Context<M> {
    pub(crate) fn new(now: SimTime, self_id: ActorId, rng_seed: u64, next_timer: u64) -> Self {
        Self {
            now,
            self_id,
            rng_state: rng_seed | 1,
            charged: Duration::ZERO,
            outbox: Vec::new(),
            new_timers: Vec::new(),
            cancelled_timers: Vec::new(),
            next_timer,
            trace_on: false,
            trace_buf: Vec::new(),
        }
    }

    pub(crate) fn enable_tracing(&mut self) {
        self.trace_on = true;
    }

    /// Creates a context that is not attached to a running simulation.
    ///
    /// Protocol crates use detached contexts to unit-test actor state
    /// machines one message at a time: call the handler, then inspect what it
    /// sent with [`Context::take_outbox`] and which timers it armed with
    /// [`Context::take_timers`]. Detached contexts record trace events so
    /// tests can assert on them via [`Context::take_trace`].
    pub fn detached(now: SimTime, self_id: ActorId) -> Self {
        let mut ctx = Self::new(now, self_id, 0xD57A_C11E_D000_0001, 0);
        ctx.enable_tracing();
        ctx
    }

    /// Drains and returns the messages sent so far in this context, flattened
    /// to one `(recipient, message)` pair per delivery. Broadcasts are
    /// expanded by cloning, so this is a test/inspection helper; the
    /// simulator consumes the batched `Outgoing` entries directly.
    pub fn take_outbox(&mut self) -> Vec<(ActorId, M)>
    where
        M: Clone,
    {
        let mut flat = Vec::new();
        for out in std::mem::take(&mut self.outbox) {
            match out {
                Outgoing::Unicast(to, msg) => flat.push((to, msg)),
                Outgoing::Broadcast(recipients, msg) => {
                    flat.extend(recipients.into_iter().map(|to| (to, msg.clone())));
                }
            }
        }
        flat
    }

    /// Number of individual deliveries batched so far (broadcasts count once
    /// per recipient).
    pub fn outbox_len(&self) -> usize {
        self.outbox
            .iter()
            .map(|out| match out {
                Outgoing::Unicast(..) => 1,
                Outgoing::Broadcast(recipients, _) => recipients.len(),
            })
            .sum()
    }

    /// Drains and returns the timers armed so far as `(id, delay, tag)`.
    pub fn take_timers(&mut self) -> Vec<(TimerId, Duration, u64)> {
        std::mem::take(&mut self.new_timers)
    }

    /// The timers cancelled so far in this context.
    pub fn cancelled(&self) -> &[TimerId] {
        &self.cancelled_timers
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The identity of the actor whose handler is running.
    pub fn self_id(&self) -> ActorId {
        self.self_id
    }

    /// Sends `msg` to `to`. Delivery time is decided by the simulator from
    /// the latency model, the fault plan and the time this handler finishes.
    pub fn send(&mut self, to: impl Into<ActorId>, msg: M) {
        self.outbox.push(Outgoing::Unicast(to.into(), msg));
    }

    /// Sends `msg` to every actor in `recipients`, storing the payload once.
    ///
    /// This is the zero-copy fan-out path: the handler batches a single
    /// `(recipients, payload)` entry regardless of the recipient count, and
    /// the simulator clones the payload only when it materialises each
    /// delivery event — an `Arc` bump for the protocol messages, which keep
    /// their bulky fields behind `Arc`.
    pub fn broadcast(&mut self, recipients: Vec<ActorId>, msg: M) {
        match recipients.len() {
            0 => {}
            1 => self.send(recipients[0], msg),
            _ => self.outbox.push(Outgoing::Broadcast(recipients, msg)),
        }
    }

    /// Sends `msg` to every actor in `recipients` (convenience form of
    /// [`Context::broadcast`] accepting any iterator).
    pub fn multicast(&mut self, recipients: impl IntoIterator<Item = ActorId>, msg: M) {
        self.broadcast(recipients.into_iter().collect(), msg);
    }

    /// Arms a timer that fires `delay` after this handler's charged work
    /// ends; `tag` is an actor-chosen label returned with the expiration so
    /// the actor can tell its timers apart. The simulator queues it when the
    /// handler returns.
    pub fn set_timer(&mut self, delay: Duration, tag: u64) -> TimerId {
        let id = TimerId(self.next_timer);
        self.next_timer += 1;
        self.new_timers.push((id, delay, tag));
        id
    }

    /// Cancels a previously armed timer. When the handler returns, the
    /// simulator removes the timer from its queue at once — also one armed
    /// by this same handler, and one that already came due and waits in the
    /// actor's defer queue — so a cancelled timer never fires and holds no
    /// memory. Cancelling an already-fired or unknown timer is a no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.cancelled_timers.push(id);
    }

    /// Charges `cost` of CPU time to this actor for the work performed in
    /// this handler. The simulator keeps the actor busy for the accumulated
    /// charge, which is what produces queueing and saturation.
    pub fn charge(&mut self, cost: Duration) {
        self.charged += cost;
    }

    /// The total CPU time charged so far in this handler.
    pub fn charged(&self) -> Duration {
        self.charged
    }

    /// A deterministic pseudo-random value (xorshift over the seed provided
    /// by the simulator). Intended for jittered backoff in actors.
    pub fn rand_u64(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// A deterministic pseudo-random value in `[0, bound)`; returns 0 when
    /// `bound` is 0.
    pub fn rand_below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.rand_u64() % bound
        }
    }

    /// Records a trace event if tracing is enabled for this run.
    ///
    /// The closure constructs the event payload and only runs when tracing is
    /// on, so disabled runs pay one branch and build nothing — not even the
    /// `Vec<TxId>` some kinds carry. Tracing observes only: it charges no
    /// cost, sends nothing and draws no randomness, so it can never change
    /// simulation results.
    #[inline]
    pub fn trace(&mut self, f: impl FnOnce() -> TraceKind) {
        if self.trace_on {
            let kind = f();
            self.trace_buf.push(kind);
        }
    }

    /// Whether trace recording is enabled for this context.
    pub fn tracing(&self) -> bool {
        self.trace_on
    }

    /// Drains the trace events recorded so far, in recording order. The
    /// simulator stamps them with `(sim_time, actor_rank, actor_seq)`; tests
    /// with detached contexts inspect them directly.
    pub fn take_trace(&mut self) -> Vec<TraceKind> {
        std::mem::take(&mut self.trace_buf)
    }
}

/// A participant in the simulation.
///
/// All methods receive a [`Context`] for interacting with the simulated
/// world. `on_start` runs once at time zero, before any message is delivered.
pub trait Actor<M> {
    /// The identity of this actor.
    fn id(&self) -> ActorId;

    /// Called once when the simulation starts.
    fn on_start(&mut self, _ctx: &mut Context<M>) {}

    /// Called when a message from `from` is delivered to this actor.
    fn on_message(&mut self, from: ActorId, msg: M, ctx: &mut Context<M>);

    /// Called when a timer armed by this actor fires; `tag` is the label
    /// passed to [`Context::set_timer`].
    fn on_timer(&mut self, timer: TimerId, tag: u64, ctx: &mut Context<M>);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn actor_id_conversions() {
        let n: ActorId = NodeId(3).into();
        let c: ActorId = ClientId(5).into();
        assert_eq!(n.as_node(), Some(NodeId(3)));
        assert_eq!(n.as_client(), None);
        assert_eq!(c.as_client(), Some(ClientId(5)));
        assert_eq!(c.as_node(), None);
        assert_eq!(n.to_string(), "n3");
        assert_eq!(c.to_string(), "c5");
    }

    #[test]
    fn context_batches_sends_and_timers() {
        let mut ctx: Context<&'static str> =
            Context::new(SimTime::from_millis(1), ActorId::Node(NodeId(0)), 7, 0);
        assert_eq!(ctx.now(), SimTime::from_millis(1));
        assert_eq!(ctx.self_id(), ActorId::Node(NodeId(0)));

        ctx.send(NodeId(1), "a");
        ctx.multicast([ActorId::Node(NodeId(2)), ActorId::Node(NodeId(3))], "b");
        assert_eq!(ctx.outbox_len(), 3);
        // The broadcast is batched as one entry sharing a single payload.
        assert_eq!(ctx.outbox.len(), 2);

        let t1 = ctx.set_timer(Duration::from_millis(5), 42);
        let t2 = ctx.set_timer(Duration::from_millis(9), 43);
        assert_ne!(t1, t2);
        ctx.cancel_timer(t1);
        assert_eq!(ctx.new_timers.len(), 2);
        assert_eq!(ctx.cancelled_timers, vec![t1]);

        ctx.charge(Duration::from_micros(10));
        ctx.charge(Duration::from_micros(5));
        assert_eq!(ctx.charged(), Duration::from_micros(15));
    }

    #[test]
    fn trace_is_zero_cost_when_disabled_and_records_when_enabled() {
        // Attached contexts start with tracing off: the closure must not run.
        let mut off: Context<()> = Context::new(SimTime::ZERO, ActorId::Node(NodeId(0)), 1, 0);
        let mut ran = false;
        off.trace(|| {
            ran = true;
            TraceKind::Commit { batch: 1 }
        });
        assert!(!ran);
        assert!(!off.tracing());
        assert!(off.take_trace().is_empty());

        // Detached (test) contexts record, in order.
        let mut on: Context<()> = Context::detached(SimTime::ZERO, ActorId::Node(NodeId(0)));
        assert!(on.tracing());
        on.trace(|| TraceKind::Commit { batch: 7 });
        on.trace(|| TraceKind::ViewChangeStart { view: 2 });
        assert_eq!(
            on.take_trace(),
            vec![
                TraceKind::Commit { batch: 7 },
                TraceKind::ViewChangeStart { view: 2 }
            ]
        );
        assert!(on.take_trace().is_empty());
        assert_eq!(on.charged(), Duration::ZERO, "tracing never charges cost");
    }

    #[test]
    fn context_rng_is_deterministic_per_seed() {
        let mut a: Context<()> = Context::new(SimTime::ZERO, ActorId::Node(NodeId(0)), 99, 0);
        let mut b: Context<()> = Context::new(SimTime::ZERO, ActorId::Node(NodeId(0)), 99, 0);
        let va: Vec<u64> = (0..8).map(|_| a.rand_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.rand_u64()).collect();
        assert_eq!(va, vb);
        assert!(va.windows(2).any(|w| w[0] != w[1]));
        assert_eq!(a.rand_below(0), 0);
        assert!(a.rand_below(10) < 10);
    }
}
