//! A simulation whose actors do nothing: the engine's own cost per event
//! (timing wheel, lane dispatch, link clocks, fault and jitter draws) with no
//! replica or client behind it.

use sharper_common::{
    ClientId, ClusterId, Duration, FailureModel, LatencyModel, SystemConfig, ThreadMode,
};
use sharper_net::{Actor, ActorId, Context, FaultPlan, Simulation, TimerId, Topology};

/// What the null actors do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NullLoad {
    /// Every client bounces one message off a replica of its home cluster.
    Messages,
    /// Every actor re-arms a 500 µs timer.
    Timers,
}

const TIMER_PERIOD: Duration = Duration::from_micros(500);

pub struct Echo {
    id: ActorId,
    /// The replica a client starts its message towards.
    peer: Option<ActorId>,
    timers: bool,
}

impl Actor<u64> for Echo {
    fn id(&self) -> ActorId {
        self.id
    }

    fn on_start(&mut self, ctx: &mut Context<u64>) {
        if let Some(peer) = self.peer {
            ctx.send(peer, 0);
        }
        if self.timers {
            ctx.set_timer(TIMER_PERIOD, 0);
        }
    }

    fn on_message(&mut self, from: ActorId, msg: u64, ctx: &mut Context<u64>) {
        ctx.send(from, msg.wrapping_add(1));
    }

    fn on_timer(&mut self, _timer: TimerId, tag: u64, ctx: &mut Context<u64>) {
        ctx.set_timer(TIMER_PERIOD, tag);
    }
}

/// A null simulation on the topology of a crash-model deployment with
/// `clusters` clusters (f = 1) and `clients` clients homed round-robin,
/// under the default latency model and no faults.
pub fn null_simulation(
    clusters: usize,
    clients: usize,
    load: NullLoad,
    threads: ThreadMode,
    seed: u64,
) -> Simulation<u64, Echo> {
    let cfg = SystemConfig::uniform(FailureModel::Crash, clusters, 1).expect("valid layout");
    let mut topology = Topology::from_config(&cfg);
    for c in 0..clients {
        topology.add_client(ClientId(c as u64), ClusterId((c % clusters) as u32));
    }
    let mut sim = Simulation::new(topology, LatencyModel::default(), FaultPlan::none(), seed)
        .with_threads(threads);
    let timers = load == NullLoad::Timers;
    for node in cfg.node_ids() {
        sim.add_actor(Echo {
            id: node.into(),
            peer: None,
            timers,
        });
    }
    for c in 0..clients {
        let home = ClusterId((c % clusters) as u32);
        let members = cfg.members(home).expect("configured cluster");
        sim.add_actor(Echo {
            id: ClientId(c as u64).into(),
            peer: (load == NullLoad::Messages).then(|| members[c % members.len()].into()),
            timers,
        });
    }
    sim
}
