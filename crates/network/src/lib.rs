//! # sharper-net
//!
//! The deterministic discrete-event network simulator that replaces the
//! paper's AWS testbed.
//!
//! The simulator executes a set of [`Actor`]s — replicas and clients — that
//! communicate only through messages and timers. It models:
//!
//! * **network latency** per link class (client↔replica, intra-cluster,
//!   cross-cluster) with bounded uniform jitter ([`sharper_common::LatencyModel`]),
//! * **CPU time** at each replica: every message handler reports the cost of
//!   the work it performed ([`Context::charge`]) and the replica behaves as a
//!   single-server FIFO queue, so overload and saturation emerge naturally,
//! * **faults**: message drops, crashed replicas and network partitions
//!   ([`faults::FaultPlan`]),
//! * **metrics**: committed-transaction latency histograms and per-actor
//!   message counts ([`stats`]).
//!
//! Everything is driven by a seeded PRNG, so a simulation run is a pure
//! function of its inputs — the property the protocol tests and the figure
//! harness rely on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod actor;
pub mod faults;
pub mod sim;
pub mod stats;
pub mod topology;
pub mod wheel;

pub use actor::{Actor, ActorId, Context, TimerId};
pub use faults::FaultPlan;
pub use sim::{Simulation, SimulationReport};
pub use stats::{CommitSample, LatencySummary, StatsCollector, StatsHandle};
pub use topology::Topology;
pub use wheel::{EventKey, EventWheel};
