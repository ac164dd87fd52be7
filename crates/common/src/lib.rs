//! # sharper-common
//!
//! Shared vocabulary types for the SharPer reproduction: identifiers for nodes,
//! clusters, clients and transactions, the system configuration (how nodes are
//! partitioned into clusters and which failure model they follow), simulated
//! time, and the calibrated latency/CPU cost model used by the discrete-event
//! simulator.
//!
//! The types in this crate are deliberately small, `Copy` where possible, and
//! free of any protocol logic so that every other crate in the workspace can
//! depend on them without cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod cost;
pub mod error;
pub mod ids;
pub mod obs;
pub mod time;

pub use config::{
    BatchConfig, ClusterConfig, ClusterGroup, ClusterLayout, ExecutorConfig, FailureModel,
    ForcedMove, InitiationPolicy, LedgerConfig, ReshardConfig, SystemConfig, ThreadMode,
};
pub use cost::{CostModel, LatencyModel, LinkKind};
pub use error::{Error, Result};
pub use ids::{AccountId, ClientId, ClusterId, NodeId, RequestId, TxId};
pub use obs::{
    percentile_nearest_rank, percentile_us, trace_to_jsonl, StreamingHistogram, TraceEvent,
    TraceKind,
};
pub use time::{Duration, SimTime};
