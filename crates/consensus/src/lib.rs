//! # sharper-consensus
//!
//! The consensus protocols of SharPer (§3) implemented as deterministic actor
//! state machines for the `sharper-net` simulator:
//!
//! * **intra-shard consensus** — Paxos for crash-only clusters and PBFT for
//!   Byzantine clusters (§3.1), both driven by the cluster's primary and
//!   chained to the cluster's ledger view through the hash of the previous
//!   block;
//! * **cross-shard consensus** — the flattened protocols of Algorithm 1
//!   (crash-only) and Algorithm 2 (Byzantine), in which the primary of the
//!   initiator cluster collects `propose → accept → commit` quorums from
//!   *every* involved cluster, with per-node reservations, conflict timers,
//!   retries and the super-primary initiation policy (§3.2–§3.3). Both
//!   algorithms share one message family (`XPropose`, `XAccept`, `XCommit`,
//!   unsigned placeholders in the crash model) and one handler per phase;
//! * **view change** — a PBFT-style primary replacement triggered by
//!   timeouts (liveness, §3.2/§3.3);
//! * **primary-side batching** — pending client requests are accumulated
//!   into Merkle-committed batches (`sharper_common::BatchConfig`), so one
//!   consensus round orders many transactions; `max_batch_size = 1` is the
//!   paper's one-transaction-per-block protocol. A [`SigCache`] of verified
//!   `(signer, digest)` pairs lets retransmissions skip signature checks.
//!
//! The central type is [`Replica`], one instance per node, which composes the
//! intra-shard engine, the cross-shard engine, the ledger view of its cluster
//! and the shard's account store. `sharper-core` assembles replicas and
//! clients into a runnable system; `sharper-baselines` reuses the same
//! building blocks for the paper's comparison systems.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod mempool;
pub mod messages;
pub mod replica;
pub mod sigcache;
pub mod timeouts;

pub use config::ReplicaConfig;
pub use mempool::{percentile_us, Mempool, MempoolMetrics};
pub use messages::{timer_tags, Msg};
pub use replica::Replica;
pub use sigcache::SigCache;
