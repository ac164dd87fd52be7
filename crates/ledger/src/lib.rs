//! # sharper-ledger
//!
//! The SharPer blockchain ledger (§2.3): a directed acyclic graph of
//! Merkle-committed transaction-batch blocks (a single-transaction batch
//! reproduces the paper's one-transaction blocks exactly) in which
//!
//! * every block carries the cryptographic hash of the previous block of
//!   **each involved cluster**, so intra-shard blocks have one parent and a
//!   cross-shard block over `k` clusters has `k` parents;
//! * the global DAG is never materialised by any node — each cluster keeps
//!   only [`LedgerView`], its own totally-ordered view consisting of its
//!   intra-shard blocks and the cross-shard blocks it participates in;
//! * the conceptual global ledger is the union of the views ([`DagLedger`]),
//!   which this crate can build for analysis and auditing.
//!
//! The [`audit`] module implements the safety checks used by the tests,
//! integration suites and the benchmark harness: hash-chain validity per
//! view, agreement between clusters on the relative order of shared
//! cross-shard blocks, and (together with `sharper-state`) conservation of
//! application balances.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod batch;
pub mod block;
pub mod dag;
pub mod view;

pub use audit::{audit_replica_views, audit_views, check_replica_agreement, AuditReport};
pub use batch::{Batch, VerifiedBatch};
pub use block::{Block, BlockBody, Parents, VerifiedBlock};
pub use dag::DagLedger;
pub use view::{Checkpoint, LedgerView};
