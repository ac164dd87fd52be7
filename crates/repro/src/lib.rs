//! # sharper-repro
//!
//! Facade crate of the SharPer reproduction workspace. It hosts the
//! workspace-level integration tests (`tests/`) and runnable examples
//! (`examples/`), and re-exports the public API of every crate so examples
//! and downstream users can depend on a single crate.
//!
//! See README.md for an overview and the design notes, `benchmark/README.md`
//! for the measured end-to-end and per-layer numbers, and the figures harness
//! (`cargo run -p sharper-bench --release --bin figures`) for the paper's
//! curves.

#![forbid(unsafe_code)]

pub use sharper_baselines as baselines;
pub use sharper_common as common;
pub use sharper_consensus as consensus;
pub use sharper_core as core;
pub use sharper_crypto as crypto;
pub use sharper_ledger as ledger;
pub use sharper_net as net;
pub use sharper_state as state;
pub use sharper_workload as workload;
