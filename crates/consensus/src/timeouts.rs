//! Protocol timeouts and retry budgets.
//!
//! The paper leaves its timers abstract (§3.2's reservation timeout is only
//! "a pre-determined time"), and no deployment tunes them, so they are
//! constants rather than configuration.

use sharper_common::Duration;

/// How long a node stays reserved for an accepted cross-shard proposal
/// before giving up on its commit (§3.2's "pre-determined time").
///
/// Comfortably above the worst-case cross-shard commit latency of the
/// default latency model (tens of milliseconds), so that in fault-free runs
/// reservations are normally released by commits (or by explicit aborts),
/// and conflicts cost little when they do force a timeout.
pub const CONFLICT: Duration = Duration::from_millis(400);

/// How long the initiator primary waits for cross-shard quorums before
/// re-initiating the transaction.
pub const RETRY: Duration = Duration::from_millis(100);

/// Maximum number of re-initiations before the initiator gives up.
pub const MAX_RETRIES: u32 = 6;

/// How long a backup waits for the commit of an in-flight request before
/// suspecting the primary and starting a view change.
pub const VIEW_CHANGE: Duration = Duration::from_millis(1_500);

/// How many times the initiator re-announces an `XAbort` after giving up on
/// a cross-shard batch (a single lost abort must not wedge a remote
/// primary's reservation).
pub const XABORT_RETRANSMITS: u32 = 2;

/// Interval between `XAbort` retransmissions.
pub const XABORT_RETRANSMIT_INTERVAL: Duration = Duration::from_millis(150);

/// Number of [`CONFLICT`] renewals a reserved *primary* waits before probing
/// the initiator cluster for the fate of its reservation (crash model). The
/// product with [`CONFLICT`] must exceed the initiator's give-up window
/// ([`MAX_RETRIES`] × [`RETRY`]): 2 renewals ≈ 800ms+, past the ≈ 700ms
/// give-up window and the abort retransmissions, so probes only fire for
/// genuinely lost commits/aborts.
pub const RESERVATION_PROBE_AFTER: u32 = 2;

/// How long a partially filled batch may wait for more transactions before
/// the primary proposes it anyway. Irrelevant when `max_batch_size` is `1`
/// (batches are always "full").
pub const BATCH: Duration = Duration::from_millis(2);

/// How long a client waits for replies before retransmitting a request.
pub const CLIENT_RETRY: Duration = Duration::from_millis(2_000);
