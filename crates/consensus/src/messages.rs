//! Protocol messages exchanged by SharPer replicas and clients.
//!
//! One message enum covers the client interface, Paxos, PBFT, both flattened
//! cross-shard protocols and the view-change sub-protocol. Field names follow
//! the paper: `d` is the digest `D(m)` of the requested payload — with
//! batching the Merkle root of the proposed [`Batch`] — and `h_i` (here
//! `parent`) is the hash of the previous block ordered by cluster `p_i`.

use sharper_common::{ClusterId, NodeId, TxId};
use sharper_crypto::{Digest, QuorumCert, Signature};
use sharper_ledger::Batch;
use sharper_state::{RangeMove, Transaction};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Timer tags used by replicas and clients (the simulator hands the tag back
/// when a timer fires).
pub mod timer_tags {
    /// A reservation (conflict) timer armed when a node accepts a cross-shard
    /// proposal: "it does not process any other transactions for a
    /// pre-determined time before receiving commit messages" (§3.2).
    pub const CONFLICT: u64 = 1;
    /// The initiator's retry timer for a cross-shard transaction that failed
    /// to gather quorums (concurrent conflicting transactions).
    pub const RETRY: u64 = 2;
    /// The view-change timer armed by backups while a request is in flight.
    pub const VIEW_CHANGE: u64 = 3;
    /// Client-side retransmission timer.
    pub const CLIENT_RETRY: u64 = 5;
    /// The primary's batch timer: a partially filled batch is proposed when
    /// it fires.
    pub const BATCH: u64 = 6;
    /// The initiator's retransmission timer for a cross-shard `XAbort`: a
    /// withdrawn proposal is re-announced a bounded number of times so one
    /// lost abort cannot wedge a remote primary's reservation.
    pub const XABORT_RETRANSMIT: u64 = 7;
    /// A primary's periodic per-bucket load report to the reshard
    /// coordinator (armed only when dynamic resharding is enabled).
    pub const LOAD_REPORT: u64 = 8;
    /// The reshard coordinator's periodic split/merge decision tick.
    pub const RESHARD_CHECK: u64 = 9;
}

/// A Paxos ballot: the total order over crash-model proposals. Ballots are
/// ordered first by view, then by proposer id, so every (view, primary) pair
/// proposes under a ballot strictly above every earlier view's — the
/// ordering that lets acceptors reject stale proposals after promising a
/// newer one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ballot {
    /// The view this ballot belongs to.
    pub view: u64,
    /// The primary proposing under this ballot.
    pub proposer: NodeId,
}

impl Ballot {
    /// Creates a ballot for `proposer` leading `view`.
    pub fn new(view: u64, proposer: NodeId) -> Self {
        Self { view, proposer }
    }
}

/// A prepared-certificate: proof that `2f+1` distinct replicas of a
/// Byzantine cluster prepared `batch` at chain position `parent` in `view`.
/// Carried by view-change votes and the new-view message; backups verify
/// every member signature before accepting the replayed round.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedCert {
    /// The view the round prepared in.
    pub view: u64,
    /// Hash of the previous block ordered by the cluster.
    pub parent: Digest,
    /// The prepared batch.
    pub batch: Batch,
    /// The primary's pre-prepare signature plus the backups' prepare
    /// signatures — `2f+1` distinct signers in total.
    pub sigs: QuorumCert,
}

/// All messages of the SharPer protocol family.
///
/// Bulky payloads — transaction batches and assembled parent maps — are held
/// behind [`Arc`]s (a [`Batch`] shares its transactions), so cloning a
/// message is a pointer bump regardless of payload size. This is what makes
/// the simulator's broadcast fan-out zero-copy: one allocation is shared by
/// every recipient of a multicast and by every round that retains the
/// payload.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    // ------------------------------------------------------------------
    // Client interface
    // ------------------------------------------------------------------
    /// `⟨REQUEST, tx, τc, c⟩σc` — a client request carrying one transaction.
    /// Also used replica→replica to forward a request to the responsible
    /// primary. Requests stay per-transaction; the responsible primary
    /// accumulates them into batches.
    Request {
        /// The requested transaction (shared, so high-fan-out forwarding and
        /// cloning is a pointer bump).
        tx: Arc<Transaction>,
        /// The shard-map epoch the sender routed under. A replica holding a
        /// newer map answers with a [`Msg::Redirect`] (and still forwards the
        /// request, so a stale map costs latency, never liveness).
        epoch: u64,
        /// Client signature over the transaction (checked in the Byzantine
        /// model).
        sig: Signature,
    },
    /// Replica → client: the client's request was routed under a stale shard
    /// map. Carries the replica's current map so the client can re-route
    /// future submissions. Purely advisory — the original request is still
    /// forwarded and processed, so a redirect never consumes a retry.
    Redirect {
        /// The transaction the stale-routed request carried.
        tx: TxId,
        /// The replica's current shard-map epoch.
        epoch: u64,
        /// The range overlays that transform the genesis map into the
        /// replica's current map.
        overlays: Vec<RangeMove>,
    },
    /// A replica's reply to the client after executing the transaction.
    Reply {
        /// The transaction this reply is for.
        tx: TxId,
        /// The replying replica.
        node: NodeId,
        /// Whether the transfer was applied (`false` = application-level
        /// abort, e.g. insufficient balance).
        applied: bool,
    },

    // ------------------------------------------------------------------
    // Intra-shard consensus, crash model (Paxos, Fig. 3a)
    // ------------------------------------------------------------------
    /// Primary → backups: order `batch` right after the block `parent`.
    PaxosAccept {
        /// The proposing primary's ballot.
        ballot: Ballot,
        /// Hash of the previous block ordered by this cluster.
        parent: Digest,
        /// The batch to order.
        batch: Batch,
    },
    /// Backup → primary: the backup accepted the proposal.
    PaxosAccepted {
        /// The ballot of the proposal being accepted.
        ballot: Ballot,
        /// The digest (batch root) of the accepted proposal.
        d: Digest,
        /// The accepting backup.
        node: NodeId,
    },
    /// Primary → backups: the proposal reached a majority; execute it.
    PaxosCommit {
        /// The ballot the proposal was accepted under.
        ballot: Ballot,
        /// Hash of the previous block ordered by this cluster.
        parent: Digest,
        /// The committed batch.
        batch: Batch,
    },

    // ------------------------------------------------------------------
    // Intra-shard consensus, Byzantine model (PBFT, Fig. 3b)
    // ------------------------------------------------------------------
    /// Primary → replicas: `⟨PRE-PREPARE, v, h, d⟩σp , m`.
    PrePrepare {
        /// The primary's view number.
        view: u64,
        /// Hash of the previous block ordered by this cluster.
        parent: Digest,
        /// The batch to order.
        batch: Batch,
        /// The primary's signature over `(view, parent, d)`.
        sig: Signature,
    },
    /// Replica → replicas: `⟨PREPARE, v, h, d, r⟩σr`.
    Prepare {
        /// View number.
        view: u64,
        /// Hash of the previous block ordered by this cluster.
        parent: Digest,
        /// Digest (batch root) of the proposal being prepared.
        d: Digest,
        /// The preparing replica.
        node: NodeId,
        /// Signature over `(view, parent, d)`.
        sig: Signature,
    },
    /// Replica → replicas: `⟨COMMIT, v, h, d, r⟩σr`.
    PbftCommit {
        /// View number.
        view: u64,
        /// Hash of the previous block ordered by this cluster.
        parent: Digest,
        /// Digest (batch root) of the proposal being committed.
        d: Digest,
        /// The committing replica.
        node: NodeId,
        /// Signature over `(view, parent, d)`.
        sig: Signature,
    },

    // ------------------------------------------------------------------
    // Cross-shard consensus, crash model (Algorithm 1)
    // ------------------------------------------------------------------
    /// Initiator primary → all nodes of all involved clusters:
    /// `⟨PROPOSE, h_i, d, m⟩`.
    XPropose {
        /// The initiator cluster `p_i`.
        initiator: ClusterId,
        /// Retry attempt number (0 for the first initiation).
        attempt: u32,
        /// `h_i`: hash of the previous block ordered by the initiator cluster.
        parent: Digest,
        /// The cross-shard batch (all members share one involved-cluster
        /// set — cross-shard transactions only batch with same-cluster-set
        /// peers).
        batch: Batch,
    },
    /// Node of an involved cluster → initiator primary:
    /// `⟨ACCEPT, h_i, h_j, d, r⟩`.
    XAccept {
        /// Digest (batch root) of the proposed batch.
        d: Digest,
        /// Retry attempt this accept answers.
        attempt: u32,
        /// The accepting node's cluster `p_j`.
        cluster: ClusterId,
        /// `h_j`: hash of the previous block ordered by cluster `p_j`.
        parent: Digest,
        /// Chain height of `parent` (blocks from genesis, inclusive). The
        /// initiator uses it to detect a stale cluster primary: an accept
        /// from a member *ahead* of the primary proves the primary's tail
        /// has already been built past and its parent must not be committed
        /// against (see `assemble_parents`).
        height: u64,
        /// The accepting node.
        node: NodeId,
    },
    /// Initiator primary → all nodes of all involved clusters:
    /// `⟨COMMIT, h_i, h_j, h_k, ..., d, r⟩`.
    XCommit {
        /// Digest (batch root) of the committed batch.
        d: Digest,
        /// One parent hash per involved cluster (shared across the fan-out).
        parents: Arc<BTreeMap<ClusterId, Digest>>,
        /// The committed batch (carried so lagging replicas can apply).
        batch: Batch,
    },

    // ------------------------------------------------------------------
    // Cross-shard consensus, Byzantine model (Algorithm 2)
    // ------------------------------------------------------------------
    /// Initiator primary → all nodes of all involved clusters (signed).
    XProposeB {
        /// The initiator cluster `p_i`.
        initiator: ClusterId,
        /// Retry attempt number.
        attempt: u32,
        /// `h_i`: hash of the previous block ordered by the initiator cluster.
        parent: Digest,
        /// The cross-shard batch (one involved-cluster set).
        batch: Batch,
        /// The initiator primary's signature over `(initiator, parent, d)`.
        sig: Signature,
    },
    /// Node → all nodes of all involved clusters (signed).
    XAcceptB {
        /// Digest (batch root) of the proposed batch.
        d: Digest,
        /// Retry attempt this accept answers.
        attempt: u32,
        /// The accepting node's cluster `p_j`.
        cluster: ClusterId,
        /// `h_j`: hash of the previous block ordered by cluster `p_j`.
        parent: Digest,
        /// The accepting node.
        node: NodeId,
        /// Signature over `(d, cluster, parent)`.
        sig: Signature,
    },
    /// Node → all nodes of all involved clusters (signed).
    XCommitB {
        /// Digest (batch root) of the committed batch.
        d: Digest,
        /// One parent hash per involved cluster (as assembled from the accept
        /// quorum observed by the sender; shared across the fan-out).
        parents: Arc<BTreeMap<ClusterId, Digest>>,
        /// The sender's cluster.
        cluster: ClusterId,
        /// The sending node.
        node: NodeId,
        /// Signature over `(d, parents)`.
        sig: Signature,
    },

    /// Initiator → involved nodes: the initiator withdraws its proposal for
    /// `d` (it yielded to a higher-priority initiator); release reservations
    /// and drop the round. The transactions are re-initiated later.
    XAbort {
        /// Digest of the withdrawn proposal.
        d: Digest,
        /// The withdrawing (initiator) cluster.
        initiator: ClusterId,
    },
    /// Reserved primary → initiator cluster's primary: the reservation for
    /// `d` has been held past its timeout with neither commit nor abort
    /// observed; ask the initiator side to resolve it (crash model). The
    /// answer is a retransmitted `XCommit` if the batch committed there, a
    /// targeted `XAbort` if the round is dead, or silence if it is still in
    /// flight.
    XStatus {
        /// Digest of the reserved proposal.
        d: Digest,
        /// The probing node's cluster.
        cluster: ClusterId,
        /// The probing node (the answer is sent directly to it).
        node: NodeId,
    },

    // ------------------------------------------------------------------
    // Dynamic resharding control plane (crash model)
    // ------------------------------------------------------------------
    /// Primary → reshard coordinator: per-bucket commit counts observed
    /// since the last report. Buckets partition the global key space
    /// uniformly; the coordinator aggregates reports to find hot ranges.
    LoadReport {
        /// The reporting primary's cluster.
        cluster: ClusterId,
        /// The reporter's shard-map epoch (stale-epoch reports are dropped).
        epoch: u64,
        /// Per-bucket `(bucket, total, movable)` commit counts for buckets
        /// owned by the reporter. `movable` counts commits whose every
        /// account sits inside that one bucket — load that would follow the
        /// bucket if it migrated; `total - movable` is pinned load.
        buckets: Vec<(u64, u64, u64)>,
    },
    /// Coordinator → owning primary: move `len` keys starting at `start` to
    /// cluster `to`. The owner runs the freeze → snapshot → handover
    /// pipeline; the move commits as an ordinary cross-shard transaction.
    ReshardDirective {
        /// The epoch the move will establish once the handover commits.
        epoch: u64,
        /// First key of the moved range.
        start: u64,
        /// Number of keys moved.
        len: u64,
        /// The receiving cluster.
        to: ClusterId,
    },
    /// Source primary → coordinator: the handover for `epoch` committed on
    /// both sides; the coordinator may issue the next directive.
    ReshardDone {
        /// The epoch the completed move established.
        epoch: u64,
        /// The source (reporting) cluster.
        cluster: ClusterId,
    },
    /// Source primary → non-involved clusters after a handover commits: the
    /// new shard map. Involved clusters learn the map from the handover
    /// block itself; everyone else learns it here.
    MapAnnounce {
        /// The announced shard-map epoch.
        epoch: u64,
        /// The range overlays that transform the genesis map into the
        /// announced map.
        overlays: Vec<RangeMove>,
    },

    // ------------------------------------------------------------------
    // View change (liveness)
    // ------------------------------------------------------------------
    /// A replica votes to replace the primary of its cluster.
    ///
    /// In the crash model the vote carries the voter's accepted-but-
    /// uncommitted intra-shard rounds: any value committed in the old view
    /// gathered accepts from `f+1` replicas, and every view-change quorum of
    /// `f+1` intersects that set, so the new primary is guaranteed to learn
    /// (and re-propose at the same chain position) every possibly-committed
    /// value — the Paxos prepare-phase invariant that keeps the cluster's
    /// chain fork-free across primary replacement.
    ViewChange {
        /// The replica's cluster.
        cluster: ClusterId,
        /// The proposed new view.
        new_view: u64,
        /// The voting replica.
        node: NodeId,
        /// The voter's accepted-but-uncommitted rounds with their ballots
        /// (crash model; the vote doubles as a phase-1b promise).
        accepted: Vec<AcceptedRound>,
        /// The voter's prepared-but-uncommitted rounds with their
        /// certificates (Byzantine model).
        prepared: Vec<PreparedCert>,
        /// Length of the voter's committed chain. The would-be primary
        /// declines to lead while its own chain is shorter than any voter's:
        /// leading from behind would propose new work at an old height.
        chain_len: u64,
        /// Signature over `(cluster, new_view)`.
        sig: Signature,
    },
    /// The new primary announces the new view.
    NewView {
        /// The cluster changing views.
        cluster: ClusterId,
        /// The new view number.
        new_view: u64,
        /// The announcing (new primary) replica.
        node: NodeId,
        /// The prepared-certificates backing the rounds the new primary will
        /// replay (Byzantine model; empty in the crash model, whose replay
        /// is ballot-checked instead). Backups verify every certificate
        /// before installing the view.
        certs: Vec<PreparedCert>,
        /// Signature over `(cluster, new_view)`.
        sig: Signature,
    },
}

impl Msg {
    /// Whether this message starts work on a *new* transaction at the
    /// receiver (as opposed to advancing or finishing an already started
    /// round). Reserved replicas buffer exactly these messages: "once a node
    /// sends an accept message for a transaction, it does not process any
    /// other transactions" (§3.2).
    pub fn starts_new_transaction(&self) -> bool {
        matches!(
            self,
            Msg::Request { .. }
                | Msg::PaxosAccept { .. }
                | Msg::PrePrepare { .. }
                | Msg::XPropose { .. }
                | Msg::XProposeB { .. }
        )
    }

    /// Whether the message carries a signature that must be verified in the
    /// Byzantine model (used for CPU-cost accounting).
    pub fn is_signed(&self) -> bool {
        matches!(
            self,
            Msg::Request { .. }
                | Msg::PrePrepare { .. }
                | Msg::Prepare { .. }
                | Msg::PbftCommit { .. }
                | Msg::XProposeB { .. }
                | Msg::XAcceptB { .. }
                | Msg::XCommitB { .. }
                | Msg::ViewChange { .. }
                | Msg::NewView { .. }
        )
    }

    /// The proposal digest this message refers to, if it refers to one. For
    /// batch-carrying messages this is the batch's Merkle root; a `Request`
    /// answers with its transaction digest (requests are per-transaction).
    pub fn digest(&self) -> Option<Digest> {
        match self {
            Msg::Request { tx, .. } => Some(tx.digest()),
            Msg::Reply { .. } => None,
            Msg::PaxosAccept { batch, .. } | Msg::PaxosCommit { batch, .. } => Some(batch.digest()),
            Msg::PaxosAccepted { d, .. } => Some(*d),
            Msg::PrePrepare { batch, .. } => Some(batch.digest()),
            Msg::Prepare { d, .. } | Msg::PbftCommit { d, .. } => Some(*d),
            Msg::XPropose { batch, .. } | Msg::XProposeB { batch, .. } => Some(batch.digest()),
            Msg::XAccept { d, .. } | Msg::XAcceptB { d, .. } => Some(*d),
            Msg::XCommit { d, .. } | Msg::XCommitB { d, .. } => Some(*d),
            Msg::XAbort { d, .. } => Some(*d),
            Msg::XStatus { d, .. } => Some(*d),
            Msg::Redirect { .. }
            | Msg::LoadReport { .. }
            | Msg::ReshardDirective { .. }
            | Msg::ReshardDone { .. }
            | Msg::MapAnnounce { .. } => None,
            Msg::ViewChange { .. } | Msg::NewView { .. } => None,
        }
    }
}

/// An accepted-but-uncommitted intra-shard round carried by a crash-model
/// view-change vote: enough for the new primary to adopt the highest-ballot
/// value per chain position and re-propose it there (the block digest is a
/// pure function of `parent` and the batch).
#[derive(Debug, Clone, PartialEq)]
pub struct AcceptedRound {
    /// The ballot the round was accepted under.
    pub ballot: Ballot,
    /// The parent hash the batch was accepted under.
    pub parent: Digest,
    /// The accepted batch.
    pub batch: Batch,
}

/// Canonical bytes signed by the primary for a `PrePrepare`/`XProposeB`.
pub fn proposal_sign_bytes(view_or_initiator: u64, parent: &Digest, d: &Digest) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + 64 + 16);
    out.extend_from_slice(b"sharper-proposal");
    out.extend_from_slice(&view_or_initiator.to_le_bytes());
    out.extend_from_slice(parent.as_bytes());
    out.extend_from_slice(d.as_bytes());
    out
}

/// Canonical bytes signed by a replica for `Prepare`/`PbftCommit`/`XAcceptB`.
pub fn vote_sign_bytes(label: &[u8], context: u64, parent: &Digest, d: &Digest) -> Vec<u8> {
    let mut out = Vec::with_capacity(label.len() + 8 + 64);
    out.extend_from_slice(label);
    out.extend_from_slice(&context.to_le_bytes());
    out.extend_from_slice(parent.as_bytes());
    out.extend_from_slice(d.as_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharper_common::{AccountId, ClientId};

    fn tx() -> Arc<Transaction> {
        Arc::new(Transaction::transfer(
            ClientId(1),
            0,
            AccountId(1),
            AccountId(2),
            5,
        ))
    }

    fn batch() -> Batch {
        Batch::single(tx())
    }

    #[test]
    fn new_transaction_classification() {
        let sig = Signature::unsigned(0);
        assert!(Msg::Request {
            tx: tx(),
            epoch: 0,
            sig
        }
        .starts_new_transaction());
        assert!(!Msg::Redirect {
            tx: TxId::new(ClientId(1), 0),
            epoch: 1,
            overlays: Vec::new()
        }
        .starts_new_transaction());
        assert!(!Msg::ReshardDirective {
            epoch: 1,
            start: 0,
            len: 8,
            to: ClusterId(1)
        }
        .starts_new_transaction());
        assert!(Msg::PaxosAccept {
            ballot: Ballot::new(0, NodeId(0)),
            parent: Digest::ZERO,
            batch: batch()
        }
        .starts_new_transaction());
        assert!(Msg::XPropose {
            initiator: ClusterId(0),
            attempt: 0,
            parent: Digest::ZERO,
            batch: batch()
        }
        .starts_new_transaction());
        assert!(!Msg::PaxosAccepted {
            ballot: Ballot::new(0, NodeId(0)),
            d: Digest::ZERO,
            node: NodeId(1)
        }
        .starts_new_transaction());
        assert!(!Msg::XCommit {
            d: Digest::ZERO,
            parents: Arc::new(BTreeMap::new()),
            batch: batch()
        }
        .starts_new_transaction());
    }

    #[test]
    fn signed_classification_matches_byzantine_messages() {
        let sig = Signature::unsigned(0);
        assert!(Msg::PrePrepare {
            view: 0,
            parent: Digest::ZERO,
            batch: batch(),
            sig
        }
        .is_signed());
        assert!(Msg::XAcceptB {
            d: Digest::ZERO,
            attempt: 0,
            cluster: ClusterId(0),
            parent: Digest::ZERO,
            node: NodeId(0),
            sig
        }
        .is_signed());
        assert!(!Msg::PaxosAccept {
            ballot: Ballot::new(0, NodeId(0)),
            parent: Digest::ZERO,
            batch: batch()
        }
        .is_signed());
        assert!(!Msg::Reply {
            tx: TxId::new(ClientId(1), 0),
            node: NodeId(0),
            applied: true
        }
        .is_signed());
    }

    #[test]
    fn digest_extraction() {
        let t = tx();
        let b = Batch::single(Arc::clone(&t));
        let d = b.digest();
        assert_eq!(
            Msg::Request {
                tx: Arc::clone(&t),
                epoch: 0,
                sig: Signature::unsigned(0)
            }
            .digest(),
            Some(t.digest())
        );
        assert_eq!(
            Msg::LoadReport {
                cluster: ClusterId(0),
                epoch: 0,
                buckets: Vec::new()
            }
            .digest(),
            None
        );
        assert_eq!(
            Msg::PaxosAccept {
                ballot: Ballot::new(0, NodeId(0)),
                parent: Digest::ZERO,
                batch: b.clone()
            }
            .digest(),
            Some(d)
        );
        assert_eq!(
            Msg::XAccept {
                d,
                attempt: 1,
                cluster: ClusterId(2),
                parent: Digest::ZERO,
                height: 1,
                node: NodeId(3)
            }
            .digest(),
            Some(d)
        );
        assert_eq!(
            Msg::Reply {
                tx: t.id,
                node: NodeId(0),
                applied: true
            }
            .digest(),
            None
        );
    }

    #[test]
    fn sign_bytes_are_domain_separated_and_sensitive() {
        let d1 = Digest::ZERO;
        let d2 = sharper_crypto::hash(b"x");
        assert_ne!(
            proposal_sign_bytes(1, &d1, &d2),
            proposal_sign_bytes(2, &d1, &d2)
        );
        assert_ne!(
            vote_sign_bytes(b"prepare", 1, &d1, &d2),
            vote_sign_bytes(b"commit", 1, &d1, &d2)
        );
        assert_ne!(
            vote_sign_bytes(b"prepare", 1, &d1, &d2),
            vote_sign_bytes(b"prepare", 1, &d2, &d2)
        );
    }

    #[test]
    fn timer_tags_are_distinct() {
        use timer_tags::*;
        let tags = [
            CONFLICT,
            RETRY,
            VIEW_CHANGE,
            CLIENT_RETRY,
            BATCH,
            XABORT_RETRANSMIT,
            LOAD_REPORT,
            RESHARD_CHECK,
        ];
        for (i, a) in tags.iter().enumerate() {
            for b in &tags[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
