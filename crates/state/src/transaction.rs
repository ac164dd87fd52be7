//! Transactions of the accounting application (§2.4, §4).
//!
//! A transaction is requested by a client and consists of one or more
//! transfer operations ("transfer x units from account 1001 to account
//! 1002"). A transaction is *intra-shard* if every account it touches lives
//! in one shard and *cross-shard* otherwise; the set of involved clusters is
//! derived from the accounts through the [`crate::Partitioner`].

use crate::partition::Partitioner;
use sharper_common::{AccountId, ClientId, ClusterId, TxId};
use sharper_crypto::{hash, Digest};
use std::collections::BTreeSet;
use std::fmt;

/// One account's state carried by a [`Operation::Handover`]: its offset
/// inside the moved range plus the balance and owner to install on the
/// destination shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HandoverEntry {
    /// Account offset within the moved range (`account = start + offset`).
    pub offset: u64,
    /// The account's balance at the freeze point.
    pub balance: u64,
    /// The account's owner.
    pub owner: ClientId,
}

/// A single operation inside a transaction.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Operation {
    /// Move `amount` units from `from` to `to`. Valid only if the requesting
    /// client owns `from` and `from` has at least `amount` units.
    Transfer {
        /// Source account (debited).
        from: AccountId,
        /// Destination account (credited).
        to: AccountId,
        /// Number of units moved.
        amount: u64,
    },
    /// Read the balance of an account (used by read-heavy workloads; has no
    /// effect on state but still participates in ordering).
    Read {
        /// The account being read.
        account: AccountId,
    },
    /// Resharding phase 1: stabilise the account range `[start, start+len)`
    /// on its current owner shard. Ordered intra-shard like any transaction;
    /// once applied, client transactions touching the range abort
    /// deterministically until the handover completes.
    Freeze {
        /// First account of the range being moved.
        start: u64,
        /// Number of consecutive accounts.
        len: u64,
        /// The shard-map epoch this reshard will establish.
        epoch: u64,
    },
    /// Resharding phase 2: the cross-shard handover moving the frozen range
    /// from shard `from` to shard `to`. Rides the flattened cross-shard
    /// commit, so the range leaves the source and lands on the destination
    /// in one atomically committed (and audited) block on both chains.
    Handover {
        /// First account of the moved range.
        start: u64,
        /// Number of consecutive accounts.
        len: u64,
        /// The shard giving the range up.
        from: ClusterId,
        /// The shard receiving the range.
        to: ClusterId,
        /// The shard-map epoch both clusters switch to at apply.
        epoch: u64,
        /// The frozen account states being moved.
        entries: Vec<HandoverEntry>,
    },
}

impl Operation {
    /// The accounts this operation touches.
    pub fn accounts(&self) -> Vec<AccountId> {
        match self {
            Operation::Transfer { from, to, .. } => vec![*from, *to],
            Operation::Read { account } => vec![*account],
            // Reshard operations address whole ranges, not accounts; their
            // cluster routing is explicit (see `involved_clusters`), so they
            // contribute the range start as a representative account only
            // for conflict purposes on the owning shard.
            Operation::Freeze { start, .. } | Operation::Handover { start, .. } => {
                vec![AccountId(*start)]
            }
        }
    }

    /// Whether this is a resharding control operation (freeze or handover).
    pub fn is_reshard(&self) -> bool {
        matches!(self, Operation::Freeze { .. } | Operation::Handover { .. })
    }

    /// Canonical byte encoding used for hashing/signing.
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Operation::Transfer { from, to, amount } => {
                out.push(0x01);
                out.extend_from_slice(&from.0.to_le_bytes());
                out.extend_from_slice(&to.0.to_le_bytes());
                out.extend_from_slice(&amount.to_le_bytes());
            }
            Operation::Read { account } => {
                out.push(0x02);
                out.extend_from_slice(&account.0.to_le_bytes());
            }
            Operation::Freeze { start, len, epoch } => {
                out.push(0x03);
                out.extend_from_slice(&start.to_le_bytes());
                out.extend_from_slice(&len.to_le_bytes());
                out.extend_from_slice(&epoch.to_le_bytes());
            }
            Operation::Handover {
                start,
                len,
                from,
                to,
                epoch,
                entries,
            } => {
                out.push(0x04);
                out.extend_from_slice(&start.to_le_bytes());
                out.extend_from_slice(&len.to_le_bytes());
                out.extend_from_slice(&from.0.to_le_bytes());
                out.extend_from_slice(&to.0.to_le_bytes());
                out.extend_from_slice(&epoch.to_le_bytes());
                out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
                for e in entries {
                    out.extend_from_slice(&e.offset.to_le_bytes());
                    out.extend_from_slice(&e.balance.to_le_bytes());
                    out.extend_from_slice(&e.owner.0.to_le_bytes());
                }
            }
        }
    }
}

/// A client transaction: the unit of consensus and the content of exactly one
/// block (§2.3: "each block consists of a single transaction").
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Transaction {
    /// Globally unique identifier (client id + client-local sequence).
    pub id: TxId,
    /// The operations to apply atomically.
    pub operations: Vec<Operation>,
}

impl Transaction {
    /// Creates a transaction.
    pub fn new(id: TxId, operations: Vec<Operation>) -> Self {
        Self { id, operations }
    }

    /// Convenience constructor for a single transfer.
    pub fn transfer(
        client: ClientId,
        seq: u64,
        from: AccountId,
        to: AccountId,
        amount: u64,
    ) -> Self {
        Self::new(
            TxId::new(client, seq),
            vec![Operation::Transfer { from, to, amount }],
        )
    }

    /// Convenience constructor for a resharding freeze.
    pub fn freeze(client: ClientId, seq: u64, start: u64, len: u64, epoch: u64) -> Self {
        Self::new(
            TxId::new(client, seq),
            vec![Operation::Freeze { start, len, epoch }],
        )
    }

    /// The client that requested the transaction.
    pub fn client(&self) -> ClientId {
        self.id.client
    }

    /// Whether the transaction carries any resharding control operation.
    pub fn is_reshard(&self) -> bool {
        self.operations.iter().any(Operation::is_reshard)
    }

    /// The handover operation, if this is a handover transaction.
    pub fn handover_op(&self) -> Option<&Operation> {
        self.operations
            .iter()
            .find(|op| matches!(op, Operation::Handover { .. }))
    }

    /// Every account the transaction touches (deduplicated, sorted).
    pub fn accounts(&self) -> Vec<AccountId> {
        let set: BTreeSet<AccountId> = self
            .operations
            .iter()
            .flat_map(|op| op.accounts())
            .collect();
        set.into_iter().collect()
    }

    /// The clusters (shards) involved in this transaction, sorted ascending.
    ///
    /// A [`Operation::Handover`] names its involved clusters explicitly
    /// (`{from, to}`), so handover routing never depends on which shard-map
    /// epoch the computing node holds — the one place where epoch skew could
    /// otherwise fork the involved set mid-reconfiguration.
    pub fn involved_clusters(&self, partitioner: &Partitioner) -> Vec<ClusterId> {
        let mut set: BTreeSet<ClusterId> = BTreeSet::new();
        for op in &self.operations {
            match op {
                Operation::Handover { from, to, .. } => {
                    set.insert(*from);
                    set.insert(*to);
                }
                _ => {
                    for a in op.accounts() {
                        set.insert(partitioner.shard_of(a));
                    }
                }
            }
        }
        set.into_iter().collect()
    }

    /// Whether this transaction touches more than one shard.
    pub fn is_cross_shard(&self, partitioner: &Partitioner) -> bool {
        self.involved_clusters(partitioner).len() > 1
    }

    /// Canonical byte encoding used for hashing and signing.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + self.operations.len() * 25);
        out.extend_from_slice(b"sharper-tx");
        out.extend_from_slice(&self.id.client.0.to_le_bytes());
        out.extend_from_slice(&self.id.seq.to_le_bytes());
        out.extend_from_slice(&(self.operations.len() as u32).to_le_bytes());
        for op in &self.operations {
            op.encode_into(&mut out);
        }
        out
    }

    /// The digest `D(m)` of this transaction.
    pub fn digest(&self) -> Digest {
        hash(&self.canonical_bytes())
    }
}

impl fmt::Display for Transaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{} op(s)]", self.id, self.operations.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn partitioner() -> Partitioner {
        // 4 shards, 1000 accounts per shard, range partitioned.
        Partitioner::range(4, 1000)
    }

    #[test]
    fn accounts_are_deduplicated_and_sorted() {
        let tx = Transaction::new(
            TxId::new(ClientId(1), 0),
            vec![
                Operation::Transfer {
                    from: AccountId(5),
                    to: AccountId(2),
                    amount: 1,
                },
                Operation::Transfer {
                    from: AccountId(2),
                    to: AccountId(5),
                    amount: 1,
                },
            ],
        );
        assert_eq!(tx.accounts(), vec![AccountId(2), AccountId(5)]);
    }

    #[test]
    fn intra_vs_cross_shard_detection() {
        let p = partitioner();
        let intra = Transaction::transfer(ClientId(1), 0, AccountId(10), AccountId(20), 5);
        assert!(!intra.is_cross_shard(&p));
        assert_eq!(intra.involved_clusters(&p), vec![ClusterId(0)]);

        let cross = Transaction::transfer(ClientId(1), 1, AccountId(10), AccountId(1500), 5);
        assert!(cross.is_cross_shard(&p));
        assert_eq!(
            cross.involved_clusters(&p),
            vec![ClusterId(0), ClusterId(1)]
        );
    }

    #[test]
    fn involved_clusters_are_sorted_regardless_of_operation_order() {
        let p = partitioner();
        let tx = Transaction::new(
            TxId::new(ClientId(2), 7),
            vec![
                Operation::Transfer {
                    from: AccountId(3500),
                    to: AccountId(100),
                    amount: 1,
                },
                Operation::Read {
                    account: AccountId(2500),
                },
            ],
        );
        assert_eq!(
            tx.involved_clusters(&p),
            vec![ClusterId(0), ClusterId(2), ClusterId(3)]
        );
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let a = Transaction::transfer(ClientId(1), 0, AccountId(1), AccountId(2), 10);
        let b = Transaction::transfer(ClientId(1), 0, AccountId(1), AccountId(2), 10);
        let c = Transaction::transfer(ClientId(1), 0, AccountId(1), AccountId(2), 11);
        let d = Transaction::transfer(ClientId(1), 1, AccountId(1), AccountId(2), 10);
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
        assert_ne!(a.digest(), d.digest());
    }

    #[test]
    fn read_operations_touch_one_account() {
        let op = Operation::Read {
            account: AccountId(9),
        };
        assert_eq!(op.accounts(), vec![AccountId(9)]);
    }

    #[test]
    fn display_mentions_id_and_op_count() {
        let tx = Transaction::transfer(ClientId(3), 4, AccountId(1), AccountId(2), 1);
        assert_eq!(tx.to_string(), "t3.4[1 op(s)]");
    }

    #[test]
    fn handover_involved_clusters_are_explicit_and_map_independent() {
        let p = partitioner();
        let tx = Transaction::new(
            TxId::new(ClientId(9), 0),
            vec![Operation::Handover {
                start: 500,
                len: 100,
                from: ClusterId(0),
                to: ClusterId(3),
                epoch: 1,
                entries: vec![HandoverEntry {
                    offset: 0,
                    balance: 42,
                    owner: ClientId(500),
                }],
            }],
        );
        assert!(tx.is_reshard());
        assert!(tx.handover_op().is_some());
        assert_eq!(tx.involved_clusters(&p), vec![ClusterId(0), ClusterId(3)]);
        // Even a partitioner that already routes the range elsewhere yields
        // the same involved set: handovers carry their clusters explicitly.
        let mut moved = partitioner();
        moved.apply_range_move(500, 100, ClusterId(3));
        assert_eq!(
            tx.involved_clusters(&moved),
            vec![ClusterId(0), ClusterId(3)]
        );
        assert!(tx.is_cross_shard(&p));
    }

    #[test]
    fn freeze_routes_to_range_owner_and_hashes_stably() {
        let p = partitioner();
        let tx = Transaction::freeze(ClientId(1), 0, 1200, 100, 1);
        assert!(tx.is_reshard());
        assert_eq!(tx.involved_clusters(&p), vec![ClusterId(1)]);
        assert!(!tx.is_cross_shard(&p));
        let again = Transaction::freeze(ClientId(1), 0, 1200, 100, 1);
        assert_eq!(tx.digest(), again.digest());
        let other = Transaction::freeze(ClientId(1), 0, 1200, 100, 2);
        assert_ne!(tx.digest(), other.digest());
    }

    #[test]
    fn canonical_bytes_distinguish_op_order() {
        let ops1 = vec![
            Operation::Read {
                account: AccountId(1),
            },
            Operation::Read {
                account: AccountId(2),
            },
        ];
        let ops2 = vec![
            Operation::Read {
                account: AccountId(2),
            },
            Operation::Read {
                account: AccountId(1),
            },
        ];
        let t1 = Transaction::new(TxId::new(ClientId(1), 0), ops1);
        let t2 = Transaction::new(TxId::new(ClientId(1), 0), ops2);
        assert_ne!(t1.digest(), t2.digest());
    }
}
