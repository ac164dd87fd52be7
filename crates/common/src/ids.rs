//! Strongly typed identifiers used throughout the SharPer reproduction.
//!
//! The paper (§2.1–§2.2) identifies three kinds of participants: replicas
//! (nodes), clusters (shards) and clients. Transactions and client requests
//! also carry identifiers so that replicas can detect duplicates and clients
//! can match replies to requests.

use std::fmt;

/// Identifier of a replica (a node participating in consensus).
///
/// Node identifiers are globally unique across the whole network, not just
/// within a cluster; the [`crate::SystemConfig`] records which cluster each
/// node belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the raw index of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a cluster. Because SharPer assigns exactly one data shard to
/// each cluster (§2.2), the same identifier doubles as the shard identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClusterId(pub u32);

impl ClusterId {
    /// Returns the raw index of this cluster.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ClusterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Identifier of a client of the accounting application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClientId(pub u64);

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Identifier of an account in the account-based data model (§2.4).
///
/// The partitioner in `sharper-state` maps accounts to shards; see
/// [`crate::SystemConfig`] for the number of shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AccountId(pub u64);

impl fmt::Display for AccountId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// Globally unique identifier of a transaction.
///
/// Transaction identifiers are assigned by clients (client id + client-local
/// sequence number) so that replicas can deduplicate retransmissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxId {
    /// The client that issued the transaction.
    pub client: ClientId,
    /// The client-local sequence number (the paper's timestamp `τc`).
    pub seq: u64,
}

impl TxId {
    /// Creates a transaction identifier.
    pub fn new(client: ClientId, seq: u64) -> Self {
        Self { client, seq }
    }
}

impl fmt::Display for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}.{}", self.client.0, self.seq)
    }
}

/// Identifier of a client request as seen by the protocol layer.
///
/// For SharPer this is identical to the transaction id, but baseline systems
/// that batch or re-sequence requests also use it as an opaque handle.
pub type RequestId = TxId;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn display_formats() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(ClusterId(0).to_string(), "p0");
        assert_eq!(ClientId(7).to_string(), "c7");
        assert_eq!(AccountId(42).to_string(), "a42");
        assert_eq!(TxId::new(ClientId(2), 9).to_string(), "t2.9");
    }

    #[test]
    fn node_id_ordering_and_index() {
        assert!(NodeId(1) < NodeId(2));
        assert_eq!(NodeId(5).index(), 5);
        assert_eq!(ClusterId(2).index(), 2);
    }

    #[test]
    fn tx_ids_are_unique_per_client_sequence() {
        let mut set = HashSet::new();
        for c in 0..4u64 {
            for s in 0..16u64 {
                assert!(set.insert(TxId::new(ClientId(c), s)));
            }
        }
        assert_eq!(set.len(), 64);
    }

    #[test]
    fn tx_id_ordering_is_client_then_sequence() {
        let a = TxId::new(ClientId(1), 100);
        let b = TxId::new(ClientId(2), 1);
        assert!(a < b);
        let c = TxId::new(ClientId(1), 101);
        assert!(a < c);
    }

    #[test]
    fn ids_are_copy_and_hashable() {
        fn assert_copy_hash<T: Copy + std::hash::Hash + Eq>() {}
        assert_copy_hash::<NodeId>();
        assert_copy_hash::<ClusterId>();
        assert_copy_hash::<ClientId>();
        assert_copy_hash::<AccountId>();
        assert_copy_hash::<TxId>();
    }
}
