//! The conceptual global DAG ledger.
//!
//! "The blockchain ledger is indeed the union of all these physical views"
//! (§2.3). No replica ever materialises this union during normal operation;
//! it exists for analysis, visualisation and auditing. [`DagLedger`] builds
//! the union from a set of [`LedgerView`]s, exposes the DAG structure
//! (blocks + parent edges) and offers structural queries used by the audit
//! layer and by tests.

use crate::block::Block;
use crate::view::LedgerView;
use sharper_common::{ClusterId, TxId};
use sharper_crypto::Digest;
use std::collections::{BTreeMap, HashMap, HashSet};

/// The union of all cluster views: the paper's Figure 2(a) object.
///
/// The union borrows its blocks from the views it was built over — it is an
/// analysis object that lives for the length of one audit, and a run's views
/// hold every block already.
#[derive(Debug, Clone)]
pub struct DagLedger<'a> {
    /// All distinct blocks, keyed by digest.
    blocks: HashMap<Digest, &'a Block>,
    /// For every cluster, the ordered list of block digests of its view.
    orders: BTreeMap<ClusterId, Vec<Digest>>,
}

impl<'a> DagLedger<'a> {
    /// Builds the union of the given views.
    ///
    /// Identical blocks appearing in several views (cross-shard blocks) are
    /// deduplicated by digest.
    pub fn union(views: &[&'a LedgerView]) -> Self {
        let retained = views.iter().map(|v| v.retained_blocks()).sum();
        let mut blocks = HashMap::with_capacity(retained);
        let mut orders = BTreeMap::new();
        for view in views {
            let mut order = Vec::with_capacity(view.retained_blocks());
            for block in view.blocks() {
                order.push(block.digest());
                blocks.entry(block.digest()).or_insert(block);
            }
            orders.insert(view.cluster(), order);
        }
        Self { blocks, orders }
    }

    /// Number of distinct blocks (including the genesis block).
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Number of distinct committed transactions (blocks may carry batches).
    pub fn transaction_count(&self) -> usize {
        self.blocks
            .values()
            .flat_map(|b| b.tx_ids())
            .collect::<HashSet<TxId>>()
            .len()
    }

    /// The clusters contributing views to the union.
    pub fn clusters(&self) -> impl Iterator<Item = ClusterId> + '_ {
        self.orders.keys().copied()
    }

    /// A block by digest.
    pub fn block(&self, digest: Digest) -> Option<&'a Block> {
        self.blocks.get(&digest).copied()
    }

    /// Whether a transaction is committed anywhere in the DAG.
    pub fn contains_tx(&self, tx: TxId) -> bool {
        self.blocks.values().any(|b| b.tx_ids().any(|id| id == tx))
    }

    /// The per-cluster commit order (digests) of a cluster's view.
    pub fn order_of(&self, cluster: ClusterId) -> Option<&[Digest]> {
        self.orders.get(&cluster).map(|v| v.as_slice())
    }

    /// All edges of the DAG as (child, parent) digest pairs.
    pub fn edges(&self) -> Vec<(Digest, Digest)> {
        let mut out = Vec::new();
        for block in self.blocks.values() {
            for parent in block.parents.digests() {
                out.push((block.digest(), parent));
            }
        }
        out
    }

    /// Checks that the parent relation is acyclic.
    ///
    /// With honest hash chaining this always holds (a cycle would require a
    /// hash collision); the check exists to catch bugs in hand-constructed
    /// test ledgers and in Byzantine-behaviour experiments that forge blocks.
    pub fn is_acyclic(&self) -> bool {
        // Kahn's algorithm over the child→parent edges restricted to blocks
        // we actually know about (parents outside the union are roots).
        // Blocks are keyed by their index digest (the key under which they
        // were stored), which also covers forged entries whose stored digest
        // no longer matches their contents. Each block gets a dense number so
        // degrees and child lists are plain vectors.
        let number: HashMap<&Digest, usize> = self
            .blocks
            .keys()
            .enumerate()
            .map(|(i, key)| (key, i))
            .collect();
        let mut indegree = vec![0usize; number.len()];
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); number.len()];
        // (A map that is not modified iterates in the same order every time.)
        for (child, block) in self.blocks.values().enumerate() {
            for parent in block.parents.digests() {
                if let Some(&parent) = number.get(&parent) {
                    indegree[child] += 1;
                    children[parent].push(child);
                }
            }
        }
        let mut ready: Vec<usize> = (0..number.len()).filter(|&i| indegree[i] == 0).collect();
        let mut visited = 0usize;
        while let Some(block) = ready.pop() {
            visited += 1;
            for &child in &children[block] {
                indegree[child] -= 1;
                if indegree[child] == 0 {
                    ready.push(child);
                }
            }
        }
        visited == self.blocks.len()
    }

    /// The set of cross-shard blocks shared by two clusters, in the order the
    /// first cluster committed them.
    pub fn shared_blocks(&self, a: ClusterId, b: ClusterId) -> Vec<Digest> {
        let (Some(order_a), Some(order_b)) = (self.orders.get(&a), self.orders.get(&b)) else {
            return Vec::new();
        };
        let in_b: HashSet<&Digest> = order_b.iter().collect();
        order_a
            .iter()
            .filter(|d| in_b.contains(d))
            .copied()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Parents;
    use crate::view::LedgerView;
    use sharper_common::{AccountId, ClientId};
    use sharper_state::Transaction;

    fn tx(client: u64, seq: u64) -> Transaction {
        Transaction::transfer(ClientId(client), seq, AccountId(1), AccountId(2), 1)
    }

    fn intra(view: &LedgerView, t: Transaction) -> Block {
        Block::transaction(t, Parents::single(view.cluster(), view.head()))
    }

    fn cross(views: &[&LedgerView], t: Transaction) -> Block {
        let parents = Parents::new(views.iter().map(|v| (v.cluster(), v.head())));
        Block::transaction(t, parents.expect("distinct clusters"))
    }

    /// Builds the ledger from the paper's Figure 2 in miniature: two clusters
    /// with intra-shard blocks and one shared cross-shard block.
    fn two_cluster_dag() -> (LedgerView, LedgerView) {
        let mut v0 = LedgerView::new(ClusterId(0));
        let mut v1 = LedgerView::new(ClusterId(1));
        v0.append(intra(&v0, tx(1, 0))).unwrap();
        v1.append(intra(&v1, tx(2, 0))).unwrap();
        let c = cross(&[&v0, &v1], tx(3, 0));
        v0.append(c.clone()).unwrap();
        v1.append(c).unwrap();
        v0.append(intra(&v0, tx(1, 1))).unwrap();
        (v0, v1)
    }

    #[test]
    fn union_deduplicates_shared_blocks() {
        let (v0, v1) = two_cluster_dag();
        let dag = DagLedger::union(&[&v0, &v1]);
        // genesis + 2 intra of p0 + 1 intra of p1 + 1 cross = 5 blocks.
        assert_eq!(dag.block_count(), 5);
        assert_eq!(dag.transaction_count(), 4);
        assert_eq!(dag.clusters().count(), 2);
    }

    #[test]
    fn union_preserves_per_cluster_order() {
        let (v0, v1) = two_cluster_dag();
        let heads: Vec<Digest> = v0.blocks().map(|b| b.digest()).collect();
        let dag = DagLedger::union(&[&v0, &v1]);
        assert_eq!(dag.order_of(ClusterId(0)).unwrap(), heads.as_slice());
        assert!(dag.order_of(ClusterId(7)).is_none());
    }

    #[test]
    fn dag_is_acyclic_and_edges_point_to_parents() {
        let (v0, v1) = two_cluster_dag();
        let dag = DagLedger::union(&[&v0, &v1]);
        assert!(dag.is_acyclic());
        // genesis has no parents; each intra block 1 edge; cross block 2.
        assert_eq!(dag.edges().len(), 3 + 2);
    }

    #[test]
    fn shared_blocks_between_clusters() {
        let (v0, v1) = two_cluster_dag();
        let dag = DagLedger::union(&[&v0, &v1]);
        let shared = dag.shared_blocks(ClusterId(0), ClusterId(1));
        // genesis + the one cross-shard block.
        assert_eq!(shared.len(), 2);
        assert_eq!(shared[0], Block::genesis().digest());
        assert!(dag.contains_tx(sharper_common::TxId::new(ClientId(3), 0)));
        assert!(!dag.contains_tx(sharper_common::TxId::new(ClientId(9), 9)));
        assert!(dag.block(v0.head()).is_some());
    }

    #[test]
    fn forged_cycle_is_detected() {
        // Hand-construct two blocks that (impossibly, absent hash breaks)
        // reference each other by overriding the stored parent digests.
        let mut v = LedgerView::new(ClusterId(0));
        let b1 = intra(&v, tx(1, 0));
        v.append(b1.clone()).unwrap();
        let b2 = intra(&v, tx(1, 1));
        v.append(b2.clone()).unwrap();

        let mut dag = DagLedger::union(&[&v]);
        // Corrupt the stored copy of b1 to point at b2, closing a cycle.
        let forged = Block::transaction(tx(1, 0), Parents::single(ClusterId(0), b2.digest()));
        dag.blocks.insert(b1.digest(), &forged);
        assert!(!dag.is_acyclic());
    }
}
