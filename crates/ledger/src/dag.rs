//! The conceptual global DAG ledger.
//!
//! "The blockchain ledger is indeed the union of all these physical views"
//! (§2.3). No replica ever materialises this union during normal operation;
//! it exists for analysis, visualisation and auditing. [`DagLedger`] reads
//! the union in place over a set of [`LedgerView`]s — the DAG structure
//! (blocks + parent edges) and the structural queries used by the audit
//! layer and by tests — without copying it: a block is named by its digest,
//! a block several views retain (a cross-shard block) is one vertex, and a
//! digest is looked up in the views' own digest → height indexes.

use crate::block::Block;
use crate::view::LedgerView;
use sharper_common::{ClusterId, TxId};
use sharper_crypto::Digest;

/// The union of all cluster views: the paper's Figure 2(a) object.
///
/// The union borrows the views it was built over and holds nothing else —
/// it is an analysis object that lives for the length of one audit, and a
/// run's views hold every block and every index already.
#[derive(Debug, Clone)]
pub struct DagLedger<'a> {
    /// The views, in the order given. Where several views retain a block,
    /// the first one's copy answers for it; where several views belong to
    /// one cluster, the last one is that cluster's order.
    views: Vec<&'a LedgerView>,
}

impl<'a> DagLedger<'a> {
    /// The union of the given views. Allocates one reference per view.
    pub fn union(views: &[&'a LedgerView]) -> Self {
        Self {
            views: views.to_vec(),
        }
    }

    /// The first view (by position) that retains the block `digest`, and
    /// the block's index among that view's retained blocks.
    fn locate(&self, digest: Digest) -> Option<(usize, usize)> {
        self.views
            .iter()
            .enumerate()
            .find_map(|(v, view)| Some((v, view.retained_index(digest)?)))
    }

    /// Every distinct block once, at its first view's copy.
    fn distinct_blocks(&self) -> impl Iterator<Item = &'a Block> + '_ {
        self.views.iter().enumerate().flat_map(move |(v, view)| {
            view.blocks()
                .filter(move |b| self.locate(b.digest()).map(|(first, _)| first) == Some(v))
        })
    }

    /// The view that holds `cluster`'s order: the last one of that cluster.
    fn view_of(&self, cluster: ClusterId) -> Option<&'a LedgerView> {
        self.views
            .iter()
            .rev()
            .find(|v| v.cluster() == cluster)
            .copied()
    }

    /// Number of distinct blocks (including the genesis block).
    pub fn block_count(&self) -> usize {
        self.distinct_blocks().count()
    }

    /// Number of distinct committed transactions (blocks may carry batches).
    pub fn transaction_count(&self) -> usize {
        let mut ids: Vec<TxId> = self.distinct_blocks().flat_map(Block::tx_ids).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// The clusters contributing views to the union, ascending.
    pub fn clusters(&self) -> impl Iterator<Item = ClusterId> {
        let mut clusters: Vec<ClusterId> = self.views.iter().map(|v| v.cluster()).collect();
        clusters.sort_unstable();
        clusters.dedup();
        clusters.into_iter()
    }

    /// A block by digest.
    pub fn block(&self, digest: Digest) -> Option<&'a Block> {
        let (v, i) = self.locate(digest)?;
        let view: &'a LedgerView = self.views[v];
        view.retained().get(i)
    }

    /// Whether a transaction is committed anywhere in the DAG.
    pub fn contains_tx(&self, tx: TxId) -> bool {
        self.views
            .iter()
            .flat_map(|v| v.blocks())
            .any(|b| b.tx_ids().any(|id| id == tx))
    }

    /// The per-cluster commit order (digests) of a cluster's view.
    pub fn order_of(&self, cluster: ClusterId) -> Option<impl Iterator<Item = Digest> + 'a> {
        Some(self.view_of(cluster)?.blocks().map(Block::digest))
    }

    /// All edges of the DAG as (child, parent) digest pairs.
    pub fn edges(&self) -> Vec<(Digest, Digest)> {
        self.distinct_blocks()
            .flat_map(|b| b.parents.digests().map(move |p| (b.digest(), p)))
            .collect()
    }

    /// Checks that the parent relation is acyclic.
    ///
    /// With honest hash chaining this always holds (a cycle would require a
    /// hash collision); the check exists to catch bugs in hand-constructed
    /// test ledgers and in Byzantine-behaviour experiments that forge blocks.
    ///
    /// Each retained copy of a block is read as its view stores it and
    /// comes after its predecessor in that view. A parent is that
    /// predecessor when the digests match, and otherwise the first retained
    /// copy of its digest (parents outside the union are roots). On views
    /// that pass [`LedgerView::verify_chain`] this is exactly the union with
    /// one vertex per digest: a block's digest commits to its parents, so
    /// all its copies name the same ones, and its parent in its own cluster
    /// is its predecessor. `verify_chain` checks the genesis block by its
    /// body alone, so its parents are read from its first copy, as the
    /// union holds it.
    pub fn is_acyclic(&self) -> bool {
        // Kahn's algorithm with the placed blocks of each view a prefix: a
        // block is placed once its parents are. A parent that is the
        // predecessor costs nothing, any other up to one index lookup per
        // view. A view that stops at an unplaced parent waits until that
        // parent's view has passed it, so a block is examined once per
        // parent it waits on, and the only allocations are a few words per
        // view.
        let mut placed = vec![0usize; self.views.len()];
        let mut waiting: Vec<Option<(usize, usize)>> = vec![None; self.views.len()];
        let mut runnable: Vec<usize> = (0..self.views.len()).rev().collect();
        while let Some(v) = runnable.pop() {
            let blocks = self.views[v].retained();
            while let Some(block) = blocks.get(placed[v]) {
                let stored = if block.is_genesis() {
                    self.block(block.digest()).unwrap_or(block)
                } else {
                    block
                };
                let predecessor = placed[v].checked_sub(1).map(|i| blocks[i].digest());
                let unplaced = stored
                    .parents
                    .digests()
                    .filter(|&parent| Some(parent) != predecessor)
                    .filter_map(|parent| self.locate(parent))
                    .find(|&(u, i)| i >= placed[u]);
                match unplaced {
                    Some(at) => {
                        waiting[v] = Some(at);
                        break;
                    }
                    None => placed[v] += 1,
                }
            }
            for (w, wait) in waiting.iter_mut().enumerate() {
                if matches!(*wait, Some((u, i)) if u == v && i < placed[v]) {
                    *wait = None;
                    runnable.push(w);
                }
            }
        }
        self.views
            .iter()
            .zip(&placed)
            .all(|(view, &placed)| placed == view.retained_blocks())
    }

    /// The set of cross-shard blocks shared by two clusters, in the order the
    /// first cluster committed them.
    pub fn shared_blocks(&self, a: ClusterId, b: ClusterId) -> Vec<Digest> {
        let (Some(order_a), Some(view_b)) = (self.order_of(a), self.view_of(b)) else {
            return Vec::new();
        };
        order_a
            .filter(|&d| view_b.retained_index(d).is_some())
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
        assert!(dag.order_of(ClusterId(0)).unwrap().eq(heads));
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
        assert!(DagLedger::union(&[&v]).is_acyclic());

        // Corrupt the committed copy of b1 to point at b2, closing a cycle.
        // Its stored digest stays b1's, so b2 still names it as parent.
        v.retained_mut()[1].parents = Parents::single(ClusterId(0), b2.digest());
        assert!(!DagLedger::union(&[&v]).is_acyclic());
    }

    #[test]
    fn forged_cycle_across_two_views_is_detected() {
        // Each view's only block is forged to also name the other's as a
        // parent: neither can be placed before the other.
        let mut v0 = LedgerView::new(ClusterId(0));
        let mut v1 = LedgerView::new(ClusterId(1));
        let x = intra(&v0, tx(1, 0));
        let y = intra(&v1, tx(2, 0));
        v0.append(x.clone()).unwrap();
        v1.append(y.clone()).unwrap();
        let genesis = Block::genesis().digest();
        assert!(DagLedger::union(&[&v0, &v1]).is_acyclic());
        v0.retained_mut()[1].parents =
            Parents::new([(ClusterId(0), genesis), (ClusterId(1), y.digest())]).unwrap();
        v1.retained_mut()[1].parents =
            Parents::new([(ClusterId(0), x.digest()), (ClusterId(1), genesis)]).unwrap();
        assert!(!DagLedger::union(&[&v0, &v1]).is_acyclic());
        assert!(!DagLedger::union(&[&v1, &v0]).is_acyclic());
    }

    #[test]
    fn a_view_that_must_wait_for_another_is_still_acyclic() {
        // Cluster 1's view is listed first and stops at the cross-shard
        // block until cluster 0's view has placed that block's other parent.
        let (v0, v1) = two_cluster_dag();
        assert!(DagLedger::union(&[&v1, &v0]).is_acyclic());
        assert!(DagLedger::union(&[&v1, &v0, &v1]).is_acyclic());
    }
}
