//! Safety auditors run over the ledger views after an experiment.
//!
//! SharPer's safety argument (§3.2, §3.3) boils down to three observable
//! properties of the committed ledger views:
//!
//! 1. **Chain validity** — every view is a valid hash chain rooted at λ.
//! 2. **Cross-shard order agreement** — for every pair of clusters, the
//!    cross-shard blocks they share appear in the same relative order in both
//!    views ("t1 and t2 must be appended to the blockchain of p2 and p3 (the
//!    overlapping clusters) in the same order").
//! 3. **No duplication** — no transaction commits twice in the same view,
//!    and replicas of the same cluster agree on their view prefix.
//!
//! The functions here are used by unit tests, the integration suite, the
//! figure harness and every `SharperSystem::run` (every experiment run is
//! audited before its numbers are reported).
//!
//! ## Cost
//!
//! Over `V` views retaining `B` blocks that carry `T` transactions,
//! [`audit_views`] re-derives each block's digest and batch root once
//! ([`LedgerView::verify_chain`]), sorts one 24-byte record per transaction
//! — O(T log T) time and 24·T bytes, its only allocation that grows with the
//! ledger — and checks acyclicity through the views' own digest → height
//! indexes, O(B·V) lookups and a few words per view. No table is keyed by
//! digest and none is sized by all-history counts, so a truncating run
//! audits in memory proportional to what it retains.
//! [`check_replica_agreement`] makes one index lookup per retained block of
//! each replica and allocates nothing.

use crate::block::Block;
use crate::dag::DagLedger;
use crate::view::LedgerView;
use sharper_common::{ClusterId, Error, Result, TxId};
use std::borrow::Borrow;
use std::collections::HashMap;

/// Summary of a successful audit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditReport {
    /// Number of views audited.
    pub views: usize,
    /// Number of distinct committed transactions across all views.
    pub distinct_transactions: usize,
    /// Number of distinct cross-shard transactions.
    pub cross_shard_transactions: usize,
    /// Number of cluster pairs whose shared order was compared.
    pub compared_pairs: usize,
}

/// Audits a set of per-cluster views (one representative view per cluster).
///
/// Returns an [`AuditReport`] on success and the first violation found
/// otherwise, checking in this order: each view's chain, one block per
/// transaction, acyclicity of the union, and the shared order of every
/// cluster pair. The views are only read, so owned and borrowed views audit
/// alike; no views audit to an empty report.
pub fn audit_views<V: Borrow<LedgerView>>(views: &[V]) -> Result<AuditReport> {
    let views: Vec<&LedgerView> = views.iter().map(Borrow::borrow).collect();

    // 1. Chain validity of every view.
    for view in &views {
        view.verify_chain()?;
    }

    // 2. A transaction that appears in several views must be carried by the
    //    same block everywhere (same parents, same batch, same digest): the
    //    cross-shard commit message distributes one block to all involved
    //    clusters.
    let slots = Slots::sorted(&views);
    if let Some(tx) = slots.first_split_transaction() {
        return Err(Error::SafetyViolation(format!(
            "transaction {tx} committed as two different blocks in different views"
        )));
    }

    // 3. The union is acyclic, and every pair of clusters agrees on the
    //    relative order of the transactions both carry.
    let dag = DagLedger::union(&views);
    if !dag.is_acyclic() {
        return Err(Error::SafetyViolation(
            "the union ledger contains a cycle".into(),
        ));
    }
    if let Some((a, b)) = slots.first_misordered_pair() {
        return Err(Error::SafetyViolation(format!(
            "clusters {a} and {b} order their shared cross-shard transactions differently"
        )));
    }

    let clusters = dag.clusters().count();
    Ok(AuditReport {
        views: views.len(),
        distinct_transactions: slots.groups().count(),
        // A cross-shard block may batch several cross-shard transactions.
        cross_shard_transactions: slots
            .groups()
            .filter(|group| slots.block(group[0]).is_cross_shard())
            .count(),
        compared_pairs: clusters * clusters.saturating_sub(1) / 2,
    })
}

/// Where a retained block carries a transaction: the record the audit sorts
/// by transaction id (24 bytes). Sorted, the records of one transaction are
/// adjacent and in the order a view-by-view, block-by-block scan meets them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Slot {
    tx: TxId,
    /// Position of the view in the audited slice.
    view: u32,
    /// Index of the block among the view's retained blocks.
    block: u32,
}

/// A transaction carried by two clusters' views, as the pair and the block
/// index in each (16 bytes, `a < b`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Shared {
    a: ClusterId,
    b: ClusterId,
    block_a: u32,
    block_b: u32,
}

/// Every transaction slot of the audited views, sorted by transaction id.
struct Slots<'v> {
    views: &'v [&'v LedgerView],
    sorted: Vec<Slot>,
}

impl<'v> Slots<'v> {
    fn sorted(views: &'v [&'v LedgerView]) -> Self {
        let len = views
            .iter()
            .flat_map(|v| v.blocks())
            .map(Block::tx_count)
            .sum();
        let mut sorted = Vec::with_capacity(len);
        for (view, v) in views.iter().enumerate() {
            let view = u32::try_from(view).expect("fewer than 2^32 views");
            for (block, b) in v.blocks().enumerate() {
                let block = u32::try_from(block).expect("fewer than 2^32 retained blocks");
                sorted.extend(b.tx_ids().map(|tx| Slot { tx, view, block }));
            }
        }
        sorted.sort_unstable();
        Self { views, sorted }
    }

    /// The slots of each distinct transaction.
    fn groups(&self) -> impl Iterator<Item = &[Slot]> {
        self.sorted.chunk_by(|x, y| x.tx == y.tx)
    }

    fn block(&self, slot: Slot) -> &'v Block {
        self.block_at((slot.view, slot.block))
    }

    fn block_at(&self, (view, block): (u32, u32)) -> &'v Block {
        &self.views[view as usize].retained()[block as usize]
    }

    /// Where a scan first meets one transaction carried by a block other
    /// than the one it met first, as (view, block).
    fn split_point(&self, group: &[Slot]) -> Option<(u32, u32)> {
        let first = self.block(group[0]).digest();
        group[1..]
            .iter()
            .find(|&&slot| self.block(slot).digest() != first)
            .map(|slot| (slot.view, slot.block))
    }

    /// The first transaction, in scan order, that two views carry in
    /// different blocks.
    fn first_split_transaction(&self) -> Option<TxId> {
        let at = self
            .groups()
            .filter_map(|group| self.split_point(group))
            .min()?;
        // Several transactions may split at one block: the scan meets them
        // in batch order.
        self.block_at(at).tx_ids().find(|&tx| {
            let start = self.sorted.partition_point(|slot| slot.tx < tx);
            let len = self.sorted[start..].partition_point(|slot| slot.tx == tx);
            self.split_point(&self.sorted[start..start + len]) == Some(at)
        })
    }

    /// The first cluster pair, in ascending order, whose two views carry
    /// their shared transactions in a different relative order. Each
    /// cluster's order is its last view. Runs after every transaction was
    /// found in one block only, so two shared transactions sit in one block
    /// of one view exactly when they do in the other (and then in the same
    /// batch order): the orders agree exactly when the shared blocks'
    /// indexes rise together.
    fn first_misordered_pair(&self) -> Option<(ClusterId, ClusterId)> {
        let represents: Vec<bool> = (0..self.views.len())
            .map(|v| {
                let cluster = self.views[v].cluster();
                !self.views[v + 1..].iter().any(|w| w.cluster() == cluster)
            })
            .collect();
        let mut shared = Vec::new();
        let mut carriers: Vec<(ClusterId, u32)> = Vec::new();
        for group in self.groups().filter(|group| group.len() > 1) {
            carriers.clear();
            carriers.extend(
                group
                    .iter()
                    .filter(|slot| represents[slot.view as usize])
                    .map(|&slot| (self.cluster(slot), slot.block)),
            );
            // A batch carrying a transaction twice puts it in one block.
            carriers.dedup();
            carriers.sort_unstable();
            for (i, &(a, block_a)) in carriers.iter().enumerate() {
                for &(b, block_b) in &carriers[i + 1..] {
                    shared.push(Shared {
                        a,
                        b,
                        block_a,
                        block_b,
                    });
                }
            }
        }
        shared.sort_unstable();
        shared
            .windows(2)
            .find(|w| {
                let (x, y) = (w[0], w[1]);
                (x.a, x.b) == (y.a, y.b)
                    && if x.block_a == y.block_a {
                        x.block_b != y.block_b
                    } else {
                        x.block_b >= y.block_b
                    }
            })
            .map(|w| (w[0].a, w[0].b))
    }

    fn cluster(&self, slot: Slot) -> ClusterId {
        self.views[slot.view as usize].cluster()
    }
}

/// Checks that the replicas of one cluster agree on their ledger views: the
/// shorter view must be a prefix of the longer one (replicas may lag, but may
/// never diverge).
///
/// The comparison is watermark-aware: each retained block is checked against
/// the longest view's all-history digest → height index at its *absolute*
/// height, so views that pruned different prefixes still compare exactly.
/// History pruned from both sides needs no comparison — a block digest
/// commits to its parents, so agreement at the first shared retained height
/// implies agreement over the whole folded prefix — but checkpoints that
/// stand at the same height must be identical outright.
pub fn check_replica_agreement(cluster: ClusterId, replicas: &[&LedgerView]) -> Result<()> {
    for view in replicas {
        if view.cluster() != cluster {
            return Err(Error::InvalidConfig(format!(
                "view belongs to {} but cluster {cluster} was expected",
                view.cluster()
            )));
        }
    }
    let Some(longest) = replicas.iter().max_by_key(|v| v.len()) else {
        return Ok(());
    };
    for view in replicas {
        for (i, block) in view.blocks().enumerate() {
            let height = view.first_retained_height() + i;
            if longest.height_of(block.digest()) != Some(height) {
                return Err(Error::SafetyViolation(format!(
                    "replicas of cluster {cluster} diverge at height {height}"
                )));
            }
        }
        if view.first_retained_height() == longest.first_retained_height()
            && view.checkpoint() != longest.checkpoint()
        {
            return Err(Error::SafetyViolation(format!(
                "replicas of cluster {cluster} disagree on the checkpoint at height {}",
                view.first_retained_height()
            )));
        }
    }
    Ok(())
}

/// Groups replica views by cluster and checks both replica agreement within
/// each cluster and cross-cluster order agreement using one representative
/// view per cluster. This is the one-call audit used after full-system runs;
/// it reads the views where they are (a finished deployment lends its
/// replicas' views, tests and tools may pass owned ones).
pub fn audit_replica_views<V: Borrow<LedgerView>>(views: &[(ClusterId, V)]) -> Result<AuditReport> {
    let mut by_cluster: HashMap<ClusterId, Vec<&LedgerView>> = HashMap::new();
    for (cluster, view) in views {
        by_cluster.entry(*cluster).or_default().push(view.borrow());
    }
    let mut representatives: Vec<&LedgerView> = Vec::new();
    for (cluster, replicas) in &by_cluster {
        check_replica_agreement(*cluster, replicas)?;
        let longest = replicas
            .iter()
            .max_by_key(|v| v.len())
            .expect("non-empty group");
        representatives.push(longest);
    }
    representatives.sort_by_key(|v| v.cluster());
    audit_views(&representatives)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{Block, Parents};
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

    #[test]
    fn consistent_views_pass_audit() {
        let mut v0 = LedgerView::new(ClusterId(0));
        let mut v1 = LedgerView::new(ClusterId(1));
        let mut v2 = LedgerView::new(ClusterId(2));
        v0.append(intra(&v0, tx(1, 0))).unwrap();
        v1.append(intra(&v1, tx(2, 0))).unwrap();
        let c01 = cross(&[&v0, &v1], tx(3, 0));
        v0.append(c01.clone()).unwrap();
        v1.append(c01).unwrap();
        let c12 = cross(&[&v1, &v2], tx(3, 1));
        v1.append(c12.clone()).unwrap();
        v2.append(c12).unwrap();

        let report = audit_views(&[v0, v1, v2]).unwrap();
        assert_eq!(report.views, 3);
        assert_eq!(report.distinct_transactions, 4);
        assert_eq!(report.cross_shard_transactions, 2);
        assert_eq!(report.compared_pairs, 3);
    }

    #[test]
    fn divergent_cross_shard_order_is_detected() {
        // Build two cross-shard blocks and commit them in opposite orders in
        // the two clusters — the classic safety violation the flattened
        // protocol must prevent.
        let mut v0 = LedgerView::new(ClusterId(0));
        let mut v1 = LedgerView::new(ClusterId(1));

        let a = cross(&[&v0, &v1], tx(1, 0));
        // Committed first in p0.
        v0.append(a.clone()).unwrap();
        // In p1, a different cross-shard block commits first.
        let b = cross(&[&v0, &v1], tx(2, 0));
        v1.append(b.clone()).unwrap();
        // Now each cluster commits the other block, re-parented to its head
        // (this is what a buggy/forked implementation would produce).
        let genesis = Block::genesis().digest();
        let b_for_v0 = {
            let parents = Parents::new([(ClusterId(0), v0.head()), (ClusterId(1), genesis)]);
            Block::transaction(tx(2, 0), parents.unwrap())
        };
        v0.append(b_for_v0).unwrap();
        let a_for_v1 = {
            let parents = Parents::new([(ClusterId(0), genesis), (ClusterId(1), v1.head())]);
            Block::transaction(tx(1, 0), parents.unwrap())
        };
        v1.append(a_for_v1).unwrap();

        // Chains are individually valid but the audit rejects: the two
        // clusters do not share identical cross-shard block digests/orders.
        let err = audit_views(&[v0, v1]).unwrap_err();
        assert!(matches!(err, Error::SafetyViolation(_)));
    }

    #[test]
    fn replica_agreement_accepts_prefixes_and_rejects_forks() {
        let mut a = LedgerView::new(ClusterId(0));
        let mut b = LedgerView::new(ClusterId(0));
        let b1 = intra(&a, tx(1, 0));
        a.append(b1.clone()).unwrap();
        b.append(b1).unwrap();
        let b2 = intra(&a, tx(1, 1));
        a.append(b2).unwrap();
        // b lags by one block: still fine.
        check_replica_agreement(ClusterId(0), &[&a, &b]).unwrap();

        // Fork: b commits a different block at the same height.
        let fork = intra(&b, tx(9, 9));
        b.append(fork).unwrap();
        let err = check_replica_agreement(ClusterId(0), &[&a, &b]).unwrap_err();
        assert!(matches!(err, Error::SafetyViolation(_)));
    }

    #[test]
    fn replica_agreement_rejects_wrong_cluster() {
        let a = LedgerView::new(ClusterId(0));
        let b = LedgerView::new(ClusterId(1));
        assert!(check_replica_agreement(ClusterId(0), &[&a, &b]).is_err());
    }

    #[test]
    fn replica_agreement_is_watermark_aware() {
        use sharper_common::LedgerConfig;
        // One replica prunes aggressively, one lags and retains everything:
        // they must still compare as agreeing, block for block.
        let mut pruned = LedgerView::new(ClusterId(0));
        let mut full = LedgerView::new(ClusterId(0));
        let cfg = LedgerConfig::checkpointed(2, 2);
        for seq in 0..10 {
            let blk = intra(&pruned, tx(1, seq));
            pruned.append(blk.clone()).unwrap();
            pruned.maybe_checkpoint(&cfg).unwrap();
            if seq < 8 {
                full.append(blk).unwrap();
            }
        }
        assert!(pruned.first_retained_height() > 0);
        assert_eq!(full.first_retained_height(), 0);
        check_replica_agreement(ClusterId(0), &[&pruned, &full]).unwrap();

        // A fork in the lagging replica is still detected even though the
        // pruned replica no longer holds the payload at that height.
        let mut forked = LedgerView::new(ClusterId(0));
        for block in full.blocks().skip(1).take(5).cloned().collect::<Vec<_>>() {
            forked.append(block).unwrap();
        }
        forked.append(intra(&forked, tx(9, 9))).unwrap();
        let err = check_replica_agreement(ClusterId(0), &[&pruned, &forked]).unwrap_err();
        assert!(matches!(err, Error::SafetyViolation(_)));
    }

    #[test]
    fn audit_accepts_views_with_different_watermarks() {
        use sharper_common::LedgerConfig;
        let mut v0 = LedgerView::new(ClusterId(0));
        let mut v1 = LedgerView::new(ClusterId(1));
        v0.append(intra(&v0, tx(1, 0))).unwrap();
        v1.append(intra(&v1, tx(2, 0))).unwrap();
        for seq in 0..6 {
            let c = cross(&[&v0, &v1], tx(3, seq));
            v0.append(c.clone()).unwrap();
            v1.append(c).unwrap();
        }
        // Only cluster 0 truncates; shared-order comparison must not trip
        // over the asymmetric retention windows.
        v0.maybe_checkpoint(&LedgerConfig::checkpointed(1, 3))
            .unwrap();
        assert!(v0.first_retained_height() > 0);
        let report = audit_views(&[v0, v1]).unwrap();
        assert_eq!(report.views, 2);
    }

    #[test]
    fn audit_replica_views_groups_by_cluster() {
        let mut a0 = LedgerView::new(ClusterId(0));
        let mut a1 = LedgerView::new(ClusterId(0));
        let blk = intra(&a0, tx(1, 0));
        a0.append(blk.clone()).unwrap();
        a1.append(blk).unwrap();
        let b0 = LedgerView::new(ClusterId(1));

        let report =
            audit_replica_views(&[(ClusterId(0), a0), (ClusterId(0), a1), (ClusterId(1), b0)])
                .unwrap();
        assert_eq!(report.views, 2);
        assert_eq!(report.distinct_transactions, 1);
    }

    /// The replica audit over owned views and over the same views lent by
    /// reference: same report, same error.
    fn audit_both_ways(views: Vec<(ClusterId, LedgerView)>) -> Result<AuditReport> {
        let owned = audit_replica_views(&views);
        let lent: Vec<(ClusterId, &LedgerView)> = views.iter().map(|(c, v)| (*c, v)).collect();
        assert_eq!(owned, audit_replica_views(&lent));
        owned
    }

    #[test]
    fn replica_audit_is_the_same_over_borrowed_and_owned_views() {
        // Agreeing replicas of two clusters sharing one cross-shard block.
        let mut a0 = LedgerView::new(ClusterId(0));
        let mut b0 = LedgerView::new(ClusterId(1));
        a0.append(intra(&a0, tx(1, 0))).unwrap();
        let shared = cross(&[&a0, &b0], tx(3, 0));
        a0.append(shared.clone()).unwrap();
        b0.append(shared).unwrap();
        let a1 = a0.clone();
        let report = audit_both_ways(vec![
            (ClusterId(0), a0.clone()),
            (ClusterId(0), a1.clone()),
            (ClusterId(1), b0.clone()),
        ])
        .unwrap();
        assert_eq!(report.views, 2);
        assert_eq!(report.distinct_transactions, 2);
        assert_eq!(report.cross_shard_transactions, 1);

        // Diverging replicas: the second replica of cluster 0 forks.
        let mut fork = a0.clone();
        fork.append(intra(&fork, tx(9, 9))).unwrap();
        a0.append(intra(&a0, tx(1, 1))).unwrap();
        let err = audit_both_ways(vec![
            (ClusterId(0), a0),
            (ClusterId(0), fork),
            (ClusterId(1), b0),
        ])
        .unwrap_err();
        assert!(matches!(err, Error::SafetyViolation(_)));

        // One transaction committed as two different blocks in two clusters.
        let mut v0 = LedgerView::new(ClusterId(0));
        let mut v1 = LedgerView::new(ClusterId(1));
        v0.append(intra(&v0, tx(5, 0))).unwrap();
        v1.append(intra(&v1, tx(5, 0))).unwrap();
        let err = audit_both_ways(vec![(ClusterId(0), v0), (ClusterId(1), v1)]).unwrap_err();
        assert!(matches!(err, Error::SafetyViolation(_)));
    }

    #[test]
    fn no_views_audit_to_an_empty_report() {
        let empty = AuditReport {
            views: 0,
            distinct_transactions: 0,
            cross_shard_transactions: 0,
            compared_pairs: 0,
        };
        assert_eq!(audit_views::<LedgerView>(&[]), Ok(empty.clone()));
        assert_eq!(audit_replica_views::<LedgerView>(&[]), Ok(empty));
    }

    #[test]
    fn the_pair_check_catches_shared_blocks_in_swapped_order() {
        // Two cross-shard blocks, committed in one order by cluster 0 and
        // swapped in place in cluster 1's view with their stored digests
        // kept. The chain check rejects that view first, so the pair check
        // is driven directly.
        let mut v0 = LedgerView::new(ClusterId(0));
        let mut v1 = LedgerView::new(ClusterId(1));
        for t in [tx(1, 0), tx(2, 0)] {
            let shared = cross(&[&v0, &v1], t);
            v0.append(shared.clone()).unwrap();
            v1.append(shared).unwrap();
        }
        let views = [&v0, &v1];
        assert_eq!(Slots::sorted(&views).first_misordered_pair(), None);
        v1.retained_mut().swap(1, 2);
        let views = [&v0, &v1];
        let slots = Slots::sorted(&views);
        assert_eq!(slots.first_split_transaction(), None);
        assert_eq!(
            slots.first_misordered_pair(),
            Some((ClusterId(0), ClusterId(1)))
        );
        assert!(matches!(
            audit_views(&views),
            Err(Error::SafetyViolation(_))
        ));
    }

    /// The audit as it was before it sorted compact records, kept as the
    /// reference the sorted audit must agree with: a transaction → digest
    /// map, the union as a digest → block map with Kahn's algorithm over
    /// child lists, and two hash sets per cluster pair. It differs only in
    /// returning an empty report for no views, where it used to panic.
    fn reference_audit(views: &[&LedgerView]) -> Result<AuditReport> {
        use sharper_crypto::Digest;
        use std::collections::{BTreeMap, HashSet};
        for view in views {
            view.verify_chain()?;
        }
        let mut tx_digest: HashMap<TxId, Digest> = HashMap::new();
        for view in views {
            for block in view.blocks() {
                for tx in block.tx_ids() {
                    match tx_digest.get(&tx) {
                        None => {
                            tx_digest.insert(tx, block.digest());
                        }
                        Some(existing) if *existing == block.digest() => {}
                        Some(_) => {
                            return Err(Error::SafetyViolation(format!(
                                "transaction {tx} committed as two different blocks in different views"
                            )));
                        }
                    }
                }
            }
        }

        let mut blocks: HashMap<Digest, &Block> = HashMap::new();
        let mut orders: BTreeMap<ClusterId, Vec<TxId>> = BTreeMap::new();
        for view in views {
            for block in view.blocks() {
                blocks.entry(block.digest()).or_insert(block);
            }
            orders.insert(view.cluster(), view.transactions().map(|t| t.id).collect());
        }
        let number: HashMap<&Digest, usize> =
            blocks.keys().enumerate().map(|(i, key)| (key, i)).collect();
        let mut indegree = vec![0usize; number.len()];
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); number.len()];
        for (child, block) in blocks.values().enumerate() {
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
        if visited != blocks.len() {
            return Err(Error::SafetyViolation(
                "the union ledger contains a cycle".into(),
            ));
        }

        let clusters: Vec<ClusterId> = orders.keys().copied().collect();
        let mut compared_pairs = 0usize;
        for (i, &a) in clusters.iter().enumerate() {
            for &b in &clusters[i + 1..] {
                compared_pairs += 1;
                let (order_a, order_b) = (&orders[&a], &orders[&b]);
                let set_b: HashSet<_> = order_b.iter().collect();
                let set_a: HashSet<_> = order_a.iter().collect();
                let shared_ab: Vec<_> = order_a.iter().filter(|t| set_b.contains(t)).collect();
                let shared_ba: Vec<_> = order_b.iter().filter(|t| set_a.contains(t)).collect();
                if shared_ab != shared_ba {
                    return Err(Error::SafetyViolation(format!(
                        "clusters {a} and {b} order their shared cross-shard transactions differently"
                    )));
                }
            }
        }
        let cross = views
            .iter()
            .flat_map(|v| v.blocks())
            .filter(|b| b.is_cross_shard())
            .flat_map(|b| b.tx_ids())
            .collect::<HashSet<_>>()
            .len();
        Ok(AuditReport {
            views: views.len(),
            distinct_transactions: tx_digest.len(),
            cross_shard_transactions: cross,
            compared_pairs,
        })
    }

    /// splitmix64: a deterministic stream for the random fixtures.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn percent(&mut self, p: u64) -> bool {
            self.next() % 100 < p
        }

        /// `k` distinct indexes below `n`, ascending.
        fn distinct(&mut self, n: usize, k: usize) -> Vec<usize> {
            let mut picked: Vec<usize> = (0..n).collect();
            for i in 0..k {
                let j = i + self.below(n - i);
                picked.swap(i, j);
            }
            picked.truncate(k);
            picked.sort_unstable();
            picked
        }
    }

    fn batch_block(txs: &[Transaction], parents: Parents) -> Block {
        let batch =
            crate::batch::Batch::new(txs.iter().cloned().map(std::sync::Arc::new).collect());
        Block::batch(batch, parents)
    }

    fn heads(views: &[LedgerView], at: &[usize]) -> Parents {
        Parents::new(at.iter().map(|&v| (views[v].cluster(), views[v].head())))
            .expect("distinct clusters")
    }

    /// Views of one to four clusters built from intra-shard batches and
    /// cross-shard blocks shared by two or three views (some committed by
    /// one side only), then, each with some probability: two clusters
    /// committing a shared pair in swapped order, transactions committed as
    /// different blocks in two views, truncated views, a view of a repeated
    /// cluster, a tampered block, and a shuffled view order. Views with no
    /// block but the genesis block are common.
    fn random_views(seed: u64) -> Vec<LedgerView> {
        let mut rng = Rng(seed);
        let n = 1 + rng.below(4);
        let mut views: Vec<LedgerView> = (0..n as u32)
            .map(|c| LedgerView::new(ClusterId(c)))
            .collect();
        let mut fresh_client = 100u64;
        let mut fresh = |count: usize| -> Vec<Transaction> {
            (0..count)
                .map(|seq| {
                    fresh_client += 1;
                    tx(fresh_client, seq as u64)
                })
                .collect()
        };
        for _ in 0..rng.below(10) {
            let txs = fresh(1 + rng.below(3));
            if n >= 2 && rng.percent(40) {
                let k = 2 + rng.below(n.min(3) - 1);
                let at = rng.distinct(n, k);
                let block = batch_block(&txs, heads(&views, &at));
                let committers = if rng.percent(15) { &at[..1] } else { &at[..] };
                for &v in committers {
                    views[v].append(block.clone()).unwrap();
                }
            } else {
                let v = rng.below(n);
                let block = batch_block(&txs, heads(&views, &[v]));
                views[v].append(block).unwrap();
            }
        }
        if n >= 2 && rng.percent(15) {
            // Each side commits its own copy of the other's transaction
            // after its own, chained to its own head only.
            let at = rng.distinct(n, 2);
            let (t1, t2) = (fresh(1), fresh(1));
            let first = batch_block(&t1, heads(&views, &at));
            let second = batch_block(&t2, heads(&views, &at));
            views[at[0]].append(first).unwrap();
            views[at[1]].append(second).unwrap();
            let late = batch_block(&t2, heads(&views, &at));
            views[at[0]].append(late).unwrap();
            let late = batch_block(&t1, heads(&views, &at));
            views[at[1]].append(late).unwrap();
        }
        if n >= 2 && rng.percent(15) {
            // The same transactions as two different blocks, in opposite
            // batch orders.
            let at = rng.distinct(n, 2);
            let mut txs = fresh(1 + rng.below(2));
            let block = batch_block(&txs, heads(&views, &at[..1]));
            views[at[0]].append(block).unwrap();
            txs.reverse();
            let block = batch_block(&txs, heads(&views, &at[1..]));
            views[at[1]].append(block).unwrap();
        }
        for view in &mut views {
            if view.retained_blocks() > 2 && rng.percent(25) {
                let fold = 1 + rng.below(view.retained_blocks() - 1);
                view.truncate_prefix(fold).unwrap();
            }
        }
        if rng.percent(10) {
            let copy = views[rng.below(n)].clone();
            views.push(copy);
        }
        if rng.percent(15) {
            let v = rng.below(views.len());
            let last = views[v].retained_blocks() - 1;
            let cluster = views[v].cluster();
            let blocks = views[v].retained_mut();
            let i = rng.below(last + 1);
            match rng.below(3) {
                // A transaction swapped inside the batch under its old root.
                0 if !blocks[i].is_genesis() => {
                    let mut forged = blocks[i].txs().to_vec();
                    forged[0] = std::sync::Arc::new(tx(9, 9));
                    let root = blocks[i].body_batch().unwrap().digest();
                    blocks[i].body = crate::block::BlockBody::Batch(
                        crate::batch::Batch::with_claimed_root(forged, root),
                    );
                }
                // Parents re-pointed under the old digest.
                1 => blocks[i].parents = Parents::single(cluster, Block::genesis().digest()),
                // The head replaced by a sound block on the same parent,
                // carrying a transaction of another view's.
                _ if last > 0 => {
                    let parent = blocks[last - 1].digest();
                    let carried = if rng.percent(50) {
                        tx(101, 0)
                    } else {
                        tx(9, 9)
                    };
                    blocks[last] = batch_block(&[carried], Parents::single(cluster, parent));
                }
                _ => {}
            }
        }
        if rng.percent(30) {
            views.reverse();
        }
        views
    }

    #[test]
    fn the_sorted_audit_agrees_with_the_reference_on_random_views() {
        let (mut passed, mut truncated, mut cross) = (0, 0, 0);
        let mut failed: HashMap<&str, usize> = HashMap::new();
        for seed in 0..1_000 {
            let views = random_views(seed);
            let lent: Vec<&LedgerView> = views.iter().collect();
            let sorted = audit_views(&views);
            assert_eq!(sorted, reference_audit(&lent), "seed {seed}");
            let kind = match sorted {
                Ok(report) => {
                    passed += 1;
                    truncated += usize::from(views.iter().any(|v| v.first_retained_height() > 0));
                    cross += usize::from(report.cross_shard_transactions > 0);
                    continue;
                }
                Err(Error::IntegrityViolation(_)) => "tampered",
                Err(Error::SafetyViolation(m)) if m.starts_with("transaction") => "split",
                Err(Error::SafetyViolation(m)) if m.contains("cycle") => "cycle",
                Err(_) => "other",
            };
            *failed.entry(kind).or_default() += 1;
        }
        // Every kind of fixture occurred: the comparison is not vacuous.
        assert!(
            passed > 500 && truncated > 100 && cross > 200,
            "{passed} passed, {truncated} truncated, {cross} with cross-shard"
        );
        for kind in ["tampered", "split", "cycle"] {
            assert!(failed.get(kind) >= Some(&5), "{failed:?}");
        }
    }
}
