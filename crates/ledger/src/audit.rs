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
//! The functions here are used by unit tests, proptests, the integration
//! suite and the figure harness (every experiment run is audited before its
//! numbers are reported).

use crate::dag::DagLedger;
use crate::view::LedgerView;
use sharper_common::{ClusterId, Error, Result};
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
/// otherwise. The views are only read, so owned and borrowed views audit
/// alike.
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
    let committed = views.iter().map(|v| v.committed_count()).sum();
    let mut tx_digest: HashMap<sharper_common::TxId, sharper_crypto::Digest> =
        HashMap::with_capacity(committed);
    for view in &views {
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

    // 3. Pairwise agreement on the relative order of shared transactions.
    let dag = DagLedger::union(&views);
    if !dag.is_acyclic() {
        return Err(Error::SafetyViolation(
            "the union ledger contains a cycle".into(),
        ));
    }
    let per_cluster_tx: HashMap<ClusterId, Vec<sharper_common::TxId>> = views
        .iter()
        .map(|v| (v.cluster(), v.transactions().map(|t| t.id).collect()))
        .collect();
    let clusters: Vec<ClusterId> = dag.clusters().collect();
    let mut compared_pairs = 0usize;
    for (i, &a) in clusters.iter().enumerate() {
        for &b in &clusters[i + 1..] {
            compared_pairs += 1;
            let (Some(order_a), Some(order_b)) = (per_cluster_tx.get(&a), per_cluster_tx.get(&b))
            else {
                continue;
            };
            let set_b: std::collections::HashSet<_> = order_b.iter().collect();
            let set_a: std::collections::HashSet<_> = order_a.iter().collect();
            let shared_ab: Vec<_> = order_a.iter().filter(|t| set_b.contains(t)).collect();
            let shared_ba: Vec<_> = order_b.iter().filter(|t| set_a.contains(t)).collect();
            if shared_ab != shared_ba {
                return Err(Error::SafetyViolation(format!(
                    "clusters {a} and {b} order their shared cross-shard transactions differently"
                )));
            }
        }
    }

    let cross = dag
        .order_of(clusters[0])
        .map(|_| {
            // Count distinct cross-shard transactions over the union (a
            // cross-shard block may batch several of them).
            views
                .iter()
                .flat_map(|v| v.blocks())
                .filter(|b| b.is_cross_shard())
                .flat_map(|b| b.tx_ids())
                .collect::<std::collections::HashSet<_>>()
                .len()
        })
        .unwrap_or(0);

    Ok(AuditReport {
        views: views.len(),
        // Step 2 keyed every committed transaction of every view once.
        distinct_transactions: tx_digest.len(),
        cross_shard_transactions: cross,
        compared_pairs,
    })
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
}
