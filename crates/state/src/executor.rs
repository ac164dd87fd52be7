//! Validation and execution of transactions against a shard's account store.
//!
//! Replicas execute a transaction when its block commits (intra-shard: after
//! the Paxos/PBFT commit; cross-shard: after the flattened protocol's commit
//! phase, §3.2–§3.3). Each replica holds only its own shard, so for a
//! cross-shard transaction it validates and applies only the operations that
//! touch accounts of its shard; the flattened protocol's `accept` quorum from
//! every involved cluster is what guarantees the other shards do the same.

use crate::account::AccountStore;
use crate::partition::Partitioner;
use crate::rwset::{OpLocality, RwSet};
use crate::scheduler::{self, PartitionedApply};
use crate::store::{PartitionMap, PartitionedStore, StateRead, StateWrite};
use crate::transaction::{Operation, Transaction};
use sharper_common::{ClusterId, Error, Result};

/// The result of executing a transaction on a shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionOutcome {
    /// Every local operation validated and was applied.
    Applied,
    /// The transaction failed validation and was recorded as aborted; the
    /// block is still appended to the ledger (the order is decided by
    /// consensus, the application outcome is deterministic given that order).
    Aborted,
    /// No operation of the transaction touches this shard; nothing was done.
    NotLocal,
}

/// Executes transactions against one shard's [`AccountStore`].
#[derive(Debug, Clone)]
pub struct Executor {
    shard: ClusterId,
    partitioner: Partitioner,
}

impl Executor {
    /// Creates an executor for `shard`.
    pub fn new(shard: ClusterId, partitioner: Partitioner) -> Self {
        Self { shard, partitioner }
    }

    /// The shard this executor serves.
    pub fn shard(&self) -> ClusterId {
        self.shard
    }

    /// The partitioner in use.
    pub fn partitioner(&self) -> &Partitioner {
        &self.partitioner
    }

    /// Computes the local read/write footprint of a transaction: which of
    /// its accounts belong to this shard, which are read during validation
    /// (transfer sources, read ops) and which are written on apply. Account
    /// → shard ownership is resolved exactly once per account here; both
    /// validation and apply consume the result instead of re-querying the
    /// partitioner per phase.
    pub fn rw_set(&self, tx: &Transaction) -> RwSet {
        let mut reads = Vec::new();
        let mut writes = Vec::new();
        let mut ops = Vec::with_capacity(tx.operations.len());
        for op in &tx.operations {
            match op {
                Operation::Transfer { from, to, .. } => {
                    let from_local = self.partitioner.owns(self.shard, *from);
                    let to_local = self.partitioner.owns(self.shard, *to);
                    if from_local {
                        reads.push(*from);
                        writes.push(*from);
                    }
                    if to_local {
                        writes.push(*to);
                    }
                    ops.push(OpLocality::Transfer {
                        from_local,
                        to_local,
                    });
                }
                Operation::Read { account } => {
                    let local = self.partitioner.owns(self.shard, *account);
                    if local {
                        reads.push(*account);
                    }
                    ops.push(OpLocality::Read { local });
                }
                Operation::Freeze { start, .. } => {
                    // The freeze targets whichever shard currently owns the
                    // range (it is ordered intra-shard on that cluster).
                    let local = self
                        .partitioner
                        .owns(self.shard, sharper_common::AccountId(*start));
                    if local {
                        writes.push(sharper_common::AccountId(*start));
                    }
                    ops.push(OpLocality::Reshard { local });
                }
                Operation::Handover {
                    start, from, to, ..
                } => {
                    // The handover's clusters are explicit: the source gives
                    // the range up, the destination installs it, regardless
                    // of what the (possibly already bumped) map says.
                    let local = self.shard == *from || self.shard == *to;
                    if local {
                        writes.push(sharper_common::AccountId(*start));
                    }
                    ops.push(OpLocality::Reshard { local });
                }
            }
        }
        RwSet::from_ops(ops, reads, writes)
    }

    /// Validates the locally-checkable part of a transaction without
    /// modifying the store. Used when a replica receives a `propose` /
    /// `pre-prepare` and must decide whether the request "is valid"
    /// (Algorithm 1 line 7, Algorithm 2 line 7).
    pub fn validate_local(&self, store: &impl StateRead, tx: &Transaction) -> Result<()> {
        let rw = self.rw_set(tx);
        if !rw.any_local() {
            return Err(Error::InvalidTransaction {
                tx: tx.id,
                reason: format!("no operation touches shard {}", self.shard),
            });
        }
        self.validate_with(store, tx, &rw)
    }

    /// Validates a transaction against `store` using a precomputed
    /// read/write set (the locality of every account is already resolved,
    /// so this only performs the actual state reads).
    pub(crate) fn validate_with(
        &self,
        store: &impl StateRead,
        tx: &Transaction,
        rw: &RwSet,
    ) -> Result<()> {
        // An in-flight reshard freezes the moving range: client transactions
        // touching a frozen local account abort deterministically until the
        // handover commits. The reshard control transactions themselves are
        // exempt (the freeze establishes the range, the handover moves it).
        if !tx.is_reshard() {
            for a in rw.reads().iter().chain(rw.writes()) {
                if store.is_frozen(*a) {
                    return Err(Error::InvalidTransaction {
                        tx: tx.id,
                        reason: format!("account {a} is frozen by an in-flight reshard"),
                    });
                }
            }
        }
        for (op, loc) in tx.operations.iter().zip(rw.ops()) {
            match (op, loc) {
                (
                    Operation::Transfer { from, amount, .. },
                    OpLocality::Transfer {
                        from_local: true, ..
                    },
                ) => {
                    let account =
                        store
                            .account(*from)
                            .ok_or_else(|| Error::InvalidTransaction {
                                tx: tx.id,
                                reason: format!("unknown account {from}"),
                            })?;
                    if account.owner != tx.client() {
                        return Err(Error::InvalidTransaction {
                            tx: tx.id,
                            reason: format!("client {} does not own account {from}", tx.client()),
                        });
                    }
                    if account.balance < *amount {
                        return Err(Error::InvalidTransaction {
                            tx: tx.id,
                            reason: format!(
                                "insufficient balance in {from}: {} < {amount}",
                                account.balance
                            ),
                        });
                    }
                }
                (Operation::Read { account }, OpLocality::Read { local: true })
                    if !store.contains(*account) =>
                {
                    return Err(Error::InvalidTransaction {
                        tx: tx.id,
                        reason: format!("unknown account {account}"),
                    });
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Applies the local part of a committed transaction to the store.
    ///
    /// Validation failures surface as [`ExecutionOutcome::Aborted`] rather
    /// than errors: the ordering decision has already been made by consensus,
    /// and every correct replica of the shard reaches the same outcome
    /// because it applies the same transactions in the same order.
    pub fn apply(&self, store: &mut impl StateWrite, tx: &Transaction) -> ExecutionOutcome {
        let rw = self.rw_set(tx);
        self.run_full(store, tx, &rw)
    }

    /// Validates and applies a transaction whose read/write set is already
    /// computed. This is the single execution routine behind serial apply,
    /// solo partition steps and multi-partition gang steps — only the store
    /// view differs.
    pub(crate) fn run_full(
        &self,
        store: &mut impl StateWrite,
        tx: &Transaction,
        rw: &RwSet,
    ) -> ExecutionOutcome {
        if !rw.any_local() {
            return ExecutionOutcome::NotLocal;
        }
        if self.validate_with(store, tx, rw).is_err() {
            return ExecutionOutcome::Aborted;
        }
        for (op, loc) in tx.operations.iter().zip(rw.ops()) {
            match (op, loc) {
                (
                    Operation::Transfer { from, to, amount },
                    OpLocality::Transfer {
                        from_local,
                        to_local,
                    },
                ) => {
                    if *from_local {
                        // Validation above guarantees this cannot fail.
                        store
                            .debit(*from, tx.client(), *amount)
                            .expect("validated debit");
                    }
                    if *to_local {
                        if !store.contains(*to) {
                            // Transfers may create the destination account, as in
                            // the UTXO-to-account translation of the workload.
                            store.create_account(*to, tx.client(), 0);
                        }
                        store.credit(*to, *amount).expect("destination exists");
                    }
                }
                (Operation::Freeze { start, len, .. }, OpLocality::Reshard { local: true }) => {
                    store.set_frozen(*start, *len);
                }
                (
                    Operation::Handover {
                        start,
                        len,
                        from,
                        to,
                        entries,
                        ..
                    },
                    OpLocality::Reshard { local: true },
                ) => {
                    if self.shard == *from {
                        // The range leaves this shard; the freeze established
                        // at phase 1 is lifted with it.
                        for off in 0..*len {
                            store.remove_account(sharper_common::AccountId(start + off));
                        }
                        store.clear_frozen();
                    }
                    if self.shard == *to {
                        for e in entries {
                            store.create_account(
                                sharper_common::AccountId(start + e.offset),
                                e.owner,
                                e.balance,
                            );
                        }
                    }
                }
                _ => {}
            }
        }
        ExecutionOutcome::Applied
    }

    /// Runs the validate-and-write step of a split transaction against the
    /// single partition `vp` that holds every account it reads: validation
    /// plus all writes landing in `vp`, in operation order. Writes to other
    /// partitions are deferred to [`Executor::run_credit_step`].
    pub(crate) fn run_validate_step(
        &self,
        store: &mut AccountStore,
        tx: &Transaction,
        rw: &RwSet,
        map: PartitionMap,
        vp: usize,
    ) -> ExecutionOutcome {
        if self.validate_with(store, tx, rw).is_err() {
            return ExecutionOutcome::Aborted;
        }
        for (op, loc) in tx.operations.iter().zip(rw.ops()) {
            if let (
                Operation::Transfer { from, to, amount },
                OpLocality::Transfer {
                    from_local,
                    to_local,
                },
            ) = (op, loc)
            {
                if *from_local && map.partition_of(*from) == vp {
                    store
                        .debit(*from, tx.client(), *amount)
                        .expect("validated debit");
                }
                if *to_local && map.partition_of(*to) == vp {
                    if !store.contains(*to) {
                        store.create_account(*to, tx.client(), 0);
                    }
                    store.credit(*to, *amount).expect("destination exists");
                }
            }
        }
        ExecutionOutcome::Applied
    }

    /// Runs the credit half of a transaction on partition `part`: every
    /// local credit landing in `part`, in operation order. Only called once
    /// the transaction's outcome is `Applied` (its validation ran elsewhere,
    /// or it has no local validation reads at all).
    pub(crate) fn run_credit_step(
        &self,
        store: &mut AccountStore,
        tx: &Transaction,
        rw: &RwSet,
        map: PartitionMap,
        part: usize,
    ) {
        for (op, loc) in tx.operations.iter().zip(rw.ops()) {
            if let (
                Operation::Transfer { to, amount, .. },
                OpLocality::Transfer { to_local: true, .. },
            ) = (op, loc)
            {
                if map.partition_of(*to) == part {
                    if !store.contains(*to) {
                        store.create_account(*to, tx.client(), 0);
                    }
                    store.credit(*to, *amount).expect("destination exists");
                }
            }
        }
    }

    /// Applies a committed batch to the store: every transaction in batch
    /// order, as one unit of work.
    ///
    /// Atomicity here is the consensus-layer guarantee that matters: the
    /// whole batch is applied at the point its block is appended, with no
    /// other transaction interleaved, and each member transaction is itself
    /// all-or-nothing (validation precedes any mutation, so an aborting
    /// transaction leaves the store untouched while the rest of the batch
    /// still applies — the deterministic outcome every correct replica
    /// reaches from the same order).
    pub fn apply_batch(
        &self,
        store: &mut impl StateWrite,
        txs: &[std::sync::Arc<Transaction>],
    ) -> Vec<ExecutionOutcome> {
        txs.iter().map(|tx| self.apply(store, tx)).collect()
    }

    /// Applies a committed batch through the partitioned scheduler: per
    /// partition work queues, conflict-ordered steps, up to `exec_threads`
    /// workers. Outcomes (and the resulting state) are bit-identical to
    /// [`Executor::apply_batch`] in batch-index order; the returned plan
    /// statistics additionally report the schedule's critical path for the
    /// apply-path cost model.
    pub fn apply_batch_partitioned(
        &self,
        store: &mut PartitionedStore,
        txs: &[std::sync::Arc<Transaction>],
        exec_threads: usize,
    ) -> PartitionedApply {
        scheduler::execute(self, store, txs, exec_threads)
    }

    /// Snapshots the frozen range `[start, start + len)` into the handover
    /// entries a reshard's phase-2 transaction carries, in ascending offset
    /// order (deterministic across replicas holding the same state).
    pub fn snapshot_range(
        store: &impl StateRead,
        start: u64,
        len: u64,
    ) -> Vec<crate::transaction::HandoverEntry> {
        (0..len)
            .filter_map(|offset| {
                store
                    .account(sharper_common::AccountId(start + offset))
                    .map(|a| crate::transaction::HandoverEntry {
                        offset,
                        balance: a.balance,
                        owner: a.owner,
                    })
            })
            .collect()
    }

    /// Initialises a store with `accounts_per_shard` accounts for this shard,
    /// each owned by the client returned by `owner_of` and holding
    /// `initial_balance` units. Used by deployments and benchmarks.
    pub fn genesis_store(
        &self,
        accounts_per_shard: u64,
        initial_balance: u64,
        owner_of: impl Fn(u64) -> sharper_common::ClientId,
    ) -> AccountStore {
        let mut store = AccountStore::new(self.shard);
        for i in 0..accounts_per_shard {
            if let Some(account) = self.partitioner.account_in_shard(self.shard, i) {
                store.create_account(account, owner_of(i), initial_balance);
            }
        }
        store
    }

    /// Like [`Executor::genesis_store`] but split into `partitions`
    /// account-range partitions for the partitioned executor.
    pub fn genesis_partitioned(
        &self,
        partitions: usize,
        accounts_per_shard: u64,
        initial_balance: u64,
        owner_of: impl Fn(u64) -> sharper_common::ClientId,
    ) -> PartitionedStore {
        let flat = self.genesis_store(accounts_per_shard, initial_balance, owner_of);
        let chunk = PartitionedStore::chunk_for(self.partitioner.accounts_per_shard(), partitions);
        PartitionedStore::from_store(flat, partitions, chunk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharper_common::{AccountId, ClientId, TxId};

    fn setup() -> (Executor, AccountStore) {
        let partitioner = Partitioner::range(4, 100);
        let exec = Executor::new(ClusterId(0), partitioner);
        let store = exec.genesis_store(100, 1_000, ClientId);
        (exec, store)
    }

    #[test]
    fn genesis_store_populates_only_local_accounts() {
        let (exec, store) = setup();
        assert_eq!(store.len(), 100);
        assert_eq!(store.balance(AccountId(0)), Some(1_000));
        assert_eq!(store.balance(AccountId(99)), Some(1_000));
        assert!(!store.contains(AccountId(100)));
        assert_eq!(exec.shard(), ClusterId(0));
    }

    #[test]
    fn intra_shard_transfer_applies() {
        let (exec, mut store) = setup();
        let tx = Transaction::transfer(ClientId(1), 0, AccountId(1), AccountId(2), 250);
        assert_eq!(exec.apply(&mut store, &tx), ExecutionOutcome::Applied);
        assert_eq!(store.balance(AccountId(1)), Some(750));
        assert_eq!(store.balance(AccountId(2)), Some(1_250));
    }

    #[test]
    fn conservation_of_money_for_intra_shard_transfers() {
        let (exec, mut store) = setup();
        let before = store.total_balance();
        for seq in 0..20u64 {
            let tx = Transaction::transfer(
                ClientId(seq % 100),
                seq,
                AccountId(seq % 100),
                AccountId((seq + 1) % 100),
                seq * 3,
            );
            exec.apply(&mut store, &tx);
        }
        assert_eq!(store.total_balance(), before);
    }

    #[test]
    fn cross_shard_transfer_applies_only_local_half() {
        let (exec, mut store) = setup();
        // Account 150 lives in shard 1; this executor serves shard 0.
        let tx = Transaction::transfer(ClientId(5), 0, AccountId(5), AccountId(150), 100);
        assert_eq!(exec.apply(&mut store, &tx), ExecutionOutcome::Applied);
        assert_eq!(store.balance(AccountId(5)), Some(900));
        assert!(!store.contains(AccountId(150)), "remote account untouched");

        // The mirror executor for shard 1 applies the credit half.
        let exec1 = Executor::new(ClusterId(1), Partitioner::range(4, 100));
        let mut store1 = exec1.genesis_store(100, 1_000, ClientId);
        assert_eq!(exec1.apply(&mut store1, &tx), ExecutionOutcome::Applied);
        assert_eq!(store1.balance(AccountId(150)), Some(1_100));
    }

    #[test]
    fn invalid_transactions_abort_without_state_change() {
        let (exec, mut store) = setup();
        let before = store.clone();

        // Wrong owner (client 9 does not own account 1).
        let tx = Transaction::transfer(ClientId(9), 0, AccountId(1), AccountId(2), 10);
        assert_eq!(exec.apply(&mut store, &tx), ExecutionOutcome::Aborted);
        // Insufficient funds.
        let tx = Transaction::transfer(ClientId(1), 1, AccountId(1), AccountId(2), 10_000);
        assert_eq!(exec.apply(&mut store, &tx), ExecutionOutcome::Aborted);
        // Unknown source account local to this shard.
        let mut p = Partitioner::range(4, 100);
        p.apply_range_move(7777, 1, ClusterId(0));
        let exec2 = Executor::new(ClusterId(0), p);
        let tx = Transaction::transfer(ClientId(1), 2, AccountId(7777), AccountId(2), 1);
        assert_eq!(exec2.apply(&mut store, &tx), ExecutionOutcome::Aborted);

        assert_eq!(store, before);
    }

    #[test]
    fn batch_application_is_in_order_and_member_atomic() {
        use std::sync::Arc;
        let (exec, mut store) = setup();
        let before_total = store.total_balance();
        // Three transfers in order; the middle one over-draws and must abort
        // without disturbing the others or leaving a partial debit behind.
        let batch = vec![
            Arc::new(Transaction::transfer(
                ClientId(1),
                0,
                AccountId(1),
                AccountId(2),
                400,
            )),
            Arc::new(Transaction::transfer(
                ClientId(1),
                1,
                AccountId(1),
                AccountId(3),
                5_000,
            )),
            Arc::new(Transaction::transfer(
                ClientId(1),
                2,
                AccountId(1),
                AccountId(4),
                600,
            )),
        ];
        let outcomes = exec.apply_batch(&mut store, &batch);
        assert_eq!(
            outcomes,
            vec![
                ExecutionOutcome::Applied,
                ExecutionOutcome::Aborted,
                ExecutionOutcome::Applied,
            ]
        );
        assert_eq!(store.balance(AccountId(1)), Some(0));
        assert_eq!(store.balance(AccountId(2)), Some(1_400));
        assert_eq!(
            store.balance(AccountId(3)),
            Some(1_000),
            "abort left no trace"
        );
        assert_eq!(store.balance(AccountId(4)), Some(1_600));
        assert_eq!(store.total_balance(), before_total);
    }

    #[test]
    fn batch_order_determines_which_member_aborts() {
        use std::sync::Arc;
        // The same two transfers succeed or abort depending on their order
        // inside the batch — order is part of the consensus decision.
        let mk = |seq, amount| {
            Arc::new(Transaction::transfer(
                ClientId(1),
                seq,
                AccountId(1),
                AccountId(2),
                amount,
            ))
        };
        let (exec, mut store_a) = setup();
        let a = exec.apply_batch(&mut store_a, &[mk(0, 900), mk(1, 200)]);
        assert_eq!(
            a,
            vec![ExecutionOutcome::Applied, ExecutionOutcome::Aborted]
        );
        let (exec, mut store_b) = setup();
        let b = exec.apply_batch(&mut store_b, &[mk(1, 200), mk(0, 900)]);
        assert_eq!(
            b,
            vec![ExecutionOutcome::Applied, ExecutionOutcome::Aborted]
        );
        assert_ne!(store_a, store_b);
    }

    #[test]
    fn non_local_transaction_is_reported_not_local() {
        let (exec, mut store) = setup();
        let tx = Transaction::transfer(ClientId(1), 0, AccountId(150), AccountId(250), 10);
        assert_eq!(exec.apply(&mut store, &tx), ExecutionOutcome::NotLocal);
    }

    #[test]
    fn validate_local_checks_ownership_funds_and_locality() {
        let (exec, store) = setup();
        let good = Transaction::transfer(ClientId(3), 0, AccountId(3), AccountId(4), 10);
        assert!(exec.validate_local(&store, &good).is_ok());

        let wrong_owner = Transaction::transfer(ClientId(4), 0, AccountId(3), AccountId(4), 10);
        assert!(exec.validate_local(&store, &wrong_owner).is_err());

        let not_local = Transaction::transfer(ClientId(3), 0, AccountId(150), AccountId(151), 10);
        assert!(exec.validate_local(&store, &not_local).is_err());

        // Credit-only involvement is local and valid (the debit side is
        // validated by the owning shard).
        let credit_only = Transaction::transfer(ClientId(3), 0, AccountId(150), AccountId(3), 10);
        assert!(exec.validate_local(&store, &credit_only).is_ok());
    }

    #[test]
    fn read_operations_validate_against_existing_accounts() {
        let (exec, store) = setup();
        let ok = Transaction::new(
            TxId::new(ClientId(1), 0),
            vec![Operation::Read {
                account: AccountId(5),
            }],
        );
        assert!(exec.validate_local(&store, &ok).is_ok());
        let missing = Transaction::new(
            TxId::new(ClientId(1), 1),
            vec![Operation::Read {
                account: AccountId(4242),
            }],
        );
        // Account 4242 maps to shard 2 under range(4,100); not local → error.
        assert!(exec.validate_local(&store, &missing).is_err());
    }

    #[test]
    fn freeze_aborts_touching_transactions_until_handover_moves_the_range() {
        use crate::transaction::HandoverEntry;
        let p = Partitioner::range(4, 100);
        let exec0 = Executor::new(ClusterId(0), p.clone());
        let exec2 = Executor::new(ClusterId(2), p.clone());
        let mut store0 = exec0.genesis_store(100, 1_000, ClientId);
        let mut store2 = exec2.genesis_store(100, 1_000, ClientId);

        // Phase 1: freeze [10, 20) on shard 0.
        let freeze = Transaction::freeze(ClientId(9_999), 0, 10, 10, 1);
        assert_eq!(exec0.apply(&mut store0, &freeze), ExecutionOutcome::Applied);
        assert!(store0.is_frozen(AccountId(10)));

        // Client traffic touching the frozen range aborts; outside it runs.
        let frozen_tx = Transaction::transfer(ClientId(10), 0, AccountId(10), AccountId(50), 1);
        assert_eq!(
            exec0.apply(&mut store0, &frozen_tx),
            ExecutionOutcome::Aborted
        );
        let credit_into_frozen =
            Transaction::transfer(ClientId(30), 0, AccountId(30), AccountId(15), 1);
        assert_eq!(
            exec0.apply(&mut store0, &credit_into_frozen),
            ExecutionOutcome::Aborted
        );
        let free_tx = Transaction::transfer(ClientId(30), 1, AccountId(30), AccountId(50), 1);
        assert_eq!(
            exec0.apply(&mut store0, &free_tx),
            ExecutionOutcome::Applied
        );

        // Phase 2: the handover moves the range to shard 2 atomically.
        let entries: Vec<HandoverEntry> = Executor::snapshot_range(&store0, 10, 10);
        assert_eq!(entries.len(), 10);
        let handover = Transaction::new(
            sharper_common::TxId::new(ClientId(9_999), 1),
            vec![Operation::Handover {
                start: 10,
                len: 10,
                from: ClusterId(0),
                to: ClusterId(2),
                epoch: 1,
                entries,
            }],
        );
        let moved: u128 = (10..20)
            .map(|i| store0.balance(AccountId(i)).unwrap() as u128)
            .sum();
        let before0 = store0.total_balance();
        let before2 = store2.total_balance();
        assert_eq!(
            exec0.apply(&mut store0, &handover),
            ExecutionOutcome::Applied
        );
        assert_eq!(
            exec2.apply(&mut store2, &handover),
            ExecutionOutcome::Applied
        );
        // Source: range gone, freeze lifted, balance reduced by the move.
        assert!(!store0.contains(AccountId(10)));
        assert!(store0.frozen_range().is_none());
        assert_eq!(store0.total_balance(), before0 - moved);
        // Destination: range installed with balances and owners intact.
        assert_eq!(store2.balance(AccountId(15)), Some(1_000));
        assert_eq!(store2.account(AccountId(15)).unwrap().owner, ClientId(15));
        assert_eq!(store2.total_balance(), before2 + moved);
    }

    #[test]
    fn transfer_to_unknown_local_destination_creates_account() {
        let mut partitioner = Partitioner::range(2, 10);
        partitioner.apply_range_move(555, 1, ClusterId(0));
        let exec = Executor::new(ClusterId(0), partitioner);
        let mut store = exec.genesis_store(10, 100, ClientId);
        let tx = Transaction::transfer(ClientId(1), 0, AccountId(1), AccountId(555), 30);
        assert_eq!(exec.apply(&mut store, &tx), ExecutionOutcome::Applied);
        assert_eq!(store.balance(AccountId(555)), Some(30));
    }
}
