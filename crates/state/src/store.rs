//! State-access traits and the partitioned per-shard store.
//!
//! The executor originally mutated one flat [`AccountStore`] per shard.
//! For intra-cluster parallel execution the shard's accounts are split by
//! account range into `partitions` disjoint [`AccountStore`]s behind a
//! [`PartitionedStore`]; the scheduler in [`crate::scheduler`] then runs
//! sub-batches touching disjoint partitions on different workers.
//!
//! The [`StateRead`] / [`StateWrite`] traits abstract "something accounts can
//! be read from / applied to" so the same validation and apply code runs
//! against a flat store, the whole partitioned store, a single partition, or
//! a multi-partition gang view — which is what makes the partitioned result
//! bit-identical to serial apply by construction.

use crate::account::{Account, AccountStore};
use sharper_common::{AccountId, ClientId, ClusterId, Result};

/// Read access to account state.
pub trait StateRead {
    /// Looks up an account.
    fn account(&self, id: AccountId) -> Option<&Account>;

    /// Whether the state holds the account.
    fn contains(&self, id: AccountId) -> bool {
        self.account(id).is_some()
    }

    /// The balance of an account, if present.
    fn balance(&self, id: AccountId) -> Option<u64> {
        self.account(id).map(|a| a.balance)
    }

    /// Whether `id` falls in a range frozen by an in-flight reshard
    /// (validation aborts client transactions touching frozen accounts).
    fn is_frozen(&self, id: AccountId) -> bool {
        let _ = id;
        false
    }
}

/// Mutating access to account state.
pub trait StateWrite: StateRead {
    /// Creates (or resets) an account.
    fn create_account(&mut self, id: AccountId, owner: ClientId, balance: u64);

    /// Debits `amount` from `id` after checking ownership and balance.
    fn debit(&mut self, id: AccountId, requester: ClientId, amount: u64) -> Result<()>;

    /// Credits `amount` to `id`.
    fn credit(&mut self, id: AccountId, amount: u64) -> Result<()>;

    /// Freezes the account range `[start, start + len)` for an in-flight
    /// reshard (reshard batches always apply serially, so gang views never
    /// see this).
    fn set_frozen(&mut self, start: u64, len: u64);

    /// Clears the frozen range.
    fn clear_frozen(&mut self);

    /// Removes an account outright (resharding handover: the range leaves
    /// this shard). Returns the removed record, if present.
    fn remove_account(&mut self, id: AccountId) -> Option<Account>;
}

impl StateRead for AccountStore {
    fn account(&self, id: AccountId) -> Option<&Account> {
        AccountStore::account(self, id)
    }

    fn contains(&self, id: AccountId) -> bool {
        AccountStore::contains(self, id)
    }

    fn is_frozen(&self, id: AccountId) -> bool {
        AccountStore::is_frozen(self, id)
    }
}

impl StateWrite for AccountStore {
    fn create_account(&mut self, id: AccountId, owner: ClientId, balance: u64) {
        AccountStore::create_account(self, id, owner, balance);
    }

    fn debit(&mut self, id: AccountId, requester: ClientId, amount: u64) -> Result<()> {
        AccountStore::debit(self, id, requester, amount)
    }

    fn credit(&mut self, id: AccountId, amount: u64) -> Result<()> {
        AccountStore::credit(self, id, amount)
    }

    fn set_frozen(&mut self, start: u64, len: u64) {
        AccountStore::set_frozen(self, start, len);
    }

    fn clear_frozen(&mut self) {
        AccountStore::clear_frozen(self);
    }

    fn remove_account(&mut self, id: AccountId) -> Option<Account> {
        AccountStore::remove_account(self, id)
    }
}

/// The pure account → partition mapping of a [`PartitionedStore`].
///
/// Small and `Copy` so the scheduler can route operations without borrowing
/// the store itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionMap {
    chunk: u64,
    partitions: usize,
}

impl PartitionMap {
    /// A mapping splitting accounts into `partitions` range chunks of
    /// `chunk` consecutive accounts each (cycling).
    pub fn new(partitions: usize, chunk: u64) -> Self {
        Self {
            chunk: chunk.max(1),
            partitions: partitions.max(1),
        }
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// The partition that owns `account`.
    pub fn partition_of(&self, account: AccountId) -> usize {
        ((account.0 / self.chunk) as usize) % self.partitions
    }
}

/// One shard's account state, split by account range into disjoint
/// per-partition [`AccountStore`]s.
///
/// With `partitions = 1` this is a thin wrapper around the seed's flat store
/// and behaves identically. The partition an account belongs to is a pure
/// function of its id ([`PartitionMap`]), so routing never depends on store
/// contents and two replicas with the same configuration always agree on the
/// layout.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionedStore {
    shard: ClusterId,
    map: PartitionMap,
    parts: Vec<AccountStore>,
}

impl PartitionedStore {
    /// The chunk size that splits a shard of `accounts_per_shard` accounts
    /// into `partitions` contiguous ranges (`None` — e.g. a hash
    /// partitioner's unbounded shard — falls back to striping single
    /// accounts, which is still a valid deterministic map).
    pub fn chunk_for(accounts_per_shard: Option<u64>, partitions: usize) -> u64 {
        let parts = partitions.max(1) as u64;
        match accounts_per_shard {
            Some(aps) => aps.div_ceil(parts).max(1),
            None => 1,
        }
    }

    /// Creates an empty partitioned store for `shard` with `partitions`
    /// range partitions of `chunk` consecutive accounts each.
    pub fn new(shard: ClusterId, partitions: usize, chunk: u64) -> Self {
        let map = PartitionMap::new(partitions, chunk);
        let parts = (0..map.partitions())
            .map(|_| AccountStore::new(shard))
            .collect();
        Self { shard, map, parts }
    }

    /// Splits an existing flat store into `partitions` partitions, routing
    /// each account by the range map. `chunk` is the number of consecutive
    /// accounts per partition stripe (usually `accounts_per_shard /
    /// partitions`, so each partition is one contiguous range).
    pub fn from_store(store: AccountStore, partitions: usize, chunk: u64) -> Self {
        let mut out = Self::new(store.shard(), partitions, chunk);
        for (id, account) in store.iter() {
            let p = out.map.partition_of(*id);
            out.parts[p].create_account(*id, account.owner, account.balance);
        }
        if let Some((start, len)) = store.frozen_range() {
            out.set_frozen(start, len);
        }
        out
    }

    /// Flattens the partitions back into one [`AccountStore`] (layout-neutral
    /// comparison helper for tests and audits).
    pub fn to_store(&self) -> AccountStore {
        let mut out = AccountStore::new(self.shard);
        for part in &self.parts {
            for (id, account) in part.iter() {
                out.create_account(*id, account.owner, account.balance);
            }
        }
        if let Some((start, len)) = self.frozen_range() {
            out.set_frozen(start, len);
        }
        out
    }

    /// Freezes `[start, start + len)` on every partition (the frozen range
    /// must be visible to whichever partition validates a touching
    /// transaction).
    pub fn set_frozen(&mut self, start: u64, len: u64) {
        for part in &mut self.parts {
            part.set_frozen(start, len);
        }
    }

    /// Clears the frozen range on every partition.
    pub fn clear_frozen(&mut self) {
        for part in &mut self.parts {
            part.clear_frozen();
        }
    }

    /// The currently frozen range, if any (identical on every partition).
    pub fn frozen_range(&self) -> Option<(u64, u64)> {
        self.parts.first().and_then(AccountStore::frozen_range)
    }

    /// Removes an account outright (resharding handover).
    pub fn remove_account(&mut self, id: AccountId) -> Option<Account> {
        let p = self.map.partition_of(id);
        self.parts[p].remove_account(id)
    }

    /// The shard this store holds.
    pub fn shard(&self) -> ClusterId {
        self.shard
    }

    /// The account → partition mapping.
    pub fn partition_map(&self) -> PartitionMap {
        self.map
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.parts.len()
    }

    /// The store of one partition.
    pub fn part(&self, p: usize) -> &AccountStore {
        &self.parts[p]
    }

    /// Mutable access to one partition's store.
    pub fn part_mut(&mut self, p: usize) -> &mut AccountStore {
        &mut self.parts[p]
    }

    /// Mutable access to every partition at once (used by the parallel
    /// runner to hand each worker its own disjoint slice of state).
    pub fn parts_mut(&mut self) -> &mut [AccountStore] {
        &mut self.parts
    }

    /// Total number of accounts across all partitions.
    pub fn len(&self) -> usize {
        self.parts.iter().map(AccountStore::len).sum()
    }

    /// Whether the shard holds no accounts.
    pub fn is_empty(&self) -> bool {
        self.parts.iter().all(AccountStore::is_empty)
    }

    /// Sum of all balances in the shard.
    pub fn total_balance(&self) -> u128 {
        self.parts.iter().map(AccountStore::total_balance).sum()
    }

    /// Looks up an account (inherent mirror of [`StateRead::account`]).
    pub fn account(&self, id: AccountId) -> Option<&Account> {
        self.parts[self.map.partition_of(id)].account(id)
    }

    /// The balance of an account, if it exists in this shard.
    pub fn balance(&self, id: AccountId) -> Option<u64> {
        self.account(id).map(|a| a.balance)
    }

    /// Whether the store holds the account.
    pub fn contains(&self, id: AccountId) -> bool {
        self.parts[self.map.partition_of(id)].contains(id)
    }

    /// Iterates over all accounts of all partitions.
    pub fn iter(&self) -> impl Iterator<Item = (&AccountId, &Account)> {
        self.parts.iter().flat_map(AccountStore::iter)
    }
}

impl StateRead for PartitionedStore {
    fn account(&self, id: AccountId) -> Option<&Account> {
        PartitionedStore::account(self, id)
    }

    fn contains(&self, id: AccountId) -> bool {
        PartitionedStore::contains(self, id)
    }

    fn is_frozen(&self, id: AccountId) -> bool {
        self.parts[self.map.partition_of(id)].is_frozen(id)
    }
}

impl StateWrite for PartitionedStore {
    fn create_account(&mut self, id: AccountId, owner: ClientId, balance: u64) {
        let p = self.map.partition_of(id);
        self.parts[p].create_account(id, owner, balance);
    }

    fn debit(&mut self, id: AccountId, requester: ClientId, amount: u64) -> Result<()> {
        let p = self.map.partition_of(id);
        self.parts[p].debit(id, requester, amount)
    }

    fn credit(&mut self, id: AccountId, amount: u64) -> Result<()> {
        let p = self.map.partition_of(id);
        self.parts[p].credit(id, amount)
    }

    fn set_frozen(&mut self, start: u64, len: u64) {
        PartitionedStore::set_frozen(self, start, len);
    }

    fn clear_frozen(&mut self) {
        PartitionedStore::clear_frozen(self);
    }

    fn remove_account(&mut self, id: AccountId) -> Option<Account> {
        PartitionedStore::remove_account(self, id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded(partitions: usize) -> PartitionedStore {
        let mut flat = AccountStore::new(ClusterId(0));
        for i in 0..100u64 {
            flat.create_account(AccountId(i), ClientId(i), 1_000);
        }
        PartitionedStore::from_store(flat, partitions, 100 / partitions as u64)
    }

    #[test]
    fn range_map_routes_contiguous_chunks() {
        let map = PartitionMap::new(4, 25);
        assert_eq!(map.partition_of(AccountId(0)), 0);
        assert_eq!(map.partition_of(AccountId(24)), 0);
        assert_eq!(map.partition_of(AccountId(25)), 1);
        assert_eq!(map.partition_of(AccountId(99)), 3);
        // Wraps for accounts beyond one shard stripe (other shards' ranges
        // still map deterministically).
        assert_eq!(map.partition_of(AccountId(100)), 0);
        // Degenerate inputs clamp instead of dividing by zero.
        assert_eq!(PartitionMap::new(0, 0).partition_of(AccountId(7)), 0);
    }

    #[test]
    fn from_store_partitions_and_flattens_losslessly() {
        let flat = seeded(1).to_store();
        for partitions in [1usize, 2, 4, 8] {
            let split = seeded(partitions);
            assert_eq!(split.partitions(), partitions);
            assert_eq!(split.len(), 100);
            assert_eq!(split.total_balance(), 100_000);
            assert_eq!(split.to_store(), flat, "{partitions} partitions");
            // Every partition holds exactly the accounts the map assigns it.
            for p in 0..partitions {
                for (id, _) in split.part(p).iter() {
                    assert_eq!(split.partition_map().partition_of(*id), p);
                }
            }
        }
    }

    #[test]
    fn reads_and_writes_route_to_the_owning_partition() {
        let mut s = seeded(4);
        assert_eq!(s.balance(AccountId(30)), Some(1_000));
        assert!(s.contains(AccountId(99)));
        assert!(!s.contains(AccountId(500)));
        StateWrite::debit(&mut s, AccountId(30), ClientId(30), 250).unwrap();
        StateWrite::credit(&mut s, AccountId(80), 250).unwrap();
        assert_eq!(s.balance(AccountId(30)), Some(750));
        assert_eq!(s.balance(AccountId(80)), Some(1_250));
        assert_eq!(s.total_balance(), 100_000);
        // The mutated accounts live in the partitions the map says.
        assert!(s.part(1).contains(AccountId(30)));
        assert!(s.part(3).contains(AccountId(80)));
        // Creates route as well.
        StateWrite::create_account(&mut s, AccountId(26), ClientId(9), 5);
        assert!(s.part(1).contains(AccountId(26)));
    }

    #[test]
    fn single_partition_store_matches_flat_semantics() {
        let mut s = seeded(1);
        let mut flat = seeded(1).to_store();
        StateWrite::debit(&mut s, AccountId(1), ClientId(1), 10).unwrap();
        flat.debit(AccountId(1), ClientId(1), 10).unwrap();
        assert_eq!(s.to_store(), flat);
        assert_eq!(s.shard(), ClusterId(0));
        assert!(!s.is_empty());
        assert_eq!(s.iter().count(), 100);
    }
}
