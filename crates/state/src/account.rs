//! Account records and the per-shard account store.
//!
//! "Each account can be seen as a pair of (amount, PK) where PK is the public
//! key of the owner of the account" (§4). In the reproduction the owner is
//! recorded as a [`ClientId`]; ownership checks during validation stand in
//! for the paper's signature check against the account's public key.

use sharper_common::{AccountId, ClientId, ClusterId, Error, Result};
use std::collections::HashMap;

/// A single account record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Account {
    /// Current balance in application units.
    pub balance: u64,
    /// The client that owns (may debit) this account.
    pub owner: ClientId,
}

/// The account records of one shard, replicated on every node of the owning
/// cluster (§2.2).
#[derive(Debug, Clone, PartialEq)]
pub struct AccountStore {
    shard: ClusterId,
    accounts: HashMap<AccountId, Account>,
    /// Account range `[start, start + len)` frozen by an in-flight reshard:
    /// client transactions touching it abort deterministically until the
    /// handover commits and the range leaves (or unfreezes on) this shard.
    frozen: Option<(u64, u64)>,
}

impl AccountStore {
    /// Creates an empty store for `shard`.
    pub fn new(shard: ClusterId) -> Self {
        Self {
            shard,
            accounts: HashMap::new(),
            frozen: None,
        }
    }

    /// The shard this store holds.
    pub fn shard(&self) -> ClusterId {
        self.shard
    }

    /// Creates (or resets) an account.
    pub fn create_account(&mut self, id: AccountId, owner: ClientId, balance: u64) {
        self.accounts.insert(id, Account { balance, owner });
    }

    /// Looks up an account.
    pub fn account(&self, id: AccountId) -> Option<&Account> {
        self.accounts.get(&id)
    }

    /// The balance of an account, if it exists in this shard.
    pub fn balance(&self, id: AccountId) -> Option<u64> {
        self.accounts.get(&id).map(|a| a.balance)
    }

    /// Whether the store holds the account.
    pub fn contains(&self, id: AccountId) -> bool {
        self.accounts.contains_key(&id)
    }

    /// Number of accounts in the shard.
    pub fn len(&self) -> usize {
        self.accounts.len()
    }

    /// Whether the shard holds no accounts.
    pub fn is_empty(&self) -> bool {
        self.accounts.is_empty()
    }

    /// Sum of all balances in the shard (used by conservation-of-money
    /// invariant checks).
    pub fn total_balance(&self) -> u128 {
        self.accounts.values().map(|a| a.balance as u128).sum()
    }

    /// Debits `amount` from `id` after checking ownership and balance.
    pub fn debit(&mut self, id: AccountId, requester: ClientId, amount: u64) -> Result<()> {
        let account = self
            .accounts
            .get_mut(&id)
            .ok_or_else(|| Error::NotFound(format!("account {id} not in shard")))?;
        if account.owner != requester {
            return Err(Error::IntegrityViolation(format!(
                "client {requester} does not own account {id}"
            )));
        }
        if account.balance < amount {
            return Err(Error::IntegrityViolation(format!(
                "account {id} has balance {} < {amount}",
                account.balance
            )));
        }
        account.balance -= amount;
        Ok(())
    }

    /// Credits `amount` to `id`.
    pub fn credit(&mut self, id: AccountId, amount: u64) -> Result<()> {
        let account = self
            .accounts
            .get_mut(&id)
            .ok_or_else(|| Error::NotFound(format!("account {id} not in shard")))?;
        account.balance = account.balance.saturating_add(amount);
        Ok(())
    }

    /// Removes an account outright (resharding handover: the range leaves
    /// this shard).
    pub fn remove_account(&mut self, id: AccountId) -> Option<Account> {
        self.accounts.remove(&id)
    }

    /// Freezes the account range `[start, start + len)` for an in-flight
    /// reshard. At most one range is frozen at a time (the reshard
    /// coordinator keeps directives strictly sequential).
    pub fn set_frozen(&mut self, start: u64, len: u64) {
        self.frozen = Some((start, len));
    }

    /// Clears the frozen range (the handover committed or was abandoned).
    pub fn clear_frozen(&mut self) {
        self.frozen = None;
    }

    /// The currently frozen range, if any.
    pub fn frozen_range(&self) -> Option<(u64, u64)> {
        self.frozen
    }

    /// Whether `id` falls inside the frozen range.
    pub fn is_frozen(&self, id: AccountId) -> bool {
        matches!(self.frozen, Some((start, len)) if start <= id.0 && id.0 < start + len)
    }

    /// Iterates over all accounts (test/inspection helper).
    pub fn iter(&self) -> impl Iterator<Item = (&AccountId, &Account)> {
        self.accounts.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> AccountStore {
        let mut s = AccountStore::new(ClusterId(0));
        s.create_account(AccountId(1), ClientId(10), 100);
        s.create_account(AccountId(2), ClientId(20), 50);
        s
    }

    #[test]
    fn create_and_lookup() {
        let s = store();
        assert_eq!(s.balance(AccountId(1)), Some(100));
        assert_eq!(s.account(AccountId(2)).unwrap().owner, ClientId(20));
        assert!(s.contains(AccountId(1)));
        assert!(!s.contains(AccountId(3)));
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert_eq!(s.shard(), ClusterId(0));
    }

    #[test]
    fn debit_requires_ownership_and_funds() {
        let mut s = store();
        // Wrong owner.
        assert!(s.debit(AccountId(1), ClientId(99), 10).is_err());
        // Insufficient funds.
        assert!(s.debit(AccountId(1), ClientId(10), 101).is_err());
        // Unknown account.
        assert!(s.debit(AccountId(7), ClientId(10), 1).is_err());
        // Valid debit.
        assert!(s.debit(AccountId(1), ClientId(10), 40).is_ok());
        assert_eq!(s.balance(AccountId(1)), Some(60));
    }

    #[test]
    fn credit_and_total_balance() {
        let mut s = store();
        assert_eq!(s.total_balance(), 150);
        s.credit(AccountId(2), 25).unwrap();
        assert_eq!(s.balance(AccountId(2)), Some(75));
        assert_eq!(s.total_balance(), 175);
        assert!(s.credit(AccountId(9), 1).is_err());
    }

    #[test]
    fn credit_saturates_instead_of_overflowing() {
        let mut s = AccountStore::new(ClusterId(1));
        s.create_account(AccountId(1), ClientId(1), u64::MAX - 1);
        s.credit(AccountId(1), 10).unwrap();
        assert_eq!(s.balance(AccountId(1)), Some(u64::MAX));
    }

    #[test]
    fn failed_debit_does_not_change_state() {
        let mut s = store();
        let before = s.clone();
        let _ = s.debit(AccountId(1), ClientId(10), 1000);
        assert_eq!(s, before);
    }

    #[test]
    fn frozen_range_covers_exactly_its_accounts() {
        let mut s = store();
        assert!(s.frozen_range().is_none());
        assert!(!s.is_frozen(AccountId(1)));
        s.set_frozen(1, 1);
        assert_eq!(s.frozen_range(), Some((1, 1)));
        assert!(s.is_frozen(AccountId(1)));
        assert!(!s.is_frozen(AccountId(0)));
        assert!(!s.is_frozen(AccountId(2)));
        s.clear_frozen();
        assert!(!s.is_frozen(AccountId(1)));
    }

    #[test]
    fn remove_account_returns_the_record() {
        let mut s = store();
        let removed = s.remove_account(AccountId(1)).unwrap();
        assert_eq!(removed.balance, 100);
        assert_eq!(removed.owner, ClientId(10));
        assert!(!s.contains(AccountId(1)));
        assert!(s.remove_account(AccountId(1)).is_none());
    }
}
