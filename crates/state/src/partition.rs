//! Mapping of accounts to shards.
//!
//! SharPer shards the data into `|P|` shards, one per cluster (§2.2). The
//! paper notes that "an appropriate sharding usually needs to have prior
//! knowledge of the data and how the data is accessed by different
//! transactions (workload-aware)". This module provides:
//!
//! * a range partitioner (the default for the evaluation workload, where the
//!   workload generator chooses accounts per shard explicitly),
//! * a hash partitioner, and
//! * explicit per-account overrides, which is how a workload-aware placement
//!   (e.g. produced by a tool like Schism \[20\]) is expressed.

use sharper_common::{AccountId, ClusterId};
use std::collections::HashMap;

/// Strategy for the default (non-overridden) mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Strategy {
    /// Account `a` lives in shard `(a / accounts_per_shard) % shards`.
    Range { accounts_per_shard: u64 },
    /// Account `a` lives in shard `a % shards`.
    Hash,
}

/// A contiguous account range reassigned away from its strategy-derived
/// owner by an online shard split (or back to it by a merge).
///
/// Overlays are how the epoch'd shard map expresses resharding: the base
/// strategy never changes, a split adds an overlay moving `[start,
/// start+len)` to `to`, and a merge removes it (moving the range back to the
/// genesis owner deletes the overlay outright, so a split followed by the
/// inverse merge restores the exact original map).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RangeMove {
    /// First account of the moved range.
    pub start: u64,
    /// Number of consecutive accounts moved.
    pub len: u64,
    /// The shard now owning the range.
    pub to: ClusterId,
}

/// Maps accounts to the cluster (shard) that owns them.
#[derive(Debug, Clone, PartialEq)]
pub struct Partitioner {
    shards: u32,
    strategy: Strategy,
    /// Workload-aware overrides taking precedence over the strategy.
    overrides: HashMap<AccountId, ClusterId>,
    /// Resharding overlays (sorted by `start`, disjoint). Checked before the
    /// strategy but after explicit overrides.
    overlays: Vec<RangeMove>,
}

impl Partitioner {
    /// Range partitioning: accounts `[0, accounts_per_shard)` in shard 0,
    /// `[accounts_per_shard, 2*accounts_per_shard)` in shard 1, and so on
    /// (wrapping around after `shards`).
    pub fn range(shards: u32, accounts_per_shard: u64) -> Self {
        assert!(shards > 0, "at least one shard is required");
        assert!(
            accounts_per_shard > 0,
            "accounts_per_shard must be positive"
        );
        Self {
            shards,
            strategy: Strategy::Range { accounts_per_shard },
            overrides: HashMap::new(),
            overlays: Vec::new(),
        }
    }

    /// Hash (modulo) partitioning.
    pub fn hashed(shards: u32) -> Self {
        assert!(shards > 0, "at least one shard is required");
        Self {
            shards,
            strategy: Strategy::Hash,
            overrides: HashMap::new(),
            overlays: Vec::new(),
        }
    }

    /// Adds a workload-aware override pinning `account` to `shard`.
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    pub fn with_override(mut self, account: AccountId, shard: ClusterId) -> Self {
        assert!(shard.0 < self.shards, "override shard out of range");
        self.overrides.insert(account, shard);
        self
    }

    /// Number of shards.
    pub fn shard_count(&self) -> u32 {
        self.shards
    }

    /// The shard that owns `account`.
    pub fn shard_of(&self, account: AccountId) -> ClusterId {
        if let Some(s) = self.overrides.get(&account) {
            return *s;
        }
        if let Some(mv) = self.overlay_covering(account) {
            return mv.to;
        }
        self.base_shard_of(account)
    }

    /// The shard the base strategy assigns `account` to, ignoring overlays
    /// (the genesis owner a merge returns the range to).
    pub fn base_shard_of(&self, account: AccountId) -> ClusterId {
        match self.strategy {
            Strategy::Range { accounts_per_shard } => {
                ClusterId(((account.0 / accounts_per_shard) % self.shards as u64) as u32)
            }
            Strategy::Hash => ClusterId((account.0 % self.shards as u64) as u32),
        }
    }

    fn overlay_covering(&self, account: AccountId) -> Option<&RangeMove> {
        let idx = self
            .overlays
            .partition_point(|mv| mv.start + mv.len <= account.0);
        self.overlays
            .get(idx)
            .filter(|mv| mv.start <= account.0 && account.0 < mv.start + mv.len)
    }

    /// Reassigns the contiguous range `[start, start + len)` to shard `to`.
    ///
    /// Moving a range back to its genesis (strategy-derived) owner removes
    /// the overlay instead of recording one, so a split immediately followed
    /// by the inverse merge restores the exact original partitioner. Any
    /// previous overlay overlapping the range is replaced; partial overlaps
    /// are truncated to keep the overlay set disjoint.
    ///
    /// # Panics
    /// Panics if `to` is out of range or `len` is zero.
    pub fn apply_range_move(&mut self, start: u64, len: u64, to: ClusterId) {
        assert!(to.0 < self.shards, "range move target shard out of range");
        assert!(len > 0, "range move must cover at least one account");
        let end = start + len;
        // Remove or truncate anything overlapping the moved range.
        let mut kept = Vec::with_capacity(self.overlays.len() + 1);
        for mv in self.overlays.drain(..) {
            let mv_end = mv.start + mv.len;
            if mv_end <= start || mv.start >= end {
                kept.push(mv);
                continue;
            }
            if mv.start < start {
                kept.push(RangeMove {
                    start: mv.start,
                    len: start - mv.start,
                    to: mv.to,
                });
            }
            if mv_end > end {
                kept.push(RangeMove {
                    start: end,
                    len: mv_end - end,
                    to: mv.to,
                });
            }
        }
        // A move back to the genesis owner is a merge: the base strategy
        // already maps the whole range there, so no overlay is recorded.
        // (Only when the range has a single genesis owner, which bucket-
        // aligned reshard directives guarantee.)
        let genesis = self.base_shard_of(AccountId(start));
        let uniform_genesis = self.base_shard_of(AccountId(end - 1)) == genesis;
        if !(uniform_genesis && genesis == to) {
            kept.push(RangeMove { start, len, to });
        }
        kept.sort_unstable_by_key(|mv| mv.start);
        self.overlays = kept;
    }

    /// The current resharding overlays, sorted by range start (the payload a
    /// redirect / map-announce message carries to bring a stale map up to
    /// date).
    pub fn overlays(&self) -> &[RangeMove] {
        &self.overlays
    }

    /// Replaces the overlay set wholesale (installing a newer epoch's map
    /// received via redirect or announce).
    pub fn install_overlays(&mut self, overlays: Vec<RangeMove>) {
        let mut overlays = overlays;
        overlays.sort_unstable_by_key(|mv| mv.start);
        self.overlays = overlays;
    }

    /// Whether `account` is owned by `shard`.
    pub fn owns(&self, shard: ClusterId, account: AccountId) -> bool {
        self.shard_of(account) == shard
    }

    /// The canonical `i`-th account of a shard under range partitioning.
    ///
    /// Workload generators use this to draw accounts from a specific shard.
    /// Returns `None` if the partitioner is not range-based or `i` is outside
    /// the shard's range.
    pub fn account_in_shard(&self, shard: ClusterId, i: u64) -> Option<AccountId> {
        match self.strategy {
            Strategy::Range { accounts_per_shard } => {
                if shard.0 >= self.shards || i >= accounts_per_shard {
                    None
                } else {
                    Some(AccountId(shard.0 as u64 * accounts_per_shard + i))
                }
            }
            Strategy::Hash => {
                if shard.0 >= self.shards {
                    None
                } else {
                    Some(AccountId(i * self.shards as u64 + shard.0 as u64))
                }
            }
        }
    }

    /// Number of accounts per shard for range partitioning (`None` for hash
    /// partitioning, which is unbounded).
    pub fn accounts_per_shard(&self) -> Option<u64> {
        match self.strategy {
            Strategy::Range { accounts_per_shard } => Some(accounts_per_shard),
            Strategy::Hash => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_partitioning_assigns_contiguous_blocks() {
        let p = Partitioner::range(4, 100);
        assert_eq!(p.shard_of(AccountId(0)), ClusterId(0));
        assert_eq!(p.shard_of(AccountId(99)), ClusterId(0));
        assert_eq!(p.shard_of(AccountId(100)), ClusterId(1));
        assert_eq!(p.shard_of(AccountId(399)), ClusterId(3));
        // Wraps after the last shard.
        assert_eq!(p.shard_of(AccountId(400)), ClusterId(0));
    }

    #[test]
    fn hash_partitioning_uses_modulo() {
        let p = Partitioner::hashed(3);
        assert_eq!(p.shard_of(AccountId(0)), ClusterId(0));
        assert_eq!(p.shard_of(AccountId(4)), ClusterId(1));
        assert_eq!(p.shard_of(AccountId(5)), ClusterId(2));
    }

    #[test]
    fn overrides_take_precedence() {
        let p = Partitioner::range(4, 100).with_override(AccountId(5), ClusterId(3));
        assert_eq!(p.shard_of(AccountId(5)), ClusterId(3));
        assert_eq!(p.shard_of(AccountId(6)), ClusterId(0));
        assert!(p.owns(ClusterId(3), AccountId(5)));
        assert!(!p.owns(ClusterId(0), AccountId(5)));
    }

    #[test]
    fn account_in_shard_round_trips_for_range() {
        let p = Partitioner::range(5, 50);
        for shard in 0..5u32 {
            for i in [0u64, 1, 25, 49] {
                let a = p.account_in_shard(ClusterId(shard), i).unwrap();
                assert_eq!(p.shard_of(a), ClusterId(shard));
            }
        }
        assert!(p.account_in_shard(ClusterId(0), 50).is_none());
        assert!(p.account_in_shard(ClusterId(5), 0).is_none());
    }

    #[test]
    fn account_in_shard_round_trips_for_hash() {
        let p = Partitioner::hashed(4);
        for shard in 0..4u32 {
            for i in 0..10u64 {
                let a = p.account_in_shard(ClusterId(shard), i).unwrap();
                assert_eq!(p.shard_of(a), ClusterId(shard));
            }
        }
    }

    #[test]
    fn accounts_per_shard_reporting() {
        assert_eq!(Partitioner::range(2, 7).accounts_per_shard(), Some(7));
        assert_eq!(Partitioner::hashed(2).accounts_per_shard(), None);
        assert_eq!(Partitioner::range(2, 7).shard_count(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = Partitioner::hashed(0);
    }

    #[test]
    fn range_move_splits_and_merges_back() {
        let mut p = Partitioner::range(4, 100);
        assert_eq!(p.shard_of(AccountId(25)), ClusterId(0));
        // Split: move [25, 50) from shard 0 to shard 2.
        p.apply_range_move(25, 25, ClusterId(2));
        assert_eq!(p.shard_of(AccountId(24)), ClusterId(0));
        assert_eq!(p.shard_of(AccountId(25)), ClusterId(2));
        assert_eq!(p.shard_of(AccountId(49)), ClusterId(2));
        assert_eq!(p.shard_of(AccountId(50)), ClusterId(0));
        assert_eq!(p.overlays().len(), 1);
        // Merge: moving the range back to its genesis owner clears the
        // overlay and restores the original map exactly.
        p.apply_range_move(25, 25, ClusterId(0));
        assert!(p.overlays().is_empty());
        assert_eq!(p, Partitioner::range(4, 100));
    }

    #[test]
    fn overlapping_range_moves_truncate_older_overlays() {
        let mut p = Partitioner::range(4, 100);
        p.apply_range_move(10, 40, ClusterId(1));
        // A later move of the middle slice wins; the ends stay with the
        // first overlay.
        p.apply_range_move(20, 10, ClusterId(3));
        assert_eq!(p.shard_of(AccountId(15)), ClusterId(1));
        assert_eq!(p.shard_of(AccountId(25)), ClusterId(3));
        assert_eq!(p.shard_of(AccountId(35)), ClusterId(1));
        assert_eq!(p.overlays().len(), 3);
    }

    #[test]
    fn overlays_transfer_via_install() {
        let mut p = Partitioner::range(4, 100);
        p.apply_range_move(300, 50, ClusterId(0));
        let mut q = Partitioner::range(4, 100);
        q.install_overlays(p.overlays().to_vec());
        assert_eq!(p, q);
        assert_eq!(q.shard_of(AccountId(320)), ClusterId(0));
        assert_eq!(q.base_shard_of(AccountId(320)), ClusterId(3));
    }

    #[test]
    fn overrides_beat_overlays() {
        let mut p = Partitioner::range(4, 100).with_override(AccountId(30), ClusterId(3));
        p.apply_range_move(0, 100, ClusterId(1));
        assert_eq!(p.shard_of(AccountId(30)), ClusterId(3));
        assert_eq!(p.shard_of(AccountId(31)), ClusterId(1));
    }
}
