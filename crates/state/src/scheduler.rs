//! The partitioned executor scheduler: per-partition work queues with an
//! atomic `Idle → Pending → Running` partition lifecycle.
//!
//! # Plan
//!
//! [`ExecPlan::build`] classifies every transaction of a committed batch by
//! the partitions its local read/write set touches:
//!
//! * **NotLocal** — nothing local; the outcome is preset.
//! * **TrivialCredits** — only credit destinations are local, nothing is
//!   read during validation: the outcome is `Applied` by construction and
//!   one credit step is queued per touched partition.
//! * **Solo** — every local account lives in one partition: one
//!   validate-and-apply step on that partition.
//! * **Split** — every *validation read* (transfer sources, read ops) lives
//!   in one partition but credits land elsewhere: a validate step on the
//!   read partition plus dependent credit steps on the others. This is the
//!   common shape for uniform transfer workloads and is what keeps the
//!   schedule's critical path short when most transfers cross partitions.
//! * **Gang** — validation reads span several partitions: one gang step is
//!   queued on every involved partition and executed atomically across all
//!   of them by the owning (minimum) partition's worker.
//!
//! # Determinism
//!
//! Each partition's queue holds its steps in batch-index order and is
//! consumed strictly head-first, so the per-account operation sequence is
//! exactly the serial apply's projection onto that partition: a validate
//! step for transaction `i` observes precisely the writes of transactions
//! `< i` on its partition (conflicting transactions stay in consensus
//! order), credit steps wait on their transaction's validation outcome, and
//! gang steps run only when every involved partition has drained all
//! earlier steps. Outcomes are merged back in batch-index order, making the
//! result — outcomes, replies, ledger digest — bit-identical to serial
//! apply regardless of worker count or interleaving.
//!
//! # Cost accounting
//!
//! The plan reports its critical path in abstract work units
//! ([`TX_UNITS`] per transaction, split [`V_UNITS`] + [`C_UNITS`] for split
//! transactions) so the apply-path benchmark can model the parallel
//! speedup; the simulation pipeline itself keeps charging the flat serial
//! batch cost so partitioning can never perturb golden seeds.

use crate::account::{Account, AccountStore};
use crate::executor::{ExecutionOutcome, Executor};
use crate::rwset::RwSet;
use crate::store::{PartitionMap, PartitionedStore, StateRead, StateWrite};
use crate::transaction::Transaction;
use sharper_common::{AccountId, ClientId, Result};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Work units of a split transaction's validate-and-write step.
pub const V_UNITS: u64 = 2;
/// Work units of a dependent credit step.
pub const C_UNITS: u64 = 1;
/// Work units of one whole transaction (solo or gang step, and the serial
/// per-transaction reference cost).
pub const TX_UNITS: u64 = V_UNITS + C_UNITS;

/// Partition lifecycle: no work left in the queue.
const IDLE: u8 = 0;
/// Partition lifecycle: work queued, no worker attached.
const PENDING: u8 = 1;
/// Partition lifecycle: a worker owns the partition's queue head.
const RUNNING: u8 = 2;

/// Outcome cell encodings for the lock-free per-transaction result slots.
const OC_UNSET: u8 = 0;
const OC_APPLIED: u8 = 1;
const OC_ABORTED: u8 = 2;
const OC_NOT_LOCAL: u8 = 3;

fn encode(outcome: ExecutionOutcome) -> u8 {
    match outcome {
        ExecutionOutcome::Applied => OC_APPLIED,
        ExecutionOutcome::Aborted => OC_ABORTED,
        ExecutionOutcome::NotLocal => OC_NOT_LOCAL,
    }
}

fn decode(cell: u8) -> ExecutionOutcome {
    match cell {
        OC_APPLIED => ExecutionOutcome::Applied,
        OC_ABORTED => ExecutionOutcome::Aborted,
        OC_NOT_LOCAL => ExecutionOutcome::NotLocal,
        _ => unreachable!("outcome cell read before it was written"),
    }
}

/// How one transaction maps onto partitions.
#[derive(Debug, Clone, PartialEq, Eq)]
enum TxPlan {
    NotLocal,
    TrivialCredits {
        credit_parts: Vec<usize>,
    },
    Solo {
        part: usize,
    },
    Split {
        vpart: usize,
        credit_parts: Vec<usize>,
    },
    Gang {
        parts: Vec<usize>,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StepKind {
    Solo,
    Validate,
    Credit,
    Gang,
}

/// One queued unit of work: transaction index + what to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Step {
    tx: usize,
    kind: StepKind,
}

/// The per-partition schedule of one committed batch.
#[derive(Debug)]
pub struct ExecPlan {
    plans: Vec<TxPlan>,
    rws: Vec<RwSet>,
    queues: Vec<Vec<Step>>,
    preset: Vec<Option<ExecutionOutcome>>,
    total_steps: usize,
    makespan_units: u64,
    serial_units: u64,
}

impl ExecPlan {
    /// Builds the schedule for `txs` over `map`'s partitions.
    pub fn build(exec: &Executor, map: PartitionMap, txs: &[Arc<Transaction>]) -> Self {
        let nparts = map.partitions();
        let mut queues: Vec<Vec<Step>> = vec![Vec::new(); nparts];
        let mut plans = Vec::with_capacity(txs.len());
        let mut rws = Vec::with_capacity(txs.len());
        let mut preset = vec![None; txs.len()];
        for (i, tx) in txs.iter().enumerate() {
            let rw = exec.rw_set(tx);
            let mut vparts: Vec<usize> = rw.reads().iter().map(|a| map.partition_of(*a)).collect();
            vparts.sort_unstable();
            vparts.dedup();
            let mut wparts: Vec<usize> = rw.writes().iter().map(|a| map.partition_of(*a)).collect();
            wparts.sort_unstable();
            wparts.dedup();
            let plan = if !rw.any_local() {
                preset[i] = Some(ExecutionOutcome::NotLocal);
                TxPlan::NotLocal
            } else if vparts.is_empty() {
                // Nothing to validate locally: the outcome cannot be anything
                // but Applied, and the credit steps carry no dependency.
                preset[i] = Some(ExecutionOutcome::Applied);
                for &q in &wparts {
                    queues[q].push(Step {
                        tx: i,
                        kind: StepKind::Credit,
                    });
                }
                TxPlan::TrivialCredits {
                    credit_parts: wparts,
                }
            } else if vparts.len() == 1 {
                let vp = vparts[0];
                let credit_parts: Vec<usize> =
                    wparts.iter().copied().filter(|&q| q != vp).collect();
                if credit_parts.is_empty() {
                    queues[vp].push(Step {
                        tx: i,
                        kind: StepKind::Solo,
                    });
                    TxPlan::Solo { part: vp }
                } else {
                    queues[vp].push(Step {
                        tx: i,
                        kind: StepKind::Validate,
                    });
                    for &q in &credit_parts {
                        queues[q].push(Step {
                            tx: i,
                            kind: StepKind::Credit,
                        });
                    }
                    TxPlan::Split {
                        vpart: vp,
                        credit_parts,
                    }
                }
            } else {
                let mut parts = vparts;
                parts.extend_from_slice(&wparts);
                parts.sort_unstable();
                parts.dedup();
                for &q in &parts {
                    queues[q].push(Step {
                        tx: i,
                        kind: StepKind::Gang,
                    });
                }
                TxPlan::Gang { parts }
            };
            plans.push(plan);
            rws.push(rw);
        }

        // Critical path of the schedule, in work units: each partition is a
        // serial resource; split credits start after both their partition is
        // free and their validate step finished; gangs synchronise every
        // involved partition.
        let mut time = vec![0u64; nparts];
        let mut serial_units = 0u64;
        for plan in &plans {
            match plan {
                TxPlan::NotLocal => {}
                TxPlan::TrivialCredits { credit_parts } => {
                    serial_units += TX_UNITS;
                    for &q in credit_parts {
                        time[q] += C_UNITS;
                    }
                }
                TxPlan::Solo { part } => {
                    serial_units += TX_UNITS;
                    time[*part] += TX_UNITS;
                }
                TxPlan::Split {
                    vpart,
                    credit_parts,
                } => {
                    serial_units += TX_UNITS;
                    let done_v = time[*vpart] + V_UNITS;
                    time[*vpart] = done_v;
                    for &q in credit_parts {
                        time[q] = time[q].max(done_v) + C_UNITS;
                    }
                }
                TxPlan::Gang { parts } => {
                    serial_units += TX_UNITS;
                    let done = parts.iter().map(|&q| time[q]).max().unwrap_or(0) + TX_UNITS;
                    for &q in parts {
                        time[q] = done;
                    }
                }
            }
        }
        let makespan_units = time.into_iter().max().unwrap_or(0);

        let total_steps = queues.iter().map(Vec::len).sum();
        Self {
            plans,
            rws,
            queues,
            preset,
            total_steps,
            makespan_units,
            serial_units,
        }
    }

    /// Critical-path length of the schedule, in work units.
    pub fn makespan_units(&self) -> u64 {
        self.makespan_units
    }

    /// Serial reference cost of the batch ([`TX_UNITS`] per local
    /// transaction), in work units.
    pub fn serial_units(&self) -> u64 {
        self.serial_units
    }

    /// Number of queued steps across all partitions.
    pub fn total_steps(&self) -> usize {
        self.total_steps
    }

    /// Number of partitions with at least one queued step.
    pub fn active_partitions(&self) -> usize {
        self.queues.iter().filter(|q| !q.is_empty()).count()
    }

    /// Length of the deepest partition queue — the peak per-partition queue
    /// depth reported by the executor trace events.
    pub fn max_queue_depth(&self) -> usize {
        self.queues.iter().map(Vec::len).max().unwrap_or(0)
    }
}

/// The result of a partitioned batch apply: per-transaction outcomes in
/// batch-index order plus the plan statistics used by the apply-path cost
/// model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionedApply {
    /// Execution outcomes, in the batch's original transaction order.
    pub outcomes: Vec<ExecutionOutcome>,
    /// Critical-path length of the executed schedule, in work units.
    pub makespan_units: u64,
    /// Serial reference cost of the batch, in work units.
    pub serial_units: u64,
    /// Steps queued across all partitions by the executed plan.
    pub total_steps: usize,
    /// Peak per-partition queue depth of the executed plan.
    pub max_queue_depth: usize,
    /// Partitions with at least one queued step.
    pub active_partitions: usize,
}

/// Executes a committed batch through the partitioned scheduler.
pub(crate) fn execute(
    exec: &Executor,
    store: &mut PartitionedStore,
    txs: &[Arc<Transaction>],
    exec_threads: usize,
) -> PartitionedApply {
    let map = store.partition_map();
    let plan = ExecPlan::build(exec, map, txs);
    let outcomes = if exec_threads > 1 && plan.active_partitions() > 1 {
        run_parallel(exec, store, txs, &plan, exec_threads)
    } else {
        run_sequential(exec, store, txs, &plan)
    };
    PartitionedApply {
        outcomes,
        makespan_units: plan.makespan_units,
        serial_units: plan.serial_units,
        total_steps: plan.total_steps,
        max_queue_depth: plan.max_queue_depth(),
        active_partitions: plan.active_partitions(),
    }
}

/// Runs the plan on the calling thread, transaction by transaction, through
/// the same step routines the parallel runner uses.
fn run_sequential(
    exec: &Executor,
    store: &mut PartitionedStore,
    txs: &[Arc<Transaction>],
    plan: &ExecPlan,
) -> Vec<ExecutionOutcome> {
    let map = store.partition_map();
    let mut outcomes = Vec::with_capacity(txs.len());
    for (i, tx) in txs.iter().enumerate() {
        let rw = &plan.rws[i];
        let outcome = match &plan.plans[i] {
            TxPlan::NotLocal => ExecutionOutcome::NotLocal,
            TxPlan::TrivialCredits { credit_parts } => {
                for &q in credit_parts {
                    exec.run_credit_step(store.part_mut(q), tx, rw, map, q);
                }
                ExecutionOutcome::Applied
            }
            TxPlan::Solo { part } => {
                exec.run_validate_step(store.part_mut(*part), tx, rw, map, *part)
            }
            TxPlan::Split {
                vpart,
                credit_parts,
            } => {
                let outcome = exec.run_validate_step(store.part_mut(*vpart), tx, rw, map, *vpart);
                if outcome == ExecutionOutcome::Applied {
                    for &q in credit_parts {
                        exec.run_credit_step(store.part_mut(q), tx, rw, map, q);
                    }
                }
                outcome
            }
            TxPlan::Gang { .. } => exec.run_full(store, tx, rw),
        };
        outcomes.push(outcome);
    }
    outcomes
}

/// Runs the plan on up to `exec_threads` workers. Workers claim partitions
/// through the atomic `Idle → Pending → Running` lifecycle, execute runnable
/// head steps against the partition's mutex-guarded store slot, and release
/// the partition back to `Pending` (more steps queued) or `Idle` (drained).
fn run_parallel(
    exec: &Executor,
    store: &mut PartitionedStore,
    txs: &[Arc<Transaction>],
    plan: &ExecPlan,
    exec_threads: usize,
) -> Vec<ExecutionOutcome> {
    let map = store.partition_map();
    let nparts = store.partitions();
    let outcome_cells: Vec<AtomicU8> = plan
        .preset
        .iter()
        .map(|preset| AtomicU8::new(preset.map_or(OC_UNSET, encode)))
        .collect();
    let heads: Vec<AtomicUsize> = (0..nparts).map(|_| AtomicUsize::new(0)).collect();
    let remaining = AtomicUsize::new(plan.total_steps);
    let lifecycle: Vec<AtomicU8> = plan
        .queues
        .iter()
        .map(|q| AtomicU8::new(if q.is_empty() { IDLE } else { PENDING }))
        .collect();
    let slots: Vec<Mutex<&mut AccountStore>> =
        store.parts_mut().iter_mut().map(Mutex::new).collect();
    let workers = exec_threads.min(plan.active_partitions()).max(1);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                worker_loop(
                    exec,
                    txs,
                    plan,
                    map,
                    &outcome_cells,
                    &heads,
                    &remaining,
                    &lifecycle,
                    &slots,
                );
            });
        }
    });
    debug_assert_eq!(remaining.load(Ordering::Acquire), 0);
    outcome_cells
        .iter()
        .map(|cell| decode(cell.load(Ordering::Acquire)))
        .collect()
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    exec: &Executor,
    txs: &[Arc<Transaction>],
    plan: &ExecPlan,
    map: PartitionMap,
    outcome_cells: &[AtomicU8],
    heads: &[AtomicUsize],
    remaining: &AtomicUsize,
    lifecycle: &[AtomicU8],
    slots: &[Mutex<&mut AccountStore>],
) {
    let nparts = lifecycle.len();
    while remaining.load(Ordering::Acquire) > 0 {
        let mut progressed = false;
        for p in 0..nparts {
            if lifecycle[p]
                .compare_exchange(PENDING, RUNNING, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
            {
                continue;
            }
            // This worker now owns partition p's queue head.
            loop {
                let h = heads[p].load(Ordering::Acquire);
                if h >= plan.queues[p].len() {
                    lifecycle[p].store(IDLE, Ordering::Release);
                    break;
                }
                let step = plan.queues[p][h];
                let i = step.tx;
                let tx = &txs[i];
                let rw = &plan.rws[i];
                match step.kind {
                    StepKind::Solo | StepKind::Validate => {
                        let outcome = {
                            let mut guard = slots[p].lock().expect("partition slot");
                            exec.run_validate_step(&mut guard, tx, rw, map, p)
                        };
                        outcome_cells[i].store(encode(outcome), Ordering::Release);
                        heads[p].fetch_add(1, Ordering::AcqRel);
                        remaining.fetch_sub(1, Ordering::AcqRel);
                        progressed = true;
                    }
                    StepKind::Credit => {
                        let cell = outcome_cells[i].load(Ordering::Acquire);
                        if cell == OC_UNSET {
                            // The validate step has not run yet: hand the
                            // partition back and look for other work.
                            lifecycle[p].store(PENDING, Ordering::Release);
                            break;
                        }
                        if cell == OC_APPLIED {
                            let mut guard = slots[p].lock().expect("partition slot");
                            exec.run_credit_step(&mut guard, tx, rw, map, p);
                        }
                        heads[p].fetch_add(1, Ordering::AcqRel);
                        remaining.fetch_sub(1, Ordering::AcqRel);
                        progressed = true;
                    }
                    StepKind::Gang => {
                        let parts = match &plan.plans[i] {
                            TxPlan::Gang { parts } => parts,
                            _ => unreachable!("gang step without gang plan"),
                        };
                        // The minimum involved partition owns the gang; other
                        // partitions simply wait (their head is advanced by
                        // the owner once the step ran).
                        if p != parts[0] {
                            lifecycle[p].store(PENDING, Ordering::Release);
                            break;
                        }
                        let ready = parts.iter().all(|&q| {
                            let hq = heads[q].load(Ordering::Acquire);
                            hq < plan.queues[q].len()
                                && plan.queues[q][hq]
                                    == Step {
                                        tx: i,
                                        kind: StepKind::Gang,
                                    }
                        });
                        if !ready {
                            lifecycle[p].store(PENDING, Ordering::Release);
                            break;
                        }
                        // Every involved partition has drained all earlier
                        // steps, and only this worker may execute their head
                        // steps — locking ascending is uncontended and safe.
                        {
                            let mut view = GangView::lock(map, parts, slots);
                            let outcome = exec.run_full(&mut view, tx, rw);
                            outcome_cells[i].store(encode(outcome), Ordering::Release);
                        }
                        for &q in parts {
                            heads[q].fetch_add(1, Ordering::AcqRel);
                            remaining.fetch_sub(1, Ordering::AcqRel);
                        }
                        progressed = true;
                    }
                }
            }
        }
        if !progressed {
            std::thread::yield_now();
        }
    }
}

/// A write view over the locked partitions of one gang step, routing every
/// account to its owning partition's store.
struct GangView<'guard, 'store> {
    map: PartitionMap,
    guards: Vec<(usize, MutexGuard<'guard, &'store mut AccountStore>)>,
}

impl<'guard, 'store> GangView<'guard, 'store> {
    fn lock(
        map: PartitionMap,
        parts: &[usize],
        slots: &'guard [Mutex<&'store mut AccountStore>],
    ) -> Self {
        // `parts` is sorted ascending, so lock acquisition is totally
        // ordered across any concurrent gangs.
        let guards = parts
            .iter()
            .map(|&q| (q, slots[q].lock().expect("partition slot")))
            .collect();
        Self { map, guards }
    }

    fn slot_of(&self, id: AccountId) -> Option<usize> {
        let p = self.map.partition_of(id);
        self.guards.iter().position(|(q, _)| *q == p)
    }
}

impl StateRead for GangView<'_, '_> {
    fn account(&self, id: AccountId) -> Option<&Account> {
        let idx = self.slot_of(id)?;
        self.guards[idx].1.account(id)
    }

    fn is_frozen(&self, id: AccountId) -> bool {
        self.slot_of(id)
            .is_some_and(|idx| self.guards[idx].1.is_frozen(id))
    }
}

impl StateWrite for GangView<'_, '_> {
    fn create_account(&mut self, id: AccountId, owner: ClientId, balance: u64) {
        let idx = self.slot_of(id).expect("gang partition present");
        self.guards[idx].1.create_account(id, owner, balance);
    }

    fn debit(&mut self, id: AccountId, requester: ClientId, amount: u64) -> Result<()> {
        let idx = self.slot_of(id).expect("gang partition present");
        self.guards[idx].1.debit(id, requester, amount)
    }

    fn credit(&mut self, id: AccountId, amount: u64) -> Result<()> {
        let idx = self.slot_of(id).expect("gang partition present");
        self.guards[idx].1.credit(id, amount)
    }

    // Reshard batches are forced down the serial apply path by the replica
    // (a pure function of batch content, identical in every exec mode), so
    // a gang step can never carry a freeze or handover.
    fn set_frozen(&mut self, _start: u64, _len: u64) {
        unreachable!("reshard operations never run as gang steps");
    }

    fn clear_frozen(&mut self) {
        unreachable!("reshard operations never run as gang steps");
    }

    fn remove_account(&mut self, id: AccountId) -> Option<Account> {
        let _ = id;
        unreachable!("reshard operations never run as gang steps");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Partitioner;
    use sharper_common::{ClientId, ClusterId, TxId};

    const APS: u64 = 2_000;

    fn exec() -> Executor {
        Executor::new(ClusterId(0), Partitioner::range(1, APS))
    }

    fn stores(partitions: usize) -> (AccountStore, PartitionedStore) {
        let e = exec();
        let flat = e.genesis_store(APS, 10_000, ClientId);
        let split = e.genesis_partitioned(partitions, APS, 10_000, ClientId);
        (flat, split)
    }

    fn transfer(seq: u64, from: u64, to: u64, amount: u64) -> Arc<Transaction> {
        Arc::new(Transaction::transfer(
            ClientId(from),
            seq,
            sharper_common::AccountId(from),
            sharper_common::AccountId(to),
            amount,
        ))
    }

    /// A deterministic pseudo-random stream (SplitMix64) so the differential
    /// tests cover many shapes without external crates.
    struct Mix(u64);
    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    fn random_batch(seed: u64, len: usize, accounts: u64) -> Vec<Arc<Transaction>> {
        let mut rng = Mix(seed);
        (0..len)
            .map(|seq| {
                let from = rng.next() % accounts;
                let to = rng.next() % accounts;
                // Mix in over-draws and self-transfers so aborts occur too.
                let amount = if rng.next().is_multiple_of(7) {
                    1_000_000
                } else {
                    1 + rng.next() % 50
                };
                transfer(seq as u64, from, to, amount)
            })
            .collect()
    }

    fn assert_identical_to_serial(
        batch: &[Arc<Transaction>],
        partitions: usize,
        exec_threads: usize,
    ) {
        let e = exec();
        let (mut flat, mut split) = stores(partitions);
        let serial = e.apply_batch(&mut flat, batch);
        let parallel = e.apply_batch_partitioned(&mut split, batch, exec_threads);
        assert_eq!(
            serial, parallel.outcomes,
            "outcomes differ at {partitions} partitions × {exec_threads} threads"
        );
        assert_eq!(
            split.to_store(),
            flat,
            "state differs at {partitions} partitions × {exec_threads} threads"
        );
    }

    #[test]
    fn plan_classifies_solo_split_and_gang() {
        let e = exec();
        let map = PartitionMap::new(4, (APS / 4).max(1));
        // Solo: both accounts in partition 0.
        // Split: source in partition 0, credit in partition 2.
        // Gang: a two-op transaction reading partitions 1 and 3.
        let gang_tx = Arc::new(Transaction::new(
            TxId::new(ClientId(600), 2),
            vec![
                crate::Operation::Transfer {
                    from: sharper_common::AccountId(600),
                    to: sharper_common::AccountId(601),
                    amount: 1,
                },
                crate::Operation::Read {
                    account: sharper_common::AccountId(1_700),
                },
            ],
        ));
        let batch = vec![transfer(0, 10, 20, 1), transfer(1, 30, 1_200, 1), gang_tx];
        let plan = ExecPlan::build(&e, map, &batch);
        assert_eq!(plan.plans[0], TxPlan::Solo { part: 0 });
        assert_eq!(
            plan.plans[1],
            TxPlan::Split {
                vpart: 0,
                credit_parts: vec![2],
            }
        );
        assert_eq!(plan.plans[2], TxPlan::Gang { parts: vec![1, 3] });
        assert_eq!(plan.total_steps(), 1 + 2 + 2);
        assert_eq!(plan.active_partitions(), 4);
        // Solo(3) then Split's validate(2) serialise on partition 0; the
        // split credit lands on partition 2 one unit later; the gang needs
        // partitions 1 and 3 which are otherwise empty.
        assert_eq!(plan.serial_units(), 3 * TX_UNITS);
        assert_eq!(plan.makespan_units(), 6);
    }

    #[test]
    fn trivial_credit_and_not_local_transactions_are_preset() {
        // Shard 0 of 2 under range(2, 100): accounts [0, 100).
        let e = Executor::new(ClusterId(0), Partitioner::range(2, 100));
        let map = PartitionMap::new(2, 50);
        let batch = vec![
            // Source remote, destination local: trivial credit.
            transfer(0, 150, 10, 1),
            // Entirely remote.
            transfer(1, 150, 160, 1),
        ];
        let plan = ExecPlan::build(&e, map, &batch);
        assert_eq!(
            plan.plans[0],
            TxPlan::TrivialCredits {
                credit_parts: vec![0],
            }
        );
        assert_eq!(plan.preset[0], Some(ExecutionOutcome::Applied));
        assert_eq!(plan.plans[1], TxPlan::NotLocal);
        assert_eq!(plan.preset[1], Some(ExecutionOutcome::NotLocal));
        assert_eq!(plan.total_steps(), 1);
    }

    #[test]
    fn conflicting_transactions_stay_in_consensus_order() {
        // Three transfers draining the same source account: only the first
        // two can succeed, and which two depends entirely on batch order.
        let batch = vec![
            transfer(0, 10, 1_500, 6_000),
            transfer(1, 10, 700, 6_000),
            transfer(2, 10, 1_999, 4_000),
        ];
        for partitions in [1usize, 2, 4] {
            for threads in [1usize, 2, 4] {
                let e = exec();
                let (_, mut split) = stores(partitions);
                let result = e.apply_batch_partitioned(&mut split, &batch, threads);
                assert_eq!(
                    result.outcomes,
                    vec![
                        ExecutionOutcome::Applied,
                        ExecutionOutcome::Aborted,
                        ExecutionOutcome::Applied,
                    ],
                    "{partitions}p × {threads}t"
                );
            }
        }
    }

    #[test]
    fn cross_partition_transfer_ordering_is_serial() {
        // tx0 credits account 1500 (partition 3) from partition 0; tx1 then
        // spends from account 1500. Serially tx1 sees the credit; the
        // schedule must preserve that dependency across partitions.
        let batch = vec![
            transfer(0, 10, 1_500, 5_000),
            // Account 1500 starts with 10_000; after the credit it has
            // 15_000, so a 12_000 spend only works if the credit landed.
            transfer(1, 1_500, 20, 12_000),
        ];
        for partitions in [1usize, 2, 4, 8] {
            for threads in [1usize, 2, 4] {
                assert_identical_to_serial(&batch, partitions, threads);
                let e = exec();
                let (_, mut split) = stores(partitions);
                let result = e.apply_batch_partitioned(&mut split, &batch, threads);
                assert_eq!(
                    result.outcomes,
                    vec![ExecutionOutcome::Applied, ExecutionOutcome::Applied],
                    "{partitions}p × {threads}t"
                );
            }
        }
    }

    #[test]
    fn random_batches_match_serial_apply_bit_for_bit() {
        for seed in 0..8u64 {
            let batch = random_batch(seed, 64, APS);
            for partitions in [1usize, 2, 4, 8] {
                for threads in [1usize, 2, 4] {
                    assert_identical_to_serial(&batch, partitions, threads);
                }
            }
        }
    }

    #[test]
    fn hot_key_skew_matches_serial_apply() {
        // Every transaction touches account 0: maximal conflicts, the
        // schedule degenerates to (mostly) serial but must stay correct.
        let mut rng = Mix(0xD06);
        let batch: Vec<Arc<Transaction>> = (0..48)
            .map(|seq| {
                if seq % 2 == 0 {
                    transfer(seq, 0, 1 + rng.next() % (APS - 1), 1 + rng.next() % 20)
                } else {
                    transfer(seq, 1 + rng.next() % (APS - 1), 0, 1 + rng.next() % 20)
                }
            })
            .collect();
        for partitions in [2usize, 4, 8] {
            for threads in [2usize, 4] {
                assert_identical_to_serial(&batch, partitions, threads);
            }
        }
    }

    #[test]
    fn split_schedule_beats_serial_on_uniform_batches() {
        // The acceptance-criteria shape: a 16-tx uniform batch at 4
        // partitions must have a critical path at least 1.5× shorter than
        // serial execution.
        let e = exec();
        let map = PartitionMap::new(4, APS / 4);
        let batch = random_batch(0x5EED, 16, APS);
        let plan = ExecPlan::build(&e, map, &batch);
        assert_eq!(plan.serial_units(), 16 * TX_UNITS);
        assert!(
            plan.serial_units() as f64 / plan.makespan_units() as f64 >= 1.5,
            "makespan {} vs serial {}",
            plan.makespan_units(),
            plan.serial_units()
        );
    }

    #[test]
    fn gang_transactions_apply_atomically_across_partitions() {
        // One transaction whose two transfers read partitions 0 and 2.
        let tx = Arc::new(Transaction::new(
            TxId::new(ClientId(10), 0),
            vec![
                crate::Operation::Transfer {
                    from: sharper_common::AccountId(10),
                    to: sharper_common::AccountId(1_010),
                    amount: 100,
                },
                crate::Operation::Transfer {
                    from: sharper_common::AccountId(10),
                    to: sharper_common::AccountId(11),
                    amount: 50,
                },
            ],
        ));
        // Owner mismatch: client 10 does not own account 1010, so a second
        // gang transaction aborts without a trace.
        let bad = Arc::new(Transaction::new(
            TxId::new(ClientId(10), 1),
            vec![
                crate::Operation::Transfer {
                    from: sharper_common::AccountId(1_010),
                    to: sharper_common::AccountId(12),
                    amount: 1,
                },
                crate::Operation::Read {
                    account: sharper_common::AccountId(10),
                },
            ],
        ));
        let batch = vec![tx, bad];
        for threads in [1usize, 2, 4] {
            let e = exec();
            let (mut flat, mut split) = stores(4);
            let serial = e.apply_batch(&mut flat, &batch);
            let result = e.apply_batch_partitioned(&mut split, &batch, threads);
            assert_eq!(serial, result.outcomes);
            assert_eq!(
                result.outcomes,
                vec![ExecutionOutcome::Applied, ExecutionOutcome::Aborted]
            );
            assert_eq!(split.to_store(), flat);
            assert_eq!(
                split.balance(sharper_common::AccountId(1_010)),
                Some(10_100)
            );
        }
    }

    #[test]
    fn empty_and_single_partition_batches_run_sequentially() {
        let e = exec();
        let (_, mut split) = stores(1);
        let result = e.apply_batch_partitioned(&mut split, &[], 4);
        assert!(result.outcomes.is_empty());
        assert_eq!(result.makespan_units, 0);
        let batch = vec![transfer(0, 1, 2, 5)];
        let result = e.apply_batch_partitioned(&mut split, &batch, 4);
        assert_eq!(result.outcomes, vec![ExecutionOutcome::Applied]);
        // One partition: the schedule is exactly serial.
        assert_eq!(result.makespan_units, result.serial_units);
    }
}
