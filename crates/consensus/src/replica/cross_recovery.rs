//! The cross-shard fault paths: the initiator's retries, withdrawals and
//! their retransmission, and the reservation timer with its fate probe.
//!
//! A stalled cross-shard round is resolved here: the initiator re-proposes
//! with a fresh parent hash, yields to a higher-priority initiator, or gives
//! up and withdraws the batch with an `XAbort`; a node holding a reservation
//! too long probes the initiator cluster for the batch's fate.

use super::{node_signer_id, Replica, Reservation};
use crate::messages::{timer_tags, Msg};
use crate::timeouts;
use sharper_common::{ClusterId, Duration, FailureModel, NodeId, TraceKind};
use sharper_crypto::{Digest, Signature};
use sharper_net::{ActorId, Context, TimerId};

/// Retransmission state for an `XAbort` the initiator announced after giving
/// up on a cross-shard batch.
#[derive(Debug, Clone)]
pub(super) struct AbortRetx {
    pub(super) involved: Vec<ClusterId>,
    pub(super) left: u32,
    pub(super) timer: TimerId,
}

impl Replica {
    /// Retry delay for a cross-shard round: [`timeouts::RETRY`] plus a
    /// deterministic jitter in `[0, RETRY/4)` from the batch digest, the
    /// attempt and this node's id. Without it initiators retry in lockstep,
    /// and whole seeds always win or always lose the race against the
    /// conflict timeout (~5× throughput swings). The worst-case give-up
    /// window, 1.25 × RETRY × MAX_RETRIES, stays below the reservation probe
    /// threshold (checked by a config test).
    pub(super) fn retry_delay(&self, d: Digest, attempt: u32) -> Duration {
        let base = timeouts::RETRY;
        let span = (base.as_micros() / 4).max(1);
        let mut h = d
            .short_u64()
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(attempt))
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .wrapping_add(u64::from(self.node.0));
        h ^= h >> 31;
        h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 29;
        base + Duration::from_micros(h % span)
    }

    /// The initiator's retry timer fired: if the batch is still uncommitted,
    /// re-initiate it with a fresh parent hash (§3.2: "the (primary node of)
    /// initiator clusters try to resend their own transactions").
    pub(super) fn handle_retry_timer(&mut self, timer: TimerId, ctx: &mut Context<Msg>) {
        let Some((&d, _)) = self
            .cross
            .iter()
            .find(|(_, r)| r.retry_timer == Some(timer))
        else {
            return;
        };
        let round = self.cross.get_mut(&d).expect("round exists");
        round.retry_timer = None;
        if round.committed || round.sent_commit {
            return;
        }
        let (initiator, attempt) = (round.initiator, round.attempt);
        if self.initiating != Some(d) {
            // This primary yielded; re-initiate now if possible, otherwise
            // check back after another retry interval.
            if initiator != self.cluster {
                return;
            }
            if self.is_blocked() {
                let retry = ctx.set_timer(self.retry_delay(d, attempt), timer_tags::RETRY);
                self.cross.get_mut(&d).expect("round exists").retry_timer = Some(retry);
                return;
            }
            self.initiating = Some(d);
        }
        if attempt >= timeouts::MAX_RETRIES && self.model() == FailureModel::Crash {
            // Give up; the clients retransmit. Safe in the crash model: only
            // the initiator can send the commit, so an abandoned batch never
            // commits behind its back. (A Byzantine initiator keeps retrying:
            // its signed propose and accept are already out.) The withdrawal
            // is announced, because reserved remote *primaries* never release
            // on the conflict timeout, and without the abort their clusters
            // livelock.
            let involved = self.cross.remove(&d).expect("round exists").involved;
            self.initiating = None;
            ctx.trace(|| TraceKind::XAbortSent {
                batch: d.short_u64(),
            });
            self.multicast_abort(d, &involved, ctx);
            // Losing that single copy must not be fatal: retransmit it.
            let timer = ctx.set_timer(
                timeouts::XABORT_RETRANSMIT_INTERVAL,
                timer_tags::XABORT_RETRANSMIT,
            );
            let left = timeouts::XABORT_RETRANSMITS;
            let retx = AbortRetx {
                involved,
                left,
                timer,
            };
            self.abort_retx.insert(d, retx);
            self.process_buffered(ctx);
            return;
        }
        let round = self.cross.get_mut(&d).expect("round exists");
        round.attempt += 1;
        round.accepts.clear();
        round.commit_votes.clear();
        round.parents = None;
        self.stats.retries += 1;
        self.propose_cross(d, ctx);
    }

    /// Announces to every involved node that this initiator withdrew `d`.
    fn multicast_abort(&self, d: Digest, involved: &[ClusterId], ctx: &mut Context<Msg>) {
        let initiator = self.cluster;
        ctx.multicast(
            self.members_of_all_except_self(involved),
            Msg::XAbort { d, initiator },
        );
    }

    /// Withdraws this primary's own initiation so a higher-priority
    /// initiator can progress, unless a foreign cluster already accepted it
    /// (the batch may be committing).
    pub(super) fn yield_initiation(&mut self, own: Digest, ctx: &mut Context<Msg>) {
        let Some(round) = self.cross.get_mut(&own) else {
            self.initiating = None;
            return;
        };
        if round.sent_commit || round.committed {
            return;
        }
        let foreign_accepts = round
            .accepts
            .iter()
            .any(|(cluster, votes)| *cluster != self.cluster && !votes.is_empty());
        if foreign_accepts {
            return;
        }
        // Reset the round; the retry timer re-initiates it later.
        round.accepts.clear();
        round.commit_votes.clear();
        round.parents = None;
        self.initiating = None;
        ctx.trace(|| TraceKind::XAbortSent {
            batch: own.short_u64(),
        });
        self.multicast_abort(own, &self.cross[&own].involved, ctx);
    }

    /// An initiator withdrew its proposal: release the reservation and drop
    /// the round so the slot can be used by other transactions.
    pub(super) fn handle_xabort(
        &mut self,
        d: Digest,
        initiator: ClusterId,
        ctx: &mut Context<Msg>,
    ) {
        ctx.trace(|| TraceKind::XAbortRecv {
            batch: d.short_u64(),
        });
        if self
            .cross
            .get(&d)
            .is_some_and(|round| !round.committed && round.initiator == initiator)
        {
            self.cross.remove(&d);
        }
        // A buffered copy of the withdrawn proposal must go too: replaying it
        // would take a reservation nothing will ever release.
        self.buffered.retain(|(_, msg)| match msg {
            Msg::XPropose {
                batch,
                initiator: proposer,
                ..
            } => !(*proposer == initiator && batch.digest() == d),
            _ => true,
        });
        self.release_reservation_if(d, ctx);
        self.process_buffered(ctx);
    }

    /// An `XAbort` retransmission timer fired: re-announce the withdrawal to
    /// every involved node and re-arm until the budget is spent.
    pub(super) fn handle_xabort_retx_timer(&mut self, timer: TimerId, ctx: &mut Context<Msg>) {
        let Some((&d, _)) = self.abort_retx.iter().find(|(_, st)| st.timer == timer) else {
            return;
        };
        let retx = self.abort_retx.get_mut(&d).expect("entry exists");
        retx.left = retx.left.saturating_sub(1);
        let involved = retx.involved.clone();
        if retx.left == 0 {
            self.abort_retx.remove(&d);
        } else {
            let next = ctx.set_timer(
                timeouts::XABORT_RETRANSMIT_INTERVAL,
                timer_tags::XABORT_RETRANSMIT,
            );
            self.abort_retx.get_mut(&d).expect("entry exists").timer = next;
        }
        ctx.trace(|| TraceKind::Retransmit {
            batch: d.short_u64(),
        });
        self.multicast_abort(d, &involved, ctx);
    }

    /// The held reservation's conflict timer fired before its commit. In the
    /// crash model NO replica releases blindly: its accept vouched a chain
    /// position the initiator may still commit at, so endorsing other work
    /// there could fork. The reservation is renewed instead and, after
    /// enough renewals, the initiator cluster is probed for the batch's fate.
    /// A Byzantine *backup* releases on the timeout (§3.2's pre-determined
    /// time): 2f+1 matching commit votes per cluster keep a stale minority
    /// accept from forking the chain.
    pub(super) fn handle_conflict_timer(&mut self, timer: TimerId, ctx: &mut Context<Msg>) {
        let Some(res) = self.reservation.filter(|res| res.timer == timer) else {
            return;
        };
        let crash = self.model() == FailureModel::Crash;
        if !crash && !self.is_primary() {
            self.reservation = None;
            ctx.trace(|| TraceKind::ReservationRelease {
                batch: res.d.short_u64(),
            });
            self.process_buffered(ctx);
            return;
        }
        let timer = ctx.set_timer(timeouts::CONFLICT, timer_tags::CONFLICT);
        let renewals = res.renewals.saturating_add(1);
        self.reservation = Some(Reservation {
            d: res.d,
            timer,
            renewals,
        });
        // The probe goes to every member: whoever committed the batch
        // retransmits the commit, and the *current* primary (whose view the
        // prober cannot know) answers with an abort if the round is dead.
        if !crash || renewals < timeouts::RESERVATION_PROBE_AFTER {
            return;
        }
        let initiator = self.cross.get(&res.d).map(|round| round.initiator);
        let Some(initiator) = initiator.filter(|c| *c != self.cluster) else {
            return;
        };
        ctx.trace(|| TraceKind::XStatusProbe {
            batch: res.d.short_u64(),
        });
        let members = self
            .cluster_members(initiator)
            .into_iter()
            .map(ActorId::Node);
        let probe = Msg::XStatus {
            d: res.d,
            node: self.node,
        };
        ctx.multicast(members, probe);
    }

    /// A remote replica stuck on a reservation probes for the batch's fate
    /// (crash model).
    pub(super) fn handle_xstatus(&mut self, d: Digest, node: NodeId, ctx: &mut Context<Msg>) {
        if self.model() == FailureModel::Crash {
            self.answer_cross_fate(d, ActorId::Node(node), ctx);
        }
    }

    /// Answers what became of cross-shard batch `d`: a committed batch with
    /// its original commit, an abandoned one with an abort. Batches in flight
    /// need no answer.
    pub(super) fn answer_cross_fate(&mut self, d: Digest, to: ActorId, ctx: &mut Context<Msg>) {
        if let Some(block_digest) = self.cross_blocks.get(&d).copied() {
            if let Some(block) = self.log.ledger().block(block_digest) {
                if let Some(batch) = block.body_batch() {
                    let commit = Msg::XCommit {
                        parents: block.parents.clone(),
                        batch: batch.clone(),
                        node: self.node,
                        sig: Signature::unsigned(node_signer_id(self.node).0),
                    };
                    ctx.send(to, commit);
                    return;
                }
            }
            // The block was pruned behind the watermark, and answering
            // "abort" for a committed batch would be unsafe: stay silent.
            // (Unreachable with retain-all.)
            return;
        }
        if self.cross.contains_key(&d) {
            return;
        }
        // Unknown and not in flight: given up on, or never seen (aborting is
        // safe either way). Only the primary speaks for the cluster.
        if self.is_primary() {
            ctx.trace(|| TraceKind::XAbortSent {
                batch: d.short_u64(),
            });
            let initiator = self.cluster;
            ctx.send(to, Msg::XAbort { d, initiator });
        }
    }
}
