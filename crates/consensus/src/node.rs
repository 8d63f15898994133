//! The phase-stepped binary consensus state machine.
//!
//! One [`ConsensusNode`] holds the pure protocol logic — no I/O, no BRB: it consumes
//! delivered [`RoundMsg`]s and harness [`ControlOp`]s, and returns the round-messages
//! to broadcast next. [`crate::ConsensusEngine`] owns the mapping onto BRB instances.
//!
//! The round structure is the safe binary consensus of Mostéfaoui–Moumen–Raynal (the
//! core of DBFT), phase-stepped so that the harness closes each phase only at global
//! BRB quiescence:
//!
//! 1. **BV phase** — every process BV-broadcasts `EST(r, est)`. Monotone in-round
//!    rules: a value seen from `f + 1` distinct senders is echoed (so it originated
//!    at a correct process), and a value seen from `2f + 1` distinct senders enters
//!    `bin_values` (so every correct process eventually has it).
//! 2. **AUX phase** (on [`ControlOp::CloseBv`]) — broadcast a single `AUX(r, w)` with
//!    `w = est` if `est ∈ bin_values`, else the smallest member of `bin_values`.
//! 3. **Decide** (on [`ControlOp::CloseRound`]) — over the *validated* `AUX` votes
//!    (vote value must be in the receiver's own `bin_values`, which defeats a
//!    consensus-level value-flipper) from at least `n − f` distinct senders: if all
//!    vote `b`, adopt `est = b` and **decide** `b` when the common coin of the round
//!    equals `b`; if both values appear, adopt `est = coin(r)`. Then enter round
//!    `r + 1` and BV-broadcast the new estimate. Decided processes keep
//!    participating so the others can finish.
//!
//! Because every input is a BRB delivery and phases close only at global quiescence,
//! all correct processes evaluate each close over *identical* delivery sets
//! (BRB-Totality): their `bin_values`, validated vote multisets and therefore their
//! decisions are lockstep-identical — the same decision value in the same round on
//! every backend, which is what `tests/consensus_cross_backend.rs` pins.

use std::collections::{BTreeMap, BTreeSet};

use brb_core::types::ProcessId;

use crate::codec::{ControlOp, RoundMsg};
use crate::{common_coin, Decision};

/// Per-round bookkeeping (kept per round until the node is dropped; rounds are few).
#[derive(Debug, Default)]
struct RoundState {
    /// Distinct senders seen for `EST(r, v)`, per value `v`.
    est_senders: [BTreeSet<ProcessId>; 2],
    /// Slots already broadcast by this node (EST 0, EST 1, AUX) — guards against
    /// double-minting the same BRB instance id.
    sent: [bool; 3],
    /// Values with `2f + 1` distinct `EST` senders (the BV-broadcast output set).
    bin_values: [bool; 2],
    /// First `AUX` vote seen per sender (BRB-Agreement gives at most one payload per
    /// instance, so a later different vote can only be a replay and is ignored).
    aux: BTreeMap<ProcessId, u8>,
}

/// Rough footprint of an empty [`RoundState`], of one `est_senders` member and of one
/// `aux` vote, in bytes.
const ROUND_BYTES: usize = 64;
const EST_SENDER_BYTES: usize = 8;
const AUX_VOTE_BYTES: usize = 16;

/// Looks up the bookkeeping of `round`, creating (and counting) it on first use.
fn round_entry<'a>(
    rounds: &'a mut BTreeMap<u32, RoundState>,
    round_bytes: &mut usize,
    round: u32,
) -> &'a mut RoundState {
    rounds.entry(round).or_insert_with(|| {
        *round_bytes += ROUND_BYTES;
        RoundState::default()
    })
}

/// Pure state machine for one process's binary consensus instance.
#[derive(Debug)]
pub struct ConsensusNode {
    n: usize,
    f: usize,
    /// The value this process proposes in round 0.
    proposal: u8,
    /// Consensus-level Byzantine value-flipper: every outgoing round-message carries
    /// the complement of what the honest rules dictate (consistently in payload and
    /// instance slot, so the BRB layer below remains honest and delivers everywhere).
    flip: bool,
    coin_seed: u64,
    max_rounds: u32,
    round: u32,
    est: u8,
    started: bool,
    decided: Option<Decision>,
    rounds: BTreeMap<u32, RoundState>,
    /// Running footprint of `rounds` (rounds are never retired, so it only grows).
    round_bytes: usize,
}

impl ConsensusNode {
    /// Creates a node proposing `proposal`, flipping outgoing values if `flip`.
    pub fn new(
        n: usize,
        f: usize,
        proposal: u8,
        flip: bool,
        coin_seed: u64,
        max_rounds: u32,
    ) -> Self {
        Self {
            n,
            f,
            proposal: proposal & 1,
            flip,
            coin_seed,
            max_rounds,
            round: 0,
            est: proposal & 1,
            started: false,
            decided: None,
            rounds: BTreeMap::new(),
            round_bytes: 0,
        }
    }

    /// The decision reached so far, if any.
    pub fn decided(&self) -> Option<Decision> {
        self.decided
    }

    /// The round this node is currently in.
    pub fn round(&self) -> u32 {
        self.round
    }

    /// The current estimate.
    pub fn est(&self) -> u8 {
        self.est
    }

    /// Rough number of bytes of consensus state held (adds to the engine's proxy).
    pub fn state_bytes(&self) -> usize {
        self.round_bytes + std::mem::size_of::<Self>()
    }

    /// Applies a harness control operation, returning the round-messages to broadcast.
    pub fn on_control(&mut self, op: ControlOp) -> Vec<RoundMsg> {
        match op {
            ControlOp::Propose => {
                if self.started {
                    return Vec::new();
                }
                self.started = true;
                self.est = self.proposal;
                self.emit_est(0, self.proposal)
            }
            ControlOp::CloseBv(round) => {
                if round != self.round || !self.started {
                    return Vec::new();
                }
                let state = round_entry(&mut self.rounds, &mut self.round_bytes, round);
                if state.sent[2] {
                    return Vec::new();
                }
                let est = self.est as usize;
                let vote = if state.bin_values[est] {
                    self.est
                } else if state.bin_values[0] {
                    0
                } else if state.bin_values[1] {
                    1
                } else {
                    // Unreachable at a correctly-timed close (quiescence guarantees a
                    // non-empty bin_values); fall back to the estimate defensively.
                    self.est
                };
                state.sent[2] = true;
                vec![self.outgoing(RoundMsg::Aux { round, value: vote })]
            }
            ControlOp::CloseRound(round) => {
                if round != self.round || !self.started {
                    return Vec::new();
                }
                let state = round_entry(&mut self.rounds, &mut self.round_bytes, round);
                let mut values = BTreeSet::new();
                let mut validated = 0usize;
                for (&_sender, &v) in &state.aux {
                    if state.bin_values[v as usize] {
                        validated += 1;
                        values.insert(v);
                    }
                }
                if validated < self.n - self.f {
                    // Close arrived before the AUX fixpoint; a correctly-timed close
                    // (issued at quiescence) always sees >= n - f validated votes.
                    return Vec::new();
                }
                let coin = common_coin(self.coin_seed, round);
                if values.len() == 1 {
                    let b = *values.iter().next().expect("non-empty");
                    self.est = b;
                    if b == coin && self.decided.is_none() {
                        self.decided = Some(Decision { value: b, round });
                    }
                } else {
                    self.est = coin;
                }
                self.round = round + 1;
                if self.round >= self.max_rounds {
                    return Vec::new();
                }
                self.emit_est(self.round, self.est)
            }
        }
    }

    /// Accounts one BRB delivery, returning the round-messages to broadcast (echoes).
    pub fn on_delivery(&mut self, sender: ProcessId, msg: RoundMsg) -> Vec<RoundMsg> {
        match msg {
            RoundMsg::Est { round, value } => {
                let f = self.f;
                let state = round_entry(&mut self.rounds, &mut self.round_bytes, round);
                if state.est_senders[value as usize].insert(sender) {
                    self.round_bytes += EST_SENDER_BYTES;
                }
                let senders = state.est_senders[value as usize].len();
                // `> 2f` / `> f` are the paper's `>= 2f + 1` / `>= f + 1` thresholds.
                if senders > 2 * f {
                    state.bin_values[value as usize] = true;
                }
                if senders > f && !state.sent[value as usize] {
                    // f + 1 distinct senders means at least one correct process
                    // estimates `value`: echo it so every correct process converges.
                    return self.emit_est(round, value);
                }
                Vec::new()
            }
            RoundMsg::Aux { round, value } => {
                let state = round_entry(&mut self.rounds, &mut self.round_bytes, round);
                state.aux.entry(sender).or_insert_with(|| {
                    self.round_bytes += AUX_VOTE_BYTES;
                    value
                });
                Vec::new()
            }
        }
    }

    /// Emits `EST(round, value)` once, marking the slot sent under the *honest* value
    /// (a flipper swaps the wire value, so its two honest slots map onto the two wire
    /// slots bijectively and no instance id is ever minted twice).
    fn emit_est(&mut self, round: u32, value: u8) -> Vec<RoundMsg> {
        let state = round_entry(&mut self.rounds, &mut self.round_bytes, round);
        if state.sent[value as usize] {
            return Vec::new();
        }
        state.sent[value as usize] = true;
        vec![self.outgoing(RoundMsg::Est { round, value })]
    }

    /// Applies the value-flipper to an outgoing message.
    fn outgoing(&self, msg: RoundMsg) -> RoundMsg {
        if !self.flip {
            return msg;
        }
        match msg {
            RoundMsg::Est { round, value } => RoundMsg::Est {
                round,
                value: 1 - value,
            },
            RoundMsg::Aux { round, value } => RoundMsg::Aux {
                round,
                value: 1 - value,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est(round: u32, value: u8) -> RoundMsg {
        RoundMsg::Est { round, value }
    }

    /// The walk the running total replaced: every round, vote and sender set.
    fn walk_state(node: &ConsensusNode) -> usize {
        node.rounds
            .values()
            .map(|r| {
                64 + r.aux.len() * 16 + r.est_senders.iter().map(|s| s.len() * 8).sum::<usize>()
            })
            .sum::<usize>()
            + std::mem::size_of::<ConsensusNode>()
    }

    #[test]
    fn running_state_bytes_match_the_walk_after_every_input() {
        let n = 4;
        let mut node = ConsensusNode::new(n, 1, 1, false, 9, 8);
        assert_eq!(node.state_bytes(), walk_state(&node));
        node.on_control(ControlOp::Propose);
        assert_eq!(node.state_bytes(), walk_state(&node));
        for round in 0..3 {
            for s in 0..n {
                // Both values, each sender twice: duplicates must not be re-counted.
                for value in [1, 1, 0] {
                    node.on_delivery(s, est(round, value));
                    assert_eq!(node.state_bytes(), walk_state(&node));
                }
            }
            node.on_control(ControlOp::CloseBv(round));
            assert_eq!(node.state_bytes(), walk_state(&node));
            for s in 0..n {
                // A replayed, different vote from the same sender is ignored.
                for value in [1, 0] {
                    node.on_delivery(s, RoundMsg::Aux { round, value });
                    assert_eq!(node.state_bytes(), walk_state(&node));
                }
            }
            // A delivery for a round not entered yet opens (and counts) its state.
            node.on_delivery(0, est(round + 5, 0));
            assert_eq!(node.state_bytes(), walk_state(&node));
            node.on_control(ControlOp::CloseRound(round));
            assert_eq!(node.state_bytes(), walk_state(&node));
        }
        assert!(node.round() >= 1, "the rounds advanced");
    }

    #[test]
    fn echoes_on_f_plus_one_and_fills_bin_values_on_two_f_plus_one() {
        // n = 7, f = 2: echo at 3 distinct senders, bin_values at 5.
        let mut node = ConsensusNode::new(7, 2, 0, false, 0, 32);
        assert_eq!(node.on_control(ControlOp::Propose), vec![est(0, 0)]);
        assert!(node.on_delivery(1, est(0, 1)).is_empty());
        assert!(node.on_delivery(2, est(0, 1)).is_empty());
        // Third distinct sender of EST(0, 1) triggers the echo.
        assert_eq!(node.on_delivery(3, est(0, 1)), vec![est(0, 1)]);
        // Echo is emitted once, even if more senders arrive.
        assert!(node.on_delivery(4, est(0, 1)).is_empty());
        assert!(node.on_delivery(5, est(0, 1)).is_empty());
        // Five distinct senders: CloseBv now votes for 1 (est 0 never made it).
        assert_eq!(
            node.on_control(ControlOp::CloseBv(0)),
            vec![RoundMsg::Aux { round: 0, value: 1 }]
        );
    }

    #[test]
    fn unanimous_validated_votes_decide_when_the_coin_agrees() {
        let n = 4;
        let f = 1;
        let seed = 9;
        let mut node = ConsensusNode::new(n, f, 1, false, seed, 32);
        node.on_control(ControlOp::Propose);
        let mut round = 0;
        while node.decided().is_none() {
            for s in 0..n {
                node.on_delivery(s, est(round, 1));
            }
            node.on_control(ControlOp::CloseBv(round));
            for s in 0..n {
                node.on_delivery(s, RoundMsg::Aux { round, value: 1 });
            }
            node.on_control(ControlOp::CloseRound(round));
            assert_eq!(
                node.est(),
                1,
                "validity: est never leaves the unanimous value"
            );
            round += 1;
            assert!(round < 32, "coin must eventually agree");
        }
        let decision = node.decided().expect("decided");
        assert_eq!(decision.value, 1);
        assert_eq!(common_coin(seed, decision.round), 1);
    }

    #[test]
    fn flipper_votes_are_invalidated_by_the_bin_values_check() {
        // Receiver with bin_values = {1} only: a flipped AUX(0) must not count.
        let n = 4;
        let f = 1;
        let mut node = ConsensusNode::new(n, f, 1, false, 0, 32);
        node.on_control(ControlOp::Propose);
        for s in 0..n {
            node.on_delivery(s, est(0, 1));
        }
        node.on_control(ControlOp::CloseBv(0));
        // Three honest votes for 1, one flipped vote for 0 (0 is not in bin_values).
        for s in 0..3 {
            node.on_delivery(s, RoundMsg::Aux { round: 0, value: 1 });
        }
        node.on_delivery(3, RoundMsg::Aux { round: 0, value: 0 });
        node.on_control(ControlOp::CloseRound(0));
        // The flipped vote was discarded: the validated set is {1} from 3 = n - f
        // senders, so est stays 1 and the round advances.
        assert_eq!(node.est(), 1);
        assert_eq!(node.round(), 1);
    }

    #[test]
    fn flipper_outgoing_values_are_complemented_in_payload_and_slot() {
        let mut node = ConsensusNode::new(4, 1, 0, true, 0, 32);
        let out = node.on_control(ControlOp::Propose);
        assert_eq!(out, vec![est(0, 1)], "flipper proposes the complement");
        // Honest echo of value 1 leaves the flipper's wire as value 0: the two honest
        // slots map onto the two wire slots without collision.
        node.on_delivery(1, est(0, 1));
        let out = node.on_delivery(2, est(0, 1));
        assert_eq!(
            out,
            vec![est(0, 0)],
            "echo of 1 leaves the flipper flipped to 0"
        );
    }

    #[test]
    fn split_validated_votes_adopt_the_coin() {
        let n = 4;
        let f = 1;
        let seed = 3;
        let mut node = ConsensusNode::new(n, f, 0, false, seed, 32);
        node.on_control(ControlOp::Propose);
        for s in 0..n {
            node.on_delivery(s, est(0, s as u8 & 1));
            node.on_delivery((s + 1) % n, est(0, s as u8 & 1));
            node.on_delivery((s + 2) % n, est(0, s as u8 & 1));
        }
        node.on_control(ControlOp::CloseBv(0));
        for s in 0..n {
            node.on_delivery(
                s,
                RoundMsg::Aux {
                    round: 0,
                    value: s as u8 & 1,
                },
            );
        }
        node.on_control(ControlOp::CloseRound(0));
        assert_eq!(
            node.est(),
            common_coin(seed, 0),
            "both values seen: adopt the coin"
        );
        assert!(node.decided().is_none());
    }
}
