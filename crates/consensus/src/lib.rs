//! Safe binary Byzantine consensus on top of Byzantine reliable broadcast.
//!
//! The paper's BRB stacks (`brb-core`) give every process a reliable broadcast
//! primitive on a partially connected network; this crate closes the classic loop and
//! builds **binary consensus** from it, DBFT-style (Crain–Gramoli–Larrea–Raynal;
//! Mostéfaoui–Moumen–Raynal's safe rounds with a common coin): each round runs a
//! BV-broadcast of binary estimates, an `AUX` vote exchange, and a deterministic
//! seeded common coin that breaks ties. **Every round-message is carried by a fresh
//! BRB instance** of whatever [`brb_core::stack::StackSpec`] engine the host chose —
//! consensus consumes BRB deliveries as its *only* input, so it inherits the
//! BRB guarantees (totality, agreement, no-duplicity) of the stack below it,
//! including on partially connected topologies where plain Bracha cannot run.
//!
//! ```text
//!   harness control ops           client payloads
//!   (Propose / CloseBv /          (plain broadcast_wire,
//!    CloseRound)                   NAMESPACE_CLIENT)
//!        │                              │
//!        ▼                              │ pass-through
//!  ┌───────────────────────────────┐    │
//!  │ ConsensusEngine (DynEngine)   │    │
//!  │  ConsensusNode: est /         │    │
//!  │  bin_values / aux / decide    │    │
//!  │    ▲ deliveries     │ EST/AUX │    │
//!  │    │                ▼ (new BRB│    │
//!  │    │   broadcast_wire_seq,    │    │
//!  │    │   NAMESPACE_CONSENSUS)   │    │
//!  └────┼────────────────┼─────────┘    │
//!       │                ▼              ▼
//!  ┌───────────────────────────────────────┐
//!  │ any BRB stack (Bd, Bracha⋅RoutedDolev,│
//!  │ Bracha⋅CPA, Bracha, …)                │
//!  └───────────────────────────────────────┘
//!                 │ frames
//!                 ▼  sim / channel runtime / TCP
//! ```
//!
//! The protocol is **phase-stepped**: the harness (the simulator's `run_consensus`,
//! or the live drivers' `drive_consensus`) closes each phase only once the network
//! is quiescent, by injecting [`ControlOp`]s through the ordinary broadcast entry
//! point. Because all consensus inputs are BRB deliveries evaluated at global
//! fixpoints, every correct process sees identical delivery sets at each close — so
//! decisions are lockstep-deterministic: the same value in the same round, on every
//! backend, for a given seed.
//!
//! # Quickstart
//!
//! Four processes over plain Bracha on a complete graph, proposing unanimously:
//!
//! ```
//! use brb_consensus::{close_bv_payload, close_round_payload, propose_payload};
//! use brb_consensus::{ConsensusEngine, ConsensusSpec, ProposalPattern};
//! use brb_core::config::Config;
//! use brb_core::stack::{DynEngine, StackSpec, WireAction, WireActionBuf};
//!
//! fn drain(from: usize, buf: &mut WireActionBuf, wires: &mut Vec<(usize, WireAction)>) {
//!     wires.extend(buf.drain().map(|a| (from, a)));
//! }
//!
//! /// Shuttle frames until the network is quiescent.
//! fn quiesce(nodes: &mut [ConsensusEngine], wires: &mut Vec<(usize, WireAction)>) {
//!     let mut buf = WireActionBuf::new();
//!     while let Some((from, action)) = wires.pop() {
//!         if let WireAction::Send { to, frame, .. } = action {
//!             nodes[to].handle_frame(from, &frame, &mut buf);
//!             drain(to, &mut buf, wires);
//!         }
//!     }
//! }
//!
//! let (n, f) = (4, 1);
//! let graph = brb_graph::generate::complete(n);
//! let config = Config::plain(n, f);
//! let spec = ConsensusSpec::default().with_proposals(ProposalPattern::Unanimous(1));
//! let mut nodes: Vec<ConsensusEngine> = (0..n)
//!     .map(|i| ConsensusEngine::new(StackSpec::Bracha.build(&config, &graph, i), n, f, &spec))
//!     .collect();
//! let handles: Vec<_> = nodes.iter().map(|e| e.decision_handle()).collect();
//!
//! let mut wires = Vec::new();
//! let mut buf = WireActionBuf::new();
//! for i in 0..n {
//!     nodes[i].broadcast_wire(propose_payload(), &mut buf);
//!     drain(i, &mut buf, &mut wires);
//! }
//! quiesce(&mut nodes, &mut wires);
//!
//! let mut round = 0;
//! while handles.iter().any(|h| h.get().is_none()) {
//!     for op in [close_bv_payload(round), close_round_payload(round)] {
//!         for i in 0..n {
//!             nodes[i].broadcast_wire(op.clone(), &mut buf);
//!             drain(i, &mut buf, &mut wires);
//!         }
//!         quiesce(&mut nodes, &mut wires);
//!     }
//!     round += 1;
//! }
//!
//! // Validity: everyone proposed 1, so every process decides 1 — in the same round.
//! let first = handles[0].get().unwrap();
//! assert_eq!(first.value, 1);
//! for h in &handles {
//!     assert_eq!(h.get(), Some(first));
//! }
//! ```
//!
//! # Instance namespacing
//!
//! Round-messages are broadcast through
//! [`DynEngine::broadcast_wire_seq`](brb_core::stack::DynEngine::broadcast_wire_seq)
//! with `seq = namespaced_seq(NAMESPACE_CONSENSUS, (round << 2) | slot)` — the
//! engine's own counter (plain broadcasts, workload schedules) lives in
//! [`brb_core::types::NAMESPACE_CLIENT`], so consensus instances can never collide
//! with client ids on the same node (see `brb_core::types::NAMESPACE_SHIFT`).

#![warn(missing_docs)]

use brb_core::types::ProcessId;

pub mod checks;
pub mod codec;
mod engine;
mod node;

pub use codec::{
    close_bv_payload, close_round_payload, propose_payload, ControlOp, RoundMsg, SLOT_AUX,
};
pub use engine::{ConsensusEngine, DecisionHandle};
pub use node::ConsensusNode;

/// A consensus decision: the agreed binary value and the round it was reached in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Decision {
    /// The decided binary value (0 or 1).
    pub value: u8,
    /// The round in which this process decided.
    pub round: u32,
}

/// How initial proposals are assigned across processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProposalPattern {
    /// Every process proposes the same value.
    Unanimous(u8),
    /// Even process ids propose 0, odd ids propose 1.
    Split,
    /// Each process proposes a seeded pseudo-random bit.
    Random(u64),
}

impl ProposalPattern {
    /// The value process `id` proposes under this pattern.
    pub fn value_for(&self, id: ProcessId) -> u8 {
        match *self {
            ProposalPattern::Unanimous(v) => v & 1,
            ProposalPattern::Split => (id % 2) as u8,
            ProposalPattern::Random(seed) => (splitmix64(seed ^ (id as u64)) & 1) as u8,
        }
    }

    /// Canonical name used by CSV labels and CLI flags.
    pub fn name(&self) -> String {
        match *self {
            ProposalPattern::Unanimous(v) => format!("unanimous{}", v & 1),
            ProposalPattern::Split => "split".into(),
            ProposalPattern::Random(seed) => format!("random{seed}"),
        }
    }

    /// Parses a CLI flag value (`unanimous0`, `unanimous1`, `split`, `random<seed>`).
    pub fn parse(s: &str) -> Option<ProposalPattern> {
        match s {
            "unanimous0" => Some(ProposalPattern::Unanimous(0)),
            "unanimous1" => Some(ProposalPattern::Unanimous(1)),
            "split" => Some(ProposalPattern::Split),
            _ => s
                .strip_prefix("random")
                .and_then(|seed| seed.parse().ok())
                .map(ProposalPattern::Random),
        }
    }
}

/// Parameters of one consensus run, threaded through the experiment harnesses.
///
/// System-level parameters (`n`, `f`, the stack, the topology) come from the
/// surrounding experiment configuration; this spec holds the consensus-level knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct ConsensusSpec {
    /// How initial proposals are assigned.
    pub proposals: ProposalPattern,
    /// Processes that run the consensus-level Byzantine value-flipper behaviour
    /// (complement every outgoing round-message, consistently in payload and slot).
    pub flippers: Vec<ProcessId>,
    /// Seed of the deterministic common coin.
    pub coin_seed: u64,
    /// Safety bound on the number of rounds (the coin decides long before this).
    pub max_rounds: u32,
}

impl Default for ConsensusSpec {
    fn default() -> Self {
        Self {
            proposals: ProposalPattern::Split,
            flippers: Vec::new(),
            coin_seed: 0,
            max_rounds: 32,
        }
    }
}

impl ConsensusSpec {
    /// Returns a copy with the proposal pattern replaced.
    pub fn with_proposals(mut self, proposals: ProposalPattern) -> Self {
        self.proposals = proposals;
        self
    }

    /// Returns a copy with the given consensus-level value-flippers.
    pub fn with_flippers(mut self, flippers: Vec<ProcessId>) -> Self {
        self.flippers = flippers;
        self
    }

    /// Returns a copy with the common-coin seed replaced.
    pub fn with_coin_seed(mut self, seed: u64) -> Self {
        self.coin_seed = seed;
        self
    }

    /// Returns a copy with the round safety bound replaced.
    pub fn with_max_rounds(mut self, max_rounds: u32) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// The value process `id` proposes under this spec.
    pub fn proposal_for(&self, id: ProcessId) -> u8 {
        self.proposals.value_for(id)
    }
}

/// The deterministic seeded common coin: every process computes the same bit for a
/// given `(seed, round)`, with no interaction (the paper's model has no cryptography,
/// so a verifiable random beacon is out of scope; a shared seed plays its role).
pub fn common_coin(seed: u64, round: u32) -> u8 {
    (splitmix64(seed ^ (round as u64).wrapping_mul(0xA24B_AED4_963E_E407)) & 1) as u8
}

/// SplitMix64 finalizer — the same deterministic mixer on every platform.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coin_is_pinned_for_the_default_seed() {
        // Cross-backend determinism rests on every process computing these exact bits;
        // pin the first rounds of the default seed so a mixer change cannot slip by.
        let bits: Vec<u8> = (0..8).map(|r| common_coin(0, r)).collect();
        assert_eq!(bits, vec![1, 0, 0, 1, 1, 1, 1, 0]);
        // Both outcomes occur within a few rounds for arbitrary seeds (termination).
        for seed in [0u64, 1, 7, 0xDEAD_BEEF] {
            let first8: Vec<u8> = (0..8).map(|r| common_coin(seed, r)).collect();
            assert!(
                first8.contains(&0) && first8.contains(&1),
                "seed {seed}: {first8:?}"
            );
        }
    }

    #[test]
    fn proposal_patterns_are_deterministic_and_named() {
        assert_eq!(ProposalPattern::Unanimous(1).value_for(12), 1);
        assert_eq!(ProposalPattern::Split.value_for(4), 0);
        assert_eq!(ProposalPattern::Split.value_for(5), 1);
        let r = ProposalPattern::Random(42);
        assert_eq!(r.value_for(3), r.value_for(3));
        for p in [
            ProposalPattern::Unanimous(0),
            ProposalPattern::Unanimous(1),
            ProposalPattern::Split,
            ProposalPattern::Random(42),
        ] {
            assert_eq!(ProposalPattern::parse(&p.name()), Some(p));
        }
        assert_eq!(ProposalPattern::parse("bogus"), None);
    }

    #[test]
    fn spec_builders_compose() {
        let spec = ConsensusSpec::default()
            .with_proposals(ProposalPattern::Random(9))
            .with_flippers(vec![2, 5])
            .with_coin_seed(77)
            .with_max_rounds(8);
        assert_eq!(spec.proposals, ProposalPattern::Random(9));
        assert_eq!(spec.flippers, vec![2, 5]);
        assert_eq!(spec.coin_seed, 77);
        assert_eq!(spec.max_rounds, 8);
        assert_eq!(
            spec.proposal_for(3),
            ProposalPattern::Random(9).value_for(3)
        );
    }
}
