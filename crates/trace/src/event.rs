//! Typed trace events and their vocabulary.

use std::fmt;

/// A process identifier, mirroring `brb_graph::ProcessId` without the dependency.
pub type NodeId = usize;

/// Which harness tier produced an event stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Backend {
    /// Discrete-event simulator (`brb-sim`); timestamps are virtual microseconds.
    Sim,
    /// Thread-per-process channel runtime (`brb-runtime`); wall-clock timestamps.
    Runtime,
    /// TCP loopback deployment (`brb-net`); wall-clock timestamps.
    Tcp,
}

impl Backend {
    /// Stable lower-case label used by the exporters.
    pub fn as_str(self) -> &'static str {
        match self {
            Backend::Sim => "sim",
            Backend::Runtime => "runtime",
            Backend::Tcp => "tcp",
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Why a frame was discarded instead of transmitted or processed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DropCause {
    /// Probabilistic link loss (churn schedule `Degrade` or lossy behavior).
    Loss,
    /// A churn schedule currently severs the link (partition / link-down window).
    ChurnGate,
    /// A Byzantine outbound behavior suppressed the copy (mute, silent-towards, ...).
    Behavior,
    /// The instance was already garbage-collected; ingress frame refused.
    GcRetired,
    /// Destination is not a neighbor of the sending process.
    NonNeighbor,
    /// The frame names a process label outside `0..n`; refused at engine ingress
    /// before any state is created (the sender is necessarily faulty).
    Malformed,
}

impl DropCause {
    /// Every cause, in counter-array order.
    pub const ALL: [DropCause; 6] = [
        DropCause::Loss,
        DropCause::ChurnGate,
        DropCause::Behavior,
        DropCause::GcRetired,
        DropCause::NonNeighbor,
        DropCause::Malformed,
    ];

    /// Stable lower-snake-case label used by the exporters and the CSV.
    pub fn as_str(self) -> &'static str {
        match self {
            DropCause::Loss => "loss",
            DropCause::ChurnGate => "churn_gate",
            DropCause::Behavior => "behavior",
            DropCause::GcRetired => "gc_retired",
            DropCause::NonNeighbor => "non_neighbor",
            DropCause::Malformed => "malformed",
        }
    }

    /// Position of this cause in [`DropCause::ALL`] (and in counter arrays).
    pub fn index(self) -> usize {
        match self {
            DropCause::Loss => 0,
            DropCause::ChurnGate => 1,
            DropCause::Behavior => 2,
            DropCause::GcRetired => 3,
            DropCause::NonNeighbor => 4,
            DropCause::Malformed => 5,
        }
    }
}

impl fmt::Display for DropCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What happened. Protocol phase transitions come from engines, frame events from
/// the hosting tier (simulator scheduler or live link decorators), lifecycle marks
/// from whichever layer owns the transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceEventKind {
    /// A broadcast instance was injected at its source (engine minted the id).
    Injected,
    /// A Dolev instance recorded one more path (direct or relayed).
    PathAccumulated {
        /// Paths accumulated so far for this instance at this node.
        paths: usize,
    },
    /// The Dolev disjoint-path threshold (`f + 1`) was crossed.
    DisjointReached {
        /// Size of the disjoint set that crossed the threshold.
        disjoint: usize,
    },
    /// The Bracha echo quorum was crossed, triggering READY.
    EchoThreshold {
        /// Distinct echo origins observed when the quorum crossed.
        echoes: usize,
    },
    /// This node committed to sending READY for the instance (exactly once).
    ReadySent,
    /// READY was triggered by ready amplification (`f + 1` readies) instead of echoes.
    ReadyAmplified,
    /// CPA accepted the content (single acceptance point of the CPA engine).
    CpaAccepted {
        /// Witnesses (distinct relayers incl. direct receipt) at acceptance.
        witnesses: usize,
    },
    /// The hosting tier observed the engine deliver the instance at this node.
    Delivered,
    /// Instance state was retired by the GC policy at this node.
    Retired,
    /// The process was restarted by a churn schedule.
    Restarted,
    /// Consensus binary-value broadcast (EST) for a round was sent.
    ConsensusBv {
        /// DBFT round.
        round: u32,
        /// Proposed binary value.
        value: u8,
    },
    /// Consensus AUX broadcast for a round was sent.
    ConsensusAux {
        /// DBFT round.
        round: u32,
        /// Auxiliary binary value.
        value: u8,
    },
    /// The round's (seeded) common coin was consumed / the round was closed.
    ConsensusCoin {
        /// DBFT round being closed.
        round: u32,
    },
    /// The consensus node transitioned to decided.
    ConsensusDecide {
        /// Round in which the decision was reached.
        round: u32,
        /// Decided binary value.
        value: u8,
    },
    /// A frame copy was handed to the link layer (per-copy, post-behavior).
    FrameSent {
        /// Destination process.
        to: NodeId,
        /// Wire size of the frame in bytes.
        bytes: usize,
    },
    /// A frame was discarded; `source`/`seq` identify the instance when the
    /// dropping layer knows it (engine ingress drops) and are `(node, 0)` when
    /// the frame is opaque to that layer (link decorators, sim scheduler).
    FrameDropped {
        /// Intended destination (the local node for ingress drops).
        to: NodeId,
        /// Why the frame was discarded.
        cause: DropCause,
    },
    /// Delay-line occupancy after an enqueue (live backends' paced links).
    QueueDepth {
        /// Frames queued in the delay line, including the one just added.
        depth: usize,
    },
}

impl TraceEventKind {
    /// Stable lower-snake-case name used by the exporters and normalizers.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEventKind::Injected => "injected",
            TraceEventKind::PathAccumulated { .. } => "path_accumulated",
            TraceEventKind::DisjointReached { .. } => "disjoint_reached",
            TraceEventKind::EchoThreshold { .. } => "echo_threshold",
            TraceEventKind::ReadySent => "ready_sent",
            TraceEventKind::ReadyAmplified => "ready_amplified",
            TraceEventKind::CpaAccepted { .. } => "cpa_accepted",
            TraceEventKind::Delivered => "delivered",
            TraceEventKind::Retired => "retired",
            TraceEventKind::Restarted => "restarted",
            TraceEventKind::ConsensusBv { .. } => "consensus_bv",
            TraceEventKind::ConsensusAux { .. } => "consensus_aux",
            TraceEventKind::ConsensusCoin { .. } => "consensus_coin",
            TraceEventKind::ConsensusDecide { .. } => "consensus_decide",
            TraceEventKind::FrameSent { .. } => "frame_sent",
            TraceEventKind::FrameDropped { .. } => "frame_dropped",
            TraceEventKind::QueueDepth { .. } => "queue_depth",
        }
    }

    /// Whether the event is *causal*: guaranteed to occur exactly once per
    /// `(node, instance)` in every completed run regardless of message arrival
    /// order, so the order-normalized set is identical across backends.
    ///
    /// Trigger-path events (`EchoThreshold` vs `ReadyAmplified`, the Dolev path
    /// counters) depend on arrival order and are deliberately excluded.
    pub fn is_causal(&self) -> bool {
        matches!(
            self,
            TraceEventKind::Injected
                | TraceEventKind::ReadySent
                | TraceEventKind::CpaAccepted { .. }
                | TraceEventKind::Delivered
                | TraceEventKind::ConsensusDecide { .. }
        )
    }
}

/// One structured trace record. `source`/`seq` are the `BroadcastId` of the
/// instance the event belongs to; frame-level events that cannot see the
/// instance id use `(node, 0)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Which backend produced the event.
    pub backend: Backend,
    /// The process the event happened at.
    pub node: NodeId,
    /// Source process of the broadcast instance.
    pub source: NodeId,
    /// Sequence number of the broadcast instance (namespaced for consensus).
    pub seq: u32,
    /// Microseconds: virtual sim time or wall clock since the deployment epoch.
    pub time_us: u64,
    /// What happened.
    pub kind: TraceEventKind,
}
