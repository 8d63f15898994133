//! Deterministic churn schedules: scheduled link, partition and restart events.
//!
//! Every scenario axis so far — behaviors, delays, topology — is fixed at `t = 0`. This
//! module opens the *time* axis: a [`ChurnSpec`] describes a seeded timeline
//! of link failures ([`ChurnAction::LinkDown`] / [`ChurnAction::LinkUp`]), partitions
//! over node sets ([`ChurnAction::Partition`] / [`ChurnAction::Heal`]), node restarts
//! with state loss ([`ChurnAction::NodeRestart`]) and **per-link** (not per-node)
//! asymmetric delay / loss overrides. [`ChurnSpec::compile`] expands the spec into an
//! ordered [`ChurnEvent`] list — a pure function of `(spec, seed)` — which the
//! discrete-event simulator interleaves into its virtual-time heaps
//! ([`crate::Simulation::set_churn`]) and the live backends replay at wall-clock-scaled
//! times through the `FaultyLink` transport decorator (`brb_transport`), so one schedule
//! drives every backend.
//!
//! The shared [`LinkState`] applier is what makes the two sides agree: both consult it at
//! *send time*, through the one [`crate::fate::outbound`] (a frame on a downed link is dropped before it enters the network;
//! messages already in flight still arrive, like real packets), both add the per-link
//! delay override on top of the background delay model, and both restore a healed
//! partition to the exact edge set the partition cut — never more, never less.
//!
//! # Example
//!
//! ```
//! use brb_sim::churn::{ChurnAction, ChurnSpec};
//!
//! // Link 2—5 flaps twice, a partition isolates {0, 1} for 100 ms, node 3 restarts.
//! let spec = ChurnSpec::new()
//!     .flap(2, 5, 10_000, 20_000, 30_000, 2)
//!     .at(100_000, ChurnAction::Partition { side: vec![0, 1] })
//!     .at(200_000, ChurnAction::Heal)
//!     .at(300_000, ChurnAction::NodeRestart { process: 3 });
//! let events = spec.compile(7);
//! assert_eq!(events.len(), 4 + 3, "two flap cycles expand to four link events");
//! assert!(events.windows(2).all(|w| w[0].at_micros <= w[1].at_micros));
//! assert_eq!(events, spec.compile(7), "compilation is a pure function of (spec, seed)");
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use brb_core::types::{BroadcastId, Delivery, ProcessId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One scheduled network reconfiguration.
#[derive(Debug, Clone, PartialEq)]
pub enum ChurnAction {
    /// Takes the undirected link `a — b` down: frames sent on it (either direction) from
    /// now on are dropped at send time. Messages already in flight still arrive.
    LinkDown {
        /// One endpoint.
        a: ProcessId,
        /// The other endpoint.
        b: ProcessId,
    },
    /// Brings the undirected link `a — b` back up (a no-op if it is not down).
    LinkUp {
        /// One endpoint.
        a: ProcessId,
        /// The other endpoint.
        b: ProcessId,
    },
    /// Cuts every currently-up edge between `side` and the rest of the nodes. The cut
    /// set is snapshotted so the matching [`ChurnAction::Heal`] restores *exactly* the
    /// edges this partition took down — links that were already down stay down.
    Partition {
        /// The processes on one side of the partition.
        side: Vec<ProcessId>,
    },
    /// Restores the edge set snapshotted by the active [`ChurnAction::Partition`]s
    /// (a no-op when no partition is active).
    Heal,
    /// Crash-recovers `process`: its volatile protocol state (quorums, paths, pending
    /// instances) is lost and a fresh engine re-joins with the same identifier. The
    /// durable compact state — the delivered log and therefore the GC retirement
    /// watermark — survives (see [`RestartMemory`]), so no retired instance resurrects.
    NodeRestart {
        /// The process to restart.
        process: ProcessId,
    },
    /// Overrides the transmission delay of the **directed** link `from -> to`: every
    /// frame sent on it incurs `extra_micros` of additional delay on top of the
    /// background delay model. `0` clears the override. The reverse direction is
    /// unaffected — this is how asymmetric links are expressed.
    SetLinkDelay {
        /// Sending endpoint.
        from: ProcessId,
        /// Receiving endpoint.
        to: ProcessId,
        /// Additional one-way delay in (virtual) microseconds; `0` clears.
        extra_micros: u64,
    },
    /// Overrides the loss probability of the **directed** link `from -> to`: every frame
    /// sent on it is independently dropped with this probability. `0.0` clears.
    SetLinkLoss {
        /// Sending endpoint.
        from: ProcessId,
        /// Receiving endpoint.
        to: ProcessId,
        /// Per-frame drop probability in `[0, 1]`; `0.0` clears.
        probability: f64,
    },
}

impl fmt::Display for ChurnAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChurnAction::LinkDown { a, b } => write!(f, "link-down {a}-{b}"),
            ChurnAction::LinkUp { a, b } => write!(f, "link-up {a}-{b}"),
            ChurnAction::Partition { side } => {
                write!(f, "partition [")?;
                for (i, p) in side.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, "]")
            }
            ChurnAction::Heal => write!(f, "heal"),
            ChurnAction::NodeRestart { process } => write!(f, "restart p{process}"),
            ChurnAction::SetLinkDelay {
                from,
                to,
                extra_micros,
            } => write!(f, "link-delay {from}->{to} +{extra_micros}us"),
            ChurnAction::SetLinkLoss {
                from,
                to,
                probability,
            } => write!(f, "link-loss {from}->{to} p={probability}"),
        }
    }
}

/// One clause of a [`ChurnSpec`]: either a fixed event or a seeded generative pattern.
#[derive(Debug, Clone, PartialEq)]
pub enum ChurnClause {
    /// One action at a fixed virtual time.
    At {
        /// Virtual time of the action, in microseconds.
        at_micros: u64,
        /// The action.
        action: ChurnAction,
    },
    /// A flapping link: starting at `start_micros`, the link `a — b` goes down for
    /// `down_micros` and back up for `up_micros`, repeated `cycles` times, each phase
    /// boundary jittered by a seeded `uniform(0..=jitter_micros)` draw.
    Flap {
        /// One endpoint of the flapping link.
        a: ProcessId,
        /// The other endpoint.
        b: ProcessId,
        /// Start of the first down phase, in microseconds.
        start_micros: u64,
        /// Length of each down phase, in microseconds.
        down_micros: u64,
        /// Length of each up phase, in microseconds.
        up_micros: u64,
        /// Number of down/up cycles.
        cycles: u32,
        /// Upper bound of the uniform jitter added to each phase boundary.
        jitter_micros: u64,
    },
}

/// A compiled churn event: `action` happens at virtual time `at_micros`.
///
/// `seq` is the event's rank in the compiled schedule; events sharing a timestamp apply
/// in `seq` order (which preserves clause order, the stable-sort guarantee of
/// [`ChurnSpec::compile`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnEvent {
    /// Virtual time of the event, in microseconds.
    pub at_micros: u64,
    /// Rank in the compiled schedule (the tie-break for equal timestamps).
    pub seq: u32,
    /// The network reconfiguration to apply.
    pub action: ChurnAction,
}

/// A seeded timeline of churn events.
///
/// A spec is a list of [`ChurnClause`]s; [`ChurnSpec::compile`] expands the clauses in
/// order (drawing any jitter from one `StdRng` seeded by the compile seed), then stably
/// sorts by time — so the compiled schedule is a pure function of `(spec, seed)` on
/// every platform, exactly like a workload schedule.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChurnSpec {
    /// The clauses, expanded in order by [`ChurnSpec::compile`].
    pub clauses: Vec<ChurnClause>,
}

impl ChurnSpec {
    /// An empty spec (no churn).
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the spec contains no clauses.
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// Adds one fixed action at `at_micros`.
    #[must_use]
    pub fn at(mut self, at_micros: u64, action: ChurnAction) -> Self {
        self.clauses.push(ChurnClause::At { at_micros, action });
        self
    }

    /// Adds an unjittered flapping link (see [`ChurnClause::Flap`]).
    #[must_use]
    pub fn flap(
        self,
        a: ProcessId,
        b: ProcessId,
        start_micros: u64,
        down_micros: u64,
        up_micros: u64,
        cycles: u32,
    ) -> Self {
        self.flap_jittered(a, b, start_micros, down_micros, up_micros, cycles, 0)
    }

    /// Adds a flapping link whose phase boundaries are jittered by seeded
    /// `uniform(0..=jitter_micros)` draws at compile time.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn flap_jittered(
        mut self,
        a: ProcessId,
        b: ProcessId,
        start_micros: u64,
        down_micros: u64,
        up_micros: u64,
        cycles: u32,
        jitter_micros: u64,
    ) -> Self {
        self.clauses.push(ChurnClause::Flap {
            a,
            b,
            start_micros,
            down_micros,
            up_micros,
            cycles,
            jitter_micros,
        });
        self
    }

    /// Expands the spec into the ordered event list. Pure in `(self, seed)`: the same
    /// pair compiles to the same schedule on every backend and every platform, and the
    /// emitted events are in nondecreasing time order with `seq` numbering their rank.
    pub fn compile(&self, seed: u64) -> Vec<ChurnEvent> {
        // A distinct stream from the workload/delay RNGs sharing the run seed.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0C4C_40FF_1CE5_C4ED_u64);
        let mut raw: Vec<(u64, ChurnAction)> = Vec::new();
        for clause in &self.clauses {
            match clause {
                ChurnClause::At { at_micros, action } => raw.push((*at_micros, action.clone())),
                ChurnClause::Flap {
                    a,
                    b,
                    start_micros,
                    down_micros,
                    up_micros,
                    cycles,
                    jitter_micros,
                } => {
                    let jitter = |rng: &mut StdRng| -> u64 {
                        if *jitter_micros == 0 {
                            0
                        } else {
                            rng.gen_range(0..=*jitter_micros)
                        }
                    };
                    let mut t = *start_micros;
                    for _ in 0..*cycles {
                        // Fixed draw order per cycle: down jitter, then up jitter.
                        let down_at = t + jitter(&mut rng);
                        let up_at = down_at + *down_micros + jitter(&mut rng);
                        raw.push((down_at, ChurnAction::LinkDown { a: *a, b: *b }));
                        raw.push((up_at, ChurnAction::LinkUp { a: *a, b: *b }));
                        t = up_at + *up_micros;
                    }
                }
            }
        }
        // Stable: equal-time events keep clause/expansion order.
        raw.sort_by_key(|(at, _)| *at);
        raw.into_iter()
            .enumerate()
            .map(|(i, (at_micros, action))| ChurnEvent {
                at_micros,
                seq: i as u32,
                action,
            })
            .collect()
    }
}

/// The current link-level state of a churned network, read by [`crate::fate::outbound`]
/// on the simulator and on every live `FaultyLink` decorator alike.
///
/// Tracks which **directed** links are down, the edge sets cut by active partitions
/// (so [`ChurnAction::Heal`] restores exactly them), and the per-directed-link delay and
/// loss overrides.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinkState {
    /// Directed links currently down: a frame `from -> to` with `(from, to)` in here is
    /// dropped at send time.
    down: BTreeSet<(ProcessId, ProcessId)>,
    /// Directed links taken down by the active partitions and not yet healed — exactly
    /// the set [`ChurnAction::Heal`] brings back up.
    partition_cut: BTreeSet<(ProcessId, ProcessId)>,
    /// Additional one-way delay per directed link, in (virtual) microseconds.
    delay_overrides: BTreeMap<(ProcessId, ProcessId), u64>,
    /// Per-frame drop probability per directed link.
    loss_overrides: BTreeMap<(ProcessId, ProcessId), f64>,
}

impl LinkState {
    /// A fully connected (no-churn) state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether a frame `from -> to` may enter the network right now.
    pub fn allows(&self, from: ProcessId, to: ProcessId) -> bool {
        !self.down.contains(&(from, to))
    }

    /// The additional one-way delay of the directed link `from -> to`, in microseconds
    /// (0 when no override is set).
    pub fn extra_delay_micros(&self, from: ProcessId, to: ProcessId) -> u64 {
        self.delay_overrides.get(&(from, to)).copied().unwrap_or(0)
    }

    /// The drop probability of the directed link `from -> to`, when one is set.
    pub fn loss_probability(&self, from: ProcessId, to: ProcessId) -> Option<f64> {
        self.loss_overrides.get(&(from, to)).copied()
    }

    /// Whether any churn effect (down link or override) is currently active.
    #[cfg(test)]
    pub(crate) fn is_quiet(&self) -> bool {
        self.down.is_empty() && self.delay_overrides.is_empty() && self.loss_overrides.is_empty()
    }

    /// Applies one action. `edges` is the topology's undirected edge list (needed to
    /// enumerate the cross edges of a [`ChurnAction::Partition`]). Returns the process
    /// to restart for [`ChurnAction::NodeRestart`] — the one action the caller (not the
    /// link state) carries out.
    pub fn apply(
        &mut self,
        action: &ChurnAction,
        edges: &[(ProcessId, ProcessId)],
    ) -> Option<ProcessId> {
        match action {
            ChurnAction::LinkDown { a, b } => {
                self.down.insert((*a, *b));
                self.down.insert((*b, *a));
            }
            ChurnAction::LinkUp { a, b } => {
                self.down.remove(&(*a, *b));
                self.down.remove(&(*b, *a));
                // A manually restored link is no longer the partition's to heal.
                self.partition_cut.remove(&(*a, *b));
                self.partition_cut.remove(&(*b, *a));
            }
            ChurnAction::Partition { side } => {
                for &(u, v) in edges {
                    if side.contains(&u) == side.contains(&v) {
                        continue;
                    }
                    for link in [(u, v), (v, u)] {
                        // Only links that were up belong to the cut: healing must not
                        // resurrect a link an earlier LinkDown took out independently.
                        if self.down.insert(link) {
                            self.partition_cut.insert(link);
                        }
                    }
                }
            }
            ChurnAction::Heal => {
                for link in std::mem::take(&mut self.partition_cut) {
                    self.down.remove(&link);
                }
            }
            ChurnAction::NodeRestart { process } => return Some(*process),
            ChurnAction::SetLinkDelay {
                from,
                to,
                extra_micros,
            } => {
                if *extra_micros == 0 {
                    self.delay_overrides.remove(&(*from, *to));
                } else {
                    self.delay_overrides.insert((*from, *to), *extra_micros);
                }
            }
            ChurnAction::SetLinkLoss {
                from,
                to,
                probability,
            } => {
                if *probability <= 0.0 {
                    self.loss_overrides.remove(&(*from, *to));
                } else {
                    self.loss_overrides
                        .insert((*from, *to), probability.clamp(0.0, 1.0));
                }
            }
        }
        None
    }
}

/// The durable compact state a [`ChurnAction::NodeRestart`] preserves across the crash:
/// the log of broadcast instances the node had delivered (and, under GC, possibly
/// already retired) before going down. The simulator keeps one per process and the live
/// `brb_transport::NodeDriver` one per node.
///
/// Volatile protocol state — quorum counters, stored paths, in-flight instances — is
/// lost by design; the delivered log is the part a real node persists (it must, to honor
/// no-duplication across crashes). Because watermark GC only retires *delivered*
/// instances, suppressing re-deliveries of remembered ids is exactly the "no retired
/// instance resurrects" safety property: a late or replayed frame for a retired id may
/// rebuild transient state in the fresh engine, but it can never surface as a duplicate
/// delivery.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RestartMemory {
    /// Deliveries of discarded engines, in delivery order, one per id.
    log: Vec<Delivery>,
    /// The ids in `log`.
    delivered: BTreeSet<BroadcastId>,
}

impl RestartMemory {
    /// An empty memory (node never delivered anything).
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs the delivery log of an engine about to be discarded: each delivery of an
    /// id not yet remembered joins the log, in order.
    pub fn absorb(&mut self, deliveries: &[Delivery]) {
        for delivery in deliveries {
            if self.delivered.insert(delivery.id) {
                self.log.push(delivery.clone());
            }
        }
    }

    /// Whether a post-restart delivery of `id` must be suppressed (the instance was
    /// already delivered — and possibly retired — before the crash).
    pub fn suppresses(&self, id: BroadcastId) -> bool {
        self.delivered.contains(&id)
    }

    /// The node's complete delivery log across restarts: the remembered deliveries
    /// first, in their original order, then the `current` engine's deliveries of ids not
    /// remembered. Equals `current` for a node that never restarted.
    pub fn full_log(&self, current: &[Delivery]) -> Vec<Delivery> {
        let fresh = current.iter().filter(|d| !self.suppresses(d.id));
        self.log.iter().chain(fresh).cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brb_core::types::Payload;

    #[test]
    fn compile_is_deterministic_and_ordered() {
        let spec = ChurnSpec::new()
            .flap_jittered(1, 2, 5_000, 10_000, 10_000, 3, 2_000)
            .at(0, ChurnAction::Heal)
            .at(
                12_000,
                ChurnAction::SetLinkDelay {
                    from: 0,
                    to: 1,
                    extra_micros: 50_000,
                },
            );
        let a = spec.compile(9);
        let b = spec.compile(9);
        assert_eq!(a, b, "same (spec, seed), same schedule");
        assert!(a.windows(2).all(|w| w[0].at_micros <= w[1].at_micros));
        assert_eq!(a.len(), 3 * 2 + 2);
        for (i, event) in a.iter().enumerate() {
            assert_eq!(event.seq, i as u32, "seq numbers the sorted rank");
        }
        let c = spec.compile(10);
        assert_ne!(a, c, "a different seed draws different jitter");
    }

    #[test]
    fn unjittered_flap_ignores_the_seed() {
        let spec = ChurnSpec::new().flap(0, 1, 1_000, 2_000, 3_000, 2);
        assert_eq!(spec.compile(1), spec.compile(2));
        let times: Vec<u64> = spec.compile(1).iter().map(|e| e.at_micros).collect();
        assert_eq!(times, vec![1_000, 3_000, 6_000, 8_000]);
    }

    #[test]
    fn link_down_blocks_both_directions_until_up() {
        let mut state = LinkState::new();
        assert!(state.allows(2, 5));
        state.apply(&ChurnAction::LinkDown { a: 2, b: 5 }, &[]);
        assert!(!state.allows(2, 5));
        assert!(!state.allows(5, 2));
        assert!(state.allows(2, 4), "other links unaffected");
        state.apply(&ChurnAction::LinkUp { a: 5, b: 2 }, &[]);
        assert!(state.allows(2, 5) && state.allows(5, 2));
        assert!(state.is_quiet());
    }

    #[test]
    fn partition_cuts_cross_edges_and_heal_restores_exactly_them() {
        let edges = vec![(0, 1), (0, 2), (1, 2), (2, 3), (1, 3)];
        let mut state = LinkState::new();
        // Link 2—3 is already down before the partition.
        state.apply(&ChurnAction::LinkDown { a: 2, b: 3 }, &edges);
        let before = state.clone();
        state.apply(&ChurnAction::Partition { side: vec![0, 1] }, &edges);
        assert!(!state.allows(0, 2), "cross edge 0-2 is cut");
        assert!(!state.allows(2, 0));
        assert!(!state.allows(1, 3), "cross edge 1-3 is cut");
        assert!(state.allows(0, 1), "intra-side edge stays up");
        assert!(!state.allows(2, 3), "previously-down link stays down");
        state.apply(&ChurnAction::Heal, &edges);
        assert_eq!(state, before, "heal restores the exact pre-partition state");
        assert!(
            !state.allows(2, 3),
            "the independent LinkDown survives the heal"
        );
    }

    #[test]
    fn manual_link_up_removes_the_edge_from_the_partition_cut() {
        let edges = vec![(0, 1), (0, 2)];
        let mut state = LinkState::new();
        state.apply(&ChurnAction::Partition { side: vec![0] }, &edges);
        state.apply(&ChurnAction::LinkUp { a: 0, b: 1 }, &edges);
        assert!(state.allows(0, 1));
        state.apply(&ChurnAction::Heal, &edges);
        assert!(state.allows(0, 2));
        assert!(
            state.is_quiet(),
            "heal does not re-down the manually restored link"
        );
    }

    #[test]
    fn delay_and_loss_overrides_are_per_directed_link() {
        let mut state = LinkState::new();
        state.apply(
            &ChurnAction::SetLinkDelay {
                from: 0,
                to: 1,
                extra_micros: 9_000,
            },
            &[],
        );
        state.apply(
            &ChurnAction::SetLinkLoss {
                from: 1,
                to: 0,
                probability: 0.25,
            },
            &[],
        );
        assert_eq!(state.extra_delay_micros(0, 1), 9_000);
        assert_eq!(state.extra_delay_micros(1, 0), 0, "asymmetric by design");
        assert_eq!(state.loss_probability(1, 0), Some(0.25));
        assert_eq!(state.loss_probability(0, 1), None);
        state.apply(
            &ChurnAction::SetLinkDelay {
                from: 0,
                to: 1,
                extra_micros: 0,
            },
            &[],
        );
        state.apply(
            &ChurnAction::SetLinkLoss {
                from: 1,
                to: 0,
                probability: 0.0,
            },
            &[],
        );
        assert!(state.is_quiet(), "zero values clear the overrides");
    }

    #[test]
    fn restart_memory_suppresses_remembered_instances() {
        // Delivered in this order across two restarts: early, first, second, fresh.
        let log: Vec<Delivery> = [(3, 0), (1, 0), (2, 5), (0, 1)]
            .map(|(source, seq)| Delivery {
                id: BroadcastId::new(source, seq),
                payload: Payload::new(vec![source as u8, seq as u8]),
            })
            .to_vec();
        let [early, first, second, fresh] = [&log[0], &log[1], &log[2], &log[3]];
        let mut memory = RestartMemory::new();
        assert_eq!(
            memory.full_log(&log[..1]),
            &log[..1],
            "nothing remembered yet"
        );
        // First restart: the discarded engine had delivered `early`, then `first`.
        memory.absorb(&log[..2]);
        assert!(memory.suppresses(early.id));
        assert!(memory.suppresses(first.id));
        assert!(!memory.suppresses(second.id));
        // Second restart: the rebuilt engine re-delivered `early` (the duplicate the
        // suppression hides) and delivered `second`.
        memory.absorb(&[early.clone(), second.clone()]);
        assert!(memory.suppresses(second.id));
        assert!(!memory.suppresses(fresh.id));
        // The current engine re-delivers `first` and delivers `fresh`: the remembered
        // entries come first, in their original order, and no id appears twice.
        assert_eq!(memory.full_log(&[first.clone(), fresh.clone()]), log);
    }

    #[test]
    fn actions_render_for_the_metrics_log() {
        assert_eq!(
            ChurnAction::LinkDown { a: 2, b: 5 }.to_string(),
            "link-down 2-5"
        );
        assert_eq!(
            ChurnAction::Partition {
                side: vec![0, 1, 2]
            }
            .to_string(),
            "partition [0 1 2]"
        );
        assert_eq!(ChurnAction::Heal.to_string(), "heal");
        assert_eq!(
            ChurnAction::NodeRestart { process: 7 }.to_string(),
            "restart p7"
        );
        assert_eq!(
            ChurnAction::SetLinkDelay {
                from: 1,
                to: 2,
                extra_micros: 500
            }
            .to_string(),
            "link-delay 1->2 +500us"
        );
    }
}
