//! The Bracha–Dolev protocol combination with the paper's practical modifications.
//!
//! [`BdProcess`] implements Byzantine reliable broadcast on a partially connected network
//! by running Bracha's double-echo protocol on top of Dolev's reliable-communication
//! layer: every Bracha-layer message (the source's SEND and each process's ECHO/READY) is
//! disseminated through its own Dolev instance, and Dolev deliveries drive Bracha's state
//! machine.
//!
//! Each Dolev instance is a `dolev::DolevInstance`, the rule the standalone
//! [`crate::dolev::DolevProcess`] runs too, and each content's Bracha state is a
//! `bracha::BrachaInstance`, the quorum rule of [`crate::bracha::BrachaProcess`] and
//! [`crate::bracha_rc::BrachaOverRc`]. This engine adds what crosses the layers: it keys
//! Dolev instances by `(phase, originator)`, passes direct delivery for single-hop Sends
//! (MBD.2), the MBD.10 superpath filter and the MBD.8/9 destination exclusions to the
//! Dolev rule, passes MBD.2 echo amplification and the MBD.11 roles to the Bracha rule,
//! keeps the MBD.6/7/8/9 bookkeeping, opens an instance for each message it creates, and
//! under MBD.2 transmits only the Ready when its Echo and Ready become creatable
//! together.
//!
//! The engine is configured by [`Config`], which toggles:
//!
//! * Bonomi et al.'s Dolev-layer modifications **MD.1–5** (Sec. 4.2 of the paper), and
//! * the paper's cross-layer modifications **MBD.1–12** (Sec. 6), individually.
//!
//! With all flags off the engine is the plain state-of-the-art combination; with
//! `MD.1–5` on it is the *BDopt* baseline; the presets in [`Config`] reproduce the
//! `lat.`, `bdw.` and `lat. & bdw.` configurations evaluated in Sec. 7.4.

mod state;

use crate::bracha::{self, BrachaKind, IdRecord, Triggers};
use crate::config::{Config, MbdFlags};
use crate::dolev::{DolevInstance, Hop, Local};
use crate::footprint::Footprint;
use crate::gc::{GcPolicy, GcState, RetiredSet};
use crate::hash::{WordMap, WordSet};
use crate::pathset::PathSet;
use crate::protocol::{ActionBuf, Protocol};
use crate::quorum;
use crate::types::{Action, BroadcastId, Content, Delivery, LocalPayloadId, Payload, ProcessId};
use crate::wire::{FieldPresence, MessageKind, PayloadRef, WireMessage};

use state::{ContentState, DolevKey, PlannedSend};

/// The part of a process that per-content processing works with besides the content's
/// own [`ContentState`]: identity, configuration and the delivery log. Split from
/// [`BdProcess`] so the Dolev and Bracha layers run on a content's state borrowed in
/// place from `contents`.
#[derive(Debug, Clone)]
struct Node {
    id: ProcessId,
    neighbors: Vec<ProcessId>,
    config: Config,
    ids: IdRecord,
    deliveries: Vec<Delivery>,
    gc: GcState,
    /// Structured-trace handle (disabled by default; one branch per would-be event).
    tracer: brb_trace::Tracer,
}

/// One process running the (modified) Bracha–Dolev protocol combination.
#[derive(Debug, Clone)]
pub struct BdProcess {
    node: Node,
    contents: WordMap<Content, ContentState>,
    next_seq: u32,
    // --- MBD.1 link-local payload identifier state ---
    /// Local identifier chosen by this process for each known content.
    my_local_ids: WordMap<Content, LocalPayloadId>,
    next_local_id: LocalPayloadId,
    /// Links on which a given local identifier has already been announced.
    announced: WordSet<(ProcessId, LocalPayloadId)>,
    /// Contents announced by each neighbor under each of its local identifiers.
    peer_contents: WordMap<(ProcessId, LocalPayloadId), Content>,
    /// Messages referencing a still-unknown local identifier, waiting for the announcement.
    pending: WordMap<(ProcessId, LocalPayloadId), Vec<WireMessage>>,
    // --- instance GC state ---
    /// Per-peer local identifiers whose content has been retired: a late
    /// [`PayloadRef::Local`] naming one of them is dropped instead of queueing in
    /// `pending` forever. Peers allocate local identifiers sequentially, so the markers
    /// compact into a watermark exactly like retired broadcast sequence numbers.
    retired_peer_refs: WordMap<ProcessId, RetiredSet>,
    /// Running memory proxy: every [`ContentState::footprint`] in `contents` plus the
    /// wire size of every message queued in `pending`.
    footprint: Footprint,
    /// Reusable buffers (empty between events): the sends one event plans, and the
    /// group of them going to one destination while [`BdProcess::emit_planned`] merges it.
    planned: Vec<PlannedSend>,
    group: Vec<PlannedSend>,
}

impl BdProcess {
    /// Creates a process given its identifier, configuration and direct neighborhood.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`Config::validate`]) or if `id` is not
    /// smaller than `config.n`.
    pub fn new(id: ProcessId, config: Config, neighbors: Vec<ProcessId>) -> Self {
        config.validate().expect("invalid BRB configuration");
        assert!(
            id < config.n,
            "process id {id} out of range for n = {}",
            config.n
        );
        Self {
            node: Node {
                id,
                neighbors,
                config,
                ids: IdRecord::default(),
                deliveries: Vec::new(),
                gc: GcState::new(config.gc),
                tracer: brb_trace::Tracer::disabled(),
            },
            contents: WordMap::default(),
            next_seq: 0,
            my_local_ids: WordMap::default(),
            next_local_id: 0,
            announced: WordSet::default(),
            peer_contents: WordMap::default(),
            pending: WordMap::default(),
            retired_peer_refs: WordMap::default(),
            footprint: Footprint::ZERO,
            planned: Vec::new(),
            group: Vec::new(),
        }
    }

    /// Prunes every layer of per-broadcast state for the instances whose retention
    /// window elapsed: the Dolev instances and Bracha quorum sets (`contents`), the
    /// delivery marker (safe to drop — the GC watermark keeps rejecting the id), and the
    /// MBD.1 link-local identifier bookkeeping on both sides of every link.
    fn run_gc(&mut self) {
        for id in self.node.gc.due() {
            self.node.tracer.emit(
                self.node.id,
                id.source,
                id.seq,
                brb_trace::TraceEventKind::Retired,
            );
            self.contents.retain(|content, state| {
                let keep = content.id != id;
                if !keep {
                    self.footprint.remove(state.footprint());
                }
                keep
            });
            self.node.ids.retire(id);
            let mine: Vec<(Content, LocalPayloadId)> = self
                .my_local_ids
                .iter()
                .filter(|(content, _)| content.id == id)
                .map(|(content, &local_id)| (content.clone(), local_id))
                .collect();
            for (content, local_id) in mine {
                self.my_local_ids.remove(&content);
                self.announced
                    .retain(|&(_, announced_id)| announced_id != local_id);
            }
            let peers: Vec<(ProcessId, LocalPayloadId)> = self
                .peer_contents
                .iter()
                .filter(|(_, content)| content.id == id)
                .map(|(&key, _)| key)
                .collect();
            for (peer, local_id) in peers {
                self.peer_contents.remove(&(peer, local_id));
                self.take_pending(peer, local_id);
                self.tombstone_peer_ref(peer, local_id);
            }
        }
    }

    /// Marks a peer's local identifier as belonging to a retired instance.
    fn tombstone_peer_ref(&mut self, peer: ProcessId, local_id: LocalPayloadId) {
        let max_retired = self.node.gc.policy().max_retired;
        let set = self.retired_peer_refs.entry(peer).or_default();
        set.insert(local_id);
        if set.len() > max_retired {
            set.force_compact(max_retired);
        }
    }

    /// The configuration this process runs with.
    pub fn config(&self) -> &Config {
        &self.node.config
    }

    /// The direct neighbors of this process.
    pub fn neighbors(&self) -> &[ProcessId] {
        &self.node.neighbors
    }

    /// Whether this process has BRB-delivered the broadcast identified by `id`.
    pub fn has_delivered(&self, id: BroadcastId) -> bool {
        self.node.ids.has_delivered(id)
    }

    /// Total number of transmission paths currently stored across all Dolev instances
    /// (the quantity dominating memory consumption per Sec. 7.3).
    pub fn stored_paths(&self) -> usize {
        self.footprint.paths
    }

    /// Removes (and un-counts) the messages queued behind a peer's local identifier.
    fn take_pending(
        &mut self,
        peer: ProcessId,
        local_id: LocalPayloadId,
    ) -> Option<Vec<WireMessage>> {
        let queued = self.pending.remove(&(peer, local_id))?;
        self.footprint.bytes -= queued.iter().map(WireMessage::wire_size).sum::<usize>();
        Some(queued)
    }

    /// Runs `process` on the state of `content`, borrowed in place from `contents`
    /// (created on first sight), then settles the engine total by what it changed.
    fn with_content(
        &mut self,
        content: &Content,
        process: impl FnOnce(&mut Node, &mut ContentState),
    ) {
        let (state, before) = match self.contents.get_mut(content) {
            Some(state) => {
                let before = state.footprint();
                (state, before)
            }
            None => {
                let fresh = ContentState::new(content.clone(), self.node.config.n);
                let state = self.contents.entry(content.clone()).or_insert(fresh);
                (state, Footprint::ZERO)
            }
        };
        process(&mut self.node, state);
        self.footprint.settle(before, state.footprint());
    }

    /// Whether every process label of a received message names one of the `n` processes.
    /// Anything else comes from a faulty neighbor and is refused before it can size a
    /// set or index a table.
    fn well_formed(&self, from: ProcessId, msg: &WireMessage) -> bool {
        let n = self.node.config.n;
        from < n
            && msg.id.source < n
            && msg.originator < n
            && msg.originator2.is_none_or(|embedded| embedded < n)
            && msg.path.iter().all(|&label| label < n)
    }

    // ------------------------------------------------------------------
    // Payload resolution (MBD.1)
    // ------------------------------------------------------------------

    /// Ingress: refuses a message naming a label outside `0..n`, hands everything else
    /// to [`BdProcess::handle_wire`].
    fn receive(
        &mut self,
        from: ProcessId,
        msg: WireMessage,
        actions: &mut Vec<Action<WireMessage>>,
    ) {
        if self.well_formed(from, &msg) {
            self.handle_wire(from, msg, actions);
        } else {
            self.node.tracer.frame_refused(
                self.node.id,
                msg.id.source,
                msg.id.seq,
                brb_trace::DropCause::Malformed,
            );
        }
    }

    fn handle_wire(
        &mut self,
        from: ProcessId,
        msg: WireMessage,
        actions: &mut Vec<Action<WireMessage>>,
    ) {
        let content = match &msg.payload {
            PayloadRef::Inline(p) => Content::new(msg.id, p.clone()),
            PayloadRef::Announce { local_id, payload } => {
                // A replayed announcement for a retired instance must not re-enter
                // `peer_contents`; tombstone the identifier so the Local refs that may
                // follow it are dropped too instead of queueing forever.
                if self.node.gc.is_retired(msg.id) {
                    self.tombstone_peer_ref(from, *local_id);
                    self.take_pending(from, *local_id);
                    self.node.tracer.emit(
                        self.node.id,
                        msg.id.source,
                        msg.id.seq,
                        brb_trace::TraceEventKind::FrameDropped {
                            to: self.node.id,
                            cause: brb_trace::DropCause::GcRetired,
                        },
                    );
                    return;
                }
                let content = Content::new(msg.id, payload.clone());
                self.peer_contents
                    .insert((from, *local_id), content.clone());
                content
            }
            PayloadRef::Local(local_id) => match self.peer_contents.get(&(from, *local_id)) {
                Some(content) => content.clone(),
                None => {
                    // A reference to a retired instance is dropped deterministically.
                    if self
                        .retired_peer_refs
                        .get(&from)
                        .is_some_and(|set| set.contains(*local_id))
                    {
                        return;
                    }
                    // The announcement has not arrived yet (asynchronous reordering):
                    // queue the message and process it when the payload is known.
                    self.footprint.bytes += msg.wire_size();
                    self.pending.entry((from, *local_id)).or_default().push(msg);
                    return;
                }
            },
        };
        let announced_id = msg
            .payload
            .local_id()
            .filter(|_| matches!(msg.payload, PayloadRef::Announce { .. }));
        self.process_resolved(from, &msg, content, actions);
        if let Some(local_id) = announced_id {
            if let Some(queued) = self.take_pending(from, local_id) {
                for queued_msg in queued {
                    self.handle_wire(from, queued_msg, actions);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Constituent decomposition and per-content processing
    // ------------------------------------------------------------------

    fn process_resolved(
        &mut self,
        from: ProcessId,
        msg: &WireMessage,
        content: Content,
        actions: &mut Vec<Action<WireMessage>>,
    ) {
        // Frames of a retired instance are dropped before they can recreate state.
        if self.node.gc.is_retired(content.id) {
            self.node.tracer.emit(
                self.node.id,
                content.id.source,
                content.id.seq,
                brb_trace::TraceEventKind::FrameDropped {
                    to: self.node.id,
                    cause: brb_trace::DropCause::GcRetired,
                },
            );
            return;
        }
        // A merged message (MBD.3/MBD.4) decomposes into the two Bracha-layer messages it
        // carries; both follow the same received path.
        let embedded = msg
            .originator2
            .map(|originator| (BrachaKind::Echo, originator));
        let constituents = match msg.kind {
            MessageKind::Send => [Some((BrachaKind::Send, content.id.source)), None],
            MessageKind::Echo => [Some((BrachaKind::Echo, msg.originator)), None],
            MessageKind::Ready => [Some((BrachaKind::Ready, msg.originator)), None],
            MessageKind::EchoEcho => [Some((BrachaKind::Echo, msg.originator)), embedded],
            MessageKind::ReadyEcho => [Some((BrachaKind::Ready, msg.originator)), embedded],
        };
        let mut planned = std::mem::take(&mut self.planned);
        self.with_content(&content, |node, state| {
            for (phase, originator) in constituents.into_iter().flatten() {
                node.handle_dolev(
                    from,
                    state,
                    phase,
                    originator,
                    &msg.path,
                    &mut planned,
                    actions,
                );
            }
        });
        self.emit_planned(&content, &mut planned, actions);
        self.planned = planned;
    }
}

impl Node {
    // ------------------------------------------------------------------
    // Dolev layer
    // ------------------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn handle_dolev(
        &mut self,
        from: ProcessId,
        state: &mut ContentState,
        phase: BrachaKind,
        originator: ProcessId,
        path: &[ProcessId],
        planned: &mut Vec<PlannedSend>,
        actions: &mut Vec<Action<WireMessage>>,
    ) {
        let cfg = self.config;

        // MBD.9 bookkeeping: count the distinct Ready originators each neighbor relayed
        // with an empty path; 2f+1 of them prove the neighbor BRB-delivered.
        if phase == BrachaKind::Ready && path.is_empty() {
            let relayed = state.note_empty_ready(from, originator);
            if cfg.mbd.mbd9 && relayed >= cfg.ready_quorum() {
                state.neighbors_bd_delivered.insert(from);
            }
        }

        // MBD.6: an Echo from a process whose Ready has been Dolev-delivered carries no
        // new information.
        if cfg.mbd.mbd6 && phase == BrachaKind::Echo && state.ready_delivered(originator) {
            return;
        }
        // MBD.7: once the content has been BRB-delivered, Echo messages are useless.
        if cfg.mbd.mbd7 && phase == BrachaKind::Echo && state.bracha.delivered {
            return;
        }

        let key = DolevKey { phase, originator };
        let index = state.instance_index_or_new(key, cfg.max_path_combinations);
        let at = Local {
            id: self.id,
            config: &self.config,
            neighbors: &self.neighbors,
            tracer: &self.tracer,
        };
        let hop = Hop {
            id: state.content.id,
            originator,
            from,
            path,
        };
        // MD.1 delivers on direct reception; single-hop Sends (MBD.2) are only ever
        // received directly, so they are validated the same way.
        let single_hop = cfg.mbd.mbd2 && phase == BrachaKind::Send;
        let Some(newly_delivered) = state.instances[index].receive(
            at,
            hop,
            cfg.md.md1 || single_hop,
            cfg.mbd.mbd10,
            &mut state.instances_footprint,
        ) else {
            return;
        };
        // Single-hop Sends are never relayed; the Echo extracted from them carries the
        // same information.
        if !single_hop {
            let excluded = mbd_exclusions(
                cfg.mbd,
                phase,
                &state.ready_neighbors,
                &state.neighbors_bd_delivered,
            );
            state.instances[index].relay(at, hop, newly_delivered, excluded, |to, path| {
                planned.push(PlannedSend {
                    to,
                    phase,
                    originator,
                    path,
                    newly_created: false,
                });
            });
        }

        // ---- Bracha layer reaction to a Dolev delivery ----
        if newly_delivered {
            self.on_dolev_delivered(state, phase, originator, planned, actions);
        }
    }

    // ------------------------------------------------------------------
    // Bracha layer
    // ------------------------------------------------------------------

    fn on_dolev_delivered(
        &mut self,
        state: &mut ContentState,
        phase: BrachaKind,
        originator: ProcessId,
        planned: &mut Vec<PlannedSend>,
        actions: &mut Vec<Action<WireMessage>>,
    ) {
        // Under MBD.2 a Ready implies its sender echoed: it counts as an Echo too (Sec.
        // 6.2 amplification).
        state.bracha.count(phase, originator, self.config.mbd.mbd2);
        if phase == BrachaKind::Ready
            && self.config.mbd.mbd8
            && self.neighbors.contains(&originator)
        {
            state.ready_neighbors.insert(originator);
        }
        self.bracha_transitions(state, planned, actions);
    }

    /// Runs the Bracha layer's fixpoint with this engine's triggers, then opens and plans
    /// what it created and delivers.
    fn bracha_transitions(
        &mut self,
        state: &mut ContentState,
        planned: &mut Vec<PlannedSend>,
        actions: &mut Vec<Action<WireMessage>>,
    ) {
        let cfg = self.config;
        let source = state.content.id.source;
        let send_validated = state.send_validated();
        // MBD.11 role restriction: only the designated processes create Echo/Ready.
        // Under MBD.2 a direct recipient of the single-hop SEND must still be allowed
        // to echo, otherwise the payload could not leave the source's neighborhood.
        let triggers = Triggers {
            send_validated,
            can_echo: !cfg.mbd.mbd11
                || quorum::is_echoer(cfg.n, cfg.f, source, self.id)
                || (cfg.mbd.mbd2 && send_validated),
            can_ready: !cfg.mbd.mbd11 || quorum::is_readier(cfg.n, cfg.f, source, self.id),
            echo_amplification: cfg.mbd.mbd2,
        };
        let at = bracha::Local {
            id: self.id,
            n: cfg.n,
            f: cfg.f,
            tracer: &self.tracer,
        };
        let step = state
            .bracha
            .step(at, state.content.id, triggers, &mut self.ids);
        for phase in step.created() {
            let key = DolevKey {
                phase,
                originator: self.id,
            };
            state.insert_own_instance(
                key,
                DolevInstance::self_delivered(cfg.max_path_combinations),
            );
        }
        // When both an Echo and a Ready become creatable at the same event, only the
        // Ready is transmitted (Sec. 6.2); this suppression is part of the MBD.2
        // amplification machinery.
        if step.echo && !(step.together && cfg.mbd.mbd2) {
            self.plan_own(state, BrachaKind::Echo, planned);
        }
        if step.ready {
            self.plan_own(state, BrachaKind::Ready, planned);
        }
        if step.deliver {
            self.gc.on_delivered(state.content.id);
            let delivery = Delivery {
                id: state.content.id,
                payload: state.content.payload.clone(),
            };
            self.deliveries.push(delivery.clone());
            actions.push(Action::Deliver(delivery));
        }
    }

    /// Plans the transmission of a newly created message of this process (its own SEND,
    /// ECHO or READY), applying the MBD.8/9 destination exclusions and the MBD.12 fanout
    /// reduction.
    fn plan_own(&self, state: &ContentState, phase: BrachaKind, planned: &mut Vec<PlannedSend>) {
        let cfg = self.config;
        let excluded = mbd_exclusions(
            cfg.mbd,
            phase,
            &state.ready_neighbors,
            &state.neighbors_bd_delivered,
        );
        let mut targets: Vec<ProcessId> = self
            .neighbors
            .iter()
            .copied()
            .filter(|&q| !excluded(q))
            .collect();
        if cfg.mbd.mbd12 {
            let limit = cfg.ready_quorum();
            if targets.len() > limit {
                if cfg.mbd.mbd11 {
                    // Prefer neighbors that actively participate in this broadcast
                    // (Sec. 6.6 discussion of the MBD.11 + MBD.12 combination).
                    let source = state.content.id.source;
                    targets.sort_by_key(|&q| {
                        let active = quorum::is_echoer(cfg.n, cfg.f, source, q)
                            || quorum::is_readier(cfg.n, cfg.f, source, q);
                        (if active { 0 } else { 1 }, q)
                    });
                } else {
                    targets.sort_unstable();
                }
                targets.truncate(limit);
            }
        }
        for to in targets {
            planned.push(PlannedSend {
                to,
                phase,
                originator: self.id,
                path: Vec::new(),
                newly_created: true,
            });
        }
    }
}

/// The MBD.8 / MBD.9 destination exclusions for one content's messages of `phase`. It
/// borrows only the two neighbor sets, so it can run while one of the content's Dolev
/// instances is borrowed mutably.
fn mbd_exclusions<'a>(
    mbd: MbdFlags,
    phase: BrachaKind,
    ready_neighbors: &'a PathSet,
    bd_delivered: &'a PathSet,
) -> impl Fn(ProcessId) -> bool + 'a {
    move |q| {
        (mbd.mbd9 && bd_delivered.contains(q))
            || (mbd.mbd8 && phase == BrachaKind::Echo && ready_neighbors.contains(q))
    }
}

impl BdProcess {
    // ------------------------------------------------------------------
    // MBD.3 / MBD.4 merging and wire-format materialization
    // ------------------------------------------------------------------

    /// Turns the sends one event planned into wire messages, leaving `planned` empty.
    fn emit_planned(
        &mut self,
        content: &Content,
        planned: &mut Vec<PlannedSend>,
        actions: &mut Vec<Action<WireMessage>>,
    ) {
        // Nine messages in ten change nothing worth sending.
        if planned.is_empty() {
            return;
        }
        let cfg = self.node.config;
        // Group planned sends by destination to find merge opportunities: destinations
        // in increasing order, each one's sends in planning order.
        planned.sort_by_key(|send| send.to);
        let mut planned = planned.drain(..).peekable();
        let mut sends = std::mem::take(&mut self.group);
        while let Some(first) = planned.next() {
            let to = first.to;
            sends.push(first);
            while let Some(next) = planned.next_if(|send| send.to == to) {
                sends.push(next);
            }
            // MBD.4: merge a Ready with an Echo sharing the same path into a Ready_Echo.
            if cfg.mbd.mbd4 {
                self.merge_pair(
                    &mut sends,
                    BrachaKind::Ready,
                    BrachaKind::Echo,
                    MessageKind::ReadyEcho,
                    content,
                    to,
                    actions,
                );
            }
            // MBD.3: merge two Echos sharing the same path into an Echo_Echo.
            if cfg.mbd.mbd3 {
                self.merge_pair(
                    &mut sends,
                    BrachaKind::Echo,
                    BrachaKind::Echo,
                    MessageKind::EchoEcho,
                    content,
                    to,
                    actions,
                );
            }
            for send in sends.drain(..) {
                let message = self.make_message(
                    to,
                    send.phase.wire_kind(),
                    content,
                    send.originator,
                    None,
                    send.path,
                    send.newly_created,
                );
                actions.push(Action::Send { to, message });
            }
        }
        self.group = sends;
    }

    /// Extracts (at most) one pair of plannable sends of phases `outer`/`inner` with equal
    /// paths and emits the corresponding merged message.
    #[allow(clippy::too_many_arguments)]
    fn merge_pair(
        &mut self,
        sends: &mut Vec<PlannedSend>,
        outer: BrachaKind,
        inner: BrachaKind,
        merged_kind: MessageKind,
        content: &Content,
        to: ProcessId,
        actions: &mut Vec<Action<WireMessage>>,
    ) {
        let outer_idx = sends.iter().position(|s| s.phase == outer);
        let Some(outer_idx) = outer_idx else { return };
        let inner_idx = sends.iter().enumerate().position(|(i, s)| {
            i != outer_idx
                && s.phase == inner
                && s.path == sends[outer_idx].path
                && s.originator != sends[outer_idx].originator
        });
        let Some(inner_idx) = inner_idx else { return };
        let (first, second) = if outer_idx < inner_idx {
            (outer_idx, inner_idx)
        } else {
            (inner_idx, outer_idx)
        };
        let second_send = sends.remove(second);
        let first_send = sends.remove(first);
        let (outer_send, inner_send) = if first_send.phase == outer {
            (first_send, second_send)
        } else {
            (second_send, first_send)
        };
        let message = self.make_message(
            to,
            merged_kind,
            content,
            outer_send.originator,
            Some(inner_send.originator),
            outer_send.path,
            outer_send.newly_created,
        );
        actions.push(Action::Send { to, message });
    }

    /// Builds the wire representation of a message, applying the MBD.1 payload/local-ID
    /// association and the MBD.5 optional-field elisions.
    #[allow(clippy::too_many_arguments)]
    fn make_message(
        &mut self,
        to: ProcessId,
        kind: MessageKind,
        content: &Content,
        originator: ProcessId,
        originator2: Option<ProcessId>,
        path: Vec<ProcessId>,
        newly_created: bool,
    ) -> WireMessage {
        let cfg = self.node.config;
        let payload = if cfg.mbd.mbd1 {
            let local_id = match self.my_local_ids.get(content) {
                Some(&local_id) => local_id,
                None => {
                    let local_id = self.next_local_id;
                    self.next_local_id = local_id.wrapping_add(1);
                    self.my_local_ids.insert(content.clone(), local_id);
                    local_id
                }
            };
            if self.announced.insert((to, local_id)) {
                PayloadRef::Announce {
                    local_id,
                    payload: content.payload.clone(),
                }
            } else {
                PayloadRef::Local(local_id)
            }
        } else {
            PayloadRef::Inline(content.payload.clone())
        };
        let uses_local_ref = matches!(payload, PayloadRef::Local(_));
        let mbd5 = cfg.mbd.mbd5;
        let fields = FieldPresence {
            source: !(mbd5 && (kind == MessageKind::Send || uses_local_ref)),
            bid: !(mbd5 && uses_local_ref),
            originator: kind != MessageKind::Send && !(mbd5 && newly_created),
            path: !(cfg.mbd.mbd2 && kind == MessageKind::Send),
        };
        WireMessage {
            kind,
            id: content.id,
            originator,
            originator2,
            payload,
            path,
            fields,
        }
    }

    /// Body of [`Protocol::broadcast_into`]: initiates a broadcast, pushing the resulting
    /// actions onto `actions`.
    fn broadcast_inner(&mut self, payload: Payload, actions: &mut Vec<Action<WireMessage>>) {
        let id = BroadcastId::new(self.node.id, self.next_seq);
        self.next_seq += 1;
        self.node.tracer.emit(
            self.node.id,
            id.source,
            id.seq,
            brb_trace::TraceEventKind::Injected,
        );
        let content = Content::new(id, payload);
        let mut planned = std::mem::take(&mut self.planned);
        self.with_content(&content, |node, state| {
            // The source's own SEND instance is trivially Dolev-delivered.
            state.insert_own_instance(
                DolevKey {
                    phase: BrachaKind::Send,
                    originator: node.id,
                },
                DolevInstance::self_delivered(node.config.max_path_combinations),
            );
            node.plan_own(state, BrachaKind::Send, &mut planned);
            // Being the source, the Send is validated: this creates our Echo (and possibly
            // more, e.g. for tiny systems).
            node.bracha_transitions(state, &mut planned, actions);
        });
        self.emit_planned(&content, &mut planned, actions);
        self.planned = planned;
    }
}

impl Protocol for BdProcess {
    type Message = WireMessage;

    fn process_id(&self) -> ProcessId {
        self.node.id
    }

    fn next_seq(&self) -> u32 {
        self.next_seq
    }

    fn set_next_seq(&mut self, seq: u32) {
        self.next_seq = seq;
    }

    fn broadcast_into(&mut self, payload: Payload, out: &mut ActionBuf<WireMessage>) {
        self.node.gc.on_event();
        self.broadcast_inner(payload, out.as_mut_vec());
        self.run_gc();
    }

    fn handle_message_into(
        &mut self,
        from: ProcessId,
        message: WireMessage,
        out: &mut ActionBuf<WireMessage>,
    ) {
        self.node.gc.on_event();
        self.receive(from, message, out.as_mut_vec());
        self.run_gc();
    }

    fn deliveries(&self) -> &[Delivery] {
        &self.node.deliveries
    }

    fn message_size(message: &WireMessage) -> usize {
        message.wire_size()
    }

    fn state_bytes(&self) -> usize {
        self.footprint.bytes
    }

    fn stored_paths(&self) -> usize {
        BdProcess::stored_paths(self)
    }

    fn set_gc_policy(&mut self, policy: GcPolicy) {
        self.node.gc.set_policy(policy);
    }

    fn note_time(&mut self, now_ms: u64) {
        self.node.gc.note_time(now_ms);
    }

    fn gc_retired(&self) -> u64 {
        self.node.gc.retired_count()
    }

    fn set_tracer(&mut self, tracer: brb_trace::Tracer) {
        self.node.tracer = tracer;
    }
}

#[cfg(test)]
mod tests;
