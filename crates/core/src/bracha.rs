//! Bracha's authenticated double-echo broadcast (Algorithm 1 of the paper).
//!
//! This is the classic BRB protocol for **asynchronous, fully connected** networks with
//! authenticated, reliable point-to-point links, tolerating `f < N/3` Byzantine processes.
//! It is used in this repository as the upper protocol layer of the Bracha–Dolev
//! combination (see [`crate::bd`]) and as a standalone baseline on complete topologies.
//!
//! The protocol has three phases. The source sends `SEND(m)` to every process. On the
//! first `SEND(m)`, a process sends `ECHO(m)` to every process. On `⌈(N+f+1)/2⌉` ECHOs
//! (or `f+1` READYs), a process sends `READY(m)`. On `2f+1` READYs, it delivers `m`.
//!
//! The quorum rule lives in one place, `BrachaInstance`: one content's flags and Echo /
//! Ready origin sets, and a fixpoint `step` that creates this process's Echo and Ready,
//! counts them at once, and decides delivery. Three engines drive it:
//!
//! * [`BrachaProcess`], the protocol on a complete graph, sends what a step creates to
//!   every other process;
//! * [`crate::bracha_rc::BrachaOverRc`] RC-broadcasts it over a reliable-communication
//!   substrate (Sec. 4.3);
//! * [`crate::bd`] disseminates it through Dolev instances and passes its cross-layer
//!   differences as arguments: MBD.2 echo amplification and MBD.11's role restrictions.
//!
//! The first two also share their per-content layer, `BrachaLayer`: the ingress
//! refusals, the instances keyed by content, the per-id record, the delivery log and GC.
//!
//! **A correct process echoes at most one content per broadcast id.** The engines keep
//! one instance per *content*, so a faulty source can send two Sends with one id; the
//! per-id record (`IdRecord`, next to the delivered ids) lets a process echo only the
//! first, whether its Echo is triggered by a Send or by MBD.2 amplification. That is
//! what makes BRB-Agreement hold:
//!
//! * two Echo quorums of `⌈(N+f+1)/2⌉` intersect in at least `f+1` processes, so at
//!   least one correct process is in both;
//! * a correct process echoes one content per id, so only one content per id can reach
//!   an Echo quorum;
//! * Ready amplification needs `f+1` Readys, so at least one comes from a correct
//!   process, and that Ready traces back to that one quorum. (Under MBD.2 a Ready also
//!   counts as an Echo; by induction over the correct Readys in the order they are sent,
//!   each is for that same content, so no second quorum forms.)
//!
//! `tests/equivocation.rs` runs the attack against every engine.

use serde::{Deserialize, Serialize};

use crate::gc::{GcPolicy, GcState};
use crate::hash::WordMap;
use crate::pathset::PathSet;
use crate::protocol::{ActionBuf, Protocol};
use crate::quorum;
use crate::stack::WireCodec;
use crate::types::{Action, BroadcastId, Content, Delivery, Payload, ProcessId};
use crate::wire::{
    put_content_head, split_content_head, FIELD_BID, FIELD_MTYPE, FIELD_PAYLOAD_SIZE,
    FIELD_PROCESS_ID,
};

/// Phase of a Bracha message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BrachaKind {
    /// Phase 1: the source disseminates the payload.
    Send = 0,
    /// Phase 2: witnesses echo the payload.
    Echo = 1,
    /// Phase 3: processes announce they are ready to deliver.
    Ready = 2,
}

/// A message of Bracha's protocol.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BrachaMessage {
    /// Message phase.
    pub kind: BrachaKind,
    /// Broadcast identifier `(s, bid)`.
    pub id: BroadcastId,
    /// Payload data.
    pub payload: Payload,
}

impl BrachaMessage {
    /// Wire size following Table 3: `mtype + s + bid + payloadSize + payload`.
    pub fn wire_size(&self) -> usize {
        FIELD_MTYPE + FIELD_PROCESS_ID + FIELD_BID + FIELD_PAYLOAD_SIZE + self.payload.len()
    }
}

/// Frame: `mtype (1 B)` (the kind's discriminant), then the content head. The same bytes
/// are the RC payload of [`crate::bracha_rc::BrachaOverRc`].
impl WireCodec for BrachaMessage {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.reserve(self.wire_size()); // the whole frame: Table 3 counts each of its bytes
        buf.push(self.kind as u8);
        put_content_head(buf, self.id, &self.payload);
    }

    fn decode_wire(frame: &[u8]) -> Option<Self> {
        let (&tag, head) = frame.split_first()?;
        let kind = *[BrachaKind::Send, BrachaKind::Echo, BrachaKind::Ready].get(tag as usize)?;
        let (id, payload, rest) = split_content_head(head)?;
        rest.is_empty().then(|| BrachaMessage {
            kind,
            id,
            payload: Payload::new(payload),
        })
    }

    fn peek_broadcast_id(frame: &[u8]) -> Option<BroadcastId> {
        Some(split_content_head(frame.get(FIELD_MTYPE..)?)?.0)
    }
}

/// The process running a Bracha instance, as [`BrachaInstance::step`] sees it.
#[derive(Clone, Copy)]
pub(crate) struct Local<'a> {
    pub(crate) id: ProcessId,
    pub(crate) n: usize,
    pub(crate) f: usize,
    pub(crate) tracer: &'a brb_trace::Tracer,
}

/// What the engine knows about a content that its origin sets do not.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Triggers {
    /// The source's Send is validated: received on the source's own link (or RC-delivered
    /// from it), or Dolev-delivered in [`crate::bd`].
    pub(crate) send_validated: bool,
    /// Whether this process may create its Echo (MBD.11 restricts it to echoers).
    pub(crate) can_echo: bool,
    /// Whether this process may create its Ready (MBD.11 restricts it to readiers).
    pub(crate) can_ready: bool,
    /// MBD.2: `f+1` Echos trigger this process's Echo, and a Ready counts as an Echo of
    /// its originator.
    pub(crate) echo_amplification: bool,
}

/// What one [`BrachaInstance::step`] decided.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Step {
    /// This process created its Echo.
    pub(crate) echo: bool,
    /// This process created its Ready.
    pub(crate) ready: bool,
    /// The Echo and the Ready became creatable in the same round of the fixpoint, before
    /// either was counted (MBD.2 then transmits only the Ready).
    pub(crate) together: bool,
    /// The content reached the delivery quorum and no content of its id was delivered
    /// before: deliver it.
    pub(crate) deliver: bool,
}

impl Step {
    /// The kinds of the messages this step created, Echo first.
    pub(crate) fn created(self) -> impl Iterator<Item = BrachaKind> {
        [
            (self.echo, BrachaKind::Echo),
            (self.ready, BrachaKind::Ready),
        ]
        .into_iter()
        .filter_map(|(created, kind)| created.then_some(kind))
    }
}

/// What this process did under each broadcast id, whichever contents a faulty source sent
/// under it: echo at most one of them, deliver at most one. Pruned with the id's instances
/// by GC, and not counted in `state_bytes`.
#[derive(Debug, Clone, Default)]
pub(crate) struct IdRecord {
    acted: WordMap<BroadcastId, Acted>,
}

#[derive(Debug, Clone, Copy, Default)]
struct Acted {
    echoed: bool,
    delivered: bool,
}

impl IdRecord {
    /// Whether some content of `id` was delivered.
    pub(crate) fn has_delivered(&self, id: BroadcastId) -> bool {
        self.acted.get(&id).is_some_and(|acted| acted.delivered)
    }

    /// Forgets `id`; the GC watermark keeps rejecting it, which preserves BRB-No
    /// duplication (and the single Echo) after the prune.
    pub(crate) fn retire(&mut self, id: BroadcastId) {
        self.acted.remove(&id);
    }
}

/// Algorithm 1's state for one content: `sentEcho`, `sentReady`, `delivered` and the
/// origins of the counted Echos and Readys. Every engine refuses labels `>= n` at ingress,
/// so the origin sets are dense [`PathSet`]s.
#[derive(Debug, Clone, Default)]
pub(crate) struct BrachaInstance {
    pub(crate) sent_echo: bool,
    pub(crate) sent_ready: bool,
    /// The content reached the delivery quorum (delivered, unless another content of its
    /// id was delivered first).
    pub(crate) delivered: bool,
    pub(crate) echo_origins: PathSet,
    pub(crate) ready_origins: PathSet,
}

impl BrachaInstance {
    /// Counts a validated Echo or Ready of `origin`. A Send counts nothing: its validation
    /// is a trigger. With `echo_amplification` (MBD.2) a Ready also counts as its
    /// originator's Echo.
    pub(crate) fn count(&mut self, kind: BrachaKind, origin: ProcessId, echo_amplification: bool) {
        match kind {
            BrachaKind::Send => {}
            BrachaKind::Echo => {
                self.echo_origins.insert(origin);
            }
            BrachaKind::Ready => {
                self.ready_origins.insert(origin);
                if echo_amplification {
                    self.echo_origins.insert(origin);
                }
            }
        }
    }

    /// Applies the phase transitions until a fixpoint: create this process's Echo, create
    /// its Ready, deliver. A created message counts at once for its creator, the way
    /// Algorithm 1's send-to-all includes the sender; the engine transmits it to the
    /// others.
    pub(crate) fn step(
        &mut self,
        at: Local<'_>,
        id: BroadcastId,
        t: Triggers,
        ids: &mut IdRecord,
    ) -> Step {
        let trace = |kind| at.tracer.emit(at.id, id.source, id.seq, kind);
        let echo_quorum = quorum::echo_quorum(at.n, at.f);
        let mut step = Step::default();
        loop {
            let echo_trigger = t.send_validated
                || (t.echo_amplification
                    && self.echo_origins.len() >= quorum::echo_amplification(at.f));
            let want_echo = !self.sent_echo
                && t.can_echo
                && echo_trigger
                && !ids.acted.get(&id).is_some_and(|acted| acted.echoed);
            let ready_trigger = self.echo_origins.len() >= echo_quorum
                || self.ready_origins.len() >= quorum::ready_amplification(at.f);
            let want_ready = !self.sent_ready && t.can_ready && ready_trigger;
            if want_echo {
                self.sent_echo = true;
                ids.acted.entry(id).or_default().echoed = true;
                self.echo_origins.insert(at.id);
            }
            if want_ready {
                self.sent_ready = true;
                let echoes = self.echo_origins.len();
                trace(if echoes >= echo_quorum {
                    brb_trace::TraceEventKind::EchoThreshold { echoes }
                } else {
                    brb_trace::TraceEventKind::ReadyAmplified
                });
                trace(brb_trace::TraceEventKind::ReadySent);
                self.count(BrachaKind::Ready, at.id, t.echo_amplification);
            }
            let reached = !self.delivered && self.ready_origins.len() >= quorum::ready_quorum(at.f);
            if reached {
                self.delivered = true;
                let acted = ids.acted.entry(id).or_default();
                step.deliver = !std::mem::replace(&mut acted.delivered, true);
            }
            step.echo |= want_echo;
            step.ready |= want_ready;
            step.together |= want_echo && want_ready;
            if !(want_echo || want_ready || reached) {
                return step;
            }
        }
    }

    /// Memory proxy of the origin sets: 8 bytes per member. The flags are the engines' to
    /// count or not.
    pub(crate) fn bytes(&self) -> usize {
        8 * (self.echo_origins.len() + self.ready_origins.len())
    }
}

/// The per-content layer of an engine that runs Algorithm 1 on its own: one
/// [`BrachaInstance`] per content, the per-id record, the delivery log and GC. The
/// engine adds its send primitive.
#[derive(Debug, Clone)]
pub(crate) struct BrachaLayer {
    pub(crate) id: ProcessId,
    n: usize,
    f: usize,
    instances: WordMap<Content, BrachaInstance>,
    /// Running sum of [`BrachaLayer::content_bytes`] over `instances`.
    bytes: usize,
    ids: IdRecord,
    pub(crate) deliveries: Vec<Delivery>,
    pub(crate) next_seq: u32,
    pub(crate) gc: GcState,
    /// Structured-trace handle (disabled by default; one branch per would-be event).
    pub(crate) tracer: brb_trace::Tracer,
}

impl BrachaLayer {
    /// # Panics
    ///
    /// Panics if `f` is not smaller than `n / 3` or if `id >= n`.
    pub(crate) fn new(id: ProcessId, n: usize, f: usize) -> Self {
        assert!(id < n, "process id {id} out of range for n = {n}");
        assert!(
            f <= quorum::max_faults(n),
            "f = {f} violates f < N/3 for N = {n}"
        );
        Self {
            id,
            n,
            f,
            instances: WordMap::default(),
            bytes: 0,
            ids: IdRecord::default(),
            deliveries: Vec::new(),
            next_seq: 0,
            gc: GcState::new(GcPolicy::DISABLED),
            tracer: brb_trace::Tracer::disabled(),
        }
    }

    /// Memory proxy of one tracked content (Sec. 7.3 accounting, kept comparable with the
    /// other stacks): the payload copy the [`Content`] key buffers until retirement, the
    /// origin sets, and the three flags.
    fn content_bytes(content: &Content, instance: &BrachaInstance) -> usize {
        content.payload.len() + instance.bytes() + 3
    }

    /// The engine's memory proxy: the sum of [`BrachaLayer::content_bytes`].
    pub(crate) fn bytes(&self) -> usize {
        self.bytes
    }

    /// Mints the identifier of this process's next broadcast.
    pub(crate) fn next_id(&mut self) -> BroadcastId {
        let id = BroadcastId::new(self.id, self.next_seq);
        self.next_seq += 1;
        self.tracer.emit(
            self.id,
            id.source,
            id.seq,
            brb_trace::TraceEventKind::Injected,
        );
        id
    }

    /// Runs a Bracha message received from `origin` (the authenticated link's sender, or
    /// the RC origin) through its content's instance: hands each message the step creates
    /// to the engine's `send` primitive, Echo first, and returns the delivery it makes. A
    /// refused message does nothing.
    pub(crate) fn receive(
        &mut self,
        origin: ProcessId,
        message: BrachaMessage,
        mut send: impl FnMut(&BrachaMessage),
    ) -> Option<Delivery> {
        let id = message.id;
        // A label outside `0..n` comes from a faulty process: refuse the message before
        // it creates state for a process that does not exist.
        if origin >= self.n || id.source >= self.n {
            self.tracer
                .frame_refused(self.id, id.source, id.seq, brb_trace::DropCause::Malformed);
            return None;
        }
        // Messages for a retired instance are dropped deterministically: recreating the
        // entry below would resurrect pruned state (and could re-deliver).
        if self.gc.is_retired(id) {
            self.tracer.emit(
                self.id,
                id.source,
                id.seq,
                brb_trace::TraceEventKind::FrameDropped {
                    to: self.id,
                    cause: brb_trace::DropCause::GcRetired,
                },
            );
            return None;
        }
        let content = Content::new(id, message.payload.clone());
        let instance = self.instances.entry(content).or_insert_with_key(|content| {
            let fresh = BrachaInstance::default();
            self.bytes += Self::content_bytes(content, &fresh);
            fresh
        });
        let before = instance.bytes();
        instance.count(message.kind, origin, false);
        // Only the claimed source may originate a Send: the link (or the RC layer)
        // certifies the sender, so a Send relayed by anyone else validates nothing.
        let send_validated = message.kind == BrachaKind::Send && origin == id.source;
        let at = Local {
            id: self.id,
            n: self.n,
            f: self.f,
            tracer: &self.tracer,
        };
        let triggers = Triggers {
            send_validated,
            can_echo: true,
            can_ready: true,
            echo_amplification: false,
        };
        let step = instance.step(at, id, triggers, &mut self.ids);
        self.bytes = self.bytes + instance.bytes() - before;
        for kind in step.created() {
            send(&BrachaMessage {
                kind,
                id,
                payload: message.payload.clone(),
            });
        }
        if !step.deliver {
            return None;
        }
        self.gc.on_delivered(id);
        let delivery = Delivery {
            id,
            payload: message.payload,
        };
        self.deliveries.push(delivery.clone());
        Some(delivery)
    }

    /// Retires every instance whose retention window elapsed: the contents of its id and
    /// its per-id record are pruned.
    pub(crate) fn run_gc(&mut self) {
        for id in self.gc.due() {
            self.tracer.emit(
                self.id,
                id.source,
                id.seq,
                brb_trace::TraceEventKind::Retired,
            );
            self.instances.retain(|content, instance| {
                let keep = content.id != id;
                if !keep {
                    self.bytes -= Self::content_bytes(content, instance);
                }
                keep
            });
            self.ids.retire(id);
        }
    }
}

/// One process running Bracha's protocol on a fully connected network.
#[derive(Debug, Clone)]
pub struct BrachaProcess {
    layer: BrachaLayer,
}

impl BrachaProcess {
    /// Creates a Bracha process.
    ///
    /// # Panics
    ///
    /// Panics if `f` is not smaller than `n / 3` or if `id >= n`.
    pub fn new(id: ProcessId, n: usize, f: usize) -> Self {
        Self {
            layer: BrachaLayer::new(id, n, f),
        }
    }

    /// Runs one received message: sends what it creates to all, then delivers.
    fn receive(
        &mut self,
        from: ProcessId,
        message: BrachaMessage,
        actions: &mut Vec<Action<BrachaMessage>>,
    ) {
        let (me, n) = (self.layer.id, self.layer.n);
        let delivery = self.layer.receive(from, message, |created| {
            send_to_all(me, n, created, actions);
        });
        actions.extend(delivery.map(Action::Deliver));
    }
}

/// Sends `message` to every process but `me`: Bracha's sends are all-to-all, and the
/// sender's own copy was counted by the step that created the message.
fn send_to_all(
    me: ProcessId,
    n: usize,
    message: &BrachaMessage,
    actions: &mut Vec<Action<BrachaMessage>>,
) {
    for q in (0..n).filter(|&q| q != me) {
        actions.push(Action::send(q, message.clone()));
    }
}

impl Protocol for BrachaProcess {
    type Message = BrachaMessage;

    fn process_id(&self) -> ProcessId {
        self.layer.id
    }

    fn next_seq(&self) -> u32 {
        self.layer.next_seq
    }

    fn set_next_seq(&mut self, seq: u32) {
        self.layer.next_seq = seq;
    }

    fn broadcast_into(&mut self, payload: Payload, out: &mut ActionBuf<BrachaMessage>) {
        self.layer.gc.on_event();
        let send = BrachaMessage {
            kind: BrachaKind::Send,
            id: self.layer.next_id(),
            payload,
        };
        send_to_all(self.layer.id, self.layer.n, &send, out.as_mut_vec());
        self.receive(self.layer.id, send, out.as_mut_vec());
        self.layer.run_gc();
    }

    fn handle_message_into(
        &mut self,
        from: ProcessId,
        message: BrachaMessage,
        out: &mut ActionBuf<BrachaMessage>,
    ) {
        self.layer.gc.on_event();
        self.receive(from, message, out.as_mut_vec());
        self.layer.run_gc();
    }

    fn deliveries(&self) -> &[Delivery] {
        &self.layer.deliveries
    }

    fn message_size(message: &BrachaMessage) -> usize {
        message.wire_size()
    }

    fn state_bytes(&self) -> usize {
        self.layer.bytes()
    }

    fn stored_paths(&self) -> usize {
        // Bracha assumes direct authenticated links and never records transmission
        // paths; reported explicitly (rather than via the trait default) so that the
        // Sec. 7.3 memory tables show a deliberate zero, not a missing metric.
        0
    }

    fn set_gc_policy(&mut self, policy: GcPolicy) {
        self.layer.gc.set_policy(policy);
    }

    fn note_time(&mut self, now_ms: u64) {
        self.layer.gc.note_time(now_ms);
    }

    fn gc_retired(&self) -> u64 {
        self.layer.gc.retired_count()
    }

    fn set_tracer(&mut self, tracer: brb_trace::Tracer) {
        self.layer.tracer = tracer;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::footprint::check::{Checked, WalkState};

    impl BrachaLayer {
        /// Number of tracked contents.
        pub(crate) fn contents(&self) -> usize {
            self.instances.len()
        }

        /// The walk the running total replaced: every tracked content.
        pub(crate) fn walk_bytes(&self) -> usize {
            self.instances
                .iter()
                .map(|(content, s)| {
                    content.payload.len() + 8 * (s.echo_origins.len() + s.ready_origins.len()) + 3
                })
                .sum()
        }
    }

    impl WalkState for BrachaProcess {
        fn walk_state(&self) -> (usize, usize) {
            (self.layer.walk_bytes(), 0)
        }
    }

    /// Algorithm 1 written out, as the independent reference for [`BrachaInstance::step`]:
    /// membership as `Vec<bool>`, thresholds spelled out rather than taken from
    /// `quorum::`. `mbd2` makes a Ready count as an Echo and lets `f+1` Echos trigger an
    /// Echo; `can_echo` / `can_ready` are MBD.11's role restrictions.
    struct Reference {
        n: usize,
        f: usize,
        me: ProcessId,
        source: ProcessId,
        mbd2: bool,
        can_echo: bool,
        can_ready: bool,
        send_seen: bool,
        echoed: Vec<bool>,
        readied: Vec<bool>,
        sent_echo: bool,
        sent_ready: bool,
        delivered: bool,
    }

    impl Reference {
        /// Handles one message and returns `(echo created, ready created, delivered)`.
        fn on(&mut self, kind: BrachaKind, origin: ProcessId) -> (bool, bool, bool) {
            match kind {
                BrachaKind::Send => self.send_seen |= origin == self.source,
                BrachaKind::Echo => self.echoed[origin] = true,
                BrachaKind::Ready => {
                    self.readied[origin] = true;
                    self.echoed[origin] |= self.mbd2;
                }
            }
            let members = |set: &[bool]| set.iter().filter(|&&member| member).count();
            let mut out = (false, false, false);
            loop {
                let echo = !self.sent_echo
                    && self.can_echo
                    && (self.send_seen || (self.mbd2 && members(&self.echoed) > self.f));
                // ⌈(N+f+1)/2⌉ Echos (twice the Echos exceed N+f), or f+1 Readys.
                let ready = !self.sent_ready
                    && self.can_ready
                    && (2 * members(&self.echoed) > self.n + self.f
                        || members(&self.readied) > self.f);
                if echo {
                    self.sent_echo = true;
                    self.echoed[self.me] = true;
                }
                if ready {
                    self.sent_ready = true;
                    self.readied[self.me] = true;
                    self.echoed[self.me] |= self.mbd2;
                }
                let deliver = !self.delivered && members(&self.readied) > 2 * self.f;
                self.delivered |= deliver;
                out = (out.0 | echo, out.1 | ready, out.2 | deliver);
                if !(echo || ready || deliver) {
                    return out;
                }
            }
        }
    }

    /// `BrachaInstance::step` against Algorithm 1 written out, after every event of
    /// seeded random `(kind, origin)` sequences: n in {4, 7, 10, 31}, every tolerable f,
    /// with and without MBD.2, under each MBD.11 role.
    #[test]
    fn step_matches_algorithm_1_written_out() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(1_987);
        let tracer = brb_trace::Tracer::disabled();
        let kinds = [BrachaKind::Send, BrachaKind::Echo, BrachaKind::Ready];
        for n in [4, 7, 10, 31] {
            for f in 0..=(n - 1) / 3 {
                for variant in 0..8 {
                    let (mbd2, can_echo, can_ready) =
                        (variant & 1 != 0, variant & 2 == 0, variant & 4 == 0);
                    for _ in 0..8 {
                        let (me, source) = (rng.gen_range(0..n), rng.gen_range(0..n));
                        let mut reference = Reference {
                            n,
                            f,
                            me,
                            source,
                            mbd2,
                            can_echo,
                            can_ready,
                            send_seen: false,
                            echoed: vec![false; n],
                            readied: vec![false; n],
                            sent_echo: false,
                            sent_ready: false,
                            delivered: false,
                        };
                        let mut instance = BrachaInstance::default();
                        let mut ids = IdRecord::default();
                        let at = Local {
                            id: me,
                            n,
                            f,
                            tracer: &tracer,
                        };
                        let id = BroadcastId::new(source, 0);
                        for event in 0..4 * n {
                            let kind = kinds[rng.gen_range(0..3usize)];
                            let origin = rng.gen_range(0..n);
                            let expected = reference.on(kind, origin);
                            instance.count(kind, origin, mbd2);
                            let triggers = Triggers {
                                send_validated: reference.send_seen,
                                can_echo,
                                can_ready,
                                echo_amplification: mbd2,
                            };
                            let step = instance.step(at, id, triggers, &mut ids);
                            assert_eq!(
                                (step.echo, step.ready, step.deliver),
                                expected,
                                "n={n} f={f} variant={variant} event {event}: {kind:?} from {origin}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Drives a set of Bracha processes to quiescence by synchronously delivering every
    /// sent message (a minimal in-test network with no Byzantine behaviour).
    fn run_to_quiescence(
        processes: &mut [BrachaProcess],
        initial: Vec<(ProcessId, Action<BrachaMessage>)>,
    ) {
        let mut queue: Vec<(ProcessId, Action<BrachaMessage>)> = initial;
        while let Some((sender, action)) = queue.pop() {
            if let Action::Send { to, message } = action {
                let actions = processes[to].handle_checked(sender, message);
                for a in actions {
                    queue.push((to, a));
                }
            }
        }
        for p in processes.iter() {
            p.clone().assert_totals();
        }
    }

    fn new_system(n: usize, f: usize) -> Vec<BrachaProcess> {
        (0..n).map(|i| BrachaProcess::new(i, n, f)).collect()
    }

    #[test]
    fn all_correct_processes_deliver_a_correct_broadcast() {
        let n = 7;
        let mut processes = new_system(n, 2);
        let actions = processes[0].broadcast_checked(Payload::from("hello"));
        let initial: Vec<_> = actions.into_iter().map(|a| (0, a)).collect();
        run_to_quiescence(&mut processes, initial);
        for p in &processes {
            assert_eq!(
                p.deliveries().len(),
                1,
                "process {} did not deliver",
                p.process_id()
            );
            assert_eq!(p.deliveries()[0].payload, Payload::from("hello"));
            assert_eq!(p.deliveries()[0].id, BroadcastId::new(0, 0));
        }
    }

    #[test]
    fn no_duplication_across_two_broadcasts() {
        let n = 4;
        let mut processes = new_system(n, 1);
        for round in 0..2 {
            let actions =
                processes[1].broadcast_checked(Payload::from(format!("m{round}").as_str()));
            let initial: Vec<_> = actions.into_iter().map(|a| (1, a)).collect();
            run_to_quiescence(&mut processes, initial);
        }
        for p in &processes {
            assert_eq!(p.deliveries().len(), 2);
            let ids: Vec<_> = p.deliveries().iter().map(|d| d.id).collect();
            assert_eq!(ids, vec![BroadcastId::new(1, 0), BroadcastId::new(1, 1)]);
        }
    }

    #[test]
    fn send_from_non_source_is_ignored() {
        let mut p = BrachaProcess::new(2, 4, 1);
        let msg = BrachaMessage {
            kind: BrachaKind::Send,
            id: BroadcastId::new(0, 0),
            payload: Payload::from("forged"),
        };
        // Process 3 forwards a SEND claiming to originate at process 0: ignored.
        let actions = p.handle_checked(3, msg);
        assert!(actions.is_empty());
    }

    #[test]
    fn ready_amplification_takes_over_without_echo_quorum() {
        // With n = 4, f = 1: ready amplification = 2, delivery = 3.
        let mut p = BrachaProcess::new(0, 4, 1);
        let mk = |kind| BrachaMessage {
            kind,
            id: BroadcastId::new(3, 0),
            payload: Payload::from("m"),
        };
        assert!(p.handle_checked(1, mk(BrachaKind::Ready)).is_empty());
        // Second ready triggers the amplification: our own Ready is sent to everyone, and
        // since our own Ready also counts towards the quorum (1 + 2 remote = 3 = 2f+1),
        // the content is delivered at the same event.
        let actions = p.handle_checked(2, mk(BrachaKind::Ready));
        let sends: Vec<_> = actions
            .iter()
            .filter_map(|a| match a {
                Action::Send { to, message } => Some((*to, message.kind)),
                _ => None,
            })
            .collect();
        assert_eq!(sends.len(), 3);
        assert!(sends.iter().all(|(_, k)| *k == BrachaKind::Ready));
        assert!(actions.iter().any(|a| a.as_delivery().is_some()));
        // A third ready must not produce a duplicate delivery (BRB-No duplication).
        let actions = p.handle_checked(3, mk(BrachaKind::Ready));
        assert!(actions.iter().all(|a| a.as_delivery().is_none()));
        assert_eq!(p.deliveries().len(), 1);
    }

    #[test]
    fn equivocating_source_leads_to_at_most_one_delivery_per_id() {
        // A Byzantine source sends SEND(m1) to half the processes and SEND(m2) to the
        // other half, with the same broadcast id. Echo quorums cannot form for both, so
        // at most one payload is delivered by correct processes; and whichever is
        // delivered is delivered by all (agreement) — here neither reaches a quorum.
        let n = 4;
        let mut processes = new_system(n, 1);
        let id = BroadcastId::new(3, 0);
        let m1 = BrachaMessage {
            kind: BrachaKind::Send,
            id,
            payload: Payload::from("m1"),
        };
        let m2 = BrachaMessage {
            kind: BrachaKind::Send,
            id,
            payload: Payload::from("m2"),
        };
        // Byzantine process 3 equivocates towards 0/1 (m1) and 2 (m2).
        let mut queue: Vec<(ProcessId, Action<BrachaMessage>)> = Vec::new();
        for (target, msg) in [(0usize, m1.clone()), (1, m1), (2, m2)] {
            for a in processes[target].handle_checked(3, msg) {
                queue.push((target, a));
            }
        }
        // Drop every message addressed to the Byzantine process 3 and run to quiescence.
        while let Some((sender, action)) = queue.pop() {
            if let Action::Send { to, message } = action {
                if to == 3 {
                    continue;
                }
                for a in processes[to].handle_checked(sender, message) {
                    queue.push((to, a));
                }
            }
        }
        let delivered_payloads: Vec<_> = processes[..3]
            .iter()
            .flat_map(|p| p.deliveries().iter().map(|d| d.payload.clone()))
            .collect();
        // Either nobody delivered, or everyone delivered the same payload.
        if !delivered_payloads.is_empty() {
            assert!(delivered_payloads.windows(2).all(|w| w[0] == w[1]));
        }
        for p in &processes[..3] {
            assert!(p.deliveries().len() <= 1);
        }
    }

    #[test]
    fn wire_size_matches_table3() {
        let m = BrachaMessage {
            kind: BrachaKind::Echo,
            id: BroadcastId::new(0, 0),
            payload: Payload::filled(0, 1024),
        };
        assert_eq!(m.wire_size(), 1 + 4 + 4 + 4 + 1024);
    }

    #[test]
    fn state_bytes_grow_with_activity() {
        let mut p = BrachaProcess::new(0, 4, 1);
        let before = p.state_bytes();
        p.handle_checked(
            1,
            BrachaMessage {
                kind: BrachaKind::Echo,
                id: BroadcastId::new(2, 0),
                payload: Payload::from("m"),
            },
        );
        assert!(p.state_bytes() > before);
    }

    #[test]
    fn gc_retires_delivered_instances_and_drops_replays() {
        let n = 4;
        let mut processes = new_system(n, 1);
        for p in &mut processes {
            p.set_gc_policy(GcPolicy::after_events(2));
        }
        let actions = processes[0].broadcast_checked(Payload::from("gc"));
        let initial: Vec<_> = actions.into_iter().map(|a| (0, a)).collect();
        run_to_quiescence(&mut processes, initial);
        assert!(processes.iter().all(|p| p.deliveries().len() == 1));
        // Push every process past its retention window with unrelated traffic.
        let unrelated = |seq| BrachaMessage {
            kind: BrachaKind::Echo,
            id: BroadcastId::new(1, seq),
            payload: Payload::from("pad"),
        };
        for p in &mut processes {
            for seq in 10..14 {
                p.handle_checked(2, unrelated(seq));
            }
            assert!(p.gc_retired() >= 1, "the delivered instance must retire");
        }
        let p = &mut processes[3];
        let retired_state = p.state_bytes();
        // Replaying the full READY quorum of the retired broadcast must neither
        // re-deliver nor recreate state.
        for from in 0..3 {
            let actions = p.handle_checked(
                from,
                BrachaMessage {
                    kind: BrachaKind::Ready,
                    id: BroadcastId::new(0, 0),
                    payload: Payload::from("gc"),
                },
            );
            assert!(actions.is_empty(), "replayed frames are no-ops");
        }
        assert_eq!(p.deliveries().len(), 1, "no duplicate delivery");
        assert_eq!(p.state_bytes(), retired_state, "no state regrowth");
    }

    #[test]
    #[should_panic(expected = "violates")]
    fn rejects_invalid_fault_threshold() {
        BrachaProcess::new(0, 6, 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_id() {
        BrachaProcess::new(9, 4, 1);
    }

    #[test]
    fn labels_outside_the_system_are_refused_before_any_state_exists() {
        let mut p = BrachaProcess::new(1, 4, 1);
        let wild = 4_000_000_000usize;
        let echo = |source: ProcessId| BrachaMessage {
            kind: BrachaKind::Echo,
            id: BroadcastId::new(source, 0),
            payload: Payload::from("m"),
        };
        for (from, message) in [(2, echo(wild)), (2, echo(4)), (wild, echo(0))] {
            assert!(p.handle_checked(from, message).is_empty());
            assert_eq!(p.state_bytes(), 0);
            assert_eq!(p.layer.contents(), 0);
        }
        p.handle_checked(2, echo(3));
        assert!(p.state_bytes() > 0);
    }
}
