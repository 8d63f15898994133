//! One stack API for every backend: object-safe engines over encoded wire bytes.
//!
//! The paper's central practical claim (Sec. 7.1) is that the *same* protocol engine runs
//! unchanged under a discrete-event simulation and under a real socket deployment. The
//! [`crate::protocol::Protocol`] trait delivers that for one stack at a time, but it is
//! not object-safe (its message type is associated, and `message_size` has no receiver),
//! so every driver had to be hard-wired to one concrete engine. This module closes that
//! gap with three pieces:
//!
//! * [`WireCodec`] — the interface of a protocol's binary framing. Each message type
//!   implements it in the module that defines the message (`WireMessage` in
//!   [`crate::wire`], `CpaMessage` in [`crate::cpa`], `DolevMessage` in [`crate::dolev`],
//!   `RoutedDolevMessage` in [`crate::dolev_routed`], `BrachaMessage` in
//!   [`crate::bracha`]), so a layout sits next to its Table 3 size;
//! * [`DynEngine`] — an **object-safe** engine interface that speaks encoded wire bytes
//!   in and out (plus deliveries and the Sec. 7.3 memory proxies);
//! * [`StackSpec`] — a name for each protocol stack of the crate, with a
//!   builder that constructs a boxed [`DynEngine`] from `(Config, Graph, ProcessId)`.
//!   Every built engine is one typed [`Protocol`] behind the one adapter that turns its
//!   sink methods into encoded frames.
//!
//! Drivers that want to stay on the typed fast path (the simulator's hot loop) can wrap a
//! boxed engine in [`DynStack`], which implements [`Protocol`] over [`EncodedFrame`]
//! messages — so `brb_sim::Simulation<DynStack>` runs any stack, while byte-oriented
//! drivers (`brb-runtime`, `brb-net`) drive [`DynEngine`] directly and never decode a
//! frame themselves.
//!
//! Outputs are collected through the allocation-free sink [`WireActionBuf`], mirroring
//! [`crate::protocol::ActionBuf`] at the encoded-bytes level.
//!
//! # Example: the same broadcast through any stack
//!
//! ```
//! use brb_core::config::Config;
//! use brb_core::stack::{StackSpec, WireAction, WireActionBuf};
//! use brb_core::types::Payload;
//! use brb_graph::generate;
//!
//! let graph = generate::figure1_example();
//! let config = Config::bdopt_mbd1(10, 1);
//! for stack in [StackSpec::Bd, StackSpec::Dolev, StackSpec::BrachaRoutedDolev] {
//!     let mut engines: Vec<_> = (0..10).map(|i| stack.build(&config, &graph, i)).collect();
//!     let mut out = WireActionBuf::new();
//!     engines[0].broadcast_wire(Payload::from("hello"), &mut out);
//!     let mut queue: Vec<(usize, WireAction)> = out.drain().map(|a| (0, a)).collect();
//!     while let Some((from, action)) = queue.pop() {
//!         if let WireAction::Send { to, frame, .. } = action {
//!             engines[to].handle_frame(from, &frame, &mut out);
//!             queue.extend(out.drain().map(|a| (to, a)));
//!         }
//!     }
//!     assert!(engines.iter().all(|e| e.deliveries().len() == 1), "{stack}");
//! }
//! ```

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use bytes::Bytes;

use crate::bd::BdProcess;
use crate::bracha::BrachaProcess;
use crate::bracha_rc::{peek_bracha_over_rc, BrachaOverRc};
use crate::config::Config;
use crate::cpa::CpaProcess;
use crate::dolev::DolevProcess;
use crate::dolev_routed::RoutedDolev;
use crate::protocol::{ActionBuf, Protocol};
use crate::types::{Action, BroadcastId, Delivery, Payload, ProcessId};
use crate::wire::WireArena;
use brb_graph::Graph;

// ---------------------------------------------------------------------------
// Wire codec interface
// ---------------------------------------------------------------------------

/// A binary framing for a protocol's link-level message type.
///
/// Every field is encoded big-endian, in the field order of the paper's Table 3, so the
/// encodings double as documentation of each protocol's wire format. Decoding must reject
/// any malformed frame by returning `None` (a Byzantine peer controls the bytes).
///
/// Note that the encoded length may differ from [`Protocol::message_size`]: the Table 3
/// accounting elides fields a real framing needs for unambiguous decoding (presence
/// masks, explicit lengths). Drivers account traffic with `message_size`, not with
/// `encode_wire().len()`.
pub trait WireCodec: Sized {
    /// Appends the message's self-contained binary frame to `buf` — the arena-backed
    /// encode path: a whole burst of frames stages into one reused buffer and is copied
    /// out once, so a burst allocates one shared buffer however many frames it holds (see
    /// [`crate::wire::WireArena`]).
    fn encode_into(&self, buf: &mut Vec<u8>);

    /// Encodes the message into a self-contained binary frame in a fresh buffer (hosts
    /// on the hot path use [`WireCodec::encode_into`] through an arena instead).
    fn encode_wire(&self) -> Bytes {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        Bytes::from(buf)
    }

    /// Decodes a frame produced by [`WireCodec::encode_wire`]; `None` if malformed.
    fn decode_wire(frame: &[u8]) -> Option<Self>;

    /// Reads just the [`BroadcastId`] an encoded frame refers to, without a full
    /// decode — what the benchmark's codec replay times per frame. Returns `None` when
    /// the frame ends inside the fixed header or content head that carries the identifier
    /// (a full decode would reject it anyway).
    fn peek_broadcast_id(frame: &[u8]) -> Option<BroadcastId>;
}

// ---------------------------------------------------------------------------
// The object-safe engine interface
// ---------------------------------------------------------------------------

/// An action produced by a [`DynEngine`]: a pre-encoded frame to put on a link, or a
/// delivery to the local application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireAction {
    /// Transmit `frame` to direct neighbor `to`.
    Send {
        /// Destination (must be a direct neighbor).
        to: ProcessId,
        /// The encoded message, ready for the link.
        frame: Bytes,
        /// Size of the message under the paper's Table 3 accounting (what the experiment
        /// harnesses report; the encoded frame itself may be a few bytes longer).
        wire_size: usize,
    },
    /// Deliver a broadcast to the local application.
    Deliver(Delivery),
}

/// Reusable sink for [`WireAction`]s, the encoded-bytes counterpart of
/// [`crate::protocol::ActionBuf`]. Drivers keep one alive across events; together with
/// the persistent typed sink inside the engines built by [`StackSpec::build`], the
/// steady-state event path reuses its buffers instead of allocating output vectors per
/// event (a step's frames are encoded into one fresh shared buffer, each run of equal
/// sends once).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireActionBuf {
    actions: Vec<WireAction>,
}

impl WireActionBuf {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one action.
    pub fn push(&mut self, action: WireAction) {
        self.actions.push(action);
    }

    /// Number of buffered actions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Removes every buffered action, keeping the allocation.
    pub fn clear(&mut self) {
        self.actions.clear();
    }

    /// Drains the buffered actions in push order, keeping the allocation.
    pub fn drain(&mut self) -> std::vec::Drain<'_, WireAction> {
        self.actions.drain(..)
    }

    /// The buffered actions, in push order.
    pub fn as_slice(&self) -> &[WireAction] {
        &self.actions
    }
}

/// An object-safe broadcast engine speaking encoded wire bytes.
///
/// This is the interface the deployment backends (`brb-runtime`, `brb-net`) drive: they
/// move opaque frames between mailboxes and sockets and never need to know which protocol
/// stack produced them. [`StackSpec::build`] boxes any stack of the crate behind it.
pub trait DynEngine: Send {
    /// Identifier of the process running this engine.
    fn process_id(&self) -> ProcessId;

    /// Initiates the broadcast of `payload`, pushing the resulting actions into `out`.
    fn broadcast_wire(&mut self, payload: Payload, out: &mut WireActionBuf);

    /// Initiates a broadcast under an explicitly chosen sequence number, leaving the
    /// engine's own counter untouched (see [`Protocol::broadcast_with_seq_into`]).
    ///
    /// This is the **client-instance namespace** hook: the engine's own counter mints
    /// ids in [`crate::types::NAMESPACE_CLIENT`] (plain broadcasts, workload-generator
    /// schedules), while layered clients such as `brb-consensus` pass
    /// `seq = namespaced_seq(NAMESPACE_CONSENSUS, local)` so their instances can never
    /// collide with the engine-counter ids on the same node.
    fn broadcast_wire_seq(
        &mut self,
        seq: crate::types::BroadcastSeq,
        payload: Payload,
        out: &mut WireActionBuf,
    );

    /// Handles an encoded frame received from direct neighbor `from` over the
    /// authenticated link, pushing the resulting actions into `out`.
    ///
    /// Malformed frames are silently dropped (the sender is necessarily faulty).
    fn handle_frame(&mut self, from: ProcessId, frame: &[u8], out: &mut WireActionBuf);

    /// All payloads delivered so far, in delivery order.
    fn deliveries(&self) -> &[Delivery];

    /// Approximate number of bytes of protocol state held (Sec. 7.3 memory proxy).
    fn state_bytes(&self) -> usize;

    /// Number of transmission paths currently stored for disjoint-path verification.
    fn stored_paths(&self) -> usize;

    /// Installs an instance-GC retention policy (see [`crate::gc::GcPolicy`]).
    fn set_gc_policy(&mut self, policy: crate::gc::GcPolicy);

    /// Feeds the host's clock (milliseconds) for time-based retention windows.
    fn note_time(&mut self, now_ms: u64);

    /// Number of broadcast instances retired through GC so far.
    fn gc_retired(&self) -> u64;

    /// Installs a structured-trace handle (see [`brb_trace::Tracer`]).
    ///
    /// Unlike the other methods this one is **defaulted** (to a no-op): tracing is
    /// optional, and existing `DynEngine` implementations outside this crate — e.g.
    /// decorators like `brb-consensus`'s engine — keep compiling and simply stay
    /// silent until they opt in.
    fn set_tracer(&mut self, _tracer: brb_trace::Tracer) {}

    /// Reads just the [`BroadcastId`] an inbound frame refers to, without mutating the
    /// engine or fully decoding the frame — how the benchmark attributes each frame an
    /// engine handles or sends to the broadcast request it serves.
    ///
    /// **Defaulted** to `None` (the frame is attributed to no broadcast), so decorator
    /// engines outside this crate keep compiling; the stacks built by
    /// [`StackSpec::build`] answer through their codec's
    /// [`WireCodec::peek_broadcast_id`].
    fn frame_broadcast_id(&self, _frame: &[u8]) -> Option<BroadcastId> {
        None
    }
}

/// The one [`DynEngine`] adapter: a typed protocol paired with a **persistent** typed
/// action sink. The engines built by [`StackSpec::build`] are wrapped in it, so their
/// steady-state event path reuses one buffer across events.
///
/// Outbound frames are staged through a persistent [`WireArena`]: one engine step's
/// burst of sends encodes into a single shared buffer, each run of equal consecutive
/// sends encodes once, and each [`WireAction::Send`] carries a zero-copy slice of the
/// buffer. A step that sends nothing allocates nothing.
struct SinkEngine<P: Protocol> {
    inner: P,
    scratch: ActionBuf<P::Message>,
    arena: WireArena,
    /// Encoded actions of the current burst, kept in emit order while the arena stages
    /// the frame bytes (reused across calls, like `scratch`).
    staged: Vec<StagedAction>,
    /// How to peek a frame's *instance-level* [`BroadcastId`] (the benchmark's request
    /// attribution key). Defaults to the link-level codec's peek; composed stacks
    /// override it — a Bracha-over-RC frame's outer id names the RC sub-instance, but
    /// every RC sub-instance of one Bracha broadcast serves the same client broadcast,
    /// so those stacks peek the Bracha id embedded in the RC payload instead.
    peek: fn(&[u8]) -> Option<BroadcastId>,
}

/// One action of a burst with its frame bytes still in the arena: sends take the next
/// staged frame in push order, or with `repeat` the previous send's frame again;
/// deliveries pass through.
enum StagedAction {
    Send {
        to: ProcessId,
        wire_size: usize,
        repeat: bool,
    },
    Deliver(Delivery),
}

impl<P: Protocol> SinkEngine<P>
where
    P::Message: WireCodec + PartialEq,
{
    fn new(inner: P) -> Self {
        Self {
            inner,
            scratch: ActionBuf::new(),
            arena: WireArena::new(),
            staged: Vec::new(),
            peek: P::Message::peek_broadcast_id,
        }
    }

    /// Overrides the instance-id peek for composed stacks (see the `peek` field).
    fn with_peek(mut self, peek: fn(&[u8]) -> Option<BroadcastId>) -> Self {
        self.peek = peek;
        self
    }

    /// Drains the typed scratch buffer into `out`: pass 1 encodes every send into the
    /// arena's staging buffer, pass 2 seals the burst and emits the actions in their
    /// original order with zero-copy frame slices. A send whose message equals the
    /// previous send's (a relay to every neighbor, an all-peer Echo) is not encoded
    /// again: it shares that send's frame and size. A step without actions returns at
    /// once and allocates nothing.
    fn flush(&mut self, out: &mut WireActionBuf) {
        if self.scratch.is_empty() {
            return;
        }
        let mut previous: Option<(P::Message, usize)> = None;
        for action in self.scratch.drain() {
            match action {
                Action::Send { to, message } => match &previous {
                    Some((sent, wire_size)) if *sent == message => {
                        self.staged.push(StagedAction::Send {
                            to,
                            wire_size: *wire_size,
                            repeat: true,
                        });
                    }
                    _ => {
                        let wire_size = P::message_size(&message);
                        self.arena.push_with(|buf| message.encode_into(buf));
                        self.staged.push(StagedAction::Send {
                            to,
                            wire_size,
                            repeat: false,
                        });
                        previous = Some((message, wire_size));
                    }
                },
                Action::Deliver(delivery) => self.staged.push(StagedAction::Deliver(delivery)),
            }
        }
        let mut frames = self.arena.seal();
        let mut frame = None;
        for staged in self.staged.drain(..) {
            out.push(match staged {
                StagedAction::Send {
                    to,
                    wire_size,
                    repeat,
                } => {
                    if !repeat {
                        frame = frames.next();
                    }
                    WireAction::Send {
                        to,
                        frame: frame.clone().expect("one staged frame per distinct send"),
                        wire_size,
                    }
                }
                StagedAction::Deliver(delivery) => WireAction::Deliver(delivery),
            });
        }
    }
}

impl<P> DynEngine for SinkEngine<P>
where
    P: Protocol + Send,
    P::Message: WireCodec + PartialEq + Send,
{
    fn process_id(&self) -> ProcessId {
        Protocol::process_id(&self.inner)
    }

    fn broadcast_wire(&mut self, payload: Payload, out: &mut WireActionBuf) {
        self.scratch.clear();
        self.inner.broadcast_into(payload, &mut self.scratch);
        self.flush(out);
    }

    fn broadcast_wire_seq(
        &mut self,
        seq: crate::types::BroadcastSeq,
        payload: Payload,
        out: &mut WireActionBuf,
    ) {
        self.scratch.clear();
        self.inner
            .broadcast_with_seq_into(seq, payload, &mut self.scratch);
        self.flush(out);
    }

    fn handle_frame(&mut self, from: ProcessId, frame: &[u8], out: &mut WireActionBuf) {
        let Some(message) = P::Message::decode_wire(frame) else {
            return;
        };
        self.scratch.clear();
        self.inner
            .handle_message_into(from, message, &mut self.scratch);
        self.flush(out);
    }

    fn deliveries(&self) -> &[Delivery] {
        Protocol::deliveries(&self.inner)
    }

    fn state_bytes(&self) -> usize {
        Protocol::state_bytes(&self.inner)
    }

    fn stored_paths(&self) -> usize {
        Protocol::stored_paths(&self.inner)
    }

    fn set_gc_policy(&mut self, policy: crate::gc::GcPolicy) {
        Protocol::set_gc_policy(&mut self.inner, policy)
    }

    fn note_time(&mut self, now_ms: u64) {
        Protocol::note_time(&mut self.inner, now_ms)
    }

    fn gc_retired(&self) -> u64 {
        Protocol::gc_retired(&self.inner)
    }

    fn set_tracer(&mut self, tracer: brb_trace::Tracer) {
        Protocol::set_tracer(&mut self.inner, tracer)
    }

    fn frame_broadcast_id(&self, frame: &[u8]) -> Option<BroadcastId> {
        (self.peek)(frame)
    }
}

// ---------------------------------------------------------------------------
// Stack specification
// ---------------------------------------------------------------------------

/// A name for each protocol stack of this crate.
///
/// A `StackSpec` is what experiment sweeps, CSV outputs and command-line flags use to
/// identify a stack; [`StackSpec::build`] turns it into a running boxed engine. The CPA
/// variants reuse [`Config::f`] as the `t`-locally-bounded threshold (the two fault
/// models parameterize their protocols with one integer each, and sharing the field keeps
/// `(Config, Graph, ProcessId)` sufficient to build every stack).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StackSpec {
    /// The paper's Bracha–Dolev combination with the MD/MBD modifications of the
    /// [`Config`] ([`BdProcess`]).
    #[default]
    Bd,
    /// Plain Bracha over the routed (known-topology) Dolev variant.
    BrachaRoutedDolev,
    /// Plain Bracha over CPA, for the `t`-locally bounded fault model (`t = f`).
    BrachaCpa,
    /// Dolev's flooding reliable-communication protocol alone (honest-dealer broadcast),
    /// with the MD.1–5 flags of the [`Config`].
    Dolev,
    /// Dolev's known-topology (predefined routes) variant alone.
    RoutedDolev,
    /// Bracha's double-echo broadcast alone — requires a **fully connected** topology.
    Bracha,
    /// The Certified Propagation Algorithm alone (`t = f`).
    Cpa,
}

impl StackSpec {
    /// Every stack, in the order used by reports and sweeps.
    pub const ALL: [StackSpec; 7] = [
        StackSpec::Bd,
        StackSpec::BrachaRoutedDolev,
        StackSpec::BrachaCpa,
        StackSpec::Dolev,
        StackSpec::RoutedDolev,
        StackSpec::Bracha,
        StackSpec::Cpa,
    ];

    /// Canonical kebab-case name, used by CSV columns and `--stack` flags.
    pub fn name(self) -> &'static str {
        match self {
            StackSpec::Bd => "bd",
            StackSpec::BrachaRoutedDolev => "bracha-routed-dolev",
            StackSpec::BrachaCpa => "bracha-cpa",
            StackSpec::Dolev => "dolev",
            StackSpec::RoutedDolev => "routed-dolev",
            StackSpec::Bracha => "bracha",
            StackSpec::Cpa => "cpa",
        }
    }

    /// Whether the stack provides full BRB (tolerates a Byzantine source). The remaining
    /// stacks are reliable-communication substrates: they only guarantee delivery for an
    /// honest dealer.
    pub fn is_brb(self) -> bool {
        matches!(
            self,
            StackSpec::Bd | StackSpec::BrachaRoutedDolev | StackSpec::BrachaCpa | StackSpec::Bracha
        )
    }

    /// Whether the stack's system model requires a fully connected topology (only
    /// Bracha's original protocol does; every other stack exists precisely to avoid that
    /// assumption).
    pub fn requires_full_connectivity(self) -> bool {
        matches!(self, StackSpec::Bracha)
    }

    /// Constructs a boxed engine for process `id` of a system described by `config` on
    /// the communication graph `graph`.
    ///
    /// The routed-Dolev-based stacks need the whole topology; this entry point deep-copies
    /// it once per engine. Hosts instantiating many processes of those stacks should
    /// create one `Arc<Graph>` and call [`StackSpec::build_shared`] instead.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid for the stack (e.g. `f >= n/3` for the
    /// Bracha-based stacks, `id` outside the graph).
    pub fn build(self, config: &Config, graph: &Graph, id: ProcessId) -> Box<dyn DynEngine> {
        match self {
            StackSpec::BrachaRoutedDolev | StackSpec::RoutedDolev => {
                self.build_shared(config, &Arc::new(graph.clone()), id)
            }
            other => other.build_neighborhood(config, graph, id),
        }
    }

    /// Like [`StackSpec::build`], but topology-aware stacks share the given `Arc<Graph>`
    /// instead of deep-copying the adjacency per process — the form the deployments and
    /// the experiment runner use when instantiating a whole system.
    pub fn build_shared(
        self,
        config: &Config,
        graph: &Arc<Graph>,
        id: ProcessId,
    ) -> Box<dyn DynEngine> {
        let engine = match self {
            StackSpec::BrachaRoutedDolev => Box::new(
                SinkEngine::new(BrachaOverRc::new(
                    config.n,
                    config.f,
                    RoutedDolev::new(id, config.f, Arc::clone(graph)),
                ))
                .with_peek(peek_bracha_over_rc),
            ),
            StackSpec::RoutedDolev => Box::new(SinkEngine::new(RoutedDolev::new(
                id,
                config.f,
                Arc::clone(graph),
            ))) as Box<dyn DynEngine>,
            other => return other.build_neighborhood(config, graph, id),
        };
        apply_gc(engine, config)
    }

    /// Builds the stacks that only need the process's direct neighborhood.
    fn build_neighborhood(
        self,
        config: &Config,
        graph: &Graph,
        id: ProcessId,
    ) -> Box<dyn DynEngine> {
        let engine: Box<dyn DynEngine> = match self {
            StackSpec::Bd => Box::new(SinkEngine::new(BdProcess::new(
                id,
                *config,
                graph.neighbors_vec(id),
            ))),
            StackSpec::BrachaCpa => Box::new(
                SinkEngine::new(BrachaOverRc::new(
                    config.n,
                    config.f,
                    CpaProcess::new(id, config.n, config.f, graph.neighbors_vec(id)),
                ))
                .with_peek(peek_bracha_over_rc),
            ),
            StackSpec::Dolev => Box::new(SinkEngine::new(DolevProcess::new(
                id,
                *config,
                graph.neighbors_vec(id),
            ))),
            StackSpec::Bracha => {
                Box::new(SinkEngine::new(BrachaProcess::new(id, config.n, config.f)))
            }
            StackSpec::Cpa => Box::new(SinkEngine::new(CpaProcess::new(
                id,
                config.n,
                config.f,
                graph.neighbors_vec(id),
            ))),
            StackSpec::BrachaRoutedDolev | StackSpec::RoutedDolev => {
                unreachable!("routed stacks are built by build/build_shared")
            }
        };
        apply_gc(engine, config)
    }

    /// Convenience: builds the engine and wraps it in a [`DynStack`], ready to be driven
    /// by any [`Protocol`]-based host such as `brb_sim::Simulation`.
    pub fn build_protocol(self, config: &Config, graph: &Graph, id: ProcessId) -> DynStack {
        DynStack::new(self.build(config, graph, id))
    }

    /// [`StackSpec::build_protocol`] over a shared topology (see
    /// [`StackSpec::build_shared`]).
    pub fn build_protocol_shared(
        self,
        config: &Config,
        graph: &Arc<Graph>,
        id: ProcessId,
    ) -> DynStack {
        DynStack::new(self.build_shared(config, graph, id))
    }
}

/// Installs the configured instance-GC policy on a freshly built engine.
///
/// A disabled policy is skipped so engines that seed GC from [`Config`] directly
/// (the Bracha–Dolev engine) keep whatever the constructor installed.
fn apply_gc(mut engine: Box<dyn DynEngine>, config: &Config) -> Box<dyn DynEngine> {
    if config.gc.enabled() {
        engine.set_gc_policy(config.gc);
    }
    engine
}

impl fmt::Display for StackSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing an unknown stack name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownStack(pub String);

impl fmt::Display for UnknownStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown stack {:?}; expected one of: {}",
            self.0,
            StackSpec::ALL.map(StackSpec::name).join(", ")
        )
    }
}

impl std::error::Error for UnknownStack {}

impl FromStr for StackSpec {
    type Err = UnknownStack;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let normalized: String = s
            .trim()
            .chars()
            .map(|c| match c {
                '_' | ' ' => '-',
                c => c.to_ascii_lowercase(),
            })
            .collect();
        StackSpec::ALL
            .into_iter()
            .find(|spec| spec.name() == normalized)
            .ok_or_else(|| UnknownStack(s.to_string()))
    }
}

// ---------------------------------------------------------------------------
// Protocol adapter over a boxed engine
// ---------------------------------------------------------------------------

/// An encoded link-level frame together with its Table 3 size, the message type of
/// [`DynStack`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedFrame {
    /// The encoded message bytes.
    pub bytes: Bytes,
    /// Size under the paper's Table 3 accounting (reported by
    /// [`Protocol::message_size`]).
    pub wire_size: usize,
}

/// Adapter implementing [`Protocol`] over a boxed [`DynEngine`], with [`EncodedFrame`]
/// messages.
///
/// It lets hosts written against the typed [`Protocol`] interface (most importantly
/// `brb_sim::Simulation`) drive *any* stack chosen at runtime. Messages cross the adapter
/// in encoded form, so a simulation over `DynStack` also exercises the exact codec path
/// of the socket deployments.
pub struct DynStack {
    engine: Box<dyn DynEngine>,
    scratch: WireActionBuf,
}

impl DynStack {
    /// Wraps a boxed engine.
    pub fn new(engine: Box<dyn DynEngine>) -> Self {
        Self {
            engine,
            scratch: WireActionBuf::new(),
        }
    }

    /// The underlying engine.
    pub fn engine(&self) -> &dyn DynEngine {
        self.engine.as_ref()
    }

    fn forward(&mut self, out: &mut ActionBuf<EncodedFrame>) {
        for action in self.scratch.drain() {
            out.push(match action {
                WireAction::Send {
                    to,
                    frame,
                    wire_size,
                } => Action::send(
                    to,
                    EncodedFrame {
                        bytes: frame,
                        wire_size,
                    },
                ),
                WireAction::Deliver(delivery) => Action::Deliver(delivery),
            });
        }
    }
}

impl fmt::Debug for DynStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DynStack")
            .field("process_id", &self.engine.process_id())
            .finish()
    }
}

impl Protocol for DynStack {
    type Message = EncodedFrame;

    fn process_id(&self) -> ProcessId {
        self.engine.process_id()
    }

    fn broadcast_into(&mut self, payload: Payload, out: &mut ActionBuf<EncodedFrame>) {
        self.scratch.clear();
        let mut scratch = std::mem::take(&mut self.scratch);
        self.engine.broadcast_wire(payload, &mut scratch);
        self.scratch = scratch;
        self.forward(out);
    }

    // The trait's default would save/restore the *adapter's* (nonexistent) counter and
    // then call `broadcast_into`, silently minting the boxed engine's own next id
    // instead of `seq` — so the adapter must forward to the engine's seq-aware entry.
    fn broadcast_with_seq_into(
        &mut self,
        seq: crate::types::BroadcastSeq,
        payload: Payload,
        out: &mut ActionBuf<EncodedFrame>,
    ) {
        self.scratch.clear();
        let mut scratch = std::mem::take(&mut self.scratch);
        self.engine.broadcast_wire_seq(seq, payload, &mut scratch);
        self.scratch = scratch;
        self.forward(out);
    }

    fn handle_message_into(
        &mut self,
        from: ProcessId,
        message: EncodedFrame,
        out: &mut ActionBuf<EncodedFrame>,
    ) {
        self.scratch.clear();
        let mut scratch = std::mem::take(&mut self.scratch);
        self.engine.handle_frame(from, &message.bytes, &mut scratch);
        self.scratch = scratch;
        self.forward(out);
    }

    fn deliveries(&self) -> &[Delivery] {
        self.engine.deliveries()
    }

    fn message_size(message: &EncodedFrame) -> usize {
        message.wire_size
    }

    fn state_bytes(&self) -> usize {
        self.engine.state_bytes()
    }

    fn stored_paths(&self) -> usize {
        self.engine.stored_paths()
    }

    fn set_gc_policy(&mut self, policy: crate::gc::GcPolicy) {
        self.engine.set_gc_policy(policy);
    }

    fn note_time(&mut self, now_ms: u64) {
        self.engine.note_time(now_ms);
    }

    fn gc_retired(&self) -> u64 {
        self.engine.gc_retired()
    }

    fn set_tracer(&mut self, tracer: brb_trace::Tracer) {
        self.engine.set_tracer(tracer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bracha::{BrachaKind, BrachaMessage};
    use crate::cpa::CpaMessage;
    use crate::dolev::DolevMessage;
    use crate::dolev_routed::RoutedDolevMessage;
    use crate::types::Content;
    use crate::wire::WireMessage;
    use brb_graph::generate;

    fn stack_config(stack: StackSpec, n: usize) -> Config {
        // Fault-free test runs; CPA percolation on sparse graphs needs t = 0, every other
        // stack is exercised with a positive threshold.
        match stack {
            StackSpec::Cpa | StackSpec::BrachaCpa => Config::plain(n, 0),
            StackSpec::Bracha => Config::plain(n, (n - 1) / 3),
            _ => Config::bdopt_mbd1(n, 1),
        }
    }

    fn stack_graph(stack: StackSpec) -> Graph {
        if stack.requires_full_connectivity() {
            generate::complete(10)
        } else {
            generate::figure1_example()
        }
    }

    /// Floods encoded frames between boxed engines until quiescence.
    fn run_boxed(stack: StackSpec, source: ProcessId) -> Vec<Box<dyn DynEngine>> {
        let graph = stack_graph(stack);
        let config = stack_config(stack, graph.node_count());
        let mut engines: Vec<Box<dyn DynEngine>> = (0..graph.node_count())
            .map(|i| stack.build(&config, &graph, i))
            .collect();
        let mut out = WireActionBuf::new();
        engines[source].broadcast_wire(Payload::from("any stack"), &mut out);
        let mut queue: Vec<(ProcessId, WireAction)> = out.drain().map(|a| (source, a)).collect();
        let mut steps = 0usize;
        while let Some((from, action)) = queue.pop() {
            steps += 1;
            assert!(steps < 2_000_000, "{stack} did not quiesce");
            if let WireAction::Send { to, frame, .. } = action {
                engines[to].handle_frame(from, &frame, &mut out);
                queue.extend(out.drain().map(|a| (to, a)));
            }
        }
        engines
    }

    #[test]
    fn every_stack_delivers_through_the_boxed_interface() {
        for stack in StackSpec::ALL {
            let engines = run_boxed(stack, 0);
            for engine in &engines {
                assert_eq!(
                    engine.deliveries().len(),
                    1,
                    "{stack}: process {} did not deliver",
                    engine.process_id()
                );
                assert_eq!(engine.deliveries()[0].id, BroadcastId::new(0, 0));
                assert_eq!(engine.deliveries()[0].payload, Payload::from("any stack"));
            }
        }
    }

    #[test]
    fn every_stack_delivers_through_the_dyn_protocol_adapter() {
        for stack in StackSpec::ALL {
            let graph = stack_graph(stack);
            let config = stack_config(stack, graph.node_count());
            let mut processes: Vec<DynStack> = (0..graph.node_count())
                .map(|i| stack.build_protocol(&config, &graph, i))
                .collect();
            let mut queue: Vec<(ProcessId, Action<EncodedFrame>)> = processes[0]
                .broadcast(Payload::from("adapter"))
                .into_iter()
                .map(|a| (0, a))
                .collect();
            while let Some((from, action)) = queue.pop() {
                if let Action::Send { to, message } = action {
                    assert!(message.wire_size > 0);
                    for a in processes[to].handle_message(from, message) {
                        queue.push((to, a));
                    }
                }
            }
            for p in &processes {
                assert_eq!(
                    Protocol::deliveries(p).len(),
                    1,
                    "{stack}: process {} did not deliver via DynStack",
                    Protocol::process_id(p)
                );
            }
        }
    }

    #[test]
    fn seq_aware_broadcast_leaves_the_client_namespace_counter_untouched() {
        use crate::types::{namespaced_seq, NAMESPACE_CONSENSUS};
        // A consensus-style client mints an id in its own namespace, then a plain
        // broadcast still gets the engine counter's (0, 0): no collision, no skipped id.
        for stack in StackSpec::ALL {
            let graph = stack_graph(stack);
            let config = stack_config(stack, graph.node_count());
            let mut engines: Vec<Box<dyn DynEngine>> = (0..graph.node_count())
                .map(|i| stack.build(&config, &graph, i))
                .collect();
            let mut out = WireActionBuf::new();
            let consensus_seq = namespaced_seq(NAMESPACE_CONSENSUS, 5);
            engines[0].broadcast_wire_seq(consensus_seq, Payload::from("layered"), &mut out);
            let mut queue: Vec<(ProcessId, WireAction)> = out.drain().map(|a| (0, a)).collect();
            engines[0].broadcast_wire(Payload::from("plain"), &mut out);
            queue.extend(out.drain().map(|a| (0, a)));
            while let Some((from, action)) = queue.pop() {
                if let WireAction::Send { to, frame, .. } = action {
                    engines[to].handle_frame(from, &frame, &mut out);
                    queue.extend(out.drain().map(|a| (to, a)));
                }
            }
            for engine in &engines {
                let ids: std::collections::BTreeSet<BroadcastId> =
                    engine.deliveries().iter().map(|d| d.id).collect();
                assert!(
                    ids.contains(&BroadcastId::new(0, consensus_seq)),
                    "{stack}: consensus-namespace id missing at {}",
                    engine.process_id()
                );
                assert!(
                    ids.contains(&BroadcastId::new(0, 0)),
                    "{stack}: the plain broadcast must still mint (0, 0) at {}",
                    engine.process_id()
                );
            }
        }
    }

    #[test]
    fn boxed_engines_report_memory_proxies() {
        // After a full Bd run some process holds paths and state.
        let engines = run_boxed(StackSpec::Bd, 0);
        assert!(engines.iter().any(|e| e.state_bytes() > 0));
        // The routed stack counts its predefined-route votes.
        let engines = run_boxed(StackSpec::BrachaRoutedDolev, 0);
        assert!(engines.iter().any(|e| e.state_bytes() > 0));
        assert!(engines.iter().any(|e| e.stored_paths() > 0));
        // Bracha buffers payloads per content even though it stores no paths.
        let engines = run_boxed(StackSpec::Bracha, 0);
        assert!(engines.iter().any(|e| e.state_bytes() > 0));
        assert!(engines.iter().all(|e| e.stored_paths() == 0));
    }

    #[test]
    fn dolev_stack_bounds_its_memo_by_the_configured_combinations() {
        // Process 0 receives from neighbor 1 every path of source 9 through a nonempty
        // subset of {2..8}: 127 pairwise-intersecting paths, so an unbounded memo holds
        // 128 unions (each path's plus the empty one) and nothing delivers at f = 1.
        let config = Config {
            max_path_combinations: 16,
            ..Config::plain(10, 1)
        };
        let mut engine = StackSpec::Dolev.build(&config, &generate::figure1_example(), 0);
        let mut out = WireActionBuf::new();
        let content = Content::new(BroadcastId::new(9, 0), Payload::from("m"));
        for subset in 1u32..1 << 7 {
            let labels = (2..=8).filter(|label| subset & (1 << (label - 2)) != 0);
            let message = DolevMessage {
                content: content.clone(),
                path: std::iter::once(9).chain(labels).collect(),
            };
            engine.handle_frame(1, &message.encode_wire(), &mut out);
            out.drain().for_each(drop);
        }
        assert!(engine.deliveries().is_empty());
        assert_eq!(engine.stored_paths(), 127);
        // Each stored path is one 8-byte word, each memoized union 24 B, plus the
        // instance's two flag bytes.
        let memo_bytes = engine.state_bytes() - 8 * 127 - 2;
        assert!(
            memo_bytes <= 24 * 16,
            "memo holds {} unions",
            memo_bytes / 24
        );
    }

    #[test]
    fn codec_roundtrips() {
        let dolev = DolevMessage {
            content: Content::new(BroadcastId::new(3, 7), Payload::from("dolev")),
            path: vec![1, 2, 9],
        };
        assert_eq!(
            DolevMessage::decode_wire(&dolev.encode_wire()),
            Some(dolev.clone())
        );

        let cpa = CpaMessage {
            content: Content::new(BroadcastId::new(4, 1), Payload::filled(0xA, 16)),
        };
        assert_eq!(CpaMessage::decode_wire(&cpa.encode_wire()), Some(cpa));

        let routed = RoutedDolevMessage {
            origin: 2,
            seq: 5,
            payload: Payload::from("routed"),
            route: vec![2, 4, 6],
            position: 1,
        };
        assert_eq!(
            RoutedDolevMessage::decode_wire(&routed.encode_wire()),
            Some(routed)
        );

        let bracha = BrachaMessage {
            kind: BrachaKind::Ready,
            id: BroadcastId::new(1, 2),
            payload: Payload::from("bracha"),
        };
        assert_eq!(
            BrachaMessage::decode_wire(&bracha.encode_wire()),
            Some(bracha)
        );

        // Empty-path / empty-payload edges survive the roundtrip.
        let empty = DolevMessage {
            content: Content::new(BroadcastId::new(0, 0), Payload::new(Vec::new())),
            path: vec![],
        };
        assert_eq!(DolevMessage::decode_wire(&empty.encode_wire()), Some(empty));
    }

    /// Every strict prefix of `message`'s frame and the frame plus one trailing byte fail
    /// to decode (the frame length is part of the contract), while the frame itself
    /// round-trips.
    fn assert_rejects_cuts_and_padding<M: WireCodec + PartialEq + fmt::Debug>(message: M) {
        let frame = message.encode_wire();
        assert_eq!(M::decode_wire(&frame).as_ref(), Some(&message));
        for cut in 0..frame.len() {
            assert!(
                M::decode_wire(&frame[..cut]).is_none(),
                "{message:?} cut at {cut}"
            );
        }
        let mut padded = frame.to_vec();
        padded.push(0);
        assert!(M::decode_wire(&padded).is_none(), "{message:?} padded");
    }

    #[test]
    fn codecs_reject_malformed_frames() {
        assert_rejects_cuts_and_padding(DolevMessage {
            content: Content::new(BroadcastId::new(3, 7), Payload::from("dolev")),
            path: vec![1, 2],
        });
        assert_rejects_cuts_and_padding(CpaMessage {
            content: Content::new(BroadcastId::new(4, 1), Payload::from("cpa")),
        });
        assert_rejects_cuts_and_padding(BrachaMessage {
            kind: BrachaKind::Echo,
            id: BroadcastId::new(1, 2),
            payload: Payload::from("bracha"),
        });
        assert_rejects_cuts_and_padding(WireMessage {
            kind: crate::wire::MessageKind::EchoEcho,
            id: BroadcastId::new(3, 7),
            originator: 5,
            originator2: Some(6),
            payload: crate::wire::PayloadRef::Inline(Payload::from("bd")),
            path: vec![2, 9],
            fields: crate::wire::FieldPresence::full(),
        });
        let routed = RoutedDolevMessage {
            origin: 2,
            seq: 5,
            payload: Payload::from("r"),
            route: vec![2, 4],
            position: 1,
        };
        assert_rejects_cuts_and_padding(routed.clone());

        // An out-of-range position is rejected at decode time.
        let routed = routed.encode_wire();
        let mut bad = routed.to_vec();
        let pos_at = 4 + 4 + 4 + 1 + 2; // origin, seq, len, payload "r", route_len
        bad[pos_at] = 0;
        bad[pos_at + 1] = 9;
        assert!(RoutedDolevMessage::decode_wire(&bad).is_none());
        // So is an unknown Bracha kind.
        let mut bad = BrachaMessage {
            kind: BrachaKind::Send,
            id: BroadcastId::new(1, 2),
            payload: Payload::from("b"),
        }
        .encode_wire()
        .to_vec();
        bad[0] = 3;
        assert!(BrachaMessage::decode_wire(&bad).is_none());

        // A malformed frame fed to an engine is dropped without output.
        let graph = generate::figure1_example();
        let mut engine = StackSpec::Dolev.build(&Config::bdopt(10, 1), &graph, 1);
        let mut out = WireActionBuf::new();
        engine.handle_frame(0, &[0xFF, 0x01], &mut out);
        assert!(out.is_empty());
        assert!(engine.deliveries().is_empty());
    }

    #[test]
    fn peeked_broadcast_ids_match_full_decodes_on_every_stack() {
        // Every frame any stack puts on a link peeks to the same BroadcastId a full
        // decode recovers — what the benchmark's request attribution relies on.
        for stack in StackSpec::ALL {
            let graph = stack_graph(stack);
            let config = stack_config(stack, graph.node_count());
            let mut engines: Vec<Box<dyn DynEngine>> = (0..graph.node_count())
                .map(|i| stack.build(&config, &graph, i))
                .collect();
            let mut out = WireActionBuf::new();
            engines[0].broadcast_wire(Payload::from("peek"), &mut out);
            let mut queue: Vec<(ProcessId, WireAction)> = out.drain().map(|a| (0, a)).collect();
            let mut checked = 0usize;
            while let Some((from, action)) = queue.pop() {
                if let WireAction::Send { to, frame, .. } = action {
                    let peeked = engines[to]
                        .frame_broadcast_id(&frame)
                        .expect("well-formed frames peek");
                    assert_eq!(peeked, BroadcastId::new(0, 0), "{stack}");
                    checked += 1;
                    engines[to].handle_frame(from, &frame, &mut out);
                    queue.extend(out.drain().map(|a| (to, a)));
                }
            }
            assert!(checked > 0, "{stack} sent no frames");
        }
        // Too-short frames peek to None instead of panicking.
        assert_eq!(WireMessage::peek_broadcast_id(&[1, 2, 3]), None);
        assert_eq!(CpaMessage::peek_broadcast_id(&[]), None);
    }

    #[test]
    fn stack_names_parse_and_display() {
        for stack in StackSpec::ALL {
            assert_eq!(stack.name().parse::<StackSpec>().unwrap(), stack);
            assert_eq!(stack.to_string(), stack.name());
        }
        assert_eq!(
            "Bracha_Routed_Dolev".parse::<StackSpec>().unwrap(),
            StackSpec::BrachaRoutedDolev
        );
        assert_eq!("BD".parse::<StackSpec>().unwrap(), StackSpec::Bd);
        let err = "nope".parse::<StackSpec>().unwrap_err();
        assert!(err.to_string().contains("nope"));
        assert_eq!(StackSpec::default(), StackSpec::Bd);
    }

    #[test]
    fn stack_classification() {
        assert!(StackSpec::Bd.is_brb());
        assert!(StackSpec::Bracha.is_brb());
        assert!(!StackSpec::Dolev.is_brb());
        assert!(!StackSpec::Cpa.is_brb());
        assert!(StackSpec::Bracha.requires_full_connectivity());
        assert!(StackSpec::ALL
            .iter()
            .filter(|s| s.requires_full_connectivity())
            .eq([&StackSpec::Bracha]));
    }

    #[test]
    fn wire_size_uses_table3_accounting_not_frame_length() {
        // The WireMessage framing adds a presence mask and always-encoded identifiers, so
        // the frame is longer than the Table 3 size; the DynEngine path must report the
        // latter.
        let graph = generate::figure1_example();
        let config = Config::bdopt_mbd1(10, 1);
        let mut engine = StackSpec::Bd.build(&config, &graph, 0);
        let mut out = WireActionBuf::new();
        engine.broadcast_wire(Payload::filled(1, 64), &mut out);
        let mut saw_send = false;
        for action in out.as_slice() {
            if let WireAction::Send {
                frame, wire_size, ..
            } = action
            {
                saw_send = true;
                let decoded = WireMessage::decode(frame).expect("frames decode");
                assert_eq!(*wire_size, decoded.wire_size());
            }
        }
        assert!(saw_send);
    }

    /// A protocol whose every handled message emits one fixed script of actions and
    /// whose broadcasts emit none.
    struct Scripted(Vec<Action<DolevMessage>>);

    impl Protocol for Scripted {
        type Message = DolevMessage;

        fn process_id(&self) -> ProcessId {
            0
        }

        fn broadcast_into(&mut self, _: Payload, _: &mut ActionBuf<DolevMessage>) {}

        fn handle_message_into(
            &mut self,
            _: ProcessId,
            _: DolevMessage,
            out: &mut ActionBuf<DolevMessage>,
        ) {
            out.extend(self.0.iter().cloned());
        }

        fn deliveries(&self) -> &[Delivery] {
            &[]
        }

        fn message_size(message: &DolevMessage) -> usize {
            message.wire_size()
        }
    }

    #[test]
    fn sink_engine_encodes_each_run_of_equal_sends_once() {
        let content = Content::new(BroadcastId::new(0, 1), Payload::from("m"));
        let m = DolevMessage {
            content: content.clone(),
            path: vec![4],
        };
        let m2 = DolevMessage {
            content: content.clone(),
            path: vec![4, 5],
        };
        let delivery = Delivery {
            id: content.id,
            payload: content.payload,
        };
        let mut engine = SinkEngine::new(Scripted(vec![
            Action::send(1, m.clone()),
            Action::send(2, m.clone()),
            Action::send(2, m2.clone()),
            Action::Deliver(delivery.clone()),
            Action::send(3, m.clone()),
        ]));
        let mut out = WireActionBuf::new();
        engine.broadcast_wire(Payload::from("x"), &mut out);
        assert!(out.is_empty(), "a step without actions pushes nothing");

        engine.handle_frame(1, &m.encode_wire(), &mut out);
        let send = |to, message: &DolevMessage| WireAction::Send {
            to,
            frame: message.encode_wire(),
            wire_size: message.wire_size(),
        };
        let expected = [
            send(1, &m),
            send(2, &m),
            send(2, &m2),
            WireAction::Deliver(delivery),
            send(3, &m),
        ];
        assert_eq!(out.as_slice(), expected);
        let frames: Vec<&Bytes> = out
            .as_slice()
            .iter()
            .filter_map(|action| match action {
                WireAction::Send { frame, .. } => Some(frame),
                WireAction::Deliver(_) => None,
            })
            .collect();
        assert_eq!(
            frames[0].as_ptr(),
            frames[1].as_ptr(),
            "m -> 1, 2 share one frame"
        );
        assert_ne!(frames[1].as_ptr(), frames[2].as_ptr());
        // `m -> 3` follows `m'`, not `m`: it is encoded again.
        assert_ne!(frames[2].as_ptr(), frames[3].as_ptr());
        assert_ne!(frames[0].as_ptr(), frames[3].as_ptr());
    }
}
