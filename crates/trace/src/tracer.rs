//! The cheap, cloneable handle engines and hosts emit through.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::counters::NodeCounters;
use crate::event::{Backend, DropCause, NodeId, TraceEvent, TraceEventKind};
use crate::sink::TraceSink;

/// Event timestamp source. Virtual in the simulator (the scheduler advances the
/// shared counter before dispatching), wall clock in the live backends (shared
/// epoch per deployment so node tracks align).
#[derive(Clone, Debug)]
pub enum Clock {
    /// Shared virtual-microsecond counter, owned by the simulator.
    Virtual(Arc<AtomicU64>),
    /// Wall clock measured from a deployment-wide epoch.
    Wall(Instant),
}

impl Clock {
    /// A fresh virtual clock starting at zero.
    pub fn virtual_clock() -> (Clock, Arc<AtomicU64>) {
        let counter = Arc::new(AtomicU64::new(0));
        (Clock::Virtual(counter.clone()), counter)
    }

    /// A wall clock whose zero is `now`.
    pub fn wall_from_now() -> Clock {
        Clock::Wall(Instant::now())
    }

    /// Current timestamp in microseconds.
    pub fn now_us(&self) -> u64 {
        match self {
            Clock::Virtual(counter) => counter.load(Ordering::Relaxed),
            Clock::Wall(epoch) => u64::try_from(epoch.elapsed().as_micros()).unwrap_or(u64::MAX),
        }
    }
}

struct Shared {
    sink: Arc<dyn TraceSink>,
    clock: Clock,
    backend: Backend,
}

/// Handle through which events are emitted. Cloning is an `Option<Arc>` copy;
/// a disabled tracer makes [`Tracer::emit`] a single branch, so engines can
/// hold one unconditionally without perturbing the untraced hot path.
#[derive(Clone, Default)]
pub struct Tracer {
    shared: Option<Arc<Shared>>,
    /// The hosting node's always-on counter registry, when a host attached one
    /// ([`Tracer::with_counters`]): engine-side refusals are tallied there whether or
    /// not a sink is attached.
    counters: Option<Arc<NodeCounters>>,
}

impl Tracer {
    /// A tracer that drops everything (the default for every engine).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A live tracer stamping events with `backend` and `clock` timestamps.
    pub fn new(backend: Backend, clock: Clock, sink: Arc<dyn TraceSink>) -> Self {
        Self {
            shared: Some(Arc::new(Shared {
                sink,
                clock,
                backend,
            })),
            counters: None,
        }
    }

    /// The same tracer, additionally tallying [`Tracer::frame_refused`] calls in the
    /// hosting node's counter registry.
    #[must_use]
    pub fn with_counters(mut self, counters: Arc<NodeCounters>) -> Self {
        self.counters = Some(counters);
        self
    }

    /// Whether a sink is attached.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// The backend tag, when enabled.
    pub fn backend(&self) -> Option<Backend> {
        self.shared.as_ref().map(|s| s.backend)
    }

    /// Emit one event for the instance `(source, seq)` observed at `node`.
    /// No-op (one branch) when disabled.
    #[inline]
    pub fn emit(&self, node: NodeId, source: NodeId, seq: u32, kind: TraceEventKind) {
        if let Some(shared) = &self.shared {
            shared.sink.record(TraceEvent {
                backend: shared.backend,
                node,
                source,
                seq,
                time_us: shared.clock.now_us(),
                kind,
            });
        }
    }

    /// Records that the engine at `node` refused an inbound frame of instance
    /// `(source, seq)`: bumps the node's per-cause counter when a registry is attached
    /// and emits [`TraceEventKind::FrameDropped`] when a sink is.
    pub fn frame_refused(&self, node: NodeId, source: NodeId, seq: u32, cause: DropCause) {
        if let Some(counters) = &self.counters {
            counters.record_drop(cause);
        }
        self.emit(
            node,
            source,
            seq,
            TraceEventKind::FrameDropped { to: node, cause },
        );
    }

    /// Emit an event not tied to a broadcast instance (frame/queue events at
    /// layers that cannot see ids): stamps it `(node, 0)`.
    #[inline]
    pub fn emit_frame(&self, node: NodeId, kind: TraceEventKind) {
        self.emit(node, node, 0, kind);
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.shared {
            Some(shared) => f
                .debug_struct("Tracer")
                .field("backend", &shared.backend)
                .finish_non_exhaustive(),
            None => f.write_str("Tracer(disabled)"),
        }
    }
}
