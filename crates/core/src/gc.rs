//! Watermark-based instance garbage collection for long-lived engines.
//!
//! Every protocol engine keys per-broadcast state by [`BroadcastId`] (or by
//! [`crate::types::Content`], which embeds one) and, without intervention, keeps it
//! forever: under continuous traffic the Sec. 7.3 `state_bytes`/`stored_paths` proxies
//! grow linearly. This module provides the shared retirement machinery: a [`GcPolicy`]
//! says *when* a delivered instance may be reclaimed, and a [`GcState`] tracks which
//! instances are *retired* so that late or replayed frames for them are dropped
//! deterministically instead of resurrecting state.
//!
//! The life of an instance under GC:
//!
//! 1. **live** — the engine holds quorum/path state for it;
//! 2. **delivered** — the engine delivered it locally; [`GcState::on_delivered`] starts
//!    the retention window, during which the instance keeps serving late frames (and the
//!    engine keeps relaying for neighbors that have not delivered yet);
//! 3. **retired** — the window elapsed ([`GcState::due`] returned the id); the engine
//!    prunes the instance's state, and [`GcState::is_retired`] makes every later frame
//!    for it a deterministic no-op.
//!
//! Retired markers must themselves stay bounded. Because a correct source allocates its
//! [`BroadcastSeq`]s sequentially, retirements per source are near-contiguous, so markers
//! compact into a per-source *watermark* (`every seq below this is retired`) plus a small
//! exception set for out-of-order retirements; [`GcPolicy::max_retired`] caps the
//! exceptions with a force-compaction safety valve.
//!
//! # Example
//!
//! ```
//! use brb_core::gc::{GcPolicy, GcState};
//! use brb_core::types::BroadcastId;
//!
//! // Retire a delivered instance after 4 further engine events.
//! let mut gc = GcState::new(GcPolicy::after_events(4));
//! let id = BroadcastId::new(0, 0);
//!
//! gc.on_delivered(id);
//! assert!(!gc.is_retired(id), "retention window still open");
//! for _ in 0..4 {
//!     assert!(gc.due().is_empty());
//!     gc.on_event();
//! }
//! // The window elapsed: the id comes due exactly once, then stays retired forever.
//! assert_eq!(gc.due(), vec![id]);
//! assert!(gc.is_retired(id));
//! assert_eq!(gc.retired_count(), 1);
//! ```

use std::collections::{BTreeSet, VecDeque};

use crate::hash::WordMap;
use crate::types::{seq_local, seq_namespace, BroadcastId, BroadcastSeq, ProcessId};

/// When a delivered broadcast instance may be retired.
///
/// The default policy is fully disabled (no retirement ever), which preserves the
/// historical behavior of every engine; enable GC by setting a retention window. Both
/// windows may be set at once, in which case whichever elapses first retires the
/// instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GcPolicy {
    /// Retire a delivered instance once the engine has processed this many further
    /// events (broadcasts or inbound messages). Event counts are engine-local and
    /// deterministic in the simulator, which is what the conformance tests pin.
    pub retention_events: Option<u64>,
    /// Retire a delivered instance once this many milliseconds passed since its
    /// delivery, per the clock the host feeds through `note_time` (virtual time in the
    /// simulator, wall clock in the live deployments).
    pub retention_time_ms: Option<u64>,
    /// Upper bound on out-of-order retirement markers kept per engine. When exceeded,
    /// the oldest markers are force-compacted into the per-source watermark — which may
    /// retire not-yet-delivered older instances early (a memory-safety valve trading
    /// liveness of stragglers for bounded marker state). The default is 1024, far above
    /// what sequential per-source sequence numbers produce in practice.
    pub max_retired: usize,
}

/// Default exception-marker cap (see [`GcPolicy::max_retired`]).
pub const DEFAULT_MAX_RETIRED: usize = 1024;

impl GcPolicy {
    /// GC disabled: no instance is ever retired (the historical engine behavior).
    pub const DISABLED: GcPolicy = GcPolicy {
        retention_events: None,
        retention_time_ms: None,
        max_retired: DEFAULT_MAX_RETIRED,
    };

    /// Retire delivered instances after `events` further engine events.
    pub fn after_events(events: u64) -> Self {
        Self {
            retention_events: Some(events),
            ..Self::DISABLED
        }
    }

    /// Retire delivered instances after `ms` milliseconds of host time.
    pub fn after_time_ms(ms: u64) -> Self {
        Self {
            retention_time_ms: Some(ms),
            ..Self::DISABLED
        }
    }

    /// Returns a copy with the exception-marker cap replaced.
    pub fn with_max_retired(mut self, max_retired: usize) -> Self {
        self.max_retired = max_retired;
        self
    }

    /// Whether any retention window is configured (i.e. GC can ever retire anything).
    pub fn enabled(&self) -> bool {
        self.retention_events.is_some() || self.retention_time_ms.is_some()
    }
}

/// Compact retired-marker set over one sequential `u32` identifier space: a watermark
/// (every identifier below it is retired) plus the out-of-order exceptions above it.
///
/// Used per source for [`BroadcastId`] sequence numbers, and reused by the Bracha–Dolev
/// engine per peer for retired MBD.1 link-local payload identifiers (also sequential).
#[derive(Debug, Clone, Default)]
pub(crate) struct RetiredSet {
    watermark: BroadcastSeq,
    exceptions: BTreeSet<BroadcastSeq>,
}

impl RetiredSet {
    pub(crate) fn insert(&mut self, seq: BroadcastSeq) {
        if seq < self.watermark {
            return;
        }
        self.exceptions.insert(seq);
        // Absorb a now-contiguous prefix into the watermark.
        while self.exceptions.remove(&self.watermark) {
            self.watermark += 1;
        }
    }

    pub(crate) fn contains(&self, seq: BroadcastSeq) -> bool {
        seq < self.watermark || self.exceptions.contains(&seq)
    }

    /// Force-compacts the lowest exceptions into the watermark until at most `keep`
    /// remain. Sequence numbers in the gaps become retired without having been
    /// delivered — the caller only invokes this as the `max_retired` safety valve.
    pub(crate) fn force_compact(&mut self, keep: usize) {
        while self.exceptions.len() > keep {
            if let Some(&lowest) = self.exceptions.iter().next() {
                self.exceptions.remove(&lowest);
                self.watermark = self.watermark.max(lowest + 1);
                while self.exceptions.remove(&self.watermark) {
                    self.watermark += 1;
                }
            }
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.exceptions.len()
    }
}

/// Per-engine retirement tracker: the retention clock, the instances whose window is
/// open, and the compact markers of everything already retired.
///
/// Engines own one `GcState` (plus one per substrate layer in composed stacks), call
/// [`GcState::on_event`] / [`GcState::note_time`] from their event handlers,
/// [`GcState::on_delivered`] when they deliver, and drain [`GcState::due`] to learn
/// which instances to prune. [`GcState::is_retired`] is the drop check that must guard
/// every state-creating path.
#[derive(Debug, Clone)]
pub struct GcState {
    policy: GcPolicy,
    /// Engine-local event counter (the `retention_events` clock).
    events: u64,
    /// Latest host time observed (the `retention_time_ms` clock).
    now_ms: u64,
    /// Delivered instances whose retention window is still open, in delivery order
    /// (windows are uniform, so the deque front always comes due first).
    pending: VecDeque<(BroadcastId, u64, u64)>,
    /// Retired markers, keyed per `(source, client-instance namespace)` over the
    /// namespace-*local* sequence numbers. Keying per source alone would mix the
    /// namespaces into one `RetiredSet`: a consensus-namespace retirement (seq ≥ 2^24)
    /// would sit 2^24 above the workload watermark, and the `max_retired` force-compact
    /// valve could then jump the watermark across the gap, retiring every
    /// not-yet-delivered namespace-0 instance of that source in one stroke. Each
    /// namespace is sequential on its own, so per-namespace sets keep the compactness
    /// the watermark design assumes.
    retired: WordMap<(ProcessId, u32), RetiredSet>,
    retired_count: u64,
}

impl GcState {
    /// Creates a tracker with the given policy (use [`GcPolicy::DISABLED`] for the
    /// historical keep-everything behavior).
    pub fn new(policy: GcPolicy) -> Self {
        Self {
            policy,
            events: 0,
            now_ms: 0,
            pending: VecDeque::new(),
            retired: WordMap::default(),
            retired_count: 0,
        }
    }

    /// Replaces the policy. Already-retired markers are kept (they must be: pruned
    /// state would otherwise resurrect); already-pending windows adopt the new policy.
    pub fn set_policy(&mut self, policy: GcPolicy) {
        self.policy = policy;
    }

    /// The active policy.
    pub fn policy(&self) -> GcPolicy {
        self.policy
    }

    /// Advances the event clock by one engine event.
    pub fn on_event(&mut self) {
        self.events += 1;
    }

    /// Advances the time clock to `now_ms` (monotone: earlier observations are kept).
    pub fn note_time(&mut self, now_ms: u64) {
        self.now_ms = self.now_ms.max(now_ms);
    }

    /// Opens the retention window for a locally delivered instance. No-op while the
    /// policy is disabled.
    pub fn on_delivered(&mut self, id: BroadcastId) {
        if self.policy.enabled() {
            self.pending.push_back((id, self.events, self.now_ms));
        }
    }

    /// Whether `id` has been retired: frames for it must be dropped without creating
    /// state.
    pub fn is_retired(&self, id: BroadcastId) -> bool {
        self.retired
            .get(&(id.source, seq_namespace(id.seq)))
            .is_some_and(|set| set.contains(seq_local(id.seq)))
    }

    /// Drains the instances whose retention window elapsed, marking each retired. The
    /// caller prunes the returned ids from its state maps; the markers keep rejecting
    /// their frames forever after.
    pub fn due(&mut self) -> Vec<BroadcastId> {
        let mut out = Vec::new();
        while let Some(&(id, at_events, at_ms)) = self.pending.front() {
            let events_up = self
                .policy
                .retention_events
                .is_some_and(|window| self.events.saturating_sub(at_events) >= window);
            let time_up = self
                .policy
                .retention_time_ms
                .is_some_and(|window| self.now_ms.saturating_sub(at_ms) >= window);
            if !(events_up || time_up) {
                break;
            }
            self.pending.pop_front();
            let set = self
                .retired
                .entry((id.source, seq_namespace(id.seq)))
                .or_default();
            let local = seq_local(id.seq);
            if !set.contains(local) {
                set.insert(local);
                self.retired_count += 1;
                if set.len() > self.policy.max_retired {
                    set.force_compact(self.policy.max_retired);
                }
            }
            out.push(id);
        }
        out
    }

    /// Total number of instances retired so far (the `gc_retired` metric).
    pub fn retired_count(&self) -> u64 {
        self.retired_count
    }

    /// Number of delivered instances whose retention window is still open.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(source: ProcessId, seq: BroadcastSeq) -> BroadcastId {
        BroadcastId::new(source, seq)
    }

    #[test]
    fn disabled_policy_never_retires() {
        let mut gc = GcState::new(GcPolicy::DISABLED);
        gc.on_delivered(id(0, 0));
        for _ in 0..10_000 {
            gc.on_event();
        }
        gc.note_time(1 << 40);
        assert!(gc.due().is_empty());
        assert!(!gc.is_retired(id(0, 0)));
        assert_eq!(gc.pending_len(), 0, "disabled policies queue nothing");
    }

    #[test]
    fn event_window_retires_after_exactly_the_window() {
        let mut gc = GcState::new(GcPolicy::after_events(3));
        gc.on_delivered(id(2, 7));
        gc.on_event();
        gc.on_event();
        assert!(gc.due().is_empty(), "window not elapsed at 2 < 3 events");
        gc.on_event();
        assert_eq!(gc.due(), vec![id(2, 7)]);
        assert!(gc.is_retired(id(2, 7)));
        assert!(!gc.is_retired(id(2, 8)), "later seqs stay live");
        assert!(gc.due().is_empty(), "an id comes due once");
    }

    #[test]
    fn time_window_retires_on_note_time() {
        let mut gc = GcState::new(GcPolicy::after_time_ms(100));
        gc.note_time(50);
        gc.on_delivered(id(1, 0));
        gc.note_time(149);
        assert!(gc.due().is_empty());
        gc.note_time(150);
        assert_eq!(gc.due(), vec![id(1, 0)]);
    }

    #[test]
    fn watermark_compacts_sequential_retirements() {
        let mut gc = GcState::new(GcPolicy::after_events(0));
        for seq in 0..1000 {
            gc.on_delivered(id(4, seq));
            let _ = gc.due();
        }
        assert_eq!(gc.retired_count(), 1000);
        let set = gc.retired.get(&(4, 0)).unwrap();
        assert_eq!(set.watermark, 1000);
        assert_eq!(set.len(), 0, "contiguous seqs live in the watermark alone");
        assert!(gc.is_retired(id(4, 999)));
        assert!(!gc.is_retired(id(4, 1000)));
    }

    #[test]
    fn out_of_order_retirements_keep_exceptions_until_the_gap_fills() {
        let mut gc = GcState::new(GcPolicy::after_events(0));
        gc.on_delivered(id(0, 1));
        let _ = gc.due();
        assert!(gc.is_retired(id(0, 1)));
        assert!(!gc.is_retired(id(0, 0)), "the gap seq is not retired");
        gc.on_delivered(id(0, 0));
        let _ = gc.due();
        let set = gc.retired.get(&(0, 0)).unwrap();
        assert_eq!(set.watermark, 2, "filling the gap compacts both markers");
        assert_eq!(set.len(), 0);
    }

    #[test]
    fn force_compaction_never_crosses_client_instance_namespaces() {
        use crate::types::{namespaced_seq, NAMESPACE_CLIENT, NAMESPACE_CONSENSUS};
        let mut gc = GcState::new(GcPolicy::after_events(0).with_max_retired(2));
        // A consensus client retires sparse high-namespace instances — enough gaps to
        // trip the force-compact valve repeatedly.
        for local in [1, 3, 5, 7, 9, 11, 13] {
            gc.on_delivered(id(6, namespaced_seq(NAMESPACE_CONSENSUS, local)));
            let _ = gc.due();
        }
        // The same source's namespace-0 (workload) instances must stay live: with a
        // source-keyed set the compaction above would have swept the watermark past
        // every 24-bit client seq.
        for local in [0, 1, 2, 100, 1 << 20] {
            assert!(
                !gc.is_retired(id(6, namespaced_seq(NAMESPACE_CLIENT, local))),
                "namespace-0 seq {local} must not be retired by consensus GC"
            );
        }
        assert!(gc.is_retired(id(6, namespaced_seq(NAMESPACE_CONSENSUS, 1))));
    }

    #[test]
    fn max_retired_force_compacts_but_never_unretires() {
        let mut gc = GcState::new(GcPolicy::after_events(0).with_max_retired(4));
        // Retire odd seqs only: every one is an exception (gaps at the even seqs).
        for seq in [1, 3, 5, 7, 9, 11] {
            gc.on_delivered(id(0, seq));
            let _ = gc.due();
        }
        let set = gc.retired.get(&(0, 0)).unwrap();
        assert!(set.len() <= 4, "cap holds: {} exceptions", set.len());
        for seq in [1, 3, 5, 7, 9, 11] {
            assert!(gc.is_retired(id(0, seq)), "seq {seq} must stay retired");
        }
    }

    #[test]
    fn retirement_requires_delivery_first() {
        let mut gc = GcState::new(GcPolicy::after_events(1));
        for _ in 0..100 {
            gc.on_event();
        }
        assert!(gc.due().is_empty());
        assert!(!gc.is_retired(id(0, 0)), "undelivered ids never retire");
    }
}
