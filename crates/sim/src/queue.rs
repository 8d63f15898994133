//! The simulator's queue of in-flight messages.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

use brb_core::types::ProcessId;

use crate::time::SimTime;

/// An in-flight message. The payload is reference-counted so that fan-out (behaviour
/// duplication, flooding) shares one allocation across all scheduled copies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Event<M> {
    pub(crate) at: SimTime,
    pub(crate) from: ProcessId,
    pub(crate) to: ProcessId,
    pub(crate) seq: u64,
    pub(crate) message: Arc<M>,
}

impl<M: Eq> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Ties on the timestamp are broken by the link (from, to) *before* the insertion
        // sequence number, so batched draining processes same-time events in a canonical
        // per-link order rather than in whatever order they happened to be scheduled.
        (self.at, self.from, self.to, self.seq).cmp(&(other.at, other.from, other.to, other.seq))
    }
}

impl<M: Eq> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// In-flight messages, drained one timestamp at a time in `(from, to, seq)` order — the
/// total order of [`Event`].
///
/// A send almost always lands at or after the newest timestamp scheduled so far (always,
/// under constant delays), so events are appended to one bucket per timestamp in
/// scheduling order and a bucket is sorted only when the clock reaches it. Sends that
/// land *before* the newest timestamp (asynchronous delays) go through a binary heap and
/// join their timestamp's batch when it is drained.
pub(crate) struct EventQueue<M> {
    /// One bucket per timestamp, in increasing timestamp order.
    buckets: VecDeque<(SimTime, Vec<Event<M>>)>,
    /// Events scheduled earlier than the newest bucket.
    early: BinaryHeap<Reverse<Event<M>>>,
    /// Allocations of drained buckets, reused by new ones.
    spare: Vec<Vec<Event<M>>>,
    len: usize,
}

impl<M: Eq> EventQueue<M> {
    pub(crate) fn new() -> Self {
        Self {
            buckets: VecDeque::new(),
            early: BinaryHeap::new(),
            spare: Vec::new(),
            len: 0,
        }
    }

    /// Number of events queued.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The earliest timestamp with a queued event.
    pub(crate) fn next_at(&self) -> Option<SimTime> {
        let bucket = self.buckets.front().map(|(at, _)| *at);
        let early = self.early.peek().map(|Reverse(event)| event.at);
        match (bucket, early) {
            (Some(bucket), Some(early)) => Some(bucket.min(early)),
            (bucket, early) => bucket.or(early),
        }
    }

    pub(crate) fn push(&mut self, event: Event<M>) {
        self.len += 1;
        match self.buckets.back_mut() {
            Some((newest, bucket)) if *newest == event.at => bucket.push(event),
            Some((newest, _)) if *newest > event.at => self.early.push(Reverse(event)),
            _ => {
                let mut bucket = self.spare.pop().unwrap_or_default();
                let at = event.at;
                bucket.push(event);
                self.buckets.push_back((at, bucket));
            }
        }
    }

    /// Replaces the contents of `batch` with every event due at [`EventQueue::next_at`],
    /// in `(from, to, seq)` order. The buffer `batch` brought in is kept for a later
    /// bucket, so draining allocates nothing in the steady state.
    pub(crate) fn pop_batch(&mut self, batch: &mut Vec<Event<M>>) {
        batch.clear();
        let Some(at) = self.next_at() else {
            return;
        };
        if self.buckets.front().is_some_and(|(front, _)| *front == at) {
            let (_, bucket) = self.buckets.pop_front().expect("front bucket exists");
            self.spare.push(std::mem::replace(batch, bucket));
        }
        while let Some(Reverse(event)) = self.early.peek() {
            if event.at != at {
                break;
            }
            batch.push(self.early.pop().expect("peeked event exists").0);
        }
        batch.sort_unstable_by_key(|event| (event.from, event.to, event.seq));
        self.len -= batch.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One step of a generated schedule: a send landing `delay` ticks after the instant
    /// being drained, or the drain of the next timestamp.
    #[derive(Debug, Clone)]
    enum Op {
        Push { delay: u64, from: usize, to: usize },
        Drain,
    }

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        let push = (0u64..5, 0usize..4, 0usize..4).prop_map(|(delay, from, to)| Op::Push {
            delay,
            from,
            to,
        });
        proptest::collection::vec(
            prop_oneof![push.clone(), push.clone(), push, Just(Op::Drain)],
            0..200,
        )
    }

    /// The queue this one replaced: a single binary heap over [`Event`]'s total order.
    fn pop_batch_from_heap(heap: &mut BinaryHeap<Reverse<Event<u8>>>) -> Vec<Event<u8>> {
        let mut batch = Vec::new();
        while let Some(Reverse(event)) = heap.peek() {
            if batch
                .first()
                .is_some_and(|first: &Event<u8>| first.at != event.at)
            {
                break;
            }
            batch.push(heap.pop().expect("peeked event exists").0);
        }
        batch
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256)
            .with_rng_seed(0x0E7E_4755_0B0C_4E75)
            .with_failure_persistence(FileFailurePersistence::SourceParallel("proptest-regressions")))]

        /// Sends interleaved with drains — including zero-delay sends into the instant
        /// being drained and sends landing before the newest timestamp, as asynchronous
        /// delays produce — come out exactly as the heap's `(at, from, to, seq)` order.
        #[test]
        fn drains_in_the_heaps_total_order(ops in ops()) {
            let mut queue = EventQueue::new();
            let mut heap = BinaryHeap::new();
            let mut batch = Vec::new();
            let mut now = 0u64;
            let mut seq = 0u64;
            for op in ops.into_iter().chain(std::iter::repeat_n(Op::Drain, 8)) {
                match op {
                    Op::Push { delay, from, to } => {
                        let event = Event {
                            at: SimTime::from_micros(now + delay),
                            from,
                            to,
                            seq,
                            message: Arc::new(0u8),
                        };
                        seq += 1;
                        heap.push(Reverse(event.clone()));
                        queue.push(event);
                    }
                    Op::Drain => {
                        let expected = pop_batch_from_heap(&mut heap);
                        prop_assert_eq!(queue.next_at(), expected.first().map(|event| event.at));
                        queue.pop_batch(&mut batch);
                        prop_assert_eq!(&batch, &expected);
                        if let Some(first) = batch.first() {
                            now = first.at.as_micros();
                        }
                    }
                }
                prop_assert_eq!(queue.len(), heap.len());
            }
            prop_assert_eq!(queue.len(), 0);
        }
    }
}
