//! The simulator's queue of in-flight messages.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use brb_core::types::ProcessId;

use crate::time::SimTime;

/// An in-flight message. It owns its message: scheduling `c` copies of a send (a
/// duplicating behaviour) clones it `c - 1` times, and dispatch moves it out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Event<M> {
    pub(crate) at: SimTime,
    pub(crate) from: ProcessId,
    pub(crate) to: ProcessId,
    pub(crate) seq: u64,
    pub(crate) message: M,
}

impl<M> Event<M> {
    /// The order of same-time events: by link, then by insertion sequence number.
    fn link_key(&self) -> (ProcessId, ProcessId, u64) {
        (self.from, self.to, self.seq)
    }
}

impl<M: Eq> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Ties on the timestamp are broken by the link (from, to) *before* the insertion
        // sequence number, so batched draining processes same-time events in a canonical
        // per-link order rather than in whatever order they happened to be scheduled.
        (self.at, self.link_key()).cmp(&(other.at, other.link_key()))
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
/// scheduling order, which is `seq` order. When the clock reaches a bucket, a stable
/// counting sort of its indices on `to` and then on `from` puts it in `(from, to, seq)`
/// order in time linear in the bucket plus its range of ids. Sends that land *before*
/// the newest timestamp (asynchronous delays) go through a binary heap, which yields an
/// instant's events already in that order, so they are merged into the sorted bucket
/// in one pass.
pub(crate) struct EventQueue<M> {
    /// One bucket per timestamp, in increasing timestamp order. A slot is emptied when
    /// its event moves into the batch.
    buckets: VecDeque<(SimTime, Vec<Option<Event<M>>>)>,
    /// Events scheduled earlier than the newest bucket.
    early: BinaryHeap<Reverse<Event<M>>>,
    /// Allocations of drained buckets, reused by new ones.
    spare: Vec<Vec<Option<Event<M>>>>,
    /// Counting-sort buffers, kept so that draining allocates nothing in the steady
    /// state: one count per id in the bucket's range, and the index order before and
    /// after a pass.
    histogram: Vec<u32>,
    by_to: Vec<u32>,
    by_link: Vec<u32>,
    len: usize,
}

impl<M: Eq> EventQueue<M> {
    pub(crate) fn new() -> Self {
        Self {
            buckets: VecDeque::new(),
            early: BinaryHeap::new(),
            spare: Vec::new(),
            histogram: Vec::new(),
            by_to: Vec::new(),
            by_link: Vec::new(),
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
            Some((newest, bucket)) if *newest == event.at => bucket.push(Some(event)),
            Some((newest, _)) if *newest > event.at => self.early.push(Reverse(event)),
            _ => {
                let mut bucket = self.spare.pop().unwrap_or_default();
                let at = event.at;
                bucket.push(Some(event));
                self.buckets.push_back((at, bucket));
            }
        }
    }

    /// Replaces the contents of `batch` with every event due at [`EventQueue::next_at`],
    /// in `(from, to, seq)` order.
    pub(crate) fn pop_batch(&mut self, batch: &mut Vec<Event<M>>) {
        batch.clear();
        let Some(at) = self.next_at() else {
            return;
        };
        let mut bucket = match self.buckets.front() {
            Some((front, _)) if *front == at => {
                self.buckets.pop_front().expect("front bucket exists").1
            }
            _ => Vec::new(),
        };
        self.sort_by_link(&bucket);
        for &index in &self.by_link {
            let event = bucket[index as usize]
                .take()
                .expect("the sort lists each index once");
            while self
                .early
                .peek()
                .is_some_and(|Reverse(first)| first.at == at && first.link_key() < event.link_key())
            {
                batch.push(self.early.pop().expect("peeked event exists").0);
            }
            batch.push(event);
        }
        while self
            .early
            .peek()
            .is_some_and(|Reverse(first)| first.at == at)
        {
            batch.push(self.early.pop().expect("peeked event exists").0);
        }
        if bucket.capacity() > 0 {
            bucket.clear();
            self.spare.push(bucket);
        }
        self.len -= batch.len();
    }

    /// Fills `by_link` with the bucket's indices in `(from, to, seq)` order: the bucket
    /// is in `seq` order, and two stable counting passes, on `to` and then on `from`,
    /// order it by link without disturbing that.
    fn sort_by_link(&mut self, bucket: &[Option<Event<M>>]) {
        let link = |index: u32| {
            let event = bucket[index as usize]
                .as_ref()
                .expect("a bucket is full until it is drained");
            (event.from, event.to)
        };
        let len = u32::try_from(bucket.len()).expect("fewer than 2^32 events per instant");
        self.by_link.clear();
        self.by_link.extend(0..len);
        counting_pass(&mut self.histogram, &self.by_link, &mut self.by_to, |i| {
            link(i).1
        });
        counting_pass(&mut self.histogram, &self.by_to, &mut self.by_link, |i| {
            link(i).0
        });
    }
}

/// One stable counting-sort pass: writes `source`'s indices to `sorted` in increasing
/// `key` order, equal keys in `source` order. The histogram spans only the range of keys
/// present.
fn counting_pass(
    histogram: &mut Vec<u32>,
    source: &[u32],
    sorted: &mut Vec<u32>,
    key: impl Fn(u32) -> ProcessId,
) {
    sorted.clear();
    let Some(low) = source.iter().map(|&i| key(i)).min() else {
        return;
    };
    let high = source
        .iter()
        .map(|&i| key(i))
        .max()
        .expect("source is not empty");
    histogram.clear();
    histogram.resize(high - low + 1, 0);
    for &i in source {
        histogram[key(i) - low] += 1;
    }
    let mut start = 0;
    for slot in histogram.iter_mut() {
        let count = *slot;
        *slot = start;
        start += count;
    }
    sorted.resize(source.len(), 0);
    for &i in source {
        let slot = &mut histogram[key(i) - low];
        sorted[*slot as usize] = i;
        *slot += 1;
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

    fn push() -> impl Strategy<Value = Op> {
        // Ids on both sides of 64, with gaps between the ranges.
        let id = || prop_oneof![0usize..4, 62usize..67, 130usize..132];
        (0u64..5, id(), id()).prop_map(|(delay, from, to)| Op::Push { delay, from, to })
    }

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec(prop_oneof![push(), push(), push(), Just(Op::Drain)], 0..200)
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
                            message: 0u8,
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
