//! Verification of node-disjoint transmission paths (the core of Dolev's delivery rule).
//!
//! A process running Dolev's protocol delivers a content as soon as it has received it
//! through at least `f + 1` node-disjoint paths. Deciding whether a *set of received
//! paths* contains `f + 1` pairwise node-disjoint members is an instance of maximum set
//! packing, solved here the way the paper describes (Sec. 6.6), by dynamic programming:
//! the process remembers the combinations of disjoint paths explored so far (as the union
//! of their node sets plus a cardinality), and combines each newly received path with the
//! memoized combinations instead of recomputing all combinations from scratch. (Disjoint
//! paths necessarily arrive through distinct neighbors; the relaying neighbor is a member
//! of the path's node set, so the disjointness test covers it.)
//!
//! A message received **directly from the source** over the authenticated link is a path
//! with an empty set of intermediate nodes; it is disjoint from every other path and, when
//! modification MD.1 is enabled, short-circuits the whole computation.
//!
//! **Memo layout.** The memo is one flat `u64` array sorted in the numeric order of
//! [`DEFAULT_MAX_COMBINATIONS`], a fixed number of words per entry: the union's words, as many as the widest path seen
//! (zero past the union's own width), then one word holding the union's width and its
//! count. The width is kept because [`PathSet`] equality sees it: a union that once held
//! a high identifier is a different union from the narrower one with the same members,
//! exactly as a map keyed by [`PathSet`] would tell them apart. Adding a path reads the
//! memo once and writes the merged memo into a second buffer the tracker owns, then
//! swaps the two, so a call allocates nothing once the buffers have grown.

use crate::pathset::PathSet;
use crate::types::ProcessId;

/// Default bound on the number of memoized combinations kept per content.
///
/// The worst-case number of combinations is exponential (this is exactly the exponential
/// verification cost the paper attributes to Dolev's protocol); the tracker keeps the
/// search exact until this bound and degrades to a "best effort" greedy extension beyond
/// it. The bound is far above what any of the paper's workloads produce once MD.1–5 are
/// enabled.
///
/// **Saturation rule.** A new path is combined with the memoized unions in increasing
/// [`PathSet`] value order (the union read as one integer, identifier 0 least
/// significant; narrower sets first among equal values). While the memo holds fewer than
/// the bound, every union not yet memoized is added; once it holds that many, new
/// unions are dropped (their cardinality still raises [`DisjointPathTracker::best_disjoint`])
/// while unions already memoized keep improving their counts. What survives therefore
/// depends only on the sequence of paths, never on the run: the reported count is a
/// sound lower bound and the same one on every replay.
pub const DEFAULT_MAX_COMBINATIONS: usize = 50_000;

/// Incremental tracker of the maximum number of node-disjoint paths received for one
/// content.
#[derive(Debug, Clone)]
pub struct DisjointPathTracker {
    /// Memoized combinations: union of intermediate nodes and the maximum number of
    /// disjoint paths achieving exactly that union, in increasing numeric order (see
    /// [`DEFAULT_MAX_COMBINATIONS`]).
    memo: Memo,
    /// The buffer the next merge writes into; swapped with `memo` after each merge.
    spare: Memo,
    /// All distinct paths received so far (used to avoid re-adding duplicates).
    paths: Vec<PathSet>,
    /// Running footprint of `paths` (see [`path_footprint`]), so the memory proxy never
    /// re-walks them.
    path_bytes: usize,
    /// Best number of pairwise disjoint paths found so far.
    best: usize,
    /// Whether the content was received directly from its source.
    direct: bool,
    /// Bound on the memo's size before the tracker degrades to greedy extension.
    max_combinations: usize,
    /// Whether the bound was hit at least once (statistics / debugging).
    saturated: bool,
}

/// The memo in one flat word array, `stride + 1` words per entry: a union's words, zero
/// past its own width, then one word holding that width (a [`PathSet`]'s word count,
/// which its equality and order see) in the high half and the union's count in the low
/// half.
#[derive(Debug, Clone)]
struct Memo {
    /// Words per union: the widest union or path seen so far, at least one.
    stride: usize,
    slots: Vec<u64>,
}

impl Memo {
    fn empty(stride: usize) -> Self {
        Self {
            stride,
            slots: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.slots.len() / (self.stride + 1)
    }

    fn union(&self, i: usize) -> &[u64] {
        &self.slots[i * (self.stride + 1)..][..self.stride]
    }

    fn tag(&self, i: usize) -> u64 {
        self.slots[i * (self.stride + 1) + self.stride]
    }

    fn tag_of(width: u32, count: u32) -> u64 {
        (u64::from(width) << 32) | u64::from(count)
    }

    fn width(&self, i: usize) -> u32 {
        (self.tag(i) >> 32) as u32
    }

    fn count(&self, i: usize) -> u32 {
        self.tag(i) as u32
    }

    /// Raises union `i`'s count to at least `count`.
    fn raise(&mut self, i: usize, count: u32) {
        let raised = Self::tag_of(self.width(i), self.count(i).max(count));
        self.slots[i * (self.stride + 1) + self.stride] = raised;
    }

    /// Appends `a ∪ b` as `width` words wide, reached by `count` paths. `b` may be
    /// narrower than the stride.
    fn push_union(&mut self, a: &[u64], b: &[u64], width: u32, count: u32) {
        self.slots
            .extend((0..self.stride).map(|k| word(a, k) | word(b, k)));
        self.slots.push(Self::tag_of(width, count));
    }

    /// Appends `from`'s union `i` (of the same stride), reached by `count` paths.
    fn push_entry(&mut self, from: &Memo, i: usize, count: u32) {
        self.slots.extend_from_slice(from.union(i));
        self.slots.push(Self::tag_of(from.width(i), count));
    }

    /// Empties the memo and sets its stride, keeping its allocation.
    fn reset(&mut self, stride: usize) {
        self.stride = stride;
        self.slots.clear();
    }
}

/// Word `k` of a set stored as `words`, zero past its end.
fn word(words: &[u64], k: usize) -> u64 {
    words.get(k).copied().unwrap_or(0)
}

/// The memo's numeric order (`PathSet::cmp_numeric`) between the stored union `a`
/// (`a_width` words wide) and the union of `b` and `p` (`union_width` words wide),
/// without building the latter.
fn cmp_with_union(
    a: &[u64],
    a_width: u32,
    b: &[u64],
    p: &[u64],
    union_width: u32,
) -> std::cmp::Ordering {
    for k in (0..a.len()).rev() {
        let union = b[k] | word(p, k);
        if a[k] != union {
            return a[k].cmp(&union);
        }
    }
    a_width.cmp(&union_width)
}

impl Default for DisjointPathTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl DisjointPathTracker {
    /// Creates a tracker with the default combination bound.
    pub fn new() -> Self {
        Self::with_max_combinations(DEFAULT_MAX_COMBINATIONS)
    }

    /// Creates a tracker with a custom combination bound.
    pub fn with_max_combinations(max_combinations: usize) -> Self {
        let mut memo = Memo::empty(1);
        memo.push_union(&[], &[], 0, 0);
        Self {
            memo,
            spare: Memo::empty(1),
            paths: Vec::new(),
            path_bytes: 0,
            best: 0,
            direct: false,
            max_combinations: max_combinations.max(1),
            saturated: false,
        }
    }

    /// Records that the content was received directly from its source over the
    /// authenticated link joining them.
    pub fn record_direct(&mut self) {
        self.direct = true;
    }

    /// Number of distinct paths recorded.
    pub fn path_count(&self) -> usize {
        self.paths.len()
    }

    /// Number of memoized combinations currently stored (a proxy for the verification
    /// memory the paper measures in Sec. 7.3).
    pub fn combination_count(&self) -> usize {
        self.memo.len()
    }

    /// Whether the combination bound was reached (the result may then be a lower bound).
    pub fn is_saturated(&self) -> bool {
        self.saturated
    }

    /// Best number of pairwise node-disjoint paths found so far. A direct reception counts
    /// as one disjoint path on top of the relayed ones (its intermediate set is empty).
    pub fn best_disjoint(&self) -> usize {
        if self.direct {
            self.best + 1
        } else {
            self.best
        }
    }

    /// Returns whether the stored paths certify `threshold` node-disjoint paths.
    pub fn reaches(&self, threshold: usize) -> bool {
        self.best_disjoint() >= threshold
    }

    /// Whether an already-recorded path is a subset of `path` (used by MBD.10 before
    /// calling [`DisjointPathTracker::add_path`]).
    pub fn has_subpath_of(&self, path: &PathSet) -> bool {
        self.paths.iter().any(|p| p.is_subset(path))
    }

    /// Records a new path (a set of intermediate process identifiers, excluding the source
    /// and the destination) and returns the updated best disjoint count. The relaying
    /// neighbor `_via` is not consulted: callers include it in `path`, which is what
    /// keeps two paths through one neighbor from counting as disjoint.
    ///
    /// Duplicate paths are ignored. An empty `path` coming from a relay (not the source)
    /// never occurs in Dolev's protocol — empty relayed paths are produced by MD.2 and are
    /// translated by the caller into a singleton set containing the relaying neighbor.
    pub fn add_path(&mut self, path: PathSet, _via: ProcessId) -> usize {
        if self.paths.contains(&path) {
            return self.best_disjoint();
        }
        self.path_bytes += path_footprint(&path);
        if path.words().len() > self.memo.stride {
            self.widen(path.words().len());
        }
        self.merge(path.words());
        self.paths.push(path);
        self.best_disjoint()
    }

    /// Combines `path` with every memoized union it is disjoint from, in one pass.
    ///
    /// The memo is sorted and a disjoint union is an integer sum, so the candidates come
    /// out sorted too, equal ones adjacent: each is merged into the output right after
    /// the memoized unions below it. A candidate equal to a memoized union or to the
    /// candidate before it raises that one's count; a new one joins while the memo holds
    /// fewer than the bound.
    fn merge(&mut self, path: &[u64]) {
        let path_width = u32::try_from(path.len()).expect("a path set's width fits in u32");
        let (memo, out) = (&self.memo, &mut self.spare);
        out.reset(memo.stride);
        let mut size = memo.len();
        let mut copied = 0;
        for j in 0..memo.len() {
            let base = memo.union(j);
            if base.iter().zip(path).any(|(a, b)| a & b != 0) {
                continue;
            }
            let width = memo.width(j).max(path_width);
            let count = memo.count(j) + 1;
            self.best = self.best.max(count as usize);
            if let Some(last) = out.len().checked_sub(1).filter(|&last| {
                cmp_with_union(out.union(last), out.width(last), base, path, width).is_eq()
            }) {
                out.raise(last, count);
                continue;
            }
            while copied < memo.len()
                && cmp_with_union(memo.union(copied), memo.width(copied), base, path, width).is_lt()
            {
                out.push_entry(memo, copied, memo.count(copied));
                copied += 1;
            }
            if copied < memo.len()
                && cmp_with_union(memo.union(copied), memo.width(copied), base, path, width).is_eq()
            {
                out.push_entry(memo, copied, memo.count(copied).max(count));
                copied += 1;
            } else if size < self.max_combinations {
                out.push_union(base, path, width, count);
                size += 1;
            } else {
                // Greedy fallback: the best count is tracked even though the union is
                // not memoized.
                self.saturated = true;
            }
        }
        let tail = copied * (memo.stride + 1);
        out.slots.extend_from_slice(&memo.slots[tail..]);
        std::mem::swap(&mut self.memo, &mut self.spare);
    }

    /// Re-lays the memo out `stride` words per union.
    fn widen(&mut self, stride: usize) {
        let (memo, out) = (&self.memo, &mut self.spare);
        out.reset(stride);
        for i in 0..memo.len() {
            out.push_union(memo.union(i), &[], memo.width(i), memo.count(i));
        }
        std::mem::swap(&mut self.memo, &mut self.spare);
    }

    /// Drops all memoized state (used by MD.2: once delivered, the stored paths are no
    /// longer needed). Keeps only the delivery-relevant summary.
    pub fn clear_paths(&mut self) {
        self.paths = Vec::new();
        self.path_bytes = 0;
        self.memo = Memo::empty(self.memo.stride);
        self.spare = Memo::empty(self.memo.stride);
    }

    /// Approximate number of bytes of protocol state held by this tracker (used by the
    /// Sec. 7.3 memory-consumption proxy). Constant time: the path share is a running
    /// total.
    pub fn approx_memory_bytes(&self) -> usize {
        self.path_bytes + 24 * self.memo.len()
    }

    /// The memo as `(union, count)` pairs in memo order.
    #[cfg(test)]
    pub(crate) fn memo(&self) -> Vec<(PathSet, u32)> {
        (0..self.memo.len())
            .map(|i| {
                let words = self.memo.union(i);
                let mut union = PathSet::from_iter_ids(
                    (0..64 * words.len()).filter(|&id| words[id / 64] & (1 << (id % 64)) != 0),
                );
                // Widen to the stored width: PathSet equality sees it.
                let width = self.memo.width(i) as usize;
                if width > 0 && union.insert(64 * width - 1) {
                    union.remove(64 * width - 1);
                }
                (union, self.memo.count(i))
            })
            .collect()
    }

    /// Reference for [`DisjointPathTracker::approx_memory_bytes`]: the same figure
    /// recomputed from every stored path.
    #[cfg(test)]
    pub(crate) fn walk_memory_bytes(&self) -> usize {
        self.paths.iter().map(path_footprint).sum::<usize>() + 24 * self.memo.len()
    }
}

/// Bytes one stored path accounts for in the memory proxy: one 64-bit word per 64
/// members, rounded up past the last full word.
fn path_footprint(path: &PathSet) -> usize {
    8 * (path.len() / 64 + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn ps(ids: &[ProcessId]) -> PathSet {
        PathSet::from_iter_ids(ids.iter().copied())
    }

    #[test]
    fn empty_tracker_has_no_disjoint_paths() {
        let t = DisjointPathTracker::new();
        assert_eq!(t.best_disjoint(), 0);
        assert!(!t.reaches(1));
        assert_eq!(t.path_count(), 0);
    }

    #[test]
    fn direct_reception_counts_as_one_path() {
        let mut t = DisjointPathTracker::new();
        t.record_direct();
        assert_eq!(t.best_disjoint(), 1);
        assert!(t.reaches(1));
        assert!(!t.reaches(2));
    }

    #[test]
    fn two_disjoint_paths() {
        let mut t = DisjointPathTracker::new();
        assert_eq!(t.add_path(ps(&[1, 2]), 2), 1);
        assert_eq!(t.add_path(ps(&[3, 4]), 4), 2);
        assert!(t.reaches(2));
    }

    #[test]
    fn overlapping_paths_do_not_increase_count() {
        let mut t = DisjointPathTracker::new();
        t.add_path(ps(&[1, 2]), 2);
        t.add_path(ps(&[2, 3]), 3);
        assert_eq!(t.best_disjoint(), 1);
    }

    #[test]
    fn needs_search_not_greedy() {
        // Greedy by arrival order would pick {1,2,3} first and then be stuck; the optimal
        // packing {1,2} + {3,4} requires considering combinations.
        let mut t = DisjointPathTracker::new();
        t.add_path(ps(&[1, 2, 3]), 3);
        t.add_path(ps(&[1, 2]), 2);
        t.add_path(ps(&[3, 4]), 4);
        assert_eq!(t.best_disjoint(), 2);
    }

    #[test]
    fn direct_plus_relayed() {
        let mut t = DisjointPathTracker::new();
        t.add_path(ps(&[5]), 5);
        t.record_direct();
        assert_eq!(t.best_disjoint(), 2);
    }

    #[test]
    fn duplicate_paths_are_ignored() {
        let mut t = DisjointPathTracker::new();
        t.add_path(ps(&[1]), 1);
        t.add_path(ps(&[1]), 1);
        assert_eq!(t.path_count(), 1);
        assert_eq!(t.best_disjoint(), 1);
    }

    #[test]
    fn three_way_packing() {
        let mut t = DisjointPathTracker::new();
        t.add_path(ps(&[1, 2]), 1);
        t.add_path(ps(&[3]), 3);
        t.add_path(ps(&[4, 5]), 4);
        t.add_path(ps(&[1, 3, 5]), 5);
        assert_eq!(t.best_disjoint(), 3);
        assert!(t.reaches(3));
        assert!(!t.reaches(4));
    }

    #[test]
    fn subpath_detection_for_mbd10() {
        let mut t = DisjointPathTracker::new();
        t.add_path(ps(&[1, 2]), 2);
        assert!(t.has_subpath_of(&ps(&[1, 2, 3])));
        assert!(t.has_subpath_of(&ps(&[1, 2])));
        assert!(!t.has_subpath_of(&ps(&[2, 3])));
    }

    #[test]
    fn clear_paths_resets_memory_but_not_best() {
        let mut t = DisjointPathTracker::new();
        t.add_path(ps(&[1]), 1);
        t.add_path(ps(&[2]), 2);
        assert!(t.approx_memory_bytes() > 0);
        t.clear_paths();
        assert_eq!(t.path_count(), 0);
        assert_eq!(t.combination_count(), 0);
        // The best count reflects what has already been verified.
        assert_eq!(t.best_disjoint(), 2);
    }

    #[test]
    fn saturation_keeps_a_sound_lower_bound() {
        let mut t = DisjointPathTracker::with_max_combinations(2);
        t.add_path(ps(&[1]), 1);
        t.add_path(ps(&[2]), 2);
        t.add_path(ps(&[3]), 3);
        assert!(t.is_saturated());
        // Even when saturated, reported counts never exceed the true optimum.
        assert!(t.best_disjoint() <= 3);
        assert!(t.best_disjoint() >= 1);
    }

    /// `count` pseudo-random paths of 1..=4 distinct ids below `ids` (a fixed LCG: the
    /// same paths on every call).
    fn pseudo_random_paths(count: usize, ids: usize, mut state: u64) -> Vec<PathSet> {
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize
        };
        (0..count)
            .map(|_| {
                let len = 1 + next() % 4;
                PathSet::from_iter_ids((0..len).map(|_| next() % ids))
            })
            .collect()
    }

    /// The memo as a map from union to best count, updated path by path — what the
    /// sorted memo replaced. Exact, with no bound.
    struct MapReference {
        memo: HashMap<PathSet, u32>,
        seen: Vec<PathSet>,
    }

    impl MapReference {
        fn new() -> Self {
            Self {
                memo: HashMap::from([(PathSet::new(), 0)]),
                seen: Vec::new(),
            }
        }

        fn add(&mut self, path: &PathSet) {
            if self.seen.contains(path) {
                return;
            }
            self.seen.push(path.clone());
            let additions: Vec<(PathSet, u32)> = self
                .memo
                .iter()
                .filter(|(union, _)| union.is_disjoint(path))
                .map(|(union, count)| (union.union(path), count + 1))
                .collect();
            for (union, count) in additions {
                let known = self.memo.entry(union).or_insert(0);
                *known = (*known).max(count);
            }
        }

        fn best(&self) -> usize {
            *self
                .memo
                .values()
                .max()
                .expect("the empty union is always there") as usize
        }

        /// Asserts `tracker`'s memo holds exactly these unions and counts, in strictly
        /// increasing [`PathSet::cmp_numeric`] order.
        fn assert_matches(&self, tracker: &DisjointPathTracker) {
            let memo = tracker.memo();
            assert_eq!(tracker.combination_count(), self.memo.len());
            assert_eq!(memo.len(), self.memo.len());
            assert!(memo.windows(2).all(|w| w[0].0.cmp_numeric(&w[1].0).is_lt()));
            for (union, count) in &memo {
                assert_eq!(self.memo.get(union), Some(count), "{union:?}");
            }
        }
    }

    /// The saturation rule of [`DEFAULT_MAX_COMBINATIONS`] written as plainly as
    /// possible: every candidate union, in increasing [`PathSet::cmp_numeric`] order,
    /// raises the memoized union equal to it, or joins the memo while it holds fewer than
    /// `bound` unions. Returns the largest candidate count, which is what the tracker's
    /// best count grows to.
    fn spec_add(memo: &mut Vec<(PathSet, u32)>, path: &PathSet, bound: usize) -> usize {
        let mut candidates: Vec<(PathSet, u32)> = memo
            .iter()
            .filter(|(union, _)| union.is_disjoint(path))
            .map(|(union, count)| (union.union(path), count + 1))
            .collect();
        candidates.sort_by(|a, b| a.0.cmp_numeric(&b.0));
        let mut best = 0;
        for (union, count) in candidates {
            best = best.max(count as usize);
            if let Some((_, known)) = memo.iter_mut().find(|(known, _)| *known == union) {
                *known = (*known).max(count);
            } else if memo.len() < bound {
                memo.push((union, count));
            }
        }
        memo.sort_by(|a, b| a.0.cmp_numeric(&b.0));
        best
    }

    /// The most pairwise node-disjoint paths among `paths`, by exhaustive search over
    /// their subsets.
    fn max_packing(paths: &[PathSet], used: &PathSet) -> usize {
        let Some((first, rest)) = paths.split_first() else {
            return 0;
        };
        let without = max_packing(rest, used);
        if first.is_disjoint(used) {
            without.max(1 + max_packing(rest, &used.union(first)))
        } else {
            without
        }
    }

    /// Every `size`-subset of `0..len` as a bit mask, in increasing order (Gosper's hack).
    fn subsets(len: usize, size: usize) -> impl Iterator<Item = u64> {
        std::iter::successors(Some((1u64 << size) - 1), |&set| {
            let low = set & set.wrapping_neg();
            let ripple = set + low;
            (set != 0).then(|| (((ripple ^ set) >> 2) / low) | ripple)
        })
        .take_while(move |&set| set < 1 << len)
    }

    /// The fewest processes that hit every path, by exhaustive search over the subsets of
    /// the union of the paths' members, smallest first. A direct reception is the path
    /// `{source}`, which only the source hits and no relayed path contains, so it adds
    /// one. `None` when an empty path is stored: nothing hits it.
    fn min_cover(paths: &[PathSet], direct: bool) -> Option<usize> {
        if paths.iter().any(PathSet::is_empty) {
            return None;
        }
        let mut members: Vec<ProcessId> = paths.iter().flat_map(PathSet::iter).collect();
        members.sort_unstable();
        members.dedup();
        let masks: Vec<u64> = paths
            .iter()
            .map(|path| {
                let bits = members
                    .iter()
                    .enumerate()
                    .filter(|(_, &id)| path.contains(id));
                bits.fold(0, |mask, (bit, _)| mask | 1 << bit)
            })
            .collect();
        let relayed = (0..=members.len())
            .find(|&size| {
                subsets(members.len(), size).any(|set| masks.iter().all(|mask| mask & set != 0))
            })
            .expect("all the members together hit every path");
        Some(relayed + usize::from(direct))
    }

    /// The cover half of the oracle, checked after an `add_path`: weak duality (no
    /// packing of the distinct paths `seen` is larger than a cover of them), and the
    /// delivery rule's safety (when `tracker` reaches `t`, no fewer than `t` processes
    /// hit every stored path, so `t - 1` Byzantine processes cannot have forged them all).
    fn assert_no_cover_below_reach(tracker: &DisjointPathTracker, seen: &[PathSet], direct: bool) {
        let Some(cover) = min_cover(seen, direct) else {
            return;
        };
        let packing = max_packing(seen, &PathSet::new()) + usize::from(direct);
        assert!(
            packing <= cover,
            "packing {packing} > cover {cover}: {seen:?}"
        );
        assert!(
            !tracker.reaches(cover + 1),
            "reaches {} with a cover of {cover}: {seen:?}",
            tracker.best_disjoint()
        );
    }

    #[test]
    fn min_cover_of_known_path_sets() {
        assert_eq!(min_cover(&[], false), Some(0));
        assert_eq!(min_cover(&[], true), Some(1));
        assert_eq!(min_cover(&[ps(&[1, 2]), ps(&[2, 3])], false), Some(1));
        // The two-path packing {1,2} + {3,4} needs two hits; a triangle of pairs needs two
        // hits too, but packs only one path.
        assert_eq!(min_cover(&[ps(&[1, 2]), ps(&[3, 4])], true), Some(3));
        let triangle = [ps(&[1, 2]), ps(&[2, 3]), ps(&[1, 3])];
        assert_eq!(min_cover(&triangle, false), Some(2));
        assert_eq!(max_packing(&triangle, &PathSet::new()), 1);
        assert_eq!(min_cover(&[ps(&[1]), PathSet::new()], false), None);
    }

    #[test]
    fn forged_flood_through_one_neighbor_stays_below_its_cover() {
        // The flood of `dolev::tests::forged_path_flood_through_one_neighbor_cannot_block_delivery`
        // at F = 92: every path forged behind neighbor 1 carries 1, so one process hits
        // them all. Five honest pairs then need five more hits.
        let pool: Vec<ProcessId> = (12..20).collect();
        let mut tracker = DisjointPathTracker::new();
        let mut seen = Vec::new();
        for subset in subsets(pool.len(), 1)
            .chain(subsets(pool.len(), 2))
            .chain(subsets(pool.len(), 3))
        {
            let members = (0..pool.len()).filter(|&bit| subset & 1 << bit != 0);
            let path = PathSet::from_iter_ids(std::iter::once(1).chain(members.map(|b| pool[b])));
            seen.push(path.clone());
            tracker.add_path(path, 1);
            assert_no_cover_below_reach(&tracker, &seen, false);
        }
        assert_eq!(seen.len(), 92);
        assert_eq!(min_cover(&seen, false), Some(1));
        for (via, next) in [(2, 3), (4, 5), (6, 7), (8, 9), (10, 11)] {
            seen.push(ps(&[via, next]));
            tracker.add_path(ps(&[via, next]), via);
            assert_no_cover_below_reach(&tracker, &seen, false);
        }
        assert_eq!(min_cover(&seen, false), Some(6));
        assert!(tracker.reaches(5), "five disjoint honest paths");
    }

    #[test]
    fn memo_matches_the_hash_map_formulation_below_saturation() {
        // Ids up to 139 mix one-, two- and three-word sets.
        let mut reference = MapReference::new();
        let mut t = DisjointPathTracker::with_max_combinations(usize::MAX);
        for path in pseudo_random_paths(24, 140, 11) {
            reference.add(&path);
            let best = t.add_path(path, 0);
            assert_eq!(best, reference.best());
            reference.assert_matches(&t);
        }
        assert!(!t.is_saturated());
        assert!(t.combination_count() > 1_000, "a non-trivial memo");
    }

    /// One step of a generated path sequence: a fresh path, or a repeat of an earlier
    /// one (the tracker must ignore it).
    #[derive(Debug, Clone)]
    enum Step {
        Fresh(PathSet),
        Repeat(usize),
    }

    /// A fresh path of 0..=4 ids drawn around the one-, two- and three-word boundaries.
    /// A nonzero `widen` id is inserted and removed again: the members stay, the set is
    /// wider, and it is a different stored path.
    fn fresh_path() -> impl Strategy<Value = Step> {
        let id = prop_oneof![0usize..8, 60usize..68, 126usize..134];
        let widen = prop_oneof![Just(0usize), Just(0usize), 64usize..200];
        (proptest::collection::vec(id, 0..5), widen).prop_map(|(ids, widen)| {
            let mut path = PathSet::from_iter_ids(ids);
            if widen != 0 && path.insert(widen) {
                path.remove(widen);
            }
            Step::Fresh(path)
        })
    }

    /// Sequences of up to 13 steps, one in three a repeat.
    fn path_sequences() -> impl Strategy<Value = Vec<Step>> {
        let repeat = (0usize..13).prop_map(Step::Repeat);
        proptest::collection::vec(prop_oneof![fresh_path(), fresh_path(), repeat], 0..14)
    }

    fn paths_of(steps: Vec<Step>) -> Vec<PathSet> {
        let mut paths: Vec<PathSet> = Vec::new();
        for step in steps {
            match step {
                Step::Fresh(path) => paths.push(path),
                Step::Repeat(i) if !paths.is_empty() => paths.push(paths[i % paths.len()].clone()),
                Step::Repeat(_) => {}
            }
        }
        paths
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256)
            .with_rng_seed(0xD150_1470_AC1E)
            .with_failure_persistence(FileFailurePersistence::SourceParallel("proptest-regressions")))]

        /// After every `add_path` the unbounded memo holds exactly the hash-map
        /// formulation's unions and counts, its best count is the exhaustive maximum
        /// packing of the distinct paths seen so far, and no cover of them is smaller
        /// than what it reaches, with and without a direct reception.
        #[test]
        fn memo_is_exact_against_brute_force_packing(steps in path_sequences()) {
            let mut tracker = DisjointPathTracker::new();
            let mut direct = DisjointPathTracker::new();
            direct.record_direct();
            let mut reference = MapReference::new();
            for path in paths_of(steps) {
                reference.add(&path);
                direct.add_path(path.clone(), 0);
                let best = tracker.add_path(path, 0);
                prop_assert!(!tracker.is_saturated());
                prop_assert_eq!(tracker.path_count(), reference.seen.len());
                prop_assert_eq!(best, max_packing(&reference.seen, &PathSet::new()));
                prop_assert_eq!(best, reference.best());
                reference.assert_matches(&tracker);
                assert_no_cover_below_reach(&tracker, &reference.seen, false);
                assert_no_cover_below_reach(&direct, &reference.seen, true);
            }
        }

        /// Under small bounds the memo follows the saturation rule exactly, so it is one
        /// lower bound, the same on every replay.
        #[test]
        fn small_bounds_give_one_replayable_lower_bound(steps in path_sequences()) {
            let paths = paths_of(steps);
            for bound in [1, 2, 3, 5, 8] {
                let mut tracker = DisjointPathTracker::with_max_combinations(bound);
                let mut spec = vec![(PathSet::new(), 0u32)];
                let mut spec_best = 0;
                let mut seen: Vec<PathSet> = Vec::new();
                for path in &paths {
                    if !seen.contains(path) {
                        seen.push(path.clone());
                        spec_best = spec_best.max(spec_add(&mut spec, path, bound));
                    }
                    let best = tracker.add_path(path.clone(), 0);
                    prop_assert_eq!(best, spec_best);
                    prop_assert!(best <= max_packing(&seen, &PathSet::new()));
                    prop_assert_eq!(&tracker.memo(), &spec);
                    prop_assert!(tracker.combination_count() <= bound);
                }
            }
        }
    }

    #[test]
    fn saturated_trackers_fed_the_same_paths_agree() {
        // Which unions survive saturation used to follow each map's hash seed: 200
        // trackers fed these 60 paths ended at 4 or 5 (bound 16), 5 or 6 (32), 6 or 7
        // (128) disjoint paths. The memo has one order now, so there is one outcome.
        let paths = pseudo_random_paths(60, 24, 7);
        for bound in [16, 32, 128] {
            let trace = |_| {
                let mut t = DisjointPathTracker::with_max_combinations(bound);
                let trace: Vec<(usize, usize)> = paths
                    .iter()
                    .map(|path| (t.add_path(path.clone(), 0), t.combination_count()))
                    .collect();
                assert!(t.is_saturated());
                assert!(t.combination_count() <= bound);
                trace
            };
            let first = trace(0);
            assert!((1..200).all(|i| trace(i) == first), "bound {bound}");
        }
    }

    #[test]
    fn memoized_unions_keep_improving_at_the_bound() {
        // Bound 3: {} {1} {1,2} fill the memo.
        let mut t = DisjointPathTracker::with_max_combinations(3);
        t.add_path(ps(&[1, 2]), 2);
        t.add_path(ps(&[1]), 1);
        assert_eq!((t.best_disjoint(), t.combination_count()), (1, 3));
        assert!(!t.is_saturated());
        // {2} alone is a new union and is dropped; {1} + {2} = {1,2} is memoized already
        // and its count rises from 1 to 2.
        assert_eq!(t.add_path(ps(&[2]), 2), 2);
        assert!(t.is_saturated());
        assert_eq!(
            t.memo(),
            vec![(ps(&[]), 0), (ps(&[1]), 1), (ps(&[1, 2]), 2)]
        );
    }

    #[test]
    fn running_memory_total_matches_the_per_path_walk() {
        let mut t = DisjointPathTracker::with_max_combinations(2);
        assert_eq!(t.approx_memory_bytes(), t.walk_memory_bytes());
        // Adds (one path spanning a second 64-bit word), a duplicate, and saturation of
        // the combination memo at the third distinct path.
        for (path, via) in [
            (ps(&[1]), 1),
            (ps(&[2, 70, 130]), 2),
            (ps(&[1]), 1),
            (ps(&[3]), 3),
            (PathSet::from_iter_ids(0..64), 9),
        ] {
            t.add_path(path, via);
            assert_eq!(t.approx_memory_bytes(), t.walk_memory_bytes());
        }
        assert!(t.is_saturated());
        assert_eq!(t.path_count(), 4);
        assert_eq!(t.approx_memory_bytes(), 8 + 8 + 8 + 16 + 24 * 2);
        assert_eq!(t.clone().approx_memory_bytes(), t.approx_memory_bytes());
        t.clear_paths();
        assert_eq!(t.approx_memory_bytes(), 0);
        assert_eq!(t.walk_memory_bytes(), 0);
    }
}
