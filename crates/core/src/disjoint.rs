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
    /// disjoint paths achieving exactly that union, sorted by [`PathSet::cmp_numeric`].
    combos: Vec<(PathSet, u32)>,
    /// All distinct paths received so far (used to avoid re-adding duplicates).
    paths: Vec<PathSet>,
    /// Running footprint of `paths` (see [`path_footprint`]), so the memory proxy never
    /// re-walks them.
    path_bytes: usize,
    /// Best number of pairwise disjoint paths found so far.
    best: usize,
    /// Whether the content was received directly from its source.
    direct: bool,
    /// Bound on `combos` size before the tracker degrades to greedy extension.
    max_combinations: usize,
    /// Whether the bound was hit at least once (statistics / debugging).
    saturated: bool,
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
        Self {
            combos: vec![(PathSet::new(), 0)],
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
        self.combos.len()
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

        // Combine the new path with every memoized combination it is disjoint from. The
        // memo is sorted and a disjoint union is an integer sum, so the candidates come
        // out sorted too (equal ones adjacent): one linear merge folds them back in.
        let candidates: Vec<(PathSet, u32)> = self
            .combos
            .iter()
            .filter(|(union, _)| union.is_disjoint(&path))
            .map(|(union, count)| (union.union(&path), count + 1))
            .collect();
        self.paths.push(path);
        let memoized = std::mem::take(&mut self.combos);
        let mut size = memoized.len();
        let mut merged: Vec<(PathSet, u32)> = Vec::with_capacity(size + candidates.len());
        let mut memoized = memoized.into_iter().peekable();
        for (union, count) in candidates {
            while let Some(entry) = memoized.next_if(|(known, _)| known.cmp_numeric(&union).is_le())
            {
                merged.push(entry);
            }
            self.best = self.best.max(count as usize);
            match merged.last_mut() {
                Some((last, known)) if *last == union => *known = (*known).max(count),
                _ if size < self.max_combinations => {
                    merged.push((union, count));
                    size += 1;
                }
                // Greedy fallback: the best count is tracked even though the union is
                // not memoized.
                _ => self.saturated = true,
            }
        }
        merged.extend(memoized);
        self.combos = merged;
        self.best_disjoint()
    }

    /// Drops all memoized state (used by MD.2: once delivered, the stored paths are no
    /// longer needed). Keeps only the delivery-relevant summary.
    pub fn clear_paths(&mut self) {
        self.paths = Vec::new();
        self.path_bytes = 0;
        self.combos = Vec::new();
    }

    /// Approximate number of bytes of protocol state held by this tracker (used by the
    /// Sec. 7.3 memory-consumption proxy). Constant time: the path share is a running
    /// total.
    pub fn approx_memory_bytes(&self) -> usize {
        self.path_bytes + 24 * self.combos.len()
    }

    /// Reference for [`DisjointPathTracker::approx_memory_bytes`]: the same figure
    /// recomputed from every stored path.
    #[cfg(test)]
    pub(crate) fn walk_memory_bytes(&self) -> usize {
        self.paths.iter().map(path_footprint).sum::<usize>() + 24 * self.combos.len()
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

    #[test]
    fn memo_matches_the_hash_map_formulation_below_saturation() {
        use std::collections::HashMap;
        // The memo as a map from union to best count, updated path by path — what the
        // sorted vector replaced. Ids up to 139 mix one-, two- and three-word sets.
        let mut reference = HashMap::from([(PathSet::new(), 0u32)]);
        let mut seen: Vec<PathSet> = Vec::new();
        let mut t = DisjointPathTracker::with_max_combinations(usize::MAX);
        for path in pseudo_random_paths(24, 140, 11) {
            if !seen.contains(&path) {
                seen.push(path.clone());
                let additions: Vec<(PathSet, u32)> = reference
                    .iter()
                    .filter(|(union, _)| union.is_disjoint(&path))
                    .map(|(union, count)| (union.union(&path), count + 1))
                    .collect();
                for (union, count) in additions {
                    let known = reference.entry(union).or_insert(0);
                    *known = (*known).max(count);
                }
            }
            let best = t.add_path(path, 0);
            assert_eq!(best, *reference.values().max().unwrap() as usize);
            assert_eq!(t.combination_count(), reference.len());
            assert!(t
                .combos
                .windows(2)
                .all(|w| w[0].0.cmp_numeric(&w[1].0).is_lt()));
            for (union, count) in &t.combos {
                assert_eq!(reference.get(union), Some(count), "{union:?}");
            }
        }
        assert!(!t.is_saturated());
        assert!(t.combination_count() > 1_000, "a non-trivial memo");
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
            t.combos,
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
