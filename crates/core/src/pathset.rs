//! Compact representation of the set of process labels traversed by a relayed message.
//!
//! The paper notes (Sec. 6.4, MBD.10) that processes represent received paths using bit
//! arrays stored in a list. [`PathSet`] is that bit array: a small, growable bitset over
//! process identifiers supporting the three operations the protocol needs — insertion,
//! disjointness tests and subset tests.

use std::fmt;

use crate::types::ProcessId;

/// Words a set keeps in place; identifiers from `64 * INLINE_WORDS` up spill to the heap.
const INLINE_WORDS: usize = 2;

/// Storage of a [`PathSet`]. The representation is a function of the word count (in
/// place up to [`INLINE_WORDS`], on the heap above), and in-place words past `len` are
/// zero, so the derived `Eq` / `Hash` see exactly the `len` words and nothing else.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Words {
    Inline { len: u8, words: [u64; INLINE_WORDS] },
    Heap(Box<[u64]>),
}

/// A set of process identifiers, backed by a word-level bitset.
///
/// Used to store the *intermediate* nodes of a received transmission path, to test whether
/// two paths are node-disjoint (their intersection is empty) and whether one path is a
/// subpath of another (subset inclusion, modification MBD.10), and as the quorum /
/// neighbor sets of the engines.
///
/// Sets over identifiers below 128 (every system size the paper evaluates) live entirely
/// in place: building, copying and combining them allocates nothing. The word count only
/// grows (to hold the largest identifier ever inserted) and is part of equality: a set
/// that once held identifier 70 stays two words wide after `remove(70)` and differs from
/// the one-word set with the same members.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct PathSet(Words);

impl Default for PathSet {
    fn default() -> Self {
        PathSet(Words::Inline {
            len: 0,
            words: [0; INLINE_WORDS],
        })
    }
}

impl PathSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a set from an iterator of process identifiers.
    pub fn from_iter_ids(ids: impl IntoIterator<Item = ProcessId>) -> Self {
        let mut s = Self::new();
        for id in ids {
            s.insert(id);
        }
        s
    }

    /// The set's words, identifier 0 in bit 0 of word 0; as many as its width.
    #[inline]
    pub(crate) fn words(&self) -> &[u64] {
        match &self.0 {
            Words::Inline { len, words } => &words[..usize::from(*len)],
            Words::Heap(words) => words,
        }
    }

    /// The words as a mutable slice at least `len` long (growing the set if needed).
    fn words_mut(&mut self, len: usize) -> &mut [u64] {
        if len > self.words().len() {
            if len <= INLINE_WORDS {
                if let Words::Inline { len: current, .. } = &mut self.0 {
                    *current = len as u8;
                }
            } else {
                let mut grown = self.words().to_vec();
                grown.resize(len, 0);
                self.0 = Words::Heap(grown.into_boxed_slice());
            }
        }
        match &mut self.0 {
            Words::Inline { len, words } => &mut words[..usize::from(*len)],
            Words::Heap(words) => words,
        }
    }

    /// Inserts a process identifier; returns whether it was newly inserted.
    pub fn insert(&mut self, id: ProcessId) -> bool {
        let (word, mask) = (id / 64, 1u64 << (id % 64));
        let slot = &mut self.words_mut(word + 1)[word];
        let newly = *slot & mask == 0;
        *slot |= mask;
        newly
    }

    /// Removes a process identifier; returns whether it was present.
    pub fn remove(&mut self, id: ProcessId) -> bool {
        let (word, mask) = (id / 64, 1u64 << (id % 64));
        if word >= self.words().len() {
            return false;
        }
        let slot = &mut self.words_mut(0)[word];
        let present = *slot & mask != 0;
        *slot &= !mask;
        present
    }

    /// Whether the identifier is in the set.
    pub fn contains(&self, id: ProcessId) -> bool {
        let (word, bit) = (id / 64, id % 64);
        self.words()
            .get(word)
            .is_some_and(|w| w & (1u64 << bit) != 0)
    }

    /// Number of identifiers in the set.
    pub fn len(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words().iter().all(|&w| w == 0)
    }

    /// Whether `self` and `other` have no identifier in common (node-disjoint paths).
    #[inline]
    pub fn is_disjoint(&self, other: &PathSet) -> bool {
        self.words()
            .iter()
            .zip(other.words().iter())
            .all(|(a, b)| a & b == 0)
    }

    /// Whether every identifier of `self` is also in `other` (subpath test of MBD.10).
    pub fn is_subset(&self, other: &PathSet) -> bool {
        let theirs = other.words();
        self.words()
            .iter()
            .enumerate()
            .all(|(i, &w)| w & !theirs.get(i).copied().unwrap_or(0) == 0)
    }

    /// Union of two sets (as wide as the wider of the two).
    #[inline]
    pub fn union(&self, other: &PathSet) -> PathSet {
        let (wide, narrow) = if self.words().len() >= other.words().len() {
            (self, other)
        } else {
            (other, self)
        };
        let mut union = wide.clone();
        for (w, o) in union.words_mut(0).iter_mut().zip(narrow.words()) {
            *w |= o;
        }
        union
    }

    /// Total order of the disjoint-path memo: by value as one big integer (word 0 least
    /// significant), then by word count. For disjoint `a`, `p` the union is the integer
    /// sum, so `a < b` implies `a ∪ p <= b ∪ p`: combining a sorted sequence with one
    /// path keeps it sorted. The memo compares its flat words this way; this is the
    /// reference its tests hold it to.
    #[cfg(test)]
    pub(crate) fn cmp_numeric(&self, other: &PathSet) -> std::cmp::Ordering {
        let (a, b) = (self.words(), other.words());
        for i in (0..a.len().max(b.len())).rev() {
            let (x, y) = (
                a.get(i).copied().unwrap_or(0),
                b.get(i).copied().unwrap_or(0),
            );
            if x != y {
                return x.cmp(&y);
            }
        }
        a.len().cmp(&b.len())
    }

    /// Iterator over the identifiers in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.words().iter().enumerate().flat_map(|(wi, &w)| {
            (0..64).filter_map(move |b| {
                if w & (1u64 << b) != 0 {
                    Some(wi * 64 + b)
                } else {
                    None
                }
            })
        })
    }

    /// Identifiers collected into a sorted vector.
    pub fn to_vec(&self) -> Vec<ProcessId> {
        self.iter().collect()
    }
}

impl FromIterator<ProcessId> for PathSet {
    fn from_iter<T: IntoIterator<Item = ProcessId>>(iter: T) -> Self {
        Self::from_iter_ids(iter)
    }
}

impl Extend<ProcessId> for PathSet {
    fn extend<T: IntoIterator<Item = ProcessId>>(&mut self, iter: T) {
        for id in iter {
            self.insert(id);
        }
    }
}

impl fmt::Debug for PathSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PathSet{:?}", self.to_vec())
    }
}

impl<const N: usize> From<[ProcessId; N]> for PathSet {
    fn from(ids: [ProcessId; N]) -> Self {
        Self::from_iter_ids(ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = PathSet::new();
        assert!(s.is_empty());
        assert!(s.insert(3));
        assert!(!s.insert(3));
        assert!(s.insert(70));
        assert!(s.contains(3));
        assert!(s.contains(70));
        assert!(!s.contains(4));
        assert_eq!(s.len(), 2);
        assert!(s.remove(3));
        assert!(!s.remove(3));
        assert!(!s.contains(3));
    }

    #[test]
    fn disjointness() {
        let a = PathSet::from([1, 2, 3]);
        let b = PathSet::from([4, 5]);
        let c = PathSet::from([3, 4]);
        assert!(a.is_disjoint(&b));
        assert!(b.is_disjoint(&a));
        assert!(!a.is_disjoint(&c));
        assert!(PathSet::new().is_disjoint(&a));
    }

    #[test]
    fn subset() {
        let a = PathSet::from([1, 2]);
        let b = PathSet::from([1, 2, 3]);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(PathSet::new().is_subset(&a));
        assert!(a.is_subset(&a));
    }

    #[test]
    fn subset_with_different_word_lengths() {
        let small = PathSet::from([1]);
        let large = PathSet::from([1, 130]);
        assert!(small.is_subset(&large));
        assert!(!large.is_subset(&small));
    }

    #[test]
    fn union_and_iter() {
        let a = PathSet::from([1, 65]);
        let b = PathSet::from([2]);
        let u = a.union(&b);
        assert_eq!(u.to_vec(), vec![1, 2, 65]);
        assert_eq!(a.to_vec(), vec![1, 65]);
    }

    #[test]
    fn from_iterator_and_extend() {
        let s: PathSet = vec![9usize, 1, 9].into_iter().collect();
        assert_eq!(s.to_vec(), vec![1, 9]);
        let mut t = PathSet::new();
        t.extend(vec![7usize, 8]);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn debug_format_lists_members() {
        let s = PathSet::from([2, 5]);
        assert_eq!(format!("{s:?}"), "PathSet[2, 5]");
    }

    fn hash_of(set: &PathSet) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        set.hash(&mut hasher);
        hasher.finish()
    }

    #[test]
    fn ids_up_to_127_stay_in_place_and_128_spills() {
        let mut s = PathSet::from([0, 63, 64, 127]);
        assert!(matches!(s.0, Words::Inline { len: 2, .. }));
        assert_eq!(s.to_vec(), vec![0, 63, 64, 127]);
        assert!(s.insert(128));
        assert!(matches!(s.0, Words::Heap(_)));
        assert_eq!(s.to_vec(), vec![0, 63, 64, 127, 128]);
        assert!(s.contains(127) && s.contains(128) && !s.contains(129));
        assert!(s.remove(128));
        assert_eq!(s.len(), 4);
        assert!(std::mem::size_of::<PathSet>() <= 24);
    }

    #[test]
    fn a_set_grown_across_the_boundary_equals_one_built_wide() {
        let mut grown = PathSet::from([5]);
        grown.insert(70);
        grown.insert(130);
        let built = PathSet::from([130, 70, 5]);
        assert_eq!(grown, built);
        assert_eq!(hash_of(&grown), hash_of(&built));
        assert_eq!(grown.cmp_numeric(&built), std::cmp::Ordering::Equal);
    }

    #[test]
    fn word_count_is_part_of_equality() {
        // A path through the originator 70 keeps its second word after the originator
        // is removed: it is a different stored path from the one-word {1}.
        let mut wide = PathSet::from([1, 70]);
        wide.remove(70);
        let narrow = PathSet::from([1]);
        assert_eq!(wide.to_vec(), narrow.to_vec());
        assert_ne!(wide, narrow);
        assert_ne!(hash_of(&wide), hash_of(&narrow));
        // Same value: the narrower one sorts first.
        assert_eq!(narrow.cmp_numeric(&wide), std::cmp::Ordering::Less);
        assert!(wide.is_subset(&narrow) && narrow.is_subset(&wide));
    }

    #[test]
    fn operations_agree_across_representations() {
        let inline = PathSet::from([3, 100]);
        let heap = PathSet::from([3, 200]);
        assert!(!inline.is_disjoint(&heap) && !heap.is_disjoint(&inline));
        assert!(PathSet::from([100]).is_disjoint(&PathSet::from([200])));
        assert!(PathSet::from([200]).is_disjoint(&PathSet::from([100])));
        assert!(PathSet::from([3]).is_subset(&heap));
        assert!(!heap.is_subset(&inline));
        assert!(!inline.is_subset(&heap));
        for (a, b) in [(&inline, &heap), (&heap, &inline)] {
            let union = a.union(b);
            assert_eq!(union.to_vec(), vec![3, 100, 200]);
            assert_eq!(union, PathSet::from([3, 100, 200]));
        }
        // The union is as wide as the wider operand, whichever side it is on.
        let mut wide_empty = PathSet::from([70]);
        wide_empty.remove(70);
        assert_eq!(
            PathSet::from([1]).union(&wide_empty),
            wide_empty.union(&PathSet::from([1]))
        );
        assert_ne!(PathSet::from([1]).union(&wide_empty), PathSet::from([1]));
    }

    #[test]
    fn numeric_order_is_preserved_by_a_disjoint_union() {
        // What the disjoint-path memo relies on: sorted sets stay sorted (or tie) when
        // one disjoint set is united into each.
        let mut sets: Vec<PathSet> = vec![
            PathSet::new(),
            PathSet::from([1]),
            PathSet::from([2]),
            PathSet::from([1, 2]),
            PathSet::from([65]),
            PathSet::from([2, 65]),
            PathSet::from([130]),
            PathSet::from([1, 130]),
        ];
        sets.sort_by(PathSet::cmp_numeric);
        let path = PathSet::from([7, 90]);
        let unions: Vec<PathSet> = sets.iter().map(|s| s.union(&path)).collect();
        assert!(unions.windows(2).all(|w| w[0].cmp_numeric(&w[1]).is_le()));
        assert!(sets.windows(2).all(|w| w[0].cmp_numeric(&w[1]).is_lt()));
    }

    #[test]
    fn remove_out_of_range_is_noop() {
        let mut s = PathSet::from([1]);
        assert!(!s.remove(1000));
        assert_eq!(s.len(), 1);
    }
}
