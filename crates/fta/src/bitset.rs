use std::cmp::Ordering;

/// A compact bit set over leaf indices, used to represent cut sets.
///
/// Cut-set algorithms are dominated by subset tests (subsumption
/// minimization); a word-packed bit set makes those one AND per 64-bit
/// block.
///
/// # Representation
///
/// The set stores only the blocks from its lowest to its highest
/// non-zero 64-bit block, and the index of the first stored block. A
/// cut set of a large tree names a few leaves of one module, so it spans
/// one or two blocks wherever its leaves sit in the universe: the cost
/// of a subset test, a union or a clone does not grow with the leaf
/// index. The form is canonical (the first and last stored blocks are
/// non-zero, the empty set stores no block at offset 0), so equality and
/// hashing are structural.
///
/// # Order
///
/// [`Ord`] is the lexicographic order of the dense little-endian block
/// vectors (every block from index 0 to the highest non-zero one): the
/// empty set is least, a set whose lowest block sits at a smaller index
/// is greater, and sets whose lowest blocks coincide compare their
/// stored blocks lexicographically.
/// [`CutSetCollection::minimize`](crate::CutSetCollection::minimize)
/// sorts by this order, so it fixes the order of every cut-set list.
///
/// ```
/// use safety_opt_fta::BitSet;
///
/// let mut a = BitSet::new();
/// a.insert(3);
/// a.insert(40);
/// let mut b = a.clone();
/// b.insert(100);
/// assert!(a.is_subset(&b));
/// assert!(!b.is_subset(&a));
/// assert_eq!(b.len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct BitSet {
    /// Block index of `blocks[0]`; 0 for the empty set.
    offset: usize,
    /// Little-endian 64-bit blocks from the lowest to the highest
    /// non-zero block; empty for the empty set.
    blocks: Vec<u64>,
}

impl BitSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a set containing a single element.
    pub fn singleton(index: usize) -> Self {
        Self {
            offset: index / 64,
            blocks: vec![1u64 << (index % 64)],
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// `true` if no element is present.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// One past the block index of the last stored block.
    fn end(&self) -> usize {
        self.offset + self.blocks.len()
    }

    /// Adds `index`; returns `true` if it was newly inserted.
    pub fn insert(&mut self, index: usize) -> bool {
        let (block, bit) = (index / 64, index % 64);
        if self.blocks.is_empty() {
            *self = Self::singleton(index);
            return true;
        }
        if block < self.offset {
            let grow = self.offset - block;
            self.blocks.splice(0..0, std::iter::repeat(0).take(grow));
            self.offset = block;
        } else if block >= self.end() {
            self.blocks.resize(block - self.offset + 1, 0);
        }
        let slot = &mut self.blocks[block - self.offset];
        let mask = 1u64 << bit;
        let fresh = *slot & mask == 0;
        *slot |= mask;
        fresh
    }

    /// Removes `index`; returns `true` if it was present.
    pub fn remove(&mut self, index: usize) -> bool {
        let block = index / 64;
        if block < self.offset || block >= self.end() {
            return false;
        }
        let slot = &mut self.blocks[block - self.offset];
        let mask = 1u64 << (index % 64);
        let present = *slot & mask != 0;
        *slot &= !mask;
        self.trim();
        present
    }

    /// `true` if `index` is in the set.
    pub fn contains(&self, index: usize) -> bool {
        let block = index / 64;
        block >= self.offset
            && self
                .blocks
                .get(block - self.offset)
                .is_some_and(|b| b & (1u64 << (index % 64)) != 0)
    }

    /// `true` if every element of `self` is in `other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        if self.blocks.is_empty() {
            return true;
        }
        // `self`'s first and last blocks are non-zero, so both must lie
        // inside `other`'s stored range.
        if self.offset < other.offset || self.end() > other.end() {
            return false;
        }
        self.blocks
            .iter()
            .zip(&other.blocks[self.offset - other.offset..])
            .all(|(a, b)| a & !b == 0)
    }

    /// `true` if `self` is a subset of `other` and strictly smaller.
    pub fn is_proper_subset(&self, other: &BitSet) -> bool {
        self != other && self.is_subset(other)
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &BitSet) {
        if other.blocks.is_empty() {
            return;
        }
        if self.blocks.is_empty() {
            self.clone_from(other);
            return;
        }
        if other.offset < self.offset || other.end() > self.end() {
            *self = self.union(other);
            return;
        }
        let start = other.offset - self.offset;
        for (a, b) in self.blocks[start..].iter_mut().zip(&other.blocks) {
            *a |= b;
        }
    }

    /// Union into a new set.
    pub fn union(&self, other: &BitSet) -> BitSet {
        if self.blocks.is_empty() {
            return other.clone();
        }
        if other.blocks.is_empty() {
            return self.clone();
        }
        let offset = self.offset.min(other.offset);
        let mut blocks = vec![0u64; self.end().max(other.end()) - offset];
        for set in [self, other] {
            let start = set.offset - offset;
            for (a, b) in blocks[start..].iter_mut().zip(&set.blocks) {
                *a |= b;
            }
        }
        BitSet { offset, blocks }
    }

    /// `true` if the two sets share at least one element.
    pub fn intersects(&self, other: &BitSet) -> bool {
        let (lo, hi) = (self.offset.max(other.offset), self.end().min(other.end()));
        lo < hi
            && self.blocks[lo - self.offset..hi - self.offset]
                .iter()
                .zip(&other.blocks[lo - other.offset..hi - other.offset])
                .any(|(a, b)| a & b != 0)
    }

    /// Iterates set elements in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            blocks: &self.blocks,
            offset: self.offset,
            block_idx: 0,
            current: self.blocks.first().copied().unwrap_or(0),
        }
    }

    /// Restores the canonical form after a block was cleared.
    fn trim(&mut self) {
        while self.blocks.last() == Some(&0) {
            self.blocks.pop();
        }
        let lead = self.blocks.iter().take_while(|&&b| b == 0).count();
        if lead > 0 {
            self.blocks.drain(..lead);
            self.offset += lead;
        }
        if self.blocks.is_empty() {
            self.offset = 0;
        }
    }
}

impl PartialOrd for BitSet {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BitSet {
    /// The dense block vectors' lexicographic order (see the
    /// [type docs](BitSet#order)).
    fn cmp(&self, other: &Self) -> Ordering {
        match (self.blocks.is_empty(), other.blocks.is_empty()) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Less,
            (false, true) => Ordering::Greater,
            // Below the higher offset, the set with the lower one has a
            // non-zero block where the other has zero.
            (false, false) => other
                .offset
                .cmp(&self.offset)
                .then_with(|| self.blocks.cmp(&other.blocks)),
        }
    }
}

impl FromIterator<usize> for BitSet {
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        let mut s = Self::new();
        for i in iter {
            s.insert(i);
        }
        s
    }
}

impl Extend<usize> for BitSet {
    fn extend<T: IntoIterator<Item = usize>>(&mut self, iter: T) {
        for i in iter {
            self.insert(i);
        }
    }
}

/// Iterator over the elements of a [`BitSet`] in increasing order.
#[derive(Debug)]
pub struct Iter<'a> {
    blocks: &'a [u64],
    /// Block index of `blocks[0]`.
    offset: usize,
    block_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1; // clear lowest set bit
                return Some((self.offset + self.block_idx) * 64 + bit);
            }
            self.block_idx += 1;
            if self.block_idx >= self.blocks.len() {
                return None;
            }
            self.current = self.blocks[self.block_idx];
        }
    }
}

impl<'a> IntoIterator for &'a BitSet {
    type Item = usize;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl std::fmt::Display for BitSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        for (i, e) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new();
        assert!(s.insert(5));
        assert!(!s.insert(5));
        assert!(s.insert(130));
        assert!(s.contains(5) && s.contains(130));
        assert!(!s.contains(4));
        assert_eq!(s.len(), 2);
        assert!(s.remove(130));
        assert!(!s.remove(130));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn canonical_equality_after_remove() {
        // Removing a high bit must trim blocks so equality is structural.
        let mut a = BitSet::singleton(3);
        let mut b = BitSet::singleton(3);
        b.insert(200);
        b.remove(200);
        assert_eq!(a, b);
        a.insert(200);
        assert_ne!(a, b);
    }

    #[test]
    fn subset_relations() {
        let small: BitSet = [1, 5].into_iter().collect();
        let big: BitSet = [1, 5, 9].into_iter().collect();
        let other: BitSet = [2, 5].into_iter().collect();
        assert!(small.is_subset(&big));
        assert!(small.is_proper_subset(&big));
        assert!(!big.is_subset(&small));
        assert!(!small.is_subset(&other));
        assert!(small.is_subset(&small));
        assert!(!small.is_proper_subset(&small));
        assert!(BitSet::new().is_subset(&small));
    }

    #[test]
    fn union_and_intersection() {
        let a: BitSet = [1, 64].into_iter().collect();
        let b: BitSet = [2, 64, 128].into_iter().collect();
        let u = a.union(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 2, 64, 128]);
        assert!(a.intersects(&b));
        let c = BitSet::singleton(3);
        assert!(!a.intersects(&c));
        assert!(!a.intersects(&BitSet::new()));
    }

    #[test]
    fn iteration_is_sorted() {
        let s: BitSet = [300, 2, 65, 64, 63].into_iter().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![2, 63, 64, 65, 300]);
    }

    #[test]
    fn display_format() {
        let s: BitSet = [2, 7].into_iter().collect();
        assert_eq!(s.to_string(), "{2, 7}");
        assert_eq!(BitSet::new().to_string(), "{}");
    }

    /// The dense form the offset representation replaced: every block
    /// from index 0, trailing zero blocks trimmed, order and hash derived.
    #[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
    struct Dense(Vec<u64>);

    impl Dense {
        fn of(set: &[usize]) -> Self {
            let mut blocks = Vec::new();
            for &i in set {
                if i / 64 >= blocks.len() {
                    blocks.resize(i / 64 + 1, 0);
                }
                blocks[i / 64] |= 1u64 << (i % 64);
            }
            Dense(blocks)
        }

        fn contains(&self, i: usize) -> bool {
            self.0
                .get(i / 64)
                .is_some_and(|b| b & (1u64 << (i % 64)) != 0)
        }

        fn elements(&self) -> Vec<usize> {
            (0..self.0.len() * 64)
                .filter(|&i| self.contains(i))
                .collect()
        }

        fn is_subset(&self, other: &Dense) -> bool {
            self.0.len() <= other.0.len() && self.0.iter().zip(&other.0).all(|(a, b)| a & !b == 0)
        }

        fn union(&self, other: &Dense) -> Dense {
            let mut out = vec![0; self.0.len().max(other.0.len())];
            for (i, slot) in out.iter_mut().enumerate() {
                *slot = self.0.get(i).unwrap_or(&0) | other.0.get(i).unwrap_or(&0);
            }
            Dense(out)
        }
    }

    fn hash_of(set: &BitSet) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        set.hash(&mut h);
        h.finish()
    }

    /// A few indices of a universe of up to 3000, mostly packed into a
    /// window far from 0 (a cut set of one module of a large tree).
    fn indices(rng: &mut StdRng) -> Vec<usize> {
        let universe: usize = rng.gen_range(1..3001);
        let base: usize = rng.gen_range(0..universe);
        let span = if rng.gen::<bool>() { 130 } else { universe };
        let end = (base + span).min(universe);
        (0..rng.gen_range(0..6))
            .map(|_| rng.gen_range(base..end))
            .collect()
    }

    /// `indices` built the long way: an element outside the window
    /// inserted first and removed again, so the set must drop the blocks
    /// it grew.
    fn built_with_detour(set: &[usize], rng: &mut StdRng) -> BitSet {
        let mut out = BitSet::new();
        let detour = rng.gen_range(0..3000);
        let kept = set.contains(&detour);
        out.insert(detour);
        for &i in set.iter().rev() {
            out.insert(i);
        }
        if !kept {
            out.remove(detour);
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn offset_blocks_agree_with_dense_blocks(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (xs, ys) = (indices(&mut rng), indices(&mut rng));
            let (a, b): (BitSet, BitSet) = (xs.iter().copied().collect(), ys.iter().copied().collect());
            let (da, db) = (Dense::of(&xs), Dense::of(&ys));
            let again = built_with_detour(&xs, &mut rng);
            prop_assert_eq!(&again, &a);
            prop_assert_eq!(hash_of(&again), hash_of(&a));
            prop_assert_eq!(a == b, da == db);
            prop_assert_eq!(a.cmp(&b), da.cmp(&db));
            prop_assert_eq!(a.partial_cmp(&b), da.partial_cmp(&db));
            if a == b {
                prop_assert_eq!(hash_of(&a), hash_of(&b));
            }
            prop_assert_eq!(a.len(), da.elements().len());
            prop_assert_eq!(a.is_empty(), da.0.is_empty());
            prop_assert_eq!(a.iter().collect::<Vec<_>>(), da.elements());
            prop_assert_eq!(a.is_subset(&b), da.is_subset(&db));
            prop_assert_eq!(b.is_subset(&a), db.is_subset(&da));
            prop_assert_eq!(
                a.intersects(&b),
                da.elements().iter().any(|&i| db.contains(i))
            );
            let union = a.union(&b);
            prop_assert_eq!(union.iter().collect::<Vec<_>>(), da.union(&db).elements());
            let mut in_place = a.clone();
            in_place.union_with(&b);
            prop_assert_eq!(&in_place, &union);
            prop_assert_eq!(union.cmp(&a), da.union(&db).cmp(&da));
            for i in xs.iter().chain(&ys).flat_map(|&i| [i.saturating_sub(1), i, i + 1, i + 64]) {
                prop_assert_eq!(a.contains(i), da.contains(i));
            }
        }
    }

    #[test]
    fn ordering_is_total_and_consistent_with_eq() {
        let a: BitSet = [1].into_iter().collect();
        let b: BitSet = [2].into_iter().collect();
        assert_ne!(a.cmp(&b), std::cmp::Ordering::Equal);
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
    }
}
