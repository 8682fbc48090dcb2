use crate::bitset::BitSet;
use crate::tree::FaultTree;

/// A cut set: a set of leaves (by leaf index) that together cause the
/// hazard.
///
/// Cut sets may contain both primary failures and INHIBIT conditions; the
/// accessors [`failures`](CutSet::failures) and
/// [`conditions`](CutSet::conditions) split them given the owning tree,
/// matching the paper's Eq. 2 where a cut set's probability is
/// `P(Constraints) · ∏ P(PF)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct CutSet {
    leaves: BitSet,
}

impl CutSet {
    /// The empty cut set (the hazard is already implied — only appears in
    /// degenerate trees).
    pub fn empty() -> Self {
        Self::default()
    }

    /// A cut set containing a single leaf index.
    pub fn singleton(leaf: usize) -> Self {
        Self {
            leaves: BitSet::singleton(leaf),
        }
    }

    /// Creates from leaf indices.
    pub fn from_leaves(leaves: impl IntoIterator<Item = usize>) -> Self {
        Self {
            leaves: leaves.into_iter().collect(),
        }
    }

    /// Number of leaves in the cut set (its *order*).
    pub fn order(&self) -> usize {
        self.leaves.len()
    }

    /// `true` if this is the empty cut set.
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }

    /// `true` if leaf `index` participates.
    pub fn contains(&self, index: usize) -> bool {
        self.leaves.contains(index)
    }

    /// Iterates the leaf indices in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.leaves.iter()
    }

    /// `true` if `self ⊆ other` — i.e. `self` subsumes `other` as a cut
    /// set (a smaller set of failures already causes the hazard).
    pub fn subsumes(&self, other: &CutSet) -> bool {
        self.leaves.is_subset(&other.leaves)
    }

    /// Union of two cut sets (the AND-combination).
    pub fn union(&self, other: &CutSet) -> CutSet {
        CutSet {
            leaves: self.leaves.union(&other.leaves),
        }
    }

    /// The underlying bit set.
    pub fn as_bitset(&self) -> &BitSet {
        &self.leaves
    }

    /// Leaf names (given the owning tree), for reports.
    pub fn names<'t>(&self, tree: &'t FaultTree) -> Vec<&'t str> {
        self.iter()
            .map(|i| tree.node(tree.leaf(i)).name())
            .collect()
    }

    /// The primary-failure members (leaf indices of non-condition leaves).
    pub fn failures(&self, tree: &FaultTree) -> Vec<usize> {
        self.iter()
            .filter(|&i| !tree.node(tree.leaf(i)).is_condition())
            .collect()
    }

    /// The condition members (leaf indices of condition leaves) — the
    /// constraints whose probabilities Eq. 2 multiplies in.
    pub fn conditions(&self, tree: &FaultTree) -> Vec<usize> {
        self.iter()
            .filter(|&i| tree.node(tree.leaf(i)).is_condition())
            .collect()
    }
}

impl FromIterator<usize> for CutSet {
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        Self::from_leaves(iter)
    }
}

impl std::fmt::Display for CutSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.leaves)
    }
}

/// End of a bucket chain in the lowest-leaf index.
const NIL: usize = usize::MAX;

/// A minimized collection of cut sets (an antichain under ⊆).
///
/// Produced by the [`mcs`](crate::mcs) algorithms; the collection
/// guarantees that no member subsumes another after
/// [`minimize`](CutSetCollection::minimize).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct CutSetCollection {
    sets: Vec<CutSet>,
}

impl CutSetCollection {
    /// Creates an empty collection (a function that is never true —
    /// no way to cause the hazard).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates from raw cut sets and minimizes immediately.
    pub fn from_sets(sets: Vec<CutSet>) -> Self {
        let mut c = Self { sets };
        c.minimize();
        c
    }

    /// Number of cut sets.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// `true` if there are no cut sets (hazard impossible).
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// The cut sets, sorted by (order, contents).
    pub fn sets(&self) -> &[CutSet] {
        &self.sets
    }

    /// The cut sets by value, in [`sets`](Self::sets) order.
    pub(crate) fn into_sets(self) -> Vec<CutSet> {
        self.sets
    }

    /// Iterates the cut sets.
    pub fn iter(&self) -> impl Iterator<Item = &CutSet> {
        self.sets.iter()
    }

    /// Adds a cut set without minimizing (call
    /// [`minimize`](Self::minimize) afterwards).
    pub fn push(&mut self, set: CutSet) {
        self.sets.push(set);
    }

    /// Removes subsumed and duplicate sets, leaving a sorted antichain.
    ///
    /// The result is ordered by (order, contents), where contents compare
    /// as [`BitSet`]s. An empty cut set subsumes everything: if present,
    /// the result is exactly `{∅}` (the hazard occurs unconditionally).
    ///
    /// Candidates are visited in that order, so every possible subsumer
    /// of a candidate (a strict subset, hence of lower order) has already
    /// been kept or dropped when the candidate is tested. A subsumer's
    /// lowest leaf lies in the candidate, so each kept set is filed under
    /// its lowest leaf and a candidate is tested only against the sets
    /// filed under its own leaves. For the low-order cut sets of
    /// real trees that is near-linear in the number of sets instead of
    /// quadratic. The index is keyed by the lowest leaves present, never
    /// by the leaf universe.
    pub fn minimize(&mut self) {
        // `order` is a popcount over every block, so it is taken once per
        // set rather than in each comparison.
        let mut keyed: Vec<(usize, CutSet)> = self.sets.drain(..).map(|s| (s.order(), s)).collect();
        keyed.sort_unstable_by(|(oa, a), (ob, b)| {
            oa.cmp(ob).then_with(|| a.as_bitset().cmp(b.as_bitset()))
        });
        keyed.dedup_by(|a, b| a.1 == b.1);
        // An empty set sorts first and subsumes all the rest.
        if keyed.first().is_some_and(|(order, _)| *order == 0) {
            self.sets = vec![CutSet::empty()];
            return;
        }
        let kept = &mut self.sets;
        // Buckets by lowest leaf, sorted by leaf: `(leaf, k)` with `k` the
        // last kept set filed under `leaf`, and `next[k]` the one filed
        // before kept set `k`.
        let mut buckets: Vec<(usize, usize)> = keyed
            .iter()
            .filter_map(|(_, s)| s.iter().next())
            .map(|leaf| (leaf, NIL))
            .collect();
        buckets.sort_unstable();
        buckets.dedup();
        let mut next: Vec<usize> = Vec::with_capacity(keyed.len());
        'indexed: for (_, set) in keyed {
            let mut own = NIL;
            for leaf in set.iter() {
                let Ok(bucket) = buckets.binary_search_by_key(&leaf, |&(low, _)| low) else {
                    continue;
                };
                // The first leaf is the lowest: its bucket is the
                // candidate's own.
                if own == NIL {
                    own = bucket;
                }
                let mut k = buckets[bucket].1;
                while k != NIL {
                    if kept[k].subsumes(&set) {
                        continue 'indexed;
                    }
                    k = next[k];
                }
            }
            next.push(buckets[own].1);
            buckets[own].1 = kept.len();
            kept.push(set);
        }
    }

    /// `true` if the collection is an antichain (no member subsumes
    /// another) — the defining invariant of *minimal* cut sets.
    pub fn is_minimal(&self) -> bool {
        for (i, a) in self.sets.iter().enumerate() {
            for (j, b) in self.sets.iter().enumerate() {
                if i != j && a.subsumes(b) {
                    return false;
                }
            }
        }
        true
    }

    /// Largest cut-set order (0 for an empty collection).
    pub fn max_order(&self) -> usize {
        self.sets.iter().map(CutSet::order).max().unwrap_or(0)
    }

    /// The single-point-of-failure cut sets (order 1) — the paper's
    /// Elbtunnel analysis is dominated by these.
    pub fn single_points_of_failure(&self) -> impl Iterator<Item = &CutSet> {
        self.sets.iter().filter(|s| s.order() == 1)
    }

    /// Evaluates the monotone structure function over a leaf assignment:
    /// `true` iff some cut set is fully contained in `failed`.
    pub fn evaluate(&self, failed: &BitSet) -> bool {
        self.sets.iter().any(|cs| cs.as_bitset().is_subset(failed))
    }
}

impl FromIterator<CutSet> for CutSetCollection {
    fn from_iter<T: IntoIterator<Item = CutSet>>(iter: T) -> Self {
        Self::from_sets(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a CutSetCollection {
    type Item = &'a CutSet;
    type IntoIter = std::slice::Iter<'a, CutSet>;

    fn into_iter(self) -> Self::IntoIter {
        self.sets.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The definition, quadratically: keep each set no other set strictly
    /// subsumes, then sort by (order, contents) and drop duplicates.
    fn reference_minimize(sets: &[CutSet]) -> Vec<CutSet> {
        let mut out: Vec<CutSet> = sets
            .iter()
            .filter(|s| !sets.iter().any(|t| t.subsumes(s) && t != *s))
            .cloned()
            .collect();
        out.sort_by(|a, b| {
            a.order()
                .cmp(&b.order())
                .then_with(|| a.as_bitset().cmp(b.as_bitset()))
        });
        out.dedup();
        out
    }

    /// Random low-order sets over `universe` leaves. A share of them start
    /// at one of a few hub leaves, so buckets of the lowest-leaf index
    /// fill up; some are copies of earlier sets, and `with_empty` mixes in
    /// the empty set.
    fn random_sets(seed: u64, len: usize, universe: usize, with_empty: bool) -> Vec<CutSet> {
        let mut rng = StdRng::seed_from_u64(seed);
        let hubs = [0, universe / 3, universe - 1];
        let mut sets: Vec<CutSet> = Vec::with_capacity(len + 1);
        for _ in 0..len {
            if !sets.is_empty() && rng.gen::<f64>() < 0.15 {
                let copy = sets[rng.gen_range(0..sets.len())].clone();
                sets.push(copy);
                continue;
            }
            let order = rng.gen_range(1..=4usize);
            let mut leaves: Vec<usize> = (0..order).map(|_| rng.gen_range(0..universe)).collect();
            if rng.gen::<f64>() < 0.5 {
                leaves[0] = hubs[rng.gen_range(0..hubs.len())];
            }
            sets.push(CutSet::from_leaves(leaves));
        }
        if with_empty {
            let at = rng.gen_range(0..=sets.len());
            sets.insert(at, CutSet::empty());
        }
        sets
    }

    // The indexed minimization returns exactly the definition's antichain,
    // in the same order, from empty collections up to a hundred-odd sets
    // and over leaf universes of one to 47 bit-set blocks.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        #[test]
        fn minimize_matches_the_quadratic_definition(
            seed in 0u64..1_000_000,
            len in 0usize..128,
            universe_pick in 0usize..4,
            empty_pick in 0usize..10,
        ) {
            let universe = [6, 70, 700, 3000][universe_pick];
            let sets = random_sets(seed, len, universe, empty_pick == 0);
            let expected = reference_minimize(&sets);
            let got = CutSetCollection::from_sets(sets);
            prop_assert_eq!(got.sets(), &expected[..]);
        }
    }

    #[test]
    fn minimize_of_a_large_collection_matches_the_definition() {
        for (seed, universe) in [(1, 6), (2, 70), (3, 3000)] {
            let sets = random_sets(seed, 2_000, universe, false);
            let expected = reference_minimize(&sets);
            assert_eq!(CutSetCollection::from_sets(sets).sets(), &expected[..]);
        }
    }

    #[test]
    fn subsumption_semantics() {
        let small = CutSet::from_leaves([1]);
        let big = CutSet::from_leaves([1, 2]);
        assert!(small.subsumes(&big));
        assert!(!big.subsumes(&small));
        assert!(small.subsumes(&small));
        assert!(CutSet::empty().subsumes(&small));
    }

    #[test]
    fn minimize_removes_subsumed_and_duplicates() {
        let c = CutSetCollection::from_sets(vec![
            CutSet::from_leaves([1, 2]),
            CutSet::from_leaves([1]),
            CutSet::from_leaves([1, 2, 3]),
            CutSet::from_leaves([2, 3]),
            CutSet::from_leaves([1]),
        ]);
        assert_eq!(c.len(), 2);
        assert!(c.is_minimal());
        let orders: Vec<usize> = c.iter().map(CutSet::order).collect();
        assert_eq!(orders, vec![1, 2]);
    }

    #[test]
    fn empty_cut_set_subsumes_everything() {
        let c = CutSetCollection::from_sets(vec![
            CutSet::from_leaves([1, 2]),
            CutSet::empty(),
            CutSet::from_leaves([3]),
        ]);
        assert_eq!(c.len(), 1);
        assert!(c.sets()[0].is_empty());
    }

    #[test]
    fn minimize_is_idempotent() {
        let mut c = CutSetCollection::from_sets(vec![
            CutSet::from_leaves([1, 2]),
            CutSet::from_leaves([2]),
            CutSet::from_leaves([4, 5]),
        ]);
        let once = c.clone();
        c.minimize();
        assert_eq!(c, once);
    }

    #[test]
    fn structure_function_evaluation() {
        let c = CutSetCollection::from_sets(vec![
            CutSet::from_leaves([0, 1]),
            CutSet::from_leaves([2]),
        ]);
        let failed: BitSet = [0, 1].into_iter().collect();
        assert!(c.evaluate(&failed));
        let failed: BitSet = [0].into_iter().collect();
        assert!(!c.evaluate(&failed));
        let failed: BitSet = [2, 5].into_iter().collect();
        assert!(c.evaluate(&failed));
        assert!(!c.evaluate(&BitSet::new()));
    }

    #[test]
    fn spof_filter() {
        let c = CutSetCollection::from_sets(vec![
            CutSet::from_leaves([0]),
            CutSet::from_leaves([1, 2]),
            CutSet::from_leaves([3]),
        ]);
        assert_eq!(c.single_points_of_failure().count(), 2);
        assert_eq!(c.max_order(), 2);
    }

    #[test]
    fn failures_and_conditions_split() {
        let mut ft = FaultTree::new("t");
        let cause = ft.basic_event("pump fails").unwrap();
        let cond = ft.condition("reactor running").unwrap();
        let g = ft.inhibit_gate("top", cause, cond).unwrap();
        ft.set_root(g).unwrap();
        let cs = CutSet::from_leaves([0, 1]);
        assert_eq!(cs.failures(&ft), vec![0]);
        assert_eq!(cs.conditions(&ft), vec![1]);
        assert_eq!(cs.names(&ft), vec!["pump fails", "reactor running"]);
    }
}
