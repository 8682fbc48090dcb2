//! Quantitative fault tree analysis: hazard probabilities.
//!
//! Implements the paper's Sect. II-C formula and its alternatives:
//!
//! * [`Method::RareEvent`] — Eq. 1: `P(H) = Σ_MCS ∏_PF P(PF)`. "Widely
//!   used in engineering and broadly accepted", exact only in the limit of
//!   small probabilities; **over**-estimates coherent trees.
//! * [`Method::MinCutUpperBound`] — `1 − ∏ (1 − P(MCS))`: a tighter upper
//!   bound that stays ≤ 1.
//! * [`Method::InclusionExclusion`] — exact over the minimal cut sets (the
//!   full alternating sum; exponential in the number of cut sets, guarded
//!   by a budget).
//! * [`Method::BddExact`] — exact by Shannon decomposition on the
//!   [`crate::bdd::TreeBdd`]; linear in BDD size.
//!
//! All methods assume pairwise-independent leaves, exactly as the paper
//! does (Sect. II-C discusses this assumption and its limits; correlated
//! failures need common-cause analysis or stochastic model checking).

use crate::bdd::TreeBdd;
use crate::cutset::CutSetCollection;
use crate::tree::FaultTree;
use crate::{FtaError, Result};

/// Leaf probabilities, indexed by leaf index.
///
/// Separates model *structure* (the tree) from *data* (the numbers), so
/// one tree can be quantified under many environments — the mechanism the
/// safety-optimization layer uses to make probabilities functions of free
/// parameters.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ProbabilityMap {
    probs: Vec<f64>,
}

impl ProbabilityMap {
    /// Creates from a dense vector (index = leaf index).
    ///
    /// # Errors
    ///
    /// [`FtaError::InvalidProbability`] if any entry is outside `[0, 1]`.
    pub fn new(probs: Vec<f64>) -> Result<Self> {
        for (i, &p) in probs.iter().enumerate() {
            if !(0.0..=1.0).contains(&p) {
                return Err(FtaError::InvalidProbability {
                    event: format!("leaf index {i}"),
                    value: p,
                });
            }
        }
        Ok(Self { probs })
    }

    /// Creates by evaluating `f` for each leaf index of `tree`.
    ///
    /// # Errors
    ///
    /// [`FtaError::InvalidProbability`] if `f` produces a value outside
    /// `[0, 1]`.
    pub fn from_fn(tree: &FaultTree, f: impl FnMut(usize) -> f64) -> Result<Self> {
        Self::new((0..tree.leaves().len()).map(f).collect())
    }

    /// Probability of leaf `index`, if present.
    pub fn get(&self, index: usize) -> Option<f64> {
        self.probs.get(index).copied()
    }

    /// Number of leaves covered.
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// `true` if the map is empty.
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// Returns a copy with leaf `index` forced to `value` (used by
    /// importance measures).
    ///
    /// # Errors
    ///
    /// [`FtaError::InvalidProbability`] for values outside `[0, 1]` and
    /// [`FtaError::UnknownNode`] for an out-of-range index.
    pub fn with_forced(&self, index: usize, value: f64) -> Result<Self> {
        if index >= self.probs.len() {
            return Err(FtaError::UnknownNode {
                reference: format!("leaf index {index}"),
            });
        }
        if !(0.0..=1.0).contains(&value) {
            return Err(FtaError::InvalidProbability {
                event: format!("leaf index {index}"),
                value,
            });
        }
        let mut probs = self.probs.clone();
        probs[index] = value;
        Ok(Self { probs })
    }

    /// Slice view of the dense probabilities.
    pub fn as_slice(&self) -> &[f64] {
        &self.probs
    }
}

/// Quantification method selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[non_exhaustive]
pub enum Method {
    /// Paper Eq. 1: sum of cut-set products (rare-event approximation).
    RareEvent,
    /// `1 − ∏(1 − P(MCS))` — min-cut upper bound.
    MinCutUpperBound,
    /// Exact inclusion–exclusion over the minimal cut sets.
    InclusionExclusion,
    /// Exact Shannon decomposition on a BDD of the structure function.
    BddExact,
}

/// Probability of one cut set: `∏ P(leaf)` (paper Eq. 1's inner product;
/// with conditions in the cut set this is automatically Eq. 2's
/// `P(Constraints) · ∏ P(PF)`).
///
/// # Errors
///
/// [`FtaError::MissingProbability`] if a member leaf has no entry.
pub fn cut_set_probability(cs: &crate::CutSet, probs: &ProbabilityMap) -> Result<f64> {
    let mut p = 1.0;
    for leaf in cs.iter() {
        p *= probs
            .get(leaf)
            .ok_or_else(|| FtaError::MissingProbability {
                event: format!("leaf index {leaf}"),
            })?;
    }
    Ok(p)
}

/// Rare-event approximation over a cut-set collection (paper Eq. 1).
///
/// # Errors
///
/// [`FtaError::MissingProbability`] if a member leaf has no entry.
pub fn rare_event(mcs: &CutSetCollection, probs: &ProbabilityMap) -> Result<f64> {
    let mut sum = 0.0;
    for cs in mcs.iter() {
        sum += cut_set_probability(cs, probs)?;
    }
    Ok(sum)
}

/// Min-cut upper bound `1 − ∏(1 − P(MCS))`, evaluated as
/// `−expm1(Σ ln(1 − P(MCS)))` so that it keeps full relative precision
/// when every cut set is rare (`1 − ∏` would cancel to a few digits).
///
/// # Errors
///
/// [`FtaError::MissingProbability`] if a member leaf has no entry.
pub fn min_cut_upper_bound(mcs: &CutSetCollection, probs: &ProbabilityMap) -> Result<f64> {
    let mut ln_complement = 0.0;
    for cs in mcs.iter() {
        ln_complement += (-cut_set_probability(cs, probs)?).ln_1p();
    }
    Ok(0.0 - ln_complement.exp_m1())
}

/// Default budget on inclusion–exclusion terms (2²⁰).
pub const IE_TERM_BUDGET: usize = 1 << 20;

/// Exact inclusion–exclusion over the minimal cut sets.
///
/// `P(∪ᵢ Aᵢ) = Σ (−1)^{|S|+1} P(∩_{i∈S} Aᵢ)` where the intersection of
/// cut-set events is the union of their leaves. Exponential in `|MCS|`;
/// refuses collections needing more than [`IE_TERM_BUDGET`] terms.
///
/// # Errors
///
/// [`FtaError::BudgetExceeded`] for > 20 cut sets,
/// [`FtaError::MissingProbability`] for missing leaf entries.
pub fn inclusion_exclusion(mcs: &CutSetCollection, probs: &ProbabilityMap) -> Result<f64> {
    let n = mcs.len();
    if n == 0 {
        return Ok(0.0);
    }
    if (1usize << n.min(63)) > IE_TERM_BUDGET || n >= 63 {
        return Err(FtaError::BudgetExceeded {
            what: "inclusion-exclusion terms",
            limit: IE_TERM_BUDGET,
        });
    }
    let sets = mcs.sets();
    let mut total = 0.0;
    for mask in 1u64..(1u64 << n) {
        let mut union = crate::CutSet::empty();
        for (i, cs) in sets.iter().enumerate() {
            if mask & (1 << i) != 0 {
                union = union.union(cs);
            }
        }
        let term = cut_set_probability(&union, probs)?;
        if mask.count_ones() % 2 == 1 {
            total += term;
        } else {
            total -= term;
        }
    }
    Ok(total.clamp(0.0, 1.0))
}

/// Computes a hazard probability for `tree` under `probs` with the chosen
/// method. Convenience front-end over the individual engines.
///
/// # Errors
///
/// Any error of the underlying engine ([`FtaError::NoRoot`], budget or
/// probability errors).
pub fn hazard_probability(tree: &FaultTree, probs: &ProbabilityMap, method: Method) -> Result<f64> {
    match method {
        Method::BddExact => TreeBdd::build(tree)?.probability(probs),
        _ => {
            let mcs = crate::mcs::bottom_up(tree)?;
            match method {
                Method::RareEvent => rare_event(&mcs, probs),
                Method::MinCutUpperBound => min_cut_upper_bound(&mcs, probs),
                Method::InclusionExclusion => inclusion_exclusion(&mcs, probs),
                Method::BddExact => unreachable!(),
            }
        }
    }
}

/// Side-by-side quantification with all four methods — the data behind
/// approximation-error reports.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct QuantReport {
    /// Rare-event approximation (paper Eq. 1).
    pub rare_event: f64,
    /// Min-cut upper bound.
    pub min_cut_upper_bound: f64,
    /// Exact inclusion–exclusion (None if over budget).
    pub inclusion_exclusion: Option<f64>,
    /// BDD-exact value.
    pub bdd_exact: f64,
    /// Number of minimal cut sets.
    pub num_cut_sets: usize,
}

impl QuantReport {
    /// Runs all methods on `tree` under `probs`.
    ///
    /// # Errors
    ///
    /// Propagates structural errors; an over-budget inclusion–exclusion is
    /// reported as `None`, not an error.
    pub fn compute(tree: &FaultTree, probs: &ProbabilityMap) -> Result<Self> {
        let mcs = crate::mcs::bottom_up(tree)?;
        let ie = match inclusion_exclusion(&mcs, probs) {
            Ok(v) => Some(v),
            Err(FtaError::BudgetExceeded { .. }) => None,
            Err(e) => return Err(e),
        };
        Ok(Self {
            rare_event: rare_event(&mcs, probs)?,
            min_cut_upper_bound: min_cut_upper_bound(&mcs, probs)?,
            inclusion_exclusion: ie,
            bdd_exact: TreeBdd::build(tree)?.probability(probs)?,
            num_cut_sets: mcs.len(),
        })
    }

    /// Relative over-estimation of the rare-event approximation vs exact.
    pub fn rare_event_relative_error(&self) -> f64 {
        if self.bdd_exact == 0.0 {
            0.0
        } else {
            (self.rare_event - self.bdd_exact) / self.bdd_exact
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CutSet;

    fn tree_with_shared_event() -> FaultTree {
        // top = (a AND b) OR (a AND c), a shared.
        let mut ft = FaultTree::new("t");
        let a = ft.basic_event_with_probability("a", 0.3).unwrap();
        let b = ft.basic_event_with_probability("b", 0.4).unwrap();
        let c = ft.basic_event_with_probability("c", 0.5).unwrap();
        let g1 = ft.and_gate("g1", [a, b]).unwrap();
        let g2 = ft.and_gate("g2", [a, c]).unwrap();
        let top = ft.or_gate("top", [g1, g2]).unwrap();
        ft.set_root(top).unwrap();
        ft
    }

    #[test]
    fn probability_map_validation() {
        assert!(ProbabilityMap::new(vec![0.5, 1.5]).is_err());
        assert!(ProbabilityMap::new(vec![-0.1]).is_err());
        assert!(ProbabilityMap::new(vec![f64::NAN]).is_err());
        let pm = ProbabilityMap::new(vec![0.0, 0.5, 1.0]).unwrap();
        assert_eq!(pm.get(1), Some(0.5));
        assert_eq!(pm.get(3), None);
    }

    #[test]
    fn with_forced_replaces_one_entry() {
        let pm = ProbabilityMap::new(vec![0.1, 0.2]).unwrap();
        let forced = pm.with_forced(0, 1.0).unwrap();
        assert_eq!(forced.get(0), Some(1.0));
        assert_eq!(forced.get(1), Some(0.2));
        assert_eq!(pm.get(0), Some(0.1)); // original untouched
        assert!(pm.with_forced(5, 0.5).is_err());
        assert!(pm.with_forced(0, 2.0).is_err());
    }

    #[test]
    fn rare_event_matches_paper_formula() {
        // MCS {a}, {b,c} with p_a=0.01, p_b=0.1, p_c=0.2:
        // P = 0.01 + 0.02 = 0.03.
        let probs = ProbabilityMap::new(vec![0.01, 0.1, 0.2]).unwrap();
        let mcs = CutSetCollection::from_sets(vec![
            CutSet::from_leaves([0]),
            CutSet::from_leaves([1, 2]),
        ]);
        assert!((rare_event(&mcs, &probs).unwrap() - 0.03).abs() < 1e-15);
    }

    #[test]
    fn method_ordering_on_coherent_tree() {
        // exact ≤ min-cut bound ≤ rare-event for coherent trees.
        let ft = tree_with_shared_event();
        let pm = ft.stored_probabilities().unwrap();
        let report = QuantReport::compute(&ft, &pm).unwrap();
        let exact = report.bdd_exact;
        assert!(exact <= report.min_cut_upper_bound + 1e-15);
        assert!(report.min_cut_upper_bound <= report.rare_event + 1e-15);
        // Exact: P(a ∧ (b ∨ c)) = 0.3 · (0.4 + 0.5 − 0.2) = 0.21.
        assert!((exact - 0.21).abs() < 1e-15, "exact = {exact}");
        // Inclusion–exclusion agrees with BDD on shared-event trees.
        assert!((report.inclusion_exclusion.unwrap() - exact).abs() < 1e-12);
    }

    #[test]
    fn rare_event_can_exceed_one() {
        let probs = ProbabilityMap::new(vec![0.9, 0.9]).unwrap();
        let mcs =
            CutSetCollection::from_sets(vec![CutSet::from_leaves([0]), CutSet::from_leaves([1])]);
        assert!(rare_event(&mcs, &probs).unwrap() > 1.0);
        // ...while the min-cut bound does not.
        assert!(min_cut_upper_bound(&mcs, &probs).unwrap() <= 1.0);
    }

    #[test]
    fn min_cut_bound_keeps_relative_precision_on_rare_cut_sets() {
        // {a}, {b} at 1e-12 each: the bound is 2e-12 − 1e-24, which
        // `1 − ∏(1 − p)` would return with only about four correct digits.
        let probs = ProbabilityMap::new(vec![1e-12, 1e-12]).unwrap();
        let mcs =
            CutSetCollection::from_sets(vec![CutSet::from_leaves([0]), CutSet::from_leaves([1])]);
        let bound = min_cut_upper_bound(&mcs, &probs).unwrap();
        let want = 2e-12 - 1e-24;
        assert!((bound - want).abs() <= 1e-15 * want, "bound = {bound:e}");
        // A certain cut set makes the bound exactly 1.
        let certain = ProbabilityMap::new(vec![1.0, 1e-12]).unwrap();
        assert_eq!(min_cut_upper_bound(&mcs, &certain).unwrap(), 1.0);
    }

    #[test]
    fn inclusion_exclusion_exact_for_disjoint_leaf_sets() {
        // {a}, {b}: P = p_a + p_b − p_a p_b.
        let probs = ProbabilityMap::new(vec![0.2, 0.3]).unwrap();
        let mcs =
            CutSetCollection::from_sets(vec![CutSet::from_leaves([0]), CutSet::from_leaves([1])]);
        let p = inclusion_exclusion(&mcs, &probs).unwrap();
        assert!((p - (0.2 + 0.3 - 0.06)).abs() < 1e-15);
    }

    #[test]
    fn inclusion_exclusion_budget_guard() {
        // 25 disjoint singleton cut sets → 2²⁵ terms > budget.
        let probs = ProbabilityMap::new(vec![0.01; 25]).unwrap();
        let mcs = CutSetCollection::from_sets((0..25).map(CutSet::singleton).collect());
        assert!(matches!(
            inclusion_exclusion(&mcs, &probs),
            Err(FtaError::BudgetExceeded { .. })
        ));
    }

    #[test]
    fn empty_collection_has_zero_probability() {
        let probs = ProbabilityMap::new(vec![0.5]).unwrap();
        let empty = CutSetCollection::new();
        assert_eq!(rare_event(&empty, &probs).unwrap(), 0.0);
        assert_eq!(min_cut_upper_bound(&empty, &probs).unwrap(), 0.0);
        assert_eq!(inclusion_exclusion(&empty, &probs).unwrap(), 0.0);
    }

    #[test]
    fn hazard_probability_front_end() {
        let ft = tree_with_shared_event();
        let pm = ft.stored_probabilities().unwrap();
        let exact = hazard_probability(&ft, &pm, Method::BddExact).unwrap();
        let ie = hazard_probability(&ft, &pm, Method::InclusionExclusion).unwrap();
        let re = hazard_probability(&ft, &pm, Method::RareEvent).unwrap();
        assert!((exact - ie).abs() < 1e-12);
        assert!(re >= exact);
    }

    #[test]
    fn quant_report_relative_error() {
        let ft = tree_with_shared_event();
        let pm = ft.stored_probabilities().unwrap();
        let report = QuantReport::compute(&ft, &pm).unwrap();
        assert!(report.rare_event_relative_error() > 0.0);
        assert_eq!(report.num_cut_sets, 2);
    }

    #[test]
    fn missing_probability_is_reported() {
        let probs = ProbabilityMap::new(vec![0.1]).unwrap();
        let mcs = CutSetCollection::from_sets(vec![CutSet::from_leaves([0, 3])]);
        assert!(matches!(
            rare_event(&mcs, &probs),
            Err(FtaError::MissingProbability { .. })
        ));
    }
}
