//! Failure injection across the whole stack: invalid inputs must produce
//! typed errors — never panics, never silent corruption.

use safety_optimization::fta::parse::parse;
use safety_optimization::fta::quant::ProbabilityMap;
use safety_optimization::fta::tree::FaultTree;
use safety_optimization::fta::FtaError;
use safety_optimization::optim::domain::BoxDomain;
use safety_optimization::optim::gradient::GradientDescent;
use safety_optimization::optim::grid::GridSearch;
use safety_optimization::optim::multistart::MultiStart;
use safety_optimization::optim::nelder_mead::NelderMead;
use safety_optimization::optim::quasi_newton::QuasiNewton;
use safety_optimization::optim::{Minimizer, OptimError};
use safety_optimization::safeopt::model::{Hazard, SafetyModel};
use safety_optimization::safeopt::optimize::SafetyOptimizer;
use safety_optimization::safeopt::param::ParameterSpace;
use safety_optimization::safeopt::pprob::{constant, from_fn};
use safety_optimization::safeopt::SafeOptError;
use safety_optimization::stats::dist::{Normal, TruncatedNormal};
use safety_optimization::stats::StatsError;

#[test]
fn stats_rejects_degenerate_distributions() {
    assert!(matches!(
        Normal::new(0.0, -1.0),
        Err(StatsError::InvalidParameter { .. })
    ));
    assert!(matches!(
        TruncatedNormal::new(0.0, 1.0, 5.0, 2.0),
        Err(StatsError::EmptyTruncation { .. })
    ));
    // A window carrying zero double-precision mass is detected.
    assert!(TruncatedNormal::new(0.0, 1.0, 50.0, 51.0).is_err());
}

#[test]
fn optim_rejects_degenerate_domains() {
    assert!(matches!(
        BoxDomain::from_bounds(&[]),
        Err(OptimError::EmptyDomain)
    ));
    assert!(matches!(
        BoxDomain::from_bounds(&[(1.0, 1.0)]),
        Err(OptimError::InvalidInterval { .. })
    ));
    assert!(BoxDomain::from_bounds(&[(0.0, f64::NAN)]).is_err());
}

#[test]
fn optimizer_reports_fully_infeasible_objective() {
    let domain = BoxDomain::from_bounds(&[(0.0, 1.0)]).unwrap();
    let optimizers: [Box<dyn Minimizer>; 5] = [
        Box::new(NelderMead::default()),
        Box::new(QuasiNewton::default()),
        Box::new(GradientDescent::default()),
        Box::new(GridSearch::new(5)),
        Box::new(MultiStart::new(QuasiNewton::default(), 4)),
    ];
    for optimizer in &optimizers {
        let err = optimizer
            .minimize(&|_: &[f64]| f64::NAN, &domain)
            .unwrap_err();
        assert!(
            matches!(err, OptimError::NoFiniteValue { .. }),
            "{}: {err:?}",
            optimizer.name()
        );
    }
}

#[test]
fn fta_rejects_malformed_trees() {
    let mut ft = FaultTree::new("t");
    assert!(matches!(
        ft.and_gate("g", []),
        Err(FtaError::EmptyGate { .. })
    ));
    let a = ft.basic_event("a").unwrap();
    assert!(matches!(
        ft.basic_event("a"),
        Err(FtaError::DuplicateName { .. })
    ));
    assert!(matches!(
        ft.k_of_n_gate("v", 5, [a]),
        Err(FtaError::InvalidThreshold { .. })
    ));
    assert!(matches!(ft.set_root(a), Err(FtaError::InvalidRoot { .. })));
    assert!(matches!(ft.minimal_cut_sets(), Err(FtaError::NoRoot)));
}

#[test]
fn fta_probability_validation() {
    assert!(matches!(
        ProbabilityMap::new(vec![1.5]),
        Err(FtaError::InvalidProbability { .. })
    ));
    let mut ft = FaultTree::new("t");
    let a = ft.basic_event("a").unwrap();
    let g = ft.or_gate("g", [a]).unwrap();
    ft.set_root(g).unwrap();
    // Missing stored probability is reported by name.
    match ft.stored_probabilities() {
        Err(FtaError::MissingProbability { event }) => assert_eq!(event, "a"),
        other => panic!("expected MissingProbability, got {other:?}"),
    }
}

#[test]
fn parser_reports_location_and_cause() {
    // Unknown gate type.
    let err = parse("G := nand(A, B)\nbasic A\nbasic B\ntop G\n").unwrap_err();
    assert!(matches!(err, FtaError::Parse { line: 1, .. }));
    // Cyclic definitions.
    let err = parse("A := or(B)\nB := or(A)\ntop A\n").unwrap_err();
    assert!(matches!(err, FtaError::CyclicTree { .. }));
    // Garbage probability.
    let err = parse("basic A p=banana\ntop A\n").unwrap_err();
    assert!(matches!(err, FtaError::Parse { line: 1, .. }));
}

#[test]
fn model_surfaces_broken_probability_expressions() {
    let mut space = ParameterSpace::new();
    space.parameter("t", 0.0, 1.0).unwrap();
    let broken = Hazard::builder("h")
        .cut_set("bad", [from_fn("negative prob", |_| -0.5)])
        .build();
    let model = SafetyModel::new(space).hazard(broken, 1.0);
    // validate() evaluates at the center and catches the bad expression.
    match model.validate() {
        Err(SafeOptError::InvalidProbability { expression, value }) => {
            assert_eq!(expression, "negative prob");
            assert_eq!(value, -0.5);
        }
        other => panic!("expected InvalidProbability, got {other:?}"),
    }
    // The optimizer front-end refuses to run on it.
    assert!(SafetyOptimizer::new(&model).run().is_err());
}

#[test]
fn model_dimension_mismatches_are_typed() {
    let mut space = ParameterSpace::new();
    space.parameter("a", 0.0, 1.0).unwrap();
    space.parameter("b", 0.0, 1.0).unwrap();
    let h = Hazard::builder("h")
        .cut_set("c", [constant(0.1).unwrap()])
        .build();
    let model = SafetyModel::new(space).hazard(h, 1.0);
    assert!(matches!(
        model.cost(&[0.5]),
        Err(SafeOptError::DimensionMismatch {
            expected: 2,
            got: 1
        })
    ));
}

#[test]
fn error_types_implement_std_error_with_sources() {
    use std::error::Error as _;
    let e = SafeOptError::from(OptimError::EmptyDomain);
    assert!(e.source().is_some());
    let e: Box<dyn std::error::Error> = Box::new(FtaError::NoRoot);
    assert!(!e.to_string().is_empty());
}

#[test]
fn corrupted_tree_fails_validation_not_analysis() {
    // Even a structurally corrupted tree (possible only through
    // deserialization) is caught by validate().
    let mut ft = FaultTree::new("t");
    let a = ft.basic_event_with_probability("a", 0.5).unwrap();
    let g = ft.or_gate("g", [a]).unwrap();
    ft.set_root(g).unwrap();
    ft.validate().unwrap();
}
