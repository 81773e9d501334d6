//! Differential suite for the production branch-and-bound against the
//! reference search it replaced (`tableseg_oracle::exact`).
//!
//! The production search only adds a tighter, still valid objective
//! bound (the clique cover), so it visits a subset of the reference's
//! nodes in the same depth-first order. Two guarantees follow, and both
//! are checked here at many budgets:
//!
//! * (a) wherever the reference finishes within its budget, the
//!   production outcome is identical — the first optimal leaf in
//!   depth-first order, or the same infeasibility proof;
//! * (b) wherever the reference runs out of budget holding an incumbent,
//!   the production search returns one at least as good.
//!
//! On top of that the production labels are honest: `Optimal` only for a
//! finished search, `Incumbent` for an unproven best-so-far.

use proptest::prelude::*;

use tableseg::{prepare_with_template, SiteTemplate};
use tableseg_csp::exact::{solve_bnb, BnbOutcome};
use tableseg_csp::model::{Constraint, Model, Relation, Term};
use tableseg_csp::{encode, reduce_model, CspOptions, EncodeOptions};
use tableseg_oracle::exact::solve_bnb_reference;
use tableseg_sitegen::paper_sites;
use tableseg_sitegen::site::generate;

/// The relaxed rung's exact-first node budget.
const RELAXED_BUDGET: u64 = 50_000;

/// A budget no model in this suite comes close to.
const AMPLE: u64 = 10_000_000;

/// Checks guarantees (a) and (b) and the label honesty at one budget.
/// Returns whether the reference ran out of budget.
fn check_against_reference(model: &Model, budget: u64) -> Result<bool, TestCaseError> {
    let (reference, ref_exhausted) = solve_bnb_reference(model, budget);
    let production = solve_bnb(model, budget);
    if let BnbOutcome::Optimal {
        assignment,
        objective,
    }
    | BnbOutcome::Incumbent {
        assignment,
        objective,
    } = &production
    {
        prop_assert!(model.feasible(assignment), "infeasible assignment");
        prop_assert_eq!(model.objective_value(assignment), *objective);
    }
    if !ref_exhausted {
        prop_assert_eq!(&production, &reference, "budget {}", budget);
        return Ok(false);
    }
    match (&reference, &production) {
        (
            BnbOutcome::Optimal { objective: r, .. },
            BnbOutcome::Optimal { objective: p, .. } | BnbOutcome::Incumbent { objective: p, .. },
        ) => prop_assert!(p >= r, "budget {budget}: incumbent {p} < reference {r}"),
        (BnbOutcome::Optimal { .. }, other) => {
            prop_assert!(
                false,
                "budget {budget}: lost the reference's incumbent: {other:?}"
            )
        }
        (BnbOutcome::Unknown, _) => {}
        (other, _) => prop_assert!(false, "an exhausted reference reported {other:?}"),
    }
    if matches!(production, BnbOutcome::Optimal { .. }) {
        // Claimed finished: more budget cannot change the answer. (At an
        // ample budget the outcome equals the reference's, which
        // `check_budgets` checks, so this pins the true optimum.)
        prop_assert_eq!(&production, &solve_bnb(model, AMPLE), "budget {}", budget);
    }
    Ok(true)
}

/// Runs the check at an ample budget and a ladder of small ones.
fn check_budgets(model: &Model, extra: u64) -> Result<(), TestCaseError> {
    let (_, ample_exhausted) = solve_bnb_reference(model, AMPLE);
    prop_assert!(!ample_exhausted, "model too large for the suite");
    prop_assert!(!check_against_reference(model, AMPLE)?);
    for budget in [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 500, extra] {
        check_against_reference(model, budget)?;
    }
    Ok(())
}

/// A random model: at-most-one groups first (the encoder's uniqueness
/// shape, `≤ 1` or `= 1`), then mixed `≤`/`≥`/`=` rows with negative and
/// non-unit coefficients, where a variable may repeat within a row, and a
/// non-unit objective that may be negative.
fn arb_model() -> impl Strategy<Value = Model> {
    (4usize..13).prop_flat_map(|n| {
        let group = (
            proptest::collection::vec(0..n, 1..=4),
            prop_oneof![Just(Relation::Le), Just(Relation::Eq)],
        );
        let term = (0..n, prop_oneof![Just(-2i32), Just(-1), Just(1), Just(2)]);
        let row = (
            proptest::collection::vec(term, 1..=4),
            prop_oneof![Just(Relation::Le), Just(Relation::Ge), Just(Relation::Eq)],
            -2i32..4,
        );
        (
            proptest::collection::vec(group, 0..5),
            proptest::collection::vec(row, 0..6),
            proptest::collection::vec(-2i32..4, n),
        )
            .prop_map(move |(groups, rows, objective)| {
                let mut m = Model::new(n);
                for (vars, rel) in groups {
                    m.add(Constraint::sum(vars, rel, 1));
                }
                for (terms, rel, rhs) in rows {
                    m.add(Constraint {
                        terms: terms
                            .into_iter()
                            .map(|(var, coef)| Term { var, coef })
                            .collect(),
                        rel,
                        rhs,
                        label: String::new(),
                    });
                }
                m.objective = objective
                    .into_iter()
                    .enumerate()
                    .filter(|&(_, coef)| coef != 0)
                    .map(|(var, coef)| Term { var, coef })
                    .collect();
                m
            })
    })
}

/// A relaxed-segmentation-shaped model: disjoint uniqueness rows over
/// every variable, maximize-sum, plus random pairwise exclusions and
/// consecutiveness triples — where the clique cover bites hardest.
fn arb_relaxed_model() -> impl Strategy<Value = Model> {
    (proptest::collection::vec(1usize..4, 2..6)).prop_flat_map(|sizes| {
        let n: usize = sizes.iter().sum();
        let pair = (0..n, 0..n);
        let triple = (0..n, 0..n, 0..n);
        (
            proptest::collection::vec(pair, 0..8),
            proptest::collection::vec(triple, 0..6),
        )
            .prop_map(move |(pairs, triples)| {
                let mut m = Model::new(n);
                let mut start = 0;
                for &size in &sizes {
                    m.add(Constraint::sum(start..start + size, Relation::Le, 1));
                    start += size;
                }
                for (a, b) in pairs {
                    m.add(Constraint::sum([a, b], Relation::Le, 1));
                }
                for (a, b, c) in triples {
                    m.add(Constraint {
                        terms: vec![
                            Term { var: a, coef: 1 },
                            Term { var: b, coef: 1 },
                            Term { var: c, coef: -1 },
                        ],
                        rel: Relation::Le,
                        rhs: 1,
                        label: String::new(),
                    });
                }
                m.maximize_sum(0..n);
                m
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn random_models_match_the_reference(model in arb_model(), extra in 1u64..=500) {
        check_budgets(&model, extra)?;
    }

    #[test]
    fn relaxed_shaped_models_match_the_reference(
        model in arb_relaxed_model(),
        extra in 1u64..=500,
    ) {
        check_budgets(&model, extra)?;
    }
}

/// The relaxed encoding of every list page of the 12 paper sites, built
/// the way the ladder builds it: the strict encoding relaxed in place.
fn paper_relaxed_encodings() -> Vec<(String, Model)> {
    let mut out = Vec::new();
    for spec in paper_sites::all() {
        let site = generate(&spec);
        let template = SiteTemplate::build(&site.list_htmls());
        for (page, generated) in site.pages.iter().enumerate() {
            let details: Vec<&str> = generated.detail_html.iter().map(String::as_str).collect();
            let obs = prepare_with_template(&template, page, &details).observations;
            let strict = EncodeOptions {
                relaxed: false,
                position_constraints: true,
            };
            let mut enc = encode(&obs, &strict);
            enc.relax();
            let relaxed = encode(
                &obs,
                &EncodeOptions {
                    relaxed: true,
                    ..strict
                },
            );
            assert_eq!(enc, relaxed, "{} page {page}", spec.name);
            out.push((format!("{} page {page}", spec.name), enc.model));
        }
    }
    out
}

#[test]
fn paper_relaxed_components_match_the_reference_at_the_relaxed_budget() {
    let encodings = paper_relaxed_encodings();
    assert_eq!(encodings.len(), 24);
    let cap = CspOptions::default().bnb_var_cap;
    let (mut checked, mut ref_exhausted, mut exhausted) = (0, 0, 0);
    for (name, model) in &encodings {
        let red = reduce_model(model);
        assert!(!red.infeasible, "{name}");
        for comp in red.components.iter().filter(|c| c.model.num_vars <= cap) {
            let r = check_against_reference(&comp.model, RELAXED_BUDGET)
                .unwrap_or_else(|e| panic!("{name}: {e:?}"));
            checked += 1;
            ref_exhausted += usize::from(r);
            exhausted += usize::from(solve_bnb(&comp.model, RELAXED_BUDGET).exhausted());
        }
    }
    eprintln!(
        "{checked} relaxed paper components: reference exhausted {ref_exhausted}, \
         production exhausted {exhausted}"
    );
    assert!(checked > 0);
    // The reference runs out of budget on the big relaxed components
    // (guarantee (b) is exercised on real encodings); the clique cover
    // proves every one of them optimal within the same budget.
    assert!(ref_exhausted > 0);
    assert_eq!(exhausted, 0);
}
