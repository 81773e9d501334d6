//! The whole-instance CSP relaxation ladder that instance reduction
//! replaced, kept verbatim.

use tableseg_csp::encoder::{encode, EncodeOptions};
use tableseg_csp::exact::{solve_bnb, BnbOutcome};
use tableseg_csp::model::Model;
use tableseg_csp::solution::decode;
use tableseg_csp::wsat::{WsatConfig, WsatResult};
use tableseg_csp::{CspOptions, CspOutcome, CspStatus};
use tableseg_extract::{Observations, Segmentation};

/// A WSAT entry point: [`tableseg_csp::wsat::solve`] or
/// [`crate::wsat::solve_reference`].
pub type Solver = fn(&Model, &WsatConfig) -> WsatResult;

/// The pre-reduction whole-instance ladder (encode → solve → BnB →
/// relax), searching with `solver`: the differential oracle for
/// [`tableseg_csp::segment_csp`], the `solvebench` prev leg (with the
/// production WSAT) and its baseline leg (with the reference WSAT).
pub fn segment_whole(obs: &Observations, opts: &CspOptions, solver: Solver) -> CspOutcome {
    if obs.items.is_empty() {
        return CspOutcome {
            segmentation: Segmentation::unassigned(obs.num_records, 0),
            status: CspStatus::Solved,
            strict_violation: 0,
            flips: 0,
            tries: 0,
            components: 0,
            pruned_vars: 0,
            warm_start_hits: 0,
            reduce_ns: 0,
            bnb_exhausted: 0,
        };
    }

    // Step 1: strict problem via stochastic search.
    let strict_enc = encode(
        obs,
        &EncodeOptions {
            relaxed: false,
            position_constraints: opts.position_constraints,
        },
    );
    let strict = solver(&strict_enc.model, &opts.wsat);
    if strict.feasible {
        return CspOutcome {
            segmentation: decode(&strict_enc, &strict.assignment, obs),
            status: CspStatus::Solved,
            strict_violation: 0,
            flips: strict.flips,
            tries: strict.tries,
            components: 0,
            pruned_vars: 0,
            warm_start_hits: 0,
            reduce_ns: 0,
            bnb_exhausted: 0,
        };
    }

    // Step 2: exact cross-check (skipped for oversized encodings).
    let strict_bnb = if strict_enc.model.num_vars <= opts.bnb_var_cap {
        solve_bnb(&strict_enc.model, opts.bnb_budget)
    } else {
        BnbOutcome::Unknown
    };
    let exhausted = strict_bnb.exhausted();
    match strict_bnb {
        BnbOutcome::Optimal { assignment, .. } | BnbOutcome::Incumbent { assignment, .. } => {
            return CspOutcome {
                segmentation: decode(&strict_enc, &assignment, obs),
                status: CspStatus::Solved,
                strict_violation: 0,
                flips: strict.flips,
                tries: strict.tries,
                components: 0,
                pruned_vars: 0,
                warm_start_hits: 0,
                reduce_ns: 0,
                bnb_exhausted: usize::from(exhausted),
            };
        }
        BnbOutcome::Infeasible | BnbOutcome::Unknown => {}
    }

    // Step 3: relaxed optimization.
    let relaxed_enc = encode(
        obs,
        &EncodeOptions {
            relaxed: true,
            position_constraints: opts.position_constraints,
        },
    );
    // The relaxed problem is solved by stochastic search alone, exactly as
    // the paper did with WSAT(OIP): the resulting partial assignment is a
    // good local optimum but not necessarily the global maximum — which is
    // precisely why the paper's relaxed solutions on dirty sites were
    // partial ("not every extract was assigned to a record", Section 6.3).
    // The relaxation itself yields an objective upper bound (one record
    // per extract), letting the search stop as soon as every extract is
    // assigned rather than burning the remaining restart budget.
    let relaxed_cfg = WsatConfig {
        objective_target: relaxed_enc.objective_upper_bound(),
        ..opts.wsat
    };
    let relaxed = solver(&relaxed_enc.model, &relaxed_cfg);
    let flips = strict.flips + relaxed.flips;
    let tries = strict.tries + relaxed.tries;
    if !relaxed.feasible {
        return CspOutcome {
            segmentation: Segmentation::unassigned(obs.num_records, obs.items.len()),
            status: CspStatus::Failed,
            strict_violation: strict.violation,
            flips,
            tries,
            components: 0,
            pruned_vars: 0,
            warm_start_hits: 0,
            reduce_ns: 0,
            bnb_exhausted: usize::from(exhausted),
        };
    }
    let best_assignment = relaxed.assignment;

    CspOutcome {
        segmentation: decode(&relaxed_enc, &best_assignment, obs),
        status: CspStatus::SolvedRelaxed,
        strict_violation: strict.violation,
        flips,
        tries,
        components: 0,
        pruned_vars: 0,
        warm_start_hits: 0,
        reduce_ns: 0,
        bnb_exhausted: usize::from(exhausted),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tableseg_csp::segment_csp;
    use tableseg_csp::wsat::solve;
    use tableseg_extract::build_observations;
    use tableseg_html::{lexer::tokenize, Token};

    /// The paper's Superpages example (Tables 1-3).
    fn superpages_obs() -> Observations {
        let list = tokenize(
            "<tr><td>John Smith</td><td>221 Washington</td><td>New Holland</td><td>(740) 335-5555</td></tr>\
             <tr><td>John Smith</td><td>221R Washington St</td><td>Wash CH</td><td>(740) 335-5555</td></tr>\
             <tr><td>George W. Smith</td><td>Findlay, OH</td><td>(419) 423-1212</td></tr>",
        );
        let d1 = tokenize(
            "<h1>John Smith</h1><p>221 Washington</p><p>New Holland</p><p>(740) 335-5555</p>",
        );
        let d2 = tokenize(
            "<h1>John Smith</h1><p>221R Washington St</p><p>Wash CH</p><p>(740) 335-5555</p>",
        );
        let d3 = tokenize("<h1>George W. Smith</h1><p>Findlay, OH</p><p>(419) 423-1212</p>");
        let details: Vec<&[Token]> = vec![&d1, &d2, &d3];
        build_observations(&list, &[], &details)
    }

    #[test]
    fn reduced_path_agrees_with_whole_instance_oracle() {
        // The differential gate of instance reduction: on every fixture the
        // reduced/decomposed/warm-started ladder must reach the same status
        // as the whole-instance ladder, with a valid segmentation.
        let fixtures: Vec<Observations> = vec![superpages_obs(), {
            let list =
                tokenize("<td>Alpha One</td><td>Parole</td><td>Beta Two</td><td>Parole</td>");
            let d1 = tokenize("<p>Alpha One</p><p>Parole</p>");
            let d2 = tokenize("<p>Beta Two</p><p>Parolee</p>");
            let refs: Vec<&[Token]> = vec![&d1, &d2];
            build_observations(&list, &[], &refs)
        }];
        for obs in &fixtures {
            let reduced = segment_csp(obs, &CspOptions::default());
            let whole = segment_whole(obs, &CspOptions::default(), solve);
            assert_eq!(reduced.status, whole.status);
            assert_eq!(reduced.strict_violation > 0, whole.strict_violation > 0);
            for (i, &a) in reduced.segmentation.assignments.iter().enumerate() {
                if let Some(r) = a {
                    assert!(obs.items[i].on_page(r));
                }
            }
            if reduced.status == CspStatus::Solved {
                assert_eq!(reduced.segmentation, whole.segmentation);
            }
        }
    }
}
